//! `service_cold` and `service_warm`: `campaign_server` as a child process
//! over one job spec of 108 short jobs on two threads, checkpointing every
//! job several times.
//!
//! * Saturated jobs: 802.11, wTOP and TORA × {fully connected, disc 20 m} ×
//!   N ∈ {20, 50, 100, 200}, three seeds each (72 jobs).
//! * Finite-load jobs: fully connected Poisson sources with a 64-frame queue,
//!   the same protocols × N ∈ {20, 50} × {100, 400} frames/s, three seeds
//!   each (36 jobs) — the only load on the traffic layer's arrival tier.
//!
//! `service_cold` gives every pass fresh cache and checkpoint directories,
//! so every job computes, snapshots and stores. `service_warm` fills a cache
//! during set-up and then serves the spec, listed [`WARM_REPEAT`] times over,
//! from it: every line is a cache hit and no engine work runs.

use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::time::Instant;

use wlan_core::{job_key, Protocol, ResultCache, Scenario, TopologySpec, TrafficSpec};
use wlan_sim::{ArrivalProcess, SimDuration};

use crate::job::traced_pool;
use crate::server::{parse_line, run_pass, spec, Pass};
use crate::trace::{Layers, Tracer};
use crate::util::{mean, median, Calibration, WorkDir};
use crate::{e2e_metrics, time_setups, Opts, Outcome};

/// Simulated seconds between the server's periodic snapshots: five per job.
const CHECKPOINT_SIM_SECS: f64 = 0.25;

/// How many times the warm spec lists the job set. One warm pass of the
/// plain set takes milliseconds, too short to time steadily.
const WARM_REPEAT: usize = 20;

/// Every how many jobs the traced run's in-process engine probe samples one.
const PROBE_EVERY: usize = 9;

pub fn jobs(seed: u64) -> Vec<Scenario> {
    let protocols = [
        Protocol::Standard80211,
        Protocol::WTopCsma,
        Protocol::ToraCsma,
    ];
    let (warmup, measure) = (SimDuration::from_millis(500), SimDuration::from_secs(1));
    let mut out = Vec::new();
    for _ in 0..3 {
        for &p in &protocols {
            for topo in [
                TopologySpec::FullyConnected,
                TopologySpec::UniformDisc { radius: 20.0 },
            ] {
                for n in [20, 50, 100, 200] {
                    out.push(Scenario::new(p, topo.clone(), n).durations(warmup, measure));
                }
            }
        }
    }
    for _ in 0..3 {
        for &p in &protocols {
            for n in [20, 50] {
                for rate_fps in [100.0, 400.0] {
                    let traffic = TrafficSpec {
                        arrival: ArrivalProcess::Poisson { rate_fps },
                        queue_frames: Some(64),
                    };
                    out.push(
                        Scenario::new(p, TopologySpec::FullyConnected, n)
                            .durations(warmup, measure)
                            .traffic(traffic),
                    );
                }
            }
        }
    }
    for (i, s) in out.iter_mut().enumerate() {
        s.seed = seed * 1000 + i as u64;
    }
    out
}

fn is_tuned(p: Protocol) -> bool {
    matches!(p, Protocol::WTopCsma | Protocol::ToraCsma)
}

/// The scratch layout of one server pass: its working directory and the
/// spec's cache and checkpoint directories.
struct Dirs {
    cwd: PathBuf,
    cache: PathBuf,
    checkpoints: PathBuf,
}

impl Dirs {
    fn fresh(work: &WorkDir, name: &str) -> Dirs {
        let cwd = work.fresh(name).expect("create a pass directory");
        let cache = cwd.join("cache");
        let checkpoints = cwd.join("checkpoints");
        Dirs {
            cwd,
            cache,
            checkpoints,
        }
    }

    fn spec(&self, jobs: &[Scenario], repeat: usize) -> String {
        spec(
            jobs,
            repeat,
            CHECKPOINT_SIM_SECS,
            &self.cache,
            &self.checkpoints,
        )
    }
}

fn server(opts: &Opts) -> &Path {
    opts.server
        .as_deref()
        .expect("the service workloads need --server <campaign_server binary>")
}

/// Check one pass against the expected result texts (`expected[i]` for job
/// `i`, repeated specs wrapping around) and the expected `cached` flag.
/// Returns the number of failed jobs: error lines, wrong `cached` flags,
/// results that differ, and jobs with no line at all.
///
/// Under `WLAN_METRICS=1` a computed result carries one more, final key,
/// `controller_telemetry`; the comparison ignores it.
fn check(pass: &Pass, expected: &[String], jobs: usize, cached: bool) -> u64 {
    let mut failed = jobs.saturating_sub(pass.lines.len()) as u64;
    if !pass.exit_ok && failed == 0 {
        failed = 1;
    }
    for (_, line) in &pass.lines {
        let ok = (|| {
            let rest = line.strip_prefix("{\"job\":")?;
            let job: usize = rest[..rest.find(',')?].parse().ok()?;
            let head = &line[..line.find("\"result\":")?];
            let flag = if cached {
                "\"cached\":true"
            } else {
                "\"cached\":false"
            };
            let text = &line[head.len() + "\"result\":".len()..line.len() - 1];
            let want = expected.get(job % expected.len())?;
            let same = match text.find(",\"controller_telemetry\":") {
                Some(cut) => want.len() == cut + 1 && want.starts_with(&text[..cut]),
                None => want == text,
            };
            (head.contains(flag) && same).then_some(())
        })();
        failed += u64::from(ok.is_none());
    }
    failed
}

/// The result texts of a pass, by job, and the mean throughput of its tuned
/// (wTOP and TORA) jobs.
fn texts(pass: &Pass, jobs: &[Scenario]) -> (Vec<String>, f64) {
    let mut texts = vec![String::new(); jobs.len()];
    let mut tuned = Vec::new();
    for line in pass.lines.iter().filter_map(|(_, l)| parse_line(l)) {
        if line.job < jobs.len() && line.error.is_none() {
            if is_tuned(jobs[line.job].protocol) {
                tuned.push(line.throughput_mbps);
            }
            texts[line.job] = line.result_text;
        }
    }
    (texts, mean(&tuned))
}

/// Timed passes until `seconds` have passed: latency of every line from the
/// spec write, each pass's lines per second, failed jobs, the largest child
/// peak RSS, and the first pass.
struct Timed {
    latencies: Vec<f64>,
    rates: Vec<f64>,
    failed: u64,
    peak_rss_mb: f64,
    passes: u64,
    first: Pass,
}

/// Run timed passes, checking each against `expected`, or when that is
/// `None` against the first pass's own result texts (every pass must equal
/// the first).
fn timed_passes(
    seconds: f64,
    cal: &mut Calibration,
    mut one: impl FnMut() -> Pass,
    expected: Option<&[String]>,
    jobs: &[Scenario],
    lines: usize,
    cached: bool,
) -> Timed {
    let (mut latencies, mut rates) = (Vec::new(), Vec::new());
    let (mut failed, mut peak_rss_mb, mut passes) = (0, 0.0f64, 0);
    let mut first: Option<(Pass, Vec<String>)> = None;
    let started = Instant::now();
    let mut last_wall = 0.0;
    while passes == 0 || started.elapsed().as_secs_f64() < seconds {
        cal.sample_for(last_wall);
        let pass = one();
        last_wall = pass.wall();
        passes += 1;
        latencies.extend(
            pass.lines
                .iter()
                .map(|(at, _)| at.duration_since(pass.start).as_secs_f64()),
        );
        rates.push(pass.lines.len() as f64 / pass.wall());
        peak_rss_mb = peak_rss_mb.max(pass.peak_rss_mb);
        match &first {
            Some((_, own)) => failed += check(&pass, expected.unwrap_or(own), lines, cached),
            None => {
                let own = texts(&pass, jobs).0;
                failed += check(&pass, expected.unwrap_or(&own), lines, cached);
                first = Some((pass, own));
            }
        }
    }
    let t = Timed {
        latencies,
        rates,
        failed,
        peak_rss_mb,
        passes,
        first: first.expect("at least one pass ran").0,
    };
    eprintln!(
        "perfbench: {} passes, lines/s per pass q1 {:.1} median {:.1} q3 {:.1}",
        t.passes,
        crate::util::quantile(&t.rates, 0.25),
        median(&t.rates),
        crate::util::quantile(&t.rates, 0.75)
    );
    t
}

/// Mean simulated seconds per job.
fn sim_secs_per_job(jobs: &[Scenario]) -> f64 {
    mean(
        &jobs
            .iter()
            .map(|j| j.end_time().as_secs_f64())
            .collect::<Vec<_>>(),
    )
}

pub fn run_cold(opts: &Opts, cal: &mut Calibration) -> Outcome {
    let work = WorkDir::new("service_cold").expect("create the work directory");
    let bin = server(opts);
    if opts.trace {
        return traced(opts, &work, false);
    }
    // Set-up: generate the jobs and the spec, and start the server once on an
    // empty spec (binary load, start-up).
    let (setup_s, jobs) = time_setups(cal, || {
        let jobs = jobs(opts.seed);
        let dirs = Dirs::fresh(&work, "setup");
        std::hint::black_box(dirs.spec(&jobs, 1));
        let empty =
            run_pass(bin, &dirs.cwd, "{\"jobs\":[]}", false).expect("start campaign_server");
        assert!(empty.exit_ok, "campaign_server failed on an empty spec");
        jobs
    });
    // Every pass must equal the first.
    let t = timed_passes(
        opts.seconds,
        cal,
        || cold_pass(bin, &work, &jobs, false),
        None,
        &jobs,
        jobs.len(),
        false,
    );
    let (expected, tuned) = texts(&t.first, &jobs);
    Outcome {
        attempted: t.passes * jobs.len() as u64,
        failed: t.failed,
        metrics: e2e_metrics(
            cal.factor()
                .expect("the timed section took calibration samples"),
            setup_s,
            median(&t.rates) * sim_secs_per_job(&jobs),
            median(&t.rates),
            &t.latencies,
            t.peak_rss_mb,
            tuned,
        ),
        digests: expected
            .iter()
            .map(|x| crate::util::digest(x.as_bytes()))
            .collect(),
    }
}

/// One cold pass: fresh cache and checkpoint directories.
fn cold_pass(bin: &Path, work: &WorkDir, jobs: &[Scenario], telemetry: bool) -> Pass {
    let dirs = Dirs::fresh(work, "cold");
    run_pass(bin, &dirs.cwd, &dirs.spec(jobs, 1), telemetry).expect("run campaign_server")
}

/// Set-up of `service_warm`: fill a fresh cache with one cold pass. Returns
/// the directories and the pass.
fn fill(bin: &Path, work: &WorkDir, jobs: &[Scenario]) -> (Dirs, Pass) {
    let dirs = Dirs::fresh(work, "warm");
    let pass = run_pass(bin, &dirs.cwd, &dirs.spec(jobs, 1), false).expect("run campaign_server");
    (dirs, pass)
}

pub fn run_warm(opts: &Opts, cal: &mut Calibration) -> Outcome {
    let work = WorkDir::new("service_warm").expect("create the work directory");
    let bin = server(opts);
    if opts.trace {
        return traced(opts, &work, true);
    }
    let jobs = jobs(opts.seed);
    let mut fills = Vec::new();
    let (setup_s, dirs) = time_setups(cal, || {
        let (dirs, pass) = fill(bin, &work, &jobs);
        fills.push(pass);
        dirs
    });
    // Every fill must produce the same lines: the cold results the warm
    // passes are checked against.
    let (expected, _) = texts(&fills[0], &jobs);
    let mut failed: u64 = fills
        .iter()
        .map(|f| check(f, &expected, jobs.len(), false))
        .sum();
    drop(fills);
    let warm_spec = dirs.spec(&jobs, WARM_REPEAT);
    // One untimed pass first, so the cache files are in the page cache.
    let first = run_pass(bin, &dirs.cwd, &warm_spec, false).expect("run campaign_server");
    let (_, tuned) = texts(&first, &jobs);
    failed += check(&first, &expected, jobs.len() * WARM_REPEAT, true);
    let t = timed_passes(
        opts.seconds,
        cal,
        || run_pass(bin, &dirs.cwd, &warm_spec, false).expect("run campaign_server"),
        Some(&expected),
        &jobs,
        jobs.len() * WARM_REPEAT,
        true,
    );
    failed += t.failed;
    Outcome {
        attempted: (t.passes + 1) * (jobs.len() * WARM_REPEAT) as u64,
        failed,
        metrics: e2e_metrics(
            cal.factor()
                .expect("the timed section took calibration samples"),
            setup_s,
            median(&t.rates) * sim_secs_per_job(&jobs),
            median(&t.rates),
            &t.latencies,
            t.peak_rss_mb,
            tuned,
        ),
        digests: expected
            .iter()
            .map(|x| crate::util::digest(x.as_bytes()))
            .collect(),
    }
}

/// Record the spans and sizes of a server pass: the first line, every job
/// line (from the spec write), line sizes and the cache hit ratio.
pub fn record_pass(pass: &Pass, tracer: &Tracer, layers: &mut Layers) {
    if let Some((at, _)) = pass.lines.first() {
        tracer.record("server.first_line", pass.start, *at, None, None);
    }
    for (i, (at, line)) in pass.lines.iter().enumerate() {
        tracer.record("server.line", pass.start, *at, None, Some(i as u32));
        layers.line_bytes.push(line.len() as f64);
    }
    let count = |k: &str| match &pass.summary {
        Some(serde::Value::Map(m)) => match serde::map_get(m, k) {
            Ok(serde::Value::U64(v)) => *v,
            _ => 0,
        },
        _ => 0,
    };
    layers.cache_hits += count("cache_hits");
    layers.cache_lookups += count("cache_hits") + count("cache_misses");
}

/// The traced run of either service workload: one untraced pass, one pass
/// with `WLAN_METRICS=1` and every line spanned, and an in-process probe of
/// every [`PROBE_EVERY`]-th job (engine profile, kernel counts, snapshots at
/// the spec's cadence, key, store and lookup). `service_warm` also times
/// `job_key` and `ResultCache::lookup` for every job against its filled
/// cache.
fn traced(opts: &Opts, work: &WorkDir, warm: bool) -> Outcome {
    /// One server pass, with or without `WLAN_METRICS=1`.
    type PassFn<'a> = Box<dyn Fn(bool) -> Pass + 'a>;
    let bin = server(opts);
    let jobs = jobs(opts.seed);
    let tracer = Tracer::new(true);
    let (pass_fn, expected, n_lines): (PassFn, Vec<String>, usize) = if warm {
        let (dirs, filled) = fill(bin, work, &jobs);
        let (expected, _) = texts(&filled, &jobs);
        let spec = dirs.spec(&jobs, WARM_REPEAT);
        let cwd = dirs.cwd.clone();
        let cache = ResultCache::open(&dirs.cache).expect("open the filled cache");
        let mut hits = 0;
        for (i, job) in jobs.iter().enumerate() {
            let id = Some(i as u32);
            let key = tracer.span("job_key", None, id, |_| job_key(job));
            let hit = tracer.span("cache.lookup", None, id, |_| cache.lookup(&key));
            hits += u64::from(hit.is_some());
        }
        assert_eq!(hits, jobs.len() as u64, "the filled cache misses a job");
        (
            Box::new(move |t| run_pass(bin, &cwd, &spec, t).expect("run campaign_server")),
            expected,
            jobs.len() * WARM_REPEAT,
        )
    } else {
        let first = cold_pass(bin, work, &jobs, false);
        let (expected, _) = texts(&first, &jobs);
        (
            Box::new(|t| cold_pass(bin, work, &jobs, t)),
            expected,
            jobs.len(),
        )
    };
    let plain = pass_fn(false);
    let traced = pass_fn(true);
    let mut failed =
        check(&plain, &expected, n_lines, warm) + check(&traced, &expected, n_lines, warm);
    let mut layers = Layers {
        overhead: traced.wall() / plain.wall() - 1.0,
        ..Layers::default()
    };
    record_pass(&traced, &tracer, &mut layers);
    // A worker's time per job: the server's `wall_secs` for a computed job;
    // for a hit (reported as zero) the `job_key` + `lookup` time measured
    // above on the same cache.
    let hit_secs = mean(&tracer.durations("job_key")) + mean(&tracer.durations("cache.lookup"));
    let walls: Vec<f64> = traced
        .lines
        .iter()
        .filter_map(|(_, l)| parse_line(l))
        .map(|l| if warm { hit_secs } else { l.wall_secs })
        .collect();
    layers.busy_secs = walls.iter().sum();
    layers.capacity_secs = 2.0 * traced.wall();
    layers.job_walls = walls;
    if let Some(serde::Value::Map(m)) = &traced.metrics {
        let get = |k: &str| match serde::map_get(m, k) {
            Ok(serde::Value::U64(v)) => *v,
            _ => 0,
        };
        layers.retries = get("retries");
        layers.quarantined = get("quarantined");
    }

    let sample: Vec<Scenario> = jobs.iter().step_by(PROBE_EVERY).cloned().collect();
    let cache = ResultCache::open(work.fresh("probe").expect("create the probe cache"))
        .expect("open the probe cache");
    let shared = Mutex::new(layers);
    let probe = traced_pool(
        &sample,
        2,
        Some(SimDuration::from_secs_f64(CHECKPOINT_SIM_SECS)),
        &cache,
        &tracer,
        &shared,
    );
    let layers = shared.into_inner().expect("layer tallies poisoned");
    for (r, i) in probe
        .results
        .iter()
        .zip((0..jobs.len()).step_by(PROBE_EVERY))
    {
        let same = r.as_ref().ok().map(crate::util::result_digest)
            == Some(crate::util::digest(expected[i].as_bytes()));
        failed += u64::from(!same);
    }
    let name = if warm { "service_warm" } else { "service_cold" };
    Outcome {
        attempted: 2 * n_lines as u64 + sample.len() as u64,
        failed,
        metrics: crate::traced_metrics(opts, name, &tracer, &layers),
        digests: Vec::new(),
    }
}
