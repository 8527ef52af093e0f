//! `hidden_campaign`: the hidden-node comparison of Figs. 6–7 exactly as
//! `repro_all --quick` builds it — two campaigns (disc radius 16 m and
//! 20 m) of TORA, wTOP, 802.11 and IdleSense at N ∈ {10, 20, 40, 60}, seeds
//! 1 and 2, 60 s adaptive / 2 s static warm-up and 8 s measured — run
//! through `Campaign::run` on two threads with no cache installed.
//!
//! Each radius's campaign is run as one `Campaign::run` call per protocol
//! (eight calls, the same 64 jobs in the same order), so calibration
//! samples can sit between calls: one call of the whole campaign takes
//! ~12 s, longer than the host's speed holds still (see `Calibration`).
//! The jobs of one call are of one protocol, so they cost alike and the
//! pool's tail, where one thread waits for the other, stays short.
//!
//! The grid is the figures' own, so `--seed` does not change it: the seed
//! also places the stations, and other placements change the grid's cost by
//! up to ±25% (22.6–36.2 s per pass over seeds 1–5 on a 2-core x86-64
//! host), which would bury every bound under input variation rather than
//! measure the program.

use std::sync::Mutex;
use std::time::Instant;

use wlan_core::{Campaign, Protocol, ResultCache, ScenarioResult, TopologySpec};
use wlan_sim::SimDuration;

use crate::job::traced_pool;
use crate::trace::{Layers, Tracer};
use crate::util::{mean, median, result_digest, self_peak_rss_mb, Calibration, WorkDir};
use crate::{e2e_metrics, server_probe, time_setups, Opts, Outcome};

const THREADS: usize = 2;

/// The seeds `repro_all --quick` replicates every cell over.
const GRID_SEEDS: [u64; 2] = [1, 2];

/// The figures' protocols, in their campaigns' order.
const PROTOCOLS: [Protocol; 4] = [
    Protocol::ToraCsma,
    Protocol::WTopCsma,
    Protocol::Standard80211,
    Protocol::IdleSense,
];

/// The grid as one campaign per radius and protocol, in the order the
/// figures' two campaigns run their jobs.
fn campaigns() -> Vec<Campaign> {
    let mut out = Vec::new();
    for (radius, label) in [(16.0, "fig06_hidden_16m"), (20.0, "fig07_hidden_20m")] {
        for protocol in PROTOCOLS {
            out.push(
                Campaign::new()
                    .warmups(SimDuration::from_secs(60), SimDuration::from_secs(2))
                    .measure(SimDuration::from_secs(8))
                    .threads(THREADS)
                    .protocols(&[protocol])
                    .topology(label, TopologySpec::UniformDisc { radius })
                    .node_counts(&[10, 20, 40, 60])
                    .seeds(&GRID_SEEDS),
            );
        }
    }
    out
}

/// Set-up: expand both grids, validate every job and build its simulator
/// once (placement, topology and station state), as a caller preparing the
/// campaign would.
fn setup() -> Vec<Campaign> {
    let campaigns = campaigns();
    for job in campaigns.iter().flat_map(Campaign::jobs) {
        job.validate().expect("the hidden-node grid is valid");
        std::hint::black_box(job.build_simulator());
    }
    campaigns
}

fn is_tuned(p: Protocol) -> bool {
    matches!(p, Protocol::WTopCsma | Protocol::ToraCsma)
}

/// One pass: every campaign through `Campaign::run`, with calibration
/// samples before each call when `cal` is given. Returns the results in
/// grid order (`None` when a campaign panicked, which `Campaign::run` does
/// after quarantining a job), each job's result latency, and the pass time
/// without the samples, in host seconds. A job's latency is its radius's
/// four calls together: the time the figure's campaign of that radius
/// takes to return its results.
fn pass(
    campaigns: &[Campaign],
    mut cal: Option<&mut Calibration>,
) -> (Vec<Option<ScenarioResult>>, Vec<f64>, f64) {
    let mut results = Vec::new();
    let mut latencies = Vec::new();
    let mut wall = 0.0;
    let mut last = 0.0;
    for radius in campaigns.chunks(PROTOCOLS.len()) {
        let mut radius_wall = 0.0;
        let mut radius_jobs = 0;
        for c in radius {
            if let Some(cal) = cal.as_deref_mut() {
                cal.sample_for(last);
            }
            let jobs = c.jobs().len();
            let t = Instant::now();
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| c.run()));
            last = t.elapsed().as_secs_f64();
            radius_wall += last;
            radius_jobs += jobs;
            match outcome {
                Ok(o) => {
                    results.extend(o.cells.into_iter().flat_map(|cell| cell.results).map(Some))
                }
                Err(_) => results.extend(std::iter::repeat_n(None, jobs)),
            }
        }
        latencies.extend(std::iter::repeat_n(radius_wall, radius_jobs));
        wall += radius_wall;
    }
    (results, latencies, wall)
}

pub fn run(opts: &Opts, cal: &mut Calibration) -> Outcome {
    if opts.trace {
        return traced(opts);
    }
    let (setup_s, campaigns) = time_setups(cal, setup);
    let protocols: Vec<Protocol> = campaigns
        .iter()
        .flat_map(Campaign::jobs)
        .map(|j| j.protocol)
        .collect();
    let sim_secs: f64 = campaigns
        .iter()
        .flat_map(Campaign::jobs)
        .map(|j| j.end_time().as_secs_f64())
        .sum();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut first: Option<Vec<Option<String>>> = None;
    let mut tuned = Vec::new();
    let mut latencies = Vec::new();
    let mut walls = Vec::new();
    let started = Instant::now();
    while walls.is_empty() || started.elapsed().as_secs_f64() < opts.seconds {
        let (results, lat, wall) = pass(&campaigns, Some(cal));
        walls.push(wall);
        latencies.extend(lat);
        let digests: Vec<Option<String>> = results
            .iter()
            .map(|r| r.as_ref().map(result_digest))
            .collect();
        attempted += digests.len() as u64;
        let reference = first.get_or_insert_with(|| digests.clone());
        failed += digests
            .iter()
            .zip(reference.iter())
            .filter(|(d, r)| d.is_none() || d != r)
            .count() as u64;
        if tuned.is_empty() {
            tuned = results
                .iter()
                .zip(&protocols)
                .filter(|(_, p)| is_tuned(**p))
                .filter_map(|(r, _)| r.as_ref().map(|r| r.throughput_mbps))
                .collect();
        }
    }
    let wall = median(&walls);
    Outcome {
        attempted,
        failed,
        metrics: e2e_metrics(
            cal.factor()
                .expect("the timed section took calibration samples"),
            setup_s,
            sim_secs / wall,
            protocols.len() as f64 / wall,
            &latencies,
            self_peak_rss_mb(cal),
            mean(&tuned),
        ),
        digests: first
            .unwrap_or_default()
            .into_iter()
            .map(Option::unwrap_or_default)
            .collect(),
    }
}

/// The traced run: every `Campaign::run` call of a pass, each followed by
/// the same jobs on a traced pool of the same size and claiming order, so
/// both see the same host speed; the traced results must equal the
/// untraced ones.
fn traced(opts: &Opts) -> Outcome {
    let campaigns = setup();
    let tracer = Tracer::new(true);
    let layers = Mutex::new(Layers::default());
    let work = WorkDir::new("hidden").expect("create the work directory");
    let cache = ResultCache::open(work.path().join("cache")).expect("open a cache");
    let before = wlan_core::metrics::global().snapshot();
    let mut plain = Vec::new();
    let mut traced = Vec::new();
    let mut walls = Vec::new();
    let (mut plain_wall, mut traced_wall) = (0.0, 0.0);
    for c in &campaigns {
        let (results, _, wall) = pass(std::slice::from_ref(c), None);
        plain.extend(results);
        plain_wall += wall;
        let run = traced_pool(&c.jobs(), THREADS, None, &cache, &tracer, &layers);
        traced.extend(run.results);
        walls.extend(run.walls);
        traced_wall += run.makespan;
    }
    // The pool metrics count only the untraced calls.
    let after = wlan_core::metrics::global().snapshot();
    let mut layers = layers.into_inner().expect("layer tallies poisoned");
    layers.overhead = traced_wall / plain_wall - 1.0;
    layers.job_walls = walls;
    layers.busy_secs = after.busy_secs - before.busy_secs;
    layers.capacity_secs = THREADS as f64 * plain_wall;
    layers.retries = after.retries - before.retries;
    layers.quarantined = after.quarantined - before.quarantined;
    let failed = plain
        .iter()
        .zip(&traced)
        .filter(|(p, t)| match (p, t) {
            (Some(p), Ok(t)) => result_digest(p) != result_digest(t),
            _ => true,
        })
        .count() as u64;
    let jobs: Vec<_> = campaigns.iter().flat_map(Campaign::jobs).collect();
    let probe = server_probe(opts, &jobs, &tracer, &mut layers, &work);
    Outcome {
        attempted: plain.len() as u64 + probe.0,
        failed: failed + probe.1,
        metrics: crate::traced_metrics(opts, "hidden_campaign", &tracer, &layers),
        digests: Vec::new(),
    }
}
