//! The repository's benchmark: four workloads that stress different layers
//! of the reproduction, end-to-end metrics with tracing off, and a separate
//! traced run for per-layer metrics. See `perfbench/README.md`.
//!
//! ```text
//! wlan-perfbench --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//!                [--server PATH] [--write-reference]
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {name: {"value": .., "unit": ..}}}`.

mod clique;
mod hidden;
mod job;
mod server;
mod service;
mod trace;
mod util;

use std::path::{Path, PathBuf};
use std::time::Instant;

use serde::Value;
use wlan_core::{Scenario, ENGINE_FINGERPRINT};

use crate::trace::{Layers, Tracer};
use crate::util::{median, quantile, Calibration, WorkDir};

/// The workload seed when `--seed` is not given; the stored reference
/// digests are for this seed.
pub const DEFAULT_SEED: u64 = 1;

/// The stored reference digests, relative to the checkout root.
const REFERENCE: &str = "perfbench/reference.json";

const WORKLOADS: [&str; 4] = [
    "clique_scaling",
    "hidden_campaign",
    "service_cold",
    "service_warm",
];

pub struct Opts {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// The `campaign_server` binary (the service workloads and the traced
    /// runs' server probe need it).
    pub server: Option<PathBuf>,
}

/// What one workload run produced.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Digests of every job's serialised result, in job order (untraced runs).
    pub digests: Vec<String>,
}

/// The end-to-end metrics, in the order of `BENCHMARK.json`. `latencies`
/// are the seconds from each job's request to its result. Times and rates
/// are measured in host seconds and scaled to the reference speed by the
/// timed section's calibration factor `speed` (see [`Calibration`]);
/// `setup_s` comes from [`time_setups`] already scaled.
#[allow(clippy::too_many_arguments)]
pub fn e2e_metrics(
    speed: f64,
    setup_s: f64,
    sim_rate: f64,
    jobs_per_s: f64,
    latencies: &[f64],
    peak_rss_mb: f64,
    tuned_mbps: f64,
) -> Vec<(&'static str, f64, &'static str)> {
    vec![
        ("setup_s", setup_s, "s"),
        ("sim_rate", sim_rate / speed, "sim-s/s"),
        ("jobs_per_s", jobs_per_s / speed, "1/s"),
        ("result_p50_s", quantile(latencies, 0.5) * speed, "s"),
        ("result_p90_s", quantile(latencies, 0.9) * speed, "s"),
        ("peak_rss_mb", peak_rss_mb, "MiB"),
        ("tuned_mbps", tuned_mbps, "Mbps"),
    ]
}

/// The least set-up time [`time_setups`] measures in one run.
const SETUP_MIN_SECS: f64 = 1.0;

/// Time the workload's set-up: run it in batches, each after three
/// calibration samples, until at least three batches and
/// [`SETUP_MIN_SECS`] of set-up time have run. A batch holds one set-up or,
/// for set-ups of milliseconds, as many as fill about 0.1 s. Returns the
/// median set-up time scaled by those samples' factor, and the last
/// set-up's result. Each set-up starts after the previous one's result is
/// dropped, so two never hold memory at once. The set-ups' calibration
/// starts the run's afresh, so the timed section is scaled by its own
/// samples.
pub fn time_setups<T>(cal: &mut Calibration, mut setup: impl FnMut() -> T) -> (f64, T) {
    let mut times = Vec::new();
    let mut last = None;
    let mut batches = 0;
    while batches < 3 || times.iter().sum::<f64>() < SETUP_MIN_SECS {
        for _ in 0..3 {
            cal.sample();
        }
        let batch = if times.is_empty() {
            1
        } else {
            (0.1 / median(&times)).clamp(1.0, 1000.0) as usize
        };
        for _ in 0..batch {
            drop(last.take());
            let t = Instant::now();
            let value = setup();
            times.push(t.elapsed().as_secs_f64());
            last = Some(value);
        }
        batches += 1;
    }
    let factor = cal.factor().expect("each set-up took samples");
    eprintln!(
        "perfbench: set-up ran {} times in {batches} batches, median {:.6} s, speed factor {factor:.4}",
        times.len(),
        median(&times)
    );
    let scaled = median(&times) * factor;
    cal.reset();
    (scaled, last.expect("set-up ran at least once"))
}

/// The per-layer metrics of a traced run. The spans are written to
/// `.bench_trace/<workload>-seed<seed>.jsonl` once the run is over.
pub fn traced_metrics(
    opts: &Opts,
    workload: &str,
    tracer: &Tracer,
    layers: &Layers,
) -> Vec<(&'static str, f64, &'static str)> {
    let path = PathBuf::from(".bench_trace").join(format!("{workload}-seed{}.jsonl", opts.seed));
    match tracer.write(&path) {
        Ok(()) => eprintln!("perfbench: spans written to {}", path.display()),
        Err(e) => eprintln!("perfbench: cannot write {}: {e}", path.display()),
    }
    layers.metrics(tracer)
}

/// The server layer for the in-process workloads' traced runs: one
/// `campaign_server` pass (with `WLAN_METRICS=1`) over up to eight of the
/// workload's scenarios, shortened to 0.2 simulated seconds. Records the
/// first-line and per-line spans and line sizes; returns (attempted, failed).
pub fn server_probe(
    opts: &Opts,
    scenarios: &[Scenario],
    tracer: &Tracer,
    layers: &mut Layers,
    work: &WorkDir,
) -> (u64, u64) {
    let Some(bin) = opts.server.as_deref() else {
        eprintln!("perfbench: no --server given, so the traced run cannot probe the server layer");
        return (1, 1);
    };
    let step = (scenarios.len() / 8).max(1);
    let jobs: Vec<Scenario> = scenarios
        .iter()
        .step_by(step)
        .take(8)
        .map(|s| {
            s.clone().durations(
                wlan_sim::SimDuration::ZERO,
                wlan_sim::SimDuration::from_millis(200),
            )
        })
        .collect();
    let cwd = work
        .fresh("server_probe")
        .expect("create the probe directory");
    let spec = server::spec(&jobs, 1, 0.1, &cwd.join("cache"), &cwd.join("checkpoints"));
    let failed = match server::run_pass(bin, &cwd, &spec, true) {
        Ok(pass) => {
            service::record_pass(&pass, tracer, layers);
            let bad = pass
                .lines
                .iter()
                .filter(|(_, l)| l.contains("\"error\":"))
                .count();
            (jobs.len() - pass.lines.len() + bad) as u64
        }
        Err(e) => {
            eprintln!("perfbench: cannot run {}: {e}", bin.display());
            jobs.len() as u64
        }
    };
    (jobs.len() as u64, failed)
}

/// The stored reference: per engine fingerprint, the default seed's result
/// digests for every workload that has them.
fn reference_digests(path: &Path, workload: &str) -> Option<Vec<String>> {
    let text = std::fs::read_to_string(path).ok()?;
    let Value::Map(root) = serde_json::from_str::<Value>(&text).ok()? else {
        return None;
    };
    let Ok(Value::Map(by_workload)) = serde::map_get(&root, ENGINE_FINGERPRINT) else {
        return None;
    };
    // `service_warm` serves `service_cold`'s jobs, so it has the same results.
    let key = if workload == "service_warm" {
        "service_cold"
    } else {
        workload
    };
    match serde::map_get(by_workload, key).ok()? {
        Value::Seq(items) => Some(
            items
                .iter()
                .filter_map(|v| match v {
                    Value::Str(s) => Some(s.clone()),
                    _ => None,
                })
                .collect(),
        ),
        _ => None,
    }
}

/// Replace `workload`'s digests under the current fingerprint in the
/// reference file, keeping everything else.
fn write_reference(path: &Path, workload: &str, digests: &[String]) -> std::io::Result<()> {
    let mut root = std::fs::read_to_string(path)
        .ok()
        .and_then(|t| serde_json::from_str::<Value>(&t).ok())
        .and_then(|v| match v {
            Value::Map(m) => Some(m),
            _ => None,
        })
        .unwrap_or_default();
    let list = Value::Seq(digests.iter().map(|d| Value::Str(d.clone())).collect());
    let slot = match root.iter_mut().find(|(k, _)| k == ENGINE_FINGERPRINT) {
        Some(slot) => &mut slot.1,
        None => {
            root.push((ENGINE_FINGERPRINT.to_string(), Value::Map(Vec::new())));
            &mut root.last_mut().expect("just pushed").1
        }
    };
    if let Value::Map(m) = slot {
        m.retain(|(k, _)| k != workload);
        m.push((workload.to_string(), list));
        m.sort_by(|a, b| a.0.cmp(&b.0));
    }
    let text = serde_json::to_string_pretty(&Value::Map(root))
        .map_err(|e| std::io::Error::other(e.to_string()))?;
    std::fs::write(path, text + "\n")
}

fn git_commit() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

fn usage(msg: &str) -> ! {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: wlan-perfbench --workload <{}> [--seed N] [--seconds S] [--trace 0|1] \
         [--server PATH] [--write-reference]",
        WORKLOADS.join("|")
    );
    std::process::exit(2);
}

fn main() {
    // Hermetic runs: no `WLAN_*` knob of the caller's environment (cache
    // directory, fault plan, metrics, heartbeats, retries, timeouts) may
    // reach the library or the server child. Nothing has read them yet and
    // no other thread exists.
    for (key, _) in std::env::vars_os() {
        if key.to_string_lossy().starts_with("WLAN_") {
            std::env::remove_var(&key);
        }
    }

    let args: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| {
        args.iter().position(|a| a == flag).map(|i| {
            args.get(i + 1)
                .cloned()
                .unwrap_or_else(|| usage(&format!("{flag} needs a value")))
        })
    };
    let workload = value("--workload").unwrap_or_else(|| usage("--workload is required"));
    if !WORKLOADS.contains(&workload.as_str()) {
        usage(&format!("unknown workload `{workload}`"));
    }
    let parse = |flag: &str, default: f64| -> f64 {
        value(flag).map_or(default, |v| {
            v.parse()
                .unwrap_or_else(|_| usage(&format!("{flag} needs a number")))
        })
    };
    let opts = Opts {
        seed: parse("--seed", DEFAULT_SEED as f64) as u64,
        seconds: parse("--seconds", 10.0),
        trace: parse("--trace", 0.0) != 0.0,
        server: value("--server").map(PathBuf::from),
    };
    let reference = Path::new(REFERENCE);

    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "perfbench: workload {workload}, seed {}, {} s, trace {}, engine {ENGINE_FINGERPRINT}, \
         commit {}, nproc {nproc}",
        opts.seed,
        opts.seconds,
        u8::from(opts.trace),
        git_commit()
    );
    // `clique_scaling` runs on one thread, the other workloads on two.
    let mut cal = Calibration::new(if workload == "clique_scaling" { 1 } else { 2 });
    let outcome = match workload.as_str() {
        "clique_scaling" => clique::run(&opts, &mut cal),
        "hidden_campaign" => hidden::run(&opts, &mut cal),
        "service_cold" => service::run_cold(&opts, &mut cal),
        _ => service::run_warm(&opts, &mut cal),
    };
    if !opts.trace {
        match cal.factor() {
            Some(factor) => {
                eprintln!("perfbench: calibration factors {:?}", cal.quartiles());
                println!(
                    "{workload}: host speed factor {factor:.4} (from the calibration samples \
                     taken through the run; times are host times multiplied by it, rates \
                     divided)"
                );
            }
            None => println!("{workload}: times are raw host times (no calibration)"),
        }
    }
    let mut failed = outcome.failed;

    if args.iter().any(|a| a == "--write-reference") {
        if opts.trace || opts.seed != DEFAULT_SEED || workload == "service_warm" {
            usage("--write-reference needs an untraced run of clique_scaling, hidden_campaign or service_cold at the default seed");
        }
        write_reference(reference, &workload, &outcome.digests).expect("write the reference");
        eprintln!(
            "perfbench: wrote {} digests to {}",
            outcome.digests.len(),
            reference.display()
        );
    } else if !opts.trace && opts.seed == DEFAULT_SEED {
        match reference_digests(reference, &workload) {
            Some(want) => {
                let wrong = want
                    .iter()
                    .zip(&outcome.digests)
                    .filter(|(w, g)| w != g)
                    .count()
                    + want.len().abs_diff(outcome.digests.len());
                eprintln!(
                    "perfbench: reference check: {wrong} of {} results differ from {}",
                    want.len(),
                    reference.display()
                );
                failed += wrong as u64;
            }
            None => eprintln!(
                "perfbench: no reference for {workload} under {ENGINE_FINGERPRINT}; \
                 only the run's own consistency checks apply"
            ),
        }
    }

    let mut metrics = Vec::new();
    for (name, value, unit) in &outcome.metrics {
        println!("{workload} {name} = {value} {unit}");
        metrics.push((
            name.to_string(),
            Value::Map(vec![
                ("value".to_string(), Value::F64(*value)),
                ("unit".to_string(), Value::Str(unit.to_string())),
            ]),
        ));
    }
    println!(
        "{workload}: {failed} failed of {} attempted (seed {}, engine {ENGINE_FINGERPRINT}, nproc {nproc})",
        outcome.attempted, opts.seed
    );
    let result = Value::Map(vec![
        ("correct".to_string(), Value::Bool(failed == 0)),
        (
            "attempted".to_string(),
            Value::U64(outcome.attempted.max(1)),
        ),
        ("failed".to_string(), Value::U64(failed)),
        ("metrics".to_string(), Value::Map(metrics)),
    ]);
    println!(
        "{}",
        serde_json::to_string(&result).expect("the result line serialises")
    );
}
