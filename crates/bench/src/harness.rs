//! Shared infrastructure for the per-figure experiment binaries: run
//! configuration, result output (`results/*.dat` gnuplot-style series and
//! `results/*.json` dumps), and the throughput-versus-N campaign that several
//! figures share.

use serde::Serialize;
use std::fs;
use std::path::PathBuf;
use std::sync::Arc;
use wlan_core::{
    attempts_from, collect_checked, default_threads, Campaign, CampaignReport, FaultPlan, Protocol,
    ResultCache, RunContext, Scenario, TopologySpec,
};
use wlan_sim::SimDuration;

/// Global run configuration for the experiment harness.
///
/// `from_env` / `from_args` are the **single source** of the `--quick` /
/// `--full` / `--threads` / `--no-cache` command line and the
/// `WLAN_REPRO_QUICK` / `WLAN_THREADS` / `WLAN_NO_CACHE` /
/// `WLAN_JOB_RETRIES` / `WLAN_FAULT_PLAN` / `WLAN_CACHE_DIR` environment
/// variables; binaries must consume this struct rather than re-parsing
/// either.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Quick mode: fewer seeds, fewer sweep points and shorter runs. Intended for
    /// CI and for smoke-testing the harness; the full mode reproduces the paper's
    /// averaging (20 iterations) more closely.
    pub quick: bool,
    /// Disable the content-addressed result cache (`--no-cache` /
    /// `WLAN_NO_CACHE=1`): every job goes to the engine, nothing is stored.
    pub no_cache: bool,
    /// What every campaign of the run executes on: the worker threads
    /// (results are bit-identical for every value), the `WLAN_JOB_RETRIES`
    /// attempt budget, the `WLAN_FAULT_PLAN` fault plan, and the result
    /// cache once [`RunConfig::with_cache`] opened it.
    pub ctx: RunContext,
}

impl RunConfig {
    /// Read the configuration from the process command line and environment.
    /// Quick mode is the default so that `repro_all` finishes in minutes; pass
    /// `--full` for the heavyweight version.
    pub fn from_env() -> Self {
        let args: Vec<String> = std::env::args().collect();
        Self::from_args(&args)
    }

    /// Parse an explicit argument list (`--quick`, `--full`, `--threads N`,
    /// `--no-cache`), falling back to the environment for anything the
    /// arguments leave unset. Opens no cache (see [`RunConfig::with_cache`]).
    pub fn from_args(args: &[String]) -> Self {
        let env = |name: &str| std::env::var(name).ok();
        let quick = if args.iter().any(|a| a == "--full") {
            false
        } else if args.iter().any(|a| a == "--quick") {
            true
        } else {
            env("WLAN_REPRO_QUICK").is_none_or(|v| v != "0")
        };
        let threads = args
            .iter()
            .position(|a| a == "--threads")
            .and_then(|i| args.get(i + 1))
            .and_then(|v| v.parse::<usize>().ok())
            .filter(|&t| t >= 1)
            .unwrap_or_else(default_threads);
        let no_cache = args.iter().any(|a| a == "--no-cache")
            || env("WLAN_NO_CACHE").is_some_and(|v| v != "0");
        RunConfig {
            quick,
            no_cache,
            ctx: RunContext {
                attempts: attempts_from(env("WLAN_JOB_RETRIES").as_deref()),
                faults: fault_plan_from(env("WLAN_FAULT_PLAN").as_deref()),
                ..RunContext::new(threads)
            },
        }
    }

    /// This configuration with the result cache opened unless `--no-cache`
    /// was given: in `WLAN_CACHE_DIR` when set, else in `.cache/` inside
    /// [`out_dir`]. An unusable directory warns and leaves the run
    /// compute-only; it never falls back to another directory.
    pub fn with_cache(mut self) -> Self {
        if !self.no_cache {
            let dir = std::env::var("WLAN_CACHE_DIR").ok();
            self.ctx.cache = open_cache(dir.as_deref(), self.ctx.faults.clone()).map(Arc::new);
        }
        self
    }

    /// Seeds to average over.
    pub fn seeds(&self) -> Vec<u64> {
        if self.quick {
            vec![1, 2]
        } else {
            (1..=10).collect()
        }
    }

    /// Station counts for throughput-vs-N sweeps (the paper uses 10..60).
    pub fn node_counts(&self) -> Vec<usize> {
        if self.quick {
            vec![10, 20, 40, 60]
        } else {
            vec![10, 20, 30, 40, 50, 60]
        }
    }

    /// Warm-up time granted to adaptive protocols before measuring.
    pub fn adaptive_warmup(&self) -> SimDuration {
        SimDuration::from_secs(if self.quick { 60 } else { 90 })
    }

    /// Warm-up time for static protocols.
    pub fn static_warmup(&self) -> SimDuration {
        SimDuration::from_secs(if self.quick { 2 } else { 5 })
    }

    /// Measurement time.
    pub fn measure(&self) -> SimDuration {
        SimDuration::from_secs(if self.quick { 8 } else { 20 })
    }

    /// Total simulated time of the dynamic-membership runs (the paper uses 500 s).
    pub fn dynamic_total_secs(&self) -> u64 {
        if self.quick {
            200
        } else {
            500
        }
    }

    /// A [`Campaign`] pre-configured with this run's durations and context;
    /// callers add the protocol/topology/N/seed grid.
    pub fn campaign(&self) -> Campaign {
        Campaign::new()
            .warmups(self.adaptive_warmup(), self.static_warmup())
            .measure(self.measure())
            .context(self.ctx.clone())
    }

    /// Run one scenario list on this run's context, preserving input order
    /// (panics if any job was quarantined).
    pub fn run_scenarios(&self, scenarios: &[Scenario]) -> Vec<wlan_core::ScenarioResult> {
        collect_checked(self.ctx.run(scenarios)).unwrap_or_else(|e| panic!("campaign failed: {e}"))
    }
}

/// Parse a `WLAN_FAULT_PLAN` value. A malformed plan is reported on stderr
/// and ignored: an unparsable chaos experiment must not fail open into
/// injected faults.
pub fn fault_plan_from(var: Option<&str>) -> Option<Arc<FaultPlan>> {
    match FaultPlan::from_spec(var?) {
        Ok(plan) => Some(Arc::new(plan)),
        Err(e) => {
            eprintln!("warning: ignoring malformed WLAN_FAULT_PLAN: {e}");
            None
        }
    }
}

/// Open the result cache in `dir` (a `WLAN_CACHE_DIR` value), or in `.cache/`
/// inside [`out_dir`] when `dir` is `None`, checking `faults` at its I/O
/// sites. An unusable directory warns and yields `None` — the run goes
/// compute-only instead of caching somewhere else.
fn open_cache(dir: Option<&str>, faults: Option<Arc<FaultPlan>>) -> Option<ResultCache> {
    let dir = dir.map_or_else(|| out_dir().join(".cache"), PathBuf::from);
    match ResultCache::open(&dir) {
        Ok(cache) => Some(cache.with_faults(faults)),
        Err(e) => {
            eprintln!(
                "warning: result cache {} is unusable ({e}) — running without cache",
                dir.display()
            );
            None
        }
    }
}

/// Directory into which all experiment outputs are written.
pub fn out_dir() -> PathBuf {
    let dir = std::env::var("WLAN_REPRO_OUT").unwrap_or_else(|_| "results".to_string());
    let path = PathBuf::from(dir);
    fs::create_dir_all(&path).expect("cannot create results directory");
    path
}

/// Write a whitespace-separated data file (one comment header line, then rows).
pub fn write_dat(name: &str, header: &str, rows: &[Vec<f64>]) {
    let mut text = format!("# {header}\n");
    for row in rows {
        let cells: Vec<String> = row.iter().map(|v| format!("{v:.6}")).collect();
        text.push_str(&cells.join(" "));
        text.push('\n');
    }
    let path = out_dir().join(name);
    fs::write(&path, text).expect("cannot write data file");
    println!("  wrote {}", path.display());
}

/// Write a JSON dump of any serialisable result.
pub fn write_json<T: Serialize>(name: &str, value: &T) {
    let path = out_dir().join(name);
    fs::write(
        &path,
        serde_json::to_string_pretty(value).expect("serialise"),
    )
    .expect("cannot write json file");
    println!("  wrote {}", path.display());
}

/// One protocol's mean throughput as a function of the number of stations.
#[derive(Debug, Clone, Serialize)]
pub struct ThroughputCurve {
    /// Protocol label.
    pub protocol: String,
    /// `(n, mean Mbps, min Mbps, max Mbps)` per sweep point.
    pub points: Vec<(usize, f64, f64, f64)>,
}

/// Run a throughput-vs-N campaign for several protocols on one topology.
///
/// Returns the per-protocol curves (in `protocols` order) plus the campaign's
/// per-cell statistics report; both are deterministic regardless of
/// `cfg.ctx.threads`.
pub fn throughput_vs_n(
    cfg: &RunConfig,
    protocols: &[Protocol],
    topology: &TopologySpec,
    label: &str,
) -> (Vec<ThroughputCurve>, CampaignReport) {
    let campaign = cfg
        .campaign()
        .protocols(protocols)
        .topology(label, topology.clone())
        .node_counts(&cfg.node_counts())
        .seeds(&cfg.seeds());
    // Per-cell lines are printed after collection (workers must not write to
    // stdout in scheduling order); announce the workload up front so a long
    // sweep is distinguishable from a hang.
    println!(
        "  [{label}] running {} jobs on {} thread{}...",
        campaign.jobs().len(),
        cfg.ctx.threads,
        if cfg.ctx.threads == 1 { "" } else { "s" }
    );
    let outcome = campaign.run();
    // Cells arrive in grid order: protocol-major, node counts within protocol.
    let per_proto = cfg.node_counts().len();
    let mut curves = Vec::new();
    for (proto, cells) in protocols.iter().zip(outcome.cells.chunks(per_proto)) {
        let mut points = Vec::new();
        for cell in cells {
            let s = cell.stats();
            println!(
                "  [{label}] {:<18} n={:<3} -> {:>6.2} Mbps (min {:.2}, max {:.2})",
                proto.label(),
                cell.n,
                s.mean_mbps,
                s.min_mbps,
                s.max_mbps
            );
            points.push((cell.n, s.mean_mbps, s.min_mbps, s.max_mbps));
        }
        curves.push(ThroughputCurve {
            protocol: proto.label().to_string(),
            points,
        });
    }
    (curves, outcome.report())
}

/// Write a set of throughput curves as one .dat file per protocol plus a JSON dump.
pub fn save_curves(stem: &str, curves: &[ThroughputCurve]) {
    for curve in curves {
        let fname = format!(
            "{stem}_{}.dat",
            curve
                .protocol
                .to_lowercase()
                .replace([' ', '.', '(', ')'], "_")
        );
        let rows: Vec<Vec<f64>> = curve
            .points
            .iter()
            .map(|(n, mean, min, max)| vec![*n as f64, *mean, *min, *max])
            .collect();
        write_dat(&fname, "n mean_mbps min_mbps max_mbps", &rows);
    }
    write_json(&format!("{stem}.json"), &curves);
}

/// Write a campaign's per-cell mean/stddev/CI95 statistics as
/// `{stem}_cells.json` next to the curves.
pub fn save_report(stem: &str, report: &CampaignReport) {
    write_json(&format!("{stem}_cells.json"), report);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_config_is_smaller_than_full() {
        let quick = RunConfig {
            quick: true,
            no_cache: true,
            ctx: RunContext::new(1),
        };
        let full = RunConfig {
            quick: false,
            ..quick.clone()
        };
        assert!(quick.seeds().len() < full.seeds().len());
        assert!(quick.node_counts().len() <= full.node_counts().len());
        assert!(quick.measure() < full.measure());
        assert!(quick.dynamic_total_secs() < full.dynamic_total_secs());
    }

    #[test]
    fn args_parsing_is_the_single_source() {
        let to_args = |s: &[&str]| s.iter().map(|x| x.to_string()).collect::<Vec<_>>();
        let cfg = RunConfig::from_args(&to_args(&["bin", "--full", "--threads", "3"]));
        assert!(!cfg.quick);
        assert_eq!(cfg.ctx.threads, 3);
        let cfg = RunConfig::from_args(&to_args(&["bin", "--quick"]));
        assert!(cfg.quick);
        assert!(cfg.ctx.threads >= 1);
        // --full wins over --quick, mirroring the historical behaviour.
        let cfg = RunConfig::from_args(&to_args(&["bin", "--quick", "--full"]));
        assert!(!cfg.quick);
        // Malformed --threads falls back to the default.
        let cfg = RunConfig::from_args(&to_args(&["bin", "--threads", "zero"]));
        assert!(cfg.ctx.threads >= 1);
        // --no-cache is recognised; absent, the cache stays enabled (unless
        // the WLAN_NO_CACHE environment override is exported).
        let cfg = RunConfig::from_args(&to_args(&["bin", "--no-cache"]));
        assert!(cfg.no_cache);
        assert!(cfg.ctx.cache.is_none(), "parsing opens no cache");
    }

    #[test]
    fn unusable_cache_dir_runs_compute_only() {
        let path = std::env::temp_dir().join(format!("wlan_harness_cache_{}", std::process::id()));
        std::fs::write(&path, "a file, not a directory").unwrap();
        assert!(open_cache(path.to_str(), None).is_none());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn malformed_fault_plans_are_ignored() {
        assert!(fault_plan_from(None).is_none());
        assert!(fault_plan_from(Some("teleport=1")).is_none());
        let plan = fault_plan_from(Some("seed=4;job_panic=1")).unwrap();
        assert_eq!(plan.seed(), 4);
    }

    #[test]
    fn dat_files_are_written() {
        std::env::set_var(
            "WLAN_REPRO_OUT",
            std::env::temp_dir().join("wlan_repro_test"),
        );
        write_dat("unit_test.dat", "a b", &[vec![1.0, 2.0], vec![3.0, 4.0]]);
        let path = out_dir().join("unit_test.dat");
        let text = std::fs::read_to_string(path).unwrap();
        assert!(text.starts_with("# a b\n"));
        assert!(text.contains("3.000000 4.000000"));
        std::env::remove_var("WLAN_REPRO_OUT");
    }
}
