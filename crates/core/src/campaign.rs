//! The campaign runner: expand a scenario grid (protocol × topology × N ×
//! seed) into independent jobs, execute them on a hand-rolled `std::thread`
//! pool, and collect the results **in deterministic job order**, so a
//! parallel campaign is bit-identical to a serial one.
//!
//! The paper's figures and tables are averages over many independent
//! `(scenario, seed)` replications; each replication owns its RNG and its
//! simulator, so they parallelise perfectly. The only requirement for
//! reproducibility is that aggregation happens in a fixed order — which this
//! module guarantees by pre-expanding the grid into an indexed job list and
//! writing each worker's result into the slot of the job it claimed.
//!
//! ## Run context
//!
//! A [`RunContext`] carries everything a run needs besides its jobs: the
//! worker count, the attempt budget, an optional [`ResultCache`] and an
//! optional [`FaultPlan`]. [`RunContext::run`] is the one executor; a run is
//! cached exactly when its context holds a cache, and faulted exactly when it
//! holds a plan. Neither is process-global, so two runs with different
//! contexts can overlap in one process (as concurrent tests do) without
//! seeing each other's cache or faults. (Only the counters of
//! [`crate::metrics::global`] are shared.) The library reads no environment
//! variable for these: `WLAN_CACHE_DIR`, `WLAN_FAULT_PLAN` and
//! `WLAN_JOB_RETRIES` are parsed by the binaries' entry points, which build
//! the context (see [`attempts_from`] for the retry budget).
//!
//! ## Supervision
//!
//! Every job runs under [`std::panic::catch_unwind`]: a panicking job (a
//! real bug, or a fault injected by the context's plan) is retried up to
//! [`RunContext::attempts`] times with a deterministic backoff, and a job
//! that exhausts its attempts is **quarantined** into a structured
//! [`JobError`] slot instead of tearing down the whole pool. Retries never
//! perturb anything: each job owns all of its randomness, so a retry is a
//! pure re-execution, and results are collected by slot index, so the
//! output order — and the output bytes of every healthy job — are identical
//! to a fault-free serial run. [`RunContext::run`] returns the per-job
//! `Result`s; [`collect_checked`] folds them into all-or-error form.
//!
//! ```
//! use wlan_core::{Campaign, Protocol, TopologySpec};
//! use wlan_sim::SimDuration;
//!
//! let outcome = Campaign::new()
//!     .protocols(&[Protocol::Standard80211, Protocol::StaticPPersistent { p: 0.02 }])
//!     .topology("fully connected", TopologySpec::FullyConnected)
//!     .node_counts(&[5, 10])
//!     .seeds(&[1, 2])
//!     .warmups(SimDuration::from_millis(100), SimDuration::from_millis(100))
//!     .measure(SimDuration::from_millis(200))
//!     .threads(2)
//!     .run();
//! assert_eq!(outcome.cells.len(), 4); // 2 protocols × 1 topology × 2 N
//! assert!(outcome.report().cells[0].mean_mbps > 0.0);
//! ```
#![deny(clippy::unwrap_used, clippy::expect_used)]

use crate::cache::ResultCache;
use crate::error::{CampaignError, JobError};
use crate::fault::{FaultPlan, FaultSite};
use crate::protocol::Protocol;
use crate::scenario::{Scenario, ScenarioResult, TopologySpec};
use serde::{Deserialize, Serialize};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::Duration;
use wlan_sim::{SimDuration, TrafficSpec};

// The campaign executor moves scenarios and results across threads; these
// compile-time assertions are the "is everything Send?" audit the pool relies
// on (no `Rc`, no thread-bound interior mutability anywhere in the job path).
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<Scenario>();
    assert_send::<ScenarioResult>();
    assert_send::<Protocol>();
    assert_send::<TopologySpec>();
    assert_send::<JobError>();
};

/// Number of worker threads to use when none is requested explicitly: the
/// `WLAN_THREADS` environment variable if set to a positive integer, otherwise
/// [`std::thread::available_parallelism`] (1 if even that is unavailable).
pub fn default_threads() -> usize {
    threads_from(std::env::var("WLAN_THREADS").ok().as_deref())
}

/// [`default_threads`] with the `WLAN_THREADS` value passed in (testable
/// without mutating the process environment).
fn threads_from(var: Option<&str>) -> usize {
    var.and_then(|v| v.parse::<usize>().ok())
        .filter(|&t| t >= 1)
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1)
        })
}

/// Retries granted to a panicking job beyond its first attempt, when the
/// `WLAN_JOB_RETRIES` environment variable does not override it.
pub const DEFAULT_JOB_RETRIES: u32 = 2;

/// Total attempts for a `WLAN_JOB_RETRIES` value: 1 initial run plus the
/// retries it names (default [`DEFAULT_JOB_RETRIES`], which an unparsable
/// value also falls back to), saturating at `u32::MAX`. Entry points pass the
/// variable in and store the answer in [`RunContext::attempts`].
pub fn attempts_from(var: Option<&str>) -> u32 {
    var.and_then(|v| v.parse::<u32>().ok())
        .unwrap_or(DEFAULT_JOB_RETRIES)
        .saturating_add(1)
}

/// Deterministic backoff before retry `attempt` (1-based): doubling from
/// 1 ms, capped at 50 ms. Purely a wall-clock pause — it cannot influence
/// results, which depend only on the scenario's own seed.
fn retry_backoff(attempt: u32) -> Duration {
    Duration::from_millis((1u64 << attempt.min(6)).min(50))
}

/// Extract a printable message from a caught panic payload.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Everything a campaign run needs besides its jobs (see the
/// [module docs](self#run-context)).
#[derive(Debug, Clone)]
pub struct RunContext {
    /// Worker threads. Results are bit-identical for every value.
    pub threads: usize,
    /// Attempts each job gets before it is quarantined (at least one runs).
    pub attempts: u32,
    /// Serve stored jobs from this cache and store fresh results into it;
    /// `None` computes every job.
    pub cache: Option<Arc<ResultCache>>,
    /// The plan whose `job_panic` and `worker_stall` sites the pool trips;
    /// `None` injects nothing. The cache checks the plan of its own handle.
    pub faults: Option<Arc<FaultPlan>>,
}

impl RunContext {
    /// `threads` workers (at least 1), `1 + DEFAULT_JOB_RETRIES` attempts,
    /// no cache and no fault plan.
    pub fn new(threads: usize) -> Self {
        RunContext {
            threads: threads.max(1),
            attempts: 1 + DEFAULT_JOB_RETRIES,
            cache: None,
            faults: None,
        }
    }

    /// Run `scenarios` and return one `Result` per scenario, **in input
    /// order**, bit-identical to running them serially.
    ///
    /// The pool is deliberately simple: workers claim the next unclaimed job
    /// via an atomic counter (dynamic load balancing, like a work-stealing
    /// deque with a single shared queue) and write the result into that
    /// job's dedicated slot. Scheduling order therefore never influences
    /// output order, and each job's determinism comes from the scenario
    /// owning all of its randomness. A quarantined job occupies its own
    /// error slot; every other job's result is bit-identical to a run in
    /// which the failure never happened.
    ///
    /// With a cache, jobs whose key is stored are served from disk, only the
    /// misses run on the pool (in their original relative order), and the
    /// healthy fresh results are stored — bit-identical either way, because
    /// the cache stores exactly what the engine produced. A broken cache
    /// never aborts the run or changes its results: a failed read is a miss,
    /// and a failed store (read-only directory, disk full, injected
    /// `cache_write` fault) logs **one** warning per cache handle while the
    /// run continues compute-only.
    pub fn run(&self, scenarios: &[Scenario]) -> Vec<Result<ScenarioResult, JobError>> {
        let Some(cache) = self.cache.as_deref() else {
            return self.run_pool(scenarios);
        };
        let keys: Vec<String> = scenarios.iter().map(crate::cache::job_key).collect();
        let mut out: Vec<Option<Result<ScenarioResult, JobError>>> =
            keys.iter().map(|k| cache.lookup(k).map(Ok)).collect();
        let missing: Vec<usize> = (0..out.len()).filter(|&i| out[i].is_none()).collect();
        if !missing.is_empty() {
            let jobs: Vec<Scenario> = missing.iter().map(|&i| scenarios[i].clone()).collect();
            for (&i, result) in missing.iter().zip(self.run_pool(&jobs)) {
                if let Ok(result) = &result {
                    // A failed store only loses the cache entry, never the result.
                    if let Err(e) = cache.store(&keys[i], result) {
                        cache.note_degraded(&keys[i], &e);
                    }
                }
                out[i] = Some(result);
            }
        }
        out.into_iter()
            .map(|slot| match slot {
                Some(result) => result,
                None => unreachable!("every slot is a hit or a computed miss"),
            })
            .collect()
    }

    /// The supervised thread-pool executor, cache aside.
    fn run_pool(&self, scenarios: &[Scenario]) -> Vec<Result<ScenarioResult, JobError>> {
        let n = scenarios.len();
        let next = AtomicUsize::new(0);
        if self.threads <= 1 || n <= 1 {
            return with_heartbeat(&next, n, || {
                scenarios
                    .iter()
                    .map(|s| {
                        next.fetch_add(1, Ordering::Relaxed);
                        self.run_one(s)
                    })
                    .collect()
            });
        }
        type Slot = Mutex<Option<Result<ScenarioResult, JobError>>>;
        let slots: Vec<Slot> = (0..n).map(|_| Mutex::new(None)).collect();
        with_heartbeat(&next, n, || {
            std::thread::scope(|scope| {
                for _ in 0..self.threads.min(n) {
                    scope.spawn(|| loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        // run_one never unwinds (panics are caught and
                        // converted), so a worker can never poison a slot or
                        // tear down the scope.
                        let result = self.run_one(&scenarios[i]);
                        *slots[i].lock().unwrap_or_else(PoisonError::into_inner) = Some(result);
                    });
                }
            })
        });
        slots
            .into_iter()
            .map(|slot| {
                match slot.into_inner().unwrap_or_else(PoisonError::into_inner) {
                    Some(result) => result,
                    // Every index below `n` is claimed exactly once and the
                    // claiming worker always stores before looping.
                    None => unreachable!("campaign pool left an unfilled result slot"),
                }
            })
            .collect()
    }

    /// Run one job under supervision: pre-flight validation, panic isolation,
    /// bounded deterministic retries, and fault injection at the `job_panic` /
    /// `worker_stall` sites of the context's plan (scoped by the job's
    /// content-addressed cache key, so the schedule is independent of thread
    /// scheduling).
    fn run_one(&self, scenario: &Scenario) -> Result<ScenarioResult, JobError> {
        let metrics = crate::metrics::global();
        if let Err(e) = scenario.validate() {
            metrics.record_job_failure();
            return Err(JobError::InvalidScenario(e));
        }
        let attempts = self.attempts.max(1);
        let plan = self.faults.as_deref().filter(|p| {
            p.site(FaultSite::JobPanic).is_some() || p.site(FaultSite::WorkerStall).is_some()
        });
        let scope = plan.map(|_| crate::cache::job_key(scenario));
        let mut last_panic = String::new();
        for attempt in 0..attempts {
            if attempt > 0 {
                metrics.record_retry();
                std::thread::sleep(retry_backoff(attempt));
            }
            if let (Some(plan), Some(scope)) = (plan, scope.as_deref()) {
                if plan.should_fault(FaultSite::WorkerStall, scope, attempt) {
                    std::thread::sleep(plan.stall());
                }
            }
            let started = std::time::Instant::now();
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                if let (Some(plan), Some(scope)) = (plan, scope.as_deref()) {
                    if plan.should_fault(FaultSite::JobPanic, scope, attempt) {
                        panic!("injected fault: job_panic (scope {scope}, attempt {attempt})");
                    }
                }
                scenario.run_counted()
            }));
            match outcome {
                Ok((result, events)) => {
                    metrics.record_job(events, started.elapsed());
                    return Ok(result);
                }
                Err(payload) => last_panic = panic_message(payload),
            }
        }
        metrics.record_quarantine();
        metrics.record_job_failure();
        Err(JobError::Panicked {
            attempts,
            message: last_panic,
        })
    }
}

/// Fold the per-job results of [`RunContext::run`] into all-or-error form:
/// the healthy results in input order, or the ascending-index failure list.
pub fn collect_checked(
    checked: Vec<Result<ScenarioResult, JobError>>,
) -> Result<Vec<ScenarioResult>, CampaignError> {
    let mut out = Vec::with_capacity(checked.len());
    let mut failures = Vec::new();
    for (i, result) in checked.into_iter().enumerate() {
        match result {
            Ok(r) => out.push(r),
            Err(e) => failures.push((i, e)),
        }
    }
    if failures.is_empty() {
        Ok(out)
    } else {
        Err(CampaignError { failures })
    }
}

/// [`collect_checked`] for callers with no use for partial results: panics,
/// after every job has been given its full retry budget, if any job failed.
fn expect_all(checked: Vec<Result<ScenarioResult, JobError>>) -> Vec<ScenarioResult> {
    match collect_checked(checked) {
        Ok(results) => results,
        Err(e) => panic!("campaign failed: {e}"),
    }
}

/// Run `body` with a heartbeat thread alongside it when `WLAN_HEARTBEAT_SECS`
/// is set: one JSON line on stderr per period —
/// `{"heartbeat":<unix_secs>,"claimed":N,"done":N,"errors":N}` — where
/// `claimed` reads the pool's job-claim counter. Off by default (unset or
/// `0`), in which case `body` runs with zero added machinery. The heartbeat
/// thread only reads atomics and the metrics registry; it cannot influence
/// job scheduling or results.
fn with_heartbeat<R>(claimed: &AtomicUsize, total: usize, body: impl FnOnce() -> R) -> R {
    let Some(period) = crate::metrics::heartbeat_period() else {
        return body();
    };
    let stop = Mutex::new(false);
    let stopped = Condvar::new();
    std::thread::scope(|scope| {
        let beat = scope.spawn(|| {
            let mut guard = stop.lock().unwrap_or_else(PoisonError::into_inner);
            loop {
                let (next_guard, _timeout) = stopped
                    .wait_timeout(guard, period)
                    .unwrap_or_else(PoisonError::into_inner);
                guard = next_guard;
                if *guard {
                    break;
                }
                let line = crate::metrics::global().snapshot().heartbeat_line(
                    crate::metrics::unix_secs(),
                    claimed.load(Ordering::Relaxed).min(total) as u64,
                );
                crate::metrics::emit_heartbeat(&line);
            }
        });
        let result = body();
        *stop.lock().unwrap_or_else(PoisonError::into_inner) = true;
        stopped.notify_all();
        let _ = beat.join();
        result
    })
}

/// Run the same scenario over several seeds with [`default_threads`] workers
/// and return the per-seed results in seed order (panics if a job fails).
pub fn run_seeds(base: &Scenario, seeds: &[u64]) -> Vec<ScenarioResult> {
    let scenarios: Vec<Scenario> = seeds.iter().map(|&s| base.clone().seed(s)).collect();
    expect_all(RunContext::new(default_threads()).run(&scenarios))
}

/// Declarative description of a grid of experiments: every combination of
/// protocol × topology × station count is a **cell**, and every cell is
/// replicated once per seed. Build with the fluent setters, then [`Campaign::run`].
#[derive(Debug, Clone)]
pub struct Campaign {
    protocols: Vec<Protocol>,
    topologies: Vec<(String, TopologySpec)>,
    node_counts: Vec<usize>,
    seeds: Vec<u64>,
    adaptive_warmup: SimDuration,
    static_warmup: SimDuration,
    measure: SimDuration,
    update_period: Option<SimDuration>,
    throughput_bin: Option<SimDuration>,
    traffic: Option<TrafficSpec>,
    ctx: Option<RunContext>,
}

impl Default for Campaign {
    fn default() -> Self {
        Self::new()
    }
}

impl Campaign {
    /// An empty campaign with the paper's default durations (10 s warm-up for
    /// every protocol class, 10 s measurement), run on
    /// `RunContext::new(default_threads())` unless told otherwise.
    pub fn new() -> Self {
        Campaign {
            protocols: Vec::new(),
            topologies: Vec::new(),
            node_counts: Vec::new(),
            seeds: vec![1],
            adaptive_warmup: SimDuration::from_secs(10),
            static_warmup: SimDuration::from_secs(10),
            measure: SimDuration::from_secs(10),
            update_period: None,
            throughput_bin: None,
            traffic: None,
            ctx: None,
        }
    }

    /// Protocols to sweep (one curve per protocol in the report).
    pub fn protocols(mut self, protocols: &[Protocol]) -> Self {
        self.protocols = protocols.to_vec();
        self
    }

    /// Add one labelled topology to the grid.
    pub fn topology(mut self, label: &str, spec: TopologySpec) -> Self {
        self.topologies.push((label.to_string(), spec));
        self
    }

    /// Station counts to sweep.
    pub fn node_counts(mut self, counts: &[usize]) -> Self {
        self.node_counts = counts.to_vec();
        self
    }

    /// Seeds each cell is replicated over.
    pub fn seeds(mut self, seeds: &[u64]) -> Self {
        self.seeds = seeds.to_vec();
        self
    }

    /// Warm-up durations: adaptive protocols get `adaptive`, static ones `static_`
    /// (adaptive controllers need tens of seconds to converge before measuring).
    pub fn warmups(mut self, adaptive: SimDuration, static_: SimDuration) -> Self {
        self.adaptive_warmup = adaptive;
        self.static_warmup = static_;
        self
    }

    /// Measurement duration for every job.
    pub fn measure(mut self, measure: SimDuration) -> Self {
        self.measure = measure;
        self
    }

    /// `UPDATE_PERIOD` for the stochastic-approximation controllers
    /// (defaults to the scenario default of 250 ms).
    pub fn update_period(mut self, period: SimDuration) -> Self {
        self.update_period = Some(period);
        self
    }

    /// Width of the throughput time-series bins, which is also the beacon
    /// interval (defaults to the scenario default of 1 s). The scaling
    /// campaign shortens it: in a collision collapse the control variable
    /// reaches stations only via beacons, so controller segments close — and
    /// the control variable reaches stations — only at beacon cadence.
    pub fn throughput_bin(mut self, bin: SimDuration) -> Self {
        self.throughput_bin = Some(bin);
        self
    }

    /// Offered-load model applied to every job (defaults to the scenario
    /// default of saturated sources). Finite-load campaigns make each
    /// [`ScenarioResult`] carry a `TrafficSummary` with delay/drop metrics.
    pub fn traffic(mut self, traffic: TrafficSpec) -> Self {
        self.traffic = Some(traffic);
        self
    }

    /// Worker-thread count; defaults to [`default_threads`].
    pub fn threads(mut self, threads: usize) -> Self {
        match &mut self.ctx {
            Some(ctx) => ctx.threads = threads.max(1),
            None => self.ctx = Some(RunContext::new(threads)),
        }
        self
    }

    /// Run on `ctx` — its thread count, attempt budget, cache and fault plan
    /// (replacing any earlier [`threads`](Self::threads) setting).
    pub fn context(mut self, ctx: RunContext) -> Self {
        self.ctx = Some(ctx);
        self
    }

    /// Expand the grid into concrete scenarios, in the deterministic job order
    /// (protocol-major, then topology, then N, then seed) that `run` collects in.
    pub fn jobs(&self) -> Vec<Scenario> {
        let mut jobs = Vec::new();
        for proto in &self.protocols {
            for (_, topo) in &self.topologies {
                for &n in &self.node_counts {
                    for &seed in &self.seeds {
                        let warm = if proto.is_adaptive() {
                            self.adaptive_warmup
                        } else {
                            self.static_warmup
                        };
                        let mut s = Scenario::new(*proto, topo.clone(), n)
                            .durations(warm, self.measure)
                            .seed(seed);
                        if let Some(period) = self.update_period {
                            s = s.update_period(period);
                        }
                        if let Some(bin) = self.throughput_bin {
                            s.throughput_bin = bin;
                        }
                        if let Some(traffic) = self.traffic {
                            s = s.traffic(traffic);
                        }
                        jobs.push(s);
                    }
                }
            }
        }
        jobs
    }

    /// Execute every job on the campaign's [`RunContext`] and fold the
    /// per-seed results into cells. Panics, after every job has had its full
    /// retry budget, if any job was quarantined.
    ///
    /// The outcome is independent of the thread count: jobs are collected in
    /// grid order and every aggregation below iterates in that order.
    pub fn run(&self) -> CampaignOutcome {
        let ctx = self
            .ctx
            .clone()
            .unwrap_or_else(|| RunContext::new(default_threads()));
        let results = expect_all(ctx.run(&self.jobs()));
        let mut cells = Vec::new();
        let mut it = results.into_iter();
        for proto in &self.protocols {
            for (topo_label, _) in &self.topologies {
                for &n in &self.node_counts {
                    let cell_results: Vec<ScenarioResult> =
                        (&mut it).take(self.seeds.len()).collect();
                    cells.push(CampaignCell {
                        protocol: *proto,
                        topology: topo_label.clone(),
                        n,
                        seeds: self.seeds.clone(),
                        results: cell_results,
                    });
                }
            }
        }
        CampaignOutcome {
            threads: ctx.threads,
            cells,
        }
    }
}

/// One grid cell's raw per-seed results.
#[derive(Debug, Clone)]
pub struct CampaignCell {
    /// The protocol of this cell.
    pub protocol: Protocol,
    /// Label of the topology of this cell.
    pub topology: String,
    /// Number of stations.
    pub n: usize,
    /// The seeds replicated over, in result order.
    pub seeds: Vec<u64>,
    /// One [`ScenarioResult`] per seed, in seed order.
    pub results: Vec<ScenarioResult>,
}

impl CampaignCell {
    /// Per-seed system throughputs in Mbps, in seed order.
    pub fn throughputs_mbps(&self) -> Vec<f64> {
        self.results.iter().map(|r| r.throughput_mbps).collect()
    }

    /// Summarise this cell (mean/stddev/CI95/min/max of system throughput).
    pub fn stats(&self) -> CellStats {
        let xs = self.throughputs_mbps();
        let len = xs.len() as f64;
        let mean = if xs.is_empty() {
            0.0
        } else {
            xs.iter().sum::<f64>() / len
        };
        let stddev = if xs.len() < 2 {
            0.0
        } else {
            (xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / (len - 1.0)).sqrt()
        };
        let ci95 = if xs.len() < 2 {
            0.0
        } else {
            1.96 * stddev / len.sqrt()
        };
        CellStats {
            protocol: self.protocol.label().to_string(),
            topology: self.topology.clone(),
            n: self.n,
            seeds: self.seeds.clone(),
            mean_mbps: mean,
            stddev_mbps: stddev,
            ci95_mbps: ci95,
            min_mbps: xs.iter().cloned().fold(f64::INFINITY, f64::min),
            max_mbps: xs.iter().cloned().fold(0.0f64, f64::max),
        }
    }
}

/// Everything a finished campaign produced: the raw per-cell results plus the
/// thread count it ran on. Derive the serialisable summary with
/// [`CampaignOutcome::report`].
#[derive(Debug, Clone)]
pub struct CampaignOutcome {
    /// Worker threads the campaign ran on (reporting only — the results are
    /// identical for every value).
    pub threads: usize,
    /// One cell per protocol × topology × N combination, in grid order.
    pub cells: Vec<CampaignCell>,
}

impl CampaignOutcome {
    /// The serialisable per-cell summary (mean/stddev/CI95/min/max).
    pub fn report(&self) -> CampaignReport {
        CampaignReport {
            cells: self.cells.iter().map(CampaignCell::stats).collect(),
        }
    }

    /// The cells of one protocol, in grid order (one throughput-vs-N curve).
    pub fn cells_for(&self, protocol: Protocol) -> Vec<&CampaignCell> {
        self.cells
            .iter()
            .filter(|c| c.protocol == protocol)
            .collect()
    }
}

/// Summary statistics of one campaign cell; `mean/min/max` match what the
/// serial per-figure loops historically computed, so reports serialise into
/// the existing `results/*.dat` and `results/*.json` shapes byte-for-byte.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CellStats {
    /// Protocol label.
    pub protocol: String,
    /// Topology label.
    pub topology: String,
    /// Number of stations.
    pub n: usize,
    /// Seeds averaged over.
    pub seeds: Vec<u64>,
    /// Mean system throughput (Mbps) over the seeds.
    pub mean_mbps: f64,
    /// Sample standard deviation (Mbps); 0 for fewer than two seeds.
    pub stddev_mbps: f64,
    /// Half-width of the normal-approximation 95% confidence interval (Mbps).
    pub ci95_mbps: f64,
    /// Smallest per-seed throughput (Mbps).
    pub min_mbps: f64,
    /// Largest per-seed throughput (Mbps).
    pub max_mbps: f64,
}

/// Serialisable summary of a whole campaign: one [`CellStats`] per grid cell,
/// in deterministic grid order.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CampaignReport {
    /// Per-cell summaries in grid order.
    pub cells: Vec<CellStats>,
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]

    use super::*;

    fn faulted(threads: usize, plan: FaultPlan) -> RunContext {
        RunContext {
            faults: Some(Arc::new(plan)),
            ..RunContext::new(threads)
        }
    }

    fn tiny_campaign() -> Campaign {
        Campaign::new()
            .protocols(&[
                Protocol::StaticPPersistent { p: 0.03 },
                Protocol::Standard80211,
            ])
            .topology("fully connected", TopologySpec::FullyConnected)
            .node_counts(&[4, 8])
            .seeds(&[1, 2, 3])
            .warmups(SimDuration::from_millis(100), SimDuration::from_millis(100))
            .measure(SimDuration::from_millis(300))
    }

    #[test]
    fn grid_expansion_order_is_protocol_major() {
        let jobs = tiny_campaign().jobs();
        assert_eq!(jobs.len(), 2 * 2 * 3);
        // First six jobs: p-persistent, n=4 seeds 1,2,3 then n=8 seeds 1,2,3.
        assert_eq!(jobs[0].n, 4);
        assert_eq!(jobs[0].seed, 1);
        assert_eq!(jobs[2].seed, 3);
        assert_eq!(jobs[3].n, 8);
        assert!(matches!(
            jobs[0].protocol,
            Protocol::StaticPPersistent { .. }
        ));
        assert!(matches!(jobs[6].protocol, Protocol::Standard80211));
    }

    #[test]
    fn update_period_and_bin_flow_into_jobs() {
        let jobs = tiny_campaign()
            .update_period(SimDuration::from_millis(100))
            .throughput_bin(SimDuration::from_millis(50))
            .jobs();
        assert!(jobs.iter().all(|j| {
            j.update_period == SimDuration::from_millis(100)
                && j.throughput_bin == SimDuration::from_millis(50)
        }));
        // Unset -> scenario defaults.
        let defaults = tiny_campaign().jobs();
        assert!(defaults
            .iter()
            .all(|j| j.throughput_bin == SimDuration::from_secs(1)));
    }

    #[test]
    fn traffic_spec_flows_into_jobs_and_results() {
        let spec = TrafficSpec::poisson(200.0).with_queue_frames(16);
        let campaign = tiny_campaign().traffic(spec);
        assert!(campaign.jobs().iter().all(|j| j.traffic == spec));
        // Saturated default stays saturated.
        assert!(tiny_campaign()
            .jobs()
            .iter()
            .all(|j| j.traffic.is_saturated()));
        // A finite-load campaign's results all carry traffic summaries.
        let outcome = campaign.threads(2).run();
        for cell in &outcome.cells {
            for r in &cell.results {
                let t = r.traffic.as_ref().expect("finite-load result");
                assert_eq!(
                    t.queued_at_start + t.total_arrivals,
                    t.total_delivered + t.total_drops + t.queued_at_end
                );
            }
        }
    }

    #[test]
    fn parallel_matches_serial_bit_for_bit() {
        let serial = tiny_campaign().threads(1).run();
        let parallel = tiny_campaign().threads(4).run();
        assert_eq!(serial.cells.len(), parallel.cells.len());
        for (a, b) in serial.cells.iter().zip(&parallel.cells) {
            assert_eq!(a.n, b.n);
            for (ra, rb) in a.results.iter().zip(&b.results) {
                assert_eq!(ra.throughput_mbps.to_bits(), rb.throughput_mbps.to_bits());
                for (x, y) in ra.per_node_mbps.iter().zip(&rb.per_node_mbps) {
                    assert_eq!(x.to_bits(), y.to_bits());
                }
            }
        }
        let (ja, jb) = (
            serde_json::to_string(&serial.report()).unwrap(),
            serde_json::to_string(&parallel.report()).unwrap(),
        );
        assert_eq!(ja, jb);
    }

    #[test]
    fn run_seeds_parallel_matches_run_seeds_serial() {
        let base = Scenario::new(
            Protocol::StaticPPersistent { p: 0.05 },
            TopologySpec::FullyConnected,
            5,
        )
        .durations(SimDuration::from_millis(100), SimDuration::from_millis(300))
        .seed(0);
        let seeds = [1u64, 2, 3, 4, 5];
        let jobs: Vec<Scenario> = seeds.iter().map(|&s| base.clone().seed(s)).collect();
        let serial = expect_all(RunContext::new(1).run(&jobs));
        let parallel = run_seeds(&base, &seeds);
        assert_eq!(serial.len(), parallel.len());
        for (a, b) in serial.iter().zip(&parallel) {
            assert_eq!(a.throughput_mbps.to_bits(), b.throughput_mbps.to_bits());
        }
    }

    #[test]
    fn invalid_scenarios_are_quarantined_not_panicked() {
        let mut bad = Scenario::new(Protocol::Standard80211, TopologySpec::FullyConnected, 4)
            .durations(SimDuration::from_millis(50), SimDuration::from_millis(100));
        bad.weights = Some(vec![1.0; 3]); // length mismatch
        let good = Scenario::new(
            Protocol::StaticPPersistent { p: 0.04 },
            TopologySpec::FullyConnected,
            4,
        )
        .durations(SimDuration::from_millis(50), SimDuration::from_millis(100));
        let results = RunContext::new(2).run(&[good.clone(), bad, good.clone()]);
        assert!(results[0].is_ok());
        assert!(matches!(
            results[1],
            Err(JobError::InvalidScenario(
                crate::error::ScenarioError::WeightsLengthMismatch {
                    expected: 4,
                    got: 3
                }
            ))
        ));
        assert!(results[2].is_ok());
        // The healthy slots are bit-identical to a run without the bad job.
        let clean = RunContext::new(1).run(&[good.clone(), good]);
        let ok = |r: &Result<ScenarioResult, JobError>| {
            serde_json::to_string(r.as_ref().unwrap()).unwrap()
        };
        assert_eq!(ok(&results[0]), ok(&clean[0]));
        assert_eq!(ok(&results[2]), ok(&clean[1]));
        // collect_checked folds the same failure into a CampaignError.
        let mut bad2 = Scenario::new(Protocol::Standard80211, TopologySpec::FullyConnected, 4);
        bad2.n = 0;
        let err =
            collect_checked(RunContext::new(1).run(&[bad2])).expect_err("zero stations must fail");
        assert_eq!(err.failures.len(), 1);
        assert_eq!(err.failures[0].0, 0);
    }

    #[test]
    fn transient_injected_panics_are_retried_to_success() {
        let jobs: Vec<Scenario> = (1..=3u64)
            .map(|seed| {
                Scenario::new(
                    Protocol::StaticPPersistent { p: 0.04 },
                    TopologySpec::FullyConnected,
                    4,
                )
                .durations(SimDuration::from_millis(50), SimDuration::from_millis(150))
                .seed(seed)
            })
            .collect();
        let clean: Vec<String> = RunContext::new(1)
            .run(&jobs)
            .into_iter()
            .map(|r| serde_json::to_string(&r.unwrap()).unwrap())
            .collect();
        // Every attempt below the retry budget trips; the final one succeeds.
        let attempts = RunContext::new(2).attempts;
        let plan = FaultPlan::builder(11)
            .site(FaultSite::JobPanic, 1.0, Some(attempts - 1))
            .build();
        for (r, expect) in faulted(2, plan).run(&jobs).into_iter().zip(&clean) {
            let r = r.expect("transient faults must be retried through");
            assert_eq!(&serde_json::to_string(&r).unwrap(), expect);
        }
    }

    #[test]
    fn permanent_injected_panics_quarantine_only_their_job() {
        let jobs: Vec<Scenario> = (1..=4u64)
            .map(|seed| {
                Scenario::new(
                    Protocol::StaticPPersistent { p: 0.04 },
                    TopologySpec::FullyConnected,
                    4,
                )
                .durations(SimDuration::from_millis(50), SimDuration::from_millis(150))
                .seed(seed)
            })
            .collect();
        let clean: Vec<String> = RunContext::new(1)
            .run(&jobs)
            .into_iter()
            .map(|r| serde_json::to_string(&r.unwrap()).unwrap())
            .collect();
        // Rate 0.5, unbounded: some jobs fault on every attempt (quarantined),
        // some recover. The plan itself predicts which, so assert exactness.
        let plan = FaultPlan::builder(5)
            .site(FaultSite::JobPanic, 0.5, None)
            .build();
        let attempts = RunContext::new(2).attempts;
        let expect_fail: Vec<bool> = jobs
            .iter()
            .map(|j| {
                plan.faults_every_attempt(FaultSite::JobPanic, &crate::cache::job_key(j), attempts)
            })
            .collect();
        let results = faulted(2, plan).run(&jobs);
        for ((r, &fail), expect) in results.into_iter().zip(&expect_fail).zip(&clean) {
            match r {
                Ok(result) => {
                    assert!(!fail, "plan predicted quarantine");
                    assert_eq!(&serde_json::to_string(&result).unwrap(), expect);
                }
                Err(e) => {
                    assert!(fail, "plan predicted success, got {e}");
                    assert!(e.is_injected(), "{e}");
                    assert!(matches!(e, JobError::Panicked { attempts: a, .. } if a == attempts));
                }
            }
        }
    }

    #[test]
    fn cell_stats_match_manual_aggregation() {
        let outcome = tiny_campaign().threads(2).run();
        let cell = &outcome.cells[0];
        let stats = cell.stats();
        let xs = cell.throughputs_mbps();
        assert_eq!(xs.len(), 3);
        let mean = xs.iter().sum::<f64>() / 3.0;
        assert!((stats.mean_mbps - mean).abs() < 1e-12);
        assert!(stats.min_mbps <= stats.mean_mbps && stats.mean_mbps <= stats.max_mbps);
        assert!(stats.stddev_mbps > 0.0, "three seeds should not coincide");
        assert!(stats.ci95_mbps > 0.0 && stats.ci95_mbps < stats.stddev_mbps * 1.96);
    }

    #[test]
    fn singleton_and_empty_stats_are_defined() {
        let cell = CampaignCell {
            protocol: Protocol::Standard80211,
            topology: "t".into(),
            n: 1,
            seeds: vec![],
            results: vec![],
        };
        let s = cell.stats();
        assert_eq!(s.mean_mbps, 0.0);
        assert_eq!(s.stddev_mbps, 0.0);
        assert_eq!(s.ci95_mbps, 0.0);
    }

    #[test]
    fn cached_runner_serves_second_pass_from_disk_bit_identically() {
        let dir =
            std::env::temp_dir().join(format!("wlan_campaign_cache_test_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = Arc::new(ResultCache::open(&dir).unwrap());
        let ctx = |threads| RunContext {
            cache: Some(Arc::clone(&cache)),
            ..RunContext::new(threads)
        };
        let base = Scenario::new(
            Protocol::StaticPPersistent { p: 0.04 },
            TopologySpec::FullyConnected,
            5,
        )
        .durations(SimDuration::from_millis(50), SimDuration::from_millis(200));
        let jobs: Vec<Scenario> = (1..=3u64).map(|seed| base.clone().seed(seed)).collect();

        let cold = expect_all(ctx(2).run(&jobs));
        assert_eq!(cache.stats().misses, 3);
        assert_eq!(cache.stats().hits, 0);
        let warm = expect_all(ctx(2).run(&jobs));
        assert_eq!(cache.stats().hits, 3, "warm pass must run zero jobs");
        assert_eq!(
            serde_json::to_string(&cold).unwrap(),
            serde_json::to_string(&warm).unwrap(),
            "cached results must be bit-identical to computed ones"
        );

        // A corrupted entry is detected, recomputed and healed.
        let key = crate::cache::job_key(&jobs[0]);
        let entry = dir.join(format!("{key}.json"));
        std::fs::write(&entry, "{\"truncated\": tru").unwrap();
        let healed = expect_all(ctx(1).run(&jobs));
        assert_eq!(cache.stats().misses, 4, "corrupt entry counts as a miss");
        assert_eq!(
            serde_json::to_string(&cold).unwrap(),
            serde_json::to_string(&healed).unwrap()
        );
        let again = expect_all(ctx(1).run(&jobs));
        assert_eq!(cache.stats().hits, 3 + 2 + 3, "healed entry hits again");
        assert_eq!(
            serde_json::to_string(&cold).unwrap(),
            serde_json::to_string(&again).unwrap()
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn thread_count_parsing_honours_env_value() {
        assert_eq!(threads_from(Some("3")), 3);
        assert!(threads_from(Some("0")) >= 1); // invalid -> fallback
        assert!(threads_from(Some("not a number")) >= 1);
        assert!(threads_from(None) >= 1);
        assert!(default_threads() >= 1);
    }

    #[test]
    fn attempt_budget_parsing_honours_env_value() {
        assert_eq!(attempts_from(None), 1 + DEFAULT_JOB_RETRIES);
        assert_eq!(attempts_from(Some("0")), 1, "0 retries = 1 attempt");
        assert_eq!(attempts_from(Some("5")), 6);
        assert_eq!(attempts_from(Some("nope")), 1 + DEFAULT_JOB_RETRIES);
        assert_eq!(RunContext::new(1).attempts, attempts_from(None));
    }

    #[test]
    fn attempt_budget_saturates_at_the_largest_retry_count() {
        // 1 + u32::MAX used to wrap to 0 attempts, silently disabling retries.
        assert_eq!(attempts_from(Some("4294967295")), u32::MAX);
        assert_eq!(attempts_from(Some("4294967294")), u32::MAX);
    }

    #[test]
    fn retry_backoff_is_deterministic_and_bounded() {
        assert_eq!(retry_backoff(1), Duration::from_millis(2));
        assert_eq!(retry_backoff(2), Duration::from_millis(4));
        for attempt in 0..40 {
            assert!(retry_backoff(attempt) <= Duration::from_millis(50));
        }
    }

    #[test]
    fn report_round_trips_through_json() {
        let report = tiny_campaign().threads(2).run().report();
        let json = serde_json::to_string(&report).unwrap();
        let back: CampaignReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back.cells.len(), report.cells.len());
        assert_eq!(back.cells[0].protocol, report.cells[0].protocol);
    }
}
