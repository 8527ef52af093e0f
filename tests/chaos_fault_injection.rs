//! Chaos tests: random deterministic [`FaultPlan`]s × a campaign grid.
//!
//! The determinism contract gives chaos testing something most services never
//! get: an injected fault schedule is a pure function of the plan seed, so
//! recovery can be asserted **byte for byte** —
//!
//! * transient faults (bounded `max_trips` below the retry budget, worker
//!   stalls) are absorbed completely: zero quarantined jobs and results
//!   byte-identical to the fault-free run;
//! * permanent faults quarantine *exactly* the jobs the plan predicts
//!   ([`FaultPlan::faults_every_attempt`]) with structured errors, and every
//!   other job's bytes are unaffected;
//! * cache I/O faults never quarantine anything — the cache degrades to
//!   compute-only and the results stay byte-identical to uncached runs;
//! * a plan reaches only the runs whose [`RunContext`] carries it: a
//!   fault-free run overlapping a permanently faulted one is untouched.

use proptest::prelude::*;
use std::sync::{Arc, Barrier};
use wlan_sa::core::{
    job_key, Campaign, FaultPlan, FaultSite, JobError, Protocol, ResultCache, RunContext, Scenario,
    ScenarioResult, TopologySpec,
};
use wlan_sa::sim::SimDuration;

/// Silence the default panic hook for injected panics (the supervised pool
/// catches them, but the hook still runs and would spam the test log); real
/// panics keep the full default report.
fn quiet_injected_panics() {
    use std::sync::Once;
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let default = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let injected = info
                .payload()
                .downcast_ref::<&str>()
                .map(|s| s.contains("injected fault"))
                .or_else(|| {
                    info.payload()
                        .downcast_ref::<String>()
                        .map(|s| s.contains("injected fault"))
                })
                .unwrap_or(false);
            if !injected {
                default(info);
            }
        }));
    });
}

/// A small heterogeneous campaign grid (two protocols × two seeds), cheap
/// enough to run dozens of times per proptest case.
fn grid(case_seed: u64) -> Vec<Scenario> {
    let mut jobs = Vec::new();
    for proto in [
        Protocol::StaticPPersistent { p: 0.04 },
        Protocol::Standard80211,
    ] {
        for s in 0..2u64 {
            jobs.push(
                Scenario::new(proto, TopologySpec::FullyConnected, 4)
                    .durations(SimDuration::from_millis(50), SimDuration::from_millis(150))
                    .seed(1 + case_seed * 2 + s),
            );
        }
    }
    jobs
}

fn bytes(r: &ScenarioResult) -> String {
    serde_json::to_string(r).expect("serialise result")
}

fn baseline(jobs: &[Scenario]) -> Vec<String> {
    RunContext::new(1)
        .run(jobs)
        .into_iter()
        .map(|r| bytes(&r.expect("fault-free jobs succeed")))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Transient faults — panics bounded below the retry budget plus worker
    /// stalls — are fully absorbed: no quarantine, bytes identical.
    #[test]
    fn transient_faults_recover_byte_identically(plan_seed in 0u64..10_000, case in 0u64..50) {
        quiet_injected_panics();
        let jobs = grid(case);
        let clean = baseline(&jobs);
        let ctx = RunContext::new(3);
        let plan = FaultPlan::builder(plan_seed)
            .site(FaultSite::JobPanic, 1.0, Some(ctx.attempts - 1))
            .site(FaultSite::WorkerStall, 0.5, None)
            .stall_millis(1)
            .build();
        let faulted = RunContext { faults: Some(Arc::new(plan)), ..ctx }.run(&jobs);
        for (r, expect) in faulted.into_iter().zip(&clean) {
            let r = r.expect("transient faults must be retried through");
            prop_assert_eq!(&bytes(&r), expect);
        }
    }

    /// Permanent faults (unbounded random panic rate) quarantine exactly the
    /// jobs the plan predicts; every surviving job is byte-identical.
    #[test]
    fn permanent_faults_quarantine_exactly_the_predicted_jobs(
        plan_seed in 0u64..10_000,
        rate in 0.2f64..0.9,
        case in 0u64..50,
    ) {
        quiet_injected_panics();
        let jobs = grid(case);
        let clean = baseline(&jobs);
        let ctx = RunContext::new(3);
        let attempts = ctx.attempts;
        let plan = FaultPlan::builder(plan_seed)
            .site(FaultSite::JobPanic, rate, None)
            .build();
        let predicted: Vec<bool> = jobs
            .iter()
            .map(|j| plan.faults_every_attempt(FaultSite::JobPanic, &job_key(j), attempts))
            .collect();
        let faulted = RunContext { faults: Some(Arc::new(plan)), ..ctx }.run(&jobs);
        for ((r, &fail), expect) in faulted.into_iter().zip(&predicted).zip(&clean) {
            match r {
                Ok(result) => {
                    prop_assert!(!fail, "plan predicted quarantine but the job succeeded");
                    prop_assert_eq!(&bytes(&result), expect);
                }
                Err(e) => {
                    prop_assert!(fail, "plan predicted success but got: {}", e);
                    prop_assert!(e.is_injected(), "unexpected real failure: {}", e);
                    prop_assert!(
                        matches!(e, JobError::Panicked { attempts: a, .. } if a == attempts),
                        "quarantine must record the full attempt budget"
                    );
                }
            }
        }
    }

    /// Cache read/write faults never fail a job: lookups degrade to misses,
    /// stores degrade to compute-only, and the results stay byte-identical
    /// to an uncached fault-free run.
    #[test]
    fn cache_faults_degrade_without_changing_results(plan_seed in 0u64..10_000) {
        quiet_injected_panics();
        let jobs = grid(plan_seed % 7);
        let clean = baseline(&jobs);
        let dir = std::env::temp_dir().join(format!(
            "wlan_chaos_cache_{}_{plan_seed}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let cached = |plan: Option<FaultPlan>| RunContext {
            cache: Some(Arc::new(
                ResultCache::open(&dir)
                    .expect("open temp cache")
                    .with_faults(plan.map(Arc::new)),
            )),
            ..RunContext::new(2)
        };
        let plan = FaultPlan::builder(plan_seed)
            .site(FaultSite::CacheRead, 0.5, None)
            .site(FaultSite::CacheWrite, 0.5, None)
            .build();
        let faulty = cached(Some(plan));
        // Two passes: the second mixes hits (stores that survived) with
        // recomputes (reads that fault); bytes must never change.
        for _ in 0..2 {
            let results = faulty.run(&jobs);
            for (r, expect) in results.into_iter().zip(&clean) {
                let r = r.expect("cache faults must never quarantine a job");
                prop_assert_eq!(&bytes(&r), expect);
            }
        }
        // Fault-free warm pass over whatever the cache retained: still identical.
        let warm = cached(None).run(&jobs);
        for (r, expect) in warm.into_iter().zip(&clean) {
            prop_assert_eq!(&bytes(&r.expect("warm pass succeeds")), expect);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Isolation: thread A runs a campaign under a permanent `job_panic` plan
/// while thread B runs the same kind of grid with no plan. Barriers make the
/// two overlap: both start together, and A keeps its plan live until B has
/// finished. Every one of A's jobs is quarantined; every one of B's is `Ok`
/// and byte-identical to the serial reference.
#[test]
fn overlapping_runs_see_only_their_own_fault_plan() {
    quiet_injected_panics();
    let jobs = grid(3);
    let clean = baseline(&jobs);
    let (start, done) = (Barrier::new(2), Barrier::new(2));
    let (faulted, fault_free) = std::thread::scope(|scope| {
        let a = scope.spawn(|| {
            let plan = FaultPlan::builder(1)
                .site(FaultSite::JobPanic, 1.0, None)
                .build();
            let campaign = Campaign::new()
                .protocols(&[Protocol::Standard80211])
                .topology("fully connected", TopologySpec::FullyConnected)
                .node_counts(&[4])
                .seeds(&[1, 2, 3, 4])
                .context(RunContext {
                    faults: Some(Arc::new(plan)),
                    ..RunContext::new(2)
                });
            start.wait();
            let outcome = std::panic::catch_unwind(|| campaign.run());
            done.wait();
            outcome.is_err()
        });
        let b = scope.spawn(|| {
            start.wait();
            let results = RunContext::new(2).run(&jobs);
            done.wait();
            results
        });
        (a.join().expect("thread A"), b.join().expect("thread B"))
    });
    assert!(faulted, "the permanently faulted campaign must fail");
    for (r, expect) in fault_free.into_iter().zip(&clean) {
        let r = r.expect("a run without a plan must not see another run's faults");
        assert_eq!(&bytes(&r), expect);
    }
}
