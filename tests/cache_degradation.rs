//! Cache degradation: a broken result cache must never abort a campaign or
//! change a single byte of its output — it degrades to compute-only with a
//! single warning (the first failed store; later failures are counted
//! silently via [`ResultCache::store_failures`]).

use std::sync::Arc;
use wlan_sa::core::{
    FaultPlan, FaultSite, JobError, Protocol, ResultCache, RunContext, Scenario, ScenarioResult,
    TopologySpec,
};
use wlan_sa::sim::SimDuration;

fn jobs() -> Vec<Scenario> {
    (1..=3u64)
        .map(|seed| {
            Scenario::new(
                Protocol::StaticPPersistent { p: 0.04 },
                TopologySpec::FullyConnected,
                5,
            )
            .durations(SimDuration::from_millis(50), SimDuration::from_millis(200))
            .seed(seed)
        })
        .collect()
}

fn bytes(results: &[ScenarioResult]) -> String {
    serde_json::to_string(&results.to_vec()).expect("serialise results")
}

fn unwrap_all(results: Vec<Result<ScenarioResult, JobError>>) -> Vec<ScenarioResult> {
    results
        .into_iter()
        .map(|r| r.expect("cache degradation must never fail a job"))
        .collect()
}

fn temp_dir(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("wlan_degradation_{tag}_{}", std::process::id()))
}

/// Run `jobs()` on `threads` workers through `cache`.
fn run_cached(cache: &Arc<ResultCache>, threads: usize) -> Vec<ScenarioResult> {
    let ctx = RunContext {
        cache: Some(Arc::clone(cache)),
        ..RunContext::new(threads)
    };
    unwrap_all(ctx.run(&jobs()))
}

/// A handle on the cache in `dir` that trips `site` on every access.
fn faulty_cache(dir: &std::path::Path, seed: u64, site: FaultSite) -> Arc<ResultCache> {
    let plan = FaultPlan::builder(seed).site(site, 1.0, None).build();
    let cache = ResultCache::open(dir).expect("open temp cache");
    Arc::new(cache.with_faults(Some(Arc::new(plan))))
}

/// A cache directory that vanishes mid-campaign (the closest a root-run test
/// gets to a read-only directory — permission bits don't bind root): every
/// store fails, the campaign degrades to compute-only, bytes unchanged.
#[test]
fn vanished_cache_dir_degrades_to_compute_only() {
    let reference = unwrap_all(RunContext::new(1).run(&jobs()));
    let dir = temp_dir("vanished");
    let _ = std::fs::remove_dir_all(&dir);
    let cache = Arc::new(ResultCache::open(&dir).expect("open temp cache"));
    std::fs::remove_dir_all(&dir).expect("pull the directory out from under the cache");

    let results = run_cached(&cache, 2);
    assert_eq!(
        bytes(&results),
        bytes(&reference),
        "results must not change"
    );
    assert!(cache.degraded(), "failed stores must flip degraded mode");
    assert_eq!(
        cache.store_failures(),
        3,
        "every store failed (one warning, the rest counted silently)"
    );
    // The degraded cache keeps working compute-only on a second pass.
    let again = run_cached(&cache, 1);
    assert_eq!(bytes(&again), bytes(&reference));
    assert_eq!(cache.store_failures(), 6);
}

/// An unopenable cache path (a regular file where the directory should be —
/// `create_dir_all` fails even for root) is an error at `open`, which
/// callers turn into uncached execution.
#[test]
fn cache_open_on_file_path_fails_cleanly() {
    let path = temp_dir("filepath");
    let _ = std::fs::remove_dir_all(&path);
    std::fs::write(&path, "not a directory").expect("create blocking file");
    assert!(ResultCache::open(&path).is_err());
    let _ = std::fs::remove_file(&path);
}

/// An injected permanent write fault behaves exactly like the unwritable
/// directory: compute-only, single-warning degradation, identical bytes —
/// and a handle without the fault heals the same directory.
#[test]
fn injected_write_fault_degrades_then_heals() {
    let reference = unwrap_all(RunContext::new(1).run(&jobs()));
    let dir = temp_dir("writefault");
    let _ = std::fs::remove_dir_all(&dir);
    let faulty = faulty_cache(&dir, 21, FaultSite::CacheWrite);
    let results = run_cached(&faulty, 2);
    assert_eq!(bytes(&results), bytes(&reference));
    assert!(faulty.degraded());
    assert_eq!(faulty.store_failures(), 3);
    assert_eq!(faulty.stats().hits, 0, "nothing was ever stored");

    // Fault-free handle: stores land again and the next pass is served from disk.
    let cache = Arc::new(ResultCache::open(&dir).expect("reopen temp cache"));
    let healed = run_cached(&cache, 1);
    assert_eq!(bytes(&healed), bytes(&reference));
    let warm = run_cached(&cache, 1);
    assert_eq!(bytes(&warm), bytes(&reference));
    assert_eq!(cache.stats().hits, 3, "healed cache serves from disk");
    let _ = std::fs::remove_dir_all(&dir);
}

/// An injected permanent read fault turns every lookup into a miss: jobs
/// recompute (bytes identical), the entries stay intact, and a handle
/// without the fault hits them again.
#[test]
fn injected_read_fault_forces_recompute_not_corruption() {
    let reference = unwrap_all(RunContext::new(1).run(&jobs()));
    let dir = temp_dir("readfault");
    let _ = std::fs::remove_dir_all(&dir);
    let cache = Arc::new(ResultCache::open(&dir).expect("open temp cache"));
    let cold = run_cached(&cache, 2);
    assert_eq!(bytes(&cold), bytes(&reference));
    let blind = faulty_cache(&dir, 22, FaultSite::CacheRead);
    let blinded = run_cached(&blind, 2);
    assert_eq!(bytes(&blinded), bytes(&reference));
    assert_eq!(blind.stats().hits, 0, "a read fault can never hit");
    let warm = run_cached(&cache, 1);
    assert_eq!(bytes(&warm), bytes(&reference));
    assert_eq!(cache.stats().hits, 3, "entries survived the read faults");
    let _ = std::fs::remove_dir_all(&dir);
}
