//! One scenario run in process with every layer call traced: the traced
//! counterpart of a campaign job, used by the traced runs to read the
//! engine, checkpoint and cache layers on a workload's own scenarios.

use std::sync::Mutex;
use std::time::Instant;

use wlan_core::{job_key, ResultCache, Scenario, ScenarioResult};
use wlan_sim::{SimDuration, Simulator};

use crate::trace::{attach_profiler, KernelCounts, Layers, Tracer};
use crate::util::result_digest;

/// Count the Kiefer–Wolfowitz updates in a result's controller telemetry
/// (epochs that applied a step; plus-side halves carry no `delta`) and strip
/// the section, so the result serialises exactly as an untraced run's.
pub fn take_kw_updates(result: &mut ScenarioResult) -> u64 {
    result.controller_telemetry.take().map_or(0, |t| {
        t.epochs.iter().filter(|e| e.delta.is_some()).count() as u64
    })
}

/// Size in bytes of the cache entry stored under `key` (0 when absent).
pub fn cache_entry_bytes(cache: &ResultCache, key: &str) -> f64 {
    std::fs::metadata(cache.dir().join(format!("{key}.json"))).map_or(0.0, |m| m.len() as f64)
}

/// One traced job as the pool ran it: the simulator at the job's end, its
/// result with the controller telemetry stripped, and its wall seconds.
pub struct JobRun {
    pub sim: Simulator,
    pub result: ScenarioResult,
    pub wall: f64,
}

/// Run `scenario` as job `job`, as a campaign job does: build, advance to
/// the end and collect, with the kernel's profiler and counters on
/// (snapshotting after every `slice` of simulated time when given, as
/// `campaign_server` does). The wall time covers exactly that span.
pub fn traced_job(
    scenario: &Scenario,
    job: u32,
    slice: Option<SimDuration>,
    tracer: &Tracer,
    layers: &Mutex<Layers>,
) -> JobRun {
    let started = Instant::now();
    let (sim, result) = tracer.span("job", None, Some(job), |id| {
        let jid = Some(job);
        let mut sim = tracer.span("build_simulator", id, jid, |_| scenario.build_simulator());
        sim.enable_metrics();
        let rows = attach_profiler(&mut sim);
        let end = scenario.end_time();
        let step = slice.unwrap_or(end - sim.now());
        let mut engine_ns = 0u64;
        let mut ckpt_bytes = Vec::new();
        while sim.now() < end {
            let next = (sim.now() + step).min(end);
            let t = Instant::now();
            tracer.span("advance_until", id, jid, |_| {
                scenario.advance_until(&mut sim, next)
            });
            engine_ns += t.elapsed().as_nanos() as u64;
            if slice.is_some() && sim.now() < end {
                let bytes = tracer.span("checkpoint", id, jid, |_| sim.checkpoint());
                ckpt_bytes.push(bytes.len() as f64);
            }
        }
        sim.clear_profiler();
        let mut result = scenario.collect_with_telemetry(&sim, true);
        let kw = take_kw_updates(&mut result);

        let mut l = layers.lock().expect("layer tallies poisoned");
        l.kernel.add(KernelCounts::read(&sim));
        l.sim_secs += end.as_secs_f64();
        l.engine_ns += engine_ns;
        l.add_profile(&rows);
        l.tx_slab_high_water = l.tx_slab_high_water.max(sim.tx_slab_high_water());
        l.checkpoint_bytes.extend(ckpt_bytes);
        l.kw_updates += kw;
        (sim, result)
    });
    JobRun {
        sim,
        result,
        wall: started.elapsed().as_secs_f64(),
    }
}

/// The checks after a traced job, outside its timed span: a final
/// checkpoint → resume round trip that must reproduce the result, then key,
/// store and look the result up in `cache`. Returns the result, or a
/// description of the first mismatch.
pub fn round_trip(
    scenario: &Scenario,
    job: u32,
    run: JobRun,
    cache: &ResultCache,
    tracer: &Tracer,
    layers: &Mutex<Layers>,
) -> Result<ScenarioResult, String> {
    let jid = Some(job);
    let JobRun { sim, result, .. } = run;
    let snapshot = tracer.span("checkpoint", None, jid, |_| sim.checkpoint());
    let mut resumed = scenario.build_simulator();
    tracer
        .span("resume", None, jid, |_| resumed.resume(&snapshot))
        .map_err(|e| format!("resume failed: {e}"))?;
    let digest = result_digest(&result);
    if result_digest(&scenario.collect_with_telemetry(&resumed, false)) != digest {
        return Err("a resumed simulator collects a different result".to_string());
    }

    let key = tracer.span("job_key", None, jid, |_| job_key(scenario));
    tracer
        .span("cache.store", None, jid, |_| cache.store(&key, &result))
        .map_err(|e| format!("cache store failed: {e}"))?;
    let entry_bytes = cache_entry_bytes(cache, &key);
    let hit = tracer.span("cache.lookup", None, jid, |_| cache.lookup(&key));
    if hit.as_ref().map(result_digest) != Some(digest) {
        return Err("a cache lookup does not return the stored result".to_string());
    }
    let mut l = layers.lock().expect("layer tallies poisoned");
    l.checkpoint_bytes.push(snapshot.len() as f64);
    l.cache_entry_bytes.push(entry_bytes);
    Ok(result)
}

/// What [`traced_pool`] ran: results in input order, each job's wall
/// seconds, and the pool's makespan (the round trips excluded).
pub struct PoolRun {
    pub results: Vec<Result<ScenarioResult, String>>,
    pub walls: Vec<f64>,
    pub makespan: f64,
}

/// Run `jobs` on `threads` workers that claim the next job in order (the
/// campaign pool's policy), each through [`traced_job`]; then give every
/// job its [`round_trip`], one after another.
pub fn traced_pool(
    jobs: &[Scenario],
    threads: usize,
    slice: Option<SimDuration>,
    cache: &ResultCache,
    tracer: &Tracer,
    layers: &Mutex<Layers>,
) -> PoolRun {
    use std::sync::atomic::{AtomicUsize, Ordering};
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<JobRun>>> = jobs.iter().map(|_| Mutex::new(None)).collect();
    let started = Instant::now();
    std::thread::scope(|s| {
        for _ in 0..threads.max(1) {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(scenario) = jobs.get(i) else { break };
                let run = traced_job(scenario, i as u32, slice, tracer, layers);
                *slots[i].lock().expect("job slot poisoned") = Some(run);
            });
        }
    });
    let makespan = started.elapsed().as_secs_f64();
    let mut walls = Vec::new();
    let results = slots
        .into_iter()
        .zip(jobs)
        .enumerate()
        .map(|(i, (slot, scenario))| {
            let run = slot
                .into_inner()
                .expect("job slot poisoned")
                .ok_or_else(|| "job never ran".to_string())?;
            walls.push(run.wall);
            round_trip(scenario, i as u32, run, cache, tracer, layers)
        })
        .collect();
    PoolRun {
        results,
        walls,
        makespan,
    }
}
