//! `clique_scaling`: fully connected saturated cells at large N, in process
//! on one thread — a slice of the `fig_scaling` campaign, where the
//! carrier-sense walks of `mac/tx_start` and `channel/tx_end` dominate.
//!
//! Each cell is built, warmed up past wTOP's start-up collision collapse,
//! and snapshotted during set-up. The timed loop then replays one fixed
//! window of simulated time per cell, round robin: resume the snapshot
//! (untimed), `run_for` the window (timed). Every replay does identical
//! work, so per-cell medians are steady and every replay's result must
//! equal the first one's.

use std::sync::Mutex;
use std::time::Instant;

use wlan_core::{job_key, Protocol, ResultCache, Scenario, ScenarioResult, TopologySpec};
use wlan_sim::{SimDuration, Simulator};

use crate::job::{cache_entry_bytes, take_kw_updates};
use crate::trace::{attach_profiler, KernelCounts, Layers, ProfileRows, Tracer};
use crate::util::{geomean, mean, median, result_digest, self_peak_rss_mb, Calibration, WorkDir};
use crate::{e2e_metrics, server_probe, time_setups, Opts, Outcome};

/// The timed window of simulated time each replay advances.
const WINDOW: SimDuration = SimDuration::from_millis(250);

/// The `fig_scaling` controller settings: 100 ms update period and beacon
/// interval, so wTOP leaves its start-up collapse within ~1.5 simulated s.
const UPDATE: SimDuration = SimDuration::from_millis(100);

fn scenarios(seed: u64) -> Vec<Scenario> {
    let mut out = Vec::new();
    for protocol in [Protocol::Standard80211, Protocol::WTopCsma] {
        for n in [200, 500, 1000] {
            let warmup = if protocol.is_adaptive() {
                SimDuration::from_millis(1500)
            } else {
                SimDuration::from_millis(250)
            };
            let mut s = Scenario::new(protocol, TopologySpec::FullyConnected, n)
                .seed(seed)
                .durations(warmup, WINDOW)
                .update_period(UPDATE);
            s.throughput_bin = UPDATE;
            out.push(s);
        }
    }
    out
}

struct Cell {
    scenario: Scenario,
    sim: Simulator,
    snapshot: Vec<u8>,
    times: Vec<f64>,
    events: Option<u64>,
    digest: Option<String>,
    profile: Option<std::sync::Arc<Mutex<ProfileRows>>>,
}

/// Build every cell, warm it up and snapshot the start of its window.
fn setup(seed: u64, tracer: &Tracer) -> Vec<Cell> {
    scenarios(seed)
        .into_iter()
        .enumerate()
        .map(|(i, scenario)| {
            let job = Some(i as u32);
            let mut sim = tracer.span("build_simulator", None, job, |_| scenario.build_simulator());
            tracer.span("run_for", None, job, |_| sim.run_for(scenario.warmup));
            sim.reset_measurements();
            let snapshot = tracer.span("checkpoint", None, job, |_| sim.checkpoint());
            Cell {
                scenario,
                sim,
                snapshot,
                times: Vec::new(),
                events: None,
                digest: None,
                profile: None,
            }
        })
        .collect()
}

/// What a replay loop did: windows run, failed windows, wall seconds of the
/// whole loop, and the wall seconds of each round (one window per cell).
struct Replay {
    windows: u64,
    failed: u64,
    wall: f64,
    rounds: Vec<f64>,
}

/// Replay windows round robin until `seconds` have passed (whole rounds
/// only). With `cal`, every round starts with a calibration sample.
fn replay(
    cells: &mut [Cell],
    seconds: f64,
    tracer: &Tracer,
    layers: &mut Layers,
    mut cal: Option<&mut Calibration>,
) -> Replay {
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut rounds = Vec::new();
    let started = Instant::now();
    while started.elapsed().as_secs_f64() < seconds || attempted == 0 {
        if let Some(cal) = cal.as_deref_mut() {
            cal.sample();
        }
        let round = Instant::now();
        for (i, cell) in cells.iter_mut().enumerate() {
            let job = Some(i as u32);
            attempted += 1;
            let resumed = tracer.span("resume", None, job, |_| cell.sim.resume(&cell.snapshot));
            if resumed.is_err() {
                failed += 1;
                continue;
            }
            let before = KernelCounts::read(&cell.sim);
            let events_before = cell.sim.events_processed();
            let t = Instant::now();
            tracer.span("run_for", None, job, |_| cell.sim.run_for(WINDOW));
            let dt = t.elapsed();
            cell.times.push(dt.as_secs_f64());
            let events = cell.sim.events_processed() - events_before;
            let digest = result_digest(&cell.scenario.collect_with_telemetry(&cell.sim, false));
            let first_events = *cell.events.get_or_insert(events);
            let first_digest = cell.digest.get_or_insert_with(|| digest.clone());
            if events != first_events || digest != *first_digest {
                failed += 1;
            }
            if tracer.on() {
                let mut counts = KernelCounts::read(&cell.sim).since(before);
                counts.events = events;
                layers.kernel.add(counts);
                layers.engine_ns += dt.as_nanos() as u64;
                layers.sim_secs += WINDOW.as_secs_f64();
                layers.tx_slab_high_water =
                    layers.tx_slab_high_water.max(cell.sim.tx_slab_high_water());
            }
        }
        rounds.push(round.elapsed().as_secs_f64());
    }
    Replay {
        windows: attempted,
        failed,
        wall: started.elapsed().as_secs_f64(),
        rounds,
    }
}

/// A cell's window time in host seconds: the median of its replays.
fn window_secs(cell: &Cell) -> f64 {
    median(&cell.times)
}

/// Geometric mean over cells of simulated seconds per host second.
fn sim_rate(cells: &[Cell]) -> f64 {
    let rates: Vec<f64> = cells
        .iter()
        .map(|c| WINDOW.as_secs_f64() / window_secs(c))
        .collect();
    geomean(&rates)
}

/// One line per cell: its window rate and events per window.
fn print_cells(cells: &[Cell]) {
    for c in cells {
        println!(
            "clique_scaling cell {} N={}: {:.4} sim-s/s over {} windows, {} events per window",
            c.scenario.protocol.label(),
            c.scenario.n,
            WINDOW.as_secs_f64() / window_secs(c),
            c.times.len(),
            c.events.unwrap_or(0)
        );
    }
}

fn window_results(cells: &[Cell]) -> Vec<ScenarioResult> {
    cells
        .iter()
        .map(|c| c.scenario.collect_with_telemetry(&c.sim, false))
        .collect()
}

pub fn run(opts: &Opts, cal: &mut Calibration) -> Outcome {
    let quiet = Tracer::new(false);
    let mut layers = Layers::default();
    if opts.trace {
        return traced(opts, &quiet, layers);
    }
    let (setup_s, mut cells) = time_setups(cal, || setup(opts.seed, &quiet));
    let run = replay(&mut cells, opts.seconds, &quiet, &mut layers, Some(cal));
    print_cells(&cells);
    let results = window_results(&cells);
    let tuned: Vec<f64> = results
        .iter()
        .zip(&cells)
        .filter(|(_, c)| c.scenario.protocol == Protocol::WTopCsma)
        .map(|(r, _)| r.throughput_mbps)
        .collect();
    // Each window's latency is its cell's window time.
    let latencies: Vec<f64> = cells
        .iter()
        .flat_map(|c| std::iter::repeat_n(window_secs(c), c.times.len()))
        .collect();
    Outcome {
        attempted: run.windows,
        failed: run.failed,
        metrics: e2e_metrics(
            cal.factor()
                .expect("the timed section took calibration samples"),
            setup_s,
            sim_rate(&cells),
            cells.len() as f64 / median(&run.rounds),
            &latencies,
            self_peak_rss_mb(cal),
            mean(&tuned),
        ),
        digests: results.iter().map(result_digest).collect(),
    }
}

/// The traced run: two copies of the cells, one untraced and one traced
/// (spans around every call, the kernel's profiler and counters on),
/// replayed in alternate rounds so both see the same host speed.
fn traced(opts: &Opts, quiet: &Tracer, mut layers: Layers) -> Outcome {
    let mut plain_cells = setup(opts.seed, quiet);
    let tracer = Tracer::new(true);
    let mut cells = setup(opts.seed, &tracer);
    for cell in &mut cells {
        cell.sim.enable_metrics();
        cell.profile = Some(attach_profiler(&mut cell.sim));
    }
    let (mut windows, mut failed, mut traced_wall) = (0, 0, 0.0);
    let started = Instant::now();
    while windows == 0 || started.elapsed().as_secs_f64() < opts.seconds {
        // A zero budget replays exactly one round.
        let plain = replay(&mut plain_cells, 0.0, quiet, &mut layers, None);
        let traced = replay(&mut cells, 0.0, &tracer, &mut layers, None);
        windows += plain.windows + traced.windows;
        failed += plain.failed + traced.failed;
        traced_wall += traced.wall;
    }
    layers.overhead = sim_rate(&plain_cells) / sim_rate(&cells) - 1.0;
    layers.busy_secs = cells.iter().flat_map(|c| c.times.iter()).sum();
    layers.capacity_secs = traced_wall;
    let work = WorkDir::new("clique").expect("create the work directory");
    let cache = ResultCache::open(work.path().join("cache")).expect("open a cache");
    for (i, cell) in cells.iter_mut().enumerate() {
        let job = Some(i as u32);
        cell.sim.clear_profiler();
        if let Some(rows) = &cell.profile {
            layers.add_profile(rows);
        }
        layers.job_walls.extend(&cell.times);
        let mut result = cell.scenario.collect_with_telemetry(&cell.sim, true);
        layers.kw_updates += take_kw_updates(&mut result);
        let key = tracer.span("job_key", None, job, |_| job_key(&cell.scenario));
        let stored = tracer.span("cache.store", None, job, |_| cache.store(&key, &result));
        layers
            .cache_entry_bytes
            .push(cache_entry_bytes(&cache, &key));
        let hit = tracer.span("cache.lookup", None, job, |_| cache.lookup(&key));
        if stored.is_err() || hit.as_ref().map(result_digest) != Some(result_digest(&result)) {
            failed += 1;
        }
        layers.checkpoint_bytes.push(cell.snapshot.len() as f64);
    }
    drop(cache);
    let retries = wlan_core::metrics::global().snapshot();
    layers.retries = retries.retries;
    layers.quarantined = retries.quarantined;
    let probe = server_probe(opts, &scenarios(opts.seed), &tracer, &mut layers, &work);
    Outcome {
        attempted: windows + probe.0,
        failed: failed + probe.1,
        metrics: crate::traced_metrics(opts, "clique_scaling", &tracer, &layers),
        digests: Vec::new(),
    }
}
