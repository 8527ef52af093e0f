//! The traced run's instruments: spans recorded around the benchmark's own
//! calls into each layer, and the per-layer tallies read from the telemetry
//! the program already exposes (`enable_metrics`, `set_profiler`,
//! `collect_with_telemetry`, `WLAN_METRICS=1` for the server child).
//!
//! Nothing here reaches inside the crates: a span times a public call from
//! the outside, and every count comes from a public report.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use wlan_sim::{ProfileSample, Simulator};

use crate::util::{mean, quantile};

/// One timed call: `name` is the layer function, `parent` the span that made
/// the call, `job` the job it served (spans of one job share it).
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u32>,
    pub job: Option<u32>,
}

/// Span recorder. Disabled, [`Tracer::span`] is a plain call, so the timed
/// runs execute the same code without recording anything.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    next: AtomicU32,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            epoch: Instant::now(),
            next: AtomicU32::new(0),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    /// Run `f` inside a span; `f` receives the span's id to parent its
    /// children (`None` when tracing is off).
    pub fn span<R>(
        &self,
        name: &'static str,
        parent: Option<u32>,
        job: Option<u32>,
        f: impl FnOnce(Option<u32>) -> R,
    ) -> R {
        if !self.on {
            return f(None);
        }
        let id = self.next.fetch_add(1, Ordering::Relaxed);
        let start = Instant::now();
        let r = f(Some(id));
        self.push(id, name, start, Instant::now(), parent, job);
        r
    }

    /// Record a span whose endpoints were observed elsewhere (a result line
    /// read from the server child).
    pub fn record(
        &self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<u32>,
        job: Option<u32>,
    ) {
        if self.on {
            let id = self.next.fetch_add(1, Ordering::Relaxed);
            self.push(id, name, start, end, parent, job);
        }
    }

    fn push(
        &self,
        id: u32,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<u32>,
        job: Option<u32>,
    ) {
        let ns = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
        let span = Span {
            id,
            name,
            start_ns: ns(start),
            end_ns: ns(end),
            parent,
            job,
        };
        self.spans.lock().expect("span list poisoned").push(span);
    }

    /// Durations in seconds of every span called `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .lock()
            .expect("span list poisoned")
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e9)
            .collect()
    }

    /// Write every span as one JSON line to `path` (called once, at the end
    /// of the run, so writing never overlaps a measurement).
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        use std::fmt::Write as _;
        let spans = self.spans.lock().expect("span list poisoned");
        let mut out = String::new();
        let opt = |v: Option<u32>| v.map_or("null".to_string(), |v| v.to_string());
        for s in spans.iter() {
            let _ = writeln!(
                out,
                "{{\"id\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"job\":{}}}",
                s.id,
                s.name,
                s.start_ns,
                s.end_ns,
                opt(s.parent),
                opt(s.job)
            );
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

/// Sampled profiler rows keyed by `(component, kind)`: samples and nanoseconds.
pub type ProfileRows = BTreeMap<(Option<usize>, &'static str), (u64, u64)>;

/// Every how many events the kernel profiler times one.
pub const PROFILE_EVERY: u32 = 32;

/// Install the kernel's sampled profiler on `sim`, folding samples into the
/// returned shared table.
pub fn attach_profiler(sim: &mut Simulator) -> Arc<Mutex<ProfileRows>> {
    let rows: Arc<Mutex<ProfileRows>> = Arc::default();
    let sink = Arc::clone(&rows);
    sim.set_profiler(
        PROFILE_EVERY,
        Box::new(move |s: ProfileSample| {
            let mut map = sink.lock().expect("profile rows poisoned");
            let row = map.entry((s.component, s.kind)).or_default();
            row.0 += 1;
            row.1 += s.nanos;
        }),
    );
    rows
}

/// Kernel tallies that are differences between two reports.
#[derive(Debug, Clone, Copy, Default)]
pub struct KernelCounts {
    pub events: u64,
    pub pushes: u64,
    pub pops: u64,
    pub timer_arms: u64,
    pub timer_cancels: u64,
}

impl KernelCounts {
    /// Read the current totals of `sim` (requires `enable_metrics`).
    pub fn read(sim: &Simulator) -> Self {
        let Some(report) = sim.metrics_report() else {
            return KernelCounts::default();
        };
        let k = &report.kernel;
        KernelCounts {
            events: sim.events_processed(),
            pushes: k.queue.pushes(),
            pops: k.queue.pops(),
            timer_arms: k.queue.timer_arms,
            timer_cancels: k.queue.timer_cancels,
        }
    }

    /// `self - before`, per field (a resume resets the queue tallies, so a
    /// window is measured against a reading taken right after its resume).
    pub fn since(self, before: KernelCounts) -> Self {
        KernelCounts {
            events: self.events.saturating_sub(before.events),
            pushes: self.pushes.saturating_sub(before.pushes),
            pops: self.pops.saturating_sub(before.pops),
            timer_arms: self.timer_arms.saturating_sub(before.timer_arms),
            timer_cancels: self.timer_cancels.saturating_sub(before.timer_cancels),
        }
    }

    pub fn add(&mut self, o: KernelCounts) {
        self.events += o.events;
        self.pushes += o.pushes;
        self.pops += o.pops;
        self.timer_arms += o.timer_arms;
        self.timer_cancels += o.timer_cancels;
    }
}

/// Per-layer tallies gathered during a traced run. Time metrics come from
/// the tracer's spans; this holds the counts and sizes.
#[derive(Debug, Default)]
pub struct Layers {
    pub kernel: KernelCounts,
    /// Simulated seconds the traced engine runs covered.
    pub sim_secs: f64,
    /// Host nanoseconds of the traced engine runs (the `run_for` /
    /// `advance_until` spans).
    pub engine_ns: u64,
    pub profile: ProfileRows,
    pub tx_slab_high_water: usize,
    pub checkpoint_bytes: Vec<f64>,
    pub cache_entry_bytes: Vec<f64>,
    pub cache_lookups: u64,
    pub cache_hits: u64,
    pub retries: u64,
    pub quarantined: u64,
    pub kw_updates: u64,
    /// Worker busy seconds and `threads × makespan` of the measured pool.
    pub busy_secs: f64,
    pub capacity_secs: f64,
    /// Host seconds of each job (or replayed window) the pool ran.
    pub job_walls: Vec<f64>,
    pub line_bytes: Vec<f64>,
    /// Traced-pass wall over untraced-pass wall, minus one.
    pub overhead: f64,
}

impl Layers {
    pub fn add_profile(&mut self, rows: &Mutex<ProfileRows>) {
        for (k, v) in rows.lock().expect("profile rows poisoned").iter() {
            let row = self.profile.entry(*k).or_default();
            row.0 += v.0;
            row.1 += v.1;
        }
    }

    /// Sampled nanoseconds and samples of the rows matching `pred`.
    fn profile_sum(&self, pred: impl Fn(Option<&str>, &str) -> bool) -> (f64, f64) {
        let name = |c: Option<usize>| c.and_then(|c| wlan_sim::COMPONENT_NAMES.get(c).copied());
        self.profile
            .iter()
            .filter(|((c, k), _)| pred(name(*c), k))
            .fold((0.0, 0.0), |(ns, n), (_, v)| {
                (ns + v.1 as f64, n + v.0 as f64)
            })
    }

    /// The per-layer metrics, in the order of `BENCHMARK.json`.
    pub fn metrics(&self, tracer: &Tracer) -> Vec<(&'static str, f64, &'static str)> {
        let total_ns = self.profile_sum(|_, _| true).0.max(1.0);
        let share = |pred: &dyn Fn(Option<&str>, &str) -> bool| self.profile_sum(pred).0 / total_ns;
        let per_sample = |pred: &dyn Fn(Option<&str>, &str) -> bool| {
            let (ns, n) = self.profile_sum(pred);
            if n > 0.0 {
                ns / n
            } else {
                0.0
            }
        };
        let sched = |c: Option<&str>, k: &str| c.is_none() && k == "sched.pop";
        let tx_start = |c: Option<&str>, k: &str| c == Some("mac") && k == "tx_start";
        let tx_end = |c: Option<&str>, k: &str| c == Some("channel") && k == "tx_end";
        let traffic = |c: Option<&str>, _: &str| c == Some("traffic");
        let ap = |c: Option<&str>, _: &str| c == Some("ap");
        let k = &self.kernel;
        let avg = |name: &str, scale: f64| mean(&tracer.durations(name)) * scale;
        let walls = &self.job_walls;
        let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
        vec![
            ("des.events", k.events as f64, "count"),
            (
                "des.events_per_sim_s",
                ratio(k.events as f64, self.sim_secs),
                "1/sim-s",
            ),
            (
                "des.ns_per_event",
                ratio(self.engine_ns as f64, k.events as f64),
                "ns",
            ),
            ("des.sched_share", share(&sched), "ratio"),
            ("des.sched_pop_ns", per_sample(&sched), "ns"),
            ("des.queue_pushes", k.pushes as f64, "count"),
            ("des.queue_pops", k.pops as f64, "count"),
            ("des.timer_arms", k.timer_arms as f64, "count"),
            ("des.timer_cancels", k.timer_cancels as f64, "count"),
            ("sim.tx_start_share", share(&tx_start), "ratio"),
            ("sim.tx_end_share", share(&tx_end), "ratio"),
            ("sim.tx_start_ns", per_sample(&tx_start), "ns"),
            ("sim.tx_end_ns", per_sample(&tx_end), "ns"),
            ("sim.traffic_share", share(&traffic), "ratio"),
            ("sim.build_s", avg("build_simulator", 1.0), "s"),
            (
                "sim.tx_slab_high_water",
                self.tx_slab_high_water as f64,
                "count",
            ),
            ("sim.checkpoint_ms", avg("checkpoint", 1e3), "ms"),
            (
                "sim.checkpoint_bytes",
                mean(&self.checkpoint_bytes),
                "bytes",
            ),
            ("sim.resume_ms", avg("resume", 1e3), "ms"),
            ("core.ap_share", share(&ap), "ratio"),
            (
                "core.pool_busy_frac",
                ratio(self.busy_secs, self.capacity_secs),
                "ratio",
            ),
            ("core.job_wall_p50_s", quantile(walls, 0.5), "s"),
            ("core.job_wall_p90_s", quantile(walls, 0.9), "s"),
            ("core.job_key_us", avg("job_key", 1e6), "us"),
            ("core.cache_lookup_us", avg("cache.lookup", 1e6), "us"),
            ("core.cache_store_ms", avg("cache.store", 1e3), "ms"),
            (
                "core.cache_entry_bytes",
                mean(&self.cache_entry_bytes),
                "bytes",
            ),
            (
                "core.cache_hit_ratio",
                ratio(self.cache_hits as f64, self.cache_lookups as f64),
                "ratio",
            ),
            ("core.retries", self.retries as f64, "count"),
            ("core.quarantined", self.quarantined as f64, "count"),
            ("sa.kw_updates", self.kw_updates as f64, "count"),
            ("server.first_line_s", avg("server.first_line", 1.0), "s"),
            ("server.line_bytes", mean(&self.line_bytes), "bytes"),
            ("trace.overhead", self.overhead, "ratio"),
        ]
    }
}
