//! Small helpers shared by the workloads: order statistics, result digests,
//! memory readings and the benchmark's scratch directory.

use std::path::{Path, PathBuf};

/// Median of `xs` (0 for an empty slice).
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Linear-interpolation quantile of `xs` at `q` in `[0, 1]` (0 when empty).
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Geometric mean of positive values (0 when empty).
pub fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// Arithmetic mean (0 when empty).
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// 64-bit FNV-1a digest of `bytes`, as 16 hex digits. Used to compare
/// serialised results with the stored reference without storing the results.
pub fn digest(bytes: &[u8]) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    format!("{h:016x}")
}

/// Digest of a result's canonical serialisation: the exact text
/// `campaign_server` puts in a job line's `result` field.
pub fn result_digest(result: &wlan_core::ScenarioResult) -> String {
    use serde::Serialize;
    let text = serde_json::to_string(&result.to_value()).expect("a result always serialises");
    digest(text.as_bytes())
}

/// Peak resident set of this process in MiB (`VmHWM`) less the buffers of
/// `cal`, which are resident from before the workload starts to its end:
/// the memory the program under test held at its peak.
pub fn self_peak_rss_mb(cal: &Calibration) -> f64 {
    peak_rss_mb_of("/proc/self/status") - cal.buffers_mb()
}

/// Peak resident set in MiB from a `/proc/<pid>/status` file, 0 when
/// unavailable (the process has exited).
pub fn peak_rss_mb_of(status_path: &str) -> f64 {
    let status = std::fs::read_to_string(status_path).unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Host time the calibration loop takes at the reference speed.
const CALIBRATION_REF_SECS: f64 = 0.025;

/// Words in each calibration thread's buffer: 32 KiB.
const CALIBRATION_BUF_WORDS: usize = 4096;

/// Host-speed calibration. The benchmark's hosts share their cores with
/// other tenants, and their speed drifts by ±25% within a minute and by up
/// to 3x within an hour. Runs therefore take calibration samples throughout
/// (before every set-up batch, round, pass and call) and scale their timing
/// metrics by the median factor. The loop is the benchmark's own code
/// (random read-modify-write over a buffer), so a change to the program
/// under test cannot move it. The buffer is small enough to stay in the
/// core's cache: the tenants slow memory-bound code by more, and by other
/// amounts, than they slow the simulator. Over seven runs each on a 2-core
/// x86-64 host, scaling by a 4 MiB loop left a run-to-run spread of 12% on
/// `clique_scaling`'s `sim_rate` and 24% on `service_cold`'s `jobs_per_s`,
/// against 8% and 9% with this loop. It runs on as many threads at once as
/// the workload uses, since a workload on two cores slows with either of
/// them.
pub struct Calibration {
    bufs: Vec<Vec<u64>>,
    factors: Vec<f64>,
}

/// One calibration loop over `buf`; returns its host seconds.
fn calibration_loop(buf: &mut [u64]) -> f64 {
    let t = std::time::Instant::now();
    let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
    let mut acc = 0u64;
    let n = buf.len();
    for _ in 0..4_000_000 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let i = (x as usize) % n;
        acc = acc.wrapping_add(buf[i]);
        buf[i] = acc ^ x;
        if acc & 1 == 0 {
            acc = acc.rotate_left(3);
        }
    }
    std::hint::black_box(acc);
    t.elapsed().as_secs_f64()
}

impl Calibration {
    /// A calibration for a workload running on `threads` threads.
    pub fn new(threads: usize) -> Self {
        Calibration {
            bufs: vec![vec![1; CALIBRATION_BUF_WORDS]; threads.max(1)],
            factors: Vec::new(),
        }
    }

    /// Run the loop once per thread, concurrently, and record the factor
    /// that scales a host time measured now to the reference speed (below 1
    /// on a slow moment).
    pub fn sample(&mut self) {
        let secs: Vec<f64> = std::thread::scope(|s| {
            let handles: Vec<_> = self
                .bufs
                .iter_mut()
                .map(|buf| s.spawn(|| calibration_loop(buf)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("calibration loop panicked"))
                .collect()
        });
        self.factors.push(CALIBRATION_REF_SECS / mean(&secs));
    }

    /// Samples in proportion to the work that follows: one per 0.25 s of
    /// `last_secs` (the previous piece of work, which the next resembles),
    /// from 1 to 16, so calibration takes about a tenth of the time.
    pub fn sample_for(&mut self, last_secs: f64) {
        for _ in 0..((last_secs / 0.25) as usize).clamp(1, 16) {
            self.sample();
        }
    }

    /// Size of the loop buffers in MiB (every page is written at creation).
    pub fn buffers_mb(&self) -> f64 {
        let bytes: usize = self
            .bufs
            .iter()
            .map(|b| std::mem::size_of_val(&b[..]))
            .sum();
        bytes as f64 / (1024.0 * 1024.0)
    }

    /// Median of every factor taken since the last [`reset`](Self::reset),
    /// or `None` before the first.
    pub fn factor(&self) -> Option<f64> {
        (!self.factors.is_empty()).then(|| median(&self.factors))
    }

    /// First quartile, median and third quartile of the factors.
    pub fn quartiles(&self) -> [f64; 3] {
        [0.25, 0.5, 0.75].map(|q| quantile(&self.factors, q))
    }

    /// Forget the factors taken so far.
    pub fn reset(&mut self) {
        self.factors.clear();
    }
}

/// A scratch directory under `.bench_work/` in the working directory (the
/// checkout root), removed again when dropped. Every file the benchmark or
/// its child processes write lives here, so runs leave the tree unchanged.
pub struct WorkDir {
    path: PathBuf,
}

impl WorkDir {
    pub fn new(label: &str) -> std::io::Result<Self> {
        let path = std::env::current_dir()?
            .join(".bench_work")
            .join(format!("{label}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path)?;
        Ok(WorkDir { path })
    }

    pub fn path(&self) -> &Path {
        &self.path
    }

    /// A fresh (emptied) subdirectory.
    pub fn fresh(&self, name: &str) -> std::io::Result<PathBuf> {
        let p = self.path.join(name);
        let _ = std::fs::remove_dir_all(&p);
        std::fs::create_dir_all(&p)?;
        Ok(p)
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
        if let Some(parent) = self.path.parent() {
            // Succeeds only once no other run is using the directory.
            let _ = std::fs::remove_dir(parent);
        }
    }
}
