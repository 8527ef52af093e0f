//! Driving `campaign_server` as a child process: job specs, one pass of the
//! server over a spec, and the parsed result lines.

use std::io::{BufRead, BufReader, Write};
use std::path::Path;
use std::process::{Command, Stdio};
use std::time::Instant;

use serde::{Serialize, Value};
use wlan_core::Scenario;

use crate::util::peak_rss_mb_of;

/// A job spec for `campaign_server`: every job is the scenario's full
/// serialised form, so the server's cache key equals
/// `wlan_core::job_key(scenario)`. `repeat` lists the job set that many
/// times over (a warm pass serves every copy from the cache).
pub fn spec(
    jobs: &[Scenario],
    repeat: usize,
    checkpoint_sim_secs: f64,
    cache_dir: &Path,
    checkpoint_dir: &Path,
) -> String {
    let jobs: Vec<Value> = (0..repeat)
        .flat_map(|_| jobs.iter().map(Serialize::to_value))
        .collect();
    let spec = Value::Map(vec![
        ("threads".to_string(), Value::U64(2)),
        (
            "checkpoint_sim_secs".to_string(),
            Value::F64(checkpoint_sim_secs),
        ),
        (
            "cache_dir".to_string(),
            Value::Str(cache_dir.display().to_string()),
        ),
        (
            "checkpoint_dir".to_string(),
            Value::Str(checkpoint_dir.display().to_string()),
        ),
        ("jobs".to_string(), Value::Seq(jobs)),
    ]);
    serde_json::to_string(&spec).expect("a job spec always serialises")
}

/// One run of the server over one spec.
pub struct Pass {
    /// When the spec write began.
    pub start: Instant,
    /// Per-job lines with the instant each was read, in arrival order.
    pub lines: Vec<(Instant, String)>,
    /// The closing summary line, if the server printed one.
    pub summary: Option<Value>,
    /// When the last line was read.
    pub end: Instant,
    /// Whether the server exited with status 0.
    pub exit_ok: bool,
    /// The child's peak resident set in MiB.
    pub peak_rss_mb: f64,
    /// `results/metrics.json` the server left in its working directory.
    pub metrics: Option<Value>,
}

impl Pass {
    pub fn wall(&self) -> f64 {
        self.end.duration_since(self.start).as_secs_f64()
    }
}

/// Run `campaign_server` in `cwd` over `spec_text` and read its output.
/// With `telemetry` the child runs with `WLAN_METRICS=1`. The caller's
/// environment carries no other `WLAN_*` variable (see `main`).
pub fn run_pass(bin: &Path, cwd: &Path, spec_text: &str, telemetry: bool) -> std::io::Result<Pass> {
    let mut cmd = Command::new(bin);
    cmd.current_dir(cwd)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null());
    if telemetry {
        cmd.env("WLAN_METRICS", "1");
    }
    let mut child = cmd.spawn()?;
    // The child's peak RSS is read from its `VmHWM` while it runs (every 64
    // lines and at the summary line, which it prints just before exiting).
    // `getrusage`-style accounting would not do: a spawned child's
    // `ru_maxrss` includes the parent's resident set at the time of exec.
    let status_path = format!("/proc/{}/status", child.id());
    let mut peak_rss_mb = 0.0f64;
    let start = Instant::now();
    let mut stdin = child.stdin.take().expect("stdin is piped");
    let stdout = child.stdout.take().expect("stdout is piped");
    // The server reads the whole spec before it starts; write it from a
    // helper thread so a large spec cannot deadlock against our reads.
    let text = spec_text.to_string();
    let writer = std::thread::spawn(move || stdin.write_all(text.as_bytes()));
    let mut lines = Vec::new();
    let mut summary = None;
    for line in BufReader::new(stdout).lines() {
        let line = line?;
        let at = Instant::now();
        if line.starts_with("{\"job\":") {
            lines.push((at, line));
            if lines.len() % 64 == 1 {
                peak_rss_mb = peak_rss_mb.max(peak_rss_mb_of(&status_path));
            }
        } else if line.starts_with("{\"jobs\":") {
            peak_rss_mb = peak_rss_mb.max(peak_rss_mb_of(&status_path));
            summary = serde_json::from_str(&line).ok();
        }
    }
    let end = lines.last().map_or_else(Instant::now, |l| l.0);
    let written = writer.join().expect("spec writer panicked");
    let status = child.wait()?;
    written?;
    let metrics = std::fs::read_to_string(cwd.join("results/metrics.json"))
        .ok()
        .and_then(|t| serde_json::from_str(&t).ok());
    Ok(Pass {
        start,
        lines,
        summary,
        end,
        exit_ok: status.success(),
        peak_rss_mb,
        metrics,
    })
}

/// The fields of one job line the benchmark checks.
pub struct JobLine {
    pub job: usize,
    pub error: Option<String>,
    /// The exact text of the `result` object, as the server printed it.
    pub result_text: String,
    pub throughput_mbps: f64,
    pub wall_secs: f64,
}

/// Parse one `{"job": ...}` line.
pub fn parse_line(line: &str) -> Option<JobLine> {
    let value: Value = serde_json::from_str(line).ok()?;
    let Value::Map(entries) = &value else {
        return None;
    };
    let get = |k: &str| serde::map_get(entries, k).ok();
    let job = match get("job")? {
        Value::U64(j) => *j as usize,
        _ => return None,
    };
    let f64_of = |v: Option<&Value>| match v {
        Some(Value::F64(x)) => *x,
        Some(Value::U64(x)) => *x as f64,
        _ => 0.0,
    };
    let error = match get("error") {
        Some(Value::Str(e)) => Some(e.clone()),
        _ => None,
    };
    // `result` is the line's last field: its text runs to the closing brace.
    let result_text = line
        .find("\"result\":")
        .map(|i| line[i + "\"result\":".len()..line.len() - 1].to_string())
        .unwrap_or_default();
    let throughput_mbps = match get("result") {
        Some(Value::Map(r)) => f64_of(serde::map_get(r, "throughput_mbps").ok()),
        _ => 0.0,
    };
    Some(JobLine {
        job,
        error,
        result_text,
        throughput_mbps,
        wall_secs: f64_of(get("wall_secs")),
    })
}
