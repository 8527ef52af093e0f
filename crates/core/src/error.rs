//! Typed errors for the campaign service path.
//!
//! The campaign layer is the part of this workspace that runs unattended for
//! days (see `campaign_server`), so its failure modes are first-class values
//! rather than panics: a malformed scenario is a [`ScenarioError`], a job
//! that kept crashing is a [`JobError`], and a campaign with quarantined
//! jobs summarises them in a [`CampaignError`]. The supervised pool in
//! [`crate::campaign`] guarantees that one failing job never poisons the
//! others — every other result is still produced, bit-identical to a run in
//! which the failing job never existed.

use std::fmt;

/// Why a [`crate::Scenario`] description is invalid, detected by
/// [`crate::Scenario::validate`] before any simulator is built.
///
/// Validation runs in `campaign_server` spec parsing (a bad job spec yields
/// a per-job error line) and as the supervised pool's pre-flight check (a
/// bad scenario is quarantined instead of panicking a worker).
#[derive(Debug, Clone, PartialEq)]
pub enum ScenarioError {
    /// `n == 0`: a cell with no stations has no defined throughput.
    ZeroStations,
    /// `weights` was set but its length disagrees with `n`.
    WeightsLengthMismatch {
        /// The scenario's station count.
        expected: usize,
        /// The length of the supplied weight vector.
        got: usize,
    },
    /// A station weight is NaN, infinite, zero or negative (weighted
    /// fairness divides by the weight).
    InvalidWeight {
        /// Index of the offending station.
        index: usize,
        /// The offending weight value.
        value: f64,
    },
    /// The offered-load model is invalid (NaN/negative arrival rate, zero
    /// on/off sojourn, queue bound of 0 frames).
    InvalidTraffic(String),
    /// Warm-up plus measurement time is zero: the run would end at t = 0
    /// with no measured interval at all.
    ZeroDuration,
    /// The PHY parameters are inconsistent (the message of
    /// `PhyParams::validate`).
    InvalidPhy(String),
    /// A static p-persistent attempt probability outside `[0, 1]` (or NaN).
    InvalidAttemptProbability(f64),
    /// A static RandomReset stage `j` outside `[0, m - 1]`.
    InvalidResetStage {
        /// The requested reset stage.
        stage: u8,
        /// The PHY's maximum backoff stage `m`.
        max_stage: u8,
    },
    /// A static RandomReset probability `p0` outside `[0, 1]` (or NaN).
    InvalidResetProbability(f64),
    /// A zero-width throughput bin: the statistics tick would never advance.
    ZeroThroughputBin,
}

impl fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScenarioError::ZeroStations => write!(f, "scenario has zero stations (n == 0)"),
            ScenarioError::WeightsLengthMismatch { expected, got } => write!(
                f,
                "weights length mismatch: scenario has {expected} stations but {got} weights"
            ),
            ScenarioError::InvalidWeight { index, value } => write!(
                f,
                "weight of station {index} must be positive and finite, got {value}"
            ),
            ScenarioError::InvalidTraffic(msg) => write!(f, "invalid traffic spec: {msg}"),
            ScenarioError::ZeroDuration => {
                write!(
                    f,
                    "scenario has zero total duration (warmup + measure == 0)"
                )
            }
            ScenarioError::InvalidPhy(msg) => write!(f, "invalid PHY parameters: {msg}"),
            ScenarioError::InvalidAttemptProbability(p) => {
                write!(f, "attempt probability p must be in [0, 1], got {p}")
            }
            ScenarioError::InvalidResetStage { stage, max_stage } => write!(
                f,
                "reset stage j must lie in [0, m - 1] (m = {max_stage}), got {stage}"
            ),
            ScenarioError::InvalidResetProbability(p0) => {
                write!(f, "reset probability p0 must be in [0, 1], got {p0}")
            }
            ScenarioError::ZeroThroughputBin => write!(f, "throughput bin must be positive"),
        }
    }
}

impl std::error::Error for ScenarioError {}

/// Why one campaign job produced no result.
///
/// Returned (per job, in input order) by [`crate::RunContext::run`]; a
/// `JobError` in one slot never disturbs the other slots.
#[derive(Debug, Clone, PartialEq)]
pub enum JobError {
    /// The scenario failed pre-flight validation; the job never ran.
    InvalidScenario(ScenarioError),
    /// Every attempt of the job panicked (a real bug, or an injected
    /// `job_panic` fault); the job is quarantined with the last panic
    /// message after `attempts` tries.
    Panicked {
        /// Total attempts made (1 initial + retries).
        attempts: u32,
        /// Panic payload of the final attempt.
        message: String,
    },
}

impl JobError {
    /// Whether this error came from the deterministic fault injector rather
    /// than a real defect (the injected panic payloads are tagged).
    pub fn is_injected(&self) -> bool {
        matches!(self, JobError::Panicked { message, .. } if message.contains("injected fault"))
    }
}

impl fmt::Display for JobError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JobError::InvalidScenario(e) => write!(f, "invalid scenario: {e}"),
            JobError::Panicked { attempts, message } => {
                write!(f, "job panicked on all {attempts} attempts: {message}")
            }
        }
    }
}

impl std::error::Error for JobError {}

impl From<ScenarioError> for JobError {
    fn from(e: ScenarioError) -> Self {
        JobError::InvalidScenario(e)
    }
}

/// A campaign that completed with at least one quarantined job: every
/// healthy job's result was produced, and the failures are listed by input
/// index in ascending order.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignError {
    /// `(job index, error)` for every quarantined job, ascending by index.
    pub failures: Vec<(usize, JobError)>,
}

impl fmt::Display for CampaignError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} campaign job(s) quarantined:", self.failures.len())?;
        for (i, e) in self.failures.iter().take(5) {
            write!(f, " [job {i}: {e}]")?;
        }
        if self.failures.len() > 5 {
            write!(f, " (+{} more)", self.failures.len() - 5)?;
        }
        Ok(())
    }
}

impl std::error::Error for CampaignError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        let e = ScenarioError::WeightsLengthMismatch {
            expected: 4,
            got: 2,
        };
        assert!(e.to_string().contains('4') && e.to_string().contains('2'));
        let j = JobError::Panicked {
            attempts: 3,
            message: "injected fault: job_panic".into(),
        };
        assert!(j.to_string().contains("3 attempts"));
        assert!(j.is_injected());
        let real = JobError::Panicked {
            attempts: 1,
            message: "index out of bounds".into(),
        };
        assert!(!real.is_injected());
        let c = CampaignError {
            failures: vec![(7, j)],
        };
        assert!(c.to_string().contains("job 7"));
    }

    #[test]
    fn campaign_error_truncates_long_failure_lists() {
        let failures = (0..9)
            .map(|i| {
                (
                    i,
                    JobError::Panicked {
                        attempts: 1,
                        message: "x".into(),
                    },
                )
            })
            .collect();
        let c = CampaignError { failures };
        let s = c.to_string();
        assert!(s.contains("9 campaign job(s)"));
        assert!(s.contains("+4 more"));
    }
}
