//! Resolving the thresholds a trace must respect.
//!
//! Replay asks the analysis plane the same questions the execution
//! stack asked before the run, through the same [`rtft_ft::resolver`]
//! recipe: the detector thresholds the treatment prescribed (what the
//! runners configure) and the certified response bound the differential
//! oracle checks completions against, including its out-of-allowance
//! skip. Both are mapped **per task**, so the stepping checker never
//! cares which placement produced an event — a partitioned job simply
//! resolves each core's subset through its own session, exactly as the
//! multicore runner used one session per core.

use crate::ReplayError;
use rtft_campaign::{JobSpec, Workbench};
use rtft_core::task::TaskId;
use rtft_core::time::Duration;
use rtft_ft::harness::HarnessError;
use rtft_ft::resolver::{certify, max_overrun, prescribe, Uncertified};
use std::collections::BTreeMap;

/// Whether completions can be held to a certified response bound — the
/// oracle's applicability verdict, mirrored.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Certification {
    /// Every completion must respond within the Δmax-inflated bound.
    Certified {
        /// The inflation the bounds were computed at.
        dmax: Duration,
    },
    /// No certified bound applies (fault plan out of allowance, or the
    /// inflated analysis failed); only the detection-line checks run.
    Uncertified {
        /// Largest injected overrun.
        dmax: Duration,
        /// Why certification was declined.
        reason: String,
    },
    /// The platform charges overheads the analysis does not model.
    Overheads,
}

impl Certification {
    /// `true` iff completions are checked against a certified bound.
    pub fn is_certified(&self) -> bool {
        matches!(self, Certification::Certified { .. })
    }
}

impl std::fmt::Display for Certification {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Certification::Certified { dmax } => {
                write!(f, "certified at Δmax = {dmax}")
            }
            Certification::Uncertified { dmax, reason } => {
                write!(f, "uncertified (Δmax = {dmax}: {reason})")
            }
            Certification::Overheads => write!(f, "uncertified (charged overheads)"),
        }
    }
}

/// What one task's events are held to.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct TaskBounds {
    /// Detection threshold the treatment configured (`None` under
    /// [`Treatment::NoDetection`](rtft_ft::treatment::Treatment::NoDetection)).
    pub threshold: Option<Duration>,
    /// Quantization delay of this task's detector line: its first fire
    /// is rounded up to the platform's timer grid, subsequent fires
    /// step exactly, so every job's detection instant is
    /// `release + threshold + detect_delay`.
    pub detect_delay: Duration,
    /// Certified response bound for completed jobs, when certification
    /// applies to this task's core.
    pub certified: Option<Duration>,
}

/// Per-task bounds plus the job-wide certification verdict.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ReplayBounds {
    /// Bounds of every task of the set.
    pub per_task: BTreeMap<TaskId, TaskBounds>,
    /// Job-wide certification face (the worst core's, under
    /// partitioned placement).
    pub certification: Certification,
    /// `true` iff the treatment is allowed to stop faulty tasks — a
    /// `stop` event in a trace of a non-stopping treatment is always a
    /// divergence.
    pub stops: bool,
}

impl ReplayBounds {
    /// Bounds of one task (`None` for tasks outside the job's set).
    pub fn of(&self, task: TaskId) -> Option<&TaskBounds> {
        self.per_task.get(&task)
    }
}

/// Resolve the bounds a trace of `job` must respect: one
/// [`rtft_ft::resolver`] pass per analysis session of the job's
/// placement — the uniprocessor session, each occupied core's session
/// under partitioned placement (its own fault slice deciding its
/// certification), or the global session. The job-wide certification
/// is the worst session's, reported at the job-wide Δmax.
///
/// # Errors
/// [`ReplayError::Analysis`] when the base system is not admitted (an
/// inadmissible system never ran, so no honest trace of it exists), the
/// allocator finds no partition, or an analysis query fails.
pub fn resolve_bounds(job: &JobSpec) -> Result<ReplayBounds, ReplayError> {
    let mut bench = Workbench::new(job.system_spec());
    if let Some(diag) = bench.unplaceable() {
        return Err(ReplayError::Analysis(diag.to_string()));
    }
    let dmax = max_overrun(&job.faults);
    let timer = job.platform.timer;
    let mut per_task = BTreeMap::new();
    let mut certification = Certification::Certified { dmax };
    for session in bench.bounds_sessions_mut() {
        let analysis = prescribe(session, job.treatment).map_err(|e| {
            ReplayError::Analysis(match e {
                HarnessError::InfeasibleBase => {
                    "base system is not admitted — it cannot have produced a trace".into()
                }
                HarnessError::Analysis(e) => e.to_string(),
            })
        })?;
        let cert = certify(
            session,
            &analysis.wcrt,
            &job.faults,
            &job.platform.overheads,
        );
        let set = session.task_set();
        for rank in 0..set.len() {
            let spec = set.by_rank(rank);
            let threshold = analysis.thresholds.get(rank).copied();
            let bounds = TaskBounds {
                threshold,
                detect_delay: threshold
                    .map(|t| timer.delay(spec.offset + t))
                    .unwrap_or(Duration::ZERO),
                certified: cert.bounds.as_ref().ok().map(|b| b[rank]),
            };
            per_task.insert(spec.id, bounds);
        }
        certification = match (certification, cert.bounds) {
            (Certification::Overheads, _) | (_, Err(Uncertified::Overheads)) => {
                Certification::Overheads
            }
            (uncertified @ Certification::Uncertified { .. }, _) => uncertified,
            (_, Err(Uncertified::OutOfAllowance)) => Certification::Uncertified {
                dmax,
                reason: "fault plan exceeds the admitted allowance".into(),
            },
            (_, Err(Uncertified::Analysis(reason))) => Certification::Uncertified { dmax, reason },
            (certified, Ok(_)) => certified,
        };
    }
    Ok(ReplayBounds {
        per_task,
        certification,
        stops: job.treatment.stops_faulty_tasks(),
    })
}
