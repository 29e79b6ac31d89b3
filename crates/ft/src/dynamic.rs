//! Dynamic systems — the paper's §7 first objective: "reach the same
//! results in a more dynamic system where tasks can be added or removed
//! 'in real-time' by adapting the behavior of our detectors".
//!
//! [`DynamicSystem`] keeps one [`Analyzer`] session alive across changes:
//! admission reuses the cached response-time solutions of the tasks a
//! newcomer cannot affect, removal salvages the caches above the departed
//! task, and the per-epoch detector plans (WCRT thresholds, equitable
//! allowance) are read from the session's memo instead of re-deriving the
//! whole analysis per epoch. Workloads are executed epoch by epoch: each
//! epoch runs the *current* set on the simulator with freshly derived
//! detector parameters, exactly what an online re-admission would install.

use crate::harness::{run_scenario_buffered, HarnessError, Scenario, ScenarioOutcome};
use crate::treatment::Treatment;
use rtft_core::analyzer::{Analyzer, AnalyzerBuilder};
use rtft_core::error::ModelError;
use rtft_core::feasibility::{Admission, AdmissionError};
use rtft_core::policy::PolicyKind;
use rtft_core::task::{TaskId, TaskSet, TaskSpec};
use rtft_core::time::{Duration, Instant};
use rtft_sim::engine::SimBuffers;
use rtft_sim::fault::FaultPlan;
use rtft_sim::timer::TimerModel;

/// Snapshot of detector parameters after a change.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct DetectorPlan {
    /// Tasks in priority order.
    pub tasks: Vec<TaskId>,
    /// Detection threshold (WCRT) per rank.
    pub wcrt: Vec<Duration>,
    /// Equitable allowance of the current set.
    pub equitable: Option<Duration>,
}

/// An online system: admission control plus detector re-planning, backed
/// by one persistent [`Analyzer`] session built for a scheduling policy.
#[derive(Clone, Debug, Default)]
pub struct DynamicSystem {
    session: Option<Analyzer>,
    policy: PolicyKind,
}

impl DynamicSystem {
    /// Empty system under fixed-priority dispatch.
    pub fn new() -> Self {
        Self::default()
    }

    /// Empty system whose admissions and detector plans follow `policy`.
    pub fn with_policy(policy: PolicyKind) -> Self {
        DynamicSystem {
            session: None,
            policy,
        }
    }

    /// System pre-loaded with `set` under fixed-priority dispatch.
    pub fn with_set(set: &TaskSet) -> Self {
        Self::with_set_policy(set, PolicyKind::FixedPriority)
    }

    /// System pre-loaded with `set` under `policy`.
    pub fn with_set_policy(set: &TaskSet, policy: PolicyKind) -> Self {
        DynamicSystem {
            session: Some(AnalyzerBuilder::new(set).sched_policy(policy).build()),
            policy,
        }
    }

    /// The policy this system admits and plans for.
    pub fn policy(&self) -> PolicyKind {
        self.policy
    }

    /// Current task set, if any task is admitted.
    pub fn current_set(&self) -> Option<TaskSet> {
        self.session.as_ref().map(|s| s.task_set().clone())
    }

    /// The live analysis session, if any task is admitted. Callers that
    /// want more than the [`DetectorPlan`] numbers (busy periods,
    /// sensitivity margins, …) read them from here — they are memoized.
    pub fn session(&mut self) -> Option<&mut Analyzer> {
        self.session.as_mut()
    }

    /// Try to admit a task at run time. On success the new detector plan
    /// is returned — thresholds of *existing* tasks may have changed (a
    /// new high-priority task inflates everyone's WCRT below it), which is
    /// precisely why detectors must adapt. Tasks at higher priority than
    /// the newcomer keep their cached analysis.
    pub fn admit(&mut self, spec: TaskSpec) -> Result<Option<DetectorPlan>, AdmissionError> {
        let admission = match &mut self.session {
            Some(session) => session.admit(spec)?,
            None => {
                let set = TaskSet::new(vec![spec]).map_err(AdmissionError::Model)?;
                let mut session = AnalyzerBuilder::new(&set).sched_policy(self.policy).build();
                let report = session.report().map_err(AdmissionError::Analysis)?;
                if report.is_feasible() {
                    self.session = Some(session);
                    Admission::Admitted(report)
                } else {
                    Admission::Rejected(report)
                }
            }
        };
        match admission {
            Admission::Admitted(_) => Ok(Some(self.plan()?)),
            Admission::Rejected(_) => Ok(None),
        }
    }

    /// Remove a task; returns the refreshed plan (thresholds shrink, the
    /// allowance grows — freed slack is redistributed).
    ///
    /// Removing the *last* task is rejected with
    /// [`ModelError::Empty`] and leaves the system unchanged — drain a
    /// system by dropping it, not by emptying it, so every error path
    /// here is non-mutating.
    pub fn remove(&mut self, id: TaskId) -> Result<DetectorPlan, AdmissionError> {
        let session = self
            .session
            .as_mut()
            .ok_or(AdmissionError::Model(ModelError::UnknownTask(id)))?;
        session.remove(id)?;
        self.plan()
    }

    /// Detector plan of the current set, served from the session's memo
    /// (WCRT thresholds under the fixed-priority policies, deadlines
    /// under EDF — see [`Analyzer::policy_thresholds`]).
    pub fn plan(&mut self) -> Result<DetectorPlan, AdmissionError> {
        let session = self.session.as_mut().expect("plan() on an empty system");
        let wcrt = session
            .policy_thresholds()
            .map_err(AdmissionError::Analysis)?;
        let equitable = session
            .equitable_allowance()
            .map_err(AdmissionError::Analysis)?
            .map(|e| e.allowance);
        Ok(DetectorPlan {
            tasks: session.task_set().tasks().iter().map(|t| t.id).collect(),
            wcrt,
            equitable,
        })
    }
}

/// One epoch of a dynamic workload: a set change followed by a simulated
/// interval.
#[derive(Clone, Debug)]
pub enum EpochChange {
    /// Start from (or reset to) this exact set.
    Reset(TaskSet),
    /// Add a task (must pass admission).
    Add(TaskSpec),
    /// Remove a task.
    Remove(TaskId),
}

/// Run a sequence of epochs, each `epoch_len` long, under `treatment`
/// and the given scheduling `policy`. Returns one [`ScenarioOutcome`]
/// per epoch (time restarts at 0 in each — the detectors are re-armed
/// from scratch, as an online system would).
pub fn run_epochs(
    changes: &[(EpochChange, FaultPlan)],
    epoch_len: Duration,
    treatment: Treatment,
    timer_model: TimerModel,
    policy: PolicyKind,
) -> Result<Vec<ScenarioOutcome>, DynamicError> {
    let mut system = DynamicSystem::with_policy(policy);
    let mut outcomes = Vec::new();
    for (i, (change, faults)) in changes.iter().enumerate() {
        match change {
            EpochChange::Reset(set) => {
                system = DynamicSystem::with_set_policy(set, policy);
            }
            EpochChange::Add(spec) => {
                let admitted = system
                    .admit(spec.clone())
                    .map_err(DynamicError::Admission)?;
                if admitted.is_none() {
                    return Err(DynamicError::Rejected(spec.id));
                }
            }
            EpochChange::Remove(id) => {
                system.remove(*id).map_err(DynamicError::Admission)?;
            }
        }
        let set = system.current_set().ok_or(DynamicError::EmptySystem)?;
        let sc = Scenario::new(
            format!("epoch-{i}"),
            set,
            faults.clone(),
            treatment,
            Instant::EPOCH + epoch_len,
        )
        .with_timer_model(timer_model)
        .with_policy(policy);
        // The session lives across epochs: an epoch that only changes the
        // fault plan reuses every cached number, and add/remove epochs
        // reuse what the change could not affect.
        let session = system.session().ok_or(DynamicError::EmptySystem)?;
        outcomes.push(
            run_scenario_buffered(&sc, session, &mut SimBuffers::new())
                .map_err(DynamicError::Harness)?,
        );
    }
    Ok(outcomes)
}

/// Dynamic-workload errors.
#[derive(Debug)]
pub enum DynamicError {
    /// Admission layer failed.
    Admission(AdmissionError),
    /// The task was rejected by admission control.
    Rejected(TaskId),
    /// No tasks remain.
    EmptySystem,
    /// The per-epoch run failed.
    Harness(HarnessError),
}

impl std::fmt::Display for DynamicError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DynamicError::Admission(e) => write!(f, "{e}"),
            DynamicError::Rejected(id) => write!(f, "admission rejected {id}"),
            DynamicError::EmptySystem => write!(f, "no tasks in the system"),
            DynamicError::Harness(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for DynamicError {}

#[cfg(test)]
mod tests {
    use super::*;
    use rtft_core::task::TaskBuilder;
    use rtft_sim::stop::StopMode;

    fn ms(v: i64) -> Duration {
        Duration::millis(v)
    }

    fn base_specs() -> Vec<TaskSpec> {
        vec![
            TaskBuilder::new(1, 20, ms(200), ms(29))
                .deadline(ms(70))
                .build(),
            TaskBuilder::new(2, 18, ms(250), ms(29))
                .deadline(ms(120))
                .build(),
        ]
    }

    #[test]
    fn thresholds_adapt_on_admission() {
        let mut sys = DynamicSystem::new();
        for spec in base_specs() {
            sys.admit(spec).unwrap().unwrap();
        }
        let before = sys.plan().unwrap();
        assert_eq!(before.wcrt, vec![ms(29), ms(58)]);
        // Admit a mid-priority task: τ2's threshold must shift.
        let plan = sys
            .admit(
                TaskBuilder::new(9, 19, ms(300), ms(10))
                    .deadline(ms(300))
                    .build(),
            )
            .unwrap()
            .unwrap();
        assert_eq!(plan.tasks, vec![TaskId(1), TaskId(9), TaskId(2)]);
        assert_eq!(plan.wcrt, vec![ms(29), ms(39), ms(68)]);
    }

    #[test]
    fn removal_grows_allowance() {
        let mut sys = DynamicSystem::new();
        for spec in base_specs() {
            sys.admit(spec).unwrap().unwrap();
        }
        sys.admit(
            TaskBuilder::new(3, 16, ms(1500), ms(29))
                .deadline(ms(120))
                .build(),
        )
        .unwrap()
        .unwrap();
        let with_tau3 = sys.plan().unwrap();
        assert_eq!(with_tau3.equitable, Some(ms(11)));
        let without = sys.remove(TaskId(3)).unwrap();
        // Slack freed by τ3's departure: A jumps from 11 to 31
        // (R2 = 58 + 2A ≤ 120 binds).
        assert_eq!(without.equitable, Some(ms(31)));
    }

    #[test]
    fn over_admission_is_rejected_and_state_preserved() {
        let mut sys = DynamicSystem::new();
        for spec in base_specs() {
            sys.admit(spec).unwrap().unwrap();
        }
        let hog = TaskBuilder::new(8, 19, ms(100), ms(60)).build();
        assert_eq!(sys.admit(hog).unwrap(), None);
        assert_eq!(sys.plan().unwrap().tasks, vec![TaskId(1), TaskId(2)]);
    }

    #[test]
    fn removing_the_last_task_is_rejected_without_mutation() {
        let mut sys = DynamicSystem::new();
        sys.admit(TaskBuilder::new(1, 20, ms(200), ms(29)).build())
            .unwrap()
            .unwrap();
        let err = sys.remove(TaskId(1)).unwrap_err();
        assert!(matches!(
            err,
            AdmissionError::Model(rtft_core::error::ModelError::Empty)
        ));
        // The error path must not have emptied the system.
        assert_eq!(sys.current_set().unwrap().len(), 1);
        assert_eq!(sys.plan().unwrap().wcrt, vec![ms(29)]);
    }

    #[test]
    fn epochs_run_with_adapting_detectors() {
        let base = TaskSet::from_specs(base_specs());
        let changes = vec![
            (EpochChange::Reset(base), FaultPlan::none()),
            (
                EpochChange::Add(
                    TaskBuilder::new(3, 16, ms(1500), ms(29))
                        .deadline(ms(120))
                        .build(),
                ),
                FaultPlan::none().overrun(TaskId(1), 0, ms(40)),
            ),
            (EpochChange::Remove(TaskId(3)), FaultPlan::none()),
        ];
        let outs = run_epochs(
            &changes,
            ms(1000),
            Treatment::ImmediateStop {
                mode: StopMode::JobOnly,
            },
            TimerModel::EXACT,
            PolicyKind::FixedPriority,
        )
        .unwrap();
        assert_eq!(outs.len(), 3);
        // Epoch 0: clean.
        assert!(outs[0].verdict.all_ok());
        // Epoch 1: τ1 overruns at its first job and is stopped at its WCRT;
        // nobody else suffers.
        assert_eq!(outs[1].verdict.failed_tasks(), vec![TaskId(1)]);
        assert!(outs[1].collateral_failures().is_empty());
        // Epoch 2: τ3 gone, clean again.
        assert!(outs[2].verdict.all_ok());
        assert_eq!(outs[2].verdict.per_task().len(), 2);
    }

    #[test]
    fn edf_dynamic_system_admits_past_fp_limits() {
        // U = 1.0 non-harmonic: FP admission rejects τ2, EDF admits and
        // plans deadline-miss detectors with zero allowance.
        let t1 = TaskBuilder::new(1, 2, ms(4), ms(2)).build();
        let t2 = TaskBuilder::new(2, 1, ms(6), ms(3)).build();
        let mut fp = DynamicSystem::new();
        fp.admit(t1.clone()).unwrap().unwrap();
        assert_eq!(fp.admit(t2.clone()).unwrap(), None);

        let mut edf = DynamicSystem::with_policy(PolicyKind::Edf);
        assert_eq!(edf.policy(), PolicyKind::Edf);
        edf.admit(t1).unwrap().unwrap();
        let plan = edf.admit(t2).unwrap().unwrap();
        assert_eq!(plan.wcrt, vec![ms(4), ms(6)], "thresholds = deadlines");
        assert_eq!(plan.equitable, Some(Duration::ZERO));
    }

    #[test]
    fn rejected_epoch_change_errors() {
        let base = TaskSet::from_specs(base_specs());
        let changes = vec![
            (EpochChange::Reset(base), FaultPlan::none()),
            (
                EpochChange::Add(TaskBuilder::new(8, 19, ms(100), ms(60)).build()),
                FaultPlan::none(),
            ),
        ];
        let err = run_epochs(
            &changes,
            ms(500),
            Treatment::DetectOnly,
            TimerModel::EXACT,
            PolicyKind::FixedPriority,
        )
        .unwrap_err();
        assert!(matches!(err, DynamicError::Rejected(TaskId(8))));
    }
}
