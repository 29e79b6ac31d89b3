//! The bounds resolver: the one recipe from an analysis session and a
//! run's treatment, fault plan and platform to every number the run is
//! held to.
//!
//! The paper's pipeline asks the analysis three things before and after
//! a supervised run:
//!
//! 1. **admission** — may the base system run at all, and with which
//!    baseline detection thresholds (the WCRTs under the fixed-priority
//!    policies, the deadlines under EDF; a sufficient bound under global
//!    placement);
//! 2. **treatment parameters** — the detector thresholds and allowances
//!    the configured [`Treatment`] prescribes (equitable `A` with its
//!    inflated thresholds, or the system-allowance maxima `M_i`);
//! 3. **certification** — the response bound every completion must
//!    respect when the injected overruns stay within the admitted
//!    equitable allowance (`Δmax ≤ A`): the thresholds of the system
//!    with every cost inflated by `Δmax`, or the reason no bound
//!    applies.
//!
//! [`prescribe`] answers 1–2 and [`certify`] answers 3, against any
//! [`BoundsSession`]: the exact uniprocessor [`Analyzer`] (also each
//! partitioned core's session) and the sufficient-only global analyzer
//! in `rtft-global`. The runners, the campaign's differential oracle and
//! trace replay all resolve their bounds here, so they cannot disagree.
//!
//! Why the certified bound is sound for any treatment: every job's
//! demand is `C_i + δ` with `δ ≤ Δmax`, so the Δmax-inflated fixed point
//! bounds every response; treatments only ever *stop* jobs, which
//! removes interference; and `Δmax ≤ A` guarantees the inflated
//! analysis converges. Charged scheduling overheads add demand the
//! analysis does not model, so they void the certificate.

use crate::harness::{AnalysisSummary, HarnessError};
use crate::treatment::Treatment;
use rtft_core::allowance::SlackPolicy;
use rtft_core::analyzer::Analyzer;
use rtft_core::error::AnalysisError;
use rtft_core::policy::PolicyKind;
use rtft_core::task::TaskSet;
use rtft_core::time::Duration;
use rtft_sim::fault::FaultPlan;
use rtft_sim::overhead::Overheads;

/// The analysis questions the resolver asks, answered by one memoized
/// session over one task set (rank-indexed vectors throughout).
pub trait BoundsSession {
    /// The task set the session analyses.
    fn task_set(&self) -> &TaskSet;
    /// Admission gate, then the baseline detection threshold per rank.
    ///
    /// # Errors
    /// [`HarnessError::InfeasibleBase`] when the base system is not
    /// admitted; [`HarnessError::Analysis`] when the analysis fails.
    fn baseline(&mut self) -> Result<Vec<Duration>, HarnessError>;
    /// The equitable allowance `A` (`None`: the set admits none).
    ///
    /// # Errors
    /// [`AnalysisError`] when the allowance search fails.
    fn allowance(&mut self) -> Result<Option<Duration>, AnalysisError>;
    /// The equitable treatment: `A` and the thresholds of the system
    /// with every cost inflated by it (`None`: the set admits none).
    ///
    /// # Errors
    /// [`AnalysisError`] when the allowance search fails.
    fn equitable(&mut self) -> Result<Option<(Duration, Vec<Duration>)>, AnalysisError>;
    /// The system-allowance maxima `M_i` under `policy` (`None`: the set
    /// admits none).
    ///
    /// # Errors
    /// [`AnalysisError`] when an overrun search fails.
    fn system_maxima(
        &mut self,
        policy: SlackPolicy,
    ) -> Result<Option<Vec<Duration>>, AnalysisError>;
    /// Per-rank response bounds of the system with every cost inflated
    /// by `dmax` (admitted by [`Self::allowance`]). The session's own
    /// parameters are unchanged afterwards.
    ///
    /// # Errors
    /// [`AnalysisError`] when the inflated analysis fails.
    fn inflated_bounds(&mut self, dmax: Duration) -> Result<Vec<Duration>, AnalysisError>;
}

impl BoundsSession for Analyzer {
    fn task_set(&self) -> &TaskSet {
        Analyzer::task_set(self)
    }

    fn baseline(&mut self) -> Result<Vec<Duration>, HarnessError> {
        // Exact WCRT test for FP, WCRT-with-blocking for non-preemptive
        // FP, processor-demand test for EDF.
        if !self.is_feasible()? {
            return Err(HarnessError::InfeasibleBase);
        }
        match self.policy_thresholds() {
            Err(AnalysisError::Divergent { .. }) => Err(HarnessError::InfeasibleBase),
            other => Ok(other?),
        }
    }

    fn allowance(&mut self) -> Result<Option<Duration>, AnalysisError> {
        Ok(self.equitable_allowance()?.map(|eq| eq.allowance))
    }

    fn equitable(&mut self) -> Result<Option<(Duration, Vec<Duration>)>, AnalysisError> {
        Ok(self
            .equitable_allowance()?
            .map(|eq| (eq.allowance, eq.inflated_wcrt)))
    }

    fn system_maxima(
        &mut self,
        policy: SlackPolicy,
    ) -> Result<Option<Vec<Duration>>, AnalysisError> {
        Ok(self.system_allowance_with(policy)?.map(|sa| sa.max_overrun))
    }

    fn inflated_bounds(&mut self, dmax: Duration) -> Result<Vec<Duration>, AnalysisError> {
        if self.sched_policy() == PolicyKind::Edf {
            // Deadlines do not move under inflation: admitting Δmax
            // keeps the inflated system demand-feasible.
            return self.policy_thresholds();
        }
        self.inflate_all(dmax);
        let inflated = self.policy_thresholds();
        self.reset_costs();
        inflated
    }
}

/// Admission plus the treatment's detector parameters — the numbers a
/// supervised run is configured with.
///
/// # Errors
/// [`HarnessError::InfeasibleBase`] when the base system is not admitted
/// or the treatment's allowance does not exist;
/// [`HarnessError::Analysis`] when an analysis query fails.
pub fn prescribe<S: BoundsSession + ?Sized>(
    session: &mut S,
    treatment: Treatment,
) -> Result<AnalysisSummary, HarnessError> {
    let wcrt = session.baseline()?;
    let mut summary = AnalysisSummary {
        thresholds: Vec::new(),
        equitable: None,
        system_allowance: None,
        wcrt,
    };
    match treatment {
        Treatment::NoDetection => {}
        Treatment::DetectOnly | Treatment::ImmediateStop { .. } => {
            summary.thresholds = summary.wcrt.clone();
        }
        Treatment::EquitableAllowance { .. } => {
            let (a, inflated) = session.equitable()?.ok_or(HarnessError::InfeasibleBase)?;
            summary.equitable = Some(a);
            summary.thresholds = inflated;
        }
        Treatment::SystemAllowance { policy, .. } => {
            let maxima = session
                .system_maxima(policy)?
                .ok_or(HarnessError::InfeasibleBase)?;
            summary.thresholds = summary.wcrt.clone();
            summary.system_allowance = Some(maxima);
        }
    }
    Ok(summary)
}

/// Why completions are not held to a certified response bound.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Uncertified {
    /// The platform charges overheads the analysis does not model.
    Overheads,
    /// The fault plan exceeds the admitted allowance (`Δmax > A`, or no
    /// allowance exists) — the bound is not guaranteed there.
    OutOfAllowance,
    /// The allowance search or the inflated analysis failed.
    Analysis(String),
}

/// The certified response bound of one run, or why there is none.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Certificate {
    /// Largest injected overrun on the session's tasks.
    pub dmax: Duration,
    /// Per-rank response bound every completion must respect.
    pub bounds: Result<Vec<Duration>, Uncertified>,
}

/// Largest positive injected delta of a plan (`ZERO` when fault-free or
/// all-underrun).
pub fn max_overrun(plan: &FaultPlan) -> Duration {
    plan.entries()
        .map(|(_, _, d)| d)
        .filter(|d| d.is_positive())
        .max()
        .unwrap_or(Duration::ZERO)
}

/// The Δmax-certified response bound of a run over `session`'s tasks:
/// `baseline` (from [`prescribe`]) when no overrun is injected, the
/// Δmax-inflated bounds when `Δmax` is within the equitable allowance.
/// Only fault entries on the session's own tasks count, so a
/// partitioned core is certified by its own fault slice.
pub fn certify<S: BoundsSession + ?Sized>(
    session: &mut S,
    baseline: &[Duration],
    faults: &FaultPlan,
    overheads: &Overheads,
) -> Certificate {
    let set = session.task_set();
    let dmax = faults
        .entries()
        .filter(|(task, _, d)| d.is_positive() && set.by_id(*task).is_some())
        .map(|(_, _, d)| d)
        .max()
        .unwrap_or(Duration::ZERO);
    let bounds = if !overheads.is_free() {
        Err(Uncertified::Overheads)
    } else if dmax.is_zero() {
        Ok(baseline.to_vec())
    } else {
        match session.allowance() {
            Ok(Some(a)) if dmax <= a => session
                .inflated_bounds(dmax)
                .map_err(|e| Uncertified::Analysis(e.to_string())),
            Ok(_) => Err(Uncertified::OutOfAllowance),
            Err(e) => Err(Uncertified::Analysis(e.to_string())),
        }
    };
    Certificate { dmax, bounds }
}
