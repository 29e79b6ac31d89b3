//! The differential sim-vs-analysis oracle.
//!
//! The analysis and the simulator model the same system independently;
//! where their domains overlap they must agree, and every campaign job
//! can cheaply check that they do:
//!
//! > If every injected delta stays within the admitted equitable
//! > allowance `A`, then every *completed* job's observed response time
//! > is at most the bound of the system with all costs inflated by the
//! > largest injected delta.
//!
//! The bound and its applicability come from the shared
//! [`rtft_ft::resolver::certify`] recipe (see its module docs for why
//! the bound holds under every treatment): the Δmax-inflated WCRT under
//! the fixed-priority policies, the relative deadline under EDF, the
//! inflated Bertogna–Cirinei bound under global placement. The oracle
//! is **not applicable** when the platform charges scheduling overheads
//! and **not certifying** when `Δmax > A` (there the detectors, not the
//! bound, are the specified behaviour: see
//! `crates/sim/tests/differential_oracle.rs`).
//!
//! Global placement holds the contract one-sided: the global runner
//! only executes systems the sufficient test *proved*, so an observed
//! response above the bound is a hard analysis/sim disagreement, never
//! expected pessimism (pessimism shows up upstream, as jobs that refuse
//! to run at all).

use crate::spec::JobSpec;
use rtft_core::task::TaskId;
use rtft_core::time::Duration;
use rtft_ft::harness::ScenarioOutcome;
use rtft_ft::resolver::{certify, BoundsSession};
use rtft_trace::TraceStats;

/// Why a job was not checked against the certified bound — the
/// resolver's [`Uncertified`](rtft_ft::resolver::Uncertified) reason.
pub use rtft_ft::resolver::Uncertified as OracleSkip;

/// One observed response above the certified bound — an analysis/sim
/// disagreement, minimized to a replayable spec.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct OracleViolation {
    /// Job index in the expanded grid.
    pub job_index: usize,
    /// Offending task.
    pub task: TaskId,
    /// Offending job of that task.
    pub job: u64,
    /// Observed response time.
    pub observed: Duration,
    /// Certified WCRT bound at the inflation `Δmax`.
    pub bound: Duration,
    /// The inflation the bound was computed at.
    pub dmax: Duration,
    /// A standalone one-job campaign spec reproducing the violation.
    pub repro: String,
}

impl std::fmt::Display for OracleViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "grid job {}: {:?} job {} responded in {} > bound {} (Δmax = {})",
            self.job_index, self.task, self.job, self.observed, self.bound, self.dmax
        )
    }
}

/// Outcome of the oracle on one job.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum OracleOutcome {
    /// The oracle was not run (campaign had it off).
    NotRun,
    /// Checked clean: `checked` completed jobs all within the bound.
    Clean {
        /// Completed jobs compared against the bound.
        checked: usize,
    },
    /// Not checked, with the reason.
    Skipped(OracleSkip),
    /// Bound violations found.
    Violated(Vec<OracleViolation>),
}

impl OracleOutcome {
    /// `true` iff the job was actually compared against a bound.
    pub fn was_checked(&self) -> bool {
        matches!(
            self,
            OracleOutcome::Clean { .. } | OracleOutcome::Violated(_)
        )
    }

    /// The violations, when any.
    pub fn violations(&self) -> &[OracleViolation] {
        match self {
            OracleOutcome::Violated(v) => v,
            _ => &[],
        }
    }
}

/// Run the oracle on one executed job. `session` must be the analysis
/// session the job ran against — the uniprocessor `Analyzer` (a
/// partitioned core's, with `job` that core's slice) or the global
/// session; its caches are reused and restored.
pub fn check<S: BoundsSession + ?Sized>(
    job: &JobSpec,
    outcome: &ScenarioOutcome,
    session: &mut S,
) -> OracleOutcome {
    let cert = certify(
        session,
        &outcome.analysis.wcrt,
        &job.faults,
        &job.platform.overheads,
    );
    let bounds = match cert.bounds {
        Ok(bounds) => bounds,
        Err(skip) => return OracleOutcome::Skipped(skip),
    };
    let violations = collect_violations(job, &outcome.stats, &bounds, cert.dmax);
    if violations.is_empty() {
        let checked = outcome
            .stats
            .jobs()
            .filter(|j| j.response().is_some())
            .count();
        OracleOutcome::Clean { checked }
    } else {
        OracleOutcome::Violated(violations)
    }
}

/// [`check`] for a job that ran on the global engine; `session` must be
/// the global analysis session for the job's task set and core count.
pub fn check_global(
    job: &JobSpec,
    outcome: &ScenarioOutcome,
    session: &mut rtft_global::GlobalAnalyzer,
) -> OracleOutcome {
    check(job, outcome, session)
}

fn collect_violations(
    job: &JobSpec,
    stats: &TraceStats,
    bounds: &[Duration],
    dmax: Duration,
) -> Vec<OracleViolation> {
    let mut violations = Vec::new();
    for record in stats.jobs() {
        let Some(response) = record.response() else {
            continue;
        };
        let Some(rank) = job.set.rank_of(record.task) else {
            continue; // not a task of the set (defensive)
        };
        let bound = bounds[rank];
        if response > bound {
            violations.push(OracleViolation {
                job_index: job.index,
                task: record.task,
                job: record.job,
                observed: response,
                bound,
                dmax,
                repro: job.repro_spec(),
            });
        }
    }
    violations
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{parse_spec, JobSpec};
    use rtft_core::analyzer::Analyzer;
    use rtft_ft::harness::{run_scenario_buffered, HarnessError, Scenario};
    use rtft_sim::engine::SimBuffers;

    fn run(sc: &Scenario, session: &mut Analyzer) -> Result<ScenarioOutcome, HarnessError> {
        run_scenario_buffered(sc, session, &mut SimBuffers::new())
    }

    fn one_job(text: &str) -> JobSpec {
        parse_spec(text)
            .unwrap()
            .expand()
            .unwrap()
            .into_iter()
            .next()
            .unwrap()
    }

    #[test]
    fn paper_fault_free_run_is_clean() {
        let job = one_job("taskgen paper\nfaults none\ntreatment detect\nplatform exact\n");
        let mut session = Analyzer::new(&job.set);
        let outcome = run(&job.scenario(), &mut session).unwrap();
        let result = check(&job, &outcome, &mut session);
        assert!(
            matches!(result, OracleOutcome::Clean { checked } if checked > 0),
            "{result:?}"
        );
    }

    #[test]
    fn in_allowance_fault_is_certified_by_the_inflated_bound() {
        // Δ = 11 ms is exactly the paper system's equitable allowance.
        let job = one_job(
            "horizon 1300ms\ntaskgen paper\nfaults single task=1 job=5 overrun=11ms\n\
             treatment none\nplatform exact\n",
        );
        let mut session = Analyzer::new(&job.set);
        let outcome = run(&job.scenario(), &mut session).unwrap();
        let result = check(&job, &outcome, &mut session);
        assert!(result.was_checked(), "{result:?}");
        assert!(result.violations().is_empty(), "{result:?}");
    }

    #[test]
    fn out_of_allowance_fault_is_not_certified() {
        let job = one_job(
            "horizon 1300ms\ntaskgen paper\nfaults paper\ntreatment none\nplatform exact\n",
        );
        let mut session = Analyzer::new(&job.set);
        let outcome = run(&job.scenario(), &mut session).unwrap();
        // The paper's Δ = 40 ms > A = 11 ms.
        let result = check(&job, &outcome, &mut session);
        assert_eq!(result, OracleOutcome::Skipped(OracleSkip::OutOfAllowance));
    }

    #[test]
    fn charged_overheads_disable_the_oracle() {
        let job =
            one_job("taskgen paper\nfaults none\ntreatment detect\nplatform exact dispatch=1ms\n");
        let mut session = Analyzer::new(&job.set);
        let outcome = run(&job.scenario(), &mut session).unwrap();
        assert_eq!(
            check(&job, &outcome, &mut session),
            OracleOutcome::Skipped(OracleSkip::Overheads)
        );
    }

    #[test]
    fn session_costs_are_restored_after_a_check() {
        let job = one_job(
            "horizon 1300ms\ntaskgen paper\nfaults single task=1 job=5 overrun=5ms\n\
             treatment detect\nplatform exact\n",
        );
        let mut session = Analyzer::new(&job.set);
        let before = session.wcrt_all().unwrap();
        let outcome = run(&job.scenario(), &mut session).unwrap();
        let _ = check(&job, &outcome, &mut session);
        assert_eq!(session.wcrt_all().unwrap(), before);
    }
}
