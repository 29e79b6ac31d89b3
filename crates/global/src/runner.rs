//! The global scenario runner: task set × fault plan × treatment →
//! core-tagged trace, executed on the migrating engine.
//!
//! Admission, treatment thresholds and allowances come from the shared
//! `rtft_ft::resolver` recipe (this crate's [`GlobalAnalyzer`] is one of
//! its sessions), and the trace reduction is the uniprocessor
//! harness's; what stays here is the engine-specific part: the
//! [`GlobalSimulator`] (one shared wake queue, `m` core slots, free
//! migration) and its core-tagged projections.
//!
//! The admission gate is strict: a set the sufficient test cannot prove
//! maps to [`HarnessError::InfeasibleBase`] and never runs. That keeps
//! the differential-oracle contract crisp — every global job that
//! *does* run is analysis-feasible, so an observed deadline miss is a
//! hard oracle violation rather than expected noise.
//!
//! The global treatment mapping lives with the analyzer's
//! `BoundsSession` implementation.

use rtft_ft::harness::{HarnessError, Scenario, ScenarioOutcome};
use rtft_ft::prelude::FtSupervisor;
use rtft_ft::resolver::prescribe;
use rtft_sim::engine::SimBuffers;
use rtft_sim::global::GlobalSimulator;
use rtft_sim::sink::TraceSink;
use rtft_sim::supervisor::{NullSupervisor, Supervisor};
use rtft_trace::merge::merged_content_hash;
use rtft_trace::TraceLog;

use crate::analyzer::GlobalAnalyzer;

/// Everything a global run produced: the merged scenario outcome plus
/// the multiprocessor-specific extras.
#[derive(Debug)]
pub struct GlobalOutcome {
    /// The merged, core-tagged outcome (trace, stats, verdicts and the
    /// analysis numbers that parameterized the run).
    pub outcome: ScenarioOutcome,
    /// Core count the scenario ran on.
    pub cores: usize,
    /// Order-insensitive hash over the per-core projections of the
    /// trace — comparable across worker counts and with a partitioned
    /// run's merged hash ([`GlobalSimulator::merged_hash`]).
    pub merged_hash: u64,
    /// The per-core projections themselves, ascending core index, with
    /// one extra trailing log (index `cores`) holding the platform-level
    /// events (releases, deadline checks, `SimEnd`). Folding these with
    /// [`rtft_trace::merge::merged_content_hash`] reproduces
    /// `merged_hash`; trace exporters persist them core-tagged.
    pub core_logs: Vec<(usize, TraceLog)>,
}

/// Run a scenario on the session's migrating cores against a
/// caller-held [`GlobalAnalyzer`] session — the memoized bounds and
/// allowances are then shared across scenarios, exactly as the
/// uniprocessor harness shares its `Analyzer` — reusing caller-held
/// simulation storage (see `rtft_ft::harness::run_scenario_buffered`
/// for the recycling contract — it is identical here).
///
/// # Errors
/// [`HarnessError::InfeasibleBase`] when the sufficient test cannot
/// prove the base system, or the treatment's allowance is unproven.
///
/// # Panics
/// Panics if `session` analyses a different task set, or was built for
/// a different scheduling policy, than the scenario.
pub fn run_global_buffered(
    sc: &Scenario,
    session: &mut GlobalAnalyzer,
    bufs: &mut SimBuffers,
) -> Result<GlobalOutcome, HarnessError> {
    run_global_streamed(sc, session, bufs, None)
}

/// [`run_global_buffered`], additionally feeding every recorded event to
/// `sink`, when one is given, as the simulation produces it: execution
/// events arrive tagged with their executing core, platform-level events
/// (releases, detector fires, `SimEnd`) with `None` — the same
/// attribution
/// [`GlobalSimulator::core_of`](rtft_sim::global::GlobalSimulator)
/// persists in the core-tagged trace. The outcome is byte-identical to
/// the unsunk run.
///
/// # Errors
/// As [`run_global_buffered`].
///
/// # Panics
/// As [`run_global_buffered`].
pub fn run_global_streamed(
    sc: &Scenario,
    session: &mut GlobalAnalyzer,
    bufs: &mut SimBuffers,
    sink: Option<&mut dyn TraceSink>,
) -> Result<GlobalOutcome, HarnessError> {
    assert_eq!(
        session.task_set(),
        &sc.set,
        "run_global: session and scenario disagree on the task set"
    );
    assert_eq!(
        session.sched_policy(),
        sc.policy,
        "run_global: session and scenario disagree on the policy"
    );
    let cores = session.cores();
    let analysis = prescribe(session, sc.treatment)?;
    let mut sim = GlobalSimulator::new_in(sc.set.clone(), cores, sc.sim_config(), bufs)
        .with_faults(sc.faults.clone());
    let mut detectors = FtSupervisor::for_run(sc.treatment, &analysis);
    if let Some(sup) = &detectors {
        for (first, period, tag) in sup.detector_specs(&sc.set) {
            sim.add_periodic_timer(first, period, tag);
        }
    }
    let mut null = NullSupervisor;
    let sup: &mut dyn Supervisor = match detectors.as_mut() {
        Some(sup) => sup,
        None => &mut null,
    };
    match sink {
        Some(s) => sim.run_streamed(sup, s),
        None => sim.run(sup),
    };
    // One per-core projection serves both the merged hash and the
    // core-tagged captures.
    let core_logs = sim.core_logs();
    let refs: Vec<(usize, &TraceLog)> = core_logs.iter().map(|(c, l)| (*c, l)).collect();
    let merged_hash = merged_content_hash(&refs);
    Ok(GlobalOutcome {
        outcome: ScenarioOutcome::reduce(sc, sim.finish(bufs), analysis),
        cores,
        merged_hash,
        core_logs,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtft_core::task::{TaskBuilder, TaskId, TaskSet};
    use rtft_core::time::{Duration, Instant};
    use rtft_ft::treatment::Treatment;
    use rtft_sim::fault::FaultPlan;
    use rtft_sim::stop::StopMode;
    use rtft_trace::event::EventKind;

    fn ms(v: i64) -> Duration {
        Duration::millis(v)
    }

    /// The paper's lineup with costs halved to 14 ms — provable by the
    /// sufficient bound at m = 2 (the full 29 ms costs are not).
    fn provable_set() -> TaskSet {
        TaskSet::from_specs(vec![
            TaskBuilder::new(1, 20, ms(200), ms(14))
                .deadline(ms(70))
                .build(),
            TaskBuilder::new(2, 18, ms(250), ms(14))
                .deadline(ms(120))
                .build(),
            TaskBuilder::new(3, 16, ms(1500), ms(14))
                .deadline(ms(120))
                .build(),
        ])
    }

    fn run_on(sc: &Scenario, cores: usize) -> Result<GlobalOutcome, HarnessError> {
        let mut session = GlobalAnalyzer::new(sc.set.clone(), cores, sc.policy);
        run_global_buffered(sc, &mut session, &mut SimBuffers::new())
    }

    fn scenario(treatment: Treatment) -> Scenario {
        Scenario::new(
            "global",
            provable_set(),
            FaultPlan::none().overrun(TaskId(1), 3, ms(30)),
            treatment,
            Instant::from_millis(2000),
        )
    }

    #[test]
    fn unproven_base_is_rejected_before_running() {
        let set = TaskSet::from_specs(vec![
            TaskBuilder::new(1, 20, ms(100), ms(90)).build(),
            TaskBuilder::new(2, 18, ms(100), ms(90)).build(),
            TaskBuilder::new(3, 16, ms(100), ms(90)).build(),
        ]);
        let sc = Scenario::new(
            "overloaded",
            set,
            FaultPlan::none(),
            Treatment::DetectOnly,
            Instant::from_millis(1000),
        );
        assert_eq!(run_on(&sc, 2).unwrap_err(), HarnessError::InfeasibleBase);
    }

    #[test]
    fn detect_only_runs_and_reports_the_injected_task() {
        let out = run_on(&scenario(Treatment::DetectOnly), 2).unwrap();
        assert_eq!(out.cores, 2);
        assert_eq!(out.outcome.injected_faulty, vec![TaskId(1)]);
        assert!(out
            .outcome
            .log
            .events()
            .iter()
            .any(|e| matches!(e.kind, EventKind::DetectorRelease { .. })));
        // The analysis numbers that parameterized the run are echoed.
        assert_eq!(out.outcome.analysis.thresholds, out.outcome.analysis.wcrt);
    }

    #[test]
    fn equitable_inflates_thresholds_above_baseline() {
        let out = run_on(
            &scenario(Treatment::EquitableAllowance {
                mode: StopMode::Permanent,
            }),
            2,
        )
        .unwrap();
        let eq = out.outcome.analysis.equitable.expect("provable slack");
        assert!(eq.is_positive());
        for (t, w) in out
            .outcome
            .analysis
            .thresholds
            .iter()
            .zip(&out.outcome.analysis.wcrt)
        {
            assert!(t >= w, "inflated threshold must dominate the baseline");
        }
    }

    #[test]
    fn system_allowance_ignores_slack_policy() {
        use rtft_core::allowance::SlackPolicy;
        let a = run_on(
            &scenario(Treatment::SystemAllowance {
                mode: StopMode::Permanent,
                policy: SlackPolicy::ProtectAll,
            }),
            2,
        )
        .unwrap();
        let b = run_on(
            &scenario(Treatment::SystemAllowance {
                mode: StopMode::Permanent,
                policy: SlackPolicy::ProtectOthers,
            }),
            2,
        )
        .unwrap();
        assert_eq!(
            a.outcome.analysis.system_allowance,
            b.outcome.analysis.system_allowance
        );
        assert_eq!(a.merged_hash, b.merged_hash);
    }

    #[test]
    fn merged_hash_matches_a_replayed_run() {
        let sc = scenario(Treatment::ImmediateStop {
            mode: StopMode::Permanent,
        });
        let a = run_on(&sc, 2).unwrap();
        let b = run_on(&sc, 2).unwrap();
        assert_eq!(a.merged_hash, b.merged_hash);
        assert_eq!(a.outcome.log.events(), b.outcome.log.events());
    }
}
