//! Characterization of the threshold/certification recipe.
//!
//! Three consumers answer the same analysis questions about one job:
//! the runners (the detector thresholds a run is parameterized with),
//! the campaign's differential oracle (whether completions are held to
//! a Δmax-certified bound, and why not) and replay's
//! [`resolve_bounds`]. This test pins that they agree, job by job, over
//! a grid spanning every placement (uniprocessor, partitioned on two
//! cores, global on two cores), every policy, all five treatments, a
//! fault-free / in-allowance / out-of-allowance fault axis and exact,
//! jRate and overhead-charging platforms.

use rtft_campaign::oracle::{OracleOutcome, OracleSkip};
use rtft_campaign::report::JobStatus;
use rtft_campaign::{parse_spec, run_campaign, JobSpec, RunConfig};
use rtft_core::query::Placement;
use rtft_core::task::{TaskId, TaskSet};
use rtft_core::time::Duration;
use rtft_part::workbench::Workbench;
use rtft_replay::{resolve_bounds, Certification};
use rtft_sim::engine::SimBuffers;
use std::collections::BTreeMap;

/// The paper's periods and deadlines with halved costs: provable by the
/// global sufficient test on two cores, spread over both cores by
/// worst-fit, and roomy enough that a 3 ms overrun is in allowance
/// under every policy while a 60 ms one is out of it.
const LIGHT: &str = "\
campaign characterize-light
horizon 1300ms
oracle on
task tau1 20 200ms 70ms 14ms
task tau2 18 250ms 120ms 14ms
task tau3 16 1500ms 120ms 14ms 1000ms
policy fp npfp edf
cores 1 2
placement all
alloc wfd
faults none
faults single task=1 job=5 overrun=3ms,60ms
treatment all
platform exact
platform jrate
platform exact dispatch=1ms
";

/// Generated sets whose task ids follow generation order while their
/// priorities are deadline-monotonic, so ids and ranks disagree. (EDF
/// is covered by the light set: its allowance search on generated
/// periods costs seconds per job in an unoptimized build.)
const GENERATED: &str = "\
campaign characterize-generated
horizon 600ms
oracle on
taskgen uunifast n=4 u=0.45 seeds=0..2 periods=20ms..150ms
policy fp npfp
cores 1 2
placement all
alloc wfd
faults none
faults single task=2 job=1 overrun=1ms,40ms
treatment all
platform exact
platform jrate
platform exact dispatch=1ms
";

/// The detector threshold each task of `job` ran with, keyed by task id
/// (`None` when the treatment configures no detection).
fn harness_thresholds(job: &JobSpec) -> BTreeMap<TaskId, Option<Duration>> {
    fn rows(set: &TaskSet, thresholds: &[Duration], out: &mut BTreeMap<TaskId, Option<Duration>>) {
        for rank in 0..set.len() {
            out.insert(set.by_rank(rank).id, thresholds.get(rank).copied());
        }
    }
    let mut bench = Workbench::new(job.system_spec());
    let mut bufs = SimBuffers::new();
    let sc = job.scenario();
    let mut out = BTreeMap::new();
    if let Some(analyzer) = bench.uni_session_mut() {
        let outcome = rtft_ft::harness::run_scenario_buffered(&sc, analyzer, &mut bufs)
            .expect("a job that ran reruns");
        rows(&job.set, &outcome.analysis.thresholds, &mut out);
    } else if let Some(session) = bench.global_mut() {
        let global = rtft_global::run_global_buffered(&sc, session, &mut bufs)
            .expect("a job that ran reruns");
        rows(&job.set, &global.outcome.analysis.thresholds, &mut out);
    } else {
        let sessions = bench.partitioned_mut().expect("partitioned backend");
        let multi = rtft_part::multicore::run_partitioned_buffered(&sc, sessions, &mut bufs)
            .expect("a job that ran reruns");
        for run in &multi.cores {
            let subset = sessions.partition().core_set(run.core).expect("occupied");
            rows(subset, &run.outcome.analysis.thresholds, &mut out);
        }
    }
    out
}

/// Does replay's certification say what the oracle did?
fn agrees(cert: &Certification, oracle: &OracleOutcome) -> bool {
    match (cert, oracle) {
        (Certification::Certified { .. }, o) => o.was_checked(),
        (Certification::Overheads, OracleOutcome::Skipped(OracleSkip::Overheads)) => true,
        (
            Certification::Uncertified { reason, .. },
            OracleOutcome::Skipped(OracleSkip::OutOfAllowance),
        ) => reason == "fault plan exceeds the admitted allowance",
        (
            Certification::Uncertified { reason, .. },
            OracleOutcome::Skipped(OracleSkip::Analysis(m)),
        ) => reason == m,
        _ => false,
    }
}

#[test]
fn resolver_runner_and_oracle_agree_on_every_job() {
    // (placement kind, certified) tallies, so the grid
    // provably exercises every branch it claims to.
    let mut seen: BTreeMap<(&str, bool), usize> = BTreeMap::new();
    for text in [LIGHT, GENERATED] {
        let spec = parse_spec(text).expect("grid parses");
        let jobs = spec.expand().expect("grid expands");
        let report = run_campaign(&spec, &RunConfig::sequential()).expect("grid runs");
        for (job, digest) in jobs.iter().zip(&report.jobs) {
            if digest.status != JobStatus::Ran {
                continue;
            }
            let label = format!(
                "job {} ({} {} cores={} {:?} {} {} {})",
                job.index,
                job.set_label,
                job.policy.label(),
                job.cores,
                job.placement,
                job.fault_label,
                job.treatment.name(),
                job.platform.label()
            );
            let bounds = resolve_bounds(job).unwrap_or_else(|e| panic!("{label}: {e}"));
            for (task, threshold) in harness_thresholds(job) {
                let resolved = bounds
                    .of(task)
                    .unwrap_or_else(|| panic!("{label}: {task:?}"));
                assert_eq!(
                    resolved.threshold, threshold,
                    "{label}: {task:?} threshold differs between resolver and runner"
                );
            }
            assert!(
                agrees(&bounds.certification, &digest.oracle),
                "{label}: resolver says {} but the oracle says {:?}",
                bounds.certification,
                digest.oracle
            );
            let kind = match (job.cores, job.placement) {
                (1, _) => "uni",
                (_, Placement::Global) => "global",
                _ => "partitioned",
            };
            *seen
                .entry((kind, bounds.certification.is_certified()))
                .or_default() += 1;
        }
    }
    for kind in ["uni", "partitioned", "global"] {
        for certified in [true, false] {
            assert!(
                seen.get(&(kind, certified)).copied().unwrap_or(0) > 0,
                "the grid never produced a {kind} job with certified = {certified}: {seen:?}"
            );
        }
    }
}
