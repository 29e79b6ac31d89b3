//! Determinism regression: the same spec + seeds must produce a
//! bit-identical report — same digest, same per-job trace hashes —
//! regardless of worker count or chunking.

use rtft_campaign::prelude::*;
use rtft_sim::engine::SimBuffers;

const SPEC: &str = "\
campaign determinism
horizon 800ms
oracle on
taskgen uunifast n=4 u=0.6 seeds=0..6 periods=20ms..150ms
taskgen paper
faults none
faults random p=0.05 mag=1ms..5ms jobs=24 seeds=0..2
treatment all
platform exact
platform jrate poll=1ms
";

fn run_with(workers: usize, chunk: Option<usize>) -> CampaignReport {
    let spec = parse_spec(SPEC).unwrap();
    let cfg = RunConfig {
        workers,
        oracle: None,
        chunk,
    };
    run_campaign(&spec, &cfg).unwrap()
}

#[test]
fn report_is_bit_identical_across_worker_counts() {
    let baseline = run_with(1, None);
    assert_eq!(baseline.jobs.len(), 7 * 3 * 5 * 2);
    let baseline_hashes: Vec<u64> = baseline.jobs.iter().map(|d| d.trace_hash).collect();

    for (workers, chunk) in [
        (2, None),
        (4, None),
        (2, Some(1)),
        (4, Some(3)),
        (8, Some(7)),
    ] {
        let report = run_with(workers, chunk);
        assert_eq!(
            report.digest(),
            baseline.digest(),
            "digest drift at workers={workers} chunk={chunk:?}"
        );
        let hashes: Vec<u64> = report.jobs.iter().map(|d| d.trace_hash).collect();
        assert_eq!(
            hashes, baseline_hashes,
            "per-job trace hashes drift at workers={workers} chunk={chunk:?}"
        );
        // Aggregates follow from the digests, but check the headline
        // numbers explicitly — they are what reports get compared by.
        assert_eq!(report.ran, baseline.ran);
        assert_eq!(report.by_treatment, baseline.by_treatment);
        assert_eq!(report.detector_latency, baseline.detector_latency);
        assert_eq!(report.oracle_checked, baseline.oracle_checked);
        assert_eq!(report.violations, baseline.violations);
    }
}

/// The acceptance grid of the policy axis: all three dispatch rules,
/// oracle on, faults inside the paper system's allowance.
const POLICY_SPEC: &str = "\
campaign policy-axis
horizon 1300ms
oracle on
taskgen paper
taskgen uunifast n=4 u=0.6 seeds=0..3 periods=20ms..150ms
policy fp edf npfp
faults none
faults single task=1 job=0 overrun=2ms,5ms
treatment all
platform exact
platform jrate
";

#[test]
fn policy_axis_grid_is_deterministic_and_oracle_clean() {
    let spec = parse_spec(POLICY_SPEC).unwrap();
    let baseline = run_campaign(&spec, &RunConfig::sequential()).unwrap();
    // 4 sets × 3 policies × 3 fault instances × 5 treatments × 2 platforms.
    assert_eq!(baseline.jobs.len(), 4 * 3 * 3 * 5 * 2);
    assert_eq!(spec.job_count(), baseline.jobs.len());
    assert!(
        baseline.oracle_clean(),
        "policy grid must run clean through the differential oracle:\n{}",
        baseline.render()
    );
    assert!(baseline.oracle_checked > 0);
    // Every policy genuinely ran.
    for policy in ["fp", "edf", "npfp"] {
        assert!(
            baseline
                .jobs
                .iter()
                .any(|d| d.policy == policy && d.status == JobStatus::Ran),
            "{policy} jobs missing"
        );
    }
    // Bit-identical digest at 1 and 4 workers (the acceptance check).
    let four = run_campaign(&spec, &RunConfig::sequential().with_workers(4)).unwrap();
    assert_eq!(baseline.digest(), four.digest());
    let hashes = |r: &CampaignReport| r.jobs.iter().map(|d| d.trace_hash).collect::<Vec<_>>();
    assert_eq!(hashes(&baseline), hashes(&four));
}

#[test]
fn policies_differentiate_the_traces() {
    // The same (set, fault, treatment, platform) cell under different
    // policies must not silently collapse into one schedule everywhere:
    // across the grid at least one cell separates fp, edf and npfp.
    let spec = parse_spec(POLICY_SPEC).unwrap();
    let report = run_campaign(&spec, &RunConfig::sequential()).unwrap();
    let cell_of = |d: &JobDigest| {
        (
            d.set_label.clone(),
            d.fault_label.clone(),
            d.treatment,
            d.platform.clone(),
        )
    };
    let mut separated = 0;
    for d in &report.jobs {
        if d.policy != "fp" || d.status != JobStatus::Ran {
            continue;
        }
        let mates: Vec<&JobDigest> = report
            .jobs
            .iter()
            .filter(|o| o.policy != "fp" && cell_of(o) == cell_of(d))
            .collect();
        if mates
            .iter()
            .any(|o| o.status == JobStatus::Ran && o.trace_hash != d.trace_hash)
        {
            separated += 1;
        }
    }
    assert!(separated > 0, "the policy axis changed no schedule at all");
}

/// The multicore acceptance grid: cores {1, 2, 4} × the three
/// allocators × the three policies, oracle on. The uunifast sets (U =
/// 0.6) fit every core count; the paper system rides along.
const MULTICORE_SPEC: &str = "\
campaign multicore-axis
horizon 1300ms
oracle on
taskgen paper
taskgen uunifast n=4 u=0.6 seeds=0..2 periods=20ms..150ms
policy all
cores 1 2 4
alloc all
faults none
faults single task=1 job=0 overrun=2ms
treatment detect
treatment equitable
platform exact
";

#[test]
fn multicore_grid_is_deterministic_and_oracle_clean() {
    let spec = parse_spec(MULTICORE_SPEC).unwrap();
    let baseline = run_campaign(&spec, &RunConfig::sequential()).unwrap();
    // 3 sets × 3 policies × 3 core counts × 3 allocators × 2 faults × 2
    // treatments × 1 platform.
    assert_eq!(baseline.jobs.len(), 3 * 3 * 3 * 3 * 2 * 2);
    assert_eq!(spec.job_count(), baseline.jobs.len());
    assert!(
        baseline.oracle_clean(),
        "multicore grid must run clean through the differential oracle:\n{}",
        baseline.render()
    );
    assert!(baseline.oracle_checked > 0);
    assert_eq!(baseline.unplaceable, 0, "every set fits every core count");
    // Every (cores, alloc) cell genuinely ran.
    for cores in [1usize, 2, 4] {
        for alloc in ["ffd", "bfd", "wfd"] {
            assert!(
                baseline
                    .jobs
                    .iter()
                    .any(|d| d.cores == cores && d.alloc == alloc && d.status == JobStatus::Ran),
                "no ran job at cores={cores} alloc={alloc}"
            );
        }
    }
    // The acceptance check: bit-identical digests at 1 and 4 workers.
    let four = run_campaign(&spec, &RunConfig::sequential().with_workers(4)).unwrap();
    assert_eq!(baseline.digest(), four.digest());
    let hashes = |r: &CampaignReport| r.jobs.iter().map(|d| d.trace_hash).collect::<Vec<_>>();
    assert_eq!(hashes(&baseline), hashes(&four));
}

#[test]
fn one_core_jobs_match_the_grid_without_multicore_axes() {
    // Dropping the cores/alloc lines must not change what cores=1 jobs
    // execute: their trace hashes are bit-identical, multicore axes or
    // not (the golden-trace guarantee lifted to the campaign layer).
    let with = parse_spec(MULTICORE_SPEC).unwrap();
    let without = parse_spec(
        &MULTICORE_SPEC
            .lines()
            .filter(|l| !l.starts_with("cores") && !l.starts_with("alloc"))
            .collect::<Vec<_>>()
            .join("\n"),
    )
    .unwrap();
    let a = run_campaign(&with, &RunConfig::sequential()).unwrap();
    let b = run_campaign(&without, &RunConfig::sequential()).unwrap();
    let uni_ffd: Vec<u64> = a
        .jobs
        .iter()
        .filter(|d| d.cores == 1 && d.alloc == "ffd")
        .map(|d| d.trace_hash)
        .collect();
    let plain: Vec<u64> = b.jobs.iter().map(|d| d.trace_hash).collect();
    assert_eq!(uni_ffd, plain);
}

#[test]
fn tiny_grids_clamp_workers_without_digest_drift() {
    // One-job grid, absurd worker request: the engine clamps to the job
    // count (no idle threads spawned) and the digest is unaffected.
    let spec = parse_spec("horizon 500ms\ntaskgen paper\ntreatment detect\n").unwrap();
    let one = run_campaign(&spec, &RunConfig::sequential()).unwrap();
    let many = run_campaign(&spec, &RunConfig::sequential().with_workers(64)).unwrap();
    assert_eq!(many.workers, 1, "workers must clamp to the job count");
    assert_eq!(one.digest(), many.digest());
    assert_eq!(one.jobs, many.jobs);
}

#[test]
fn repeated_runs_are_identical() {
    let a = run_with(4, None);
    let b = run_with(4, None);
    assert_eq!(a.digest(), b.digest());
    assert_eq!(a.jobs, b.jobs);
}

#[test]
fn oracle_switch_changes_outcomes_not_traces() {
    let spec = parse_spec(SPEC).unwrap();
    let with = run_campaign(&spec, &RunConfig::sequential().with_oracle(true)).unwrap();
    let without = run_campaign(&spec, &RunConfig::sequential().with_oracle(false)).unwrap();
    assert_eq!(without.oracle_checked, 0);
    assert!(without
        .jobs
        .iter()
        .all(|d| d.oracle == OracleOutcome::NotRun));
    let w_hashes: Vec<u64> = with.jobs.iter().map(|d| d.trace_hash).collect();
    let wo_hashes: Vec<u64> = without.jobs.iter().map(|d| d.trace_hash).collect();
    assert_eq!(w_hashes, wo_hashes, "the oracle must not perturb the runs");
}

/// A grid mixing uniprocessor and partitioned placements for the
/// query-plane cross-check.
const QUERY_CROSS_SPEC: &str = "\
campaign query-cross-check
horizon 800ms
oracle on
taskgen paper
taskgen uunifast n=4 u=0.6 seeds=0..2 periods=20ms..150ms
cores 1 2
alloc ffd wfd
faults paper
treatment detect
treatment system
platform exact
";

/// Every campaign job lowered to the query plane — a `SystemSpec` fed
/// to a fresh `Workbench` — must reduce to the byte-identical digest
/// the engine path produced, and the engine itself must stay
/// digest-identical between 1 and 4 workers while running on the same
/// lowered workbenches.
#[test]
fn jobs_lowered_to_queries_match_engine_digests_at_1_and_4_workers() {
    let spec = parse_spec(QUERY_CROSS_SPEC).unwrap();
    let one = run_campaign(&spec, &RunConfig::sequential()).unwrap();
    let four = run_campaign(&spec, &RunConfig::sequential().with_workers(4)).unwrap();
    assert_eq!(one.digest(), four.digest());
    assert_eq!(one.jobs, four.jobs);

    let jobs = spec.expand().unwrap();
    assert_eq!(jobs.len(), one.jobs.len());
    for (job, engine_digest) in jobs.iter().zip(&one.jobs) {
        // A cold workbench per job: no session sharing with neighbours,
        // so equality proves the memoized engine path changes nothing.
        let mut bench = Workbench::new(job.system_spec());
        let lowered =
            rtft_campaign::digest_job_buffered(job, true, &mut bench, &mut SimBuffers::new());
        assert_eq!(&lowered, engine_digest, "job {}", job.index);
    }
}
