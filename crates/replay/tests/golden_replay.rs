//! Replay of the pinned Figure 3–7 golden traces.
//!
//! The acceptance bar for the replay subsystem: each golden trace,
//! replayed against the paper job that produced it, reports **zero
//! divergences** and reproduces the original verdict byte-identically —
//! including Figures 3 and 4, whose out-of-allowance 40 ms injection
//! produces deadline misses that are *specified* behaviour, not
//! divergence. A tampered trace (detection events deleted) must
//! diverge, and its minimized repro must diverge at the same index.

use rtft_campaign::JobSpec;
use rtft_core::task::TaskId;
use rtft_ft::harness::run_scenario;
use rtft_replay::{job_from_campaign, minimize, replay, Certification, DivergenceKind};
use rtft_trace::{EventKind, TraceCapture, TraceLog};
use std::path::PathBuf;

/// The five paper-lineup jobs in figure order (fig3 = no detection …
/// fig7 = system allowance), exactly as `rtft campaign` expands them.
fn lineup_jobs() -> Vec<JobSpec> {
    let spec = rtft_campaign::parse_spec(
        "campaign figs\n\
         horizon 1300ms\n\
         taskgen paper\n\
         faults paper\n\
         treatment all\n\
         platform jrate\n",
    )
    .expect("lineup spec parses");
    let jobs = spec.expand().expect("lineup spec expands");
    assert_eq!(jobs.len(), 5, "one job per lineup treatment");
    jobs
}

fn golden_text(fig: &str) -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../ft/tests/golden")
        .join(format!("{fig}.trace"));
    std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden trace {} ({e})", path.display()))
}

#[test]
fn golden_figures_replay_clean_and_reproduce_verdicts() {
    let figures = ["fig3", "fig4", "fig5", "fig6", "fig7"];
    for (job, fig) in lineup_jobs().iter().zip(figures) {
        let capture = TraceCapture::parse_text(&golden_text(fig))
            .unwrap_or_else(|e| panic!("{fig}: golden trace must import: {e}"));
        assert!(capture.header.is_none(), "{fig}: goldens are legacy v1");
        let report = replay(&capture, job).unwrap_or_else(|e| panic!("{fig}: {e}"));
        assert!(
            report.is_clean(),
            "{fig}: golden trace diverged: {}",
            report.divergence.unwrap()
        );
        assert!(report.checked > 0, "{fig}: no completions were checked");
        // Byte-identical verdict reproduction against a fresh run.
        let outcome = run_scenario(&job.scenario()).expect("paper system runs");
        assert_eq!(
            report.verdict.to_string(),
            outcome.verdict.to_string(),
            "{fig}: replayed verdict drifted from the live run"
        );
        // The 40 ms injection exceeds the 11 ms equitable allowance, so
        // no figure's completions are certified — the misses of Figures
        // 3/4 are specified behaviour.
        assert!(
            !report.certification.is_certified(),
            "{fig}: out-of-allowance fault plan cannot certify"
        );
    }
}

#[test]
fn tampered_detection_trace_diverges_and_minimizes_to_the_same_index() {
    // Delete the three `fault` (detection) events from the detect-only
    // figure: the late completions are now unexplained, so the first
    // late end — τ1 job 5 at t = 1069 ms — must flag a missed
    // (unpoliced) detection line.
    let tampered: String = golden_text("fig4")
        .lines()
        .filter(|l| l.split_ascii_whitespace().nth(1) != Some("fault"))
        .map(|l| format!("{l}\n"))
        .collect();
    let capture = TraceCapture::parse_text(&tampered).expect("tampered trace still parses");
    let job = &lineup_jobs()[1]; // fig4 = detect-only
    let report = replay(&capture, job).expect("analysis succeeds");
    let d = report.divergence.expect("deleting detections must diverge");
    match d.kind {
        DivergenceKind::MissedThreshold {
            task,
            job: j,
            certified,
            ..
        } => {
            assert_eq!((task, j), (TaskId(1), 5), "first unexplained late end");
            assert!(!certified, "out-of-allowance plan has no certified bound");
        }
        other => panic!("expected a missed threshold, got {other}"),
    }

    // Minimization keeps the prefix up to the divergence and re-diverges
    // at the same event index when replayed from its own repro spec.
    let repro = minimize(&capture, job, &d);
    assert_eq!(repro.capture.len(), d.index + 1);
    let re_job = job_from_campaign(&repro.spec).expect("repro spec is one job");
    let re_report = replay(&repro.capture, &re_job).expect("repro analysis succeeds");
    let re_d = re_report.divergence.expect("minimized capture diverges");
    assert_eq!(re_d.index, d.index, "divergence index must be preserved");
    assert_eq!(re_d.kind, d.kind, "divergence kind must be preserved");
}

#[test]
fn fault_free_lineup_certifies_and_replays_clean() {
    // Without the injection the plan is trivially within allowance:
    // completions are held to the *certified* bounds and still pass.
    let spec = rtft_campaign::parse_spec(
        "campaign clean\n\
         horizon 1300ms\n\
         taskgen paper\n\
         faults none\n\
         treatment equitable\n\
         platform jrate\n",
    )
    .unwrap();
    let job = &spec.expand().unwrap()[0];
    let outcome = run_scenario(&job.scenario()).unwrap();
    let capture = TraceCapture::flat(0, "fp", "equitable", outcome.log.clone());
    let report = replay(&capture, job).unwrap();
    assert!(
        report.is_clean(),
        "diverged: {}",
        report.divergence.unwrap()
    );
    assert!(matches!(
        report.certification,
        Certification::Certified { .. }
    ));
    assert_eq!(report.verdict.to_string(), outcome.verdict.to_string());
}

#[test]
fn tampered_uunifast_trace_minimizes_to_the_same_index() {
    // Generated sets number tasks in generation order while their
    // priorities are deadline-monotonic, so ids and ranks disagree. The
    // repro spec must keep every id, or the minimized capture's task
    // ids point at other tasks' thresholds and re-diverge elsewhere.
    let job = job_from_campaign(
        "campaign generated\n\
         horizon 600ms\n\
         taskgen uunifast n=5 u=0.6 seeds=3..4 periods=20ms..150ms\n\
         faults single task=2 job=1 overrun=60ms\n\
         treatment detect\n\
         platform exact\n",
    )
    .expect("one generated job");
    let ids: Vec<TaskId> = job.set.tasks().iter().map(|t| t.id).collect();
    assert!(
        ids.iter()
            .enumerate()
            .any(|(rank, id)| *id != TaskId(rank as u32 + 1)),
        "the set must list ids out of priority order: {ids:?}"
    );

    // Delete the detections: the overrun's late completion is now
    // unexplained and must flag a missed detection line.
    let capture = rtft_campaign::capture_job(&job).expect("generated set runs");
    let log: TraceLog = capture
        .events()
        .into_iter()
        .map(|ce| ce.event)
        .filter(|e| !matches!(e.kind, EventKind::FaultDetected { .. }))
        .collect();
    assert!(log.len() < capture.len(), "the overrun must be detected");
    let header = capture.header.as_ref().expect("captures carry a header");
    let tampered = TraceCapture::flat(header.spec_hash, "fp", "detect", log);
    let d = replay(&tampered, &job)
        .expect("analysis succeeds")
        .divergence
        .expect("deleting detections must diverge");
    assert!(
        matches!(d.kind, DivergenceKind::MissedThreshold { .. }),
        "{d}"
    );

    let repro = minimize(&tampered, &job, &d);
    let re_job = job_from_campaign(&repro.spec).expect("repro spec is one job");
    let re_ids: Vec<TaskId> = re_job.set.tasks().iter().map(|t| t.id).collect();
    assert_eq!(re_ids, ids, "task ids must survive the repro round trip");
    let re_d = replay(&repro.capture, &re_job)
        .expect("repro analysis succeeds")
        .divergence
        .expect("minimized capture diverges");
    assert_eq!(re_d.index, d.index, "divergence index must be preserved");
    assert_eq!(re_d.kind, d.kind, "divergence kind must be preserved");
}
