//! `capture_replay`: capture a one-job run, render and re-import the
//! trace, and replay it against the analysis, closed loop, one caller.
//! A seeded share of captures is tampered with and must diverge.

use crate::common::{self, Outcome, Rng, Tracer};
use rtft_campaign::{capture_job, JobSpec};
use rtft_core::query::{Query, Response};
use rtft_part::workbench::Workbench;
use rtft_replay::{job_from_campaign, minimize, replay, replay_with, resolve_bounds};
use rtft_trace::TraceCapture;
use std::time::Instant;

const GOLDEN: [(&str, &str); 5] = [
    (
        "fig3",
        include_str!("../../crates/ft/tests/golden/fig3.trace"),
    ),
    (
        "fig4",
        include_str!("../../crates/ft/tests/golden/fig4.trace"),
    ),
    (
        "fig5",
        include_str!("../../crates/ft/tests/golden/fig5.trace"),
    ),
    (
        "fig6",
        include_str!("../../crates/ft/tests/golden/fig6.trace"),
    ),
    (
        "fig7",
        include_str!("../../crates/ft/tests/golden/fig7.trace"),
    ),
];

/// Jobs in the pool; the loop cycles through it.
const POOL: usize = 48;
/// One capture in `TAMPER_EVERY` is tampered with.
const TAMPER_EVERY: usize = 8;

/// One pool entry: the one-job spec text and its parsed job.
pub struct Entry {
    pub text: String,
    pub job: JobSpec,
}

/// A seeded one-job spec: a UUniFast set on one core, partitioned over
/// two or four, or global over two or four, with random overruns, one
/// treatment and one platform. Only sets the analysis admits are kept —
/// an infeasible base system has no run to capture.
fn candidate(seed: u64, k: usize, rng: &mut Rng) -> String {
    let placement = ["uni", "partitioned", "global"][k % 3];
    let policy = ["fp", "edf", "npfp"][rng.range(0, 2) as usize];
    let cores = if placement == "uni" {
        1
    } else {
        [2, 4][rng.range(0, 1) as usize]
    };
    let n = rng.range(4, 10) * cores;
    let u = if placement == "uni" {
        0.6
    } else {
        0.45 * cores as f64
    };
    let set_seed = rng.next_u64() % 1_000_000;
    let fault_seed = rng.next_u64() % 1_000_000;
    let treatment = ["none", "detect", "stop", "equitable", "system"][rng.range(0, 4) as usize];
    let platform = ["exact", "jrate"][rng.range(0, 1) as usize];
    let placement_line = if placement == "global" {
        "placement global\n"
    } else {
        ""
    };
    format!(
        "campaign cr-{seed}-{k}\n\
             horizon 1s\n\
             taskgen uunifast n={n} u={u} cap=0.8 seeds={set_seed}..{} periods=10ms..200ms\n\
             policy {policy}\n\
             cores {cores}\n\
             {placement_line}\
             faults random p=0.05 mag=1ms..5ms jobs=40 seeds={fault_seed}..{}\n\
             treatment {treatment}\n\
             platform {platform}\n",
        set_seed + 1,
        fault_seed + 1
    )
}

pub fn generate(seed: u64) -> Vec<Entry> {
    let mut rng = Rng::new(seed, 0xc4);
    let mut out = Vec::with_capacity(POOL);
    let mut k = 0;
    while out.len() < POOL {
        let text = candidate(seed, k, &mut rng);
        k += 1;
        let Ok(job) = job_from_campaign(&text) else {
            continue;
        };
        let feasible = Workbench::new(job.system_spec())
            .run(&Query::Feasibility)
            .is_ok_and(|r| matches!(r, Response::Feasibility { feasible: true, .. }));
        if feasible {
            out.push(Entry { text, job });
        }
    }
    out
}

/// Duplicate one seeded `end` event line: a second completion of a job
/// the trace already completed, which replay must flag.
fn tamper(text: &str, pick: u64) -> Option<String> {
    let lines: Vec<&str> = text.lines().collect();
    let ends: Vec<usize> = lines
        .iter()
        .enumerate()
        .filter(|(_, l)| !l.starts_with('#') && l.split_ascii_whitespace().any(|w| w == "end"))
        .map(|(i, _)| i)
        .collect();
    let at = *ends.get(pick as usize % ends.len().max(1))?;
    let mut out = String::with_capacity(text.len() + 64);
    for (i, l) in lines.iter().enumerate() {
        out.push_str(l);
        out.push('\n');
        if i == at {
            out.push_str(l);
            out.push('\n');
        }
    }
    Some(out)
}

/// What one cycle found.
#[derive(Debug, PartialEq)]
enum Verdict {
    Clean,
    /// Tampered capture diverged at `index` and its minimized repro
    /// re-diverged at the same index.
    Diverged,
}

fn cycle(
    entry: &Entry,
    tamper_pick: Option<u64>,
    id: u64,
    t: &mut Tracer,
) -> Result<(Verdict, usize), String> {
    t.span("capture_replay", id, |t| {
        let capture = t.span("trace.capture", id, |_| capture_job(&entry.job))?;
        let mut text = t.span("trace.render", id, |_| capture.render_text());
        if let Some(pick) = tamper_pick {
            text = tamper(&text, pick).ok_or("capture has no completion to tamper with")?;
        }
        let parsed = t
            .span("trace.parse", id, |_| TraceCapture::parse_text(&text))
            .map_err(|e| format!("parse: {e}"))?;
        let events = parsed.len();
        t.count("trace.events", events as f64);
        if tamper_pick.is_none() && parsed.hash_matches() != Some(true) {
            return Err("content hash does not match".into());
        }
        let bounds = t
            .span("replay.bounds", id, |_| resolve_bounds(&entry.job))
            .map_err(|e| e.to_string())?;
        let report = t.span("replay.step", id, |_| {
            replay_with(&parsed, &entry.job, &bounds)
        });
        match (tamper_pick, report.divergence) {
            (None, None) => Ok((Verdict::Clean, events)),
            (None, Some(d)) => Err(format!("clean capture diverged: {d}")),
            (Some(_), None) => Err("tampered capture replayed clean".into()),
            (Some(_), Some(d)) => {
                t.count("replay.divergences", 1.0);
                let repro = t.span("replay.minimize", id, |_| minimize(&parsed, &entry.job, &d));
                let re_job = job_from_campaign(&repro.spec).map_err(|e| e.to_string())?;
                let again = replay(&repro.capture, &re_job).map_err(|e| e.to_string())?;
                match again.divergence {
                    Some(r) if r.index == d.index => Ok((Verdict::Diverged, events)),
                    other => Err(format!(
                        "minimized repro diverged at {}, original at {d}",
                        other.map_or("no event".to_string(), |r| r.to_string())
                    )),
                }
            }
        }
    })
}

pub struct Run {
    pub latencies_ms: Vec<f64>,
    pub elapsed_s: f64,
    pub failed: u64,
    pub tampered: u64,
    pub events: u64,
    pub errors: Vec<String>,
}

/// Cycle `i` uses pool entry `i % POOL`; every `TAMPER_EVERY`-th cycle
/// (offset by the seed) tampers at a seeded event.
pub fn measure(pool: &[Entry], seed: u64, seconds: f64, t: &mut Tracer) -> Run {
    let mut run = Run {
        latencies_ms: Vec::new(),
        elapsed_s: 0.0,
        failed: 0,
        tampered: 0,
        events: 0,
        errors: Vec::new(),
    };
    let mut rng = Rng::new(seed, 0x7a);
    let offset = (seed as usize) % TAMPER_EVERY;
    let start = Instant::now();
    let mut i = 0usize;
    while start.elapsed().as_secs_f64() < seconds {
        let pick = (i + offset)
            .is_multiple_of(TAMPER_EVERY)
            .then(|| rng.next_u64());
        let t0 = Instant::now();
        let result = cycle(&pool[i % pool.len()], pick, i as u64, t);
        run.latencies_ms.push(common::ms(t0.elapsed()));
        match result {
            Ok((verdict, events)) => {
                run.events += events as u64;
                if verdict == Verdict::Diverged {
                    run.tampered += 1;
                }
            }
            Err(e) => {
                run.failed += 1;
                if run.errors.len() < 5 {
                    run.errors.push(format!(
                        "cycle {i} ({}): {e}",
                        pool[i % pool.len()].text.lines().next().unwrap_or("")
                    ));
                }
            }
        }
        i += 1;
    }
    run.elapsed_s = start.elapsed().as_secs_f64();
    run
}

/// The Figure 3–7 golden traces replay clean against the paper lineup.
fn goldens_clean() -> Result<(), String> {
    let lineup = rtft_campaign::parse_spec(
        "campaign figs\nhorizon 1300ms\ntaskgen paper\nfaults paper\ntreatment all\nplatform jrate\n",
    )
    .and_then(|s| s.expand())
    .map_err(|e| e.to_string())?;
    for (job, (fig, text)) in lineup.iter().zip(GOLDEN) {
        let capture = TraceCapture::parse_text(text).map_err(|e| format!("{fig}: {e}"))?;
        let report = replay(&capture, job).map_err(|e| format!("{fig}: {e}"))?;
        if let Some(d) = report.divergence {
            return Err(format!("{fig} diverged: {d}"));
        }
    }
    Ok(())
}

pub fn run(seed: u64, seconds: f64) -> Outcome {
    let (setup_s, pool) = common::timed_setup(3, || generate(seed));
    let mut t = Tracer::new(false, Instant::now(), 0);
    let run = measure(&pool, seed, seconds, &mut t);
    let mut out = Outcome {
        attempted: run.latencies_ms.len() as u64,
        failed: run.failed,
        ..Outcome::default()
    };
    out.metric("setup_s", setup_s, "s", 3);
    out.metric("peak_rss_mb", common::peak_rss_mb(), "MB", 1);
    out.metric(
        "ops_per_s",
        run.latencies_ms.len() as f64 / run.elapsed_s,
        "1/s",
        run.latencies_ms.len(),
    );
    common::latency_metrics(&mut out, &run.latencies_ms);
    out.extra(
        "latency_ms_p99",
        common::quantile(&run.latencies_ms, 0.99),
        "ms",
        run.latencies_ms.len(),
    );
    out.extra(
        "events_per_s",
        run.events as f64 / run.elapsed_s,
        "1/s",
        run.latencies_ms.len(),
    );
    out.extra(
        "error_ratio",
        run.failed as f64 / out.attempted.max(1) as f64,
        "ratio",
        run.latencies_ms.len(),
    );
    out.check(
        "replay.cycles_ok",
        run.failed == 0,
        format!(
            "{} cycles: clean captures hash-match and replay with zero divergences; {} tampered captures diverged and re-diverged at the same index after minimize; {} failed {:?}",
            run.latencies_ms.len(),
            run.tampered,
            run.failed,
            run.errors
        ),
    );
    out.check(
        "replay.tampered_seen",
        run.tampered > 0,
        format!("{} tampered cycles", run.tampered),
    );
    let golden = goldens_clean();
    out.check(
        "replay.figures_3_to_7_clean",
        golden.is_ok(),
        golden
            .err()
            .unwrap_or_else(|| "5 golden traces replay clean".into()),
    );
    out
}

pub fn traced(seed: u64, seconds: f64, t: &mut Tracer, out: &mut Outcome) {
    let pool = generate(seed);
    let run = measure(&pool, seed, seconds, t);
    out.attempted = run.latencies_ms.len() as u64;
    out.failed = run.failed;
    let layers = t.layers();
    let get = |n: &str| layers.get(n).copied().unwrap_or_default();
    let events = t
        .counts
        .get("trace.events")
        .copied()
        .unwrap_or(0.0)
        .max(1.0);
    let capture = get("trace.capture");
    out.metric(
        "trace.capture.ms",
        capture.total_ns as f64 / capture.calls.max(1) as f64 / 1e6,
        "ms",
        capture.calls as usize,
    );
    out.metric(
        "trace.render.ns_per_event",
        get("trace.render").total_ns as f64 / events,
        "ns",
        events as usize,
    );
    out.metric(
        "trace.parse.ns_per_event",
        get("trace.parse").total_ns as f64 / events,
        "ns",
        events as usize,
    );
    let bounds = get("replay.bounds");
    out.metric(
        "replay.bounds.us",
        bounds.total_ns as f64 / bounds.calls.max(1) as f64 / 1e3,
        "us",
        bounds.calls as usize,
    );
    out.metric(
        "replay.step.ns_per_event",
        get("replay.step").total_ns as f64 / events,
        "ns",
        events as usize,
    );
    let minimize = get("replay.minimize");
    out.metric(
        "replay.minimize.us",
        minimize.total_ns as f64 / minimize.calls.max(1) as f64 / 1e3,
        "us",
        minimize.calls as usize,
    );
    out.metric(
        "replay.divergences",
        t.counts.get("replay.divergences").copied().unwrap_or(0.0),
        "count",
        run.latencies_ms.len(),
    );
}
