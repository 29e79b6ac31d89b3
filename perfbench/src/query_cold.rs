//! `query_cold`: the in-process `rtft query` path, closed loop, one
//! caller. Every batch names a fresh system and runs on a fresh
//! `Workbench`, so nothing is memoized across batches.

use crate::common::{self, fnv, Outcome, Rng, Tracer, FNV_OFFSET};
use rtft_core::allowance::SlackPolicy;
use rtft_core::diag;
use rtft_core::policy::PolicyKind;
use rtft_core::query::{
    parse_batch, render_batch, render_responses_json, render_responses_text, AllocPolicy,
    Placement, Query, Response, SystemSpec,
};
use rtft_core::time::Duration;
use rtft_part::workbench::Workbench;
use rtft_taskgen::GeneratorConfig;
use std::collections::BTreeMap;
use std::time::Instant;

const PAPER_BATCH: &str = include_str!("../../examples/paper_queries.query");
const PAPER_GOLDEN: &str = include_str!("../../tests/golden/paper_queries.json");

/// Task counts of one block (see [`generate`]).
const SIZES: [usize; 15] = [8, 11, 14, 17, 20, 23, 26, 29, 32, 35, 38, 41, 44, 47, 50];
/// Blocks in the pool. One pass over them takes 1.5–2.5 s on a shared
/// 2-CPU host, so a 45 s run times every batch about 18 times.
const BLOCKS: usize = 4;
/// Full passes every untimed-out run makes, however slow the host.
const MIN_PASSES: usize = 2;
/// Set-ups timed before the measurement, and again after it; `setup_s`
/// is the median of all of them, so a slow stretch at start-up does not
/// read as a slower set-up.
const SETUPS: usize = 15;
/// Batches whose batched answers are compared with one-shot answers.
const ONE_SHOT_SAMPLES: usize = 12;

const POLICIES: [PolicyKind; 3] = [
    PolicyKind::FixedPriority,
    PolicyKind::NonPreemptiveFp,
    PolicyKind::Edf,
];
const PLACEMENTS: [&str; 3] = ["uni", "partitioned", "global"];

/// One generated request: the batch text plus what the reader needs to
/// attribute its cost.
#[derive(Clone, Debug)]
pub struct Batch {
    pub text: String,
    pub cell: (PolicyKind, &'static str),
    pub json: bool,
}

/// A generated system on one core (`uni`) or four (`partitioned`,
/// `global`).
pub fn system(
    seed: u64,
    name: &str,
    policy: PolicyKind,
    placement: &str,
    n: usize,
    rng: &mut Rng,
) -> SystemSpec {
    let set_seed = rng.next_u64() ^ seed;
    // Utilization is fixed per platform: allowance and sensitivity
    // searches cost more the less slack a set has, so a seeded U would
    // make the cost mix swing with the seed.
    let mut cfg = if placement == "uni" {
        GeneratorConfig::new(n).with_utilization(0.7)
    } else {
        let mut c = GeneratorConfig::multicore(n, 4);
        c.utilization = 2.1;
        c
    };
    cfg = cfg.with_periods(Duration::millis(10), Duration::secs(1));
    let mut spec = SystemSpec::uniprocessor(name, cfg.generate(set_seed)).with_policy(policy);
    if placement != "uni" {
        spec = spec.with_cores(4, AllocPolicy::FirstFitDecreasing);
    }
    if placement == "global" {
        spec = spec.with_placement(Placement::Global);
    }
    spec
}

/// Draws of [`accepted_system`] before it gives up and keeps a rejected
/// set.
const REDRAWS: usize = 200;

/// A generated system the lint accepts: sets are redrawn until
/// `lint_system` reports no error. A lint-rejected batch answers in
/// microseconds, so a seeded number of them among the dearer cells
/// would move every percentile. The rejected batches of the mix come
/// from npfp global instead (the lint rejects most of them), which
/// answers in well under a millisecond either way.
fn accepted_system(
    seed: u64,
    name: &str,
    policy: PolicyKind,
    placement: &str,
    n: usize,
    rng: &mut Rng,
) -> SystemSpec {
    let mut spec = system(seed, name, policy, placement, n, rng);
    for _ in 1..REDRAWS {
        if !diag::has_errors(&diag::lint_system(&spec)) {
            break;
        }
        spec = system(seed, name, policy, placement, n, rng);
    }
    spec
}

/// The full batch: every query kind plus two single-task overruns.
pub fn full_queries(spec: &SystemSpec, rng: &mut Rng) -> Vec<Query> {
    let tasks = spec.set.tasks();
    let a = tasks[rng.range(0, tasks.len() as u64 - 1) as usize].id;
    let b = tasks[rng.range(0, tasks.len() as u64 - 1) as usize].id;
    vec![
        Query::Feasibility,
        Query::WcrtAll,
        Query::Thresholds,
        Query::EquitableAllowance,
        Query::SystemAllowance(SlackPolicy::ProtectAll),
        Query::Sensitivity,
        Query::MaxSingleOverrun(a),
        Query::MaxSingleOverrun(b),
    ]
}

/// The seeded request stream, in blocks of 95 batches (96 in the
/// first). Each block holds, in a seeded order:
///
/// * every n in `SIZES` for fp and npfp on one core and fp partitioned
///   over four, for npfp partitioned (n scaled to 29–50: below that the
///   lint rejects nearly every set) and for fp global (n scaled to
///   8–16: the global sufficient test grows steeply with n);
/// * every third n for the cells that answer in well under a
///   millisecond (EDF on each placement, npfp global), so the median
///   batch lands inside the dearer fixed-priority continuum rather than
///   on the edge between the two cost modes;
/// * in the first block only, one EDF batch on a 2-task uniprocessor
///   asking feasibility, wcrt, thresholds and system-allowance.
///
/// EDF allowance and sensitivity searches on generated uniprocessor or
/// partitioned systems cost anywhere from microseconds to a second,
/// with no size at which the cost is steady, so other EDF batches there
/// ask feasibility, wcrt and thresholds only, and the EDF allowance
/// batch is single and small: even two of them moved the pool's total
/// time by 3–6% between seeds.
pub fn generate(seed: u64) -> Vec<Batch> {
    let mut rng = Rng::new(seed, 0x51);
    let mut out = Vec::with_capacity(BLOCKS * 96);
    for block in 0..BLOCKS {
        let mut cells: Vec<(PolicyKind, &'static str, usize)> = Vec::new();
        for policy in POLICIES {
            for placement in PLACEMENTS {
                let cheap = policy == PolicyKind::Edf
                    || (policy == PolicyKind::NonPreemptiveFp && placement == "global");
                for (i, n) in SIZES.into_iter().enumerate() {
                    if cheap && i % 3 != 0 {
                        continue;
                    }
                    let n = match (policy, placement) {
                        (_, "global") if !cheap => 8 + (n - 8) * 8 / 42,
                        (PolicyKind::NonPreemptiveFp, "partitioned") => 29 + (n - 8) / 2,
                        _ => n,
                    };
                    cells.push((policy, placement, n));
                }
            }
        }
        if block == 0 {
            cells.push((PolicyKind::Edf, "heavy", 0));
        }
        // Fisher–Yates with the seeded generator.
        for i in (1..cells.len()).rev() {
            let j = rng.range(0, i as u64) as usize;
            cells.swap(i, j);
        }
        for (k, (policy, placement, n)) in cells.into_iter().enumerate() {
            let name = format!("q{seed}-{block}-{k}");
            let (spec, queries, placement) = if placement == "heavy" {
                let spec = accepted_system(seed, &name, policy, "uni", 2, &mut rng);
                let q = vec![
                    Query::Feasibility,
                    Query::WcrtAll,
                    Query::Thresholds,
                    Query::SystemAllowance(SlackPolicy::ProtectAll),
                ];
                (spec, q, "uni")
            } else {
                let spec = if policy == PolicyKind::NonPreemptiveFp && placement == "global" {
                    system(seed, &name, policy, placement, n, &mut rng)
                } else {
                    accepted_system(seed, &name, policy, placement, n, &mut rng)
                };
                let q = if policy == PolicyKind::Edf && placement != "global" {
                    vec![Query::Feasibility, Query::WcrtAll, Query::Thresholds]
                } else {
                    full_queries(&spec, &mut rng)
                };
                (spec, q, placement)
            };
            out.push(Batch {
                text: render_batch(&spec, &queries),
                cell: (policy, placement),
                json: out.len() % 2 == 1,
            });
        }
    }
    out
}

/// The `rtft query` path: parse → (lint inside `Workbench::new`) →
/// batched analysis → render. The traced run splits it into the same
/// calls made one by one, so every layer gets its own span.
fn answer(batch: &Batch, id: u64, t: &mut Tracer) -> Result<(String, bool), String> {
    t.span("query", id, |t| {
        let (spec, queries) = t
            .span("query.parse", id, |_| parse_batch(&batch.text))
            .map_err(|e| e.to_string())?;
        let responses = if t.on {
            let lint = t.span("diag.lint", id, |_| diag::lint_system(&spec));
            if diag::has_errors(&lint) {
                t.count("diag.lint.rejected", 1.0);
            }
            t.span("analysis", id, |t| {
                let mut bench = Workbench::new(spec.clone());
                let mut order: Vec<usize> = (0..queries.len()).collect();
                order.sort_by_key(|&i| diag::execution_phase(&queries[i]));
                let mut responses: Vec<Option<Response>> = vec![None; queries.len()];
                for i in order {
                    let name = format!("analysis.{}", queries[i].keyword());
                    let r = t.span(&name, id, |_| bench.run(&queries[i]));
                    responses[i] = Some(r.map_err(|e| e.to_string())?);
                }
                Ok::<_, String>(
                    responses
                        .into_iter()
                        .map(|r| r.expect("answered"))
                        .collect(),
                )
            })?
        } else {
            Workbench::new(spec.clone())
                .run_batch(&queries)
                .map_err(|e| e.to_string())?
        };
        let rejected = responses.iter().any(|r| matches!(r, Response::Rejected(_)));
        let body = t.span("query.render", id, |_| {
            if batch.json {
                render_responses_json(&spec, &responses)
            } else {
                render_responses_text(&spec, &queries, &responses)
            }
        });
        Ok((body, rejected))
    })
}

/// One-shot answers: a fresh workbench per query, rendered the same way.
fn one_shot(batch: &Batch) -> Result<String, String> {
    let (spec, queries) = parse_batch(&batch.text).map_err(|e| e.to_string())?;
    let mut responses = Vec::with_capacity(queries.len());
    for q in &queries {
        responses.push(
            Workbench::new(spec.clone())
                .run(q)
                .map_err(|e| e.to_string())?,
        );
    }
    Ok(if batch.json {
        render_responses_json(&spec, &responses)
    } else {
        render_responses_text(&spec, &queries, &responses)
    })
}

pub struct Run {
    /// Per pool batch: its fastest latency over the passes.
    pub best_ms: Vec<f64>,
    /// Batches answered, counting every pass.
    pub completed: u64,
    pub elapsed_s: f64,
    pub failed: u64,
    pub rejected: u64,
    /// Rendered answers of the sampled batches, by pool index.
    pub sampled: BTreeMap<usize, String>,
    pub errors: Vec<String>,
}

/// Indices whose batched answers are kept and checked one-shot: a
/// seeded choice within the first two blocks.
fn sample_indices(seed: u64, pool: usize) -> Vec<usize> {
    let mut rng = Rng::new(seed, 0x5a);
    let span = (2 * 96).min(pool);
    let mut idx: Vec<usize> = (0..ONE_SHOT_SAMPLES)
        .map(|_| rng.range(0, span as u64 - 1) as usize)
        .collect();
    idx.sort_unstable();
    idx.dedup();
    idx
}

/// Answer the pool in order, pass after pass, until `seconds` have gone
/// by and at least `min_passes` full passes are done. Each batch keeps
/// its fastest time: on a shared host a batch of a few milliseconds is
/// often slowed by other tenants, and the best of several passes is the
/// time the program itself takes.
pub fn measure(
    pool: &[Batch],
    samples: &[usize],
    seconds: f64,
    min_passes: usize,
    t: &mut Tracer,
) -> Run {
    let mut run = Run {
        best_ms: vec![f64::INFINITY; pool.len()],
        completed: 0,
        elapsed_s: 0.0,
        failed: 0,
        rejected: 0,
        sampled: BTreeMap::new(),
        errors: Vec::new(),
    };
    let start = Instant::now();
    let mut i = 0usize;
    // Always finish the sampled prefix, so the checks see every sample.
    let must = (min_passes * pool.len()).max(samples.last().map_or(0, |&s| s + 1));
    while i < must || start.elapsed().as_secs_f64() < seconds {
        let k = i % pool.len();
        let t0 = Instant::now();
        let result = answer(&pool[k], i as u64, t);
        let lat = common::ms(t0.elapsed());
        run.best_ms[k] = run.best_ms[k].min(lat);
        run.completed += 1;
        match result {
            Ok((body, rejected)) => {
                if rejected && i < pool.len() {
                    run.rejected += 1;
                }
                std::hint::black_box(body.len());
                if i < pool.len() && samples.binary_search(&k).is_ok() {
                    run.sampled.insert(k, body);
                }
            }
            Err(e) => {
                run.failed += 1;
                if run.errors.len() < 5 {
                    run.errors.push(format!("batch {k}: {e}"));
                }
            }
        }
        i += 1;
    }
    run.elapsed_s = start.elapsed().as_secs_f64();
    // A short traced pass may not reach every batch.
    run.best_ms.retain(|v| v.is_finite());
    run
}

pub struct State {
    pub pool: Vec<Batch>,
    pub samples: Vec<usize>,
    pub setup_secs: Vec<f64>,
}

pub fn setup(seed: u64) -> State {
    let (setup_secs, pool) = common::time_reps(SETUPS, || generate(seed));
    let samples = sample_indices(seed, pool.len());
    State {
        pool,
        samples,
        setup_secs,
    }
}

/// Digest of the sampled answers — pinned for the default seed.
fn answers_digest(run: &Run) -> u64 {
    run.sampled.iter().fold(FNV_OFFSET, |h, (k, body)| {
        fnv(fnv(h, &k.to_le_bytes()), body.as_bytes())
    })
}

pub fn checks(st: &State, run: &Run, out: &mut Outcome, pinned: Option<u64>) {
    // The committed golden, byte for byte.
    let golden = (|| {
        let (spec, queries) = parse_batch(PAPER_BATCH).map_err(|e| e.to_string())?;
        let responses = Workbench::new(spec.clone())
            .run_batch(&queries)
            .map_err(|e| e.to_string())?;
        Ok::<_, String>(render_responses_json(&spec, &responses))
    })();
    out.check(
        "query.paper_golden",
        golden.as_deref() == Ok(PAPER_GOLDEN),
        "examples/paper_queries.query as JSON equals tests/golden/paper_queries.json",
    );

    let mut mismatched = Vec::new();
    for &k in &st.samples {
        let batched = run.sampled.get(&k);
        let single = one_shot(&st.pool[k]);
        if batched.map(String::as_str) != single.as_deref().ok() {
            mismatched.push(k);
        }
    }
    out.check(
        "query.batched_equals_one_shot",
        mismatched.is_empty(),
        format!(
            "{} sampled batches; mismatched pool indices {mismatched:?}",
            st.samples.len()
        ),
    );
    out.check(
        "query.no_analysis_errors",
        run.failed == 0,
        format!("{} failed: {:?}", run.failed, run.errors),
    );
    let digest = answers_digest(run);
    match pinned {
        Some(p) => out.check(
            "query.pinned_digest",
            digest == p,
            format!("sampled answers digest {digest:016x}, pinned {p:016x}"),
        ),
        None => out.check(
            "query.answers_digest",
            true,
            format!("sampled answers digest {digest:016x} (not the pinned seed)"),
        ),
    }
}

pub fn run(seed: u64, seconds: f64, pinned: Option<u64>) -> Outcome {
    let st = setup(seed);
    let mut t = Tracer::new(false, Instant::now(), 0);
    let run = measure(&st.pool, &st.samples, seconds, MIN_PASSES, &mut t);
    let mut out = Outcome {
        attempted: run.completed,
        failed: run.failed,
        ..Outcome::default()
    };
    let batches = run.best_ms.len();
    let mut setup_secs = st.setup_secs.clone();
    setup_secs.extend(common::time_reps(SETUPS, || generate(seed)).0);
    out.metric(
        "setup_s",
        common::median(&setup_secs),
        "s",
        setup_secs.len(),
    );
    out.metric("peak_rss_mb", common::peak_rss_mb(), "MB", 1);
    out.metric(
        "ops_per_s",
        batches as f64 * 1e3 / run.best_ms.iter().sum::<f64>(),
        "1/s",
        batches,
    );
    common::latency_metrics(&mut out, &run.best_ms);
    out.extra(
        "completed_per_s",
        run.completed as f64 / run.elapsed_s,
        "1/s",
        run.completed as usize,
    );
    out.extra(
        "passes",
        run.completed as f64 / st.pool.len() as f64,
        "count",
        1,
    );
    out.extra(
        "error_ratio",
        run.failed as f64 / out.attempted as f64,
        "ratio",
        run.completed as usize,
    );
    out.extra(
        "lint_rejected_batches",
        run.rejected as f64,
        "count",
        batches,
    );
    checks(&st, &run, &mut out, pinned);
    out
}

/// The traced pass: per-layer metrics from the spans.
pub fn traced(seed: u64, seconds: f64, t: &mut Tracer, out: &mut Outcome) {
    let st = setup(seed);
    let start = t.spans.len();
    let run = measure(&st.pool, &[], seconds, 0, t);
    out.attempted = run.completed;
    out.failed = run.failed;
    out.check(
        "query.no_analysis_errors",
        run.failed == 0,
        format!("{} failed: {:?}", run.failed, run.errors),
    );
    let batches = run.completed as f64;
    let layers = t.layers();
    let get = |name: &str| layers.get(name).copied().unwrap_or_default();
    out.metric(
        "query.parse.us_per_batch",
        get("query.parse").total_ns as f64 / batches / 1e3,
        "us",
        run.completed as usize,
    );
    out.metric(
        "query.render.us_per_batch",
        get("query.render").total_ns as f64 / batches / 1e3,
        "us",
        run.completed as usize,
    );
    out.metric(
        "diag.lint.us_per_batch",
        get("diag.lint").total_ns as f64 / batches / 1e3,
        "us",
        run.completed as usize,
    );
    out.metric(
        "diag.lint.rejected",
        t.counts.get("diag.lint.rejected").copied().unwrap_or(0.0),
        "count",
        run.completed as usize,
    );
    for kind in [
        "feasibility",
        "wcrt",
        "thresholds",
        "equitable",
        "system-allowance",
        "sensitivity",
        "overrun",
    ] {
        let l = get(&format!("analysis.{kind}"));
        out.metric(
            &format!("analysis.{kind}.ms"),
            l.total_ns as f64 / l.calls.max(1) as f64 / 1e6,
            "ms",
            l.calls as usize,
        );
    }
    // Per-cell analysis time, from the `analysis` spans of this pass.
    let mut cells: BTreeMap<(PolicyKind, &str), (u64, u64)> = BTreeMap::new();
    let mut root_ns = 0u64;
    let mut analysis_ns = 0u64;
    for s in &t.spans[start..] {
        let dur = s.end_ns - s.start_ns;
        match s.name.as_str() {
            "query" => root_ns += dur,
            "analysis" => {
                analysis_ns += dur;
                let batch = &st.pool[s.request as usize % st.pool.len()];
                let e = cells.entry(batch.cell).or_default();
                e.0 += 1;
                e.1 += dur;
            }
            _ => {}
        }
    }
    for policy in POLICIES {
        for placement in PLACEMENTS {
            let (calls, ns) = cells.get(&(policy, placement)).copied().unwrap_or_default();
            out.metric(
                &format!("analysis.{}.{placement}.ms", policy.label()),
                ns as f64 / calls.max(1) as f64 / 1e6,
                "ms",
                calls as usize,
            );
        }
    }
    out.metric(
        "analysis.share",
        analysis_ns as f64 / root_ns.max(1) as f64,
        "ratio",
        run.completed as usize,
    );
}
