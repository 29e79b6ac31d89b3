//! rtft end-to-end benchmark.
//!
//! ```text
//! perfbench --workload <query_cold|serve_mixed|campaign_grid|capture_replay|all>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints a table of every metric (name, value, unit, sample count) and
//! every correctness check, then, as the last line, one JSON record:
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0` the
//! metrics are the end-to-end ones; with `--trace 1` the run records
//! spans around each layer call and reports per-layer metrics instead.
//! Exits 1 when any correctness check fails, 2 on bad arguments.
//! See `perfbench/README.md` for the workloads and the layer map.

mod campaign_grid;
mod capture_replay;
mod common;
mod query_cold;
mod serve_mixed;

use common::{Outcome, Tracer};
use std::time::Instant;

const WORKLOADS: [&str; 4] = [
    "query_cold",
    "serve_mixed",
    "campaign_grid",
    "capture_replay",
];

/// The seed whose outputs are pinned in `pins.txt`.
const DEFAULT_SEED: u64 = 1;
const PINS: &str = include_str!("../pins.txt");

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 20.0,
        trace: false,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|e| format!("bad --seed: {e}"))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|e| format!("bad --seconds: {e}"))?;
                if args.seconds.is_nan() || args.seconds <= 0.0 {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("bad --trace `{other}`: expected 0 or 1")),
                }
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    if args.workload != "all" && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {} or all",
            WORKLOADS.join(", ")
        ));
    }
    Ok(args)
}

/// Pinned digest `key` for the default seed (`None` for other seeds).
fn pinned(seed: u64, key: &str) -> Option<u64> {
    if seed != DEFAULT_SEED {
        return None;
    }
    PINS.lines()
        .filter_map(|l| l.split_once('='))
        .find(|(k, _)| k.trim() == key)
        .and_then(|(_, v)| u64::from_str_radix(v.trim(), 16).ok())
}

/// The untraced run: end-to-end metrics plus every correctness check.
fn run_workload(name: &str, seed: u64, seconds: f64) -> Outcome {
    match name {
        "query_cold" => query_cold::run(seed, seconds, pinned(seed, "query_cold.answers")),
        "serve_mixed" => serve_mixed::run(seed, seconds),
        "campaign_grid" => campaign_grid::run(seed, seconds, pinned(seed, "campaign_grid.report")),
        "capture_replay" => capture_replay::run(seed, seconds),
        _ => unreachable!("validated by parse_args"),
    }
}

/// One traced pass over a workload's layers.
fn traced_pass(name: &str, seed: u64, seconds: f64, t: &mut Tracer, out: &mut Outcome) {
    match name {
        "query_cold" => query_cold::traced(seed, seconds, t, out),
        "serve_mixed" => serve_mixed::traced(seed, seconds, t, out),
        "campaign_grid" => campaign_grid::traced(seed, seconds, t, out),
        "capture_replay" => capture_replay::traced(seed, seconds, t, out),
        _ => unreachable!("validated by parse_args"),
    }
}

/// Seconds given to the short traced passes over the layers a workload
/// does not drive itself.
const SIDE_PASS_S: f64 = 1.5;

/// The traced run. The workload's own layers are measured on its own
/// inputs for the full run time; the layers it does not drive get a
/// short traced pass of the workload that does, so every workload
/// reports every per-layer metric. Spans go to
/// `perfbench/out/spans-<workload>-<seed>.jsonl`.
fn trace_workload(name: &str, seed: u64, seconds: f64) -> Outcome {
    let span_ns = common::span_cost_ns();
    let origin = Instant::now();
    let mut all = Tracer::new(true, origin, 0);
    let mut out = Outcome::default();
    let others = WORKLOADS.iter().copied().filter(|w| *w != name);
    for pass in std::iter::once(name).chain(others) {
        let own = pass == name;
        let mut t = Tracer::new(true, origin, 0);
        let mut o = Outcome::default();
        let started = Instant::now();
        traced_pass(
            pass,
            seed,
            if own { seconds } else { SIDE_PASS_S },
            &mut t,
            &mut o,
        );
        if own {
            let wall = started.elapsed().as_secs_f64();
            let overhead = t.spans.len() as f64 * span_ns / 1e9 / wall;
            o.metric("trace.overhead_share", overhead, "ratio", t.spans.len());
            out.attempted = o.attempted.max(1);
            out.failed = o.failed;
            out.checks = o.checks;
            out.extra = o.extra;
        }
        for mut m in o.metrics {
            if !out.metrics.iter().any(|x| x.name == m.name) {
                m.side = !own;
                out.metrics.push(m);
            }
        }
        all.absorb(t);
    }
    let path = std::path::Path::new("perfbench/out").join(format!("spans-{name}-{seed}.jsonl"));
    match all.write(&path) {
        Ok(()) => println!("spans: {} written to {}", all.spans.len(), path.display()),
        Err(e) => println!("spans: not written ({e})"),
    }
    out
}

fn print_table(name: &str, out: &Outcome) {
    println!("== {name}");
    for m in &out.metrics {
        println!(
            "  {:<36} {:>14.4} {:<6} n={}{}",
            m.name,
            m.value,
            m.unit,
            m.samples,
            if m.side { "  (side pass)" } else { "" }
        );
    }
    for m in &out.extra {
        println!(
            "  {:<36} {:>14.4} {:<6} n={}  (not gated)",
            m.name, m.value, m.unit, m.samples
        );
    }
    for c in &out.checks {
        println!(
            "  check {:<34} {}  {}",
            c.name,
            if c.ok { "ok  " } else { "FAIL" },
            c.detail
        );
    }
    for why in &out.invalid {
        println!("  INVALID RUN: {why}");
    }
}

fn json_record(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(String, f64, &str)],
) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let v = if value.is_finite() {
                format!("{value}")
            } else {
                "null".into()
            };
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let names: Vec<&str> = if args.workload == "all" {
        WORKLOADS.to_vec()
    } else {
        vec![args.workload.as_str()]
    };
    let mut correct = true;
    let mut attempted = 0;
    let mut failed = 0;
    let mut metrics = Vec::new();
    for name in &names {
        let probe_before = common::host_probe_ms();
        let mut out = if args.trace {
            trace_workload(name, args.seed, args.seconds)
        } else {
            run_workload(name, args.seed, args.seconds)
        };
        let probe = (probe_before + common::host_probe_ms()) / 2.0;
        out.extra("host_probe_ms", probe, "ms", 10);
        print_table(name, &out);
        correct &= out.correct() && out.invalid.is_empty();
        attempted += out.attempted;
        failed += out.failed;
        for m in &out.metrics {
            let key = if names.len() > 1 {
                format!("{name}.{}", m.name)
            } else {
                m.name.clone()
            };
            metrics.push((key, m.value, m.unit));
        }
    }
    println!(
        "{}",
        json_record(correct, attempted.max(1), failed, &metrics)
    );
    if !correct {
        std::process::exit(1);
    }
}
