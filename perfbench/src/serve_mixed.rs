//! `serve_mixed`: an open loop against an in-process `rtft serve`
//! daemon over real sockets, at a low and a high fixed rate.

use crate::common::{self, Outcome, Rng, Tracer};
use crate::query_cold::{full_queries, system};
use rtft_core::diag;
use rtft_core::policy::PolicyKind;
use rtft_core::query::{
    parse_batch, render_batch, render_responses_json, render_responses_text, SystemSpec,
};
use rtft_part::workbench::Workbench;
use rtft_serve::client::Client;
use rtft_serve::{ServeConfig, Server, ServerHandle};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Accepted fp/npfp specs requested over and over.
const HOT: usize = 16;
/// Session slots: the hot set plus room for the cold specs in flight.
const SESSIONS: usize = HOT + 4;
const THREADS: usize = 2;
const CLIENTS: usize = 2;
/// Request rates of the two phases (requests per second). At the low
/// rate requests rarely overlap; the high rate is 70% of the ~400/s the
/// daemon sustains without a growing backlog on a 2-CPU host with 2
/// client connections and 2 daemon threads.
const LOW_RATE: f64 = 100.0;
const HIGH_RATE: f64 = 280.0;
/// A run is invalid when the generator's p99 lateness exceeds this, or
/// more than `BACKLOG_LIMIT` requests are due but unsent when a phase's
/// last request falls due.
const LATE_LIMIT_MS: f64 = 50.0;
const BACKLOG_LIMIT: usize = 4;
/// p99 latency limit of the high-rate phase, measured from when each
/// request was due.
const P99_LIMIT_MS: f64 = 25.0;

#[derive(Clone, Copy, Debug, PartialEq)]
enum Kind {
    Warm(usize),
    Cold(usize),
    Reject(usize),
    Stats,
}

#[derive(Clone, Copy, Debug)]
struct Req {
    kind: Kind,
    json: bool,
}

/// A batch with its expected status and both renderings, computed in
/// process through the `rtft query` path.
struct Expected {
    text: String,
    status: u16,
    body_text: String,
    body_json: String,
}

fn expected(text: String) -> Result<Expected, String> {
    let (spec, queries) = parse_batch(&text).map_err(|e| e.to_string())?;
    let responses = Workbench::new(spec.clone())
        .run_batch(&queries)
        .map_err(|e| e.to_string())?;
    let status = if diag::has_errors(&diag::lint_system(&spec)) {
        422
    } else {
        200
    };
    Ok(Expected {
        status,
        body_text: render_responses_text(&spec, &queries, &responses),
        body_json: render_responses_json(&spec, &responses),
        text,
    })
}

struct Inputs {
    hot: Vec<Expected>,
    cold: Vec<Expected>,
    reject: Vec<Expected>,
    low: Vec<Req>,
    high: Vec<Req>,
}

/// An accepted spec (lint-clean) of `n` tasks under fp or npfp.
fn accepted(seed: u64, name: &str, n_lo: u64, n_hi: u64, rng: &mut Rng) -> SystemSpec {
    loop {
        let policy = if rng.range(0, 1) == 0 {
            PolicyKind::FixedPriority
        } else {
            PolicyKind::NonPreemptiveFp
        };
        let n = rng.range(n_lo, n_hi) as usize;
        let spec = system(seed, name, policy, "uni", n, rng);
        if !diag::has_errors(&diag::lint_system(&spec)) {
            return spec;
        }
    }
}

/// The seeded mix of one phase: 94% warm repeats of the hot set, 3%
/// cold unique specs, 2% lint-rejected batches, 1% `GET /stats`.
fn schedule(count: usize, next_cold: &mut usize, rejects: usize, rng: &mut Rng) -> Vec<Req> {
    (0..count)
        .map(|_| {
            let roll = rng.range(0, 99);
            let kind = match roll {
                0..=93 => Kind::Warm(rng.range(0, HOT as u64 - 1) as usize),
                94..=96 => {
                    *next_cold += 1;
                    Kind::Cold(*next_cold - 1)
                }
                97..=98 => Kind::Reject(rng.range(0, rejects as u64 - 1) as usize),
                _ => Kind::Stats,
            };
            Req {
                kind,
                json: rng.range(0, 1) == 1,
            }
        })
        .collect()
}

fn generate(seed: u64, low_s: f64, high_s: f64) -> Result<Inputs, String> {
    let mut rng = Rng::new(seed, 0x5e);
    let low_n = (LOW_RATE * low_s).round() as usize;
    let high_n = (HIGH_RATE * high_s).round() as usize;
    let rejects = 8;
    let mut next_cold = 0;
    let low = schedule(low_n, &mut next_cold, rejects, &mut rng);
    let high = schedule(high_n, &mut next_cold, rejects, &mut rng);
    let batch = |spec: SystemSpec, rng: &mut Rng| {
        let q = full_queries(&spec, rng);
        expected(render_batch(&spec, &q))
    };
    let hot = (0..HOT)
        .map(|i| {
            batch(
                accepted(seed, &format!("hot{seed}-{i}"), 8, 16, &mut rng),
                &mut rng,
            )
        })
        .collect::<Result<Vec<_>, _>>()?;
    let cold = (0..next_cold)
        .map(|i| {
            batch(
                accepted(seed, &format!("cold{seed}-{i}"), 8, 20, &mut rng),
                &mut rng,
            )
        })
        .collect::<Result<Vec<_>, _>>()?;
    let reject = (0..rejects)
        .map(|i| {
            let mut spec = system(
                seed,
                &format!("over{seed}-{i}"),
                PolicyKind::FixedPriority,
                "uni",
                8,
                &mut rng,
            );
            // Scale every cost up: U > 1 is a lint error (RT010).
            let tasks = spec.set.tasks().iter().map(|t| {
                let mut t = t.clone();
                t.cost = t.cost * 2;
                t
            });
            spec.set = rtft_core::task::TaskSet::from_specs(tasks.collect());
            batch(spec, &mut rng)
        })
        .collect::<Result<Vec<_>, _>>()?;
    Ok(Inputs {
        hot,
        cold,
        reject,
        low,
        high,
    })
}

fn spawn() -> Result<ServerHandle, String> {
    Server::spawn(ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        sessions: SESSIONS,
        threads: THREADS,
        request_timeout: Duration::from_secs(10),
        max_body: 1 << 20,
    })
    .map_err(|e| format!("spawn: {e}"))
}

/// Spawn the daemon and send every hot spec once, so the hot set starts
/// warm.
fn spawn_primed(inputs: &Inputs) -> Result<ServerHandle, String> {
    let handle = spawn()?;
    let client = client(&handle);
    for e in &inputs.hot {
        let status = client.post_query(&e.text, false).map(|r| r.status);
        if !matches!(status, Ok(200)) {
            handle.shutdown();
            return Err(format!("priming answered {status:?}"));
        }
    }
    Ok(handle)
}

fn client(handle: &ServerHandle) -> Client {
    Client::new(handle.addr()).with_timeout(Duration::from_secs(10))
}

/// One sent request, timed from when it was due.
#[derive(Clone, Copy, Debug)]
struct Record {
    kind: Kind,
    due_ms: f64,
    sent_ms: f64,
    done_ms: f64,
    ok: bool,
    /// Transport-level failure (I/O error, timeout, 5xx).
    failed: bool,
}

/// Send `reqs` on a fixed schedule from `CLIENTS` connections' worth of
/// threads: request `k` is due at `k / rate` seconds after the phase
/// starts and goes out from thread `k % CLIENTS` as soon as that thread
/// is free.
fn phase(
    handle: &ServerHandle,
    inputs: &Inputs,
    reqs: &[Req],
    rate: f64,
    tracers: &mut [Tracer],
    errors: &Mutex<Vec<String>>,
) -> Vec<Record> {
    let client = client(handle);
    let start = Instant::now() + Duration::from_millis(20);
    let mut records: Vec<Record> = std::thread::scope(|s| {
        let handles: Vec<_> = tracers
            .iter_mut()
            .enumerate()
            .map(|(j, t)| {
                s.spawn(move || {
                    let mut out = Vec::new();
                    for k in (j..reqs.len()).step_by(CLIENTS) {
                        let due = start + Duration::from_secs_f64(k as f64 / rate);
                        let now = Instant::now();
                        if due > now {
                            std::thread::sleep(due - now);
                        }
                        let sent = Instant::now();
                        let req = reqs[k];
                        let (expect, body) = match req.kind {
                            Kind::Warm(i) => (Some(&inputs.hot[i]), Some(&inputs.hot[i].text)),
                            Kind::Cold(i) => (Some(&inputs.cold[i]), Some(&inputs.cold[i].text)),
                            Kind::Reject(i) => {
                                (Some(&inputs.reject[i]), Some(&inputs.reject[i].text))
                            }
                            Kind::Stats => (None, None),
                        };
                        let reply = t.span("serve.request", k as u64, |_| match body {
                            Some(b) => client.post_query(b, req.json),
                            None => client.stats(req.json),
                        });
                        let done = Instant::now();
                        let (ok, failed) = match (&reply, expect) {
                            (Err(e), _) => {
                                errors
                                    .lock()
                                    .expect("error list")
                                    .push(format!("request {k}: {e}"));
                                (false, true)
                            }
                            (Ok(r), _) if r.status >= 500 => (false, true),
                            (Ok(r), None) => (r.status == 200, false),
                            (Ok(r), Some(e)) => {
                                let want = if req.json { &e.body_json } else { &e.body_text };
                                let ok = r.status == e.status && &r.body == want;
                                if !ok {
                                    errors.lock().expect("error list").push(format!(
                                        "request {k} ({:?}): status {} (expected {}), body {}",
                                        req.kind,
                                        r.status,
                                        e.status,
                                        if &r.body == want { "equal" } else { "differs" }
                                    ));
                                }
                                (ok, false)
                            }
                        };
                        let at = |i: Instant| common::ms(i.saturating_duration_since(start));
                        out.push(Record {
                            kind: req.kind,
                            due_ms: k as f64 * 1e3 / rate,
                            sent_ms: at(sent),
                            done_ms: at(done),
                            ok,
                            failed,
                        });
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    records.sort_by(|a, b| a.due_ms.total_cmp(&b.due_ms));
    records
}

struct PhaseStats {
    latency_ms: Vec<f64>,
    late_ms_p99: f64,
    backlog: usize,
}

fn phase_stats(records: &[Record]) -> PhaseStats {
    let latency_ms: Vec<f64> = records.iter().map(|r| r.done_ms - r.due_ms).collect();
    let late: Vec<f64> = records
        .iter()
        .map(|r| (r.sent_ms - r.due_ms).max(0.0))
        .collect();
    let last_due = records.last().map_or(0.0, |r| r.due_ms);
    let backlog = records
        .iter()
        .filter(|r| r.sent_ms > last_due + 1.0)
        .count();
    PhaseStats {
        latency_ms,
        late_ms_p99: common::quantile(&late, 0.99),
        backlog,
    }
}

/// Daemon-side counters from `GET /stats?json`.
#[derive(Clone, Copy, Debug, Default)]
struct Stats {
    hits: f64,
    misses: f64,
    evictions: f64,
    p50_ms: f64,
    p99_ms: f64,
}

fn field(body: &str, key: &str) -> f64 {
    body.split(&format!("\"{key}\": "))
        .nth(1)
        .and_then(|rest| rest.split([',', '}']).next())
        .and_then(|v| v.trim().parse::<f64>().ok())
        .unwrap_or(f64::NAN)
}

fn stats(handle: &ServerHandle) -> Result<Stats, String> {
    let reply = client(handle)
        .stats(true)
        .map_err(|e| format!("stats: {e}"))?;
    Ok(Stats {
        hits: field(&reply.body, "hits"),
        misses: field(&reply.body, "misses"),
        evictions: field(&reply.body, "evictions"),
        p50_ms: field(&reply.body, "p50_ns") / 1e6,
        p99_ms: field(&reply.body, "p99_ns") / 1e6,
    })
}

struct Measured {
    low: Vec<Record>,
    high: Vec<Record>,
    before: Stats,
    after: Stats,
    errors: Vec<String>,
}

fn measure(
    seed: u64,
    seconds: f64,
    tracers: &mut [Tracer],
) -> Result<(f64, Inputs, Measured), String> {
    // The low rate gets two thirds of the time so both phases collect
    // enough samples for a p99 (1333 and 1867 at 20 s).
    let (low_s, high_s) = (seconds * 2.0 / 3.0, seconds / 3.0);
    // Set-up: inputs and their in-process answers, daemon spawn, hot-set
    // priming. Repeated; the daemons of the earlier rounds are stopped.
    let mut rounds = Vec::new();
    let mut kept = None;
    for round in 0..3 {
        let t0 = Instant::now();
        let inputs = generate(seed, low_s, high_s)?;
        let handle = spawn_primed(&inputs)?;
        rounds.push(t0.elapsed().as_secs_f64());
        if round < 2 {
            handle.shutdown();
        } else {
            kept = Some((inputs, handle));
        }
    }
    let setup_s = common::median(&rounds);
    let (inputs, handle) = kept.expect("three rounds");
    let errors = Mutex::new(Vec::new());
    let before = stats(&handle);
    let low = phase(&handle, &inputs, &inputs.low, LOW_RATE, tracers, &errors);
    let high = phase(&handle, &inputs, &inputs.high, HIGH_RATE, tracers, &errors);
    let after = stats(&handle);
    handle.shutdown();
    let (before, after) = (before?, after?);
    Ok((
        setup_s,
        inputs,
        Measured {
            low,
            high,
            before,
            after,
            errors: errors.into_inner().expect("error list"),
        },
    ))
}

fn tracers(on: bool) -> Vec<Tracer> {
    let origin = Instant::now();
    (0..CLIENTS).map(|j| Tracer::new(on, origin, j)).collect()
}

pub fn run(seed: u64, seconds: f64) -> Outcome {
    let mut out = Outcome::default();
    let mut ts = tracers(false);
    let (setup_s, _inputs, m) = match measure(seed, seconds, &mut ts) {
        Ok(v) => v,
        Err(e) => {
            out.attempted = 1;
            out.failed = 1;
            out.check("serve.setup", false, e);
            return out;
        }
    };
    let all: Vec<&Record> = m.low.iter().chain(&m.high).collect();
    out.attempted = all.len() as u64;
    out.failed = all.iter().filter(|r| r.failed || !r.ok).count() as u64;
    let low = phase_stats(&m.low);
    let high = phase_stats(&m.high);
    let high_s = m.high.last().map_or(0.0, |r| r.done_ms) / 1e3;
    out.metric("setup_s", setup_s, "s", 3);
    out.metric("peak_rss_mb", common::peak_rss_mb(), "MB", 1);
    out.metric(
        "ops_per_s",
        m.high.len() as f64 / high_s,
        "1/s",
        m.high.len(),
    );
    common::latency_metrics(&mut out, &high.latency_ms);
    out.extra(
        "latency_ms_p99",
        common::quantile(&high.latency_ms, 0.99),
        "ms",
        high.latency_ms.len(),
    );
    out.extra(
        "low_rate.latency_ms_p50",
        common::quantile(&low.latency_ms, 0.5),
        "ms",
        low.latency_ms.len(),
    );
    out.extra(
        "low_rate.latency_ms_p99",
        common::quantile(&low.latency_ms, 0.99),
        "ms",
        low.latency_ms.len(),
    );
    out.extra(
        "error_ratio",
        out.failed as f64 / out.attempted.max(1) as f64,
        "ratio",
        all.len(),
    );
    out.extra(
        "high_rate.generator_late_ms_p99",
        high.late_ms_p99,
        "ms",
        m.high.len(),
    );
    out.extra("high_rate.backlog_at_end", high.backlog as f64, "count", 1);
    out.extra(
        "low_rate.generator_late_ms_p99",
        low.late_ms_p99,
        "ms",
        m.low.len(),
    );
    out.extra("low_rate.backlog_at_end", low.backlog as f64, "count", 1);
    for (name, p) in [("low", &low), ("high", &high)] {
        if p.late_ms_p99 > LATE_LIMIT_MS || p.backlog > BACKLOG_LIMIT {
            out.invalid.push(format!(
                "{name}-rate phase: generator late p99 {:.1} ms (limit {LATE_LIMIT_MS}), backlog {} (limit {BACKLOG_LIMIT})",
                p.late_ms_p99, p.backlog
            ));
        }
    }
    let p99 = common::quantile(&high.latency_ms, 0.99);
    out.extra(
        "high_rate.p99_within_limit",
        f64::from(u8::from(p99 <= P99_LIMIT_MS)),
        "bool",
        1,
    );
    let bad: Vec<&Record> = all.iter().copied().filter(|r| !r.ok).collect();
    out.check(
        "serve.bodies_match_in_process",
        bad.is_empty(),
        format!(
            "{} requests; every 200 body equals the in-process rendering and every lint-rejected batch answers 422 with it; {} mismatched or failed {:?}",
            all.len(),
            bad.len(),
            m.errors.iter().take(5).collect::<Vec<_>>()
        ),
    );
    let rejects = all
        .iter()
        .filter(|r| matches!(r.kind, Kind::Reject(_)))
        .count();
    out.check(
        "serve.rejections_seen",
        rejects > 0,
        format!("{rejects} lint-rejected batches sent"),
    );
    out
}

pub fn traced(seed: u64, seconds: f64, t: &mut Tracer, out: &mut Outcome) {
    let mut ts = tracers(true);
    let (_, inputs, m) = match measure(seed, seconds, &mut ts) {
        Ok(v) => v,
        Err(e) => {
            out.check("serve.setup", false, e);
            return;
        }
    };
    for c in ts {
        t.absorb(c);
    }
    let all: Vec<&Record> = m.low.iter().chain(&m.high).collect();
    out.attempted = all.len() as u64;
    out.failed = all.iter().filter(|r| r.failed || !r.ok).count() as u64;
    out.check(
        "serve.bodies_match_in_process",
        out.failed == 0,
        format!(
            "{} of {} requests mismatched or failed",
            out.failed,
            all.len()
        ),
    );
    // Cold batches fanned in process, as the daemon fans them on a miss.
    let fan_ms: Vec<f64> = inputs
        .cold
        .iter()
        .take(40)
        .filter_map(|e| {
            let (spec, queries) = parse_batch(&e.text).ok()?;
            let shared = Arc::new(Mutex::new(Workbench::new(spec.clone())));
            let t0 = Instant::now();
            let r = t.span("serve.fan", 0, |_| {
                rtft_serve::fan::run_batch_fanned(&shared, &spec, &queries, THREADS)
            });
            r.ok().map(|_| common::ms(t0.elapsed()))
        })
        .collect();
    let sent = |r: &Record| r.done_ms - r.sent_ms;
    let warm: Vec<f64> = all
        .iter()
        .filter(|r| matches!(r.kind, Kind::Warm(_)))
        .map(|r| sent(r))
        .collect();
    let warm_due: Vec<f64> = all
        .iter()
        .filter(|r| matches!(r.kind, Kind::Warm(_)))
        .map(|r| r.done_ms - r.due_ms)
        .collect();
    let cold_due: Vec<f64> = all
        .iter()
        .filter(|r| matches!(r.kind, Kind::Cold(_)))
        .map(|r| r.done_ms - r.due_ms)
        .collect();
    let stats_ms: Vec<f64> = all
        .iter()
        .filter(|r| r.kind == Kind::Stats)
        .map(|r| sent(r))
        .collect();
    let late: Vec<f64> = m
        .high
        .iter()
        .map(|r| (r.sent_ms - r.due_ms).max(0.0))
        .collect();
    out.metric("serve.route.ms_p50", m.after.p50_ms, "ms", all.len());
    out.metric("serve.route.ms_p99", m.after.p99_ms, "ms", all.len());
    out.metric(
        "serve.transport.ms_p50",
        common::quantile(&warm, 0.5) - m.after.p50_ms,
        "ms",
        warm.len(),
    );
    out.metric(
        "serve.warm.latency_ms_p50",
        common::quantile(&warm_due, 0.5),
        "ms",
        warm_due.len(),
    );
    out.metric(
        "serve.cold.latency_ms_p99",
        common::quantile(&cold_due, 0.99),
        "ms",
        cold_due.len(),
    );
    out.metric(
        "serve.stats.latency_ms_p50",
        common::quantile(&stats_ms, 0.5),
        "ms",
        stats_ms.len(),
    );
    out.metric(
        "serve.generator.late_ms_p99",
        common::quantile(&late, 0.99),
        "ms",
        late.len(),
    );
    let hits = m.after.hits - m.before.hits;
    let misses = m.after.misses - m.before.misses;
    out.metric("serve.cache.hits", hits, "count", all.len());
    out.metric("serve.cache.misses", misses, "count", all.len());
    out.metric(
        "serve.cache.evictions",
        m.after.evictions - m.before.evictions,
        "count",
        all.len(),
    );
    out.metric(
        "serve.cache.hit_ratio",
        hits / (hits + misses).max(1.0),
        "ratio",
        all.len(),
    );
    out.metric(
        "serve.fan.ms_p50",
        common::quantile(&fan_ms, 0.5),
        "ms",
        fan_ms.len(),
    );
}
