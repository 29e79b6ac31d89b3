//! `campaign_grid`: `run_campaign` with two workers and the oracle on,
//! over one seeded grid, timed as one campaign per task set, pass after
//! pass for the run time.

use crate::common::{self, Outcome, Tracer};
use rtft_campaign::oracle::{self, OracleOutcome};
use rtft_campaign::{parse_spec, run_campaign, CampaignReport, CampaignSpec, JobSpec, RunConfig};
use rtft_core::query::Placement;
use rtft_ft::harness::HarnessError;
use rtft_part::workbench::Workbench;
use rtft_sim::engine::SimBuffers;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

const WORKERS: usize = 2;

/// The grid: the paper system plus seeded UUniFast sets below and
/// above U = 1, under fp and npfp, on 1 and 4 cores, both placements,
/// fault-free and under three random fault plans, every treatment,
/// exact and jRate platforms. Sets at U > 1 on one core are wasted cells
/// by design (they count against `jobs.ran_ratio`).
///
/// EDF is left out: on generated sets its allowance searches cost
/// 0.1–0.6 s per set and worker, so with EDF in the grid analysis, not
/// simulation, is most of the run and its cost swings with the seed
/// (`query_cold` measures that search). Several fault plans per set keep
/// the once-per-set analysis a small share of the run; many sets over a
/// 3:1 period range keep the simulated event count, and so the run time,
/// from swinging with the seed.
///
/// Generated sets per line: 24 below U = 1 and 16 above.
const LIGHT_SETS: u64 = 24;
const HEAVY_SETS: u64 = 16;

fn spec_text(seed: u64) -> String {
    let s = seed.wrapping_mul(1000);
    grid_text(
        seed,
        &format!(
            "taskgen paper\n\
             taskgen uunifast n=6 u=0.75 seeds={s}..{} periods=25ms..75ms\n\
             taskgen uunifast n=12 u=1.8 cap=0.8 seeds={}..{} periods=25ms..75ms\n",
            s + LIGHT_SETS,
            s + 500,
            s + 500 + HEAVY_SETS
        ),
    )
}

/// The grid's axes over the given `taskgen` lines.
fn grid_text(seed: u64, sets: &str) -> String {
    let s = seed.wrapping_mul(1000);
    format!(
        "campaign bench-{seed}\n\
         horizon 1s\n\
         oracle on\n\
         {sets}\
         policy fp npfp\n\
         cores 1 4\n\
         placement all\n\
         faults none\n\
         faults random p=0.05 mag=1ms..4ms jobs=40 seeds={s}..{}\n\
         treatment all\n\
         platform exact\n\
         platform jrate\n",
        s + 3
    )
}

/// The timed units: the same grid cut into one campaign per task set
/// (41 campaigns of 320 jobs each).
fn unit_texts(seed: u64) -> Vec<String> {
    let s = seed.wrapping_mul(1000);
    let mut sets = vec!["taskgen paper\n".to_string()];
    sets.extend((s..s + LIGHT_SETS).map(|a| {
        format!(
            "taskgen uunifast n=6 u=0.75 seeds={a}..{} periods=25ms..75ms\n",
            a + 1
        )
    }));
    sets.extend((s + 500..s + 500 + HEAVY_SETS).map(|a| {
        format!(
            "taskgen uunifast n=12 u=1.8 cap=0.8 seeds={a}..{} periods=25ms..75ms\n",
            a + 1
        )
    }));
    sets.iter().map(|l| grid_text(seed, l)).collect()
}

fn config(workers: usize) -> RunConfig {
    RunConfig::sequential()
        .with_workers(workers)
        .with_oracle(true)
}

fn run_once(spec: &CampaignSpec, workers: usize) -> Result<CampaignReport, String> {
    run_campaign(spec, &config(workers)).map_err(|e| e.to_string())
}

/// Failed jobs: analysis errors and oracle violations.
fn failures(r: &CampaignReport) -> u64 {
    (r.errors + r.violations.len()) as u64
}

/// Set-ups timed before the measurement, and again after it; `setup_s`
/// is the median of all of them, so a slow stretch at start-up does not
/// read as a slower set-up.
const SETUPS: usize = 9;
/// Full passes over the units every run makes, however slow the host.
const MIN_PASSES: usize = 2;

struct State {
    spec: CampaignSpec,
    units: Vec<CampaignSpec>,
    /// Jobs of each unit, as expanded at set-up.
    unit_jobs: Vec<usize>,
    setup_secs: Vec<f64>,
}

/// Set-up: build and parse the seeded grid, and parse and expand its
/// units one at a time (the expansion generates every task set). The
/// whole grid is expanded only by the checks after the timed passes:
/// held at once, its jobs set the process's peak memory, and their size
/// varies by a third with the seed.
fn setup(seed: u64) -> Result<State, String> {
    let (setup_secs, built) = common::time_reps(SETUPS, || build(seed));
    let (spec, units, unit_jobs) = built?;
    Ok(State {
        spec,
        units,
        unit_jobs,
        setup_secs,
    })
}

/// The grid, its units and their job counts.
type Built = (CampaignSpec, Vec<CampaignSpec>, Vec<usize>);

fn build(seed: u64) -> Result<Built, String> {
    let spec = parse_spec(&spec_text(seed)).map_err(|e| e.to_string())?;
    let (units, unit_jobs) = unit_texts(seed)
        .iter()
        .map(|text| {
            let unit = parse_spec(text).map_err(|e| e.to_string())?;
            let jobs = unit.expand().map_err(|e| e.to_string())?.len();
            Ok::<_, String>((unit, jobs))
        })
        .collect::<Result<Vec<_>, _>>()?
        .into_iter()
        .unzip();
    Ok((spec, units, unit_jobs))
}

/// Run the units in order, pass after pass, until `seconds` have gone by
/// and at least [`MIN_PASSES`] passes are done. Each unit keeps its
/// fastest wall time: on a shared host a campaign of a few tens of
/// milliseconds is often slowed by other tenants, and the best of
/// several passes is the time the program itself takes.
pub fn run(seed: u64, seconds: f64, pinned: Option<u64>) -> Outcome {
    let mut out = Outcome::default();
    let st = match setup(seed) {
        Ok(st) => st,
        Err(e) => {
            out.check("campaign.setup", false, e);
            out.attempted = 1;
            out.failed = 1;
            return out;
        }
    };
    let mut best_ms = vec![f64::INFINITY; st.units.len()];
    let mut unit_digests = vec![None; st.units.len()];
    let mut jobs = 0u64;
    let mut drift = 0usize;
    let mut unclean = 0usize;
    let mut runs = 0usize;
    let mut rss_mb = f64::NAN;
    let start = Instant::now();
    while runs < MIN_PASSES * st.units.len() || start.elapsed().as_secs_f64() < seconds {
        let k = runs % st.units.len();
        let t0 = Instant::now();
        let result = run_once(&st.units[k], WORKERS);
        best_ms[k] = best_ms[k].min(common::ms(t0.elapsed()));
        runs += 1;
        // Peak RSS once every unit has run, before the whole-grid
        // checks below.
        if runs == st.units.len() {
            rss_mb = common::peak_rss_mb();
        }
        match result {
            Ok(r) => {
                jobs += r.jobs.len() as u64;
                if r.jobs.len() != st.unit_jobs[k] {
                    drift += 1;
                }
                out.failed += failures(&r);
                if !r.oracle_clean() || r.errors > 0 {
                    unclean += 1;
                }
                if *unit_digests[k].get_or_insert(r.digest()) != r.digest() {
                    drift += 1;
                }
            }
            Err(e) => {
                out.check("campaign.run", false, e);
                break;
            }
        }
    }
    let elapsed = start.elapsed().as_secs_f64();
    out.attempted = jobs.max(1);
    let grid_jobs: usize = st.unit_jobs.iter().sum();
    let mut setup_secs = st.setup_secs.clone();
    setup_secs.extend(common::time_reps(SETUPS, || build(seed)).0);
    out.metric(
        "setup_s",
        common::median(&setup_secs),
        "s",
        setup_secs.len(),
    );
    out.metric("peak_rss_mb", rss_mb, "MB", 1);
    out.metric(
        "ops_per_s",
        grid_jobs as f64 * 1e3 / best_ms.iter().sum::<f64>(),
        "1/s",
        grid_jobs,
    );
    common::latency_metrics(&mut out, &best_ms);
    out.extra(
        "completed_per_s",
        jobs as f64 / elapsed,
        "1/s",
        jobs as usize,
    );
    out.extra("grid_jobs", grid_jobs as f64, "count", 1);
    out.extra("passes", runs as f64 / st.units.len() as f64, "count", 1);
    out.extra(
        "error_ratio",
        out.failed as f64 / out.attempted as f64,
        "ratio",
        jobs as usize,
    );

    // The whole grid, after the timed passes: its report is the reference
    // for the checks.
    let (reference, sequential) = match (run_once(&st.spec, WORKERS), run_once(&st.spec, 1)) {
        (Ok(r), s) => (r, s),
        (Err(e), _) => {
            out.check("campaign.run", false, e);
            return out;
        }
    };
    let digest = reference.digest();
    out.check(
        "campaign.digest_workers_1_vs_2",
        sequential.as_ref().map(CampaignReport::digest) == Ok(digest),
        format!(
            "whole-grid digest {digest:016x} at 2 workers, {:?} at 1 worker",
            sequential.as_ref().map(|r| format!("{:016x}", r.digest()))
        ),
    );
    out.check(
        "campaign.units_cover_grid",
        grid_jobs == reference.jobs.len(),
        format!(
            "{} units hold {grid_jobs} jobs, the whole grid {}",
            st.units.len(),
            reference.jobs.len()
        ),
    );
    out.check(
        "campaign.units_repeatable",
        drift == 0,
        format!(
            "{runs} timed unit runs, {drift} with a digest other than the unit's first \
             or a job count other than its expansion"
        ),
    );
    out.check(
        "campaign.oracle_clean",
        reference.oracle_clean() && reference.errors == 0 && unclean == 0,
        format!(
            "whole grid: {} violations, {} analysis errors, {} oracle-checked of {} jobs; \
             {unclean} unclean timed unit runs",
            reference.violations.len(),
            reference.errors,
            reference.oracle_checked,
            reference.jobs.len()
        ),
    );
    match pinned {
        Some(p) => out.check(
            "campaign.pinned_digest",
            digest == p,
            format!("report digest {digest:016x}, pinned {p:016x}"),
        ),
        None => out.check(
            "campaign.report_digest",
            true,
            format!("report digest {digest:016x} (not the pinned seed)"),
        ),
    }
    out
}

/// Per-placement simulation cost and event counts of one profile pass.
#[derive(Default)]
struct SimTally {
    ns: BTreeMap<&'static str, u64>,
    events: BTreeMap<&'static str, u64>,
}

fn count_events(t: &mut Tracer, log: &rtft_trace::TraceLog) -> u64 {
    for e in log.events() {
        t.count(&format!("sim.events.{}", e.kind.tag()), 1.0);
    }
    log.len() as u64
}

/// The campaign job path, re-executed one call at a time so each layer
/// (session analysis, simulation, oracle) gets its own span. Mirrors the
/// engine's per-placement dispatch through public entry points.
fn profile_job(
    job: &JobSpec,
    session: &mut Option<(usize, Workbench)>,
    bufs: &mut SimBuffers,
    t: &mut Tracer,
    tally: &mut SimTally,
) {
    let id = job.index as u64;
    t.span("campaign.job", id, |t| {
        if !matches!(session, Some((o, _)) if *o == job.set_ordinal) {
            *session = Some((job.set_ordinal, Workbench::new(job.system_spec())));
        }
        let bench = &mut session.as_mut().expect("installed").1;
        let placement = match (job.cores, job.placement) {
            (1, _) => "uni",
            (_, Placement::Global) => "global",
            _ => "partitioned",
        };
        // Session analysis is lazy: placing and admitting the set
        // happens on first access.
        let placeable = t.span("campaign.analysis", id, |_| bench.unplaceable().is_none());
        if !placeable {
            return;
        }
        let sc = job.scenario();
        let sim_name = format!("sim.{placement}");
        let start = t.spans.len();
        match placement {
            "uni" => {
                let analyzer = bench.uni_session_mut().expect("uni session");
                let Ok(outcome) = t.span(&sim_name, id, |_| {
                    rtft_ft::harness::run_scenario_buffered(&sc, analyzer, bufs)
                }) else {
                    return;
                };
                *tally.events.entry(placement).or_default() += count_events(t, &outcome.log);
                t.span("campaign.oracle", id, |_| {
                    oracle::check(job, &outcome, analyzer)
                });
                bufs.recycle_log(outcome.log);
            }
            "global" => {
                let ga = bench.global_mut().expect("global session");
                let Ok(g) = t.span(&sim_name, id, |_| {
                    rtft_global::run_global_buffered(&sc, ga, bufs)
                }) else {
                    return;
                };
                *tally.events.entry(placement).or_default() += count_events(t, &g.outcome.log);
                t.span("campaign.oracle", id, |_| {
                    oracle::check_global(job, &g.outcome, ga)
                });
                bufs.recycle_log(g.outcome.log);
            }
            _ => {
                let pa = bench.partitioned_mut().expect("partitioned session");
                let multi = match t.span(&sim_name, id, |_| {
                    rtft_part::multicore::run_partitioned_buffered(&sc, pa, bufs)
                }) {
                    Ok(m) => m,
                    Err(HarnessError::InfeasibleBase | HarnessError::Analysis(_)) => return,
                };
                for run in &multi.cores {
                    *tally.events.entry(placement).or_default() +=
                        count_events(t, &run.outcome.log);
                }
                t.span("campaign.oracle", id, |_| {
                    multi
                        .cores
                        .iter()
                        .map(|run| {
                            let partition = pa.partition();
                            let cjob = JobSpec {
                                set_label: rtft_part::multicore::core_label(
                                    &job.set_label,
                                    run.core,
                                ),
                                set: Arc::new(
                                    partition.core_set(run.core).expect("occupied").clone(),
                                ),
                                faults: partition.core_faults(&job.faults, run.core),
                                cores: 1,
                                placement: Placement::Partitioned,
                                ..job.clone()
                            };
                            let s = pa.core_session_mut(run.core).expect("occupied core");
                            oracle::check(&cjob, &run.outcome, s)
                        })
                        .filter(|o| matches!(o, OracleOutcome::Violated(_)))
                        .count()
                });
            }
        }
        if let Some(s) = t.spans.get(start) {
            *tally.ns.entry(placement).or_default() += s.end_ns - s.start_ns;
        }
    });
}

pub fn traced(seed: u64, seconds: f64, t: &mut Tracer, out: &mut Outcome) {
    let spec = match t.span("campaign.spec", 0, |_| {
        let spec = parse_spec(&spec_text(seed)).map_err(|e| e.to_string())?;
        let jobs = spec.expand().map_err(|e| e.to_string())?;
        Ok::<_, String>((spec, jobs))
    }) {
        Ok(s) => s,
        Err(e) => {
            out.check("campaign.setup", false, e);
            return;
        }
    };
    let (spec, jobs) = spec;
    let mut walls = Vec::new();
    let mut report = None;
    let start = Instant::now();
    let mut i = 0u64;
    while walls.len() < 2 || start.elapsed().as_secs_f64() < seconds / 2.0 {
        let t0 = Instant::now();
        let r = t.span("campaign.run", i, |_| run_once(&spec, WORKERS));
        walls.push(t0.elapsed().as_secs_f64());
        if let Ok(r) = r {
            t.span("campaign.report", i, |_| {
                std::hint::black_box((r.render().len(), r.to_json().len(), r.digest()))
            });
            report = Some(r);
        }
        i += 1;
    }
    out.attempted = (jobs.len() * walls.len()) as u64;

    let mut session = None;
    let mut bufs = SimBuffers::new();
    let mut tally = SimTally::default();
    let profile_start = t.spans.len();
    for job in &jobs {
        profile_job(job, &mut session, &mut bufs, t, &mut tally);
    }
    let layers = t.layers();
    let get = |n: &str| layers.get(n).copied().unwrap_or_default();
    let per_call_ms = |n: &str| {
        let l = get(n);
        l.total_ns as f64 / l.calls.max(1) as f64 / 1e6
    };
    out.metric(
        "campaign.spec.ms",
        per_call_ms("campaign.spec"),
        "ms",
        get("campaign.spec").calls as usize,
    );
    out.metric(
        "campaign.report.ms",
        per_call_ms("campaign.report"),
        "ms",
        get("campaign.report").calls as usize,
    );
    for placement in ["uni", "partitioned", "global"] {
        let ns = tally.ns.get(placement).copied().unwrap_or(0) as f64;
        let ev = tally.events.get(placement).copied().unwrap_or(0);
        out.metric(
            &format!("sim.{placement}.ns_per_event"),
            ns / ev.max(1) as f64,
            "ns",
            ev as usize,
        );
    }
    for tag in [
        "release", "start", "end", "preempt", "resume", "miss", "detector", "fault", "grant",
        "stop", "idle", "simend",
    ] {
        let key = format!("sim.events.{tag}");
        out.metric(&key, t.counts.get(&key).copied().unwrap_or(0.0), "count", 1);
    }
    let job_ns: u64 = t.spans[profile_start..]
        .iter()
        .filter(|s| s.name == "campaign.job")
        .map(|s| s.end_ns - s.start_ns)
        .sum();
    let oracle_ns = get("campaign.oracle").total_ns;
    out.metric(
        "campaign.oracle.ms",
        oracle_ns as f64 / 1e6,
        "ms",
        get("campaign.oracle").calls as usize,
    );
    out.metric(
        "campaign.oracle.share",
        oracle_ns as f64 / job_ns.max(1) as f64,
        "ratio",
        jobs.len(),
    );
    let wall = common::median(&walls);
    let busy = wall * 1e9 * WORKERS as f64;
    out.metric(
        "campaign.engine.overhead_share",
        (busy - job_ns as f64) / busy,
        "ratio",
        walls.len(),
    );
    out.check(
        "campaign.oracle_clean",
        report
            .as_ref()
            .is_some_and(|r| r.oracle_clean() && r.errors == 0),
        "traced runs: no violations, no analysis errors",
    );
    if let Some(r) = &report {
        out.metric(
            "campaign.jobs.ran_ratio",
            r.ran as f64 / r.jobs.len().max(1) as f64,
            "ratio",
            r.jobs.len(),
        );
    }
}
