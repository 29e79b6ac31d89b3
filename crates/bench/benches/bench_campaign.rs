//! Campaign-engine benchmarks: batch throughput and parallel scaling.
//!
//! * `campaign_scale/workers/<n>` — the same 500-job grid executed with
//!   1, 2, 4 and 8 workers. The per-iteration time is one full campaign;
//!   with `Throughput::Elements(500)` the JSON records jobs/sec. On a
//!   multicore host the 1 → 4 step should cut the median by ≥ 2×; on a
//!   single-core container (CI sandboxes) the curve is flat — compare
//!   against the recorded `host_parallelism` row before judging.
//! * `campaign_oracle/{on,off}` — what the differential oracle costs per
//!   job (sequential, so the delta is pure oracle work).
//! * `campaign_vs_harness` — engine bookkeeping overhead: the same jobs
//!   through `run_campaign` (1 worker) vs a bare `run_scenario_buffered`
//!   loop.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use rtft_campaign::prelude::*;
use rtft_core::analyzer::Analyzer;
use rtft_ft::harness::run_scenario_buffered;
use rtft_sim::engine::SimBuffers;
use std::hint::black_box;

/// A 500-job grid: 25 UUniFast systems × 2 fault plans × 5 treatments ×
/// 2 platforms.
fn grid_500() -> CampaignSpec {
    parse_spec(
        "campaign bench-grid
horizon 600ms
oracle on
taskgen uunifast n=4 u=0.6 seeds=0..25 periods=20ms..150ms
faults none
faults random p=0.05 mag=1ms..4ms jobs=16 seeds=0..1
treatment all
platform exact
platform jrate
",
    )
    .expect("bench grid parses")
}

fn bench_campaign_scale(c: &mut Criterion) {
    let spec = grid_500();
    let jobs = spec.job_count() as u64;
    assert!(jobs >= 500, "scaling grid must hold ≥ 500 jobs, got {jobs}");
    let mut group = c.benchmark_group("campaign_scale");
    group.throughput(Throughput::Elements(jobs));
    // Record the host's parallelism next to the scaling rows: the 1→4
    // speedup is only meaningful when the host has ≥ 4 CPUs.
    group.bench_function(
        BenchmarkId::new("host_parallelism", rtft_campaign::available_workers()),
        |b| b.iter(rtft_campaign::available_workers),
    );
    for workers in [1usize, 2, 4, 8] {
        group.bench_with_input(BenchmarkId::new("workers", workers), &spec, |b, spec| {
            let cfg = RunConfig::sequential().with_workers(workers);
            b.iter(|| {
                let report = run_campaign(black_box(spec), &cfg).expect("grid expands");
                assert!(report.oracle_clean());
                report.ran
            })
        });
    }
    group.finish();
}

fn bench_campaign_oracle(c: &mut Criterion) {
    let spec = parse_spec(
        "campaign oracle-cost
horizon 600ms
taskgen uunifast n=4 u=0.6 seeds=0..10 periods=20ms..150ms
faults random p=0.05 mag=1ms..4ms jobs=16 seeds=0..1
treatment detect
treatment equitable
platform exact
",
    )
    .expect("oracle grid parses");
    let jobs = spec.job_count() as u64;
    let mut group = c.benchmark_group("campaign_oracle");
    group.throughput(Throughput::Elements(jobs));
    for on in [true, false] {
        let label = if on { "on" } else { "off" };
        group.bench_with_input(BenchmarkId::from_parameter(label), &spec, |b, spec| {
            let cfg = RunConfig::sequential().with_oracle(on);
            b.iter(|| {
                run_campaign(black_box(spec), &cfg)
                    .expect("grid expands")
                    .ran
            })
        });
    }
    group.finish();
}

fn bench_campaign_vs_harness(c: &mut Criterion) {
    let spec = parse_spec(
        "campaign engine-overhead
horizon 600ms
oracle off
taskgen uunifast n=4 u=0.6 seeds=0..10 periods=20ms..150ms
treatment all
platform jrate
",
    )
    .expect("overhead grid parses");
    let jobs = spec.expand().expect("grid expands");
    let mut group = c.benchmark_group("campaign_vs_harness");
    group.throughput(Throughput::Elements(jobs.len() as u64));
    group.bench_function(BenchmarkId::from_parameter("engine_1worker"), |b| {
        let cfg = RunConfig::sequential().with_oracle(false);
        b.iter(|| {
            run_campaign(black_box(&spec), &cfg)
                .expect("grid expands")
                .ran
        })
    });
    group.bench_function(BenchmarkId::from_parameter("bare_harness_loop"), |b| {
        b.iter(|| {
            let mut ran = 0usize;
            let mut session: Option<(usize, Analyzer)> = None;
            for job in black_box(&jobs) {
                let refresh = match &session {
                    Some((ordinal, _)) => *ordinal != job.set_ordinal,
                    None => true,
                };
                if refresh {
                    session = Some((job.set_ordinal, Analyzer::new(&job.set)));
                }
                let analyzer = &mut session.as_mut().expect("installed").1;
                if run_scenario_buffered(&job.scenario(), analyzer, &mut SimBuffers::new()).is_ok()
                {
                    ran += 1;
                }
            }
            ran
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_campaign_scale,
    bench_campaign_oracle,
    bench_campaign_vs_harness
);
criterion_main!(benches);
