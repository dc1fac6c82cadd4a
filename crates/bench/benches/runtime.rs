//! Engine comparison: the same skewed weighted-SWOR scenario on the
//! lockstep simulator vs. the `dwrs-runtime` threads and epoll
//! (loopback-TCP) substrates, all routed through the scenario driver
//! (`run_scenario`).
//! Throughput is items/second over the whole streaming run — generation,
//! dispatch and protocol overlap inside the timed window, and resident
//! memory stays O(batch × queue) rather than O(n).
//!
//! The expectation tracked by CI (`BENCH_runtime.json`): with ≥ 4 sites on
//! a multi-core host the threaded engine meets or beats lockstep, because
//! site-side `observe` work — the dominant cost — runs in parallel with
//! workload generation on the dispatcher thread, and only protocol
//! messages cross the (batched) channels. On a single-core host no
//! parallel speedup is possible and the threaded engine instead shows its
//! overhead floor: the scheduler cost of time-slicing the dispatcher,
//! k site threads and the coordinator.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use dwrs_runtime::{run_scenario, EngineKind, RuntimeConfig, Scenario, Workload};

const N: usize = 1_000_000;
const S: usize = 64;

fn scenario(engine: EngineKind, k: usize) -> Scenario {
    Scenario::new(engine, k, S)
        .with_n(N as u64)
        .with_seed(7)
        .with_workload(Workload::Zipf { alpha: 1.2 })
}

fn engines(c: &mut Criterion) {
    let mut g = c.benchmark_group("runtime_engines");
    g.throughput(Throughput::Elements(N as u64));
    g.sample_size(10);
    for k in [4usize, 8] {
        for engine in [EngineKind::Lockstep, EngineKind::Threads, EngineKind::Epoll] {
            let sc = scenario(engine, k);
            g.bench_with_input(
                BenchmarkId::new(engine.to_string(), format!("k{k}")),
                &sc,
                |b, sc| {
                    b.iter(|| {
                        let report = run_scenario(sc).expect("run");
                        black_box(report.metrics.total())
                    });
                },
            );
        }
    }
    g.finish();
}

fn batching(c: &mut Criterion) {
    // Sensitivity of the threaded engine to the flush threshold.
    let mut g = c.benchmark_group("runtime_batching");
    g.throughput(Throughput::Elements(N as u64));
    g.sample_size(10);
    for batch in [1usize, 16, 64, 256] {
        let sc = scenario(EngineKind::Threads, 8)
            .with_runtime(RuntimeConfig::new().with_batch_max(batch));
        g.bench_with_input(
            BenchmarkId::from_parameter(format!("batch{batch}")),
            &sc,
            |b, sc| {
                b.iter(|| {
                    let report = run_scenario(sc).expect("run");
                    black_box(report.metrics.total())
                });
            },
        );
    }
    g.finish();
}

fn streaming_vs_materialized(c: &mut Criterion) {
    // The driver's headline tradeoff, measured directly: the same stream
    // executed streaming (generation inside the run, O(batch × queue)
    // memory) vs pre-materialized (generation outside the timed window,
    // O(n) memory — the pre-driver execution model).
    let mut g = c.benchmark_group("runtime_streaming_vs_materialized");
    g.throughput(Throughput::Elements(N as u64));
    g.sample_size(10);
    let streaming = scenario(EngineKind::Threads, 8);
    g.bench_function("streaming", |b| {
        b.iter(|| black_box(run_scenario(&streaming).expect("run").metrics.total()))
    });
    let items: Vec<_> = streaming.source().expect("source").collect();
    let materialized = scenario(EngineKind::Threads, 8).with_workload(Workload::items(items));
    g.bench_function("materialized", |b| {
        b.iter(|| black_box(run_scenario(&materialized).expect("run").metrics.total()))
    });
    g.finish();
}

criterion_group!(benches, engines, batching, streaming_vs_materialized);
criterion_main!(benches);
