//! Tree-vs-flat topology comparison on the concurrent runtime: the same
//! skewed weighted-SWOR workload as a flat `k`-site scenario and as a
//! `g × (k/g)` fan-in tree scenario, across engines and root-sync
//! cadences — every combination one `Scenario` handed to `run_scenario`,
//! streaming at O(batch × queue) memory.
//!
//! What the sweeps measure:
//!
//! * **`tree_vs_flat`** — end-to-end throughput (items/s) of flat vs. tree
//!   on the threads and epoll (loopback-TCP) substrates. The tree adds `g`
//!   aggregator threads and one root thread; on a multi-core host the
//!   extra pipeline stages overlap with site work, so the tree's overhead
//!   is the sync traffic, not wall-clock serialization.
//! * **`tree_sync_rate`** — message-rate cost of freshness: total messages
//!   (intra-group protocol + aggregator→root sync tier) as `sync_every`
//!   sweeps from chatty to lazy. The sync tier costs `g·s/sync_every`
//!   messages per item, so halving the period roughly doubles `"sync"`
//!   traffic while the intra-group tier stays put — the bounded-staleness
//!   vs. message-rate tradeoff quantified.
//!
//! CI runs each target once (`cargo bench -p dwrs-bench -- --test`) and
//! separately collects `BENCH_tree.json` from CLI runs of the same shapes.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use dwrs_runtime::{run_scenario, EngineKind, Scenario, Topology, Workload};

const N: usize = 1_000_000;
const S: usize = 64;
const K: usize = 8;

fn scenario(engine: EngineKind, topology: Topology) -> Scenario {
    Scenario::new(engine, K, S)
        .with_n(N as u64)
        .with_seed(7)
        .with_workload(Workload::Zipf { alpha: 1.2 })
        .with_topology(topology)
}

fn tree_vs_flat(c: &mut Criterion) {
    let mut g = c.benchmark_group("tree_vs_flat");
    g.throughput(Throughput::Elements(N as u64));
    g.sample_size(10);
    let tree = Topology::Tree {
        groups: 2,
        sync_every: 10_000,
    };
    for engine in [EngineKind::Threads, EngineKind::Epoll] {
        for (name, topology) in [("flat", Topology::Flat), ("tree", tree)] {
            let sc = scenario(engine, topology);
            g.bench_with_input(BenchmarkId::new(name, engine.to_string()), &sc, |b, sc| {
                b.iter(|| {
                    let report = run_scenario(sc).expect("run");
                    black_box(report.metrics.total())
                });
            });
        }
    }
    g.finish();
}

fn tree_sync_rate(c: &mut Criterion) {
    let mut g = c.benchmark_group("tree_sync_rate");
    g.throughput(Throughput::Elements(N as u64));
    g.sample_size(10);
    for sync_every in [1_000u64, 10_000, 100_000] {
        let sc = scenario(
            EngineKind::Threads,
            Topology::Tree {
                groups: 2,
                sync_every,
            },
        );
        g.bench_with_input(
            BenchmarkId::from_parameter(format!("every{sync_every}")),
            &sc,
            |b, sc| {
                b.iter(|| {
                    let report = run_scenario(sc).expect("run");
                    // The quantity under test: total message rate
                    // including the sync tier.
                    black_box((report.metrics.total(), report.metrics.kind("sync")))
                });
            },
        );
    }
    g.finish();
}

criterion_group!(benches, tree_vs_flat, tree_sync_rate);
criterion_main!(benches);
