//! Integration: the full weighted-SWOR protocol over real loopback TCP
//! sockets on the event-driven (`run_epoll`) engine, against the
//! in-process channel engine.

use dwrs_core::swor::{SworConfig, SworCoordinator, SworSite};
use dwrs_core::Item;
use dwrs_runtime::{
    run_epoll, run_threads, EngineKind, ItemFeed, RunOutput, RuntimeConfig, VecFeed,
};
use dwrs_sim::{swor_coordinator, swor_site};

/// Item `i` goes to site `i % k`, in stream order.
fn round_robin(items: &[Item], k: usize) -> Vec<Vec<Item>> {
    (0..k)
        .map(|site| items.iter().skip(site).step_by(k).copied().collect())
        .collect()
}

/// The weighted-SWOR deployment (seeded like the lockstep builders) over
/// per-site partitions on one of the concurrent engines.
fn swor_on_engine(
    engine: EngineKind,
    cfg: SworConfig,
    seed: u64,
    streams: Vec<Vec<Item>>,
) -> RunOutput<SworSite, SworCoordinator> {
    let sites = (0..cfg.num_sites)
        .map(|i| swor_site(&cfg, seed, i))
        .collect();
    let coordinator = swor_coordinator(cfg, seed);
    let rcfg = RuntimeConfig::default();
    match engine {
        EngineKind::Threads => run_threads(sites, coordinator, streams, &rcfg),
        EngineKind::Epoll => {
            let feeds = streams
                .into_iter()
                .map(|part| Box::new(VecFeed::new(part)) as Box<dyn ItemFeed>)
                .collect();
            run_epoll(sites, coordinator, feeds, &rcfg)
        }
        EngineKind::Lockstep => unreachable!("lockstep runs through run_scenario"),
    }
    .unwrap_or_else(|e| panic!("{engine} run: {e}"))
}

#[test]
fn tcp_and_threads_agree_on_heavy_hitter_inclusion() {
    // Same deployment, same seed, every concurrent substrate: the heaviest
    // item of a very skewed stream must be sampled by each (its inclusion
    // probability is overwhelming at this weight ratio).
    let k = 4;
    let mut items = dwrs_workloads::zipf_ranked(20_000, 1.5, 3);
    // Make rank-1 truly dominant.
    let max_id = items
        .iter()
        .max_by(|a, b| a.weight.total_cmp(&b.weight))
        .unwrap()
        .id;
    for it in &mut items {
        if it.id == max_id {
            it.weight *= 1e6;
        }
    }
    for engine in [EngineKind::Threads, EngineKind::Epoll] {
        let out = swor_on_engine(engine, SworConfig::new(8, k), 555, round_robin(&items, k));
        assert!(
            out.coordinator
                .sample()
                .iter()
                .any(|kd| kd.item.id == max_id),
            "engine {engine}: dominant item missing from sample"
        );
    }
}
