//! Integration: the hierarchical fan-in runtime must be *distributionally
//! equivalent* to the lockstep fan-in tree (ISSUE 3 tentpole), with every
//! engine×topology combination now driven through the unified scenario
//! driver (`run_scenario`).
//!
//! The concurrent tree runs every group in the delayed-delivery regime and
//! syncs aggregators to the root in frame granularity, so per-run message
//! counts differ from the lockstep `LockstepTree`; the root sampling
//! distribution may not: with fixed RNG seeds, root-sample inclusion
//! frequencies over many trials must pass the same `dwrs-stats`
//! calibration checks (chi², KS) against the lockstep tree on identical
//! input, and item-by-item against the exact oracle.
//!
//! Also asserted here: the bounded-staleness guarantee on root samples
//! (an aggregator's un-synced item lag never reaches `sync_every` plus one
//! frame's item window, and the final sync makes the root exact), the
//! paper-accounting byte decomposition across all tiers, and golden traces
//! that pin the deterministic lockstep tree bit for bit.

use dwrs::core::exact::inclusion_probabilities;
use dwrs::core::Item;
use dwrs::runtime::{run_scenario, EngineKind, Query, RuntimeConfig, Scenario, Topology, Workload};
use dwrs::sim::Partition;
use dwrs::stats::{chi2_two_sample, ks_two_sample};

/// Stream used by the distributional tests: the same 12-item instance the
/// flat equivalence suite validates against the exact oracle.
const WEIGHTS: [f64; 12] = [3.0, 1.0, 7.0, 1.0, 2.0, 9.0, 1.0, 4.0, 2.0, 1.0, 5.0, 30.0];

fn items() -> Vec<Item> {
    WEIGHTS
        .iter()
        .enumerate()
        .map(|(i, &w)| Item::new(i as u64, w))
        .collect()
}

/// 2 groups × 2 sites over the fixed 12-item stream; sync every item so
/// even the tiny stream syncs. Round-robin over 4 global sites reproduces
/// the `i % 4` assignment (global site `i` is site `i % 2` of group
/// `i / 2`).
fn scenario(engine: EngineKind, s: usize, seed: u64) -> Scenario {
    Scenario::new(engine, 4, s)
        .with_workload(Workload::items(items()))
        .with_seed(seed)
        .with_topology(Topology::Tree {
            groups: 2,
            sync_every: 1,
        })
        .with_runtime(
            RuntimeConfig::new()
                .with_batch_max(1)
                .with_queue_capacity(1),
        )
}

fn root_ids(engine: EngineKind, s: usize, seed: u64) -> Vec<u64> {
    let report = run_scenario(&scenario(engine, s, seed)).expect("tree run");
    assert!(report.invariants_ok(), "{:?}", report.violations);
    report.sample.iter().map(|kd| kd.item.id).collect()
}

#[test]
fn tree_inclusion_matches_lockstep_chi2() {
    // Two-sample chi-square between lockstep-tree and runtime-tree root
    // inclusion counts over many independent seeded runs.
    let s = 3;
    let trials = 3_000u64;
    let mut lockstep_counts = vec![0u64; WEIGHTS.len()];
    let mut threaded_counts = vec![0u64; WEIGHTS.len()];
    for t in 0..trials {
        for id in root_ids(EngineKind::Lockstep, s, 20_000 + t) {
            lockstep_counts[id as usize] += 1;
        }
        for id in root_ids(EngineKind::Threads, s, 80_000 + t) {
            threaded_counts[id as usize] += 1;
        }
    }
    let r = chi2_two_sample(&lockstep_counts, &threaded_counts);
    assert!(
        r.p_value > 1e-4,
        "distributions differ: chi2 = {:.2}, p = {:.2e}\nlockstep {lockstep_counts:?}\nthreaded {threaded_counts:?}",
        r.statistic,
        r.p_value
    );
}

#[test]
fn tree_inclusion_matches_exact_oracle() {
    // Stronger than agreeing with the lockstep tree: the runtime tree's
    // root-sample inclusion frequencies match the closed-form oracle within
    // binomial error, item by item.
    let s = 3;
    let trials = 3_000u64;
    let exact = inclusion_probabilities(&WEIGHTS, s);
    let mut counts = vec![0u64; WEIGHTS.len()];
    for t in 0..trials {
        for id in root_ids(EngineKind::Threads, s, 500_000 + t) {
            counts[id as usize] += 1;
        }
    }
    for (i, &c) in counts.iter().enumerate() {
        let p = exact[i];
        let emp = c as f64 / trials as f64;
        let se = (p * (1.0 - p) / trials as f64).sqrt().max(1e-6);
        assert!(
            (emp - p).abs() < 5.5 * se,
            "item {i}: empirical {emp:.4} vs exact {p:.4} (se {se:.4})"
        );
    }
}

#[test]
fn tree_top_key_distribution_matches_lockstep_ks() {
    // The largest root-sampled key is a continuous statistic of the whole
    // run; its distribution must agree between substrates (two-sample KS).
    let s = 2;
    let trials = 1_200u64;
    let top_key = |engine: EngineKind, seed: u64| {
        let report = run_scenario(&scenario(engine, s, seed)).expect("tree run");
        report
            .sample
            .iter()
            .map(|kd| kd.key)
            .fold(f64::MIN, f64::max)
    };
    let mut lockstep_keys = Vec::with_capacity(trials as usize);
    let mut threaded_keys = Vec::with_capacity(trials as usize);
    for t in 0..trials {
        lockstep_keys.push(top_key(EngineKind::Lockstep, 700_000 + t));
        threaded_keys.push(top_key(EngineKind::Threads, 900_000 + t));
    }
    let r = ks_two_sample(&lockstep_keys, &threaded_keys);
    assert!(
        r.p_value > 1e-4,
        "top-key distributions differ: D = {:.4}, p = {:.2e}",
        r.statistic,
        r.p_value
    );
}

#[test]
fn epoll_tree_inclusion_matches_lockstep_chi2() {
    // The event-driven tree multiplexes every group's sites onto one
    // shared reactor, so delivery interleavings differ from both the
    // lockstep tree and the thread-per-site tree — but the root sampling
    // distribution must not. Fewer trials than the threads test (each
    // trial builds real sockets), still ample chi² power.
    let s = 3;
    let trials = 600u64;
    let mut lockstep_counts = vec![0u64; WEIGHTS.len()];
    let mut epoll_counts = vec![0u64; WEIGHTS.len()];
    for t in 0..trials {
        for id in root_ids(EngineKind::Lockstep, s, 40_000 + t) {
            lockstep_counts[id as usize] += 1;
        }
        for id in root_ids(EngineKind::Epoll, s, 140_000 + t) {
            epoll_counts[id as usize] += 1;
        }
    }
    let r = chi2_two_sample(&lockstep_counts, &epoll_counts);
    assert!(
        r.p_value > 1e-4,
        "distributions differ: chi2 = {:.2}, p = {:.2e}\nlockstep {lockstep_counts:?}\nepoll {epoll_counts:?}",
        r.statistic,
        r.p_value
    );
}

#[test]
fn epoll_tree_inclusion_matches_exact_oracle() {
    let s = 3;
    let trials = 600u64;
    let exact = inclusion_probabilities(&WEIGHTS, s);
    let mut counts = vec![0u64; WEIGHTS.len()];
    for t in 0..trials {
        for id in root_ids(EngineKind::Epoll, s, 600_000 + t) {
            counts[id as usize] += 1;
        }
    }
    for (i, &c) in counts.iter().enumerate() {
        let p = exact[i];
        let emp = c as f64 / trials as f64;
        let se = (p * (1.0 - p) / trials as f64).sqrt().max(1e-6);
        assert!(
            (emp - p).abs() < 5.5 * se,
            "item {i}: empirical {emp:.4} vs exact {p:.4} (se {se:.4})"
        );
    }
}

#[test]
fn tree_engines_agree_on_large_skewed_stream_invariants() {
    // One large skewed streaming run per engine: full sample at the root,
    // per-tier byte accounting exact, bounded staleness respected, final
    // sync exact — the driver checks all of it, and the explicit
    // assertions below re-verify independently.
    let topo = Topology::Tree {
        groups: 2,
        sync_every: 5_000,
    };
    let s = 16;
    let n = 200_000u64;
    for engine in [EngineKind::Lockstep, EngineKind::Threads, EngineKind::Epoll] {
        let sc = Scenario::new(engine, 8, s)
            .with_n(n)
            .with_seed(77)
            .with_workload(Workload::Zipf { alpha: 1.2 })
            .with_topology(topo);
        let report = run_scenario(&sc).expect("run");
        assert_eq!(report.sample.len(), s, "engine {engine}");
        assert!(
            report.invariants_ok(),
            "engine {engine}: {:?}",
            report.violations
        );
        // Watermarks cover the whole stream.
        let covered: u64 = report.group_stats.iter().map(|st| st.items).sum();
        assert_eq!(covered, n, "engine {engine}");
        // Bounded staleness per group: un-synced lag stays under the sync
        // period plus one frame's item window (lockstep: window = 1).
        for (gi, st) in report.group_stats.iter().enumerate() {
            assert!(st.syncs >= 1, "engine {engine}: group {gi} never synced");
            assert!(
                st.max_unsynced < 5_000 + st.max_frame_items,
                "engine {engine}: group {gi} lag {} >= bound {}",
                st.max_unsynced,
                5_000 + st.max_frame_items
            );
        }
        // Final syncs make the root exact: the concurrent engines log each
        // group's last watermark equal to its item total.
        if engine != EngineKind::Lockstep {
            for (gi, st) in report.group_stats.iter().enumerate() {
                let last = report
                    .sync_log
                    .iter()
                    .rev()
                    .find(|&&(g, _)| g == gi)
                    .expect("group in sync log");
                assert_eq!(last.1, st.items, "engine {engine}: group {gi} not exact");
            }
        }
        // Paper-accounting byte decomposition across tiers: intra-group
        // frames (17 B early / 25 B regular / 5 B saturated / 9 B epoch)
        // plus SyncMsg frames (17 B header per sync + 24 B per entry).
        let m = &report.metrics;
        let syncs = report.syncs();
        assert_eq!(
            m.up_bytes,
            17 * m.kind("early") + 25 * m.kind("regular") + 17 * syncs + 24 * m.kind("sync"),
            "engine {engine}: upstream byte accounting"
        );
        assert_eq!(
            m.down_bytes,
            5 * m.kind("level_saturated") + 9 * m.kind("update_epoch"),
            "engine {engine}: downstream byte accounting"
        );
        // Broadcasts cost k_per_group within each group.
        assert_eq!(
            m.down_total,
            m.broadcast_events * 4,
            "engine {engine}: broadcast accounting"
        );
    }
}

#[test]
fn tree_sync_rate_trades_staleness_for_traffic() {
    // The g·s/sync_every message-rate tradeoff must be visible on the
    // runtime substrate exactly as in the lockstep tree.
    let run = |every: u64| {
        let sc = Scenario::new(EngineKind::Threads, 4, 8)
            .with_n(60_000)
            .with_seed(9)
            .with_workload(Workload::Zipf { alpha: 1.2 })
            .with_topology(Topology::Tree {
                groups: 2,
                sync_every: every,
            })
            .with_runtime(
                RuntimeConfig::new()
                    .with_batch_max(8)
                    .with_queue_capacity(8),
            );
        run_scenario(&sc).expect("run").metrics.kind("sync")
    };
    let chatty = run(100);
    let lazy = run(20_000);
    assert!(
        chatty > 10 * lazy.max(1),
        "sync period had no effect on root traffic: {chatty} vs {lazy}"
    );
}

/// Everything a deterministic lockstep tree run must reproduce exactly.
#[derive(Debug, PartialEq)]
struct TreeTrace {
    /// Root sample as `(item id, key bits)`.
    sample: Vec<(u64, u64)>,
    by_kind: Vec<(&'static str, u64)>,
    /// `(up_bytes, down_bytes)`.
    bytes: (u64, u64),
    /// Per group: `(syncs, max_unsynced)`.
    groups: Vec<(u64, u64)>,
    timeline: Vec<(u64, u64)>,
}

fn lockstep_trace(sc: &Scenario) -> TreeTrace {
    let report = run_scenario(sc).expect("lockstep tree run");
    assert!(report.invariants_ok(), "{:?}", report.violations);
    let m = report.metrics;
    TreeTrace {
        sample: report
            .sample
            .iter()
            .map(|kd| (kd.item.id, kd.key.to_bits()))
            .collect(),
        by_kind: m.by_kind.into_iter().collect(),
        bytes: (m.up_bytes, m.down_bytes),
        groups: report
            .group_stats
            .iter()
            .map(|st| (st.syncs, st.max_unsynced))
            .collect(),
        timeline: m.timeline,
    }
}

#[test]
fn lockstep_swor_and_rhh_trees_reproduce_golden_traces() {
    // Recorded from the dedicated lockstep SWOR tree this generic
    // `LockstepTree` replaced: same seeds, samples, counts, bytes, group
    // stats and per-sync timeline, bit for bit.
    let tree = |groups, sync_every| Topology::Tree { groups, sync_every };
    let cases = [
        (
            Scenario::new(EngineKind::Lockstep, 4, 8)
                .with_n(5_000)
                .with_seed(11)
                .with_workload(Workload::Uniform { lo: 1.0, hi: 10.0 })
                .with_topology(tree(2, 700)),
            TreeTrace {
                sample: vec![
                    (4424, 0x413e25df1d6128a0),
                    (1420, 0x410b6e6b9450aa2e),
                    (211, 0x40dd44e0ab0258e2),
                    (3117, 0x40b5a3824eeb476f),
                    (2998, 0x40b40f905c1855da),
                    (1562, 0x40b03cec7912c0aa),
                    (1676, 0x40aff90acf65ad01),
                    (370, 0x40aa0864d4e00bda),
                ],
                by_kind: vec![
                    ("early", 512),
                    ("level_saturated", 16),
                    ("regular", 84),
                    ("sync", 64),
                    ("update_epoch", 40),
                ],
                bytes: (12476, 440),
                groups: vec![(4, 700), (4, 700)],
                timeline: vec![
                    (1398, 8),
                    (1400, 16),
                    (2798, 24),
                    (2800, 32),
                    (4198, 40),
                    (4200, 48),
                    (5000, 56),
                    (5000, 64),
                ],
            },
        ),
        (
            Scenario::new(EngineKind::Lockstep, 6, 5)
                .with_n(3_000)
                .with_seed(7)
                .with_workload(Workload::Zipf { alpha: 1.2 })
                .with_partition(Partition::Random)
                .with_topology(tree(3, 250)),
            TreeTrace {
                sample: vec![
                    (1355, 0x40ed78be04a45c2f),
                    (2993, 0x40e935d3c3158cb4),
                    (2794, 0x40cb09e819bf51ac),
                    (2932, 0x40c4e43c61d7023e),
                    (1910, 0x40c4383ae11109d8),
                ],
                by_kind: vec![
                    ("early", 771),
                    ("level_saturated", 30),
                    ("regular", 128),
                    ("sync", 70),
                    ("update_epoch", 64),
                ],
                bytes: (18225, 726),
                groups: vec![(5, 250), (4, 250), (5, 250)],
                timeline: vec![
                    (673, 5),
                    (760, 10),
                    (804, 15),
                    (1462, 20),
                    (1472, 25),
                    (1558, 30),
                    (2208, 35),
                    (2275, 40),
                    (2283, 45),
                    (2933, 50),
                    (2999, 55),
                    (3000, 60),
                    (3000, 65),
                    (3000, 70),
                ],
            },
        ),
        (
            Scenario::new(EngineKind::Lockstep, 4, 8)
                .with_n(4_000)
                .with_seed(3)
                .with_workload(Workload::ResidualSkew { top: 4 })
                .with_query(Query::ResidualHh {
                    eps: 0.5,
                    delta: 0.5,
                })
                .with_topology(tree(2, 500)),
            TreeTrace {
                sample: vec![
                    (3186, 0x41b0fff731640a0f),
                    (3613, 0x41af732fdb058819),
                    (3934, 0x418a61de2fa72448),
                    (2232, 0x415242ab370bda78),
                    (1532, 0x411ace9dd419e4c4),
                    (3594, 0x40e5bab72f60998c),
                    (1612, 0x40d5fcb0168fc6af),
                    (926, 0x40cc4878f47d2caa),
                    (639, 0x40ca588e50e3c8d8),
                    (2592, 0x40ba1c04e1d201ac),
                    (2052, 0x40b8cf184afacd11),
                    (3173, 0x40b57d43464234f8),
                    (1778, 0x40b44d2da2f62f56),
                    (810, 0x40b44cab57f2d836),
                    (1858, 0x40b37b759baa7584),
                    (3218, 0x40b24bfa4d00788e),
                    (2761, 0x40a90b0248cb8051),
                ],
                by_kind: vec![
                    ("early", 1488),
                    ("level_saturated", 16),
                    ("regular", 230),
                    ("sync", 170),
                    ("update_epoch", 32),
                ],
                bytes: (35296, 368),
                groups: vec![(5, 500), (5, 500)],
                timeline: vec![
                    (998, 17),
                    (1000, 34),
                    (1998, 51),
                    (2000, 68),
                    (2998, 85),
                    (3000, 102),
                    (3998, 119),
                    (4000, 136),
                    (4000, 153),
                    (4000, 170),
                ],
            },
        ),
    ];
    for (sc, want) in &cases {
        assert_eq!(&lockstep_trace(sc), want, "{sc:?}");
    }
}
