//! Integration: the promoted application queries (ISSUE 5 tentpole) must
//! be *distributionally equivalent* across execution substrates, and the
//! heavy-hitter query must recover the exact oracle's required set —
//! mirroring `tests/runtime_equivalence.rs` for the SWOR base protocol.
//!
//! The threads/epoll engines run in the delayed-delivery regime, so
//! message counts differ from lockstep, but each query's *answer
//! distribution* may not: L1 estimates pass two-sample KS/chi² checks
//! between engines, residual-heavy-hitter recall is 1.0 against the exact
//! streaming oracle on every engine, and the sliding-window sample — a
//! protocol with no feedback path — is bit-identical across engines.

use dwrs::runtime::{
    run_scenario, EngineKind, Query, QueryAnswer, RuntimeConfig, Scenario, Topology, Workload,
};
use dwrs::stats::{chi2_two_sample, ks_two_sample};

const K: usize = 4;

fn scenario(engine: EngineKind, query: Query, n: u64, seed: u64) -> Scenario {
    Scenario::new(engine, K, 16)
        .with_n(n)
        .with_seed(seed)
        .with_workload(Workload::Zipf { alpha: 1.1 })
        .with_query(query)
        .with_runtime(
            RuntimeConfig::new()
                .with_batch_max(8)
                .with_queue_capacity(8),
        )
}

fn l1_estimate(engine: EngineKind, seed: u64) -> f64 {
    let q = Query::L1 {
        eps: 0.25,
        delta: 0.25,
    };
    let report = run_scenario(&scenario(engine, q, 2_000, seed)).expect("run");
    assert!(report.invariants_ok(), "{:?}", report.violations);
    match report.answer {
        QueryAnswer::L1 { estimate, .. } => estimate,
        other => panic!("wrong answer shape {other:?}"),
    }
}

#[test]
fn l1_estimate_distribution_matches_lockstep_ks() {
    // The estimate W~ is a continuous statistic of the whole run; its
    // distribution over independent seeds must agree between the lockstep
    // and threaded substrates (two-sample KS).
    let trials = 250u64;
    let mut lockstep = Vec::with_capacity(trials as usize);
    let mut threaded = Vec::with_capacity(trials as usize);
    for t in 0..trials {
        lockstep.push(l1_estimate(EngineKind::Lockstep, 40_000 + t));
        threaded.push(l1_estimate(EngineKind::Threads, 80_000 + t));
    }
    let r = ks_two_sample(&lockstep, &threaded);
    assert!(
        r.p_value > 1e-4,
        "L1 estimate distributions differ: D = {:.4}, p = {:.2e}",
        r.statistic,
        r.p_value
    );
    // And both distributions center on the true weight within the
    // theorem's ε. The threaded runs carry a small positive bias on top
    // of lockstep's: stale saturation bits produce extra early
    // duplicates, which enlarge the withheld set feeding the u_query
    // statistic — the usual delayed-delivery inflation, bounded by the
    // pipeline depth and well inside ε at this configuration.
    let true_w = {
        let report =
            run_scenario(&scenario(EngineKind::Lockstep, Query::Swor, 2_000, 1)).expect("run");
        report.total_weight
    };
    for (name, est) in [("lockstep", &lockstep), ("threads", &threaded)] {
        let mean: f64 = est.iter().sum::<f64>() / est.len() as f64;
        let rel = (mean - true_w).abs() / true_w;
        assert!(rel < 0.25, "{name}: mean estimate off by {rel:.3}");
    }
}

#[test]
fn l1_estimate_error_buckets_match_chi2() {
    // Bucket the signed relative error into coarse bins and compare the
    // histograms between engines — a sharper shape check than KS alone on
    // the discrete tail behaviour.
    let trials = 250u64;
    let edges = [-0.25, -0.1, 0.0, 0.1, 0.25];
    let bucket = |rel: f64| -> usize { edges.iter().filter(|&&e| rel > e).count() };
    let mut lockstep = vec![0u64; edges.len() + 1];
    let mut threaded = vec![0u64; edges.len() + 1];
    let true_w = {
        let report =
            run_scenario(&scenario(EngineKind::Lockstep, Query::Swor, 2_000, 1)).expect("run");
        report.total_weight
    };
    for t in 0..trials {
        let rel = (l1_estimate(EngineKind::Lockstep, 140_000 + t) - true_w) / true_w;
        lockstep[bucket(rel)] += 1;
        let rel = (l1_estimate(EngineKind::Threads, 180_000 + t) - true_w) / true_w;
        threaded[bucket(rel)] += 1;
    }
    let r = chi2_two_sample(&lockstep, &threaded);
    assert!(
        r.p_value > 1e-4,
        "error-bucket histograms differ: chi2 = {:.2}, p = {:.2e}\n\
         lockstep {lockstep:?}\nthreads {threaded:?}",
        r.statistic,
        r.p_value
    );
}

#[test]
fn rhh_recall_is_exact_on_every_engine_and_topology() {
    // The Theorem 4 guarantee end-to-end: on the residual-skew instance,
    // every required residual heavy hitter (per the exact streaming
    // oracle) appears in the candidate set — on every engine, flat and
    // tree.
    let query = Query::ResidualHh {
        eps: 0.2,
        delta: 0.05,
    };
    for engine in [EngineKind::Lockstep, EngineKind::Threads, EngineKind::Epoll] {
        for topology in [
            Topology::Flat,
            Topology::Tree {
                groups: 2,
                sync_every: 5_000,
            },
        ] {
            let sc = Scenario::new(engine, K, 16)
                .with_n(50_000)
                .with_seed(9)
                .with_workload(Workload::ResidualSkew { top: 4 })
                .with_topology(topology)
                .with_query(query);
            let report = run_scenario(&sc).expect("run");
            assert!(
                report.invariants_ok(),
                "{engine}/{topology:?}: {:?}",
                report.violations
            );
            match report.answer {
                QueryAnswer::ResidualHh {
                    required, recall, ..
                } => {
                    assert!(required > 0, "{engine}/{topology:?}: oracle found nothing");
                    assert!(
                        recall >= 0.999,
                        "{engine}/{topology:?}: recall {recall} of {required}"
                    );
                }
                other => panic!("wrong answer shape {other:?}"),
            }
        }
    }
}

#[test]
fn window_sample_is_bit_identical_across_engines() {
    // The sliding-window protocol has no coordinator→site feedback, so
    // identical seeds give identical per-site keys whatever the substrate
    // — the final window sample must agree bit for bit across all three
    // engines, seed by seed.
    let bits = |engine: EngineKind, seed: u64| -> Vec<(u64, u64)> {
        let q = Query::SlidingWindow { window: 3_000 };
        let report = run_scenario(&scenario(engine, q, 10_000, seed)).expect("run");
        assert!(report.invariants_ok(), "{:?}", report.violations);
        report
            .sample
            .iter()
            .map(|kd| (kd.item.id, kd.key.to_bits()))
            .collect()
    };
    for seed in [3u64, 77, 1234, 9999] {
        let lockstep = bits(EngineKind::Lockstep, seed);
        assert_eq!(lockstep.len(), 16, "seed {seed}");
        assert_eq!(lockstep, bits(EngineKind::Threads, seed), "seed {seed}");
        assert_eq!(lockstep, bits(EngineKind::Epoll, seed), "seed {seed}");
        // Everything sampled lies in the final window.
        assert!(lockstep.iter().all(|&(id, _)| id >= 10_000 - 3_000));
    }
}

#[test]
fn window_inclusion_matches_centralized_sampler() {
    // Distributional check against the centralized sliding-window sampler:
    // inclusion frequency of a planted heavy item near the window edge.
    use dwrs::apps::SlidingWindowSwor;
    use dwrs::core::Item;
    let (window, s, n) = (64u64, 4usize, 200u64);
    let heavy_id = n - 10;
    let weight = |i: u64| if i == heavy_id { 12.0 } else { 1.0 };
    let trials = 3_000u64;
    let (mut hits_runtime, mut hits_central) = (0u64, 0u64);
    for t in 0..trials {
        let items: Vec<Item> = (0..n).map(|i| Item::new(i, weight(i))).collect();
        let sc = Scenario::new(EngineKind::Lockstep, K, s)
            .with_workload(Workload::items(items.clone()))
            .with_seed(500_000 + t)
            .with_query(Query::SlidingWindow { window });
        let report = run_scenario(&sc).expect("run");
        if report.sample.iter().any(|kd| kd.item.id == heavy_id) {
            hits_runtime += 1;
        }
        let mut central = SlidingWindowSwor::new(s, window, 900_000 + t);
        for it in &items {
            central.observe(*it);
        }
        if central.sample().iter().any(|kd| kd.item.id == heavy_id) {
            hits_central += 1;
        }
    }
    let (p1, p2) = (
        hits_runtime as f64 / trials as f64,
        hits_central as f64 / trials as f64,
    );
    assert!(
        (p1 - p2).abs() < 0.035,
        "distributed window {p1:.3} vs centralized {p2:.3}"
    );
}
