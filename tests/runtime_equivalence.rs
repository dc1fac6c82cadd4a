//! Integration: the threaded runtime must be *distributionally equivalent*
//! to the lockstep simulator (ISSUE 2 satellite), with every engine now
//! driven through the unified scenario driver (`run_scenario`).
//!
//! The threaded engine delivers coordinator broadcasts asynchronously —
//! the delayed-delivery regime — so per-run message *counts* differ from
//! lockstep, but the sampling distribution may not: with fixed RNG seeds,
//! inclusion frequencies over many trials must pass the same
//! `dwrs-stats` calibration checks (chi², KS) against the lockstep
//! simulator on identical input.

use dwrs::core::exact::inclusion_probabilities;
use dwrs::core::Item;
use dwrs::runtime::{run_scenario, EngineKind, RuntimeConfig, Scenario, Workload};
use dwrs::stats::{chi2_two_sample, ks_two_sample};

/// Stream used throughout: 12 items with assorted weights (the same
/// instance `tests/distributed_vs_centralized.rs` validates against the
/// exact oracle).
const WEIGHTS: [f64; 12] = [3.0, 1.0, 7.0, 1.0, 2.0, 9.0, 1.0, 4.0, 2.0, 1.0, 5.0, 30.0];

const K: usize = 4;

fn items() -> Vec<Item> {
    WEIGHTS
        .iter()
        .enumerate()
        .map(|(i, &w)| Item::new(i as u64, w))
        .collect()
}

/// The fixed 12-item scenario: the in-memory workload adapter plus the
/// default round-robin partition reproduces the `i % K` site assignment
/// the oracle suite uses.
fn scenario(engine: EngineKind, s: usize, seed: u64) -> Scenario {
    // Tight pipeline: irrelevant for distribution, but keeps the traffic
    // regime close to lockstep on this tiny stream.
    Scenario::new(engine, K, s)
        .with_workload(Workload::items(items()))
        .with_seed(seed)
        .with_runtime(
            RuntimeConfig::new()
                .with_batch_max(1)
                .with_queue_capacity(1),
        )
}

fn sample_ids(engine: EngineKind, s: usize, seed: u64) -> Vec<u64> {
    let report = run_scenario(&scenario(engine, s, seed)).expect("run");
    assert!(report.invariants_ok(), "{:?}", report.violations);
    report.sample.iter().map(|kd| kd.item.id).collect()
}

#[test]
fn threaded_inclusion_matches_lockstep_chi2() {
    // Two-sample chi-square between lockstep and threaded inclusion counts
    // over many independent seeded runs.
    let s = 3;
    let trials = 4_000u64;
    let mut lockstep_counts = vec![0u64; WEIGHTS.len()];
    let mut threaded_counts = vec![0u64; WEIGHTS.len()];
    for t in 0..trials {
        for id in sample_ids(EngineKind::Lockstep, s, 10_000 + t) {
            lockstep_counts[id as usize] += 1;
        }
        for id in sample_ids(EngineKind::Threads, s, 60_000 + t) {
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
fn threaded_inclusion_matches_exact_oracle() {
    // Stronger than agreeing with lockstep: the threaded engine's
    // inclusion frequencies match the closed-form oracle within binomial
    // error, item by item.
    let s = 3;
    let trials = 4_000u64;
    let exact = inclusion_probabilities(&WEIGHTS, s);
    let mut counts = vec![0u64; WEIGHTS.len()];
    for t in 0..trials {
        for id in sample_ids(EngineKind::Threads, s, 300_000 + t) {
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
fn threaded_top_key_distribution_matches_lockstep_ks() {
    // The largest sampled key is a continuous statistic of the whole run;
    // its distribution must agree between engines (two-sample KS).
    let s = 2;
    let trials = 1_500u64;
    let top_key = |engine: EngineKind, seed: u64| {
        let report = run_scenario(&scenario(engine, s, seed)).expect("run");
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
fn epoll_inclusion_matches_lockstep_chi2() {
    // The event-driven engine reorders deliveries differently from the
    // thread-per-site engines (readiness order instead of scheduler
    // order), but the delayed-delivery argument is the same: inclusion
    // frequencies must be distributionally indistinguishable from
    // lockstep. Fewer trials than the threads test — each trial sets up
    // real sockets — but plenty for the chi² power we assert.
    let s = 3;
    let trials = 1_200u64;
    let mut lockstep_counts = vec![0u64; WEIGHTS.len()];
    let mut epoll_counts = vec![0u64; WEIGHTS.len()];
    for t in 0..trials {
        for id in sample_ids(EngineKind::Lockstep, s, 20_000 + t) {
            lockstep_counts[id as usize] += 1;
        }
        for id in sample_ids(EngineKind::Epoll, s, 80_000 + t) {
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
fn epoll_inclusion_matches_exact_oracle() {
    // Item-by-item agreement with the closed-form inclusion
    // probabilities, within binomial error.
    let s = 3;
    let trials = 1_200u64;
    let exact = inclusion_probabilities(&WEIGHTS, s);
    let mut counts = vec![0u64; WEIGHTS.len()];
    for t in 0..trials {
        for id in sample_ids(EngineKind::Epoll, s, 400_000 + t) {
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
fn epoll_top_key_distribution_matches_lockstep_ks() {
    let s = 2;
    let trials = 800u64;
    let top_key = |engine: EngineKind, seed: u64| {
        let report = run_scenario(&scenario(engine, s, seed)).expect("run");
        report
            .sample
            .iter()
            .map(|kd| kd.key)
            .fold(f64::MIN, f64::max)
    };
    let mut lockstep_keys = Vec::with_capacity(trials as usize);
    let mut epoll_keys = Vec::with_capacity(trials as usize);
    for t in 0..trials {
        lockstep_keys.push(top_key(EngineKind::Lockstep, 1_700_000 + t));
        epoll_keys.push(top_key(EngineKind::Epoll, 1_900_000 + t));
    }
    let r = ks_two_sample(&lockstep_keys, &epoll_keys);
    assert!(
        r.p_value > 1e-4,
        "top-key distributions differ: D = {:.4}, p = {:.2e}",
        r.statistic,
        r.p_value
    );
}

#[test]
fn concurrent_engines_keep_message_cost_near_lockstep() {
    // The paper's headline is the message bound. The concurrent engines
    // run in the delayed-delivery regime, so they may exceed lockstep by
    // the candidates a site ships before a fresher threshold reaches it,
    // and the bounded up path (`queue_capacity` batches: the channel on
    // threads, credits from encode to coordinator on epoll) keeps that
    // window short. Without the credits epoll sent 5-20x lockstep here.
    const MAX_RATIO: u64 = 6;
    for seed in 1..=5 {
        let scenario = |engine| {
            Scenario::new(engine, 64, 64)
                .with_n(200_000)
                .with_seed(seed)
                .with_workload(Workload::Zipf { alpha: 1.1 })
        };
        let lockstep = run_scenario(&scenario(EngineKind::Lockstep))
            .expect("run")
            .metrics
            .total();
        for engine in [EngineKind::Threads, EngineKind::Epoll] {
            let report = run_scenario(&scenario(engine)).expect("run");
            assert!(
                report.invariants_ok(),
                "seed {seed}, engine {engine}: {:?}",
                report.violations
            );
            let msgs = report.metrics.total();
            assert!(
                msgs <= MAX_RATIO * lockstep,
                "seed {seed}, engine {engine}: {msgs} messages, over {MAX_RATIO}x lockstep's {lockstep}"
            );
        }
    }
}

#[test]
fn engines_agree_on_large_skewed_stream_invariants() {
    // One large skewed streaming run per engine through the driver:
    // identical final sample size, exact byte accounting on both sides
    // (the driver's own invariant checks), and bounded dispatch.
    let k = 4;
    let s = 16;
    let n = 100_000u64;
    for engine in [EngineKind::Lockstep, EngineKind::Threads, EngineKind::Epoll] {
        let sc = Scenario::new(engine, k, s)
            .with_n(n)
            .with_seed(77)
            .with_workload(Workload::Zipf { alpha: 1.2 });
        let report = run_scenario(&sc).expect("run");
        assert_eq!(report.items, n, "engine {engine}");
        assert_eq!(report.sample.len(), s, "engine {engine}");
        // The driver checks sample size, exact per-kind byte
        // decomposition, broadcast accounting and key-vs-threshold
        // consistency; a healthy run reports no violations.
        assert!(
            report.invariants_ok(),
            "engine {engine}: {:?}",
            report.violations
        );
        // Spot-check the decomposition independently of the driver.
        let m = &report.metrics;
        assert_eq!(
            m.up_bytes,
            17 * m.kind("early") + 25 * m.kind("regular"),
            "engine {engine}: upstream byte accounting"
        );
        assert_eq!(
            m.down_bytes,
            5 * m.kind("level_saturated") + 9 * m.kind("update_epoch"),
            "engine {engine}: downstream byte accounting"
        );
        assert_eq!(m.down_total, m.broadcast_events * k as u64);
        // Concurrent engines stream through the bounded dispatcher.
        if engine != EngineKind::Lockstep {
            let d = report.dispatcher.expect("dispatcher stats");
            assert_eq!(d.items, n, "engine {engine}");
            assert!(
                d.peak_in_flight_frames <= d.in_flight_bound(),
                "engine {engine}: {} > bound {}",
                d.peak_in_flight_frames,
                d.in_flight_bound()
            );
        }
    }
}
