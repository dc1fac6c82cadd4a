//! Property-based integration tests: protocol invariants under arbitrary
//! streams, weights, partitionings and seeds.

use dwrs::core::swor::{epoch_of, level_of, LevelTable, SworConfig};
use dwrs::core::topk::{Offer, TopK};
use dwrs::core::{Item, Keyed};
use dwrs::sim::{build_swor, build_swor_faithful};
use proptest::prelude::*;

/// Strategy: a stream of up to 300 items with weights spanning 5 orders of
/// magnitude, plus a site assignment. Weights respect the paper's standing
/// `w ≥ 1` convention (Section 2.1) — Lemma 1's bound is stated under it
/// (level 0 spans `[0, r)`, so sub-1 weights can exceed the `1/(4s)`
/// release fraction).
fn stream_strategy() -> impl Strategy<Value = (Vec<(usize, f64)>, u64, usize, usize)> {
    (
        proptest::collection::vec((0usize..4, 1.0f64..100_000.0), 1..300),
        any::<u64>(),
        1usize..6, // s
        1usize..5, // k (site indices are taken mod k)
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn sample_size_is_min_t_s_at_all_times((stream, seed, s, k) in stream_strategy()) {
        let mut runner = build_swor(SworConfig::new(s, k), seed);
        for (t, (site, w)) in stream.iter().enumerate() {
            runner.step(site % k, Item::new(t as u64, *w));
            let sample = runner.coordinator.sample();
            prop_assert_eq!(sample.len(), (t + 1).min(s));
            // Keys sorted descending, all finite positive.
            for win in sample.windows(2) {
                prop_assert!(win[0].key >= win[1].key);
            }
            for kd in &sample {
                prop_assert!(kd.key > 0.0 && kd.key.is_finite());
            }
        }
    }

    #[test]
    fn u_is_monotone_and_epochs_advance((stream, seed, s, k) in stream_strategy()) {
        let mut runner = build_swor(SworConfig::new(s, k), seed);
        let mut last_u = 0.0f64;
        let mut last_epoch: Option<i64> = None;
        for (t, (site, w)) in stream.iter().enumerate() {
            runner.step(site % k, Item::new(t as u64, *w));
            let u = runner.coordinator.u();
            prop_assert!(u >= last_u, "u regressed: {} -> {}", last_u, u);
            last_u = u;
            let e = runner.coordinator.epoch();
            if let (Some(prev), Some(cur)) = (last_epoch, e) {
                prop_assert!(cur >= prev, "epoch regressed");
            }
            if e.is_some() {
                last_epoch = e;
            }
        }
    }

    #[test]
    fn optimized_equals_faithful((stream, seed, s, k) in stream_strategy()) {
        let cfg = SworConfig::new(s, k);
        let mut fast = build_swor(cfg.clone(), seed);
        let mut slow = build_swor_faithful(cfg, seed);
        for (t, (site, w)) in stream.iter().enumerate() {
            fast.step(site % k, Item::new(t as u64, *w));
            slow.step(site % k, Item::new(t as u64, *w));
            let a: Vec<(u64, u64)> = fast.coordinator.sample().iter()
                .map(|kd| (kd.item.id, kd.key.to_bits())).collect();
            let b: Vec<(u64, u64)> = slow.coordinator.sample().iter()
                .map(|kd| (kd.item.id, kd.key.to_bits())).collect();
            prop_assert_eq!(a, b, "diverged at step {}", t);
        }
    }

    #[test]
    fn lemma1_release_fraction_bounded((stream, seed, s, k) in stream_strategy()) {
        let cfg = SworConfig::new(s, k);
        let mut runner = build_swor(cfg, seed);
        for (t, (site, w)) in stream.iter().enumerate() {
            runner.step(site % k, Item::new(t as u64, *w));
        }
        let frac = runner.coordinator.stats.max_release_fraction;
        // Lemma 1 at the coordinator's (conservative) accounting.
        prop_assert!(
            frac <= 1.0 / (4.0 * s as f64) + 1e-12,
            "release fraction {} exceeds 1/(4s)", frac
        );
    }

    #[test]
    fn delayed_delivery_preserves_sample_semantics(
        (stream, seed, s, k) in stream_strategy(),
        latency in 1u64..200
    ) {
        // The sample must remain exactly the top-s of all keys generated so
        // far regardless of broadcast latency. We verify the structural
        // parts: size, ordering and positivity at every step, plus that
        // total messages only grow vs instant delivery.
        let cfg = SworConfig::new(s, k);
        let mut instant = build_swor(cfg.clone(), seed);
        let mut delayed = build_swor(cfg, seed).with_latency(latency);
        for (t, (site, w)) in stream.iter().enumerate() {
            instant.step(site % k, Item::new(t as u64, *w));
            delayed.step(site % k, Item::new(t as u64, *w));
            prop_assert_eq!(
                delayed.coordinator.sample().len(),
                (t + 1).min(s)
            );
        }
        prop_assert!(
            delayed.metrics.up_total + 8 >= instant.metrics.up_total / 2,
            "delayed lost messages: {} vs {}",
            delayed.metrics.up_total, instant.metrics.up_total
        );
    }

    #[test]
    fn topk_matches_reference_sort(keys in proptest::collection::vec(0.0f64..1e12, 1..200), cap in 1usize..20) {
        let mut topk = TopK::new(cap);
        for (i, &key) in keys.iter().enumerate() {
            let outcome = topk.offer(Keyed::new(Item::new(i as u64, 1.0), key));
            match outcome {
                Offer::Inserted | Offer::Replaced(_) | Offer::Rejected => {}
            }
        }
        let got: Vec<f64> = topk.sorted_desc().iter().map(|kd| kd.key).collect();
        let mut expect = keys.clone();
        expect.sort_by(|a, b| b.total_cmp(a));
        expect.truncate(cap);
        prop_assert_eq!(got, expect);
    }

    #[test]
    fn level_of_is_consistent_with_bounds(w in 0.0001f64..1e15, r in 1.5f64..64.0) {
        let level = level_of(w, r);
        if level > 0 {
            // w ∈ [r^level, r^(level+1))
            prop_assert!(r.powi(level as i32) <= w * (1.0 + 1e-12));
            prop_assert!(w < r.powi(level as i32 + 1) * (1.0 + 1e-12));
        } else {
            prop_assert!(w < r);
        }
    }

    #[test]
    fn level_table_equals_level_of(
        r in 1.5f64..64.0,
        exps in proptest::collection::vec(-3.0f64..300.0, 1..64),
    ) {
        // Weights log-uniform over [1e-3, 1e300], looked up in one table
        // so it grows across calls as a site's does.
        let mut table = LevelTable::new(r);
        for e in exps {
            let w = 10f64.powf(e);
            prop_assert_eq!(table.level(w), level_of(w, r), "r = {}, w = {:e}", r, w);
        }
    }

    #[test]
    fn epoch_of_is_consistent(u in 0.0f64..1e15, r in 1.5f64..64.0) {
        match epoch_of(u, r) {
            None => prop_assert!(u < 1.0),
            Some(j) => {
                prop_assert!(j >= 0);
                let lo = r.powi(j as i32);
                let hi = r.powi(j as i32 + 1);
                prop_assert!(lo <= u * (1.0 + 1e-12) && u < hi * (1.0 + 1e-12));
            }
        }
    }
}
