//! Literal Algorithm 2 coordinator: stores each level set `D_j` in full.
//!
//! This is the verbatim pseudocode version, used to validate that the
//! O(s)-space optimized [`super::coordinator::SworCoordinator`]
//! (Proposition 6) has identical *query* behaviour: fed the same message
//! sequence with the same RNG seed, both produce the same top-`s` answer at
//! every time step (property-tested in this module and in the integration
//! suite).
//!
//! The two may transiently disagree on the *contents of `S`* (an item the
//! optimized variant dropped can sit in the faithful `S` while being beaten
//! by `s` withheld items) — the paper's "without changing its output
//! behavior" claim is about query answers, which we verify.

use std::collections::HashMap;

use crate::item::Keyed;
use crate::keys::assign_key;
use crate::rng::Rng;
use crate::topk::{top_s_of, TopK};

use super::config::SworConfig;
use super::levels::{epoch_of, epoch_threshold, LevelTable};
use super::messages::{DownMsg, UpMsg};

/// Verbatim Algorithm 2 coordinator with full level-set storage.
#[derive(Debug)]
pub struct FaithfulCoordinator {
    cfg: SworConfig,
    r: f64,
    level_table: LevelTable,
    level_capacity: usize,
    sample: TopK,
    level_sets: HashMap<u32, Vec<Keyed>>,
    saturated: HashMap<u32, bool>,
    epoch: Option<i64>,
    rng: Rng,
}

impl FaithfulCoordinator {
    /// Creates the coordinator; `seed` must match the optimized variant's
    /// seed for lockstep comparisons.
    pub fn new(cfg: SworConfig, seed: u64) -> Self {
        let r = cfg.r();
        let level_capacity = cfg.level_capacity();
        let s = cfg.sample_size;
        Self {
            cfg,
            r,
            level_table: LevelTable::new(r),
            level_capacity,
            sample: TopK::new(s),
            level_sets: HashMap::new(),
            saturated: HashMap::new(),
            epoch: None,
            rng: Rng::new(seed),
        }
    }

    /// Current s-th largest released key (0 before `S` fills).
    pub fn u(&self) -> f64 {
        self.sample.u()
    }

    /// Handles one upstream message, appending broadcasts to `out`.
    pub fn receive(&mut self, msg: UpMsg, out: &mut Vec<DownMsg>) {
        match msg {
            UpMsg::Early { item } => {
                let level = self.level_table.level(item.weight);
                if *self.saturated.get(&level).unwrap_or(&false) {
                    let keyed = assign_key(item, &mut self.rng);
                    self.add_to_sample(keyed, out);
                    return;
                }
                let keyed = assign_key(item, &mut self.rng);
                let set = self.level_sets.entry(level).or_default();
                set.push(keyed);
                if set.len() >= self.level_capacity {
                    let items = self.level_sets.remove(&level).unwrap_or_default();
                    self.saturated.insert(level, true);
                    for k in items {
                        self.add_to_sample(k, out);
                    }
                    out.push(DownMsg::LevelSaturated { level });
                }
            }
            UpMsg::Regular { item, key } => {
                if key > self.sample.u() {
                    self.add_to_sample(Keyed::new(item, key), out);
                }
            }
        }
    }

    /// Mirrors [`super::coordinator::SworCoordinator`]'s per-epoch-crossed
    /// broadcasts: every
    /// epoch `u` passes is announced with its own threshold (see the
    /// optimized coordinator for the accounting rationale).
    fn add_to_sample(&mut self, keyed: Keyed, out: &mut Vec<DownMsg>) {
        self.sample.offer(keyed);
        let new_epoch = epoch_of(self.sample.u(), self.r);
        if new_epoch != self.epoch {
            if let Some(j) = new_epoch {
                let first = match self.epoch {
                    Some(prev) => prev + 1,
                    None => j,
                };
                self.epoch = new_epoch;
                for epoch in first..=j {
                    out.push(DownMsg::UpdateEpoch {
                        threshold: epoch_threshold(epoch, self.r),
                    });
                }
            }
        }
    }

    /// Query: top-`s` of `S ∪ (∪_j D_j)` (Theorem 3).
    pub fn sample(&self) -> Vec<Keyed> {
        top_s_of(
            self.sample.iter().chain(self.level_sets.values().flatten()),
            self.cfg.sample_size,
        )
    }

    /// Total items currently withheld across all level sets (space metric;
    /// this is what Proposition 6 reduces to O(s)).
    pub fn withheld_len(&self) -> usize {
        self.level_sets.values().map(Vec::len).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::item::Item;
    use crate::swor::coordinator::SworCoordinator;

    /// Feed both coordinators the same message sequence and assert the
    /// query answers match at every step (keys are drawn from identical RNG
    /// streams, so answers must be exactly equal).
    fn lockstep(msgs: Vec<UpMsg>, cfg: SworConfig, seed: u64) {
        let mut fast = SworCoordinator::new(cfg.clone(), seed);
        let mut slow = FaithfulCoordinator::new(cfg, seed);
        let (mut out_f, mut out_s) = (Vec::new(), Vec::new());
        for (step, m) in msgs.into_iter().enumerate() {
            fast.receive(m, &mut out_f);
            slow.receive(m, &mut out_s);
            let a: Vec<(u64, u64)> = fast
                .sample()
                .iter()
                .map(|k| (k.item.id, k.key.to_bits()))
                .collect();
            let b: Vec<(u64, u64)> = slow
                .sample()
                .iter()
                .map(|k| (k.item.id, k.key.to_bits()))
                .collect();
            assert_eq!(a, b, "query answers diverged at step {step}");
        }
    }

    #[test]
    fn optimized_equals_faithful_on_early_heavy_mix() {
        let mut rng = Rng::new(71);
        let cfg = SworConfig::new(3, 4); // r=2, capacity 24
        let mut msgs = Vec::new();
        for i in 0..400u64 {
            // Mix of magnitudes so multiple levels fill at different rates.
            let w = match i % 5 {
                0 => 1.0,
                1 => 3.0,
                2 => 9.0,
                3 => 130.0,
                _ => 1.5,
            };
            if rng.bernoulli(0.7) {
                msgs.push(UpMsg::Early {
                    item: Item::new(i, w),
                });
            } else {
                msgs.push(UpMsg::Regular {
                    item: Item::new(i, w),
                    key: w / rng.exp(),
                });
            }
        }
        lockstep(msgs, cfg, 1234);
    }

    #[test]
    fn faithful_withholds_full_levels() {
        let cfg = SworConfig::new(2, 2); // capacity 16
        let mut c = FaithfulCoordinator::new(cfg, 1);
        let mut out = Vec::new();
        for i in 0..15u64 {
            c.receive(
                UpMsg::Early {
                    item: Item::new(i, 1.0),
                },
                &mut out,
            );
        }
        assert_eq!(c.withheld_len(), 15);
        c.receive(
            UpMsg::Early {
                item: Item::new(99, 1.0),
            },
            &mut out,
        );
        assert_eq!(c.withheld_len(), 0, "level drained on saturation");
        assert!(out
            .iter()
            .any(|m| matches!(m, DownMsg::LevelSaturated { level: 0 })));
    }
}
