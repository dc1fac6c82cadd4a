//! E4: distributional correctness of the distributed weighted SWOR against
//! the exact oracle, at the end of the stream *and* mid-stream (Definition 3
//! requires validity at every time step).

use dwrs_core::exact::inclusion_probabilities;
use dwrs_core::swor::SworConfig;
use dwrs_core::Item;
use dwrs_sim::build_swor;
use dwrs_stats::tv_distance;

use crate::table::{f, Table};
use crate::Scale;

/// E4: empirical inclusion frequencies vs. exact probabilities; returns
/// whether the verdict passed.
pub fn e4_inclusion(scale: Scale) -> bool {
    let weights = [3.0, 1.0, 1.0, 5.0, 2.0, 4.0, 1.0, 1.0, 2.0, 10.0];
    let s = 3usize;
    let k = 3usize;
    let probe_t = 6usize; // mid-stream prefix length to also validate
    let trials = scale.pick(4_000u64, 40_000u64);

    let exact_final = inclusion_probabilities(&weights, s);
    let exact_probe = inclusion_probabilities(&weights[..probe_t], s);

    let mut count_final = vec![0u64; weights.len()];
    let mut count_probe = vec![0u64; probe_t];
    for trial in 0..trials {
        let mut runner = build_swor(SworConfig::new(s, k), 1_000_000 + trial);
        for (i, &w) in weights.iter().enumerate() {
            runner.step(i % k, Item::new(i as u64, w));
            if i + 1 == probe_t {
                for keyed in runner.coordinator.sample() {
                    count_probe[keyed.item.id as usize] += 1;
                }
            }
        }
        for keyed in runner.coordinator.sample() {
            count_final[keyed.item.id as usize] += 1;
        }
    }

    let mut table = Table::new(
        "E4 — distributed weighted SWOR inclusion probabilities vs exact oracle",
        &["item", "weight", "exact", "empirical", "z"],
    );
    let mut max_z: f64 = 0.0;
    for (i, &w) in weights.iter().enumerate() {
        let p = exact_final[i];
        let emp = count_final[i] as f64 / trials as f64;
        let se = (p * (1.0 - p) / trials as f64).sqrt().max(1e-12);
        let z = (emp - p) / se;
        max_z = max_z.max(z.abs());
        table.row(&[i.to_string(), f(w), f(p), f(emp), f(z)]);
    }
    table.print();

    let emp_final: Vec<f64> = count_final
        .iter()
        .map(|&c| c as f64 / (trials as f64 * s as f64))
        .collect();
    let exact_norm: Vec<f64> = exact_final.iter().map(|p| p / s as f64).collect();
    println!(
        "final-time: max |z| = {max_z:.2}  TV(emp, exact) = {:.4}  [accept: max|z| < 4.5]",
        tv_distance(&emp_final, &exact_norm)
    );

    let mut max_z_probe: f64 = 0.0;
    for i in 0..probe_t {
        let p = exact_probe[i];
        let emp = count_probe[i] as f64 / trials as f64;
        let se = (p * (1.0 - p) / trials as f64).sqrt().max(1e-12);
        max_z_probe = max_z_probe.max(((emp - p) / se).abs());
    }
    println!("mid-stream (t={probe_t}): max |z| = {max_z_probe:.2}  [continuous validity, Def. 3]");
    let pass = max_z < 4.5 && max_z_probe < 4.5;
    println!("E4 verdict: {}", if pass { "PASS" } else { "FAIL" });
    pass
}
