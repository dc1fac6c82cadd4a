//! E8: Proposition 7 — lazy exponential generation needs O(1) expected bits
//! per threshold comparison.

use dwrs_core::precision::mean_bits;
use dwrs_core::Rng;

use crate::table::{f, Table};
use crate::Scale;

/// E8: mean bits per comparison across weight/threshold regimes; returns
/// whether the verdict passed.
pub fn e8_bits(scale: Scale) -> bool {
    let trials = scale.pick(20_000u32, 200_000u32);
    let mut rng = Rng::new(8);
    let mut table = Table::new(
        "E8 — Prop. 7: expected random bits per lazy threshold comparison",
        &["weight", "threshold", "P(send)", "mean_bits"],
    );
    let cases = [
        (1.0, 1.0),
        (1.0, 16.0),
        (1.0, 1e6),
        (1.0, 1e12),
        (1e6, 1.0),
        (37.5, 1000.0),
    ];
    let mut worst: f64 = 0.0;
    for &(w, theta) in &cases {
        let p = dwrs_core::keys::p_key_above(w, theta);
        let bits = mean_bits(w, theta, trials, &mut rng);
        worst = worst.max(bits);
        table.row(&[f(w), f(theta), f(p), f(bits)]);
    }
    table.print();
    let pass = worst <= 4.0;
    println!(
        "max mean bits = {worst:.3}  [Prop. 7: O(1) in expectation — {}]",
        if pass { "PASS" } else { "FAIL" }
    );
    pass
}
