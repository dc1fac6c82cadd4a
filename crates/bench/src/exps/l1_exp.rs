//! E12–E14: L1 tracking — accuracy of the duplication estimator (Theorem 6),
//! the Section 5 comparison table, and the Theorem 7 lower-bound instance.

use dwrs_apps::l1::{
    run_tracker, FolkloreTracker, HyzTracker, L1Config, L1DupTracker, PiggybackL1Tracker,
};
use dwrs_core::Item;
use dwrs_workloads::l1_unit_epochs;

use crate::exps::util::l1_bound;
use crate::table::{f, n, Table};
use crate::Scale;

fn unit_stream(n: u64, k: usize) -> Vec<(usize, Item)> {
    (0..n)
        .map(|i| ((i % k as u64) as usize, Item::unit(i)))
        .collect()
}

/// Experiment-scale constant for the duplication tracker: the paper's proof
/// constant (`10·ln(1/δ)/ε²`) is kept for the accuracy experiment E12; the
/// table experiment uses `2/ε²` to keep instances tractable while leaving
/// every scaling law intact.
fn table_config(eps: f64, k: usize) -> L1Config {
    let mut cfg = L1Config::new(eps, 0.25, k);
    let s = ((2.0 / (eps * eps)).ceil() as usize).max(8);
    cfg.sample_size_override = Some(s);
    cfg.dup_override = Some(((s as f64 / (2.0 * eps)).ceil()) as u64);
    cfg
}

/// E12: accuracy — `W̃ = (1±ε)W` at probe times with probability ≥ 1-δ
/// (Theorem 6), using the paper's own constants.
pub fn e12_accuracy(scale: Scale) {
    let (eps, delta, k) = (0.15f64, 0.2f64, 8usize);
    let trials = scale.pick(6u64, 30u64);
    let n_items = scale.pick(250u64, 1_200u64);
    let cfg = L1Config::new(eps, delta, k);
    let mut table = Table::new(
        "E12 — duplication L1 tracker accuracy (Thm 6; paper constants)",
        &[
            "eps",
            "delta",
            "s",
            "ell",
            "trials",
            "max_err_med",
            "success_rate",
        ],
    );
    let mut errs = Vec::new();
    let mut successes = 0u64;
    for t in 0..trials {
        let mut tracker = L1DupTracker::new(cfg.clone(), 500 + t);
        let stream = unit_stream(n_items, k);
        let (err, _) = run_tracker(&mut tracker, &stream, (n_items / 25).max(1) as usize);
        if err <= eps {
            successes += 1;
        }
        errs.push(err);
    }
    errs.sort_by(f64::total_cmp);
    table.row(&[
        f(eps),
        f(delta),
        n(cfg.sample_size() as u64),
        n(cfg.duplication()),
        n(trials),
        f(errs[errs.len() / 2]),
        f(successes as f64 / trials as f64),
    ]);
    table.print();
    println!(
        "[Thm 6: per-probe success prob ≥ 1-δ; max-over-probes success here is a stricter event]"
    );
}

/// E13: the paper's Section 5 table with measured message counts — the only
/// literal table in the paper.
pub fn e13_table5(scale: Scale) {
    // (a) sweep k at fixed eps: ours must grow slowest in k.
    let eps = 0.1f64;
    let n_items: u64 = scale.pick(1 << 12, 1 << 17);
    let ks: Vec<usize> = scale.pick(vec![4, 16], vec![16, 64, 256, 1024]);
    let mut ta = Table::new(
        &format!(
            "E13a — Section 5 table, k sweep (eps={eps}, unit weights, n={n_items}): messages"
        ),
        &[
            "k",
            "folklore k·lnW/eps",
            "HYZ12 (k+rt(k)/eps)lnW",
            "this work k·lnW/ln k + lnW/eps^2",
            "ours/folklore",
        ],
    );
    for &k in &ks {
        let stream = unit_stream(n_items, k);
        let mut folk = FolkloreTracker::new(eps, k);
        let (_, m_folk) = run_tracker(&mut folk, &stream, usize::MAX);
        let mut hyz = HyzTracker::new(eps, k, 31);
        let (_, m_hyz) = run_tracker(&mut hyz, &stream, usize::MAX);
        let mut ours = L1DupTracker::new(table_config(eps, k), 32);
        let (_, m_ours) = run_tracker(&mut ours, &stream, usize::MAX);
        ta.row(&[
            n(k as u64),
            n(m_folk),
            n(m_hyz),
            n(m_ours),
            f(m_ours as f64 / m_folk as f64),
        ]);
    }
    ta.print();

    // (b) sweep eps at fixed k: folklore ∝ 1/eps, ours ∝ 1/eps², HYZ between.
    let k = scale.pick(16usize, 256usize);
    let epss: Vec<f64> = scale.pick(vec![0.3, 0.2], vec![0.3, 0.2, 0.1, 0.05]);
    let mut tb = Table::new(
        &format!("E13b — Section 5 table, eps sweep (k={k}, unit weights, n={n_items}): messages"),
        &[
            "eps",
            "folklore",
            "HYZ12",
            "this work",
            "hyz/folklore",
            "ours/folklore",
        ],
    );
    for &e in &epss {
        let stream = unit_stream(n_items, k);
        let mut folk = FolkloreTracker::new(e, k);
        let (_, m_folk) = run_tracker(&mut folk, &stream, usize::MAX);
        let mut hyz = HyzTracker::new(e, k, 41);
        let (_, m_hyz) = run_tracker(&mut hyz, &stream, usize::MAX);
        let mut ours = L1DupTracker::new(table_config(e, k), 42);
        let (_, m_ours) = run_tracker(&mut ours, &stream, usize::MAX);
        tb.row(&[
            f(e),
            n(m_folk),
            n(m_hyz),
            n(m_ours),
            f(m_hyz as f64 / m_folk as f64),
            f(m_ours as f64 / m_folk as f64),
        ]);
    }
    tb.print();
    println!("[paper table: ours O(k·log(eW)/log k + log(eW)/eps²) beats prior work once k ≳ C/eps²; the k-sweep shows ours flattest in k, the eps-sweep shows folklore ∝ 1/eps vs ours ∝ 1/eps²]");
}

/// E19: the piggyback extension — L1 estimation at zero extra messages on
/// top of the sampling deployment, vs the paper's duplication tracker at a
/// matched sample size.
pub fn e19_piggyback(scale: Scale) {
    let k = 16usize;
    let n_items = scale.pick(1u64 << 12, 1u64 << 16);
    let mut table = Table::new(
        "E19 — piggyback L1 (extension): error & messages vs duplication tracker (k=16)",
        &[
            "s",
            "piggy_err",
            "piggy_msgs",
            "dup_err",
            "dup_msgs",
            "dup/piggy msgs",
        ],
    );
    for &s in scale.pick(&[64usize][..], &[64usize, 256, 1024][..]) {
        let stream: Vec<(usize, Item)> = (0..n_items)
            .map(|i| ((i % k as u64) as usize, Item::new(i, 1.0 + (i % 9) as f64)))
            .collect();
        let mut piggy = PiggybackL1Tracker::new(s, k, 71);
        let (e_p, m_p) = run_tracker(&mut piggy, &stream, (n_items / 50).max(1) as usize);
        let mut cfg = L1Config::new(0.49, 0.25, k);
        cfg.sample_size_override = Some(s);
        cfg.dup_override = Some((s as f64 / 0.2).ceil() as u64);
        let mut dup = L1DupTracker::new(cfg, 72);
        let (e_d, m_d) = run_tracker(&mut dup, &stream, (n_items / 50).max(1) as usize);
        table.row(&[
            n(s as u64),
            f(e_p),
            n(m_p),
            f(e_d),
            n(m_d),
            f(m_d as f64 / m_p as f64),
        ]);
    }
    table.print();
    println!("[extension beyond the paper: the HT rank-conditioning estimator over the live sample gives ~1/√s error at the sampling protocol's own message cost]");
}

/// E14: the Theorem 7 lower-bound instance (`k^i` unit epochs).
pub fn e14_lower_bound(scale: Scale) {
    let k = scale.pick(8usize, 32usize);
    let eta = scale.pick(4u32, 4u32);
    let cap = scale.pick(1usize << 12, 1usize << 20);
    let inst = l1_unit_epochs(k, eta, cap);
    let w: f64 = inst.len() as f64;
    let eps = 0.2;
    let mut table = Table::new(
        "E14 — Thm 7 hard instance (k^i unit epochs): messages vs Ω(k·lnW/ln k)",
        &["tracker", "k", "n", "msgs", "lower_bound", "msgs/bound"],
    );
    let lb = k as f64 * w.ln() / (k as f64).ln();
    let mut ours = L1DupTracker::new(table_config(eps, k), 51);
    let (_, m_ours) = run_tracker(&mut ours, &inst, usize::MAX);
    let mut folk = FolkloreTracker::new(eps, k);
    let (_, m_folk) = run_tracker(&mut folk, &inst, usize::MAX);
    for (name, m) in [("this work", m_ours), ("folklore", m_folk)] {
        table.row(&[
            name.into(),
            n(k as u64),
            n(inst.len() as u64),
            n(m),
            f(lb),
            f(m as f64 / lb),
        ]);
    }
    table.print();
    let _ = l1_bound(k, eps, 0.25, w);
    println!("[Thm 7: every correct tracker pays Ω(k·logW/log k) here; our measured/bound ratio is an O(1) constant — the bound is tight]");
}
