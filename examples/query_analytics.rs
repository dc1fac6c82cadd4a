//! Search-query analytics (the paper's other Section 1 motivation): a
//! search engine runs many servers; the analytics pipeline continuously
//! maintains (a) a work-weighted sample of "typical" queries and (b) a
//! `(1±eps)` estimate of the total work (L1 tracking, Theorem 6), while
//! keeping cross-datacenter traffic tiny.
//!
//! ```text
//! cargo run --release --example query_analytics
//! ```

use dwrs::apps::l1::{
    FolkloreTracker, HyzTracker, L1Config, L1DupTracker, L1Estimator, PiggybackL1Tracker,
};
use dwrs::core::swor::SworConfig;
use dwrs::sim::{assign_sites, build_swor, Partition};
use dwrs::workloads;

fn main() {
    let k = 32; // query servers
    let n = 50_000;

    // Query events: Zipf-popular query strings; weight = processing cost.
    let queries = workloads::query_log(n, 2_000, 1.1, 3.0, 7);
    let total_work: f64 = queries.iter().map(|q| q.weight).sum();
    let sites = assign_sites(Partition::Skewed { hot: 0.3 }, k, n, 8);

    // (a) continuous work-weighted sample of queries.
    let s = 12;
    let mut sampler = build_swor(SworConfig::new(s, k), 1);
    sampler.run(sites.iter().copied().zip(queries.iter().copied()));
    println!("typical queries right now (work-weighted sample of {s}):");
    for keyed in sampler.coordinator.sample() {
        println!(
            "  query #{:<5} cost {:>8.2}",
            keyed.item.id, keyed.item.weight
        );
    }
    println!(
        "sampling traffic: {} messages for {n} events\n",
        sampler.metrics.total()
    );

    // (b) L1 tracking of the total work, three protocols compared.
    let eps = 0.1;
    let mut ours = {
        let mut cfg = L1Config::new(eps, 0.25, k);
        // Experiment-scale constants, not the proof's: lean sample size.
        cfg.sample_size_override = Some(200);
        cfg.dup_override = Some(1000);
        L1DupTracker::new(cfg, 2)
    };
    let mut folklore = FolkloreTracker::new(eps, k);
    let mut hyz = HyzTracker::new(eps, k, 3);
    // Extension: estimate W for free from the sampling deployment itself.
    let mut piggy = PiggybackL1Tracker::new(256, k, 4);
    for (t, q) in queries.iter().enumerate() {
        let site = sites[t];
        ours.observe(site, *q);
        folklore.observe(site, *q);
        hyz.observe(site, *q);
        piggy.observe(site, *q);
    }
    println!("L1 (total work) tracking, eps = {eps}:  true W = {total_work:.1}");
    for tracker in [
        &ours as &dyn L1Estimator,
        &folklore as &dyn L1Estimator,
        &hyz as &dyn L1Estimator,
        &piggy as &dyn L1Estimator,
    ] {
        let est = tracker.estimate().unwrap_or(0.0);
        println!(
            "  {:<34} estimate {:>12.1}  (err {:>6.2}%)  messages {:>8}",
            tracker.name(),
            est,
            100.0 * (est - total_work).abs() / total_work,
            tracker.messages()
        );
    }
    println!(
        "\n[Thm 6's tracker is asymptotically optimal for k ≳ 1/eps²; at this modest k the \
         deterministic baseline is still cheaper — experiment E13 maps the crossover]"
    );
}
