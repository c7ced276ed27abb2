//! Filtered remapping and its ablations on the **threaded runtime** at
//! paper scale — the question the virtual cluster cannot answer, because
//! there a migration costs what `cluster::costmodel` says it costs. Here it
//! costs what the runtime's `take_planes`/`give_planes` cost, on real
//! threads.
//!
//! Scenario: 400×200×20, two workers (this host has two cores), worker 1
//! 1.5× slow throughout, worker 0 hit by a 2.5× transient over the second
//! quarter of the run; a remap round every 5 phases, predictor window 3.
//! Each policy runs `repeats` times and every run is printed. With the
//! default `synthetic` load index (throttle factor, no clock) the decisions
//! repeat exactly, so two builds of the runtime move the same planes and
//! differ only in what moving them costs; `measured` feeds the policies
//! the wall times the workers actually saw, as the paper's runs did.
//!
//! Usage: `remap_threaded [phases] [repeats] [synthetic|measured]`
//! (defaults 40, 3, synthetic).

use std::sync::Arc;

use microslip_balance::policy::{Conservative, FilterParams, Filtered, NeighborPolicy, NoRemap};
use microslip_bench::{arg_or, f, header, row};
use microslip_lbm::{ChannelConfig, Dims};
use microslip_runtime::{run_parallel, LoadModel, RuntimeConfig};

fn filtered(threshold_planes: f64) -> Arc<dyn NeighborPolicy> {
    Arc::new(Filtered { params: FilterParams { threshold_planes, ..Default::default() } })
}

fn main() {
    let phases: u64 = arg_or(1, 40);
    let repeats: usize = arg_or(2, 3);
    let load: String = arg_or(3, "synthetic".to_string());
    header(
        "Remap policies on real threads (paper §3.4's design choices, re-asked)",
        "400x200x20, 2 workers, worker 1 slow x1.5, worker 0 spiked x2.5; wall seconds",
    );
    let mut cfg =
        RuntimeConfig::new(ChannelConfig::paper_scaled(Dims::new(400, 200, 20)), 2, phases);
    cfg.remap_interval = 5;
    cfg.predictor_window = 3;
    cfg.throttle = vec![1.0, 1.5];
    cfg.spikes = vec![(0, phases / 4, phases / 2, 2.5)];
    if load != "measured" {
        cfg.load = LoadModel::Synthetic { per_point: 1e-7 };
    }
    println!("load index: {load}");

    let policies: Vec<(&str, Arc<dyn NeighborPolicy>)> = vec![
        ("no-remap", Arc::new(NoRemap)),
        ("filtered", filtered(1.0)),
        ("threshold 0", filtered(0.0)),
        ("threshold 8", filtered(8.0)),
        ("exact (1.0)", Arc::new(Conservative::default())),
        ("half (0.5)", Arc::new(Conservative { fraction: 0.5, ..Default::default() })),
    ];
    row(
        14,
        "policy",
        &["wall (s)".into(), "remap max (s)".into(), "migrated".into(), "final".into()],
    );
    for (name, policy) in &policies {
        let mut walls = Vec::new();
        for _ in 0..repeats {
            let o = run_parallel(&cfg, policy.clone());
            let remap = o.reports.iter().map(|r| r.profile.remap).fold(0.0, f64::max);
            walls.push(o.wall_seconds);
            row(
                14,
                name,
                &[
                    f(o.wall_seconds, 2),
                    f(remap, 3),
                    o.planes_migrated().to_string(),
                    format!("{:?}", o.final_counts()),
                ],
            );
        }
        walls.sort_by(f64::total_cmp);
        row(14, "", &[format!("median {}", f(walls[walls.len() / 2], 2))]);
    }
}
