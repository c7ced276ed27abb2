//! Filtered remapping and its ablations on the **threaded runtime** at
//! paper scale — the question the virtual cluster cannot answer, because
//! there a migration costs what `cluster::costmodel` says it costs. Here it
//! costs what the runtime's `take_planes`/`give_planes` cost, on real
//! threads.
//!
//! Scenario: 400×200×20, two workers (one per core on a two-core host), worker 1
//! 1.5× slow throughout, worker 0 hit by a 2.5× transient over the second
//! quarter of the run; a remap round every 5 phases, predictor window 3.
//! Each policy runs `repeats` times and every run is printed. With the
//! default `synthetic` load index (throttle factor, no clock) the decisions
//! repeat exactly, so two builds of the runtime move the same planes and
//! differ only in what moving them costs; `measured` feeds the policies
//! the wall times the workers actually saw, as the paper's runs did.
//!
//! Run with: `cargo run --release --example remap_threaded -- [phases]
//! [repeats] [synthetic|measured]` (defaults 40, 3, synthetic). An
//! argument that does not parse is named, and the run exits with status 2.

use std::str::FromStr;
use std::sync::Arc;

use microslip::balance::policy::{Conservative, FilterParams, Filtered, NeighborPolicy, NoRemap};
use microslip::cluster::experiment::{f, header, row};
use microslip::lbm::{ChannelConfig, Dims};
use microslip::runtime::{run_parallel, LoadModel, RuntimeConfig};

fn filtered(threshold_planes: f64) -> Arc<dyn NeighborPolicy> {
    Arc::new(Filtered { params: FilterParams { threshold_planes, ..Default::default() } })
}

/// Argument `idx` as a `T`, or `default` when it is absent.
fn arg<T: FromStr>(args: &[String], idx: usize, default: T) -> T {
    let Some(s) = args.get(idx) else { return default };
    s.parse().unwrap_or_else(|_| {
        let want = std::any::type_name::<T>();
        eprintln!("remap_threaded: argument {idx} ({s:?}) is not a valid {want}");
        std::process::exit(2)
    })
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let phases: u64 = arg(&args, 1, 40);
    let repeats: usize = arg(&args, 2, 3);
    let load: String = arg(&args, 3, "synthetic".to_string());
    print!("{}", header(
        "Remap policies on real threads (paper §3.4's design choices, re-asked)",
        "400x200x20, 2 workers, worker 1 slow x1.5, worker 0 spiked x2.5; wall seconds",
    ));
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
    print!("{}", row(14, "policy", &["wall (s)", "remap max (s)", "migrated", "final"]));
    for (name, policy) in &policies {
        let mut walls = Vec::new();
        for _ in 0..repeats {
            let o = run_parallel(&cfg, policy.clone());
            let remap = o.reports.iter().map(|r| r.profile.remap).fold(0.0, f64::max);
            walls.push(o.wall_seconds);
            print!("{}", row(
                14,
                name,
                &[
                    f(o.wall_seconds, 2),
                    f(remap, 3),
                    o.planes_migrated().to_string(),
                    format!("{:?}", o.final_counts()),
                ],
            ));
        }
        walls.sort_by(f64::total_cmp);
        print!("{}", row(14, "", &[format!("median {}", f(walls[walls.len() / 2], 2))]));
    }
}
