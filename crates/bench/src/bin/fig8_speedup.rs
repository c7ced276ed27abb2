//! Figure 8: speedup and normalized efficiency vs. number of slow nodes.
//!
//! 20 nodes, 20,000 LBM phases (the paper's full workload — the simulator
//! replays it in milliseconds), fixed slow nodes under a 70% competing
//! job. Speedup = sequential time / parallel time; normalized efficiency
//! = speedup / (P − 0.7·m).
//!
//! Usage: `fig8_speedup [phases]` (default 20000, the paper's value).

use microslip_bench::{arg_or, f, header, par_map, row};
use microslip_cluster::{fixed_slow_point, Scheme};

fn main() {
    let phases: u64 = arg_or(1, 20_000);
    header(
        "Fig. 8 — speedup and normalized efficiency, 20,000 phases",
        "20 nodes, fixed slow nodes (70% competing job), filtered vs no-remapping",
    );
    row(
        12,
        "slow nodes",
        &[
            "S(filtered)".into(),
            "S(no-remap)".into(),
            "E(filtered)".into(),
            "E(no-remap)".into(),
        ],
    );
    let slow: Vec<usize> = (0..=5).collect();
    let rows: Vec<Vec<String>> = par_map(&slow, |&m| {
        let filt = fixed_slow_point(phases, Scheme::Filtered, m);
        let none = fixed_slow_point(phases, Scheme::NoRemap, m);
        vec![
            f(filt.speedup(), 2),
            f(none.speedup(), 2),
            f(filt.normalized_efficiency(m), 2),
            f(none.normalized_efficiency(m), 2),
        ]
    });
    for (m, cells) in slow.iter().zip(rows) {
        row(12, &m.to_string(), &cells);
    }
    println!();
    println!("paper anchors: dedicated speedup 18.97; filtered ~16 at one slow");
    println!("node and ~13 at five; efficiency ~0.9 below four slow nodes, ~0.8 at five.");
}
