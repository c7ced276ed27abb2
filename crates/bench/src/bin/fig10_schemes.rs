//! Figure 10: execution time of 600 phases for the four remapping
//! techniques as the number of fixed slow nodes grows from 0 to 5.
//!
//! Usage: `fig10_schemes [phases]` (default 600, the paper's value).

use microslip_bench::{arg_or, f, header, par_map, row};
use microslip_cluster::{fixed_slow_point, Scheme};

fn main() {
    let phases: u64 = arg_or(1, 600);
    header(
        "Fig. 10 — execution time by remapping technique",
        "20 nodes, 600 phases, 0-5 fixed slow nodes (70% competing job)",
    );
    row(12, "slow nodes", &Scheme::ALL.map(|s| s.name().to_string()));
    // All 24 points are independent deterministic simulations: sweep them
    // concurrently and print in order.
    let slow: Vec<usize> = (0..=5).collect();
    let grid: Vec<Vec<String>> = par_map(&slow, |&m| {
        Scheme::ALL.iter().map(|&s| f(fixed_slow_point(phases, s, m).total_time, 1)).collect()
    });
    for (m, cells) in slow.iter().zip(grid) {
        row(12, &m.to_string(), &cells);
    }
    println!();
    println!("paper shape: filtered best throughout (up to 39% better than");
    println!("conservative, up to 57.8% better than no-remapping); global");
    println!("degrades past two slow nodes.");
}
