//! # microslip-bench — reproduction harness
//!
//! One binary per table/figure of the paper's evaluation (see DESIGN.md's
//! per-experiment index) plus criterion micro-benchmarks of the balancer,
//! the cluster engine and the halo transport. Kernel, socket and tracing
//! costs are ledger metrics (`examples/ledger/`), not benches here. This
//! library holds the shared table-formatting helpers.

/// Prints a row: a left label of width `first_width` followed by
/// 14-character right-aligned cells.
pub fn row(first_width: usize, label: &str, cells: &[String]) {
    print!("{label:>first_width$}");
    for c in cells {
        print!("{c:>14}");
    }
    println!();
}

/// Formats a float with the given precision.
pub fn f(v: f64, prec: usize) -> String {
    format!("{v:.prec$}")
}

/// Reads the `idx`-th CLI argument as a number, with a default.
pub fn arg_or<T: std::str::FromStr>(idx: usize, default: T) -> T {
    std::env::args().nth(idx).and_then(|s| s.parse().ok()).unwrap_or(default)
}

/// A standard experiment header: what is being reproduced and from where.
pub fn header(artifact: &str, paper_setup: &str) {
    println!("================================================================");
    println!("reproducing: {artifact}");
    println!("paper setup: {paper_setup}");
    println!("================================================================");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn f_formats() {
        assert_eq!(f(1.23456, 2), "1.23");
        assert_eq!(f(10.0, 1), "10.0");
    }

    #[test]
    fn arg_or_defaults() {
        assert_eq!(arg_or::<u64>(99, 42), 42);
    }
}
