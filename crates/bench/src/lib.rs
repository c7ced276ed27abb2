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

/// Maps `f` over `items` on at most `available_parallelism` scoped
/// threads, one contiguous chunk each, and returns the results in input
/// order. The experiments it runs are independent and deterministic, so
/// what a binary prints does not depend on the host's core count.
pub fn par_map<T: Sync, R: Send>(items: &[T], f: impl Fn(&T) -> R + Sync) -> Vec<R> {
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let chunk = items.len().div_ceil(threads).max(1);
    let f = &f;
    std::thread::scope(|s| {
        let workers: Vec<_> = items
            .chunks(chunk)
            .map(|c| s.spawn(move || c.iter().map(f).collect::<Vec<R>>()))
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
            .collect()
    })
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
    fn par_map_preserves_order() {
        let items: Vec<u64> = (0..37).collect();
        assert_eq!(par_map(&items, |&x| x * x), items.iter().map(|x| x * x).collect::<Vec<_>>());
        assert!(par_map(&[] as &[u64], |&x| x).is_empty());
    }

    #[test]
    fn arg_or_defaults() {
        assert_eq!(arg_or::<u64>(99, 42), 42);
    }
}
