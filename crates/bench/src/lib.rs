//! # microslip-bench — physics figures and micro-benchmarks
//!
//! The virtual-cluster figures and tables are `microslip cluster NAME`
//! (the registry in `microslip_cluster::experiment`). What stays here
//! runs the LBM itself: the physics figures (`fig6_density`,
//! `fig7_velocity`, `ablation_physics`), the remap policies on real
//! threads (`remap_threaded`), and criterion micro-benchmarks of the
//! balancer, the cluster engine and the halo transport. Kernel, socket
//! and tracing costs are ledger metrics (`examples/ledger/`), not benches
//! here. The binaries print their tables with the registry's formatting
//! helpers (`microslip_cluster::experiment::{row, header, f}`).

/// Reads the `idx`-th CLI argument as a number, with a default.
pub fn arg_or<T: std::str::FromStr>(idx: usize, default: T) -> T {
    std::env::args().nth(idx).and_then(|s| s.parse().ok()).unwrap_or(default)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arg_or_defaults() {
        assert_eq!(arg_or::<u64>(99, 42), 42);
    }
}
