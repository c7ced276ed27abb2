//! # microslip-bench — the threaded remap timing and micro-benchmarks
//!
//! Every paper figure and table, the physics ones included, is `microslip
//! figure NAME` (the registry in `microslip::figure`). What stays here is
//! wall-clock and so has no golden: the remap policies on real threads
//! (`remap_threaded`), and criterion micro-benchmarks of the balancer,
//! the cluster engine and the halo transport. Kernel, socket and tracing
//! costs are ledger metrics (`examples/ledger/`), not benches here.
//! `remap_threaded` prints its table with the registry's formatting
//! helpers (`microslip_cluster::experiment::{row, header, f}`).

/// Reads the `idx`-th CLI argument, or `default` when it is absent. An
/// argument that does not parse ends the process with status 2, naming it.
pub fn arg_or<T: std::str::FromStr>(idx: usize, default: T) -> T {
    parse_arg(std::env::args().nth(idx).as_deref(), idx, default).unwrap_or_else(|e| {
        let program = std::env::args().next().unwrap_or_default();
        eprintln!("{program}: {e}");
        std::process::exit(2)
    })
}

/// [`arg_or`]'s parse: an absent argument is the default, a present one
/// must parse as a `T`.
pub fn parse_arg<T: std::str::FromStr>(
    arg: Option<&str>,
    idx: usize,
    default: T,
) -> Result<T, String> {
    match arg {
        None => Ok(default),
        Some(s) => s.parse().map_err(|_| {
            format!("argument {idx} ({s:?}) is not a valid {}", std::any::type_name::<T>())
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn absent_arguments_default_and_bad_ones_are_named() {
        assert_eq!(parse_arg::<u64>(None, 1, 42), Ok(42));
        assert_eq!(parse_arg::<u64>(Some("30"), 1, 42), Ok(30));
        let err = parse_arg::<u64>(Some("abc"), 1, 42).unwrap_err();
        assert_eq!(err, "argument 1 (\"abc\") is not a valid u64");
    }
}
