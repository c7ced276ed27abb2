#!/usr/bin/env bash
# The benchmark command of BENCHMARK.json, run from the repository root:
#
#   bash examples/ledger/run.sh --workload W --seed N --seconds S --trace 0|1
#
# Builds the `microslip` binary (the workloads spawn it as mp ranks, serve
# daemon and job workers) and the ledger driver — an example of the root
# package — from source in one cargo invocation, then hands every argument
# to the driver. Without arguments the driver runs the whole ledger (see
# README.md). Fails before any run when the repository is not around this
# directory.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/../.." && pwd)"

# Absolute, so the driver is found wherever the caller stands (the root's
# `target/` unless the caller chose another).
target="${CARGO_TARGET_DIR:-$root/target}"
case "$target" in
  /*) ;;
  *) target="$PWD/$target" ;;
esac
export CARGO_TARGET_DIR="$target"

cargo build --release --offline --quiet --manifest-path "$root/Cargo.toml" \
  --bin microslip --example ledger >&2
exec "$target/release/examples/ledger" "$@"
