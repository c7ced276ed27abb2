# Task runner for the microslip workspace. Install `just`, or copy the
# recipe bodies into a shell — each is a plain cargo invocation.

# Tier-1 gate: everything a PR must keep green. Mirrors what CI and the
# verify loop run; uses --offline so it never depends on registry access
# (all external deps are vendored shims, see vendor/README.md).
tier1:
    cargo build --release --offline
    cargo test -q --offline
    cargo clippy --workspace --all-targets --offline -- -D warnings
    just lint
    just physics
    just trace-smoke
    just mp-smoke
    just chaos
    just serve-smoke
    just ledger-smoke

# Analytic physics gate: duct flow vs the double-cosh series, measured
# slip length vs the tunable-slip b(r) law, patterned-wall effective slip
# bracketed by its uniform bounds, exact mass conservation under every
# wall BC. (`slip_report -- --ignored --nocapture` regenerates the
# EXPERIMENTS.md slip table.)
physics:
    cargo test -q --offline --test physics_validation

# Rewrites the figure goldens, tests/goldens/figures/NAME.txt, from
# `microslip figure NAME --quick` for every registry entry. This is the
# only way a golden changes: `cargo test` compares each entry against its
# golden byte for byte and never writes one. Review the diff; the shape
# assertions in tests/cluster_reproduction.rs and the physics tests in
# tests/physics_validation.rs say which moves are legitimate.
figures:
    #!/usr/bin/env bash
    set -euo pipefail
    cargo build --release --offline --bin microslip
    rm -rf tests/goldens/figures && mkdir -p tests/goldens/figures
    for name in $(./target/release/microslip figure | tail -n +2); do
        ./target/release/microslip figure "$name" --quick > "tests/goldens/figures/$name.txt"
    done

# Panic-reachability (microslip-lint): panic sites reachable over the call
# graph from the decode entry points, outside the boundary files. Every
# other project rule is clippy's or rustc's, run by `tier1` before this:
# boundary panic-freedom, indexing and casts by each boundary module's
# `#![deny(clippy::…)]` header, determinism by the clippy.toml of balance,
# cluster, lbm and runtime, unsafe containment by `unsafe_code = "deny"`
# and `undocumented_unsafe_blocks`, stale or reasonless suppressions by
# `unfulfilled_lint_expectations` and `allow_attributes_without_reason`
# (see README "Static analysis"). Any finding fails.
lint:
    cargo test -q --offline -p microslip-lint
    cargo run -q --offline -p microslip-lint

# End-to-end observability smoke: a traced virtual-cluster run and a
# traced threaded run, artifacts re-parsed and schema-checked (--check),
# written to a scratch dir so the repo stays clean.
trace-smoke:
    cargo build --release --offline --bin microslip
    rm -rf target/trace-smoke && mkdir -p target/trace-smoke
    ./target/release/microslip trace --mode cluster --out target/trace-smoke/cluster --phases 120 --check
    ./target/release/microslip trace --mode parallel --out target/trace-smoke/parallel --phases 12 --workers 3 --check

# Multi-process smoke: a 2-rank run on real OS processes meshed over
# localhost TCP, checked bitwise against the threaded runtime — fields
# AND (under the synthetic load model) remap decisions must match. The
# 3-rank run on 31 planes sends uneven slabs, and the slabs holding both
# periodic wrap planes, through the driver's plane-by-plane gather. The
# run at the paper's 200×20 cross-section moves 11 planes as a stream of
# six acknowledged batches over TCP.
mp-smoke:
    cargo build --release --offline --bin microslip
    rm -rf target/mp-smoke && mkdir -p target/mp-smoke/uneven target/mp-smoke/batches
    ./target/release/microslip mp --ranks 2 --phases 12 --remap-every 3 \
        --predictor-window 2 --throttle 1:6 --synthetic-load 1.0 \
        --dir target/mp-smoke --trace target/mp-smoke/run --check
    ./target/release/microslip mp --ranks 3 --nx 31 --phases 12 --remap-every 3 \
        --predictor-window 2 --throttle 1:6 --synthetic-load 1.0 \
        --dir target/mp-smoke/uneven --check
    ./target/release/microslip mp --ranks 2 --nx 24 --ny 200 --nz 20 --phases 6 \
        --remap-every 3 --predictor-window 2 --throttle 1:6 --synthetic-load 1.0 \
        --dir target/mp-smoke/batches --check

# Elastic-ranks chaos smoke: 4 ranks, rank 2 killed mid-halo at phase 7;
# the supervisor respawns it, the mesh re-forms at epoch 2 and rolls back
# to the last common checkpoint, and --check holds the recovered fields
# to bitwise equality with the threaded (undisturbed) reference.
chaos:
    cargo build --release --offline --bin microslip
    rm -rf target/chaos-smoke && mkdir -p target/chaos-smoke
    ./target/release/microslip mp --ranks 4 --phases 12 --remap-every 3 \
        --predictor-window 2 --throttle 1:6 --synthetic-load 1.0 \
        --checkpoint-every 3 --chaos kill:2@7 \
        --dir target/chaos-smoke --trace target/chaos-smoke/run --check

# Sweep-daemon smoke: start `microslip serve`, submit a 4-job grid with
# 2 duplicate parameter points (chaos kills the first scheduled job at
# phase 9, after its cadence-4 checkpoints), then assert the full
# contract: exactly 2 cache hits observed, the killed worker's job
# restarted from checkpoint, a clean drain-and-shutdown, and the fetched
# artifact byte-identical to a direct `run-job` of the same scenario.
serve-smoke:
    #!/usr/bin/env bash
    set -euo pipefail
    cargo build --release --offline --bin microslip
    rm -rf target/serve-smoke && mkdir -p target/serve-smoke
    MS=./target/release/microslip
    DIR=target/serve-smoke
    $MS serve --dir $DIR --max-workers 2 --chaos-die 0@9 &
    SERVE_PID=$!
    for _ in $(seq 100); do [ -s $DIR/serve.addr ] && break; sleep 0.1; done
    $MS submit --addr-file $DIR/serve.addr --phases 12 --checkpoint-every 4 \
        --grid "wall-amplitude=0.1,0.2,0.1,0.2" --dump $DIR/scenarios --wait \
        | tee $DIR/submit.out
    grep -q "4 jobs (2 scheduled, 2 served from cache)" $DIR/submit.out
    KEY=$(awk '/^  key /{print $2; exit}' $DIR/submit.out)
    $MS fetch --addr-file $DIR/serve.addr --key $KEY --out $DIR/fetched.artifact
    $MS status --addr-file $DIR/serve.addr --shutdown
    wait $SERVE_PID
    test "$(grep -c '"stage":"cache-hit"' $DIR/serve.jsonl)" -eq 2
    grep -q '"stage":"restarted"' $DIR/serve.jsonl
    $MS run-job --scenario $DIR/scenarios/$KEY.scenario \
        --out $DIR/direct.artifact --checkpoint-dir $DIR/direct-ckpt
    cmp $DIR/fetched.artifact $DIR/direct.artifact
    echo "serve-smoke: OK (2 cache hits, worker death recovered, fetch bitwise-equal to direct run)"

# Ledger smoke: all five BENCHMARK.json workloads at toy scale with every
# in-command bitwise/mass/count check (~5 s). The ledger under
# examples/ledger/ is frozen between benchmark PRs, so a PR that removes an
# API it calls, or breaks one of its checks, fails here before the
# benchmark gate does.
ledger-smoke:
    cargo build --release --offline --bin microslip --example ledger
    ./target/release/examples/ledger --quick --out target/ledger-smoke.json

# Full workspace test run (release mode; slower, covers the examples).
test-all:
    cargo test --release --workspace --offline

# The performance ledger (examples/ledger/, the BENCHMARK.json contract's
# driver): every workload untraced and traced, every metric by name, to
# target/ledger/ledger.json. ~10 min on the 2-CPU reference host. (Written
# beside the directory and moved in: the driver's scratch lives under
# target/ledger/ too, and it removes the directory whenever its last run
# leaves it empty.)
bench seed="1":
    cargo build --release --offline --bin microslip --example ledger
    ./target/release/examples/ledger --seed {{seed}} --traced --out target/ledger.json.new
    mkdir -p target/ledger && mv target/ledger.json.new target/ledger/ledger.json

# Compares a fresh ledger against BASE (a ledger.json from `just bench` on
# the commit to beat) with BENCHMARK.json's bounds. Advisory — one run per
# side cannot carry a claim (that takes ten alternating pairs), so this is
# not part of tier 1.
bench-check BASE: bench
    ./target/release/examples/ledger --compare {{BASE}} target/ledger/ledger.json --manifest BENCHMARK.json

# The choosing-metrics §8 rule, per workload: builds PARENT_DIR (a
# checkout of the commit to beat — `git clone` or `git archive`, not a
# worktree) and this tree into separate target dirs, then for each workload
# of the comma-separated WORKLOADS runs the benchmark command N times per
# side on seeds SEED0 .. SEED0+N−1 (pick seeds not used while writing the
# change), alternating which side goes first, and prints one block per
# workload: each metric's median and quartiles per side, the change/parent
# ratio of medians, and how many pairs the change won (ties count for
# neither). A gain is claimed at ≥ 9/10 wins with the medians further apart
# than the parent's own quartiles; a regression is a median worse than
# BENCHMARK.json's bound. Each block ends by applying that rule to every
# end-to-end metric: `gain`, `regression`, `unresolved` (either side's
# quartile distance wider than the bound, and not every run of the change
# better than every run of the parent) or `flat` — "no end-to-end metric
# worse on any workload" is a question about all five. Raw lines stay in
# target/pairs/WORKLOAD.{parent,change}.jsonl.
pairs WORKLOADS PARENT_DIR N="10" SEED0="1":
    #!/usr/bin/env bash
    set -euo pipefail
    out="$PWD/target/pairs"
    parent="$(cd "{{PARENT_DIR}}" && pwd)"
    mkdir -p "$out"
    for side in parent change; do
        dir="$PWD"; [ $side = parent ] && dir="$parent"
        cargo build --release --offline --quiet --manifest-path "$dir/Cargo.toml" \
            --target-dir "$out/$side" --bin microslip --example ledger
    done
    IFS=, read -ra workloads <<< "{{WORKLOADS}}"
    for workload in "${workloads[@]}"; do
        for side in parent change; do : > "$out/$workload.$side.jsonl"; done
        for k in $(seq 0 $(({{N}} - 1))); do
            seed=$(({{SEED0}} + k))
            order="parent change"; [ $((k % 2)) -eq 1 ] && order="change parent"
            for side in $order; do
                dir="$PWD"; [ $side = parent ] && dir="$parent"
                (cd "$dir" && CARGO_TARGET_DIR="$out/$side" bash examples/ledger/run.sh \
                    --workload "$workload" --seed $seed --seconds 6 --trace 0 2>/dev/null) \
                    | tail -n 1 >> "$out/$workload.$side.jsonl"
            done
            echo "$workload: pair $((k + 1))/{{N}} done (seed $seed)" >&2
        done
        awk -v workload="$workload" '
            function sorted(src, n, dst,   i, j, v) {
                for (i = 1; i <= n; i++) {
                    v = src[i]
                    for (j = i - 1; j >= 1 && dst[j] > v; j--) dst[j + 1] = dst[j]
                    dst[j + 1] = v
                }
            }
            # Linear-interpolated quantile of an ascending array.
            function quantile(a, n, q,   h, lo) {
                h = 1 + (n - 1) * q; lo = int(h)
                return lo >= n ? a[n] : a[lo] + (h - lo) * (a[lo + 1] - a[lo])
            }
            FILENAME ~ /BENCHMARK.json$/ {
                if (match($0, /"name": "[^"]+"/)) name = substr($0, RSTART + 9, RLENGTH - 10)
                if (match($0, /"better": "[^"]+"/)) better[name] = substr($0, RSTART + 11, RLENGTH - 12)
                if (match($0, /"bound": [0-9.]+/)) bound[name] = substr($0, RSTART + 9, RLENGTH - 9) + 0
                next
            }
            {
                side = FILENAME ~ /parent.jsonl$/ ? "parent" : "change"
                run = ++runs[side]
                if ($0 !~ /"correct": true/) failed[side]++
                line = $0
                while (match(line, /"[a-z_.0-9]+": \{"value": [-0-9.e+]+/)) {
                    pair = substr(line, RSTART, RLENGTH); line = substr(line, RSTART + RLENGTH)
                    split(pair, kv, /": \{"value": /)
                    metric = substr(kv[1], 2)
                    if (!(metric in seen)) { seen[metric] = 1; metrics[++nmetrics] = metric }
                    value[side, metric, run] = kv[2] + 0
                }
            }
            END {
                n = runs["parent"] < runs["change"] ? runs["parent"] : runs["change"]
                printf "%s: %d pairs, failed runs parent %d change %d\n", workload, n, failed["parent"], failed["change"]
                printf "%-14s %-34s %-34s %8s %6s\n", "metric", "parent median [q1, q3]", "change median [q1, q3]", "ratio", "wins"
                for (m = 1; m <= nmetrics; m++) {
                    metric = metrics[m]; wins = 0
                    for (i = 1; i <= n; i++) {
                        p[i] = value["parent", metric, i]; c[i] = value["change", metric, i]
                        if (better[metric] == "higher" ? c[i] > p[i] : c[i] < p[i]) wins++
                    }
                    sorted(p, n, ps); sorted(c, n, cs)
                    pm = quantile(ps, n, 0.5); cm = quantile(cs, n, 0.5)
                    p1 = quantile(ps, n, 0.25); p3 = quantile(ps, n, 0.75)
                    c1 = quantile(cs, n, 0.25); c3 = quantile(cs, n, 0.75)
                    printf "%-14s %-34s %-34s %8.3f %3d/%d\n", metric, \
                        sprintf("%.4g [%.4g, %.4g]", pm, p1, p3), sprintf("%.4g [%.4g, %.4g]", cm, c1, c3), \
                        (pm != 0 ? cm / pm : 0), wins, n
                    if (!(metric in bound)) continue
                    # The rule above, per end-to-end metric. `sign` turns
                    # "better" into "larger"; the spread is the quartile
                    # distance over the median, of whichever side is wider.
                    sign = better[metric] == "higher" ? 1 : -1
                    iqr = p3 - p1
                    spread = pm != 0 ? iqr / pm : 0
                    if (cm != 0 && (c3 - c1) / cm > spread) spread = (c3 - c1) / cm
                    clear = sign > 0 ? cs[1] > ps[n] : cs[n] < ps[1]
                    if (sign * (cm - pm) < -bound[metric] * pm) v = "regression"
                    else if (10 * wins >= 9 * n && sign * (cm - pm) > iqr) v = "gain"
                    else if (spread > bound[metric] && !clear) v = "unresolved"
                    else v = "flat"
                    verdicts = verdicts sprintf("verdict %-12s %-10s (wins %d/%d, change median ahead by %.4g, parent quartile distance %.4g, spread %.1f %% vs bound %.0f %%)\n", \
                        metric, v, wins, n, sign * (cm - pm), iqr, 100 * spread, 100 * bound[metric])
                }
                printf "%s%s", verdicts, n < 10 ? "(fewer than ten pairs: the verdicts are advisory)\n" : ""
            }
        ' BENCHMARK.json "$out/$workload.parent.jsonl" "$out/$workload.change.jsonl"
    done
