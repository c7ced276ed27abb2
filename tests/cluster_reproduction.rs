//! End-to-end assertions that the cluster simulator reproduces the
//! *shape* of every performance artifact in the paper's evaluation —
//! who wins, by roughly what factor, and where the crossovers fall — and
//! that every figure and table of the registry, performance and physics
//! alike, is byte-identical to its golden.

use std::path::Path;

use microslip::cluster::experiment::par_map;
use microslip::figure::{Size, FIGURES};
use microslip::cluster::{
    dedicated_speedup, fig3_point, fixed_slow_point, run_scheme, transient_point,
    ClusterConfig, Dedicated, FixedSlowNodes, Scheme,
};

/// Every registry entry at [`Size::Quick`] against
/// `tests/goldens/figures/NAME.txt`, byte for byte. The shape tests below
/// and `tests/physics_validation.rs` say why a golden may move; `just
/// figures` is the one way to move it.
#[test]
fn every_experiment_matches_its_golden() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/goldens/figures");
    for (name, got) in par_map(FIGURES, |(name, render)| (*name, render(Size::Quick))) {
        let path = dir.join(format!("{name}.txt"));
        let want = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("reading {}: {e}", path.display()));
        if got == want {
            continue;
        }
        let same = want.lines().zip(got.lines()).take_while(|(w, g)| w == g).count();
        let line = |text: &str| text.lines().nth(same).unwrap_or("<end of output>").to_string();
        panic!(
            "figure `{name}` differs from {} at line {}:\n  golden: {}\n  got:    {}\n\
             if the change is intended, regenerate the goldens with `just figures`",
            path.display(),
            same + 1,
            line(&want),
            line(&got)
        );
    }
    // No golden outlives its figure.
    for entry in std::fs::read_dir(&dir).unwrap() {
        let file = entry.unwrap().file_name().into_string().unwrap();
        let stem = file.strip_suffix(".txt").unwrap_or(&file);
        assert!(
            FIGURES.iter().any(|(name, _)| *name == stem),
            "{file} in {} names no figure",
            dir.display()
        );
    }
}

#[test]
fn fig3_shape_linear_then_sharp() {
    let overhead: Vec<f64> =
        (0..=10).map(|k| fig3_point(120, k as f64 / 10.0).1).collect();
    // Strictly increasing.
    for w in overhead.windows(2) {
        assert!(w[1] > w[0], "overhead must grow: {overhead:?}");
    }
    // Slope in (60,100] much larger than in [0,60].
    let early = (overhead[6] - overhead[0]) / 6.0;
    let late = (overhead[10] - overhead[6]) / 4.0;
    assert!(late > 1.5 * early, "late slope {late} vs early {early}");
    // Paper: ~185 % at 100 %. We land the same factor-2-to-4 regime.
    assert!(overhead[10] > 120.0 && overhead[10] < 300.0, "overhead(100 %) = {}", overhead[10]);
}

#[test]
fn fig8_filtered_holds_speedup_noremap_collapses() {
    let phases = 4000;
    let mut prev = f64::INFINITY;
    let mut speedup = Vec::new();
    for m in 0..=5 {
        let filt = fixed_slow_point(phases, Scheme::Filtered, m);
        let none = fixed_slow_point(phases, Scheme::NoRemap, m);
        if m == 0 {
            // Dedicated: near-linear (paper 18.97).
            assert!(filt.speedup() > 18.0);
        } else {
            // Paper: filtered 16 → 13 across 1..5 slow nodes.
            assert!(
                filt.speedup() > 11.0 && filt.speedup() < 18.0,
                "filtered speedup at m={m}: {}",
                filt.speedup()
            );
            // No-remapping collapses far below.
            assert!(none.speedup() < 0.6 * filt.speedup());
            // Normalized efficiency stays high (paper ≥ 0.8; ~0.9 below
            // four slow nodes).
            let eff = filt.normalized_efficiency(m);
            assert!(eff > 0.7 && (m > 2 || eff > 0.75), "efficiency at m={m}: {eff}");
        }
        assert!(filt.speedup() <= prev + 0.2, "speedup should not grow with more slow nodes");
        prev = filt.speedup();
        speedup.push(filt.speedup());
    }
    // The paper's anchors: ≈ 16 with one slow node, ≈ 13 with five.
    assert!(speedup[1] > 14.0 && speedup[5] < 16.0 && speedup[1] > speedup[5], "{speedup:?}");
}

#[test]
fn fig9_scheme_ordering_and_remap_cost() {
    let cfg = ClusterConfig::paper(20, 600);
    let slow = FixedSlowNodes::paper(20, 1);
    let ded = run_scheme(&cfg, Scheme::NoRemap, &Dedicated).total_time;
    let none = run_scheme(&cfg, Scheme::NoRemap, &slow);
    let cons = run_scheme(&cfg, Scheme::Conservative, &slow);
    let filt = run_scheme(&cfg, Scheme::Filtered, &slow);

    // Paper ordering: dedicated < filtered < conservative < no-remap.
    assert!(ded < filt.total_time);
    assert!(filt.total_time < cons.total_time);
    assert!(cons.total_time < none.total_time);

    // Paper magnitudes: filtered within ~25-50 % of dedicated; no-remap
    // blows up by a factor 2-4.
    assert!(filt.total_time / ded < 1.6, "filtered ratio {}", filt.total_time / ded);
    assert!(none.total_time / ded > 2.0);

    // Filtered beats conservative by a healthy margin (paper: 39 %).
    let improvement = 1.0 - filt.total_time / cons.total_time;
    assert!(improvement > 0.1, "filtered vs conservative improvement {improvement}");

    // The slow node ends nearly drained; remapping cost is small for both
    // lazy schemes (paper: "cost of remapping ... is low").
    assert!(filt.final_counts[9] <= 3);
    for r in [&filt, &cons] {
        let remap: f64 = r.per_node.iter().map(|a| a.remap).sum();
        let total: f64 = r.per_node.iter().map(|a| a.total()).sum();
        assert!(remap / total < 0.05, "remap share {}", remap / total);
    }
}

#[test]
fn fig10_filtered_wins_global_degrades() {
    for m in 1..=5 {
        let filt = fixed_slow_point(600, Scheme::Filtered, m).total_time;
        let cons = fixed_slow_point(600, Scheme::Conservative, m).total_time;
        let none = fixed_slow_point(600, Scheme::NoRemap, m).total_time;
        let glob = fixed_slow_point(600, Scheme::Global, m).total_time;
        assert!(filt < cons && cons < none, "m={m}: {filt} {cons} {none}");
        assert!(filt < glob, "m={m}: filtered must beat global");
        if m >= 2 {
            // Paper: global falls behind the local schemes past 2 slow
            // nodes (collective synchronization).
            assert!(glob >= cons, "m={m}: global {glob} vs conservative {cons}");
        }
    }
}

#[test]
fn table1_lazy_schemes_tolerate_transients_global_does_not() {
    for len in [2.0f64, 3.0, 4.0] {
        let none = transient_point(100, Scheme::NoRemap, len, 7);
        let filt = transient_point(100, Scheme::Filtered, len, 7);
        let glob = transient_point(100, Scheme::Global, len, 7);
        // Lazy filtered stays within ~60 % of no-remapping's slowdown.
        assert!(
            filt < none + 25.0,
            "len={len}: filtered {filt}% vs no-remap {none}%"
        );
        // Global is the worst (paper: up to 49.5 %).
        assert!(glob > none, "len={len}: global {glob}% vs no-remap {none}%");
    }
}

#[test]
fn scaling_is_near_linear_when_dedicated() {
    let mut prev = 0.0;
    for nodes in [1usize, 2, 4, 8, 16, 20] {
        let s = dedicated_speedup(600, nodes);
        assert!(s > 0.9 * nodes as f64, "speedup {s} at {nodes} nodes");
        assert!(s <= nodes as f64 + 1e-9);
        assert!(s > prev);
        prev = s;
    }
    // One node is the sequential run.
    assert!((dedicated_speedup(600, 1) - 1.0).abs() < 1e-9);
    // The paper's headline number.
    let s20 = dedicated_speedup(600, 20);
    assert!((s20 - 18.97).abs() < 1.0, "speedup(20) = {s20} (paper 18.97)");
}

#[test]
fn single_machine_run_time_matches_paper() {
    // "The total running time for this problem with 20,000 LBM steps on a
    // single machine is 43.56 hours."
    let cfg = ClusterConfig::paper(1, 20_000);
    let hours = cfg.sequential_time() / 3600.0;
    assert!((hours - 43.56).abs() < 0.2, "sequential run {hours} h");
}
