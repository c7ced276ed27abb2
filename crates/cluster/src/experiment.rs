//! The paper's evaluation on the virtual cluster.
//!
//! Point functions ([`fig3_point`], [`fixed_slow_point`], …) run one point
//! of a figure or table. The renderers ([`fig3`], [`fig8`], …) assemble
//! them into the paper's full sweeps, one per figure or table, each as the
//! text table `microslip figure NAME` prints; the figure registry
//! (`microslip::figure`) lists them beside the physics figures. Every
//! renderer runs at the paper's own parameters and is deterministic;
//! `tests/goldens/figures/NAME.txt` pins its output byte for byte.

use std::sync::Arc;

use microslip_balance::policy::{
    Conservative, FilterParams, Filtered, Global, NeighborPolicy, NoRemap, RemapPolicy,
};
use microslip_balance::predict::{
    ArithmeticMean, ExpSmoothing, HarmonicMean, LastPhase, Predictor,
};

use crate::disturbance::{
    BaseSpeeds, Compose, Dedicated, Disturbance, DutyCycle, FixedSlowNodes, TransientSpikes,
};
use crate::engine::{run, ClusterConfig, RunResult};

/// The four remapping schemes of the paper's evaluation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scheme {
    NoRemap,
    Filtered,
    Conservative,
    Global,
}

impl Scheme {
    /// All schemes in the paper's presentation order.
    pub const ALL: [Scheme; 4] =
        [Scheme::NoRemap, Scheme::Filtered, Scheme::Conservative, Scheme::Global];

    pub fn name(&self) -> &'static str {
        match self {
            Scheme::NoRemap => "no-remap",
            Scheme::Filtered => "filtered",
            Scheme::Conservative => "conservative",
            Scheme::Global => "global",
        }
    }

    /// The scheme [`name`](Self::name) spells `name`.
    pub fn from_name(name: &str) -> Result<Scheme, String> {
        Scheme::ALL
            .into_iter()
            .find(|s| s.name() == name)
            .ok_or_else(|| format!("unknown scheme '{name}' (no-remap, filtered, conservative, global)"))
    }

    /// The policy object of a scheme the worker protocol can execute, with
    /// paper-default parameters: every scheme whose decisions are
    /// neighbor-local, i.e. all but [`Scheme::Global`].
    pub fn neighbor_policy(&self) -> Result<Arc<dyn NeighborPolicy>, String> {
        match self {
            Scheme::NoRemap => Ok(Arc::new(NoRemap)),
            Scheme::Filtered => Ok(Arc::new(Filtered::default())),
            Scheme::Conservative => Ok(Arc::new(Conservative::default())),
            Scheme::Global => Err("the global scheme needs a collective exchange and only runs \
                                   on the virtual cluster — use cluster()"
                .into()),
        }
    }

    /// The policy object (with paper-default parameters).
    pub fn policy(&self) -> Arc<dyn RemapPolicy> {
        match self.neighbor_policy() {
            Ok(policy) => policy,
            Err(_) => Arc::new(Global::default()),
        }
    }
}

/// Runs `scheme` under `disturbance` with the paper's harmonic predictor.
pub fn run_scheme(
    cfg: &ClusterConfig,
    scheme: Scheme,
    disturbance: &dyn Disturbance,
) -> RunResult {
    let predictor = HarmonicMean { window: cfg.predictor_window };
    run(cfg, scheme.policy().as_ref(), &predictor, disturbance)
}

/// As [`run_scheme`], recording the structured event stream into `trace`.
pub fn run_scheme_traced(
    cfg: &ClusterConfig,
    scheme: Scheme,
    disturbance: &dyn Disturbance,
    trace: &microslip_obs::TraceSink,
) -> RunResult {
    let predictor = HarmonicMean { window: cfg.predictor_window };
    crate::engine::run_traced(cfg, scheme.policy().as_ref(), &predictor, disturbance, trace)
}

/// Fig. 3: one node disturbed with a duty-cycle competing job at level
/// `fraction`, 20 nodes, no remapping. Returns (execution time, per-phase
/// overhead % relative to the dedicated run).
pub fn fig3_point(phases: u64, fraction: f64) -> (f64, f64) {
    let cfg = ClusterConfig::paper(20, phases);
    let disturbed = run_scheme(&cfg, Scheme::NoRemap, &DutyCycle::paper(9, fraction));
    let dedicated = run_scheme(&cfg, Scheme::NoRemap, &Dedicated);
    let overhead =
        (disturbed.total_time - dedicated.total_time) / dedicated.total_time * 100.0;
    (disturbed.total_time, overhead)
}

/// Fig. 8 / Fig. 10 style point: `m` fixed slow nodes, given scheme.
pub fn fixed_slow_point(phases: u64, scheme: Scheme, m: usize) -> RunResult {
    let cfg = ClusterConfig::paper(20, phases);
    if m == 0 {
        run_scheme(&cfg, scheme, &Dedicated)
    } else {
        run_scheme(&cfg, scheme, &FixedSlowNodes::paper(20, m))
    }
}

/// Table 1 point: transient spikes of `spike_len` seconds, random node
/// every 10 s. Returns the slowdown ratio (%) versus the dedicated run.
pub fn transient_point(phases: u64, scheme: Scheme, spike_len: f64, seed: u64) -> f64 {
    let cfg = ClusterConfig::paper(20, phases);
    // Generously sized victim horizon: runs are minutes of virtual time.
    let spikes = TransientSpikes::new(20, spike_len, seed, 100_000);
    let spiked = run_scheme(&cfg, scheme, &spikes);
    let dedicated = run_scheme(&cfg, scheme, &Dedicated);
    (spiked.total_time - dedicated.total_time) / dedicated.total_time * 100.0
}

/// §4.2 scaling claim: dedicated speedup at `nodes` nodes.
pub fn dedicated_speedup(phases: u64, nodes: usize) -> f64 {
    let cfg = ClusterConfig::paper(nodes, phases);
    run_scheme(&cfg, Scheme::NoRemap, &Dedicated).speedup()
}

// ---------------------------------------------------------------------
// Text tables
// ---------------------------------------------------------------------

/// One table line: a left label right-aligned to `first_width`, then
/// 14-character cells, each a space and its value right-aligned to 13. A
/// longer value widens its cell but never runs into its neighbour.
pub fn row<S: std::fmt::Display>(first_width: usize, label: &str, cells: &[S]) -> String {
    let mut line = format!("{label:>first_width$}");
    for c in cells {
        line += &format!(" {c:>13}");
    }
    line.push('\n');
    line
}

/// Formats a float with the given precision.
pub fn f(v: f64, prec: usize) -> String {
    format!("{v:.prec$}")
}

/// A standard experiment header: what is being reproduced and from where.
pub fn header(artifact: &str, paper_setup: &str) -> String {
    let rule = "================================================================";
    format!("{rule}\nreproducing: {artifact}\npaper setup: {paper_setup}\n{rule}\n")
}

/// Maps `f` over `items` on at most `available_parallelism` scoped
/// threads, one contiguous chunk each, and returns the results in input
/// order. The points it runs are independent and deterministic, so the
/// output does not depend on the host's core count.
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

// ---------------------------------------------------------------------
// The paper's figures and tables, one renderer each
// ---------------------------------------------------------------------

/// Fig. 3: execution time and per-phase overhead vs. disturbance level.
///
/// One node of a 20-node cluster runs a duty-cycle competing job: every
/// 10 s window it is busy for p% of the time and sleeps the rest. The
/// parallel LBM (600 phases, no remapping) is timed against the dedicated
/// baseline. The paper observes a near-linear overhead up to ~60%
/// disturbance and a sharp increase beyond it.
pub fn fig3() -> String {
    let mut out = header(
        "Fig. 3 — increased time caused by competing jobs",
        "20 nodes, 600 phases, no remapping, duty-cycle disturbance on one node",
    );
    out += &row(14, "disturbance", &["exec time (s)", "overhead (%)"]);
    for pct in (0..=100).step_by(10) {
        let (time, overhead) = fig3_point(600, pct as f64 / 100.0);
        out += &row(14, &format!("{pct}%"), &[f(time, 1), f(overhead, 1)]);
    }
    out += "\npaper anchors: ~250 s dedicated; ~2-3x at full disturbance;\n\
            linear growth below 60%, sharp increase beyond.\n";
    out
}

/// Fig. 8: speedup and normalized efficiency vs. number of slow nodes.
///
/// 20 nodes, 20,000 LBM phases (the paper's full workload), fixed slow
/// nodes under a 70% competing job. Speedup = sequential time / parallel
/// time; normalized efficiency = speedup / (P − 0.7·m).
pub fn fig8() -> String {
    let mut out = header(
        "Fig. 8 — speedup and normalized efficiency, 20,000 phases",
        "20 nodes, fixed slow nodes (70% competing job), filtered vs no-remapping",
    );
    out += &row(12, "slow nodes", &["S(filtered)", "S(no-remap)", "E(filtered)", "E(no-remap)"]);
    let slow: Vec<usize> = (0..=5).collect();
    out += &par_map(&slow, |&m| {
        let filt = fixed_slow_point(20_000, Scheme::Filtered, m);
        let none = fixed_slow_point(20_000, Scheme::NoRemap, m);
        let cells = [
            f(filt.speedup(), 2),
            f(none.speedup(), 2),
            f(filt.normalized_efficiency(m), 2),
            f(none.normalized_efficiency(m), 2),
        ];
        row(12, &m.to_string(), &cells)
    })
    .concat();
    out += "\npaper anchors: dedicated speedup 18.97; filtered ~16 at one slow\n\
            node and ~13 at five; efficiency ~0.9 below four slow nodes, ~0.8 at five.\n";
    out
}

/// Fig. 9's four runs, also the series of [`transient`]: 20 nodes for
/// 600 phases, dedicated, then node 9 under a 70% job with no-remapping,
/// conservative and filtered remapping.
fn one_slow_node_runs() -> [(&'static str, RunResult); 4] {
    let cfg = ClusterConfig::paper(20, 600);
    let slow = FixedSlowNodes::paper(20, 1);
    [
        ("dedicated", run_scheme(&cfg, Scheme::NoRemap, &Dedicated)),
        ("no-remap", run_scheme(&cfg, Scheme::NoRemap, &slow)),
        ("conservative", run_scheme(&cfg, Scheme::Conservative, &slow)),
        ("filtered", run_scheme(&cfg, Scheme::Filtered, &slow)),
    ]
}

/// Fig. 9: per-node compute / communication / remapping time for the
/// four schemes with one fixed slow node (node 9).
pub fn fig9() -> String {
    let mut out = header(
        "Fig. 9 — execution profile and cost distribution, one slow node",
        "20 nodes, 600 phases; node 9 runs a 70% competing job",
    );
    let cases = one_slow_node_runs();
    for (name, r) in &cases {
        out += &format!(
            "\n--- {name}: total {} s (paper: dedicated 251, no-remap 717, conservative 513, filtered 313)\n",
            f(r.total_time, 1)
        );
        out += &format!(
            "{:>6} {:>12} {:>12} {:>12} {:>8}\n",
            "node", "compute", "comm", "remap", "planes"
        );
        for (i, (a, planes)) in r.per_node.iter().zip(&r.final_counts).enumerate() {
            out += &format!(
                "{i:>6} {:>12} {:>12} {:>12} {planes:>8}\n",
                f(a.compute, 1),
                f(a.comm, 1),
                f(a.remap, 1)
            );
        }
    }
    out.push('\n');
    let [(_, dedicated), rest @ ..] = &cases;
    for (name, r) in rest {
        let increase = (r.total_time / dedicated.total_time - 1.0) * 100.0;
        out += &format!("{name}: increase over dedicated {}%\n", f(increase, 1));
    }
    out
}

/// Fig. 10: execution time of 600 phases for the four remapping
/// techniques as the number of fixed slow nodes grows from 0 to 5.
pub fn fig10() -> String {
    let mut out = header(
        "Fig. 10 — execution time by remapping technique",
        "20 nodes, 600 phases, 0-5 fixed slow nodes (70% competing job)",
    );
    out += &row(12, "slow nodes", &Scheme::ALL.map(|s| s.name()));
    let slow: Vec<usize> = (0..=5).collect();
    out += &par_map(&slow, |&m| {
        let cells = Scheme::ALL.map(|s| f(fixed_slow_point(600, s, m).total_time, 1));
        row(12, &m.to_string(), &cells)
    })
    .concat();
    out += "\npaper shape: filtered best throughout (up to 39% better than\n\
            conservative, up to 57.8% better than no-remapping); global\n\
            degrades past two slow nodes.\n";
    out
}

/// Table 1: slowdown under transient load spikes.
///
/// Every 10 s a random node runs a 70% competing job for 1-4 s; 100 LBM
/// phases, spike seed 42. Slowdown is relative to the dedicated run of
/// the same scheme. The paper finds no-remapping, filtered and
/// conservative comparable (lazy remapping tolerates transients) and
/// global much worse.
pub fn table1() -> String {
    let mut out = header(
        "Table 1 — slowdown under transient spikes",
        "20 nodes, 100 phases; random node spiked (70% job) every 10 s",
    );
    let order = [Scheme::NoRemap, Scheme::Global, Scheme::Filtered, Scheme::Conservative];
    out += &row(12, "spike len", &order.map(|s| s.name()));
    for len in [1.0, 2.0, 3.0, 4.0] {
        let cells = order.map(|s| format!("{}%", f(transient_point(100, s, len, 42), 1)));
        out += &row(12, &format!("{len} s"), &cells);
    }
    out += "\npaper values (%): no-remap 7.4/11.9/23.7/35.6, global 5.8/37.2/40.9/49.5,\n\
            filtered 6.7/15.6/23.3/38.1, conservative 10.9/16.0/24.9/39.8\n";
    out
}

/// §4.2 scaling claim: near-linear speedup on a dedicated cluster ("the
/// speedup is 18.97 with 20 nodes"), 600 phases per node count.
pub fn scaling() -> String {
    let mut out = header(
        "§4.2 — dedicated-cluster speedup",
        "400x200x20 lattice; paper reports 18.97 at 20 nodes",
    );
    out += &row(8, "nodes", &["speedup", "efficiency"]);
    for nodes in [1usize, 2, 4, 8, 10, 16, 20] {
        let s = dedicated_speedup(600, nodes);
        out += &row(8, &nodes.to_string(), &[f(s, 2), f(s / nodes as f64, 3)]);
    }
    out
}

/// Ablation of the filtered scheme's design choices (paper §3.4):
/// predictor, over-redistribution vs conservative fractions, migration
/// threshold and remapping interval. 20 nodes, 600 phases, 2 fixed slow
/// nodes, plus a 3 s transient-spike column showing which choices
/// tolerate transients.
pub fn filters() -> String {
    let cfg = ClusterConfig::paper(20, 600);
    // (fixed-slow time, spiked time, planes migrated under the slow nodes)
    let timed = |cfg: &ClusterConfig, policy: &dyn RemapPolicy, predictor: &dyn Predictor| {
        let fixed = run(cfg, policy, predictor, &FixedSlowNodes::paper(20, 2));
        let spiky = run(cfg, policy, predictor, &TransientSpikes::new(20, 3.0, 42, 100_000));
        [f(fixed.total_time, 1), f(spiky.total_time, 1), fixed.migrated_planes.to_string()]
    };
    let columns = ["fixed (s)", "spikes (s)", "migrated"];
    let mut out = header(
        "Ablation — filtered remapping design choices",
        "20 nodes, 600 phases; 2 fixed slow nodes / 3 s transient spikes",
    );

    out += "\n-- predictor (policy: filtered) --\n";
    out += &row(16, "predictor", &columns);
    let preds: [(&str, &dyn Predictor); 4] = [
        ("harmonic(10)", &HarmonicMean { window: 10 }),
        ("last-phase", &LastPhase),
        ("arithmetic(10)", &ArithmeticMean { window: 10 }),
        ("exp(0.3)", &ExpSmoothing { alpha: 0.3, warmup: 10 }),
    ];
    for (name, p) in preds {
        out += &row(16, name, &timed(&cfg, &Filtered::default(), p));
    }

    out += "\n-- redistribution (predictor: harmonic) --\n";
    out += &row(16, "scheme", &columns);
    let hp = HarmonicMean::paper();
    let schemes: [(&str, &dyn RemapPolicy); 4] = [
        ("over-redistr.", &Filtered::default()),
        ("exact (1.0)", &Conservative::default()),
        ("half (0.5)", &Conservative { fraction: 0.5, ..Default::default() }),
        ("quarter (0.25)", &Conservative { fraction: 0.25, ..Default::default() }),
    ];
    for (name, policy) in schemes {
        out += &row(16, name, &timed(&cfg, policy, &hp));
    }

    out += "\n-- migration threshold (planes; paper uses 1 = 4000 points) --\n";
    out += &row(16, "threshold", &columns);
    for thr in [0.25, 0.5, 1.0, 2.0, 4.0] {
        let policy = Filtered { params: FilterParams { threshold_planes: thr, min_planes: 1 } };
        out += &row(16, &format!("{thr} planes"), &timed(&cfg, &policy, &hp));
    }

    out += "\n-- remapping interval (phases; paper remaps every few phases) --\n";
    out += &row(16, "interval", &columns);
    for interval in [2u64, 5, 10, 20, 50] {
        let cfg = ClusterConfig { remap_interval: interval, ..cfg.clone() };
        out += &row(16, &interval.to_string(), &timed(&cfg, &Filtered::default(), &hp));
    }
    out
}

/// Extension beyond the paper: remapping on a statically heterogeneous
/// cluster (base speeds in [0.5, 1.0], seed 5), with and without the
/// paper's background jobs on 2 nodes. A slow machine communicates at its
/// own pace but pays no scheduling latency, so proportional balancing is
/// the right answer and over-redistribution's advantage shrinks — the
/// ablation that locates *why* filtered wins in the paper's setting.
pub fn hetero() -> String {
    let cfg = ClusterConfig::paper(20, 600);
    let mut out = header(
        "Extension — heterogeneous cluster (no contention vs contention)",
        "20 nodes with base speeds in [0.5, 1.0]; optional 70% jobs on 2 nodes",
    );
    let base = BaseSpeeds::random(20, 0.5, 1.0, 5);
    let both = Compose(base.clone(), FixedSlowNodes::paper(20, 2));
    let cases: [(&str, &dyn Disturbance); 2] = [
        ("heterogeneous hardware only", &base),
        ("heterogeneous hardware + 2 background jobs", &both),
    ];
    for (title, disturbance) in cases {
        out += &format!("\n-- {title} --\n");
        out += &row(14, "scheme", &["time (s)", "speedup", "migrated"]);
        for s in Scheme::ALL {
            let r = run_scheme(&cfg, s, disturbance);
            let cells = [f(r.total_time, 1), f(r.speedup(), 2), r.migrated_planes.to_string()];
            out += &row(14, s.name(), &cells);
        }
    }
    out
}

/// The remapping transient: mean per-phase cost over 25-phase blocks for
/// Fig. 9's four runs — how quickly each policy converges after the
/// disturbance appears, and what its steady state costs. Filtered
/// remapping pays a short, aggressive drain and settles near the
/// dedicated cost; conservative settles slower and higher; no-remapping
/// never recovers.
pub fn transient() -> String {
    const BLOCK: usize = 25;
    let mut out = header(
        "Remapping transient — per-phase cost over time (block means)",
        "20 nodes, node 9 slow (70% job); mean seconds per phase in each block",
    );
    let runs = one_slow_node_runs();
    out += &row(12, "phases", &runs.each_ref().map(|(name, _)| *name));
    for b in 0..600 / BLOCK {
        let blocks = b * BLOCK..(b + 1) * BLOCK;
        let cells = runs.each_ref().map(|(_, r)| f(r.mean_phase_duration(blocks.clone()), 3));
        out += &row(12, &format!("{}-{}", blocks.start, blocks.end), &cells);
    }
    out.push('\n');
    for (name, r) in &runs {
        out += &match r.settling_phase(0.15) {
            Some(p) => format!("{name:>12}: settles (±15%) by phase {p}\n"),
            None => format!("{name:>12}: too short to judge settling\n"),
        };
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scheme_names() {
        assert_eq!(Scheme::Filtered.name(), "filtered");
        assert_eq!(Scheme::ALL.len(), 4);
    }

    #[test]
    fn row_right_aligns_and_always_separates_cells() {
        assert_eq!(row(6, "m", &["1.5", "22"]), "     m           1.5            22\n");
        // A cell of 14 characters or more still starts with a space.
        assert_eq!(
            row(4, "nm", &["water g/cm3", "air 1e-4 g/cm3"]),
            "  nm   water g/cm3 air 1e-4 g/cm3\n"
        );
        assert_eq!(row::<&str>(3, "x", &[]), "  x\n");
    }

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
    fn transient_slowdown_grows_with_spike_length() {
        let s1 = transient_point(60, Scheme::NoRemap, 1.0, 11);
        let s4 = transient_point(60, Scheme::NoRemap, 4.0, 11);
        assert!(s4 > s1, "longer spikes must hurt more: {s1} vs {s4}");
    }
}
