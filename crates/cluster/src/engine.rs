//! The virtual-time cluster engine.
//!
//! Simulates the paper's parallel LBM execution — per-phase neighbor
//! synchronization, sluggish communication at loaded nodes, and periodic
//! lattice-point remapping — over a deterministic virtual clock. Each
//! phase follows the pseudo-code of the paper's Fig. 2:
//!
//! ```text
//! compute (collision + streaming)
//! ⇄ exchange distribution functions with ring neighbors
//! compute (bounce back, ψ)
//! ⇄ exchange number densities
//! compute (forces, velocities)
//! every REMAPPING_INTERVAL phases:
//!     exchange load indices (neighbor or collective, per policy)
//!     compute remapping amounts, redistribute planes, update s and e
//! ```
//!
//! Node timelines advance independently and only couple at receives — so
//! the "ripple effect" of a slow node (each phase the delay reaches one
//! more neighbor) emerges from the model rather than being scripted.

use microslip_balance::policy::{InfoExchange, RemapPolicy};
use microslip_balance::predict::{History, Predictor};
use microslip_balance::{diff, total_moved, Partition};
use microslip_obs::{Event, Span, SpanKind, TraceSink};

use crate::costmodel::{CostModel, MessageSizes};
use crate::disturbance::{work_to_time, Disturbance};

/// Cluster and workload description.
#[derive(Clone, Debug)]
pub struct ClusterConfig {
    /// Number of nodes (paper: 20 of the 32-node cluster).
    pub nodes: usize,
    /// LBM phases to run.
    pub phases: u64,
    /// Phases between remap rounds (paper: every few phases; we use 10).
    pub remap_interval: u64,
    /// Total y–z planes along x (paper: 400).
    pub planes: usize,
    /// Lattice points per plane (paper: 200 × 20 = 4000).
    pub plane_cells: usize,
    /// Fluid components (paper: 2).
    pub components: usize,
    pub cost: CostModel,
    /// Predictor window (paper: harmonic mean over w = 10).
    pub predictor_window: usize,
}

impl ClusterConfig {
    /// The paper's configuration on `nodes` nodes for `phases` phases.
    pub fn paper(nodes: usize, phases: u64) -> Self {
        ClusterConfig {
            nodes,
            phases,
            remap_interval: 10,
            planes: 400,
            plane_cells: 4000,
            components: 2,
            cost: CostModel::paper(),
            predictor_window: 10,
        }
    }

    /// Total lattice points.
    pub fn total_points(&self) -> usize {
        self.planes * self.plane_cells
    }

    /// Time of the sequential (one-node, zero-communication) run — the
    /// numerator of the paper's speedup.
    pub fn sequential_time(&self) -> f64 {
        self.phases as f64 * self.cost.compute_work(self.total_points())
    }

    fn sizes(&self) -> MessageSizes {
        MessageSizes::new(self.plane_cells, self.components)
    }
}

/// Per-node wall-clock accounting, mirroring the stacked bars of Fig. 9.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct NodeAccount {
    /// Time spent computing lattice updates.
    pub compute: f64,
    /// Time spent in phase communication: message handling plus waiting
    /// for neighbors (including blocking-wakeup penalties).
    pub comm: f64,
    /// Time spent in remap rounds: load exchange, plane migration.
    pub remap: f64,
}

impl NodeAccount {
    pub fn total(&self) -> f64 {
        self.compute + self.comm + self.remap
    }
}

/// Outcome of a simulated run.
#[derive(Clone, Debug)]
pub struct RunResult {
    /// Wall-clock time of the parallel run (max over node timelines).
    pub total_time: f64,
    /// Reference sequential time for the same workload.
    pub sequential_time: f64,
    pub per_node: Vec<NodeAccount>,
    /// Final plane distribution.
    pub final_counts: Vec<usize>,
    /// Planes migrated over the whole run.
    pub migrated_planes: usize,
    /// Remap rounds that produced at least one migration.
    pub effective_remaps: u64,
    /// Remap rounds entered (policy invoked).
    pub remap_rounds: u64,
    /// First phase at which each node waited on a neighbor (ripple probe).
    pub first_wait_phase: Vec<Option<u64>>,
    /// Wall-clock duration of each phase (makespan increments): the
    /// convergence trace of the remapping transient.
    pub phase_durations: Vec<f64>,
}

impl RunResult {
    /// Speedup versus the sequential run.
    pub fn speedup(&self) -> f64 {
        self.sequential_time / self.total_time
    }

    /// Mean phase duration over an inclusive-exclusive phase range
    /// (`0`-based).
    pub fn mean_phase_duration(&self, range: std::ops::Range<usize>) -> f64 {
        let slice = &self.phase_durations[range];
        slice.iter().sum::<f64>() / slice.len() as f64
    }

    /// The phase after which the per-phase cost stays within `tol`
    /// (relative) of the final steady cost — how long the remapping
    /// transient lasted. `None` if it never settles.
    pub fn settling_phase(&self, tol: f64) -> Option<usize> {
        let n = self.phase_durations.len();
        if n < 10 {
            return None;
        }
        let steady = self.mean_phase_duration(n - n / 10 - 1..n);
        // Last phase whose duration deviates more than tol from steady.
        let last_bad = self
            .phase_durations
            .iter()
            .rposition(|&d| (d - steady).abs() > tol * steady)?;
        Some(last_bad + 1)
    }

    /// The paper's normalized efficiency under `m` slow nodes at 70 %
    /// competing load: `speedup / (P − 0.7·m)`.
    pub fn normalized_efficiency(&self, slow_nodes: usize) -> f64 {
        let p = self.per_node.len() as f64;
        self.speedup() / (p - 0.7 * slow_nodes as f64)
    }
}

/// Which ledger an activity is charged to.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Ledger {
    Comm,
    Remap,
}

/// The traffic classes a node's messages are counted under, in the order
/// its `Traffic` events are emitted; the names are the runtime's
/// `comm::Tag` names.
#[derive(Clone, Copy)]
enum Tag {
    FHalo,
    PsiHalo,
    Load,
    MigrateData,
}

const TAG_NAMES: [&str; 4] = ["f_halo", "psi_halo", "load", "migrate_data"];

struct Engine<'a> {
    cfg: &'a ClusterConfig,
    dist: &'a dyn Disturbance,
    trace: &'a TraceSink,
    t: Vec<f64>,
    acct: Vec<NodeAccount>,
    first_wait_phase: Vec<Option<u64>>,
    phase: u64,
    /// `[node][tag]`: messages sent, bytes sent, messages received, bytes
    /// received.
    traffic: Vec<[[u64; 4]; 4]>,
}

impl<'a> Engine<'a> {
    fn new(cfg: &'a ClusterConfig, dist: &'a dyn Disturbance, trace: &'a TraceSink) -> Self {
        Engine {
            cfg,
            dist,
            trace,
            t: vec![0.0; cfg.nodes],
            acct: vec![NodeAccount::default(); cfg.nodes],
            first_wait_phase: vec![None; cfg.nodes],
            phase: 0,
            traffic: vec![[[0; 4]; 4]; cfg.nodes],
        }
    }

    /// Adds `[sent messages, sent bytes, received messages, received
    /// bytes]` to node `i`'s traffic under `tag`.
    fn count(&mut self, i: usize, tag: Tag, add: [u64; 4]) {
        for (total, n) in self.traffic[i][tag as usize].iter_mut().zip(add) {
            *total += n;
        }
    }

    /// Advances node `i` by `work` unit-speed seconds of computation.
    /// Emits a compute span over the virtual interval — disturbance
    /// stretching is folded into it (virtual slowness is continuous, not a
    /// distinct activity like the runtime's throttle padding).
    fn compute(&mut self, i: usize, work: f64) -> f64 {
        let end = work_to_time(self.dist, i, self.t[i], work);
        let start = self.t[i];
        let dur = end - start;
        self.acct[i].compute += dur;
        self.t[i] = end;
        let phase = self.phase;
        self.trace.record_with(|| {
            Event::Span(Span { node: i, kind: SpanKind::Compute, phase, start, end })
        });
        dur
    }

    /// Emits one span per node covering the timeline segment advanced
    /// since `before` — used to bracket a whole exchange episode or remap
    /// round into a single span per participant.
    fn span_since(&self, before: &[f64], kind: SpanKind) {
        if !self.trace.enabled() {
            return;
        }
        for i in 0..self.cfg.nodes {
            if self.t[i] > before[i] {
                self.trace.record(Event::Span(Span {
                    node: i,
                    kind,
                    phase: self.phase,
                    start: before[i],
                    end: self.t[i],
                }));
            }
        }
    }

    /// Advances node `i` by `work` unit-speed seconds of message handling,
    /// charged to `ledger`.
    fn handle(&mut self, i: usize, work: f64, ledger: Ledger) {
        let end = work_to_time(self.dist, i, self.t[i], work);
        let dur = end - self.t[i];
        match ledger {
            Ledger::Comm => self.acct[i].comm += dur,
            Ledger::Remap => self.acct[i].remap += dur,
        }
        self.t[i] = end;
    }

    /// Blocks node `i` until `arrival`, charging the wait to `ledger`.
    fn wait_until(&mut self, i: usize, arrival: f64, ledger: Ledger) {
        if arrival <= self.t[i] {
            return;
        }
        let wait = arrival - self.t[i];
        self.t[i] = arrival;
        match ledger {
            Ledger::Comm => self.acct[i].comm += wait,
            Ledger::Remap => self.acct[i].remap += wait,
        }
        if ledger == Ledger::Comm && self.first_wait_phase[i].is_none() {
            self.first_wait_phase[i] = Some(self.phase);
        }
    }

    /// Scheduling latency before node `i` can engage in a communication
    /// episode while a competing job holds the CPU.
    fn slot_delay(&mut self, i: usize, ledger: Ledger) {
        let delay = self.cfg.cost.slot_delay(self.dist.load(i, self.t[i]));
        if delay > 0.0 {
            self.t[i] += delay;
            match ledger {
                Ledger::Comm => self.acct[i].comm += delay,
                Ledger::Remap => self.acct[i].remap += delay,
            }
        }
    }

    /// A symmetric neighbor exchange: every node sends one `bytes` message
    /// to each peer in `peers(i)`, then receives from each; the messages
    /// are counted under `tag`.
    fn exchange(
        &mut self,
        tag: Tag,
        bytes: usize,
        ledger: Ledger,
        peers: impl Fn(usize) -> Vec<usize>,
    ) {
        let n = self.cfg.nodes;
        let work = self.cfg.cost.message_work(bytes);
        let peer_lists: Vec<Vec<usize>> = (0..n).map(&peers).collect();
        let before = self.trace.enabled().then(|| self.t.clone());
        // Sends; each participating node first pays the scheduling latency
        // of its communication episode.
        for i in 0..n {
            if peer_lists[i].is_empty() {
                continue;
            }
            self.slot_delay(i, ledger);
            let count = peer_lists[i].len();
            self.handle(i, count as f64 * work, ledger);
            let (count, bytes) = (count as u64, (count * bytes) as u64);
            self.count(i, tag, [count, bytes, count, bytes]);
        }
        let send_done = self.t.clone();
        // Receives, lowest-rank peer first.
        for i in 0..n {
            let mut from = peer_lists[i].clone();
            from.sort_unstable();
            from.dedup();
            for &j in &from {
                // A peer appearing twice (2-node ring) delivers both
                // messages by its send_done time.
                self.wait_until(i, send_done[j], ledger);
                let copies =
                    peer_lists[i].iter().filter(|&&p| p == j).count() as f64;
                self.handle(i, copies * work, ledger);
            }
        }
        if let Some(before) = &before {
            let kind = match ledger {
                Ledger::Comm => SpanKind::Halo,
                Ledger::Remap => SpanKind::Remap,
            };
            self.span_since(before, kind);
        }
    }
}

/// Runs the configured workload under `policy` and `disturbance`.
pub fn run(
    cfg: &ClusterConfig,
    policy: &dyn RemapPolicy,
    predictor: &dyn Predictor,
    disturbance: &dyn Disturbance,
) -> RunResult {
    run_traced(cfg, policy, predictor, disturbance, &TraceSink::null())
}

/// As [`run`], additionally emitting the structured event stream of the
/// simulated execution into `trace`: the same schema the threaded runtime
/// records, stamped with virtual-time seconds — so a simulated run and a
/// real run can be diffed event by event. The engine is single-threaded,
/// so the stream is byte-deterministic for identical inputs.
pub fn run_traced(
    cfg: &ClusterConfig,
    policy: &dyn RemapPolicy,
    predictor: &dyn Predictor,
    disturbance: &dyn Disturbance,
    trace: &TraceSink,
) -> RunResult {
    cfg.cost.validate().expect("invalid cost model");
    assert!(cfg.nodes >= 1);
    assert!(cfg.planes >= cfg.nodes, "every node needs at least one plane");
    trace.record_with(|| Event::Meta {
        mode: "cluster".into(),
        nodes: cfg.nodes,
        phases: cfg.phases,
        policy: policy.name().into(),
    });
    let sizes = cfg.sizes();
    let mut partition = Partition::even(cfg.planes, cfg.nodes, cfg.plane_cells);
    let mut histories: Vec<History> =
        (0..cfg.nodes).map(|_| History::new(predictor.window().max(1))).collect();
    let mut eng = Engine::new(cfg, disturbance, trace);
    let mut migrated_planes = 0usize;
    let mut effective_remaps = 0u64;
    let mut remap_rounds = 0u64;
    let mut phase_durations = Vec::with_capacity(cfg.phases as usize);
    let mut prev_makespan = 0.0f64;

    let mig_plane_work = cfg.cost.message_work(sizes.migration_per_plane);

    for phase in 1..=cfg.phases {
        eng.phase = phase;
        let mut phase_compute = vec![0.0f64; cfg.nodes];
        let fr = cfg.cost.compute_fractions;
        // Stage A: collision + streaming.
        for i in 0..cfg.nodes {
            let w = fr[0] * cfg.cost.compute_work(partition.points(i));
            phase_compute[i] += eng.compute(i, w);
        }
        // Exchange distribution functions.
        if cfg.nodes > 1 {
            eng.exchange(Tag::FHalo, sizes.f_halo, Ledger::Comm, |i| eng_ring(cfg.nodes, i));
        }
        // Stage B: bounce back + number densities.
        for i in 0..cfg.nodes {
            let w = fr[1] * cfg.cost.compute_work(partition.points(i));
            phase_compute[i] += eng.compute(i, w);
        }
        // Exchange number densities.
        if cfg.nodes > 1 {
            eng.exchange(Tag::PsiHalo, sizes.psi_halo, Ledger::Comm, |i| eng_ring(cfg.nodes, i));
        }
        // Stage C: forces + velocities.
        for i in 0..cfg.nodes {
            let w = fr[2] * cfg.cost.compute_work(partition.points(i));
            phase_compute[i] += eng.compute(i, w);
        }
        // Record normalized (per-point) compute time — the load index
        // input is independent of how many planes the node held.
        for i in 0..cfg.nodes {
            histories[i].push(phase_compute[i] / partition.points(i) as f64);
        }

        // Remap round.
        if phase % cfg.remap_interval == 0 && policy.info_exchange() != InfoExchange::None {
            remap_rounds += 1;
            match policy.info_exchange() {
                InfoExchange::None => unreachable!(),
                InfoExchange::Neighbor => {
                    if cfg.nodes > 1 {
                        eng.exchange(Tag::Load, sizes.load_index, Ledger::Remap, |i| {
                            eng_line(cfg.nodes, i)
                        });
                    }
                }
                InfoExchange::Global => {
                    if cfg.nodes > 1 {
                        // Allgather: everyone sends to and receives from
                        // everyone; a synchronization point.
                        let all = |i: usize| -> Vec<usize> {
                            (0..cfg.nodes).filter(|&j| j != i).collect()
                        };
                        eng.exchange(Tag::Load, sizes.load_index, Ledger::Remap, all);
                        // Barrier semantics: nobody proceeds before the
                        // slowest participant.
                        let tmax =
                            eng.t.iter().copied().fold(f64::NEG_INFINITY, f64::max);
                        for i in 0..cfg.nodes {
                            eng.wait_until(i, tmax, Ledger::Remap);
                        }
                    }
                }
            }
            // Predictions: per-point time × current points.
            let predicted: Vec<Option<f64>> = (0..cfg.nodes)
                .map(|i| {
                    predictor
                        .predict(histories[i].as_slice())
                        .map(|per_point| per_point * partition.points(i) as f64)
                })
                .collect();
            let target = policy.target_counts(&predicted, &partition);
            let moves = diff(&partition, &target);
            if trace.enabled() {
                // Global decision: the engine sees every node at once, so
                // the audit event carries `node: None` and the full view.
                let tdec = eng.t.iter().copied().fold(0.0f64, f64::max);
                trace.record(microslip_balance::decision_event(
                    tdec,
                    None,
                    phase,
                    policy,
                    &predicted,
                    &partition,
                    &target,
                    !moves.is_empty(),
                ));
            }
            if !moves.is_empty() {
                effective_remaps += 1;
                migrated_planes += total_moved(&moves);
                let before = trace.enabled().then(|| eng.t.clone());
                // Execute transfers in plane order: sender packs and
                // sends, receiver waits and unpacks. Each endpoint pays
                // its scheduling latency once per round.
                let mut touched: Vec<usize> =
                    moves.iter().flat_map(|m| [m.from, m.to]).collect();
                touched.sort_unstable();
                touched.dedup();
                for i in touched {
                    eng.slot_delay(i, Ledger::Remap);
                }
                for m in &moves {
                    let work = m.planes as f64 * mig_plane_work;
                    eng.handle(m.from, work, Ledger::Remap);
                    let arrival = eng.t[m.from];
                    let bytes = (m.planes * sizes.migration_per_plane) as u64;
                    trace.record_with(|| Event::Migration {
                        time: arrival,
                        phase,
                        from: m.from,
                        to: m.to,
                        planes: m.planes,
                        bytes,
                    });
                    eng.count(m.from, Tag::MigrateData, [1, bytes, 0, 0]);
                    eng.count(m.to, Tag::MigrateData, [0, 0, 1, bytes]);
                    eng.wait_until(m.to, arrival, Ledger::Remap);
                    eng.handle(m.to, work, Ledger::Remap);
                }
                if let Some(b) = before {
                    eng.span_since(&b, SpanKind::Remap);
                }
                partition.apply(&target);
            }
        }

        // The phase's duration: a remap round's cost lands in the phase
        // that triggers it.
        let makespan = eng.t.iter().copied().fold(0.0f64, f64::max);
        phase_durations.push(makespan - prev_makespan);
        prev_makespan = makespan;
    }

    // One `Traffic` event per node and tag that carried a message,
    // node-major in tag order.
    for (node, tags) in eng.traffic.iter().enumerate() {
        for (name, &[sent_messages, sent_bytes, recv_messages, recv_bytes]) in
            TAG_NAMES.iter().zip(tags)
        {
            if sent_messages > 0 || recv_messages > 0 {
                trace.record_with(|| Event::Traffic {
                    node,
                    tag: name.to_string(),
                    sent_messages,
                    sent_bytes,
                    recv_messages,
                    recv_bytes,
                });
            }
        }
    }
    let total_time = eng.t.iter().copied().fold(0.0f64, f64::max);
    RunResult {
        total_time,
        sequential_time: cfg.sequential_time(),
        per_node: eng.acct,
        final_counts: partition.counts().to_vec(),
        migrated_planes,
        effective_remaps,
        remap_rounds,
        first_wait_phase: eng.first_wait_phase,
        phase_durations,
    }
}

// Free functions for neighbor lists (avoid borrowing the engine in the
// closure passed to `exchange`).
fn eng_ring(n: usize, i: usize) -> Vec<usize> {
    if n == 1 {
        return Vec::new();
    }
    let left = (i + n - 1) % n;
    let right = (i + 1) % n;
    vec![left, right]
}

fn eng_line(n: usize, i: usize) -> Vec<usize> {
    let mut v = Vec::new();
    if i > 0 {
        v.push(i - 1);
    }
    if i + 1 < n {
        v.push(i + 1);
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disturbance::{Dedicated, FixedSlowNodes};
    use microslip_balance::policy::{Filtered, NoRemap};
    use microslip_balance::predict::HarmonicMean;

    fn paper_cfg(phases: u64) -> ClusterConfig {
        ClusterConfig::paper(20, phases)
    }

    #[test]
    fn dedicated_speedup_is_near_linear() {
        let cfg = paper_cfg(600);
        let r = run(&cfg, &NoRemap, &HarmonicMean::paper(), &Dedicated);
        let s = r.speedup();
        assert!(s > 18.0 && s < 20.0, "dedicated speedup {s} (paper: 18.97)");
        // ≈ 251 s for 600 phases (paper §4.2.2).
        assert!(
            r.total_time > 235.0 && r.total_time < 270.0,
            "dedicated 600 phases took {}",
            r.total_time
        );
    }

    #[test]
    fn single_node_run_equals_sequential() {
        let mut cfg = paper_cfg(100);
        cfg.nodes = 1;
        let r = run(&cfg, &NoRemap, &HarmonicMean::paper(), &Dedicated);
        assert!((r.total_time - r.sequential_time).abs() / r.sequential_time < 1e-12);
        assert_eq!(r.per_node[0].comm, 0.0);
    }

    #[test]
    fn one_slow_node_drags_noremap_run() {
        let cfg = paper_cfg(600);
        let slow = FixedSlowNodes::paper(20, 1);
        let r = run(&cfg, &NoRemap, &HarmonicMean::paper(), &slow);
        let dedicated = run(&cfg, &NoRemap, &HarmonicMean::paper(), &Dedicated);
        let ratio = r.total_time / dedicated.total_time;
        // Paper §4.2.2: 251 s → 717 s, ratio ≈ 2.86 ("a factor of two to
        // three"). Our model is slightly more pessimistic because the
        // scheduling latency stacks on top of the 30 % CPU share.
        assert!(ratio > 2.0 && ratio < 4.0, "no-remap slowdown ratio {ratio}");
    }

    #[test]
    fn filtered_recovers_most_of_the_loss() {
        let cfg = paper_cfg(600);
        let slow = FixedSlowNodes::paper(20, 1);
        let pred = HarmonicMean::paper();
        let filtered = run(&cfg, &Filtered::default(), &pred, &slow);
        let noremap = run(&cfg, &NoRemap, &pred, &slow);
        assert!(
            filtered.total_time < 0.6 * noremap.total_time,
            "filtered {} vs no-remap {}",
            filtered.total_time,
            noremap.total_time
        );
        // The slow node ends nearly drained.
        assert!(filtered.final_counts[9] <= 4, "{:?}", filtered.final_counts);
        assert!(filtered.migrated_planes > 0);
    }

    #[test]
    fn ripple_effect_propagates_through_the_ring() {
        // Paper §3.1: "at one phase the neighbor nodes are slowed down by
        // the slowest node; in two phases, nodes with distance two away
        // are slowed down…". Our phase has *two* halo exchanges, so the
        // delay front advances up to two hops per phase: a node at ring
        // distance d first waits around phase ⌈d/2⌉.
        let cfg = paper_cfg(40);
        let slow = FixedSlowNodes::new(20, &[9], 0.3);
        let r = run(&cfg, &NoRemap, &HarmonicMean::paper(), &slow);
        for (i, fw) in r.first_wait_phase.iter().enumerate() {
            if i == 9 {
                continue;
            }
            let d = {
                let fwd = (i + 20 - 9) % 20;
                fwd.min(20 - fwd)
            };
            let phase = fw.expect("every node is eventually affected") as usize;
            let expect = d.div_ceil(2);
            assert!(
                phase >= expect && phase <= d + 2,
                "node {i} at ring distance {d} first waited at phase {phase}"
            );
            // The farthest node is reached within the paper's 10–20 phase
            // horizon.
            assert!(phase <= 20);
        }
    }

    #[test]
    fn deterministic() {
        let cfg = paper_cfg(200);
        let slow = FixedSlowNodes::paper(20, 3);
        let pred = HarmonicMean::paper();
        let a = run(&cfg, &Filtered::default(), &pred, &slow);
        let b = run(&cfg, &Filtered::default(), &pred, &slow);
        assert_eq!(a.total_time, b.total_time);
        assert_eq!(a.final_counts, b.final_counts);
        assert_eq!(a.migrated_planes, b.migrated_planes);
    }

    #[test]
    fn accounting_is_complete() {
        // Each node's ledgers sum to (close to) its timeline.
        let cfg = paper_cfg(100);
        let slow = FixedSlowNodes::paper(20, 2);
        let r = run(&cfg, &Filtered::default(), &HarmonicMean::paper(), &slow);
        for (i, a) in r.per_node.iter().enumerate() {
            assert!(a.compute > 0.0, "node {i} computed nothing");
            assert!(a.total() <= r.total_time + 1e-9);
        }
        // The slowest node's ledger must essentially fill the run.
        let max_total =
            r.per_node.iter().map(NodeAccount::total).fold(0.0f64, f64::max);
        assert!(max_total > 0.95 * r.total_time);
    }

    #[test]
    fn plane_conservation() {
        let cfg = paper_cfg(300);
        let slow = FixedSlowNodes::paper(20, 4);
        let r = run(&cfg, &Filtered::default(), &HarmonicMean::paper(), &slow);
        assert_eq!(r.final_counts.iter().sum::<usize>(), cfg.planes);
        assert!(r.final_counts.iter().all(|&c| c >= 1));
    }

    #[test]
    fn no_remap_never_migrates() {
        let cfg = paper_cfg(100);
        let slow = FixedSlowNodes::paper(20, 1);
        let r = run(&cfg, &NoRemap, &HarmonicMean::paper(), &slow);
        assert_eq!(r.migrated_planes, 0);
        assert_eq!(r.remap_rounds, 0);
        assert_eq!(r.final_counts, vec![20; 20]);
    }

    #[test]
    fn phase_timeline_shows_remap_transient() {
        // With a slow node and filtered remapping, the early phases are
        // expensive (drain in progress) and the steady phases cheap; the
        // settling point lands within the first few remap rounds' reach.
        let cfg = paper_cfg(2000);
        let slow = FixedSlowNodes::paper(20, 1);
        let r = run(&cfg, &Filtered::default(), &HarmonicMean::paper(), &slow);
        assert_eq!(r.phase_durations.len(), 2000);
        let early = r.mean_phase_duration(0..50);
        let late = r.mean_phase_duration(1500..2000);
        assert!(
            early > 1.5 * late,
            "drain transient should be visible: early {early} vs late {late}"
        );
        // Individual remap phases spike (migration cost lands in them), so
        // judge settling on 50-phase block means instead.
        let blocks: Vec<f64> =
            (0..40).map(|b| r.mean_phase_duration(b * 50..(b + 1) * 50)).collect();
        let steady = blocks[39];
        let settled_block = blocks
            .iter()
            .rposition(|&m| (m - steady).abs() > 0.1 * steady)
            .map(|b| b + 1)
            .unwrap_or(0);
        assert!(
            settled_block * 50 < 700,
            "filtered remapping should settle within a few hundred phases, got block {settled_block}"
        );
        // Total time equals the sum of phase durations.
        let sum: f64 = r.phase_durations.iter().sum();
        assert!((sum - r.total_time).abs() < 1e-6);
    }

    #[test]
    fn dedicated_timeline_is_flat() {
        let cfg = paper_cfg(200);
        let r = run(&cfg, &NoRemap, &HarmonicMean::paper(), &Dedicated);
        let (min, max) = r.phase_durations.iter().fold((f64::INFINITY, 0.0f64), |(lo, hi), &d| {
            (lo.min(d), hi.max(d))
        });
        assert!(
            (max - min) / max < 1e-9,
            "dedicated phases must be uniform: {min} vs {max}"
        );
    }

    #[test]
    fn dedicated_cluster_filtered_stays_put() {
        // Lazy remapping must not churn on a balanced dedicated cluster.
        let cfg = paper_cfg(200);
        let r = run(&cfg, &Filtered::default(), &HarmonicMean::paper(), &Dedicated);
        assert_eq!(r.migrated_planes, 0, "spurious migration on dedicated cluster");
        assert_eq!(r.final_counts, vec![20; 20]);
    }
}
