//! Communication-budget tests: the worker protocol must send exactly the
//! traffic the paper's algorithm implies — two halo exchanges per phase,
//! and (for filtered remapping) O(1) neighbor-local load messages per
//! remap round, never a collective — and a migration must travel in
//! bounded, acknowledged batches.

use std::sync::Arc;

use microslip_balance::policy::{Filtered, NoRemap};
use microslip_balance::predict::HarmonicMean;
use microslip_comm::{mesh, CommError, InstrumentedTransport, NodeId, Tag, Transport};
use microslip_lbm::geometry::even_slabs;
use microslip_lbm::{ChannelConfig, Dims, SlabSolver};
use microslip_runtime::worker::{
    migration_batch_planes, worker_main, WorkerReport, MIGRATION_BATCH_BYTES,
};
use microslip_runtime::{RuntimeConfig, ThrottlePlan};

fn run_instrumented(
    workers: usize,
    phases: u64,
    remap_interval: u64,
    filtered: bool,
    throttle1: f64,
) -> Vec<(WorkerReport, InstrumentedTransport<microslip_comm::ChannelTransport>)> {
    let mut channel = ChannelConfig::paper_scaled(Dims::new(16, 6, 4));
    channel.body = [1e-4, 0.0, 0.0];
    let mut cfg = RuntimeConfig::new(channel, workers, phases);
    cfg.remap_interval = remap_interval;
    cfg.predictor_window = 2;
    let cfg = Arc::new(cfg);
    #[expect(
        clippy::disallowed_types,
        clippy::disallowed_methods,
        reason = "the epoch only stamps trace spans, and the null sink drops them"
    )]
    let epoch = std::time::Instant::now();
    let slabs = even_slabs(16, workers);
    let handles: Vec<_> = mesh(workers)
        .into_iter()
        .zip(slabs)
        .map(|(t, slab)| {
            let cfg = Arc::clone(&cfg);
            let rank = t.rank();
            std::thread::spawn(move || {
                let mut t = InstrumentedTransport::new(t);
                let predictor = HarmonicMean { window: 2 };
                let throttle = if rank == 1 {
                    ThrottlePlan::constant(throttle1)
                } else {
                    ThrottlePlan::none()
                };
                let solver = SlabSolver::new(&cfg.channel, slab);
                let outcome = if filtered {
                    worker_main(&cfg, &Filtered::default(), &predictor, &mut t, solver, throttle, epoch)
                } else {
                    worker_main(&cfg, &NoRemap, &predictor, &mut t, solver, throttle, epoch)
                };
                (outcome.expect("worker failed").0, t)
            })
        })
        .collect();
    handles.into_iter().map(|h| h.join().unwrap()).collect()
}

#[test]
fn halo_traffic_is_exactly_two_exchanges_per_phase() {
    let phases = 6;
    let out = run_instrumented(4, phases, 0, false, 1.0);
    for (report, t) in &out {
        // f halo: 2 sends per phase; ψ halo: 2 sends per phase plus the
        // one priming exchange.
        assert_eq!(t.sent(Tag::F_HALO).messages, 2 * phases, "rank {}", report.rank);
        assert_eq!(t.sent(Tag::PSI_HALO).messages, 2 * (phases + 1));
        assert_eq!(t.received(Tag::F_HALO).messages, 2 * phases);
        // Message sizes: 5 dirs × 2 comps × 24 plane cells.
        assert_eq!(t.sent(Tag::F_HALO).values, 2 * phases * 5 * 2 * 24);
        // No balancing traffic without remapping.
        assert_eq!(t.sent(Tag::LOAD).messages, 0);
        assert_eq!(t.sent(Tag::MIGRATE_DATA).messages, 0);
    }
}

#[test]
fn filtered_load_exchange_is_neighbor_local() {
    let phases = 12;
    let remap_interval = 3;
    let rounds = phases / remap_interval;
    let out = run_instrumented(4, phases, remap_interval, true, 6.0);
    for (report, t) in &out {
        let rank = report.rank;
        // Two-hop protocol: hop 1 sends to each line neighbor, hop 2
        // forwards once per side for middle ranks. Ends (0, 3) have one
        // neighbor and never forward.
        let per_round: u64 = match rank {
            0 | 3 => 1,
            _ => 2 + 2,
        };
        assert_eq!(
            t.sent(Tag::LOAD).messages,
            per_round * rounds,
            "rank {rank}: load messages must be O(1) per round"
        );
        // Load messages are tiny (2 values), independent of domain size —
        // the cheapness the paper's local exchange is designed for.
        assert_eq!(t.sent(Tag::LOAD).values, per_round * rounds * 2);
        // Never any traffic outside the five protocol tags (no collective).
        let named: u64 = Tag::ALL.iter().map(|&tag| t.sent(tag).messages).sum();
        assert_eq!(t.total_sent().messages, named);
    }
    // The throttled worker actually shed planes (migration happened).
    let migrated: u64 =
        out.iter().map(|(_, t)| t.sent(Tag::MIGRATE_DATA).messages).sum();
    assert!(migrated > 0, "expected at least one migration");
    let counts: Vec<usize> = out.iter().map(|(r, _)| r.final_slab.nx_local).collect();
    assert_eq!(counts.iter().sum::<usize>(), 16);
    assert!(counts[1] < 4, "throttled rank should shed planes: {counts:?}");
}

#[test]
fn migration_payload_matches_plane_size() {
    let out = run_instrumented(2, 8, 2, true, 8.0);
    // One migrated plane is the phase-boundary state, (19 + 1) channels —
    // `f` and ψ — × 2 components × 24 cells, and every message ends with
    // one ψ plane per component, the receiver's new ghost: nothing else.
    let (plane_values, psi_values) = (20 * 2 * 24, 2 * 24);
    for (report, t) in &out {
        let c = t.sent(Tag::MIGRATE_DATA);
        let planes = report.planes_sent as u64;
        assert_eq!(
            c.values,
            planes * plane_values + c.messages * psi_values,
            "rank {}: {planes} planes in {} messages",
            report.rank,
            c.messages
        );
    }
    assert!(out.iter().any(|(r, _)| r.planes_sent > 0), "expected at least one migration");
}

/// One step of a migration as a rank saw it, in the order it happened.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Step {
    /// A `MIGRATE_DATA` batch of this many values went to the peer.
    SentBatch(NodeId, usize),
    /// An acknowledgement came back from the peer.
    GotAck(NodeId),
    /// A batch of this many values arrived from the peer.
    GotBatch(NodeId, usize),
    /// An acknowledgement went to the peer.
    SentAck(NodeId),
}

/// A transport that logs every migration message in order.
struct MoveLog<T: Transport> {
    inner: T,
    steps: Vec<Step>,
}

impl<T: Transport> Transport for MoveLog<T> {
    fn rank(&self) -> NodeId {
        self.inner.rank()
    }

    fn size(&self) -> usize {
        self.inner.size()
    }

    fn send(&mut self, to: NodeId, tag: Tag, payload: Vec<f64>) -> Result<(), CommError> {
        match tag {
            Tag::MIGRATE_DATA => self.steps.push(Step::SentBatch(to, payload.len())),
            Tag::MIGRATE_COUNT => self.steps.push(Step::SentAck(to)),
            _ => {}
        }
        self.inner.send(to, tag, payload)
    }

    fn recv(&mut self, from: NodeId, tag: Tag) -> Result<Vec<f64>, CommError> {
        let payload = self.inner.recv(from, tag)?;
        match tag {
            Tag::MIGRATE_DATA => self.steps.push(Step::GotBatch(from, payload.len())),
            Tag::MIGRATE_COUNT => self.steps.push(Step::GotAck(from)),
            _ => {}
        }
        Ok(payload)
    }
}

#[test]
fn migrations_travel_in_bounded_acknowledged_batches() {
    // The paper's cross-section, where a batch is a couple of planes, and
    // a throttle that makes rank 1 shed most of its slab at once.
    let mut channel = ChannelConfig::paper_scaled(Dims::new(12, 200, 20));
    channel.body = [1e-4, 0.0, 0.0];
    let probe = SlabSolver::new(&channel, even_slabs(12, 2)[0]);
    let batch = migration_batch_planes(&probe);
    let budget = (MIGRATION_BATCH_BYTES / 8).max(probe.migration_len(1));
    let mut cfg = RuntimeConfig::new(channel, 2, 4);
    cfg.remap_interval = 2;
    cfg.predictor_window = 2;
    cfg.load = microslip_runtime::LoadModel::Synthetic { per_point: 1.0 };
    let cfg = Arc::new(cfg);
    #[expect(
        clippy::disallowed_types,
        clippy::disallowed_methods,
        reason = "the epoch only stamps trace spans, and the null sink drops them"
    )]
    let epoch = std::time::Instant::now();
    let handles: Vec<_> = mesh(2)
        .into_iter()
        .zip(even_slabs(12, 2))
        .map(|(t, slab)| {
            let cfg = Arc::clone(&cfg);
            std::thread::spawn(move || {
                let throttle = match t.rank() {
                    1 => ThrottlePlan::constant(8.0),
                    _ => ThrottlePlan::none(),
                };
                let mut log = MoveLog { inner: t, steps: Vec::new() };
                let predictor = HarmonicMean { window: 2 };
                let solver = SlabSolver::new(&cfg.channel, slab);
                let (report, _) =
                    worker_main(&cfg, &Filtered::default(), &predictor, &mut log, solver, throttle, epoch)
                        .expect("worker failed");
                (report, log.steps)
            })
        })
        .collect();
    let out: Vec<(WorkerReport, Vec<Step>)> =
        handles.into_iter().map(|h| h.join().unwrap()).collect();

    let mut longest_move = 0;
    for (report, steps) in &out {
        let rank = report.rank;
        // Sends minus acknowledgements, and receipts minus acknowledgements,
        // as the log unfolds: never more than the window in flight, every
        // batch acknowledged once it is installed, nothing left over.
        let (mut in_flight, mut unacked_receipts, mut run) = (0usize, 0usize, 0usize);
        for &step in steps {
            match step {
                Step::SentBatch(_, values) => {
                    assert!(values <= budget, "rank {rank}: a batch of {values} values > {budget}");
                    in_flight += 1;
                    run += 1;
                    assert!(in_flight <= 2, "rank {rank}: {in_flight} batches unacknowledged");
                }
                Step::GotAck(_) => {
                    in_flight = in_flight.checked_sub(1).expect("an acknowledgement of no batch");
                    if in_flight == 0 {
                        longest_move = longest_move.max(run);
                        run = 0;
                    }
                }
                Step::GotBatch(_, values) => {
                    assert!(values <= budget, "rank {rank}: a batch of {values} values > {budget}");
                    assert_eq!(unacked_receipts, 0, "rank {rank}: a batch arrived before the last was acknowledged");
                    unacked_receipts += 1;
                }
                Step::SentAck(_) => {
                    unacked_receipts = unacked_receipts.checked_sub(1).expect("an acknowledgement of no batch");
                }
            }
        }
        assert_eq!((in_flight, unacked_receipts), (0, 0), "rank {rank}: a move left unfinished");
        let count = |want: fn(&Step) -> bool| steps.iter().filter(|s| want(s)).count();
        assert_eq!(
            count(|s| matches!(s, Step::SentBatch(..))),
            count(|s| matches!(s, Step::GotAck(_))),
            "rank {rank}: acks equal batches sent"
        );
        assert_eq!(
            count(|s| matches!(s, Step::GotBatch(..))),
            count(|s| matches!(s, Step::SentAck(_))),
            "rank {rank}: acks equal batches received"
        );
    }
    assert!(
        longest_move >= 3,
        "a move must span three batches or more to exercise the window ({batch} planes a batch)"
    );
    let counts: Vec<usize> = out.iter().map(|(r, _)| r.final_slab.nx_local).collect();
    assert_eq!(counts.iter().sum::<usize>(), 12);
}
