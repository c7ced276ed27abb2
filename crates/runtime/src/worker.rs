//! The per-node worker: one thread owning a slab, running the full LBM
//! phase loop with halo exchanges and distributed filtered remapping.
//!
//! The phase structure is the paper's pseudo-code (Fig. 2); remapping uses
//! a **two-hop** neighbor exchange of load indices, which is exactly
//! enough for each worker to compute the plane flow across its own edges
//! consistently with its neighbors (see
//! [`microslip_balance::policy::NeighborPolicy`]), and moves planes in
//! bounded, acknowledged batches (see [`MIGRATION_BATCH_BYTES`]).
//!
//! Transport failures do not panic: the worker returns
//! [`WorkerError::Comm`] with the typed [`CommError`], after flushing its
//! traffic totals into the trace sink — a rank that loses a peer mid-run
//! still leaves a coherent partial trace behind.

use std::fmt;
use std::time::Duration;

use microslip_balance::policy::NeighborPolicy;
use microslip_balance::predict::{History, Predictor};
use microslip_balance::Partition;
use microslip_comm::{CommError, InstrumentedTransport, LinearTopology, Tag, Transport};
use microslip_lbm::{Side, Slab, SlabSolver};
use microslip_obs::{Event, SpanKind};

use crate::driver::RuntimeConfig;
use crate::profile::Profile;
use crate::trace::Tracer;
use crate::throttle::{Throttle, ThrottlePlan};

/// How a worker derives the per-point load index it feeds the predictor.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub enum LoadModel {
    /// Measured wall time of the compute sections (the paper's setup).
    /// Honest, but nondeterministic across runs and hosts.
    #[default]
    Measured,
    /// Synthetic load: `per_point × throttle factor`, no clock involved.
    /// With it, remap decisions depend only on the configuration — a
    /// threaded run and a multi-process run of the same config take
    /// *identical* remap decisions, which is what the substrate
    /// equivalence tests pin.
    Synthetic { per_point: f64 },
}

/// Why a worker stopped before completing its run.
#[derive(Clone, Debug, PartialEq)]
pub enum WorkerError {
    /// The communicator failed (peer died, timed out, spoke garbage).
    Comm(CommError),
    /// A checkpoint file could not be written.
    Io(String),
}

impl fmt::Display for WorkerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WorkerError::Comm(e) => write!(f, "transport failure: {e}"),
            WorkerError::Io(detail) => write!(f, "checkpoint i/o failure: {detail}"),
        }
    }
}

impl std::error::Error for WorkerError {}

impl From<CommError> for WorkerError {
    fn from(e: CommError) -> Self {
        WorkerError::Comm(e)
    }
}

/// What a worker reports when the run completes. The solver itself comes
/// back beside it ([`worker_main`]), so a report outlives no
/// lattice.
#[derive(Clone, Debug)]
pub struct WorkerReport {
    pub rank: usize,
    pub final_slab: Slab,
    pub profile: Profile,
    /// Planes this worker sent away / received during remapping.
    pub planes_sent: usize,
    pub planes_received: usize,
}

/// Runs one worker to completion from `solver` (a fresh slab, or a
/// restored checkpoint) and hands the solver back beside the report as
/// the last phase left it: capture it into the run's snapshot
/// ([`SlabSolver::into_capture`]) or stream it to a checkpoint file
/// ([`microslip_lbm::checkpoint::write_solver`]). `transport` is this
/// rank's endpoint of the communicator; `epoch` the wall-clock origin of
/// the run's span timestamps, shared by every worker so their timelines
/// align. Priming recomputes ψ from the populations, which is idempotent,
/// so restored runs continue bitwise.
#[expect(
    clippy::disallowed_types,
    reason = "the epoch is a passed-in origin the driver read once; clock reads live in the tracer"
)]
pub fn worker_main<T: Transport>(
    cfg: &RuntimeConfig,
    policy: &dyn NeighborPolicy,
    predictor: &dyn Predictor,
    transport: T,
    mut solver: SlabSolver,
    throttle: ThrottlePlan,
    epoch: std::time::Instant,
) -> Result<(WorkerReport, SlabSolver), WorkerError> {
    let rank = transport.rank();
    let n = transport.size();
    let topo = LinearTopology::new(rank, n);
    let mut transport = InstrumentedTransport::new(transport);
    let mut tracer = Tracer::new(cfg.trace.clone(), rank, epoch);
    let mut history = History::new(cfg.predictor_window.max(1));
    let mut planes_sent = 0usize;
    let mut planes_received = 0usize;

    let outcome = run_phases(
        cfg,
        policy,
        predictor,
        &mut solver,
        &mut transport,
        &topo,
        &mut history,
        &mut tracer,
        &throttle,
        &mut planes_sent,
        &mut planes_received,
    );
    // Flush traffic totals even when the run aborted: a partial trace
    // must still account for the bytes that actually moved.
    transport.flush_to(tracer.sink(), rank);
    outcome?;

    let report = WorkerReport {
        rank,
        final_slab: solver.slab(),
        profile: tracer.profile,
        planes_sent,
        planes_received,
    };
    Ok((report, solver))
}

/// Priming plus the phase loop — everything that can fail.
#[expect(
    clippy::too_many_arguments,
    reason = "the worker's state, borrowed piecewise so the solver and transport stay disjoint"
)]
fn run_phases<T: Transport>(
    cfg: &RuntimeConfig,
    policy: &dyn NeighborPolicy,
    predictor: &dyn Predictor,
    solver: &mut SlabSolver,
    transport: &mut InstrumentedTransport<T>,
    topo: &LinearTopology,
    history: &mut History,
    tracer: &mut Tracer,
    throttle: &ThrottlePlan,
    planes_sent: &mut usize,
    planes_received: &mut usize,
) -> Result<(), WorkerError> {
    let rank = topo.rank;
    let n = topo.size;

    // One compute section: time the kernel in `body`, pad it per the
    // throttle, and record the kernel and the padding as *adjacent* spans
    // — the padding is attributed explicitly instead of being folded into
    // a wall-clock compute lap (where a mid-phase disturbance of the
    // spin would be indistinguishable from kernel time). Returns the
    // padded section duration (the load the remap policies must see).
    fn section(
        tracer: &mut Tracer,
        throttle: &Throttle,
        phase: u64,
        body: impl FnOnce(),
    ) -> f64 {
        let t0 = tracer.now();
        body();
        let t1 = tracer.now();
        let d = t1 - t0;
        let pad = throttle.pad_measured(Duration::from_secs_f64(d)).as_secs_f64();
        tracer.span(SpanKind::Compute, phase, t0, t1);
        if pad > 0.0 {
            tracer.span(SpanKind::Pad, phase, t1, t1 + pad);
        }
        d + pad
    }

    // Priming: ψ from the initial state and one ψ exchange — the same
    // steps the sequential driver does. Phase 0 = outside the phase loop.
    solver.prime_local_psi();
    exchange_psi(solver, transport, topo, tracer, 0)?;

    for phase in cfg.start_phase + 1..=cfg.phases {
        let throttle = throttle.at(phase);
        let mut compute_secs = 0.0;

        // Collision of the slab-edge planes only — everything the halo
        // exchange needs — each at forces and equilibrium velocities formed
        // from the last exchanged ψ. Interior planes are collided inside the
        // fused streaming sweep below, while the wires would otherwise be
        // idle.
        compute_secs += section(tracer, &throttle, phase, || solver.collide_edges());

        // Exchange distribution functions.
        exchange_f(solver, transport, topo, tracer, phase)?;

        // Fused collide→stream over the interior, bounce-back, ψ.
        compute_secs += section(tracer, &throttle, phase, || solver.stream_collide_fused());

        // Exchange number densities: the next phase's forces read them.
        exchange_psi(solver, transport, topo, tracer, phase)?;

        // Load index: per-point compute time, independent of slab size.
        // The synthetic model replaces the clock with the throttle factor
        // itself, making the remap schedule a pure function of the config.
        let load = match cfg.load {
            LoadModel::Measured => compute_secs / solver.points() as f64,
            LoadModel::Synthetic { per_point } => per_point * throttle.factor,
        };
        history.push(load);

        // Remapping.
        if cfg.remap_interval > 0 && phase % cfg.remap_interval == 0 && n > 1 {
            remap_round(
                cfg,
                policy,
                predictor,
                solver,
                transport,
                topo,
                history,
                tracer,
                phase,
                planes_sent,
                planes_received,
            )?;
        }

        // Periodic on-disk checkpoint, after any migration so the file
        // reflects the slab layout the next phase will run with. Sealed
        // (CRC-32 trailer) and written via temp-file + rename, so a crash
        // mid-write can never leave a checkpoint that both exists under
        // its final name and fails verification silently.
        if cfg.checkpoint_every > 0 && phase % cfg.checkpoint_every == 0 {
            let dir = cfg
                .checkpoint_dir
                .clone()
                .unwrap_or_else(|| std::path::PathBuf::from("."));
            std::fs::create_dir_all(&dir)
                .map_err(|e| WorkerError::Io(format!("create {}: {e}", dir.display())))?;
            let path = microslip_lbm::checkpoint::path(&dir, rank, phase);
            microslip_lbm::checkpoint::write_solver(&path, solver, phase)
                .map_err(|e| WorkerError::Io(format!("write {}: {e}", path.display())))?;
        }
    }
    Ok(())
}

/// Population halo exchange over the periodic ring. Convention: the
/// right-bound message is always sent first, so the two messages of a
/// two-node ring arrive in a deterministic order.
fn exchange_f<T: Transport>(
    solver: &mut SlabSolver,
    transport: &mut T,
    topo: &LinearTopology,
    tracer: &mut Tracer,
    phase: u64,
) -> Result<(), CommError> {
    let t0 = tracer.now();
    if topo.size == 1 {
        solver.f_ghosts_periodic();
        let t1 = tracer.now();
        tracer.span(SpanKind::Halo, phase, t0, t1);
        return Ok(());
    }
    // Each side is packed once, straight into the message it travels in.
    transport.send(topo.ring_right(), Tag::F_HALO, solver.f_halo_message(Side::Right))?;
    transport.send(topo.ring_left(), Tag::F_HALO, solver.f_halo_message(Side::Left))?;
    for (side, peer) in [(Side::Left, topo.ring_left()), (Side::Right, topo.ring_right())] {
        let halo = transport.recv(peer, Tag::F_HALO)?;
        check_len(peer, "population halo", halo.len(), solver.f_halo_len())?;
        solver.f_halo_in(side, &halo);
    }
    let t1 = tracer.now();
    tracer.span(SpanKind::Halo, phase, t0, t1);
    Ok(())
}

/// ψ halo exchange over the periodic ring.
fn exchange_psi<T: Transport>(
    solver: &mut SlabSolver,
    transport: &mut T,
    topo: &LinearTopology,
    tracer: &mut Tracer,
    phase: u64,
) -> Result<(), CommError> {
    let t0 = tracer.now();
    if topo.size == 1 {
        solver.psi_ghosts_periodic();
        let t1 = tracer.now();
        tracer.span(SpanKind::Halo, phase, t0, t1);
        return Ok(());
    }
    transport.send(topo.ring_right(), Tag::PSI_HALO, solver.psi_halo_message(Side::Right))?;
    transport.send(topo.ring_left(), Tag::PSI_HALO, solver.psi_halo_message(Side::Left))?;
    for (side, peer) in [(Side::Left, topo.ring_left()), (Side::Right, topo.ring_right())] {
        let halo = transport.recv(peer, Tag::PSI_HALO)?;
        check_len(peer, "ψ halo", halo.len(), solver.psi_halo_len())?;
        solver.psi_halo_in(side, &halo);
    }
    let t1 = tracer.now();
    tracer.span(SpanKind::Halo, phase, t0, t1);
    Ok(())
}

/// A message's length is fixed by state both ends hold; over the `mp`
/// substrate it is bytes off a socket, so a mismatch is the peer's protocol
/// violation to report, not an invariant of this process to assert.
fn check_len(peer: usize, what: &str, got: usize, want: usize) -> Result<(), CommError> {
    if got == want {
        return Ok(());
    }
    Err(CommError::Protocol { peer, detail: format!("{what} of {got} values, expected {want}") })
}

/// Decodes a `LOAD` message, `[pred (−1 = None), planes]`, from `peer`: two
/// values, a prediction that is a number, and a plane count some rank of a
/// `max_planes`-plane channel could hold.
fn decode_load(
    peer: usize,
    msg: &[f64],
    max_planes: usize,
) -> Result<(Option<f64>, usize), CommError> {
    let bad = |detail: String| CommError::Protocol { peer, detail };
    let &[pred, planes] = msg else {
        return Err(bad(format!("load message of {} values, expected 2", msg.len())));
    };
    if pred.is_nan() {
        return Err(bad("load prediction is not a number".into()));
    }
    if !(0.0..=max_planes as f64).contains(&planes) || planes.fract() != 0.0 {
        return Err(bad(format!("load message claims {planes} planes of {max_planes}")));
    }
    Ok(((pred >= 0.0).then_some(pred), planes as usize))
}

/// One node's view of the cluster: `(per-point prediction, planes)` for
/// ranks within two hops; `None` elsewhere.
type LoadView = Vec<Option<(Option<f64>, usize)>>;

/// The distributed remap round: two-hop load-index exchange, edge-flow
/// evaluation, and plane migration with the adjacent neighbors. A move
/// travels as a stream of `MIGRATE_DATA` batches of at most
/// [`MIGRATION_BATCH_BYTES`], each acknowledged on `MIGRATE_COUNT` once
/// installed, with at most [`MIGRATION_WINDOW`] unacknowledged — so the
/// transient of a move is two batches, not the move.
#[expect(
    clippy::too_many_arguments,
    reason = "the worker's state, borrowed piecewise so the solver and transport stay disjoint"
)]
fn remap_round<T: Transport>(
    cfg: &RuntimeConfig,
    policy: &dyn NeighborPolicy,
    predictor: &dyn Predictor,
    solver: &mut SlabSolver,
    transport: &mut T,
    topo: &LinearTopology,
    history: &mut History,
    tracer: &mut Tracer,
    phase: u64,
    planes_sent: &mut usize,
    planes_received: &mut usize,
) -> Result<(), CommError> {
    let t0 = tracer.now();
    let rank = topo.rank;
    let n = topo.size;
    let my_pred = predictor.predict(history.as_slice());
    let my_planes = solver.nx_local();

    // Message encoding: [pred (−1 = None), planes].
    let encode = |pred: Option<f64>, planes: usize| vec![pred.unwrap_or(-1.0), planes as f64];
    let decode = |peer: usize, msg: &[f64]| decode_load(peer, msg, cfg.channel.dims.nx);

    let mut view: LoadView = vec![None; n];
    view[rank] = Some((my_pred, my_planes));

    // Hop 1: exchange own data with line neighbors.
    for peer in [topo.line_left(), topo.line_right()].into_iter().flatten() {
        transport.send(peer, Tag::LOAD, encode(my_pred, my_planes))?;
    }
    for peer in [topo.line_left(), topo.line_right()].into_iter().flatten() {
        let msg = transport.recv(peer, Tag::LOAD)?;
        view[peer] = Some(decode(peer, &msg)?);
    }

    // Hop 2: forward each neighbor's data to the opposite neighbor, so
    // every node knows ranks within distance two.
    if let (Some(l), Some(r)) = (topo.line_left(), topo.line_right()) {
        let (lp, lc) = view[l].unwrap();
        transport.send(r, Tag::LOAD, encode(lp, lc))?;
        let (rp, rc) = view[r].unwrap();
        transport.send(l, Tag::LOAD, encode(rp, rc))?;
    }
    if let Some(l) = topo.line_left() {
        if l > 0 {
            // Left neighbor has its own left neighbor: expect its data.
            let msg = transport.recv(l, Tag::LOAD)?;
            view[l - 1] = Some(decode(l, &msg)?);
        }
    }
    if let Some(r) = topo.line_right() {
        if r + 1 < n {
            let msg = transport.recv(r, Tag::LOAD)?;
            view[r + 1] = Some(decode(r, &msg)?);
        }
    }

    // Build padded full-length inputs. Entries outside the two-hop window
    // cannot influence this node's edges (NeighborPolicy locality), so
    // they are filled with this node's own values.
    let fill = (my_pred, my_planes);
    let entries: Vec<(Option<f64>, usize)> =
        view.into_iter().map(|v| v.unwrap_or(fill)).collect();
    let counts: Vec<usize> = entries.iter().map(|&(_, c)| c.max(1)).collect();
    let plane_cells = cfg.channel.dims.plane_cells();
    let partition = Partition::new(counts, plane_cells);
    let predicted: Vec<Option<f64>> = entries
        .iter()
        .enumerate()
        .map(|(i, &(pp, _))| pp.map(|p| p * partition.points(i) as f64))
        .collect();
    let flows = policy.edge_flows(&predicted, &partition);

    // Audit the decision as this node saw it: the target reflects only
    // this node's own edges (flows elsewhere were computed from padded
    // inputs and are not authoritative here).
    if tracer.enabled() {
        let mut target: Vec<isize> =
            partition.counts().iter().map(|&c| c as isize).collect();
        let mut applied = false;
        for e in [rank.checked_sub(1), (rank + 1 < n).then_some(rank)]
            .into_iter()
            .flatten()
        {
            let f = flows[e];
            target[e] -= f;
            target[e + 1] += f;
            applied |= f != 0;
        }
        let target: Vec<usize> = target.into_iter().map(|c| c.max(0) as usize).collect();
        tracer.event(microslip_balance::decision_event(
            tracer.now(),
            Some(rank),
            phase,
            policy,
            &predicted,
            &partition,
            &target,
            applied,
        ));
    }

    // Execute this node's edges in increasing edge order: (rank−1, rank)
    // then (rank, rank+1). Dependencies point strictly left-to-right —
    // both ends of an edge finish every edge left of it first — so the
    // line cannot deadlock, acknowledgements included. The *sender*
    // records each migration, so every move appears exactly once in the
    // event stream, as one event however many batches carried it.
    let edges = [
        topo.line_left().map(|l| (l, Side::Left, -flows[rank - 1])),
        topo.line_right().map(|r| (r, Side::Right, flows[rank])),
    ];
    for (peer, side, outflow) in edges.into_iter().flatten() {
        let count = outflow.unsigned_abs();
        if outflow > 0 {
            send_planes(solver, transport, peer, side, count)?;
            *planes_sent += count;
            tracer.event(Event::Migration {
                time: tracer.now(),
                phase,
                from: rank,
                to: peer,
                planes: count,
                bytes: (solver.migration_len(count) * 8) as u64,
            });
        } else if outflow < 0 {
            receive_planes(solver, transport, peer, side, count)?;
            *planes_received += count;
        }
    }
    let t1 = tracer.now();
    tracer.span(SpanKind::Remap, phase, t0, t1);
    Ok(())
}

/// Upper bound, in bytes, of one `MIGRATE_DATA` message: a move of more
/// planes travels as a stream of batches of
/// [`migration_batch_planes`] planes. 3 MiB is two planes of the paper's
/// 200 × 20 cross-section, the batch EXPERIMENTS.md's sweep ("Migrations
/// in batches") chose when a plane carried 23 channels a component and two
/// fitted 4 MiB; at 20 channels, 4 MiB would hold three.
pub const MIGRATION_BATCH_BYTES: usize = 3 << 20;

/// Batches a sender may have unacknowledged: the take of one batch
/// overlaps the give of the previous one, and a move never holds more
/// than this many batches in transit.
const MIGRATION_WINDOW: usize = 2;

/// Planes per migration batch of `solver`'s cross-section: as many as fit
/// [`MIGRATION_BATCH_BYTES`] together with the trailing ψ ghost plane, and
/// at least one.
pub fn migration_batch_planes(solver: &SlabSolver) -> usize {
    let budget = MIGRATION_BATCH_BYTES / std::mem::size_of::<f64>();
    (budget.saturating_sub(solver.psi_halo_len()) / solver.migration_plane_len()).max(1)
}

/// Sends `count` planes off the `side` edge to `peer` as a stream of
/// [`SlabSolver::take_planes`] batches, keeping at most
/// [`MIGRATION_WINDOW`] of them unacknowledged. Repeated takes are bitwise
/// one take of `count` planes: each batch is the next run of planes
/// inward from the edge, with the ψ of the edge it leaves behind.
fn send_planes<T: Transport>(
    solver: &mut SlabSolver,
    transport: &mut T,
    peer: usize,
    side: Side,
    count: usize,
) -> Result<(), CommError> {
    let batch = migration_batch_planes(solver);
    let mut in_flight = std::collections::VecDeque::with_capacity(MIGRATION_WINDOW);
    let mut left = count;
    while left > 0 || !in_flight.is_empty() {
        if left > 0 && in_flight.len() < MIGRATION_WINDOW {
            let k = left.min(batch);
            transport.send(peer, Tag::MIGRATE_DATA, solver.take_planes(side, k))?;
            in_flight.push_back(k);
            left -= k;
        } else if let Some(k) = in_flight.pop_front() {
            let ack = transport.recv(peer, Tag::MIGRATE_COUNT)?;
            if ack != [k as f64] {
                return Err(CommError::Protocol {
                    peer,
                    detail: format!("migration ack {ack:?}, expected [{k}] planes installed"),
                });
            }
        }
    }
    Ok(())
}

/// Receives `count` planes from `peer` onto the `side` edge, batch by
/// batch as [`send_planes`] cuts them, installing each with
/// [`SlabSolver::give_planes`] and acknowledging it on
/// [`Tag::MIGRATE_COUNT`] with the number of planes installed.
fn receive_planes<T: Transport>(
    solver: &mut SlabSolver,
    transport: &mut T,
    peer: usize,
    side: Side,
    count: usize,
) -> Result<(), CommError> {
    let batch = migration_batch_planes(solver);
    let mut left = count;
    while left > 0 {
        let k = left.min(batch);
        let data = transport.recv(peer, Tag::MIGRATE_DATA)?;
        check_len(peer, "migration batch", data.len(), solver.migration_len(k))?;
        solver.give_planes(side, k, &data);
        // Freed before the acknowledgement lets the sender take another.
        drop(data);
        transport.send(peer, Tag::MIGRATE_COUNT, vec![k as f64])?;
        left -= k;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use microslip_balance::policy::Filtered;
    use microslip_balance::predict::LastPhase;
    use microslip_comm::channel::mesh;
    use microslip_lbm::geometry::even_slabs;
    use microslip_lbm::{ChannelConfig, Dims};
    use microslip_obs::TraceSink;

    /// A channel of 12 planes whose moves fit one batch.
    const NARROW: Dims = Dims { nx: 12, ny: 4, nz: 3 };
    /// A channel of 12 planes with the paper's cross-section, where a
    /// batch is two planes and a move of more is a stream.
    const WIDE: Dims = Dims { nx: 12, ny: 200, nz: 20 };

    /// Rank 0 of two runs one remap round on a `dims` channel against a
    /// peer that sends `load` and the `batches` — what a broken or hostile
    /// rank 1 would put on the wire — and hangs up once every batch is
    /// acknowledged (or rank 0 is gone), so a stream that runs dry fails
    /// rank 0 instead of blocking it. The peer claims to be ten times
    /// slower, so rank 0 expects planes from it. Returns the round's
    /// outcome and the acknowledgements rank 0 sent back.
    fn remap_round_against(
        dims: Dims,
        load: Vec<f64>,
        batches: Vec<Vec<f64>>,
    ) -> (Result<(), CommError>, Vec<Vec<f64>>) {
        let channel = ChannelConfig::paper_scaled(dims);
        let mut cfg = RuntimeConfig::new(channel.clone(), 2, 2);
        cfg.remap_interval = 2;
        cfg.predictor_window = 1;
        cfg.load = LoadModel::Synthetic { per_point: 1e-6 };
        let mut ends = mesh(2);
        let mut peer = ends.pop().expect("two endpoints");
        let mut me = ends.pop().expect("two endpoints");
        let peer = std::thread::spawn(move || {
            peer.send(0, Tag::LOAD, load).expect("queue the load");
            let sent = batches.len();
            for batch in batches {
                peer.send(0, Tag::MIGRATE_DATA, batch).expect("queue a batch");
            }
            // The round opens by sending rank 0's load: a peer gone before
            // that would fail it with `Disconnected`, not the outcome under
            // test.
            let _ = peer.recv(0, Tag::LOAD);
            let mut acks = Vec::new();
            while acks.len() < sent {
                match peer.recv(0, Tag::MIGRATE_COUNT) {
                    Ok(ack) => acks.push(ack),
                    Err(_) => break,
                }
            }
            acks
        });
        let mut solver = SlabSolver::new(&channel, even_slabs(dims.nx, 2)[0]);
        let mut history = History::new(1);
        history.push(1e-6);
        #[expect(
            clippy::disallowed_types,
            clippy::disallowed_methods,
            reason = "the epoch only stamps trace spans, and the null sink drops them"
        )]
        let mut tracer = Tracer::new(TraceSink::null(), 0, std::time::Instant::now());
        let outcome = remap_round(
            &cfg,
            &Filtered::default(),
            &LastPhase,
            &mut solver,
            &mut me,
            &LinearTopology::new(0, 2),
            &mut history,
            &mut tracer,
            2,
            &mut 0,
            &mut 0,
        );
        drop(me);
        (outcome, peer.join().expect("the peer thread"))
    }

    fn assert_protocol_error(outcome: Result<(), CommError>, needle: &str) {
        match outcome {
            Err(CommError::Protocol { peer: 1, detail }) => {
                assert!(detail.contains(needle), "{detail:?} does not mention {needle:?}")
            }
            other => panic!("expected a protocol error from peer 1, got {other:?}"),
        }
    }

    #[test]
    fn a_bad_load_message_is_a_typed_protocol_error() {
        let against = |load| remap_round_against(NARROW, load, vec![]).0;
        for load in [vec![], vec![1e-5], vec![1e-5, 6.0, 0.0]] {
            assert_protocol_error(against(load), "expected 2");
        }
        for planes in [f64::NAN, f64::INFINITY, -1.0, 6.5, 13.0] {
            assert_protocol_error(against(vec![1e-5, planes]), "planes");
        }
        assert_protocol_error(against(vec![f64::NAN, 6.0]), "not a number");
    }

    /// Values per migrated plane of a `dims` channel, the ψ ghost plane
    /// every message ends with, and the planes of one batch.
    fn plane_len(dims: Dims) -> (usize, usize, usize) {
        let solver = SlabSolver::new(&ChannelConfig::paper_scaled(dims), even_slabs(dims.nx, 2)[0]);
        (solver.migration_plane_len(), solver.psi_halo_len(), migration_batch_planes(&solver))
    }

    /// A well-formed move of `count` planes of a `dims` channel, as the
    /// sender cuts it into batches (values zero).
    fn batches_of(dims: Dims, count: usize) -> Vec<Vec<f64>> {
        let (plane, psi, batch) = plane_len(dims);
        (0..count)
            .step_by(batch)
            .map(|first| vec![0.0; batch.min(count - first) * plane + psi])
            .collect()
    }

    /// The one move the policy decides against the ten-times-slower peer:
    /// the only well-formed count the round takes in full.
    fn decided_count(dims: Dims) -> usize {
        let accepted: Vec<usize> = (1..dims.nx / 2)
            .filter(|&count| {
                let batches = batches_of(dims, count);
                let sent = batches.len();
                let (outcome, acks) = remap_round_against(dims, vec![1e-5, 6.0], batches);
                outcome.is_ok() && acks.len() == sent
            })
            .collect();
        assert_eq!(accepted.len(), 1, "exactly one plane count is the one decided: {accepted:?}");
        accepted[0]
    }

    #[test]
    fn a_short_or_long_migration_is_a_typed_protocol_error() {
        let (plane, psi, batch) = plane_len(NARROW);
        assert!(batch >= NARROW.nx, "a narrow move is one batch");
        // No whole number of planes: wrong whatever count the policy chose.
        for len in [0, 1, plane - 1, plane + 1, plane + psi + 1, 5 * plane + psi + 1] {
            let (outcome, acks) = remap_round_against(NARROW, vec![1e-5, 6.0], vec![vec![0.0; len]]);
            assert_protocol_error(outcome, "migration");
            assert!(acks.is_empty(), "a refused batch is not acknowledged");
        }

        // Mid-move: the first batch is right, the second is a value or a
        // plane short or long. The first is installed and acknowledged,
        // the second refused.
        let count = decided_count(WIDE);
        let (plane, _, batch) = plane_len(WIDE);
        assert!(count > batch, "the wide move spans batches ({count} planes, {batch} a batch)");
        for delta in [-(plane as isize), -1, 1, plane as isize] {
            let mut batches = batches_of(WIDE, count);
            let len = batches[1].len().checked_add_signed(delta).expect("a batch is longer than a plane");
            batches[1].resize(len, 0.0);
            let (outcome, acks) = remap_round_against(WIDE, vec![1e-5, 6.0], batches);
            assert_protocol_error(outcome, "migration batch");
            assert_eq!(acks, vec![vec![batch as f64]], "only the first batch is acknowledged");
        }
    }

    #[test]
    fn a_well_formed_round_against_the_same_peer_succeeds() {
        // The control: the same loads with the planes the policy asks for,
        // in one batch and in several, each acknowledged with its planes.
        for dims in [NARROW, WIDE] {
            let count = decided_count(dims);
            let (outcome, acks) = remap_round_against(dims, vec![1e-5, 6.0], batches_of(dims, count));
            assert!(outcome.is_ok());
            let (_, _, batch) = plane_len(dims);
            let want: Vec<Vec<f64>> = (0..count)
                .step_by(batch)
                .map(|first| vec![batch.min(count - first) as f64])
                .collect();
            assert_eq!(acks, want);
        }
    }
}
