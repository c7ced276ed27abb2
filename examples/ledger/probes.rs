//! Per-layer probes: spans recorded from here, around calls into each
//! layer's public functions, at the buffer and slab sizes the workload
//! itself uses. Every probe writes its metrics straight into the run's
//! [`Measured`].

use std::hint::black_box;
use std::sync::Barrier;
use std::time::Instant;

use microslip::balance::policy::{Filtered, NeighborPolicy};
use microslip::balance::Partition;
use microslip::comm::{mesh, Tag, Transport};
use microslip::lbm::checkpoint::{load_solver, read_sealed, save_solver, write_sealed};
use microslip::lbm::diagnostics::FlowDiagnostics;
use microslip::lbm::geometry::even_slabs;
use microslip::lbm::{CacheStore, ChannelConfig, ResultArtifact, Side, Slab, SlabSolver, Snapshot};
use microslip::serve::SweepRequest;
use microslip::Scenario;
use microslip_net::wire::{encode, Frame};
use microslip_net::{localhost_mesh, NetConfig};

use crate::host::{self, CopyProbe};
use crate::report::Measured;
use crate::stats::{median, quantile};

/// Runs the copy-bandwidth probe and records it with both of its sizes.
pub fn host_copy(quick: bool, out: &mut Measured) -> CopyProbe {
    let copy = host::copy_probe(quick);
    out.set("host.copy_gbps", copy.gbps);
    out.set("host.llc_mb", copy.llc_bytes as f64 / 1e6);
    out.set("host.copy_array_mb", copy.array_bytes as f64 / 1e6);
    copy
}

/// Seconds `f` takes, median of `reps` calls.
pub fn time_median(reps: usize, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..reps.max(1))
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64()
        })
        .collect();
    median(&samples)
}

/// The seven public steps of the fused phase schedule, in the order
/// `SlabSolver::phase_periodic_fused` and the runtime's workers run them.
type Step = fn(&mut SlabSolver);
const STEPS: [(&str, Step); 7] = [
    ("lbm.collide_edges_s", SlabSolver::collide_edges),
    ("lbm.f_ghosts_s", SlabSolver::f_ghosts_periodic),
    ("lbm.stream_collide_s", SlabSolver::stream_collide_fused),
    ("lbm.psi_s", SlabSolver::compute_psi),
    ("lbm.psi_ghosts_s", SlabSolver::psi_ghosts_periodic),
    ("lbm.forces_s", SlabSolver::compute_forces),
    ("lbm.velocities_s", SlabSolver::compute_velocities),
];

/// Bytes one cell moves per phase, **computed** from the structure of the
/// fused schedule (it ignores cache misses, write-allocate traffic and
/// the ghost planes): per component, the stream+collide sweep reads and
/// writes the 19 populations and reads the 3 equilibrium-velocity
/// components; ψ reads the 19 populations and writes ψ; the force
/// assembly reads ψ and writes 3 force components; the velocity update
/// reads the 19 populations, ψ and the force and writes the 3
/// equilibrium-velocity components.
pub fn bytes_per_cell(components: usize) -> f64 {
    let stream_collide = 19 + 19 + 3;
    let psi = 19 + 1;
    let forces = 1 + 3;
    let velocities = 19 + 1 + 3 + 3;
    (8 * components * (stream_collide + psi + forces + velocities)) as f64
}

/// Steps one whole-channel solver through `phases` phases of the fused
/// schedule with a span around each public step. Writes the per-step
/// means per phase, their sum, the per-phase quantiles and the roofline
/// line; returns the final snapshot (the caller compares it with the
/// sequential reference, which pins fused ≡ classic as a side effect).
pub fn lbm_steps(
    channel: &ChannelConfig,
    phases: u64,
    copy: &CopyProbe,
    out: &mut Measured,
) -> Snapshot {
    let t = Instant::now();
    let mut solver = SlabSolver::new(
        channel,
        Slab {
            x0: 0,
            nx_local: channel.dims.nx,
        },
    );
    solver.prime_periodic();
    out.set("lbm.solver_new_s", t.elapsed().as_secs_f64());

    let mut per_step = [0.0f64; 7];
    let mut per_phase = Vec::with_capacity(phases as usize);
    for _ in 0..phases {
        let mut phase = 0.0;
        for (k, (_, step)) in STEPS.iter().enumerate() {
            let t = Instant::now();
            step(&mut solver);
            let d = t.elapsed().as_secs_f64();
            per_step[k] += d;
            phase += d;
        }
        per_phase.push(phase);
    }
    let n = phases.max(1) as f64;
    for ((name, _), total) in STEPS.iter().zip(per_step) {
        out.set(name, total / n);
    }
    let phase_sum = per_step.iter().sum::<f64>() / n;
    out.set("lbm.phase_sum_s", phase_sum);
    out.set("lbm.phase_s_p50", median(&per_phase));
    out.set("lbm.phase_s_p75", quantile(&per_phase, 0.75));

    let bytes = bytes_per_cell(channel.ncomp());
    let achieved = bytes * channel.dims.cells() as f64 / phase_sum / 1e9;
    out.set("lbm.bytes_per_cell", bytes);
    out.set("lbm.achieved_gbps", achieved);
    out.set("lbm.roofline_fraction", achieved / copy.gbps);

    let t = Instant::now();
    let snapshot = solver.snapshot();
    out.set("lbm.snapshot_s", t.elapsed().as_secs_f64());
    snapshot
}

/// One rank's share of the channel when two ranks split it.
pub fn half_slab(channel: &ChannelConfig) -> Slab {
    even_slabs(channel.dims.nx, 2)[0]
}

/// The other things a slab of the lattice is used for: halo packing,
/// plane migration, checkpoint encode/decode and sealed file I/O — on
/// `slab` (what one rank or one job holds), files under `dir`.
pub fn lbm_slab(
    channel: &ChannelConfig,
    slab: Slab,
    dir: &std::path::Path,
    out: &mut Measured,
) -> Result<(), String> {
    let mut solver = SlabSolver::new(channel, slab);
    solver.prime_local_psi();
    solver.prime_finish();

    // One phase's packing work of one rank: both sides out and back in,
    // populations and ψ (the buffers are fed back to the side they left).
    let mut f_buf = vec![0.0; solver.f_halo_len()];
    let mut psi_buf = vec![0.0; solver.psi_halo_len()];
    out.set(
        "lbm.halo_pack_s",
        time_median(20, || {
            for side in [Side::Right, Side::Left] {
                solver.f_halo_out(side, &mut f_buf);
                solver.f_halo_in(side, &f_buf);
                solver.psi_halo_out(side, &mut psi_buf);
                solver.psi_halo_in(side, &psi_buf);
            }
        }),
    );

    // Migration: take planes off the right edge and give them back.
    let planes = 8.min(slab.nx_local / 2).max(1);
    out.set(
        "lbm.migrate_plane_bytes",
        (8 * solver.migration_plane_len()) as f64,
    );
    out.set(
        "lbm.migrate_plane_s",
        time_median(5, || {
            let data = solver.take_planes(Side::Right, planes);
            solver.give_planes(Side::Right, planes, &data);
        }) / planes as f64,
    );

    // Checkpoint of the slab: encode, seal + write, read + verify, decode.
    let path = dir.join("probe.state");
    let mut bytes = Vec::new();
    out.set(
        "lbm.checkpoint_save_s",
        time_median(1, || bytes = save_solver(&solver, 1)),
    );
    out.set("lbm.checkpoint_bytes", bytes.len() as f64);
    let mut written = Ok(());
    out.set(
        "lbm.sealed_write_s",
        time_median(1, || {
            written = write_sealed(&path, std::mem::take(&mut bytes))
        }),
    );
    written.map_err(|e| format!("write {}: {e}", path.display()))?;
    let mut read = Ok(Vec::new());
    out.set(
        "lbm.sealed_read_s",
        time_median(1, || read = read_sealed(&path)),
    );
    let bytes = read.map_err(|e| format!("read {}: {e}", path.display()))?;
    let mut loaded = None;
    out.set(
        "lbm.checkpoint_load_s",
        time_median(1, || loaded = Some(load_solver(channel, &bytes))),
    );
    match loaded {
        Some(Ok((restored, 1))) if restored.snapshot() == solver.snapshot() => Ok(()),
        _ => Err("checkpoint probe: the restored slab differs from the saved one".into()),
    }
}

/// Result artifacts and the content-addressed store, as `serve` uses
/// them: seal/unseal one artifact of `snapshot`, put/get it by key.
pub fn lbm_artifact(
    snapshot: &Snapshot,
    phases: u64,
    dir: &std::path::Path,
    out: &mut Measured,
) -> Result<(), String> {
    let key = "00000000000001ed";
    let artifact = ResultArtifact {
        key: key.into(),
        phases,
        snapshot: snapshot.clone(),
        diagnostics: FlowDiagnostics::compute(snapshot),
        summary_json: "{}".into(),
    };
    let mut sealed = Vec::new();
    out.set(
        "lbm.artifact_seal_s",
        time_median(3, || sealed = artifact.seal()),
    );
    out.set("lbm.artifact_bytes", sealed.len() as f64);
    let mut back = Err(String::new());
    out.set(
        "lbm.artifact_unseal_s",
        time_median(3, || back = ResultArtifact::unseal(&sealed)),
    );
    if back? != artifact {
        return Err("artifact probe: unseal(seal(a)) differs from a".into());
    }
    let store =
        CacheStore::open(dir.join("probe-cache")).map_err(|e| format!("probe cache: {e}"))?;
    let mut put = Ok(());
    out.set(
        "lbm.store_put_s",
        time_median(3, || put = store.put_sealed(key, &sealed)),
    );
    put?;
    let mut got = None;
    out.set(
        "lbm.store_get_s",
        time_median(3, || got = store.get_sealed(key)),
    );
    if got.as_deref() != Some(sealed.as_slice()) {
        return Err("store probe: get returned different bytes than put stored".into());
    }
    Ok(())
}

/// One rank's half of the per-phase halo pattern on a two-rank ring (both
/// neighbours are the peer): right-bound sends first, then the matching
/// receives, populations then ψ — the runtime's order.
fn halo_phase<T: Transport>(t: &mut T, peer: usize, f_len: usize, psi_len: usize) {
    for (tag, len) in [(Tag::F_HALO, f_len), (Tag::PSI_HALO, psi_len)] {
        t.send(peer, tag, vec![0.5; len]).expect("halo send right");
        t.send(peer, tag, vec![0.5; len]).expect("halo send left");
        t.recv(peer, tag).expect("halo recv left");
        t.recv(peer, tag).expect("halo recv right");
    }
}

fn pingpong<T: Transport>(t: &mut T, peer: usize) {
    if t.rank() == 0 {
        t.send(peer, Tag::LOAD, vec![1.0]).expect("ping");
        t.recv(peer, Tag::LOAD).expect("pong");
    } else {
        let v = t.recv(peer, Tag::LOAD).expect("ping");
        t.send(peer, Tag::LOAD, v).expect("pong");
    }
}

/// Runs `reps / 10` warm-up and then `reps` timed rounds of `work` on both
/// ends of `pair`, one thread each; rank 0's seconds per round.
fn timed_pair<T: Transport + Send>(
    pair: Vec<T>,
    reps: usize,
    work: impl Fn(&mut T, usize) + Sync,
) -> f64 {
    let start = Barrier::new(pair.len());
    std::thread::scope(|scope| {
        let handles: Vec<_> = pair
            .into_iter()
            .map(|mut t| {
                let (start, work) = (&start, &work);
                scope.spawn(move || {
                    let peer = 1 - t.rank();
                    for _ in 0..reps / 10 {
                        work(&mut t, peer);
                    }
                    start.wait();
                    let t0 = Instant::now();
                    for _ in 0..reps {
                        work(&mut t, peer);
                    }
                    (t.rank(), t0.elapsed().as_secs_f64() / reps as f64)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("probe rank panicked"))
            .find(|&(rank, _)| rank == 0)
            .map_or(0.0, |(_, secs)| secs)
    })
}

/// Halo buffer lengths `(populations, ψ)` of one rank's slab.
fn halo_lens(channel: &ChannelConfig) -> (usize, usize) {
    let solver = SlabSolver::new(channel, half_slab(channel));
    (solver.f_halo_len(), solver.psi_halo_len())
}

/// `comm`: the per-phase message pattern over the in-process mesh.
pub fn comm(channel: &ChannelConfig, out: &mut Measured) {
    let (f_len, psi_len) = halo_lens(channel);
    out.set(
        "comm.halo_bytes_per_phase",
        (2 * 8 * (f_len + psi_len)) as f64,
    );
    out.set(
        "comm.halo_phase_s",
        timed_pair(mesh(2), 200, |t, peer| halo_phase(t, peer, f_len, psi_len)),
    );
    out.set(
        "comm.pingpong_us",
        1e6 * timed_pair(mesh(2), 2000, pingpong),
    );
}

/// `net`: the same pattern over a localhost TCP mesh.
pub fn net(channel: &ChannelConfig, out: &mut Measured) {
    let (f_len, psi_len) = halo_lens(channel);
    let cfg = NetConfig::default();
    let t = Instant::now();
    let pair = localhost_mesh(2, &cfg);
    out.set("net.mesh_connect_s", t.elapsed().as_secs_f64());
    out.set(
        "net.halo_phase_s",
        timed_pair(pair, 100, |t, peer| halo_phase(t, peer, f_len, psi_len)),
    );
    out.set(
        "net.pingpong_us",
        1e6 * timed_pair(localhost_mesh(2, &cfg), 2000, pingpong),
    );
    out.set(
        "net.frame_overhead_bytes",
        encode(&Frame::data(0, Tag::F_HALO.0, Vec::new())).len() as f64,
    );
}

/// `balance`: one filtered decision on a two-rank partition of the
/// channel, with rank 1 predicted 25 % slower.
pub fn balance_decide(channel: &ChannelConfig, out: &mut Measured) {
    let half = channel.dims.nx / 2;
    let partition = Partition::new(
        vec![half, channel.dims.nx - half],
        channel.dims.plane_cells(),
    );
    let predicted = [Some(1.0), Some(1.25)];
    let policy = Filtered::default();
    let reps = 10_000;
    let t = Instant::now();
    for _ in 0..reps {
        black_box(policy.edge_flows(black_box(&predicted), &partition));
    }
    out.set(
        "balance.decide_us",
        1e6 * t.elapsed().as_secs_f64() / reps as f64,
    );
}

/// `scenario`: the codec, the content key and grid expansion of `request`.
pub fn scenario(request: &SweepRequest, out: &mut Measured) {
    let reps = 2_000;
    let per_call_us = |f: &mut dyn FnMut()| {
        let t = Instant::now();
        for _ in 0..reps {
            f();
        }
        1e6 * t.elapsed().as_secs_f64() / reps as f64
    };
    let base = &request.base;
    let bytes = base.canonical_bytes();
    out.set(
        "scenario.encode_us",
        per_call_us(&mut || drop(black_box(base.canonical_bytes()))),
    );
    out.set(
        "scenario.decode_us",
        per_call_us(&mut || drop(black_box(Scenario::decode(black_box(&bytes))))),
    );
    out.set(
        "scenario.key_us",
        per_call_us(&mut || drop(black_box(base.key()))),
    );
    out.set(
        "scenario.expand_us",
        per_call_us(&mut || drop(black_box(request.expand()))),
    );
}
