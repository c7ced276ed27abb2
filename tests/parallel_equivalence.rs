//! The flagship cross-crate invariant: the distributed runtime is
//! **bitwise identical** to the sequential reference, for any worker
//! count, any remapping policy, and any throttling — dynamic remapping
//! changes *who* computes, never *what*.

use std::sync::Arc;

use microslip::balance::policy::NeighborPolicy;
use microslip::balance::{Conservative, FilterParams, Filtered, NoRemap};
use microslip::lbm::checkpoint::{load_solver, save_solver};
use microslip::lbm::geometry::even_slabs;
use microslip::lbm::component::ComponentState;
use microslip::lbm::lattice::D3Q19;
use microslip::lbm::{
    ChannelConfig, CollisionOperator, Dims, PsiFn, Simulation, Slab, SlabSolver, Snapshot,
    SolidRegion, WallBc, WallForceMode,
};
use microslip::runtime::{run_parallel, RuntimeConfig};

mod common;

fn channel(nx: usize) -> ChannelConfig {
    channel_at(Dims::new(nx, 6, 4))
}

fn channel_at(dims: Dims) -> ChannelConfig {
    let mut c = ChannelConfig::paper_scaled(dims);
    c.body = [1.0e-4, 0.0, 0.0];
    c
}

fn sequential(channel: &ChannelConfig, phases: u64) -> Snapshot {
    let mut sim = Simulation::new(channel.clone());
    sim.run(phases);
    sim.snapshot()
}

/// The schedule matrix: every wall BC × {BGK, TRT+MRT} × {no obstacle, a
/// block}, on a 12×6×4 channel and a 12×30×9 one; and, bounce-back
/// only, a 12×70×20 one (two
/// collision blocks per plane, the second short — the wall BC never reaches
/// the collision). The force kernel's other inputs ride along: the
/// TRT+MRT cases give the air a non-linear ψ and the wall force the
/// density-independent mode, the block cases give the water solid–fluid
/// adhesion (which sees the block as well as the walls).
fn schedule_matrix() -> Vec<(String, ChannelConfig)> {
    let mut out = Vec::new();
    for dims in [Dims::new(12, 6, 4), Dims::new(12, 30, 9), Dims::new(12, 70, 20)] {
        let bcs = [
            WallBc::BounceBack,
            WallBc::TunableSlip { r: 0.3 },
            WallBc::PatternedSlip { r_a: 1.0, r_b: 0.2, period: 2, phase: 1 },
            WallBc::rough_stripes(1, 3, dims),
        ];
        let bcs = if dims.ny > 30 { &bcs[..1] } else { &bcs[..] };
        for bc in bcs {
            for (trt_mrt, block) in [(false, false), (false, true), (true, false), (true, true)] {
                let mut cfg = channel_at(dims);
                cfg.wall_bc = bc.clone();
                if trt_mrt {
                    cfg.components[0].0.collision = CollisionOperator::trt_magic();
                    cfg.components[1].0.collision = CollisionOperator::mrt_standard();
                    cfg.components[1].0.psi_fn = PsiFn::ShanChen { n0: 1.0 };
                    cfg.wall.mode = WallForceMode::ForceDensity;
                }
                if block {
                    cfg.obstacles.push(SolidRegion::Block { min: [4, 2, 1], max: [6, 4, 3] });
                    cfg.components[0].0.wall_adhesion = 0.05;
                }
                let case = format!("{dims:?}, {bc:?}, trt+mrt+ψ+density-wall {trt_mrt}, block+adhesion {block}");
                out.push((case, cfg));
            }
        }
    }
    out
}

#[test]
fn fused_schedule_matches_the_serial_reference_bitwise() {
    // `Simulation` runs the same fused schedule as the workers and the
    // ranks, so every other test here compares fused with fused. This one
    // anchors them all: the textbook collide-all-then-stream-all order,
    // with the forces and the velocities as two whole-slab passes, must
    // give the same bits at every wall BC, collision operator, obstacle
    // layout and force-kernel input.
    let phases = 6;
    for (case, cfg) in schedule_matrix() {
        let mut reference = SlabSolver::new(&cfg, Slab { x0: 0, nx_local: cfg.dims.nx });
        reference.prime_periodic();
        for _ in 0..phases {
            reference.phase_periodic_reference();
        }
        let mut sim = Simulation::new(cfg);
        sim.run(phases);
        assert_eq!(sim.snapshot(), reference.snapshot(), "fields diverged: {case}");
        assert_eq!(
            sim.total_mass().to_bits(),
            reference.total_mass().to_bits(),
            "mass diverged: {case}"
        );
    }
}

/// ψ of `s`'s two ghost planes, left and right, per component, as bits:
/// read off its checkpoint, whose first and last plane records are the
/// ghost planes (after the magic and seven header words).
fn ghost_psi(s: &SlabSolver) -> Vec<[Vec<u64>; 2]> {
    let bytes = save_solver(s, 0);
    let (p, record) = (s.grid().plane_cells(), 8 * s.migration_plane_len());
    let psi = |k: usize, a: usize| -> Vec<u64> {
        let at = 64 + k * record + 8 * (a * (D3Q19::Q + 1) + D3Q19::Q) * p;
        bytes[at..at + 8 * p].chunks_exact(8).map(|b| u64::from_le_bytes(b.try_into().unwrap())).collect()
    };
    (0..s.components().len()).map(|a| [psi(0, a), psi(s.grid().lx - 1, a)]).collect()
}

/// Σ_i f_i of local plane `xl` of `s`, per component, as bits — from
/// scratch, in ascending channel order from +0.0.
fn plane_sum(s: &SlabSolver, xl: usize) -> Vec<Vec<u64>> {
    let p = s.grid().plane_cells();
    let sum = |c: &ComponentState, q: usize| (0..D3Q19::Q).fold(0.0, |n, i| n + c.f.at(i, xl * p + q));
    s.components().iter().map(|c| (0..p).map(|q| sum(c, q).to_bits()).collect()).collect()
}

#[test]
fn every_psi_ghost_is_the_sum_over_the_neighbours_edge_plane() {
    // The state keeps ψ only where the populations cannot give it: on the
    // ghost planes. Wherever a phase can start — after two phases, after
    // planes moved both ways, after a checkpoint round trip — each slab's
    // must be, bit for bit, Σ_i f_i of its neighbour's edge plane taken
    // from scratch, on every slab of 1–3-slab decompositions and of one
    // with slabs of one and two planes, whose phases must stay the
    // sequential run's.
    let check = |slabs: &[SlabSolver], what: &str, case: &str| {
        let n = slabs.len();
        for (k, s) in slabs.iter().enumerate() {
            let (left, right) = (&slabs[(k + n - 1) % n], &slabs[(k + 1) % n]);
            let (want_left, want_right) = (plane_sum(left, left.grid().last()), plane_sum(right, 1));
            for (a, [l, r]) in ghost_psi(s).into_iter().enumerate() {
                assert!(l == want_left[a] && r == want_right[a], "stale ψ ghost after {what}: {case}, slab {k} of {n}");
            }
        }
    };
    for (case, cfg) in schedule_matrix() {
        let mut sim = Simulation::new(cfg.clone());
        sim.run(2);
        let narrow = [(0, 1), (1, 2), (3, 3), (6, 6)].map(|(x0, nx_local)| Slab { x0, nx_local });
        for layout in [even_slabs(12, 1), even_slabs(12, 2), even_slabs(12, 3), narrow.to_vec()] {
            let parts = layout.len();
            let mut slabs: Vec<SlabSolver> = layout.into_iter().map(|slab| SlabSolver::new(&cfg, slab)).collect();
            common::prime(&mut slabs);
            for _ in 0..2 {
                common::phase(&mut slabs);
            }
            check(&slabs, "two phases", &case);
            let stitched = Snapshot::stitch(slabs.iter().map(SlabSolver::snapshot).collect());
            assert_eq!(stitched, sim.snapshot(), "{parts} slabs left the sequential run: {case}");
            if parts > 1 {
                common::migrate(&mut slabs, parts - 2, 1, true);
                common::migrate(&mut slabs, parts - 2, 2, false);
                check(&slabs, "two migrations", &case);
            }
            let restored: Vec<SlabSolver> =
                slabs.iter().map(|s| load_solver(&cfg, &save_solver(s, 2)).unwrap().0).collect();
            check(&restored, "a checkpoint round trip", &case);
        }
    }
}

#[test]
fn the_ledger_step_order_is_the_phase() {
    // The ledger times a phase step by step, with ψ of the edges and the
    // two-pass reference's whole-slab forces and velocities in between;
    // none of them may move the trajectory off `phase_periodic`'s.
    let phases = 6;
    for (case, cfg) in schedule_matrix() {
        let whole = Slab { x0: 0, nx_local: cfg.dims.nx };
        let (mut stepped, mut phased) = (SlabSolver::new(&cfg, whole), SlabSolver::new(&cfg, whole));
        stepped.prime_periodic();
        phased.prime_periodic();
        for _ in 0..phases {
            stepped.collide_edges();
            stepped.f_ghosts_periodic();
            stepped.stream_collide_fused();
            stepped.compute_psi();
            stepped.psi_ghosts_periodic();
            stepped.compute_forces();
            stepped.compute_velocities();
            phased.phase_periodic();
        }
        assert!(save_solver(&stepped, phases) == save_solver(&phased, phases), "state diverged: {case}");
        assert_eq!(stepped.snapshot(), phased.snapshot(), "fields diverged: {case}");
    }
}

#[test]
fn the_reference_phase_follows_a_migration_and_a_restore() {
    // A collision forms its equilibrium velocities from ψ of the planes
    // around it, ghosts included, so the ghosts must be right wherever a
    // phase starts from state that did not come out of the phase before:
    // right after planes moved (the message carries the receiver's new ψ
    // ghost, the giver keeps its own) and right after a checkpoint round
    // trip (the file carries them). There the production phase of every
    // slab must still be the serial two-pass reference phase of the whole
    // channel.
    for (case, cfg) in schedule_matrix() {
        let mut whole = SlabSolver::new(&cfg, Slab { x0: 0, nx_local: cfg.dims.nx });
        whole.prime_periodic();
        let mut slabs: Vec<SlabSolver> =
            even_slabs(cfg.dims.nx, 3).into_iter().map(|slab| SlabSolver::new(&cfg, slab)).collect();
        common::prime(&mut slabs);
        let mut step = |slabs: &mut Vec<SlabSolver>, what: &str| {
            whole.phase_periodic_reference();
            common::phase(slabs);
            let stitched = Snapshot::stitch(slabs.iter().map(SlabSolver::snapshot).collect());
            assert_eq!(stitched, whole.snapshot(), "the phase after {what} diverged: {case}");
        };
        step(&mut slabs, "priming");
        common::migrate(&mut slabs, 0, 2, true);
        common::migrate(&mut slabs, 1, 1, false);
        step(&mut slabs, "two migrations");
        let mut restored: Vec<SlabSolver> =
            slabs.iter().map(|s| load_solver(&cfg, &save_solver(s, 2)).unwrap().0).collect();
        step(&mut restored, "a checkpoint round trip");
    }
}

#[test]
fn all_worker_counts_match_sequential() {
    let ch = channel(24);
    let phases = 5;
    let want = sequential(&ch, phases);
    for workers in 1..=6 {
        let cfg = RuntimeConfig::new(ch.clone(), workers, phases);
        let got = run_parallel(&cfg, Arc::new(NoRemap));
        assert_eq!(got.snapshot, want, "{workers} workers diverged");
    }
}

#[test]
fn remapping_policies_do_not_change_physics() {
    let ch = channel(20);
    let phases = 15;
    let want = sequential(&ch, phases);
    let policies: Vec<(&str, Arc<dyn NeighborPolicy>)> = vec![
        ("no-remap", Arc::new(NoRemap)),
        ("filtered", Arc::new(Filtered::default())),
        ("conservative", Arc::new(Conservative::default())),
        (
            "filtered-eager",
            Arc::new(Filtered {
                params: FilterParams { threshold_planes: 0.25, min_planes: 1 },
            }),
        ),
    ];
    for (name, policy) in policies {
        let mut cfg = RuntimeConfig::new(ch.clone(), 4, phases);
        cfg.remap_interval = 3;
        cfg.predictor_window = 2;
        cfg.throttle = vec![1.0, 5.0, 1.0, 1.0];
        let got = run_parallel(&cfg, policy);
        assert_eq!(got.snapshot, want, "policy {name} changed the physics");
        assert_eq!(got.final_counts().iter().sum::<usize>(), 20, "{name} leaked planes");
        assert!(got.final_counts().iter().all(|&c| c >= 1), "{name} emptied a worker");
    }
}

#[test]
fn multiple_throttled_workers_still_bitwise() {
    let ch = channel(30);
    let phases = 12;
    let want = sequential(&ch, phases);
    let mut cfg = RuntimeConfig::new(ch, 5, phases);
    cfg.remap_interval = 4;
    cfg.predictor_window = 3;
    cfg.throttle = vec![1.0, 6.0, 1.0, 6.0, 1.0];
    let got = run_parallel(&cfg, Arc::new(Filtered::default()));
    assert_eq!(got.snapshot, want);
}

#[test]
fn two_component_slip_physics_survives_decomposition() {
    // The actual paper physics (wall forces + coupling) under an
    // aggressive remap cadence.
    let ch = ChannelConfig::paper_scaled(Dims::new(18, 10, 6));
    let phases = 20;
    let want = sequential(&ch, phases);
    let mut cfg = RuntimeConfig::new(ch, 3, phases);
    cfg.remap_interval = 2;
    cfg.predictor_window = 2;
    cfg.throttle = vec![4.0, 1.0, 1.0];
    let got = run_parallel(&cfg, Arc::new(Filtered::default()));
    assert_eq!(got.snapshot, want);
}

#[test]
fn obstacle_bounce_back_survives_decomposition_and_threads() {
    // Interior solids exercise the bounce-back branch of the in-place
    // streaming sweep; a cylinder post and a wall-attached block cover
    // both the curved and the axis-aligned masks, on worker threads.
    let mut ch = ChannelConfig::paper_scaled(Dims::new(20, 8, 6));
    ch.body = [1.0e-4, 0.0, 0.0];
    ch.obstacles = vec![
        SolidRegion::CylinderZ { center: [9.5, 4.0], radius: 1.8 },
        SolidRegion::Block { min: [14, 0, 0], max: [16, 3, 6] },
    ];
    let phases = 8;
    let want = sequential(&ch, phases);
    for workers in [2usize, 4] {
        let cfg = RuntimeConfig::new(ch.clone(), workers, phases);
        let got = run_parallel(&cfg, Arc::new(NoRemap));
        assert_eq!(got.snapshot, want, "{workers} workers diverged around obstacles");
    }
}

#[test]
fn trt_and_mrt_operators_stay_bitwise() {
    // The non-BGK collision operators take different kernel paths
    // (including the AVX2 BGK fast path being skipped); each must still
    // be bitwise identical across worker counts.
    for (name, op) in [
        ("trt", CollisionOperator::trt_magic()),
        ("mrt", CollisionOperator::mrt_standard()),
    ] {
        let mut ch = channel(16);
        for (spec, _) in ch.components.iter_mut() {
            spec.collision = op;
        }
        let phases = 6;
        let want = sequential(&ch, phases);
        for workers in [2usize, 3] {
            let cfg = RuntimeConfig::new(ch.clone(), workers, phases);
            let got = run_parallel(&cfg, Arc::new(NoRemap));
            assert_eq!(got.snapshot, want, "{name}: {workers} workers diverged");
        }
    }
}

#[test]
fn slip_walls_survive_decomposition_and_threads() {
    // The slip streaming kernels must be bitwise transparent to the
    // decomposition, including when remapping migrates planes across the
    // stripes of a patterned wall (slip weights are keyed by global x).
    for (name, bc) in [
        ("tunable", WallBc::TunableSlip { r: 0.3 }),
        ("patterned", WallBc::PatternedSlip { r_a: 1.0, r_b: 0.2, period: 2, phase: 1 }),
    ] {
        let mut ch = channel(20);
        ch.wall_bc = bc;
        let phases = 10;
        let want = sequential(&ch, phases);
        for workers in [2usize, 4] {
            let cfg = RuntimeConfig::new(ch.clone(), workers, phases);
            let got = run_parallel(&cfg, Arc::new(NoRemap));
            assert_eq!(got.snapshot, want, "{name}: {workers} workers diverged");
        }
        let mut cfg = RuntimeConfig::new(ch.clone(), 3, phases);
        cfg.remap_interval = 3;
        cfg.predictor_window = 2;
        cfg.throttle = vec![1.0, 5.0, 1.0];
        let got = run_parallel(&cfg, Arc::new(Filtered::default()));
        assert_eq!(got.snapshot, want, "{name}: remapping run diverged");
    }
}

#[test]
fn slip_checkpoint_roundtrip_continues_bitwise() {
    let mut ch = channel(16);
    ch.wall_bc = WallBc::PatternedSlip { r_a: 0.9, r_b: 0.1, period: 2, phase: 0 };
    let want = sequential(&ch, 10);
    let mut sim = Simulation::new(ch.clone());
    sim.run(4);
    let bytes = sim.save();
    let mut restored = Simulation::restore(ch, &bytes).expect("restore");
    restored.run(6);
    assert_eq!(restored.snapshot(), want, "restored slip run diverged");
}

#[test]
fn checkpoint_roundtrip_continues_bitwise() {
    // Save/restore through the serialized field layout must reproduce an
    // uninterrupted run exactly, including with obstacles in the domain.
    let mut ch = channel(14);
    ch.obstacles = vec![SolidRegion::Block { min: [6, 0, 0], max: [7, 3, 4] }];
    let want = sequential(&ch, 10);
    let mut sim = Simulation::new(ch.clone());
    sim.run(4);
    let bytes = sim.save();
    let mut restored = Simulation::restore(ch, &bytes).expect("restore");
    restored.run(6);
    assert_eq!(restored.snapshot(), want, "restored run diverged from uninterrupted run");
}

#[test]
fn uneven_initial_slabs_match_sequential() {
    // nx not divisible by workers exercises the remainder slabs.
    let ch = channel(23);
    let phases = 5;
    let want = sequential(&ch, phases);
    for workers in [3usize, 5, 7] {
        let cfg = RuntimeConfig::new(ch.clone(), workers, phases);
        let got = run_parallel(&cfg, Arc::new(NoRemap));
        assert_eq!(got.snapshot, want, "{workers} uneven workers diverged");
    }
}
