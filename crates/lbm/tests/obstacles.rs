//! Flow around interior obstacles: physical sanity and the decomposition
//! invariant (solid masks are rebuilt per slab and must agree with the
//! sequential mask even as planes migrate).

use microslip_lbm::geometry::{even_slabs, SolidRegion};
use microslip_lbm::macroscopic::Snapshot;
use microslip_lbm::{ChannelConfig, Dims, Side, Simulation, SlabSolver};

fn obstacle_config(dims: Dims) -> ChannelConfig {
    let mut cfg = ChannelConfig::single_component(dims, 1.0, 1e-5);
    cfg.obstacles = vec![SolidRegion::CylinderZ {
        center: [dims.nx as f64 / 2.0, dims.ny as f64 / 2.0],
        radius: dims.ny as f64 / 5.0,
    }];
    cfg
}

#[test]
fn obstacle_reduces_flux_and_blocks_fluid() {
    let dims = Dims::new(24, 15, 6);
    let phases = 600;
    let mut open = Simulation::new(ChannelConfig::single_component(dims, 1.0, 1e-5));
    open.run(phases);
    let mut blocked = Simulation::new(obstacle_config(dims));
    blocked.run(phases);

    let flux = |snap: &Snapshot, x: usize| -> f64 {
        let mut q = 0.0;
        for y in 0..snap.ny {
            for z in 0..snap.nz {
                q += snap.u(snap.idx(x, y, z))[0] * snap.rho_total(snap.idx(x, y, z));
            }
        }
        q
    };
    let so = open.snapshot();
    let sb = blocked.snapshot();
    assert!(
        flux(&sb, 2) < 0.7 * flux(&so, 2),
        "cylinder must throttle the flow: {} vs {}",
        flux(&sb, 2),
        flux(&so, 2)
    );
    // No fluid inside the solid.
    let c = sb.idx(dims.nx / 2, dims.ny / 2, 3);
    assert_eq!(sb.rho_total(c), 0.0);
    assert_eq!(sb.u(c), [0.0; 3]);
    // Mass conserved during the run (relative to the blocked channel's own
    // initial mass).
    let m0 = (dims.cells() as f64)
        - sb.rho[0].iter().filter(|&&r| r == 0.0).count() as f64;
    let m1: f64 = sb.rho[0].iter().sum();
    assert!(((m1 - m0) / m0).abs() < 1e-9, "mass drift with obstacle: {m0} -> {m1}");
}

#[test]
fn flow_accelerates_through_the_gap() {
    // Continuity: the constriction beside the cylinder carries faster
    // flow than the same position far upstream.
    let dims = Dims::new(32, 17, 6);
    let mut sim = Simulation::new(obstacle_config(dims));
    sim.run(800);
    let snap = sim.snapshot();
    let gap_y = 1; // near the wall, beside the cylinder
    let u_gap = snap.u(snap.idx(dims.nx / 2, gap_y, 3))[0];
    let u_upstream = snap.u(snap.idx(2, gap_y, 3))[0];
    assert!(
        u_gap > 1.2 * u_upstream,
        "gap flow {u_gap} should exceed upstream {u_upstream}"
    );
}

#[test]
fn decomposed_run_with_obstacles_is_bitwise() {
    let dims = Dims::new(18, 9, 4);
    let cfg = obstacle_config(dims);
    let phases = 8;
    let mut seq = Simulation::new(cfg.clone());
    seq.run(phases);
    let want = seq.snapshot();

    for parts in [2usize, 3] {
        let mut solvers: Vec<SlabSolver> = even_slabs(dims.nx, parts)
            .into_iter()
            .map(|slab| SlabSolver::new(&cfg, slab))
            .collect();
        prime(&mut solvers);
        for _ in 0..phases {
            phase(&mut solvers);
        }
        let got = Snapshot::stitch(solvers.iter().map(|s| s.snapshot()).collect());
        assert_eq!(got, want, "{parts}-way decomposition with obstacles diverged");
    }
}

#[test]
fn migration_rebuilds_masks_correctly() {
    // Planes carrying obstacle cells migrate between solvers; the solid
    // masks must follow, keeping the run bitwise equal to sequential.
    let dims = Dims::new(18, 9, 4);
    let cfg = obstacle_config(dims);
    let phases = 9;
    let mut seq = Simulation::new(cfg.clone());
    seq.run(phases);
    let want = seq.snapshot();

    let mut solvers: Vec<SlabSolver> = even_slabs(dims.nx, 3)
        .into_iter()
        .map(|slab| SlabSolver::new(&cfg, slab))
        .collect();
    prime(&mut solvers);
    for p in 0..phases {
        phase(&mut solvers);
        // Push planes through the obstacle region: node 1 owns the
        // cylinder's planes initially; move some to both neighbors.
        match p {
            2 => {
                let d = solvers[1].take_planes(Side::Left, 2);
                solvers[0].give_planes(Side::Right, 2, &d);
            }
            4 => {
                let d = solvers[1].take_planes(Side::Right, 2);
                solvers[2].give_planes(Side::Left, 2, &d);
            }
            6 => {
                let d = solvers[0].take_planes(Side::Right, 3);
                solvers[1].give_planes(Side::Left, 3, &d);
            }
            _ => {}
        }
    }
    let got = Snapshot::stitch(solvers.iter().map(|s| s.snapshot()).collect());
    assert_eq!(got, want, "mask did not follow migrated planes");
    // Sanity: solid fractions now differ per node but sum to the same
    // total solid volume.
    let total_solid: f64 = solvers
        .iter()
        .map(|s| s.solid_fraction() * (s.nx_local() * 9 * 4) as f64)
        .sum();
    let seq_solid = seq.solver().solid_fraction() * dims.cells() as f64;
    assert!((total_solid - seq_solid).abs() < 1e-9);
}

// -- shared decomposed-phase helpers (same as solver unit tests) ----------

fn exchange_f(solvers: &mut [SlabSolver]) {
    let n = solvers.len();
    let len = solvers[0].f_halo_len();
    let mut right = vec![vec![0.0; len]; n];
    let mut left = vec![vec![0.0; len]; n];
    for (i, s) in solvers.iter().enumerate() {
        s.f_halo_out(Side::Right, &mut right[i]);
        s.f_halo_out(Side::Left, &mut left[i]);
    }
    for i in 0..n {
        solvers[i].f_halo_in(Side::Left, &right[(i + n - 1) % n]);
        solvers[i].f_halo_in(Side::Right, &left[(i + 1) % n]);
    }
}

fn exchange_psi(solvers: &mut [SlabSolver]) {
    let n = solvers.len();
    let len = solvers[0].psi_halo_len();
    let mut right = vec![vec![0.0; len]; n];
    let mut left = vec![vec![0.0; len]; n];
    for (i, s) in solvers.iter().enumerate() {
        s.psi_halo_out(Side::Right, &mut right[i]);
        s.psi_halo_out(Side::Left, &mut left[i]);
    }
    for i in 0..n {
        solvers[i].psi_halo_in(Side::Left, &right[(i + n - 1) % n]);
        solvers[i].psi_halo_in(Side::Right, &left[(i + 1) % n]);
    }
}

fn phase(solvers: &mut [SlabSolver]) {
    for s in solvers.iter_mut() {
        s.collide_edges();
    }
    exchange_f(solvers);
    for s in solvers.iter_mut() {
        s.stream_collide_fused();
    }
    exchange_psi(solvers);
}

fn prime(solvers: &mut [SlabSolver]) {
    for s in solvers.iter_mut() {
        s.prime_local_psi();
    }
    exchange_psi(solvers);
}
