//! Physics validation of the 3-D solver against analytic references and
//! the paper's qualitative results (Figures 6–7).

use microslip::lbm::analytic::{
    compare, duct_velocity, plane_poiseuille, slip_poiseuille, striped_slip_bounds,
    tunable_slip_length,
};
use microslip::lbm::observables::{
    apparent_slip_fraction, mean_density_y_profile, mean_velocity_y_profile, slip_length,
    velocity_y_profile, YProfile,
};
use microslip::lbm::simulation::velocity_converged;
use microslip::lbm::{ChannelConfig, Dims, Simulation, WallBc, WallForce};

#[test]
fn single_component_converges_to_duct_flow() {
    // Body-force-driven single-component flow in a rectangular duct must
    // match the analytic double-cosh series.
    let dims = Dims::new(4, 20, 12);
    let g = 1e-6;
    let cfg = ChannelConfig::single_component(dims, 1.0, g);
    let nu = 1.0 / 6.0;
    let mut sim = Simulation::new(cfg);
    sim.run_until(20_000, 500, velocity_converged(1e-10));
    let snap = sim.snapshot();

    let a = dims.ny as f64 / 2.0;
    let b = dims.nz as f64 / 2.0;
    let mut numeric = Vec::new();
    let mut reference = Vec::new();
    for y in 0..dims.ny {
        for z in 0..dims.nz {
            numeric.push(snap.u(snap.idx(2, y, z))[0]);
            // Cell centers relative to the duct center.
            let yy = y as f64 + 0.5 - a;
            let zz = z as f64 + 0.5 - b;
            reference.push(duct_velocity(yy, zz, a, b, g, nu, 200));
        }
    }
    let err = compare(&numeric, &reference);
    assert!(err.l2 < 0.02, "duct-flow L2 error {}", err.l2);
    assert!(err.linf < 0.03, "duct-flow Linf error {}", err.linf);
}

#[test]
fn wall_forces_create_slip_and_depletion() {
    // The paper's mechanism end to end: with hydrophobic wall forces the
    // near-wall water density drops, air enriches, and the velocity
    // profile shows apparent slip; without them, neither happens.
    let dims = Dims::new(8, 32, 8);
    let phases = 1500;

    let mut with = Simulation::new(ChannelConfig::paper_scaled(dims));
    with.run(phases);
    let snap_on = with.snapshot();

    let mut cfg_off = ChannelConfig::paper_scaled(dims);
    cfg_off.wall = WallForce::off();
    let mut without = Simulation::new(cfg_off);
    without.run(phases);
    let snap_off = without.snapshot();

    // Density structure (Fig. 6).
    let water_on = mean_density_y_profile(&snap_on, 0);
    let air_on = mean_density_y_profile(&snap_on, 1);
    let mid = dims.ny / 2;
    assert!(
        water_on.value[0] < 0.8 * water_on.value[mid],
        "water must be depleted at the wall: {} vs {}",
        water_on.value[0],
        water_on.value[mid]
    );
    assert!(
        air_on.value[0] > 1.3 * air_on.value[mid],
        "air must be enriched at the wall: {} vs {}",
        air_on.value[0],
        air_on.value[mid]
    );
    let water_off = mean_density_y_profile(&snap_off, 0);
    assert!(
        (water_off.value[0] / water_off.value[mid] - 1.0).abs() < 0.05,
        "without wall forces the water stays nearly uniform"
    );

    // Slip (Fig. 7): order of the paper's 10%, and clearly above the
    // control.
    let slip_on = apparent_slip_fraction(&mean_velocity_y_profile(&snap_on));
    let slip_off = apparent_slip_fraction(&mean_velocity_y_profile(&snap_off));
    assert!(
        slip_on > 0.04 && slip_on < 0.25,
        "slip with wall forces should be ~0.1, got {slip_on}"
    );
    assert!(slip_on > 2.0 * slip_off.abs().max(0.005), "slip must exceed the control ({slip_off})");
}

#[test]
fn profiles_symmetric_about_midplane() {
    let dims = Dims::new(6, 24, 6);
    let mut sim = Simulation::new(ChannelConfig::paper_scaled(dims));
    sim.run(400);
    let snap = sim.snapshot();
    let u = velocity_y_profile(&snap, 3, 3);
    for y in 0..dims.ny / 2 {
        let a = u.value[y];
        let b = u.value[dims.ny - 1 - y];
        assert!(
            (a - b).abs() <= 1e-12 * a.abs().max(1e-30) + 1e-15,
            "asymmetry at row {y}: {a} vs {b}"
        );
    }
}

#[test]
fn long_run_conserves_mass_per_component() {
    let mut sim = Simulation::new(ChannelConfig::paper_scaled(Dims::new(10, 16, 6)));
    let m0: Vec<f64> = sim.solver().components().iter().map(|c| c.total_mass()).collect();
    sim.run(500);
    for (k, c) in sim.solver().components().iter().enumerate() {
        let drift = ((c.total_mass() - m0[k]) / m0[k]).abs();
        assert!(drift < 1e-10, "component {k} mass drift {drift}");
    }
}

/// Converged mean streamwise profile of a single-component channel
/// (τ = 1, body force 1e-6) under the given wall BC. The slip BCs treat
/// the z walls as purely specular, so the flow is pseudo-2-D and plane
/// Poiseuille with Navier slip in y is the analytic reference.
fn converged_slip_profile(nx: usize, ny: usize, bc: WallBc) -> YProfile {
    let mut cfg = ChannelConfig::single_component(Dims::new(nx, ny, 4), 1.0, 1e-6);
    cfg.wall_bc = bc;
    let mut sim = Simulation::new(cfg);
    sim.run_until(20_000, 500, velocity_converged(1e-10));
    mean_velocity_y_profile(&sim.snapshot())
}

/// The slip-length estimator applied to the *analytic* slip-Poiseuille
/// profile sampled at the same cell centers — the like-for-like reference
/// that cancels the estimator's finite-sample curvature bias.
fn analytic_slip_estimate(ny: usize, b: f64) -> f64 {
    let h = ny as f64;
    let distance: Vec<f64> = (0..ny).map(|y| y as f64 + 0.5).collect();
    let value = distance.iter().map(|&d| slip_poiseuille(d, h, 1e-6, 1.0 / 6.0, b)).collect();
    slip_length(&YProfile { distance, value })
}

#[test]
fn pseudo_2d_channel_converges_to_plane_poiseuille() {
    // `TunableSlip { r: 1.0 }` is no-slip in y with specular z-walls —
    // the 3-D solver's pseudo-2-D mode (the only 2-D solver there is),
    // whose steady state is plane Poiseuille between the y plates.
    let ny = 24;
    let u = converged_slip_profile(4, ny, WallBc::TunableSlip { r: 1.0 });
    let reference: Vec<f64> =
        u.distance.iter().map(|&d| plane_poiseuille(d, ny as f64, 1e-6, 1.0 / 6.0)).collect();
    let err = compare(&u.value, &reference);
    assert!(err.l2 < 0.01, "L2 error vs Poiseuille: {}", err.l2);
    assert!(err.linf < 0.02, "Linf error vs Poiseuille: {}", err.linf);
}

#[test]
fn tunable_slip_length_matches_analytic_b_of_r() {
    // Ahmed & Hecht: the r-mix of bounce-back and specular reflection
    // produces Navier slip with b(r) = (2τ−1)(1−r)/(2r). Measured and
    // analytic slip lengths are compared through the same two-point
    // estimator on the same sample points.
    let (ny, tau) = (16usize, 1.0);
    let mut measured = Vec::new();
    for &r in &[0.3, 0.5, 0.8] {
        let b = tunable_slip_length(r, tau);
        let meas = slip_length(&converged_slip_profile(4, ny, WallBc::TunableSlip { r }));
        let ana = analytic_slip_estimate(ny, b);
        assert!(
            (meas - ana).abs() < 0.02 + 0.05 * ana,
            "r={r}: measured slip length {meas} vs analytic {ana} (continuum b {b})"
        );
        measured.push(meas);
    }
    assert!(
        measured[0] > measured[1] && measured[1] > measured[2],
        "slip length must fall as the bounce-back fraction rises: {measured:?}"
    );
}

#[test]
fn patterned_wall_slip_is_bracketed_by_the_uniform_walls() {
    // arXiv:0910.2637: a wall striped between two slip materials has an
    // effective slip strictly between the two uniform-wall values.
    let ny = 16;
    let (r_a, r_b) = (1.0, 0.3);
    let uni_a = slip_length(&converged_slip_profile(8, ny, WallBc::TunableSlip { r: r_a }));
    let uni_b = slip_length(&converged_slip_profile(8, ny, WallBc::TunableSlip { r: r_b }));
    let patt = slip_length(&converged_slip_profile(
        8,
        ny,
        WallBc::PatternedSlip { r_a, r_b, period: 2, phase: 0 },
    ));
    let (lo, hi) = striped_slip_bounds(uni_a, uni_b);
    assert!(
        lo < patt && patt < hi,
        "effective slip {patt} outside the uniform bracket [{lo}, {hi}]"
    );
}

/// Regenerates the numbers of the EXPERIMENTS.md "Slip validation" table:
/// `cargo test --test physics_validation slip_report -- --ignored --nocapture`
#[test]
#[ignore = "prints the EXPERIMENTS.md slip table; run with --ignored --nocapture"]
fn slip_report() {
    let (ny, tau) = (16usize, 1.0);
    for &r in &[0.3, 0.5, 0.8] {
        let b = tunable_slip_length(r, tau);
        let meas = slip_length(&converged_slip_profile(4, ny, WallBc::TunableSlip { r }));
        let ana = analytic_slip_estimate(ny, b);
        println!("r={r}: continuum b={b:.4}  analytic-est={ana:.4}  measured={meas:.4}");
    }
    let (r_a, r_b) = (1.0, 0.3);
    let uni_a = slip_length(&converged_slip_profile(8, ny, WallBc::TunableSlip { r: r_a }));
    let uni_b = slip_length(&converged_slip_profile(8, ny, WallBc::TunableSlip { r: r_b }));
    let patt = slip_length(&converged_slip_profile(
        8,
        ny,
        WallBc::PatternedSlip { r_a, r_b, period: 2, phase: 0 },
    ));
    println!("striped wall: uniform r=1 {uni_a:.4}, uniform r=0.3 {uni_b:.4}, striped {patt:.4}");
}

#[test]
fn slip_walls_conserve_mass_in_the_two_component_channel() {
    // The convex bounce/specular mix must conserve mass exactly for every
    // wall BC, including x-varying stripes and rough-wall obstacles, in
    // the full two-component Shan–Chen channel.
    let dims = Dims::new(8, 16, 4);
    for bc in [
        WallBc::TunableSlip { r: 0.4 },
        WallBc::PatternedSlip { r_a: 1.0, r_b: 0.2, period: 2, phase: 1 },
        WallBc::rough_stripes(1, 2, dims),
    ] {
        let mut cfg = ChannelConfig::paper_scaled(dims);
        cfg.wall_bc = bc.clone();
        let mut sim = Simulation::new(cfg);
        let m0: Vec<f64> = sim.solver().components().iter().map(|c| c.total_mass()).collect();
        sim.run(300);
        for (k, c) in sim.solver().components().iter().enumerate() {
            let drift = ((c.total_mass() - m0[k]) / m0[k]).abs();
            assert!(drift < 1e-10, "{bc:?}: component {k} mass drift {drift}");
        }
    }
}

#[test]
fn flow_is_streamwise_in_steady_state() {
    // Pointwise transverse velocities carry the hydrostatic force-balance
    // artifact of the Shan–Chen forcing near the walls, but by symmetry
    // they must cancel in the channel average, leaving a purely
    // streamwise mean flow.
    let dims = Dims::new(8, 24, 6);
    let mut sim = Simulation::new(ChannelConfig::paper_scaled(dims));
    sim.run(1500);
    let snap = sim.snapshot();
    let mut mean = [0.0f64; 3];
    for cell in 0..snap.cells() {
        let u = snap.u(cell);
        for a in 0..3 {
            mean[a] += u[a];
        }
    }
    for m in mean.iter_mut() {
        *m /= snap.cells() as f64;
    }
    assert!(mean[0] > 0.0, "mean streamwise flow must be positive: {mean:?}");
    assert!(mean[1].abs() < 0.02 * mean[0], "mean transverse flow: {mean:?}");
    assert!(mean[2].abs() < 0.02 * mean[0], "mean vertical flow: {mean:?}");
}
