//! Quickstart: the two faces of `microslip` in under a minute.
//!
//! 1. A single-component channel flow in the solver's pseudo-2-D mode
//!    (no-slip y plates, specular z walls) validated against the analytic
//!    plane-Poiseuille profile.
//! 2. A small 3-D two-component (water + air) hydrophobic microchannel —
//!    the paper's physics at toy resolution — reporting the apparent slip.
//! 3. The same channel on the parallel runtime via [`Scenario`] — one
//!    fluent configuration instead of hand-threading four configs.
//!
//! Run with: `cargo run --release --example quickstart`

use microslip::lbm::analytic::{compare, plane_poiseuille};
use microslip::lbm::observables::{apparent_slip_fraction, mean_velocity_y_profile};
use microslip::lbm::simulation::velocity_converged;
use microslip::lbm::WallBc;
use microslip::prelude::*;

fn main() {
    // ---- Part 1: pseudo-2-D Poiseuille validation -----------------------
    println!("== pseudo-2-D channel flow vs analytic Poiseuille ==");
    let (ny, g) = (24, 1e-6);
    let mut cfg = ChannelConfig::single_component(Dims::new(4, ny, 4), 1.0, g);
    cfg.wall_bc = WallBc::TunableSlip { r: 1.0 };
    let mut sim = Simulation::new(cfg);
    let steps = sim.run_until(20_000, 500, velocity_converged(1e-10));
    let numeric = mean_velocity_y_profile(&sim.snapshot());
    let reference: Vec<f64> = numeric
        .distance
        .iter()
        .map(|&d| plane_poiseuille(d, ny as f64, g, 1.0 / 6.0))
        .collect();
    let err = compare(&numeric.value, &reference);
    println!("   rows: {ny}, steps: {steps}");
    println!("   relative L2 error vs Poiseuille: {:.4}", err.l2);
    println!("   relative Linf error:             {:.4}", err.linf);

    // ---- Part 2: 3-D two-component slip channel --------------------------
    println!();
    println!("== 3-D hydrophobic microchannel (scaled) ==");
    let dims = Dims::new(12, 40, 8);
    let cfg = ChannelConfig::paper_scaled(dims);
    println!(
        "   grid {}x{}x{}  components: {}  wall force: {} (decay {} l.u.)",
        dims.nx, dims.ny, dims.nz, cfg.ncomp(), cfg.wall.amplitude, cfg.wall.decay
    );
    let mut sim = Simulation::new(cfg);
    let phases = 1200;
    sim.run(phases);
    let snap = sim.snapshot();

    let u = mean_velocity_y_profile(&snap);
    let slip = apparent_slip_fraction(&u);
    println!("   phases: {phases}");
    println!("   centerline velocity u0 = {:.3e} (lattice units)", u.max());
    println!("   apparent slip u_wall/u0 = {:.3} (paper reports ~0.10)", slip);

    // Density depletion at the wall (the slip mechanism).
    let rho_wall = snap.rho[0][snap.idx(0, 0, dims.nz / 2)];
    let rho_mid = snap.rho[0][snap.idx(0, dims.ny / 2, dims.nz / 2)];
    println!(
        "   water density: wall {rho_wall:.3} vs centerline {rho_mid:.3}  (depletion {:.0}%)",
        (1.0 - rho_wall / rho_mid) * 100.0
    );

    // ---- Part 3: the same physics on the parallel runtime ----------------
    println!();
    println!("== parallel runtime via Scenario ==");
    let outcome = Scenario::paper_scaled(16, 24, 8)
        .workers(4)
        .phases(60)
        .scheme(Scheme::NoRemap)
        .runtime()
        .expect("valid run")
        .run();
    println!(
        "   4 workers, 60 phases: wall {:.2}s, planes by worker {:?}",
        outcome.wall_seconds,
        outcome.final_counts()
    );
}
