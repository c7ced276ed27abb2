//! Figure 7: normalized streamwise velocity profiles with and without
//! hydrophobic wall forces, and the apparent slip.
//!
//! The paper's dotted/dashed curve (wall forces on) shows ~10% apparent
//! slip relative to the free-stream velocity; the solid curve (no wall
//! forces) satisfies no-slip.
//!
//! Usage: `fig7_velocity [phases]` (default 2500).

use microslip_bench::arg_or;
use microslip_cluster::experiment::{f, header, row};
use microslip_lbm::observables::{apparent_slip_fraction, mean_velocity_y_profile};
use microslip_lbm::units::UnitScales;
use microslip_lbm::{ChannelConfig, Dims, Simulation, WallForce};

fn main() {
    let phases: u64 = arg_or(1, 2500);
    print!("{}", header(
        "Fig. 7 — normalized streamwise velocity profiles",
        "water-air S-C LBM with vs without hydrophobic wall forces",
    ));
    let dims = Dims::new(16, 48, 10);
    let cfg_on = ChannelConfig::paper_scaled(dims);
    let mut cfg_off = cfg_on.clone();
    cfg_off.wall = WallForce::off();

    let mut on = Simulation::new(cfg_on);
    on.run(phases);
    let mut off = Simulation::new(cfg_off);
    off.run(phases);

    let u_on = mean_velocity_y_profile(&on.snapshot());
    let u_off = mean_velocity_y_profile(&off.snapshot());
    let n_on = u_on.normalized();
    let n_off = u_off.normalized();
    let scales = UnitScales::paper();
    print!("{}", row(12, "dist (nm)", &["u/u0 forces", "u/u0 none"]));
    for k in 0..dims.ny / 2 {
        let nm = scales.length_to_physical(n_on.distance[k]) * 1e9;
        print!("{}", row(12, &f(nm, 1), &[f(n_on.value[k], 4), f(n_off.value[k], 4)]));
    }
    println!();
    println!(
        "apparent slip: {} with wall forces (paper ~0.10), {} without (paper ~0)",
        f(apparent_slip_fraction(&u_on), 3),
        f(apparent_slip_fraction(&u_off), 3)
    );
}
