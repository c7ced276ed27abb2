//! Figure 6: fluid densities as a function of distance from the side wall.
//!
//! Two-component Shan-Chen run with the paper's hydrophobic wall force on
//! a scaled channel; prints the water and air/vapor density profiles at
//! the mid-channel cross-section in the paper's physical units. The paper
//! observes water depleted (from ~1 to ~0.55 g/cm3) and air enriched
//! (~0.8 to ~1.6 x 1e-4 g/cm3) within ~20 nm of the wall.
//!
//! Usage: `fig6_density [phases]` (default 2500).

use microslip_bench::arg_or;
use microslip_cluster::experiment::{f, header, row};
use microslip_lbm::observables::mean_density_y_profile;
use microslip_lbm::units::UnitScales;
use microslip_lbm::{ChannelConfig, Dims, Simulation};

fn main() {
    let phases: u64 = arg_or(1, 2500);
    print!("{}", header(
        "Fig. 6 — fluid densities near the side wall",
        "water-air S-C LBM, hydrophobic wall forces, mid-channel cut",
    ));
    let dims = Dims::new(16, 48, 10);
    let mut sim = Simulation::new(ChannelConfig::paper_scaled(dims));
    sim.run(phases);
    let snap = sim.snapshot();
    let scales = UnitScales::paper();
    let water = mean_density_y_profile(&snap, 0);
    let air = mean_density_y_profile(&snap, 1);
    print!("{}", row(12, "dist (nm)", &["water g/cm3", "air 1e-4 g/cm3"]));
    for k in 0..dims.ny / 2 {
        let nm = scales.length_to_physical(water.distance[k]) * 1e9;
        print!("{}", row(
            12,
            &f(nm, 1),
            &[
                f(scales.density_to_g_cm3(water.value[k]), 4),
                f(scales.density_to_g_cm3(air.value[k]) * 1e4, 4),
            ],
        ));
    }
    println!();
    let bulk_w = water.value[dims.ny / 2];
    let bulk_a = air.value[dims.ny / 2];
    println!(
        "wall/bulk: water {} (paper ~0.55/1.0), air {} (paper ~1.6/0.8 = 2.0)",
        f(water.value[0] / bulk_w, 2),
        f(air.value[0] / bulk_a, 2)
    );
}
