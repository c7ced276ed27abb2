//! Physics ablation: how the apparent slip depends on the hydrophobic
//! wall-force parameters the paper says are "not well understood" —
//! amplitude c0, decay length c1, and the water–air coupling g.
//!
//! Each run is an independent scaled-channel simulation; sweeps execute
//! concurrently on scoped threads.
//!
//! Usage: `ablation_physics [phases]` (default 1500).

use microslip_bench::arg_or;
use microslip_cluster::experiment::{f, header, par_map, row};
use microslip_lbm::observables::{
    apparent_slip_fraction, mean_density_y_profile, mean_velocity_y_profile,
};
use microslip_lbm::{ChannelConfig, CouplingMatrix, Dims, Simulation, WallForce};

fn run(mutate: impl Fn(&mut ChannelConfig), phases: u64) -> (f64, f64) {
    let dims = Dims::new(10, 40, 8);
    let mut cfg = ChannelConfig::paper_scaled(dims);
    mutate(&mut cfg);
    let mut sim = Simulation::new(cfg);
    sim.run(phases);
    let snap = sim.snapshot();
    let slip = apparent_slip_fraction(&mean_velocity_y_profile(&snap));
    let water = mean_density_y_profile(&snap, 0);
    let depletion = 1.0 - water.value[0] / water.value[dims.ny / 2];
    (slip, depletion)
}

fn main() {
    let phases: u64 = arg_or(1, 1500);
    print!("{}", header(
        "Physics ablation — slip vs wall-force parameters",
        "scaled channel 10x40x8; paper defaults: c0=0.2, c1=2 l.u., g=0.15",
    ));

    println!();
    println!("-- wall-force amplitude c0 (paper: 0.2) --");
    print!("{}", row(10, "c0", &["slip u_w/u0", "depletion"]));
    let amps = [0.05, 0.1, 0.2, 0.3, 0.4];
    let out = par_map(&amps, |&a| run(|c| c.wall.amplitude = a, phases));
    for (a, (slip, dep)) in amps.iter().zip(out) {
        print!("{}", row(10, &a.to_string(), &[f(slip, 3), format!("{}%", f(dep * 100.0, 0))]));
    }

    println!();
    println!("-- decay length c1 in lattice units of 5 nm (paper: 2) --");
    print!("{}", row(10, "c1", &["slip u_w/u0", "depletion"]));
    let decays = [0.5, 1.0, 2.0, 4.0, 6.0];
    let out = par_map(&decays, |&d| run(|c| c.wall.decay = d, phases));
    for (d, (slip, dep)) in decays.iter().zip(out) {
        print!("{}", row(10, &d.to_string(), &[f(slip, 3), format!("{}%", f(dep * 100.0, 0))]));
    }

    println!();
    println!("-- water-air repulsion g (paper model: cross coupling) --");
    print!("{}", row(10, "g", &["slip u_w/u0", "depletion"]));
    let gs = [0.0, 0.05, 0.15, 0.3];
    let out = par_map(&gs, |&g| run(move |c| c.coupling = CouplingMatrix::cross(g), phases));
    for (g, (slip, dep)) in gs.iter().zip(out) {
        print!("{}", row(10, &g.to_string(), &[f(slip, 3), format!("{}%", f(dep * 100.0, 0))]));
    }

    println!();
    println!("-- hydrophobicity model: paper's exponential force vs S-C adhesion --");
    print!("{}", row(22, "model", &["slip u_w/u0", "depletion"]));
    type Mutator = Box<dyn Fn(&mut ChannelConfig) + Sync>;
    let models: Vec<(&str, Mutator)> = vec![
        ("none", Box::new(|c: &mut ChannelConfig| c.wall = WallForce::off())),
        ("exp force (paper)", Box::new(|_| {})),
        (
            "adhesion g_w=0.3",
            Box::new(|c: &mut ChannelConfig| {
                c.wall = WallForce::off();
                c.components[0].0.wall_adhesion = 0.3;
            }),
        ),
        (
            "adhesion g_w=0.6",
            Box::new(|c: &mut ChannelConfig| {
                c.wall = WallForce::off();
                c.components[0].0.wall_adhesion = 0.6;
            }),
        ),
    ];
    let out = par_map(&models, |(_, m)| run(m, phases));
    for ((name, _), (slip, dep)) in models.iter().zip(out) {
        print!("{}", row(22, name, &[f(slip, 3), format!("{}%", f(dep * 100.0, 0))]));
    }

    println!();
    println!("reference: the paper reports ~10% slip; Tretheway & Meinhart's");
    println!("experiment measured ~10% of free-stream velocity.");
}
