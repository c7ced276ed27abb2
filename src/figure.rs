//! The one registry of the paper's figures and tables.
//!
//! [`FIGURES`] names every figure and table this reproduction renders, in
//! the paper's order: the nine performance results of the virtual cluster
//! (`microslip_cluster::experiment`) and the physics results of the LBM
//! itself — Fig. 6, Fig. 7 and the wall-force ablation A2, defined here.
//! `microslip figure NAME` prints one at [`Size::Paper`]; `--quick`
//! renders it at [`Size::Quick`], the size `tests/goldens/figures/NAME.txt`
//! pins byte for byte. Every entry is deterministic to the bit.

use microslip_cluster::experiment::{self, f, header, par_map, row};
use microslip_lbm::observables::{
    apparent_slip_fraction, mean_density_y_profile, mean_velocity_y_profile,
};
use microslip_lbm::units::UnitScales;
use microslip_lbm::{ChannelConfig, CouplingMatrix, Dims, Simulation, Snapshot, WallForce};

/// How long a figure's runs are.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Size {
    /// The length EXPERIMENTS.md's tables were run at.
    Paper,
    /// A few phases of the same runs, cheap enough for a debug `cargo
    /// test`. The virtual-cluster entries render at the paper's length
    /// either way: they take milliseconds.
    Quick,
}

impl Size {
    /// `paper` phases at [`Size::Paper`], `quick` at [`Size::Quick`].
    fn phases(self, paper: u64, quick: u64) -> u64 {
        if self == Size::Paper { paper } else { quick }
    }
}

/// Renders one figure as the text table `microslip figure NAME` prints.
pub type Render = fn(Size) -> String;

/// Every figure and table, as `(name, renderer)`, in the paper's order.
pub const FIGURES: &[(&str, Render)] = &[
    ("fig3", |_| experiment::fig3()),
    ("fig6", fig6),
    ("fig7", fig7),
    ("fig8", |_| experiment::fig8()),
    ("fig9", |_| experiment::fig9()),
    ("fig10", |_| experiment::fig10()),
    ("table1", |_| experiment::table1()),
    ("scaling", |_| experiment::scaling()),
    ("filters", |_| experiment::filters()),
    ("hetero", |_| experiment::hetero()),
    ("transient", |_| experiment::transient()),
    ("ablation", ablation),
];

/// A name that is not in [`FIGURES`]; its message lists every name.
#[derive(Debug)]
pub struct UnknownFigure(pub String);

impl std::fmt::Display for UnknownFigure {
    fn fmt(&self, out: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let names: Vec<&str> = FIGURES.iter().map(|(name, _)| *name).collect();
        write!(out, "unknown figure '{}' (valid: {})", self.0, names.join(", "))
    }
}

impl std::error::Error for UnknownFigure {}

/// Looks up the renderer registered as `name`.
pub fn find(name: &str) -> Result<Render, UnknownFigure> {
    FIGURES
        .iter()
        .find(|(n, _)| *n == name)
        .map(|(_, render)| *render)
        .ok_or_else(|| UnknownFigure(name.to_string()))
}

/// The scaled channel of Fig. 6 and Fig. 7.
const FIG67_DIMS: Dims = Dims { nx: 16, ny: 48, nz: 10 };

/// Runs `cfg` for `phases` phases and returns the final fields.
fn run(cfg: ChannelConfig, phases: u64) -> Snapshot {
    let mut sim = Simulation::new(cfg);
    sim.run(phases);
    sim.snapshot()
}

/// Fig. 6: fluid densities as a function of distance from the side wall.
///
/// Two-component Shan–Chen run with the paper's hydrophobic wall force on
/// a scaled channel; the water and air/vapor density profiles at the
/// mid-channel cross-section in the paper's physical units. The paper
/// observes water depleted (from ~1 to ~0.55 g/cm³) and air enriched
/// (~0.8 to ~1.6 × 10⁻⁴ g/cm³) within ~20 nm of the wall.
fn fig6(size: Size) -> String {
    let mut out = header(
        "Fig. 6 — fluid densities near the side wall",
        "water-air S-C LBM, hydrophobic wall forces, mid-channel cut",
    );
    let snap = run(ChannelConfig::paper_scaled(FIG67_DIMS), size.phases(4000, 30));
    let scales = UnitScales::paper();
    let water = mean_density_y_profile(&snap, 0);
    let air = mean_density_y_profile(&snap, 1);
    out += &row(12, "dist (nm)", &["water g/cm3", "air 1e-4 g/cm3"]);
    let half = water.distance.iter().zip(&water.value).zip(&air.value).take(FIG67_DIMS.ny / 2);
    for ((&distance, &w), &a) in half {
        let nm = scales.length_to_physical(distance) * 1e9;
        let cells = [f(scales.density_to_g_cm3(w), 4), f(scales.density_to_g_cm3(a) * 1e4, 4)];
        out += &row(12, &f(nm, 1), &cells);
    }
    let wall_to_bulk = |v: &[f64]| at(v, 0) / at(v, FIG67_DIMS.ny / 2);
    out += &format!(
        "\nwall/bulk: water {} (paper ~0.55/1.0), air {} (paper ~1.6/0.8 = 2.0)\n",
        f(wall_to_bulk(&water.value), 2),
        f(wall_to_bulk(&air.value), 2)
    );
    out
}

/// Fig. 7: normalized streamwise velocity profiles with and without
/// hydrophobic wall forces, and the apparent slip.
///
/// The paper's dotted/dashed curve (wall forces on) shows ~10 % apparent
/// slip relative to the free-stream velocity; the solid curve (no wall
/// forces) satisfies no-slip.
fn fig7(size: Size) -> String {
    let mut out = header(
        "Fig. 7 — normalized streamwise velocity profiles",
        "water-air S-C LBM with vs without hydrophobic wall forces",
    );
    let phases = size.phases(4000, 30);
    let cfg_on = ChannelConfig::paper_scaled(FIG67_DIMS);
    let cfg_off = ChannelConfig { wall: WallForce::off(), ..cfg_on.clone() };
    let u_on = mean_velocity_y_profile(&run(cfg_on, phases));
    let u_off = mean_velocity_y_profile(&run(cfg_off, phases));
    let n_on = u_on.normalized();
    let n_off = u_off.normalized();
    let scales = UnitScales::paper();
    out += &row(12, "dist (nm)", &["u/u0 forces", "u/u0 none"]);
    let half = n_on.distance.iter().zip(&n_on.value).zip(&n_off.value).take(FIG67_DIMS.ny / 2);
    for ((&distance, &on), &off) in half {
        let nm = scales.length_to_physical(distance) * 1e9;
        out += &row(12, &f(nm, 1), &[f(on, 4), f(off, 4)]);
    }
    out += &format!(
        "\napparent slip: {} with wall forces (paper ~0.10), {} without (paper ~0)\n",
        f(apparent_slip_fraction(&u_on), 3),
        f(apparent_slip_fraction(&u_off), 3)
    );
    out
}

/// A2: how the apparent slip depends on the hydrophobic wall-force
/// parameters the paper says are "not well understood" — amplitude c0,
/// decay length c1, the water–air coupling g — and on the hydrophobicity
/// model itself. Each point is an independent run on a 10×40×8 channel;
/// the points of a sweep run concurrently.
fn ablation(size: Size) -> String {
    let phases = size.phases(1500, 20);
    let base = ChannelConfig::paper_scaled(Dims { nx: 10, ny: 40, nz: 8 });
    let with = |mutate: &dyn Fn(&mut ChannelConfig)| {
        let mut cfg = base.clone();
        mutate(&mut cfg);
        cfg
    };
    let sweep = |title: &str, width: usize, column: &str, points: &[(String, ChannelConfig)]| {
        let mut out = format!("\n{title}\n") + &row(width, column, &["slip u_w/u0", "depletion"]);
        let results = par_map(points, |(_, cfg)| ablation_point(cfg, phases));
        for ((label, _), (slip, depletion)) in points.iter().zip(results) {
            out += &row(width, label, &[f(slip, 3), format!("{}%", f(depletion * 100.0, 0))]);
        }
        out
    };
    let mut out = header(
        "Physics ablation — slip vs wall-force parameters",
        "scaled channel 10x40x8; paper defaults: c0=0.2, c1=2 l.u., g=0.15",
    );
    let amplitudes =
        [0.05, 0.1, 0.2, 0.3, 0.4].map(|a| (a.to_string(), with(&|c| c.wall.amplitude = a)));
    out += &sweep("-- wall-force amplitude c0 (paper: 0.2) --", 10, "c0", &amplitudes);
    let decays = [0.5, 1.0, 2.0, 4.0, 6.0].map(|d| (d.to_string(), with(&|c| c.wall.decay = d)));
    out += &sweep("-- decay length c1 in lattice units of 5 nm (paper: 2) --", 10, "c1", &decays);
    let couplings = [0.0, 0.05, 0.15, 0.3]
        .map(|g| (g.to_string(), with(&|c| c.coupling = CouplingMatrix::cross(g))));
    out += &sweep("-- water-air repulsion g (paper model: cross coupling) --", 10, "g", &couplings);
    let adhesion = |g_w: f64| {
        with(&|c| {
            c.wall = WallForce::off();
            if let Some((water, _)) = c.components.first_mut() {
                water.wall_adhesion = g_w;
            }
        })
    };
    let models = [
        ("none".to_string(), with(&|c| c.wall = WallForce::off())),
        ("exp force (paper)".to_string(), base.clone()),
        ("adhesion g_w=0.3".to_string(), adhesion(0.3)),
        ("adhesion g_w=0.6".to_string(), adhesion(0.6)),
    ];
    let title = "-- hydrophobicity model: paper's exponential force vs S-C adhesion --";
    out += &sweep(title, 22, "model", &models);
    out += "\nreference: the paper reports ~10% slip; Tretheway & Meinhart's\n\
            experiment measured ~10% of free-stream velocity.\n";
    out
}

/// One A2 point: (apparent slip, near-wall water depletion relative to
/// the channel centre).
fn ablation_point(cfg: &ChannelConfig, phases: u64) -> (f64, f64) {
    let snap = run(cfg.clone(), phases);
    let slip = apparent_slip_fraction(&mean_velocity_y_profile(&snap));
    let water = mean_density_y_profile(&snap, 0);
    (slip, 1.0 - at(&water.value, 0) / at(&water.value, cfg.dims.ny / 2))
}

/// Entry `k` of a profile; NaN, printed as such, past its end.
fn at(profile: &[f64], k: usize) -> f64 {
    profile.get(k).copied().unwrap_or(f64::NAN)
}
