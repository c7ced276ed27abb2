//! Channel simulation configuration.

use crate::boundary::WallBc;
use crate::component::{CollisionOperator, ComponentSpec, CouplingMatrix};
use crate::wall_force::WallForce;
use crate::geometry::{Dims, SolidRegion};
use crate::potential::PsiFn;

/// Shape of the initial density field (scaled by each component's
/// initial density).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum InitProfile {
    /// Uniform mixture — the paper's initial condition.
    Uniform,
    /// `n(x) = n₀ (1 + a cos(2π x / nx))` along the periodic direction —
    /// a deterministic seed for instability studies (phase separation).
    CosineX {
        /// Relative amplitude `a` (|a| < 1).
        amplitude: f64,
    },
}

impl InitProfile {
    /// Density multiplier at global plane `x` of `nx`.
    pub fn factor(&self, x: usize, nx: usize) -> f64 {
        match *self {
            InitProfile::Uniform => 1.0,
            InitProfile::CosineX { amplitude } => {
                1.0 + amplitude
                    * (2.0 * std::f64::consts::PI * x as f64 / nx as f64).cos()
            }
        }
    }
}

/// Complete specification of a two-phase microchannel run: grid, fluid
/// components (with initial number densities), interparticle coupling,
/// hydrophobic wall force and streamwise driving.
#[derive(Clone, Debug, PartialEq)]
pub struct ChannelConfig {
    pub dims: Dims,
    /// Components and their uniform initial number densities (the paper's
    /// uniform initial water–air mixture).
    pub components: Vec<(ComponentSpec, f64)>,
    pub coupling: CouplingMatrix,
    pub wall: WallForce,
    /// Body-force acceleration (the streamwise pressure-gradient
    /// substitute), applied to every component.
    pub body: [f64; 3],
    /// Initial density shape (uniform unless an instability seed is
    /// wanted).
    pub init: InitProfile,
    /// Solid obstacles inside the channel (fluid bounces back at their
    /// surfaces, exactly like at the channel walls).
    pub obstacles: Vec<SolidRegion>,
    /// Wall boundary condition at the channel walls (halfway bounce-back
    /// unless a slip model from [`crate::boundary`] is selected).
    pub wall_bc: WallBc,
}

impl ChannelConfig {
    /// The paper's physical setup at full resolution (400 × 200 × 20):
    /// water at lattice density 1 plus dissolved air at the standard-
    /// condition fraction ≈ 1.2 × 10⁻⁴, repulsive cross coupling, the
    /// paper's wall force and a small streamwise driving force.
    pub fn paper() -> Self {
        ChannelConfig::paper_scaled(Dims::paper())
    }

    /// The paper's setup on an arbitrary grid (for laptop-scale runs the
    /// examples use a reduced grid; the physics parameters are unchanged).
    pub fn paper_scaled(dims: Dims) -> Self {
        ChannelConfig {
            dims,
            components: vec![(ComponentSpec::water(), 1.0), (ComponentSpec::air(), 1.2e-4)],
            coupling: CouplingMatrix::cross(0.15),
            wall: WallForce::paper(),
            body: [1.0e-5, 0.0, 0.0],
            init: InitProfile::Uniform,
            obstacles: Vec::new(),
            wall_bc: WallBc::BounceBack,
        }
    }

    /// Single-component channel without wall forces — the validation
    /// configuration whose steady state is analytic (Poiseuille duct flow).
    pub fn single_component(dims: Dims, tau: f64, body_x: f64) -> Self {
        let spec = ComponentSpec {
            name: "fluid".into(),
            mass: 1.0,
            tau,
            feels_wall_force: false,
            psi_fn: PsiFn::Linear,
            collision: CollisionOperator::Bgk,
            wall_adhesion: 0.0,
        };
        ChannelConfig {
            dims,
            components: vec![(spec, 1.0)],
            coupling: CouplingMatrix::none(1),
            wall: WallForce::off(),
            body: [body_x, 0.0, 0.0],
            init: InitProfile::Uniform,
            obstacles: Vec::new(),
            wall_bc: WallBc::BounceBack,
        }
    }

    /// A single-component liquid–vapor system: the original Shan–Chen
    /// 1993 non-ideal gas, with ψ(n) = n₀(1 − e^{−n/n₀}) and an attractive
    /// self coupling `g` (must be more negative than −4/n₀ for phase
    /// separation). The paper's model family supports this by "selecting
    /// different functions G and ψ" (§2.1).
    pub fn liquid_vapor(dims: Dims, g: f64, n0: f64, init_n: f64) -> Self {
        let spec = ComponentSpec {
            name: "fluid".into(),
            mass: 1.0,
            tau: 1.0,
            feels_wall_force: false,
            psi_fn: PsiFn::ShanChen { n0 },
            collision: CollisionOperator::Bgk,
            wall_adhesion: 0.0,
        };
        let mut coupling = CouplingMatrix::none(1);
        coupling.set(0, 0, g);
        ChannelConfig {
            dims,
            components: vec![(spec, init_n)],
            coupling,
            wall: WallForce::off(),
            body: [0.0; 3],
            init: InitProfile::Uniform,
            obstacles: Vec::new(),
            wall_bc: WallBc::BounceBack,
        }
    }

    /// Number of fluid components.
    pub fn ncomp(&self) -> usize {
        self.components.len()
    }

    /// All solid regions the solver must mask: the explicit obstacles plus
    /// any roughness geometry carried by the wall BC. The solver builds its
    /// solid mask from this, so `RoughWall` inherits every obstacle code
    /// path (masking, mass clearing, migration) unchanged.
    pub fn effective_obstacles(&self) -> Vec<SolidRegion> {
        let mut all = self.obstacles.clone();
        all.extend_from_slice(self.wall_bc.rough_elements());
        all
    }

    /// Validates parameter sanity; returns the first problem found.
    pub fn validate(&self) -> Result<(), String> {
        if self.components.is_empty() {
            return Err("need at least one component".into());
        }
        if self.coupling.components() != self.components.len() {
            return Err("coupling matrix size does not match component count".into());
        }
        if !self.coupling.is_symmetric() {
            return Err("coupling matrix must be symmetric (momentum conservation)".into());
        }
        for (spec, n0) in &self.components {
            if spec.tau <= 0.5 {
                return Err(format!("component {}: tau must exceed 1/2", spec.name));
            }
            if *n0 < 0.0 {
                return Err(format!("component {}: negative initial density", spec.name));
            }
            if spec.mass <= 0.0 {
                return Err(format!("component {}: mass must be positive", spec.name));
            }
            if let CollisionOperator::Trt { magic } = spec.collision {
                if !(magic.is_finite() && magic > 0.0) {
                    return Err(format!("component {}: TRT magic parameter must be positive and finite, got {magic}", spec.name));
                }
            }
        }
        if self.wall.decay <= 0.0 {
            return Err("wall force decay length must be positive".into());
        }
        self.wall_bc.validate_for(self.dims)?;
        // Obstacles — including wall-BC roughness elements — must leave at
        // least one fluid cell in every y-z plane (a fully blocked plane
        // would wall off the channel); checked cheaply by sampling each
        // plane.
        let solids = self.effective_obstacles();
        for x in 0..self.dims.nx {
            let mut any_fluid = false;
            'plane: for y in 0..self.dims.ny {
                for z in 0..self.dims.nz {
                    if !solids.iter().any(|o| o.contains(x, y, z)) {
                        any_fluid = true;
                        break 'plane;
                    }
                }
            }
            if !any_fluid {
                return Err(format!("obstacles completely block plane x = {x}"));
            }
        }
        if let InitProfile::CosineX { amplitude } = self.init {
            if amplitude.abs() >= 1.0 {
                return Err("init amplitude must keep densities positive (|a| < 1)".into());
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_config_is_valid() {
        ChannelConfig::paper().validate().unwrap();
        assert_eq!(ChannelConfig::paper().ncomp(), 2);
    }

    #[test]
    fn single_component_is_valid() {
        ChannelConfig::single_component(Dims::new(8, 8, 8), 1.0, 1e-5).validate().unwrap();
    }

    #[test]
    fn bad_tau_rejected() {
        let cfg = ChannelConfig::single_component(Dims::new(4, 4, 4), 0.5, 0.0);
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn trt_magic_must_be_positive_and_finite() {
        for magic in [f64::NAN, 0.0, -1.0, f64::INFINITY, -0.0] {
            let mut cfg = ChannelConfig::paper_scaled(Dims::new(8, 8, 4));
            cfg.components[0].0.collision = CollisionOperator::Trt { magic };
            let err = cfg.validate().expect_err("a bad magic must be refused");
            assert!(err.contains("TRT magic"), "{magic}: {err}");
        }
        let mut cfg = ChannelConfig::paper_scaled(Dims::new(8, 8, 4));
        cfg.components[0].0.collision = CollisionOperator::trt_magic();
        cfg.validate().unwrap();
    }

    #[test]
    fn asymmetric_coupling_rejected() {
        let mut cfg = ChannelConfig::paper_scaled(Dims::new(8, 8, 4));
        cfg.coupling.set(0, 1, 0.3);
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn init_profile_factor() {
        let u = InitProfile::Uniform;
        assert_eq!(u.factor(5, 32), 1.0);
        let c = InitProfile::CosineX { amplitude: 0.1 };
        assert!((c.factor(0, 32) - 1.1).abs() < 1e-12);
        assert!((c.factor(16, 32) - 0.9).abs() < 1e-12);
        // Mean over a period is 1 (mass unchanged by seeding).
        let mean: f64 = (0..32).map(|x| c.factor(x, 32)).sum::<f64>() / 32.0;
        assert!((mean - 1.0).abs() < 1e-12);
    }

    #[test]
    fn blocked_plane_rejected() {
        let mut cfg = ChannelConfig::single_component(Dims::new(8, 4, 4), 1.0, 0.0);
        cfg.obstacles = vec![SolidRegion::Block { min: [3, 0, 0], max: [4, 4, 4] }];
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn partial_obstacle_accepted() {
        let mut cfg = ChannelConfig::single_component(Dims::new(8, 4, 4), 1.0, 0.0);
        cfg.obstacles = vec![SolidRegion::Block { min: [3, 0, 0], max: [4, 3, 4] }];
        cfg.validate().unwrap();
    }

    #[test]
    fn overlarge_amplitude_rejected() {
        let mut cfg = ChannelConfig::liquid_vapor(Dims::new(8, 4, 4), -6.0, 1.0, 0.7);
        cfg.init = InitProfile::CosineX { amplitude: 1.5 };
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn liquid_vapor_config_is_valid() {
        let cfg = ChannelConfig::liquid_vapor(Dims::new(32, 4, 4), -6.0, 1.0, 0.7);
        cfg.validate().unwrap();
        assert_eq!(cfg.ncomp(), 1);
        assert_eq!(cfg.coupling.get(0, 0), -6.0);
    }

    #[test]
    fn mismatched_coupling_size_rejected() {
        let mut cfg = ChannelConfig::paper();
        cfg.coupling = CouplingMatrix::none(3);
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn wall_bc_parameters_validated() {
        let mut cfg = ChannelConfig::single_component(Dims::new(8, 6, 4), 1.0, 1e-5);
        cfg.wall_bc = WallBc::TunableSlip { r: 0.5 };
        cfg.validate().unwrap();
        cfg.wall_bc = WallBc::TunableSlip { r: 1.5 };
        assert!(cfg.validate().is_err());
        // Pattern must tile the periodic x-extent (8 % (2·3) ≠ 0).
        cfg.wall_bc = WallBc::PatternedSlip { r_a: 1.0, r_b: 0.2, period: 3, phase: 0 };
        assert!(cfg.validate().is_err());
        cfg.wall_bc = WallBc::PatternedSlip { r_a: 1.0, r_b: 0.2, period: 2, phase: 0 };
        cfg.validate().unwrap();
    }

    #[test]
    fn rough_wall_feeds_effective_obstacles_and_blocked_plane_check() {
        let mut cfg = ChannelConfig::single_component(Dims::new(8, 6, 4), 1.0, 1e-5);
        cfg.wall_bc = WallBc::rough_stripes(1, 2, cfg.dims);
        assert!(cfg.obstacles.is_empty(), "roughness is not an explicit obstacle");
        assert!(!cfg.effective_obstacles().is_empty());
        cfg.validate().unwrap();
        // Roughness tall enough to close the channel is caught like any
        // blocking obstacle.
        cfg.wall_bc = WallBc::rough_stripes(3, 2, cfg.dims);
        assert!(cfg.validate().is_err());
    }
}
