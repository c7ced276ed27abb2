//! Property-based tests of the LBM kernels: moment identities for
//! arbitrary states, checkpoint round-trips of arbitrary runs, and
//! profile-extrapolation properties. (Streaming conservation under
//! arbitrary obstacle masks lives with the sweep, in `streaming.rs`.)

use microslip_lbm::equilibrium::feq_all;
use microslip_lbm::lattice::D3Q19;
use microslip_lbm::observables::YProfile;
use microslip_lbm::potential::{bulk_compressibility, bulk_pressure, PsiFn};
use microslip_lbm::{ChannelConfig, Dims, Simulation};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn equilibrium_moments_for_arbitrary_state(
        n in 0.01f64..5.0,
        ux in -0.1f64..0.1,
        uy in -0.1f64..0.1,
        uz in -0.1f64..0.1,
    ) {
        let mut f = vec![0.0; 19];
        feq_all(n, [ux, uy, uz], &mut f);
        let mass: f64 = f.iter().sum();
        prop_assert!((mass - n).abs() < 1e-12 * n.max(1.0));
        for a in 0..3 {
            let mom: f64 = (0..19).map(|i| f[i] * D3Q19::E[i][a] as f64).sum();
            let want = n * [ux, uy, uz][a];
            prop_assert!((mom - want).abs() < 1e-12 * n.max(1.0), "axis {}", a);
        }
    }

    #[test]
    fn checkpoint_roundtrip_arbitrary_runs(
        nx in 4usize..10,
        ny in 3usize..8,
        phases in 0u64..12,
        body in 0.0f64..2e-4,
    ) {
        let mut cfg = ChannelConfig::paper_scaled(Dims::new(nx, ny, 3));
        cfg.body = [body, 0.0, 0.0];
        let mut sim = Simulation::new(cfg.clone());
        sim.run(phases);
        let bytes = sim.save();
        let restored = Simulation::restore(cfg, &bytes).unwrap();
        prop_assert_eq!(restored.phase(), phases);
        prop_assert_eq!(restored.snapshot(), sim.snapshot());
    }

    #[test]
    fn quadratic_extrapolation_exact_on_parabolas(
        a in -2.0f64..2.0,
        b in -2.0f64..2.0,
        c in -2.0f64..2.0,
        len in 3usize..30,
    ) {
        let distance: Vec<f64> = (0..len).map(|k| k as f64 + 0.5).collect();
        let value: Vec<f64> =
            distance.iter().map(|&d| a + b * d + c * d * d).collect();
        let p = YProfile { distance, value };
        prop_assert!(
            (p.wall_extrapolation() - a).abs() < 1e-8 * (1.0 + a.abs()),
            "got {} want {a}",
            p.wall_extrapolation()
        );
    }

    #[test]
    fn shan_chen_pressure_is_consistent_with_compressibility(
        n0 in 0.2f64..3.0,
        g in -10.0f64..2.0,
        n in 0.05f64..4.0,
    ) {
        // dp/dn from finite differences matches bulk_compressibility.
        let psi = PsiFn::ShanChen { n0 };
        let h = 1e-6;
        let fd = (bulk_pressure(psi, g, n + h) - bulk_pressure(psi, g, n - h)) / (2.0 * h);
        let an = bulk_compressibility(psi, g, n);
        prop_assert!((fd - an).abs() < 1e-5 * (1.0 + an.abs()), "fd {fd} vs {an}");
    }

    #[test]
    fn simulation_mass_conserved_for_arbitrary_configs(
        ny in 4usize..10,
        coupling in 0.0f64..0.3,
        amplitude in 0.0f64..0.3,
    ) {
        let mut cfg = ChannelConfig::paper_scaled(Dims::new(6, ny, 4));
        cfg.coupling = microslip_lbm::CouplingMatrix::cross(coupling);
        cfg.wall.amplitude = amplitude;
        let mut sim = Simulation::new(cfg);
        let m0 = sim.total_mass();
        sim.run(8);
        prop_assert!(((sim.total_mass() - m0) / m0).abs() < 1e-11);
    }
}
