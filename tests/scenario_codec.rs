//! Property-based tests of the [`Scenario`] canonical codec and its
//! content-address key — the contract the serve daemon's result cache
//! stands on: encode/decode round-trips byte-exactly, identical
//! scenarios always share a key, and perturbing *any* field changes it.

use microslip::cluster::Scheme;
use microslip::lbm::{Dims, InitProfile, SolidRegion, WallBc};
use microslip::runtime::LoadModel;
use microslip::Scenario;
use proptest::prelude::*;

/// All the codec-visible degrees of freedom, as plain data the strategy
/// can generate and `prop_assert!` can print.
#[derive(Clone, Debug)]
struct Knobs {
    nx: usize,
    ny: usize,
    nz: usize,
    workers: usize,
    phases: u64,
    remap_every: u64,
    predictor_window: usize,
    scheme_idx: usize,
    throttle: Vec<(usize, f64)>,
    spikes: Vec<(usize, u64, u64, f64)>,
    synthetic: Option<f64>,
    body_x: f64,
    wall_amplitude: f64,
    wall_bc_idx: usize,
    slip_r: f64,
}

/// The wall BC a knob set selects — every enum variant reachable (the
/// codec validates only parameter ranges, not geometry, so any dims go).
fn wall_bc(k: &Knobs) -> WallBc {
    match k.wall_bc_idx {
        0 => WallBc::BounceBack,
        1 => WallBc::TunableSlip { r: k.slip_r },
        2 => WallBc::PatternedSlip { r_a: 1.0, r_b: k.slip_r, period: 2, phase: 1 },
        _ => WallBc::rough_stripes(1, 2, Dims::new(k.nx, k.ny, k.nz)),
    }
}

fn knobs() -> impl Strategy<Value = Knobs> {
    (
        (2usize..24, 2usize..12, 2usize..8),
        (1usize..6, 1u64..500, 0u64..20, 1usize..12),
        0usize..4,
        proptest::collection::vec((0usize..6, 1.0f64..8.0), 0..3),
        proptest::collection::vec((0usize..6, 0u64..50, 50u64..100, 1.0f64..4.0), 0..3),
        (
            (any::<bool>(), 0.1f64..10.0),
            (1e-6f64..1e-3, 0.0f64..0.5),
            (0usize..4, 0.1f64..0.9),
        ),
    )
        .prop_map(
            |(
                (nx, ny, nz),
                (workers, phases, remap_every, predictor_window),
                scheme_idx,
                throttle,
                spikes,
                (
                    (measured, per_point),
                    (body_x, wall_amplitude),
                    (wall_bc_idx, slip_r),
                ),
            )| {
                let synthetic = if measured { None } else { Some(per_point) };
                Knobs {
                nx,
                ny,
                nz,
                workers,
                phases,
                remap_every,
                predictor_window,
                scheme_idx,
                throttle,
                spikes,
                synthetic,
                body_x,
                wall_amplitude,
                wall_bc_idx,
                slip_r,
            }
            },
        )
}

fn scenario(k: &Knobs) -> Scenario {
    let mut s = Scenario::paper_scaled(k.nx, k.ny, k.nz)
        .workers(k.workers)
        .phases(k.phases)
        .remap_every(k.remap_every)
        .predictor_window(k.predictor_window)
        .scheme(Scheme::ALL[k.scheme_idx]);
    for &(rank, factor) in &k.throttle {
        s = s.throttle(rank, factor);
    }
    for &(rank, from, to, factor) in &k.spikes {
        s = s.spike(rank, from, to, factor);
    }
    if let Some(per_point) = k.synthetic {
        s = s.load_model(LoadModel::Synthetic { per_point });
    }
    s.channel.body[0] = k.body_x;
    s.channel.wall.amplitude = k.wall_amplitude;
    s.channel.wall_bc = wall_bc(k);
    s
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn codec_roundtrips_byte_exactly(k in knobs()) {
        let s = scenario(&k);
        let bytes = s.canonical_bytes();
        let back = Scenario::decode(&bytes).expect("decode of own encoding");
        prop_assert_eq!(back.canonical_bytes(), bytes, "re-encode differs");
        prop_assert_eq!(back.key(), s.key());
    }

    #[test]
    fn key_is_stable_for_identical_scenarios(k in knobs()) {
        // Two independent constructions of the same knobs are the same
        // scenario, byte for byte — the property that makes cross-sweep
        // deduplication sound.
        prop_assert_eq!(scenario(&k).key(), scenario(&k).key());
        prop_assert_eq!(scenario(&k).canonical_bytes(), scenario(&k).canonical_bytes());
    }

    #[test]
    fn every_field_perturbation_changes_the_key(k in knobs()) {
        let base = scenario(&k);
        let key = base.key();
        // One mutation per codec-visible field; each must move the key.
        let mut variants: Vec<(&str, Scenario)> = vec![
            ("workers", base.clone().workers(k.workers + 1)),
            ("phases", base.clone().phases(k.phases + 1)),
            ("remap_every", base.clone().remap_every(k.remap_every + 1)),
            ("predictor_window", base.clone().predictor_window(k.predictor_window + 1)),
            ("scheme", base.clone().scheme(Scheme::ALL[(k.scheme_idx + 1) % 4])),
            ("throttle", base.clone().throttle(7, 2.5)),
            ("spikes", base.clone().spike(7, 1, 2, 1.5)),
            (
                "load",
                base.clone().load_model(match k.synthetic {
                    None => LoadModel::Synthetic { per_point: 1.0 },
                    Some(p) => LoadModel::Synthetic { per_point: p + 1.0 },
                }),
            ),
        ];
        let mut geometry = base.clone();
        geometry.channel.body[0] = k.body_x * 2.0 + 1e-9;
        variants.push(("body force", geometry));
        let mut wall = base.clone();
        wall.channel.wall.amplitude = k.wall_amplitude + 0.01;
        variants.push(("wall amplitude", wall));
        let mut bc_kind = base.clone();
        bc_kind.channel.wall_bc = match base.channel.wall_bc {
            WallBc::BounceBack => WallBc::TunableSlip { r: 0.5 },
            _ => WallBc::BounceBack,
        };
        variants.push(("wall-bc kind", bc_kind));
        let mut dims = base.clone();
        dims.channel.dims = Dims::new(k.nx + 1, k.ny, k.nz);
        variants.push(("dims", dims));
        let mut components = base.clone();
        components.channel.components[0].1 += 0.125;
        variants.push(("components", components));
        let mut coupling = base.clone();
        coupling.channel.coupling.set(0, 0, base.channel.coupling.get(0, 0) + 0.25);
        variants.push(("coupling", coupling));
        let mut init = base.clone();
        init.channel.init = match base.channel.init {
            InitProfile::Uniform => InitProfile::CosineX { amplitude: 0.1 },
            InitProfile::CosineX { .. } => InitProfile::Uniform,
        };
        variants.push(("init", init));
        let mut obstacles = base.clone();
        obstacles.channel.obstacles.push(SolidRegion::Block { min: [1, 1, 1], max: [2, 2, 2] });
        variants.push(("obstacles", obstacles));
        for (field, variant) in variants {
            prop_assert!(
                variant.key() != key,
                "perturbing {} did not change the key {}", field, key
            );
        }
        // Every field of the patterned wall moves the key on its own.
        let mut patterned = base.clone();
        patterned.channel.wall_bc =
            WallBc::PatternedSlip { r_a: 1.0, r_b: 0.25, period: 2, phase: 1 };
        let pkey = patterned.key();
        for (field, bc) in [
            ("r_a", WallBc::PatternedSlip { r_a: 0.75, r_b: 0.25, period: 2, phase: 1 }),
            ("r_b", WallBc::PatternedSlip { r_a: 1.0, r_b: 0.125, period: 2, phase: 1 }),
            ("period", WallBc::PatternedSlip { r_a: 1.0, r_b: 0.25, period: 4, phase: 1 }),
            ("phase", WallBc::PatternedSlip { r_a: 1.0, r_b: 0.25, period: 2, phase: 0 }),
        ] {
            let mut v = patterned.clone();
            v.channel.wall_bc = bc;
            prop_assert!(
                v.key() != pkey,
                "perturbing patterned {} did not change the key {}", field, pkey
            );
        }
        // The rough wall's elements list moves the key on its own.
        let mut rough = base.clone();
        rough.channel.wall_bc = WallBc::RoughWall {
            elements: vec![SolidRegion::Block { min: [0, 0, 0], max: [2, 1, 4] }],
        };
        let rkey = rough.key();
        let mut v = rough.clone();
        v.channel.wall_bc = WallBc::RoughWall {
            elements: vec![
                SolidRegion::Block { min: [0, 0, 0], max: [2, 1, 4] },
                SolidRegion::Block { min: [3, 0, 0], max: [4, 1, 4] },
            ],
        };
        prop_assert!(
            v.key() != rkey,
            "perturbing rough-wall elements did not change the key {}", rkey
        );
    }

    #[test]
    fn truncations_never_decode(k in knobs()) {
        let bytes = scenario(&k).canonical_bytes();
        for cut in (0..bytes.len()).step_by(7) {
            prop_assert!(
                Scenario::decode(&bytes[..cut]).is_err(),
                "truncation to {} bytes decoded", cut
            );
        }
    }

    #[test]
    fn single_byte_corruption_is_rejected_or_changes_the_scenario(
        k in knobs(),
        at in 0usize..usize::MAX,
        xor in 1u8..=255,
    ) {
        // Flipping a byte either fails to decode, or decodes into a
        // scenario whose canonical bytes differ from the original — it
        // can never silently alias back to the same cache entry with
        // different contents.
        let bytes = scenario(&k).canonical_bytes();
        let mut corrupt = bytes.clone();
        let i = at % corrupt.len();
        corrupt[i] ^= xor;
        if let Ok(back) = Scenario::decode(&corrupt) {
            prop_assert_ne!(back.canonical_bytes(), bytes);
        }
    }
}

#[test]
fn decode_rejects_out_of_range_slip_parameters() {
    // The builder side never validates eagerly, so out-of-range values can
    // be encoded — but the decode path (which fronts the serve daemon's
    // untrusted wire bytes) must refuse them with a typed error.
    let mut s = Scenario::paper_scaled(8, 6, 4);
    s.channel.wall_bc = WallBc::TunableSlip { r: 1.5 };
    let err = Scenario::decode(&s.canonical_bytes()).unwrap_err();
    assert!(err.contains("outside [0, 1]"), "unexpected error: {err}");
    let mut s = Scenario::paper_scaled(8, 6, 4);
    s.channel.wall_bc = WallBc::PatternedSlip { r_a: 1.0, r_b: 0.5, period: 0, phase: 0 };
    let err = Scenario::decode(&s.canonical_bytes()).unwrap_err();
    assert!(err.contains("period"), "unexpected error: {err}");
}
