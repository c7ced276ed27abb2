//! Property-based tests of the [`Scenario`] canonical codec and its
//! content-address key — the contract the serve daemon's result cache
//! stands on: every variant of every codec enum round-trips field for
//! field, the encoding is canonical (a byte string the encoder did not
//! write never decodes), identical scenarios always share a key, and
//! perturbing *any* field changes it.

use microslip::cluster::Scheme;
use microslip::lbm::{
    CollisionOperator, Dims, InitProfile, PsiFn, SolidRegion, WallBc, WallForceMode,
};
use microslip::runtime::LoadModel;
use microslip::Scenario;
use proptest::prelude::*;

/// All the codec-visible degrees of freedom, as plain data the strategy
/// can generate and `prop_assert!` can print. The `*_idx` knobs pick a
/// variant (modulo the variant count) from the lists below.
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
    load_idx: usize,
    per_point: f64,
    body_x: f64,
    wall_amplitude: f64,
    wall_bc_idx: usize,
    slip_r: f64,
    psi_idx: usize,
    collision_idx: usize,
    wall_mode_idx: usize,
    init_idx: usize,
    /// How many of the three obstacle kinds the channel holds.
    obstacles: usize,
}

/// Every variant of an enum, in order: `next` maps each variant to the one
/// after it, `None` after the last. Each `next` below is a `match` with no
/// wildcard arm, so a variant added to a codec enum stops this file
/// compiling until the generator can build it.
fn all_variants<T>(first: T, next: impl Fn(&T) -> Option<T>) -> Vec<T> {
    let mut all = vec![first];
    while let Some(v) = all.last().and_then(&next) {
        all.push(v);
    }
    all
}

/// Variant `i` of `all`, wrapping.
fn pick<T: Clone>(all: &[T], i: usize) -> T {
    all[i % all.len()].clone()
}

fn schemes() -> Vec<Scheme> {
    all_variants(Scheme::NoRemap, |s| match s {
        Scheme::NoRemap => Some(Scheme::Filtered),
        Scheme::Filtered => Some(Scheme::Conservative),
        Scheme::Conservative => Some(Scheme::Global),
        Scheme::Global => None,
    })
}

fn load_models(k: &Knobs) -> Vec<LoadModel> {
    all_variants(LoadModel::Measured, |l| match l {
        LoadModel::Measured => Some(LoadModel::Synthetic { per_point: k.per_point }),
        LoadModel::Synthetic { .. } => None,
    })
}

/// The codec validates only parameter ranges, not geometry, so any
/// region fits any dims.
fn regions() -> Vec<SolidRegion> {
    all_variants(SolidRegion::Block { min: [0, 0, 0], max: [2, 1, 4] }, |r| match r {
        SolidRegion::Block { .. } => {
            Some(SolidRegion::Sphere { center: [3.0, 0.5, 2.0], radius: 0.9 })
        }
        SolidRegion::Sphere { .. } => {
            Some(SolidRegion::CylinderZ { center: [5.5, 1.0], radius: 0.75 })
        }
        SolidRegion::CylinderZ { .. } => None,
    })
}

fn wall_bcs(k: &Knobs) -> Vec<WallBc> {
    all_variants(WallBc::BounceBack, |bc| match bc {
        WallBc::BounceBack => Some(WallBc::TunableSlip { r: k.slip_r }),
        WallBc::TunableSlip { .. } => {
            Some(WallBc::PatternedSlip { r_a: 1.0, r_b: k.slip_r, period: 2, phase: 1 })
        }
        WallBc::PatternedSlip { .. } => Some(WallBc::RoughWall { elements: regions() }),
        WallBc::RoughWall { .. } => None,
    })
}

fn psi_fns() -> Vec<PsiFn> {
    all_variants(PsiFn::Linear, |p| match p {
        PsiFn::Linear => Some(PsiFn::ShanChen { n0: 0.7 }),
        PsiFn::ShanChen { .. } => None,
    })
}

fn collisions() -> Vec<CollisionOperator> {
    all_variants(CollisionOperator::Bgk, |c| match c {
        CollisionOperator::Bgk => Some(CollisionOperator::trt_magic()),
        CollisionOperator::Trt { .. } => Some(CollisionOperator::mrt_standard()),
        CollisionOperator::Mrt(_) => None,
    })
}

fn wall_modes() -> Vec<WallForceMode> {
    all_variants(WallForceMode::PerMass, |m| match m {
        WallForceMode::PerMass => Some(WallForceMode::ForceDensity),
        WallForceMode::ForceDensity => None,
    })
}

fn inits() -> Vec<InitProfile> {
    all_variants(InitProfile::Uniform, |i| match i {
        InitProfile::Uniform => Some(InitProfile::CosineX { amplitude: 0.125 }),
        InitProfile::CosineX { .. } => None,
    })
}

fn knobs() -> impl Strategy<Value = Knobs> {
    (
        (2usize..24, 2usize..12, 2usize..8),
        (1usize..6, 1u64..500, 0u64..20, 1usize..12),
        proptest::collection::vec((0usize..6, 1.0f64..8.0), 0..3),
        proptest::collection::vec((0usize..6, 0u64..50, 50u64..100, 1.0f64..4.0), 0..3),
        ((0.1f64..10.0, 1e-6f64..1e-3), (0.0f64..0.5, 0.1f64..0.9)),
        proptest::collection::vec(0usize..12, 8),
    )
        .prop_map(
            |(
                (nx, ny, nz),
                (workers, phases, remap_every, predictor_window),
                throttle,
                spikes,
                ((per_point, body_x), (wall_amplitude, slip_r)),
                picks,
            )| Knobs {
                nx,
                ny,
                nz,
                workers,
                phases,
                remap_every,
                predictor_window,
                scheme_idx: picks[0],
                throttle,
                spikes,
                load_idx: picks[1],
                per_point,
                body_x,
                wall_amplitude,
                wall_bc_idx: picks[2],
                slip_r,
                psi_idx: picks[3],
                collision_idx: picks[4],
                wall_mode_idx: picks[5],
                init_idx: picks[6],
                obstacles: picks[7] % 4,
            },
        )
}

fn scenario(k: &Knobs) -> Scenario {
    let mut s = Scenario::paper_scaled(k.nx, k.ny, k.nz)
        .workers(k.workers)
        .phases(k.phases)
        .remap_every(k.remap_every)
        .predictor_window(k.predictor_window)
        .scheme(pick(&schemes(), k.scheme_idx))
        .load_model(pick(&load_models(k), k.load_idx));
    for &(rank, factor) in &k.throttle {
        s = s.throttle(rank, factor);
    }
    for &(rank, from, to, factor) in &k.spikes {
        s = s.spike(rank, from, to, factor);
    }
    // Both components, offset by one, so one scenario holds two variants.
    for (c, (spec, _)) in s.channel.components.iter_mut().enumerate() {
        spec.psi_fn = pick(&psi_fns(), k.psi_idx + c);
        spec.collision = pick(&collisions(), k.collision_idx + c);
    }
    s.channel.body[0] = k.body_x;
    s.channel.wall.amplitude = k.wall_amplitude;
    s.channel.wall.mode = pick(&wall_modes(), k.wall_mode_idx);
    s.channel.init = pick(&inits(), k.init_idx);
    s.channel.obstacles = regions().into_iter().take(k.obstacles).collect();
    s.channel.wall_bc = pick(&wall_bcs(k), k.wall_bc_idx);
    s
}

/// Scenario `i` takes variant `i` of every enum and all three obstacle
/// kinds, for `i` up to the longest variant list — so the corpus holds
/// every variant of every codec enum.
fn corpus() -> Vec<Scenario> {
    let mut k = Knobs {
        nx: 8,
        ny: 6,
        nz: 4,
        workers: 2,
        phases: 40,
        remap_every: 5,
        predictor_window: 7,
        scheme_idx: 0,
        throttle: vec![(1, 6.0)],
        spikes: vec![(0, 10, 20, 3.0)],
        load_idx: 0,
        per_point: 1.5,
        body_x: 2.5e-5,
        wall_amplitude: 0.3,
        wall_bc_idx: 0,
        slip_r: 0.4,
        psi_idx: 0,
        collision_idx: 0,
        wall_mode_idx: 0,
        init_idx: 0,
        obstacles: 3,
    };
    let longest = [
        schemes().len(),
        load_models(&k).len(),
        wall_bcs(&k).len(),
        psi_fns().len(),
        collisions().len(),
        wall_modes().len(),
        inits().len(),
    ]
    .into_iter()
    .max()
    .unwrap_or(0);
    (0..longest)
        .map(|i| {
            k.scheme_idx = i;
            k.load_idx = i;
            k.wall_bc_idx = i;
            k.psi_idx = i;
            k.collision_idx = i;
            k.wall_mode_idx = i;
            k.init_idx = i;
            scenario(&k)
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn codec_roundtrips_byte_exactly(k in knobs()) {
        let s = scenario(&k);
        let bytes = s.canonical_bytes();
        let back = Scenario::decode(&bytes).expect("decode of own encoding");
        prop_assert_eq!(&back, &s, "decode differs field for field");
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
                base.clone().load_model(match base.load {
                    LoadModel::Measured => LoadModel::Synthetic { per_point: 1.0 },
                    LoadModel::Synthetic { per_point: p } => LoadModel::Synthetic { per_point: p + 1.0 },
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
        // Flipping a byte either fails to decode, or decodes into the
        // scenario whose canonical bytes are exactly the flipped ones — so
        // it can never alias back to the original's cache entry, and no
        // decode arm accepts bytes the encoder would not write.
        let mut corrupt = scenario(&k).canonical_bytes();
        let i = at % corrupt.len();
        corrupt[i] ^= xor;
        if let Ok(back) = Scenario::decode(&corrupt) {
            prop_assert_eq!(back.canonical_bytes(), corrupt);
        }
    }
}

/// The values tried at byte `i`: every value where `i` starts a
/// little-endian `u64` below 256 (a discriminant, count or flag), the
/// eight single-bit flips everywhere else.
fn single_byte_changes(bytes: &[u8], i: usize) -> Vec<u8> {
    if bytes.get(i + 1..i + 8).is_some_and(|high| high.iter().all(|&b| b == 0)) {
        (0..=u8::MAX).collect()
    } else {
        (0..8).map(|bit| bytes[i] ^ (1 << bit)).collect()
    }
}

#[test]
fn every_variant_decodes_canonically_under_single_byte_changes() {
    // The deterministic half of the property above, over every variant of
    // every codec enum and every byte position. A dead decode arm, or a
    // discriminant decoded into the wrong variant, decodes bytes that
    // re-encode differently.
    for s in corpus() {
        let bytes = s.canonical_bytes();
        assert_eq!(Scenario::decode(&bytes).expect("decode of own encoding"), s);
        for i in 0..bytes.len() {
            for value in single_byte_changes(&bytes, i) {
                let mut changed = bytes.clone();
                changed[i] = value;
                if let Ok(back) = Scenario::decode(&changed) {
                    assert_eq!(back.canonical_bytes(), changed, "byte {i} set to {value}");
                }
            }
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
