//! Property-based tests of lattice-plane migration and the parallel
//! equivalence invariant: arbitrary migration schedules applied to an
//! arbitrary decomposition never change the physics.

use microslip::lbm::checkpoint::{load_solver, save_solver};
use microslip::lbm::component::CollisionOperator;
use microslip::lbm::geometry::{even_slabs, SolidRegion};
use microslip::lbm::macroscopic::Snapshot;
use microslip::lbm::{ChannelConfig, Dims, Side, Simulation, Slab, SlabSolver, WallBc};
use microslip::runtime::worker::migration_batch_planes;
use proptest::prelude::*;

mod common;
use common::{migrate, phase, prime};

/// A migration step: move `count` planes across `edge` in `dir`.
#[derive(Clone, Debug)]
struct Migration {
    edge: usize,
    count: usize,
    rightward: bool,
}

fn migrations(workers: usize) -> impl Strategy<Value = Vec<(u8, Migration)>> {
    proptest::collection::vec(
        (
            0u8..6, // phase index to apply after
            (0usize..workers - 1, 1usize..3, any::<bool>()).prop_map(
                |(edge, count, rightward)| Migration { edge, count, rightward },
            ),
        ),
        0..6,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn arbitrary_migration_schedules_preserve_physics(
        workers in 2usize..4,
        schedule in migrations(3),
        phases in 3u8..7,
    ) {
        let dims = Dims::new(12, 4, 3);
        let mut cfg = ChannelConfig::paper_scaled(dims);
        cfg.body = [1e-4, 0.0, 0.0];

        // Reference: sequential run.
        let mut sim = Simulation::new(cfg.clone());
        sim.run(phases as u64);
        let want = sim.snapshot();

        // Decomposed run with the migration schedule sprinkled in.
        let mut solvers: Vec<SlabSolver> =
            microslip::lbm::geometry::even_slabs(dims.nx, workers)
                .into_iter()
                .map(|slab| SlabSolver::new(&cfg, slab))
                .collect();
        prime(&mut solvers);
        for p in 0..phases {
            phase(&mut solvers);
            for (when, m) in &schedule {
                if *when != p || m.edge + 1 >= workers {
                    continue;
                }
                let (src, dst, take_side, give_side) = if m.rightward {
                    (m.edge, m.edge + 1, Side::Right, Side::Left)
                } else {
                    (m.edge + 1, m.edge, Side::Left, Side::Right)
                };
                // Skip if the donor cannot spare the planes.
                if solvers[src].nx_local() <= m.count {
                    continue;
                }
                let data = solvers[src].take_planes(take_side, m.count);
                solvers[dst].give_planes(give_side, m.count, &data);
            }
        }
        let got = Snapshot::stitch(solvers.iter().map(|s| s.snapshot()).collect());
        prop_assert_eq!(got, want);
    }

    #[test]
    fn take_give_roundtrip_is_identity(
        nx_a in 3usize..8,
        nx_b in 3usize..8,
        count in 1usize..3,
        phases in 0u8..3,
    ) {
        let dims = Dims::new(nx_a + nx_b, 4, 3);
        let cfg = ChannelConfig::paper_scaled(dims);
        let mut solvers = vec![
            SlabSolver::new(&cfg, Slab { x0: 0, nx_local: nx_a }),
            SlabSolver::new(&cfg, Slab { x0: nx_a, nx_local: nx_b }),
        ];
        prime(&mut solvers);
        for _ in 0..phases {
            phase(&mut solvers);
        }
        let before: Vec<Snapshot> = solvers.iter().map(|s| s.snapshot()).collect();
        prop_assume!(count < nx_a);
        let data = solvers[0].take_planes(Side::Right, count);
        solvers[1].give_planes(Side::Left, count, &data);
        let back = solvers[1].take_planes(Side::Left, count);
        solvers[0].give_planes(Side::Right, count, &back);
        let after: Vec<Snapshot> = solvers.iter().map(|s| s.snapshot()).collect();
        prop_assert_eq!(before, after);
    }

    #[test]
    fn any_decomposition_is_bitwise_equal(
        workers in 1usize..6,
        phases in 1u8..5,
    ) {
        let dims = Dims::new(13, 5, 3);
        let mut cfg = ChannelConfig::paper_scaled(dims);
        cfg.body = [5e-5, 0.0, 0.0];
        let mut sim = Simulation::new(cfg.clone());
        sim.run(phases as u64);
        let want = sim.snapshot();
        let mut solvers: Vec<SlabSolver> =
            microslip::lbm::geometry::even_slabs(dims.nx, workers)
                .into_iter()
                .map(|slab| SlabSolver::new(&cfg, slab))
                .collect();
        prime(&mut solvers);
        for _ in 0..phases {
            phase(&mut solvers);
        }
        let got = Snapshot::stitch(solvers.iter().map(|s| s.snapshot()).collect());
        prop_assert_eq!(got, want);
    }
}

/// The wall BCs × collision operators the generated sequences run under:
/// plain bounce-back, x-varying slip weights, and a solid mask (roughness
/// ridges plus a block obstacle) — each with BGK or TRT + MRT.
fn migration_config(dims: Dims, bc: usize, relaxed: bool) -> ChannelConfig {
    let mut cfg = ChannelConfig::paper_scaled(dims);
    cfg.body = [1e-4, 0.0, 0.0];
    match bc {
        0 => {}
        1 => cfg.wall_bc = WallBc::PatternedSlip { r_a: 0.9, r_b: 0.2, period: 2, phase: 1 },
        _ => {
            cfg.wall_bc = WallBc::rough_stripes(1, 3, dims);
            cfg.obstacles = vec![SolidRegion::Block { min: [5, 2, 0], max: [7, 4, 2] }];
        }
    }
    if relaxed {
        cfg.components[0].0.collision = CollisionOperator::trt_magic();
        cfg.components[1].0.collision = CollisionOperator::mrt_standard();
    }
    cfg
}

/// What every migrated decomposition must still satisfy: it stitches to the
/// sequential snapshot, every slab's mass and checkpoint are those of the
/// compact slab `load_solver` rebuilds from its bytes, and the slabs tile
/// the channel.
fn assert_remapped_run_is_sequential(cfg: &ChannelConfig, solvers: &[SlabSolver], phases: u64) {
    let mut sim = Simulation::new(cfg.clone());
    sim.run(phases);
    let got = Snapshot::stitch(solvers.iter().map(|s| s.snapshot()).collect());
    assert_eq!(got, sim.snapshot(), "migrations changed the physics");
    for s in solvers {
        let bytes = save_solver(s, phases);
        let (restored, phase) = load_solver(cfg, &bytes).expect("a saved slab loads");
        assert_eq!((phase, restored.slab()), (phases, s.slab()));
        assert_eq!(save_solver(&restored, phases), bytes, "checkpoint of a migrated slab");
        assert_eq!(restored.total_mass().to_bits(), s.total_mass().to_bits());
        assert_eq!(restored.snapshot(), s.snapshot());
    }
    let mass: f64 = solvers.iter().map(|s| s.total_mass()).sum();
    let want = sim.solver().total_mass();
    assert!(((mass - want) / want).abs() < 1e-13, "mass {mass} vs sequential {want}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random take/give sequences, both directions, any count the donor
    /// can spare (so planes routinely leave a slab's initial window, and
    /// come back), several per phase.
    #[test]
    fn generated_migration_sequences_keep_fields_mass_and_checkpoints(
        workers in 2usize..5,
        bc in 0usize..3,
        relaxed in any::<bool>(),
        phases in 2u8..6,
        ops in proptest::collection::vec((0u8..6, 0usize..64, 0usize..64, any::<bool>()), 0..10),
    ) {
        let dims = Dims::new(12, 6, 3);
        let cfg = migration_config(dims, bc, relaxed);
        let mut solvers: Vec<SlabSolver> =
            even_slabs(dims.nx, workers).into_iter().map(|slab| SlabSolver::new(&cfg, slab)).collect();
        prime(&mut solvers);
        for p in 0..phases {
            phase(&mut solvers);
            for &(when, edge, count, rightward) in &ops {
                let edge = edge % (workers - 1);
                let spare = solvers[if rightward { edge } else { edge + 1 }].nx_local() - 1;
                if when == p && spare > 0 {
                    migrate(&mut solvers, edge, 1 + count % spare, rightward);
                }
            }
        }
        assert_remapped_run_is_sequential(&cfg, &solvers, phases as u64);
    }
}

/// The directed worst case: the middle slab's window is pushed entirely out
/// of the planes it started on — to the right edge of the channel, then to
/// the left edge — and brought back, under every BC × operator.
#[test]
fn a_slab_travels_across_the_channel_and_back() {
    let dims = Dims::new(12, 6, 3);
    for (bc, relaxed) in [(0, false), (1, true), (2, false), (2, true)] {
        let cfg = migration_config(dims, bc, relaxed);
        let mut solvers: Vec<SlabSolver> =
            even_slabs(dims.nx, 3).into_iter().map(|slab| SlabSolver::new(&cfg, slab)).collect();
        prime(&mut solvers);
        // (edge, count, rightward): slab 1 starts on planes 4..8.
        let moves = [
            (1, 3, false), // 4 | 7 | 1
            (0, 6, false), // 10 | 1 | 1: slab 1 sits on plane 10
            (0, 9, true),  // 1 | 10 | 1
            (1, 9, true),  // 1 | 1 | 10: slab 1 sits on plane 1
            (1, 6, false), // 1 | 7 | 4
            (0, 3, false), // 4 | 4 | 4 again
        ];
        for (edge, count, rightward) in moves {
            phase(&mut solvers);
            migrate(&mut solvers, edge, count, rightward);
        }
        assert_eq!(solvers.iter().map(|s| s.slab()).collect::<Vec<_>>(), even_slabs(dims.nx, 3));
        assert_remapped_run_is_sequential(&cfg, &solvers, moves.len() as u64);
    }
}

/// A snapshot taken right after a migration, with no phase in between,
/// reads the ψ ghosts the migration left: the giver keeps the given plane
/// next to its new edge, the receiver installs the giver's new edge plane
/// from the message. Both directions, several planes at once, with and
/// without a solid mask; the checkpoint taken there must restore to the
/// same snapshot.
#[test]
fn a_snapshot_right_after_a_migration_is_the_sequential_one() {
    let dims = Dims::new(12, 6, 3);
    for (bc, relaxed) in [(0, false), (2, true)] {
        let cfg = migration_config(dims, bc, relaxed);
        for rightward in [true, false] {
            for count in [2, 3] {
                let mut solvers: Vec<SlabSolver> =
                    even_slabs(dims.nx, 3).into_iter().map(|slab| SlabSolver::new(&cfg, slab)).collect();
                prime(&mut solvers);
                phase(&mut solvers);
                phase(&mut solvers);
                migrate(&mut solvers, 1, count, rightward);
                assert_remapped_run_is_sequential(&cfg, &solvers, 2);
            }
        }
    }
}

/// Moves `count` planes across `edge` the way a worker does, as a stream
/// of `take_planes` batches of at most `batch` planes, each installed with
/// `give_planes` before the next is taken.
fn migrate_in_batches(
    solvers: &mut [SlabSolver],
    edge: usize,
    count: usize,
    rightward: bool,
    batch: usize,
) {
    let mut left = count;
    while left > 0 {
        let k = left.min(batch);
        migrate(solvers, edge, k, rightward);
        left -= k;
    }
}

/// A move cut into batches is bitwise the same move made in one message:
/// on the paper's cross-section (a batch is a couple of planes), moves of
/// one plane, exactly one batch, one batch and a plane, and three batches
/// and a plane, in both directions, with two and three slabs, under a
/// solid mask that varies along x. Both slabs' checkpoints — every plane's
/// state, ghosts included — match the one-message move's, which the
/// tests above hold to the sequential run.
#[test]
fn a_move_in_batches_is_bitwise_one_move() {
    // (slab sizes, edge, rightward): the edge's donor holds 8 planes.
    let cases: [(&[usize], usize, bool); 4] =
        [(&[8, 8], 0, true), (&[8, 8], 0, false), (&[2, 8, 2], 1, true), (&[2, 8, 2], 0, false)];
    for (sizes, edge, rightward) in cases {
        let dims = Dims::new(sizes.iter().sum(), 200, 20);
        let cfg = migration_config(dims, 2, true);
        let mut base: Vec<SlabSolver> = sizes
            .iter()
            .scan(0, |x0, &nx_local| {
                let slab = Slab { x0: *x0, nx_local };
                *x0 += nx_local;
                Some(SlabSolver::new(&cfg, slab))
            })
            .collect();
        prime(&mut base);
        phase(&mut base);
        let batch = migration_batch_planes(&base[0]);
        assert!((2..=3).contains(&batch), "a batch is a few planes of this cross-section: {batch}");
        for count in [1, batch, batch + 1, 3 * batch + 1] {
            let label = format!("slabs {sizes:?}, edge {edge}, rightward {rightward}, {count} planes");
            let mut whole = base.clone();
            migrate(&mut whole, edge, count, rightward);
            let mut batched = base.clone();
            migrate_in_batches(&mut batched, edge, count, rightward, batch);
            for (a, b) in whole.iter().zip(&batched).skip(edge).take(2) {
                assert_eq!(a.slab(), b.slab(), "{label}");
                assert!(save_solver(a, 1) == save_solver(b, 1), "{label}: checkpoints differ");
            }
        }
    }
}
