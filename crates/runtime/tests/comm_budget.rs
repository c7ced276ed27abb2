//! Communication-budget tests: the worker protocol must send exactly the
//! traffic the paper's algorithm implies — two halo exchanges per phase,
//! and (for filtered remapping) O(1) neighbor-local load messages per
//! remap round, never a collective.

use std::sync::Arc;

use microslip_balance::policy::{Filtered, NoRemap};
use microslip_balance::predict::HarmonicMean;
use microslip_comm::{mesh, InstrumentedTransport, Tag, Transport};
use microslip_lbm::geometry::even_slabs;
use microslip_lbm::{ChannelConfig, Dims};
use microslip_runtime::worker::{worker_main, WorkerConfig, WorkerReport};
use microslip_runtime::ThrottlePlan;

fn run_instrumented(
    workers: usize,
    phases: u64,
    remap_interval: u64,
    filtered: bool,
    throttle1: f64,
) -> Vec<(WorkerReport, InstrumentedTransport<microslip_comm::ChannelTransport>)> {
    let mut channel = ChannelConfig::paper_scaled(Dims::new(16, 6, 4));
    channel.body = [1e-4, 0.0, 0.0];
    #[expect(
        clippy::disallowed_types,
        clippy::disallowed_methods,
        reason = "the epoch only stamps trace spans, and the null sink drops them"
    )]
    let cfg = Arc::new(WorkerConfig {
        channel,
        phases,
        start_phase: 0,
        remap_interval,
        predictor_window: 2,
        checkpoint_every: 0,
        checkpoint_dir: None,
        load: microslip_runtime::LoadModel::Measured,
        trace: microslip_obs::TraceSink::null(),
        epoch: std::time::Instant::now(),
    });
    let slabs = even_slabs(16, workers);
    let handles: Vec<_> = mesh(workers)
        .into_iter()
        .zip(slabs)
        .map(|(t, slab)| {
            let cfg = Arc::clone(&cfg);
            let rank = t.rank();
            std::thread::spawn(move || {
                let mut t = InstrumentedTransport::new(t);
                let predictor = HarmonicMean { window: 2 };
                let throttle = if rank == 1 {
                    ThrottlePlan::constant(throttle1)
                } else {
                    ThrottlePlan::none()
                };
                let report = if filtered {
                    worker_main(&cfg, &Filtered::default(), &predictor, &mut t, slab, throttle)
                } else {
                    worker_main(&cfg, &NoRemap, &predictor, &mut t, slab, throttle)
                };
                (report.expect("worker failed"), t)
            })
        })
        .collect();
    handles.into_iter().map(|h| h.join().unwrap()).collect()
}

#[test]
fn halo_traffic_is_exactly_two_exchanges_per_phase() {
    let phases = 6;
    let out = run_instrumented(4, phases, 0, false, 1.0);
    for (report, t) in &out {
        // f halo: 2 sends per phase; ψ halo: 2 sends per phase plus the
        // one priming exchange.
        assert_eq!(t.sent(Tag::F_HALO).messages, 2 * phases, "rank {}", report.rank);
        assert_eq!(t.sent(Tag::PSI_HALO).messages, 2 * (phases + 1));
        assert_eq!(t.received(Tag::F_HALO).messages, 2 * phases);
        // Message sizes: 5 dirs × 2 comps × 24 plane cells.
        assert_eq!(t.sent(Tag::F_HALO).values, 2 * phases * 5 * 2 * 24);
        // No balancing traffic without remapping.
        assert_eq!(t.sent(Tag::LOAD).messages, 0);
        assert_eq!(t.sent(Tag::MIGRATE_DATA).messages, 0);
    }
}

#[test]
fn filtered_load_exchange_is_neighbor_local() {
    let phases = 12;
    let remap_interval = 3;
    let rounds = phases / remap_interval;
    let out = run_instrumented(4, phases, remap_interval, true, 6.0);
    for (report, t) in &out {
        let rank = report.rank;
        // Two-hop protocol: hop 1 sends to each line neighbor, hop 2
        // forwards once per side for middle ranks. Ends (0, 3) have one
        // neighbor and never forward.
        let per_round: u64 = match rank {
            0 | 3 => 1,
            _ => 2 + 2,
        };
        assert_eq!(
            t.sent(Tag::LOAD).messages,
            per_round * rounds,
            "rank {rank}: load messages must be O(1) per round"
        );
        // Load messages are tiny (2 values), independent of domain size —
        // the cheapness the paper's local exchange is designed for.
        assert_eq!(t.sent(Tag::LOAD).values, per_round * rounds * 2);
        // Never any collective traffic.
        assert_eq!(t.sent(Tag::COLLECTIVE).messages, 0);
    }
    // The throttled worker actually shed planes (migration happened).
    let migrated: u64 =
        out.iter().map(|(_, t)| t.sent(Tag::MIGRATE_DATA).messages).sum();
    assert!(migrated > 0, "expected at least one migration");
    let counts: Vec<usize> = out.iter().map(|(r, _)| r.final_slab.nx_local).collect();
    assert_eq!(counts.iter().sum::<usize>(), 16);
    assert!(counts[1] < 4, "throttled rank should shed planes: {counts:?}");
}

#[test]
fn migration_payload_matches_plane_size() {
    let out = run_instrumented(2, 8, 2, true, 8.0);
    // One migrated plane = 23 channels × 2 components × 24 cells values,
    // and every message ends with one ψ plane per component, the
    // receiver's new ghost.
    let (plane_values, psi_values) = (23 * 2 * 24, 2 * 24);
    for (_, t) in &out {
        let c = t.sent(Tag::MIGRATE_DATA);
        assert_eq!(
            (c.values - c.messages * psi_values) % plane_values,
            0,
            "migration payloads must be whole planes plus a ψ ghost ({} values in {} messages)",
            c.values,
            c.messages
        );
    }
}
