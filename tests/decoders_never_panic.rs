//! The decode entry points never panic and never size an allocation by a
//! count they have not checked.
//!
//! Untrusted bytes enter the workspace through thirteen decoders: wire
//! frames and their byte payloads, the port files an `mp` gang meets
//! through, scenario blobs, sweep requests, channel configs and their
//! wall-BC field, result artifacts sealed and unsealed and checked as a
//! stream with the runs skipped, and JSONL traces line by line, whole, and
//! as JSON. Clippy's boundary
//! header proves that nothing they reach unwraps, indexes or narrows; what
//! it cannot see is arithmetic overflow and allocation size, which these
//! properties exercise. From a valid encoding of each, every truncation,
//! every single-bit flip and seeded random byte strings must decode to
//! `Ok` or a typed error. Every eight-byte window overwritten with
//! `u64::MAX` — a hostile count wherever the format has a length prefix —
//! must do the same without an allocation larger than the honest
//! decoding's.

use std::panic::{catch_unwind, AssertUnwindSafe};

use microslip::lbm::boundary::codec::{decode_wall_bc, encode_wall_bc};
use microslip::lbm::config_codec::{decode_config, encode_config};
use microslip::lbm::{
    ChannelConfig, CollisionOperator, Dims, FlowDiagnostics, InitProfile, PsiFn,
    ResultArtifact, Snapshot, SolidRegion, WallBc,
};
use microslip::obs::json::Value;
use microslip::obs::{
    event_from_json, from_jsonl, to_jsonl, Event, JobStage, RecoveryStage, Span, SpanKind,
};
use microslip::serve::SweepRequest;
use microslip::comm::CommError;
use microslip::Scenario;
use microslip_codec::Reader;
use microslip_net::parse_port;
use microslip_net::wire::{encode, read_frame, Frame, FrameKind};
use proptest::collection::vec;
use proptest::prelude::*;

mod common {
    pub mod counting;
}
use common::counting;

/// One decode entry point and a valid encoding to mutate.
struct Entry {
    name: &'static str,
    valid: Vec<u8>,
    /// Decodes `bytes`; true for `Ok`. A text format reads them as UTF-8,
    /// invalid sequences replaced.
    decode: fn(&[u8]) -> bool,
}

impl Entry {
    /// Decodes `bytes`, failing with the entry, the case and the input if
    /// the decoder panics; returns whether it decoded and the largest
    /// allocation it made.
    fn run(&self, case: &str, bytes: &[u8]) -> (bool, usize) {
        counting::reset();
        let decoded = catch_unwind(AssertUnwindSafe(|| (self.decode)(bytes)));
        let largest = counting::largest();
        match decoded {
            Ok(ok) => (ok, largest),
            Err(_) => panic!("{} panicked on {case}: {bytes:02x?}", self.name),
        }
    }
}

fn text(bytes: &[u8]) -> String {
    String::from_utf8_lossy(bytes).into_owned()
}

/// A config with every enum variant and every sequence non-empty.
fn config() -> ChannelConfig {
    let mut cfg = ChannelConfig::paper_scaled(Dims::new(12, 10, 6));
    cfg.components[0].0.collision = CollisionOperator::trt_magic();
    cfg.components[1].0.collision = CollisionOperator::mrt_standard();
    cfg.components[1].0.psi_fn = PsiFn::ShanChen { n0: 0.7 };
    cfg.init = InitProfile::CosineX { amplitude: 0.125 };
    cfg.obstacles = vec![
        SolidRegion::Block { min: [2, 1, 0], max: [4, 3, 6] },
        SolidRegion::Sphere { center: [8.5, 5.0, 3.0], radius: 1.75 },
    ];
    cfg.wall_bc = WallBc::PatternedSlip { r_a: 1.0, r_b: 0.125, period: 2, phase: 1 };
    cfg
}

fn scenario() -> Scenario {
    Scenario::new(config()).workers(2).phases(6).throttle(1, 2.0).spike(0, 2, 4, 3.0)
}

fn artifact() -> ResultArtifact {
    let cells = 2 * 2;
    let snapshot = Snapshot {
        x0: 0,
        nx: 2,
        ny: 2,
        nz: 1,
        rho: vec![vec![1.0, 0.5, 0.25, 2.0], vec![1e-4; cells]],
        velocity: (0..3 * cells).map(|k| k as f64 * 1e-3).collect(),
    };
    let diagnostics = FlowDiagnostics {
        total_mass: 3.75,
        mean_density: 0.9,
        total_momentum: [1e-3, 0.0, -1e-5],
        kinetic_energy: 1e-6,
        max_speed: 0.01,
        max_mach: 0.017,
        flow_rate: 2e-3,
    };
    let summary_json = r#"{"phases":6,"nodes":[{"node":0,"compute_s":0.5}]}"#.to_string();
    ResultArtifact { key: "0123456789abcdef".into(), phases: 6, snapshot, diagnostics, summary_json }
}

fn events() -> Vec<Event> {
    vec![
        Event::Meta { mode: "runtime".into(), nodes: 2, phases: 6, policy: "filtered".into() },
        Event::Span(Span { node: 1, kind: SpanKind::Compute, phase: 3, start: 0.25, end: 0.5 }),
        Event::Migration { time: 0.75, phase: 3, from: 0, to: 1, planes: 2, bytes: 4096 },
        Event::Recovery {
            time: 1.0,
            node: 1,
            epoch: 2,
            stage: RecoveryStage::Rollback,
            phase: 3,
            planes: 0,
            detail: "rank 1 exited".into(),
        },
        Event::Job {
            time: 1.5,
            sweep: 1,
            key: "0123456789abcdef".into(),
            stage: JobStage::CacheHit,
            phase: 0,
            detail: String::new(),
        },
    ]
}

/// The thirteen entries, each with a valid encoding.
fn entries() -> Vec<Entry> {
    let frame = Frame::from_bytes(FrameKind::SweepSubmit, 0, b"a scenario blob, 29 bytes long");
    let mut wall_bc = Vec::new();
    encode_wall_bc(
        &mut wall_bc,
        &WallBc::RoughWall {
            elements: vec![
                SolidRegion::Block { min: [0, 0, 0], max: [2, 1, 4] },
                SolidRegion::CylinderZ { center: [3.0, 0.5], radius: 0.9 },
            ],
        },
    );
    // A byte-payload frame as its tag (the declared length) and its f64 lane.
    let mut payload = frame.tag.to_le_bytes().to_vec();
    payload.extend(frame.payload.iter().flat_map(|v| v.to_le_bytes()));
    let request = SweepRequest {
        base: scenario(),
        checkpoint_every: Some(4),
        axes: vec![("wall-amplitude".into(), vec![0.1, 0.2]), ("body-x".into(), vec![1e-4])],
    };
    let jsonl = to_jsonl(&events());
    // The recovery event: the line with the most field kinds.
    let recovery_line = jsonl.lines().nth(3).unwrap_or_default().as_bytes().to_vec();
    vec![
        Entry {
            name: "read_frame",
            valid: encode(&frame),
            decode: |b| read_frame(&mut &b[..]).is_ok(),
        },
        Entry {
            name: "Frame::bytes_payload",
            valid: payload,
            decode: |b| {
                let (tag, lane) = b.split_at(8.min(b.len()));
                let tag = u64::from_le_bytes(tag.try_into().unwrap_or([0; 8]));
                let payload =
                    lane.chunks(8).map(|c| f64::from_le_bytes(c.try_into().unwrap_or([0; 8]))).collect();
                Frame { kind: FrameKind::SweepSubmit, from: 0, tag, payload }.bytes_payload().is_ok()
            },
        },
        Entry {
            name: "parse_port",
            valid: b"45123\n".to_vec(),
            // A port file that is not a port is a handshake failure.
            decode: |b| match parse_port(1, b) {
                Ok(_) => true,
                Err(CommError::Handshake { .. }) => false,
                Err(e) => panic!("an untyped port-file error: {e}"),
            },
        },
        Entry {
            name: "Scenario::decode",
            valid: scenario().canonical_bytes(),
            decode: |b| Scenario::decode(b).is_ok(),
        },
        Entry {
            name: "SweepRequest::decode",
            valid: request.encode(),
            decode: |b| SweepRequest::decode(b).is_ok(),
        },
        Entry {
            name: "decode_config",
            valid: encode_config(&config()),
            decode: |b| decode_config(b).is_ok(),
        },
        Entry {
            name: "decode_wall_bc",
            valid: wall_bc,
            decode: |b| {
                let mut r = Reader::new("wall BC", b, 0);
                decode_wall_bc(&mut r).is_ok() && r.finish().is_ok()
            },
        },
        Entry {
            name: "ResultArtifact::decode",
            valid: artifact().encode(),
            decode: |b| ResultArtifact::decode(b).is_ok(),
        },
        Entry {
            name: "ResultArtifact::check",
            valid: artifact().encode(),
            decode: |b| ResultArtifact::check(b, b.len() as u64).is_ok(),
        },
        Entry {
            name: "ResultArtifact::unseal",
            valid: artifact().seal(),
            decode: |b| ResultArtifact::unseal(b).is_ok(),
        },
        Entry {
            name: "event_from_json",
            valid: recovery_line,
            decode: |b| event_from_json(&text(b)).is_ok(),
        },
        Entry {
            name: "from_jsonl",
            valid: jsonl.into_bytes(),
            decode: |b| from_jsonl(&text(b)).is_ok(),
        },
        Entry {
            name: "json::parse",
            valid: r#"{"a":[1,-2.5e-3,true,null,{"b":"cé\n"}],"d":{}}"#.as_bytes().to_vec(),
            decode: |b| Value::parse(&text(b)).is_ok(),
        },
    ]
}

/// The most a decode of a mutated input may allocate at once: what the
/// honest decoding does, or one 64 KiB read buffer.
fn allocation_budget(entry: &Entry) -> usize {
    let (ok, largest) = entry.run("the valid encoding", &entry.valid);
    assert!(ok, "{}: the valid encoding must decode", entry.name);
    largest.max(64 << 10)
}

#[test]
fn every_truncation_and_bit_flip_decodes_or_fails_typed() {
    for entry in entries() {
        let budget = allocation_budget(&entry);
        let valid = &entry.valid;
        for cut in 0..valid.len() {
            let (_, largest) = entry.run(&format!("the prefix of {cut} bytes"), &valid[..cut]);
            assert!(largest <= budget, "{}: prefix {cut} allocated {largest} B", entry.name);
        }
        for bit in 0..8 * valid.len() {
            let mut bytes = valid.clone();
            bytes[bit / 8] ^= 1 << (bit % 8);
            let (_, largest) = entry.run(&format!("bit {bit} flipped"), &bytes);
            let name = entry.name;
            assert!(largest <= budget, "{name}: bit {bit} allocated {largest} B (budget {budget})");
        }
    }
}

#[test]
fn a_hostile_count_fails_typed_without_allocating() {
    for entry in entries() {
        let budget = allocation_budget(&entry);
        let valid = &entry.valid;
        for at in 0..valid.len() {
            let mut bytes = valid.clone();
            let end = (at + 8).min(bytes.len());
            bytes[at..end].fill(0xff);
            let (_, largest) = entry.run(&format!("u64::MAX at byte {at}"), &bytes);
            let name = entry.name;
            assert!(largest <= budget, "{name}: u64::MAX at {at} allocated {largest} B (budget {budget})");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn random_bytes_decode_or_fail_typed(tail in vec(any::<u8>(), 0..256), keep in 0usize..32) {
        for entry in entries() {
            // Behind the valid encoding's first bytes (a magic, a header),
            // and alone.
            let head = &entry.valid[..keep.min(entry.valid.len())];
            let bytes: Vec<u8> = head.iter().chain(&tail).copied().collect();
            entry.run("a random tail", &bytes);
            entry.run("random bytes", &tail);
        }
    }
}
