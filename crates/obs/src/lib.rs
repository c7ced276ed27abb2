#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::indexing_slicing,
    clippy::cast_possible_truncation,
    clippy::cast_sign_loss,
    clippy::cast_possible_wrap
)]
#![forbid(unsafe_code)]
//! # microslip-obs — structured event-tracing observability
//!
//! A zero-dependency, low-overhead event layer shared by every crate in
//! the workspace. Producers (the threaded runtime, the virtual-time
//! cluster engine, the balance policies, the transports) emit one common
//! vocabulary of typed [`Event`]s into a [`TraceSink`]; consumers export
//! the stream as JSONL or Chrome `trace_event` JSON (Perfetto-loadable)
//! and fold it into machine-readable [`TraceSummary`] benchmarks.
//!
//! Design constraints, in order:
//!
//! 1. **Off by default, near-free when off.** Configuration structs carry a
//!    [`TraceSink`] handle whose default is disabled; each event site costs
//!    one `Option` check. [`TraceSink::record_with`] defers payload
//!    assembly entirely.
//! 2. **One schema for both substrates.** A wall-clock threaded run and a
//!    virtual-time simulated run emit streams with identical field sets
//!    ([`validate_jsonl`] proves it), so the two can be diffed.
//! 3. **Deterministic output.** The cluster engine is single-threaded, so
//!    its JSONL stream is byte-identical across seeded runs; the Chrome
//!    exporter sorts spans so even concurrent recordings export stably.
//!
//! ```
//! use microslip_obs::{Event, Span, SpanKind, TraceSink};
//!
//! let (sink, recorder) = TraceSink::recorder(1024);
//! sink.record(Event::Span(Span {
//!     node: 0,
//!     kind: SpanKind::Compute,
//!     phase: 1,
//!     start: 0.0,
//!     end: 0.25,
//! }));
//! let events = recorder.take();
//! let jsonl = microslip_obs::to_jsonl(&events);
//! microslip_obs::validate_jsonl(&jsonl).unwrap();
//! let chrome = microslip_obs::to_chrome_trace(&events);
//! microslip_obs::validate_chrome_trace(&chrome).unwrap();
//! ```

pub mod event;
pub mod export;
pub mod json;
pub mod sink;
pub mod summary;

pub use event::{Event, JobStage, RecoveryStage, RemapDecision, Span, SpanKind};
pub use export::{
    event_from_json, event_to_json, from_jsonl, merge_rank_streams, remap_fingerprints,
    to_chrome_trace, to_jsonl, validate_chrome_trace, validate_jsonl, ChromeStats, JsonlStats,
};
pub use sink::{Recorder, TraceSink, DEFAULT_CAPACITY};
pub use summary::{NodeSummary, TraceSummary};
