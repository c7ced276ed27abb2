//! Trace determinism and schema tests for the virtual-time engine.
//!
//! The engine is single-threaded and seeded, so two identical runs must
//! produce *byte-identical* JSONL event streams — the property that makes
//! cluster traces diffable artifacts.

use microslip_cluster::{
    run_scheme, run_scheme_traced, ClusterConfig, FixedSlowNodes, Scheme, TransientSpikes,
};
use microslip_obs::{to_jsonl, validate_jsonl, TraceSink, DEFAULT_CAPACITY};

fn traced_jsonl(scheme: Scheme, seed: u64) -> (String, microslip_cluster::RunResult) {
    let cfg = ClusterConfig::paper(20, 60);
    let spikes = TransientSpikes::new(20, 2.0, seed, 100_000);
    let (sink, rec) = TraceSink::recorder(DEFAULT_CAPACITY);
    let result = run_scheme_traced(&cfg, scheme, &spikes, &sink);
    (to_jsonl(&rec.events()), result)
}

#[test]
fn cluster_trace_is_byte_identical_across_seeded_runs() {
    for scheme in [Scheme::Filtered, Scheme::Global] {
        let (a, ra) = traced_jsonl(scheme, 42);
        let (b, rb) = traced_jsonl(scheme, 42);
        assert_eq!(a, b, "{}: identical runs must emit identical bytes", scheme.name());
        assert_eq!(ra.total_time, rb.total_time);
        assert!(!a.is_empty());
        // A different seed produces a different stream (the test above is
        // not vacuous).
        let (c, _) = traced_jsonl(scheme, 43);
        assert_ne!(a, c, "{}: different disturbance must alter the trace", scheme.name());
    }
}

#[test]
fn cluster_trace_validates_and_covers_all_event_types() {
    let cfg = ClusterConfig::paper(20, 120);
    let (sink, rec) = TraceSink::recorder(DEFAULT_CAPACITY);
    run_scheme_traced(&cfg, Scheme::Filtered, &FixedSlowNodes::paper(20, 2), &sink);
    let jsonl = to_jsonl(&rec.events());
    let stats = validate_jsonl(&jsonl).expect("cluster JSONL must validate");
    for ty in ["meta", "span", "remap", "migration", "traffic"] {
        assert!(
            stats.counts.get(ty).copied().unwrap_or(0) > 0,
            "expected at least one {ty} event, got {:?}",
            stats.counts
        );
    }
    assert_eq!(stats.counts["meta"], 1);
    assert_eq!(rec.dropped(), 0, "default capacity must hold a short run");
}

#[test]
fn tracing_does_not_perturb_the_simulation() {
    // Physics invariant: the event sink is an observer, not a participant.
    let cfg = ClusterConfig::paper(20, 120);
    let slow = FixedSlowNodes::paper(20, 2);
    let plain = run_scheme(&cfg, Scheme::Filtered, &slow);
    let (sink, _rec) = TraceSink::recorder(DEFAULT_CAPACITY);
    let traced = run_scheme_traced(&cfg, Scheme::Filtered, &slow, &sink);
    assert_eq!(plain.total_time, traced.total_time);
    assert_eq!(plain.final_counts, traced.final_counts);
    assert_eq!(plain.migrated_planes, traced.migrated_planes);
    assert_eq!(plain.phase_durations, traced.phase_durations);
}
