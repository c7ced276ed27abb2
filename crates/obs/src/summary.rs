//! Derived summaries over an event stream: per-node utilization, the
//! load-imbalance factor, and migration churn — emitted as the
//! machine-readable `*.summary.json` written beside every trace.

use std::collections::BTreeMap;

use crate::event::{Event, SpanKind};
use crate::json;

/// Per-node activity totals derived from spans.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct NodeSummary {
    pub node: usize,
    /// Seconds in compute spans (kernel time only).
    pub compute: f64,
    /// Seconds in pad spans (injected throttle slowdown).
    pub pad: f64,
    /// Seconds in halo-exchange spans.
    pub halo: f64,
    /// Seconds in remap spans.
    pub remap: f64,
    /// Last span end on this node's timeline (its makespan).
    pub makespan: f64,
    /// Fraction of the makespan spent in *any* recorded span — the rest is
    /// untracked wait/idle time.
    pub utilization: f64,
}

impl NodeSummary {
    /// Total seconds in recorded spans.
    pub fn busy(&self) -> f64 {
        self.compute + self.pad + self.halo + self.remap
    }
}

/// Whole-run summary derived from an event stream.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TraceSummary {
    /// "runtime" or "cluster" (from the meta event, if present).
    pub mode: String,
    /// Policy name (from the meta event, if present).
    pub policy: String,
    /// Declared phase count (from the meta event, if present).
    pub phases: u64,
    pub nodes: Vec<NodeSummary>,
    /// max(compute+pad) / mean(compute+pad) over nodes — 1.0 is perfectly
    /// balanced. Pad counts as load: a throttled node really is slower.
    pub imbalance: f64,
    /// Remap decisions recorded / applied (filtered = recorded − applied).
    pub remap_decisions: usize,
    pub remap_applied: usize,
    /// Total planes and bytes moved by migrations.
    pub migrated_planes: usize,
    pub migrated_bytes: u64,
    /// Migration churn: planes moved per applied remap (0 when none
    /// applied).
    pub churn: f64,
    /// Total bytes sent across all traffic counters.
    pub traffic_bytes: u64,
    /// Recovery-arc events recorded (0 for an undisturbed run).
    pub recoveries: usize,
    /// Sweep jobs submitted (0 outside `microslip serve` traces).
    pub jobs_submitted: usize,
    /// Jobs served straight from the content-addressed result cache.
    pub cache_hits: usize,
    /// Jobs that ran to completion and sealed an artifact.
    pub jobs_done: usize,
    /// Jobs given up on (respawn budget exhausted or typed error).
    pub jobs_failed: usize,
    /// Events in the stream (for truncation cross-checks).
    pub events: usize,
}

impl TraceSummary {
    /// Folds an event stream into a summary.
    pub fn from_events(events: &[Event]) -> TraceSummary {
        let mut s = TraceSummary { events: events.len(), ..TraceSummary::default() };
        let mut per_node: BTreeMap<usize, NodeSummary> = BTreeMap::new();
        for e in events {
            match e {
                Event::Meta { mode, phases, policy, .. } => {
                    s.mode = mode.clone();
                    s.policy = policy.clone();
                    s.phases = *phases;
                }
                Event::Span(sp) => {
                    let n = per_node
                        .entry(sp.node)
                        .or_insert_with(|| NodeSummary { node: sp.node, ..Default::default() });
                    let d = sp.duration();
                    match sp.kind {
                        SpanKind::Compute => n.compute += d,
                        SpanKind::Pad => n.pad += d,
                        SpanKind::Halo => n.halo += d,
                        SpanKind::Remap => n.remap += d,
                    }
                    n.makespan = n.makespan.max(sp.end);
                }
                Event::Remap(d) => {
                    s.remap_decisions += 1;
                    if d.applied {
                        s.remap_applied += 1;
                    }
                }
                Event::Migration { planes, bytes, .. } => {
                    s.migrated_planes += planes;
                    s.migrated_bytes += bytes;
                }
                Event::Traffic { sent_bytes, .. } => {
                    s.traffic_bytes += sent_bytes;
                }
                Event::Recovery { .. } => {
                    s.recoveries += 1;
                }
                Event::Job { stage, .. } => match stage {
                    crate::event::JobStage::Submitted => s.jobs_submitted += 1,
                    crate::event::JobStage::CacheHit => s.cache_hits += 1,
                    crate::event::JobStage::Done => s.jobs_done += 1,
                    crate::event::JobStage::Failed => s.jobs_failed += 1,
                    crate::event::JobStage::Started | crate::event::JobStage::Restarted => {}
                },
            }
        }
        for n in per_node.values_mut() {
            n.utilization = if n.makespan > 0.0 { (n.busy() / n.makespan).min(1.0) } else { 0.0 };
        }
        s.nodes = per_node.into_values().collect();
        let loads: Vec<f64> = s.nodes.iter().map(|n| n.compute + n.pad).collect();
        if !loads.is_empty() {
            let mean = loads.iter().sum::<f64>() / loads.len() as f64;
            let max = loads.iter().cloned().fold(0.0_f64, f64::max);
            s.imbalance = if mean > 0.0 { max / mean } else { 0.0 };
        }
        s.churn = if s.remap_applied > 0 {
            s.migrated_planes as f64 / s.remap_applied as f64
        } else {
            0.0
        };
        s
    }

    /// Serializes the summary as a canonical JSON document (the
    /// `*.summary.json` format of `--trace PREFIX`).
    pub fn to_json(&self) -> String {
        let nodes: Vec<String> = self
            .nodes
            .iter()
            .map(|n| {
                format!(
                    concat!(
                        r#"{{"node":{},"compute":{},"pad":{},"halo":{},"remap":{},"#,
                        r#""busy":{},"makespan":{},"utilization":{}}}"#
                    ),
                    n.node,
                    json::num(n.compute),
                    json::num(n.pad),
                    json::num(n.halo),
                    json::num(n.remap),
                    json::num(n.busy()),
                    json::num(n.makespan),
                    json::num(n.utilization),
                )
            })
            .collect();
        format!(
            concat!(
                "{{\n",
                "  \"mode\": \"{}\",\n",
                "  \"policy\": \"{}\",\n",
                "  \"phases\": {},\n",
                "  \"events\": {},\n",
                "  \"imbalance\": {},\n",
                "  \"remap_decisions\": {},\n",
                "  \"remap_applied\": {},\n",
                "  \"migrated_planes\": {},\n",
                "  \"migrated_bytes\": {},\n",
                "  \"churn\": {},\n",
                "  \"traffic_bytes\": {},\n",
                "  \"recoveries\": {},\n",
                "  \"jobs_submitted\": {},\n",
                "  \"cache_hits\": {},\n",
                "  \"jobs_done\": {},\n",
                "  \"jobs_failed\": {},\n",
                "  \"nodes\": [\n    {}\n  ]\n",
                "}}\n"
            ),
            json::escape(&self.mode),
            json::escape(&self.policy),
            self.phases,
            self.events,
            json::num(self.imbalance),
            self.remap_decisions,
            self.remap_applied,
            self.migrated_planes,
            self.migrated_bytes,
            json::num(self.churn),
            self.traffic_bytes,
            self.recoveries,
            self.jobs_submitted,
            self.cache_hits,
            self.jobs_done,
            self.jobs_failed,
            nodes.join(",\n    "),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{RemapDecision, Span};
    use crate::json::Value;

    fn span(node: usize, kind: SpanKind, t0: f64, t1: f64) -> Event {
        Event::Span(Span { node, kind, phase: 1, start: t0, end: t1 })
    }

    #[test]
    fn summary_aggregates_spans_per_node() {
        let events = vec![
            Event::Meta { mode: "cluster".into(), nodes: 2, phases: 10, policy: "filtered".into() },
            span(0, SpanKind::Compute, 0.0, 2.0),
            span(0, SpanKind::Halo, 2.0, 2.5),
            span(1, SpanKind::Compute, 0.0, 1.0),
            span(1, SpanKind::Pad, 1.0, 2.0),
            span(1, SpanKind::Remap, 2.0, 2.2),
        ];
        let s = TraceSummary::from_events(&events);
        assert_eq!(s.mode, "cluster");
        assert_eq!(s.nodes.len(), 2);
        let n0 = &s.nodes[0];
        assert!((n0.compute - 2.0).abs() < 1e-12);
        assert!((n0.utilization - 1.0).abs() < 1e-12);
        let n1 = &s.nodes[1];
        assert!((n1.pad - 1.0).abs() < 1e-12);
        assert!((n1.makespan - 2.2).abs() < 1e-12);
        // Loads: node0 = 2.0, node1 = 2.0 (compute+pad) → balanced.
        assert!((s.imbalance - 1.0).abs() < 1e-12);
    }

    #[test]
    fn imbalance_reflects_skew() {
        let events =
            vec![span(0, SpanKind::Compute, 0.0, 3.0), span(1, SpanKind::Compute, 0.0, 1.0)];
        let s = TraceSummary::from_events(&events);
        // mean = 2, max = 3 → 1.5.
        assert!((s.imbalance - 1.5).abs() < 1e-12);
    }

    #[test]
    fn churn_counts_planes_per_applied_remap() {
        let decision = |applied| {
            Event::Remap(RemapDecision {
                time: 0.0,
                node: None,
                phase: 1,
                policy: "filtered".into(),
                predicted: vec![],
                speeds: vec![],
                counts: vec![],
                target: vec![],
                moved: 0,
                applied,
            })
        };
        let events = vec![
            decision(true),
            decision(false),
            decision(true),
            Event::Migration { time: 0.1, phase: 1, from: 0, to: 1, planes: 3, bytes: 24 },
            Event::Migration { time: 0.2, phase: 2, from: 1, to: 0, planes: 1, bytes: 8 },
        ];
        let s = TraceSummary::from_events(&events);
        assert_eq!(s.remap_decisions, 3);
        assert_eq!(s.remap_applied, 2);
        assert_eq!(s.migrated_planes, 4);
        assert!((s.churn - 2.0).abs() < 1e-12);
    }

    #[test]
    fn job_counters_fold_by_stage() {
        use crate::event::JobStage;
        let job = |stage| Event::Job {
            time: 0.0,
            sweep: 1,
            key: "k".into(),
            stage,
            phase: 0,
            detail: String::new(),
        };
        let events = vec![
            job(JobStage::Submitted),
            job(JobStage::Submitted),
            job(JobStage::Submitted),
            job(JobStage::CacheHit),
            job(JobStage::Started),
            job(JobStage::Restarted),
            job(JobStage::Done),
            job(JobStage::Failed),
        ];
        let s = TraceSummary::from_events(&events);
        assert_eq!(s.jobs_submitted, 3);
        assert_eq!(s.cache_hits, 1);
        assert_eq!(s.jobs_done, 1);
        assert_eq!(s.jobs_failed, 1);
        let doc = s.to_json();
        let v = Value::parse(&doc).unwrap();
        assert_eq!(v.get("cache_hits").unwrap().as_usize(), Some(1));
        assert_eq!(v.get("jobs_submitted").unwrap().as_usize(), Some(3));
    }

    #[test]
    fn to_json_is_valid_and_carries_fields() {
        let events = vec![
            Event::Meta { mode: "runtime".into(), nodes: 1, phases: 5, policy: "global".into() },
            span(0, SpanKind::Compute, 0.0, 1.0),
        ];
        let s = TraceSummary::from_events(&events);
        let doc = s.to_json();
        let v = Value::parse(&doc).unwrap();
        assert_eq!(v.get("mode").unwrap().as_str(), Some("runtime"));
        assert_eq!(v.get("phases").unwrap().as_usize(), Some(5));
        let nodes = v.get("nodes").unwrap().as_arr().unwrap();
        assert_eq!(nodes.len(), 1);
        assert_eq!(nodes[0].get("utilization").unwrap().as_f64(), Some(1.0));
    }
}
