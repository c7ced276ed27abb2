//! Trace exporters and their validating parsers.
//!
//! Two formats:
//!
//! * **JSONL** — one canonical JSON object per event, in record order.
//!   Single-threaded producers (the virtual-time cluster engine) emit a
//!   byte-deterministic stream, which the determinism tests exploit.
//! * **Chrome `trace_event`** — loadable in `chrome://tracing` and
//!   [Perfetto](https://ui.perfetto.dev): spans become complete (`"X"`)
//!   events on `pid 0 / tid <node>`, remap decisions become instants,
//!   plane counts become counter tracks.
//!
//! Each exporter has a validator that re-parses the output and checks the
//! structural invariants (schema fields present, spans non-overlapping per
//! node) — used by the golden-file tests and by every `--trace PREFIX` of
//! the `microslip` CLI, which re-parses what it wrote.

use std::collections::BTreeMap;

use crate::event::{Event, JobStage, RecoveryStage, RemapDecision, Span, SpanKind};
use crate::json::{self, Value};

// ---------------------------------------------------------------------------
// JSONL
// ---------------------------------------------------------------------------

/// Serializes one event as a canonical single-line JSON object.
pub fn event_to_json(e: &Event) -> String {
    match e {
        Event::Meta { mode, nodes, phases, policy } => format!(
            r#"{{"type":"meta","mode":"{}","nodes":{nodes},"phases":{phases},"policy":"{}"}}"#,
            json::escape(mode),
            json::escape(policy),
        ),
        Event::Span(s) => format!(
            r#"{{"type":"span","node":{},"kind":"{}","phase":{},"t0":{},"t1":{}}}"#,
            s.node,
            s.kind.name(),
            s.phase,
            json::num(s.start),
            json::num(s.end),
        ),
        Event::Remap(d) => format!(
            concat!(
                r#"{{"type":"remap","time":{},"node":{},"phase":{},"policy":"{}","#,
                r#""predicted":{},"speeds":{},"counts":{},"target":{},"moved":{},"applied":{}}}"#
            ),
            json::num(d.time),
            d.node.map_or("null".to_string(), |n| n.to_string()),
            d.phase,
            json::escape(&d.policy),
            json::opt_num_array(&d.predicted),
            json::opt_num_array(&d.speeds),
            json::usize_array(&d.counts),
            json::usize_array(&d.target),
            d.moved,
            d.applied,
        ),
        Event::Migration { time, phase, from, to, planes, bytes } => format!(
            r#"{{"type":"migration","time":{},"phase":{phase},"from":{from},"to":{to},"planes":{planes},"bytes":{bytes}}}"#,
            json::num(*time),
        ),
        Event::Traffic { node, tag, sent_messages, sent_bytes, recv_messages, recv_bytes } => {
            format!(
                concat!(
                    r#"{{"type":"traffic","node":{},"tag":"{}","sent_messages":{},"#,
                    r#""sent_bytes":{},"recv_messages":{},"recv_bytes":{}}}"#
                ),
                node,
                json::escape(tag),
                sent_messages,
                sent_bytes,
                recv_messages,
                recv_bytes,
            )
        }
        Event::Recovery { time, node, epoch, stage, phase, planes, detail } => format!(
            concat!(
                r#"{{"type":"recovery","time":{},"node":{},"epoch":{},"#,
                r#""stage":"{}","phase":{},"planes":{},"detail":"{}"}}"#
            ),
            json::num(*time),
            node,
            epoch,
            stage.name(),
            phase,
            planes,
            json::escape(detail),
        ),
        Event::Job { time, sweep, key, stage, phase, detail } => format!(
            concat!(
                r#"{{"type":"job","time":{},"sweep":{},"key":"{}","#,
                r#""stage":"{}","phase":{},"detail":"{}"}}"#
            ),
            json::num(*time),
            sweep,
            json::escape(key),
            stage.name(),
            phase,
            json::escape(detail),
        ),
    }
}

/// Serializes the event stream as JSONL (one event per line, record
/// order, trailing newline).
pub fn to_jsonl(events: &[Event]) -> String {
    let mut out = String::new();
    for e in events {
        out.push_str(&event_to_json(e));
        out.push('\n');
    }
    out
}

/// Per-event-type statistics gathered while validating a JSONL stream.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct JsonlStats {
    /// Line count per event type.
    pub counts: BTreeMap<String, usize>,
    /// Field-name sets per event type — two streams are *schema-identical*
    /// iff these maps are equal.
    pub schema: BTreeMap<String, Vec<String>>,
}

/// Required fields per event type (the schema contract).
fn required_fields(event_type: &str) -> Option<&'static [&'static str]> {
    match event_type {
        "meta" => Some(&["type", "mode", "nodes", "phases", "policy"]),
        "span" => Some(&["type", "node", "kind", "phase", "t0", "t1"]),
        "remap" => Some(&[
            "type", "time", "node", "phase", "policy", "predicted", "speeds", "counts",
            "target", "moved", "applied",
        ]),
        "migration" => Some(&["type", "time", "phase", "from", "to", "planes", "bytes"]),
        "traffic" => Some(&[
            "type", "node", "tag", "sent_messages", "sent_bytes", "recv_messages",
            "recv_bytes",
        ]),
        "recovery" => Some(&[
            "type", "time", "node", "epoch", "stage", "phase", "planes", "detail",
        ]),
        "job" => Some(&["type", "time", "sweep", "key", "stage", "phase", "detail"]),
        _ => None,
    }
}

/// Parses and validates a JSONL event stream: every line must parse as a
/// typed event ([`event_from_json`]) carrying exactly the schema fields,
/// spans must not end before they start, and per-node spans must not
/// overlap.
pub fn validate_jsonl(text: &str) -> Result<JsonlStats, String> {
    let mut stats = JsonlStats::default();
    let mut spans_per_node: BTreeMap<usize, Vec<(f64, f64)>> = BTreeMap::new();
    for (lineno, line) in text.lines().enumerate() {
        let err = |msg: String| format!("line {}: {msg}", lineno + 1);
        if line.is_empty() {
            continue;
        }
        let v = Value::parse(line).map_err(err)?;
        let event = event_from_value(&v).map_err(err)?;
        let ty = event.type_name();
        // The typed parse found every schema field, so the field set is
        // exact unless there are more.
        let required = required_fields(ty).unwrap_or_default();
        let fields = v.as_obj().map_or(0, |obj| obj.len());
        if fields != required.len() {
            let why = format!("schema mismatch for '{ty}': {fields} fields, want {required:?}");
            return Err(err(why));
        }
        if let Event::Span(span) = &event {
            if span.end < span.start {
                let why = format!("span ends before it starts: {} > {}", span.start, span.end);
                return Err(err(why));
            }
            spans_per_node.entry(span.node).or_default().push((span.start, span.end));
        }
        *stats.counts.entry(ty.to_string()).or_default() += 1;
        stats
            .schema
            .entry(ty.to_string())
            .or_insert_with(|| required.iter().map(|s| s.to_string()).collect());
    }
    check_non_overlap(&spans_per_node)?;
    Ok(stats)
}

fn check_non_overlap(spans_per_node: &BTreeMap<usize, Vec<(f64, f64)>>) -> Result<(), String> {
    for (node, spans) in spans_per_node {
        let mut sorted = spans.clone();
        sorted.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.total_cmp(&b.1)));
        for w in sorted.windows(2) {
            let [prev, next] = w else { continue };
            // Shared boundaries are fine; actual overlap is not.
            if next.0 < prev.1 - 1e-9 {
                return Err(format!(
                    "node {node}: spans overlap: [{}, {}) and [{}, {})",
                    prev.0, prev.1, next.0, next.1
                ));
            }
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// JSONL → typed events
// ---------------------------------------------------------------------------

/// Parses one canonical JSON event line back into a typed [`Event`] —
/// the inverse of [`event_to_json`]. The schema is exact: unknown types,
/// missing fields, and wrongly-typed fields are all rejected.
pub fn event_from_json(line: &str) -> Result<Event, String> {
    event_from_value(&Value::parse(line)?)
}

/// [`event_from_json`] on an already parsed line.
fn event_from_value(v: &Value) -> Result<Event, String> {
    let obj = v.as_obj().ok_or("not an object")?;
    let ty = v.get("type").and_then(Value::as_str).ok_or("missing \"type\"")?.to_string();
    let required = required_fields(&ty).ok_or_else(|| format!("unknown event type '{ty}'"))?;
    for name in required {
        if !obj.contains_key(*name) {
            return Err(format!("{ty} event missing \"{name}\""));
        }
    }
    let bad = |name: &str, want: &str| format!("{ty} field \"{name}\" must be {want}");
    let f64_of = |name: &str| {
        v.get(name).and_then(Value::as_f64).ok_or_else(|| bad(name, "a number"))
    };
    let usize_of = |name: &str| {
        v.get(name).and_then(Value::as_usize).ok_or_else(|| bad(name, "a non-negative integer"))
    };
    // Counters are held to `as_usize`'s rule too (an integer in
    // [0, 2^53)), so a negative, fractional or huge value is an error,
    // never truncated or saturated into one.
    let u64_of = |name: &str| usize_of(name).map(|n| n as u64);
    let str_of = |name: &str| {
        v.get(name).and_then(Value::as_str).map(String::from).ok_or_else(|| bad(name, "a string"))
    };
    let bool_of = |name: &str| {
        v.get(name).and_then(Value::as_bool).ok_or_else(|| bad(name, "a boolean"))
    };
    let opt_num_arr_of = |name: &str| -> Result<Vec<Option<f64>>, String> {
        v.get(name)
            .and_then(Value::as_arr)
            .ok_or_else(|| bad(name, "an array"))?
            .iter()
            .map(|x| {
                if x.is_null() {
                    Ok(None)
                } else {
                    x.as_f64().map(Some).ok_or_else(|| bad(name, "numbers or nulls"))
                }
            })
            .collect()
    };
    let usize_arr_of = |name: &str| -> Result<Vec<usize>, String> {
        v.get(name)
            .and_then(Value::as_arr)
            .ok_or_else(|| bad(name, "an array"))?
            .iter()
            .map(|x| x.as_usize().ok_or_else(|| bad(name, "non-negative integers")))
            .collect()
    };

    match ty.as_str() {
        "meta" => Ok(Event::Meta {
            mode: str_of("mode")?,
            nodes: usize_of("nodes")?,
            phases: u64_of("phases")?,
            policy: str_of("policy")?,
        }),
        "span" => {
            let kind_name = str_of("kind")?;
            let kind = SpanKind::from_name(&kind_name)
                .ok_or_else(|| format!("unknown span kind '{kind_name}'"))?;
            Ok(Event::Span(Span {
                node: usize_of("node")?,
                kind,
                phase: u64_of("phase")?,
                start: f64_of("t0")?,
                end: f64_of("t1")?,
            }))
        }
        "remap" => {
            let node = match v.get("node") {
                Some(Value::Null) => None,
                Some(n) => Some(n.as_usize().ok_or_else(|| bad("node", "an integer or null"))?),
                None => return Err(bad("node", "present")),
            };
            Ok(Event::Remap(RemapDecision {
                time: f64_of("time")?,
                node,
                phase: u64_of("phase")?,
                policy: str_of("policy")?,
                predicted: opt_num_arr_of("predicted")?,
                speeds: opt_num_arr_of("speeds")?,
                counts: usize_arr_of("counts")?,
                target: usize_arr_of("target")?,
                moved: usize_of("moved")?,
                applied: bool_of("applied")?,
            }))
        }
        "migration" => Ok(Event::Migration {
            time: f64_of("time")?,
            phase: u64_of("phase")?,
            from: usize_of("from")?,
            to: usize_of("to")?,
            planes: usize_of("planes")?,
            bytes: u64_of("bytes")?,
        }),
        "traffic" => Ok(Event::Traffic {
            node: usize_of("node")?,
            tag: str_of("tag")?,
            sent_messages: u64_of("sent_messages")?,
            sent_bytes: u64_of("sent_bytes")?,
            recv_messages: u64_of("recv_messages")?,
            recv_bytes: u64_of("recv_bytes")?,
        }),
        "recovery" => {
            let stage_name = str_of("stage")?;
            let stage = RecoveryStage::from_name(&stage_name)
                .ok_or_else(|| format!("unknown recovery stage '{stage_name}'"))?;
            Ok(Event::Recovery {
                time: f64_of("time")?,
                node: usize_of("node")?,
                epoch: u64_of("epoch")?,
                stage,
                phase: u64_of("phase")?,
                planes: usize_of("planes")?,
                detail: str_of("detail")?,
            })
        }
        "job" => {
            let stage_name = str_of("stage")?;
            let stage = JobStage::from_name(&stage_name)
                .ok_or_else(|| format!("unknown job stage '{stage_name}'"))?;
            Ok(Event::Job {
                time: f64_of("time")?,
                sweep: u64_of("sweep")?,
                key: str_of("key")?,
                stage,
                phase: u64_of("phase")?,
                detail: str_of("detail")?,
            })
        }
        other => Err(format!("unknown event type '{other}'")),
    }
}

/// Parses a JSONL stream back into typed events (inverse of
/// [`to_jsonl`]; blank lines are skipped, errors name the line).
pub fn from_jsonl(text: &str) -> Result<Vec<Event>, String> {
    let mut events = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        if line.is_empty() {
            continue;
        }
        events.push(event_from_json(line).map_err(|msg| format!("line {}: {msg}", lineno + 1))?);
    }
    Ok(events)
}

/// Merges per-rank event streams into one run-level stream: the first
/// [`Event::Meta`] encountered is kept and placed first (later metas are
/// redundant per-rank copies of the same header), and every other event
/// follows in rank-major order — all of rank 0's events, then rank 1's,
/// and so on. The multi-process driver uses this to stitch each worker
/// process's JSONL trace into the same shape a threaded run produces.
pub fn merge_rank_streams(streams: Vec<Vec<Event>>) -> Vec<Event> {
    let mut meta: Option<Event> = None;
    let mut rest = Vec::new();
    for stream in streams {
        for e in stream {
            match e {
                Event::Meta { .. } => {
                    meta.get_or_insert(e);
                }
                other => rest.push(other),
            }
        }
    }
    let mut merged = Vec::with_capacity(rest.len() + 1);
    merged.extend(meta);
    merged.extend(rest);
    merged
}

/// Canonical time-free serializations of every remap decision in the
/// stream, sorted. Two substrates (threaded vs multi-process) took the
/// same remap decisions iff their fingerprint vectors are equal: the
/// timestamps legitimately differ between wall clocks, every other field
/// of the audit record must not.
pub fn remap_fingerprints(events: &[Event]) -> Vec<String> {
    let mut out: Vec<String> = events
        .iter()
        .filter_map(|e| match e {
            Event::Remap(d) => {
                let mut d = d.clone();
                d.time = 0.0;
                Some(event_to_json(&Event::Remap(d)))
            }
            _ => None,
        })
        .collect();
    out.sort_unstable();
    out
}

// ---------------------------------------------------------------------------
// Chrome trace_event
// ---------------------------------------------------------------------------

/// Serializes the event stream in Chrome `trace_event` JSON format
/// (object form, complete events), loadable in `chrome://tracing` and
/// Perfetto. Spans are sorted by `(node, start)` so the output is
/// deterministic even when worker threads recorded concurrently.
pub fn to_chrome_trace(events: &[Event]) -> String {
    let mut lines: Vec<String> = Vec::new();

    // Process / thread naming metadata so the UI shows "node N" tracks.
    let mut nodes: Vec<usize> = events
        .iter()
        .filter_map(|e| match e {
            Event::Span(s) => Some(s.node),
            _ => None,
        })
        .collect();
    nodes.sort_unstable();
    nodes.dedup();
    lines.push(
        r#"{"name":"process_name","ph":"M","pid":0,"tid":0,"args":{"name":"microslip"}}"#
            .to_string(),
    );
    for &n in &nodes {
        lines.push(format!(
            r#"{{"name":"thread_name","ph":"M","pid":0,"tid":{n},"args":{{"name":"node {n}"}}}}"#
        ));
    }

    let us = |t: f64| json::num(t * 1e6);

    let mut spans: Vec<&Span> = events
        .iter()
        .filter_map(|e| match e {
            Event::Span(s) => Some(s),
            _ => None,
        })
        .collect();
    spans.sort_by(|x, y| x.node.cmp(&y.node).then(x.start.total_cmp(&y.start)));
    for s in spans {
        lines.push(format!(
            r#"{{"name":"{}","cat":"{}","ph":"X","pid":0,"tid":{},"ts":{},"dur":{},"args":{{"phase":{}}}}}"#,
            s.kind.name(),
            s.kind.name(),
            s.node,
            us(s.start),
            us(s.duration()),
            s.phase,
        ));
    }

    for e in events {
        match e {
            Event::Remap(d) => {
                // Instant on the deciding node's track (tid 0 for global
                // decisions) plus a counter sample of the target counts.
                let tid = d.node.unwrap_or(0);
                lines.push(format!(
                    r#"{{"name":"remap {}","cat":"remap","ph":"i","s":"t","pid":0,"tid":{tid},"ts":{},"args":{{"phase":{},"applied":{},"moved":{}}}}}"#,
                    json::escape(&d.policy),
                    us(d.time),
                    d.phase,
                    d.applied,
                    d.moved,
                ));
                if d.node.is_none() && d.applied {
                    let series: Vec<String> = d
                        .target
                        .iter()
                        .enumerate()
                        .map(|(i, c)| format!(r#""node {i}":{c}"#))
                        .collect();
                    lines.push(format!(
                        r#"{{"name":"planes","ph":"C","pid":0,"tid":0,"ts":{},"args":{{{}}}}}"#,
                        us(d.time),
                        series.join(","),
                    ));
                }
            }
            Event::Migration { time, phase, from, to, planes, bytes } => {
                lines.push(format!(
                    r#"{{"name":"migrate {planes}p → node {to}","cat":"migration","ph":"i","s":"t","pid":0,"tid":{from},"ts":{},"args":{{"phase":{phase},"planes":{planes},"bytes":{bytes}}}}}"#,
                    us(*time),
                ));
            }
            Event::Recovery { time, node, epoch, stage, phase, planes, detail } => {
                // Process-scoped ("s":"p") instants so the whole recovery
                // arc stands out across every track of a chaotic run.
                lines.push(format!(
                    r#"{{"name":"recovery {} (epoch {epoch})","cat":"recovery","ph":"i","s":"p","pid":0,"tid":{node},"ts":{},"args":{{"phase":{phase},"planes":{planes},"detail":"{}"}}}}"#,
                    stage.name(),
                    us(*time),
                    json::escape(detail),
                ));
            }
            Event::Job { time, sweep, key, stage, phase, detail } => {
                // Scheduler-level instants live on tid 0 (the daemon has no
                // per-node timeline); the key makes dedupe visible.
                lines.push(format!(
                    r#"{{"name":"job {} {}","cat":"job","ph":"i","s":"p","pid":0,"tid":0,"ts":{},"args":{{"sweep":{sweep},"phase":{phase},"detail":"{}"}}}}"#,
                    stage.name(),
                    json::escape(key),
                    us(*time),
                    json::escape(detail),
                ));
            }
            _ => {}
        }
    }

    format!(
        "{{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n{}\n]}}\n",
        lines.join(",\n")
    )
}

/// Structural statistics of a validated Chrome trace.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ChromeStats {
    /// Complete (`"X"`) span events.
    pub spans: usize,
    /// Distinct node (tid) tracks carrying spans.
    pub nodes: usize,
    /// Instant events (remap decisions, migrations).
    pub instants: usize,
    /// Counter samples.
    pub counters: usize,
}

/// Parses a Chrome `trace_event` document and checks the invariants the
/// exporter promises: every event is well-formed for its phase type, and
/// the complete spans on each `tid` are non-overlapping.
pub fn validate_chrome_trace(text: &str) -> Result<ChromeStats, String> {
    let v = Value::parse(text)?;
    let events = v
        .get("traceEvents")
        .and_then(Value::as_arr)
        .ok_or("missing \"traceEvents\" array")?;
    let mut stats = ChromeStats::default();
    let mut spans_per_tid: BTreeMap<usize, Vec<(f64, f64)>> = BTreeMap::new();
    for (i, e) in events.iter().enumerate() {
        let err = |msg: &str| format!("traceEvents[{i}]: {msg}");
        let ph = e.get("ph").and_then(Value::as_str).ok_or_else(|| err("missing ph"))?;
        if e.get("name").and_then(Value::as_str).is_none() {
            return Err(err("missing name"));
        }
        let tid =
            e.get("tid").and_then(Value::as_usize).ok_or_else(|| err("missing tid"))?;
        match ph {
            "X" => {
                let ts = e
                    .get("ts")
                    .and_then(Value::as_f64)
                    .ok_or_else(|| err("X event missing ts"))?;
                let dur = e
                    .get("dur")
                    .and_then(Value::as_f64)
                    .ok_or_else(|| err("X event missing dur"))?;
                if dur < 0.0 {
                    return Err(err("negative dur"));
                }
                spans_per_tid.entry(tid).or_default().push((ts, ts + dur));
                stats.spans += 1;
            }
            "i" => {
                if e.get("ts").and_then(Value::as_f64).is_none() {
                    return Err(err("instant missing ts"));
                }
                stats.instants += 1;
            }
            "C" => {
                if e.get("args").and_then(Value::as_obj).is_none() {
                    return Err(err("counter missing args"));
                }
                stats.counters += 1;
            }
            "M" => {}
            other => return Err(err(&format!("unexpected ph '{other}'"))),
        }
    }
    // Non-overlap is checked in microseconds here (Chrome ts units).
    let spans_us: BTreeMap<usize, Vec<(f64, f64)>> = spans_per_tid
        .iter()
        .map(|(k, v)| (*k, v.iter().map(|&(a, b)| (a * 1e-6, b * 1e-6)).collect()))
        .collect();
    check_non_overlap(&spans_us)?;
    stats.nodes = spans_per_tid.len();
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{RemapDecision, Span};

    fn sample_events() -> Vec<Event> {
        vec![
            Event::Meta { mode: "runtime".into(), nodes: 2, phases: 2, policy: "filtered".into() },
            Event::Span(Span { node: 0, kind: SpanKind::Compute, phase: 1, start: 0.0, end: 0.5 }),
            Event::Span(Span { node: 0, kind: SpanKind::Halo, phase: 1, start: 0.5, end: 0.7 }),
            Event::Span(Span { node: 1, kind: SpanKind::Compute, phase: 1, start: 0.0, end: 0.6 }),
            Event::Span(Span { node: 1, kind: SpanKind::Pad, phase: 1, start: 0.6, end: 0.9 }),
            Event::Remap(RemapDecision {
                time: 0.9,
                node: None,
                phase: 2,
                policy: "filtered".into(),
                predicted: vec![Some(0.5), None],
                speeds: vec![Some(2.0), None],
                counts: vec![10, 10],
                target: vec![12, 8],
                moved: 2,
                applied: true,
            }),
            Event::Migration { time: 0.95, phase: 2, from: 1, to: 0, planes: 2, bytes: 1024 },
            Event::Traffic {
                node: 0,
                tag: "f_halo".into(),
                sent_messages: 4,
                sent_bytes: 4096,
                recv_messages: 4,
                recv_bytes: 4096,
            },
            Event::Recovery {
                time: 0.97,
                node: 0,
                epoch: 2,
                stage: RecoveryStage::Rollback,
                phase: 5,
                planes: 10,
                detail: "restored ckpt-rank0-phase5.bin".into(),
            },
            Event::Job {
                time: 0.98,
                sweep: 1,
                key: "00f00ba4".into(),
                stage: JobStage::CacheHit,
                phase: 0,
                detail: "served from cache".into(),
            },
        ]
    }

    #[test]
    fn sample_events_hold_every_variant() {
        // The round-trip tests below cover the emitter, the parser and
        // `required_fields` only for the variants sampled here. The match
        // has no wildcard: a new variant stops this test compiling until
        // it has a slot (and `seen` one more entry), and the assertion
        // then fails until `sample_events` holds one.
        let mut seen = [false; 7];
        for e in sample_events() {
            let slot = match e {
                Event::Meta { .. } => 0,
                Event::Span(_) => 1,
                Event::Remap(_) => 2,
                Event::Migration { .. } => 3,
                Event::Traffic { .. } => 4,
                Event::Recovery { .. } => 5,
                Event::Job { .. } => 6,
            };
            seen[slot] = true;
        }
        assert_eq!(seen, [true; 7], "sample_events misses a variant");
    }

    #[test]
    fn jsonl_round_trips_through_validator() {
        let text = to_jsonl(&sample_events());
        let stats = validate_jsonl(&text).unwrap();
        assert_eq!(stats.counts["span"], 4);
        assert_eq!(stats.counts["meta"], 1);
        assert_eq!(stats.counts["remap"], 1);
        assert_eq!(stats.counts["migration"], 1);
        assert_eq!(stats.counts["traffic"], 1);
        assert_eq!(stats.counts["recovery"], 1);
        assert_eq!(stats.counts["job"], 1);
        assert!(stats.schema["remap"].contains(&"speeds".to_string()));
        assert!(stats.schema["recovery"].contains(&"epoch".to_string()));
        assert!(stats.schema["job"].contains(&"key".to_string()));
    }

    #[test]
    fn jsonl_rejects_unknown_job_stage() {
        let line = concat!(
            "{\"type\":\"job\",\"time\":1,\"sweep\":1,\"key\":\"ab\",",
            "\"stage\":\"bogus\",\"phase\":0,\"detail\":\"d\"}\n"
        );
        let err = validate_jsonl(line).unwrap_err();
        assert!(err.contains("unknown job stage"), "{err}");
        assert!(from_jsonl(line).is_err());
    }

    #[test]
    fn jsonl_rejects_unknown_recovery_stage() {
        let line = concat!(
            "{\"type\":\"recovery\",\"time\":1,\"node\":0,\"epoch\":2,",
            "\"stage\":\"bogus\",\"phase\":5,\"planes\":10,\"detail\":\"d\"}\n"
        );
        let err = validate_jsonl(line).unwrap_err();
        assert!(err.contains("unknown recovery stage"), "{err}");
        assert!(from_jsonl(line).is_err());
    }

    #[test]
    fn jsonl_rejects_overlapping_spans() {
        let events = vec![
            Event::Span(Span { node: 0, kind: SpanKind::Compute, phase: 1, start: 0.0, end: 1.0 }),
            Event::Span(Span { node: 0, kind: SpanKind::Halo, phase: 1, start: 0.5, end: 0.7 }),
        ];
        let err = validate_jsonl(&to_jsonl(&events)).unwrap_err();
        assert!(err.contains("overlap"), "{err}");
    }

    #[test]
    fn jsonl_rejects_unknown_type_and_schema_drift() {
        assert!(validate_jsonl("{\"type\":\"mystery\"}\n").is_err());
        // A span missing t1 is a schema violation.
        assert!(validate_jsonl(
            "{\"type\":\"span\",\"node\":0,\"kind\":\"compute\",\"phase\":1,\"t0\":0}\n"
        )
        .is_err());
        // Extra fields are a violation too (the schema is exact).
        assert!(validate_jsonl(
            "{\"type\":\"meta\",\"mode\":\"m\",\"nodes\":1,\"phases\":1,\"policy\":\"p\",\"extra\":1}\n"
        )
        .is_err());
    }

    #[test]
    fn chrome_trace_round_trips_through_validator() {
        let text = to_chrome_trace(&sample_events());
        let stats = validate_chrome_trace(&text).unwrap();
        assert_eq!(stats.spans, 4);
        assert_eq!(stats.nodes, 2);
        assert_eq!(stats.instants, 4); // remap + migration + recovery + job
        assert_eq!(stats.counters, 1);
        // The recovery instant is self-explaining: stage and epoch in the
        // name, context in args.
        assert!(text.contains("recovery rollback (epoch 2)"), "{text}");
        // So is the job instant: stage and key in the name.
        assert!(text.contains("job cache-hit 00f00ba4"), "{text}");
    }

    #[test]
    fn chrome_trace_catches_overlap() {
        let doc = r#"{"traceEvents":[
            {"name":"compute","ph":"X","pid":0,"tid":0,"ts":0,"dur":100},
            {"name":"halo","ph":"X","pid":0,"tid":0,"ts":50,"dur":10}
        ]}"#;
        let err = validate_chrome_trace(doc).unwrap_err();
        assert!(err.contains("overlap"), "{err}");
    }

    #[test]
    fn chrome_trace_same_tid_different_nodes_do_not_conflict() {
        let doc = r#"{"traceEvents":[
            {"name":"compute","ph":"X","pid":0,"tid":0,"ts":0,"dur":100},
            {"name":"compute","ph":"X","pid":0,"tid":1,"ts":50,"dur":100}
        ]}"#;
        let stats = validate_chrome_trace(doc).unwrap();
        assert_eq!(stats.nodes, 2);
    }

    #[test]
    fn jsonl_parses_back_to_identical_typed_events() {
        let events = sample_events();
        let parsed = from_jsonl(&to_jsonl(&events)).unwrap();
        assert_eq!(parsed, events);
    }

    #[test]
    fn from_jsonl_rejects_malformed_lines_by_number() {
        assert!(from_jsonl("{\"type\":\"mystery\"}\n").is_err());
        assert!(from_jsonl("{\"type\":\"span\",\"node\":0}\n").is_err());
        let good = "{\"type\":\"meta\",\"mode\":\"m\",\"nodes\":1,\"phases\":1,\"policy\":\"p\"}";
        let err = from_jsonl(&format!("{good}\nnot json\n")).unwrap_err();
        assert!(err.starts_with("line 2:"), "{err}");
        // Wrongly-typed fields are rejected, not coerced.
        let bad = good.replace("\"nodes\":1", "\"nodes\":\"one\"");
        assert!(from_jsonl(&bad).is_err());
        // So are counters that are not integers in [0, 2^53).
        for phases in ["-3.5", "2.7", "1e300"] {
            let bad = good.replace("\"phases\":1", &format!("\"phases\":{phases}"));
            let err = from_jsonl(&bad).unwrap_err();
            assert!(err.contains("\"phases\" must be a non-negative integer"), "{phases}: {err}");
        }
    }

    #[test]
    fn merge_keeps_one_meta_and_rank_major_order() {
        let span = |node: usize, start: f64| {
            Event::Span(Span { node, kind: SpanKind::Compute, phase: 1, start, end: start + 0.1 })
        };
        let meta = |mode: &str| Event::Meta {
            mode: mode.into(),
            nodes: 2,
            phases: 1,
            policy: "filtered".into(),
        };
        let merged = merge_rank_streams(vec![
            vec![meta("mp"), span(0, 0.0), span(0, 0.2)],
            vec![meta("mp"), span(1, 0.1)],
        ]);
        assert_eq!(
            merged,
            vec![meta("mp"), span(0, 0.0), span(0, 0.2), span(1, 0.1)],
            "one meta first, then events rank-major"
        );
        // The merged stream is still schema-valid JSONL.
        validate_jsonl(&to_jsonl(&merged)).unwrap();
    }

    #[test]
    fn remap_fingerprints_ignore_time_but_nothing_else() {
        let decision = |time: f64, moved: usize| {
            Event::Remap(RemapDecision {
                time,
                node: Some(1),
                phase: 3,
                policy: "filtered".into(),
                predicted: vec![Some(0.5), None],
                speeds: vec![Some(2.0), None],
                counts: vec![10, 10],
                target: vec![12, 8],
                moved,
                applied: true,
            })
        };
        // Same decisions at different wall-clock times → equal fingerprints
        // (sorting makes the comparison order-insensitive too).
        let a = remap_fingerprints(&[decision(0.9, 2), decision(1.7, 0)]);
        let b = remap_fingerprints(&[decision(2.4, 0), decision(3.3, 2)]);
        assert_eq!(a, b);
        // Any substantive difference shows up.
        let c = remap_fingerprints(&[decision(0.9, 2), decision(1.7, 1)]);
        assert_ne!(a, c);
        // Non-remap events contribute nothing.
        assert!(remap_fingerprints(&sample_events()[..5]).is_empty());
    }

    #[test]
    fn schema_identity_between_two_streams() {
        // The property the runtime/cluster equivalence test relies on:
        // equal schema maps mean schema-identical streams.
        let a = validate_jsonl(&to_jsonl(&sample_events())).unwrap();
        let b = validate_jsonl(&to_jsonl(&sample_events())).unwrap();
        assert_eq!(a.schema, b.schema);
    }
}
