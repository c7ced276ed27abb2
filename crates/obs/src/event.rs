//! The typed event vocabulary shared by every layer of the system.
//!
//! One schema serves both execution substrates: the threaded runtime
//! stamps events with wall-clock seconds since the run epoch, the virtual
//! cluster simulator with virtual-time seconds — everything else is
//! identical, so a real run and a simulated run can be diffed event by
//! event.

/// Activity class of a [`Span`] on one node's timeline.
///
/// The runtime separates [`Pad`](SpanKind::Pad) (injected throttle
/// slowdown) from [`Compute`](SpanKind::Compute) (actual kernel time); the
/// cluster simulator folds disturbance stretching into its compute spans
/// because virtual slowness is continuous, not a distinct activity.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum SpanKind {
    /// Lattice-update kernels (collision, streaming, forces, …).
    Compute,
    /// Injected throttle padding — simulated competing-job time.
    Pad,
    /// Halo exchange: packing, sending, blocking receives, waits.
    Halo,
    /// Remap round: load exchange, plan evaluation, plane migration.
    Remap,
}

impl SpanKind {
    /// Stable schema name (used in JSONL and Chrome trace output).
    pub fn name(&self) -> &'static str {
        match self {
            SpanKind::Compute => "compute",
            SpanKind::Pad => "pad",
            SpanKind::Halo => "halo",
            SpanKind::Remap => "remap",
        }
    }

    /// Inverse of [`name`](Self::name).
    pub fn from_name(name: &str) -> Option<SpanKind> {
        match name {
            "compute" => Some(SpanKind::Compute),
            "pad" => Some(SpanKind::Pad),
            "halo" => Some(SpanKind::Halo),
            "remap" => Some(SpanKind::Remap),
            _ => None,
        }
    }

    /// All kinds, in schema order.
    pub const ALL: [SpanKind; 4] =
        [SpanKind::Compute, SpanKind::Pad, SpanKind::Halo, SpanKind::Remap];
}

/// A completed activity interval `[start, end)` on one node's timeline,
/// in seconds since the run epoch (wall or virtual).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Span {
    pub node: usize,
    pub kind: SpanKind,
    /// 1-based LBM phase index the activity belongs to (0 = priming /
    /// outside the phase loop).
    pub phase: u64,
    pub start: f64,
    pub end: f64,
}

impl Span {
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }
}

/// A remap-policy invocation with its inputs and outcome — the audit
/// record for oscillation-suppression (lazy filters, β over-redistribution,
/// conflict netting).
#[derive(Clone, Debug, PartialEq)]
pub struct RemapDecision {
    /// Timestamp of the decision (seconds since epoch).
    pub time: f64,
    /// Deciding rank; `None` for a global decision taken by the driver or
    /// the virtual-time engine (which sees all nodes at once).
    pub node: Option<usize>,
    pub phase: u64,
    /// Policy name ("filtered", "conservative", "global", "no-remap").
    pub policy: String,
    /// Predicted per-node compute times fed to the policy. `None` where a
    /// node's history is too short (the lazy predictor refused to commit)
    /// or, for a per-node decision, outside the deciding node's two-hop
    /// window.
    pub predicted: Vec<Option<f64>>,
    /// Derived node speeds `S_i = N_i / T_i` (the β over-redistribution
    /// inputs); `None` wherever `predicted` is.
    pub speeds: Vec<Option<f64>>,
    /// Plane counts before the decision.
    pub counts: Vec<usize>,
    /// Target plane counts the policy produced. For a per-node decision
    /// this reflects only the deciding node's own edges.
    pub target: Vec<usize>,
    /// Planes scheduled to move (sum of positive target−count diffs).
    pub moved: usize,
    /// Whether the decision changed the partition (false = filtered out /
    /// lazily suppressed).
    pub applied: bool,
}

/// Stage of the recovery arc after a rank dies mid-run.
///
/// The `mp` driver records it: a chaotic run's trace tells the whole story
/// in order — death detected → rollback chosen → one resumed per rank.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum RecoveryStage {
    /// The driver saw a rank die hard and restarts the gang.
    DeathDetected,
    /// The rollback phase was chosen: the newest checkpoint every rank
    /// holds CRC-valid (phase 0 = fresh start).
    Rollback,
    /// A rank was respawned to run on from the rollback phase.
    Resumed,
}

impl RecoveryStage {
    /// Stable schema name (used in JSONL and Chrome trace output).
    pub fn name(&self) -> &'static str {
        match self {
            RecoveryStage::DeathDetected => "death-detected",
            RecoveryStage::Rollback => "rollback",
            RecoveryStage::Resumed => "resumed",
        }
    }

    /// Inverse of [`name`](Self::name).
    pub fn from_name(name: &str) -> Option<RecoveryStage> {
        match name {
            "death-detected" => Some(RecoveryStage::DeathDetected),
            "rollback" => Some(RecoveryStage::Rollback),
            "resumed" => Some(RecoveryStage::Resumed),
            _ => None,
        }
    }

    /// All stages, in arc order.
    pub const ALL: [RecoveryStage; 3] =
        [RecoveryStage::DeathDetected, RecoveryStage::Rollback, RecoveryStage::Resumed];
}

/// Stage of a served sweep job's lifecycle (`microslip serve`).
///
/// A sweep's trace tells the scheduling story per content-addressed job
/// key: submitted → (cache-hit | started → \[restarted…\] → done/failed).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum JobStage {
    /// The job entered a sweep (one event per expanded grid point).
    Submitted,
    /// The job's key was already in the result cache — no compute run.
    CacheHit,
    /// A worker subprocess was spawned for the job.
    Started,
    /// The worker died and the job was respawned from its newest
    /// CRC-valid checkpoint.
    Restarted,
    /// The worker finished and the sealed artifact entered the cache.
    Done,
    /// The job was given up on (respawn budget exhausted or typed error).
    Failed,
}

impl JobStage {
    /// Stable schema name (used in JSONL and Chrome trace output).
    pub fn name(&self) -> &'static str {
        match self {
            JobStage::Submitted => "submitted",
            JobStage::CacheHit => "cache-hit",
            JobStage::Started => "started",
            JobStage::Restarted => "restarted",
            JobStage::Done => "done",
            JobStage::Failed => "failed",
        }
    }

    /// Inverse of [`name`](Self::name).
    pub fn from_name(name: &str) -> Option<JobStage> {
        match name {
            "submitted" => Some(JobStage::Submitted),
            "cache-hit" => Some(JobStage::CacheHit),
            "started" => Some(JobStage::Started),
            "restarted" => Some(JobStage::Restarted),
            "done" => Some(JobStage::Done),
            "failed" => Some(JobStage::Failed),
            _ => None,
        }
    }

    /// All stages, in lifecycle order.
    pub const ALL: [JobStage; 6] = [
        JobStage::Submitted,
        JobStage::CacheHit,
        JobStage::Started,
        JobStage::Restarted,
        JobStage::Done,
        JobStage::Failed,
    ];
}

/// One structured observability event.
#[derive(Clone, Debug, PartialEq)]
pub enum Event {
    /// Run header — emitted once, first.
    Meta {
        /// Execution substrate: "runtime" (threads) or "cluster"
        /// (virtual time).
        mode: String,
        nodes: usize,
        phases: u64,
        policy: String,
    },
    /// An activity interval on one node's timeline.
    Span(Span),
    /// A remap decision with its inputs.
    Remap(RemapDecision),
    /// Planes actually migrated between two nodes.
    Migration {
        time: f64,
        phase: u64,
        from: usize,
        to: usize,
        planes: usize,
        /// Payload volume in bytes.
        bytes: u64,
    },
    /// Aggregate message traffic of one node for one tag class — emitted
    /// at end of run (real byte counters from the transport, or modeled
    /// volumes from the simulator).
    Traffic {
        node: usize,
        /// Traffic class ("f_halo", "psi_halo", "load", "migrate", …).
        tag: String,
        sent_messages: u64,
        sent_bytes: u64,
        recv_messages: u64,
        recv_bytes: u64,
    },
    /// One stage of the recovery arc after a rank died.
    Recovery {
        time: f64,
        /// The rank the stage is about: the dead one for `death-detected`
        /// and `rollback`, the respawned one for `resumed`.
        node: usize,
        /// The gang's attempt the stage belongs to (1 = first).
        epoch: u64,
        stage: RecoveryStage,
        /// The rollback phase (0 = fresh start; 0 for `death-detected`).
        phase: u64,
        /// Planes involved (the respawned rank's restored slab width).
        planes: usize,
        /// Free-form context ("rank 2 exited with …", the checkpoint, …).
        detail: String,
    },
    /// One stage of a served sweep job's lifecycle (`microslip serve`).
    Job {
        time: f64,
        /// Sweep the job belongs to (1-based submission order).
        sweep: u64,
        /// Content-addressed job key (hex hash of the canonical scenario
        /// bytes) — identical scenarios share a key by construction.
        key: String,
        stage: JobStage,
        /// Phase context: the checkpoint phase a restart resumed from,
        /// the final phase for `done`, otherwise 0.
        phase: u64,
        /// Free-form context (worker exit status, cache path, …).
        detail: String,
    },
}

impl Event {
    /// Stable schema name of the event type.
    pub fn type_name(&self) -> &'static str {
        match self {
            Event::Meta { .. } => "meta",
            Event::Span(_) => "span",
            Event::Remap(_) => "remap",
            Event::Migration { .. } => "migration",
            Event::Traffic { .. } => "traffic",
            Event::Recovery { .. } => "recovery",
            Event::Job { .. } => "job",
        }
    }

    /// Timestamp used for ordering in exports, if the event carries one.
    pub fn time(&self) -> Option<f64> {
        match self {
            Event::Meta { .. } => None,
            Event::Span(s) => Some(s.start),
            Event::Remap(d) => Some(d.time),
            Event::Migration { time, .. } => Some(*time),
            Event::Traffic { .. } => None,
            Event::Recovery { time, .. } => Some(*time),
            Event::Job { time, .. } => Some(*time),
        }
    }

    /// Moves the event `dt` seconds along its timeline (a span, both ends):
    /// how a stream timed from a later origin joins an earlier one.
    pub fn shift(&mut self, dt: f64) {
        match self {
            Event::Meta { .. } | Event::Traffic { .. } => {}
            Event::Span(s) => {
                s.start += dt;
                s.end += dt;
            }
            Event::Remap(d) => d.time += dt,
            Event::Migration { time, .. }
            | Event::Recovery { time, .. }
            | Event::Job { time, .. } => *time += dt,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_kind_names_round_trip() {
        for k in SpanKind::ALL {
            assert_eq!(SpanKind::from_name(k.name()), Some(k));
        }
        assert_eq!(SpanKind::from_name("bogus"), None);
    }

    #[test]
    fn span_duration() {
        let s = Span { node: 0, kind: SpanKind::Compute, phase: 1, start: 1.0, end: 2.5 };
        assert!((s.duration() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn event_type_names_are_distinct() {
        let events = [
            Event::Meta { mode: "runtime".into(), nodes: 1, phases: 1, policy: "x".into() },
            Event::Span(Span { node: 0, kind: SpanKind::Halo, phase: 1, start: 0.0, end: 1.0 }),
            Event::Migration { time: 0.0, phase: 1, from: 0, to: 1, planes: 1, bytes: 8 },
            Event::Traffic {
                node: 0,
                tag: "f_halo".into(),
                sent_messages: 1,
                sent_bytes: 8,
                recv_messages: 1,
                recv_bytes: 8,
            },
            Event::Recovery {
                time: 0.5,
                node: 0,
                epoch: 2,
                stage: RecoveryStage::Rollback,
                phase: 5,
                planes: 10,
                detail: "restored ckpt".into(),
            },
            Event::Job {
                time: 0.6,
                sweep: 1,
                key: "a1b2c3".into(),
                stage: JobStage::Done,
                phase: 12,
                detail: "exit 0".into(),
            },
        ];
        let mut names: Vec<&str> = events.iter().map(|e| e.type_name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 6);
        for e in &events {
            let mut later = e.clone();
            later.shift(2.0);
            assert_eq!(later.time(), e.time().map(|t| t + 2.0), "{e:?}");
            if let (Event::Span(a), Event::Span(b)) = (e, &later) {
                assert_eq!(b.duration(), a.duration());
            }
        }
    }

    #[test]
    fn recovery_stage_names_round_trip() {
        for s in RecoveryStage::ALL {
            assert_eq!(RecoveryStage::from_name(s.name()), Some(s));
        }
        for retired in ["bogus", "remesh", "plan-applied"] {
            assert_eq!(RecoveryStage::from_name(retired), None, "{retired}");
        }
    }

    #[test]
    fn job_stage_names_round_trip() {
        for s in JobStage::ALL {
            assert_eq!(JobStage::from_name(s.name()), Some(s));
        }
        assert_eq!(JobStage::from_name("bogus"), None);
    }
}
