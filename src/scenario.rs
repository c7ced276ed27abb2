//! The canonical [`Scenario`] value type — one description of a run that
//! every consumer shares.
//!
//! Before this module, configuring a run meant threading state through
//! four crates by hand, and the old `RunBuilder` could only *finalize*
//! a description — it could not be serialized, compared, or hashed. A
//! [`Scenario`] is a plain value: geometry + physics + boundary
//! conditions + schedule, with
//!
//! * a canonical binary codec ([`Scenario::canonical_bytes`] /
//!   [`Scenario::decode`]) built on the same conventions as
//!   [`config_codec`](crate::lbm::config_codec), and
//! * a content-address key ([`Scenario::key`]): the FNV-1a 64 hash of the
//!   canonical bytes, in hex — what the sweep daemon's result cache is
//!   addressed by.
//!
//! The CLI, the serve daemon, the cache, and the tests all consume this
//! one type, so "the same scenario" means the same thing everywhere:
//! byte-equal canonical encodings, equal keys, bitwise-equal results.
//!
//! Execution substrate is selected at finalization, not in the value:
//!
//! * [`Scenario::runtime`] → a [`Runtime`] on real threads;
//! * [`Scenario::multiprocess`] → a [`Multiprocess`] over localhost TCP;
//! * [`Scenario::cluster`] → a [`ClusterExperiment`] on the calibrated
//!   virtual-time engine.
//!
//! The attached [`TraceSink`] is execution-side observability, **not**
//! part of the scenario's identity: it is excluded from the canonical
//! bytes, so tracing a run never changes its cache key.
//!
//! ```
//! use microslip::prelude::*;
//!
//! let outcome = Scenario::paper_scaled(16, 6, 4)
//!     .workers(2)
//!     .phases(4)
//!     .runtime()
//!     .unwrap()
//!     .run();
//! assert_eq!(outcome.final_counts().iter().sum::<usize>(), 16);
//! ```
//!
//! The per-crate constructors ([`RuntimeConfig::new`],
//! [`ClusterConfig::paper`], …) remain as thin, stable shims for code that
//! wants full manual control; new code should prefer the scenario.

use std::path::Path;
use std::sync::Arc;

use microslip_balance::policy::NeighborPolicy;
use microslip_codec::{put_f64, put_u64, Reader};
use microslip_cluster::{
    run_scheme_traced, ClusterConfig, CostModel, Dedicated, Disturbance, RunResult, Scheme,
};
use microslip_lbm::config_codec::{decode_config, encode_config};
use microslip_lbm::{ChannelConfig, Dims, WallBc};
use microslip_obs::TraceSink;
use microslip_runtime::{run_parallel, LoadModel, RunOutcome, RuntimeConfig};

use crate::mp::{run_multiprocess, MpConfig, MpFailure, MpOutcome};

/// Scenario-codec magic ("MSLIPSC2" — microslip scenario v2, which
/// dropped the per-worker thread count).
pub const MAGIC: [u8; 8] = *b"MSLIPSC2";

/// One complete, self-contained description of a run: the channel physics
/// plus the parallel schedule. Finalize onto a substrate with
/// [`runtime`](Scenario::runtime), [`multiprocess`](Scenario::multiprocess)
/// or [`cluster`](Scenario::cluster).
#[derive(Clone, Debug)]
pub struct Scenario {
    /// Geometry, physics and boundary conditions.
    pub channel: ChannelConfig,
    /// Workers (threaded), ranks (multiprocess) or virtual nodes (cluster).
    pub workers: usize,
    /// LBM phases (time steps) to run.
    pub phases: u64,
    /// Phases between remap rounds; 0 disables remapping entirely.
    pub remap_every: u64,
    /// Window of the harmonic-mean load predictor (paper: 10).
    pub predictor_window: usize,
    /// Remapping scheme.
    pub scheme: Scheme,
    /// Sparse per-rank whole-run slowdowns as `(rank, factor ≥ 1)`.
    pub throttle: Vec<(usize, f64)>,
    /// Transient slowdowns as `(rank, from_phase, to_phase, factor)`.
    pub spikes: Vec<(usize, u64, u64, f64)>,
    /// Load-index source for the remap predictor.
    pub load: LoadModel,
    /// Observability sink — execution-side, deliberately **excluded**
    /// from [`canonical_bytes`](Scenario::canonical_bytes) and therefore
    /// from the cache key.
    trace: TraceSink,
}

/// Equality of what a scenario describes: the channel and the schedule.
/// The trace sink is not part of a scenario's identity (see the module
/// docs), so it is skipped — by name, so a new field must be placed.
impl PartialEq for Scenario {
    fn eq(&self, other: &Scenario) -> bool {
        let Scenario {
            channel,
            workers,
            phases,
            remap_every,
            predictor_window,
            scheme,
            throttle,
            spikes,
            load,
            trace: _,
        } = self;
        *channel == other.channel
            && *workers == other.workers
            && *phases == other.phases
            && *remap_every == other.remap_every
            && *predictor_window == other.predictor_window
            && *scheme == other.scheme
            && *throttle == other.throttle
            && *spikes == other.spikes
            && *load == other.load
    }
}

impl Scenario {
    /// Starts from an explicit channel configuration.
    ///
    /// Defaults: 4 workers, 100 phases, filtered remapping every 10
    /// phases, predictor window 10, tracing disabled.
    pub fn new(channel: ChannelConfig) -> Self {
        Scenario {
            channel,
            workers: 4,
            phases: 100,
            remap_every: 10,
            predictor_window: 10,
            scheme: Scheme::Filtered,
            throttle: Vec::new(),
            spikes: Vec::new(),
            load: LoadModel::Measured,
            trace: TraceSink::null(),
        }
    }

    /// Starts from the paper's physics scaled to an `nx × ny × nz`
    /// lattice, with a small body force so the flow is non-trivial.
    pub fn paper_scaled(nx: usize, ny: usize, nz: usize) -> Self {
        let mut channel = ChannelConfig::paper_scaled(Dims::new(nx, ny, nz));
        channel.body = [1.0e-4, 0.0, 0.0];
        Self::new(channel)
    }

    /// Number of workers (threaded run) or virtual nodes (cluster run).
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// LBM phases (time steps) to run.
    pub fn phases(mut self, phases: u64) -> Self {
        self.phases = phases;
        self
    }

    /// Phases between remap rounds; 0 disables remapping entirely.
    pub fn remap_every(mut self, interval: u64) -> Self {
        self.remap_every = interval;
        self
    }

    /// Window of the harmonic-mean load predictor (paper: 10).
    pub fn predictor_window(mut self, window: usize) -> Self {
        self.predictor_window = window;
        self
    }

    /// Remapping scheme. All four schemes run on the virtual cluster;
    /// [`Scheme::Global`] needs a collective and is rejected by the
    /// threaded and multiprocess finalizers.
    pub fn scheme(mut self, scheme: Scheme) -> Self {
        self.scheme = scheme;
        self
    }

    /// Slows worker `rank` down by `factor` (≥ 1) for the whole run — the
    /// threaded analogue of a node with a competing job.
    pub fn throttle(mut self, rank: usize, factor: f64) -> Self {
        self.throttle.push((rank, factor));
        self
    }

    /// Adds a transient slowdown of `factor` on `rank` for phases
    /// `[from, to)`.
    pub fn spike(mut self, rank: usize, from: u64, to: u64, factor: f64) -> Self {
        self.spikes.push((rank, from, to, factor));
        self
    }

    /// Wall boundary condition at the channel's y/z walls (default:
    /// halfway bounce-back, i.e. no-slip). Part of the scenario's
    /// identity through the channel codec, so sweeping slip parameters
    /// produces distinct cache keys.
    pub fn wall_bc(mut self, bc: WallBc) -> Self {
        self.channel.wall_bc = bc;
        self
    }

    /// Load-index source for the remap predictor. The default
    /// ([`LoadModel::Measured`]) uses wall-clock kernel time, like the
    /// paper; [`LoadModel::Synthetic`] derives load from the throttle
    /// factors alone, which makes remap decisions a pure function of the
    /// configuration — a threaded run and a multi-process run then take
    /// *identical* decisions (compare them with
    /// [`microslip_obs::remap_fingerprints`]).
    pub fn load_model(mut self, load: LoadModel) -> Self {
        self.load = load;
        self
    }

    /// Attaches an observability sink; every finalizer threads it
    /// through, so traces from the substrates are directly diffable.
    /// Not part of the scenario's identity (see the module docs).
    pub fn trace(mut self, sink: TraceSink) -> Self {
        self.trace = sink;
        self
    }

    // ------------------------------------------------------------------
    // Canonical codec and content addressing
    // ------------------------------------------------------------------

    /// Serializes the scenario into its canonical byte form: the magic,
    /// the length-prefixed [`encode_config`] bytes of the channel, then
    /// the schedule fields in declaration order (little-endian, bit-exact
    /// `f64`s). Encoding is a pure function of the fields, so byte
    /// equality is scenario equality — which is what makes
    /// [`key`](Scenario::key) a sound cache address.
    pub fn canonical_bytes(&self) -> Vec<u8> {
        // No `..`: a field added to the scenario is a compile error here
        // until it is encoded or, like the trace sink, explicitly skipped.
        let Scenario {
            channel,
            workers,
            phases,
            remap_every,
            predictor_window,
            scheme,
            throttle,
            spikes,
            load,
            trace: _,
        } = self;
        let mut out = Vec::new();
        out.extend_from_slice(&MAGIC);
        let channel = encode_config(channel);
        put_u64(&mut out, channel.len() as u64);
        out.extend_from_slice(&channel);
        put_u64(&mut out, *workers as u64);
        put_u64(&mut out, *phases);
        put_u64(&mut out, *remap_every);
        put_u64(&mut out, *predictor_window as u64);
        put_u64(&mut out, scheme_code(*scheme));
        put_u64(&mut out, throttle.len() as u64);
        for &(rank, factor) in throttle {
            put_u64(&mut out, rank as u64);
            put_f64(&mut out, factor);
        }
        put_u64(&mut out, spikes.len() as u64);
        for &(rank, from, to, factor) in spikes {
            put_u64(&mut out, rank as u64);
            put_u64(&mut out, from);
            put_u64(&mut out, to);
            put_f64(&mut out, factor);
        }
        match *load {
            LoadModel::Measured => put_u64(&mut out, 0),
            LoadModel::Synthetic { per_point } => {
                put_u64(&mut out, 1);
                put_f64(&mut out, per_point);
            }
        }
        out
    }

    /// Restores a scenario from [`canonical_bytes`](Self::canonical_bytes)
    /// output. This runs on untrusted wire bytes in the serve daemon, so
    /// every failure is a typed error — never a panic.
    pub fn decode(bytes: &[u8]) -> Result<Scenario, String> {
        if !bytes.starts_with(&MAGIC) {
            return Err("not a microslip scenario (bad magic)".into());
        }
        let mut r = Reader::new("scenario", bytes, 8);
        let channel_len = r.usize()?;
        if channel_len > 1 << 24 {
            return Err(format!("implausible channel config length {channel_len}"));
        }
        let channel = decode_config(r.take(channel_len)?)?;
        let workers = r.usize()?;
        let phases = r.u64()?;
        let remap_every = r.u64()?;
        let predictor_window = r.usize()?;
        let scheme = scheme_from_code(r.u64()?)?;
        let nthrottle = r.usize()?;
        if nthrottle > 1 << 16 {
            return Err(format!("implausible throttle count {nthrottle}"));
        }
        // Sized by the records read, not by the counts.
        let throttle =
            (0..nthrottle).map(|_| Ok((r.usize()?, r.f64()?))).collect::<Result<_, String>>()?;
        let nspikes = r.usize()?;
        if nspikes > 1 << 16 {
            return Err(format!("implausible spike count {nspikes}"));
        }
        let spikes = (0..nspikes)
            .map(|_| Ok((r.usize()?, r.u64()?, r.u64()?, r.f64()?)))
            .collect::<Result<_, String>>()?;
        let load = match r.u64()? {
            0 => LoadModel::Measured,
            1 => LoadModel::Synthetic { per_point: r.f64()? },
            d => return Err(format!("unknown load-model discriminant {d}")),
        };
        r.finish()?;
        Ok(Scenario {
            channel,
            workers,
            phases,
            remap_every,
            predictor_window,
            scheme,
            throttle,
            spikes,
            load,
            trace: TraceSink::null(),
        })
    }

    /// Reads the file a driver wrote [`canonical_bytes`](Self::canonical_bytes)
    /// to — how an `mp` rank and a `serve` job are told what to run.
    pub fn read_file(path: &Path) -> Result<Scenario, String> {
        let bytes =
            std::fs::read(path).map_err(|e| format!("reading {}: {e}", path.display()))?;
        Scenario::decode(&bytes).map_err(|e| format!("{}: {e}", path.display()))
    }

    /// The scenario's content-address key: FNV-1a 64 over the canonical
    /// bytes, as 16 lowercase hex characters. Identical scenarios — and
    /// only identical scenarios, up to hash collision — share a key; the
    /// sweep daemon's result cache is addressed by it.
    pub fn key(&self) -> String {
        format!("{:016x}", fnv1a64(&self.canonical_bytes()))
    }

    // ------------------------------------------------------------------
    // Finalizers
    // ------------------------------------------------------------------

    fn validate_for(&self, role: &str) -> Result<(), String> {
        if self.workers == 0 {
            return Err(format!("need at least one {role}"));
        }
        if self.channel.dims.nx < self.workers {
            return Err(format!(
                "need at least one plane per {role} ({} planes < {} {role}s)",
                self.channel.dims.nx, self.workers
            ));
        }
        Ok(())
    }

    /// What the worker protocol demands of a scenario, on threads and on
    /// rank processes alike (`role` names them in the error): a
    /// neighbor-local scheme, a plane per `role`, a valid channel,
    /// throttle ranks in range and well-formed spikes. Returns the policy
    /// and the dense throttle.
    pub(crate) fn validate_ranks(
        &self,
        role: &str,
    ) -> Result<(Arc<dyn NeighborPolicy>, Vec<f64>), String> {
        let policy = self.scheme.neighbor_policy()?;
        self.validate_for(role)?;
        self.channel.validate()?;
        validate_spikes(&self.spikes, self.workers, role)?;
        Ok((policy, expand_throttle(&self.throttle, self.workers, role)?))
    }

    /// Finalizes into a threaded [`Runtime`].
    pub fn runtime(self) -> Result<Runtime, String> {
        let (policy, throttle) = self.validate_ranks("worker")?;
        let mut cfg = RuntimeConfig::new(self.channel, self.workers, self.phases);
        cfg.remap_interval = self.remap_every;
        cfg.predictor_window = self.predictor_window;
        cfg.load = self.load;
        cfg.trace = self.trace;
        cfg.spikes = self.spikes;
        cfg.throttle = throttle;
        Ok(Runtime { cfg, policy })
    }

    /// Finalizes into a [`Multiprocess`] run: the same worker protocol as
    /// [`runtime`](Scenario::runtime), but with every rank in its own OS
    /// process over localhost TCP (see [`crate::mp`]). The scenario's
    /// trace sink is not carried over — each worker process records its
    /// own trace, and the driver merges them into [`MpOutcome::events`].
    pub fn multiprocess(self) -> Result<Multiprocess, String> {
        self.validate_ranks("rank")?;
        Ok(Multiprocess { cfg: MpConfig::new(self) })
    }

    /// Finalizes into a virtual-time [`ClusterExperiment`] with the *same
    /// geometry*: one virtual node per worker, one plane per lattice
    /// plane (`planes = nx`, `plane_cells = ny × nz`), the paper's
    /// calibrated cost model.
    pub fn cluster(self) -> Result<ClusterExperiment, String> {
        self.validate_for("node")?;
        let d = self.channel.dims;
        let cfg = ClusterConfig {
            nodes: self.workers,
            phases: self.phases,
            // The engine triggers on `phase % interval`; interval 0 means
            // "never", which the modulus cannot express directly.
            remap_interval: if self.remap_every == 0 {
                self.phases.saturating_add(1)
            } else {
                self.remap_every
            },
            planes: d.nx,
            plane_cells: d.ny * d.nz,
            components: self.channel.ncomp(),
            cost: CostModel::paper(),
            predictor_window: self.predictor_window,
        };
        Ok(ClusterExperiment { cfg, scheme: self.scheme, trace: self.trace })
    }
}

/// FNV-1a 64-bit over `bytes` — small, dependency-free, and stable across
/// platforms, which is what a persistent cache address needs.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn scheme_code(scheme: Scheme) -> u64 {
    match scheme {
        Scheme::NoRemap => 0,
        Scheme::Filtered => 1,
        Scheme::Conservative => 2,
        Scheme::Global => 3,
    }
}

fn scheme_from_code(code: u64) -> Result<Scheme, String> {
    match code {
        0 => Ok(Scheme::NoRemap),
        1 => Ok(Scheme::Filtered),
        2 => Ok(Scheme::Conservative),
        3 => Ok(Scheme::Global),
        d => Err(format!("unknown scheme discriminant {d}")),
    }
}

/// Expands sparse `(rank, factor)` throttle pairs into a dense per-rank
/// vector, refusing a missing rank and a factor that is not finite and
/// ≥ 1 (which [`microslip_runtime::ThrottlePlan`] would clamp to 1).
fn expand_throttle(pairs: &[(usize, f64)], workers: usize, role: &str) -> Result<Vec<f64>, String> {
    if pairs.is_empty() {
        return Ok(Vec::new());
    }
    let mut out = vec![1.0; workers];
    for &(rank, factor) in pairs {
        if !factor.is_finite() || factor < 1.0 {
            return Err(format!("throttle factor {factor} on rank {rank} is not a finite factor ≥ 1"));
        }
        match out.get_mut(rank) {
            Some(slot) => *slot = factor,
            None => {
                return Err(format!("throttle rank {rank} out of range for {workers} {role}s"))
            }
        }
    }
    Ok(out)
}

/// Every spike names an existing rank, a non-empty phase range and a
/// finite factor ≥ 1 — what [`microslip_runtime::ThrottlePlan::with_spike`]
/// and [`microslip_runtime::Throttle::new`] assert once the run is under way.
fn validate_spikes(
    spikes: &[(usize, u64, u64, f64)],
    workers: usize,
    role: &str,
) -> Result<(), String> {
    for &(rank, from, to, factor) in spikes {
        if rank >= workers {
            return Err(format!("spike rank {rank} out of range for {workers} {role}s"));
        }
        if from >= to {
            return Err(format!("spike on rank {rank} covers no phase: [{from}, {to}) is empty"));
        }
        if !factor.is_finite() || factor < 1.0 {
            return Err(format!("spike factor {factor} on rank {rank} is not a finite factor ≥ 1"));
        }
    }
    Ok(())
}

/// A fully-validated threaded run, ready to execute.
#[derive(Clone)]
pub struct Runtime {
    cfg: RuntimeConfig,
    policy: Arc<dyn NeighborPolicy>,
}

impl std::fmt::Debug for Runtime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Runtime")
            .field("cfg", &self.cfg)
            .field("policy", &self.policy.name())
            .finish()
    }
}

impl Runtime {
    /// The underlying runtime configuration (escape hatch for knobs the
    /// scenario does not surface, e.g. `checkpoint_every`).
    pub fn config(&self) -> &RuntimeConfig {
        &self.cfg
    }

    /// Mutable escape hatch.
    pub fn config_mut(&mut self) -> &mut RuntimeConfig {
        &mut self.cfg
    }

    /// The policy object the run will use.
    pub fn policy(&self) -> Arc<dyn NeighborPolicy> {
        Arc::clone(&self.policy)
    }

    /// Executes the run on `workers` threads.
    pub fn run(&self) -> RunOutcome {
        run_parallel(&self.cfg, self.policy())
    }
}

/// A fully-validated multi-process run, ready to fork its workers.
#[derive(Clone, Debug)]
pub struct Multiprocess {
    cfg: MpConfig,
}

impl Multiprocess {
    /// The underlying configuration (escape hatch for knobs the scenario
    /// does not surface: checkpointing, resume, run directory, fault
    /// injection).
    pub fn config(&self) -> &MpConfig {
        &self.cfg
    }

    /// Mutable escape hatch.
    pub fn config_mut(&mut self) -> &mut MpConfig {
        &mut self.cfg
    }

    /// Forks the worker processes and gathers the stitched outcome.
    pub fn run(&self) -> Result<MpOutcome, MpFailure> {
        run_multiprocess(&self.cfg)
    }
}

/// A virtual-time cluster experiment with the scenario's geometry.
#[derive(Clone, Debug)]
pub struct ClusterExperiment {
    cfg: ClusterConfig,
    scheme: Scheme,
    trace: TraceSink,
}

impl ClusterExperiment {
    /// Replays the run under `disturbance` on the virtual-time engine.
    pub fn run(&self, disturbance: &dyn Disturbance) -> RunResult {
        run_scheme_traced(&self.cfg, self.scheme, disturbance, &self.trace)
    }

    /// Replays the run on a dedicated (undisturbed) virtual cluster.
    pub fn run_dedicated(&self) -> RunResult {
        self.run(&Dedicated)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use microslip_obs::{to_jsonl, validate_jsonl, DEFAULT_CAPACITY};

    #[test]
    fn build_rejects_global_and_bad_geometry() {
        assert!(Scenario::paper_scaled(16, 6, 4).scheme(Scheme::Global).runtime().is_err());
        assert!(Scenario::paper_scaled(2, 6, 4).workers(4).runtime().is_err());
        assert!(Scenario::paper_scaled(16, 6, 4).workers(0).runtime().is_err());
        assert!(Scenario::paper_scaled(16, 6, 4).throttle(9, 2.0).runtime().is_err());
        // Global is fine on the virtual cluster, and refused on ranks.
        assert!(Scenario::paper_scaled(16, 6, 4).scheme(Scheme::Global).cluster().is_ok());
        assert!(Scenario::paper_scaled(16, 6, 4).scheme(Scheme::Global).multiprocess().is_err());
        assert!(Scenario::paper_scaled(16, 6, 4).workers(0).cluster().is_err());
    }

    /// `scenario()` finalized for threads and for rank processes: both
    /// must refuse it with an error naming `needle`, before anything runs.
    fn assert_refused(scenario: impl Fn() -> Scenario, needle: &str) {
        let threaded = scenario().runtime().expect_err("runtime() accepted a bad scenario");
        assert!(threaded.contains(needle), "{threaded}");
        let ranks = scenario().multiprocess().expect_err("multiprocess() accepted it");
        assert!(ranks.contains(needle), "{ranks}");
    }

    fn assert_spike_refused(spike: (usize, u64, u64, f64), needle: &str) {
        let (rank, from, to, factor) = spike;
        assert_refused(|| Scenario::paper_scaled(16, 6, 4).workers(2).spike(rank, from, to, factor), needle);
    }

    #[test]
    fn a_spike_on_a_missing_rank_is_refused() {
        assert_spike_refused((2, 1, 4, 2.0), "spike rank 2 out of range");
    }

    #[test]
    fn a_spike_over_no_phase_is_refused() {
        assert_spike_refused((1, 4, 4, 2.0), "covers no phase");
        assert_spike_refused((1, 5, 4, 2.0), "covers no phase");
    }

    #[test]
    fn a_spike_factor_below_one_is_refused() {
        assert_spike_refused((1, 1, 4, 0.5), "spike factor");
    }

    #[test]
    fn a_spike_factor_that_is_not_a_number_is_refused() {
        assert_spike_refused((1, 1, 4, f64::NAN), "spike factor");
        assert_spike_refused((1, 1, 4, f64::INFINITY), "spike factor");
    }

    #[test]
    fn a_throttle_factor_below_one_or_not_a_number_is_refused() {
        for factor in [0.5, 0.0, -2.0, f64::NAN, f64::INFINITY] {
            let scenario = || Scenario::paper_scaled(16, 6, 4).workers(2).throttle(1, factor);
            assert_refused(scenario, "throttle factor");
        }
        assert!(Scenario::paper_scaled(16, 6, 4).workers(2).throttle(1, 1.0).runtime().is_ok());
    }

    #[test]
    fn cluster_geometry_is_derived_from_the_channel() {
        let ex = Scenario::paper_scaled(16, 6, 4)
            .workers(4)
            .phases(30)
            .remap_every(0)
            .cluster()
            .unwrap();
        let c = &ex.cfg;
        assert_eq!(c.planes, 16);
        assert_eq!(c.plane_cells, 24);
        assert_eq!(c.components, 2);
        assert!(c.remap_interval > c.phases, "interval 0 must mean never");
        let r = ex.run_dedicated();
        assert_eq!(r.final_counts.iter().sum::<usize>(), 16);
    }

    #[test]
    fn traced_scenario_run_emits_valid_jsonl() {
        let (sink, rec) = TraceSink::recorder(DEFAULT_CAPACITY);
        let outcome = Scenario::paper_scaled(16, 6, 4)
            .workers(2)
            .phases(4)
            .remap_every(2)
            .predictor_window(2)
            .trace(sink)
            .runtime()
            .unwrap()
            .run();
        assert_eq!(outcome.final_counts().iter().sum::<usize>(), 16);
        let stats = validate_jsonl(&to_jsonl(&rec.events())).unwrap();
        assert!(stats.counts["span"] > 0);
        assert_eq!(stats.counts["meta"], 1);
    }

    fn exotic_scenario() -> Scenario {
        Scenario::paper_scaled(20, 6, 4)
            .workers(3)
            .phases(40)
            .remap_every(5)
            .predictor_window(7)
            .scheme(Scheme::Conservative)
            .throttle(1, 6.0)
            .spike(2, 10, 20, 3.0)
            .load_model(LoadModel::Synthetic { per_point: 1.5 })
    }

    #[test]
    fn canonical_codec_roundtrips_byte_exactly() {
        for s in [Scenario::paper_scaled(8, 6, 4), exotic_scenario()] {
            let bytes = s.canonical_bytes();
            let back = Scenario::decode(&bytes).expect("decode");
            assert_eq!(back.canonical_bytes(), bytes);
            assert_eq!(back.key(), s.key());
        }
    }

    #[test]
    fn tracing_does_not_change_identity() {
        let plain = Scenario::paper_scaled(8, 6, 4);
        let (sink, _rec) = TraceSink::recorder(16);
        let traced = Scenario::paper_scaled(8, 6, 4).trace(sink);
        assert_eq!(plain.canonical_bytes(), traced.canonical_bytes());
        assert_eq!(plain.key(), traced.key());
    }

    #[test]
    fn decode_rejects_corruption_without_panicking() {
        let bytes = exotic_scenario().canonical_bytes();
        assert!(Scenario::decode(b"").is_err());
        assert!(Scenario::decode(b"XXLIPSC1").is_err());
        for cut in (8..bytes.len()).step_by(5) {
            assert!(Scenario::decode(&bytes[..cut]).is_err(), "prefix {cut} accepted");
        }
        let mut trailing = bytes.clone();
        trailing.push(0);
        assert!(Scenario::decode(&trailing).unwrap_err().contains("trailing"));
    }
}
