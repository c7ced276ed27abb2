//! Disturbance models: how competing jobs steal CPU from cluster nodes.
//!
//! The paper's experiments inject three kinds of background load:
//!
//! * **fixed slow nodes** — a CPU-bound job pinned to a set of nodes takes
//!   70 % of the CPU for the whole run (§4.2: node speed drops to 0.3);
//! * **duty-cycle disturbance** — every 10 s window the competing job is
//!   busy for a fraction *p* and sleeps the rest (§3.1, Fig. 3);
//! * **transient spikes** — every 10 s a *random* node runs a 70 % job for
//!   1–4 s (§4.2.4, Table 1).
//!
//! A disturbance exposes the node's instantaneous speed multiplier and the
//! next time that multiplier may change, so the engine can integrate work
//! over piecewise-constant speed exactly and deterministically.

/// The CPU share left to the simulation while a 70 % competing job runs.
pub const SLOW_SPEED: f64 = 0.3;

/// The injector's window length in seconds (paper: "every 10 seconds").
pub const WINDOW: f64 = 10.0;

/// A node-speed schedule.
pub trait Disturbance: Send + Sync {
    /// Speed multiplier of `node` at virtual time `t` (1.0 = dedicated).
    fn speed(&self, node: usize, t: f64) -> f64;

    /// The earliest time strictly greater than `t` at which
    /// `speed(node, ·)` may change; `f64::INFINITY` if never.
    fn next_change(&self, node: usize, t: f64) -> f64;

    /// Background load level of `node` at `t` (0 = idle competitor), used
    /// for blocking-wakeup penalties. Default: `1 − speed`.
    fn load(&self, node: usize, t: f64) -> f64 {
        1.0 - self.speed(node, t)
    }
}

/// A dedicated cluster: every node at full speed, always.
#[derive(Clone, Copy, Debug, Default)]
pub struct Dedicated;

impl Disturbance for Dedicated {
    fn speed(&self, _node: usize, _t: f64) -> f64 {
        1.0
    }

    fn next_change(&self, _node: usize, _t: f64) -> f64 {
        f64::INFINITY
    }
}

/// A fixed set of nodes runs a persistent competing job.
#[derive(Clone, Debug)]
pub struct FixedSlowNodes {
    slow: Vec<bool>,
    speed: f64,
}

impl FixedSlowNodes {
    /// Marks `nodes` (indices) slow among `total` nodes at `speed`.
    pub fn new(total: usize, nodes: &[usize], speed: f64) -> Self {
        assert!((0.0..=1.0).contains(&speed) && speed > 0.0);
        let mut slow = vec![false; total];
        for &n in nodes {
            assert!(n < total, "slow node {n} out of range");
            slow[n] = true;
        }
        FixedSlowNodes { slow, speed }
    }

    /// The paper's setup: the first `m` of the "selected" nodes are slowed
    /// to 30 %. Node 9 first (the profiled node of Fig. 9), then spread.
    /// Panics if `m` exceeds [`paper_max`](Self::paper_max).
    pub fn paper(total: usize, m: usize) -> Self {
        let chosen: Vec<usize> = Self::paper_order(total).take(m).collect();
        assert_eq!(chosen.len(), m, "not enough distinct nodes for m={m}");
        FixedSlowNodes::new(total, &chosen, SLOW_SPEED)
    }

    /// How many slow nodes [`paper`](Self::paper) can place on `total`
    /// nodes.
    pub fn paper_max(total: usize) -> usize {
        Self::paper_order(total).count()
    }

    fn paper_order(total: usize) -> impl Iterator<Item = usize> {
        [9usize, 3, 14, 6, 17, 1, 11, 19, 8, 4].into_iter().filter(move |&n| n < total)
    }
}

impl Disturbance for FixedSlowNodes {
    fn speed(&self, node: usize, _t: f64) -> f64 {
        if self.slow[node] {
            self.speed
        } else {
            1.0
        }
    }

    fn next_change(&self, _node: usize, _t: f64) -> f64 {
        f64::INFINITY
    }
}

/// One node's competing job is busy for the first `fraction` of every
/// [`WINDOW`]-second window (Fig. 3's injector).
#[derive(Clone, Copy, Debug)]
pub struct DutyCycle {
    pub node: usize,
    /// Busy fraction of each window, 0 ..= 1.
    pub fraction: f64,
    /// Node speed while the competitor is busy.
    pub speed: f64,
}

impl DutyCycle {
    /// The paper's Fig. 3 configuration at disturbance level `fraction`.
    pub fn paper(node: usize, fraction: f64) -> Self {
        assert!((0.0..=1.0).contains(&fraction));
        DutyCycle { node, fraction, speed: SLOW_SPEED }
    }

    fn busy_until(&self, window_start: f64) -> f64 {
        window_start + self.fraction * WINDOW
    }
}

impl Disturbance for DutyCycle {
    fn speed(&self, node: usize, t: f64) -> f64 {
        if node != self.node || self.fraction == 0.0 {
            return 1.0;
        }
        let window_start = (t / WINDOW).floor() * WINDOW;
        if t < self.busy_until(window_start) {
            self.speed
        } else {
            1.0
        }
    }

    fn next_change(&self, node: usize, t: f64) -> f64 {
        if node != self.node || self.fraction == 0.0 {
            return f64::INFINITY;
        }
        if self.fraction >= 1.0 {
            return f64::INFINITY;
        }
        let window_start = (t / WINDOW).floor() * WINDOW;
        let busy_end = self.busy_until(window_start);
        if t < busy_end {
            busy_end
        } else {
            window_start + WINDOW
        }
    }
}

/// Every window a uniformly random node runs the competing job for
/// `spike_len` seconds (Table 1's injector). The victim sequence is drawn
/// once from the seed, so runs are reproducible.
#[derive(Clone, Debug)]
pub struct TransientSpikes {
    victims: Vec<usize>,
    pub spike_len: f64,
    pub speed: f64,
}

impl TransientSpikes {
    /// Pre-draws victims for `horizon_windows` windows over `total` nodes.
    pub fn new(total: usize, spike_len: f64, seed: u64, horizon_windows: usize) -> Self {
        assert!(spike_len > 0.0 && spike_len <= WINDOW);
        let mut rng = Xoshiro::new(seed);
        let victims = (0..horizon_windows).map(|_| rng.below(total)).collect();
        TransientSpikes { victims, spike_len, speed: SLOW_SPEED }
    }

    fn victim(&self, window: usize) -> Option<usize> {
        self.victims.get(window).copied()
    }
}

impl Disturbance for TransientSpikes {
    fn speed(&self, node: usize, t: f64) -> f64 {
        let window = (t / WINDOW).floor() as usize;
        let within = t - window as f64 * WINDOW;
        match self.victim(window) {
            Some(v) if v == node && within < self.spike_len => self.speed,
            _ => 1.0,
        }
    }

    fn next_change(&self, node: usize, t: f64) -> f64 {
        let window = (t / WINDOW).floor() as usize;
        let window_start = window as f64 * WINDOW;
        let within = t - window_start;
        match self.victim(window) {
            Some(v) if v == node && within < self.spike_len => window_start + self.spike_len,
            // Next possible involvement is the start of the next window.
            _ => window_start + WINDOW,
        }
    }
}

/// A statically heterogeneous cluster: each node has its own base speed
/// (e.g. mixed hardware generations). Composes with dynamic disturbances
/// via [`Compose`].
#[derive(Clone, Debug)]
pub struct BaseSpeeds {
    speeds: Vec<f64>,
}

impl BaseSpeeds {
    pub fn new(speeds: Vec<f64>) -> Self {
        assert!(!speeds.is_empty());
        assert!(speeds.iter().all(|&s| s > 0.0 && s <= 1.0), "speeds must be in (0, 1]");
        BaseSpeeds { speeds }
    }

    /// Deterministic pseudo-random speeds in `[lo, hi]` for `n` nodes.
    pub fn random(n: usize, lo: f64, hi: f64, seed: u64) -> Self {
        assert!(0.0 < lo && lo <= hi && hi <= 1.0);
        let mut rng = Xoshiro::new(seed);
        BaseSpeeds::new((0..n).map(|_| rng.between(lo, hi)).collect())
    }
}

impl Disturbance for BaseSpeeds {
    fn speed(&self, node: usize, _t: f64) -> f64 {
        self.speeds[node]
    }

    fn next_change(&self, _node: usize, _t: f64) -> f64 {
        f64::INFINITY
    }

    fn load(&self, _node: usize, _t: f64) -> f64 {
        // A slow machine is not a *contended* machine: no competing job,
        // so no scheduling latency.
        0.0
    }
}

/// The product of two disturbances: speeds multiply, loads add (capped at
/// 1), and the next change is whichever happens first. Models e.g. a
/// heterogeneous cluster that also suffers background jobs.
#[derive(Clone, Debug)]
pub struct Compose<A, B>(pub A, pub B);

impl<A: Disturbance, B: Disturbance> Disturbance for Compose<A, B> {
    fn speed(&self, node: usize, t: f64) -> f64 {
        self.0.speed(node, t) * self.1.speed(node, t)
    }

    fn next_change(&self, node: usize, t: f64) -> f64 {
        self.0.next_change(node, t).min(self.1.next_change(node, t))
    }

    fn load(&self, node: usize, t: f64) -> f64 {
        (self.0.load(node, t) + self.1.load(node, t)).min(1.0)
    }
}

/// The seeded generator behind the two random disturbances: xoshiro256++
/// with its state drawn from SplitMix64, the family's standard seeding.
/// Deterministic across runs and platforms; not cryptographic.
struct Xoshiro([u64; 4]);

impl Xoshiro {
    fn new(seed: u64) -> Self {
        let mut z = seed;
        Xoshiro(std::array::from_fn(|_| {
            z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut x = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            x ^ (x >> 31)
        }))
    }

    fn next_u64(&mut self) -> u64 {
        let s = &mut self.0;
        let out = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        out
    }

    /// A draw from `0..n` by multiply-shift (the bias, about n / 2^64, is
    /// immaterial here).
    fn below(&mut self, n: usize) -> usize {
        assert!(n > 0, "cannot draw from an empty range");
        ((self.next_u64() as u128 * n as u128) >> 64) as usize
    }

    /// A draw from `lo..=hi` off 53 random mantissa bits.
    fn between(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * ((self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64))
    }
}

/// Integrates `work` seconds of unit-speed CPU starting at `t` on `node`,
/// returning the completion time under the disturbance's speed schedule.
pub fn work_to_time<D: Disturbance + ?Sized>(d: &D, node: usize, t: f64, work: f64) -> f64 {
    assert!(work >= 0.0 && work.is_finite());
    let mut t = t;
    let mut left = work;
    // Bounded loop: each iteration either finishes or crosses a speed
    // change; pathological schedules are cut off defensively.
    for _ in 0..1_000_000 {
        if left <= 0.0 {
            return t;
        }
        let s = d.speed(node, t).max(1e-9);
        let change = d.next_change(node, t);
        if change <= t {
            // Rounding can make a boundary (e.g. window_start + spike_len)
            // collapse onto t itself; force strict progress by one ulp so
            // the schedule is re-evaluated past the boundary.
            t = t.next_up();
            continue;
        }
        let capacity = (change - t) * s;
        if left <= capacity || !change.is_finite() {
            return t + left / s;
        }
        left -= capacity;
        t = change;
    }
    panic!("work_to_time failed to converge: node={node} t={t} left={left} of work={work}");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dedicated_is_identity() {
        let d = Dedicated;
        assert_eq!(work_to_time(&d, 0, 5.0, 2.5), 7.5);
        assert_eq!(d.speed(3, 100.0), 1.0);
        assert_eq!(d.load(3, 100.0), 0.0);
    }

    #[test]
    fn fixed_slow_scales_work() {
        let d = FixedSlowNodes::new(4, &[2], 0.3);
        assert_eq!(d.speed(2, 0.0), 0.3);
        assert_eq!(d.speed(1, 0.0), 1.0);
        let end = work_to_time(&d, 2, 0.0, 3.0);
        assert!((end - 10.0).abs() < 1e-9, "3s of work at 0.3 speed takes 10s, got {end}");
    }

    #[test]
    fn paper_selection_includes_node9_first() {
        let d = FixedSlowNodes::paper(20, 1);
        assert_eq!(d.speed(9, 0.0), SLOW_SPEED);
        for n in (0..20).filter(|&n| n != 9) {
            assert_eq!(d.speed(n, 0.0), 1.0);
        }
        assert_eq!(FixedSlowNodes::paper_max(20), 10);
        assert_eq!(FixedSlowNodes::paper_max(3), 1);
        assert_eq!(FixedSlowNodes::paper_max(0), 0);
    }

    #[test]
    fn duty_cycle_busy_then_idle() {
        let d = DutyCycle::paper(0, 0.6);
        assert_eq!(d.speed(0, 0.0), SLOW_SPEED);
        assert_eq!(d.speed(0, 5.9), SLOW_SPEED);
        assert_eq!(d.speed(0, 6.1), 1.0);
        assert_eq!(d.speed(0, 10.0), SLOW_SPEED); // next window
        assert_eq!(d.speed(1, 0.0), 1.0); // other nodes untouched
    }

    #[test]
    fn duty_cycle_work_integration() {
        // 60% duty: each 10s window delivers 0.3·6 + 1·4 = 5.8s of work.
        let d = DutyCycle::paper(0, 0.6);
        let end = work_to_time(&d, 0, 0.0, 5.8);
        assert!((end - 10.0).abs() < 1e-9, "got {end}");
        // Full disturbance: constant slow speed.
        let d = DutyCycle::paper(0, 1.0);
        let end = work_to_time(&d, 0, 0.0, 3.0);
        assert!((end - 10.0).abs() < 1e-9, "got {end}");
    }

    #[test]
    fn duty_cycle_next_change_alternates() {
        let d = DutyCycle::paper(0, 0.5);
        assert_eq!(d.next_change(0, 0.0), 5.0);
        assert_eq!(d.next_change(0, 5.0), 10.0);
        assert_eq!(d.next_change(0, 7.3), 10.0);
        assert_eq!(d.next_change(1, 0.0), f64::INFINITY);
    }

    #[test]
    fn transient_spikes_hit_one_node_per_window() {
        let d = TransientSpikes::new(8, 2.0, 42, 100);
        for w in 0..100 {
            let t = w as f64 * WINDOW + 1.0; // inside the spike
            let slowed: Vec<usize> =
                (0..8).filter(|&n| d.speed(n, t) < 1.0).collect();
            assert_eq!(slowed.len(), 1, "window {w}: {slowed:?}");
            // After the spike, everyone is fast.
            let t = w as f64 * WINDOW + 2.5;
            assert!((0..8).all(|n| d.speed(n, t) == 1.0));
        }
    }

    #[test]
    fn transient_spikes_deterministic_per_seed() {
        let a = TransientSpikes::new(20, 3.0, 7, 50);
        let b = TransientSpikes::new(20, 3.0, 7, 50);
        let c = TransientSpikes::new(20, 3.0, 8, 50);
        assert_eq!(a.victims, b.victims);
        assert_ne!(a.victims, c.victims);
    }

    #[test]
    fn work_to_time_crosses_many_windows() {
        // 100% duty on node 0 at speed 0.5, verify long integration.
        let d = DutyCycle { node: 0, fraction: 0.5, speed: 0.5 };
        // Each window: 0.5·5 + 1·5 = 7.5s of work.
        let end = work_to_time(&d, 0, 0.0, 75.0);
        assert!((end - 100.0).abs() < 1e-6, "got {end}");
    }

    #[test]
    fn base_speeds_are_static_and_unloaded() {
        let d = BaseSpeeds::new(vec![1.0, 0.5]);
        assert_eq!(d.speed(1, 0.0), 0.5);
        assert_eq!(d.speed(1, 1e6), 0.5);
        assert_eq!(d.load(1, 0.0), 0.0, "heterogeneity is not contention");
        assert_eq!(d.next_change(0, 3.0), f64::INFINITY);
        let end = work_to_time(&d, 1, 0.0, 2.0);
        assert!((end - 4.0).abs() < 1e-12);
    }

    #[test]
    fn random_base_speeds_deterministic_and_bounded() {
        let a = BaseSpeeds::random(10, 0.5, 1.0, 3);
        let b = BaseSpeeds::random(10, 0.5, 1.0, 3);
        for n in 0..10 {
            assert_eq!(a.speed(n, 0.0), b.speed(n, 0.0));
            assert!(a.speed(n, 0.0) >= 0.5 && a.speed(n, 0.0) <= 1.0);
        }
    }

    #[test]
    fn compose_multiplies_speeds_and_adds_loads() {
        let base = BaseSpeeds::new(vec![0.8, 1.0]);
        let jobs = FixedSlowNodes::new(2, &[0], 0.5);
        let c = Compose(base, jobs);
        assert!((c.speed(0, 0.0) - 0.4).abs() < 1e-12);
        assert_eq!(c.speed(1, 0.0), 1.0);
        // Load comes only from the competing job (0.5), not the hardware.
        assert!((c.load(0, 0.0) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn compose_next_change_is_earliest() {
        let duty = DutyCycle::paper(0, 0.3); // changes at 3.0
        let base = BaseSpeeds::new(vec![0.9]);
        let c = Compose(duty, base);
        assert_eq!(c.next_change(0, 0.0), 3.0);
    }

    #[test]
    fn float_boundary_does_not_stall_integration() {
        // Regression: with spike_len = 7.9, the boundary 10 + 7.9 rounds
        // to a float ≤ the current time while t − 10 < 7.9 still holds,
        // which used to stall work_to_time in an infinite loop.
        let d = TransientSpikes::new(10, 7.9, 0, 10_000);
        for node in 0..10 {
            for k in 0..400 {
                let t = 17.899999999999995 + k as f64 * 1e-15;
                let end = work_to_time(&d, node, t, 0.5);
                assert!(end.is_finite() && end > t);
            }
        }
    }

    #[test]
    fn draws_stay_in_bounds() {
        let mut rng = Xoshiro::new(7);
        for _ in 0..10_000 {
            assert!(rng.below(17) < 17);
            assert!((0.25..=0.75).contains(&rng.between(0.25, 0.75)));
        }
    }

    #[test]
    fn a_seed_fixes_the_stream() {
        let (mut a, mut b) = (Xoshiro::new(42), Xoshiro::new(42));
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let (mut a, mut b) = (Xoshiro::new(1), Xoshiro::new(2));
        let va: Vec<usize> = (0..16).map(|_| a.below(1_000_000)).collect();
        let vb: Vec<usize> = (0..16).map(|_| b.below(1_000_000)).collect();
        assert_ne!(va, vb);
    }

    #[test]
    fn the_stream_is_the_recorded_one() {
        // The first draws of seeds 42 and 5, recorded from the generator
        // the disturbances used before this one: Table 1's victims and the
        // heterogeneous speeds depend on every bit of them.
        let mut rng = Xoshiro::new(42);
        let words: Vec<u64> = (0..4).map(|_| rng.next_u64()).collect();
        assert_eq!(
            words,
            [0xd0764d4f4476689f, 0x519e4174576f3791, 0xfbe07cfb0c24ed8c, 0xb37d9f600cd835b8]
        );
        let mut rng = Xoshiro::new(42);
        let victims: Vec<usize> = (0..8).map(|_| rng.below(20)).collect();
        assert_eq!(victims, [16, 6, 19, 14, 15, 11, 2, 12]);
        let mut rng = Xoshiro::new(5);
        let victims: Vec<usize> = (0..8).map(|_| rng.below(20)).collect();
        assert_eq!(victims, [5, 12, 1, 1, 10, 14, 9, 1]);
        let mut rng = Xoshiro::new(5);
        let speeds: Vec<u64> = (0..4).map(|_| rng.between(0.5, 1.0).to_bits()).collect();
        assert_eq!(
            speeds,
            [0x3fe4ac202caf3480, 0x3fe9c874b1ef6a1c, 0x3fe19141eb775a6f, 0x3fe0f0124ccd0060]
        );
    }

    #[test]
    fn zero_work_is_instant() {
        let d = FixedSlowNodes::new(2, &[0], 0.3);
        assert_eq!(work_to_time(&d, 0, 3.0, 0.0), 3.0);
    }
}
