//! Recovery plans: deterministic re-partitioning after a rank dies or a
//! newcomer joins mid-run.
//!
//! Both plans are pure functions of the current plane counts and the
//! subject rank — no clocks, no randomness, no dependence on the order in
//! which survivors are enumerated — so every rank (and the supervising
//! driver) computes the identical plan independently. The moves come from
//! [`plan::diff_counts`], so they inherit the plan invariants: ordered by
//! plane index, coalesced per `(from, to)` pair, exactly conserving the
//! total plane count.
//!
//! A death plan re-homes the dead rank's planes onto the survivors in
//! proportion to what they already own (largest-remainder apportionment,
//! index tiebreak), which keeps the post-recovery imbalance no worse than
//! the pre-death imbalance. A join plan drains planes toward the newcomer
//! until the partition is as even as possible — the warm-up inverse of a
//! death plan.

use crate::partition::Partition;
use crate::plan::{diff_counts, total_moved, Move};

/// A deterministic re-partitioning in response to a membership change.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RecoveryPlan {
    /// The rank that died (death plan) or joined (join plan).
    pub subject: usize,
    /// Plane counts before the membership change.
    pub before: Vec<usize>,
    /// Plane counts the plan establishes.
    pub target: Vec<usize>,
    /// Plane transfers realizing `target`, ordered by plane index.
    pub moves: Vec<Move>,
}

impl RecoveryPlan {
    /// Plan re-homing every plane of `dead` onto the survivors,
    /// proportional to their current holdings. The dead rank's target is
    /// zero; every survivor keeps at least one plane.
    pub fn for_death(p: &Partition, dead: usize) -> RecoveryPlan {
        assert!(dead < p.nodes(), "dead rank {dead} out of range");
        assert!(p.nodes() > 1, "cannot re-home planes with no survivors");
        let mut weights: Vec<f64> = p.counts().iter().map(|&c| c as f64).collect();
        weights[dead] = 0.0;
        let target = apportion(p.total_planes(), &weights);
        let moves = diff_counts(p.counts(), &target);
        RecoveryPlan { subject: dead, before: p.counts().to_vec(), target, moves }
    }

    /// Plan warming up `newcomer` by draining planes from the other ranks
    /// until the partition is as even as possible. `counts[newcomer]` may
    /// be zero — a fresh rank owns nothing until the plan runs.
    pub fn for_join(counts: &[usize], newcomer: usize) -> RecoveryPlan {
        assert!(newcomer < counts.len(), "joining rank {newcomer} out of range");
        let total: usize = counts.iter().sum();
        let target = apportion(total, &vec![1.0; counts.len()]);
        let moves = diff_counts(counts, &target);
        RecoveryPlan { subject: newcomer, before: counts.to_vec(), target, moves }
    }

    /// Total planes the plan transfers.
    pub fn planes_moved(&self) -> usize {
        total_moved(&self.moves)
    }

    /// Compact one-line rendering (`from>to:planes@first …`) for logs and
    /// the driver's epoch file.
    pub fn summary(&self) -> String {
        if self.moves.is_empty() {
            return "none".to_string();
        }
        self.moves
            .iter()
            .map(|m| format!("{}>{}:{}@{}", m.from, m.to, m.planes, m.first_plane))
            .collect::<Vec<_>>()
            .join(" ")
    }
}

/// Largest-remainder apportionment of `total` planes proportional to
/// `weights`: zero-weight nodes get zero planes, every positive-weight
/// node gets at least one, ties broken by index. Unlike
/// [`Partition::proportional_counts`] this tolerates (and produces)
/// zero-count nodes, which is exactly the mid-recovery state.
fn apportion(total: usize, weights: &[f64]) -> Vec<usize> {
    assert!(weights.iter().all(|&w| w >= 0.0 && w.is_finite()));
    let active: Vec<usize> =
        (0..weights.len()).filter(|&i| weights[i] > 0.0).collect();
    assert!(!active.is_empty(), "no node can take planes");
    assert!(total >= active.len(), "fewer planes than surviving nodes");
    let wsum: f64 = active.iter().map(|&i| weights[i]).sum();
    // Reserve one plane per active node, apportion the rest.
    let spare = total - active.len();
    let quota: Vec<f64> =
        active.iter().map(|&i| weights[i] / wsum * spare as f64).collect();
    let mut extra: Vec<usize> = quota.iter().map(|q| q.floor() as usize).collect();
    let mut assigned: usize = extra.iter().sum();
    let mut rema: Vec<(usize, f64)> =
        quota.iter().enumerate().map(|(k, q)| (k, q - q.floor())).collect();
    rema.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap().then(a.0.cmp(&b.0)));
    let mut k = 0;
    while assigned < spare {
        extra[rema[k % rema.len()].0] += 1;
        assigned += 1;
        k += 1;
    }
    let mut counts = vec![0usize; weights.len()];
    for (k, &i) in active.iter().enumerate() {
        counts[i] = extra[k] + 1;
    }
    debug_assert_eq!(counts.iter().sum::<usize>(), total);
    counts
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn death_plan_zeroes_the_dead_rank_and_conserves_planes() {
        let p = Partition::even(400, 20, 4000);
        let plan = RecoveryPlan::for_death(&p, 9);
        assert_eq!(plan.target[9], 0);
        assert_eq!(plan.target.iter().sum::<usize>(), 400);
        assert!(plan.target.iter().enumerate().all(|(i, &c)| i == 9 || c >= 1));
        assert!(plan.planes_moved() >= 20, "the dead rank's 20 planes must move");
    }

    #[test]
    fn death_plan_is_proportional_to_survivor_holdings() {
        let p = Partition::new(vec![30, 10, 10, 10], 100);
        let plan = RecoveryPlan::for_death(&p, 3);
        // Node 0 holds 3/5 of the surviving weight → ≈ 36 of 60 planes.
        assert_eq!(plan.target.iter().sum::<usize>(), 60);
        assert!(plan.target[0] > plan.target[1]);
        assert!((plan.target[0] as i64 - 36).unsigned_abs() <= 1);
    }

    #[test]
    fn join_plan_drains_to_the_newcomer() {
        // Post-death state: rank 2 owns nothing.
        let plan = RecoveryPlan::for_join(&[8, 7, 0, 5], 2);
        assert_eq!(plan.target.iter().sum::<usize>(), 20);
        assert_eq!(plan.target, vec![5, 5, 5, 5]);
        assert!(plan.moves.iter().any(|m| m.to == 2), "planes must flow to the newcomer");
    }

    #[test]
    fn join_after_death_restores_every_rank() {
        let p = Partition::even(40, 4, 10);
        let death = RecoveryPlan::for_death(&p, 1);
        let rejoin = RecoveryPlan::for_join(&death.target, 1);
        assert!(rejoin.target.iter().all(|&c| c >= 1));
        let (min, max) =
            (rejoin.target.iter().min().unwrap(), rejoin.target.iter().max().unwrap());
        assert!(max - min <= 1, "rejoin must restore near-evenness: {:?}", rejoin.target);
    }

    #[test]
    fn plans_are_deterministic() {
        let p = Partition::new(vec![7, 3, 9, 4, 2], 10);
        assert_eq!(RecoveryPlan::for_death(&p, 2), RecoveryPlan::for_death(&p, 2));
        assert_eq!(
            RecoveryPlan::for_join(&[7, 3, 0, 4, 2], 2),
            RecoveryPlan::for_join(&[7, 3, 0, 4, 2], 2)
        );
    }

    #[test]
    fn summary_renders_moves() {
        let p = Partition::new(vec![4, 4], 10);
        let plan = RecoveryPlan::for_death(&p, 1);
        assert!(plan.summary().contains("1>0:4@4"), "{}", plan.summary());
        let idle = RecoveryPlan::for_join(&[5, 5], 0);
        assert_eq!(idle.summary(), "none");
    }

    #[test]
    #[should_panic(expected = "no survivors")]
    fn death_of_the_only_rank_panics() {
        let p = Partition::new(vec![5], 10);
        RecoveryPlan::for_death(&p, 0);
    }
}
