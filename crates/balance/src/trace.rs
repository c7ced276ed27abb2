//! Decision audit events: the single place where a remap decision is
//! turned into an observability event, so the virtual-time cluster engine
//! and the threaded runtime record byte-for-byte the same shape.

use microslip_obs::{Event, RemapDecision};

use crate::partition::Partition;
use crate::policy::{node_speeds, RemapPolicy};

/// Builds the audit [`Event`] for one remap decision.
///
/// * `node` — the deciding rank, or `None` for a global decision (the
///   driver or the virtual-time engine, which see all nodes at once).
/// * `predicted` — the per-node predictions fed to the policy (padded with
///   `None` outside a per-node decision's two-hop window).
/// * `target` — what the policy produced; `applied` is whether the
///   partition actually changed (false = lazily filtered out).
#[expect(clippy::too_many_arguments, reason = "one argument per field of the audit event")]
pub fn decision_event(
    time: f64,
    node: Option<usize>,
    phase: u64,
    policy: &dyn RemapPolicy,
    predicted: &[Option<f64>],
    partition: &Partition,
    target: &[usize],
    applied: bool,
) -> Event {
    let counts = partition.counts().to_vec();
    let moved = target
        .iter()
        .zip(&counts)
        .map(|(&t, &c)| t.saturating_sub(c))
        .sum();
    Event::Remap(RemapDecision {
        time,
        node,
        phase,
        policy: policy.name().to_string(),
        predicted: predicted.to_vec(),
        speeds: node_speeds(predicted, partition),
        counts,
        target: target.to_vec(),
        moved,
        applied,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::Filtered;

    #[test]
    fn decision_event_records_policy_view() {
        let p = Partition::even(60, 3, 100);
        let predicted = vec![Some(20.0), Some(60.0), Some(20.0)];
        let policy = Filtered::default();
        let target = policy.target_counts(&predicted, &p);
        let applied = target != p.counts();
        let e = decision_event(1.5, None, 10, &policy, &predicted, &p, &target, applied);
        let Event::Remap(d) = e else { panic!("expected remap event") };
        assert_eq!(d.policy, "filtered");
        assert_eq!(d.counts, vec![20, 20, 20]);
        assert_eq!(d.target, target);
        assert!(d.applied);
        assert!(d.moved > 0, "slow middle node must shed planes");
        // Speeds derived as N/T: node 1 is 3× slower.
        let s0 = d.speeds[0].unwrap();
        let s1 = d.speeds[1].unwrap();
        assert!((s0 / s1 - 3.0).abs() < 1e-9);
    }

    #[test]
    fn moved_counts_only_inflows() {
        let p = Partition::even(40, 2, 100);
        let predicted = vec![Some(1.0), Some(1.0)];
        let policy = crate::policy::NoRemap;
        // Hand-crafted target: 5 planes move from node 0 to node 1.
        let e = decision_event(0.0, Some(1), 3, &policy, &predicted, &p, &[15, 25], true);
        let Event::Remap(d) = e else { panic!("expected remap event") };
        assert_eq!(d.moved, 5, "moved = sum of positive diffs, not |diffs|");
        assert_eq!(d.node, Some(1));
    }
}
