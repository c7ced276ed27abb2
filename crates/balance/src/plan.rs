//! Migration plans: plane transfers implied by a partition change.
//!
//! Policies emit a *target count vector*; the transfers follow from the old
//! and new contiguous partitions — each plane whose owner changes moves
//! from its old owner to its new owner, and consecutive planes with the
//! same (src, dst) coalesce into one [`Move`]. Local policies only shift
//! boundaries between neighbors, so their moves are all distance-1; the
//! Global policy can produce arbitrary-distance moves.

use crate::partition::Partition;

/// A contiguous plane transfer between two nodes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Move {
    pub from: usize,
    pub to: usize,
    /// First global plane index moved.
    pub first_plane: usize,
    /// Number of consecutive planes moved.
    pub planes: usize,
}

impl Move {
    /// Hop distance in the linear array.
    pub fn distance(&self) -> usize {
        self.from.abs_diff(self.to)
    }
}

/// The transfers turning partition `old` into count vector `new_counts`.
///
/// Returns moves ordered by plane index. Panics if the target does not
/// conserve planes.
pub fn diff(old: &Partition, new_counts: &[usize]) -> Vec<Move> {
    let old_counts = old.counts();
    assert_eq!(new_counts.len(), old_counts.len());
    let total: usize = old_counts.iter().sum();
    assert_eq!(new_counts.iter().sum::<usize>(), total, "plane leak in plan");
    let owner_at = |counts: &[usize]| -> Vec<usize> {
        let mut owners = Vec::with_capacity(total);
        for (node, &c) in counts.iter().enumerate() {
            owners.extend(std::iter::repeat_n(node, c));
        }
        owners
    };
    let old_owner = owner_at(old_counts);
    let new_owner = owner_at(new_counts);
    let mut moves: Vec<Move> = Vec::new();
    for plane in 0..total {
        let (f, t) = (old_owner[plane], new_owner[plane]);
        if f == t {
            continue;
        }
        match moves.last_mut() {
            Some(m)
                if m.from == f && m.to == t && m.first_plane + m.planes == plane =>
            {
                m.planes += 1;
            }
            _ => moves.push(Move { from: f, to: t, first_plane: plane, planes: 1 }),
        }
    }
    moves
}

/// Total planes transferred by a plan.
pub fn total_moved(moves: &[Move]) -> usize {
    moves.iter().map(|m| m.planes).sum()
}

/// Whether every move is between adjacent nodes (the invariant of the
/// local policies, executable on the threaded runtime).
pub fn is_neighbor_only(moves: &[Move]) -> bool {
    moves.iter().all(|m| m.distance() == 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_change_no_moves() {
        let p = Partition::new(vec![5, 5, 5], 10);
        assert!(diff(&p, &[5, 5, 5]).is_empty());
    }

    #[test]
    fn boundary_shift_is_one_neighbor_move() {
        let p = Partition::new(vec![5, 5, 5], 10);
        let moves = diff(&p, &[3, 7, 5]);
        assert_eq!(moves, vec![Move { from: 0, to: 1, first_plane: 3, planes: 2 }]);
        assert!(is_neighbor_only(&moves));
    }

    #[test]
    fn drain_through_chain_produces_multi_hop_moves() {
        // Emptying node 0 into node 2 directly (a Global-style target).
        let p = Partition::new(vec![6, 2, 2], 10);
        let moves = diff(&p, &[1, 2, 7]);
        // Planes 1–7 all change owner (node 1's whole range shifts too).
        assert_eq!(total_moved(&moves), 7);
        assert!(!is_neighbor_only(&moves));
        // Planes 1..6 change owners; the first part goes to node 1, rest to 2.
        assert_eq!(moves[0], Move { from: 0, to: 1, first_plane: 1, planes: 2 });
        assert_eq!(moves[1], Move { from: 0, to: 2, first_plane: 3, planes: 3 });
        assert_eq!(moves[2], Move { from: 1, to: 2, first_plane: 6, planes: 2 });
    }

    #[test]
    fn symmetric_exchange() {
        let p = Partition::new(vec![4, 4], 10);
        let moves = diff(&p, &[6, 2]);
        assert_eq!(moves, vec![Move { from: 1, to: 0, first_plane: 4, planes: 2 }]);
    }

    #[test]
    #[should_panic(expected = "plane leak")]
    fn leaky_plan_panics() {
        let p = Partition::new(vec![4, 4], 10);
        diff(&p, &[4, 3]);
    }

    #[test]
    fn coalescing_splits_on_destination_change() {
        let p = Partition::new(vec![4, 1, 1, 4], 10);
        let moves = diff(&p, &[1, 4, 4, 1]);
        // Each moved run is contiguous with a single (from, to) pair.
        for m in &moves {
            assert!(m.planes >= 1);
        }
        assert_eq!(total_moved(&moves), 6);
        let total: usize = moves.iter().map(|m| m.planes).sum();
        assert_eq!(total, 6);
    }
}
