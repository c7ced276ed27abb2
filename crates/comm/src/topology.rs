//! Node topology: the linear array / ring of slab owners.
//!
//! Physics halos travel on a **ring** (the channel is periodic in x), while
//! load-balancing traffic travels on a **line** (slabs must stay contiguous
//! in x, so the first and last nodes have a single balancing neighbor —
//! the paper's "the formula is similar for the first node and the end node
//! in the linear array").

use crate::transport::NodeId;

/// Position of a rank within the 1-D decomposition.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LinearTopology {
    pub rank: NodeId,
    pub size: usize,
}

impl LinearTopology {
    pub fn new(rank: NodeId, size: usize) -> Self {
        assert!(size > 0 && rank < size, "rank {rank} outside communicator of size {size}");
        LinearTopology { rank, size }
    }

    /// Ring left neighbor (periodic) — the physics halo partner.
    pub fn ring_left(&self) -> NodeId {
        (self.rank + self.size - 1) % self.size
    }

    /// Ring right neighbor (periodic).
    pub fn ring_right(&self) -> NodeId {
        (self.rank + 1) % self.size
    }

    /// Line left neighbor — the balancing partner, absent at the ends.
    pub fn line_left(&self) -> Option<NodeId> {
        (self.rank > 0).then(|| self.rank - 1)
    }

    /// Line right neighbor.
    pub fn line_right(&self) -> Option<NodeId> {
        (self.rank + 1 < self.size).then_some(self.rank + 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_wraps() {
        let t = LinearTopology::new(0, 5);
        assert_eq!(t.ring_left(), 4);
        assert_eq!(t.ring_right(), 1);
        let t = LinearTopology::new(4, 5);
        assert_eq!(t.ring_left(), 3);
        assert_eq!(t.ring_right(), 0);
    }

    #[test]
    fn line_ends_have_one_neighbor() {
        let first = LinearTopology::new(0, 4);
        assert_eq!(first.line_left(), None);
        assert_eq!(first.line_right(), Some(1));
        let last = LinearTopology::new(3, 4);
        assert_eq!(last.line_left(), Some(2));
        assert_eq!(last.line_right(), None);
    }

    #[test]
    fn single_node_is_its_own_ring() {
        let t = LinearTopology::new(0, 1);
        assert_eq!(t.ring_left(), 0);
        assert_eq!(t.ring_right(), 0);
        assert_eq!((t.line_left(), t.line_right()), (None, None));
    }

    #[test]
    #[should_panic(expected = "outside communicator")]
    fn bad_rank_panics() {
        LinearTopology::new(3, 3);
    }
}
