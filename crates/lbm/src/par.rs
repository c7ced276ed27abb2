//! Intra-slab parallel execution.
//!
//! The distributed runtime parallelizes *across* slabs (one worker thread
//! per node); this module parallelizes *within* a slab, chunking the
//! interior x-planes of the per-phase kernels (collision, streaming with
//! its moments, forces, equilibrium velocities) over scoped rayon tasks.
//!
//! The design constraint is the repo's flagship invariant: any
//! parallelization must be **bitwise transparent to the physics**. Every
//! kernel here is per-cell (collision, moments, velocities) or writes only
//! its own plane while reading a ±1-plane stencil of a buffer nobody mutates
//! (streaming, forces), so partitioning the planes into contiguous chunks
//! changes neither the values computed nor any accumulation order. The
//! chunk boundaries themselves ([`Parallelism::plane_chunks`]) depend only
//! on the plane count and the configured thread count — never on runtime
//! load — so a run is reproducible at any thread count. Reductions that
//! *are* order-sensitive (observables, [`crate::macroscopic::Snapshot`],
//! mass totals) deliberately stay serial.

use std::ops::Range;

/// Intra-slab thread budget for the plane-parallel kernels.
///
/// `threads == 1` (the default) runs every kernel inline on the calling
/// thread — the distributed runtime's workers each own one slab, and
/// oversubscribing cores with nested parallelism is a pessimization unless
/// explicitly asked for. Values above the plane count are clamped per
/// kernel launch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Parallelism {
    /// Number of threads the per-slab kernels may fan out to (≥ 1).
    pub threads: usize,
}

impl Default for Parallelism {
    fn default() -> Self {
        Parallelism::serial()
    }
}

impl Parallelism {
    /// Run every kernel inline on the calling thread.
    pub fn serial() -> Self {
        Parallelism { threads: 1 }
    }

    /// A fixed thread budget (`threads ≥ 1`).
    pub fn new(threads: usize) -> Self {
        assert!(threads >= 1, "Parallelism requires at least one thread");
        Parallelism { threads }
    }

    /// One thread per available hardware thread.
    pub fn available() -> Self {
        Parallelism { threads: rayon::current_num_threads().max(1) }
    }

    pub fn threads(&self) -> usize {
        self.threads
    }

    pub fn is_serial(&self) -> bool {
        self.threads <= 1
    }

    /// The thread count actually worth fanning out to on this host:
    /// `min(threads, available hardware threads)`.
    ///
    /// The *decomposition* ([`plane_chunks`](Self::plane_chunks)) always
    /// honors the configured `threads` so results are host-independent;
    /// only the *execution* consults this. On a host with fewer cores than
    /// the configured budget, spawning the excess tasks would pay scheduling
    /// overhead for zero added parallelism — `threads: 8` on a one-core
    /// machine must degrade to the inline serial sweep, not to eight queued
    /// tasks (the root cause of the historical parallel-slower-than-serial
    /// regression).
    pub fn effective_threads(&self) -> usize {
        self.threads.min(rayon::current_num_threads()).max(1)
    }

    /// A budget clamped to [`effective_threads`](Self::effective_threads).
    ///
    /// The per-phase kernels decompose their planes with this, so a
    /// one-core host configured with `threads: 8` pays neither task
    /// spawning nor per-chunk setup (boundary-plane saves, scratch
    /// buffers). Safe because every kernel is decomposition-invariant:
    /// collision/moments/velocities are cell-local, forces accumulate per cell
    /// in a fixed direction order, and streaming is pure data movement —
    /// so any chunking produces bitwise identical fields.
    pub fn effective(&self) -> Parallelism {
        Parallelism { threads: self.effective_threads() }
    }

    /// Splits the inclusive plane range `[first, last]` into at most
    /// `threads` contiguous half-open chunks `(start, end)`.
    ///
    /// The split is a pure function of `(first, last, threads)`: the first
    /// `n % k` chunks carry one extra plane. Kernel launches use these
    /// chunks as the unit of task spawning, so the work decomposition — and
    /// therefore the result, since chunks are independent — is
    /// deterministic.
    pub fn plane_chunks(&self, first: usize, last: usize) -> Vec<(usize, usize)> {
        assert!(last >= first);
        let n = last + 1 - first;
        let k = self.threads.clamp(1, n);
        let base = n / k;
        let rem = n % k;
        let mut chunks = Vec::with_capacity(k);
        let mut start = first;
        for i in 0..k {
            let len = base + usize::from(i < rem);
            chunks.push((start, start + len));
            start += len;
        }
        debug_assert_eq!(start, last + 1);
        chunks
    }

    /// Runs `body(start, end)` for every chunk. A single chunk, a serial
    /// budget, or a host without usable extra cores
    /// ([`effective_threads`](Self::effective_threads) ≤ 1) runs inline;
    /// otherwise each chunk becomes a scoped rayon task, with the first
    /// chunk executed on the calling thread.
    ///
    /// `body` must be safe to run concurrently for distinct chunks — the
    /// kernels guarantee this by writing only cells inside their own chunk.
    pub(crate) fn run_chunks<F>(&self, chunks: &[(usize, usize)], body: F)
    where
        F: Fn(usize, usize) + Sync,
    {
        if chunks.len() <= 1 || self.effective_threads() <= 1 {
            for &(a, b) in chunks {
                body(a, b);
            }
            return;
        }
        let body = &body;
        rayon::scope(|s| {
            for &(a, b) in &chunks[1..] {
                s.spawn(move |_| body(a, b));
            }
            let (a, b) = chunks[0];
            body(a, b);
        });
    }

    /// [`run_chunks`](Self::run_chunks) with plane chunks scaled to cell
    /// ranges: `body` receives `start_plane * plane_cells
    /// .. end_plane * plane_cells`, the contiguous cell range of the chunk.
    pub(crate) fn run_cell_chunks<F>(&self, chunks: &[(usize, usize)], plane_cells: usize, body: F)
    where
        F: Fn(Range<usize>) + Sync,
    {
        self.run_chunks(chunks, |a, b| body(a * plane_cells..b * plane_cells));
    }
}

/// A raw mutable pointer blessed for transfer across scoped-task
/// boundaries.
///
/// The plane-parallel kernels share one strided array between tasks that
/// each write a *disjoint* set of cells; Rust cannot express that
/// disjointness through references, so the kernels pass the base pointer
/// through this wrapper and uphold the no-overlap contract themselves
/// (documented at each launch site).
#[derive(Clone, Copy)]
pub(crate) struct SendPtr<T>(*mut T);

// Safety: the wrapper only moves the *pointer* between threads; every
// dereference happens inside a kernel whose launch site guarantees that no
// two tasks touch the same element and that the allocation outlives the
// enclosing scope (rayon::scope joins before the borrow ends).
unsafe impl<T> Send for SendPtr<T> {}
unsafe impl<T> Sync for SendPtr<T> {}

impl<T> SendPtr<T> {
    pub(crate) fn new(p: *mut T) -> Self {
        SendPtr(p)
    }

    pub(crate) fn get(self) -> *mut T {
        self.0
    }
}

/// Read-only sibling of [`SendPtr`] for shared input arrays.
#[derive(Clone, Copy)]
pub(crate) struct ConstPtr<T>(*const T);

// Safety: see `SendPtr` — reads only, same lifetime argument.
unsafe impl<T> Send for ConstPtr<T> {}
unsafe impl<T> Sync for ConstPtr<T> {}

impl<T> ConstPtr<T> {
    pub(crate) fn new(p: *const T) -> Self {
        ConstPtr(p)
    }

    pub(crate) fn get(self) -> *const T {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn serial_is_default() {
        assert_eq!(Parallelism::default(), Parallelism::serial());
        assert!(Parallelism::serial().is_serial());
        assert!(!Parallelism::new(4).is_serial());
    }

    #[test]
    #[should_panic(expected = "at least one thread")]
    fn zero_threads_rejected() {
        Parallelism::new(0);
    }

    #[test]
    fn chunks_tile_the_range_contiguously() {
        for threads in 1..=9 {
            for last in 1..=12 {
                let chunks = Parallelism::new(threads).plane_chunks(1, last);
                assert!(chunks.len() <= threads);
                assert_eq!(chunks[0].0, 1);
                assert_eq!(chunks.last().unwrap().1, last + 1);
                for w in chunks.windows(2) {
                    assert_eq!(w[0].1, w[1].0, "chunks must tile without gaps");
                    assert!(w[0].1 > w[0].0, "chunks must be non-empty");
                }
            }
        }
    }

    #[test]
    fn chunk_sizes_differ_by_at_most_one() {
        let chunks = Parallelism::new(4).plane_chunks(1, 10);
        let sizes: Vec<usize> = chunks.iter().map(|&(a, b)| b - a).collect();
        assert_eq!(sizes, vec![3, 3, 2, 2]);
    }

    #[test]
    fn chunking_is_deterministic() {
        let a = Parallelism::new(3).plane_chunks(1, 40);
        let b = Parallelism::new(3).plane_chunks(1, 40);
        assert_eq!(a, b);
    }

    #[test]
    fn more_threads_than_planes_clamps() {
        let chunks = Parallelism::new(16).plane_chunks(1, 3);
        assert_eq!(chunks, vec![(1, 2), (2, 3), (3, 4)]);
    }

    #[test]
    fn effective_threads_clamps_to_host_parallelism() {
        let host = rayon::current_num_threads().max(1);
        assert_eq!(Parallelism::serial().effective_threads(), 1);
        assert_eq!(Parallelism::new(host).effective_threads(), host);
        assert_eq!(Parallelism::new(host + 7).effective_threads(), host);
        assert!(Parallelism::new(usize::MAX).effective_threads() >= 1);
    }

    #[test]
    fn run_chunks_visits_every_chunk() {
        let par = Parallelism::new(4);
        let chunks = par.plane_chunks(1, 17);
        let visited = AtomicUsize::new(0);
        par.run_chunks(&chunks, |a, b| {
            visited.fetch_add(b - a, Ordering::SeqCst);
        });
        assert_eq!(visited.load(Ordering::SeqCst), 17);
    }

    #[test]
    fn run_cell_chunks_scales_by_plane() {
        let par = Parallelism::new(2);
        let chunks = par.plane_chunks(1, 4);
        let cells = AtomicUsize::new(0);
        par.run_cell_chunks(&chunks, 10, |r| {
            assert_eq!(r.start % 10, 0);
            cells.fetch_add(r.len(), Ordering::SeqCst);
        });
        assert_eq!(cells.load(Ordering::SeqCst), 40);
    }
}
