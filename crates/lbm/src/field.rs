#![expect(
    unsafe_code,
    reason = "madvise on memory the array owns exclusively: MADV_DONTNEED on whole \
              pages of storage planes a slab's window has just left, or that a \
              consuming capture has passed, MADV_HUGEPAGE on the 2 MiB-aligned \
              interior of each channel's window (a paging hint that keeps every \
              value); mincore in residency tests"
)]
//! Flat structure-of-arrays field storage for slab subdomains.
//!
//! Every node (or the sequential driver, which is the one-node special case)
//! stores its slab of the channel plus one *ghost* plane on each side in x.
//! Ghost planes hold copies of the neighbor's boundary data and are refreshed
//! by halo exchange each phase; they are never owned.
//!
//! Layout is channel-major with x-major cell indexing, so one y–z plane of
//! one channel is a contiguous run — plane extraction for halo exchange and
//! lattice-point migration is a straight `copy_from_slice`. The slab is a
//! *window* of planes inside a possibly larger storage reservation (see
//! [`SlabArray`]): a slab that gains or loses planes moves its window and
//! copies only the planes that travel.

use std::ops::Range;

use crate::geometry::Dims;

/// Local grid of a slab: `lx` planes **including** the two ghost planes
/// (`lx = nx_local + 2`), times the full lateral extent.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LocalGrid {
    /// Plane count including ghosts; interior planes are `1 ..= lx - 2`.
    pub lx: usize,
    pub ny: usize,
    pub nz: usize,
}

impl LocalGrid {
    /// Grid for a slab of `nx_local` owned planes within a channel of
    /// lateral extent `ny × nz`.
    pub fn new(nx_local: usize, ny: usize, nz: usize) -> Self {
        assert!(nx_local > 0 && ny > 0 && nz > 0);
        LocalGrid { lx: nx_local + 2, ny, nz }
    }

    /// Grid covering a whole channel (sequential driver).
    pub fn whole(dims: Dims) -> Self {
        LocalGrid::new(dims.nx, dims.ny, dims.nz)
    }

    /// Number of owned (non-ghost) planes.
    pub fn nx_local(&self) -> usize {
        self.lx - 2
    }

    /// Cells per y–z plane.
    pub fn plane_cells(&self) -> usize {
        self.ny * self.nz
    }

    /// Total cells including ghost planes.
    pub fn cells(&self) -> usize {
        self.lx * self.plane_cells()
    }

    /// Flat cell index; `xl` is the local plane index (0 = left ghost).
    #[inline(always)]
    pub fn idx(&self, xl: usize, y: usize, z: usize) -> usize {
        debug_assert!(xl < self.lx && y < self.ny && z < self.nz);
        (xl * self.ny + y) * self.nz + z
    }

    /// Local plane index of the left ghost plane.
    pub const GHOST_LEFT: usize = 0;

    /// Local plane index of the right ghost plane.
    pub fn ghost_right(&self) -> usize {
        self.lx - 1
    }

    /// First interior plane.
    pub const FIRST: usize = 1;

    /// Last interior plane.
    pub fn last(&self) -> usize {
        self.lx - 2
    }
}

/// A multi-channel field over a [`LocalGrid`].
///
/// "Channel" means one scalar slot per cell: the 19 populations of one fluid
/// component, the 3 components of a velocity, or a single scalar density.
///
/// Storage may hold more planes than the grid: `channels × cap_planes ×
/// plane_cells` values, of which the grid is the **window** of `lx` planes
/// starting at storage plane `off`. Every accessor — indexing, slices,
/// `==`, `clone()`, `Debug` — reads and writes the window only; kernels get
/// slices of window cells, one a channel, and keep their loop extents local. Moving the window
/// ([`set_window`](Self::set_window)) is how a slab gains and loses planes
/// without its surviving planes being copied. Slots outside the window hold
/// unspecified values nothing reads, and (to page granularity) no memory:
/// storage comes from `alloc_zeroed`, whose untouched pages are reserved,
/// not resident, pages a window leaves are handed back (`release`), and
/// only a new window's 2 MiB-aligned interior is advised into huge pages.
pub struct SlabArray {
    grid: LocalGrid,
    channels: usize,
    /// Planes per channel in `data` (`>= off + grid.lx`).
    cap_planes: usize,
    /// Storage plane of the window's left ghost plane.
    off: usize,
    data: Vec<f64>,
}

impl SlabArray {
    /// Zero-initialized field with `channels` scalar slots per cell whose
    /// storage is exactly its grid.
    pub fn new(grid: LocalGrid, channels: usize) -> Self {
        SlabArray::windowed(grid, channels, grid.lx, 0)
    }

    /// Zero-initialized field over the window `off .. off + grid.lx` of
    /// `cap_planes` storage planes per channel.
    pub fn windowed(grid: LocalGrid, channels: usize, cap_planes: usize, off: usize) -> Self {
        assert!(channels > 0);
        assert!(off + grid.lx <= cap_planes, "window outside the storage capacity");
        let data = vec![0.0; channels * cap_planes * grid.plane_cells()];
        let mut array = SlabArray { grid, channels, cap_planes, off, data };
        // Zeroed storage is untouched pages when it comes fresh from the
        // OS, but written ones when the allocator recycles memory (glibc
        // below its mmap threshold): hand back what the window leaves.
        array.release_planes(0..off);
        array.release_planes(off + grid.lx..cap_planes);
        // Huge pages where the window's first touch faults (most of
        // `SlabSolver::new` on a VM), but only on the 2 MiB-aligned interior
        // of each channel's window: one reaching outside would make reserved
        // storage resident. Without THP the advice changes nothing.
        let (window, stride) = (array.base()..array.base() + grid.cells(), array.stride());
        for channel in array.data.chunks_exact_mut(stride) {
            if let Some(cells) = channel.get_mut(window.clone()) {
                madvise_interior(cells, HUGE_PAGE, MADV_HUGEPAGE);
            }
        }
        array
    }

    /// Returns the storage of `planes` (outside the window) to the OS. An
    /// inverted range — nothing vacated on that side — selects nothing.
    fn release_planes(&mut self, planes: std::ops::Range<usize>) {
        let (p, stride) = (self.grid.plane_cells(), self.stride());
        for channel in self.data.chunks_exact_mut(stride) {
            if let Some(vacated) = channel.get_mut(planes.start * p..planes.end * p) {
                release(vacated);
            }
        }
    }

    pub fn grid(&self) -> LocalGrid {
        self.grid
    }

    pub fn channels(&self) -> usize {
        self.channels
    }

    /// Distance in `f64`s between the same cell of consecutive channels.
    pub fn stride(&self) -> usize {
        self.cap_planes * self.grid.plane_cells()
    }

    /// Storage index of window cell 0 of channel 0.
    #[inline(always)]
    fn base(&self) -> usize {
        self.off * self.grid.plane_cells()
    }

    /// Value of `(ch, cell)`.
    #[inline(always)]
    pub fn at(&self, ch: usize, cell: usize) -> f64 {
        debug_assert!(ch < self.channels && cell < self.grid.cells(), "cell outside the window");
        self.data[ch * self.stride() + self.base() + cell]
    }

    #[inline(always)]
    pub fn set(&mut self, ch: usize, cell: usize, v: f64) {
        debug_assert!(ch < self.channels && cell < self.grid.cells(), "cell outside the window");
        let i = ch * self.stride() + self.base() + cell;
        self.data[i] = v;
    }

    /// All window cells of one channel.
    #[inline]
    pub fn channel(&self, ch: usize) -> &[f64] {
        let start = ch * self.stride() + self.base();
        &self.data[start..start + self.grid.cells()]
    }

    #[inline]
    pub fn channel_mut(&mut self, ch: usize) -> &mut [f64] {
        let start = ch * self.stride() + self.base();
        &mut self.data[start..start + self.grid.cells()]
    }

    /// Window cells `cells` of the first `N` channels.
    pub(crate) fn runs<const N: usize>(&self, cells: Range<usize>) -> [&[f64]; N] {
        std::array::from_fn(|ch| &self.channel(ch)[cells.clone()])
    }

    /// Mutable [`runs`](Self::runs), all `N` borrowed at once.
    pub(crate) fn runs_mut<const N: usize>(&mut self, cells: Range<usize>) -> [&mut [f64]; N] {
        let (base, stride) = (self.base(), self.stride());
        runs_mut(&mut self.data, stride, base + cells.start..base + cells.end)
    }

    /// Local plane `xl` of the first `N` channels.
    pub(crate) fn plane<const N: usize>(&self, xl: usize) -> [&[f64]; N] {
        let p = self.grid.plane_cells();
        self.runs(xl * p..(xl + 1) * p)
    }

    /// Mutable [`plane`](Self::plane).
    pub(crate) fn plane_mut<const N: usize>(&mut self, xl: usize) -> [&mut [f64]; N] {
        let p = self.grid.plane_cells();
        self.runs_mut(xl * p..(xl + 1) * p)
    }

    /// The window's values, channel-major.
    pub fn to_vec(&self) -> Vec<f64> {
        (0..self.channels).flat_map(|ch| self.channel(ch)).copied().collect()
    }

    /// Number of `f64` values in one extracted plane (all channels).
    pub fn plane_len(&self) -> usize {
        self.channels * self.grid.plane_cells()
    }

    /// Local plane `xl` of every channel, in channel order: what one plane
    /// record of a checkpoint or a migration message holds of this array.
    pub fn plane_runs(&self, xl: usize) -> impl Iterator<Item = &[f64]> {
        let p = self.grid.plane_cells();
        (0..self.channels).map(move |ch| &self.channel(ch)[xl * p..(xl + 1) * p])
    }

    /// Mutable [`plane_runs`](Self::plane_runs).
    pub fn plane_runs_mut(&mut self, xl: usize) -> impl Iterator<Item = &mut [f64]> {
        assert!(xl < self.grid.lx, "plane outside the window");
        let p = self.grid.plane_cells();
        let start = self.base() + xl * p;
        let stride = self.stride();
        self.data.chunks_exact_mut(stride).map(move |channel| &mut channel[start..start + p])
    }

    /// Moves the window to `nx_local` owned planes whose left ghost is
    /// storage plane `off`, and zeroes the two ghost planes of the new
    /// window (they may be slots an earlier window left values in). A
    /// plane inside both the old and the new window keeps its storage
    /// slot, so its values survive bit for bit at local index
    /// `old_xl + old_off - off`. Used when lattice-point migration changes
    /// the slab.
    pub fn set_window(&mut self, off: usize, nx_local: usize) {
        let grid = LocalGrid::new(nx_local, self.grid.ny, self.grid.nz);
        // Not a debug_assert: a window past the storage would otherwise
        // surface as an index panic inside the first kernel to reach it.
        assert!(off + grid.lx <= self.cap_planes, "window outside the storage capacity");
        // Storage planes the old window covered and the new one does not,
        // on its left and on its right.
        let (old, new) = (self.off..self.off + self.grid.lx, off..off + grid.lx);
        self.release_planes(old.start..new.start.min(old.end));
        self.release_planes(new.end.max(old.start)..old.end);
        (self.grid, self.off) = (grid, off);
        let (p, lx) = (grid.plane_cells(), grid.lx);
        for ch in 0..self.channels {
            let cells = self.channel_mut(ch);
            cells[..p].fill(0.0);
            cells[(lx - 1) * p..].fill(0.0);
        }
    }
}

/// The first `N` channels of a buffer of channel stride `stride`, cells
/// `cells` of each.
pub(crate) fn runs<const N: usize>(buf: &[f64], stride: usize, cells: Range<usize>) -> [&[f64]; N] {
    std::array::from_fn(|ch| &buf[ch * stride..][cells.clone()])
}

/// Mutable [`runs`], all `N` borrowed at once.
pub(crate) fn runs_mut<const N: usize>(mut buf: &mut [f64], stride: usize, cells: Range<usize>) -> [&mut [f64]; N] {
    std::array::from_fn(|_| {
        let (channel, rest) = std::mem::take(&mut buf).split_at_mut(stride);
        buf = rest;
        &mut channel[cells.clone()]
    })
}

impl SlabArray {
    /// Hands back every whole page of window planes `planes` in every
    /// channel, from the page their first plane shares with the plane below
    /// it: a consuming capture's planes passed since its last hand-back,
    /// which released none of that page, as it reached past the planes it
    /// was given. The planes hold unspecified values afterwards.
    pub(crate) fn release_window_planes(&mut self, planes: Range<usize>) {
        assert!(planes.end <= self.grid.lx, "plane outside the window");
        let (p, base, stride) = (self.grid.plane_cells(), self.base(), self.stride());
        let from = (planes.start * p).saturating_sub(PAGE / std::mem::size_of::<f64>());
        for channel in self.data.chunks_exact_mut(stride) {
            release(&mut channel[base + from..base + planes.end * p]);
        }
    }
}

/// Hands the whole pages inside `vacated` — storage a window has just left —
/// back to the operating system, so a slab's resident memory follows its
/// window down as well as up: without this, planes given away would stay
/// resident in the giver for the rest of the run while the receiver faults
/// in its own copies. The values become unspecified (zeros where a page
/// went, the old values on the partial pages at either end), which is all
/// storage outside the window ever promises.
fn release(vacated: &mut [f64]) {
    madvise_interior(vacated, PAGE, MADV_DONTNEED);
}

// Linux's advice values, and the base and huge page sizes of x86-64.
const MADV_DONTNEED: i32 = 4;
const MADV_HUGEPAGE: i32 = 14;
const PAGE: usize = 4096;
const HUGE_PAGE: usize = 2 << 20;

/// `madvise(advice)` on the `align`-aligned interior of `cells`, if any.
#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
fn madvise_interior(cells: &mut [f64], align: usize, advice: i32) {
    extern "C" {
        fn madvise(addr: *mut core::ffi::c_void, len: usize, advice: i32) -> i32;
    }
    let start = cells.as_mut_ptr() as usize;
    let first = start.next_multiple_of(align);
    let end = (start + std::mem::size_of_val(cells)) & !(align - 1);
    if first < end {
        // SAFETY: `first..end` is page-aligned (`align` is a multiple of
        // `PAGE`) and lies inside `cells`, memory this array owns and holds
        // exclusively (`&mut`), backed by the global allocator's private
        // anonymous mapping. MADV_HUGEPAGE is a paging hint that keeps every
        // value; MADV_DONTNEED means "zero-fill on next touch" — every bit
        // pattern, zero included, is a valid `f64`, and nothing reads vacated
        // values before a window moves back over them and overwrites or
        // zeroes them. A refused advice leaves the pages as they were, which
        // is equally fine, so the result is not inspected.
        unsafe { madvise(first as *mut core::ffi::c_void, end - first, advice) };
    }
}

#[cfg(not(all(target_os = "linux", target_arch = "x86_64")))]
fn madvise_interior(_cells: &mut [f64], _align: usize, _advice: i32) {}

/// Same capacity and window, but only the window is copied: a derived
/// clone would write — and so make resident — the whole reservation.
impl Clone for SlabArray {
    fn clone(&self) -> Self {
        let mut out = SlabArray::windowed(self.grid, self.channels, self.cap_planes, self.off);
        let stride = self.stride();
        for (dst, src) in out.data.chunks_exact_mut(stride).zip(self.data.chunks_exact(stride)) {
            let window = dst.iter_mut().zip(src).skip(self.base()).take(self.grid.cells());
            window.for_each(|(d, s)| *d = *s);
        }
        out
    }
}

/// Equal grids, channel counts and window values; where the window sits in
/// its storage, and what lies outside it, is not part of the value.
impl PartialEq for SlabArray {
    fn eq(&self, other: &Self) -> bool {
        self.grid == other.grid
            && self.channels == other.channels
            && (0..self.channels).all(|ch| self.channel(ch) == other.channel(ch))
    }
}

impl std::fmt::Debug for SlabArray {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SlabArray")
            .field("grid", &self.grid)
            .field("channels", &self.channels)
            .field("data", &self.to_vec())
            .finish()
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// Resident bytes of the pages `first..end` (page-aligned addresses),
    /// page by page (`mincore`): unlike `VmRSS`, blind to what concurrently
    /// running tests touch.
    #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
    fn resident_pages(first: usize, end: usize) -> usize {
        extern "C" {
            fn mincore(addr: *mut core::ffi::c_void, len: usize, vec: *mut u8) -> i32;
        }
        if end <= first {
            return 0;
        }
        let mut pages = vec![0u8; (end - first) / PAGE];
        // SAFETY: `first..end` is page-aligned and lies in mappings the
        // caller's array owns; `pages` has one byte per page.
        let rc = unsafe { mincore(first as *mut core::ffi::c_void, end - first, pages.as_mut_ptr()) };
        assert_eq!(rc, 0, "mincore failed");
        pages.iter().filter(|&&b| b & 1 == 1).count() * PAGE
    }

    #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
    impl SlabArray {
        /// Resident bytes of the whole pages inside window planes `planes`,
        /// over every channel.
        pub(crate) fn resident_plane_bytes(&self, planes: std::ops::Range<usize>) -> usize {
            let p = self.grid.plane_cells();
            (0..self.channels)
                .map(|ch| {
                    let cells = &self.channel(ch)[planes.start * p..planes.end * p];
                    let start = cells.as_ptr() as usize;
                    resident_pages(start.next_multiple_of(PAGE), (start + std::mem::size_of_val(cells)) & !(PAGE - 1))
                })
                .sum()
        }
    }

    /// Plane copies for the tests' ghost fills.
    impl SlabArray {
        /// Copies local plane `xl` (all channels, channel-major) into `buf`.
        pub(crate) fn copy_plane_out(&self, xl: usize, buf: &mut [f64]) {
            let p = self.grid.plane_cells();
            assert_eq!(buf.len(), self.plane_len());
            for (ch, dst) in buf.chunks_exact_mut(p).enumerate() {
                dst.copy_from_slice(&self.channel(ch)[xl * p..(xl + 1) * p]);
            }
        }

        /// Overwrites local plane `xl` from a buffer produced by
        /// [`copy_plane_out`](Self::copy_plane_out).
        pub(crate) fn copy_plane_in(&mut self, xl: usize, buf: &[f64]) {
            let p = self.grid.plane_cells();
            assert_eq!(buf.len(), self.plane_len());
            for (ch, src) in buf.chunks_exact(p).enumerate() {
                self.channel_mut(ch)[xl * p..(xl + 1) * p].copy_from_slice(src);
            }
        }
    }

    fn filled(grid: LocalGrid, channels: usize) -> SlabArray {
        let mut a = SlabArray::new(grid, channels);
        for ch in 0..channels {
            for cell in 0..grid.cells() {
                a.set(ch, cell, (ch * 10_000 + cell) as f64);
            }
        }
        a
    }

    #[test]
    fn plane_roundtrip() {
        let grid = LocalGrid::new(4, 3, 2);
        let a = filled(grid, 5);
        let mut b = SlabArray::new(grid, 5);
        let mut buf = vec![0.0; a.plane_len()];
        for xl in 0..grid.lx {
            a.copy_plane_out(xl, &mut buf);
            b.copy_plane_in(xl, &buf);
        }
        assert_eq!(a, b);
    }

    #[test]
    fn plane_runs_read_and_write_the_window_plane_by_plane() {
        let a = windowed_filled(3);
        let mut b = SlabArray::windowed(a.grid(), 3, 7, 1);
        for xl in 0..a.grid().lx {
            for (dst, src) in b.plane_runs_mut(xl).zip(a.plane_runs(xl)) {
                dst.copy_from_slice(src);
            }
            assert_eq!(a.plane_runs(xl).count(), 3);
        }
        assert_eq!(a, b);
        let runs: Vec<f64> = a.plane_runs(2).flatten().copied().collect();
        assert_eq!(runs, values(&a, 2), "a plane's runs are its channel-major plane");
    }

    /// A 4-plane window at storage plane 3 of 12, every window cell (ghosts
    /// included) holding a distinct value.
    fn windowed_filled(channels: usize) -> SlabArray {
        let grid = LocalGrid::new(4, 2, 2);
        let mut a = SlabArray::windowed(grid, channels, 12, 3);
        for ch in 0..channels {
            for cell in 0..grid.cells() {
                a.set(ch, cell, (1 + ch * 10_000 + cell) as f64);
            }
        }
        a
    }

    fn values(a: &SlabArray, xl: usize) -> Vec<f64> {
        let mut buf = vec![0.0; a.plane_len()];
        a.copy_plane_out(xl, &mut buf);
        buf
    }

    fn plane(a: &SlabArray, xl: usize) -> Vec<u64> {
        values(a, xl).iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn a_windowed_array_equals_the_compact_one() {
        let a = windowed_filled(3);
        let mut b = SlabArray::new(a.grid(), 3);
        for xl in 0..a.grid().lx {
            b.copy_plane_in(xl, &values(&a, xl));
        }
        assert_eq!(a, b);
        assert_eq!(a.to_vec(), b.to_vec());
        assert_eq!(a.stride(), 12 * 4);
        assert_eq!(b.stride(), 6 * 4);
    }

    #[test]
    fn window_bump_keeps_every_surviving_plane_bit_identical() {
        let a = windowed_filled(2);
        // Grow by two planes on the left and shrink by one on the right:
        // old interior planes 1..=3 survive, at local index + 2.
        let mut b = a.clone();
        b.set_window(1, 5);
        assert_eq!(b.grid().nx_local(), 5);
        for old_xl in 1..=3 {
            assert_eq!(plane(&a, old_xl), plane(&b, old_xl + 2), "plane {old_xl} must survive");
        }
        // Shrink from the left: old planes 3..=4 survive, at local index − 2.
        let mut c = a.clone();
        c.set_window(5, 2);
        for old_xl in 3..=4 {
            assert_eq!(plane(&a, old_xl), plane(&c, old_xl - 2), "plane {old_xl} must survive");
        }
        // Both ghost planes of a moved window are zero, whatever the slots
        // held: b's right ghost was a's interior plane 4, c's left ghost
        // a's interior plane 2.
        for moved in [&b, &c] {
            for ghost in [LocalGrid::GHOST_LEFT, moved.grid().ghost_right()] {
                assert!(plane(moved, ghost).iter().all(|&bits| bits == 0), "dirty ghost");
            }
        }
    }

    #[test]
    fn stale_values_in_vacated_slots_reach_nothing() {
        // Shrink away two filled planes on each side, then compare with an
        // array that never held them.
        let mut a = windowed_filled(2);
        a.set_window(5, 1);
        let mut fresh = SlabArray::windowed(a.grid(), 2, 12, 5);
        for xl in 0..3 {
            fresh.copy_plane_in(xl, &values(&a, xl));
        }
        assert_eq!(a, fresh, "== must not see outside the window");
        assert_eq!(a.to_vec(), fresh.to_vec(), "nor what a checkpoint stores");
        assert_eq!(format!("{a:?}"), format!("{fresh:?}"));
        // A clone carries the window and nothing else: growing it back
        // over the vacated slots finds zeros, not the originals' values.
        let mut b = a.clone();
        assert_eq!(b, a);
        b.set_window(3, 4);
        a.set_window(3, 4);
        assert!(plane(&b, 1).iter().all(|&bits| bits == 0), "the clone copied a stale slot");
        assert!(plane(&a, 1).iter().any(|&bits| bits != 0), "the original still holds it");
        assert_ne!(a, b);
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn a_cloned_window_is_resident_for_its_window_not_its_reservation() {
        fn resident_mb() -> usize {
            let statm = std::fs::read_to_string("/proc/self/statm").unwrap();
            (statm.split(' ').nth(1).unwrap().parse::<usize>().unwrap() * 4096) >> 20
        }
        // 128 MB reserved (one channel of 4096 planes × 32 KB), 4-plane
        // window in the middle.
        let grid = LocalGrid::new(2, 64, 64);
        let before = resident_mb();
        let mut a = SlabArray::windowed(grid, 1, 4096, 2000);
        a.channel_mut(0).fill(1.5);
        let b = std::hint::black_box(a.clone());
        let grown = resident_mb().saturating_sub(before);
        assert_eq!(a, b);
        assert_eq!(b.stride(), a.stride(), "the clone keeps the reservation");
        assert!(grown < 64, "reservation became resident: +{grown} MB for two 128 KB windows");
    }

    #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
    #[test]
    fn huge_page_advice_stays_inside_the_window() {
        /// Resident bytes of `a`'s whole storage, with the rest of its
        /// first and last pages (in the same mapping).
        fn resident_storage(a: &SlabArray) -> usize {
            let start = a.data.as_ptr() as usize;
            resident_pages(start & !(PAGE - 1), (start + std::mem::size_of_val(&a.data[..])).next_multiple_of(PAGE))
        }
        // Two channels of 1024 planes × 32 KB (32 MiB each), windowed over
        // half of them from storage plane 260 — edges off any 2 MiB line.
        let grid = LocalGrid::new(510, 64, 64);
        let mut a = SlabArray::windowed(grid, 2, 1024, 260);
        for ch in 0..2 {
            a.channel_mut(ch).fill(2.5);
        }
        // Outside the window, only the base pages the window's edges share
        // with it (and the allocation's first and last page) may be
        // resident — unless the host's THP mode is `always`, where the
        // kernel may back any touched 2 MiB stretch with a huge page,
        // advice or not: then up to one per window edge.
        let thp = std::fs::read_to_string("/sys/kernel/mm/transparent_hugepage/enabled");
        let slack = if thp.is_ok_and(|mode| mode.contains("[always]")) { 4 << 20 } else { 4 * PAGE };
        let window = 2 * grid.cells() * std::mem::size_of::<f64>();
        let resident = resident_storage(&a);
        assert!(resident >= window, "the window is not resident after being written");
        assert!(
            resident <= window + 2 * slack,
            "storage outside the window became resident: {} KiB for a {} KiB window",
            resident >> 10,
            window >> 10
        );
        assert!(a.channel(1).iter().all(|&v| v == 2.5));
    }

    #[test]
    fn releasing_whole_pages_leaves_the_surviving_planes_intact() {
        // 32 KB planes, so vacated planes span whole pages and really go
        // back to the OS (where `release` is implemented).
        let grid = LocalGrid::new(30, 64, 64);
        let mut a = SlabArray::windowed(grid, 2, 64, 16);
        for ch in 0..2 {
            let cells = a.channel_mut(ch);
            for (cell, v) in cells.iter_mut().enumerate() {
                *v = (1 + ch + 2 * cell) as f64;
            }
        }
        let before = a.clone();
        // Lose 10 planes on the left and 12 on the right, then take the
        // old window back: old interior planes 11..=18 never left it.
        a.set_window(26, 8);
        a.set_window(16, 30);
        for xl in 11..=18 {
            assert_eq!(plane(&a, xl), plane(&before, xl), "plane {xl}");
        }
        // The planes that came back are writable storage again.
        a.channel_mut(1).fill(7.0);
        assert!(a.channel(1).iter().all(|&v| v == 7.0));
    }

    #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
    #[test]
    fn plane_release_hands_back_the_planes_below_and_keeps_the_rest() {
        // 8000-byte planes, so page edges fall inside planes and the page
        // two calls' planes share goes back with the second.
        let grid = LocalGrid::new(30, 50, 20);
        let mut a = SlabArray::windowed(grid, 2, 40, 3);
        for ch in 0..2 {
            for (cell, v) in a.channel_mut(ch).iter_mut().enumerate() {
                *v = (1 + ch + 2 * cell) as f64;
            }
        }
        let before = a.clone();
        a.release_window_planes(0..5);
        a.release_window_planes(5..9);
        a.release_window_planes(9..9);
        assert_eq!(a.resident_plane_bytes(0..9), 0, "a page below plane 9 is still resident");
        assert!(a.resident_plane_bytes(9..grid.lx) > 0);
        for xl in 9..grid.lx {
            assert_eq!(plane(&a, xl), plane(&before, xl), "plane {xl}");
        }
    }

    #[test]
    #[should_panic(expected = "outside the storage capacity")]
    fn a_window_cannot_leave_its_storage() {
        windowed_filled(1).set_window(7, 4);
    }

    // The per-cell accessors are on kernel-adjacent paths, so their window
    // check is a debug assertion — which the dev-profile test run compiles.
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "outside the window")]
    fn reading_past_the_window_is_caught_in_dev_builds() {
        let a = windowed_filled(2);
        // In storage (the reservation continues), but not in the window.
        a.at(0, a.grid().cells());
    }

    #[test]
    fn ghost_indices() {
        let grid = LocalGrid::new(7, 3, 3);
        assert_eq!(LocalGrid::GHOST_LEFT, 0);
        assert_eq!(grid.ghost_right(), 8);
        assert_eq!(LocalGrid::FIRST, 1);
        assert_eq!(grid.last(), 7);
        assert_eq!(grid.nx_local(), 7);
        assert_eq!(grid.cells(), 9 * 9);
    }
}
