#![expect(
    unsafe_code,
    reason = "madvise on memory the array owns exclusively: MADV_DONTNEED on whole \
              pages of storage planes a slab's window has just left, or that a \
              consuming capture has passed, MADV_HUGEPAGE on the 2 MiB-aligned \
              interior of the window (a paging hint that keeps every value); \
              mincore in residency tests"
)]
//! Flat plane-major field storage for slab subdomains.
//!
//! Every node (or the sequential driver, which is the one-node special case)
//! stores its slab of the channel plus one *ghost* plane on each side in x.
//! Ghost planes hold copies of the neighbor's boundary data and are refreshed
//! by halo exchange each phase; they are never owned.
//!
//! Layout is plane-major: one y–z plane holds every channel, each a
//! contiguous run of the plane's cells in x-major cell order, so a plane —
//! what a halo, a migration and a checkpoint record move — is one slice,
//! and a channel of it one run inside that slice. The slab is a *window* of
//! planes inside a possibly larger storage reservation (see [`SlabArray`]):
//! a slab that gains or loses planes moves its window and copies only the
//! planes that travel.

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
/// Storage may hold more planes than the grid: `cap_planes` planes of
/// `channels × plane_cells` values, of which the grid is the **window** of
/// `lx` planes starting at storage plane `off`, one contiguous slice. Every
/// accessor — indexing, slices, `==`, `clone()`, `Debug` — is cut from that
/// slice, so it reads and writes the window only; kernels get slices of
/// window cells, one a channel, and keep their loop extents local.
/// Moving the window ([`set_window`](Self::set_window)) is how a slab gains
/// and loses planes without its surviving planes being copied. Slots
/// outside the window hold unspecified values nothing reads, and (to page
/// granularity) no memory: storage comes from `alloc_zeroed`, whose
/// untouched pages are reserved, not resident, pages a window leaves are
/// handed back (`release`), and only a new window's 2 MiB-aligned interior
/// is advised into huge pages.
pub struct SlabArray {
    grid: LocalGrid,
    channels: usize,
    /// Planes in `data` (`>= off + grid.lx`).
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
    /// `cap_planes` storage planes.
    pub fn windowed(grid: LocalGrid, channels: usize, cap_planes: usize, off: usize) -> Self {
        assert!(channels > 0);
        assert!(off + grid.lx <= cap_planes, "window outside the storage capacity");
        let data = vec![0.0; cap_planes * channels * grid.plane_cells()];
        let mut array = SlabArray { grid, channels, cap_planes, off, data };
        // Zeroed storage is untouched pages when it comes fresh from the
        // OS, but written ones when the allocator recycles memory (glibc
        // below its mmap threshold): hand back what the window leaves.
        array.release(array.storage(0..off));
        array.release(array.storage(off + grid.lx..cap_planes));
        // Huge pages where the window's first touch faults (most of
        // `SlabSolver::new` on a VM), but only on the window's 2 MiB-aligned
        // interior: advice reaching outside it would make reserved storage
        // resident. Without THP the advice changes nothing.
        madvise_interior(array.window_mut(), HUGE_PAGE, MADV_HUGEPAGE);
        array
    }

    /// Storage values of storage planes `planes`.
    fn storage(&self, planes: Range<usize>) -> Range<usize> {
        let n = self.plane_len();
        planes.start * n..planes.end * n
    }

    /// Hands the whole pages inside storage values `values` back to the
    /// operating system, so a slab's resident memory follows its window
    /// down as well as up: without this, planes given away would stay
    /// resident in the giver for the rest of the run while the receiver
    /// faults in its own copies. The values become unspecified (zeros where
    /// a page went, the old values on the partial pages at either end),
    /// which is all storage outside the window ever promises. An inverted
    /// range — nothing vacated on that side — selects nothing.
    fn release(&mut self, values: Range<usize>) {
        if let Some(vacated) = self.data.get_mut(values) {
            madvise_interior(vacated, PAGE, MADV_DONTNEED);
        }
    }

    /// The window's values, plane by plane. `windowed` and `set_window`
    /// keep the window inside the storage.
    fn window(&self) -> &[f64] {
        &self.data[self.storage(self.off..self.off + self.grid.lx)]
    }

    fn window_mut(&mut self) -> &mut [f64] {
        let window = self.storage(self.off..self.off + self.grid.lx);
        &mut self.data[window]
    }

    pub fn grid(&self) -> LocalGrid {
        self.grid
    }

    pub fn channels(&self) -> usize {
        self.channels
    }

    /// Window index of `(ch, cell)`.
    #[inline(always)]
    fn index(&self, ch: usize, cell: usize) -> usize {
        debug_assert!(ch < self.channels && cell < self.grid.cells(), "cell outside the window");
        let p = self.grid.plane_cells();
        (cell / p * self.channels + ch) * p + cell % p
    }

    /// Value of `(ch, cell)`.
    pub fn at(&self, ch: usize, cell: usize) -> f64 {
        self.window()[self.index(ch, cell)]
    }

    pub fn set(&mut self, ch: usize, cell: usize, v: f64) {
        let i = self.index(ch, cell);
        self.window_mut()[i] = v;
    }

    /// Local plane `xl` of the first `N` channels, one slice a channel.
    pub(crate) fn plane<const N: usize>(&self, xl: usize) -> [&[f64]; N] {
        let p = self.grid.plane_cells();
        runs(self.plane_values(xl), p, 0..p)
    }

    /// Mutable [`plane`](Self::plane).
    pub(crate) fn plane_mut<const N: usize>(&mut self, xl: usize) -> [&mut [f64]; N] {
        let p = self.grid.plane_cells();
        runs_mut(self.plane_values_mut(xl), p, 0..p)
    }

    /// The window's values, channel-major.
    pub fn to_vec(&self) -> Vec<f64> {
        let p = self.grid.plane_cells();
        let run = |ch: usize| (0..self.grid.lx).flat_map(move |xl| &self.plane_values(xl)[ch * p..(ch + 1) * p]);
        (0..self.channels).flat_map(run).copied().collect()
    }

    /// Number of `f64` values in one plane (all channels).
    pub fn plane_len(&self) -> usize {
        self.channels * self.grid.plane_cells()
    }

    /// Local plane `xl`, every channel in channel order: what one plane
    /// record of a checkpoint or a migration message holds of this array.
    pub fn plane_values(&self, xl: usize) -> &[f64] {
        let n = self.plane_len();
        &self.window()[xl * n..][..n]
    }

    /// Mutable [`plane_values`](Self::plane_values).
    pub fn plane_values_mut(&mut self, xl: usize) -> &mut [f64] {
        let n = self.plane_len();
        &mut self.window_mut()[xl * n..][..n]
    }

    /// Copies channel `ch` of local plane `src` onto the same channel of
    /// local plane `dst`.
    pub(crate) fn copy_run(&mut self, ch: usize, src: usize, dst: usize) {
        let (n, p) = (self.plane_len(), self.grid.plane_cells());
        let run = src * n + ch * p;
        self.window_mut().copy_within(run..run + p, dst * n + ch * p);
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
        self.release(self.storage(old.start..new.start.min(old.end)));
        self.release(self.storage(new.end.max(old.start)..old.end));
        (self.grid, self.off) = (grid, off);
        let n = self.plane_len();
        let window = self.window_mut();
        let right = window.len() - n;
        window[..n].fill(0.0);
        window[right..].fill(0.0);
    }

    /// Hands back every whole page of window planes `planes`, from the page
    /// their first plane shares with the plane below it: a consuming
    /// capture's planes passed since its last hand-back, which released
    /// none of that page, as it reached past the planes it was given. The
    /// planes hold unspecified values afterwards.
    pub(crate) fn release_window_planes(&mut self, planes: Range<usize>) {
        assert!(planes.end <= self.grid.lx, "plane outside the window");
        let n = self.plane_len();
        let base = self.off * n;
        let from = (planes.start * n).saturating_sub(PAGE / std::mem::size_of::<f64>());
        self.release(base + from..base + planes.end * n);
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
        out.window_mut().copy_from_slice(self.window());
        out
    }
}

/// Equal grids, channel counts and window values; where the window sits in
/// its storage, and what lies outside it, is not part of the value.
impl PartialEq for SlabArray {
    fn eq(&self, other: &Self) -> bool {
        self.grid == other.grid && self.channels == other.channels && self.window() == other.window()
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
        /// Resident bytes of the whole pages inside window planes `planes`.
        pub(crate) fn resident_plane_bytes(&self, planes: std::ops::Range<usize>) -> usize {
            let n = self.plane_len();
            let values = &self.window()[planes.start * n..planes.end * n];
            let start = values.as_ptr() as usize;
            resident_pages(start.next_multiple_of(PAGE), (start + std::mem::size_of_val(values)) & !(PAGE - 1))
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
        for xl in 0..grid.lx {
            b.plane_values_mut(xl).copy_from_slice(a.plane_values(xl));
        }
        assert_eq!(a, b);
    }

    #[test]
    fn plane_values_read_and_write_the_window_plane_by_plane() {
        let a = windowed_filled(3);
        let mut b = SlabArray::windowed(a.grid(), 3, 7, 1);
        for xl in 0..a.grid().lx {
            b.plane_values_mut(xl).copy_from_slice(a.plane_values(xl));
            assert_eq!(a.plane_values(xl).len(), a.plane_len());
        }
        assert_eq!(a, b);
        // A plane's values are its channels in channel order, each the
        // plane's cells in cell order.
        let p = a.grid().plane_cells();
        let want: Vec<f64> = (0..3).flat_map(|ch| (2 * p..3 * p).map(move |cell| (ch, cell))).map(|(ch, cell)| a.at(ch, cell)).collect();
        assert_eq!(a.plane_values(2), &want[..]);
        let runs: [&[f64]; 3] = a.plane(2);
        assert_eq!(runs.concat(), want, "a plane's runs are its channels");
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

    fn plane(a: &SlabArray, xl: usize) -> Vec<u64> {
        a.plane_values(xl).iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn a_windowed_array_equals_the_compact_one() {
        let a = windowed_filled(3);
        let mut b = SlabArray::new(a.grid(), 3);
        for xl in 0..a.grid().lx {
            b.plane_values_mut(xl).copy_from_slice(a.plane_values(xl));
        }
        assert_eq!(a, b);
        assert_eq!(a.to_vec(), b.to_vec());
        // Consecutive planes lie one plane (3 channels × 4 cells) apart, in
        // the reservation as in the compact storage.
        for x in [&a, &b] {
            let distance = x.plane_values(2).as_ptr() as usize - x.plane_values(1).as_ptr() as usize;
            assert_eq!(distance, 3 * 4 * std::mem::size_of::<f64>());
        }
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
            fresh.plane_values_mut(xl).copy_from_slice(a.plane_values(xl));
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
        // 128 MB reserved (4096 planes of one 32 KB channel), 4-plane
        // window in the middle.
        let grid = LocalGrid::new(2, 64, 64);
        let before = resident_mb();
        let mut a = SlabArray::windowed(grid, 1, 4096, 2000);
        a.window_mut().fill(1.5);
        let b = std::hint::black_box(a.clone());
        let grown = resident_mb().saturating_sub(before);
        assert_eq!(a, b);
        assert_eq!(b.data.len(), a.data.len(), "the clone keeps the reservation");
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
        // 1024 planes of two 32 KB channels (64 MiB), windowed over half
        // of them from storage plane 260 — edges off any 2 MiB line.
        let grid = LocalGrid::new(510, 64, 64);
        let mut a = SlabArray::windowed(grid, 2, 1024, 260);
        a.window_mut().fill(2.5);
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
        assert!(a.window().iter().all(|&v| v == 2.5));
    }

    #[test]
    fn releasing_whole_pages_leaves_the_surviving_planes_intact() {
        // 32 KB planes, so vacated planes span whole pages and really go
        // back to the OS (where `release` is implemented).
        let grid = LocalGrid::new(30, 64, 64);
        let mut a = SlabArray::windowed(grid, 2, 64, 16);
        for (k, v) in a.window_mut().iter_mut().enumerate() {
            *v = (1 + k) as f64;
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
        a.window_mut().fill(7.0);
        assert!(a.window().iter().all(|&v| v == 7.0));
    }

    #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
    #[test]
    fn plane_release_hands_back_the_planes_below_and_keeps_the_rest() {
        // 8000-byte planes, so page edges fall inside planes and the page
        // two calls' planes share goes back with the second.
        let grid = LocalGrid::new(30, 50, 20);
        let mut a = SlabArray::windowed(grid, 2, 40, 3);
        for (k, v) in a.window_mut().iter_mut().enumerate() {
            *v = (1 + k) as f64;
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

    // A storage plane outside the window sits right next to it, so the
    // plane accessors and the per-cell ones past the window must hit the
    // window slice's bounds, in every build, not read the neighbour.
    #[test]
    fn every_accessor_past_the_window_panics_in_every_build() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        let mut a = windowed_filled(2);
        let lx = a.grid().lx;
        let panics = |f: &mut dyn FnMut()| catch_unwind(AssertUnwindSafe(f)).is_err();
        assert!(panics(&mut || {
            a.plane::<2>(lx);
        }));
        assert!(panics(&mut || {
            a.plane_values(lx);
        }));
        assert!(panics(&mut || {
            a.plane_values_mut(lx);
        }));
        assert!(panics(&mut || {
            a.at(0, a.grid().cells());
        }));
        assert!(panics(&mut || a.set_window(7, 4)), "the reservation ends at storage plane 12");
        // The window itself is intact.
        assert_eq!(a, windowed_filled(2));
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
