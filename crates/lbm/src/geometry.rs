//! Domain geometry: the microchannel, cell indexing and slab decomposition.
//!
//! The channel (paper Fig. 5) is periodic along the flow direction `x` and
//! bounded by solid walls on the four lateral faces: side walls at
//! `y = -1/2` and `y = ny - 1/2` and top/bottom walls at `z = -1/2` and
//! `z = nz - 1/2` (halfway bounce-back convention: walls sit half a grid
//! spacing outside the first/last fluid cell).

/// Global fluid-cell dimensions of the channel.
///
/// `nx` is the streamwise (periodic, decomposed) direction; `ny` the width
/// between the side walls; `nz` the depth between top and bottom walls.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Dims {
    pub nx: usize,
    pub ny: usize,
    pub nz: usize,
}

impl Dims {
    /// Creates channel dimensions. All extents must be nonzero.
    pub fn new(nx: usize, ny: usize, nz: usize) -> Self {
        assert!(nx > 0 && ny > 0 && nz > 0, "all dimensions must be positive");
        Dims { nx, ny, nz }
    }

    /// The paper's production grid: 400 × 200 × 20.
    pub fn paper() -> Self {
        Dims::new(400, 200, 20)
    }

    /// Total number of fluid cells.
    pub fn cells(&self) -> usize {
        self.nx * self.ny * self.nz
    }

    /// Cells in one y–z plane (the granularity of lattice-point migration).
    pub fn plane_cells(&self) -> usize {
        self.ny * self.nz
    }

    /// Flat index of cell `(x, y, z)`; x-major so a y–z plane is contiguous.
    #[inline(always)]
    pub fn idx(&self, x: usize, y: usize, z: usize) -> usize {
        debug_assert!(x < self.nx && y < self.ny && z < self.nz);
        (x * self.ny + y) * self.nz + z
    }
}

/// A contiguous range of y–z planes owned by one node, in global
/// x-coordinates: planes `x0 .. x0 + nx_local`.
///
/// This is the paper's "starting and ending indices on the X axis"
/// (pseudo-code lines 1–2).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Slab {
    /// First global plane index owned by this node.
    pub x0: usize,
    /// Number of planes owned.
    pub nx_local: usize,
}

impl Slab {
    /// One-past-the-end global plane index.
    pub fn x_end(&self) -> usize {
        self.x0 + self.nx_local
    }

    /// Whether the slab owns global plane `x`.
    pub fn contains(&self, x: usize) -> bool {
        x >= self.x0 && x < self.x_end()
    }
}

/// Splits `nx` planes into `parts` contiguous slabs as evenly as possible
/// (the paper's initial even distribution; remainders go to the first
/// slabs).
pub fn even_slabs(nx: usize, parts: usize) -> Vec<Slab> {
    assert!(parts > 0, "need at least one slab");
    assert!(nx >= parts, "cannot give every node at least one plane: nx={nx} parts={parts}");
    let base = nx / parts;
    let extra = nx % parts;
    let mut out = Vec::with_capacity(parts);
    let mut x0 = 0;
    for p in 0..parts {
        let n = base + usize::from(p < extra);
        out.push(Slab { x0, nx_local: n });
        x0 += n;
    }
    debug_assert_eq!(x0, nx);
    out
}

/// Whether `slabs` (in any order) cover planes `0..nx` exactly once.
pub fn slabs_tile(slabs: impl IntoIterator<Item = Slab>, nx: usize) -> bool {
    let mut slabs: Vec<Slab> = slabs.into_iter().collect();
    slabs.sort_by_key(|s| s.x0);
    let end = slabs
        .iter()
        .try_fold(0, |x, s| (s.x0 == x && s.nx_local > 0).then(|| x.checked_add(s.nx_local))?);
    end == Some(nx)
}

/// Signed distances (in lattice units) from cell center `(y, z)` to each of
/// the four lateral walls, used by the hydrophobic wall-force model.
///
/// Distances follow the halfway-wall convention: the first fluid cell center
/// is 0.5 lattice units from the wall.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct WallDistances {
    /// Distance to the left side wall (y = −1/2).
    pub y_low: f64,
    /// Distance to the right side wall (y = ny − 1/2).
    pub y_high: f64,
    /// Distance to the bottom wall (z = −1/2).
    pub z_low: f64,
    /// Distance to the top wall (z = nz − 1/2).
    pub z_high: f64,
}

impl Dims {
    /// Wall distances for the cell at lateral position `(y, z)`.
    pub fn wall_distances(&self, y: usize, z: usize) -> WallDistances {
        WallDistances {
            y_low: y as f64 + 0.5,
            y_high: (self.ny - y) as f64 - 0.5,
            z_low: z as f64 + 0.5,
            z_high: (self.nz - z) as f64 - 0.5,
        }
    }
}

/// A solid region inside the channel: obstacles that fluid flows around,
/// via the same halfway bounce-back rule as the channel walls. The LBM's
/// strength in "complex three-dimensional geometries" (Martys & Chen,
/// cited by the paper) comes from exactly this cell-wise masking.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum SolidRegion {
    /// Axis-aligned box of cells: `min` inclusive, `max` exclusive.
    Block { min: [usize; 3], max: [usize; 3] },
    /// Sphere around a (cell-coordinate) center.
    Sphere { center: [f64; 3], radius: f64 },
    /// Cylinder along z (a "post" spanning the channel depth), the classic
    /// flow-past-a-cylinder obstacle.
    CylinderZ { center: [f64; 2], radius: f64 },
}

impl SolidRegion {
    /// Whether the cell at integer coordinates `(x, y, z)` is solid.
    pub fn contains(&self, x: usize, y: usize, z: usize) -> bool {
        match *self {
            SolidRegion::Block { min: [x0, y0, z0], max: [x1, y1, z1] } => {
                x >= x0 && x < x1 && y >= y0 && y < y1 && z >= z0 && z < z1
            }
            SolidRegion::Sphere { center: [cx, cy, cz], radius } => {
                let dx = x as f64 - cx;
                let dy = y as f64 - cy;
                let dz = z as f64 - cz;
                dx * dx + dy * dy + dz * dz <= radius * radius
            }
            SolidRegion::CylinderZ { center: [cx, cy], radius } => {
                let dx = x as f64 - cx;
                let dy = y as f64 - cy;
                dx * dx + dy * dy <= radius * radius
            }
        }
    }
}

/// The microchannel of the paper: physical extents plus grid resolution.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Microchannel {
    /// Streamwise length in meters (paper: 2 µm).
    pub length: f64,
    /// Width between side walls in meters (paper: 1 µm).
    pub width: f64,
    /// Depth between top/bottom walls in meters (paper: 0.1 µm).
    pub depth: f64,
    /// Grid spacing in meters (paper: 5 nm).
    pub dx: f64,
}

impl Microchannel {
    /// The paper's channel: 2 µm × 1 µm × 0.1 µm at 5 nm spacing.
    pub fn paper() -> Self {
        Microchannel { length: 2.0e-6, width: 1.0e-6, depth: 0.1e-6, dx: 5.0e-9 }
    }

    /// Grid dimensions implied by the physical extents and spacing.
    ///
    /// Extents must be integer multiples of `dx` (up to rounding noise).
    pub fn dims(&self) -> Dims {
        let round = |ext: f64| -> usize {
            let n = ext / self.dx;
            let r = n.round();
            assert!((n - r).abs() < 1e-6, "extent {ext} is not a multiple of dx {}", self.dx);
            r as usize
        };
        Dims::new(round(self.length), round(self.width), round(self.depth))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_channel_is_400x200x20() {
        let d = Microchannel::paper().dims();
        assert_eq!(d, Dims::new(400, 200, 20));
        assert_eq!(d.cells(), 1_600_000);
        assert_eq!(d.plane_cells(), 4000); // the paper's migration threshold
    }

    #[test]
    fn idx_is_plane_contiguous() {
        let d = Dims::new(4, 3, 2);
        // All cells of plane x form the contiguous block
        // [x*plane_cells, (x+1)*plane_cells).
        for x in 0..4 {
            let lo = x * d.plane_cells();
            let mut seen: Vec<usize> = Vec::new();
            for y in 0..3 {
                for z in 0..2 {
                    seen.push(d.idx(x, y, z));
                }
            }
            assert_eq!(seen, (lo..lo + d.plane_cells()).collect::<Vec<_>>());
        }
    }

    #[test]
    fn even_slabs_cover_domain() {
        for nx in [20, 400, 57] {
            for parts in [1, 2, 3, 7, 20] {
                if nx < parts {
                    continue;
                }
                let slabs = even_slabs(nx, parts);
                assert_eq!(slabs.len(), parts);
                let mut x = 0;
                for s in &slabs {
                    assert_eq!(s.x0, x, "slabs must be contiguous");
                    assert!(s.nx_local > 0);
                    x = s.x_end();
                }
                assert_eq!(x, nx, "slabs must cover the domain");
                assert!(slabs_tile(slabs.iter().rev().copied(), nx), "any order tiles");
                assert!(!slabs_tile(slabs.iter().copied(), nx + 1), "short of the domain");
                assert!(!slabs_tile(slabs.iter().skip(1).copied(), nx), "a gap at the start");
                let twice = slabs.iter().chain(slabs.first()).copied();
                assert!(!slabs_tile(twice, nx), "an overlap");
                let sizes: Vec<usize> = slabs.iter().map(|s| s.nx_local).collect();
                let (min, max) = (sizes.iter().min().unwrap(), sizes.iter().max().unwrap());
                assert!(max - min <= 1, "even split must be balanced");
            }
        }
    }

    #[test]
    fn paper_decomposition_is_20_planes_each() {
        // 400 planes on 20 nodes = a 20×200×20 slab per node (paper §4.2).
        let slabs = even_slabs(400, 20);
        assert!(slabs.iter().all(|s| s.nx_local == 20));
    }

    #[test]
    fn wall_distances_symmetry() {
        let d = Dims::new(8, 10, 6);
        for y in 0..10 {
            for z in 0..6 {
                let w = d.wall_distances(y, z);
                let m = d.wall_distances(10 - 1 - y, 6 - 1 - z);
                assert!((w.y_low - m.y_high).abs() < 1e-12);
                assert!((w.z_low - m.z_high).abs() < 1e-12);
                assert!(w.y_low > 0.0 && w.z_low > 0.0);
                // Distances to opposite walls sum to the channel extent.
                assert!((w.y_low + w.y_high - 10.0).abs() < 1e-12);
                assert!((w.z_low + w.z_high - 6.0).abs() < 1e-12);
            }
        }
    }

    #[test]
    #[should_panic(expected = "at least one plane")]
    fn too_many_slabs_panics() {
        even_slabs(3, 4);
    }

    #[test]
    fn block_region_bounds() {
        let b = SolidRegion::Block { min: [2, 1, 0], max: [4, 3, 2] };
        assert!(b.contains(2, 1, 0));
        assert!(b.contains(3, 2, 1));
        assert!(!b.contains(4, 1, 0), "max is exclusive");
        assert!(!b.contains(1, 1, 0));
        assert!(!b.contains(2, 1, 2));
    }

    #[test]
    fn sphere_region() {
        let s = SolidRegion::Sphere { center: [5.0, 5.0, 5.0], radius: 2.0 };
        assert!(s.contains(5, 5, 5));
        assert!(s.contains(7, 5, 5));
        assert!(!s.contains(8, 5, 5));
        assert!(!s.contains(7, 7, 5));
    }

    #[test]
    fn cylinder_ignores_z() {
        let c = SolidRegion::CylinderZ { center: [3.0, 3.0], radius: 1.5 };
        for z in 0..10 {
            assert!(c.contains(3, 3, z));
            assert!(c.contains(4, 3, z));
            assert!(!c.contains(5, 3, z));
        }
    }
}
