//! Channel geometry: the grid dimensions, cell indexing, wall distances
//! and the solid regions carved out of the channel.
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
    #[inline]
    pub fn cells(&self) -> usize {
        self.nx * self.ny * self.nz
    }

    /// Cells in one y–z plane (the granularity of lattice-point migration).
    #[inline]
    pub fn plane_cells(&self) -> usize {
        self.ny * self.nz
    }

    /// Flat index of cell `(x, y, z)`; x-major so a y–z plane is contiguous.
    #[inline(always)]
    pub fn idx(&self, x: usize, y: usize, z: usize) -> usize {
        debug_assert!(x < self.nx && y < self.ny && z < self.nz);
        (x * self.ny + y) * self.nz + z
    }

    /// Wall distances for the cell at lateral position `(y, z)`.
    #[inline]
    pub fn wall_distances(&self, y: usize, z: usize) -> WallDistances {
        WallDistances {
            y_low: y as f64 + 0.5,
            y_high: (self.ny - y) as f64 - 0.5,
            z_low: z as f64 + 0.5,
            z_high: (self.nz - z) as f64 - 0.5,
        }
    }
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
    #[inline]
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

#[cfg(test)]
mod tests {
    use super::*;

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
