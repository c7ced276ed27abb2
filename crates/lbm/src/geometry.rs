//! Domain decomposition: the slabs of y–z planes the nodes own, and the
//! paper's physical microchannel. The grid itself ([`Dims`]) and the solid
//! regions ([`SolidRegion`]) are configuration, `microslip_config::geometry`,
//! re-exported here.

pub use microslip_config::geometry::{Dims, SolidRegion, WallDistances};

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
    #[should_panic(expected = "at least one plane")]
    fn too_many_slabs_panics() {
        even_slabs(3, 4);
    }
}
