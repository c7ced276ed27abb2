//! The slab solver: one node's share of the channel, with halo extraction,
//! phase sub-steps and lattice-point migration.
//!
//! [`SlabSolver`] owns a contiguous range of y–z planes (a [`Slab`]) plus
//! ghost planes, and exposes the phase as separate sub-steps so a parallel
//! driver can interleave communication exactly as the paper's pseudo-code
//! (Fig. 2) does. There is **one schedule**, run by every driver — the
//! sequential [`Simulation`](crate::simulation::Simulation), the threaded
//! workers and the TCP ranks:
//!
//! ```text
//! collide_edges                   (lines 14, 16–17 and 4 for the two planes
//!                                  the halo ships: ψ of the planes around
//!                                  them, forces and equilibrium velocities,
//!                                  then the collision)
//! ⇄ exchange populations          (line 8)
//! stream_collide_fused            (the same for the rest, plane by plane
//!                                  just ahead of streaming, then lines 10–11:
//!                                  stream + bounce back — one sweep; then
//!                                  line 14 for the two edge planes)
//! ⇄ exchange number density       (line 14)
//! ```
//!
//! Two compute sections around the paper's two exchanges: the number
//! density, forces and equilibrium velocities the paper computes at the end
//! of phase n are formed at the start of phase n + 1, plane by plane, just
//! ahead of the collision that consumes them. The state at a phase boundary
//! is `f` (ghost planes included) plus, per component, ψ of the two ghost
//! planes the second exchange delivered and of the two edge planes it
//! shipped ([`ComponentState`]); the snapshot recomputes the rest from `f`.
//!
//! The sequential driver is the single-slab special case where both
//! exchanges reduce to periodic ghost copies
//! ([`phase_periodic`](SlabSolver::phase_periodic)). Because all kernels
//! operate per cell in the same order in every driver, a decomposed run is
//! **bitwise identical** to a sequential run — the invariant the
//! integration tests pin down. The textbook order (forces and velocities as
//! two whole-slab passes, collide everything, then stream everything)
//! survives only as the serial, test-only
//! [`phase_periodic_reference`](SlabSolver::phase_periodic_reference) that
//! `tests/parallel_equivalence.rs` holds the schedule to.

use crate::boundary::{slip_ry, SlipMap, SLIP_RZ};
use crate::component::{ComponentState, CouplingMatrix};
use crate::config::ChannelConfig;
use crate::field::{LocalGrid, SlabArray};
use crate::force::WallForce;
use crate::geometry::{Dims, Slab, SolidRegion};
use crate::lattice::D3Q19;
use crate::macroscopic::{Snapshot, SnapshotSlab};

/// A slab edge, in global x orientation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Side {
    /// The low-x edge.
    Left,
    /// The high-x edge.
    Right,
}

impl Side {
    pub fn opposite(self) -> Side {
        match self {
            Side::Left => Side::Right,
            Side::Right => Side::Left,
        }
    }
}

/// One node's solver state.
#[derive(Clone, Debug)]
pub struct SlabSolver {
    pub(crate) x0: usize,
    pub(crate) global_nx: usize,
    pub(crate) comps: Vec<ComponentState>,
    coupling: CouplingMatrix,
    wall: WallForce,
    body: [f64; 3],
    /// All solid regions this slab masks — the config's explicit obstacles
    /// merged with any wall-BC roughness geometry
    /// ([`ChannelConfig::effective_obstacles`]).
    obstacles: Vec<SolidRegion>,
    /// Y-wall bounce weights for the slip BCs (empty for the pure
    /// bounce-back variants), one per **storage plane** of the whole
    /// channel — plane `s` holds global x `s − 1`, periodically — built
    /// once; the slab reads its [`window`] of it, so it is invariant under
    /// decomposition and migration.
    slip_ry: Vec<f64>,
    /// Solid mask over the same storage planes (so ghost planes included),
    /// built once from `obstacles` and read through the same window.
    solid: Vec<bool>,
    /// The whole-slab force and equilibrium-velocity arrays of the
    /// two-pass reference, allocated by [`compute_forces`](Self::compute_forces)
    /// and [`compute_velocities`](Self::compute_velocities) only; no
    /// production path touches them.
    reference_force: Option<Vec<SlabArray>>,
    reference_ueq: Option<Vec<SlabArray>>,
}

impl SlabSolver {
    /// Builds the solver for `slab` of the configured channel and
    /// initializes every component to its uniform initial state.
    pub fn new(config: &ChannelConfig, slab: Slab) -> Self {
        let mut solver = SlabSolver::allocate(config, slab);
        let (init, nx_global) = (config.init, config.dims.nx);
        for (c, (_, n0)) in solver.comps.iter_mut().zip(&config.components) {
            c.init_profile(slab.x0, |x| n0 * init.factor(x, nx_global));
        }
        solver.clear_solid_cells();
        solver.compute_psi();
        solver
    }

    /// The solver for `slab` with its arrays allocated and its mask built,
    /// but no value initialized — for a restore that overwrites every one.
    pub(crate) fn allocate(config: &ChannelConfig, slab: Slab) -> Self {
        config.validate().expect("invalid channel configuration");
        assert!(slab.x_end() <= config.dims.nx, "slab exceeds the domain");
        assert!(slab.nx_local > 0);
        let grid = LocalGrid::new(slab.nx_local, config.dims.ny, config.dims.nz);
        let nx_global = config.dims.nx;
        // Every slab reserves the whole channel and lives at the storage
        // planes of its global x (left ghost at plane `x0`), so migration
        // is a window move and never has to grow anything. The planes
        // outside the window are reserved address space, not memory.
        let cap_planes = nx_global + 2;
        let comps = config
            .components
            .iter()
            .map(|(spec, _)| ComponentState::windowed(spec.clone(), grid, cap_planes, slab.x0))
            .collect();
        let mut solver = SlabSolver {
            x0: slab.x0,
            global_nx: config.dims.nx,
            comps,
            coupling: config.coupling.clone(),
            wall: config.wall,
            body: config.body,
            obstacles: config.effective_obstacles(),
            slip_ry: slip_ry(&config.wall_bc, 0, nx_global, cap_planes),
            solid: Vec::new(),
            reference_force: None,
            reference_ueq: None,
        };
        solver.solid = solid_mask(&solver.obstacles, config.dims, 0..cap_planes);
        solver
    }

    /// The solid mask over the local grid (ghost planes included).
    fn solid(&self) -> &[bool] {
        window(&self.solid, self.x0, self.grid())
    }

    /// Zeros the populations at solid cells, once, after initialization;
    /// streaming keeps them zero from then on, and ψ follows from those.
    fn clear_solid_cells(&mut self) {
        if self.obstacles.is_empty() {
            return;
        }
        let solid = window(&self.solid, self.x0, self.grid());
        for cell in (0..solid.len()).filter(|&cell| solid[cell]) {
            for c in self.comps.iter_mut() {
                for i in 0..D3Q19::Q {
                    c.f.set(i, cell, 0.0);
                }
            }
        }
    }

    /// Whether the local cell `(xl, y, z)` is solid.
    pub fn is_solid(&self, xl: usize, y: usize, z: usize) -> bool {
        self.solid()[self.grid().idx(xl, y, z)]
    }

    /// Fraction of this slab's interior cells that are solid.
    pub fn solid_fraction(&self) -> f64 {
        let grid = self.grid();
        let p = grid.plane_cells();
        let interior = &self.solid()[LocalGrid::FIRST * p..(grid.last() + 1) * p];
        interior.iter().filter(|&&s| s).count() as f64 / interior.len() as f64
    }

    /// Global x index of the first owned plane.
    pub fn x0(&self) -> usize {
        self.x0
    }

    /// Owned plane count.
    pub fn nx_local(&self) -> usize {
        self.comps[0].grid().nx_local()
    }

    /// The slab in global coordinates.
    pub fn slab(&self) -> Slab {
        Slab { x0: self.x0, nx_local: self.nx_local() }
    }

    /// Owned lattice points (the balancer's unit of work).
    pub fn points(&self) -> usize {
        self.nx_local() * self.comps[0].grid().plane_cells()
    }

    /// Streamwise extent of the full channel.
    pub fn global_nx(&self) -> usize {
        self.global_nx
    }

    pub fn components(&self) -> &[ComponentState] {
        &self.comps
    }

    pub fn grid(&self) -> LocalGrid {
        self.comps[0].grid()
    }

    // ---- phase sub-steps -------------------------------------------------

    /// Phase step 1: collides the two slab-edge planes — everything the
    /// population halo exchange reads ([`f_halo_out`](Self::f_halo_out)
    /// ships edge planes only) — in place, each at equilibrium velocities
    /// formed just before from ψ of the planes around it (ψ ghosts
    /// current), taken from the phase-boundary populations first. The
    /// remaining planes are left to
    /// [`stream_collide_fused`](Self::stream_collide_fused), which collides
    /// them just ahead of streaming.
    pub fn collide_edges(&mut self) {
        let solid = window(&self.solid, self.x0, self.grid());
        let forcing = (&self.coupling, &self.wall, self.body);
        crate::multicomponent::collide_edges(&mut self.comps, forcing, solid);
    }

    /// Phase step 2 (after the population exchange): collides the interior
    /// planes and streams every plane in a single sweep over `f`, applying
    /// the active wall BC (bounce-back or a slip rule) at channel walls and
    /// obstacles, then takes ψ of the two streamed edge planes for the ψ
    /// exchange. The BC is resolved to a per-plane weight map here, once;
    /// the sweep kernels never dispatch per cell.
    pub fn stream_collide_fused(&mut self) {
        let grid = self.grid();
        let slip = slip_map(&self.slip_ry, self.x0, grid.lx);
        let solid = window(&self.solid, self.x0, grid);
        let has_solid = !self.obstacles.is_empty();
        let forcing = (&self.coupling, &self.wall, self.body);
        crate::streaming::sweep(&mut self.comps, solid, has_solid, slip, Some(forcing));
        self.compute_psi();
    }

    /// ψ of the two edge planes from their populations — what
    /// [`stream_collide_fused`](Self::stream_collide_fused) leaves for the
    /// ψ exchange. Not a phase step: priming calls it, and the ledger times
    /// it.
    pub fn compute_psi(&mut self) {
        self.comps.iter_mut().for_each(crate::macroscopic::edge_psi);
    }

    /// First half of the two-pass reference of the equilibrium velocities
    /// the collisions form: every force density into whole-slab arrays this
    /// call allocates (and keeps for the next). For the test oracle and the
    /// ledger's step table; no production path calls it.
    #[doc(hidden)]
    pub fn compute_forces(&mut self) {
        let grid = self.grid();
        let mut forces = reference_arrays(self.reference_force.take(), grid, self.comps.len());
        let solid = window(&self.solid, self.x0, grid);
        crate::force::compute_forces(&self.comps, &self.coupling, &self.wall, self.body, solid, &mut forces);
        self.reference_force = Some(forces);
    }

    /// Second half of the two-pass reference: the equilibrium velocities
    /// from the current populations and the forces
    /// [`compute_forces`](Self::compute_forces) stored, into whole-slab
    /// arrays of their own ([`reference_ueq`](Self::reference_ueq)); the
    /// state is not written. Panics without the forces.
    #[doc(hidden)]
    pub fn compute_velocities(&mut self) {
        let forces = self.reference_force.as_deref().expect("compute_velocities needs compute_forces first");
        let mut ueq = reference_arrays(self.reference_ueq.take(), self.grid(), self.comps.len());
        crate::multicomponent::update_equilibrium_velocities(&self.comps, forces, &mut ueq);
        self.reference_ueq = Some(ueq);
    }

    /// The equilibrium velocities the last
    /// [`compute_velocities`](Self::compute_velocities) formed, one
    /// 3-channel array per component (ghost planes zero), if any.
    #[doc(hidden)]
    pub fn reference_ueq(&self) -> Option<&[SlabArray]> {
        self.reference_ueq.as_deref()
    }

    // ---- halo protocol ---------------------------------------------------

    /// Number of `f64` values in a population halo message: the five
    /// boundary-crossing directions of each component over one plane
    /// (paper §2.2: directions 1,7,9,11,13 right; 2,8,10,12,14 left).
    pub fn f_halo_len(&self) -> usize {
        5 * self.comps.len() * self.grid().plane_cells()
    }

    /// Number of `f64` values in a ψ halo message (one plane per component).
    pub fn psi_halo_len(&self) -> usize {
        self.comps.len() * self.grid().plane_cells()
    }

    fn crossing_dirs(side: Side) -> &'static [usize; 5] {
        match side {
            Side::Right => &D3Q19::POS_X,
            Side::Left => &D3Q19::NEG_X,
        }
    }

    /// Local index of the owned plane at the `side` edge.
    fn edge(&self, side: Side) -> usize {
        match side {
            Side::Left => LocalGrid::FIRST,
            Side::Right => self.grid().last(),
        }
    }

    /// Local index of the `side` ghost plane.
    fn ghost(&self, side: Side) -> usize {
        match side {
            Side::Left => LocalGrid::GHOST_LEFT,
            Side::Right => self.grid().ghost_right(),
        }
    }

    /// The plane-long runs a population halo message to the `side` neighbor
    /// is made of: the edge plane's boundary-crossing directions, per
    /// component.
    fn f_halo_runs(&self, side: Side) -> impl Iterator<Item = &[f64]> {
        let xl = self.edge(side);
        self.comps.iter().flat_map(move |c| {
            let plane: [&[f64]; D3Q19::Q] = c.f.plane(xl);
            Self::crossing_dirs(side).iter().map(move |&i| plane[i])
        })
    }

    /// As [`f_halo_runs`](Self::f_halo_runs) for the ψ message: ψ of the
    /// edge plane of each component.
    fn psi_halo_runs(&self, side: Side) -> impl Iterator<Item = &[f64]> {
        let xl = self.edge(side);
        self.comps.iter().flat_map(move |c| c.kept_psi(xl))
    }

    /// Hands local plane `xl`'s record — a checkpoint's and a migration
    /// message's — to `emit` a run at a time: per component its plane of
    /// `f` (19 channels, one slice), then ψ: the exchanged ψ of a ghost
    /// plane, Σ_i f_i of an owned one, taken into `psi` (`plane_cells`
    /// values of scratch).
    pub(crate) fn plane_record(comps: &[ComponentState], xl: usize, psi: &mut [f64], mut emit: impl FnMut(&[f64])) {
        let grid = comps[0].grid();
        let ghost = xl == LocalGrid::GHOST_LEFT || xl == grid.ghost_right();
        for c in comps {
            emit(c.f.plane_values(xl));
            match c.kept_psi(xl).filter(|_| ghost) {
                Some(kept) => emit(kept),
                None => {
                    crate::macroscopic::plane_psi(&c.f, xl, psi);
                    emit(psi);
                }
            }
        }
    }

    /// Extracts the post-collision populations the `side` neighbor needs:
    /// the edge plane's boundary-crossing directions, per component.
    pub fn f_halo_out(&self, side: Side, buf: &mut [f64]) {
        assert_eq!(buf.len(), self.f_halo_len());
        let p = self.grid().plane_cells();
        for (dst, src) in buf.chunks_exact_mut(p).zip(self.f_halo_runs(side)) {
            dst.copy_from_slice(src);
        }
    }

    /// [`f_halo_out`](Self::f_halo_out) into a fresh message, packed once:
    /// the `Vec` a transport takes ownership of.
    pub fn f_halo_message(&self, side: Side) -> Vec<f64> {
        let mut msg = Vec::with_capacity(self.f_halo_len());
        self.f_halo_runs(side).for_each(|run| msg.extend_from_slice(run));
        msg
    }

    /// Installs a neighbor's halo message into the `side` ghost plane.
    /// The message must have been produced by the neighbor's
    /// `f_halo_out(side.opposite())`.
    pub fn f_halo_in(&mut self, side: Side, buf: &[f64]) {
        assert_eq!(buf.len(), self.f_halo_len());
        let p = self.grid().plane_cells();
        let xl = self.ghost(side);
        // A left ghost supplies +x-moving populations (sent by the left
        // neighbor's right edge); a right ghost supplies −x movers.
        let dirs = Self::crossing_dirs(side.opposite());
        let mut runs = buf.chunks_exact(p);
        for c in self.comps.iter_mut() {
            let plane = c.f.plane_values_mut(xl);
            for (&i, run) in dirs.iter().zip(&mut runs) {
                plane[i * p..(i + 1) * p].copy_from_slice(run);
            }
        }
    }

    /// Extracts the edge ψ plane for the `side` neighbor.
    pub fn psi_halo_out(&self, side: Side, buf: &mut [f64]) {
        assert_eq!(buf.len(), self.psi_halo_len());
        let p = self.grid().plane_cells();
        for (dst, src) in buf.chunks_exact_mut(p).zip(self.psi_halo_runs(side)) {
            dst.copy_from_slice(src);
        }
    }

    /// [`psi_halo_out`](Self::psi_halo_out) into a fresh message.
    pub fn psi_halo_message(&self, side: Side) -> Vec<f64> {
        let mut msg = Vec::with_capacity(self.psi_halo_len());
        self.psi_halo_runs(side).for_each(|run| msg.extend_from_slice(run));
        msg
    }

    /// Installs a neighbor's ψ plane into the `side` ghost.
    pub fn psi_halo_in(&mut self, side: Side, buf: &[f64]) {
        assert_eq!(buf.len(), self.psi_halo_len());
        let (p, xl) = (self.grid().plane_cells(), self.ghost(side));
        for (c, run) in self.comps.iter_mut().zip(buf.chunks_exact(p)) {
            c.keep_psi(xl, run);
        }
    }

    /// Periodic self-exchange of the population halo (sequential driver, or
    /// a single node owning the whole channel).
    pub fn f_ghosts_periodic(&mut self) {
        for side in [Side::Right, Side::Left] {
            // What leaves the `side` edge enters through the other ghost.
            let (src, dst) = (self.edge(side), self.ghost(side.opposite()));
            for c in self.comps.iter_mut() {
                for &i in Self::crossing_dirs(side) {
                    c.f.copy_run(i, src, dst);
                }
            }
        }
    }

    /// Periodic self-exchange of the ψ halo.
    pub fn psi_ghosts_periodic(&mut self) {
        // What leaves the `side` edge enters through the other ghost: in
        // `halo_psi`, the left ghost's plane takes the last plane's (2 → 0)
        // and the right ghost's the first plane's (1 → 3).
        let p = self.grid().plane_cells();
        for c in self.comps.iter_mut() {
            c.halo_psi.copy_within(2 * p..3 * p, 0);
            c.halo_psi.copy_within(p..2 * p, 3 * p);
        }
    }

    // ---- migration protocol ----------------------------------------------

    /// `f64` values per migrated plane: populations and number density for
    /// every component — everything a plane's phase-boundary state is made
    /// of, so migration is exactly state-preserving (observables included). A
    /// migration message is `count` of these plus one ψ plane per component
    /// ([`psi_halo_len`](Self::psi_halo_len)), the receiver's new ghost.
    pub fn migration_plane_len(&self) -> usize {
        (D3Q19::Q + 1) * self.comps.len() * self.grid().plane_cells()
    }

    /// Values in a migration message of `count` planes.
    pub fn migration_len(&self, count: usize) -> usize {
        count * self.migration_plane_len() + self.psi_halo_len()
    }

    /// Removes `count` planes from the `side` edge of this slab and returns
    /// their state — one record per plane, by ascending global x, each as
    /// [`plane_record`](Self::plane_record) makes it — followed
    /// by the ψ of this slab's new `side` edge plane — the receiver's new
    /// ghost. Adjusts `x0`. This slab's new `side` ghost is the given plane
    /// next to its new edge, whose ψ its record carries, so both slabs are
    /// phase-boundary-consistent without another exchange.
    ///
    /// Repeated takes compose: `take_planes(side, a)` then `(side, b)`,
    /// each given in turn, leave both slabs bitwise as one
    /// `take_planes(side, a + b)` would. The runtime moves a large count
    /// that way, as a stream of bounded batches (one message each), so a
    /// move never holds a second copy of every plane it moves.
    ///
    /// Panics if the slab would be left without at least one plane.
    pub fn take_planes(&mut self, side: Side, count: usize) -> Vec<f64> {
        assert!(count > 0 && count < self.nx_local(), "cannot give away the whole slab");
        let first = match side {
            Side::Left => LocalGrid::FIRST,
            Side::Right => self.grid().last() + 1 - count,
        };
        let (p, plane_len) = (self.grid().plane_cells(), self.migration_plane_len());
        let mut out = Vec::with_capacity(self.migration_len(count));
        let mut psi = vec![0.0; p];
        for xl in first..first + count {
            Self::plane_record(&self.comps, xl, &mut psi, |run| out.extend_from_slice(run));
        }
        // The given plane next to the new edge: its ψ is the new ghost's.
        let next = match side {
            Side::Left => count - 1,
            Side::Right => 0,
        };
        if side == Side::Left {
            self.x0 += count;
        }
        self.set_window(self.nx_local() - count);
        let (ghost, records) = (self.ghost(side), out[next * plane_len..][..plane_len].chunks_exact(plane_len / self.comps.len()));
        for (c, record) in self.comps.iter_mut().zip(records) {
            c.keep_psi(ghost, &record[D3Q19::Q * p..]);
        }
        self.compute_psi();
        self.psi_halo_runs(side).for_each(|run| out.extend_from_slice(run));
        out
    }

    /// Moves the window of every `f` to `nx_local` planes at the current
    /// `x0`. The surviving planes stay where they are in storage. The new
    /// ghost planes come out zero (a checkpoint stores them, and nothing
    /// reads them before the next exchange). The solid mask and slip weights
    /// need nothing: they are read through the same window.
    fn set_window(&mut self, nx_local: usize) {
        for c in self.comps.iter_mut() {
            c.f.set_window(self.x0, nx_local);
        }
    }

    /// Attaches `count` planes (produced by the neighbor's `take_planes`)
    /// to the `side` edge of this slab and installs the ψ that follows them
    /// as the new `side` ghost; ψ of the new `side` edge comes with its
    /// record. Adjusts `x0`.
    pub fn give_planes(&mut self, side: Side, count: usize, data: &[f64]) {
        assert_eq!(data.len(), self.migration_len(count));
        if side == Side::Left {
            self.x0 = self.x0.checked_sub(count).expect("planes given past the channel's left end");
        }
        self.set_window(self.nx_local() + count);
        let first = match side {
            Side::Left => LocalGrid::FIRST,
            Side::Right => self.grid().last() + 1 - count,
        };
        let (p, plane_len) = (self.grid().plane_cells(), self.migration_plane_len());
        let (planes, ghost) = data.split_at(count * plane_len);
        // Each record's `f` and ψ a component, ψ kept where `halo_psi`
        // keeps it (the new edge plane's).
        for (xl, record) in (first..).zip(planes.chunks_exact(plane_len)) {
            for (c, record) in self.comps.iter_mut().zip(record.chunks_exact((D3Q19::Q + 1) * p)) {
                let (f, psi) = record.split_at(D3Q19::Q * p);
                c.f.plane_values_mut(xl).copy_from_slice(f);
                c.keep_psi(xl, psi);
            }
        }
        self.psi_halo_in(side, ghost);
    }

    // ---- drivers & observables --------------------------------------------

    /// One full phase with periodic ghost self-exchange; only meaningful
    /// when this slab covers the entire channel. The same steps the runtime
    /// workers run, with the two exchanges as local ghost copies.
    pub fn phase_periodic(&mut self) {
        assert_eq!(self.nx_local(), self.global_nx, "phase_periodic needs the whole channel");
        self.collide_edges();
        self.f_ghosts_periodic();
        self.stream_collide_fused();
        self.psi_ghosts_periodic();
    }

    /// Test oracle for [`phase_periodic`](Self::phase_periodic): the
    /// textbook order — ψ, the forces and the equilibrium velocities as
    /// whole-slab passes, collide every plane, fill ghosts, stream every
    /// plane — run serially, then ψ of the edges for the ghost fill. Not a
    /// second schedule: nothing outside the tests calls it.
    #[doc(hidden)]
    pub fn phase_periodic_reference(&mut self) {
        assert_eq!(self.nx_local(), self.global_nx, "phase_periodic needs the whole channel");
        self.compute_forces();
        self.compute_velocities();
        let ueq = self.reference_ueq.as_deref().expect("compute_velocities stores them");
        for (c, ueq) in self.comps.iter_mut().zip(ueq) {
            crate::collision::collide(c, ueq);
        }
        self.f_ghosts_periodic();
        let grid = self.grid();
        let slip = slip_map(&self.slip_ry, 0, grid.lx);
        let has_solid = !self.obstacles.is_empty();
        crate::streaming::sweep(&mut self.comps, window(&self.solid, 0, grid), has_solid, slip, None);
        self.compute_psi();
        self.psi_ghosts_periodic();
    }

    /// Brings a freshly initialized solver to a consistent phase-start
    /// state (ψ of the edge planes, and the ghosts' from them), using
    /// periodic ghosts. Parallel drivers do the same steps with a real
    /// exchange instead.
    pub fn prime_periodic(&mut self) {
        self.compute_psi();
        self.psi_ghosts_periodic();
    }

    /// As [`prime_periodic`](Self::prime_periodic) but without the ghost
    /// fill — the parallel driver exchanges ψ after it.
    pub fn prime_local_psi(&mut self) {
        self.compute_psi();
    }

    /// Completes priming after the ψ exchange: nothing is left to do, as
    /// the first collision forms its equilibrium velocities itself. Kept so
    /// a driver written against the three-step priming still runs.
    pub fn prime_finish(&mut self) {}

    /// Captures the macroscopic state of this slab's interior.
    pub fn snapshot(&self) -> Snapshot {
        let grid = self.grid();
        let mut out = Snapshot::zeros(self.x0, grid.nx_local(), grid.ny, grid.nz, self.comps.len());
        self.snapshot_into(&mut out);
        out
    }

    /// Captures this slab's interior straight into its planes of `out` —
    /// how slabs that tile a channel become one snapshot without a per-slab
    /// copy in between ([`Snapshot::stitch`] is the same for snapshots that
    /// already exist). Panics if the slab does not lie inside `out` or
    /// disagrees on lateral extent or component count.
    pub fn snapshot_into(&self, out: &mut Snapshot) {
        self.capture(out.slab_mut(self.slab()));
    }

    /// Captures this slab's interior into `out`, its planes of a snapshot
    /// ([`Snapshot::split_slabs`]): ρ from ψ and the velocity from j, both
    /// taken from the populations, plus the half-force term, the forces
    /// recomputed plane by plane from ψ by the kernel the phase uses — at a
    /// phase boundary, bit for bit the forces that phase computed.
    pub fn capture(&self, out: SnapshotSlab<'_>) {
        assert_eq!(out.slab, self.slab(), "snapshot planes differ from the slab");
        let solid = window(&self.solid, self.x0, self.grid());
        crate::macroscopic::capture(&self.comps[..], (&self.coupling, &self.wall, self.body), solid, out);
    }

    /// Ends the solver in its [`capture`](Self::capture): the same capture,
    /// bit for bit, but the pages of the populations' planes it has passed
    /// go back to the OS as it goes, so the slab and its snapshot planes
    /// are never both whole.
    pub fn into_capture(mut self, out: SnapshotSlab<'_>) {
        self.capture_releasing(out);
    }

    /// [`capture`](Self::capture), handing back the planes it passes.
    fn capture_releasing(&mut self, out: SnapshotSlab<'_>) {
        assert_eq!(out.slab, self.slab(), "snapshot planes differ from the slab");
        let solid = window(&self.solid, self.x0, self.grid());
        crate::macroscopic::capture(&mut self.comps[..], (&self.coupling, &self.wall, self.body), solid, out);
    }

    /// Total mass over this slab (all components).
    pub fn total_mass(&self) -> f64 {
        self.comps.iter().map(|c| c.total_mass()).sum()
    }
}

/// The reference arrays of a two-pass step: `kept` if they are still on
/// `grid`, else `comps` fresh 3-channel arrays.
fn reference_arrays(kept: Option<Vec<SlabArray>>, grid: LocalGrid, comps: usize) -> Vec<SlabArray> {
    match kept {
        Some(arrays) if arrays[0].grid() == grid => arrays,
        _ => (0..comps).map(|_| SlabArray::new(grid, 3)).collect(),
    }
}

/// The slab's `lx` planes of the per-storage-plane slip weights as the
/// sweep kernels take them (`None` for the pure bounce-back variants, whose
/// `slip_ry` is empty).
fn slip_map(slip_ry: &[f64], x0: usize, lx: usize) -> Option<SlipMap<'_>> {
    (!slip_ry.is_empty()).then(|| SlipMap { ry: &slip_ry[x0..x0 + lx], rz: SLIP_RZ })
}

/// The solid mask over storage `planes` of the channel (its `nx` planes and
/// the two ghosts, storage plane `s` holding global x `s − 1`): ghost planes
/// take the periodic global x of their source plane, so decomposed masks
/// agree with the sequential one. Storage plane `s` is at `s − planes.start`.
pub(crate) fn solid_mask(obstacles: &[SolidRegion], dims: Dims, planes: std::ops::Range<usize>) -> Vec<bool> {
    let plane = dims.ny * dims.nz;
    let mut solid = vec![false; planes.len() * plane];
    if !obstacles.is_empty() {
        for (s, cells) in planes.zip(solid.chunks_exact_mut(plane)) {
            let gx = (dims.nx + s - 1) % dims.nx;
            for (cell, solid) in cells.iter_mut().enumerate() {
                let (y, z) = (cell / dims.nz, cell % dims.nz);
                *solid = obstacles.iter().any(|o| o.contains(gx, y, z));
            }
        }
    }
    solid
}

/// The slab's share of a per-cell table over the channel's storage planes:
/// the local grid of a slab at `x0` starts (left ghost) at storage plane
/// `x0`, exactly as its field arrays' windows do.
fn window<T>(table: &[T], x0: usize, grid: LocalGrid) -> &[T] {
    &table[x0 * grid.plane_cells()..][..grid.cells()]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::boundary::WallBc;
    use crate::geometry::{even_slabs, Dims};

    fn small_config() -> ChannelConfig {
        let mut cfg = ChannelConfig::paper_scaled(Dims::new(12, 6, 4));
        // Stronger driving so fields evolve visibly in few steps.
        cfg.body = [1.0e-4, 0.0, 0.0];
        cfg
    }

    #[test]
    fn mass_conserved_over_phases() {
        let cfg = small_config();
        let mut s = SlabSolver::new(&cfg, Slab { x0: 0, nx_local: 12 });
        s.prime_periodic();
        let m0 = s.total_mass();
        for _ in 0..20 {
            s.phase_periodic();
        }
        let m1 = s.total_mass();
        assert!(
            ((m1 - m0) / m0).abs() < 1e-12,
            "mass drifted: {m0} -> {m1}"
        );
    }

    #[test]
    fn snapshots_of_slabs_stitch_like_captures_in_place() {
        // Two slabs covering x ∈ [0,2) and [2,5): stitching their snapshots
        // is capturing each straight into its planes, in either order, and
        // on threads through disjoint views.
        let cfg = small_config();
        let cfg = ChannelConfig { dims: Dims::new(5, 6, 4), ..cfg };
        let slabs = [Slab { x0: 0, nx_local: 2 }, Slab { x0: 2, nx_local: 3 }];
        let solvers: Vec<SlabSolver> = slabs.iter().map(|&slab| SlabSolver::new(&cfg, slab)).collect();
        let joined = Snapshot::stitch(vec![solvers[1].snapshot(), solvers[0].snapshot()]);
        assert_eq!(joined.nx, 5);
        let mut direct = Snapshot::zeros(0, 5, 6, 4, 2);
        solvers[1].snapshot_into(&mut direct);
        solvers[0].snapshot_into(&mut direct);
        assert_eq!(direct, joined);
        let mut threaded = Snapshot::zeros(0, 5, 6, 4, 2);
        std::thread::scope(|scope| {
            for (s, planes) in solvers.iter().zip(threaded.split_slabs(&slabs)) {
                scope.spawn(move || s.capture(planes));
            }
        });
        assert_eq!(threaded, joined);
    }

    #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
    #[test]
    fn a_consuming_capture_hands_back_the_planes_it_has_passed() {
        // 8000-byte planes per channel, 22 owned: the capture hands back
        // the planes up to the last multiple of the batch it passes, and
        // leaves those after it (the last and the right ghost among them).
        let mut cfg = small_config();
        cfg.dims = Dims::new(22, 40, 25);
        let mut s = SlabSolver::new(&cfg, Slab { x0: 0, nx_local: 22 });
        s.prime_periodic();
        s.phase_periodic();
        let want = s.snapshot();
        let batch = crate::macroscopic::RELEASE_BATCH;
        let released = s.grid().last() / batch * batch + 1;
        let mut got = Snapshot::zeros(0, 22, 40, 25, 2);
        // `into_capture` but for the drop, so the storage can be inspected.
        s.capture_releasing(got.slab_mut(s.slab()));
        let bits = |s: &Snapshot| -> Vec<u64> {
            s.rho.iter().flatten().chain(&s.velocity).map(|v| v.to_bits()).collect()
        };
        assert_eq!(bits(&got), bits(&want));
        for c in &s.comps {
            assert_eq!(c.f.resident_plane_bytes(0..released), 0, "a passed plane is still resident");
            assert!(c.f.resident_plane_bytes(released..s.grid().lx) > 0);
        }
    }

    #[test]
    #[should_panic(expected = "outside the snapshot")]
    fn snapshot_into_rejects_a_slab_past_the_end() {
        let cfg = small_config();
        let s = SlabSolver::new(&cfg, Slab { x0: 2, nx_local: 3 });
        s.snapshot_into(&mut Snapshot::zeros(0, 4, 6, 4, 2));
    }

    #[test]
    fn velocity_includes_half_force() {
        // A fluid at rest under a body force g: j = 0, so the snapshot's
        // velocity is the half-force term alone, (½ ρ g) / ρ.
        let g = 4.0e-3;
        let cfg = ChannelConfig::single_component(Dims::new(3, 4, 4), 1.0, g);
        let s = SlabSolver::new(&cfg, Slab { x0: 0, nx_local: 3 });
        let snap = s.snapshot();
        for cell in 0..snap.cells() {
            assert!((snap.u(cell)[0] - 0.5 * g).abs() < 1e-15, "cell {cell}: {:?}", snap.u(cell));
            assert_eq!(&snap.u(cell)[1..], &[0.0, 0.0]);
        }
    }

    #[test]
    fn body_force_accelerates_flow() {
        let cfg = ChannelConfig::single_component(Dims::new(8, 8, 8), 1.0, 1e-5);
        let mut s = SlabSolver::new(&cfg, Slab { x0: 0, nx_local: 8 });
        s.prime_periodic();
        for _ in 0..50 {
            s.phase_periodic();
        }
        let snap = s.snapshot();
        let mid = snap.idx(4, 4, 4);
        assert!(snap.u(mid)[0] > 0.0, "flow must accelerate along +x");
    }

    /// Runs `solvers` (a full decomposition) for one phase by hand-carrying
    /// halos — the reference for what `runtime` does with channels.
    fn phase_decomposed(solvers: &mut [SlabSolver]) {
        let n = solvers.len();
        let f_len = solvers[0].f_halo_len();
        for s in solvers.iter_mut() {
            s.collide_edges();
        }
        // Exchange populations (periodic ring).
        let mut right_msgs = vec![vec![0.0; f_len]; n];
        let mut left_msgs = vec![vec![0.0; f_len]; n];
        for (i, s) in solvers.iter().enumerate() {
            s.f_halo_out(Side::Right, &mut right_msgs[i]);
            s.f_halo_out(Side::Left, &mut left_msgs[i]);
        }
        for i in 0..n {
            let from_left = (i + n - 1) % n;
            let from_right = (i + 1) % n;
            solvers[i].f_halo_in(Side::Left, &right_msgs[from_left]);
            solvers[i].f_halo_in(Side::Right, &left_msgs[from_right]);
        }
        for s in solvers.iter_mut() {
            s.stream_collide_fused();
        }
        exchange_psi(solvers);
    }

    /// The ψ exchange of [`phase_decomposed`], alone for priming.
    fn exchange_psi(solvers: &mut [SlabSolver]) {
        let n = solvers.len();
        let p_len = solvers[0].psi_halo_len();
        let mut right_psi = vec![vec![0.0; p_len]; n];
        let mut left_psi = vec![vec![0.0; p_len]; n];
        for (i, s) in solvers.iter().enumerate() {
            s.psi_halo_out(Side::Right, &mut right_psi[i]);
            s.psi_halo_out(Side::Left, &mut left_psi[i]);
        }
        for i in 0..n {
            let from_left = (i + n - 1) % n;
            let from_right = (i + 1) % n;
            solvers[i].psi_halo_in(Side::Left, &right_psi[from_left]);
            solvers[i].psi_halo_in(Side::Right, &left_psi[from_right]);
        }
    }

    fn prime_decomposed(solvers: &mut [SlabSolver]) {
        for s in solvers.iter_mut() {
            s.prime_local_psi();
        }
        exchange_psi(solvers);
    }

    #[test]
    fn decomposed_run_is_bitwise_identical_to_sequential() {
        let cfg = small_config();
        let mut seq = SlabSolver::new(&cfg, Slab { x0: 0, nx_local: cfg.dims.nx });
        seq.prime_periodic();
        for _ in 0..8 {
            seq.phase_periodic();
        }
        let want = seq.snapshot();

        for parts in [2, 3, 4] {
            let mut solvers: Vec<SlabSolver> = even_slabs(cfg.dims.nx, parts)
                .into_iter()
                .map(|slab| SlabSolver::new(&cfg, slab))
                .collect();
            prime_decomposed(&mut solvers);
            for _ in 0..8 {
                phase_decomposed(&mut solvers);
            }
            let got = Snapshot::stitch(solvers.iter().map(|s| s.snapshot()).collect());
            assert_eq!(got, want, "decomposition into {parts} slabs changed the physics");
        }
    }

    #[test]
    fn migration_preserves_physics_bitwise() {
        let cfg = small_config();
        let mut seq = SlabSolver::new(&cfg, Slab { x0: 0, nx_local: cfg.dims.nx });
        seq.prime_periodic();
        let phases = 9;
        for _ in 0..phases {
            seq.phase_periodic();
        }
        let want = seq.snapshot();

        let mut solvers: Vec<SlabSolver> = even_slabs(cfg.dims.nx, 3)
            .into_iter()
            .map(|slab| SlabSolver::new(&cfg, slab))
            .collect();
        prime_decomposed(&mut solvers);
        for phase in 0..phases {
            phase_decomposed(&mut solvers);
            // Shuffle planes around between phases: 0 → 1 → 2 → back.
            match phase {
                2 => {
                    let count = 2;
                    let data = solvers[0].take_planes(Side::Right, count);
                    solvers[1].give_planes(Side::Left, count, &data);
                }
                4 => {
                    let count = 3;
                    let data = solvers[1].take_planes(Side::Right, count);
                    solvers[2].give_planes(Side::Left, count, &data);
                }
                6 => {
                    let count = 1;
                    let data = solvers[2].take_planes(Side::Left, count);
                    solvers[1].give_planes(Side::Right, count, &data);
                }
                _ => {}
            }
        }
        let got = Snapshot::stitch(solvers.iter().map(|s| s.snapshot()).collect());
        assert_eq!(got, want, "plane migration must not change the physics");
    }

    #[test]
    fn take_give_roundtrip_restores_slabs() {
        // Primed, so that the ψ ghosts are the neighbours' edges — the
        // phase-boundary state a migration keeps.
        let cfg = small_config();
        let mut pair: Vec<SlabSolver> = even_slabs(12, 2).into_iter().map(|s| SlabSolver::new(&cfg, s)).collect();
        prime_decomposed(&mut pair);
        let (mut a, mut b) = (pair[0].clone(), pair[1].clone());
        let before_a = a.snapshot();
        let before_b = b.snapshot();
        let data = a.take_planes(Side::Right, 2);
        assert_eq!(a.nx_local(), 4);
        b.give_planes(Side::Left, 2, &data);
        assert_eq!(b.nx_local(), 8);
        assert_eq!(b.x0(), 4);
        let back = b.take_planes(Side::Left, 2);
        a.give_planes(Side::Right, 2, &back);
        assert_eq!(a.snapshot(), before_a);
        assert_eq!(b.snapshot(), before_b);
        assert_eq!(a.slab(), Slab { x0: 0, nx_local: 6 });
        assert_eq!(b.slab(), Slab { x0: 6, nx_local: 6 });
    }

    #[test]
    fn total_number_is_an_ascending_per_channel_fold_of_the_interior() {
        // Windowed slabs after a phase and a migration, so the populations
        // vary from cell to cell and neither window starts at its storage.
        let cfg = small_config();
        let mut pair: Vec<SlabSolver> = even_slabs(12, 2).into_iter().map(|s| SlabSolver::new(&cfg, s)).collect();
        prime_decomposed(&mut pair);
        phase_decomposed(&mut pair);
        let data = pair[0].take_planes(Side::Right, 2);
        pair[1].give_planes(Side::Left, 2, &data);
        for s in &pair {
            let (grid, p) = (s.grid(), s.grid().plane_cells());
            let interior = LocalGrid::FIRST * p..(grid.last() + 1) * p;
            for c in s.components() {
                let channel = |i: usize| interior.clone().map(|cell| c.f.at(i, cell)).sum::<f64>();
                let want = (0..D3Q19::Q).fold(0.0, |sum, i| sum + channel(i));
                assert_eq!(c.total_number().to_bits(), want.to_bits());
            }
        }
    }

    #[test]
    fn vacated_slots_reach_no_checkpoint_snapshot_mass_or_clone() {
        use crate::checkpoint::{load_solver, save_solver};
        let cfg = small_config();
        let mut a = SlabSolver::new(&cfg, Slab { x0: 3, nx_local: 6 });
        a.prime_local_psi();
        // Planes leave on both sides; their values stay behind in storage.
        a.take_planes(Side::Left, 2);
        a.take_planes(Side::Right, 3);
        assert_eq!(a.slab(), Slab { x0: 5, nx_local: 1 });
        // A solver rebuilt from the bytes never held those planes.
        let bytes = save_solver(&a, 0);
        let (fresh, _) = load_solver(&cfg, &bytes).unwrap();
        assert_eq!(save_solver(&fresh, 0), bytes);
        assert_eq!(save_solver(&a.clone(), 0), bytes);
        assert_eq!(fresh.snapshot(), a.snapshot());
        assert_eq!(fresh.total_mass().to_bits(), a.total_mass().to_bits());
        for (c, d) in a.components().iter().zip(fresh.components()) {
            assert_eq!((&c.f, &c.halo_psi), (&d.f, &d.halo_psi));
        }
    }

    #[test]
    fn the_phase_boundary_state_is_f_and_psi() {
        // A component keeps its Q populations and ψ of four planes (the
        // ghosts and the edges); a migrated plane and every plane record of
        // a checkpoint (magic and seven header words, then the window,
        // ghosts included) carry Q + 1 channels a component, f and ψ.
        let cfg = small_config();
        let s = SlabSolver::new(&cfg, Slab { x0: 2, nx_local: 5 });
        let (q1, comps, p) = (D3Q19::Q + 1, s.components().len(), cfg.dims.ny * cfg.dims.nz);
        for c in s.components() {
            assert_eq!((c.f.channels(), c.halo_psi.len()), (D3Q19::Q, 4 * p));
        }
        assert_eq!(s.migration_plane_len(), q1 * comps * p);
        let bytes = crate::checkpoint::save_solver(&s, 0);
        assert_eq!(bytes.len(), 64 + (s.nx_local() + 2) * q1 * comps * p * 8);
    }

    #[test]
    #[should_panic(expected = "storage capacity")]
    fn planes_cannot_be_given_past_the_periodic_seam() {
        let cfg = small_config();
        let mut a = SlabSolver::new(&cfg, Slab { x0: 6, nx_local: 6 });
        let data = vec![0.0; a.migration_len(1)];
        a.give_planes(Side::Right, 1, &data);
    }

    #[test]
    #[should_panic(expected = "whole slab")]
    fn cannot_take_entire_slab() {
        let cfg = small_config();
        let mut a = SlabSolver::new(&cfg, Slab { x0: 0, nx_local: 3 });
        a.take_planes(Side::Left, 3);
    }

    /// The three non-default wall BCs on the test channel.
    fn slip_bcs() -> Vec<WallBc> {
        vec![
            WallBc::TunableSlip { r: 0.3 },
            WallBc::PatternedSlip { r_a: 1.0, r_b: 0.2, period: 2, phase: 1 },
            WallBc::rough_stripes(1, 3, Dims::new(12, 6, 4)),
        ]
    }

    #[test]
    fn decomposed_slip_run_is_bitwise_identical_to_sequential() {
        for bc in slip_bcs() {
            let mut cfg = small_config();
            cfg.wall_bc = bc.clone();
            let mut seq = SlabSolver::new(&cfg, Slab { x0: 0, nx_local: cfg.dims.nx });
            seq.prime_periodic();
            for _ in 0..6 {
                seq.phase_periodic();
            }
            let want = seq.snapshot();

            for parts in [2, 3] {
                let mut solvers: Vec<SlabSolver> = even_slabs(cfg.dims.nx, parts)
                    .into_iter()
                    .map(|slab| SlabSolver::new(&cfg, slab))
                    .collect();
                prime_decomposed(&mut solvers);
                for _ in 0..6 {
                    phase_decomposed(&mut solvers);
                }
                let got = Snapshot::stitch(solvers.iter().map(|s| s.snapshot()).collect());
                assert_eq!(got, want, "{bc:?} changed under decomposition into {parts}");
            }
        }
    }

    #[test]
    fn migration_preserves_slip_physics_bitwise() {
        // The per-plane slip weights are keyed by global x and read through
        // the slab's window; a patterned wall is the hardest case (weights
        // differ per plane).
        let mut cfg = small_config();
        cfg.wall_bc = WallBc::PatternedSlip { r_a: 0.9, r_b: 0.1, period: 2, phase: 0 };
        let mut seq = SlabSolver::new(&cfg, Slab { x0: 0, nx_local: cfg.dims.nx });
        seq.prime_periodic();
        let phases = 9;
        for _ in 0..phases {
            seq.phase_periodic();
        }
        let want = seq.snapshot();

        let mut solvers: Vec<SlabSolver> = even_slabs(cfg.dims.nx, 3)
            .into_iter()
            .map(|slab| SlabSolver::new(&cfg, slab))
            .collect();
        prime_decomposed(&mut solvers);
        for phase in 0..phases {
            phase_decomposed(&mut solvers);
            match phase {
                2 => {
                    let data = solvers[0].take_planes(Side::Right, 2);
                    solvers[1].give_planes(Side::Left, 2, &data);
                }
                5 => {
                    let data = solvers[1].take_planes(Side::Left, 3);
                    solvers[0].give_planes(Side::Right, 3, &data);
                }
                _ => {}
            }
        }
        let got = Snapshot::stitch(solvers.iter().map(|s| s.snapshot()).collect());
        assert_eq!(got, want, "migration must not change patterned-slip physics");
    }

    #[test]
    fn rough_wall_masks_cells_like_obstacles() {
        let mut cfg = small_config();
        cfg.wall_bc = WallBc::rough_stripes(1, 3, Dims::new(12, 6, 4));
        let s = SlabSolver::new(&cfg, Slab { x0: 0, nx_local: cfg.dims.nx });
        assert!(s.solid_fraction() > 0.0, "roughness must reach the solid mask");
        assert!(s.is_solid(1, 0, 0), "ridge cell at the low wall (gx 0)");
        assert!(s.is_solid(1, 5, 0), "ridge cell at the high wall");
        assert!(!s.is_solid(1, 2, 0), "channel middle stays fluid");
        assert!(!s.is_solid(4, 0, 0), "inter-ridge plane (gx 3) stays fluid");
    }
}
