//! Hand-carried halo exchange between a vector of solvers forming a
//! periodic ring — the single-threaded equivalent of what the threaded
//! runtime does, shared by the integration tests that migrate planes.
#![allow(dead_code, reason = "each test binary uses a different subset of the helpers")]

use microslip::lbm::{Side, SlabSolver};

pub fn exchange_f(solvers: &mut [SlabSolver]) {
    let n = solvers.len();
    let len = solvers[0].f_halo_len();
    let mut right = vec![vec![0.0; len]; n];
    let mut left = vec![vec![0.0; len]; n];
    for (i, s) in solvers.iter().enumerate() {
        s.f_halo_out(Side::Right, &mut right[i]);
        s.f_halo_out(Side::Left, &mut left[i]);
    }
    for i in 0..n {
        solvers[i].f_halo_in(Side::Left, &right[(i + n - 1) % n]);
        solvers[i].f_halo_in(Side::Right, &left[(i + 1) % n]);
    }
}

pub fn exchange_psi(solvers: &mut [SlabSolver]) {
    let n = solvers.len();
    let len = solvers[0].psi_halo_len();
    let mut right = vec![vec![0.0; len]; n];
    let mut left = vec![vec![0.0; len]; n];
    for (i, s) in solvers.iter().enumerate() {
        s.psi_halo_out(Side::Right, &mut right[i]);
        s.psi_halo_out(Side::Left, &mut left[i]);
    }
    for i in 0..n {
        solvers[i].psi_halo_in(Side::Left, &right[(i + n - 1) % n]);
        solvers[i].psi_halo_in(Side::Right, &left[(i + 1) % n]);
    }
}

pub fn phase(solvers: &mut [SlabSolver]) {
    for s in solvers.iter_mut() {
        s.collide_edges();
    }
    exchange_f(solvers);
    for s in solvers.iter_mut() {
        s.stream_collide_fused();
    }
    exchange_psi(solvers);
}

pub fn prime(solvers: &mut [SlabSolver]) {
    for s in solvers.iter_mut() {
        s.prime_local_psi();
    }
    exchange_psi(solvers);
}

/// Moves `count` planes across the edge between `solvers[edge]` and
/// `solvers[edge + 1]`, rightward or leftward.
pub fn migrate(solvers: &mut [SlabSolver], edge: usize, count: usize, rightward: bool) {
    let (src, dst, take_side, give_side) = if rightward {
        (edge, edge + 1, Side::Right, Side::Left)
    } else {
        (edge + 1, edge, Side::Left, Side::Right)
    };
    let data = solvers[src].take_planes(take_side, count);
    solvers[dst].give_planes(give_side, count, &data);
}
