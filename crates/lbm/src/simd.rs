#![expect(
    unsafe_code,
    reason = "the one dispatch into the AVX2 instance of a kernel body, after runtime \
              detection of AVX2"
)]
//! The lane type and the one dispatch every vectorized kernel goes through.
//!
//! The workspace builds for baseline x86-64 (no `-C target-cpu`), so a
//! kernel compiled as built gets 2-wide SSE2 at best. Each hot kernel is
//! therefore one safe body over slices, written on [`V<L>`] — `L` cells of
//! `f64` side by side — and run in 4-lane blocks with a 1-lane tail of the
//! same code. [`dispatch`] compiles the body twice: inside a
//! `#[target_feature(enable = "avx2")]` function, where a `V<4>` is one
//! `ymm` register and every lane op one packed instruction, and as built
//! for hosts without AVX2. The same binary runs correctly on any host.
//!
//! **Bitwise-identity contract** (the repo's flagship invariant): a lane
//! op is the scalar op, lane by lane, in the association order the body
//! spells — `+ − × ÷` and a select, nothing else. IEEE-754 arithmetic is
//! lane-wise identical to scalar arithmetic for those, and Rust never
//! contracts `a*b + c` into a fused multiply-add on its own (no body calls
//! `mul_add`), so the AVX2 instance and the plain one give the same bits —
//! and a 4-lane block the same bits as four 1-lane ones. Every kernel's
//! tests hold the plain body to the dispatched one with `to_bits`.

use std::ops::{Add, Div, Mul, Sub};
use std::sync::atomic::{compiler_fence, Ordering};

/// `L` values computed side by side, one lane per cell.
#[derive(Clone, Copy)]
pub(crate) struct V<const L: usize>(pub(crate) [f64; L]);

impl<const L: usize> V<L> {
    #[inline(always)]
    pub(crate) fn splat(x: f64) -> Self {
        V([x; L])
    }

    /// The `block`-th run of `L` values of `s` (cells `L·block ..`).
    #[inline(always)]
    pub(crate) fn load(s: &[f64], block: usize) -> Self {
        V(s.as_chunks::<L>().0[block])
    }

    /// Writes the lanes to the `block`-th run of `L` values of `s`.
    #[inline(always)]
    pub(crate) fn store(self, s: &mut [f64], block: usize) {
        s.as_chunks_mut::<L>().0[block] = self.0;
    }

    /// Per lane, `then` where `self > floor` and `otherwise` elsewhere (a
    /// NaN compares false): the scalar `if x > floor { then } else {
    /// otherwise }` with both arms already evaluated.
    #[inline(always)]
    pub(crate) fn select_gt(self, floor: f64, then: Self, otherwise: Self) -> Self {
        let mut out = otherwise.0;
        let mut k = 0;
        while k < L {
            if self.0[k] > floor {
                out[k] = then.0[k];
            }
            k += 1;
        }
        V(out)
    }
}

/// `V op V`, `V op f64` and `f64 op V`, each lane the scalar op. The lane
/// loops are `while` loops: an iterator chain costs a call per lane in an
/// unoptimized build, which the test suite runs.
macro_rules! lane_op {
    ($($tr:ident $f:ident $op:tt),*) => {$(
        impl<const L: usize> $tr for V<L> {
            type Output = V<L>;
            #[inline(always)]
            fn $f(self, rhs: V<L>) -> V<L> {
                let mut out = [0.0; L];
                let mut k = 0;
                while k < L {
                    out[k] = self.0[k] $op rhs.0[k];
                    k += 1;
                }
                V(out)
            }
        }
        impl<const L: usize> $tr<f64> for V<L> {
            type Output = V<L>;
            #[inline(always)]
            fn $f(self, rhs: f64) -> V<L> {
                self $op V::splat(rhs)
            }
        }
        impl<const L: usize> $tr<V<L>> for f64 {
            type Output = V<L>;
            #[inline(always)]
            fn $f(self, rhs: V<L>) -> V<L> {
                V::splat(self) $op rhs
            }
        }
    )*};
}

lane_op!(Add add +, Sub sub -, Mul mul *, Div div /);

/// The 4-lane blocks of a run of `n` cells (block `b` is cells `4b ..
/// 4b + 4`), for short bodies: the compiler fence before each block emits
/// no instruction, but keeps LLVM's loop vectorizer from widening the
/// block loop four blocks at a time into transposes of 16 cells, which ran
/// the interaction gradient ~50 % slower than the 4-lane body alone.
#[inline(always)]
pub(crate) fn blocks(n: usize) -> impl Iterator<Item = usize> {
    (0..n / 4).inspect(|_| compiler_fence(Ordering::SeqCst))
}

/// Runs `body` compiled for AVX2 when the host has it, and as built
/// otherwise. The body must be an `#[inline(always)]` closure calling
/// `#[inline(always)]` kernels, so that all of it is compiled into the
/// AVX2 instance. The feature probe is cached by the standard library, so
/// a dispatch per kernel launch is a couple of atomic loads.
#[inline(always)]
pub(crate) fn dispatch<R>(body: impl FnOnce() -> R) -> R {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: `with_avx2` needs AVX2, which this CPU was just found to
        // have; the body it runs is safe code.
        return unsafe { with_avx2(body) };
    }
    body()
}

/// The AVX2 instance of a dispatched body.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn with_avx2<R>(body: impl FnOnce() -> R) -> R {
    body()
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// Deterministic pseudo-random fill for the kernel oracles, in
    /// [−0.5, 0.5).
    pub(crate) fn lcg_fill(v: &mut [f64], mut seed: u64) {
        for x in v.iter_mut() {
            seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            *x = ((seed >> 11) as f64 / (1u64 << 53) as f64) - 0.5;
        }
    }

    /// The runs every kernel test covers, `(start, n)`: each length
    /// 0..=45 (4-lane blocks with every tail length) at a start that is no
    /// multiple of the lane count for most, all inside `0..start + n <= 75`.
    pub(crate) fn runs() -> impl Iterator<Item = (usize, usize)> {
        (0..=45).map(|n| ((n * 7 + 1) % 30, n))
    }

    pub(crate) fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|v| v.to_bits()).collect()
    }

    /// The first `N` vectors of `v`, each a mutable slice.
    pub(crate) fn slices_mut<const N: usize>(v: &mut [Vec<f64>]) -> [&mut [f64]; N] {
        let mut it = v.iter_mut();
        std::array::from_fn(|_| &mut it.next().expect("N vectors")[..])
    }

    #[test]
    fn lane_ops_are_the_scalar_ops_lane_by_lane() {
        let xs = [0.0, -0.0, 1.5, -3.25e-7, f64::INFINITY, f64::NAN, 1e308, -2.0];
        for &a in &xs {
            for &b in &xs {
                let (va, vb) = (V::<4>([a, b, -a, 0.5]), V::<4>([b, a, b, -b]));
                let scalar = |op: fn(f64, f64) -> f64| [op(a, b), op(b, a), op(-a, b), op(0.5, -b)].map(f64::to_bits);
                assert_eq!((va + vb).0.map(f64::to_bits), scalar(|x, y| x + y));
                assert_eq!((va - vb).0.map(f64::to_bits), scalar(|x, y| x - y));
                assert_eq!((va * vb).0.map(f64::to_bits), scalar(|x, y| x * y));
                assert_eq!((va / vb).0.map(f64::to_bits), scalar(|x, y| x / y));
                let select = va.select_gt(b, vb, V::splat(7.0));
                let want = [(a, b), (b, a), (-a, b), (0.5, -b)].map(|(x, t)| if x > b { t } else { 7.0 });
                assert_eq!(select.0.map(f64::to_bits), want.map(f64::to_bits));
            }
        }
        // Dispatched: the same bits, whichever instance this host runs.
        let (a, b) = (V::<4>([0.1, -0.0, 3.0, 1e300]), V::<4>([0.7, 0.25, -1e-300, 2.0]));
        let want = (a * b + a / b - 1.5 * a).0.map(f64::to_bits);
        assert_eq!(dispatch(#[inline(always)] || (a * b + a / b - 1.5 * a).0.map(f64::to_bits)), want);
    }

    #[test]
    fn blocks_load_and_store_their_own_lanes() {
        let mut v: Vec<f64> = (0..9).map(f64::from).collect();
        assert_eq!(V::<4>::load(&v, 1).0, [4.0, 5.0, 6.0, 7.0]);
        assert_eq!(V::<1>::load(&v, 8).0, [8.0]);
        V::<4>::splat(-1.0).store(&mut v, 0);
        V::<1>([9.0]).store(&mut v, 8);
        assert_eq!(v, [-1.0, -1.0, -1.0, -1.0, 4.0, 5.0, 6.0, 7.0, 9.0]);
    }
}
