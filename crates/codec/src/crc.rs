//! CRC-32 (IEEE 802.3, reflected polynomial `0xEDB88320`) — the one
//! implementation in the workspace.
//!
//! Two paths compute the same bits. On an x86-64 CPU with PCLMULQDQ and
//! SSE4.1 (detected at run time), an update of at least 64 bytes is folded
//! by carry-less multiplication: four 16-byte lanes per 64-byte block, then
//! one lane at a time, reduced 128 → 64 → 32 bits with a Barrett step at the
//! end. The tail of fewer than 16 bytes, short updates and every other CPU
//! run the table-sliced loop, which is also the oracle the fold is tested
//! against.
//!
//! The table loop works sixteen bytes at a time: table `k` maps a byte to
//! the CRC of that byte followed by `k` zero bytes, so sixteen independent
//! lookups XOR together into the state after the whole block. The tables
//! are `const`-evaluated (16 KiB of read-only data), so there is no
//! first-use initialisation and nothing to rebuild per call.

const POLY: u32 = 0xEDB8_8320;
const SLICES: usize = 16;

/// Advances `crc` over one zero byte (eight reflected shift steps).
const fn shift8(mut crc: u32) -> u32 {
    let mut bit = 0;
    while bit < 8 {
        crc = if crc & 1 != 0 { POLY ^ (crc >> 1) } else { crc >> 1 };
        bit += 1;
    }
    crc
}

#[expect(
    clippy::indexing_slicing,
    reason = "const-evaluated with k < SLICES and byte < 256 by the loop bounds; a bad index \
              is a compile error"
)]
const fn build_tables() -> [[u32; 256]; SLICES] {
    let mut tables = [[0u32; 256]; SLICES];
    let (mut byte, mut crc0) = (0usize, 0u32);
    while byte < 256 {
        let (mut k, mut crc) = (0, crc0);
        while k < SLICES {
            crc = shift8(crc);
            tables[k][byte] = crc;
            k += 1;
        }
        byte += 1;
        crc0 += 1;
    }
    tables
}

static TABLES: [[u32; 256]; SLICES] = build_tables();

#[inline(always)]
#[expect(
    clippy::indexing_slicing,
    reason = "a u8 cannot exceed a 256-entry table, and the compiler drops the bounds check"
)]
fn lut(table: &[u32; 256], byte: u8) -> u32 {
    table[usize::from(byte)]
}

/// Advances the un-inverted state `crc` over `bytes` with the tables alone.
fn update_table(mut crc: u32, bytes: &[u8]) -> u32 {
    let [t0, t1, t2, t3, t4, t5, t6, t7, t8, t9, t10, t11, t12, t13, t14, t15] = &TABLES;
    let mut blocks = bytes.chunks_exact(SLICES);
    for block in &mut blocks {
        let &[b0, b1, b2, b3, b4, b5, b6, b7, b8, b9, b10, b11, b12, b13, b14, b15] = block else {
            continue; // chunks_exact only yields SLICES-byte blocks
        };
        let [c0, c1, c2, c3] = crc.to_le_bytes();
        crc = lut(t15, b0 ^ c0)
            ^ lut(t14, b1 ^ c1)
            ^ lut(t13, b2 ^ c2)
            ^ lut(t12, b3 ^ c3)
            ^ lut(t11, b4)
            ^ lut(t10, b5)
            ^ lut(t9, b6)
            ^ lut(t8, b7)
            ^ lut(t7, b8)
            ^ lut(t6, b9)
            ^ lut(t5, b10)
            ^ lut(t4, b11)
            ^ lut(t3, b12)
            ^ lut(t2, b13)
            ^ lut(t1, b14)
            ^ lut(t0, b15);
    }
    for &b in blocks.remainder() {
        let [c0, ..] = crc.to_le_bytes();
        crc = lut(t0, b ^ c0) ^ (crc >> 8);
    }
    crc
}

/// The carry-less-multiply fold. The constants are `x^n mod P` for the
/// bit-reflected IEEE polynomial, from Intel's white paper "Fast CRC
/// Computation for Generic Polynomials Using PCLMULQDQ Instruction".
#[cfg(target_arch = "x86_64")]
mod fold {
    use std::arch::x86_64::{
        __m128i, _mm_and_si128, _mm_clmulepi64_si128, _mm_cvtsi32_si128, _mm_extract_epi32,
        _mm_set_epi32, _mm_set_epi64x, _mm_srli_si128, _mm_xor_si128,
    };

    /// The shortest update the fold takes: its first four lanes.
    pub(super) const MIN_LEN: usize = 64;

    const K1: i64 = 0x1_5444_2bd4; // fold by four lanes
    const K2: i64 = 0x1_c6e4_1596;
    const K3: i64 = 0x1_7519_97d0; // fold by one lane
    const K4: i64 = 0x0_ccaa_009e;
    const K5: i64 = 0x1_63cd_6124; // 64 → 32 bits
    const P: i64 = 0x1_db71_0641; // P′, the Barrett step
    const MU: i64 = 0x1_f701_1641; // μ

    /// A lane as the little-endian 128-bit value an unaligned load gives.
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    fn lane(
        &[b0, b1, b2, b3, b4, b5, b6, b7, b8, b9, b10, b11, b12, b13, b14, b15]: &[u8; 16],
    ) -> __m128i {
        let lo = i64::from_le_bytes([b0, b1, b2, b3, b4, b5, b6, b7]);
        let hi = i64::from_le_bytes([b8, b9, b10, b11, b12, b13, b14, b15]);
        _mm_set_epi64x(hi, lo)
    }

    /// `acc`'s two halves carried forward by the distances in `k`, XORed
    /// into `next`.
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    fn fold(acc: __m128i, next: __m128i, k: __m128i) -> __m128i {
        let lo = _mm_clmulepi64_si128(acc, k, 0x00);
        let hi = _mm_clmulepi64_si128(acc, k, 0x11);
        _mm_xor_si128(_mm_xor_si128(lo, hi), next)
    }

    /// Advances the un-inverted state over every whole 16-byte lane of
    /// `bytes` and returns it with the tail the table has to finish; an
    /// update shorter than [`MIN_LEN`] comes back untouched.
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    pub(super) fn update(state: u32, bytes: &[u8]) -> (u32, &[u8]) {
        let (lanes, tail) = bytes.as_chunks::<16>();
        let (blocks, singles) = lanes.as_chunks::<4>();
        let Some(([a, b, c, d], blocks)) = blocks.split_first() else {
            return (state, bytes);
        };
        let seed = _mm_cvtsi32_si128(i32::from_ne_bytes(state.to_ne_bytes()));
        let mut acc = [_mm_xor_si128(lane(a), seed), lane(b), lane(c), lane(d)];
        let k1k2 = _mm_set_epi64x(K2, K1);
        for block in blocks {
            for (acc, next) in acc.iter_mut().zip(block) {
                *acc = fold(*acc, lane(next), k1k2);
            }
        }
        let k3k4 = _mm_set_epi64x(K4, K3);
        let [a, b, c, d] = acc;
        let mut x = fold(fold(fold(a, b, k3k4), c, k3k4), d, k3k4);
        for next in singles {
            x = fold(x, lane(next), k3k4);
        }
        let low32 = _mm_set_epi32(0, 0, 0, -1);
        let x = _mm_xor_si128(_mm_clmulepi64_si128(x, k3k4, 0x10), _mm_srli_si128(x, 8));
        let x = _mm_xor_si128(
            _mm_clmulepi64_si128(_mm_and_si128(x, low32), _mm_set_epi64x(0, K5), 0x00),
            _mm_srli_si128(x, 4),
        );
        let p_mu = _mm_set_epi64x(MU, P);
        let t1 = _mm_clmulepi64_si128(_mm_and_si128(x, low32), p_mu, 0x10);
        let t2 = _mm_clmulepi64_si128(_mm_and_si128(t1, low32), p_mu, 0x00);
        let state = _mm_extract_epi32(_mm_xor_si128(x, t2), 1);
        (u32::from_ne_bytes(state.to_ne_bytes()), tail)
    }
}

/// Incremental CRC-32: feed the bytes in any split, the value is that of
/// the concatenation.
#[derive(Clone, Copy, Debug)]
pub struct Crc32 {
    state: u32,
}

impl Default for Crc32 {
    fn default() -> Self {
        Crc32::new()
    }
}

impl Crc32 {
    pub fn new() -> Crc32 {
        Crc32 { state: !0 }
    }

    pub fn update(&mut self, bytes: &[u8]) {
        #[cfg(target_arch = "x86_64")]
        if bytes.len() >= fold::MIN_LEN
            && is_x86_feature_detected!("pclmulqdq")
            && is_x86_feature_detected!("sse4.1")
        {
            #[expect(
                unsafe_code,
                reason = "the crate's one dispatch into the CRC-32 fold, after runtime \
                          detection of the target features it needs"
            )]
            // SAFETY: the kernel's two target features were detected on
            // this CPU just above; it reads `bytes` through safe slices.
            let (state, tail) = unsafe { fold::update(self.state, bytes) };
            self.state = update_table(state, tail);
            return;
        }
        self.state = update_table(self.state, bytes);
    }

    /// The CRC of everything fed so far (feeding may continue).
    pub fn finish(&self) -> u32 {
        !self.state
    }
}

/// CRC-32 of `bytes` in one call.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = Crc32::new();
    crc.update(bytes);
    crc.finish()
}

#[cfg(test)]
mod tests {
    use super::{update_table, Crc32};
    use crate::CHUNK;

    fn noise(len: usize) -> Vec<u8> {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        (0..len)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x.to_le_bytes()[3]
            })
            .collect()
    }

    #[test]
    fn dispatch_equals_the_table_at_every_length_and_offset() {
        // Every split into 64-byte blocks, single 16-byte lanes and a
        // tail, at every misalignment of a 16-byte lane.
        let data = noise(300 + 16);
        for offset in 0..16 {
            for len in 0..=300 {
                let bytes = &data[offset..offset + len];
                let mut crc = Crc32::new();
                crc.update(bytes);
                assert_eq!(
                    crc.state,
                    update_table(!0, bytes),
                    "offset {offset} length {len}"
                );
            }
        }
    }

    #[test]
    fn dispatch_equals_the_table_over_chunked_and_odd_sized_updates() {
        let data = noise(1 << 20);
        let want = update_table(!0, &data);
        let mut crc = Crc32::new();
        for piece in data.chunks(CHUNK) {
            crc.update(piece);
        }
        assert_eq!(crc.state, want, "CHUNK-sized updates");
        // Odd sizes on both sides of the fold's 64-byte minimum: the state
        // passes between fold and table in both directions.
        let (mut crc, mut rest) = (Crc32::new(), &data[..]);
        for len in [1, 63, 65, 127, 129, 4093, 15, 65_543].into_iter().cycle() {
            let (piece, after) = rest.split_at(len.min(rest.len()));
            crc.update(piece);
            rest = after;
            if rest.is_empty() {
                break;
            }
        }
        assert_eq!(crc.state, want, "odd-sized updates");
    }
}
