//! CRC-32 (IEEE 802.3, reflected polynomial `0xEDB88320`) — the one
//! implementation in the workspace.
//!
//! Table-sliced sixteen bytes at a time: table `k` maps a byte to the CRC
//! of that byte followed by `k` zero bytes, so sixteen independent lookups
//! XOR together into the state after the whole block. The tables are
//! `const`-evaluated (16 KiB of read-only data), so there is no first-use
//! initialisation and nothing to rebuild per call.

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

const fn build_tables() -> [[u32; 256]; SLICES] {
    let mut tables = [[0u32; 256]; SLICES];
    let (mut byte, mut crc0) = (0usize, 0u32);
    while byte < 256 {
        let (mut k, mut crc) = (0, crc0);
        while k < SLICES {
            crc = shift8(crc);
            // lint:allow(boundary-index, const-evaluated with k < SLICES and byte < 256 by the loop bounds — a bad index is a compile error)
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
fn lut(table: &[u32; 256], byte: u8) -> u32 {
    // lint:allow(boundary-index, a u8 cannot exceed a 256-entry table and the compiler drops the bounds check)
    table[usize::from(byte)]
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
        let [t0, t1, t2, t3, t4, t5, t6, t7, t8, t9, t10, t11, t12, t13, t14, t15] = &TABLES;
        let mut crc = self.state;
        let mut blocks = bytes.chunks_exact(SLICES);
        for block in &mut blocks {
            let &[b0, b1, b2, b3, b4, b5, b6, b7, b8, b9, b10, b11, b12, b13, b14, b15] = block
            else {
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
        self.state = crc;
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
