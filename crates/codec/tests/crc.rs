//! The CRC-32 against the bytewise loop the table replaced, kept here as the
//! oracle: every short length (all block/remainder splits of the table's
//! sixteen-byte slicing and of the fold's 64-byte blocks and 16-byte lanes),
//! random lengths and offsets, and every way of cutting one buffer into
//! incremental updates. On a CPU with PCLMULQDQ every input of 64 bytes or
//! more takes the fold; the unit tests in `src/crc.rs` hold it to the table.

use microslip_codec::{crc32, Crc32};
use proptest::prelude::*;

mod common;
use common::noise;

/// The pre-refactor implementation, minus the table: one bit at a time.
fn crc32_bytewise(bytes: &[u8]) -> u32 {
    let mut crc = !0u32;
    for &b in bytes {
        crc ^= u32::from(b);
        for _ in 0..8 {
            crc = if crc & 1 != 0 { 0xEDB8_8320 ^ (crc >> 1) } else { crc >> 1 };
        }
    }
    !crc
}

#[test]
fn ieee_check_vector() {
    assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    assert_eq!(crc32(b""), 0);
}

#[test]
fn every_length_up_to_300_matches_the_bytewise_oracle() {
    let data = noise(300, 7);
    for len in 0..=300 {
        assert_eq!(crc32(&data[..len]), crc32_bytewise(&data[..len]), "length {len}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn random_windows_match_the_bytewise_oracle(
        seed in 0u64..u64::MAX,
        offset in 0usize..40,
        len in 0usize..5000,
    ) {
        let data = noise(offset + len, seed);
        prop_assert_eq!(crc32(&data[offset..]), crc32_bytewise(&data[offset..]));
    }

    #[test]
    fn incremental_updates_equal_one_shot(
        seed in 0u64..u64::MAX,
        len in 0usize..3000,
        cuts in proptest::collection::vec(0usize..3000, 0..6),
    ) {
        let data = noise(len, seed);
        let mut cuts: Vec<usize> = cuts.into_iter().map(|c| c % (len + 1)).collect();
        cuts.sort_unstable();
        let mut crc = Crc32::new();
        let mut from = 0;
        for cut in cuts {
            crc.update(&data[from..cut]);
            from = cut;
        }
        crc.update(&data[from..]);
        prop_assert_eq!(crc.finish(), crc32(&data));
    }
}
