//! `ChunkSum` against its byte-serial definition.
//!
//! The library hashes with a 16-byte block kernel and removes heads with
//! a modular inverse (see the `checksum` module docs). Seals already on
//! disk were computed by the byte-serial loop below, so the kernel must
//! match it bit for bit at every length and alignment, and `after` must
//! undo `then` exactly.

use dstreams_pfs::ChunkSum;
use proptest::prelude::*;

const MULTIPLIER: u64 = 0x9e37_79b9_7f4a_7c15;

/// The definition: `H(s) = Σ (s[i] + 1) · r^i`, one byte at a time.
fn serial(bytes: &[u8]) -> ChunkSum {
    let mut hash = 0u64;
    let mut rpow = 1u64;
    for &b in bytes {
        hash = hash.wrapping_add((b as u64 + 1).wrapping_mul(rpow));
        rpow = rpow.wrapping_mul(MULTIPLIER);
    }
    ChunkSum::from_parts(hash, rpow)
}

/// Seeded bytes (splitmix64), for inputs too long for a strategy.
fn seeded(len: usize, seed: u64) -> Vec<u8> {
    (0..len as u64)
        .map(|i| {
            let mut z = (seed ^ i).wrapping_add(MULTIPLIER);
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            (z ^ (z >> 31)) as u8
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    #[test]
    fn block_kernel_matches_the_serial_definition(
        buf in proptest::collection::vec(any::<u8>(), 315),
        len in 0usize..=300,
    ) {
        // Every start offset mod 16, so block boundaries land everywhere
        // in the input and every remainder length occurs.
        for start in 0..16 {
            let bytes = &buf[start..start + len];
            prop_assert_eq!(ChunkSum::of(bytes), serial(bytes), "start {} len {}", start, len);
        }
    }

    #[test]
    fn after_undoes_then(
        a in proptest::collection::vec(any::<u8>(), 0..200),
        b in proptest::collection::vec(any::<u8>(), 0..200),
    ) {
        let (sa, sb) = (ChunkSum::of(&a), ChunkSum::of(&b));
        prop_assert_eq!(sa.then(sb).after(sa), sb);
        let mut ab = a.clone();
        ab.extend_from_slice(&b);
        prop_assert_eq!(ChunkSum::of(&ab).after(sa), sb);
    }
}

#[test]
fn long_inputs_match_the_serial_definition() {
    for len in [(1 << 16) - 1, 1 << 16, (1 << 20) + 7] {
        let bytes = seeded(len, len as u64);
        assert_eq!(ChunkSum::of(&bytes), serial(&bytes), "len {len}");
    }
}

#[test]
fn after_an_empty_head_is_the_identity() {
    let c = ChunkSum::of(b"record bytes");
    assert_eq!(c.after(ChunkSum::EMPTY), c);
    assert_eq!(ChunkSum::EMPTY.after(ChunkSum::EMPTY), ChunkSum::EMPTY);
    assert_eq!(c.after(c), ChunkSum::EMPTY);
}

#[test]
fn after_removes_megabyte_heads() {
    let tail = ChunkSum::of(&seeded(1000, 7));
    for len in [1 << 20, (1 << 20) + 1, (1 << 21) + 15] {
        let head = ChunkSum::of(&seeded(len, 3));
        assert_eq!(head.then(tail).after(head), tail, "head of {len} bytes");
    }
}
