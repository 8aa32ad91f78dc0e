//! Order-sensitive, boundary-independent checksums.
//!
//! The d/stream commit seal must checksum bytes that different ranks hold
//! in different pieces: the writer hashes per-rank blocks, the reader
//! hashes whatever spans its decomposition assigns it, and the two
//! partitions rarely line up. A [`ChunkSum`] is therefore a *combinable*
//! digest: hashing `A ++ B` equals hashing `A` and `B` separately and
//! folding the pair, no matter where the boundary falls.
//!
//! Concretely it is the polynomial hash `H(s) = Σ (s[i] + 1) · r^i mod
//! 2^64` for a fixed odd multiplier `r`, carried together with `r^len`
//! so two chunks combine in O(1):
//!
//! `H(A ++ B) = H(A) + r^|A| · H(B)`,  `r^|A ++ B| = r^|A| · r^|B|`.
//!
//! The `+ 1` on each byte makes the digest length-sensitive (a trailing
//! run of zero bytes changes the hash), which is what torn-write
//! detection needs. This is an error-*detection* code against torn and
//! corrupted records, not a cryptographic MAC.
//!
//! **Block kernel.** Hashing byte by byte is one long dependency chain
//! (each step waits for the previous `r^i`). [`ChunkSum::of`] instead
//! splits the input into 16-byte blocks. A block at offset `k` adds
//! `r^k · S`, where `S = Σ (b_j + 1) · r^j` over its 16 bytes uses a
//! constant power table, so its 16 multiplies are independent; the
//! running power then steps by `r^16`. The tail of fewer than 16 bytes
//! goes through the byte-serial loop. This is the same sum regrouped, so
//! the digest is bit-identical to the byte-serial definition.
//!
//! **Removing a head.** Because `r` is odd, `r^n` is invertible mod
//! 2^64, so concatenation can be undone in O(1): for `C = A ++ B`,
//!
//! `H(B) = (H(C) − H(A)) · (r^|A|)^-1`,  `r^|B| = r^|C| · (r^|A|)^-1`,
//!
//! which is [`ChunkSum::after`]. A writer whose collective block is a
//! file prefix followed by a record gets the record's digest from the
//! block's digest without hashing the record a second time.

/// The fixed polynomial multiplier (odd, so powers never collapse to 0).
const MULTIPLIER: u64 = 0x9e37_79b9_7f4a_7c15;

/// Bytes per block of the block kernel.
const BLOCK: usize = 16;

/// `POW[j] = r^j` for `j < BLOCK`: the in-block weights.
const POW: [u64; BLOCK] = {
    let mut pow = [1u64; BLOCK];
    let mut j = 1;
    while j < BLOCK {
        pow[j] = pow[j - 1].wrapping_mul(MULTIPLIER);
        j += 1;
    }
    pow
};

/// `r^BLOCK`: how far the running power steps per block.
const POW_BLOCK: u64 = POW[BLOCK - 1].wrapping_mul(MULTIPLIER);

/// The inverse of an odd `a` mod 2^64 by Newton's iteration. `x = a` is
/// correct to 3 bits (`a·a ≡ 1 mod 8` for odd `a`) and each step doubles
/// the correct bits: 3 → 6 → 12 → 24 → 48 → 96.
fn inverse(a: u64) -> u64 {
    debug_assert!(a % 2 == 1, "only odd numbers are invertible mod 2^64");
    let mut x = a;
    for _ in 0..5 {
        x = x.wrapping_mul(2u64.wrapping_sub(a.wrapping_mul(x)));
    }
    x
}

/// A combinable digest over a byte chunk: the polynomial hash plus the
/// multiplier raised to the chunk length (both mod 2^64).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChunkSum {
    hash: u64,
    rpow: u64,
}

impl Default for ChunkSum {
    fn default() -> Self {
        ChunkSum::EMPTY
    }
}

impl ChunkSum {
    /// The digest of the empty chunk — the identity of [`ChunkSum::then`].
    pub const EMPTY: ChunkSum = ChunkSum { hash: 0, rpow: 1 };

    /// Digest a contiguous chunk of bytes (the block kernel of the module
    /// docs).
    pub fn of(bytes: &[u8]) -> ChunkSum {
        let mut hash = 0u64;
        let mut rpow = 1u64;
        let mut blocks = bytes.chunks_exact(BLOCK);
        for block in &mut blocks {
            let sum = block.iter().zip(&POW).fold(0u64, |s, (&b, &p)| {
                s.wrapping_add((b as u64 + 1).wrapping_mul(p))
            });
            hash = hash.wrapping_add(sum.wrapping_mul(rpow));
            rpow = rpow.wrapping_mul(POW_BLOCK);
        }
        for &b in blocks.remainder() {
            hash = hash.wrapping_add((b as u64 + 1).wrapping_mul(rpow));
            rpow = rpow.wrapping_mul(MULTIPLIER);
        }
        ChunkSum { hash, rpow }
    }

    /// The digest of this chunk followed immediately by `next`.
    #[must_use]
    pub fn then(self, next: ChunkSum) -> ChunkSum {
        ChunkSum {
            hash: self.hash.wrapping_add(self.rpow.wrapping_mul(next.hash)),
            rpow: self.rpow.wrapping_mul(next.rpow),
        }
    }

    /// The digest of what follows `head` in this chunk: for a chunk
    /// `head ++ X`, `(head ++ X).after(head)` is the digest of `X`, so
    /// `head.then(c.after(head)) == c`. O(1). Meaningful only when this
    /// chunk does begin with `head`.
    #[must_use]
    pub fn after(self, head: ChunkSum) -> ChunkSum {
        let inv = inverse(head.rpow);
        ChunkSum {
            hash: self.hash.wrapping_sub(head.hash).wrapping_mul(inv),
            rpow: self.rpow.wrapping_mul(inv),
        }
    }

    /// The 64-bit hash value (what a seal stores).
    pub fn hash(&self) -> u64 {
        self.hash
    }

    /// The multiplier power `r^len` (what travels beside the hash when
    /// chunks are exchanged for folding).
    pub fn rpow(&self) -> u64 {
        self.rpow
    }

    /// Reassemble a digest from its two wire words.
    pub fn from_parts(hash: u64, rpow: u64) -> ChunkSum {
        ChunkSum { hash, rpow }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn concatenation_is_boundary_independent() {
        let data: Vec<u8> = (0u16..300).map(|i| (i * 7 % 251) as u8).collect();
        let whole = ChunkSum::of(&data);
        for cut in [0, 1, 13, 150, 299, 300] {
            let split = ChunkSum::of(&data[..cut]).then(ChunkSum::of(&data[cut..]));
            assert_eq!(split, whole, "cut at {cut}");
        }
        // Three-way split, folded left-to-right.
        let three = ChunkSum::of(&data[..50])
            .then(ChunkSum::of(&data[50..200]))
            .then(ChunkSum::of(&data[200..]));
        assert_eq!(three, whole);
    }

    #[test]
    fn digest_is_order_and_length_sensitive() {
        assert_ne!(ChunkSum::of(b"ab").hash(), ChunkSum::of(b"ba").hash());
        // Trailing zeros change the digest — torn tails of a zero-filled
        // region are still detected.
        assert_ne!(ChunkSum::of(b"x").hash(), ChunkSum::of(b"x\0").hash());
        assert_ne!(ChunkSum::of(b"").hash(), ChunkSum::of(b"\0").hash());
    }

    #[test]
    fn empty_is_the_identity() {
        let c = ChunkSum::of(b"payload");
        assert_eq!(ChunkSum::EMPTY.then(c), c);
        assert_eq!(c.then(ChunkSum::EMPTY), c);
        assert_eq!(ChunkSum::of(b""), ChunkSum::EMPTY);
        assert_eq!(ChunkSum::default(), ChunkSum::EMPTY);
    }

    #[test]
    fn parts_roundtrip() {
        let c = ChunkSum::of(b"roundtrip");
        assert_eq!(ChunkSum::from_parts(c.hash(), c.rpow()), c);
    }
}
