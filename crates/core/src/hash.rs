//! FNV-1a, the one non-cryptographic hash of the workspace: cursor-token
//! checksums, shard placement, per-collection generator seeds, memo
//! fingerprints and — through [`store_fnv64`] — pack page, WAL and
//! spill checksums and content hashes all come from here. Every one of
//! those values is persisted or crosses a process boundary, so each
//! function must keep producing exactly the bits it produces today.
//! Fast and dependency-free; it guards against corruption and spreads
//! keys, not against adversaries.

const OFFSET_64: u64 = 0xcbf2_9ce4_8422_2325;
const PRIME_64: u64 = 0x0000_0100_0000_01b3;
/// The FNV prime with a slipped digit (2⁴⁴ where FNV has 2⁴⁰), as the
/// store has multiplied by since its first pack file. Every pack, WAL
/// and spill segment on disk is checksummed with it, so it stays.
const STORE_PRIME_64: u64 = 0x0000_1000_0000_01b3;
const OFFSET_32: u32 = 0x811c_9dc5;
const PRIME_32: u32 = 0x0100_0193;

#[inline]
fn fold64(h: u64, bytes: &[u8], prime: u64) -> u64 {
    bytes
        .iter()
        .fold(h, |h, &b| (h ^ b as u64).wrapping_mul(prime))
}

/// FNV-1a 64 of a byte slice.
#[inline]
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    fold64(OFFSET_64, bytes, PRIME_64)
}

/// The store's checksum and content hash: FNV-1a 64 in every respect
/// but its multiplier (see `STORE_PRIME_64`), frozen by the on-disk
/// formats. Use [`fnv1a64`] for anything that is not already persisted
/// with this function.
#[inline]
pub fn store_fnv64(bytes: &[u8]) -> u64 {
    fold64(OFFSET_64, bytes, STORE_PRIME_64)
}

/// FNV-1a 32 of a byte slice.
#[inline]
pub fn fnv1a32(bytes: &[u8]) -> u32 {
    bytes
        .iter()
        .fold(OFFSET_32, |h, &b| (h ^ b as u32).wrapping_mul(PRIME_32))
}

/// Streaming FNV-1a 64 as a [`std::hash::Hasher`], so values (`BitSet`s,
/// id slices) can be fingerprinted through their ordinary `Hash` impls
/// without allocating a canonical key first.
#[derive(Debug, Clone)]
pub struct Fnv1a64(u64);

impl Default for Fnv1a64 {
    fn default() -> Self {
        Fnv1a64(OFFSET_64)
    }
}

impl std::hash::Hasher for Fnv1a64 {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        self.0 = fold64(self.0, bytes, PRIME_64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The published reference vectors (Fowler/Noll/Vo test suite).
    #[test]
    fn reference_vectors_for_both_widths() {
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x8594_4171_f739_67e8);
        assert_eq!(fnv1a32(b""), 0x811c_9dc5);
        assert_eq!(fnv1a32(b"a"), 0xe40c_292c);
        assert_eq!(fnv1a32(b"foobar"), 0xbf9c_f968);
    }

    /// Values computed by `repo::store::codec::fnv64` before it moved
    /// here; the WAL and spill golden frames pin the same function
    /// through the formats that persist it.
    #[test]
    fn store_variant_keeps_its_historical_values() {
        assert_eq!(store_fnv64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(store_fnv64(b"a"), 0xaf74_d84c_8601_ec8c);
        assert_eq!(store_fnv64(b"foobar"), 0xf8ac_2471_f739_67e8);
    }

    #[test]
    fn streaming_in_pieces_equals_one_shot() {
        use std::hash::Hasher;
        let mut h = Fnv1a64::default();
        h.write(b"foo");
        h.write(b"bar");
        assert_eq!(h.finish(), fnv1a64(b"foobar"));
    }
}
