//! FxHash: the fast non-cryptographic hasher used by rustc, bundled here so the
//! engine's hash-heavy inner loops (set-difference, aggregate maps, hash joins)
//! do not pay SipHash's per-byte cost. See the Rust Performance Book's "Hashing"
//! chapter for the rationale; the algorithm is the public-domain Firefox hash.

use std::hash::{BuildHasherDefault, Hasher};

/// Multiplicative constant from the original FxHash.
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// FxHash state.
#[derive(Default, Clone, Copy)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add_to_hash(&mut self, i: u64) {
        self.hash = (self.hash.rotate_left(5) ^ i).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.add_to_hash(u64::from_le_bytes(chunk.try_into().unwrap()));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut buf = [0u8; 8];
            buf[..rest.len()].copy_from_slice(rest);
            self.add_to_hash(u64::from_le_bytes(buf) | ((rest.len() as u64) << 56));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add_to_hash(i);
    }

    #[inline]
    fn write_i64(&mut self, i: i64) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        // Final avalanche so low bits are well mixed for power-of-two maps.
        let mut h = self.hash;
        h ^= h >> 32;
        h = h.wrapping_mul(0xd6e8_feb8_6659_fd93);
        h ^= h >> 32;
        h
    }
}

/// `BuildHasher` for [`FxHasher`].
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// `HashMap` keyed with FxHash.
pub type FxHashMap<K, V> = std::collections::HashMap<K, V, FxBuildHasher>;

/// `HashSet` keyed with FxHash.
pub type FxHashSet<T> = std::collections::HashSet<T, FxBuildHasher>;

/// The splitmix64 finalizer: a cheap, well-mixed 64-bit hash. The seeded
/// draws of fault injection, crashpoint injection and the seeded schedules
/// of the debug-build lock scheduler (`sync::schedule`) all mix through it,
/// so a seed replays bit-identically.
#[inline]
pub fn splitmix64(mut x: u64) -> u64 {
    x ^= x >> 30;
    x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::Hash;

    fn h<T: Hash + ?Sized>(t: &T) -> u64 {
        let mut hasher = FxHasher::default();
        t.hash(&mut hasher);
        hasher.finish()
    }

    #[test]
    fn deterministic() {
        assert_eq!(h(&42u64), h(&42u64));
        assert_eq!(h(&"hello"), h(&"hello"));
    }

    #[test]
    fn discriminates() {
        assert_ne!(h(&1u64), h(&2u64));
        assert_ne!(h(&"a"), h(&"b"));
        // Length-tagged tail: a prefix must not collide with its extension.
        assert_ne!(h(&[1u8, 2, 3][..]), h(&[1u8, 2, 3, 0][..]));
    }

    #[test]
    fn low_bits_spread() {
        // 1024 consecutive keys must not all land in a handful of low-bit
        // buckets (guards the finish() avalanche).
        let mut buckets = [0u32; 16];
        for i in 0..1024u64 {
            buckets[(h(&i) & 15) as usize] += 1;
        }
        assert!(buckets.iter().all(|&c| c > 16), "skewed: {buckets:?}");
    }
}
