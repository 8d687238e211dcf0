//! FNV-1a hashing for kernel-signature maps.
//!
//! Signature lookups sit on the interception hot path (every kernel and every
//! message), and keys are small integers/enums — exactly the case where the
//! default SipHash is needlessly slow (Rust perf book, "Hashing"). A 20-line
//! FNV-1a hasher keeps the dependency list clean.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// FNV-1a 64-bit hasher.
#[derive(Debug, Clone, Copy)]
pub struct FnvHasher(u64);

impl Default for FnvHasher {
    fn default() -> Self {
        FnvHasher(0xcbf2_9ce4_8422_2325)
    }
}

impl Hasher for FnvHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut h = self.0;
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        self.0 = h;
    }
}

/// Feeding the hasher as a byte sink hashes exactly the bytes written, so a
/// document can be digested while it is rendered instead of from a rendered
/// copy.
impl std::io::Write for FnvHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) -> std::io::Result<usize> {
        Hasher::write(self, bytes);
        Ok(bytes.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// `HashMap` keyed with FNV-1a.
pub type FnvMap<K, V> = HashMap<K, V, BuildHasherDefault<FnvHasher>>;

/// Hash any `Hash` value with FNV-1a to a stable `u64`.
pub fn fnv_hash<T: std::hash::Hash>(value: &T) -> u64 {
    let mut h = FnvHasher::default();
    value.hash(&mut h);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stable_and_distinguishing() {
        assert_eq!(fnv_hash(&(1u64, 2u64)), fnv_hash(&(1u64, 2u64)));
        assert_ne!(fnv_hash(&(1u64, 2u64)), fnv_hash(&(2u64, 1u64)));
    }

    #[test]
    fn streamed_bytes_hash_like_the_whole_string() {
        // `str::hash` feeds the bytes and a 0xff terminator.
        let text = "{\"a\":[1,2.5],\"b\":\"x\"}";
        let mut h = FnvHasher::default();
        for piece in [&text[..4], &text[4..9], &text[9..]] {
            std::io::Write::write_all(&mut h, piece.as_bytes()).unwrap();
        }
        h.write_u8(0xff);
        assert_eq!(h.finish(), fnv_hash(&text));
    }

    #[test]
    fn map_works() {
        let mut m: FnvMap<u64, &str> = FnvMap::default();
        m.insert(42, "x");
        assert_eq!(m.get(&42), Some(&"x"));
    }
}
