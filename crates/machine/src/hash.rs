//! The workspace's one non-SipHash hasher, for tables on a per-segment
//! or per-request path whose iteration order nothing consumes (the
//! kernel heap's live-block table, the TCP demux table, the Redis store,
//! the serving tier's shard stores). It lives in this crate because it is
//! the lowest one all of those see; `flexos_net` re-exports it.
//!
//! Fixed and unkeyed on purpose: the simulator is fed by its own load
//! generators, so a crafted-collision attack has no attacker, a
//! collision costs probes and never correctness, and a `RandomState`
//! would only add SipHash rounds to every lookup. The function is part
//! of no output — tables built on it are probed, never iterated.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Folded-multiply word hasher: each word is xored into the state, the
/// state multiplied by the golden-ratio constant into 128 bits, and the
/// two halves xored — so the low bits a table indexes with depend on
/// every input bit (a bare multiply only carries information upward, and
/// a client's demux keys differ only in their top 16 bits).
#[derive(Debug, Default, Clone, Copy)]
pub struct FixedHasher(u64);

impl Hasher for FixedHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            self.write_u64(u64::from_le_bytes(w.try_into().expect("8 bytes")));
        }
        let rest = words.remainder();
        if !rest.is_empty() {
            let mut w = [0u8; 8];
            w[..rest.len()].copy_from_slice(rest);
            self.write_u64(u64::from_le_bytes(w));
        }
    }

    #[inline]
    fn write_u64(&mut self, x: u64) {
        let wide = u128::from(self.0 ^ x) * 0x9e37_79b9_7f4a_7c15_u128;
        self.0 = wide as u64 ^ (wide >> 64) as u64;
    }
}

/// A `HashMap` under [`FixedHasher`].
pub type FixedMap<K, V> = HashMap<K, V, BuildHasherDefault<FixedHasher>>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash_of<T: Hash + ?Sized>(x: &T) -> u64 {
        BuildHasherDefault::<FixedHasher>::default().hash_one(x)
    }

    #[test]
    fn owned_and_borrowed_byte_keys_hash_alike() {
        let mut m: FixedMap<Vec<u8>, u32> = FixedMap::default();
        m.insert(b"key:0042".to_vec(), 42);
        m.insert(b"k".to_vec(), 1);
        assert_eq!(m.get(&b"key:0042"[..]), Some(&42));
        assert_eq!(m.get(&b"k"[..]), Some(&1));
        assert_eq!(m.get(&b"key:0043"[..]), None);
    }

    #[test]
    fn low_bits_spread_keys_that_differ_only_in_high_bits() {
        // A table indexes with the low bits; a bare multiply would map
        // all of these (a client's demux keys) to one bucket.
        let buckets: std::collections::BTreeSet<u64> =
            (0..1024u64).map(|i| hash_of(&(i << 48)) & 1023).collect();
        assert!(buckets.len() > 512, "only {} buckets hit", buckets.len());
    }
}
