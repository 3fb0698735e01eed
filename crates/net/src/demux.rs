//! The stream demux: which socket slot a segment's 4-tuple names.
//!
//! One bucket is 8 bytes — the slot and the 32-bit hash of its stream's
//! key — in an open-addressing table under linear probing. The key itself
//! is not stored: the socket in the slot holds its 4-tuple, and a probe
//! reads it only where all 32 hash bits match. The bucket index is the
//! hash's low bits, so growth re-places every bucket without reading a
//! socket; deletion shifts the rest of the probe chain back, so there
//! are no tombstones and a chain never outlives its entries.
//!
//! The table is probed per segment and never iterated on any path that
//! produces output, so its order is nobody's business.

use crate::hash::FixedHasher;
use std::hash::Hasher;

/// One bucket: a socket slot and its stream key's hash; `slot == EMPTY`
/// marks a free bucket.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Bucket {
    slot: u32,
    hash: u32,
}

const EMPTY: u32 = u32::MAX;
const FREE: Bucket = Bucket {
    slot: EMPTY,
    hash: 0,
};

/// Buckets a fresh table starts with.
const MIN_BUCKETS: usize = 8;

/// The demux table: socket slots by the hash of their stream key.
#[derive(Debug, Clone, Default)]
pub struct Demux {
    buckets: Vec<Bucket>,
    len: usize,
}

/// Buckets for `n` entries at a load of at most 7/8.
fn buckets_for(n: usize) -> usize {
    (n * 8).div_ceil(7).next_power_of_two().max(MIN_BUCKETS)
}

impl Demux {
    /// The hash a key is filed under ([`FixedHasher`]'s low 32 bits,
    /// which depend on every bit of the key).
    #[inline]
    pub fn hash(key: u64) -> u32 {
        let mut h = FixedHasher::default();
        h.write_u64(key);
        h.finish() as u32
    }

    /// Entries held.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Sizes the table for `n` entries at once, where the number to come
    /// is known: a capacity hint only.
    pub(crate) fn reserve(&mut self, n: usize) {
        let want = buckets_for(n);
        if want > self.buckets.len() {
            self.resize(want);
        }
    }

    #[inline]
    fn mask(&self) -> usize {
        self.buckets.len() - 1
    }

    /// Re-places every bucket in a table of `n` buckets (a power of two),
    /// by its stored hash alone.
    fn resize(&mut self, n: usize) {
        let old = std::mem::replace(&mut self.buckets, vec![FREE; n]);
        for b in old.into_iter().filter(|b| b.slot != EMPTY) {
            self.place(b);
        }
    }

    /// Puts `b` in the first free bucket of its probe chain.
    fn place(&mut self, b: Bucket) {
        let mask = self.mask();
        let mut i = b.hash as usize & mask;
        while self.buckets[i].slot != EMPTY {
            i = (i + 1) & mask;
        }
        self.buckets[i] = b;
    }

    /// The slot filed under `hash` whose socket `is_key` accepts: the
    /// check runs only on a bucket whose hash matches in all 32 bits.
    #[inline]
    pub(crate) fn find(&self, hash: u32, mut is_key: impl FnMut(u32) -> bool) -> Option<u32> {
        if self.buckets.is_empty() {
            return None;
        }
        let mask = self.mask();
        let mut i = hash as usize & mask;
        loop {
            let b = self.buckets[i];
            if b.slot == EMPTY {
                return None;
            }
            if b.hash == hash && is_key(b.slot) {
                return Some(b.slot);
            }
            i = (i + 1) & mask;
        }
    }

    /// Files `slot` under `hash`. The caller has checked that its key is
    /// not filed already.
    pub(crate) fn insert(&mut self, hash: u32, slot: u32) {
        assert_ne!(slot, EMPTY, "slot {slot} is the free-bucket mark");
        if (self.len + 1) * 8 > self.buckets.len() * 7 {
            self.resize(buckets_for(self.len + 1).max(2 * self.buckets.len()));
        }
        self.place(Bucket { slot, hash });
        self.len += 1;
    }

    /// Takes `slot`, filed under `hash`, out of the table; returns
    /// whether it was there. The entries behind it on its probe chain
    /// shift back over the hole, so no tombstone is left.
    pub(crate) fn remove(&mut self, hash: u32, slot: u32) -> bool {
        if self.buckets.is_empty() {
            return false;
        }
        let mask = self.mask();
        let mut hole = hash as usize & mask;
        loop {
            match self.buckets[hole].slot {
                EMPTY => return false,
                s if s == slot => break,
                _ => hole = (hole + 1) & mask,
            }
        }
        let mut j = hole;
        loop {
            j = (j + 1) & mask;
            let b = self.buckets[j];
            if b.slot == EMPTY {
                break;
            }
            // `b` may fill the hole if the hole lies on its chain, i.e.
            // between its home and where it sits, wrapping at the end.
            let home = b.hash as usize & mask;
            if j.wrapping_sub(home) & mask >= j.wrapping_sub(hole) & mask {
                self.buckets[hole] = b;
                hole = j;
            }
        }
        self.buckets[hole] = FREE;
        self.len -= 1;
        true
    }

    /// Every entry, `(slot, hash)`, in bucket order. O(buckets) — for
    /// audits.
    pub(crate) fn entries(&self) -> impl Iterator<Item = (u32, u32)> + '_ {
        let full = self.buckets.iter().filter(|b| b.slot != EMPTY);
        full.map(|b| (b.slot, b.hash))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    impl Demux {
        /// Linear probing's invariant: every entry is reachable from its
        /// home without crossing a free bucket, and `len` counts them.
        fn check_chains(&self) {
            let mask = self.mask();
            let mut full = 0;
            for (i, b) in self.buckets.iter().enumerate() {
                if b.slot == EMPTY {
                    continue;
                }
                full += 1;
                let mut k = b.hash as usize & mask;
                while k != i {
                    assert_ne!(self.buckets[k].slot, EMPTY, "bucket {i} cut off at {k}");
                    k = (k + 1) & mask;
                }
            }
            assert_eq!(full, self.len);
            assert!(self.len * 8 <= self.buckets.len() * 7, "load above 7/8");
        }

        /// Entries sitting before their home, their chain having wrapped
        /// the table's end.
        fn wrapped(&self) -> usize {
            let mask = self.mask();
            let at = self.buckets.iter().enumerate();
            at.filter(|(i, b)| b.slot != EMPTY && *i < (b.hash as usize & mask))
                .count()
        }
    }

    #[test]
    fn layout_budget_of_a_demux_bucket() {
        // 10⁵ streams at a load of at most 7/8 are this many buckets.
        let bucket = std::mem::size_of::<Bucket>();
        assert!(bucket <= 8, "a demux bucket grew to {bucket} B (budget 8)");
        assert_eq!(buckets_for(100_001), 1 << 17);
        assert_eq!(buckets_for(7), 8);
        assert_eq!(buckets_for(8), 16);
    }

    /// What a run of the differential test went through.
    #[derive(Debug, Default)]
    struct Seen {
        max_load_eighths: usize,
        wrapped: usize,
        removes: usize,
        grown: usize,
        full_hash_collisions: usize,
    }

    /// Random inserts, lookups and removes against a `HashMap` model,
    /// with the keys kept where a stack keeps them — in a slot table the
    /// lookup's key check reads. `hash` files the keys.
    fn differential(seed: u64, ops: usize, hash: fn(u64) -> u32) -> Seen {
        let mut t = Demux::default();
        t.reserve(4);
        let mut model: HashMap<u64, u32> = HashMap::new();
        let mut slots: Vec<Option<u64>> = Vec::new();
        let mut free: Vec<u32> = Vec::new();
        let mut seen = Seen::default();
        let mut s = seed | 1;
        let mut draw = |bound: u64| {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s % bound
        };
        // The population swings between a few and a few hundred keys, so
        // the table is driven to its 7/8 bound at several sizes.
        let mut target = 40u64;
        for op in 0..ops {
            if op % 500 == 0 {
                target = 8 + draw(400);
            }
            let key = draw(1_000) | draw(4) << 40;
            let grow = (model.len() as u64) < target;
            match draw(10) {
                0..=3 if grow => {
                    if model.contains_key(&key) {
                        continue;
                    }
                    let slot = free.pop().unwrap_or_else(|| {
                        slots.push(None);
                        slots.len() as u32 - 1
                    });
                    slots[slot as usize] = Some(key);
                    let before = t.buckets.len();
                    t.insert(hash(key), slot);
                    seen.grown += usize::from(t.buckets.len() > before);
                    model.insert(key, slot);
                }
                0..=5 => {
                    let live = model.len() as u64;
                    let Some((&k, &slot)) = model.iter().nth(draw(live.max(1)) as usize) else {
                        continue;
                    };
                    assert!(t.remove(hash(k), slot), "op {op}: {k} not removed");
                    assert!(!t.remove(hash(k), slot), "op {op}: {k} removed twice");
                    model.remove(&k);
                    slots[slot as usize] = None;
                    free.push(slot);
                    seen.removes += 1;
                }
                _ => {
                    let got = t.find(hash(key), |slot| slots[slot as usize] == Some(key));
                    assert_eq!(got, model.get(&key).copied(), "op {op}: find {key}");
                    let twins = t
                        .entries()
                        .filter(|&(sl, h)| h == hash(key) && slots[sl as usize] != Some(key));
                    seen.full_hash_collisions += twins.count();
                }
            }
            t.check_chains();
            let load = t.len() * 8 / t.buckets.len();
            seen.max_load_eighths = seen.max_load_eighths.max(load);
            seen.wrapped += t.wrapped();
        }
        for (&k, &slot) in &model {
            let got = t.find(hash(k), |sl| slots[sl as usize] == Some(k));
            assert_eq!(got, Some(slot));
        }
        assert_eq!(t.len(), model.len());
        seen
    }

    #[test]
    fn the_demux_matches_a_hash_map_model() {
        let seen = differential(0x5eed, 12_000, Demux::hash);
        assert!(seen.max_load_eighths >= 7, "{seen:?}: never at 7/8");
        assert!(seen.wrapped > 0 && seen.grown > 3, "{seen:?}");
        assert!(seen.removes > 2_000, "{seen:?}");
    }

    #[test]
    fn the_demux_matches_the_model_when_hashes_collide_in_all_32_bits() {
        // Eight distinct hashes for every key: long chains, most of them
        // wrapping the end of a small table, and full-hash twins whose
        // keys only the slot table can tell apart.
        let seen = differential(0x0c01_11de, 12_000, |key| (key as u32 & 7) * 0x0100_0001);
        assert!(seen.full_hash_collisions > 1_000, "{seen:?}");
        assert!(seen.wrapped > 0 && seen.removes > 2_000, "{seen:?}");
    }

    #[test]
    fn a_backward_shift_wraps_the_end_of_the_table() {
        let mut t = Demux::default();
        t.reserve(1);
        assert_eq!(t.buckets.len(), 8);
        // Three entries homed in the last bucket: 7, then 0 and 1.
        for slot in 0..3 {
            t.insert(7, slot);
        }
        assert_eq!(t.wrapped(), 2);
        assert!(t.remove(7, 0));
        t.check_chains();
        for slot in 1..3 {
            assert_eq!(t.find(7, |s| s == slot), Some(slot), "slot {slot} lost");
        }
        assert_eq!(t.buckets[7].slot, 1, "the chain did not shift back");
        assert_eq!(t.wrapped(), 1);
    }
}
