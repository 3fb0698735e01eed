//! A growable bit vector: one flag per slot of a dense table, at one
//! bit a slot instead of a `bool`'s byte. It lives in this crate, beside
//! [`crate::hash`], because it is the lowest one every table that keys by
//! slot sees (the executor's queued flags, the stack's active set).

/// Bits indexed from 0; a bit never set reads `false`, and setting one
/// past the end grows the vector.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BitVec {
    words: Vec<u64>,
}

impl BitVec {
    /// Sizes the vector for bits `0..bits` at once: a capacity hint only.
    pub fn reserve(&mut self, bits: usize) {
        let words = bits.div_ceil(64);
        self.words.reserve(words.saturating_sub(self.words.len()));
    }

    /// Bit `i`.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        self.words
            .get(i / 64)
            .is_some_and(|w| w & (1 << (i % 64)) != 0)
    }

    /// Sets bit `i` to `on`; returns what it was.
    #[inline]
    pub fn replace(&mut self, i: usize, on: bool) -> bool {
        let word = i / 64;
        if word >= self.words.len() {
            if !on {
                return false;
            }
            self.words.resize(word + 1, 0);
        }
        let mask = 1 << (i % 64);
        let was = self.words[word] & mask != 0;
        if on {
            self.words[word] |= mask;
        } else {
            self.words[word] &= !mask;
        }
        was
    }

    /// Sets bit `i`.
    #[inline]
    pub fn set(&mut self, i: usize) {
        self.replace(i, true);
    }

    /// Clears bit `i`.
    #[inline]
    pub fn clear(&mut self, i: usize) {
        self.replace(i, false);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bits_match_a_bool_model_across_word_boundaries() {
        let mut bits = BitVec::default();
        let mut model = vec![false; 300];
        let mut s = 0x2545_f491_4f6c_dd1du64;
        for _ in 0..5_000 {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            let (i, on) = ((s % 300) as usize, s & (1 << 40) != 0);
            assert_eq!(bits.replace(i, on), model[i], "bit {i}");
            model[i] = on;
        }
        for (i, &on) in model.iter().enumerate() {
            assert_eq!(bits.get(i), on, "bit {i}");
        }
        assert!(!bits.get(1 << 20), "a bit past the end reads false");
        bits.clear(1 << 20);
        assert!(
            bits.words.len() <= 5,
            "clearing past the end grew the vector"
        );
    }
}
