//! Content digests: a tiny, dependency-free word-wise hasher for *identity by
//! value* of model parameters.
//!
//! The serving layer caches schedules by the **full problem identity** — the
//! exact bits of every link parameter, every intra-cluster time, the root and
//! the payload — never by a name or a shape alone. That calls for a stable,
//! platform-independent content hash over floating-point parameters, which
//! `std::hash` does not promise (and `f64` does not implement).
//! [`ContentHasher`] hashes the IEEE-754 bit patterns directly, so two models
//! hash equal iff their parameters are bit-identical (NaN payloads
//! included), and a single changed link changes the digest.
//!
//! A 64-bit digest is an index, not a proof: callers that must *never*
//! conflate two distinct problems (the schedule cache) follow the digest
//! lookup with a full equality check of the keyed value.

/// Independent accumulator lanes; word `k` of the stream feeds lane `k % 4`.
const LANES: usize = 4;
/// Odd, so multiplying by it is a bijection on `u64`.
const MULTIPLIER: u64 = 0x9e37_79b9_7f4a_7c15;
const ROTATION: u32 = 29;
/// Distinct lane seeds, so permuting whole lanes changes the digest.
const SEEDS: [u64; LANES] = [
    0xcbf2_9ce4_8422_2325,
    0x8422_2325_cbf2_9ce4,
    0x6a09_e667_f3bc_c908,
    0xbb67_ae85_84ca_a73b,
];

/// One absorption step. For a fixed word it is a bijection of the lane
/// state, and for a fixed state a bijection of the word.
#[inline(always)]
fn step(lane: u64, word: u64) -> u64 {
    (lane ^ word).wrapping_mul(MULTIPLIER).rotate_left(ROTATION)
}

/// A 64-bit content hasher that absorbs one 64-bit word per step, spread
/// round-robin over four independent lanes so the multiply chains overlap.
///
/// Every step and the final fold are bijections of the state, so changing
/// any single word of a stream of fixed length always changes the digest.
/// Deterministic across platforms and runs; not collision-resistant against
/// adversaries (pair it with an equality check when identity matters).
#[derive(Debug, Clone, Copy)]
pub struct ContentHasher {
    lanes: [u64; LANES],
    words: u64,
}

impl ContentHasher {
    /// A fresh hasher.
    pub fn new() -> Self {
        ContentHasher {
            lanes: SEEDS,
            words: 0,
        }
    }

    /// Absorbs one word.
    pub fn write_u64(&mut self, v: u64) -> &mut Self {
        let lane = (self.words % LANES as u64) as usize;
        self.lanes[lane] = step(self.lanes[lane], v);
        self.words += 1;
        self
    }

    /// Absorbs a float by its IEEE-754 bit pattern. `0.0` and `-0.0` hash
    /// differently — bit identity is the contract, not numeric equality.
    pub fn write_f64(&mut self, v: f64) -> &mut Self {
        self.write_u64(v.to_bits())
    }

    /// Absorbs a run of words: the same digest as one [`write_u64`] per
    /// word, with the four lanes held in registers across the run.
    ///
    /// [`write_u64`]: ContentHasher::write_u64
    pub fn write_words(&mut self, words: impl IntoIterator<Item = u64>) -> &mut Self {
        let mut words = words.into_iter();
        while !self.words.is_multiple_of(LANES as u64) {
            match words.next() {
                Some(w) => self.write_u64(w),
                None => return self,
            };
        }
        let [mut a, mut b, mut c, mut d] = self.lanes;
        let mut n = 0u64;
        // Each group of four feeds lanes 0..4 in order; a run that ends
        // mid-group leaves the counter on the next lane to feed.
        while let Some(w) = words.next() {
            a = step(a, w);
            n += 1;
            let Some(w) = words.next() else { break };
            b = step(b, w);
            n += 1;
            let Some(w) = words.next() else { break };
            c = step(c, w);
            n += 1;
            let Some(w) = words.next() else { break };
            d = step(d, w);
            n += 1;
        }
        self.lanes = [a, b, c, d];
        self.words += n;
        self
    }

    /// Absorbs a UTF-8 string, length-prefixed so `("ab", "c")` and
    /// `("a", "bc")` cannot collide by concatenation. The bytes are packed
    /// little-endian into words, the last one zero-padded.
    pub fn write_str(&mut self, s: &str) -> &mut Self {
        self.write_u64(s.len() as u64);
        self.write_words(s.as_bytes().chunks(8).map(|chunk| {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            u64::from_le_bytes(word)
        }))
    }

    /// The digest so far: the word count and the four lanes folded by the
    /// same step, then avalanched (every stage a bijection).
    pub fn finish(&self) -> u64 {
        let folded = self
            .lanes
            .iter()
            .fold(self.words.wrapping_mul(MULTIPLIER), |h, &lane| {
                step(h, lane)
            });
        // The MurmurHash3 64-bit finaliser.
        let mut h = folded;
        h ^= h >> 33;
        h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
        h ^= h >> 33;
        h = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
        h ^ (h >> 33)
    }
}

impl Default for ContentHasher {
    fn default() -> Self {
        ContentHasher::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vector() {
        // Pinned so an accidental change to the constants or the lane order
        // shows up; cache keys never leave the process, so this is the only
        // place the value matters.
        let mut h = ContentHasher::new();
        h.write_str("a").write_u64(1).write_f64(1.5);
        assert_eq!(h.finish(), 0x337b_9f66_8951_de7f);
    }

    #[test]
    fn one_bit_flips_the_digest() {
        let digest = |x: f64| {
            let mut h = ContentHasher::new();
            h.write_f64(x);
            h.finish()
        };
        assert_ne!(digest(1.0), digest(1.0 + f64::EPSILON));
        assert_ne!(digest(0.0), digest(-0.0));
    }

    #[test]
    fn strings_are_length_prefixed() {
        let digest = |parts: &[&str]| {
            let mut h = ContentHasher::new();
            for p in parts {
                h.write_str(p);
            }
            h.finish()
        };
        assert_ne!(digest(&["ab", "c"]), digest(&["a", "bc"]));
        assert_ne!(digest(&["a"]), digest(&["a\0"]));
    }

    #[test]
    fn bulk_runs_match_single_words_at_any_alignment() {
        let words: Vec<u64> = (0..23u64)
            .map(|i| i.wrapping_mul(0x1234_5678_9abc))
            .collect();
        for lead in 0..LANES {
            for len in 0..words.len() {
                let mut single = ContentHasher::new();
                let mut bulk = ContentHasher::new();
                for i in 0..lead {
                    single.write_u64(i as u64);
                    bulk.write_u64(i as u64);
                }
                for &w in &words[..len] {
                    single.write_u64(w);
                }
                bulk.write_words(words[..len].iter().copied());
                assert_eq!(single.finish(), bulk.finish(), "lead {lead}, len {len}");
            }
        }
    }

    #[test]
    fn any_single_word_change_changes_the_digest() {
        let words: Vec<u64> = (0..17u64).collect();
        let digest = |ws: &[u64]| {
            let mut h = ContentHasher::new();
            h.write_words(ws.iter().copied());
            h.finish()
        };
        let base = digest(&words);
        for i in 0..words.len() {
            for flip in [1u64, 1 << 63, u64::MAX] {
                let mut changed = words.clone();
                changed[i] ^= flip;
                assert_ne!(digest(&changed), base, "word {i} ^ {flip:#x}");
            }
        }
    }
}
