//! Key hashing: the order-preserving hash of §2.2 plus a uniform baseline.
//!
//! GridVine generates binary overlay keys "using an order-preserving hash
//! function Hash() on the data" so that lexicographically close values land
//! on nearby leaves of the virtual binary tree — the property that lets
//! `%Aspergillus%`-style constrained searches and range scans stay local.
//!
//! [`OrderPreservingHash`] interprets a string as a fraction in `[0, 1)`
//! over a 7-bit character alphabet and emits the first `depth` bits of the
//! binary expansion of that fraction. This is exactly order-preserving:
//! `a <= b` (byte-wise, after clamping to the alphabet) implies
//! `hash(a) <= hash(b)` as bit strings of equal length.
//!
//! [`UniformHash`] (FNV-1a) is the classic DHT choice and serves as the
//! ablation baseline in experiment A1: it balances load perfectly on
//! skewed key sets but destroys locality.

use crate::bits::BitString;
use serde::{Deserialize, Serialize};

/// A function from application-level string keys to overlay bit keys.
pub trait KeyHasher {
    /// Hash `data` to a key of exactly `depth` bits.
    fn hash(&self, data: &str, depth: usize) -> BitString;
}

/// Which hasher a deployment uses (serializable for experiment configs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum HashKind {
    OrderPreserving,
    Uniform,
}

impl HashKind {
    pub fn build(self) -> Box<dyn KeyHasher + Send + Sync> {
        match self {
            HashKind::OrderPreserving => Box::new(OrderPreservingHash::default()),
            HashKind::Uniform => Box::new(UniformHash),
        }
    }
}

/// Order-preserving hash over the printable-ASCII alphabet.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct OrderPreservingHash {
    /// Alphabet size; characters are clamped into `[0, radix)` after
    /// subtracting the offset. 96 covers printable ASCII (0x20..0x7F).
    radix: u32,
    offset: u32,
}

impl Default for OrderPreservingHash {
    fn default() -> Self {
        OrderPreservingHash {
            radix: 96,
            offset: 0x20,
        }
    }
}

impl OrderPreservingHash {
    pub fn new(radix: u32, offset: u32) -> Self {
        assert!(radix >= 2, "radix must be at least 2");
        OrderPreservingHash { radix, offset }
    }

    #[inline]
    fn digit(&self, byte: u8) -> u32 {
        (byte as u32)
            .saturating_sub(self.offset)
            .min(self.radix - 1)
    }
}

/// Fixed-point unit of the interval arithmetic: a fraction in `[0, 1)`
/// is held as an integer multiple of 2⁻¹⁰⁰.
const ONE: u128 = 1 << 100;

/// Per-character interval widths of radix `R`: entry `i` is
/// `ONE / R^(i+1)`, rounded down exactly as repeated integer division
/// by `R` rounds it (`⌊⌊a/b⌋/b⌋ = ⌊a/b²⌋`).
const fn radix_widths<const N: usize>(radix: u128) -> [u128; N] {
    let mut out = [0; N];
    let mut width = ONE;
    let mut i = 0;
    while i < N {
        width /= radix;
        out[i] = width;
        i += 1;
    }
    out
}

/// Widths of the default radix 96: every non-zero one. The 16th
/// division reaches zero, where the expansion stops.
const WIDTHS_96: [u128; 15] = radix_widths(96);
const _: () = assert!(WIDTHS_96[14] > 0 && WIDTHS_96[14] / 96 == 0);

impl OrderPreservingHash {
    /// Lower end of the string's interval: the fraction
    /// `Σ digit_i / radix^(i+1)` in units of [`ONE`], exact in `u128` so
    /// no floating-point rounding can break the order. Characters past
    /// the point where the interval width reaches zero do not count.
    fn interval_low(&self, data: &str) -> u128 {
        let digits = data.as_bytes().iter().map(|&b| self.digit(b) as u128);
        if self.radix == 96 {
            return digits.zip(WIDTHS_96).map(|(d, w)| d * w).sum();
        }
        let mut lo: u128 = 0;
        let mut width: u128 = ONE;
        for d in digits {
            width /= self.radix as u128;
            if width == 0 {
                break;
            }
            lo += d * width;
        }
        lo
    }
}

impl KeyHasher for OrderPreservingHash {
    /// The first `depth` bits of the binary expansion of the string's
    /// interval low end.
    ///
    /// Cost: one table multiply-add per character (at most 15) for
    /// the default radix 96, one `u128` division per character for
    /// other radixes, then one shift for `depth <= 64`.
    ///
    /// Exactness: the low end is a 100-bit fraction, so for
    /// `k <= 100` its `k`-th expansion bit is bit `100 - k` of the
    /// integer, and the first `depth <= 64` bits are exactly its top
    /// `depth` bits. Past bit 100 the expansion unit reaches zero and
    /// every further bit reads 1; keys with `depth > 64` keep the
    /// bit-by-bit expansion that defines this.
    fn hash(&self, data: &str, depth: usize) -> BitString {
        let lo = self.interval_low(data);
        if depth <= 64 {
            return BitString::from_u64((lo >> (100 - depth)) as u64, depth);
        }
        let mut key = BitString::with_capacity(depth);
        let mut acc = lo;
        let mut unit = ONE;
        for _ in 0..depth {
            unit /= 2;
            if acc >= unit {
                key.push(true);
                acc -= unit;
            } else {
                key.push(false);
            }
        }
        key
    }
}

/// FNV-1a based uniform hash (ablation baseline; destroys order).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct UniformHash;

impl KeyHasher for UniformHash {
    fn hash(&self, data: &str, depth: usize) -> BitString {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for &b in data.as_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
        // FNV-1a's high bits avalanche poorly for short suffix changes;
        // finish with a SplitMix64-style mix so every input bit reaches
        // every output bit.
        h = (h ^ (h >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        h = (h ^ (h >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        h ^= h >> 31;
        // Fold to the requested depth (≤ 64 bits per chunk).
        if depth <= 64 {
            BitString::from_u64(h >> (64 - depth.max(1)).min(63), depth)
        } else {
            let mut key = BitString::with_capacity(depth);
            let mut state = h;
            while key.len() < depth {
                state = state
                    .rotate_left(31)
                    .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                    .wrapping_add(0x2545_F491_4F6C_DD1D);
                let take = (depth - key.len()).min(64);
                for i in (64 - take..64).rev() {
                    key.push((state >> i) & 1 == 1);
                }
            }
            key
        }
    }
}

/// The division-per-character, bit-at-a-time hash the table and shift
/// paths replaced, kept to test them against.
#[cfg(test)]
mod reference {
    use crate::bits::BitString;

    pub(super) fn op_hash(radix: u32, offset: u32, data: &str, depth: usize) -> BitString {
        const ONE: u128 = 1 << 100;
        let mut lo: u128 = 0;
        let mut width: u128 = ONE;
        for &b in data.as_bytes() {
            let d = (b as u32).saturating_sub(offset).min(radix - 1) as u128;
            width /= radix as u128;
            if width == 0 {
                break;
            }
            lo += d * width;
        }
        let mut key = BitString::with_capacity(depth);
        let mut acc = lo;
        let mut unit = ONE;
        for _ in 0..depth {
            unit /= 2;
            if acc >= unit {
                key.push(true);
                acc -= unit;
            } else {
                key.push(false);
            }
        }
        key
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_hash_is_order_preserving_on_examples() {
        let h = OrderPreservingHash::default();
        let words = [
            "",
            "A",
            "AB",
            "Aspergillus",
            "B",
            "EMBL#Organism",
            "EMP#SystematicName",
            "a",
            "zzz",
        ];
        for w in words.windows(2) {
            let ka = h.hash(w[0], 32);
            let kb = h.hash(w[1], 32);
            assert!(ka <= kb, "{} -> {ka} should be <= {} -> {kb}", w[0], w[1]);
        }
    }

    #[test]
    fn op_hash_fixed_depth() {
        let h = OrderPreservingHash::default();
        for depth in [1, 8, 17, 32, 64] {
            assert_eq!(h.hash("protein", depth).len(), depth);
        }
    }

    #[test]
    fn op_hash_empty_string_is_all_zeroes() {
        let h = OrderPreservingHash::default();
        assert_eq!(h.hash("", 8).to_string(), "00000000");
    }

    #[test]
    fn op_hash_deterministic() {
        let h = OrderPreservingHash::default();
        assert_eq!(h.hash("EMBL#Organism", 32), h.hash("EMBL#Organism", 32));
    }

    #[test]
    fn op_hash_distinguishes_close_strings() {
        // Each character consumes log2(96) ≈ 6.6 bits of resolution, so a
        // difference at position 9 needs ≥ 60 emitted bits to show up.
        let h = OrderPreservingHash::default();
        assert_ne!(h.hash("protein_a", 64), h.hash("protein_b", 64));
        assert_ne!(h.hash("prot_a", 48), h.hash("prot_b", 48));
    }

    #[test]
    fn op_hash_long_common_prefix_shares_key_prefix() {
        let h = OrderPreservingHash::default();
        let a = h.hash("EMBL#OrganismClassification", 32);
        let b = h.hash("EMBL#OrganismSpecies", 32);
        // Shared 13-char prefix => deep shared key prefix (locality).
        assert!(
            a.common_prefix_len(&b) >= 16,
            "lcp {}",
            a.common_prefix_len(&b)
        );
    }

    #[test]
    fn op_hash_matches_reference_on_edge_depths_and_bytes() {
        let long = "EMBL#OrganismClassification/Aspergillus";
        let words = [
            "",
            "A",
            " ",
            "~~~~",
            "\u{7f}\u{1}\t",
            "é",
            "Aspergillus niger",
            "seq:P10000",
            &long[..17],
            &long[..18],
            long,
        ];
        for (radix, offset) in [(96, 0x20), (26, u32::from(b'a')), (2, 0x30)] {
            let h = OrderPreservingHash::new(radix, offset);
            for word in words {
                for depth in [0, 1, 24, 63, 64, 65, 100, 128] {
                    assert_eq!(
                        h.hash(word, depth),
                        reference::op_hash(radix, offset, word, depth),
                        "radix {radix}, {word:?} at depth {depth}"
                    );
                }
            }
        }
    }

    #[test]
    fn uniform_hash_fixed_depth_and_deterministic() {
        let h = UniformHash;
        for depth in [1, 16, 32, 64, 80, 150] {
            let k = h.hash("EMBL#Organism", depth);
            assert_eq!(k.len(), depth);
            assert_eq!(k, h.hash("EMBL#Organism", depth));
        }
    }

    #[test]
    fn uniform_hash_scatters_close_strings() {
        let h = UniformHash;
        let a = h.hash("predicate_001", 32);
        let b = h.hash("predicate_002", 32);
        // Overwhelmingly likely to diverge within the first few bits.
        assert!(a.common_prefix_len(&b) < 16);
    }

    #[test]
    fn hash_kind_builds_working_hashers() {
        for kind in [HashKind::OrderPreserving, HashKind::Uniform] {
            let h = kind.build();
            assert_eq!(h.hash("x", 16).len(), 16);
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// The defining property: string order implies key order.
        #[test]
        fn op_hash_monotone(a in "[ -~]{0,24}", b in "[ -~]{0,24}") {
            let h = OrderPreservingHash::default();
            let ka = h.hash(&a, 48);
            let kb = h.hash(&b, 48);
            match a.as_bytes().cmp(b.as_bytes()) {
                std::cmp::Ordering::Less => prop_assert!(ka <= kb),
                std::cmp::Ordering::Greater => prop_assert!(ka >= kb),
                std::cmp::Ordering::Equal => prop_assert_eq!(ka, kb),
            }
        }

        /// The table and shift paths agree with the reference for any
        /// bytes, at every depth, in the default and another radix.
        #[test]
        fn op_hash_matches_reference(s in "[ -~]{0,24}", depth in 0usize..140, radix in 2u32..120) {
            let default = OrderPreservingHash::default();
            prop_assert_eq!(default.hash(&s, depth), reference::op_hash(96, 0x20, &s, depth));
            let other = OrderPreservingHash::new(radix, 0x20);
            prop_assert_eq!(other.hash(&s, depth), reference::op_hash(radix, 0x20, &s, depth));
        }

        /// Both hashers always emit exactly `depth` bits.
        #[test]
        fn depth_respected(s in "[ -~]{0,40}", depth in 1usize..128) {
            prop_assert_eq!(OrderPreservingHash::default().hash(&s, depth).len(), depth);
            prop_assert_eq!(UniformHash.hash(&s, depth).len(), depth);
        }

        /// Uniform hash spreads mass: over random strings, the first bit
        /// is roughly fair. (Statistical smoke test with fixed corpus size.)
        #[test]
        fn uniform_first_bit_balanced(seed_strings in proptest::collection::hash_set("[a-z]{6,12}", 64)) {
            let h = UniformHash;
            let ones = seed_strings.iter().filter(|s| h.hash(s, 16).bit(0)).count();
            // Binomial(64, 0.5): reject only wildly unbalanced outcomes.
            prop_assert!((12..=52).contains(&ones), "ones = {ones}");
        }
    }
}
