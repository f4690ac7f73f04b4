//! Q-gram counting lower bound for edit distance.
//!
//! One of the "heuristics to skip implausible comparisons" the paper cites
//! for NTI (§III-A, §VI-B). If a pattern and a text share too few q-grams,
//! no substring of the text can be within a small edit distance of the
//! pattern, so the alignment can be skipped.
//!
//! The bound is Ukkonen's: a single edit operation destroys at most `q`
//! q-grams, so if `ed(p, s) <= k` for some substring `s` of `t`, then at
//! least `(|p| - q + 1) - k·q` of `p`'s gram positions hold a gram that
//! also occurs in `t` (`t`'s grams are a superset of every substring's).
//!
//! The text side is a fixed-size [`QgramProfile`]: a 4,096-bit presence
//! set of hashed grams, ~512 B, built without allocating. The bound counts
//! the pattern positions whose gram's bit is set. That count is never
//! below the exact multiset count — a gram present in the text always has
//! its bit set, and a hash collision or a repeated gram can only add to
//! it — so the bound may be weaker than Ukkonen's exact-count bound but
//! is never above it, and never above the true distance.

/// Bits in a [`QgramProfile`]'s presence set.
const BITS: usize = 4096;

/// The presence-set slot of one gram: its bytes packed big-endian into a
/// word (rotated in beyond 8 bytes), multiplied by a Fibonacci-hashing
/// constant, top 12 bits.
fn slot(gram: &[u8]) -> usize {
    let packed = gram.iter().fold(0u64, |h, &b| h.rotate_left(8) ^ u64::from(b));
    (packed.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (64 - BITS.trailing_zeros())) as usize
}

/// A lower bound on the edit distance between `pattern` and the
/// best-matching substring of `text`.
///
/// Returns 0 when the bound is uninformative (e.g. `pattern` shorter than
/// `q`). The bound is safe: the true minimal substring edit distance is
/// never smaller than the returned value.
///
/// # Examples
///
/// ```
/// use joza_strmatch::qgram::lower_bound;
/// use joza_strmatch::sellers::substring_distance;
///
/// let p = b"UNION SELECT password FROM users";
/// let t = b"completely unrelated text zzzz";
/// let lb = lower_bound(p, t, 3);
/// assert!(lb <= substring_distance(p, t).distance);
/// assert!(lb > 3); // enough to skip a threshold-3 comparison
/// ```
pub fn lower_bound(pattern: &[u8], text: &[u8], q: usize) -> usize {
    QgramProfile::new(text, q).lower_bound(pattern)
}

/// The largest bound [`lower_bound`] can return for a pattern of
/// `pattern_len` bytes: every one of its grams missing, `⌈(|p|−q+1)/q⌉`.
///
/// A caller whose cutoff is at least this value can never skip the
/// comparison and need not build a profile at all.
pub fn max_bound(pattern_len: usize, q: usize) -> usize {
    if q == 0 || pattern_len < q {
        0
    } else {
        (pattern_len - q + 1).div_ceil(q)
    }
}

/// A text's q-gram presence set, built once and reused across many
/// patterns.
///
/// NTI checks every request input against the *same* intercepted query,
/// so it builds one profile of the query — lazily, for the first input
/// whose cutoff the bound could beat — and asks it for each input's
/// bound.
///
/// # Examples
///
/// ```
/// use joza_strmatch::qgram::{lower_bound, QgramProfile};
///
/// let query = b"SELECT * FROM t WHERE id=-1 OR 1=1";
/// let profile = QgramProfile::new(query, 3);
/// for input in [b"-1 OR 1=1".as_slice(), b"zzzzzzzz".as_slice()] {
///     assert_eq!(profile.lower_bound(input), lower_bound(input, query, 3));
/// }
/// ```
#[derive(Debug, Clone)]
pub struct QgramProfile {
    q: usize,
    present: [u64; BITS / 64],
}

impl QgramProfile {
    /// Builds the q-gram presence set of `text`.
    pub fn new(text: &[u8], q: usize) -> Self {
        let mut present = [0u64; BITS / 64];
        if q > 0 {
            for gram in text.windows(q) {
                let s = slot(gram);
                present[s / 64] |= 1 << (s % 64);
            }
        }
        QgramProfile { q, present }
    }

    /// A lower bound on the edit distance between `pattern` and the
    /// best-matching substring of the profiled text — identical to
    /// [`lower_bound`] with the same `q`.
    pub fn lower_bound(&self, pattern: &[u8]) -> usize {
        let q = self.q;
        if pattern.len() < q || q == 0 {
            return 0;
        }
        let common = pattern
            .windows(q)
            .filter(|gram| {
                let s = slot(gram);
                self.present[s / 64] & (1 << (s % 64)) != 0
            })
            .count();
        let missing = pattern.len() - q + 1 - common;
        missing.div_ceil(q)
    }
}

/// Quick length-based plausibility check: can any substring of a text of
/// length `text_len` be within `cutoff` edits of a pattern of length
/// `pattern_len`?
///
/// A pattern longer than the whole text by more than `cutoff` cannot match.
/// Any cutoff is accepted, `usize::MAX` included.
pub fn length_plausible(pattern_len: usize, text_len: usize, cutoff: usize) -> bool {
    pattern_len <= text_len.saturating_add(cutoff)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sellers::substring_distance;

    #[test]
    fn bound_is_sound_on_samples() {
        let cases: &[(&[u8], &[u8])] = &[
            (b"hello world", b"say hello world!"),
            (b"hello world", b"completely different"),
            (b"OR 1=1", b"SELECT * WHERE id=1 OR 1=1"),
            (b"abcabcabc", b"abc"),
            (b"", b"xyz"),
            (b"ab", b"xyz"),
        ];
        for &(p, t) in cases {
            let lb = lower_bound(p, t, 3);
            let real = substring_distance(p, t).distance;
            assert!(lb <= real, "lb {lb} > real {real} for {p:?} in {t:?}");
        }
    }

    #[test]
    fn exact_containment_gives_zero_bound() {
        assert_eq!(lower_bound(b"fragment", b"xx fragment yy", 3), 0);
    }

    #[test]
    fn disjoint_alphabets_give_strong_bound() {
        let p = b"aaaaaaaaaaaaaaaaaaaa";
        let t = b"bbbbbbbbbbbbbbbbbbbb";
        assert!(lower_bound(p, t, 3) >= 6);
    }

    #[test]
    fn short_pattern_uninformative() {
        assert_eq!(lower_bound(b"ab", b"zzzz", 3), 0);
        assert_eq!(lower_bound(b"abc", b"zzzz", 0), 0);
    }

    #[test]
    fn max_bound_is_the_all_missing_bound() {
        assert_eq!(max_bound(2, 3), 0);
        assert_eq!(max_bound(8, 3), 2);
        assert_eq!(max_bound(12, 3), 4);
        assert_eq!(max_bound(5, 0), 0);
        for len in 0..40 {
            let p = vec![b'a'; len];
            assert_eq!(lower_bound(&p, b"", 3), max_bound(len, 3), "len {len}");
        }
    }

    #[test]
    fn length_plausibility() {
        assert!(length_plausible(5, 10, 0));
        assert!(length_plausible(12, 10, 2));
        assert!(!length_plausible(13, 10, 2));
        assert!(length_plausible(usize::MAX, 10, usize::MAX));
    }
}
