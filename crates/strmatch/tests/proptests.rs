//! Property-based tests for the string matching substrate.

use joza_strmatch::ahocorasick::AhoCorasick;
use joza_strmatch::levenshtein::{bounded_distance, distance};
use joza_strmatch::mru::{MruScanner, NaiveScanner};
use joza_strmatch::myers::{bounded_myers_substring_distance, myers_substring_distance};
use joza_strmatch::normalize::{to_lower, to_lower_into};
use joza_strmatch::qgram;
use joza_strmatch::sellers::{naive_substring_distance, substring_distance};
use joza_strmatch::swar;
use proptest::prelude::*;
use std::collections::HashMap;

/// Arbitrary byte strings, explicitly including non-ASCII and interior
/// NULs — the SWAR kernels must be differentially exact on *all* bytes,
/// not just the printable SQL subset.
fn any_bytes() -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(any::<u8>(), 0..96)
}

proptest! {
    #[test]
    fn distance_symmetric(a in ".{0,40}", b in ".{0,40}") {
        prop_assert_eq!(distance(a.as_bytes(), b.as_bytes()), distance(b.as_bytes(), a.as_bytes()));
    }

    #[test]
    fn distance_triangle_inequality(a in ".{0,25}", b in ".{0,25}", c in ".{0,25}") {
        let ab = distance(a.as_bytes(), b.as_bytes());
        let bc = distance(b.as_bytes(), c.as_bytes());
        let ac = distance(a.as_bytes(), c.as_bytes());
        prop_assert!(ac <= ab + bc);
    }

    #[test]
    fn distance_zero_iff_equal(a in ".{0,30}", b in ".{0,30}") {
        let d = distance(a.as_bytes(), b.as_bytes());
        prop_assert_eq!(d == 0, a == b);
    }

    #[test]
    fn distance_bounded_by_max_len(a in ".{0,30}", b in ".{0,30}") {
        let d = distance(a.as_bytes(), b.as_bytes());
        prop_assert!(d <= a.len().max(b.len()));
        prop_assert!(d >= a.len().abs_diff(b.len()));
    }

    #[test]
    fn bounded_agrees_with_full(a in ".{0,25}", b in ".{0,25}", cutoff in 0usize..12) {
        let d = distance(a.as_bytes(), b.as_bytes());
        match bounded_distance(a.as_bytes(), b.as_bytes(), cutoff) {
            Some(bd) => { prop_assert_eq!(bd, d); prop_assert!(d <= cutoff); }
            None => prop_assert!(d > cutoff),
        }
    }

    #[test]
    fn sellers_never_exceeds_global(p in ".{0,25}", t in ".{0,40}") {
        let m = substring_distance(p.as_bytes(), t.as_bytes());
        prop_assert!(m.distance <= distance(p.as_bytes(), t.as_bytes()));
    }

    #[test]
    fn sellers_span_distance_is_exact(p in ".{1,20}", t in ".{1,40}") {
        let m = substring_distance(p.as_bytes(), t.as_bytes());
        prop_assert!(m.end <= t.len());
        prop_assert!(m.start <= m.end);
        // The reported distance must equal the Levenshtein distance of the
        // pattern against the reported span.
        let span = &t.as_bytes()[m.start..m.end];
        prop_assert_eq!(distance(p.as_bytes(), span), m.distance);
    }

    #[test]
    fn sellers_detects_exact_containment(prefix in ".{0,15}", p in ".{1,15}", suffix in ".{0,15}") {
        let t = format!("{prefix}{p}{suffix}");
        let m = substring_distance(p.as_bytes(), t.as_bytes());
        prop_assert_eq!(m.distance, 0);
    }

    /// The O(n·m) Sellers algorithm finds the same minimal distance as
    /// the paper's naive O(n²·m²) every-substring baseline.
    #[test]
    fn sellers_agrees_with_naive_baseline(p in ".{0,12}", t in ".{0,24}") {
        let fast = substring_distance(p.as_bytes(), t.as_bytes());
        let slow = naive_substring_distance(p.as_bytes(), t.as_bytes());
        prop_assert_eq!(fast.distance, slow.distance, "fast {:?} vs slow {:?}", fast, slow);
    }

    /// The bit-parallel kernel is a drop-in for Sellers: identical
    /// distance, start, and end on arbitrary byte strings.
    #[test]
    fn myers_matches_classic(p in ".{0,30}", t in ".{0,60}") {
        let classic = substring_distance(p.as_bytes(), t.as_bytes());
        let fast = myers_substring_distance(p.as_bytes(), t.as_bytes());
        prop_assert_eq!(fast, classic);
    }

    /// Same, on a tiny alphabet: equal-distance ties are everywhere, so
    /// the span tie-break (min ratio, then leftmost) is exercised hard.
    #[test]
    fn myers_matches_classic_on_dense_ties(p in "[ab]{1,20}", t in "[ab]{0,60}") {
        let classic = substring_distance(p.as_bytes(), t.as_bytes());
        let fast = myers_substring_distance(p.as_bytes(), t.as_bytes());
        prop_assert_eq!(fast, classic);
    }

    /// Multi-word patterns (> 64 bytes, up to three blocks) agree too.
    #[test]
    fn myers_matches_classic_multiword(p in "[a-d]{60,150}", t in "[a-d]{0,200}") {
        let classic = substring_distance(p.as_bytes(), t.as_bytes());
        let fast = myers_substring_distance(p.as_bytes(), t.as_bytes());
        prop_assert_eq!(fast, classic);
    }

    /// An embedded noisy copy of the pattern forces a real match window;
    /// the recovered span must still be bit-identical.
    #[test]
    fn myers_matches_classic_on_embedded_payload(
        p in "[a-z '=0-9]{5,80}",
        prefix in "[a-z ]{0,60}",
        suffix in "[a-z ]{0,60}",
        flip in 0usize..80,
    ) {
        let mut noisy = p.clone().into_bytes();
        let i = flip % noisy.len();
        noisy[i] = if noisy[i] == b'x' { b'y' } else { b'x' };
        let t = [prefix.as_bytes(), &noisy, suffix.as_bytes()].concat();
        let classic = substring_distance(p.as_bytes(), &t);
        let fast = myers_substring_distance(p.as_bytes(), &t);
        prop_assert_eq!(fast, classic);
    }

    /// The threshold-aware kernel: `Some` iff the true distance is ≤ k,
    /// and when `Some` the match is the exact classic result.
    #[test]
    fn bounded_myers_agrees_with_classic(p in ".{0,40}", t in ".{0,80}", k in 0usize..20) {
        let classic = substring_distance(p.as_bytes(), t.as_bytes());
        match bounded_myers_substring_distance(p.as_bytes(), t.as_bytes(), k) {
            Some(m) => {
                prop_assert_eq!(m, classic);
                prop_assert!(m.distance <= k);
            }
            None => prop_assert!(classic.distance > k, "classic {:?} within k {}", classic, k),
        }
    }

    #[test]
    fn qgram_bound_is_sound(p in ".{0,30}", t in ".{0,50}", q in 2usize..5) {
        let lb = qgram::lower_bound(p.as_bytes(), t.as_bytes(), q);
        let real = substring_distance(p.as_bytes(), t.as_bytes()).distance;
        prop_assert!(lb <= real, "lb {} > real {}", lb, real);
    }

    /// The presence-set profile's bound never exceeds Ukkonen's exact
    /// multiset bound, which never exceeds the true distance. A two-letter
    /// alphabet makes grams repeat on both sides.
    #[test]
    fn qgram_profile_bound_chain_low_alphabet(p in "[ab]{0,48}", t in "[ab]{0,64}", q in 1usize..5) {
        let (p, t) = (p.as_bytes(), t.as_bytes());
        let profile = qgram::QgramProfile::new(t, q).lower_bound(p);
        let exact = exact_qgram_bound(p, t, q);
        let real = substring_distance(p, t).distance;
        prop_assert!(profile <= exact, "profile {} > exact {}", profile, exact);
        prop_assert!(exact <= real, "exact {} > real {}", exact, real);
    }

    /// The same chain on long texts, whose grams fill enough of the
    /// 4,096-bit set that absent pattern grams collide with present ones.
    #[test]
    fn qgram_profile_bound_chain_long(p in "[ -~]{0,160}", t in "[ -~]{0,1500}") {
        let (p, t) = (p.as_bytes(), t.as_bytes());
        let profile = qgram::QgramProfile::new(t, 3).lower_bound(p);
        let exact = exact_qgram_bound(p, t, 3);
        let real = substring_distance(p, t).distance;
        prop_assert!(profile <= exact, "profile {} > exact {}", profile, exact);
        prop_assert!(exact <= real, "exact {} > real {}", exact, real);
    }

    #[test]
    fn scanners_agree(
        pats in proptest::collection::vec("[a-c]{1,4}", 1..6),
        hay in "[a-c]{0,40}",
    ) {
        let ac = AhoCorasick::new(&pats);
        let naive = NaiveScanner::new(&pats);
        let mut mru = MruScanner::new(&pats);
        let mut a = ac.find_all(hay.as_bytes());
        let mut n = naive.find_all(hay.as_bytes());
        let mut m = mru.find_all(hay.as_bytes());
        let key = |x: &joza_strmatch::Match| (x.pattern, x.start, x.end);
        a.sort_unstable_by_key(key);
        n.sort_unstable_by_key(key);
        m.sort_unstable_by_key(key);
        prop_assert_eq!(&a, &n);
        prop_assert_eq!(&a, &m);
    }

    /// SWAR lowercase folding is byte-for-byte identical to the scalar
    /// reference on arbitrary byte strings (including non-ASCII).
    #[test]
    fn swar_fold_matches_scalar(bytes in any_bytes()) {
        let mut fast = Vec::new();
        let mut slow = Vec::new();
        swar::fold_lower_into(&bytes, &mut fast);
        swar::fold_lower_into_scalar(&bytes, &mut slow);
        prop_assert_eq!(&fast, &slow);
        // And both agree with the plain std byte map.
        let std_ref: Vec<u8> = bytes.iter().map(|b| b.to_ascii_lowercase()).collect();
        prop_assert_eq!(&fast, &std_ref);
    }

    /// `to_lower` (the Cow front-end over the SWAR kernel) agrees with the
    /// std byte map, borrows exactly when no byte changes, and
    /// `to_lower_into` produces the same bytes.
    #[test]
    fn to_lower_matches_reference(bytes in any_bytes()) {
        let std_ref: Vec<u8> = bytes.iter().map(|b| b.to_ascii_lowercase()).collect();
        let cow = to_lower(&bytes);
        prop_assert_eq!(cow.as_ref(), std_ref.as_slice());
        prop_assert_eq!(
            matches!(cow, std::borrow::Cow::Borrowed(_)),
            bytes == std_ref,
            "must borrow iff no byte needs rewriting"
        );
        let mut into = Vec::new();
        to_lower_into(&bytes, &mut into);
        prop_assert_eq!(into.as_slice(), std_ref.as_slice());
    }

    /// The word-parallel identifier scan stops exactly where the scalar
    /// classifier does, from every starting offset.
    #[test]
    fn swar_scan_ident_matches_scalar(bytes in any_bytes(), from in 0usize..100) {
        let from = from.min(bytes.len());
        prop_assert_eq!(swar::scan_ident(&bytes, from), swar::scan_ident_scalar(&bytes, from));
    }

    /// Every SWAR classifier scan agrees with a per-byte reference scan of
    /// the same predicate, from an arbitrary offset.
    #[test]
    fn swar_classifier_scans_match_reference(bytes in any_bytes(), from in 0usize..100) {
        let from = from.min(bytes.len());
        let reference = |pred: &dyn Fn(u8) -> bool| {
            let mut i = from;
            while i < bytes.len() && pred(bytes[i]) {
                i += 1;
            }
            i
        };
        prop_assert_eq!(swar::scan_ws(&bytes, from), reference(&|b| b.is_ascii_whitespace()));
        prop_assert_eq!(swar::scan_digits(&bytes, from), reference(&|b| b.is_ascii_digit()));
        prop_assert_eq!(swar::scan_hex(&bytes, from), reference(&|b| b.is_ascii_hexdigit()));
        prop_assert_eq!(swar::scan_ident(&bytes, from), reference(&|b| swar::is_ident_byte(b)));
    }

    /// Needle searches land on the first occurrence at-or-after `from`, or
    /// `len` when absent — same as a linear scan.
    #[test]
    fn swar_find_byte_matches_reference(
        bytes in any_bytes(),
        from in 0usize..100,
        b1 in any::<u8>(),
        b2 in any::<u8>(),
    ) {
        let from = from.min(bytes.len());
        let linear = |pred: &dyn Fn(u8) -> bool| {
            (from..bytes.len()).find(|&i| pred(bytes[i])).unwrap_or(bytes.len())
        };
        prop_assert_eq!(swar::find_byte(&bytes, from, b1), linear(&|b| b == b1));
        prop_assert_eq!(swar::find_byte2(&bytes, from, b1, b2), linear(&|b| b == b1 || b == b2));
    }

    /// `first_ascii_upper` finds the first `A..=Z` byte exactly; bytes
    /// ≥ 0x80 (UTF-8 continuation bytes and friends) never trigger it.
    #[test]
    fn swar_first_upper_matches_reference(bytes in any_bytes()) {
        let expect = bytes.iter().position(|b| b.is_ascii_uppercase());
        prop_assert_eq!(swar::first_ascii_upper(&bytes), expect);
    }

    #[test]
    fn mru_stable_across_repeats(
        pats in proptest::collection::vec("[a-b]{1,3}", 1..5),
        hay in "[a-b]{0,30}",
    ) {
        let mut mru = MruScanner::new(&pats);
        let first = mru.find_all(hay.as_bytes());
        let second = mru.find_all(hay.as_bytes());
        prop_assert_eq!(first, second);
    }
}

/// Ukkonen's q-gram bound over exact gram multisets: the reference the
/// presence-set [`qgram::QgramProfile`] is checked against.
fn exact_qgram_bound(p: &[u8], t: &[u8], q: usize) -> usize {
    if q == 0 || p.len() < q {
        return 0;
    }
    let mut text_grams: HashMap<&[u8], usize> = HashMap::new();
    for g in t.windows(q) {
        *text_grams.entry(g).or_default() += 1;
    }
    let mut common = 0;
    for g in p.windows(q) {
        if let Some(n) = text_grams.get_mut(g).filter(|n| **n > 0) {
            *n -= 1;
            common += 1;
        }
    }
    (p.len() - q + 1 - common).div_ceil(q)
}

/// Both families above really exercise a weaker bound: repeated grams
/// (low alphabet) and hash collisions (long texts) each make the profile
/// bound fall strictly below the exact one on some inputs.
#[test]
fn qgram_profile_bound_is_weaker_through_repeats_and_collisions() {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(7);
    let mut gen = |alphabet: &[u8], len: usize| -> Vec<u8> {
        (0..len).map(|_| alphabet[rng.random_range(0..alphabet.len())]).collect()
    };
    let printable: Vec<u8> = (b' '..=b'~').collect();
    let (mut repeats, mut collisions) = (0, 0);
    for _ in 0..200 {
        let (p, t) = (gen(b"ab", 24), gen(b"ab", 6));
        if qgram::lower_bound(&p, &t, 3) < exact_qgram_bound(&p, &t, 3) {
            repeats += 1;
        }
        let (p, t) = (gen(&printable, 40), gen(&printable, 1500));
        if qgram::lower_bound(&p, &t, 3) < exact_qgram_bound(&p, &t, 3) {
            collisions += 1;
        }
    }
    assert!(repeats > 0 && collisions > 0, "repeats {repeats}, collisions {collisions}");
}
