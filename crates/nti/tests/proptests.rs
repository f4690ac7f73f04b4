//! Property-based tests for the NTI analyzer's invariants.

use joza_nti::{MatchKernel, NtiAnalyzer, NtiConfig};
use proptest::prelude::*;

fn analyzer(threshold: f64) -> NtiAnalyzer {
    NtiAnalyzer::new(NtiConfig { threshold, ..NtiConfig::default() })
}

proptest! {
    /// The analyzer is total: any inputs + any query produce a report
    /// with in-bounds, well-formed markings.
    #[test]
    fn analysis_is_total(
        inputs in proptest::collection::vec(".{0,30}", 0..4),
        query in ".{0,120}",
    ) {
        let refs: Vec<&str> = inputs.iter().map(String::as_str).collect();
        let report = analyzer(0.2).analyze(&refs, &query);
        for m in &report.markings {
            prop_assert!(m.start <= m.end);
            prop_assert!(m.end <= query.len());
            prop_assert!(m.input_index < inputs.len());
            prop_assert!(m.diff_ratio >= 0.0);
        }
        for (mi, _) in &report.tainted_critical {
            prop_assert!(*mi < report.markings.len());
        }
    }

    /// Benign numeric inputs in numeric position never flag.
    #[test]
    fn numeric_inputs_are_benign(id in 0i64..1_000_000) {
        let input = id.to_string();
        let query = format!("SELECT * FROM data WHERE ID={id} LIMIT 5");
        let report = analyzer(0.2).analyze(&[&input], &query);
        prop_assert!(!report.is_attack(), "{report:?}");
    }

    /// A verbatim tautology payload is always detected, whatever the
    /// numeric dressing.
    #[test]
    fn verbatim_tautology_detected(id in 0i64..1000, rhs in 1i64..1000) {
        let payload = format!("{id} OR {rhs}={rhs}");
        let query = format!("SELECT * FROM data WHERE ID={payload}");
        let report = analyzer(0.2).analyze(&[&payload], &query);
        prop_assert!(report.is_attack(), "{payload}: {report:?}");
    }

    /// Markings (and hence detections) are monotone in the threshold: any
    /// attack found at a low threshold is still found at a higher one
    /// (for thresholds below the 0.5 degeneracy point).
    #[test]
    fn detection_monotone_in_threshold(id in 0i64..100, quotes in 0usize..12) {
        let stuffed = format!("{id}/*{}*/OR 1=1", "'".repeat(quotes));
        let in_query = stuffed.replace('\'', "\\'");
        let query = format!("SELECT * FROM data WHERE ID={in_query}");
        let low = analyzer(0.10).analyze(&[&stuffed], &query).is_attack();
        let high = analyzer(0.40).analyze(&[&stuffed], &query).is_attack();
        prop_assert!(!low || high, "detected at 0.10 but not at 0.40");
    }

    /// The no-combination rule: splitting a payload across inputs so no
    /// single input covers a whole critical token never flags.
    #[test]
    fn split_payloads_never_flag(id in 0i64..1000) {
        // `OR` and `TRUE` are each split across the two inputs.
        let q1 = format!("{id} O");
        let q2 = "R TRUE".to_string();
        let query = format!("SELECT * FROM data WHERE ID={id} OR TRUE");
        // q2 covers "R TRU"? give NTI only fragments that split criticals:
        let report = analyzer(0.2).analyze(&[&q1, "R TR", "UE"], &query);
        prop_assert!(!report.is_attack(), "{report:?}");
        let _ = q2;
    }

    /// Inputs below the minimum length are ignored entirely.
    #[test]
    fn short_inputs_ignored(c in "[a-zA-Z]") {
        let query = format!("SELECT * FROM data WHERE name='{c}' OR 1=1");
        let report = analyzer(0.2).analyze(&[&c], &query);
        prop_assert!(report.markings.is_empty());
    }

    /// Case normalization: detection is invariant under input case when
    /// normalize_case is on.
    #[test]
    fn case_invariant(id in 0i64..100) {
        let payload = format!("{id} or 1=1");
        let upper = payload.to_uppercase();
        let q_lower = format!("SELECT * FROM data WHERE ID={payload}");
        let q_upper = format!("SELECT * FROM data WHERE ID={upper}");
        let a = analyzer(0.2).analyze(&[&upper], &q_lower).is_attack();
        let b = analyzer(0.2).analyze(&[&payload], &q_upper).is_attack();
        prop_assert_eq!(a, b);
    }

    /// The q-gram prefilter is purely an optimization: markings, tainted
    /// critical tokens and verdicts with and without it agree, at the
    /// default threshold and at strict ones where the prefilter skips
    /// most.
    #[test]
    fn prefilter_never_changes_verdict(
        inputs in proptest::collection::vec("[ -~]{0,40}", 1..4),
        query in "[ -~]{0,80}",
        t_idx in 0usize..3,
    ) {
        let threshold = [0.05, 0.10, 0.20][t_idx];
        let refs: Vec<&str> = inputs.iter().map(String::as_str).collect();
        let with = NtiAnalyzer::new(NtiConfig {
            threshold, qgram_prefilter: true, ..NtiConfig::default()
        });
        let without = NtiAnalyzer::new(NtiConfig {
            threshold, qgram_prefilter: false, ..NtiConfig::default()
        });
        let (a, b) = (with.analyze(&refs, &query), without.analyze(&refs, &query));
        prop_assert_eq!(&a.markings, &b.markings);
        prop_assert_eq!(&a.tainted_critical, &b.tainted_critical);
        prop_assert_eq!(a.is_attack(), b.is_attack());
    }

    /// Same, on inputs that really occur in the query (lightly edited by
    /// an app transformation), so markings fire and the prefilter must
    /// let them through.
    #[test]
    fn prefilter_never_changes_embedded_markings(
        payload in "[a-z0-9 '=()_,]{3,60}",
        noise in "[ -~]{0,40}",
        escape in 0usize..2,
        t_idx in 0usize..3,
    ) {
        let threshold = [0.05, 0.10, 0.20][t_idx];
        let in_query =
            if escape == 1 { payload.replace('\'', "\\'") } else { payload.replace("  ", " ") };
        let query = format!("SELECT * FROM t WHERE c='{in_query}' AND d='{noise}'");
        let refs = [payload.as_str(), noise.as_str()];
        let with = NtiAnalyzer::new(NtiConfig { threshold, ..NtiConfig::default() });
        let without = NtiAnalyzer::new(NtiConfig {
            threshold, qgram_prefilter: false, ..NtiConfig::default()
        });
        let (a, b) = (with.analyze(&refs, &query), without.analyze(&refs, &query));
        prop_assert_eq!(&a.markings, &b.markings);
        prop_assert_eq!(&a.tainted_critical, &b.tainted_critical);
    }

    /// The bit-parallel kernel is verdict- AND span-identical to Classic:
    /// the full reports (markings, tainted criticals, skip/run counters)
    /// must be equal on arbitrary inputs, queries, and thresholds.
    #[test]
    fn kernels_produce_identical_reports(
        inputs in proptest::collection::vec("[ -~]{0,50}", 0..4),
        query in "[ -~]{0,120}",
        t_idx in 0usize..4,
    ) {
        let threshold = [0.05, 0.20, 0.35, 0.60][t_idx];
        let refs: Vec<&str> = inputs.iter().map(String::as_str).collect();
        let classic = NtiAnalyzer::new(NtiConfig {
            threshold, kernel: MatchKernel::Classic, ..NtiConfig::default()
        });
        let fast = NtiAnalyzer::new(NtiConfig {
            threshold, kernel: MatchKernel::BitParallel, ..NtiConfig::default()
        });
        prop_assert_eq!(classic.analyze(&refs, &query), fast.analyze(&refs, &query));
    }

    /// Same report identity on payload-like inputs embedded (with an app
    /// transformation) in realistic queries — the path where markings
    /// actually fire, including inputs longer than one 64-bit word.
    #[test]
    fn kernels_identical_on_embedded_payloads(
        column in "[a-z_]{1,12}",
        payload in "[a-z0-9 '=()_,]{3,90}",
        escape in 0usize..2,
    ) {
        let in_query =
            if escape == 1 { payload.replace('\'', "\\'") } else { payload.replace("  ", " ") };
        let query = format!("SELECT * FROM t WHERE {column}='{in_query}' LIMIT 3");
        let classic = NtiAnalyzer::new(NtiConfig {
            kernel: MatchKernel::Classic, ..NtiConfig::default()
        });
        let fast = NtiAnalyzer::new(NtiConfig {
            kernel: MatchKernel::BitParallel, ..NtiConfig::default()
        });
        prop_assert_eq!(
            classic.analyze(&[&payload], &query),
            fast.analyze(&[&payload], &query)
        );
    }
}

/// Regression: the paper's Figure 2 walkthrough.
#[test]
fn figure2_walkthrough() {
    let nti = NtiAnalyzer::new(NtiConfig::default());

    // Part A: benign.
    let r = nti.analyze(&["1"], "SELECT * FROM data WHERE ID=1");
    assert!(!r.is_attack());

    // Part B: the tautology is marked and critical tokens are tainted.
    let r = nti.analyze(&["-1 OR 1 = 1"], "SELECT * FROM data WHERE ID=-1 OR 1 = 1");
    assert!(r.is_attack());

    // Part C: magic-quotes stuffing pushes the ratio past the threshold.
    let input = "-1 OR/*'''''*/1=1";
    let in_query = input.replace('\'', "\\'");
    let q = format!("SELECT * FROM data WHERE ID={in_query}");
    let r = nti.analyze(&[input], &q);
    assert!(!r.is_attack(), "stuffed payload must evade: {r:?}");
}
