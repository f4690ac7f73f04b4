#![warn(missing_docs)]
//! Negative taint inference (NTI) — §III-A of the Joza paper.
//!
//! NTI "infers taint markings by correlating application inputs with query
//! strings": for each captured input it finds the best approximate match
//! inside the intercepted query (Sellers semi-global alignment) and, when
//! the *difference ratio* — edit distance divided by matched-substring
//! length — falls below a threshold, marks that query span as negatively
//! tainted. An attack is reported when a tainted span fully covers at
//! least one critical token.
//!
//! Faithfully reproduced rules:
//!
//! * markings inferred from different inputs are **never combined**
//!   (payload-construction attacks must defeat NTI on a single input);
//! * very short inputs are skipped and a marking must cover at least one
//!   **whole SQL token** — both anti-false-positive measures from the
//!   paper;
//! * the threshold trades false positives (too high) against false
//!   negatives (too low); the paper's evasions exploit exactly this.
//!
//! Optimizations (§VI-B): a length plausibility check and a q-gram
//! lower-bound prefilter skip implausible input/query pairs before the
//! alignment runs. The prefilter's query profile is a fixed-size,
//! allocation-free presence set of hashed 3-grams, built lazily — only
//! for an input whose best possible bound, `⌈(|p|−2)/3⌉`, exceeds its
//! cutoff (at the default threshold, inputs of 12 bytes and more). Its
//! bound may be weaker than Ukkonen's exact multiset count but is never
//! above it, so a skip still implies that no span is within the cutoff:
//! markings and verdicts are the same with or without it. Critical tokens
//! (and, in [`NtiAnalyzer::analyze`], the lexing they need) are computed
//! only when some marking survives.
//!
//! # Examples
//!
//! ```
//! use joza_nti::{NtiAnalyzer, NtiConfig};
//!
//! let nti = NtiAnalyzer::new(NtiConfig::default());
//!
//! // Benign: the input only covers a numeric literal.
//! let r = nti.analyze(&["5"], "SELECT * FROM data WHERE ID=5");
//! assert!(!r.is_attack());
//!
//! // Tautology: the input covers the critical tokens `OR` and `=`.
//! let r = nti.analyze(&["-1 OR 1=1"], "SELECT * FROM data WHERE ID=-1 OR 1=1");
//! assert!(r.is_attack());
//! ```

use joza_sqlparse::critical::{critical_tokens, CriticalPolicy};
use joza_sqlparse::lexer::lex;
use joza_sqlparse::token::Token;
use joza_strmatch::myers::bounded_myers_substring_distance;
pub use joza_strmatch::myers::MatchKernel;
use joza_strmatch::normalize::to_lower;
use joza_strmatch::qgram::{self, QgramProfile};
use joza_strmatch::sellers::substring_distance;
use joza_strmatch::swar;
use std::borrow::Cow;
use std::cell::OnceCell;

/// Configuration for the NTI analyzer.
#[derive(Debug, Clone, PartialEq)]
pub struct NtiConfig {
    /// Maximum difference ratio for a match (§III-A). The paper's running
    /// example uses 20%.
    pub threshold: f64,
    /// Inputs shorter than this are ignored ("to alleviate false positives
    /// that would result from matching very short inputs").
    pub min_input_len: usize,
    /// Case-insensitive matching (applications commonly case-convert).
    pub normalize_case: bool,
    /// Use the q-gram lower bound to skip implausible comparisons (§VI-B).
    pub qgram_prefilter: bool,
    /// Which approximate-matching kernel runs the §III-A alignment. Both
    /// kernels produce bit-identical markings and verdicts;
    /// [`MatchKernel::BitParallel`] is the production default,
    /// [`MatchKernel::Classic`] is kept for the Fig. 7-style ablation.
    pub kernel: MatchKernel,
    /// Critical-token policy shared with PTI.
    pub critical: CriticalPolicy,
}

impl Default for NtiConfig {
    fn default() -> Self {
        NtiConfig {
            threshold: 0.20,
            min_input_len: 3,
            normalize_case: true,
            qgram_prefilter: true,
            kernel: MatchKernel::default(),
            critical: CriticalPolicy::default(),
        }
    }
}

/// One inferred negative-taint marking.
#[derive(Debug, Clone, PartialEq)]
pub struct TaintMark {
    /// Index of the input (in the order given to
    /// [`NtiAnalyzer::analyze`]) that produced this marking.
    pub input_index: usize,
    /// Tainted query byte span.
    pub start: usize,
    /// One past the end of the tainted span.
    pub end: usize,
    /// Edit distance between the input and the matched span.
    pub distance: usize,
    /// `distance / (end - start)`.
    pub diff_ratio: f64,
}

/// The outcome of one NTI analysis.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct NtiReport {
    /// All markings inferred (one per matching input at most).
    pub markings: Vec<TaintMark>,
    /// Critical tokens fully covered by some marking — the attack
    /// evidence. `(marking index, token)` pairs.
    pub tainted_critical: Vec<(usize, Token)>,
    /// Number of input/query comparisons skipped by the prefilters.
    pub comparisons_skipped: usize,
    /// Number of full alignment computations performed.
    pub comparisons_run: usize,
}

impl NtiReport {
    /// Whether NTI flags this query as an attack.
    pub fn is_attack(&self) -> bool {
        !self.tainted_critical.is_empty()
    }
}

/// A parse-once view of the query under analysis: the artifacts
/// [`NtiAnalyzer::analyze`] would otherwise derive itself, supplied by a
/// caller that shares them with the other detection stages.
#[derive(Clone, Copy)]
pub struct QueryView<'v> {
    /// The query bytes in the analyzer's match normalization: case-folded
    /// when [`NtiConfig::normalize_case`] is set, raw otherwise.
    pub normalized: &'v [u8],
    /// The query's critical tokens under the analyzer's
    /// [`NtiConfig::critical`] policy, on demand: called at most once per
    /// analysis, and only when some marking survives — a query no input
    /// marks is never lexed for NTI.
    pub criticals: &'v dyn Fn() -> &'v [Token],
}

impl std::fmt::Debug for QueryView<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("QueryView").field("normalized", &self.normalized).finish_non_exhaustive()
    }
}

/// The NTI analysis component.
#[derive(Debug, Clone, Default)]
pub struct NtiAnalyzer {
    config: NtiConfig,
}

/// Gram length of the q-gram prefilter.
const Q: usize = 3;

impl NtiAnalyzer {
    /// Creates an analyzer.
    pub fn new(config: NtiConfig) -> Self {
        NtiAnalyzer { config }
    }

    /// The analyzer's configuration.
    pub fn config(&self) -> &NtiConfig {
        &self.config
    }

    /// Analyzes one query against the captured raw inputs.
    ///
    /// Inputs are the *raw* request values (pre-transformation, §IV-B);
    /// markings from different inputs are never combined.
    pub fn analyze(&self, inputs: &[&str], query: &str) -> NtiReport {
        let query_bytes: Cow<'_, [u8]> = if self.config.normalize_case {
            to_lower(query.as_bytes())
        } else {
            Cow::Borrowed(query.as_bytes())
        };
        let criticals = OnceCell::new();
        let criticals = || {
            criticals
                .get_or_init(|| critical_tokens(query, &lex(query), &self.config.critical))
                .as_slice()
        };
        self.analyze_view(inputs, QueryView { normalized: &query_bytes, criticals: &criticals })
    }

    /// [`NtiAnalyzer::analyze`] over precomputed query artifacts — the
    /// parse-once entry point (see [`QueryView`]).
    ///
    /// Verdicts, markings, and counters are bit-identical to
    /// [`NtiAnalyzer::analyze`] when the view matches what that method
    /// would compute itself.
    pub fn analyze_view(&self, inputs: &[&str], view: QueryView<'_>) -> NtiReport {
        self.analyze_view_with(inputs, view, &mut Vec::new())
    }

    /// [`NtiAnalyzer::analyze_view`] with a caller-owned case-folding
    /// scratch buffer: when [`NtiConfig::normalize_case`] is set and an
    /// input actually contains uppercase ASCII, its folded copy is built
    /// in `fold_scratch` instead of a fresh allocation. The engine
    /// passes a buffer leased from its per-thread check arena, making
    /// the per-input loop allocation-free at steady state. Verdicts are
    /// bit-identical to [`NtiAnalyzer::analyze_view`].
    pub fn analyze_view_with(
        &self,
        inputs: &[&str],
        view: QueryView<'_>,
        fold_scratch: &mut Vec<u8>,
    ) -> NtiReport {
        let mut report = NtiReport::default();
        let query_bytes = view.normalized;
        // Built on first need: only an input whose best possible bound
        // beats its cutoff can be skipped by it.
        let mut profile: Option<QgramProfile> = None;

        for (idx, input) in inputs.iter().enumerate() {
            if input.len() < self.config.min_input_len {
                continue;
            }
            let bytes = input.as_bytes();
            let input_bytes: &[u8] = match if self.config.normalize_case {
                swar::first_ascii_upper(bytes)
            } else {
                None
            } {
                Some(first) => {
                    fold_scratch.clear();
                    fold_scratch.extend_from_slice(&bytes[..first]);
                    swar::fold_lower_into(&bytes[first..], fold_scratch);
                    fold_scratch
                }
                None => bytes,
            };
            // Allowed distance bound: ratio < t with matched_len <= |p| + d
            // implies d < t·|p| / (1 − t).
            let t = self.config.threshold;
            let cutoff = ((t * input_bytes.len() as f64) / (1.0 - t)).ceil() as usize;
            if !qgram::length_plausible(input_bytes.len(), query_bytes.len(), cutoff) {
                report.comparisons_skipped += 1;
                continue;
            }
            if self.config.qgram_prefilter && qgram::max_bound(input_bytes.len(), Q) > cutoff {
                let profile = profile.get_or_insert_with(|| QgramProfile::new(query_bytes, Q));
                if profile.lower_bound(input_bytes) > cutoff {
                    report.comparisons_skipped += 1;
                    continue;
                }
            }
            report.comparisons_run += 1;
            let m = match self.config.kernel {
                MatchKernel::Classic => Some(substring_distance(input_bytes, query_bytes)),
                MatchKernel::BitParallel => {
                    // Any span that survives the ratio filter below has
                    // distance d < t·|p|/(1−t) ≤ cutoff, so a `None` here
                    // and a filtered-out Classic match are the same
                    // verdict. Outside t ∈ (0,1) the cutoff formula is
                    // meaningless; fall back to the unbounded scan
                    // (distances never exceed |p|).
                    let k = if t > 0.0 && t < 1.0 { cutoff } else { input_bytes.len() };
                    bounded_myers_substring_distance(input_bytes, query_bytes, k)
                }
            };
            let Some(m) = m else {
                continue;
            };
            if m.is_empty() || m.diff_ratio() >= t {
                continue;
            }
            report.markings.push(TaintMark {
                input_index: idx,
                start: m.start,
                end: m.end,
                distance: m.distance,
                diff_ratio: m.diff_ratio(),
            });
        }

        // Whole-token rule + critical coverage: the critical tokens fully
        // inside each marking, marking by marking.
        if !report.markings.is_empty() {
            let criticals = (view.criticals)();
            for (mark_idx, mark) in report.markings.iter().enumerate() {
                for c in criticals {
                    if c.start >= mark.start && c.end <= mark.end {
                        report.tainted_critical.push((mark_idx, *c));
                    }
                }
            }
        }
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nti() -> NtiAnalyzer {
        NtiAnalyzer::new(NtiConfig::default())
    }

    #[test]
    fn fig2a_benign_input_safe() {
        // Part A of Figure 2: input 5 appears in the query but covers no
        // critical token.
        let r = nti().analyze(&["5"], "SELECT * FROM data WHERE ID=5");
        assert!(!r.is_attack());
    }

    #[test]
    fn fig2b_tautology_detected() {
        // Part B of Figure 2: `-1 OR 1 = 1`.
        let q = "SELECT * FROM data WHERE ID=-1 OR 1 = 1";
        let r = nti().analyze(&["-1 OR 1 = 1"], q);
        assert!(r.is_attack());
        // The markings pinpoint `OR` (and `=`).
        assert!(!r.tainted_critical.is_empty());
    }

    #[test]
    fn fig2c_magic_quotes_evasion_succeeds() {
        // Part C of Figure 2: enough escaped quotes drive the difference
        // ratio above the threshold — NTI misses the attack.
        let input = "-1'OR/*''''''''*/1=1-- -";
        let escaped = input.replace('\'', "\\'");
        let q = format!("SELECT * FROM data WHERE ID='{escaped}'");
        let r = nti().analyze(&[input], &q);
        assert!(!r.is_attack(), "quote-stuffing must evade NTI: {r:?}");
    }

    #[test]
    fn small_transformation_still_detected() {
        // The application collapses double spaces; two removed bytes over
        // a long payload keep the ratio small and the attack visible.
        let input = "-1  UNION  SELECT user_pass FROM wp_users";
        let transformed = input.replace("  ", " ");
        let q = format!("SELECT * FROM posts WHERE id={transformed}");
        let r = nti().analyze(&[input], &q);
        assert!(r.is_attack(), "{r:?}");
    }

    #[test]
    fn union_attack_detected() {
        let payload = "-1 UNION SELECT username()";
        let q = format!("SELECT * FROM records WHERE ID={payload} LIMIT 5");
        let r = nti().analyze(&[payload], &q);
        assert!(r.is_attack());
    }

    #[test]
    fn payload_construction_evades() {
        // §III-A: q1/q2/q3 concatenated inside the application; no single
        // input matches the final payload well enough.
        let q = "SELECT * FROM data WHERE ID=1 OR TRUE";
        let r = nti().analyze(&["1 OR 1=1", "R TR", "UE"], q);
        // "1 OR 1=1" has distance >= 4 to any substring ("1 OR TRUE"
        // region) — above threshold; short fragments are skipped or match
        // non-critical spans only.
        assert!(!r.is_attack(), "{r:?}");
    }

    #[test]
    fn markings_not_combined_across_inputs() {
        // Two inputs that each cover part of `OR` must not merge.
        let q = "SELECT * FROM t WHERE a=1 OR b=2";
        let r = nti().analyze(&["1 O", "R b"], q);
        assert!(!r.is_attack());
    }

    #[test]
    fn short_inputs_skipped() {
        let q = "SELECT * FROM t WHERE a=1 OR b=2";
        let r = nti().analyze(&["OR"], q);
        assert!(!r.is_attack());
        assert!(r.markings.is_empty());
    }

    #[test]
    fn base64_transformation_evades() {
        // Table II: the one plugin NTI missed base64-decodes its input.
        let raw = "LTEgVU5JT04gU0VMRUNUIHVzZXJuYW1lKCk="; // "-1 UNION SELECT username()"
        let q = "SELECT * FROM t WHERE id=-1 UNION SELECT username()";
        let r = nti().analyze(&[raw], q);
        assert!(!r.is_attack());
    }

    #[test]
    fn whitespace_padding_evades() {
        // Appending whitespace the app trims raises the distance.
        let payload = "-1 OR 1=1";
        let padded = format!("{payload}{}", " ".repeat(12));
        let q = format!("SELECT * FROM t WHERE id={payload}");
        let r = nti().analyze(&[padded.as_str()], &q);
        assert!(!r.is_attack(), "{r:?}");
    }

    #[test]
    fn case_insensitive_matching() {
        let q = "SELECT * FROM t WHERE id=-1 union select 1";
        let r = nti().analyze(&["-1 UNION SELECT 1"], q);
        assert!(r.is_attack());
    }

    #[test]
    fn threshold_sensitivity() {
        // App collapses double spaces: distance 2 over a ~40-byte match,
        // ratio ≈ 0.05 — detected at 0.20, missed at 0.03. "Setting the
        // threshold value too low yields too few taint markings, which
        // causes false negatives" (§III-A).
        let input = "-1  UNION  SELECT user_pass FROM wp_users";
        let transformed = input.replace("  ", " ");
        let q = format!("SELECT * FROM posts WHERE id={transformed}");
        let strict = NtiAnalyzer::new(NtiConfig { threshold: 0.03, ..Default::default() });
        assert!(!strict.analyze(&[input], &q).is_attack());
        let loose = NtiAnalyzer::new(NtiConfig { threshold: 0.20, ..Default::default() });
        assert!(loose.analyze(&[input], &q).is_attack());
    }

    #[test]
    fn prefilter_skips_unrelated_inputs() {
        let q = "SELECT option_value FROM wp_options WHERE option_name='siteurl'";
        let inputs = ["totally unrelated gibberish zzzz", "another unrelated thing qqqq"];
        let r = nti().analyze(&inputs, q);
        assert!(!r.is_attack());
        assert!(r.comparisons_skipped >= 1, "{r:?}");
    }

    #[test]
    fn prefilter_does_not_change_verdict() {
        let cases: Vec<(&str, &str)> = vec![
            ("-1 OR 1=1", "SELECT * FROM t WHERE id=-1 OR 1=1"),
            ("benign", "SELECT * FROM t WHERE name='benign'"),
            ("no match here", "SELECT 1"),
        ];
        for (input, q) in cases {
            let with = NtiAnalyzer::new(NtiConfig { qgram_prefilter: true, ..Default::default() });
            let without =
                NtiAnalyzer::new(NtiConfig { qgram_prefilter: false, ..Default::default() });
            assert_eq!(
                with.analyze(&[input], q).is_attack(),
                without.analyze(&[input], q).is_attack(),
                "{input} / {q}"
            );
        }
    }

    #[test]
    fn degenerate_thresholds_do_not_panic() {
        // t ≥ 1 makes the cutoff ∞ (saturating to usize::MAX) or
        // negative (saturating to 0); neither may overflow the length
        // check, the prefilter or the kernels.
        let q = "SELECT * FROM t WHERE name='-1 OR 1=1' AND id=42 LIMIT 5";
        let inputs = ["-1 OR 1=1", "an input of more than twelve bytes", "42"];
        for threshold in [0.0, 0.999, 1.0, 1.5] {
            for kernel in [MatchKernel::Classic, MatchKernel::BitParallel] {
                let nti = NtiAnalyzer::new(NtiConfig { threshold, kernel, ..Default::default() });
                let r = nti.analyze(&inputs, q);
                if threshold == 0.0 {
                    assert!(r.markings.is_empty(), "{r:?}");
                }
            }
        }
    }

    #[test]
    fn empty_inputs_and_query() {
        let r = nti().analyze(&[], "SELECT 1");
        assert!(!r.is_attack());
        let r = nti().analyze(&["payload"], "");
        assert!(!r.is_attack());
    }

    #[test]
    fn tainted_critical_is_marking_major() {
        // The first input marks the later span: its criticals come first.
        let q = "SELECT * FROM t WHERE a=-1 OR 2=2 AND b=3 UNION SELECT pass FROM users";
        let r = nti().analyze(&["3 UNION SELECT pass FROM users", "-1 OR 2=2"], q);
        let order: Vec<(usize, &str)> =
            r.tainted_critical.iter().map(|(m, t)| (*m, &q[t.range()])).collect();
        let want = [(0, "UNION"), (0, "SELECT"), (0, "FROM"), (1, "-"), (1, "OR"), (1, "=")];
        assert_eq!(order, want, "{r:?}");
    }

    #[test]
    fn cookie_style_second_input_detected() {
        // Attack delivered via the second input (e.g. a cookie).
        let payload = "' OR '1'='1";
        let q = format!("SELECT * FROM users WHERE session='{payload}'");
        let r = nti().analyze(&["benign", payload], &q);
        assert!(r.is_attack());
        assert_eq!(r.markings[r.tainted_critical[0].0].input_index, 1);
    }
}
