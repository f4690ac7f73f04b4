//! Golden differential over negative taint inference.
//!
//! Every `(inputs, query)` pair the testbed hands the gate is recorded
//! through an allow-all recording gate, and the NTI report of each
//! distinct pair is pinned: `markings`, `tainted_critical` and
//! `is_attack`, at the default threshold and at a strict one. The
//! comparison counters are left out on purpose — they describe how much
//! work the prefilters saved, not what NTI concluded. The pairs come
//! from:
//!
//! * the WordPress crawl (front page, every post, search) and comment
//!   posts;
//! * all 53 lab routes, each with its benign value and every exploit
//!   payload (leak, both boolean, both timing);
//! * the quote-stuffing / whitespace-padding NTI-evasion mutants and the
//!   Taintless PTI-evasion mutants of every route;
//! * the second-order two-phase flows (benign, exploit and evasive plant
//!   and trigger), whose triggers carry DB-sourced inputs captured from
//!   dirty cells.
//!
//! Beside the recording, every pair is also checked three ways: the
//! Classic kernel and the prefilter-off analyzer must produce the same
//! markings and critical tokens as the default analyzer, and an
//! NTI-only engine checking the pair must reach the same verdict. So
//! the recording pins `NtiAnalyzer::analyze`, and the engine's NTI stage
//! is tied to it.
//!
//! Rewrite the fixture with
//! `JOZA_BLESS_GOLDEN=1 cargo test -p joza-lab --test nti_golden` only
//! for an intended change in what NTI infers, and say so in the change
//! log.

use joza_core::{Joza, JozaConfig};
use joza_lab::corpus::{Exploit, VulnPlugin};
use joza_lab::nti_evasion::mutate_for_nti;
use joza_lab::second_order::{build_second_order_lab, SecondOrderLab};
use joza_lab::taintless::evade_pti;
use joza_lab::verify::request_for;
use joza_nti::{MatchKernel, NtiAnalyzer, NtiConfig, NtiReport};
use joza_phpsim::fragments::FragmentSet;
use joza_pti::analyzer::{PtiAnalyzer, PtiConfig};
use joza_webapp::gate::{GateDecision, GateFactory, GateSession, RawInput};
use joza_webapp::request::HttpRequest;
use std::collections::HashSet;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::sync::Mutex;

/// One `(inputs, query)` pair as the gate saw it.
type Pair = (Vec<String>, String);

/// An allow-all gate that records every check. Inputs are kept in the
/// engine's order: the request's raw inputs, then DB-sourced values
/// captured from dirty cells. Dirty-cell membership is the persistence-
/// aware engine's, so second-order triggers carry the inputs the real
/// gate would see.
struct Recorder<'e> {
    dirty: &'e Joza,
    pairs: Mutex<Vec<Pair>>,
}

struct RecordingSession<'a, 'e> {
    recorder: &'a Recorder<'e>,
    inputs: Vec<String>,
}

impl GateFactory for Recorder<'_> {
    fn session<'a>(&'a self, _route: &str, inputs: &[RawInput]) -> Box<dyn GateSession + 'a> {
        let inputs = inputs.iter().map(|i| i.value.clone()).collect();
        Box::new(RecordingSession { recorder: self, inputs })
    }
}

impl GateSession for RecordingSession<'_, '_> {
    fn check(&mut self, sql: &str) -> GateDecision {
        self.recorder.pairs.lock().unwrap().push((self.inputs.clone(), sql.to_string()));
        GateDecision::Allow
    }

    fn dirty_cell(&self, table: &str, column: &str) -> bool {
        self.recorder.dirty.session().is_dirty_cell(table, column)
    }

    fn capture_db_input(&mut self, _table: &str, _column: &str, value: &str) {
        self.inputs.push(value.to_string());
    }
}

/// The analyzers and the engine each recorded pair is run through.
struct Checkers {
    /// `(label, analyzer)` — the recorded configurations.
    recorded: Vec<(&'static str, NtiAnalyzer)>,
    /// Must agree with the first recorded analyzer on markings and
    /// critical tokens.
    classic: NtiAnalyzer,
    unfiltered: NtiAnalyzer,
    /// NTI-only engine: its NTI verdict must match the default analyzer.
    engine: Joza,
}

impl Checkers {
    fn new(so: &SecondOrderLab) -> Checkers {
        let at = |threshold| NtiAnalyzer::new(NtiConfig { threshold, ..NtiConfig::default() });
        Checkers {
            recorded: vec![("t=0.20", at(0.20)), ("t=0.05", at(0.05))],
            classic: NtiAnalyzer::new(NtiConfig {
                kernel: MatchKernel::Classic,
                ..NtiConfig::default()
            }),
            unfiltered: NtiAnalyzer::new(NtiConfig {
                qgram_prefilter: false,
                ..NtiConfig::default()
            }),
            engine: Joza::install(&so.lab.server.app, JozaConfig::nti_only()),
        }
    }
}

/// The verdict-bearing part of a report.
fn evidence(r: &NtiReport) -> String {
    format!("attack={} markings={:?} critical={:?}", r.is_attack(), r.markings, r.tainted_critical)
}

struct Golden<'e> {
    so: SecondOrderLab,
    recorder: Recorder<'e>,
    checkers: &'e Checkers,
    seen: HashSet<Pair>,
    out: String,
}

impl Golden<'_> {
    /// Serves `req` through the recorder and records the NTI evidence of
    /// every pair not seen before.
    fn serve(&mut self, label: &str, req: &HttpRequest) {
        self.so.lab.server.handle_with(req, &self.recorder);
        let pairs = std::mem::take(&mut *self.recorder.pairs.lock().unwrap());
        writeln!(self.out, "## {label}").unwrap();
        for pair in pairs {
            if !self.seen.insert(pair.clone()) {
                continue;
            }
            let (inputs, sql) = &pair;
            let refs: Vec<&str> = inputs.iter().map(String::as_str).collect();
            writeln!(self.out, "> {sql}\n< {refs:?}").unwrap();
            let c = self.checkers;
            let reports: Vec<NtiReport> =
                c.recorded.iter().map(|(_, nti)| nti.analyze(&refs, sql)).collect();
            for ((name, _), report) in c.recorded.iter().zip(&reports) {
                writeln!(self.out, "{name} {}", evidence(report)).unwrap();
            }
            let want = evidence(&reports[0]);
            for (name, other) in [("classic", &c.classic), ("prefilter-off", &c.unfiltered)] {
                assert_eq!(
                    evidence(&other.analyze(&refs, sql)),
                    want,
                    "[{label}] {name} analyzer disagrees on {sql:?} / {refs:?}"
                );
            }
            assert_eq!(
                c.engine.check_query(&refs, sql).nti_attack(),
                Some(reports[0].is_attack()),
                "[{label}] engine NTI stage disagrees with the analyzer on {sql:?} / {refs:?}"
            );
        }
    }
}

fn exploit_values(exploit: &Exploit) -> Vec<(&'static str, String)> {
    match exploit {
        Exploit::Leak { payload, .. } => vec![("leak", payload.clone())],
        Exploit::BooleanDiff { true_payload, false_payload } => {
            vec![("boolean true", true_payload.clone()), ("boolean false", false_payload.clone())]
        }
        Exploit::TimingDiff { slow_payload, fast_payload, .. } => {
            vec![("timing slow", slow_payload.clone()), ("timing fast", fast_payload.clone())]
        }
    }
}

fn record_wordpress(g: &mut Golden) {
    g.serve("wp index", &HttpRequest::get("index"));
    for p in 1..=41 {
        g.serve(
            &format!("wp single-post {p}"),
            &HttpRequest::get("single-post").param("p", &p.to_string()),
        );
    }
    for s in ["lorem", "Post number 1", "o'brien", "%"] {
        g.serve(&format!("wp search {s}"), &HttpRequest::get("search").param("s", s));
    }
    let comments = [
        ("2", "alice", "nice post"),
        ("3", "o'brien", "it's great, isn't it?"),
        ("5", "Bob", "Nice Post"),
        ("10", "carol", "comment on a draft"),
        ("41", "dave", "comment on a missing post"),
        ("7", "visitor12", "[c0 p0 #1] great post really liked the part about joza"),
        ("7", "visitor12", "[c0 p0 #2] thanks for the taint inference fragments"),
    ];
    for (i, (post, author, text)) in comments.iter().enumerate() {
        let req = HttpRequest::post("post-comment")
            .param("comment_post_ID", post)
            .param("author", author)
            .param("comment", text);
        g.serve(&format!("wp comment #{i}"), &req);
    }
    g.so.reset_database();
}

fn record_lab_routes(g: &mut Golden) {
    let plugins: Vec<VulnPlugin> =
        g.so.lab.plugins.iter().chain(&g.so.lab.cms_cases).cloned().collect();
    assert_eq!(plugins.len(), 53);
    let mut fragments = FragmentSet::new();
    for src in g.so.lab.server.app.all_sources() {
        fragments.add_source(src);
    }
    let pti = PtiAnalyzer::from_fragments(fragments.iter(), PtiConfig::default());
    for p in &plugins {
        let mut values = vec![("benign".to_string(), p.benign_value.clone())];
        let mut add = |tag: &str, exploit: &Exploit| {
            values
                .extend(exploit_values(exploit).into_iter().map(|(k, v)| (format!("{tag}{k}"), v)));
        };
        add("", &p.exploit);
        add("nti-mutant ", &mutate_for_nti(p, 0.20));
        if let Some(evasion) = evade_pti(&mut g.so.lab.server, p, &pti) {
            add("taintless ", &evasion.mutated);
        }
        g.so.reset_database();
        for (kind, value) in &values {
            g.serve(&format!("{} {kind}", p.slug), &request_for(p, value));
        }
        g.so.reset_database();
    }
}

fn record_second_order(g: &mut Golden) {
    let cases = g.so.cases.clone();
    assert_eq!(cases.len(), 4);
    for case in &cases {
        let evasive = case.evasive_variant();
        let flows = [
            ("benign", case.benign_plant_request(), case.trigger_request()),
            ("exploit", case.exploit_plant_request(), case.trigger_request()),
            ("evasive", evasive.exploit_plant_request(), evasive.trigger_request()),
        ];
        for (kind, plant, trigger) in &flows {
            let label = format!("{:?} {kind}", case.class);
            g.serve(&format!("{label} plant"), plant);
            g.serve(&format!("{label} trigger"), trigger);
            g.so.reset_database();
        }
    }
}

fn fixture_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/nti_golden.txt")
}

#[test]
fn nti_reports_match_the_golden_recording() {
    let so = build_second_order_lab();
    let report = joza_sast::analyze_store_flow(&so.lab.server.app);
    let dirty = Joza::installer(&so.lab.server.app, JozaConfig::nti_only())
        .dirty_cells(report.dirty_cells())
        .build();
    let checkers = Checkers::new(&so);
    let mut g = Golden {
        so,
        recorder: Recorder { dirty: &dirty, pairs: Mutex::new(Vec::new()) },
        checkers: &checkers,
        seen: HashSet::new(),
        out: String::new(),
    };
    record_wordpress(&mut g);
    record_lab_routes(&mut g);
    record_second_order(&mut g);

    let path = fixture_path();
    if std::env::var_os("JOZA_BLESS_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &g.out).unwrap();
        return;
    }
    let golden = std::fs::read_to_string(&path).expect("golden fixture missing");
    if golden != g.out {
        let (i, (want, got)) = golden
            .lines()
            .zip(g.out.lines())
            .enumerate()
            .find(|(_, (a, b))| a != b)
            .unwrap_or((golden.lines().count().min(g.out.lines().count()), ("<end>", "<end>")));
        panic!(
            "NTI output diverged from the golden recording at line {}:\n  want: {want}\n  got:  {got}",
            i + 1
        );
    }
}
