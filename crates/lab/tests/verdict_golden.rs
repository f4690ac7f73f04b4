//! Golden recording of the engine's verdicts and served responses.
//!
//! The corpus is the benign WordPress crawl (front page, every post,
//! search), a comment post, and every plugin route and CMS case study
//! with its benign value and its primary exploit. The engine is fully
//! loaded — installer vocabulary, static query models and the
//! statically-proven taint-free routes — so every pipeline stage is
//! live.
//!
//! For every query the unprotected server issues, the route, the SQL
//! and the `Debug` rendering of the session verdict are recorded: safe
//! flag, detector, NTI/PTI raw verdicts, the stage trace with its
//! generation, and the structural-anomaly flag. For every request
//! served through the engine, the blocking decision, the number of
//! executed queries and the response body are recorded.
//!
//! The recording must stay bit-identical to
//! `tests/golden/verdict_golden.txt`. Rewrite it with
//! `JOZA_BLESS_GOLDEN=1 cargo test -p joza-lab --test verdict_golden`
//! only for an intended change in what the engine decides or serves,
//! and say so in the change log.

use joza_core::{Joza, JozaConfig};
use joza_lab::verify::request_for;
use joza_lab::{build_lab, Lab};
use joza_sast::{app_query_models, taint_free_routes};
use joza_webapp::request::HttpRequest;
use std::fmt::Write as _;
use std::path::PathBuf;

/// Every kind of corpus traffic: benign core crawl, a comment post,
/// benign plugin requests, and every shipped primary exploit (plugins +
/// CMS case studies).
fn corpus_requests(lab: &Lab) -> Vec<HttpRequest> {
    let mut reqs = vec![HttpRequest::get("index")];
    for p in 1..=5 {
        reqs.push(HttpRequest::get("single-post").param("p", &p.to_string()));
    }
    reqs.push(HttpRequest::get("search").param("s", "lorem"));
    reqs.push(
        HttpRequest::post("post-comment")
            .param("comment_post_ID", "2")
            .param("author", "alice")
            .param("comment", "it's a nice post"),
    );
    for p in lab.plugins.iter().chain(lab.cms_cases.iter()) {
        reqs.push(request_for(p, &p.benign_value));
        reqs.push(request_for(p, p.exploit.primary_payload()));
    }
    reqs
}

/// Fully-loaded engine: query models for the model fast path plus the
/// statically-proven taint-free routes.
fn full_engine(lab: &Lab) -> Joza {
    Joza::installer(&lab.server.app, JozaConfig::optimized())
        .query_models(app_query_models(&lab.server.app))
        .taint_free_routes(taint_free_routes(&lab.server.app))
        .build()
}

#[test]
fn verdicts_and_responses_match_golden() {
    let mut lab = build_lab();
    let reqs = corpus_requests(&lab);
    let mut out = String::new();

    // Per-query verdicts: every statement the unprotected application
    // issues, checked in a session opened on its route with the
    // request's raw inputs.
    let joza = full_engine(&lab);
    let mut checked = 0u64;
    writeln!(out, "# verdicts").unwrap();
    for req in &reqs {
        lab.reset_database();
        let plain = lab.server.handle(req);
        for sql in &plain.queries {
            let mut session = joza.session_for(&req.path);
            for (_, name, value) in req.all_inputs() {
                session.capture_input(&name, &value);
            }
            let verdict = session.check(sql);
            writeln!(out, "{} | {sql}\n  {verdict:?}", req.path).unwrap();
            checked += 1;
        }
    }
    assert!(checked > 150, "corpus too small to be meaningful: {checked} queries");
    let stats = joza.stats();
    assert_eq!(stats.queries, checked);
    assert_eq!(stats.model_fast_hits + stats.static_hits + stats.full_checks, stats.queries);

    // Responses served through the engine.
    let joza = full_engine(&lab);
    writeln!(out, "# responses").unwrap();
    for req in &reqs {
        lab.reset_database();
        let resp = lab.server.handle_with(req, &joza);
        writeln!(
            out,
            "{} blocked={} executed={}\n  {:?}",
            req.path, resp.blocked, resp.executed, resp.body
        )
        .unwrap();
    }

    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/verdict_golden.txt");
    if std::env::var_os("JOZA_BLESS_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &out).unwrap();
        return;
    }
    let golden = std::fs::read_to_string(&path).expect("golden fixture missing");
    if golden != out {
        let (i, (want, got)) = golden
            .lines()
            .zip(out.lines())
            .enumerate()
            .find(|(_, (a, b))| a != b)
            .unwrap_or((golden.lines().count().min(out.lines().count()), ("<end>", "<end>")));
        panic!(
            "engine output diverged from the golden recording at line {}:\n  want: {want}\n  got:  {got}",
            i + 1
        );
    }
}
