//! The benchmark's own checks: seeded inputs reproduce, wp-write never
//! repeats a comment, tracing changes no response or verdict, the timing
//! wrapper keeps second-order capture, the modeled-cost guard bites, and
//! `rps` ignores a stall that hits a minority of passes.

use crate::setup::{self, check_no_modeled_cost, deploy};
use crate::trace::{SessionCapture, TimingGate};
use crate::workload::{Plan, Workload, ATTACK_BLOCK};
use joza_core::{Joza, JozaConfig, JozaStats};
use joza_webapp::gate::{GateDecision, GateFactory, RawInput};
use joza_webapp::request::InputSource;
use joza_webapp::server::Response;
use std::collections::{BTreeMap, HashSet};
use std::time::Duration;

#[test]
fn seed_reproduces_its_request_streams() {
    for w in Workload::ALL {
        let a = Plan::new(w, 42, setup::CLIENTS);
        let b = Plan::new(w, 42, setup::CLIENTS);
        let other = Plan::new(w, 43, setup::CLIENTS);
        for client in 0..setup::CLIENTS {
            for pass in 0..3 {
                assert_eq!(a.stream(client, pass), b.stream(client, pass), "{}", w.name());
            }
            assert_ne!(a.stream(client, 0), other.stream(client, 0), "{}", w.name());
        }
        assert_ne!(a.stream(0, 0), a.stream(1, 0), "clients share a stream: {}", w.name());
    }
}

#[test]
fn wp_write_never_repeats_a_comment_body() {
    let plan = Plan::new(Workload::WpWrite, 7, setup::CLIENTS);
    let mut seen = HashSet::new();
    for client in 0..setup::CLIENTS {
        for pass in 0..200 {
            for planned in plan.stream(client, pass) {
                let body = planned.request.post.iter().find(|(k, _)| k == "comment");
                let body = body.expect("comment parameter").1.clone();
                assert!(seen.insert(body.clone()), "repeated comment body {body}");
            }
        }
    }
}

#[test]
fn lab_attack_sends_each_exploit_once_per_block() {
    let plan = Plan::new(Workload::LabAttack, 9, setup::CLIENTS);
    let stream = plan.stream(0, 0);
    let mut per_route: BTreeMap<&str, (usize, usize)> = BTreeMap::new();
    for planned in &stream {
        let e = per_route.entry(planned.request.path.as_str()).or_default();
        e.0 += 1;
        e.1 += usize::from(planned.attack);
    }
    assert_eq!(per_route.len(), 53);
    assert!(per_route.values().all(|&(n, attacks)| n == ATTACK_BLOCK && attacks == 1));
}

#[test]
fn deployments_have_wordpress_scale_and_no_modeled_cost() {
    let mut d = deploy(Workload::WpRead);
    assert_eq!(d.engine.fragment_count(), 13_593);
    assert_eq!(d.labs.len(), setup::CLIENTS);
    assert_eq!(check_no_modeled_cost(&d), Ok(()));

    let plugin = d.labs[1].server.app.plugin_mut("single-post").expect("core route");
    plugin.render_cost = Duration::from_micros(10);
    let err = check_no_modeled_cost(&d).expect_err("a render cost must be refused");
    assert!(err.contains("client1.single-post.render_cost"), "{err}");
}

/// The parts of a response that do not depend on timing.
fn observable(r: &Response) -> (String, bool, Vec<String>, usize, u64, Option<String>) {
    (r.body.clone(), r.blocked, r.queries.clone(), r.executed, r.db_time_ms, r.sql_error.clone())
}

/// The verdict counters of engine statistics (no times).
fn verdicts(s: &JozaStats) -> Vec<u64> {
    let mut v = vec![
        s.queries,
        s.attacks,
        s.nti_detections,
        s.pti_detections,
        s.model_fast_hits,
        s.static_hits,
        s.full_checks,
        s.model_anomalies,
        s.route_misses_unknown,
        s.route_misses_incomplete,
    ];
    v.extend_from_slice(&s.stage_runs);
    v.extend_from_slice(&s.stage_hits);
    v
}

#[test]
fn traced_and_untraced_runs_agree() {
    for w in Workload::ALL {
        let plan = Plan::new(w, 5, setup::CLIENTS);
        let mut untraced = deploy(w);
        let mut traced = deploy(w);
        let tracer = TimingGate::new(&traced.engine);
        for pass in 0..2 {
            let stream = plan.stream(0, pass);
            untraced.labs[0].reset_database();
            traced.labs[0].reset_database();
            for planned in &stream {
                let a = untraced.labs[0].server.handle_with(&planned.request, &untraced.engine);
                let b = traced.labs[0].server.handle_with(&planned.request, &tracer);
                assert_eq!(observable(&a), observable(&b), "{}: {:?}", w.name(), planned.request);
                assert_eq!(a.blocked, planned.attack, "{}: {:?}", w.name(), planned.request);
            }
            let tally = tracer.take();
            assert_eq!(tally.captures.len(), stream.len());
            assert_eq!(tally.sessions, stream.len() as u64);
            for (planned, capture) in stream.iter().zip(&tally.captures) {
                let allowed =
                    capture.checks.iter().filter(|c| c.decision == GateDecision::Allow).count();
                let blocked = capture.checks.len() - allowed;
                assert_eq!(blocked > 0, planned.attack, "{}: {:?}", w.name(), planned.request);
            }
        }
        assert_eq!(verdicts(&untraced.engine.stats()), verdicts(&traced.engine.stats()));
    }
}

#[test]
fn timing_wrapper_keeps_second_order_capture() {
    // PTI is evaded (the vocabulary covers the tautology), so only NTI
    // can catch the stored payload, and only if the value captured from
    // the dirty cell reaches the engine's session.
    let engine = Joza::builder()
        .fragments(["id", "SELECT * FROM records WHERE ID=", " LIMIT 5", "OR", "=", "1"])
        .dirty_cells([("profiles", "bio")])
        .config(JozaConfig::optimized())
        .build();
    let tracer = TimingGate::new(&engine);
    let raw = [RawInput { source: InputSource::Get, name: "id".into(), value: "7".into() }];
    let payload = "1 OR 1 = 1";
    let query = format!("SELECT * FROM records WHERE ID={payload} LIMIT 5");

    let mut session = tracer.session("profile", &raw);
    assert!(session.dirty_cell("profiles", "bio"));
    assert!(!session.dirty_cell("profiles", "name"));
    session.capture_db_input("profiles", "bio", payload);
    assert_ne!(session.check(&query), GateDecision::Allow);
    drop(session);

    let mut session = tracer.session("profile", &raw);
    assert_eq!(session.check(&query), GateDecision::Allow, "PTI alone must miss it");
    drop(session);

    let tally = tracer.take();
    assert_eq!(tally.sessions, 2);
    let first: &SessionCapture = &tally.captures[0];
    assert_eq!(first.inputs, ["7", payload]);
    assert_eq!(first.checks[0].inputs, 2);
}

#[test]
fn rps_is_the_median_pass_summed_over_clients() {
    // Two clients, five passes of four requests. Every request takes 1 ms
    // at its median; a 50 ms stall hits one pass of each client.
    let ms = 1_000_000;
    let mut passes = vec![vec![ms; 4]; 5];
    passes[2][1] = 50 * ms;
    let mut other = passes.clone();
    other[2][1] = ms;
    other[4][3] = 50 * ms;
    let rps = crate::median_pass_rps([passes.as_slice(), other.as_slice()].into_iter());
    assert!((rps - 2_000.0).abs() < 1e-9, "{rps}");

    // A request that is slower in most passes moves the figure.
    for p in &mut passes[..3] {
        p[0] = 5 * ms;
    }
    let rps = crate::median_pass_rps([passes.as_slice(), other.as_slice()].into_iter());
    assert!((rps - (4_000.0 / 8.0 + 1_000.0)).abs() < 1e-9, "{rps}");
}
