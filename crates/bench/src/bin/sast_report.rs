//! Static taint-analysis report over the full WP-SQLI-LAB corpus.
//!
//! Runs `joza-sast` over every routable endpoint (4 WordPress core routes,
//! the 50 vulnerable plugins of Table IV, the 3 CMS case studies), scores
//! the verdicts against the testbed's ground-truth labels (TP/FP/FN/TN),
//! prints the deterministic source→sink findings, and finishes with a
//! throughput ablation on benign core-route traffic: `Joza` as installed
//! vs. `Joza` built with `taint_free_routes`, whose static fast-path stage
//! lets statically-proven taint-free routes skip NTI/PTI entirely.

use joza_bench::report::{pct, render_table};
use joza_bench::workload::{crawl_requests, Setup};
use joza_core::Joza;
use joza_lab::{build_lab, ground_truth};
use joza_sast::{
    analyze_app, render_summary, taint_free_routes, unparameterized_sink_lint, TaintSummary,
};
use std::collections::BTreeMap;
use std::time::Duration;

fn main() {
    let verbose = std::env::args().any(|a| a == "--findings");
    let mut lab = build_lab();

    println!("STATIC TAINT ANALYSIS over WP-SQLI-LAB ({} routes)\n", ground_truth(&lab).len());
    let summaries = analyze_app(&lab.server.app);
    let by_route: BTreeMap<&str, &TaintSummary> =
        summaries.iter().map(|s| (s.endpoint.as_str(), s)).collect();

    // --- Score verdicts against ground truth ---------------------------
    let (mut tp, mut fp, mut fneg, mut tn) = (0usize, 0usize, 0usize, 0usize);
    let mut rows = Vec::new();
    for (route, vulnerable) in ground_truth(&lab) {
        let summary =
            by_route.get(route.as_str()).unwrap_or_else(|| panic!("no analysis for route {route}"));
        let flagged = !summary.taint_free;
        let verdict = match (flagged, vulnerable) {
            (true, true) => {
                tp += 1;
                "TP"
            }
            (true, false) => {
                fp += 1;
                "FP"
            }
            (false, true) => {
                fneg += 1;
                "FN"
            }
            (false, false) => {
                tn += 1;
                "TN"
            }
        };
        let worst = summary
            .findings
            .iter()
            .map(|f| f.taint)
            .max()
            .map_or("-".to_string(), |t| t.label().to_string());
        rows.push(vec![
            route,
            if vulnerable { "vulnerable" } else { "clean" }.to_string(),
            if flagged { "flagged" } else { "taint-free" }.to_string(),
            verdict.to_string(),
            summary.sink_count.to_string(),
            summary.findings.len().to_string(),
            worst,
        ]);
    }
    println!(
        "{}",
        render_table(
            &[
                "Route",
                "Ground truth",
                "Static verdict",
                "Score",
                "Sinks",
                "Findings",
                "Worst taint"
            ],
            &rows
        )
    );
    let total = tp + fp + fneg + tn;
    println!(
        "totals: {total} routes | TP {tp}  FP {fp}  FN {fneg}  TN {tn} | recall {} | precision {}",
        pct(tp as f64 / (tp + fneg).max(1) as f64),
        pct(tp as f64 / (tp + fp).max(1) as f64),
    );
    assert_eq!(fneg, 0, "soundness: a vulnerable route was proven taint-free");

    // --- Findings detail ----------------------------------------------
    if verbose {
        println!("\nFINDINGS (deterministic order: endpoint, span, sink)\n");
        for s in &summaries {
            if !s.findings.is_empty() || s.parse_error.is_some() {
                print!("{}", render_summary(s));
            }
        }
    } else {
        let n: usize = summaries.iter().map(|s| s.findings.len()).sum();
        println!("({n} findings total; re-run with --findings for source→sink traces)");
    }

    // --- Unparameterized-sink lint: the manual-remediation worklist ----
    let lint = unparameterized_sink_lint(&lab.server.app);
    println!(
        "\nUNPARAMETERIZED SINKS ({} tainted sinks the hardening pass cannot repair)\n",
        lint.len()
    );
    if lint.is_empty() {
        println!("(none — every tainted sink sits in a completely-modeled route)");
    } else {
        let lint_rows: Vec<Vec<String>> = lint
            .iter()
            .map(|u| {
                vec![
                    u.route.clone(),
                    u.stmt_id.to_string(),
                    u.sink.clone(),
                    u.sources.join(", "),
                    u.dirty_cell.as_ref().map_or("-".to_string(), |(t, c)| format!("{t}.{c}")),
                ]
            })
            .collect();
        println!(
            "{}",
            render_table(&["Route", "Stmt", "Sink", "Tainted sources", "Dirty cell"], &lint_rows)
        );
    }

    // --- Persistence-aware store/load fixpoint -------------------------
    let flow = joza_sast::analyze_store_flow(&lab.server.app);
    let second_order = flow.second_order_routes();
    println!(
        "\nSTORE/LOAD FIXPOINT ({} dirty cells, {} second-order routes, {} rounds{})\n",
        flow.dirty.len(),
        second_order.len(),
        flow.iterations,
        if flow.top_poisoned {
            format!(", top-poisoned by {:?}", flow.poisoned_by)
        } else {
            String::new()
        }
    );
    let worklist = flow.remediation_worklist();
    let cell_rows: Vec<Vec<String>> = worklist
        .iter()
        .map(|e| {
            vec![
                format!("{}.{}", e.cell.0, e.cell.1),
                e.writers
                    .iter()
                    .map(|w| format!("{}:{}", w.route, w.line))
                    .collect::<Vec<_>>()
                    .join(", "),
                e.readers.join(", "),
            ]
        })
        .collect();
    if cell_rows.is_empty() {
        println!("(no attacker-reachable cells)");
    } else {
        println!(
            "{}",
            render_table(&["Cell", "Tainted writers", "Second-order readers"], &cell_rows)
        );
    }
    for route in &second_order {
        if let Some(rf) = flow.get(route) {
            for chain in rf.chains.iter().take(1) {
                println!("  {}", chain.render());
            }
        }
    }

    // --- Throughput ablation: fast path on benign core-route reads -----
    let fast_routes = taint_free_routes(&lab.server.app);
    println!(
        "\nFAST-PATH ABLATION (benign core-route crawl, {} taint-free routes)\n",
        fast_routes.len()
    );
    let n_requests = std::env::args().skip(1).find_map(|a| a.parse::<usize>().ok()).unwrap_or(120);
    let requests = crawl_requests(n_requests);
    let config = Setup::ExtensionEstimate.joza_config();

    let joza_plain = Joza::install(&lab.server.app, config.clone());
    let mut plain_gate_time = Duration::ZERO;
    for req in &requests {
        let resp = lab.server.handle_with(req, &joza_plain);
        assert!(!resp.blocked, "benign request blocked: {req:?}");
        plain_gate_time += resp.gate_time;
    }

    lab.reset_database();
    let joza_fast = Joza::installer(&lab.server.app, config)
        .taint_free_routes(fast_routes.iter().cloned())
        .build();
    let mut fast_gate_time = Duration::ZERO;
    for req in &requests {
        let resp = lab.server.handle_with(req, &joza_fast);
        assert!(!resp.blocked, "benign request blocked on fast path: {req:?}");
        fast_gate_time += resp.gate_time;
    }
    let stats = joza_fast.stats();

    println!(
        "{}",
        render_table(
            &["Gate", "Requests", "Gate time", "Fast queries", "Dynamic queries"],
            &[
                vec![
                    "Joza (dynamic only)".into(),
                    requests.len().to_string(),
                    format!("{plain_gate_time:?}"),
                    "0".into(),
                    "all".into(),
                ],
                vec![
                    "Joza + static fast path".into(),
                    requests.len().to_string(),
                    format!("{fast_gate_time:?}"),
                    stats.static_hits.to_string(),
                    (stats.queries - stats.static_hits).to_string(),
                ],
            ]
        )
    );
    println!(
        "fast path served {}/{} queries statically; gate time {} of dynamic-only",
        stats.static_hits,
        stats.queries,
        pct(fast_gate_time.as_secs_f64() / plain_gate_time.as_secs_f64().max(f64::EPSILON)),
    );
}
