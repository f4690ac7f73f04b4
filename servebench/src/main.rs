//! Closed-loop serving benchmark for the Joza reproduction.
//!
//! ```text
//! bash servebench/run.sh \
//!     --workload <wp-read|wp-write|lab-attack> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Two long-lived client threads, each with its own lab, send requests
//! one after another through `Server::handle_with` → phpsim VM → gate →
//! `db`, sharing one Joza engine. Every modeled cost is zero, so only real
//! compute is measured. `--trace 0` reports the end-to-end metrics;
//! `--trace 1` runs an untraced and a traced half and reports the
//! per-layer metrics. The last line of standard output is the result as
//! one JSON object; `servebench/METRICS.md` says what each metric is.

mod serve;
mod setup;
mod sys;
mod trace;
mod workload;

#[cfg(test)]
mod tests;

use joza_core::StageId;
use serve::{PassTime, RunReport};
use setup::SetupSplit;
use std::time::Instant;
use workload::{Plan, Workload};

/// Set-ups before and again after serving; `setup_s` is the median of
/// all of them. Spreading them over the run keeps one burst of host noise
/// from setting the figure.
const SETUP_REPEATS: usize = 4;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str =
    "usage: joza-servebench --workload <wp-read|wp-write|lab-attack> --seed <n> --seconds <s> --trace <0|1>";

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?,
                );
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| format!("bad seconds {value}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(format!("seconds must be positive, got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            std::process::exit(2);
        }
    };

    // Set up from nothing several times; serve from the last deployment.
    // Each earlier one is dropped before the next is built, so peak
    // memory reflects one.
    let mut setups: Vec<SetupSplit> = Vec::with_capacity(2 * SETUP_REPEATS);
    let mut deployment = None;
    for _ in 0..SETUP_REPEATS {
        drop(deployment.take());
        let d = setup::deploy(args.workload);
        setups.push(d.split);
        deployment = Some(d);
    }
    let deployment = deployment.expect("at least one set-up");
    if let Err(e) = setup::check_no_modeled_cost(&deployment) {
        eprintln!("{e}");
        std::process::exit(1);
    }
    let fragments = deployment.engine.fragment_count();

    let plan = Plan::new(args.workload, args.seed, setup::CLIENTS);
    let started = Instant::now();
    let report = serve::run(deployment, &plan, args.seconds, args.trace);
    let usage = sys::usage();
    for _ in 0..SETUP_REPEATS {
        setups.push(setup::deploy(args.workload).split);
    }

    let attempted: u64 = report.clients.iter().map(|c| c.attempted).sum();
    let failed: u64 = report.clients.iter().map(|c| c.failed).sum();
    let mismatches: u64 = report.clients.iter().map(|c| c.state_mismatches).sum();
    let seeded_comments = joza_lab::wordpress::wordpress_database()
        .table("wp_comments")
        .map_or(0, |t| t.len() as u64);
    let max_comments = report.clients.iter().map(|c| c.max_comment_rows).max().unwrap_or(0);
    let bounded = serve::comment_rows_bounded(args.workload, seeded_comments, max_comments);
    for c in &report.clients {
        for f in &c.failures {
            eprintln!("failure: {f}");
        }
    }
    if mismatches > 0 {
        eprintln!("{mismatches} passes ended in a database state that differs from the reference");
    }
    if !bounded {
        eprintln!("wp_comments grew to {max_comments} rows; passes must start from the seeded DB");
    }

    let mut latencies: Vec<u64> =
        report.clients.iter().flat_map(|c| c.untraced_ns.iter().flatten().copied()).collect();
    latencies.sort_unstable();
    let metrics = if args.trace {
        per_layer(&report, &setups)
    } else {
        end_to_end(&report, &latencies, &setups, usage.peak_rss)
    };

    println!(
        "{} seed {} | {} untraced + {} traced passes in {:.1}s | {} requests checked, {} failed",
        args.workload.name(),
        args.seed,
        report.untraced.len(),
        report.traced.len(),
        started.elapsed().as_secs_f64(),
        attempted,
        failed,
    );
    for (name, value, unit) in &metrics {
        println!("  {name:<28} {value:>14.4} {unit}");
    }
    println!(
        "{{\"provenance\": {{\"workload\": \"{}\", \"seed\": {}, \"clients\": {}, \
         \"available_parallelism\": {}, \"git_rev\": \"{}\", \"fragments\": {}, \
         \"fail_rate\": {}, \"max_comment_rows_at_pass_end\": {}, \"seeded_comment_rows\": {}, \
         \"latency_p99_us\": {}, \"latency_samples\": {}}}}}",
        args.workload.name(),
        args.seed,
        setup::CLIENTS,
        std::thread::available_parallelism().map_or(0, |p| p.get()),
        git_rev(),
        fragments,
        failed as f64 / attempted.max(1) as f64,
        max_comments,
        seeded_comments,
        json_number(quantile(&latencies, 0.99) / 1e3),
        latencies.len(),
    );
    let correct = failed == 0 && mismatches == 0 && bounded;
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}", json_number(*value))
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    );
}

type Metric = (&'static str, f64, &'static str);

fn median(mut values: Vec<f64>) -> f64 {
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n == 0 {
        0.0
    } else if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

/// The nearest-rank `q`-quantile of sorted `values`.
fn quantile(sorted: &[u64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1] as f64
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Median over passes of CPU time per request, in microseconds.
fn cpu_us_per_request(passes: &[PassTime], requests: usize) -> f64 {
    let per_pass = ratio(requests as f64, passes.len() as f64);
    median(passes.iter().map(|p| ratio(p.cpu.as_secs_f64() * 1e6, per_pass)).collect())
}

/// Requests per second of the median pass, summed over the clients;
/// `clients` gives each client's passes, one latency vector per pass.
///
/// A client sends the same requests, one after another, in every pass
/// (on wp-write, fresh comments of the same shape into the same re-seeded
/// database). Each request position takes its median latency over the client's
/// passes, and the median pass lasts the sum of those. A host stall lands
/// on a position in a few passes only and leaves the figure alone; a
/// request that gets slower at any position moves it.
///
/// # Panics
///
/// Panics if one client's passes differ in length.
fn median_pass_rps<'a>(clients: impl Iterator<Item = &'a [Vec<u64>]>) -> f64 {
    clients
        .map(|passes| {
            let requests = passes.first().map_or(0, Vec::len);
            assert!(passes.iter().all(|p| p.len() == requests), "passes differ in length");
            let pass_ns: f64 =
                (0..requests).map(|i| median(passes.iter().map(|p| p[i] as f64).collect())).sum();
            ratio(requests as f64 * 1e9, pass_ns)
        })
        .sum()
}

/// The bounded metrics, from untraced passes; `latencies` sorted.
fn end_to_end(
    report: &RunReport,
    latencies: &[u64],
    setups: &[SetupSplit],
    peak_rss: u64,
) -> Vec<Metric> {
    vec![
        ("rps", median_pass_rps(report.clients.iter().map(|c| c.untraced_ns.as_slice())), "1/s"),
        ("latency_p50_us", quantile(latencies, 0.50) / 1e3, "us"),
        ("cpu_us_per_request", cpu_us_per_request(&report.untraced, latencies.len()), "us"),
        ("setup_s", median(setups.iter().map(|s| s.total.as_secs_f64()).collect()), "s"),
        ("peak_rss_mb", peak_rss as f64 / (1024.0 * 1024.0), "MB"),
    ]
}

fn per_layer(report: &RunReport, setups: &[SetupSplit]) -> Vec<Metric> {
    let clients = &report.clients;
    let sum = |f: &dyn Fn(&serve::ClientReport) -> u64| clients.iter().map(f).sum::<u64>() as f64;
    let stats = &report.traced_stats;
    let stage = |id: StageId| {
        let i = id.index();
        (stats.stage_runs[i] as f64, stats.stage_hits[i] as f64, stats.stage_ns[i] as f64)
    };
    let (nti_runs, _, nti_ns) = stage(StageId::Nti);
    let (pti_runs, _, pti_ns) = stage(StageId::Pti);
    let (static_runs, _, static_ns) = stage(StageId::StaticFastPath);
    let (model_runs, model_hits, model_ns) = stage(StageId::ModelFastPath);

    let traced_requests = sum(&|c| c.traced_ns.iter().map(|p| p.len() as u64).sum());
    let untraced_rps = median_pass_rps(clients.iter().map(|c| c.untraced_ns.as_slice()));
    let traced_rps = median_pass_rps(clients.iter().map(|c| c.traced_ns.as_slice()));
    let traced_request_ns = sum(&|c| c.traced_ns.iter().flatten().sum());

    let replayed_requests = sum(&|c| c.replayed_requests);
    let replayed_request_ns = sum(&|c| c.replayed_request_ns);
    let db_ns = sum(&|c| c.replay.db_ns);
    let db_statements = sum(&|c| c.replay.db_statements);
    let replayed_queries = sum(&|c| c.replay.queries);
    let gate_ns = sum(&|c| c.gate.gate_ns);
    let cache = &report.traced_cache;
    let split_ms = |f: &dyn Fn(&SetupSplit) -> std::time::Duration| {
        median(setups.iter().map(|s| f(s).as_secs_f64() * 1e3).collect())
    };

    vec![
        ("db.us_per_query", ratio(db_ns / 1e3, db_statements), "us"),
        ("db.share", ratio(db_ns, replayed_request_ns), "ratio"),
        ("nti.ns_per_run", ratio(nti_ns, nti_runs), "ns"),
        ("nti.runs_per_request", ratio(nti_runs, traced_requests), "count"),
        ("nti.analyze_ns_per_query", ratio(sum(&|c| c.replay.nti_ns), replayed_queries), "ns"),
        ("pti.ns_per_run", ratio(pti_ns, pti_runs), "ns"),
        ("pti.runs_per_request", ratio(pti_runs, traced_requests), "count"),
        ("pti.analyze_ns_per_query", ratio(sum(&|c| c.replay.pti_ns), replayed_queries), "ns"),
        ("pti.daemon_ns_per_query", ratio(sum(&|c| c.replay.daemon_ns), replayed_queries), "ns"),
        (
            "pti.query_cache_hit_rate",
            ratio(cache.hits as f64, (cache.hits + cache.misses) as f64),
            "ratio",
        ),
        (
            "core.session_open_us",
            ratio(sum(&|c| c.gate.session_ns) / 1e3, sum(&|c| c.gate.sessions)),
            "us",
        ),
        (
            "core.gate_us_per_query",
            ratio(sum(&|c| c.gate.check_ns) / 1e3, sum(&|c| c.gate.checks)),
            "us",
        ),
        ("core.gate_share", ratio(gate_ns, traced_request_ns), "ratio"),
        ("core.static.ns_per_run", ratio(static_ns, static_runs), "ns"),
        ("core.model.ns_per_run", ratio(model_ns, model_runs), "ns"),
        ("core.model.hit_rate", ratio(model_hits, model_runs), "ratio"),
        (
            "core.fast_path_rate",
            ratio((stats.model_fast_hits + stats.static_hits) as f64, stats.queries as f64),
            "ratio",
        ),
        (
            "phpsim.app_self_us",
            ratio(
                (replayed_request_ns - sum(&|c| c.replayed_gate_ns) - db_ns) / 1e3,
                replayed_requests,
            ),
            "us",
        ),
        ("setup.vocabulary_ms", split_ms(&|s| s.vocabulary), "ms"),
        ("setup.sast_ms", split_ms(&|s| s.sast), "ms"),
        ("setup.engine_ms", split_ms(&|s| s.engine), "ms"),
        ("phpsim.compile_ms", split_ms(&|s| s.compile), "ms"),
        ("trace.overhead_pct", ratio(untraced_rps - traced_rps, untraced_rps) * 100.0, "%"),
    ]
}

/// A JSON number: finite values as measured, anything else as 0.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// The commit being measured, read from `.git` without running git; a
/// checkout that is not a git repository reports `unknown`.
fn git_rev() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok().map(|s| s.trim().to_string());
    let Some(head) = read(".git/HEAD") else { return "unknown".to_string() };
    let Some(reference) = head.strip_prefix("ref: ") else { return head };
    if let Some(rev) = read(&format!(".git/{reference}")) {
        return rev;
    }
    read(".git/packed-refs")
        .and_then(|packed| {
            packed.lines().find_map(|l| l.strip_suffix(reference).map(|rev| rev.trim().to_string()))
        })
        .unwrap_or_else(|| "unknown".to_string())
}
