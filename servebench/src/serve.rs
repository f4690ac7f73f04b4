//! The closed loop: long-lived client threads, each owning a lab, serve
//! their streams through one shared engine in lock-step passes. Between
//! passes, outside the timed window, each client checks its responses,
//! replays traced traffic, and re-seeds its database.

use crate::setup::{Deployment, CLIENTS};
use crate::sys;
use crate::trace::{replay_db, GateTally, ReplayTally, Replayer, TimingGate};
use crate::workload::{Plan, Planned, Workload};
use joza_core::{Joza, JozaStats};
use joza_db::Database;
use joza_lab::Lab;
use joza_pti::CacheStats;
use joza_webapp::server::Response;
use std::sync::{Barrier, Mutex};
use std::time::{Duration, Instant};

/// Traced passes whose traffic is replayed layer by layer, per client.
pub const REPLAY_PASSES: u64 = 2;

/// Failure descriptions kept per client, for the report.
const FAILURES_KEPT: usize = 8;

/// What a pass is for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// Untimed: fills caches, starts PTI shards and daemons.
    Warmup,
    /// Timed without instruments: the end-to-end numbers.
    Untraced,
    /// Timed through the timing wrapper, then replayed.
    Traced,
}

#[derive(Debug, Clone, Copy)]
enum Command {
    Pass(Phase),
    Stop,
}

/// The coordinator's handle on the clients: every pass is three barrier
/// crossings (start, end of timed serving, end of untimed work).
struct Control {
    barrier: Barrier,
    command: Mutex<Command>,
}

/// Wall and CPU time of one timed pass.
#[derive(Debug, Clone, Copy)]
pub struct PassTime {
    /// From the start barrier to the last client finishing.
    pub wall: Duration,
    /// Process CPU (all threads, PTI daemons included) over that span.
    pub cpu: Duration,
}

/// What one client measured.
#[derive(Debug, Default)]
pub struct ClientReport {
    /// Requests served and checked, warm-up included.
    pub attempted: u64,
    /// Requests that failed the output check.
    pub failed: u64,
    /// The first few failures, described.
    pub failures: Vec<String>,
    /// Passes whose end-of-pass database differed from the reference
    /// run's, or whose replay diverged from the live run.
    pub state_mismatches: u64,
    /// Request latencies of untraced timed passes, in nanoseconds, one
    /// vector per pass in the order the requests were sent.
    pub untraced_ns: Vec<Vec<u64>>,
    /// Request latencies of traced passes, likewise.
    pub traced_ns: Vec<Vec<u64>>,
    /// The timing wrapper's tally over every traced pass (captures
    /// dropped).
    pub gate: GateTally,
    /// Layer replays of the first [`REPLAY_PASSES`] traced passes.
    pub replay: ReplayTally,
    /// Requests of the replayed passes.
    pub replayed_requests: u64,
    /// Live request time of the replayed passes, in nanoseconds.
    pub replayed_request_ns: u64,
    /// Live gate time (wrapper-timed) of the replayed passes.
    pub replayed_gate_ns: u64,
    /// Largest `wp_comments` row count seen at the end of a pass.
    pub max_comment_rows: u64,
}

/// The whole run's measurements.
#[derive(Debug)]
pub struct RunReport {
    /// Untraced timed passes.
    pub untraced: Vec<PassTime>,
    /// Traced timed passes.
    pub traced: Vec<PassTime>,
    /// Engine statistics accumulated over the traced passes.
    pub traced_stats: JozaStats,
    /// Query-cache counters accumulated over the traced passes.
    pub traced_cache: CacheStats,
    /// Per-client reports.
    pub clients: Vec<ClientReport>,
}

/// Serves `plan` from the deployment's labs for `seconds` of timed
/// passes — all untraced, or split evenly between an untraced and a
/// traced phase.
pub fn run(deployment: Deployment, plan: &Plan, seconds: f64, trace: bool) -> RunReport {
    let Deployment { engine, labs, .. } = deployment;
    let engine = &engine;
    let control =
        Control { barrier: Barrier::new(CLIENTS + 1), command: Mutex::new(Command::Stop) };
    let control = &control;
    let (untraced_target, traced_target) =
        if trace { (seconds / 2.0, seconds / 2.0) } else { (seconds, 0.0) };
    std::thread::scope(|s| {
        let handles: Vec<_> = labs
            .into_iter()
            .enumerate()
            .map(|(c, lab)| s.spawn(move || client(c, lab, engine, plan, control, trace)))
            .collect();

        pass(control, Phase::Warmup);
        let untraced = passes_for(control, Phase::Untraced, untraced_target);
        let stats0 = engine.stats();
        let cache0 = engine.query_cache_stats();
        let traced = passes_for(control, Phase::Traced, traced_target);
        let traced_stats = stats_delta(&engine.stats(), &stats0);
        let cache1 = engine.query_cache_stats();
        let traced_cache = CacheStats {
            hits: cache1.hits - cache0.hits,
            misses: cache1.misses - cache0.misses,
            inserts: cache1.inserts - cache0.inserts,
        };

        *control.command.lock().expect("command lock poisoned") = Command::Stop;
        control.barrier.wait();
        let clients =
            handles.into_iter().map(|h| h.join().expect("client thread panicked")).collect();
        RunReport { untraced, traced, traced_stats, traced_cache, clients }
    })
}

/// Runs passes until their wall times add up to `seconds`.
fn passes_for(control: &Control, phase: Phase, seconds: f64) -> Vec<PassTime> {
    let mut passes = Vec::new();
    let mut total = Duration::ZERO;
    while total.as_secs_f64() < seconds {
        let p = pass(control, phase);
        total += p.wall;
        passes.push(p);
    }
    passes
}

/// Runs one pass and times its serving part.
fn pass(control: &Control, phase: Phase) -> PassTime {
    *control.command.lock().expect("command lock poisoned") = Command::Pass(phase);
    control.barrier.wait();
    let t0 = Instant::now();
    let u0 = sys::usage();
    control.barrier.wait();
    let wall = t0.elapsed();
    let u1 = sys::usage();
    control.barrier.wait();
    PassTime { wall, cpu: u1.cpu.saturating_sub(u0.cpu) }
}

/// The parts of a response the output check compares.
#[derive(Debug, Clone, PartialEq)]
struct Observed {
    body: String,
    queries: Vec<String>,
    sql_error: Option<String>,
}

impl From<&Response> for Observed {
    fn from(r: &Response) -> Self {
        Observed {
            body: r.body.clone(),
            queries: r.queries.clone(),
            sql_error: r.sql_error.clone(),
        }
    }
}

/// An unprotected server's responses to a stream's benign requests
/// (`None` for exploits, which are not sent), and the database it left.
struct Reference {
    responses: Vec<Option<Observed>>,
    rows: Vec<(String, usize)>,
}

/// Serves the benign requests of `stream` without protection from the
/// seeded database.
fn reference(lab: &mut Lab, stream: &[Planned]) -> Reference {
    lab.reset_database();
    let responses = stream
        .iter()
        .map(|p| (!p.attack).then(|| Observed::from(&lab.server.handle(&p.request))))
        .collect();
    Reference { responses, rows: row_counts(&lab.server.db) }
}

/// Row count of every table, in name order.
fn row_counts(db: &Database) -> Vec<(String, usize)> {
    db.tables().map(|t| (t.name().to_string(), t.len())).collect()
}

/// Why a response fails the output check, if it does.
fn check_response(
    planned: &Planned,
    live: &Response,
    reference: Option<&Observed>,
) -> Option<String> {
    let path = &planned.request.path;
    if planned.attack {
        let stopped = live.blocked || live.executed < live.queries.len();
        return (!stopped).then(|| format!("{path}: exploit not blocked"));
    }
    if live.blocked || live.executed < live.queries.len() {
        return Some(format!("{path}: benign request blocked"));
    }
    match reference {
        Some(r) if *r == Observed::from(live) => None,
        _ => Some(format!("{path}: response differs from the unprotected server's")),
    }
}

/// One client: serves its stream whenever the coordinator starts a pass.
fn client(
    c: usize,
    mut lab: Lab,
    engine: &Joza,
    plan: &Plan,
    control: &Control,
    trace: bool,
) -> ClientReport {
    let tracer = TimingGate::new(engine);
    let replayer = trace.then(|| Replayer::new(engine, &lab.server.app));
    let mut report = ClientReport::default();
    let mut fixed_reference: Option<Reference> = None;
    let mut replayed_passes = 0;
    let mut pass_no = 0;
    let mut stream = plan.stream(c, pass_no);
    lab.reset_database();
    loop {
        control.barrier.wait();
        let command = *control.command.lock().expect("command lock poisoned");
        let Command::Pass(phase) = command else { break };

        let mut latencies = Vec::with_capacity(stream.len());
        let mut responses = Vec::with_capacity(stream.len());
        for planned in &stream {
            let t = Instant::now();
            let response = if phase == Phase::Traced {
                lab.server.handle_with(&planned.request, &tracer)
            } else {
                lab.server.handle_with(&planned.request, engine)
            };
            latencies.push(u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX));
            responses.push(response);
        }
        control.barrier.wait();

        // Untimed from here to the next barrier.
        let live_rows = row_counts(&lab.server.db);
        report.max_comment_rows = report.max_comment_rows.max(comment_rows(&live_rows));
        let computed;
        let reference = if plan.is_fixed() {
            fixed_reference.get_or_insert_with(|| reference(&mut lab, &stream))
        } else {
            computed = reference(&mut lab, &stream);
            &computed
        };
        if reference.rows != live_rows {
            report.state_mismatches += 1;
        }
        for (i, (planned, live)) in stream.iter().zip(&responses).enumerate() {
            report.attempted += 1;
            if let Some(why) = check_response(planned, live, reference.responses[i].as_ref()) {
                report.failed += 1;
                if report.failures.len() < FAILURES_KEPT {
                    report.failures.push(why);
                }
            }
        }

        let pass_ns: u64 = latencies.iter().sum();
        match phase {
            Phase::Warmup => {}
            Phase::Untraced => report.untraced_ns.push(latencies),
            Phase::Traced => {
                report.traced_ns.push(latencies);
                let mut tally = tracer.take();
                if let (Some(replayer), true) = (&replayer, replayed_passes < REPLAY_PASSES) {
                    replayed_passes += 1;
                    let had_error: Vec<bool> =
                        responses.iter().map(|r| r.sql_error.is_some()).collect();
                    lab.reset_database();
                    let (db, diverged) = replay_db(&mut lab.server.db, &tally.captures, &had_error);
                    if diverged > 0
                        || tally.captures.len() != stream.len()
                        || row_counts(&lab.server.db) != live_rows
                    {
                        report.state_mismatches += 1;
                    }
                    report.replay.add(&db);
                    report.replay.add(&replayer.replay_analysis(&tally.captures));
                    report.replayed_requests += stream.len() as u64;
                    report.replayed_request_ns += pass_ns;
                    report.replayed_gate_ns += tally.gate_ns;
                }
                tally.captures.clear();
                report.gate.add(&tally);
            }
        }

        lab.reset_database();
        pass_no += 1;
        stream = plan.stream(c, pass_no);
        control.barrier.wait();
    }
    report
}

fn comment_rows(rows: &[(String, usize)]) -> u64 {
    rows.iter().find(|(t, _)| t == "wp_comments").map_or(0, |(_, n)| *n as u64)
}

/// `after - before`, counter by counter.
fn stats_delta(after: &JozaStats, before: &JozaStats) -> JozaStats {
    let mut d = *after;
    d.queries -= before.queries;
    d.attacks -= before.attacks;
    d.nti_detections -= before.nti_detections;
    d.pti_detections -= before.pti_detections;
    d.nti_time -= before.nti_time;
    d.pti_time -= before.pti_time;
    d.model_fast_hits -= before.model_fast_hits;
    d.static_hits -= before.static_hits;
    d.full_checks -= before.full_checks;
    d.model_anomalies -= before.model_anomalies;
    d.route_misses_unknown -= before.route_misses_unknown;
    d.route_misses_incomplete -= before.route_misses_incomplete;
    for i in 0..d.stage_runs.len() {
        d.stage_runs[i] -= before.stage_runs[i];
        d.stage_hits[i] -= before.stage_hits[i];
        d.stage_ns[i] -= before.stage_ns[i];
    }
    d
}

/// Whether `workload`'s database is bounded: each pass starts from the
/// seeded DB, so the comment table never holds more than the seed plus
/// one pass of writes.
pub fn comment_rows_bounded(workload: Workload, seeded: u64, max_seen: u64) -> bool {
    let per_pass = match workload {
        Workload::WpWrite => crate::workload::COMMENTS_PER_PASS as u64,
        _ => 0,
    };
    max_seen <= seeded + per_pass
}
