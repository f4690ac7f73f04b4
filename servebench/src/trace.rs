//! The traced run's instruments, all outside the program: a timing
//! `GateFactory` wrapper around the shared engine, and replays of one
//! pass's captured traffic through each layer's public entry points
//! (`Database::execute`/`execute_prepared`, `NtiAnalyzer::analyze`,
//! `PtiAnalyzer::analyze`, `PtiDaemon::spawn` → `PtiClient::check`).

use joza_core::Joza;
use joza_db::{Database, Value};
use joza_nti::NtiAnalyzer;
use joza_phpsim::fragments::FragmentSet;
use joza_pti::daemon::{PtiClient, PtiDaemon};
use joza_pti::{FragmentStore, PtiAnalyzer};
use joza_webapp::app::WebApp;
use joza_webapp::gate::{GateDecision, GateFactory, GateSession, RawInput};
use std::cell::Cell;
use std::sync::Mutex;
use std::time::Instant;

/// One query a traced session checked.
#[derive(Debug, Clone, PartialEq)]
pub struct CheckedQuery {
    /// The statement text the gate saw.
    pub sql: String,
    /// How many of the session's inputs existed when it was checked.
    pub inputs: usize,
    /// The gate's decision.
    pub decision: GateDecision,
}

/// Everything one traced request showed the gate.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SessionCapture {
    /// Raw request inputs as `(name, value)`.
    pub raw: Vec<(String, String)>,
    /// Input values NTI saw: the raw values, then values captured from
    /// dirty cells, in order.
    pub inputs: Vec<String>,
    /// Checked queries in order.
    pub checks: Vec<CheckedQuery>,
}

/// Time and counts the wrapper recorded.
#[derive(Debug, Clone, Default)]
pub struct GateTally {
    /// Sessions opened (one per request).
    pub sessions: u64,
    /// Nanoseconds inside `GateFactory::session`.
    pub session_ns: u64,
    /// Queries checked.
    pub checks: u64,
    /// Nanoseconds inside `check` and `check_batch`.
    pub check_ns: u64,
    /// Nanoseconds inside every gate call: session open, checks,
    /// `dirty_cell` and `capture_db_input`.
    pub gate_ns: u64,
    /// The captured sessions, in request order.
    pub captures: Vec<SessionCapture>,
}

impl GateTally {
    /// Adds `other`'s times and counts (not its captures) into `self`.
    pub fn add(&mut self, other: &GateTally) {
        self.sessions += other.sessions;
        self.session_ns += other.session_ns;
        self.checks += other.checks;
        self.check_ns += other.check_ns;
        self.gate_ns += other.gate_ns;
    }
}

/// A `GateFactory` that forwards to the shared engine and times every
/// call. One per client; its sessions report back when dropped.
pub struct TimingGate<'e> {
    engine: &'e Joza,
    tally: Mutex<GateTally>,
}

impl<'e> TimingGate<'e> {
    /// Wraps `engine`.
    pub fn new(engine: &'e Joza) -> Self {
        TimingGate { engine, tally: Mutex::new(GateTally::default()) }
    }

    /// Takes the tally recorded so far, leaving an empty one.
    pub fn take(&self) -> GateTally {
        std::mem::take(&mut *self.tally.lock().expect("tally lock poisoned"))
    }
}

impl GateFactory for TimingGate<'_> {
    fn session<'a>(&'a self, route: &str, inputs: &[RawInput]) -> Box<dyn GateSession + 'a> {
        let t = Instant::now();
        let inner = GateFactory::session(self.engine, route, inputs);
        let open_ns = elapsed_ns(t);
        let capture = SessionCapture {
            raw: inputs.iter().map(|i| (i.name.clone(), i.value.clone())).collect(),
            inputs: inputs.iter().map(|i| i.value.clone()).collect(),
            checks: Vec::new(),
        };
        Box::new(TimingSession {
            inner,
            gate: self,
            capture,
            open_ns,
            check_ns: 0,
            other_ns: Cell::new(0),
        })
    }
}

/// Forwards all four `GateSession` methods: the trait's defaults for
/// `dirty_cell` and `capture_db_input` would silently turn second-order
/// capture off.
struct TimingSession<'a> {
    inner: Box<dyn GateSession + 'a>,
    gate: &'a TimingGate<'a>,
    capture: SessionCapture,
    open_ns: u64,
    check_ns: u64,
    other_ns: Cell<u64>,
}

impl TimingSession<'_> {
    fn record(&mut self, sql: &str, decision: GateDecision) {
        let inputs = self.capture.inputs.len();
        self.capture.checks.push(CheckedQuery { sql: sql.to_string(), inputs, decision });
    }
}

impl GateSession for TimingSession<'_> {
    fn check(&mut self, sql: &str) -> GateDecision {
        let t = Instant::now();
        let decision = self.inner.check(sql);
        self.check_ns += elapsed_ns(t);
        self.record(sql, decision);
        decision
    }

    fn check_batch(&mut self, sqls: &[String]) -> Vec<GateDecision> {
        let t = Instant::now();
        let decisions = self.inner.check_batch(sqls);
        self.check_ns += elapsed_ns(t);
        for (sql, decision) in sqls.iter().zip(&decisions) {
            self.record(sql, *decision);
        }
        decisions
    }

    fn dirty_cell(&self, table: &str, column: &str) -> bool {
        let t = Instant::now();
        let dirty = self.inner.dirty_cell(table, column);
        self.other_ns.set(self.other_ns.get() + elapsed_ns(t));
        dirty
    }

    fn capture_db_input(&mut self, table: &str, column: &str, value: &str) {
        let t = Instant::now();
        self.inner.capture_db_input(table, column, value);
        self.other_ns.set(self.other_ns.get() + elapsed_ns(t));
        self.capture.inputs.push(value.to_string());
    }
}

impl Drop for TimingSession<'_> {
    fn drop(&mut self) {
        // A poisoned lock means a client already panicked; that panic is
        // the one to report.
        if let Ok(mut tally) = self.gate.tally.lock() {
            tally.sessions += 1;
            tally.session_ns += self.open_ns;
            tally.checks += self.capture.checks.len() as u64;
            tally.check_ns += self.check_ns;
            tally.gate_ns += self.open_ns + self.check_ns + self.other_ns.get();
            tally.captures.push(std::mem::take(&mut self.capture));
        }
    }
}

/// Per-layer time from replaying one pass's captured traffic.
#[derive(Debug, Clone, Copy, Default)]
pub struct ReplayTally {
    /// Statements replayed against the database.
    pub db_statements: u64,
    /// Nanoseconds inside `Database::execute`/`execute_prepared`.
    pub db_ns: u64,
    /// Queries replayed through NTI, PTI and the PTI daemon.
    pub queries: u64,
    /// Nanoseconds inside `NtiAnalyzer::analyze`.
    pub nti_ns: u64,
    /// Nanoseconds inside `PtiAnalyzer::analyze`.
    pub pti_ns: u64,
    /// Nanoseconds inside `PtiClient::check` (uncached daemon round trip).
    pub daemon_ns: u64,
}

impl ReplayTally {
    /// Adds `other` into `self`.
    pub fn add(&mut self, other: &ReplayTally) {
        self.db_statements += other.db_statements;
        self.db_ns += other.db_ns;
        self.queries += other.queries;
        self.nti_ns += other.nti_ns;
        self.pti_ns += other.pti_ns;
        self.daemon_ns += other.daemon_ns;
    }
}

/// The analyzers a client replays captured queries through, built like
/// the engine's own from the same configuration and vocabulary.
pub struct Replayer {
    nti: NtiAnalyzer,
    pti: PtiAnalyzer,
    daemon: PtiClient,
}

impl Replayer {
    /// Builds NTI and PTI analyzers and spawns a PTI daemon (without a
    /// structure cache, so every check is a full analysis plus the round
    /// trip) for `engine`'s configuration over `app`'s vocabulary.
    pub fn new(engine: &Joza, app: &WebApp) -> Replayer {
        let config = engine.config();
        let mut set = FragmentSet::new();
        for src in app.all_sources() {
            set.add_source(src);
        }
        let store = std::sync::Arc::new(FragmentStore::from_set(&set, config.pti.pti.matcher));
        Replayer {
            nti: NtiAnalyzer::new(config.nti.clone()),
            pti: PtiAnalyzer::new(std::sync::Arc::clone(&store), config.pti.pti.clone()),
            daemon: PtiDaemon::spawn(store, config.pti.pti.clone(), false),
        }
    }

    /// Replays every checked query of `captures` through NTI, PTI and the
    /// daemon, timing each call.
    pub fn replay_analysis(&self, captures: &[SessionCapture]) -> ReplayTally {
        let mut tally = ReplayTally::default();
        for capture in captures {
            let inputs: Vec<&str> = capture.inputs.iter().map(String::as_str).collect();
            for check in &capture.checks {
                tally.queries += 1;
                let t = Instant::now();
                std::hint::black_box(self.nti.analyze(&inputs[..check.inputs], &check.sql));
                tally.nti_ns += elapsed_ns(t);
                let t = Instant::now();
                std::hint::black_box(self.pti.analyze(&check.sql));
                tally.pti_ns += elapsed_ns(t);
                let t = Instant::now();
                std::hint::black_box(self.daemon.check(&check.sql));
                tally.daemon_ns += elapsed_ns(t);
            }
        }
        tally
    }
}

/// Replays the statements the gate allowed through, in order, against
/// `db` (which must hold the pass's starting state). Returns the tally and
/// the number of statements that failed although their request reported
/// no SQL error — a replay that diverged from the live run.
///
/// A statement with named placeholders came through the prepared path
/// (`db_query`); its bindings follow Drupal's `expandArguments` naming,
/// `:name_key` for the request parameter `name[key]` and `:name` for
/// `name`.
pub fn replay_db(
    db: &mut Database,
    captures: &[SessionCapture],
    request_had_sql_error: &[bool],
) -> (ReplayTally, u64) {
    let mut tally = ReplayTally::default();
    let mut diverged = 0;
    for (capture, had_error) in captures.iter().zip(request_had_sql_error) {
        for check in capture.checks.iter().filter(|c| c.decision == GateDecision::Allow) {
            let bindings = placeholder_bindings(&check.sql, &capture.raw);
            tally.db_statements += 1;
            let t = Instant::now();
            let result = if bindings.is_empty() {
                db.execute(&check.sql)
            } else {
                db.execute_prepared(&check.sql, &bindings)
            };
            tally.db_ns += elapsed_ns(t);
            if result.is_err() && !had_error {
                diverged += 1;
            }
        }
    }
    (tally, diverged)
}

/// Bindings for the `:name` placeholders outside quotes in `sql`, from
/// the request parameters as `expandArguments` names them.
fn placeholder_bindings(sql: &str, raw: &[(String, String)]) -> Vec<(String, Value)> {
    let mut out = Vec::new();
    let bytes = sql.as_bytes();
    let mut quote = None;
    let mut i = 0;
    while i < bytes.len() {
        let b = bytes[i];
        match quote {
            Some(_) if b == b'\\' => i += 1,
            Some(q) if b == q => quote = None,
            Some(_) => {}
            None if b == b'\'' || b == b'"' => quote = Some(b),
            None if b == b':' => {
                let end = bytes[i + 1..]
                    .iter()
                    .position(|c| !(c.is_ascii_alphanumeric() || *c == b'_'))
                    .map_or(bytes.len(), |p| i + 1 + p);
                if end > i + 1 {
                    let name = &sql[i..end];
                    if let Some(value) = raw.iter().find_map(|(k, v)| {
                        (param_placeholder(k).as_deref() == Some(name)).then_some(v)
                    }) {
                        out.push((name.to_string(), Value::from(value.as_str())));
                    }
                }
                i = end;
                continue;
            }
            None => {}
        }
        i += 1;
    }
    out
}

/// The placeholder `expandArguments` derives from a request parameter:
/// `name[key]` → `:name_key`, `name` → `:name`.
fn param_placeholder(param: &str) -> Option<String> {
    match param.split_once('[') {
        Some((name, rest)) => rest.strip_suffix(']').map(|key| format!(":{name}_{key}")),
        None => Some(format!(":{param}")),
    }
}

fn elapsed_ns(t: Instant) -> u64 {
    u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn placeholders_bind_from_bracketed_params() {
        let raw = vec![
            ("ids[0]".to_string(), "1".to_string()),
            ("ids[1]".to_string(), "2".to_string()),
            ("ids(key)".to_string(), "1".to_string()),
        ];
        let sql = "SELECT name FROM t WHERE note = ':ids_9' AND id IN (:ids_0, :ids_1)";
        let names: Vec<String> =
            placeholder_bindings(sql, &raw).into_iter().map(|(n, _)| n).collect();
        assert_eq!(names, [":ids_0", ":ids_1"]);
        assert!(placeholder_bindings("SELECT 1", &raw).is_empty());
    }
}
