//! The request pipeline: transform inputs, run the plugin, gate every
//! query, execute against the database.

use crate::app::WebApp;
use crate::gate::{AllowAll, GateDecision, GateFactory, GateSession, RawInput};
use crate::request::HttpRequest;
use joza_db::{Database, DbError};
use joza_phpsim::interp::{Host, Interp, PhpError, QueryOutcome};
use joza_phpsim::vm::Vm;
use std::time::{Duration, Instant};

/// Which phpsim engine executes plugin code.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Engine {
    /// The tree-walking interpreter — the differential oracle.
    TreeWalk,
    /// The bytecode VM over per-route compiled chunks — the default
    /// serving engine. Bit-identical to [`Engine::TreeWalk`] on body,
    /// query stream, `sql_error`, and blocked status (pinned by the
    /// engine-differential suites).
    #[default]
    Vm,
}

impl std::fmt::Display for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Engine::TreeWalk => "tree-walk",
            Engine::Vm => "vm",
        })
    }
}

/// The observable outcome of one request.
#[derive(Debug, Clone, PartialEq)]
pub struct Response {
    /// Everything the plugin echoed. A terminated request yields the blank
    /// page the paper describes (§IV-E).
    pub body: String,
    /// Whether the protection gate terminated the request.
    pub blocked: bool,
    /// Queries the plugin *attempted* (pre-gate), in order.
    pub queries: Vec<String>,
    /// Queries the gate allowed through to the DBMS.
    pub executed: usize,
    /// Virtual DB time consumed (ms) — carries the double-blind signal.
    pub db_time_ms: u64,
    /// Real wall-clock time spent inside the gate (Joza's overhead).
    pub gate_time: Duration,
    /// Real wall-clock time for the whole request.
    pub total_time: Duration,
    /// Last SQL error message surfaced to the application, if any.
    pub sql_error: Option<String>,
}

impl Response {
    /// Whether the plugin produced a DB error visible to the attacker —
    /// the standard-blind signal.
    pub fn had_sql_error(&self) -> bool {
        self.sql_error.is_some()
    }
}

/// A web server: one application + one database (+ optional gate).
pub struct Server {
    /// The application.
    pub app: WebApp,
    /// The backing database.
    pub db: Database,
    /// The phpsim engine plugin code runs under.
    pub engine: Engine,
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server").field("app", &self.app.name).finish_non_exhaustive()
    }
}

impl Server {
    /// Creates a server on the default engine ([`Engine::Vm`]).
    pub fn new(app: WebApp, db: Database) -> Self {
        Server { app, db, engine: Engine::default() }
    }

    /// Selects the phpsim engine (builder style).
    #[must_use]
    pub fn with_engine(mut self, engine: Engine) -> Self {
        self.engine = engine;
        self
    }

    /// Selects the phpsim engine in place.
    pub fn set_engine(&mut self, engine: Engine) {
        self.engine = engine;
    }

    /// Handles a request without protection (the plain baseline).
    pub fn handle(&mut self, request: &HttpRequest) -> Response {
        self.handle_with(request, &AllowAll)
    }

    /// Handles a request with every query routed through a session opened
    /// on `factory` — the multi-worker entry point: the factory is `&self`
    /// and [`Sync`], so N servers (one per worker thread) can share one
    /// protection engine.
    pub fn handle_with(&mut self, request: &HttpRequest, factory: &dyn GateFactory) -> Response {
        let started = Instant::now();
        // 1. Preprocessing: hand the gate the *raw* inputs (§IV-B).
        let raw = raw_inputs(request);
        let gate_t0 = Instant::now();
        let mut session = factory.session(&request.path, &raw);
        let mut gate_time = gate_t0.elapsed();

        // 2. Apply the framework input pipeline and populate superglobals.
        let pipeline = self.app.input_pipeline.clone();
        let extra = self.app.plugin(&request.path).map(|p| p.extra_transforms.clone());
        let render_cost = self.app.plugin(&request.path).map_or(Duration::ZERO, |p| p.render_cost);

        // 3. Fetch the route's execution artifact — the Arc-cached
        // bytecode chunk (VM) or parsed program (tree-walk); nothing is
        // cloned per request.
        let artifact = match self.engine {
            Engine::Vm => self.app.chunk(&request.path).map(RouteArtifact::Chunk),
            Engine::TreeWalk => self.app.program_arc(&request.path).map(RouteArtifact::Ast),
        };
        let artifact = match artifact {
            Ok(a) => a,
            Err(e) => {
                return Response {
                    body: format!("404 {e}"),
                    blocked: false,
                    queries: Vec::new(),
                    executed: 0,
                    db_time_ms: 0,
                    gate_time,
                    total_time: started.elapsed(),
                    sql_error: None,
                }
            }
        };

        // 4. Run the plugin with a host that gates every query.
        let db_t0 = self.db.clock_ms();
        let mut host = GatedHost {
            db: &mut self.db,
            gate: session.as_mut(),
            queries: Vec::new(),
            executed: 0,
            gate_time: Duration::ZERO,
            last_error: None,
        };
        let (run, body) = match artifact {
            RouteArtifact::Chunk(chunk) => {
                let mut vm = Vm::new(&mut host);
                for (k, v) in &request.get {
                    let tv = apply_all(&pipeline, &extra, v);
                    vm.set_get_param(k, &tv);
                }
                for (k, v) in &request.post {
                    let tv = apply_all(&pipeline, &extra, v);
                    vm.set_post_param(k, &tv);
                }
                for (k, v) in &request.cookies {
                    let tv = apply_all(&pipeline, &extra, v);
                    vm.set_cookie(k, &tv);
                }
                for (k, v) in &request.headers {
                    let key = format!("HTTP_{}", k.to_ascii_uppercase().replace('-', "_"));
                    vm.set_server_var(&key, v);
                }
                let run = vm.run(&chunk);
                (run, vm.output().to_string())
            }
            RouteArtifact::Ast(program) => {
                let mut interp = Interp::new(&mut host);
                for (k, v) in &request.get {
                    let tv = apply_all(&pipeline, &extra, v);
                    interp.set_get_param(k, &tv);
                }
                for (k, v) in &request.post {
                    let tv = apply_all(&pipeline, &extra, v);
                    interp.set_post_param(k, &tv);
                }
                for (k, v) in &request.cookies {
                    let tv = apply_all(&pipeline, &extra, v);
                    interp.set_cookie(k, &tv);
                }
                for (k, v) in &request.headers {
                    let key = format!("HTTP_{}", k.to_ascii_uppercase().replace('-', "_"));
                    interp.set_server_var(&key, v);
                }
                let run = interp.run(&program);
                (run, interp.output().to_string())
            }
        };
        // 5. Simulated theme/template render work (§VI cost model). A
        // terminated request renders nothing — the user gets a blank page.
        if !matches!(run, Err(PhpError::Terminated)) {
            crate::cost::simulate(render_cost);
        }
        gate_time += host.gate_time;
        let queries = std::mem::take(&mut host.queries);
        let executed = host.executed;
        let sql_error = host.last_error.take();
        let db_time_ms = self.db.clock_ms() - db_t0;

        match run {
            Ok(()) => Response {
                body,
                blocked: false,
                queries,
                executed,
                db_time_ms,
                gate_time,
                total_time: started.elapsed(),
                sql_error,
            },
            Err(PhpError::Terminated) => Response {
                // Termination policy: blank page (§IV-E).
                body: String::new(),
                blocked: true,
                queries,
                executed,
                db_time_ms,
                gate_time,
                total_time: started.elapsed(),
                sql_error,
            },
            Err(PhpError::Runtime(msg)) => Response {
                body: format!("{body}\nPHP Fatal error: {msg}"),
                blocked: false,
                queries,
                executed,
                db_time_ms,
                gate_time,
                total_time: started.elapsed(),
                sql_error,
            },
        }
    }
}

/// The per-route execution artifact the engine dispatch selects.
enum RouteArtifact {
    /// A compiled bytecode chunk ([`Engine::Vm`]).
    Chunk(std::sync::Arc<joza_phpsim::Chunk>),
    /// A parsed statement list ([`Engine::TreeWalk`]).
    Ast(std::sync::Arc<Vec<joza_phpsim::ast::Stmt>>),
}

fn raw_inputs(request: &HttpRequest) -> Vec<RawInput> {
    request
        .all_inputs()
        .into_iter()
        .map(|(source, name, value)| RawInput { source, name, value })
        .collect()
}

fn apply_all(
    pipeline: &crate::transform::TransformPipeline,
    extra: &Option<crate::transform::TransformPipeline>,
    value: &str,
) -> String {
    let v = pipeline.apply(value);
    match extra {
        Some(e) => e.apply(&v),
        None => v,
    }
}

/// The interpreter host that enforces gate decisions.
struct GatedHost<'a> {
    db: &'a mut Database,
    gate: &'a mut dyn GateSession,
    queries: Vec<String>,
    executed: usize,
    gate_time: Duration,
    last_error: Option<String>,
}

impl GatedHost<'_> {
    /// Runs the gate for one outgoing command text; returns `None` when
    /// the command may proceed.
    fn gate_decision(&mut self, sql: &str) -> Option<QueryOutcome> {
        self.queries.push(sql.to_string());
        let t0 = Instant::now();
        let decision = self.gate.check(sql);
        self.gate_time += t0.elapsed();
        match decision {
            GateDecision::Allow => None,
            GateDecision::ErrorVirtualize => {
                let msg = "query blocked".to_string();
                self.last_error = Some(msg.clone());
                Some(QueryOutcome::Error(msg))
            }
            GateDecision::Terminate => Some(QueryOutcome::Terminated),
        }
    }

    fn outcome(
        &mut self,
        result: Result<joza_db::QueryResult, DbError>,
        sql: &str,
    ) -> QueryOutcome {
        match result {
            Ok(result) => {
                // Second-order capture: values fetched from cells the
                // static pass marked dirty become DB-sourced inputs the
                // gate matches against for the rest of the request.
                if !result.rows.is_empty() && !result.origins.is_empty() {
                    let t0 = Instant::now();
                    for (i, origins) in result.origins.iter().enumerate() {
                        let dirty = origins.iter().find(|(t, c)| self.gate.dirty_cell(t, c));
                        if let Some((table, column)) = dirty {
                            for row in &result.rows {
                                match row.get(i) {
                                    Some(v) if !v.is_null() => {
                                        self.gate.capture_db_input(table, column, &v.as_str());
                                    }
                                    _ => {}
                                }
                            }
                        }
                    }
                    self.gate_time += t0.elapsed();
                }
                let rows = result
                    .rows
                    .iter()
                    .map(|row| {
                        result
                            .columns
                            .iter()
                            .zip(row)
                            .map(|(c, v)| {
                                (c.clone(), if v.is_null() { String::new() } else { v.as_str() })
                            })
                            .collect()
                    })
                    .collect();
                QueryOutcome::Rows(rows)
            }
            Err(e) => {
                let msg = match &e {
                    DbError::Parse(_) => format!(
                        "You have an error in your SQL syntax; check the manual near '{}'",
                        sql.chars()
                            .rev()
                            .take(20)
                            .collect::<String>()
                            .chars()
                            .rev()
                            .collect::<String>()
                    ),
                    other => other.to_string(),
                };
                self.last_error = Some(msg.clone());
                QueryOutcome::Error(msg)
            }
        }
    }
}

impl Host for GatedHost<'_> {
    fn query(&mut self, sql: &str) -> QueryOutcome {
        if let Some(blocked) = self.gate_decision(sql) {
            return blocked;
        }
        self.executed += 1;
        let result = self.db.execute(sql);
        self.outcome(result, sql)
    }

    fn query_prepared(&mut self, sql: &str, params: &[(String, String)]) -> QueryOutcome {
        // The gate inspects the *statement text sent to be prepared* —
        // bound values are data by contract and are not part of the
        // command (§V-B: the Drupal attack lives in the text, not the
        // values).
        if let Some(blocked) = self.gate_decision(sql) {
            return blocked;
        }
        self.executed += 1;
        let values: Vec<(String, joza_db::Value)> =
            params.iter().map(|(k, v)| (k.clone(), joza_db::Value::from(v.as_str()))).collect();
        let result = self.db.execute_prepared(sql, &values);
        self.outcome(result, sql)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::app::Plugin;
    use joza_db::Value;

    fn demo_server() -> Server {
        let mut app = WebApp::wordpress_style("demo");
        app.add_plugin(Plugin::new(
            "show-post",
            "1.0",
            r#"
            $id = $_GET['id'];
            $r = mysql_query("SELECT title FROM posts WHERE id=" . $id);
            if ($r) {
                while ($row = mysql_fetch_assoc($r)) { echo $row['title'], "\n"; }
            } else {
                echo "DB error: ", mysql_error();
            }
            "#,
        ));
        app.add_plugin(Plugin::new(
            "add-comment",
            "1.0",
            r#"
            $text = $_POST['text'];
            $ok = mysql_query("INSERT INTO comments (body) VALUES ('" . $text . "')");
            if ($ok) { echo "saved"; } else { echo "error: ", mysql_error(); }
            "#,
        ));
        let mut db = Database::new();
        db.create_table("posts", &["id", "title"]);
        db.insert_row("posts", vec![Value::Int(1), "First Post".into()]);
        db.insert_row("posts", vec![Value::Int(2), "Second".into()]);
        db.create_table("comments", &["body"]);
        db.create_table("users", &["id", "user_pass"]);
        db.insert_row("users", vec![Value::Int(1), "sup3rs3cret".into()]);
        Server::new(app, db)
    }

    #[test]
    fn benign_read() {
        let mut s = demo_server();
        let resp = s.handle(&HttpRequest::get("show-post").param("id", "1"));
        assert_eq!(resp.body.trim(), "First Post");
        assert_eq!(resp.queries.len(), 1);
        assert_eq!(resp.executed, 1);
        assert!(!resp.blocked);
    }

    #[test]
    fn union_attack_leaks_without_protection() {
        let mut s = demo_server();
        let resp = s.handle(
            &HttpRequest::get("show-post").param("id", "-1 UNION SELECT user_pass FROM users"),
        );
        assert!(resp.body.contains("sup3rs3cret"), "unprotected app must leak: {}", resp.body);
    }

    #[test]
    fn write_path_inserts() {
        let mut s = demo_server();
        let resp = s.handle(&HttpRequest::post("add-comment").param("text", "nice article"));
        assert_eq!(resp.body, "saved");
        assert_eq!(s.db.table("comments").unwrap().len(), 1);
    }

    #[test]
    fn magic_quotes_neutralize_quoted_injection_on_write() {
        let mut s = demo_server();
        // The classic `'); DROP...` style breakout is escaped by magic
        // quotes before reaching the quoted INSERT context.
        let resp = s.handle(&HttpRequest::post("add-comment").param("text", "x') , ('y"));
        assert_eq!(resp.body, "saved");
    }

    /// A gate that answers every query with one fixed decision and
    /// records the raw inputs each session was opened with.
    struct Fixed {
        decision: GateDecision,
        inputs: std::sync::Mutex<Vec<String>>,
    }

    impl Fixed {
        fn new(decision: GateDecision) -> Self {
            Fixed { decision, inputs: Default::default() }
        }
    }

    impl GateSession for GateDecision {
        fn check(&mut self, _sql: &str) -> GateDecision {
            *self
        }
    }

    impl GateFactory for Fixed {
        fn session<'a>(&'a self, _route: &str, inputs: &[RawInput]) -> Box<dyn GateSession + 'a> {
            *self.inputs.lock().unwrap() = inputs.iter().map(|i| i.value.clone()).collect();
            Box::new(self.decision)
        }
    }

    #[test]
    fn terminate_gate_blanks_page() {
        let mut s = demo_server();
        let gate = Fixed::new(GateDecision::Terminate);
        let resp = s.handle_with(&HttpRequest::get("show-post").param("id", "1"), &gate);
        assert!(resp.blocked);
        assert_eq!(resp.body, "");
        assert_eq!(resp.executed, 0);
        assert_eq!(resp.queries.len(), 1);
    }

    #[test]
    fn error_virtualization_lets_app_handle_it() {
        let mut s = demo_server();
        let gate = Fixed::new(GateDecision::ErrorVirtualize);
        let resp = s.handle_with(&HttpRequest::get("show-post").param("id", "1"), &gate);
        assert!(!resp.blocked);
        assert!(resp.body.contains("DB error"));
    }

    #[test]
    fn unknown_route_is_404() {
        let mut s = demo_server();
        let resp = s.handle(&HttpRequest::get("nope"));
        assert!(resp.body.starts_with("404"));
    }

    #[test]
    fn sql_error_surfaces_to_application() {
        let mut s = demo_server();
        // Unbalanced quote in input: magic quotes escapes it, so the query
        // stays valid. Use a direct syntax break instead (no quotes).
        let resp = s.handle(&HttpRequest::get("show-post").param("id", "1 ORDER"));
        assert!(resp.body.contains("DB error"), "{}", resp.body);
        assert!(resp.had_sql_error());
    }

    #[test]
    fn over_deep_nesting_surfaces_as_sql_error() {
        // The gate only lexes, so a request can carry a statement nested
        // far past the parser's limit; it must come back as an SQL error,
        // not abort the process.
        let mut s = demo_server();
        let n = 100_000;
        let id = format!("{}1{}", "(".repeat(n), ")".repeat(n));
        let resp = s.handle(&HttpRequest::get("show-post").param("id", &id));
        assert!(resp.had_sql_error(), "{:?}", resp.sql_error);
        assert!(resp.body.contains("DB error"));
        assert!(!resp.blocked);
        let resp = s.handle(&HttpRequest::get("show-post").param("id", "1"));
        assert_eq!(resp.body.trim(), "First Post");
    }

    #[test]
    fn double_blind_timing_visible_in_response() {
        let mut s = demo_server();
        let slow = s.handle(&HttpRequest::get("show-post").param("id", "1 AND SLEEP(3)"));
        assert!(slow.db_time_ms >= 3000);
        let fast = s.handle(&HttpRequest::get("show-post").param("id", "1 AND SLEEP(0)"));
        assert!(fast.db_time_ms < 1000);
    }

    #[test]
    fn gate_sees_raw_inputs_before_transforms() {
        let mut s = demo_server();
        let gate = Fixed::new(GateDecision::Allow);
        s.handle_with(&HttpRequest::get("show-post").param("id", "it's raw"), &gate);
        // Magic quotes would have produced `it\'s raw`; the gate must see
        // the original.
        assert_eq!(*gate.inputs.lock().unwrap(), ["it's raw"]);
    }
}
