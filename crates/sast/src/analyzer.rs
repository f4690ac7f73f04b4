//! The abstract interpreter: a flow-sensitive worklist fixpoint over the
//! taint lattice, walking statements in the same preorder the parser's
//! span table uses.
//!
//! The variable environment maps names to [`AbstractVal`]s; arrays are
//! smashed (one abstract value per variable, indices joined in — written
//! *keys* included, since array keys are an injection channel).
//! Branches are analyzed on cloned environments and joined afterwards, so
//! a sanitizer inside only one `if` arm never clears taint on the join.
//! Loop bodies iterate to a fixpoint on (taint, provenance) — the finite
//! lattice guarantees termination; traces are bounded separately.
//! `break`/`continue` terminate their abstract path: the environment at
//! the jump is recorded (break states join the loop's exit state,
//! continue states its next-iteration entry) and the statements after the
//! jump are skipped on that path, so a strong update in unreachable tail
//! code can never scrub taint that concretely escapes the loop.

use crate::lattice::{AbstractVal, Taint};
use crate::summaries::{effect_of, is_sink, Effect};
use joza_phpsim::ast::{AssignOp, BinOp, Expr, InterpPart, Stmt, UnaryOp};
use joza_phpsim::parser::parse_program_spanned;
use joza_phpsim::span::Span;
use std::collections::BTreeMap;

/// Analyzer configuration.
#[derive(Debug, Clone, Default)]
pub struct AnalyzerConfig {
    /// When true, the framework escapes every request input before plugin
    /// code runs (WordPress magic quotes), so source reads start at
    /// `MaybeTainted` instead of `Tainted`. `stripslashes`-style decodes
    /// restore them to `Tainted`.
    pub input_escaped: bool,
    /// DB-sourced taint: sink call sites (by preorder statement id) whose
    /// *result handles* carry attacker-reachable stored data. The handle
    /// returned at such a site is `Tainted` with the given `db:<cell>`
    /// source labels, and row fetches propagate it onward. Empty for
    /// plain first-order analysis; `crate::storeflow` fills it in from
    /// the cross-route store/load fixpoint. Magic quotes do *not*
    /// downgrade these sources: the framework escapes request input, but
    /// values read back from the database are raw (SQL parsing already
    /// unescaped them on the way in).
    pub db_sources: BTreeMap<usize, Vec<String>>,
}

/// One statically-inferred source→sink flow.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Endpoint (route slug / file label) the flow is in.
    pub endpoint: String,
    /// Preorder statement id of the sink call.
    pub stmt_id: usize,
    /// Byte span of the sink statement.
    pub span: Span,
    /// 1-based source line of the sink statement.
    pub line: usize,
    /// Sink builtin name (`mysql_query`, …).
    pub sink: String,
    /// Worst taint reaching the sink.
    pub taint: Taint,
    /// Request parameters that can reach the sink (sorted).
    pub sources: Vec<String>,
    /// Bounded source→sink hop trace.
    pub trace: Vec<String>,
    /// First line of the sink statement's source text (trimmed).
    pub snippet: String,
}

/// Per-endpoint result: the gate fast-path contract plus findings.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaintSummary {
    /// Endpoint (route slug) analyzed.
    pub endpoint: String,
    /// True iff every DB sink in the endpoint receives only `Untainted`
    /// data (and the source parsed). Endpoints with no sinks are
    /// taint-free. This is the *only* condition under which the core
    /// engine's static fast-path stage may skip NTI and PTI.
    pub taint_free: bool,
    /// Number of distinct sink call sites seen.
    pub sink_count: usize,
    /// Flows whose sink taint exceeds `Untainted`, sorted by
    /// (endpoint, span.lo, sink) for deterministic output.
    pub findings: Vec<Finding>,
    /// Parse failure, if any (conservatively not taint-free).
    pub parse_error: Option<String>,
}

/// Analyzes one endpoint's source text.
pub fn analyze_source(endpoint: &str, src: &str, config: &AnalyzerConfig) -> TaintSummary {
    let (prog, spans) = match parse_program_spanned(src) {
        Ok(ok) => ok,
        Err(e) => {
            // Unparsable source cannot be proven taint-free.
            return TaintSummary {
                endpoint: endpoint.to_string(),
                taint_free: false,
                sink_count: 0,
                findings: Vec::new(),
                parse_error: Some(e.to_string()),
            };
        }
    };
    let mut interp = AbstractInterp {
        endpoint,
        src,
        spans: &spans,
        config,
        sinks: BTreeMap::new(),
        break_frames: Vec::new(),
        continue_frames: Vec::new(),
    };
    let mut env = Env::new();
    let mut next = 0usize;
    interp.eval_block(&prog, &mut env, &mut next);

    let sink_count = interp.sinks.len();
    let mut findings: Vec<Finding> =
        interp.sinks.into_values().filter(|f| f.taint > Taint::Untainted).collect();
    findings.sort_by(|a, b| {
        (a.endpoint.as_str(), a.span.lo, a.sink.as_str()).cmp(&(
            b.endpoint.as_str(),
            b.span.lo,
            b.sink.as_str(),
        ))
    });
    TaintSummary {
        endpoint: endpoint.to_string(),
        taint_free: findings.is_empty(),
        sink_count,
        findings,
        parse_error: None,
    }
}

type Env = BTreeMap<String, AbstractVal>;

/// Superglobals treated as attacker-controlled sources.
const SOURCE_SUPERGLOBALS: &[&str] = &["_GET", "_POST", "_COOKIE", "_REQUEST"];

/// Loop-fixpoint safety bound; the lattice converges far earlier.
const MAX_LOOP_ITERS: usize = 50;

/// How a statement (or block) hands control onward on one abstract path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Flow {
    /// Execution continues with the next statement.
    Normal,
    /// The path left via `break`/`continue`; its environment has already
    /// been recorded with the enclosing loop.
    Exited,
}

struct AbstractInterp<'a> {
    endpoint: &'a str,
    src: &'a str,
    spans: &'a [Span],
    config: &'a AnalyzerConfig,
    /// All sink call sites keyed by (stmt id, sink name); re-visits from
    /// loop fixpoints join in.
    sinks: BTreeMap<(usize, String), Finding>,
    /// Per enclosing loop, the environments captured at `break`
    /// statements — joined into the loop's exit state.
    break_frames: Vec<Vec<Env>>,
    /// Per enclosing loop, the environments captured at `continue`
    /// statements — joined into the next iteration's entry state.
    continue_frames: Vec<Vec<Env>>,
}

impl AbstractInterp<'_> {
    fn source_taint(&self) -> Taint {
        if self.config.input_escaped {
            Taint::MaybeTainted
        } else {
            Taint::Tainted
        }
    }

    /// Walks a statement list, assigning preorder ids that mirror
    /// `joza_phpsim::visit::walk_program`.
    ///
    /// Stops evaluating after a statement that exits the path
    /// (`break`/`continue`), but still advances `next` past the skipped
    /// tail so preorder ids stay aligned with `walk_program`.
    fn eval_block(&mut self, stmts: &[Stmt], env: &mut Env, next: &mut usize) -> Flow {
        for (i, stmt) in stmts.iter().enumerate() {
            if self.eval_stmt(stmt, env, next) == Flow::Exited {
                *next += count_block(&stmts[i + 1..]);
                return Flow::Exited;
            }
        }
        Flow::Normal
    }

    fn eval_stmt(&mut self, stmt: &Stmt, env: &mut Env, next: &mut usize) -> Flow {
        let id = *next;
        *next += 1;
        match stmt {
            Stmt::Expr(e) => {
                self.eval_expr(e, env, id);
            }
            Stmt::Assign { var, indices, op, expr } => {
                let mut idx_taint = AbstractVal::untainted();
                for idx in indices.iter().flatten() {
                    idx_taint = idx_taint.join(&self.eval_expr(idx, env, id));
                }
                let mut val = self.eval_expr(expr, env, id);
                match op {
                    Some(AssignOp::Concat) => {
                        let old = env.get(var).cloned().unwrap_or_default();
                        val = old.join(&val);
                    }
                    Some(AssignOp::Add) | Some(AssignOp::Sub) => {
                        // Arithmetic coerces to a number: attacker bytes
                        // cannot survive.
                        val = AbstractVal::untainted();
                    }
                    None => {}
                }
                val.push_hop(&format!("${var}"));
                if indices.is_empty() {
                    env.insert(var.clone(), val);
                } else {
                    // Smashed arrays: weak update (join into the whole),
                    // and the written *key* taints the array too — foreach
                    // reads keys back out of the smashed value.
                    val = val.join(&idx_taint);
                    let joined = env.get(var).map_or_else(|| val.clone(), |old| old.join(&val));
                    env.insert(var.clone(), joined);
                }
            }
            Stmt::If { cond, then_branch, else_branch } => {
                self.eval_expr(cond, env, id);
                let mut then_env = env.clone();
                let then_flow = self.eval_block(then_branch, &mut then_env, next);
                let mut else_env = env.clone();
                let else_flow = self.eval_block(else_branch, &mut else_env, next);
                // A branch that exited contributes no state to the code
                // after the `if` — its environment was recorded with the
                // enclosing loop when the jump was evaluated.
                match (then_flow, else_flow) {
                    (Flow::Normal, Flow::Normal) => *env = join_env(&then_env, &else_env),
                    (Flow::Normal, Flow::Exited) => *env = then_env,
                    (Flow::Exited, Flow::Normal) => *env = else_env,
                    (Flow::Exited, Flow::Exited) => return Flow::Exited,
                }
            }
            Stmt::While { cond, body } => {
                self.eval_expr(cond, env, id);
                self.loop_fixpoint(body, env, next, |interp, body, env, next| {
                    interp.eval_block(body, env, next);
                });
                // Re-read the condition on the post state (side effects in
                // `while ($row = fetch(...))` style conditions).
                self.eval_expr(cond, env, id);
            }
            Stmt::Foreach { array, key_var, val_var, body } => {
                let arr = self.eval_expr(array, env, id);
                let kv = key_var.clone();
                let vv = val_var.clone();
                self.loop_fixpoint(body, env, next, move |interp, body, env, next| {
                    // Smashed arrays: both keys and values carry the
                    // array's taint (array *keys* are the CVE-2014-3704
                    // channel).
                    let mut elem = arr.clone();
                    elem.push_hop(&format!("${vv}"));
                    env.insert(vv.clone(), elem);
                    if let Some(k) = &kv {
                        let mut key_val = arr.clone();
                        key_val.push_hop(&format!("${k}"));
                        env.insert(k.clone(), key_val);
                    }
                    interp.eval_block(body, env, next);
                });
            }
            Stmt::Echo(exprs) => {
                for e in exprs {
                    self.eval_expr(e, env, id);
                }
            }
            Stmt::Return(value) | Stmt::Exit(value) => {
                if let Some(e) = value {
                    self.eval_expr(e, env, id);
                }
            }
            Stmt::Break => {
                if let Some(frame) = self.break_frames.last_mut() {
                    frame.push(env.clone());
                }
                return Flow::Exited;
            }
            Stmt::Continue => {
                if let Some(frame) = self.continue_frames.last_mut() {
                    frame.push(env.clone());
                }
                return Flow::Exited;
            }
        }
        Flow::Normal
    }

    /// Runs `body` repeatedly (each pass numbering statements from the
    /// same preorder base) until the environment stops changing on
    /// (taint, provenance), then advances `next` past the body.
    ///
    /// `continue` states from a pass are joined into the next iteration's
    /// entry; `break` states are joined into the loop's exit, so state at
    /// a mid-body jump can never be scrubbed by the (unreachable) tail of
    /// the body.
    fn loop_fixpoint<F>(&mut self, body: &[Stmt], env: &mut Env, next: &mut usize, mut pass: F)
    where
        F: FnMut(&mut Self, &[Stmt], &mut Env, &mut usize),
    {
        let body_start = *next;
        let body_len = count_block(body);
        self.break_frames.push(Vec::new());
        self.continue_frames.push(Vec::new());
        for _ in 0..MAX_LOOP_ITERS {
            let mut trial = env.clone();
            let mut counter = body_start;
            pass(self, body, &mut trial, &mut counter);
            debug_assert_eq!(counter, body_start + body_len);
            for cont in self.continue_frames.last_mut().expect("loop frame").drain(..) {
                trial = join_env(&trial, &cont);
            }
            let joined = join_env(env, &trial);
            if env_converged(env, &joined) {
                break;
            }
            *env = joined;
        }
        self.continue_frames.pop();
        for broke in self.break_frames.pop().expect("loop frame") {
            *env = join_env(env, &broke);
        }
        *next = body_start + body_len;
    }

    fn eval_expr(&mut self, expr: &Expr, env: &mut Env, stmt_id: usize) -> AbstractVal {
        match expr {
            Expr::Lit(_) => AbstractVal::untainted(),
            Expr::Var(name) => self.read_var(name, env),
            Expr::Interp(parts) => {
                let mut out = AbstractVal::untainted();
                for p in parts {
                    if let InterpPart::Var(name) = p {
                        out = out.join(&self.read_var(name, env));
                    }
                }
                out
            }
            Expr::Index { base, index } => {
                if let Expr::Var(name) = base.as_ref() {
                    if is_source_superglobal(name) {
                        self.eval_expr(index, env, stmt_id);
                        let label = source_label(name, index);
                        return AbstractVal::source(&label, self.source_taint());
                    }
                }
                let b = self.eval_expr(base, env, stmt_id);
                let i = self.eval_expr(index, env, stmt_id);
                // Reading a tainted index out of an untainted array yields
                // untainted data; only the array's own taint flows out.
                let _ = i;
                b
            }
            Expr::Call { name, args } => self.eval_call(name, args, env, stmt_id),
            Expr::Unary { op, expr } => {
                let v = self.eval_expr(expr, env, stmt_id);
                match op {
                    // `@expr` is a transparent pass-through.
                    UnaryOp::Silence => v,
                    // `!`/`-` coerce to bool/number.
                    UnaryOp::Not | UnaryOp::Neg => AbstractVal::untainted(),
                }
            }
            Expr::Binary { left, op, right } => {
                let l = self.eval_expr(left, env, stmt_id);
                let r = self.eval_expr(right, env, stmt_id);
                match op {
                    BinOp::Concat => l.join(&r),
                    // Arithmetic and comparisons coerce attacker strings
                    // away.
                    _ => AbstractVal::untainted(),
                }
            }
            Expr::Ternary { cond, then_val, else_val } => {
                let c = self.eval_expr(cond, env, stmt_id);
                let e = self.eval_expr(else_val, env, stmt_id);
                match then_val {
                    Some(t) => {
                        let t = self.eval_expr(t, env, stmt_id);
                        t.join(&e)
                    }
                    // `$a ?: $b` evaluates to the condition when truthy.
                    None => c.join(&e),
                }
            }
            Expr::ArrayLit(items) => {
                // Smashed: the array's abstract value is the join of every
                // key and value (keys matter: CVE-2014-3704).
                let mut out = AbstractVal::untainted();
                for (k, v) in items {
                    if let Some(k) = k {
                        out = out.join(&self.eval_expr(k, env, stmt_id));
                    }
                    out = out.join(&self.eval_expr(v, env, stmt_id));
                }
                out
            }
            Expr::Isset(exprs) => {
                for e in exprs {
                    self.eval_expr(e, env, stmt_id);
                }
                AbstractVal::untainted()
            }
            Expr::Empty(e) => {
                self.eval_expr(e, env, stmt_id);
                AbstractVal::untainted()
            }
            Expr::AssignExpr { var, expr } => {
                let mut v = self.eval_expr(expr, env, stmt_id);
                v.push_hop(&format!("${var}"));
                env.insert(var.clone(), v.clone());
                v
            }
        }
    }

    fn read_var(&self, name: &str, env: &Env) -> AbstractVal {
        if is_source_superglobal(name) {
            // A bare `$_GET` read taints with an unknown parameter.
            return AbstractVal::source(&format!("${name}[*]"), self.source_taint());
        }
        env.get(name).cloned().unwrap_or_default()
    }

    fn eval_call(
        &mut self,
        name: &str,
        args: &[Expr],
        env: &mut Env,
        stmt_id: usize,
    ) -> AbstractVal {
        let mut joined = AbstractVal::untainted();
        for a in args {
            let v = self.eval_expr(a, env, stmt_id);
            joined = joined.join(&v);
        }
        if is_sink(name) {
            self.record_sink(stmt_id, name, &joined);
            if let Some(cells) = self.config.db_sources.get(&stmt_id) {
                // This sink's result handle reads attacker-reachable
                // cells: the handle is tainted with db-cell provenance
                // (fetches propagate it to every row value).
                let mut v = AbstractVal::untainted();
                for cell in cells {
                    v = v.join(&AbstractVal::source(cell, Taint::Tainted));
                }
                v.push_hop(&format!("{}()", name.to_ascii_lowercase()));
                return v;
            }
        }
        match effect_of(name) {
            Effect::Propagate => joined,
            Effect::Escape => {
                if joined.taint == Taint::Untainted {
                    AbstractVal::untainted()
                } else {
                    let mut v = joined;
                    v.taint = Taint::MaybeTainted;
                    v.push_hop(&format!("{}()", name.to_ascii_lowercase()));
                    v
                }
            }
            Effect::Sanitize | Effect::Fresh => AbstractVal::untainted(),
            Effect::Unescape => {
                if joined.taint == Taint::Untainted {
                    AbstractVal::untainted()
                } else {
                    let mut v = joined;
                    v.taint = Taint::Tainted;
                    v.push_hop(&format!("{}()", name.to_ascii_lowercase()));
                    v
                }
            }
        }
    }

    fn record_sink(&mut self, stmt_id: usize, sink: &str, val: &AbstractVal) {
        let sink = sink.to_ascii_lowercase();
        let span = self.spans.get(stmt_id).copied().unwrap_or_default();
        let entry = self.sinks.entry((stmt_id, sink.clone())).or_insert_with(|| Finding {
            endpoint: self.endpoint.to_string(),
            stmt_id,
            span,
            line: span.line(self.src),
            sink,
            taint: Taint::Untainted,
            sources: Vec::new(),
            trace: Vec::new(),
            snippet: snippet(span.slice(self.src)),
        });
        if val.taint > entry.taint
            || (val.taint == entry.taint && entry.trace.is_empty() && !val.trace.is_empty())
        {
            entry.trace = val.trace.clone();
        }
        entry.taint = entry.taint.join(val.taint);
        for s in &val.sources {
            if !entry.sources.contains(s) {
                entry.sources.push(s.clone());
            }
        }
        entry.sources.sort();
    }
}

fn is_source_superglobal(name: &str) -> bool {
    SOURCE_SUPERGLOBALS.contains(&name)
}

fn source_label(superglobal: &str, index: &Expr) -> String {
    use joza_phpsim::value::PValue;
    match index {
        Expr::Lit(PValue::Str(s)) => format!("$_{}['{}']", &superglobal[1..], s),
        Expr::Lit(PValue::Int(i)) => format!("$_{}[{}]", &superglobal[1..], i),
        _ => format!("$_{}[?]", &superglobal[1..]),
    }
}

fn snippet(stmt_text: &str) -> String {
    let first = stmt_text.lines().next().unwrap_or("").trim();
    if first.chars().count() > 72 {
        let cut: String = first.chars().take(71).collect();
        format!("{cut}…")
    } else {
        first.to_string()
    }
}

fn join_env(a: &Env, b: &Env) -> Env {
    let mut out = a.clone();
    for (k, v) in b {
        match out.get(k) {
            Some(existing) => {
                let joined = existing.join(v);
                out.insert(k.clone(), joined);
            }
            // Present in one branch only: join with the implicit
            // untainted/undefined default keeps the branch's taint.
            None => {
                out.insert(k.clone(), v.clone());
            }
        }
    }
    out
}

fn env_converged(old: &Env, new: &Env) -> bool {
    old.len() == new.len()
        && old.iter().zip(new.iter()).all(|((ka, va), (kb, vb))| ka == kb && va.same_abstract(vb))
}

/// Number of statements in a subtree — must agree with the preorder
/// numbering in `joza_phpsim::visit`.
fn count_block(stmts: &[Stmt]) -> usize {
    stmts.iter().map(count_stmt).sum()
}

fn count_stmt(stmt: &Stmt) -> usize {
    1 + match stmt {
        Stmt::If { then_branch, else_branch, .. } => {
            count_block(then_branch) + count_block(else_branch)
        }
        Stmt::While { body, .. } | Stmt::Foreach { body, .. } => count_block(body),
        _ => 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn analyze(src: &str) -> TaintSummary {
        analyze_source("test", src, &AnalyzerConfig::default())
    }

    fn analyze_escaped(src: &str) -> TaintSummary {
        analyze_source(
            "test",
            src,
            &AnalyzerConfig { input_escaped: true, ..AnalyzerConfig::default() },
        )
    }

    #[test]
    fn direct_flow_is_tainted() {
        let s = analyze(
            r#"
            $id = $_GET['id'];
            mysql_query("SELECT * FROM t WHERE id=$id");
        "#,
        );
        assert!(!s.taint_free);
        assert_eq!(s.sink_count, 1);
        assert_eq!(s.findings.len(), 1);
        let f = &s.findings[0];
        assert_eq!(f.taint, Taint::Tainted);
        assert_eq!(f.sources, vec!["$_GET['id']".to_string()]);
        assert_eq!(f.trace, vec!["$_GET['id']".to_string(), "$id".to_string()]);
        assert!(f.snippet.contains("mysql_query"));
        assert_eq!(f.line, 3);
    }

    #[test]
    fn escaped_then_concatenated_is_maybe_tainted() {
        let s = analyze(
            r#"
            $name = mysql_real_escape_string($_POST['name']);
            $q = "SELECT * FROM u WHERE name='" . $name . "'";
            mysql_query($q);
        "#,
        );
        assert!(!s.taint_free, "escaped input still reaches the sink");
        assert_eq!(s.findings[0].taint, Taint::MaybeTainted);
        assert_eq!(s.findings[0].sources, vec!["$_POST['name']".to_string()]);
    }

    #[test]
    fn int_cast_is_untainted() {
        let s = analyze(
            r#"
            $id = intval($_GET['id']);
            mysql_query("SELECT * FROM t WHERE id=$id LIMIT 1");
        "#,
        );
        assert!(s.taint_free);
        assert_eq!(s.sink_count, 1);
        assert!(s.findings.is_empty());
    }

    #[test]
    fn sanitizer_in_one_branch_does_not_clear_taint_at_join() {
        let s = analyze(
            r#"
            $id = $_GET['id'];
            if ($mode) {
                $id = intval($id);
            }
            mysql_query("SELECT * FROM t WHERE id=$id");
        "#,
        );
        assert!(!s.taint_free, "the else path still carries raw input");
        assert_eq!(s.findings[0].taint, Taint::Tainted);
    }

    #[test]
    fn sanitizer_on_both_branches_clears_taint() {
        let s = analyze(
            r#"
            $id = $_GET['id'];
            if ($mode) {
                $id = intval($id);
            } else {
                $id = 0;
            }
            mysql_query("SELECT * FROM t WHERE id=$id");
        "#,
        );
        assert!(s.taint_free);
    }

    #[test]
    fn magic_quotes_inputs_start_maybe_then_stripslashes_restores() {
        let escaped = analyze_escaped(
            r#"
            $v = $_GET['v'];
            mysql_query("SELECT * FROM t WHERE v='$v'");
        "#,
        );
        assert_eq!(escaped.findings[0].taint, Taint::MaybeTainted);

        let stripped = analyze_escaped(
            r#"
            $v = stripslashes($_GET['v']);
            mysql_query("SELECT * FROM t WHERE v='$v'");
        "#,
        );
        assert_eq!(stripped.findings[0].taint, Taint::Tainted);

        let decoded = analyze_escaped(
            r#"
            $v = base64_decode($_POST['payload']);
            mysql_query("SELECT * FROM t WHERE v='$v'");
        "#,
        );
        assert_eq!(decoded.findings[0].taint, Taint::Tainted, "decode reverses escaping");
    }

    #[test]
    fn concat_assign_accumulates_taint() {
        let s = analyze(
            r#"
            $q = "SELECT * FROM t WHERE 1=1";
            $q .= " AND name='" . $_GET['name'] . "'";
            mysql_query($q);
        "#,
        );
        assert!(!s.taint_free);
        assert_eq!(s.findings[0].sources, vec!["$_GET['name']".to_string()]);
    }

    #[test]
    fn arithmetic_coerces_taint_away() {
        let s = analyze(
            r#"
            $n = $_GET['n'] + 0;
            $m = $_GET['m'];
            $m += 5;
            mysql_query("SELECT * FROM t LIMIT $n OFFSET $m");
        "#,
        );
        assert!(s.taint_free);
    }

    #[test]
    fn while_loop_reaches_fixpoint_and_finds_flow() {
        let s = analyze(
            r#"
            $q = "SELECT * FROM t WHERE 1=1";
            $i = 0;
            while ($i < 3) {
                $q .= " OR name='" . $_GET['name'] . "'";
                $i += 1;
            }
            mysql_query($q);
        "#,
        );
        assert!(!s.taint_free);
        assert_eq!(s.findings[0].taint, Taint::Tainted);
    }

    #[test]
    fn foreach_array_keys_carry_taint() {
        // The CVE-2014-3704 shape: attacker-controlled array *keys* are
        // spliced into the query text.
        let s = analyze(
            r#"
            $ids = $_POST['ids'];
            $frag = '';
            foreach ($ids as $k => $v) {
                $frag .= $k . ",";
            }
            db_query("SELECT * FROM users WHERE id IN ($frag)");
        "#,
        );
        assert!(!s.taint_free);
        assert_eq!(s.findings[0].sink, "db_query");
        assert_eq!(s.findings[0].sources, vec!["$_POST['ids']".to_string()]);
    }

    #[test]
    fn db_query_array_argument_is_a_sink_channel() {
        let s = analyze(
            r#"
            $ids = $_GET['ids'];
            db_query("SELECT * FROM users WHERE uid IN (:ids)", array(':ids' => $ids));
        "#,
        );
        assert!(!s.taint_free);
    }

    #[test]
    fn no_sinks_means_taint_free() {
        let s = analyze("$x = $_GET['x']; echo $x;");
        assert!(s.taint_free);
        assert_eq!(s.sink_count, 0);
    }

    #[test]
    fn parse_error_is_conservative() {
        let s = analyze("$x = ;");
        assert!(!s.taint_free);
        assert!(s.parse_error.is_some());
    }

    #[test]
    fn findings_sorted_by_span_then_sink() {
        let s = analyze(
            r#"
            $a = $_GET['a'];
            mysql_query("SELECT 1 WHERE x='$a'");
            mysqli_query($c, "SELECT 2 WHERE y='$a'");
        "#,
        );
        assert_eq!(s.findings.len(), 2);
        assert!(s.findings[0].span.lo < s.findings[1].span.lo);
        assert_eq!(s.findings[0].sink, "mysql_query");
        assert_eq!(s.findings[1].sink, "mysqli_query");
    }

    #[test]
    fn ternary_and_isset_guard_still_taints() {
        let s = analyze(
            r#"
            $id = isset($_GET['id']) ? $_GET['id'] : 0;
            mysql_query("SELECT * FROM t WHERE id=$id");
        "#,
        );
        assert!(!s.taint_free);
        assert_eq!(s.findings[0].sources, vec!["$_GET['id']".to_string()]);
    }

    #[test]
    fn string_builders_carry_taint_to_sinks() {
        // Soundness for the querymodel agreement: every construction the
        // structural pass summarizes must still flow taint here.
        let sprintf = analyze(
            r#"
            $q = sprintf("SELECT * FROM t WHERE name='%s'", $_GET['name']);
            mysql_query($q);
        "#,
        );
        assert!(!sprintf.taint_free, "sprintf embeds its arguments verbatim");

        let implode = analyze(
            r#"
            $ids = $_GET['ids'];
            $list = implode(",", $ids);
            mysql_query("SELECT * FROM t WHERE id IN ($list)");
        "#,
        );
        assert!(!implode.taint_free, "implode splices elements unescaped");

        let replaced = analyze(
            r#"
            $v = str_replace("x", "y", $_POST['v']);
            mysql_query("SELECT * FROM t WHERE v='$v'");
        "#,
        );
        assert!(!replaced.taint_free, "str_replace is not a sanitizer");
    }

    #[test]
    fn fetch_results_are_trusted() {
        // Under the plain first-order config no sink site is a DB taint
        // source, so the result handle is Fresh and fetches propagate
        // nothing. `storeflow` re-runs this same analysis with
        // `db_sources` filled in when the read cells are dirty.
        let s = analyze(
            r#"
            $r = mysql_query("SELECT id FROM t");
            while ($row = mysql_fetch_assoc($r)) {
                mysql_query("SELECT * FROM u WHERE id=" . $row);
            }
        "#,
        );
        assert!(s.taint_free, "first-order analysis trusts fetch results");
        assert_eq!(s.sink_count, 2);
    }

    #[test]
    fn db_sources_taint_fetched_rows_to_downstream_sinks() {
        let src = r#"
            $r = mysql_query("SELECT id FROM t");
            while ($row = mysql_fetch_assoc($r)) {
                mysql_query("SELECT * FROM u WHERE id=" . $row);
            }
        "#;
        // The load is the first statement → preorder id 0.
        let mut db_sources = BTreeMap::new();
        db_sources.insert(0usize, vec!["db:t.id".to_string()]);
        let s = analyze_source("test", src, &AnalyzerConfig { input_escaped: false, db_sources });
        assert!(!s.taint_free, "dirty-cell reads re-introduce taint");
        assert_eq!(s.findings.len(), 1);
        let f = &s.findings[0];
        assert_eq!(f.taint, Taint::Tainted);
        assert_eq!(f.sources, vec!["db:t.id".to_string()]);
        assert!(f.snippet.contains("FROM u"), "the downstream sink is the finding");
    }

    #[test]
    fn db_sources_are_not_downgraded_by_magic_quotes() {
        // Stored values are raw: the framework's input escaping already
        // happened (and was undone by SQL parsing) on the *plant* request.
        let src = r#"
            $r = mysql_query("SELECT bio FROM profiles WHERE id=1");
            $row = mysql_fetch_row($r);
            mysql_query("SELECT * FROM posts WHERE author='" . $row . "'");
        "#;
        let mut db_sources = BTreeMap::new();
        db_sources.insert(0usize, vec!["db:profiles.bio".to_string()]);
        let s = analyze_source("test", src, &AnalyzerConfig { input_escaped: true, db_sources });
        assert_eq!(s.findings.len(), 1);
        assert_eq!(s.findings[0].taint, Taint::Tainted);
    }
}
