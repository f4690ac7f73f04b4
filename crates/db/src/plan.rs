//! The plan cache: each statement shape is parsed once.
//!
//! The paper's PTI structure cache keeps "abstract syntax trees of parsed
//! queries without storing contents of data nodes" (§VI-A); this is the
//! database's version of that idea. A statement's *shape* is its token
//! stream with literal contents elided: the kind of every token, and the
//! text of every token that is not a number or string literal. Comments,
//! which the parser skips, are left out. The parser reads nothing else —
//! literal tokens reach the tree only as values, through
//! [`literal_value`] — so two texts of one shape parse to one tree up to
//! literal values, and one nesting depth.
//!
//! A [`PlanCache`] maps shapes to [`Plan`]s: the parsed statement, the
//! literal token each of its literal nodes takes its value from, and the
//! per-shape facts literals cannot change ([`Shape`]). A hit lexes the
//! text, binds its literals into the cached tree and skips the parser. A
//! miss runs the parser, so its errors and its nesting limit are
//! unchanged; a statement that fails to parse is never cached. The cache
//! holds at most two generations of [`PLAN_GENERATION`] shapes, and
//! [`Database::create_table`] clears it, since origins and column names
//! are read from the schema.

use crate::engine::{Database, DbError};
use crate::exec::{output_names, scope_of};
use crate::origins::{select_origins, Origin};
use joza_sqlparse::ast::*;
use joza_sqlparse::lexer::lex_into;
use joza_sqlparse::parser::{literal_value, parse};
use joza_sqlparse::token::{Token, TokenKind};
use joza_sqlparse::Value;
use std::collections::HashMap;
use std::fmt::{self, Write as _};

/// How many shapes one generation of the plan cache holds. The
/// WordPress crawl issues 20 shapes and each lab route a few; every
/// injected statement is a shape of its own, which is why the cache is
/// bounded at all.
pub const PLAN_GENERATION: usize = 256;

/// The most plans the cache holds: two generations.
pub const PLAN_CACHE_CAPACITY: usize = 2 * PLAN_GENERATION;

/// Plan-cache counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PlanCacheStats {
    /// Statements whose shape was cached: no parse ran.
    pub hits: u64,
    /// Statements the parser ran for, failed parses included.
    pub misses: u64,
    /// Plans held now, at most [`PLAN_CACHE_CAPACITY`].
    pub entries: usize,
}

/// What a SELECT's result takes from its shape alone.
#[derive(Debug)]
pub(crate) struct Shape {
    /// Per-output-column origins (empty for writes).
    pub origins: Vec<Vec<Origin>>,
    /// The column names of a non-empty result, unless a projection
    /// renders a literal (or a placeholder bound to one) as its name.
    pub names: Option<Vec<String>>,
}

impl Shape {
    fn of(db: &Database, stmt: &Statement) -> Shape {
        let Statement::Select(sel) = stmt else {
            return Shape { origins: Vec::new(), names: None };
        };
        let named_by_value = sel.projections.iter().any(|p| {
            matches!(
                p,
                Projection::Expr { expr: Expr::Literal(_) | Expr::Placeholder(_), alias: None }
            )
        });
        Shape {
            origins: select_origins(db, sel),
            names: (!named_by_value).then(|| output_names(&scope_of(db, sel), sel)),
        }
    }
}

/// One cached shape.
struct Plan {
    /// The statement, its literal nodes holding the last bound values.
    stmt: Statement,
    /// For each literal node of `stmt`, in [`walk_statement`] order, the
    /// literal token it takes its value from; `None` for the parser's
    /// own literals (`NULL`, `TRUE`, the `1` of `IS TRUE`).
    slots: Vec<Option<usize>>,
    shape: Shape,
}

impl Plan {
    /// The plan of `parsed`'s shape, or `None` when its tree does not
    /// show where each literal token went.
    ///
    /// The text is parsed a second time with literal token `i` replaced
    /// by the string `'i'`; the parser's own literals are never strings,
    /// so every string literal of that tree names its token. The plan is
    /// kept only if binding this text's literals into it gives back
    /// `parsed` exactly.
    fn new(
        db: &Database,
        sql: &str,
        literals: &[Token],
        values: &[Value],
        parsed: &Statement,
    ) -> Option<Plan> {
        let mut text = String::with_capacity(sql.len() + 4 * literals.len());
        let mut at = 0;
        for (i, t) in literals.iter().enumerate() {
            text.push_str(&sql[at..t.start]);
            write!(text, "'{i}' ").expect("writing to a String cannot fail");
            at = t.end;
        }
        text.push_str(&sql[at..]);
        let mut stmt = parse(&text).ok()?;
        let mut slots = Vec::new();
        let mut filled = vec![false; literals.len()];
        walk_statement(&mut stmt, &mut |e| {
            if let Expr::Literal(v) = e {
                let slot = match v {
                    Value::Str(s) => {
                        let i: usize = s.parse().map_err(|_| ())?;
                        if std::mem::replace(filled.get_mut(i).ok_or(())?, true) {
                            return Err(());
                        }
                        Some(i)
                    }
                    _ => None,
                };
                slots.push(slot);
            }
            Ok(())
        })
        .ok()?;
        if !filled.iter().all(|&f| f) {
            return None;
        }
        let mut plan = Plan { stmt, slots, shape: Shape::of(db, parsed) };
        plan.bind(&mut values.to_vec());
        (plan.stmt == *parsed).then_some(plan)
    }

    /// Moves `values` (this text's literal values, in token order) into
    /// the statement's literal nodes.
    fn bind(&mut self, values: &mut [Value]) {
        let mut slots = self.slots.iter();
        let _ = walk_statement(&mut self.stmt, &mut |e| -> Result<(), ()> {
            if let Expr::Literal(v) = e {
                if let Some(Some(i)) = slots.next() {
                    *v = std::mem::replace(&mut values[*i], Value::Null);
                }
            }
            Ok(())
        });
    }
}

/// Parsed statements by shape, bounded to two generations: inserts fill
/// `current` until it holds [`PLAN_GENERATION`] plans, then it replaces
/// `previous`, whose plans are dropped. A hit in `previous` moves the
/// plan to `current`. The buffers are reused from one statement to the
/// next.
#[derive(Default)]
pub(crate) struct PlanCache {
    current: HashMap<Box<[u8]>, Plan>,
    previous: HashMap<Box<[u8]>, Plan>,
    /// A plan that could not be cached, kept for one execution.
    uncached: Option<Plan>,
    tokens: Vec<Token>,
    literals: Vec<Token>,
    values: Vec<Value>,
    key: Vec<u8>,
    hits: u64,
    misses: u64,
}

impl fmt::Debug for PlanCache {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PlanCache").field("stats", &self.stats()).finish()
    }
}

impl PlanCache {
    pub fn stats(&self) -> PlanCacheStats {
        PlanCacheStats {
            hits: self.hits,
            misses: self.misses,
            entries: self.current.len() + self.previous.len(),
        }
    }

    pub fn clear(&mut self) {
        self.current.clear();
        self.previous.clear();
    }

    /// The statement `sql` denotes, with its shape's facts.
    ///
    /// # Errors
    ///
    /// Returns the parser's error when `sql` does not parse.
    pub fn plan(&mut self, db: &Database, sql: &str) -> Result<(&Statement, &Shape), DbError> {
        let PlanCache { current, previous, uncached, tokens, literals, values, key, hits, misses } =
            self;
        lex_into(sql, tokens);
        key.clear();
        literals.clear();
        for t in tokens.iter().filter(|t| t.kind != TokenKind::Comment) {
            key.push(t.kind as u8);
            if t.kind.is_literal() {
                literals.push(*t);
            } else {
                // Token text is UTF-8, so 0xFF cannot occur inside it.
                key.extend_from_slice(t.text(sql).as_bytes());
                key.push(0xFF);
            }
        }
        values.clear();
        // An unterminated string has no value; the parser reports it.
        let bindable =
            literals.iter().all(|t| literal_value(*t, sql).map(|v| values.push(v)).is_some());
        let cached = bindable
            && (current.contains_key(&key[..])
                || match previous.remove_entry(&key[..]) {
                    Some((k, plan)) => {
                        admit(current, previous, k, plan);
                        true
                    }
                    None => false,
                });
        if cached {
            *hits += 1;
        } else {
            *misses += 1;
            let parsed = parse(sql)?;
            let plan = if bindable { Plan::new(db, sql, literals, values, &parsed) } else { None };
            match plan {
                Some(plan) => admit(current, previous, key.as_slice().into(), plan),
                None => {
                    let shape = Shape::of(db, &parsed);
                    let plan = uncached.insert(Plan { stmt: parsed, slots: Vec::new(), shape });
                    return Ok((&plan.stmt, &plan.shape));
                }
            }
        }
        let plan = current.get_mut(&key[..]).expect("the plan was cached above");
        plan.bind(values);
        Ok((&plan.stmt, &plan.shape))
    }
}

/// Inserts a plan into the current generation, first retiring it to
/// `previous` when full.
fn admit(
    current: &mut HashMap<Box<[u8]>, Plan>,
    previous: &mut HashMap<Box<[u8]>, Plan>,
    key: Box<[u8]>,
    plan: Plan,
) {
    if current.len() >= PLAN_GENERATION {
        *previous = std::mem::take(current);
    }
    current.insert(key, plan);
}

/// Calls `f` on every expression of `stmt`, parents before children, in
/// one fixed order; `f` may replace the expression it is given.
pub(crate) fn walk_statement<E>(
    stmt: &mut Statement,
    f: &mut impl FnMut(&mut Expr) -> Result<(), E>,
) -> Result<(), E> {
    match stmt {
        Statement::Select(s) => walk_select(s, f),
        Statement::Insert(i) => i.rows.iter_mut().flatten().try_for_each(|e| walk_expr(e, f)),
        Statement::Update(u) => {
            u.assignments.iter_mut().try_for_each(|(_, e)| walk_expr(e, f))?;
            u.where_clause.iter_mut().try_for_each(|e| walk_expr(e, f))?;
            walk_limit(&mut u.limit, f)
        }
        Statement::Delete(d) => {
            d.where_clause.iter_mut().try_for_each(|e| walk_expr(e, f))?;
            walk_limit(&mut d.limit, f)
        }
    }
}

fn walk_select<E>(
    s: &mut SelectStatement,
    f: &mut impl FnMut(&mut Expr) -> Result<(), E>,
) -> Result<(), E> {
    for p in &mut s.projections {
        if let Projection::Expr { expr, .. } = p {
            walk_expr(expr, f)?;
        }
    }
    s.joins.iter_mut().filter_map(|j| j.on.as_mut()).try_for_each(|e| walk_expr(e, f))?;
    s.where_clause.iter_mut().try_for_each(|e| walk_expr(e, f))?;
    s.group_by.iter_mut().try_for_each(|e| walk_expr(e, f))?;
    s.having.iter_mut().try_for_each(|e| walk_expr(e, f))?;
    s.order_by.iter_mut().try_for_each(|o| walk_expr(&mut o.expr, f))?;
    walk_limit(&mut s.limit, f)?;
    s.set_ops.iter_mut().try_for_each(|(_, arm)| walk_select(arm, f))
}

fn walk_limit<E>(
    limit: &mut Option<Limit>,
    f: &mut impl FnMut(&mut Expr) -> Result<(), E>,
) -> Result<(), E> {
    if let Some(l) = limit {
        l.offset.iter_mut().try_for_each(|e| walk_expr(e, f))?;
        walk_expr(&mut l.count, f)?;
    }
    Ok(())
}

fn walk_expr<E>(e: &mut Expr, f: &mut impl FnMut(&mut Expr) -> Result<(), E>) -> Result<(), E> {
    f(e)?;
    match e {
        Expr::Literal(_)
        | Expr::Column(_)
        | Expr::Wildcard
        | Expr::Variable(_)
        | Expr::Placeholder(_) => Ok(()),
        Expr::Unary { expr, .. } | Expr::IsNull { expr, .. } => walk_expr(expr, f),
        Expr::Binary { left, right, .. } => {
            walk_expr(left, f)?;
            walk_expr(right, f)
        }
        Expr::Function { args, .. } => args.iter_mut().try_for_each(|a| walk_expr(a, f)),
        Expr::InList { expr, list, .. } => {
            walk_expr(expr, f)?;
            list.iter_mut().try_for_each(|i| walk_expr(i, f))
        }
        Expr::InSubquery { expr, subquery, .. } => {
            walk_expr(expr, f)?;
            walk_select(subquery, f)
        }
        Expr::Between { expr, low, high, .. } => {
            walk_expr(expr, f)?;
            walk_expr(low, f)?;
            walk_expr(high, f)
        }
        Expr::Like { expr, pattern, .. } => {
            walk_expr(expr, f)?;
            walk_expr(pattern, f)
        }
        Expr::Subquery(s) | Expr::Exists(s) => walk_select(s, f),
        Expr::Case { operand, branches, else_arm } => {
            operand.iter_mut().try_for_each(|o| walk_expr(o, f))?;
            for (w, t) in branches {
                walk_expr(w, f)?;
                walk_expr(t, f)?;
            }
            else_arm.iter_mut().try_for_each(|e| walk_expr(e, f))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use joza_sqlparse::lexer::lex;

    fn db() -> Database {
        let mut db = Database::new();
        db.create_table("t", &["id", "name"]);
        db.insert_row("t", vec![Value::Int(1), "a".into()]);
        db.insert_row("t", vec![Value::Int(2), "b".into()]);
        db
    }

    #[test]
    fn a_hit_binds_the_new_literals() {
        let mut db = db();
        db.execute("SELECT name FROM t WHERE id = 1").unwrap();
        // Comments and spacing are not part of the shape.
        let r = db.execute("SELECT name /* x */ FROM t WHERE id=2 -- y").unwrap();
        assert_eq!(r.rows, vec![vec![Value::from("b")]]);
        assert_eq!(db.plan_cache_stats(), PlanCacheStats { hits: 1, misses: 1, entries: 1 });
        // A literal of another kind is another shape.
        db.execute("SELECT name FROM t WHERE id = '2'").unwrap();
        assert_eq!(db.plan_cache_stats().entries, 2);
    }

    #[test]
    fn the_parsers_own_literals_are_not_bound() {
        let mut db = db();
        let sql = |n: i64| format!("SELECT id, NULL, TRUE FROM t WHERE (id = {n}) IS TRUE");
        db.execute(&sql(1)).unwrap();
        let r = db.execute(&sql(2)).unwrap();
        assert_eq!(r.rows, vec![vec![Value::Int(2), Value::Null, Value::Int(1)]]);
        assert_eq!(db.plan_cache_stats().hits, 1);
    }

    #[test]
    fn an_unterminated_string_is_still_a_parse_error() {
        let mut db = db();
        db.execute("SELECT id FROM t WHERE name = 'a'").unwrap();
        let err = db.execute("SELECT id FROM t WHERE name = 'a").unwrap_err();
        assert_eq!(err, DbError::Parse(parse("SELECT id FROM t WHERE name = 'a").unwrap_err()));
    }

    #[test]
    fn literal_projections_are_named_per_execution() {
        let mut db = db();
        assert_eq!(db.execute("SELECT 1, name FROM t").unwrap().columns, ["1", "name"]);
        assert_eq!(db.execute("SELECT 7, name FROM t").unwrap().columns, ["7", "name"]);
        let bound = [(":v".to_string(), Value::from("x"))];
        let r = db.execute_prepared("SELECT :v FROM t WHERE id = 1", &bound).unwrap();
        assert_eq!((r.columns, r.rows), (vec!["x".to_string()], vec![vec![Value::from("x")]]));
        assert_eq!(db.plan_cache_stats().hits, 1);
    }

    #[test]
    fn a_tree_that_does_not_round_trip_is_not_cached() {
        let db = db();
        let sql = "SELECT id FROM t WHERE id = 1";
        let literals: Vec<Token> = lex(sql).into_iter().filter(|t| t.kind.is_literal()).collect();
        let values = [Value::Int(1)];
        let parsed = parse(sql).unwrap();
        assert!(Plan::new(&db, sql, &literals, &values, &parsed).is_some());
        let other = parse("SELECT id FROM t WHERE id = 2").unwrap();
        assert!(Plan::new(&db, sql, &literals, &values, &other).is_none());
    }
}
