//! Expression evaluation with MySQL semantics.
//!
//! Rows are borrowed, never copied: a [`Row`] holds one slice of table
//! storage per FROM/JOIN source, and expressions evaluate to
//! [`Cow<Value>`] that borrows a column's or literal's value until a
//! caller needs it owned (an output row, an assignment). Column
//! references resolve to a [`Slot`] once per statement execution, not
//! once per row.

use crate::engine::{Database, DbError, SideEffects};
use crate::table::Table;
use joza_sqlparse::ast::*;
use joza_sqlparse::Value;
use std::borrow::Cow;
use std::cell::RefCell;
use std::collections::HashSet;

/// The value a LEFT JOIN's null extension reads for every column.
static NULL: Value = Value::Null;
/// What `COUNT(*)` counts per row.
static ONE: Value = Value::Int(1);

/// One joined row: a borrowed table row per source of the [`Scope`], in
/// scope order, `None` where a LEFT JOIN extended the row with NULLs. A
/// JOIN ON predicate sees the prefix joined so far. `'a` is the lifetime
/// of the database and the statement, `'c` that of the row buffer.
pub(crate) type Row<'c, 'a> = &'c [Option<&'a [Value]>];

/// One FROM/JOIN entry (or the target table of UPDATE/DELETE).
pub(crate) struct Source<'a> {
    /// The name column references qualify it by: the alias if any, else
    /// the table name, matched case-insensitively.
    pub qualifier: &'a str,
    /// The table the entry reads.
    pub table: &'a Table,
}

/// Where a column reference resolves: the source and the column within
/// its table.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Slot {
    source: usize,
    column: usize,
}

/// The sources a statement body reads, with each column reference
/// resolved to a [`Slot`] on first use. Resolutions are keyed by the
/// reference's address: the statement is borrowed while the scope lives,
/// so distinct references never share one.
pub(crate) struct Scope<'a> {
    sources: Vec<Source<'a>>,
    resolved: RefCell<Vec<(*const ColumnRef, Option<Slot>)>>,
}

impl<'a> Scope<'a> {
    pub fn new(sources: Vec<Source<'a>>) -> Self {
        Scope { sources, resolved: RefCell::new(Vec::new()) }
    }

    pub fn sources(&self) -> &[Source<'a>] {
        &self.sources
    }

    /// The first source, in scope order, that the reference's qualifier
    /// names (any, when unqualified) and that has the column.
    fn slot(&self, c: &ColumnRef) -> Option<Slot> {
        let key: *const ColumnRef = c;
        if let Some(&(_, slot)) = self.resolved.borrow().iter().find(|(k, _)| *k == key) {
            return slot;
        }
        let slot = self.sources.iter().enumerate().find_map(|(source, s)| {
            if c.table.as_deref().is_some_and(|q| !q.eq_ignore_ascii_case(s.qualifier)) {
                return None;
            }
            s.table.column_index(&c.name).map(|column| Slot { source, column })
        });
        self.resolved.borrow_mut().push((key, slot));
        slot
    }

    /// Whether the scope resolves the column reference itself, without
    /// an enclosing query.
    pub fn resolves(&self, c: &ColumnRef) -> bool {
        self.slot(c).is_some()
    }

    /// The values of a row in projection order: every column of every
    /// source `keep` accepts, NULLs for a null-extended source.
    pub fn row_values(
        &self,
        row: Row<'_, 'a>,
        keep: impl Fn(&Source<'a>) -> bool,
        out: &mut Vec<Value>,
    ) {
        for (source, part) in self.sources.iter().zip(row) {
            if keep(source) {
                match part {
                    Some(values) => out.extend(values.iter().cloned()),
                    None => out.extend((0..source.table.columns().len()).map(|_| Value::Null)),
                }
            }
        }
    }
}

/// Evaluation context. `outer` chains to the enclosing query's context for
/// correlated subqueries.
#[derive(Clone, Copy)]
pub(crate) struct Ctx<'c, 'a> {
    pub db: &'a Database,
    pub scope: &'c Scope<'a>,
    /// The current row; `None` outside any row (LIMIT, an aggregate over
    /// no rows), where only `outer` can resolve columns.
    pub row: Option<Row<'c, 'a>>,
    /// The current group's rows, which aggregates range over.
    pub group: Option<&'c [Row<'c, 'a>]>,
    pub outer: Option<&'c Ctx<'c, 'a>>,
}

impl<'a> Ctx<'_, 'a> {
    /// The column's value in the current row, else in the enclosing
    /// queries' rows, innermost first.
    fn column(&self, c: &ColumnRef) -> Option<&'a Value> {
        if let (Some(row), Some(slot)) = (self.row, self.scope.slot(c)) {
            // A slot past the row is a source a JOIN has not reached yet.
            if let Some(part) = row.get(slot.source) {
                return Some(part.map_or(&NULL, |values| &values[slot.column]));
            }
        }
        self.outer.and_then(|o| o.column(c))
    }
}

const AGGREGATES: &[&str] = &["COUNT", "SUM", "AVG", "MIN", "MAX", "GROUP_CONCAT"];

/// Whether an expression (recursively) contains an aggregate call.
pub(crate) fn contains_aggregate(e: &Expr) -> bool {
    match e {
        Expr::Function { name, args, .. } => {
            AGGREGATES.contains(&name.as_str()) || args.iter().any(contains_aggregate)
        }
        Expr::Unary { expr, .. } => contains_aggregate(expr),
        Expr::Binary { left, right, .. } => contains_aggregate(left) || contains_aggregate(right),
        Expr::IsNull { expr, .. } => contains_aggregate(expr),
        Expr::InList { expr, list, .. } => {
            contains_aggregate(expr) || list.iter().any(contains_aggregate)
        }
        Expr::Between { expr, low, high, .. } => {
            contains_aggregate(expr) || contains_aggregate(low) || contains_aggregate(high)
        }
        Expr::Like { expr, pattern, .. } => contains_aggregate(expr) || contains_aggregate(pattern),
        Expr::Case { operand, branches, else_arm } => {
            operand.as_deref().is_some_and(contains_aggregate)
                || branches.iter().any(|(w, t)| contains_aggregate(w) || contains_aggregate(t))
                || else_arm.as_deref().is_some_and(contains_aggregate)
        }
        _ => false,
    }
}

/// Evaluates `e`, borrowing the value when it is a stored column or a
/// literal.
pub(crate) fn eval<'a>(
    ctx: Ctx<'_, 'a>,
    side: &mut SideEffects,
    e: &'a Expr,
) -> Result<Cow<'a, Value>, DbError> {
    let v = match e {
        Expr::Literal(v) => return Ok(Cow::Borrowed(v)),
        Expr::Wildcard => return Ok(Cow::Borrowed(&ONE)),
        Expr::Column(c) => {
            return ctx
                .column(c)
                .map(Cow::Borrowed)
                .ok_or_else(|| DbError::UnknownColumn(c.to_string()))
        }
        Expr::Unary { op, expr } => {
            let v = eval(ctx, side, expr)?;
            match op {
                UnaryOp::Not => {
                    if v.is_null() {
                        Value::Null
                    } else {
                        Value::from(!v.is_truthy())
                    }
                }
                UnaryOp::Neg => match *v {
                    Value::Int(i) => Value::Int(-i),
                    Value::Null => Value::Null,
                    ref other => Value::Float(-other.as_f64()),
                },
                UnaryOp::Plus => return Ok(v),
            }
        }
        Expr::Binary { left, op, right } => eval_binary(ctx, side, left, *op, right)?,
        Expr::Function { name, args, distinct } => {
            if AGGREGATES.contains(&name.as_str()) {
                return eval_aggregate(ctx, side, name, args, *distinct).map(Cow::Owned);
            }
            // IF / IFNULL / COALESCE evaluate lazily: `IF(c, SLEEP(5), 0)`
            // must only sleep when the condition holds — that laziness *is*
            // the double-blind timing channel.
            match name.as_str() {
                "IF" if args.len() == 3 => {
                    let c = eval(ctx, side, &args[0])?;
                    return eval(ctx, side, if c.is_truthy() { &args[1] } else { &args[2] });
                }
                "IFNULL" if args.len() == 2 => {
                    let v = eval(ctx, side, &args[0])?;
                    return if v.is_null() { eval(ctx, side, &args[1]) } else { Ok(v) };
                }
                "COALESCE" => {
                    for a in args {
                        let v = eval(ctx, side, a)?;
                        if !v.is_null() {
                            return Ok(v);
                        }
                    }
                    return Ok(Cow::Borrowed(&NULL));
                }
                _ => {}
            }
            let mut vals = Vec::with_capacity(args.len());
            for a in args {
                vals.push(eval(ctx, side, a)?);
            }
            eval_function(side, name, &vals)?
        }
        Expr::IsNull { expr, negated } => {
            let v = eval(ctx, side, expr)?;
            Value::from(v.is_null() != *negated)
        }
        Expr::InList { expr, list, negated } => {
            let v = eval(ctx, side, expr)?;
            let mut found = false;
            for item in list {
                let iv = eval(ctx, side, item)?;
                if v.sql_eq(&iv) == Some(true) {
                    found = true;
                    break;
                }
            }
            Value::from(found != *negated)
        }
        Expr::InSubquery { expr, subquery, negated } => {
            let v = eval(ctx, side, expr)?;
            let (_, rows) =
                crate::exec::run_select_with_outer(ctx.db, subquery, side, Some(&ctx), None)?;
            let found =
                rows.iter().any(|r| r.first().is_some_and(|cell| v.sql_eq(cell) == Some(true)));
            Value::from(found != *negated)
        }
        Expr::Between { expr, low, high, negated } => {
            let v = eval(ctx, side, expr)?;
            let lo = eval(ctx, side, low)?;
            let hi = eval(ctx, side, high)?;
            let inside = matches!(
                (v.compare(&lo), v.compare(&hi)),
                (Some(a), Some(b))
                    if a != std::cmp::Ordering::Less && b != std::cmp::Ordering::Greater
            );
            Value::from(inside != *negated)
        }
        Expr::Like { expr, pattern, negated } => {
            let v = eval(ctx, side, expr)?;
            let p = eval(ctx, side, pattern)?;
            let hit = like_match(&text(&v), &text(&p));
            Value::from(hit != *negated)
        }
        Expr::Subquery(sub) => {
            let (_, rows) =
                crate::exec::run_select_with_outer(ctx.db, sub, side, Some(&ctx), None)?;
            rows.into_iter().next().and_then(|r| r.into_iter().next()).unwrap_or(Value::Null)
        }
        Expr::Exists(sub) => {
            let (_, rows) =
                crate::exec::run_select_with_outer(ctx.db, sub, side, Some(&ctx), None)?;
            Value::from(!rows.is_empty())
        }
        Expr::Case { operand, branches, else_arm } => {
            let op_val = operand.as_deref().map(|o| eval(ctx, side, o)).transpose()?;
            for (when, then) in branches {
                let w = eval(ctx, side, when)?;
                let hit = match &op_val {
                    Some(ov) => ov.sql_eq(&w) == Some(true),
                    None => w.is_truthy(),
                };
                if hit {
                    return eval(ctx, side, then);
                }
            }
            return match else_arm {
                Some(e) => eval(ctx, side, e),
                None => Ok(Cow::Borrowed(&NULL)),
            };
        }
        Expr::Placeholder(_) => Value::Null,
        Expr::Variable(name) => match name.to_ascii_lowercase().as_str() {
            "@@version" => Value::Str(mysql_version()),
            _ => Value::Null,
        },
    };
    Ok(Cow::Owned(v))
}

/// A value's string rendering, borrowed when it already is a string.
fn text(v: &Value) -> Cow<'_, str> {
    match v {
        Value::Str(s) => Cow::Borrowed(s),
        other => Cow::Owned(other.as_str()),
    }
}

fn eval_binary<'a>(
    ctx: Ctx<'_, 'a>,
    side: &mut SideEffects,
    left: &'a Expr,
    op: BinaryOp,
    right: &'a Expr,
) -> Result<Value, DbError> {
    // Short-circuit logicals (important: `0 AND SLEEP(5)` must not sleep).
    match op {
        BinaryOp::And => {
            let l = eval(ctx, side, left)?;
            if !l.is_null() && !l.is_truthy() {
                return Ok(Value::Int(0));
            }
            let r = eval(ctx, side, right)?;
            if l.is_null() || r.is_null() {
                return Ok(if !r.is_null() && !r.is_truthy() {
                    Value::Int(0)
                } else {
                    Value::Null
                });
            }
            return Ok(Value::from(r.is_truthy()));
        }
        BinaryOp::Or => {
            let l = eval(ctx, side, left)?;
            if !l.is_null() && l.is_truthy() {
                return Ok(Value::Int(1));
            }
            let r = eval(ctx, side, right)?;
            if r.is_null() || l.is_null() {
                return Ok(if !r.is_null() && r.is_truthy() { Value::Int(1) } else { Value::Null });
            }
            return Ok(Value::from(r.is_truthy()));
        }
        _ => {}
    }
    let l = eval(ctx, side, left)?;
    let r = eval(ctx, side, right)?;
    let (l, r) = (&*l, &*r);
    Ok(match op {
        BinaryOp::Xor => {
            if l.is_null() || r.is_null() {
                Value::Null
            } else {
                Value::from(l.is_truthy() != r.is_truthy())
            }
        }
        BinaryOp::Eq => tri(l.sql_eq(r)),
        BinaryOp::NotEq => tri(l.sql_eq(r).map(|b| !b)),
        BinaryOp::Lt => tri(l.compare(r).map(|o| o == std::cmp::Ordering::Less)),
        BinaryOp::LtEq => tri(l.compare(r).map(|o| o != std::cmp::Ordering::Greater)),
        BinaryOp::Gt => tri(l.compare(r).map(|o| o == std::cmp::Ordering::Greater)),
        BinaryOp::GtEq => tri(l.compare(r).map(|o| o != std::cmp::Ordering::Less)),
        BinaryOp::Regexp => {
            // Substring semantics: enough for the testbed payloads.
            Value::from(l.as_str().to_ascii_lowercase().contains(&r.as_str().to_ascii_lowercase()))
        }
        BinaryOp::Add => arith(l, r, |a, b| a + b),
        BinaryOp::Sub => arith(l, r, |a, b| a - b),
        BinaryOp::Mul => arith(l, r, |a, b| a * b),
        BinaryOp::Div => {
            if l.is_null() || r.is_null() || r.as_f64() == 0.0 {
                Value::Null
            } else {
                Value::Float(l.as_f64() / r.as_f64())
            }
        }
        BinaryOp::Mod => {
            if l.is_null() || r.is_null() || r.as_i64() == 0 {
                Value::Null
            } else {
                Value::Int(l.as_i64() % r.as_i64())
            }
        }
        BinaryOp::And | BinaryOp::Or => unreachable!("short-circuited above"),
    })
}

fn tri(b: Option<bool>) -> Value {
    match b {
        Some(v) => Value::from(v),
        None => Value::Null,
    }
}

fn arith(l: &Value, r: &Value, f: impl Fn(f64, f64) -> f64) -> Value {
    if l.is_null() || r.is_null() {
        return Value::Null;
    }
    let out = f(l.as_f64(), r.as_f64());
    if out == out.trunc()
        && out.abs() < 9e15
        && !matches!(l, Value::Float(_))
        && !matches!(r, Value::Float(_))
    {
        Value::Int(out as i64)
    } else {
        Value::Float(out)
    }
}

/// MySQL `LIKE` with `%` and `_`, case-insensitive.
pub(crate) fn like_match(s: &str, pattern: &str) -> bool {
    fn rec(s: &[u8], p: &[u8]) -> bool {
        match p.first() {
            None => s.is_empty(),
            Some(b'%') => {
                for skip in 0..=s.len() {
                    if rec(&s[skip..], &p[1..]) {
                        return true;
                    }
                }
                false
            }
            Some(b'_') => !s.is_empty() && rec(&s[1..], &p[1..]),
            Some(&c) => !s.is_empty() && s[0].eq_ignore_ascii_case(&c) && rec(&s[1..], &p[1..]),
        }
    }
    rec(s.as_bytes(), pattern.as_bytes())
}

fn mysql_version() -> String {
    "5.6.27-joza-sim".to_string()
}

fn eval_aggregate<'a>(
    ctx: Ctx<'_, 'a>,
    side: &mut SideEffects,
    name: &str,
    args: &'a [Expr],
    distinct: bool,
) -> Result<Value, DbError> {
    let group = ctx.group.unwrap_or(&[]);
    // Evaluate the argument once per group row.
    let mut values = Vec::with_capacity(group.len());
    for &row in group {
        let row_ctx = Ctx { row: Some(row), group: None, ..ctx };
        let v = match args.first() {
            Some(Expr::Wildcard) | None => Cow::Borrowed(&ONE),
            Some(a) => eval(row_ctx, side, a)?,
        };
        values.push(v);
    }
    if distinct {
        let mut seen = HashSet::new();
        values.retain(|v| seen.insert(format!("{:?}", **v)));
    }
    let non_null: Vec<&Value> = values.iter().map(|v| &**v).filter(|v| !v.is_null()).collect();
    Ok(match name {
        "COUNT" => {
            if matches!(args.first(), Some(Expr::Wildcard) | None) {
                Value::Int(values.len() as i64)
            } else {
                Value::Int(non_null.len() as i64)
            }
        }
        "SUM" => {
            if non_null.is_empty() {
                Value::Null
            } else {
                Value::Float(non_null.iter().map(|v| v.as_f64()).sum::<f64>())
            }
        }
        "AVG" => {
            if non_null.is_empty() {
                Value::Null
            } else {
                Value::Float(
                    non_null.iter().map(|v| v.as_f64()).sum::<f64>() / non_null.len() as f64,
                )
            }
        }
        "MIN" => extreme(&non_null, std::cmp::Ordering::Less),
        "MAX" => extreme(&non_null, std::cmp::Ordering::Greater),
        "GROUP_CONCAT" => {
            if non_null.is_empty() {
                Value::Null
            } else {
                Value::Str(non_null.iter().map(|v| v.as_str()).collect::<Vec<_>>().join(","))
            }
        }
        other => return Err(DbError::Other(format!("unknown aggregate {other}"))),
    })
}

/// MIN (`wins` = Less) or MAX (Greater): the first value no later one
/// beats; NULL over no values.
fn extreme(values: &[&Value], wins: std::cmp::Ordering) -> Value {
    let mut best: Option<&Value> = None;
    for &v in values {
        if best.is_none_or(|b| v.compare(b) == Some(wins)) {
            best = Some(v);
        }
    }
    best.cloned().unwrap_or(Value::Null)
}

fn eval_function(
    side: &mut SideEffects,
    name: &str,
    args: &[Cow<'_, Value>],
) -> Result<Value, DbError> {
    let a = |i: usize| -> &Value { args.get(i).map_or(&NULL, |v| &**v) };
    let s = |i: usize| -> String { a(i).as_str() };
    Ok(match name {
        "CONCAT" => {
            if args.iter().any(|v| v.is_null()) {
                Value::Null
            } else {
                Value::Str(args.iter().map(|v| v.as_str()).collect())
            }
        }
        "CONCAT_WS" => {
            let sep = s(0);
            Value::Str(
                args.get(1..)
                    .unwrap_or_default()
                    .iter()
                    .filter(|v| !v.is_null())
                    .map(|v| v.as_str())
                    .collect::<Vec<_>>()
                    .join(&sep),
            )
        }
        "CHAR" => Value::Str(
            args.iter()
                .filter(|v| !v.is_null())
                .map(|v| char::from_u32(v.as_i64().clamp(0, 0x10FFFF) as u32).unwrap_or('\u{FFFD}'))
                .collect(),
        ),
        "ASCII" | "ORD" => {
            let st = s(0);
            if a(0).is_null() {
                Value::Null
            } else {
                Value::Int(st.as_bytes().first().map_or(0, |b| i64::from(*b)))
            }
        }
        "LENGTH" | "CHAR_LENGTH" => {
            if a(0).is_null() {
                Value::Null
            } else {
                Value::Int(s(0).len() as i64)
            }
        }
        "LOWER" => Value::Str(s(0).to_ascii_lowercase()),
        "UPPER" => Value::Str(s(0).to_ascii_uppercase()),
        "TRIM" => Value::Str(s(0).trim().to_string()),
        "REPLACE" => Value::Str(s(0).replace(&s(1), &s(2))),
        "SUBSTRING" | "SUBSTR" | "MID" => {
            if a(0).is_null() {
                return Ok(Value::Null);
            }
            let st = s(0);
            let pos = a(1).as_i64();
            let len = if args.len() > 2 { Some(a(2).as_i64()) } else { None };
            Value::Str(mysql_substring(&st, pos, len))
        }
        "INSTR" => Value::Int(s(0).find(&s(1)).map_or(0, |i| i as i64 + 1)),
        "LPAD" => {
            let st = s(0);
            let target = a(1).as_i64().max(0) as usize;
            let pad = s(2);
            Value::Str(pad_to(&st, target, &pad, true))
        }
        "RPAD" => {
            let st = s(0);
            let target = a(1).as_i64().max(0) as usize;
            let pad = s(2);
            Value::Str(pad_to(&st, target, &pad, false))
        }
        "HEX" => Value::Str(s(0).bytes().map(|b| format!("{b:02X}")).collect()),
        "UNHEX" => {
            let h = s(0);
            if h.len() % 2 != 0 || !h.bytes().all(|b| b.is_ascii_hexdigit()) {
                Value::Null
            } else {
                let bytes: Vec<u8> = (0..h.len())
                    .step_by(2)
                    .map(|i| u8::from_str_radix(&h[i..i + 2], 16).unwrap_or(0))
                    .collect();
                Value::Str(String::from_utf8_lossy(&bytes).into_owned())
            }
        }
        "MD5" => Value::Str(pseudo_md5(&s(0))),
        "IF" => {
            if a(0).is_truthy() {
                a(1).clone()
            } else {
                a(2).clone()
            }
        }
        "IFNULL" => {
            if a(0).is_null() {
                a(1).clone()
            } else {
                a(0).clone()
            }
        }
        "COALESCE" => args.iter().find(|v| !v.is_null()).map_or(Value::Null, |v| (**v).clone()),
        "VERSION" => Value::Str(mysql_version()),
        "USER" | "CURRENT_USER" | "USERNAME" | "SYSTEM_USER" | "SESSION_USER" => {
            Value::Str("wpuser@localhost".to_string())
        }
        "DATABASE" | "SCHEMA" => Value::Str("wordpress".to_string()),
        "NOW" | "CURRENT_TIMESTAMP" => Value::Str("2014-11-01 12:00:00".to_string()),
        "FLOOR" => Value::Int(a(0).as_f64().floor() as i64),
        "ROUND" => Value::Int(a(0).as_f64().round() as i64),
        "ABS" => {
            let f = a(0).as_f64().abs();
            if f == f.trunc() {
                Value::Int(f as i64)
            } else {
                Value::Float(f)
            }
        }
        "RAND" => {
            // xorshift — deterministic per engine.
            side.rand_state ^= side.rand_state << 13;
            side.rand_state ^= side.rand_state >> 7;
            side.rand_state ^= side.rand_state << 17;
            Value::Float((side.rand_state % 1_000_000) as f64 / 1_000_000.0)
        }
        "SLEEP" => {
            let secs = a(0).as_f64().max(0.0);
            side.sleep_ms += (secs * 1000.0) as u64;
            Value::Int(0)
        }
        "BENCHMARK" => {
            // Model: one million iterations ≈ 250 virtual ms.
            let iters = a(0).as_i64().max(0) as u64;
            side.sleep_ms += iters / 4000;
            Value::Int(0)
        }
        "CAST" | "CONVERT" => a(0).clone(),
        "EXTRACTVALUE" | "UPDATEXML" => {
            // MySQL raises `XPATH syntax error` embedding (a prefix of) the
            // evaluated XPath argument — the error-based exfiltration channel.
            let leak = s(1);
            let truncated: String = leak.chars().take(32).collect();
            return Err(DbError::Xpath(truncated));
        }
        "LOAD_FILE" => Value::Null,
        other => return Err(DbError::Other(format!("unknown function {other}()"))),
    })
}

/// MySQL SUBSTRING: 1-based, negative positions count from the end.
fn mysql_substring(s: &str, pos: i64, len: Option<i64>) -> String {
    let n = s.len() as i64;
    let start = if pos > 0 {
        pos - 1
    } else if pos < 0 {
        (n + pos).max(0)
    } else {
        return String::new(); // MySQL: position 0 yields empty
    };
    if start >= n {
        return String::new();
    }
    let end = match len {
        None => n,
        Some(l) if l <= 0 => return String::new(),
        Some(l) => (start + l).min(n),
    };
    s.get(start as usize..end as usize).unwrap_or("").to_string()
}

fn pad_to(s: &str, target: usize, pad: &str, left: bool) -> String {
    if s.len() >= target {
        return s[..target].to_string();
    }
    if pad.is_empty() {
        return String::new();
    }
    let mut padding = String::new();
    while s.len() + padding.len() < target {
        padding.push_str(pad);
    }
    padding.truncate(target - s.len());
    if left {
        format!("{padding}{s}")
    } else {
        format!("{s}{padding}")
    }
}

/// Deterministic stand-in for MD5 (stable 32-hex digest; not crypto).
fn pseudo_md5(s: &str) -> String {
    let mut h1: u64 = 0xcbf29ce484222325;
    let mut h2: u64 = 0x9e3779b97f4a7c15;
    for &b in s.as_bytes() {
        h1 = (h1 ^ u64::from(b)).wrapping_mul(0x100000001b3);
        h2 = h2.rotate_left(7) ^ u64::from(b).wrapping_mul(0x2545F4914F6CDD1D);
    }
    format!("{h1:016x}{h2:016x}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slots_resolve_to_the_first_matching_source() {
        let users = Table::new("users", &["ID", "name"]);
        let posts = Table::new("posts", &["id", "title"]);
        let scope = Scope::new(vec![
            Source { qualifier: "u", table: &users },
            Source { qualifier: "P", table: &posts },
        ]);
        let col = |table: Option<&str>, name: &str| ColumnRef {
            table: table.map(str::to_string),
            name: name.to_string(),
        };
        let (id, p_id, title, x_id) =
            (col(None, "id"), col(Some("p"), "ID"), col(None, "TITLE"), col(Some("x"), "id"));
        assert_eq!(scope.slot(&id), Some(Slot { source: 0, column: 0 })); // first wins
        assert_eq!(scope.slot(&p_id), Some(Slot { source: 1, column: 0 }));
        assert_eq!(scope.slot(&title), Some(Slot { source: 1, column: 1 }));
        assert_eq!(scope.slot(&x_id), None);
        // Memoized: a second lookup answers the same.
        assert_eq!(scope.slot(&p_id), Some(Slot { source: 1, column: 0 }));
        assert_eq!(scope.resolved.borrow().len(), 4);
    }

    #[test]
    fn like_patterns() {
        assert!(like_match("hello world", "%world"));
        assert!(like_match("hello world", "hello%"));
        assert!(like_match("hello", "h_llo"));
        assert!(like_match("HELLO", "hello"));
        assert!(!like_match("hello", "h_lo"));
        assert!(like_match("", "%"));
        assert!(!like_match("", "_"));
        assert!(like_match("abc", "%b%"));
    }

    #[test]
    fn concat_ws_without_arguments_is_empty() {
        let mut side = SideEffects::default();
        let v = eval_function(&mut side, "CONCAT_WS", &[]).unwrap();
        assert_eq!(v, Value::Str(String::new()));
    }

    #[test]
    fn substring_semantics() {
        assert_eq!(mysql_substring("Quadratically", 5, Some(6)), "ratica");
        assert_eq!(mysql_substring("Sakila", -3, None), "ila");
        assert_eq!(mysql_substring("Sakila", 0, None), "");
        assert_eq!(mysql_substring("abc", 10, None), "");
        assert_eq!(mysql_substring("abc", 1, Some(0)), "");
    }

    #[test]
    fn padding() {
        assert_eq!(pad_to("hi", 5, "?", true), "???hi");
        assert_eq!(pad_to("hi", 5, "ab", false), "hiaba");
        assert_eq!(pad_to("hello", 3, "?", true), "hel");
    }
}
