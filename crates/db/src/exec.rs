//! Statement executors: SELECT pipeline plus INSERT/UPDATE/DELETE.
//!
//! Every pass reads rows borrowed from table storage ([`Rows`], see
//! [`crate::eval`]); values are cloned only into output rows and
//! assignments.

use crate::engine::{Database, DbError, SideEffects};
use crate::eval::{contains_aggregate, eval, Ctx, Row, Scope, Source};
use crate::table::Table;
use joza_sqlparse::ast::*;
use joza_sqlparse::Value;
use std::borrow::Cow;
use std::cmp::Ordering;
use std::collections::HashSet;

/// Joined rows, flattened: row `i` is `cells[i * width..(i + 1) * width]`,
/// one borrowed table row per scope source (see [`Row`]).
struct Rows<'a> {
    width: usize,
    len: usize,
    cells: Vec<Option<&'a [Value]>>,
}

impl<'a> Rows<'a> {
    fn new(width: usize) -> Self {
        Rows { width, len: 0, cells: Vec::new() }
    }

    /// Every row of `table`, as a one-source scan.
    fn scan(table: &'a Table, side: &mut SideEffects) -> Result<Self, DbError> {
        side.visit(table.len())?;
        let cells: Vec<_> = table.rows().iter().map(|r| Some(r.as_slice())).collect();
        Ok(Rows { width: 1, len: cells.len(), cells })
    }

    fn get(&self, i: usize) -> Row<'_, 'a> {
        &self.cells[i * self.width..(i + 1) * self.width]
    }

    fn iter(&self) -> impl Iterator<Item = Row<'_, 'a>> {
        (0..self.len).map(|i| self.get(i))
    }

    /// Keeps the rows `keep` accepts, in order, compacting in place.
    fn retain(
        &mut self,
        mut keep: impl FnMut(Row<'_, 'a>) -> Result<bool, DbError>,
    ) -> Result<(), DbError> {
        let width = self.width;
        let mut kept = 0;
        for i in 0..self.len {
            let row = i * width..(i + 1) * width;
            if keep(&self.cells[row.clone()])? {
                self.cells.copy_within(row, kept * width);
                kept += 1;
            }
        }
        self.len = kept;
        self.cells.truncate(kept * width);
        Ok(())
    }
}

/// Runs a SELECT (with any UNION continuations) and returns
/// `(column names, rows)`. `names`, when given, are the plan's column
/// names for a non-empty result.
pub(crate) fn run_select(
    db: &Database,
    sel: &SelectStatement,
    side: &mut SideEffects,
    names: Option<&[String]>,
) -> Result<(Vec<String>, Vec<Vec<Value>>), DbError> {
    run_select_with_outer(db, sel, side, None, names)
}

pub(crate) fn run_select_with_outer<'a>(
    db: &'a Database,
    sel: &'a SelectStatement,
    side: &mut SideEffects,
    outer: Option<&Ctx<'_, 'a>>,
    names: Option<&[String]>,
) -> Result<(Vec<String>, Vec<Vec<Value>>), DbError> {
    let Body { columns, mut rows, width } = run_select_body(db, sel, side, outer, names)?;
    for (op, arm) in &sel.set_ops {
        let arm = run_select_body(db, arm, side, outer, None)?;
        if arm.width != width {
            return Err(DbError::UnionColumnMismatch { left: width, right: arm.width });
        }
        rows.extend(arm.rows);
        if *op == SetOp::Union {
            dedup(&mut rows, |r| format!("{r:?}"));
        }
    }
    Ok((columns, rows))
}

/// Keeps the first of the items whose rows render to the same `Debug`
/// text (UNION, DISTINCT).
fn dedup<T>(items: &mut Vec<T>, row_text: impl Fn(&T) -> String) {
    let mut seen = HashSet::new();
    items.retain(|item| seen.insert(row_text(item)));
}

/// The sources a SELECT body reads, in FROM/JOIN order. The scope stops
/// at the first unknown table, which fails when the pipeline reaches it.
pub(crate) fn scope_of<'a>(db: &'a Database, sel: &'a SelectStatement) -> Scope<'a> {
    Scope::new(
        table_refs(sel)
            .map_while(|t| {
                let table = db.table(&t.name)?;
                Some(Source { qualifier: t.alias.as_deref().unwrap_or(&t.name), table })
            })
            .collect(),
    )
}

fn table_refs(sel: &SelectStatement) -> impl Iterator<Item = &TableRef> {
    sel.from.iter().chain(sel.joins.iter().map(|j| &j.table))
}

/// How many columns a SELECT body outputs: a wildcard counts the columns
/// of the sources it expands.
fn output_width(scope: &Scope<'_>, sel: &SelectStatement) -> usize {
    let columns = |keep: &dyn Fn(&Source<'_>) -> bool| -> usize {
        scope.sources().iter().filter(|s| keep(s)).map(|s| s.table.columns().len()).sum()
    };
    sel.projections
        .iter()
        .map(|p| match p {
            Projection::Wildcard => columns(&|_| true),
            Projection::QualifiedWildcard(q) => columns(&|s| s.qualifier.eq_ignore_ascii_case(q)),
            Projection::Expr { .. } => 1,
        })
        .sum()
}

/// Whether projecting a row can neither fail nor change side effects:
/// every projection is a literal, a wildcard, or a column the scope
/// resolves. Only then may projection wait until LIMIT has cut the rows
/// (late materialization); anything else may error, `SLEEP` or draw
/// `RAND`, so it runs for every row in scan order.
fn projection_is_pure(scope: &Scope<'_>, sel: &SelectStatement) -> bool {
    sel.projections.iter().all(|p| match p {
        Projection::Wildcard | Projection::QualifiedWildcard(_) => true,
        Projection::Expr { expr: Expr::Literal(_), .. } => true,
        Projection::Expr { expr: Expr::Column(c), .. } => scope.resolves(c),
        Projection::Expr { .. } => false,
    })
}

/// What one SELECT body outputs.
struct Body {
    columns: Vec<String>,
    rows: Vec<Vec<Value>>,
    /// The column count its projections give, rows or no rows: what
    /// UNION arms must agree on.
    width: usize,
}

/// Runs one SELECT body.
///
/// The pipeline scans and filters borrowed rows, evaluates ORDER BY keys
/// for every candidate into one flat buffer, sorts candidate handles,
/// cuts them to OFFSET/LIMIT, and only then builds owned output rows —
/// unless a projection is impure, in which case every candidate is
/// projected in scan order first, exactly as if no row were discarded.
fn run_select_body<'a>(
    db: &'a Database,
    sel: &'a SelectStatement,
    side: &mut SideEffects,
    outer: Option<&Ctx<'_, 'a>>,
    names: Option<&[String]>,
) -> Result<Body, DbError> {
    // 1. FROM / JOIN.
    let scope = scope_of(db, sel);
    let source = |i: usize| {
        scope.sources().get(i).map(|s| s.table).ok_or_else(|| {
            let missing = table_refs(sel).nth(i).expect("the scope is a prefix of the refs");
            DbError::UnknownTable(missing.name.clone())
        })
    };
    let mut rows = match &sel.from {
        // `SELECT 1`: one row with no sources.
        None => Rows { width: 0, len: 1, cells: Vec::new() },
        Some(_) => Rows::scan(source(0)?, side)?,
    };
    for (i, join) in sel.joins.iter().enumerate() {
        rows = join_rows(db, &scope, &rows, source(i + 1)?, join, side, outer)?;
    }

    // 2. WHERE.
    if let Some(pred) = &sel.where_clause {
        rows.retain(|row| {
            let ctx = Ctx { db, scope: &scope, row: Some(row), group: None, outer };
            Ok(eval(ctx, side, pred)?.is_truthy())
        })?;
    }

    // 3. Candidates: groups that pass HAVING, else the filtered rows.
    // Each has its ORDER BY keys in `keys[h * k..(h + 1) * k]`; `eager`
    // holds the projected candidates unless projection waits for LIMIT.
    let aggregated = !sel.group_by.is_empty()
        || sel.projections.iter().any(|p| match p {
            Projection::Expr { expr, .. } => contains_aggregate(expr),
            _ => false,
        })
        || sel.having.as_ref().is_some_and(contains_aggregate);
    let k = sel.order_by.len();
    let mut keys: Vec<Cow<'a, Value>> = Vec::new();
    let mut eager: Vec<Vec<Value>> = Vec::new();
    let late = !aggregated && !sel.distinct && projection_is_pure(&scope, sel);
    let candidates = if aggregated {
        // Group rows by GROUP BY key.
        let mut groups: Vec<(Vec<Cow<'a, Value>>, Vec<Row<'_, 'a>>)> = Vec::new();
        let mut key = Vec::new();
        for row in rows.iter() {
            let ctx = Ctx { db, scope: &scope, row: Some(row), group: None, outer };
            for g in &sel.group_by {
                key.push(eval(ctx, side, g)?);
            }
            match groups.iter_mut().find(|(k, _)| values_eq(k, &key)) {
                Some((_, members)) => {
                    members.push(row);
                    key.clear();
                }
                None => groups.push((std::mem::take(&mut key), vec![row])),
            }
        }
        if groups.is_empty() && sel.group_by.is_empty() {
            groups.push((Vec::new(), Vec::new())); // aggregate over empty set
        }
        for (_, members) in &groups {
            let ctx = Ctx {
                db,
                scope: &scope,
                row: members.first().copied(),
                group: Some(members),
                outer,
            };
            if let Some(h) = &sel.having {
                if !eval(ctx, side, h)?.is_truthy() {
                    continue;
                }
            }
            eager.push(project(ctx, side, sel)?);
            push_order_keys(ctx, side, sel, &mut keys)?;
        }
        eager.len()
    } else {
        keys.reserve_exact(rows.len * k);
        if !late {
            eager.reserve_exact(rows.len);
        }
        for row in rows.iter() {
            let ctx = Ctx { db, scope: &scope, row: Some(row), group: None, outer };
            if !late {
                eager.push(project(ctx, side, sel)?);
            }
            push_order_keys(ctx, side, sel, &mut keys)?;
        }
        rows.len
    };
    // Column names come from the scope, so one computation serves every
    // row; an empty plain result names its wildcards `*`.
    let out_columns = if candidates > 0 {
        match names {
            Some(names) => names.to_vec(),
            None => output_names(&scope, sel),
        }
    } else if aggregated {
        Vec::new()
    } else {
        projection_names(sel, |_| vec!["*".to_string()])
    };

    // 4. DISTINCT, then ORDER BY (stable) over candidate handles; the
    // row budget keeps their count far inside `u32`.
    let mut order: Vec<u32> = (0..candidates as u32).collect();
    if sel.distinct {
        dedup(&mut order, |&h| format!("{:?}", eager[h as usize]));
    }
    if k > 0 {
        let keys_of = |h: u32| &keys[h as usize * k..(h as usize + 1) * k];
        order.sort_by(|&a, &b| {
            for ((a, b), item) in keys_of(a).iter().zip(keys_of(b)).zip(&sel.order_by) {
                let ord = a.compare(b).unwrap_or(Ordering::Equal);
                let ord = if item.desc { ord.reverse() } else { ord };
                if ord != Ordering::Equal {
                    return ord;
                }
            }
            Ordering::Equal
        });
    }

    // 5. LIMIT / OFFSET.
    let mut kept = &order[..];
    if let Some(limit) = &sel.limit {
        let ctx = Ctx { db, scope: &scope, row: None, group: None, outer };
        let count = eval(ctx, side, &limit.count)?.as_i64().max(0) as usize;
        let offset = match &limit.offset {
            Some(o) => eval(ctx, side, o)?.as_i64().max(0) as usize,
            None => 0,
        };
        kept = &kept[offset.min(kept.len())..];
        kept = &kept[..count.min(kept.len())];
    }

    // 6. Output rows: project the survivors, or move them out of `eager`.
    let mut out = Vec::with_capacity(kept.len());
    for &h in kept {
        out.push(if late {
            let ctx =
                Ctx { db, scope: &scope, row: Some(rows.get(h as usize)), group: None, outer };
            project(ctx, side, sel)?
        } else {
            std::mem::take(&mut eager[h as usize])
        });
    }
    Ok(Body { columns: out_columns, rows: out, width: output_width(&scope, sel) })
}

fn values_eq(a: &[Cow<'_, Value>], b: &[Cow<'_, Value>]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| x.sql_eq(y).unwrap_or(x.is_null() && y.is_null()))
}

/// Extends `left` by the rows of `right` that satisfy the join; a LEFT
/// JOIN keeps an unmatched left row null-extended.
fn join_rows<'a>(
    db: &'a Database,
    scope: &Scope<'a>,
    left: &Rows<'a>,
    right: &'a Table,
    join: &'a Join,
    side: &mut SideEffects,
    outer: Option<&Ctx<'_, 'a>>,
) -> Result<Rows<'a>, DbError> {
    side.visit(left.len.saturating_mul(right.len()))?;
    let mut out = Rows::new(left.width + 1);
    for l in left.iter() {
        let mut matched = false;
        for r in right.rows() {
            out.cells.extend_from_slice(l);
            out.cells.push(Some(r));
            let keep = match (&join.kind, &join.on) {
                (JoinKind::Cross, _) | (_, None) => true,
                (_, Some(pred)) => {
                    let row = &out.cells[out.len * out.width..];
                    let ctx = Ctx { db, scope, row: Some(row), group: None, outer };
                    eval(ctx, side, pred)?.is_truthy()
                }
            };
            if keep {
                matched = true;
                out.len += 1;
            } else {
                out.cells.truncate(out.len * out.width);
            }
        }
        if !matched && join.kind == JoinKind::Left {
            // Null-extend the right side.
            out.cells.extend_from_slice(l);
            out.cells.push(None);
            out.len += 1;
        }
    }
    Ok(out)
}

/// One output row: wildcards copy the current row's values, expressions
/// are evaluated in projection order.
fn project(
    ctx: Ctx<'_, '_>,
    side: &mut SideEffects,
    sel: &SelectStatement,
) -> Result<Vec<Value>, DbError> {
    let mut row = Vec::new();
    for p in &sel.projections {
        match p {
            Projection::Wildcard => match ctx.row {
                Some(r) => ctx.scope.row_values(r, |_| true, &mut row),
                None => {
                    return Err(DbError::Other("SELECT * with no FROM clause".into()));
                }
            },
            Projection::QualifiedWildcard(q) => match ctx.row {
                Some(r) => {
                    ctx.scope.row_values(r, |s| s.qualifier.eq_ignore_ascii_case(q), &mut row)
                }
                None => {
                    return Err(DbError::Other("qualified * with no FROM clause".into()));
                }
            },
            Projection::Expr { expr, .. } => row.push(eval(ctx, side, expr)?.into_owned()),
        }
    }
    Ok(row)
}

/// The column names of a non-empty result: wildcards expand to the
/// lowercased columns of the sources they name.
pub(crate) fn output_names(scope: &Scope<'_>, sel: &SelectStatement) -> Vec<String> {
    projection_names(sel, |p| match p {
        Projection::QualifiedWildcard(q) => {
            wildcard_names(scope, |s| s.qualifier.eq_ignore_ascii_case(q))
        }
        _ => wildcard_names(scope, |_| true),
    })
}

/// Output column names, with `wildcard` naming each `*` / `t.*`.
fn projection_names(
    sel: &SelectStatement,
    wildcard: impl Fn(&Projection) -> Vec<String>,
) -> Vec<String> {
    let mut cols = Vec::new();
    for p in &sel.projections {
        match p {
            Projection::Wildcard | Projection::QualifiedWildcard(_) => cols.extend(wildcard(p)),
            Projection::Expr { expr, alias } => {
                cols.push(alias.clone().unwrap_or_else(|| expr_name(expr)));
            }
        }
    }
    cols
}

/// The lowercased column names of the sources `keep` accepts.
fn wildcard_names(scope: &Scope<'_>, keep: impl Fn(&Source<'_>) -> bool) -> Vec<String> {
    scope
        .sources()
        .iter()
        .filter(|s| keep(s))
        .flat_map(|s| s.table.columns().iter().map(|c| c.to_ascii_lowercase()))
        .collect()
}

fn expr_name(e: &Expr) -> String {
    match e {
        Expr::Column(c) => c.name.clone(),
        Expr::Function { name, .. } => format!("{name}()"),
        Expr::Literal(v) => v.to_string(),
        _ => "expr".to_string(),
    }
}

/// Appends the row's ORDER BY keys to `keys`.
fn push_order_keys<'a>(
    ctx: Ctx<'_, 'a>,
    side: &mut SideEffects,
    sel: &'a SelectStatement,
    keys: &mut Vec<Cow<'a, Value>>,
) -> Result<(), DbError> {
    for item in &sel.order_by {
        keys.push(eval(ctx, side, &item.expr)?);
    }
    Ok(())
}

pub(crate) fn run_insert(
    db: &mut Database,
    ins: &InsertStatement,
    side: &mut SideEffects,
) -> Result<usize, DbError> {
    // Evaluate all rows first (read-only borrow), then apply.
    let mut evaluated: Vec<Vec<Value>> = Vec::with_capacity(ins.rows.len());
    {
        let scope = Scope::new(Vec::new());
        let ctx = Ctx { db, scope: &scope, row: None, group: None, outer: None };
        for row in &ins.rows {
            let mut vals = Vec::with_capacity(row.len());
            for e in row {
                vals.push(eval(ctx, side, e)?.into_owned());
            }
            evaluated.push(vals);
        }
    }
    let table = db.table_mut(&ins.table).ok_or_else(|| DbError::UnknownTable(ins.table.clone()))?;
    let mut affected = 0;
    for vals in evaluated {
        let row = if ins.columns.is_empty() {
            vals
        } else {
            // Map named columns onto schema positions.
            let mut row = vec![Value::Null; table.columns().len()];
            for (col, val) in ins.columns.iter().zip(vals) {
                let idx =
                    table.column_index(col).ok_or_else(|| DbError::UnknownColumn(col.clone()))?;
                row[idx] = val;
            }
            row
        };
        table.push_row(row);
        affected += 1;
    }
    Ok(affected)
}

/// The read-only pass of UPDATE and DELETE: calls `hit` with each row of
/// `table` the WHERE clause accepts (all rows without one), in storage
/// order, then cuts the hits to the LIMIT.
fn matching_rows<'a, H>(
    db: &'a Database,
    table: &'a Table,
    where_clause: Option<&'a Expr>,
    limit: Option<&'a Limit>,
    side: &mut SideEffects,
    mut hit: impl FnMut(Ctx<'_, 'a>, &mut SideEffects, usize) -> Result<H, DbError>,
) -> Result<Vec<H>, DbError> {
    side.visit(table.len())?;
    let scope = Scope::new(vec![Source { qualifier: table.name(), table }]);
    let mut hits = Vec::new();
    for (ri, row) in table.rows().iter().enumerate() {
        let row = [Some(row.as_slice())];
        let ctx = Ctx { db, scope: &scope, row: Some(&row), group: None, outer: None };
        let matched = match where_clause {
            Some(pred) => eval(ctx, side, pred)?.is_truthy(),
            None => true,
        };
        if matched {
            hits.push(hit(ctx, side, ri)?);
        }
    }
    // LIMIT applies to matched rows in order.
    if let Some(limit) = limit {
        let ctx = Ctx { db, scope: &scope, row: None, group: None, outer: None };
        let count = eval(ctx, side, &limit.count)?.as_i64().max(0) as usize;
        hits.truncate(count);
    }
    Ok(hits)
}

fn table_for<'d>(db: &'d Database, name: &str) -> Result<&'d Table, DbError> {
    db.table(name).ok_or_else(|| DbError::UnknownTable(name.to_string()))
}

pub(crate) fn run_update(
    db: &mut Database,
    upd: &UpdateStatement,
    side: &mut SideEffects,
) -> Result<usize, DbError> {
    // Pass 1 (read-only): decide which rows match and compute new values.
    let updates = {
        let db: &Database = db;
        let table = table_for(db, &upd.table)?;
        let targets: Vec<Option<usize>> =
            upd.assignments.iter().map(|(col, _)| table.column_index(col)).collect();
        matching_rows(
            db,
            table,
            upd.where_clause.as_ref(),
            upd.limit.as_ref(),
            side,
            |ctx, side, ri| {
                let mut assignments = Vec::with_capacity(upd.assignments.len());
                for ((col, e), target) in upd.assignments.iter().zip(&targets) {
                    let idx = target.ok_or_else(|| DbError::UnknownColumn(col.clone()))?;
                    assignments.push((idx, eval(ctx, side, e)?.into_owned()));
                }
                Ok((ri, assignments))
            },
        )?
    };
    let affected = updates.len();
    let table = db.table_mut(&upd.table).expect("checked above");
    for (ri, assignments) in updates {
        for (ci, val) in assignments {
            table.rows_mut()[ri][ci] = val;
        }
    }
    Ok(affected)
}

pub(crate) fn run_delete(
    db: &mut Database,
    del: &DeleteStatement,
    side: &mut SideEffects,
) -> Result<usize, DbError> {
    let doomed = {
        let db: &Database = db;
        let table = table_for(db, &del.table)?;
        let (pred, limit) = (del.where_clause.as_ref(), del.limit.as_ref());
        matching_rows(db, table, pred, limit, side, |_, _, ri| Ok(ri))?
    };
    let affected = doomed.len();
    let table = db.table_mut(&del.table).expect("checked above");
    for ri in doomed.into_iter().rev() {
        table.rows_mut().remove(ri);
    }
    Ok(affected)
}
