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
    fn scan(table: &'a Table) -> Self {
        let cells: Vec<_> = table.rows().iter().map(|r| Some(r.as_slice())).collect();
        Rows { width: 1, len: cells.len(), cells }
    }

    fn push(&mut self, row: Row<'_, 'a>) {
        self.cells.extend_from_slice(row);
        self.len += 1;
    }

    fn iter(&self) -> impl Iterator<Item = Row<'_, 'a>> {
        (0..self.len).map(|i| &self.cells[i * self.width..(i + 1) * self.width])
    }
}

/// Runs a SELECT (with any UNION continuations) and returns
/// `(column names, rows)`.
pub(crate) fn run_select(
    db: &Database,
    sel: &SelectStatement,
    side: &mut SideEffects,
) -> Result<(Vec<String>, Vec<Vec<Value>>), DbError> {
    run_select_with_outer(db, sel, side, None)
}

pub(crate) fn run_select_with_outer<'a>(
    db: &'a Database,
    sel: &'a SelectStatement,
    side: &mut SideEffects,
    outer: Option<&Ctx<'_, 'a>>,
) -> Result<(Vec<String>, Vec<Vec<Value>>), DbError> {
    let (columns, mut rows) = run_select_body(db, sel, side, outer)?;
    for (op, arm) in &sel.set_ops {
        let (_, arm_rows) = run_select_body(db, arm, side, outer)?;
        let arm_width = arm_rows.first().map_or_else(|| count_projection_width(arm), |r| r.len());
        if arm_width != columns.len() && !(arm_rows.is_empty() && arm_width == 0) {
            return Err(DbError::UnionColumnMismatch { left: columns.len(), right: arm_width });
        }
        rows.extend(arm_rows);
        if *op == SetOp::Union {
            dedup(&mut rows, |r| r);
        }
    }
    Ok((columns, rows))
}

/// Static column count of a SELECT's projection list (used to detect UNION
/// column mismatches even when an arm produced zero rows).
fn count_projection_width(sel: &SelectStatement) -> usize {
    // Wildcards have data-dependent width; treat each as one-or-more. For
    // mismatch detection on empty arms we only need a best-effort count.
    sel.projections.len()
}

/// Keeps the first of the items whose rows render to the same `Debug`
/// text (UNION, DISTINCT).
fn dedup<T>(items: &mut Vec<T>, row: impl Fn(&T) -> &Vec<Value>) {
    let mut seen = HashSet::new();
    items.retain(|item| seen.insert(format!("{:?}", row(item))));
}

fn run_select_body<'a>(
    db: &'a Database,
    sel: &'a SelectStatement,
    side: &mut SideEffects,
    outer: Option<&Ctx<'_, 'a>>,
) -> Result<(Vec<String>, Vec<Vec<Value>>), DbError> {
    // 1. FROM / JOIN: the scope, then the joined rows. The scope stops at
    // the first unknown table, which fails when the pipeline reaches it.
    let table_refs: Vec<&TableRef> =
        sel.from.iter().chain(sel.joins.iter().map(|j| &j.table)).collect();
    let scope = Scope::new(
        table_refs
            .iter()
            .map_while(|t| {
                let table = db.table(&t.name)?;
                Some(Source { qualifier: t.alias.as_deref().unwrap_or(&t.name), table })
            })
            .collect(),
    );
    let source = |i: usize| {
        scope
            .sources()
            .get(i)
            .map(|s| s.table)
            .ok_or_else(|| DbError::UnknownTable(table_refs[i].name.clone()))
    };
    let mut rows = match &sel.from {
        // `SELECT 1`: one row with no sources.
        None => Rows { width: 0, len: 1, cells: Vec::new() },
        Some(_) => Rows::scan(source(0)?),
    };
    for (i, join) in sel.joins.iter().enumerate() {
        rows = join_rows(db, &scope, &rows, source(i + 1)?, join, side, outer)?;
    }

    // 2. WHERE.
    if let Some(pred) = &sel.where_clause {
        let mut kept = Rows::new(rows.width);
        for row in rows.iter() {
            let ctx = Ctx { db, scope: &scope, row: Some(row), group: None, outer };
            if eval(ctx, side, pred)?.is_truthy() {
                kept.push(row);
            }
        }
        rows = kept;
    }

    // 3. Aggregation decision.
    let aggregated = !sel.group_by.is_empty()
        || sel.projections.iter().any(|p| match p {
            Projection::Expr { expr, .. } => contains_aggregate(expr),
            _ => false,
        })
        || sel.having.as_ref().is_some_and(contains_aggregate);

    // Each produced row carries its ORDER BY keys.
    let mut produced: Vec<(Vec<Value>, Vec<Cow<'a, Value>>)> = Vec::new();
    if aggregated {
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
            produced.push((project(ctx, side, sel)?, order_keys(ctx, side, sel)?));
        }
    } else {
        for row in rows.iter() {
            let ctx = Ctx { db, scope: &scope, row: Some(row), group: None, outer };
            produced.push((project(ctx, side, sel)?, order_keys(ctx, side, sel)?));
        }
    }
    // Column names come from the scope, so one computation serves every
    // row; an empty plain result names its wildcards `*`.
    let out_columns = if !produced.is_empty() {
        projection_names(sel, |p| match p {
            Projection::QualifiedWildcard(q) => {
                wildcard_names(&scope, |s| s.qualifier.eq_ignore_ascii_case(q))
            }
            _ => wildcard_names(&scope, |_| true),
        })
    } else if aggregated {
        Vec::new()
    } else {
        projection_names(sel, |_| vec!["*".to_string()])
    };

    // 4. DISTINCT.
    if sel.distinct {
        dedup(&mut produced, |(r, _)| r);
    }

    // 5. ORDER BY.
    if !sel.order_by.is_empty() {
        let descs: Vec<bool> = sel.order_by.iter().map(|o| o.desc).collect();
        produced.sort_by(|(_, ka), (_, kb)| {
            for (i, (a, b)) in ka.iter().zip(kb.iter()).enumerate() {
                let ord = a.compare(b).unwrap_or(std::cmp::Ordering::Equal);
                let ord = if descs.get(i).copied().unwrap_or(false) { ord.reverse() } else { ord };
                if ord != std::cmp::Ordering::Equal {
                    return ord;
                }
            }
            std::cmp::Ordering::Equal
        });
    }

    // 6. LIMIT / OFFSET.
    let mut rows: Vec<Vec<Value>> = produced.into_iter().map(|(r, _)| r).collect();
    if let Some(limit) = &sel.limit {
        let ctx = Ctx { db, scope: &scope, row: None, group: None, outer };
        let count = eval(ctx, side, &limit.count)?.as_i64().max(0) as usize;
        let offset = match &limit.offset {
            Some(o) => eval(ctx, side, o)?.as_i64().max(0) as usize,
            None => 0,
        };
        rows = rows.into_iter().skip(offset).take(count).collect();
    }

    Ok((out_columns, rows))
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

fn order_keys<'a>(
    ctx: Ctx<'_, 'a>,
    side: &mut SideEffects,
    sel: &'a SelectStatement,
) -> Result<Vec<Cow<'a, Value>>, DbError> {
    let mut keys = Vec::with_capacity(sel.order_by.len());
    for item in &sel.order_by {
        keys.push(eval(ctx, side, &item.expr)?);
    }
    Ok(keys)
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
    let key = ins.table.to_ascii_lowercase();
    let table = db.tables.get_mut(&key).ok_or_else(|| DbError::UnknownTable(ins.table.clone()))?;
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
    let table = db.tables.get_mut(&upd.table.to_ascii_lowercase()).expect("checked above");
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
    let table = db.tables.get_mut(&del.table.to_ascii_lowercase()).expect("checked above");
    for ri in doomed.into_iter().rev() {
        table.rows_mut().remove(ri);
    }
    Ok(affected)
}
