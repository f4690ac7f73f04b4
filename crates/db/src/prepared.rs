//! Prepared statements: parse once, bind values as *data*.
//!
//! "Prepared statements are used to prevent SQL injection … and any input
//! provided by an attacker would be treated as data by the backend
//! database. Unfortunately, prepared statements are not a panacea." (§V-B)
//!
//! Binding works by AST substitution: every [`Expr::Placeholder`] is
//! replaced with an [`Expr::Literal`] carrying the bound [`Value`].
//! Because the value enters the tree as a literal node, it is never
//! re-lexed or re-parsed — a bound string containing `' OR 1=1` stays an
//! inert string, which is exactly the guarantee real prepared statements
//! provide. The Drupal CVE-2014-3704 case study attacks the step *before*
//! binding: application code splices attacker-controlled placeholder
//! *names* into the statement text, which no amount of binding can fix.

use crate::engine::{Database, DbError, QueryResult};
use crate::plan::walk_statement;
use joza_sqlparse::ast::{Expr, Statement};
use joza_sqlparse::Value;
use std::collections::HashMap;

impl Database {
    /// Parses `sql`, binds `params` (name → value, names include the
    /// leading `:`; positional `?` placeholders bind to `"?"` in order of
    /// appearance is *not* supported — use named placeholders), and
    /// executes the statement.
    ///
    /// # Errors
    ///
    /// Returns [`DbError::Parse`] on parse failure, [`DbError::Other`]
    /// when a placeholder has no binding, and any execution error.
    ///
    /// # Examples
    ///
    /// ```
    /// use joza_db::{Database, Value};
    ///
    /// let mut db = Database::new();
    /// db.create_table("t", &["id", "name"]);
    /// db.insert_row("t", vec![Value::Int(1), "alice".into()]);
    ///
    /// let r = db
    ///     .execute_prepared(
    ///         "SELECT name FROM t WHERE id = :id",
    ///         &[(":id".to_string(), Value::Int(1))],
    ///     )
    ///     .expect("prepared select");
    /// assert_eq!(r.rows[0][0].as_str(), "alice");
    ///
    /// // A hostile *bound value* stays data: no rows, no injection.
    /// let r = db
    ///     .execute_prepared(
    ///         "SELECT name FROM t WHERE name = :n",
    ///         &[(":n".to_string(), "x' OR '1'='1".into())],
    ///     )
    ///     .expect("prepared select");
    /// assert!(r.rows.is_empty());
    /// ```
    pub fn execute_prepared(
        &mut self,
        sql: &str,
        params: &[(String, Value)],
    ) -> Result<QueryResult, DbError> {
        let map: HashMap<&str, &Value> = params.iter().map(|(k, v)| (k.as_str(), v)).collect();
        self.with_plan(sql, |db, stmt, shape| {
            let mut stmt = stmt.clone();
            bind_statement(&mut stmt, &map)?;
            db.run(&stmt, Some(shape))
        })
    }
}

fn missing(name: &str) -> DbError {
    DbError::Other(format!("no value bound for placeholder {name}"))
}

/// Replaces every placeholder with its bound value, as a literal.
fn bind_statement(stmt: &mut Statement, params: &HashMap<&str, &Value>) -> Result<(), DbError> {
    walk_statement(stmt, &mut |e| {
        if let Expr::Placeholder(name) = e {
            let v = params.get(name.as_str()).ok_or_else(|| missing(name))?;
            *e = Expr::Literal((*v).clone());
        }
        Ok(())
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn db() -> Database {
        let mut db = Database::new();
        db.create_table("t", &["id", "name"]);
        for (i, n) in [(1, "alice"), (2, "bob"), (3, "carol")] {
            db.insert_row("t", vec![Value::Int(i), n.into()]);
        }
        db
    }

    #[test]
    fn named_binding_in_where() {
        let mut db = db();
        let r = db
            .execute_prepared("SELECT name FROM t WHERE id = :id", &[(":id".into(), Value::Int(2))])
            .unwrap();
        assert_eq!(r.rows.len(), 1);
        assert_eq!(r.rows[0][0].as_str(), "bob");
    }

    #[test]
    fn in_list_with_multiple_placeholders() {
        let mut db = db();
        let r = db
            .execute_prepared(
                "SELECT name FROM t WHERE id IN (:a, :b)",
                &[(":a".into(), Value::Int(1)), (":b".into(), Value::Int(3))],
            )
            .unwrap();
        assert_eq!(r.rows.len(), 2);
    }

    #[test]
    fn bound_injection_payload_stays_data() {
        let mut db = db();
        let r = db
            .execute_prepared(
                "SELECT name FROM t WHERE name = :n",
                &[(":n".into(), "alice' OR '1'='1".into())],
            )
            .unwrap();
        assert!(r.rows.is_empty(), "bound payload must be inert data");
        // …whereas string concatenation of the same payload is an attack:
        let r = db.execute("SELECT name FROM t WHERE name = 'alice' OR '1'='1'").unwrap();
        assert_eq!(r.rows.len(), 3);
    }

    #[test]
    fn unbound_placeholder_errors() {
        let mut db = db();
        let err = db.execute_prepared("SELECT name FROM t WHERE id = :id", &[]).unwrap_err();
        assert!(err.to_string().contains(":id"), "{err}");
    }

    #[test]
    fn binding_in_insert_and_update() {
        let mut db = db();
        db.execute_prepared(
            "INSERT INTO t (id, name) VALUES (:id, :name)",
            &[(":id".into(), Value::Int(4)), (":name".into(), "dave".into())],
        )
        .unwrap();
        db.execute_prepared(
            "UPDATE t SET name = :n WHERE id = :id",
            &[(":n".into(), "DAVE".into()), (":id".into(), Value::Int(4))],
        )
        .unwrap();
        let r = db.execute("SELECT name FROM t WHERE id = 4").unwrap();
        assert_eq!(r.rows[0][0].as_str(), "DAVE");
    }

    #[test]
    fn placeholder_name_injection_is_the_remaining_hole() {
        // The Drupal pattern: the *statement text* already contains the
        // attack because placeholder names were built from input. Binding
        // is irrelevant at that point.
        let mut db = db();
        let r = db
            .execute_prepared(
                "SELECT name FROM t WHERE id IN (:ids_0) UNION SELECT name FROM t-- -)",
                &[(":ids_0".into(), Value::Int(99))],
            )
            .unwrap();
        assert_eq!(r.rows.len(), 3, "injected UNION executes despite binding");
    }
}
