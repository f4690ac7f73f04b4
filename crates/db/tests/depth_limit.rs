//! Over-deep statements fail closed: `Database::execute` returns a parse
//! error for them instead of overflowing the stack and aborting the
//! process, and statements just inside the nesting limit still execute.
//! Statements inside the limit whose work multiplies with their depth
//! stop at the row budget instead of hanging.
//!
//! The tests run on the test harness's worker threads, whose stacks are
//! smaller than a main thread's, in the unoptimised build, whose frames
//! are the largest.

use joza_db::{Database, DbError, Value, ROW_BUDGET};
use joza_sqlparse::parser::MAX_NESTING_DEPTH;
use std::time::{Duration, Instant};

fn db() -> Database {
    let mut db = Database::new();
    db.create_table("t", &["id", "name"]);
    db.insert_row("t", vec![Value::Int(1), "a".into()]);
    db.insert_row("t", vec![Value::Int(2), "b".into()]);
    db
}

/// Statement shapes that nest `n` levels deep, one per way the parser
/// or the evaluator recurses (a subquery counts two levels).
fn shapes(n: usize) -> Vec<String> {
    vec![
        format!("SELECT * FROM t WHERE {}id = 1{}", "(".repeat(n), ")".repeat(n)),
        format!("SELECT * FROM t WHERE {}id{}", "(".repeat(n), " = 1)".repeat(n)),
        format!("SELECT * FROM t WHERE {}'a'{}", "(name NOT REGEXP ".repeat(n), ")".repeat(n)),
        format!("SELECT {}id{} FROM t", "ABS(".repeat(n), ")".repeat(n)),
        format!("SELECT * FROM t WHERE {}id = 1", "id = 2 OR ".repeat(n)),
        format!("SELECT {}id FROM t", "id + ".repeat(n)),
        format!("SELECT {}id FROM t", "- ".repeat(n)),
        format!("SELECT * FROM t WHERE {}id = 1", "NOT ".repeat(n)),
        // Scalar subqueries without FROM: `id` resolves through every
        // enclosing query, and each level runs its subquery once.
        format!("SELECT {}id{} FROM t", "(SELECT ".repeat(n / 2), ")".repeat(n / 2)),
    ]
}

#[test]
fn hundred_thousand_levels_are_a_parse_error() {
    let mut db = db();
    for sql in shapes(100_000) {
        match db.execute(&sql) {
            Err(DbError::Parse(e)) => assert!(e.message.contains("nested deeper than"), "{e}"),
            other => panic!("{}…: expected a parse error, got {other:?}", &sql[..40]),
        }
    }
    // Nothing was executed, and the database still serves.
    assert_eq!(db.queries_executed(), 0);
    assert_eq!(db.execute("SELECT COUNT(*) FROM t").unwrap().rows, vec![vec![Value::Int(2)]]);
}

#[test]
fn statements_inside_the_limit_execute() {
    let mut db = db();
    // The statement's SELECT and its top expression take two levels.
    for sql in shapes(MAX_NESTING_DEPTH - 2) {
        assert!(db.execute(&sql).is_ok(), "{}… failed", &sql[..40]);
    }
}

/// `EXISTS` nested `levels` deep: each level runs its subquery once per
/// row of the level above, so the statement visits about 2^(levels + 1)
/// rows of the 2-row table.
fn nested_exists(levels: usize) -> String {
    let open = "SELECT id FROM t WHERE EXISTS (".repeat(levels);
    format!("{open}SELECT id FROM t{}", ")".repeat(levels))
}

#[test]
fn multiplying_subqueries_stop_at_the_row_budget() {
    let mut db = db();
    // Shallow nesting stays far inside the budget.
    assert_eq!(db.execute(&nested_exists(4)).unwrap().rows.len(), 2);
    let started = Instant::now();
    let err = db.execute(&nested_exists(31)).unwrap_err();
    assert_eq!(err, DbError::WorkBudgetExceeded);
    assert!(err.to_string().contains(&ROW_BUDGET.to_string()), "{err}");
    assert!(started.elapsed() < Duration::from_secs(1), "took {:?}", started.elapsed());
    // The database still serves.
    assert_eq!(db.execute("SELECT COUNT(*) FROM t").unwrap().rows, vec![vec![Value::Int(2)]]);
}
