#![warn(missing_docs)]
//! In-memory MySQL-subset database engine for Joza.
//!
//! The paper's testbed runs WordPress against MySQL; exploits are judged by
//! what the database actually *does* — union-based exploits leak rows,
//! boolean-blind exploits flip result emptiness, double-blind exploits
//! stretch response time via `SLEEP`/`BENCHMARK`, and error-based payloads
//! (`EXTRACTVALUE`/`UPDATEXML`) smuggle data through error messages. This
//! engine executes the [`joza_sqlparse`] AST with enough MySQL semantics
//! for all four behaviours to be observable:
//!
//! * `SELECT` with joins, `WHERE`, `GROUP BY`/aggregates, `HAVING`,
//!   `ORDER BY`, `LIMIT`, `UNION [ALL]`, subqueries;
//! * `INSERT`/`REPLACE`/`UPDATE`/`DELETE`;
//! * the MySQL function vocabulary injection payloads rely on (`CHAR`,
//!   `CONCAT`, `VERSION`, `USER`, `IF`, `SUBSTRING`, `ASCII`, …);
//! * a **virtual clock**: `SLEEP(n)` charges `n` seconds to the query's
//!   elapsed time without actually sleeping, so double-blind timing
//!   experiments run at full speed and deterministically.
//!
//! # Examples
//!
//! ```
//! use joza_db::{Database, Value};
//!
//! let mut db = Database::new();
//! db.create_table("users", &["id", "name", "pass"]);
//! db.insert_row("users", vec![Value::Int(1), "alice".into(), "s3cret".into()]);
//!
//! let r = db.execute("SELECT name FROM users WHERE id = 1")?;
//! assert_eq!(r.rows[0][0], Value::Str("alice".into()));
//!
//! // A union-based injection observably leaks the password column.
//! let r = db.execute("SELECT name FROM users WHERE id = -1 UNION SELECT pass FROM users")?;
//! assert_eq!(r.rows[0][0], Value::Str("s3cret".into()));
//! # Ok::<(), joza_db::DbError>(())
//! ```

mod engine;
mod eval;
mod exec;
mod origins;
mod plan;
mod prepared;
mod table;

pub use engine::{Database, DbError, QueryResult, ROW_BUDGET};
pub use joza_sqlparse::Value;
pub use plan::{PlanCacheStats, PLAN_CACHE_CAPACITY, PLAN_GENERATION};
pub use table::Table;
