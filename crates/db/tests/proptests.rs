//! Property-based tests for the in-memory MySQL-subset engine.

use joza_db::{Database, DbError, QueryResult, Value, PLAN_CACHE_CAPACITY};
use joza_sqlparse::parser::{parse, MAX_NESTING_DEPTH};
use proptest::prelude::*;

fn db_with(rows: &[(i64, &str)]) -> Database {
    let mut db = Database::new();
    db.create_table("t", &["id", "name"]);
    for (id, name) in rows {
        db.insert_row("t", vec![Value::Int(*id), (*name).into()]);
    }
    db
}

/// Every statement shape the WordPress crawl and its comment posts
/// issue, `{}` marking each literal.
const WP_SHAPES: &[&str] = &[
    "SELECT option_value FROM wp_options WHERE option_name = {} LIMIT {}",
    "SELECT COUNT(*) FROM wp_comments WHERE comment_post_ID = {}",
    "SELECT term_id, name FROM wp_terms WHERE {} ORDER BY name ASC LIMIT {}",
    "SELECT * FROM wp_posts WHERE ID = {} LIMIT {}",
    "SELECT user_login FROM wp_users WHERE ID = {} LIMIT {}",
    "SELECT post_author, COUNT(*) FROM wp_posts WHERE post_status = {} GROUP BY post_author",
    "SELECT meta_key, meta_value FROM wp_postmeta WHERE post_id = {}",
    "SELECT comment_author, comment_content FROM wp_comments WHERE comment_approved = {} \
     ORDER BY comment_ID DESC LIMIT {}",
    "SELECT comment_author, comment_content FROM wp_comments WHERE comment_approved = {} \
     AND comment_post_ID = {} ORDER BY comment_ID ASC",
    "SELECT ID, post_title FROM wp_posts WHERE post_status = {} ORDER BY post_date DESC LIMIT {}",
    "SELECT ID, post_title FROM wp_posts WHERE post_status = {} AND ID > {} ORDER BY ID ASC \
     LIMIT {}",
    "SELECT ID, post_title FROM wp_posts WHERE post_status = {} AND ID < {} ORDER BY ID DESC \
     LIMIT {}",
    "SELECT COUNT(*) FROM wp_posts WHERE post_status = {}",
    "SELECT ID FROM wp_posts WHERE ID = {} AND post_status = {} LIMIT {}",
    "UPDATE wp_posts SET comment_count = {} WHERE ID = {}",
    "SELECT comment_ID FROM wp_comments WHERE comment_author = {} AND comment_content = {} \
     LIMIT {}",
    "SELECT COUNT(*) FROM wp_comments WHERE comment_post_ID = {} AND comment_content = {}",
    "INSERT INTO wp_comments (comment_post_ID, comment_author, comment_content, \
     comment_approved) VALUES ({}, {}, {}, {})",
    "SELECT ID, post_title FROM wp_posts WHERE post_status = {} AND (post_title LIKE {} \
     OR post_content LIKE {}) ORDER BY post_date DESC",
    "SELECT ID, post_title, post_content, post_author, post_date FROM wp_posts \
     WHERE post_status = {} ORDER BY post_date DESC LIMIT {}",
];

/// A small database with the WordPress tables the shapes read.
fn wp_db() -> Database {
    let mut db = Database::new();
    db.create_table("wp_options", &["option_name", "option_value"]);
    for (name, value) in [("siteurl", "http://localhost/wp"), ("blogname", "Blog"), ("x", "1")] {
        db.insert_row("wp_options", vec![name.into(), value.into()]);
    }
    db.create_table(
        "wp_posts",
        &["ID", "post_title", "post_content", "post_author", "post_date", "post_status"],
    );
    for i in 1..=6i64 {
        let status = if i % 3 == 0 { "draft" } else { "publish" };
        db.insert_row(
            "wp_posts",
            vec![
                Value::Int(i),
                format!("Post {i}").into(),
                format!("it's -- post {i}").into(),
                Value::Int(i % 2 + 1),
                format!("2014-1{}-0{} 10:00:00", i % 3, 9 - i).into(),
                status.into(),
            ],
        );
    }
    db.create_table("wp_users", &["ID", "user_login", "user_pass"]);
    db.insert_row("wp_users", vec![Value::Int(1), "admin".into(), "p4ss".into()]);
    db.insert_row("wp_users", vec![Value::Int(2), "bob".into(), Value::Null]);
    db.create_table("wp_terms", &["term_id", "name"]);
    for (i, name) in ["news", "Misc", "10"].into_iter().enumerate() {
        db.insert_row("wp_terms", vec![Value::Int(i as i64), name.into()]);
    }
    db.create_table("wp_postmeta", &["post_id", "meta_key", "meta_value"]);
    db.insert_row("wp_postmeta", vec![Value::Int(1), "views".into(), Value::Float(2.5)]);
    db.create_table(
        "wp_comments",
        &["comment_ID", "comment_post_ID", "comment_author", "comment_content", "comment_approved"],
    );
    for i in 1..=4i64 {
        db.insert_row(
            "wp_comments",
            vec![
                Value::Int(i),
                Value::Int(i % 2 + 1),
                format!("a{i}").into(),
                "c'\\x".into(),
                (if i == 3 { "0" } else { "1" }).into(),
            ],
        );
    }
    db
}

/// SQL text for one literal: integers small, negative and past `i64`,
/// floats, hex, and strings with quotes, backslashes, comment markers,
/// `LIKE` wildcards, or nothing at all.
fn literal(kind: u8, n: i64, text: &str) -> String {
    match kind {
        0 => (n.rem_euclid(8)).to_string(),
        1 => format!("-{}", n.rem_euclid(1000)),
        2 => format!("{}0", n.unsigned_abs()),
        3 => format!("{}.{}", n.rem_euclid(10), n.rem_euclid(97)),
        4 => format!("{}e{}", n.rem_euclid(9), n.rem_euclid(400)),
        5 => format!("0x{:x}", n.rem_euclid(0x7f7f) + 0x2020),
        6 => format!("'{}'", text.replace('\\', "\\\\").replace('\'', "''")),
        7 => format!("'{}'", text.replace('\\', "\\\\").replace('\'', "\\'")),
        8 => format!("'-- {}#'", text.replace(['\\', '\''], "")),
        9 => "''".to_string(),
        _ => format!("'publish{}'", if n % 2 == 0 { "" } else { "%" }),
    }
}

fn render(shape: &str, literals: &[String]) -> String {
    let mut sql = String::new();
    let mut parts = shape.split("{}");
    sql.push_str(parts.next().unwrap_or_default());
    for (part, lit) in parts.zip(literals.iter().cycle()) {
        sql.push_str(lit);
        sql.push_str(part);
    }
    sql
}

/// The statement executed without the plan cache: parsed from scratch.
fn cold(db: &mut Database, sql: &str) -> Result<QueryResult, DbError> {
    db.execute_parsed(&parse(sql)?)
}

/// Asserts two databases observably equal: clock, statement count and
/// every table.
fn assert_same_state(warm: &Database, cold: &Database) {
    assert_eq!(warm.clock_ms(), cold.clock_ms());
    assert_eq!(warm.queries_executed(), cold.queries_executed());
    assert!(warm.tables().eq(cold.tables()), "table dumps differ");
}

proptest! {
    /// A statement bound into a cached plan behaves exactly as the same
    /// text parsed from scratch: result or error, virtual clock, tables.
    /// Each generated statement runs twice, with fresh literals of the
    /// same kinds the second time, so the second run is a cache hit.
    #[test]
    fn cached_plans_match_a_cold_parse(
        shapes in proptest::collection::vec(0usize..WP_SHAPES.len(), 1..16),
        kinds in proptest::collection::vec(0u8..11, 64..65),
        nums in proptest::collection::vec(any::<i64>(), 128..129),
        texts in proptest::collection::vec("[a-z'\"\\\\ %_-]{0,10}", 128..129),
    ) {
        let (mut warm, mut cold_db) = (wp_db(), wp_db());
        for (i, shape) in shapes.iter().enumerate() {
            for fresh in [0, 64] {
                let lits: Vec<String> = (4 * i..4 * i + 4)
                    .map(|j| literal(kinds[j], nums[j + fresh], &texts[j + fresh]))
                    .collect();
                let sql = render(WP_SHAPES[*shape], &lits);
                let hits = warm.plan_cache_stats().hits;
                let (w, c) = (warm.execute(&sql), cold(&mut cold_db, &sql));
                prop_assert_eq!(format!("{w:?}"), format!("{c:?}"), "{}", sql);
                assert_same_state(&warm, &cold_db);
                if fresh > 0 && !matches!(w, Err(DbError::Parse(_))) {
                    prop_assert_eq!(warm.plan_cache_stats().hits, hits + 1, "{}", sql);
                }
            }
        }
    }

    /// A shape nested past the limit is never cached: every execution
    /// returns the parser's own error.
    #[test]
    fn over_deep_statements_keep_their_parse_error(n in 0i64..1000, extra in 1usize..8) {
        let depth = MAX_NESTING_DEPTH + extra;
        let sql = format!(
            "SELECT * FROM wp_posts WHERE {}ID = {n}{}",
            "(".repeat(depth),
            ")".repeat(depth)
        );
        let mut db = wp_db();
        let expected = parse(&sql).unwrap_err();
        for _ in 0..2 {
            prop_assert_eq!(db.execute(&sql).unwrap_err(), DbError::Parse(expected.clone()));
        }
        prop_assert_eq!(db.plan_cache_stats().entries, 0);
        prop_assert_eq!(db.queries_executed(), 0);
    }
}

/// However many shapes a stream brings, the cache holds at most its
/// capacity.
#[test]
fn plan_cache_stays_within_its_capacity() {
    let mut db = wp_db();
    for i in 0..10_000 {
        db.execute(&format!("SELECT ID AS c{i} FROM wp_posts WHERE ID = {i}")).unwrap();
        assert!(db.plan_cache_stats().entries <= PLAN_CACHE_CAPACITY);
    }
    let stats = db.plan_cache_stats();
    assert_eq!((stats.hits, stats.misses), (0, 10_000));
    // Recent shapes are still cached; creating a table drops them all.
    db.execute("SELECT ID AS c9999 FROM wp_posts WHERE ID = 1").unwrap();
    assert_eq!(db.plan_cache_stats().hits, 1);
    db.create_table("t", &["a"]);
    assert_eq!(db.plan_cache_stats().entries, 0);
}

proptest! {
    /// The engine is total over arbitrary SQL text: parse errors are
    /// errors, never panics.
    #[test]
    fn execute_never_panics(sql in ".{0,200}") {
        let mut db = db_with(&[(1, "a")]);
        let _ = db.execute(&sql);
    }

    /// INSERT then COUNT(*) agrees with the number of inserts.
    #[test]
    fn insert_then_count(n in 0usize..30) {
        let mut db = Database::new();
        db.create_table("t", &["id", "name"]);
        for i in 0..n {
            let sql = format!("INSERT INTO t (id, name) VALUES ({i}, 'row{i}')");
            db.execute(&sql).expect("insert");
        }
        let r = db.execute("SELECT COUNT(*) FROM t").expect("count");
        prop_assert_eq!(r.rows[0][0].clone(), Value::Int(n as i64));
    }

    /// Point lookups return exactly the matching row.
    #[test]
    fn where_equality_filters(ids in proptest::collection::btree_set(0i64..100, 1..20)) {
        let rows: Vec<(i64, String)> = ids.iter().map(|i| (*i, format!("n{i}"))).collect();
        let row_refs: Vec<(i64, &str)> = rows.iter().map(|(i, s)| (*i, s.as_str())).collect();
        let mut db = db_with(&row_refs);
        let target = *ids.iter().next().unwrap();
        let r = db.execute(&format!("SELECT name FROM t WHERE id = {target}")).unwrap();
        prop_assert_eq!(r.rows.len(), 1);
        prop_assert_eq!(r.rows[0][0].as_str(), format!("n{target}"));
    }

    /// A tautology returns every row — the attack effect Joza prevents.
    #[test]
    fn tautology_returns_all(n in 1usize..20) {
        let rows: Vec<(i64, String)> = (0..n as i64).map(|i| (i, format!("n{i}"))).collect();
        let row_refs: Vec<(i64, &str)> = rows.iter().map(|(i, s)| (*i, s.as_str())).collect();
        let mut db = db_with(&row_refs);
        let r = db.execute("SELECT name FROM t WHERE id = -1 OR 1=1").unwrap();
        prop_assert_eq!(r.rows.len(), n);
    }

    /// UNION appends rows and keeps the left arity; mismatched arity errors.
    #[test]
    fn union_semantics(n in 1usize..10) {
        let rows: Vec<(i64, String)> = (0..n as i64).map(|i| (i, format!("n{i}"))).collect();
        let row_refs: Vec<(i64, &str)> = rows.iter().map(|(i, s)| (*i, s.as_str())).collect();
        let mut db = db_with(&row_refs);
        let r = db.execute("SELECT name FROM t WHERE id = -1 UNION SELECT name FROM t").unwrap();
        prop_assert_eq!(r.rows.len(), n);
        let err = db.execute("SELECT name FROM t UNION SELECT id, name FROM t");
        prop_assert!(err.is_err(), "arity mismatch must error");
    }

    /// ORDER BY + LIMIT: results are sorted and capped.
    #[test]
    fn order_by_limit(mut ids in proptest::collection::vec(0i64..1000, 1..25), k in 1usize..10) {
        ids.sort_unstable();
        ids.dedup();
        let rows: Vec<(i64, String)> = ids.iter().map(|i| (*i, format!("n{i}"))).collect();
        let row_refs: Vec<(i64, &str)> = rows.iter().map(|(i, s)| (*i, s.as_str())).collect();
        let mut db = db_with(&row_refs);
        let r = db.execute(&format!("SELECT id FROM t ORDER BY id DESC LIMIT {k}")).unwrap();
        prop_assert!(r.rows.len() <= k);
        let got: Vec<i64> = r.rows.iter().map(|row| match &row[0] {
            Value::Int(i) => *i,
            other => panic!("unexpected {other:?}"),
        }).collect();
        let mut expect = ids.clone();
        expect.sort_unstable_by(|a, b| b.cmp(a));
        expect.truncate(k.min(ids.len()));
        prop_assert_eq!(got, expect);
    }

    /// UPDATE changes exactly the matched rows; DELETE removes them.
    #[test]
    fn update_delete_roundtrip(n in 2usize..15) {
        let rows: Vec<(i64, String)> = (0..n as i64).map(|i| (i, format!("n{i}"))).collect();
        let row_refs: Vec<(i64, &str)> = rows.iter().map(|(i, s)| (*i, s.as_str())).collect();
        let mut db = db_with(&row_refs);
        db.execute("UPDATE t SET name = 'renamed' WHERE id = 0").unwrap();
        let r = db.execute("SELECT COUNT(*) FROM t WHERE name = 'renamed'").unwrap();
        prop_assert_eq!(r.rows[0][0].clone(), Value::Int(1));
        db.execute("DELETE FROM t WHERE id = 0").unwrap();
        let r = db.execute("SELECT COUNT(*) FROM t").unwrap();
        prop_assert_eq!(r.rows[0][0].clone(), Value::Int(n as i64 - 1));
    }

    /// SLEEP consumes virtual time, never wall-clock time.
    #[test]
    fn sleep_is_virtual(secs in 0i64..30) {
        let mut db = db_with(&[(1, "a")]);
        let t0 = db.clock_ms();
        let wall = std::time::Instant::now();
        db.execute(&format!("SELECT * FROM t WHERE id=1 AND SLEEP({secs})")).unwrap();
        prop_assert!(db.clock_ms() - t0 >= (secs as u64) * 1000);
        prop_assert!(wall.elapsed() < std::time::Duration::from_millis(200));
    }
}

/// String comparisons follow MySQL's case-insensitive default collation
/// for WHERE but values round-trip byte-exactly.
#[test]
fn string_semantics() {
    let mut db = db_with(&[(1, "Alice")]);
    let r = db.execute("SELECT name FROM t WHERE name = 'alice'").unwrap();
    assert_eq!(r.rows.len(), 1, "MySQL default collation is case-insensitive");
    assert_eq!(r.rows[0][0].as_str(), "Alice");
}

/// LIKE with % wildcards.
#[test]
fn like_patterns() {
    let mut db = db_with(&[(1, "hello world"), (2, "goodbye")]);
    let r = db.execute("SELECT id FROM t WHERE name LIKE '%world%'").unwrap();
    assert_eq!(r.rows.len(), 1);
    let r = db.execute("SELECT id FROM t WHERE name LIKE 'good%'").unwrap();
    assert_eq!(r.rows.len(), 1);
    let r = db.execute("SELECT id FROM t WHERE name LIKE '%zzz%'").unwrap();
    assert!(r.rows.is_empty());
}

/// Unknown table/column are errors the application can observe (the
/// standard-blind signal).
#[test]
fn errors_are_observable() {
    let mut db = db_with(&[(1, "a")]);
    assert!(db.execute("SELECT * FROM missing").is_err());
    assert!(db.execute("SELECT nope FROM t").is_err());
    assert!(db.execute("SELECT * FROM t WHERE").is_err());
}
