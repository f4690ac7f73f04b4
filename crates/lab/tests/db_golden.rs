//! Golden differential over the in-memory database executor.
//!
//! Every statement the testbed issues is replayed, in order, against a
//! second copy of the seeded database, and the `Debug` rendering of each
//! `Result<QueryResult, DbError>` is recorded together with table dumps.
//! The statement streams come from:
//!
//! * the WordPress crawl (front page, every post, search) and comment
//!   posts;
//! * all 53 lab routes, each with its benign value and every exploit
//!   payload (leak, both boolean, both timing);
//! * the second-order two-phase flows (benign, exploit and evasive plant
//!   and trigger), the stacked-query case included;
//! * direct stacked statements and executor edge cases: joins, LEFT JOIN
//!   null extension, grouping, DISTINCT/UNION dedup, correlated
//!   subqueries, error channels, writes with `LIMIT`.
//!
//! The recording must stay bit-identical to `tests/golden/db_golden.txt`:
//! rows and their order, column names, affected counts, virtual time,
//! origins and error texts. The fixture was recorded from the executor
//! that copied every row into an owned environment, so it is the oracle
//! for the borrowed-row executor that replaced it. Rewrite it with
//! `JOZA_BLESS_GOLDEN=1 cargo test -p joza-lab --test db_golden` only
//! for an intended behaviour change, and say so in the change log.
//!
//! Each replayed section also checks the replay against the live server
//! that issued the statements: the two databases must end equal, and a
//! replayed error must belong to a request that surfaced an SQL error.

use joza_db::{Database, Table, Value};
use joza_lab::corpus::Exploit;
use joza_lab::harden::dump_database;
use joza_lab::second_order::{self, build_second_order_lab, SecondOrderLab};
use joza_lab::verify::request_for;
use joza_lab::wordpress::wordpress_database;
use joza_webapp::request::HttpRequest;
use std::fmt::Write as _;
use std::path::PathBuf;

/// A live lab plus a replay database seeded identically, and the
/// recording so far.
struct Golden {
    live: SecondOrderLab,
    replay: Database,
    out: String,
}

impl Golden {
    fn new() -> Golden {
        let live = build_second_order_lab();
        let replay = seeded_database(&live);
        Golden { live, replay, out: String::new() }
    }

    /// Serves `req` on the live server, then replays every statement it
    /// issued against the replay database and records each result.
    fn serve(&mut self, label: &str, req: &HttpRequest) {
        let resp = self.live.lab.server.handle(req);
        assert_eq!(resp.executed, resp.queries.len(), "[{label}] unprotected run skipped queries");
        writeln!(self.out, "## {label}").unwrap();
        let params: Vec<&(String, String)> = req.get.iter().chain(&req.post).collect();
        for sql in &resp.queries {
            let bindings = placeholder_bindings(sql, &params);
            let result = if bindings.is_empty() {
                self.replay.execute(sql)
            } else {
                self.replay.execute_prepared(sql, &bindings)
            };
            assert!(
                result.is_ok() || resp.sql_error.is_some(),
                "[{label}] replay of {sql:?} failed where the live run did not: {result:?}"
            );
            writeln!(self.out, "> {sql}\n{result:?}").unwrap();
        }
    }

    /// Runs `sql` directly on both databases and records the replay's
    /// result.
    fn direct(&mut self, sql: &str) {
        let live = self.live.lab.server.db.execute(sql);
        let result = self.replay.execute(sql);
        assert_eq!(live, result, "direct statement {sql:?} diverged between the two databases");
        writeln!(self.out, "> {sql}\n{result:?}").unwrap();
    }

    /// Asserts the live and replay databases agree and records the dump
    /// of every table that differs from its freshly seeded state.
    fn checkpoint(&mut self, label: &str) {
        assert_eq!(
            dump_database(&self.live.lab.server.db),
            dump_database(&self.replay),
            "[{label}] replay database diverged from the live one"
        );
        let seeded = seeded_database(&self.live);
        writeln!(self.out, "== {label}: tables changed from the seed").unwrap();
        for table in self.replay.tables() {
            let dump = table_dump(table);
            if seeded.table(table.name()).map(table_dump).as_ref() != Some(&dump) {
                self.out.push_str(&dump);
            }
        }
    }

    /// Restores both databases to the seeded state.
    fn reset(&mut self) {
        self.live.reset_database();
        self.replay = seeded_database(&self.live);
    }
}

/// The database [`SecondOrderLab::reset_database`] restores.
fn seeded_database(so: &SecondOrderLab) -> Database {
    let mut db = wordpress_database();
    for p in so.lab.plugins.iter().chain(&so.lab.cms_cases) {
        p.setup_tables(&mut db);
    }
    second_order::setup_tables(&mut db);
    db
}

/// One table's schema and rows, cell by cell, `NULL` distinct from `''`.
fn table_dump(table: &Table) -> String {
    let mut out = format!("{}({})\n", table.name(), table.columns().join(","));
    for row in table.rows() {
        let cells: Vec<String> = row.iter().map(Value::to_string).collect();
        out.push_str(&cells.join("|"));
        out.push('\n');
    }
    out
}

/// Bindings for a statement sent through `db_query`: Drupal's
/// `expandArguments` names the placeholder of request parameter
/// `name[key]` `:name_key`. Empty when no such placeholder occurs in
/// `sql`, i.e. for statements sent through `mysql_query`.
fn placeholder_bindings(sql: &str, params: &[&(String, String)]) -> Vec<(String, Value)> {
    let bindings: Vec<(String, Value)> = params
        .iter()
        .filter_map(|(k, v)| {
            let (name, rest) = k.split_once('[')?;
            let key = rest.strip_suffix(']')?;
            Some((format!(":{name}_{key}"), Value::from(v.as_str())))
        })
        .collect();
    if bindings.iter().any(|(name, _)| sql.contains(name.as_str())) {
        bindings
    } else {
        Vec::new()
    }
}

fn record_wordpress(g: &mut Golden) {
    g.serve("wp index", &HttpRequest::get("index"));
    for p in 1..=41 {
        g.serve(
            &format!("wp single-post {p}"),
            &HttpRequest::get("single-post").param("p", &p.to_string()),
        );
    }
    for s in ["lorem", "Post number 1", "o'brien", "%"] {
        g.serve(&format!("wp search {s}"), &HttpRequest::get("search").param("s", s));
    }
    let comments = [
        ("2", "alice", "nice post"),
        ("2", "alice", "nice post"),
        ("3", "o'brien", "it's great, isn't it?"),
        ("5", "Bob", "Nice Post"),
        ("10", "carol", "comment on a draft"),
        ("41", "dave", "comment on a missing post"),
        ("7", "visitor12", "[c0 p0 #1] great post really liked the part about joza"),
        ("7", "visitor12", "[c0 p0 #2] thanks for the taint inference fragments"),
    ];
    for (i, (post, author, text)) in comments.iter().enumerate() {
        let req = HttpRequest::post("post-comment")
            .param("comment_post_ID", post)
            .param("author", author)
            .param("comment", text);
        g.serve(&format!("wp comment #{i}"), &req);
    }
    g.serve("wp index after comments", &HttpRequest::get("index"));
    for p in [2, 3, 5, 7] {
        g.serve(
            &format!("wp single-post {p} after comments"),
            &HttpRequest::get("single-post").param("p", &p.to_string()),
        );
    }
    g.checkpoint("wordpress");
}

fn record_lab_routes(g: &mut Golden) {
    let plugins: Vec<_> = g.live.lab.plugins.iter().chain(&g.live.lab.cms_cases).cloned().collect();
    assert_eq!(plugins.len(), 53);
    for p in &plugins {
        let mut values = vec![("benign", p.benign_value.clone())];
        match &p.exploit {
            Exploit::Leak { payload, .. } => values.push(("leak", payload.clone())),
            Exploit::BooleanDiff { true_payload, false_payload } => {
                values.push(("boolean true", true_payload.clone()));
                values.push(("boolean false", false_payload.clone()));
            }
            Exploit::TimingDiff { slow_payload, fast_payload, .. } => {
                values.push(("timing slow", slow_payload.clone()));
                values.push(("timing fast", fast_payload.clone()));
            }
        }
        for (kind, value) in &values {
            g.serve(&format!("{} {kind}", p.slug), &request_for(p, value));
        }
        g.checkpoint(&p.slug);
        g.reset();
    }
}

fn record_second_order(g: &mut Golden) {
    let cases = g.live.cases.clone();
    assert_eq!(cases.len(), 4);
    for case in &cases {
        let evasive = case.evasive_variant();
        let flows = [
            ("benign", case.benign_plant_request(), case.trigger_request()),
            ("exploit", case.exploit_plant_request(), case.trigger_request()),
            ("evasive", evasive.exploit_plant_request(), evasive.trigger_request()),
        ];
        for (kind, plant, trigger) in &flows {
            let label = format!("{:?} {kind}", case.class);
            g.serve(&format!("{label} plant"), plant);
            g.serve(&format!("{label} trigger"), trigger);
            g.checkpoint(&label);
            g.reset();
        }
    }
}

/// Statements that pin executor semantics the lab traffic touches only
/// lightly. `golden_edge` holds mixed-case strings, duplicates and NULLs;
/// `golden_empty` has no rows.
const EDGE_STATEMENTS: &[&str] = &[
    // Joins: column names, first-match lookup, LEFT JOIN null extension.
    "SELECT * FROM wp_users u JOIN wp_posts p ON p.post_author = u.ID WHERE p.ID < 4",
    "SELECT u.*, p.post_title FROM wp_users u LEFT JOIN wp_posts p ON p.post_author = u.ID AND p.ID > 38",
    "SELECT ID, post_title FROM wp_posts p JOIN wp_users u ON u.ID = p.post_author WHERE ID = 2",
    "SELECT * FROM wp_users a CROSS JOIN wp_terms t WHERE t.term_id < 3",
    "SELECT u.user_login, x.name FROM wp_users u LEFT JOIN wp_terms x ON x.term_id = u.ID + 10",
    "SELECT * FROM wp_users u LEFT JOIN wp_terms t ON t.term_id = u.ID LEFT JOIN golden_empty e ON e.id = u.ID",
    "SELECT t.* FROM wp_users u JOIN wp_terms t ON t.term_id = u.ID",
    "SELECT x.* FROM wp_users u WHERE u.ID = 1",
    "SELECT * FROM wp_users u JOIN wp_terms t ON t.term_id = p.ID JOIN wp_posts p ON p.ID = u.ID",
    "SELECT * FROM wp_users u JOIN no_such_table n ON n.id = u.ID",
    "SELECT * FROM golden_empty e JOIN no_such_table n ON n.id = e.id",
    "SELECT WP_USERS.ID, wp_users.user_login FROM WP_USERS WHERE wp_users.id = 1",
    "SELECT u.id FROM wp_users U WHERE U.ID = 2",
    "SELECT wp_users.ID FROM wp_users u",
    // Grouping and aggregates.
    "SELECT post_author, post_title, COUNT(*), MIN(post_date), MAX(post_title), SUM(comment_count), AVG(ID), GROUP_CONCAT(ID) FROM wp_posts GROUP BY post_author ORDER BY post_author DESC",
    "SELECT post_status, COUNT(*) FROM wp_posts GROUP BY post_status HAVING COUNT(*) > 5",
    "SELECT COUNT(DISTINCT post_author), COUNT(DISTINCT post_status), COUNT(post_title) FROM wp_posts",
    "SELECT *, COUNT(*) FROM wp_posts WHERE 1 = 0",
    "SELECT *, COUNT(*) FROM wp_users",
    "SELECT post_title FROM wp_posts GROUP BY post_author HAVING 0",
    "SELECT post_title FROM wp_posts WHERE 1 = 0 GROUP BY post_author",
    "SELECT COUNT(*), SUM(ID), MIN(ID), GROUP_CONCAT(ID) FROM golden_empty",
    "SELECT ID, COUNT(*) FROM wp_users WHERE ID > 100",
    "SELECT name, COUNT(*) FROM golden_edge GROUP BY name",
    "SELECT name, id FROM golden_edge GROUP BY name ORDER BY id DESC",
    "SELECT GROUP_CONCAT(name), MIN(name), MAX(name), COUNT(name), COUNT(*) FROM golden_edge",
    "SELECT COUNT(DISTINCT name) FROM golden_edge",
    "SELECT nope, COUNT(*) FROM golden_edge",
    "SELECT COUNT(*) FROM golden_edge HAVING nope = 1",
    // DISTINCT, UNION, ORDER BY, LIMIT.
    "SELECT DISTINCT post_author FROM wp_posts ORDER BY post_author",
    "SELECT DISTINCT name FROM golden_edge",
    "SELECT post_author FROM wp_posts UNION SELECT ID FROM wp_users",
    "SELECT post_author FROM wp_posts UNION ALL SELECT ID FROM wp_users",
    "SELECT name FROM golden_edge UNION SELECT name FROM golden_edge",
    "SELECT name FROM golden_edge WHERE id = 1 UNION SELECT ID, user_login FROM wp_users",
    "SELECT name FROM golden_edge WHERE id = 1 UNION SELECT ID, user_login FROM wp_users WHERE 0",
    "SELECT name FROM golden_edge ORDER BY name",
    "SELECT name, id FROM golden_edge ORDER BY name DESC, id",
    "SELECT id FROM golden_edge ORDER BY id LIMIT 2, 3",
    "SELECT ID FROM wp_users LIMIT ID",
    "SELECT * FROM wp_posts WHERE 1 = 0",
    "SELECT post_title AS t, UPPER(post_title), 42, 'lit', post_title + 1 FROM wp_posts WHERE 1 = 0",
    "SELECT *",
    "SELECT * FROM golden_empty",
    // Comparisons and functions over stored values.
    "SELECT * FROM golden_edge WHERE name = 'a'",
    "SELECT name FROM golden_edge WHERE name < 'b'",
    "SELECT name FROM golden_edge WHERE name BETWEEN 'a' AND 'B'",
    "SELECT name FROM golden_edge WHERE name LIKE 'A%' OR name REGEXP 'B'",
    "SELECT name FROM golden_edge WHERE name IN ('A', 'x', NULL)",
    "SELECT id FROM golden_edge WHERE name IS NULL",
    "SELECT id FROM golden_edge WHERE name <> 'a'",
    "SELECT id, name FROM golden_edge WHERE id = '2abc'",
    "SELECT RAND(), RAND() FROM wp_users",
    "SELECT ID FROM wp_users WHERE SLEEP(1) = 0",
    "SELECT IF(ID = 2, SLEEP(2), 0) FROM wp_users",
    "SELECT ID FROM wp_users WHERE ID = 1 OR BENCHMARK(4000000, MD5('x'))",
    "SELECT EXTRACTVALUE(1, CONCAT(0x7e, user_login)) FROM wp_users WHERE ID = 2",
    "SELECT ID FROM wp_users WHERE ID = 3 AND UPDATEXML(1, CONCAT(0x7e, user_pass), 1)",
    "SELECT CASE WHEN ID = 1 THEN 'one' ELSE post_title END FROM wp_posts WHERE ID < 3",
    "SELECT CASE ID WHEN 2 THEN 'two' END, COALESCE(NULL, ID), IFNULL(NULL, 'n') FROM wp_users",
    "SELECT @@version, VERSION(), USER(), DATABASE()",
    "SELECT 1 + 2, 7 / 2, 7 % 3, -ID, ID * 1.5 FROM wp_users",
    "SELECT CONCAT(user_login, ':', user_email), SUBSTRING(user_pass, 1, 3), LENGTH(user_pass), ASCII(user_login), HEX(ID) FROM wp_users",
    "SELECT ((((((((1))))))))",
    "SELECT nope FROM wp_users",
    "SELECT nope FROM golden_empty",
    "SELECT * FROM golden_empty WHERE nope = 1",
    "SELECT COUNT(*) FROM wp_users WHERE nope = 1",
    "SELECT ID FROM wp_users ORDER BY nope",
    "SELECT ID FROM wp_users WHERE NOSUCHFN(ID)",
    // Correlated subqueries.
    "SELECT user_login FROM wp_users WHERE ID IN (SELECT post_author FROM wp_posts WHERE ID = 5)",
    "SELECT user_login, (SELECT COUNT(*) FROM wp_posts WHERE post_author = wp_users.ID) FROM wp_users",
    "SELECT user_login FROM wp_users u WHERE EXISTS (SELECT 1 FROM wp_posts p WHERE p.post_author = u.ID AND p.ID = 7)",
    "SELECT ID, (SELECT MAX(term_id) FROM wp_terms WHERE term_id = ID) FROM wp_users",
    "SELECT post_author, (SELECT user_login FROM wp_users WHERE ID = post_author) FROM wp_posts GROUP BY post_author",
    "SELECT ID FROM wp_users u WHERE ID NOT IN (SELECT post_author FROM wp_posts WHERE post_author = u.ID AND ID < 3)",
    "SELECT (SELECT name FROM golden_edge WHERE id = u.ID), (SELECT nope FROM golden_empty) FROM wp_users u",
    "SELECT (SELECT u.nope FROM golden_edge) FROM wp_users u",
    // Writes.
    "INSERT INTO golden_edge (id, name) VALUES (10, 'z'), (11, NULL)",
    "INSERT INTO golden_edge (id, nope) VALUES (1, 2)",
    "INSERT INTO golden_edge VALUES (12, 'p', 'extra', 'more')",
    "INSERT INTO golden_edge VALUES (13)",
    "INSERT INTO no_such_table VALUES (1)",
    "UPDATE golden_edge SET name = CONCAT(name, '!') WHERE id > 2 LIMIT 2",
    "UPDATE golden_edge SET nope = 1 WHERE id = 999",
    "UPDATE golden_edge SET nope = 1",
    "UPDATE golden_edge SET name = id, id = id + 100 WHERE golden_edge.id = 1",
    "UPDATE golden_edge SET name = 'x' WHERE nope = 1",
    "UPDATE GOLDEN_EDGE SET name = UPPER(name) WHERE GOLDEN_EDGE.name LIKE 'b%'",
    "SELECT * FROM golden_edge",
    "DELETE FROM golden_edge WHERE name IS NULL",
    "DELETE FROM golden_edge LIMIT 1",
    "DELETE FROM golden_edge WHERE nope = 1",
    "DELETE FROM golden_edge WHERE id = (SELECT MAX(id) FROM golden_edge)",
    "SELECT * FROM golden_edge",
    // Stacked statements.
    "INSERT INTO golden_edge (id, name) VALUES (20, 'stacked'); SELECT name FROM golden_edge WHERE id = 20",
    "DELETE FROM golden_edge WHERE id = 20; SELECT * FROM no_such_table",
    "SELECT id FROM golden_edge WHERE id = 2; -- -",
    "SELECT 'a;b' FROM golden_edge WHERE id = 2 -- trailing; note",
    "UPDATE golden_edge SET name = 'q' WHERE id = 2; SELECT SLEEP(1); SELECT name FROM golden_edge WHERE id = 2",
];

fn record_edges(g: &mut Golden) {
    for db in [&mut g.live.lab.server.db, &mut g.replay] {
        db.create_table("golden_edge", &["id", "name", "note"]);
        for (id, name) in [(1, "b"), (2, "A"), (3, "a"), (4, "B"), (6, "a")] {
            db.insert_row("golden_edge", vec![Value::Int(id), name.into(), Value::Null]);
        }
        db.insert_row("golden_edge", vec![Value::Int(5), Value::Null, "n".into()]);
        db.insert_row("golden_edge", vec![Value::Float(2.5), "c".into(), Value::Int(7)]);
        db.create_table("golden_empty", &["id", "v"]);
    }
    for sql in EDGE_STATEMENTS {
        g.direct(sql);
    }
    g.checkpoint("edges");
}

fn fixture_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/db_golden.txt")
}

#[test]
fn db_results_match_the_golden_recording() {
    let mut g = Golden::new();
    record_wordpress(&mut g);
    g.reset();
    record_lab_routes(&mut g);
    record_second_order(&mut g);
    record_edges(&mut g);

    let path = fixture_path();
    if std::env::var_os("JOZA_BLESS_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &g.out).unwrap();
        return;
    }
    let golden = std::fs::read_to_string(&path).expect("golden fixture missing");
    if golden != g.out {
        let (i, (want, got)) = golden
            .lines()
            .zip(g.out.lines())
            .enumerate()
            .find(|(_, (a, b))| a != b)
            .unwrap_or((golden.lines().count().min(g.out.lines().count()), ("<end>", "<end>")));
        panic!(
            "database executor output diverged from the golden recording at line {}:\n  want: {want}\n  got:  {got}",
            i + 1
        );
    }
}
