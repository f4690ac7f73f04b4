//! The executor reads rows in place: a statement's heap allocations do
//! not grow with the number of rows it scans, only with what it outputs
//! — rows that LIMIT discards are never copied. And a statement whose
//! shape was seen before is not parsed again. Asserted with a counting
//! allocator.
//!
//! The counter is thread-local, so parallel tests in this binary cannot
//! pollute each other's counts.

use joza_db::{Database, Value};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    // `try_with` so allocations during TLS teardown are simply not
    // counted instead of aborting the process.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

struct CountingAlloc;

// SAFETY: defers every operation to `System`; the bookkeeping around it
// touches only a const-initialized thread-local `Cell`.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

fn table_of(rows: i64) -> Database {
    let mut db = Database::new();
    db.create_table("t", &["id", "c", "note"]);
    for i in 0..rows {
        db.insert_row("t", vec![Value::Int(i), format!("value {i}").into(), "Note".into()]);
    }
    db
}

/// Allocations one execution of `sql` makes.
fn allocations_once(db: &mut Database, sql: &str) -> u64 {
    let before = ALLOCS.with(Cell::get);
    db.execute(sql).expect("statement executes");
    ALLOCS.with(Cell::get) - before
}

/// Allocations one execution of `sql` makes, after a warm-up execution.
fn allocations(db: &mut Database, sql: &str) -> u64 {
    db.execute(sql).expect("statement executes");
    allocations_once(db, sql)
}

#[test]
fn scanning_more_rows_makes_no_more_allocations() {
    let (mut small, mut large) = (table_of(10), table_of(1_000));
    for sql in [
        "SELECT COUNT(*) FROM t WHERE c = 'x'",
        "SELECT c FROM t WHERE id = 7",
        "SELECT * FROM t WHERE c LIKE '%X%' OR note < 'a' ORDER BY c DESC",
        "SELECT c, note FROM t ORDER BY id DESC LIMIT 3",
        "SELECT id, c FROM t WHERE note = 'Note' AND id < 900 ORDER BY id DESC LIMIT 1",
        "SELECT id, c FROM t WHERE note = 'Note' AND id > 2 ORDER BY id ASC LIMIT 1",
        "UPDATE t SET note = 'n' WHERE c = 'x'",
        "DELETE FROM t WHERE c = 'x'",
    ] {
        let (at_10, at_1000) = (allocations(&mut small, sql), allocations(&mut large, sql));
        assert_eq!(at_10, at_1000, "{sql}: {at_10} allocations at 10 rows, {at_1000} at 1,000");
    }
}

#[test]
fn a_known_shape_is_not_parsed_again() {
    let mut db = table_of(10);
    for (first, again) in [
        ("SELECT c FROM t WHERE id = 7", "SELECT c FROM t WHERE id = 3"),
        (
            "SELECT id, c FROM t WHERE note = 'Note' AND id < 9 ORDER BY id DESC LIMIT 1",
            "SELECT id, c FROM t WHERE note = 'x' AND id < 4 ORDER BY id DESC LIMIT 2",
        ),
        ("UPDATE t SET note = 'n' WHERE c = 'x'", "UPDATE t SET note = 'm' WHERE c = 'y'"),
    ] {
        let (cold, warm) = (allocations_once(&mut db, first), allocations_once(&mut db, again));
        assert!(warm < cold, "{again}: {warm} allocations, {cold} for the first of its shape");
    }
    assert_eq!(db.plan_cache_stats().hits, 3);
}
