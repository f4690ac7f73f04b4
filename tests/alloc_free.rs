//! The allocation-free hot path, asserted with a counting allocator:
//! once the per-thread check arena and the symbol table are warm, a
//! model-fast-path check performs **zero** heap allocations.
//!
//! The counter is thread-local, so parallel tests in this binary cannot
//! pollute each other's deltas, and the global allocator hook stays
//! reentrancy-safe (a `const`-initialized `Cell` needs no lazy
//! allocation of its own).

use joza::core::{CheckPath, Joza, JozaConfig};
use joza::sqlparse::template::{QueryModelIndex, QueryTemplate, RouteModel, TemplatePart};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn allocs_on_this_thread() -> u64 {
    ALLOCS.with(Cell::get)
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

/// An engine whose `items` route carries a complete query model for
/// `SELECT * FROM items WHERE id=<hole>`, so matching queries resolve on
/// the model fast path.
fn model_engine() -> Joza {
    let template = QueryTemplate {
        parts: vec![
            TemplatePart::Lit("SELECT * FROM items WHERE id=".to_string()),
            TemplatePart::Hole,
        ],
    };
    let mut models = QueryModelIndex::new();
    models.insert("items", RouteModel::build(&[Some(vec![template])]));
    Joza::builder()
        .fragments(["SELECT * FROM items WHERE id="])
        .config(JozaConfig::optimized())
        .query_models(models)
        .known_routes(["items"])
        .build()
}

#[test]
fn model_fast_path_is_allocation_free_when_warm() {
    let joza = model_engine();
    let queries = [
        "SELECT * FROM items WHERE id=42",
        "SELECT * FROM items WHERE id=7",
        "SELECT * FROM items WHERE id=123456",
    ];

    // Warmup: grows the thread's arena buffers to the working-set
    // high-water mark, interns the queries' skeleton vocabulary, and
    // faults in every lazy static on the path (stats cells, keyword
    // tables). Two rounds so buffer capacities stop moving.
    for _ in 0..2 {
        for q in queries {
            let v = joza.check_query_on_route("items", &["42"], q);
            assert!(v.is_safe(), "warmup query must pass the model: {q}");
            assert_eq!(v.path(), CheckPath::ModelFastPath, "{q}");
        }
    }

    let before = allocs_on_this_thread();
    for _ in 0..32 {
        for q in queries {
            let v = joza.check_query_on_route("items", &["42"], q);
            assert!(v.is_safe());
            assert_eq!(v.path(), CheckPath::ModelFastPath);
        }
    }
    let delta = allocs_on_this_thread() - before;
    assert_eq!(delta, 0, "warm model-fast-path checks must not allocate ({delta} allocations)");
}

#[test]
fn warm_batch_amortizes_to_constant_allocations() {
    use joza::core::QueryCheck;

    let joza = model_engine();
    let checks: Vec<QueryCheck> =
        (0..64).map(|i| QueryCheck::new(format!("SELECT * FROM items WHERE id={i}"))).collect();

    let mut session = joza.session_for("items");
    session.capture_input("id", "42");
    let warm = session.check_batch(&checks);
    assert!(warm.iter().all(|v| v.is_safe() && v.path() == CheckPath::ModelFastPath));

    let before = allocs_on_this_thread();
    let verdicts = session.check_batch(&checks);
    let delta = allocs_on_this_thread() - before;
    assert!(verdicts.iter().all(|v| v.is_safe()));

    // The whole 64-query batch is allowed its fixed serving-side
    // allocations (the verdict vector, the input-ref vector) but nothing
    // per query: well under one allocation per check.
    assert!(delta < 8, "64-query warm batch allocated {delta} times");
}

#[test]
fn warm_nti_stage_is_allocation_free_when_no_marking_fires() {
    use joza::nti::{NtiAnalyzer, NtiConfig};

    let joza = Joza::builder()
        .fragments(["SELECT option_value FROM wp_options WHERE option_name="])
        .config(JozaConfig::nti_only())
        .build();
    // Request inputs of 3 to 64 bytes — short, mixed-case, long enough
    // for the q-gram prefilter, and exactly one bit-vector word — none
    // of which occurs in the checked queries.
    let inputs = [
        "utm",
        "Summer-Sale",
        "visitor12 says: great post!",
        "an input long enough to build the q-gram prefilter profile",
        "0123456789abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ!?",
    ];
    assert_eq!(inputs[4].len(), 64);
    let queries = [
        "SELECT option_value FROM wp_options WHERE option_name='siteurl' LIMIT 1",
        "SELECT * FROM wp_posts WHERE post_status = 'publish' ORDER BY post_date DESC LIMIT 10",
        "SELECT t.*, tt.* FROM wp_terms AS t INNER JOIN wp_term_taxonomy AS tt ON t.term_id = tt.term_id WHERE tt.taxonomy IN ('category') ORDER BY t.name ASC",
        "SELECT COUNT(*) FROM wp_comments WHERE comment_post_ID = 7 AND comment_approved = '1'",
    ];
    let reference = NtiAnalyzer::new(NtiConfig::default());
    for q in queries {
        let r = reference.analyze(&inputs, q);
        assert!(r.markings.is_empty(), "the test needs queries no input marks: {q} {r:?}");
    }

    // Warmup: the arena buffers reach their high-water mark.
    for _ in 0..2 {
        for q in queries {
            let v = joza.check_query(&inputs, q);
            assert_eq!(v.nti_attack(), Some(false), "{q}");
        }
    }

    let before = allocs_on_this_thread();
    for _ in 0..16 {
        for q in queries {
            let v = joza.check_query(&inputs, q);
            assert!(v.is_safe());
            assert_eq!(v.nti_attack(), Some(false));
        }
    }
    let delta = allocs_on_this_thread() - before;
    assert_eq!(
        delta, 0,
        "warm NTI checks without markings must not allocate ({delta} allocations)"
    );
}
