//! PTI caches: the query cache (§IV-C2) and the query structure cache
//! (§IV-C1, §VI-A).

use joza_sqlparse::fingerprint::fingerprint;
use parking_lot::RwLock;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashSet;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};

/// Statistics shared by both caches.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups that found an entry.
    pub hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Entries inserted.
    pub inserts: u64,
}

impl CacheStats {
    /// Hit rate in `[0, 1]`; 0 when no lookups happened.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// How many query hashes one generation of the query cache holds.
const QUERY_CACHE_GENERATION: usize = 1 << 14;

/// The query cache's hashes, bounded: inserts fill `current` until it
/// holds [`QUERY_CACHE_GENERATION`] hashes, then it replaces `previous`,
/// whose hashes are dropped. Lookups consult both generations. Without
/// the bound a stream of unique safe queries (fresh comment text, fresh
/// ids) grows the cache for as long as the process serves.
#[derive(Debug, Default)]
struct Generations {
    current: HashSet<u64>,
    previous: HashSet<u64>,
}

impl Generations {
    fn contains(&self, h: u64) -> bool {
        self.current.contains(&h) || self.previous.contains(&h)
    }

    /// Adds `h`; false when it was already cached.
    fn insert(&mut self, h: u64) -> bool {
        if self.contains(h) {
            return false;
        }
        if self.current.len() >= QUERY_CACHE_GENERATION {
            self.previous = std::mem::take(&mut self.current);
        }
        self.current.insert(h)
    }

    fn len(&self) -> usize {
        self.current.len() + self.previous.len()
    }
}

/// The PTI query cache: remembers exact queries that were analyzed safe.
///
/// "Because many queries of a web application are constant and do not rely
/// on any user-input, caching improves performance significantly" (§IV-C2).
/// Only *safe* verdicts are cached — an attack must always re-trigger full
/// analysis and reporting. It keeps the most recently cached queries, at
/// most two generations of 16,384, so a stream of unique safe queries
/// cannot grow it without bound.
#[derive(Debug, Default)]
pub struct QueryCache {
    safe: Generations,
    stats: CacheStats,
}

impl QueryCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Whether this exact query was previously found safe.
    pub fn lookup(&mut self, query: &str) -> bool {
        let hit = self.safe.contains(hash_str(query));
        if hit {
            self.stats.hits += 1;
        } else {
            self.stats.misses += 1;
        }
        hit
    }

    /// Records a safe query.
    pub fn insert_safe(&mut self, query: &str) {
        if self.safe.insert(hash_str(query)) {
            self.stats.inserts += 1;
        }
    }

    /// Number of cached safe queries.
    pub fn len(&self) -> usize {
        self.safe.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Lookup/insert statistics.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }
}

/// The query structure cache: remembers the *shape* of safe queries — the
/// AST skeleton with data-node contents erased.
///
/// "This caching mechanism caches the safety result of all queries except
/// those dynamically generated inside the application" (§VI-A): two
/// queries that differ only in literal contents share a fingerprint, so a
/// comment INSERT pays full analysis once per shape rather than once per
/// comment. An injected token necessarily changes the shape and therefore
/// misses the cache.
#[derive(Debug, Default)]
pub struct StructureCache {
    safe: HashSet<u64>,
    stats: CacheStats,
}

impl StructureCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Whether a query with this structure was previously found safe.
    pub fn lookup(&mut self, query: &str) -> bool {
        self.lookup_fp(fingerprint(query))
    }

    /// [`StructureCache::lookup`] with a precomputed fingerprint — the
    /// parse-once entry point for callers that already hold the query's
    /// [`fingerprint`].
    pub fn lookup_fp(&mut self, fp: u64) -> bool {
        let hit = self.safe.contains(&fp);
        if hit {
            self.stats.hits += 1;
        } else {
            self.stats.misses += 1;
        }
        hit
    }

    /// Records a safe query's structure.
    pub fn insert_safe(&mut self, query: &str) {
        self.insert_safe_fp(fingerprint(query));
    }

    /// [`StructureCache::insert_safe`] with a precomputed fingerprint.
    pub fn insert_safe_fp(&mut self, fp: u64) {
        if self.safe.insert(fp) {
            self.stats.inserts += 1;
        }
    }

    /// Number of cached safe shapes.
    pub fn len(&self) -> usize {
        self.safe.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.safe.is_empty()
    }

    /// Lookup/insert statistics.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }
}

/// A thread-safe query cache shared by every shard of a lock-sharded
/// engine: the *shared read layer* of the striped PTI caches.
///
/// Same contract as [`QueryCache`] — only safe verdicts are remembered —
/// but lookups take `&self` (reader lock) so N server workers can consult
/// it concurrently; a safe query found by one worker is immediately
/// visible to all others. Statistics are lock-free atomic counters, so
/// snapshots taken while workers are running are always consistent
/// totals.
#[derive(Debug, Default)]
pub struct SharedQueryCache {
    safe: RwLock<Generations>,
    hits: AtomicU64,
    misses: AtomicU64,
    inserts: AtomicU64,
}

impl SharedQueryCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Whether this exact query was previously found safe (by any worker).
    pub fn lookup(&self, query: &str) -> bool {
        let hit = self.safe.read().contains(hash_str(query));
        if hit {
            self.hits.fetch_add(1, Ordering::Relaxed);
        } else {
            self.misses.fetch_add(1, Ordering::Relaxed);
        }
        hit
    }

    /// Records a safe query.
    pub fn insert_safe(&self, query: &str) {
        if self.safe.write().insert(hash_str(query)) {
            self.inserts.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Number of cached safe queries.
    pub fn len(&self) -> usize {
        self.safe.read().len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Lookup/insert statistics snapshot.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            inserts: self.inserts.load(Ordering::Relaxed),
        }
    }
}

fn hash_str(s: &str) -> u64 {
    let mut h = DefaultHasher::new();
    s.hash(&mut h);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn query_cache_exact_match_only() {
        let mut c = QueryCache::new();
        assert!(!c.lookup("SELECT 1"));
        c.insert_safe("SELECT 1");
        assert!(c.lookup("SELECT 1"));
        assert!(!c.lookup("SELECT 2"));
        assert_eq!(c.stats().hits, 1);
        assert_eq!(c.stats().misses, 2);
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn structure_cache_matches_same_shape() {
        let mut c = StructureCache::new();
        c.insert_safe("INSERT INTO comments (body) VALUES ('first comment')");
        // Different literal contents, same shape: hit.
        assert!(c.lookup("INSERT INTO comments (body) VALUES ('a totally different comment')"));
        // Injected structure: miss.
        assert!(
            !c.lookup("INSERT INTO comments (body) VALUES ('x'), ((SELECT user_pass FROM users))")
        );
    }

    #[test]
    fn structure_cache_misses_on_tautology() {
        let mut c = StructureCache::new();
        c.insert_safe("SELECT * FROM t WHERE id=5");
        assert!(c.lookup("SELECT * FROM t WHERE id=123456"));
        assert!(!c.lookup("SELECT * FROM t WHERE id=5 OR 1=1"));
        assert!(!c.lookup("SELECT * FROM t WHERE id=5 -- c"));
    }

    #[test]
    fn hit_rate() {
        let mut c = QueryCache::new();
        c.insert_safe("q");
        c.lookup("q");
        c.lookup("q");
        c.lookup("other");
        assert!((c.stats().hit_rate() - 2.0 / 3.0).abs() < 1e-9);
        let empty = QueryCache::new();
        assert_eq!(empty.stats().hit_rate(), 0.0);
    }

    #[test]
    fn duplicate_insert_counted_once() {
        let mut c = QueryCache::new();
        c.insert_safe("q");
        c.insert_safe("q");
        assert_eq!(c.stats().inserts, 1);
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn shared_cache_matches_local_semantics() {
        let c = SharedQueryCache::new();
        assert!(!c.lookup("SELECT 1"));
        c.insert_safe("SELECT 1");
        c.insert_safe("SELECT 1");
        assert!(c.lookup("SELECT 1"));
        assert!(!c.lookup("SELECT 2"));
        let s = c.stats();
        assert_eq!((s.hits, s.misses, s.inserts), (1, 2, 1));
        assert_eq!(c.len(), 1);
        assert!(!c.is_empty());
    }

    #[test]
    fn query_cache_is_bounded_and_keeps_recent_queries() {
        let mut c = QueryCache::new();
        let shared = SharedQueryCache::new();
        let n = 3 * QUERY_CACHE_GENERATION;
        for i in 0..n {
            c.insert_safe(&format!("SELECT {i}"));
            shared.insert_safe(&format!("SELECT {i}"));
        }
        for len in [c.len(), shared.len()] {
            assert!(len <= 2 * QUERY_CACHE_GENERATION, "{len} hashes cached");
        }
        let newest = format!("SELECT {}", n - 1);
        let last_generation = format!("SELECT {}", n - QUERY_CACHE_GENERATION - 1);
        assert!(c.lookup(&newest) && c.lookup(&last_generation));
        assert!(shared.lookup(&newest) && shared.lookup(&last_generation));
        assert!(!c.lookup("SELECT 0") && !shared.lookup("SELECT 0"));
    }

    #[test]
    fn shared_cache_visible_across_threads() {
        let c = std::sync::Arc::new(SharedQueryCache::new());
        let writer = std::sync::Arc::clone(&c);
        std::thread::spawn(move || writer.insert_safe("warm"))
            .join()
            .expect("writer thread panicked");
        assert!(c.lookup("warm"), "insert from another thread must be visible");
    }
}
