//! Contention-free engine statistics (DESIGN.md §11).
//!
//! Before the serving-API redesign every check finalized its counters
//! under one shard-lock acquisition — correct, but a serialization point
//! once worker threads outnumber idle shards, and a second contended
//! cacheline on top of the PTI shard mutex. This module replaces that
//! with **per-worker atomic stat cells**:
//!
//! * each check (or batch of checks) accumulates a plain, unsynchronized
//!   [`JozaStats`] delta on its own stack;
//! * the delta is flushed once into the calling worker's [`StatsCell`] —
//!   a cache-line-aligned block of relaxed `AtomicU64`s that only threads
//!   mapped to that cell ever write;
//! * [`StatsCell::snapshot`] (driven by `Joza::stats`) merges every cell
//!   on the *read* side, which is where the cost belongs: stats are read
//!   a handful of times per run, not once per query.
//!
//! The path-partition invariant (`model_fast_hits + static_hits +
//! full_checks == queries`) is preserved exactly at every quiescent
//! point: each check contributes `queries += 1` and exactly one path
//! counter to the same delta, and deltas are merged counter-by-counter.
//! A snapshot taken *while a flush is in flight* may transiently observe
//! a delta half-applied (the counters are independent atomics, not one
//! sealed record); once the writers are done — a join, a barrier, the
//! end of a batch — every snapshot is exact.
//!
//! [`JozaStats`]: crate::JozaStats

use crate::{JozaStats, StageId, STAGE_COUNT};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// One worker's statistics slot: every [`JozaStats`] counter as a relaxed
/// atomic, aligned to its own cache lines so neighbouring workers never
/// false-share.
#[repr(align(128))]
#[derive(Debug, Default)]
pub(crate) struct StatsCell {
    queries: AtomicU64,
    attacks: AtomicU64,
    nti_detections: AtomicU64,
    pti_detections: AtomicU64,
    model_fast_hits: AtomicU64,
    static_hits: AtomicU64,
    full_checks: AtomicU64,
    model_anomalies: AtomicU64,
    route_misses_unknown: AtomicU64,
    route_misses_incomplete: AtomicU64,
    stage_runs: [AtomicU64; STAGE_COUNT],
    stage_hits: [AtomicU64; STAGE_COUNT],
    stage_ns: [AtomicU64; STAGE_COUNT],
}

/// Adds `$delta.$field` into `$cell.$field`, skipping the atomic RMW
/// entirely when the delta is zero (most counters are, per check).
macro_rules! flush_counter {
    ($cell:expr, $delta:expr, $($field:ident),+ $(,)?) => {$(
        if $delta.$field != 0 {
            $cell.$field.fetch_add($delta.$field, Ordering::Relaxed);
        }
    )+};
}

impl StatsCell {
    /// Folds a locally-accumulated delta into the cell. Relaxed ordering
    /// throughout: counters are monotone and independently meaningful,
    /// and exactness is only promised at quiescence (see module docs).
    pub(crate) fn add(&self, delta: &JozaStats) {
        flush_counter!(
            self,
            delta,
            queries,
            attacks,
            nti_detections,
            pti_detections,
            model_fast_hits,
            static_hits,
            full_checks,
            model_anomalies,
            route_misses_unknown,
            route_misses_incomplete,
        );
        for i in 0..STAGE_COUNT {
            if delta.stage_runs[i] != 0 {
                self.stage_runs[i].fetch_add(delta.stage_runs[i], Ordering::Relaxed);
            }
            if delta.stage_hits[i] != 0 {
                self.stage_hits[i].fetch_add(delta.stage_hits[i], Ordering::Relaxed);
            }
            if delta.stage_ns[i] != 0 {
                self.stage_ns[i].fetch_add(delta.stage_ns[i], Ordering::Relaxed);
            }
        }
    }

    /// Reads the cell into a plain [`JozaStats`]. `nti_time`/`pti_time`
    /// are views of the NTI and PTI entries of `stage_ns`, which is the
    /// only place stage time is counted.
    pub(crate) fn snapshot(&self) -> JozaStats {
        let mut out = JozaStats {
            queries: self.queries.load(Ordering::Relaxed),
            attacks: self.attacks.load(Ordering::Relaxed),
            nti_detections: self.nti_detections.load(Ordering::Relaxed),
            pti_detections: self.pti_detections.load(Ordering::Relaxed),
            model_fast_hits: self.model_fast_hits.load(Ordering::Relaxed),
            static_hits: self.static_hits.load(Ordering::Relaxed),
            full_checks: self.full_checks.load(Ordering::Relaxed),
            model_anomalies: self.model_anomalies.load(Ordering::Relaxed),
            route_misses_unknown: self.route_misses_unknown.load(Ordering::Relaxed),
            route_misses_incomplete: self.route_misses_incomplete.load(Ordering::Relaxed),
            ..JozaStats::default()
        };
        for i in 0..STAGE_COUNT {
            out.stage_runs[i] = self.stage_runs[i].load(Ordering::Relaxed);
            out.stage_hits[i] = self.stage_hits[i].load(Ordering::Relaxed);
            out.stage_ns[i] = self.stage_ns[i].load(Ordering::Relaxed);
        }
        out.nti_time = Duration::from_nanos(out.stage_ns[StageId::Nti.index()]);
        out.pti_time = Duration::from_nanos(out.stage_ns[StageId::Pti.index()]);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_then_snapshot_round_trips() {
        let cell = StatsCell::default();
        let mut delta = JozaStats { queries: 3, attacks: 1, ..JozaStats::default() };
        delta.full_checks = 2;
        delta.model_fast_hits = 1;
        delta.stage_ns[StageId::Nti.index()] = 250;
        delta.stage_runs[StageId::Nti.index()] = 2;
        delta.stage_ns[StageId::Pti.index()] = 99;
        cell.add(&delta);
        cell.add(&delta);
        let snap = cell.snapshot();
        assert_eq!(snap.queries, 6);
        assert_eq!(snap.attacks, 2);
        assert_eq!(snap.model_fast_hits + snap.static_hits + snap.full_checks, snap.queries);
        assert_eq!(snap.nti_time, Duration::from_nanos(snap.stage_ns[StageId::Nti.index()]));
        assert_eq!(snap.nti_time, Duration::from_nanos(500));
        assert_eq!(snap.stage_runs[StageId::Nti.index()], 4);
        assert_eq!(snap.stage_ns[StageId::Pti.index()], 198);
    }

    #[test]
    fn concurrent_adds_sum_exactly() {
        let cell = StatsCell::default();
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    for _ in 0..500 {
                        let delta =
                            JozaStats { queries: 1, full_checks: 1, ..JozaStats::default() };
                        cell.add(&delta);
                    }
                });
            }
        });
        let snap = cell.snapshot();
        assert_eq!(snap.queries, 4000);
        assert_eq!(snap.full_checks, 4000);
    }
}
