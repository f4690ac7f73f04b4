#![warn(missing_docs)]
//! Joza: the hybrid taint-inference engine (§III-C, §IV).
//!
//! Joza combines [negative taint inference](joza_nti) and [positive taint
//! inference](joza_pti): "a query is safe if and only if both PTI and NTI
//! components deem the query safe. … If either algorithm detects an
//! attack, an attack is reported." (§III-C, §IV-E). The combination is the
//! paper's contribution — each component covers the other's blind spot:
//!
//! * attacks that evade NTI (quote-stuffed comment blocks, whitespace
//!   padding, base64 inputs) are long or vocabulary-foreign and get caught
//!   by PTI;
//! * attacks that evade PTI (short payloads assembled from fragments the
//!   application happens to contain) appear near-verbatim in the query and
//!   get caught by NTI.
//!
//! # The check pipeline
//!
//! Every check drives one fixed [`pipeline`] of stages — static fast path,
//! model fast path, NTI, PTI, structural anomaly — assembled at build time
//! from the [`JozaConfig`]. Derived query forms (token stream, skeleton,
//! fingerprint, folded bytes) are computed **once** per checked query in a
//! [`QueryArtifacts`] cache shared by all stages, and every [`Verdict`]
//! carries a per-stage [`StageTrace`] recording which stages ran,
//! short-circuited, or fired. See `DESIGN.md` §9.
//!
//! The API surface is one session type:
//!
//! * [`Joza`] + [`JozaSession`] — capture inputs, check queries one at a
//!   time ([`JozaSession::check`]) or batched
//!   ([`JozaSession::check_batch`]); the same type serves direct library
//!   use and, through the [`joza_webapp::gate::GateFactory`] impl on
//!   [`Joza`], the multi-worker server integration;
//! * [`Joza::deploy`] — hot-swap the static query models and taint-free
//!   whitelist under live traffic, without rebuilding the engine;
//! * [`Joza::install`] / [`Joza::installer`] — the installer: extract
//!   string fragments from every source file of a [`WebApp`].
//!
//! # Concurrency
//!
//! The engine is **lock-sharded** (see `DESIGN.md` §6, §11). The
//! read-mostly side — fragment store, compiled matchers, NTI analyzer,
//! config — is shared and consulted through `&self` with no lock. The
//! route-keyed knowledge (query models, taint-free whitelist, assembled
//! pipeline) lives in an RCU-style *deployment*: an immutable release
//! behind an `RwLock<Arc<_>>` that [`Joza::deploy`] swaps atomically;
//! sessions pin the release current when they were opened, so a request
//! is served end-to-end by one consistent model generation. PTI daemon
//! clients live in per-worker shards selected by a thread-local worker
//! id, with a [`SharedQueryCache`] read layer spanning all shards.
//! Statistics are **contention-free**: each check accumulates a plain
//! delta and flushes it into the calling worker's own cache-line-aligned
//! atomic cell; [`Joza::stats`] merges the cells on the read side. The
//! NTI stage runs entirely outside any lock; only the PTI stage takes
//! the calling worker's own shard lock, so N workers proceed in parallel
//! instead of serializing on one global mutex.
//!
//! # Examples
//!
//! ```
//! use joza_core::{Joza, JozaConfig};
//!
//! let fragments = ["id", "SELECT * FROM records WHERE ID=", " LIMIT 5"];
//! let joza = Joza::builder().fragments(fragments).config(JozaConfig::default()).build();
//!
//! let mut session = joza.session();
//! session.capture_input("id", "42");
//! assert!(session.check("SELECT * FROM records WHERE ID=42 LIMIT 5").is_safe());
//!
//! session.capture_input("id", "-1 UNION SELECT username()");
//! let verdict = session.check("SELECT * FROM records WHERE ID=-1 UNION SELECT username() LIMIT 5");
//! assert!(!verdict.is_safe());
//! ```

pub mod arena;
pub mod artifacts;
pub mod pipeline;
mod stats;

pub use artifacts::QueryArtifacts;
pub use joza_nti::MatchKernel;
pub use pipeline::{StageId, StageStatus, StageTrace, STAGE_COUNT};

use joza_nti::{NtiAnalyzer, NtiConfig};
use joza_phpsim::fragments::FragmentSet;
use joza_pti::cache::CacheStats;
use joza_pti::daemon::{PtiComponent, PtiComponentConfig};
use joza_pti::{FragmentStore, SharedQueryCache};
pub use joza_sqlparse::template::{QueryModelIndex, RouteModel};
use joza_webapp::app::WebApp;
use joza_webapp::gate::{GateDecision, GateFactory, GateSession, RawInput};
use parking_lot::{Mutex, RwLock};
use pipeline::{CheckCx, CheckPipeline};
use stats::StatsCell;
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

/// What Joza does when an attack is detected (§IV-E).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RecoveryPolicy {
    /// Force the application to exit; the user sees a blank page. The
    /// conservative default.
    #[default]
    Termination,
    /// Return an error code as if the query had failed and let application
    /// logic handle it.
    ErrorVirtualization,
}

/// Joza configuration.
#[derive(Debug, Clone, Default)]
pub struct JozaConfig {
    /// NTI analyzer configuration.
    pub nti: NtiConfig,
    /// PTI component configuration (deployment mode + caches).
    pub pti: PtiComponentConfig,
    /// Recovery policy on detection.
    pub recovery: RecoveryPolicy,
    /// Disable NTI (PTI-only ablation).
    pub disable_nti: bool,
    /// Disable PTI (NTI-only ablation).
    pub disable_pti: bool,
    /// Modeled per-query cost of the PHP-side Joza wrapper itself
    /// (interception, input bookkeeping, cache key hashing) — work the
    /// paper's prototype performs in interpreted PHP on every intercepted
    /// query regardless of deployment mode. Zero (free) by default; the
    /// benchmark harness sets a calibrated value (see `DESIGN.md`).
    pub wrapper_cost: Duration,
    /// Number of engine shards (per-worker PTI components + stats cells).
    /// `0` (the default) auto-sizes from available parallelism. More
    /// shards than concurrent workers is harmless — unused shards are
    /// never initialized; fewer means workers share shards and contend.
    pub shards: usize,
    /// Treat a query that falls outside a *complete* static query model
    /// as an attack on its own, even when NTI and PTI both pass. Off by
    /// default: the anomaly is recorded as a fused signal
    /// ([`Verdict::structural_anomaly`]) without changing the verdict,
    /// because model completeness is an analysis judgement rather than a
    /// ground truth.
    pub block_on_structural_anomaly: bool,
}

impl JozaConfig {
    /// The paper's deployed configuration: optimized PTI (long-lived
    /// daemon, both caches), default NTI, termination recovery.
    pub fn optimized() -> Self {
        JozaConfig { pti: PtiComponentConfig::optimized(), ..Default::default() }
    }

    /// NTI-only configuration (for the Table II / Table IV columns).
    pub fn nti_only() -> Self {
        JozaConfig { disable_pti: true, ..Self::optimized() }
    }

    /// PTI-only configuration (for the Table II / Table IV columns).
    pub fn pti_only() -> Self {
        JozaConfig { disable_nti: true, ..Self::optimized() }
    }
}

/// Which component(s) detected an attack.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Detector {
    /// Only NTI flagged the query.
    Nti,
    /// Only PTI flagged the query.
    Pti,
    /// Both flagged it.
    Both,
    /// Neither dynamic detector flagged it, but the query fell outside
    /// the route's complete static query model and
    /// [`JozaConfig::block_on_structural_anomaly`] is enabled.
    Structural,
}

/// How a query's verdict was reached — a summary view derived from the
/// verdict's [`StageTrace`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CheckPath {
    /// The route was proven taint-free by the static analyzer: every
    /// detection stage was skipped.
    StaticFastPath,
    /// The route's static query model accepted the query's skeleton:
    /// NTI/PTI were skipped entirely.
    ModelFastPath,
    /// The full dynamic NTI/PTI pipeline ran.
    #[default]
    Dynamic,
}

/// The verdict for one query.
///
/// Opaque by design: construct via [`Joza::check_query`], read via the
/// accessors. `#[non_exhaustive]` keeps room to attach evidence (edit
/// distances, uncovered tokens) without breaking downstream matches.
#[non_exhaustive]
#[derive(Debug, Clone, PartialEq)]
pub struct Verdict {
    safe: bool,
    detected_by: Option<Detector>,
    nti_attack: Option<bool>,
    pti_attack: Option<bool>,
    trace: StageTrace,
    structural_anomaly: bool,
}

impl Verdict {
    /// Whether the query may proceed to the DBMS.
    pub fn is_safe(&self) -> bool {
        self.safe
    }

    /// Which component(s) detected the attack (`None` when safe).
    pub fn detector(&self) -> Option<Detector> {
        self.detected_by
    }

    /// NTI's raw verdict (`None` when NTI is disabled or a fast path
    /// skipped it).
    pub fn nti_attack(&self) -> Option<bool> {
        self.nti_attack
    }

    /// PTI's raw verdict (`None` when PTI is disabled or a fast path
    /// skipped it).
    pub fn pti_attack(&self) -> Option<bool> {
        self.pti_attack
    }

    /// Summary of how the verdict was reached, derived from the trace.
    pub fn path(&self) -> CheckPath {
        if self.trace.status(StageId::ModelFastPath) == StageStatus::ShortCircuited {
            CheckPath::ModelFastPath
        } else if self.trace.status(StageId::StaticFastPath) == StageStatus::ShortCircuited {
            CheckPath::StaticFastPath
        } else {
            CheckPath::Dynamic
        }
    }

    /// The per-stage provenance trace: what every pipeline stage did for
    /// this query.
    pub fn trace(&self) -> &StageTrace {
        &self.trace
    }

    /// True when the route has a *complete* static query model and this
    /// query's skeleton matched none of its templates — a structural
    /// signal fused with the dynamic verdict (it blocks only under
    /// [`JozaConfig::block_on_structural_anomaly`]).
    pub fn structural_anomaly(&self) -> bool {
        self.structural_anomaly
    }
}

/// Cumulative engine statistics.
///
/// The three path counters partition the checks:
/// `model_fast_hits + static_hits + full_checks == queries` holds by
/// construction — each check contributes `queries += 1` and exactly one
/// path counter to the *same* locally-accumulated delta (derived from
/// the verdict's stage trace in one place), and deltas are flushed into
/// per-worker atomic cells counter-by-counter. The invariant is exact at
/// every quiescent point (after joins/barriers); see the `stats` module
/// docs for the mid-flight caveat.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct JozaStats {
    /// Queries checked.
    pub queries: u64,
    /// Attacks reported.
    pub attacks: u64,
    /// Queries NTI flagged.
    pub nti_detections: u64,
    /// Queries PTI flagged.
    pub pti_detections: u64,
    /// Wall-clock time spent in the NTI stage.
    pub nti_time: Duration,
    /// Wall-clock time spent in the PTI stage (daemon round-trips and
    /// shard-lock acquisition included).
    pub pti_time: Duration,
    /// Queries answered by the static-model fast path (NTI/PTI skipped).
    pub model_fast_hits: u64,
    /// Queries answered by the static-analysis fast path (route proven
    /// taint-free; every detection stage skipped).
    pub static_hits: u64,
    /// Queries that ran the full dynamic pipeline.
    pub full_checks: u64,
    /// Queries that fell outside a complete static query model.
    pub model_anomalies: u64,
    /// Route-scoped checks ([`Joza::check_query_on_route`]) whose route
    /// was unknown to the engine's route-keyed knowledge — neither in the
    /// installed model index nor in the statically-proven taint-free set
    /// (the check silently fell back to the fully dynamic pipeline). Zero
    /// on engines without models or proven routes.
    pub route_misses_unknown: u64,
    /// Route-scoped checks whose route *is* in the model index but whose
    /// model is incomplete (at least one sink site inferred ⊤), the
    /// taint-free set does not cover it, and the query fell through to
    /// the fully dynamic pipeline — the partial model could not serve it
    /// and, being incomplete, could not call it anomalous either.
    /// Distinct from [`JozaStats::route_misses_unknown`] so gate coverage
    /// ("is the route known at all?") and hardening coverage ("is its
    /// model complete enough to repair?") are separately observable.
    pub route_misses_incomplete: u64,
    /// Per-stage run counts, indexed by [`StageId::index`]: how many
    /// checks each stage actually ran for (short-circuits and fires
    /// included).
    pub stage_runs: [u64; STAGE_COUNT],
    /// Per-stage hit counts, indexed by [`StageId::index`]: checks where
    /// the stage short-circuited (fast paths) or fired (detectors,
    /// structural signal).
    pub stage_hits: [u64; STAGE_COUNT],
    /// Per-stage cumulative wall-clock nanoseconds, indexed by
    /// [`StageId::index`].
    pub stage_ns: [u64; STAGE_COUNT],
}

impl JozaStats {
    fn merge(&mut self, other: &JozaStats) {
        self.queries += other.queries;
        self.attacks += other.attacks;
        self.nti_detections += other.nti_detections;
        self.pti_detections += other.pti_detections;
        self.nti_time += other.nti_time;
        self.pti_time += other.pti_time;
        self.model_fast_hits += other.model_fast_hits;
        self.static_hits += other.static_hits;
        self.full_checks += other.full_checks;
        self.model_anomalies += other.model_anomalies;
        self.route_misses_unknown += other.route_misses_unknown;
        self.route_misses_incomplete += other.route_misses_incomplete;
        for i in 0..STAGE_COUNT {
            self.stage_runs[i] += other.stage_runs[i];
            self.stage_hits[i] += other.stage_hits[i];
            self.stage_ns[i] += other.stage_ns[i];
        }
    }
}

/// One immutable release of the engine's route-keyed knowledge: the
/// static query-model index, the taint-free whitelist, and the check
/// pipeline assembled for exactly that pair (plus the engine's detector
/// config). [`Joza::deploy`] swaps releases atomically, RCU-style:
/// readers clone an `Arc` and never block a writer for longer than the
/// pointer swap; an old release is freed when the last session pinning
/// it drops.
#[derive(Debug)]
pub(crate) struct Deployment {
    /// Monotone release number: `0` as built, `+1` per successful
    /// deploy. Stamped into every [`StageTrace`] served by this release.
    generation: u64,
    models: Option<Arc<QueryModelIndex>>,
    taint_free: Option<Arc<BTreeSet<String>>>,
    /// Stored cells the static store/load pass marked attacker-reachable
    /// (`joza_sast::analyze_store_flow`). `"*"` entries are wildcards:
    /// `("t", "*")` covers every column of `t`, `("*", "*")` covers
    /// everything. Values fetched from covered cells are captured as
    /// DB-sourced inputs for NTI/PTI (second-order defense).
    dirty_cells: Option<Arc<BTreeSet<(String, String)>>>,
    checks: CheckPipeline,
}

impl Deployment {
    fn model_for(&self, route: &str) -> Option<Arc<RouteModel>> {
        self.models.as_deref().and_then(|m| m.get_arc(route))
    }
}

/// A partial update to the engine's deployed route knowledge, applied by
/// [`Joza::deploy`]. Fields left untouched keep the currently-deployed
/// value, so a rollout can replace just the model index, just the
/// taint-free whitelist, or both; rolling *back* is deploying the
/// previous index again (cheap — [`QueryModelIndex`] clones share the
/// per-route models).
#[derive(Debug, Default)]
pub struct ModelUpdate {
    models: Option<QueryModelIndex>,
    clear_models: bool,
    taint_free: Option<BTreeSet<String>>,
    clear_taint_free: bool,
    dirty_cells: Option<BTreeSet<(String, String)>>,
    clear_dirty_cells: bool,
}

impl ModelUpdate {
    /// An empty update (deploying it still mints a new generation).
    pub fn new() -> Self {
        ModelUpdate::default()
    }

    /// Replaces the deployed static query-model index.
    #[must_use]
    pub fn query_models(mut self, models: QueryModelIndex) -> Self {
        self.models = Some(models);
        self.clear_models = false;
        self
    }

    /// Removes the deployed model index entirely (every route falls back
    /// to the dynamic pipeline).
    #[must_use]
    pub fn clear_query_models(mut self) -> Self {
        self.models = None;
        self.clear_models = true;
        self
    }

    /// Replaces the deployed taint-free whitelist with these routes.
    #[must_use]
    pub fn taint_free_routes<I, S>(mut self, routes: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: AsRef<str>,
    {
        self.taint_free = Some(routes.into_iter().map(|r| r.as_ref().to_string()).collect());
        self.clear_taint_free = false;
        self
    }

    /// Removes the deployed taint-free whitelist entirely.
    #[must_use]
    pub fn clear_taint_free_routes(mut self) -> Self {
        self.taint_free = None;
        self.clear_taint_free = true;
        self
    }

    /// Replaces the deployed dirty-cell set (from
    /// `joza_sast::StoreFlowReport::dirty_cells`): stored `(table,
    /// column)` cells whose values must be treated as taint sources when
    /// fetched. `"*"` components are wildcards.
    #[must_use]
    pub fn dirty_cells<I, S>(mut self, cells: I) -> Self
    where
        I: IntoIterator<Item = (S, S)>,
        S: AsRef<str>,
    {
        self.dirty_cells = Some(
            cells
                .into_iter()
                .map(|(t, c)| (t.as_ref().to_string(), c.as_ref().to_string()))
                .collect(),
        );
        self.clear_dirty_cells = false;
        self
    }

    /// Removes the deployed dirty-cell set entirely (no DB-sourced
    /// capture).
    #[must_use]
    pub fn clear_dirty_cells(mut self) -> Self {
        self.dirty_cells = None;
        self.clear_dirty_cells = true;
        self
    }
}

/// Rejects a model index that names routes the application does not
/// serve — a deploy-time misconfiguration that would otherwise surface
/// only as silent `route_misses_unknown` drift at runtime.
fn validate_model_routes(
    models: Option<&QueryModelIndex>,
    known: Option<&BTreeSet<String>>,
) -> Result<(), JozaBuildError> {
    if let (Some(models), Some(known)) = (models, known) {
        if let Some(rogue) = models.routes().find(|r| !known.contains(*r)) {
            return Err(JozaBuildError::UnknownModelRoute(rogue.to_string()));
        }
    }
    Ok(())
}

/// Gives each OS thread that calls into Joza a stable worker index.
/// Sequential assignment keeps ids dense: the main thread is worker 0
/// (single-threaded behaviour is identical to the pre-sharded engine) and
/// any batch of up to `shards` worker threads gets distinct shards.
fn worker_index(shards: usize) -> usize {
    static NEXT_WORKER: AtomicUsize = AtomicUsize::new(0);
    thread_local! {
        static WORKER: usize = NEXT_WORKER.fetch_add(1, Ordering::Relaxed);
    }
    WORKER.with(|w| *w) % shards
}

/// The Joza engine — shareable across worker threads by reference.
///
/// The fragment store, NTI analyzer, configuration, query models and the
/// assembled [`pipeline`] form the read-only side (no lock); PTI daemon
/// clients and statistics are sharded per-worker (see the crate docs),
/// with safe-query knowledge shared through a [`SharedQueryCache`].
pub struct Joza {
    pub(crate) config: JozaConfig,
    pub(crate) nti: NtiAnalyzer,
    store: Arc<FragmentStore>,
    shared_query_cache: Option<Arc<SharedQueryCache>>,
    shards: Box<[OnceLock<Mutex<PtiComponent>>]>,
    /// Per-worker statistics cells, one per shard slot; checks flush
    /// locally-accumulated deltas here, [`Joza::stats`] merges on read.
    stats_cells: Box<[StatsCell]>,
    fragment_count: usize,
    /// Routes the application actually serves, when the builder was told
    /// them ([`JozaBuilder::known_routes`]; `Joza::installer` fills it
    /// from the app). The consistency oracle for model installs and
    /// deploys.
    known_routes: Option<BTreeSet<String>>,
    /// The current release of route-keyed knowledge. Readers clone the
    /// inner `Arc` under a momentary read lock; [`Joza::deploy`] holds
    /// the write lock only for the pointer swap.
    deployment: RwLock<Arc<Deployment>>,
    /// Generation minted by the most recent deploy (the as-built
    /// deployment is generation 0).
    next_generation: AtomicU64,
}

impl std::fmt::Debug for Joza {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let dep = self.deployment.read();
        f.debug_struct("Joza")
            .field("fragments", &self.fragment_count)
            .field("shards", &self.shards.len())
            .field("generation", &dep.generation)
            .field("pipeline", &dep.checks)
            .field("config", &self.config)
            .finish_non_exhaustive()
    }
}

impl Joza {
    /// Starts building an engine.
    pub fn builder() -> JozaBuilder {
        JozaBuilder::default()
    }

    /// The installer (§IV-A) as a builder: extracts string fragments from
    /// every source file reachable in the application and returns a
    /// [`JozaBuilder`] preloaded with them, so callers can attach query
    /// models, a taint-free whitelist, or kernel overrides before
    /// building.
    pub fn installer(app: &WebApp, config: JozaConfig) -> JozaBuilder {
        let mut set = FragmentSet::new();
        for src in app.all_sources() {
            set.add_source(src);
        }
        Joza::builder()
            .fragment_set(&set)
            .known_routes(app.plugins().map(|p| p.name.as_str()))
            .config(config)
    }

    /// The installer (§IV-A): extracts string fragments from every source
    /// file reachable in the application and builds an engine over them.
    pub fn install(app: &WebApp, config: JozaConfig) -> Joza {
        Joza::installer(app, config).build()
    }

    /// The installer plus static query models: like [`Joza::install`],
    /// but also compiles a per-route [`QueryModelIndex`] (from
    /// `joza_sast::app_query_models`) into the gate, enabling the
    /// skeleton fast path and the structural-anomaly signal.
    pub fn install_with_models(app: &WebApp, config: JozaConfig, models: QueryModelIndex) -> Joza {
        Joza::installer(app, config).query_models(models).build()
    }

    /// The engine configuration.
    pub fn config(&self) -> &JozaConfig {
        &self.config
    }

    /// Number of fragments in the PTI vocabulary.
    pub fn fragment_count(&self) -> usize {
        self.fragment_count
    }

    /// Number of shards the engine was built with.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// A snapshot of cumulative statistics, merged over every worker's
    /// stats cell. Exact whenever no check is mid-flush (joins, barriers,
    /// end of a run); see the `stats` module docs.
    pub fn stats(&self) -> JozaStats {
        let mut total = JozaStats::default();
        for cell in self.stats_cells.iter() {
            total.merge(&cell.snapshot());
        }
        total
    }

    /// PTI query-cache statistics: the shared cache's counters when the
    /// engine runs one (the default for cache-enabled configs), otherwise
    /// the sum over per-shard local caches.
    pub fn query_cache_stats(&self) -> CacheStats {
        if let Some(shared) = &self.shared_query_cache {
            return shared.stats();
        }
        let mut total = CacheStats::default();
        for cell in self.shards.iter() {
            if let Some(shard) = cell.get() {
                let s = shard.lock().query_cache_stats();
                total.hits += s.hits;
                total.misses += s.misses;
                total.inserts += s.inserts;
            }
        }
        total
    }

    /// Starts an analysis session (captures inputs for NTI, then checks
    /// queries) with no route context. The session pins the deployment
    /// current at this moment: a deploy racing with an open session takes
    /// effect for sessions opened after it.
    pub fn session(&self) -> JozaSession<'_> {
        JozaSession {
            joza: self,
            dep: self.deployment(),
            route: None,
            model: None,
            inputs: Vec::new(),
        }
    }

    /// Starts an analysis session scoped to `route`: checks go through
    /// the route's fast paths (taint-free whitelist, static query model)
    /// when the pinned deployment has them installed.
    pub fn session_for(&self, route: &str) -> JozaSession<'_> {
        let dep = self.deployment();
        let model = dep.model_for(route);
        JozaSession { joza: self, dep, route: Some(route.to_string()), model, inputs: Vec::new() }
    }

    /// The calling worker's PTI shard, initialized on first touch. Lazy
    /// initialization means an engine serving one thread runs exactly one
    /// PTI component (and one daemon), however many shards are configured.
    pub(crate) fn shard(&self) -> &Mutex<PtiComponent> {
        let cell = &self.shards[worker_index(self.shards.len())];
        cell.get_or_init(|| {
            Mutex::new(PtiComponent::with_store(
                Arc::clone(&self.store),
                self.config.pti.clone(),
                self.shared_query_cache.clone(),
            ))
        })
    }

    /// The calling worker's statistics cell.
    fn stats_cell(&self) -> &StatsCell {
        &self.stats_cells[worker_index(self.stats_cells.len())]
    }

    /// The current deployment (owned handle): route-keyed knowledge plus
    /// the pipeline assembled for it.
    pub(crate) fn deployment(&self) -> Arc<Deployment> {
        Arc::clone(&self.deployment.read())
    }

    /// The generation of the currently-deployed model release: `0` as
    /// built, incremented by every successful [`Joza::deploy`].
    pub fn generation(&self) -> u64 {
        self.deployment.read().generation
    }

    /// Atomically replaces the deployed route knowledge (RCU-style):
    /// validates the update, assembles the pipeline for it, and swaps it
    /// in under live traffic. In-flight sessions finish on the release
    /// they pinned; sessions opened after the swap (and engine-level
    /// `check_query*` calls) see the new one. Returns the new release's
    /// generation, which every verdict served by it carries in its
    /// [`StageTrace::generation`].
    ///
    /// # Errors
    ///
    /// [`JozaBuildError::UnknownModelRoute`] when the engine knows the
    /// application's routes and the update's model index names one the
    /// app does not serve; the current deployment stays in place.
    pub fn deploy(&self, update: ModelUpdate) -> Result<u64, JozaBuildError> {
        let current = self.deployment();
        let models = match (update.models, update.clear_models) {
            (Some(ix), _) => Some(Arc::new(ix)),
            (None, true) => None,
            (None, false) => current.models.clone(),
        };
        let taint_free = match (update.taint_free, update.clear_taint_free) {
            (Some(set), _) => Some(Arc::new(set)),
            (None, true) => None,
            (None, false) => current.taint_free.clone(),
        };
        let dirty_cells = match (update.dirty_cells, update.clear_dirty_cells) {
            (Some(set), _) => Some(Arc::new(set)),
            (None, true) => None,
            (None, false) => current.dirty_cells.clone(),
        };
        validate_model_routes(models.as_deref(), self.known_routes.as_ref())?;
        let checks = CheckPipeline::assemble(
            taint_free.is_some(),
            models.is_some(),
            self.config.disable_nti,
            self.config.disable_pti,
        );
        // Generation is minted inside the write lock so the installed
        // sequence is strictly increasing even under racing deploys —
        // that is what makes trace stamps monotone for every observer.
        let mut slot = self.deployment.write();
        let generation = self.next_generation.fetch_add(1, Ordering::Relaxed) + 1;
        *slot = Arc::new(Deployment { generation, models, taint_free, dirty_cells, checks });
        Ok(generation)
    }

    /// Checks one query against a set of captured raw inputs, with no
    /// route context (never consults the static query models).
    pub fn check_query(&self, inputs: &[&str], query: &str) -> Verdict {
        let dep = self.deployment();
        self.check_on(&dep, None, None, inputs, query)
    }

    /// Checks one query on a named route: the route's fast paths (when
    /// installed and applicable) run first; an unknown route is recorded
    /// as a [`JozaStats::route_misses_unknown`] and falls back to the
    /// fully dynamic pipeline.
    pub fn check_query_on_route(&self, route: &str, inputs: &[&str], query: &str) -> Verdict {
        let dep = self.deployment();
        let model = dep.model_for(route);
        self.check_on(&dep, Some(route), model.as_deref(), inputs, query)
    }

    /// The currently-deployed static query models, if any (an owned
    /// handle — the index may be hot-swapped by a later deploy).
    pub fn query_models(&self) -> Option<Arc<QueryModelIndex>> {
        self.deployment.read().models.clone()
    }

    /// The currently-deployed static query model for `route`, if any.
    pub fn model_for(&self, route: &str) -> Option<Arc<RouteModel>> {
        self.deployment.read().model_for(route)
    }

    /// Single-check entry point: runs [`Joza::check_in`] and flushes its
    /// one-check delta into the calling worker's stats cell.
    pub(crate) fn check_on(
        &self,
        dep: &Deployment,
        route: Option<&str>,
        model: Option<&RouteModel>,
        inputs: &[&str],
        query: &str,
    ) -> Verdict {
        let mut delta = JozaStats::default();
        let verdict = self.check_in(dep, route, model, inputs, query, &mut delta);
        self.stats_cell().add(&delta);
        verdict
    }

    /// The one check core: every session, gate and batch check funnels
    /// here and drives the deployment's assembled pipeline.
    /// Statistics are accumulated into `stats` (a plain local delta) so
    /// batch callers can merge many checks and flush once.
    pub(crate) fn check_in(
        &self,
        dep: &Deployment,
        route: Option<&str>,
        model: Option<&RouteModel>,
        inputs: &[&str],
        query: &str,
        stats: &mut JozaStats,
    ) -> Verdict {
        joza_phpsim::cost::simulate(self.config.wrapper_cost);

        // A route-scoped check on a deployment with route knowledge
        // (models or statically-proven routes) that the fast paths cannot
        // serve: silent fallback to dynamic, but counted — as *unknown*
        // when the route is in neither the model index nor the taint-free
        // set, as *incomplete* when it is indexed but its model left a
        // sink ⊤.
        let (route_miss_unknown, route_miss_incomplete) = match route {
            Some(r)
                if (dep.models.is_some() || dep.taint_free.is_some())
                    && !dep.taint_free.as_ref().is_some_and(|t| t.contains(r)) =>
            {
                match model {
                    None => (true, false),
                    Some(m) => (false, !m.complete),
                }
            }
            _ => (false, false),
        };

        // The artifacts lease their buffers from the calling thread's
        // check arena; the `with_arena` scope is exactly the check, so
        // the buffers park back (capacity kept) when `artifacts` drops.
        crate::arena::with_arena(|check_arena| {
            let artifacts = QueryArtifacts::new_in(query, check_arena);
            let mut cx = CheckCx {
                route,
                model,
                taint_free: dep.taint_free.as_deref(),
                inputs,
                artifacts: &artifacts,
                arena: check_arena,
                nti_attack: None,
                pti_attack: None,
                structural_anomaly: false,
                trace: StageTrace::for_generation(dep.generation),
                stage_ns: [0; STAGE_COUNT],
            };
            dep.checks.run(self, &mut cx);

            let mut detected_by = match (cx.nti_attack, cx.pti_attack) {
                (Some(true), Some(true)) => Some(Detector::Both),
                (Some(true), _) => Some(Detector::Nti),
                (_, Some(true)) => Some(Detector::Pti),
                _ => None,
            };
            if detected_by.is_none()
                && cx.structural_anomaly
                && self.config.block_on_structural_anomaly
            {
                detected_by = Some(Detector::Structural);
            }
            let verdict = Verdict {
                safe: detected_by.is_none(),
                detected_by,
                nti_attack: cx.nti_attack,
                pti_attack: cx.pti_attack,
                trace: cx.trace,
                structural_anomaly: cx.structural_anomaly,
            };
            Self::accumulate(stats, &cx, &verdict, route_miss_unknown, route_miss_incomplete);
            verdict
        })
    }

    /// Accumulates one check's counters into a local delta, from the
    /// stage trace alone — the one place every counter is incremented,
    /// which is what makes the path partition
    /// (`model_fast_hits + static_hits + full_checks == queries`) drift-
    /// free by construction.
    fn accumulate(
        stats: &mut JozaStats,
        cx: &CheckCx<'_, '_>,
        verdict: &Verdict,
        route_miss_unknown: bool,
        route_miss_incomplete: bool,
    ) {
        stats.queries += 1;
        for id in StageId::ALL {
            let i = id.index();
            stats.stage_ns[i] += cx.stage_ns[i];
            match cx.trace.status(id) {
                StageStatus::Skipped => {}
                StageStatus::Passed => stats.stage_runs[i] += 1,
                StageStatus::ShortCircuited | StageStatus::Fired => {
                    stats.stage_runs[i] += 1;
                    stats.stage_hits[i] += 1;
                }
            }
        }
        match verdict.path() {
            CheckPath::ModelFastPath => stats.model_fast_hits += 1,
            CheckPath::StaticFastPath => stats.static_hits += 1,
            CheckPath::Dynamic => stats.full_checks += 1,
        }
        if route_miss_unknown {
            stats.route_misses_unknown += 1;
        }
        // Incomplete-model misses only count when the partial model
        // failed to serve the query: a skeleton the model does cover
        // still rides the fast path and is no miss.
        if route_miss_incomplete && verdict.path() == CheckPath::Dynamic {
            stats.route_misses_incomplete += 1;
        }
        if cx.structural_anomaly {
            stats.model_anomalies += 1;
        }
        if cx.nti_attack == Some(true) {
            stats.nti_detections += 1;
        }
        if cx.pti_attack == Some(true) {
            stats.pti_detections += 1;
        }
        if !verdict.safe {
            stats.attacks += 1;
        }
    }

    pub(crate) fn decide(&self, verdict: &Verdict) -> GateDecision {
        if verdict.is_safe() {
            GateDecision::Allow
        } else {
            match self.config.recovery {
                RecoveryPolicy::Termination => GateDecision::Terminate,
                RecoveryPolicy::ErrorVirtualization => GateDecision::ErrorVirtualize,
            }
        }
    }
}

/// Why [`JozaBuilder::try_build`] or [`Joza::deploy`] rejected a
/// configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JozaBuildError {
    /// Both NTI and PTI are disabled — the engine would allow everything.
    AllDetectorsDisabled,
    /// PTI is enabled but the fragment vocabulary is empty, so *every*
    /// query with a critical token would be flagged (the installer found
    /// no application sources).
    EmptyPtiVocabulary,
    /// The model index names a route the application does not serve
    /// (per [`JozaBuilder::known_routes`]): the model could never match
    /// live traffic and would only surface as silent
    /// [`JozaStats::route_misses_unknown`] drift.
    UnknownModelRoute(String),
}

impl std::fmt::Display for JozaBuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JozaBuildError::AllDetectorsDisabled => {
                write!(f, "both NTI and PTI are disabled; the engine would detect nothing")
            }
            JozaBuildError::EmptyPtiVocabulary => {
                write!(
                    f,
                    "PTI is enabled but no fragments were provided; every query would be flagged"
                )
            }
            JozaBuildError::UnknownModelRoute(route) => {
                write!(
                    f,
                    "the model index names route {route:?}, which the application does not serve"
                )
            }
        }
    }
}

impl std::error::Error for JozaBuildError {}

/// Builder for [`Joza`].
#[derive(Debug, Default)]
pub struct JozaBuilder {
    fragments: Vec<String>,
    config: JozaConfig,
    models: Option<QueryModelIndex>,
    taint_free: Option<BTreeSet<String>>,
    dirty_cells: Option<BTreeSet<(String, String)>>,
    known_routes: Option<BTreeSet<String>>,
}

impl JozaBuilder {
    /// Adds fragments from an iterator of strings.
    #[must_use]
    pub fn fragments<I, S>(mut self, fragments: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: AsRef<str>,
    {
        self.fragments.extend(fragments.into_iter().map(|s| s.as_ref().to_string()));
        self
    }

    /// Adds fragments from an extracted [`FragmentSet`].
    #[must_use]
    pub fn fragment_set(mut self, set: &FragmentSet) -> Self {
        self.fragments.extend(set.iter().map(str::to_string));
        self
    }

    /// Sets the configuration.
    #[must_use]
    pub fn config(mut self, config: JozaConfig) -> Self {
        self.config = config;
        self
    }

    /// Installs per-route static query models (from
    /// `joza_sast::app_query_models`). Routes with a model get the
    /// skeleton fast path and, when the model is complete, the
    /// structural-anomaly signal; routes without one are unaffected.
    #[must_use]
    pub fn query_models(mut self, models: QueryModelIndex) -> Self {
        self.models = Some(models);
        self
    }

    /// Installs the static fast path: requests on these routes — proven
    /// taint-free by the static analyzer (`joza_sast::taint_free_routes`)
    /// — are allowed without running any detection stage.
    #[must_use]
    pub fn taint_free_routes<I, S>(mut self, routes: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: AsRef<str>,
    {
        self.taint_free
            .get_or_insert_with(BTreeSet::new)
            .extend(routes.into_iter().map(|r| r.as_ref().to_string()));
        self
    }

    /// Installs the dirty-cell set (from
    /// `joza_sast::StoreFlowReport::dirty_cells`): stored `(table,
    /// column)` cells reachable by attacker-controlled writes. Values
    /// fetched from them at runtime are captured as DB-sourced inputs and
    /// matched by NTI/PTI like request inputs — the second-order defense.
    /// `"*"` components are wildcards.
    #[must_use]
    pub fn dirty_cells<I, S>(mut self, cells: I) -> Self
    where
        I: IntoIterator<Item = (S, S)>,
        S: AsRef<str>,
    {
        self.dirty_cells.get_or_insert_with(BTreeSet::new).extend(
            cells.into_iter().map(|(t, c)| (t.as_ref().to_string(), c.as_ref().to_string())),
        );
        self
    }

    /// Declares the routes the application actually serves, enabling
    /// model/route consistency validation: [`JozaBuilder::try_build`] and
    /// every later [`Joza::deploy`] reject a model index naming a route
    /// outside this set ([`JozaBuildError::UnknownModelRoute`]) instead
    /// of letting it decay into silent `route_misses_unknown` at runtime.
    /// [`Joza::installer`] fills it from the application automatically;
    /// without it, no validation happens.
    #[must_use]
    pub fn known_routes<I, S>(mut self, routes: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: AsRef<str>,
    {
        self.known_routes
            .get_or_insert_with(BTreeSet::new)
            .extend(routes.into_iter().map(|r| r.as_ref().to_string()));
        self
    }

    /// Selects the NTI approximate-matching kernel (§III-A hot path).
    ///
    /// Both kernels produce bit-identical verdicts and taint spans;
    /// [`MatchKernel::BitParallel`] (the default) is roughly an order of
    /// magnitude cheaper on long queries, while [`MatchKernel::Classic`]
    /// is kept for the Fig. 7-style kernel ablation.
    #[must_use]
    pub fn nti_kernel(mut self, kernel: MatchKernel) -> Self {
        self.config.nti.kernel = kernel;
        self
    }

    /// Builds the engine, validating the configuration first.
    ///
    /// Rejects configurations that cannot protect anything
    /// ([`JozaBuildError::AllDetectorsDisabled`]) or that would flag all
    /// traffic ([`JozaBuildError::EmptyPtiVocabulary`]). The check
    /// pipeline is assembled here, once: stages for disabled or absent
    /// subsystems are left out. The per-worker PTI components (and their
    /// daemons) spawn lazily, on each worker's first check.
    pub fn try_build(self) -> Result<Joza, JozaBuildError> {
        if self.config.disable_nti && self.config.disable_pti {
            return Err(JozaBuildError::AllDetectorsDisabled);
        }
        if !self.config.disable_pti && self.fragments.is_empty() {
            return Err(JozaBuildError::EmptyPtiVocabulary);
        }
        validate_model_routes(self.models.as_ref(), self.known_routes.as_ref())?;
        let nti = NtiAnalyzer::new(self.config.nti.clone());
        let fragment_count = self.fragments.len();
        let store = Arc::new(FragmentStore::new(&self.fragments, self.config.pti.pti.matcher));
        let shared_query_cache =
            self.config.pti.query_cache.then(|| Arc::new(SharedQueryCache::new()));
        let shard_count = if self.config.shards == 0 {
            std::thread::available_parallelism().map_or(8, |p| (p.get() * 2).clamp(8, 64))
        } else {
            self.config.shards
        };
        let checks = CheckPipeline::assemble(
            self.taint_free.is_some(),
            self.models.is_some(),
            self.config.disable_nti,
            self.config.disable_pti,
        );
        let deployment = Arc::new(Deployment {
            generation: 0,
            models: self.models.map(Arc::new),
            taint_free: self.taint_free.map(Arc::new),
            dirty_cells: self.dirty_cells.map(Arc::new),
            checks,
        });
        Ok(Joza {
            config: self.config,
            nti,
            store,
            shared_query_cache,
            shards: (0..shard_count).map(|_| OnceLock::new()).collect(),
            stats_cells: (0..shard_count).map(|_| StatsCell::default()).collect(),
            fragment_count,
            known_routes: self.known_routes,
            deployment: RwLock::new(deployment),
            next_generation: AtomicU64::new(0),
        })
    }

    /// Builds the engine.
    ///
    /// # Panics
    ///
    /// Panics on the configurations [`JozaBuilder::try_build`] rejects.
    pub fn build(self) -> Joza {
        self.try_build().expect("invalid Joza configuration")
    }
}

/// One query in a [`JozaSession::check_batch`] call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryCheck {
    /// The SQL to check.
    pub query: String,
    /// Extra raw input values scoped to this query alone, checked in
    /// addition to the session's captured inputs (empty for the common
    /// case where the whole batch shares one request's inputs).
    pub inputs: Vec<String>,
}

impl QueryCheck {
    /// A batch entry checking `query` against the session's inputs.
    pub fn new(query: impl Into<String>) -> Self {
        QueryCheck { query: query.into(), inputs: Vec::new() }
    }

    /// Adds a raw input value scoped to this query alone.
    #[must_use]
    pub fn with_input(mut self, value: impl Into<String>) -> Self {
        self.inputs.push(value.into());
        self
    }
}

/// The unified analysis session: collected inputs + query checks, scoped
/// to an optional route.
///
/// One type serves every integration level. Library callers open it with
/// [`Joza::session`] / [`Joza::session_for`] and read full [`Verdict`]s
/// from [`JozaSession::check`] or [`JozaSession::check_batch`]; the
/// [`GateFactory`] impl on [`Joza`] boxes the same type as a
/// [`GateSession`] (whose trait `check` collapses the verdict to a
/// [`GateDecision`] under the engine's recovery policy) for
/// `joza_webapp::Server::handle_with`.
///
/// The session pins the [`Joza::deploy`] release current when it was
/// opened: every check of one session — and so every query of one
/// request — is served by a single consistent model generation, visible
/// as [`StageTrace::generation`] on its verdicts.
#[derive(Debug)]
pub struct JozaSession<'a> {
    joza: &'a Joza,
    dep: Arc<Deployment>,
    route: Option<String>,
    model: Option<Arc<RouteModel>>,
    inputs: Vec<(String, String)>,
}

impl JozaSession<'_> {
    /// Captures one raw input (the preprocessing step, §IV-B).
    pub fn capture_input(&mut self, name: &str, value: &str) {
        self.inputs.push((name.to_string(), value.to_string()));
    }

    /// Clears captured inputs (start of a new request).
    pub fn reset(&mut self) {
        self.inputs.clear();
    }

    /// Whether the pinned deployment marks the stored cell
    /// `(table, column)` dirty — attacker-reachable by write, so fetched
    /// values must be treated as taint sources. Honors `"*"` wildcards in
    /// the deployed set.
    pub fn is_dirty_cell(&self, table: &str, column: &str) -> bool {
        let Some(cells) = self.dep.dirty_cells.as_deref() else {
            return false;
        };
        let t = table.to_ascii_lowercase();
        let c = column.to_ascii_lowercase();
        cells.contains(&(t.clone(), c))
            || cells.contains(&(t, "*".to_string()))
            || cells.contains(&("*".to_string(), "*".to_string()))
    }

    /// Captures one value fetched from a dirty cell as a DB-sourced
    /// input (named `db:table.column`): subsequent checks of this session
    /// match it exactly like a raw request input, which is what turns a
    /// stored (second-order) payload back into a detectable one at the
    /// trigger query.
    pub fn capture_db_input(&mut self, table: &str, column: &str, value: &str) {
        self.inputs.push((format!("db:{table}.{column}"), value.to_string()));
    }

    /// The deployment generation this session is pinned to.
    pub fn generation(&self) -> u64 {
        self.dep.generation
    }

    /// Checks a query against the captured inputs (and the session's
    /// route context, for sessions opened with [`Joza::session_for`]).
    pub fn check(&self, query: &str) -> Verdict {
        let refs: Vec<&str> = self.inputs.iter().map(|(_, v)| v.as_str()).collect();
        self.joza.check_on(&self.dep, self.route.as_deref(), self.model.as_deref(), &refs, query)
    }

    /// Checks a batch of queries in order, returning one [`Verdict`] per
    /// entry — bit-identical to calling [`JozaSession::check`] per query.
    ///
    /// The batch amortizes the per-check serving overhead: the input-ref
    /// vector is built once, the route's model handle and deployment are
    /// the session's pinned ones (no per-query lookup), and statistics
    /// for the whole batch are accumulated in one local delta and flushed
    /// into the worker's stats cell once at the end instead of per query.
    pub fn check_batch(&self, checks: &[QueryCheck]) -> Vec<Verdict> {
        let base: Vec<&str> = self.inputs.iter().map(|(_, v)| v.as_str()).collect();
        let mut delta = JozaStats::default();
        let mut verdicts = Vec::with_capacity(checks.len());
        let mut refs = Vec::with_capacity(base.len() + 2);
        for qc in checks {
            let inputs: &[&str] = if qc.inputs.is_empty() {
                &base
            } else {
                refs.clear();
                refs.extend_from_slice(&base);
                refs.extend(qc.inputs.iter().map(String::as_str));
                &refs
            };
            verdicts.push(self.joza.check_in(
                &self.dep,
                self.route.as_deref(),
                self.model.as_deref(),
                inputs,
                &qc.query,
                &mut delta,
            ));
        }
        self.joza.stats_cell().add(&delta);
        verdicts
    }
}

impl GateSession for JozaSession<'_> {
    fn check(&mut self, sql: &str) -> GateDecision {
        let verdict = JozaSession::check(self, sql);
        self.joza.decide(&verdict)
    }

    fn check_batch(&mut self, sqls: &[String]) -> Vec<GateDecision> {
        let checks: Vec<QueryCheck> = sqls.iter().map(QueryCheck::new).collect();
        JozaSession::check_batch(self, &checks).iter().map(|v| self.joza.decide(v)).collect()
    }

    fn dirty_cell(&self, table: &str, column: &str) -> bool {
        self.is_dirty_cell(table, column)
    }

    fn capture_db_input(&mut self, table: &str, column: &str, value: &str) {
        JozaSession::capture_db_input(self, table, column, value);
    }
}

impl GateFactory for Joza {
    fn session<'a>(&'a self, route: &str, inputs: &[RawInput]) -> Box<dyn GateSession + 'a> {
        // Per-request PTI lifecycle (daemon spawn in PerRequest mode) on
        // the calling worker's shard.
        self.shard().lock().begin_request();
        let mut session = self.session_for(route);
        for input in inputs {
            session.capture_input(&input.name, &input.value);
        }
        Box::new(session)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const FRAGS: &[&str] = &["id", "SELECT * FROM records WHERE ID=", " LIMIT 5"];

    fn joza() -> Joza {
        Joza::builder().fragments(FRAGS).config(JozaConfig::optimized()).build()
    }

    #[test]
    fn benign_query_safe() {
        let j = joza();
        let v = j.check_query(&["42"], "SELECT * FROM records WHERE ID=42 LIMIT 5");
        assert!(v.is_safe());
        assert_eq!(v.detector(), None);
        assert_eq!(j.stats().queries, 1);
        assert_eq!(j.stats().attacks, 0);
    }

    #[test]
    fn obvious_attack_caught_by_both() {
        let j = joza();
        let payload = "-1 UNION SELECT username()";
        let q = format!("SELECT * FROM records WHERE ID={payload} LIMIT 5");
        let v = j.check_query(&[payload], &q);
        assert!(!v.is_safe());
        assert_eq!(v.detector(), Some(Detector::Both));
        assert_eq!(v.trace().status(StageId::Nti), StageStatus::Fired);
        assert_eq!(v.trace().status(StageId::Pti), StageStatus::Fired);
    }

    #[test]
    fn nti_evasion_caught_by_pti() {
        // Quote-stuffed comment block: NTI's difference ratio blows past
        // the threshold, but the comment is not a program fragment.
        let payload_input = "-1 OR/*''''''''''*/1=1";
        let payload_in_query = payload_input.replace('\'', "\\'");
        let q = format!("SELECT * FROM records WHERE ID={payload_in_query} LIMIT 5");
        let v = joza().check_query(&[payload_input], &q);
        assert_eq!(v.nti_attack(), Some(false), "NTI must be evaded: {v:?}");
        assert_eq!(v.pti_attack(), Some(true), "PTI must catch it");
        assert!(!v.is_safe());
        assert_eq!(v.detector(), Some(Detector::Pti));
    }

    #[test]
    fn pti_evasion_caught_by_nti() {
        // The application's vocabulary happens to contain OR and = — PTI
        // misses the tautology, NTI sees it verbatim in the query.
        let j = Joza::builder()
            .fragments(["id", "SELECT * FROM records WHERE ID=", " LIMIT 5", "OR", "=", "1"])
            .config(JozaConfig::optimized())
            .build();
        let payload = "1 OR 1 = 1";
        let q = format!("SELECT * FROM records WHERE ID={payload} LIMIT 5");
        let v = j.check_query(&[payload], &q);
        assert_eq!(v.pti_attack(), Some(false), "PTI must be evaded: {v:?}");
        assert_eq!(v.nti_attack(), Some(true), "NTI must catch it");
        assert!(!v.is_safe());
        assert_eq!(v.detector(), Some(Detector::Nti));
    }

    #[test]
    fn ablation_configs() {
        let nti_only = Joza::builder().fragments(FRAGS).config(JozaConfig::nti_only()).build();
        let v = nti_only.check_query(&["42"], "SELECT * FROM records WHERE ID=42 LIMIT 5");
        assert!(v.pti_attack().is_none());
        assert!(v.nti_attack().is_some());
        assert!(!v.trace().ran(StageId::Pti), "disabled PTI stage must stay Skipped");

        let pti_only = Joza::builder().fragments(FRAGS).config(JozaConfig::pti_only()).build();
        let v = pti_only.check_query(&["42"], "SELECT * FROM records WHERE ID=42 LIMIT 5");
        assert!(v.nti_attack().is_none());
        assert!(v.pti_attack().is_some());
        assert!(!v.trace().ran(StageId::Nti), "disabled NTI stage must stay Skipped");
    }

    #[test]
    fn try_build_rejects_all_disabled() {
        let err = Joza::builder()
            .fragments(FRAGS)
            .config(JozaConfig { disable_nti: true, disable_pti: true, ..JozaConfig::optimized() })
            .try_build()
            .unwrap_err();
        assert_eq!(err, JozaBuildError::AllDetectorsDisabled);
        assert!(err.to_string().contains("disabled"));
    }

    #[test]
    fn try_build_rejects_empty_pti_vocabulary() {
        let err = Joza::builder().config(JozaConfig::optimized()).try_build().unwrap_err();
        assert_eq!(err, JozaBuildError::EmptyPtiVocabulary);
        // NTI-only with no fragments is fine: PTI never consults them.
        assert!(Joza::builder().config(JozaConfig::nti_only()).try_build().is_ok());
    }

    #[test]
    #[should_panic(expected = "invalid Joza configuration")]
    fn build_panics_on_invalid_config() {
        let _ = Joza::builder().config(JozaConfig::optimized()).build();
    }

    #[test]
    fn session_capture_flow() {
        let j = joza();
        let mut s = j.session();
        s.capture_input("id", "-1 UNION SELECT username()");
        let v = s.check("SELECT * FROM records WHERE ID=-1 UNION SELECT username() LIMIT 5");
        assert!(!v.is_safe());
        s.reset();
        s.capture_input("id", "5");
        assert!(s.check("SELECT * FROM records WHERE ID=5 LIMIT 5").is_safe());
    }

    #[test]
    fn stats_accumulate() {
        let j = joza();
        j.check_query(&["5"], "SELECT * FROM records WHERE ID=5 LIMIT 5");
        let p = "-1 UNION SELECT username()";
        j.check_query(&[p], &format!("SELECT * FROM records WHERE ID={p} LIMIT 5"));
        let st = j.stats();
        assert_eq!(st.queries, 2);
        assert_eq!(st.attacks, 1);
        assert!(st.nti_detections >= 1);
        assert!(st.pti_detections >= 1);
        assert_eq!(st.full_checks, 2);
        assert_eq!(st.stage_runs[StageId::Nti.index()], 2);
        assert_eq!(st.stage_hits[StageId::Nti.index()], 1);
    }

    #[test]
    fn path_counters_partition_checks() {
        let j = joza_with_models(JozaConfig::optimized());
        let mut s = j.session_for("records");
        s.capture_input("id", "42");
        s.check("SELECT * FROM records WHERE ID=42 LIMIT 5"); // model fast path
        s.check("SELECT * FROM records WHERE ID=42"); // dynamic (skeleton mismatch)
        j.check_query(&["1"], "SELECT * FROM records WHERE ID=1 LIMIT 5"); // dynamic
        let st = j.stats();
        assert_eq!(st.model_fast_hits + st.static_hits + st.full_checks, st.queries);
        assert_eq!((st.model_fast_hits, st.static_hits, st.full_checks), (1, 0, 2));
    }

    #[test]
    fn stats_aggregate_across_worker_shards() {
        let j = Arc::new(
            Joza::builder()
                .fragments(FRAGS)
                .config(JozaConfig { shards: 4, ..JozaConfig::optimized() })
                .build(),
        );
        assert_eq!(j.shard_count(), 4);
        let threads: Vec<_> = (0..4)
            .map(|t| {
                let j = Arc::clone(&j);
                std::thread::spawn(move || {
                    for i in 0..10 {
                        let id = t * 100 + i;
                        let q = format!("SELECT * FROM records WHERE ID={id} LIMIT 5");
                        assert!(j.check_query(&[&id.to_string()], &q).is_safe());
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().expect("worker panicked");
        }
        let st = j.stats();
        assert_eq!(st.queries, 40);
        assert_eq!(st.attacks, 0);
        assert_eq!(st.full_checks, 40);
    }

    #[test]
    fn shared_query_cache_reported() {
        let j = joza();
        j.check_query(&["5"], "SELECT * FROM records WHERE ID=5 LIMIT 5");
        j.check_query(&["5"], "SELECT * FROM records WHERE ID=5 LIMIT 5");
        let cs = j.query_cache_stats();
        assert_eq!(cs.hits, 1);
        assert_eq!(cs.inserts, 1);
    }

    #[test]
    fn installer_extracts_from_webapp() {
        use joza_webapp::app::Plugin;
        let mut app = WebApp::new("t");
        app.add_core_source(r#"$q = "SELECT option_value FROM wp_options WHERE option_name='";"#);
        app.add_plugin(Plugin::new(
            "p",
            "1.0",
            r#"$q = "SELECT * FROM data WHERE ID=" . $_GET['id']; mysql_query($q);"#,
        ));
        let j = Joza::install(&app, JozaConfig::optimized());
        assert!(j.fragment_count() >= 3);
        let v = j.check_query(&["7"], "SELECT * FROM data WHERE ID=7");
        assert!(v.is_safe(), "{v:?}");
    }

    fn demo_models() -> QueryModelIndex {
        use joza_sqlparse::template::{QueryTemplate, TemplatePart};
        let t = QueryTemplate {
            parts: vec![
                TemplatePart::Lit("SELECT * FROM records WHERE ID=".to_string()),
                TemplatePart::Hole,
                TemplatePart::Lit(" LIMIT 5".to_string()),
            ],
        };
        let mut ix = QueryModelIndex::new();
        ix.insert("records", RouteModel::build(&[Some(vec![t])]));
        ix
    }

    fn joza_with_models(config: JozaConfig) -> Joza {
        Joza::builder().fragments(FRAGS).config(config).query_models(demo_models()).build()
    }

    #[test]
    fn model_fast_path_skips_dynamic_detectors() {
        let j = joza_with_models(JozaConfig::optimized());
        let mut s = j.session_for("records");
        s.capture_input("id", "42");
        let v = s.check("SELECT * FROM records WHERE ID=42 LIMIT 5");
        assert!(v.is_safe());
        assert_eq!(v.path(), CheckPath::ModelFastPath);
        assert_eq!(v.nti_attack(), None, "NTI must be skipped on the fast path");
        assert_eq!(v.pti_attack(), None, "PTI must be skipped on the fast path");
        assert_eq!(v.trace().status(StageId::ModelFastPath), StageStatus::ShortCircuited);
        assert!(!v.trace().ran(StageId::Nti));
        assert!(!v.trace().ran(StageId::Pti));
        assert_eq!(j.stats().model_fast_hits, 1);
        assert_eq!(j.stats().queries, 1);
    }

    #[test]
    fn model_mismatch_still_runs_dynamic_path_and_detects() {
        let j = joza_with_models(JozaConfig::optimized());
        let mut s = j.session_for("records");
        let payload = "-1 UNION SELECT username()";
        s.capture_input("id", payload);
        let v = s.check(&format!("SELECT * FROM records WHERE ID={payload} LIMIT 5"));
        assert!(!v.is_safe());
        assert_eq!(v.path(), CheckPath::Dynamic);
        assert!(v.structural_anomaly(), "complete model must flag the deformed skeleton");
        assert_eq!(v.detector(), Some(Detector::Both));
        assert_eq!(v.trace().status(StageId::ModelFastPath), StageStatus::Passed);
        assert_eq!(v.trace().status(StageId::Structural), StageStatus::Fired);
        assert_eq!(j.stats().model_fast_hits, 0);
        assert_eq!(j.stats().model_anomalies, 1);
    }

    #[test]
    fn structural_anomaly_fuses_without_blocking_by_default() {
        let j = joza_with_models(JozaConfig::optimized());
        // A query shape the app never emits, built only from benign
        // vocabulary: NTI/PTI pass, the model does not.
        let s = j.session_for("records");
        let v = s.check("SELECT * FROM records WHERE ID=1");
        assert!(v.is_safe(), "anomaly alone must not block by default: {v:?}");
        assert!(v.structural_anomaly());
        assert_eq!(j.stats().model_anomalies, 1);
    }

    #[test]
    fn structural_anomaly_blocks_when_configured() {
        let j = joza_with_models(JozaConfig {
            block_on_structural_anomaly: true,
            ..JozaConfig::optimized()
        });
        let s = j.session_for("records");
        let v = s.check("SELECT * FROM records WHERE ID=1");
        assert!(!v.is_safe());
        assert_eq!(v.detector(), Some(Detector::Structural));
        assert_eq!(j.stats().attacks, 1);
    }

    #[test]
    fn incomplete_model_never_signals_anomaly() {
        use joza_sqlparse::template::QueryTemplate;
        let mut ix = QueryModelIndex::new();
        // One modeled site, one ⊤ site: the route model is incomplete.
        ix.insert("r", RouteModel::build(&[Some(vec![QueryTemplate::lit("SELECT 1")]), None]));
        let j = Joza::builder()
            .fragments(FRAGS)
            .config(JozaConfig::optimized())
            .query_models(ix)
            .build();
        let s = j.session_for("r");
        let v = s.check("SELECT * FROM records WHERE ID=1 LIMIT 5");
        assert!(v.is_safe());
        assert!(!v.structural_anomaly());
        assert_eq!(v.path(), CheckPath::Dynamic);
        // The compiled branch still fast-paths.
        assert_eq!(s.check("SELECT 1").path(), CheckPath::ModelFastPath);
    }

    #[test]
    fn unmodeled_route_is_fully_dynamic() {
        let j = joza_with_models(JozaConfig::optimized());
        let s = j.session_for("other-route");
        let v = s.check("SELECT * FROM records WHERE ID=1 LIMIT 5");
        assert!(v.is_safe());
        assert_eq!(v.path(), CheckPath::Dynamic);
        assert!(!v.structural_anomaly());
        assert!(j.query_models().is_some());
        assert!(j.model_for("other-route").is_none());
    }

    #[test]
    fn unknown_route_records_route_miss_and_falls_back_to_dynamic() {
        let j = joza_with_models(JozaConfig::optimized());
        let v = j.check_query_on_route(
            "no-such-route",
            &["1"],
            "SELECT * FROM records WHERE ID=1 LIMIT 5",
        );
        // Fallback-to-dynamic pinned: both detectors actually ran.
        assert!(v.is_safe());
        assert_eq!(v.path(), CheckPath::Dynamic);
        assert_eq!(v.nti_attack(), Some(false));
        assert_eq!(v.pti_attack(), Some(false));
        assert_eq!(j.stats().route_misses_unknown, 1);
        assert_eq!(j.stats().route_misses_incomplete, 0);

        // A known, completely-modeled route is no kind of miss, whether
        // it fast-paths or not.
        j.check_query_on_route("records", &["1"], "SELECT * FROM records WHERE ID=1 LIMIT 5");
        assert_eq!(j.stats().route_misses_unknown, 1);
        assert_eq!(j.stats().route_misses_incomplete, 0);

        // A route-less check is never a miss.
        j.check_query(&["1"], "SELECT * FROM records WHERE ID=1 LIMIT 5");
        assert_eq!(j.stats().route_misses_unknown, 1);

        // An engine without models never counts misses: there is no index
        // the route could be missing from.
        let plain = joza();
        plain.check_query_on_route("whatever", &["1"], "SELECT 1");
        assert_eq!(plain.stats().route_misses_unknown, 0);
        assert_eq!(plain.stats().route_misses_incomplete, 0);
    }

    #[test]
    fn incomplete_model_route_counts_its_own_miss_kind() {
        use joza_sqlparse::template::{QueryTemplate, TemplatePart};
        let t = QueryTemplate {
            parts: vec![
                TemplatePart::Lit("SELECT * FROM records WHERE ID=".to_string()),
                TemplatePart::Hole,
                TemplatePart::Lit(" LIMIT 5".to_string()),
            ],
        };
        let mut ix = QueryModelIndex::new();
        // One modeled site plus one ⊤ site: the route is *known* to the
        // index, but its model is incomplete.
        ix.insert("half-modeled", RouteModel::build(&[Some(vec![t]), None]));
        let j = Joza::builder()
            .fragments(FRAGS)
            .config(JozaConfig::optimized())
            .query_models(ix)
            .build();

        j.check_query_on_route("half-modeled", &["1"], "SELECT name FROM other WHERE x=1");
        assert_eq!(j.stats().route_misses_unknown, 0);
        assert_eq!(j.stats().route_misses_incomplete, 1);

        // A query the incomplete model still matches rides the fast path
        // and is not a miss of either kind.
        let v = j.check_query_on_route(
            "half-modeled",
            &["1"],
            "SELECT * FROM records WHERE ID=1 LIMIT 5",
        );
        assert_eq!(v.path(), CheckPath::ModelFastPath);
        assert_eq!(j.stats().route_misses_unknown, 0);
        assert_eq!(j.stats().route_misses_incomplete, 1);

        // The taint-free set overrides: a statically-proven route is
        // covered however incomplete its model is.
        let mut ix2 = QueryModelIndex::new();
        ix2.insert("proven", RouteModel::build(&[None]));
        let proven = Joza::builder()
            .fragments(FRAGS)
            .config(JozaConfig::optimized())
            .query_models(ix2)
            .taint_free_routes(["proven"])
            .build();
        proven.check_query_on_route("proven", &["1"], "SELECT 1");
        assert_eq!(proven.stats().route_misses_unknown, 0);
        assert_eq!(proven.stats().route_misses_incomplete, 0);
    }

    #[test]
    fn static_fast_path_short_circuits_everything() {
        let j = Joza::builder()
            .fragments(FRAGS)
            .config(JozaConfig::optimized())
            .taint_free_routes(["clean-route"])
            .build();
        let payload = "-1 UNION SELECT username()";
        let q = format!("SELECT * FROM records WHERE ID={payload} LIMIT 5");
        let v = j.check_query_on_route("clean-route", &[payload], &q);
        assert!(v.is_safe(), "a proven-taint-free route skips all detection");
        assert_eq!(v.path(), CheckPath::StaticFastPath);
        assert_eq!(v.trace().status(StageId::StaticFastPath), StageStatus::ShortCircuited);
        assert!(!v.trace().ran(StageId::Nti));
        assert!(!v.trace().ran(StageId::Pti));
        assert_eq!(j.stats().static_hits, 1);

        // Other routes pass the whitelist stage and run the detectors.
        let v = j.check_query_on_route("dirty-route", &[payload], &q);
        assert!(!v.is_safe());
        assert_eq!(v.trace().status(StageId::StaticFastPath), StageStatus::Passed);
        let st = j.stats();
        assert_eq!(st.model_fast_hits + st.static_hits + st.full_checks, st.queries);
    }

    #[test]
    fn factory_session_uses_route_models() {
        let j = joza_with_models(JozaConfig::optimized());
        let input = RawInput {
            source: joza_webapp::request::InputSource::Get,
            name: "id".to_string(),
            value: "7".to_string(),
        };
        let mut s = GateFactory::session(&j, "records", std::slice::from_ref(&input));
        assert_eq!(s.check("SELECT * FROM records WHERE ID=7 LIMIT 5"), GateDecision::Allow);
        drop(s);
        assert_eq!(j.stats().model_fast_hits, 1);

        // Attacks never ride the fast path.
        let mut s = GateFactory::session(&j, "records", &[]);
        assert_eq!(
            s.check("SELECT * FROM records WHERE ID=-1 UNION SELECT 1 LIMIT 5"),
            GateDecision::Terminate
        );
        assert_eq!(j.stats().model_fast_hits, 1);
    }

    #[test]
    fn known_routes_validation() {
        // A model route outside the declared app routes is a build error,
        // not a silent runtime route_misses_unknown.
        let mut ix = demo_models();
        ix.insert("ghost-route", RouteModel::build(&[Some(vec![])]));
        let err = Joza::builder()
            .fragments(FRAGS)
            .config(JozaConfig::optimized())
            .known_routes(["records"])
            .query_models(ix.clone())
            .try_build()
            .map(|_| ())
            .unwrap_err();
        assert_eq!(err, JozaBuildError::UnknownModelRoute("ghost-route".to_string()));
        assert!(err.to_string().contains("ghost-route"));

        // The same index builds fine when every modeled route is known…
        assert!(Joza::builder()
            .fragments(FRAGS)
            .config(JozaConfig::optimized())
            .known_routes(["records", "ghost-route"])
            .query_models(ix.clone())
            .try_build()
            .is_ok());

        // …and without known_routes no validation happens (builder-only
        // callers keep their synthetic-route tests).
        assert!(Joza::builder()
            .fragments(FRAGS)
            .config(JozaConfig::optimized())
            .query_models(ix.clone())
            .try_build()
            .is_ok());

        // deploy() enforces the same oracle.
        let j = Joza::builder()
            .fragments(FRAGS)
            .config(JozaConfig::optimized())
            .known_routes(["records"])
            .build();
        let err = j.deploy(ModelUpdate::new().query_models(ix)).unwrap_err();
        assert_eq!(err, JozaBuildError::UnknownModelRoute("ghost-route".to_string()));
        assert_eq!(j.generation(), 0, "a rejected deploy must not mint a generation");
    }

    #[test]
    fn deploy_hot_swaps_models_and_stamps_generations() {
        let j = Joza::builder().fragments(FRAGS).config(JozaConfig::optimized()).build();
        assert_eq!(j.generation(), 0);
        let q = "SELECT * FROM records WHERE ID=42 LIMIT 5";

        // Generation 0: no models, fully dynamic.
        let v0 = j.check_query_on_route("records", &["42"], q);
        assert_eq!(v0.path(), CheckPath::Dynamic);
        assert_eq!(v0.trace().generation(), 0);

        // Deploy the model index: the same check now rides the fast path
        // and its verdict carries the new generation.
        let generation = j.deploy(ModelUpdate::new().query_models(demo_models())).unwrap();
        assert_eq!(generation, 1);
        assert_eq!(j.generation(), 1);
        let v1 = j.check_query_on_route("records", &["42"], q);
        assert_eq!(v1.path(), CheckPath::ModelFastPath);
        assert_eq!(v1.trace().generation(), 1);
        assert!(j.model_for("records").is_some());

        // Roll back: clear the models again.
        assert_eq!(j.deploy(ModelUpdate::new().clear_query_models()).unwrap(), 2);
        let v2 = j.check_query_on_route("records", &["42"], q);
        assert_eq!(v2.path(), CheckPath::Dynamic);
        assert_eq!(v2.trace().generation(), 2);
        assert!(j.model_for("records").is_none());

        // Counters stayed drift-free across the swaps.
        let st = j.stats();
        assert_eq!(st.model_fast_hits + st.static_hits + st.full_checks, st.queries);
        assert_eq!((st.queries, st.model_fast_hits), (3, 1));
    }

    #[test]
    fn deploy_taint_free_whitelist_under_live_sessions() {
        let j = joza();
        // Session opened before the deploy pins the old release.
        let pinned = j.session_for("clean-route");
        assert_eq!(pinned.generation(), 0);

        let generation = j.deploy(ModelUpdate::new().taint_free_routes(["clean-route"])).unwrap();
        assert_eq!(generation, 1);

        // The pinned session still runs the dynamic pipeline…
        let v = pinned.check("SELECT * FROM records WHERE ID=1 LIMIT 5");
        assert_eq!(v.path(), CheckPath::Dynamic);
        assert_eq!(v.trace().generation(), 0);

        // …while a fresh session sees the whitelist.
        let fresh = j.session_for("clean-route");
        assert_eq!(fresh.generation(), 1);
        let v = fresh.check("SELECT * FROM records WHERE ID=1 LIMIT 5");
        assert_eq!(v.path(), CheckPath::StaticFastPath);
        assert_eq!(v.trace().generation(), 1);

        // Rollback restores dynamic checking for new sessions.
        assert_eq!(j.deploy(ModelUpdate::new().clear_taint_free_routes()).unwrap(), 2);
        let v = j.session_for("clean-route").check("SELECT 1");
        assert_eq!(v.path(), CheckPath::Dynamic);
    }

    #[test]
    fn check_batch_matches_sequential_checks_bit_for_bit() {
        let j = joza_with_models(JozaConfig::optimized());
        let k = joza_with_models(JozaConfig::optimized());
        let queries = [
            "SELECT * FROM records WHERE ID=42 LIMIT 5", // model fast path
            "SELECT * FROM records WHERE ID=42",         // dynamic, anomaly
            "SELECT * FROM records WHERE ID=-1 UNION SELECT 1 LIMIT 5", // attack
        ];

        let mut s = j.session_for("records");
        s.capture_input("id", "42");
        let batch: Vec<QueryCheck> = queries.iter().map(|q| QueryCheck::new(*q)).collect();
        let batched = s.check_batch(&batch);

        let mut s2 = k.session_for("records");
        s2.capture_input("id", "42");
        let sequential: Vec<Verdict> = queries.iter().map(|q| s2.check(q)).collect();

        assert_eq!(batched, sequential, "batch and per-query verdicts must be bit-identical");
        // Wall-clock counters naturally differ run to run; every logical
        // counter must not.
        let strip_times = |mut st: JozaStats| {
            st.nti_time = Duration::ZERO;
            st.pti_time = Duration::ZERO;
            st.stage_ns = [0; STAGE_COUNT];
            st
        };
        assert_eq!(
            strip_times(j.stats()),
            strip_times(k.stats()),
            "one batch flush must equal per-check flushes"
        );
        let st = j.stats();
        assert_eq!(st.model_fast_hits + st.static_hits + st.full_checks, st.queries);
        assert_eq!(st.queries, 3);
        assert_eq!(st.attacks, 1);
    }

    #[test]
    fn check_batch_per_query_inputs() {
        let j = joza();
        let s = j.session();
        let payload = "-1 UNION SELECT username()";
        let verdicts = s.check_batch(&[
            QueryCheck::new("SELECT * FROM records WHERE ID=7 LIMIT 5").with_input("7"),
            QueryCheck::new(format!("SELECT * FROM records WHERE ID={payload} LIMIT 5"))
                .with_input(payload),
        ]);
        assert!(verdicts[0].is_safe());
        assert!(!verdicts[1].is_safe());
        assert_eq!(j.stats().queries, 2);
        assert_eq!(j.stats().attacks, 1);
    }

    #[test]
    fn installer_validates_model_routes_against_app() {
        use joza_webapp::app::Plugin;
        let mut app = WebApp::new("t");
        app.add_plugin(Plugin::new("real-route", "1.0", r#"$q = "SELECT 1"; mysql_query($q);"#));

        let mut ix = QueryModelIndex::new();
        ix.insert("imaginary", RouteModel::build(&[Some(vec![])]));
        let err = Joza::installer(&app, JozaConfig::optimized())
            .query_models(ix)
            .try_build()
            .map(|_| ())
            .unwrap_err();
        assert_eq!(err, JozaBuildError::UnknownModelRoute("imaginary".to_string()));

        let mut ok = QueryModelIndex::new();
        ok.insert("real-route", RouteModel::build(&[Some(vec![])]));
        assert!(Joza::installer(&app, JozaConfig::optimized())
            .query_models(ok)
            .try_build()
            .is_ok());
    }

    #[test]
    fn factory_session_enforces_recovery_policy() {
        let j = joza();
        let attack = RawInput {
            source: joza_webapp::request::InputSource::Get,
            name: "id".to_string(),
            value: "-1 UNION SELECT 1".to_string(),
        };
        let mut s = GateFactory::session(&j, "route", std::slice::from_ref(&attack));
        assert_eq!(s.check("SELECT * FROM records WHERE ID=1 LIMIT 5"), GateDecision::Allow);
        assert_eq!(
            s.check("SELECT * FROM records WHERE ID=-1 UNION SELECT 1 LIMIT 5"),
            GateDecision::Terminate
        );
        drop(s);
        assert_eq!(j.stats().queries, 2);
        assert_eq!(j.stats().attacks, 1);

        let j2 = Joza::builder()
            .fragments(FRAGS)
            .config(JozaConfig {
                recovery: RecoveryPolicy::ErrorVirtualization,
                ..JozaConfig::optimized()
            })
            .build();
        let mut s = GateFactory::session(&j2, "route", &[]);
        assert_eq!(
            s.check("SELECT * FROM records WHERE ID=-1 UNION SELECT 1 LIMIT 5"),
            GateDecision::ErrorVirtualize
        );
    }
}
