//! The staged check pipeline (DESIGN.md §9).
//!
//! Every query checked by the engine runs through one fixed sequence of
//! `CheckStage`s assembled at build time from the [`JozaConfig`]:
//!
//! 1. **Static fast path** — the route was proven taint-free by the static
//!    analyzer: allow without further work.
//! 2. **Model fast path** — the route's static query model accepts the
//!    query skeleton: allow without running the dynamic detectors.
//! 3. **NTI** — negative taint inference over the captured raw inputs
//!    (pure over shared state; runs outside any lock).
//! 4. **PTI** — positive taint inference on the calling worker's shard.
//! 5. **Structural** — record the structural-anomaly signal when a
//!    *complete* model rejected the skeleton.
//!
//! A stage either lets the query continue or **short-circuits safe**; the
//! dynamic detectors never short-circuit each other (both verdicts are
//! needed for [`Detector::Both`] fusion). Each stage records its outcome in
//! the verdict's [`StageTrace`] — the uniform provenance that replaces the
//! old ad-hoc `CheckPath` plumbing — and its wall-clock cost in the
//! per-stage `stage_ns` breakdown.
//!
//! [`JozaConfig`]: crate::JozaConfig
//! [`Detector::Both`]: crate::Detector::Both

use crate::artifacts::QueryArtifacts;
use crate::{Joza, RouteModel};
use joza_pti::daemon::{DaemonMode, PreparedSql};
use std::time::Instant;

/// Number of pipeline stages (the length of every per-stage array).
pub const STAGE_COUNT: usize = 5;

/// Identity of one pipeline stage, in execution order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StageId {
    /// Route proven taint-free by static analysis.
    StaticFastPath = 0,
    /// Static query model accepted the skeleton.
    ModelFastPath = 1,
    /// Negative taint inference.
    Nti = 2,
    /// Positive taint inference.
    Pti = 3,
    /// Structural-anomaly signal from a complete model.
    Structural = 4,
}

impl StageId {
    /// All stages, in execution order.
    pub const ALL: [StageId; STAGE_COUNT] = [
        StageId::StaticFastPath,
        StageId::ModelFastPath,
        StageId::Nti,
        StageId::Pti,
        StageId::Structural,
    ];

    /// The stage's index into per-stage arrays.
    pub fn index(self) -> usize {
        self as usize
    }

    /// A stable snake_case name (used as the bench-report key).
    pub fn name(self) -> &'static str {
        match self {
            StageId::StaticFastPath => "static_fast_path",
            StageId::ModelFastPath => "model_fast_path",
            StageId::Nti => "nti",
            StageId::Pti => "pti",
            StageId::Structural => "structural",
        }
    }
}

/// What one stage did for one query.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum StageStatus {
    /// The stage did not run: it was not assembled into the pipeline, its
    /// precondition was absent (no model for the route), or an earlier
    /// stage short-circuited the check.
    #[default]
    Skipped,
    /// The stage ran and passed the query onward.
    Passed,
    /// The stage ran and answered *safe* for the whole check; later
    /// stages were skipped.
    ShortCircuited,
    /// The stage ran and raised its signal (a detector flagged an attack,
    /// or the structural stage flagged an anomaly).
    Fired,
}

/// Per-stage provenance of one verdict: the status of every pipeline
/// stage for the checked query, plus the generation of the deployment
/// (model index + taint-free whitelist release) that served it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StageTrace {
    stages: [StageStatus; STAGE_COUNT],
    generation: u64,
}

impl StageTrace {
    /// The recorded status of `stage`.
    pub fn status(&self, stage: StageId) -> StageStatus {
        self.stages[stage.index()]
    }

    /// Whether `stage` ran at all for this query.
    pub fn ran(&self, stage: StageId) -> bool {
        self.status(stage) != StageStatus::Skipped
    }

    /// The deployment generation this query was checked under: `0` for
    /// the engine as built, incremented by every successful
    /// `Joza::deploy`. Part of the verdict's provenance — it answers
    /// "*which* model release produced this verdict" under live
    /// hot-swapping.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    pub(crate) fn for_generation(generation: u64) -> StageTrace {
        StageTrace { generation, ..StageTrace::default() }
    }

    pub(crate) fn set(&mut self, stage: StageId, status: StageStatus) {
        self.stages[stage.index()] = status;
    }
}

/// Flow control returned by a stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum StageOutcome {
    /// Continue with the next stage.
    Continue,
    /// The query is safe; skip the remaining stages.
    ShortCircuitSafe,
}

/// Mutable context threaded through the stages of one check.
pub(crate) struct CheckCx<'a, 'q> {
    pub route: Option<&'a str>,
    pub model: Option<&'a RouteModel>,
    /// The taint-free whitelist of the deployment serving this check
    /// (stages must not read it off the engine: the engine's current
    /// deployment may already be newer than the session's pinned one).
    pub taint_free: Option<&'a std::collections::BTreeSet<String>>,
    pub inputs: &'a [&'a str],
    pub artifacts: &'a QueryArtifacts<'q>,
    /// The calling thread's check arena; stages lease scratch buffers
    /// (e.g. NTI's per-input fold buffer) from it.
    pub arena: &'a crate::arena::CheckArena,
    pub nti_attack: Option<bool>,
    pub pti_attack: Option<bool>,
    pub structural_anomaly: bool,
    pub trace: StageTrace,
    pub stage_ns: [u64; STAGE_COUNT],
}

/// One stage of the check pipeline.
pub(crate) trait CheckStage: Send + Sync {
    fn id(&self) -> StageId;
    fn run(&self, joza: &Joza, cx: &mut CheckCx<'_, '_>) -> StageOutcome;
}

/// The fixed stage sequence one engine drives for every checked query.
///
/// Assembled once by the builder: stages whose subsystem is disabled or
/// absent (no taint-free set, no models, `disable_nti`/`disable_pti`) are
/// left out entirely, so their trace slots stay [`StageStatus::Skipped`]
/// at zero runtime cost.
pub(crate) struct CheckPipeline {
    stages: Vec<Box<dyn CheckStage>>,
}

impl std::fmt::Debug for CheckPipeline {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let names: Vec<_> = self.stages.iter().map(|s| s.id().name()).collect();
        f.debug_struct("CheckPipeline").field("stages", &names).finish()
    }
}

impl CheckPipeline {
    /// Assembles the pipeline for a configuration.
    pub(crate) fn assemble(
        has_taint_free: bool,
        has_models: bool,
        disable_nti: bool,
        disable_pti: bool,
    ) -> Self {
        let mut stages: Vec<Box<dyn CheckStage>> = Vec::with_capacity(STAGE_COUNT);
        if has_taint_free {
            stages.push(Box::new(StaticFastPathStage));
        }
        if has_models {
            stages.push(Box::new(ModelFastPathStage));
        }
        if !disable_nti {
            stages.push(Box::new(NtiStage));
        }
        if !disable_pti {
            stages.push(Box::new(PtiStage));
        }
        if has_models {
            stages.push(Box::new(StructuralStage));
        }
        CheckPipeline { stages }
    }

    /// Runs every stage in order, timing each, until one short-circuits.
    pub(crate) fn run(&self, joza: &Joza, cx: &mut CheckCx<'_, '_>) {
        for stage in &self.stages {
            let t0 = Instant::now();
            let outcome = stage.run(joza, cx);
            cx.stage_ns[stage.id().index()] += t0.elapsed().as_nanos() as u64;
            if outcome == StageOutcome::ShortCircuitSafe {
                break;
            }
        }
    }
}

/// Stage 1: allow routes the static taint analyzer proved taint-free.
struct StaticFastPathStage;

impl CheckStage for StaticFastPathStage {
    fn id(&self) -> StageId {
        StageId::StaticFastPath
    }

    fn run(&self, _joza: &Joza, cx: &mut CheckCx<'_, '_>) -> StageOutcome {
        let Some(set) = cx.taint_free else {
            return StageOutcome::Continue;
        };
        if cx.route.is_some_and(|r| set.contains(r)) {
            cx.trace.set(StageId::StaticFastPath, StageStatus::ShortCircuited);
            StageOutcome::ShortCircuitSafe
        } else {
            cx.trace.set(StageId::StaticFastPath, StageStatus::Passed);
            StageOutcome::Continue
        }
    }
}

/// Stage 2: allow skeletons the route's static query model accepts.
///
/// A skeleton the automaton accepts confines every dynamic value to a
/// single data literal, so no token-level injection can be present — the
/// dynamic detectors are skipped entirely (see DESIGN.md §8 for the
/// soundness argument).
struct ModelFastPathStage;

impl CheckStage for ModelFastPathStage {
    fn id(&self) -> StageId {
        StageId::ModelFastPath
    }

    fn run(&self, _joza: &Joza, cx: &mut CheckCx<'_, '_>) -> StageOutcome {
        let Some(m) = cx.model else {
            return StageOutcome::Continue;
        };
        if m.accepts_syms(cx.artifacts.skeleton()) {
            cx.trace.set(StageId::ModelFastPath, StageStatus::ShortCircuited);
            StageOutcome::ShortCircuitSafe
        } else {
            cx.trace.set(StageId::ModelFastPath, StageStatus::Passed);
            StageOutcome::Continue
        }
    }
}

/// Stage 3: negative taint inference. Pure over shared engine state — no
/// lock is taken, so N workers run their edit-distance passes in parallel.
struct NtiStage;

impl CheckStage for NtiStage {
    fn id(&self) -> StageId {
        StageId::Nti
    }

    fn run(&self, joza: &Joza, cx: &mut CheckCx<'_, '_>) -> StageOutcome {
        let artifacts = cx.artifacts;
        let nti_cfg = &joza.config.nti;
        let criticals = || artifacts.criticals(&nti_cfg.critical);
        let view = joza_nti::QueryView {
            normalized: artifacts.normalized(nti_cfg.normalize_case),
            criticals: &criticals,
        };
        let mut fold = cx.arena.lease_input_fold();
        let report = joza.nti.analyze_view_with(cx.inputs, view, &mut fold);
        let attack = report.is_attack();
        cx.nti_attack = Some(attack);
        cx.trace.set(StageId::Nti, if attack { StageStatus::Fired } else { StageStatus::Passed });
        StageOutcome::Continue
    }
}

/// Stage 4: positive taint inference on the calling worker's shard. The
/// shard lock is held only for the PTI call itself.
struct PtiStage;

impl CheckStage for PtiStage {
    fn id(&self) -> StageId {
        StageId::Pti
    }

    fn run(&self, joza: &Joza, cx: &mut CheckCx<'_, '_>) -> StageOutcome {
        let artifacts = cx.artifacts;
        // Only the in-process deployment can reuse the artifacts: the
        // daemon modes ship the raw query over the pipe protocol and
        // re-lex daemon-side, exactly like the paper's deployment. The
        // fingerprint is only derived when the structure cache will
        // consult it.
        let prep = (joza.config.pti.mode == DaemonMode::InProcess).then(|| PreparedSql {
            tokens: artifacts.tokens(),
            fingerprint: joza.config.pti.structure_cache.then(|| artifacts.fingerprint()),
        });
        let decision = joza.shard().lock().check_prepared(artifacts.query(), prep);
        let attack = !decision.safe;
        cx.pti_attack = Some(attack);
        cx.trace.set(StageId::Pti, if attack { StageStatus::Fired } else { StageStatus::Passed });
        StageOutcome::Continue
    }
}

/// Stage 5: the structural-anomaly signal. Reached only when the model
/// fast path did not short-circuit, so a *complete* model reaching this
/// stage has by construction rejected the skeleton.
struct StructuralStage;

impl CheckStage for StructuralStage {
    fn id(&self) -> StageId {
        StageId::Structural
    }

    fn run(&self, _joza: &Joza, cx: &mut CheckCx<'_, '_>) -> StageOutcome {
        if cx.model.is_some_and(|m| m.complete) {
            cx.structural_anomaly = true;
            cx.trace.set(StageId::Structural, StageStatus::Fired);
        }
        StageOutcome::Continue
    }
}
