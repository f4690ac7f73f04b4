//! Building what a run serves: the WordPress-scale application, the
//! shared Joza engine, and one lab per client — the benchmark's set-up.

use crate::workload::Workload;
use joza_core::{Joza, JozaConfig};
use joza_lab::{build_lab, wordpress, Lab};
use joza_sast::{analyze_store_flow, app_query_models};
use joza_webapp::app::WebApp;
use std::time::{Duration, Instant};

/// Synthetic core source files added to the lab, so the PTI vocabulary
/// has the WordPress-plus-50-plugins scale of the paper's §VI (13,593
/// fragments).
pub const SYNTHETIC_CORE_FILES: usize = 280;

/// Concurrent closed-loop clients. Each owns a lab (application + DB);
/// all share one engine.
pub const CLIENTS: usize = 2;

/// Wall time of each set-up stage.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupSplit {
    /// Lab assembly plus the synthetic vocabulary.
    pub vocabulary: Duration,
    /// Static passes feeding the engine (query models, taint-free routes,
    /// dirty cells); zero for the paper configuration, which has none.
    pub sast: Duration,
    /// Engine build (fragment extraction, stores, pipeline).
    pub engine: Duration,
    /// Cold compile of every route to VM bytecode on one lab.
    pub compile: Duration,
    /// Everything, client labs included.
    pub total: Duration,
}

/// A ready-to-serve deployment.
pub struct Deployment {
    /// The one engine every client shares.
    pub engine: Joza,
    /// One lab per client, routes compiled.
    pub labs: Vec<Lab>,
    /// Where the set-up time went.
    pub split: SetupSplit,
}

/// The lab every client and the engine build from: `build_lab()` plus the
/// synthetic WordPress-scale core sources. Not `perf_lab()`, which sets
/// modeled render costs.
pub fn wordpress_scale_lab() -> Lab {
    let mut lab = build_lab();
    for src in wordpress::synthetic_core_sources(SYNTHETIC_CORE_FILES) {
        lab.server.app.add_core_source(&src);
    }
    lab
}

/// Compiles every route of `app` to bytecode (filling its chunk cache).
///
/// # Panics
///
/// Panics if a route fails to parse: the testbed's sources all parse.
pub fn compile_routes(app: &mut WebApp) {
    let routes: Vec<String> = app.plugins().map(|p| p.name.clone()).collect();
    for route in routes {
        app.chunk(&route).unwrap_or_else(|e| panic!("route {route} does not compile: {e}"));
    }
}

/// Builds the engine for `workload` over `app`.
///
/// `wp-read` and `wp-write` run the paper's configuration (NTI plus the
/// long-lived PTI daemon with both caches, no static models);
/// `lab-attack` runs the full deployment (query models, persistence-aware
/// taint-free routes, dirty cells for second-order capture).
fn build_engine(workload: Workload, app: &WebApp, split: &mut SetupSplit) -> Joza {
    match workload {
        Workload::WpRead | Workload::WpWrite => {
            let t = Instant::now();
            let engine = Joza::install(app, JozaConfig::optimized());
            split.engine = t.elapsed();
            engine
        }
        Workload::LabAttack => {
            let t = Instant::now();
            let models = app_query_models(app);
            let flow = analyze_store_flow(app);
            split.sast = t.elapsed();
            let t = Instant::now();
            let engine = Joza::installer(app, JozaConfig::optimized())
                .query_models(models)
                .taint_free_routes(flow.taint_free_routes())
                .dirty_cells(flow.dirty_cells())
                .build();
            split.engine = t.elapsed();
            engine
        }
    }
}

/// Sets up from nothing: vocabulary, static passes, engine, route compile
/// and the client labs.
pub fn deploy(workload: Workload) -> Deployment {
    let started = Instant::now();
    let mut split = SetupSplit::default();

    let t = Instant::now();
    let mut first = wordpress_scale_lab();
    split.vocabulary = t.elapsed();

    let engine = build_engine(workload, &first.server.app, &mut split);

    let t = Instant::now();
    compile_routes(&mut first.server.app);
    split.compile = t.elapsed();

    let mut labs = vec![first];
    while labs.len() < CLIENTS {
        let mut lab = wordpress_scale_lab();
        compile_routes(&mut lab.server.app);
        labs.push(lab);
    }
    split.total = started.elapsed();
    Deployment { engine, labs, split }
}

/// Every modeled (simulated) cost in one deployment, by name. The
/// benchmark measures real compute only, so each must be zero.
pub fn modeled_costs(deployment: &Deployment) -> Vec<(String, Duration)> {
    let config = deployment.engine.config();
    let mut out = vec![
        ("engine.wrapper_cost".to_string(), config.wrapper_cost),
        ("engine.pti.pipe_cost".to_string(), config.pti.pipe_cost),
        ("engine.pti.response_parse_cost".to_string(), config.pti.response_parse_cost),
        ("engine.pti.spawn_cost".to_string(), config.pti.spawn_cost),
        ("engine.pti.pipe_latency".to_string(), config.pti.pipe_latency),
    ];
    for (i, lab) in deployment.labs.iter().enumerate() {
        for plugin in lab.server.app.plugins() {
            out.push((format!("client{i}.{}.render_cost", plugin.name), plugin.render_cost));
        }
    }
    out
}

/// The modeled-cost guard: an error naming every non-zero modeled cost.
pub fn check_no_modeled_cost(deployment: &Deployment) -> Result<(), String> {
    let nonzero: Vec<String> = modeled_costs(deployment)
        .into_iter()
        .filter(|(_, cost)| !cost.is_zero())
        .map(|(name, cost)| format!("{name}={cost:?}"))
        .collect();
    if nonzero.is_empty() {
        Ok(())
    } else {
        Err(format!("modeled costs must be zero: {}", nonzero.join(", ")))
    }
}
