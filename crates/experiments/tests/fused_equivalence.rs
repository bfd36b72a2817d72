//! Property-based equivalence of the batch-fused checking path.
//!
//! With per-subject universal-positive constraints, `batch_add` fuses
//! the whole batch: deferred index maintenance stages it at once, and
//! set-pinned speculative checking hands the commit loop precomputed
//! verdicts. The reference is per-context `submit`, which inserts each
//! context and checks it inline at its own position. The contract is
//! the same hard one the plain batch path carries — the verdict stream
//! must be **bit-identical** — but here the configurations
//! deliberately turn on everything whose *timing* the fusion reorders:
//! retention removal (doom notes must remove contexts at the same
//! positions whether the pool was staged ahead or not, which
//! `DropBad`'s Δ-member dereferences observe), finite TTLs, the
//! ground-truth shadow pool, situation rounds with the dirty-kind
//! cache, and interleaved irrelevant-kind contexts.
//!
//! Compared per run: submit reports, middleware stats (including the
//! `compacted` tally), use log, detections, observer events, checker
//! stats, the full trace-event record, the provenance chains of every
//! discarded context, and every observability counter both paths emit.
//! The memo-table counters (`pred_memo_*`, `fused_batch_evals`) are
//! excluded — they exist only on the fused path by construction.

use ctxres_constraint::parse_constraints;
use ctxres_context::{Context, ContextKind, Ticks};
use ctxres_core::strategies::by_name;
use ctxres_experiments::city::{CityConfig, CityWorkload};
use ctxres_experiments::explain::render_chain;
use ctxres_middleware::{
    Event, EventLog, Middleware, MiddlewareConfig, ShardPlan, ShardedMiddleware, SubmitReport,
    UseRecord,
};
use ctxres_obs::{CounterKind, ObsConfig, ObsRegistry, ProvenanceGraph, TraceRecord};
use parking_lot::Mutex;
use proptest::prelude::*;
use std::sync::Arc;

const SPEED: &str = "constraint speed:
    forall a: location, b: location .
      (same_subject(a, b) and seq_gap(a, b, 1)) implies velocity_le(a, b, 1.5)";

const NEAR_ORIGIN: &str = "constraint near_origin:
    exists a: location . within(a, -5.0, -5.0, 5.0, 5.0)";

const STRATEGIES: [&str; 4] = ["d-bad", "d-lat", "d-all", "opt-r"];

/// Counters that exist on both paths and therefore must match. The
/// fused-only memo counters are deliberately absent.
const SHARED_COUNTERS: [CounterKind; 11] = [
    CounterKind::EventsRecorded,
    CounterKind::EventsDropped,
    CounterKind::Detections,
    CounterKind::Discards,
    CounterKind::Deliveries,
    CounterKind::Ingested,
    CounterKind::SituationEvals,
    CounterKind::SituationCacheSkips,
    CounterKind::CompiledEvals,
    CounterKind::ProvEdges,
    CounterKind::ProvNodes,
];

/// A randomized city trace with finite TTLs, salted with irrelevant
/// `temperature` contexts (every 7th position) so fused batches mix
/// fast-path and checked positions.
fn city_trace(subjects: usize, len: usize, teleport_pct: u32, ttl: u64, seed: u64) -> Vec<Context> {
    let base = CityWorkload::new(CityConfig {
        subjects,
        churn_per_event: 0.01,
        teleport_rate: f64::from(teleport_pct) / 100.0,
        ttl_ticks: Some(ttl),
        seed,
        ..CityConfig::default()
    })
    .batch(len);
    let mut out = Vec::with_capacity(base.len() + base.len() / 7);
    for (i, ctx) in base.into_iter().enumerate() {
        if i % 7 == 3 {
            out.push(
                Context::builder(ContextKind::new("temperature"), "room-7")
                    .attr("seq", i as i64)
                    .stamp(ctx.stamp())
                    .build(),
            );
        }
        out.push(ctx);
    }
    out
}

struct Engine {
    mw: Middleware,
    log: Arc<Mutex<EventLog>>,
    registry: Arc<ObsRegistry>,
}

fn engine(strategy: &str, seed: u64, window: u64, retention: u64) -> Engine {
    let log = Arc::new(Mutex::new(EventLog::new()));
    let registry = ObsRegistry::shared(ObsConfig::enabled(), 1);
    let mw = Middleware::builder()
        .constraints(parse_constraints(SPEED).unwrap())
        .situations(parse_constraints(NEAR_ORIGIN).unwrap())
        .strategy(by_name(strategy, seed).expect("known strategy"))
        .config(MiddlewareConfig {
            window: Ticks::new(window),
            track_ground_truth: true,
            retention: Some(Ticks::new(retention)),
        })
        .observer(Box::new(Arc::clone(&log)))
        .obs(registry.handle(0))
        .build();
    Engine { mw, log, registry }
}

/// Everything a run observably produces (the fused-only counters
/// excepted).
#[derive(Debug, PartialEq)]
struct RunRecord {
    reports: Vec<SubmitReport>,
    stats: ctxres_middleware::MiddlewareStats,
    checker: ctxres_constraint::CheckerStats,
    uses: Vec<UseRecord>,
    detections: Vec<String>,
    events: Vec<Event>,
    trace: Vec<TraceRecord>,
    chains: Vec<String>,
    counters: Vec<u64>,
}

fn record(mut engine: Engine, reports: Vec<SubmitReport>) -> RunRecord {
    engine.mw.drain();
    assert_eq!(engine.registry.dropped(), 0, "ring must hold the whole run");
    let trace = engine.registry.drain();
    let graph = ProvenanceGraph::from_records(&trace);
    let mut chains: Vec<String> = graph.discarded().iter().map(|n| render_chain(n)).collect();
    chains.sort();
    let snapshot = engine.registry.snapshot();
    let merged = snapshot.aggregate();
    RunRecord {
        reports,
        stats: *engine.mw.stats(),
        checker: engine.mw.checker_stats(),
        uses: engine.mw.use_log().to_vec(),
        detections: engine
            .mw
            .detections()
            .iter()
            .map(|d| d.to_string())
            .collect(),
        events: engine.log.lock().events().to_vec(),
        trace,
        chains,
        counters: SHARED_COUNTERS.iter().map(|k| merged.counter(*k)).collect(),
    }
}

/// Per-context `submit` of the whole trace: the sequential reference.
fn sequential(
    trace: &[Context],
    strategy: &str,
    seed: u64,
    window: u64,
    retention: u64,
) -> RunRecord {
    let mut seq = engine(strategy, seed, window, retention);
    let reports: Vec<SubmitReport> = trace.iter().cloned().map(|c| seq.mw.submit(c)).collect();
    record(seq, reports)
}

/// The whole trace as one fused `batch_add`.
fn fused(trace: &[Context], strategy: &str, seed: u64, window: u64, retention: u64) -> RunRecord {
    let mut fused = engine(strategy, seed, window, retention);
    let reports = fused.mw.batch_add(trace.to_vec());
    record(fused, reports)
}

fn fused_vs_submit(trace: &[Context], strategy: &str, seed: u64, window: u64, retention: u64) {
    assert_eq!(
        sequential(trace, strategy, seed, window, retention),
        fused(trace, strategy, seed, window, retention),
        "fused batch_add diverged from per-context submission for {strategy}"
    );
}

/// One sharded run; `ingest` performs the actual submission.
#[allow(clippy::type_complexity)]
fn sharded_run(
    strategy: &str,
    seed: u64,
    retention: u64,
    ingest: impl FnOnce(&ShardedMiddleware),
) -> (
    ctxres_middleware::MiddlewareStats,
    Vec<(
        ctxres_context::ContextKind,
        String,
        ctxres_context::LogicalTime,
        ctxres_context::ContextState,
    )>,
    Vec<String>,
    Vec<u64>,
) {
    let plan = ShardPlan::analyze(&parse_constraints(SPEED).unwrap(), 4);
    let registry = ShardedMiddleware::obs_registry(&plan, ObsConfig::enabled());
    let sharded = ShardedMiddleware::new_observed(plan, &registry, |_, obs| {
        Middleware::builder()
            .constraints(parse_constraints(SPEED).unwrap())
            .strategy(by_name(strategy, seed).expect("known strategy"))
            .config(MiddlewareConfig {
                window: Ticks::new(0),
                track_ground_truth: false,
                retention: Some(Ticks::new(retention)),
            })
            .obs(obs)
            .build()
    });
    ingest(&sharded);
    sharded.drain();
    assert_eq!(registry.dropped(), 0, "ring must hold the whole run");
    let trace = registry.drain();
    let graph = ProvenanceGraph::from_records(&trace);
    let mut chains: Vec<String> = graph.discarded().iter().map(|n| render_chain(n)).collect();
    chains.sort();
    let merged = registry.snapshot().aggregate();
    (
        sharded.stats(),
        sharded.signature(),
        chains,
        SHARED_COUNTERS.iter().map(|k| merged.counter(*k)).collect(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Fused `batch_add` produces the identical verdict stream to
    /// one-at-a-time `submit` under retention removal,
    /// TTL'd contexts, ground-truth tracking, situations, and mixed
    /// relevant/irrelevant kinds, across all four strategies.
    #[test]
    fn fused_batch_add_matches_unfused_sequential(
        subjects in 4usize..24,
        len in 60usize..200,
        teleport_pct in 5u32..30,
        ttl in 10u64..50,
        retention in 8u64..40,
        seed in 0u64..1000,
        window in 0u64..3,
    ) {
        let trace = city_trace(subjects, len, teleport_pct, ttl, seed);
        for strategy in STRATEGIES {
            fused_vs_submit(&trace, strategy, seed, window, retention);
        }
    }

    /// The sharded engine's fused `batch_add` agrees with its
    /// per-context `submit` on stats, pool signatures, provenance
    /// chains, and counters.
    #[test]
    fn sharded_fused_matches_sharded_unfused(
        subjects in 4usize..20,
        len in 60usize..160,
        teleport_pct in 5u32..30,
        ttl in 10u64..50,
        retention in 8u64..40,
        seed in 0u64..1000,
    ) {
        let trace = city_trace(subjects, len, teleport_pct, ttl, seed);
        for strategy in STRATEGIES {
            let (a_stats, a_sig, a_chains, a_counters) =
                sharded_run(strategy, seed, retention, |s| {
                    for ctx in &trace {
                        s.submit(ctx.clone());
                    }
                });
            let (b_stats, b_sig, b_chains, b_counters) =
                sharded_run(strategy, seed, retention, |s| {
                    s.batch_add_owned(trace.clone());
                });
            prop_assert_eq!(a_stats, b_stats, "stats diverged for {}", strategy);
            prop_assert_eq!(a_sig, b_sig, "pool signature diverged for {}", strategy);
            prop_assert_eq!(a_chains, b_chains, "provenance chains diverged for {}", strategy);
            prop_assert_eq!(a_counters, b_counters, "counters diverged for {}", strategy);
        }
    }
}

/// A fixed cell that provably exercises the machinery under test:
/// detections fire, retention removes contexts (so the doom notes of a
/// staged batch and of per-context submits must agree on removal
/// positions), and duplicate subjects land in single subject groups.
#[test]
fn fused_equivalence_smoke() {
    let trace = city_trace(8, 400, 20, 24, 42);
    for strategy in STRATEGIES {
        let seq = sequential(&trace, strategy, 42, 0, 16);
        assert!(
            seq.stats.inconsistencies > 0,
            "{strategy}: the cell must detect something to be a real test"
        );
        assert!(
            seq.stats.compacted > 0,
            "{strategy}: the cell must compact something to exercise doom notes"
        );
        assert_eq!(seq, fused(&trace, strategy, 42, 0, 16), "{strategy}");
    }
}

/// Ineligible constraint sets (here: an existential situation deployed
/// *as a constraint*, which is not universal-positive) silently fall
/// back to per-context submission — no fused counters.
#[test]
fn ineligible_constraints_fall_back_to_unfused() {
    let constraints = format!("{SPEED}\n{NEAR_ORIGIN}");
    let registry = ObsRegistry::shared(ObsConfig::enabled(), 1);
    let mut mw = Middleware::builder()
        .constraints(parse_constraints(&constraints).unwrap())
        .strategy(by_name("d-lat", 1).expect("known strategy"))
        .obs(registry.handle(0))
        .build();
    mw.batch_add(city_trace(6, 120, 20, 30, 7));
    mw.drain();
    let merged = registry.snapshot().aggregate();
    assert_eq!(
        merged.counter(CounterKind::FusedBatchEvals),
        0,
        "ineligible constraint set must not take the fused path"
    );
}

/// Eligible runs actually take the fused path and the memo table
/// actually serves hits (the counters per-context submission never
/// emits).
/// Every SPEED predicate reads the pinned slot, so that constraint
/// bypasses the memo by design; the guard `has_attr(b, "pos")` reads
/// only the unpinned slot and is the class of site the memo serves.
#[test]
fn fused_path_reports_memo_counters() {
    let guarded = "constraint guarded:
        forall a: location, b: location .
          (same_subject(a, b) and seq_gap(a, b, 1) and has_attr(b, \"pos\"))
          implies velocity_le(a, b, 1.5)";
    let registry = ObsRegistry::shared(ObsConfig::enabled(), 1);
    let mut mw = Middleware::builder()
        .constraints(parse_constraints(guarded).unwrap())
        .strategy(by_name("d-bad", 1).expect("known strategy"))
        .obs(registry.handle(0))
        .build();
    mw.batch_add(city_trace(6, 200, 20, 60, 9));
    mw.drain();
    let merged = registry.snapshot().aggregate();
    assert_eq!(merged.counter(CounterKind::FusedBatchEvals), 1);
    assert!(
        merged.counter(CounterKind::PredMemoMisses) > 0,
        "pin-free sites must populate the memo"
    );
    assert!(
        merged.counter(CounterKind::PredMemoHits) > 0,
        "repeat subjects must replay memoized verdicts"
    );
}
