//! Doom notes drive all retention: per-context `submit`, `batch_add` on
//! a constraint set that cannot fuse, fused `batch_add`, and the
//! contexts a shard rebalance migrates. Whichever path ran, once a
//! position's maintenance is done no context a full
//! [`ContextPool::compact`] scan would remove may remain pooled — the
//! notes must name every context the compact predicate holds for, at
//! the first instant it holds.
//!
//! Runs use finite TTLs, retention shorter than the trace, a use window
//! shorter than retention, and ground truth on, across all four
//! strategies.

use ctxres_constraint::{parse_constraints, Constraint, IncrementalChecker};
use ctxres_context::{Context, ContextKind, ContextPool, LogicalTime, Ticks};
use ctxres_core::strategies::by_name;
use ctxres_experiments::city::{CityConfig, CityWorkload};
use ctxres_middleware::{Middleware, MiddlewareConfig, ShardPlan, ShardedMiddleware};

const SPEED: &str = "constraint speed:
    forall a: location, b: location .
      (same_subject(a, b) and seq_gap(a, b, 1)) implies velocity_le(a, b, 1.5)";

/// Existential, so outside the universal-positive fragment: a set
/// containing it cannot fuse. It quantifies only over `temperature`,
/// so `location` still partitions by subject across shards.
const THERMOMETER: &str = "constraint thermometer_seen:
    exists t: temperature . has_attr(t, \"seq\")";

const STRATEGIES: [&str; 4] = ["d-bad", "d-lat", "d-all", "opt-r"];
const RETENTION: u64 = 12;
const WINDOW: u64 = 2;

/// A city trace with finite TTLs, salted with `temperature` readings
/// (every 5th position) that only the non-fusable set checks.
fn trace() -> Vec<Context> {
    let base = CityWorkload::new(CityConfig {
        subjects: 10,
        churn_per_event: 0.01,
        teleport_rate: 0.15,
        ttl_ticks: Some(20),
        seed: 5,
        ..CityConfig::default()
    })
    .batch(400);
    let mut out = Vec::with_capacity(base.len() + base.len() / 5);
    for (i, ctx) in base.into_iter().enumerate() {
        if i % 5 == 2 {
            out.push(
                Context::builder(ContextKind::new("temperature"), "room-3")
                    .attr("seq", i as i64)
                    .stamp(ctx.stamp())
                    .build(),
            );
        }
        out.push(ctx);
    }
    out
}

fn constraint_sets() -> [(Vec<Constraint>, bool); 2] {
    let fusable = parse_constraints(SPEED).unwrap();
    let unfusable = parse_constraints(&format!("{SPEED}\n{THERMOMETER}")).unwrap();
    [(unfusable, false), (fusable, true)]
}

fn engine(constraints: &[Constraint], strategy: &str) -> Middleware {
    Middleware::builder()
        .constraints(constraints.to_vec())
        .strategy(by_name(strategy, 3).expect("known strategy"))
        .config(MiddlewareConfig {
            window: Ticks::new(WINDOW),
            track_ground_truth: true,
            retention: Some(Ticks::new(RETENTION)),
        })
        .build()
}

/// How many contexts a full compaction scan at the engine's clock would
/// still remove; doom notes must have removed them all already.
fn left_for_compact(mw: &Middleware) -> usize {
    let now = mw.now().tick();
    if now <= RETENTION {
        return 0;
    }
    let mut pool: ContextPool = mw.pool().clone();
    pool.compact(LogicalTime::new(now - RETENTION))
}

#[test]
fn doom_notes_leave_nothing_for_compact_on_every_path() {
    let trace = trace();
    for (constraints, fusable) in constraint_sets() {
        let set = constraints.iter().cloned().collect();
        assert_eq!(
            IncrementalChecker::new(set).supports_batch_fusion(),
            fusable,
            "the test needs one set of each kind"
        );
        for strategy in STRATEGIES {
            let label = format!("{strategy}, fusable={fusable}");

            // Per-context submit.
            let mut mw = engine(&constraints, strategy);
            for (k, ctx) in trace.iter().cloned().enumerate() {
                mw.submit(ctx);
                assert_eq!(left_for_compact(&mw), 0, "{label}: submit #{k}");
            }
            mw.drain();
            assert_eq!(left_for_compact(&mw), 0, "{label}: after drain");
            assert!(mw.stats().compacted > 0, "{label}: retention never removed");
            let submitted = *mw.stats();

            // batch_add, in chunks: staged and speculated when the set
            // fuses, submitted position by position when it cannot.
            let mut mw = engine(&constraints, strategy);
            for (k, chunk) in trace.chunks(64).enumerate() {
                mw.batch_add(chunk.to_vec());
                assert_eq!(left_for_compact(&mw), 0, "{label}: batch #{k}");
            }
            mw.drain();
            assert_eq!(left_for_compact(&mw), 0, "{label}: after batch drain");
            assert_eq!(*mw.stats(), submitted, "{label}: batch_add vs submit");
        }
    }
}

#[test]
fn migrated_contexts_keep_their_doom_notes() {
    let trace = trace();
    let (first, second) = trace.split_at(trace.len() / 2);
    for (constraints, _) in constraint_sets() {
        let plan = ShardPlan::analyze(&constraints, 2);
        let mut sharded = ShardedMiddleware::new(plan, |_| engine(&constraints, "d-bad"));
        sharded.batch_add(first);
        sharded.drain();
        let loads = sharded.subject_loads();
        let new_plan = sharded
            .plan()
            .rebalance(&loads, 1.0)
            .expect("Zipf traffic leaves one subject shard above the mean");
        sharded.apply_plan(new_plan);
        // An adopted context's note may already be due on its new
        // shard; the shard's next maintenance must remove it.
        for ctx in second.iter().cloned() {
            let (shard, _) = sharded.submit(ctx);
            let left = sharded.with_shard(shard, |mw| left_for_compact(mw));
            assert_eq!(left, 0, "shard {shard} after a post-migration submit");
        }
        sharded.drain();
        for shard in 0..sharded.plan().total_shards() {
            let left = sharded.with_shard(shard, |mw| left_for_compact(mw));
            assert_eq!(left, 0, "shard {shard} after the final drain");
        }
        assert!(sharded.stats().compacted > 0, "retention never removed");
    }
}
