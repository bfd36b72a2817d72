//! Outside-in probes of single layers, reached through public APIs only.
//!
//! * [`TimedStrategy`] wraps the real resolution strategy (`core`).
//! * [`StampObserver`] stamps the engine's observer callbacks
//!   (`middleware`): in-batch waiting versus per-context commit time.
//! * [`Replay`] feeds a workload's own stream into a bare
//!   `ContextPool` and `IncrementalChecker` (`context`, `constraint`).
//!   It skips resolution, so its pool keeps contexts the engine would
//!   have discarded and can differ a little from the engine's.

use crate::spans::Recorder;
use ctxres_constraint::{Constraint, IncrementalChecker, PredicateRegistry};
use ctxres_context::{Context, ContextId, ContextPool, LogicalTime};
use ctxres_core::{AdditionOutcome, Inconsistency, ResolutionStrategy, UseOutcome};
use ctxres_middleware::{MiddlewareObserver, ShardPlan, SubmitReport, UseRecord};
use std::collections::VecDeque;

/// Span names of the `core` layer.
pub const ON_ADDITION: &str = "core.on_addition";
/// See [`ON_ADDITION`].
pub const ON_USE: &str = "core.on_use";
/// Observer mark: a context's addition change finished.
pub const SUBMITTED: &str = "middleware.submitted";
/// Strategy mark: a use that did not deliver the context.
pub const WITHHELD: &str = "core.withheld";
/// Observer mark: a context was used (delivered or discarded).
pub const USED: &str = "middleware.used";

/// Delegates every trait method to the real strategy and times
/// `on_addition` and `on_use` as children of the engine call in flight.
pub struct TimedStrategy {
    inner: Box<dyn ResolutionStrategy + Send>,
    rec: Recorder,
}

impl TimedStrategy {
    /// Wraps `inner`, recording into `rec`.
    pub fn new(inner: Box<dyn ResolutionStrategy + Send>, rec: Recorder) -> Self {
        TimedStrategy { inner, rec }
    }

    fn timed<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> R) -> R {
        let start = self.rec.tracer().now_ns();
        let out = f(self);
        let t = self.rec.tracer();
        let end = t.now_ns();
        self.rec.record(name, t.current(), start, end);
        out
    }
}

impl ResolutionStrategy for TimedStrategy {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn defers_decision(&self) -> bool {
        self.inner.defers_decision()
    }

    fn on_addition(
        &mut self,
        pool: &mut ContextPool,
        now: LogicalTime,
        id: ContextId,
        fresh: &[Inconsistency],
    ) -> AdditionOutcome {
        self.timed(ON_ADDITION, |s| s.inner.on_addition(pool, now, id, fresh))
    }

    fn on_use(&mut self, pool: &mut ContextPool, now: LogicalTime, id: ContextId) -> UseOutcome {
        let out = self.timed(ON_USE, |s| s.inner.on_use(pool, now, id));
        if !out.delivered {
            let t = self.rec.tracer();
            self.rec.mark(WITHHELD, t.current(), t.now_ns());
        }
        out
    }

    fn attach_obs(&mut self, obs: ctxres_obs::ShardObs) {
        self.inner.attach_obs(obs);
    }

    fn emits_provenance(&self) -> bool {
        self.inner.emits_provenance()
    }

    fn reset(&mut self) {
        self.inner.reset();
    }
}

/// Marks `on_submitted` and `on_used` against the engine call in flight.
pub struct StampObserver {
    rec: Recorder,
}

impl StampObserver {
    /// An observer recording into `rec`.
    pub fn new(rec: Recorder) -> Self {
        StampObserver { rec }
    }

    fn stamp(&mut self, name: &'static str) {
        let t = self.rec.tracer();
        let at = t.now_ns();
        self.rec.mark(name, t.current(), at);
    }
}

impl MiddlewareObserver for StampObserver {
    fn on_submitted(&mut self, _report: &SubmitReport, _ctx: &Context) {
        self.stamp(SUBMITTED);
    }

    fn on_used(&mut self, _record: &UseRecord) {
        self.stamp(USED);
    }
}

/// Per-call samples of the layer replay.
#[derive(Debug, Default)]
pub struct ReplayStats {
    /// `ContextPool::insert` durations, ns.
    pub insert_ns: Vec<f64>,
    /// `ContextPool::remove` durations, ns.
    pub remove_ns: Vec<f64>,
    /// `IncrementalChecker::on_added` durations, ns.
    pub check_ns: Vec<f64>,
    /// Bucket length each check scans.
    pub candidates: Vec<f64>,
    /// Checks that found at least one inconsistency.
    pub detecting: u64,
    /// Live contexts after each insert.
    pub live: Vec<f64>,
    /// Subjects in the index, sampled every [`INDEX_SAMPLE`] inserts.
    pub index_subjects: Vec<f64>,
}

/// How often the replay counts the subjects in the pool's index (the
/// count walks the whole index, so it is sampled).
pub const INDEX_SAMPLE: usize = 64;

/// A bare pool and checker fed one stream, with a retention horizon.
pub struct Replay {
    pool: ContextPool,
    checker: IncrementalChecker,
    registry: PredicateRegistry,
    plan: ShardPlan,
    retention: Option<u64>,
    aging: VecDeque<(u64, ContextId)>,
    inserted: usize,
    rec: Recorder,
}

impl Replay {
    /// A replay of `constraints`; contexts older than `retention` ticks
    /// are removed before each insert.
    pub fn new(
        constraints: Vec<Constraint>,
        registry: PredicateRegistry,
        retention: Option<u64>,
        rec: Recorder,
    ) -> Self {
        Replay {
            plan: ShardPlan::analyze(&constraints, 1),
            checker: IncrementalChecker::new(constraints.into_iter().collect()),
            pool: ContextPool::new(),
            registry,
            retention,
            aging: VecDeque::new(),
            inserted: 0,
            rec,
        }
    }

    /// Removes what aged out, inserts `ctx`, and checks it.
    pub fn feed(&mut self, ctx: Context, stats: &mut ReplayStats) {
        let now = ctx.stamp();
        if let Some(retention) = self.retention {
            while let Some(&(stamp, id)) = self.aging.front() {
                if stamp + retention > now.tick() {
                    break;
                }
                self.aging.pop_front();
                let (ns, _) = timed(&self.rec, "context.remove", || self.pool.remove(id));
                stats.remove_ns.push(ns);
            }
        }
        let kind = ctx.kind().clone();
        let subject = ctx.subject_arc().clone();
        let (ns, id) = timed(&self.rec, "context.insert", || self.pool.insert(ctx));
        stats.insert_ns.push(ns);
        self.aging.push_back((now.tick(), id));
        self.inserted += 1;
        // The domain a pinned check scans: the subject's bucket for a
        // per-subject kind, the whole kind otherwise.
        let scanned = if self.plan.global_kinds().contains(&kind) {
            self.pool.of_kind(&kind).count()
        } else {
            self.pool.of_subject(&kind, &subject).count()
        };
        stats.candidates.push(scanned as f64);
        let (ns, found) = timed(&self.rec, "constraint.on_added", || {
            self.checker.on_added(&self.registry, &self.pool, now, id)
        });
        stats.check_ns.push(ns);
        if found.map(|d| !d.is_empty()).unwrap_or(false) {
            stats.detecting += 1;
        }
        stats.live.push(self.pool.len() as f64);
        if self.inserted.is_multiple_of(INDEX_SAMPLE) {
            stats
                .index_subjects
                .push(self.pool.subject_counts().len() as f64);
        }
    }
}

/// Times `f` as a root span and returns its duration in ns.
fn timed<R>(rec: &Recorder, name: &'static str, f: impl FnOnce() -> R) -> (f64, R) {
    let t = rec.tracer();
    let start = t.now_ns();
    let out = f();
    let end = t.now_ns();
    rec.record(name, 0, start, end);
    ((end - start) as f64, out)
}
