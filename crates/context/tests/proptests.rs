//! Property-based tests for the context pool and life cycle.

use ctxres_context::{
    Context, ContextId, ContextKind, ContextPool, ContextState, KindWatermark, Lifespan,
    LogicalTime, PoolStats, Ticks,
};
use proptest::prelude::*;
use std::collections::BTreeMap;

#[derive(Debug, Clone)]
enum Op {
    Insert {
        kind: u8,
        subject: u8,
        ttl: Option<u8>,
    },
    SetState {
        target: u8,
        state: ContextState,
    },
    Discard {
        target: u8,
    },
    Remove {
        target: u8,
    },
    Sweep {
        at: u8,
    },
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u8..3, 0u8..3, proptest::option::of(0u8..10))
            .prop_map(|(kind, subject, ttl)| Op::Insert { kind, subject, ttl }),
        (
            any::<u8>(),
            prop_oneof![
                Just(ContextState::Consistent),
                Just(ContextState::Bad),
                Just(ContextState::Inconsistent),
            ]
        )
            .prop_map(|(target, state)| Op::SetState { target, state }),
        any::<u8>().prop_map(|target| Op::Discard { target }),
        any::<u8>().prop_map(|target| Op::Remove { target }),
        (0u8..30).prop_map(|at| Op::Sweep { at }),
    ]
}

fn kind_name(k: u8) -> ContextKind {
    ContextKind::new(&format!("kind{k}"))
}

/// One context to insert: its kind, subject, how far its stamp lags the
/// clock (out-of-order arrivals), and its time-to-live.
#[derive(Debug, Clone)]
struct Spec {
    kind: u8,
    subject: u8,
    lag: u8,
    ttl: Option<u8>,
}

#[derive(Debug, Clone)]
enum PoolOp {
    Insert(Spec),
    InsertBatch(Vec<Spec>),
    Remove { target: u8 },
    SetState { target: u8, state: ContextState },
    Discard { target: u8 },
    Compact { at: u8 },
    Sweep { at: u8 },
    SplitAbsorb { parts: u8 },
}

fn spec() -> impl Strategy<Value = Spec> {
    (
        0u8..3,
        // Two hot subjects take two thirds of the traffic.
        prop_oneof![0u8..2, 0u8..2, 0u8..12],
        prop_oneof![Just(0u8), Just(0u8), 0u8..8],
        proptest::option::of(0u8..20),
    )
        .prop_map(|(kind, subject, lag, ttl)| Spec {
            kind,
            subject,
            lag,
            ttl,
        })
}

fn pool_op() -> impl Strategy<Value = PoolOp> {
    prop_oneof![
        spec().prop_map(PoolOp::Insert),
        spec().prop_map(PoolOp::Insert),
        proptest::collection::vec(spec(), 0..6).prop_map(PoolOp::InsertBatch),
        any::<u8>().prop_map(|target| PoolOp::Remove { target }),
        (
            any::<u8>(),
            prop_oneof![
                Just(ContextState::Consistent),
                Just(ContextState::Bad),
                Just(ContextState::Inconsistent),
            ]
        )
            .prop_map(|(target, state)| PoolOp::SetState { target, state }),
        any::<u8>().prop_map(|target| PoolOp::Discard { target }),
        (0u8..40).prop_map(|at| PoolOp::Compact { at }),
        (0u8..40).prop_map(|at| PoolOp::Sweep { at }),
        (1u8..4).prop_map(|parts| PoolOp::SplitAbsorb { parts }),
    ]
}

/// The naive pool every [`ContextPool`] view is checked against:
/// stored contexts in arrival order, plus the arena's counters.
#[derive(Default)]
struct Model {
    ctxs: Vec<(ContextId, Context)>,
    next_id: u64,
    inserted: u64,
    /// Slots ever allocated: the peak stored count, since a slot is
    /// only allocated when none is free.
    slots: usize,
    recycles: u64,
}

impl Model {
    fn insert(&mut self, ctx: Context) -> ContextId {
        let id = ContextId::from_raw(self.next_id);
        self.next_id += 1;
        self.inserted += 1;
        self.ctxs.push((id, ctx));
        self.slots = self.slots.max(self.ctxs.len());
        id
    }

    fn remove_where(&mut self, doom: impl Fn(&Context) -> bool) {
        let before = self.ctxs.len();
        self.ctxs.retain(|(_, c)| !doom(c));
        self.recycles += (before - self.ctxs.len()) as u64;
    }

    /// Live contexts `keep` selects, in `(stamp, id)` order.
    fn live_ids(&self, keep: impl Fn(&Context) -> bool) -> Vec<ContextId> {
        let mut live: Vec<(LogicalTime, ContextId)> = self
            .ctxs
            .iter()
            .filter(|(_, c)| c.state() != ContextState::Inconsistent && keep(c))
            .map(|(id, c)| (c.stamp(), *id))
            .collect();
        live.sort();
        live.into_iter().map(|(_, id)| id).collect()
    }

    fn subject_counts(&self) -> BTreeMap<String, usize> {
        let mut counts = BTreeMap::new();
        for (_, c) in &self.ctxs {
            if c.state() != ContextState::Inconsistent {
                *counts.entry(c.subject().to_owned()).or_default() += 1;
            }
        }
        counts
    }

    fn kind_watermarks(&self) -> Vec<KindWatermark> {
        let mut by_kind: BTreeMap<ContextKind, Vec<(LogicalTime, ContextId, &Context)>> =
            BTreeMap::new();
        for (id, c) in &self.ctxs {
            let live = by_kind.entry(c.kind().clone()).or_default();
            if c.state() != ContextState::Inconsistent {
                live.push((c.stamp(), *id, c));
            }
        }
        by_kind
            .into_iter()
            .map(|(kind, mut live)| {
                live.sort_by_key(|&(stamp, id, _)| (stamp, id));
                let oldest = live.first().map(|&(_, _, c)| c);
                KindWatermark {
                    kind,
                    live: live.len(),
                    oldest_stamp: oldest.map(Context::stamp),
                    oldest_ttl: oldest
                        .and_then(|c| Some((c.lifespan().expires_at()? - c.stamp()).count())),
                }
            })
            .collect()
    }

    fn signature(&self) -> Vec<(ContextKind, String, LogicalTime, ContextState)> {
        let mut sig: Vec<_> = self
            .ctxs
            .iter()
            .map(|(_, c)| {
                (
                    c.kind().clone(),
                    c.subject().to_owned(),
                    c.stamp(),
                    c.state(),
                )
            })
            .collect();
        sig.sort_by(|a, b| (&a.0, &a.1, a.2, a.3 as u8).cmp(&(&b.0, &b.1, b.2, b.3 as u8)));
        sig
    }

    fn stats(&self) -> PoolStats {
        let mut s = PoolStats {
            inserted: self.inserted,
            stored: self.ctxs.len(),
            ..PoolStats::default()
        };
        for (_, c) in &self.ctxs {
            match c.state() {
                ContextState::Undecided => s.undecided += 1,
                ContextState::Consistent => s.consistent += 1,
                ContextState::Bad => s.bad += 1,
                ContextState::Inconsistent => s.inconsistent += 1,
            }
        }
        s
    }
}

fn build(spec: &Spec, clock: &mut LogicalTime) -> Context {
    clock.advance();
    let stamp = LogicalTime::new(clock.tick().saturating_sub(u64::from(spec.lag)));
    let mut builder =
        Context::builder(kind_name(spec.kind), &format!("s{}", spec.subject)).stamp(stamp);
    if let Some(t) = spec.ttl {
        builder = builder.lifespan(Lifespan::with_ttl(stamp, Ticks::new(u64::from(t))));
    }
    builder.build()
}

fn route(c: &Context) -> usize {
    c.subject().bytes().map(usize::from).sum()
}

/// Every read view of `pool` equals the model's.
fn assert_matches(pool: &ContextPool, model: &Model) -> Result<(), String> {
    let ids = |it: &mut dyn Iterator<Item = (ContextId, &Context)>| -> Vec<ContextId> {
        it.map(|(id, _)| id).collect()
    };
    for k in 0..3u8 {
        let kind = kind_name(k);
        prop_assert_eq!(
            ids(&mut pool.of_kind(&kind)),
            model.live_ids(|c| c.kind() == &kind),
            "of_kind {:?}",
            kind
        );
        for s in 0..12u8 {
            let subject = format!("s{s}");
            prop_assert_eq!(
                ids(&mut pool.of_subject(&kind, &subject)),
                model.live_ids(|c| c.kind() == &kind && c.subject() == subject),
                "of_subject {:?} {}",
                kind,
                subject
            );
        }
    }
    prop_assert_eq!(pool.subject_counts(), model.subject_counts());
    prop_assert_eq!(pool.kind_watermarks(), model.kind_watermarks());
    prop_assert_eq!(pool.signature(), model.signature());
    prop_assert_eq!(pool.stats(), model.stats());
    prop_assert_eq!(pool.live_slots(), model.ctxs.len());
    prop_assert_eq!(pool.free_slots(), model.slots - model.ctxs.len());
    prop_assert_eq!(pool.slot_recycles(), model.recycles);
    let arrival: Vec<(ContextId, Context)> = pool.iter().map(|(id, c)| (id, c.clone())).collect();
    prop_assert!(arrival == model.ctxs, "iter() order or contents differ");
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// The indexed pool is observationally a plain list: after every
    /// operation — single and batched inserts with out-of-order stamps,
    /// removals, discards, compaction, expiry sweeps, and a split and
    /// re-merge — every view agrees with a naive model that filters and
    /// sorts on each read.
    #[test]
    fn pool_matches_reference_model(ops in proptest::collection::vec(pool_op(), 1..160)) {
        let mut pool = ContextPool::new();
        let mut model = Model::default();
        let mut clock = LogicalTime::ZERO;
        let mut issued: Vec<ContextId> = Vec::new();
        for op in ops {
            let pick = |target: u8| issued.get(usize::from(target) % issued.len().max(1)).copied();
            match op {
                PoolOp::Insert(spec) => {
                    let ctx = build(&spec, &mut clock);
                    let id = pool.insert(ctx.clone());
                    prop_assert_eq!(id, model.insert(ctx));
                    issued.push(id);
                }
                PoolOp::InsertBatch(specs) => {
                    let batch: Vec<Context> = specs.iter().map(|s| build(s, &mut clock)).collect();
                    let expected: Vec<ContextId> =
                        batch.iter().map(|c| model.insert(c.clone())).collect();
                    let got = pool.insert_batch(batch);
                    prop_assert_eq!(&got, &expected);
                    issued.extend(got);
                }
                PoolOp::Remove { target } => {
                    if let Some(id) = pick(target) {
                        let at = model.ctxs.iter().position(|(i, _)| *i == id);
                        let expected = at.map(|at| model.ctxs.remove(at).1);
                        model.recycles += u64::from(expected.is_some());
                        prop_assert_eq!(pool.remove(id), expected);
                    }
                }
                PoolOp::SetState { target, state } => {
                    if let Some(id) = pick(target) {
                        let legal = model
                            .ctxs
                            .iter_mut()
                            .find(|(i, _)| *i == id)
                            .is_some_and(|(_, c)| c.set_state(state).is_ok());
                        prop_assert_eq!(pool.set_state(id, state).is_ok(), legal);
                    }
                }
                PoolOp::Discard { target } => {
                    if let Some(id) = pick(target) {
                        let entry = model.ctxs.iter_mut().find(|(i, _)| *i == id);
                        prop_assert_eq!(pool.discard(id).is_ok(), entry.is_some());
                        // The model cannot force a state; it adopts the
                        // pool's copy once only the state differs.
                        if let Some((_, c)) = entry {
                            let after = pool.get(id).expect("discard keeps the context").clone();
                            prop_assert_eq!(after.state(), ContextState::Inconsistent);
                            prop_assert_eq!(
                                (after.kind(), after.subject(), after.stamp(), after.lifespan()),
                                (c.kind(), c.subject(), c.stamp(), c.lifespan())
                            );
                            *c = after;
                        }
                    }
                }
                PoolOp::Compact { at } => {
                    let horizon = LogicalTime::new(u64::from(at));
                    let before = model.ctxs.len();
                    model.remove_where(|c| {
                        c.stamp() < horizon
                            && (c.state() == ContextState::Inconsistent || !c.is_live(horizon))
                    });
                    prop_assert_eq!(pool.compact(horizon), before - model.ctxs.len());
                }
                PoolOp::Sweep { at } => {
                    let now = LogicalTime::new(u64::from(at));
                    let before = model.ctxs.len();
                    model.remove_where(|c| !c.is_live(now) && c.state() != ContextState::Inconsistent);
                    prop_assert_eq!(pool.sweep_expired(now), before - model.ctxs.len());
                }
                PoolOp::SplitAbsorb { parts } => {
                    let n = usize::from(parts);
                    let mut shards = std::mem::take(&mut pool).split_by(n, route).into_iter();
                    pool = shards.next().expect("at least one part");
                    for shard in shards {
                        pool.absorb(shard);
                    }
                    // Ids are reassigned shard by shard, each in arrival
                    // order, and the merged pool starts a fresh arena.
                    let mut old = std::mem::take(&mut model.ctxs);
                    old.sort_by_key(|(id, c)| (route(c) % n, *id));
                    model = Model::default();
                    for (_, c) in old {
                        model.insert(c);
                    }
                    issued = model.ctxs.iter().map(|(id, _)| *id).collect();
                }
            }
            assert_matches(&pool, &model)?;
        }
    }
}

proptest! {

    /// Pool invariants hold under arbitrary operation sequences:
    /// index views agree with a straight scan, discarded contexts leave
    /// live views, available contexts are exactly the consistent live
    /// ones, and state transitions never corrupt storage.
    #[test]
    fn pool_invariants_under_random_ops(ops in proptest::collection::vec(op(), 1..60)) {
        let mut pool = ContextPool::new();
        let mut clock = LogicalTime::ZERO;
        let mut inserted: Vec<ContextId> = Vec::new();
        for op in ops {
            match op {
                Op::Insert { kind, subject, ttl } => {
                    clock.advance();
                    let mut builder = Context::builder(kind_name(kind), &format!("s{subject}"))
                        .stamp(clock);
                    if let Some(t) = ttl {
                        builder = builder.lifespan(Lifespan::with_ttl(clock, Ticks::new(u64::from(t))));
                    }
                    let id = pool.insert(builder.build());
                    prop_assert!(inserted.last().map(|last| *last < id).unwrap_or(true),
                        "ids must be monotonic");
                    inserted.push(id);
                }
                Op::SetState { target, state } => {
                    if let Some(id) = inserted.get(usize::from(target) % inserted.len().max(1)) {
                        let before = pool.get(*id).map(|c| c.state());
                        let result = pool.set_state(*id, state);
                        if let Some(before) = before {
                            // Result agrees with the life-cycle table.
                            prop_assert_eq!(result.is_ok(), before.transition(state).is_ok());
                        }
                    }
                }
                Op::Discard { target } => {
                    if let Some(id) = inserted.get(usize::from(target) % inserted.len().max(1)) {
                        if pool.contains(*id) {
                            pool.discard(*id).unwrap();
                            prop_assert_eq!(pool.get(*id).unwrap().state(), ContextState::Inconsistent);
                        }
                    }
                }
                Op::Remove { target } => {
                    if let Some(id) = inserted.get(usize::from(target) % inserted.len().max(1)) {
                        pool.remove(*id);
                        prop_assert!(pool.get(*id).is_none());
                    }
                }
                Op::Sweep { at } => {
                    let now = LogicalTime::new(u64::from(at));
                    pool.sweep_expired(now);
                    // After a sweep at `now >= clock`, no live-at-now view
                    // may contain expired contexts (trivially true since
                    // they were removed).
                    for k in 0..3u8 {
                        for (_, c) in pool.of_kind_live_at(&kind_name(k), now) {
                            prop_assert!(c.is_live(now));
                        }
                    }
                }
            }

            // Global invariants after every operation.
            let scan: Vec<ContextId> = pool.iter().map(|(id, _)| id).collect();
            prop_assert_eq!(scan.len(), pool.len());
            for k in 0..3u8 {
                let kind = kind_name(k);
                for (id, c) in pool.of_kind(&kind) {
                    prop_assert_eq!(c.kind(), &kind);
                    prop_assert!(c.state() != ContextState::Inconsistent);
                    prop_assert!(pool.contains(id));
                }
            }
            for (id, c) in pool.available_at(clock) {
                prop_assert_eq!(c.state(), ContextState::Consistent);
                prop_assert!(c.is_live(clock));
                prop_assert!(pool.contains(id));
            }
            let stats = pool.stats();
            prop_assert_eq!(
                stats.consistent + stats.undecided + stats.bad + stats.inconsistent,
                stats.stored
            );
        }
    }

    /// The four-state machine: any sequence of transitions keeps every
    /// context on a legal Fig. 8 path (at most one bad detour, ending in
    /// a terminal state or still undecided).
    #[test]
    fn life_cycle_paths_are_legal(
        steps in proptest::collection::vec(
            prop_oneof![
                Just(ContextState::Consistent),
                Just(ContextState::Bad),
                Just(ContextState::Inconsistent),
            ],
            0..6,
        )
    ) {
        let mut ctx = Context::builder(ContextKind::new("k"), "s").build();
        let mut path = vec![ctx.state()];
        for next in steps {
            if ctx.set_state(next).is_ok() {
                path.push(next);
            }
        }
        // Legal paths: U, U-C, U-B, U-I, U-B-I.
        let rendered: Vec<String> = path.iter().map(|s| s.to_string()).collect();
        let p = rendered.join("-");
        prop_assert!(
            matches!(
                p.as_str(),
                "undecided"
                    | "undecided-consistent"
                    | "undecided-bad"
                    | "undecided-inconsistent"
                    | "undecided-bad-inconsistent"
            ),
            "illegal path {p}"
        );
    }
}
