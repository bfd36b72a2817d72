//! The context pool: arena-backed, indexed storage of managed contexts.

use crate::context::{Context, ContextId, ContextKind};
use crate::error::ContextError;
use crate::state::ContextState;
use crate::time::LogicalTime;
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

/// Counters describing a pool's contents.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PoolStats {
    /// Total contexts ever inserted.
    pub inserted: u64,
    /// Contexts currently stored (any state).
    pub stored: usize,
    /// Contexts in the `Consistent` state.
    pub consistent: usize,
    /// Contexts in the `Undecided` state.
    pub undecided: usize,
    /// Contexts in the `Bad` state.
    pub bad: usize,
    /// Contexts in the `Inconsistent` (discarded) state.
    pub inconsistent: usize,
}

/// Per-kind occupancy watermark: how many live contexts a kind bucket
/// holds and how old the oldest of them is — the raw material for the
/// staleness estimators in the observability layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KindWatermark {
    /// The kind the watermark describes.
    pub kind: ContextKind,
    /// Live (not `Inconsistent`) contexts of the kind.
    pub live: usize,
    /// Stamp of the oldest live context, when one exists.
    pub oldest_stamp: Option<LogicalTime>,
    /// Time-to-live of the oldest live context, in ticks
    /// (`expires_at - stamp`); `None` when it never expires.
    pub oldest_ttl: Option<u64>,
}

/// Sentinel in the id → slot table for a removed context.
const NO_SLOT: u32 = u32::MAX;

/// A generational reference into the slot arena. A handle is live only
/// while the slot's generation still matches: removing a context bumps
/// its slot's generation, instantly invalidating every outstanding
/// handle to it, and slot reuse hands the new occupant a fresh
/// generation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct SlotHandle {
    slot: u32,
    generation: u32,
}

/// Secondary index for one context kind: every stored context of the
/// kind, plus a per-subject sub-index. Both vectors hold generational
/// slot handles ordered by `(stamp, id)` — for in-order arrivals that
/// is plain append, an out-of-order stamp pays one shifted insert.
///
/// A subject vector holds exactly the kind's stored contexts about its
/// subject: removal unlinks the handle at once. `all` is unlinked
/// lazily: a removed context's handle stays behind, dead (its slot's
/// generation has moved on), and iteration skips it. Once dead handles
/// reach the stored count, one order-preserving `retain` drops them
/// all, so `all` never holds more than about twice the stored contexts
/// and the sweep costs amortised O(1) per removal.
#[derive(Debug, Default, Clone)]
struct KindBucket {
    all: Vec<SlotHandle>,
    /// Contexts of the kind currently stored; the other
    /// `all.len() - stored` handles in `all` are dead.
    stored: usize,
    /// Keyed by the contexts' shared subject `Arc` so lookups can borrow
    /// the caller's `&str` — a flat `(ContextKind, String)` key would
    /// force a key clone per lookup.
    by_subject: HashMap<Arc<str>, Vec<SlotHandle>>,
}

impl KindBucket {
    /// Pops the dead handles off the end of `all`. A dead handle's slot
    /// may already hold another context, so its key no longer says where
    /// it sat, and a batch's sort-merge ([`repair_tail`]) compares its
    /// first handle against the last one before it.
    fn pop_dead_tail(&mut self, generations: &[u32]) {
        while self
            .all
            .last()
            .is_some_and(|h| generations[h.slot as usize] != h.generation)
        {
            self.all.pop();
        }
    }

    /// Drops every dead handle from `all`, keeping the live ones' order.
    fn drop_dead(&mut self, generations: &[u32]) {
        self.all
            .retain(|h| generations[h.slot as usize] == h.generation);
    }
}

/// Indexed storage for the contexts a middleware manages.
///
/// The pool assigns [`ContextId`]s in arrival order and stores contexts
/// in a slot **arena** with parallel columns (payload, id, stamp,
/// generation) — a struct-of-arrays layout in which an id lookup is one
/// dense-table index instead of a tree walk, and the kind /
/// `(kind, subject)` secondary indexes hold generational slot handles,
/// so `of_kind` / `of_subject` iteration touches exactly the bucket, in
/// deterministic `(stamp, id)` order, with zero allocation. Discarded
/// (`Inconsistent`) contexts stay stored for post-mortem metrics but are
/// excluded from the live views that constraints quantify over.
///
/// ```
/// use ctxres_context::{Context, ContextKind, ContextPool, LogicalTime};
///
/// let mut pool = ContextPool::new();
/// let kind = ContextKind::new("location");
/// let id = pool.insert(Context::builder(kind.clone(), "peter").stamp(LogicalTime::new(1)).build());
/// assert_eq!(pool.of_kind(&kind).count(), 1);
/// assert_eq!(pool.get(id).unwrap().subject(), "peter");
/// ```
#[derive(Debug, Default, Clone)]
pub struct ContextPool {
    /// Payload column; `None` marks a free slot awaiting reuse.
    payloads: Vec<Option<Context>>,
    /// Id column, parallel to `payloads` (stale for free slots).
    slot_ids: Vec<ContextId>,
    /// Stamp column, parallel to `payloads` — index ordering reads it
    /// without touching the payload (stale for free slots).
    slot_stamps: Vec<LogicalTime>,
    /// Generation column, parallel to `payloads`; bumped on removal.
    generations: Vec<u32>,
    /// Free slots available for reuse.
    free: Vec<u32>,
    /// Dense id → slot table, indexed by `raw id - id_base`
    /// ([`NO_SLOT`] once removed). Ids are pool-assigned and never
    /// reused. The entries before `id_head` are all removed; once they
    /// are half the table they are cut off, so the table spans at most
    /// about twice the ids from the oldest stored context to the newest.
    /// A context that is never removed pins every id after it.
    id_slots: Vec<u32>,
    /// Raw id of `id_slots[0]`.
    id_base: u64,
    /// Index of the first `id_slots` entry still naming a slot, or
    /// `id_slots.len()` when none does.
    id_head: usize,
    by_kind: HashMap<ContextKind, KindBucket>,
    next_id: u64,
    inserted: u64,
    stored: usize,
    /// Lifetime count of slot generation bumps (slot recycles): every
    /// removal invalidates a slot and returns it to the free list
    /// (unless its generations are used up).
    recycles: u64,
    /// Index handles the removal path has touched, for the tests that
    /// prove removal cost independent of the kind's size.
    #[cfg(test)]
    handle_visits: u64,
}

/// Inserts a fresh `handle` into `index` after the last live handle
/// that sorts before it by `(stamp, id)`. A dead handle's key is not
/// trusted (its slot may hold another context by now), so instead of a
/// binary search the walk goes back from the end past dead handles and
/// later stamps: one step for in-order arrivals (the overwhelmingly
/// common case), and never further than the shift the insert pays.
fn index_insert(
    index: &mut Vec<SlotHandle>,
    stamps: &[LogicalTime],
    ids: &[ContextId],
    generations: &[u32],
    handle: SlotHandle,
) {
    let key = |h: SlotHandle| (stamps[h.slot as usize], ids[h.slot as usize]);
    let target = key(handle);
    let at = index
        .iter()
        .rposition(|&h| generations[h.slot as usize] == h.generation && key(h) < target)
        .map_or(0, |i| i + 1);
    index.insert(at, handle);
}

/// Restores `(stamp, id)` order after a batch appended its handles
/// unsorted past `split`: sorts the tail (keys are unique, so unstable
/// is fine), then merges it with the sorted head — one sort-merge per
/// touched bucket per batch instead of a binary-searched memmove per
/// insert. In-order arrivals (the overwhelmingly common case) take the
/// boundary-comparison fast path and touch nothing.
///
/// The head's last handle must be live; the merge drops the head's dead
/// handles, whose keys may no longer be valid.
fn repair_tail(
    index: &mut Vec<SlotHandle>,
    stamps: &[LogicalTime],
    ids: &[ContextId],
    generations: &[u32],
    split: usize,
) {
    let key = |h: SlotHandle| (stamps[h.slot as usize], ids[h.slot as usize]);
    if index.len() - split > 1 {
        let tail = &index[split..];
        if tail.windows(2).any(|w| key(w[0]) > key(w[1])) {
            index[split..].sort_unstable_by_key(|&h| key(h));
        }
    }
    if split == 0 || index.len() == split || key(index[split - 1]) <= key(index[split]) {
        return;
    }
    let tail = index.split_off(split);
    let head = std::mem::take(index);
    index.reserve(head.len() + tail.len());
    let mut head = head
        .into_iter()
        .filter(|h| generations[h.slot as usize] == h.generation)
        .peekable();
    let mut tail = tail.into_iter().peekable();
    loop {
        match (head.peek(), tail.peek()) {
            (Some(&a), Some(&b)) => {
                if key(a) <= key(b) {
                    index.push(a);
                    head.next();
                } else {
                    index.push(b);
                    tail.next();
                }
            }
            (Some(_), None) => {
                index.extend(head);
                break;
            }
            (None, _) => {
                index.extend(tail);
                break;
            }
        }
    }
}

impl ContextPool {
    /// Creates an empty pool.
    pub fn new() -> Self {
        ContextPool::default()
    }

    /// Inserts a context, assigning it the next arrival-ordered id.
    pub fn insert(&mut self, ctx: Context) -> ContextId {
        let kind = ctx.kind().clone();
        let subject = Arc::clone(ctx.subject_arc());
        let (id, handle) = self.arena_insert(ctx);
        let bucket = self.by_kind.entry(kind).or_default();
        let (stamps, ids, generations) = (&self.slot_stamps, &self.slot_ids, &self.generations);
        index_insert(&mut bucket.all, stamps, ids, generations, handle);
        bucket.stored += 1;
        let handles = bucket.by_subject.entry(subject).or_default();
        index_insert(handles, stamps, ids, generations, handle);
        id
    }

    /// The arena half of an insertion: id assignment, slot placement
    /// (free-list reuse or growth), and the id → slot table append.
    /// Shared by [`ContextPool::insert`] (which then orders the index
    /// entries immediately) and [`ContextPool::insert_batch`] (which
    /// defers ordering to one repair per touched bucket).
    fn arena_insert(&mut self, ctx: Context) -> (ContextId, SlotHandle) {
        let id = ContextId::from_raw(self.next_id);
        self.next_id += 1;
        self.inserted += 1;
        self.stored += 1;
        let stamp = ctx.stamp();
        let slot = match self.free.pop() {
            Some(slot) => {
                let i = slot as usize;
                self.payloads[i] = Some(ctx);
                self.slot_ids[i] = id;
                self.slot_stamps[i] = stamp;
                slot
            }
            None => {
                let slot = u32::try_from(self.payloads.len()).expect("pool slot count overflow");
                self.payloads.push(Some(ctx));
                self.slot_ids.push(id);
                self.slot_stamps.push(stamp);
                self.generations.push(0);
                slot
            }
        };
        self.id_slots.push(slot);
        let handle = SlotHandle {
            slot,
            generation: self.generations[slot as usize],
        };
        (id, handle)
    }

    /// Inserts a whole batch with deferred index maintenance: every
    /// context takes the same arena path as [`ContextPool::insert`] (so
    /// ids, slots, and generations come out identical), but its index
    /// handles are appended **unsorted**, and each touched kind /
    /// kind×subject bucket's `(stamp, id)` order is restored by one
    /// sort-merge per bucket per batch ([`repair_tail`]) instead of a
    /// binary-searched memmove per insert. The final pool state is
    /// byte-identical to inserting the contexts one by one.
    pub fn insert_batch(&mut self, batch: impl IntoIterator<Item = Context>) -> Vec<ContextId> {
        // Each touched vector's pre-batch length is its repair split
        // point: everything past it is this batch's unsorted tail.
        let mut all_splits: HashMap<ContextKind, usize> = HashMap::new();
        let mut subject_splits: HashMap<(ContextKind, Arc<str>), usize> = HashMap::new();
        let batch = batch.into_iter();
        let mut ids = Vec::with_capacity(batch.size_hint().0);
        for ctx in batch {
            let kind = ctx.kind().clone();
            let subject = Arc::clone(ctx.subject_arc());
            let (id, handle) = self.arena_insert(ctx);
            ids.push(id);
            let bucket = self.by_kind.entry(kind.clone()).or_default();
            all_splits.entry(kind.clone()).or_insert_with(|| {
                bucket.pop_dead_tail(&self.generations);
                bucket.all.len()
            });
            bucket.stored += 1;
            let handles = bucket.by_subject.entry(Arc::clone(&subject)).or_default();
            subject_splits
                .entry((kind, subject))
                .or_insert(handles.len());
            handles.push(handle);
            bucket.all.push(handle);
        }
        let (stamps, slot_ids, generations) =
            (&self.slot_stamps, &self.slot_ids, &self.generations);
        for (kind, split) in all_splits {
            if let Some(bucket) = self.by_kind.get_mut(&kind) {
                repair_tail(&mut bucket.all, stamps, slot_ids, generations, split);
            }
        }
        for ((kind, subject), split) in subject_splits {
            if let Some(handles) = self
                .by_kind
                .get_mut(&kind)
                .and_then(|b| b.by_subject.get_mut(&subject))
            {
                repair_tail(handles, stamps, slot_ids, generations, split);
            }
        }
        ids
    }

    fn slot_of(&self, id: ContextId) -> Option<usize> {
        let at = usize::try_from(id.raw().checked_sub(self.id_base)?).ok()?;
        let slot = *self.id_slots.get(at)?;
        (slot != NO_SLOT).then_some(slot as usize)
    }

    /// Resolves a handle to its slot index if the generation still
    /// matches (i.e. the context it was issued for is still stored).
    fn resolve(&self, handle: SlotHandle) -> Option<usize> {
        let i = handle.slot as usize;
        (self.generations[i] == handle.generation).then_some(i)
    }

    /// Looks up a context by id.
    pub fn get(&self, id: ContextId) -> Option<&Context> {
        self.payloads[self.slot_of(id)?].as_ref()
    }

    /// Looks up a context mutably by id.
    pub fn get_mut(&mut self, id: ContextId) -> Option<&mut Context> {
        let slot = self.slot_of(id)?;
        self.payloads[slot].as_mut()
    }

    /// Whether `id` refers to a stored context.
    pub fn contains(&self, id: ContextId) -> bool {
        self.slot_of(id).is_some()
    }

    /// Number of stored contexts (any state).
    pub fn len(&self) -> usize {
        self.stored
    }

    /// Whether the pool stores no contexts.
    pub fn is_empty(&self) -> bool {
        self.stored == 0
    }

    /// Iterates over all stored contexts in arrival order.
    pub fn iter(&self) -> impl Iterator<Item = (ContextId, &Context)> {
        self.id_slots[self.id_head..]
            .iter()
            .filter(|&&slot| slot != NO_SLOT)
            .map(move |&slot| {
                let i = slot as usize;
                (
                    self.slot_ids[i],
                    self.payloads[i].as_ref().expect("occupied slot"),
                )
            })
    }

    /// Iterates a handle index, yielding live (not `Inconsistent`)
    /// contexts in the index's `(stamp, id)` order.
    fn iter_index<'a>(
        &'a self,
        index: Option<&'a [SlotHandle]>,
    ) -> impl Iterator<Item = (ContextId, &'a Context)> + 'a {
        index.into_iter().flatten().filter_map(move |&h| {
            let i = self.resolve(h)?;
            let c = self.payloads[i].as_ref()?;
            (c.state() != ContextState::Inconsistent).then_some((self.slot_ids[i], c))
        })
    }

    /// Iterates over *live* contexts of `kind` in `(stamp, id)` order.
    ///
    /// Live means: not discarded (`Inconsistent`). Constraints quantify
    /// over this view. Expired contexts are skipped by
    /// [`ContextPool::of_kind_live_at`]; this method ignores expiry.
    pub fn of_kind<'a>(
        &'a self,
        kind: &ContextKind,
    ) -> impl Iterator<Item = (ContextId, &'a Context)> + 'a {
        self.iter_index(self.by_kind.get(kind).map(|b| b.all.as_slice()))
    }

    /// Iterates over live, unexpired contexts of `kind` at instant `now`.
    pub fn of_kind_live_at<'a>(
        &'a self,
        kind: &ContextKind,
        now: LogicalTime,
    ) -> impl Iterator<Item = (ContextId, &'a Context)> + 'a {
        self.of_kind(kind).filter(move |(_, c)| c.is_live(now))
    }

    /// Iterates over live contexts of `kind` about `subject`, in
    /// `(stamp, id)` order.
    pub fn of_subject<'a>(
        &'a self,
        kind: &ContextKind,
        subject: &str,
    ) -> impl Iterator<Item = (ContextId, &'a Context)> + 'a {
        self.iter_index(
            self.by_kind
                .get(kind)
                .and_then(|b| b.by_subject.get(subject))
                .map(Vec::as_slice),
        )
    }

    /// Iterates over live, unexpired contexts of `kind` about `subject`
    /// at instant `now` — the domain a subject-scoped constraint check
    /// quantifies over instead of the whole kind.
    pub fn of_subject_live_at<'a>(
        &'a self,
        kind: &ContextKind,
        subject: &str,
        now: LogicalTime,
    ) -> impl Iterator<Item = (ContextId, &'a Context)> + 'a {
        self.of_subject(kind, subject)
            .filter(move |(_, c)| c.is_live(now))
    }

    /// Live (non-discarded) context count per subject, across all kinds
    /// — the per-shard load histogram hot-shard rebalancing consumes.
    pub fn subject_counts(&self) -> BTreeMap<String, usize> {
        let mut counts: BTreeMap<String, usize> = BTreeMap::new();
        for bucket in self.by_kind.values() {
            for (subject, handles) in &bucket.by_subject {
                let live = handles
                    .iter()
                    .filter(|&&h| {
                        self.resolve(h)
                            .and_then(|i| self.payloads[i].as_ref())
                            .is_some_and(|c| c.state() != ContextState::Inconsistent)
                    })
                    .count();
                if live > 0 {
                    *counts.entry(subject.to_string()).or_default() += live;
                }
            }
        }
        counts
    }

    /// Iterates over the contexts currently *available* to applications
    /// (`Consistent` and unexpired), in arrival order.
    pub fn available_at<'a>(
        &'a self,
        now: LogicalTime,
    ) -> impl Iterator<Item = (ContextId, &'a Context)> + 'a {
        self.iter()
            .filter(move |(_, c)| c.state().is_available() && c.is_live(now))
    }

    /// The most recent available context of `kind` about `subject`.
    pub fn latest_available(
        &self,
        kind: &ContextKind,
        subject: &str,
        now: LogicalTime,
    ) -> Option<(ContextId, &Context)> {
        self.of_subject(kind, subject)
            .filter(|(_, c)| c.state().is_available() && c.is_live(now))
            .last()
    }

    /// Transitions a context's state, enforcing the life cycle.
    ///
    /// # Errors
    ///
    /// [`ContextError::UnknownContext`] when `id` is absent;
    /// [`ContextError::IllegalTransition`] when the life cycle forbids it.
    pub fn set_state(&mut self, id: ContextId, next: ContextState) -> Result<(), ContextError> {
        self.get_mut(id)
            .ok_or(ContextError::UnknownContext(id))?
            .set_state(next)
    }

    /// Discards a context unconditionally, setting it `Inconsistent`
    /// regardless of its current state.
    ///
    /// The four-state life cycle of Fig. 8 belongs to the drop-bad
    /// strategy; the eager baseline strategies (drop-all in particular)
    /// discard contexts that were already delivered (`Consistent`), a
    /// transition the strict [`ContextPool::set_state`] rejects. This
    /// method is their escape hatch. Idempotent on already-discarded
    /// contexts.
    ///
    /// # Errors
    ///
    /// [`ContextError::UnknownContext`] when `id` is absent.
    pub fn discard(&mut self, id: ContextId) -> Result<(), ContextError> {
        self.get_mut(id)
            .ok_or(ContextError::UnknownContext(id))?
            .force_state(ContextState::Inconsistent);
        Ok(())
    }

    /// Physically removes the contexts selected by `doom`, one
    /// [`Self::remove`] each.
    ///
    /// Scans occupied slots directly rather than going through
    /// [`Self::iter`]: the slot arrays stay sized to the stored
    /// population, while the id table spans the ids since the oldest
    /// stored context, which one long-lived context can stretch to
    /// every insert made since. Removal needs no particular order.
    fn remove_where(&mut self, doom: impl Fn(&Context) -> bool) -> usize {
        let doomed: Vec<ContextId> = self
            .payloads
            .iter()
            .zip(&self.slot_ids)
            .filter_map(|(payload, &id)| payload.as_ref().filter(|c| doom(c)).map(|_| id))
            .collect();
        for &id in &doomed {
            self.remove(id);
        }
        doomed.len()
    }

    /// Compacts the pool for long-running deployments: physically
    /// removes contexts stamped before `horizon` that are no longer
    /// useful — discarded (`Inconsistent`) ones and expired ones. Live
    /// and undecided recent contexts are untouched. Returns how many
    /// were removed.
    pub fn compact(&mut self, horizon: LogicalTime) -> usize {
        self.remove_where(|c| {
            c.stamp() < horizon && (c.state() == ContextState::Inconsistent || !c.is_live(horizon))
        })
    }

    /// Removes expired contexts from the pool and returns how many were
    /// dropped. Discarded contexts are kept regardless (for metrics).
    pub fn sweep_expired(&mut self, now: LogicalTime) -> usize {
        self.remove_where(|c| !c.is_live(now) && c.state() != ContextState::Inconsistent)
    }

    /// Physically removes a context and its index entries: the one
    /// removal routine behind [`Self::compact`], [`Self::sweep_expired`]
    /// and shard migration. Costs a binary search plus a shift of the
    /// context's own subject vector and amortised O(1) for `all` (see
    /// [`KindBucket`]); nothing scales with the kind's other subjects.
    pub fn remove(&mut self, id: ContextId) -> Option<Context> {
        let slot = self.slot_of(id)?;
        let handle = SlotHandle {
            slot: slot as u32,
            generation: self.generations[slot],
        };
        let ctx = self.payloads[slot].take().expect("occupied slot");
        self.forget_id(id);
        // A dead handle may wait in `all` for its bucket's next
        // compaction while other kinds recycle its slot many times, so
        // a slot whose generation is used up is retired, not recycled:
        // generations never wrap, and a dead handle never comes back.
        self.generations[slot] += 1;
        if self.generations[slot] != u32::MAX {
            self.free.push(slot as u32);
        }
        self.stored -= 1;
        self.recycles += 1;
        self.unlink(&ctx, handle);
        Some(ctx)
    }

    /// Marks `id` removed in the id table, advances `id_head` past the
    /// removed run it may complete, and cuts that run off once it is
    /// half the table — amortised O(1).
    fn forget_id(&mut self, id: ContextId) {
        let at = (id.raw() - self.id_base) as usize;
        self.id_slots[at] = NO_SLOT;
        if at == self.id_head {
            self.id_head += self.id_slots[at..]
                .iter()
                .take_while(|&&s| s == NO_SLOT)
                .count();
            if 2 * self.id_head >= self.id_slots.len() {
                self.id_slots.drain(..self.id_head);
                self.id_base += self.id_head as u64;
                self.id_head = 0;
            }
        }
    }

    /// Takes the just-released `handle` of `ctx` out of its kind's
    /// index: out of its subject vector at once, out of `all` at the
    /// bucket's next compaction (see [`KindBucket`]).
    fn unlink(&mut self, ctx: &Context, handle: SlotHandle) {
        let bucket = self
            .by_kind
            .get_mut(ctx.kind())
            .expect("a stored context has a kind bucket");
        bucket.stored -= 1;
        if bucket.stored == 0 {
            self.by_kind.remove(ctx.kind());
            return;
        }
        // The slot keeps its stamp and id until reuse, and the subject
        // vector holds live handles only, so every key is valid.
        let (stamps, ids) = (&self.slot_stamps, &self.slot_ids);
        let key = |h: SlotHandle| (stamps[h.slot as usize], ids[h.slot as usize]);
        let handles = bucket
            .by_subject
            .get_mut(ctx.subject())
            .expect("a stored context has a subject vector");
        let mut visited = handles.len();
        let target = key(handle);
        let at = handles.partition_point(|&h| key(h) < target);
        debug_assert_eq!(handles.get(at), Some(&handle));
        handles.remove(at);
        if handles.is_empty() {
            bucket.by_subject.remove(ctx.subject());
        }
        if bucket.all.len() - bucket.stored >= bucket.stored {
            visited += bucket.all.len();
            bucket.drop_dead(&self.generations);
        }
        self.count_visits(visited);
    }

    /// Adds to the handle-visit count the scaling tests read; a no-op
    /// outside tests.
    #[inline]
    fn count_visits(&mut self, _visited: usize) {
        #[cfg(test)]
        {
            self.handle_visits += _visited as u64;
        }
    }

    /// Consumes the pool, yielding its contexts in arrival order.
    fn drain_arrival_order(mut self) -> impl Iterator<Item = Context> {
        let id_slots = std::mem::take(&mut self.id_slots);
        id_slots
            .into_iter()
            .filter(|&slot| slot != NO_SLOT)
            .map(move |slot| self.payloads[slot as usize].take().expect("occupied slot"))
    }

    /// Splits the pool into `n` pools by a routing function over the
    /// contexts (e.g. a subject hash for a sharded middleware). Context
    /// ids are reassigned per target pool, preserving arrival order
    /// within each; states and attributes are kept.
    ///
    /// Routing indices are taken modulo `n`.
    ///
    /// # Panics
    ///
    /// Panics when `n` is zero.
    pub fn split_by(self, n: usize, mut route: impl FnMut(&Context) -> usize) -> Vec<ContextPool> {
        assert!(n > 0, "cannot split into zero pools");
        let mut out: Vec<ContextPool> = (0..n).map(|_| ContextPool::new()).collect();
        for ctx in self.drain_arrival_order() {
            let slot = route(&ctx) % n;
            out[slot].insert(ctx);
        }
        out
    }

    /// Merges another pool into this one, re-inserting its contexts in
    /// their arrival order (their ids are reassigned; states are kept).
    /// The inverse of [`ContextPool::split_by`] up to id renumbering.
    pub fn absorb(&mut self, other: ContextPool) {
        for ctx in other.drain_arrival_order() {
            self.insert(ctx);
        }
    }

    /// An id-free content fingerprint: one `(kind, subject, stamp,
    /// state)` entry per stored context, sorted. Two pools with equal
    /// signatures hold the same contexts in the same states, regardless
    /// of insertion order or id assignment — the determinism oracle the
    /// sharded-middleware tests compare against a single-threaded run.
    pub fn signature(&self) -> Vec<(ContextKind, String, LogicalTime, ContextState)> {
        let mut sig: Vec<_> = self
            .payloads
            .iter()
            .flatten()
            .map(|c| {
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

    /// Current statistics.
    pub fn stats(&self) -> PoolStats {
        let mut s = PoolStats {
            inserted: self.inserted,
            stored: self.stored,
            ..PoolStats::default()
        };
        for c in self.payloads.iter().flatten() {
            match c.state() {
                ContextState::Undecided => s.undecided += 1,
                ContextState::Consistent => s.consistent += 1,
                ContextState::Bad => s.bad += 1,
                ContextState::Inconsistent => s.inconsistent += 1,
            }
        }
        s
    }

    /// Occupied arena slots (== [`ContextPool::len`]): contexts
    /// currently stored, whatever their state.
    pub fn live_slots(&self) -> usize {
        self.stored
    }

    /// Arena slots on the free list, ready for reuse. `live + free`
    /// is the arena's high-water footprint.
    pub fn free_slots(&self) -> usize {
        self.free.len()
    }

    /// Lifetime count of slot recycles (generation bumps). A recycle
    /// happens on every removal; a count that grows while `live_slots`
    /// stays flat means the arena is turning slots over rather than
    /// growing — the healthy steady state.
    pub fn slot_recycles(&self) -> u64 {
        self.recycles
    }

    /// Per-kind occupancy watermarks: for each kind with a bucket, the
    /// live context count plus the stamp and TTL of the oldest live
    /// context (the bucket is `(stamp, id)`-sorted, so the first live
    /// handle is the oldest). Feeds the staleness estimators in the
    /// observability layer.
    pub fn kind_watermarks(&self) -> Vec<KindWatermark> {
        let mut marks: Vec<KindWatermark> = self
            .by_kind
            .iter()
            .map(|(kind, bucket)| {
                let mut live = 0usize;
                let mut oldest: Option<&Context> = None;
                for &h in &bucket.all {
                    let Some(i) = self.resolve(h) else { continue };
                    let Some(c) = self.payloads[i].as_ref() else {
                        continue;
                    };
                    if c.state() == ContextState::Inconsistent {
                        continue;
                    }
                    live += 1;
                    if oldest.is_none() {
                        oldest = Some(c);
                    }
                }
                KindWatermark {
                    kind: kind.clone(),
                    live,
                    oldest_stamp: oldest.map(|c| c.stamp()),
                    oldest_ttl: oldest.and_then(|c| {
                        let exp = c.lifespan().expires_at()?;
                        Some((exp - c.stamp()).count())
                    }),
                }
            })
            .collect();
        marks.sort_by(|a, b| a.kind.cmp(&b.kind));
        marks
    }
}

impl Extend<Context> for ContextPool {
    fn extend<T: IntoIterator<Item = Context>>(&mut self, iter: T) {
        for c in iter {
            self.insert(c);
        }
    }
}

impl FromIterator<Context> for ContextPool {
    fn from_iter<T: IntoIterator<Item = Context>>(iter: T) -> Self {
        let mut pool = ContextPool::new();
        pool.extend(iter);
        pool
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::{Lifespan, Ticks};

    fn loc(subject: &str, t: u64) -> Context {
        Context::builder(ContextKind::new("location"), subject)
            .stamp(LogicalTime::new(t))
            .build()
    }

    #[test]
    fn insert_assigns_monotonic_ids() {
        let mut pool = ContextPool::new();
        let a = pool.insert(loc("p", 1));
        let b = pool.insert(loc("p", 2));
        assert!(a < b);
        assert_eq!(pool.len(), 2);
    }

    #[test]
    fn kind_index_filters_by_kind() {
        let mut pool = ContextPool::new();
        pool.insert(loc("p", 1));
        pool.insert(Context::builder(ContextKind::new("rfid"), "tag").build());
        assert_eq!(pool.of_kind(&ContextKind::new("location")).count(), 1);
        assert_eq!(pool.of_kind(&ContextKind::new("rfid")).count(), 1);
        assert_eq!(pool.of_kind(&ContextKind::new("nope")).count(), 0);
    }

    #[test]
    fn subject_index_filters_by_subject() {
        let mut pool = ContextPool::new();
        pool.insert(loc("peter", 1));
        pool.insert(loc("mary", 2));
        pool.insert(loc("peter", 3));
        let kind = ContextKind::new("location");
        assert_eq!(pool.of_subject(&kind, "peter").count(), 2);
        assert_eq!(pool.of_subject(&kind, "mary").count(), 1);
    }

    #[test]
    fn discarded_contexts_leave_live_views() {
        let mut pool = ContextPool::new();
        let id = pool.insert(loc("p", 1));
        pool.set_state(id, ContextState::Inconsistent).unwrap();
        let kind = ContextKind::new("location");
        assert_eq!(pool.of_kind(&kind).count(), 0);
        assert_eq!(pool.of_subject(&kind, "p").count(), 0);
        assert!(pool.contains(id), "kept for metrics");
    }

    #[test]
    fn available_view_requires_consistent_and_live() {
        let mut pool = ContextPool::new();
        let now = LogicalTime::new(10);
        let fresh = pool.insert(loc("p", 9));
        let stale = pool.insert(
            Context::builder(ContextKind::new("location"), "p")
                .stamp(LogicalTime::new(1))
                .lifespan(Lifespan::with_ttl(LogicalTime::new(1), Ticks::new(2)))
                .build(),
        );
        pool.set_state(fresh, ContextState::Consistent).unwrap();
        pool.set_state(stale, ContextState::Consistent).unwrap();
        let avail: Vec<ContextId> = pool.available_at(now).map(|(id, _)| id).collect();
        assert_eq!(avail, vec![fresh]);
    }

    #[test]
    fn latest_available_picks_newest() {
        let mut pool = ContextPool::new();
        let a = pool.insert(loc("p", 1));
        let b = pool.insert(loc("p", 2));
        pool.set_state(a, ContextState::Consistent).unwrap();
        pool.set_state(b, ContextState::Consistent).unwrap();
        let kind = ContextKind::new("location");
        let (latest, _) = pool
            .latest_available(&kind, "p", LogicalTime::new(5))
            .unwrap();
        assert_eq!(latest, b);
    }

    #[test]
    fn sweep_expired_removes_dead_contexts() {
        let mut pool = ContextPool::new();
        pool.insert(
            Context::builder(ContextKind::new("location"), "p")
                .stamp(LogicalTime::new(0))
                .lifespan(Lifespan::with_ttl(LogicalTime::new(0), Ticks::new(3)))
                .build(),
        );
        pool.insert(loc("p", 1));
        assert_eq!(pool.sweep_expired(LogicalTime::new(10)), 1);
        assert_eq!(pool.len(), 1);
    }

    #[test]
    fn set_state_unknown_context_errors() {
        let mut pool = ContextPool::new();
        let err = pool.set_state(ContextId::from_raw(99), ContextState::Consistent);
        assert_eq!(
            err,
            Err(ContextError::UnknownContext(ContextId::from_raw(99)))
        );
    }

    #[test]
    fn remove_cleans_indexes() {
        let mut pool = ContextPool::new();
        let id = pool.insert(loc("p", 1));
        assert!(pool.remove(id).is_some());
        assert!(pool.remove(id).is_none());
        assert_eq!(pool.of_kind(&ContextKind::new("location")).count(), 0);
        assert!(pool.is_empty());
    }

    #[test]
    fn stats_count_states() {
        let mut pool = ContextPool::new();
        let a = pool.insert(loc("p", 1));
        let b = pool.insert(loc("p", 2));
        pool.insert(loc("p", 3));
        pool.set_state(a, ContextState::Consistent).unwrap();
        pool.set_state(b, ContextState::Bad).unwrap();
        let s = pool.stats();
        assert_eq!(s.inserted, 3);
        assert_eq!(s.stored, 3);
        assert_eq!(s.consistent, 1);
        assert_eq!(s.bad, 1);
        assert_eq!(s.undecided, 1);
        assert_eq!(s.inconsistent, 0);
    }

    #[test]
    fn from_iterator_collects() {
        let pool: ContextPool = (0..4).map(|t| loc("p", t)).collect();
        assert_eq!(pool.len(), 4);
    }

    #[test]
    fn arena_gauges_track_occupancy_and_recycles() {
        let mut pool = ContextPool::new();
        let a = pool.insert(loc("p", 1));
        let b = pool.insert(loc("p", 2));
        assert_eq!(pool.live_slots(), 2);
        assert_eq!(pool.free_slots(), 0);
        assert_eq!(pool.slot_recycles(), 0);
        pool.remove(a).unwrap();
        assert_eq!(pool.live_slots(), 1);
        assert_eq!(pool.free_slots(), 1);
        assert_eq!(pool.slot_recycles(), 1);
        // Reuse the freed slot: occupancy recovers, the recycle count
        // keeps its history.
        let c = pool.insert(loc("p", 3));
        assert_eq!(pool.live_slots(), 2);
        assert_eq!(pool.free_slots(), 0);
        assert_eq!(pool.slot_recycles(), 1);
        pool.remove(b).unwrap();
        pool.remove(c).unwrap();
        assert_eq!(pool.slot_recycles(), 3);
    }

    #[test]
    fn kind_watermarks_report_oldest_live_context() {
        let mut pool = ContextPool::new();
        let oldest = pool.insert(
            Context::builder(ContextKind::new("location"), "p")
                .stamp(LogicalTime::new(2))
                .lifespan(Lifespan::with_ttl(LogicalTime::new(2), Ticks::new(10)))
                .build(),
        );
        pool.insert(loc("p", 7));
        pool.insert(Context::builder(ContextKind::new("rfid"), "tag").build());

        let marks = pool.kind_watermarks();
        assert_eq!(marks.len(), 2);
        let loc_mark = &marks[0];
        assert_eq!(loc_mark.kind, ContextKind::new("location"));
        assert_eq!(loc_mark.live, 2);
        assert_eq!(loc_mark.oldest_stamp, Some(LogicalTime::new(2)));
        assert_eq!(loc_mark.oldest_ttl, Some(10));
        let rfid_mark = &marks[1];
        assert_eq!(rfid_mark.live, 1);
        assert_eq!(rfid_mark.oldest_ttl, None, "forever contexts have no ttl");

        // Discarding the oldest moves the watermark to the next live one.
        pool.discard(oldest).unwrap();
        let marks = pool.kind_watermarks();
        assert_eq!(marks[0].live, 1);
        assert_eq!(marks[0].oldest_stamp, Some(LogicalTime::new(7)));
        assert_eq!(marks[0].oldest_ttl, None);
    }

    #[test]
    fn compact_removes_only_old_dead_contexts() {
        let mut pool = ContextPool::new();
        let discarded_old = pool.insert(loc("p", 1));
        pool.discard(discarded_old).unwrap();
        let expired_old = pool.insert(
            Context::builder(ContextKind::new("location"), "p")
                .stamp(LogicalTime::new(2))
                .lifespan(Lifespan::with_ttl(LogicalTime::new(2), Ticks::new(3)))
                .build(),
        );
        let live_old = pool.insert(loc("p", 3)); // lives forever
        let recent = pool.insert(loc("p", 90));
        let discarded_recent = pool.insert(loc("p", 95));
        pool.discard(discarded_recent).unwrap();

        let removed = pool.compact(LogicalTime::new(50));
        assert_eq!(removed, 2);
        assert!(!pool.contains(discarded_old));
        assert!(!pool.contains(expired_old));
        assert!(pool.contains(live_old), "undiscarded forever-contexts stay");
        assert!(pool.contains(recent));
        assert!(
            pool.contains(discarded_recent),
            "recent discards stay for metrics"
        );
    }

    #[test]
    fn split_by_partitions_and_absorb_reassembles() {
        let mut pool = ContextPool::new();
        for (s, t) in [("peter", 1), ("mary", 2), ("peter", 3), ("john", 4)] {
            pool.insert(loc(s, t));
        }
        let discarded = pool.insert(loc("mary", 5));
        pool.discard(discarded).unwrap();
        let before = pool.signature();

        let shards = pool.split_by(2, |c| c.subject().len());
        assert_eq!(shards.iter().map(ContextPool::len).sum::<usize>(), 5);
        // "mary" and "john" (len 4) land together, apart from "peter".
        assert!(shards.iter().all(|s| {
            let subjects: std::collections::BTreeSet<&str> =
                s.iter().map(|(_, c)| c.subject()).collect();
            !(subjects.contains("peter") && subjects.contains("mary"))
        }));

        let mut merged = ContextPool::new();
        for shard in shards {
            merged.absorb(shard);
        }
        assert_eq!(
            merged.signature(),
            before,
            "states and contents survive the round trip"
        );
        assert_eq!(merged.stats().inconsistent, 1, "discarded state preserved");
    }

    #[test]
    fn signature_ignores_insertion_order() {
        let mut a = ContextPool::new();
        a.insert(loc("p", 1));
        a.insert(loc("q", 2));
        let mut b = ContextPool::new();
        b.insert(loc("q", 2));
        b.insert(loc("p", 1));
        assert_eq!(a.signature(), b.signature());
    }

    #[test]
    #[should_panic(expected = "zero pools")]
    fn split_into_zero_pools_panics() {
        ContextPool::new().split_by(0, |_| 0);
    }

    #[test]
    fn of_kind_live_at_skips_expired() {
        let mut pool = ContextPool::new();
        pool.insert(
            Context::builder(ContextKind::new("location"), "p")
                .stamp(LogicalTime::new(0))
                .lifespan(Lifespan::with_ttl(LogicalTime::new(0), Ticks::new(2)))
                .build(),
        );
        pool.insert(loc("p", 1));
        let kind = ContextKind::new("location");
        assert_eq!(pool.of_kind_live_at(&kind, LogicalTime::new(1)).count(), 2);
        assert_eq!(pool.of_kind_live_at(&kind, LogicalTime::new(5)).count(), 1);
    }

    #[test]
    fn slot_reuse_invalidates_stale_ids_and_reorders_nothing() {
        let mut pool = ContextPool::new();
        let a = pool.insert(loc("p", 1));
        let b = pool.insert(loc("p", 2));
        pool.remove(a);
        // The freed slot is reused, but the old id must stay dead.
        let c = pool.insert(loc("q", 3));
        assert!(pool.get(a).is_none());
        assert!(!pool.contains(a));
        assert_eq!(pool.get(c).unwrap().subject(), "q");
        let order: Vec<ContextId> = pool.iter().map(|(id, _)| id).collect();
        assert_eq!(order, vec![b, c], "arrival order survives slot reuse");
        assert_eq!(pool.of_kind(&ContextKind::new("location")).count(), 2);
    }

    #[test]
    fn of_kind_order_is_stamp_then_id_even_for_stale_arrivals() {
        let mut pool = ContextPool::new();
        let late = pool.insert(loc("p", 10));
        let early = pool.insert(loc("p", 2)); // arrives after, stamped before
        let tie = pool.insert(loc("q", 10));
        let kind = ContextKind::new("location");
        let order: Vec<ContextId> = pool.of_kind(&kind).map(|(id, _)| id).collect();
        assert_eq!(order, vec![early, late, tie], "(stamp, id) order");
        let by_subject: Vec<ContextId> = pool.of_subject(&kind, "p").map(|(id, _)| id).collect();
        assert_eq!(by_subject, vec![early, late]);
    }

    #[test]
    fn of_subject_live_at_restricts_domain() {
        let mut pool = ContextPool::new();
        pool.insert(loc("p", 1));
        pool.insert(loc("q", 2));
        pool.insert(
            Context::builder(ContextKind::new("location"), "p")
                .stamp(LogicalTime::new(3))
                .lifespan(Lifespan::with_ttl(LogicalTime::new(3), Ticks::new(2)))
                .build(),
        );
        let kind = ContextKind::new("location");
        assert_eq!(
            pool.of_subject_live_at(&kind, "p", LogicalTime::new(4))
                .count(),
            2
        );
        assert_eq!(
            pool.of_subject_live_at(&kind, "p", LogicalTime::new(9))
                .count(),
            1,
            "expired drops out"
        );
        assert_eq!(
            pool.of_subject_live_at(&kind, "q", LogicalTime::new(4))
                .count(),
            1
        );
    }

    #[test]
    fn subject_counts_track_live_contexts() {
        let mut pool = ContextPool::new();
        pool.insert(loc("p", 1));
        pool.insert(loc("p", 2));
        let doomed = pool.insert(loc("q", 3));
        pool.insert(Context::builder(ContextKind::new("rfid"), "p").build());
        pool.discard(doomed).unwrap();
        let counts = pool.subject_counts();
        assert_eq!(counts.get("p"), Some(&3), "all kinds count");
        assert_eq!(counts.get("q"), None, "discarded contexts do not");
    }

    #[test]
    fn insert_batch_matches_sequential_inserts() {
        // Mixed kinds, duplicate subjects, and out-of-order stamps: the
        // deferred-repair path must produce the same ids and the same
        // index iteration order as one-at-a-time insertion.
        let make = |tag: &str| -> Vec<Context> {
            vec![
                loc("peter", 10),
                loc("mary", 4),
                loc("peter", 2), // out of order within the batch
                Context::builder(ContextKind::new(tag), "peter").build(),
                loc("mary", 7),
                loc("peter", 10), // stamp tie, id breaks it
            ]
        };
        let mut seq = ContextPool::new();
        let seq_ids: Vec<ContextId> = make("rfid").into_iter().map(|c| seq.insert(c)).collect();
        let mut batched = ContextPool::new();
        let batch_ids = batched.insert_batch(make("rfid"));
        assert_eq!(seq_ids, batch_ids);
        assert_eq!(seq.signature(), batched.signature());
        let kind = ContextKind::new("location");
        let seq_order: Vec<ContextId> = seq.of_kind(&kind).map(|(id, _)| id).collect();
        let batch_order: Vec<ContextId> = batched.of_kind(&kind).map(|(id, _)| id).collect();
        assert_eq!(seq_order, batch_order);
        for subject in ["peter", "mary"] {
            let s: Vec<ContextId> = seq.of_subject(&kind, subject).map(|(id, _)| id).collect();
            let b: Vec<ContextId> = batched
                .of_subject(&kind, subject)
                .map(|(id, _)| id)
                .collect();
            assert_eq!(s, b, "subject {subject}");
        }
    }

    #[test]
    fn insert_batch_merges_across_existing_entries() {
        // A batch whose stamps interleave with pre-existing entries
        // exercises the head/tail merge, not just the tail sort.
        let mut seq = ContextPool::new();
        let mut batched = ContextPool::new();
        for c in [loc("p", 5), loc("p", 20), loc("q", 9)] {
            seq.insert(c.clone());
            batched.insert(c);
        }
        let late = vec![loc("p", 1), loc("p", 12), loc("q", 3), loc("p", 30)];
        for c in late.clone() {
            seq.insert(c);
        }
        batched.insert_batch(late);
        let kind = ContextKind::new("location");
        assert_eq!(
            seq.of_kind(&kind).map(|(id, _)| id).collect::<Vec<_>>(),
            batched.of_kind(&kind).map(|(id, _)| id).collect::<Vec<_>>()
        );
        for subject in ["p", "q"] {
            assert_eq!(
                seq.of_subject(&kind, subject)
                    .map(|(id, _)| id)
                    .collect::<Vec<_>>(),
                batched
                    .of_subject(&kind, subject)
                    .map(|(id, _)| id)
                    .collect::<Vec<_>>(),
                "subject {subject}"
            );
        }
    }

    /// The index invariants every operation must leave behind: `all`
    /// at most about half dead with its live handles in `(stamp, id)`
    /// order, subject vectors sorted and free of dead handles, no empty
    /// bucket or subject vector, and an id table trimmed at the front.
    fn assert_index_invariants(pool: &ContextPool) {
        let live = |h: &SlotHandle| pool.generations[h.slot as usize] == h.generation;
        let key = |h: &SlotHandle| {
            (
                pool.slot_stamps[h.slot as usize],
                pool.slot_ids[h.slot as usize],
            )
        };
        let mut stored = 0;
        for (kind, bucket) in &pool.by_kind {
            assert!(bucket.stored > 0, "empty bucket left for {kind:?}");
            assert!(
                bucket.all.len() <= 2 * bucket.stored + 1,
                "{kind:?}: {} handles for {} stored",
                bucket.all.len(),
                bucket.stored
            );
            let all_live: Vec<_> = bucket.all.iter().filter(|h| live(h)).collect();
            assert_eq!(
                all_live.len(),
                bucket.stored,
                "{kind:?}: live handles in all"
            );
            assert!(all_live.windows(2).all(|w| key(w[0]) < key(w[1])));
            let mut in_subjects = 0;
            for (subject, handles) in &bucket.by_subject {
                assert!(!handles.is_empty(), "empty subject vector {subject}");
                assert!(handles.iter().all(live), "dead handle under {subject}");
                assert!(handles.windows(2).all(|w| key(&w[0]) < key(&w[1])));
                in_subjects += handles.len();
            }
            assert_eq!(in_subjects, bucket.stored, "{kind:?}: subject handles");
            stored += bucket.stored;
        }
        assert_eq!(stored, pool.len());
        let (removed, rest) = pool.id_slots.split_at(pool.id_head);
        assert!(removed.iter().all(|&s| s == NO_SLOT));
        assert_ne!(
            rest.first(),
            Some(&NO_SLOT),
            "id_head behind the first stored id"
        );
        assert!(
            rest.is_empty() || 2 * removed.len() < pool.id_slots.len(),
            "untrimmed id table"
        );
        assert_eq!(pool.id_base + pool.id_slots.len() as u64, pool.next_id);
    }

    #[test]
    fn index_invariants_hold_after_every_op() {
        // xorshift: a fixed, dependency-free op stream.
        let mut state = 0x9E37_79B9_7F4A_7C15_u64;
        let mut next = move |n: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % n
        };
        let kinds = [ContextKind::new("location"), ContextKind::new("rfid")];
        let mut pool = ContextPool::new();
        let mut clock = 0u64;
        let mut ids: Vec<ContextId> = Vec::new();
        let mut make = |next: &mut dyn FnMut(u64) -> u64| {
            clock += 1;
            // Hot subjects, mixed kinds, some stamps from the past.
            let subject = if next(2) == 0 { next(3) } else { next(40) };
            let stamp = clock.saturating_sub(if next(4) == 0 { next(20) } else { 0 });
            Context::builder(kinds[next(2) as usize].clone(), &format!("s{subject}"))
                .stamp(LogicalTime::new(stamp))
                .lifespan(Lifespan::with_ttl(
                    LogicalTime::new(stamp),
                    Ticks::new(next(30)),
                ))
                .build()
        };
        for step in 0..4000u64 {
            match next(8) {
                0..=2 => ids.push(pool.insert(make(&mut next))),
                3 => {
                    let batch: Vec<Context> = (0..next(6)).map(|_| make(&mut next)).collect();
                    ids.extend(pool.insert_batch(batch));
                }
                4 | 5 if !ids.is_empty() => {
                    let id = ids[next(ids.len() as u64) as usize];
                    pool.remove(id);
                }
                6 if !ids.is_empty() => {
                    let id = ids[next(ids.len() as u64) as usize];
                    let _ = pool.discard(id);
                }
                _ => {
                    let now = LogicalTime::new(step / 2);
                    if next(2) == 0 {
                        pool.compact(now);
                    } else {
                        pool.sweep_expired(now);
                    }
                }
            }
            assert_index_invariants(&pool);
        }
    }

    #[test]
    fn removal_visits_do_not_grow_with_the_kind() {
        // Retention removes contexts oldest first; a purge of the whole
        // kind per removal would visit ~100x more handles in the wide
        // pool. Both pools have the same four-context subject tracks.
        const TRACK: u64 = 4;
        fn visits_per_removal(subjects: usize) -> f64 {
            let kind = ContextKind::new("location");
            let names: Vec<String> = (0..subjects).map(|s| format!("s{s}")).collect();
            let mut pool = ContextPool::new();
            let mut ids = Vec::new();
            for t in 0..TRACK {
                for name in &names {
                    let ctx = Context::builder(kind.clone(), name)
                        .stamp(LogicalTime::new(t))
                        .build();
                    ids.push(pool.insert(ctx));
                }
            }
            for &id in &ids {
                pool.remove(id).expect("stored");
            }
            assert!(pool.is_empty() && pool.by_kind.is_empty() && pool.id_slots.is_empty());
            pool.handle_visits as f64 / ids.len() as f64
        }
        let narrow = visits_per_removal(1_000);
        let wide = visits_per_removal(100_000);
        // The halving compactions round differently at the two sizes.
        assert!(
            wide <= narrow + 0.1,
            "{wide:.3} handle visits per removal at 100k subjects vs {narrow:.3} at 1k"
        );
    }

    #[test]
    fn bulk_sweep_cleans_every_index() {
        let mut pool = ContextPool::new();
        for t in 0..50 {
            pool.insert(
                Context::builder(ContextKind::new("location"), "p")
                    .stamp(LogicalTime::new(t))
                    .lifespan(Lifespan::with_ttl(LogicalTime::new(t), Ticks::new(5)))
                    .build(),
            );
        }
        pool.insert(loc("p", 100));
        assert_eq!(pool.sweep_expired(LogicalTime::new(200)), 50);
        assert_eq!(pool.len(), 1);
        assert_eq!(pool.of_kind(&ContextKind::new("location")).count(), 1);
        assert_eq!(
            pool.of_subject(&ContextKind::new("location"), "p").count(),
            1
        );
    }
}
