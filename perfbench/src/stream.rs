//! The `city` and `hotspot` workloads: the `CityWorkload` stream through
//! a two-shard `ShardedMiddleware` running D-BAD with window 0.
//!
//! A run alternates rounds of the two passes on one engine: a
//! closed-loop capacity pass, then an open-loop latency pass, each of
//! [`CYCLE`] contexts with one maintenance cycle in its middle, so
//! every round's figures hold the cost of a cycle. Each end-to-end
//! figure is taken over the rounds (the median of the rates, the lower
//! quartile of the open-loop percentiles), so a few seconds in which the
//! host runs slow move it less than they would move one long pass.

use crate::host;
use crate::layers::{Replay, ReplayStats, StampObserver, TimedStrategy};
use crate::openloop::{self, OpenLoop};
use crate::spans::{Recorder, Tracer};
use crate::stats::{median, percentile_of, seeded_hash, Digest};
use ctxres_constraint::{parse_constraints, Constraint, PredicateRegistry};
use ctxres_context::{Context, Ticks};
use ctxres_core::strategies::DropBad;
use ctxres_core::ResolutionStrategy;
use ctxres_experiments::city::{CityConfig, CityWorkload};
use ctxres_middleware::{Middleware, MiddlewareBuilder, MiddlewareConfig};
use ctxres_middleware::{ShardPlan, ShardedMiddleware};
use ctxres_obs::{render_prometheus, ObsConfig, ObsRegistry, Sampler};
use std::cell::RefCell;
use std::time::Instant;

/// The §2.2 speed constraint the city stream violates on teleports.
pub const SPEED: &str = "constraint speed:
    forall a: location, b: location .
      (same_subject(a, b) and seq_gap(a, b, 1)) implies velocity_le(a, b, 1.5)";

/// Subject shards: one per core of the two-core reference host.
pub const SHARDS: usize = 2;
/// Contexts per capacity-pass call, and the open loop's largest call.
pub const BATCH: usize = 4096;
/// A drain → `subject_loads` → `rebalance` → `apply_plan` cycle runs
/// every this many contexts, counted from the stream's start. Each
/// pass of a round is this long.
pub const CYCLE: usize = 32_768;
/// Contexts ingested during set-up: half a cycle. The pool reaches its
/// retention steady state within the first TTL contexts, and the cycles
/// then fall in the middle of each pass, so a cycle delays the second
/// half of an open-loop pass.
pub const WARMUP: usize = CYCLE / 2;
/// One subject in this many is replayed through the reference.
pub const SAMPLE_ONE_IN: u64 = 8;
/// Shards hotter than this factor × mean load trigger a rebalance.
const HOT_FACTOR: f64 = 1.2;
/// Set-ups per end-to-end run. One set-up's time varies by a factor of
/// two within a run on the two-core reference host; `setup_s` is their
/// median over the median slowness of a probe pair around each.
pub const SETUP_REPS: usize = 15;

/// One stream workload.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    /// Workload name.
    pub name: &'static str,
    /// Population size.
    pub subjects: usize,
    /// Share of readings that teleport (violate the speed constraint).
    pub teleport_rate: f64,
    /// Reading lifetime and retention horizon, ticks.
    pub ttl: u64,
    /// Whether the always-on monitoring set-up is deployed.
    pub monitoring: bool,
    /// Rounds per second of `--seconds`.
    pub rounds_per_second: f64,
}

/// Wide index, short per-subject tracks, monitoring on.
pub const CITY: Spec = Spec {
    name: "city",
    subjects: 100_000,
    teleport_rate: 0.02,
    ttl: 512,
    monitoring: true,
    rounds_per_second: 0.75,
};

/// Few subjects with long tracks, monitoring off.
pub const HOTSPOT: Spec = Spec {
    name: "hotspot",
    subjects: 256,
    teleport_rate: 0.05,
    ttl: 4096,
    monitoring: false,
    rounds_per_second: 0.07,
};

/// Generator configuration for `spec` at workload seed `seed`.
pub fn city_config(spec: &Spec, seed: u64) -> CityConfig {
    CityConfig {
        subjects: spec.subjects,
        zipf_exponent: 1.0,
        churn_per_event: 0.001,
        teleport_rate: spec.teleport_rate,
        ttl_ticks: Some(spec.ttl),
        seed: seeded_hash(seed, spec.name),
    }
}

fn speed() -> Vec<Constraint> {
    parse_constraints(SPEED).expect("the speed constraint parses")
}

/// The per-engine builder: D-BAD, window 0, retention = TTL. With a
/// tracer the strategy is wrapped and an observer stamps the engine.
fn builder(spec: &Spec, probe: Option<&Tracer>) -> MiddlewareBuilder {
    let strategy: Box<dyn ResolutionStrategy + Send> = Box::new(DropBad::new());
    let strategy: Box<dyn ResolutionStrategy + Send> = match probe {
        Some(t) => Box::new(TimedStrategy::new(strategy, t.recorder())),
        None => strategy,
    };
    let b = Middleware::builder()
        .constraints(speed())
        .strategy(strategy)
        .config(MiddlewareConfig {
            window: Ticks::new(0),
            track_ground_truth: false,
            retention: Some(Ticks::new(spec.ttl)),
        });
    match probe {
        Some(t) => b.observer(Box::new(StampObserver::new(t.recorder()))),
        None => b,
    }
}

/// Timings of the maintenance cycles, ns unless noted.
#[derive(Debug, Default)]
pub struct CycleLog {
    /// `drain` calls.
    pub drain_ns: Vec<f64>,
    /// `subject_loads`, `plan().rebalance`, and `apply_plan` when a plan
    /// came back.
    pub rebalance_ns: Vec<f64>,
    /// Applied rebalances.
    pub rebalances: u64,
    /// Hottest subject shard's load over the mean, per cycle.
    pub skew: Vec<f64>,
    /// `Sampler::sample` calls.
    pub sample_ns: Vec<f64>,
    /// `render_prometheus` calls.
    pub render_ns: Vec<f64>,
    /// Exposition sizes, bytes.
    pub exposition_bytes: Vec<f64>,
}

impl CycleLog {
    /// Each cycle's total duration, ms.
    pub fn cycle_ms(&self) -> Vec<f64> {
        let at = |v: &[f64], i: usize| v.get(i).copied().unwrap_or(0.0);
        (0..self.drain_ns.len())
            .map(|i| {
                let obs = at(&self.sample_ns, i) + at(&self.render_ns, i);
                (self.drain_ns[i] + self.rebalance_ns[i] + obs) / 1e6
            })
            .collect()
    }
}

/// A sharded engine with its monitoring.
pub struct Engine {
    sharded: ShardedMiddleware,
    sampler: Option<Sampler>,
    since_cycle: usize,
    /// Cycle timings.
    pub log: CycleLog,
}

impl Engine {
    /// Builds the engine: constraint compile, `ShardPlan::analyze`, and
    /// one middleware per shard.
    pub fn build(spec: &Spec, monitoring: bool, probe: Option<&Tracer>) -> Engine {
        let plan = ShardPlan::analyze(&speed(), SHARDS);
        let (sharded, sampler) = if monitoring {
            let config = ObsConfig::metrics_only().with_tail(true);
            let registry = ShardedMiddleware::obs_registry(&plan, config);
            let sharded = ShardedMiddleware::new_observed(plan, &registry, |_, obs| {
                builder(spec, probe).obs(obs).build()
            });
            (sharded, Some(Sampler::new(registry)))
        } else {
            (
                ShardedMiddleware::new(plan, |_| builder(spec, probe).build()),
                None,
            )
        };
        Engine {
            sharded,
            sampler,
            since_cycle: 0,
            log: CycleLog::default(),
        }
    }

    /// One batch call, as a root span when traced.
    pub fn ingest(&mut self, batch: Vec<Context>, rec: Option<&Recorder>) {
        self.since_cycle += batch.len();
        match rec {
            Some(r) => r.root("shard.batch_add", |_| {
                self.sharded.batch_add_owned(batch);
            }),
            None => {
                self.sharded.batch_add_owned(batch);
            }
        }
    }

    /// Runs the maintenance cycle after the call that reached the next
    /// multiple of [`CYCLE`] contexts.
    pub fn maybe_cycle(&mut self, rec: Option<&Recorder>) {
        if self.since_cycle >= CYCLE {
            self.since_cycle -= CYCLE;
            match rec {
                Some(r) => r.root("shard.cycle", |id| self.cycle_steps(Some((r, id)))),
                None => self.cycle_steps(None),
            }
        }
    }

    /// The maintenance cycle, plus one sample and one exposition when
    /// monitoring is deployed.
    fn cycle_steps(&mut self, rec: Option<(&Recorder, u32)>) {
        let (_, ns) = step(rec, "middleware.drain", || self.sharded.drain());
        self.log.drain_ns.push(ns);
        let (applied, ns) = step(rec, "shard.rebalance", || {
            let loads = self.sharded.subject_loads();
            let totals: Vec<f64> = loads.iter().map(|l| l.total() as f64).collect();
            let mean = totals.iter().sum::<f64>() / totals.len() as f64;
            if mean > 0.0 {
                self.log
                    .skew
                    .push(totals.iter().copied().fold(0.0, f64::max) / mean);
            }
            match self.sharded.plan().rebalance(&loads, HOT_FACTOR) {
                Some(plan) => {
                    self.sharded.apply_plan(plan);
                    true
                }
                None => false,
            }
        });
        self.log.rebalance_ns.push(ns);
        self.log.rebalances += u64::from(applied);
        if let Some(sampler) = &mut self.sampler {
            let (sample, ns) = step(rec, "obs.sample", || sampler.sample());
            self.log.sample_ns.push(ns);
            let (text, ns) = step(rec, "obs.render", || render_prometheus(&sample));
            self.log.render_ns.push(ns);
            self.log.exposition_bytes.push(text.len() as f64);
        }
    }

    /// Summed checker counters of every shard.
    pub fn checker_evals(&self) -> (u64, u64) {
        (0..self.sharded.plan().total_shards())
            .map(|i| self.sharded.with_shard(i, |mw| mw.checker_stats()))
            .fold((0, 0), |(p, f), s| (p + s.pinned_evals, f + s.full_evals))
    }
}

/// Runs `f` (as a child span when traced) and returns its duration, ns.
fn step<R>(rec: Option<(&Recorder, u32)>, name: &'static str, f: impl FnOnce() -> R) -> (R, f64) {
    let start = Instant::now();
    let out = match rec {
        Some((r, parent)) => r.child(name, parent, f),
        None => f(),
    };
    (out, start.elapsed().as_nanos() as f64)
}

/// Times `f`, ns.
pub fn clock<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_nanos() as f64)
}

/// Builds the engine and warms it up; the generator continues where the
/// warm-up left off. Returns the set-up time in seconds (generation
/// excluded).
pub fn setup(
    spec: &Spec,
    seed: u64,
    monitoring: bool,
    probe: Option<&Tracer>,
) -> (Engine, CityWorkload, f64) {
    let mut gen = CityWorkload::new(city_config(spec, seed));
    let (mut engine, mut ns) = clock(|| Engine::build(spec, monitoring, probe));
    for _ in 0..WARMUP / BATCH {
        let batch = gen.batch(BATCH);
        ns += clock(|| engine.ingest(batch, None)).1;
    }
    (engine, gen, ns / 1e9)
}

/// What a closed-loop capacity pass measured.
#[derive(Debug, Default)]
pub struct Capacity {
    /// Batch-call durations, ns.
    pub batch_ns: Vec<f64>,
    /// Contexts ingested.
    pub contexts: usize,
    /// Engine time (batch calls and maintenance cycles), ns.
    pub engine_ns: f64,
}

impl Capacity {
    /// Contexts over engine time.
    pub fn rate(&self) -> f64 {
        self.contexts as f64 / (self.engine_ns / 1e9)
    }
}

/// One client sends `batches` 4096-context batches back to back, the
/// maintenance cycle on its cadence; generation is not timed.
pub fn capacity(
    engine: &mut Engine,
    gen: &mut CityWorkload,
    batches: usize,
    rec: Option<&Recorder>,
) -> Capacity {
    let mut out = Capacity::default();
    for _ in 0..batches {
        let batch = gen.batch(BATCH);
        let (_, d) = clock(|| engine.ingest(batch, rec));
        out.batch_ns.push(d);
        out.engine_ns += d + clock(|| engine.maybe_cycle(rec)).1;
        out.contexts += BATCH;
    }
    out
}

/// An open-loop pass: `total` contexts offered at `rate`, with the
/// maintenance cycle on the same context-count cadence.
pub fn latency(engine: &mut Engine, gen: &mut CityWorkload, rate: f64, total: usize) -> OpenLoop {
    let engine = RefCell::new(engine);
    openloop::run(
        rate,
        total,
        BATCH,
        || gen.next_context(),
        |batch| engine.borrow_mut().ingest(batch, None),
        |_| engine.borrow_mut().maybe_cycle(None),
    )
}

/// Per stream position (stamp − 1): no verdict yet, delivered,
/// withheld (discarded), or more than one use record.
#[derive(Debug, Clone)]
pub struct Verdicts(Vec<u8>);

const NONE: u8 = 0;
const DELIVERED: u8 = 1;
const WITHHELD: u8 = 2;
const CONFLICT: u8 = 3;

impl Verdicts {
    /// Reads every shard's use log. With window 0 each context is used
    /// at its own stamp, and the city stream gives every context a
    /// distinct stamp `1..=total`.
    pub fn from_engine(engine: &Engine, total: usize) -> Verdicts {
        let mut table = vec![NONE; total];
        for i in 0..engine.sharded.plan().total_shards() {
            engine.sharded.with_shard(i, |mw| {
                for rec in mw.use_log() {
                    let pos = rec.at.tick() as usize;
                    if pos == 0 || pos > total {
                        continue;
                    }
                    let slot = &mut table[pos - 1];
                    *slot = match *slot {
                        NONE if rec.delivered => DELIVERED,
                        NONE => WITHHELD,
                        _ => CONFLICT,
                    };
                }
            });
        }
        Verdicts(table)
    }

    /// Positions where `self` and `other` disagree, or either has no
    /// single verdict.
    pub fn differing(&self, other: &Verdicts) -> u64 {
        self.0
            .iter()
            .zip(&other.0)
            .filter(|(a, b)| a != b || matches!(**a, NONE | CONFLICT))
            .count() as u64
    }

    /// Inverts the verdict at stream position `pos`.
    #[cfg(test)]
    pub fn flip(&mut self, pos: usize) {
        let slot = &mut self.0[pos];
        *slot = match *slot {
            DELIVERED => WITHHELD,
            WITHHELD => DELIVERED,
            other => other,
        };
    }
}

/// Whether `subject` is in the reference sample of workload seed `seed`.
pub fn sampled(seed: u64, subject: &str) -> bool {
    seeded_hash(seed, subject).is_multiple_of(SAMPLE_ONE_IN)
}

/// Result of the reference check.
#[derive(Debug, Clone, Default)]
pub struct Tally {
    /// Contexts in the stream.
    pub attempted: u64,
    /// Contexts with no verdict, with two, or (sampled ones) whose
    /// verdict differs from the reference.
    pub failed: u64,
    /// Contexts replayed through the reference.
    pub sampled: u64,
    /// Digest of the regenerated stream.
    pub digest: String,
}

/// Regenerates the first `total` contexts of the stream and replays the
/// sampled subjects' contexts one by one through a single-engine
/// `Middleware::submit`. The speed constraint is per subject, so a
/// subject's verdicts do not depend on other subjects.
pub fn check(spec: &Spec, seed: u64, total: usize, verdicts: &Verdicts) -> Tally {
    let mut gen = CityWorkload::new(city_config(spec, seed));
    let mut reference = builder(spec, None).build();
    let mut digest = Digest::default();
    let mut tally = Tally {
        attempted: total as u64,
        ..Tally::default()
    };
    for pos in 0..total {
        let ctx = gen.next_context();
        digest.context(&ctx);
        let got = verdicts.0[pos];
        let mut failed = got == NONE || got == CONFLICT;
        if sampled(seed, ctx.subject()) {
            tally.sampled += 1;
            let stamp = ctx.stamp();
            reference.submit(ctx);
            let want = reference
                .use_log()
                .last()
                .filter(|r| r.at == stamp)
                .map(|r| if r.delivered { DELIVERED } else { WITHHELD });
            failed |= want != Some(got);
        }
        tally.failed += u64::from(failed);
    }
    tally.digest = digest.hex();
    tally
}

/// Sizes of one run.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    /// Rounds of (capacity pass, open-loop pass).
    pub rounds: usize,
    /// Open-loop offered rate, contexts per second.
    pub rate: f64,
}

impl Plan {
    /// The rounds of a `seconds`-long run of `spec` at `rate`.
    pub fn new(spec: &Spec, seconds: f64, rate: f64) -> Plan {
        Plan {
            rounds: ((seconds * spec.rounds_per_second).round() as usize).max(1),
            rate,
        }
    }
}

/// End-to-end figures of one untraced run.
#[derive(Debug, Default)]
pub struct EndToEnd {
    /// Set-up times, s.
    pub setup_s: Vec<f64>,
    /// Host slowness across each set-up (see [`host::slowness`]).
    pub setup_slowness: Vec<f64>,
    /// Host slowness across each round.
    pub round_slowness: Vec<f64>,
    /// Capacity per round, ctx/s.
    pub round_rates: Vec<f64>,
    /// Open-loop p50 of each round's pass, normalized, ns.
    pub round_p50_ns: Vec<f64>,
    /// Open-loop p99 of each round's pass, normalized, ns.
    pub round_p99_ns: Vec<f64>,
    /// Maintenance cycles in each pass, capacity then open loop.
    pub pass_cycles: Vec<(usize, usize)>,
    /// Each maintenance cycle's duration, ms.
    pub cycle_ms: Vec<f64>,
    /// Each round's longest open-loop call, ms: a host stall shows here.
    pub round_max_call_ms: Vec<f64>,
    /// Every round's open-loop pass, concatenated.
    pub open: OpenLoop,
    /// Contexts in the capacity passes.
    pub capacity_contexts: usize,
    /// Maintenance cycles run, and rebalances applied.
    pub cycles: (usize, u64),
    /// Peak resident set after the timed passes, MiB.
    pub peak_rss_mb: f64,
    /// Reference check.
    pub tally: Tally,
}

/// The untraced run: [`SETUP_REPS`] set-ups, the rounds, then the
/// reference check.
pub fn end_to_end(spec: &Spec, seed: u64, plan: Plan) -> EndToEnd {
    let mut out = EndToEnd::default();
    let mut last = None;
    for _ in 0..SETUP_REPS {
        drop(last.take());
        let before = host::probe_ns();
        let (engine, gen, secs) = setup(spec, seed, spec.monitoring, None);
        out.setup_slowness
            .push(host::slowness(before, host::probe_ns()));
        out.setup_s.push(secs);
        last = Some((engine, gen));
    }
    let (mut engine, mut gen) = last.expect("at least one set-up");
    for _ in 0..plan.rounds {
        let before = host::probe_ns();
        let cycles = engine.log.drain_ns.len();
        let cap = capacity(&mut engine, &mut gen, CYCLE / BATCH, None);
        out.round_rates.push(cap.rate());
        out.capacity_contexts += cap.contexts;
        let mid = engine.log.drain_ns.len();
        let open = latency(&mut engine, &mut gen, plan.rate, CYCLE);
        let after = host::probe_ns();
        let slowness = host::slowness(before, after);
        out.pass_cycles
            .push((mid - cycles, engine.log.drain_ns.len() - mid));
        out.round_p50_ns
            .push(percentile_of(&open.latency_ns, 0.50) / slowness);
        out.round_p99_ns
            .push(percentile_of(&open.latency_ns, 0.99) / slowness);
        out.round_max_call_ms
            .push(percentile_of(&open.call_ns, 1.0) / 1e6);
        out.open.latency_ns.extend(open.latency_ns);
        out.open.batch_sizes.extend(open.batch_sizes);
        out.open.gen_lag_ns.extend(open.gen_lag_ns);
        out.open.call_ns.extend(open.call_ns);
        out.round_slowness.push(slowness);
    }
    out.peak_rss_mb = crate::peak_rss_mb();
    out.cycles = (engine.log.drain_ns.len(), engine.log.rebalances);
    out.cycle_ms = engine.log.cycle_ms();
    let total = gen.emitted() as usize;
    let verdicts = Verdicts::from_engine(&engine, total);
    drop(engine);
    out.tally = check(spec, seed, total, &verdicts);
    out
}

/// Everything the traced run measures on a stream workload.
#[derive(Debug)]
pub struct Traced {
    /// Contexts whose verdicts were compared between the probed and the
    /// plain engine.
    pub verdicts_checked: u64,
    /// Of those, verdicts the probes changed (or that are missing).
    pub verdicts_differing: u64,
    /// Capacity pass with probes attached.
    pub traced: Capacity,
    /// The same contexts without probes.
    pub plain: Capacity,
    /// `traced`'s rate scaled to nominal host speed, ctx/s.
    pub traced_rate: f64,
    /// `plain`'s rate scaled to nominal host speed, ctx/s.
    pub plain_rate: f64,
    /// The untraced engine's maintenance log.
    pub log: CycleLog,
    /// Checker counters of the untraced engine.
    pub evals: (u64, u64),
    /// The same contexts through one `Middleware::batch_add`, ctx/s at
    /// nominal host speed.
    pub single_rate: f64,
    /// Paired monitoring-off over monitoring-on capacity at nominal host
    /// speed, percent.
    pub obs_overhead_pct: Option<f64>,
    /// One open-loop pass on the untraced engine.
    pub open: OpenLoop,
    /// The layer replay.
    pub replay: ReplayStats,
}

/// Monitoring on/off pairs for `obs.overhead_pct`.
const OBS_PAIRS: usize = 3;

/// The traced run. Its numbers never feed the end-to-end metrics.
pub fn traced(spec: &Spec, seed: u64, plan: Plan, tracer: &Tracer) -> Traced {
    let rec = tracer.recorder();
    // Whole cycles, about a sixth of the end-to-end run's capacity work.
    let batches = CYCLE / BATCH * (plan.rounds / 6).max(1);
    let (mut engine, mut gen, _) = setup(spec, seed, spec.monitoring, Some(tracer));
    let mut traced = Capacity::default();
    let traced_rate = host::normalized(|| {
        traced = capacity(&mut engine, &mut gen, batches, Some(&rec));
        traced.rate()
    });
    let total = gen.emitted() as usize;
    let probed = Verdicts::from_engine(&engine, total);
    drop(engine);

    let (mut engine, mut gen, _) = setup(spec, seed, spec.monitoring, None);
    let mut plain = Capacity::default();
    let plain_rate = host::normalized(|| {
        plain = capacity(&mut engine, &mut gen, batches, None);
        plain.rate()
    });
    let evals = engine.checker_evals();
    let verdicts_differing = Verdicts::from_engine(&engine, total).differing(&probed);
    let open = latency(&mut engine, &mut gen, plan.rate, CYCLE);
    let log = std::mem::take(&mut engine.log);
    drop(engine);

    let single_rate = host::normalized(|| single_engine_rate(spec, seed, batches));
    let obs_overhead_pct = spec.monitoring.then(|| {
        let rate = |monitoring: bool| {
            let (mut engine, mut gen, _) = setup(spec, seed, monitoring, None);
            host::normalized(|| capacity(&mut engine, &mut gen, CYCLE / BATCH, None).rate())
        };
        let ratios: Vec<f64> = (0..OBS_PAIRS)
            .map(|pair| {
                // Alternate which side goes first.
                let (on, off) = if pair % 2 == 0 {
                    let on = rate(true);
                    (on, rate(false))
                } else {
                    let off = rate(false);
                    (rate(true), off)
                };
                (off / on - 1.0) * 100.0
            })
            .collect();
        median(&ratios)
    });

    // The replay covers as many contexts as the warm-up: enough to reach
    // the retention steady state, and each unfused check is slow on long
    // tracks.
    let mut replay = Replay::new(
        speed(),
        PredicateRegistry::with_builtins(),
        Some(spec.ttl),
        tracer.recorder(),
    );
    let mut stats = ReplayStats::default();
    let mut gen = CityWorkload::new(city_config(spec, seed));
    for _ in 0..WARMUP {
        replay.feed(gen.next_context(), &mut stats);
    }
    Traced {
        verdicts_checked: total as u64,
        verdicts_differing,
        traced,
        plain,
        traced_rate,
        plain_rate,
        log,
        evals,
        single_rate,
        obs_overhead_pct,
        open,
        replay: stats,
    }
}

/// The same stream through one unsharded engine's `batch_add`, with the
/// workload's monitoring, after the same warm-up; ctx/s of engine time.
fn single_engine_rate(spec: &Spec, seed: u64, batches: usize) -> f64 {
    let mut b = builder(spec, None);
    if spec.monitoring {
        let registry = ObsRegistry::shared(ObsConfig::metrics_only().with_tail(true), 1);
        b = b.obs(registry.handle(0));
    }
    let mut mw = b.build();
    let mut gen = CityWorkload::new(city_config(spec, seed));
    for _ in 0..WARMUP / BATCH {
        mw.batch_add(gen.batch(BATCH));
    }
    let mut ns = 0.0;
    for _ in 0..batches {
        let batch = gen.batch(BATCH);
        ns += clock(|| mw.batch_add(batch)).1;
    }
    (batches * BATCH) as f64 / (ns / 1e9)
}

#[cfg(test)]
mod tests {
    use super::*;

    const SMALL: Spec = Spec {
        name: "small",
        subjects: 300,
        teleport_rate: 0.05,
        ttl: 256,
        monitoring: true,
        rounds_per_second: 1.0,
    };

    /// One round: each pass holds exactly one maintenance cycle.
    fn small_run(seed: u64) -> (Verdicts, usize) {
        let (mut engine, mut gen, _) = setup(&SMALL, seed, true, None);
        capacity(&mut engine, &mut gen, CYCLE / BATCH, None);
        assert_eq!(
            engine.log.drain_ns.len(),
            1,
            "one cycle in the capacity pass"
        );
        // The warm-up set the cadence's phase: each pass ends half a
        // cycle past its cycle, so the cycle ran in its middle.
        assert_eq!(engine.since_cycle, CYCLE / 2);
        latency(&mut engine, &mut gen, 400_000.0, CYCLE);
        assert_eq!(
            engine.log.drain_ns.len(),
            2,
            "one cycle in the open-loop pass"
        );
        assert_eq!(engine.since_cycle, CYCLE / 2);
        let total = gen.emitted() as usize;
        (Verdicts::from_engine(&engine, total), total)
    }

    #[test]
    fn engine_verdicts_match_the_reference() {
        let (verdicts, total) = small_run(3);
        let tally = check(&SMALL, 3, total, &verdicts);
        assert_eq!(tally.attempted, total as u64);
        assert!(tally.sampled > 0);
        assert_eq!(tally.failed, 0);
    }

    #[test]
    fn one_flipped_verdict_is_caught() {
        let (mut verdicts, total) = small_run(3);
        // Flip the verdict of the first context of a sampled subject.
        let mut gen = CityWorkload::new(city_config(&SMALL, 3));
        let pos = (0..total)
            .find(|_| sampled(3, gen.next_context().subject()))
            .expect("the sample is not empty");
        verdicts.flip(pos);
        let tally = check(&SMALL, 3, total, &verdicts);
        assert_eq!(tally.failed, 1);
        assert!(tally.failed as f64 / tally.attempted as f64 > 0.0);
    }

    #[test]
    fn a_missing_verdict_is_a_failure() {
        let (mut verdicts, total) = small_run(4);
        verdicts.0[total - 1] = NONE;
        assert_eq!(check(&SMALL, 4, total, &verdicts).failed, 1);
    }

    fn digest_of(spec: &Spec, seed: u64) -> String {
        let mut gen = CityWorkload::new(city_config(spec, seed));
        let mut d = Digest::default();
        for _ in 0..5_000 {
            d.context(&gen.next_context());
        }
        d.hex()
    }

    #[test]
    fn the_trace_digest_follows_the_seed() {
        assert_eq!(digest_of(&CITY, 1), digest_of(&CITY, 1));
        assert_ne!(digest_of(&CITY, 1), digest_of(&CITY, 2));
        assert_ne!(digest_of(&HOTSPOT, 1), digest_of(&CITY, 1));
    }
}
