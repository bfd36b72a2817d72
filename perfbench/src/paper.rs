//! The `paper` workload: the Fig. 9 and Fig. 10 grids, every context
//! through a single-engine `Middleware::submit` (the paper's Fig. 7
//! protocol), with each application's recommended window, its
//! situations, and ground-truth tracking on.
//!
//! The grid runs round by round: round `i` is run index `i` of every
//! (application, error rate, strategy) cell, so every round is the same
//! mix of work, and each end-to-end figure is the median over rounds.

use crate::host;
use crate::layers::{Replay, ReplayStats, StampObserver, TimedStrategy};
use crate::spans::{Recorder, Tracer};
use crate::stats::{median, percentile_of, Digest};
use crate::stream::clock;
use ctxres_apps::call_forwarding::CallForwarding;
use ctxres_apps::rfid_anomalies::RfidAnomalies;
use ctxres_apps::PervasiveApp;
use ctxres_context::{ContextId, ContextKind, ContextState, Ticks};
use ctxres_core::strategies::{by_name, EXPERIMENT_STRATEGIES};
use ctxres_core::ResolutionStrategy;
use ctxres_experiments::figures::Figure;
use ctxres_experiments::metrics::{normalize_against_oracle, RunMetrics};
use ctxres_experiments::{ERROR_RATES, RUNS_PER_POINT, TRACE_LEN};
use ctxres_middleware::{Middleware, MiddlewareConfig, SituationEngine};
use std::collections::HashSet;

/// The two applications, with the file their paper-scale figure is
/// committed under.
fn apps() -> [(Box<dyn PervasiveApp>, &'static str); 2] {
    [
        (Box::new(CallForwarding::new()), "results/figure9.json"),
        (Box::new(RfidAnomalies::new()), "results/figure10.json"),
    ]
}

/// The seed of run `run` at `err_rate`, as the figure experiments derive
/// it.
fn seed_for(err_rate: f64, run: usize) -> u64 {
    (err_rate * 1000.0) as u64 * 10_000 + run as u64
}

/// Which runs the grid covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Grid {
    /// Runs (seeds) per point.
    pub runs: usize,
    /// Index of the first run; workload seed 0 is the paper's runs
    /// `0..20`, seed `k` runs `20k..20k + 20`.
    pub first: usize,
}

impl Grid {
    /// One run per point per second of `seconds`, up to the paper's 20.
    pub fn new(seed: u64, seconds: f64) -> Grid {
        Grid {
            runs: (seconds.round() as usize).clamp(1, RUNS_PER_POINT),
            first: (seed % 400) as usize * RUNS_PER_POINT,
        }
    }

    /// Whether this is the grid of the committed figures.
    pub fn is_paper(&self) -> bool {
        self.first == 0 && self.runs == RUNS_PER_POINT
    }

    /// Contexts the grid submits.
    pub fn contexts(&self) -> usize {
        2 * ERROR_RATES.len() * EXPERIMENT_STRATEGIES.len() * self.runs * TRACE_LEN
    }
}

fn engine(app: &dyn PervasiveApp, strategy: &str, seed: u64, probe: Option<&Tracer>) -> Middleware {
    let strategy = by_name(strategy, seed).expect("the experiment strategies exist");
    let strategy: Box<dyn ResolutionStrategy + Send> = match probe {
        Some(t) => Box::new(TimedStrategy::new(strategy, t.recorder())),
        None => strategy,
    };
    let b = Middleware::builder()
        .constraints(app.constraints())
        .situations(app.situations())
        .registry(app.registry())
        .strategy(strategy)
        .config(MiddlewareConfig {
            window: Ticks::new(app.recommended_window()),
            track_ground_truth: true,
            retention: None,
        });
    match probe {
        Some(t) => b.observer(Box::new(StampObserver::new(t.recorder()))),
        None => b,
    }
    .build()
}

/// Set-ups per end-to-end run; `setup_s` is their median. One set-up
/// takes under a millisecond, so many are cheap and steady the median.
pub const SETUP_REPS: usize = 25;

/// Set-up: building one engine per application and strategy, the
/// constraint and situation compile included. Seconds.
pub fn setup_once() -> f64 {
    let apps = apps();
    clock(|| {
        for (app, _) in &apps {
            for strategy in EXPERIMENT_STRATEGIES {
                std::hint::black_box(engine(app.as_ref(), strategy, 1, None));
            }
        }
    })
    .1 / 1e9
}

/// The shadow situation rounds of the traced run.
#[derive(Debug, Default)]
pub struct SituationStats {
    /// `evaluate_dirty` durations, ns.
    pub round_ns: Vec<f64>,
    /// Situations re-evaluated.
    pub evals: u64,
    /// Situations replayed from the dirty-kind cache.
    pub skips: u64,
}

/// Probes the traced run attaches.
pub struct Probes<'a> {
    /// The run's tracer.
    pub tracer: &'a Tracer,
    /// The driving thread's recorder.
    pub rec: Recorder,
    /// Shadow situation rounds.
    pub situation: SituationStats,
    /// Layer replay samples.
    pub replay: ReplayStats,
}

/// One round: run index `i` of every cell.
#[derive(Debug, Default)]
pub struct Round {
    /// `submit` durations, ns.
    pub submit_ns: Vec<f64>,
    /// `drain` durations (one per cell), ns.
    pub drain_ns: Vec<f64>,
    /// Host slowness across the round (see [`host::slowness`]).
    pub slowness: f64,
}

impl Round {
    /// Contexts over the time inside `submit` and `drain`.
    pub fn rate(&self) -> f64 {
        let ns: f64 = self.submit_ns.iter().chain(&self.drain_ns).sum();
        self.submit_ns.len() as f64 / (ns / 1e9)
    }
}

/// What one pass over the grid measured.
#[derive(Debug, Default)]
pub struct PaperRun {
    /// Per round.
    pub rounds: Vec<Round>,
    /// The regenerated figures, with their committed file.
    pub figures: Vec<(Figure, &'static str)>,
    /// Contexts of runs that fail [`conserved`].
    pub unconserved: u64,
    /// Engine checker counters (pinned, full), summed over runs.
    pub evals: (u64, u64),
    /// Digest of every submitted context.
    pub digest: String,
}

impl PaperRun {
    /// Median over rounds of each round's rate; with `normalized`, each
    /// scaled to nominal host speed.
    pub fn rate(&self, normalized: bool) -> f64 {
        median(
            &self
                .rounds
                .iter()
                .map(|r| r.rate() * if normalized { r.slowness } else { 1.0 })
                .collect::<Vec<_>>(),
        )
    }

    /// Median over rounds of each round's `q`-quantile submit time, ns;
    /// with `normalized`, each scaled to nominal host speed.
    pub fn submit_quantile(&self, q: f64, normalized: bool) -> f64 {
        median(
            &self
                .rounds
                .iter()
                .map(|r| percentile_of(&r.submit_ns, q) / if normalized { r.slowness } else { 1.0 })
                .collect::<Vec<_>>(),
        )
    }

    /// Every submit time of the run, ns.
    pub fn submit_ns(&self) -> Vec<f64> {
        self.rounds
            .iter()
            .flat_map(|r| r.submit_ns.iter().copied())
            .collect()
    }

    /// Every drain time of the run, ns.
    pub fn drain_ns(&self) -> Vec<f64> {
        self.rounds
            .iter()
            .flat_map(|r| r.drain_ns.iter().copied())
            .collect()
    }
}

/// One pass over `grid`: one client, one context per call.
pub fn run(grid: Grid, mut probes: Option<&mut Probes<'_>>) -> PaperRun {
    let apps = apps();
    let per_app = ERROR_RATES.len() * EXPERIMENT_STRATEGIES.len();
    let mut cells: Vec<Vec<RunMetrics>> = vec![Vec::with_capacity(grid.runs); 2 * per_app];
    let mut out = PaperRun::default();
    let mut digest = Digest::default();
    for i in 0..grid.runs {
        let mut round = Round::default();
        let before = host::probe_ns();
        for (a, (app, _)) in apps.iter().enumerate() {
            for (e, &err_rate) in ERROR_RATES.iter().enumerate() {
                for (s, strategy) in EXPERIMENT_STRATEGIES.iter().enumerate() {
                    let seed = seed_for(err_rate, grid.first + i);
                    let trace = app.generate(err_rate, seed, TRACE_LEN);
                    trace.iter().for_each(|c| digest.context(c));
                    let metrics = cell(
                        app.as_ref(),
                        strategy,
                        err_rate,
                        seed,
                        trace,
                        probes.as_deref_mut(),
                        &mut round,
                        &mut out,
                    );
                    cells[a * per_app + e * EXPERIMENT_STRATEGIES.len() + s].push(metrics);
                }
            }
        }
        round.slowness = host::slowness(before, host::probe_ns());
        out.rounds.push(round);
    }
    for (a, (app, file)) in apps.iter().enumerate() {
        let mut points = Vec::with_capacity(per_app);
        for (e, &err_rate) in ERROR_RATES.iter().enumerate() {
            let row = &cells[a * per_app + e * EXPERIMENT_STRATEGIES.len()..];
            // `EXPERIMENT_STRATEGIES` lists opt-r, the oracle, first.
            for (s, strategy) in EXPERIMENT_STRATEGIES.iter().enumerate() {
                points.push(normalize_against_oracle(
                    strategy, err_rate, &row[s], &row[0],
                ));
            }
        }
        out.figures.push((
            Figure {
                application: app.name().to_owned(),
                points,
                trace_len: TRACE_LEN,
                runs_per_point: grid.runs,
            },
            file,
        ));
    }
    out.digest = digest.hex();
    out
}

/// One run of one cell: a fresh engine fed `trace` one `submit` at a
/// time, then drained.
#[allow(clippy::too_many_arguments)]
fn cell(
    app: &dyn PervasiveApp,
    strategy: &str,
    err_rate: f64,
    seed: u64,
    trace: Vec<ctxres_context::Context>,
    mut probes: Option<&mut Probes<'_>>,
    round: &mut Round,
    out: &mut PaperRun,
) -> RunMetrics {
    let mut mw = engine(app, strategy, seed, probes.as_ref().map(|p| p.tracer));
    let mut shadow = probes
        .as_ref()
        .map(|_| SituationEngine::new(app.situations()));
    let mut replay = probes
        .as_ref()
        .map(|p| Replay::new(app.constraints(), app.registry(), None, p.rec.clone()));
    for ctx in trace {
        if let (Some(replay), Some(p)) = (&mut replay, probes.as_deref_mut()) {
            replay.feed(ctx.clone(), &mut p.replay);
        }
        let kind = ctx.kind().clone();
        let (report, ns) = match probes.as_deref() {
            Some(p) => clock(|| p.rec.root("middleware.submit", |_| mw.submit(ctx))),
            None => clock(|| mw.submit(ctx)),
        };
        round.submit_ns.push(ns);
        if let (Some(shadow), Some(p)) = (&mut shadow, probes.as_deref_mut()) {
            let mut dirty: HashSet<ContextKind> = HashSet::from([kind]);
            dirty.extend(
                report
                    .discarded
                    .iter()
                    .filter_map(|id| mw.pool().get(*id))
                    .map(|c| c.kind().clone()),
            );
            let ((_, counters), ns) = clock(|| {
                p.rec.root("situation.evaluate_dirty", |_| {
                    shadow.evaluate_dirty(mw.registry(), mw.pool(), mw.now(), &dirty)
                })
            });
            p.situation.round_ns.push(ns);
            p.situation.evals += counters.evals;
            p.situation.skips += counters.skips;
        }
    }
    let (_, ns) = match probes.as_deref() {
        Some(p) => clock(|| p.rec.root("middleware.drain", |_| mw.drain())),
        None => clock(|| mw.drain()),
    };
    round.drain_ns.push(ns);
    let checker = mw.checker_stats();
    out.evals.0 += checker.pinned_evals;
    out.evals.1 += checker.full_evals;
    if !conserved(&mw) {
        out.unconserved += mw.stats().received;
    }
    harvest(&mw, strategy, err_rate, seed)
}

/// Whether every received context got a verdict: a use record
/// (delivered, withheld or expired), or a discard at addition. No
/// context is used twice, and the delivered records match the delivered
/// count. (`received = delivered + discarded + expired` does not hold:
/// D-ALL also discards contexts it has already delivered.)
fn conserved(mw: &Middleware) -> bool {
    let log = mw.use_log();
    let mut decided: Vec<ContextId> = log.iter().map(|r| r.id).collect();
    decided.sort_unstable();
    decided.dedup();
    let used_once = decided.len() == log.len();
    decided.extend(
        mw.pool()
            .iter()
            .filter(|(_, c)| c.state() == ContextState::Inconsistent)
            .map(|(id, _)| id),
    );
    decided.sort_unstable();
    decided.dedup();
    let delivered = log.iter().filter(|r| r.delivered).count() as u64;
    let stats = mw.stats();
    used_once && decided.len() as u64 == stats.received && delivered == stats.delivered
}

/// The counters the figure experiments harvest from a drained run.
fn harvest(mw: &Middleware, strategy: &str, err_rate: f64, seed: u64) -> RunMetrics {
    let stats = *mw.stats();
    RunMetrics {
        strategy: strategy.to_owned(),
        err_rate,
        seed,
        used_expected: stats.delivered_expected,
        used_corrupted: stats.delivered_corrupted,
        matched_activations: mw.matched_activations(),
        raw_activations: stats.situation_activations,
        discarded: stats.discarded,
        discarded_expected: stats.discarded_expected,
        discarded_corrupted: stats.discarded_corrupted,
        inconsistencies: stats.inconsistencies,
        survival: stats.survival_rate(),
        precision: stats.removal_precision(),
        activation_latency: mw.mean_activation_latency(),
    }
}

/// Contexts whose cell disagrees with the reference.
///
/// At the paper's seeds the reference is the committed figure file,
/// compared byte for byte point by point; a point that differs fails
/// every context of its runs. At every seed, runs whose counters do not
/// conserve contexts fail too.
pub fn failed_contexts(
    run: &PaperRun,
    grid: Grid,
    committed: &dyn Fn(&str) -> Option<String>,
) -> u64 {
    let mut failed = run.unconserved;
    if grid.is_paper() {
        let per_point = (grid.runs * TRACE_LEN) as u64;
        for (figure, file) in &run.figures {
            let ours = serde_json::to_string_pretty(figure).expect("figures serialize");
            let theirs = committed(file);
            if theirs.as_deref() == Some(ours.as_str()) {
                continue;
            }
            let reference: Option<Figure> = theirs.and_then(|t| serde_json::from_str(&t).ok());
            let mismatched = match reference {
                Some(r) if r.points.len() == figure.points.len() => figure
                    .points
                    .iter()
                    .zip(&r.points)
                    .filter(|(a, b)| serde_json::to_string(a).ok() != serde_json::to_string(b).ok())
                    .count()
                    .max(1),
                _ => figure.points.len(),
            };
            failed += mismatched as u64 * per_point;
        }
    }
    failed.min(grid.contexts() as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Grid {
        Grid { runs: 1, first: 0 }
    }

    #[test]
    fn a_small_grid_conserves_contexts() {
        let run = run(tiny(), None);
        assert_eq!(run.submit_ns().len(), tiny().contexts());
        assert_eq!(run.unconserved, 0);
        assert_eq!(failed_contexts(&run, tiny(), &|_| None), 0);
    }

    #[test]
    fn round_major_order_matches_the_figure_experiments() {
        let grid = Grid { runs: 2, first: 0 };
        let ours = run(grid, None);
        let app = CallForwarding::new();
        let theirs = ctxres_experiments::figures::figure_for(&app, 2, TRACE_LEN);
        assert_eq!(
            serde_json::to_string_pretty(&ours.figures[0].0).unwrap(),
            serde_json::to_string_pretty(&theirs).unwrap()
        );
    }

    #[test]
    fn a_flipped_cell_fails_its_contexts() {
        let grid = Grid {
            runs: RUNS_PER_POINT,
            first: 0,
        };
        // A stand-in for a full paper-seed run: the figures computed
        // from one seed, checked as if they were the paper grid.
        let mut run = run(tiny(), None);
        for (f, _) in &mut run.figures {
            f.runs_per_point = RUNS_PER_POINT;
        }
        let files: Vec<(String, String)> = run
            .figures
            .iter()
            .map(|(f, file)| (file.to_string(), serde_json::to_string_pretty(f).unwrap()))
            .collect();
        let committed = |file: &str| {
            files
                .iter()
                .find(|(f, _)| f == file)
                .map(|(_, text)| text.clone())
        };
        assert_eq!(failed_contexts(&run, grid, &committed), 0);
        // One verdict more delivered in one run of one cell moves its
        // point.
        run.figures[0].0.points[5].mean_used += 1.0 / RUNS_PER_POINT as f64;
        let failed = failed_contexts(&run, grid, &committed);
        assert_eq!(failed, (RUNS_PER_POINT * TRACE_LEN) as u64);
    }

    #[test]
    fn the_grid_digest_follows_the_seed() {
        let digest = |first| {
            let mut d = Digest::default();
            for (app, _) in apps() {
                for c in app.generate(0.2, seed_for(0.2, first), 200) {
                    d.context(&c);
                }
            }
            d.hex()
        };
        assert_eq!(digest(0), digest(0));
        assert_ne!(digest(0), digest(Grid::new(1, 20.0).first));
    }
}
