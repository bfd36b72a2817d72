//! The ctxres benchmark.
//!
//! ```text
//! ctxres-perfbench --workload <city|hotspot|paper> --seed <n> --seconds <s>
//!                  --trace <0|1> [--rate <ctx/s>] [--stamp <json>]
//! ```
//!
//! With `--trace 0` it measures the end-to-end metrics with no probes
//! attached; with `--trace 1` it makes the separate traced run that
//! yields the per-layer metrics and writes its spans to
//! `perfbench/out/`. Either way the last line of standard output is one
//! JSON object: `correct`, `attempted`, `failed` and `metrics`.
//! `perfbench/run.py` builds this program and is the entry point;
//! `perfbench/README.md` defines every workload and metric.

mod host;
mod layers;
mod openloop;
mod paper;
mod spans;
mod stats;
mod stream;

use spans::{self_times, Mark, Span, Tracer};
use stats::{mean, median, percentile_of};
use std::collections::HashMap;
use std::fmt::Write as _;

/// Command-line arguments.
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    rate: Option<f64>,
    stamp: String,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 20.0,
        trace: false,
        rate: None,
        stamp: "{}".to_owned(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            "--rate" => args.rate = Some(value.parse().map_err(|e| bad(&e))?),
            "--stamp" => args.stamp = value,
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

/// Peak resident set of this process, MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

/// Metrics in output order, with units.
#[derive(Default)]
struct Metrics(Vec<(&'static str, f64, &'static str)>);

impl Metrics {
    fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.0
            .push((name, if value.is_finite() { value } else { 0.0 }, unit));
    }

    fn json(&self) -> String {
        let mut s = String::from("{");
        for (i, (name, value, unit)) in self.0.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            write!(s, r#""{name}": {{"value": {value}, "unit": "{unit}"}}"#).unwrap();
        }
        s.push('}');
        s
    }
}

/// Prints the human-readable lines and the final JSON line.
fn report(metrics: &Metrics, attempted: u64, failed: u64, notes: &[String]) {
    for note in notes {
        println!("{note}");
    }
    for (name, value, unit) in &metrics.0 {
        println!("metric {name} {value} {unit}");
    }
    println!(
        "failed_frac {} share ({failed} of {attempted} contexts)",
        failed as f64 / attempted.max(1) as f64
    );
    println!(
        r#"{{"correct": {}, "attempted": {attempted}, "failed": {failed}, "metrics": {}}}"#,
        failed == 0,
        metrics.json()
    );
}

fn us(ns: f64) -> f64 {
    ns / 1e3
}

fn ms(ns: f64) -> f64 {
    ns / 1e6
}

/// Each round's rate scaled to nominal host speed.
fn normalized_rates(rates: &[f64], slowness: &[f64]) -> Vec<f64> {
    rates.iter().zip(slowness).map(|(r, s)| r * s).collect()
}

/// Space-separated figures, `scale`d, to at least three significant
/// digits.
fn list(v: &[f64], scale: f64) -> String {
    let sig3 = |x: f64| {
        let decimals = if x == 0.0 {
            0
        } else {
            (2 - x.abs().log10().floor() as i32).max(0) as usize
        };
        format!("{x:.decimals$}")
    };
    v.iter()
        .map(|x| sig3(x * scale))
        .collect::<Vec<_>>()
        .join(" ")
}

fn end_to_end_stream(spec: &stream::Spec, args: &Args, rate: f64) {
    let plan = stream::Plan::new(spec, args.seconds, rate);
    let run = stream::end_to_end(spec, args.seed, plan);
    let lat = &run.open.latency_ns;
    let slow = &run.round_slowness;
    let mut m = Metrics::default();
    m.put(
        "ctx_per_s",
        median(&normalized_rates(&run.round_rates, slow)),
        "1/s",
    );
    // A round's percentile, lower quartile over rounds: see README.md.
    m.put(
        "latency_p50_us",
        us(percentile_of(&run.round_p50_ns, 0.25)),
        "us",
    );
    m.put(
        "latency_p99_us",
        us(percentile_of(&run.round_p99_ns, 0.25)),
        "us",
    );
    m.put(
        "setup_s",
        median(&run.setup_s) / median(&run.setup_slowness),
        "s",
    );
    m.put("peak_rss_mb", run.peak_rss_mb, "MB");
    let sizes: Vec<f64> = run.open.batch_sizes.iter().map(|&n| n as f64).collect();
    let notes = vec![
        format!(
            "host slowness per round (probe time over nominal): median {:.3}, set-up {:.3}",
            median(slow),
            median(&run.setup_slowness)
        ),
        format!(
            "raw (not normalized): ctx_per_s {:.1}, setup_s {:.6}",
            median(&run.round_rates),
            median(&run.setup_s)
        ),
        format!(
            "set-up: raw s per set-up: {}; slowness per set-up: {}",
            list(&run.setup_s, 1.0),
            list(&run.setup_slowness, 1.0)
        ),
        format!(
            "capacity: {} contexts in {} rounds; raw per round ctx/s: {}",
            run.capacity_contexts,
            run.round_rates.len(),
            list(&run.round_rates, 1.0)
        ),
        format!(
            "open loop: {} latency samples at {rate} ctx/s offered ({} per round), {} calls, mean batch {:.1}, generator lag p99 {:.1} us",
            lat.len(),
            stream::CYCLE,
            sizes.len(),
            mean(&sizes),
            us(percentile_of(&run.open.gen_lag_ns, 0.99)),
        ),
        format!(
            "open loop: normalized per round p50 us: {}",
            list(&run.round_p50_ns, 1e-3)
        ),
        format!(
            "open loop: normalized per round p99 us: {}",
            list(&run.round_p99_ns, 1e-3)
        ),
        format!(
            "open loop: per round longest call ms: {}",
            list(&run.round_max_call_ms, 1.0)
        ),
        format!(
            "open loop: raw whole pass p50 {:.1} us, p99 {:.1} us, p99.9 {:.1} us",
            us(percentile_of(lat, 0.50)),
            us(percentile_of(lat, 0.99)),
            us(percentile_of(lat, 0.999))
        ),
        format!(
            "open loop: calls p50 {:.1} us, p99 {:.1} us, max {:.1} us; dispatch lag max {:.1} us",
            us(percentile_of(&run.open.call_ns, 0.50)),
            us(percentile_of(&run.open.call_ns, 0.99)),
            us(percentile_of(&run.open.call_ns, 1.0)),
            us(percentile_of(&run.open.gen_lag_ns, 1.0)),
        ),
        format!(
            "maintenance: {} cycles, {} rebalances; every pass held one cycle: {}; cycle p50 {:.2} ms, max {:.2} ms",
            run.cycles.0,
            run.cycles.1,
            run.pass_cycles.iter().all(|&c| c == (1, 1)),
            percentile_of(&run.cycle_ms, 0.5),
            percentile_of(&run.cycle_ms, 1.0)
        ),
        format!(
            "reference: {} of {} contexts replayed, trace digest {}",
            run.tally.sampled, run.tally.attempted, run.tally.digest
        ),
    ];
    report(&m, run.tally.attempted, run.tally.failed, &notes);
}

fn end_to_end_paper(args: &Args) {
    let grid = paper::Grid::new(args.seed, args.seconds);
    let before = host::probe_ns();
    let setup: Vec<f64> = (0..paper::SETUP_REPS)
        .map(|_| paper::setup_once())
        .collect();
    let setup_slowness = host::slowness(before, host::probe_ns());
    let run = paper::run(grid, None);
    let peak = peak_rss_mb();
    let failed = paper::failed_contexts(&run, grid, &|f| std::fs::read_to_string(f).ok());
    let mut m = Metrics::default();
    m.put("ctx_per_s", run.rate(true), "1/s");
    m.put("latency_p50_us", us(run.submit_quantile(0.50, true)), "us");
    m.put("latency_p99_us", us(run.submit_quantile(0.99, true)), "us");
    m.put("setup_s", median(&setup) / setup_slowness, "s");
    m.put("peak_rss_mb", peak, "MB");
    let reference = if grid.is_paper() {
        "figure cells byte-compared with results/figure9.json and results/figure10.json"
    } else {
        "conservation checked (not the paper seeds)"
    };
    let submits = run.submit_ns();
    let per_round =
        |f: &dyn Fn(&paper::Round) -> f64| list(&run.rounds.iter().map(f).collect::<Vec<_>>(), 1.0);
    let slowness: Vec<f64> = run.rounds.iter().map(|r| r.slowness).collect();
    let notes = vec![
        format!(
            "host slowness per round (probe time over nominal): median {:.3}, set-up {:.3}",
            median(&slowness),
            setup_slowness
        ),
        format!(
            "raw (not normalized): ctx_per_s {:.1}, latency_p50_us {:.1}, latency_p99_us {:.1}, setup_s {:.6}",
            run.rate(false),
            us(run.submit_quantile(0.50, false)),
            us(run.submit_quantile(0.99, false)),
            median(&setup)
        ),
        format!(
            "grid: {} rounds (runs per point) from run {}, {} submit latency samples ({} per round)",
            grid.runs,
            grid.first,
            submits.len(),
            submits.len() / grid.runs
        ),
        format!("raw per round ctx/s: {}", per_round(&paper::Round::rate)),
        format!(
            "raw per round p99 us: {}",
            per_round(&|r| us(percentile_of(&r.submit_ns, 0.99)))
        ),
        format!("reference: {reference}, trace digest {}", run.digest),
    ];
    report(&m, grid.contexts() as u64, failed, &notes);
}

/// Core and middleware metrics from the probes' spans and marks.
fn probe_metrics(m: &mut Metrics, spans: &[Span], marks: &[Mark], root: &str, contexts: f64) {
    let durations = |name: &str| -> Vec<f64> {
        spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.ns() as f64)
            .collect()
    };
    let additions = durations(layers::ON_ADDITION);
    let uses = durations(layers::ON_USE);
    let withheld = marks.iter().filter(|k| k.name == layers::WITHHELD).count();
    m.put("core.on_addition_ns", mean(&additions), "ns");
    m.put("core.on_use_ns", mean(&uses), "ns");
    m.put("core.additions", additions.len() as f64, "count");
    m.put("core.uses", uses.len() as f64, "count");
    m.put(
        "core.discard_frac",
        withheld as f64 / uses.len().max(1) as f64,
        "ratio",
    );

    let calls = durations(root);
    let selfs = self_times(spans);
    let root_self = selfs.get(root).map(|t| t.self_ns).unwrap_or(0) as f64;
    let starts: HashMap<u32, u64> = spans
        .iter()
        .filter(|s| s.name == root)
        .map(|s| (s.id, s.start_ns))
        .collect();
    // In-batch wait: call start to the context's addition finishing.
    let waits: Vec<f64> = marks
        .iter()
        .filter(|k| k.name == layers::SUBMITTED)
        .filter_map(|k| {
            starts
                .get(&k.parent)
                .map(|s| k.at_ns.saturating_sub(*s) as f64)
        })
        .collect();
    // Commit gap: consecutive uses on one shard within one call.
    let mut last: HashMap<(u32, u32), u64> = HashMap::new();
    let mut gaps = Vec::new();
    for k in marks
        .iter()
        .filter(|k| k.name == layers::USED && k.parent != 0)
    {
        if let Some(prev) = last.insert((k.lane, k.parent), k.at_ns) {
            gaps.push(k.at_ns.saturating_sub(prev) as f64);
        }
    }
    m.put("middleware.submit_us", us(mean(&calls)), "us");
    m.put("middleware.self_us_per_ctx", us(root_self / contexts), "us");
    m.put("middleware.commit_gap_us", us(mean(&gaps)), "us");
    m.put(
        "middleware.inbatch_wait_us_p99",
        us(percentile_of(&waits, 0.99)),
        "us",
    );
}

fn replay_metrics(m: &mut Metrics, r: &layers::ReplayStats, evals: (u64, u64)) {
    m.put("context.insert_ns", mean(&r.insert_ns), "ns");
    m.put("context.remove_ns", mean(&r.remove_ns), "ns");
    m.put(
        "context.remove_ns_p99",
        percentile_of(&r.remove_ns, 0.99),
        "ns",
    );
    m.put("context.live_mean", mean(&r.live), "count");
    m.put(
        "context.index_subjects_mean",
        mean(&r.index_subjects),
        "count",
    );
    m.put("constraint.check_ns", mean(&r.check_ns), "ns");
    m.put(
        "constraint.check_ns_p99",
        percentile_of(&r.check_ns, 0.99),
        "ns",
    );
    m.put("constraint.candidates_mean", mean(&r.candidates), "count");
    let candidates: f64 = r.candidates.iter().sum();
    m.put(
        "constraint.ns_per_candidate",
        r.check_ns.iter().sum::<f64>() / candidates.max(1.0),
        "ns",
    );
    m.put(
        "constraint.detect_frac",
        r.detecting as f64 / r.check_ns.len().max(1) as f64,
        "ratio",
    );
    m.put("constraint.pinned_evals", evals.0 as f64, "count");
    m.put("constraint.full_evals", evals.1 as f64, "count");
}

fn write_spans(args: &Args, spans: &[Span], marks: &[Mark], notes: &mut Vec<String>) {
    let header = format!(
        r#"{{"workload": "{}", "seed": {}, "seconds": {}, "stamp": {}, "note": "context.* and constraint.* spans come from a layer replay into a bare pool that skips resolution, so its pool can differ a little from the engine's"}}"#,
        args.workload, args.seed, args.seconds, args.stamp
    );
    let path = std::path::PathBuf::from(format!(
        "perfbench/out/trace-{}-{}.jsonl",
        args.workload, args.seed
    ));
    match spans::write_jsonl(&path, &header, spans, marks) {
        Ok(()) => notes.push(format!(
            "spans: {} spans and {} marks written to {}",
            spans.len(),
            marks.len(),
            path.display()
        )),
        Err(e) => notes.push(format!("spans: could not write {}: {e}", path.display())),
    }
    for (name, t) in self_times(spans) {
        notes.push(format!(
            "self_time {name}: {} calls, {:.3} ms total, {:.3} ms self",
            t.calls,
            ms(t.total_ns as f64),
            ms(t.self_ns as f64)
        ));
    }
}

fn traced_stream(spec: &stream::Spec, args: &Args, rate: f64) {
    let plan = stream::Plan::new(spec, args.seconds, rate);
    let tracer = Tracer::default();
    let t = stream::traced(spec, args.seed, plan, &tracer);
    let (spans, marks) = tracer.collect();
    let mut m = Metrics::default();
    replay_metrics(&mut m, &t.replay, t.evals);
    probe_metrics(
        &mut m,
        &spans,
        &marks,
        "shard.batch_add",
        t.traced.contexts as f64,
    );

    m.put("situation.round_us", 0.0, "us");
    m.put("situation.rounds", 0.0, "count");
    m.put("situation.evals_per_round", 0.0, "count");
    m.put("situation.skip_frac", 0.0, "ratio");

    m.put("middleware.drain_ms", ms(mean(&t.log.drain_ns)), "ms");
    m.put(
        "shard.batch_ms_p50",
        ms(percentile_of(&t.plain.batch_ns, 0.5)),
        "ms",
    );
    m.put(
        "shard.batch_ms_p99",
        ms(percentile_of(&t.plain.batch_ns, 0.99)),
        "ms",
    );
    m.put("shard.skew", mean(&t.log.skew), "ratio");
    m.put("shard.rebalance_ms", ms(mean(&t.log.rebalance_ns)), "ms");
    m.put("shard.rebalances", t.log.rebalances as f64, "count");
    m.put(
        "shard.speedup_vs_single",
        t.plain_rate / t.single_rate,
        "ratio",
    );

    m.put("obs.sample_ms", ms(mean(&t.log.sample_ns)), "ms");
    m.put("obs.render_ms", ms(mean(&t.log.render_ns)), "ms");
    m.put(
        "obs.exposition_kb",
        mean(&t.log.exposition_bytes) / 1024.0,
        "KiB",
    );
    m.put("obs.overhead_pct", t.obs_overhead_pct.unwrap_or(0.0), "%");

    let sizes: Vec<f64> = t.open.batch_sizes.iter().map(|&n| n as f64).collect();
    m.put(
        "bench.gen_lag_p99_us",
        us(percentile_of(&t.open.gen_lag_ns, 0.99)),
        "us",
    );
    m.put("bench.batch_mean", mean(&sizes), "count");
    m.put(
        "bench.trace_overhead_pct",
        (t.plain_rate / t.traced_rate - 1.0) * 100.0,
        "%",
    );
    let mut notes = vec![format!(
        "traced run: {} contexts per pass; at nominal host speed traced {:.1} ctx/s, untraced {:.1} ctx/s, single engine {:.1} ctx/s",
        t.traced.contexts,
        t.traced_rate,
        t.plain_rate,
        t.single_rate
    )];
    write_spans(args, &spans, &marks, &mut notes);
    report(&m, t.verdicts_checked, t.verdicts_differing, &notes);
}

fn traced_paper(args: &Args) {
    let full = paper::Grid::new(args.seed, args.seconds);
    let grid = paper::Grid {
        runs: (full.runs / 4).max(1),
        first: full.first,
    };
    let tracer = Tracer::default();
    let mut probes = paper::Probes {
        tracer: &tracer,
        rec: tracer.recorder(),
        situation: paper::SituationStats::default(),
        replay: layers::ReplayStats::default(),
    };
    let traced = paper::run(grid, Some(&mut probes));
    let plain = paper::run(grid, None);
    let (spans, marks) = tracer.collect();
    let mut m = Metrics::default();
    replay_metrics(&mut m, &probes.replay, traced.evals);
    probe_metrics(
        &mut m,
        &spans,
        &marks,
        "middleware.submit",
        grid.contexts() as f64,
    );

    let s = &probes.situation;
    let rounds = s.round_ns.len() as f64;
    m.put("situation.round_us", us(mean(&s.round_ns)), "us");
    m.put("situation.rounds", rounds, "count");
    m.put(
        "situation.evals_per_round",
        s.evals as f64 / rounds.max(1.0),
        "count",
    );
    m.put(
        "situation.skip_frac",
        s.skips as f64 / (s.evals + s.skips).max(1) as f64,
        "ratio",
    );

    m.put("middleware.drain_ms", ms(mean(&plain.drain_ns())), "ms");
    for (name, unit) in [
        ("shard.batch_ms_p50", "ms"),
        ("shard.batch_ms_p99", "ms"),
        ("shard.skew", "ratio"),
        ("shard.rebalance_ms", "ms"),
        ("shard.rebalances", "count"),
        ("shard.speedup_vs_single", "ratio"),
        ("obs.sample_ms", "ms"),
        ("obs.render_ms", "ms"),
        ("obs.exposition_kb", "KiB"),
        ("obs.overhead_pct", "%"),
        ("bench.gen_lag_p99_us", "us"),
    ] {
        m.put(name, 0.0, unit);
    }
    m.put("bench.batch_mean", 1.0, "count");
    m.put(
        "bench.trace_overhead_pct",
        (plain.rate(true) / traced.rate(true) - 1.0) * 100.0,
        "%",
    );
    // The probes must not change a single figure cell.
    let differing = traced
        .figures
        .iter()
        .zip(&plain.figures)
        .flat_map(|((a, _), (b, _))| a.points.iter().zip(&b.points))
        .filter(|(a, b)| a != b)
        .count() as u64;
    let mut notes = vec![format!(
        "traced run: {} runs per point; at nominal host speed traced {:.1} ctx/s, untraced {:.1} ctx/s",
        grid.runs,
        traced.rate(true),
        plain.rate(true)
    )];
    write_spans(args, &spans, &marks, &mut notes);
    report(
        &m,
        grid.contexts() as u64,
        differing * (grid.runs * ctxres_experiments::TRACE_LEN) as u64,
        &notes,
    );
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("ctxres-perfbench: {e}");
            std::process::exit(2);
        }
    };
    let spec = match args.workload.as_str() {
        "city" => Some(stream::CITY),
        "hotspot" => Some(stream::HOTSPOT),
        "paper" => None,
        other => {
            eprintln!("ctxres-perfbench: unknown workload {other:?} (city, hotspot, paper)");
            std::process::exit(2);
        }
    };
    println!(
        "workload {} seed {} seconds {} trace {} nproc {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    match (spec, args.trace) {
        (Some(spec), trace) => {
            let Some(rate) = args.rate else {
                eprintln!("ctxres-perfbench: {} needs --rate", spec.name);
                std::process::exit(2);
            };
            if trace {
                traced_stream(&spec, &args, rate);
            } else {
                end_to_end_stream(&spec, &args, rate);
            }
        }
        (None, false) => end_to_end_paper(&args),
        (None, true) => traced_paper(&args),
    }
}
