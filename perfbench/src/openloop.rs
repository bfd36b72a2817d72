//! The open-loop load generator.
//!
//! Item `i` is due at `i / rate` seconds after the start, whatever the
//! engine is doing. After each call returns, every item that has come
//! due (up to `max_batch`) goes into the next call. An item's latency
//! runs from its due time to the return of the call that ingested it,
//! so a stall is charged to every item that came due behind it — not
//! only to the call that stalled, as a closed loop would report it.
//!
//! Items are generated on the driving thread while it waits for the
//! next due time, up to [`AHEAD`] ahead. Generating on another thread
//! would put a third runnable thread beside the engine's two shard
//! threads on a two-core host, and the scheduler's preemptions of the
//! shard threads would show up as latency the engine did not cause.

use std::collections::VecDeque;
use std::time::{Duration, Instant};

/// What one open-loop pass measured.
#[derive(Debug, Default)]
pub struct OpenLoop {
    /// Per item: due time to the return of its call, ns.
    pub latency_ns: Vec<f64>,
    /// Items per call.
    pub batch_sizes: Vec<usize>,
    /// Per call: how long the benchmark held back a call it could have
    /// made — from the later of the previous call's end and the batch's
    /// last due time to the call's start — ns. Large values mean the
    /// benchmark, not the engine, set the latency.
    pub gen_lag_ns: Vec<f64>,
    /// Per call: its duration, ns.
    pub call_ns: Vec<f64>,
}

/// Items kept ready ahead of their due times.
pub const AHEAD: usize = 8192;
/// Items generated between two looks at the clock while waiting.
const CHUNK: usize = 64;
/// Below this much time to the next due item the loop spins.
const SPIN_NS: f64 = 200_000.0;

/// Drives `total` items at `rate` per second into `call`. `after(sent)`
/// runs after each call with the number of items ingested so far; its
/// time delays later items and is charged to them.
///
/// # Panics
///
/// Panics when `rate` is not positive or `max_batch` is zero.
pub fn run<T>(
    rate: f64,
    total: usize,
    max_batch: usize,
    mut produce: impl FnMut() -> T,
    mut call: impl FnMut(Vec<T>),
    mut after: impl FnMut(usize),
) -> OpenLoop {
    assert!(
        rate > 0.0 && max_batch > 0,
        "open loop needs a rate and a batch"
    );
    let mut out = OpenLoop::default();
    let period_ns = 1e9 / rate;
    let due = |i: usize| i as f64 * period_ns;
    let mut ready: VecDeque<T> = VecDeque::with_capacity(AHEAD);
    let mut produced = 0usize;
    let mut top_up = |ready: &mut VecDeque<T>, want: usize| {
        while ready.len() < want && produced < total {
            ready.push_back(produce());
            produced += 1;
        }
    };
    top_up(&mut ready, AHEAD);
    let start = Instant::now();
    let elapsed = || start.elapsed().as_nanos() as f64;
    let mut sent = 0usize;
    let mut free_at = 0.0f64;
    while sent < total {
        let now = elapsed();
        if due(sent) > now {
            // Idle: generate ahead, then sleep or spin to the due time.
            if ready.len() < AHEAD && ready.len() + sent < total {
                let want = (ready.len() + CHUNK).min(AHEAD);
                top_up(&mut ready, want);
            } else if due(sent) - now > SPIN_NS {
                std::thread::sleep(Duration::from_nanos((due(sent) - now - SPIN_NS) as u64));
            } else {
                std::hint::spin_loop();
            }
            continue;
        }
        // Items with due(i) <= now.
        let came_due = ((now / period_ns).floor() as usize + 1).min(total);
        let n = (came_due - sent).min(max_batch);
        top_up(&mut ready, n);
        let batch: Vec<T> = ready.drain(..n).collect();
        let begin = elapsed();
        out.gen_lag_ns
            .push((begin - free_at.max(due(sent + n - 1))).max(0.0));
        call(batch);
        let end = elapsed();
        out.call_ns.push(end - begin);
        out.latency_ns
            .extend((sent..sent + n).map(|i| end - due(i)));
        out.batch_sizes.push(n);
        sent += n;
        after(sent);
        free_at = elapsed();
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A fake engine that stalls once: every item that came due during
    /// the stall is charged the rest of it, which a per-call service
    /// time would report for one call only.
    #[test]
    fn a_stall_is_charged_to_every_later_item() {
        const RATE: f64 = 2_000.0; // one item every 0.5 ms
        const STALL_MS: u64 = 60;
        let mut next = 0usize;
        let result = run(
            RATE,
            400,
            64,
            || {
                next += 1;
                next
            },
            |batch: Vec<usize>| {
                // The call that ingests item 100 stalls.
                if batch.contains(&100) {
                    std::thread::sleep(Duration::from_millis(STALL_MS));
                }
            },
            |_| {},
        );
        assert_eq!(result.latency_ns.len(), 400);
        assert_eq!(result.batch_sizes.iter().sum::<usize>(), 400);
        let ms: Vec<f64> = result.latency_ns.iter().map(|ns| ns / 1e6).collect();
        // The item in the stalled call waited the whole stall.
        assert!(ms[99] >= STALL_MS as f64, "stalled item: {} ms", ms[99]);
        // Items due 10 ms into the stall still wait its remaining 50 ms:
        // due times keep their schedule.
        assert!(ms[120] >= 40.0, "item due mid-stall: {} ms", ms[120]);
        // About STALL_MS * RATE items came due behind the stall; each of
        // the first 100 is charged at least 10 ms.
        let charged = ms[100..].iter().filter(|&&m| m >= 10.0).count();
        assert!(charged >= 90, "only {charged} items charged the stall");
        // Long after the stall the backlog has drained.
        assert!(ms[399] < 20.0, "backlog never drained: {} ms", ms[399]);
        // The backlog was ingested in large catch-up calls.
        assert!(result.batch_sizes.iter().any(|&n| n >= 64));
    }

    #[test]
    fn an_idle_engine_sees_single_item_calls_on_schedule() {
        let result = run(1_000.0, 50, 4096, || 0u8, |_| {}, |_| {});
        assert!(result.batch_sizes.len() >= 40, "{:?}", result.batch_sizes);
        let p50 = crate::stats::percentile_of(&result.latency_ns, 0.5);
        assert!(p50 < 1e6, "idle p50 {p50} ns");
    }
}
