//! Host-speed calibration.
//!
//! On a shared virtual host the same work runs up to 1.7 times faster
//! or slower from one minute to the next: every timing moves with the
//! host, whatever the engine does. The benchmark times a fixed probe
//! task next to each measurement and reports timings scaled to the
//! probe's nominal duration — "seconds of a host running at nominal
//! speed". The probe uses only the standard library and shares no code
//! with the program under test; it does share the process and its heap,
//! and a test below shows that work which leaves more heap behind does
//! not slow it. The raw figures are printed too.

use std::collections::BTreeMap;
use std::time::Instant;

/// Map operations in one probe (about 6 ms at nominal speed).
const PROBE_OPS: u64 = 20_000;

/// The probe's duration on the two-core reference host at its typical
/// speed, ns. Only the scale of the normalized figures depends on it.
pub const PROBE_NOMINAL_NS: f64 = 6.0e6;

/// Runs the probe once and returns its duration, ns: ordered-map churn
/// over short heap strings, the kind of work (allocation, hashing,
/// pointer chasing) the engine does per context.
pub fn probe_ns() -> f64 {
    let start = Instant::now();
    let mut map: BTreeMap<String, u64> = BTreeMap::new();
    let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
    for i in 0..PROBE_OPS {
        x = x
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        map.insert(format!("k{}", x % 20_000), i);
        if map.len() > 2048 {
            map.pop_first();
        }
    }
    std::hint::black_box(&map);
    start.elapsed().as_nanos() as f64
}

/// How much slower than nominal the host ran across a measurement
/// bracketed by the probe durations `before` and `after`: above 1 when
/// slower. Multiply a rate by it, divide a time by it, to normalize.
pub fn slowness(before: f64, after: f64) -> f64 {
    (before + after) / 2.0 / PROBE_NOMINAL_NS
}

/// Runs `f`, which measures a rate, between two probes and returns the
/// rate scaled to nominal host speed.
pub fn normalized(f: impl FnOnce() -> f64) -> f64 {
    let before = probe_ns();
    let rate = f();
    rate * slowness(before, probe_ns())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slowness_is_relative_to_nominal() {
        assert_eq!(slowness(PROBE_NOMINAL_NS, PROBE_NOMINAL_NS), 1.0);
        assert_eq!(slowness(PROBE_NOMINAL_NS, 3.0 * PROBE_NOMINAL_NS), 2.0);
    }

    #[test]
    fn the_probe_takes_time() {
        assert!(probe_ns() > 0.0);
    }

    /// A fake engine: `units` rounds of allocation-heavy map churn,
    /// each leaving its map in `kept`, so the heavier engine leaves
    /// more heap behind for the probe that follows it.
    fn fake_engine(units: usize, kept: &mut Vec<BTreeMap<String, u64>>) {
        for u in 0..units {
            let map: BTreeMap<String, u64> = (0..4_000u64)
                .map(|i| {
                    (
                        format!("u{u}-{}", i.wrapping_mul(2_654_435_761) % 100_000),
                        i,
                    )
                })
                .collect();
            kept.push(map);
        }
    }

    /// An engine made twice as slow reads twice as slow after
    /// normalization: the probe does not follow the work next to it.
    #[test]
    fn normalization_keeps_an_injected_slowdown() {
        let rate = |units: usize| {
            let mut kept = Vec::new();
            let r = normalized(|| {
                let start = Instant::now();
                fake_engine(units, &mut kept);
                1.0 / start.elapsed().as_secs_f64()
            });
            drop(kept);
            r
        };
        let ratios: Vec<f64> = (0..7).map(|_| rate(20) / rate(40)).collect();
        let r = crate::stats::median(&ratios);
        assert!(
            (1.6..2.5).contains(&r),
            "normalized slowdown {r:.2}x, want 2x"
        );
    }
}
