//! Order statistics and the trace digest.

use ctxres_context::Context;
use std::fmt::Write as _;

/// Nearest-rank percentile of an ascending slice: the smallest sample
/// with at least `q` of the samples at or below it. `q` is in `[0, 1]`.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Sorts `values` ascending (NaN-free input).
pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(|a, b| a.partial_cmp(b).expect("samples are never NaN"));
    values
}

/// Median: the mean of the two middle samples for an even count, so a
/// run that reports the median of few repetitions is not pinned to one
/// of them.
pub fn median(values: &[f64]) -> f64 {
    let s = sorted(values.to_vec());
    let n = s.len();
    assert!(n > 0, "median of no samples");
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Arithmetic mean; 0 for no samples (a layer that did no work).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Nearest-rank percentile of unsorted samples; 0 for no samples.
pub fn percentile_of(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        percentile(&sorted(values.to_vec()), q)
    }
}

/// FNV-1a over every field of every context of a stream: equal digests
/// mean the benchmark fed the engine the same inputs.
#[derive(Debug, Clone)]
pub struct Digest {
    state: u64,
    scratch: String,
}

impl Default for Digest {
    fn default() -> Self {
        Digest {
            state: 0xcbf2_9ce4_8422_2325,
            scratch: String::new(),
        }
    }
}

impl Digest {
    /// Folds raw bytes in.
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.state ^= u64::from(b);
            self.state = self.state.wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// Folds one context in (its full `Debug` form: kind, subject,
    /// attributes, stamp, lifespan, source and truth tag).
    pub fn context(&mut self, ctx: &Context) {
        self.scratch.clear();
        write!(self.scratch, "{ctx:?}").expect("writing to a String cannot fail");
        let text = std::mem::take(&mut self.scratch);
        self.bytes(text.as_bytes());
        self.scratch = text;
    }

    /// The digest as 16 hex digits.
    pub fn hex(&self) -> String {
        format!("{:016x}", self.state)
    }
}

/// Deterministic 64-bit hash of a string under a seed (FNV-1a), used to
/// pick the reference sample of subjects.
pub fn seeded_hash(seed: u64, text: &str) -> u64 {
    let mut d = Digest::default();
    d.bytes(&seed.to_le_bytes());
    d.bytes(text.as_bytes());
    // FNV's low bits mix poorly for short keys; finish with a
    // SplitMix64-style avalanche.
    let mut z = d.state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&s, 0.5), 50.0);
        assert_eq!(percentile(&s, 0.99), 99.0);
        assert_eq!(percentile(&s, 1.0), 100.0);
        assert_eq!(percentile(&s, 0.0), 1.0);
        // With 10 samples p99 is the maximum: fewer than 10 samples lie
        // beyond it, which is why the benchmark reports its counts.
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&ten, 0.99), 10.0);
        assert_eq!(percentile(&ten, 0.5), 5.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
    }

    #[test]
    fn percentile_of_sorts_first_and_handles_empty() {
        assert_eq!(percentile_of(&[3.0, 1.0, 2.0], 0.5), 2.0);
        assert_eq!(percentile_of(&[], 0.99), 0.0);
    }

    #[test]
    fn median_averages_the_middle_pair() {
        assert_eq!(median(&[4.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn seeded_hash_depends_on_seed_and_text() {
        assert_eq!(seeded_hash(1, "cit-3"), seeded_hash(1, "cit-3"));
        assert_ne!(seeded_hash(1, "cit-3"), seeded_hash(2, "cit-3"));
        assert_ne!(seeded_hash(1, "cit-3"), seeded_hash(1, "cit-4"));
    }
}
