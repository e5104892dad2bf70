//! Small helpers shared by the workloads: order statistics, output digests,
//! process memory and the host calibration loop.

use std::hint::black_box;
use std::time::Instant;
use ts_common::{SimDuration, SimTime};
use ts_sim::metrics::Metrics;

/// Nearest-rank quantile of an ascending slice, by the workspace's
/// convention (`ts_common::percentile`): index `round((n - 1) * p)`.
pub fn quantile_sorted(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() as f64 - 1.0) * p.clamp(0.0, 1.0)).round() as usize;
    sorted[idx]
}

/// Median of unsorted samples (the mean of the middle pair for even counts).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => v[n / 2],
        _ => 0.5 * (v[n / 2 - 1] + v[n / 2]),
    }
}

/// Smallest of the samples (0 for none).
pub fn min(values: &[f64]) -> f64 {
    values.iter().copied().reduce(f64::min).unwrap_or(0.0)
}

/// Ascending seconds of a duration sample.
pub fn sorted_secs(values: impl Iterator<Item = SimDuration>) -> Vec<f64> {
    let mut v: Vec<f64> = values.map(|d| d.as_secs_f64()).collect();
    v.sort_by(f64::total_cmp);
    v
}

/// 64-bit FNV-1a over a stream of words: a stable digest of simulated
/// outputs, so a speed-only change can be shown to leave them identical.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Digest {
    pub fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    pub fn word(&mut self, x: u64) {
        for b in x.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    pub fn time(&mut self, t: SimTime) {
        self.word(t.as_micros());
    }

    pub fn dur(&mut self, d: SimDuration) {
        self.word(d.as_micros());
    }

    pub fn f64(&mut self, x: f64) {
        self.word(x.to_bits());
    }

    pub fn bytes(&mut self, s: &[u8]) {
        for &b in s {
            self.word(b as u64);
        }
    }

    /// Folds in every field of every request record, plus the loss counts.
    pub fn metrics(&mut self, m: &Metrics) {
        self.word(m.num_completed() as u64);
        self.word(m.num_dropped() as u64);
        self.word(m.num_rejected() as u64);
        self.dur(m.horizon());
        for r in m.records() {
            self.word(r.request.id.0);
            self.time(r.request.arrival);
            self.word(((r.request.prompt_len as u64) << 32) | r.request.output_len as u64);
            self.word(((r.prefill_replica as u64) << 32) | r.decode_replica as u64);
            self.time(r.first_token_at);
            self.time(r.finished_at);
            self.dur(r.max_token_gap);
            self.dur(r.kv_queue_wait);
            self.dur(r.kv_wire_time);
            self.word(r.kv_done_at.map_or(u64::MAX, |t| t.as_micros()));
        }
    }

    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

/// Peak resident set of this process (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Times a fixed integer loop. Recorded beside each result so drift of the
/// host between runs can be told from a change of the program; it never
/// normalises a gated metric.
pub fn calibration_ms() -> f64 {
    let t0 = Instant::now();
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    let mut acc = 0u64;
    for _ in 0..20_000_000u32 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        acc = acc.wrapping_add(black_box(x));
    }
    black_box(acc);
    t0.elapsed().as_secs_f64() * 1e3
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_follow_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile_sorted(&v, 0.5), 51.0);
        assert_eq!(quantile_sorted(&v, 0.99), 99.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(min(&[4.0, 1.5, 2.0]), 1.5);
    }

    #[test]
    fn digest_is_order_sensitive() {
        let (mut a, mut b) = (Digest::new(), Digest::new());
        a.word(1);
        a.word(2);
        b.word(2);
        b.word(1);
        assert_ne!(a.hex(), b.hex());
    }
}
