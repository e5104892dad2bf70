//! Shared decode step-time prefix tables.
//!
//! Decode-step coalescing prices whole batch runs: from a start instant
//! `at` and mean context `c0`, boundary `k` of the run ends at
//! `at + step(c0) + step(c0 + 1) + … + step(c0 + k)`, where `step` is the
//! replica's decode-step latency at the run's batch size (times its
//! straggler factor). A [`DecodeStepTables`] keeps, per (pricing class,
//! batch size, straggler factor), the prefix sums
//! `P[c] = Σ_{x<c} step(x)` in integer microseconds, so any boundary is
//! `at + (P[c0 + k + 1] − P[c0])` — one subtraction instead of a loop.
//!
//! **Exactness.** [`SimDuration`] is an integer microsecond count, so the
//! prefix difference is bit-for-bit the sequential `at += step(x)` loop
//! the per-step simulator runs. Entries are
//! [`ReplicaCostModel::decode_step_latency`], then `.mul_f64(slow)` for a
//! straggler — the calls the per-step loop makes. Each (batch, context)
//! pair is priced once per run, so the full roofline costs nothing worth
//! hoisting.
//!
//! **Monotonicity.** Step times are nondecreasing in context: every float
//! chain in the roofline is a composition of nonnegative multiplies, adds
//! and positive-divisor divides, IEEE round-to-nearest is monotone, and so
//! are the final `max`, the rounding to microseconds, the pipeline sum and
//! the straggler multiply. Callers rely on this (the largest gap of a run
//! is its last one, and boundary times are sorted for binary search), so
//! every table checks it as it grows.
//!
//! **Sharing.** Replicas whose cost models price decode steps identically
//! ([`ReplicaCostModel::same_decode_steps`]) resolve to one class and share
//! its tables, so a homogeneous fleet prices each context once per batch
//! size for the whole run. Tables grow on demand to the highest context
//! priced.

use crate::replica::ReplicaCostModel;
use ts_common::SimDuration;

/// Handle to one prefix table inside a [`DecodeStepTables`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StepTableId(u32);

/// Entries per storage chunk: tables grow in fixed 4 KiB blocks instead
/// of reallocating (and copying) one ever larger buffer.
const CHUNK: usize = 512;

/// One (class, batch size, straggler factor) prefix table.
#[derive(Debug)]
struct PrefixTable {
    batch: u64,
    /// Straggler factor; exactly 1.0 skips the multiply, as the per-step
    /// loop does.
    slow: f64,
    /// `P[c] = Σ_{x<c} step(x)` in microseconds, at chunk `c / CHUNK`,
    /// slot `c % CHUNK`; `P[0] == 0`.
    chunks: Vec<Box<[u64; CHUNK]>>,
    /// Number of entries filled.
    len: usize,
}

impl PrefixTable {
    fn new(batch: u64, slow: f64) -> Self {
        let mut t = PrefixTable {
            batch,
            slow,
            chunks: Vec::new(),
            len: 0,
        };
        t.push(0);
        t
    }

    /// `P[c]`.
    #[inline]
    fn at(&self, c: u64) -> u64 {
        let c = c as usize;
        debug_assert!(c < self.len, "context {c} beyond the table");
        self.chunks[c / CHUNK][c % CHUNK]
    }

    fn push(&mut self, p: u64) {
        if self.len.is_multiple_of(CHUNK) {
            self.chunks.push(Box::new([0; CHUNK]));
        }
        self.chunks[self.len / CHUNK][self.len % CHUNK] = p;
        self.len += 1;
    }

    fn step(&self, cost: &ReplicaCostModel, ctx: u64) -> u64 {
        let t = cost.decode_step_latency(self.batch, ctx);
        if self.slow == 1.0 {
            t.as_micros()
        } else {
            t.mul_f64(self.slow).as_micros()
        }
    }

    /// Extends the table so `P[hi]` exists.
    fn grow_to(&mut self, cost: &ReplicaCostModel, hi: u64) {
        while self.len as u64 <= hi {
            let ctx = self.len as u64 - 1;
            let step = self.step(cost, ctx);
            let last = self.at(ctx);
            if ctx > 0 {
                let prev = last - self.at(ctx - 1);
                assert!(
                    step >= prev,
                    "decode step time decreased from {prev} to {step} us at context {ctx}"
                );
            }
            self.push(last + step);
        }
    }
}

/// Decode step-time prefix tables shared by every decode replica of a
/// simulation (see the [module docs](self)).
#[derive(Debug, Default)]
pub struct DecodeStepTables {
    /// One representative cost model per pricing class.
    classes: Vec<ReplicaCostModel>,
    /// Per class, per batch size: `(straggler factor bits, table)` pairs.
    index: Vec<Vec<Vec<(u64, StepTableId)>>>,
    tables: Vec<PrefixTable>,
}

impl DecodeStepTables {
    /// An empty table set.
    pub fn new() -> Self {
        Self::default()
    }

    /// The pricing class of `cost`: the class of an earlier registered
    /// model that prices decode steps identically, or a new one.
    pub fn class_of(&mut self, cost: &ReplicaCostModel) -> usize {
        if let Some(c) = self.classes.iter().position(|k| k.same_decode_steps(cost)) {
            return c;
        }
        self.classes.push(cost.clone());
        self.index.push(Vec::new());
        self.classes.len() - 1
    }

    /// The table of `class` at `batch` sequences and straggler factor
    /// `slow`, grown so every [`Self::span`] within `0..=hi` can be read.
    ///
    /// # Panics
    /// Panics if `class` was not returned by [`Self::class_of`].
    pub fn table(&mut self, class: usize, batch: u64, slow: f64, hi: u64) -> StepTableId {
        let by_batch = &mut self.index[class];
        let b = usize::try_from(batch).expect("batch fits in memory");
        if by_batch.len() <= b {
            by_batch.resize_with(b + 1, Vec::new);
        }
        let key = slow.to_bits();
        let id = match by_batch[b].iter().find(|(k, _)| *k == key) {
            Some(&(_, id)) => id,
            None => {
                let id = StepTableId(u32::try_from(self.tables.len()).expect("table count"));
                self.tables.push(PrefixTable::new(batch, slow));
                by_batch[b].push((key, id));
                id
            }
        };
        self.tables[id.0 as usize].grow_to(&self.classes[class], hi);
        id
    }

    /// Drops every table, keeping the pricing classes. Handles issued
    /// before are invalid afterwards.
    pub fn clear_tables(&mut self) {
        self.tables = Vec::new();
        for by_batch in &mut self.index {
            *by_batch = Vec::new();
        }
    }

    /// `P[hi] − P[lo]`: the summed step times of contexts `lo..hi`.
    /// Both ends must lie within the range the table was grown to.
    #[inline]
    pub fn span(&self, id: StepTableId, lo: u64, hi: u64) -> SimDuration {
        let t = &self.tables[id.0 as usize];
        SimDuration::from_micros(t.at(hi) - t.at(lo))
    }

    /// The step time at context `ctx`.
    #[inline]
    pub fn step(&self, id: StepTableId, ctx: u64) -> SimDuration {
        self.span(id, ctx, ctx + 1)
    }

    /// How many of `span(lo, lo + k)` for `k` in `0..n` are strictly below
    /// `d` — spans grow with `k`, so this is a binary search.
    pub fn count_below(&self, id: StepTableId, lo: u64, n: u64, d: SimDuration) -> u64 {
        let t = &self.tables[id.0 as usize];
        let base = t.at(lo);
        let (mut below, mut above) = (0, n);
        while below < above {
            let mid = below + (above - below) / 2;
            if t.at(lo + mid) - base < d.as_micros() {
                below = mid + 1;
            } else {
                above = mid;
            }
        }
        below
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ModelParams;
    use ts_cluster::presets;
    use ts_common::{GpuId, GroupSpec, ModelSpec, ParallelConfig, Phase, SimTime, StageSpec};

    /// A decode group over `gpus`, one GPU per pipeline stage.
    fn pipeline(gpus: &[u32], layers: usize) -> GroupSpec {
        let pp = gpus.len();
        let per = layers / pp;
        let stages = gpus
            .iter()
            .enumerate()
            .map(|(s, &g)| StageSpec {
                gpus: vec![GpuId(g)],
                layers: if s == pp - 1 {
                    layers - per * (pp - 1)
                } else {
                    per
                },
            })
            .collect();
        GroupSpec::new(Phase::Decode, ParallelConfig::new(1, pp).unwrap(), stages).unwrap()
    }

    fn cost(gpus: &[u32]) -> ReplicaCostModel {
        // GPUs 16.. are the paper cloud's A40 node; 0 and 8 sit on
        // different nodes, so the 2-stage pipeline crosses a real link.
        let c = presets::paper_cloud_cluster();
        let m = ModelSpec::llama_7b();
        ReplicaCostModel::new(
            &c,
            &m,
            &pipeline(gpus, m.num_layers),
            &ModelParams::default(),
        )
        .unwrap()
    }

    const MAX_CTX: u64 = 5_120 + 1_100;

    #[test]
    fn tables_match_the_sequential_pricing_loop() {
        let starts = [0u64, 1, 7, 255, 1_024, 3_000, 5_119];
        let runs = [1u64, 2, 3, 17, 256, 1_100];
        for gpus in [&[16u32][..], &[0, 8]] {
            let cost = cost(gpus);
            let mut tables = DecodeStepTables::new();
            let class = tables.class_of(&cost);
            for batch in 1..=16u64 {
                for slow in [1.0, 1.5, 8.0] {
                    let id = tables.table(class, batch, slow, MAX_CTX);
                    let step = |ctx| {
                        let t = cost.decode_step_latency(batch, ctx);
                        if slow == 1.0 {
                            t
                        } else {
                            t.mul_f64(slow)
                        }
                    };
                    let steps: Vec<SimDuration> = (0..MAX_CTX).map(step).collect();
                    for w in steps.windows(2) {
                        assert!(w[0] <= w[1], "step time decreased, batch {batch}");
                    }
                    for &c0 in &starts {
                        let origin = SimTime::from_micros(123_457);
                        let mut at = origin;
                        for k in 0..*runs.iter().max().unwrap() {
                            at += steps[(c0 + k) as usize];
                            if runs.contains(&(k + 1)) {
                                assert_eq!(
                                    origin + tables.span(id, c0, c0 + k + 1),
                                    at,
                                    "batch {batch} slow {slow} c0 {c0} run {}",
                                    k + 1
                                );
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn equal_cost_models_share_one_table() {
        // Same shape on different GPUs of one node: different KV routing
        // endpoints, identical decode pricing.
        let a = cost(&[16]);
        let b = cost(&[17]);
        let other = cost(&[0, 8]);
        let mut tables = DecodeStepTables::new();
        let ca = tables.class_of(&a);
        let cb = tables.class_of(&b);
        let co = tables.class_of(&other);
        assert_eq!(ca, cb);
        assert_ne!(ca, co);
        assert_eq!(tables.classes.len(), 2);
        let ta = tables.table(ca, 4, 1.0, 100);
        assert_eq!(tables.table(cb, 4, 1.0, 50), ta);
        assert_ne!(tables.table(ca, 5, 1.0, 50), ta);
        assert_ne!(tables.table(ca, 4, 1.5, 50), ta);
        assert_ne!(tables.table(co, 4, 1.0, 50), ta);
    }

    #[test]
    fn grown_tables_equal_single_pass_tables() {
        for gpus in [&[16u32][..], &[0, 8]] {
            let cost = cost(gpus);
            for slow in [1.0, 8.0] {
                let mut piecewise = DecodeStepTables::new();
                let pc = piecewise.class_of(&cost);
                let mut hi = 0;
                for grow in [0u64, 1, 2, 100, 101, 4_000, 4_000, MAX_CTX] {
                    hi = hi.max(grow);
                    piecewise.table(pc, 3, slow, grow);
                }
                let mut single = DecodeStepTables::new();
                let sc = single.class_of(&cost);
                let one = single.table(sc, 3, slow, hi);
                let grown = piecewise.table(pc, 3, slow, 0);
                let entries = |t: &DecodeStepTables, id: StepTableId| {
                    let t = &t.tables[id.0 as usize];
                    (0..t.len as u64).map(|c| t.at(c)).collect::<Vec<_>>()
                };
                assert_eq!(entries(&piecewise, grown), entries(&single, one));
            }
        }
    }

    #[test]
    fn count_below_is_the_strict_partition_point() {
        let cost = cost(&[16]);
        let mut tables = DecodeStepTables::new();
        let c = tables.class_of(&cost);
        let id = tables.table(c, 2, 1.0, 64);
        for lo in [0u64, 5, 30] {
            for n in [1u64, 2, 20] {
                for d in [0u64, 1, 20_000, 40_000, 10_000_000] {
                    let d = SimDuration::from_micros(d);
                    let expect = (0..n).filter(|&k| tables.span(id, lo, lo + k) < d).count();
                    assert_eq!(tables.count_below(id, lo, n, d), expect as u64);
                }
            }
        }
    }
}
