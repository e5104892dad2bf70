//! Deterministic weighted routing.
//!
//! The orchestration solver produces fractional routing weights; the
//! simulator and runtime need to turn them into a concrete per-request
//! choice. We use stride scheduling (deficit counters): each option
//! accumulates credit proportional to its weight and the option with the
//! largest credit wins, guaranteeing that realized shares track the weights
//! with O(1) error and no randomness.

use ts_common::{Error, Result};

/// A deterministic weighted round-robin over `n` options.
///
/// Options can be masked at runtime (fault handling): a disabled option
/// receives no credit and is never chosen, and the remaining weights are
/// renormalized so the surviving options absorb its share.
#[derive(Debug, Clone)]
pub struct StrideRouter {
    weights: Vec<f64>,
    credit: Vec<f64>,
    enabled: Vec<bool>,
    /// `enabled[i] && weights[i] > 0.0`: the options `next` can pick.
    eligible: Vec<bool>,
    /// Number of `true` entries in `eligible`, kept by `set_enabled` so
    /// the per-arrival [`Self::num_enabled`] check is O(1).
    num_eligible: usize,
    total: f64,
    /// `weights[i] / total` for enabled options and exactly `0.0` for
    /// disabled ones, refreshed whenever `total` changes. `next` tops up
    /// every credit with it unconditionally: a disabled option's credit
    /// stays at the `0.0` `set_enabled` wrote, exactly as if skipped, and
    /// the precomputed quotient keeps the credit arithmetic bit-identical
    /// to dividing per call.
    stride: Vec<f64>,
}

/// Independent arg-max accumulators in [`StrideRouter::next`]: the
/// per-option compare-and-select chains no longer serialize on one
/// running maximum.
const LANES: usize = 4;

impl StrideRouter {
    /// Creates a router over the given non-negative weights (they need not
    /// sum to 1; zero-weight options are never chosen).
    ///
    /// # Errors
    /// Returns [`Error::InvalidConfig`] if empty, any weight is negative or
    /// non-finite, or all weights are zero.
    pub fn new(weights: Vec<f64>) -> Result<Self> {
        if weights.is_empty() {
            return Err(Error::InvalidConfig(
                "router needs at least one option".into(),
            ));
        }
        if weights.iter().any(|w| !w.is_finite() || *w < 0.0) {
            return Err(Error::InvalidConfig("weights must be non-negative".into()));
        }
        let total: f64 = weights.iter().sum();
        if total <= 0.0 {
            return Err(Error::InvalidConfig("all routing weights are zero".into()));
        }
        let n = weights.len();
        let stride = weights.iter().map(|w| w / total).collect();
        let eligible: Vec<bool> = weights.iter().map(|&w| w > 0.0).collect();
        Ok(StrideRouter {
            num_eligible: eligible.iter().filter(|&&e| e).count(),
            eligible,
            weights,
            credit: vec![0.0; n],
            enabled: vec![true; n],
            total,
            stride,
        })
    }

    /// Builds a router over the cells of a routing matrix, returning the
    /// router plus the `(row, col)` coordinates of each option.
    ///
    /// # Errors
    /// Propagates [`StrideRouter::new`] failures.
    pub fn from_matrix(rates: &[Vec<f64>]) -> Result<(Self, Vec<(usize, usize)>)> {
        let mut weights = Vec::new();
        let mut coords = Vec::new();
        for (i, row) in rates.iter().enumerate() {
            for (j, &w) in row.iter().enumerate() {
                if w > 0.0 {
                    weights.push(w);
                    coords.push((i, j));
                }
            }
        }
        Ok((Self::new(weights)?, coords))
    }

    /// Picks the next option among the enabled ones. (Deliberately named
    /// like `Iterator::next`; the router is an infinite choice stream, not
    /// an iterator.)
    ///
    /// # Panics
    /// Panics if every option is disabled ([`Self::num_enabled`] is zero);
    /// callers must shed or queue traffic instead of routing it.
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> usize {
        assert!(self.total > 0.0, "all routing options are disabled");
        // Pass 1: top up every credit (disabled options have stride 0.0).
        for (c, s) in self.credit.iter_mut().zip(&self.stride) {
            *c += s;
        }
        // Pass 2: the *last* maximum over eligible credits, which is the
        // tie-breaking of the fused `>=` scan this replaced. Each lane keeps
        // its own last maximum; ineligible options compete as -inf, which
        // every (finite) eligible credit beats.
        let mut lanes = [(f64::NEG_INFINITY, 0usize); LANES];
        let visit = |lane: &mut (f64, usize), i: usize, c: f64, ok: bool| {
            let key = if ok { c } else { f64::NEG_INFINITY };
            if key >= lane.0 {
                *lane = (key, i);
            }
        };
        let credit = self.credit.chunks_exact(LANES);
        let eligible = self.eligible.chunks_exact(LANES);
        let tail = credit.remainder().iter().zip(eligible.remainder());
        for (k, (cs, es)) in credit.zip(eligible).enumerate() {
            for l in 0..LANES {
                visit(&mut lanes[l], k * LANES + l, cs[l], es[l]);
            }
        }
        let base = self.credit.len() / LANES * LANES;
        for (l, (&c, &ok)) in tail.enumerate() {
            visit(&mut lanes[l], base + l, c, ok);
        }
        // Merge: the larger credit wins, the higher index on a tie.
        let (_, best) = lanes
            .into_iter()
            .reduce(|a, b| {
                if b.0 > a.0 || (b.0 == a.0 && b.1 > a.1) {
                    b
                } else {
                    a
                }
            })
            .expect("LANES > 0");
        debug_assert!(self.eligible[best], "router picked an ineligible option");
        self.credit[best] -= 1.0;
        best
    }

    /// The fused single-pass scan [`Self::next`] replaced, kept as the
    /// reference its picks are tested against.
    #[cfg(test)]
    fn next_reference(&mut self) -> usize {
        assert!(self.total > 0.0, "all routing options are disabled");
        let mut best = None;
        let mut best_credit = f64::NEG_INFINITY;
        for i in 0..self.credit.len() {
            if !self.enabled[i] {
                continue;
            }
            self.credit[i] += self.stride[i];
            if self.weights[i] > 0.0 && self.credit[i] >= best_credit {
                best_credit = self.credit[i];
                best = Some(i);
            }
        }
        let best = best.expect("router has an enabled option");
        self.credit[best] -= 1.0;
        best
    }

    /// Masks or unmasks option `i`. Disabling sheds its credit (a revived
    /// option starts fresh rather than bursting to catch up) and
    /// renormalizes the surviving weights.
    ///
    /// # Panics
    /// Panics if `i` is out of range.
    pub fn set_enabled(&mut self, i: usize, enabled: bool) {
        let eligible = enabled && self.weights[i] > 0.0;
        if eligible != self.eligible[i] {
            self.eligible[i] = eligible;
            if eligible {
                self.num_eligible += 1;
            } else {
                self.num_eligible -= 1;
            }
        }
        self.enabled[i] = enabled;
        self.credit[i] = 0.0;
        self.total = self
            .weights
            .iter()
            .zip(&self.enabled)
            .filter(|(_, &e)| e)
            .map(|(w, _)| w)
            .sum();
        for ((s, w), &e) in self.stride.iter_mut().zip(&self.weights).zip(&self.enabled) {
            *s = if e { w / self.total } else { 0.0 };
        }
    }

    /// Applies a full enable mask: option `i` ends up enabled iff
    /// `mask[i]`. Only options whose state actually changes go through
    /// [`StrideRouter::set_enabled`], so unchanged options keep their
    /// accumulated credit (flipping an option sheds its credit; a no-op
    /// mask application must not perturb the routing sequence).
    ///
    /// # Panics
    /// Panics if `mask.len()` differs from the number of options.
    pub fn apply_mask(&mut self, mask: &[bool]) {
        assert_eq!(mask.len(), self.weights.len(), "mask length mismatch");
        for (i, &want) in mask.iter().enumerate() {
            if self.enabled[i] != want {
                self.set_enabled(i, want);
            }
        }
    }

    /// Whether option `i` is currently enabled.
    pub fn is_enabled(&self, i: usize) -> bool {
        self.enabled[i]
    }

    /// Number of enabled options with positive weight (choices `next` can
    /// actually make).
    pub fn num_enabled(&self) -> usize {
        self.num_eligible
    }

    /// Number of options.
    pub fn len(&self) -> usize {
        self.weights.len()
    }

    /// Whether the router has no options (never true after construction).
    pub fn is_empty(&self) -> bool {
        self.weights.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn realized_shares_track_weights() {
        let mut r = StrideRouter::new(vec![0.5, 0.3, 0.2]).unwrap();
        let mut counts = [0usize; 3];
        for _ in 0..1000 {
            counts[r.next()] += 1;
        }
        assert!((counts[0] as f64 - 500.0).abs() <= 2.0, "{counts:?}");
        assert!((counts[1] as f64 - 300.0).abs() <= 2.0, "{counts:?}");
        assert!((counts[2] as f64 - 200.0).abs() <= 2.0, "{counts:?}");
    }

    #[test]
    fn zero_weight_options_never_chosen() {
        let mut r = StrideRouter::new(vec![0.0, 1.0]).unwrap();
        for _ in 0..50 {
            assert_eq!(r.next(), 1);
        }
    }

    #[test]
    fn deterministic_sequence() {
        let mut a = StrideRouter::new(vec![2.0, 1.0]).unwrap();
        let mut b = StrideRouter::new(vec![2.0, 1.0]).unwrap();
        let sa: Vec<usize> = (0..20).map(|_| a.next()).collect();
        let sb: Vec<usize> = (0..20).map(|_| b.next()).collect();
        assert_eq!(sa, sb);
    }

    #[test]
    fn from_matrix_skips_zero_cells() {
        let rates = vec![vec![0.5, 0.0], vec![0.0, 0.5]];
        let (r, coords) = StrideRouter::from_matrix(&rates).unwrap();
        assert_eq!(r.len(), 2);
        assert_eq!(coords, vec![(0, 0), (1, 1)]);
    }

    #[test]
    fn disabled_options_are_skipped_and_share_renormalizes() {
        let mut r = StrideRouter::new(vec![0.5, 0.3, 0.2]).unwrap();
        assert_eq!(r.num_enabled(), 3);
        r.set_enabled(0, false);
        assert!(!r.is_enabled(0));
        assert_eq!(r.num_enabled(), 2);
        let mut counts = [0usize; 3];
        for _ in 0..1000 {
            counts[r.next()] += 1;
        }
        assert_eq!(counts[0], 0);
        // survivors absorb the dead option's share: 0.3/0.5 vs 0.2/0.5
        assert!((counts[1] as f64 - 600.0).abs() <= 2.0, "{counts:?}");
        assert!((counts[2] as f64 - 400.0).abs() <= 2.0, "{counts:?}");
    }

    #[test]
    fn reenabled_option_resumes_its_share() {
        let mut r = StrideRouter::new(vec![1.0, 1.0]).unwrap();
        r.set_enabled(1, false);
        for _ in 0..10 {
            assert_eq!(r.next(), 0);
        }
        r.set_enabled(1, true);
        let mut counts = [0usize; 2];
        for _ in 0..100 {
            counts[r.next()] += 1;
        }
        assert_eq!(counts[0], 50);
        assert_eq!(counts[1], 50);
    }

    #[test]
    fn apply_mask_only_touches_changed_options() {
        // A no-op mask must not shed credit: the routing sequence with a
        // redundant apply_mask interleaved must equal the untouched one.
        let mut a = StrideRouter::new(vec![0.6, 0.4]).unwrap();
        let mut b = StrideRouter::new(vec![0.6, 0.4]).unwrap();
        let mut sa = Vec::new();
        let mut sb = Vec::new();
        for step in 0..40 {
            if step % 3 == 0 {
                b.apply_mask(&[true, true]); // no-op
            }
            sa.push(a.next());
            sb.push(b.next());
        }
        assert_eq!(sa, sb);
        // A real change does take effect.
        b.apply_mask(&[true, false]);
        assert_eq!(b.num_enabled(), 1);
        for _ in 0..10 {
            assert_eq!(b.next(), 0);
        }
        b.apply_mask(&[true, true]);
        assert_eq!(b.num_enabled(), 2);
    }

    #[test]
    #[should_panic]
    fn next_with_all_disabled_panics() {
        let mut r = StrideRouter::new(vec![1.0]).unwrap();
        r.set_enabled(0, false);
        assert_eq!(r.num_enabled(), 0);
        let _ = r.next();
    }

    /// Drives `next` and `next_reference` on twin routers through the same
    /// mask flips and asserts identical picks, credits and counts.
    fn assert_matches_reference(weights: Vec<f64>, seed: u64, calls: usize) {
        use rand::Rng;
        let mut rng = ts_common::seeded_rng(seed);
        let mut fast = StrideRouter::new(weights).unwrap();
        let mut slow = fast.clone();
        let n = fast.len();
        for call in 0..calls {
            if rng.gen_bool(0.05) {
                let i = rng.gen_range(0..n);
                let on = !fast.is_enabled(i);
                // Never disable the last eligible option (next would panic).
                if on || fast.num_enabled() > 1 || fast.weights[i] == 0.0 {
                    fast.set_enabled(i, on);
                    slow.set_enabled(i, on);
                }
            }
            let expect_count = (0..n)
                .filter(|&i| slow.enabled[i] && slow.weights[i] > 0.0)
                .count();
            assert_eq!(fast.num_enabled(), expect_count, "seed {seed} call {call}");
            assert_eq!(
                fast.next(),
                slow.next_reference(),
                "seed {seed} call {call}"
            );
            let bits = |r: &StrideRouter| r.credit.iter().map(|c| c.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&fast), bits(&slow), "seed {seed} call {call}");
        }
    }

    #[test]
    fn next_matches_reference_scan() {
        use rand::Rng;
        for seed in 0..24u64 {
            let mut rng = ts_common::seeded_rng(seed);
            // Odd sizes exercise the lane remainder; some zero weights.
            let n = rng.gen_range(1..=37);
            let weights: Vec<f64> = (0..n)
                .map(|_| {
                    if rng.gen_bool(0.15) {
                        0.0
                    } else {
                        rng.gen_range(0.01..5.0)
                    }
                })
                .collect();
            if weights.iter().all(|&w| w == 0.0) {
                continue;
            }
            assert_matches_reference(weights, seed, 2_000);
        }
    }

    #[test]
    fn next_matches_reference_on_all_equal_weights() {
        // Equal weights tie on every call: the highest-indexed maximum wins.
        for n in [1usize, 3, 4, 5, 8, 64, 513] {
            assert_matches_reference(vec![1.0; n], n as u64, 3 * n + 50);
        }
    }

    #[test]
    fn rejects_bad_weights() {
        assert!(StrideRouter::new(vec![]).is_err());
        assert!(StrideRouter::new(vec![-1.0]).is_err());
        assert!(StrideRouter::new(vec![0.0, 0.0]).is_err());
        assert!(StrideRouter::new(vec![f64::NAN]).is_err());
    }
}
