//! The integer weight-rounding ladder (Section 3 of the paper).
//!
//! The paper rounds edge weights up to multiples of `b(i) = (1+ε)^i` and
//! solves an unweighted detection instance on each rounded graph `G_i`.
//! Lemma 3.1 shows that for every pair `(v, w)` there is a level whose
//! rounding error is within a `(1+ε)` factor *and* whose subdivided hop
//! distance is `O(h_{v,w}/ε)`.
//!
//! We use integer rungs instead of real powers so that all distance
//! estimates (`hops · b`) are exact integers and the soundness invariant
//! `wd'(v, s) ≥ wd(v, s)` cannot be broken by floating-point rounding:
//!
//! ```text
//! b_0 = 1,   b_{j+1} = max(b_j + 1, ⌊b_j · (1+ε)⌋),   while b_j ≤ w_max.
//! ```
//!
//! **Why the Lemma 3.1 analogue survives.** For a pair `(v, w)` let
//! `X = ε · wd(v,w) / h_{v,w}` and pick the largest rung `b ≤ X` (rung 1
//! always qualifies when `X ≥ 1`). Rounding every edge up to a multiple of
//! `b` adds `< b ≤ X` per hop, so `wd_b(v, w) < wd + h·X = (1+ε)·wd` —
//! identical to the paper. For the horizon: the next rung satisfies
//! `b_next ≤ max(2b, (1+ε)b + 1) ≤ 3b`, so `b > X/3`, hence the subdivided
//! hop distance is `wd_b/b ≤ (1+ε)·wd / b < 3(1+ε)·h/ε`. If instead
//! `X < 1`, then `wd < h/ε` and rung 1 gives exact distances with hop count
//! `wd < h/ε`. Either way [`horizon`]`(h, ε) = ⌈3(1+ε)·h/ε⌉ + 1` hops
//! suffice.

/// Builds the integer rung ladder for `ε` and `w_max`.
///
/// Returns rungs `1 = b_0 < b_1 < … ≤ w_max` (at least the single rung 1
/// for `w_max ≤ 1`). The ladder has `O(1/ε + log_{1+ε} w_max)` rungs.
///
/// # Panics
///
/// Panics unless `0 < ε ≤ 8` (the paper assumes `ε ∈ O(1)`; rung math is
/// validated for this range).
pub fn level_ladder(eps: f64, w_max: u64) -> Vec<u64> {
    assert!(eps > 0.0 && eps <= 8.0, "eps must be in (0, 8]");
    let mut rungs = vec![1u64];
    loop {
        let b = *rungs.last().expect("ladder is never empty");
        if b >= w_max {
            break;
        }
        let grown = (b as f64 * (1.0 + eps)).floor() as u64;
        let next = grown.max(b + 1);
        if next > w_max {
            break;
        }
        rungs.push(next);
    }
    rungs
}

/// The per-level hop horizon `h' ∈ O(h/ε)` (Corollary 3.2 analogue; see
/// the module docs for the constant).
///
/// # Panics
///
/// Panics unless `0 < ε ≤ 8` and `h ≥ 1`.
pub fn horizon(h: u64, eps: f64) -> u64 {
    assert!(eps > 0.0 && eps <= 8.0, "eps must be in (0, 8]");
    assert!(h >= 1, "horizon needs h >= 1");
    ((3.0 * (1.0 + eps) * h as f64 / eps).ceil() as u64).saturating_add(1)
}

/// Rounds a weight up to the next multiple of rung `b`, expressed in units
/// of `b` (i.e. the subdivision length `⌈w/b⌉ = W_i(e)/b(i)`).
#[inline]
pub fn subdivision_len(w: u64, b: u64) -> u64 {
    w.div_ceil(b)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ladder_starts_at_one_and_is_increasing() {
        for &eps in &[0.1, 0.25, 0.5, 1.0] {
            let l = level_ladder(eps, 1000);
            assert_eq!(l[0], 1);
            assert!(l.windows(2).all(|w| w[0] < w[1]));
            assert!(*l.last().unwrap() <= 1000);
        }
    }

    #[test]
    fn ladder_rung_ratio_bounded_by_three() {
        for &eps in &[0.05, 0.25, 0.5, 1.0, 2.0] {
            let l = level_ladder(eps, 1_000_000);
            for w in l.windows(2) {
                assert!(
                    w[1] <= w[0].max(1) * 3,
                    "ratio too large at eps={eps}: {} -> {}",
                    w[0],
                    w[1]
                );
                assert!(
                    (w[1] as f64) <= (w[0] as f64) * (1.0 + eps) + 1.0,
                    "rung growth violates (1+eps)b+1 at eps={eps}"
                );
            }
        }
    }

    #[test]
    fn ladder_size_scales_with_log_wmax_over_eps() {
        let small = level_ladder(0.5, 100).len();
        let big = level_ladder(0.5, 10_000).len();
        assert!(big > small);
        // O(1/eps + log_{1+eps} w): for eps=0.5, w=10^6 that's ~ 2 + 35.
        assert!(level_ladder(0.5, 1_000_000).len() < 60);
    }

    #[test]
    fn unit_weights_have_single_rung() {
        assert_eq!(level_ladder(0.25, 1), vec![1]);
        assert_eq!(level_ladder(0.25, 0), vec![1]);
    }

    #[test]
    fn horizon_grows_with_inverse_eps() {
        assert!(horizon(10, 0.1) > horizon(10, 0.5));
        assert!(horizon(10, 0.5) >= 10); // never below h
        assert_eq!(horizon(1, 1.0), 7);
    }

    #[test]
    fn subdivision_rounds_up() {
        assert_eq!(subdivision_len(10, 4), 3);
        assert_eq!(subdivision_len(8, 4), 2);
        assert_eq!(subdivision_len(1, 4), 1);
        assert_eq!(subdivision_len(5, 1), 5);
    }

    /// The Lemma 3.1 analogue, checked numerically over a grid of pairs:
    /// for every (wd, h) there is a rung with rounding error ≤ (1+ε)·wd
    /// and subdivided hops ≤ horizon(h, ε).
    #[test]
    fn lemma_3_1_analogue_holds() {
        for &eps in &[0.1, 0.25, 0.5] {
            let w_max = 10_000u64;
            let ladder = level_ladder(eps, w_max);
            for &h in &[1u64, 2, 5, 20, 100] {
                for &wd in &[1u64, 3, 10, 99, 1000, 9999] {
                    // wd ≤ h · w_max must hold for realizable pairs.
                    if wd > h * w_max {
                        continue;
                    }
                    let x = eps * wd as f64 / h as f64;
                    // Largest rung ≤ max(1, X).
                    let b = *ladder
                        .iter()
                        .rfind(|&&b| (b as f64) <= x.max(1.0))
                        .expect("rung 1 always qualifies");
                    // Worst-case rounded distance: wd + h·(b-1) (each of ≤ h
                    // hops rounded up by < b).
                    let rounded = wd + h * (b - 1);
                    assert!(
                        (rounded as f64) < (1.0 + eps) * wd as f64 + h as f64,
                        "rounding error too large: eps={eps} h={h} wd={wd} b={b}"
                    );
                    // Subdivided hops at this rung.
                    let hops = rounded.div_ceil(b);
                    assert!(
                        hops <= horizon(h, eps) + h,
                        "horizon too small: eps={eps} h={h} wd={wd} b={b} hops={hops} h'={}",
                        horizon(h, eps)
                    );
                }
            }
        }
    }
}
