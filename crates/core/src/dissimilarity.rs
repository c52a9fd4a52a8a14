//! Pattern dissimilarity measures (Definition 2).
//!
//! The paper defines the dissimilarity δ between two patterns as the L2
//! (Frobenius) distance over all `d × l` entries, and lists the L1 norm and
//! Dynamic Time Warping as interesting alternatives for future work
//! (Section 8).  All three are provided behind the [`Dissimilarity`] trait so
//! the imputer and the ablation benchmarks can swap them freely.
//!
//! When a pattern contains missing slots (only possible when the
//! configuration allows it) the affected coordinate pairs are skipped and the
//! result is rescaled by `total/observed` so that patterns with different
//! numbers of missing slots remain comparable.

use crate::pattern::Pattern;

/// A dissimilarity measure between two patterns of identical shape.
pub trait Dissimilarity: Send + Sync {
    /// Human-readable name of the measure (used in reports).
    fn name(&self) -> &'static str;

    /// Dissimilarity between two patterns.
    ///
    /// # Panics
    /// Panics if the two patterns do not have the same shape.
    fn distance(&self, a: &Pattern, b: &Pattern) -> f64;

    /// Whether this measure can be maintained as a sliding aggregate
    /// (Section 6.2) and bounded by the signature index, i.e. whether the
    /// engine may run its composed path.  Only the paper's L2 measure
    /// decomposes into per-column contributions; DTW's warping path and any
    /// other non-separable measure must keep the exact recompute-all path.
    fn supports_incremental(&self) -> bool {
        false
    }
}

fn check_shapes(a: &Pattern, b: &Pattern) {
    assert_eq!(a.rows(), b.rows(), "dissimilarity: row count mismatch");
    assert_eq!(a.length(), b.length(), "dissimilarity: length mismatch");
}

/// Collects the pairs of values that are observed in both patterns.
fn observed_pairs(a: &Pattern, b: &Pattern) -> (Vec<(f64, f64)>, usize) {
    let total = a.values().len();
    let pairs = a
        .values()
        .iter()
        .zip(b.values().iter())
        .filter_map(|(x, y)| match (x, y) {
            (Some(x), Some(y)) => Some((*x, *y)),
            _ => None,
        })
        .collect();
    (pairs, total)
}

/// The components of the (rescaled) L2 distance: the sum of squared
/// differences over the pairs observed in both patterns, and the number of
/// such pairs.  This is the running aggregate that
/// [`crate::incremental::ShortlistMaintainer`] maintains per shortlisted
/// candidate lag; [`l2_from_components`] folds it into the distance of
/// Definition 2.
pub fn l2_components(a: &Pattern, b: &Pattern) -> (f64, usize) {
    check_shapes(a, b);
    let mut sum_sq = 0.0;
    let mut observed = 0usize;
    for (x, y) in a.values().iter().zip(b.values().iter()) {
        if let (Some(x), Some(y)) = (x, y) {
            sum_sq += (x - y) * (x - y);
            observed += 1;
        }
    }
    (sum_sq, observed)
}

/// Folds [`l2_components`] into the L2 distance of Definition 2: missing
/// pairs are skipped and the result rescaled by `total/observed` so patterns
/// with different numbers of missing slots stay comparable.  No observed
/// pair at all yields `+∞` so the candidate is never selected.
pub fn l2_from_components(sum_sq: f64, observed: usize, total: usize) -> f64 {
    if observed == 0 {
        return f64::INFINITY;
    }
    // Clamp tiny negative values that incremental add/subtract can leave.
    let scale = total as f64 / observed as f64;
    (sum_sq.max(0.0) * scale).sqrt()
}

/// The Euclidean / Frobenius distance of Definition 2 — the measure used by
/// the paper everywhere.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct L2Distance;

impl Dissimilarity for L2Distance {
    fn name(&self) -> &'static str {
        "L2"
    }

    fn distance(&self, a: &Pattern, b: &Pattern) -> f64 {
        let (sum_sq, observed) = l2_components(a, b);
        l2_from_components(sum_sq, observed, a.values().len())
    }

    fn supports_incremental(&self) -> bool {
        true
    }
}

/// The Manhattan (L1) distance, listed as future work in Section 8.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct L1Distance;

impl Dissimilarity for L1Distance {
    fn name(&self) -> &'static str {
        "L1"
    }

    fn distance(&self, a: &Pattern, b: &Pattern) -> f64 {
        check_shapes(a, b);
        let (pairs, total) = observed_pairs(a, b);
        if pairs.is_empty() {
            return f64::INFINITY;
        }
        let sum: f64 = pairs.iter().map(|(x, y)| (x - y).abs()).sum();
        sum * total as f64 / pairs.len() as f64
    }
}

/// Dynamic Time Warping distance, applied per reference row and summed.
///
/// The paper suggests DTW as a way of aligning shifted patterns (Section 8).
/// A Sakoe–Chiba band of `band` columns restricts the warping path; with
/// `band = 0` DTW degenerates to the (squared) L2 distance of the row.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DtwDistance {
    /// Sakoe–Chiba band width (maximum column offset of the warping path).
    pub band: usize,
}

impl DtwDistance {
    /// Creates a DTW measure with the given Sakoe–Chiba band.
    pub fn new(band: usize) -> Self {
        DtwDistance { band }
    }

    fn dtw_row(&self, a: &[Option<f64>], b: &[Option<f64>]) -> f64 {
        let n = a.len();
        if n == 0 {
            return 0.0;
        }
        // Fill missing values with the row mean so DTW stays well defined.
        let mean_of = |row: &[Option<f64>]| {
            let obs: Vec<f64> = row.iter().flatten().copied().collect();
            if obs.is_empty() {
                0.0
            } else {
                obs.iter().sum::<f64>() / obs.len() as f64
            }
        };
        let ma = mean_of(a);
        let mb = mean_of(b);
        let av: Vec<f64> = a.iter().map(|v| v.unwrap_or(ma)).collect();
        let bv: Vec<f64> = b.iter().map(|v| v.unwrap_or(mb)).collect();

        let inf = f64::INFINITY;
        let mut dp = vec![vec![inf; n + 1]; n + 1];
        dp[0][0] = 0.0;
        for i in 1..=n {
            let lo = i.saturating_sub(self.band).max(1);
            let hi = (i + self.band).min(n);
            for j in lo..=hi {
                let cost = (av[i - 1] - bv[j - 1]).powi(2);
                let best = dp[i - 1][j].min(dp[i][j - 1]).min(dp[i - 1][j - 1]);
                if best.is_finite() {
                    dp[i][j] = cost + best;
                }
            }
        }
        dp[n][n].sqrt()
    }
}

impl Default for DtwDistance {
    fn default() -> Self {
        DtwDistance { band: 4 }
    }
}

impl Dissimilarity for DtwDistance {
    fn name(&self) -> &'static str {
        "DTW"
    }

    fn distance(&self, a: &Pattern, b: &Pattern) -> f64 {
        check_shapes(a, b);
        (0..a.rows())
            .map(|r| self.dtw_row(a.row(r), b.row(r)))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tkcm_timeseries::Timestamp;

    fn pattern(rows: &[Vec<f64>]) -> Pattern {
        Pattern::from_rows(Timestamp::new(0), rows)
    }

    #[test]
    fn l2_matches_example_3_of_the_paper() {
        // Example 3 computes δ(P(14:00), P(14:20)) from the Table 2 values.
        // The exact sum of squared differences is 0.24, so δ = sqrt(0.24) ≈
        // 0.49 (the paper's example text rounds the intermediate terms and
        // prints 0.43).
        let p_1400 = pattern(&[vec![16.2, 17.4, 17.7], vec![20.5, 19.8, 18.2]]);
        let p_1420 = pattern(&[vec![16.3, 17.1, 17.5], vec![20.2, 19.9, 18.2]]);
        let d = L2Distance.distance(&p_1400, &p_1420);
        assert!((d - 0.24f64.sqrt()).abs() < 1e-9, "d = {d}");
        // Symmetry and identity.
        assert_eq!(d, L2Distance.distance(&p_1420, &p_1400));
        assert_eq!(L2Distance.distance(&p_1420, &p_1420), 0.0);
    }

    #[test]
    fn l2_is_monotone_in_pattern_length() {
        // Lemma 5.1: extending both patterns by one more column can only
        // increase (or keep) the distance.
        let short_a = pattern(&[vec![1.0, 2.0]]);
        let short_b = pattern(&[vec![1.5, 2.5]]);
        let long_a = pattern(&[vec![0.0, 1.0, 2.0]]);
        let long_b = pattern(&[vec![9.0, 1.5, 2.5]]);
        let d_short = L2Distance.distance(&short_a, &short_b);
        let d_long = L2Distance.distance(&long_a, &long_b);
        assert!(d_long >= d_short);
    }

    #[test]
    fn l1_distance_basic_properties() {
        let a = pattern(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        let b = pattern(&[vec![2.0, 2.0], vec![3.0, 2.0]]);
        assert_eq!(L1Distance.distance(&a, &b), 3.0);
        assert_eq!(L1Distance.distance(&a, &a), 0.0);
        assert_eq!(L1Distance.name(), "L1");
        assert_eq!(L2Distance.name(), "L2");
    }

    #[test]
    fn missing_slots_are_skipped_and_rescaled() {
        let full_a = pattern(&[vec![1.0, 2.0, 3.0, 4.0]]);
        let full_b = pattern(&[vec![2.0, 3.0, 4.0, 5.0]]);
        let d_full = L2Distance.distance(&full_a, &full_b);

        // Same patterns but with one pair unobserved: the rescaling keeps the
        // distance identical because every pair contributes equally here.
        let part_a = Pattern::new(
            Timestamp::new(0),
            1,
            4,
            vec![Some(1.0), None, Some(3.0), Some(4.0)],
        );
        let part_b = pattern(&[vec![2.0, 3.0, 4.0, 5.0]]);
        let d_part = L2Distance.distance(&part_a, &part_b);
        assert!((d_full - d_part).abs() < 1e-12);

        // All-missing pattern: infinite distance so it is never selected.
        let empty_a = Pattern::new(Timestamp::new(0), 1, 2, vec![None, None]);
        let empty_b = pattern(&[vec![1.0, 2.0]]);
        assert!(L2Distance.distance(&empty_a, &empty_b).is_infinite());
        assert!(L1Distance.distance(&empty_a, &empty_b).is_infinite());
    }

    #[test]
    #[should_panic(expected = "mismatch")]
    fn shape_mismatch_panics() {
        let a = pattern(&[vec![1.0, 2.0]]);
        let b = pattern(&[vec![1.0, 2.0, 3.0]]);
        let _ = L2Distance.distance(&a, &b);
    }

    #[test]
    fn dtw_equals_zero_for_identical_patterns() {
        let a = pattern(&[vec![1.0, 2.0, 3.0], vec![0.0, 1.0, 0.0]]);
        let dtw = DtwDistance::default();
        assert_eq!(dtw.distance(&a, &a), 0.0);
        assert_eq!(dtw.name(), "DTW");
    }

    #[test]
    fn dtw_is_tolerant_to_small_shifts_where_l2_is_not() {
        // Pattern b is pattern a shifted by one column; DTW should consider
        // them much closer than the rigid L2 distance does.
        let a = pattern(&[vec![0.0, 0.0, 1.0, 5.0, 1.0, 0.0, 0.0, 0.0]]);
        let b = pattern(&[vec![0.0, 0.0, 0.0, 1.0, 5.0, 1.0, 0.0, 0.0]]);
        let d_l2 = L2Distance.distance(&a, &b);
        let d_dtw = DtwDistance::new(2).distance(&a, &b);
        assert!(d_dtw < d_l2 * 0.5, "dtw {d_dtw} vs l2 {d_l2}");
    }

    #[test]
    fn dtw_band_zero_is_rigid() {
        let a = pattern(&[vec![1.0, 2.0, 3.0]]);
        let b = pattern(&[vec![1.0, 4.0, 3.0]]);
        let rigid = DtwDistance::new(0).distance(&a, &b);
        assert!((rigid - 2.0).abs() < 1e-12);
    }

    #[test]
    fn dtw_handles_missing_by_mean_filling() {
        let a = Pattern::new(Timestamp::new(0), 1, 3, vec![Some(1.0), None, Some(3.0)]);
        let b = pattern(&[vec![1.0, 2.0, 3.0]]);
        let d = DtwDistance::new(1).distance(&a, &b);
        assert!(d.is_finite());
        let empty = Pattern::new(Timestamp::new(0), 1, 0, vec![]);
        assert_eq!(DtwDistance::new(1).distance(&empty, &empty), 0.0);
    }
}
