//! Pattern dissimilarity (Definition 2).
//!
//! The paper defines the dissimilarity δ between two patterns as the L2
//! (Frobenius) distance over all `d × l` entries; [`l2_distance`] computes
//! it.  The composed path never materialises patterns: it folds the same
//! [`l2_components`] recurrence straight off the window and finishes with
//! [`l2_from_components`], so both paths produce the same bits.
//!
//! A pattern built with missing slots (the window extractors never produce
//! one, but [`Pattern::new`] can) has the affected coordinate pairs skipped
//! and the result rescaled by `total/observed`, so patterns with different
//! numbers of missing slots remain comparable.

use crate::pattern::Pattern;

fn check_shapes(a: &Pattern, b: &Pattern) {
    assert_eq!(a.rows(), b.rows(), "dissimilarity: row count mismatch");
    assert_eq!(a.length(), b.length(), "dissimilarity: length mismatch");
}

/// The components of the (rescaled) L2 distance: the sum of squared
/// differences over the pairs observed in both patterns, and the number of
/// such pairs.  [`l2_from_components`] folds it into the distance of
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
    // A fold of squares is never negative; the clamp also maps a NaN sum
    // to 0, and both paths share it, so it stays for their bit-identity.
    let scale = total as f64 / observed as f64;
    (sum_sq.max(0.0) * scale).sqrt()
}

/// The L2 distance of Definition 2 between two patterns of identical shape
/// — the measure the paper uses everywhere.
///
/// # Panics
/// Panics if the two patterns do not have the same shape.
pub fn l2_distance(a: &Pattern, b: &Pattern) -> f64 {
    let (sum_sq, observed) = l2_components(a, b);
    l2_from_components(sum_sq, observed, a.values().len())
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
        let d = l2_distance(&p_1400, &p_1420);
        assert!((d - 0.24f64.sqrt()).abs() < 1e-9, "d = {d}");
        // Symmetry and identity.
        assert_eq!(d, l2_distance(&p_1420, &p_1400));
        assert_eq!(l2_distance(&p_1420, &p_1420), 0.0);
    }

    #[test]
    fn l2_is_monotone_in_pattern_length() {
        // Lemma 5.1: extending both patterns by one more column can only
        // increase (or keep) the distance.
        let short_a = pattern(&[vec![1.0, 2.0]]);
        let short_b = pattern(&[vec![1.5, 2.5]]);
        let long_a = pattern(&[vec![0.0, 1.0, 2.0]]);
        let long_b = pattern(&[vec![9.0, 1.5, 2.5]]);
        let d_short = l2_distance(&short_a, &short_b);
        let d_long = l2_distance(&long_a, &long_b);
        assert!(d_long >= d_short);
    }

    #[test]
    fn missing_slots_are_skipped_and_rescaled() {
        let full_a = pattern(&[vec![1.0, 2.0, 3.0, 4.0]]);
        let full_b = pattern(&[vec![2.0, 3.0, 4.0, 5.0]]);
        let d_full = l2_distance(&full_a, &full_b);

        // Same patterns but with one pair unobserved: the rescaling keeps the
        // distance identical because every pair contributes equally here.
        let part_a = Pattern::new(
            Timestamp::new(0),
            1,
            4,
            vec![Some(1.0), None, Some(3.0), Some(4.0)],
        );
        let part_b = pattern(&[vec![2.0, 3.0, 4.0, 5.0]]);
        let d_part = l2_distance(&part_a, &part_b);
        assert!((d_full - d_part).abs() < 1e-12);

        // All-missing pattern: infinite distance so it is never selected.
        let empty_a = Pattern::new(Timestamp::new(0), 1, 2, vec![None, None]);
        let empty_b = pattern(&[vec![1.0, 2.0]]);
        assert!(l2_distance(&empty_a, &empty_b).is_infinite());
    }

    #[test]
    #[should_panic(expected = "mismatch")]
    fn shape_mismatch_panics() {
        let a = pattern(&[vec![1.0, 2.0]]);
        let b = pattern(&[vec![1.0, 2.0, 3.0]]);
        let _ = l2_distance(&a, &b);
    }
}
