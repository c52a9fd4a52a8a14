//! Property-based tests for the TKCM core invariants.

use proptest::prelude::*;

use tkcm_core::{
    l2_distance, select_anchors_dp, select_anchors_greedy, Pattern, TkcmConfig, TkcmImputer,
};
use tkcm_timeseries::{SeriesId, StreamTick, StreamingWindow, Timestamp};

proptest! {
    /// The DP selection never produces overlapping anchors and never does
    /// worse (in total dissimilarity) than the greedy heuristic.
    #[test]
    fn dp_selection_is_valid_and_at_least_as_good_as_greedy(
        dissimilarities in proptest::collection::vec(0.0f64..100.0, 1..40),
        l in 1usize..6,
        k in 1usize..6,
    ) {
        let dp = select_anchors_dp(&dissimilarities, l, k);
        let greedy = select_anchors_greedy(&dissimilarities, l, k);

        // Non-overlap and bounds.
        for w in dp.indices.windows(2) {
            prop_assert!(w[1] - w[0] >= l, "overlapping anchors {:?}", dp.indices);
        }
        for &idx in &dp.indices {
            prop_assert!(idx < dissimilarities.len());
        }
        prop_assert!(dp.indices.len() <= k);

        // Optimality relative to greedy whenever both select the same count.
        if dp.indices.len() == greedy.indices.len() {
            prop_assert!(dp.total_dissimilarity <= greedy.total_dissimilarity + 1e-9,
                "dp {} > greedy {}", dp.total_dissimilarity, greedy.total_dissimilarity);
        }
        // The DP never selects fewer candidates than greedy managed to.
        prop_assert!(dp.indices.len() >= greedy.indices.len());

        // Reported total matches the sum of the selected dissimilarities.
        let sum: f64 = dp.indices.iter().map(|&i| dissimilarities[i]).sum();
        prop_assert!((sum - dp.total_dissimilarity).abs() < 1e-9);
    }

    /// The L2 pattern dissimilarity is a symmetric, non-negative function
    /// that is zero exactly on identical patterns and monotone in the
    /// pattern length (Lemma 5.1).
    #[test]
    fn l2_dissimilarity_properties(
        a in proptest::collection::vec(-50.0f64..50.0, 2..12),
        b in proptest::collection::vec(-50.0f64..50.0, 2..12),
    ) {
        let n = a.len().min(b.len());
        let a = &a[..n];
        let b = &b[..n];
        let pa = Pattern::from_rows(Timestamp::new(0), &[a.to_vec()]);
        let pb = Pattern::from_rows(Timestamp::new(0), &[b.to_vec()]);
        let d = l2_distance(&pa, &pb);
        prop_assert!(d >= 0.0);
        prop_assert!((d - l2_distance(&pb, &pa)).abs() < 1e-12);
        prop_assert_eq!(l2_distance(&pa, &pa), 0.0);

        // Monotonicity in pattern length: the distance of the length-(n-1)
        // prefix patterns is never larger than the full-length distance.
        if n > 2 {
            let pa_short = Pattern::from_rows(Timestamp::new(0), &[a[1..].to_vec()]);
            let pb_short = Pattern::from_rows(Timestamp::new(0), &[b[1..].to_vec()]);
            let d_short = l2_distance(&pa_short, &pb_short);
            prop_assert!(d_short <= d + 1e-9, "short {} > long {}", d_short, d);
        }
    }

    /// The imputed value always lies within the range of the target's
    /// observed history (it is an average of past values of the series), and
    /// Lemma 5.2 holds: the imputation is consistent wrt. its own anchors.
    #[test]
    fn imputed_value_is_a_convex_combination_of_history(
        seed_values in proptest::collection::vec(-10.0f64..10.0, 40..80),
        l in 1usize..4,
        k in 1usize..4,
    ) {
        let len = seed_values.len();
        let mut window = StreamingWindow::new(2, len);
        for (t, v) in seed_values.iter().enumerate() {
            let target = if t == len - 1 { None } else { Some(*v) };
            // Reference is a deterministic function of the value so patterns repeat.
            let reference = Some(v * 0.5 + 1.0);
            window
                .push_tick(&StreamTick::new(Timestamp::new(t as i64), vec![target, reference]))
                .unwrap();
        }
        let config = TkcmConfig::builder()
            .window_length(len)
            .pattern_length(l)
            .anchor_count(k)
            .reference_count(1)
            .build()
            .unwrap();
        let imputer = TkcmImputer::new(config).unwrap();
        let detail = imputer.impute(&window, SeriesId(0), &[SeriesId(1)]).unwrap();

        let observed = &seed_values[..len - 1];
        let min = observed.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = observed.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        prop_assert!(detail.value >= min - 1e-9 && detail.value <= max + 1e-9,
            "imputed {} outside history range [{min}, {max}]", detail.value);
        if !detail.anchors.is_empty() {
            prop_assert!(detail.consistency().is_consistent());
        }
    }
}
