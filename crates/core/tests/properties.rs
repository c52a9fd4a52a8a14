//! Property-based tests for the TKCM core invariants.

use proptest::prelude::*;

use tkcm_core::{
    l2_distance, select_anchors_dp, select_anchors_greedy, AnchorSelection, Pattern, TkcmConfig,
    TkcmEngine, TkcmImputer,
};
use tkcm_timeseries::{Catalog, SeriesId, StreamTick, StreamingWindow, Timestamp};

/// The dense form of the Section 6.1 dynamic program: the full
/// `(k+1) × (J+1)` matrix `M`, every cell evaluated.  It is the oracle the
/// engine's sparse [`select_anchors_dp`] is held against bit for bit.
fn select_anchors_dense(
    dissimilarities: &[f64],
    pattern_length: usize,
    k: usize,
) -> AnchorSelection {
    let empty = AnchorSelection {
        indices: Vec::new(),
        total_dissimilarity: 0.0,
        complete: false,
    };
    let j_max = dissimilarities.len();
    if k == 0 || j_max == 0 {
        return empty;
    }
    let feasible_k = k.min(j_max.div_ceil(pattern_length));
    let cols = j_max + 1;
    let mut m = vec![vec![0.0_f64; cols]; feasible_k + 1];
    for (i, row) in m.iter_mut().enumerate().skip(1) {
        for (j, cell) in row.iter_mut().enumerate() {
            if i > j {
                *cell = f64::INFINITY;
            }
        }
    }
    for i in 1..=feasible_k {
        for j in 1..=j_max {
            if i > j {
                continue;
            }
            let skip = m[i][j - 1];
            let pred = j.saturating_sub(pattern_length);
            let take = dissimilarities[j - 1] + m[i - 1][pred];
            m[i][j] = skip.min(take);
        }
    }
    let Some(best_i) = (1..=feasible_k).rev().find(|&i| m[i][j_max].is_finite()) else {
        return empty;
    };
    let mut indices = Vec::with_capacity(best_i);
    let mut i = best_i;
    let mut j = j_max;
    while i > 0 && j > 0 {
        if m[i][j] == m[i][j - 1] {
            j -= 1;
        } else {
            indices.push(j - 1);
            i -= 1;
            j = j.saturating_sub(pattern_length);
        }
    }
    indices.reverse();
    AnchorSelection {
        total_dissimilarity: m[best_i][j_max],
        complete: best_i == k,
        indices,
    }
}

/// Deterministic noise in `[-1, 1)` (SplitMix64), so a planted pattern is the
/// only close match in a window.
fn noise(t: u64) -> f64 {
    let mut z = t.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    (z >> 11) as f64 / (1u64 << 52) as f64 - 1.0
}

/// Patterns that straddle the ring seam — the raw index where a window's
/// ring wraps from its last slot to slot 0 — are folded exactly like any
/// other.  In a 64-tick window the query pattern at tick 130 straddles the
/// seam, and each later imputation's closest match is a planted copy of its
/// query that straddles it with a different split (e.g. the copy at tick
/// 192 covers raw slots 59..=63 then 0).  Composed == exhaustive value and
/// dissimilarity bits, with the planted candidate chosen.
#[test]
fn patterns_straddling_the_ring_seam_stay_bit_identical() {
    const L: usize = 64;
    const PATTERN: usize = 6;
    // (imputed tick, planted copy of its query pattern)
    let mut plants = vec![(130usize, 100usize)];
    plants.extend((0..PATTERN - 1).map(|split| {
        let copy = L * (3 + split) + split;
        (copy + 20, copy)
    }));
    let total = plants.last().unwrap().0 + 1;
    let mut reference: Vec<f64> = (0..total).map(|t| noise(t as u64)).collect();
    for &(query, copy) in &plants {
        for back in 0..PATTERN {
            // A slightly perturbed copy: the closest match by far, with a
            // nonzero D whose bits depend on the fold order.
            reference[copy - back] =
                reference[query - back] + 1e-3 * noise((500 + copy - back) as u64);
        }
    }
    let mk = |pruning: bool| {
        let config = TkcmConfig::builder()
            .window_length(L)
            .pattern_length(PATTERN)
            .anchor_count(2)
            .reference_count(1)
            .pruning(pruning)
            .build()
            .unwrap();
        TkcmEngine::new(2, config, Catalog::ring_neighbours(2)).unwrap()
    };
    let (mut composed, mut exhaustive) = (mk(true), mk(false));
    let mut checked = 0;
    for (t, &r) in reference.iter().enumerate() {
        let missing = plants.iter().any(|&(query, _)| query == t);
        let target = (!missing).then(|| 3.0 * r + noise(1_000 + t as u64));
        let tick = StreamTick::new(Timestamp::new(t as i64), vec![target, Some(r)]);
        let c = composed.process_tick(&tick).unwrap();
        let e = exhaustive.process_tick(&tick).unwrap();
        assert_eq!(c.imputations.len(), e.imputations.len());
        for (x, y) in c.imputations.iter().zip(&e.imputations) {
            assert_eq!(x.value.to_bits(), y.value.to_bits(), "tick {t}");
            assert_eq!(x.detail.anchors, y.detail.anchors, "tick {t}");
            let copy = plants.iter().find(|&&(query, _)| query == t).unwrap().1;
            assert!(
                x.detail
                    .anchors
                    .iter()
                    .any(|a| a.time == Timestamp::new(copy as i64) && a.dissimilarity < 0.01),
                "tick {t}: planted anchor {copy} not chosen: {:?}",
                x.detail.anchors
            );
            checked += 1;
        }
    }
    assert_eq!(checked, plants.len());
}

/// A NaN or ±∞ reading is missing at ingest, so it can never become an
/// anchor value (L = 400, l = 8, k = 3, d = 1).  The reference is noise
/// whose 8-tick pattern ending at tick 300 is copied to end at tick 250,
/// and the target is twice the reference, with the hostile reading at tick
/// 250 and a gap at tick 300.  Were the reading stored as observed, the
/// imputation at 300 would anchor on 250 and return it; on both paths it
/// must instead be finite and anchored elsewhere.
#[test]
fn a_non_finite_target_reading_never_becomes_an_anchor() {
    let reference = |t: usize| noise(if (243..=250).contains(&t) { t + 50 } else { t } as u64);
    for hostile in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
        for pruning in [true, false] {
            let config = TkcmConfig::builder()
                .window_length(400)
                .pattern_length(8)
                .anchor_count(3)
                .reference_count(1)
                .pruning(pruning)
                .build()
                .unwrap();
            let mut engine = TkcmEngine::new(2, config, Catalog::ring_neighbours(2)).unwrap();
            for t in 0..=300usize {
                let target = match t {
                    250 => Some(hostile),
                    300 => None,
                    _ => Some(2.0 * reference(t)),
                };
                let tick =
                    StreamTick::new(Timestamp::new(t as i64), vec![target, Some(reference(t))]);
                let outcome = engine.process_tick(&tick).unwrap();
                if t == 300 {
                    let detail = &outcome.imputations[0].detail;
                    assert!(
                        detail.value.is_finite(),
                        "reading {hostile}, pruning {pruning}: imputed {}",
                        detail.value
                    );
                    assert!(
                        detail.anchors.iter().all(|a| a.time != Timestamp::new(250)),
                        "reading {hostile}, pruning {pruning}: anchored on the hostile tick: {:?}",
                        detail.anchors
                    );
                }
            }
        }
    }
}

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

    /// The engine's sparse DP reproduces the dense matrix bit for bit: the
    /// same indices (ties included), the same completeness and the same
    /// total bits, on Ds that mix finite values, repeated values, `+∞` and
    /// NaN, with `k` up to past the feasible anchor count.
    #[test]
    fn sparse_dp_is_bit_identical_to_the_dense_matrix(
        draws in proptest::collection::vec((0usize..10, 0.0f64..8.0), 0..200),
        l in 1usize..8,
        k in 0usize..8,
    ) {
        let d: Vec<f64> = draws
            .iter()
            .map(|&(kind, v)| match kind {
                0..=3 => f64::INFINITY,
                4 => f64::NAN,
                // A coarse grid makes equal Ds, and so tied sums, common.
                5..=7 => (v * 2.0).floor() / 2.0,
                _ => v,
            })
            .collect();
        let sparse = select_anchors_dp(&d, l, k);
        let dense = select_anchors_dense(&d, l, k);
        prop_assert_eq!(&sparse.indices, &dense.indices);
        prop_assert_eq!(sparse.complete, dense.complete);
        prop_assert_eq!(
            sparse.total_dissimilarity.to_bits(),
            dense.total_dissimilarity.to_bits()
        );
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
