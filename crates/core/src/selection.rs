//! Selection of the k most similar non-overlapping patterns.
//!
//! Definition 3 of the paper asks for a set `A` of `k` anchor points such
//! that (1) every anchored pattern lies inside the window and does not
//! overlap the query pattern, (2) the patterns do not overlap each other
//! (pairwise anchor distance ≥ `l`) and (3) the sum of dissimilarities to the
//! query pattern is minimal.
//!
//! A greedy algorithm that repeatedly picks the most similar pattern that
//! does not overlap the already chosen ones fails to minimise the sum
//! (Section 6.1), so the paper proposes a dynamic program over the matrix
//!
//! ```text
//! M[i][j] = 0                                            if i = 0
//!         = ∞                                            if i > j
//!         = min( M[i][j−1],  D[j] + M[i−1][max(j−l,0)] ) otherwise
//! ```
//!
//! where `D[j]` is the dissimilarity of the `j`-th candidate pattern
//! (Equation 5, Algorithm 1, Figure 8).  The imputer runs the DP
//! ([`select_anchors_dp`]); the greedy heuristic ([`select_anchors_greedy`])
//! is kept as the reference the tests hold the DP against, starting with the
//! paper's Figure 8 counter-example.
//!
//! In a streaming window most `D[j]` are `+∞`: missing data, anchor
//! provenance and the composed path's pruning all leave candidates
//! unevaluated.  A row of `M` cannot change at such a candidate, so the DP
//! ([`select_anchors_dp_at`]) takes only the F finite candidates, as
//! ascending `(idx, D)` columns, plus the candidate count J, and evaluates
//! the recurrence only there, in O(k·F) instead of O(k·J), reproducing the
//! dense matrix's cells, optimum and backtrack bit for bit.  Both imputer
//! paths build these columns as they fold, so no J-long `D` vector exists
//! on either; [`select_anchors_dp`] is the dense entry (NaN is treated like
//! `+∞`), a thin wrapper that collects the columns with one scan of `D`.

/// Result of a pattern-selection run.
#[derive(Clone, Debug, PartialEq)]
pub struct AnchorSelection {
    /// 0-based candidate indices of the selected patterns, in increasing
    /// index order (candidate `j` in the paper is index `j − 1` here).
    pub indices: Vec<usize>,
    /// Sum of the dissimilarities of the selected patterns.
    pub total_dissimilarity: f64,
    /// Whether the requested number of anchors could be selected.
    pub complete: bool,
}

impl AnchorSelection {
    fn empty() -> Self {
        AnchorSelection {
            indices: Vec::new(),
            total_dissimilarity: 0.0,
            complete: false,
        }
    }
}

/// Selects up to `k` non-overlapping candidates minimising the dissimilarity
/// sum using the dynamic program of the paper.
///
/// * `dissimilarities[j]` is `D[j+1]` of the paper: the dissimilarity of the
///   candidate anchored `j` positions after the first valid anchor.
///   Candidates whose dissimilarity is `+∞` (e.g. because the pattern
///   contained missing values) or NaN are never selected.
/// * `pattern_length` is `l`; two candidates `i < j` overlap iff `j − i < l`.
///
/// If fewer than `k` non-overlapping finite candidates exist, the selection
/// contains as many as possible and `complete` is `false`.
///
/// This collects the finite candidates as `(idx, D)` columns and runs
/// [`select_anchors_dp_at`] on them.
pub fn select_anchors_dp(
    dissimilarities: &[f64],
    pattern_length: usize,
    k: usize,
) -> AnchorSelection {
    let columns: Vec<(usize, f64)> = dissimilarities
        .iter()
        .copied()
        .enumerate()
        .filter(|&(_, d)| d < f64::INFINITY)
        .collect();
    select_anchors_dp_at(dissimilarities.len(), &columns, pattern_length, k)
}

/// The dynamic program of [`select_anchors_dp`] over `candidates` (J)
/// candidates, given only the finite ones: `columns` lists, in ascending
/// index order, every candidate whose dissimilarity is below `+∞` (so not
/// NaN either) with that dissimilarity; every other candidate's `D` is
/// `+∞`.  A caller that knows its finite candidates (both imputer paths,
/// which collect them as they fold) needs no J-long `D` vector.
///
/// The recurrence is evaluated *sparsely*.  At a candidate whose `D` is `+∞`
/// or NaN the take term is `+∞` or NaN, and `skip.min(+∞)` and
/// `skip.min(NaN)` both return `skip` (no cell is ever NaN), so every row
/// of `M` is constant from one finite candidate to the next.  Only the F
/// finite candidates get cells, and a predecessor pointer that moves forward
/// with them finds `M[i−1][max(j−l,0)]`.  Each cell is the same `D + M`
/// sum and the same `min` as in the dense `(k+1) × (J+1)` matrix, so the
/// optimum, its bits and the backtrack (ties included) are the dense DP's,
/// in O(k·F) time and memory instead of O(k·J).  The tests hold it against
/// a dense implementation bit for bit.
pub fn select_anchors_dp_at(
    candidates: usize,
    columns: &[(usize, f64)],
    pattern_length: usize,
    k: usize,
) -> AnchorSelection {
    assert!(pattern_length > 0, "pattern length must be positive");
    debug_assert!(
        columns.windows(2).all(|w| w[0].0 < w[1].0)
            && columns
                .iter()
                .all(|&(j, d)| j < candidates && d < f64::INFINITY),
        "columns must ascend, lie below the candidate count and hold only D < +∞"
    );
    let j_max = candidates;
    let f = columns.len();
    if k == 0 || f == 0 {
        return AnchorSelection::empty();
    }

    // The largest feasible number of anchors given the candidate count: with
    // J candidates and spacing l the maximum is ceil(J / l).
    let feasible_k = k.min(j_max.div_ceil(pattern_length));
    // Column (1-based, as in the paper) of the `a`-th finite candidate.
    let col = |a: usize| columns[a].0 + 1;

    // `m[(i − 1) · F + a]` is the paper's `M[i][col(a)]`; `M[i][j]` for any
    // other column is the cell of the last finite column ≤ j, or +∞ before
    // the first one.  Row 0 is all zeros and not stored.
    let mut m = vec![f64::INFINITY; feasible_k * f];
    for i in 1..=feasible_k {
        let (done, rest) = m.split_at_mut((i - 1) * f);
        let prev = &done[done.len().saturating_sub(f)..];
        let row = &mut rest[..f];
        // `p`: number of finite columns ≤ the current predecessor column.
        let mut p = 0usize;
        let mut skip = f64::INFINITY;
        for (a, &(c, d)) in columns.iter().enumerate() {
            let j = c + 1;
            let pred = j.saturating_sub(pattern_length);
            while p < f && col(p) <= pred {
                p += 1;
            }
            // Cells with i > j stay +∞, as in the dense matrix.
            if i <= j {
                let below = if i == 1 {
                    0.0
                } else if p == 0 {
                    f64::INFINITY
                } else {
                    prev[p - 1]
                };
                let take = d + below;
                row[a] = skip.min(take);
            }
            skip = row[a];
        }
    }
    let cell = |i: usize, a: usize| m[(i - 1) * f + a];

    // Find the largest i ≤ feasible_k with a finite optimum (infinite D values
    // can make even feasible_k unattainable).
    let Some(best_i) = (1..=feasible_k).rev().find(|&i| cell(i, f - 1).is_finite()) else {
        return AnchorSelection::empty();
    };

    // Backtrack (lines 15–23 of Algorithm 1).  The dense walk steps over
    // columns whose cell equals its left neighbour; between finite columns
    // that is every column, so jump straight to the last finite column ≤ j.
    let mut indices = Vec::with_capacity(best_i);
    let mut i = best_i;
    let mut a = f; // finite columns ≤ the current column
    while i > 0 && a > 0 {
        let j = col(a - 1);
        let left = if a >= 2 {
            cell(i, a - 2)
        } else {
            f64::INFINITY
        };
        if cell(i, a - 1) == left {
            a -= 1;
        } else {
            indices.push(j - 1);
            i -= 1;
            let pred = j.saturating_sub(pattern_length);
            while a > 0 && col(a - 1) > pred {
                a -= 1;
            }
        }
    }
    indices.reverse();

    AnchorSelection {
        total_dissimilarity: cell(best_i, f - 1),
        complete: best_i == k,
        indices,
    }
}

/// Greedy selection: repeatedly pick the most similar candidate that does not
/// overlap any already selected one.  The paper notes this does *not*
/// minimise the dissimilarity sum in general (Figure 8); it is kept as the
/// reference the DP is tested against, not as an engine option.
pub fn select_anchors_greedy(
    dissimilarities: &[f64],
    pattern_length: usize,
    k: usize,
) -> AnchorSelection {
    assert!(pattern_length > 0, "pattern length must be positive");
    let mut order: Vec<usize> = (0..dissimilarities.len())
        .filter(|&j| dissimilarities[j].is_finite())
        .collect();
    order.sort_by(|&a, &b| {
        dissimilarities[a]
            .partial_cmp(&dissimilarities[b])
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.cmp(&b))
    });

    let mut selected: Vec<usize> = Vec::with_capacity(k);
    for j in order {
        if selected.len() == k {
            break;
        }
        if selected.iter().all(|&s| s.abs_diff(j) >= pattern_length) {
            selected.push(j);
        }
    }
    selected.sort_unstable();
    let total = selected.iter().map(|&j| dissimilarities[j]).sum();
    AnchorSelection {
        complete: selected.len() == k,
        total_dissimilarity: total,
        indices: selected,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure_8_worked_example() {
        // D = [0.5, 0.3, 2.1, 0.7, 4.0], l = 3, k = 2.
        // The paper's DP selects patterns j = 1 (P(t6), δ=0.5) and j = 4
        // (P(t9), δ=0.7) with total dissimilarity 1.2.
        let d = [0.5, 0.3, 2.1, 0.7, 4.0];
        let sel = select_anchors_dp(&d, 3, 2);
        assert!(sel.complete);
        assert_eq!(sel.indices, vec![0, 3]);
        assert!((sel.total_dissimilarity - 1.2).abs() < 1e-12);
    }

    #[test]
    fn greedy_fails_on_figure_8_example() {
        // Greedy first grabs j = 2 (δ=0.3), which overlaps both neighbours of
        // the optimal solution; its best completion is j = 5 (δ=4.0), total 4.3.
        let d = [0.5, 0.3, 2.1, 0.7, 4.0];
        let greedy = select_anchors_greedy(&d, 3, 2);
        assert!(greedy.complete);
        assert_eq!(greedy.indices, vec![1, 4]);
        assert!(greedy.total_dissimilarity > 4.0);
        // The DP is strictly better.
        let dp = select_anchors_dp(&d, 3, 2);
        assert!(dp.total_dissimilarity < greedy.total_dissimilarity);
    }

    #[test]
    fn dp_never_selects_overlapping_candidates() {
        let d = [1.0, 0.1, 0.2, 0.15, 3.0, 0.05, 0.5];
        for k in 1..=4 {
            let sel = select_anchors_dp(&d, 2, k);
            for w in sel.indices.windows(2) {
                assert!(w[1] - w[0] >= 2, "overlap in {:?}", sel.indices);
            }
        }
    }

    #[test]
    fn dp_matches_brute_force_on_small_inputs() {
        // Exhaustive check of optimality over all non-overlapping subsets.
        fn brute_force(d: &[f64], l: usize, k: usize) -> Option<f64> {
            fn rec(d: &[f64], l: usize, k: usize, start: usize) -> Option<f64> {
                if k == 0 {
                    return Some(0.0);
                }
                let mut best: Option<f64> = None;
                for j in start..d.len() {
                    if !d[j].is_finite() {
                        continue;
                    }
                    if let Some(rest) = rec(d, l, k - 1, j + l) {
                        let total = d[j] + rest;
                        best = Some(best.map_or(total, |b: f64| b.min(total)));
                    }
                }
                best
            }
            rec(d, l, k, 0)
        }

        let cases: Vec<(Vec<f64>, usize, usize)> = vec![
            (vec![0.5, 0.3, 2.1, 0.7, 4.0], 3, 2),
            (vec![1.0, 0.9, 0.8, 0.7, 0.6, 0.5, 0.4], 2, 3),
            (vec![5.0, 1.0, 1.0, 5.0, 1.0, 1.0, 5.0], 3, 2),
            (vec![0.2, 0.1, 0.2, 0.1, 0.2, 0.1], 1, 4),
            (vec![3.0, 2.0, 1.0], 2, 2),
            (vec![1.0, f64::INFINITY, 2.0, 3.0, f64::INFINITY, 0.5], 2, 2),
        ];
        for (d, l, k) in cases {
            let dp = select_anchors_dp(&d, l, k);
            let expected = brute_force(&d, l, k);
            match expected {
                Some(total) if dp.complete => {
                    assert!(
                        (dp.total_dissimilarity - total).abs() < 1e-9,
                        "dp {} vs brute {} for {:?} l={} k={}",
                        dp.total_dissimilarity,
                        total,
                        d,
                        l,
                        k
                    );
                }
                Some(_) => panic!("dp incomplete but brute force found a solution: {d:?}"),
                None => assert!(
                    !dp.complete,
                    "brute force found no solution but dp claims one"
                ),
            }
        }
    }

    #[test]
    fn infeasible_k_returns_partial_selection() {
        // Only 3 candidates with l = 2: at most 2 non-overlapping patterns.
        let d = [1.0, 2.0, 3.0];
        let sel = select_anchors_dp(&d, 2, 5);
        assert!(!sel.complete);
        assert_eq!(sel.indices.len(), 2);
        // Greedy behaves the same way.
        let greedy = select_anchors_greedy(&d, 2, 5);
        assert!(!greedy.complete);
        assert_eq!(greedy.indices.len(), 2);
    }

    #[test]
    fn empty_and_degenerate_inputs() {
        assert_eq!(select_anchors_dp(&[], 3, 2), AnchorSelection::empty());
        assert_eq!(
            select_anchors_dp(&[1.0, 2.0], 3, 0),
            AnchorSelection::empty()
        );
        let all_inf = [f64::INFINITY, f64::INFINITY];
        assert!(select_anchors_dp(&all_inf, 1, 1).indices.is_empty());
        assert!(select_anchors_greedy(&all_inf, 1, 1).indices.is_empty());
    }

    #[test]
    fn k_equals_one_picks_the_minimum() {
        let d = [0.9, 0.4, 0.6, 0.2, 0.8];
        let sel = select_anchors_dp(&d, 4, 1);
        assert_eq!(sel.indices, vec![3]);
        assert!((sel.total_dissimilarity - 0.2).abs() < 1e-12);
    }

    #[test]
    fn infinite_candidates_are_skipped() {
        let d = [f64::INFINITY, 0.5, f64::INFINITY, 0.7, f64::INFINITY];
        let sel = select_anchors_dp(&d, 2, 2);
        assert!(sel.complete);
        assert_eq!(sel.indices, vec![1, 3]);
        assert!((sel.total_dissimilarity - 1.2).abs() < 1e-12);
    }

    #[test]
    fn ties_are_resolved_deterministically() {
        let d = [1.0, 1.0, 1.0, 1.0];
        let a = select_anchors_dp(&d, 2, 2);
        let b = select_anchors_dp(&d, 2, 2);
        assert_eq!(a, b);
        assert!(a.complete);
        assert!((a.total_dissimilarity - 2.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_pattern_length_panics() {
        let _ = select_anchors_dp(&[1.0], 0, 1);
    }
}
