//! Equivalence and admissibility properties of the composed candidate path
//! (one best-first search per imputation over signature-index bounds).
//!
//! Three families:
//!
//! 1. **Bit-identity** — an engine on the composed path must produce
//!    *bitwise* the same imputations as an engine on the exhaustive exact
//!    path, across random periods, gap placements, pattern lengths and
//!    window capacities, with ring wrap-around and imputed write-backs in
//!    the mix, and on flat-lined and tiled non-dyadic references whose
//!    exact duplicates (D = 0) make the chunk-mean bound's rounding matter —
//!    see `signature.rs` and `TkcmImputer::impute_composed` for the
//!    float-level argument.
//! 2. **Admissibility** — the signature lower bound never exceeds the exact
//!    dissimilarity of any candidate, so a pruned candidate (LB > τ) can
//!    never belong to the k-NN anchor set.
//! 3. **Inadmissible fixture** — a deliberately inflated (hence wrong) bound
//!    at either level of the cascade must make the equivalence check *fail*,
//!    proving the suite detects over-pruning rather than vacuously passing.

use proptest::prelude::*;

use tkcm_core::{
    extract_pattern, extract_pattern_at_age, extract_query_pattern, l2_distance, level1_run_len,
    select_anchors_dp, PruneStats, RunSums, SignatureIndex, SignatureQuery, TkcmConfig, TkcmEngine,
    TkcmImputer, SIGNATURE_BLOCK_LEN,
};
use tkcm_store::{decode_from_slice, encode_to_vec};
use tkcm_timeseries::{Catalog, SeriesId, SlotState, StreamTick, StreamingWindow, Timestamp};

/// From-scratch `D` at one candidate lag, computed exactly like the exact
/// imputer path (pattern extraction + the L2 distance of Definition 2).
fn from_scratch_d(window: &StreamingWindow, refs: &[SeriesId], l: usize, lag: usize) -> f64 {
    let now = window.current_time().unwrap();
    let Some(query) = extract_query_pattern(window, refs, l).unwrap() else {
        return f64::INFINITY;
    };
    match extract_pattern(window, refs, now - lag as i64, l).unwrap() {
        Some(candidate) => l2_distance(&candidate, &query),
        None => f64::INFINITY,
    }
}

proptest! {
    /// An engine on the composed path is bitwise indistinguishable
    /// from an engine on the exhaustive exact path: same skipped series,
    /// same imputation times, same anchors and the same value *bits*, over
    /// random references with random target gaps, long enough to wrap the
    /// ring at least once (write-backs happen inside `process_tick`).  The
    /// references are integer sawtooths, tiles of a non-dyadic sine (exact
    /// duplicates one period apart) or flat-lined at non-dyadic levels (every
    /// complete candidate a duplicate), and l reaches past two signature
    /// blocks, so the chunk-mean bound runs on D = 0 candidates.  At a
    /// random tick the composed engine is replaced by its own
    /// `encode → decode` copy — rebuilt signature index, same prune
    /// counters — which must keep matching the oracle.  In one case in three the
    /// target is observed only in one l-tick burst per two windows, so its
    /// history never holds k non-overlapping candidates: τ is never
    /// certified and the search must end as the exhaustive sweep, pruning
    /// nothing.  The prune counters partition the candidates throughout.
    #[test]
    fn pruned_engine_is_bit_identical_to_exhaustive(
        period in 16u64..200,
        shift1 in 0u64..97,
        shift2 in 0u64..53,
        gap_start_frac in 0.2f64..0.7,
        gap_len in 3usize..24,
        capacity in 48usize..160,
        l in 3usize..44,
        restore_frac in 0.1f64..0.9,
        sparse_target in 0u8..3,
        shape in 0u8..3,
    ) {
        let width = 3;
        let k = 2;
        let window_length = capacity.max((k + 1) * l);
        let total = window_length * 2 + 40; // wrap the ring at least once
        let gap_start = (total as f64 * gap_start_frac) as usize;
        let restore_at = (total as f64 * restore_frac) as usize;

        let mk = |pruning: bool| {
            let config = TkcmConfig::builder()
                .window_length(window_length)
                .pattern_length(l)
                .anchor_count(k)
                .reference_count(2)
                .pruning(pruning)
                .build()
                .unwrap();
            TkcmEngine::new(width, config, Catalog::ring_neighbours(width)).unwrap()
        };
        // The composed path — one best-first search over level-1 and
        // level-0 bounds — must match the exhaustive engine bit for bit.
        let mut composed = mk(true);
        let mut exhaustive = mk(false);
        prop_assert!(composed.is_composed());
        prop_assert!(!exhaustive.is_composed());

        let saw = |t: usize, shift: u64| ((t as u64 + shift) % period) as f64;
        let reference = |t: usize, shift: u64, level: f64| match shape {
            0 => saw(t, shift),
            1 => level + 3.3 * (saw(t, shift) / period as f64 * std::f64::consts::TAU).sin(),
            _ => level,
        };
        for t in 0..total {
            let s0_missing = if sparse_target == 0 {
                t % (2 * window_length) >= l
            } else {
                (gap_start..gap_start + gap_len).contains(&t) || (t > 30 && t % 11 == 7)
            };
            let tick = StreamTick::new(
                Timestamp::new(t as i64),
                vec![
                    if s0_missing { None } else { Some(saw(t, 0)) },
                    Some(reference(t, shift1, 1000.1)),
                    Some(reference(t, shift2, 21.37)),
                ],
            );
            let m = composed.process_tick(&tick).unwrap();
            let b = exhaustive.process_tick(&tick).unwrap();

            prop_assert_eq!(&m.skipped, &b.skipped);
            prop_assert_eq!(m.imputations.len(), b.imputations.len());
            for (x, y) in m.imputations.iter().zip(b.imputations.iter()) {
                prop_assert_eq!(x.series, y.series);
                prop_assert_eq!(x.time, y.time);
                prop_assert!(
                    x.value.to_bits() == y.value.to_bits(),
                    "tick {}: composed {} vs exhaustive {}",
                    t,
                    x.value,
                    y.value
                );
                prop_assert_eq!(&x.detail.anchors, &y.detail.anchors);
                prop_assert_eq!(x.detail.complete, y.detail.complete);
                prop_assert_eq!(x.detail.fallback, y.detail.fallback);
            }
            if t == restore_at {
                let totals = composed.prune_totals();
                composed = decode_from_slice(&encode_to_vec(&composed).unwrap()).unwrap();
                prop_assert_eq!(composed.prune_totals(), totals);
            }
        }
        prop_assert_eq!(
            composed.imputations_performed(),
            exhaustive.imputations_performed()
        );
        let totals = composed.prune_totals();
        prop_assert_eq!(totals.candidates > 0, composed.imputations_performed() > 0);
        prop_assert!(
            totals.shortlisted + totals.pruned <= totals.candidates,
            "prune counters overlap: {:?}",
            totals
        );
        prop_assert!(totals.level1_skipped <= totals.pruned, "{:?}", totals);
        if sparse_target == 0 {
            prop_assert_eq!(totals.pruned, 0);
        }
    }

    /// Admissibility of the bound itself: for every candidate lag the
    /// level-0 lower bound is at most the exact dissimilarity, and the
    /// `certain_missing` verdict holds exactly when the dissimilarity is
    /// infinite.  Streams carry random gaps (one slot in six, so complete
    /// patterns — the only ones with a finite `D` — stay common), run past
    /// one window (ring wrap) and are perturbed by write-backs at random ages
    /// before checking.
    #[test]
    fn lower_bound_never_exceeds_the_exact_dissimilarity(
        v1 in proptest::collection::vec((0usize..6, -100.0f64..100.0), 40..140),
        v2 in proptest::collection::vec((0usize..6, -100.0f64..100.0), 40..140),
        capacity in 16usize..48,
        l_raw in 2usize..6,
        write_ages in proptest::collection::vec(0usize..48, 0..6),
    ) {
        let slot = |(gap, v): (usize, f64)| (gap != 0).then_some(v);
        let len = v1.len().min(v2.len());
        let refs: Vec<_> = (0..len).map(|t| [slot(v1[t]), slot(v2[t])]).collect();
        check_bounds_admissible(&refs, capacity, l_raw.min(capacity / 2).max(1), &write_ages)?;
    }

    /// The same admissibility check on gap-free references that tile a
    /// non-dyadic sine around 1000.1, exact or with a ≤ 1e-10 jitter:
    /// candidates one period apart are exact or near duplicates of the
    /// query, l is 16 or more, and the chunk-mean bound runs on whole
    /// chunks, where a rounding error in `|Σc − Σq|` would push a bound over
    /// `D² ≈ 0`.
    #[test]
    fn lower_bound_never_exceeds_the_exact_dissimilarity_on_near_duplicates(
        v1 in proptest::collection::vec(-100.0f64..100.0, 80..160),
        v2 in proptest::collection::vec(-100.0f64..100.0, 80..160),
        capacity in 32usize..80,
        l_raw in 16usize..40,
        write_ages in proptest::collection::vec(0usize..48, 0..6),
        jitter in 0u8..2,
        period in 5usize..24,
    ) {
        let refs = sine_tiles(&v1, &v2, 1000.1, period, jitter);
        check_bounds_admissible(&refs, capacity, l_raw.min(capacity / 2), &write_ages)?;
    }

    /// Near duplicates at a large level, `1e6 + 7.3·sin`, with long
    /// patterns and runs: a run-local prefix reaches about `n·1e6`, far
    /// above the chunk sums it is differenced into, so only the margin's
    /// scaling with the region keeps a duplicate's bound at 0.
    #[test]
    fn lower_bound_never_exceeds_the_exact_dissimilarity_at_a_large_level(
        v1 in proptest::collection::vec(-100.0f64..100.0, 200..320),
        v2 in proptest::collection::vec(-100.0f64..100.0, 200..320),
        l in 40usize..64,
        write_ages in proptest::collection::vec(0usize..48, 0..6),
        jitter in 0u8..2,
        period in 5usize..24,
    ) {
        let refs = sine_tiles(&v1, &v2, 1e6, period, jitter);
        check_bounds_admissible(&refs, 2 * l + 64, l, &write_ages)?;
    }

    /// End to end: the default engine, on its composed path, and an engine
    /// on the exhaustive recompute path
    /// impute the same value *bits* on the same stream (same missing slots,
    /// same skipped series, same anchors), including long outages where
    /// imputed history feeds later patterns and gaps in a reference.
    #[test]
    fn engine_incremental_equals_exact_recompute(
        period in 8.0f64..40.0,
        shift1 in 1.0f64..10.0,
        shift2 in 1.0f64..10.0,
        gap_start_frac in 0.3f64..0.8,
        gap_len in 3usize..20,
        capacity in 48usize..96,
    ) {
        let width = 3;
        let total = capacity * 2; // wrap the ring at least once
        let gap_start = (total as f64 * gap_start_frac) as usize;
        let l = 3;
        let mk = |composed: bool| {
            let config = TkcmConfig::builder()
                .window_length(capacity)
                .pattern_length(l)
                .anchor_count(3)
                .reference_count(2)
                .pruning(composed)
                .build()
                .unwrap();
            TkcmEngine::new(width, config, Catalog::ring_neighbours(width)).unwrap()
        };
        let mut inc_engine = mk(true);
        let mut exact_engine = mk(false);
        prop_assert!(inc_engine.is_composed());
        prop_assert!(!exact_engine.is_composed());

        let wave = |t: usize, shift: f64| {
            ((t as f64 - shift) / period * std::f64::consts::TAU).sin() * 10.0
                + (t as f64) * 1e-3 // slight drift to break exact ties
        };
        for t in 0..total {
            let s0_missing = (gap_start..gap_start + gap_len).contains(&t);
            let s1_missing = t % 17 == 5;
            let tick = StreamTick::new(
                Timestamp::new(t as i64),
                vec![
                    if s0_missing { None } else { Some(wave(t, 0.0)) },
                    if s1_missing { None } else { Some(wave(t, shift1)) },
                    Some(wave(t, shift2)),
                ],
            );
            let inc = inc_engine.process_tick(&tick).unwrap().timing_stripped();
            let exact = exact_engine.process_tick(&tick).unwrap().timing_stripped();
            prop_assert!(inc == exact, "tick {}: composed {:?} vs exact {:?}", t, inc, exact);
        }
        prop_assert_eq!(
            inc_engine.imputations_performed(),
            exact_engine.imputations_performed()
        );
        // The composed engine counts its folds; the exact engine counts
        // nothing.
        prop_assert!(inc_engine.prune_totals().shortlisted > 0);
        prop_assert_eq!(exact_engine.prune_totals(), PruneStats::default());
    }
}

/// Two references tiling `level + 7.3·sin` with the given period, each
/// slot jittered by at most `v·1e-12` when `jitter` is 1.
fn sine_tiles(
    v1: &[f64],
    v2: &[f64],
    level: f64,
    period: usize,
    jitter: u8,
) -> Vec<[Option<f64>; 2]> {
    let tile = |t: usize, v: f64| {
        let phase = (t % period) as f64 / period as f64 * std::f64::consts::TAU;
        Some(level + 7.3 * phase.sin() + v * 1e-12 * f64::from(jitter))
    };
    (0..v1.len().min(v2.len()))
        .map(|t| [tile(t, v1[t]), tile(t, v2[t])])
        .collect()
}

/// Pushes `refs` (series 1 and 2 beside a complete series 0) into a window
/// of `capacity` and its signature index, writes imputed values at
/// `write_ages` (taken modulo the filled length) into both references, and
/// checks every candidate lag's level-0 bound at pattern length `l` with
/// [`check_level0`], for runs of one lag, of the engine's run width and of
/// every lag at once.
fn check_bounds_admissible(
    refs: &[[Option<f64>; 2]],
    capacity: usize,
    l: usize,
    write_ages: &[usize],
) -> Result<(), String> {
    let width = 3;
    let ids = vec![SeriesId(1), SeriesId(2)];
    let mut window = StreamingWindow::new(width, capacity);
    let mut index = SignatureIndex::new(width, capacity).unwrap();
    for (t, [r1, r2]) in refs.iter().enumerate() {
        let values = vec![Some(t as f64 * 0.5), *r1, *r2];
        window
            .push_tick(&StreamTick::new(Timestamp::new(t as i64), values.clone()))
            .expect("tick accepted");
        index.on_push(&values).expect("push accepted");
    }
    for (i, &age) in write_ages.iter().enumerate() {
        let age = age % window.filled();
        for id in &ids {
            let value = i as f64 * 1.7 - 3.0;
            window
                .write_imputed(*id, age, value)
                .expect("write accepted");
            index.on_write(&window, *id, age).expect("write accepted");
        }
    }
    prop_assert!(index.is_synced(&window));

    let filled = window.filled();
    if filled < 2 * l {
        return Ok(());
    }
    for run_len in [1, level1_run_len(l), filled + 1 - 2 * l] {
        check_level0(&window, &ids, l, run_len)?;
    }
    Ok(())
}

/// Checks the level-0 bound of every candidate lag at pattern length `l`,
/// from run-wide fills over runs of `run_len` lags laid out as the imputer
/// lays them out: `LB ≤ D²`, `LB` bit-equal to [`per_lag_bound_sq`], and
/// `certain_missing` exactly when the lag's reference range holds a missing
/// slot.  A window whose query pattern is incomplete has no search to
/// bound.
fn check_level0(
    window: &StreamingWindow,
    refs: &[SeriesId],
    l: usize,
    run_len: usize,
) -> Result<(), String> {
    let Some(query) = extract_query_pattern(window, refs, l).expect("valid geometry") else {
        return Ok(());
    };
    let rows: Vec<&[f64]> = (0..refs.len()).map(|ri| query.row(ri)).collect();
    let sig_query = SignatureQuery::new(&rows);
    let oldest_age = window.filled() - l;
    let j = oldest_age + 1 - l;
    let mut sums = RunSums::default();
    for s in (0..j).step_by(run_len) {
        let e = (s + run_len).min(j);
        let lag_lo = oldest_age - (e - 1);
        sums.fill(window, refs, lag_lo, e - s, l, &sig_query)
            .expect("the run's region is pushed");
        let per_lag = PerLagBound::new(window, refs, &rows, lag_lo, e - s);
        for idx in s..e {
            let lag = oldest_age - idx;
            let (lb_sq, certain_missing) = sums.lower_bound_sq(lag);
            prop_assert!(lb_sq.is_finite() && lb_sq >= 0.0);
            let holds_missing = refs.iter().any(|&r| {
                let (older, newer) = window.value_run(r, lag, l).expect("in window");
                older.iter().chain(newer).any(|x| x.is_nan())
            });
            prop_assert!(
                certain_missing == holds_missing,
                "lag {}: certain_missing {} but the range holds a missing slot: {}",
                lag,
                certain_missing,
                holds_missing
            );
            let (expected, expected_missing) = per_lag.bound_sq(lag);
            prop_assert!(
                lb_sq.to_bits() == expected.to_bits() && certain_missing == expected_missing,
                "runs of {} lag {}: run-wide ({}, {}) vs per-lag ({}, {})",
                run_len,
                lag,
                lb_sq,
                certain_missing,
                expected,
                expected_missing
            );
            let exact = from_scratch_d(window, refs, l, lag);
            prop_assert!(
                exact.is_finite() != holds_missing,
                "lag {}: D = {}",
                lag,
                exact
            );
            if exact.is_finite() {
                prop_assert!(
                    lb_sq <= exact * exact * (1.0 + 1e-12),
                    "runs of {} lag {}: lower bound {} exceeds exact D² {}",
                    run_len,
                    lag,
                    lb_sq,
                    exact * exact
                );
            }
        }
    }
    Ok(())
}

/// The chunk-mean bound written out one lag at a time, the reference
/// [`RunSums`] must match bit for bit: per reference a prefix over the
/// run's region that skips missing slots, then per chunk of a complete lag
/// `gap = |ΣC − Σq| − (m_r + m_c)`, added as `gap·(gap·w)` only where it is
/// positive and finite.
struct PerLagBound<'a> {
    rows: &'a [&'a [f64]],
    /// The run's largest lag: lag `a` starts at region offset `lag_hi − a`.
    lag_hi: usize,
    l: usize,
    /// Per reference: the region's prefix sums, its values and its margin
    /// `(n + 4)·ε·n·max|x|`.
    regions: Vec<(Vec<f64>, Vec<f64>, f64)>,
}

impl<'a> PerLagBound<'a> {
    fn new(
        window: &StreamingWindow,
        refs: &[SeriesId],
        rows: &'a [&'a [f64]],
        lag_lo: usize,
        run_len: usize,
    ) -> Self {
        let l = rows[0].len();
        let n = run_len - 1 + l;
        let regions = refs
            .iter()
            .map(|&r| {
                let (older, newer) = window.value_run(r, lag_lo, n).expect("in window");
                let values: Vec<f64> = older.iter().chain(newer).copied().collect();
                let (mut prefix, mut sum, mut max_abs) = (vec![0.0], 0.0, 0.0f64);
                for &x in &values {
                    if !x.is_nan() {
                        sum += x;
                        max_abs = max_abs.max(x.abs());
                    }
                    prefix.push(sum);
                }
                let margin = (n + 4) as f64 * f64::EPSILON * n as f64 * max_abs;
                (prefix, values, margin)
            })
            .collect();
        PerLagBound {
            rows,
            lag_hi: lag_lo + run_len - 1,
            l,
            regions,
        }
    }

    fn bound_sq(&self, lag: usize) -> (f64, bool) {
        let o = self.lag_hi - lag;
        let l = self.l;
        if self
            .regions
            .iter()
            .any(|(_, values, _)| values[o..o + l].iter().any(|x| x.is_nan()))
        {
            return (0.0, true);
        }
        let block = SIGNATURE_BLOCK_LEN as usize;
        let mut sum = 0.0f64;
        for ((prefix, _, margin), row) in self.regions.iter().zip(self.rows) {
            for (c, chunk) in row.chunks(block).enumerate() {
                let (mut min, mut max, mut q_sum) = (f64::INFINITY, f64::NEG_INFINITY, 0.0);
                for &q in chunk {
                    min = min.min(q);
                    max = max.max(q);
                    q_sum += q;
                }
                let len = chunk.len() as f64;
                let q_margin = (len + 4.0) * f64::EPSILON * len * min.abs().max(max.abs());
                let p_s = o + c * block;
                let gap =
                    (prefix[p_s + chunk.len()] - prefix[p_s] - q_sum).abs() - (margin + q_margin);
                if gap > 0.0 && gap.is_finite() {
                    sum += gap * (gap * ((1.0 - 1e-9) / len));
                }
            }
        }
        (sum, false)
    }
}

proptest! {
    /// Write-back re-summaries across ring wrap-around *combined with*
    /// block-boundary-straddling imputed runs (the suite previously covered
    /// wrap and write-back separately): streams run past two full windows so
    /// the ring wraps, then contiguous imputed runs are written at ages
    /// chosen to straddle `SIGNATURE_BLOCK_LEN` boundaries.  Afterwards the
    /// level-0 bound from each run's prefix sums *and* the level-1 run bound
    /// must stay admissible for every candidate lag and run width.
    #[test]
    fn write_back_runs_straddling_blocks_stay_admissible_after_wrap(
        period in 8u64..60,
        capacity in 48usize..96,
        l in 3usize..9,
        runs in proptest::collection::vec((0usize..96, 3usize..20, -40.0f64..40.0), 1..5),
        run_len_choice in 0usize..3,
    ) {
        let width = 3;
        let refs = vec![SeriesId(1), SeriesId(2)];
        let mut window = StreamingWindow::new(width, capacity);
        let mut index = SignatureIndex::new(width, capacity).unwrap();

        // Wrap the ring at least twice; sprinkle missing slots so the
        // write-backs hit both observed overwrites and missing-slot fills,
        // each of which re-summarizes its block from the window.
        let total = capacity * 2 + 17;
        for t in 0..total {
            let gap = t % 13 == 5 || t % 7 == 3;
            let mk = |shift: u64| {
                if gap && shift != 0 {
                    None
                } else {
                    Some(((t as u64 + shift) % period) as f64)
                }
            };
            let values = vec![Some(t as f64 * 0.5), mk(3), mk(11)];
            window
                .push_tick(&StreamTick::new(Timestamp::new(t as i64), values.clone()))
                .expect("tick accepted");
            index.on_push(&values).expect("push accepted");
        }

        // Imputed runs: contiguous age spans.  A span of length ≥ 3 starting
        // at an arbitrary age straddles a block boundary whenever it crosses
        // a multiple of the block length in ordinal space, which the random
        // starts guarantee across cases.
        for &(start, span, value) in &runs {
            let start = start % (capacity - 1);
            let end = (start + span).min(capacity - 1);
            for age in start..end {
                for id in &refs {
                    window.write_imputed(*id, age, value).expect("write accepted");
                    index.on_write(&window, *id, age).expect("write accepted");
                }
            }
        }
        prop_assert!(index.is_synced(&window));

        let filled = window.filled();
        if filled >= 2 * l {
            let run_len = [1usize, 4, 16][run_len_choice];
            check_level0(&window, &refs, l, run_len)?;
            // Level-1 run bound: admissible for *every* lag inside the run.
            if let Some(q) = extract_query_pattern(&window, &refs, l).expect("valid geometry") {
                let rows: Vec<&[f64]> = (0..refs.len()).map(|ri| q.row(ri)).collect();
                let sq = &SignatureQuery::new(&rows);
                let j = filled - 2 * l + 1;
                let oldest_age = filled - l;
                let mut bounds = Vec::new();
                index.run_bounds_sq(&refs, oldest_age, j, run_len, l, sq, &mut bounds);
                prop_assert_eq!(bounds.len(), j.div_ceil(run_len));
                for (i, &run_sq) in bounds.iter().enumerate() {
                    let (s, e) = (i * run_len, ((i + 1) * run_len).min(j));
                    prop_assert!(run_sq.is_finite() && run_sq >= 0.0);
                    for idx in s..e {
                        let lag = oldest_age - idx;
                        let exact = from_scratch_d(&window, &refs, l, lag);
                        if exact.is_finite() {
                            prop_assert!(
                                run_sq <= exact * exact * (1.0 + 1e-12),
                                "run [{}, {}) lag {}: run bound {} exceeds exact D² {}",
                                s,
                                e,
                                lag,
                                run_sq,
                                exact * exact
                            );
                        }
                    }
                }
            }
        }
    }
}

/// Builds the inadmissibility fixture: a window + synced signature index in
/// which the true nearest candidate (an off-by-one copy of the query, D = 4)
/// has a *non-zero* lower bound, while a decoy candidate (alternating values
/// whose chunk mean equals the query's, D = 360) has a lower bound of
/// exactly zero.  With admissible bounds the composed path finds the copy; inflating
/// the bounds prunes it and the decoy wins — a detectably different answer.
fn inadmissible_fixture() -> (StreamingWindow, SignatureIndex, TkcmImputer) {
    let width = 2;
    let capacity = 256usize;
    let l = 16usize; // one full signature block, so the query aligns with it
    let config = TkcmConfig::builder()
        .window_length(capacity)
        .pattern_length(l)
        .anchor_count(1)
        .reference_count(1)
        .build()
        .unwrap();
    let imputer = TkcmImputer::new(config).unwrap();
    let mut window = StreamingWindow::new(width, capacity);
    let mut index = SignatureIndex::new(width, capacity).unwrap();

    let total = 256usize;
    for t in 0..total {
        let age = total - 1 - t; // age of this tick once all pushes are done
        let reference = if age < 16 {
            10.0 // the query block: envelope [10, 10]
        } else if (96..112).contains(&age) {
            9.0 // true nearest: per-column diff 1 ⇒ D = 4, LB = 4 (tight)
        } else if (32..48).contains(&age) {
            // decoy: alternating −80/100 has the query's chunk mean 10, so
            // its chunk-mean term — and with it the lower bound — is exactly
            // 0, while the exact D is 360 (|diff| = 90 in every column).
            if age.is_multiple_of(2) {
                100.0
            } else {
                -80.0
            }
        } else {
            -80.0 // background: gap 90 ⇒ LB = D = 360
        };
        // The target is a ramp (distinct value at every age) so different
        // anchors produce different imputed values; its newest value is the
        // missing one being imputed.
        let target = if age == 0 {
            None
        } else {
            Some(t as f64 * 0.25)
        };
        let values = vec![target, Some(reference)];
        window
            .push_tick(&StreamTick::new(Timestamp::new(t as i64), values.clone()))
            .expect("tick accepted");
        index.on_push(&values).expect("push accepted");
    }
    (window, index, imputer)
}

/// The composed path's negative control at level 0.  On the fixture: (1)
/// with admissible bounds the composed path reproduces the exhaustive
/// answer bitwise, and a second call on the same window gives the same
/// answer and counts, since nothing is kept between calls; (2) a deliberately
/// inflated — hence inadmissible — per-lag bound prunes the true nearest
/// candidate away and the imputed value visibly changes.  If over-pruning
/// ever happens, these comparisons are what catches it.
#[test]
fn inflated_bounds_are_caught_by_the_equivalence_check() {
    let (window, index, imputer) = inadmissible_fixture();
    let target = SeriesId(0);
    let refs = vec![SeriesId(1)];

    let exact = imputer.impute(&window, target, &refs).unwrap();

    // Positive control: the composed path must match exhaustive bitwise.
    let (composed, stats) = imputer
        .impute_composed(&window, target, &refs, &index)
        .unwrap();
    assert_eq!(
        composed.value.to_bits(),
        exact.value.to_bits(),
        "the composed path must reproduce the exhaustive answer bitwise"
    );
    assert_eq!(composed.anchors, exact.anchors);
    let (again, again_stats) = imputer
        .impute_composed(&window, target, &refs, &index)
        .unwrap();
    assert_eq!(again.value.to_bits(), composed.value.to_bits());
    assert_eq!(again_stats, stats);

    let (inflated, stats) = imputer
        .impute_composed_with_inflation(&window, target, &refs, &index, 1e6, 1.0)
        .unwrap();
    assert!(
        stats.pruned > 0,
        "the inflated bound must actually prune candidates: {stats:?}"
    );
    assert_ne!(
        inflated.anchors, exact.anchors,
        "an inadmissible bound prunes the true nearest candidate, so the \
         equivalence check must observe a different anchor set"
    );
    assert_ne!(
        inflated.value.to_bits(),
        exact.value.to_bits(),
        "…and a different imputed value"
    );
}

/// The composed path's negative control at level 1: on the same fixture,
/// inflating only the *run* bound prunes the whole run holding the true
/// nearest candidate, which the equivalence comparison catches.  Together
/// with the level-0 control above this proves over-pruning at either level
/// of the composed cascade is observable, not silently absorbed.
#[test]
fn inflated_level1_union_bounds_are_caught_by_the_equivalence_check() {
    let (window, index, imputer) = inadmissible_fixture();
    let target = SeriesId(0);
    let refs = vec![SeriesId(1)];

    let exact = imputer.impute(&window, target, &refs).unwrap();
    let (inflated, stats) = imputer
        .impute_composed_with_inflation(&window, target, &refs, &index, 1.0, 1e6)
        .unwrap();
    assert!(
        stats.level1_skipped > 0,
        "the inflated run bound must skip whole runs: {stats:?}"
    );
    assert_ne!(
        inflated.anchors, exact.anchors,
        "an inadmissible level-1 union bound prunes the true nearest run, so \
         the equivalence check must observe a different anchor set"
    );
    assert_ne!(inflated.value.to_bits(), exact.value.to_bits());
}

/// One case of the chunk-mean rounding fixture: width 3, a noise target
/// that misses one tick in 37 after t = 600, and two references of one
/// shape, at pattern length `l` and `k` anchors over a window of 1 200.
struct RoundingCase {
    /// `Some(level)`: both references run a sine tile until t = 600 and
    /// then flat-line (a stuck sensor) at the non-dyadic `level`.
    /// `None`: both references stay a non-dyadic `offset + amp·sin` tile.
    stuck_at: Option<f64>,
    period: usize,
    l: usize,
    k: usize,
}

const ROUNDING_CASES: [RoundingCase; 4] = [
    RoundingCase {
        stuck_at: Some(1000.1),
        period: 61,
        l: 40,
        k: 5,
    },
    RoundingCase {
        stuck_at: Some(21.37),
        period: 61,
        l: 72,
        k: 5,
    },
    RoundingCase {
        stuck_at: None,
        period: 48,
        l: 32,
        k: 5,
    },
    RoundingCase {
        stuck_at: None,
        period: 80,
        l: 64,
        k: 5,
    },
];

impl RoundingCase {
    const WINDOW: usize = 1200;

    fn config(&self, pruning: bool) -> TkcmConfig {
        TkcmConfig::builder()
            .window_length(Self::WINDOW)
            .pattern_length(self.l)
            .anchor_count(self.k)
            .reference_count(2)
            .pruning(pruning)
            .build()
            .unwrap()
    }

    /// The fixture's ticks: the window wraps half a time past its length.
    fn ticks(&self) -> Vec<StreamTick> {
        let tile = |t: usize, offset: f64, amp: f64, shift: usize| {
            let phase = ((t + shift) % self.period) as f64 / self.period as f64;
            offset + amp * (phase * std::f64::consts::TAU).sin()
        };
        let reference = |t: usize, offset: f64, amp: f64, shift: usize| match self.stuck_at {
            Some(level) if t >= 600 => level,
            _ => tile(t, offset, amp, shift),
        };
        (0..Self::WINDOW * 3 / 2)
            .map(|t| {
                let noise = ((t as f64 * 12.9898).sin() * 43_758.545_3).fract();
                let target = (t < 600 || t % 37 != 0).then_some(noise);
                let values = vec![
                    target,
                    Some(reference(t, 1000.1, 4.7, 0)),
                    Some(reference(t, 21.37, 0.93, 17)),
                ];
                StreamTick::new(Timestamp::new(t as i64), values)
            })
            .collect()
    }
}

/// Item-for-item regression for the chunk-mean bound's float-level
/// admissibility: on flat-lined and tiled non-dyadic references, many
/// candidates are exact duplicates of the query (D = 0), a run-local prefix
/// difference and a directly folded query chunk sum of the same values
/// round differently, and
/// once k duplicates fix τ = 0 any positive bound on a duplicate prunes a
/// candidate the oracle's DP may select.  The composed engine must impute
/// the same value bits as the exhaustive one at every tick.
#[test]
fn the_mean_bound_keeps_duplicates_of_non_dyadic_references() {
    for case in &ROUNDING_CASES {
        let mut composed =
            TkcmEngine::new(3, case.config(true), Catalog::ring_neighbours(3)).unwrap();
        let mut exhaustive =
            TkcmEngine::new(3, case.config(false), Catalog::ring_neighbours(3)).unwrap();
        for tick in case.ticks() {
            let m = composed.process_tick(&tick).unwrap();
            let b = exhaustive.process_tick(&tick).unwrap();
            assert_eq!(m.imputations.len(), b.imputations.len());
            for (x, y) in m.imputations.iter().zip(&b.imputations) {
                assert_eq!(
                    x.value.to_bits(),
                    y.value.to_bits(),
                    "stuck {:?}, period {}, l {}, t {}: composed {} ({:?}) vs exhaustive {} ({:?})",
                    case.stuck_at,
                    case.period,
                    case.l,
                    tick.time,
                    x.value,
                    x.detail.anchors,
                    y.value,
                    y.detail.anchors
                );
            }
        }
        assert!(composed.imputations_performed() >= 24);
        assert!(composed.prune_totals().pruned > 0);
    }
}

/// Negative control for the regression above: the same fixture, driven
/// through the imputer with the level-0 bounds inflated (hence
/// inadmissible), must diverge from the exhaustive oracle — so the fixture
/// has imputations whose optimal anchors a bound could wrongly prune, and
/// the bit comparison would see it.
#[test]
fn inflated_bounds_are_caught_on_the_rounding_fixture() {
    let refs = [SeriesId(1), SeriesId(2)];
    let mut divergent = 0;
    for case in &ROUNDING_CASES {
        let imputer = TkcmImputer::new(case.config(true)).unwrap();
        let mut window = StreamingWindow::new(3, RoundingCase::WINDOW);
        let mut index = SignatureIndex::new(3, RoundingCase::WINDOW).unwrap();
        for tick in case.ticks() {
            window.push_tick(&tick).unwrap();
            index.on_push(&tick.values).unwrap();
            if tick.values[0].is_some() || window.filled() < 2 * case.l {
                continue;
            }
            let exact = imputer.impute(&window, SeriesId(0), &refs).unwrap();
            let (inflated, _) = imputer
                .impute_composed_with_inflation(&window, SeriesId(0), &refs, &index, 1e6, 1.0)
                .unwrap();
            if inflated.value.to_bits() != exact.value.to_bits() {
                divergent += 1;
            }
            window.write_imputed(SeriesId(0), 0, exact.value).unwrap();
            index.on_write(&window, SeriesId(0), 0).unwrap();
        }
    }
    assert!(
        divergent > 0,
        "an inadmissible level-0 bound must change some imputation on the fixture"
    );
}

/// Hostile input: one reference reading of NaN, ±∞ or a value whose square
/// overflows, or an adjacent `+1e300, −1e300` pair, on an engine with
/// L = 400, k = 3, d = 1 and l = 8 or 40 (chunks that span blocks), whose
/// target misses ticks 300–304 and 590–599.  The composed path must impute
/// the same value bits as the exhaustive oracle wherever the readings land:
/// in the history both gaps search, or inside a gap's query pattern.  A
/// NaN or ±∞ reading is stored as missing; 1e300 is data, and the pair
/// cancels inside every run-local prefix that holds it, beside candidates
/// whose D is finite.  A last arm holds the reference stuck at 1e307 at
/// l = 72: the 135-slot region of a 64-lag run overflows its prefix to
/// `+∞` after 18 slots, while every candidate is an exact duplicate of the
/// query (D = 0), so a chunk that straddles the overflow must stay vacuous.
#[test]
fn a_hostile_reference_reading_keeps_composed_bit_identical() {
    let sine = |t: usize, shift: f64| ((t as f64 - shift) / 16.0 * std::f64::consts::TAU).sin();
    // Runs the stream with `reference(t)` through both paths and returns
    // the number of imputations.
    let run = |l: usize, reference: &dyn Fn(usize) -> f64, case: &str| {
        let mk = |pruning: bool| {
            let config = TkcmConfig::builder()
                .window_length(400)
                .pattern_length(l)
                .anchor_count(3)
                .reference_count(1)
                .pruning(pruning)
                .build()
                .unwrap();
            TkcmEngine::new(2, config, Catalog::ring_neighbours(2)).unwrap()
        };
        let mut composed = mk(true);
        let mut exhaustive = mk(false);
        for t in 0..600usize {
            let missing = (300..305).contains(&t) || t >= 590;
            let target = if missing { None } else { Some(sine(t, 0.0)) };
            let tick = StreamTick::new(Timestamp::new(t as i64), vec![target, Some(reference(t))]);
            let m = composed.process_tick(&tick).unwrap();
            let b = exhaustive.process_tick(&tick).unwrap();
            assert_eq!(m.imputations.len(), b.imputations.len(), "tick {t}");
            for (x, y) in m.imputations.iter().zip(&b.imputations) {
                assert_eq!(
                    x.value.to_bits(),
                    y.value.to_bits(),
                    "l {l}, {case}, tick {t}: composed {} vs exhaustive {}",
                    x.value,
                    y.value
                );
            }
        }
        composed.imputations_performed()
    };
    let hostiles: [&[f64]; 5] = [
        &[f64::NAN],
        &[f64::INFINITY],
        &[f64::NEG_INFINITY],
        &[1e300],
        &[1e300, -1e300],
    ];
    for l in [8, 40] {
        for hostile in hostiles {
            for at in [250, 302, 450, 595] {
                let reference = |t: usize| {
                    t.checked_sub(at)
                        .and_then(|i| hostile.get(i).copied())
                        .unwrap_or_else(|| sine(t, 3.0))
                };
                let imputations = run(l, &reference, &format!("readings {hostile:?} at {at}"));
                // A non-finite reading is missing at ingest.  Outside a gap
                // the reference's own slot is then imputed (one more
                // imputation); inside one the target and the reference are
                // each other's only candidate and neither is live, so that
                // tick imputes nothing.
                let expected = match (hostile[0].is_finite(), at) {
                    (true, _) => 15,
                    (false, 302 | 595) => 14,
                    (false, _) => 16,
                };
                assert_eq!(imputations, expected);
            }
        }
    }
    assert_eq!(run(72, &|_| 1e307, "stuck at 1e307"), 15);
}

/// Finite anchors give a finite imputation: with the target observed at
/// `1e308` everywhere, k = 3 anchors sum past `f64::MAX`, and the mean must
/// still be finite (`Σ(v / n)` instead of `Σv / n`) on both paths, bit for
/// bit, and lie between the anchor values.
#[test]
fn anchors_at_1e308_impute_a_finite_value() {
    let mk = |pruning: bool| {
        let config = TkcmConfig::builder()
            .window_length(200)
            .pattern_length(8)
            .anchor_count(3)
            .reference_count(1)
            .pruning(pruning)
            .build()
            .unwrap();
        TkcmEngine::new(2, config, Catalog::ring_neighbours(2)).unwrap()
    };
    let mut composed = mk(true);
    let mut exhaustive = mk(false);
    for t in 0..300usize {
        let target = (t % 50 != 49).then_some(1e308);
        let reference = (t as f64 / 16.0 * std::f64::consts::TAU).sin();
        let tick = StreamTick::new(Timestamp::new(t as i64), vec![target, Some(reference)]);
        let m = composed.process_tick(&tick).unwrap();
        let b = exhaustive.process_tick(&tick).unwrap();
        assert_eq!(m.imputations.len(), b.imputations.len(), "tick {t}");
        for (x, y) in m.imputations.iter().zip(&b.imputations) {
            assert_eq!(x.value.to_bits(), y.value.to_bits(), "tick {t}");
            assert!(x.value.is_finite(), "tick {t}: imputed {}", x.value);
            assert!(x.detail.anchors.len() > 1, "tick {t}");
            assert!(
                (1e308 * (1.0 - 1e-12)..=1e308).contains(&x.value),
                "tick {t}"
            );
        }
    }
    assert_eq!(composed.imputations_performed(), 6);
}

/// A node of [`per_lag_search`]'s heap: one level-1 run, or one lag.
#[derive(Clone, Copy)]
struct LagNode {
    key: f64,
    run: bool,
    idx: usize,
}

impl Ord for LagNode {
    /// Smallest key first, then lag before run, then the older candidate.
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        other
            .key
            .total_cmp(&self.key)
            .then(other.run.cmp(&self.run))
            .then(other.idx.cmp(&self.idx))
    }
}

impl PartialOrd for LagNode {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for LagNode {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == std::cmp::Ordering::Equal
    }
}

impl Eq for LagNode {}

/// What [`per_lag_search`] found: the exact folds in pop order, the prune
/// counts, and the anchor indices and imputed value of a DP over its `D`s
/// (`None` when no anchor exists).
struct PerLagOutcome {
    folds: Vec<usize>,
    stats: PruneStats,
    anchors: Vec<usize>,
    value: Option<f64>,
}

/// The composed search written with one heap node per lag — every lag of
/// an expanded run under the bar is pushed on its own, and the stop drains
/// the heap node by node: the oracle the cursor search must pop like.  It
/// reads the same bounds (the level-1 sweep, the run-wide level-0 fill)
/// and folds like the exhaustive path (pattern extraction and the L2
/// distance), which is bit-equal to the composed path's fold.
fn per_lag_search(
    window: &StreamingWindow,
    target: SeriesId,
    refs: &[SeriesId],
    index: &SignatureIndex,
    l: usize,
    k: usize,
) -> PerLagOutcome {
    let filled = window.filled();
    let oldest_age = filled - l;
    let j = filled + 1 - 2 * l;
    let run_len = level1_run_len(l);
    let query = extract_query_pattern(window, refs, l)
        .unwrap()
        .expect("a complete query");
    let rows: Vec<&[f64]> = (0..refs.len()).map(|ri| query.row(ri)).collect();
    let sig_query = SignatureQuery::new(&rows);
    let mut stats = PruneStats {
        candidates: j,
        ..PruneStats::default()
    };
    let mut d = vec![f64::INFINITY; j];
    let mut folds = Vec::new();
    let keep = k - 1;
    let mut seed: Vec<usize> = Vec::new();
    let mut best: Vec<f64> = Vec::new();
    let run_of = |s: usize| s..(s + run_len).min(j);
    let mut bounds = Vec::new();
    index.run_bounds_sq(refs, oldest_age, j, run_len, l, &sig_query, &mut bounds);
    let mut open: std::collections::BinaryHeap<LagNode> = bounds
        .iter()
        .enumerate()
        .map(|(i, &sq)| LagNode {
            key: sq.max(0.0).sqrt(),
            run: true,
            idx: i * run_len,
        })
        .collect();
    let mut sums = RunSums::default();
    let mut threshold = None;
    while let Some(node) = open.pop() {
        if threshold.is_none() && seed.len() == k {
            seed.sort_unstable();
            let mut tau = 0.0f64;
            for &idx in &seed {
                // `D + acc`, the DP's take-step expression.
                #[allow(clippy::assign_op_pattern)]
                {
                    tau = d[idx] + tau;
                }
            }
            threshold = Some(tau * (1.0 + 1e-9));
        }
        let mut bar = f64::INFINITY;
        if let Some(threshold) = threshold {
            let b = node.key;
            let sum: f64 = (0..keep)
                .map(|i| best.get(i).map_or(b, |&v: &f64| v.min(b)))
                .sum();
            bar = threshold - sum * (1.0 - 1e-9);
            if b > bar {
                for rest in std::iter::once(node).chain(open.drain()) {
                    if rest.run {
                        let skipped = run_of(rest.idx).len();
                        stats.pruned += skipped;
                        stats.level1_skipped += skipped;
                    } else {
                        stats.pruned += 1;
                    }
                }
                break;
            }
        }
        if node.run {
            let run = run_of(node.idx);
            let lag_lo = oldest_age - (run.end - 1);
            sums.fill(window, refs, lag_lo, run.len(), l, &sig_query)
                .unwrap();
            for idx in run {
                let age = oldest_age - idx;
                if window.slot_recent(target, age).unwrap().state != SlotState::Observed {
                    continue;
                }
                let (lb_sq, certain_missing) = sums.lower_bound_sq(age);
                let key = lb_sq.max(0.0).sqrt().max(node.key);
                if certain_missing || key > bar {
                    stats.pruned += 1;
                    continue;
                }
                open.push(LagNode {
                    key,
                    run: false,
                    idx,
                });
            }
            continue;
        }
        let idx = node.idx;
        let age = oldest_age - idx;
        let fold = match extract_pattern_at_age(window, refs, age, l).unwrap() {
            Some(candidate) => l2_distance(&candidate, &query),
            None => f64::INFINITY,
        };
        d[idx] = fold;
        folds.push(idx);
        stats.shortlisted += 1;
        if fold.is_finite() {
            let at = best.partition_point(|&v| v <= fold);
            if at < keep {
                best.insert(at, fold);
                best.truncate(keep);
            }
            if seed.len() < k && !seed.iter().any(|&p| idx.abs_diff(p) < l) {
                seed.push(idx);
            }
        }
    }
    let anchors = select_anchors_dp(&d, l, k).indices;
    let value = (!anchors.is_empty()).then(|| {
        let values = anchors.iter().map(|&idx| {
            window
                .value_recent(target, oldest_age - idx)
                .unwrap()
                .unwrap()
        });
        values.clone().sum::<f64>() / values.count() as f64
    });
    PerLagOutcome {
        folds,
        stats,
        anchors,
        value,
    }
}

proptest! {
    /// The cursor search pops exactly like a heap of one node per lag: the
    /// same exact folds in the same order, the same prune counts and the
    /// same anchors and value bits, on gappy references, near duplicates of
    /// a non-dyadic tile, flat-lined references (every key 0, so every pop
    /// is an exact key tie broken by index) and exact non-dyadic tiles, at
    /// l of two signature blocks or more.  The target misses one tick in 11
    /// once the window is full; each imputed value is written back.
    #[test]
    fn the_cursor_search_pops_like_a_per_lag_heap(
        shape in 0u8..4,
        l in 32usize..80,
        k in 1usize..6,
        extra in 0usize..240,
        width in 2usize..5,
        period in 5usize..90,
        seed in 0u64..1_000_000,
    ) {
        let capacity = (k + 1) * l + extra;
        let refs: Vec<SeriesId> = (1..width as u32).map(SeriesId).collect();
        let config = TkcmConfig::builder()
            .window_length(capacity)
            .pattern_length(l)
            .anchor_count(k)
            .reference_count(refs.len())
            .build()
            .unwrap();
        let imputer = TkcmImputer::new(config).unwrap();
        let mut window = StreamingWindow::new(width, capacity);
        let mut index = SignatureIndex::new(width, capacity).unwrap();
        let mut state = seed;
        let mut noise = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5
        };
        let mut imputations = 0;
        for t in 0..capacity * 3 / 2 {
            let tile = |s: usize| {
                let phase = ((t + 7 * s) % period) as f64 / period as f64;
                1000.1 + 7.3 * (phase * std::f64::consts::TAU).sin()
            };
            let mut values = vec![(t < capacity || t % 11 != 0).then(&mut noise)];
            // Gaps stay out of every query (it must be complete for the
            // search to run): the first imputation is at t = capacity.
            let gappy = t + l < capacity;
            for s in 1..width {
                values.push(match shape {
                    // One slot in five and whole 40-tick stretches missing.
                    0 => (!gappy || (noise() < 0.3 && (t / 40) % 5 != 2)).then(|| tile(s) + noise()),
                    1 => Some(tile(s) + noise() * 1e-10),
                    2 => Some(21.37 * s as f64),
                    _ => Some(tile(s)),
                });
            }
            let tick = StreamTick::new(Timestamp::new(t as i64), values);
            window.push_tick(&tick).unwrap();
            index.on_push(&tick.values).unwrap();
            if tick.values[0].is_some() || window.filled() < 2 * l {
                continue;
            }
            let target = SeriesId(0);
            let mut folds = Vec::new();
            let (detail, stats) = imputer
                .impute_composed_traced(&window, target, &refs, &index, &mut folds)
                .unwrap();
            let oracle = per_lag_search(&window, target, &refs, &index, l, k);
            prop_assert!(folds == oracle.folds, "tick {}: fold order differs", t);
            prop_assert!(
                stats == oracle.stats,
                "tick {}: cursor {:?} vs per-lag {:?}",
                t,
                stats,
                oracle.stats
            );
            let oldest_age = window.filled() - l;
            let anchors: Vec<usize> = detail
                .anchors
                .iter()
                .map(|a| oldest_age - (t as i64 - a.time.0) as usize)
                .collect();
            prop_assert!(anchors == oracle.anchors, "tick {}: anchors differ", t);
            match oracle.value {
                Some(value) => prop_assert!(
                    value.to_bits() == detail.value.to_bits(),
                    "tick {}: cursor {} vs per-lag {}",
                    t,
                    detail.value,
                    value
                ),
                None => prop_assert!(detail.fallback, "tick {}", t),
            }
            window.write_imputed(target, 0, detail.value).unwrap();
            index.on_write(&window, target, 0).unwrap();
            imputations += 1;
        }
        prop_assert!(imputations > 0);
    }
}
