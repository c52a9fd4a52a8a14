//! Equivalence and admissibility properties of the composed candidate path
//! (signature-index pruning with τ seeded from the lag memory).
//!
//! Three families:
//!
//! 1. **Bit-identity** — an engine on the composed path must produce
//!    *bitwise* the same imputations as an engine on the exhaustive exact
//!    path, across random periods, gap placements, pattern lengths and
//!    window capacities, with ring wrap-around and imputed write-backs in
//!    the mix — see `signature.rs` and `TkcmImputer::impute_composed` for
//!    the float-level argument.
//! 2. **Admissibility** — the signature lower bound never exceeds the exact
//!    dissimilarity of any candidate, so a pruned candidate (LB > τ) can
//!    never belong to the k-NN anchor set.
//! 3. **Inadmissible fixture** — a deliberately inflated (hence wrong) bound
//!    at either level of the cascade must make the equivalence check *fail*,
//!    proving the suite detects over-pruning rather than vacuously passing.

use proptest::prelude::*;

use tkcm_core::{
    extract_pattern, extract_query_pattern, l2_distance, level1_run_len, SignatureIndex,
    SignatureQuery, TkcmConfig, TkcmEngine, TkcmImputer,
};
use tkcm_store::{decode_from_slice, encode_to_vec};
use tkcm_timeseries::{Catalog, SeriesId, StreamTick, StreamingWindow, Timestamp};

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
    /// random integer sawtooths with random gaps, long enough to wrap the
    /// ring at least once (write-backs happen inside `process_tick`).  At a
    /// random tick the composed engine is replaced by its own
    /// `encode → decode` copy — rebuilt signature index, no lag memories —
    /// which must keep matching the oracle.
    #[test]
    fn pruned_engine_is_bit_identical_to_exhaustive(
        period in 16u64..200,
        shift1 in 0u64..97,
        shift2 in 0u64..53,
        gap_start_frac in 0.2f64..0.7,
        gap_len in 3usize..24,
        capacity in 48usize..160,
        l in 3usize..10,
        restore_frac in 0.1f64..0.9,
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
        // The composed path — lag-memory seeding + level-1 prefilter +
        // level-0 bounds — must match the exhaustive engine bit for bit.
        let mut composed = mk(true);
        let mut exhaustive = mk(false);
        prop_assert!(composed.is_composed());
        prop_assert!(!exhaustive.is_composed());

        let saw = |t: usize, shift: u64| ((t as u64 + shift) % period) as f64;
        for t in 0..total {
            let s0_missing =
                (gap_start..gap_start + gap_len).contains(&t) || (t > 30 && t % 11 == 7);
            let tick = StreamTick::new(
                Timestamp::new(t as i64),
                vec![
                    if s0_missing { None } else { Some(saw(t, 0)) },
                    Some(saw(t, shift1)),
                    Some(saw(t, shift2)),
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
                composed = decode_from_slice(&encode_to_vec(&composed).unwrap()).unwrap();
                prop_assert_eq!(composed.lag_memory_count(), 0);
            }
        }
        prop_assert_eq!(
            composed.imputations_performed(),
            exhaustive.imputations_performed()
        );
        prop_assert_eq!(
            composed.prune_totals().candidates > 0,
            composed.imputations_performed() > 0
        );
    }

    /// Admissibility of the bound itself: for every candidate lag the
    /// signature lower bound is at most the exact dissimilarity, and a
    /// `certain_missing` verdict implies the dissimilarity really is
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
        let width = 3;
        let l = l_raw.min(capacity / 2).max(1);
        let refs = vec![SeriesId(1), SeriesId(2)];
        let mut window = StreamingWindow::new(width, capacity);
        let mut index = SignatureIndex::new(width, capacity).unwrap();

        let slot = |(gap, v): (usize, f64)| (gap != 0).then_some(v);
        let len = v1.len().min(v2.len());
        for t in 0..len {
            let values = vec![Some(t as f64 * 0.5), slot(v1[t]), slot(v2[t])];
            window
                .push_tick(&StreamTick::new(Timestamp::new(t as i64), values.clone()))
                .expect("tick accepted");
            index.on_push(&values).expect("push accepted");
        }
        for (i, &age) in write_ages.iter().enumerate() {
            let age = age % window.filled();
            for id in &refs {
                let old = window.value_recent(*id, age).expect("valid age");
                let value = i as f64 * 1.7 - 3.0;
                window.write_imputed(*id, age, value).expect("write accepted");
                index.on_write(*id, age, value, old.is_none());
            }
        }
        prop_assert!(index.is_synced(&window));

        let filled = window.filled();
        if filled >= 2 * l {
            // The query-exact bound variant the imputer actually uses: range
            // tables over the extracted query pattern.
            let query = extract_query_pattern(&window, &refs, l).expect("valid geometry");
            let sig_query = query.as_ref().map(|q| {
                let rows: Vec<&[Option<f64>]> = (0..refs.len()).map(|ri| q.row(ri)).collect();
                SignatureQuery::new(&rows)
            });
            for lag in l..=(filled - l) {
                let (lb_env_sq, certain_missing) = index.lower_bound_sq(&refs, lag, l);
                let (lb_query_sq, certain_missing_q) = match &sig_query {
                    Some(sq) => index.lower_bound_sq_with_query(&refs, lag, l, sq),
                    None => (0.0, false),
                };
                let exact = from_scratch_d(&window, &refs, l, lag);
                for lb_sq in [lb_env_sq, lb_query_sq] {
                    prop_assert!(lb_sq.is_finite() && lb_sq >= 0.0);
                    if exact.is_finite() {
                        prop_assert!(
                            lb_sq <= exact * exact * (1.0 + 1e-12),
                            "lag {}: lower bound {} exceeds exact D² {}",
                            lag,
                            lb_sq,
                            exact * exact
                        );
                    }
                }
                if certain_missing || certain_missing_q {
                    prop_assert!(
                        exact.is_infinite(),
                        "lag {}: certain_missing but D = {}",
                        lag,
                        exact
                    );
                }
            }
        }
    }

    /// End to end: the default engine, whose composed path seeds τ from its
    /// lag memories, and an engine on the exhaustive recompute path
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
        let mut max_shortlists = 0usize;
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
            max_shortlists = max_shortlists.max(inc_engine.lag_memory_count());
        }
        prop_assert_eq!(
            inc_engine.imputations_performed(),
            exact_engine.imputations_performed()
        );
        // Lag memories appear on demand on the composed engine (and may be
        // evicted again after 2l idle ticks); the exact engine never creates
        // any.
        prop_assert!(max_shortlists >= 1);
        prop_assert_eq!(exact_engine.lag_memory_count(), 0);
    }
}

proptest! {
    /// Write-back widening across ring wrap-around *combined with*
    /// block-boundary-straddling imputed runs (the suite previously covered
    /// wrap and write-back separately): streams run past two full windows so
    /// the ring wraps, then contiguous imputed runs are written at ages
    /// chosen to straddle `SIGNATURE_BLOCK_LEN` boundaries.  Afterwards both
    /// per-lag bound variants *and* the composed path's level-1 run bound
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
        // write-backs hit both observed overwrites (NaN-poisoned sums) and
        // missing-slot fills (missing-count decrements).
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
                    let old = window.value_recent(*id, age).expect("valid age");
                    window.write_imputed(*id, age, value).expect("write accepted");
                    index.on_write(*id, age, value, old.is_none());
                }
            }
        }
        prop_assert!(index.is_synced(&window));

        let filled = window.filled();
        if filled >= 2 * l {
            let query = extract_query_pattern(&window, &refs, l).expect("valid geometry");
            let sig_query = query.as_ref().map(|q| {
                let rows: Vec<&[Option<f64>]> = (0..refs.len()).map(|ri| q.row(ri)).collect();
                SignatureQuery::new(&rows)
            });
            let j = filled - 2 * l + 1;
            let run_len = [1usize, 4, 16][run_len_choice];
            for lag in l..=(filled - l) {
                let (lb_env_sq, _) = index.lower_bound_sq(&refs, lag, l);
                let (lb_query_sq, _) = match &sig_query {
                    Some(sq) => index.lower_bound_sq_with_query(&refs, lag, l, sq),
                    None => (0.0, false),
                };
                for lb_sq in [lb_env_sq, lb_query_sq] {
                    prop_assert!(lb_sq.is_finite() && lb_sq >= 0.0);
                    let exact = from_scratch_d(&window, &refs, l, lag);
                    if exact.is_finite() {
                        prop_assert!(
                            lb_sq <= exact * exact * (1.0 + 1e-12),
                            "lag {}: lower bound {} exceeds exact D² {}",
                            lag,
                            lb_sq,
                            exact * exact
                        );
                    }
                }
            }
            // Level-1 run bound: admissible for *every* lag inside the run.
            if let Some(sq) = &sig_query {
                let oldest_age = filled - l;
                let mut s = 0usize;
                while s < j {
                    let e = (s + run_len).min(j);
                    let lag_lo = oldest_age - (e - 1);
                    let run_sq =
                        index.run_lower_bound_sq_with_query(&refs, lag_lo, e - s, l, sq);
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
                    s = e;
                }
            }
        }
    }
}

/// Builds the inadmissibility fixture: a window + synced signature index in
/// which the true nearest candidate (an off-by-one copy of the query, D = 4)
/// has a *non-zero* lower bound, while a decoy candidate (alternating values
/// whose envelope straddles the query, D = 360) has a lower bound of exactly
/// zero.  With admissible bounds the composed path finds the copy; inflating
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
            // decoy: alternating −80/100 straddles the query envelope, so its
            // block gap — and with it the lower bound — is exactly 0, while
            // the exact D is 360 (|diff| = 90 in every column).
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
/// with admissible bounds the composed path — cold lag memory *and* warm
/// lag memory — reproduces the exhaustive answer bitwise; (2) a deliberately
/// inflated — hence inadmissible — per-lag bound prunes the true nearest
/// candidate away and the imputed value visibly changes.  If over-pruning
/// ever happens, these comparisons are what catches it.
#[test]
fn inflated_bounds_are_caught_by_the_equivalence_check() {
    let (window, index, imputer) = inadmissible_fixture();
    let target = SeriesId(0);
    let refs = vec![SeriesId(1)];
    let run_len = level1_run_len(imputer.config().pattern_length);

    let exact = imputer.impute(&window, target, &refs).unwrap();

    // Positive control, cold then warm: the first composed call starts from
    // an empty lag memory and fills it with its own exact folds; the second
    // call seeds τ from that list.  Both must match exhaustive bitwise.
    let mut warm = Vec::new();
    for pass in ["cold", "warm"] {
        let (composed, stats) = imputer
            .impute_composed(&window, target, &refs, &index, &mut warm, run_len)
            .unwrap();
        assert_eq!(
            stats.maintained_lags > 0,
            pass == "warm",
            "{pass} pass lag memory: {stats:?}"
        );
        assert_eq!(
            composed.value.to_bits(),
            exact.value.to_bits(),
            "{pass} composed pass must reproduce the exhaustive answer bitwise"
        );
        assert_eq!(composed.anchors, exact.anchors, "{pass} pass anchors");
    }

    let (inflated, stats) = imputer
        .impute_composed_with_inflation(
            &window,
            target,
            &refs,
            &index,
            &mut Vec::new(),
            run_len,
            1e6,
            1.0,
        )
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
    let run_len = level1_run_len(imputer.config().pattern_length);

    let exact = imputer.impute(&window, target, &refs).unwrap();
    let (inflated, stats) = imputer
        .impute_composed_with_inflation(
            &window,
            target,
            &refs,
            &index,
            &mut Vec::new(),
            run_len,
            1.0,
            1e6,
        )
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

/// Hostile input: one reference reading of NaN, ±∞ or a value whose square
/// overflows, on a default-config engine (L = 400, l = 8, k = 3, d = 1) whose
/// target misses ticks 300–304 and 590–599.  The composed path must impute
/// the same value bits as the exhaustive oracle wherever the reading lands:
/// in the history both gaps search, or inside a gap's query pattern.
#[test]
fn a_hostile_reference_reading_keeps_composed_bit_identical() {
    let sine = |t: usize, shift: f64| ((t as f64 - shift) / 16.0 * std::f64::consts::TAU).sin();
    let mk = |pruning: bool| {
        let config = TkcmConfig::builder()
            .window_length(400)
            .pattern_length(8)
            .anchor_count(3)
            .reference_count(1)
            .pruning(pruning)
            .build()
            .unwrap();
        TkcmEngine::new(2, config, Catalog::ring_neighbours(2)).unwrap()
    };
    for hostile in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 1e300] {
        for at in [250, 302, 450, 595] {
            let mut composed = mk(true);
            let mut exhaustive = mk(false);
            for t in 0..600usize {
                let missing = (300..305).contains(&t) || t >= 590;
                let target = if missing { None } else { Some(sine(t, 0.0)) };
                let reference = if t == at {
                    Some(hostile)
                } else {
                    Some(sine(t, 3.0))
                };
                let tick = StreamTick::new(Timestamp::new(t as i64), vec![target, reference]);
                let m = composed.process_tick(&tick).unwrap();
                let b = exhaustive.process_tick(&tick).unwrap();
                assert_eq!(m.imputations.len(), b.imputations.len(), "tick {t}");
                for (x, y) in m.imputations.iter().zip(&b.imputations) {
                    assert_eq!(
                        x.value.to_bits(),
                        y.value.to_bits(),
                        "reading {hostile} at tick {at}, tick {t}: composed {} vs exhaustive {}",
                        x.value,
                        y.value
                    );
                }
            }
            assert_eq!(composed.imputations_performed(), 15);
        }
    }
}
