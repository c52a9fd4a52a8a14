//! Property tests for the Section 6.2 incremental dissimilarity maintenance
//! of the composed path: every maintained shortlist entry must track a
//! from-scratch recompute of its lag (the pair count exactly, the sum to
//! floating-point epsilon, the certified bound from below) across random
//! streams with gaps, imputed write-backs at any age and ring-buffer
//! wrap-around; and the engine that relies on those entries must impute
//! exactly what the exhaustive recompute path imputes.

use proptest::prelude::*;

use tkcm_core::{ShortlistMaintainer, TkcmConfig, TkcmEngine};
use tkcm_timeseries::{Catalog, SeriesId, StreamTick, StreamingWindow, Timestamp};

/// From-scratch unscaled components at one candidate lag — the fold the
/// composed path seeds entries from: the sum of squared differences over the
/// pairs observed on both sides, and the number of such pairs.
fn from_scratch_components(
    window: &StreamingWindow,
    refs: &[SeriesId],
    l: usize,
    lag: usize,
) -> (f64, u32) {
    let mut sum_sq = 0.0;
    let mut observed = 0u32;
    for &r in refs {
        for col in 0..l {
            let y = window.value_recent(r, l - 1 - col).unwrap();
            let x = window.value_recent(r, lag + (l - 1 - col)).unwrap();
            if let (Some(x), Some(y)) = (x, y) {
                sum_sq += (x - y) * (x - y);
                observed += 1;
            }
        }
    }
    (sum_sq, observed)
}

/// Seeds every candidate lag of the window from the exact fold.
fn seed_all(state: &mut ShortlistMaintainer, window: &StreamingWindow, refs: &[SeriesId]) {
    let l = state.pattern_length();
    for lag in l..=(window.filled() - l) {
        let (sum_sq, observed) = from_scratch_components(window, refs, l, lag);
        state.seed(lag, sum_sq, observed);
    }
}

/// Refreshes every seeded entry's TTL without re-seeding it, so the sums
/// keep sliding between checks.
fn touch_all(state: &mut ShortlistMaintainer, window: &StreamingWindow) {
    let l = state.pattern_length();
    for lag in l..=window.filled().saturating_sub(l) {
        state.touch(lag);
    }
}

fn assert_state_matches(
    state: &ShortlistMaintainer,
    window: &StreamingWindow,
    refs: &[SeriesId],
) -> Result<(), String> {
    let l = state.pattern_length();
    let total = (refs.len() * l) as u32;
    let filled = window.filled();
    if filled < 2 * l {
        return Ok(());
    }
    for lag in l..=(filled - l) {
        let Some(bound) = state.bound(lag) else {
            continue;
        };
        let (exact_sq, observed) = from_scratch_components(window, refs, l, lag);
        prop_assert!(
            bound.lb_sq <= exact_sq,
            "lag {lag}: bound {} above from-scratch {exact_sq}",
            bound.lb_sq
        );
        // The bound sits below the sum by the entry's tracked error radius
        // (16 ulps of the running magnitudes per update, ≲ 1e-6 here); a
        // missed or doubled pair update would shift it by a whole squared
        // difference instead.
        prop_assert!(
            bound.lb_sq >= exact_sq * (1.0 - 1e-8) - 1e-5,
            "lag {lag}: bound {} drifted from from-scratch {exact_sq}",
            bound.lb_sq
        );
        prop_assert!(
            bound.certain_missing == (observed != total),
            "lag {lag}: pair count drifted"
        );
    }
    Ok(())
}

proptest! {
    /// Random two-series streams with random gaps, replayed for well past
    /// one full window so the ring buffers wrap and evict: after every tick
    /// (and every imputed write-back) the maintained entries must match a
    /// from-scratch recompute.
    #[test]
    fn incremental_d_matches_from_scratch_recompute(
        v0 in proptest::collection::vec(proptest::option::of(-100.0f64..100.0), 24..120),
        v1 in proptest::collection::vec(proptest::option::of(-100.0f64..100.0), 24..120),
        capacity in 6usize..20,
        l_raw in 1usize..6,
    ) {
        let l = l_raw.min(capacity / 2).max(1);
        let refs = vec![SeriesId(0), SeriesId(1)];
        let mut window = StreamingWindow::new(2, capacity);
        let mut state = ShortlistMaintainer::new(refs.clone(), l, capacity)
            .expect("valid state parameters");

        let len = v0.len().min(v1.len());
        for t in 0..len {
            window
                .push_tick(&StreamTick::new(Timestamp::new(t as i64), vec![v0[t], v1[t]]))
                .expect("tick accepted");
            state.advance(&window).expect("advance succeeds");
            touch_all(&mut state, &window);
            if t + 1 == capacity {
                seed_all(&mut state, &window, &refs);
            }
            assert_state_matches(&state, &window, &refs)?;

            // Mimic the engine's write-back: when the current value of a
            // reference is missing, impute *something* and patch the state.
            for (i, v) in [v0[t], v1[t]].into_iter().enumerate() {
                if v.is_none() && t % 3 != 0 {
                    let id = SeriesId::from(i);
                    window
                        .write_imputed(id, 0, (t as f64) * 0.37 - i as f64)
                        .expect("write accepted");
                    state
                        .on_write(&window, id, 0, None)
                        .expect("on_write succeeds");
                }
            }
            assert_state_matches(&state, &window, &refs)?;
        }
    }

    /// Historical write-backs at arbitrary ages (not just the engine's
    /// age-0 write) are patched correctly too.
    #[test]
    fn incremental_d_survives_historical_writes(
        values in proptest::collection::vec(proptest::option::of(-50.0f64..50.0), 30..90),
        capacity in 8usize..16,
        l_raw in 1usize..5,
        write_ages in proptest::collection::vec(0usize..16, 1..6),
    ) {
        let l = l_raw.min(capacity / 2).max(1);
        let refs = vec![SeriesId(0)];
        let mut window = StreamingWindow::new(1, capacity);
        let mut state = ShortlistMaintainer::new(refs.clone(), l, capacity)
            .expect("valid state parameters");

        for (t, v) in values.iter().enumerate() {
            window
                .push_tick(&StreamTick::new(Timestamp::new(t as i64), vec![*v]))
                .expect("tick accepted");
            state.advance(&window).expect("advance succeeds");
        }
        seed_all(&mut state, &window, &refs);
        for (i, &age) in write_ages.iter().enumerate() {
            let age = age % window.filled();
            let old = window.value_recent(SeriesId(0), age).expect("valid age");
            window
                .write_imputed(SeriesId(0), age, i as f64 * 1.3 - 2.0)
                .expect("write accepted");
            state
                .on_write(&window, SeriesId(0), age, old)
                .expect("on_write succeeds");
            assert_state_matches(&state, &window, &refs)?;
        }
        prop_assert_eq!(state.maintained_lags(), capacity - 2 * l + 1);
    }

    /// End to end: the default engine, whose composed path prunes with the
    /// maintained entries, and an engine on the exhaustive recompute path
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
            max_shortlists = max_shortlists.max(inc_engine.shortlist_count());
        }
        prop_assert_eq!(
            inc_engine.imputations_performed(),
            exact_engine.imputations_performed()
        );
        // Shortlist states appear on demand on the composed engine (and may
        // be evicted again after 2l idle ticks); the exact engine never
        // creates any.
        prop_assert!(max_shortlists >= 1);
        prop_assert_eq!(exact_engine.shortlist_count(), 0);
    }
}
