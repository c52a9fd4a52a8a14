//! Property-based tests for the stream substrate invariants.

use proptest::prelude::*;

use tkcm_timeseries::{
    MissingMask, SampleInterval, SeriesId, StreamTick, StreamingWindow, TimeSeries, Timestamp,
};

/// A one-series window holding `values`, pushed one per tick.
fn window_of(capacity: usize, values: &[Option<f64>]) -> StreamingWindow {
    let mut w = StreamingWindow::new(1, capacity);
    for (t, v) in values.iter().enumerate() {
        w.push_tick(&StreamTick::new(Timestamp::new(t as i64), vec![*v]))
            .unwrap();
    }
    w
}

proptest! {
    /// Pushing values into a window and reading them back in chronological
    /// order always yields the last `capacity` pushed values.
    #[test]
    fn ring_buffer_keeps_the_most_recent_values(
        values in proptest::collection::vec(proptest::option::of(-1e6f64..1e6), 1..200),
        capacity in 1usize..32,
    ) {
        let w = window_of(capacity, &values);
        let chronological = w.series_chronological(SeriesId(0)).unwrap();
        let expected: Vec<Option<f64>> = values
            .iter()
            .rev()
            .take(capacity)
            .rev()
            .copied()
            .collect();
        prop_assert_eq!(chronological, expected);
        prop_assert_eq!(w.filled(), values.len().min(capacity));
        // Age 0 is the last pushed value.
        prop_assert_eq!(w.value_recent(SeriesId(0), 0).unwrap(), *values.last().unwrap());
    }

    /// A value run is exactly the matching sub-slice of the oldest-first
    /// window contents (missing slots as NaN), split at most once at the
    /// ring seam, and a run reaching past the pushed values is refused.
    #[test]
    fn chronological_run_is_a_sub_slice_of_the_chronological_contents(
        values in proptest::collection::vec(proptest::option::of(-1e6f64..1e6), 0..100),
        capacity in 1usize..32,
        age in 0usize..40,
        len in 0usize..40,
    ) {
        let w = window_of(capacity, &values);
        let chronological = w.series_chronological(SeriesId(0)).unwrap();
        let filled = chronological.len();
        match w.value_run(SeriesId(0), age, len) {
            Ok((a, b)) => {
                prop_assert!(age + len <= filled);
                prop_assert!(a.len() + b.len() == len);
                prop_assert!(!a.is_empty() || b.is_empty());
                let run: Vec<Option<f64>> =
                    a.iter().chain(b).map(|&v| (!v.is_nan()).then_some(v)).collect();
                let end = filled - age;
                prop_assert_eq!(run.as_slice(), &chronological[end - len..end]);
            }
            Err(_) => prop_assert!(age + len > filled),
        }
    }

    /// A series' missing mask decomposes it into gaps whose total length is
    /// the missing count, and every gap is a maximal run.
    #[test]
    fn missing_mask_gaps_partition_the_missing_ticks(
        values in proptest::collection::vec(proptest::option::of(-1e3f64..1e3), 0..120),
    ) {
        let series = TimeSeries::new(
            0u32,
            "p",
            Timestamp::new(0),
            SampleInterval::FIVE_MINUTES,
            values.clone(),
        );
        let mask = MissingMask::of_series(&series);
        let gaps = mask.gaps();
        let total: usize = gaps.iter().map(|g| g.length).sum();
        prop_assert_eq!(total, series.missing_count());
        for g in &gaps {
            prop_assert!(g.length > 0);
            // The tick before and after each gap (if inside the series) is observed.
            let before = g.start - 1;
            let after = g.end();
            if series.index_of(before).is_some() {
                prop_assert!(series.value_at(before).is_some());
            }
            if series.index_of(after).is_some() {
                prop_assert!(series.value_at(after).is_some());
            }
        }
    }

    /// Shifting a series never invents values: every observed value of the
    /// shifted copy equals the original value `shift` ticks earlier.
    #[test]
    fn shifted_series_is_a_lagged_view(
        values in proptest::collection::vec(-1e3f64..1e3, 1..100),
        shift in 0i64..30,
    ) {
        let series = TimeSeries::from_values(
            0u32,
            "s",
            Timestamp::new(0),
            SampleInterval::FIVE_MINUTES,
            values.clone(),
        );
        let shifted = series.shifted(shift);
        prop_assert_eq!(shifted.len(), series.len());
        for (t, v) in shifted.iter() {
            match v {
                Some(x) => prop_assert_eq!(Some(x), series.value_at(t - shift)),
                None => prop_assert!(series.index_of(t - shift).is_none()),
            }
        }
    }
}
