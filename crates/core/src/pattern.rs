//! Patterns over reference time series (Definition 1).
//!
//! A pattern `P(t_i)` anchored at time `t_i` is a `d × l` matrix whose row
//! `r` holds the values `r(t_{i-l+1}), ..., r(t_i)` of the `r`-th reference
//! series.  Row = reference series, column = time offset; the last column is
//! the anchor time itself.  A pattern of length `l = 1` only captures the
//! instantaneous values, while `l > 1` additionally captures the trend —
//! which is what makes TKCM work for phase-shifted series (Section 5.2).

use tkcm_timeseries::{SeriesId, StreamingWindow, Timestamp, TsError};

/// A `d × l` pattern over the reference series, anchored at some time point.
///
/// Values are stored row-major (`values[row * length + col]`).  A pattern is
/// always complete: the window extractors below return `None` instead of a
/// pattern with a missing slot.
#[derive(Clone, Debug, PartialEq)]
pub struct Pattern {
    anchor: Timestamp,
    rows: usize,
    length: usize,
    values: Vec<f64>,
}

impl Pattern {
    /// Creates a pattern from row-major values.
    ///
    /// # Panics
    /// Panics if `values.len() != rows * length`.
    pub fn new(anchor: Timestamp, rows: usize, length: usize, values: Vec<f64>) -> Self {
        assert_eq!(
            values.len(),
            rows * length,
            "Pattern::new: values length mismatch"
        );
        Pattern {
            anchor,
            rows,
            length,
            values,
        }
    }

    /// Creates a pattern from per-row slices of values.
    ///
    /// # Panics
    /// Panics if the rows have differing lengths.
    pub fn from_rows(anchor: Timestamp, rows: &[Vec<f64>]) -> Self {
        let length = rows.first().map(|r| r.len()).unwrap_or(0);
        assert!(
            rows.iter().all(|r| r.len() == length),
            "Pattern::from_rows: inconsistent row lengths"
        );
        Pattern {
            anchor,
            rows: rows.len(),
            length,
            values: rows.concat(),
        }
    }

    /// The anchor time `t_i` of the pattern.
    pub fn anchor(&self) -> Timestamp {
        self.anchor
    }

    /// Number of reference series `d` (rows).
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Pattern length `l` (columns).
    pub fn length(&self) -> usize {
        self.length
    }

    /// Value of reference `row` at column `col` (column `length-1` is the
    /// anchor time; column 0 is `l−1` ticks before the anchor).
    pub fn value(&self, row: usize, col: usize) -> f64 {
        assert!(
            row < self.rows && col < self.length,
            "pattern index out of bounds"
        );
        self.values[row * self.length + col]
    }

    /// Row `row` in chronological order.
    pub fn row(&self, row: usize) -> &[f64] {
        assert!(row < self.rows, "pattern row out of bounds");
        &self.values[row * self.length..(row + 1) * self.length]
    }

    /// Flattened row-major values.
    pub fn values(&self) -> &[f64] {
        &self.values
    }
}

/// Extracts the pattern `P(anchor)` of length `l` over the given reference
/// series from a streaming window.
///
/// Returns `Ok(None)` when any slot of the pattern is missing — the
/// candidate is simply not usable.  Returns an error if the anchor (or the
/// ticks `anchor - l + 1`) fall outside the window.
pub fn extract_pattern(
    window: &StreamingWindow,
    references: &[SeriesId],
    anchor: Timestamp,
    length: usize,
) -> Result<Option<Pattern>, TsError> {
    if length == 0 {
        return Err(TsError::invalid("l", "pattern length must be positive"));
    }
    let anchor_age = window.age_of(anchor)?;
    extract_pattern_at_age(window, references, anchor_age, length)
}

/// Extracts the pattern anchored `anchor_age` ticks in the past (0 = the
/// current tick).  This is the variant the imputer's candidate sweep uses:
/// Algorithm 1 walks candidate *ages*, so going through an absolute
/// timestamp (and back) would both cost an extra conversion per candidate
/// and silently assume a unit tick cadence.  The pattern's anchor timestamp
/// is read from the window's stored per-tick times.
pub fn extract_pattern_at_age(
    window: &StreamingWindow,
    references: &[SeriesId],
    anchor_age: usize,
    length: usize,
) -> Result<Option<Pattern>, TsError> {
    if length == 0 {
        return Err(TsError::invalid("l", "pattern length must be positive"));
    }
    let anchor = window.time_of_age(anchor_age).ok_or_else(|| {
        TsError::invalid(
            "age",
            format!("anchor age {anchor_age} exceeds the number of pushed ticks"),
        )
    })?;
    // Validate that the whole pattern lies inside the window.
    let oldest_age = anchor_age + length - 1;
    if oldest_age >= window.length() {
        return Err(TsError::TimeOutOfRange {
            requested: anchor,
            earliest: window
                .time_of_age(window.length() - 1)
                .unwrap_or(Timestamp::MIN),
            latest: window.current_time().unwrap_or(Timestamp::MAX),
        });
    }

    let mut values = Vec::with_capacity(references.len() * length);
    for &r in references {
        for col in 0..length {
            // Column 0 is the oldest tick of the pattern.
            let age = anchor_age + (length - 1 - col);
            let Some(v) = window.value_recent(r, age)? else {
                return Ok(None);
            };
            values.push(v);
        }
    }
    Ok(Some(Pattern::new(anchor, references.len(), length, values)))
}

/// Extracts the query pattern `P(t_n)` anchored at the current time of the
/// window (Definition 1 applied at `t_n`).
pub fn extract_query_pattern(
    window: &StreamingWindow,
    references: &[SeriesId],
    length: usize,
) -> Result<Option<Pattern>, TsError> {
    let now = window
        .current_time()
        .ok_or_else(|| TsError::invalid("window", "no tick has been pushed yet"))?;
    extract_pattern(window, references, now, length)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tkcm_timeseries::StreamTick;

    fn window_with(series: &[Vec<Option<f64>>]) -> StreamingWindow {
        let width = series.len();
        let len = series[0].len();
        let mut w = StreamingWindow::new(width, len);
        for t in 0..len {
            let values = series.iter().map(|s| s[t]).collect();
            w.push_tick(&StreamTick::new(Timestamp::new(t as i64), values))
                .unwrap();
        }
        w
    }

    #[test]
    fn pattern_accessors() {
        let p = Pattern::from_rows(
            Timestamp::new(5),
            &[vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]],
        );
        assert_eq!(p.anchor(), Timestamp::new(5));
        assert_eq!(p.rows(), 2);
        assert_eq!(p.length(), 3);
        assert_eq!(p.value(0, 0), 1.0);
        assert_eq!(p.value(1, 2), 6.0);
        assert_eq!(p.row(1), &[4.0, 5.0, 6.0]);
        assert_eq!(p.values().len(), 6);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn pattern_new_validates_size() {
        let _ = Pattern::new(Timestamp::new(0), 2, 2, vec![1.0]);
    }

    #[test]
    fn example_2_pattern_p_14_20() {
        // Table 2 / Figure 2b: P(14:20) over r1 and r2 with l = 3 contains
        // r1: 16.3, 17.1, 17.5 and r2: 20.2, 19.9, 18.2.
        // Map 13:25..14:20 to ticks 0..11; 14:20 is tick 11.
        let r1 = vec![
            16.5, 17.2, 17.8, 16.6, 15.8, 16.2, 17.4, 17.7, 15.3, 16.3, 17.1, 17.5,
        ];
        let r2 = vec![
            20.3, 19.8, 18.6, 18.8, 20.0, 20.5, 19.8, 18.2, 20.1, 20.2, 19.9, 18.2,
        ];
        let w = window_with(&[
            r1.iter().map(|v| Some(*v)).collect(),
            r2.iter().map(|v| Some(*v)).collect(),
        ]);
        let p = extract_query_pattern(&w, &[SeriesId(0), SeriesId(1)], 3)
            .unwrap()
            .unwrap();
        assert_eq!(p.anchor(), Timestamp::new(11));
        assert_eq!(p.row(0), &[16.3, 17.1, 17.5]);
        assert_eq!(p.row(1), &[20.2, 19.9, 18.2]);
    }

    #[test]
    fn pattern_at_past_anchor() {
        // P(14:00) = tick 7 with l = 3 covers ticks 5..=7.
        let r1 = vec![
            16.5, 17.2, 17.8, 16.6, 15.8, 16.2, 17.4, 17.7, 15.3, 16.3, 17.1, 17.5,
        ];
        let r2 = vec![
            20.3, 19.8, 18.6, 18.8, 20.0, 20.5, 19.8, 18.2, 20.1, 20.2, 19.9, 18.2,
        ];
        let w = window_with(&[
            r1.iter().map(|v| Some(*v)).collect(),
            r2.iter().map(|v| Some(*v)).collect(),
        ]);
        let p = extract_pattern(&w, &[SeriesId(0), SeriesId(1)], Timestamp::new(7), 3)
            .unwrap()
            .unwrap();
        assert_eq!(p.row(0), &[16.2, 17.4, 17.7]);
        assert_eq!(p.row(1), &[20.5, 19.8, 18.2]);
    }

    #[test]
    fn missing_slot_disqualifies_pattern_unless_allowed() {
        let mut r1: Vec<Option<f64>> = (0..10).map(|i| Some(i as f64)).collect();
        r1[8] = None;
        let w = window_with(&[r1]);
        // Pattern anchored at tick 9 with l = 3 covers ticks 7, 8, 9 -> missing.
        let strict = extract_pattern(&w, &[SeriesId(0)], Timestamp::new(9), 3).unwrap();
        assert!(strict.is_none());
        // A pattern fully before the gap is still complete.
        let early = extract_pattern(&w, &[SeriesId(0)], Timestamp::new(7), 3)
            .unwrap()
            .unwrap();
        assert_eq!(early.row(0), &[5.0, 6.0, 7.0]);
    }

    #[test]
    fn pattern_outside_window_is_an_error() {
        let w = window_with(&[(0..6).map(|i| Some(i as f64)).collect()]);
        // Anchor before the window start.
        assert!(extract_pattern(&w, &[SeriesId(0)], Timestamp::new(-1), 2).is_err());
        // Anchor inside, but pattern would reach before the window.
        assert!(extract_pattern(&w, &[SeriesId(0)], Timestamp::new(1), 3).is_err());
        // Zero pattern length is invalid.
        assert!(extract_pattern(&w, &[SeriesId(0)], Timestamp::new(5), 0).is_err());
        // Empty window has no query pattern.
        let empty = StreamingWindow::new(1, 4);
        assert!(extract_query_pattern(&empty, &[SeriesId(0)], 2).is_err());
    }

    #[test]
    fn pattern_length_one_is_just_current_values() {
        let w = window_with(&[(0..5).map(|i| Some(i as f64 * 2.0)).collect()]);
        let p = extract_query_pattern(&w, &[SeriesId(0)], 1)
            .unwrap()
            .unwrap();
        assert_eq!(p.length(), 1);
        assert_eq!(p.value(0, 0), 8.0);
    }
}
