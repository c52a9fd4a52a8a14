//! In-memory time series with missing values.
//!
//! A [`TimeSeries`] stores a regularly sampled sequence of measurements,
//! where each slot is either a concrete value or missing (`NIL` in the
//! paper's notation).  Series are the unit of exchange between the dataset
//! generators, the streaming window and the evaluation harness.

use std::fmt;

use crate::errors::TsError;
use crate::timestamp::{SampleInterval, Timestamp};

/// Identifier of a time series inside a dataset / catalog.
///
/// Ids are dense small integers so they double as indices into per-tick value
/// vectors (`values[id.index()]`).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct SeriesId(pub u32);

impl SeriesId {
    /// Creates an id from a dense index.
    pub const fn new(index: u32) -> Self {
        SeriesId(index)
    }

    /// Returns the id as a `usize` index.
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for SeriesId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{}", self.0)
    }
}

impl From<u32> for SeriesId {
    fn from(v: u32) -> Self {
        SeriesId(v)
    }
}

impl From<usize> for SeriesId {
    fn from(v: usize) -> Self {
        SeriesId(v as u32)
    }
}

/// A regularly sampled time series with optional (missing) values.
///
/// The series starts at [`TimeSeries::start`]; sample `i` (0-based) is the
/// measurement at timestamp `start + i`.
#[derive(Clone, Debug, PartialEq)]
pub struct TimeSeries {
    id: SeriesId,
    name: String,
    start: Timestamp,
    interval: SampleInterval,
    values: Vec<Option<f64>>,
}

impl TimeSeries {
    /// Creates a series from a vector of optional values.
    pub fn new(
        id: impl Into<SeriesId>,
        name: impl Into<String>,
        start: Timestamp,
        interval: SampleInterval,
        values: Vec<Option<f64>>,
    ) -> Self {
        TimeSeries {
            id: id.into(),
            name: name.into(),
            start,
            interval,
            values,
        }
    }

    /// Creates a fully observed series (no missing values) from raw values.
    pub fn from_values(
        id: impl Into<SeriesId>,
        name: impl Into<String>,
        start: Timestamp,
        interval: SampleInterval,
        values: impl IntoIterator<Item = f64>,
    ) -> Self {
        Self::new(
            id,
            name,
            start,
            interval,
            values.into_iter().map(Some).collect(),
        )
    }

    /// Creates an empty series that can be grown with [`TimeSeries::push`].
    pub fn empty(
        id: impl Into<SeriesId>,
        name: impl Into<String>,
        start: Timestamp,
        interval: SampleInterval,
    ) -> Self {
        Self::new(id, name, start, interval, Vec::new())
    }

    /// Identifier of the series.
    pub fn id(&self) -> SeriesId {
        self.id
    }

    /// Human-readable name (e.g. station name).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Timestamp of the first sample.
    pub fn start(&self) -> Timestamp {
        self.start
    }

    /// Timestamp of the last sample, or `start - 1` if the series is empty.
    pub fn end(&self) -> Timestamp {
        self.start + (self.values.len() as i64 - 1)
    }

    /// Sampling interval of the series.
    pub fn interval(&self) -> SampleInterval {
        self.interval
    }

    /// Number of samples (observed or missing).
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the series holds no samples at all.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Appends a sample at the next timestamp.
    pub fn push(&mut self, value: Option<f64>) {
        self.values.push(value);
    }

    /// Returns the sample index of `t`, if `t` falls inside the series.
    pub fn index_of(&self, t: Timestamp) -> Option<usize> {
        let delta = t - self.start;
        if delta < 0 || delta as usize >= self.values.len() {
            None
        } else {
            Some(delta as usize)
        }
    }

    /// Value at timestamp `t`: `None` if missing or out of range.
    pub fn value_at(&self, t: Timestamp) -> Option<f64> {
        self.index_of(t).and_then(|i| self.values[i])
    }

    /// Value at sample index `i` (`None` when missing).
    pub fn value_at_index(&self, i: usize) -> Option<f64> {
        self.values.get(i).copied().flatten()
    }

    /// Overwrites the value at timestamp `t`.
    ///
    /// Returns an error if `t` is outside the series.
    pub fn set_value_at(&mut self, t: Timestamp, value: Option<f64>) -> Result<(), TsError> {
        match self.index_of(t) {
            Some(i) => {
                self.values[i] = value;
                Ok(())
            }
            None => Err(TsError::TimeOutOfRange {
                requested: t,
                earliest: self.start,
                latest: self.end(),
            }),
        }
    }

    /// Marks the half-open tick range `[from, to)` as missing.
    ///
    /// Indices outside the series are ignored, which makes it convenient for
    /// simulating sensor failures near the end of a dataset.
    pub fn mark_missing_range(&mut self, from: Timestamp, to: Timestamp) {
        let mut t = from;
        while t < to {
            if let Some(i) = self.index_of(t) {
                self.values[i] = None;
            }
            t += 1;
        }
    }

    /// Read-only access to the raw optional values.
    pub fn values(&self) -> &[Option<f64>] {
        &self.values
    }

    /// Iterator over `(timestamp, value)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (Timestamp, Option<f64>)> + '_ {
        self.values
            .iter()
            .enumerate()
            .map(move |(i, v)| (self.start + i as i64, *v))
    }

    /// Iterator over the observed (non-missing) `(timestamp, value)` pairs.
    pub fn observed(&self) -> impl Iterator<Item = (Timestamp, f64)> + '_ {
        self.iter().filter_map(|(t, v)| v.map(|x| (t, x)))
    }

    /// Number of missing samples.
    pub fn missing_count(&self) -> usize {
        self.values.iter().filter(|v| v.is_none()).count()
    }

    /// Returns a copy of the dense values, substituting `fill` for missing slots.
    pub fn to_dense(&self, fill: f64) -> Vec<f64> {
        self.values.iter().map(|v| v.unwrap_or(fill)).collect()
    }

    /// Returns a sub-series covering the tick range `[from, to)` (clamped to
    /// the series bounds).  The slice keeps the original id and name.
    pub fn slice(&self, from: Timestamp, to: Timestamp) -> TimeSeries {
        let lo = (from - self.start).max(0) as usize;
        let hi = ((to - self.start).max(0) as usize).min(self.values.len());
        let (lo, hi) = (lo.min(hi), hi);
        TimeSeries {
            id: self.id,
            name: self.name.clone(),
            start: self.start + lo as i64,
            interval: self.interval,
            values: self.values[lo..hi].to_vec(),
        }
    }

    /// Creates a phase-shifted copy of the series: the copy at time `t`
    /// reports the original value at time `t - shift`.
    ///
    /// This mirrors how the SBR-1d dataset is derived from SBR in Section 7.1
    /// ("we shift the time series of the SBR data set by a random amount up
    /// to one day").  Ticks that would refer to values before the start of
    /// the original series are missing in the copy.
    pub fn shifted(&self, shift: i64) -> TimeSeries {
        let values = (0..self.values.len() as i64)
            .map(|i| {
                let src = i - shift;
                if src < 0 || src as usize >= self.values.len() {
                    None
                } else {
                    self.values[src as usize]
                }
            })
            .collect();
        TimeSeries {
            id: self.id,
            name: format!("{}+shift{}", self.name, shift),
            start: self.start,
            interval: self.interval,
            values,
        }
    }

    /// Minimum and maximum of the observed values, or `None` if everything is
    /// missing.
    pub fn min_max(&self) -> Option<(f64, f64)> {
        let mut it = self.values.iter().flatten();
        let first = *it.next()?;
        let mut lo = first;
        let mut hi = first;
        for &v in it {
            lo = lo.min(v);
            hi = hi.max(v);
        }
        Some((lo, hi))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn series(values: Vec<Option<f64>>) -> TimeSeries {
        TimeSeries::new(
            0u32,
            "s",
            Timestamp::new(0),
            SampleInterval::FIVE_MINUTES,
            values,
        )
    }

    #[test]
    fn basic_accessors() {
        let s = series(vec![Some(1.0), None, Some(3.0)]);
        assert_eq!(s.len(), 3);
        assert!(!s.is_empty());
        assert_eq!(s.start(), Timestamp::new(0));
        assert_eq!(s.end(), Timestamp::new(2));
        assert_eq!(s.value_at(Timestamp::new(0)), Some(1.0));
        assert_eq!(s.value_at(Timestamp::new(1)), None);
        assert_eq!(s.value_at(Timestamp::new(5)), None);
        assert_eq!(s.value_at_index(2), Some(3.0));
        assert_eq!(s.missing_count(), 1);
    }

    #[test]
    fn set_and_mark_missing() {
        let mut s = series(vec![Some(1.0), Some(2.0), Some(3.0), Some(4.0)]);
        s.set_value_at(Timestamp::new(1), Some(9.0)).unwrap();
        assert_eq!(s.value_at(Timestamp::new(1)), Some(9.0));
        assert!(s.set_value_at(Timestamp::new(99), Some(0.0)).is_err());

        s.mark_missing_range(Timestamp::new(2), Timestamp::new(4));
        assert_eq!(s.value_at(Timestamp::new(2)), None);
        assert_eq!(s.value_at(Timestamp::new(3)), None);
        assert_eq!(s.missing_count(), 2);
        // Out-of-range marks are ignored.
        s.mark_missing_range(Timestamp::new(10), Timestamp::new(12));
        assert_eq!(s.missing_count(), 2);
    }

    #[test]
    fn iterators_and_dense_conversion() {
        let s = series(vec![Some(1.0), None, Some(3.0)]);
        let observed: Vec<_> = s.observed().collect();
        assert_eq!(
            observed,
            vec![(Timestamp::new(0), 1.0), (Timestamp::new(2), 3.0)]
        );
        assert_eq!(s.to_dense(-1.0), vec![1.0, -1.0, 3.0]);
        assert_eq!(s.iter().count(), 3);
    }

    #[test]
    fn slice_clamps_to_bounds() {
        let s = series((0..10).map(|i| Some(i as f64)).collect());
        let sub = s.slice(Timestamp::new(3), Timestamp::new(7));
        assert_eq!(sub.len(), 4);
        assert_eq!(sub.start(), Timestamp::new(3));
        assert_eq!(sub.value_at(Timestamp::new(3)), Some(3.0));
        assert_eq!(sub.value_at(Timestamp::new(6)), Some(6.0));

        let clamped = s.slice(Timestamp::new(-5), Timestamp::new(100));
        assert_eq!(clamped.len(), 10);

        let empty = s.slice(Timestamp::new(8), Timestamp::new(3));
        assert!(empty.is_empty());
    }

    #[test]
    fn shifted_series_lags_original() {
        let s = series((0..6).map(|i| Some(i as f64)).collect());
        let lag2 = s.shifted(2);
        // value at t is original value at t-2
        assert_eq!(lag2.value_at(Timestamp::new(0)), None);
        assert_eq!(lag2.value_at(Timestamp::new(1)), None);
        assert_eq!(lag2.value_at(Timestamp::new(2)), Some(0.0));
        assert_eq!(lag2.value_at(Timestamp::new(5)), Some(3.0));
        assert_eq!(lag2.len(), s.len());
    }

    #[test]
    fn min_max_ignores_missing() {
        let s = series(vec![None, Some(5.0), Some(-2.0), None, Some(3.0)]);
        assert_eq!(s.min_max(), Some((-2.0, 5.0)));
        let all_missing = series(vec![None, None]);
        assert_eq!(all_missing.min_max(), None);
    }

    #[test]
    fn empty_and_push_grow_series() {
        let mut s = TimeSeries::empty(7u32, "grow", Timestamp::new(10), SampleInterval::ONE_MINUTE);
        assert!(s.is_empty());
        s.push(Some(1.0));
        s.push(None);
        assert_eq!(s.len(), 2);
        assert_eq!(s.end(), Timestamp::new(11));
        assert_eq!(s.id(), SeriesId(7));
        assert_eq!(s.name(), "grow");
        assert_eq!(s.interval(), SampleInterval::ONE_MINUTE);
    }

    #[test]
    fn series_id_conversions() {
        assert_eq!(SeriesId::from(3usize).index(), 3);
        assert_eq!(SeriesId::from(4u32), SeriesId::new(4));
        assert_eq!(SeriesId(5).to_string(), "#5");
    }

    #[test]
    fn from_values_builds_fully_observed_series() {
        let s = TimeSeries::from_values(
            1u32,
            "f",
            Timestamp::new(0),
            SampleInterval::ONE_HOUR,
            [1.0, 2.0],
        );
        assert_eq!(s.missing_count(), 0);
        assert_eq!(s.len(), 2);
    }
}
