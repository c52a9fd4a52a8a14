//! Streaming abstraction: a dataset replayed tick by tick.
//!
//! The imputation algorithms of the paper are *online*: at every time point
//! `t_n` all sensors report their value (or fail to), the algorithm sees the
//! tick, imputes whatever is missing and moves on.  [`StreamTick`] is one
//! such synchronous arrival; [`StreamSource`] is anything that can be
//! replayed as a sequence of ticks — in the experiments this is a
//! [`SliceStream`] built from a set of [`TimeSeries`] with injected missing
//! blocks.

use crate::series::{SeriesId, TimeSeries};
use crate::timestamp::Timestamp;

/// One synchronous arrival: the values of every series at a single time
/// point. `values[i]` is the measurement of the series with dense id `i`;
/// `None` means the measurement is missing at this tick.
#[derive(Clone, Debug, PartialEq)]
pub struct StreamTick {
    /// The time point of the arrival.
    pub time: Timestamp,
    /// Per-series values, indexed by `SeriesId::index()`.
    pub values: Vec<Option<f64>>,
}

impl StreamTick {
    /// Creates a tick.
    pub fn new(time: Timestamp, values: Vec<Option<f64>>) -> Self {
        StreamTick { time, values }
    }

    /// Value of a specific series at this tick.
    pub fn value(&self, id: SeriesId) -> Option<f64> {
        self.values.get(id.index()).copied().flatten()
    }

    /// Ids of the series whose value is missing at this tick.
    pub fn missing_series(&self) -> Vec<SeriesId> {
        self.values
            .iter()
            .enumerate()
            .filter(|(_, v)| v.is_none())
            .map(|(i, _)| SeriesId::from(i))
            .collect()
    }

    /// Number of series carried by the tick.
    pub fn width(&self) -> usize {
        self.values.len()
    }

    /// Projects the tick onto a subset of series: the sub-tick carries the
    /// values of `members` in the given order (missing for ids the tick does
    /// not cover).  This is how a fleet-wide tick is fanned out to the
    /// per-shard engines of a partitioned fleet.
    pub fn project(&self, members: &[SeriesId]) -> StreamTick {
        StreamTick {
            time: self.time,
            values: members.iter().map(|id| self.value(*id)).collect(),
        }
    }

    /// [`StreamTick::project`] into an existing tick, reusing its buffer:
    /// a worker that projects every arriving tick onto the same members
    /// allocates once, not once per tick.
    pub fn project_into(&self, members: &[SeriesId], out: &mut StreamTick) {
        out.time = self.time;
        out.values.clear();
        out.values.extend(members.iter().map(|id| self.value(*id)));
    }
}

/// A source of stream ticks that can be replayed from the beginning.
pub trait StreamSource {
    /// Number of series in each tick.
    fn width(&self) -> usize;

    /// Total number of ticks the source will produce.
    fn len(&self) -> usize;

    /// Whether the source produces no ticks.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Returns the tick at position `pos` (0-based), or `None` past the end.
    fn tick_at(&self, pos: usize) -> Option<StreamTick>;

    /// Iterator over all ticks.
    fn ticks(&self) -> StreamIter<'_, Self>
    where
        Self: Sized,
    {
        StreamIter {
            source: self,
            pos: 0,
        }
    }
}

/// Iterator adapter over a [`StreamSource`].
pub struct StreamIter<'a, S: StreamSource> {
    source: &'a S,
    pos: usize,
}

impl<'a, S: StreamSource> Iterator for StreamIter<'a, S> {
    type Item = StreamTick;

    fn next(&mut self) -> Option<StreamTick> {
        let t = self.source.tick_at(self.pos)?;
        self.pos += 1;
        Some(t)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let rem = self.source.len().saturating_sub(self.pos);
        (rem, Some(rem))
    }
}

/// A [`StreamSource`] backed by a set of aligned in-memory series.
///
/// All series must share the same start timestamp; shorter series simply
/// report missing values once they run out.
#[derive(Clone, Debug)]
pub struct SliceStream {
    series: Vec<TimeSeries>,
    start: Timestamp,
    len: usize,
}

impl SliceStream {
    /// Builds a stream from a set of aligned series.
    ///
    /// # Panics
    ///
    /// Panics if the series list is empty or the series do not share the same
    /// start timestamp.
    pub fn new(series: Vec<TimeSeries>) -> Self {
        assert!(!series.is_empty(), "SliceStream needs at least one series");
        let start = series[0].start();
        assert!(
            series.iter().all(|s| s.start() == start),
            "all series of a SliceStream must share the same start timestamp"
        );
        let len = series.iter().map(|s| s.len()).max().unwrap_or(0);
        SliceStream { series, start, len }
    }

    /// The underlying series.
    pub fn series(&self) -> &[TimeSeries] {
        &self.series
    }

    /// Timestamp of the first tick.
    pub fn start(&self) -> Timestamp {
        self.start
    }
}

impl StreamSource for SliceStream {
    fn width(&self) -> usize {
        self.series.len()
    }

    fn len(&self) -> usize {
        self.len
    }

    fn tick_at(&self, pos: usize) -> Option<StreamTick> {
        if pos >= self.len {
            return None;
        }
        let time = self.start + pos as i64;
        let values = self.series.iter().map(|s| s.value_at_index(pos)).collect();
        Some(StreamTick { time, values })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::timestamp::SampleInterval;

    fn ts(id: u32, values: Vec<Option<f64>>) -> TimeSeries {
        TimeSeries::new(
            id,
            format!("s{id}"),
            Timestamp::new(0),
            SampleInterval::FIVE_MINUTES,
            values,
        )
    }

    #[test]
    fn projecting_into_a_reused_tick_matches_a_fresh_projection() {
        let tick = StreamTick::new(Timestamp::new(9), vec![Some(1.0), None, Some(3.0)]);
        let mut out = StreamTick::new(Timestamp::new(0), vec![Some(7.0); 5]);
        for members in [
            vec![SeriesId(2), SeriesId(0)],
            vec![SeriesId(1), SeriesId(4)],
        ] {
            tick.project_into(&members, &mut out);
            assert_eq!(out, tick.project(&members));
        }
    }

    #[test]
    fn tick_accessors() {
        let t = StreamTick::new(Timestamp::new(3), vec![Some(1.0), None, Some(3.0)]);
        assert_eq!(t.width(), 3);
        assert_eq!(t.value(SeriesId(0)), Some(1.0));
        assert_eq!(t.value(SeriesId(1)), None);
        assert_eq!(t.value(SeriesId(9)), None);
        assert_eq!(t.missing_series(), vec![SeriesId(1)]);
    }

    #[test]
    fn slice_stream_replays_ticks_in_order() {
        let s0 = ts(0, vec![Some(1.0), Some(2.0), Some(3.0)]);
        let s1 = ts(1, vec![Some(10.0), None, Some(30.0)]);
        let stream = SliceStream::new(vec![s0, s1]);
        assert_eq!(stream.width(), 2);
        assert_eq!(stream.len(), 3);
        assert!(!stream.is_empty());

        let ticks: Vec<StreamTick> = stream.ticks().collect();
        assert_eq!(ticks.len(), 3);
        assert_eq!(ticks[0].time, Timestamp::new(0));
        assert_eq!(ticks[1].values, vec![Some(2.0), None]);
        assert_eq!(ticks[2].time, Timestamp::new(2));
        assert!(stream.tick_at(3).is_none());
    }

    #[test]
    fn shorter_series_pad_with_missing() {
        let s0 = ts(0, vec![Some(1.0), Some(2.0), Some(3.0)]);
        let s1 = ts(1, vec![Some(10.0)]);
        let stream = SliceStream::new(vec![s0, s1]);
        assert_eq!(stream.len(), 3);
        assert_eq!(stream.tick_at(2).unwrap().values, vec![Some(3.0), None]);
    }

    #[test]
    fn series_lookup_by_id() {
        let stream = SliceStream::new(vec![ts(5, vec![Some(1.0)]), ts(9, vec![Some(2.0)])]);
        assert_eq!(stream.series()[1].name(), "s9");
        assert_eq!(stream.start(), Timestamp::new(0));
        assert_eq!(stream.series().len(), 2);
    }

    #[test]
    fn iterator_size_hint_is_exact() {
        let stream = SliceStream::new(vec![ts(0, vec![Some(1.0), Some(2.0)])]);
        let mut it = stream.ticks();
        assert_eq!(it.size_hint(), (2, Some(2)));
        it.next();
        assert_eq!(it.size_hint(), (1, Some(1)));
    }

    #[test]
    #[should_panic(expected = "at least one series")]
    fn empty_stream_panics() {
        let _ = SliceStream::new(vec![]);
    }

    #[test]
    #[should_panic(expected = "same start")]
    fn misaligned_series_panic() {
        let a = ts(0, vec![Some(1.0)]);
        let b = TimeSeries::new(
            1u32,
            "b",
            Timestamp::new(5),
            SampleInterval::FIVE_MINUTES,
            vec![Some(1.0)],
        );
        let _ = SliceStream::new(vec![a, b]);
    }
}
