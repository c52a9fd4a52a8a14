//! Discrete timestamps and sampling intervals.
//!
//! The paper works on regularly sampled streams (the SBR stations sample
//! every five minutes, the Flights dataset every minute).  Internally we use
//! a dense integer *tick index*: tick `i` denotes the time point
//! `start + i * interval`.  All window/pattern arithmetic in the paper is
//! expressed over tick indices, so [`Timestamp`] is a thin, copyable newtype
//! over `i64` with saturating arithmetic helpers.

use std::fmt;
use std::ops::{Add, AddAssign, Sub, SubAssign};

/// A discrete point in time, expressed as a tick index.
///
/// Tick `0` is the first sample of a dataset; negative ticks are allowed so
/// that relative arithmetic (e.g. `t - l + 1` for a pattern anchored near the
/// start of a stream) never panics.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Timestamp(pub i64);

impl Timestamp {
    /// The earliest representable timestamp.
    pub const MIN: Timestamp = Timestamp(i64::MIN);
    /// The latest representable timestamp.
    pub const MAX: Timestamp = Timestamp(i64::MAX);

    /// Creates a timestamp from a raw tick index.
    pub const fn new(tick: i64) -> Self {
        Timestamp(tick)
    }

    /// Returns the raw tick index.
    pub const fn tick(self) -> i64 {
        self.0
    }

    /// Returns the timestamp `steps` ticks later.
    pub fn offset(self, steps: i64) -> Self {
        Timestamp(self.0.saturating_add(steps))
    }

    /// Number of ticks between `self` and `other` (`self - other`).
    pub fn delta(self, other: Timestamp) -> i64 {
        self.0 - other.0
    }

    /// Absolute distance in ticks between two timestamps.
    ///
    /// This is the `|t - t'|` used by the non-overlap condition of
    /// Definition 3 in the paper.
    pub fn distance(self, other: Timestamp) -> i64 {
        (self.0 - other.0).abs()
    }
}

impl fmt::Debug for Timestamp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}

impl fmt::Display for Timestamp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}

impl From<i64> for Timestamp {
    fn from(tick: i64) -> Self {
        Timestamp(tick)
    }
}

impl From<usize> for Timestamp {
    fn from(tick: usize) -> Self {
        Timestamp(tick as i64)
    }
}

impl Add<i64> for Timestamp {
    type Output = Timestamp;
    fn add(self, rhs: i64) -> Timestamp {
        self.offset(rhs)
    }
}

impl AddAssign<i64> for Timestamp {
    fn add_assign(&mut self, rhs: i64) {
        *self = *self + rhs;
    }
}

impl Sub<i64> for Timestamp {
    type Output = Timestamp;
    fn sub(self, rhs: i64) -> Timestamp {
        self.offset(-rhs)
    }
}

impl SubAssign<i64> for Timestamp {
    fn sub_assign(&mut self, rhs: i64) {
        *self = *self - rhs;
    }
}

impl Sub<Timestamp> for Timestamp {
    type Output = i64;
    fn sub(self, rhs: Timestamp) -> i64 {
        self.delta(rhs)
    }
}

/// The fixed spacing between consecutive samples of a dataset.
///
/// The interval only matters when converting between "human" durations
/// (hours, days, weeks) and tick counts, e.g. "a pattern of length `l = 72`
/// spans 6 hours at a 5-minute sample rate" (Section 7.3.1 of the paper).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct SampleInterval {
    seconds: u32,
}

impl SampleInterval {
    /// Five-minute sampling, the rate of the SBR and Chlorine datasets.
    pub const FIVE_MINUTES: SampleInterval = SampleInterval { seconds: 300 };
    /// One-minute sampling, the rate of the Flights dataset.
    pub const ONE_MINUTE: SampleInterval = SampleInterval { seconds: 60 };
    /// Hourly sampling.
    pub const ONE_HOUR: SampleInterval = SampleInterval { seconds: 3600 };

    /// Interval length in seconds.
    pub fn seconds(self) -> u32 {
        self.seconds
    }

    /// Number of ticks per day.
    pub fn ticks_per_day(self) -> u64 {
        86_400 / self.seconds as u64
    }

    /// Number of ticks per (365-day) year.
    pub fn ticks_per_year(self) -> u64 {
        365 * self.ticks_per_day()
    }
}

impl Default for SampleInterval {
    fn default() -> Self {
        SampleInterval::FIVE_MINUTES
    }
}

impl fmt::Display for SampleInterval {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.seconds.is_multiple_of(3600) {
            write!(f, "{}h", self.seconds / 3600)
        } else if self.seconds.is_multiple_of(60) {
            write!(f, "{}min", self.seconds / 60)
        } else {
            write!(f, "{}s", self.seconds)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timestamp_arithmetic_roundtrips() {
        let t = Timestamp::new(100);
        assert_eq!((t + 5).tick(), 105);
        assert_eq!((t - 5).tick(), 95);
        assert_eq!(t + 5 - t, 5);
        assert_eq!(t.distance(t + 7), 7);
        assert_eq!(t.distance(t - 7), 7);
    }

    #[test]
    fn timestamp_saturates_at_extremes() {
        assert_eq!(Timestamp::MAX + 1, Timestamp::MAX);
        assert_eq!(Timestamp::MIN.offset(-1), Timestamp::MIN);
    }

    #[test]
    fn timestamp_ordering_follows_ticks() {
        assert!(Timestamp::new(3) < Timestamp::new(4));
        assert!(Timestamp::new(-1) < Timestamp::new(0));
        assert_eq!(Timestamp::new(9), Timestamp::from(9i64));
    }

    #[test]
    fn timestamp_display_is_compact() {
        assert_eq!(Timestamp::new(42).to_string(), "t42");
        assert_eq!(format!("{:?}", Timestamp::new(-3)), "t-3");
    }

    #[test]
    fn five_minute_interval_tick_counts_match_paper() {
        let iv = SampleInterval::FIVE_MINUTES;
        assert_eq!(iv.ticks_per_day(), 288);
        // The paper uses L = 105120 for a one-year SBR window.
        assert_eq!(iv.ticks_per_year(), 105_120);
        // l = 72 spans 6 hours (a quarter day) at the SBR sample rate
        // (Section 7.3.1).
        assert_eq!(iv.ticks_per_day() / 4, 72);
    }

    #[test]
    fn one_minute_interval_tick_counts_match_paper() {
        let iv = SampleInterval::ONE_MINUTE;
        // l = 72 only spans one hour and 12 minutes (a twentieth of a day)
        // at a 1-minute rate.
        assert_eq!(iv.ticks_per_day() / 20, 72);
        assert_eq!(iv.ticks_per_day(), 1440);
    }

    #[test]
    fn interval_conversions() {
        assert_eq!(SampleInterval::FIVE_MINUTES.seconds(), 300);
        assert_eq!(SampleInterval::FIVE_MINUTES.to_string(), "5min");
        assert_eq!(SampleInterval::ONE_HOUR.to_string(), "1h");
        assert_eq!(SampleInterval { seconds: 30 }.to_string(), "30s");
    }
}
