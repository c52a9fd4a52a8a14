//! Missing-value bookkeeping: masks, gaps and block statistics.
//!
//! The experiments of the paper simulate *large blocks of consecutively
//! missing values* (Section 7: "e.g. one week") — a sensor fails and stays
//! broken until a technician replaces it.  This module provides the
//! machinery to describe and analyse such gaps independently of how they
//! were produced.

use crate::series::TimeSeries;
use crate::timestamp::Timestamp;

/// A boolean mask recording which ticks of a series are missing.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MissingMask {
    start: Timestamp,
    missing: Vec<bool>,
}

impl MissingMask {
    /// Builds the mask of a series (true = missing).
    pub fn of_series(series: &TimeSeries) -> Self {
        MissingMask {
            start: series.start(),
            missing: series.values().iter().map(|v| v.is_none()).collect(),
        }
    }

    /// Number of ticks covered by the mask.
    pub fn len(&self) -> usize {
        self.missing.len()
    }

    /// Whether the mask covers no ticks.
    pub fn is_empty(&self) -> bool {
        self.missing.is_empty()
    }

    /// Total number of missing ticks.
    pub fn missing_count(&self) -> usize {
        self.missing.iter().filter(|&&m| m).count()
    }

    /// Decomposes the mask into maximal runs of consecutive missing ticks.
    pub fn gaps(&self) -> Vec<GapReport> {
        let mut gaps = Vec::new();
        let mut run_start: Option<usize> = None;
        for (i, &m) in self.missing.iter().enumerate() {
            match (m, run_start) {
                (true, None) => run_start = Some(i),
                (false, Some(s)) => {
                    gaps.push(GapReport {
                        start: self.start + s as i64,
                        length: i - s,
                    });
                    run_start = None;
                }
                _ => {}
            }
        }
        if let Some(s) = run_start {
            gaps.push(GapReport {
                start: self.start + s as i64,
                length: self.missing.len() - s,
            });
        }
        gaps
    }
}

/// A maximal run of consecutively missing values.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GapReport {
    /// First missing tick of the gap.
    pub start: Timestamp,
    /// Number of consecutive missing ticks.
    pub length: usize,
}

impl GapReport {
    /// One-past-the-end timestamp of the gap.
    pub fn end(&self) -> Timestamp {
        self.start + self.length as i64
    }

    /// Whether the timestamp falls inside the gap.
    pub fn contains(&self, t: Timestamp) -> bool {
        t >= self.start && t < self.end()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::timestamp::SampleInterval;

    fn series(values: Vec<Option<f64>>) -> TimeSeries {
        TimeSeries::new(
            0u32,
            "s",
            Timestamp::new(10),
            SampleInterval::FIVE_MINUTES,
            values,
        )
    }

    #[test]
    fn mask_reflects_series() {
        let s = series(vec![Some(1.0), None, None, Some(4.0), None]);
        let m = MissingMask::of_series(&s);
        assert_eq!(m.len(), 5);
        assert!(!m.is_empty());
        assert_eq!(m.missing_count(), 3);
    }

    #[test]
    fn gaps_are_maximal_runs() {
        let s = series(vec![Some(1.0), None, None, Some(4.0), None]);
        let m = MissingMask::of_series(&s);
        let gaps = m.gaps();
        assert_eq!(gaps.len(), 2);
        assert_eq!(
            gaps[0],
            GapReport {
                start: Timestamp::new(11),
                length: 2
            }
        );
        assert_eq!(
            gaps[1],
            GapReport {
                start: Timestamp::new(14),
                length: 1
            }
        );
        assert!(gaps[0].contains(Timestamp::new(12)));
        assert!(!gaps[0].contains(Timestamp::new(13)));
        assert_eq!(gaps[0].end(), Timestamp::new(13));
    }

    #[test]
    fn gap_spanning_the_entire_series() {
        let s = series(vec![None, None, None]);
        let m = MissingMask::of_series(&s);
        assert_eq!(m.gaps().len(), 1);
        assert_eq!(m.gaps()[0].length, 3);
    }

    #[test]
    fn fully_observed_series_has_no_gaps() {
        let s = series(vec![Some(1.0), Some(2.0)]);
        let m = MissingMask::of_series(&s);
        assert!(m.gaps().is_empty());
        assert_eq!(m.missing_count(), 0);
    }
}
