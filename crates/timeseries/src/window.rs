//! The streaming window `W`: the last `L` measurements of every series.
//!
//! Section 3 of the paper: "`W = {t_{n-L+1}, ..., t_{n-1}, t_n}` denotes the
//! `L` time points in our streaming window for which we keep measurements in
//! main memory."  The window is shared state between the stream replayer and
//! the imputation algorithms: every tick pushes one value per series (O(1)
//! per stream, Lemma 6.1) and imputed values are written back so that later
//! imputations can use them (as in Example 1, where `r2(13:40)` is an
//! imputed value that later appears inside patterns).
//!
//! Section 6.2 keeps "one ring buffer of length `L` for each time series and
//! an offset `O` into the ring buffers": the value at `t_n` is `s[O]` and the
//! oldest value `s[(O+1)%L]`.  The window stores exactly that — one plain
//! `f64` ring per series — plus a provenance ring per series and one ring of
//! tick times.  All of them follow the one pushed-tick count `n`: tick `n`
//! lands at raw index `n % L`, so `O = (n − 1) % L`, and a ring holds only
//! pushed slots (it grows to `L` while the window fills, then wraps).  A
//! missing slot holds NaN; only [`StreamingWindow::push_tick`] writes it,
//! and the accessors report a missing slot as `None`.

use crate::errors::TsError;
use crate::series::SeriesId;
use crate::stream::StreamTick;
use crate::timestamp::Timestamp;

/// Provenance of a value stored in the window.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SlotState {
    /// The sensor reported the value.
    Observed,
    /// The value was missing and has been imputed by an algorithm.
    Imputed,
    /// The value is missing and has not been imputed (NIL).
    Missing,
}

/// The ingest policy for one arriving reading: a non-finite value (NaN,
/// ±∞) is stored as missing, so it can never feed a pattern or become an
/// anchor value.  Huge *finite* readings are data and pass unchanged.
/// The signature index of `tkcm-core` applies the same policy when it folds
/// a pushed tick into its newest block, and re-reads a written block from
/// this window's value plane.
pub fn ingest_reading(value: Option<f64>) -> Option<f64> {
    value.filter(|v| v.is_finite())
}

/// A single slot of the window: the (possibly absent) value plus provenance.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct WindowSlot {
    /// The stored value, `None` when missing.
    pub value: Option<f64>,
    /// Whether the value was observed, imputed or is still missing.
    pub state: SlotState,
}

/// A run of ring slots in chronological order: the slots before the ring
/// seam, then the slots after it (empty unless the run wraps).
pub type RunSlices<'a, T> = (&'a [T], &'a [T]);

/// The `len` slots of a ring (newest at raw index `offset`, `filled` slots
/// pushed, all of them in `slots`) whose newest is `age` steps back, oldest
/// first.  `None` when the run reaches past the pushed slots.
fn ring_run<T>(
    slots: &[T],
    offset: usize,
    filled: usize,
    age: usize,
    len: usize,
) -> Option<RunSlices<'_, T>> {
    if age.checked_add(len)? > filled {
        return None;
    }
    if len == 0 {
        return Some((&[], &[]));
    }
    // Ring *position* arithmetic over the cursor, not timestamp derivation.
    let cap = slots.len();
    // tkcm-lint: allow(cadence)
    let newest = (offset + cap - age) % cap;
    let oldest = (offset + cap - (age + len - 1)) % cap;
    Some(if oldest <= newest {
        (&slots[oldest..=newest], &[])
    } else {
        (&slots[oldest..], &slots[..=newest])
    })
}

/// Writes `x` at raw index `o` of a ring, appending while the ring is still
/// filling (then `o` is its length).
fn put<T>(ring: &mut Vec<T>, o: usize, x: T) {
    match ring.get_mut(o) {
        Some(slot) => *slot = x,
        None => ring.push(x),
    }
}

/// Sliding window over a fixed set of series: one `f64` value ring and one
/// provenance ring per series, and one ring of tick times, sharing a cursor.
#[derive(Clone, Debug)]
pub struct StreamingWindow {
    // Fields are `pub(crate)` so the snapshot codec (`persist`) can persist
    // and restore the exact ring layout.
    pub(crate) length: usize,
    /// Per-series value ring: `values[series][raw]`, NaN where the slot is
    /// missing.  Every ring holds `min(ticks_seen, L)` slots.
    pub(crate) values: Vec<Vec<f64>>,
    /// Per-series provenance ring, same layout as `values`.
    pub(crate) states: Vec<Vec<SlotState>>,
    /// Timestamp of every pushed tick, in the same ring layout.  Ticks need
    /// not be one timestamp unit apart (a 10-minute sensor cadence is 600
    /// units at second resolution), so the age ↔ time conversion must read
    /// the stored times instead of assuming unit spacing.
    pub(crate) times: Vec<Timestamp>,
    /// The paper's offset `O`: raw index of the newest slot of every ring,
    /// `(ticks_seen − 1) % L` (0 before the first tick).
    pub(crate) offset: usize,
    pub(crate) current_time: Option<Timestamp>,
    pub(crate) ticks_seen: usize,
}

impl StreamingWindow {
    /// Creates a window of length `L` over `width` series.
    ///
    /// # Panics
    ///
    /// Panics if `length == 0` or `width == 0`.
    pub fn new(width: usize, length: usize) -> Self {
        assert!(length > 0, "window length L must be positive");
        assert!(width > 0, "window needs at least one series");
        StreamingWindow {
            length,
            values: (0..width).map(|_| Vec::with_capacity(length)).collect(),
            states: (0..width).map(|_| Vec::with_capacity(length)).collect(),
            times: Vec::with_capacity(length),
            offset: 0,
            current_time: None,
            ticks_seen: 0,
        }
    }

    /// The window length `L`.
    pub fn length(&self) -> usize {
        self.length
    }

    /// Number of series tracked by the window.
    pub fn width(&self) -> usize {
        self.values.len()
    }

    /// The current time `t_n` (time of the most recent tick), if any tick has
    /// been pushed.
    pub fn current_time(&self) -> Option<Timestamp> {
        self.current_time
    }

    /// Number of ticks pushed so far (not capped at `L`).
    pub fn ticks_seen(&self) -> usize {
        self.ticks_seen
    }

    /// Whether at least `L` ticks have been pushed, i.e. the window is fully
    /// populated.
    pub fn is_warm(&self) -> bool {
        self.ticks_seen >= self.length
    }

    /// Number of slots per series that actually hold pushed data:
    /// `min(ticks_seen, L)`.  Ages `0..filled()` are addressable; anything
    /// older reads as missing.
    pub fn filled(&self) -> usize {
        self.ticks_seen.min(self.length)
    }

    /// Absolute tick *ordinal* (0-based position in the whole stream, not a
    /// timestamp) of the slot `age` ticks in the past, or `None` when fewer
    /// than `age + 1` ticks have been pushed.  Ordinals are stable as the
    /// ring wraps — slot `age` today and slot `age + 1` after the next push
    /// share one ordinal — which is what block-aligned index structures
    /// (e.g. the signature index of `tkcm-core`) key their summaries on.
    pub fn ordinal_of_age(&self, age: usize) -> Option<u64> {
        if age >= self.filled() {
            return None;
        }
        // Stream-position arithmetic over the tick counter, not a timestamp
        // derivation — timestamps always come from `self.times`.
        // tkcm-lint: allow(cadence)
        Some((self.ticks_seen - 1 - age) as u64)
    }

    /// Pushes a new tick into the window (O(width), O(1) per series).  A
    /// missing or non-finite reading ([`ingest_reading`]) is stored as NaN
    /// with provenance [`SlotState::Missing`].
    ///
    /// Returns an error if the tick width does not match the window width or
    /// if time does not advance strictly.
    pub fn push_tick(&mut self, tick: &StreamTick) -> Result<(), TsError> {
        if tick.values.len() != self.width() {
            return Err(TsError::LengthMismatch {
                left: tick.values.len(),
                right: self.width(),
                context: "stream tick width vs window width",
            });
        }
        if let Some(t) = self.current_time {
            if tick.time <= t {
                return Err(TsError::invalid(
                    "tick.time",
                    format!("time must advance strictly: current {t}, got {}", tick.time),
                ));
            }
        }
        let o = self.ticks_seen % self.length;
        for ((&v, values), states) in tick
            .values
            .iter()
            .zip(&mut self.values)
            .zip(&mut self.states)
        {
            let (value, state) = match ingest_reading(v) {
                Some(v) => (v, SlotState::Observed),
                None => (f64::NAN, SlotState::Missing),
            };
            put(values, o, value);
            put(states, o, state);
        }
        put(&mut self.times, o, tick.time);
        self.offset = o;
        self.current_time = Some(tick.time);
        self.ticks_seen += 1;
        Ok(())
    }

    /// Raw ring index of the slot `age < filled()` ticks in the past.  This
    /// is ring *position* arithmetic over the offset modulo the ring size,
    /// not a timestamp derivation — timestamps always come from
    /// `self.times`.
    fn ring_index(&self, age: usize) -> usize {
        let cap = self.times.len();
        // tkcm-lint: allow(cadence)
        (self.offset + cap - age) % cap
    }

    /// Raw index of `id`'s slot `age` ticks back; `None` when the age
    /// reaches past the pushed ticks.
    fn slot_index(&self, id: SeriesId, age: usize) -> Result<Option<usize>, TsError> {
        if id.index() >= self.width() {
            return Err(TsError::UnknownSeries(id));
        }
        Ok((age < self.filled()).then(|| self.ring_index(age)))
    }

    /// Value of `id` at `age` steps in the past (0 = current time `t_n`);
    /// `None` when the slot is missing or older than the pushed ticks.
    pub fn value_recent(&self, id: SeriesId, age: usize) -> Result<Option<f64>, TsError> {
        Ok(self
            .slot_index(id, age)?
            .map(|idx| self.values[id.index()][idx])
            .filter(|v| !v.is_nan()))
    }

    /// Value of `id` at an absolute timestamp inside the window.
    pub fn value_at(&self, id: SeriesId, t: Timestamp) -> Result<Option<f64>, TsError> {
        let age = self.age_of(t)?;
        self.value_recent(id, age)
    }

    /// Slot (value + provenance) of `id` at `age` steps in the past.
    pub fn slot_recent(&self, id: SeriesId, age: usize) -> Result<WindowSlot, TsError> {
        Ok(WindowSlot {
            value: self.value_recent(id, age)?,
            state: match self.slot_index(id, age)? {
                Some(idx) => self.states[id.index()][idx],
                None => SlotState::Missing,
            },
        })
    }

    /// The `len` values of `id` whose newest is `age` steps in the past,
    /// oldest first, as at most two contiguous slices (the second is
    /// non-empty only when the run wraps the ring seam); a missing slot is
    /// NaN.  Errors when the run reaches past the pushed ticks.
    pub fn value_run(
        &self,
        id: SeriesId,
        age: usize,
        len: usize,
    ) -> Result<RunSlices<'_, f64>, TsError> {
        self.series_run(&self.values, id, age, len)
    }

    /// Provenance of the `len` slots of `id` whose newest is `age` steps in
    /// the past, laid out like [`StreamingWindow::value_run`].
    pub fn state_run(
        &self,
        id: SeriesId,
        age: usize,
        len: usize,
    ) -> Result<RunSlices<'_, SlotState>, TsError> {
        self.series_run(&self.states, id, age, len)
    }

    /// One series' run of `rings`, bounded by the pushed ticks.
    fn series_run<'a, T>(
        &self,
        rings: &'a [Vec<T>],
        id: SeriesId,
        age: usize,
        len: usize,
    ) -> Result<RunSlices<'a, T>, TsError> {
        let ring = rings.get(id.index()).ok_or(TsError::UnknownSeries(id))?;
        ring_run(ring, self.offset, self.filled(), age, len).ok_or_else(|| {
            TsError::invalid(
                "age",
                format!("run of {len} ending at age {age} exceeds the pushed ticks"),
            )
        })
    }

    /// Writes an imputed value for `id` at `age` steps in the past and marks
    /// the slot as [`SlotState::Imputed`].  A NaN value is refused: it would
    /// read back as missing under an `Imputed` state.
    ///
    /// The typical use is `age = 0`: Algorithm 1 stores the imputed value in
    /// `s[O]` so that subsequent ticks can use it as history.
    pub fn write_imputed(&mut self, id: SeriesId, age: usize, value: f64) -> Result<(), TsError> {
        if value.is_nan() {
            return Err(TsError::invalid("value", "an imputed value cannot be NaN"));
        }
        let idx = self.slot_index(id, age)?.ok_or_else(|| {
            TsError::invalid(
                "age",
                format!("age {age} exceeds the number of pushed ticks"),
            )
        })?;
        self.values[id.index()][idx] = value;
        self.states[id.index()][idx] = SlotState::Imputed;
        Ok(())
    }

    /// Converts an absolute timestamp into an age (0 = current time).
    ///
    /// The timestamp must be the time of a tick that is still inside the
    /// window; ticks are matched against the stored per-tick times, so any
    /// cadence (including irregular spacing) resolves correctly.
    pub fn age_of(&self, t: Timestamp) -> Result<usize, TsError> {
        let now = self
            .current_time
            .ok_or_else(|| TsError::invalid("window", "no tick has been pushed yet"))?;
        let filled = self.filled();
        let earliest = self.times[self.ring_index(filled - 1)];
        if t > now || t < earliest {
            return Err(TsError::TimeOutOfRange {
                requested: t,
                earliest,
                latest: now,
            });
        }
        // Stored times decrease strictly with age: binary-search for the
        // first age whose time is <= t, then demand an exact hit.
        let (mut lo, mut hi) = (0usize, filled - 1);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if self.times[self.ring_index(mid)] <= t {
                hi = mid;
            } else {
                lo = mid + 1;
            }
        }
        if self.times[self.ring_index(lo)] == t {
            Ok(lo)
        } else {
            Err(TsError::invalid(
                "t",
                format!("no tick was pushed at time {t} (times between ticks have no age)"),
            ))
        }
    }

    /// Converts an age back to the absolute timestamp of that tick, reading
    /// the stored per-tick times.  `None` when fewer than `age + 1` ticks
    /// have been pushed.
    pub fn time_of_age(&self, age: usize) -> Option<Timestamp> {
        if age >= self.filled() {
            return None;
        }
        Some(self.times[self.ring_index(age)])
    }

    /// The chronological (oldest → newest) contents of one series, restricted
    /// to the slots that have actually been pushed.
    pub fn series_chronological(&self, id: SeriesId) -> Result<Vec<Option<f64>>, TsError> {
        (0..self.filled())
            .rev()
            .map(|age| self.value_recent(id, age))
            .collect()
    }

    /// Ids of the series whose current value (`age == 0`) is missing.
    pub fn currently_missing(&self) -> Vec<SeriesId> {
        if self.ticks_seen == 0 {
            return Vec::new();
        }
        (0..self.width())
            .filter(|&i| self.values[i][self.offset].is_nan())
            .map(SeriesId::from)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tick(t: i64, values: Vec<Option<f64>>) -> StreamTick {
        StreamTick::new(Timestamp::new(t), values)
    }

    #[test]
    fn window_tracks_time_and_warmup() {
        let mut w = StreamingWindow::new(2, 3);
        assert_eq!(w.length(), 3);
        assert_eq!(w.width(), 2);
        assert_eq!(w.current_time(), None);
        assert!(!w.is_warm());

        w.push_tick(&tick(0, vec![Some(1.0), Some(10.0)])).unwrap();
        w.push_tick(&tick(1, vec![Some(2.0), None])).unwrap();
        w.push_tick(&tick(2, vec![Some(3.0), Some(30.0)])).unwrap();
        assert!(w.is_warm());
        assert_eq!(w.ticks_seen(), 3);
        assert_eq!(w.current_time(), Some(Timestamp::new(2)));

        assert_eq!(w.value_recent(SeriesId(0), 0).unwrap(), Some(3.0));
        assert_eq!(w.value_recent(SeriesId(0), 2).unwrap(), Some(1.0));
        assert_eq!(w.value_recent(SeriesId(1), 1).unwrap(), None);
        assert_eq!(
            w.value_at(SeriesId(1), Timestamp::new(2)).unwrap(),
            Some(30.0)
        );
    }

    #[test]
    fn push_rejects_wrong_width_and_non_advancing_time() {
        let mut w = StreamingWindow::new(2, 3);
        assert!(w.push_tick(&tick(0, vec![Some(1.0)])).is_err());
        w.push_tick(&tick(5, vec![Some(1.0), Some(2.0)])).unwrap();
        assert!(w.push_tick(&tick(5, vec![Some(1.0), Some(2.0)])).is_err());
        assert!(w.push_tick(&tick(4, vec![Some(1.0), Some(2.0)])).is_err());
        assert!(w.push_tick(&tick(6, vec![Some(1.0), Some(2.0)])).is_ok());
    }

    #[test]
    fn window_evicts_old_values() {
        let mut w = StreamingWindow::new(1, 2);
        for t in 0..5 {
            w.push_tick(&tick(t, vec![Some(t as f64)])).unwrap();
        }
        assert_eq!(w.value_recent(SeriesId(0), 0).unwrap(), Some(4.0));
        assert_eq!(w.value_recent(SeriesId(0), 1).unwrap(), Some(3.0));
        // age 2 is outside the window of length 2
        assert_eq!(w.value_recent(SeriesId(0), 2).unwrap(), None);
        assert!(w.value_at(SeriesId(0), Timestamp::new(0)).is_err());
        assert_eq!(
            w.series_chronological(SeriesId(0)).unwrap(),
            vec![Some(3.0), Some(4.0)]
        );
    }

    #[test]
    fn imputed_values_are_written_back_with_provenance() {
        let mut w = StreamingWindow::new(2, 4);
        w.push_tick(&tick(0, vec![Some(1.0), Some(10.0)])).unwrap();
        w.push_tick(&tick(1, vec![None, Some(20.0)])).unwrap();

        assert_eq!(w.currently_missing(), vec![SeriesId(0)]);
        assert_eq!(
            w.slot_recent(SeriesId(0), 0).unwrap().state,
            SlotState::Missing
        );

        w.write_imputed(SeriesId(0), 0, 1.5).unwrap();
        let slot = w.slot_recent(SeriesId(0), 0).unwrap();
        assert_eq!(slot.value, Some(1.5));
        assert_eq!(slot.state, SlotState::Imputed);
        assert!(w.currently_missing().is_empty());

        // Observed slot keeps its provenance.
        let obs = w.slot_recent(SeriesId(1), 0).unwrap();
        assert_eq!(obs.state, SlotState::Observed);

        // Provenance survives a further tick (age grows by one).
        w.push_tick(&tick(2, vec![Some(3.0), Some(30.0)])).unwrap();
        assert_eq!(
            w.slot_recent(SeriesId(0), 1).unwrap().state,
            SlotState::Imputed
        );
        assert_eq!(
            w.slot_recent(SeriesId(0), 0).unwrap().state,
            SlotState::Observed
        );
    }

    #[test]
    fn write_imputed_rejects_unpushed_ages() {
        let mut w = StreamingWindow::new(1, 4);
        w.push_tick(&tick(0, vec![None])).unwrap();
        assert!(w.write_imputed(SeriesId(0), 2, 1.0).is_err());
        assert!(w.write_imputed(SeriesId(9), 0, 1.0).is_err());
        // A NaN would read back as missing under an `Imputed` state.
        assert!(w.write_imputed(SeriesId(0), 0, f64::NAN).is_err());
        assert_eq!(
            w.slot_recent(SeriesId(0), 0).unwrap().state,
            SlotState::Missing
        );
    }

    #[test]
    fn age_and_time_conversions() {
        let mut w = StreamingWindow::new(1, 5);
        assert!(w.age_of(Timestamp::new(0)).is_err());
        for t in 10..15 {
            w.push_tick(&tick(t, vec![Some(0.0)])).unwrap();
        }
        assert_eq!(w.age_of(Timestamp::new(14)).unwrap(), 0);
        assert_eq!(w.age_of(Timestamp::new(10)).unwrap(), 4);
        assert!(w.age_of(Timestamp::new(9)).is_err());
        assert!(w.age_of(Timestamp::new(15)).is_err());
        assert_eq!(w.time_of_age(2), Some(Timestamp::new(12)));
    }

    #[test]
    fn age_time_conversions_honour_the_real_cadence() {
        // 600-second cadence (10-minute sensor data at second resolution):
        // ages map to the *stored* tick times, not to `now - age`.
        let mut w = StreamingWindow::new(1, 4);
        for i in 0..6i64 {
            w.push_tick(&tick(i * 600, vec![Some(i as f64)])).unwrap();
        }
        assert_eq!(w.current_time(), Some(Timestamp::new(3000)));
        assert_eq!(w.time_of_age(0), Some(Timestamp::new(3000)));
        assert_eq!(w.time_of_age(3), Some(Timestamp::new(1200)));
        assert_eq!(w.time_of_age(4), None);
        assert_eq!(w.age_of(Timestamp::new(1800)).unwrap(), 2);
        assert_eq!(w.age_of(Timestamp::new(1200)).unwrap(), 3);
        assert_eq!(
            w.value_at(SeriesId(0), Timestamp::new(2400)).unwrap(),
            Some(4.0)
        );
        // Between-tick times and evicted ticks are errors, not silent ages.
        assert!(w.age_of(Timestamp::new(2999)).is_err());
        assert!(w.age_of(Timestamp::new(600)).is_err());
        assert!(w.age_of(Timestamp::new(3600)).is_err());
    }

    #[test]
    fn ordinals_are_stable_across_ring_wrap() {
        let mut w = StreamingWindow::new(1, 3);
        assert_eq!(w.ordinal_of_age(0), None);
        for t in 0..5i64 {
            w.push_tick(&tick(t, vec![Some(t as f64)])).unwrap();
        }
        // Tick 4 is the newest (ordinal 4); tick 2 survives at age 2 even
        // though the ring has wrapped once.
        assert_eq!(w.ordinal_of_age(0), Some(4));
        assert_eq!(w.ordinal_of_age(1), Some(3));
        assert_eq!(w.ordinal_of_age(2), Some(2));
        assert_eq!(w.ordinal_of_age(3), None);
    }

    #[test]
    fn time_of_age_is_none_before_enough_ticks() {
        let mut w = StreamingWindow::new(1, 8);
        assert_eq!(w.time_of_age(0), None);
        w.push_tick(&tick(7, vec![Some(1.0)])).unwrap();
        assert_eq!(w.time_of_age(0), Some(Timestamp::new(7)));
        assert_eq!(w.time_of_age(1), None);
    }

    #[test]
    fn slot_for_unpushed_age_is_missing() {
        let mut w = StreamingWindow::new(1, 5);
        w.push_tick(&tick(0, vec![Some(1.0)])).unwrap();
        let s = w.slot_recent(SeriesId(0), 3).unwrap();
        assert_eq!(s.state, SlotState::Missing);
        assert_eq!(s.value, None);
        assert!(w.slot_recent(SeriesId(7), 0).is_err());
    }

    /// Flattens a provenance run into one oldest-first vector.
    fn states(w: &StreamingWindow, age: usize, len: usize) -> Vec<SlotState> {
        let (a, b) = w.state_run(SeriesId(0), age, len).unwrap();
        a.iter().chain(b).copied().collect()
    }

    /// Flattens a value run into one oldest-first vector, NaN as `None`.
    fn values(w: &StreamingWindow, age: usize, len: usize) -> Vec<Option<f64>> {
        let (a, b) = w.value_run(SeriesId(0), age, len).unwrap();
        a.iter()
            .chain(b)
            .map(|&v| (!v.is_nan()).then_some(v))
            .collect()
    }

    #[test]
    fn state_run_matches_slot_recent_across_the_seam() {
        use SlotState::{Imputed, Missing, Observed};
        // 7 ticks into a 5-slot ring: ticks 2..=6 survive, tick 6 at raw
        // index 1, so runs over ticks 3..=5 wrap the seam.
        let mut w = StreamingWindow::new(1, 5);
        for t in 0..7 {
            let v = if t == 4 { None } else { Some(t as f64) };
            w.push_tick(&tick(t, vec![v])).unwrap();
        }
        w.write_imputed(SeriesId(0), 1, 5.5).unwrap();
        let (a, b) = w.state_run(SeriesId(0), 1, 3).unwrap();
        assert_eq!((a.len(), b.len()), (2, 1));
        assert_eq!(states(&w, 1, 3), vec![Observed, Missing, Imputed]);
        assert_eq!(values(&w, 1, 3), vec![Some(3.0), None, Some(5.5)]);
        // Whole capacity, and a run ending at the oldest pushed tick.
        assert_eq!(
            states(&w, 0, 5),
            vec![Observed, Observed, Missing, Imputed, Observed]
        );
        assert_eq!(
            values(&w, 0, 5),
            vec![Some(2.0), Some(3.0), None, Some(5.5), Some(6.0)]
        );
        assert_eq!(states(&w, 3, 2), vec![Observed, Observed]);
        for len in 1..=5 {
            for age in 0..=5 - len {
                let slots: Vec<WindowSlot> = (age..age + len)
                    .rev()
                    .map(|a| w.slot_recent(SeriesId(0), a).unwrap())
                    .collect();
                let expected: Vec<SlotState> = slots.iter().map(|s| s.state).collect();
                assert_eq!(states(&w, age, len), expected, "age {age} len {len}");
                let expected: Vec<Option<f64>> = slots.iter().map(|s| s.value).collect();
                assert_eq!(values(&w, age, len), expected, "age {age} len {len}");
            }
        }
        // Past the pushed ticks, or an unknown series: an error, never a
        // stale slot.
        assert!(w.state_run(SeriesId(0), 3, 3).is_err());
        assert!(w.state_run(SeriesId(0), 0, 6).is_err());
        assert!(w.state_run(SeriesId(1), 0, 1).is_err());
    }

    /// A one-series window of length `len` fed ticks `0..n`, each observing
    /// its own timestamp as the value.
    fn pushed(len: usize, n: i64) -> StreamingWindow {
        let mut w = StreamingWindow::new(1, len);
        for t in 0..n {
            w.push_tick(&tick(t, vec![Some(t as f64)])).unwrap();
        }
        w
    }

    #[test]
    fn value_run_wraps_the_ring_seam() {
        // 7 ticks into a 5-slot ring: values 2..=6 with the newest (6) at
        // raw index 1, so a run over values 3..=5 crosses raw index 4 → 0.
        let w = pushed(5, 7);
        let (a, b) = w.value_run(SeriesId(0), 1, 3).unwrap();
        assert_eq!((a, b), (&[3.0, 4.0][..], &[5.0][..]));
        // A run entirely on one side of the seam comes back in one slice.
        let (a, b) = w.value_run(SeriesId(0), 0, 2).unwrap();
        assert_eq!((a, b), (&[5.0, 6.0][..], &[][..]));
    }

    #[test]
    fn value_run_ending_at_the_oldest_tick() {
        let w = pushed(5, 7);
        // The single oldest slot, and a run whose oldest slot is the oldest
        // pushed one.
        assert_eq!(values(&w, 4, 1), vec![Some(2.0)]);
        assert_eq!(values(&w, 2, 3), vec![Some(2.0), Some(3.0), Some(4.0)]);
    }

    #[test]
    fn value_run_never_reads_past_the_pushed_ticks() {
        // Past the pushed ticks, or an unknown series: an error, never a
        // stale slot.  An empty run at the edge is fine.
        let w = pushed(5, 7);
        assert!(w.value_run(SeriesId(0), 3, 3).is_err());
        assert!(w.value_run(SeriesId(0), 5, 1).is_err());
        assert!(w.value_run(SeriesId(0), 0, 6).is_err());
        assert!(w.value_run(SeriesId(0), usize::MAX, 2).is_err());
        assert!(w.value_run(SeriesId(1), 0, 1).is_err());
        assert_eq!(values(&w, 5, 0), vec![]);
    }

    #[test]
    fn value_run_over_the_whole_capacity_at_every_cursor() {
        for n in 5..12 {
            let w = pushed(5, n);
            assert_eq!(
                values(&w, 0, 5),
                w.series_chronological(SeriesId(0)).unwrap(),
                "n = {n}"
            );
        }
    }

    #[test]
    fn raw_rings_match_the_paper_layout() {
        // Section 6.2: after pushing 10, 20, 30 into a 3-slot window the
        // newest value lives at s[O] and the oldest at s[(O+1)%L].
        let mut w = StreamingWindow::new(1, 3);
        for (t, v) in [10.0, 20.0, 30.0].into_iter().enumerate() {
            w.push_tick(&tick(t as i64, vec![Some(v)])).unwrap();
        }
        let (o, s) = (w.offset, &w.values[0]);
        assert_eq!(s[o], 30.0);
        assert_eq!(s[(o + 1) % 3], 10.0);
        assert_eq!(s[(o + 2) % 3], 20.0);
        assert_eq!(w.times[(o + 1) % 3], Timestamp::new(0));
    }

    #[test]
    fn capacity_one_window_keeps_only_the_latest_tick() {
        let mut w = StreamingWindow::new(1, 1);
        w.push_tick(&tick(0, vec![Some(1.0)])).unwrap();
        w.push_tick(&tick(1, vec![Some(2.0)])).unwrap();
        assert_eq!(w.value_recent(SeriesId(0), 0).unwrap(), Some(2.0));
        assert_eq!(w.value_recent(SeriesId(0), 1).unwrap(), None);
        assert_eq!(values(&w, 0, 1), vec![Some(2.0)]);
        assert!(w.value_run(SeriesId(0), 0, 2).is_err());
        w.push_tick(&tick(2, vec![None])).unwrap();
        assert_eq!(values(&w, 0, 1), vec![None]);
        assert_eq!(w.series_chronological(SeriesId(0)).unwrap(), vec![None]);
    }

    #[test]
    fn state_run_on_a_window_that_is_not_full() {
        let mut w = StreamingWindow::new(1, 6);
        w.push_tick(&tick(0, vec![Some(1.0)])).unwrap();
        w.push_tick(&tick(1, vec![None])).unwrap();
        assert_eq!(
            states(&w, 0, 2),
            vec![SlotState::Observed, SlotState::Missing]
        );
        // The four never-written slots are unreachable.
        assert!(w.state_run(SeriesId(0), 0, 3).is_err());
        assert!(w.state_run(SeriesId(0), 2, 1).is_err());
    }

    #[test]
    fn value_run_on_a_window_that_is_not_full() {
        // 3 of 6 slots pushed, then a missing tick: the never-written slots
        // are unreachable even though they exist in the ring.
        let mut w = pushed(6, 3);
        w.push_tick(&tick(3, vec![None])).unwrap();
        assert_eq!(
            values(&w, 0, 4),
            vec![Some(0.0), Some(1.0), Some(2.0), None]
        );
        assert_eq!(values(&w, 1, 2), vec![Some(1.0), Some(2.0)]);
        assert!(w.value_run(SeriesId(0), 1, 4).is_err());
        assert!(w.value_run(SeriesId(0), 0, 5).is_err());
        assert!(StreamingWindow::new(1, 3)
            .value_run(SeriesId(0), 0, 1)
            .is_err());
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_length_window_panics() {
        let _ = StreamingWindow::new(1, 0);
    }
}
