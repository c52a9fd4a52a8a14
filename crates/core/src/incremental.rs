//! Incremental maintenance of the dissimilarity array `D` (Section 6.2),
//! for the shortlisted candidate lags of the composed path.
//!
//! The naive implementation of Algorithm 1 recomputes every `D[j]` from
//! scratch at each imputation: `O(L·l·d)` work per missing value, which the
//! Section 7.4 breakdown shows is ~94 % of TKCM's runtime.  Section 6.2
//! observes that `D` can instead be *maintained* as the window slides.
//!
//! # The update equations
//!
//! Index candidates by their **lag** `a = t_n − t_j` (the age of the anchor
//! relative to the current time, `l ≤ a ≤ L − l`).  The squared L2
//! dissimilarity of Definition 2 between the candidate pattern `P(t_n − a)`
//! and the query pattern `P(t_n)` decomposes into per-column contributions:
//!
//! ```text
//! D²[a](t_n) = Σ_{i=0}^{l−1}  c(t_n − i, a)
//! c(t, a)    = Σ_{r ∈ R}      ( r(t − a) − r(t) )²
//! ```
//!
//! The key property: when the tick `t_{n+1}` arrives, the candidate at lag
//! `a` *and* the query both slide forward by one tick, so `l − 1` of the `l`
//! column contributions are shared and the sliding aggregate update is
//!
//! ```text
//! D²[a](t_{n+1}) = D²[a](t_n)  +  c(t_{n+1}, a)        (new column enters)
//!                              −  c(t_{n+1} − l, a)    (old column expires)
//! ```
//!
//! — `O(d)` work per maintained lag per tick
//! ([`ShortlistMaintainer::advance`]).  Missing values are handled by
//! carrying the *observed pair count* alongside each running sum: a pair
//! contributes only when both the candidate and the query slot are present,
//! exactly mirroring [`crate::dissimilarity::l2_components`].  Slots whose
//! state changes after the fact (missing → imputed via write-back) are
//! patched through the [`ShortlistMaintainer::on_write`] invalidation hook.
//!
//! The composed path maintains these aggregates only for the lags that
//! recently survived a shortlist, and uses them as certified *lower bounds*
//! — never as dissimilarities: every `D` that enters anchor selection is
//! still computed by the exact fold, which keeps the engine bit-identical to
//! the exhaustive path.  Floating-point drift from the add/subtract cycle is
//! tracked per entry as an error radius and reset whenever an entry is
//! re-seeded from an exact evaluation.

use tkcm_timeseries::{SeriesId, StreamingWindow, Timestamp, TsError};

/// Per-float-update relative slack accrued into a maintained entry's error
/// radius.  One IEEE add/sub introduces at most `ε·|result|` of rounding and
/// the pair delta `(x−y)²` carries `O(ε)` of its own; 16 ulps per update is a
/// generous over-bound, and over-shooting the radius only *weakens* pruning
/// (the bound gets smaller), never correctness.
const ENTRY_ERR_ULP: f64 = 16.0 * f64::EPSILON;

/// Relative error radius assigned at seeding time: the seeded `sum_sq` is
/// bit-equal to the exact fold's accumulator, whose own rounding against the
/// mathematically exact sum is below `d·l·ε ≈ 5e−14` relative; `1e−12` covers
/// it with two orders of magnitude to spare.
const ENTRY_SEED_ERR: f64 = 1e-12;

/// Deflation applied when turning a maintained sum into a certified lower
/// bound, mirroring the signature index's Jensen-bound deflate.
const ENTRY_LB_DEFLATE: f64 = 1.0 - 1e-9;

/// Certified lower-bound state for one shortlisted candidate lag.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) struct ShortlistEntry {
    /// Running Σ of squared differences over observed pairs, maintained by
    /// the Section 6.2 sliding updates.  Seeded bit-equal to the exact fold;
    /// drifts only by tracked float rounding.
    pub(crate) sum_sq: f64,
    /// Conservative radius on `|sum_sq − exact fold|`, accrued per float
    /// update and reset whenever the entry is re-seeded from an exact
    /// evaluation.  `sum_sq − err` is a certified admissible lower bound.
    pub(crate) err: f64,
    /// Number of observed pairs (integer-exact — trusted absolutely, so
    /// `observed ≠ total` proves `D = +∞` without evaluation).
    pub(crate) observed: u32,
    /// Maintainer tick at which the entry last earned its keep (seeded,
    /// re-seeded, or used to prune); entries idle past the TTL are evicted.
    pub(crate) last_hit: u64,
}

/// Lower-bound verdict from a maintained shortlist entry.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MaintainedBound {
    /// Certified admissible lower bound on the candidate's unscaled
    /// `sum_sq` (hence on `D²`, since the Definition 2 rescale is ≥ 1).
    pub lb_sq: f64,
    /// `true` when the integer pair count proves a missing pair: the exact
    /// path would return `D = +∞` *exactly*.
    pub certain_missing: bool,
}

/// Sparse sliding aggregates for the *shortlisted* candidate lags only, out
/// of the `J = L − 2l + 1` candidate lags of a full window.
///
/// The composed imputation path ([`crate::imputer::TkcmImputer::impute_composed`])
/// seeds an entry whenever it exact-evaluates a candidate, from the exact
/// fold's own `(sum_sq, observed)` components, so re-admission of a pruned
/// lag costs nothing beyond the exact evaluation the path was going to do
/// anyway — and the re-seeded aggregates are *bit-identical* to the exact
/// fold by construction (the shortlist-maintenance invariant recorded in
/// ROADMAP.md).  Between seedings the entry slides with the window at O(d)
/// per tick, carrying a conservative rounding-error radius `err` so that
/// `sum_sq − err` stays a certified admissible lower bound on the exact
/// fold's value; the bound is *never* used as a dissimilarity — every `D`
/// that enters anchor selection is still computed by the exact fold.
#[derive(Clone, Debug)]
pub struct ShortlistMaintainer {
    // `pub(crate)` for the snapshot codec: recovered entries must keep their
    // exact accumulated bits (and error radii) so a recovered engine prunes
    // exactly like the live one did.
    pub(crate) references: Vec<SeriesId>,
    pub(crate) pattern_length: usize,
    pub(crate) window_length: usize,
    /// Active entries keyed by lag.  A BTreeMap so iteration (and snapshot
    /// encoding) order is deterministic.
    pub(crate) entries: std::collections::BTreeMap<u32, ShortlistEntry>,
    /// Per-reference value at age `L − 1` after the last sync point: the slot
    /// the ring buffer will evict on the next push.  Needed because the
    /// expiring column of the maximum lag (`a = L − l`) reaches age `L`,
    /// which is no longer addressable after the push.
    pub(crate) prev_oldest: Vec<Option<f64>>,
    /// Window time of the last sync.
    pub(crate) last_time: Option<Timestamp>,
    /// Advances seen; the clock for `last_hit` TTLs.
    pub(crate) ticks: u64,
}

impl ShortlistMaintainer {
    /// Creates an empty maintainer for the given reference set.
    pub fn new(
        references: Vec<SeriesId>,
        pattern_length: usize,
        window_length: usize,
    ) -> Result<Self, TsError> {
        if references.is_empty() {
            return Err(TsError::invalid(
                "references",
                "shortlist state needs at least one reference series",
            ));
        }
        if pattern_length == 0 {
            return Err(TsError::invalid("l", "pattern length must be positive"));
        }
        if window_length < 2 * pattern_length {
            return Err(TsError::invalid(
                "L",
                "window must hold the query pattern plus one candidate (L >= 2l)",
            ));
        }
        let width = references.len();
        Ok(ShortlistMaintainer {
            references,
            pattern_length,
            window_length,
            entries: std::collections::BTreeMap::new(),
            prev_oldest: vec![None; width],
            last_time: None,
            ticks: 0,
        })
    }

    /// The reference series the state is maintained for.
    pub fn references(&self) -> &[SeriesId] {
        &self.references
    }

    /// The pattern length `l` the state is maintained for.
    pub fn pattern_length(&self) -> usize {
        self.pattern_length
    }

    /// The window length `L` the state is maintained for.
    pub fn window_length(&self) -> usize {
        self.window_length
    }

    /// Whether the state is in lock-step with the window.
    pub fn is_synced(&self, window: &StreamingWindow) -> bool {
        self.last_time.is_some() && self.last_time == window.current_time()
    }

    /// Number of lags currently carrying a maintained entry.
    pub fn maintained_lags(&self) -> usize {
        self.entries.len()
    }

    /// One sliding-aggregate update per entry + the delta's own rounding,
    /// tracked into the error radius.
    fn apply(entry: &mut ShortlistEntry, delta: f64, enter: bool) {
        if enter {
            entry.sum_sq += delta;
            entry.observed += 1;
        } else {
            entry.sum_sq -= delta;
            entry.observed = entry.observed.saturating_sub(1);
        }
        entry.err += (entry.sum_sq.abs() + delta.abs()) * ENTRY_ERR_ULP;
    }

    /// Slides every active entry forward by one tick (O(d) per entry).  When
    /// the state is not exactly one tick behind the window the entries are
    /// dropped instead — they re-seed lazily from the next imputation's exact
    /// evaluations, so a desync costs exactly what a cold start costs.
    pub fn advance(&mut self, window: &StreamingWindow) -> Result<(), TsError> {
        let now = window
            .current_time()
            .ok_or_else(|| TsError::invalid("window", "no tick has been pushed yet"))?;
        let one_step = self.last_time.is_some() && window.time_of_age(1) == self.last_time;
        self.ticks += 1;
        if !one_step {
            self.entries.clear();
        } else if !self.entries.is_empty() {
            let l = self.pattern_length;
            for (ri, &r) in self.references.iter().enumerate() {
                let buf = window.buffer(r)?;
                let y_new = buf.recent(0);
                let y_old = buf.recent(l);
                let evicted = self.prev_oldest[ri];
                for (&lag, entry) in self.entries.iter_mut() {
                    let lag = lag as usize;
                    if let (Some(x), Some(y)) = (buf.recent(lag), y_new) {
                        Self::apply(entry, (x - y) * (x - y), true);
                    }
                    let x = if lag + l == self.window_length {
                        evicted
                    } else {
                        buf.recent(lag + l)
                    };
                    if let (Some(x), Some(y)) = (x, y_old) {
                        Self::apply(entry, (x - y) * (x - y), false);
                    }
                }
            }
            // TTL ~ l/2: an entry costs ~2d flops per tick to slide but
            // saves at most one O(d·l) exact fold when it prunes, so it
            // stops paying for itself after roughly l/2 idle ticks — past
            // that, lazy re-admission (one exact fold) is cheaper than the
            // accumulated slides.  Entries that keep earning their keep are
            // re-hit (seeded or touched) every imputation and never expire;
            // the floor keeps tiny-l maintainers from thrashing across the
            // short gaps inside one outage burst.
            let ttl = (self.pattern_length / 2).max(8) as u64;
            let ticks = self.ticks;
            self.entries
                .retain(|_, e| ticks.saturating_sub(e.last_hit) <= ttl);
        }
        self.snapshot_oldest(window)?;
        self.last_time = Some(now);
        Ok(())
    }

    /// Invalidation hook for a value written into the window after the fact
    /// (`StreamingWindow::write_imputed`): patches every maintained entry
    /// that paired against the changed slot.
    ///
    /// `age` is the age the value was written at and `old` the slot's value
    /// *before* the write (`None` for the usual missing → imputed
    /// transition).  Writes to series outside the reference set are ignored
    /// — anchor eligibility is re-read from the window at imputation time
    /// and needs no state.
    pub fn on_write(
        &mut self,
        window: &StreamingWindow,
        series: SeriesId,
        age: usize,
        old: Option<f64>,
    ) -> Result<(), TsError> {
        let Some(ri) = self.references.iter().position(|&r| r == series) else {
            return Ok(());
        };
        if !self.is_synced(window) {
            // The entries describe an older window snapshot, so the write
            // can't be patched in coherently.  Drop the sync point and every
            // entry: a merely one-tick-behind state would otherwise slide on
            // the next advance() and carry the unpatched slot.
            self.entries.clear();
            self.last_time = None;
            return Ok(());
        }
        let l = self.pattern_length;
        let buf = window.buffer(series)?;
        let new = buf.recent(age);
        if new == old {
            return Ok(());
        }
        // Query-side usage: column `age` of the query pairs against every
        // maintained lag, but only while `age < l`.
        if age < l {
            for (&lag, entry) in self.entries.iter_mut() {
                let x = buf.recent(lag as usize + age);
                if let (Some(x), Some(y)) = (x, old) {
                    Self::apply(entry, (x - y) * (x - y), false);
                }
                if let (Some(x), Some(y)) = (x, new) {
                    Self::apply(entry, (x - y) * (x - y), true);
                }
            }
        }
        // Candidate-side usage: the slot is the candidate value of lag
        // `age − q` paired against query column at age `q < l`.
        for q in 0..l.min(age + 1) {
            let lag = age - q;
            if lag < l || lag > self.window_length - l {
                continue;
            }
            let Some(entry) = self.entries.get_mut(&(lag as u32)) else {
                continue;
            };
            let y = buf.recent(q);
            if let (Some(x), Some(y)) = (old, y) {
                Self::apply(entry, (x - y) * (x - y), false);
            }
            if let (Some(x), Some(y)) = (new, y) {
                Self::apply(entry, (x - y) * (x - y), true);
            }
        }
        if age == self.window_length - 1 {
            self.prev_oldest[ri] = new;
        }
        Ok(())
    }

    /// (Re-)seeds the entry at `lag` from an exact evaluation's components:
    /// `sum_sq` bit-equal to the exact fold's accumulator, `observed` its
    /// pair count.  Resets the error radius to the seed slack.
    pub fn seed(&mut self, lag: usize, sum_sq: f64, observed: u32) {
        if lag < self.pattern_length || lag > self.window_length - self.pattern_length {
            return;
        }
        let lag32 = lag as u32;
        // Cap the shortlist so a cold-start exhaustive sweep cannot bloat
        // the per-tick advance to O(J·d); refreshing an existing entry is
        // always allowed, so hot lags never bounce off the cap.
        if self.entries.len() >= self.max_entries() && !self.entries.contains_key(&lag32) {
            return;
        }
        let last_hit = self.ticks;
        self.entries.insert(
            lag32,
            ShortlistEntry {
                sum_sq,
                err: sum_sq.abs() * ENTRY_SEED_ERR,
                observed,
                last_hit,
            },
        );
    }

    /// Shortlist capacity: generous for the composed path's k-seeding and
    /// survivor re-seeding, but far below J at paper scale.
    fn max_entries(&self) -> usize {
        (32 * self.pattern_length).max(1024)
    }

    /// The certified bound for `lag`, if an entry is maintained there.
    pub fn bound(&self, lag: usize) -> Option<MaintainedBound> {
        let lag32 = u32::try_from(lag).ok()?;
        let entry = self.entries.get(&lag32)?;
        let total = (self.references.len() * self.pattern_length) as u32;
        Some(MaintainedBound {
            lb_sq: (entry.sum_sq - entry.err).max(0.0) * ENTRY_LB_DEFLATE,
            certain_missing: entry.observed != total,
        })
    }

    /// Marks the entry at `lag` as useful (its bound pruned the candidate or
    /// fed τ-seeding), refreshing its TTL.
    pub fn touch(&mut self, lag: usize) {
        let ticks = self.ticks;
        if let Ok(lag32) = u32::try_from(lag) {
            if let Some(e) = self.entries.get_mut(&lag32) {
                e.last_hit = ticks;
            }
        }
    }

    /// Maintained lags in ascending order of their (approximate) `sum_sq` —
    /// the τ-seeding order of the composed path.  Ties break by lag so the
    /// order is deterministic.
    pub fn lags_by_sum(&self) -> Vec<usize> {
        let mut lags: Vec<(f64, u32)> = self
            .entries
            .iter()
            .map(|(&lag, e)| (e.sum_sq, lag))
            .collect();
        lags.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        lags.into_iter().map(|(_, lag)| lag as usize).collect()
    }

    /// Verifies the state is usable for an imputation over `window` with the
    /// given reference set and pattern length.
    pub fn ensure_compatible(
        &self,
        window: &StreamingWindow,
        references: &[SeriesId],
        pattern_length: usize,
    ) -> Result<(), TsError> {
        if self.references != references {
            return Err(TsError::invalid(
                "references",
                "shortlist state was built for a different reference set",
            ));
        }
        if self.pattern_length != pattern_length {
            return Err(TsError::invalid(
                "config",
                "shortlist state was built for a different configuration",
            ));
        }
        if self.window_length != window.length() {
            return Err(TsError::invalid(
                "L",
                "shortlist state was built for a different window length",
            ));
        }
        if !self.is_synced(window) {
            return Err(TsError::invalid(
                "state",
                "shortlist state is out of sync with the window; call advance() after every push_tick",
            ));
        }
        Ok(())
    }

    fn snapshot_oldest(&mut self, window: &StreamingWindow) -> Result<(), TsError> {
        for (ri, &r) in self.references.iter().enumerate() {
            self.prev_oldest[ri] = window.value_recent(r, self.window_length - 1)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tkcm_timeseries::StreamTick;

    /// Seeds every candidate lag of a full window from the exact fold, the
    /// way the composed path seeds the lags it evaluates.
    fn seed_all(sm: &mut ShortlistMaintainer, window: &StreamingWindow, refs: &[SeriesId]) {
        let l = sm.pattern_length();
        for lag in l..=(window.filled() - l) {
            let (sum_sq, observed) = exact_components(window, refs, l, lag);
            sm.seed(lag, sum_sq, observed);
        }
    }

    /// Refreshes every entry's TTL without re-seeding it, so the sums keep
    /// sliding and the assertions below test the slide, not the seed.
    fn touch_all(sm: &mut ShortlistMaintainer) {
        let lags: Vec<u32> = sm.entries.keys().copied().collect();
        for lag in lags {
            sm.touch(lag as usize);
        }
    }

    /// Every maintained entry must track a from-scratch fold over the
    /// *current* window: the pair count exactly, the sum to float
    /// tolerance, and the certified bound from below.
    fn assert_entries_match(sm: &ShortlistMaintainer, window: &StreamingWindow, refs: &[SeriesId]) {
        let l = sm.pattern_length();
        let total = (refs.len() * l) as u32;
        for (&lag, entry) in &sm.entries {
            let lag = lag as usize;
            let (exact_sq, observed) = exact_components(window, refs, l, lag);
            assert_eq!(entry.observed, observed, "lag {lag}: pair count drifted");
            assert!(
                (entry.sum_sq - exact_sq).abs() <= 1e-9 * (1.0 + exact_sq.abs()),
                "lag {lag}: maintained {} vs exact {exact_sq}",
                entry.sum_sq
            );
            let bound = sm.bound(lag).unwrap();
            assert!(bound.lb_sq <= exact_sq, "lag {lag}: bound above exact");
            assert_eq!(
                bound.certain_missing,
                observed != total,
                "lag {lag}: missing-pair verdict"
            );
        }
    }

    #[test]
    fn advance_tracks_from_scratch_on_a_clean_stream() {
        let width = 2;
        let capacity = 24;
        let l = 3;
        let refs = vec![SeriesId(0), SeriesId(1)];
        let mut window = StreamingWindow::new(width, capacity);
        let mut sm = ShortlistMaintainer::new(refs.clone(), l, capacity).unwrap();
        // Run for 3 full window lengths so the ring wraps repeatedly; every
        // lag is seeded once the window is full and then only slides.
        for t in 0..(3 * capacity) {
            let v0 = (t as f64 * 0.7).sin() * 10.0;
            let v1 = (t as f64 * 0.7 + 1.0).cos() * 5.0;
            window
                .push_tick(&StreamTick::new(
                    Timestamp::new(t as i64),
                    vec![Some(v0), Some(v1)],
                ))
                .unwrap();
            sm.advance(&window).unwrap();
            touch_all(&mut sm);
            if t + 1 == capacity {
                seed_all(&mut sm, &window, &refs);
            }
            assert_entries_match(&sm, &window, &refs);
        }
        assert!(sm.is_synced(&window));
        assert_eq!(sm.maintained_lags(), capacity - 2 * l + 1);
    }

    #[test]
    fn advance_handles_missing_values_in_both_modes() {
        let capacity = 20;
        let l = 2;
        let refs = vec![SeriesId(0), SeriesId(1)];
        let mut window = StreamingWindow::new(2, capacity);
        let mut sm = ShortlistMaintainer::new(refs.clone(), l, capacity).unwrap();
        for t in 0..(3 * capacity) {
            // Deterministic sprinkle of missing values on both series.
            let v0 = if t % 7 == 3 { None } else { Some(t as f64) };
            let v1 = if t % 5 == 1 { None } else { Some(-(t as f64)) };
            window
                .push_tick(&StreamTick::new(Timestamp::new(t as i64), vec![v0, v1]))
                .unwrap();
            sm.advance(&window).unwrap();
            touch_all(&mut sm);
            if t + 1 == capacity {
                seed_all(&mut sm, &window, &refs);
            }
            assert_entries_match(&sm, &window, &refs);
        }
        assert_eq!(sm.maintained_lags(), capacity - 2 * l + 1);
    }

    #[test]
    fn on_write_patches_current_tick_writes() {
        let capacity = 16;
        let l = 2;
        let refs = vec![SeriesId(0), SeriesId(1)];
        let mut window = StreamingWindow::new(2, capacity);
        let mut sm = ShortlistMaintainer::new(refs.clone(), l, capacity).unwrap();
        for t in 0..(3 * capacity) {
            let missing = t % 3 == 2;
            let v0 = if missing {
                None
            } else {
                Some((t as f64).sin())
            };
            window
                .push_tick(&StreamTick::new(
                    Timestamp::new(t as i64),
                    vec![v0, Some((t as f64).cos())],
                ))
                .unwrap();
            sm.advance(&window).unwrap();
            touch_all(&mut sm);
            if missing {
                // Imputed write-back at age 0, exactly as the engine does it.
                window.write_imputed(SeriesId(0), 0, 0.25).unwrap();
                sm.on_write(&window, SeriesId(0), 0, None).unwrap();
            }
            if t + 1 == capacity {
                seed_all(&mut sm, &window, &refs);
            }
            assert_entries_match(&sm, &window, &refs);
        }
        assert_eq!(sm.maintained_lags(), capacity - 2 * l + 1);
    }

    #[test]
    fn on_write_patches_historical_writes() {
        let capacity = 16;
        let l = 3;
        let refs = vec![SeriesId(0)];
        let mut window = StreamingWindow::new(1, capacity);
        let mut sm = ShortlistMaintainer::new(refs.clone(), l, capacity).unwrap();
        for t in 0..capacity {
            // Missing at ticks 0, 1, 5, 9, 13 → ages 15, 14, 10, 6, 2 at the
            // end of the loop: historical gaps on both the query side
            // (age < l), the candidate side, and the about-to-evict slot
            // (age L−1, which exercises the snapshot refresh).
            let v = if t % 4 == 1 || t == 0 {
                None
            } else {
                Some(t as f64 * 0.5)
            };
            window
                .push_tick(&StreamTick::new(Timestamp::new(t as i64), vec![v]))
                .unwrap();
            sm.advance(&window).unwrap();
        }
        seed_all(&mut sm, &window, &refs);
        for age in [2usize, 6, 10, 14, capacity - 1] {
            let old = window.value_recent(SeriesId(0), age).unwrap();
            assert!(old.is_none(), "age {age} expected to be a gap");
            window.write_imputed(SeriesId(0), age, 7.25).unwrap();
            sm.on_write(&window, SeriesId(0), age, old).unwrap();
            assert_entries_match(&sm, &window, &refs);
        }
        // A few more ticks: the backfilled oldest slot must be dropped from
        // the sums with its *written* value (snapshot path).
        for t in capacity..(capacity + 4) {
            window
                .push_tick(&StreamTick::new(
                    Timestamp::new(t as i64),
                    vec![Some(t as f64 * 0.5)],
                ))
                .unwrap();
            sm.advance(&window).unwrap();
            assert_entries_match(&sm, &window, &refs);
        }
        assert_eq!(sm.maintained_lags(), capacity - 2 * l + 1);
    }

    #[test]
    fn writes_to_non_reference_series_are_ignored() {
        let capacity = 12;
        let refs = vec![SeriesId(1)];
        let mut window = StreamingWindow::new(2, capacity);
        let mut sm = ShortlistMaintainer::new(refs.clone(), 2, capacity).unwrap();
        for t in 0..capacity {
            let v0 = if t + 1 == capacity { None } else { Some(1.0) };
            window
                .push_tick(&StreamTick::new(
                    Timestamp::new(t as i64),
                    vec![v0, Some(t as f64)],
                ))
                .unwrap();
            sm.advance(&window).unwrap();
        }
        seed_all(&mut sm, &window, &refs);
        let before = sm.clone();
        window.write_imputed(SeriesId(0), 0, 9.0).unwrap();
        sm.on_write(&window, SeriesId(0), 0, None).unwrap();
        assert_eq!(before.entries, sm.entries);
        assert_eq!(before.prev_oldest, sm.prev_oldest);
        assert!(sm.is_synced(&window));
        assert_entries_match(&sm, &window, &refs);
    }

    #[test]
    fn advance_stays_incremental_on_non_unit_cadence() {
        // Ticks 600 timestamp units apart (a 10-minute cadence at second
        // resolution): the one-step detection must still slide the entries,
        // not treat every tick as a desync that drops them.
        let capacity = 16;
        let l = 2;
        let refs = vec![SeriesId(0), SeriesId(1)];
        let mut window = StreamingWindow::new(2, capacity);
        let mut sm = ShortlistMaintainer::new(refs.clone(), l, capacity).unwrap();
        for t in 0..(2 * capacity) {
            window
                .push_tick(&StreamTick::new(
                    Timestamp::new(t as i64 * 600),
                    vec![Some((t as f64 * 0.7).sin()), Some((t as f64 * 0.9).cos())],
                ))
                .unwrap();
            sm.advance(&window).unwrap();
            touch_all(&mut sm);
            if t + 1 == capacity {
                seed_all(&mut sm, &window, &refs);
            }
            if t + 1 >= capacity {
                // A desync would have cleared every entry.
                assert_eq!(sm.maintained_lags(), capacity - 2 * l + 1, "tick {t}");
            }
            assert_entries_match(&sm, &window, &refs);
        }
    }

    /// From-scratch unscaled components at one lag, reference-major and
    /// chronological — the exact fold the composed path's
    /// `evaluate_and_seed` computes, used as ground truth for the entries.
    fn exact_components(
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

    #[test]
    fn shortlist_entries_stay_certified_lower_bounds() {
        // Seed entries from exact components, slide for many ticks with
        // gaps and write-backs, and assert the invariant the composed path
        // relies on: the bound never exceeds the exact fold's sum_sq, and the
        // integer pair count matches from-scratch exactly.
        let capacity = 32;
        let l = 4;
        let refs = vec![SeriesId(0), SeriesId(1)];
        let mut window = StreamingWindow::new(2, capacity);
        let mut sm = ShortlistMaintainer::new(refs.clone(), l, capacity).unwrap();
        let total = (refs.len() * l) as u32;
        for t in 0..(4 * capacity) {
            let v0 = if t % 9 == 4 {
                None
            } else {
                Some((t as f64 * 0.61).sin() * 7.0)
            };
            let v1 = if t % 13 == 6 {
                None
            } else {
                Some((t as f64 * 0.43).cos() * 3.0)
            };
            window
                .push_tick(&StreamTick::new(Timestamp::new(t as i64), vec![v0, v1]))
                .unwrap();
            sm.advance(&window).unwrap();
            if t % 9 == 4 {
                // Engine-style write-back at age 0.
                window.write_imputed(SeriesId(0), 0, 1.25).unwrap();
                sm.on_write(&window, SeriesId(0), 0, None).unwrap();
            }
            let filled = window.filled();
            if filled < 2 * l {
                continue;
            }
            // Seed a spread of lags on some ticks only, so other ticks
            // exercise multi-tick sliding between seedings.
            if t % 5 == 0 {
                for lag in [l, l + 3, filled - l] {
                    let (sum_sq, observed) = exact_components(&window, &refs, l, lag);
                    sm.seed(lag, sum_sq, observed);
                }
            }
            for lag in l..=(filled - l) {
                let Some(bound) = sm.bound(lag) else { continue };
                let (exact_sq, observed) = exact_components(&window, &refs, l, lag);
                assert!(
                    bound.lb_sq <= exact_sq,
                    "tick {t} lag {lag}: lb {} > exact {exact_sq}",
                    bound.lb_sq
                );
                assert_eq!(
                    bound.certain_missing,
                    observed != total,
                    "tick {t} lag {lag}: pair count drifted"
                );
            }
        }
        assert!(sm.maintained_lags() > 0);
    }

    #[test]
    fn shortlist_desync_and_unsynced_write_drop_entries() {
        let capacity = 16;
        let l = 3;
        let refs = vec![SeriesId(0)];
        let mut window = StreamingWindow::new(1, capacity);
        let mut sm = ShortlistMaintainer::new(refs.clone(), l, capacity).unwrap();
        for t in 0..capacity {
            window
                .push_tick(&StreamTick::new(
                    Timestamp::new(t as i64),
                    vec![Some(t as f64)],
                ))
                .unwrap();
            sm.advance(&window).unwrap();
        }
        sm.seed(l, 1.0, l as u32);
        assert_eq!(sm.maintained_lags(), 1);
        // Push without advancing, then write: the unsynced write must clear.
        window
            .push_tick(&StreamTick::new(
                Timestamp::new(capacity as i64),
                vec![None],
            ))
            .unwrap();
        window.write_imputed(SeriesId(0), 0, 2.0).unwrap();
        sm.on_write(&window, SeriesId(0), 0, None).unwrap();
        assert_eq!(sm.maintained_lags(), 0);
        assert!(!sm.is_synced(&window));
        // A later advance resyncs with no entries (they re-seed lazily).
        window
            .push_tick(&StreamTick::new(
                Timestamp::new(capacity as i64 + 1),
                vec![Some(1.0)],
            ))
            .unwrap();
        sm.advance(&window).unwrap();
        assert!(sm.is_synced(&window));
        assert_eq!(sm.maintained_lags(), 0);
        // Skipped advances: an advance more than one tick behind drops the
        // entries instead of sliding them past the missed ticks, and
        // resyncs; re-seeding then matches the exact fold again.
        sm.seed(l, 1.0, l as u32);
        for t in (capacity + 2)..(capacity + 5) {
            window
                .push_tick(&StreamTick::new(
                    Timestamp::new(t as i64),
                    vec![Some(t as f64)],
                ))
                .unwrap();
        }
        sm.advance(&window).unwrap();
        assert!(sm.is_synced(&window));
        assert_eq!(sm.maintained_lags(), 0);
        seed_all(&mut sm, &window, &refs);
        assert_entries_match(&sm, &window, &refs);
    }

    #[test]
    fn shortlist_ttl_evicts_idle_entries() {
        let capacity = 12;
        let l = 2;
        let refs = vec![SeriesId(0)];
        let mut window = StreamingWindow::new(1, capacity);
        let mut sm = ShortlistMaintainer::new(refs.clone(), l, capacity).unwrap();
        let mut t = 0i64;
        let mut push = |window: &mut StreamingWindow, sm: &mut ShortlistMaintainer| {
            window
                .push_tick(&StreamTick::new(Timestamp::new(t), vec![Some(t as f64)]))
                .unwrap();
            sm.advance(window).unwrap();
            t += 1;
        };
        for _ in 0..capacity {
            push(&mut window, &mut sm);
        }
        sm.seed(l, 0.5, l as u32);
        sm.seed(l + 1, 0.5, l as u32);
        // Keep touching one entry; the other must age out after L idle ticks.
        for _ in 0..(capacity + 2) {
            push(&mut window, &mut sm);
            sm.touch(l);
        }
        assert!(sm.bound(l).is_some(), "touched entry evicted");
        assert!(sm.bound(l + 1).is_none(), "idle entry kept past TTL");
    }

    #[test]
    fn shortlist_lags_by_sum_orders_ascending() {
        let mut sm = ShortlistMaintainer::new(vec![SeriesId(0)], 2, 12).unwrap();
        sm.seed(4, 9.0, 2);
        sm.seed(2, 1.0, 2);
        sm.seed(7, 4.0, 2);
        sm.seed(3, 4.0, 2);
        assert_eq!(sm.lags_by_sum(), vec![2, 3, 7, 4]);
    }

    #[test]
    fn shortlist_constructor_and_compatibility_checks() {
        assert!(ShortlistMaintainer::new(vec![], 2, 8).is_err());
        assert!(ShortlistMaintainer::new(vec![SeriesId(0)], 0, 8).is_err());
        assert!(ShortlistMaintainer::new(vec![SeriesId(0)], 5, 8).is_err());
        let capacity = 12;
        let mut window = StreamingWindow::new(2, capacity);
        let mut sm = ShortlistMaintainer::new(vec![SeriesId(1)], 2, capacity).unwrap();
        assert!(sm.ensure_compatible(&window, &[SeriesId(1)], 2).is_err());
        for t in 0..4 {
            window
                .push_tick(&StreamTick::new(
                    Timestamp::new(t),
                    vec![Some(1.0), Some(2.0)],
                ))
                .unwrap();
        }
        sm.advance(&window).unwrap();
        assert!(sm.ensure_compatible(&window, &[SeriesId(1)], 2).is_ok());
        assert!(sm.ensure_compatible(&window, &[SeriesId(0)], 2).is_err());
        assert!(sm.ensure_compatible(&window, &[SeriesId(1)], 3).is_err());
        // Out-of-range seeds are ignored.
        sm.seed(0, 1.0, 1);
        sm.seed(capacity, 1.0, 1);
        assert_eq!(sm.maintained_lags(), 0);
    }

    #[test]
    fn constructor_validates_parameters() {
        assert!(ShortlistMaintainer::new(vec![], 2, 8).is_err());
        assert!(ShortlistMaintainer::new(vec![SeriesId(0)], 0, 8).is_err());
        assert!(ShortlistMaintainer::new(vec![SeriesId(0)], 5, 8).is_err());
        let mut sm = ShortlistMaintainer::new(vec![SeriesId(0)], 4, 8).unwrap();
        assert_eq!(sm.pattern_length(), 4);
        assert_eq!(sm.window_length(), 8);
        assert_eq!(sm.references(), &[SeriesId(0)]);
        assert_eq!(sm.maintained_lags(), 0);
        // Seeds outside the candidate lags `l ..= L − l` are ignored.
        sm.seed(3, 1.0, 1);
        sm.seed(5, 1.0, 1);
        assert_eq!(sm.maintained_lags(), 0);
        sm.seed(4, 1.0, 1);
        assert_eq!(sm.maintained_lags(), 1);
    }

    #[test]
    fn ensure_compatible_rejects_mismatches() {
        let capacity = 12;
        let mut window = StreamingWindow::new(2, capacity);
        let mut sm = ShortlistMaintainer::new(vec![SeriesId(1)], 2, capacity).unwrap();
        // Un-synced state is rejected even with matching parameters.
        assert!(sm.ensure_compatible(&window, &[SeriesId(1)], 2).is_err());
        for t in 0..4 {
            window
                .push_tick(&StreamTick::new(
                    Timestamp::new(t),
                    vec![Some(1.0), Some(2.0)],
                ))
                .unwrap();
        }
        sm.advance(&window).unwrap();
        assert!(sm.ensure_compatible(&window, &[SeriesId(1)], 2).is_ok());
        assert!(sm.ensure_compatible(&window, &[SeriesId(0)], 2).is_err());
        assert!(sm.ensure_compatible(&window, &[SeriesId(1)], 3).is_err());
        let other = StreamingWindow::new(2, capacity + 4);
        assert!(sm.ensure_compatible(&other, &[SeriesId(1)], 2).is_err());
    }
}
