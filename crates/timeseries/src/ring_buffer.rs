//! Fixed-capacity ring buffer used for the streaming window.
//!
//! Section 6.2 of the paper: "The implementation uses one ring buffer of
//! length `L` for each time series `s` and an offset `O` into the ring
//! buffers to efficiently update the streaming window.  The value at time
//! `t_n` is located at `s[O]` and the oldest value at `s[(O+1)%L]`."
//!
//! [`RingBuffer`] reproduces exactly this layout so that the TKCM imputer
//! (`tkcm-core`) can use the same index arithmetic as Algorithm 1, while also
//! offering safer "age based" accessors (`recent(0)` = newest value).
//! Advancing the window is O(1) (Lemma 6.1).

use std::fmt;

/// Fixed-capacity circular buffer over `f64` slots that may be missing.
///
/// The buffer always holds exactly `capacity` logical slots.  Before the
/// buffer has been filled once, the not-yet-written slots read as missing
/// (`None`).
#[derive(Clone, PartialEq)]
pub struct RingBuffer {
    // `pub(crate)` so the snapshot codec (`persist`) can persist/restore the
    // exact ring layout without exposing it beyond the crate.
    pub(crate) slots: Vec<Option<f64>>,
    /// Index of the most recently written slot (the paper's offset `O`).
    pub(crate) offset: usize,
    /// Number of values pushed so far, saturating at `capacity`.
    pub(crate) filled: usize,
}

impl RingBuffer {
    /// Creates a buffer of the given capacity with every slot missing.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "ring buffer capacity must be positive");
        RingBuffer {
            slots: vec![None; capacity],
            offset: capacity - 1,
            filled: 0,
        }
    }

    /// Creates a buffer pre-filled with `values` (the last `capacity` values
    /// are kept if more are given).
    pub fn from_values(capacity: usize, values: impl IntoIterator<Item = Option<f64>>) -> Self {
        let mut rb = RingBuffer::new(capacity);
        for v in values {
            rb.push(v);
        }
        rb
    }

    /// The fixed capacity `L` of the buffer.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Number of values pushed so far, saturating at the capacity.
    pub fn len(&self) -> usize {
        self.filled
    }

    /// Whether nothing has been pushed yet.
    pub fn is_empty(&self) -> bool {
        self.filled == 0
    }

    /// Whether the buffer has wrapped at least once (i.e. holds `capacity`
    /// logical values).
    pub fn is_full(&self) -> bool {
        self.filled == self.capacity()
    }

    /// The paper's offset `O`: raw index of the newest slot.
    pub fn offset(&self) -> usize {
        self.offset
    }

    /// Pushes the value for the next time point, overwriting the oldest slot.
    ///
    /// This is the O(1) window advance of Lemma 6.1.
    pub fn push(&mut self, value: Option<f64>) {
        self.offset = (self.offset + 1) % self.capacity();
        self.slots[self.offset] = value;
        if self.filled < self.capacity() {
            self.filled += 1;
        }
    }

    /// Raw slot access using the paper's modular index arithmetic
    /// (`s[(O ± x) % L]`).  `raw_index` is taken modulo the capacity.
    pub fn raw(&self, raw_index: usize) -> Option<f64> {
        self.slots[raw_index % self.capacity()]
    }

    /// Value `age` steps in the past: `recent(0)` is the newest value,
    /// `recent(capacity-1)` the oldest.
    ///
    /// Returns `None` when the slot is missing *or* `age` exceeds the number
    /// of values pushed so far.
    pub fn recent(&self, age: usize) -> Option<f64> {
        if age >= self.filled {
            return None;
        }
        let cap = self.capacity();
        let idx = (self.offset + cap - age) % cap;
        self.slots[idx]
    }

    /// The `len` slots whose newest is `age` steps in the past, oldest first,
    /// as at most two contiguous slices (the second is non-empty only when
    /// the run wraps the ring seam).  `None` when the run reaches past the
    /// values pushed so far, so a caller never reads a stale slot.
    pub fn chronological_run(&self, age: usize, len: usize) -> Option<RunSlices<'_, Option<f64>>> {
        ring_run(&self.slots, self.offset, self.filled, age, len)
    }

    /// Overwrites the value `age` steps in the past (0 = newest).
    ///
    /// Slots that have not been pushed yet cannot be written; such writes are
    /// ignored and `false` is returned.
    pub fn set_recent(&mut self, age: usize, value: Option<f64>) -> bool {
        if age >= self.filled {
            return false;
        }
        let cap = self.capacity();
        let idx = (self.offset + cap - age) % cap;
        self.slots[idx] = value;
        true
    }

    /// Returns the window contents ordered from oldest to newest, including
    /// missing slots, but only for slots that have actually been pushed.
    pub fn to_chronological(&self) -> Vec<Option<f64>> {
        (0..self.filled)
            .rev()
            .map(|age| {
                let cap = self.capacity();
                let idx = (self.offset + cap - age) % cap;
                self.slots[idx]
            })
            .collect()
    }

    /// Iterator over ages `0..len()` yielding `(age, value)` pairs, newest first.
    pub fn iter_recent(&self) -> impl Iterator<Item = (usize, Option<f64>)> + '_ {
        (0..self.filled).map(move |age| (age, self.recent(age)))
    }

    /// Number of missing slots among the pushed values.
    pub fn missing_count(&self) -> usize {
        self.iter_recent().filter(|(_, v)| v.is_none()).count()
    }

    /// Mean of the observed values in the buffer, or `None` if none observed.
    pub fn mean(&self) -> Option<f64> {
        let mut sum = 0.0;
        let mut n = 0usize;
        for (_, v) in self.iter_recent() {
            if let Some(x) = v {
                sum += x;
                n += 1;
            }
        }
        if n == 0 {
            None
        } else {
            Some(sum / n as f64)
        }
    }
}

/// A run of ring slots in chronological order: the slots before the ring
/// seam, then the slots after it (empty unless the run wraps).
pub type RunSlices<'a, T> = (&'a [T], &'a [T]);

/// The `len` slots of a ring laid out like [`RingBuffer`] (newest at raw
/// index `offset`, `filled` slots pushed) whose newest is `age` steps back,
/// oldest first.  Shared by the value ring and the window's provenance ring.
pub(crate) fn ring_run<T>(
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
    let cap = slots.len();
    let newest = (offset + cap - age) % cap;
    let oldest = (offset + cap - (age + len - 1)) % cap;
    Some(if oldest <= newest {
        (&slots[oldest..=newest], &[])
    } else {
        (&slots[oldest..], &slots[..=newest])
    })
}

impl fmt::Debug for RingBuffer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RingBuffer")
            .field("capacity", &self.capacity())
            .field("len", &self.filled)
            .field("offset", &self.offset)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_buffer_is_all_missing() {
        let rb = RingBuffer::new(4);
        assert_eq!(rb.capacity(), 4);
        assert!(rb.is_empty());
        assert!(!rb.is_full());
        assert_eq!(rb.recent(0), None);
        assert_eq!(rb.missing_count(), 0); // nothing pushed yet
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_capacity_panics() {
        let _ = RingBuffer::new(0);
    }

    #[test]
    fn push_and_recent_track_ages() {
        let mut rb = RingBuffer::new(3);
        rb.push(Some(1.0));
        rb.push(Some(2.0));
        assert_eq!(rb.len(), 2);
        assert_eq!(rb.recent(0), Some(2.0));
        assert_eq!(rb.recent(1), Some(1.0));
        assert_eq!(rb.recent(2), None); // not yet pushed
        rb.push(Some(3.0));
        rb.push(Some(4.0)); // evicts 1.0
        assert!(rb.is_full());
        assert_eq!(rb.recent(0), Some(4.0));
        assert_eq!(rb.recent(1), Some(3.0));
        assert_eq!(rb.recent(2), Some(2.0));
        assert_eq!(rb.to_chronological(), vec![Some(2.0), Some(3.0), Some(4.0)]);
    }

    #[test]
    fn missing_values_round_trip() {
        let mut rb = RingBuffer::new(3);
        rb.push(Some(1.0));
        rb.push(None);
        rb.push(Some(3.0));
        assert_eq!(rb.missing_count(), 1);
        assert_eq!(rb.recent(1), None);
        assert!(rb.set_recent(1, Some(2.5)));
        assert_eq!(rb.recent(1), Some(2.5));
        assert_eq!(rb.missing_count(), 0);
    }

    #[test]
    fn set_recent_rejects_unpushed_slots() {
        let mut rb = RingBuffer::new(5);
        rb.push(Some(1.0));
        assert!(!rb.set_recent(3, Some(9.0)));
        assert_eq!(rb.recent(3), None);
    }

    #[test]
    fn raw_indexing_matches_paper_layout() {
        // After pushing values 10, 20, 30 into a capacity-3 buffer the newest
        // value must live at slots[offset] and the oldest at slots[(O+1)%L].
        let mut rb = RingBuffer::new(3);
        rb.push(Some(10.0));
        rb.push(Some(20.0));
        rb.push(Some(30.0));
        let o = rb.offset();
        assert_eq!(rb.raw(o), Some(30.0));
        assert_eq!(rb.raw(o + 1), Some(10.0)); // oldest
        assert_eq!(rb.raw(o + 2), Some(20.0));
    }

    /// Flattens a run into one oldest-first vector.
    fn run_vec(rb: &RingBuffer, age: usize, len: usize) -> Option<Vec<Option<f64>>> {
        rb.chronological_run(age, len)
            .map(|(a, b)| a.iter().chain(b).copied().collect())
    }

    fn pushed(capacity: usize, n: usize) -> RingBuffer {
        RingBuffer::from_values(capacity, (0..n).map(|i| Some(i as f64)))
    }

    #[test]
    fn chronological_run_wraps_the_ring_seam() {
        // 7 pushes into capacity 5: values 2..=6 with the newest (6) at raw
        // index 1, so a run over values 3..=5 crosses raw index 4 → 0.
        let rb = pushed(5, 7);
        let (a, b) = rb.chronological_run(1, 3).unwrap();
        assert_eq!(a, &[Some(3.0), Some(4.0)]);
        assert_eq!(b, &[Some(5.0)]);
        // A run entirely on one side of the seam comes back in one slice.
        let (a, b) = rb.chronological_run(0, 2).unwrap();
        assert_eq!(a, &[Some(5.0), Some(6.0)]);
        assert!(b.is_empty());
    }

    #[test]
    fn chronological_run_ending_at_the_oldest_slot() {
        let rb = pushed(5, 7);
        // The single oldest slot, and a run whose oldest slot is the oldest
        // pushed one.
        assert_eq!(run_vec(&rb, 4, 1), Some(vec![Some(2.0)]));
        assert_eq!(
            run_vec(&rb, 2, 3),
            Some(vec![Some(2.0), Some(3.0), Some(4.0)])
        );
    }

    #[test]
    fn chronological_run_over_the_whole_capacity() {
        for n in 5..12 {
            let rb = pushed(5, n);
            assert_eq!(run_vec(&rb, 0, 5), Some(rb.to_chronological()), "n = {n}");
        }
    }

    #[test]
    fn chronological_run_never_reads_past_the_pushed_values() {
        let rb = pushed(5, 7);
        assert_eq!(rb.chronological_run(3, 3), None);
        assert_eq!(rb.chronological_run(5, 1), None);
        assert_eq!(rb.chronological_run(0, 6), None);
        assert_eq!(rb.chronological_run(usize::MAX, 2), None);
        assert_eq!(run_vec(&rb, 5, 0), Some(vec![]));
    }

    #[test]
    fn chronological_run_on_a_buffer_that_is_not_full() {
        // 3 of 6 slots pushed: the never-written slots are unreachable even
        // though they exist in the ring.
        let mut rb = pushed(6, 3);
        rb.push(None);
        assert_eq!(
            run_vec(&rb, 0, 4),
            Some(vec![Some(0.0), Some(1.0), Some(2.0), None])
        );
        assert_eq!(run_vec(&rb, 1, 2), Some(vec![Some(1.0), Some(2.0)]));
        assert_eq!(rb.chronological_run(1, 4), None);
        assert_eq!(RingBuffer::new(3).chronological_run(0, 1), None);
    }

    #[test]
    fn from_values_keeps_last_capacity_values() {
        let rb = RingBuffer::from_values(3, (1..=5).map(|i| Some(i as f64)));
        assert_eq!(rb.to_chronological(), vec![Some(3.0), Some(4.0), Some(5.0)]);
    }

    #[test]
    fn mean_ignores_missing() {
        let rb = RingBuffer::from_values(4, vec![Some(1.0), None, Some(3.0)]);
        assert_eq!(rb.mean(), Some(2.0));
        let empty = RingBuffer::from_values(4, vec![None, None]);
        assert_eq!(empty.mean(), None);
    }

    #[test]
    fn debug_is_compact() {
        let rb = RingBuffer::new(2);
        let s = format!("{rb:?}");
        assert!(s.contains("capacity"));
    }

    #[test]
    fn capacity_one_buffer_keeps_only_latest() {
        let mut rb = RingBuffer::new(1);
        rb.push(Some(1.0));
        rb.push(Some(2.0));
        assert_eq!(rb.recent(0), Some(2.0));
        assert_eq!(rb.recent(1), None);
        assert_eq!(rb.to_chronological(), vec![Some(2.0)]);
    }
}
