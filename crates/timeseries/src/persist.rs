//! [`Snapshot`] implementations for the stream substrate.
//!
//! The durability layer (`tkcm-store`) defines the deterministic binary
//! codec; this module teaches the substrate types — the streaming window
//! with its value, provenance and timestamp rings, catalogs, fleet
//! partitions and stream ticks — to write themselves into it and to
//! reconstruct themselves *exactly* (same ring cursor, same provenance
//! bits, same `f64` bit patterns) so that a recovered engine is
//! indistinguishable from one that never stopped.
//!
//! Decoding validates structural invariants (ring cursor in range, matching
//! widths, values that agree with their provenance, ids inside the fleet)
//! on top of the store layer's checksums: checksums catch flipped bytes,
//! these checks catch a payload that was written by different code than is
//! reading it.

use tkcm_store::{Decoder, Encoder, Snapshot, StoreError};

use crate::catalog::Catalog;
use crate::errors::TsError;
use crate::partition::FleetPartition;
use crate::series::SeriesId;
use crate::stream::StreamTick;
use crate::timestamp::Timestamp;
use crate::window::{SlotState, StreamingWindow};

impl From<StoreError> for TsError {
    fn from(e: StoreError) -> Self {
        TsError::Io(e.to_string())
    }
}

impl Snapshot for Timestamp {
    fn write_into(&self, enc: &mut Encoder) -> Result<(), StoreError> {
        enc.i64(self.tick());
        Ok(())
    }

    fn read_from(dec: &mut Decoder<'_>) -> Result<Self, StoreError> {
        Ok(Timestamp::new(dec.i64()?))
    }
}

impl Snapshot for SeriesId {
    fn write_into(&self, enc: &mut Encoder) -> Result<(), StoreError> {
        enc.u32(self.0);
        Ok(())
    }

    fn read_from(dec: &mut Decoder<'_>) -> Result<Self, StoreError> {
        Ok(SeriesId(dec.u32()?))
    }
}

/// The byte a [`SlotState`] is written as.
fn state_tag(state: SlotState) -> u8 {
    match state {
        SlotState::Observed => 0,
        SlotState::Imputed => 1,
        SlotState::Missing => 2,
    }
}

/// The [`SlotState`] a byte stands for; any byte but 0, 1 or 2 is refused.
fn state_of_tag(tag: u8) -> Result<SlotState, StoreError> {
    match tag {
        0 => Ok(SlotState::Observed),
        1 => Ok(SlotState::Imputed),
        2 => Ok(SlotState::Missing),
        other => Err(StoreError::corrupt(format!("invalid slot state {other}"))),
    }
}

impl Snapshot for SlotState {
    fn write_into(&self, enc: &mut Encoder) -> Result<(), StoreError> {
        enc.u8(state_tag(*self));
        Ok(())
    }

    fn read_from(dec: &mut Decoder<'_>) -> Result<Self, StoreError> {
        state_of_tag(dec.u8()?)
    }
}

/// The window invariants both codec directions enforce, so the encoder never
/// writes a window its decoder would refuse: a slot holds NaN iff its state
/// is [`SlotState::Missing`], an observed value is finite (the window's
/// ingest policy), and the tick times fall strictly with age from the
/// current time — which also pins the cursor of a full window, whose ring
/// lengths cannot.
fn check_window(window: &StreamingWindow) -> Result<(), StoreError> {
    let times: Vec<Timestamp> = (0..window.filled())
        .filter_map(|age| window.time_of_age(age))
        .collect();
    if times.first().copied() != window.current_time || times.windows(2).any(|p| p[1] >= p[0]) {
        return Err(StoreError::invalid(
            "window tick times do not fall strictly with age from the current time",
        ));
    }
    for (series, (values, states)) in window.values.iter().zip(&window.states).enumerate() {
        for (&v, &state) in values.iter().zip(states) {
            let agrees = match state {
                SlotState::Missing => v.is_nan(),
                SlotState::Observed => v.is_finite(),
                SlotState::Imputed => !v.is_nan(),
            };
            if !agrees {
                return Err(StoreError::invalid(format!(
                    "window series {series}: value {v} disagrees with slot state {state:?}"
                )));
            }
        }
    }
    Ok(())
}

/// Reads `count` rings written by [`Encoder::fixed_seq`], one after the
/// other, each item decoded by `item`.
fn read_rings<const N: usize, T>(
    dec: &mut Decoder<'_>,
    count: usize,
    mut item: impl FnMut([u8; N]) -> Result<T, StoreError>,
) -> Result<Vec<Vec<T>>, StoreError> {
    let mut rings = Vec::with_capacity(count);
    for _ in 0..count {
        rings.push(dec.fixed_seq(&mut item)?);
    }
    Ok(rings)
}

/// The rings go through the codec's fixed-width sequences, one reservation
/// per ring, in the bytes `Vec<Vec<f64>>`, `Vec<Vec<SlotState>>` and
/// `Vec<Timestamp>` write.
impl Snapshot for StreamingWindow {
    fn write_into(&self, enc: &mut Encoder) -> Result<(), StoreError> {
        check_window(self)?;
        enc.usize(self.length);
        enc.usize(self.values.len());
        for ring in &self.values {
            enc.fixed_seq(ring.iter().map(|v| v.to_bits().to_le_bytes()));
        }
        enc.usize(self.states.len());
        for ring in &self.states {
            enc.fixed_seq(ring.iter().map(|s| [state_tag(*s)]));
        }
        enc.fixed_seq(self.times.iter().map(|t| t.tick().to_le_bytes()));
        match self.current_time {
            Some(t) => {
                enc.bool(true);
                t.write_into(enc)?;
            }
            None => enc.bool(false),
        }
        enc.usize(self.ticks_seen);
        Ok(())
    }

    fn read_from(dec: &mut Decoder<'_>) -> Result<Self, StoreError> {
        let length = dec.usize()?;
        let width = dec.seq_len()?;
        let values = read_rings(dec, width, |b| Ok(f64::from_bits(u64::from_le_bytes(b))))?;
        let series = dec.seq_len()?;
        let states = read_rings(dec, series, |[b]| state_of_tag(b))?;
        let times = dec.fixed_seq(|b| Ok(Timestamp::new(i64::from_le_bytes(b))))?;
        let current_time = if dec.bool()? {
            Some(Timestamp::read_from(dec)?)
        } else {
            None
        };
        let ticks_seen = dec.usize()?;

        if length == 0 || values.is_empty() {
            return Err(StoreError::invalid(
                "window snapshot has zero length or zero width",
            ));
        }
        // Every ring holds exactly the pushed slots, and the cursor follows
        // from the pushed count, so no ring can disagree with it.
        let filled = ticks_seen.min(length);
        if values.iter().any(|v| v.len() != filled)
            || states.len() != values.len()
            || states.iter().any(|s| s.len() != filled)
            || times.len() != filled
        {
            return Err(StoreError::invalid(
                "window snapshot rings disagree with its width or pushed ticks",
            ));
        }
        let window = StreamingWindow {
            length,
            values,
            states,
            times,
            offset: ticks_seen.checked_sub(1).map_or(0, |n| n % length),
            current_time,
            ticks_seen,
        };
        check_window(&window)?;
        Ok(window)
    }
}

impl Snapshot for StreamTick {
    fn write_into(&self, enc: &mut Encoder) -> Result<(), StoreError> {
        self.time.write_into(enc)?;
        self.values.write_into(enc)
    }

    fn read_from(dec: &mut Decoder<'_>) -> Result<Self, StoreError> {
        let time = Timestamp::read_from(dec)?;
        let values = Vec::read_from(dec)?;
        Ok(StreamTick { time, values })
    }
}

impl Snapshot for Catalog {
    fn write_into(&self, enc: &mut Encoder) -> Result<(), StoreError> {
        enc.usize(self.candidates.len());
        for (series, ranked) in &self.candidates {
            series.write_into(enc)?;
            ranked.write_into(enc)?;
        }
        Ok(())
    }

    fn read_from(dec: &mut Decoder<'_>) -> Result<Self, StoreError> {
        let entries = dec.seq_len()?;
        let mut catalog = Catalog::new();
        for _ in 0..entries {
            let series = SeriesId::read_from(dec)?;
            let ranked: Vec<SeriesId> = Vec::read_from(dec)?;
            // Route through the validating setter so a decoded catalog obeys
            // the same invariants (no self references, no duplicates) as one
            // built through the public API.
            catalog
                .set_candidates(series, ranked)
                .map_err(|e| StoreError::invalid(e.to_string()))?;
        }
        Ok(catalog)
    }
}

impl Snapshot for FleetPartition {
    fn write_into(&self, enc: &mut Encoder) -> Result<(), StoreError> {
        enc.u32(crate::partition::PARTITION_FORMAT_VERSION);
        enc.usize(self.width);
        enc.usize(self.shard_count);
        enc.u64(self.version);
        enc.usize(self.components.len());
        for members in &self.components {
            members.write_into(enc)?;
        }
        for &shard in &self.assignment {
            enc.usize(shard);
        }
        enc.usize(self.log.len());
        for migration in &self.log {
            enc.usize(migration.component);
            enc.usize(migration.from);
            enc.usize(migration.to);
            enc.u64(migration.at_tick);
        }
        Ok(())
    }

    fn read_from(dec: &mut Decoder<'_>) -> Result<Self, StoreError> {
        let layout = dec.u32()?;
        if layout != crate::partition::PARTITION_FORMAT_VERSION {
            return Err(StoreError::invalid(format!(
                "partition layout {layout} is not the supported {}",
                crate::partition::PARTITION_FORMAT_VERSION
            )));
        }
        let width = dec.usize()?;
        // Every one of the `width` series must appear in some component
        // (4 encoded bytes each), so a width beyond the remaining payload is
        // structurally impossible — reject before allocating.
        if width > dec.remaining() {
            return Err(StoreError::corrupt(format!(
                "partition claims width {width} but only {} byte(s) remain",
                dec.remaining()
            )));
        }
        let shard_count = dec.usize()?;
        let version = dec.u64()?;
        let component_count = dec.seq_len()?;
        let mut components = Vec::with_capacity(component_count);
        for _ in 0..component_count {
            components.push(Vec::<SeriesId>::read_from(dec)?);
        }
        let mut assignment = Vec::with_capacity(component_count);
        for _ in 0..component_count {
            assignment.push(dec.usize()?);
        }
        let log_len = dec.seq_len()?;
        let mut log = Vec::with_capacity(log_len);
        for _ in 0..log_len {
            log.push(crate::partition::Migration {
                component: dec.usize()?,
                from: dec.usize()?,
                to: dec.usize()?,
                at_tick: dec.u64()?,
            });
        }
        // Route through the validating constructor so a decoded partition
        // obeys the same invariants (every series assigned exactly once, in
        // range) as one built through the public API.
        FleetPartition::from_parts(width, components, assignment, shard_count, version, log)
            .map_err(|e| StoreError::invalid(e.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tkcm_store::{decode_from_slice, encode_to_vec};

    fn tick(t: i64, values: Vec<Option<f64>>) -> StreamTick {
        StreamTick::new(Timestamp::new(t), values)
    }

    fn round_trip<T: Snapshot>(value: &T) -> T {
        decode_from_slice(&encode_to_vec(value).unwrap()).unwrap()
    }

    #[test]
    fn ring_buffer_round_trips_exactly() {
        // Five readings into a 4-slot window: the value ring wraps, and the
        // cursor, the NaN of the missing slot and every bit pattern (-0.0,
        // f64::MAX) survive the round trip.
        let mut w = StreamingWindow::new(1, 4);
        for (t, v) in [Some(1.5), None, Some(-0.0), Some(f64::MAX), Some(2.0)]
            .into_iter()
            .enumerate()
        {
            w.push_tick(&tick(t as i64, vec![v])).unwrap();
        }
        let back = round_trip(&w);
        assert_eq!(back.offset, w.offset);
        assert_eq!(back.ticks_seen, w.ticks_seen);
        let bits =
            |w: &StreamingWindow| w.values[0].iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&back), bits(&w));
        assert_eq!(back.states, w.states);
        assert_eq!(
            back.series_chronological(SeriesId(0)).unwrap(),
            vec![None, Some(-0.0), Some(f64::MAX), Some(2.0)]
        );
    }

    #[test]
    fn window_round_trips_with_provenance_and_times() {
        let mut w = StreamingWindow::new(2, 3);
        w.push_tick(&tick(0, vec![Some(1.0), None])).unwrap();
        w.push_tick(&tick(600, vec![None, Some(2.0)])).unwrap();
        w.write_imputed(SeriesId(0), 0, 7.5).unwrap();
        w.push_tick(&tick(1200, vec![Some(3.0), Some(4.0)]))
            .unwrap();

        let back = round_trip(&w);
        assert_eq!(back.length(), 3);
        assert_eq!(back.width(), 2);
        assert_eq!(back.current_time(), Some(Timestamp::new(1200)));
        assert_eq!(back.ticks_seen(), 3);
        for id in [SeriesId(0), SeriesId(1)] {
            for age in 0..3 {
                assert_eq!(
                    back.slot_recent(id, age).unwrap(),
                    w.slot_recent(id, age).unwrap(),
                    "slot {id}/{age} diverged"
                );
            }
        }
        assert_eq!(back.time_of_age(1), Some(Timestamp::new(600)));
        // A fresh (never pushed) window round-trips too.
        let empty = StreamingWindow::new(1, 2);
        let back = round_trip(&empty);
        assert_eq!(back.current_time(), None);
        assert_eq!(back.ticks_seen(), 0);
    }

    #[test]
    fn window_slots_must_agree_with_their_provenance_both_ways() {
        let mut w = StreamingWindow::new(2, 3);
        w.push_tick(&tick(0, vec![Some(1.0), None])).unwrap();
        w.push_tick(&tick(1, vec![Some(2.0), Some(-0.0)])).unwrap();
        w.write_imputed(SeriesId(1), 1, 4.5).unwrap();
        let good = encode_to_vec(&w).unwrap();
        assert!(decode_from_slice::<StreamingWindow>(&good).is_ok());

        // A missing reading stored as a number, a NaN under `Observed` or
        // `Imputed`, and a non-finite observed reading: each fails to
        // encode, and the same state encoded by hand fails to decode.
        let o = w.offset;
        let bad_states: [(f64, SlotState); 4] = [
            (0.0, SlotState::Missing),
            (f64::NAN, SlotState::Observed),
            (f64::NAN, SlotState::Imputed),
            (f64::INFINITY, SlotState::Observed),
        ];
        for (value, state) in bad_states {
            let mut bad = w.clone();
            bad.values[0][o] = value;
            bad.states[0][o] = state;
            assert!(encode_to_vec(&bad).is_err(), "{value} / {state:?} encoded");
            let mut enc = Encoder::new();
            enc.usize(bad.length);
            bad.values.write_into(&mut enc).unwrap();
            bad.states.write_into(&mut enc).unwrap();
            bad.times.write_into(&mut enc).unwrap();
            enc.bool(true);
            bad.current_time.unwrap().write_into(&mut enc).unwrap();
            enc.usize(bad.ticks_seen);
            assert!(
                decode_from_slice::<StreamingWindow>(&enc.into_bytes()).is_err(),
                "{value} / {state:?} decoded"
            );
        }
        // Imputed history may be any non-NaN value.
        assert!(w.write_imputed(SeriesId(0), 0, f64::INFINITY).is_ok());
        assert!(encode_to_vec(&w).is_ok());
        assert!(w.write_imputed(SeriesId(0), 0, f64::NAN).is_err());
    }

    #[test]
    fn window_decode_refuses_rings_that_disagree_with_the_pushed_count() {
        // The cursor is not persisted: it follows from the pushed count, so
        // a count that does not match the rings is the only way to shift it.
        let mut w = StreamingWindow::new(1, 4);
        for t in 0..3 {
            w.push_tick(&tick(t, vec![Some(t as f64)])).unwrap();
        }
        // 10 ticks would be the right count for 7 more pushes: 9 and 11
        // rotate the cursor of the full ring.
        let mut full = w.clone();
        for t in 3..10 {
            full.push_tick(&tick(t, vec![Some(t as f64)])).unwrap();
        }
        assert!(decode_from_slice::<StreamingWindow>(&encode_to_vec(&full).unwrap()).is_ok());
        for (w, ticks_seen) in [(&w, 2), (&w, 4), (&w, 7), (&full, 9), (&full, 11)] {
            let mut bad = w.clone();
            bad.ticks_seen = ticks_seen;
            let mut enc = Encoder::new();
            enc.usize(bad.length);
            bad.values.write_into(&mut enc).unwrap();
            bad.states.write_into(&mut enc).unwrap();
            bad.times.write_into(&mut enc).unwrap();
            enc.bool(true);
            bad.current_time.unwrap().write_into(&mut enc).unwrap();
            enc.usize(bad.ticks_seen);
            assert!(
                decode_from_slice::<StreamingWindow>(&enc.into_bytes()).is_err(),
                "ticks_seen {ticks_seen} decoded"
            );
        }
    }

    #[test]
    fn recovered_window_accepts_further_ticks_like_the_original() {
        let mut w = StreamingWindow::new(1, 4);
        for t in 0..6i64 {
            w.push_tick(&tick(t * 10, vec![Some(t as f64)])).unwrap();
        }
        let mut back = round_trip(&w);
        w.push_tick(&tick(60, vec![Some(6.0)])).unwrap();
        back.push_tick(&tick(60, vec![Some(6.0)])).unwrap();
        for age in 0..4 {
            assert_eq!(
                back.value_recent(SeriesId(0), age).unwrap(),
                w.value_recent(SeriesId(0), age).unwrap()
            );
            assert_eq!(back.time_of_age(age), w.time_of_age(age));
        }
        // Stale ticks are still rejected.
        assert!(back.push_tick(&tick(60, vec![Some(0.0)])).is_err());
    }

    #[test]
    fn catalog_round_trips_and_validates() {
        let mut c = Catalog::new();
        c.set_candidates(SeriesId(0), vec![SeriesId(2), SeriesId(1)])
            .unwrap();
        c.set_candidates(SeriesId(2), vec![SeriesId(0)]).unwrap();
        let back = round_trip(&c);
        assert_eq!(back.candidates(SeriesId(0)), &[SeriesId(2), SeriesId(1)]);
        assert_eq!(back.candidates(SeriesId(2)), &[SeriesId(0)]);
        assert!(back.candidates(SeriesId(1)).is_empty());

        // A hand-corrupted payload with a self reference is rejected.
        let mut enc = Encoder::new();
        enc.usize(1);
        SeriesId(3).write_into(&mut enc).unwrap();
        vec![SeriesId(3)].write_into(&mut enc).unwrap();
        assert!(decode_from_slice::<Catalog>(&enc.into_bytes()).is_err());
    }

    #[test]
    fn partition_round_trips_with_locate_rebuilt() {
        let mut c = Catalog::new();
        c.set_candidates(SeriesId(0), vec![SeriesId(1)]).unwrap();
        c.set_candidates(SeriesId(2), vec![SeriesId(3)]).unwrap();
        let p = FleetPartition::new(5, &c, 3).unwrap();
        let back = round_trip(&p);
        assert_eq!(back, p);
        assert_eq!(
            back.locate(SeriesId(3)).unwrap(),
            p.locate(SeriesId(3)).unwrap()
        );
    }

    /// Hand-encodes a partition payload in the current layout: components,
    /// then one shard index per component, then an empty migration log.
    fn encode_partition(width: usize, shard_count: usize, components: &[Vec<SeriesId>]) -> Vec<u8> {
        let mut enc = Encoder::new();
        enc.u32(crate::partition::PARTITION_FORMAT_VERSION);
        enc.usize(width);
        enc.usize(shard_count);
        enc.u64(0); // live-mapping version
        enc.usize(components.len());
        for members in components {
            members.write_into(&mut enc).unwrap();
        }
        for _ in components {
            enc.usize(0); // everything on shard 0
        }
        enc.usize(0); // empty migration log
        enc.into_bytes()
    }

    #[test]
    fn partition_decode_rejects_bad_assignments() {
        // Series assigned twice.
        let twice = encode_partition(2, 1, &[vec![SeriesId(0)], vec![SeriesId(0)]]);
        assert!(decode_from_slice::<FleetPartition>(&twice).is_err());
        // Series outside the width.
        let outside = encode_partition(1, 1, &[vec![SeriesId(7)]]);
        assert!(decode_from_slice::<FleetPartition>(&outside).is_err());
        // Unassigned series.
        let missing = encode_partition(2, 1, &[vec![SeriesId(0)]]);
        assert!(decode_from_slice::<FleetPartition>(&missing).is_err());
        // Unknown layout tag.
        let mut enc = Encoder::new();
        enc.u32(crate::partition::PARTITION_FORMAT_VERSION + 1);
        assert!(decode_from_slice::<FleetPartition>(&enc.into_bytes()).is_err());
    }

    #[test]
    fn partition_round_trips_migration_log_and_version() {
        let mut c = Catalog::new();
        c.set_candidates(SeriesId(0), vec![SeriesId(1)]).unwrap();
        c.set_candidates(SeriesId(2), vec![SeriesId(3)]).unwrap();
        let mut p = FleetPartition::new(4, &c, 2).unwrap();
        p.migrate(1, 0, 12).unwrap();
        p.migrate(1, 1, 30).unwrap();
        let back = round_trip(&p);
        assert_eq!(back, p);
        assert_eq!(back.version(), 2);
        assert_eq!(back.migration_log(), p.migration_log());
        assert_eq!(back.assignment(), p.assignment());
    }

    #[test]
    fn stream_tick_round_trips() {
        let t = tick(-5, vec![Some(1.0), None, Some(f64::EPSILON)]);
        assert_eq!(round_trip(&t), t);
    }

    #[test]
    fn slot_state_rejects_unknown_tags() {
        let mut dec = Decoder::new(&[3]);
        assert!(SlotState::read_from(&mut dec).is_err());
    }

    #[test]
    fn store_errors_convert_to_ts_errors() {
        let e: TsError = StoreError::corrupt("wal record 2").into();
        assert!(e.to_string().contains("wal record 2"));
    }
}
