//! [`Snapshot`] implementations for the engine layer, plus the WAL entry
//! type the runtime logs per processed tick.
//!
//! A [`crate::engine::TkcmEngine`] snapshot holds the engine's state, not
//! its caches or its telemetry: the configuration, the streaming window
//! (value rings, provenance rings, timestamp ring), the reference catalog
//! and the imputation and tick counters.  Phase durations and prune totals
//! are telemetry and stay out, so a snapshot holds only what WAL replay
//! reproduces and its bytes depend only on the ticks the engine processed.
//! Decode rebuilds the signature index from the window.  The index only
//! bounds candidates and the composed search keeps no state across
//! imputations, so loading a snapshot and replaying the logged ticks since
//! it ([`WalEntry`], applied through
//! [`crate::engine::TkcmEngine::apply_wal_entry`]) encodes to the same bytes
//! and imputes bit-identically to an engine that never crashed — the
//! recovery-equivalence property the runtime's tests pin down.

use tkcm_store::{Decoder, Encoder, Snapshot, StoreError};
use tkcm_timeseries::{Catalog, SeriesId, StreamTick, StreamingWindow};

use crate::config::TkcmConfig;
use crate::engine::TkcmEngine;

/// One write-back logged alongside the tick that produced it: the imputed
/// series and the imputed value.
#[derive(Clone, Debug, PartialEq)]
pub struct WalWriteBack {
    /// The series that was imputed.
    pub series: SeriesId,
    /// The imputed value written into the window.
    pub value: f64,
}

/// One write-ahead-log record: a processed tick plus every write-back it
/// produced, in commit order.  Replaying the record through
/// [`crate::engine::TkcmEngine::apply_wal_entry`] reproduces the engine
/// state transition without re-running pattern extraction/selection.
#[derive(Clone, Debug, PartialEq)]
pub struct WalEntry {
    /// The tick exactly as the engine received it.
    pub tick: StreamTick,
    /// The write-backs the engine committed at this tick, in order.
    pub write_backs: Vec<WalWriteBack>,
}

impl WalEntry {
    /// Builds the log record for a processed tick from the outcome the
    /// engine returned for it.
    pub fn from_outcome(tick: &StreamTick, outcome: &crate::engine::EngineOutcome) -> WalEntry {
        WalEntry {
            tick: tick.clone(),
            write_backs: outcome
                .imputations
                .iter()
                .map(|i| WalWriteBack {
                    series: i.series,
                    value: i.value,
                })
                .collect(),
        }
    }

    /// Writes the bytes of `WalEntry::from_outcome(tick, outcome)` straight
    /// from the tick and the outcome, without cloning the tick into an
    /// entry: the tick, then each imputation's series and value as a
    /// [`WalWriteBack`] writes them.
    pub fn write_outcome(
        tick: &StreamTick,
        outcome: &crate::engine::EngineOutcome,
        enc: &mut Encoder,
    ) -> Result<(), StoreError> {
        tick.write_into(enc)?;
        enc.usize(outcome.imputations.len());
        for imputation in &outcome.imputations {
            imputation.series.write_into(enc)?;
            enc.f64(imputation.value);
        }
        Ok(())
    }
}

impl Snapshot for WalWriteBack {
    fn write_into(&self, enc: &mut Encoder) -> Result<(), StoreError> {
        self.series.write_into(enc)?;
        enc.f64(self.value);
        Ok(())
    }

    fn read_from(dec: &mut Decoder<'_>) -> Result<Self, StoreError> {
        Ok(WalWriteBack {
            series: SeriesId::read_from(dec)?,
            value: dec.f64()?,
        })
    }
}

impl Snapshot for WalEntry {
    fn write_into(&self, enc: &mut Encoder) -> Result<(), StoreError> {
        self.tick.write_into(enc)?;
        self.write_backs.write_into(enc)
    }

    fn read_from(dec: &mut Decoder<'_>) -> Result<Self, StoreError> {
        Ok(WalEntry {
            tick: StreamTick::read_from(dec)?,
            write_backs: Vec::read_from(dec)?,
        })
    }
}

impl Snapshot for TkcmConfig {
    fn write_into(&self, enc: &mut Encoder) -> Result<(), StoreError> {
        enc.usize(self.window_length);
        enc.usize(self.pattern_length);
        enc.usize(self.anchor_count);
        enc.usize(self.reference_count);
        enc.bool(self.pruning);
        Ok(())
    }

    fn read_from(dec: &mut Decoder<'_>) -> Result<Self, StoreError> {
        let config = TkcmConfig {
            window_length: dec.usize()?,
            pattern_length: dec.usize()?,
            anchor_count: dec.usize()?,
            reference_count: dec.usize()?,
            pruning: dec.bool()?,
        };
        config
            .validate()
            .map_err(|e| StoreError::invalid(e.to_string()))?;
        Ok(config)
    }
}

impl Snapshot for TkcmEngine {
    fn write_into(&self, enc: &mut Encoder) -> Result<(), StoreError> {
        self.imputer.config().write_into(enc)?;
        self.window.write_into(enc)?;
        self.catalog.write_into(enc)?;
        enc.usize(self.imputation_count);
        enc.usize(self.tick_count);
        Ok(())
    }

    fn read_from(dec: &mut Decoder<'_>) -> Result<Self, StoreError> {
        let config = TkcmConfig::read_from(dec)?;
        let window = StreamingWindow::read_from(dec)?;
        if window.length() != config.window_length {
            return Err(StoreError::invalid(format!(
                "window length {} does not match the configured L = {}",
                window.length(),
                config.window_length
            )));
        }
        let catalog = Catalog::read_from(dec)?;
        let imputation_count = dec.usize()?;
        let tick_count = dec.usize()?;
        let mut engine = TkcmEngine::assemble(config, window, catalog)
            .map_err(|e| StoreError::invalid(e.to_string()))?;
        engine.imputation_count = imputation_count;
        engine.tick_count = tick_count;
        Ok(engine)
    }
}

#[cfg(test)]
mod tests {
    use std::time::Duration;

    use super::*;
    use crate::imputer::PruneStats;
    use tkcm_store::{decode_from_slice, encode_to_vec};
    use tkcm_timeseries::Timestamp;

    fn round_trip<T: Snapshot>(value: &T) -> T {
        decode_from_slice(&encode_to_vec(value).unwrap()).unwrap()
    }

    fn small_config() -> TkcmConfig {
        TkcmConfig::builder()
            .window_length(64)
            .pattern_length(3)
            .anchor_count(2)
            .reference_count(2)
            .build()
            .unwrap()
    }

    fn sine(t: usize, shift: f64) -> f64 {
        ((t as f64 - shift) / 16.0 * std::f64::consts::TAU).sin()
    }

    fn run_engine(ticks: usize) -> TkcmEngine {
        let width = 3;
        let mut engine =
            TkcmEngine::new(width, small_config(), Catalog::ring_neighbours(width)).unwrap();
        for t in 0..ticks {
            let missing = t > 40 && t % 7 == 0;
            let s0 = if missing { None } else { Some(sine(t, 0.0)) };
            let tick = StreamTick::new(
                Timestamp::new(t as i64),
                vec![s0, Some(sine(t, 3.0)), Some(sine(t, 8.0))],
            );
            engine.process_tick(&tick).unwrap();
        }
        engine
    }

    #[test]
    fn config_round_trips_and_validates() {
        let c = small_config();
        assert_eq!(round_trip(&c), c);
        // An invalid decoded configuration is rejected (L < (k+1)*l).
        let mut broken = c.clone();
        broken.window_length = 4;
        let mut enc = Encoder::new();
        // Bypass encode-side validation by writing fields manually.
        enc.usize(broken.window_length);
        enc.usize(broken.pattern_length);
        enc.usize(broken.anchor_count);
        enc.usize(broken.reference_count);
        enc.bool(broken.pruning);
        assert!(decode_from_slice::<TkcmConfig>(&enc.into_bytes()).is_err());
    }

    #[test]
    fn wal_entry_round_trips() {
        let entry = WalEntry {
            tick: StreamTick::new(Timestamp::new(42), vec![None, Some(1.25)]),
            write_backs: vec![WalWriteBack {
                series: SeriesId(0),
                value: 0.5,
            }],
        };
        assert_eq!(round_trip(&entry), entry);
    }

    #[test]
    fn engine_snapshot_restores_bit_identical_behaviour() {
        // Run an engine through imputations, snapshot it, restore, and drive
        // both with identical further ticks: outcomes and window contents
        // must match bit for bit, although the restored engine starts with a
        // rebuilt index.
        let mut original = run_engine(120);
        assert!(original.imputations_performed() > 0);
        let bytes = encode_to_vec(&original).unwrap();
        let mut restored: TkcmEngine = decode_from_slice(&bytes).unwrap();
        assert_eq!(encode_to_vec(&restored).unwrap(), bytes);
        assert_eq!(restored.ticks_processed(), original.ticks_processed());
        assert_eq!(
            restored.imputations_performed(),
            original.imputations_performed()
        );

        for t in 120..200usize {
            let missing = t % 5 == 0;
            let s0 = if missing { None } else { Some(sine(t, 0.0)) };
            let tick = StreamTick::new(
                Timestamp::new(t as i64),
                vec![s0, Some(sine(t, 3.0)), Some(sine(t, 8.0))],
            );
            let a = original.process_tick(&tick).unwrap();
            let b = restored.process_tick(&tick).unwrap();
            assert_eq!(a.imputations.len(), b.imputations.len(), "tick {t}");
            for (x, y) in a.imputations.iter().zip(b.imputations.iter()) {
                assert_eq!(x.series, y.series);
                assert_eq!(x.time, y.time);
                assert_eq!(
                    x.value.to_bits(),
                    y.value.to_bits(),
                    "tick {t}: imputed values diverged"
                );
                assert_eq!(x.detail.anchors, y.detail.anchors);
            }
            assert_eq!(a.skipped, b.skipped);
        }
    }

    #[test]
    fn a_nan_reading_does_not_block_a_checkpoint() {
        // One NaN reference reading at tick 450, inside the window of the
        // later imputations.  It is missing at ingest, so the engine imputes
        // that slot too (10 target imputations + 1).  Its signature index is
        // not persisted, so the engine still encodes, the
        // bytes decode, and the decoded engine re-encodes to the same bytes.
        let config = TkcmConfig::builder()
            .window_length(400)
            .pattern_length(8)
            .anchor_count(3)
            .reference_count(1)
            .build()
            .unwrap();
        let mut engine = TkcmEngine::new(2, config, Catalog::ring_neighbours(2)).unwrap();
        for t in 0..600usize {
            let target = if t >= 590 { None } else { Some(sine(t, 0.0)) };
            let reference = if t == 450 {
                Some(f64::NAN)
            } else {
                Some(sine(t, 3.0))
            };
            let tick = StreamTick::new(Timestamp::new(t as i64), vec![target, reference]);
            engine.process_tick(&tick).unwrap();
        }
        assert!(engine.is_composed());
        assert_eq!(engine.imputations_performed(), 11);
        let bytes = encode_to_vec(&engine).unwrap();
        let restored: TkcmEngine = decode_from_slice(&bytes).unwrap();
        assert_eq!(restored.ticks_processed(), 600);
        assert_eq!(encode_to_vec(&restored).unwrap(), bytes);
    }

    #[test]
    fn wal_replay_reproduces_live_processing() {
        // Drive a live engine and log every tick; replay the log into a
        // snapshot taken earlier; states must agree bit for bit afterwards,
        // down to the encoded bytes.
        let width = 3;
        let mut live =
            TkcmEngine::new(width, small_config(), Catalog::ring_neighbours(width)).unwrap();
        let mut snapshot_bytes = None;
        let mut log = Vec::new();
        for t in 0..160usize {
            let missing = t > 40 && t % 6 == 0;
            let s0 = if missing { None } else { Some(sine(t, 0.0)) };
            let tick = StreamTick::new(
                Timestamp::new(t as i64),
                vec![s0, Some(sine(t, 3.0)), Some(sine(t, 8.0))],
            );
            let outcome = live.process_tick(&tick).unwrap();
            let entry = WalEntry::from_outcome(&tick, &outcome);
            let mut direct = Encoder::new();
            WalEntry::write_outcome(&tick, &outcome, &mut direct).unwrap();
            assert_eq!(
                direct.into_bytes(),
                encode_to_vec(&entry).unwrap(),
                "tick {t}"
            );
            if t >= 100 {
                log.push(entry);
            }
            if t == 99 {
                snapshot_bytes = Some(encode_to_vec(&live).unwrap());
            }
        }
        let mut recovered: TkcmEngine =
            decode_from_slice(snapshot_bytes.as_ref().unwrap()).unwrap();
        for entry in &log {
            assert!(recovered.apply_wal_entry(entry).unwrap());
        }
        assert_eq!(recovered.ticks_processed(), live.ticks_processed());
        assert_eq!(
            recovered.imputations_performed(),
            live.imputations_performed()
        );
        assert_eq!(
            encode_to_vec(&recovered).unwrap(),
            encode_to_vec(&live).unwrap(),
            "the replayed engine encodes to the live engine's bytes"
        );
        // Continue both engines and compare outcomes bit for bit.
        for t in 160..220usize {
            let missing = t % 4 == 0;
            let s0 = if missing { None } else { Some(sine(t, 0.0)) };
            let tick = StreamTick::new(
                Timestamp::new(t as i64),
                vec![s0, Some(sine(t, 3.0)), Some(sine(t, 8.0))],
            );
            let a = live.process_tick(&tick).unwrap();
            let b = recovered.process_tick(&tick).unwrap();
            assert_eq!(a.imputations.len(), b.imputations.len(), "tick {t}");
            for (x, y) in a.imputations.iter().zip(b.imputations.iter()) {
                assert_eq!(x.value.to_bits(), y.value.to_bits(), "tick {t}");
            }
        }
    }

    #[test]
    fn phase_breakdown_counts_live_replayed_and_decoded_imputations() {
        let width = 3;
        let tick = |t: usize| {
            let s0 = (t <= 40 || !t.is_multiple_of(6)).then(|| sine(t, 0.0));
            StreamTick::new(
                Timestamp::new(t as i64),
                vec![s0, Some(sine(t, 3.0)), Some(sine(t, 8.0))],
            )
        };
        let mut live =
            TkcmEngine::new(width, small_config(), Catalog::ring_neighbours(width)).unwrap();
        let mut log = Vec::new();
        let mut snapshot = Vec::new();
        for t in 0..160usize {
            let outcome = live.process_tick(&tick(t)).unwrap();
            if t == 99 {
                snapshot = encode_to_vec(&live).unwrap();
            }
            if t > 99 {
                log.push(WalEntry::from_outcome(&tick(t), &outcome));
            }
        }
        let counted = |e: &TkcmEngine| e.phase_breakdown().imputations;
        assert_eq!(counted(&live), live.imputations_performed());
        assert!(live.phase_breakdown().extraction > Duration::ZERO);
        assert!(live.prune_totals().candidates > 0);

        // A decoded engine keeps the count; its durations and prune totals
        // restart at zero.
        let mut recovered: TkcmEngine = decode_from_slice(&snapshot).unwrap();
        assert_eq!(counted(&recovered), recovered.imputations_performed());
        assert!(recovered.imputations_performed() > 0);
        assert_eq!(recovered.phase_breakdown().total(), Duration::ZERO);
        assert_eq!(recovered.prune_totals(), PruneStats::default());

        // Replay counts the logged write-backs without timing or searching.
        for entry in &log {
            assert!(recovered.apply_wal_entry(entry).unwrap());
        }
        assert_eq!(
            recovered.imputations_performed(),
            live.imputations_performed()
        );
        assert_eq!(counted(&recovered), live.imputations_performed());
        assert_eq!(recovered.phase_breakdown().total(), Duration::ZERO);
        assert_eq!(recovered.prune_totals(), PruneStats::default());
    }

    #[test]
    fn stale_wal_entries_are_skipped() {
        let mut engine = run_engine(50);
        let stale = WalEntry {
            tick: StreamTick::new(Timestamp::new(10), vec![Some(0.0); 3]),
            write_backs: vec![],
        };
        assert!(!engine.apply_wal_entry(&stale).unwrap());
        assert_eq!(engine.ticks_processed(), 50);
    }
}
