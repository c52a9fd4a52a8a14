//! [`Snapshot`] implementations for the engine layer, plus the WAL entry
//! type the runtime logs per processed tick.
//!
//! A [`crate::engine::TkcmEngine`] snapshot is the *complete* engine state:
//! configuration, the streaming window (value rings, provenance rings,
//! timestamp ring), the reference catalog, the accumulated phase breakdown,
//! the signature index and every live shortlist maintainer with its
//! bit-exact running sums.  Loading it back and replaying the logged ticks
//! since the snapshot ([`WalEntry`], applied through
//! [`crate::engine::TkcmEngine::apply_wal_entry`]) reproduces an engine that
//! is bit-identical to one that never crashed — the recovery-equivalence
//! property the runtime's tests pin down.

use std::time::Duration;

use tkcm_store::{Decoder, Encoder, Snapshot, StoreError};
use tkcm_timeseries::{Catalog, SeriesId, StreamTick, StreamingWindow, Timestamp};

use crate::config::TkcmConfig;
use crate::diagnostics::PhaseBreakdown;
use crate::engine::{Shortlist, TkcmEngine};
use crate::imputer::{PruneStats, TkcmImputer};
use crate::incremental::{ShortlistEntry, ShortlistMaintainer};
use crate::signature::{BlockSummary, SignatureIndex, SIGNATURE_BLOCK_LEN};

/// One write-back logged alongside the tick that produced it: the imputed
/// series, the reference set that served the imputation (needed to recreate
/// the maintainer with the original timing) and the imputed value.
#[derive(Clone, Debug, PartialEq)]
pub struct WalWriteBack {
    /// The series that was imputed.
    pub series: SeriesId,
    /// The reference set the imputation ran with, in selection order.
    pub references: Vec<SeriesId>,
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
                    references: i.detail.references.clone(),
                    value: i.value,
                })
                .collect(),
        }
    }
}

impl Snapshot for WalWriteBack {
    fn write_into(&self, enc: &mut Encoder) -> Result<(), StoreError> {
        self.series.write_into(enc)?;
        self.references.write_into(enc)?;
        enc.f64(self.value);
        Ok(())
    }

    fn read_from(dec: &mut Decoder<'_>) -> Result<Self, StoreError> {
        Ok(WalWriteBack {
            series: SeriesId::read_from(dec)?,
            references: Vec::read_from(dec)?,
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

fn duration_nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

impl Snapshot for PhaseBreakdown {
    fn write_into(&self, enc: &mut Encoder) -> Result<(), StoreError> {
        enc.u64(duration_nanos(self.extraction));
        enc.u64(duration_nanos(self.selection));
        enc.u64(duration_nanos(self.imputation));
        enc.u64(duration_nanos(self.maintenance));
        enc.usize(self.imputations);
        Ok(())
    }

    fn read_from(dec: &mut Decoder<'_>) -> Result<Self, StoreError> {
        Ok(PhaseBreakdown {
            extraction: Duration::from_nanos(dec.u64()?),
            selection: Duration::from_nanos(dec.u64()?),
            imputation: Duration::from_nanos(dec.u64()?),
            maintenance: Duration::from_nanos(dec.u64()?),
            imputations: dec.usize()?,
        })
    }
}

/// The checks a [`ShortlistMaintainer`] entry must pass on both sides of the
/// codec.  Encode refuses what decode would refuse, so a checkpoint of a
/// corrupt state fails when it is written instead of leaving a snapshot that
/// can never be recovered.
fn check_shortlist_entry(
    lag: u32,
    entry: &ShortlistEntry,
    pattern_length: usize,
    window_length: usize,
    total_pairs: usize,
    ticks: u64,
) -> Result<(), StoreError> {
    // Callers have checked `window_length ≥ 2 · pattern_length`.
    let candidate_lags = pattern_length..=window_length - pattern_length;
    if !usize::try_from(lag).is_ok_and(|lag| candidate_lags.contains(&lag)) {
        return Err(StoreError::invalid(format!(
            "shortlist entry lag {lag} is outside the candidate range"
        )));
    }
    // A NaN sum or a negative/NaN radius would corrupt every bound derived
    // from the entry; refuse rather than carry it.
    if entry.sum_sq.is_nan() || entry.err.is_nan() || entry.err < 0.0 {
        return Err(StoreError::invalid(
            "shortlist entry carries a NaN sum or invalid error radius",
        ));
    }
    if usize::try_from(entry.observed).map_or(true, |observed| observed > total_pairs) {
        return Err(StoreError::invalid(format!(
            "shortlist entry observed count {} exceeds the pair total",
            entry.observed
        )));
    }
    if entry.last_hit > ticks {
        return Err(StoreError::invalid(
            "shortlist entry last-hit tick is ahead of the maintainer clock",
        ));
    }
    Ok(())
}

impl Snapshot for ShortlistMaintainer {
    fn write_into(&self, enc: &mut Encoder) -> Result<(), StoreError> {
        self.references.write_into(enc)?;
        enc.usize(self.pattern_length);
        enc.usize(self.window_length);
        // BTreeMap iteration is ascending by lag, so the encoding (and the
        // snapshot fingerprint) is deterministic.
        let total_pairs = self.references.len() * self.pattern_length;
        enc.usize(self.entries.len());
        for (&lag, entry) in &self.entries {
            check_shortlist_entry(
                lag,
                entry,
                self.pattern_length,
                self.window_length,
                total_pairs,
                self.ticks,
            )?;
            enc.u32(lag);
            enc.f64(entry.sum_sq);
            enc.f64(entry.err);
            enc.u32(entry.observed);
            enc.u64(entry.last_hit);
        }
        self.prev_oldest.write_into(enc)?;
        match self.last_time {
            Some(t) => {
                enc.bool(true);
                t.write_into(enc)?;
            }
            None => enc.bool(false),
        }
        enc.u64(self.ticks);
        Ok(())
    }

    fn read_from(dec: &mut Decoder<'_>) -> Result<Self, StoreError> {
        let references: Vec<SeriesId> = Vec::read_from(dec)?;
        let pattern_length = dec.usize()?;
        let window_length = dec.usize()?;
        // `window_length / 2 < pattern_length` is the overflow-safe spelling
        // of `window_length < 2 * pattern_length` — decoded dimensions are
        // untrusted and must not be fed into unchecked arithmetic.
        if references.is_empty() || pattern_length == 0 || window_length / 2 < pattern_length {
            return Err(StoreError::invalid(
                "shortlist maintainer snapshot dimensions are inconsistent",
            ));
        }
        let entry_count = dec.seq_len()?;
        let mut entries = std::collections::BTreeMap::new();
        for _ in 0..entry_count {
            let lag = dec.u32()?;
            let entry = ShortlistEntry {
                sum_sq: dec.f64()?,
                err: dec.f64()?,
                observed: dec.u32()?,
                last_hit: dec.u64()?,
            };
            if entries.insert(lag, entry).is_some() {
                return Err(StoreError::invalid(format!(
                    "duplicate shortlist entry for lag {lag}"
                )));
            }
        }
        let prev_oldest: Vec<Option<f64>> = Vec::read_from(dec)?;
        let last_time = if dec.bool()? {
            Some(Timestamp::read_from(dec)?)
        } else {
            None
        };
        let ticks = dec.u64()?;
        if prev_oldest.len() != references.len() {
            return Err(StoreError::invalid(
                "shortlist maintainer snapshot dimensions are inconsistent",
            ));
        }
        let total_pairs = references.len().saturating_mul(pattern_length);
        for (&lag, entry) in &entries {
            check_shortlist_entry(
                lag,
                entry,
                pattern_length,
                window_length,
                total_pairs,
                ticks,
            )?;
        }
        Ok(ShortlistMaintainer {
            references,
            pattern_length,
            window_length,
            entries,
            prev_oldest,
            last_time,
            ticks,
        })
    }
}

impl Snapshot for PruneStats {
    fn write_into(&self, enc: &mut Encoder) -> Result<(), StoreError> {
        enc.usize(self.candidates);
        enc.usize(self.shortlisted);
        enc.usize(self.pruned);
        enc.usize(self.level1_skipped);
        enc.usize(self.maintained_pruned);
        enc.usize(self.maintained_lags);
        Ok(())
    }

    fn read_from(dec: &mut Decoder<'_>) -> Result<Self, StoreError> {
        Ok(PruneStats {
            candidates: dec.usize()?,
            shortlisted: dec.usize()?,
            pruned: dec.usize()?,
            level1_skipped: dec.usize()?,
            maintained_pruned: dec.usize()?,
            maintained_lags: dec.usize()?,
        })
    }
}

impl Snapshot for BlockSummary {
    fn write_into(&self, enc: &mut Encoder) -> Result<(), StoreError> {
        enc.f64(self.min);
        enc.f64(self.max);
        enc.u32(self.missing);
        enc.f64(self.sum);
        Ok(())
    }

    fn read_from(dec: &mut Decoder<'_>) -> Result<Self, StoreError> {
        // ±∞ round-trip fine through the to_bits encoding; NaN envelopes
        // would poison every gap comparison, so they are refused.  A NaN
        // *sum* is legitimate — it is the poisoned state an observed-slot
        // overwrite leaves behind (the mean bound is skipped for it).
        let min = dec.f64()?;
        let max = dec.f64()?;
        let missing = dec.u32()?;
        let sum = dec.f64()?;
        if min.is_nan() || max.is_nan() {
            return Err(StoreError::invalid("NaN in a block summary envelope"));
        }
        if u64::from(missing) > u64::from(SIGNATURE_BLOCK_LEN) {
            return Err(StoreError::invalid(format!(
                "block summary missing count {missing} exceeds the block length \
                 {SIGNATURE_BLOCK_LEN}"
            )));
        }
        Ok(BlockSummary {
            min,
            max,
            missing,
            sum,
        })
    }
}

impl Snapshot for SignatureIndex {
    fn write_into(&self, enc: &mut Encoder) -> Result<(), StoreError> {
        // The block length is part of the decoded geometry: refuse to read
        // snapshots written with a different quantization than this build's
        // SIGNATURE_BLOCK_LEN rather than misalign every envelope.
        enc.u32(SIGNATURE_BLOCK_LEN);
        enc.usize(self.width);
        enc.usize(self.window_length);
        enc.u64(self.base_ordinal);
        enc.u64(self.ticks_seen);
        enc.usize(self.blocks.len());
        for series in &self.blocks {
            series.write_into(enc)?;
        }
        Ok(())
    }

    fn read_from(dec: &mut Decoder<'_>) -> Result<Self, StoreError> {
        let block_len = dec.u32()?;
        if block_len != SIGNATURE_BLOCK_LEN {
            return Err(StoreError::invalid(format!(
                "signature index block length {block_len} does not match this \
                 build's {SIGNATURE_BLOCK_LEN}"
            )));
        }
        let width = dec.usize()?;
        let window_length = dec.usize()?;
        let base_ordinal = dec.u64()?;
        let ticks_seen = dec.u64()?;
        let series_count = dec.seq_len()?;
        if width == 0 || window_length == 0 || series_count != width {
            return Err(StoreError::invalid(
                "signature index snapshot dimensions are inconsistent",
            ));
        }
        let mut blocks = Vec::with_capacity(series_count);
        let mut block_count: Option<usize> = None;
        for _ in 0..series_count {
            let series: Vec<BlockSummary> = Vec::read_from(dec)?;
            match block_count {
                None => block_count = Some(series.len()),
                Some(n) if n != series.len() => {
                    return Err(StoreError::invalid(
                        "signature index series have differing block counts",
                    ));
                }
                Some(_) => {}
            }
            blocks.push(series);
        }
        if base_ordinal % u64::from(SIGNATURE_BLOCK_LEN) != 0 || base_ordinal > ticks_seen {
            return Err(StoreError::invalid(
                "signature index base ordinal is not block-aligned inside the stream",
            ));
        }
        Ok(SignatureIndex {
            width,
            window_length,
            base_ordinal,
            ticks_seen,
            blocks,
        })
    }
}

impl Snapshot for TkcmEngine {
    fn write_into(&self, enc: &mut Encoder) -> Result<(), StoreError> {
        self.imputer.config().write_into(enc)?;
        self.window.write_into(enc)?;
        self.catalog.write_into(enc)?;
        self.breakdown.write_into(enc)?;
        enc.usize(self.imputation_count);
        enc.usize(self.tick_count);
        // The index is written iff the configuration composes; decode reads
        // it back on the same condition.
        if self.imputer.config().pruning {
            self.signatures
                .as_ref()
                .ok_or_else(|| StoreError::invalid("composed engine without a signature index"))?
                .write_into(enc)?;
        }
        enc.usize(self.shortlists.len());
        for s in &self.shortlists {
            s.state.write_into(enc)?;
            enc.usize(s.last_used);
        }
        self.prune_totals.write_into(enc)?;
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
        let breakdown = PhaseBreakdown::read_from(dec)?;
        let imputation_count = dec.usize()?;
        let tick_count = dec.usize()?;
        let signatures = if config.pruning {
            let index = SignatureIndex::read_from(dec)?;
            if index.width() != window.width() {
                return Err(StoreError::invalid(
                    "signature index width does not match the window",
                ));
            }
            if !index.is_synced(&window) {
                return Err(StoreError::invalid(
                    "signature index is not in lock-step with the window snapshot",
                ));
            }
            Some(index)
        } else {
            None
        };
        let shortlist_count = dec.seq_len()?;
        let mut shortlists = Vec::with_capacity(shortlist_count);
        for _ in 0..shortlist_count {
            let state = ShortlistMaintainer::read_from(dec)?;
            let last_used = dec.usize()?;
            if state.window_length() != config.window_length
                || state.pattern_length() != config.pattern_length
            {
                return Err(StoreError::invalid(
                    "shortlist maintainer geometry does not match the engine configuration",
                ));
            }
            shortlists.push(Shortlist { state, last_used });
        }
        let prune_totals = PruneStats::read_from(dec)?;
        // Shortlist maintainers only exist on the composed path.
        if !shortlists.is_empty() && !config.pruning {
            return Err(StoreError::invalid(
                "shortlist maintainers present but the configuration does not compose",
            ));
        }
        let level1_run_len = crate::signature::level1_run_len(config.pattern_length);
        let imputer = TkcmImputer::new(config).map_err(|e| StoreError::invalid(e.to_string()))?;
        Ok(TkcmEngine {
            imputer,
            window,
            catalog,
            breakdown,
            imputation_count,
            tick_count,
            signatures,
            shortlists,
            level1_run_len,
            prune_totals,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tkcm_store::{decode_from_slice, encode_to_vec};

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
    fn breakdown_round_trips() {
        let b = PhaseBreakdown {
            extraction: Duration::from_micros(12),
            selection: Duration::from_nanos(987),
            imputation: Duration::from_millis(1),
            maintenance: Duration::from_nanos(1),
            imputations: 17,
        };
        assert_eq!(round_trip(&b), b);
    }

    #[test]
    fn wal_entry_round_trips() {
        let entry = WalEntry {
            tick: StreamTick::new(Timestamp::new(42), vec![None, Some(1.25)]),
            write_backs: vec![WalWriteBack {
                series: SeriesId(0),
                references: vec![SeriesId(1)],
                value: 0.5,
            }],
        };
        assert_eq!(round_trip(&entry), entry);
    }

    #[test]
    fn engine_snapshot_restores_bit_identical_behaviour() {
        // Run an engine through imputations (live shortlists), snapshot it,
        // restore, and drive both with identical further ticks: outcomes and
        // window contents must match bit for bit.
        let mut original = run_engine(120);
        let bytes = encode_to_vec(&original).unwrap();
        let mut restored: TkcmEngine = decode_from_slice(&bytes).unwrap();
        assert_eq!(restored.ticks_processed(), original.ticks_processed());
        assert_eq!(
            restored.imputations_performed(),
            original.imputations_performed()
        );
        assert_eq!(restored.shortlist_count(), original.shortlist_count());
        assert_eq!(
            restored.shortlisted_lag_count(),
            original.shortlisted_lag_count()
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
    fn signature_index_round_trips_and_rejects_corruption() {
        // Build a live index via an engine run; it must round-trip bit-exactly
        // (including envelopes widened by write-backs).
        let engine = run_engine(120);
        let index = engine.signatures.clone().expect("default config prunes");
        assert_eq!(round_trip(&index), index);

        // A foreign block length is refused instead of misreading geometry.
        let mut enc = Encoder::new();
        enc.u32(SIGNATURE_BLOCK_LEN + 1);
        enc.usize(1);
        enc.usize(64);
        enc.u64(0);
        enc.u64(0);
        enc.usize(1);
        let empty: Vec<BlockSummary> = Vec::new();
        empty.write_into(&mut enc).unwrap();
        assert!(decode_from_slice::<SignatureIndex>(&enc.into_bytes()).is_err());

        // A NaN envelope is refused.
        let mut enc = Encoder::new();
        enc.f64(f64::NAN);
        enc.f64(1.0);
        enc.u32(0);
        assert!(decode_from_slice::<BlockSummary>(&enc.into_bytes()).is_err());
    }

    #[test]
    fn shortlist_maintainer_round_trips_and_rejects_corruption() {
        // The default configuration composes, so a driven engine carries
        // live shortlist maintainers with seeded entries.
        let engine = run_engine(120);
        assert!(engine.is_composed());
        assert!(engine.shortlist_count() > 0);
        let state = &engine.shortlists[0].state;
        assert!(state.maintained_lags() > 0, "entries should have seeded");
        let restored = round_trip(state);
        // No PartialEq on the maintainer; the Debug form covers every field
        // including the per-entry bits.
        assert_eq!(format!("{restored:?}"), format!("{state:?}"));

        // An entry lag outside the candidate range is refused.
        let mut enc = Encoder::new();
        vec![SeriesId(1)].write_into(&mut enc).unwrap();
        enc.usize(3); // l
        enc.usize(64); // L
        enc.usize(1);
        enc.u32(1); // lag < l
        enc.f64(0.0);
        enc.f64(0.0);
        enc.u32(0);
        enc.u64(0);
        let prev: Vec<Option<f64>> = vec![None];
        prev.write_into(&mut enc).unwrap();
        enc.bool(false);
        enc.u64(0);
        assert!(decode_from_slice::<ShortlistMaintainer>(&enc.into_bytes()).is_err());

        // A negative error radius is refused (it would inflate the bound).
        let mut enc = Encoder::new();
        vec![SeriesId(1)].write_into(&mut enc).unwrap();
        enc.usize(3);
        enc.usize(64);
        enc.usize(1);
        enc.u32(5);
        enc.f64(1.0);
        enc.f64(-1.0);
        enc.u32(3);
        enc.u64(0);
        let prev: Vec<Option<f64>> = vec![None];
        prev.write_into(&mut enc).unwrap();
        enc.bool(false);
        enc.u64(0);
        assert!(decode_from_slice::<ShortlistMaintainer>(&enc.into_bytes()).is_err());
    }

    #[test]
    fn encode_refuses_a_shortlist_entry_that_decode_would_refuse() {
        // One NaN reference reading: the composed path seeds a shortlist
        // entry from an exact fold that contains it.  Decode refuses such an
        // entry, so encode must refuse it too — a checkpoint that writes it
        // could never be recovered.
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
        match encode_to_vec(&engine) {
            Err(StoreError::Invalid { message }) => assert!(message.contains("NaN"), "{message}"),
            other => panic!("expected encode to refuse the NaN entry, got {other:?}"),
        }
    }

    #[test]
    fn prune_totals_survive_snapshot_recovery() {
        // The running prune diagnostics are part of the snapshot (format
        // v5): a recovered engine continues the totals instead of silently
        // resetting them to zero.
        let engine = run_engine(120);
        let totals = engine.prune_totals();
        assert!(
            totals.candidates > 0,
            "the driven engine pruned: {totals:?}"
        );
        let restored: TkcmEngine = round_trip(&engine);
        assert_eq!(restored.prune_totals(), totals);
    }

    #[test]
    fn wal_replay_reproduces_live_processing() {
        // Drive a live engine and log every tick; replay the log into a
        // snapshot taken earlier; states must agree bit for bit afterwards.
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
            if t >= 100 {
                log.push(WalEntry::from_outcome(&tick, &outcome));
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
