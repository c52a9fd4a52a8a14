//! Streaming TKCM engine: continuous imputation over a set of streams.
//!
//! The engine owns the streaming window, pushes every arriving tick into it,
//! and — for every series whose value is missing at the current time — runs
//! the TKCM imputer with the reference set selected from the catalog
//! (Section 3: the first `d` ranked candidates whose current value is not
//! missing).  Imputed values are written back into the window so that later
//! imputations can treat them as history, exactly as in Example 1 of the
//! paper where `r2(13:40)` is an imputed value.
//!
//! Imputation dispatches two ways.  On the *composed* path (the default,
//! [`TkcmEngine::is_composed`]) the engine owns a [`SignatureIndex`] over all
//! series, a block ring each pushed tick extends and each imputed write-back
//! re-summarizes from the window, and every imputation runs one stateless
//! best-first search over it ([`TkcmImputer::impute_composed`]).  The index
//! is a cache that only bounds candidates: snapshots leave it out, and a
//! decoded engine rebuilds it from the window.  The running [`PruneStats`]
//! are telemetry, like the phase durations: snapshots leave them out too,
//! so a snapshot holds only what WAL replay reproduces.
//! With `TkcmConfig::pruning = false` every imputation runs the exhaustive
//! exact path ([`TkcmImputer::impute`]) instead, the oracle the composed path
//! is bit-identical to.

use std::sync::LazyLock;

use tkcm_timeseries::{Catalog, SeriesId, StreamTick, StreamingWindow, Timestamp, TsError};

use crate::config::TkcmConfig;
use crate::diagnostics::PhaseBreakdown;
use crate::imputer::{ImputationDetail, PruneStats, TkcmImputer};
use crate::signature::SignatureIndex;

/// Fleet-wide pruning totals in the global metrics registry, in the split
/// of [`PruneStats`] (the composed path's level-1 run skips ride as an
/// extra path; the always-zero maintained prunes have none).
/// Record-only: the imputation path never reads these back (`obs-read-only`
/// policy).
static PRUNE_TOTALS: LazyLock<[tkcm_obs::Counter; 4]> = LazyLock::new(|| {
    ["candidates", "shortlisted", "pruned", "level1_skipped"]
        .map(|path| tkcm_obs::registry().counter("tkcm_core_prune_total", &[("path", path)]))
});

/// One imputation performed by the engine at a tick.
#[derive(Clone, Debug, PartialEq)]
pub struct Imputation {
    /// The series that was imputed.
    pub series: SeriesId,
    /// The time point imputed.
    pub time: Timestamp,
    /// The imputed value.
    pub value: f64,
    /// Full detail (anchors, ε).
    pub detail: ImputationDetail,
}

/// Result of processing one tick.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct EngineOutcome {
    /// All imputations performed at this tick (one per missing series).
    pub imputations: Vec<Imputation>,
    /// Series that were missing but could not be imputed because no reference
    /// candidate was alive (the value stays missing in the window).
    pub skipped: Vec<SeriesId>,
}

impl EngineOutcome {
    /// Convenience lookup of the imputed value of a series at this tick.
    pub fn imputed_value(&self, series: SeriesId) -> Option<f64> {
        self.imputations
            .iter()
            .find(|i| i.series == series)
            .map(|i| i.value)
    }
}

/// Continuous TKCM imputation engine over a fixed set of streams.
pub struct TkcmEngine {
    // Fields are `pub(crate)` so the snapshot codec (`persist`) can write
    // the engine's state: configuration, window, catalog and counters.
    pub(crate) imputer: TkcmImputer,
    pub(crate) window: StreamingWindow,
    pub(crate) catalog: Catalog,
    pub(crate) imputation_count: usize,
    pub(crate) tick_count: usize,
    /// Signature index over all series, present iff the composed path is
    /// active ([`TkcmEngine::is_composed`]); kept in lock-step with the
    /// window by `advance_tick`/`commit_write_back`.  A pruning cache, not
    /// state: snapshots leave it out and decode rebuilds it from the window.
    signatures: Option<SignatureIndex>,
    /// Running totals of the per-imputation [`PruneStats`]: telemetry, not
    /// state (see [`TkcmEngine::prune_totals`]).
    prune_totals: PruneStats,
}

impl TkcmEngine {
    /// Creates an engine for `width` streams.
    ///
    /// The engine's window length is taken from `config.window_length`.
    pub fn new(width: usize, config: TkcmConfig, catalog: Catalog) -> Result<Self, TsError> {
        config.validate()?;
        if width == 0 {
            return Err(TsError::invalid("width", "need at least one stream"));
        }
        let window = StreamingWindow::new(width, config.window_length);
        TkcmEngine::assemble(config, window, catalog)
    }

    /// Assembles an engine around `window` with zeroed counters: the one
    /// place an engine is built, by [`TkcmEngine::new`] and by snapshot
    /// decode.  The signature index is rebuilt from the window's contents,
    /// so it is in lock-step with it by construction.
    pub(crate) fn assemble(
        config: TkcmConfig,
        window: StreamingWindow,
        catalog: Catalog,
    ) -> Result<Self, TsError> {
        let signatures = if config.pruning {
            let mut index = SignatureIndex::new(window.width(), window.length())?;
            index.rebuild(&window)?;
            Some(index)
        } else {
            None
        };
        let imputer = TkcmImputer::new(config)?;
        Ok(TkcmEngine {
            imputer,
            window,
            catalog,
            imputation_count: 0,
            tick_count: 0,
            signatures,
            prune_totals: PruneStats::default(),
        })
    }

    /// The engine's configuration.
    pub fn config(&self) -> &TkcmConfig {
        self.imputer.config()
    }

    /// Read access to the streaming window (e.g. for inspecting history).
    pub fn window(&self) -> &StreamingWindow {
        &self.window
    }

    /// The reference catalog.
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// Number of ticks processed so far.
    pub fn ticks_processed(&self) -> usize {
        self.tick_count
    }

    /// Number of values imputed so far.
    pub fn imputations_performed(&self) -> usize {
        self.imputation_count
    }

    /// Wall-clock time per phase (Section 7.4) of the imputations this
    /// engine ran since it was built or decoded, with `imputations` set to
    /// [`TkcmEngine::imputations_performed`].  The durations are
    /// process-local telemetry, not state: snapshots do not persist them,
    /// so they restart at zero after a decode, and a replayed WAL entry
    /// counts its write-backs without adding time.
    pub fn phase_breakdown(&self) -> PhaseBreakdown {
        PhaseBreakdown {
            imputations: self.imputation_count,
            ..self.imputer.breakdown
        }
    }

    /// Whether the *composed* path — the best-first search over the
    /// signature index — serves this engine's imputations: exactly the
    /// `TkcmConfig::pruning` switch (on by default).  Otherwise every
    /// imputation runs the exhaustive exact path.
    pub fn is_composed(&self) -> bool {
        self.imputer.config().pruning
    }

    /// Always 0: the composed search remembers no lags between
    /// imputations.  Kept so benchmark readers of the counter stay stable.
    pub fn shortlisted_lag_count(&self) -> usize {
        0
    }

    /// Running totals of the pruning counters across the imputations this
    /// engine ran since it was built or decoded (all zero on the exact
    /// path).  Like [`TkcmEngine::phase_breakdown`]'s durations they are
    /// process-local telemetry: snapshots do not persist them, so they
    /// restart at zero after a decode, and a replayed WAL entry leaves them
    /// alone.  Callers take per-call deltas (`pruned / candidates` is the
    /// `pruned_fraction` the benchmarks report).
    pub fn prune_totals(&self) -> PruneStats {
        self.prune_totals
    }

    /// Folds one imputation's [`PruneStats`] into the engine totals and the
    /// fleet-wide metrics registry (record-only).  A per-imputation
    /// flight-recorder event here would evict the checkpoint and fsync
    /// events the recorder exists for.
    fn record_prune_stats(&mut self, stats: &PruneStats) {
        self.prune_totals += *stats;
        PRUNE_TOTALS[0].add(stats.candidates as u64);
        PRUNE_TOTALS[1].add(stats.shortlisted as u64);
        PRUNE_TOTALS[2].add(stats.pruned as u64);
        PRUNE_TOTALS[3].add(stats.level1_skipped as u64);
    }

    /// Processes one arriving tick: pushes it into the window, advances the
    /// signature index, imputes every missing series and writes the imputed
    /// values back into the window (patching the index).
    pub fn process_tick(&mut self, tick: &StreamTick) -> Result<EngineOutcome, TsError> {
        self.advance_tick(tick)?;

        let mut outcome = EngineOutcome::default();
        let missing = self.window.currently_missing();
        for target in missing {
            // Reference selection per Section 3: the first d ranked candidates
            // that are alive right now (observed at this tick, or already
            // imputed earlier in this loop).
            let d = self.imputer.config().reference_count;
            let window = &self.window;
            let selection = self.catalog.select_references(target, d, |cand| {
                window
                    .value_recent(cand, 0)
                    .map(|v| v.is_some())
                    .unwrap_or(false)
            });
            if selection.references.is_empty() {
                outcome.skipped.push(target);
                continue;
            }
            let detail = if let Some(index) = self.signatures.as_ref() {
                let (detail, stats) = self.imputer.impute_composed(
                    &self.window,
                    target,
                    &selection.references,
                    index,
                )?;
                self.record_prune_stats(&stats);
                detail
            } else {
                self.imputer
                    .impute(&self.window, target, &selection.references)?
            };
            self.commit_write_back(target, detail.value)?;
            outcome.imputations.push(Imputation {
                series: target,
                time: detail.time,
                value: detail.value,
                detail,
            });
        }
        Ok(outcome)
    }

    /// Processes a batch of arriving ticks, in order, and returns one
    /// [`EngineOutcome`] per tick.
    ///
    /// The batch path is **bit-identical** to `N` sequential
    /// [`TkcmEngine::process_tick`] calls: each tick runs through exactly the
    /// same `advance_tick` → impute → `commit_write_back` sequence, so window
    /// contents, the signature index and every counter come out the same
    /// either way (the property
    /// `tkcm-runtime/tests/batching.rs` pins).  Batching exists so callers —
    /// the sharded runtime's workers above all — can amortise *their* per-tick
    /// overhead (channel round-trips, WAL writes) across many ticks; the
    /// engine itself has no cheaper-than-per-tick shortcut that could be
    /// taken without breaking that equivalence.
    ///
    /// On an error at tick `i` the engine state reflects the `i` ticks that
    /// already committed — the same state `i` successful `process_tick`
    /// calls followed by one failing call would leave behind.
    pub fn process_batch(&mut self, ticks: &[StreamTick]) -> Result<Vec<EngineOutcome>, TsError> {
        let mut outcomes = Vec::with_capacity(ticks.len());
        for tick in ticks {
            outcomes.push(self.process_tick(tick)?);
        }
        Ok(outcomes)
    }

    /// Pushes a tick into the window and brings the signature index up to
    /// date.  Shared by
    /// [`TkcmEngine::process_tick`] and the WAL replay path so that replayed
    /// ticks mutate the state through exactly the code live ticks do.
    fn advance_tick(&mut self, tick: &StreamTick) -> Result<(), TsError> {
        self.window.push_tick(tick)?;
        self.tick_count += 1;
        if let Some(index) = self.signatures.as_mut() {
            index.on_push(&tick.values)?;
        }
        Ok(())
    }

    /// Commits one imputed value: writes it into the window and patches the
    /// signature index.
    fn commit_write_back(&mut self, target: SeriesId, value: f64) -> Result<(), TsError> {
        self.window.write_imputed(target, 0, value)?;
        if let Some(index) = self.signatures.as_mut() {
            index.on_write(&self.window, target, 0)?;
        }
        self.imputation_count += 1;
        Ok(())
    }

    /// Replays one logged tick and its write-backs, reproducing the window,
    /// signature index and tick and imputation counters of the original
    /// [`TkcmEngine::process_tick`] call without re-running pattern
    /// extraction or selection (the logged values are authoritative).  The
    /// telemetry — phase durations and prune totals — is left alone.
    ///
    /// Entries whose tick time is not ahead of the window are *stale* — they
    /// describe ticks already covered by the snapshot the replay started
    /// from (a crash between snapshot rotation and WAL truncation leaves
    /// such entries behind) — and are skipped; `Ok(false)` reports that.
    pub fn apply_wal_entry(&mut self, entry: &crate::persist::WalEntry) -> Result<bool, TsError> {
        if let Some(now) = self.window.current_time() {
            if entry.tick.time <= now {
                return Ok(false);
            }
        }
        self.advance_tick(&entry.tick)?;
        for wb in &entry.write_backs {
            self.commit_write_back(wb.series, wb.value)?;
        }
        Ok(true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TkcmConfig;

    fn catalog_for(width: usize) -> Catalog {
        Catalog::ring_neighbours(width)
    }

    fn sine(t: usize, period: f64, shift: f64) -> f64 {
        ((t as f64 - shift) / period * std::f64::consts::TAU).sin()
    }

    fn small_config(window: usize, l: usize, k: usize, d: usize) -> TkcmConfig {
        TkcmConfig::builder()
            .window_length(window)
            .pattern_length(l)
            .anchor_count(k)
            .reference_count(d)
            .build()
            .unwrap()
    }

    #[test]
    fn engine_imputes_missing_block_and_writes_back() {
        let width = 3;
        let period = 32.0;
        let config = small_config(256, 4, 3, 2);
        let mut engine = TkcmEngine::new(width, config, catalog_for(width)).unwrap();

        let total = 256usize;
        let gap_start = 200usize;
        let mut errors = Vec::new();
        for t in 0..total {
            let truth = sine(t, period, 0.0);
            let s0 = if (gap_start..gap_start + 20).contains(&t) {
                None
            } else {
                Some(truth)
            };
            let tick = StreamTick::new(
                Timestamp::new(t as i64),
                vec![s0, Some(sine(t, period, 5.0)), Some(sine(t, period, 11.0))],
            );
            let outcome = engine.process_tick(&tick).unwrap();
            if s0.is_none() {
                let imputed = outcome.imputed_value(SeriesId(0)).expect("should impute");
                errors.push((imputed - truth).abs());
                // Write-back: the window now holds the imputed value.
                assert_eq!(
                    engine.window().value_recent(SeriesId(0), 0).unwrap(),
                    Some(imputed)
                );
            } else {
                assert!(outcome.imputations.is_empty());
            }
        }
        assert_eq!(errors.len(), 20);
        let rmse = (errors.iter().map(|e| e * e).sum::<f64>() / errors.len() as f64).sqrt();
        assert!(rmse < 0.1, "rmse = {rmse}");
        assert_eq!(engine.imputations_performed(), 20);
        assert_eq!(engine.ticks_processed(), total);
        assert_eq!(engine.phase_breakdown().imputations, 20);
    }

    #[test]
    fn multiple_series_missing_at_the_same_tick() {
        let width = 4;
        let config = small_config(128, 3, 2, 2);
        let mut engine = TkcmEngine::new(width, config, catalog_for(width)).unwrap();
        for t in 0..100usize {
            let base = sine(t, 25.0, 0.0);
            let missing_tick = t == 99;
            let tick = StreamTick::new(
                Timestamp::new(t as i64),
                vec![
                    if missing_tick { None } else { Some(base) },
                    if missing_tick { None } else { Some(base * 2.0) },
                    Some(sine(t, 25.0, 3.0)),
                    Some(sine(t, 25.0, 7.0)),
                ],
            );
            let outcome = engine.process_tick(&tick).unwrap();
            if missing_tick {
                assert_eq!(outcome.imputations.len(), 2);
                assert!(outcome.imputed_value(SeriesId(0)).is_some());
                assert!(outcome.imputed_value(SeriesId(1)).is_some());
                assert!(outcome.skipped.is_empty());
            }
        }
    }

    #[test]
    fn series_without_alive_references_is_skipped() {
        // Catalog where series 0 has only series 1 as candidate, and both are
        // missing at the same tick -> no imputation possible for series 0
        // until series 1 recovers... but series 1 has series 0 as candidate,
        // so both get skipped.
        let mut catalog = Catalog::new();
        catalog
            .set_candidates(SeriesId(0), vec![SeriesId(1)])
            .unwrap();
        catalog
            .set_candidates(SeriesId(1), vec![SeriesId(0)])
            .unwrap();
        let config = small_config(64, 2, 2, 1);
        let mut engine = TkcmEngine::new(2, config, catalog).unwrap();
        for t in 0..20usize {
            let missing = t == 19;
            let v = if missing { None } else { Some(t as f64) };
            let outcome = engine
                .process_tick(&StreamTick::new(Timestamp::new(t as i64), vec![v, v]))
                .unwrap();
            if missing {
                assert_eq!(outcome.skipped.len(), 2);
                assert!(outcome.imputations.is_empty());
            }
        }
    }

    #[test]
    fn imputed_reference_can_serve_later_imputations() {
        // Series 1 goes missing first and is imputed; at a later tick series 0
        // goes missing and uses (previously imputed) series 1 values inside
        // its patterns — the engine must not reject them.
        let width = 3;
        let config = small_config(128, 3, 2, 2);
        let mut catalog = Catalog::new();
        catalog
            .set_candidates(SeriesId(0), vec![SeriesId(1), SeriesId(2)])
            .unwrap();
        catalog
            .set_candidates(SeriesId(1), vec![SeriesId(2), SeriesId(0)])
            .unwrap();
        catalog
            .set_candidates(SeriesId(2), vec![SeriesId(1), SeriesId(0)])
            .unwrap();
        let mut engine = TkcmEngine::new(width, config, catalog).unwrap();
        for t in 0..120usize {
            let base = sine(t, 20.0, 0.0);
            let s1_missing = (60..70).contains(&t);
            let s0_missing = t == 119;
            let tick = StreamTick::new(
                Timestamp::new(t as i64),
                vec![
                    if s0_missing { None } else { Some(base) },
                    if s1_missing {
                        None
                    } else {
                        Some(sine(t, 20.0, 4.0))
                    },
                    Some(sine(t, 20.0, 9.0)),
                ],
            );
            let outcome = engine.process_tick(&tick).unwrap();
            if s0_missing {
                assert_eq!(outcome.imputations.len(), 1);
                let imputed = outcome.imputed_value(SeriesId(0)).unwrap();
                assert!((imputed - base).abs() < 0.2, "imputed {imputed} vs {base}");
            }
        }
        assert_eq!(engine.imputations_performed(), 11);
    }

    #[test]
    fn process_batch_is_bit_identical_to_sequential_ticks() {
        let width = 3;
        let config = small_config(128, 3, 2, 2);
        let mut per_tick = TkcmEngine::new(width, config.clone(), catalog_for(width)).unwrap();
        let mut batched = TkcmEngine::new(width, config, catalog_for(width)).unwrap();

        let ticks: Vec<StreamTick> = (0..120usize)
            .map(|t| {
                let missing = t > 40 && t % 6 == 0;
                let s0 = if missing {
                    None
                } else {
                    Some(sine(t, 24.0, 0.0))
                };
                StreamTick::new(
                    Timestamp::new(t as i64),
                    vec![s0, Some(sine(t, 24.0, 5.0)), Some(sine(t, 24.0, 11.0))],
                )
            })
            .collect();

        let mut sequential = Vec::with_capacity(ticks.len());
        for tick in &ticks {
            sequential.push(per_tick.process_tick(tick).unwrap());
        }
        // Mixed batch sizes, including single-tick and the full remainder.
        let mut merged = Vec::with_capacity(ticks.len());
        for chunk in [&ticks[..1], &ticks[1..8], &ticks[8..64], &ticks[64..]] {
            merged.extend(batched.process_batch(chunk).unwrap());
        }

        assert_eq!(merged.len(), sequential.len());
        for (t, (a, b)) in sequential.iter().zip(merged.iter()).enumerate() {
            assert_eq!(a.skipped, b.skipped, "tick {t}");
            assert_eq!(a.imputations.len(), b.imputations.len(), "tick {t}");
            for (x, y) in a.imputations.iter().zip(b.imputations.iter()) {
                assert_eq!(x.series, y.series);
                assert_eq!(x.value.to_bits(), y.value.to_bits(), "tick {t}");
                assert_eq!(x.detail.anchors, y.detail.anchors);
            }
        }
        assert_eq!(per_tick.ticks_processed(), batched.ticks_processed());
        assert_eq!(
            per_tick.imputations_performed(),
            batched.imputations_performed()
        );
        assert_eq!(per_tick.prune_totals(), batched.prune_totals());
    }

    #[test]
    fn process_batch_error_leaves_the_committed_prefix() {
        let config = small_config(64, 2, 2, 1);
        let mut engine = TkcmEngine::new(2, config, catalog_for(2)).unwrap();
        let good = |t: i64| StreamTick::new(Timestamp::new(t), vec![Some(1.0), Some(2.0)]);
        // Third tick repeats a timestamp: the first two commit, the batch errors.
        let batch = vec![good(0), good(1), good(1)];
        assert!(engine.process_batch(&batch).is_err());
        assert_eq!(engine.ticks_processed(), 2);
        // An empty batch is a no-op.
        assert_eq!(engine.process_batch(&[]).unwrap().len(), 0);
        assert_eq!(engine.ticks_processed(), 2);
    }

    #[test]
    fn composed_path_matches_exhaustive_bit_for_bit() {
        let width = 3;
        let base = small_config(320, 16, 2, 2);
        let mk = |pruning: bool| {
            let config = crate::config::TkcmConfigBuilder::from_config(base.clone())
                .pruning(pruning)
                .build()
                .unwrap();
            TkcmEngine::new(width, config, catalog_for(width)).unwrap()
        };
        let mut composed = mk(true);
        let mut exhaustive = mk(false);
        assert!(composed.is_composed());
        assert!(!exhaustive.is_composed());

        // Period-128 integer sawtooths: candidates one/two periods back match
        // the query exactly (τ = 0), every off-phase candidate has a large
        // envelope gap — the regime the signature index is built for.
        let saw = |t: usize, shift: usize| ((t + shift) % 128) as f64;
        for t in 0..400usize {
            let missing = t > 60 && t % 7 < 2;
            let s0 = if missing { None } else { Some(saw(t, 0)) };
            let tick = StreamTick::new(
                Timestamp::new(t as i64),
                vec![s0, Some(saw(t, 31)), Some(saw(t, 67))],
            );
            let m = composed.process_tick(&tick).unwrap();
            let c = exhaustive.process_tick(&tick).unwrap();
            // Fully bit-identical outcomes: both evaluate the exact D of
            // every anchor; bounds only skip losers.
            assert_eq!(m, c, "tick {t}: composed diverged from exhaustive");
        }
        let totals = composed.prune_totals();
        assert!(totals.candidates > 0);
        assert!(
            totals.pruned > 0,
            "expected composed pruning on a periodic signal: {totals:?}"
        );
        assert!(
            totals.shortlisted > 0 && totals.shortlisted < totals.candidates,
            "composed path should fold some candidates, not all: {totals:?}"
        );
        assert_eq!(totals.maintained_pruned, 0);
        assert_eq!(composed.shortlisted_lag_count(), 0);
        assert_eq!(exhaustive.prune_totals(), PruneStats::default());
    }

    #[test]
    fn constructor_validation() {
        let config = small_config(64, 2, 2, 1);
        assert!(TkcmEngine::new(0, config.clone(), Catalog::new()).is_err());
        let bad = TkcmConfig {
            pattern_length: 0,
            ..TkcmConfig::default()
        };
        assert!(TkcmEngine::new(2, bad, Catalog::new()).is_err());
    }

    #[test]
    fn accessors_expose_state() {
        let config = small_config(64, 2, 2, 1);
        let engine = TkcmEngine::new(2, config.clone(), catalog_for(2)).unwrap();
        assert_eq!(engine.config().window_length, 64);
        assert_eq!(engine.window().width(), 2);
        assert_eq!(engine.catalog().len(), 2);
        assert_eq!(engine.ticks_processed(), 0);
        assert_eq!(engine.imputations_performed(), 0);
    }
}
