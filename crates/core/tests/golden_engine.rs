//! Golden byte image of one engine snapshot file, and the determinism it
//! rests on.
//!
//! An engine snapshot holds state only — configuration, window, catalog
//! and the tick and imputation counters — and no telemetry (phase
//! durations, prune totals), so two engines fed the same ticks write the
//! same bytes.  `golden/engine.snap` is the snapshot file (format 12) of
//! the engine [`engine`] builds: it has
//! imputed values with anchors, taken a fallback, and ingested a NaN and an
//! `∞` reading.  A codec change that keeps round trips working but changes
//! the bytes on disk fails here.

use std::path::PathBuf;

use tkcm_core::{EngineOutcome, TkcmConfig, TkcmEngine};
use tkcm_store::{encode_to_vec, read_snapshot_file, write_snapshot_file};
use tkcm_timeseries::{Catalog, SeriesId, SlotState, StreamTick, Timestamp};

const GOLDEN_ENGINE: &[u8] = include_bytes!("golden/engine.snap");

const WIDTH: usize = 3;
const TICKS: usize = 40;

fn config(pruning: bool) -> TkcmConfig {
    TkcmConfig::builder()
        .window_length(24)
        .pattern_length(3)
        .anchor_count(2)
        .reference_count(2)
        .pruning(pruning)
        .build()
        .unwrap()
}

/// Readings at a 600 s cadence: series 0 is missing at tick 1 (too early
/// for any anchor: a fallback) and at ticks 30–33, series 1 reads NaN at
/// tick 17 and series 2 reads `+∞` at tick 23.
fn tick(t: usize) -> StreamTick {
    let values = (0..WIDTH)
        .map(|s| match (t, s) {
            (1, 0) | (30..=33, 0) => None,
            (17, 1) => Some(f64::NAN),
            (23, 2) => Some(f64::INFINITY),
            _ => Some(((t * 5 + s * 2) as f64 * 0.41).sin() * (4.0 + s as f64)),
        })
        .collect();
    StreamTick::new(Timestamp::new(600 * t as i64), values)
}

/// An engine fed every tick, with the outcomes it returned.
fn engine(pruning: bool) -> (TkcmEngine, Vec<EngineOutcome>) {
    let mut engine =
        TkcmEngine::new(WIDTH, config(pruning), Catalog::ring_neighbours(WIDTH)).unwrap();
    let outcomes = (0..TICKS)
        .map(|t| engine.process_tick(&tick(t)).unwrap())
        .collect();
    (engine, outcomes)
}

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("tkcm-core-golden-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

#[test]
fn the_engine_imputes_falls_back_and_ingests_non_finite_readings() {
    let (engine, outcomes) = engine(true);
    let details: Vec<_> = outcomes
        .iter()
        .flat_map(|o| &o.imputations)
        .map(|i| &i.detail)
        .collect();
    assert!(details.iter().any(|d| d.fallback));
    assert!(details.iter().any(|d| !d.fallback && !d.anchors.is_empty()));
    // The NaN and the ∞ reading were stored as missing and imputed.
    let window = engine.window();
    for (series, t) in [(1, 17), (2, 23)] {
        let slot = window.slot_recent(SeriesId(series), TICKS - 1 - t).unwrap();
        assert_eq!(slot.state, SlotState::Imputed, "series {series} at {t}");
    }
    assert_eq!(engine.imputations_performed(), details.len());
    assert_eq!(engine.imputations_performed(), 7);
}

#[test]
fn engines_fed_the_same_ticks_encode_to_the_same_bytes() {
    for pruning in [true, false] {
        let (a, outcomes_a) = engine(pruning);
        let (b, outcomes_b) = engine(pruning);
        assert_eq!(outcomes_a, outcomes_b, "pruning {pruning}");
        assert_eq!(
            encode_to_vec(&a).unwrap(),
            encode_to_vec(&b).unwrap(),
            "pruning {pruning}"
        );
    }
}

#[test]
fn an_engine_writes_the_golden_snapshot() {
    let path = scratch("engine.snap");
    let size = write_snapshot_file(&path, &engine(true).0).unwrap();
    assert_eq!(size, GOLDEN_ENGINE.len() as u64);
    assert_eq!(std::fs::read(&path).unwrap(), GOLDEN_ENGINE);
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn the_golden_snapshot_decodes_and_re_encodes_to_its_bytes() {
    let golden = PathBuf::from(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden/engine.snap"
    ));
    let decoded: TkcmEngine = read_snapshot_file(&golden).unwrap();
    assert_eq!(decoded.ticks_processed(), TICKS);
    assert_eq!(decoded.imputations_performed(), 7);
    assert_eq!(decoded.phase_breakdown().imputations, 7);
    let path = scratch("re-encoded.snap");
    write_snapshot_file(&path, &decoded).unwrap();
    assert_eq!(std::fs::read(&path).unwrap(), GOLDEN_ENGINE);
    std::fs::remove_file(&path).unwrap();
}
