//! Regression tests for timestamp handling at real sensor cadences.
//!
//! The paper's running example samples every 5 minutes; the Chlorine dataset
//! every 10 minutes.  When tick timestamps carry that cadence (e.g. epoch
//! seconds 600 apart) the engine must report the *actual* tick times for
//! imputations and anchors.  A previous implementation computed anchor times
//! as `now - age` — correct only when consecutive ticks are exactly one
//! timestamp unit apart — so at a 600-second cadence every reported anchor
//! time fell between two real ticks.

use tkcm_core::{TkcmConfig, TkcmEngine};
use tkcm_timeseries::{Catalog, SeriesId, StreamTick, Timestamp};

const CADENCE: i64 = 600;

/// The default composed path (`true`) or the exhaustive oracle (`false`).
fn config(composed: bool) -> TkcmConfig {
    TkcmConfig::builder()
        .window_length(256)
        .pattern_length(4)
        .anchor_count(3)
        .reference_count(2)
        .pruning(composed)
        .build()
        .unwrap()
}

fn sine(t: usize, shift: f64) -> f64 {
    ((t as f64 - shift) / 32.0 * std::f64::consts::TAU).sin()
}

/// Streams 10-minute-cadence data with a gap and returns the engine plus all
/// imputations `(tick index, Imputation)`.
fn run_at_cadence(composed: bool) -> (TkcmEngine, Vec<(usize, tkcm_core::Imputation)>) {
    let width = 3;
    let mut engine =
        TkcmEngine::new(width, config(composed), Catalog::ring_neighbours(width)).unwrap();
    let mut imputations = Vec::new();
    for i in 0..256usize {
        let missing = (200..220).contains(&i);
        let s0 = if missing { None } else { Some(sine(i, 0.0)) };
        let tick = StreamTick::new(
            Timestamp::new(i as i64 * CADENCE),
            vec![s0, Some(sine(i, 5.0)), Some(sine(i, 11.0))],
        );
        let outcome = engine.process_tick(&tick).unwrap();
        for imp in outcome.imputations {
            imputations.push((i, imp));
        }
    }
    (engine, imputations)
}

#[test]
fn imputation_and_anchor_times_match_the_real_tick_times() {
    for composed in [true, false] {
        let (engine, imputations) = run_at_cadence(composed);
        assert_eq!(imputations.len(), 20);
        for (i, imp) in &imputations {
            // The imputed time point is the arriving tick's own timestamp.
            assert_eq!(
                imp.time,
                Timestamp::new(*i as i64 * CADENCE),
                "imputation time off at tick {i} (composed={composed})"
            );
            assert!(!imp.detail.anchors.is_empty());
            for anchor in &imp.detail.anchors {
                // Every anchor must sit exactly on a past tick of the
                // 600-second grid...
                assert_eq!(
                    anchor.time.tick() % CADENCE,
                    0,
                    "anchor time {} is not a real tick time (composed={composed})",
                    anchor.time
                );
                assert!(anchor.time < imp.time);
            }
            // ...and the newest anchors must still resolve in the window to
            // the value the anchor reported (the anchor provenance rule:
            // observed target values only).
            let anchor = imp.detail.anchors.last().unwrap();
            if let Ok(v) = engine.window().value_at(SeriesId(0), anchor.time) {
                if *i == 255 {
                    assert_eq!(v, Some(anchor.value));
                }
            }
        }
    }
}

#[test]
fn cadence_does_not_change_what_gets_imputed() {
    // The imputed *values* are a function of tick indices only — replaying
    // the identical data at unit cadence must produce identical values, and
    // the composed and exact engines must agree at the real cadence.
    let (_, at_cadence) = run_at_cadence(true);
    let (_, exact) = run_at_cadence(false);
    assert_eq!(at_cadence.len(), exact.len());
    for ((i_a, a), (i_b, b)) in at_cadence.iter().zip(exact.iter()) {
        assert_eq!(i_a, i_b);
        assert_eq!(a.value, b.value, "composed vs exact at tick {i_a}");
    }

    let width = 3;
    let mut unit = TkcmEngine::new(width, config(true), Catalog::ring_neighbours(width)).unwrap();
    let mut unit_imputations = Vec::new();
    for i in 0..256usize {
        let missing = (200..220).contains(&i);
        let s0 = if missing { None } else { Some(sine(i, 0.0)) };
        let tick = StreamTick::new(
            Timestamp::new(i as i64),
            vec![s0, Some(sine(i, 5.0)), Some(sine(i, 11.0))],
        );
        for imp in unit.process_tick(&tick).unwrap().imputations {
            unit_imputations.push(imp.value);
        }
    }
    for ((_, a), b) in at_cadence.iter().zip(unit_imputations.iter()) {
        assert_eq!(a.value, *b, "cadence changed an imputed value");
    }
}

/// Irregular (jittered) tick timestamps of a real-world sensor feed: the
/// nominal 600-second cadence plus a deterministic per-tick network delay,
/// so consecutive deltas vary but stay strictly increasing.
fn jittered_time(i: usize) -> i64 {
    i as i64 * CADENCE + ((i as i64 * 37) % 241)
}

#[test]
fn jittered_cadence_through_the_fleet_path_matches_sequential() {
    // Two independent 3-series clusters replayed through the multi-threaded
    // ShardedEngine at 2 shards and through one sequential TkcmEngine over
    // the same catalog (the clusters are the catalog components, so no edge
    // is dropped and the two must agree exactly).  All reported times —
    // imputation times and anchor times — must sit on the *jittered* grid,
    // which a `now - age` timestamp computation cannot produce.
    use tkcm_runtime::ShardedEngine;

    let width = 6;
    let mut catalog = Catalog::new();
    for cluster in 0..2usize {
        let base = cluster * 3;
        for member in 0..3usize {
            let ranked = (1..3)
                .map(|step| SeriesId::from(base + (member + step) % 3))
                .collect();
            catalog
                .set_candidates(SeriesId::from(base + member), ranked)
                .unwrap();
        }
    }

    let mut sharded = ShardedEngine::new(width, config(true), catalog.clone(), 2).unwrap();
    assert_eq!(sharded.shard_count(), 2);
    let mut sequential = TkcmEngine::new(width, config(true), catalog).unwrap();

    let mut tick_times = Vec::new();
    let mut checked_imputations = 0usize;
    for i in 0..256usize {
        let time = jittered_time(i);
        tick_times.push(time);
        let values: Vec<Option<f64>> = (0..width)
            .map(|s| {
                // Staggered outages across both clusters.
                if i > 190 && (i + 9 * s) % 17 < 4 {
                    None
                } else {
                    Some(sine(i, (2 * s) as f64))
                }
            })
            .collect();
        let tick = StreamTick::new(Timestamp::new(time), values);
        let fleet_outcome = sharded.process_tick(&tick).unwrap();
        let seq_outcome = sequential.process_tick(&tick).unwrap();

        assert_eq!(
            fleet_outcome.imputations.len(),
            seq_outcome.imputations.len(),
            "tick {i}: sharded and sequential disagree on what to impute"
        );
        for (fleet, seq) in fleet_outcome
            .imputations
            .iter()
            .zip(seq_outcome.imputations.iter())
        {
            checked_imputations += 1;
            assert_eq!(fleet.series, seq.series);
            // Reported times must agree between the fleet and sequential
            // paths AND be real jittered tick times.
            assert_eq!(fleet.time, seq.time, "tick {i}: imputation time diverged");
            assert_eq!(fleet.time, Timestamp::new(time));
            assert_eq!(fleet.value.to_bits(), seq.value.to_bits());
            let fleet_anchor_times: Vec<Timestamp> =
                fleet.detail.anchors.iter().map(|a| a.time).collect();
            let seq_anchor_times: Vec<Timestamp> =
                seq.detail.anchors.iter().map(|a| a.time).collect();
            assert_eq!(
                fleet_anchor_times, seq_anchor_times,
                "tick {i}: anchor times diverged between fleet and sequential"
            );
            for anchor in &fleet_anchor_times {
                assert!(
                    tick_times.binary_search(&anchor.tick()).is_ok(),
                    "tick {i}: anchor time {anchor} is not a real jittered tick time"
                );
            }
        }
        assert_eq!(fleet_outcome.skipped, seq_outcome.skipped);
    }
    assert!(
        checked_imputations > 20,
        "schedule produced too few imputations ({checked_imputations}) to be meaningful"
    );
}

#[test]
fn jittered_cadence_survives_eight_shards_and_a_migration() {
    // The widest fleet shape the partitioner supports in CI: eight 2-series
    // clusters spread over 8 shards (one component per shard), replayed on
    // the jittered grid against a sequential engine, with a component
    // forcibly migrated mid-stream.  Migration hands engine state across
    // workers through the snapshot codec — if any path reconstructed times
    // from ages, the handed-off component's anchors would leave the grid.
    use tkcm_runtime::ShardedEngine;

    let clusters = 8usize;
    let width = clusters * 2;
    let mut catalog = Catalog::new();
    for cluster in 0..clusters {
        let base = cluster * 2;
        catalog
            .set_candidates(SeriesId::from(base), vec![SeriesId::from(base + 1)])
            .unwrap();
        catalog
            .set_candidates(SeriesId::from(base + 1), vec![SeriesId::from(base)])
            .unwrap();
    }

    let mut sharded = ShardedEngine::new(width, config(true), catalog.clone(), 8).unwrap();
    assert_eq!(sharded.shard_count(), 8);
    assert_eq!(sharded.partition().component_count(), clusters);
    let mut sequential = TkcmEngine::new(width, config(true), catalog).unwrap();

    let mut tick_times = Vec::new();
    let mut checked_imputations = 0usize;
    for i in 0..256usize {
        if i == 140 {
            // Move cluster 0 off shard 0 onto the last shard mid-stream.
            sharded.force_migration(0, 7).unwrap();
        }
        let time = jittered_time(i);
        tick_times.push(time);
        let values: Vec<Option<f64>> = (0..width)
            .map(|s| {
                if i > 180 && (i + 5 * s) % 11 < 3 {
                    None
                } else {
                    Some(sine(i, (3 * s) as f64))
                }
            })
            .collect();
        let tick = StreamTick::new(Timestamp::new(time), values);
        let fleet_outcome = sharded.process_tick(&tick).unwrap();
        let seq_outcome = sequential.process_tick(&tick).unwrap();

        assert_eq!(
            fleet_outcome.imputations.len(),
            seq_outcome.imputations.len(),
            "tick {i}: 8-shard fleet and sequential disagree on what to impute"
        );
        for (fleet, seq) in fleet_outcome
            .imputations
            .iter()
            .zip(seq_outcome.imputations.iter())
        {
            checked_imputations += 1;
            assert_eq!(fleet.series, seq.series);
            assert_eq!(fleet.time, seq.time, "tick {i}: imputation time diverged");
            assert_eq!(fleet.time, Timestamp::new(time));
            assert_eq!(fleet.value.to_bits(), seq.value.to_bits());
            for anchor in &fleet.detail.anchors {
                assert!(
                    tick_times.binary_search(&anchor.time.tick()).is_ok(),
                    "tick {i}: anchor time {} is not a real jittered tick time",
                    anchor.time
                );
            }
        }
        assert_eq!(fleet_outcome.skipped, seq_outcome.skipped);
    }
    assert_eq!(sharded.partition().shard_of_component(0), 7);
    assert_eq!(sharded.migrations_performed(), 1);
    assert!(
        checked_imputations > 40,
        "schedule produced too few imputations ({checked_imputations}) to be meaningful"
    );
}
