//! Golden byte image of one shard WAL written by a durable fleet.
//!
//! `golden/shard-0.wal` is shard 0's log from a small durable fleet (three
//! pair components over two shards, 24 ticks in batches of four), written
//! while every record was built as a `ShardWalRecord { component,
//! WalEntry::from_outcome(..) }` and framed through `WalWriter::append_batch`.
//! The log holds imputations (write-backs), a skipped tick (both members of
//! a pair missing) and a NaN reading.  However the workers build and frame
//! their records, the bytes on disk must stay these.

use std::path::PathBuf;

use tkcm_core::{TkcmConfig, WalEntry};
use tkcm_runtime::{DurabilityOptions, ShardedEngine, SyncPolicy};
use tkcm_store::{read_wal_records, Decoder, Encoder, Snapshot};
use tkcm_timeseries::{Catalog, SeriesId, StreamTick, Timestamp};

const GOLDEN_WAL: &[u8] = include_bytes!("golden/shard-0.wal");

const WIDTH: usize = 6;
const TICKS: usize = 24;

fn config() -> TkcmConfig {
    TkcmConfig::builder()
        .window_length(16)
        .pattern_length(2)
        .anchor_count(2)
        .reference_count(1)
        .build()
        .unwrap()
}

/// Pairs `(0, 1)`, `(2, 3)` and `(4, 5)`, each member the other's only
/// candidate: three components.
fn catalog() -> Catalog {
    let mut catalog = Catalog::new();
    for pair in 0..WIDTH / 2 {
        let (a, b) = (SeriesId::from(2 * pair), SeriesId::from(2 * pair + 1));
        catalog.set_candidates(a, vec![b]).unwrap();
        catalog.set_candidates(b, vec![a]).unwrap();
    }
    catalog
}

/// Readings at a 600 s cadence: series `s` is missing at every tick from
/// 12 on where `(t + s) % 5 == 0`, both members of pair `(0, 1)` are
/// missing at tick 17 (a skip), and series 4 reads NaN at tick 20.
fn tick(t: usize) -> StreamTick {
    let values = (0..WIDTH)
        .map(|s| {
            if (t >= 12 && (t + s).is_multiple_of(5)) || (t == 17 && s < 2) {
                None
            } else if t == 20 && s == 4 {
                Some(f64::NAN)
            } else {
                Some(((t * 7 + s * 3) as f64 * 0.37).sin() * (10.0 + s as f64))
            }
        })
        .collect();
    StreamTick::new(Timestamp::new(600 * t as i64), values)
}

/// Runs the fleet in a fresh directory and returns it with shard 0's log
/// path.
fn run_fleet(tag: &str) -> (PathBuf, PathBuf) {
    let dir = std::env::temp_dir().join(format!("tkcm-golden-wal-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut fleet = ShardedEngine::with_durability(
        WIDTH,
        config(),
        catalog(),
        2,
        &dir,
        DurabilityOptions {
            snapshot_interval: 0,
            sync_policy: SyncPolicy::Never,
        },
    )
    .unwrap();
    let ticks: Vec<StreamTick> = (0..TICKS).map(tick).collect();
    let mut imputations = 0;
    let mut skips = 0;
    for batch in ticks.chunks(4) {
        for outcome in fleet.process_batch(batch).unwrap() {
            imputations += outcome.imputations.len();
            skips += outcome.skipped.len();
        }
    }
    assert!(imputations > 0 && skips > 0, "{imputations} / {skips}");
    drop(fleet);
    let wal = dir.join("shard-0.wal");
    (dir, wal)
}

#[test]
fn shard_0_logs_the_golden_bytes() {
    let (dir, wal) = run_fleet("write");
    assert_eq!(std::fs::read(&wal).unwrap(), GOLDEN_WAL);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn the_golden_log_decodes_back_to_the_fleet_input() {
    let path = PathBuf::from(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden/shard-0.wal"
    ));
    let payloads = read_wal_records(&path).unwrap();
    let mut components = Vec::new();
    let mut write_backs = 0;
    let mut skipped_ticks = 0;
    for payload in &payloads {
        let mut dec = Decoder::new(payload);
        let component = dec.usize().unwrap();
        let entry = WalEntry::read_from(&mut dec).unwrap();
        dec.finish().unwrap();
        // Every record re-encodes to its payload.
        let mut enc = Encoder::new();
        enc.usize(component);
        entry.write_into(&mut enc).unwrap();
        assert_eq!(enc.bytes(), payload.as_slice());
        if !components.contains(&component) {
            components.push(component);
        }
        let missing = entry.tick.values.iter().filter(|v| v.is_none()).count();
        if missing > entry.write_backs.len() {
            skipped_ticks += 1;
        }
        write_backs += entry.write_backs.len();
    }
    // Tick-major: every component of shard 0 logs each of the 24 ticks.
    assert!(components.len() >= 2, "{components:?}");
    assert_eq!(payloads.len(), TICKS * components.len());
    assert!(write_backs > 0);
    assert!(skipped_ticks > 0);
}
