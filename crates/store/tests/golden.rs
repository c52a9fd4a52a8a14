//! Golden byte images of both file formats.
//!
//! `golden/snapshot.snap` and `golden/two-records.wal` were written by the
//! bytewise-CRC store, before the sliced checksum and the one-pass framing.
//! A writer and a reader that changed consistently would still pass every
//! round-trip test while making existing checkpoint directories unreadable;
//! these images pin the bytes on disk instead.  Any intended layout change
//! bumps `SNAPSHOT_FORMAT_VERSION` / `WAL_FORMAT_VERSION` and regenerates
//! them.

use std::path::{Path, PathBuf};

use tkcm_store::{read_snapshot_file, read_wal, write_snapshot_file, WalWriter};

const GOLDEN_SNAPSHOT: &[u8] = include_bytes!("golden/snapshot.snap");
const GOLDEN_WAL: &[u8] = include_bytes!("golden/two-records.wal");

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("tkcm-store-golden-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

/// The value in the golden snapshot: 24 readings, every fifth one missing.
fn snapshot_value() -> Vec<Option<f64>> {
    (0..24)
        .map(|i| (i % 5 != 3).then(|| (i as f64 * 0.7).sin() * 1e3))
        .collect()
}

/// The two records of the golden WAL, appended as one batch.
fn wal_records() -> Vec<Vec<u64>> {
    vec![
        (0..5u64).map(|i| i * 0x0101_0101_0101).collect(),
        vec![u64::MAX, 0, 42],
    ]
}

fn bits(values: &[Option<f64>]) -> Vec<Option<u64>> {
    values.iter().map(|v| v.map(f64::to_bits)).collect()
}

#[test]
fn snapshot_writes_the_golden_bytes() {
    let path = scratch("snapshot.snap");
    let size = write_snapshot_file(&path, &snapshot_value()).unwrap();
    assert_eq!(size, GOLDEN_SNAPSHOT.len() as u64);
    assert_eq!(std::fs::read(&path).unwrap(), GOLDEN_SNAPSHOT);
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn the_golden_snapshot_reads_back() {
    let back: Vec<Option<f64>> = read_snapshot_file(Path::new(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden/snapshot.snap"
    )))
    .unwrap();
    assert_eq!(bits(&back), bits(&snapshot_value()));
}

#[test]
fn wal_batch_writes_the_golden_bytes() {
    let path = scratch("two-records.wal");
    let mut wal = WalWriter::create(&path).unwrap();
    let appended = wal.append_batch(&wal_records()).unwrap();
    drop(wal);
    assert_eq!(appended, (GOLDEN_WAL.len() - 12) as u64);
    assert_eq!(std::fs::read(&path).unwrap(), GOLDEN_WAL);
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn the_golden_wal_reads_back() {
    let back: Vec<Vec<u64>> = read_wal(Path::new(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden/two-records.wal"
    )))
    .unwrap();
    assert_eq!(back, wal_records());
}
