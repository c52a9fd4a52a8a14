//! Durability configuration, checkpoint directory layout and the manifest.
//!
//! A checkpoint directory holds one snapshot and (for durable engines) one
//! write-ahead log per shard, plus a manifest tying them together:
//!
//! ```text
//! <dir>/MANIFEST        partition (+ assignment version), WAL flag, …
//! <dir>/shard-0.snap    per-component TkcmEngine states of shard 0
//! <dir>/shard-0.wal     component-tagged ticks + write-backs of shard 0
//! <dir>/shard-1.snap    ...
//! ```
//!
//! Shard files are stamped with the partition's live-mapping version:
//! version 0 (no migration yet) uses the plain `shard-N.snap` / `shard-N.wal`
//! names above, version `v > 0` uses `shard-N-v7.snap` / `shard-N-v7.wal`.
//! A migration checkpoint therefore writes a *new* set of files and commits
//! them by atomically renaming the manifest into place — a crash anywhere
//! before that rename leaves the previous version's files untouched and
//! recovery resumes from the pre-migration assignment (which is output
//! equivalent by construction); stale versions are cleaned up best-effort
//! after the rename.
//!
//! All three file kinds are written through `tkcm-store`, so they carry
//! magic bytes, a format version and CRC-32 checksums; snapshots and the
//! manifest are written to a temporary file and renamed into place.
//! Recovery is `manifest → per-shard snapshot → per-shard WAL replay`,
//! reconciled to the newest tick *every* component reached (see
//! [`crate::ShardedEngine::recover`]).

use std::path::{Path, PathBuf};

use tkcm_core::{EngineOutcome, TkcmEngine, WalEntry};
use tkcm_store::{Decoder, Encoder, Snapshot, StoreError};
use tkcm_timeseries::{FleetPartition, StreamTick};

/// When a durable [`crate::ShardedEngine`]'s workers `fsync` their WALs.
///
/// Every appended record is process-crash durable the moment the append's
/// `write_all` returns (the bytes are in the page cache; the OS survives the
/// process).  *Power-failure* durability additionally needs an `fsync`, and
/// this knob is the group-commit policy deciding how often that price is
/// paid.  Syncs happen at **batch boundaries** only — after a worker has
/// appended a whole batch's records with one buffered write — so the cost is
/// amortised over the batch.
///
/// A failed `fsync` is never dropped: the error propagates out of the
/// processing call and poisons the fleet engine, because after a sync
/// failure the kernel may have discarded the dirty pages and the log's
/// durable prefix is unknowable (the lesson of fsyncgate).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum SyncPolicy {
    /// Never fsync, neither on the tick path nor at a rotation (which
    /// still renames snapshots atomically).  Process-crash durable only; a
    /// power failure may lose the tail the OS had not flushed.  The
    /// default, and the pre-batching behaviour.
    #[default]
    Never,
    /// fsync once per processed batch.  Power-failure durability at one
    /// fsync per batch — the classic group commit: at batch size 1 this is
    /// the per-tick fsync cost, at batch size 64 the same guarantee costs
    /// 1/64th of it.
    ///
    /// Rotations keep the guarantee: a worker fsyncs its new snapshot and
    /// the directory before it resets its WAL, and the fresh WAL and the
    /// manifest are fsynced with the directory after their renames.  A
    /// failed sync there fails the checkpoint and leaves the WAL whole.
    EveryBatch,
}

impl Snapshot for SyncPolicy {
    fn write_into(&self, enc: &mut Encoder) -> Result<(), StoreError> {
        enc.u8(match self {
            SyncPolicy::Never => 0,
            SyncPolicy::EveryBatch => 1,
        });
        Ok(())
    }

    fn read_from(dec: &mut Decoder<'_>) -> Result<Self, StoreError> {
        match dec.u8()? {
            0 => Ok(SyncPolicy::Never),
            1 => Ok(SyncPolicy::EveryBatch),
            other => Err(StoreError::corrupt(format!(
                "invalid sync policy tag {other}"
            ))),
        }
    }
}

/// How a durable [`crate::ShardedEngine`] checkpoints.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DurabilityOptions {
    /// Fleet ticks between automatic snapshot rotations.  Whenever a batch
    /// boundary crosses a multiple of `snapshot_interval` processed ticks
    /// the engine rewrites the per-shard snapshots and truncates the
    /// per-shard WALs, bounding both recovery time and log growth.  `0`
    /// disables automatic rotation (the WAL grows until an explicit
    /// [`crate::ShardedEngine::checkpoint`] call).
    pub snapshot_interval: usize,
    /// The group-commit fsync policy of the per-shard WALs.
    pub sync_policy: SyncPolicy,
}

impl Default for DurabilityOptions {
    fn default() -> Self {
        DurabilityOptions {
            snapshot_interval: 1024,
            sync_policy: SyncPolicy::default(),
        }
    }
}

/// How [`crate::ShardedEngine::recover_with`] treats imperfect directories.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RecoveryOptions {
    /// Tolerate a torn *trailing* WAL frame (the kill-mid-append crash
    /// mode): the intact record prefix is replayed and the shard gets a
    /// fresh snapshot + truncated log.  Off by default — the strict default
    /// treats any malformed byte as corruption, because a flipped byte in
    /// the final frame's length field is indistinguishable from a torn
    /// tail.  Interior corruption (a bad checksum on a complete record)
    /// fails recovery regardless of this flag.
    pub tolerate_torn_wal_tail: bool,
}

/// Result of one fleet checkpoint.
#[derive(Clone, Debug, PartialEq)]
pub struct CheckpointStats {
    /// Snapshot file size per shard, in shard order.
    pub shard_snapshot_bytes: Vec<u64>,
    /// Wall-clock seconds the whole checkpoint barrier took.
    pub seconds: f64,
}

impl CheckpointStats {
    /// Total snapshot bytes across all shards.
    pub fn snapshot_bytes(&self) -> u64 {
        self.shard_snapshot_bytes.iter().sum()
    }
}

/// The manifest written at the root of a checkpoint directory.
#[derive(Clone, Debug, PartialEq)]
pub(crate) struct Manifest {
    /// The exact partition the fleet ran with (width included); recovery
    /// rebuilds the same shard layout from it instead of re-deriving one
    /// from a catalog.
    pub partition: FleetPartition,
    /// Whether this directory carries per-shard WALs, i.e. it is a durable
    /// engine's own checkpoint directory.  `false` for snapshot-only
    /// checkpoints — a plain engine's, or a durable engine's out-of-band
    /// backup into a foreign directory (whose WALs live elsewhere).
    pub wal: bool,
    /// The snapshot rotation interval to re-arm on recovery; meaningful
    /// only when `wal` is set (`0` there means "explicit checkpoints only").
    pub snapshot_interval: usize,
    /// The group-commit sync policy to re-arm on recovery; like
    /// `snapshot_interval`, meaningful only when `wal` is set (snapshot-only
    /// checkpoints record [`SyncPolicy::Never`]).
    pub sync_policy: SyncPolicy,
}

impl Snapshot for Manifest {
    fn write_into(&self, enc: &mut Encoder) -> Result<(), StoreError> {
        self.partition.write_into(enc)?;
        enc.bool(self.wal);
        enc.usize(self.snapshot_interval);
        self.sync_policy.write_into(enc)?;
        Ok(())
    }

    fn read_from(dec: &mut Decoder<'_>) -> Result<Self, StoreError> {
        Ok(Manifest {
            partition: FleetPartition::read_from(dec)?,
            wal: dec.bool()?,
            snapshot_interval: dec.usize()?,
            sync_policy: SyncPolicy::read_from(dec)?,
        })
    }
}

/// One shard's snapshot payload: the engines of every component currently
/// assigned to the shard, tagged with their component ids, ascending.
pub(crate) struct ShardSnapshot {
    /// `(component id, engine)` pairs, strictly ascending by component id.
    pub engines: Vec<(usize, TkcmEngine)>,
}

impl Snapshot for ShardSnapshot {
    fn write_into(&self, enc: &mut Encoder) -> Result<(), StoreError> {
        enc.usize(self.engines.len());
        for (component, engine) in &self.engines {
            enc.usize(*component);
            engine.write_into(enc)?;
        }
        Ok(())
    }

    fn read_from(dec: &mut Decoder<'_>) -> Result<Self, StoreError> {
        let count = dec.seq_len()?;
        let mut engines: Vec<(usize, TkcmEngine)> = Vec::with_capacity(count);
        for _ in 0..count {
            let component = dec.usize()?;
            if engines.last().is_some_and(|(prev, _)| *prev >= component) {
                return Err(StoreError::invalid(format!(
                    "shard snapshot components are not strictly ascending at {component}"
                )));
            }
            engines.push((component, TkcmEngine::read_from(dec)?));
        }
        Ok(ShardSnapshot { engines })
    }
}

/// One shard WAL record: the [`WalEntry`] of one component at one tick
/// (tick + write-backs in component-local id space), tagged with the
/// component id so replay can route it to the right per-component engine.
#[derive(Debug, PartialEq)]
pub(crate) struct ShardWalRecord {
    pub component: usize,
    pub entry: WalEntry,
}

impl ShardWalRecord {
    /// Writes the bytes of `ShardWalRecord { component, entry:
    /// WalEntry::from_outcome(tick, outcome) }` straight from the
    /// component's live sub-tick and outcome (component-local ids), so a
    /// worker logs a tick without cloning it into a record.
    pub(crate) fn write_outcome(
        component: usize,
        tick: &StreamTick,
        outcome: &EngineOutcome,
        enc: &mut Encoder,
    ) -> Result<(), StoreError> {
        enc.usize(component);
        WalEntry::write_outcome(tick, outcome, enc)
    }
}

impl Snapshot for ShardWalRecord {
    fn write_into(&self, enc: &mut Encoder) -> Result<(), StoreError> {
        enc.usize(self.component);
        self.entry.write_into(enc)?;
        Ok(())
    }

    fn read_from(dec: &mut Decoder<'_>) -> Result<Self, StoreError> {
        let component = dec.usize()?;
        let entry = WalEntry::read_from(dec)?;
        Ok(ShardWalRecord { component, entry })
    }
}

/// Path of the manifest inside a checkpoint directory.
pub(crate) fn manifest_path(dir: &Path) -> PathBuf {
    dir.join("MANIFEST")
}

/// Path of one shard's snapshot file at one live-mapping version.  Version 0
/// keeps the historical `shard-N.snap` name; migrated mappings move to
/// `shard-N-v7.snap` so a migration checkpoint never overwrites the files
/// the current manifest still points at.
pub(crate) fn shard_snapshot_path(dir: &Path, shard: usize, version: u64) -> PathBuf {
    if version == 0 {
        dir.join(format!("shard-{shard}.snap"))
    } else {
        dir.join(format!("shard-{shard}-v{version}.snap"))
    }
}

/// Path of one shard's write-ahead log at one live-mapping version (same
/// naming rule as [`shard_snapshot_path`]).
pub(crate) fn shard_wal_path(dir: &Path, shard: usize, version: u64) -> PathBuf {
    if version == 0 {
        dir.join(format!("shard-{shard}.wal"))
    } else {
        dir.join(format!("shard-{shard}-v{version}.wal"))
    }
}

/// Best-effort removal of shard files from other live-mapping versions than
/// `keep` — run after the manifest rename committed a migration checkpoint.
/// Only files matching the exact `shard-<n>[-v<v>].snap/.wal` pattern are
/// touched; failures are ignored (a later checkpoint retries).
pub(crate) fn remove_stale_shard_files(dir: &Path, keep: u64) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        if let Some(version) = shard_file_version(name) {
            if version != keep {
                let _ = std::fs::remove_file(entry.path());
            }
        }
    }
}

/// The live-mapping version a `shard-<n>[-v<v>].snap/.wal` file name carries,
/// or `None` for names that are not shard files.
fn shard_file_version(name: &str) -> Option<u64> {
    let stem = name
        .strip_suffix(".snap")
        .or_else(|| name.strip_suffix(".wal"))?;
    let rest = stem.strip_prefix("shard-")?;
    match rest.split_once("-v") {
        None => {
            // `shard-<n>`: version 0.
            rest.chars().all(|c| c.is_ascii_digit()).then_some(0)
        }
        Some((shard, version)) => {
            if shard.is_empty() || !shard.chars().all(|c| c.is_ascii_digit()) {
                return None;
            }
            version.parse::<u64>().ok().filter(|v| *v > 0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tkcm_store::{decode_from_slice, encode_to_vec};
    use tkcm_timeseries::Catalog;

    #[test]
    fn manifest_round_trips() {
        let partition = FleetPartition::new(6, &Catalog::ring_neighbours(6), 2).unwrap();
        for sync_policy in [SyncPolicy::Never, SyncPolicy::EveryBatch] {
            let manifest = Manifest {
                partition: partition.clone(),
                wal: true,
                snapshot_interval: 512,
                sync_policy,
            };
            let back: Manifest = decode_from_slice(&encode_to_vec(&manifest).unwrap()).unwrap();
            assert_eq!(back, manifest);
            assert_eq!(back.partition.width(), 6);
        }
    }

    #[test]
    fn sync_policy_rejects_unknown_tags() {
        let mut enc = Encoder::new();
        enc.u8(2);
        assert!(decode_from_slice::<SyncPolicy>(&enc.into_bytes()).is_err());
    }

    #[test]
    fn paths_are_deterministic() {
        let dir = Path::new("/tmp/ckpt");
        assert_eq!(manifest_path(dir), dir.join("MANIFEST"));
        assert_eq!(shard_snapshot_path(dir, 3, 0), dir.join("shard-3.snap"));
        assert_eq!(shard_wal_path(dir, 0, 0), dir.join("shard-0.wal"));
        assert_eq!(shard_snapshot_path(dir, 3, 7), dir.join("shard-3-v7.snap"));
        assert_eq!(shard_wal_path(dir, 1, 2), dir.join("shard-1-v2.wal"));
    }

    #[test]
    fn shard_file_versions_parse_strictly() {
        assert_eq!(shard_file_version("shard-0.snap"), Some(0));
        assert_eq!(shard_file_version("shard-12.wal"), Some(0));
        assert_eq!(shard_file_version("shard-0-v3.snap"), Some(3));
        assert_eq!(shard_file_version("shard-7-v12.wal"), Some(12));
        assert_eq!(shard_file_version("MANIFEST"), None);
        assert_eq!(shard_file_version("shard-0.snap.tmp"), None);
        assert_eq!(shard_file_version("shard-x.snap"), None);
        assert_eq!(shard_file_version("shard--v3.snap"), None);
        assert_eq!(shard_file_version("shard-0-v0.snap"), None);
    }

    #[test]
    fn stale_shard_files_are_removed_pattern_matched_only() {
        let dir = std::env::temp_dir().join(format!("tkcm-stale-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        for name in [
            "shard-0.snap",
            "shard-0.wal",
            "shard-0-v2.snap",
            "shard-0-v2.wal",
            "MANIFEST",
            "notes.txt",
        ] {
            std::fs::write(dir.join(name), b"x").unwrap();
        }
        remove_stale_shard_files(&dir, 2);
        assert!(!dir.join("shard-0.snap").exists());
        assert!(!dir.join("shard-0.wal").exists());
        assert!(dir.join("shard-0-v2.snap").exists());
        assert!(dir.join("shard-0-v2.wal").exists());
        assert!(dir.join("MANIFEST").exists());
        assert!(dir.join("notes.txt").exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn shard_wal_record_round_trips() {
        use tkcm_timeseries::{StreamTick, Timestamp};
        let entry = WalEntry::from_outcome(
            &StreamTick::new(Timestamp::new(5), vec![Some(1.0), None]),
            &Default::default(),
        );
        let record = ShardWalRecord {
            component: 3,
            entry,
        };
        let bytes = encode_to_vec(&record).unwrap();
        let back: ShardWalRecord = decode_from_slice(&bytes).unwrap();
        assert_eq!(back, record);
        let mut direct = Encoder::new();
        ShardWalRecord::write_outcome(3, &record.entry.tick, &Default::default(), &mut direct)
            .unwrap();
        assert_eq!(direct.into_bytes(), bytes);
    }

    #[test]
    fn default_options_rotate() {
        assert!(DurabilityOptions::default().snapshot_interval > 0);
    }
}
