//! Per-shard write-ahead log: framed, checksummed, append-only.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! [0..8)   magic  b"TKCMWAL0"
//! [8..12)  u32    format version (WAL_FORMAT_VERSION)
//! then zero or more records:
//!   u32 payload length | u32 crc32(payload) | payload
//! ```
//!
//! One record is appended per processed tick (carrying the tick and the
//! write-backs it produced) with a single `write_all` call; the batch path
//! ([`WalWriter::append_batch`]) frames each record *identically* but
//! buffers the whole batch and issues one `write_all` for all of them, so a
//! batched writer produces byte-identical logs at a fraction of the
//! syscalls.  Each record is encoded straight into the writer's reused batch
//! buffer behind an 8-byte gap that its length and CRC fill in afterwards,
//! so a record's bytes are written once and checksummed once.
//! [`WalWriter::stage`] frames one record from the caller's encoding and
//! [`WalWriter::commit`] writes the staged batch, so a caller that holds a
//! record's parts logs it without building the record first.
//!
//! A read takes the whole file in one read, checks the header from those
//! bytes and decodes every record from a borrowed slice of that buffer;
//! [`read_wal`] and [`read_wal_tolerating_torn_tail`] share that one scan.
//! Replay is **strict**: a failed checksum, an impossible length or a torn
//! trailing frame are all [`StoreError::Corrupt`] — the log is never
//! partially trusted.  The recovery path treats that as "fall back to cold
//! replay / operator intervention", not as data.
//!
//! [`WalWriter::rotate`] restarts the log under a new snapshot.  With
//! `sync`, the snapshot is on disk before the old log is replaced, so a
//! power loss mid-rotation leaves either the old snapshot with its whole
//! log or the new snapshot with a fresh one.

use std::fs::{File, OpenOptions};
use std::io::{Read, Write};
use std::path::{Path, PathBuf};
use std::sync::LazyLock;
use std::time::Instant;

use crate::checksum::crc32;
use crate::codec::{decode_from_slice, Encoder, Snapshot};
use crate::error::StoreError;
use crate::snapshot_file::{replace_file, write_snapshot, Flush};

/// Bytes appended across every WAL this process writes (record-only; the
/// `obs-read-only` policy — durability logic never reads these back).
static WAL_APPENDED_BYTES: LazyLock<tkcm_obs::Counter> =
    LazyLock::new(|| tkcm_obs::registry().counter("tkcm_store_wal_appended_bytes_total", &[]));

/// WAL files created (initial creation and every post-checkpoint rotation
/// both go through [`WalWriter::create`]).
static WAL_CREATED: LazyLock<tkcm_obs::Counter> =
    LazyLock::new(|| tkcm_obs::registry().counter("tkcm_store_wal_created_total", &[]));

/// `fsync` latency distribution, in nanoseconds.
static WAL_FSYNC_NANOS: LazyLock<tkcm_obs::Histogram> =
    LazyLock::new(|| tkcm_obs::registry().histogram("tkcm_store_wal_fsync_nanos", &[]));

/// Failed `fsync` calls (real or injected); each one also lands a
/// `wal_fsync_failed` event in the flight recorder, since a failed sync is
/// exactly the kind of terminal moment the crash dump exists for.
static WAL_FSYNC_FAILURES: LazyLock<tkcm_obs::Counter> =
    LazyLock::new(|| tkcm_obs::registry().counter("tkcm_store_wal_fsync_failures_total", &[]));

/// Complete, checksum-verified records handed to replay across every WAL
/// read; recovery progress at fleet granularity.
static WAL_RECORDS_READ: LazyLock<tkcm_obs::Counter> =
    LazyLock::new(|| tkcm_obs::registry().counter("tkcm_store_wal_records_read_total", &[]));

/// Magic bytes identifying a WAL file.
pub const WAL_MAGIC: [u8; 8] = *b"TKCMWAL0";

/// The only WAL layout this build writes and reads.
///
/// Version history: 1 — one [`crate::Snapshot`]-framed `WalEntry` per
/// processed tick (PR 4); 2 — records are component-tagged
/// (`ShardWalRecord`: component id + entry), one per component per tick,
/// so a shard's log can be replayed into its per-component engines
/// (elastic-fleet PR); 3 — write-backs lost their reference list (replay
/// only needs the series and the value).
pub const WAL_FORMAT_VERSION: u32 = 3;

const HEADER_LEN: usize = 12;

/// Appender over a write-ahead log file.
#[derive(Debug)]
pub struct WalWriter {
    file: File,
    path: PathBuf,
    /// The frames of the append in progress; kept to reuse its capacity.
    frames: Vec<u8>,
    /// Fault injection: when set, every [`WalWriter::sync`] and every sync
    /// of a [`WalWriter::rotate`] fails.
    fail_syncs: bool,
}

impl WalWriter {
    /// Creates (or truncates) the log at `path` with a fresh header.
    ///
    /// The header is written to a temporary file and renamed into place, so
    /// a crash mid-creation (e.g. during a snapshot rotation's WAL reset)
    /// never leaves a headerless torn file behind — the previous log, or no
    /// log, survives instead.
    pub fn create(path: &Path) -> Result<Self, StoreError> {
        Self::create_with(path, Flush::Cache)
    }

    fn create_with(path: &Path, flush: Flush) -> Result<Self, StoreError> {
        let mut header = WAL_MAGIC.to_vec();
        header.extend_from_slice(&WAL_FORMAT_VERSION.to_le_bytes());
        replace_file(path, &path.with_extension("wal-tmp"), &header, flush)?;
        let file = OpenOptions::new()
            .append(true)
            .open(path)
            .map_err(|e| StoreError::io(format!("opening {} for append", path.display()), &e))?;
        WAL_CREATED.inc();
        Ok(WalWriter {
            file,
            path: path.to_path_buf(),
            frames: Vec::new(),
            fail_syncs: false,
        })
    }

    /// Opens an existing log for appending, verifying its header first.
    pub fn open_append(path: &Path) -> Result<Self, StoreError> {
        let mut file = OpenOptions::new()
            .read(true)
            .append(true)
            .open(path)
            .map_err(|e| StoreError::io(format!("opening {} for append", path.display()), &e))?;
        let mut header = [0u8; HEADER_LEN];
        file.read_exact(&mut header).map_err(|_| {
            StoreError::corrupt(format!("{}: shorter than the WAL header", path.display()))
        })?;
        read_header(path, &header)?;
        Ok(WalWriter {
            file,
            path: path.to_path_buf(),
            frames: Vec::new(),
            fail_syncs: false,
        })
    }

    /// The log file path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Appends one record (a single `write_all`, so a record is either fully
    /// in the file or, on a crash mid-call, detectably torn).  Returns the
    /// number of bytes appended.
    pub fn append<T: Snapshot>(&mut self, value: &T) -> Result<u64, StoreError> {
        self.append_batch(std::slice::from_ref(value))
    }

    /// Appends a batch of records with one buffered `write_all`: every record
    /// is framed exactly as [`WalWriter::append`] frames it (`len | crc |
    /// payload`), so the resulting file is byte-identical to `N` individual
    /// appends, but the batch costs one syscall instead of `N`.  A crash
    /// mid-call leaves a clean prefix of whole records plus at most one torn
    /// trailing frame — the same crash surface an interrupted single append
    /// has, handled by the same strict/tolerant replay paths.  Returns the
    /// number of bytes appended; an empty batch appends nothing.  This is
    /// [`WalWriter::stage`] per record, then [`WalWriter::commit`]; a record
    /// that fails to encode discards the whole batch.
    pub fn append_batch<T: Snapshot>(&mut self, values: &[T]) -> Result<u64, StoreError> {
        for value in values {
            if let Err(error) = self.stage(|enc| value.write_into(enc)) {
                self.frames.clear();
                return Err(error);
            }
        }
        self.commit()
    }

    /// Frames one record (`u32 len | u32 crc | payload`) into the pending
    /// batch without writing it: `write` encodes the payload straight into
    /// the batch buffer, behind an 8-byte gap that its length and CRC then
    /// fill, so a caller holding the record's parts never builds the record
    /// itself.  A failed `write` leaves the batch as it was before the call.
    pub fn stage(
        &mut self,
        write: impl FnOnce(&mut Encoder) -> Result<(), StoreError>,
    ) -> Result<(), StoreError> {
        let start = self.frames.len();
        self.frames.extend_from_slice(&[0; 8]);
        let mut enc = Encoder::from_vec(std::mem::take(&mut self.frames));
        let encoded = write(&mut enc);
        let buf = &mut self.frames;
        *buf = enc.into_bytes();
        let framed = encoded.and_then(|()| {
            let payload = &buf[start + 8..];
            let len = u32::try_from(payload.len())
                .map_err(|_| StoreError::invalid("WAL record exceeds 4 GiB"))?;
            let crc = crc32(payload);
            buf[start..start + 4].copy_from_slice(&len.to_le_bytes());
            buf[start + 4..start + 8].copy_from_slice(&crc.to_le_bytes());
            Ok(())
        });
        if framed.is_err() {
            buf.truncate(start);
        }
        framed
    }

    /// Appends every staged record with one `write_all` and empties the
    /// batch (also when the write fails).  Returns the number of bytes
    /// appended; with nothing staged, nothing is written.
    pub fn commit(&mut self) -> Result<u64, StoreError> {
        if self.frames.is_empty() {
            return Ok(0);
        }
        let written = self
            .file
            .write_all(&self.frames)
            .map_err(|e| StoreError::io(format!("appending to {}", self.path.display()), &e));
        let bytes = self.frames.len() as u64;
        self.frames.clear();
        written?;
        WAL_APPENDED_BYTES.add(bytes);
        Ok(bytes)
    }

    /// Forces the appended records to stable storage (`fsync`).  Appends
    /// themselves only guarantee the data reached the OS; call this at
    /// checkpoint boundaries or whenever the deployment needs
    /// power-failure durability rather than process-crash durability.
    pub fn sync(&mut self) -> Result<(), StoreError> {
        let outcome = if self.fail_syncs {
            Err(StoreError::Io {
                context: format!("syncing {}", self.path.display()),
                message: "injected sync failure".to_string(),
            })
        } else {
            let started = Instant::now();
            let result = self
                .file
                .sync_data()
                .map_err(|e| StoreError::io(format!("syncing {}", self.path.display()), &e));
            WAL_FSYNC_NANOS.record_duration(started.elapsed());
            result
        };
        if let Err(error) = &outcome {
            WAL_FSYNC_FAILURES.inc();
            tkcm_obs::recorder().record(
                "wal_fsync_failed",
                vec![
                    (
                        "path",
                        tkcm_obs::FieldValue::Text(self.path.display().to_string()),
                    ),
                    ("error", tkcm_obs::FieldValue::Text(error.to_string())),
                ],
            );
        }
        outcome
    }

    /// Rotates the log under a new snapshot: writes `snapshot` as the
    /// snapshot file at `snapshot_path`, then restarts this writer on a
    /// fresh, empty log at `path` (which may differ from the old log's
    /// path).  Returns the snapshot file's size.
    ///
    /// With `sync`, the rotation is power-failure durable: the snapshot and
    /// its directory entry are fsynced before the old log is replaced, and
    /// the fresh log and the directory after its rename.  A failed sync
    /// returns the error and leaves the old log whole, so the records the
    /// previous snapshot needs are never lost.  Without `sync`, nothing is
    /// fsynced; both files are still replaced by atomic renames.
    pub fn rotate<T: Snapshot>(
        &mut self,
        snapshot_path: &Path,
        snapshot: &T,
        path: &Path,
        sync: bool,
    ) -> Result<u64, StoreError> {
        let flush = match (sync, self.fail_syncs) {
            (false, _) => Flush::Cache,
            (true, false) => Flush::Disk,
            (true, true) => Flush::FailingDisk,
        };
        let bytes = write_snapshot(snapshot_path, snapshot, flush)?;
        let fresh = Self::create_with(path, flush)?;
        *self = WalWriter {
            fail_syncs: self.fail_syncs,
            ..fresh
        };
        Ok(bytes)
    }

    /// Fault injection for durability tests: makes every subsequent
    /// [`WalWriter::sync`] call on this writer, and every sync of a
    /// [`WalWriter::rotate`] with `sync`, fail with an I/O error, the way a
    /// dying device or a thinly-provisioned volume would.  Callers that
    /// promise fsync-error propagation (the runtime's group-commit path
    /// poisons the fleet on a failed sync, and its rotation keeps the old
    /// log) exercise that promise through this hook, since a real `fsync`
    /// failure cannot be provoked portably.  Appends are unaffected, and
    /// the failure survives rotations.
    pub fn inject_sync_failures(&mut self) {
        self.fail_syncs = true;
    }
}

/// Verifies the 12-byte WAL header at the front of `bytes` (decode path:
/// every access is checked, corruption surfaces as an error, never a panic).
fn read_header(path: &Path, bytes: &[u8]) -> Result<(), StoreError> {
    let short = || StoreError::corrupt(format!("{}: shorter than the WAL header", path.display()));
    let magic = bytes.get(0..8).ok_or_else(short)?;
    if magic != WAL_MAGIC {
        return Err(StoreError::corrupt(format!(
            "{}: bad magic (not a WAL file)",
            path.display()
        )));
    }
    let version_bytes: [u8; 4] = bytes
        .get(8..HEADER_LEN)
        .and_then(|s| s.try_into().ok())
        .ok_or_else(short)?;
    let version = u32::from_le_bytes(version_bytes);
    if version != WAL_FORMAT_VERSION {
        return Err(StoreError::UnsupportedVersion {
            format: "wal",
            found: version,
            supported: WAL_FORMAT_VERSION,
        });
    }
    Ok(())
}

/// Reads every record payload of a WAL, verifying the header, each record's
/// checksum and that the file ends exactly on a record boundary.
pub fn read_wal_records(path: &Path) -> Result<Vec<Vec<u8>>, StoreError> {
    read_records(path, |payload| Ok(payload.to_vec())).and_then(strict)
}

/// Reads and decodes every record of a WAL, with the checks of
/// [`read_wal_records`].
pub fn read_wal<T: Snapshot>(path: &Path) -> Result<Vec<T>, StoreError> {
    read_records(path, decode_from_slice).and_then(strict)
}

/// Like [`read_wal`] but tolerating a torn *trailing* frame: the decoded
/// intact prefix is returned together with `true` when trailing bytes were
/// discarded.  This is the kill-mid-append crash mode — the single
/// `write_all` of an append was interrupted, so the file ends with a partial
/// frame.  Interior corruption (a checksum mismatch on any *complete*
/// record) is still a hard error; only the incomplete tail is forgiven.
///
/// Note the inherent ambiguity: a flipped byte in the final frame's length
/// field is indistinguishable from a torn tail, so tolerant reads trade a
/// sliver of the corruption guarantee for crash robustness.  Callers must
/// opt in explicitly (the runtime's default recovery stays strict).
pub fn read_wal_tolerating_torn_tail<T: Snapshot>(
    path: &Path,
) -> Result<(Vec<T>, bool), StoreError> {
    let (records, torn) = read_records(path, decode_from_slice)?;
    Ok((records, torn.is_some()))
}

/// The strict reading of a scan: a torn trailing frame is corruption.
fn strict<T>((records, torn): (Vec<T>, Option<String>)) -> Result<Vec<T>, StoreError> {
    match torn {
        Some(message) => Err(StoreError::corrupt(message)),
        None => Ok(records),
    }
}

/// Reads a `u32` at `at`, `None` when fewer than 4 bytes remain.
fn read_le_u32(bytes: &[u8], at: usize) -> Option<u32> {
    let end = at.checked_add(4)?;
    let arr: [u8; 4] = bytes.get(at..end)?.try_into().ok()?;
    Some(u32::from_le_bytes(arr))
}

/// The one frame scan (decode path): reads the file once, checks its header
/// and hands each complete, checksum-verified payload, borrowed from that
/// buffer, to `record`.  Returns what `record` made of them plus a
/// description of the torn trailing frame, if any.  Checksum mismatches on
/// complete records always error; every byte access is checked, so no input
/// can panic the reader.
fn read_records<T>(
    path: &Path,
    mut record: impl FnMut(&[u8]) -> Result<T, StoreError>,
) -> Result<(Vec<T>, Option<String>), StoreError> {
    let bytes = std::fs::read(path)
        .map_err(|e| StoreError::io(format!("reading {}", path.display()), &e))?;
    read_header(path, &bytes)?;
    let mut records = Vec::new();
    let mut pos = HEADER_LEN;
    let mut torn = None;
    while pos < bytes.len() {
        let frame_start = pos;
        let (Some(len_raw), Some(stored_crc)) =
            (read_le_u32(&bytes, pos), read_le_u32(&bytes, pos + 4))
        else {
            torn = Some(format!(
                "{}: torn record header at offset {pos}",
                path.display()
            ));
            break;
        };
        let len = usize::try_from(len_raw).map_err(|_| {
            StoreError::corrupt(format!(
                "{}: record length {len_raw} does not fit this host's usize",
                path.display()
            ))
        })?;
        pos += 8;
        let Some(payload) = pos.checked_add(len).and_then(|end| bytes.get(pos..end)) else {
            torn = Some(format!(
                "{}: record at offset {frame_start} claims {len} byte(s), only {} left (torn or corrupted)",
                path.display(),
                bytes.len() - pos
            ));
            break;
        };
        if crc32(payload) != stored_crc {
            return Err(StoreError::corrupt(format!(
                "{}: checksum mismatch in record {} at offset {frame_start}",
                path.display(),
                records.len(),
            )));
        }
        records.push(record(payload)?);
        pos += len;
    }
    // Every record handed to replay is counted, torn-tail scans included.
    WAL_RECORDS_READ.add(u64::try_from(records.len()).unwrap_or(u64::MAX));
    Ok((records, torn))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_path(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("tkcm-wal-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn append_and_replay_round_trip() {
        let path = temp_path("roundtrip.wal");
        let mut wal = WalWriter::create(&path).unwrap();
        for i in 0..5u64 {
            wal.append(&vec![i, i * i]).unwrap();
        }
        wal.sync().unwrap();
        drop(wal);
        let records: Vec<Vec<u64>> = read_wal(&path).unwrap();
        assert_eq!(records.len(), 5);
        assert_eq!(records[3], vec![3, 9]);

        // Re-open for append and extend.
        let mut wal = WalWriter::open_append(&path).unwrap();
        wal.append(&vec![99u64]).unwrap();
        drop(wal);
        let records: Vec<Vec<u64>> = read_wal(&path).unwrap();
        assert_eq!(records.len(), 6);
        assert_eq!(records[5], vec![99]);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn batch_appends_are_byte_identical_to_individual_appends() {
        let records: Vec<Vec<u64>> = (0..7u64).map(|i| vec![i, i * i, i + 100]).collect();

        let one_by_one = temp_path("batch-single.wal");
        let mut wal = WalWriter::create(&one_by_one).unwrap();
        let mut single_bytes = 0;
        for r in &records {
            single_bytes += wal.append(r).unwrap();
        }
        drop(wal);

        let batched = temp_path("batch-grouped.wal");
        let mut wal = WalWriter::create(&batched).unwrap();
        let batch_bytes = wal.append_batch(&records).unwrap();
        drop(wal);

        assert_eq!(batch_bytes, single_bytes);
        assert_eq!(
            std::fs::read(&one_by_one).unwrap(),
            std::fs::read(&batched).unwrap(),
            "batched framing must match per-record framing byte for byte"
        );
        let back: Vec<Vec<u64>> = read_wal(&batched).unwrap();
        assert_eq!(back, records);
        std::fs::remove_file(&one_by_one).unwrap();
        std::fs::remove_file(&batched).unwrap();
    }

    #[test]
    fn staged_records_commit_like_a_batch_and_a_failed_stage_drops_only_itself() {
        let records: Vec<Vec<u64>> = (0..4u64).map(|i| vec![i, i << 20]).collect();
        let batched = temp_path("stage-batch.wal");
        let mut wal = WalWriter::create(&batched).unwrap();
        wal.append_batch(&records).unwrap();
        drop(wal);

        let staged = temp_path("stage-staged.wal");
        let mut wal = WalWriter::create(&staged).unwrap();
        assert_eq!(wal.commit().unwrap(), 0, "nothing staged, nothing written");
        for (i, record) in records.iter().enumerate() {
            wal.stage(|enc| record.write_into(enc)).unwrap();
            if i == 1 {
                let failed = wal.stage(|enc| {
                    enc.u64(7);
                    Err(StoreError::invalid("refused"))
                });
                assert!(failed.is_err());
            }
        }
        let appended = wal.commit().unwrap();
        assert_eq!(wal.commit().unwrap(), 0, "a commit empties the batch");
        drop(wal);
        assert_eq!(
            std::fs::read(&staged).unwrap(),
            std::fs::read(&batched).unwrap()
        );
        assert_eq!(
            appended,
            std::fs::metadata(&staged).unwrap().len() - HEADER_LEN as u64
        );
        std::fs::remove_file(&batched).unwrap();
        std::fs::remove_file(&staged).unwrap();
    }

    #[test]
    fn empty_batch_appends_nothing() {
        let path = temp_path("batch-empty.wal");
        let mut wal = WalWriter::create(&path).unwrap();
        let before = std::fs::metadata(&path).unwrap().len();
        assert_eq!(wal.append_batch::<Vec<u64>>(&[]).unwrap(), 0);
        drop(wal);
        assert_eq!(std::fs::metadata(&path).unwrap().len(), before);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn batches_and_single_appends_interleave() {
        let path = temp_path("batch-mixed.wal");
        let mut wal = WalWriter::create(&path).unwrap();
        wal.append(&vec![1u64]).unwrap();
        wal.append_batch(&[vec![2u64], vec![3u64]]).unwrap();
        wal.append(&vec![4u64]).unwrap();
        drop(wal);
        let mut wal = WalWriter::open_append(&path).unwrap();
        wal.append_batch(&[vec![5u64]]).unwrap();
        drop(wal);
        let back: Vec<Vec<u64>> = read_wal(&path).unwrap();
        assert_eq!(back, vec![vec![1], vec![2], vec![3], vec![4], vec![5]]);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn injected_sync_failures_surface_as_io_errors() {
        let path = temp_path("sync-fail.wal");
        let mut wal = WalWriter::create(&path).unwrap();
        wal.append(&vec![1u64]).unwrap();
        wal.sync().unwrap();
        wal.inject_sync_failures();
        match wal.sync() {
            Err(StoreError::Io { message, .. }) => assert!(message.contains("injected")),
            other => panic!("expected io error, got {other:?}"),
        }
        // Appends keep working (the data path is separate from the sync path)
        // and the failure is sticky, as a dying device's would be.
        wal.append(&vec![2u64]).unwrap();
        assert!(wal.sync().is_err());
        drop(wal);
        let back: Vec<Vec<u64>> = read_wal(&path).unwrap();
        assert_eq!(back.len(), 2);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn rotation_writes_the_snapshot_and_restarts_the_log() {
        for sync in [false, true] {
            let path = temp_path(&format!("rotate-{sync}.wal"));
            let snapshot = temp_path(&format!("rotate-{sync}.snap"));
            let next = temp_path(&format!("rotate-{sync}-v1.wal"));
            let mut wal = WalWriter::create(&path).unwrap();
            wal.append(&vec![1u64]).unwrap();
            let bytes = wal.rotate(&snapshot, &vec![7u64, 8], &next, sync).unwrap();
            assert_eq!(bytes, std::fs::metadata(&snapshot).unwrap().len());
            let back: Vec<u64> = crate::read_snapshot_file(&snapshot).unwrap();
            assert_eq!(back, vec![7, 8]);
            assert_eq!(wal.path(), next.as_path());
            wal.append(&vec![2u64]).unwrap();
            drop(wal);
            assert_eq!(read_wal::<Vec<u64>>(&next).unwrap(), vec![vec![2]]);
            assert_eq!(read_wal::<Vec<u64>>(&path).unwrap(), vec![vec![1]]);
            for file in [&path, &snapshot, &next] {
                std::fs::remove_file(file).unwrap();
            }
        }
    }

    #[test]
    fn a_failed_rotation_sync_keeps_the_old_snapshot_and_log() {
        let path = temp_path("rotate-fail.wal");
        let snapshot = temp_path("rotate-fail.snap");
        crate::write_snapshot_file(&snapshot, &vec![1u64]).unwrap();
        let mut wal = WalWriter::create(&path).unwrap();
        wal.append(&vec![1u64]).unwrap();
        wal.inject_sync_failures();
        match wal.rotate(&snapshot, &vec![2u64], &path, true) {
            Err(StoreError::Io { message, .. }) => assert!(message.contains("injected")),
            other => panic!("expected io error, got {other:?}"),
        }
        let back: Vec<u64> = crate::read_snapshot_file(&snapshot).unwrap();
        assert_eq!(back, vec![1], "the old snapshot must stay in place");
        assert_eq!(read_wal::<Vec<u64>>(&path).unwrap(), vec![vec![1]]);
        // Without sync the rotation goes through, and the injected failure
        // stays armed on the fresh log.
        wal.rotate(&snapshot, &vec![2u64], &path, false).unwrap();
        assert!(wal.sync().is_err());
        drop(wal);
        assert!(read_wal::<Vec<u64>>(&path).unwrap().is_empty());
        std::fs::remove_file(&path).unwrap();
        std::fs::remove_file(&snapshot).unwrap();
        let _ = std::fs::remove_file(snapshot.with_extension("tmp"));
    }

    #[test]
    fn empty_wal_replays_to_nothing() {
        let path = temp_path("empty.wal");
        WalWriter::create(&path).unwrap();
        let records: Vec<Vec<u64>> = read_wal(&path).unwrap();
        assert!(records.is_empty());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn every_flipped_byte_is_detected() {
        let path = temp_path("flip.wal");
        let mut wal = WalWriter::create(&path).unwrap();
        wal.append(&vec![1u64, 2, 3]).unwrap();
        wal.append(&vec![4u64]).unwrap();
        drop(wal);
        let original = std::fs::read(&path).unwrap();
        for i in 0..original.len() {
            let mut corrupted = original.clone();
            corrupted[i] ^= 0x10;
            std::fs::write(&path, &corrupted).unwrap();
            assert!(
                read_wal::<Vec<u64>>(&path).is_err(),
                "flip at byte {i} went undetected"
            );
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn truncation_off_a_record_boundary_is_detected() {
        let path = temp_path("trunc.wal");
        let mut wal = WalWriter::create(&path).unwrap();
        let first_frame = wal.append(&vec![7u64; 3]).unwrap() as usize;
        wal.append(&vec![8u64; 2]).unwrap();
        drop(wal);
        let original = std::fs::read(&path).unwrap();
        // Cuts on a record boundary are indistinguishable from a shorter log
        // (append-only logs cannot know how long they were meant to be) and
        // replay the intact prefix; every other cut must be an error.
        let boundaries = [HEADER_LEN, HEADER_LEN + first_frame, original.len()];
        for cut in HEADER_LEN + 1..original.len() {
            std::fs::write(&path, &original[..cut]).unwrap();
            let replay = read_wal::<Vec<u64>>(&path);
            if boundaries.contains(&cut) {
                assert!(replay.is_ok(), "boundary cut {cut} should replay");
            } else {
                assert!(
                    replay.is_err(),
                    "truncation to {cut} byte(s) went undetected"
                );
            }
        }
        // Truncating into the header is detected too.
        std::fs::write(&path, &original[..5]).unwrap();
        assert!(read_wal::<Vec<u64>>(&path).is_err());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn tolerant_reads_keep_the_prefix_but_reject_interior_corruption() {
        let path = temp_path("tolerant.wal");
        let mut wal = WalWriter::create(&path).unwrap();
        let first = wal.append(&vec![1u64, 2]).unwrap() as usize;
        wal.append(&vec![3u64]).unwrap();
        drop(wal);
        let original = std::fs::read(&path).unwrap();

        // Kill-mid-append: the second frame is half written.
        std::fs::write(&path, &original[..HEADER_LEN + first + 5]).unwrap();
        assert!(read_wal::<Vec<u64>>(&path).is_err(), "strict must refuse");
        let (records, torn) = read_wal_tolerating_torn_tail::<Vec<u64>>(&path).unwrap();
        assert!(torn);
        assert_eq!(records.len(), 1, "the intact first record survives");

        // An intact file reports no tear.
        std::fs::write(&path, &original).unwrap();
        let (records, torn) = read_wal_tolerating_torn_tail::<Vec<u64>>(&path).unwrap();
        assert!(!torn);
        assert_eq!(records.len(), 2);

        // Interior corruption (bad checksum on a *complete* record) is a
        // hard error even in tolerant mode.
        let mut corrupted = original.clone();
        corrupted[HEADER_LEN + 10] ^= 0xFF; // inside the first payload
        std::fs::write(&path, &corrupted).unwrap();
        assert!(read_wal_tolerating_torn_tail::<Vec<u64>>(&path).is_err());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn open_append_rejects_foreign_files() {
        let path = temp_path("foreign.wal");
        std::fs::write(&path, b"definitely not a wal").unwrap();
        assert!(WalWriter::open_append(&path).is_err());
        let mut versioned = WAL_MAGIC.to_vec();
        versioned.extend_from_slice(&7u32.to_le_bytes());
        std::fs::write(&path, &versioned).unwrap();
        match WalWriter::open_append(&path) {
            Err(StoreError::UnsupportedVersion { found: 7, .. }) => {}
            other => panic!("expected version error, got {other:?}"),
        }
        std::fs::remove_file(&path).unwrap();
    }
}
