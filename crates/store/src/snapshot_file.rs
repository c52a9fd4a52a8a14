//! Versioned, checksummed snapshot files, written atomically.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! [0..8)    magic  b"TKCMSNAP"
//! [8..12)   u32    format version (SNAPSHOT_FORMAT_VERSION)
//! [12..20)  u64    payload length in bytes
//! [20..20+n)       payload (the value's Snapshot encoding)
//! [20+n..24+n) u32 crc32 over version bytes ++ payload
//! ```
//!
//! The byte path is one pass each way.  A write encodes the header and the
//! payload into one buffer (the length is filled in once the payload is
//! known), checksums the version bytes and the payload in place with
//! `crc32_extend` and appends the CRC; a read takes the file in one read,
//! checks the header and the checksum on that buffer and decodes the payload
//! from a borrowed slice of it.
//!
//! Writes go to `<path>.tmp` first and are renamed into place, so a crash
//! mid-checkpoint leaves the previous snapshot intact; the rename is the
//! commit point.  [`write_snapshot_file_synced`] additionally fsyncs the
//! temporary file before the rename and the directory after it, so the new
//! snapshot is power-failure durable once it returns.

use std::fs::{self, File};
use std::io::Write;
use std::path::Path;
use std::sync::LazyLock;
use std::time::Instant;

use crate::checksum::{crc32, crc32_extend};
use crate::codec::{decode_from_slice, Encoder, Snapshot};
use crate::error::StoreError;

/// Bytes written across every snapshot/checkpoint file this process
/// produces (record-only; the `obs-read-only` policy).
static CHECKPOINT_BYTES: LazyLock<tkcm_obs::Counter> =
    LazyLock::new(|| tkcm_obs::registry().counter("tkcm_store_checkpoint_bytes_total", &[]));

/// End-to-end snapshot write latency (encode + write + rename), nanoseconds.
static CHECKPOINT_WRITE_NANOS: LazyLock<tkcm_obs::Histogram> =
    LazyLock::new(|| tkcm_obs::registry().histogram("tkcm_store_checkpoint_write_nanos", &[]));

/// Magic bytes identifying a snapshot file.
pub const SNAPSHOT_MAGIC: [u8; 8] = *b"TKCMSNAP";

/// The only snapshot layout this build writes and reads.  Any change to any
/// `Snapshot` implementation's field order or width must bump this constant.
///
/// Version history: 1 — initial layout (PR 4); 2 — the runtime's checkpoint
/// manifest grew a group-commit sync-policy field (batched ingestion PR);
/// 3 — the engine snapshot grew an optional signature index and the config
/// grew the `pruning` flag (candidate-pruning PR); 4 — the fleet partition
/// became a versioned component/assignment mapping with a migration log and
/// per-shard snapshots became per-component engine sets (elastic-fleet PR);
/// 5 — the engine snapshot grew the composed path's shortlist maintainers
/// and the persisted prune totals (composed-pruning PR); 6 — the config lost
/// its `incremental` flag and the engine snapshot its dense incremental
/// maintainers (one fast path plus one oracle); 7 — the config lost its
/// aggregation, selection and allow-missing fields, the shortlist
/// maintainer its allow-missing flag, and the engine snapshot its
/// signature-index presence flag (the index is present iff `pruning`);
/// 8 — the engine snapshot lost its signature index and shortlist
/// maintainers (decode rebuilds the index from the window and starts with no
/// shortlists) and the manifest's sync policy became a one-byte tag; 9 — the
/// window's value rings became raw `f64` rings (NaN = missing, no tag bytes)
/// and every window ring holds only its pushed slots; no cursor is persisted
/// (it follows from the pushed tick count); 10 — the persisted prune totals
/// lost `maintained_lags` and the engine its lag memories (the composed
/// search keeps no state across imputations).
pub const SNAPSHOT_FORMAT_VERSION: u32 = 10;

/// Bytes in front of the payload: magic, version and payload length.
const HEADER_LEN: usize = 20;

/// How far a store write goes before it returns.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Flush {
    /// The bytes reach the OS page cache: process-crash durable.
    Cache,
    /// The bytes and the rename are fsynced: power-failure durable.
    Disk,
    /// As `Disk`, but every fsync fails, the way a dying device's would
    /// (fault injection; see [`crate::WalWriter::inject_sync_failures`]).
    FailingDisk,
}

/// Serialises `value` and writes it as a snapshot file at `path`
/// (atomically, via `<path>.tmp` + rename).  Returns the file size in
/// bytes, so callers can report snapshot sizes without a second stat.
pub fn write_snapshot_file<T: Snapshot>(path: &Path, value: &T) -> Result<u64, StoreError> {
    write_snapshot(path, value, Flush::Cache)
}

/// [`write_snapshot_file`], power-failure durable: the temporary file is
/// fsynced before the rename and its directory after it, so once this
/// returns the new snapshot survives a power loss.
pub fn write_snapshot_file_synced<T: Snapshot>(path: &Path, value: &T) -> Result<u64, StoreError> {
    write_snapshot(path, value, Flush::Disk)
}

pub(crate) fn write_snapshot<T: Snapshot>(
    path: &Path,
    value: &T,
    flush: Flush,
) -> Result<u64, StoreError> {
    let started = Instant::now();
    let mut header = Vec::with_capacity(HEADER_LEN);
    header.extend_from_slice(&SNAPSHOT_MAGIC);
    header.extend_from_slice(&SNAPSHOT_FORMAT_VERSION.to_le_bytes());
    header.extend_from_slice(&[0; 8]); // payload length, filled in below
    let mut enc = Encoder::from_vec(header);
    value.write_into(&mut enc)?;
    let mut file = enc.into_bytes();
    let payload_len = (file.len() - HEADER_LEN) as u64;
    file[12..HEADER_LEN].copy_from_slice(&payload_len.to_le_bytes());
    let crc = crc32_extend(crc32(&file[8..12]), &file[HEADER_LEN..]);
    file.extend_from_slice(&crc.to_le_bytes());

    replace_file(path, &path.with_extension("tmp"), &file, flush)?;
    CHECKPOINT_BYTES.add(file.len() as u64);
    CHECKPOINT_WRITE_NANOS.record_duration(started.elapsed());
    Ok(file.len() as u64)
}

/// Makes `bytes` the contents of `path` atomically: they are written to
/// `tmp` and renamed into place.  Under [`Flush::Disk`] the temporary file
/// is fsynced before the rename (so the rename never publishes bytes that
/// are not on disk) and the directory after it (so the rename itself is).
pub(crate) fn replace_file(
    path: &Path,
    tmp: &Path,
    bytes: &[u8],
    flush: Flush,
) -> Result<(), StoreError> {
    let mut file =
        File::create(tmp).map_err(|e| StoreError::io(format!("creating {}", tmp.display()), &e))?;
    file.write_all(bytes)
        .map_err(|e| StoreError::io(format!("writing {}", tmp.display()), &e))?;
    if flush != Flush::Cache {
        sync_all(&file, tmp, flush)?;
    }
    drop(file);
    fs::rename(tmp, path)
        .map_err(|e| StoreError::io(format!("renaming {} into place", tmp.display()), &e))?;
    if flush == Flush::Cache {
        return Ok(());
    }
    let dir = match path.parent() {
        Some(dir) if !dir.as_os_str().is_empty() => dir,
        _ => Path::new("."),
    };
    let dir_handle =
        File::open(dir).map_err(|e| StoreError::io(format!("opening {}", dir.display()), &e))?;
    sync_all(&dir_handle, dir, flush)
}

/// `fsync` of a file or directory handle; [`Flush::FailingDisk`] fails it.
fn sync_all(file: &File, path: &Path, flush: Flush) -> Result<(), StoreError> {
    let context = || format!("syncing {}", path.display());
    if flush == Flush::FailingDisk {
        return Err(StoreError::Io {
            context: context(),
            message: "injected sync failure".to_string(),
        });
    }
    file.sync_all().map_err(|e| StoreError::io(context(), &e))
}

/// Reads and verifies a snapshot file, decoding the payload back into `T`.
pub fn read_snapshot_file<T: Snapshot>(path: &Path) -> Result<T, StoreError> {
    let bytes =
        fs::read(path).map_err(|e| StoreError::io(format!("reading {}", path.display()), &e))?;
    // Every header access is checked: a truncated file surfaces as a
    // corruption error, never a panic (decode-hygiene policy).
    let short = || {
        StoreError::corrupt(format!(
            "{}: {} byte(s) is shorter than the snapshot header",
            path.display(),
            bytes.len()
        ))
    };
    let magic = bytes.get(0..8).ok_or_else(short)?;
    if magic != SNAPSHOT_MAGIC {
        return Err(StoreError::corrupt(format!(
            "{}: bad magic (not a snapshot file)",
            path.display()
        )));
    }
    let version_bytes: [u8; 4] = bytes
        .get(8..12)
        .and_then(|s| s.try_into().ok())
        .ok_or_else(short)?;
    let version = u32::from_le_bytes(version_bytes);
    if version != SNAPSHOT_FORMAT_VERSION {
        return Err(StoreError::UnsupportedVersion {
            format: "snapshot",
            found: version,
            supported: SNAPSHOT_FORMAT_VERSION,
        });
    }
    let payload_len = u64::from_le_bytes(
        bytes
            .get(12..20)
            .and_then(|s| s.try_into().ok())
            .ok_or_else(short)?,
    );
    let file_len = u64::try_from(bytes.len())
        .map_err(|_| StoreError::corrupt(format!("{}: file too large", path.display())))?;
    if 24u64.checked_add(payload_len) != Some(file_len) {
        return Err(StoreError::corrupt(format!(
            "{}: payload length {payload_len} does not match file size {}",
            path.display(),
            bytes.len()
        )));
    }
    let crc_start = bytes.len().checked_sub(4).ok_or_else(short)?;
    let payload = bytes.get(20..crc_start).ok_or_else(short)?;
    let stored_crc = u32::from_le_bytes(
        bytes
            .get(crc_start..)
            .and_then(|s| s.try_into().ok())
            .ok_or_else(short)?,
    );
    if crc32_extend(crc32(&version_bytes), payload) != stored_crc {
        return Err(StoreError::corrupt(format!(
            "{}: checksum mismatch (snapshot bytes were modified)",
            path.display()
        )));
    }
    decode_from_slice(payload)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_path(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("tkcm-store-test-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn snapshot_file_round_trips() {
        let path = temp_path("roundtrip.snap");
        let value: Vec<Option<f64>> = vec![Some(1.0), None, Some(f64::MIN_POSITIVE)];
        let size = write_snapshot_file(&path, &value).unwrap();
        assert_eq!(size, fs::metadata(&path).unwrap().len());
        let back: Vec<Option<f64>> = read_snapshot_file(&path).unwrap();
        assert_eq!(back, value);
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn synced_writes_are_byte_identical() {
        let cached = temp_path("cached.snap");
        let synced = temp_path("synced.snap");
        let value: Vec<u64> = (0..40).collect();
        let size = write_snapshot_file(&cached, &value).unwrap();
        assert_eq!(write_snapshot_file_synced(&synced, &value).unwrap(), size);
        assert_eq!(fs::read(&cached).unwrap(), fs::read(&synced).unwrap());
        let back: Vec<u64> = read_snapshot_file(&synced).unwrap();
        assert_eq!(back, value);
        fs::remove_file(&cached).unwrap();
        fs::remove_file(&synced).unwrap();
    }

    #[test]
    fn every_flipped_byte_is_detected() {
        let path = temp_path("flip.snap");
        let value: Vec<u64> = vec![3, 1, 4, 1, 5];
        write_snapshot_file(&path, &value).unwrap();
        let original = fs::read(&path).unwrap();
        for i in 0..original.len() {
            let mut corrupted = original.clone();
            corrupted[i] ^= 0x40;
            fs::write(&path, &corrupted).unwrap();
            assert!(
                read_snapshot_file::<Vec<u64>>(&path).is_err(),
                "flip at byte {i} went undetected"
            );
        }
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn truncation_and_garbage_are_detected() {
        let path = temp_path("trunc.snap");
        write_snapshot_file(&path, &vec![9u64; 4]).unwrap();
        let original = fs::read(&path).unwrap();
        for cut in [0, 7, 12, original.len() - 1] {
            fs::write(&path, &original[..cut]).unwrap();
            assert!(read_snapshot_file::<Vec<u64>>(&path).is_err(), "cut {cut}");
        }
        let mut longer = original.clone();
        longer.push(0xAB);
        fs::write(&path, &longer).unwrap();
        assert!(read_snapshot_file::<Vec<u64>>(&path).is_err());
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn version_mismatch_is_reported_as_such() {
        let path = temp_path("version.snap");
        write_snapshot_file(&path, &vec![1u64]).unwrap();
        let mut bytes = fs::read(&path).unwrap();
        bytes[8] = 99; // bump the version field; the checksum covers it, but
                       // the version check fires first with a clearer error.
        fs::write(&path, &bytes).unwrap();
        match read_snapshot_file::<Vec<u64>>(&path) {
            Err(StoreError::UnsupportedVersion { found: 99, .. }) => {}
            other => panic!("expected version error, got {other:?}"),
        }
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn missing_file_is_an_io_error() {
        let path = temp_path("does-not-exist.snap");
        match read_snapshot_file::<Vec<u64>>(&path) {
            Err(StoreError::Io { .. }) => {}
            other => panic!("expected io error, got {other:?}"),
        }
    }
}
