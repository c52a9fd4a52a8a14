//! # tkcm-store
//!
//! Durable engine state: deterministic binary snapshots plus per-shard
//! write-ahead logs.
//!
//! The paper's engine is purely in-memory — a streaming window of the last
//! `L` ticks plus the incrementally maintained dissimilarity state of
//! Section 6.2 — so any process restart forgets the window and silently
//! degrades the next `l` imputations.  This crate is the persistence layer
//! underneath the runtime: engines **checkpoint** their full state into a
//! versioned snapshot file, log every processed tick (and the write-backs it
//! produced) into a **write-ahead log**, and **recover** by loading the
//! snapshot and replaying the log — bit-identically, so a recovered engine
//! is indistinguishable from one that never crashed.
//!
//! The crate is deliberately dependency-free (the build environment has no
//! crates.io access, so there is no serde): everything is a hand-rolled
//! little-endian codec ([`codec`]) behind the [`Snapshot`] trait, which the
//! substrate types implement in `tkcm-timeseries` and `tkcm-core`.
//!
//! ## File formats
//!
//! Both file kinds carry an 8-byte magic, a `u32` format version and CRC-32
//! checksums, so a flipped byte anywhere is *detected* instead of silently
//! replayed:
//!
//! * **Snapshot** ([`snapshot_file`]): `magic | version | payload_len |
//!   payload | crc32(version, payload)`, written to a temporary file and
//!   renamed into place so a crash mid-checkpoint never destroys the
//!   previous snapshot.
//! * **WAL** ([`wal`]): `magic | version` header followed by framed records
//!   `record_len | crc32(payload) | payload`.  Records are appended one at a
//!   time ([`wal::WalWriter::append`]) or as a group-commit batch
//!   ([`wal::WalWriter::append_batch`], identical framing, one buffered
//!   `write_all` for the whole batch).  Replay is strict: a bad
//!   checksum, an impossible length or a torn trailing frame all fail with
//!   [`StoreError::Corrupt`] — the corruption policy is "refuse and let the
//!   operator fall back to cold replay", never "guess".
//!
//! ## The byte path
//!
//! Every byte is checksummed once, with no copy between intermediate
//! buffers.  The CRC-32 ([`checksum`]) is a slicing-by-16 kernel over
//! compile-time tables with an incremental form (`crc32_extend`), so one
//! checksum covers non-contiguous bytes in place.  A snapshot write encodes
//! header and payload into one buffer; a WAL append encodes each record
//! straight into the batch buffer and fills in its length and CRC
//! afterwards.  Reads take a file in one read and decode from borrowed
//! slices of that buffer, with the header checked on the same bytes.
//! Golden byte images (`tests/golden.rs`) pin both formats.
//!
//! ## Durability
//!
//! Writes reach the page cache (process-crash durable); power-failure
//! durability takes an fsync: [`wal::WalWriter::sync`] for appended records,
//! [`write_snapshot_file_synced`] for a snapshot, and
//! [`wal::WalWriter::rotate`] with `sync` for a rotation, which puts the new
//! snapshot on disk before it replaces the log.
//!
//! Version compatibility policy: the formats are versioned but not yet
//! migratable — a reader only accepts exactly [`SNAPSHOT_FORMAT_VERSION`] /
//! [`WAL_FORMAT_VERSION`] and any layout change must bump the constant (see
//! ROADMAP).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod checksum;
pub mod codec;
pub mod error;
pub mod snapshot_file;
pub mod wal;

pub use checksum::crc32;
pub use codec::{decode_from_slice, encode_to_vec, Decoder, Encoder, Snapshot};
pub use error::StoreError;
pub use snapshot_file::{
    read_snapshot_file, write_snapshot_file, write_snapshot_file_synced, SNAPSHOT_FORMAT_VERSION,
};
pub use wal::{
    read_wal, read_wal_records, read_wal_tolerating_torn_tail, WalWriter, WAL_FORMAT_VERSION,
};
