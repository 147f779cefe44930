//! `lemp-store` — durability for the dynamic LEMP engine: a write-ahead
//! log, snapshot compaction, and crash recovery.
//!
//! The paper's bucketization is cheap to maintain incrementally, which is
//! why [`lemp_core::DynamicLemp`] supports warm-preserving insert/remove —
//! but a bare dynamic engine lives only in memory: a server crash loses
//! every probe pushed through `POST /probes`. This crate makes mutations
//! durable and recovery fast and verified:
//!
//! * [`wal`] — the `LEMPWAL1` log: length-prefixed records (insert /
//!   remove / rebuild) with a CRC-32 each, segment rotation at a size
//!   threshold, torn-tail truncation on open.
//! * [`store`] — snapshot compaction (a [`lemp_core::DynamicLemp::write_to`]
//!   engine image — `LEMPDYN1`, or `LEMPDYN3` when quantized — plus a
//!   `CHECKPOINT` marker, then pruning of covered segments) and
//!   [`recover`]: load the latest snapshot, replay the tail.
//! * [`DurableEngine`] — wraps a [`lemp_core::DynamicLemp`] so every edit
//!   is **logged before it is applied**, under the caller's write
//!   exclusivity, with a configurable [`SyncPolicy`]. Queries delegate
//!   through the [`lemp_core::Engine`] trait, so the warmed `&self` hot
//!   path is untouched.
//! * [`sharded`] — the same composition over a [`lemp_core::ShardedLemp`]:
//!   one WAL + snapshot directory per shard plus a root `MANIFEST`
//!   (routing policy, shard count, length bands). [`ShardedDurableEngine`]
//!   routes every edit to the owning shard's log-then-apply path;
//!   [`recover_sharded`] recovers each shard directory independently and
//!   reassembles the full engine, cross-checking globally disjoint id
//!   spaces.
//! * [`replication`] — leader/follower replication over the same
//!   artifacts: a `LEMPSNP2` snapshot payload bootstraps a follower, and
//!   `LEMPREP2` batches (byte-identical `LEMPWAL1` frames, strictly
//!   sequential LSNs, a fencing epoch, CRC on every header and frame)
//!   tail-follow the leader's log; [`DurableEngine::apply_replicated`]
//!   applies each record log-then-apply at the follower's watermark, and
//!   [`DurableEngine::fence`] stamps a monotonically increasing fencing
//!   epoch so a promoted follower can reject its ex-leader. See the
//!   module docs for the exact wire framing.
//!
//! # Recovery contract
//!
//! Replay is **deterministic and self-verifying**: records carry strictly
//! sequential LSNs, inserts record the globally allocated id (a standalone
//! store requires it to equal the id the engine would assign; a shard of a
//! sharded store accepts the gaps left by ids routed to its siblings, and
//! nothing below its watermark), and the engine's edit operations are pure
//! functions of its state — so recovering a snapshot and replaying the
//! tail reproduces the pre-crash engine **bit for bit** (the
//! crash-injection suite asserts exactly that, across every fault point
//! and every corrupted-tail offset, for single and sharded stores alike).
//! Anything a corrupted directory could break surfaces as a structured
//! [`StoreError`], never a panic or a silently diverged engine.
//!
//! ```
//! use lemp_core::{BucketPolicy, DynamicLemp, RunConfig};
//! use lemp_linalg::VectorStore;
//! use lemp_store::{recover, DurableEngine, StoreOptions};
//!
//! let dir = std::env::temp_dir().join(format!("lemp-store-doc-{}", std::process::id()));
//! std::fs::remove_dir_all(&dir).ok();
//! let probes = VectorStore::from_rows(&[vec![1.0, 0.0], vec![0.0, 1.0]]).unwrap();
//! let engine = DynamicLemp::new(&probes, BucketPolicy::default(), RunConfig::default());
//!
//! let mut durable = DurableEngine::create(&dir, engine, StoreOptions::default()).unwrap();
//! let id = durable.insert(&[2.0, 2.0]).unwrap();
//! durable.remove(0).unwrap();
//! drop(durable); // crash, restart …
//!
//! let (recovered, report) = recover(&dir).unwrap();
//! assert_eq!(report.records_replayed, 2);
//! assert!(recovered.contains(id) && !recovered.contains(0));
//! std::fs::remove_dir_all(&dir).ok();
//! ```

#![warn(missing_docs)]

pub mod crc;
pub mod replication;
pub mod sharded;
pub mod store;
pub mod wal;

pub use sharded::{
    is_sharded_store, recover_sharded, shard_dir_name, ShardedDurableEngine, ShardedRecoveryReport,
};
pub use store::{
    recover, snapshot_name, CompactFault, CompactionReport, DurableEngine, RecoveryReport,
    StoreOptions,
};
pub use wal::{WalRecord, WalStats};

use std::io;
use std::path::PathBuf;

use lemp_core::PersistError;

/// When the WAL fsyncs appended records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SyncPolicy {
    /// fsync after every record — nothing acknowledged is ever lost.
    Always,
    /// fsync every N records — bounded loss window, amortized cost.
    EveryN(u64),
    /// Never fsync explicitly (the OS flushes eventually; rotation and
    /// compaction still sync) — fastest, weakest.
    Never,
}

impl SyncPolicy {
    /// Parses `always`, `never`, or an integer `N` (→ [`SyncPolicy::EveryN`]).
    ///
    /// # Errors
    /// A human-readable message for anything else.
    pub fn parse(raw: &str) -> Result<Self, String> {
        match raw {
            "always" => Ok(SyncPolicy::Always),
            "never" => Ok(SyncPolicy::Never),
            n => match n.parse::<u64>() {
                Ok(n) if n >= 1 => Ok(SyncPolicy::EveryN(n)),
                _ => Err(format!("bad sync policy {raw:?} (always|never|<records>)")),
            },
        }
    }
}

impl std::fmt::Display for SyncPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SyncPolicy::Always => write!(f, "always"),
            SyncPolicy::EveryN(n) => write!(f, "every {n} records"),
            SyncPolicy::Never => write!(f, "never"),
        }
    }
}

/// Errors raised by the durability subsystem — every way a store
/// directory can disappoint, as structured data (the crash-injection
/// suite asserts these are the *only* failure mode: no panics, no silent
/// divergence).
#[derive(Debug)]
pub enum StoreError {
    /// Underlying filesystem error.
    Io(io::Error),
    /// A file's bytes contradict the format (CRC failures, log gaps,
    /// broken headers/markers) at a specific place.
    Corrupt {
        /// The offending file.
        path: PathBuf,
        /// Byte offset of the defect.
        offset: u64,
        /// What was wrong.
        detail: String,
    },
    /// A snapshot image failed `lemp-core`'s persistence validation.
    Snapshot(PersistError),
    /// A log record contradicts the engine state it replays onto.
    Replay {
        /// The record's LSN.
        lsn: u64,
        /// What diverged.
        detail: String,
    },
    /// The directory lacks what recovery needs (no usable snapshot, not a
    /// store, already a store on create).
    Missing(String),
    /// A caller-supplied vector was rejected before anything was logged.
    Invalid(String),
    /// The WAL writer hit an I/O error earlier and refuses further
    /// appends: continuing after a partial write could interleave garbage
    /// with acknowledged records, or falsely promote lost records to
    /// durable on a later fsync. Reopen the store (recovery truncates to
    /// the last verified frame) to resume.
    Poisoned,
    /// A requested crash-injection fault point fired (tests only).
    Injected(&'static str),
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "io error: {e}"),
            StoreError::Corrupt { path, offset, detail } => {
                write!(f, "corrupt {} at byte {offset}: {detail}", path.display())
            }
            StoreError::Snapshot(e) => write!(f, "snapshot: {e}"),
            StoreError::Replay { lsn, detail } => write!(f, "replay at LSN {lsn}: {detail}"),
            StoreError::Missing(msg) => write!(f, "{msg}"),
            StoreError::Invalid(msg) => write!(f, "invalid input: {msg}"),
            StoreError::Poisoned => {
                write!(f, "log writer poisoned by an earlier I/O error; reopen the store")
            }
            StoreError::Injected(stage) => write!(f, "injected fault: {stage}"),
        }
    }
}

impl std::error::Error for StoreError {}

impl From<io::Error> for StoreError {
    fn from(e: io::Error) -> Self {
        StoreError::Io(e)
    }
}

impl From<PersistError> for StoreError {
    fn from(e: PersistError) -> Self {
        StoreError::Snapshot(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sync_policy_parses() {
        assert_eq!(SyncPolicy::parse("always"), Ok(SyncPolicy::Always));
        assert_eq!(SyncPolicy::parse("never"), Ok(SyncPolicy::Never));
        assert_eq!(SyncPolicy::parse("16"), Ok(SyncPolicy::EveryN(16)));
        assert!(SyncPolicy::parse("0").is_err());
        assert!(SyncPolicy::parse("sometimes").is_err());
        assert_eq!(SyncPolicy::EveryN(4).to_string(), "every 4 records");
    }
}
