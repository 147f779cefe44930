//! Wire framing and disk-side plumbing for leader/follower replication.
//!
//! Replication ships the store's own durability artifacts over the wire —
//! there is no second log format. A follower bootstraps from the leader's
//! checkpoint snapshot, then tail-follows the leader's `LEMPWAL1` log and
//! applies each record through the same self-verifying replay path crash
//! recovery uses, so a replica is correct for exactly the reasons a
//! recovered store is.
//!
//! # Wire framing
//!
//! Two self-describing binary messages, little-endian throughout:
//!
//! **Snapshot** (`LEMPSNP2`) — the bootstrap payload:
//!
//! ```text
//! magic "LEMPSNP2" (8) | checkpoint LSN (u64) | fencing epoch (u64) |
//! image length (u64) | image CRC-32 (u32) |
//! engine image (image length bytes)
//! ```
//!
//! The image is what [`lemp_core::DynamicLemp::write_to`] writes:
//! `LEMPDYN1`, or `LEMPDYN3` when the engine is quantized.
//!
//! **Batch** (`LEMPREP2`) — one tail-follow response:
//!
//! ```text
//! magic "LEMPREP2" (8) | from LSN (u64) | leader next LSN (u64) |
//! fencing epoch (u64) | record count (u32) | header CRC-32 (u32) |
//! count WAL frames
//! ```
//!
//! Each frame is byte-identical to its on-disk `LEMPWAL1` form
//! (`payload length (u32) | payload CRC-32 (u32) | payload`), and record
//! LSNs are strictly sequential from the batch's *from LSN* — so the
//! follower's append path reproduces the leader's log bit for bit. The
//! header CRC covers the 36 bytes before it; together with the per-frame
//! CRCs every single-bit corruption of a batch is detected. `leader next
//! LSN` is the leader's log end at feed time, which is what the follower's
//! `lag_lsn` is computed from. The *fencing epoch* is the sender's fence
//! at feed time: a follower whose store carries a higher epoch refuses the
//! batch outright (the sender is a fenced ex-leader whose log may have
//! diverged past the fence point).
//!
//! Decoding is strict: a bad magic, a mismatched *from LSN*, a count that
//! disagrees with the frames present, trailing bytes, a CRC failure, or a
//! non-sequential LSN all surface as [`StoreError::Corrupt`] — a truncated
//! or hostile stream can never yield fewer (or different) records than the
//! header promised.
//!
//! # Leader side
//!
//! [`feed`] serves the tail: it reads the log segments on disk and
//! re-encodes the records at or past the requested LSN into one batch.
//! Only *flushed* frames are visible — a record the leader has not yet
//! written to its own log is not replicated, so a follower can never be
//! ahead of what the leader would itself recover. A request below the
//! first on-disk record (the leader compacted past it) is [`Feed::Gap`]:
//! the follower must re-bootstrap. [`read_bootstrap`] packages the
//! marker-pinned checkpoint snapshot for bootstrap.
//!
//! # Follower side
//!
//! [`bootstrap`] materializes a fresh store directory from a snapshot
//! payload (image + marker + empty log segment, the exact layout
//! [`DurableEngine::create`] leaves) and opens it through the ordinary
//! recovery path. Bootstrap is not crash-atomic: a directory torn mid-
//! bootstrap should be deleted and bootstrapped again (nothing has been
//! acknowledged from it). [`DurableEngine::apply_replicated`] then applies
//! each tailed record log-then-apply at the follower's watermark,
//! rejecting duplicate, stale, or gapped LSNs as structured
//! [`StoreError::Replay`] errors.

use std::fs::File;
use std::io::Write;
use std::path::{Path, PathBuf};

use lemp_core::DynamicLemp;

use crate::crc::crc32;
use crate::store::{
    list_snapshots, read_marker, snapshot_name, Marker, RecoveryReport, StoreOptions,
};
use crate::wal::{
    encode_frame, list_segments, read_segment, sync_dir, WalRecord, WalWriter, MAX_PAYLOAD,
};
use crate::{store::write_marker, DurableEngine, StoreError};

/// Magic bytes opening every replication batch (`LEMPREP2` added the
/// fencing epoch).
pub const REPL_MAGIC: &[u8; 8] = b"LEMPREP2";

/// Magic bytes opening every bootstrap snapshot payload (`LEMPSNP2` added
/// the fencing epoch).
pub const SNAP_MAGIC: &[u8; 8] = b"LEMPSNP2";

/// Batch header length: magic + from LSN + leader next LSN + fencing
/// epoch + count + CRC.
const BATCH_HEADER: usize = 40;

/// Snapshot header length: magic + LSN + fencing epoch + image length +
/// image CRC.
const SNAP_HEADER: usize = 36;

/// Upper bound on records per batch — a hostile count cannot size an
/// allocation, and a leader feed stays bounded per long-poll round trip.
pub const MAX_BATCH_RECORDS: usize = 4096;

/// Stand-in path used in [`StoreError::Corrupt`] for defects in a decoded
/// wire message (which has no file behind it).
fn stream_path() -> PathBuf {
    PathBuf::from("<replication stream>")
}

fn corrupt(offset: u64, detail: String) -> StoreError {
    StoreError::Corrupt { path: stream_path(), offset, detail }
}

/// A decoded tail-follow batch.
#[derive(Debug)]
pub struct ReplBatch {
    /// The LSN the batch starts at (== the follower's requested watermark).
    pub from_lsn: u64,
    /// The leader's log end when the batch was built — `lag_lsn` is
    /// `leader_next_lsn - (from_lsn + records.len())`.
    pub leader_next_lsn: u64,
    /// The sender's fencing epoch at feed time — the receiver rejects a
    /// batch below its own fence.
    pub epoch: u64,
    /// The records, with strictly sequential LSNs from `from_lsn`.
    pub records: Vec<(u64, WalRecord)>,
}

/// Encodes one batch stamped with the sender's fencing `epoch`. `records`
/// must carry strictly sequential LSNs starting at `from_lsn`
/// (debug-asserted; [`decode_batch`] enforces it on the receiving side
/// regardless).
pub fn encode_batch(
    from_lsn: u64,
    leader_next_lsn: u64,
    epoch: u64,
    records: &[(u64, WalRecord)],
) -> Vec<u8> {
    let mut bytes = Vec::with_capacity(BATCH_HEADER + 64 * records.len());
    bytes.extend_from_slice(REPL_MAGIC);
    bytes.extend_from_slice(&from_lsn.to_le_bytes());
    bytes.extend_from_slice(&leader_next_lsn.to_le_bytes());
    bytes.extend_from_slice(&epoch.to_le_bytes());
    bytes.extend_from_slice(&(records.len() as u32).to_le_bytes());
    let header_crc = crc32(&bytes[..BATCH_HEADER - 4]);
    bytes.extend_from_slice(&header_crc.to_le_bytes());
    for (i, (lsn, record)) in records.iter().enumerate() {
        debug_assert_eq!(*lsn, from_lsn + i as u64, "batch LSNs must be sequential");
        bytes.extend_from_slice(&encode_frame(*lsn, record));
    }
    bytes
}

/// Decodes and fully verifies one batch. `expect_from` is the watermark
/// the follower asked for — a batch answering a different LSN is rejected.
///
/// # Errors
/// [`StoreError::Corrupt`] on any framing defect: bad magic, header CRC
/// failure, mismatched from-LSN, truncated or oversized frames, per-frame
/// CRC failures, non-sequential LSNs, a count that disagrees with the
/// frames present, or trailing bytes.
pub fn decode_batch(bytes: &[u8], expect_from: u64) -> Result<ReplBatch, StoreError> {
    if bytes.len() < BATCH_HEADER {
        return Err(corrupt(0, format!("batch holds {} bytes, header needs 40", bytes.len())));
    }
    if &bytes[..8] != REPL_MAGIC {
        return Err(corrupt(0, format!("bad batch magic {:?}", &bytes[..8])));
    }
    let header_crc = u32::from_le_bytes(bytes[36..40].try_into().expect("4-byte slice"));
    if crc32(&bytes[..36]) != header_crc {
        return Err(corrupt(36, "batch header fails its CRC".into()));
    }
    let from_lsn = u64::from_le_bytes(bytes[8..16].try_into().expect("8-byte slice"));
    let leader_next_lsn = u64::from_le_bytes(bytes[16..24].try_into().expect("8-byte slice"));
    let epoch = u64::from_le_bytes(bytes[24..32].try_into().expect("8-byte slice"));
    let count = u32::from_le_bytes(bytes[32..36].try_into().expect("4-byte slice")) as usize;
    if from_lsn != expect_from {
        return Err(corrupt(8, format!("batch answers LSN {from_lsn}, asked for {expect_from}")));
    }
    if count > MAX_BATCH_RECORDS {
        return Err(corrupt(32, format!("implausible record count {count}")));
    }
    let mut records = Vec::with_capacity(count);
    let mut offset = BATCH_HEADER;
    let mut next_lsn = from_lsn;
    while records.len() < count {
        let Some(prefix) = bytes.get(offset..offset + 8) else {
            return Err(corrupt(
                offset as u64,
                format!("batch truncated: {} of {count} records present", records.len()),
            ));
        };
        let len = u32::from_le_bytes(prefix[..4].try_into().expect("4-byte slice"));
        let frame_crc = u32::from_le_bytes(prefix[4..8].try_into().expect("4-byte slice"));
        if len > MAX_PAYLOAD {
            return Err(corrupt(offset as u64, format!("implausible payload length {len}")));
        }
        let Some(payload) = bytes.get(offset + 8..offset + 8 + len as usize) else {
            return Err(corrupt(offset as u64, format!("payload of {len} bytes cut short")));
        };
        if crc32(payload) != frame_crc {
            return Err(corrupt(offset as u64, "payload fails its CRC".into()));
        }
        let (lsn, record) =
            crate::wal::decode_payload(payload).map_err(|detail| corrupt(offset as u64, detail))?;
        if lsn != next_lsn {
            return Err(corrupt(
                offset as u64,
                format!("record carries LSN {lsn}, expected {next_lsn}"),
            ));
        }
        records.push((lsn, record));
        next_lsn += 1;
        offset += 8 + len as usize;
    }
    if offset != bytes.len() {
        return Err(corrupt(
            offset as u64,
            format!("{} trailing bytes after the last record", bytes.len() - offset),
        ));
    }
    Ok(ReplBatch { from_lsn, leader_next_lsn, epoch, records })
}

/// Encodes a bootstrap snapshot payload around a
/// [`DynamicLemp::write_to`] engine image taken at checkpoint `lsn` under
/// fencing `epoch`.
pub fn encode_snapshot(lsn: u64, epoch: u64, image: &[u8]) -> Vec<u8> {
    let mut bytes = Vec::with_capacity(SNAP_HEADER + image.len());
    bytes.extend_from_slice(SNAP_MAGIC);
    bytes.extend_from_slice(&lsn.to_le_bytes());
    bytes.extend_from_slice(&epoch.to_le_bytes());
    bytes.extend_from_slice(&(image.len() as u64).to_le_bytes());
    bytes.extend_from_slice(&crc32(image).to_le_bytes());
    bytes.extend_from_slice(image);
    bytes
}

/// Decodes a bootstrap snapshot payload back to `(checkpoint LSN, fencing
/// epoch, image)`. The image bytes are CRC-verified here; [`bootstrap`]
/// additionally decodes them through `lemp-core`'s persistence validation
/// before writing anything to disk.
///
/// # Errors
/// [`StoreError::Corrupt`] on bad magic, truncation, a length that
/// disagrees with the bytes present, or a CRC failure.
pub fn decode_snapshot(bytes: &[u8]) -> Result<(u64, u64, Vec<u8>), StoreError> {
    if bytes.len() < SNAP_HEADER {
        return Err(corrupt(0, format!("snapshot holds {} bytes, header needs 36", bytes.len())));
    }
    if &bytes[..8] != SNAP_MAGIC {
        return Err(corrupt(0, format!("bad snapshot magic {:?}", &bytes[..8])));
    }
    let lsn = u64::from_le_bytes(bytes[8..16].try_into().expect("8-byte slice"));
    let epoch = u64::from_le_bytes(bytes[16..24].try_into().expect("8-byte slice"));
    let image_len = u64::from_le_bytes(bytes[24..32].try_into().expect("8-byte slice")) as usize;
    let crc = u32::from_le_bytes(bytes[32..36].try_into().expect("4-byte slice"));
    let image = &bytes[SNAP_HEADER..];
    if image.len() != image_len {
        return Err(corrupt(
            24,
            format!("snapshot declares {image_len} image bytes, {} present", image.len()),
        ));
    }
    if crc32(image) != crc {
        return Err(corrupt(32, "snapshot image fails its CRC".into()));
    }
    Ok((lsn, epoch, image.to_vec()))
}

/// What [`feed`] hands back for one tail-follow request.
#[derive(Debug)]
pub enum Feed {
    /// An encoded [`ReplBatch`] (possibly empty when the follower is
    /// caught up) plus the record count it carries and the leader's log
    /// end, so the caller can account without re-decoding its own bytes.
    Batch {
        /// The encoded `LEMPREP1` message.
        bytes: Vec<u8>,
        /// Records inside it.
        records: usize,
        /// The leader's log end at feed time.
        leader_next: u64,
    },
    /// The requested LSN precedes the first on-disk record — compaction
    /// pruned past the follower's watermark, and only a fresh bootstrap
    /// can catch it up.
    Gap {
        /// The earliest LSN still available on disk.
        first_available: u64,
    },
}

/// Leader-side tail feed: collects up to `max_records` flushed records at
/// or past `from` from the log segments in `dir` and encodes them as one
/// batch stamped with the sender's fencing `epoch`. Reads the segments
/// from disk, so it needs no lock on the live engine; only frames the
/// writer has flushed are visible (a record the leader itself would lose
/// in a crash is never replicated).
///
/// # Errors
/// [`StoreError::Missing`] when `dir` holds no segments at all,
/// [`StoreError::Corrupt`] on a torn non-final segment or a log gap,
/// [`StoreError::Io`] on read failures (transient during concurrent
/// compaction — the follower retries).
pub fn feed(dir: &Path, from: u64, max_records: usize, epoch: u64) -> Result<Feed, StoreError> {
    let segments = list_segments(dir)?;
    if segments.is_empty() {
        return Err(StoreError::Missing(format!(
            "{} holds no log segments to replicate",
            dir.display()
        )));
    }
    let first_available = segments[0].0;
    if from < first_available {
        return Ok(Feed::Gap { first_available });
    }
    let max_records = max_records.min(MAX_BATCH_RECORDS);
    let mut records: Vec<(u64, WalRecord)> = Vec::new();
    let mut log_end = first_available;
    for (i, (start, path)) in segments.iter().enumerate() {
        // A segment wholly below `from` is skipped without reading it: the
        // successor's start LSN is also this segment's end.
        if let Some((next_start, _)) = segments.get(i + 1) {
            if *next_start <= from {
                log_end = *next_start;
                continue;
            }
        }
        let scan = read_segment(path)?;
        if scan.torn.is_some() && i + 1 != segments.len() {
            return Err(StoreError::Corrupt {
                path: path.clone(),
                offset: scan.valid_len,
                detail: format!(
                    "torn in a non-final segment: {}",
                    scan.torn.as_deref().unwrap_or("")
                ),
            });
        }
        if scan.start_lsn > log_end.max(*start) {
            return Err(StoreError::Corrupt {
                path: path.clone(),
                offset: 0,
                detail: format!(
                    "log gap: previous segment ends at LSN {log_end}, next starts at {}",
                    scan.start_lsn
                ),
            });
        }
        log_end = scan.start_lsn + scan.records.len() as u64;
        for (lsn, record) in scan.records {
            if lsn >= from && records.len() < max_records {
                records.push((lsn, record));
            }
        }
    }
    // The collected run must be exactly [from, from + n) — anything else
    // means the directory contradicts its own contiguity invariant.
    for (i, (lsn, _)) in records.iter().enumerate() {
        if *lsn != from + i as u64 {
            return Err(StoreError::Corrupt {
                path: dir.to_path_buf(),
                offset: 0,
                detail: format!("collected LSN {lsn} where {} was expected", from + i as u64),
            });
        }
    }
    let count = records.len();
    Ok(Feed::Batch {
        bytes: encode_batch(from, log_end, epoch, &records),
        records: count,
        leader_next: log_end,
    })
}

/// Leader-side bootstrap feed: packages the store's checkpoint snapshot
/// (the marker-pinned one, or the newest on disk when the marker is
/// absent) as an encoded `LEMPSNP1` payload.
///
/// # Errors
/// [`StoreError::Missing`] when no snapshot exists, [`StoreError::Corrupt`]
/// when the marker or the pinned image is broken, [`StoreError::Io`] on
/// read failures.
pub fn read_bootstrap(dir: &Path) -> Result<Vec<u8>, StoreError> {
    let marker = read_marker(dir)?;
    let snapshots = list_snapshots(dir)?;
    let missing =
        || StoreError::Missing(format!("{} holds no snapshot to bootstrap from", dir.display()));
    let (lsn, path) = match &marker {
        Some(m) => snapshots.iter().find(|(lsn, _)| *lsn == m.lsn).cloned().ok_or_else(missing)?,
        None => snapshots.last().cloned().ok_or_else(missing)?,
    };
    // The marker's fencing epoch covers everything folded into the
    // snapshot; any later bump still sits in the log and replicates
    // through the tail.
    let epoch = marker.as_ref().map_or(0, |m| m.fence_epoch);
    let image = std::fs::read(&path)?;
    if let Some(m) = marker {
        if image.len() as u64 != m.snapshot_len || crc32(&image) != m.snapshot_crc {
            return Err(StoreError::Corrupt {
                path,
                offset: 0,
                detail: "snapshot does not match its marker".into(),
            });
        }
    }
    Ok(encode_snapshot(lsn, epoch, &image))
}

/// Follower-side bootstrap: materializes a fresh store directory from a
/// leader's snapshot payload and opens it for appending. The directory
/// ends up in the exact layout [`DurableEngine::create`] produces — the
/// snapshot image at its checkpoint LSN, a `CHECKPOINT` marker pinning it,
/// and an empty log segment starting there — and is then opened through
/// the ordinary recovery path, so everything recovery verifies holds for
/// the replica too.
///
/// # Errors
/// [`StoreError::Corrupt`]/[`StoreError::Snapshot`] when the payload or
/// its image is invalid (nothing is written), [`StoreError::Missing`] when
/// `dir` already holds a store, [`StoreError::Io`] on filesystem failures
/// (a torn bootstrap directory should be deleted and bootstrapped again).
pub fn bootstrap(
    dir: &Path,
    payload: &[u8],
    options: StoreOptions,
) -> Result<(DurableEngine, RecoveryReport), StoreError> {
    let (lsn, epoch, image) = decode_snapshot(payload)?;
    // Validate the image end to end before touching the filesystem.
    DynamicLemp::read_from(&image[..])?;
    std::fs::create_dir_all(dir)?;
    if DurableEngine::exists(dir) {
        return Err(StoreError::Missing(format!(
            "{} already holds a store (open it instead of bootstrapping over it)",
            dir.display()
        )));
    }
    let final_path = dir.join(snapshot_name(lsn));
    let tmp = dir.join(format!("{}.tmp", snapshot_name(lsn)));
    let mut file = File::create(&tmp)?;
    file.write_all(&image)?;
    file.sync_all()?;
    drop(file);
    std::fs::rename(&tmp, &final_path)?;
    sync_dir(dir)?;
    // The first segment before the marker: once the marker exists the
    // directory claims to be a store, and a store's checkpoint must always
    // be bracketed by its log.
    drop(WalWriter::create(dir, lsn, options.sync, options.segment_bytes)?);
    write_marker(
        dir,
        Marker {
            lsn,
            snapshot_len: image.len() as u64,
            snapshot_crc: crc32(&image),
            fence_epoch: epoch,
        },
    )?;
    DurableEngine::open(dir, options)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn records(from: u64, n: usize) -> Vec<(u64, WalRecord)> {
        (0..n)
            .map(|i| {
                let lsn = from + i as u64;
                (lsn, WalRecord::Insert { id: lsn as u32, vector: vec![lsn as f64, 1.0] })
            })
            .collect()
    }

    #[test]
    fn batch_roundtrips() {
        let recs = records(7, 5);
        let bytes = encode_batch(7, 20, 3, &recs);
        let batch = decode_batch(&bytes, 7).unwrap();
        assert_eq!(batch.from_lsn, 7);
        assert_eq!(batch.leader_next_lsn, 20);
        assert_eq!(batch.epoch, 3);
        assert_eq!(batch.records, recs);
    }

    #[test]
    fn empty_batch_roundtrips() {
        let bytes = encode_batch(42, 42, 0, &[]);
        let batch = decode_batch(&bytes, 42).unwrap();
        assert!(batch.records.is_empty());
        assert_eq!(batch.leader_next_lsn, 42);
        assert_eq!(batch.epoch, 0);
    }

    #[test]
    fn batch_for_the_wrong_watermark_is_rejected() {
        let bytes = encode_batch(7, 9, 0, &records(7, 2));
        let err = decode_batch(&bytes, 8).unwrap_err();
        assert!(matches!(err, StoreError::Corrupt { .. }), "{err}");
    }

    #[test]
    fn snapshot_roundtrips_and_rejects_corruption() {
        let image = vec![1u8, 2, 3, 4, 5];
        let bytes = encode_snapshot(9, 2, &image);
        assert_eq!(decode_snapshot(&bytes).unwrap(), (9, 2, image));
        let mut flipped = bytes.clone();
        *flipped.last_mut().unwrap() ^= 0x40;
        assert!(matches!(decode_snapshot(&flipped), Err(StoreError::Corrupt { .. })));
        assert!(matches!(decode_snapshot(&bytes[..20]), Err(StoreError::Corrupt { .. })));
    }
}
