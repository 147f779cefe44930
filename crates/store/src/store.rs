//! The store directory: snapshots + checkpoint marker + WAL segments, and
//! the [`DurableEngine`] that keeps a [`DynamicLemp`] and its log in step.
//!
//! # Directory layout
//!
//! ```text
//! store/
//!   snap-<lsn:016x>.eng    engine image folding records < lsn
//!   CHECKPOINT             marker: magic + lsn + snapshot len + fencing
//!                          epoch + snapshot CRC + CRC (tmp+rename)
//!   wal-<lsn:016x>.log     LEMPWAL1 segments (see [`crate::wal`])
//! ```
//!
//! A snapshot is the [`DynamicLemp::write_to`] image of the engine:
//! `LEMPDYN1`, or `LEMPDYN3` when it is quantized.
//!
//! # Protocol invariants
//!
//! * **Log-then-apply**: every edit is appended to the WAL *before* it
//!   mutates the engine, under the caller's write exclusivity. Replaying
//!   the log from a snapshot therefore reproduces the engine bit-for-bit —
//!   inserts even record the id the engine assigned, so replay verifies it
//!   rebuilds the exact same id sequence.
//! * **Snapshot-then-marker-then-prune**: compaction first makes the new
//!   snapshot durable (tmp + fsync + rename + dir fsync), then moves the
//!   `CHECKPOINT` marker, then prunes segments and snapshots the marker
//!   made redundant. A crash between any two steps leaves a recoverable
//!   directory: recovery prefers the marker and falls back to scanning.
//! * **Torn tails**: only the *last* segment may end mid-record (the crash
//!   signature); recovery drops the tail, reopening for append truncates
//!   it. A torn or missing middle segment is [`StoreError::Corrupt`] —
//!   acknowledged records must never be skipped silently.

use std::fs::File;
use std::io::{Read, Write};
use std::path::{Path, PathBuf};

use lemp_core::{DynamicLemp, WarmGoal, WarmReport};
use lemp_linalg::VectorStore;

use crate::crc::crc32;
use crate::wal::{
    list_segments, read_segment, sync_dir, SegmentScan, WalRecord, WalStats, WalWriter,
};
use crate::{StoreError, SyncPolicy};

/// Marker file name.
pub(crate) const MARKER: &str = "CHECKPOINT";
/// Marker magic bytes (`LEMPCKP2` added the fencing epoch field).
const MARKER_MAGIC: &[u8; 8] = b"LEMPCKP2";
/// Marker file length: magic + lsn + snapshot_len + fence_epoch +
/// snapshot_crc + crc.
const MARKER_LEN: usize = 40;

/// Tuning knobs of a store.
#[derive(Debug, Clone, Copy)]
pub struct StoreOptions {
    /// When appended records are fsynced (durability vs. throughput).
    pub sync: SyncPolicy,
    /// Segment rotation threshold in bytes.
    pub segment_bytes: u64,
}

impl Default for StoreOptions {
    fn default() -> Self {
        Self { sync: SyncPolicy::Always, segment_bytes: 4 << 20 }
    }
}

/// What [`recover`] did to bring the engine back.
#[derive(Debug, Clone)]
pub struct RecoveryReport {
    /// LSN of the snapshot the engine was seeded from.
    pub snapshot_lsn: u64,
    /// Records replayed on top of the snapshot.
    pub records_replayed: u64,
    /// The LSN the next edit will carry.
    pub next_lsn: u64,
    /// Segment files scanned.
    pub segments_scanned: usize,
    /// The torn-tail diagnostic of the last segment, when a crash cut it.
    pub torn_tail: Option<String>,
    /// Live probe count of the recovered engine.
    pub live_probes: usize,
    /// The recovered fencing epoch: the marker's, raised by any epoch
    /// records found in the log.
    pub fence_epoch: u64,
}

/// What [`DurableEngine::compact`] reclaimed.
#[derive(Debug, Clone, Copy)]
pub struct CompactionReport {
    /// The new checkpoint LSN (records below it live in the snapshot).
    pub lsn: u64,
    /// WAL segment files pruned.
    pub segments_pruned: usize,
    /// Old snapshot images pruned.
    pub snapshots_pruned: usize,
    /// Bytes of pruned files.
    pub bytes_reclaimed: u64,
}

/// Crash-injection points inside [`DurableEngine::compact_with_fault`]:
/// compaction stops *after* completing the named step, leaving the
/// directory exactly as a crash at that moment would.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CompactFault {
    /// The new snapshot is durable, the marker still points at the old one.
    AfterSnapshot,
    /// The marker moved, stale segments/snapshots not yet pruned.
    AfterMarker,
}

/// Snapshot file name for a checkpoint LSN.
pub fn snapshot_name(lsn: u64) -> String {
    format!("snap-{lsn:016x}.eng")
}

/// Parses a snapshot file name back to its checkpoint LSN.
pub fn parse_snapshot_name(name: &str) -> Option<u64> {
    let hex = name.strip_prefix("snap-")?.strip_suffix(".eng")?;
    if hex.len() != 16 {
        return None;
    }
    u64::from_str_radix(hex, 16).ok()
}

/// What the `CHECKPOINT` marker pins: the checkpoint LSN plus the byte
/// length and CRC-32 of the snapshot image it points at — so a snapshot
/// whose bytes rotted after the marker was written is *detected*, never
/// silently loaded — plus the fencing epoch at checkpoint time, so the
/// fence survives compaction pruning the epoch records below the
/// checkpoint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Marker {
    pub(crate) lsn: u64,
    pub(crate) snapshot_len: u64,
    pub(crate) snapshot_crc: u32,
    pub(crate) fence_epoch: u64,
}

/// Writes the `CHECKPOINT` marker atomically (tmp + fsync + rename + dir
/// fsync).
pub(crate) fn write_marker(dir: &Path, marker: Marker) -> Result<(), StoreError> {
    let mut bytes = Vec::with_capacity(MARKER_LEN);
    bytes.extend_from_slice(MARKER_MAGIC);
    bytes.extend_from_slice(&marker.lsn.to_le_bytes());
    bytes.extend_from_slice(&marker.snapshot_len.to_le_bytes());
    bytes.extend_from_slice(&marker.fence_epoch.to_le_bytes());
    bytes.extend_from_slice(&marker.snapshot_crc.to_le_bytes());
    let crc = crc32(&bytes);
    bytes.extend_from_slice(&crc.to_le_bytes());
    let tmp = dir.join(format!("{MARKER}.tmp"));
    let mut file = File::create(&tmp)?;
    file.write_all(&bytes)?;
    file.sync_all()?;
    drop(file);
    std::fs::rename(&tmp, dir.join(MARKER))?;
    sync_dir(dir)?;
    Ok(())
}

/// Reads the marker: `Ok(None)` when absent, [`StoreError::Corrupt`] when
/// present but broken (recovery then falls back to scanning snapshots).
pub(crate) fn read_marker(dir: &Path) -> Result<Option<Marker>, StoreError> {
    let path = dir.join(MARKER);
    let mut bytes = Vec::new();
    match File::open(&path) {
        Ok(mut f) => f.read_to_end(&mut bytes)?,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(e.into()),
    };
    let corrupt = |detail: String| StoreError::Corrupt { path: path.clone(), offset: 0, detail };
    if bytes.len() != MARKER_LEN {
        return Err(corrupt(format!("marker holds {} bytes, needs {MARKER_LEN}", bytes.len())));
    }
    if &bytes[..8] != MARKER_MAGIC {
        return Err(corrupt(format!("bad marker magic {:?}", &bytes[..8])));
    }
    let crc = u32::from_le_bytes(bytes[36..40].try_into().expect("4-byte slice"));
    if crc32(&bytes[..36]) != crc {
        return Err(corrupt("marker fails its CRC".into()));
    }
    Ok(Some(Marker {
        lsn: u64::from_le_bytes(bytes[8..16].try_into().expect("8-byte slice")),
        snapshot_len: u64::from_le_bytes(bytes[16..24].try_into().expect("8-byte slice")),
        fence_epoch: u64::from_le_bytes(bytes[24..32].try_into().expect("8-byte slice")),
        snapshot_crc: u32::from_le_bytes(bytes[32..36].try_into().expect("4-byte slice")),
    }))
}

/// Lists snapshots as `(lsn, path)`, ascending.
pub(crate) fn list_snapshots(dir: &Path) -> Result<Vec<(u64, PathBuf)>, StoreError> {
    let mut snaps = Vec::new();
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        if let Some(lsn) = entry.file_name().to_str().and_then(parse_snapshot_name) {
            snaps.push((lsn, entry.path()));
        }
    }
    snaps.sort_unstable_by_key(|&(lsn, _)| lsn);
    Ok(snaps)
}

/// Writes a durable snapshot image of `engine` at checkpoint `lsn` (tmp +
/// fsync + rename + dir fsync) and returns the [`Marker`] describing it.
/// The image is the ordinary dynamic-engine format of
/// [`DynamicLemp::write_to`] (`LEMPDYN1`, or `LEMPDYN3` when quantized) —
/// the snapshotter reuses `lemp-core`'s persistence end to end rather than
/// keeping a copy.
pub(crate) fn write_snapshot(
    dir: &Path,
    engine: &DynamicLemp,
    lsn: u64,
) -> Result<Marker, StoreError> {
    let mut image = Vec::new();
    engine.write_to(&mut image)?;
    // The caller raises `fence_epoch` before writing the marker when the
    // store carries a fence (sharded stores never do).
    let marker = Marker {
        lsn,
        snapshot_len: image.len() as u64,
        snapshot_crc: crc32(&image),
        fence_epoch: 0,
    };
    let final_path = dir.join(snapshot_name(lsn));
    let tmp = dir.join(format!("{}.tmp", snapshot_name(lsn)));
    let mut file = File::create(&tmp)?;
    file.write_all(&image)?;
    file.sync_all()?;
    drop(file);
    std::fs::rename(&tmp, &final_path)?;
    sync_dir(dir)?;
    Ok(marker)
}

/// Everything recovery learned, including what a writer needs to resume.
pub(crate) struct Recovered {
    pub(crate) engine: DynamicLemp,
    pub(crate) report: RecoveryReport,
    /// The last segment's scan + path (the writer resumes into it), absent
    /// when the directory holds no segments.
    pub(crate) tail: Option<(SegmentScan, PathBuf)>,
}

/// How replay matches a logged insert id against the engine watermark.
///
/// A standalone store allocates ids itself, so the recorded id must equal
/// the watermark exactly ([`IdSpace::Dense`]). A shard of a sharded store
/// sees only its slice of a *global* id space: ids skip the values routed
/// to sibling shards, so replay accepts any id at or above the local
/// watermark and pads the gap with dead filler ([`IdSpace::Routed`]) —
/// exactly what [`lemp_core::DynamicLemp::insert_with_id`] does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum IdSpace {
    Dense,
    Routed,
}

/// Core recovery: load the best snapshot, replay the WAL tail.
pub(crate) fn recover_inner(dir: &Path, ids: IdSpace) -> Result<Recovered, StoreError> {
    if !dir.is_dir() {
        return Err(StoreError::Missing(format!("{} is not a directory", dir.display())));
    }
    // Scan every segment up front; contiguity and torn-tail position are
    // global properties, not per-file ones.
    let segments = list_segments(dir)?;
    let mut scans: Vec<(PathBuf, SegmentScan)> = Vec::with_capacity(segments.len());
    for (i, (start, path)) in segments.iter().enumerate() {
        let scan = read_segment(path)?;
        debug_assert_eq!(scan.start_lsn, *start);
        if let Some(detail) = &scan.torn {
            if i + 1 != segments.len() {
                return Err(StoreError::Corrupt {
                    path: path.clone(),
                    offset: scan.valid_len,
                    detail: format!("torn in a non-final segment: {detail}"),
                });
            }
        }
        if let Some((prev_path, prev)) = scans.last() {
            let prev_end = prev.start_lsn + prev.records.len() as u64;
            if prev_end != scan.start_lsn {
                return Err(StoreError::Corrupt {
                    path: prev_path.clone(),
                    offset: prev.valid_len,
                    detail: format!(
                        "log gap: segment ends at LSN {prev_end}, next starts at {}",
                        scan.start_lsn
                    ),
                });
            }
        }
        scans.push((path.clone(), scan));
    }
    let first_available = scans.first().map(|(_, s)| s.start_lsn);
    let log_end = scans.last().map(|(_, s)| s.start_lsn + s.records.len() as u64);

    // Pick the snapshot: the marker's, or (marker absent/corrupt/unusable)
    // the newest snapshot whose LSN the log still *brackets*. The upper
    // bound matters as much as the lower one: a checkpoint past the log's
    // end means the final segment(s) were lost — resuming there would
    // reuse LSNs below the checkpoint, and every future recovery would
    // silently skip the records written at them. A healthy store always
    // has at least one segment (creation and rotation both leave one), so
    // "no segments at all" is loss too, never acceptable alongside a
    // checkpoint.
    let marker = read_marker(dir);
    // The marker's fencing epoch is a durable floor even when recovery
    // falls back to another snapshot: epochs only ever grow, and the
    // records that raised past it (if any) are still in the log.
    let epoch_floor = match &marker {
        Ok(Some(m)) => m.fence_epoch,
        _ => 0,
    };
    let snapshots = list_snapshots(dir)?;
    let usable = |lsn: u64| match (first_available, log_end) {
        (Some(first), Some(end)) => lsn >= first && lsn <= end,
        _ => false,
    };
    let mut candidates: Vec<(u64, PathBuf, Option<Marker>)> = Vec::new();
    if let Ok(Some(m)) = &marker {
        if let Some((_, path)) = snapshots.iter().find(|(s, _)| s == &m.lsn) {
            candidates.push((m.lsn, path.clone(), Some(*m)));
        }
    }
    for (lsn, path) in snapshots.iter().rev() {
        if usable(*lsn) && !candidates.iter().any(|(c, _, _)| c == lsn) {
            candidates.push((*lsn, path.clone(), None));
        }
    }
    if candidates.is_empty() {
        return Err(StoreError::Missing(format!(
            "{} holds no usable snapshot (marker: {})",
            dir.display(),
            match &marker {
                Ok(Some(m)) => format!("LSN {}", m.lsn),
                Ok(None) => "absent".into(),
                Err(e) => format!("unreadable: {e}"),
            }
        )));
    }
    let mut last_error: Option<StoreError> = None;
    for (snapshot_lsn, path, pinned) in candidates {
        let mut image = Vec::new();
        if let Err(e) = File::open(&path).and_then(|mut f| f.read_to_end(&mut image)) {
            last_error = Some(StoreError::Io(e));
            continue;
        }
        // The marker pins the snapshot's length and CRC: a snapshot whose
        // bytes rotted *after* the checkpoint completed is detected here
        // instead of being decoded into a plausible-but-wrong engine.
        if let Some(m) = pinned {
            if image.len() as u64 != m.snapshot_len || crc32(&image) != m.snapshot_crc {
                last_error = Some(StoreError::Corrupt {
                    path: path.clone(),
                    offset: 0,
                    detail: format!(
                        "snapshot does not match its marker (len {} vs {}, CRC mismatch)",
                        image.len(),
                        m.snapshot_len
                    ),
                });
                continue;
            }
        }
        let engine = match DynamicLemp::read_from(&image[..]) {
            Ok(engine) => engine,
            Err(e) => {
                last_error = Some(StoreError::Snapshot(e));
                continue;
            }
        };
        if !usable(snapshot_lsn) {
            last_error = Some(StoreError::Corrupt {
                path: path.clone(),
                offset: 0,
                detail: format!(
                    "snapshot at LSN {snapshot_lsn} is not bracketed by the log (first \
                     available record: {first_available:?}, log end: {log_end:?}) — segment \
                     files are missing"
                ),
            });
            continue;
        }
        return replay(dir, engine, snapshot_lsn, scans, ids, epoch_floor);
    }
    Err(last_error.expect("candidates were non-empty"))
}

/// Replays every record with `lsn ≥ snapshot_lsn` onto `engine`.
fn replay(
    _dir: &Path,
    mut engine: DynamicLemp,
    snapshot_lsn: u64,
    scans: Vec<(PathBuf, SegmentScan)>,
    ids: IdSpace,
    epoch_floor: u64,
) -> Result<Recovered, StoreError> {
    let mut replayed = 0u64;
    let mut next_lsn = snapshot_lsn;
    let mut torn_tail = None;
    let mut fence_epoch = epoch_floor;
    let segments_scanned = scans.len();
    for (_, scan) in &scans {
        torn_tail = scan.torn.clone();
        for (lsn, record) in &scan.records {
            // Epoch records raise the fence even from segments below the
            // snapshot (not yet pruned): the fence is a property of the
            // whole log, not of the replayed suffix.
            if let WalRecord::Epoch { epoch } = record {
                fence_epoch = fence_epoch.max(*epoch);
            }
            if *lsn < snapshot_lsn {
                continue; // folded into the snapshot (not yet pruned)
            }
            if *lsn != next_lsn {
                return Err(StoreError::Replay {
                    lsn: *lsn,
                    detail: format!("expected LSN {next_lsn} next"),
                });
            }
            apply(&mut engine, *lsn, record, ids)?;
            next_lsn = lsn + 1;
            replayed += 1;
        }
    }
    let report = RecoveryReport {
        snapshot_lsn,
        records_replayed: replayed,
        next_lsn,
        segments_scanned,
        torn_tail,
        live_probes: engine.len(),
        fence_epoch,
    };
    let tail = scans.into_iter().last().map(|(path, scan)| (scan, path));
    Ok(Recovered { engine, report, tail })
}

/// Applies one record exactly as the original edit did; any divergence is
/// a structured error, never a silent drift.
fn apply(
    engine: &mut DynamicLemp,
    lsn: u64,
    record: &WalRecord,
    ids: IdSpace,
) -> Result<(), StoreError> {
    match record {
        WalRecord::Insert { id, vector } => {
            let next = engine.next_id();
            let plausible = match ids {
                IdSpace::Dense => *id == next,
                IdSpace::Routed => *id >= next,
            };
            if !plausible {
                return Err(StoreError::Replay {
                    lsn,
                    detail: format!("log recorded insert of id {id}, engine would assign {next}"),
                });
            }
            engine.insert_with_id(*id, vector).map_err(|e| StoreError::Replay {
                lsn,
                detail: format!("insert of id {id} rejected: {e}"),
            })?;
        }
        WalRecord::Remove { id } => {
            if !engine.remove(*id) {
                return Err(StoreError::Replay {
                    lsn,
                    detail: format!("remove of id {id} found it dead"),
                });
            }
        }
        WalRecord::Rebuild => engine.rebuild(),
        // The fence lives in the store, not the engine; replay tracks it
        // at the scan level and `DurableEngine` at apply time.
        WalRecord::Epoch { .. } => {}
    }
    Ok(())
}

/// **Crash recovery, read-only**: loads the best snapshot in `dir` and
/// replays the WAL tail onto it. The directory is not modified — a torn
/// tail in the last segment is dropped from the replay but left on disk
/// (opening for append via [`DurableEngine::open`] truncates it).
///
/// # Errors
/// [`StoreError::Missing`] when no usable snapshot exists,
/// [`StoreError::Corrupt`] on log gaps / non-final torn segments / broken
/// markers, [`StoreError::Replay`] when a record contradicts the engine
/// state it replays onto, [`StoreError::Io`] on filesystem failures.
pub fn recover(dir: &Path) -> Result<(DynamicLemp, RecoveryReport), StoreError> {
    let recovered = recover_inner(dir, IdSpace::Dense)?;
    Ok((recovered.engine, recovered.report))
}

/// A [`DynamicLemp`] whose edits are write-ahead logged: every
/// insert/remove/rebuild appends a durable record *before* mutating the
/// engine, under the caller's write exclusivity (`&mut self` — in
/// `lemp-serve` that is the engine `RwLock`'s write side).
///
/// Queries are untouched: `DurableEngine` implements
/// [`lemp_core::Engine`] by delegating to the inner engine, so the whole
/// warmed `&self` hot path (plan → execute, caller-owned scratch) works
/// exactly as on a bare [`DynamicLemp`].
#[derive(Debug)]
pub struct DurableEngine {
    dir: PathBuf,
    engine: DynamicLemp,
    wal: WalWriter,
    options: StoreOptions,
    snapshot_lsn: u64,
    /// The fencing epoch: bumped by [`DurableEngine::fence`] (promotion),
    /// raised by replicated epoch records, recovered from the log and the
    /// checkpoint marker.
    fence_epoch: u64,
}

impl DurableEngine {
    /// Initializes a store in `dir` (created if needed) around an existing
    /// engine: writes the seed snapshot at LSN 0, the marker, and opens
    /// the first segment. Fails if `dir` already holds a store — use
    /// [`DurableEngine::open`] to resume one.
    ///
    /// # Errors
    /// [`StoreError::Io`] on filesystem failures; an error with a clear
    /// message when a store is already present.
    pub fn create(
        dir: &Path,
        engine: DynamicLemp,
        options: StoreOptions,
    ) -> Result<Self, StoreError> {
        std::fs::create_dir_all(dir)?;
        if Self::exists(dir) {
            return Err(StoreError::Missing(format!(
                "{} already holds a store (open it instead of re-creating)",
                dir.display()
            )));
        }
        let marker = write_snapshot(dir, &engine, 0)?;
        write_marker(dir, marker)?;
        let wal = WalWriter::create(dir, 0, options.sync, options.segment_bytes)?;
        Ok(Self { dir: dir.to_path_buf(), engine, wal, options, snapshot_lsn: 0, fence_epoch: 0 })
    }

    /// Whether `dir` holds a store (a `CHECKPOINT` marker or a snapshot).
    pub fn exists(dir: &Path) -> bool {
        dir.join(MARKER).exists() || list_snapshots(dir).map(|s| !s.is_empty()).unwrap_or(false)
    }

    /// Recovers the store in `dir` and reopens it for appending: the best
    /// snapshot is loaded, the WAL tail replayed, a torn tail truncated,
    /// and the writer positioned at the next LSN.
    ///
    /// # Errors
    /// Everything [`recover`] raises, plus write failures while truncating
    /// or creating the active segment.
    pub fn open(dir: &Path, options: StoreOptions) -> Result<(Self, RecoveryReport), StoreError> {
        let recovered = recover_inner(dir, IdSpace::Dense)?;
        let snapshot_lsn = recovered.report.snapshot_lsn;
        let wal = match &recovered.tail {
            Some((scan, path)) => {
                WalWriter::resume(dir, scan, path, options.sync, options.segment_bytes)?
            }
            None => WalWriter::create(
                dir,
                recovered.report.next_lsn,
                options.sync,
                options.segment_bytes,
            )?,
        };
        debug_assert_eq!(wal.next_lsn(), recovered.report.next_lsn);
        let store = Self {
            dir: dir.to_path_buf(),
            engine: recovered.engine,
            wal,
            options,
            snapshot_lsn,
            fence_epoch: recovered.report.fence_epoch,
        };
        Ok((store, recovered.report))
    }

    /// The store directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The wrapped engine (queries, inspection). Probe edits must go
    /// through [`DurableEngine::insert`]/[`DurableEngine::remove`]/
    /// [`DurableEngine::rebuild`] so they hit the log first.
    pub fn engine(&self) -> &DynamicLemp {
        &self.engine
    }

    /// WAL counter snapshot (`/stats` in durable serving mode).
    pub fn wal_stats(&self) -> WalStats {
        self.wal.stats()
    }

    /// The current checkpoint LSN (records below it live in the snapshot).
    pub fn snapshot_lsn(&self) -> u64 {
        self.snapshot_lsn
    }

    /// The LSN the next edit will carry — also the total number of edits
    /// ever applied to this store.
    pub fn next_lsn(&self) -> u64 {
        self.wal.next_lsn()
    }

    /// The current fencing epoch (0 until the store is ever fenced).
    pub fn fence_epoch(&self) -> u64 {
        self.fence_epoch
    }

    /// **Fences the store**: appends (and fsyncs, whatever the sync
    /// policy) an epoch record one above the current fencing epoch.
    /// Promotion calls this so a promoted follower's log outranks the old
    /// leader's — replication refuses to move records from a lower epoch
    /// onto a higher-epoch store in either direction. Returns the new
    /// epoch and the LSN its record consumed.
    ///
    /// # Errors
    /// [`StoreError::Io`] on append/fsync failures (the fence did not
    /// take).
    pub fn fence(&mut self) -> Result<(u64, u64), StoreError> {
        let epoch = self.fence_epoch + 1;
        let lsn = self.wal.append(&WalRecord::Epoch { epoch })?;
        self.wal.sync()?;
        self.fence_epoch = epoch;
        Ok((epoch, lsn))
    }

    /// Warms the inner engine ([`DynamicLemp::warm`]); warmth is runtime
    /// state, not logged.
    pub fn warm(&mut self, sample: &VectorStore, goal: WarmGoal) -> WarmReport {
        self.engine.warm(sample, goal)
    }

    /// Retrieval worker-thread count of the inner engine.
    pub fn set_threads(&mut self, threads: usize) {
        self.engine.set_threads(threads);
    }

    /// **Log-then-apply insert**: validates, appends the record (with the
    /// id the engine will assign), fsyncs per policy, then applies.
    /// Returns the stable id.
    ///
    /// # Errors
    /// [`StoreError::Invalid`] on wrong dimensionality or non-finite
    /// coordinates (nothing is logged); [`StoreError::Io`] when the append
    /// fails (nothing is applied).
    pub fn insert(&mut self, v: &[f64]) -> Result<u32, StoreError> {
        if v.len() != self.engine.dim() {
            return Err(StoreError::Invalid(format!(
                "vector has {} coordinates, engine dimensionality is {}",
                v.len(),
                self.engine.dim()
            )));
        }
        if let Some(i) = v.iter().position(|x| !x.is_finite()) {
            return Err(StoreError::Invalid(format!("coordinate {i} is not finite")));
        }
        let id = self.engine.next_id();
        let lsn = self.wal.append(&WalRecord::Insert { id, vector: v.to_vec() })?;
        let got = self.engine.insert(v).map_err(|e| StoreError::Replay {
            lsn,
            detail: format!("engine rejected a validated insert: {e}"),
        })?;
        debug_assert_eq!(got, id);
        Ok(id)
    }

    /// **Log-then-apply removal**. A dead id is a no-op (`Ok(false)`) and
    /// is *not* logged — replay only sees removes that succeeded.
    ///
    /// # Errors
    /// [`StoreError::Io`] when the append fails (nothing is applied).
    pub fn remove(&mut self, id: u32) -> Result<bool, StoreError> {
        if !self.engine.contains(id) {
            return Ok(false);
        }
        self.wal.append(&WalRecord::Remove { id })?;
        let removed = self.engine.remove(id);
        debug_assert!(removed);
        Ok(true)
    }

    /// Applies one record received from a replication leader at exactly
    /// this store's watermark: validates it against the live engine,
    /// appends it to the local log (so the follower's log reproduces the
    /// leader's bit for bit), then applies it through the same replay
    /// path crash recovery uses.
    ///
    /// # Errors
    /// [`StoreError::Replay`] when `lsn` is a duplicate/stale record or a
    /// gap (nothing is logged or applied — the tail loop re-requests from
    /// the true watermark), or when the record contradicts the engine
    /// state (a hostile or diverged leader); [`StoreError::Io`] when the
    /// append fails.
    pub fn apply_replicated(&mut self, lsn: u64, record: &WalRecord) -> Result<(), StoreError> {
        let next = self.wal.next_lsn();
        if lsn != next {
            let detail = if lsn < next {
                format!("duplicate or stale record (local watermark is {next})")
            } else {
                format!("gap: expected LSN {next}")
            };
            return Err(StoreError::Replay { lsn, detail });
        }
        // Validate before appending: the log and the engine must never
        // diverge, so the record goes to disk only once the apply below
        // cannot fail.
        match record {
            WalRecord::Insert { id, vector } => {
                if *id != self.engine.next_id() {
                    return Err(StoreError::Replay {
                        lsn,
                        detail: format!(
                            "insert carries id {id}, engine would assign {}",
                            self.engine.next_id()
                        ),
                    });
                }
                if vector.len() != self.engine.dim() {
                    return Err(StoreError::Replay {
                        lsn,
                        detail: format!(
                            "vector has {} coordinates, engine dimensionality is {}",
                            vector.len(),
                            self.engine.dim()
                        ),
                    });
                }
                if let Some(i) = vector.iter().position(|x| !x.is_finite()) {
                    return Err(StoreError::Replay {
                        lsn,
                        detail: format!("coordinate {i} is not finite"),
                    });
                }
            }
            WalRecord::Remove { id } => {
                if !self.engine.contains(*id) {
                    return Err(StoreError::Replay {
                        lsn,
                        detail: format!("remove of dead id {id}"),
                    });
                }
            }
            WalRecord::Rebuild => {}
            WalRecord::Epoch { epoch } => {
                // Fencing epochs are strictly monotone: a replicated bump
                // at or below the local fence is a stale or forged leader.
                if *epoch <= self.fence_epoch {
                    return Err(StoreError::Replay {
                        lsn,
                        detail: format!(
                            "fencing epoch {epoch} does not exceed the local epoch {}",
                            self.fence_epoch
                        ),
                    });
                }
            }
        }
        let appended = self.wal.append(record)?;
        debug_assert_eq!(appended, lsn);
        if let WalRecord::Epoch { epoch } = record {
            self.fence_epoch = *epoch;
        }
        apply(&mut self.engine, lsn, record, IdSpace::Dense)
    }

    /// **Log-then-apply rebuild** ([`DynamicLemp::rebuild`]).
    ///
    /// # Errors
    /// [`StoreError::Io`] when the append fails (nothing is applied).
    pub fn rebuild(&mut self) -> Result<(), StoreError> {
        self.wal.append(&WalRecord::Rebuild)?;
        self.engine.rebuild();
        Ok(())
    }

    /// Forces every appended record durable regardless of the sync policy.
    ///
    /// # Errors
    /// [`StoreError::Io`] on fsync failures.
    pub fn sync(&mut self) -> Result<(), StoreError> {
        self.wal.sync()
    }

    /// **Compaction**: snapshot the live engine, move the marker, prune
    /// every segment and snapshot the marker made redundant. After it
    /// returns, recovery loads one image and replays nothing.
    ///
    /// # Errors
    /// [`StoreError::Io`] on filesystem failures (the directory stays
    /// recoverable at every intermediate step).
    pub fn compact(&mut self) -> Result<CompactionReport, StoreError> {
        self.compact_with_fault(None)
    }

    /// [`DurableEngine::compact`] with a crash-injection point: when
    /// `fault` is set, compaction stops right after the named step with
    /// [`StoreError::Injected`], leaving the directory exactly as a crash
    /// there would. The crash-injection suite recovers such directories
    /// and proves they replay to the same engine.
    ///
    /// # Errors
    /// [`StoreError::Injected`] at the requested fault point; otherwise as
    /// [`DurableEngine::compact`].
    pub fn compact_with_fault(
        &mut self,
        fault: Option<CompactFault>,
    ) -> Result<CompactionReport, StoreError> {
        self.wal.sync()?;
        let lsn = self.wal.next_lsn();
        let mut marker = write_snapshot(&self.dir, &self.engine, lsn)?;
        // Compaction prunes the epoch records below the checkpoint; the
        // marker carries the fence across that pruning.
        marker.fence_epoch = self.fence_epoch;
        if fault == Some(CompactFault::AfterSnapshot) {
            return Err(StoreError::Injected("after-snapshot"));
        }
        write_marker(&self.dir, marker)?;
        self.snapshot_lsn = lsn;
        if fault == Some(CompactFault::AfterMarker) {
            return Err(StoreError::Injected("after-marker"));
        }
        // Start a fresh segment at the checkpoint so every older segment
        // becomes prunable (no-op when the active one is already empty at
        // the checkpoint LSN).
        self.wal.rotate()?;
        let mut segments_pruned = 0usize;
        let mut snapshots_pruned = 0usize;
        let mut bytes_reclaimed = 0u64;
        for (start, path) in list_segments(&self.dir)? {
            if start < lsn && start != self.wal.segment_start() {
                bytes_reclaimed += path.metadata().map(|m| m.len()).unwrap_or(0);
                std::fs::remove_file(&path)?;
                segments_pruned += 1;
            }
        }
        for (snap_lsn, path) in list_snapshots(&self.dir)? {
            if snap_lsn < lsn {
                bytes_reclaimed += path.metadata().map(|m| m.len()).unwrap_or(0);
                std::fs::remove_file(&path)?;
                snapshots_pruned += 1;
            }
        }
        sync_dir(&self.dir)?;
        Ok(CompactionReport { lsn, segments_pruned, snapshots_pruned, bytes_reclaimed })
    }

    /// **Crash injection**: consumes the store as a power loss would (see
    /// [`WalWriter::simulate_crash`]) — the in-memory engine and every
    /// unsynced log byte are gone; only fsynced state survives on disk.
    ///
    /// # Errors
    /// [`StoreError::Io`] on truncation failures.
    pub fn simulate_crash(self) -> Result<(), StoreError> {
        self.wal.simulate_crash()
    }

    /// The configured options.
    pub fn options(&self) -> StoreOptions {
        self.options
    }
}

impl lemp_core::Engine for DurableEngine {
    fn plan(&self, request: &lemp_core::QueryRequest) -> lemp_core::QueryPlan {
        self.engine.plan(request)
    }

    fn execute(
        &self,
        plan: &lemp_core::QueryPlan,
        queries: &VectorStore,
        scratch: &mut lemp_core::Scratch,
    ) -> lemp_core::QueryResponse {
        self.engine.execute(plan, queries, scratch)
    }

    fn query_scratch(&self) -> lemp_core::Scratch {
        lemp_core::Engine::query_scratch(&self.engine)
    }

    fn probes(&self) -> usize {
        lemp_core::Engine::probes(&self.engine)
    }

    fn dim(&self) -> usize {
        lemp_core::Engine::dim(&self.engine)
    }

    fn is_warm(&self) -> bool {
        self.engine.is_warm()
    }

    fn warm_up(&mut self, sample: &VectorStore, goal: WarmGoal) -> WarmReport {
        self.engine.warm(sample, goal)
    }
}
