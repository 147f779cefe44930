//! Engine persistence: save a preprocessed [`Lemp`] engine to disk and
//! load it back without repeating the preprocessing phase.
//!
//! At the paper's scale the probe side has millions of vectors; a service
//! that restarts should not redo the sort/normalize/bucketize pass (nor
//! lose the run configuration a deployment was tuned with). A persisted
//! engine image is the **intended input to `lemp serve`**: build it once
//! with `lemp index`, then every server boot loads it (via
//! [`Lemp::load`], wrapped by [`crate::DynamicLemp::from_engine`]), warms
//! it, and starts answering — preprocessing never runs at serve time. The
//! format is a small versioned binary layout:
//!
//! ```text
//! "LEMPENG1"                                magic
//! variant, sample_size, blsh_bits, blsh_eps,
//! tree_base, threads, l2ap_topk_threshold   run configuration
//! dim, total, bucket count                  bucket header
//! per bucket: count, ids, original rows     (lengths/directions/indexes
//!                                            are recomputed — indexes are
//!                                            lazy anyway, Sec. 4.2)
//! ```
//!
//! # The quantized section (version 3)
//!
//! Engines built with quantization ([`crate::LempBuilder::quantize`])
//! persist under the `LEMPENG3` magic: the byte-identical version-1
//! layout followed by one **quantized section** —
//!
//! ```text
//! quantize_bits                             u8, 1..=16
//! codebook flag                             u8: 0 = not trained yet (the
//!                                           section ends; the next warm
//!                                           trains it), 1 = present
//! if present: sub_dim, k,                   the engine's one codebook
//!   m·k·sub_dim centroid doubles
//!   per bucket: present flag (u8);
//!     if present: m·n packed codes          (u8 per code ≤ 8 bits, u16 above)
//! ```
//!
//! **Backward-compat rule**: an engine with quantization *off* writes the
//! `LEMPENG1` bytes unchanged — old readers keep working and images diff
//! clean — while readers accept every version, so legacy images load into
//! quantization-aware builds. The same rule applies to the dynamic format
//! (`LEMPDYN1`/`LEMPDYN3`, see [`crate::dynamic`]); sharded manifests keep
//! the `LEMPSHD2` magic and inherit the rule through their embedded
//! per-shard dynamic images. Loading validates every shape and code index
//! of the section ([`crate::quant::Codebook::from_parts`],
//! [`crate::quant::QuantizedBucket::from_codes`]) and **recomputes** the
//! per-probe distortion bounds from the full-precision directions — a
//! tampered image can corrupt the codebook but never the exactness
//! contract. A loaded codebook is used as is: nothing retrains.
//!
//! **Version 2** (`LEMPENG2`/`LEMPDYN2`) stored a codebook per bucket:
//! per bucket a present flag and, if present, `bits (u8), sub_dim, k`,
//! `m·k·sub_dim` codebook doubles and `m·n` packed codes. Such images still
//! load: their sections are parsed and validated like kept ones, then
//! dropped, and the next warm-up trains the engine's shared codebook. Warm
//! state is never persisted, so nothing serves QUANT before that warm-up.
//! No writer produces version 2 any more.
//!
//! All integers are little-endian `u64` (`u32` for ids), floats are IEEE
//! `f64` bits, so files are portable across platforms. Loading validates
//! everything a corrupted or hand-edited file could break: magic, variant
//! tags, finiteness, within-bucket length ordering, the inter-bucket
//! ordering the retrieval loops rely on, and exact trailing length.
//!
//! The sharded engine ([`crate::ShardedLemp`]) persists a `LEMPSHD2`
//! manifest — policy kind, shard count, length-band floors, then one
//! length-prefixed dynamic image (`LEMPDYN1`/`LEMPDYN3`) per shard (see
//! [`crate::shard`]).
//! **Legacy files keep loading unchanged**: single-shard `LEMPENG1`
//! images through [`Lemp::load`] and everything built on it (`lemp
//! serve`, [`crate::DynamicLemp::from_engine`]), and `LEMPSHD1`
//! manifests (immutable `Lemp` shards) through [`crate::ShardedLemp`]'s
//! reader; the formats share the `.eng` extension and are told apart by
//! magic ([`crate::shard::is_sharded_image`]).
//!
//! # The sharded store layout
//!
//! `lemp-store` composes durability with sharding on top of these
//! images. A **sharded store directory** is a root `MANIFEST` plus one
//! ordinary single-engine store directory per shard:
//!
//! ```text
//! store/
//!   MANIFEST             "LEMPSHM1": policy tag, shard count,
//!                        length-band floors, CRC-32 trailer
//!   shard-000/           an ordinary store directory:
//!     snap-<lsn>.eng       LEMPDYN1 snapshot image(s)
//!     CHECKPOINT           marker (checkpoint LSN + snapshot length/CRC)
//!     wal-<lsn>.log        LEMPWAL1 write-ahead segments
//!   shard-001/ …
//! ```
//!
//! Each shard logs exactly the edits routed to it, so a shard's WAL
//! replays onto its own snapshot independently of its siblings; the
//! manifest carries what per-shard images cannot — the routing policy
//! and band floors that make placement deterministic across restarts.
//! Recovery reassembles the full sharded engine and re-checks the
//! cross-shard invariants (disjoint global id spaces, equal
//! dimensionality).
//!
//! # The shared codec
//!
//! Every on-disk format in the LEMP family — `LEMPENG1`/`LEMPENG3`,
//! `LEMPSHD1`/`LEMPSHD2`, `LEMPDYN1`/`LEMPDYN3` and the `lemp-store`
//! durability files
//! (`LEMPWAL1` write-ahead segments, their `CHECKPOINT` marker, and the
//! `LEMPSHM1` root manifest) — is built from the same four primitives:
//! little-endian `u64`, IEEE-bits `f64`, and the truncation-aware
//! readers that turn a short file into a [`PersistError::Format`]
//! instead of a panic. They are exported here ([`write_u64`],
//! [`write_f64`], [`read_u64`], [`read_f64`], [`expect_eof`]) so
//! downstream crates encode with the *same* code rather than a copy that
//! could drift.
//!
//! # Hostile-input hardening
//!
//! Readers never allocate proportionally to a size field before the bytes
//! backing it have been read: counts coming from the file are capped before
//! `with_capacity`, products are computed with checked arithmetic, and the
//! dynamic engine's id-space table is allocated through `try_reserve` so an
//! absurd (corrupted) watermark surfaces as a [`PersistError::Format`], not
//! an allocator abort. The `persist_fuzz` integration test truncates and
//! bit-flips images at every offset to keep these paths panic-free.

use std::fs::File;
use std::io::{self, BufReader, BufWriter, Read, Write};
use std::path::Path;
use std::sync::Arc;

use lemp_linalg::VectorStore;

use crate::bucket::{Bucket, ProbeBuckets};
use crate::exec::RunConfig;
use crate::quant::{Codebook, QuantCodes, QuantizedBucket, MAX_QUANT_BITS};
use crate::variant::LempVariant;
use crate::Lemp;

const MAGIC: &[u8; 8] = b"LEMPENG1";
/// Quantized images with per-bucket codebooks: read, never written.
const MAGIC2: &[u8; 8] = b"LEMPENG2";
const MAGIC3: &[u8; 8] = b"LEMPENG3";

/// Errors raised by engine persistence.
#[derive(Debug)]
pub enum PersistError {
    /// Underlying filesystem error.
    Io(io::Error),
    /// The file is not a valid engine image.
    Format(String),
}

impl std::fmt::Display for PersistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PersistError::Io(e) => write!(f, "io error: {e}"),
            PersistError::Format(msg) => write!(f, "format error: {msg}"),
        }
    }
}

impl std::error::Error for PersistError {}

impl From<io::Error> for PersistError {
    fn from(e: io::Error) -> Self {
        PersistError::Io(e)
    }
}

fn variant_tag(v: LempVariant) -> u8 {
    match v {
        LempVariant::L => 0,
        LempVariant::C => 1,
        LempVariant::I => 2,
        LempVariant::LC => 3,
        LempVariant::LI => 4,
        LempVariant::Ta => 5,
        LempVariant::Tree => 6,
        LempVariant::L2ap => 7,
        LempVariant::Blsh => 8,
    }
}

fn variant_from_tag(tag: u8) -> Result<LempVariant, PersistError> {
    Ok(match tag {
        0 => LempVariant::L,
        1 => LempVariant::C,
        2 => LempVariant::I,
        3 => LempVariant::LC,
        4 => LempVariant::LI,
        5 => LempVariant::Ta,
        6 => LempVariant::Tree,
        7 => LempVariant::L2ap,
        8 => LempVariant::Blsh,
        other => return Err(PersistError::Format(format!("unknown variant tag {other}"))),
    })
}

/// Writes a little-endian `u64` (the integer codec of every LEMP format).
///
/// # Errors
/// Propagates write failures.
pub fn write_u64<W: Write>(w: &mut W, x: u64) -> io::Result<()> {
    w.write_all(&x.to_le_bytes())
}

/// Writes an `f64` as its IEEE bits, little-endian (bit-exact round trip).
///
/// # Errors
/// Propagates write failures.
pub fn write_f64<W: Write>(w: &mut W, x: f64) -> io::Result<()> {
    w.write_all(&x.to_le_bytes())
}

/// Reads a little-endian `u64`; `what` names the field in the truncation
/// error.
///
/// # Errors
/// [`PersistError::Format`] when the reader ends mid-word.
pub fn read_u64<R: Read>(r: &mut R, what: &str) -> Result<u64, PersistError> {
    let mut buf = [0u8; 8];
    r.read_exact(&mut buf)
        .map_err(|_| PersistError::Format(format!("truncated while reading {what}")))?;
    Ok(u64::from_le_bytes(buf))
}

/// Reads an `f64` written by [`write_f64`]; `what` names the field in the
/// truncation error.
///
/// # Errors
/// [`PersistError::Format`] when the reader ends mid-word.
pub fn read_f64<R: Read>(r: &mut R, what: &str) -> Result<f64, PersistError> {
    let mut buf = [0u8; 8];
    r.read_exact(&mut buf)
        .map_err(|_| PersistError::Format(format!("truncated while reading {what}")))?;
    Ok(f64::from_le_bytes(buf))
}

/// Writes a [`RunConfig`] (shared by the static- and dynamic-engine
/// formats).
pub(crate) fn write_config<W: Write>(w: &mut W, cfg: &RunConfig) -> Result<(), PersistError> {
    w.write_all(&[variant_tag(cfg.variant)])?;
    write_u64(w, cfg.sample_size as u64)?;
    write_u64(w, cfg.blsh_bits as u64)?;
    write_f64(w, cfg.blsh_eps)?;
    write_f64(w, cfg.tree_base)?;
    write_u64(w, cfg.threads as u64)?;
    write_f64(w, cfg.l2ap_topk_threshold)?;
    Ok(())
}

/// Reads a [`RunConfig`] written by [`write_config`].
pub(crate) fn read_config<R: Read>(r: &mut R) -> Result<RunConfig, PersistError> {
    let mut tag = [0u8; 1];
    r.read_exact(&mut tag).map_err(|_| PersistError::Format("truncated variant tag".into()))?;
    let config = RunConfig {
        variant: variant_from_tag(tag[0])?,
        sample_size: read_u64(r, "sample_size")? as usize,
        blsh_bits: read_u64(r, "blsh_bits")? as usize,
        blsh_eps: read_f64(r, "blsh_eps")?,
        tree_base: read_f64(r, "tree_base")?,
        threads: (read_u64(r, "threads")? as usize).max(1),
        l2ap_topk_threshold: read_f64(r, "l2ap_topk_threshold")?,
        quantize_bits: 0,
        // A runtime tuning preference, deliberately not persisted: images
        // bake the tuner's per-bucket decisions instead.
        quantize_force: false,
    };
    if !config.blsh_eps.is_finite() || !config.tree_base.is_finite() {
        return Err(PersistError::Format("non-finite configuration value".into()));
    }
    Ok(config)
}

/// Writes the bucket section: dim, total, bucket count, then per bucket its
/// size, ids and original rows.
pub(crate) fn write_bucket_section<W: Write>(
    w: &mut W,
    buckets: &ProbeBuckets,
) -> Result<(), PersistError> {
    write_u64(w, buckets.dim() as u64)?;
    write_u64(w, buckets.total() as u64)?;
    write_u64(w, buckets.bucket_count() as u64)?;
    for bucket in buckets.buckets() {
        write_u64(w, bucket.len() as u64)?;
        for &id in &bucket.ids {
            w.write_all(&id.to_le_bytes())?;
        }
        for &x in bucket.origs.as_flat() {
            write_f64(w, x)?;
        }
    }
    Ok(())
}

/// Reads and validates a bucket section written by [`write_bucket_section`]:
/// within-bucket and inter-bucket length orderings, size consistency and
/// finite values are all enforced.
pub(crate) fn read_bucket_section<R: Read>(r: &mut R) -> Result<ProbeBuckets, PersistError> {
    let dim = read_u64(r, "dim")? as usize;
    if dim == 0 {
        return Err(PersistError::Format("dimensionality must be positive".into()));
    }
    let total = read_u64(r, "total")? as usize;
    let nbuckets = read_u64(r, "bucket count")? as usize;
    // Capacity hints are capped: a corrupted count must not translate into
    // a giant allocation before a single backing byte has been read (the
    // pushes below grow the vectors against the *actual* file content, so
    // truncation surfaces as a Format error long before memory pressure).
    const CAP_HINT: usize = 1 << 16;
    let mut buckets = Vec::with_capacity(nbuckets.min(1 << 20));
    let mut seen = 0usize;
    let mut prev_min = f64::INFINITY;
    for b in 0..nbuckets {
        let count = read_u64(r, "bucket size")? as usize;
        if count == 0 {
            return Err(PersistError::Format(format!("bucket {b} is empty")));
        }
        seen = seen
            .checked_add(count)
            .ok_or_else(|| PersistError::Format("bucket sizes overflow".into()))?;
        if seen > total {
            return Err(PersistError::Format(format!(
                "bucket sizes exceed declared total {total}"
            )));
        }
        let mut ids = Vec::with_capacity(count.min(CAP_HINT));
        let mut buf4 = [0u8; 4];
        for _ in 0..count {
            r.read_exact(&mut buf4)
                .map_err(|_| PersistError::Format("truncated id section".into()))?;
            ids.push(u32::from_le_bytes(buf4));
        }
        let values = count
            .checked_mul(dim)
            .ok_or_else(|| PersistError::Format("bucket size × dim overflows".into()))?;
        let mut flat = Vec::with_capacity(values.min(CAP_HINT));
        for _ in 0..values {
            flat.push(read_f64(r, "vector data")?);
        }
        let origs = VectorStore::from_flat(flat, dim)
            .map_err(|e| PersistError::Format(format!("bucket {b}: {e}")))?;
        // Validate the ordering invariants *before* handing the rows to the
        // bucket constructor (its internal debug assertions assume trusted
        // callers; this input is a file).
        let lengths = origs.lengths();
        if lengths.windows(2).any(|w| w[0] < w[1]) {
            return Err(PersistError::Format(format!(
                "bucket {b}: rows not sorted by decreasing length"
            )));
        }
        let bucket = Bucket::from_sorted_rows(ids, origs);
        if bucket.max_len > prev_min {
            return Err(PersistError::Format(format!(
                "bucket {b}: length range overlaps the previous bucket"
            )));
        }
        prev_min = bucket.min_len;
        buckets.push(bucket);
    }
    if seen != total {
        return Err(PersistError::Format(format!(
            "declared total {total} but buckets hold {seen}"
        )));
    }
    Ok(ProbeBuckets::from_parts(dim, total, buckets))
}

/// Which quantized section an image carries, told by its magic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum QuantSection {
    /// Version 1: quantization off, no section.
    Off,
    /// Version 2: per-bucket codebooks. Read and validated, then dropped.
    PerBucket,
    /// Version 3: one codebook plus per-bucket codes.
    Shared,
}

/// Tells an image's version from its magic, given the format's version-1,
/// -2 and -3 magics.
pub(crate) fn quant_section_of(
    magic: &[u8; 8],
    family: [&[u8; 8]; 3],
) -> Result<QuantSection, PersistError> {
    match family.iter().position(|m| *m == magic) {
        Some(0) => Ok(QuantSection::Off),
        Some(1) => Ok(QuantSection::PerBucket),
        Some(2) => Ok(QuantSection::Shared),
        _ => Err(PersistError::Format(format!("bad magic {magic:?}"))),
    }
}

/// Writes the version-3 quantized section (see the module docs): the
/// configured code width, the engine's codebook if trained, then per
/// bucket a present flag and its packed codes. The per-probe bounds are
/// deliberately *not* stored; readers recompute them from the directions.
pub(crate) fn write_quant_section<W: Write>(
    w: &mut W,
    quantize_bits: u8,
    buckets: &ProbeBuckets,
) -> Result<(), PersistError> {
    w.write_all(&[quantize_bits])?;
    let Some(cb) = buckets.codebook() else {
        w.write_all(&[0u8])?;
        return Ok(());
    };
    w.write_all(&[1u8])?;
    write_u64(w, cb.sub_dim() as u64)?;
    write_u64(w, cb.k() as u64)?;
    for &x in cb.centroids() {
        write_f64(w, x)?;
    }
    for bucket in buckets.buckets() {
        let Some(q) = &bucket.indexes.quant else {
            w.write_all(&[0u8])?;
            continue;
        };
        w.write_all(&[1u8])?;
        match q.codes() {
            QuantCodes::U8(codes) => w.write_all(codes)?,
            QuantCodes::U16(codes) => {
                for &c in codes {
                    w.write_all(&c.to_le_bytes())?;
                }
            }
        }
    }
    Ok(())
}

/// Capacity hint cap: a corrupted count must not size an allocation
/// before the bytes backing it have been read.
const CAP_HINT: usize = 1 << 16;

fn read_byte<R: Read>(r: &mut R, what: &str) -> Result<u8, PersistError> {
    let mut byte = [0u8; 1];
    r.read_exact(&mut byte)
        .map_err(|_| PersistError::Format(format!("truncated while reading {what}")))?;
    Ok(byte[0])
}

/// Reads a present flag: 0 or 1.
fn read_flag<R: Read>(r: &mut R, what: &str) -> Result<bool, PersistError> {
    match read_byte(r, what)? {
        0 => Ok(false),
        1 => Ok(true),
        other => Err(PersistError::Format(format!("{what} {other} is neither 0 nor 1"))),
    }
}

/// Reads a code width in `1..=16`.
fn read_bits<R: Read>(r: &mut R, what: &str) -> Result<u8, PersistError> {
    let bits = read_byte(r, what)?;
    if bits == 0 || bits > MAX_QUANT_BITS {
        return Err(PersistError::Format(format!("{what} {bits} outside 1..=16")));
    }
    Ok(bits)
}

/// Reads `m · k` centroids of `sub_dim` doubles for directions of
/// dimensionality `dim`, checking the shape before sizing any read: a
/// corrupted `sub_dim` or `k` must not drive a huge (or zero-divisor)
/// element count.
fn read_codebook<R: Read>(
    r: &mut R,
    bits: u8,
    dim: usize,
    max_k: usize,
) -> Result<Codebook, PersistError> {
    let sub_dim = read_u64(r, "quant sub_dim")? as usize;
    let k = read_u64(r, "quant k")? as usize;
    if sub_dim == 0 || sub_dim > dim {
        return Err(PersistError::Format(format!("quant sub_dim {sub_dim} invalid for dim {dim}")));
    }
    if k == 0 || k > max_k {
        return Err(PersistError::Format(format!("quant k {k} invalid (at most {max_k})")));
    }
    let cb_len = dim
        .div_ceil(sub_dim)
        .checked_mul(k)
        .and_then(|x| x.checked_mul(sub_dim))
        .ok_or_else(|| PersistError::Format("codebook size overflows".into()))?;
    let mut centroids = Vec::with_capacity(cb_len.min(CAP_HINT));
    for _ in 0..cb_len {
        centroids.push(read_f64(r, "quant codebook")?);
    }
    Codebook::from_parts(bits, sub_dim, k, centroids, dim).map_err(PersistError::Format)
}

/// Reads `bucket`'s packed codes against `codebook`; validation (code
/// range, shape) and the bound recomputation happen in
/// [`QuantizedBucket::from_codes`].
fn read_codes<R: Read>(
    r: &mut R,
    codebook: &Arc<Codebook>,
    bucket: &Bucket,
) -> Result<QuantizedBucket, PersistError> {
    let count = codebook
        .subspaces()
        .checked_mul(bucket.len())
        .ok_or_else(|| PersistError::Format("code count overflows".into()))?;
    let codes = if codebook.bits() <= 8 {
        let mut v = Vec::with_capacity(count.min(CAP_HINT));
        for _ in 0..count {
            v.push(read_byte(r, "quant codes")?);
        }
        QuantCodes::U8(v)
    } else {
        let mut v = Vec::with_capacity(count.min(CAP_HINT));
        let mut two = [0u8; 2];
        for _ in 0..count {
            r.read_exact(&mut two)
                .map_err(|_| PersistError::Format("truncated while reading quant codes".into()))?;
            v.push(u16::from_le_bytes(two));
        }
        QuantCodes::U16(v)
    };
    QuantizedBucket::from_codes(Arc::clone(codebook), codes, &bucket.dirs)
        .map_err(PersistError::Format)
}

/// Prefixes a format error with the bucket it arose in.
fn in_bucket(b: usize) -> impl Fn(PersistError) -> PersistError {
    move |e| match e {
        PersistError::Format(msg) => PersistError::Format(format!("bucket {b}: {msg}")),
        other => other,
    }
}

/// Reads and validates the quantized section of an image of the given
/// version and returns the configured code width (`0` for version 1,
/// which has none). Version 3 attaches the engine's codebook and the
/// buckets' codes; a version-2 section is parsed and validated like one
/// that is kept, then dropped — the next warm-up trains the shared
/// codebook. A corrupted section becomes a [`PersistError::Format`], never
/// a panic or an oversized allocation.
pub(crate) fn read_quant_section<R: Read>(
    r: &mut R,
    buckets: &mut ProbeBuckets,
    version: QuantSection,
) -> Result<u8, PersistError> {
    if version == QuantSection::Off {
        return Ok(0);
    }
    let quantize_bits = read_bits(r, "quantize_bits")?;
    let dim = buckets.dim();
    if version == QuantSection::PerBucket {
        for (b, bucket) in buckets.buckets().iter().enumerate() {
            if !read_flag(r, "quant flag").map_err(in_bucket(b))? {
                continue;
            }
            let bits = read_bits(r, "quant bits").map_err(in_bucket(b))?;
            let codebook = read_codebook(r, bits, dim, bucket.len()).map_err(in_bucket(b))?;
            read_codes(r, &Arc::new(codebook), bucket).map_err(in_bucket(b))?;
        }
        return Ok(quantize_bits);
    }
    if !read_flag(r, "codebook flag")? {
        return Ok(quantize_bits);
    }
    let codebook = Arc::new(read_codebook(r, quantize_bits, dim, 1 << quantize_bits)?);
    for (b, bucket) in buckets.buckets_vec_mut().iter_mut().enumerate() {
        if read_flag(r, "quant flag").map_err(in_bucket(b))? {
            bucket.indexes.quant = Some(read_codes(r, &codebook, bucket).map_err(in_bucket(b))?);
        }
    }
    buckets.set_codebook(codebook);
    Ok(quantize_bits)
}

/// Reports trailing bytes after a complete image as a format error.
///
/// # Errors
/// [`PersistError::Format`] when the reader still holds bytes;
/// [`PersistError::Io`] when probing for them fails.
pub fn expect_eof<R: Read>(r: &mut R) -> Result<(), PersistError> {
    let mut probe = [0u8; 1];
    if r.read(&mut probe)? != 0 {
        return Err(PersistError::Format("trailing bytes after engine image".into()));
    }
    Ok(())
}

impl Lemp {
    /// Serializes the engine (run configuration + preprocessed buckets) to
    /// a writer. Lazily built indexes are *not* stored — they rebuild on
    /// first use after loading, exactly as after a fresh preprocessing.
    ///
    /// # Errors
    /// Propagates write failures.
    pub fn write_to<W: Write>(&self, writer: W) -> Result<(), PersistError> {
        let mut w = BufWriter::new(writer);
        // Backward-compat rule: quantization off → byte-identical LEMPENG1
        // image; on → LEMPENG3 with the quantized section appended.
        let quantized = self.config.quantize_bits > 0;
        w.write_all(if quantized { MAGIC3 } else { MAGIC })?;
        write_config(&mut w, &self.config)?;
        write_bucket_section(&mut w, &self.buckets)?;
        if quantized {
            write_quant_section(&mut w, self.config.quantize_bits, &self.buckets)?;
        }
        w.flush()?;
        Ok(())
    }

    /// Saves the engine to a file (see [`Lemp::write_to`]).
    ///
    /// # Errors
    /// Propagates filesystem errors.
    pub fn save(&self, path: &Path) -> Result<(), PersistError> {
        self.write_to(File::create(path)?)
    }

    /// Deserializes an engine written by [`Lemp::write_to`].
    ///
    /// # Errors
    /// [`PersistError::Format`] on bad magic, unknown variant tags,
    /// non-finite values, broken length orderings, inconsistent totals, or
    /// trailing bytes; [`PersistError::Io`] on read failures.
    pub fn read_from<R: Read>(reader: R) -> Result<Self, PersistError> {
        let mut r = BufReader::new(reader);
        let mut magic = [0u8; 8];
        r.read_exact(&mut magic)
            .map_err(|_| PersistError::Format("file too short for magic".into()))?;
        let version = quant_section_of(&magic, [MAGIC, MAGIC2, MAGIC3])?;
        let mut config = read_config(&mut r)?;
        let mut buckets = read_bucket_section(&mut r)?;
        config.quantize_bits = read_quant_section(&mut r, &mut buckets, version)?;
        expect_eof(&mut r)?;
        Ok(Lemp::from_parts(buckets, config))
    }

    /// Loads an engine from a file (see [`Lemp::read_from`]).
    ///
    /// # Errors
    /// Same conditions as [`Lemp::read_from`].
    pub fn load(path: &Path) -> Result<Self, PersistError> {
        Self::read_from(File::open(path)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::LempVariant;
    use lemp_baselines::types::{canonical_pairs, topk_equivalent};
    use lemp_data::synthetic::GeneratorConfig;

    fn fixture() -> (VectorStore, VectorStore) {
        let q = GeneratorConfig::gaussian(40, 8, 1.0).generate(61);
        let p = GeneratorConfig::gaussian(200, 8, 1.5).generate(62);
        (q, p)
    }

    fn roundtrip(engine: &Lemp) -> Lemp {
        let mut buf = Vec::new();
        engine.write_to(&mut buf).unwrap();
        Lemp::read_from(&buf[..]).unwrap()
    }

    #[test]
    fn roundtrip_preserves_results_and_config() {
        let (q, p) = fixture();
        let mut original = Lemp::builder()
            .variant(LempVariant::LI)
            .sample_size(7)
            .threads(2)
            .tree_base(1.4)
            .blsh(16, 0.05)
            .build(&p);
        let mut loaded = roundtrip(&original);
        assert_eq!(loaded.config(), original.config());
        assert_eq!(loaded.buckets().bucket_count(), original.buckets().bucket_count());
        assert_eq!(loaded.buckets().total(), original.buckets().total());

        let a = original.above_theta(&q, 1.2);
        let b = loaded.above_theta(&q, 1.2);
        assert_eq!(canonical_pairs(&a.entries), canonical_pairs(&b.entries));
        let ta = original.row_top_k(&q, 5);
        let tb = loaded.row_top_k(&q, 5);
        assert!(topk_equivalent(&ta.lists, &tb.lists, 0.0));
    }

    #[test]
    fn roundtrip_after_queries_drops_indexes_but_not_answers() {
        let (q, p) = fixture();
        let mut original = Lemp::builder().variant(LempVariant::I).sample_size(5).build(&p);
        let before = original.above_theta(&q, 1.0); // builds indexes lazily
        let mut loaded = roundtrip(&original);
        let after = loaded.above_theta(&q, 1.0);
        assert_eq!(canonical_pairs(&before.entries), canonical_pairs(&after.entries));
        // the loaded run had to rebuild its indexes
        assert!(after.stats.indexes_built > 0);
    }

    #[test]
    fn file_roundtrip() {
        let (_, p) = fixture();
        let engine = Lemp::builder().build(&p);
        let path = std::env::temp_dir().join(format!("lemp-persist-{}.eng", std::process::id()));
        engine.save(&path).unwrap();
        let loaded = Lemp::load(&path).unwrap();
        assert_eq!(loaded.buckets().total(), p.len());
        std::fs::remove_file(&path).ok();
        assert!(matches!(Lemp::load(&path), Err(PersistError::Io(_))));
    }

    #[test]
    fn empty_engine_roundtrips() {
        let p = VectorStore::empty(6).unwrap();
        let engine = Lemp::builder().build(&p);
        let loaded = roundtrip(&engine);
        assert_eq!(loaded.buckets().bucket_count(), 0);
        assert_eq!(loaded.buckets().dim(), 6);
    }

    #[test]
    fn rejects_corrupted_images() {
        let (_, p) = fixture();
        let engine = Lemp::builder().build(&p);
        let mut buf = Vec::new();
        engine.write_to(&mut buf).unwrap();

        // bad magic
        let mut bad = buf.clone();
        bad[0] ^= 0xFF;
        assert!(matches!(Lemp::read_from(&bad[..]), Err(PersistError::Format(_))));

        // unknown variant tag
        let mut bad = buf.clone();
        bad[8] = 200;
        let err = Lemp::read_from(&bad[..]).unwrap_err();
        assert!(err.to_string().contains("variant tag"));

        // truncation at every structural boundary
        for cut in [4usize, 9, 40, 64, buf.len() - 1] {
            let bad = &buf[..cut.min(buf.len() - 1)];
            assert!(
                matches!(Lemp::read_from(bad), Err(PersistError::Format(_))),
                "truncation at {cut} not detected"
            );
        }

        // trailing garbage
        let mut bad = buf.clone();
        bad.push(7);
        let err = Lemp::read_from(&bad[..]).unwrap_err();
        assert!(err.to_string().contains("trailing"));
    }

    #[test]
    fn quantized_roundtrip_restores_codebooks_without_retraining() {
        let (q, p) = fixture();
        let mut original =
            Lemp::builder().variant(LempVariant::LI).sample_size(7).quantize(8).build(&p);
        original.warm(&q, crate::WarmGoal::TopK(3)); // trains the codebook
        assert!(
            original.buckets().buckets().iter().all(|b| b.indexes.quant.is_some()),
            "warm with quantize=8 must encode every bucket"
        );
        let mut buf = Vec::new();
        original.write_to(&mut buf).unwrap();
        assert_eq!(&buf[..8], b"LEMPENG3");
        let mut loaded = Lemp::read_from(&buf[..]).unwrap();
        assert_eq!(loaded.config().quantize_bits, 8);
        assert_eq!(loaded.buckets().codebook(), original.buckets().codebook());
        for (a, b) in loaded.buckets().buckets().iter().zip(original.buckets().buckets()) {
            assert_eq!(a.indexes.quant, b.indexes.quant, "codebook/codes/eps must round-trip");
        }
        assert_eq!(loaded.memory_usage(), original.memory_usage());
        assert!(loaded.memory_usage().quantized_bytes > 0);
        // Warming the loaded engine neither trains nor re-encodes: it
        // builds only each bucket's two sorted-list indexes.
        let stamp = loaded.buckets().codebook().unwrap().stamp();
        let built = loaded.warm(&q, crate::WarmGoal::TopK(3)).indexes_built;
        assert_eq!(built, 2 * loaded.buckets().bucket_count() as u64);
        assert_eq!(loaded.buckets().codebook().unwrap().stamp(), stamp);
    }

    #[test]
    fn version2_images_load_and_retrain_at_warm_up() {
        use lemp_baselines::Naive;
        // Written by a warmed `Lemp::builder().sample_size(8).quantize(4)`
        // engine over `gaussian(300, 8, 1.0).generate(2323)` under the
        // per-bucket-codebook format (LEMPENG2), its sections populated.
        let image = include_bytes!("../tests/fixtures/v2-static-q4.eng");
        assert_eq!(&image[..8], b"LEMPENG2");
        let p = GeneratorConfig::gaussian(300, 8, 1.0).generate(2323);
        let q = GeneratorConfig::gaussian(40, 8, 1.0).generate(2325);
        let mut loaded = Lemp::read_from(&image[..]).unwrap();
        assert_eq!(loaded.config().quantize_bits, 4);
        assert_eq!(loaded.buckets().total(), 300);
        // The per-bucket sections are validated, then dropped: nothing is
        // quantized until the warm-up trains the shared codebook.
        assert!(loaded.buckets().codebook().is_none());
        assert!(loaded.buckets().buckets().iter().all(|b| b.indexes.quant.is_none()));
        assert_eq!(loaded.memory_usage().quantized_bytes, 0);
        loaded.warm(&q, crate::WarmGoal::TopK(5));
        assert!(loaded.buckets().codebook().is_some());
        assert!(loaded.buckets().buckets().iter().all(|b| b.indexes.quant.is_some()));
        let mut forced = Lemp::read_from(&image[..]).unwrap();
        forced.config.quantize_force = true;
        forced.warm(&q, crate::WarmGoal::TopK(5));
        // Row-Top-k reports `q̄ᵀp·‖q‖`, which can round one ulp away from
        // Naive's `qᵀp`: ranks must match Naive, scores an exact engine's
        // bit for bit. Above-θ values are bit-identical to Naive's.
        let mut exact = Lemp::builder().sample_size(8).build(&p);
        let lists = |lists: &crate::TopKLists| -> Vec<Vec<(usize, u64)>> {
            lists.iter().map(|l| l.iter().map(|s| (s.id, s.score.to_bits())).collect()).collect()
        };
        for engine in [&mut loaded, &mut forced] {
            for k in [1, 5, 17] {
                let (expect, _) = Naive.row_top_k(&q, &p, k);
                let got = engine.row_top_k(&q, k);
                assert!(topk_equivalent(&got.lists, &expect, 1e-9), "k={k}");
                assert_eq!(lists(&got.lists), lists(&exact.row_top_k(&q, k).lists), "k={k}");
            }
            let (expect, _) = Naive.above_theta(&q, &p, 1.5);
            let got = engine.above_theta(&q, 1.5);
            let bits = |es: &[crate::Entry]| {
                let mut v: Vec<(u32, u32, u64)> =
                    es.iter().map(|e| (e.query, e.probe, e.value.to_bits())).collect();
                v.sort_unstable();
                v
            };
            assert_eq!(bits(&got.entries), bits(&expect));
        }
        assert!(forced.row_top_k(&q, 5).stats.method_mix.quant > 0, "QUANT must run");
        // Saving writes the current version.
        let mut buf = Vec::new();
        forced.write_to(&mut buf).unwrap();
        assert_eq!(&buf[..8], b"LEMPENG3");
    }

    #[test]
    fn quantization_off_keeps_the_legacy_magic() {
        let (_, p) = fixture();
        let engine = Lemp::builder().build(&p);
        let mut buf = Vec::new();
        engine.write_to(&mut buf).unwrap();
        assert_eq!(&buf[..8], b"LEMPENG1");
        assert_eq!(Lemp::read_from(&buf[..]).unwrap().config().quantize_bits, 0);
    }

    #[test]
    fn quantized_section_rejects_corruption() {
        let (q, p) = fixture();
        let mut engine = Lemp::builder().sample_size(5).quantize(8).build(&p);
        engine.warm(&q, crate::WarmGoal::Above(1.0));
        let mut buf = Vec::new();
        engine.write_to(&mut buf).unwrap();

        // Truncation anywhere inside the quantized section.
        let legacy_len = {
            let mut legacy = Vec::new();
            Lemp::builder().build(&p).write_to(&mut legacy).unwrap();
            legacy.len()
        };
        assert!(buf.len() > legacy_len, "quantized image must carry extra bytes");
        for cut in [legacy_len, legacy_len + 1, legacy_len + 9, buf.len() - 1] {
            assert!(
                matches!(Lemp::read_from(&buf[..cut]), Err(PersistError::Format(_))),
                "quant-section truncation at {cut} not detected"
            );
        }

        // An out-of-range quantize_bits word (the section's first byte).
        let mut bad = buf.clone();
        bad[legacy_len] = 99;
        let err = Lemp::read_from(&bad[..]).unwrap_err();
        assert!(err.to_string().contains("1..=16"), "unexpected error: {err}");

        // Bit-flip a code byte to an out-of-range index: the *last* byte
        // of the image is a code (codes close each bucket's record; this
        // 200-probe engine's codebook holds fewer than 255 centroids).
        let mut bad = buf.clone();
        *bad.last_mut().unwrap() = u8::MAX;
        let err = Lemp::read_from(&bad[..]).unwrap_err();
        assert!(err.to_string().contains("≥ k"), "unexpected error: {err}");

        // Tampering a codebook double keeps the image loadable (any finite
        // value is a legal centroid) but the recomputed eps still covers
        // the damage, so answers stay exact.
        let mut bent = buf.clone();
        let cb_at = legacy_len + 2 + 16; // bits, codebook flag, sub_dim, k
        bent[cb_at..cb_at + 8].copy_from_slice(&7.5f64.to_le_bytes());
        let mut loaded = Lemp::read_from(&bent[..]).unwrap();
        loaded.warm(&q, crate::WarmGoal::Above(1.0));
        let mut fresh = Lemp::builder().sample_size(5).build(&p);
        let a = loaded.above_theta(&q, 1.2);
        let b = fresh.above_theta(&q, 1.2);
        assert_eq!(canonical_pairs(&a.entries), canonical_pairs(&b.entries));
    }

    #[test]
    fn rejects_tampered_orderings() {
        let p = VectorStore::from_rows(&[
            vec![4.0, 0.0],
            vec![3.0, 0.0],
            vec![2.0, 0.0],
            vec![1.0, 0.0],
        ])
        .unwrap();
        let policy = crate::BucketPolicy { min_bucket: 2, length_ratio: 0.9, ..Default::default() };
        let engine = Lemp::builder().policy(policy).build(&p);
        assert!(engine.buckets().bucket_count() >= 2, "fixture needs two buckets");
        let mut buf = Vec::new();
        engine.write_to(&mut buf).unwrap();
        // Swap the first two f64 rows of the first bucket's data section to
        // break the within-bucket ordering: locate it right after the first
        // bucket's header + ids. Header: 8 magic + 1 tag + 5*8 cfg words +
        // 8 eps/base... simpler: decode offsets structurally.
        let ids_start = 8 + 1 + 8 + 8 + 8 + 8 + 8 + 8 + 8 + 8 + 8 + 8; // magic..bucket0 count
        let count0 = u64::from_le_bytes(buf[ids_start - 8..ids_start].try_into().unwrap()) as usize;
        let data_start = ids_start + 4 * count0;
        let row = 2 * 8; // dim 2 rows
        let (a, b) = (data_start, data_start + row);
        let tmp: Vec<u8> = buf[a..a + row].to_vec();
        buf.copy_within(b..b + row, a);
        buf[b..b + row].copy_from_slice(&tmp);
        let err = Lemp::read_from(&buf[..]).unwrap_err();
        assert!(
            err.to_string().contains("sorted") || err.to_string().contains("overlaps"),
            "tampered ordering accepted: {err}"
        );
    }
}
