//! Fuzz-style hardening of the persistence error paths: every engine image
//! format (`LEMPENG1`/`2`/`3`, `LEMPDYN1`/`2`/`3`, `LEMPSHD1`/`2`) is
//! truncated at **every** byte offset and bit-flipped at every byte —
//! loading must always return a structured [`PersistError`] or a valid
//! engine, and must **never** panic, abort on a hostile allocation size, or
//! silently accept a truncated image. The version-2 quantized images
//! (per-bucket codebooks) are no longer written; the committed fixtures
//! under `tests/fixtures/` were written by that format's writer from the
//! same tiny inputs, and stay in the sweeps while the format is readable.

use std::panic::{catch_unwind, AssertUnwindSafe};

use lemp_core::{BucketPolicy, DynamicLemp, Lemp, PersistError, RunConfig, ShardedLemp, WarmGoal};
use lemp_data::synthetic::GeneratorConfig;
use lemp_linalg::VectorStore;

// Deliberately tiny: the sweeps below parse the image once per byte per
// mask, so the image size is the test's runtime multiplier. Every format
// feature (multiple buckets, dead ids, two shards, trained codebooks)
// still appears.
fn probes() -> VectorStore {
    GeneratorConfig::gaussian(12, 2, 1.2).generate(5150)
}

fn queries() -> VectorStore {
    GeneratorConfig::gaussian(6, 2, 1.0).generate(5151)
}

/// The three loaders under test, type-erased to "bytes → outcome".
type Loader = fn(&[u8]) -> Result<(), PersistError>;

fn load_static(bytes: &[u8]) -> Result<(), PersistError> {
    Lemp::read_from(bytes).map(|_| ())
}

fn load_dynamic(bytes: &[u8]) -> Result<(), PersistError> {
    DynamicLemp::read_from(bytes).map(|_| ())
}

fn load_sharded(bytes: &[u8]) -> Result<(), PersistError> {
    ShardedLemp::read_from(bytes).map(|_| ())
}

fn images() -> Vec<(&'static str, Vec<u8>, Loader)> {
    let p = probes();

    let mut bytes = Vec::new();
    Lemp::builder().sample_size(4).build(&p).write_to(&mut bytes).unwrap();
    let static_image = bytes;

    let policy = BucketPolicy { min_bucket: 8, ..Default::default() };
    let config = RunConfig { sample_size: 4, ..Default::default() };
    let mut dynamic = DynamicLemp::new(&p, policy, config);
    dynamic.insert(&[0.5, -0.25]).unwrap();
    dynamic.remove(3);
    dynamic.remove(7);
    let mut bytes = Vec::new();
    dynamic.write_to(&mut bytes).unwrap();
    let dynamic_image = bytes;

    let sharded = ShardedLemp::builder().shards(2).sample_size(4).build(&p);
    let mut bytes = Vec::new();
    sharded.write_to(&mut bytes).unwrap();
    let sharded_image = bytes;

    // The v3 images carry the appended quantized section (code width, the
    // engine's codebook, per-bucket flags and packed codes); warming first
    // trains the codebook so the section is fully populated, and the sweeps
    // below then corrupt every byte of it like any other region.
    let q = queries();
    let mut quant_static = Lemp::builder().sample_size(4).quantize(8).build(&p);
    quant_static.warm(&q, WarmGoal::TopK(3));
    let mut bytes = Vec::new();
    quant_static.write_to(&mut bytes).unwrap();
    let quant_static_image = bytes;

    let policy = BucketPolicy { min_bucket: 8, ..Default::default() };
    let config = RunConfig { sample_size: 4, quantize_bits: 8, ..Default::default() };
    let mut quant_dynamic = DynamicLemp::new(&p, policy, config);
    quant_dynamic.warm(&q, WarmGoal::TopK(3));
    let mut bytes = Vec::new();
    quant_dynamic.write_to(&mut bytes).unwrap();
    let quant_dynamic_image = bytes;

    let mut quant_sharded = ShardedLemp::builder().shards(2).sample_size(4).quantize(8).build(&p);
    quant_sharded.warm(&q, WarmGoal::TopK(3));
    let mut bytes = Vec::new();
    quant_sharded.write_to(&mut bytes).unwrap();
    let quant_sharded_image = bytes;

    // The same three quantized engines as the version-2 writer saved them
    // (`Lemp`/`DynamicLemp`/2-shard `ShardedLemp`, `quantize(8)`, warmed
    // with `WarmGoal::TopK(3)` on `queries()`).
    let fixture = |name: &str| {
        let path =
            std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures").join(name);
        std::fs::read(path).unwrap()
    };

    vec![
        ("LEMPENG1", static_image, load_static as Loader),
        ("LEMPDYN1", dynamic_image, load_dynamic as Loader),
        ("LEMPSHD1", sharded_image, load_sharded as Loader),
        ("LEMPENG2", fixture("fuzz-v2-static.eng"), load_static as Loader),
        ("LEMPDYN2", fixture("fuzz-v2-dynamic.eng"), load_dynamic as Loader),
        ("LEMPSHD2+DYN2", fixture("fuzz-v2-sharded.eng"), load_sharded as Loader),
        ("LEMPENG3", quant_static_image, load_static as Loader),
        ("LEMPDYN3", quant_dynamic_image, load_dynamic as Loader),
        ("LEMPSHD2+DYN3", quant_sharded_image, load_sharded as Loader),
    ]
}

#[test]
fn truncation_at_every_offset_is_a_structured_error() {
    for (name, image, loader) in images() {
        assert!(loader(&image).is_ok(), "{name}: pristine image must load");
        for cut in 0..image.len() {
            let outcome = catch_unwind(AssertUnwindSafe(|| loader(&image[..cut])));
            match outcome {
                Ok(Err(PersistError::Format(msg))) => {
                    assert!(!msg.is_empty(), "{name}: empty error at cut {cut}")
                }
                Ok(Err(PersistError::Io(_))) => {}
                Ok(Ok(())) => panic!("{name}: truncation at {cut} loaded silently"),
                Err(_) => panic!("{name}: truncation at {cut} panicked"),
            }
        }
    }
}

#[test]
fn bit_flips_at_every_offset_never_panic() {
    for (name, image, loader) in images() {
        for offset in 0..image.len() {
            // Two masks per byte: a low bit (small value shifts) and the
            // high bit (sign/magnitude blowups — the allocation-bomb
            // shape: a flipped length field requesting gigabytes must
            // come back as a Format error, not an abort).
            for mask in [0x01u8, 0x80] {
                let mut bad = image.clone();
                bad[offset] ^= mask;
                let outcome = catch_unwind(AssertUnwindSafe(|| loader(&bad)));
                match outcome {
                    Ok(Ok(())) => {} // a flip in float payload can stay valid
                    Ok(Err(e)) => {
                        let _ = e.to_string(); // Display must not panic either
                    }
                    Err(_) => panic!("{name}: flip {mask:#04x} at {offset} panicked"),
                }
            }
        }
    }
}

#[test]
fn hostile_size_fields_error_instead_of_allocating() {
    // Surgical versions of the worst single-field corruptions: each sets
    // one u64 size field to an absurd value and expects a clean error.
    let p = probes();
    let mut image = Vec::new();
    Lemp::builder().sample_size(4).build(&p).write_to(&mut image).unwrap();
    // Config block: magic(8) + tag(1) + 6 words; bucket header starts at 57:
    // dim(8) total(8) count(8), first bucket size at 81.
    for (what, at) in [("dim", 57usize), ("total", 65), ("bucket count", 73), ("bucket size", 81)] {
        let mut bad = image.clone();
        bad[at..at + 8].copy_from_slice(&u64::MAX.to_le_bytes());
        let outcome = catch_unwind(AssertUnwindSafe(|| Lemp::read_from(&bad[..])));
        match outcome {
            Ok(Err(PersistError::Format(_))) => {}
            Ok(other) => panic!("huge {what}: expected a format error, got {other:?}"),
            Err(_) => panic!("huge {what} panicked"),
        }
    }

    // The dynamic image's id-space watermark: magic(8) + policy(32) +
    // config(49) puts it at 89.
    let policy = BucketPolicy { min_bucket: 8, ..Default::default() };
    let config = RunConfig { sample_size: 4, ..Default::default() };
    let dynamic = DynamicLemp::new(&p, policy, config);
    let mut image = Vec::new();
    dynamic.write_to(&mut image).unwrap();
    let at = 8 + 32 + 49;
    for watermark in [u64::MAX, 1 << 33, (1 << 32) + 1] {
        let mut bad = image.clone();
        bad[at..at + 8].copy_from_slice(&watermark.to_le_bytes());
        match DynamicLemp::read_from(&bad[..]) {
            Err(PersistError::Format(msg)) => {
                assert!(msg.contains("id-space") || msg.contains("watermark"), "{msg}")
            }
            other => panic!("watermark {watermark}: expected a format error, got {other:?}"),
        }
    }
}
