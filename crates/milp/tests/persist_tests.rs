//! Persistence battery for the solution-cache snapshot codec: property-based
//! save↔load roundtrips (byte-equal re-encode, every entry and stamp
//! preserved) and the file-level negatives (truncation, flipped bytes,
//! foreign/other-version headers, solver-config mismatches, counts that
//! contradict the declared capacity) — each of which must surface as its own
//! typed [`CachePersistError`], never a panic and never a silently garbled
//! cache.

use proptest::prelude::*;
use std::fs;
use std::path::{Path, PathBuf};
use waterwise_milp::persist::{decode_cache, encode_cache, CACHE_HEADER};
use waterwise_milp::{
    solver_config_hash, BranchBoundConfig, CacheAutosave, CachePersistError, ModelFingerprint,
    SimplexConfig, Solution, SolutionCache, SolveStatus,
};

/// A scratch directory unique to this test binary's process.
fn scratch(label: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ww-persist-{label}-{}", std::process::id()));
    let _ = fs::create_dir_all(&dir);
    dir
}

fn status_of(code: u64) -> SolveStatus {
    match code % 5 {
        0 => SolveStatus::Optimal,
        1 => SolveStatus::Feasible,
        2 => SolveStatus::Infeasible,
        3 => SolveStatus::Unbounded,
        _ => SolveStatus::IterationLimit,
    }
}

/// Build a cache from generated (fingerprint, status, values) tuples.
/// Fingerprints are folded onto a small space so some repeat (a refresh in
/// place) and shards hold several entries.
fn build_cache(entries: &[(u64, u64, Vec<f64>)]) -> SolutionCache {
    let cache = SolutionCache::with_capacity(256);
    for (fingerprint, status_code, values) in entries {
        let solution = Solution {
            status: status_of(*status_code),
            objective: values.iter().sum(),
            values: values.clone(),
            simplex_iterations: 2,
            nodes_explored: 1,
        };
        cache.insert(ModelFingerprint(fingerprint % 97), &solution);
    }
    cache
}

fn default_config_hash() -> u64 {
    solver_config_hash(&SimplexConfig::default(), &BranchBoundConfig::default())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn save_load_reencode_is_byte_equal(
        entries in prop::collection::vec(
            (0u64..1000, 0u64..5, prop::collection::vec(-10.0f64..10.0, 1..6)),
            0..40,
        ),
    ) {
        let cache = build_cache(&entries);
        let config = default_config_hash();
        let bytes = encode_cache(&cache, config);
        let loaded = decode_cache(&bytes, config, Path::new("mem")).expect("roundtrip decode");
        // Byte-equal re-encode means every entry, value, stamp, and the
        // stamp counter itself survived verbatim.
        prop_assert_eq!(encode_cache(&loaded, config), bytes);
        prop_assert_eq!(loaded.len(), cache.len());
        prop_assert_eq!(loaded.capacity(), cache.capacity());
    }

    #[test]
    fn loaded_cache_answers_exactly_like_the_original(
        entries in prop::collection::vec(
            (0u64..1000, 0u64..5, prop::collection::vec(-5.0f64..5.0, 1..4)),
            1..25,
        ),
        probes in prop::collection::vec((0u64..97, 1usize..4), 1..40),
    ) {
        let cache = build_cache(&entries);
        let config = default_config_hash();
        let bytes = encode_cache(&cache, config);
        let loaded = decode_cache(&bytes, config, Path::new("mem")).expect("roundtrip decode");
        for (fingerprint, num_vars) in probes {
            let fingerprint = ModelFingerprint(fingerprint);
            prop_assert_eq!(
                cache.lookup(fingerprint, num_vars),
                loaded.lookup(fingerprint, num_vars)
            );
        }
    }

    #[test]
    fn any_flipped_payload_byte_is_a_checksum_error(
        entries in prop::collection::vec(
            (0u64..1000, 0u64..5, prop::collection::vec(-1.0f64..1.0, 1..3)),
            1..10,
        ),
        position in 0.0f64..1.0,
        flip in 1u64..256,
    ) {
        let config = default_config_hash();
        let mut bytes = encode_cache(&build_cache(&entries), config);
        // Flip one byte anywhere in the content region (after the header,
        // before the stored checksum).
        let lo = CACHE_HEADER.len();
        let hi = bytes.len() - 8;
        let target = lo + ((position * (hi - lo) as f64) as usize).min(hi - lo - 1);
        bytes[target] ^= flip as u8;
        match decode_cache(&bytes, config, Path::new("mem")) {
            Err(CachePersistError::ChecksumMismatch { expected, actual, .. }) => {
                prop_assert_ne!(expected, actual);
            }
            other => prop_assert!(false, "expected checksum mismatch, got {:?}", other),
        }
    }
}

#[test]
fn save_then_load_from_disk_roundtrips() {
    let dir = scratch("roundtrip");
    let path = dir.join("cache.snapshot");
    let cache = build_cache(&[
        (10, 0, vec![1.0, 0.0]),
        (11, 1, vec![0.5]),
        (70, 0, vec![-0.0, f64::MAX]),
    ]);
    let config = default_config_hash();
    cache.save(&path, config).expect("save");
    let loaded = SolutionCache::load(&path, config).expect("load");
    assert_eq!(encode_cache(&loaded, config), encode_cache(&cache, config));
    let replayed = loaded
        .lookup(ModelFingerprint(11), 1)
        .expect("hit after reload");
    assert_eq!(replayed.values, vec![0.5]);
    // Save → load → save stays byte-identical on disk.
    let first = fs::read(&path).expect("read back");
    loaded
        .save(&path, config)
        .expect("re-save the loaded cache");
    assert_eq!(fs::read(&path).expect("read back"), first);
    // Saving over an existing snapshot replaces it atomically.
    cache.save(&path, config).expect("re-save over existing");
    assert!(SolutionCache::load(&path, config).is_ok());
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn missing_file_is_a_typed_io_error_naming_the_path() {
    let path = scratch("missing").join("never-written.snapshot");
    match SolutionCache::load(&path, default_config_hash()) {
        Err(CachePersistError::Io { path: reported, .. }) => assert_eq!(reported, path),
        other => panic!("expected Io error, got {other:?}"),
    }
}

#[test]
fn truncated_snapshot_is_a_typed_error() {
    let dir = scratch("truncated");
    let path = dir.join("cache.snapshot");
    let config = default_config_hash();
    let cache = build_cache(&[(10, 0, vec![1.0, 2.0, 3.0]), (20, 1, vec![4.0])]);
    cache.save(&path, config).expect("save");
    let full = fs::read(&path).expect("read back");
    // Every proper prefix must fail typed, never panic or yield a partial
    // cache: Truncated for mid-content cuts, BadHeader for cuts inside the
    // header, and ChecksumMismatch when the cut leaves enough bytes that
    // the decoder reads a (shifted, hence wrong) checksum trailer.
    for keep in [
        0,
        5,
        CACHE_HEADER.len(),
        CACHE_HEADER.len() + 9,
        full.len() - 1,
    ] {
        fs::write(&path, &full[..keep]).expect("write truncated");
        let error = SolutionCache::load(&path, config).expect_err("truncated must not load");
        match &error {
            CachePersistError::Truncated { path: reported, .. }
            | CachePersistError::BadHeader { path: reported, .. }
            | CachePersistError::ChecksumMismatch { path: reported, .. } => {
                assert_eq!(reported, &path, "error must name the offending file")
            }
            other => panic!("unexpected error for prefix {keep}: {other:?}"),
        }
        assert!(
            error.to_string().contains("cache.snapshot"),
            "message must name the path: {error}"
        );
    }
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn flipped_byte_on_disk_is_a_checksum_error() {
    let dir = scratch("flip");
    let path = dir.join("cache.snapshot");
    let config = default_config_hash();
    build_cache(&[(10, 0, vec![1.0])])
        .save(&path, config)
        .expect("save");
    let mut bytes = fs::read(&path).expect("read back");
    let mid = CACHE_HEADER.len() + 12;
    bytes[mid] ^= 0x40;
    fs::write(&path, &bytes).expect("write corrupted");
    match SolutionCache::load(&path, config) {
        Err(CachePersistError::ChecksumMismatch { path: reported, .. }) => {
            assert_eq!(reported, path)
        }
        other => panic!("expected checksum mismatch, got {other:?}"),
    }
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn other_version_headers_are_a_typed_error() {
    let dir = scratch("version");
    let path = dir.join("cache.snapshot");
    assert_eq!(CACHE_HEADER, "waterwise-cache/2\n");
    // `/1` carried a second hash per entry; `/3` is from the future.
    for header in ["waterwise-cache/1\n", "waterwise-cache/3\n"] {
        fs::write(&path, [header.as_bytes(), b"other bytes"].concat()).expect("write");
        match SolutionCache::load(&path, default_config_hash()) {
            Err(CachePersistError::UnsupportedVersion {
                path: reported,
                found,
            }) => {
                assert_eq!(reported, path);
                assert_eq!(found, header);
            }
            other => panic!("expected unsupported version, got {other:?}"),
        }
    }
    let _ = fs::remove_dir_all(&dir);
}

/// Overwrite the `u64` at `offset` of a real snapshot and re-checksum it, so
/// the decoder sees a file that is intact and says something else.
fn patch_u64(bytes: &mut [u8], offset: usize, value: u64) {
    bytes[offset..offset + 8].copy_from_slice(&value.to_le_bytes());
    let end = bytes.len() - 8;
    let mut checksum = 0xcbf2_9ce4_8422_2325u64; // FNV-1a over the content
    for byte in &bytes[CACHE_HEADER.len()..end] {
        checksum = (checksum ^ u64::from(*byte)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    bytes[end..].copy_from_slice(&checksum.to_le_bytes());
}

fn expect_invalid(bytes: &[u8], needle: &str) {
    match decode_cache(bytes, default_config_hash(), Path::new("mem")) {
        Err(CachePersistError::Invalid { message, .. }) => {
            assert!(message.contains(needle), "{message}")
        }
        other => panic!("expected an invalid snapshot, got {other:?}"),
    }
}

#[test]
fn a_snapshot_over_its_declared_capacity_is_invalid() {
    // 64 entries (4 per shard) under capacity 256 is a cache; the same 64
    // under a declared capacity of 16 (1 per shard) never was one.
    let entries: Vec<_> = (0..64).map(|k| (k, 0, vec![k as f64])).collect();
    let mut bytes = encode_cache(&build_cache(&entries), default_config_hash());
    let loaded = decode_cache(&bytes, default_config_hash(), Path::new("mem")).expect("intact");
    assert_eq!((loaded.len(), loaded.capacity()), (64, 256));
    let capacity_at = CACHE_HEADER.len() + 8;
    patch_u64(&mut bytes, capacity_at, 16);
    expect_invalid(&bytes, "declared to hold 16");
}

#[test]
fn a_snapshot_repeating_a_fingerprint_is_invalid() {
    // Two one-value entries are 41 bytes each; name the first one's
    // fingerprint in the second.
    let mut bytes = encode_cache(
        &build_cache(&[(10, 0, vec![1.0]), (20, 0, vec![2.0])]),
        default_config_hash(),
    );
    let first_entry_at = CACHE_HEADER.len() + 4 * 8;
    let entry_len = 8 + 1 + 8 + 8 + 8 + 8;
    let first = u64::from_le_bytes(
        bytes[first_entry_at..first_entry_at + 8]
            .try_into()
            .unwrap(),
    );
    patch_u64(&mut bytes, first_entry_at + entry_len, first);
    expect_invalid(&bytes, "stored twice");
}

#[test]
fn foreign_file_is_a_bad_header_error() {
    let dir = scratch("foreign");
    let path = dir.join("cache.snapshot");
    fs::write(&path, b"{\"not\": \"a snapshot\"}").expect("write");
    match SolutionCache::load(&path, default_config_hash()) {
        Err(CachePersistError::BadHeader { path: reported, .. }) => assert_eq!(reported, path),
        other => panic!("expected bad header, got {other:?}"),
    }
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn solver_config_mismatch_is_a_typed_error() {
    let dir = scratch("config");
    let path = dir.join("cache.snapshot");
    let saved_config = default_config_hash();
    build_cache(&[(10, 0, vec![1.0])])
        .save(&path, saved_config)
        .expect("save");
    let other_bb = BranchBoundConfig {
        max_nodes: BranchBoundConfig::default().max_nodes + 1,
        ..BranchBoundConfig::default()
    };
    let other_config = solver_config_hash(&SimplexConfig::default(), &other_bb);
    match SolutionCache::load(&path, other_config) {
        Err(CachePersistError::ConfigMismatch {
            path: reported,
            expected,
            found,
        }) => {
            assert_eq!(reported, path);
            assert_eq!(expected, other_config);
            assert_eq!(found, saved_config);
        }
        other => panic!("expected config mismatch, got {other:?}"),
    }
    // The same file still loads under the configuration it was saved with.
    assert!(SolutionCache::load(&path, saved_config).is_ok());
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn no_temp_files_survive_a_successful_save() {
    let dir = scratch("tempfiles");
    let path = dir.join("cache.snapshot");
    build_cache(&[(10, 0, vec![1.0])])
        .save(&path, default_config_hash())
        .expect("save");
    let leftovers: Vec<_> = fs::read_dir(&dir)
        .expect("read dir")
        .filter_map(|entry| entry.ok())
        .map(|entry| entry.file_name().to_string_lossy().into_owned())
        .filter(|name| name != "cache.snapshot")
        .collect();
    assert!(
        leftovers.is_empty(),
        "temp files left behind: {leftovers:?}"
    );
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn autosave_guard_saves_on_drop_and_on_finish() {
    let dir = scratch("autosave");
    let config = default_config_hash();

    let drop_path = dir.join("dropped.snapshot");
    {
        let cache = build_cache(&[(30, 0, vec![2.0])]).into_handle();
        let _guard = CacheAutosave::new(cache, drop_path.clone(), config);
        assert!(!drop_path.exists(), "guard must not save before drop");
    }
    let reloaded = SolutionCache::load(&drop_path, config).expect("drop-path save");
    assert_eq!(reloaded.len(), 1);

    let finish_path = dir.join("finished.snapshot");
    let cache = build_cache(&[(40, 1, vec![5.0]), (41, 0, vec![6.0])]).into_handle();
    let guard = CacheAutosave::new(cache.clone(), finish_path.clone(), config);
    guard.finish().expect("finish save");
    let reloaded = SolutionCache::load(&finish_path, config).expect("finish-path load");
    assert_eq!(
        encode_cache(&reloaded, config),
        encode_cache(&cache, config)
    );
    let _ = fs::remove_dir_all(&dir);
}
