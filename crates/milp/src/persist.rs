//! Crash-safe on-disk persistence for the [`SolutionCache`].
//!
//! The warm state a campaign (or a long-lived placement host) accumulates in
//! its [`SolutionCache`] dies with the process unless it is persisted; this
//! module gives the cache a durable form so a restarted host resumes warm
//! instead of cold-starting every rolling-horizon solve.
//!
//! # File format (`waterwise-cache/2`)
//!
//! A snapshot is a single flat binary file in the same hand-rolled
//! little-endian style as the service wire codec — the workspace's compat
//! serde layer is a no-op, so nothing here round-trips through it:
//!
//! ```text
//! "waterwise-cache/2\n"                      ASCII header (version gate)
//! config_hash:  u64 LE                       solver-configuration hash
//! capacity:     u64 LE                       total entry capacity
//! next_stamp:   u64 LE                       recency-stamp counter
//! entry_count:  u64 LE
//! entry_count × {
//!     fingerprint: u64 LE                    ModelFingerprint of the model
//!     status:     u8                         SolveStatus discriminant (0–4)
//!     objective:  u64 LE                     f64 bits
//!     stamp:      u64 LE                     insertion recency stamp
//!     value_count: u64 LE
//!     value_count × u64 LE                   f64 bits per variable value
//! }
//! checksum:     u64 LE                       FNV-1a over everything after
//!                                            the header, excluding itself
//! ```
//!
//! Entries are written in the cache's canonical export order (shard index,
//! then ascending fingerprint), which [`SolutionCache::load`] reproduces
//! exactly — so save → load → save emits byte-identical files, and a
//! reloaded cache evicts in the same order the original would have.
//! Version 1 stored a second, structural hash per entry; this build refuses
//! such a file as [`CachePersistError::UnsupportedVersion`].
//!
//! # Crash safety and failure typing
//!
//! [`SolutionCache::save`] never exposes a partially written file: it writes
//! to a process-unique temp sibling, `fsync`s it, and atomically renames it
//! over the destination. A crash at any point leaves either the old snapshot
//! or the new one, never a hybrid.
//!
//! [`SolutionCache::load`] refuses to hand back garbage. Every failure is a
//! typed [`CachePersistError`] naming the offending path: a foreign or
//! other-versioned file, a truncated file, a flipped byte (checksum), a
//! snapshot produced under a different solver configuration
//! ([`crate::solver_config_hash`]) whose stored "exact" solutions would not be
//! exact here, or checksum-valid content that cannot be a cache (more
//! entries than the declared capacity holds, a fingerprint stored twice).
//! The checksum is verified *before* the configuration check, so corruption
//! is always reported as corruption even if the flipped byte happens to land
//! in the config-hash field.

use crate::cache::{CacheExport, ExportedEntry, Fnv, SolutionCache};
use crate::solution::SolveStatus;
use std::fmt;
use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};

/// Header line identifying a cache snapshot and its format version.
pub const CACHE_HEADER: &str = "waterwise-cache/2\n";

/// Why a cache snapshot could not be saved or loaded. Every variant names
/// the offending path so operators can find (and delete or restore) the
/// file; loads never return a partially decoded cache.
#[derive(Debug, Clone, PartialEq)]
pub enum CachePersistError {
    /// The underlying filesystem operation failed.
    Io {
        /// File the operation was addressing.
        path: PathBuf,
        /// Stringified OS error.
        message: String,
    },
    /// The file does not start with a `waterwise-cache/…` header: it is not
    /// a cache snapshot at all.
    BadHeader {
        /// File that was probed.
        path: PathBuf,
        /// The bytes found where the header was expected (lossy, truncated).
        found: String,
    },
    /// The file is a cache snapshot, but of a format version this build
    /// does not read.
    UnsupportedVersion {
        /// File that was probed.
        path: PathBuf,
        /// The full header line that was found.
        found: String,
    },
    /// The file ends before the declared content does.
    Truncated {
        /// File that was being decoded.
        path: PathBuf,
        /// Offset at which the decoder ran out of bytes.
        offset: usize,
    },
    /// The stored FNV-1a checksum does not match the content: at least one
    /// byte changed since the snapshot was written.
    ChecksumMismatch {
        /// File that failed verification.
        path: PathBuf,
        /// Checksum stored in the file.
        expected: u64,
        /// Checksum recomputed over the file's content.
        actual: u64,
    },
    /// The snapshot was produced under a different solver configuration;
    /// its "exact" solutions would not be exact under this one.
    ConfigMismatch {
        /// File that was rejected.
        path: PathBuf,
        /// Configuration hash this process expects ([`crate::solver_config_hash`]).
        expected: u64,
        /// Configuration hash stored in the file.
        found: u64,
    },
    /// The content is internally inconsistent (an unknown solve-status
    /// discriminant, more entries than the declared capacity holds, a
    /// fingerprint stored twice) despite a matching checksum.
    Invalid {
        /// File that was rejected.
        path: PathBuf,
        /// What was inconsistent.
        message: String,
    },
}

impl fmt::Display for CachePersistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CachePersistError::Io { path, message } => {
                write!(
                    f,
                    "cache snapshot I/O error at {}: {message}",
                    path.display()
                )
            }
            CachePersistError::BadHeader { path, found } => write!(
                f,
                "{} is not a waterwise cache snapshot (found {found:?})",
                path.display()
            ),
            CachePersistError::UnsupportedVersion { path, found } => write!(
                f,
                "{} has unsupported cache snapshot version {found:?} (this build reads {:?})",
                path.display(),
                CACHE_HEADER.trim_end()
            ),
            CachePersistError::Truncated { path, offset } => write!(
                f,
                "cache snapshot {} is truncated (ended at byte {offset})",
                path.display()
            ),
            CachePersistError::ChecksumMismatch {
                path,
                expected,
                actual,
            } => write!(
                f,
                "cache snapshot {} failed checksum verification \
                 (stored {expected:#018x}, computed {actual:#018x})",
                path.display()
            ),
            CachePersistError::ConfigMismatch {
                path,
                expected,
                found,
            } => write!(
                f,
                "cache snapshot {} was produced under a different solver configuration \
                 (expected hash {expected:#018x}, found {found:#018x})",
                path.display()
            ),
            CachePersistError::Invalid { path, message } => {
                write!(f, "cache snapshot {} is invalid: {message}", path.display())
            }
        }
    }
}

impl std::error::Error for CachePersistError {}

/// Encode the cache into snapshot bytes (header + content + checksum).
/// Exposed so tests can corrupt snapshots surgically; [`SolutionCache::save`]
/// is the durable path.
pub fn encode_cache(cache: &SolutionCache, config_hash: u64) -> Vec<u8> {
    encode_export(&cache.export(), config_hash)
}

fn encode_export(export: &CacheExport, config_hash: u64) -> Vec<u8> {
    let mut bytes = Vec::from(CACHE_HEADER.as_bytes());
    let content_start = bytes.len();
    push_u64(&mut bytes, config_hash);
    push_u64(&mut bytes, export.capacity as u64);
    push_u64(&mut bytes, export.next_stamp);
    push_u64(&mut bytes, export.entries.len() as u64);
    for entry in &export.entries {
        push_u64(&mut bytes, entry.fingerprint);
        bytes.push(status_code(entry.status));
        push_u64(&mut bytes, entry.objective.to_bits());
        push_u64(&mut bytes, entry.stamp);
        push_u64(&mut bytes, entry.values.len() as u64);
        for value in &entry.values {
            push_u64(&mut bytes, value.to_bits());
        }
    }
    let checksum = fnv_bytes(&bytes[content_start..]);
    push_u64(&mut bytes, checksum);
    bytes
}

/// Decode snapshot bytes into a cache, enforcing the header, checksum, and
/// solver-configuration gates. `path` is only used to label errors.
/// Exposed so tests can decode surgically corrupted snapshots;
/// [`SolutionCache::load`] is the file-reading path.
pub fn decode_cache(
    bytes: &[u8],
    expected_config_hash: u64,
    path: &Path,
) -> Result<SolutionCache, CachePersistError> {
    let header = CACHE_HEADER.as_bytes();
    if bytes.len() < header.len() || &bytes[..header.len()] != header {
        return Err(classify_header(bytes, path));
    }
    let content_start = header.len();
    // The fixed fields plus the trailing checksum are the minimum content.
    if bytes.len() < content_start + 4 * 8 + 8 {
        return Err(CachePersistError::Truncated {
            path: path.to_path_buf(),
            offset: bytes.len(),
        });
    }
    let checksum_at = bytes.len() - 8;
    let stored_checksum = read_u64_unchecked(bytes, checksum_at);
    let actual_checksum = fnv_bytes(&bytes[content_start..checksum_at]);
    if stored_checksum != actual_checksum {
        return Err(CachePersistError::ChecksumMismatch {
            path: path.to_path_buf(),
            expected: stored_checksum,
            actual: actual_checksum,
        });
    }

    let mut cursor = Cursor {
        bytes: &bytes[..checksum_at],
        offset: content_start,
        path,
    };
    let config_hash = cursor.u64()?;
    if config_hash != expected_config_hash {
        return Err(CachePersistError::ConfigMismatch {
            path: path.to_path_buf(),
            expected: expected_config_hash,
            found: config_hash,
        });
    }
    let capacity = cursor.u64()? as usize;
    let next_stamp = cursor.u64()?;
    let entry_count = cursor.u64()?;
    let mut entries = Vec::new();
    for _ in 0..entry_count {
        let fingerprint = cursor.u64()?;
        let status = status_from_code(cursor.u8()?, cursor.offset - 1, path)?;
        let objective = f64::from_bits(cursor.u64()?);
        let stamp = cursor.u64()?;
        let value_count = cursor.u64()?;
        let mut values = Vec::with_capacity(cursor.bounded_len(value_count));
        for _ in 0..value_count {
            values.push(f64::from_bits(cursor.u64()?));
        }
        entries.push(ExportedEntry {
            fingerprint,
            status,
            objective,
            values,
            stamp,
        });
    }
    if cursor.offset != checksum_at {
        return Err(CachePersistError::Invalid {
            path: path.to_path_buf(),
            message: format!(
                "{} trailing bytes after the last declared entry",
                checksum_at - cursor.offset
            ),
        });
    }
    SolutionCache::import(CacheExport {
        capacity,
        next_stamp,
        entries,
    })
    .map_err(|message| CachePersistError::Invalid {
        path: path.to_path_buf(),
        message,
    })
}

impl SolutionCache {
    /// Persist the cache to `path` crash-safely: the snapshot is written to
    /// a process-unique temp sibling, flushed to stable storage, and
    /// atomically renamed into place — a crash mid-save leaves the previous
    /// snapshot (or no file) intact, never a torn one.
    ///
    /// `config_hash` must be [`crate::solver_config_hash`] of the configuration the
    /// cached solutions were produced under; [`SolutionCache::load`] refuses
    /// snapshots whose hash differs from the loader's.
    pub fn save(&self, path: &Path, config_hash: u64) -> Result<(), CachePersistError> {
        let bytes = encode_cache(self, config_hash);
        let temp = temp_sibling(path);
        let write_result = (|| {
            let mut file = fs::File::create(&temp)?;
            file.write_all(&bytes)?;
            file.sync_all()
        })();
        if let Err(error) = write_result {
            // Best-effort cleanup; the original error is the one that counts.
            let _ = fs::remove_file(&temp);
            return Err(io_error(&temp, &error));
        }
        if let Err(error) = fs::rename(&temp, path) {
            let _ = fs::remove_file(&temp);
            return Err(io_error(path, &error));
        }
        // Make the rename itself durable where the platform allows syncing
        // the parent directory; failure here cannot tear the snapshot, so it
        // is not an error.
        if let Some(parent) = path.parent() {
            if let Ok(dir) = fs::File::open(parent) {
                let _ = dir.sync_all();
            }
        }
        Ok(())
    }

    /// Load a snapshot previously written by [`SolutionCache::save`],
    /// verifying the format header, the content checksum, and that the
    /// snapshot was produced under the solver configuration hashing to
    /// `expected_config_hash`. Never returns a partially decoded cache.
    pub fn load(
        path: &Path,
        expected_config_hash: u64,
    ) -> Result<SolutionCache, CachePersistError> {
        let bytes = fs::read(path).map_err(|error| io_error(path, &error))?;
        decode_cache(&bytes, expected_config_hash, path)
    }
}

/// A drop guard that saves a shared cache on scope exit, so a host's warm
/// state reaches disk even on early-return shutdown paths.
///
/// The [`Drop`] save is best-effort (errors cannot surface from `drop`);
/// call [`CacheAutosave::finish`] on the orderly path to observe the result,
/// which also disarms the guard.
#[derive(Debug)]
pub struct CacheAutosave {
    cache: crate::cache::SolutionCacheHandle,
    path: PathBuf,
    config_hash: u64,
    armed: bool,
}

impl CacheAutosave {
    /// Arm an autosave of `cache` to `path` under `config_hash`.
    pub fn new(
        cache: crate::cache::SolutionCacheHandle,
        path: PathBuf,
        config_hash: u64,
    ) -> CacheAutosave {
        CacheAutosave {
            cache,
            path,
            config_hash,
            armed: true,
        }
    }

    /// Save now without disarming (periodic checkpoint).
    pub fn save_now(&self) -> Result<(), CachePersistError> {
        self.cache.save(&self.path, self.config_hash)
    }

    /// Save and disarm: the orderly-shutdown path, where the caller wants
    /// the error (if any) instead of a silent best-effort drop.
    pub fn finish(mut self) -> Result<(), CachePersistError> {
        self.armed = false;
        self.save_now()
    }
}

impl Drop for CacheAutosave {
    fn drop(&mut self) {
        if self.armed {
            // Best-effort: drop cannot report, and a failed autosave must
            // not panic the unwinding thread (DET003).
            let _ = self.save_now();
        }
    }
}

/// Distinguish "not our file" from "our file, future version".
fn classify_header(bytes: &[u8], path: &Path) -> CachePersistError {
    let prefix = b"waterwise-cache/";
    if bytes.starts_with(prefix) {
        let line_end = bytes
            .iter()
            .position(|b| *b == b'\n')
            .map(|i| i + 1)
            .unwrap_or(bytes.len());
        return CachePersistError::UnsupportedVersion {
            path: path.to_path_buf(),
            found: String::from_utf8_lossy(&bytes[..line_end]).into_owned(),
        };
    }
    let sample = &bytes[..bytes.len().min(CACHE_HEADER.len())];
    CachePersistError::BadHeader {
        path: path.to_path_buf(),
        found: String::from_utf8_lossy(sample).into_owned(),
    }
}

fn status_code(status: SolveStatus) -> u8 {
    match status {
        SolveStatus::Optimal => 0,
        SolveStatus::Feasible => 1,
        SolveStatus::Infeasible => 2,
        SolveStatus::Unbounded => 3,
        SolveStatus::IterationLimit => 4,
    }
}

fn status_from_code(
    code: u8,
    offset: usize,
    path: &Path,
) -> Result<SolveStatus, CachePersistError> {
    match code {
        0 => Ok(SolveStatus::Optimal),
        1 => Ok(SolveStatus::Feasible),
        2 => Ok(SolveStatus::Infeasible),
        3 => Ok(SolveStatus::Unbounded),
        4 => Ok(SolveStatus::IterationLimit),
        other => Err(CachePersistError::Invalid {
            path: path.to_path_buf(),
            message: format!("unknown solve-status code {other} at byte {offset}"),
        }),
    }
}

fn push_u64(bytes: &mut Vec<u8>, value: u64) {
    bytes.extend_from_slice(&value.to_le_bytes());
}

/// Read 8 LE bytes at `offset`; callers have already bounds-checked. A
/// short slice yields zero rather than a panic (DET003), but never occurs
/// on the checked paths.
fn read_u64_unchecked(bytes: &[u8], offset: usize) -> u64 {
    let mut le = [0u8; 8];
    for (i, slot) in le.iter_mut().enumerate() {
        *slot = bytes.get(offset + i).copied().unwrap_or(0);
    }
    u64::from_le_bytes(le)
}

fn fnv_bytes(bytes: &[u8]) -> u64 {
    let mut hash = Fnv::new();
    for byte in bytes {
        hash.write_u8(*byte);
    }
    hash.finish()
}

fn io_error(path: &Path, error: &std::io::Error) -> CachePersistError {
    CachePersistError::Io {
        path: path.to_path_buf(),
        message: error.to_string(),
    }
}

/// A process-unique temp sibling of `path`, on the same filesystem so the
/// final `rename` is atomic.
fn temp_sibling(path: &Path) -> PathBuf {
    let mut name = path.as_os_str().to_os_string();
    name.push(format!(".tmp.{}", std::process::id()));
    PathBuf::from(name)
}

/// Bounded, byte-checked reads over the decoded region.
struct Cursor<'a> {
    bytes: &'a [u8],
    offset: usize,
    path: &'a Path,
}

impl Cursor<'_> {
    fn u8(&mut self) -> Result<u8, CachePersistError> {
        match self.bytes.get(self.offset) {
            Some(byte) => {
                self.offset += 1;
                Ok(*byte)
            }
            None => Err(self.truncated()),
        }
    }

    fn u64(&mut self) -> Result<u64, CachePersistError> {
        if self.offset + 8 > self.bytes.len() {
            return Err(self.truncated());
        }
        let value = read_u64_unchecked(self.bytes, self.offset);
        self.offset += 8;
        Ok(value)
    }

    /// Clamp a declared element count to what the remaining bytes could
    /// possibly hold, so a corrupt count cannot drive a huge allocation
    /// before the truncation error surfaces.
    fn bounded_len(&self, declared: u64) -> usize {
        let remaining = (self.bytes.len() - self.offset) / 8;
        (declared as usize).min(remaining)
    }

    fn truncated(&self) -> CachePersistError {
        CachePersistError::Truncated {
            path: self.path.to_path_buf(),
            offset: self.offset,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::ModelFingerprint;
    use crate::solution::Solution;

    fn sample_cache() -> SolutionCache {
        let cache = SolutionCache::with_capacity(64);
        for k in 0..5u64 {
            let solution = Solution {
                status: SolveStatus::Optimal,
                objective: k as f64 * 1.5,
                values: vec![k as f64, -0.0, f64::from_bits(0x7ff8_0000_0000_0001)],
                simplex_iterations: 3,
                nodes_explored: 1,
            };
            cache.insert(ModelFingerprint(k * 11), &solution);
        }
        cache
    }

    #[test]
    fn encode_decode_is_byte_stable() {
        let cache = sample_cache();
        let bytes = encode_cache(&cache, 42);
        let decoded = decode_cache(&bytes, 42, Path::new("mem")).expect("decode");
        assert_eq!(
            encode_cache(&decoded, 42),
            bytes,
            "re-encode must be byte-equal"
        );
        assert_eq!(decoded.len(), cache.len());
        assert_eq!(decoded.capacity(), cache.capacity());
    }

    #[test]
    fn checksum_is_verified_before_config() {
        let cache = sample_cache();
        let mut bytes = encode_cache(&cache, 42);
        // Flip a byte inside the stored config hash: still a checksum error,
        // because corruption must never be reported as a config mismatch.
        let config_at = CACHE_HEADER.len();
        bytes[config_at] ^= 0xff;
        match decode_cache(&bytes, 42, Path::new("mem")) {
            Err(CachePersistError::ChecksumMismatch { .. }) => {}
            other => panic!("expected checksum mismatch, got {other:?}"),
        }
    }

    #[test]
    fn config_mismatch_is_typed() {
        let bytes = encode_cache(&sample_cache(), 42);
        match decode_cache(&bytes, 43, Path::new("mem")) {
            Err(CachePersistError::ConfigMismatch {
                expected, found, ..
            }) => {
                assert_eq!(expected, 43);
                assert_eq!(found, 42);
            }
            other => panic!("expected config mismatch, got {other:?}"),
        }
    }
}
