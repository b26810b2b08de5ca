//! The admission journal: the multi-session host's replayable record.
//!
//! A [`crate::ClusterHost`] journals every request it admits, in drain
//! order, with the arrival sequence the engine saw. The journal *is* the
//! determinism contract of a multi-session run: feeding its entries back
//! through the engine offline — same specs, same sequences, same order —
//! reproduces the live schedule byte-identically
//! ([`waterwise_cluster::schedule_digest`] equality), even though the
//! live run interleaved many racing session threads. That holds because
//! the engine orders work purely by `(time, sequence)` event keys: once
//! those are pinned in the journal, the thread interleaving that produced
//! them is irrelevant.
//!
//! The text form is one flat JSON object per line (the wire codec's
//! grammar plus `seq` and `tenant`), so journals survive a trip through
//! any line-oriented tooling:
//!
//! ```text
//! {"seq":4294967296,"tenant":"acme","id":7,"benchmark":"dedup",...}
//! ```

use crate::admission::TenantId;
use crate::error::ServiceError;
use crate::request::PlacementResponse;
use crate::service::PlacementService;
use crate::wire;
use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use waterwise_cluster::{
    ClockMode, OnlineReport, Scheduler, SequencedJob, ONLINE_ARRIVAL_SEQ_LIMIT,
};
use waterwise_traces::{JobId, JobSpec};

/// One admitted request: the spec the engine ingested (submit time already
/// monotonized against the host watermark) and its arrival sequence.
#[derive(Debug, Clone, PartialEq)]
pub struct JournalEntry {
    /// The arrival sequence the engine broke exact-time ties with.
    pub seq: u64,
    /// The tenant the request was admitted under.
    pub tenant: TenantId,
    /// The admitted job, as stamped.
    pub spec: JobSpec,
}

/// A multi-session run's admitted requests, in drain (= engine receipt)
/// order. Produced by [`crate::HostReport::journal`]; replayed with
/// [`Journal::replay`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Journal {
    /// Entries in drain order.
    pub entries: Vec<JournalEntry>,
}

impl Journal {
    /// Render the journal as line-delimited flat JSON (one entry per
    /// line, trailing newline when non-empty).
    pub fn encode(&self) -> String {
        let mut out = String::new();
        for entry in &self.entries {
            out.push_str(&encode_entry(entry));
            out.push('\n');
        }
        out
    }

    /// Parse a journal back from its [`Journal::encode`] text form. Blank
    /// lines are ignored; anything else that does not parse is a
    /// [`ServiceError::JournalMalformed`] naming the line.
    pub fn parse(text: &str) -> Result<Self, ServiceError> {
        let mut entries = Vec::new();
        for (index, line) in text.lines().enumerate() {
            let trimmed = line.trim();
            if trimmed.is_empty() {
                continue;
            }
            entries.push(parse_entry(trimmed).map_err(|message| {
                ServiceError::JournalMalformed {
                    line: index + 1,
                    message,
                }
            })?);
        }
        Ok(Self { entries })
    }

    /// Load a journal from its on-disk line-delimited form (the file a
    /// [`JournalWriter`] streams).
    ///
    /// Recovery semantics: the writer terminates every entry with a
    /// newline before the next one starts, so a crash can tear at most the
    /// *final, unterminated* line — which is silently dropped here (the
    /// entry never fully reached disk, exactly as if the crash had come
    /// one request earlier). Any *complete* line that does not parse is
    /// real corruption and fails typed
    /// ([`ServiceError::JournalMalformed`]); an unreadable file fails as
    /// [`ServiceError::JournalIo`] naming the path.
    pub fn load(path: &Path) -> Result<Self, ServiceError> {
        let text = std::fs::read_to_string(path).map_err(|error| ServiceError::JournalIo {
            path: path.to_path_buf(),
            message: error.to_string(),
        })?;
        let complete = match text.rfind('\n') {
            Some(last_newline) => &text[..last_newline + 1],
            // No newline at all: nothing fully reached disk.
            None => "",
        };
        Self::parse(complete)
    }

    /// Replay the journal offline: its entries, in order, are a closed
    /// arrival source for a fresh engine run with the journaled sequences
    /// under the discrete clock, and every placement is collected. The
    /// replay's [`ReplayOutcome::schedule_digest`] must equal the live
    /// run's — that identity is what the multi-session test harness and
    /// the CI smoke job enforce.
    ///
    /// Always replays under [`ClockMode::Discrete`]: a real-time live
    /// run's journal carries the engine-stamped submit times (backfilled
    /// at shutdown), so the discrete replay re-derives the same event
    /// keys without waiting out wall-clock time again.
    pub fn replay(
        &self,
        service: &PlacementService,
        scheduler: &mut dyn Scheduler,
    ) -> Result<ReplayOutcome, ServiceError> {
        let mut routes: BTreeMap<JobId, (TenantId, JobSpec)> = BTreeMap::new();
        for entry in &self.entries {
            routes.insert(entry.spec.id, (entry.tenant.clone(), entry.spec.clone()));
        }
        let jobs: Vec<SequencedJob> = (self.entries.iter())
            .map(|entry| SequencedJob {
                spec: entry.spec.clone(),
                seq: entry.seq,
            })
            .collect();
        let mut notices = Vec::new();
        let report = service.simulator().run_online_sequenced(
            scheduler,
            &mut jobs.into_iter(),
            &mut |notice| notices.push(notice),
            ClockMode::Discrete,
        )?;
        let mut responses: BTreeMap<TenantId, Vec<PlacementResponse>> = BTreeMap::new();
        for notice in notices {
            if let Some((tenant, spec)) = routes.get(&notice.job) {
                responses
                    .entry(tenant.clone())
                    .or_default()
                    .push(service.enrich(notice, spec));
            }
        }
        Ok(ReplayOutcome { report, responses })
    }
}

/// What a journal replay produced.
#[derive(Debug)]
pub struct ReplayOutcome {
    /// The replayed engine report; its outcomes digest must match the
    /// live run's.
    pub report: OnlineReport,
    /// The re-derived placement responses, grouped per tenant (each
    /// tenant's vector in placement-commit order).
    pub responses: BTreeMap<TenantId, Vec<PlacementResponse>>,
}

impl ReplayOutcome {
    /// FNV-1a digest of the replayed schedule, comparable against
    /// [`crate::HostReport::schedule_digest`].
    pub fn schedule_digest(&self) -> u64 {
        waterwise_cluster::schedule_digest(&self.report.report.outcomes)
    }
}

/// How many appended entries may accumulate between `fsync`s of the
/// journal file. Every append reaches the OS immediately (unbuffered
/// `write_all`), so a host *crash* loses nothing; only a whole-machine
/// power loss can cost up to this many tail entries — and a torn tail is
/// recovered cleanly by [`Journal::load`].
const SYNC_EVERY: u64 = 32;

/// Streams admission-journal entries to disk as the host admits them, in
/// the line-delimited [`Journal::encode`] form. The file is truncated on
/// creation (a resumed host first rewrites its recovered prefix through
/// the writer, repairing any torn tail), then grows one line per admitted
/// request, so at every instant the file is a loadable journal of
/// everything admitted so far.
#[derive(Debug)]
pub struct JournalWriter {
    file: std::fs::File,
    path: PathBuf,
    appended: u64,
}

impl JournalWriter {
    /// Create (truncating) the journal file at `path`.
    pub fn create(path: &Path) -> Result<Self, ServiceError> {
        let file = std::fs::File::create(path).map_err(|error| journal_io(path, &error))?;
        Ok(Self {
            file,
            path: path.to_path_buf(),
            appended: 0,
        })
    }

    /// Append one entry as a newline-terminated line, `fsync`ing every
    /// `SYNC_EVERY` (32) appends.
    pub fn append(&mut self, entry: &JournalEntry) -> Result<(), ServiceError> {
        let mut line = encode_entry(entry);
        line.push('\n');
        self.file
            .write_all(line.as_bytes())
            .map_err(|error| journal_io(&self.path, &error))?;
        self.appended += 1;
        if self.appended.is_multiple_of(SYNC_EVERY) {
            self.sync()?;
        }
        Ok(())
    }

    /// Flush everything appended so far to stable storage.
    pub fn sync(&mut self) -> Result<(), ServiceError> {
        self.file
            .sync_data()
            .map_err(|error| journal_io(&self.path, &error))
    }

    /// The file this writer streams to.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

fn journal_io(path: &Path, error: &std::io::Error) -> ServiceError {
    ServiceError::JournalIo {
        path: path.to_path_buf(),
        message: error.to_string(),
    }
}

/// Render one entry as a flat JSON line.
pub(crate) fn encode_entry(entry: &JournalEntry) -> String {
    format!(
        "{{\"seq\":{},\"tenant\":{},{}}}",
        entry.seq,
        wire::json_string(entry.tenant.as_str()),
        wire::request_fields(&entry.spec)
    )
}

/// Parse one journal line.
fn parse_entry(line: &str) -> Result<JournalEntry, String> {
    let fields = wire::parse_flat_object(line)?;
    let seq = wire::number(&fields, "seq")?.ok_or("missing required field: seq")?;
    // Sequences are exact u64s below the arrival limit (2^48), so the
    // f64 round trip is lossless for every value the host can emit.
    if seq < 0.0 || seq.fract() != 0.0 || seq >= ONLINE_ARRIVAL_SEQ_LIMIT as f64 {
        return Err(format!(
            "seq must be a non-negative integer below 2^48, got {seq}"
        ));
    }
    let tenant = wire::string(&fields, "tenant")?.ok_or("missing required field: tenant")?;
    let tenant = wire::check_tenant(tenant)?;
    let request = wire::request_from_fields(&fields)?;
    Ok(JournalEntry {
        seq: seq as u64,
        tenant: TenantId::from(tenant),
        spec: request.spec,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use waterwise_sustain::{KilowattHours, Seconds};
    use waterwise_telemetry::Region;
    use waterwise_traces::Benchmark;

    fn entry(seq: u64, tenant: &str, id: u64) -> JournalEntry {
        JournalEntry {
            seq,
            tenant: TenantId::from(tenant),
            spec: JobSpec {
                id: JobId(id),
                benchmark: Benchmark::Canneal,
                submit_time: Seconds::new(12.5),
                home_region: Region::Oregon,
                actual_execution_time: Seconds::new(90.0),
                actual_energy: KilowattHours::new(0.02),
                estimated_execution_time: Seconds::new(80.0),
                estimated_energy: KilowattHours::new(0.018),
                package_bytes: 4096,
            },
        }
    }

    #[test]
    fn journals_round_trip_through_text() {
        let journal = Journal {
            entries: vec![entry(0, "acme", 1), entry(1 << 32, "umbrella", 2)],
        };
        let text = journal.encode();
        assert_eq!(text.lines().count(), 2);
        let parsed = Journal::parse(&text).unwrap();
        assert_eq!(parsed, journal);
        // Blank lines are tolerated.
        let padded = format!("\n{text}\n\n");
        assert_eq!(Journal::parse(&padded).unwrap(), journal);
    }

    #[test]
    fn malformed_journal_lines_name_the_line() {
        let good = encode_entry(&entry(3, "acme", 1));
        let bad = format!("{good}\n{{\"seq\":-1,\"tenant\":\"acme\",\"id\":2}}");
        match Journal::parse(&bad) {
            Err(ServiceError::JournalMalformed { line: 2, message }) => {
                assert!(message.contains("seq"), "{message}");
            }
            other => panic!("expected JournalMalformed on line 2, got {other:?}"),
        }
        let missing_tenant = "{\"seq\":1,\"id\":2,\"benchmark\":\"dedup\",\"home_region\":\"oregon\",\"execution_time\":1,\"energy\":0.1}";
        match Journal::parse(missing_tenant) {
            Err(ServiceError::JournalMalformed { line: 1, message }) => {
                assert!(message.contains("tenant"), "{message}");
            }
            other => panic!("expected JournalMalformed, got {other:?}"),
        }
        match Journal::parse("{\"seq\":281474976710656,\"tenant\":\"t\",\"id\":1}") {
            Err(ServiceError::JournalMalformed { line: 1, message }) => {
                assert!(message.contains("2^48"), "{message}");
            }
            other => panic!("expected band check, got {other:?}"),
        }
    }
}
