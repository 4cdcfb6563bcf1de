//! Append-only job journal with a written durability contract.
//!
//! The scheduler's queue lives in memory, so before this module a restart
//! silently dropped every queued and in-flight campaign — only the disk
//! result cache survived. The journal records each job's lifecycle as one
//! JSON line per event:
//!
//! ```text
//! {"event":"submitted","digest":"<16 hex>","tenant":"...","priority":1,"campaign":{...}}
//! {"event":"cell","digest":"<16 hex>","cell":3,"job":"<16 hex>","report":{...lossless SimReport...}}
//! {"event":"done","digest":"<16 hex>","ok":true}
//! ```
//!
//! `submitted` carries the full campaign body so an unfinished job can be
//! re-run from the journal alone; `cell` carries the completed cell's
//! flat index, its job key (`CellJob::key`, the digest of everything that
//! determines the simulation) and its full report (the lossless wire codec
//! from `pythia-stats`), so a restart re-executes **only the cells that
//! had not finished** — journaled reports are bit-identical to fresh
//! simulations. A report is attached only to the job with its key, so a
//! version that plans the campaign differently re-runs what it cannot
//! match instead of trusting the index. On
//! [`Journal::open`] the file is replayed: jobs with a `done` record are
//! dropped, everything else is exposed via [`Journal::take_pending`] for
//! the scheduler to requeue (order preserved) with its completed cells
//! attached.
//!
//! # Durability contract
//!
//! Two failures, two guarantees:
//!
//! * **Process crash** (panic, SIGKILL, SIGTERM): nothing appended is
//!   lost. Every record is one unbuffered `write_all` on the `File` — no
//!   user-space buffer, queue or flusher thread — so it is in the page
//!   cache, which outlives the process, when the call returns.
//! * **Power loss**: only what a `sync_data` covered survives.
//!   - `submitted` is synced ([`Journal::sync`]) before the submission
//!     is acknowledged: an acknowledged campaign is never lost.
//!   - `done` is synced as it is written: a finished campaign is never
//!     replayed.
//!   - `cell` records ride the next sync, and force one themselves once
//!     the cells written since the last sync add up to
//!     `SYNC_WORK_BUDGET` (100 ms) of simulation wall time. Losing a
//!     `cell` record costs re-executing that cell on restart, so power
//!     loss costs at most the budget in finished simulation per journal,
//!     plus the cells in flight. A campaign of long cells syncs every
//!     cell; a campaign of sub-millisecond cells syncs twice. The
//!     behaviour depends only on how long the cells ran; there is no
//!     setting.
//!
//! Replay needs nothing more for this: a record that is missing, torn
//! anywhere (inside a multi-byte character included) or overwritten with
//! NUL bytes — what an unsynced tail can look like after power loss — is
//! skipped with a warning, never an error, and its cell re-executes.
//!
//! Once the scheduler has decided what actually needs requeueing (a
//! replayed job may already have its artifact on disk), it calls
//! [`Journal::compact`] to rewrite the file with just the survivors and
//! their surviving cell records, so the journal does not grow without
//! bound across restarts.
//!
//! Appends are fail-soft: a full disk degrades durability, not service.
//!
//! Journals written by older versions replay fine: missing `tenant` and
//! `priority` fields default to the anonymous tenant at baseline
//! priority, the retired `started` record is accepted and ignored, and a
//! `cell` record without a `job` key is dropped, so its cell re-runs. A
//! campaign whose canonical form has changed since (so its body digests
//! to a new value) keeps its `cell` and `done` records: they follow the
//! digest of the `submitted` body, and a finished campaign stays
//! finished.

use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use pythia_sim::stats::SimReport;
use pythia_stats::json::{sim_report_from_wire, sim_report_wire_json, Json};
use pythia_sweep::codec::Campaign;

use crate::obs::ServeObs;

/// Tenant key recorded when a submission names none.
pub const DEFAULT_TENANT: &str = "default";

/// Summed wall time of the cells whose records are appended but not yet
/// synced at which a `cell` record forces a sync: what power loss may
/// cost in finished simulation.
const SYNC_WORK_BUDGET: Duration = Duration::from_millis(100);

/// A job recovered from the journal that has no `done` record.
#[derive(Debug, Clone)]
pub struct PendingJob {
    /// The campaign digest (recomputed from the replayed body).
    pub digest: String,
    /// The campaign itself, ready to requeue.
    pub campaign: Campaign,
    /// Submitter key for fair queueing.
    pub tenant: String,
    /// Scheduling weight recorded at submission.
    pub priority: u64,
    /// Completed cells recovered from `cell` records: `(flat job index,
    /// job key, report)`, in completion order, deduplicated by key.
    pub cells: Vec<(usize, u64, SimReport)>,
}

/// The append handle and what of the file is known durable.
struct Tail {
    file: File,
    /// Byte offset covered by the last successful sync.
    synced_len: u64,
    /// Summed wall time of the cells whose records are not yet synced.
    unsynced_work: Duration,
    /// When the oldest `submitted` record still waiting for its
    /// [`Journal::sync`] was written.
    ack_pending: Option<Instant>,
}

/// An append-only journal of job lifecycle events.
pub struct Journal {
    path: PathBuf,
    tail: Mutex<Tail>,
    pending: Vec<PendingJob>,
    /// Shared observability bundle: sync-latency histogram + logger.
    obs: Arc<ServeObs>,
}

impl std::fmt::Debug for Journal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Journal")
            .field("path", &self.path)
            .field("pending", &self.pending.len())
            .finish_non_exhaustive()
    }
}

impl Journal {
    /// Opens (creating if needed) the journal at `path` with a private
    /// default observability bundle (warn-level stderr logging). The
    /// server passes its shared bundle via [`Journal::open_with_obs`]
    /// instead, so sync timings land in the service registry.
    ///
    /// # Errors
    ///
    /// Returns a message if the file or its parent directory cannot be
    /// created or read. Corrupt lines are skipped with a warning, not an
    /// error: a torn trailing line is the normal crash artifact.
    pub fn open(path: impl Into<PathBuf>) -> Result<Self, String> {
        Self::open_with_obs(path, Arc::new(ServeObs::default()))
    }

    /// Opens the journal with a shared observability bundle (see
    /// [`Journal::open`] for semantics and errors).
    ///
    /// # Errors
    ///
    /// Returns a message if the file or its parent directory cannot be
    /// created or read.
    pub fn open_with_obs(path: impl Into<PathBuf>, obs: Arc<ServeObs>) -> Result<Self, String> {
        let path = path.into();
        let io_err = |e: std::io::Error| format!("{}: {e}", path.display());
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)
                    .map_err(|e| format!("{}: {e}", parent.display()))?;
            }
        }
        // Bytes, not a `String`: a record torn inside a multi-byte
        // character must cost that record, not the service's start.
        let existing = match std::fs::read(&path) {
            Ok(bytes) => Some(bytes),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => None,
            Err(e) => return Err(io_err(e)),
        };
        let file = OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)
            .map_err(io_err)?;
        let (pending, torn) = match &existing {
            Some(bytes) => (
                replay(bytes, &path, &obs),
                bytes.last().is_some_and(|&b| b != b'\n'),
            ),
            None => {
                // A sync covers the new file's bytes, not its name.
                sync_parent_dir(&path);
                (Vec::new(), false)
            }
        };
        let journal = Self {
            path,
            tail: Mutex::new(Tail {
                file,
                synced_len: 0,
                unsynced_work: Duration::ZERO,
                ack_pending: None,
            }),
            pending,
            obs,
        };
        if torn {
            // End the torn line, or the next record would be glued onto
            // it and lost with it.
            journal.write(&mut journal.lock(), "\n");
        }
        Ok(journal)
    }

    /// The journal file path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Takes the jobs replayed at open time (empties the list).
    pub fn take_pending(&mut self) -> Vec<PendingJob> {
        std::mem::take(&mut self.pending)
    }

    /// The byte offset covered by the last successful sync through this
    /// handle (0 before the first): what of the file power loss cannot
    /// take. For the power-loss tests.
    pub fn synced_len(&self) -> u64 {
        self.lock().synced_len
    }

    /// Rewrites the journal to contain exactly one `submitted` record per
    /// surviving job — followed by its surviving `cell` records — and
    /// drops all completed history. Atomic and durable (synced temp file,
    /// rename, synced directory); the append handle is swapped to the
    /// new file.
    ///
    /// # Errors
    ///
    /// Returns a message on io failures (the old journal is left intact).
    pub fn compact(&self, survivors: &[PendingJob]) -> Result<(), String> {
        let mut text = String::new();
        for job in survivors {
            text.push_str(&submitted_line(
                &job.digest,
                &job.campaign,
                &job.tenant,
                job.priority,
            ));
            for (index, key, report) in &job.cells {
                text.push_str(&cell_line(&job.digest, *index, *key, report));
            }
        }
        let tmp = self.path.with_extension("tmp");
        // Synced before the rename: power loss must find the old journal
        // or the whole new one under the name, never a partial file.
        let started = Instant::now();
        File::create(&tmp)
            .and_then(|mut f| {
                f.write_all(text.as_bytes())?;
                f.sync_data()
            })
            .map_err(|e| format!("{}: {e}", tmp.display()))?;
        self.obs
            .journal_fsync_us
            .record(started.elapsed().as_micros() as u64);
        std::fs::rename(&tmp, &self.path).map_err(|e| {
            let _ = std::fs::remove_file(&tmp);
            format!("{}: {e}", self.path.display())
        })?;
        // Later records go to the new file: were the rename lost, they
        // would be lost with it, acknowledged or not.
        sync_parent_dir(&self.path);
        let file = OpenOptions::new()
            .append(true)
            .open(&self.path)
            .map_err(|e| format!("{}: {e}", self.path.display()))?;
        *self.lock() = Tail {
            file,
            synced_len: text.len() as u64,
            unsynced_work: Duration::ZERO,
            ack_pending: None,
        };
        Ok(())
    }

    /// Appends a fresh submission (with the campaign body and its
    /// scheduling identity) **without syncing it**: call
    /// [`Journal::sync`] before acknowledging the submission. The two
    /// are apart so that a caller can order the write under a lock of its
    /// own and wait for the disk outside it.
    pub fn record_submitted(&self, digest: &str, campaign: &Campaign, tenant: &str, priority: u64) {
        let line = submitted_line(digest, campaign, tenant, priority);
        let started = Instant::now();
        let mut tail = self.lock();
        if self.write(&mut tail, &line) {
            tail.ack_pending.get_or_insert(started);
        }
    }

    /// Makes every `submitted` record appended so far durable. Returns
    /// at once when a later record's sync already covered them.
    pub fn sync(&self) {
        let mut tail = self.lock();
        if let Some(started) = tail.ack_pending.take() {
            self.sync_tail(&mut tail, started);
        }
    }

    /// Records one completed cell — its flat `index`, job `key` and full
    /// report — so a restart can resume the campaign without re-executing
    /// it. `wall` is how long the cell ran: the record syncs once that
    /// much unsynced work adds up to the budget of the module's
    /// durability contract.
    pub fn record_cell(
        &self,
        digest: &str,
        index: usize,
        key: u64,
        report: &SimReport,
        wall: Duration,
    ) {
        let line = cell_line(digest, index, key, report);
        let started = Instant::now();
        let mut tail = self.lock();
        if self.write(&mut tail, &line) {
            tail.unsynced_work += wall;
            if tail.unsynced_work >= SYNC_WORK_BUDGET {
                self.sync_tail(&mut tail, started);
            }
        }
    }

    /// Records completion (success or failure — either way the job must
    /// not be replayed) and syncs.
    pub fn record_done(&self, digest: &str, ok: bool) {
        let line = Json::obj()
            .set("event", "done")
            .set("digest", digest)
            .set("ok", Json::Bool(ok));
        let line = format!("{}\n", line.render());
        let started = Instant::now();
        let mut tail = self.lock();
        if self.write(&mut tail, &line) {
            self.sync_tail(&mut tail, started);
        }
    }

    fn lock(&self) -> MutexGuard<'_, Tail> {
        self.tail.lock().expect("journal lock poisoned")
    }

    /// One record, one unbuffered `write_all`: the crash half of the
    /// contract. Returns whether it was written.
    fn write(&self, tail: &mut Tail, line: &str) -> bool {
        let outcome = tail.file.write_all(line.as_bytes());
        self.fail_soft("append", outcome)
    }

    /// One `sync_data` covering everything written so far, timed from
    /// `started` — the write that asked for it.
    fn sync_tail(&self, tail: &mut Tail, started: Instant) {
        let outcome = tail
            .file
            .sync_data()
            .and_then(|()| tail.file.metadata())
            .map(|meta| {
                tail.synced_len = meta.len();
                tail.unsynced_work = Duration::ZERO;
                tail.ack_pending = None;
            });
        self.obs
            .journal_fsync_us
            .record(started.elapsed().as_micros() as u64);
        self.fail_soft("sync", outcome);
    }

    /// Fail-soft: losing durability beats refusing service.
    fn fail_soft(&self, what: &str, outcome: std::io::Result<()>) -> bool {
        if let Err(e) = &outcome {
            self.obs.logger().error(
                "journal",
                &format!("{what} failed"),
                &[
                    ("path", self.path.display().to_string()),
                    ("error", e.to_string()),
                ],
            );
        }
        outcome.is_ok()
    }
}

/// Makes a create or rename of `path` durable by syncing its directory.
/// Best effort: not every platform can open a directory.
fn sync_parent_dir(path: &Path) {
    let dir = match path.parent() {
        Some(parent) if !parent.as_os_str().is_empty() => parent,
        _ => Path::new("."),
    };
    let _ = File::open(dir).and_then(|d| d.sync_all());
}

fn submitted_line(digest: &str, campaign: &Campaign, tenant: &str, priority: u64) -> String {
    let line = Json::obj()
        .set("event", "submitted")
        .set("digest", digest)
        .set("tenant", tenant)
        .set("priority", priority)
        .set("campaign", campaign.to_json());
    format!("{}\n", line.render())
}

fn cell_line(digest: &str, index: usize, key: u64, report: &SimReport) -> String {
    let line = Json::obj()
        .set("event", "cell")
        .set("digest", digest)
        .set("cell", index as u64)
        .set("job", format!("{key:016x}"))
        .set("report", sim_report_wire_json(report));
    format!("{}\n", line.render())
}

/// Replays the journal's bytes into the pending-job list.
fn replay(bytes: &[u8], path: &Path, obs: &ServeObs) -> Vec<PendingJob> {
    // Digest → position in `order`; preserves first-submission order.
    let mut order: Vec<PendingJob> = Vec::new();
    // A recorded digest that differs from its body's: the canonical form
    // changed since the record was written, and the job's `cell` and
    // `done` records name it by the recorded one.
    let mut redigested: Vec<(String, String)> = Vec::new();
    for (lineno, line) in bytes.split(|&b| b == b'\n').enumerate() {
        let skip = |what: &str| {
            obs.logger().warn(
                "journal",
                "skipping record",
                &[
                    ("path", path.display().to_string()),
                    ("what", what.to_string()),
                    ("line", (lineno + 1).to_string()),
                ],
            );
        };
        let Ok(line) = std::str::from_utf8(line) else {
            // Torn inside a multi-byte character.
            skip("line is not UTF-8");
            continue;
        };
        if line.trim().is_empty() {
            continue;
        }
        let Ok(json) = pythia_stats::json::parse(line) else {
            // A torn line (crash mid-append) or stray corruption: skip.
            skip("unparseable line");
            continue;
        };
        let (Some(event), Some(recorded)) = (
            json.get("event").and_then(Json::as_str),
            json.get("digest").and_then(Json::as_str),
        ) else {
            skip("record without event/digest");
            continue;
        };
        let digest = (redigested.iter())
            .find(|(old, _)| old == recorded)
            .map_or(recorded, |(_, new)| new.as_str());
        match event {
            "submitted" => {
                let campaign = json
                    .get("campaign")
                    .and_then(|c| Campaign::from_json(c).ok());
                let Some(campaign) = campaign else {
                    skip("submitted record without a valid campaign");
                    continue;
                };
                // Trust the body, not the recorded digest: recomputing
                // guards against a corrupted digest field.
                let digest = campaign.digest();
                if digest != recorded {
                    redigested.push((recorded.to_string(), digest.clone()));
                }
                if !order.iter().any(|p| p.digest == digest) {
                    order.push(PendingJob {
                        digest,
                        campaign,
                        tenant: json
                            .get("tenant")
                            .and_then(Json::as_str)
                            .unwrap_or(DEFAULT_TENANT)
                            .to_string(),
                        priority: json
                            .get("priority")
                            .and_then(Json::as_u64)
                            .unwrap_or(1)
                            .max(1),
                        cells: Vec::new(),
                    });
                }
            }
            // Written by older versions; nothing ever read it.
            "started" => {}
            "cell" => {
                let index = json.get("cell").and_then(Json::as_u64);
                let report = json
                    .get("report")
                    .and_then(|r| sim_report_from_wire(r).ok());
                let (Some(index), Some(report)) = (index, report) else {
                    skip("cell record without a valid index/report");
                    continue;
                };
                // Older versions wrote no key: nothing says which job the
                // report belongs to, so the cell re-runs.
                let key = json.get("job").and_then(Json::as_str);
                let Some(key) = key.and_then(|k| u64::from_str_radix(k, 16).ok()) else {
                    continue;
                };
                if let Some(job) = order.iter_mut().find(|p| p.digest == digest) {
                    if !job.cells.iter().any(|(_, k, _)| *k == key) {
                        job.cells.push((index as usize, key, report));
                    }
                }
            }
            "done" => {
                order.retain(|p| p.digest != digest);
            }
            other => {
                skip(&format!("unknown event {other:?}"));
            }
        }
    }
    order
}

#[cfg(test)]
mod tests {
    use super::*;
    use pythia_sweep::spec::{ConfigPoint, SweepSpec};
    use pythia_workloads::all_suites;

    fn tmp_path(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!(
            "pythia-journal-{tag}-{}-{:?}.jsonl",
            std::process::id(),
            std::thread::current().id()
        ))
    }

    fn tiny_campaign(tag: &str) -> Campaign {
        let w = all_suites()
            .into_iter()
            .find(|w| w.name == "429.mcf-184B")
            .expect("known workload");
        Campaign::single(
            SweepSpec::new(tag)
                .with_workloads([w])
                .with_prefetchers(&["stride"])
                .with_config(ConfigPoint::single_core("base", 1_000, 4_000)),
        )
    }

    /// A cell wall time far under the sync budget.
    const QUICK: Duration = Duration::from_micros(400);

    fn tiny_report(seed: u64) -> SimReport {
        SimReport {
            cores: vec![pythia_sim::stats::CoreStats {
                instructions: seed,
                cycles: seed * 2,
                ..Default::default()
            }],
            l1d: vec![],
            l2: vec![],
            llc: Default::default(),
            dram: Default::default(),
            prefetchers: vec![],
        }
    }

    #[test]
    fn replay_roundtrip_preserves_unfinished_jobs_in_order() {
        let path = tmp_path("roundtrip");
        let _ = std::fs::remove_file(&path);
        let (a, b, c) = (
            tiny_campaign("job-a"),
            tiny_campaign("job-b"),
            tiny_campaign("job-c"),
        );
        {
            let journal = Journal::open(&path).expect("open");
            journal.record_submitted(&a.digest(), &a, "alice", 3);
            journal.record_submitted(&b.digest(), &b, DEFAULT_TENANT, 1);
            journal.record_submitted(&c.digest(), &c, DEFAULT_TENANT, 1);
            journal.record_done(&b.digest(), true);
        }
        let mut journal = Journal::open(&path).expect("reopen");
        let pending = journal.take_pending();
        assert_eq!(pending.len(), 2, "b is done, a and c survive");
        assert_eq!(pending[0].digest, a.digest());
        assert_eq!(pending[0].tenant, "alice");
        assert_eq!(pending[0].priority, 3);
        assert_eq!(pending[1].digest, c.digest());
        // The replayed campaign is byte-identical to the original.
        assert_eq!(pending[0].campaign.canonical(), a.canonical());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn cell_records_replay_with_their_reports() {
        let path = tmp_path("cells");
        let _ = std::fs::remove_file(&path);
        let a = tiny_campaign("cell-a");
        let (r0, r2) = (tiny_report(10), tiny_report(30));
        {
            let journal = Journal::open(&path).expect("open");
            journal.record_submitted(&a.digest(), &a, DEFAULT_TENANT, 1);
            journal.record_cell(&a.digest(), 0, 0xa0, &r0, QUICK);
            journal.record_cell(&a.digest(), 2, 0xa2, &r2, QUICK);
            // A duplicate key (crash between journal write and in-memory
            // bookkeeping, then re-execution) keeps the first record.
            journal.record_cell(&a.digest(), 0, 0xa0, &tiny_report(99), QUICK);
        }
        let mut journal = Journal::open(&path).expect("reopen");
        let pending = journal.take_pending();
        assert_eq!(pending.len(), 1);
        assert_eq!(
            pending[0].cells.len(),
            2,
            "two distinct cells, duplicate dropped"
        );
        assert_eq!(pending[0].cells[0], (0, 0xa0, r0));
        assert_eq!(pending[0].cells[1], (2, 0xa2, r2));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn pre_cell_journals_replay_with_defaults() {
        // A journal written before tenant/priority/job keys existed must
        // still replay (fields default), the `started` record of that era
        // is a silent no-op, and a `cell` record without a job key is
        // dropped: nothing says which job its report belongs to.
        let path = tmp_path("legacy");
        let _ = std::fs::remove_file(&path);
        let a = tiny_campaign("legacy-a");
        let line = Json::obj()
            .set("event", "submitted")
            .set("digest", a.digest().as_str())
            .set("campaign", a.to_json());
        let started = Json::obj()
            .set("event", "started")
            .set("digest", a.digest().as_str());
        let keyless = Json::obj()
            .set("event", "cell")
            .set("digest", a.digest().as_str())
            .set("cell", 0u64)
            .set("report", sim_report_wire_json(&tiny_report(1)));
        let lines = [line, started, keyless].map(|record| record.render() + "\n");
        std::fs::write(&path, lines.concat()).expect("write");
        let mut journal = Journal::open(&path).expect("open");
        let pending = journal.take_pending();
        assert_eq!(pending.len(), 1);
        assert_eq!(pending[0].tenant, DEFAULT_TENANT);
        assert_eq!(pending[0].priority, 1);
        assert!(pending[0].cells.is_empty());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn records_under_an_older_digest_follow_their_body() {
        // Written when the canonical form (so each digest) was another:
        // `a` finished, `b` has one cell done.
        let path = tmp_path("redigested");
        let _ = std::fs::remove_file(&path);
        let (a, b) = (tiny_campaign("old-a"), tiny_campaign("old-b"));
        let record =
            |event: &str, digest: &str| Json::obj().set("event", event).set("digest", digest);
        let lines = [
            record("submitted", "00000000000000aa").set("campaign", a.to_json()),
            record("submitted", "00000000000000bb").set("campaign", b.to_json()),
            record("cell", "00000000000000bb")
                .set("cell", 1u64)
                .set("job", "b1")
                .set("report", sim_report_wire_json(&tiny_report(7))),
            record("done", "00000000000000aa").set("ok", true),
        ];
        std::fs::write(&path, lines.map(|r| r.render() + "\n").concat()).expect("write");
        let pending = Journal::open(&path).expect("open").take_pending();
        assert_eq!(pending.len(), 1, "the finished campaign stays finished");
        assert_eq!(pending[0].digest, b.digest());
        assert_eq!(pending[0].cells, [(1, 0xb1, tiny_report(7))]);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn torn_trailing_line_is_skipped_not_fatal() {
        let path = tmp_path("torn");
        let _ = std::fs::remove_file(&path);
        let a = tiny_campaign("torn-a");
        {
            let journal = Journal::open(&path).expect("open");
            journal.record_submitted(&a.digest(), &a, DEFAULT_TENANT, 1);
        }
        // Simulate a crash mid-append of a second record, inside the
        // two-byte `å` of its tenant: the file is no longer UTF-8.
        {
            let mut f = OpenOptions::new().append(true).open(&path).expect("append");
            f.write_all(b"{\"event\":\"submitted\",\"tenant\":\"\xc3")
                .expect("tear");
        }
        let b = tiny_campaign("torn-b");
        {
            let mut journal = Journal::open(&path).expect("reopen tolerates tear");
            let pending = journal.take_pending();
            assert_eq!(pending.len(), 1);
            assert_eq!(pending[0].digest, a.digest());
            // The next record starts a line of its own, not the torn one's.
            journal.record_submitted(&b.digest(), &b, DEFAULT_TENANT, 1);
        }
        let mut journal = Journal::open(&path).expect("reopen");
        let digests: Vec<String> = journal
            .take_pending()
            .into_iter()
            .map(|p| p.digest)
            .collect();
        assert_eq!(digests, [a.digest(), b.digest()]);
        let _ = std::fs::remove_file(&path);
    }

    /// The journal at `path` with its sync histogram at hand.
    fn open_counting(path: &Path) -> (Journal, Arc<ServeObs>) {
        let obs = Arc::new(ServeObs::default());
        let journal = Journal::open_with_obs(path, Arc::clone(&obs)).expect("open");
        (journal, obs)
    }

    fn file_len(path: &Path) -> u64 {
        std::fs::metadata(path).expect("journal exists").len()
    }

    #[test]
    fn quick_cells_ride_the_done_sync() {
        let path = tmp_path("group-commit");
        let _ = std::fs::remove_file(&path);
        let a = tiny_campaign("group-a");
        let (journal, obs) = open_counting(&path);
        journal.record_submitted(&a.digest(), &a, DEFAULT_TENANT, 1);
        assert_eq!(journal.synced_len(), 0, "written, not yet synced");
        journal.sync();
        let acknowledged = file_len(&path);
        assert_eq!(journal.synced_len(), acknowledged);
        journal.sync();
        assert_eq!(obs.journal_fsync_us.count(), 1, "nothing new to sync");
        for cell in 0..24 {
            journal.record_cell(&a.digest(), cell, 0, &tiny_report(cell as u64), QUICK);
        }
        // 24 x 400 us is a tenth of the budget: appended, none synced.
        assert_eq!(journal.synced_len(), acknowledged);
        assert!(file_len(&path) > acknowledged);
        journal.record_done(&a.digest(), true);
        assert_eq!(journal.synced_len(), file_len(&path));
        assert_eq!(obs.journal_fsync_us.count(), 2, "submitted and done");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn cells_sync_when_their_wall_time_reaches_the_budget() {
        let path = tmp_path("budget");
        let _ = std::fs::remove_file(&path);
        let a = tiny_campaign("budget-a");
        let (journal, obs) = open_counting(&path);
        journal.record_submitted(&a.digest(), &a, DEFAULT_TENANT, 1);
        journal.sync();
        // Cells as long as the budget sync one by one, as every record
        // did before there was a budget.
        for cell in 0..3 {
            journal.record_cell(&a.digest(), cell, 0, &tiny_report(1), SYNC_WORK_BUDGET);
            assert_eq!(journal.synced_len(), file_len(&path));
            assert_eq!(obs.journal_fsync_us.count(), 2 + cell as u64);
        }
        // Shorter ones add up: 40 + 40 + 40 ms crosses it at the third,
        // and the sum starts over.
        let part = SYNC_WORK_BUDGET * 2 / 5;
        for (cell, synced) in [(3, false), (4, false), (5, true), (6, false)] {
            journal.record_cell(&a.digest(), cell, 0, &tiny_report(1), part);
            assert_eq!(journal.synced_len() == file_len(&path), synced, "{cell}");
        }
        assert_eq!(obs.journal_fsync_us.count(), 5);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn compaction_rewrites_to_survivors_only() {
        let path = tmp_path("compact");
        let _ = std::fs::remove_file(&path);
        let (a, b) = (tiny_campaign("comp-a"), tiny_campaign("comp-b"));
        {
            let journal = Journal::open(&path).expect("open");
            journal.record_submitted(&a.digest(), &a, DEFAULT_TENANT, 1);
            journal.record_submitted(&b.digest(), &b, "bob", 2);
            journal.record_cell(&b.digest(), 1, 0xb1, &tiny_report(7), QUICK);
            journal.record_done(&a.digest(), true);
        }
        {
            let mut journal = Journal::open(&path).expect("reopen");
            let pending = journal.take_pending();
            assert_eq!(pending.len(), 1);
            journal.compact(&pending).expect("compact");
            // The rewritten file was synced before it took the name.
            assert_eq!(journal.synced_len(), file_len(&path));
            assert_eq!(journal.obs.journal_fsync_us.count(), 1);
            assert!(!path.with_extension("tmp").exists());
            // Appends after compaction land in the new file.
            journal.record_done(&b.digest(), true);
        }
        let mut journal = Journal::open(&path).expect("final open");
        assert!(
            journal.take_pending().is_empty(),
            "b was compacted in, then done"
        );
        let text = std::fs::read_to_string(&path).expect("read");
        assert_eq!(
            text.lines().count(),
            3,
            "one submitted + one cell + one done record"
        );
        // The compacted records kept tenant, priority and the job key.
        assert!(text.contains("\"bob\""), "{text}");
        assert!(text.contains("\"job\":\"00000000000000b1\""), "{text}");
        let _ = std::fs::remove_file(&path);
    }
}
