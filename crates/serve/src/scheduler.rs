//! Cell-granular job scheduling: a per-tenant fair ready queue, a worker
//! pool that pulls individual grid cells, in-flight dedup, a
//! content-addressed cache, and a crash-safe journal in front of the
//! simulations.
//!
//! Every submission is keyed by its campaign digest
//! ([`Campaign::digest`]). The scheduler holds live work and the outcomes
//! of the last [`FINISHED_JOBS_KEPT`] jobs; a finished result lives in the
//! [`ResultStore`] and nowhere else. A digest costs at most one simulation
//! while its artifact is stored:
//!
//! * a digest whose artifact the store holds is **done**, not run — known
//!   to this process or not (a restart, an entry aged out of the table),
//! * a digest currently **queued/running** is *coalesced* — the new
//!   submission attaches to the in-flight job instead of enqueuing a copy,
//! * only a digest neither live nor stored occupies a queue slot (one the
//!   store has evicted runs again, to the same bytes), and a full queue
//!   rejects the submission ([`SubmitError::Busy`] → HTTP 429).
//!
//! # Cell-level scheduling
//!
//! A campaign is expanded up front into a [`CampaignPlan`] — an ordered
//! set of independent simulation cells — and **cells**, not campaigns,
//! are what workers pull. One big figure no longer monopolizes a worker
//! while the pool idles: campaigns from many tenants interleave cell by
//! cell. Tenants (submitter keys) are served by weighted round-robin:
//! each visit to a tenant grants a quantum of `priority` cells from its
//! front campaign, then the cursor moves on, so a tenant's backlog never
//! starves the others. Because simulations are bit-deterministic and
//! [`CampaignPlan::merge_cells`] reassembles reports in grid order, the
//! served artifact is byte-identical to a direct [`pythia_sweep::engine`]
//! run no matter how execution interleaves.
//!
//! # One lifecycle
//!
//! A job is admitted once (`State::admit`, with its journaled cells
//! pre-filled when it comes from replay), its cells are claimed
//! (`State::claim`) and completed (`State::complete`) one at a time,
//! and it ends once, in `finish`: merge → persist → `done`/`failed`
//! (`State::settle`). Until that last step it keeps its work, so a
//! `?partial=1` reader is served through the merge. A merge can fail — a
//! baseline that saw no LLC load miss leaves the Appendix A.6 metrics
//! undefined — and so can the store (an artifact over its whole budget);
//! then the job reads [`JobStatus::Failed`] with the message, is
//! journaled `done ok:false` so it is never replayed, and stores nothing.
//!
//! When a [`Journal`] is attached, every fresh enqueue is recorded and
//! synced before the submission returns and every finished cell is
//! recorded with its full report (when each record becomes durable is the
//! journal's contract, see [`crate::journal`]). On startup unfinished
//! journal entries are replayed:
//! digests whose artifact already landed in the store are marked done,
//! everything else is requeued **minus its journaled cells** — only the
//! cells that had not finished re-execute — and the journal is compacted
//! down to the survivors.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;

use pythia_obs::logger::Level;
use pythia_sim::stats::SimReport;
use pythia_sweep::codec::Campaign;
use pythia_sweep::{plan_campaign, CampaignPlan, ResultStore, SweepResult};

use crate::journal::{Journal, PendingJob, DEFAULT_TENANT};
use crate::obs::ServeObs;
use crate::renders::RenderCache;
use crate::submissions::RecentSubmissions;

/// Upper bound on the accepted `priority` weight (quantum size): enough
/// spread to express "urgent", small enough that one tenant cannot
/// configure itself into a de-facto monopoly.
pub const MAX_PRIORITY: u64 = 100;

/// How many finished jobs (done or failed) the table remembers, oldest
/// out first. An entry is a name, a tenant and a status — a few hundred
/// bytes, 0.3 MB at the cap — and buys a status response that knows the
/// campaign's name and cell count, and a failed campaign that is not run
/// again; results are bounded in bytes, by the store. 1024 outlasts any
/// client still polling a job it submitted.
pub const FINISHED_JOBS_KEPT: usize = 1024;

/// How many idle tenants — nothing ready, no cell in flight — the table
/// keeps, so `/metrics` still reports who was served lately. A tenant key
/// is the client's choice, so beyond this the least recently served idle
/// tenant is forgotten when a new one arrives; it starts again from zero
/// served cells if it comes back. Claims and `/metrics` walk the table,
/// which therefore holds the live tenants plus at most this many.
pub const IDLE_TENANTS_KEPT: usize = 64;

/// Lifecycle of one campaign job.
#[derive(Debug, Clone)]
pub enum JobStatus {
    /// Waiting in the queue.
    Queued,
    /// At least one of its cells has been claimed by a worker.
    Running,
    /// Finished; the stripped result is in the [`ResultStore`], until the
    /// store evicts it.
    Done,
    /// Every cell ran but the merge was refused: the message names the
    /// unit and config whose baseline saw no LLC load miss (a budget too
    /// small for the workload to reach memory).
    Failed(String),
}

impl JobStatus {
    /// The wire label (`"queued"`, `"running"`, `"done"`, `"failed"`).
    pub fn label(&self) -> &'static str {
        match self {
            JobStatus::Queued => "queued",
            JobStatus::Running => "running",
            JobStatus::Done => "done",
            JobStatus::Failed(_) => "failed",
        }
    }
}

/// What a submission observed.
#[derive(Debug, Clone)]
pub struct Submission {
    /// The campaign digest (the job id).
    pub digest: String,
    /// Status right after this submission.
    pub status: JobStatus,
    /// Whether the result came from cache (memory or disk) rather than a
    /// fresh simulation scheduled by *some* submission of this digest.
    pub cached: bool,
    /// Whether this submission coalesced onto an in-flight job.
    pub coalesced: bool,
    /// Completed cells at that moment.
    pub cells_done: usize,
    /// Planned cells.
    pub cells_total: usize,
}

/// What one look at a job saw, all of it in one critical section.
#[derive(Debug, Clone)]
pub struct JobView {
    /// Campaign name.
    pub name: String,
    /// Where the job stands.
    pub status: JobStatus,
    /// Completed cells.
    pub cells_done: usize,
    /// Planned cells.
    pub cells_total: usize,
    /// Campaigns holding a ready-queue slot.
    pub queue_depth: usize,
}

/// Why a submission was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SubmitError {
    /// The job queue is full — retry later (HTTP 429).
    Busy {
        /// Configured queue capacity at rejection time.
        queue_cap: usize,
    },
    /// The campaign failed validation (HTTP 400).
    Invalid(String),
}

/// A snapshot of a live job's merged-so-far result.
#[derive(Debug)]
pub struct Partial {
    /// The rows computable right now — the longest prefix of the final
    /// row order whose reports exist.
    pub result: SweepResult,
    /// Completed cells.
    pub done: usize,
    /// Total cells in the plan.
    pub total: usize,
}

/// The execution state of a not-yet-finished job. Dropped when the job
/// settles, so finished jobs don't pin plans or report sets in memory.
struct Work {
    plan: Arc<CampaignPlan>,
    /// When the job entered the ready queue — each cell's queue wait
    /// (enqueue → worker claim) is measured against it.
    enqueued_at: std::time::Instant,
    /// One slot per planned cell; filled as cells complete (in any
    /// order — workers race, replay pre-fills).
    slots: Vec<Option<SimReport>>,
    /// Claim cursor: every slot before it is claimed or filled. Monotonic.
    cursor: usize,
    /// Completed cells (executed here or replayed).
    done: usize,
    /// Cells currently being simulated by a worker. Claimed-or-filled is
    /// `done + in_flight`.
    in_flight: usize,
}

/// Who a job belongs to, bound at its first submission.
struct Owner {
    /// Campaign name, kept for status responses after completion.
    name: String,
    /// Submitter key, for fair queueing and the per-tenant counters.
    tenant: String,
    /// Weighted-round-robin quantum.
    priority: u64,
}

struct Job {
    owner: Owner,
    /// Planned cells (fixed at submission).
    cells_total: usize,
    status: JobStatus,
    /// `None` once the job is done or failed.
    work: Option<Work>,
}

impl Job {
    /// Completed cells: the work's count while it exists, all of them after.
    fn cells_done(&self) -> usize {
        self.work.as_ref().map_or(self.cells_total, |w| w.done)
    }
}

/// One tenant's ready queue (campaign digests with unclaimed cells).
struct TenantQueue {
    key: String,
    ready: VecDeque<String>,
    served_cells: u64,
    /// Its cells claimed and not yet completed.
    in_flight: usize,
    /// `State::claims` at its last claim (at its arrival before one).
    last_claim: u64,
}

impl TenantQueue {
    fn idle(&self) -> bool {
        self.ready.is_empty() && self.in_flight == 0
    }
}

#[derive(Default)]
struct State {
    jobs: HashMap<String, Job>,
    /// The finished entries of `jobs`, oldest first.
    finished: VecDeque<String>,
    /// Tenants in first-seen order; the round-robin universe. Every live
    /// tenant and at most [`IDLE_TENANTS_KEPT`] idle ones.
    tenants: Vec<TenantQueue>,
    /// Round-robin cursor over `tenants`.
    rr_pos: usize,
    /// Cells left in the current tenant's quantum (0 = refresh on next
    /// claim from it).
    rr_credits: u64,
    /// Cells claimed so far: the clock `TenantQueue::last_claim` reads.
    claims: u64,
}

impl State {
    /// Campaigns currently holding a ready-queue slot (the 429 gauge).
    fn ready_campaigns(&self) -> usize {
        self.tenants.iter().map(|t| t.ready.len()).sum()
    }

    fn enqueue(&mut self, tenant: &str, digest: String) {
        if let Some(t) = self.tenants.iter_mut().find(|t| t.key == tenant) {
            t.ready.push_back(digest);
            return;
        }
        self.forget_idle_tenants();
        self.tenants.push(TenantQueue {
            key: tenant.to_string(),
            ready: VecDeque::from([digest]),
            served_cells: 0,
            in_flight: 0,
            last_claim: self.claims,
        });
    }

    /// Drops idle tenants, least recently served first, until at most
    /// [`IDLE_TENANTS_KEPT`] are left. The cursor stays on its tenant; if
    /// that tenant goes, it moves to the next with no quantum left — where
    /// `claim` would have moved it past an idle tenant anyway — so the
    /// round-robin order of the rest does not change.
    fn forget_idle_tenants(&mut self) {
        loop {
            let idle = self.tenants.iter().enumerate().filter(|(_, t)| t.idle());
            if idle.clone().count() <= IDLE_TENANTS_KEPT {
                return;
            }
            let (i, _) = idle
                .min_by_key(|(_, t)| t.last_claim)
                .expect("more idle tenants than the cap");
            self.tenants.remove(i);
            if i < self.rr_pos {
                self.rr_pos -= 1;
            } else if i == self.rr_pos {
                self.rr_credits = 0;
            }
        }
    }

    /// Admission, written once: a fresh submission arrives with no slot
    /// filled, a replayed job with its journaled cells in theirs. The job
    /// joins its tenant's ready queue — unless every slot arrived filled:
    /// then this returns `true`, and the caller owes it a [`finish`].
    fn admit(
        &mut self,
        digest: &str,
        owner: Owner,
        plan: Arc<CampaignPlan>,
        slots: Vec<Option<SimReport>>,
    ) -> bool {
        let work = Work {
            plan,
            enqueued_at: std::time::Instant::now(),
            cursor: 0,
            done: slots.iter().flatten().count(),
            in_flight: 0,
            slots,
        };
        let arrived_complete = work.done == work.slots.len();
        let status = if arrived_complete {
            JobStatus::Running
        } else {
            self.enqueue(&owner.tenant, digest.to_string());
            JobStatus::Queued
        };
        let job = Job {
            owner,
            cells_total: work.slots.len(),
            status,
            work: Some(work),
        };
        self.jobs.insert(digest.to_string(), job);
        arrived_complete
    }

    /// Admits a job that arrives done: its artifact is in the store.
    fn admit_done(&mut self, digest: &str, owner: Owner, cells_total: usize) {
        let job = Job {
            owner,
            cells_total,
            status: JobStatus::Running,
            work: None,
        };
        self.jobs.insert(digest.to_string(), job);
        self.settle(digest, JobStatus::Done);
    }

    /// The end of a job: its outcome stays, its work goes, and so does the
    /// oldest finished entry once there are more than the table keeps.
    fn settle(&mut self, digest: &str, status: JobStatus) {
        let job = self.jobs.get_mut(digest).expect("settled job exists");
        (job.status, job.work) = (status, None);
        self.finished.push_back(digest.to_string());
        if self.finished.len() > FINISHED_JOBS_KEPT {
            let oldest = self.finished.pop_front().expect("not empty");
            self.jobs.remove(&oldest);
        }
    }

    /// The job known under `digest`. A done entry outlives its artifact
    /// only until somebody asks: the store evicts by bytes on its own, and
    /// a digest it no longer holds is unknown again — a resubmission runs
    /// it, as after a restart.
    fn job(&mut self, store: &ResultStore, digest: &str) -> Option<&Job> {
        let status = &self.jobs.get(digest)?.status;
        if matches!(status, JobStatus::Done) && !store.contains(digest) {
            self.jobs.remove(digest);
            self.finished.retain(|d| d != digest);
        }
        self.jobs.get(digest)
    }

    /// Claims the next cell under weighted round-robin over tenants.
    ///
    /// Each visit to a tenant grants up to `priority` consecutive cells
    /// from its front campaign before the cursor advances; idle tenants
    /// are skipped without consuming their quantum. Within a tenant,
    /// campaigns are FIFO; within a campaign, cells are claimed in flat
    /// plan order (skipping slots pre-filled by journal replay).
    fn claim(&mut self) -> Option<Claim> {
        let n = self.tenants.len();
        for _ in 0..n {
            let ti = self.rr_pos % n;
            // Try this tenant's front campaigns (popping exhausted ones).
            let claim = loop {
                let Some(digest) = self.tenants[ti].ready.front().cloned() else {
                    break None;
                };
                let job = self.jobs.get_mut(&digest).expect("ready digest has a job");
                let work = job.work.as_mut().expect("ready job has work");
                while work.cursor < work.slots.len() && work.slots[work.cursor].is_some() {
                    work.cursor += 1;
                }
                if work.cursor >= work.slots.len() {
                    // Every cell is claimed or filled: out of the ready queue.
                    self.tenants[ti].ready.pop_front();
                    continue;
                }
                let flat = work.cursor;
                work.cursor += 1;
                while work.cursor < work.slots.len() && work.slots[work.cursor].is_some() {
                    work.cursor += 1;
                }
                work.in_flight += 1;
                if matches!(job.status, JobStatus::Queued) {
                    job.status = JobStatus::Running;
                }
                let plan = Arc::clone(&work.plan);
                let queue_wait = work.enqueued_at.elapsed();
                let priority = job.owner.priority;
                let tenant = &mut self.tenants[ti];
                if work.cursor >= work.slots.len() {
                    tenant.ready.pop_front();
                }
                self.claims += 1;
                (tenant.in_flight, tenant.last_claim) = (tenant.in_flight + 1, self.claims);
                break Some((
                    Claim {
                        digest,
                        flat,
                        plan,
                        queue_wait,
                    },
                    priority,
                ));
            };
            match claim {
                Some((claim, priority)) => {
                    if self.rr_credits == 0 {
                        self.rr_credits = priority.max(1);
                    }
                    self.rr_credits -= 1;
                    if self.rr_credits == 0 {
                        self.rr_pos = (ti + 1) % n;
                    }
                    return Some(claim);
                }
                None => {
                    // Idle tenant: move on without consuming a quantum.
                    self.rr_pos = (ti + 1) % n;
                    self.rr_credits = 0;
                }
            }
        }
        None
    }

    /// Fills a claimed cell's slot. `true` when that was the job's last
    /// cell: the caller owes it a [`finish`].
    fn complete(&mut self, claim: &Claim, report: SimReport) -> bool {
        let job = self
            .jobs
            .get_mut(&claim.digest)
            .expect("claimed job exists");
        let work = job.work.as_mut().expect("claimed job has work");
        work.slots[claim.flat] = Some(report);
        work.done += 1;
        work.in_flight -= 1;
        let tenant = &job.owner.tenant;
        let t = self
            .tenants
            .iter_mut()
            .find(|t| t.key == *tenant)
            .expect("a tenant with a cell in flight is kept");
        (t.served_cells, t.in_flight) = (t.served_cells + 1, t.in_flight - 1);
        work.done == work.slots.len()
    }
}

/// What a worker pulled from the ready queue.
struct Claim {
    digest: String,
    /// Flat index into the plan's job list.
    flat: usize,
    plan: Arc<CampaignPlan>,
    /// How long the cell sat in the ready queue before this claim.
    queue_wait: std::time::Duration,
}

struct Inner {
    state: Mutex<State>,
    work_ready: Condvar,
    job_finished: Condvar,
    queue_cap: usize,
    /// The one home of finished results.
    store: ResultStore,
    /// Recent renders of stored artifacts, for the result routes.
    renders: RenderCache,
    /// Recently accepted campaign bodies, for the submit route's lane.
    submissions: RecentSubmissions,
    journal: Option<Journal>,
    shutdown: AtomicBool,
    /// Shared observability bundle: logger, and the registry every
    /// service counter lives in.
    obs: Arc<ServeObs>,
}

impl Inner {
    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().expect("scheduler lock")
    }
}

/// The campaign scheduler: owns the ready queues, the status map, and the
/// worker pool. Cloneable handle semantics come from wrapping it in an
/// `Arc` at the server layer.
pub struct Scheduler {
    inner: Arc<Inner>,
    workers: Vec<JoinHandle<()>>,
}

impl Scheduler {
    /// Starts a scheduler with `workers` cell-worker threads, a ready
    /// queue bounded at `queue_cap` campaigns, the result store (a
    /// directory or [`ResultStore::in_memory`]), and an optional
    /// crash-safe journal.
    ///
    /// Unfinished journal entries are replayed before the workers start:
    /// digests already resolvable from `store` are inserted as done,
    /// everything else is requeued (ignoring `queue_cap` — journaled work
    /// was already accepted once) with its journaled cells pre-filled,
    /// and the journal is compacted.
    ///
    /// `workers == 0` is permitted (jobs queue but never run) — useful for
    /// deterministic backpressure tests; the CLI clamps to ≥ 1.
    pub fn start(
        workers: usize,
        queue_cap: usize,
        store: ResultStore,
        journal: Option<Journal>,
    ) -> Self {
        Self::start_with_obs(
            workers,
            queue_cap,
            store,
            journal,
            Arc::new(ServeObs::default()),
        )
    }

    /// [`Scheduler::start`] with a shared observability bundle — the
    /// server passes the bundle its journal and connection handlers use,
    /// so every service number lands in one registry.
    pub fn start_with_obs(
        workers: usize,
        queue_cap: usize,
        store: ResultStore,
        mut journal: Option<Journal>,
        obs: Arc<ServeObs>,
    ) -> Self {
        let pending = journal
            .as_mut()
            .map(Journal::take_pending)
            .unwrap_or_default();
        let queue_cap = queue_cap.max(1);
        // The two constants among the collected gauges.
        obs.collected.queue_cap.set(queue_cap as i64);
        obs.collected.workers_total.set(workers as i64);
        let inner = Arc::new(Inner {
            state: Mutex::new(State::default()),
            work_ready: Condvar::new(),
            job_finished: Condvar::new(),
            queue_cap,
            store,
            renders: RenderCache::default(),
            submissions: RecentSubmissions::default(),
            journal,
            shutdown: AtomicBool::new(false),
            obs,
        });

        if !pending.is_empty() {
            replay_pending(&inner, pending);
        }

        if workers > 0 {
            keep_freed_memory();
        }
        let handles = (0..workers)
            .map(|i| {
                let inner = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("serve-worker-{i}"))
                    .spawn(move || worker_loop(&inner))
                    .expect("spawn worker thread")
            })
            .collect();
        Self {
            inner,
            workers: handles,
        }
    }

    /// Submits a campaign for the default tenant at baseline priority.
    ///
    /// # Errors
    ///
    /// [`SubmitError::Invalid`] on validation failure, [`SubmitError::Busy`]
    /// when the queue is full.
    pub fn submit(&self, campaign: Campaign) -> Result<Submission, SubmitError> {
        self.submit_as(campaign, DEFAULT_TENANT, 1)
    }

    /// Submits a campaign under a tenant key with a weighted-round-robin
    /// `priority` (clamped to `1..=`[`MAX_PRIORITY`]). The tenant and
    /// priority bind to the *first* submission of a digest; coalescing
    /// resubmissions attach without changing them.
    ///
    /// # Errors
    ///
    /// [`SubmitError::Invalid`] on validation failure, [`SubmitError::Busy`]
    /// when the queue is full.
    pub fn submit_as(
        &self,
        campaign: Campaign,
        tenant: &str,
        priority: u64,
    ) -> Result<Submission, SubmitError> {
        campaign.validate().map_err(SubmitError::Invalid)?;
        let digest = campaign.digest();
        let events = &self.inner.obs.events;
        let tenant = if tenant.is_empty() {
            DEFAULT_TENANT
        } else {
            tenant
        };
        let priority = priority.clamp(1, MAX_PRIORITY);

        // Fast path: the digest is already known in this process.
        if let Some(hit) = self.attach(&mut self.inner.lock(), &digest) {
            return Ok(hit);
        }

        // First sighting — expand the plan WITHOUT holding the lock (it
        // can be large; status polls and other submissions must not stall
        // behind it).
        let plan = plan_campaign(&campaign.name, &campaign.panels).map_err(SubmitError::Invalid)?;

        let mut state = self.inner.lock();
        // Re-check: a racing submission may have inserted meanwhile.
        if let Some(hit) = self.attach(&mut state, &digest) {
            return Ok(hit);
        }

        let total = plan.job_count();
        let owner = Owner {
            name: campaign.name.clone(),
            tenant: tenant.to_string(),
            priority,
        };
        // Stored by an earlier process, or by this one before the entry
        // aged out: done, and nobody parses the artifact to say so.
        if self.inner.store.contains(&digest) {
            state.admit_done(&digest, owner, total);
            return Ok(self.attach(&mut state, &digest).expect("just admitted"));
        }

        if state.ready_campaigns() >= self.inner.queue_cap {
            events.rejected.inc();
            return Err(SubmitError::Busy {
                queue_cap: self.inner.queue_cap,
            });
        }
        // Write the record before releasing the lock: replay attaches a
        // `cell` record to a digest it has already seen, so no worker may
        // append one ahead of this line. The sync waits until the lock
        // is gone.
        if let Some(journal) = &self.inner.journal {
            journal.record_submitted(&digest, &campaign, tenant, priority);
        }
        let complete = state.admit(&digest, owner, Arc::new(plan), vec![None; total]);
        debug_assert!(!complete, "a fresh job has every cell to run");
        events.submitted.inc();
        drop(state);
        // Many cells just became claimable: wake every worker.
        self.inner.work_ready.notify_all();
        // Durable before acknowledged; status polls, other submissions
        // and the workers just woken do not wait behind the disk.
        if let Some(journal) = &self.inner.journal {
            journal.sync();
        }
        Ok(Submission {
            digest,
            status: JobStatus::Queued,
            cached: false,
            coalesced: false,
            cells_done: 0,
            cells_total: total,
        })
    }

    /// Attaches a submission to an already-known digest: a cache hit when
    /// the job is finished, a coalesce onto the in-flight job otherwise.
    fn attach(&self, state: &mut State, digest: &str) -> Option<Submission> {
        let job = state.job(&self.inner.store, digest)?;
        let events = &self.inner.obs.events;
        let coalesced = job.work.is_some();
        if coalesced {
            events.coalesced.inc();
        } else {
            events.cache_hits.inc();
        }
        events.submitted.inc();
        Some(Submission {
            digest: digest.to_string(),
            status: job.status.clone(),
            cached: !coalesced,
            coalesced,
            cells_done: job.cells_done(),
            cells_total: job.cells_total,
        })
    }

    /// The submit route's lane: attaches a body accepted lately to the
    /// digest its bytes decoded to, through `attach` as
    /// `submit_as`'s fast path does, without parsing, validating or
    /// digesting it again. Returns the submission and the campaign name, or
    /// `None` — the bytes are not kept, or the digest is unknown again (the
    /// store evicted its artifact) — and the caller takes the general path.
    pub(crate) fn attach_body(&self, body: &[u8]) -> Option<(Submission, String)> {
        let (digest, name) = self.inner.submissions.find(body)?;
        let hit = self.attach(&mut self.inner.lock(), &digest)?;
        self.inner.obs.events.body_hits.inc();
        Some((hit, name))
    }

    /// The recently accepted campaign bodies.
    pub(crate) fn submissions(&self) -> &RecentSubmissions {
        &self.inner.submissions
    }

    /// Where a digest's job stands: name, status, cell progress and the
    /// ready-queue depth of the same instant. `None` for a digest the
    /// table does not hold — its artifact may still be in the store.
    pub fn status(&self, digest: &str) -> Option<JobView> {
        let mut state = self.inner.lock();
        let queue_depth = state.ready_campaigns();
        let job = state.job(&self.inner.store, digest)?;
        Some(JobView {
            name: job.owner.name.clone(),
            status: job.status.clone(),
            cells_done: job.cells_done(),
            cells_total: job.cells_total,
            queue_depth,
        })
    }

    /// The merged-so-far snapshot of a live job: the longest computable
    /// row prefix (merged outside the scheduler lock) — all rows while the
    /// job's own merge runs, since a job keeps its work until it settles.
    /// `None` for unknown digests and finished jobs.
    pub fn partial(&self, digest: &str) -> Option<Partial> {
        let (plan, slots) = snapshot(&self.inner.lock(), digest)?;
        Some(Partial {
            result: plan.merge_prefix(&slots).ok()?,
            done: slots.iter().flatten().count(),
            total: slots.len(),
        })
    }

    /// Blocks until the job for `digest` leaves the queued/running states,
    /// or until `timeout` elapses. Returns the final status, or `None` on
    /// an unknown digest or timeout.
    pub fn wait(&self, digest: &str, timeout: std::time::Duration) -> Option<JobStatus> {
        let deadline = std::time::Instant::now() + timeout;
        let mut state = self.inner.lock();
        loop {
            match state.jobs.get(digest) {
                None => return None,
                Some(job) if job.work.is_none() => return Some(job.status.clone()),
                Some(_) => {}
            }
            let now = std::time::Instant::now();
            if now >= deadline {
                return None;
            }
            let (s, _) = self
                .inner
                .job_finished
                .wait_timeout(state, deadline - now)
                .expect("scheduler lock");
            state = s;
        }
    }

    /// The collect step of a `/metrics` scrape: copies scheduler and
    /// store *state* (as opposed to events, which are counted where they
    /// happen) into [`ServeObs::collected`], taking the scheduler lock
    /// once. Returns the per-tenant served-cell counts in first-seen
    /// order, of the live tenants and the last [`IDLE_TENANTS_KEPT`] idle
    /// ones — a JSON-only projection, because a client-chosen tenant key
    /// would be an unbounded Prometheus label.
    pub fn collect(&self) -> Vec<(String, u64)> {
        let c = &self.inner.obs.collected;
        let tenants = {
            let state = self.inner.lock();
            let (mut unclaimed, mut in_flight) = (0, 0);
            for work in state.jobs.values().filter_map(|job| job.work.as_ref()) {
                unclaimed += work.slots.len() - work.done - work.in_flight;
                in_flight += work.in_flight;
            }
            c.queue_depth.set(state.ready_campaigns() as i64);
            c.cells_queued.set(unclaimed as i64);
            c.cells_in_flight.set(in_flight as i64);
            c.jobs_resident.set(state.jobs.len() as i64);
            state
                .tenants
                .iter()
                .map(|t| (t.key.clone(), t.served_cells))
                .collect()
        };
        let (store, stats) = (&self.inner.store, self.inner.store.stats());
        c.store_hits.advance_to(stats.hits.load(Ordering::Relaxed));
        c.store_misses
            .advance_to(stats.misses.load(Ordering::Relaxed));
        c.store_stored
            .advance_to(stats.stored.load(Ordering::Relaxed));
        c.store_evicted
            .advance_to(stats.evicted.load(Ordering::Relaxed));
        c.store_bytes_used.set(store.bytes_used() as i64);
        tenants
    }

    /// The result store: where every finished result lives.
    pub fn store(&self) -> &ResultStore {
        &self.inner.store
    }

    /// The recent-renders cache of stored artifacts.
    pub(crate) fn renders(&self) -> &RenderCache {
        &self.inner.renders
    }

    /// The shared observability bundle: the logger, and the registered
    /// handle of every service counter.
    pub fn obs(&self) -> &Arc<ServeObs> {
        &self.inner.obs
    }

    /// Stops the workers after their current cell and joins them.
    pub fn shutdown(mut self) {
        // Set under the lock the workers check it under: a worker that saw
        // `false` is then already waiting when the notification is sent,
        // not about to wait and miss it.
        {
            let _state = self.inner.lock();
            self.inner.shutdown.store(true, Ordering::SeqCst);
        }
        self.inner.work_ready.notify_all();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

/// The plan and a copy of the reports of a job that still has its work —
/// what a merge needs, taken under the lock and used off it.
fn snapshot(state: &State, digest: &str) -> Option<(Arc<CampaignPlan>, Vec<Option<SimReport>>)> {
    let work = state.jobs.get(digest)?.work.as_ref()?;
    Some((Arc::clone(&work.plan), work.slots.clone()))
}

/// Re-admits journaled jobs at startup: store hits become done jobs, the
/// rest requeue (in original submission order) with their journaled cells
/// pre-filled, and the journal is compacted down to the requeued
/// survivors. A job whose every cell was journaled goes straight to
/// [`finish`] without touching a worker.
fn replay_pending(inner: &Inner, pending: Vec<PendingJob>) {
    let mut survivors: Vec<PendingJob> = Vec::new();
    let mut complete: Vec<String> = Vec::new();
    let mut state = inner.lock();
    for mut job in pending {
        if state.jobs.contains_key(&job.digest) {
            continue;
        }
        inner.obs.events.replayed.inc();
        let plan = match plan_campaign(&job.campaign.name, &job.campaign.panels) {
            Ok(plan) => plan,
            Err(e) => {
                // Validation passed when the job was first accepted, so
                // this is a code/journal version skew: drop, don't die.
                inner.obs.logger().warn(
                    "scheduler",
                    "dropping journaled job",
                    &[("digest", job.digest.clone()), ("error", e)],
                );
                continue;
            }
        };
        let total = plan.job_count();
        let owner = Owner {
            name: job.campaign.name.clone(),
            tenant: if job.tenant.is_empty() {
                DEFAULT_TENANT.to_string()
            } else {
                job.tenant.clone()
            },
            priority: job.priority.max(1),
        };
        if inner.store.contains(&job.digest) {
            // The previous process finished the simulation and persisted
            // the artifact but died before the `done` record landed.
            state.admit_done(&job.digest, owner, total);
            continue;
        }

        // A journaled report fills the slot of the job with its key,
        // wherever this version's plan put it; a key no job has re-runs.
        // Compaction keeps only the attached records, at their new index.
        let flat_of: HashMap<u64, usize> = (plan.jobs().iter().enumerate())
            .map(|(flat, cell)| (cell.key(), flat))
            .collect();
        let mut slots: Vec<Option<SimReport>> = vec![None; total];
        job.cells
            .retain_mut(|(index, key, report)| match flat_of.get(key) {
                Some(&flat) if slots[flat].is_none() => {
                    *index = flat;
                    slots[flat] = Some(report.clone());
                    true
                }
                _ => false,
            });
        inner.obs.events.cells_replayed.add(job.cells.len() as u64);
        if state.admit(&job.digest, owner, Arc::new(plan), slots) {
            // Every cell was journaled — the process died between the
            // last cell record and the artifact/done record.
            complete.push(job.digest);
        } else {
            survivors.push(job);
        }
    }
    drop(state);
    // Persisted (or refused, and journaled so) before compaction forgets
    // the records the job could be rebuilt from.
    for digest in complete {
        finish(inner, &digest);
    }
    if let Some(journal) = &inner.journal {
        if let Err(e) = journal.compact(&survivors) {
            inner
                .obs
                .logger()
                .error("scheduler", "journal compaction failed", &[("error", e)]);
        }
    }
}

/// Tells glibc to keep freed heap memory instead of returning it to the
/// kernel (process-wide; no-op on other C libraries). A cell builds a few
/// MB of simulator state and drops it all a few hundred microseconds
/// later, on a worker thread whose arena glibc trims once its free top
/// passes a threshold; the next cell then faults every page back in, which
/// on small cells costs as much as the simulation. What the call guards
/// against is forced trimming: on the benchmark's `serve_small_cells_mix`
/// (5 K-instruction cells, 2-vCPU host) under `MALLOC_TRIM_THRESHOLD_=0`,
/// 4 pairs read 11.1–12.4 Minst/s with it and 7.4–7.6 without. Under
/// glibc's default thresholds it made no measured difference: over 7
/// pairs the medians read 11.5 with and 11.3 without, and whichever side
/// ran first won 6 of them.
fn keep_freed_memory() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        use std::os::raw::c_int;
        extern "C" {
            fn mallopt(param: c_int, value: c_int) -> c_int;
        }
        // <malloc.h>. Setting either switches off glibc's sliding mmap
        // threshold, so both are set: nothing below 32 MB is mapped per
        // allocation, and a free top below 64 MB stays.
        const M_TRIM_THRESHOLD: c_int = -1;
        const M_MMAP_THRESHOLD: c_int = -3;
        // SAFETY: `mallopt` takes two integers and sets allocator
        // tunables under the allocator's own lock; it reads and writes no
        // memory Rust can see and leaves existing allocations valid.
        unsafe {
            mallopt(M_TRIM_THRESHOLD, 64 << 20);
            mallopt(M_MMAP_THRESHOLD, 32 << 20);
        }
    }
}

fn worker_loop(inner: &Inner) {
    loop {
        let claim = {
            let mut state = inner.lock();
            loop {
                if inner.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                if let Some(claim) = state.claim() {
                    break claim;
                }
                state = inner.work_ready.wait(state).expect("scheduler lock");
            }
        };

        inner.obs.workers_busy.add(1);
        inner
            .obs
            .cell_queue_wait_us
            .record(claim.queue_wait.as_micros() as u64);
        let cell = &claim.plan.jobs()[claim.flat];
        let started = std::time::Instant::now();
        let report = cell.run();
        let wall = started.elapsed();
        inner.obs.cell_execution_us.record(wall.as_micros() as u64);
        if inner.obs.logger().enabled(Level::Debug) {
            inner.obs.logger().debug(
                "scheduler",
                "cell executed",
                &[
                    ("digest", claim.digest.clone()),
                    ("cell", claim.flat.to_string()),
                    ("wall_us", wall.as_micros().to_string()),
                ],
            );
        }
        inner.obs.sim_instructions.add(cell.instructions);
        inner.obs.sim_wall_us.add(wall.as_micros() as u64);
        inner.obs.events.cells_executed.inc();
        // Journal the cell BEFORE the in-memory bookkeeping: a crash in
        // between re-executes this one cell, and the duplicate record is
        // deduplicated at replay (reports are bit-identical anyway).
        if let Some(journal) = &inner.journal {
            journal.record_cell(&claim.digest, claim.flat, cell.key(), &report, wall);
        }

        let last_cell_in = inner
            .state
            .lock()
            .expect("scheduler lock")
            .complete(&claim, report);
        if last_cell_in {
            inner.obs.events.executed.inc();
            finish(inner, &claim.digest);
        }
        inner.obs.workers_busy.add(-1);
    }
}

/// The one end of a job whose every cell is in, whether its last cell
/// just ran or replay found them all journaled: merge off the lock (the
/// merge a `?partial=1` reader gets meanwhile, of the same snapshot) →
/// persist → `Done`/`Failed` → `done` record → wake the waiters. A merge
/// the engine refuses stores nothing, and its `ok:false` record keeps a
/// restart from replaying the job into the same refusal; a result the
/// store refuses has no home, and ends the same way.
fn finish(inner: &Inner, digest: &str) {
    let (plan, slots) = snapshot(&inner.lock(), digest).expect("finishing job has its work");
    let stored = plan
        .merge_prefix(&slots)
        .and_then(|result| inner.store.store(digest, &result));
    let ok = stored.is_ok();
    let mut outcome = vec![("digest", digest.to_string()), ("ok", ok.to_string())];
    let status = match stored {
        Ok(()) => {
            inner.obs.events.completed.inc();
            JobStatus::Done
        }
        Err(e) => {
            inner.obs.events.failed.inc();
            outcome.push(("error", e.clone()));
            JobStatus::Failed(e)
        }
    };
    inner.lock().settle(digest, status);
    if let Some(journal) = &inner.journal {
        journal.record_done(digest, ok);
    }
    inner
        .obs
        .logger()
        .info("scheduler", "campaign finished", &outcome);
    inner.job_finished.notify_all();
}

#[cfg(test)]
mod tests {
    use super::*;
    use pythia_sweep::{engine, ConfigPoint, SweepSpec};
    use pythia_workloads::all_suites;
    use std::time::Duration;

    fn workload(name: &str) -> pythia_workloads::Workload {
        all_suites()
            .into_iter()
            .find(|w| w.name == name)
            .expect("known workload")
    }

    fn tiny_campaign(tag: &str, measure: u64) -> Campaign {
        Campaign::single(
            SweepSpec::new(tag)
                .with_workloads([workload("429.mcf-184B")])
                .with_prefetchers(&["stride"])
                .with_config(ConfigPoint::single_core("base", 1_000, measure)),
        )
    }

    /// A campaign with `seeds` replications — `2 * seeds` cells (baseline
    /// + measured per seed), for exercising cell-level interleaving.
    fn seeded_campaign(tag: &str, measure: u64, seeds: u64) -> Campaign {
        let seeds: Vec<u64> = (0..seeds).collect();
        Campaign::single(
            SweepSpec::new(tag)
                .with_workloads([workload("429.mcf-184B")])
                .with_prefetchers(&["stride"])
                .with_config(ConfigPoint::single_core("base", 1_000, measure))
                .with_seeds(&seeds),
        )
    }

    /// A valid campaign whose merge the engine refuses: 10 + 50
    /// instructions never reach memory, so the baseline has no LLC load
    /// miss and coverage has no denominator.
    fn starved_campaign(tag: &str) -> Campaign {
        let campaign = Campaign::single(
            SweepSpec::new(tag)
                .with_workloads([workload("602.gcc_s-734B")])
                .with_prefetchers(&["stride"])
                .with_config(ConfigPoint::single_core("base", 10, 50)),
        );
        campaign.validate().expect("a valid campaign");
        campaign
    }

    fn assert_names_the_starved_unit(status: &JobStatus) {
        let JobStatus::Failed(message) = status else {
            panic!("expected Failed, got {status:?}");
        };
        assert!(message.contains("602.gcc_s-734B"), "{message}");
        assert!(message.contains("no LLC load misses"), "{message}");
    }

    /// A memory-leaf store no test here fills.
    fn memory() -> ResultStore {
        ResultStore::in_memory(1 << 20)
    }

    /// Completed and planned cells, as a status lookup reports them.
    fn progress(s: &Scheduler, digest: &str) -> (usize, usize) {
        let job = s.status(digest).expect("known digest");
        (job.cells_done, job.cells_total)
    }

    /// The stored artifact of a done job, as `format=json` serves it.
    fn artifact(s: &Scheduler, digest: &str) -> String {
        let bytes = s.store().bytes(digest).expect("reads").expect("stored");
        String::from_utf8(bytes.to_vec()).expect("utf-8")
    }

    fn tmp_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "pythia-sched-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn submit_run_and_memory_cache_hit() {
        let s = Scheduler::start(1, 8, memory(), None);
        let campaign = tiny_campaign("sched-basic", 4_000);
        let sub = s.submit(campaign.clone()).expect("accepted");
        assert!(!sub.cached);
        let done = s
            .wait(&sub.digest, Duration::from_secs(60))
            .expect("finishes");
        assert!(matches!(done, JobStatus::Done));
        assert_eq!(progress(&s, &sub.digest), (2, 2), "baseline + cell");

        let again = s.submit(campaign).expect("accepted");
        assert!(again.cached, "second submission hits the job table");
        assert!(matches!(again.status, JobStatus::Done));
        assert_eq!((again.cells_done, again.cells_total), (2, 2));
        assert_eq!(s.obs().events.executed.get(), 1);
        assert_eq!(s.obs().events.cells_executed.get(), 2);
        assert_eq!(s.obs().events.cache_hits.get(), 1);
        assert!(s.obs().sim_instructions.get() > 0, "per-cell telemetry");
        assert!(s.obs().sim_wall_us.get() > 0);
        s.shutdown();
    }

    #[test]
    fn coalescing_shares_one_job() {
        // One worker pinned down by a blocker job makes coalescing
        // deterministic: the second identical submission arrives while the
        // target job is still queued.
        let s = Scheduler::start(1, 8, memory(), None);
        let blocker = s
            .submit(tiny_campaign("sched-blocker", 30_000))
            .expect("accepted");
        let target = tiny_campaign("sched-target", 4_000);
        let first = s.submit(target.clone()).expect("accepted");
        let second = s.submit(target).expect("accepted");
        assert!(second.coalesced, "identical in-flight submission coalesces");
        assert_eq!(first.digest, second.digest);

        assert!(s.wait(&blocker.digest, Duration::from_secs(60)).is_some());
        let done = s
            .wait(&first.digest, Duration::from_secs(60))
            .expect("finishes");
        assert!(matches!(done, JobStatus::Done));
        assert_eq!(
            s.obs().events.executed.get(),
            2,
            "blocker + one shared target job"
        );
        assert_eq!(s.obs().events.coalesced.get(), 1);
        s.shutdown();
    }

    #[test]
    fn full_queue_rejects_with_busy() {
        // No workers: nothing ever drains, so occupancy is exact.
        let s = Scheduler::start(0, 2, memory(), None);
        s.submit(tiny_campaign("bp-1", 4_000)).expect("slot 1");
        s.submit(tiny_campaign("bp-2", 4_000)).expect("slot 2");
        let err = s.submit(tiny_campaign("bp-3", 4_000)).unwrap_err();
        assert!(matches!(err, SubmitError::Busy { queue_cap: 2 }));
        assert_eq!(s.obs().events.rejected.get(), 1);
        // A coalescing resubmission still works when the queue is full.
        let again = s.submit(tiny_campaign("bp-1", 4_000)).expect("coalesces");
        assert!(again.coalesced);
        // Cell-level gauges see the queued-but-unclaimed cells.
        s.collect();
        let collected = &s.obs().collected;
        assert_eq!(
            collected.cells_queued.get(),
            4,
            "two campaigns x (baseline + cell)"
        );
        assert_eq!(collected.cells_in_flight.get(), 0);
        s.shutdown();
    }

    #[test]
    fn invalid_campaigns_are_rejected_up_front() {
        let s = Scheduler::start(0, 2, memory(), None);
        let invalid = Campaign::single(SweepSpec::new("empty"));
        match s.submit(invalid).unwrap_err() {
            SubmitError::Invalid(msg) => assert!(msg.contains("no work units"), "{msg}"),
            other => panic!("expected Invalid, got {other:?}"),
        }
        assert!(s.status("0123456789abcdef").is_none());
        s.shutdown();
    }

    /// A degenerate generator spec used to pass validation and trip an
    /// assert on the worker thread: the pool lost its only worker, the job
    /// never finished and the next campaign never ran. Now each is refused
    /// at submit, naming the field.
    #[test]
    fn degenerate_workloads_are_refused_and_the_next_campaign_runs() {
        use pythia_workloads::PatternKind;
        let s = Scheduler::start(1, 8, memory(), None);
        type Degenerate = (&'static str, fn(&mut pythia_workloads::TraceSpec));
        let cases: [Degenerate; 3] = [
            ("footprint_pages", |spec| spec.footprint_pages = 0),
            ("deltas", |spec| {
                spec.kind = PatternKind::DeltaChain { deltas: vec![] }
            }),
            ("phase_len", |spec| {
                spec.kind = PatternKind::Phased {
                    phases: vec![PatternKind::PointerChase],
                    phase_len: 0,
                }
            }),
        ];
        let refusals: Vec<_> = cases
            .iter()
            .map(|(field, degrade)| {
                let mut campaign = tiny_campaign("sched-degenerate", 4_000);
                degrade(&mut campaign.panels[0].units[0].workloads[0].spec);
                (*field, s.submit(campaign))
            })
            .collect();
        let next = s
            .submit(tiny_campaign("sched-after-degenerate", 4_000))
            .expect("accepted");
        let done = s
            .wait(&next.digest, Duration::from_secs(60))
            .expect("the next campaign completes");
        assert!(matches!(done, JobStatus::Done));
        for (field, refusal) in refusals {
            match refusal {
                Err(SubmitError::Invalid(msg)) => assert!(msg.contains(field), "{msg}"),
                other => panic!("{field}: expected Invalid, got {other:?}"),
            }
        }
        assert_eq!(s.obs().events.submitted.get(), 1, "only the valid one");
        s.shutdown();
    }

    #[test]
    fn weighted_round_robin_interleaves_tenants_cell_by_cell() {
        // No workers: claim synthetically and observe the schedule.
        let s = Scheduler::start(0, 8, memory(), None);
        let big = seeded_campaign("wrr-big", 4_000, 6); // 12 cells
        let small = seeded_campaign("wrr-small", 4_000, 2); // 4 cells
        let big_digest = big.digest();
        let small_digest = small.digest();
        s.submit_as(big, "alice", 1).expect("accepted");
        s.submit_as(small, "bob", 1).expect("accepted");

        let mut order = Vec::new();
        {
            let mut state = s.inner.state.lock().expect("lock");
            while let Some(claim) = state.claim() {
                order.push(claim.digest);
            }
        }
        assert_eq!(order.len(), 16, "every cell of both campaigns claimed");
        // Equal priorities alternate strictly until bob runs dry.
        let expected: Vec<&String> = [&big_digest, &small_digest]
            .into_iter()
            .cycle()
            .take(8)
            .collect();
        assert_eq!(order[..8].iter().collect::<Vec<_>>(), expected);
        assert!(order[8..].iter().all(|d| d == &big_digest));
        s.shutdown();
    }

    #[test]
    fn priority_weights_the_quantum() {
        let s = Scheduler::start(0, 8, memory(), None);
        let heavy = seeded_campaign("prio-heavy", 4_000, 6); // 12 cells
        let light = seeded_campaign("prio-light", 4_000, 6);
        let heavy_digest = heavy.digest();
        s.submit_as(heavy, "alice", 3).expect("accepted");
        s.submit_as(light, "bob", 1).expect("accepted");

        let mut order = Vec::new();
        {
            let mut state = s.inner.state.lock().expect("lock");
            for _ in 0..8 {
                order.push(state.claim().expect("cells left").digest);
            }
        }
        // Priority 3 vs 1: alice gets 3 cells per visit, bob 1.
        let alice_share = order.iter().filter(|d| **d == heavy_digest).count();
        assert_eq!(alice_share, 6, "3:1 quantum over 8 claims");
        s.shutdown();
    }

    /// 5 000 tenant keys come and go beside three backlogged tenants:
    /// idle tenants beyond the cap are forgotten, least recently served
    /// first, and nothing a kept tenant can see changes — every claim goes
    /// where round-robin over a table that forgot nobody would send it,
    /// and every kept tenant's served count (its `/metrics` `tenants`
    /// entry) is its whole history.
    #[test]
    fn idle_tenants_beyond_the_cap_are_forgotten_without_moving_the_rest() {
        use pythia_sim::stats::{CacheStats, DramStats};
        use pythia_workloads::profiles::derive_seed;

        const NEWCOMERS: usize = 5_000;
        let campaign = tiny_campaign("tenants", 4_000);
        let plan = Arc::new(plan_campaign(&campaign.name, &campaign.panels).expect("plans"));
        let report = || SimReport {
            cores: Vec::new(),
            l1d: Vec::new(),
            l2: Vec::new(),
            llc: CacheStats::default(),
            dram: DramStats::default(),
            prefetchers: Vec::new(),
        };
        let mut rng = derive_seed(0x5eed, "tenants");
        let mut below = |n: u64| {
            rng = rng
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (rng >> 33) % n
        };
        let mut state = State::default();
        // The reference: every tenant ever seen, in first-seen order, with
        // its unclaimed cells, and a cursor that never forgets anyone.
        // One campaign per tenant, so a digest is its tenant's key.
        let mut seen: Vec<(String, usize)> = Vec::new();
        let mut cursor = 0;
        let mut served: HashMap<String, u64> = HashMap::new();
        let mut in_flight: Vec<Claim> = Vec::new();
        let admit = |state: &mut State, seen: &mut Vec<(String, usize)>, key: String, cells| {
            let owner = Owner {
                name: "tenants".into(),
                tenant: key.clone(),
                priority: 1,
            };
            assert!(!state.admit(&key, owner, Arc::clone(&plan), vec![None; cells]));
            seen.push((key, cells));
            let idle = state.tenants.iter().filter(|t| t.idle()).count();
            assert!(
                idle <= IDLE_TENANTS_KEPT,
                "{idle} idle tenants after an arrival"
            );
        };
        for key in ["alice", "bob", "carol"] {
            admit(&mut state, &mut seen, key.to_string(), 4 * NEWCOMERS);
        }
        // Only a completion turns a tenant idle, and only an arrival
        // forgets one: the completions since the last arrival are what the
        // table may hold beyond the cap.
        let (mut newcomers, mut completes_since_arrival) = (0, 0);
        while newcomers < NEWCOMERS || !in_flight.is_empty() {
            // Arrivals ask for fewer cells than claims hand out, and
            // completions keep up with claims, so the live tenants stay few.
            let roll = below(20);
            if roll < 3 && newcomers < NEWCOMERS {
                let key = format!("tenant-{newcomers}");
                admit(&mut state, &mut seen, key, 1 + below(3) as usize);
                (newcomers, completes_since_arrival) = (newcomers + 1, 0);
            } else if roll < 11 && newcomers < NEWCOMERS {
                let n = seen.len();
                let next = (0..n)
                    .map(|k| (cursor + k) % n)
                    .find(|&j| seen[j].1 > 0)
                    .expect("the backlogged tenants have cells");
                let claim = state.claim().expect("a cell is ready");
                assert_eq!(claim.digest, seen[next].0, "round-robin order moved");
                (seen[next].1, cursor) = (seen[next].1 - 1, (next + 1) % n);
                in_flight.push(claim);
            } else if !in_flight.is_empty() {
                let claim = in_flight.swap_remove(below(in_flight.len() as u64) as usize);
                *served.entry(claim.digest.clone()).or_default() += 1;
                state.complete(&claim, report());
                completes_since_arrival += 1;
            }
            let idle = state.tenants.iter().filter(|t| t.idle()).count();
            assert!(idle <= IDLE_TENANTS_KEPT + completes_since_arrival);
        }
        for t in &state.tenants {
            let expected = served.get(&t.key).copied().unwrap_or(0);
            assert_eq!(t.served_cells, expected, "{}: served cells", t.key);
        }
        let kept: Vec<&str> = state.tenants.iter().map(|t| t.key.as_str()).collect();
        assert_eq!(kept[..3], ["alice", "bob", "carol"]);
        assert!(
            kept.len() < 3 + 2 * IDLE_TENANTS_KEPT,
            "{} kept",
            kept.len()
        );
        assert_eq!(seen.len(), 3 + NEWCOMERS, "all of them forgotten but those");
    }

    #[test]
    fn mid_campaign_kill_and_replay_resumes_only_unfinished_cells() {
        let dir = tmp_dir("cell-replay");
        let journal_path = dir.join("journal.jsonl");
        let store_dir = dir.join("cache");
        // Cells must be slow enough that the 5 ms progress polls below
        // observe the campaign mid-flight — too-small cells all finish
        // between two polls and the "killed mid-campaign" setup fails.
        let campaign = seeded_campaign("cell-replay", 100_000, 4); // 8 cells
        let digest = campaign.digest();
        let direct = engine::run_all(&campaign.name, &campaign.panels, 1)
            .expect("direct run")
            .stripped();

        // Phase 1: run with one worker and stop mid-campaign ("kill"):
        // shutdown() lets the in-flight cell finish, then the process is
        // gone — no `done` record, some `cell` records.
        let phase1_cells = {
            let store = ResultStore::open(&store_dir).expect("store");
            let journal = Journal::open(&journal_path).expect("journal");
            let s = Scheduler::start(1, 8, store, Some(journal));
            s.submit(campaign.clone()).expect("accepted");
            // Wait until at least two cells completed, then pull the plug.
            let deadline = std::time::Instant::now() + Duration::from_secs(60);
            loop {
                let (done, _) = progress(&s, &digest);
                if done >= 2 {
                    break;
                }
                assert!(std::time::Instant::now() < deadline, "no progress");
                std::thread::sleep(Duration::from_millis(5));
            }
            // Keep the counters alive past shutdown(), which consumes `s`.
            let obs = Arc::clone(s.obs());
            s.shutdown();
            obs.events.cells_executed.get()
        };
        assert!(phase1_cells >= 2, "phase 1 made progress");
        assert!(phase1_cells < 8, "phase 1 was killed mid-campaign");

        // Phase 2: restart on the same dirs. Only the remaining cells
        // may execute; the final artifact is byte-identical to a direct
        // run.
        {
            let store = ResultStore::open(&store_dir).expect("store");
            let journal = Journal::open(&journal_path).expect("journal");
            let s = Scheduler::start(1, 8, store, Some(journal));
            assert_eq!(s.obs().events.replayed.get(), 1);
            assert_eq!(
                s.obs().events.cells_replayed.get(),
                phase1_cells,
                "every journaled cell restored, none lost"
            );
            let done = s
                .wait(&digest, Duration::from_secs(120))
                .expect("resumed job finishes");
            assert!(matches!(done, JobStatus::Done));
            assert_eq!(
                s.obs().events.cells_executed.get(),
                8 - phase1_cells,
                "only the unfinished cells re-executed"
            );
            assert_eq!(
                artifact(&s, &digest),
                direct.to_json().render_pretty(),
                "resumed result matches a direct run byte-for-byte"
            );
            s.shutdown();
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Power loss, not a process kill: a killed process keeps its page
    /// cache, so the kill/replay tests cannot see an unsynced record. Here
    /// the journal is cut — and, once more, NUL-filled — at every byte
    /// offset past what the last sync covered.
    #[test]
    fn power_loss_at_any_unsynced_offset_loses_no_acknowledged_work() {
        let dir = tmp_dir("power-loss");
        let journal_path = dir.join("journal.jsonl");
        let campaign = seeded_campaign("power-loss", 1_000, 2);
        let (digest, total) = (campaign.digest(), 4);
        let direct = engine::run_all(&campaign.name, &campaign.panels, 1)
            .expect("direct run")
            .stripped()
            .to_json()
            .render_pretty();

        // Before the lights go out: one acknowledged campaign, two of its
        // cells journaled the way `worker_loop` does it, and a second
        // submission caught between its write and its sync.
        let unacknowledged = tiny_campaign("power-loss-late", 1_000);
        let (synced, bytes) = {
            let journal = Journal::open(&journal_path).expect("journal");
            let s = Scheduler::start(0, 8, memory(), Some(journal));
            s.submit_as(campaign.clone(), "\u{e5}lice", 1)
                .expect("accepted");
            let journal = s.inner.journal.as_ref().expect("journal attached");
            assert_eq!(
                journal.synced_len(),
                std::fs::metadata(&journal_path).expect("journal").len(),
                "acknowledged means durable"
            );
            for _ in 0..2 {
                let claim = s.inner.state.lock().expect("lock").claim();
                let claim = claim.expect("cells left");
                let started = std::time::Instant::now();
                let cell = &claim.plan.jobs()[claim.flat];
                let report = cell.run();
                journal.record_cell(&digest, claim.flat, cell.key(), &report, started.elapsed());
            }
            journal.record_submitted(&unacknowledged.digest(), &unacknowledged, "\u{e5}lice", 1);
            // Still the acknowledged length, unless this host took 100 ms
            // over two tiny cells and the budget synced them.
            let synced = journal.synced_len() as usize;
            let bytes = std::fs::read(&journal_path).expect("journal");
            s.shutdown();
            (synced, bytes)
        };
        assert!(bytes.len() > synced, "an unsynced tail to lose");

        // One restart on what a power loss at `cut` leaves behind: the
        // unsynced tail gone, or still allocated and read back as NULs.
        let restart = |cut: usize, nul_filled: bool| {
            let mut image = bytes[..cut].to_vec();
            if nul_filled {
                image.resize(bytes.len(), 0);
            }
            let fresh = dir.join(format!("{cut}-{nul_filled}"));
            std::fs::create_dir_all(&fresh).expect("fresh directory");
            let path = fresh.join("journal.jsonl");
            std::fs::write(&path, &image).expect("write image");

            // One bundle, as the server wires them; most cuts skip a torn
            // record with a warning, which thousands of times over is noise.
            let obs = Arc::new(ServeObs::new(Level::Error));
            let journal =
                Journal::open_with_obs(&path, Arc::clone(&obs)).expect("the service starts");
            let s = Scheduler::start_with_obs(1, 8, memory(), Some(journal), obs);
            let done = s
                .wait(&digest, Duration::from_secs(120))
                .expect("the acknowledged campaign is known and finishes");
            assert!(matches!(done, JobStatus::Done), "cut {cut}");
            assert_eq!(
                artifact(&s, &digest),
                direct,
                "cut {cut}: byte-identical to a direct run"
            );
            // The unacknowledged submission survives whole or not at
            // all; either way no cell is lost or counted twice.
            let late = match s.wait(&unacknowledged.digest(), Duration::from_secs(120)) {
                Some(_) => 2,
                None => 0,
            };
            let events = &s.obs().events;
            assert_eq!(
                events.cells_replayed.get() + events.cells_executed.get(),
                total + late,
                "cut {cut}"
            );
            assert_eq!(s.collect()[0].0, "\u{e5}lice", "cut {cut}");
            s.shutdown();
            std::fs::remove_dir_all(&fresh).expect("remove image");
        };
        // Thousands of restarts: keep every core, and the disk, busy.
        const SHARDS: usize = 4;
        std::thread::scope(|scope| {
            for shard in 0..SHARDS {
                let restart = &restart;
                let cuts = (synced..=bytes.len()).filter(move |cut| cut % SHARDS == shard);
                scope.spawn(move || {
                    for cut in cuts {
                        restart(cut, false);
                        restart(cut, true);
                    }
                });
            }
        });
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn journal_replay_resumes_queued_jobs_byte_identically() {
        let dir = tmp_dir("journal-replay");
        let journal_path = dir.join("journal.jsonl");
        let store_dir = dir.join("cache");
        let (a, b) = (
            tiny_campaign("replay-a", 4_000),
            tiny_campaign("replay-b", 5_000),
        );

        // Phase 1: a zero-worker scheduler accepts two jobs and is dropped
        // with the queue full — the moral equivalent of kill -9.
        {
            let store = ResultStore::open(&store_dir).expect("store");
            let journal = Journal::open(&journal_path).expect("journal");
            let s = Scheduler::start(0, 8, store, Some(journal));
            s.submit(a.clone()).expect("accepted");
            s.submit(b.clone()).expect("accepted");
            s.shutdown();
        }
        // Job A was picked up before the crash by a version that still
        // wrote `started` records.
        {
            use std::io::Write;
            let mut file = std::fs::OpenOptions::new()
                .append(true)
                .open(&journal_path)
                .expect("journal");
            writeln!(
                file,
                "{{\"event\":\"started\",\"digest\":\"{}\"}}",
                a.digest()
            )
            .expect("append");
        }

        // Phase 2: a fresh scheduler on the same dirs replays and runs both.
        {
            let store = ResultStore::open(&store_dir).expect("store");
            let journal = Journal::open(&journal_path).expect("journal");
            let s = Scheduler::start(1, 8, store, Some(journal));
            assert_eq!(s.obs().events.replayed.get(), 2);
            for c in [&a, &b] {
                let done = s
                    .wait(&c.digest(), Duration::from_secs(60))
                    .expect("replayed job finishes");
                assert!(matches!(done, JobStatus::Done));
            }
            // Byte-identical to a direct run of the same campaign.
            let direct = engine::run_all(&a.name, &a.panels, 1)
                .expect("direct run")
                .stripped();
            assert_eq!(
                artifact(&s, &a.digest()),
                direct.to_json().render_pretty(),
                "replayed result matches a direct run byte-for-byte"
            );
            s.shutdown();
        }

        // Phase 3: everything completed, so a third startup replays nothing
        // and serves both digests straight from the disk store.
        {
            let store = ResultStore::open(&store_dir).expect("store");
            let journal = Journal::open(&journal_path).expect("journal");
            let s = Scheduler::start(1, 8, store, Some(journal));
            assert_eq!(s.obs().events.replayed.get(), 0);
            let sub = s.submit(a.clone()).expect("accepted");
            assert!(sub.cached, "resubmission hits the disk store");
            assert_eq!(s.obs().events.executed.get(), 0);
            s.shutdown();
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn journal_replay_skips_digests_already_in_store() {
        let dir = tmp_dir("journal-store-hit");
        let journal_path = dir.join("journal.jsonl");
        let store_dir = dir.join("cache");
        let a = tiny_campaign("storehit-a", 4_000);

        // Run the campaign directly into the store, then journal it as
        // submitted-but-unfinished (artifact landed, `done` record lost).
        let store = ResultStore::open(&store_dir).expect("store");
        let result = engine::run_all(&a.name, &a.panels, 1)
            .expect("run")
            .stripped();
        store.store(&a.digest(), &result).expect("persist");
        {
            let journal = Journal::open(&journal_path).expect("journal");
            journal.record_submitted(&a.digest(), &a, DEFAULT_TENANT, 1);
        }

        let journal = Journal::open(&journal_path).expect("journal");
        let s = Scheduler::start(0, 8, store, Some(journal));
        assert_eq!(s.obs().events.replayed.get(), 1);
        // Resolved from the store without a worker (there are none).
        let job = s.status(&a.digest()).expect("known digest");
        assert!(matches!(job.status, JobStatus::Done));
        assert_eq!(s.inner.lock().ready_campaigns(), 0, "nothing requeued");
        // The journal compacted down to nothing.
        let text = std::fs::read_to_string(&journal_path).expect("read journal");
        assert!(text.is_empty(), "compacted journal is empty: {text:?}");
        s.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn refused_merge_fails_the_job_and_frees_the_worker() {
        let dir = tmp_dir("starved");
        let store = ResultStore::open(dir.join("cache")).expect("store");
        let journal = Journal::open(dir.join("journal.jsonl")).expect("journal");
        let s = Scheduler::start(1, 8, store, Some(journal));
        let starved = s.submit(starved_campaign("starved")).expect("accepted");
        let status = s
            .wait(&starved.digest, Duration::from_secs(20))
            .expect("the job ends");
        assert_names_the_starved_unit(&status);
        assert_eq!(progress(&s, &starved.digest), (2, 2));
        assert!(s.partial(&starved.digest).is_none());
        assert_eq!(s.obs().events.failed.get(), 1);
        assert_eq!(s.store().stats().stored.load(Ordering::Relaxed), 0);
        {
            let state = s.inner.state.lock().expect("lock");
            assert!(state.jobs[&starved.digest].work.is_none());
            assert_eq!(state.ready_campaigns(), 0);
        }
        // Resubmitting answers from memory, as for a done job.
        let again = s.submit(starved_campaign("starved")).expect("accepted");
        assert!(again.cached);
        assert_names_the_starved_unit(&again.status);

        // The one worker is still there for the next campaign.
        let healthy = s
            .submit(tiny_campaign("after-starved", 4_000))
            .expect("accepted");
        let done = s.wait(&healthy.digest, Duration::from_secs(60));
        assert!(matches!(done, Some(JobStatus::Done)), "{done:?}");
        let obs = Arc::clone(s.obs());
        s.shutdown();
        assert_eq!(obs.workers_busy.get(), 0, "no worker died mid-cell");
        assert_eq!(obs.events.cells_executed.get(), 4);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn journaled_cells_attach_only_to_the_job_with_their_key() {
        // Records as another version could have left them: one without a
        // key, one naming a job this plan lacks, and one at another index
        // than its job has here. Only the last is attached.
        let dir = tmp_dir("keyed-replay");
        let journal_path = dir.join("journal.jsonl");
        let campaign = seeded_campaign("keyed-replay", 4_000, 2);
        let digest = campaign.digest();
        let plan = plan_campaign(&campaign.name, &campaign.panels).expect("plans");
        let jobs = plan.jobs();
        let other = tiny_campaign("keyed-replay", 5_000);
        let other = plan_campaign(&other.name, &other.panels).expect("plans");
        {
            let journal = Journal::open(&journal_path).expect("journal");
            journal.record_submitted(&digest, &campaign, DEFAULT_TENANT, 1);
            let stranger = other.jobs()[1].key();
            journal.record_cell(&digest, 1, stranger, &jobs[1].run(), Duration::ZERO);
            journal.record_cell(&digest, 2, jobs[3].key(), &jobs[3].run(), Duration::ZERO);
        }
        let keyless = pythia_stats::json::Json::obj()
            .set("event", "cell")
            .set("digest", digest.as_str())
            .set("cell", 0u64)
            .set(
                "report",
                pythia_stats::json::sim_report_wire_json(&jobs[0].run()),
            );
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(&journal_path)
            .expect("append");
        std::io::Write::write_all(&mut f, (keyless.render() + "\n").as_bytes()).expect("write");

        let journal = Journal::open(&journal_path).expect("journal");
        let s = Scheduler::start(1, 8, memory(), Some(journal));
        assert_eq!(s.obs().events.cells_replayed.get(), 1);
        let done = s.wait(&digest, Duration::from_secs(60));
        assert!(matches!(done, Some(JobStatus::Done)), "{done:?}");
        assert_eq!(s.obs().events.cells_executed.get(), 3);
        let direct = engine::run_all(&campaign.name, &campaign.panels, 1).expect("direct run");
        assert_eq!(
            artifact(&s, &digest),
            direct.stripped().to_json().render_pretty()
        );
        s.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn journal_left_by_a_worker_that_died_merging_replays_to_failed_once() {
        // What the parent of this fix left behind: the worker journaled
        // both cells, then panicked in the merge before any `done`.
        let dir = tmp_dir("starved-replay");
        let journal_path = dir.join("journal.jsonl");
        let campaign = starved_campaign("starved-replay");
        let digest = campaign.digest();
        {
            let journal = Journal::open(&journal_path).expect("journal");
            journal.record_submitted(&digest, &campaign, DEFAULT_TENANT, 1);
            let plan = plan_campaign(&campaign.name, &campaign.panels).expect("plans");
            for (flat, job) in plan.jobs().iter().enumerate() {
                journal.record_cell(&digest, flat, job.key(), &job.run(), Duration::ZERO);
            }
        }

        let journal = Journal::open(&journal_path).expect("journal");
        let s = Scheduler::start(0, 8, memory(), Some(journal));
        assert_eq!(s.obs().events.replayed.get(), 1);
        assert_eq!(s.obs().events.cells_replayed.get(), 2);
        let status = s.status(&digest).expect("known digest").status;
        assert_names_the_starved_unit(&status);
        assert_eq!(s.obs().events.failed.get(), 1);
        s.shutdown();

        let journal = Journal::open(&journal_path).expect("journal");
        let s = Scheduler::start(0, 8, memory(), Some(journal));
        assert_eq!(s.obs().events.replayed.get(), 0, "not replayed again");
        assert!(s.status(&digest).is_none());
        s.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn partial_merges_are_monotonic_prefixes_of_the_final_result() {
        // No workers: fill cells via synthetic claims so every partial
        // state is deterministic.
        let s = Scheduler::start(0, 8, memory(), None);
        let campaign = seeded_campaign("partial", 4_000, 3); // 6 cells
        let digest = campaign.digest();
        s.submit(campaign.clone()).expect("accepted");

        let direct = engine::run_all(&campaign.name, &campaign.panels, 1)
            .expect("direct")
            .stripped();

        let empty = s.partial(&digest).expect("known digest");
        assert_eq!((empty.done, empty.total), (0, 6));
        assert!(empty.result.baselines.is_empty() && empty.result.cells.is_empty());

        // Complete cells one at a time (in plan order) and check each
        // partial is a prefix of the final rows with monotonic progress.
        let mut last_rows = 0usize;
        for step in 0..6usize {
            let claim = s.inner.state.lock().expect("lock").claim();
            let claim = claim.expect("cells left");
            let report = claim.plan.jobs()[claim.flat].run();
            let last_cell_in = s.inner.lock().complete(&claim, report);
            assert_eq!(last_cell_in, step == 5);
            // Also with every cell in and the job's own merge still to
            // come — a poll that lands there gets the whole prefix, never
            // "no partial right now".
            let partial = s.partial(&digest).expect("a live job has a partial");
            assert_eq!(partial.done, step + 1, "progress is monotonic");
            let rows = partial.result.baselines.len() + partial.result.cells.len();
            assert!(rows >= last_rows, "rows never regress");
            last_rows = rows;
            assert_eq!(
                partial.result.baselines[..],
                direct.baselines[..partial.result.baselines.len()],
                "baselines are a prefix of the final artifact"
            );
            assert_eq!(
                partial.result.cells[..],
                direct.cells[..partial.result.cells.len()],
                "cells are a prefix of the final artifact"
            );
        }
        let full = s.partial(&digest).expect("every cell in, not yet finished");
        assert_eq!((full.done, full.total), (6, 6));
        assert_eq!(full.result, direct, "full prefix equals the direct run");
        let job = s.status(&digest).expect("known digest");
        assert!(matches!(job.status, JobStatus::Running), "{job:?}");

        // Settled, the job is the store's: no partial, and the artifact
        // is the direct run's render.
        finish(&s.inner, &digest);
        assert!(s.partial(&digest).is_none());
        assert!(s.inner.lock().jobs[&digest].work.is_none());
        assert_eq!(artifact(&s, &digest), direct.to_json().render_pretty());
        s.shutdown();
    }

    /// What the model below knows of one admitted job.
    struct ModelJob {
        digest: String,
        tenant: String,
        priority: u64,
        plan: Arc<CampaignPlan>,
        /// Per flat index: its report exists (journaled, in a crash's terms).
        filled: Vec<bool>,
        /// Per flat index: claimed by a worker, not yet complete.
        claimed: Vec<bool>,
        finished: bool,
    }

    impl ModelJob {
        fn claimable(&self) -> bool {
            (0..self.filled.len()).any(|i| !self.filled[i] && !self.claimed[i])
        }
    }

    /// Seeded event traces against the pure [`State`] — no worker thread,
    /// no journal, no store: admit / claim / complete / crash-and-readmit,
    /// with every invariant of the lifecycle checked after every step.
    #[test]
    fn seeded_event_traces_keep_the_lifecycle_invariants() {
        use pythia_sim::stats::{CacheStats, DramStats};
        use pythia_workloads::profiles::derive_seed;

        const STEPS: usize = 1_500;
        const TENANTS: [&str; 3] = ["alice", "bob", "carol"];
        const MAX_QUANTUM: u64 = 4;
        let plans: Vec<Arc<CampaignPlan>> = [1, 2, 3, 6]
            .into_iter()
            .map(|seeds| {
                let c = seeded_campaign("model", 4_000, seeds);
                Arc::new(plan_campaign(&c.name, &c.panels).expect("plans"))
            })
            .collect();
        // The state machine never looks inside a report.
        let report = || SimReport {
            cores: Vec::new(),
            l1d: Vec::new(),
            l2: Vec::new(),
            llc: CacheStats::default(),
            dram: DramStats::default(),
            prefetchers: Vec::new(),
        };

        for label in ["model-a", "model-b", "model-c"] {
            let mut rng = derive_seed(0x5eed, label);
            let mut below = |n: u64| {
                rng = rng
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (rng >> 33) % n
            };
            let mut state = State::default();
            let mut jobs: Vec<ModelJob> = Vec::new();
            let mut in_flight: Vec<Claim> = Vec::new();
            // Since the last crash: completes per tenant, and per
            // backlogged tenant the other tenants' claim runs since it was
            // last served — `(tenant, run length)`, newest last.
            let mut completes: HashMap<String, u64> = HashMap::new();
            let mut waiting: HashMap<String, Vec<(String, u64)>> = HashMap::new();

            // Draining at the end: no admits, no crashes, until all is done.
            let mut step = 0usize;
            loop {
                let draining = step >= STEPS;
                step += 1;
                let roll = if draining { 20 + below(80) } else { below(100) };
                let at = format!("{label} step {step}");
                if roll < 17 && jobs.iter().filter(|j| !j.finished).count() < 6 {
                    // Admit, with a pre-filled subset: none, some or all.
                    let plan = Arc::clone(&plans[below(plans.len() as u64) as usize]);
                    let fill_percent = [0, 0, 40, 100][below(4) as usize];
                    let filled: Vec<bool> = (0..plan.job_count())
                        .map(|_| below(100) < fill_percent)
                        .collect();
                    let mut job = ModelJob {
                        digest: format!("{label}-{}", jobs.len()),
                        tenant: TENANTS[below(3) as usize].to_string(),
                        priority: 1 + below(MAX_QUANTUM),
                        claimed: vec![false; filled.len()],
                        plan,
                        filled,
                        finished: false,
                    };
                    job.finished = model_admit(&mut state, &job, &report);
                    assert_eq!(job.finished, job.filled.iter().all(|f| *f), "{at}");
                    if job.finished {
                        model_finish(&mut state, &job, &at);
                    }
                    jobs.push(job);
                } else if roll < 20 {
                    // Crash: in-flight claims are gone, finished jobs have
                    // their `done` record, the rest come back in
                    // submission order with their completed cells.
                    state = State::default();
                    in_flight.clear();
                    completes.clear();
                    waiting.clear();
                    for job in jobs.iter_mut().filter(|j| !j.finished) {
                        job.claimed.fill(false);
                        let arrived_complete = model_admit(&mut state, job, &report);
                        assert!(!arrived_complete, "{at}: unfinished job");
                    }
                } else if roll < 60 {
                    match state.claim() {
                        None => assert!(
                            jobs.iter().all(|j| j.finished || !j.claimable()),
                            "{at}: a claimable cell was not handed out"
                        ),
                        Some(claim) => {
                            let job = jobs
                                .iter_mut()
                                .find(|j| j.digest == claim.digest)
                                .expect("claimed job was admitted");
                            assert!(!job.finished, "{at}");
                            assert!(!job.filled[claim.flat], "{at}: filled cell re-run");
                            assert!(!job.claimed[claim.flat], "{at}: cell claimed twice");
                            job.claimed[claim.flat] = true;
                            // WRR: a tenant kept waiting sees each other
                            // tenant take one run of at most a quantum.
                            let tenant = job.tenant.clone();
                            waiting.remove(&tenant);
                            for (waiter, runs) in &mut waiting {
                                match runs.last_mut() {
                                    Some((last, len)) if *last == tenant => {
                                        *len += 1;
                                        assert!(*len <= MAX_QUANTUM, "{at}: {waiter} starved");
                                    }
                                    _ => {
                                        assert!(
                                            runs.iter().all(|(t, _)| *t != tenant),
                                            "{at}: {tenant} served twice before {waiter}"
                                        );
                                        runs.push((tenant.clone(), 1));
                                    }
                                }
                            }
                            in_flight.push(claim);
                        }
                    }
                } else if !in_flight.is_empty() {
                    let claim = in_flight.swap_remove(below(in_flight.len() as u64) as usize);
                    let job = jobs
                        .iter_mut()
                        .find(|j| j.digest == claim.digest)
                        .expect("claimed job was admitted");
                    job.claimed[claim.flat] = false;
                    job.filled[claim.flat] = true;
                    *completes.entry(job.tenant.clone()).or_default() += 1;
                    let last_cell_in = state.complete(&claim, report());
                    job.finished = job.filled.iter().all(|f| *f);
                    assert_eq!(last_cell_in, job.finished, "{at}");
                    if last_cell_in {
                        model_finish(&mut state, job, &at);
                    }
                } else if draining && jobs.iter().all(|j| j.finished) {
                    break;
                }

                // The whole state against the model, after every step.
                for job in &jobs {
                    let held = state.jobs.get(&job.digest);
                    let queued = state
                        .tenants
                        .iter()
                        .flat_map(|t| t.ready.iter().map(move |d| (&t.key, d)))
                        .filter(|(_, d)| **d == job.digest)
                        .map(|(tenant, _)| tenant)
                        .collect::<Vec<_>>();
                    if job.finished {
                        // Forgotten by a crash, or kept without its work.
                        assert!(held.is_none_or(|j| j.work.is_none()), "{at}");
                        assert!(queued.is_empty(), "{at}");
                        let listed = state.finished.iter().filter(|d| **d == job.digest);
                        assert_eq!(listed.count(), usize::from(held.is_some()), "{at}");
                        continue;
                    }
                    let held = held.expect("unfinished job is known");
                    let work = held.work.as_ref().expect("unfinished job holds work");
                    let count = |flags: &[bool]| flags.iter().filter(|f| **f).count();
                    // Monotone, because the model never clears `filled`.
                    assert_eq!(work.done, count(&job.filled), "{at}: done");
                    assert_eq!(work.in_flight, count(&job.claimed), "{at}: in flight");
                    assert_eq!(held.cells_done(), work.done, "{at}");
                    // In its tenant's ready queue exactly while a cell of
                    // it can still be claimed.
                    let expected = if job.claimable() {
                        vec![&job.tenant]
                    } else {
                        Vec::new()
                    };
                    assert_eq!(queued, expected, "{at}: ready queue of {}", job.digest);
                }
                for t in &state.tenants {
                    let expected = completes.get(&t.key).copied().unwrap_or(0);
                    assert_eq!(t.served_cells, expected, "{at}: served cells");
                }
                // Who is backlogged now: newcomers start waiting, tenants
                // with nothing left to claim stop.
                waiting.retain(|t, _| jobs.iter().any(|j| j.tenant == *t && j.claimable()));
                for job in jobs.iter().filter(|j| j.claimable()) {
                    waiting.entry(job.tenant.clone()).or_default();
                }
            }
            assert!(step > STEPS && jobs.len() >= 50, "{label}: a real trace");
            assert!(in_flight.is_empty() && state.claim().is_none(), "{label}");
        }
    }

    /// Ends a model job the way `finish` does, after checking what `finish`
    /// and a `?partial=1` reader find until then: the work, every cell in.
    fn model_finish(state: &mut State, job: &ModelJob, at: &str) {
        let (_, slots) = snapshot(state, &job.digest).expect("work is kept until settled");
        assert_eq!(slots.len(), job.plan.job_count(), "{at}: ends at plan size");
        assert!(slots.iter().all(Option::is_some), "{at}");
        state.settle(&job.digest, JobStatus::Done);
    }

    /// The table forgets finished jobs oldest first past its cap, and
    /// never a live one; a done entry whose artifact the store no longer
    /// holds is forgotten by whoever asks next.
    #[test]
    fn finished_entries_are_capped_oldest_first_and_follow_the_store() {
        let campaign = tiny_campaign("cap", 4_000);
        let plan = Arc::new(plan_campaign(&campaign.name, &campaign.panels).expect("plans"));
        let owner = || Owner {
            name: "cap".into(),
            tenant: DEFAULT_TENANT.into(),
            priority: 1,
        };
        let store = memory();
        let empty = SweepResult {
            name: "cap".into(),
            baselines: Vec::new(),
            cells: Vec::new(),
            throughput: None,
        };
        let digest = |i: usize| format!("{i:016x}");
        let mut state = State::default();
        assert!(!state.admit("live", owner(), Arc::clone(&plan), vec![None; 2]));
        for i in 0..FINISHED_JOBS_KEPT + 10 {
            store.store(&digest(i), &empty).expect("stored");
            if i % 2 == 0 {
                state.admit_done(&digest(i), owner(), 2);
            } else {
                assert!(!state.admit(&digest(i), owner(), Arc::clone(&plan), vec![None; 2]));
                state.settle(&digest(i), JobStatus::Failed("refused".into()));
            }
            assert!(state.finished.len() <= FINISHED_JOBS_KEPT);
            assert_eq!(
                state.jobs.len(),
                state.finished.len() + 1,
                "and the live one"
            );
        }
        assert!(state.jobs["live"].work.is_some());
        assert!(state.job(&store, &digest(9)).is_none(), "aged out");
        assert!(state.job(&store, &digest(10)).is_some(), "the oldest kept");

        // An evicted artifact takes its done entry with it; a failed
        // entry never had one.
        let bigger = ResultStore::in_memory(1 << 20);
        assert!(state.job(&bigger, &digest(11)).is_some(), "failed");
        assert!(
            state.job(&bigger, &digest(12)).is_none(),
            "done, artifact gone"
        );
        assert_eq!(state.finished.len(), FINISHED_JOBS_KEPT - 1);
        assert!(!state.finished.contains(&digest(12)));
        assert!(state.job(&bigger, "live").is_some());
    }

    /// Admits a model job the way `submit_as` and `replay_pending` do.
    fn model_admit(state: &mut State, job: &ModelJob, report: &impl Fn() -> SimReport) -> bool {
        let owner = Owner {
            name: job.digest.clone(),
            tenant: job.tenant.clone(),
            priority: job.priority,
        };
        let slots = job.filled.iter().map(|f| f.then(report)).collect();
        state.admit(&job.digest, owner, Arc::clone(&job.plan), slots)
    }
}
