//! Cell-granular job scheduling: a per-tenant fair ready queue, a worker
//! pool that pulls individual grid cells, in-flight dedup, a
//! content-addressed cache, and a crash-safe journal in front of the
//! simulations.
//!
//! Every submission is keyed by its campaign digest
//! ([`Campaign::digest`]). The scheduler guarantees that a digest costs at
//! most one simulation per process lifetime:
//!
//! * a digest already **done** in memory is served instantly,
//! * a digest present in the on-disk [`ResultStore`] is loaded, not run,
//! * a digest currently **queued/running** is *coalesced* — the new
//!   submission attaches to the in-flight job instead of enqueuing a copy,
//! * only a never-seen digest occupies a queue slot, and a full queue
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
//! served artifact is byte-identical to a monolithic run no matter how
//! execution interleaves.
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
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

use pythia_obs::logger::Level;
use pythia_sim::stats::SimReport;
use pythia_sweep::codec::Campaign;
use pythia_sweep::{plan_campaign, CampaignPlan, ResultStore, SweepResult};

use crate::journal::{Journal, PendingJob, DEFAULT_TENANT};
use crate::obs::{SchedulerEvents, ServeObs};

/// Upper bound on the accepted `priority` weight (quantum size): enough
/// spread to express "urgent", small enough that one tenant cannot
/// configure itself into a de-facto monopoly.
pub const MAX_PRIORITY: u64 = 100;

/// Lifecycle of one campaign job.
#[derive(Debug, Clone)]
pub enum JobStatus {
    /// Waiting in the queue.
    Queued,
    /// At least one of its cells has been claimed by a worker.
    Running,
    /// Finished; the stripped result is held in memory (and on disk when a
    /// cache directory is configured).
    Done(Arc<SweepResult>),
    /// Validation passed but execution failed (should not happen for
    /// validated specs; kept for fail-soft behaviour).
    Failed(String),
}

impl JobStatus {
    /// The wire label (`"queued"`, `"running"`, `"done"`, `"failed"`).
    pub fn label(&self) -> &'static str {
        match self {
            JobStatus::Queued => "queued",
            JobStatus::Running => "running",
            JobStatus::Done(_) => "done",
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

/// A snapshot of a job's merged-so-far result.
#[derive(Debug)]
pub struct Partial {
    /// The rows computable right now — the longest prefix of the final
    /// row order whose reports exist; the complete artifact once the job
    /// is done.
    pub result: Arc<SweepResult>,
    /// Completed cells.
    pub done: usize,
    /// Total cells in the plan.
    pub total: usize,
    /// Whether `result` is the final artifact.
    pub complete: bool,
}

/// The execution state of a not-yet-finished job. Dropped on completion
/// so finished jobs don't pin plans or report sets in memory.
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
    /// Slots handed to a worker or pre-filled by replay.
    claimed: usize,
    /// Completed cells (executed here or replayed).
    done: usize,
    /// Cells currently being simulated by a worker.
    in_flight: usize,
}

struct Job {
    /// Campaign name, kept for status responses after completion.
    name: String,
    /// Submitter key, for fair queueing and the per-tenant counters.
    tenant: String,
    /// Weighted-round-robin quantum.
    priority: u64,
    /// Planned cells (fixed at submission).
    cells_total: usize,
    /// Completed cells; mirrors `work` while running, stays at total
    /// after completion.
    cells_done: usize,
    status: JobStatus,
    work: Option<Work>,
}

/// One tenant's ready queue (campaign digests with unclaimed cells).
struct TenantQueue {
    key: String,
    ready: VecDeque<String>,
    served_cells: u64,
}

#[derive(Default)]
struct State {
    jobs: HashMap<String, Job>,
    /// Tenants in first-seen order; the round-robin universe.
    tenants: Vec<TenantQueue>,
    /// Round-robin cursor over `tenants`.
    rr_pos: usize,
    /// Cells left in the current tenant's quantum (0 = refresh on next
    /// claim from it).
    rr_credits: u64,
}

impl State {
    /// Campaigns currently holding a ready-queue slot (the 429 gauge).
    fn ready_campaigns(&self) -> usize {
        self.tenants.iter().map(|t| t.ready.len()).sum()
    }

    fn enqueue(&mut self, tenant: &str, digest: String) {
        match self.tenants.iter_mut().find(|t| t.key == tenant) {
            Some(t) => t.ready.push_back(digest),
            None => self.tenants.push(TenantQueue {
                key: tenant.to_string(),
                ready: VecDeque::from([digest]),
                served_cells: 0,
            }),
        }
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

/// Claims the next cell under weighted round-robin over tenants.
///
/// Each visit to a tenant grants up to `priority` consecutive cells from
/// its front campaign before the cursor advances; idle tenants are
/// skipped without consuming their quantum. Within a tenant, campaigns
/// are FIFO; within a campaign, cells are claimed in flat plan order
/// (skipping slots pre-filled by journal replay).
fn claim_cell(state: &mut State) -> Option<Claim> {
    let n = state.tenants.len();
    for _ in 0..n {
        let ti = state.rr_pos % n;
        // Try this tenant's front campaigns (popping exhausted ones).
        let claim = loop {
            let Some(digest) = state.tenants[ti].ready.front().cloned() else {
                break None;
            };
            let job = state.jobs.get_mut(&digest).expect("ready digest has a job");
            let work = job.work.as_mut().expect("ready job has work");
            while work.cursor < work.slots.len() && work.slots[work.cursor].is_some() {
                work.cursor += 1;
            }
            if work.cursor >= work.slots.len() {
                // Every cell is claimed or filled: out of the ready queue.
                state.tenants[ti].ready.pop_front();
                continue;
            }
            let flat = work.cursor;
            work.cursor += 1;
            while work.cursor < work.slots.len() && work.slots[work.cursor].is_some() {
                work.cursor += 1;
            }
            work.claimed += 1;
            work.in_flight += 1;
            if matches!(job.status, JobStatus::Queued) {
                job.status = JobStatus::Running;
            }
            let plan = Arc::clone(&work.plan);
            let queue_wait = work.enqueued_at.elapsed();
            let priority = job.priority;
            if work.cursor >= work.slots.len() {
                state.tenants[ti].ready.pop_front();
            }
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
                if state.rr_credits == 0 {
                    state.rr_credits = priority.max(1);
                }
                state.rr_credits -= 1;
                if state.rr_credits == 0 {
                    state.rr_pos = (ti + 1) % n;
                }
                return Some(claim);
            }
            None => {
                // Idle tenant: move on without consuming a quantum.
                state.rr_pos = (ti + 1) % n;
                state.rr_credits = 0;
            }
        }
    }
    None
}

struct Inner {
    state: Mutex<State>,
    work_ready: Condvar,
    job_finished: Condvar,
    queue_cap: usize,
    store: Option<ResultStore>,
    journal: Option<Journal>,
    shutdown: AtomicBool,
    /// Shared observability bundle: logger, and the registry every
    /// service counter lives in.
    obs: Arc<ServeObs>,
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
    /// queue bounded at `queue_cap` campaigns, an optional on-disk result
    /// store, and an optional crash-safe journal.
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
        store: Option<ResultStore>,
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
        store: Option<ResultStore>,
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
            journal,
            shutdown: AtomicBool::new(false),
            obs,
        });

        if !pending.is_empty() {
            replay_pending(&inner, pending);
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
        {
            let state = self.inner.state.lock().expect("scheduler lock");
            if let Some(hit) = Self::attach(events, &state, &digest) {
                return Ok(hit);
            }
        }

        // First sighting — expand the plan and probe the disk store
        // WITHOUT holding the lock (both touch potentially large data;
        // status polls and other submissions must not stall behind them).
        let plan = plan_campaign(&campaign.name, &campaign.panels).map_err(SubmitError::Invalid)?;
        let disk_hit = match &self.inner.store {
            None => None,
            Some(store) => match store.load(&digest) {
                Ok(hit) => hit,
                Err(e) => {
                    // A corrupt artifact must not take the digest down
                    // permanently: fall through and re-simulate.
                    self.inner.obs.logger().warn(
                        "scheduler",
                        "ignoring corrupt cache artifact",
                        &[("digest", digest.clone()), ("error", e)],
                    );
                    None
                }
            },
        };

        let mut state = self.inner.state.lock().expect("scheduler lock");
        // Re-check: a racing submission may have inserted meanwhile.
        if let Some(hit) = Self::attach(events, &state, &digest) {
            return Ok(hit);
        }

        let total = plan.job_count();
        if let Some(result) = disk_hit {
            let status = JobStatus::Done(Arc::new(result));
            state.jobs.insert(
                digest.clone(),
                Job {
                    name: campaign.name,
                    tenant: tenant.to_string(),
                    priority,
                    cells_total: total,
                    cells_done: total,
                    status: status.clone(),
                    work: None,
                },
            );
            events.cache_hits.inc();
            events.submitted.inc();
            return Ok(Submission {
                digest,
                status,
                cached: true,
                coalesced: false,
            });
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
        state.jobs.insert(
            digest.clone(),
            Job {
                name: campaign.name.clone(),
                tenant: tenant.to_string(),
                priority,
                cells_total: total,
                cells_done: 0,
                status: JobStatus::Queued,
                work: Some(Work {
                    plan: Arc::new(plan),
                    enqueued_at: std::time::Instant::now(),
                    slots: vec![None; total],
                    cursor: 0,
                    claimed: 0,
                    done: 0,
                    in_flight: 0,
                }),
            },
        );
        state.enqueue(tenant, digest.clone());
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
        })
    }

    /// Attaches a submission to an already-known digest: a cache hit when
    /// the job is finished, a coalesce onto the in-flight job otherwise.
    fn attach(events: &SchedulerEvents, state: &State, digest: &str) -> Option<Submission> {
        let job = state.jobs.get(digest)?;
        let (cached, coalesced) = match job.status {
            JobStatus::Done(_) | JobStatus::Failed(_) => (true, false),
            JobStatus::Queued | JobStatus::Running => (false, true),
        };
        if cached {
            events.cache_hits.inc();
        } else {
            events.coalesced.inc();
        }
        events.submitted.inc();
        Some(Submission {
            digest: digest.to_string(),
            status: job.status.clone(),
            cached,
            coalesced,
        })
    }

    /// Current status of a digest, with its campaign name.
    pub fn status(&self, digest: &str) -> Option<(String, JobStatus)> {
        let state = self.inner.state.lock().expect("scheduler lock");
        state
            .jobs
            .get(digest)
            .map(|j| (j.name.clone(), j.status.clone()))
    }

    /// Cell progress of a digest: `(done, total)`.
    pub fn progress(&self, digest: &str) -> Option<(usize, usize)> {
        let state = self.inner.state.lock().expect("scheduler lock");
        state
            .jobs
            .get(digest)
            .map(|j| (j.cells_done, j.cells_total))
    }

    /// The result of a digest, if the job is done.
    pub fn result(&self, digest: &str) -> Option<Arc<SweepResult>> {
        match self.status(digest) {
            Some((_, JobStatus::Done(result))) => Some(result),
            _ => None,
        }
    }

    /// The merged-so-far snapshot of a digest: the final artifact for a
    /// done job, or the longest computable row prefix for a queued or
    /// running one (merged outside the scheduler lock). `None` for
    /// unknown digests and failed jobs.
    pub fn partial(&self, digest: &str) -> Option<Partial> {
        let (plan, slots, done, total) = {
            let state = self.inner.state.lock().expect("scheduler lock");
            let job = state.jobs.get(digest)?;
            match (&job.status, &job.work) {
                (JobStatus::Done(result), _) => {
                    return Some(Partial {
                        result: Arc::clone(result),
                        done: job.cells_done,
                        total: job.cells_total,
                        complete: true,
                    })
                }
                (JobStatus::Failed(_), _) | (_, None) => return None,
                (_, Some(work)) => (
                    Arc::clone(&work.plan),
                    work.slots.clone(),
                    work.done,
                    job.cells_total,
                ),
            }
        };
        let result = plan.merge_prefix(&slots).ok()?;
        Some(Partial {
            result: Arc::new(result),
            done,
            total,
            complete: false,
        })
    }

    /// Blocks until the job for `digest` leaves the queued/running states,
    /// or until `timeout` elapses. Returns the final status, or `None` on
    /// an unknown digest or timeout.
    pub fn wait(&self, digest: &str, timeout: std::time::Duration) -> Option<JobStatus> {
        let deadline = std::time::Instant::now() + timeout;
        let mut state = self.inner.state.lock().expect("scheduler lock");
        loop {
            match state.jobs.get(digest) {
                None => return None,
                Some(job) => match &job.status {
                    JobStatus::Done(_) | JobStatus::Failed(_) => return Some(job.status.clone()),
                    JobStatus::Queued | JobStatus::Running => {}
                },
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

    /// Ready-queue occupancy and capacity (campaigns with unclaimed
    /// cells), for status output and backpressure.
    pub fn queue_depth(&self) -> (usize, usize) {
        let state = self.inner.state.lock().expect("scheduler lock");
        (state.ready_campaigns(), self.inner.queue_cap)
    }

    /// The collect step of a `/metrics` scrape: copies scheduler and
    /// store *state* (as opposed to events, which are counted where they
    /// happen) into [`ServeObs::collected`], taking the scheduler lock
    /// once. Returns the per-tenant served-cell counts in first-seen
    /// order — a JSON-only projection, because a client-chosen tenant
    /// key would be an unbounded Prometheus label.
    pub fn collect(&self) -> Vec<(String, u64)> {
        let c = &self.inner.obs.collected;
        let tenants = {
            let state = self.inner.state.lock().expect("scheduler lock");
            let (mut unclaimed, mut in_flight) = (0, 0);
            for work in state.jobs.values().filter_map(|job| job.work.as_ref()) {
                unclaimed += work.slots.len() - work.claimed;
                in_flight += work.in_flight;
            }
            c.queue_depth.set(state.ready_campaigns() as i64);
            c.cells_queued.set(unclaimed as i64);
            c.cells_in_flight.set(in_flight as i64);
            state
                .tenants
                .iter()
                .map(|t| (t.key.clone(), t.served_cells))
                .collect()
        };
        if let Some(store) = &self.inner.store {
            let stats = store.stats();
            c.store_hits.advance_to(stats.hits.load(Ordering::Relaxed));
            c.store_misses
                .advance_to(stats.misses.load(Ordering::Relaxed));
            c.store_stored
                .advance_to(stats.stored.load(Ordering::Relaxed));
            c.store_evicted
                .advance_to(stats.evicted.load(Ordering::Relaxed));
            c.store_bytes_used.set(store.bytes_used() as i64);
        }
        tenants
    }

    /// The attached result store, if any.
    pub fn store(&self) -> Option<&ResultStore> {
        self.inner.store.as_ref()
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
            let _state = self.inner.state.lock().expect("scheduler lock");
            self.inner.shutdown.store(true, Ordering::SeqCst);
        }
        self.inner.work_ready.notify_all();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

/// Re-inserts journaled jobs at startup: store hits become done jobs,
/// the rest requeue (in original submission order) with their journaled
/// cells pre-filled, and the journal is compacted down to the requeued
/// survivors. A job whose every cell was journaled is merged and marked
/// done without touching a worker.
fn replay_pending(inner: &Inner, pending: Vec<PendingJob>) {
    let mut survivors: Vec<PendingJob> = Vec::new();
    let mut state = inner.state.lock().expect("scheduler lock");
    for job in pending {
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
        let tenant = if job.tenant.is_empty() {
            DEFAULT_TENANT.to_string()
        } else {
            job.tenant.clone()
        };
        let disk_hit = inner
            .store
            .as_ref()
            .and_then(|store| store.load(&job.digest).ok().flatten());
        if let Some(result) = disk_hit {
            // The previous process finished the simulation and persisted
            // the artifact but died before the `done` record landed.
            state.jobs.insert(
                job.digest,
                Job {
                    name: job.campaign.name,
                    tenant,
                    priority: job.priority.max(1),
                    cells_total: total,
                    cells_done: total,
                    status: JobStatus::Done(Arc::new(result)),
                    work: None,
                },
            );
            continue;
        }

        let mut slots: Vec<Option<SimReport>> = vec![None; total];
        let mut filled = 0usize;
        for (index, report) in &job.cells {
            // Out-of-range indices mean the plan shape changed across
            // versions; the stale cells are ignored and re-run.
            if *index < total && slots[*index].is_none() {
                slots[*index] = Some(report.clone());
                filled += 1;
            }
        }
        inner.obs.events.cells_replayed.add(filled as u64);

        if filled == total {
            // Every cell was journaled — the process died between the
            // last cell record and the artifact/done record. Merge now.
            let reports: Vec<SimReport> =
                slots.into_iter().map(|s| s.expect("filled slot")).collect();
            let (status, name) = match plan.merge_cells(&reports) {
                Ok(result) => {
                    if let Some(store) = &inner.store {
                        if let Err(e) = store.store(&job.digest, &result) {
                            inner.obs.logger().error(
                                "scheduler",
                                "failed to persist result",
                                &[("digest", job.digest.clone()), ("error", e)],
                            );
                        }
                    }
                    inner.obs.events.completed.inc();
                    (JobStatus::Done(Arc::new(result)), job.campaign.name)
                }
                Err(e) => {
                    inner.obs.events.failed.inc();
                    (JobStatus::Failed(e), job.campaign.name)
                }
            };
            state.jobs.insert(
                job.digest,
                Job {
                    name,
                    tenant,
                    priority: job.priority.max(1),
                    cells_total: total,
                    cells_done: total,
                    status,
                    work: None,
                },
            );
            continue;
        }

        state.jobs.insert(
            job.digest.clone(),
            Job {
                name: job.campaign.name.clone(),
                tenant: tenant.clone(),
                priority: job.priority.max(1),
                cells_total: total,
                cells_done: filled,
                status: JobStatus::Queued,
                work: Some(Work {
                    plan: Arc::new(plan),
                    enqueued_at: std::time::Instant::now(),
                    slots,
                    cursor: 0,
                    claimed: filled,
                    done: filled,
                    in_flight: 0,
                }),
            },
        );
        state.enqueue(&tenant, job.digest.clone());
        survivors.push(job);
    }
    drop(state);
    if let Some(journal) = &inner.journal {
        if let Err(e) = journal.compact(&survivors) {
            inner
                .obs
                .logger()
                .error("scheduler", "journal compaction failed", &[("error", e)]);
        }
    }
}

fn worker_loop(inner: &Inner) {
    loop {
        let claim = {
            let mut state = inner.state.lock().expect("scheduler lock");
            loop {
                if inner.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                if let Some(claim) = claim_cell(&mut state) {
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
            journal.record_cell(&claim.digest, claim.flat, &report, wall);
        }

        let finished: Option<Work> = {
            let mut guard = inner.state.lock().expect("scheduler lock");
            let state = &mut *guard;
            let job = state
                .jobs
                .get_mut(&claim.digest)
                .expect("claimed job exists");
            let work = job.work.as_mut().expect("claimed job has work");
            work.slots[claim.flat] = Some(report);
            work.done += 1;
            work.in_flight -= 1;
            job.cells_done = work.done;
            if let Some(t) = state.tenants.iter_mut().find(|t| t.key == job.tenant) {
                t.served_cells += 1;
            }
            if work.done == work.slots.len() {
                // Last cell in: take the work out and merge off-lock.
                job.work.take()
            } else {
                None
            }
        };

        if let Some(work) = finished {
            let reports: Vec<SimReport> = work
                .slots
                .into_iter()
                .map(|s| s.expect("finished job has every report"))
                .collect();
            let outcome = work.plan.merge_cells(&reports);
            inner.obs.events.executed.inc();
            let (status, ok) = match outcome {
                Ok(result) => {
                    if let Some(store) = &inner.store {
                        if let Err(e) = store.store(&claim.digest, &result) {
                            inner.obs.logger().error(
                                "scheduler",
                                "failed to persist result",
                                &[("digest", claim.digest.clone()), ("error", e)],
                            );
                        }
                    }
                    inner.obs.events.completed.inc();
                    (JobStatus::Done(Arc::new(result)), true)
                }
                Err(e) => {
                    inner.obs.events.failed.inc();
                    (JobStatus::Failed(e), false)
                }
            };
            let mut state = inner.state.lock().expect("scheduler lock");
            state
                .jobs
                .get_mut(&claim.digest)
                .expect("finished job exists")
                .status = status;
            drop(state);
            if let Some(journal) = &inner.journal {
                journal.record_done(&claim.digest, ok);
            }
            inner.obs.logger().info(
                "scheduler",
                "campaign finished",
                &[("digest", claim.digest.clone()), ("ok", ok.to_string())],
            );
            inner.job_finished.notify_all();
        }
        inner.obs.workers_busy.add(-1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pythia_sweep::{engine, ConfigPoint, SweepSpec};
    use pythia_workloads::all_suites;
    use std::time::Duration;

    fn tiny_campaign(tag: &str, measure: u64) -> Campaign {
        let w = all_suites()
            .into_iter()
            .find(|w| w.name == "429.mcf-184B")
            .expect("known workload");
        Campaign::single(
            SweepSpec::new(tag)
                .with_workloads([w])
                .with_prefetchers(&["stride"])
                .with_config(ConfigPoint::single_core("base", 1_000, measure)),
        )
    }

    /// A campaign with `seeds` replications — `2 * seeds` cells (baseline
    /// + measured per seed), for exercising cell-level interleaving.
    fn seeded_campaign(tag: &str, measure: u64, seeds: u64) -> Campaign {
        let w = all_suites()
            .into_iter()
            .find(|w| w.name == "429.mcf-184B")
            .expect("known workload");
        let seeds: Vec<u64> = (0..seeds).collect();
        Campaign::single(
            SweepSpec::new(tag)
                .with_workloads([w])
                .with_prefetchers(&["stride"])
                .with_config(ConfigPoint::single_core("base", 1_000, measure))
                .with_seeds(&seeds),
        )
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
        let s = Scheduler::start(1, 8, None, None);
        let campaign = tiny_campaign("sched-basic", 4_000);
        let sub = s.submit(campaign.clone()).expect("accepted");
        assert!(!sub.cached);
        let done = s
            .wait(&sub.digest, Duration::from_secs(60))
            .expect("finishes");
        assert!(matches!(done, JobStatus::Done(_)));
        assert_eq!(s.progress(&sub.digest), Some((2, 2)), "baseline + cell");

        let again = s.submit(campaign).expect("accepted");
        assert!(again.cached, "second submission hits the done map");
        assert!(matches!(again.status, JobStatus::Done(_)));
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
        let s = Scheduler::start(1, 8, None, None);
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
        assert!(matches!(done, JobStatus::Done(_)));
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
        let s = Scheduler::start(0, 2, None, None);
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
        let s = Scheduler::start(0, 2, None, None);
        let invalid = Campaign::single(SweepSpec::new("empty"));
        match s.submit(invalid).unwrap_err() {
            SubmitError::Invalid(msg) => assert!(msg.contains("no work units"), "{msg}"),
            other => panic!("expected Invalid, got {other:?}"),
        }
        assert!(s.status("0123456789abcdef").is_none());
        s.shutdown();
    }

    #[test]
    fn weighted_round_robin_interleaves_tenants_cell_by_cell() {
        // No workers: claim synthetically and observe the schedule.
        let s = Scheduler::start(0, 8, None, None);
        let big = seeded_campaign("wrr-big", 4_000, 6); // 12 cells
        let small = seeded_campaign("wrr-small", 4_000, 2); // 4 cells
        let big_digest = big.digest();
        let small_digest = small.digest();
        s.submit_as(big, "alice", 1).expect("accepted");
        s.submit_as(small, "bob", 1).expect("accepted");

        let mut order = Vec::new();
        {
            let mut state = s.inner.state.lock().expect("lock");
            while let Some(claim) = claim_cell(&mut state) {
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
        let s = Scheduler::start(0, 8, None, None);
        let heavy = seeded_campaign("prio-heavy", 4_000, 6); // 12 cells
        let light = seeded_campaign("prio-light", 4_000, 6);
        let heavy_digest = heavy.digest();
        s.submit_as(heavy, "alice", 3).expect("accepted");
        s.submit_as(light, "bob", 1).expect("accepted");

        let mut order = Vec::new();
        {
            let mut state = s.inner.state.lock().expect("lock");
            for _ in 0..8 {
                order.push(claim_cell(&mut state).expect("cells left").digest);
            }
        }
        // Priority 3 vs 1: alice gets 3 cells per visit, bob 1.
        let alice_share = order.iter().filter(|d| **d == heavy_digest).count();
        assert_eq!(alice_share, 6, "3:1 quantum over 8 claims");
        s.shutdown();
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
            let s = Scheduler::start(1, 8, Some(store), Some(journal));
            s.submit(campaign.clone()).expect("accepted");
            // Wait until at least two cells completed, then pull the plug.
            let deadline = std::time::Instant::now() + Duration::from_secs(60);
            loop {
                let (done, _) = s.progress(&digest).expect("known digest");
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
        // monolithic run.
        {
            let store = ResultStore::open(&store_dir).expect("store");
            let journal = Journal::open(&journal_path).expect("journal");
            let s = Scheduler::start(1, 8, Some(store), Some(journal));
            assert_eq!(s.obs().events.replayed.get(), 1);
            assert_eq!(
                s.obs().events.cells_replayed.get(),
                phase1_cells,
                "every journaled cell restored, none lost"
            );
            let done = s
                .wait(&digest, Duration::from_secs(120))
                .expect("resumed job finishes");
            assert!(matches!(done, JobStatus::Done(_)));
            assert_eq!(
                s.obs().events.cells_executed.get(),
                8 - phase1_cells,
                "only the unfinished cells re-executed"
            );
            let resumed = s.result(&digest).expect("result");
            assert_eq!(
                resumed.to_json().render_pretty(),
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
            let s = Scheduler::start(0, 8, None, Some(journal));
            s.submit_as(campaign.clone(), "\u{e5}lice", 1)
                .expect("accepted");
            let journal = s.inner.journal.as_ref().expect("journal attached");
            assert_eq!(
                journal.synced_len(),
                std::fs::metadata(&journal_path).expect("journal").len(),
                "acknowledged means durable"
            );
            for _ in 0..2 {
                let claim = claim_cell(&mut s.inner.state.lock().expect("lock"));
                let claim = claim.expect("cells left");
                let started = std::time::Instant::now();
                let report = claim.plan.jobs()[claim.flat].run();
                journal.record_cell(&digest, claim.flat, &report, started.elapsed());
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
            let s = Scheduler::start_with_obs(1, 8, None, Some(journal), obs);
            let done = s
                .wait(&digest, Duration::from_secs(120))
                .expect("the acknowledged campaign is known and finishes");
            assert!(matches!(done, JobStatus::Done(_)), "cut {cut}");
            assert_eq!(
                s.result(&digest).expect("result").to_json().render_pretty(),
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
            let s = Scheduler::start(0, 8, Some(store), Some(journal));
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
            let s = Scheduler::start(1, 8, Some(store), Some(journal));
            assert_eq!(s.obs().events.replayed.get(), 2);
            for c in [&a, &b] {
                let done = s
                    .wait(&c.digest(), Duration::from_secs(60))
                    .expect("replayed job finishes");
                assert!(matches!(done, JobStatus::Done(_)));
            }
            // Byte-identical to a direct run of the same campaign.
            let direct = engine::run_all(&a.name, &a.panels, 1)
                .expect("direct run")
                .stripped();
            let replayed = s.result(&a.digest()).expect("result");
            assert_eq!(
                replayed.to_json().render_pretty(),
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
            let s = Scheduler::start(1, 8, Some(store), Some(journal));
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
        let s = Scheduler::start(0, 8, Some(store), Some(journal));
        assert_eq!(s.obs().events.replayed.get(), 1);
        // Resolved from the store without a worker (there are none).
        assert!(s.result(&a.digest()).is_some());
        let (depth, _) = s.queue_depth();
        assert_eq!(depth, 0, "nothing requeued");
        // The journal compacted down to nothing.
        let text = std::fs::read_to_string(&journal_path).expect("read journal");
        assert!(text.is_empty(), "compacted journal is empty: {text:?}");
        s.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn partial_merges_are_monotonic_prefixes_of_the_final_result() {
        // No workers: fill cells via synthetic claims so every partial
        // state is deterministic.
        let s = Scheduler::start(0, 8, None, None);
        let campaign = seeded_campaign("partial", 4_000, 3); // 6 cells
        let digest = campaign.digest();
        s.submit(campaign.clone()).expect("accepted");

        let direct = engine::run_all(&campaign.name, &campaign.panels, 1)
            .expect("direct")
            .stripped();

        let empty = s.partial(&digest).expect("known digest");
        assert_eq!((empty.done, empty.total), (0, 6));
        assert!(!empty.complete);
        assert!(empty.result.baselines.is_empty() && empty.result.cells.is_empty());

        // Complete cells one at a time (in plan order) and check each
        // partial is a prefix of the final rows with monotonic progress.
        let mut last_rows = 0usize;
        for step in 0..6usize {
            let (flat, plan) = {
                let mut state = s.inner.state.lock().expect("lock");
                let claim = claim_cell(&mut state).expect("cells left");
                (claim.flat, claim.plan)
            };
            let report = plan.jobs()[flat].run();
            {
                let mut guard = s.inner.state.lock().expect("lock");
                let state = &mut *guard;
                let job = state.jobs.get_mut(&digest).expect("job");
                let work = job.work.as_mut().expect("work");
                work.slots[flat] = Some(report);
                work.done += 1;
                work.in_flight -= 1;
                job.cells_done = work.done;
            }
            let partial = s.partial(&digest).expect("known digest");
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
        let full = s.partial(&digest).expect("known digest");
        assert_eq!(full.done, 6);
        assert_eq!(*full.result, direct, "full prefix equals the direct run");
        s.shutdown();
    }
}
