//! The campaign service: TCP accept loop + request routing.
//!
//! | Route | Meaning |
//! |---|---|
//! | `GET /figures` | figure-registry listing (id, title, panels, cells, digest) |
//! | `POST /campaigns` | submit `{"figure": id}`, `{"spec": {...}}` or `{"campaign": {...}}`, optionally with `"tenant"` and `"priority"` |
//! | `GET /campaigns/<digest>` | job status, cell progress + service counters |
//! | `GET /campaigns/<digest>/result?format=md\|json\|csv` | the stored result, `json` byte for byte as stored (ETag / If-None-Match aware) |
//! | `GET /campaigns/<digest>/result?partial=1` | merged-so-far prefix (`206`) or the final result (`200`), with `x-cells-done`/`x-cells-total` |
//! | `GET /metrics` | queue + cell depth, worker occupancy, per-tenant served cells, store + connection counters, Minst/s |
//!
//! Submissions answer `200` when the digest is already done (cache hit),
//! `202` when queued/running/coalesced, `429` when the bounded queue is
//! full, and `400` for malformed or invalid campaigns. Results answer
//! `409` while the job is still in flight (unless `partial=1` asks for
//! the merged-so-far prefix), and `304` when the client's
//! `If-None-Match` matches the digest-derived `ETag`. They are answered
//! by the result store, so a digest it holds is a `200` whether or not
//! this process ever ran or was asked for the campaign.
//!
//! Connections are persistent: each accepted connection gets a handler
//! thread of its own, which loops over the connection's requests until the
//! peer asks for `Connection: close`, idles past the timeout (answered with
//! `408`), or errors, and then ends. Clients keep their connections, so a
//! thread is started per client, not per request. A server-wide connection
//! cap sheds load with a clean `503` instead of letting accept-queue growth
//! hide saturation.

use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::Arc;
use std::time::Duration;

use pythia_obs::logger::Level;
use pythia_obs::metrics::{Gauge, Histogram, Instrument, Registry};
use pythia_stats::json::{parse, Json};
use pythia_sweep::codec::{is_digest, Campaign};
use pythia_sweep::ResultStore;

use crate::http::{write_response, Request, RequestError, RequestReader, Response, IO_TIMEOUT};
use crate::journal::{Journal, DEFAULT_TENANT};
use crate::obs::{self, ServeObs};
use crate::scheduler::{JobStatus, Scheduler, Submission, SubmitError};

/// Server construction parameters.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Worker slots accepting campaigns (0 allowed for tests).
    pub workers: usize,
    /// Bounded job-queue capacity (backpressure threshold).
    pub queue_cap: usize,
    /// Simulation parallelism per worker slot. Cells are the scheduling
    /// unit, so the service runs `workers * sim_threads` cell workers —
    /// the same peak parallelism the pre-cell scheduler had.
    pub sim_threads: usize,
    /// Result store directory. `None` keeps the artifacts on the heap
    /// instead, under the same eviction rule; they end with the process.
    pub cache_dir: Option<std::path::PathBuf>,
    /// Byte budget for the result store. `None` = unbounded in a
    /// `cache_dir`, [`MEMORY_STORE_BYTES`] without one.
    pub cache_max_bytes: Option<u64>,
    /// Maximum simultaneously-open connections; excess connects get 503.
    pub max_conns: usize,
    /// How long a kept-alive connection may idle before a 408 + close.
    pub idle_timeout: Duration,
    /// Journal file for crash-safe job recovery. Defaults to
    /// `journal.jsonl` inside `cache_dir` when unset; `None` with no
    /// `cache_dir` means no journal.
    pub journal: Option<std::path::PathBuf>,
    /// Structured-log threshold (JSONL on stderr). The library default
    /// is `Level::Warn` (quiet for embedded/test use); the CLI defaults
    /// `--log-level` to `info`.
    pub log_level: Level,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            workers: 1,
            queue_cap: 64,
            sim_threads: 1,
            cache_dir: None,
            cache_max_bytes: None,
            max_conns: 64,
            idle_timeout: IO_TIMEOUT,
            journal: None,
            log_level: Level::Warn,
        }
    }
}

/// Budget of the in-memory result store when the configuration names
/// none. The registry's largest artifact (fig09, 500 cells) is 350 KB, so
/// 64 MiB holds every figure of the paper some ten times over — and is what
/// a server left running for a week holds instead of everything it ran.
pub const MEMORY_STORE_BYTES: u64 = 64 << 20;

/// A claimed connection slot: decrements the active-connection gauge when
/// the connection's handler lets go of it, however that happens.
struct ActiveGuard(Arc<ServeObs>);

impl Drop for ActiveGuard {
    fn drop(&mut self) {
        self.0.connections_active.add(-1);
    }
}

/// A bound, ready-to-serve campaign service.
pub struct Server {
    listener: TcpListener,
    scheduler: Arc<Scheduler>,
    max_conns: usize,
    idle_timeout: Duration,
}

/// Handle to a server running on a background thread (test harness /
/// embedded use).
pub struct ServerHandle {
    addr: SocketAddr,
    scheduler: Arc<Scheduler>,
}

impl ServerHandle {
    /// The bound address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The shared scheduler (direct status checks; its
    /// [`Scheduler::obs`] holds every service counter).
    pub fn scheduler(&self) -> &Scheduler {
        &self.scheduler
    }
}

impl Server {
    /// Binds the service.
    ///
    /// # Errors
    ///
    /// Returns a message when the address cannot be bound or the cache
    /// directory/journal cannot be opened.
    pub fn bind(addr: &str, config: &ServeConfig) -> Result<Self, String> {
        let obs = Arc::new(ServeObs::new(config.log_level));
        let store = match &config.cache_dir {
            Some(dir) => ResultStore::open_bounded(dir.clone(), config.cache_max_bytes)?,
            None => ResultStore::in_memory(config.cache_max_bytes.unwrap_or(MEMORY_STORE_BYTES)),
        };
        let journal_path = config.journal.clone().or_else(|| {
            config
                .cache_dir
                .as_ref()
                .map(|dir| dir.join("journal.jsonl"))
        });
        let journal = match journal_path {
            None => None,
            Some(path) => Some(Journal::open_with_obs(path, Arc::clone(&obs))?),
        };
        let listener = TcpListener::bind(addr).map_err(|e| format!("bind {addr}: {e}"))?;
        let scheduler = Arc::new(Scheduler::start_with_obs(
            config.workers * config.sim_threads.max(1),
            config.queue_cap,
            store,
            journal,
            obs,
        ));
        Ok(Self {
            listener,
            scheduler,
            max_conns: config.max_conns.max(1),
            idle_timeout: config.idle_timeout,
        })
    }

    /// The bound address (resolves `:0` ephemeral ports).
    ///
    /// # Errors
    ///
    /// Returns a message if the socket address cannot be read.
    pub fn local_addr(&self) -> Result<SocketAddr, String> {
        self.listener
            .local_addr()
            .map_err(|e| format!("local_addr: {e}"))
    }

    /// Serves forever on the calling thread, each connection on a thread of
    /// its own. Only returns on an accept error.
    ///
    /// # Errors
    ///
    /// Returns a message if the listener fails.
    pub fn serve_forever(self) -> Result<(), String> {
        let obs = self.scheduler.obs();
        for stream in self.listener.incoming() {
            let mut stream = stream.map_err(|e| format!("accept: {e}"))?;
            obs.connections.accepted.inc();
            // Claim the slot in the accept loop, not the handler thread,
            // so a connect burst cannot overshoot the cap before the
            // handlers get scheduled. No slot: the connection is shed.
            let slot = if obs.connections_active.get() >= self.max_conns as i64 {
                obs.connections.rejected.inc();
                None
            } else {
                obs.connections_active.add(1);
                Some(ActiveGuard(Arc::clone(obs)))
            };
            let (scheduler, idle) = (Arc::clone(&self.scheduler), self.idle_timeout);
            let handler = std::thread::Builder::new()
                .name("serve-handler".into())
                // `_slot`, unlike `_`, is a binding: the thread holds the
                // slot until the connection is done, so the cap holds.
                .spawn(move || match slot {
                    Some(_slot) => handle_connection(&scheduler, &mut stream, idle),
                    None => reject_connection(stream),
                });
            // A thread the OS refuses drops the connection, and its slot.
            if let Err(e) = handler {
                obs.logger().warn(
                    "server",
                    "dropping connection: no handler thread",
                    &[("error", e.to_string())],
                );
            }
        }
        Ok(())
    }

    /// Spawns the accept loop on a background thread and returns a handle
    /// (the thread is detached; dropping the handle leaves it serving, so
    /// this is for tests and embedded smoke use).
    ///
    /// # Errors
    ///
    /// Returns a message if the socket address cannot be read.
    pub fn spawn(self) -> Result<ServerHandle, String> {
        let addr = self.local_addr()?;
        let scheduler = Arc::clone(&self.scheduler);
        let obs = Arc::clone(scheduler.obs());
        std::thread::spawn(move || {
            if let Err(e) = self.serve_forever() {
                obs.logger()
                    .error("server", "accept loop stopped", &[("error", e)]);
            }
        });
        Ok(ServerHandle { addr, scheduler })
    }
}

/// Sheds a connection over the cap with a 503 and closes it.
fn reject_connection(mut stream: TcpStream) {
    let _ = stream.set_write_timeout(Some(IO_TIMEOUT));
    let response = error_response(503, "connection limit reached, retry later");
    let _ = write_response(&mut stream, &response, false);
}

fn handle_connection(scheduler: &Scheduler, stream: &mut TcpStream, idle_timeout: Duration) {
    let obs = scheduler.obs();
    // Nagle off: a response is one write, and what does not fill a segment
    // must not wait for the ACK of what did.
    if stream.set_read_timeout(Some(idle_timeout)).is_err()
        || stream.set_write_timeout(Some(IO_TIMEOUT)).is_err()
        || stream.set_nodelay(true).is_err()
    {
        return;
    }
    let mut reader = RequestReader::new();
    loop {
        match reader.read_request(stream) {
            Ok(request) => {
                obs.connections.requests.inc();
                let keep_alive = !request.close;
                let started = std::time::Instant::now();
                let (key, response) = route(scheduler, &request);
                obs.record_request(
                    key,
                    started.elapsed().as_micros() as u64,
                    response.body.len() as u64,
                );
                if write_response(stream, &response, keep_alive).is_err() || !keep_alive {
                    return;
                }
            }
            Err(RequestError::Closed) => return,
            Err(RequestError::Timeout) => {
                obs.connections.timeouts.inc();
                let response = error_response(408, "idle timeout waiting for a request");
                let _ = write_response(stream, &response, false);
                return;
            }
            Err(RequestError::TooLarge(e)) => {
                let _ = write_response(stream, &error_response(413, &e), false);
                return;
            }
            Err(RequestError::Malformed(e)) => {
                let message = format!("bad request: {e}");
                let _ = write_response(stream, &error_response(400, &message), false);
                return;
            }
            Err(RequestError::Io(e)) => {
                obs.logger()
                    .warn("server", "dropping connection", &[("error", e.to_string())]);
                return;
            }
        }
    }
}

fn error_response(status: u16, message: &str) -> Response {
    Response::json(status, Json::obj().set("error", message).render_pretty())
}

/// Routes one request (exposed for in-process tests). Returns the
/// response and the route's key in [`obs::ROUTE_KEYS`] — the one place a
/// request is classified.
pub fn route(scheduler: &Scheduler, request: &Request) -> (&'static str, Response) {
    let segments: Vec<&str> = request.path.split('/').filter(|s| !s.is_empty()).collect();
    match (request.method.as_str(), segments.as_slice()) {
        ("GET", ["figures"]) => ("figures", figures_response()),
        ("GET", ["metrics"]) => (
            "metrics",
            metrics_response(scheduler, request.query("format") == Some("prom")),
        ),
        ("POST", ["campaigns"]) => ("submit", submit(scheduler, &request.body)),
        ("GET", ["campaigns", digest]) => ("status", status(scheduler, digest)),
        ("GET", ["campaigns", digest, "result"]) => (
            "result",
            result(
                scheduler,
                digest,
                request.query("format").unwrap_or("json"),
                request.header("if-none-match"),
                request.query("partial") == Some("1"),
            ),
        ),
        ("POST", _) | ("GET", _) => ("other", error_response(404, "no such route")),
        _ => ("other", error_response(405, "method not allowed")),
    }
}

fn figures_response() -> Response {
    // Expanding ~20 registry grids and digesting their canonical JSON is
    // milliseconds of CPU per call, and the listing is constant for the
    // process lifetime (the budget scale is fixed at startup) — render once.
    static LISTING: std::sync::OnceLock<String> = std::sync::OnceLock::new();
    let body = LISTING.get_or_init(|| {
        let list: Vec<Json> = pythia_bench::figures::registry()
            .iter()
            .map(|def| {
                let campaign = pythia_bench::figures::campaign(def.id)
                    .expect("registry entries resolve themselves");
                Json::obj()
                    .set("id", def.id)
                    .set("title", def.title)
                    .set("panels", campaign.panels.len())
                    .set("cells", campaign.cell_count())
                    .set("digest", campaign.digest())
            })
            .collect();
        Json::obj().set("figures", Json::Arr(list)).render_pretty()
    });
    Response::json(200, body.clone())
}

/// A non-negative gauge as a JSON number.
fn gauge_json(gauge: &Gauge) -> Json {
    Json::from(gauge.get().max(0) as u64)
}

/// Appends one key per sample of a labelled family to `obj`: the label
/// value, and the count or summary — so a JSON object and its Prometheus
/// family cannot name different events or routes.
fn family_json(mut obj: Json, registry: &Registry, family: &str) -> Json {
    for sample in registry.family(family).map_or(Vec::new(), |f| f.samples) {
        let Some((_, label)) = sample.labels.first() else {
            continue;
        };
        let value = match &sample.instrument {
            Instrument::Counter(c) => Json::from(c.get()),
            Instrument::Gauge(g) => gauge_json(g),
            Instrument::Histogram(h) => summary_json(h),
        };
        obj = obj.set(label, value);
    }
    obj
}

/// The `counters` object of `/metrics` and of status responses.
fn counters_json(obs: &ServeObs) -> Json {
    family_json(Json::obj(), obs.registry(), obs::SCHEDULER_EVENTS)
}

/// `GET /metrics`: one collect step, then a view of the registry.
/// `?format=prom` is the registry rendered as Prometheus text (0.0.4) and
/// nothing else; the default is a JSON projection of the same handles —
/// queue, cell gauges, job-table size, workers, scheduler counters, store occupancy,
/// connection gauges, aggregate simulation throughput (Minst/s), latency
/// summaries — plus per-tenant served cells, which only JSON carries.
fn metrics_response(scheduler: &Scheduler, prom: bool) -> Response {
    let tenants = scheduler.collect();
    let obs = scheduler.obs();
    if prom {
        return Response {
            status: 200,
            content_type: "text/plain; version=0.0.4; charset=utf-8",
            body: Arc::new(pythia_obs::prom::render(obs.registry()).into_bytes()),
            headers: Vec::new(),
        };
    }
    let c = &obs.collected;
    // `enabled` is a constant, every service having a store; monitoring
    // clients read the key.
    let max_bytes = scheduler.store().max_bytes();
    let store = Json::obj()
        .set("enabled", true)
        .set("hits", c.store_hits.get())
        .set("misses", c.store_misses.get())
        .set("stored", c.store_stored.get())
        .set("evicted", c.store_evicted.get())
        .set("bytes_used", gauge_json(&c.store_bytes_used))
        .set("max_bytes", max_bytes.map_or(Json::Null, Json::from));
    let mut tenants_json = Json::obj();
    for (key, served) in tenants {
        tenants_json = tenants_json.set(&key, served);
    }
    let (instructions, wall_us) = (obs.sim_instructions.get(), obs.sim_wall_us.get());
    // Instructions per microsecond is Minst/s.
    let minst_per_sec = if wall_us > 0 {
        instructions as f64 / wall_us as f64
    } else {
        0.0
    };
    let body = Json::obj()
        .set(
            "queue",
            Json::obj()
                .set("depth", gauge_json(&c.queue_depth))
                .set("cap", gauge_json(&c.queue_cap)),
        )
        .set(
            "cells",
            Json::obj()
                .set("queued", gauge_json(&c.cells_queued))
                .set("in_flight", gauge_json(&c.cells_in_flight))
                .set("executed", obs.events.cells_executed.get())
                .set("replayed", obs.events.cells_replayed.get()),
        )
        .set(
            "jobs",
            Json::obj().set("resident", gauge_json(&c.jobs_resident)),
        )
        .set(
            "workers",
            Json::obj()
                .set("busy", gauge_json(&obs.workers_busy))
                .set("total", gauge_json(&c.workers_total)),
        )
        .set("counters", counters_json(obs))
        .set("tenants", tenants_json)
        .set("store", store)
        .set(
            "connections",
            family_json(
                Json::obj().set("active", gauge_json(&obs.connections_active)),
                obs.registry(),
                obs::CONNECTION_EVENTS,
            ),
        )
        .set(
            "results",
            family_json(Json::obj(), obs.registry(), obs::RESULT_EVENTS),
        )
        .set(
            "throughput",
            Json::obj()
                .set("sim_instructions", instructions)
                .set("sim_wall_seconds", Json::Num(wall_us as f64 / 1e6))
                .set("minst_per_sec", Json::Num(minst_per_sec)),
        )
        .set("latency", latency_json(obs))
        .render_pretty();
    Response::json(200, body)
}

/// Percentile summary of one histogram as JSON (`_us` units come from
/// the histogram's own name/help).
fn summary_json(h: &Histogram) -> Json {
    let s = h.summary();
    Json::obj()
        .set("count", s.count)
        .set("sum", s.sum)
        .set("p50", s.p50)
        .set("p95", s.p95)
        .set("p99", s.p99)
        .set("max", s.max)
}

/// The `latency` key of `/metrics`: per-route request latency plus the
/// scheduler's cell queue-wait/execution and journal fsync summaries
/// (all in microseconds).
fn latency_json(obs: &ServeObs) -> Json {
    let routes = family_json(Json::obj(), obs.registry(), obs::ROUTE_LATENCY);
    Json::obj()
        .set("routes_us", routes)
        .set("cell_queue_wait_us", summary_json(&obs.cell_queue_wait_us))
        .set("cell_execution_us", summary_json(&obs.cell_execution_us))
        .set("journal_fsync_us", summary_json(&obs.journal_fsync_us))
}

/// Decodes a submission body into a campaign: `{"figure": id}` resolves
/// through the figure registry, `{"spec": {...}}` wraps one canonical
/// spec, `{"campaign": {...}}` is the full canonical form.
fn campaign_of(json: &Json) -> Result<Campaign, String> {
    match (json.get("figure"), json.get("spec"), json.get("campaign")) {
        (Some(fig), None, None) => {
            let id = fig.as_str().ok_or("\"figure\" must be a string")?;
            pythia_bench::figures::campaign(id)
                .ok_or_else(|| format!("unknown figure {id:?}; see GET /figures"))
        }
        (None, Some(spec), None) => {
            Ok(Campaign::single(pythia_sweep::codec::spec_from_json(spec)?))
        }
        (None, None, Some(campaign)) => Campaign::from_json(campaign),
        _ => Err("body must have exactly one of \"figure\", \"spec\", \"campaign\"".into()),
    }
}

/// Decodes the optional scheduling fields of a submission body:
/// `"tenant"` (submitter key for fair queueing, default `"default"`) and
/// `"priority"` (weighted-round-robin quantum, clamped by the scheduler
/// to `1..=`[`crate::scheduler::MAX_PRIORITY`]).
fn submit_params(json: &Json) -> Result<(String, u64), String> {
    let tenant = match json.get("tenant") {
        None => DEFAULT_TENANT.to_string(),
        Some(t) => t.as_str().ok_or("\"tenant\" must be a string")?.to_string(),
    };
    let priority = match json.get("priority") {
        None => 1,
        Some(p) => p
            .as_u64()
            .ok_or("\"priority\" must be a non-negative integer")?,
    };
    Ok((tenant, priority))
}

/// `POST /campaigns`. A body accepted lately takes the lane: its bytes name
/// the digest, and the submission attaches to it without a parse. Every
/// other body takes the general path, and one it accepts is kept for the
/// lane. Both answer a body alike, counters included.
fn submit(scheduler: &Scheduler, body: &[u8]) -> Response {
    if let Some((submission, name)) = scheduler.attach_body(body) {
        return accepted(&submission, &name);
    }
    match submit_general(scheduler, body) {
        Ok((submission, name)) => {
            scheduler
                .submissions()
                .insert(body, &submission.digest, &name);
            accepted(&submission, &name)
        }
        Err(response) => response,
    }
}

/// The general path of a submission: parse, decode, validate, digest and
/// submit. Returns what was accepted and the campaign name, or the error
/// response.
fn submit_general(scheduler: &Scheduler, body: &[u8]) -> Result<(Submission, String), Response> {
    let json = std::str::from_utf8(body)
        .map_err(|_| "body is not utf-8".to_string())
        .and_then(parse)
        .map_err(|e| error_response(400, &e))?;
    let campaign = campaign_of(&json).map_err(|e| error_response(400, &e))?;
    let (tenant, priority) = submit_params(&json).map_err(|e| error_response(400, &e))?;
    let name = campaign.name.clone();
    match scheduler.submit_as(campaign, &tenant, priority) {
        Ok(submission) => Ok((submission, name)),
        Err(SubmitError::Invalid(e)) => Err(error_response(400, &e)),
        Err(SubmitError::Busy { queue_cap }) => Err(Response::json(
            429,
            Json::obj()
                .set("error", "job queue full, retry later")
                .set("queue_cap", queue_cap)
                .render_pretty(),
        )),
    }
}

/// The answer to an accepted submission: `200` for a cache hit, `202` for a
/// job queued, running or coalesced onto.
fn accepted(submission: &Submission, name: &str) -> Response {
    let status = if submission.cached { 200 } else { 202 };
    let (done, total) = (submission.cells_done, submission.cells_total);
    Response::json(
        status,
        Json::obj()
            .set("digest", submission.digest.as_str())
            .set("name", name)
            .set("status", submission.status.label())
            .set("cached", submission.cached)
            .set("coalesced", submission.coalesced)
            .set("cells", Json::obj().set("done", done).set("total", total))
            .render_pretty(),
    )
}

fn status(scheduler: &Scheduler, digest: &str) -> Response {
    if !is_digest(digest) {
        return error_response(400, &format!("malformed digest {digest:?}"));
    }
    match scheduler.status(digest) {
        None => error_response(404, &format!("unknown campaign {digest:?}")),
        Some(job) => {
            let mut out = Json::obj()
                .set("digest", digest)
                .set("name", job.name)
                .set("status", job.status.label());
            if let JobStatus::Failed(e) = &job.status {
                out = out.set("error", e.as_str());
            }
            let cells = Json::obj()
                .set("done", job.cells_done)
                .set("total", job.cells_total);
            let queue = Json::obj()
                .set("depth", job.queue_depth)
                .set("cap", gauge_json(&scheduler.obs().collected.queue_cap));
            Response::json(
                200,
                out.set("cells", cells)
                    .set("queue", queue)
                    .set("counters", counters_json(scheduler.obs()))
                    .render_pretty(),
            )
        }
    }
}

/// The `ETag` for a rendered result: digest plus render format. Strong
/// validation is sound because identical digests render identical bytes
/// (bit-deterministic sims, canonical encoding).
fn result_etag(digest: &str, format: &str) -> String {
    format!("\"{digest}.{format}\"")
}

/// Whether an `If-None-Match` header matches `etag` (token list; `*`
/// matches anything).
fn if_none_match_hits(header: &str, etag: &str) -> bool {
    header.split(',').any(|token| {
        let token = token.trim();
        let token = token.strip_prefix("W/").unwrap_or(token);
        token == "*" || token == etag
    })
}

/// Normalizes format aliases, so "md" and "markdown" share one `ETag`
/// (and one entry of the recent-renders cache).
fn format_key(format: &str) -> &str {
    if format == "markdown" {
        "md"
    } else {
        format
    }
}

fn result_content_type(format_key: &str) -> &'static str {
    match format_key {
        "json" => "application/json",
        "csv" => "text/csv; charset=utf-8",
        _ => "text/markdown; charset=utf-8",
    }
}

/// Adds the `x-cells-done` / `x-cells-total` pair of a `?partial=1` answer.
fn with_cells(response: Response, done: usize, total: usize) -> Response {
    response
        .with_header("x-cells-done", done.to_string())
        .with_header("x-cells-total", total.to_string())
}

/// The result routes. `?partial=1` on a live job is the merged-so-far
/// prefix (`206`): every partial renders the same format the final result
/// uses, and its rows are a prefix of the final row order — a polling
/// client can trust every row it has already seen. Everything else is the
/// job table's `409` for a job still running or failed, or the store's
/// answer: a digest the table calls done, or does not know, is a `200`
/// exactly when the store holds its artifact.
fn result(
    scheduler: &Scheduler,
    digest: &str,
    format: &str,
    if_none_match: Option<&str>,
    partial: bool,
) -> Response {
    if !is_digest(digest) {
        return error_response(400, &format!("malformed digest {digest:?}"));
    }
    if let Some(snapshot) = partial.then(|| scheduler.partial(digest)).flatten() {
        return match snapshot.result.render(format) {
            Err(e) => error_response(400, &e),
            Ok(rendered) => with_cells(
                Response {
                    status: 206,
                    content_type: result_content_type(format_key(format)),
                    body: Arc::new(rendered.into_bytes()),
                    headers: Vec::new(),
                },
                snapshot.done,
                snapshot.total,
            ),
        };
    }
    let job = scheduler.status(digest);
    match job.as_ref().map(|job| &job.status) {
        Some(JobStatus::Failed(e)) => {
            return error_response(409, &format!("campaign failed: {e}"));
        }
        // With `partial`: the engine refuses a row already, and the job
        // will end as failed.
        Some(JobStatus::Queued | JobStatus::Running) => {
            let hint = if partial { "" } else { " or pass ?partial=1" };
            let wait = format!("campaign not done yet; poll GET /campaigns/<digest>{hint}");
            return error_response(409, &wait);
        }
        Some(JobStatus::Done) | None => {}
    }
    let etag = result_etag(digest, format_key(format));
    if if_none_match.is_some_and(|header| if_none_match_hits(header, &etag))
        && scheduler.store().contains(digest)
    {
        return Response::text(304, "").with_header("etag", etag);
    }
    let response = artifact(scheduler, digest, format, etag);
    match job {
        Some(job) if partial && response.status == 200 => {
            with_cells(response, job.cells_total, job.cells_total)
        }
        _ => response,
    }
}

/// The answer for a stored artifact under its `ETag`, through the
/// recent-renders cache: for `json` the bytes as stored — what the worker
/// rendered once, when the campaign finished — and for the other formats
/// a render of the loaded result. Nothing else reads or fills that cache,
/// so an entry is always a final artifact. An artifact the store finds
/// damaged is gone when it says so: one warning, `404`, and the next
/// submission of the campaign runs it again.
fn artifact(scheduler: &Scheduler, digest: &str, format: &str, etag: String) -> Response {
    let (store, obs) = (scheduler.store(), scheduler.obs());
    let damaged = |e: String| {
        obs.logger().warn(
            "server",
            "dropped a damaged artifact",
            &[("digest", digest.to_string()), ("error", e)],
        );
        error_response(404, "the stored artifact was damaged; submit again")
    };
    let fetched = scheduler.renders().get_or_render(&obs.results, &etag, || {
        if format_key(format) == "json" {
            return store.bytes(digest).map_err(damaged);
        }
        let Some(result) = store.load(digest).map_err(damaged)? else {
            return Ok(None);
        };
        let rendered = result.render(format).map_err(|e| error_response(400, &e))?;
        Ok(Some(Arc::new(rendered.into_bytes())))
    });
    match fetched {
        Err(response) => response,
        Ok(None) => error_response(404, &format!("unknown campaign {digest:?}")),
        Ok(Some(body)) => Response {
            status: 200,
            content_type: result_content_type(format_key(format)),
            body,
            headers: vec![("etag".into(), etag)],
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::http::Request;

    fn req(method: &str, path: &str, body: &[u8]) -> Request {
        Request {
            method: method.into(),
            path: path.into(),
            query: Vec::new(),
            headers: Vec::new(),
            body: body.to_vec(),
            close: false,
        }
    }

    #[test]
    fn routing_edges() {
        let scheduler = Scheduler::start(0, 2, ResultStore::in_memory(1 << 20), None);
        let status = |method: &str, path: &str, body: &[u8]| {
            route(&scheduler, &req(method, path, body)).1.status
        };
        assert_eq!(status("GET", "/nope", b""), 404);
        assert_eq!(status("PUT", "/figures", b""), 405);
        assert_eq!(status("POST", "/campaigns", b"not json"), 400);
        assert_eq!(status("POST", "/campaigns", b"{\"figure\":\"nope\"}"), 400);
        assert_eq!(status("GET", "/campaigns/0123456789abcdef", b""), 404);
        assert_eq!(status("GET", "/campaigns/zzz", b""), 400);
        let (_, figures) = route(&scheduler, &req("GET", "/figures", b""));
        assert_eq!(figures.status, 200);
        let listing = String::from_utf8(figures.body.to_vec()).expect("utf-8");
        assert!(listing.contains("fig09"), "{listing}");
        let (_, metrics) = route(&scheduler, &req("GET", "/metrics", b""));
        assert_eq!(metrics.status, 200);
        let parsed = parse(std::str::from_utf8(&metrics.body).expect("utf-8")).expect("json");
        assert_eq!(
            parsed
                .get("queue")
                .and_then(|q| q.get("cap"))
                .and_then(Json::as_u64),
            Some(2)
        );
        assert_eq!(
            parsed
                .get("store")
                .and_then(|s| s.get("max_bytes"))
                .and_then(Json::as_u64),
            Some(1 << 20),
            "the store block is always there"
        );
        scheduler.shutdown();
    }

    /// The artifact routes serve `SweepResult::render`'s bytes by whatever
    /// way they come: read from the store, from the recent-renders cache,
    /// simulated again after the store evicted them, or found in the store
    /// by a process that never ran the campaign — on either leaf. `json`
    /// is rendered once per simulation, by the store, and served as stored.
    #[test]
    fn served_artifacts_equal_a_fresh_render_on_every_path_through_the_cache() {
        let campaign = |tag: &str| {
            let workload = pythia_workloads::all_suites()
                .into_iter()
                .find(|w| w.name == "429.mcf-184B")
                .expect("known workload");
            Campaign::single(
                pythia_sweep::SweepSpec::new(tag)
                    .with_workloads([workload])
                    .with_prefetchers(&["stride"])
                    .with_config(pythia_sweep::ConfigPoint::single_core("base", 1_000, 4_000)),
            )
        };
        let (first, evictor) = (campaign("srv-artifact"), campaign("srv-evictor"));
        let digest = first.digest();
        let direct = pythia_sweep::engine::run_all(&first.name, &first.panels, 1)
            .expect("direct run")
            .stripped();
        let fresh = |format: &str| direct.render(format).expect("known format").into_bytes();
        let header = |response: &Response, name: &str| {
            let found = response.headers.iter().find(|(n, _)| n == name);
            found.map(|(_, value)| value.clone())
        };
        let fetch = |scheduler: &Scheduler, query: &[(&str, &str)], validator: Option<&str>| {
            let mut request = req("GET", &format!("/campaigns/{digest}/result"), b"");
            request.query = query
                .iter()
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .collect();
            if let Some(etag) = validator {
                request.headers.push(("if-none-match".into(), etag.into()));
            }
            route(scheduler, &request).1
        };
        let run = |scheduler: &Scheduler, campaign: &Campaign| {
            let submitted = scheduler.submit(campaign.clone()).expect("accepted");
            assert!(!submitted.cached, "{} simulates", campaign.name);
            let done = scheduler.wait(&submitted.digest, Duration::from_secs(60));
            assert!(matches!(done, Some(JobStatus::Done)), "{done:?}");
        };
        // Pushes every entry out of the recent-renders cache.
        let flushes = std::cell::Cell::new(0);
        let flush = |scheduler: &Scheduler| {
            for _ in 0..8 {
                flushes.set(flushes.get() + 1);
                let etag = format!("\"other-{}.json\"", flushes.get());
                let other = || Ok::<_, String>(Some(Arc::new(vec![b'x'; 100])));
                let (renders, events) = (scheduler.renders(), &scheduler.obs().results);
                renders.get_or_render(events, &etag, other).expect("kept");
            }
        };

        // Room for one artifact and a half: the second stored evicts the
        // first.
        let budget = fresh("json").len() as u64 * 3 / 2;
        let dir = std::env::temp_dir().join(format!("pythia-srv-paths-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let open_disk = || ResultStore::open_bounded(&dir, Some(budget)).expect("opens");
        for (store, memory) in [(open_disk(), false), (ResultStore::in_memory(budget), true)] {
            let scheduler = Scheduler::start(1, 2, store.clone(), None);
            run(&scheduler, &first);
            let events = &scheduler.obs().results;
            let counts = || (events.renders.get(), events.render_hits.get());
            let stat = |counter: &std::sync::atomic::AtomicU64| {
                counter.load(std::sync::atomic::Ordering::Relaxed)
            };

            // A matching validator answers 304 with no body, and is no
            // reason to read the artifact: the cache stays empty.
            let etag = result_etag(&digest, "json");
            let not_modified = fetch(&scheduler, &[("format", "json")], Some(&etag));
            assert_eq!(not_modified.status, 304);
            assert!(not_modified.body.is_empty());
            assert!(!scheduler.renders().holds(&etag));
            assert_eq!((counts(), stat(&store.stats().hits)), ((0, 0), 0));

            for (format, key) in [
                ("json", "json"),
                ("md", "md"),
                ("markdown", "md"),
                ("csv", "csv"),
            ] {
                let etag = result_etag(&digest, key);
                let renders_before = events.renders.get();
                // First fetch (from the store, unless the alias already
                // was) and repeat fetch (from the cache), plain and
                // through `?partial=1`.
                for query in [
                    &[("format", format)][..],
                    &[("format", format)][..],
                    &[("format", format), ("partial", "1")][..],
                ] {
                    let served = fetch(&scheduler, query, None);
                    assert_eq!(served.status, 200, "{format} {query:?}");
                    assert_eq!(*served.body, fresh(format), "{format} {query:?}");
                    assert_eq!(header(&served, "etag"), Some(etag.clone()));
                    let cells =
                        header(&served, "x-cells-done").zip(header(&served, "x-cells-total"));
                    let expected = (query.len() == 2).then(|| ("2".to_string(), "2".to_string()));
                    assert_eq!(cells, expected, "{format} {query:?}");
                }
                assert!(scheduler.renders().holds(&etag));
                let rendered = events.renders.get() - renders_before;
                assert_eq!(rendered, u64::from(format != "markdown"), "{format}");
            }
            assert_eq!(counts(), (3, 9), "md and markdown share one entry");
            // One read of the store per cache miss, and one `to_json` per
            // simulation — the store's: what `json` serves are its bytes.
            assert_eq!(
                (stat(&store.stats().hits), stat(&store.stats().stored)),
                (3, 1)
            );
            let stored = store.bytes(&digest).expect("reads").expect("stored");
            let served = fetch(&scheduler, &[("format", "json")], None);
            assert_eq!(*served.body, *stored);
            assert_eq!(
                Arc::ptr_eq(&served.body, &stored),
                memory,
                "no copy in memory"
            );

            // Renders of other digests push the entry out; the next fetch
            // reads the store again and serves the same bytes.
            flush(&scheduler);
            assert!(!scheduler.renders().holds(&etag), "pushed out");
            let again = fetch(&scheduler, &[("format", "json")], None);
            assert_eq!(*again.body, fresh("json"));
            assert_eq!(counts(), (3 + 8 + 1, 10));

            // The store evicts the artifact: the digest is unknown again
            // (404, not a job that is done with nothing to show), and a
            // resubmission simulates it to the same bytes.
            run(&scheduler, &evictor);
            assert_eq!(stat(&store.stats().evicted), 1);
            flush(&scheduler);
            assert_eq!(fetch(&scheduler, &[("format", "json")], None).status, 404);
            assert_eq!(fetch(&scheduler, &[], Some(&etag)).status, 404);
            assert!(scheduler.status(&digest).is_none(), "forgotten on lookup");
            run(&scheduler, &first);
            assert_eq!(scheduler.obs().events.executed.get(), 3);
            let rerun = fetch(&scheduler, &[("format", "json")], None);
            assert_eq!((rerun.status, &*rerun.body), (200, &fresh("json")));
            scheduler.shutdown();

            // A process that never saw the campaign serves what the store
            // holds, before anybody submits anything.
            let store = if memory { store } else { open_disk() };
            let restarted = Scheduler::start(0, 2, store, None);
            assert!(restarted.status(&digest).is_none());
            for format in ["json", "md", "csv"] {
                let served = fetch(&restarted, &[("format", format), ("partial", "1")], None);
                assert_eq!((served.status, &*served.body), (200, &fresh(format)));
                assert_eq!(header(&served, "x-cells-done"), None, "no job, no counts");
            }
            assert_eq!(fetch(&restarted, &[], Some(&etag)).status, 304);
            let resubmitted = restarted.submit(first.clone()).expect("accepted");
            assert!(resubmitted.cached && matches!(resubmitted.status, JobStatus::Done));
            assert_eq!(restarted.obs().events.executed.get(), 0);
            restarted.shutdown();
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Two schedulers that see the same submissions: `lane` through the
    /// submit route, `general` through its general path alone.
    struct Twins {
        lane: Scheduler,
        general: Scheduler,
    }

    impl Twins {
        fn start(workers: usize, queue_cap: usize, store: impl Fn(&str) -> ResultStore) -> Self {
            Self {
                lane: Scheduler::start(workers, queue_cap, store("lane"), None),
                general: Scheduler::start(workers, queue_cap, store("general"), None),
            }
        }

        /// POSTs `body` to both twins and returns the status, after
        /// checking that both answered the same bytes and moved the
        /// submission counters alike.
        fn post(&self, body: &[u8]) -> u16 {
            let lane = submit(&self.lane, body);
            let general = submit_general(&self.general, body)
                .map_or_else(|refused| refused, |(s, name)| accepted(&s, &name));
            let what = String::from_utf8_lossy(&body[..body.len().min(80)]);
            assert_eq!(
                (lane.status, String::from_utf8_lossy(&lane.body)),
                (general.status, String::from_utf8_lossy(&general.body)),
                "{what}"
            );
            let counts = |s: &Scheduler| {
                let e = &s.obs().events;
                (e.submitted.get(), e.cache_hits.get(), e.coalesced.get())
            };
            assert_eq!(counts(&self.lane), counts(&self.general), "{what}");
            lane.status
        }

        /// Submissions the lane answered.
        fn body_hits(&self) -> u64 {
            self.lane.obs().events.body_hits.get()
        }

        fn kept(&self, body: &[u8]) -> bool {
            self.lane.submissions().holds(body)
        }

        fn wait(&self, campaign: &Campaign) -> JobStatus {
            let digest = campaign.digest();
            let done = self.lane.wait(&digest, Duration::from_secs(60));
            let also = self.general.wait(&digest, Duration::from_secs(60));
            assert_eq!(format!("{done:?}"), format!("{also:?}"));
            done.expect("finishes")
        }

        fn shutdown(self) {
            self.lane.shutdown();
            self.general.shutdown();
        }
    }

    fn spec_campaign(tag: &str, workload: &str, warmup: u64, measure: u64) -> Campaign {
        let workload = pythia_workloads::all_suites()
            .into_iter()
            .find(|w| w.name == workload)
            .expect("known workload");
        Campaign::single(
            pythia_sweep::SweepSpec::new(tag)
                .with_workloads([workload])
                .with_prefetchers(&["stride"])
                .with_config(pythia_sweep::ConfigPoint::single_core(
                    "base", warmup, measure,
                )),
        )
    }

    fn body_of(campaign: &Campaign) -> Vec<u8> {
        let spec = pythia_sweep::codec::spec_json(&campaign.panels[0]);
        Json::obj().set("spec", spec).render().into_bytes()
    }

    /// The recent-submissions lane answers every body as the general path
    /// does — status, bytes and the `submitted` / `cache_hits` /
    /// `coalesced` counters — and answers only bodies the general path
    /// accepted, whose digest the scheduler still knows.
    #[test]
    fn the_lane_answers_every_submission_as_the_general_path_does() {
        let tiny = |tag: &str| spec_campaign(tag, "429.mcf-184B", 1_000, 4_000);
        let (first, evictor) = (tiny("lane-first"), tiny("lane-evictor"));
        let starved = spec_campaign("lane-starved", "602.gcc_s-734B", 10, 50);
        // Room for one artifact and a half: the second stored evicts the
        // first.
        let artifact = pythia_sweep::engine::run_all(&first.name, &first.panels, 1)
            .expect("direct run")
            .stripped()
            .render("json")
            .expect("json");
        let budget = artifact.len() as u64 * 3 / 2;
        let twins = Twins::start(1, 4, |_| ResultStore::in_memory(budget));

        // Cold, then a hit on the done job.
        let body = body_of(&first);
        assert_eq!(twins.post(&body), 202);
        assert!(twins.kept(&body));
        assert!(matches!(twins.wait(&first), JobStatus::Done));
        assert_eq!((twins.post(&body), twins.body_hits()), (200, 1));

        // Bytes that differ only in whitespace: one digest, two entries.
        let spaced = [b" ".as_slice(), &body, b"\n"].concat();
        assert_eq!((twins.post(&spaced), twins.body_hits()), (200, 1));
        assert_eq!((twins.post(&spaced), twins.body_hits()), (200, 2));
        assert_eq!((twins.post(&body), twins.body_hits()), (200, 3));

        // A failed job is a hit too.
        let failed = body_of(&starved);
        assert_eq!(twins.post(&failed), 202);
        assert!(matches!(twins.wait(&starved), JobStatus::Failed(_)));
        assert_eq!((twins.post(&failed), twins.body_hits()), (200, 4));

        // The store evicts the first artifact: the lane falls through, and
        // the general path admits the campaign again.
        assert_eq!(twins.post(&body_of(&evictor)), 202);
        twins.wait(&evictor);
        assert!(!twins.lane.store().contains(&first.digest()));
        assert_eq!((twins.post(&body), twins.body_hits()), (202, 4));
        assert!(matches!(twins.wait(&first), JobStatus::Done));
        assert_eq!((twins.post(&body), twins.body_hits()), (200, 5));
        twins.shutdown();

        // No workers: jobs stay queued, and a resubmission coalesces.
        let twins = Twins::start(0, 2, |_| ResultStore::in_memory(1 << 20));
        let queued = body_of(&tiny("lane-queued"));
        assert_eq!(twins.post(&queued), 202);
        assert_eq!((twins.post(&queued), twins.body_hits()), (202, 1));
        let figure = br#"{"figure":"fig14"}"#;
        assert_eq!(twins.post(figure), 202);
        assert_eq!((twins.post(figure), twins.body_hits()), (202, 2));
        // What the general path refuses is never kept: a full queue, a
        // malformed body, a bad tenant, and a body over the size cap.
        let tenant = Json::obj().set("figure", "fig14").set("tenant", 5u64);
        let oversized = [queued.as_slice(), &vec![b' '; 64 << 10]].concat();
        for (refused, status) in [
            (body_of(&tiny("lane-busy")), 429),
            (b"{\"spec\": ".to_vec(), 400),
            (tenant.render().into_bytes(), 400),
            (oversized, 202),
        ] {
            for _ in 0..2 {
                assert_eq!(twins.post(&refused), status);
            }
            assert!(!twins.kept(&refused));
        }
        assert_eq!(twins.body_hits(), 2);
        twins.shutdown();

        // A restart on the same cache dir starts with an empty list.
        let root = std::env::temp_dir().join(format!("pythia-srv-lane-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let open = |side: &str| ResultStore::open_bounded(root.join(side), None).expect("opens");
        let twins = Twins::start(1, 2, open);
        assert_eq!(twins.post(&body), 202);
        twins.wait(&first);
        twins.shutdown();
        let twins = Twins::start(1, 2, open);
        assert!(!twins.kept(&body));
        assert_eq!((twins.post(&body), twins.body_hits()), (200, 0));
        assert_eq!((twins.post(&body), twins.body_hits()), (200, 1));
        twins.shutdown();
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn if_none_match_token_matching() {
        let etag = result_etag("0123456789abcdef", "json");
        assert!(if_none_match_hits(&etag, &etag));
        assert!(if_none_match_hits("*", &etag));
        assert!(if_none_match_hits(&format!("\"other\", {etag}"), &etag));
        assert!(if_none_match_hits(&format!("W/{etag}"), &etag));
        assert!(!if_none_match_hits("\"other\"", &etag));
    }
}
