//! Service observability: one [`ServeObs`] bundle — structured logger,
//! metric [`Registry`], and pre-registered instrument handles — threaded
//! explicitly through the server, scheduler and journal (no globals).
//!
//! Every number the service reports is an instrument of the bundle's
//! registry, so the two `/metrics` views read one source:
//! `GET /metrics?format=prom` is [`pythia_obs::prom::render`] of it and
//! the JSON view is a projection of the same handles. Three kinds of
//! instrument:
//!
//! * **events**, incremented where they happen — scheduler, connection
//!   and result-artifact events, simulated instructions and wall time;
//! * **gauges moved by guards** — open connections, busy workers;
//! * **collected state** — queue and cell depths, store counters —
//!   copied in by [`crate::scheduler::Scheduler::collect`] once per
//!   scrape, under one scheduler lock;
//!
//! plus the latency histograms: per-route request latency and response
//! size (`handle_connection`), cell queue wait and execution time
//! (`worker_loop`), journal sync (`journal.rs`, one sample per
//! `sync_data`).
//!
//! Components constructed without an explicit bundle (unit tests, bare
//! [`crate::scheduler::Scheduler::start`]) get a private default bundle
//! logging at `warn`, which preserves the old "errors reach stderr"
//! behaviour without test noise.

use std::sync::Arc;

use pythia_obs::logger::{Level, Logger};
use pythia_obs::metrics::{Counter, Gauge, Histogram, Registry};

/// Route keys used as the `route` label of the HTTP histograms — a small
/// fixed vocabulary so label cardinality stays bounded no matter what
/// paths clients probe. [`crate::server::route`] classifies.
pub const ROUTE_KEYS: &[&str] = &["figures", "metrics", "submit", "status", "result", "other"];

/// Family of [`SchedulerEvents`]; its `event` label values are the keys
/// of the JSON `counters` object.
pub(crate) const SCHEDULER_EVENTS: &str = "pythia_scheduler_events_total";

/// Family of [`ConnectionEvents`]; its `event` label values are keys of
/// the JSON `connections` object.
pub(crate) const CONNECTION_EVENTS: &str = "pythia_connections_total";

/// Family of [`ResultEvents`]; its `event` label values are keys of the
/// JSON `results` object.
pub(crate) const RESULT_EVENTS: &str = "pythia_result_events_total";

/// Family of the per-route request latency histograms; its `route`
/// label values are the keys of the JSON `latency.routes_us` object.
pub(crate) const ROUTE_LATENCY: &str = "pythia_http_request_duration_us";

/// Per-route instrument handles.
struct RouteMetrics {
    key: &'static str,
    latency_us: Arc<Histogram>,
    body_bytes: Arc<Histogram>,
}

/// Monotonic scheduler events: `pythia_scheduler_events_total{event=…}`.
pub struct SchedulerEvents {
    /// Campaigns accepted (every non-error submission).
    pub submitted: Arc<Counter>,
    /// Campaigns actually simulated by this process's workers.
    pub executed: Arc<Counter>,
    /// Submissions of a digest already finished: its artifact is in the
    /// store, or the job table remembers that it failed.
    pub cache_hits: Arc<Counter>,
    /// Submissions coalesced onto a queued/running job.
    pub coalesced: Arc<Counter>,
    /// Submissions answered from their body bytes alone, by the submit
    /// route's recent-submissions lane; each is also one `cache_hits` or
    /// one `coalesced`.
    pub body_hits: Arc<Counter>,
    /// Jobs finished successfully.
    pub completed: Arc<Counter>,
    /// Jobs that failed during execution.
    pub failed: Arc<Counter>,
    /// Submissions rejected because the queue was full.
    pub rejected: Arc<Counter>,
    /// Jobs recovered from the journal at startup (requeued or resolved
    /// from the disk store).
    pub replayed: Arc<Counter>,
    /// Individual cells simulated by this process's workers.
    pub cells_executed: Arc<Counter>,
    /// Cells restored from journal records at startup instead of re-run.
    pub cells_replayed: Arc<Counter>,
}

/// Monotonic connection events: `pythia_connections_total{event=…}`.
pub struct ConnectionEvents {
    /// Connections accepted (including ones later shed).
    pub accepted: Arc<Counter>,
    /// Connections shed with 503 because the cap was reached.
    pub rejected: Arc<Counter>,
    /// Requests served across all connections.
    pub requests: Arc<Counter>,
    /// Connections closed with 408 after idling out.
    pub timeouts: Arc<Counter>,
}

/// Monotonic result-artifact events: `pythia_result_events_total{event=…}`.
/// Their sum is the number of `200` result responses for stored artifacts.
pub struct ResultEvents {
    /// Artifacts fetched from the result store: for `json` the stored
    /// bytes as they are, for `md` and `csv` a load and a render.
    pub renders: Arc<Counter>,
    /// Artifacts served from the recent-renders cache instead.
    pub render_hits: Arc<Counter>,
}

/// Scheduler and store state, current as of the last
/// [`crate::scheduler::Scheduler::collect`] (the two capacities are
/// constants, set when the scheduler starts).
pub struct Collected {
    /// Campaigns holding a ready-queue slot.
    pub queue_depth: Arc<Gauge>,
    /// Ready-queue capacity.
    pub queue_cap: Arc<Gauge>,
    /// Unclaimed cells across unfinished jobs.
    pub cells_queued: Arc<Gauge>,
    /// Cells currently simulating.
    pub cells_in_flight: Arc<Gauge>,
    /// Configured worker threads.
    pub workers_total: Arc<Gauge>,
    /// Entries of the job table, live and finished.
    pub jobs_resident: Arc<Gauge>,
    /// Result-store reads that found and decoded an artifact.
    pub store_hits: Arc<Counter>,
    /// Result-store reads that found nothing (or a damaged artifact).
    pub store_misses: Arc<Counter>,
    /// Artifacts written to the result store.
    pub store_stored: Arc<Counter>,
    /// Artifacts evicted to stay under the byte budget.
    pub store_evicted: Arc<Counter>,
    /// Bytes the result store currently indexes.
    pub store_bytes_used: Arc<Gauge>,
}

/// The service's observability bundle. Built once per server (or once
/// per bare scheduler/journal in tests) and shared by `Arc`.
pub struct ServeObs {
    logger: Logger,
    registry: Registry,
    routes: Vec<RouteMetrics>,
    /// Time a cell spent between job enqueue and worker claim, in µs.
    pub cell_queue_wait_us: Arc<Histogram>,
    /// Wall time a worker spent simulating one cell, in µs.
    pub cell_execution_us: Arc<Histogram>,
    /// Journal sync latency in µs: one sample per `sync_data` call, timed
    /// from the write that triggered it — so its count is the number of
    /// syncs, not of records.
    pub journal_fsync_us: Arc<Histogram>,
    /// Scheduler events.
    pub events: SchedulerEvents,
    /// Connection events.
    pub connections: ConnectionEvents,
    /// Result-artifact events.
    pub results: ResultEvents,
    /// Connections currently open; also what the connection cap reads.
    pub connections_active: Arc<Gauge>,
    /// Workers simulating a cell right now.
    pub workers_busy: Arc<Gauge>,
    /// Instructions simulated by this process.
    pub sim_instructions: Arc<Counter>,
    /// Wall time spent simulating cells, in µs.
    pub sim_wall_us: Arc<Counter>,
    /// State copied in once per scrape.
    pub collected: Collected,
}

impl ServeObs {
    /// A bundle logging to stderr at `level`.
    pub fn new(level: Level) -> Self {
        let registry = Registry::new();
        let r = &registry;
        let routes = ROUTE_KEYS
            .iter()
            .map(|&key| RouteMetrics {
                key,
                latency_us: r.histogram_with(
                    ROUTE_LATENCY,
                    "Request handling latency per route, in microseconds",
                    &[("route", key)],
                ),
                body_bytes: r.histogram_with(
                    "pythia_http_response_bytes",
                    "Response body size per route, in bytes",
                    &[("route", key)],
                ),
            })
            .collect();
        let event = |name| {
            r.counter_with(
                SCHEDULER_EVENTS,
                "Monotonic scheduler counters by event",
                &[("event", name)],
            )
        };
        let connection = |name| {
            r.counter_with(
                CONNECTION_EVENTS,
                "Monotonic connection counters by event",
                &[("event", name)],
            )
        };
        let result = |name| {
            r.counter_with(
                RESULT_EVENTS,
                "Monotonic result-artifact counters by event",
                &[("event", name)],
            )
        };
        Self {
            routes,
            cell_queue_wait_us: r.histogram(
                "pythia_cell_queue_wait_us",
                "Cell wait between job enqueue and worker claim, in microseconds",
            ),
            cell_execution_us: r.histogram(
                "pythia_cell_execution_us",
                "Cell simulation wall time, in microseconds",
            ),
            journal_fsync_us: r.histogram(
                "pythia_journal_fsync_us",
                "Journal sync latency, one sample per sync_data call timed from the write that triggered it, in microseconds",
            ),
            events: SchedulerEvents {
                submitted: event("submitted"),
                executed: event("executed"),
                cache_hits: event("cache_hits"),
                coalesced: event("coalesced"),
                body_hits: event("body_hits"),
                completed: event("completed"),
                failed: event("failed"),
                rejected: event("rejected"),
                replayed: event("replayed"),
                cells_executed: event("cells_executed"),
                cells_replayed: event("cells_replayed"),
            },
            connections: ConnectionEvents {
                accepted: connection("accepted"),
                rejected: connection("rejected"),
                requests: connection("requests"),
                timeouts: connection("timeouts"),
            },
            results: ResultEvents {
                renders: result("renders"),
                render_hits: result("render_hits"),
            },
            connections_active: r.gauge("pythia_connections_active", "Connections currently open"),
            workers_busy: r.gauge("pythia_workers_busy", "Workers simulating a cell right now"),
            sim_instructions: r.counter(
                "pythia_sim_instructions_total",
                "Instructions simulated by this process",
            ),
            sim_wall_us: r.counter(
                "pythia_sim_wall_us_total",
                "Wall time spent simulating cells, in microseconds",
            ),
            collected: Collected {
                queue_depth: r.gauge("pythia_queue_depth", "Campaigns holding a ready-queue slot"),
                queue_cap: r.gauge("pythia_queue_cap", "Ready-queue capacity"),
                cells_queued: r.gauge(
                    "pythia_cells_queued",
                    "Unclaimed cells across unfinished jobs",
                ),
                cells_in_flight: r.gauge("pythia_cells_in_flight", "Cells currently simulating"),
                workers_total: r.gauge("pythia_workers_total", "Configured worker threads"),
                jobs_resident: r.gauge(
                    "pythia_jobs_resident",
                    "Entries of the job table, live and finished",
                ),
                store_hits: r.counter("pythia_store_hits_total", "Result-store lookup hits"),
                store_misses: r.counter("pythia_store_misses_total", "Result-store lookup misses"),
                store_stored: r.counter(
                    "pythia_store_stored_total",
                    "Result-store artifacts written",
                ),
                store_evicted: r.counter(
                    "pythia_store_evicted_total",
                    "Result-store artifacts evicted to stay under the byte budget",
                ),
                store_bytes_used: r
                    .gauge("pythia_store_bytes_used", "Bytes the result store indexes"),
            },
            logger: Logger::stderr(level),
            registry,
        }
    }

    /// The structured logger.
    pub fn logger(&self) -> &Logger {
        &self.logger
    }

    /// The metric registry (for Prometheus rendering and JSON summaries).
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// Records one served request against its route's histograms.
    pub fn record_request(&self, route: &str, latency_us: u64, body_bytes: u64) {
        if let Some(r) = self.routes.iter().find(|r| r.key == route) {
            r.latency_us.record(latency_us);
            r.body_bytes.record(body_bytes);
        }
    }
}

impl Default for ServeObs {
    /// Warn-level stderr logging: errors still surface, tests stay quiet.
    fn default() -> Self {
        Self::new(Level::Warn)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `server::route` is the one classifier; every key it returns must
    /// be in the registered vocabulary or `record_request` drops it.
    #[test]
    fn route_classification() {
        use crate::http::Request;
        use pythia_sweep::ResultStore;
        let scheduler =
            crate::scheduler::Scheduler::start(0, 1, ResultStore::in_memory(1 << 20), None);
        let key = |method: &str, path: &str| {
            let request = Request {
                method: method.into(),
                path: path.into(),
                query: Vec::new(),
                headers: Vec::new(),
                body: Vec::new(),
                close: false,
            };
            let (key, _) = crate::server::route(&scheduler, &request);
            assert!(ROUTE_KEYS.contains(&key), "{key} is not a route key");
            key
        };
        assert_eq!(key("GET", "/figures"), "figures");
        assert_eq!(key("GET", "/metrics"), "metrics");
        assert_eq!(key("POST", "/campaigns"), "submit");
        assert_eq!(key("GET", "/campaigns/0123456789abcdef"), "status");
        assert_eq!(key("GET", "/campaigns/0123456789abcdef/result"), "result");
        assert_eq!(key("PUT", "/figures"), "other");
        assert_eq!(key("GET", "/nope"), "other");
        scheduler.shutdown();
    }

    #[test]
    fn request_recording_lands_in_the_right_route() {
        let obs = ServeObs::default();
        obs.record_request("metrics", 150, 900);
        obs.record_request("other", 10, 20);
        // Registering an existing (name, labels) re-derives its handle.
        let latency = |route| {
            obs.registry()
                .histogram_with(ROUTE_LATENCY, "", &[("route", route)])
        };
        assert_eq!(latency("metrics").count(), 1);
        assert_eq!(latency("metrics").sum(), 150);
        assert_eq!(latency("figures").count(), 0);
        // Unknown keys are dropped, not panicked on.
        obs.record_request("bogus", 1, 1);
    }

    #[test]
    fn registry_renders_clean_prometheus_text() {
        let obs = ServeObs::default();
        obs.record_request("submit", 2_000, 512);
        obs.cell_execution_us.record(30_000);
        let text = pythia_obs::prom::render(obs.registry());
        assert!(text.contains("pythia_http_request_duration_us_bucket"));
        assert!(text.contains("route=\"submit\""));
        let problems = pythia_obs::prom::lint(&text);
        assert!(problems.is_empty(), "{problems:?}");
    }
}
