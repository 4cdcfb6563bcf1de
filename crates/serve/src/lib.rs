//! # pythia-serve
//!
//! A long-running campaign service over the deterministic sweep engine:
//! many clients submit figure/table campaigns, duplicate campaigns cost
//! one simulation, and results are served from a content-addressed cache.
//!
//! The stack, bottom to top:
//!
//! * [`http`] — a hand-rolled HTTP/1.1 subset on `std::net` (this build
//!   environment has no network crates): persistent keep-alive
//!   connections with byte-exact pipelining, `Content-Length` bodies,
//!   strict limits, one write per message, and typed read errors
//!   (timeout vs malformed vs oversized) so the server can answer
//!   408/400/413 precisely. Requests and replies are framed by one head
//!   parser and one rule: a field line with no colon or whose name is
//!   not a token (so no whitespace or control byte before the colon),
//!   an obs-fold line, a `Content-Length` that is not
//!   `1*DIGIT` or comes twice, and any `Transfer-Encoding` are refused at
//!   both ends.
//! * [`journal`] — a crash-safe append-only job journal: queued and
//!   in-flight campaigns are replayed (and the journal compacted) on
//!   restart instead of being silently dropped.
//! * [`scheduler`] — a bounded job queue + worker pool running
//!   [`pythia_sweep::engine::run_all`], with in-flight dedup (identical
//!   digests coalesce onto one job), per-job status, journal-backed
//!   recovery, and 429-style backpressure when the queue is full. It
//!   holds live work and the outcomes of the last thousand jobs; a
//!   finished result lives in the [`pythia_sweep::ResultStore`] — a
//!   directory, or the heap under the same byte budget — and nowhere else.
//! * [`obs`] — the one place a service number is stored: every counter,
//!   gauge and histogram is an instrument of one `pythia-obs` registry,
//!   which both `/metrics` views read.
//! * [`server`] — routing: `POST /campaigns` (submit a figure id or a
//!   canonical spec), `GET /campaigns/<digest>` (status),
//!   `GET /campaigns/<digest>/result` (md/JSON/CSV via the existing
//!   [`pythia_sweep::SweepResult`] formatters, with digest-derived
//!   `ETag`/`If-None-Match` 304s), `GET /figures` (registry listing),
//!   and `GET /metrics` (queue depth, worker occupancy, store and
//!   connection counters, aggregate Minst/s). A server-wide connection
//!   cap sheds overload with 503. Each connection has a handler thread
//!   of its own, and a stored artifact is served as stored (`json`) or
//!   rendered (`md`, `csv`) through a small recent-renders cache. A
//!   re-POST of a recently accepted body is answered from its bytes,
//!   through a small recent-submissions list.
//! * [`client`] — the `pythia-cli submit` side: every call goes through
//!   one path, which keeps one [`http::ClientConn`] per thread open
//!   across calls.
//!
//! Content addressing comes from [`pythia_sweep::codec`]: a campaign's
//! canonical encoding digests to a stable id, simulations are
//! bit-deterministic, so "same digest" means "byte-identical result" —
//! cache hits (always through [`pythia_sweep::ResultStore`]) are
//! indistinguishable from fresh runs minus the wall-clock telemetry.
//!
//! # Example
//!
//! ```no_run
//! use pythia_serve::server::{ServeConfig, Server};
//!
//! let server = Server::bind("127.0.0.1:7071", &ServeConfig::default()).unwrap();
//! println!("listening on {}", server.local_addr().unwrap());
//! server.serve_forever().unwrap();
//! ```

pub mod client;
pub mod http;
pub mod journal;
pub mod obs;
mod recent;
mod renders;
pub mod scheduler;
pub mod server;
mod submissions;

pub use journal::Journal;
pub use obs::ServeObs;
pub use scheduler::{JobStatus, Scheduler, SubmitError};
pub use server::{ServeConfig, Server, ServerHandle};
