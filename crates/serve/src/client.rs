//! Client helpers — the machinery behind `pythia-cli submit`. Every helper
//! sends its request through one private `call`, which keeps one
//! [`crate::http::ClientConn`] per thread, to the server that thread called
//! last, and sends each request on it while the server keeps it open.
//!
//! * *Reuse only an idle connection.* Before each request a non-blocking
//!   check must find no unread byte and no end-of-stream on the socket:
//!   a server that timed the connection out has queued a `408` and a FIN,
//!   and that `408` must not come back as the reply to a new request.
//! * *Keep it only after a reply that allows it:* one framed by
//!   `Content-Length` that does not say `connection: close` (the server
//!   closes after a `400`, `408`, `413` or `503`).
//! * *Retry once on a reused connection.* If it fails before any byte of a
//!   reply arrives (a write error, a reset or end-of-stream), or answers
//!   `408` because the server's idle close crossed the request, the request
//!   goes once more on a new connection, whose failure is returned. Every
//!   request the helpers send is safe to repeat: the `GET`s, and
//!   `POST /campaigns`, which attaches to the same digest, so a repeat is
//!   booked as one more cache hit or coalesce.
//!
//! A session of helper calls thus pays the connect and the start of the
//! server's handler thread once per thread, not once per request. The
//! cost: a kept connection holds one of the server's `max_conns` slots and
//! one handler thread until its thread exits or the server's idle timeout
//! (30 s by default) closes it.

use std::cell::Cell;
use std::time::{Duration, Instant};

use pythia_stats::json::{parse, Json};

use crate::http::{ClientConn, Reply};

thread_local! {
    /// The connection this thread keeps, to the server it called last.
    static KEPT: Cell<Option<ClientConn>> = const { Cell::new(None) };
}

/// A submission acknowledgement.
#[derive(Debug, Clone)]
pub struct Submitted {
    /// Campaign digest (the job id to poll).
    pub digest: String,
    /// Status at submission time (`"queued"`, `"running"`, `"done"`, ...).
    pub status: String,
    /// Whether the service answered from its cache.
    pub cached: bool,
}

fn json_of(body: &[u8]) -> Result<Json, String> {
    let text = std::str::from_utf8(body).map_err(|_| "response is not utf-8".to_string())?;
    parse(text)
}

fn error_of(status: u16, body: &[u8]) -> String {
    let detail = json_of(body)
        .ok()
        .and_then(|j| j.get("error").and_then(Json::as_str).map(str::to_string))
        .unwrap_or_else(|| String::from_utf8_lossy(body).into_owned());
    format!("HTTP {status}: {detail}")
}

fn text_of(body: Vec<u8>) -> Result<String, String> {
    String::from_utf8(body).map_err(|_| "response is not utf-8".to_string())
}

/// Sends one request to `addr` on this thread's kept connection when it
/// goes to `addr` and is idle, on a new one otherwise, and keeps the
/// connection for the thread's next call if the reply allows it: the one
/// path of every helper in this module, under the rules in the module
/// docs.
fn call(
    addr: &str,
    method: &str,
    target: &str,
    body: &[u8],
    headers: &[(&str, &str)],
) -> Result<Reply, String> {
    let kept = KEPT
        .take()
        .filter(|conn| conn.addr() == addr && conn.is_idle());
    let reused = kept.is_some();
    let mut conn = match kept {
        Some(conn) => conn,
        None => ClientConn::connect(addr)?,
    };
    let mut reply = conn.exchange(method, target, body, headers);
    let stale = match &reply {
        Ok(reply) => reply.status == 408,
        Err(e) => e.unanswered,
    };
    if reused && stale {
        conn = ClientConn::connect(addr)?;
        reply = conn.exchange(method, target, body, headers);
    }
    let reply = reply.map_err(|e| e.message)?;
    if conn.reusable() {
        KEPT.set(Some(conn));
    }
    Ok(reply)
}

/// `reply` if its status is one of `ok`, else the service's error message.
fn expect_status(reply: Reply, ok: &[u16]) -> Result<Reply, String> {
    if ok.contains(&reply.status) {
        Ok(reply)
    } else {
        Err(error_of(reply.status, &reply.body))
    }
}

/// `GET target`, expecting a 200.
fn get(addr: &str, target: &str) -> Result<Reply, String> {
    expect_status(call(addr, "GET", target, b"", &[])?, &[200])
}

/// Submits a campaign body (already-rendered JSON) to `addr`.
///
/// # Errors
///
/// Returns a message on transport errors or non-2xx responses (a full
/// queue surfaces as the service's 429 message).
pub fn submit(addr: &str, body: &str) -> Result<Submitted, String> {
    let reply = call(addr, "POST", "/campaigns", body.as_bytes(), &[])?;
    let json = json_of(&expect_status(reply, &[200, 202])?.body)?;
    let field = |key: &str| {
        json.get(key)
            .and_then(Json::as_str)
            .map(str::to_string)
            .ok_or_else(|| format!("submission response missing {key:?}"))
    };
    Ok(Submitted {
        digest: field("digest")?,
        status: field("status")?,
        cached: json.get("cached").and_then(Json::as_bool).unwrap_or(false),
    })
}

/// Submits a registry figure by id.
///
/// # Errors
///
/// See [`submit`].
pub fn submit_figure(addr: &str, figure: &str) -> Result<Submitted, String> {
    submit(addr, &Json::obj().set("figure", figure).render())
}

/// Submits a registry figure by id under a tenant key (fair-queueing
/// bucket) and a weighted-round-robin priority. An empty tenant means
/// the service default.
///
/// # Errors
///
/// See [`submit`].
pub fn submit_figure_as(
    addr: &str,
    figure: &str,
    tenant: &str,
    priority: u64,
) -> Result<Submitted, String> {
    let mut body = Json::obj().set("figure", figure).set("priority", priority);
    if !tenant.is_empty() {
        body = body.set("tenant", tenant);
    }
    submit(addr, &body.render())
}

/// Fetches the status document of a digest.
///
/// # Errors
///
/// Returns a message on transport errors or non-200 responses.
pub fn status(addr: &str, digest: &str) -> Result<Json, String> {
    json_of(&get(addr, &format!("/campaigns/{digest}"))?.body)
}

/// Polls status until the job reports `done`, failing on `failed` or
/// after `timeout`. The pause between polls doubles from 1 ms up to
/// `poll`, so a campaign that finishes in milliseconds is not held for a
/// whole interval.
///
/// # Errors
///
/// Returns the failure message, a timeout message, or transport errors.
pub fn wait_done(
    addr: &str,
    digest: &str,
    poll: Duration,
    timeout: Duration,
) -> Result<(), String> {
    wait_done_with(addr, digest, poll, timeout, |_, _| {})
}

/// Like [`wait_done`], invoking `on_progress(cells_done, cells_total)`
/// after every status poll that carries cell progress.
///
/// # Errors
///
/// See [`wait_done`].
pub fn wait_done_with(
    addr: &str,
    digest: &str,
    poll: Duration,
    timeout: Duration,
    mut on_progress: impl FnMut(u64, u64),
) -> Result<(), String> {
    let deadline = Instant::now() + timeout;
    let mut pause = Duration::from_millis(1).min(poll);
    loop {
        let doc = status(addr, digest)?;
        let cells = |key: &str| {
            doc.get("cells")
                .and_then(|c| c.get(key))
                .and_then(Json::as_u64)
        };
        if let (Some(done), Some(total)) = (cells("done"), cells("total")) {
            on_progress(done, total);
        }
        match doc.get("status").and_then(Json::as_str) {
            Some("done") => return Ok(()),
            Some("failed") => {
                let e = doc
                    .get("error")
                    .and_then(Json::as_str)
                    .unwrap_or("unknown failure");
                return Err(format!("campaign {digest} failed: {e}"));
            }
            Some(_) => {}
            None => return Err("status response missing \"status\"".into()),
        }
        if Instant::now() >= deadline {
            return Err(format!(
                "campaign {digest} not done after {:.0} s",
                timeout.as_secs_f64()
            ));
        }
        std::thread::sleep(pause);
        pause = (pause * 2).min(poll);
    }
}

/// Fetches the rendered result of a done campaign.
///
/// # Errors
///
/// Returns a message on transport errors or non-200 responses (409 while
/// the job is still running).
pub fn result(addr: &str, digest: &str, format: &str) -> Result<String, String> {
    text_of(get(addr, &format!("/campaigns/{digest}/result?format={format}"))?.body)
}

/// A merged-so-far snapshot fetched with `?partial=1`.
#[derive(Debug, Clone)]
pub struct PartialResult {
    /// The rendered prefix (the full artifact when `complete`).
    pub body: String,
    /// Cells finished so far (`x-cells-done`).
    pub cells_done: u64,
    /// Total planned cells (`x-cells-total`).
    pub cells_total: u64,
    /// Whether the campaign is done and `body` is the final artifact.
    pub complete: bool,
}

/// Fetches the merged-so-far prefix of a campaign (`?partial=1`): a
/// `206` snapshot while cells are still running, or the final `200`
/// artifact once done. Every snapshot's rows are a prefix of the final
/// row order.
///
/// # Errors
///
/// Returns a message on transport errors, unknown digests (404), and
/// failed campaigns (409).
pub fn partial_result(addr: &str, digest: &str, format: &str) -> Result<PartialResult, String> {
    let target = format!("/campaigns/{digest}/result?format={format}&partial=1");
    let reply = expect_status(call(addr, "GET", &target, b"", &[])?, &[200, 206])?;
    let header_num = |name: &str| {
        reply
            .header(name)
            .and_then(|v| v.parse::<u64>().ok())
            .unwrap_or(0)
    };
    let cells_done = header_num("x-cells-done");
    let cells_total = header_num("x-cells-total");
    let complete = reply.status == 200;
    Ok(PartialResult {
        body: text_of(reply.body)?,
        cells_done,
        cells_total,
        complete,
    })
}

/// Fetches the figure listing.
///
/// # Errors
///
/// Returns a message on transport errors or non-200 responses.
pub fn figures(addr: &str) -> Result<Json, String> {
    json_of(&get(addr, "/figures")?.body)
}

/// Fetches the `/metrics` snapshot.
///
/// # Errors
///
/// Returns a message on transport errors or non-200 responses.
pub fn metrics(addr: &str) -> Result<Json, String> {
    json_of(&get(addr, "/metrics")?.body)
}

/// Fetches `GET /metrics?format=prom` — the Prometheus text exposition.
///
/// # Errors
///
/// Returns a message on transport errors or non-200 responses.
pub fn metrics_prom(addr: &str) -> Result<String, String> {
    text_of(get(addr, "/metrics?format=prom")?.body)
}

/// Outcome of a conditional result fetch.
#[derive(Debug, Clone)]
pub enum CachedFetch {
    /// The server's `ETag` matched: the caller's copy is current.
    NotModified,
    /// A fresh body, with the `ETag` to send next time.
    Fresh {
        /// The validator for the next conditional fetch.
        etag: Option<String>,
        /// The rendered result.
        body: String,
    },
}

/// Fetches the rendered result of a done campaign conditionally: when
/// `etag` is supplied and still matches, the server answers 304 and no
/// body is transferred.
///
/// # Errors
///
/// Returns a message on transport errors or non-200/304 responses (409
/// while the job is still running).
pub fn result_conditional(
    addr: &str,
    digest: &str,
    format: &str,
    etag: Option<&str>,
) -> Result<CachedFetch, String> {
    let target = format!("/campaigns/{digest}/result?format={format}");
    let etag = etag.map(|etag| ("if-none-match", etag));
    let reply = call(addr, "GET", &target, b"", etag.as_slice())?;
    if reply.status == 304 {
        return Ok(CachedFetch::NotModified);
    }
    let reply = expect_status(reply, &[200])?;
    Ok(CachedFetch::Fresh {
        etag: reply.header("etag").map(str::to_string),
        body: text_of(reply.body)?,
    })
}
