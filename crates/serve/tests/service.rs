//! End-to-end service tests over real TCP sockets.
//!
//! The acceptance pin: a figure campaign submitted over HTTP produces a
//! `SweepResult` JSON byte-identical to a direct `sweep` engine run of the
//! same spec; resubmission is a cache hit that re-simulates nothing; and
//! identical concurrent submissions coalesce into one job.

use std::time::{Duration, Instant};

use pythia_serve::client;
use pythia_serve::server::{ServeConfig, Server, ServerHandle};
use pythia_stats::json::Json;
use pythia_sweep::codec::Campaign;
use pythia_sweep::{ConfigPoint, SweepSpec};
use pythia_workloads::all_suites;

fn spawn(config: ServeConfig) -> (ServerHandle, String) {
    let server = Server::bind("127.0.0.1:0", &config).expect("bind ephemeral port");
    let handle = server.spawn().expect("spawn accept loop");
    let addr = handle.addr().to_string();
    (handle, addr)
}

fn tiny_spec(tag: &str, measure: u64) -> SweepSpec {
    let w = all_suites()
        .into_iter()
        .find(|w| w.name == "429.mcf-184B")
        .expect("known workload");
    SweepSpec::new(tag)
        .with_workloads([w])
        .with_prefetchers(&["stride"])
        .with_config(ConfigPoint::single_core("base", 1_000, measure))
}

fn submit_spec(addr: &str, spec: &SweepSpec) -> client::Submitted {
    let body = Json::obj()
        .set("spec", pythia_sweep::codec::spec_json(spec))
        .render();
    client::submit(addr, &body).expect("submission accepted")
}

fn submit_spec_as(addr: &str, spec: &SweepSpec, tenant: &str, priority: u64) -> client::Submitted {
    let body = Json::obj()
        .set("spec", pythia_sweep::codec::spec_json(spec))
        .set("tenant", tenant)
        .set("priority", priority)
        .render();
    client::submit(addr, &body).expect("submission accepted")
}

/// The headline end-to-end test (acceptance criteria of the service PR):
/// fig09 at tiny scale served over TCP == direct `run_all`, byte for byte;
/// the resubmission is answered from cache without a second simulation.
#[test]
fn served_fig09_tiny_scale_is_byte_identical_to_direct_run() {
    // Process-global: this is the only test in this binary that touches
    // the scale, and it sets it before any registry build.
    std::env::set_var("PYTHIA_BENCH_SCALE", "0.01");

    let campaign = pythia_bench::figures::campaign("fig09").expect("fig09 registered");
    let direct = pythia_sweep::engine::run_all("fig09", &campaign.panels, 4)
        .expect("direct run")
        .stripped()
        .to_json()
        .render_pretty();

    let (handle, addr) = spawn(ServeConfig {
        workers: 1,
        queue_cap: 8,
        sim_threads: 4,
        ..ServeConfig::default()
    });

    let submitted = client::submit_figure(&addr, "fig09").expect("submission accepted");
    assert_eq!(
        submitted.digest,
        campaign.digest(),
        "client and server agree on the digest"
    );
    assert!(!submitted.cached);

    client::wait_done(
        &addr,
        &submitted.digest,
        Duration::from_millis(50),
        Duration::from_secs(300),
    )
    .expect("campaign completes");
    let fetched = client::result(&addr, &submitted.digest, "json").expect("result fetched");
    assert_eq!(
        fetched, direct,
        "served result is byte-identical to the direct run"
    );

    // Resubmission: answered done from the in-memory cache, nothing re-run.
    let again = client::submit_figure(&addr, "fig09").expect("resubmission accepted");
    assert!(
        again.cached,
        "second submission of the same digest is a cache hit"
    );
    assert_eq!(again.status, "done");
    let events = &handle.scheduler().obs().events;
    assert_eq!(events.executed.get(), 1, "one simulation total");
    assert_eq!(events.cache_hits.get(), 1);

    // The md and csv renderings come from the same formatters as the CLI.
    let md = client::result(&addr, &submitted.digest, "md").expect("md");
    assert!(
        md.starts_with("# sweep fig09"),
        "{}",
        &md[..md.len().min(60)]
    );
    let csv = client::result(&addr, &submitted.digest, "csv").expect("csv");
    assert!(csv.starts_with("sweep,unit,group,"));
}

#[test]
fn concurrent_identical_submissions_coalesce_into_one_job() {
    let (handle, addr) = spawn(ServeConfig {
        workers: 1,
        queue_cap: 8,
        sim_threads: 1,
        ..ServeConfig::default()
    });

    // Pin the single worker down so the target job stays queued while the
    // concurrent submissions race in.
    let blocker = submit_spec(&addr, &tiny_spec("svc-blocker", 400_000));

    let target = tiny_spec("svc-target", 4_000);
    let submissions: Vec<client::Submitted> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..2)
            .map(|_| {
                let addr = addr.clone();
                let target = target.clone();
                scope.spawn(move || submit_spec(&addr, &target))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("join"))
            .collect()
    });
    assert_eq!(submissions[0].digest, submissions[1].digest);

    client::wait_done(
        &addr,
        &blocker.digest,
        Duration::from_millis(20),
        Duration::from_secs(120),
    )
    .expect("blocker completes");
    client::wait_done(
        &addr,
        &submissions[0].digest,
        Duration::from_millis(20),
        Duration::from_secs(120),
    )
    .expect("target completes");

    let events = &handle.scheduler().obs().events;
    assert_eq!(
        events.executed.get(),
        2,
        "blocker + exactly one shared job for the two identical submissions"
    );
    assert_eq!(events.coalesced.get(), 1);
}

#[test]
fn full_queue_answers_429_and_result_races_answer_409() {
    // No workers: the queue never drains, so every state is deterministic.
    let (_handle, addr) = spawn(ServeConfig {
        workers: 0,
        queue_cap: 1,
        sim_threads: 1,
        ..ServeConfig::default()
    });

    let queued = submit_spec(&addr, &tiny_spec("svc-bp-a", 4_000));
    assert_eq!(queued.status, "queued");

    // Queue is full now — a *different* campaign bounces with 429.
    let body = Json::obj()
        .set(
            "spec",
            pythia_sweep::codec::spec_json(&tiny_spec("svc-bp-b", 4_000)),
        )
        .render();
    let err = client::submit(&addr, &body).expect_err("queue full");
    assert!(err.contains("429"), "{err}");

    // The queued job has no result yet: 409.
    let err = client::result(&addr, &queued.digest, "json").expect_err("not done");
    assert!(err.contains("409"), "{err}");

    // Unknown digest: 404. Malformed digest: 400.
    let err = client::result(&addr, "ffffffffffffffff", "json").expect_err("unknown");
    assert!(err.contains("404"), "{err}");
    let err = client::status(&addr, "nope").expect_err("malformed");
    assert!(err.contains("400"), "{err}");
}

/// An inline Pythia variant's geometry, a config point's system and a
/// workload's generator spec are outside input, and validation is their
/// only gate: each of these used to reach a worker and abort the process
/// on allocation, panic it on an index out of bounds, a division by zero
/// or an assert, or (40 000 planes, release only) run a wrong argmax. Now
/// each is a 400 naming the field, nothing is queued, and the same server
/// runs the next campaign.
#[test]
fn hostile_variant_geometry_answers_400_and_the_service_stays_usable() {
    let (handle, addr) = spawn(ServeConfig {
        workers: 1,
        queue_cap: 4,
        sim_threads: 1,
        ..ServeConfig::default()
    });
    type Hostile = (&'static str, fn(&mut pythia_core::PythiaConfig));
    let variants: [Hostile; 4] = [
        ("plane_index_bits", |c| c.plane_index_bits = 40),
        ("plane_index_bits", |c| c.plane_index_bits = 64),
        ("eq_size", |c| c.eq_size = 1 << 40),
        ("planes", |c| c.planes = 40_000),
    ];
    // A system configuration is outside input too: an LLC with no set
    // panicked the cell's worker, 0 MTPS divided by zero, and an empty
    // measured phase tripped an assert.
    type HostileConfig = (&'static str, fn(&mut ConfigPoint));
    let configs: [HostileConfig; 3] = [
        ("size_bytes", |c| c.system.llc.size_bytes = 0),
        ("mtps", |c| c.system.dram.mtps = 0),
        ("measure", |c| c.measure = 0),
    ];
    let mut hostile = Vec::new();
    for (field, set) in variants {
        let mut cfg = pythia_core::PythiaConfig::tuned();
        set(&mut cfg);
        let spec = tiny_spec("svc-hostile", 4_000).with_pythia_variant("hostile", cfg);
        hostile.push((field, spec));
    }
    for (field, set) in configs {
        let mut spec = tiny_spec("svc-hostile", 4_000);
        set(&mut spec.configs[0]);
        hostile.push((field, spec));
    }
    // A zero footprint tripped the generator's assert on the worker thread.
    let mut degenerate = tiny_spec("svc-hostile", 4_000);
    degenerate.units[0].workloads[0].spec.footprint_pages = 0;
    hostile.push(("footprint_pages", degenerate));
    for (field, spec) in hostile {
        let body = Json::obj()
            .set("spec", pythia_sweep::codec::spec_json(&spec))
            .render();
        let err = client::submit(&addr, &body).expect_err(field);
        assert!(err.contains("400") && err.contains(field), "{field}: {err}");
    }
    assert_eq!(handle.scheduler().obs().events.submitted.get(), 0);

    let ok = tiny_spec("svc-after-hostile", 4_000)
        .with_pythia_variant("tuned", pythia_core::PythiaConfig::tuned());
    let submitted = submit_spec(&addr, &ok);
    client::wait_done(
        &addr,
        &submitted.digest,
        Duration::from_millis(20),
        Duration::from_secs(120),
    )
    .expect("the next campaign completes");
}

/// A body of 200 000 `[` (200 KB, far under the body cap) used to overflow
/// the handler thread's stack in the JSON reader and abort the process.
/// The reader caps nesting, so it is a 400 and the server stays up.
#[test]
fn a_deeply_nested_body_answers_400_and_the_service_stays_up() {
    use pythia_serve::http::ClientConn;

    let (_handle, addr) = spawn(ServeConfig {
        workers: 1,
        queue_cap: 4,
        sim_threads: 1,
        ..ServeConfig::default()
    });
    let nested = "[".repeat(200_000);
    let reply = ClientConn::connect(&addr)
        .expect("connect")
        .request("POST", "/campaigns", nested.as_bytes())
        .expect("answered");
    assert_eq!(reply.status, 400);
    let body = String::from_utf8_lossy(&reply.body);
    assert!(body.contains("nesting deeper than 128 levels"), "{body}");
    let metrics = ClientConn::connect(&addr)
        .expect("the server still accepts")
        .request("GET", "/metrics", b"")
        .expect("answered");
    assert_eq!(metrics.status, 200);
}

/// A valid campaign can still be refused at the merge: 10 + 50
/// instructions never reach memory, so the Appendix A.6 metrics have no
/// denominator. That is a `failed` job and a 409, not a dead worker.
#[test]
fn campaign_without_llc_misses_answers_409_and_the_service_stays_usable() {
    use pythia_serve::http::ClientConn;

    let (handle, addr) = spawn(ServeConfig {
        workers: 1,
        queue_cap: 4,
        sim_threads: 1,
        ..ServeConfig::default()
    });
    let gcc = all_suites()
        .into_iter()
        .find(|w| w.name == "602.gcc_s-734B")
        .expect("known workload");
    let starved = SweepSpec::new("svc-starved")
        .with_workloads([gcc])
        .with_prefetchers(&["stride"])
        .with_config(ConfigPoint::single_core("base", 10, 50));
    let submitted = submit_spec(&addr, &starved);
    let err = client::wait_done(
        &addr,
        &submitted.digest,
        Duration::from_millis(20),
        Duration::from_secs(20),
    )
    .expect_err("the campaign fails");
    assert!(err.contains("602.gcc_s-734B"), "{err}");
    assert!(err.contains("no LLC load misses"), "{err}");

    // Status, result and partial result on one kept-alive connection.
    let mut conn = ClientConn::connect(&addr).expect("connect");
    let status = conn
        .request("GET", &format!("/campaigns/{}", submitted.digest), b"")
        .expect("status");
    assert_eq!(status.status, 200);
    let doc = pythia_stats::json::parse(std::str::from_utf8(&status.body).expect("utf-8"))
        .expect("status body");
    assert_eq!(doc.get("status").and_then(Json::as_str), Some("failed"));
    for target in ["result", "result?partial=1"] {
        let reply = conn
            .request(
                "GET",
                &format!("/campaigns/{}/{target}", submitted.digest),
                b"",
            )
            .expect("same connection");
        assert_eq!(reply.status, 409, "{target}");
        let body = String::from_utf8_lossy(&reply.body);
        assert!(body.contains("campaign failed: "), "{target}: {body}");
        assert!(body.contains("no LLC load misses"), "{target}: {body}");
    }
    let again = submit_spec(&addr, &starved);
    assert_eq!(again.status, "failed", "answered from memory");

    // The one worker is still there, and so is the connection.
    let healthy = submit_spec(&addr, &tiny_spec("svc-after-starved", 4_000));
    client::wait_done(
        &addr,
        &healthy.digest,
        Duration::from_millis(20),
        Duration::from_secs(120),
    )
    .expect("the next campaign completes");
    let reply = conn
        .request("GET", &format!("/campaigns/{}/result", healthy.digest), b"")
        .expect("same connection");
    assert_eq!(reply.status, 200);
    let events = &handle.scheduler().obs().events;
    assert_eq!((events.failed.get(), events.completed.get()), (1, 1));
}

#[test]
fn disk_cache_survives_service_restarts() {
    let cache_dir = std::env::temp_dir().join(format!(
        "pythia-serve-restart-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&cache_dir);

    let spec = tiny_spec("svc-restart", 4_000);
    let digest = Campaign::single(spec.clone()).digest();

    // First service instance simulates and persists.
    let (_h1, addr1) = spawn(ServeConfig {
        workers: 1,
        queue_cap: 8,
        sim_threads: 1,
        cache_dir: Some(cache_dir.clone()),
        ..ServeConfig::default()
    });
    let first = submit_spec(&addr1, &spec);
    assert_eq!(first.digest, digest);
    client::wait_done(
        &addr1,
        &digest,
        Duration::from_millis(20),
        Duration::from_secs(120),
    )
    .expect("completes");
    let served = client::result(&addr1, &digest, "json").expect("result");

    // A fresh service instance on the same cache dir answers from disk —
    // the result route before anybody has told it of the campaign, since
    // the store is where results live; the job table knows no such job.
    let (h2, addr2) = spawn(ServeConfig {
        workers: 1,
        queue_cap: 8,
        sim_threads: 1,
        cache_dir: Some(cache_dir.clone()),
        ..ServeConfig::default()
    });
    assert_eq!(
        client::result(&addr2, &digest, "json").expect("result before any submission"),
        served,
        "the restarted service serves the first instance's bytes"
    );
    let unknown = client::status(&addr2, &digest).unwrap_err();
    assert!(unknown.contains("404"), "{unknown}");
    let resubmitted = submit_spec(&addr2, &spec);
    assert!(resubmitted.cached, "restarted service hits the disk store");
    assert_eq!(resubmitted.status, "done");
    let events = &h2.scheduler().obs().events;
    assert_eq!(events.executed.get(), 0, "nothing simulated");
    assert_eq!(events.cache_hits.get(), 1);
    assert_eq!(
        client::result(&addr2, &digest, "json").expect("result"),
        served,
        "disk-cached result is byte-identical to the originally served one"
    );
    let _ = std::fs::remove_dir_all(&cache_dir);
}

#[test]
fn figures_listing_names_every_registry_entry() {
    let (_handle, addr) = spawn(ServeConfig {
        workers: 0,
        queue_cap: 1,
        sim_threads: 1,
        ..ServeConfig::default()
    });
    let listing = client::figures(&addr).expect("listing");
    let figures = listing
        .get("figures")
        .and_then(Json::as_arr)
        .expect("figures array");
    let ids: Vec<&str> = figures
        .iter()
        .filter_map(|f| f.get("id").and_then(Json::as_str))
        .collect();
    for expected in ["fig01", "fig09", "tab02", "ablation"] {
        assert!(ids.contains(&expected), "{expected} missing from {ids:?}");
    }
    for f in figures {
        let digest = f.get("digest").and_then(Json::as_str).expect("digest");
        assert!(pythia_sweep::codec::is_digest(digest));
    }
}

#[test]
fn one_hundred_sequential_requests_share_one_kept_alive_connection() {
    use pythia_serve::http::ClientConn;

    // No workers: the job stays queued, so every poll answers 200 with a
    // deterministic body.
    let (handle, addr) = spawn(ServeConfig {
        workers: 0,
        queue_cap: 4,
        sim_threads: 1,
        ..ServeConfig::default()
    });
    let queued = submit_spec(&addr, &tiny_spec("svc-ka", 4_000));

    let mut conn = ClientConn::connect(&addr).expect("connect");
    for i in 0..100 {
        let reply = conn
            .request("GET", &format!("/campaigns/{}", queued.digest), b"")
            .unwrap_or_else(|e| panic!("request {i} failed: {e}"));
        assert_eq!(reply.status, 200, "request {i}");
        let doc = pythia_stats::json::parse(std::str::from_utf8(&reply.body).expect("utf-8"))
            .unwrap_or_else(|e| panic!("request {i} body: {e}"));
        assert_eq!(
            doc.get("status").and_then(Json::as_str),
            Some("queued"),
            "request {i}"
        );
    }
    // All 100 polls rode the same TCP connection.
    assert!(
        handle.scheduler().obs().connections.requests.get() >= 101,
        "submit + 100 polls counted"
    );
}

/// Regression: head and body used to leave in two writes with Nagle on, so
/// on a reused connection every body waited for the peer's delayed ACK of
/// its head — 44 ms a request, either direction.
#[test]
fn keep_alive_requests_are_not_held_for_a_delayed_ack() {
    use pythia_serve::http::ClientConn;

    let (_handle, addr) = spawn(ServeConfig {
        workers: 0,
        ..ServeConfig::default()
    });
    let mut conn = ClientConn::connect(&addr).expect("connect");
    let started = Instant::now();
    let mut request_s = Vec::new();
    for i in 0..50 {
        let sent = Instant::now();
        // A bodyless request, then one whose body follows its head.
        let (reply, expected) = if i % 2 == 0 {
            (conn.request("GET", "/nope", b""), 404)
        } else {
            let body = br#"{"figure": "no-such-figure"}"#;
            (conn.request("POST", "/campaigns", body), 400)
        };
        let reply = reply.unwrap_or_else(|e| panic!("request {i} failed: {e}"));
        assert_eq!(reply.status, expected, "request {i}");
        assert!(!reply.body.is_empty(), "request {i}");
        request_s.push(sent.elapsed());
    }
    let total = started.elapsed();
    request_s.sort();
    let p50 = request_s[request_s.len() / 2];
    assert!(
        total < Duration::from_secs(1) && p50 < Duration::from_millis(1),
        "50 keep-alive requests took {total:?}, p50 {p50:?}"
    );
}

/// A sequential client that closes every connection: each connection is
/// served by a handler thread of its own, which frees the connection's
/// slot when it ends, so the next connection finds the cap as it was.
#[test]
fn sequential_one_shot_connections_are_each_served_and_each_frees_its_slot() {
    let (handle, addr) = spawn(ServeConfig {
        workers: 0,
        ..ServeConfig::default()
    });
    let obs = handle.scheduler().obs();
    for i in 0..200 {
        let reply = pythia_serve::http::ClientConn::connect(&addr)
            .and_then(|mut conn| conn.request_with("GET", "/nope", b"", &[("connection", "close")]))
            .unwrap_or_else(|e| panic!("request {i} failed: {e}"));
        assert_eq!(reply.status, 404, "request {i}");
        let deadline = Instant::now() + Duration::from_secs(10);
        while obs.connections_active.get() != 0 {
            assert!(Instant::now() < deadline, "connection {i} never drained");
            std::thread::yield_now();
        }
    }
    assert_eq!(obs.connections.accepted.get(), 200);
}

/// A connect burst past the cap: `max_conns` connections are served, each
/// by its own handler, which holds its slot while the connection is open,
/// and the rest are shed.
#[test]
fn a_connect_burst_never_runs_more_handlers_than_the_cap() {
    use pythia_serve::http::ClientConn;
    use std::sync::{Arc, Barrier};

    const MAX_CONNS: usize = 4;
    const CLIENTS: usize = MAX_CONNS + 3;
    let (handle, addr) = spawn(ServeConfig {
        workers: 0,
        max_conns: MAX_CONNS,
        ..ServeConfig::default()
    });
    let (connect, hold) = (
        Arc::new(Barrier::new(CLIENTS)),
        Arc::new(Barrier::new(CLIENTS + 1)),
    );
    let clients: Vec<_> = (0..CLIENTS)
        .map(|_| {
            let (addr, connect, hold) = (addr.clone(), Arc::clone(&connect), Arc::clone(&hold));
            std::thread::spawn(move || {
                connect.wait();
                let mut conn = ClientConn::connect(&addr).ok();
                // A shed connection answers 503, or is already reset.
                let status = conn
                    .as_mut()
                    .and_then(|c| c.request("GET", "/nope", b"").ok())
                    .map(|reply| reply.status);
                // Every client keeps its connection open until all have an answer.
                hold.wait();
                hold.wait();
                status
            })
        })
        .collect();
    hold.wait();
    let obs = handle.scheduler().obs();
    assert_eq!(obs.connections_active.get(), MAX_CONNS as i64);
    assert_eq!(obs.connections.rejected.get(), 3);
    hold.wait();
    let statuses: Vec<Option<u16>> = clients
        .into_iter()
        .map(|c| c.join().expect("client thread"))
        .collect();
    let served = statuses.iter().filter(|s| **s == Some(404)).count();
    assert_eq!(served, MAX_CONNS, "{statuses:?}");
    assert!(
        statuses.iter().all(|s| matches!(s, Some(404 | 503) | None)),
        "{statuses:?}"
    );
}

#[test]
fn etag_conditional_fetch_round_trip() {
    let (_handle, addr) = spawn(ServeConfig {
        workers: 1,
        queue_cap: 4,
        sim_threads: 1,
        ..ServeConfig::default()
    });
    let submitted = submit_spec(&addr, &tiny_spec("svc-etag", 4_000));
    client::wait_done(
        &addr,
        &submitted.digest,
        Duration::from_millis(20),
        Duration::from_secs(120),
    )
    .expect("completes");

    // First fetch: fresh body plus the validator.
    let fetch = client::result_conditional(&addr, &submitted.digest, "json", None)
        .expect("unconditional fetch");
    let client::CachedFetch::Fresh { etag, body } = fetch else {
        panic!("first fetch must be fresh");
    };
    let etag = etag.expect("server sends an etag");
    assert_eq!(etag, format!("\"{}.json\"", submitted.digest));
    assert!(!body.is_empty());

    // Second fetch with the validator: 304, no body transferred.
    let fetch = client::result_conditional(&addr, &submitted.digest, "json", Some(&etag))
        .expect("conditional fetch");
    assert!(matches!(fetch, client::CachedFetch::NotModified));

    // A stale validator gets a fresh body again.
    let fetch = client::result_conditional(&addr, &submitted.digest, "json", Some("\"bogus\""))
        .expect("stale validator");
    let client::CachedFetch::Fresh { body: again, .. } = fetch else {
        panic!("stale validator must refetch");
    };
    assert_eq!(again, body, "same digest renders identical bytes");
}

#[test]
fn metrics_endpoint_reports_live_state() {
    let (_handle, addr) = spawn(ServeConfig {
        workers: 0,
        queue_cap: 4,
        sim_threads: 1,
        ..ServeConfig::default()
    });
    submit_spec(&addr, &tiny_spec("svc-metrics", 4_000));

    let metrics = client::metrics(&addr).expect("metrics parse");
    let path = |keys: &[&str]| {
        let mut node = &metrics;
        for key in keys {
            node = node.get(key).unwrap_or_else(|| panic!("missing {key}"));
        }
        node.as_u64()
            .unwrap_or_else(|| panic!("{keys:?} not a u64"))
    };
    assert_eq!(path(&["queue", "depth"]), 1, "one queued job");
    assert_eq!(path(&["queue", "cap"]), 4);
    assert_eq!(path(&["workers", "busy"]), 0);
    assert_eq!(path(&["workers", "total"]), 0);
    assert_eq!(path(&["counters", "submitted"]), 1);
    assert!(path(&["connections", "requests"]) >= 1);
    assert_eq!(
        metrics
            .get("store")
            .and_then(|s| s.get("max_bytes"))
            .and_then(Json::as_u64),
        Some(pythia_serve::server::MEMORY_STORE_BYTES),
        "no cache dir configured: the memory leaf at its default budget"
    );
    assert_eq!(path(&["jobs", "resident"]), 1);
    assert!(metrics
        .get("throughput")
        .and_then(|t| t.get("minst_per_sec"))
        .and_then(Json::as_f64)
        .is_some());
}

/// Fair queueing: a huge campaign from one tenant must not starve a
/// small campaign from another on a bounded pool. The small one
/// completes while the huge one is still mid-flight, and both tenants'
/// served-cell counters advance.
#[test]
fn small_tenant_campaign_is_not_starved_by_a_huge_one() {
    let (handle, addr) = spawn(ServeConfig {
        workers: 1,
        queue_cap: 8,
        sim_threads: 1,
        ..ServeConfig::default()
    });

    // 24 seeds -> 48 cells (baseline + measured per seed) for alice;
    // 2 seeds -> 4 cells for bob. One worker serves both: round-robin
    // interleaves them cell by cell.
    let huge_seeds: Vec<u64> = (0..24).collect();
    let huge = tiny_spec("svc-fair-huge", 6_000).with_seeds(&huge_seeds);
    let small = tiny_spec("svc-fair-small", 4_000).with_seeds(&[0, 1]);

    let huge_sub = submit_spec_as(&addr, &huge, "alice", 1);
    let small_sub = submit_spec_as(&addr, &small, "bob", 1);

    client::wait_done(
        &addr,
        &small_sub.digest,
        Duration::from_millis(10),
        Duration::from_secs(300),
    )
    .expect("small campaign completes");

    // The huge campaign is still running: interleaved progress, not
    // head-of-line blocking.
    let huge_status = client::status(&addr, &huge_sub.digest).expect("status");
    let cells = |doc: &Json, key: &str| {
        doc.get("cells")
            .and_then(|c| c.get(key))
            .and_then(Json::as_u64)
            .expect("cell progress present")
    };
    let huge_done = cells(&huge_status, "done");
    let huge_total = cells(&huge_status, "total");
    assert_eq!(huge_total, 48);
    assert!(
        huge_done < huge_total,
        "huge campaign must still be in flight when the small one finishes \
         ({huge_done}/{huge_total})"
    );

    // Both tenants' served counters advanced.
    let metrics = client::metrics(&addr).expect("metrics");
    let served = |tenant: &str| {
        metrics
            .get("tenants")
            .and_then(|t| t.get(tenant))
            .and_then(Json::as_u64)
            .unwrap_or_else(|| panic!("tenant {tenant} missing from metrics"))
    };
    assert!(served("alice") > 0, "alice was served while bob finished");
    assert_eq!(served("bob"), 4, "bob's campaign is fully served");

    client::wait_done(
        &addr,
        &huge_sub.digest,
        Duration::from_millis(20),
        Duration::from_secs(300),
    )
    .expect("huge campaign completes too");
    assert_eq!(handle.scheduler().obs().events.cells_executed.get(), 52);
}

/// The `?partial=1` contract: `cells_done` is monotonic across polls,
/// every partial body is a valid render whose rows are a prefix of the
/// final artifact, and the final partial equals `GET /result` byte for
/// byte.
#[test]
fn partial_results_are_monotonic_prefixes_of_the_final_artifact() {
    let (_handle, addr) = spawn(ServeConfig {
        workers: 1,
        queue_cap: 8,
        sim_threads: 1,
        ..ServeConfig::default()
    });

    let seeds: Vec<u64> = (0..8).collect();
    let spec = tiny_spec("svc-partial", 5_000).with_seeds(&seeds); // 16 cells
    let submitted = submit_spec(&addr, &spec);

    // Poll partials until the fetch reports completion.
    let deadline = Instant::now() + Duration::from_secs(300);
    let mut snapshots: Vec<client::PartialResult> = Vec::new();
    loop {
        let partial =
            client::partial_result(&addr, &submitted.digest, "json").expect("partial fetch");
        let complete = partial.complete;
        snapshots.push(partial);
        if complete {
            break;
        }
        assert!(Instant::now() < deadline, "campaign never finished");
        std::thread::sleep(Duration::from_millis(5));
    }

    let final_body = client::result(&addr, &submitted.digest, "json").expect("final result");
    let last = snapshots.last().expect("at least one snapshot");
    assert_eq!(last.cells_done, 16);
    assert_eq!(last.cells_total, 16);
    assert_eq!(
        last.body, final_body,
        "the complete partial equals GET /result byte for byte"
    );
    assert!(
        snapshots.iter().any(|s| !s.complete),
        "at least one poll observed the campaign mid-flight"
    );

    let final_doc = pythia_stats::json::parse(&final_body).expect("final parses");
    let rows = |doc: &Json, key: &str| -> Vec<String> {
        doc.get(key)
            .and_then(Json::as_arr)
            .expect("row array")
            .iter()
            .map(Json::render)
            .collect()
    };
    let final_baselines = rows(&final_doc, "baselines");
    let final_cells = rows(&final_doc, "cells");

    let mut last_done = 0;
    for (i, snapshot) in snapshots.iter().enumerate() {
        assert!(
            snapshot.cells_done >= last_done,
            "poll {i}: cells_done regressed ({} < {last_done})",
            snapshot.cells_done
        );
        last_done = snapshot.cells_done;
        assert_eq!(snapshot.cells_total, 16, "poll {i}");
        // Every partial is itself valid JSON whose rows are a prefix of
        // the final row order.
        let doc = pythia_stats::json::parse(&snapshot.body)
            .unwrap_or_else(|e| panic!("poll {i} body: {e}"));
        let baselines = rows(&doc, "baselines");
        let cells = rows(&doc, "cells");
        assert_eq!(
            baselines[..],
            final_baselines[..baselines.len()],
            "poll {i}: baselines are a prefix"
        );
        assert_eq!(
            cells[..],
            final_cells[..cells.len()],
            "poll {i}: cells are a prefix"
        );
    }
}

#[test]
fn connection_cap_sheds_excess_connections_with_503() {
    use pythia_serve::http::ClientConn;

    let (_handle, addr) = spawn(ServeConfig {
        workers: 0,
        queue_cap: 1,
        sim_threads: 1,
        max_conns: 1,
        ..ServeConfig::default()
    });

    // Occupy the only slot with a kept-alive connection.
    let mut held = ClientConn::connect(&addr).expect("connect");
    let reply = held.request("GET", "/metrics", b"").expect("first request");
    assert_eq!(reply.status, 200);

    // Any further connection is shed with a clean 503.
    let err = client::figures(&addr).expect_err("over the cap");
    assert!(err.contains("503"), "{err}");

    // Releasing the slot restores service (the handler needs a moment to
    // observe the close).
    drop(held);
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        match client::figures(&addr) {
            Ok(_) => break,
            Err(e) if Instant::now() < deadline => {
                assert!(e.contains("503"), "unexpected error: {e}");
                std::thread::sleep(Duration::from_millis(20));
            }
            Err(e) => panic!("slot never freed: {e}"),
        }
    }
}

#[test]
fn idle_connections_get_408_and_close() {
    use std::io::{Read, Write};

    let (handle, addr) = spawn(ServeConfig {
        workers: 0,
        queue_cap: 1,
        sim_threads: 1,
        idle_timeout: Duration::from_millis(150),
        ..ServeConfig::default()
    });

    let mut stream = std::net::TcpStream::connect(&addr).expect("connect");
    // Write nothing: the server must answer 408 and close, not hang or
    // silently drop.
    let mut raw = String::new();
    stream.read_to_string(&mut raw).expect("read until close");
    assert!(raw.starts_with("HTTP/1.1 408"), "{raw:?}");
    assert!(handle.scheduler().obs().connections.timeouts.get() >= 1);
    // Writes after the close fail eventually (not strictly asserted —
    // platform-dependent), but the stream is done serving.
    let _ = stream.write_all(b"GET /figures HTTP/1.1\r\n\r\n");
}

/// A request that carries `Transfer-Encoding` is answered `400` and its
/// connection closed, so a request a peer frames as a chunk of its body is
/// never read as one of its own. Read by `Content-Length` alone, this
/// keep-alive POST's body is the chunk-size line, and its chunk a
/// `GET /metrics` the service would answer (RFC 9112 §6.1, §6.3).
#[test]
fn a_transfer_encoding_request_is_refused_and_smuggles_no_request() {
    use std::io::{Read, Write};

    let (handle, addr) = spawn(ServeConfig {
        workers: 0,
        queue_cap: 1,
        sim_threads: 1,
        ..ServeConfig::default()
    });
    let smuggled = "GET /metrics HTTP/1.1\r\n\r\n";
    let raw = format!(
        "POST /campaigns HTTP/1.1\r\nhost: {addr}\r\ncontent-length: 4\r\n\
         transfer-encoding: chunked\r\n\r\n{:x}\r\n{smuggled}\r\n0\r\n\r\n",
        smuggled.len()
    );
    let mut stream = std::net::TcpStream::connect(&addr).expect("connect");
    stream.write_all(raw.as_bytes()).expect("write");
    // Everything up to the close; a reset after the answer ends it too.
    let mut answered = Vec::new();
    let _ = stream.read_to_end(&mut answered);
    let answered = String::from_utf8_lossy(&answered);
    assert!(answered.starts_with("HTTP/1.1 400 "), "{answered:?}");
    assert!(answered.contains("connection: close"), "{answered:?}");
    assert_eq!(answered.matches("HTTP/1.1 ").count(), 1, "{answered:?}");
    let obs = handle.scheduler().obs();
    assert_eq!(obs.connections.requests.get(), 0, "no request was routed");
}

/// Schema pin for the `/metrics` JSON view: every key path listed here
/// must stay present. Additions are free; removing or renaming any of
/// these is a breaking change for monitoring clients and must fail here.
#[test]
fn metrics_json_schema_is_pinned() {
    let (_handle, addr) = spawn(ServeConfig {
        workers: 0,
        queue_cap: 4,
        sim_threads: 1,
        ..ServeConfig::default()
    });
    submit_spec(&addr, &tiny_spec("svc-schema", 4_000));
    let metrics = client::metrics(&addr).expect("metrics parse");

    const REQUIRED: &[&str] = &[
        "queue.depth",
        "queue.cap",
        "cells.queued",
        "cells.in_flight",
        "cells.executed",
        "cells.replayed",
        "workers.busy",
        "workers.total",
        "counters.submitted",
        "counters.executed",
        "counters.cache_hits",
        "counters.coalesced",
        "counters.body_hits",
        "counters.completed",
        "counters.failed",
        "counters.rejected",
        "counters.replayed",
        "counters.cells_executed",
        "counters.cells_replayed",
        "tenants",
        "jobs.resident",
        "store.enabled",
        "store.hits",
        "store.misses",
        "store.stored",
        "store.evicted",
        "store.bytes_used",
        "store.max_bytes",
        "connections.active",
        "connections.accepted",
        "connections.rejected",
        "connections.requests",
        "connections.timeouts",
        "results.renders",
        "results.render_hits",
        "throughput.sim_instructions",
        "throughput.sim_wall_seconds",
        "throughput.minst_per_sec",
        "latency.routes_us.metrics.count",
        "latency.routes_us.submit.p99",
        "latency.cell_queue_wait_us.count",
        "latency.cell_execution_us.count",
        "latency.journal_fsync_us.count",
    ];
    let mut missing = Vec::new();
    for path in REQUIRED {
        let mut node = Some(&metrics);
        for key in path.split('.') {
            node = node.and_then(|n| n.get(key));
        }
        if node.is_none() {
            missing.push(*path);
        }
    }
    assert!(missing.is_empty(), "removed /metrics keys: {missing:?}");
}

/// `GET /metrics?format=prom` passes the in-repo Prometheus linter and
/// carries the acceptance families: per-route request latency, cell
/// queue-wait, cell execution time, and store hit/miss counters.
#[test]
fn metrics_prom_lints_clean_and_names_required_families() {
    let dir = std::env::temp_dir().join(format!("pythia-serve-prom-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let (handle, addr) = spawn(ServeConfig {
        workers: 1,
        queue_cap: 4,
        sim_threads: 1,
        cache_dir: Some(dir.clone()),
        ..ServeConfig::default()
    });
    let submitted = submit_spec(&addr, &tiny_spec("svc-prom", 4_000));
    client::wait_done(
        &addr,
        &submitted.digest,
        Duration::from_millis(25),
        Duration::from_secs(60),
    )
    .expect("campaign completes");
    // A second fetch of the JSON view makes the route histograms move.
    let _ = client::metrics(&addr).expect("metrics json");

    let text = client::metrics_prom(&addr).expect("prom text");
    let problems = pythia_obs::prom::lint(&text);
    assert!(problems.is_empty(), "prom lint: {problems:?}");
    for family in [
        "pythia_http_request_duration_us",
        "pythia_cell_queue_wait_us",
        "pythia_cell_execution_us",
        "pythia_journal_fsync_us",
        "pythia_store_hits_total",
        "pythia_store_misses_total",
        "pythia_store_bytes_used",
        "pythia_jobs_resident",
        "pythia_scheduler_events_total",
        "pythia_connections_total",
        "pythia_result_events_total",
        "pythia_connections_active",
        "pythia_workers_busy",
        "pythia_sim_instructions_total",
    ] {
        assert!(
            text.contains(&format!("# TYPE {family} ")),
            "missing family {family} in:\n{text}"
        );
    }
    // The executed cells left real observations behind.
    assert!(
        text.contains("pythia_cell_execution_us_count 2"),
        "two cells executed:\n{text}"
    );
    drop(handle);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The value of one sample line of a Prometheus exposition, by its exact
/// series (`name` or `name{labels}`).
fn prom_sample(text: &str, series: &str) -> f64 {
    text.lines()
        .find_map(|line| line.strip_prefix(series)?.strip_prefix(' ')?.parse().ok())
        .unwrap_or_else(|| panic!("no sample {series} in:\n{text}"))
}

/// The two `/metrics` views read one registry and cannot drift: on a
/// quiesced server every number of the JSON document equals the sample
/// the Prometheus view carries for it.
#[test]
fn metrics_json_and_prom_views_agree_on_a_quiesced_server() {
    let dir = std::env::temp_dir().join(format!("pythia-serve-views-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let (_handle, addr) = spawn(ServeConfig {
        workers: 1,
        queue_cap: 4,
        sim_threads: 1,
        cache_dir: Some(dir.clone()),
        ..ServeConfig::default()
    });
    // One cold campaign, one cache hit, one 304.
    let spec = tiny_spec("svc-views", 4_000);
    let cold = submit_spec(&addr, &spec);
    client::wait_done(
        &addr,
        &cold.digest,
        Duration::from_millis(20),
        Duration::from_secs(60),
    )
    .expect("campaign completes");
    assert!(submit_spec(&addr, &spec).cached);
    let etag = format!("\"{}.json\"", cold.digest);
    let fetch = client::result_conditional(&addr, &cold.digest, "json", Some(&etag)).expect("304");
    assert!(matches!(fetch, client::CachedFetch::NotModified));
    // The client's calls ride one kept connection: the quiesced server has
    // that one open. Handler threads bump the gauge down after the client
    // sees a close.
    let quiesced = Instant::now() + Duration::from_secs(10);
    while client::metrics(&addr)
        .expect("metrics")
        .get("connections")
        .and_then(|c| c.get("active"))
        .and_then(Json::as_u64)
        != Some(1)
    {
        assert!(Instant::now() < quiesced, "connections never drained");
        std::thread::sleep(Duration::from_millis(5));
    }

    // Scrape prom first: the JSON scrape after it sees one more request
    // and one more `metrics` route sample, all of which the comparison
    // below accounts for exactly. Both scrapes ride the kept connection,
    // so no connection is accepted in between.
    let prom = client::metrics_prom(&addr).expect("prom text");
    let json = client::metrics(&addr).expect("metrics json");
    let at = |path: &str| {
        path.split('.')
            .try_fold(&json, |node, key| node.get(key))
            .and_then(Json::as_f64)
            .unwrap_or_else(|| panic!("no {path} in the JSON view"))
    };
    let check = |path: &str, series: &str, json_extra: f64| {
        assert_eq!(
            at(path),
            prom_sample(&prom, series) + json_extra,
            "{path} vs {series}"
        );
    };

    let events = json
        .get("counters")
        .and_then(Json::as_obj)
        .expect("counters");
    assert_eq!(events.len(), 11, "eleven scheduler events");
    for (event, _) in events {
        check(
            &format!("counters.{event}"),
            &format!("pythia_scheduler_events_total{{event=\"{event}\"}}"),
            0.0,
        );
    }
    assert_eq!(at("counters.submitted"), 2.0);
    assert_eq!(at("counters.cache_hits"), 1.0);
    // The second POST sent the first one's bytes: the lane answered it.
    assert_eq!(at("counters.body_hits"), 1.0);
    check(
        "cells.executed",
        "pythia_scheduler_events_total{event=\"cells_executed\"}",
        0.0,
    );
    check(
        "cells.replayed",
        "pythia_scheduler_events_total{event=\"cells_replayed\"}",
        0.0,
    );
    for (event, json_extra) in [
        ("accepted", 0.0),
        ("rejected", 0.0),
        ("requests", 1.0),
        ("timeouts", 0.0),
    ] {
        check(
            &format!("connections.{event}"),
            &format!("pythia_connections_total{{event=\"{event}\"}}"),
            json_extra,
        );
    }
    for event in ["renders", "render_hits"] {
        check(
            &format!("results.{event}"),
            &format!("pythia_result_events_total{{event=\"{event}\"}}"),
            0.0,
        );
    }
    // The one result request so far was the 304: nothing was rendered.
    assert_eq!(
        (at("results.renders"), at("results.render_hits")),
        (0.0, 0.0)
    );
    for (path, series) in [
        ("connections.active", "pythia_connections_active"),
        ("queue.depth", "pythia_queue_depth"),
        ("queue.cap", "pythia_queue_cap"),
        ("cells.queued", "pythia_cells_queued"),
        ("cells.in_flight", "pythia_cells_in_flight"),
        ("workers.busy", "pythia_workers_busy"),
        ("workers.total", "pythia_workers_total"),
        ("jobs.resident", "pythia_jobs_resident"),
        ("store.hits", "pythia_store_hits_total"),
        ("store.misses", "pythia_store_misses_total"),
        ("store.stored", "pythia_store_stored_total"),
        ("store.evicted", "pythia_store_evicted_total"),
        ("store.bytes_used", "pythia_store_bytes_used"),
        (
            "throughput.sim_instructions",
            "pythia_sim_instructions_total",
        ),
    ] {
        check(path, series, 0.0);
    }
    assert_eq!(at("store.stored"), 1.0);
    assert_eq!(at("jobs.resident"), 1.0);
    assert!(at("store.bytes_used") > 0.0);
    assert_eq!(
        at("throughput.sim_wall_seconds"),
        prom_sample(&prom, "pythia_sim_wall_us_total") / 1e6
    );
    for (path, family) in [
        ("latency.cell_queue_wait_us", "pythia_cell_queue_wait_us"),
        ("latency.cell_execution_us", "pythia_cell_execution_us"),
        ("latency.journal_fsync_us", "pythia_journal_fsync_us"),
    ] {
        check(&format!("{path}.count"), &format!("{family}_count"), 0.0);
        check(&format!("{path}.sum"), &format!("{family}_sum"), 0.0);
    }
    assert_eq!(at("latency.cell_execution_us.count"), 2.0);
    for route in ["figures", "submit", "status", "result", "other"] {
        for (field, suffix) in [("count", "_count"), ("sum", "_sum")] {
            check(
                &format!("latency.routes_us.{route}.{field}"),
                &format!("pythia_http_request_duration_us{suffix}{{route=\"{route}\"}}"),
                0.0,
            );
        }
    }
    // The prom scrape itself is the one `metrics` request in between.
    check(
        "latency.routes_us.metrics.count",
        "pythia_http_request_duration_us_count{route=\"metrics\"}",
        1.0,
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// The store holds the only copy of a result, so an artifact that no
/// longer decodes must cost one re-simulation, not the digest: the fetch
/// that finds it answers 404 (and drops it, counting a store miss), the
/// next submission runs the campaign again, and the bytes served are the
/// first run's. Truncated, then garbled, between client sessions, on the
/// disk leaf and on the memory leaf. An artifact damaged into something
/// that still decodes would be served: telling that needs a content
/// checksum, which stays in ROADMAP "Crash anywhere".
#[test]
fn a_damaged_artifact_is_a_miss_and_the_campaign_runs_again() {
    let dir = std::env::temp_dir().join(format!("pythia-serve-damage-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    for cache_dir in [Some(dir.clone()), None] {
        let leaf = if cache_dir.is_some() {
            "disk"
        } else {
            "memory"
        };
        let (handle, addr) = spawn(ServeConfig {
            workers: 1,
            queue_cap: 8,
            sim_threads: 1,
            cache_dir: cache_dir.clone(),
            ..ServeConfig::default()
        });
        let spec = tiny_spec("svc-damage", 4_000);
        let session = |expect_cached: bool| {
            let submitted = submit_spec(&addr, &spec);
            assert_eq!(submitted.cached, expect_cached, "{leaf}");
            let (poll, timeout) = (Duration::from_millis(20), Duration::from_secs(60));
            client::wait_done(&addr, &submitted.digest, poll, timeout).expect("completes");
            submitted.digest
        };
        let digest = session(false);
        let md = client::result(&addr, &digest, "md").expect("md");
        let whole = handle.scheduler().store().bytes(&digest);
        let whole = whole.expect("reads").expect("stored").to_vec();
        let damage = |bytes: &[u8]| match &cache_dir {
            Some(dir) => std::fs::write(dir.join(format!("{digest}.json")), bytes).expect("write"),
            None => {
                let store = handle.scheduler().store();
                store.write(&digest, bytes.to_vec()).expect("write");
            }
        };
        let misses = || {
            let metrics = client::metrics(&addr).expect("metrics");
            let store = metrics.get("store").expect("store block");
            store.get("misses").and_then(Json::as_u64).expect("misses")
        };

        // Truncated. The job table still says done, the store says a file
        // is there: only reading it tells. `json` is the format served
        // without a render, and it is checked like any other.
        damage(&whole[..whole.len() / 2]);
        assert_eq!(session(true), digest, "{leaf}: nobody has looked yet");
        let before = misses();
        let gone = client::result(&addr, &digest, "json").unwrap_err();
        assert!(gone.contains("404") && gone.contains("damaged"), "{gone}");
        assert_eq!(misses(), before + 1, "{leaf}");
        assert!(!handle.scheduler().store().contains(&digest), "{leaf}");
        let unknown = client::status(&addr, &digest).unwrap_err();
        assert!(unknown.contains("404"), "{leaf}: {unknown}");
        session(false);
        let again = client::result(&addr, &digest, "json").expect("json");
        assert_eq!(again.as_bytes(), whole, "{leaf}: identical bytes");

        // Garbled: same length, not JSON. The `json` render of a moment
        // ago is still in the recent-renders cache and still right; `md`
        // has to read the store.
        let garbled: Vec<u8> = whole.iter().map(|b| b ^ 0x55).collect();
        damage(&garbled);
        let gone = client::result(&addr, &digest, "csv").unwrap_err();
        assert!(gone.contains("404") && gone.contains("damaged"), "{gone}");
        session(false);
        assert_eq!(client::result(&addr, &digest, "md").expect("md"), md);
        assert_eq!(handle.scheduler().obs().events.executed.get(), 3, "{leaf}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// `wait_done` backs off from 1 ms instead of sleeping the caller's
/// whole interval after the first poll: a campaign of a few milliseconds
/// is not turned into a 200 ms one, and the number of polls stays
/// logarithmic in the wait.
#[test]
fn wait_done_backs_off_from_one_millisecond_up_to_the_poll_interval() {
    let (handle, addr) = spawn(ServeConfig {
        workers: 1,
        queue_cap: 4,
        sim_threads: 1,
        ..ServeConfig::default()
    });
    let poll = Duration::from_millis(200);
    let submitted = submit_spec(&addr, &tiny_spec("svc-backoff", 4_000));
    assert!(!submitted.cached);
    let started = Instant::now();
    client::wait_done(&addr, &submitted.digest, poll, Duration::from_secs(60))
        .expect("campaign completes");
    let waited = started.elapsed();
    assert!(
        waited < poll,
        "a tiny campaign must not cost a whole poll interval: waited {waited:?}"
    );
    // Pauses of 1, 2, 4, ... 128 ms sum past 200 ms after eight polls.
    let requests = handle.scheduler().obs().connections.requests.get();
    assert!(
        (2..=10).contains(&requests),
        "one submission plus at most nine status polls, saw {requests}"
    );
}

/// A thread's helper calls ride one kept connection: a submit, its status
/// polls, the result fetch and a `304` are all accepted once.
#[test]
fn a_threads_helper_calls_share_one_kept_connection() {
    let (handle, addr) = spawn(ServeConfig {
        workers: 1,
        queue_cap: 4,
        sim_threads: 1,
        ..ServeConfig::default()
    });
    let submitted = submit_spec(&addr, &tiny_spec("svc-kept", 4_000));
    for _ in 0..3 {
        let doc = client::status(&addr, &submitted.digest).expect("status");
        assert_eq!(
            doc.get("digest").and_then(Json::as_str),
            Some(submitted.digest.as_str())
        );
    }
    client::wait_done(
        &addr,
        &submitted.digest,
        Duration::from_millis(5),
        Duration::from_secs(60),
    )
    .expect("campaign completes");
    let fetch = client::result_conditional(&addr, &submitted.digest, "json", None).expect("200");
    let client::CachedFetch::Fresh { etag, .. } = fetch else {
        panic!("the first fetch is fresh");
    };
    let fetch =
        client::result_conditional(&addr, &submitted.digest, "json", etag.as_deref()).expect("304");
    assert!(matches!(fetch, client::CachedFetch::NotModified));
    let obs = handle.scheduler().obs();
    assert!(obs.connections.requests.get() >= 7, "every call was served");
    assert_eq!(obs.connections.accepted.get(), 1, "one connection for all");
    assert_eq!(obs.connections_active.get(), 1, "and it is still open");
}

/// A kept connection the server timed out is never reused: the `408` and
/// the FIN it left are found before the next request, which goes on a new
/// connection and gets its route's reply.
#[test]
fn a_call_after_the_idle_timeout_gets_its_reply_not_the_408() {
    let (handle, addr) = spawn(ServeConfig {
        workers: 0,
        idle_timeout: Duration::from_millis(50),
        ..ServeConfig::default()
    });
    let obs = handle.scheduler().obs();
    let listed = client::figures(&addr).expect("figures");
    std::thread::sleep(Duration::from_millis(100));
    // A handler the host held up past the sleep times out later.
    let deadline = Instant::now() + Duration::from_secs(10);
    while obs.connections.timeouts.get() == 0 {
        assert!(
            Instant::now() < deadline,
            "the idle connection never timed out"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    let again = client::figures(&addr).expect("the route's reply, not a 408");
    assert_eq!(again.render(), listed.render());
    assert_eq!(obs.connections.timeouts.get(), 1, "the idle connection");
    assert_eq!(obs.connections.accepted.get(), 2, "and one new one");
}

/// Two threads calling at once each keep a connection of their own, and
/// each reads only its own replies.
#[test]
fn concurrent_threads_keep_one_connection_each() {
    use std::sync::{Arc, Barrier};

    let (handle, addr) = spawn(ServeConfig {
        workers: 0,
        queue_cap: 4,
        ..ServeConfig::default()
    });
    let start = Arc::new(Barrier::new(2));
    let threads: Vec<_> = ["svc-kept-a", "svc-kept-b"]
        .into_iter()
        .map(|tag| {
            let (addr, start) = (addr.clone(), Arc::clone(&start));
            std::thread::spawn(move || {
                start.wait();
                let digest = submit_spec(&addr, &tiny_spec(tag, 4_000)).digest;
                for i in 0..50 {
                    let doc = client::status(&addr, &digest).expect("status");
                    assert_eq!(
                        doc.get("digest").and_then(Json::as_str),
                        Some(digest.as_str()),
                        "poll {i} of {tag}"
                    );
                }
                digest
            })
        })
        .collect();
    let digests: Vec<String> = threads
        .into_iter()
        .map(|t| t.join().expect("client thread"))
        .collect();
    assert_ne!(digests[0], digests[1]);
    let obs = handle.scheduler().obs();
    assert_eq!(obs.connections.requests.get(), 2 * 51);
    assert_eq!(obs.connections.accepted.get(), 2, "one connection a thread");
}

/// A reply that says `connection: close` is not kept: each call over the
/// connection cap is shed with a `503` on a connection of its own, and the
/// first call after the slot frees keeps its connection again.
#[test]
fn a_reply_that_closes_is_not_kept() {
    use pythia_serve::http::ClientConn;

    let (handle, addr) = spawn(ServeConfig {
        workers: 0,
        max_conns: 1,
        ..ServeConfig::default()
    });
    let obs = handle.scheduler().obs();
    let mut held = ClientConn::connect(&addr).expect("connect");
    assert_eq!(
        held.request("GET", "/figures", b"").expect("held").status,
        200
    );
    for i in 1..=2 {
        // Shed: a `503`, or a reset when it crosses the request.
        client::figures(&addr).expect_err("over the cap");
        assert_eq!(obs.connections.accepted.get(), 1 + i, "call {i} connected");
        assert_eq!(obs.connections.rejected.get(), i);
    }
    drop(held);
    let deadline = Instant::now() + Duration::from_secs(10);
    while client::figures(&addr).is_err() {
        assert!(Instant::now() < deadline, "slot never freed");
        std::thread::sleep(Duration::from_millis(20));
    }
    let accepted = obs.connections.accepted.get();
    client::figures(&addr).expect("figures");
    assert_eq!(obs.connections.accepted.get(), accepted, "kept once served");
}

/// Reads one bodyless request head off `stream`, or `None` at
/// end-of-stream.
fn read_request_head(stream: &mut std::net::TcpStream) -> Option<String> {
    use std::io::Read;

    let mut head = Vec::new();
    let mut byte = [0u8];
    while !head.ends_with(b"\r\n\r\n") {
        match stream.read(&mut byte) {
            Ok(1) => head.push(byte[0]),
            _ => return None,
        }
    }
    Some(String::from_utf8(head).expect("utf-8 head"))
}

/// A raw server: it answers the first request of its first connection
/// with keep-alive, reads the next request and closes without a reply,
/// then reads one request on a second connection and answers it when
/// `answer_retry`, closing it unanswered otherwise.
fn drop_second_request(listener: std::net::TcpListener, answer_retry: bool) {
    use std::io::Write;

    let reply = |n: u32| {
        let body = format!("{{\"n\":{n}}}");
        format!(
            "HTTP/1.1 200 OK\r\ncontent-length: {}\r\n\r\n{body}",
            body.len()
        )
    };
    let (mut first, _) = listener.accept().expect("accept");
    read_request_head(&mut first).expect("first request");
    first
        .write_all(reply(1).as_bytes())
        .expect("answer the first");
    read_request_head(&mut first).expect("second request");
    drop(first);
    let (mut retry, _) = listener.accept().expect("accept the retry");
    read_request_head(&mut retry).expect("retried request");
    if answer_retry {
        retry.write_all(reply(2).as_bytes()).expect("answer");
    }
}

/// A reused connection that fails before any reply byte arrives is retried
/// exactly once, on a new connection; a new connection that fails is an
/// error, not a loop.
#[test]
fn a_request_a_kept_connection_drops_is_retried_once_on_a_new_one() {
    for answer_retry in [true, false] {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr").to_string();
        let accepts = listener.try_clone().expect("clone listener");
        let server = std::thread::spawn(move || drop_second_request(accepts, answer_retry));
        let first = client::metrics(&addr).expect("first reply");
        assert_eq!(first.get("n").and_then(Json::as_u64), Some(1));
        let retried = client::metrics(&addr);
        if answer_retry {
            let retried = retried.expect("the retry's reply");
            assert_eq!(retried.get("n").and_then(Json::as_u64), Some(2));
        } else {
            let err = retried.expect_err("the retry failed too");
            assert!(err.contains("connection closed"), "{err}");
        }
        server.join().expect("raw server");
        // Any third connect would be queued on the listener by now.
        listener.set_nonblocking(true).expect("nonblocking");
        let third = listener.accept().map(|_| ()).map_err(|e| e.kind());
        assert_eq!(third, Err(std::io::ErrorKind::WouldBlock), "{answer_retry}");
    }
}
