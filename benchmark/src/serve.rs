//! `serve_small_cells_mix`: the campaign service under one closed-loop client
//! over real TCP.
//!
//! One repetition is a cold session (POST a never-seen spec of 24 tiny
//! simulations, poll until done, GET the result), eight hit sessions (re-POST
//! the completed body, GET the result) and one `If-None-Match` fetch. The
//! simulator does little here: planning, the codec digest, merging, JSON,
//! HTTP, the scheduler, the journal and the store do most of the work.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use pythia_serve::client::{self, CachedFetch};
use pythia_serve::{ServeConfig, Server, ServerHandle};
use pythia_sim::stats::SimReport;
use pythia_stats::json::{parse, Json};
use pythia_sweep::codec::spec_json;
use pythia_sweep::engine::run_all;
use pythia_sweep::{plan_campaign, Campaign, ConfigPoint, ResultStore, SweepResult, SweepSpec};
use pythia_workloads::{suite, Suite};

use crate::harness::{end_to_end, iterations, Calibration, Pass, Setup, MIN_REPS};
use crate::metrics::{same_bytes, Checks, Layers, Outcome};
use crate::sim::{conserved, report_bytes, simulated_rows};
use crate::spans::Tracer;
use crate::stats::{derive_seed, fnv1a, median, percentile};
use crate::{Args, TempDir};

pub const NAME: &str = "serve_small_cells_mix";
/// Set-up samples the host's speed once every so many warm-up repetitions.
const WARMUP_REPS_PER_CALIBRATION: usize = 16;
/// Untimed warm-up repetitions: 160, a third of the timed region.
const WARMUP_REPS: usize = 10 * WARMUP_REPS_PER_CALIBRATION;
const HITS_PER_REP: usize = 8;
/// The first eight SPEC06 workloads × {stride, pythia}, plus eight baselines.
const UNITS: usize = 8;
const PREFETCHERS: [&str; 2] = ["stride", "pythia"];
const SIMULATIONS: usize = UNITS * (PREFETCHERS.len() + 1);
/// Do not shrink: below about 1 K + 4 K the baseline sees no LLC miss and
/// `metrics::compare` panics inside the server's merge.
const WARMUP_INST: u64 = 1_000;
const MEASURE_INST: u64 = 4_000;
const POLL: Duration = Duration::from_micros(200);
const SESSION_TIMEOUT: Duration = Duration::from_secs(20);
/// Byte budget of the service's result store, small enough that eviction runs.
const STORE_BYTES: u64 = 4 << 20;
/// Traced repetitions whose spec is also executed directly, layer by layer.
const DIRECT_RUNS: usize = 40;
/// Repetitions of the timed region: 14 to 20 s on the reference host.
const REPS: usize = 444;
const _: () = assert!(REPS >= MIN_REPS);

/// The spec of repetition `index`: same grid, its own trace-seed offset, so
/// its digest has never been seen by the service.
fn spec(seed: u64, index: usize) -> SweepSpec {
    // Distinct by construction: a derived 24-bit base, then the index.
    let offset = ((derive_seed(seed, NAME, "seed-offset") >> 40) << 16) + index as u64;
    SweepSpec::new("bench-serve")
        .with_workloads(suite(Suite::Spec06).into_iter().take(UNITS))
        .with_prefetchers(&PREFETCHERS)
        .with_config(ConfigPoint::single_core("1c", WARMUP_INST, MEASURE_INST))
        .with_seeds(&[offset])
}

fn body(spec: &SweepSpec) -> String {
    Json::obj().set("spec", spec_json(spec)).render()
}

/// What one cold session returned.
struct Cold {
    digest: String,
    etag: String,
    result: String,
}

/// The closed-loop client: one request at a time, one connection each. With
/// a tracer it records a span per request.
struct Client<'t> {
    addr: &'t str,
    tracer: Option<&'t mut Tracer>,
    polls: u64,
}

impl<'t> Client<'t> {
    fn new(addr: &'t str, tracer: Option<&'t mut Tracer>) -> Self {
        Self {
            addr,
            tracer,
            polls: 0,
        }
    }

    fn span<T>(&mut self, name: &'static str, call: impl FnOnce(&str) -> T) -> T {
        match &mut self.tracer {
            Some(t) => {
                let id = t.enter(name);
                let out = call(self.addr);
                t.exit(id);
                out
            }
            None => call(self.addr),
        }
    }

    /// One session as a span, the parent of its requests' spans.
    fn session<T>(&mut self, name: &'static str, run: impl FnOnce(&mut Self) -> T) -> T {
        let id = self.tracer.as_mut().map(|t| t.enter(name));
        let out = run(self);
        if let (Some(t), Some(id)) = (&mut self.tracer, id) {
            t.exit(id);
        }
        out
    }

    /// POST a new spec, poll until done, GET the result.
    fn cold(&mut self, body: &str) -> Result<Cold, String> {
        let submitted = self.span("serve.client.submit", |addr| client::submit(addr, body))?;
        if submitted.cached {
            return Err(format!(
                "cold submission of {} was answered from cache",
                submitted.digest
            ));
        }
        let digest = submitted.digest;
        let deadline = Instant::now() + SESSION_TIMEOUT;
        loop {
            let doc = self.span("serve.client.poll", |addr| client::status(addr, &digest))?;
            self.polls += 1;
            match doc.get("status").and_then(Json::as_str) {
                Some("done") => break,
                Some("failed") | None => return Err(format!("campaign {digest} failed")),
                Some(_) if Instant::now() >= deadline => {
                    return Err(format!("campaign {digest} timed out"))
                }
                Some(_) => std::thread::sleep(POLL),
            }
        }
        let fetched = self.span("serve.client.result", |addr| {
            client::result_conditional(addr, &digest, "json", None)
        })?;
        match fetched {
            CachedFetch::Fresh {
                etag: Some(etag),
                body,
            } => Ok(Cold {
                digest,
                etag,
                result: body,
            }),
            _ => Err(format!("result of {digest} came without an ETag")),
        }
    }

    /// Re-POST a completed body and GET its result: no simulation.
    fn hit(&mut self, body: &str, cold: &Cold) -> Result<String, String> {
        let submitted = self.span("serve.client.submit", |addr| client::submit(addr, body))?;
        if !submitted.cached || submitted.digest != cold.digest {
            return Err(format!(
                "re-submission of {} was not a cache hit",
                cold.digest
            ));
        }
        self.span("serve.client.result", |addr| {
            client::result(addr, &cold.digest, "json")
        })
    }

    /// A conditional fetch with the current ETag: 304, no body.
    fn not_modified(&mut self, cold: &Cold) -> Result<(), String> {
        let fetched = self.span("serve.client.etag304", |addr| {
            client::result_conditional(addr, &cold.digest, "json", Some(&cold.etag))
        })?;
        match fetched {
            CachedFetch::NotModified => Ok(()),
            CachedFetch::Fresh { .. } => Err(format!("ETag of {} did not match", cold.digest)),
        }
    }
}

/// Host-time samples of the sessions, by kind, and the status polls made.
#[derive(Default)]
struct Sessions {
    cold_s: Vec<f64>,
    hit_s: Vec<f64>,
    etag_s: Vec<f64>,
    polls: u64,
}

/// Where one repetition's samples and check results go.
struct Recorder<'a> {
    rep: usize,
    sessions: &'a mut Sessions,
    op_s: &'a mut Vec<(usize, f64)>,
    checks: &'a mut Checks,
}

impl Recorder<'_> {
    /// Files the session that began at `started` as one operation of this
    /// repetition; returns its seconds.
    fn op(&mut self, started: Instant) -> f64 {
        let s = started.elapsed().as_secs_f64();
        self.op_s.push((self.rep, s));
        s
    }
}

/// One repetition: sessions are timed one by one (a repetition's time is the
/// sum), their outputs checked outside the timed calls. Returns the
/// repetition's seconds and its cold session.
fn repetition(client: &mut Client, body: &str, rec: &mut Recorder) -> (f64, Option<Cold>) {
    let started = Instant::now();
    let cold = client.session("serve.session.cold", |c| c.cold(body));
    let cold_s = rec.op(started);
    rec.sessions.cold_s.push(cold_s);
    rec.sessions.polls += std::mem::take(&mut client.polls);
    match cold {
        Ok(cold) => {
            rec.checks.op(well_formed(&cold.result));
            (cold_s + warm_sessions(client, body, &cold, rec), Some(cold))
        }
        Err(why) => {
            rec.checks.op(Err(why));
            (cold_s, None)
        }
    }
}

/// The sessions that follow a cold one: eight hits, whose bodies must be the
/// cold fetch's bytes, and one conditional fetch. Returns their seconds.
fn warm_sessions(client: &mut Client, body: &str, cold: &Cold, rec: &mut Recorder) -> f64 {
    let mut total_s = 0.0;
    for _ in 0..HITS_PER_REP {
        let started = Instant::now();
        let fetched = client.session("serve.session.hit", |c| c.hit(body, cold));
        let hit_s = rec.op(started);
        rec.sessions.hit_s.push(hit_s);
        total_s += hit_s;
        rec.checks.op(fetched.and_then(|got| {
            same_bytes("hit session result", cold.result.as_bytes(), got.as_bytes())
        }));
    }
    let started = Instant::now();
    let fetched = client.session("serve.session.etag304", |c| c.not_modified(cold));
    let etag_s = started.elapsed().as_secs_f64();
    rec.sessions.etag_s.push(etag_s);
    rec.checks.op(fetched);
    total_s + etag_s
}

/// A fetched result parses and holds every simulation of the grid.
fn well_formed(result: &str) -> Result<(), String> {
    let parsed = SweepResult::from_json(&parse(result)?)?;
    let rows = parsed.baselines.len() + parsed.cells.len();
    if rows == SIMULATIONS {
        Ok(())
    } else {
        Err(format!(
            "result holds {rows} simulations, expected {SIMULATIONS}"
        ))
    }
}

/// Executes `spec` directly, a span around each call into `sweep` and
/// `stats::json`: what the service does per cold session, without the service.
fn direct(t: &mut Tracer, spec: &SweepSpec, store: &ResultStore, checks: &mut Checks) {
    let whole = t.enter("sweep.direct_campaign");
    let campaign = Campaign::single(spec.clone());
    let digest = t.span("sweep.codec.digest", || campaign.digest());
    let planned = t.span("sweep.engine.plan", || {
        plan_campaign(&campaign.name, &campaign.panels)
    });
    let outcome = planned.and_then(|plan| {
        let reports: Vec<SimReport> = plan
            .jobs()
            .iter()
            .map(|job| t.span("sweep.engine.cell_run", || job.run()))
            .collect();
        let result = t.span("sweep.engine.merge", || plan.merge_cells(&reports))?;
        let render = t.enter("sweep.result.render_json");
        let json = result.to_json();
        let text = t.span_counting(
            "stats.json.render",
            || json.render(),
            |text| text.len() as u64,
        );
        t.exit(render);
        let parse_span = t.enter("sweep.result.parse_json");
        let parsed = t.span_counting("stats.json.parse", || parse(&text), |_| text.len() as u64);
        let decoded = parsed.and_then(|j| SweepResult::from_json(&j));
        t.exit(parse_span);
        if decoded? != result {
            return Err("direct result changed across a JSON round trip".to_string());
        }
        t.span("sweep.store.store", || store.store(&digest, &result))?;
        match t.span("sweep.store.load", || store.load(&digest))? {
            Some(loaded) if loaded == result => Ok(()),
            _ => Err("stored result did not load back".to_string()),
        }
    });
    t.exit(whole);
    checks.op(outcome);
}

/// A field of the service's `GET /metrics` document.
fn at(doc: &Json, path: &[&str]) -> f64 {
    path.iter()
        .try_fold(doc, |j, key| j.get(key))
        .and_then(Json::as_f64)
        .unwrap_or(0.0)
}

/// The service under test: one cell worker, journal and bounded store in
/// `cache_dir`, on a port of the kernel's choosing.
fn start_service(cache_dir: PathBuf) -> ServerHandle {
    let config = ServeConfig {
        workers: 1,
        sim_threads: 1,
        cache_dir: Some(cache_dir),
        cache_max_bytes: Some(STORE_BYTES),
        ..ServeConfig::default()
    };
    Server::bind("127.0.0.1:0", &config)
        .and_then(Server::spawn)
        .unwrap_or_else(|e| panic!("cannot start the service: {e}"))
}

pub fn run(args: &Args, main_started: Instant) -> Outcome {
    let mut checks = Checks::default();
    let mut layers = Layers::default();
    let mut notes = Vec::new();
    let tmp = TempDir::create(NAME);
    let mut calibration = Calibration::new();
    let iterations = iterations(REPS, args.traced);

    // Set-up, part 1: the service, and every request body of the run.
    let handle = start_service(tmp.path().join("cache"));
    let addr = handle.addr().to_string();
    let specs: Vec<SweepSpec> = (0..WARMUP_REPS + iterations * if args.traced { 2 } else { 1 })
        .map(|i| spec(args.seed, i))
        .collect();
    let bodies: Vec<String> = specs.iter().map(body).collect();
    let mut setup = Setup {
        fixtures_s: main_started.elapsed().as_secs_f64(),
        ..Setup::default()
    };
    let mut piece = setup.piece_done(main_started, &mut calibration);

    // Set-up, part 2: the first spec executed directly — the served ≡ direct
    // reference, and the simulated statistics of one repetition.
    let direct_result = run_all(&specs[0].name, &specs[..1], 1)
        .map(|r| r.stripped().render("json").expect("json is a known format"));
    let reports: Vec<SimReport> = plan_campaign(&specs[0].name, &specs[..1])
        .map(|p| p.jobs().iter().map(|j| j.run()).collect())
        .unwrap_or_default();
    for (i, report) in reports.iter().enumerate() {
        checks.op(conserved(&format!("cell {i}"), report, MEASURE_INST));
    }
    setup.baseline_s = piece.elapsed().as_secs_f64();
    piece = setup.piece_done(piece, &mut calibration);

    // Set-up, part 3: untimed warm-up repetitions over the wire.
    let started = piece;
    let mut sim_speedup = 0.0;
    {
        let (mut sessions, mut ops) = (Sessions::default(), Vec::new());
        for (i, body) in bodies[..WARMUP_REPS].iter().enumerate() {
            let (_, cold) = repetition(
                &mut Client::new(&addr, None),
                body,
                &mut Recorder {
                    rep: i,
                    sessions: &mut sessions,
                    op_s: &mut ops,
                    checks: &mut checks,
                },
            );
            if let (0, Some(cold)) = (i, cold) {
                let expected = direct_result.clone();
                checks.op(expected.and_then(|e| {
                    same_bytes(
                        "first served result vs run_all",
                        e.as_bytes(),
                        cold.result.as_bytes(),
                    )
                }));
                sim_speedup = parse(&cold.result)
                    .and_then(|j| SweepResult::from_json(&j))
                    .map(|r| {
                        let speedups: Vec<f64> =
                            r.cells.iter().map(|c| c.metrics.speedup).collect();
                        pythia_stats::metrics::geomean(&speedups)
                    })
                    .unwrap_or(0.0);
            }
            if (i + 1).is_multiple_of(WARMUP_REPS_PER_CALIBRATION) {
                piece = setup.piece_done(piece, &mut calibration);
            }
        }
    }
    setup.warmup_s = started.elapsed().as_secs_f64();
    setup.total_s = main_started.elapsed().as_secs_f64();

    // Timed repetitions. With `--trace 1` an untraced and a traced repetition
    // alternate, so host drift hits both alike.
    let before = client::metrics(&addr).unwrap_or(Json::Null);
    let mut tracer = args.traced.then(Tracer::new);
    let direct_store = ResultStore::open(tmp.path().join("direct-store"));
    let mut sessions = Sessions::default();
    let (mut traced_rep_s, mut traced_ops) = (Vec::new(), Vec::new());
    let mut timed_bodies = bodies[WARMUP_REPS..].iter().zip(&specs[WARMUP_REPS..]);
    let mut pass = Pass::start(&mut calibration);
    for rep in 0..iterations {
        let (body, _) = timed_bodies.next().expect("a body per repetition");
        let (rep_s, _) = repetition(
            &mut Client::new(&addr, None),
            body,
            &mut Recorder {
                rep,
                sessions: &mut sessions,
                op_s: &mut pass.op_s,
                checks: &mut checks,
            },
        );
        pass.rep_done(rep_s, &mut calibration);
        if let Some(t) = &mut tracer {
            let (body, spec) = timed_bodies.next().expect("a body per traced repetition");
            t.set_rep(rep as u32);
            let (rep_s, _) = repetition(
                &mut Client::new(&addr, Some(t)),
                body,
                &mut Recorder {
                    rep,
                    sessions: &mut sessions,
                    op_s: &mut traced_ops,
                    checks: &mut checks,
                },
            );
            traced_rep_s.push(rep_s);
            if let (true, Ok(store)) = (rep < DIRECT_RUNS, &direct_store) {
                direct(t, spec, store, &mut checks);
            }
        }
    }
    pass.stop(&mut calibration);
    let after = client::metrics(&addr).unwrap_or(Json::Null);

    // Service-side rows: exact counts per repetition from `GET /metrics`.
    let reps = (pass.rep_s.len() + traced_rep_s.len()) as f64;
    let delta = |path: &[&str]| (at(&after, path) - at(&before, path)) / reps;
    layers.set("serve.http.requests", delta(&["connections", "requests"]));
    layers.set(
        "serve.http.conns_accepted",
        delta(&["connections", "accepted"]),
    );
    layers.set("serve.scheduler.executed", delta(&["cells", "executed"]));
    layers.set(
        "serve.scheduler.cache_hits",
        delta(&["counters", "cache_hits"]),
    );
    layers.set(
        "serve.journal.fsync_count",
        delta(&["latency", "journal_fsync_us", "count"]),
    );
    layers.set("serve.store.stored", delta(&["store", "stored"]));
    layers.set("serve.store.hits", delta(&["store", "hits"]));
    let p50 = |path: &[&str]| at(&after, &[&["latency"], path, &["p50"]].concat());
    layers.set(
        "serve.http.route_submit_us_p50",
        p50(&["routes_us", "submit"]),
    );
    layers.set(
        "serve.http.route_result_us_p50",
        p50(&["routes_us", "result"]),
    );
    layers.set(
        "serve.scheduler.cell_queue_wait_us_p50",
        p50(&["cell_queue_wait_us"]),
    );
    layers.set(
        "serve.scheduler.cell_exec_us_p50",
        p50(&["cell_execution_us"]),
    );
    layers.set("serve.journal.fsync_us_p50", p50(&["journal_fsync_us"]));
    let cold_total_s: f64 = sessions.cold_s.iter().sum();
    let exec_s = delta(&["latency", "cell_execution_us", "sum"]) * reps / 1e6;
    layers.set("serve.overhead_share", 1.0 - exec_s / cold_total_s);

    // Client-side rows. Session latencies pool both kinds of repetition: a
    // handful of spans per session costs nothing against milliseconds.
    let ms = |samples: &[f64]| samples.iter().map(|s| s * 1e3).collect::<Vec<f64>>();
    let (cold_ms, hit_ms) = (ms(&sessions.cold_s), ms(&sessions.hit_s));
    layers.set("serve.cold_session_ms_p50", median(&cold_ms));
    // `REPS` cold sessions a run: p95 is the highest percentile with ten beyond it.
    layers.set(
        "serve.cold_session_ms_p95",
        percentile(&cold_ms, 95.0).unwrap_or(0.0),
    );
    layers.set("serve.hit_session_ms_p50", median(&hit_ms));
    layers.set(
        "serve.hit_session_ms_p99",
        percentile(&hit_ms, 99.0).unwrap_or(0.0),
    );
    layers.set("serve.etag304_ms_p50", median(&ms(&sessions.etag_s)));
    layers.set("serve.client.polls_per_cold", sessions.polls as f64 / reps);
    if let Some(t) = &tracer {
        let p50_of = |name: &str, scale: f64| {
            let samples = t.busy_s(name);
            if samples.is_empty() {
                0.0
            } else {
                median(&samples) * scale
            }
        };
        layers.set(
            "serve.client.submit_ms_p50",
            p50_of("serve.client.submit", 1e3),
        );
        layers.set(
            "serve.client.result_ms_p50",
            p50_of("serve.client.result", 1e3),
        );
        for (row, span) in [
            ("sweep.codec.digest_us", "sweep.codec.digest"),
            ("sweep.engine.plan_us", "sweep.engine.plan"),
            ("sweep.engine.cell_run_us_p50", "sweep.engine.cell_run"),
            ("sweep.engine.merge_us", "sweep.engine.merge"),
            ("sweep.result.render_json_us", "sweep.result.render_json"),
            ("sweep.result.parse_json_us", "sweep.result.parse_json"),
            ("sweep.store.store_us", "sweep.store.store"),
            ("sweep.store.load_us", "sweep.store.load"),
        ] {
            layers.set(row, p50_of(span, 1e6));
        }
        layers.set(
            "sweep.direct_campaign_ms",
            p50_of("sweep.direct_campaign", 1e3),
        );
        for (row, span) in [
            ("stats.json.render_mb_per_s", "stats.json.render"),
            ("stats.json.parse_mb_per_s", "stats.json.parse"),
        ] {
            let (bytes, busy_s) = t.items_and_busy_s(span);
            layers.set(row, bytes / busy_s / 1e6);
        }
        layers.set(
            "trace.overhead_pct",
            (median(&traced_rep_s) / median(&pass.rep_s) - 1.0) * 100.0,
        );
        crate::write_out(&format!("trace-{NAME}.json"), &t.to_json(NAME));
    }

    // Simulated statistics of the first repetition's spec, executed directly.
    let (baselines, cells) = reports.split_at(UNITS.min(reports.len()));
    let pairs: Vec<(&SimReport, &SimReport)> = cells
        .iter()
        .enumerate()
        .filter_map(|(i, cell)| Some((baselines.get(i / PREFETCHERS.len())?, cell)))
        .collect();
    simulated_rows(&reports.iter().collect::<Vec<_>>(), &pairs, &mut layers);
    let report_digest = fnv1a(&reports.iter().flat_map(report_bytes).collect::<Vec<u8>>());

    let inst_per_rep = SIMULATIONS as u64 * (WARMUP_INST + MEASURE_INST);
    let end_to_end = end_to_end(
        &setup,
        &pass,
        inst_per_rep,
        sim_speedup,
        &mut layers,
        &mut notes,
    );
    Outcome {
        workload: NAME,
        seed: args.seed,
        traced: args.traced,
        checks,
        report_digest,
        end_to_end,
        layers,
        rep_s: pass.rep_s,
        slowdown: pass.slowdown,
        notes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_flipped_byte_in_a_fetched_result_fails_the_operation_and_the_command() {
        let tmp = TempDir::create("flipped-byte-test");
        let handle = start_service(tmp.path().join("cache"));
        let addr = handle.addr().to_string();
        let body = body(&spec(1, 0));
        let (mut sessions, mut op_s, mut checks) =
            (Sessions::default(), Vec::new(), Checks::default());
        let mut rec = Recorder {
            rep: 0,
            sessions: &mut sessions,
            op_s: &mut op_s,
            checks: &mut checks,
        };
        let mut client = Client::new(&addr, None);

        // A clean repetition over the wire: the cold result's own check, eight
        // hit sessions and the 304, none failed.
        let (_, cold) = repetition(&mut client, &body, &mut rec);
        let mut cold = cold.expect("the cold session completes");
        assert_eq!((rec.checks.attempted, rec.checks.failed), (10, 0));

        // One bit of the fetched result flipped: what the hit sessions fetch
        // no longer matches it, and every one of them fails.
        let mut fetched = std::mem::take(&mut cold.result).into_bytes();
        fetched[40] ^= 0x01;
        cold.result = String::from_utf8(fetched).expect("still ASCII");
        warm_sessions(&mut client, &body, &cold, &mut rec);
        assert_eq!((checks.attempted, checks.failed), (19, HITS_PER_REP as u64));
        assert!(checks.messages[0].contains("hit session result: differs"));
        assert_eq!(op_s.len(), 1 + 2 * HITS_PER_REP);

        let outcome = Outcome::for_test(false, checks);
        assert_ne!(outcome.exit_code(), 0);
        assert!(outcome
            .result_line()
            .starts_with("{\"correct\": false, \"attempted\": 19, \"failed\": 8,"));
    }
}
