//! A service that stays up holds what its budgets say, not what it has run.
//!
//! Distinct tiny campaigns go through a `Scheduler` on the memory leaf, each
//! fetched once through the result route: the store stays under its byte
//! budget, the job table under its entry cap, served bytes stay a direct
//! run's, and the process stops growing. Alone in its binary, because
//! resident-set size is a property of the process.

use std::time::Duration;

use pythia_serve::http::Request;
use pythia_serve::scheduler::{JobStatus, Scheduler, FINISHED_JOBS_KEPT};
use pythia_serve::server::route;
use pythia_sweep::codec::Campaign;
use pythia_sweep::{engine, ConfigPoint, ResultStore, SweepSpec};

/// Campaign `index`: baseline + one cell, 1 K + 4 K instructions, its own
/// trace seed and so its own digest.
fn campaign(index: u64) -> Campaign {
    let workload = pythia_workloads::all_suites()
        .into_iter()
        .find(|w| w.name == "429.mcf-184B")
        .expect("known workload");
    Campaign::single(
        SweepSpec::new("flat-memory")
            .with_workloads([workload])
            .with_prefetchers(&["stride"])
            .with_config(ConfigPoint::single_core("base", 1_000, 4_000))
            .with_seeds(&[index]),
    )
}

/// `GET /campaigns/<digest>/result` (json): status and body.
fn fetch(scheduler: &Scheduler, digest: &str) -> (u16, std::sync::Arc<Vec<u8>>) {
    let request = Request {
        method: "GET".into(),
        path: format!("/campaigns/{digest}/result"),
        query: Vec::new(),
        headers: Vec::new(),
        body: Vec::new(),
        close: false,
    };
    let response = route(scheduler, &request).1;
    (response.status, response.body)
}

fn direct_json(campaign: &Campaign) -> Vec<u8> {
    let result = engine::run_all(&campaign.name, &campaign.panels, 1).expect("direct run");
    let rendered = result.stripped().render("json").expect("json");
    rendered.into_bytes()
}

/// Resident set of this process in bytes, where `/proc` says.
fn resident_bytes() -> Option<u64> {
    let statm = std::fs::read_to_string("/proc/self/statm").ok()?;
    let pages: u64 = statm.split_whitespace().nth(1)?.parse().ok()?;
    Some(pages * 4096)
}

/// Runs `campaigns` distinct campaigns under a `budget`-byte store,
/// comparing every `check_every`-th artifact with a direct run. Returns the
/// resident set after campaign 2 000 and at the end.
fn run(campaigns: u64, budget: u64, check_every: u64) -> (Option<u64>, Option<u64>) {
    let scheduler = Scheduler::start(1, 8, ResultStore::in_memory(budget), None);
    let collected = &scheduler.obs().collected;
    let mut resident_at_2000 = None;
    for index in 0..campaigns {
        let campaign = campaign(index);
        let submitted = scheduler.submit(campaign.clone()).expect("accepted");
        assert!(!submitted.cached, "campaign {index} is new");
        let done = scheduler.wait(&submitted.digest, Duration::from_secs(60));
        assert!(matches!(done, Some(JobStatus::Done)), "{index}: {done:?}");
        let (status, body) = fetch(&scheduler, &submitted.digest);
        assert_eq!(status, 200, "campaign {index}");
        if index % check_every == 0 {
            assert_eq!(*body, direct_json(&campaign), "campaign {index}");
        }
        scheduler.collect();
        let stored = collected.store_bytes_used.get();
        assert!(stored as u64 <= budget, "{index}: {stored} bytes stored");
        let resident = collected.jobs_resident.get();
        assert!(
            resident as usize <= FINISHED_JOBS_KEPT,
            "{index}: {resident}"
        );
        if index + 1 == 2_000 {
            resident_at_2000 = resident_bytes();
        }
    }
    let events = &scheduler.obs().events;
    assert_eq!(events.executed.get(), campaigns);
    let evicted = scheduler.obs().collected.store_evicted.get();
    assert!(evicted > 0, "the budget is smaller than the run");

    // The first campaign's artifact is long evicted and its entry goes
    // with it at this lookup: the digest runs again, to the same bytes.
    let first = campaign(0);
    let digest = first.digest();
    assert!(!scheduler.store().contains(&digest));
    assert_eq!(fetch(&scheduler, &digest).0, 404);
    let again = scheduler.submit(first.clone()).expect("accepted");
    assert!(
        !again.cached && !again.coalesced,
        "an evicted digest is new"
    );
    let done = scheduler.wait(&digest, Duration::from_secs(60));
    assert!(matches!(done, Some(JobStatus::Done)), "{done:?}");
    assert_eq!(events.executed.get(), campaigns + 1);
    assert_eq!(*fetch(&scheduler, &digest).1, direct_json(&first));
    let resident_at_end = resident_bytes();
    scheduler.shutdown();
    (resident_at_2000, resident_at_end)
}

/// Small enough for a debug build, large enough that the 256 KB store
/// evicts (an artifact is about 1.3 KB).
#[test]
fn three_hundred_campaigns_fit_a_256_kb_store() {
    run(300, 256 << 10, 50);
}

/// The long run: `cargo test --release -p pythia-serve --test flat_memory
/// -- --ignored` (CI does). Past its warm-up the process may not grow.
#[test]
#[ignore = "10 000 campaigns: seconds in release, minutes in debug"]
fn ten_thousand_campaigns_leave_memory_flat() {
    let (at_2000, at_end) = run(10_000, 1 << 20, 500);
    if let (Some(at_2000), Some(at_end)) = (at_2000, at_end) {
        let grown = at_end.saturating_sub(at_2000);
        assert!(
            grown < 2 << 20,
            "resident set grew {grown} bytes over the last 8 000 campaigns"
        );
    }
}
