//! Integration tests for the worker pool under the sweep engine: results
//! come back in job order whatever the thread count (parallel ≡ serial for
//! whole campaigns is pinned by `crates/sweep/tests/engine.rs`).

use pythia::runner::run_parallel;

#[test]
fn run_parallel_preserves_order() {
    // Fewer workers than jobs, and more workers than jobs.
    for threads in [8, 200] {
        let jobs: Vec<Box<dyn FnOnce() -> usize + Send>> = (0usize..64)
            .map(|i| Box::new(move || i * i) as Box<dyn FnOnce() -> usize + Send>)
            .collect();
        let results = run_parallel(jobs, threads);
        for (i, r) in results.iter().enumerate() {
            assert_eq!(*r, i * i);
        }
    }
}

#[test]
fn run_parallel_single_thread_works() {
    let jobs: Vec<Box<dyn FnOnce() -> u32 + Send>> = vec![Box::new(|| 7), Box::new(|| 9)];
    assert_eq!(run_parallel(jobs, 1), vec![7, 9]);
}

#[test]
#[should_panic(expected = "at least one worker")]
fn zero_threads_rejected() {
    let jobs: Vec<Box<dyn FnOnce() -> u32 + Send>> = vec![Box::new(|| 1)];
    let _ = run_parallel(jobs, 0);
}
