//! Content-addressed on-disk result store with an optional byte budget.
//!
//! Maps a campaign digest ([`crate::codec::Campaign::digest`]) to the
//! stripped [`SweepResult`] JSON artifact. Because simulations are
//! bit-deterministic and specs are canonically encoded, a stored artifact
//! is byte-identical to what a fresh run of the same campaign would
//! produce (minus the wall-clock throughput telemetry, which is stripped
//! before storage) — so a hit can be served without simulating anything.
//!
//! Writes are atomic: the artifact is rendered into a hidden temp file in
//! the same directory and `rename`d into place, so readers (other serve
//! workers, concurrent one-shot CLI runs) never observe a torn file.
//!
//! When opened with a byte budget ([`ResultStore::open_bounded`]), the
//! store keeps an in-memory LRU index of artifact sizes and evicts the
//! least-recently-used artifacts whenever a write would push the total
//! over budget. Loads count as uses. The index is seeded from a directory
//! scan at open time (ordered by file mtime), so a restart inherits a
//! sensible recency order. Hit/miss/stored/evicted counts are kept in
//! [`StoreStats`]; the service copies them into its metric registry once
//! per `/metrics` scrape.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::codec::{is_digest, Campaign};
use crate::engine::run_all;
use crate::result::SweepResult;

/// Monotonic store counters, readable without any lock.
#[derive(Debug, Default)]
pub struct StoreStats {
    /// Loads that found and decoded an artifact.
    pub hits: AtomicU64,
    /// Loads that found nothing (or a corrupt artifact).
    pub misses: AtomicU64,
    /// Artifacts written.
    pub stored: AtomicU64,
    /// Artifacts evicted to stay under the byte budget.
    pub evicted: AtomicU64,
}

/// One indexed artifact: its size and its last-use stamp (a logical
/// clock, not wall time — higher means more recently used).
#[derive(Debug, Clone, Copy)]
struct Entry {
    bytes: u64,
    stamp: u64,
}

#[derive(Debug, Default)]
struct Index {
    entries: HashMap<String, Entry>,
    total_bytes: u64,
    clock: u64,
}

impl Index {
    fn touch(&mut self, digest: &str, bytes: u64) {
        self.clock += 1;
        let stamp = self.clock;
        match self.entries.get_mut(digest) {
            Some(entry) => {
                self.total_bytes = self.total_bytes - entry.bytes + bytes;
                entry.bytes = bytes;
                entry.stamp = stamp;
            }
            None => {
                self.entries
                    .insert(digest.to_string(), Entry { bytes, stamp });
                self.total_bytes += bytes;
            }
        }
    }

    fn remove(&mut self, digest: &str) {
        if let Some(entry) = self.entries.remove(digest) {
            self.total_bytes -= entry.bytes;
        }
    }

    /// The least-recently-used digest, excluding `keep`.
    fn lru_victim(&self, keep: Option<&str>) -> Option<String> {
        self.entries
            .iter()
            .filter(|(digest, _)| Some(digest.as_str()) != keep)
            .min_by_key(|(_, entry)| entry.stamp)
            .map(|(digest, _)| digest.clone())
    }
}

#[derive(Debug)]
struct StoreInner {
    dir: PathBuf,
    max_bytes: Option<u64>,
    index: Mutex<Index>,
    stats: StoreStats,
}

/// A directory of `<digest>.json` result artifacts. Clones share one
/// index and one set of counters.
#[derive(Debug, Clone)]
pub struct ResultStore {
    inner: Arc<StoreInner>,
}

impl ResultStore {
    /// Opens (creating if needed) an unbounded store rooted at `dir`.
    ///
    /// # Errors
    ///
    /// Returns a message if the directory cannot be created.
    pub fn open(dir: impl Into<PathBuf>) -> Result<Self, String> {
        Self::open_bounded(dir, None)
    }

    /// Opens (creating if needed) a store rooted at `dir` with an optional
    /// byte budget. Existing artifacts are indexed by mtime order; if they
    /// already exceed the budget, the oldest are evicted immediately.
    ///
    /// # Errors
    ///
    /// Returns a message if the directory cannot be created or scanned.
    pub fn open_bounded(dir: impl Into<PathBuf>, max_bytes: Option<u64>) -> Result<Self, String> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let mut index = Index::default();
        // Seed the index from disk: digest-named .json files only, so temp
        // files and unrelated neighbors (a journal, say) are untouched.
        let mut found: Vec<(String, u64, std::time::SystemTime)> = Vec::new();
        let entries = std::fs::read_dir(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        for entry in entries {
            let entry = entry.map_err(|e| format!("{}: {e}", dir.display()))?;
            let path = entry.path();
            if path.extension().and_then(|e| e.to_str()) != Some("json") {
                continue;
            }
            let Some(stem) = path.file_stem().and_then(|s| s.to_str()) else {
                continue;
            };
            if !is_digest(stem) {
                continue;
            }
            let Ok(meta) = entry.metadata() else { continue };
            let mtime = meta.modified().unwrap_or(std::time::SystemTime::UNIX_EPOCH);
            found.push((stem.to_string(), meta.len(), mtime));
        }
        found.sort_by_key(|(_, _, mtime)| *mtime);
        for (digest, bytes, _) in found {
            index.touch(&digest, bytes);
        }
        let store = Self {
            inner: Arc::new(StoreInner {
                dir,
                max_bytes,
                index: Mutex::new(index),
                stats: StoreStats::default(),
            }),
        };
        {
            let mut index = store.inner.index.lock().expect("store index lock");
            store.evict_over_budget(&mut index, None);
        }
        Ok(store)
    }

    /// The artifact path for a digest.
    pub fn path(&self, digest: &str) -> PathBuf {
        self.inner.dir.join(format!("{digest}.json"))
    }

    /// The store's root directory.
    pub fn dir(&self) -> &Path {
        &self.inner.dir
    }

    /// The configured byte budget, if any.
    pub fn max_bytes(&self) -> Option<u64> {
        self.inner.max_bytes
    }

    /// Total bytes currently indexed.
    pub fn bytes_used(&self) -> u64 {
        self.inner
            .index
            .lock()
            .expect("store index lock")
            .total_bytes
    }

    /// The store counters.
    pub fn stats(&self) -> &StoreStats {
        &self.inner.stats
    }

    /// Whether an artifact exists for `digest`.
    pub fn contains(&self, digest: &str) -> bool {
        is_digest(digest) && self.path(digest).is_file()
    }

    /// Loads the result stored under `digest`, if any. A successful load
    /// marks the artifact as recently used for eviction purposes.
    ///
    /// # Errors
    ///
    /// Returns a message on a malformed digest or an unreadable/corrupt
    /// artifact (a missing artifact is `Ok(None)`).
    pub fn load(&self, digest: &str) -> Result<Option<SweepResult>, String> {
        if !is_digest(digest) {
            return Err(format!("malformed digest {digest:?}"));
        }
        let path = self.path(digest);
        let text = match std::fs::read_to_string(&path) {
            Ok(t) => t,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                self.inner.stats.misses.fetch_add(1, Ordering::Relaxed);
                // Drop any stale index entry (someone removed the file).
                self.inner
                    .index
                    .lock()
                    .expect("store index lock")
                    .remove(digest);
                return Ok(None);
            }
            Err(e) => {
                self.inner.stats.misses.fetch_add(1, Ordering::Relaxed);
                return Err(format!("{}: {e}", path.display()));
            }
        };
        let decoded = pythia_stats::json::parse(&text)
            .map_err(|e| format!("{}: {e}", path.display()))
            .and_then(|json| {
                SweepResult::from_json(&json).map_err(|e| format!("{}: {e}", path.display()))
            });
        match decoded {
            Ok(result) => {
                self.inner.stats.hits.fetch_add(1, Ordering::Relaxed);
                self.inner
                    .index
                    .lock()
                    .expect("store index lock")
                    .touch(digest, text.len() as u64);
                Ok(Some(result))
            }
            Err(e) => {
                self.inner.stats.misses.fetch_add(1, Ordering::Relaxed);
                Err(e)
            }
        }
    }

    /// Stores `result` under `digest`, stripping the wall-clock telemetry
    /// so the artifact is deterministic. The write is atomic
    /// (temp-file + rename); concurrent writers of the same digest race
    /// benignly because they write identical bytes. Under a byte budget,
    /// least-recently-used artifacts are evicted until the new artifact
    /// fits.
    ///
    /// # Errors
    ///
    /// Returns a message on a malformed digest, an io failure, or an
    /// artifact that alone exceeds the whole budget.
    pub fn store(&self, digest: &str, result: &SweepResult) -> Result<(), String> {
        if !is_digest(digest) {
            return Err(format!("malformed digest {digest:?}"));
        }
        let rendered = result.clone().stripped().to_json().render_pretty();
        let bytes = rendered.len() as u64;
        if let Some(budget) = self.inner.max_bytes {
            if bytes > budget {
                return Err(format!(
                    "artifact for {digest} is {bytes} bytes, over the {budget}-byte store budget"
                ));
            }
        }
        let tmp = self.inner.dir.join(format!(
            ".tmp-{digest}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::write(&tmp, rendered).map_err(|e| format!("{}: {e}", tmp.display()))?;
        let path = self.path(digest);
        std::fs::rename(&tmp, &path).map_err(|e| {
            let _ = std::fs::remove_file(&tmp);
            format!("{}: {e}", path.display())
        })?;
        self.inner.stats.stored.fetch_add(1, Ordering::Relaxed);
        let mut index = self.inner.index.lock().expect("store index lock");
        index.touch(digest, bytes);
        self.evict_over_budget(&mut index, Some(digest));
        Ok(())
    }

    /// Evicts LRU artifacts until `total_bytes` fits the budget. `keep`
    /// protects the just-written digest from evicting itself.
    fn evict_over_budget(&self, index: &mut Index, keep: Option<&str>) {
        let Some(budget) = self.inner.max_bytes else {
            return;
        };
        while index.total_bytes > budget {
            let Some(victim) = index.lru_victim(keep) else {
                break;
            };
            index.remove(&victim);
            if let Err(e) = std::fs::remove_file(self.path(&victim)) {
                if e.kind() != std::io::ErrorKind::NotFound {
                    eprintln!("store: failed to evict {victim}: {e}");
                }
            }
            self.inner.stats.evicted.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// Runs a campaign through an optional [`ResultStore`]: on a digest hit the
/// stored artifact is returned without simulating; on a miss the campaign
/// runs ([`run_all`] semantics) and the stripped result is persisted.
///
/// Returns `(result, cached)` where `cached` reports whether the result
/// came from the store. The returned result is always stripped of
/// throughput telemetry so hit and miss render identically.
///
/// # Errors
///
/// Returns validation errors, simulation-spec errors, or store io errors.
pub fn run_campaign(
    campaign: &Campaign,
    threads: usize,
    store: Option<&ResultStore>,
) -> Result<(SweepResult, bool), String> {
    campaign.validate()?;
    let digest = campaign.digest();
    if let Some(store) = store {
        if let Some(hit) = store.load(&digest)? {
            return Ok((hit, true));
        }
    }
    let result = run_all(&campaign.name, &campaign.panels, threads)?.stripped();
    if let Some(store) = store {
        store.store(&digest, &result)?;
    }
    Ok((result, false))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{ConfigPoint, SweepSpec};
    use pythia_workloads::all_suites;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "pythia-store-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn tiny_campaign() -> Campaign {
        let w = all_suites()
            .into_iter()
            .find(|w| w.name == "429.mcf-184B")
            .expect("known workload");
        Campaign::single(
            SweepSpec::new("store-test")
                .with_workloads([w])
                .with_prefetchers(&["stride"])
                .with_config(ConfigPoint::single_core("base", 1_000, 4_000)),
        )
    }

    /// A fabricated empty result: every test artifact renders to the same
    /// byte count, which makes budget arithmetic exact.
    fn empty_result(name: &str) -> SweepResult {
        SweepResult {
            name: name.to_string(),
            baselines: Vec::new(),
            cells: Vec::new(),
            throughput: None,
        }
    }

    /// Fabricated but well-formed digests (16 lowercase hex chars).
    fn fake_digest(i: u64) -> String {
        format!("{i:016x}")
    }

    #[test]
    fn miss_runs_and_hit_is_byte_identical() {
        let dir = tmp_dir("roundtrip");
        let store = ResultStore::open(&dir).expect("store opens");
        let campaign = tiny_campaign();
        let digest = campaign.digest();
        assert!(!store.contains(&digest));

        let (fresh, cached) = run_campaign(&campaign, 1, Some(&store)).expect("runs");
        assert!(!cached);
        assert!(store.contains(&digest));

        let (hit, cached) = run_campaign(&campaign, 1, Some(&store)).expect("loads");
        assert!(cached);
        assert_eq!(
            hit.to_json().render_pretty(),
            fresh.to_json().render_pretty(),
            "cache hit is byte-identical to the fresh run"
        );
        // And byte-identical to the on-disk artifact itself.
        let on_disk = std::fs::read_to_string(store.path(&digest)).expect("artifact");
        assert_eq!(on_disk, fresh.to_json().render_pretty());
        assert_eq!(store.stats().hits.load(Ordering::Relaxed), 1);
        assert_eq!(store.stats().stored.load(Ordering::Relaxed), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn malformed_digests_are_rejected() {
        let dir = tmp_dir("malformed");
        let store = ResultStore::open(&dir).expect("store opens");
        assert!(store.load("../../etc/passwd").is_err());
        assert!(store.load("ABCD").is_err());
        assert!(!store.contains("not-a-digest"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_artifacts_error_instead_of_panicking() {
        let dir = tmp_dir("corrupt");
        let store = ResultStore::open(&dir).expect("store opens");
        let digest = "0123456789abcdef";
        std::fs::write(store.path(digest), "{ not json").expect("write");
        assert!(store.load(digest).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn byte_budget_evicts_least_recently_used() {
        let dir = tmp_dir("lru");
        // Size one artifact, then budget for exactly two.
        let probe = ResultStore::open(&dir).expect("probe opens");
        probe
            .store(&fake_digest(0), &empty_result("x"))
            .expect("probe write");
        let artifact_bytes = std::fs::metadata(probe.path(&fake_digest(0)))
            .expect("meta")
            .len();
        std::fs::remove_file(probe.path(&fake_digest(0))).expect("cleanup probe");
        drop(probe);

        let budget = artifact_bytes * 2;
        let store = ResultStore::open_bounded(&dir, Some(budget)).expect("store opens");
        store.store(&fake_digest(1), &empty_result("a")).expect("a");
        store.store(&fake_digest(2), &empty_result("b")).expect("b");
        assert!(store.bytes_used() <= budget);
        assert_eq!(store.stats().evicted.load(Ordering::Relaxed), 0);

        // Touch 1 so 2 becomes the LRU victim.
        assert!(store.load(&fake_digest(1)).expect("load").is_some());
        store.store(&fake_digest(3), &empty_result("c")).expect("c");
        assert!(store.bytes_used() <= budget, "never exceeds the budget");
        assert_eq!(store.stats().evicted.load(Ordering::Relaxed), 1);
        assert!(!store.contains(&fake_digest(2)), "LRU artifact evicted");
        assert!(store.contains(&fake_digest(1)), "recently-used survives");
        assert!(store.contains(&fake_digest(3)), "new artifact present");

        // An artifact bigger than the whole budget is refused outright.
        let tiny = ResultStore::open_bounded(tmp_dir("lru-tiny"), Some(4)).expect("opens");
        let err = tiny
            .store(&fake_digest(9), &empty_result("big"))
            .unwrap_err();
        assert!(err.contains("budget"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
        let _ = std::fs::remove_dir_all(tmp_dir("lru-tiny"));
    }

    #[test]
    fn open_bounded_inherits_and_trims_existing_artifacts() {
        let dir = tmp_dir("inherit");
        {
            let store = ResultStore::open(&dir).expect("unbounded opens");
            for i in 1..=3u64 {
                store
                    .store(&fake_digest(i), &empty_result("x"))
                    .expect("write");
            }
        }
        let artifact_bytes = std::fs::metadata(
            ResultStore::open(&dir)
                .expect("probe")
                .path(&fake_digest(1)),
        )
        .expect("meta")
        .len();
        // Budget for two: reopening must immediately evict down to fit.
        let store =
            ResultStore::open_bounded(&dir, Some(artifact_bytes * 2)).expect("bounded opens");
        assert!(store.bytes_used() <= artifact_bytes * 2);
        assert_eq!(store.stats().evicted.load(Ordering::Relaxed), 1);
        let survivors = (1..=3u64)
            .filter(|i| store.contains(&fake_digest(*i)))
            .count();
        assert_eq!(survivors, 2);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
