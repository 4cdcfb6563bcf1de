//! Content-addressed result store with an optional byte budget, over one of
//! two leaves: a directory of files, or the heap.
//!
//! Maps a campaign digest ([`crate::codec::Campaign::digest`]) to the
//! stripped [`SweepResult`] JSON artifact. Because simulations are
//! bit-deterministic and specs are canonically encoded, a stored artifact
//! is byte-identical to what a fresh run of the same campaign would
//! produce (minus the wall-clock throughput telemetry, which is stripped
//! before storage) — so a hit can be served without simulating anything,
//! and [`ResultStore::bytes`] hands the artifact out as stored, with no
//! second render.
//!
//! The leaves differ in where an artifact's bytes are read, written and
//! removed, and in nothing else: one index, one eviction rule, one set of
//! counters. On the disk leaf ([`ResultStore::open_bounded`]) writes are
//! atomic: the artifact is rendered into a hidden temp file in the same
//! directory and `rename`d into place, so readers (other serve workers,
//! concurrent one-shot CLI runs) never observe a torn file. On the memory
//! leaf ([`ResultStore::in_memory`]) the index entry holds the bytes.
//!
//! Under a byte budget the store evicts the least-recently-used artifacts
//! whenever a write would push the indexed total over it. Reads count as
//! uses. A disk leaf's index is seeded from a directory scan at open time
//! (ordered by file mtime), so a restart inherits a sensible recency
//! order. Hit/miss/stored/evicted counts are kept in [`StoreStats`]; the
//! service copies them into its metric registry once per `/metrics` scrape.
//!
//! The store is the only copy of a finished result, so an artifact that no
//! longer decodes is dropped by the read that finds it so and the digest
//! is a miss from then on: whoever needs it runs the campaign again, to
//! the same bytes.

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use crate::codec::{is_digest, Campaign};
use crate::engine::run_all;
use crate::result::SweepResult;

/// Monotonic store counters, readable without any lock.
#[derive(Debug, Default)]
pub struct StoreStats {
    /// Reads that found and decoded an artifact.
    pub hits: AtomicU64,
    /// Reads that found nothing (or a damaged artifact, which they drop).
    pub misses: AtomicU64,
    /// Artifacts written.
    pub stored: AtomicU64,
    /// Artifacts evicted to stay under the byte budget.
    pub evicted: AtomicU64,
}

/// An artifact's bytes, shared with whoever is serving them.
type Bytes = Arc<Vec<u8>>;

/// One indexed artifact: its size, its last-use stamp (a logical clock,
/// not wall time — higher means more recently used) and, on the memory
/// leaf, the artifact itself (on the disk leaf its file has it).
#[derive(Debug)]
struct Entry {
    bytes: u64,
    stamp: u64,
    held: Option<Bytes>,
}

#[derive(Debug, Default)]
struct Index {
    entries: HashMap<String, Entry>,
    total_bytes: u64,
    clock: u64,
}

impl Index {
    fn touch(&mut self, digest: &str, bytes: u64, held: Option<Bytes>) {
        self.clock += 1;
        let entry = Entry {
            bytes,
            stamp: self.clock,
            held,
        };
        let old = self.entries.insert(digest.to_string(), entry);
        self.total_bytes = self.total_bytes - old.map_or(0, |e| e.bytes) + bytes;
    }

    /// Marks an entry as just used, if it is still there.
    fn refresh(&mut self, digest: &str) {
        self.clock += 1;
        if let Some(entry) = self.entries.get_mut(digest) {
            entry.stamp = self.clock;
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
    /// The disk leaf's directory of `<digest>.json` files; `None` is the
    /// memory leaf.
    dir: Option<PathBuf>,
    max_bytes: Option<u64>,
    index: Mutex<Index>,
    stats: StoreStats,
}

/// Result artifacts by digest, on disk or in memory. Clones share one
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
            index.touch(&digest, bytes, None);
        }
        let store = Self::over(Some(dir), max_bytes, index);
        store.evict_over_budget(&mut store.index(), None);
        Ok(store)
    }

    /// A store that keeps its artifacts on the heap, at most `max_bytes`
    /// of them: what a service without a cache directory runs on.
    pub fn in_memory(max_bytes: u64) -> Self {
        Self::over(None, Some(max_bytes), Index::default())
    }

    fn over(dir: Option<PathBuf>, max_bytes: Option<u64>, index: Index) -> Self {
        let inner = StoreInner {
            dir,
            max_bytes,
            index: Mutex::new(index),
            stats: StoreStats::default(),
        };
        Self {
            inner: Arc::new(inner),
        }
    }

    fn index(&self) -> MutexGuard<'_, Index> {
        self.inner.index.lock().expect("store index lock")
    }

    /// The artifact file of a digest, on the disk leaf.
    fn path(&self, digest: &str) -> Option<PathBuf> {
        let dir = self.inner.dir.as_ref()?;
        Some(dir.join(format!("{digest}.json")))
    }

    /// The configured byte budget, if any.
    pub fn max_bytes(&self) -> Option<u64> {
        self.inner.max_bytes
    }

    /// Total bytes currently indexed.
    pub fn bytes_used(&self) -> u64 {
        self.index().total_bytes
    }

    /// The store counters.
    pub fn stats(&self) -> &StoreStats {
        &self.inner.stats
    }

    /// Whether an artifact exists for `digest`: one the index knows, or a
    /// file another process has put in the directory since it was scanned.
    /// (A file somebody removed is still indexed until a read misses it.)
    pub fn contains(&self, digest: &str) -> bool {
        is_digest(digest)
            && (self.index().entries.contains_key(digest)
                || self.path(digest).is_some_and(|path| path.is_file()))
    }

    /// Loads the result stored under `digest`, if any. A successful load
    /// marks the artifact as recently used for eviction purposes.
    ///
    /// # Errors
    ///
    /// Returns a message on a malformed digest or an unreadable/corrupt
    /// artifact, which is gone when this returns: the next read of the
    /// digest is a miss (a missing artifact is `Ok(None)`).
    pub fn load(&self, digest: &str) -> Result<Option<SweepResult>, String> {
        Ok(self.fetch(digest)?.map(|(_, result)| result))
    }

    /// The artifact stored under `digest`, byte for byte as [`store`]
    /// wrote it — which is `render("json")` of the result [`load`] would
    /// return, checked to decode like a load and counted like one.
    ///
    /// # Errors
    ///
    /// As [`load`].
    ///
    /// [`store`]: ResultStore::store
    /// [`load`]: ResultStore::load
    pub fn bytes(&self, digest: &str) -> Result<Option<Arc<Vec<u8>>>, String> {
        Ok(self.fetch(digest)?.map(|(bytes, _)| bytes))
    }

    /// One read: the leaf's bytes and what they decode to.
    fn fetch(&self, digest: &str) -> Result<Option<(Bytes, SweepResult)>, String> {
        if !is_digest(digest) {
            return Err(format!("malformed digest {digest:?}"));
        }
        let stats = &self.inner.stats;
        let read = match self.path(digest) {
            None => Ok(self
                .index()
                .entries
                .get(digest)
                .and_then(|e| e.held.clone())),
            Some(path) => match std::fs::read(path) {
                Ok(bytes) => Ok(Some(Arc::new(bytes))),
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
                Err(e) => Err(e.to_string()),
            },
        };
        let decoded = read.and_then(|found| match found {
            None => Ok(None),
            Some(bytes) => {
                let text = std::str::from_utf8(&bytes).map_err(|e| e.to_string())?;
                let result = SweepResult::from_json(&pythia_stats::json::parse(text)?)?;
                Ok(Some((bytes, result)))
            }
        });
        let mut index = self.index();
        match decoded {
            Ok(Some((bytes, result))) => {
                stats.hits.fetch_add(1, Ordering::Relaxed);
                match self.inner.dir {
                    // The file is there, whoever wrote it.
                    Some(_) => index.touch(digest, bytes.len() as u64, None),
                    // Evicted since the read, it is served this once and
                    // not brought back over the budget.
                    None => index.refresh(digest),
                }
                Ok(Some((bytes, result)))
            }
            // Nothing there, or nothing usable: either way no index entry
            // (somebody removed the file) and no artifact outlive the read.
            Ok(None) => {
                stats.misses.fetch_add(1, Ordering::Relaxed);
                index.remove(digest);
                Ok(None)
            }
            Err(e) => {
                stats.misses.fetch_add(1, Ordering::Relaxed);
                self.remove(&mut index, digest);
                Err(format!("artifact {digest} is damaged and was dropped: {e}"))
            }
        }
    }

    /// Stores `result` under `digest`, stripping the wall-clock telemetry
    /// so the artifact is deterministic. On disk the write is atomic
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
        let rendered = result.clone().stripped().to_json().render_pretty();
        self.write(digest, rendered.into_bytes())
    }

    /// [`ResultStore::store`] after the render: `bytes` become the
    /// artifact of `digest`, whatever they are. Public for the tests that
    /// damage an artifact on either leaf.
    ///
    /// # Errors
    ///
    /// As [`ResultStore::store`].
    #[doc(hidden)]
    pub fn write(&self, digest: &str, bytes: Vec<u8>) -> Result<(), String> {
        if !is_digest(digest) {
            return Err(format!("malformed digest {digest:?}"));
        }
        let len = bytes.len() as u64;
        if let Some(budget) = self.inner.max_bytes.filter(|budget| len > *budget) {
            return Err(format!(
                "artifact for {digest} is {len} bytes, over the {budget}-byte store budget"
            ));
        }
        let held = match self.path(digest) {
            None => Some(Arc::new(bytes)),
            Some(path) => {
                let tmp = path.with_file_name(format!(
                    ".tmp-{digest}-{}-{:?}",
                    std::process::id(),
                    std::thread::current().id()
                ));
                std::fs::write(&tmp, bytes).map_err(|e| format!("{}: {e}", tmp.display()))?;
                std::fs::rename(&tmp, &path).map_err(|e| {
                    let _ = std::fs::remove_file(&tmp);
                    format!("{}: {e}", path.display())
                })?;
                None
            }
        };
        self.inner.stats.stored.fetch_add(1, Ordering::Relaxed);
        let mut index = self.index();
        index.touch(digest, len, held);
        self.evict_over_budget(&mut index, Some(digest));
        Ok(())
    }

    /// Forgets an artifact: its index entry (and with it the memory
    /// leaf's bytes), and on the disk leaf its file.
    fn remove(&self, index: &mut Index, digest: &str) {
        index.remove(digest);
        if let Some(Err(e)) = self.path(digest).map(std::fs::remove_file) {
            if e.kind() != std::io::ErrorKind::NotFound {
                eprintln!("store: failed to remove {digest}: {e}");
            }
        }
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
            self.remove(index, &victim);
            self.inner.stats.evicted.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// Runs a campaign through a [`ResultStore`]: on a digest hit the stored
/// artifact is returned without simulating; on a miss (a damaged artifact
/// is one, after a note on stderr) the campaign runs ([`run_all`]
/// semantics) and the stripped result is persisted.
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
    store: &ResultStore,
) -> Result<(SweepResult, bool), String> {
    campaign.validate()?;
    let digest = campaign.digest();
    let hit = store.load(&digest).unwrap_or_else(|e| {
        eprintln!("store: {e}; running the campaign again");
        None
    });
    if let Some(hit) = hit {
        return Ok((hit, true));
    }
    let result = run_all(&campaign.name, &campaign.panels, threads)?.stripped();
    store.store(&digest, &result)?;
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

        let (fresh, cached) = run_campaign(&campaign, 1, &store).expect("runs");
        assert!(!cached);
        assert!(store.contains(&digest));

        let (hit, cached) = run_campaign(&campaign, 1, &store).expect("loads");
        assert!(cached);
        assert_eq!(
            hit.to_json().render_pretty(),
            fresh.to_json().render_pretty(),
            "cache hit is byte-identical to the fresh run"
        );
        // And byte-identical to the on-disk artifact itself.
        let path = store.path(&digest).expect("disk leaf");
        let on_disk = std::fs::read_to_string(path).expect("artifact");
        assert_eq!(on_disk, fresh.to_json().render_pretty());
        // Which is what the store hands out as stored.
        let bytes = store.bytes(&digest).expect("reads").expect("stored");
        assert_eq!(*bytes, on_disk.into_bytes());
        assert_eq!(store.stats().hits.load(Ordering::Relaxed), 2);
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

    /// The store is the only copy of a result, so an artifact that no
    /// longer decodes must not stay: the read that finds it says so once,
    /// and the digest is a plain miss from then on, on either leaf. (An
    /// artifact damaged into something that still decodes needs a content
    /// checksum; ROADMAP "Crash anywhere".)
    #[test]
    fn corrupt_artifacts_error_instead_of_panicking() {
        let dir = tmp_dir("corrupt");
        let disk = ResultStore::open(&dir).expect("store opens");
        let digest = "0123456789abcdef";
        let whole = empty_result("x").to_json().render_pretty().into_bytes();
        for store in [disk, ResultStore::in_memory(1 << 20)] {
            let damaged: [&[u8]; 4] = [
                b"{ not json",
                &whole[..whole.len() / 2],
                b"\xff\xfe",
                b"{\"name\": 7}",
            ];
            for (i, bytes) in damaged.into_iter().enumerate() {
                store.write(digest, bytes.to_vec()).expect("write");
                assert!(store.contains(digest));
                let read = if i % 2 == 0 {
                    store.load(digest).map(|_| ())
                } else {
                    store.bytes(digest).map(|_| ())
                };
                assert!(read.unwrap_err().contains(digest), "names the digest");
                assert!(!store.contains(digest), "dropped");
                assert_eq!(store.bytes_used(), 0);
                assert!(matches!(store.load(digest), Ok(None)), "then a miss");
                assert!(matches!(store.bytes(digest), Ok(None)));
            }
            assert_eq!(store.stats().misses.load(Ordering::Relaxed), 12);
            assert_eq!(store.stats().hits.load(Ordering::Relaxed), 0);
            // A rewrite is served again.
            store.write(digest, whole.clone()).expect("write");
            assert_eq!(*store.bytes(digest).expect("reads").expect("hit"), whole);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn byte_budget_evicts_least_recently_used() {
        let dir = tmp_dir("lru");
        // Size one artifact, then budget for exactly two.
        let artifact_bytes = empty_result("x").to_json().render_pretty().len() as u64;
        let budget = artifact_bytes * 2;
        let disk = ResultStore::open_bounded(&dir, Some(budget)).expect("store opens");
        for store in [disk, ResultStore::in_memory(budget)] {
            store.store(&fake_digest(1), &empty_result("a")).expect("a");
            store.store(&fake_digest(2), &empty_result("b")).expect("b");
            assert_eq!(store.bytes_used(), budget);
            assert_eq!(store.stats().evicted.load(Ordering::Relaxed), 0);

            // Touch 1 so 2 becomes the LRU victim.
            assert!(store.load(&fake_digest(1)).expect("load").is_some());
            store.store(&fake_digest(3), &empty_result("c")).expect("c");
            assert!(store.bytes_used() <= budget, "never exceeds the budget");
            assert_eq!(store.stats().evicted.load(Ordering::Relaxed), 1);
            assert!(!store.contains(&fake_digest(2)), "LRU artifact evicted");
            assert!(matches!(store.bytes(&fake_digest(2)), Ok(None)));
            assert!(store.contains(&fake_digest(1)), "recently-used survives");
            assert!(store.contains(&fake_digest(3)), "new artifact present");
        }

        // An artifact bigger than the whole budget is refused outright.
        let tiny = ResultStore::open_bounded(tmp_dir("lru-tiny"), Some(4)).expect("opens");
        for store in [tiny, ResultStore::in_memory(4)] {
            let err = store
                .store(&fake_digest(9), &empty_result("big"))
                .unwrap_err();
            assert!(err.contains("budget"), "{err}");
            assert!(!store.contains(&fake_digest(9)));
        }
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
        let artifact_bytes = ResultStore::open(&dir).expect("probe").bytes_used() / 3;
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
