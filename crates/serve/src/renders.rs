//! The recent-renders cache: the bytes last served for a stored artifact,
//! by `ETag`.
//!
//! A finished result never changes and its `ETag` names the digest and
//! the render format, so the bytes behind one `ETag` never change either:
//! reading, checking and (for `md` and `csv`) rendering the same 14 KB
//! artifact again for every `GET` of a popular digest is pure waste. The
//! cache keeps the last few and hands them out shared, so a hit costs
//! neither a store read nor a copy.
//!
//! Who writes it: only [`RenderCache::get_or_render`], and only with what
//! the caller's `render` closure made of the stored artifact for that
//! `ETag` — an entry is byte-identical to a fresh render by construction.
//! Who evicts: an insert into a full cache, the oldest render first; a hit
//! reorders nothing ([`crate::recent`]). Nothing invalidates an entry,
//! because nothing can make it stale — it may outlive the artifact in the
//! store, and is right all the same.

use std::sync::Arc;

use crate::obs::ResultEvents;
use crate::recent::Recent;

/// How many renders are kept. Small artifacts are what piles up (14 KB each
/// on `serve_small_cells_mix`, a new digest every repetition), and every
/// kept one is handler heap: a byte budget sized for the largest artifact
/// let them reach 1.25 MB of `peak_rss_mb`, so the cache is bounded by
/// count.
const RENDER_CACHE_ENTRIES: usize = 8;

/// The largest render that is kept; a larger one is served uncached. With
/// the entry count this is the cache's byte budget (4 MiB, reached only by
/// eight artifacts of the largest size). The largest registry figure
/// (fig09, 500 cells) renders to 350 KB of JSON and 90 KB of markdown.
const RENDER_MAX_BYTES: usize = 512 << 10;

/// The last few rendered artifacts by `ETag`, shared by every connection
/// handler.
pub(crate) struct RenderCache {
    recent: Recent<String, Arc<Vec<u8>>>,
}

impl Default for RenderCache {
    fn default() -> Self {
        Self {
            recent: Recent::new(RENDER_CACHE_ENTRIES),
        }
    }
}

impl RenderCache {
    /// The artifact behind `etag`: the cached bytes, or `render()`'s,
    /// which are then kept for the next caller. Counts one
    /// `render_hits` or one `renders`; a render that fails or finds no
    /// artifact (`None`) counts neither and stores nothing.
    ///
    /// # Errors
    ///
    /// Whatever `render` returns.
    pub(crate) fn get_or_render<E>(
        &self,
        events: &ResultEvents,
        etag: &str,
        render: impl FnOnce() -> Result<Option<Arc<Vec<u8>>>, E>,
    ) -> Result<Option<Arc<Vec<u8>>>, E> {
        if let Some(body) = self.recent.get(etag) {
            events.render_hits.inc();
            return Ok(Some(body));
        }
        // Rendered outside the lock: other digests are served meanwhile.
        let Some(body) = render()? else {
            return Ok(None);
        };
        events.renders.inc();
        // Two handlers may have rendered the same artifact at once; the
        // bytes are the same, one copy stays.
        if body.len() <= RENDER_MAX_BYTES {
            self.recent.insert(etag.to_string(), Arc::clone(&body));
        }
        Ok(Some(body))
    }

    /// Whether a render is cached under `etag`.
    #[cfg(test)]
    pub(crate) fn holds(&self, etag: &str) -> bool {
        self.recent.get(etag).is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::obs::ServeObs;

    fn fetch(cache: &RenderCache, obs: &ServeObs, etag: &str, body: &str) -> Arc<Vec<u8>> {
        cache
            .get_or_render(&obs.results, etag, || {
                Ok::<_, String>(Some(Arc::new(body.into())))
            })
            .expect("renders")
            .expect("found")
    }

    #[test]
    fn a_repeat_fetch_shares_the_first_render() {
        let (cache, obs) = (RenderCache::default(), ServeObs::default());
        let first = fetch(&cache, &obs, "a", "artifact");
        let again = cache
            .get_or_render::<String>(&obs.results, "a", || panic!("rendered twice"))
            .expect("cached")
            .expect("found");
        assert!(Arc::ptr_eq(&first, &again));
        assert_eq!(
            (obs.results.renders.get(), obs.results.render_hits.get()),
            (1, 1)
        );
    }

    #[test]
    fn a_full_cache_drops_its_oldest_render() {
        let (cache, obs) = (RenderCache::default(), ServeObs::default());
        for i in 0..RENDER_CACHE_ENTRIES {
            fetch(&cache, &obs, &format!("r{i}"), "ssss");
        }
        // A hit does not make `r0` any younger.
        fetch(&cache, &obs, "r0", "ssss");
        fetch(&cache, &obs, "next", "ssss");
        assert!(!cache.holds("r0") && cache.holds("r1") && cache.holds("next"));
        assert_eq!(cache.recent.len(), RENDER_CACHE_ENTRIES);
        // An evicted artifact renders again, the same bytes.
        assert_eq!(*fetch(&cache, &obs, "r0", "ssss"), b"ssss");
        assert_eq!(
            (obs.results.renders.get(), obs.results.render_hits.get()),
            (RENDER_CACHE_ENTRIES as u64 + 2, 1)
        );
    }

    #[test]
    fn oversized_and_failed_renders_are_not_kept() {
        let (cache, obs) = (RenderCache::default(), ServeObs::default());
        fetch(&cache, &obs, "small", "ssss");
        let oversized = "x".repeat(RENDER_MAX_BYTES + 1);
        assert_eq!(
            fetch(&cache, &obs, "big", &oversized).len(),
            oversized.len()
        );
        assert!(!cache.holds("big") && cache.holds("small"));
        let failed = cache.get_or_render(&obs.results, "bad", || Err("unknown format"));
        assert_eq!(failed.unwrap_err(), "unknown format");
        let missing = cache.get_or_render(&obs.results, "bad", || Ok::<_, String>(None));
        assert_eq!(missing, Ok(None));
        assert!(!cache.holds("bad"));
        assert_eq!(
            obs.results.renders.get(),
            2,
            "a failed render is no render, nor is a miss"
        );
    }
}
