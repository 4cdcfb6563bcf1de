//! The eviction rule the service's small caches share: the last few
//! `(key, value)` pairs inserted, oldest insert out first.
//!
//! A lookup reorders nothing, and a key is kept once: inserting one already
//! kept changes nothing. Each cache that uses it says what it keeps and why
//! an entry never goes stale — the recent-renders cache
//! ([`crate::renders`]) and the recent-submissions list
//! ([`crate::submissions`]).

use std::borrow::Borrow;
use std::collections::VecDeque;
use std::sync::Mutex;

/// At most `cap` pairs, oldest first, shared by every connection handler.
pub(crate) struct Recent<K, V> {
    entries: Mutex<VecDeque<(K, V)>>,
    cap: usize,
}

impl<K: PartialEq, V: Clone> Recent<K, V> {
    /// An empty cache of at most `cap` pairs.
    pub(crate) fn new(cap: usize) -> Self {
        Self {
            entries: Mutex::default(),
            cap,
        }
    }

    /// The value kept under `key`, if any.
    pub(crate) fn get<Q>(&self, key: &Q) -> Option<V>
    where
        K: Borrow<Q>,
        Q: PartialEq + ?Sized,
    {
        let entries = self.lock();
        let (_, value) = entries.iter().find(|(k, _)| k.borrow() == key)?;
        Some(value.clone())
    }

    /// Keeps `value` under `key` unless the key is kept already; a full
    /// cache drops its oldest insert first.
    pub(crate) fn insert(&self, key: K, value: V) {
        let mut entries = self.lock();
        if entries.iter().any(|(k, _)| *k == key) {
            return;
        }
        if entries.len() == self.cap {
            entries.pop_front();
        }
        entries.push_back((key, value));
    }

    /// How many pairs are kept.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.lock().len()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, VecDeque<(K, V)>> {
        self.entries.lock().expect("recent entries lock")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_full_cache_drops_its_oldest_insert_and_keeps_a_key_once() {
        let recent = Recent::new(3);
        for (key, value) in [("a", 1), ("b", 2), ("c", 3)] {
            recent.insert(key.to_string(), value);
        }
        // A lookup, or inserting `a` again, makes `a` no younger.
        assert_eq!(recent.get("a"), Some(1));
        recent.insert("a".to_string(), 9);
        assert_eq!(recent.get("a"), Some(1), "the first value stays");
        recent.insert("d".to_string(), 4);
        assert_eq!(
            ["a", "b", "c", "d"].map(|k| recent.get(k)),
            [None, Some(2), Some(3), Some(4)]
        );
        assert_eq!(recent.len(), 3);
    }
}
