//! The recent-submissions list: the last few accepted campaign bodies, by
//! their exact bytes, with the digest and campaign name each one decoded
//! to.
//!
//! The documented way to ask for a finished campaign is to POST it again,
//! and a client that does so sends the bytes it sent the first time.
//! Decoding, validating and digesting those bytes again is most of what a
//! cache-hit submission costs; the same bytes decode to the same campaign,
//! so the submit route looks the bytes up here first and, on a match,
//! attaches to the digest without reading the body at all.
//!
//! Who writes it: only the submit route's general path, and only after it
//! accepted a body (`200` or `202`) — an entry is what the general path
//! made of those bytes by construction. A rejected body (`400`, `413`,
//! `429`) is never entered. Who evicts: an insert into a full list, the
//! oldest insert first; a match reorders nothing. Nothing invalidates an
//! entry: a digest the scheduler no longer knows (the store evicted its
//! artifact) fails the attach, and the route falls through to the general
//! path. The invariant — a body answered here gets the response the
//! general path would give it — is pinned by the server's
//! `the_lane_answers_every_submission_as_the_general_path_does`.

use crate::recent::Recent;

/// How many bodies are kept: a client re-POSTing a handful of campaigns
/// finds all of them, and a lookup compares at most this many bodies.
const SUBMISSION_ENTRIES: usize = 8;

/// The largest body that is kept; a larger one always takes the general
/// path. With the entry count this bounds the list at 512 KiB. A
/// `{"figure": id}` body is a few dozen bytes and a 24-cell spec 3.3 KB.
const SUBMISSION_MAX_BYTES: usize = 64 << 10;

/// The last few accepted bodies with the digest and campaign name each
/// decoded to, shared by every connection handler.
pub(crate) struct RecentSubmissions {
    recent: Recent<Vec<u8>, (String, String)>,
}

impl Default for RecentSubmissions {
    fn default() -> Self {
        Self {
            recent: Recent::new(SUBMISSION_ENTRIES),
        }
    }
}

impl RecentSubmissions {
    /// The digest and campaign name `body` decoded to when it was
    /// accepted, if it is kept.
    pub(crate) fn find(&self, body: &[u8]) -> Option<(String, String)> {
        self.recent.get(body)
    }

    /// Keeps an accepted `body` with what it decoded to, unless it is
    /// oversized or kept already.
    pub(crate) fn insert(&self, body: &[u8], digest: &str, name: &str) {
        if body.len() <= SUBMISSION_MAX_BYTES {
            let decoded = (digest.to_string(), name.to_string());
            self.recent.insert(body.to_vec(), decoded);
        }
    }

    /// Whether `body` is kept.
    #[cfg(test)]
    pub(crate) fn holds(&self, body: &[u8]) -> bool {
        self.find(body).is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_body_up_to_the_size_cap_is_kept_and_an_oversized_one_is_not() {
        let list = RecentSubmissions::default();
        let largest = vec![b' '; SUBMISSION_MAX_BYTES];
        let oversized = vec![b' '; SUBMISSION_MAX_BYTES + 1];
        list.insert(&largest, "d", "n");
        list.insert(&oversized, "d", "n");
        assert_eq!(list.find(&largest), Some(("d".into(), "n".into())));
        assert!(!list.holds(&oversized));
    }
}
