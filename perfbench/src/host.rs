//! A timing [`CodeHost`] wrapper: counts, busy time and bytes of the
//! githost calls the pipeline and the crawl daemon make, measured from
//! inside the real `Pipeline::run` and `crawl` calls.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use gittables_githost::{CodeHost, GitHost, HostError, Query, SearchResponse};

use crate::trace;

/// Totals of one [`TimedHost`]. `search` counts both search-API calls,
/// `count` and `search`.
#[derive(Default)]
pub struct HostCounters {
    search_calls: AtomicU64,
    search_ns: AtomicU64,
    fetch_calls: AtomicU64,
    fetch_ns: AtomicU64,
    fetch_bytes: AtomicU64,
}

/// A snapshot of [`HostCounters`].
#[derive(Debug, Clone, Copy, Default)]
pub struct HostTotals {
    pub search_calls: u64,
    pub search_s: f64,
    pub fetch_calls: u64,
    pub fetch_s: f64,
    pub fetch_mb: f64,
}

impl HostCounters {
    pub fn totals(&self) -> HostTotals {
        let secs = |a: &AtomicU64| a.load(Ordering::Relaxed) as f64 / 1e9;
        HostTotals {
            search_calls: self.search_calls.load(Ordering::Relaxed),
            search_s: secs(&self.search_ns),
            fetch_calls: self.fetch_calls.load(Ordering::Relaxed),
            fetch_s: secs(&self.fetch_ns),
            fetch_mb: self.fetch_bytes.load(Ordering::Relaxed) as f64 / 1e6,
        }
    }
}

/// Forwards to a [`GitHost`], timing every call (and recording a span
/// for it when tracing is on).
pub struct TimedHost<'a> {
    inner: &'a GitHost,
    counters: &'a HostCounters,
}

impl<'a> TimedHost<'a> {
    pub fn new(inner: &'a GitHost, counters: &'a HostCounters) -> Self {
        TimedHost { inner, counters }
    }

    fn timed<T>(
        &self,
        name: &'static str,
        calls: &AtomicU64,
        ns: &AtomicU64,
        f: impl FnOnce() -> T,
    ) -> T {
        let _span = trace::span(name);
        let start = Instant::now();
        let out = f();
        let took = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        calls.fetch_add(1, Ordering::Relaxed);
        ns.fetch_add(took, Ordering::Relaxed);
        out
    }
}

impl CodeHost for TimedHost<'_> {
    fn count(&self, query: &Query) -> Result<usize, HostError> {
        let c = self.counters;
        self.timed("githost.search", &c.search_calls, &c.search_ns, || {
            self.inner.count(query)
        })
    }

    fn search(&self, query: &Query, page: usize) -> Result<SearchResponse, HostError> {
        let c = self.counters;
        self.timed("githost.search", &c.search_calls, &c.search_ns, || {
            self.inner.search(query, page)
        })
    }

    fn fetch(&self, repository: &str, path: &str) -> Result<Option<String>, HostError> {
        let c = self.counters;
        let out = self.timed("githost.fetch", &c.fetch_calls, &c.fetch_ns, || {
            CodeHost::fetch(self.inner, repository, path)
        });
        if let Ok(Some(content)) = &out {
            c.fetch_bytes
                .fetch_add(content.len() as u64, Ordering::Relaxed);
        }
        out
    }
}
