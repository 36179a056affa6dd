//! Span recording for the traced run.
//!
//! Spans are kept in memory and written out once, as Chrome Trace Event
//! JSON, when the run ends. A span records only its name, thread and
//! interval; parents are recovered afterwards by interval containment on
//! the same thread, so spans whose interval is known only after the fact
//! (a crawl pass, seen between two callbacks) nest like guard spans.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_TID: AtomicU64 = AtomicU64::new(1);

fn state() -> &'static (Instant, Mutex<Vec<Raw>>) {
    static STATE: OnceLock<(Instant, Mutex<Vec<Raw>>)> = OnceLock::new();
    STATE.get_or_init(|| (Instant::now(), Mutex::new(Vec::new())))
}

thread_local! {
    static TID: u64 = NEXT_TID.fetch_add(1, Ordering::Relaxed);
}

#[derive(Clone)]
struct Raw {
    name: &'static str,
    tid: u64,
    start_ns: u64,
    end_ns: u64,
}

/// Turns span recording on or off for every thread.
pub fn set_enabled(on: bool) {
    state();
    ENABLED.store(on, Ordering::SeqCst);
}

/// Nanoseconds since the trace epoch.
pub fn now_ns() -> u64 {
    u64::try_from(state().0.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Records a span whose interval is already known.
pub fn record(name: &'static str, start_ns: u64, end_ns: u64) {
    if !ENABLED.load(Ordering::Relaxed) {
        return;
    }
    let tid = TID.with(|t| *t);
    state().1.lock().expect("span buffer lock").push(Raw {
        name,
        tid,
        start_ns,
        end_ns: end_ns.max(start_ns),
    });
}

/// An open span; recorded when dropped.
pub struct Guard {
    name: &'static str,
    start_ns: u64,
}

impl Drop for Guard {
    fn drop(&mut self) {
        record(self.name, self.start_ns, now_ns());
    }
}

/// Opens a span named `name` when tracing is on.
pub fn span(name: &'static str) -> Option<Guard> {
    ENABLED.load(Ordering::Relaxed).then(|| Guard {
        name,
        start_ns: now_ns(),
    })
}

/// One span with its recovered parent.
pub struct Span {
    pub id: usize,
    pub parent: Option<usize>,
    pub name: &'static str,
    pub tid: u64,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Duration minus the part covered by direct children.
    pub self_ns: u64,
}

/// Every recorded span, with parents recovered by containment.
pub fn spans() -> Vec<Span> {
    let mut raw = state().1.lock().expect("span buffer lock").clone();
    raw.sort_by(|a, b| {
        (a.tid, a.start_ns, std::cmp::Reverse(a.end_ns)).cmp(&(
            b.tid,
            b.start_ns,
            std::cmp::Reverse(b.end_ns),
        ))
    });
    let mut out: Vec<Span> = Vec::with_capacity(raw.len());
    let mut stack: Vec<usize> = Vec::new();
    for r in raw {
        while let Some(&top) = stack.last() {
            let t = &out[top];
            if t.tid == r.tid && r.start_ns >= t.start_ns && r.end_ns <= t.end_ns {
                break;
            }
            stack.pop();
        }
        let id = out.len();
        let parent = stack.last().copied();
        if let Some(p) = parent {
            let child = r.end_ns - r.start_ns;
            out[p].self_ns = out[p].self_ns.saturating_sub(child);
        }
        out.push(Span {
            id,
            parent,
            name: r.name,
            tid: r.tid,
            start_ns: r.start_ns,
            end_ns: r.end_ns,
            self_ns: r.end_ns - r.start_ns,
        });
        stack.push(id);
    }
    out
}

/// Chrome Trace Event JSON ("X" complete events, microsecond times).
pub fn chrome_json(spans: &[Span]) -> String {
    let mut out = String::from("{\"traceEvents\":[");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        out.push_str(&format!(
            "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{},\"parent\":{}}}}}",
            s.name,
            s.tid,
            s.start_ns as f64 / 1e3,
            (s.end_ns - s.start_ns) as f64 / 1e3,
            s.id,
            parent
        ));
    }
    out.push_str("]}");
    out
}
