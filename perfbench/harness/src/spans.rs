//! In-memory span recorder for the traced run.
//!
//! Each span is one public call into a layer: a name, its start and end
//! (nanoseconds since the recorder was created), the span that caused
//! it, and the thread it ran on. Threads record into their own buffer
//! and hand it to the shared recorder when they finish, so recording
//! takes no lock on the hot path. Spans are written out once, at the
//! end of the run.

use serde::Serialize;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One recorded span.
#[derive(Clone, Debug, Serialize)]
pub struct Span {
    /// Unique within one recorder.
    pub id: u64,
    /// The enclosing span, if any (may live on another thread).
    pub parent: Option<u64>,
    /// Layer boundary name, e.g. `realize` or `strategy.swap`.
    pub name: String,
    /// Recording thread (0 = the main thread).
    pub thread: usize,
    /// Start, nanoseconds since the recorder's origin.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder's origin.
    pub end_ns: u64,
}

/// Shared sink for every thread's spans.
pub struct Recorder {
    origin: Instant,
    next_id: AtomicU64,
    done: Mutex<Vec<Span>>,
}

impl Recorder {
    pub fn new() -> Self {
        Recorder {
            origin: Instant::now(),
            next_id: AtomicU64::new(1),
            done: Mutex::new(Vec::new()),
        }
    }

    /// A per-thread recording handle; its spans join the recorder when
    /// it is dropped.
    pub fn local(&self, thread: usize) -> Local<'_> {
        Local {
            rec: self,
            thread,
            spans: Vec::new(),
        }
    }

    /// Every finished span, ordered by start time then id.
    pub fn into_spans(self) -> Vec<Span> {
        let mut spans = self.done.into_inner().expect("span buffer poisoned");
        spans.sort_by_key(|s| (s.start_ns, s.id));
        spans
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).expect("run shorter than 584 years")
    }
}

/// One thread's recording handle.
pub struct Local<'a> {
    rec: &'a Recorder,
    thread: usize,
    spans: Vec<Span>,
}

impl Local<'_> {
    /// Runs `f` inside a span named `name` under `parent`. `f` receives
    /// this handle (to open child spans) and the new span's id. Returns
    /// `f`'s result and the span's duration in nanoseconds.
    pub fn span<R>(
        &mut self,
        name: &str,
        parent: Option<u64>,
        f: impl FnOnce(&mut Self, u64) -> R,
    ) -> (R, u64) {
        let id = self.rec.next_id.fetch_add(1, Ordering::Relaxed);
        let start_ns = self.rec.now_ns();
        let out = f(self, id);
        let end_ns = self.rec.now_ns();
        self.spans.push(Span {
            id,
            parent,
            name: name.to_owned(),
            thread: self.thread,
            start_ns,
            end_ns,
        });
        (out, end_ns - start_ns)
    }
}

impl Drop for Local<'_> {
    fn drop(&mut self) {
        if let Ok(mut done) = self.rec.done.lock() {
            done.append(&mut self.spans);
        }
    }
}

/// Self time per span name: each span's duration minus the part of its
/// interval that its children cover (children are clipped to the
/// parent and merged, so overlapping children on several threads are
/// not subtracted twice). Returned as `(name, spans, total_ns, self_ns)`
/// sorted by name.
pub fn self_times(spans: &[Span]) -> Vec<(String, u64, u64, u64)> {
    use std::collections::{BTreeMap, HashMap};
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    let mut by_name: BTreeMap<&str, (u64, u64, u64)> = BTreeMap::new();
    for s in spans {
        let total = s.end_ns - s.start_ns;
        let mut covered = 0;
        if let Some(kids) = children.get_mut(&s.id) {
            kids.sort_unstable();
            let mut cursor = s.start_ns;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(cursor), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    cursor = b;
                }
            }
        }
        let e = by_name.entry(&s.name).or_default();
        e.0 += 1;
        e.1 += total;
        e.2 += total - covered;
    }
    by_name
        .into_iter()
        .map(|(n, (c, t, s))| (n.to_owned(), c, t, s))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, name: &str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name: name.into(),
            thread: 0,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_merged_children_once() {
        let spans = vec![
            span(1, None, "outer", 0, 100),
            span(2, Some(1), "inner", 10, 40),
            span(3, Some(1), "inner", 30, 50),
            span(4, Some(1), "inner", 90, 120),
        ];
        let t = self_times(&spans);
        let outer = t.iter().find(|r| r.0 == "outer").expect("outer");
        // Children cover [10, 50] and [90, 100] of the parent: 50 ns.
        assert_eq!((outer.1, outer.2, outer.3), (1, 100, 50));
        let inner = t.iter().find(|r| r.0 == "inner").expect("inner");
        assert_eq!((inner.1, inner.2, inner.3), (3, 80, 80));
    }
}
