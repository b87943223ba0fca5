//! In-memory spans recorded by the benchmark around its calls into each
//! layer, written out when the run ends.
//!
//! A span's *self time* is its duration minus the part of its interval
//! covered by its direct children, minus the LP time its own solver
//! session spent inside it (LP solves run synchronously inside the
//! calling span, and their wall time comes from `LpSolver::stats()`
//! rather than from spans of their own).

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    /// Request (analysis) the span belongs to.
    pub request: u64,
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    /// LP wall time spent directly inside this span, ns.
    pub lp_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// An open span; close it with [`Tracer::close`].
pub struct Open {
    id: u64,
    parent: Option<u64>,
    request: u64,
    name: String,
    start_ns: u64,
}

impl Open {
    pub fn id(&self) -> u64 {
        self.id
    }
}

pub struct Tracer {
    origin: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    pub fn open(&self, name: &str, parent: Option<u64>, request: u64) -> Open {
        Open {
            id: self.next_id.fetch_add(1, Ordering::Relaxed),
            parent,
            request,
            name: name.to_string(),
            start_ns: self.now_ns(),
        }
    }

    /// Closes a span, attributing `lp_seconds` of LP time to it.
    pub fn close(&self, open: Open, lp_seconds: f64) {
        let end_ns = self.now_ns();
        let span = Span {
            id: open.id,
            parent: open.parent,
            request: open.request,
            name: open.name,
            start_ns: open.start_ns,
            end_ns,
            lp_ns: (lp_seconds * 1e9).round() as u64,
        };
        self.spans
            .lock()
            .expect("span store poisoned by a panicking client")
            .push(span);
    }

    /// Runs `f` inside a span with no LP time of its own.
    pub fn scope<T>(
        &self,
        name: &str,
        parent: Option<u64>,
        request: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let open = self.open(name, parent, request);
        let out = f();
        self.close(open, 0.0);
        out
    }

    /// Every closed span, sorted by start time.
    pub fn finish(self) -> Vec<Span> {
        let mut spans = self
            .spans
            .into_inner()
            .expect("span store poisoned by a panicking client");
        spans.sort_by_key(|s| (s.start_ns, s.id));
        spans
    }
}

/// Length of the union of `intervals`, each clipped to `[lo, hi]`.
pub fn covered_ns(lo: u64, hi: u64, intervals: &[(u64, u64)]) -> u64 {
    let mut clipped: Vec<(u64, u64)> = intervals
        .iter()
        .map(|&(s, e)| (s.max(lo), e.min(hi)))
        .filter(|&(s, e)| e > s)
        .collect();
    clipped.sort_unstable();
    let mut total = 0;
    let mut run: Option<(u64, u64)> = None;
    for (s, e) in clipped {
        run = match run {
            Some((rs, re)) if s <= re => Some((rs, re.max(e))),
            Some((rs, re)) => {
                total += re - rs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    total + run.map_or(0, |(s, e)| e - s)
}

/// Self time of every span, ns, keyed by span id.
pub fn self_times(spans: &[Span]) -> HashMap<u64, u64> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let kids = children
                .get(&s.id)
                .map_or(0, |c| covered_ns(s.start_ns, s.end_ns, c));
            (
                s.id,
                s.duration_ns().saturating_sub(kids).saturating_sub(s.lp_ns),
            )
        })
        .collect()
}

/// One JSON line per span.
pub fn to_jsonl(spans: &[Span]) -> String {
    use qavad::json::{obj, Json};
    let mut out = String::new();
    for s in spans {
        let doc = obj(vec![
            ("id", Json::Num(s.id as f64)),
            (
                "parent",
                s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
            ),
            ("request", Json::Num(s.request as f64)),
            ("name", Json::Str(s.name.clone())),
            ("start_ns", Json::Num(s.start_ns as f64)),
            ("end_ns", Json::Num(s.end_ns as f64)),
            ("lp_ns", Json::Num(s.lp_ns as f64)),
        ]);
        out.push_str(&doc.render());
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, start_ns: u64, end_ns: u64, lp_ns: u64) -> Span {
        Span {
            id,
            parent,
            request: 1,
            name: format!("s{id}"),
            start_ns,
            end_ns,
            lp_ns,
        }
    }

    #[test]
    fn union_of_overlapping_and_clipped_intervals() {
        assert_eq!(covered_ns(0, 100, &[]), 0);
        assert_eq!(covered_ns(0, 100, &[(10, 30), (20, 50)]), 40);
        assert_eq!(covered_ns(0, 100, &[(10, 30), (40, 50)]), 30);
        assert_eq!(covered_ns(0, 100, &[(90, 120), (0, 5)]), 15);
        assert_eq!(covered_ns(50, 60, &[(0, 10), (70, 80)]), 0);
        assert_eq!(covered_ns(0, 100, &[(0, 100), (10, 20)]), 100);
    }

    #[test]
    fn self_time_subtracts_covered_children_and_own_lp() {
        let spans = vec![
            span(1, None, 0, 100, 0),
            // Overlapping children (parallel engines) count once.
            span(2, Some(1), 10, 30, 0),
            span(3, Some(1), 20, 50, 5),
            // A child running past its parent's end is clipped.
            span(4, Some(1), 90, 120, 0),
            // A grandchild is covered by its own parent, not by span 1.
            span(5, Some(3), 25, 45, 0),
        ];
        let st = self_times(&spans);
        assert_eq!(st[&1], 100 - (40 + 10));
        assert_eq!(st[&2], 20);
        assert_eq!(st[&3], 30 - 20 - 5);
        assert_eq!(st[&4], 30);
        assert_eq!(st[&5], 20);
    }

    #[test]
    fn tracer_records_parentage_and_requests() {
        let t = Tracer::default();
        let root = t.open("analysis", None, 7);
        let root_id = root.id();
        t.scope("lang.compile", Some(root_id), 7, || ());
        t.close(root, 0.0);
        let spans = t.finish();
        assert_eq!(spans.len(), 2);
        let child = spans.iter().find(|s| s.name == "lang.compile").unwrap();
        assert_eq!(child.parent, Some(root_id));
        assert!(spans
            .iter()
            .all(|s| s.request == 7 && s.end_ns >= s.start_ns));
    }
}
