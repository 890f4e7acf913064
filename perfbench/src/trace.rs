//! In-memory spans recorded around calls into the program's layers.
//!
//! The traced run wraps each public call it makes in a span (name, start,
//! end, parent, and the cell or instance id it works on). Spans stay in
//! memory until the run ends; self time — a span's duration minus the part
//! of its interval that child spans cover — is computed from them there.

use std::collections::BTreeMap;
use std::time::Instant;

/// Index of a span inside its [`Trace`].
pub type SpanIdx = usize;

/// The `parent` of a root span.
pub const NO_PARENT: u32 = u32::MAX;

/// One recorded span. Times are nanoseconds since the trace's epoch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    /// Layer-qualified name, such as `weak.sample`.
    pub name: &'static str,
    /// The cell, instance or arm the span worked on.
    pub id: u32,
    /// Enclosing span in the same trace ([`NO_PARENT`] for a root).
    pub parent: u32,
    /// Start time.
    pub start: u64,
    /// End time.
    pub end: u64,
}

impl Span {
    /// The enclosing span, if any.
    pub fn parent(&self) -> Option<SpanIdx> {
        (self.parent != NO_PARENT).then_some(self.parent as SpanIdx)
    }

    /// Duration in nanoseconds.
    pub fn ns(&self) -> u64 {
        self.end - self.start
    }
}

/// The spans of one thread, with the stack of spans still open.
#[derive(Debug)]
pub struct Trace {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<SpanIdx>,
}

impl Trace {
    /// An empty trace measuring from `epoch` (share one epoch across the
    /// threads of a run so their traces can be merged).
    pub fn new(epoch: Instant) -> Self {
        Trace {
            epoch,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Nanoseconds since the epoch.
    #[inline]
    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn parent_idx(&self) -> u32 {
        self.open.last().map_or(NO_PARENT, |&p| {
            u32::try_from(p).expect("fewer than 2^32 - 1 spans per trace")
        })
    }

    /// Opens a span under the innermost open one.
    pub fn open(&mut self, name: &'static str, id: u32) -> SpanIdx {
        let start = self.now();
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            id,
            parent: self.parent_idx(),
            start,
            end: start,
        });
        self.open.push(idx);
        idx
    }

    /// Closes the innermost open span, which must be `idx`.
    pub fn close(&mut self, idx: SpanIdx) {
        assert_eq!(
            self.open.pop(),
            Some(idx),
            "spans must close innermost first"
        );
        self.spans[idx].end = self.now();
    }

    /// Records a finished span under the innermost open one, from times the
    /// caller took with [`Trace::now`] (so adjacent leaves share a clock
    /// read at their common boundary).
    #[inline]
    pub fn leaf(&mut self, name: &'static str, id: u32, start: u64, end: u64) {
        self.spans.push(Span {
            name,
            id,
            parent: self.parent_idx(),
            start,
            end,
        });
    }

    /// Runs `f` inside a leaf span.
    pub fn time<R>(&mut self, name: &'static str, id: u32, f: impl FnOnce() -> R) -> R {
        let start = self.now();
        let out = f();
        let end = self.now();
        self.leaf(name, id, start, end);
        out
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Appends another thread's spans (parents re-indexed).
    pub fn absorb(&mut self, other: Trace) {
        assert!(other.open.is_empty(), "absorbing a trace with open spans");
        let offset = u32::try_from(self.spans.len()).expect("fewer than 2^32 - 1 spans per trace");
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            if s.parent != NO_PARENT {
                s.parent += offset;
            }
            s
        }));
    }
}

/// Self time of every span: its duration minus the length of the union of
/// its children's intervals, clipped to its own.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent() {
            let parent = &spans[p];
            let (a, b) = (s.start.max(parent.start), s.end.min(parent.end));
            if a < b {
                children[p].push((a, b));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut cursor = s.start;
            for &(a, b) in kids.iter() {
                let a = a.max(cursor);
                if b > a {
                    covered += b - a;
                    cursor = b;
                }
            }
            s.ns() - covered
        })
        .collect()
}

/// Per-name totals over a trace.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct NameStats {
    /// Spans with this name.
    pub count: u64,
    /// Sum of durations.
    pub total_ns: u64,
    /// Sum of self times.
    pub self_ns: u64,
    /// Whether every span of this name is a leaf (has no children).
    pub leaf: bool,
    /// Every duration, in recording order.
    pub durations: Vec<f64>,
}

/// Groups a trace by span name.
pub fn by_name(spans: &[Span]) -> BTreeMap<&'static str, NameStats> {
    let selfs = self_times(spans);
    let mut has_child = vec![false; spans.len()];
    for s in spans {
        if let Some(p) = s.parent() {
            has_child[p] = true;
        }
    }
    let mut out: BTreeMap<&'static str, NameStats> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        let e = out.entry(s.name).or_insert_with(|| NameStats {
            leaf: true,
            ..NameStats::default()
        });
        e.count += 1;
        e.total_ns += s.ns();
        e.self_ns += selfs[i];
        e.leaf &= !has_child[i];
        e.durations.push(s.ns() as f64);
    }
    out
}

/// Share of the `root` spans' total duration spent in leaf spans.
pub fn leaf_share(names: &BTreeMap<&'static str, NameStats>, root: &str) -> f64 {
    let root_ns = names.get(root).map_or(0, |r| r.total_ns);
    let leaf_ns: u64 = names
        .iter()
        .filter(|(&n, s)| n != root && s.leaf)
        .map(|(_, s)| s.total_ns)
        .sum();
    ratio(leaf_ns as f64, root_ns as f64)
}

/// `num / den`, or 0 when the denominator is 0 (a layer that did no work).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Renders the per-name table written at the end of a traced run.
pub fn render(names: &BTreeMap<&'static str, NameStats>) -> String {
    let mut out = format!(
        "{:<20} {:>10} {:>14} {:>14} {:>5}\n",
        "span", "count", "total_ms", "self_ms", "leaf"
    );
    for (name, s) in names {
        out.push_str(&format!(
            "{:<20} {:>10} {:>14.3} {:>14.3} {:>5}\n",
            name,
            s.count,
            s.total_ns as f64 / 1e6,
            s.self_ns as f64 / 1e6,
            s.leaf
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<u32>, start: u64, end: u64) -> Span {
        Span {
            name,
            id: 0,
            parent: parent.unwrap_or(NO_PARENT),
            start,
            end,
        }
    }

    #[test]
    fn self_time_subtracts_nested_children() {
        // root [0,100) ⊃ a [10,40) ⊃ a1 [15,25); root ⊃ b [50,90).
        let spans = vec![
            span("root", None, 0, 100),
            span("a", Some(0), 10, 40),
            span("a1", Some(1), 15, 25),
            span("b", Some(0), 50, 90),
        ];
        assert_eq!(self_times(&spans), vec![30, 20, 10, 40]);
    }

    #[test]
    fn self_time_counts_overlapping_children_once() {
        // Children from two threads may overlap: their union is subtracted,
        // and a child sticking out of its parent is clipped.
        let spans = vec![
            span("root", None, 0, 100),
            span("x", Some(0), 10, 60),
            span("y", Some(0), 40, 80),
            span("z", Some(0), 90, 130),
        ];
        assert_eq!(self_times(&spans)[0], 100 - 70 - 10);
    }

    #[test]
    fn grouping_marks_leaves_and_shares() {
        let spans = vec![
            span("cell", None, 0, 100),
            span("weak.sample", Some(0), 0, 30),
            span("level.frontier", Some(0), 30, 90),
            span("cell", None, 100, 150),
            span("weak.sample", Some(3), 100, 150),
        ];
        let names = by_name(&spans);
        assert!(!names["cell"].leaf);
        assert!(names["weak.sample"].leaf);
        assert_eq!(names["weak.sample"].count, 2);
        assert_eq!(names["weak.sample"].total_ns, 80);
        assert_eq!(names["cell"].self_ns, 10);
        assert!((leaf_share(&names, "cell") - 140.0 / 150.0).abs() < 1e-12);
    }

    #[test]
    fn traces_merge_across_threads() {
        let epoch = Instant::now();
        let mut main = Trace::new(epoch);
        let root = main.open("job", 0);
        main.close(root);
        let mut worker = Trace::new(epoch);
        let cell = worker.open("cell", 1);
        worker.time("leaf", 1, || ());
        worker.close(cell);
        main.absorb(worker);
        let spans = main.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[2].parent(), Some(1));
        assert_eq!(spans[0].parent(), None);
        assert!(spans.iter().all(|s| s.start <= s.end));
    }
}
