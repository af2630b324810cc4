//! The span recorder of the traced run.  Spans are recorded only here, in
//! the benchmark's own files, around the calls into each layer (and, per
//! request, rebuilt from the engine's public `RequestTrace`).  They stay in
//! memory and are written out once, when the traced run ends.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;

use crate::stats::json_str;

/// One recorded interval on the benchmark's clock (nanoseconds since the
/// process-wide origin the caller chose).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    pub id: u64,
    /// The span that caused this one.
    pub parent: Option<u64>,
    /// The engine's `RequestId` shared by every span of one request.
    pub request: Option<u64>,
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// In-memory span store.
#[derive(Default)]
pub struct Recorder {
    spans: Vec<Span>,
}

impl Recorder {
    /// Records a finished span and returns its id (for use as a parent).
    pub fn record(
        &mut self,
        name: &str,
        start_ns: u64,
        end_ns: u64,
        parent: Option<u64>,
        request: Option<u64>,
    ) -> u64 {
        let id = self.spans.len() as u64;
        self.spans.push(Span {
            id,
            parent,
            request,
            name: name.to_string(),
            start_ns,
            end_ns: end_ns.max(start_ns),
        });
        id
    }

    /// Moves the end of an already recorded span (a parent is recorded
    /// before its children so they can name it, and closed after them).
    pub fn close(&mut self, id: u64, end_ns: u64) {
        let span = &mut self.spans[id as usize];
        span.end_ns = end_ns.max(span.start_ns);
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Self time of every span: its duration minus the part of its
    /// interval that its children cover (overlapping children are counted
    /// once, and a child is clipped to its parent's interval).
    pub fn self_times(&self) -> Vec<u64> {
        let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
        for s in &self.spans {
            if let Some(p) = s.parent {
                let parent = &self.spans[p as usize];
                let lo = s.start_ns.max(parent.start_ns);
                let hi = s.end_ns.min(parent.end_ns);
                if hi > lo {
                    children.entry(p).or_default().push((lo, hi));
                }
            }
        }
        self.spans
            .iter()
            .map(|s| {
                let mut covered = 0;
                if let Some(intervals) = children.get_mut(&s.id) {
                    intervals.sort_unstable();
                    let mut reach = s.start_ns;
                    for &(lo, hi) in intervals.iter() {
                        let lo = lo.max(reach);
                        if hi > lo {
                            covered += hi - lo;
                            reach = hi;
                        }
                    }
                }
                (s.end_ns - s.start_ns) - covered
            })
            .collect()
    }

    /// Total self time and span count per span name — where the time of a
    /// traced run went, layer by layer.
    pub fn self_time_by_name(&self) -> BTreeMap<String, (u64, u64)> {
        let mut out: BTreeMap<String, (u64, u64)> = BTreeMap::new();
        for (s, own) in self.spans.iter().zip(self.self_times()) {
            let slot = out.entry(s.name.clone()).or_default();
            slot.0 += own;
            slot.1 += 1;
        }
        out
    }

    /// Writes one JSON object per span (with its self time) to `path`.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        let opt = |v: Option<u64>| v.map_or("null".to_string(), |v| v.to_string());
        for (s, own) in self.spans.iter().zip(self.self_times()) {
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"request\":{},\"name\":{},\"start_ns\":{},\"end_ns\":{},\"self_ns\":{}}}",
                s.id,
                opt(s.parent),
                opt(s.request),
                json_str(&s.name),
                s.start_ns,
                s.end_ns,
                own
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_counts_overlapping_children_once() {
        let mut r = Recorder::default();
        let root = r.record("request", 0, 100, None, Some(7));
        // Two children overlapping on [30, 40), one disjoint, one that
        // sticks out past the parent's end and is clipped.
        let a = r.record("queue", 10, 40, Some(root), Some(7));
        r.record("execute", 30, 60, Some(root), Some(7));
        r.record("hop", 70, 80, Some(root), Some(7));
        r.record("late", 95, 130, Some(root), Some(7));
        // A grandchild only reduces its own parent's self time.
        r.record("inner", 15, 20, Some(a), Some(7));
        let own = r.self_times();
        // Covered: [10,60) = 50, [70,80) = 10, [95,100) = 5.
        assert_eq!(own[root as usize], 100 - 65);
        assert_eq!(own[a as usize], 30 - 5);
        assert_eq!(own[2], 30);
        let by_name = r.self_time_by_name();
        assert_eq!(by_name["request"], (35, 1));
        assert_eq!(by_name["inner"], (5, 1));
    }

    #[test]
    fn a_child_covering_its_parent_leaves_no_self_time() {
        let mut r = Recorder::default();
        let root = r.record("ledger", 5, 25, None, None);
        r.record("call", 0, 30, Some(root), None);
        assert_eq!(r.self_times()[root as usize], 0);
    }
}
