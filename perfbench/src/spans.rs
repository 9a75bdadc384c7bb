//! The benchmark's own span recorder: wall-clock intervals around the
//! calls it makes into each layer, with parent links.
//!
//! Recording is off unless [`enable`] was called, so a plain run pays one
//! thread-local flag read per call site. Spans are kept in memory and
//! written out once, at the end of a span run.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// One closed span.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

#[derive(Debug)]
struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

thread_local! {
    static REC: RefCell<Option<Recorder>> = const { RefCell::new(None) };
}

/// Starts recording spans on this thread, discarding any earlier ones.
pub fn enable() {
    REC.with(|r| {
        *r.borrow_mut() = Some(Recorder {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        })
    });
}

/// Stops recording and returns every span recorded since [`enable`].
pub fn take() -> Vec<Span> {
    REC.with(|r| {
        r.borrow_mut()
            .take()
            .map(|rec| rec.spans)
            .unwrap_or_default()
    })
}

/// Runs `f` inside a span named `name`, a child of the innermost span
/// open on this thread. Without recording, just runs `f`.
pub fn span<T>(name: &'static str, f: impl FnOnce() -> T) -> T {
    let id = REC.with(|r| {
        let mut r = r.borrow_mut();
        let rec = r.as_mut()?;
        let id = rec.spans.len();
        let start_ns = rec.origin.elapsed().as_nanos() as u64;
        rec.spans.push(Span {
            name,
            parent: rec.open.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        rec.open.push(id);
        Some(id)
    });
    let out = f();
    if let Some(id) = id {
        REC.with(|r| {
            let mut r = r.borrow_mut();
            let rec = r.as_mut().expect("recorder outlives its open spans");
            rec.spans[id].end_ns = rec.origin.elapsed().as_nanos() as u64;
            rec.open.pop();
        });
    }
    out
}

/// Totals of every span with one name.
#[derive(Debug, Clone, Copy, Default)]
pub struct SpanTotals {
    pub count: u64,
    pub total_ns: u64,
    /// Duration minus the time covered by direct child spans.
    pub self_ns: u64,
}

/// Per-name totals and self times.
pub fn totals(spans: &[Span]) -> BTreeMap<&'static str, SpanTotals> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.duration_ns();
        }
    }
    let mut out: BTreeMap<&'static str, SpanTotals> = BTreeMap::new();
    for (s, child) in spans.iter().zip(&child_ns) {
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total_ns += s.duration_ns();
        t.self_ns += s.duration_ns().saturating_sub(*child);
    }
    out
}

/// Writes every span as one JSON object per line: id, name, parent id,
/// start and end in ns since recording began.
pub fn write_jsonl(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (id, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
        writeln!(
            f,
            "{{\"id\":{id},\"name\":\"{}\",\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
            s.name, s.start_ns, s.end_ns
        )?;
    }
    f.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let spans = vec![
            Span {
                name: "a",
                parent: None,
                start_ns: 0,
                end_ns: 100,
            },
            Span {
                name: "b",
                parent: Some(0),
                start_ns: 10,
                end_ns: 40,
            },
            Span {
                name: "b",
                parent: Some(0),
                start_ns: 50,
                end_ns: 60,
            },
        ];
        let t = totals(&spans);
        assert_eq!(t["a"].total_ns, 100);
        assert_eq!(t["a"].self_ns, 60);
        assert_eq!(t["b"].count, 2);
        assert_eq!(t["b"].self_ns, 40);
    }

    #[test]
    fn nesting_links_parents() {
        enable();
        span("outer", || span("inner", || ()));
        let spans = take();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[0].end_ns >= spans[1].end_ns);
        // Off after take: nothing recorded.
        span("x", || ());
        assert!(take().is_empty());
    }
}
