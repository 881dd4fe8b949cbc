//! In-memory spans recorded around calls into the program's public API.
//!
//! Spans live in a `Vec` until the run ends and are then written out as
//! JSON lines. A span's self time is its duration minus the part of it
//! that its child spans cover.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

#[derive(Clone, Debug)]
pub struct Span {
    pub id: usize,
    pub parent: Option<usize>,
    /// Spans of one request share this id.
    pub request: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
}

impl Spans {
    pub fn new() -> Spans {
        Spans {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`Spans::close`].
    pub fn open(&mut self, name: &'static str, request: u64, parent: Option<usize>) -> usize {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            id,
            parent,
            request,
            name,
            start_ns,
            end_ns: start_ns,
        });
        id
    }

    /// Closes span `id` and returns its duration in nanoseconds.
    pub fn close(&mut self, id: usize) -> u64 {
        let end = self.now_ns();
        let span = &mut self.spans[id];
        span.end_ns = end;
        span.dur_ns()
    }

    /// Times `f` as one span; returns its result and the span's duration.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        request: u64,
        parent: Option<usize>,
        f: impl FnOnce() -> R,
    ) -> (R, u64) {
        let id = self.open(name, request, parent);
        let r = f();
        let ns = self.close(id);
        (r, ns)
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// `(name, calls, total self time ns)` per span name.
    pub fn self_times(&self) -> Vec<(&'static str, u64, u64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.dur_ns();
            }
        }
        let mut by_name: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
        for s in &self.spans {
            let e = by_name.entry(s.name).or_default();
            e.0 += 1;
            e.1 += s.dur_ns().saturating_sub(child_ns[s.id]);
        }
        by_name.into_iter().map(|(n, (c, t))| (n, c, t)).collect()
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"request\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id, parent, s.request, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}
