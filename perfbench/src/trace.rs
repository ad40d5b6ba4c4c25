//! In-memory spans recorded around the engine's public calls. Spans are
//! kept in a vector while the run measures and written out when it ends.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One timed call: `parent` is the span that caused it, `txn` the
/// transaction id shared by all spans of one transaction (0 for calls
/// outside a transaction, such as `RuleSystem::open`).
pub struct Span {
    pub parent: Option<usize>,
    pub txn: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Nanoseconds since the tracer was created.
    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Start a span now; returns its id for [`Tracer::close`].
    pub fn open(&mut self, parent: Option<usize>, txn: u64, name: &'static str) -> usize {
        let now = self.now();
        self.spans.push(Span {
            parent,
            txn,
            name,
            start_ns: now,
            end_ns: now,
        });
        self.spans.len() - 1
    }

    /// End span `id` now.
    pub fn close(&mut self, id: usize) {
        self.spans[id].end_ns = self.now();
    }

    /// Per span name: (calls, total duration, self time) in nanoseconds.
    /// A span's self time is its duration minus its children's durations
    /// (children of one parent never overlap: the client is a single
    /// thread).
    pub fn self_times(&self) -> BTreeMap<&'static str, (u64, u64, u64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.duration_ns();
            }
        }
        let mut out: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
        for (s, children) in self.spans.iter().zip(child_ns) {
            let e = out.entry(s.name).or_default();
            e.0 += 1;
            e.1 += s.duration_ns();
            e.2 += s.duration_ns() - children;
        }
        out
    }

    /// Write every span as CSV: `id,parent,txn,name,start_ns,end_ns`.
    pub fn write_csv(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id,parent,txn,name,start_ns,end_ns")?;
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map(|p| p.to_string()).unwrap_or_default();
            writeln!(
                out,
                "{id},{parent},{},{},{},{}",
                s.txn, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}
