//! In-memory span recording for the traced run.
//!
//! A span is one timed call into a layer: its name, start and end (ns
//! since the tracer was created) and the span that was open when it
//! began. With tracing off every method is a plain call, so the
//! end-to-end runs pay nothing for the instrumentation.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded call.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u32>,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records spans when enabled; otherwise a pass-through.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span; pair with [`Self::end`]. Returns `None` when off.
    pub fn begin(&mut self, name: &'static str) -> Option<u32> {
        if !self.enabled {
            return None;
        }
        let id = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        Some(id)
    }

    /// Closes the span `begin` returned.
    pub fn end(&mut self, id: Option<u32>) {
        if let Some(id) = id {
            let end_ns = self.now_ns();
            self.spans[id as usize].end_ns = end_ns;
            let popped = self.open.pop();
            debug_assert_eq!(popped, Some(id), "spans close in LIFO order");
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.begin(name);
        let out = f();
        self.end(id);
        out
    }

    /// Records a span timed elsewhere (another thread), as a root.
    pub fn push(&mut self, name: &'static str, start: Instant, end: Instant) {
        if self.enabled {
            let ns = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as u64;
            let span = Span {
                name,
                start_ns: ns(start),
                end_ns: ns(end),
                parent: None,
            };
            self.spans.push(span);
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total duration and count of the spans called `name`.
    pub fn total(&self, name: &str) -> (u64, u64) {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .fold((0, 0), |(ns, n), s| (ns + s.dur_ns(), n + 1))
    }

    /// Every span duration called `name`, in ms.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64 / 1e6)
            .collect()
    }

    /// Sum of the durations of the direct children of every span called
    /// `parent`, and the sum of those parents' own durations. Their
    /// difference is the parent's self time: the part of the loop no
    /// timed layer call accounts for.
    pub fn child_coverage(&self, parent: &str) -> (u64, u64) {
        let mut parents_ns = 0;
        let mut children_ns = 0;
        for s in &self.spans {
            if s.name == parent {
                parents_ns += s.dur_ns();
            } else if let Some(p) = s.parent {
                if self.spans[p as usize].name == parent {
                    children_ns += s.dur_ns();
                }
            }
        }
        (children_ns, parents_ns)
    }

    /// Writes every span as one JSON object per line.
    pub fn write_ndjson(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent}}}",
                s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}
