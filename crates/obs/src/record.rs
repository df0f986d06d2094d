//! Recorders and the [`Sink`] every instrumented component owns.
//!
//! The hot-path contract: an emission site calls
//! [`Sink::emit`] with a closure that *builds* the event. A null sink
//! returns after one discriminant branch without running the closure,
//! so disabled instrumentation costs neither allocation nor field
//! marshalling — `BENCH_obs.json` pins the resulting overhead under 2%.
//!
//! Components that run inside the fleet's parallel phase use
//! [`Sink::buffer`]: events accumulate locally (tagged with the
//! component's [`Sink::scope`] drive index) and the fleet drains them in
//! enclosure order at the serial epoch boundary, which is what keeps a
//! trace byte-identical at any shard count.

use crate::event::{Event, TimedEvent};
use std::collections::VecDeque;
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::{Path, PathBuf};
use units::Seconds;

/// A crash-safe file writer: bytes land in a `.tmp` sibling, and
/// [`AtomicFile::commit`] fsyncs them and renames the file into place.
/// A reader therefore sees either the previous complete file or the new
/// complete file, never a torn write — the contract checkpoint and
/// trace artifacts need. Dropping without committing discards the
/// temporary.
pub struct AtomicFile {
    out: Option<BufWriter<File>>,
    tmp: PathBuf,
    path: PathBuf,
}

impl AtomicFile {
    /// Starts writing `path` through its `.tmp` sibling (truncating any
    /// stale temporary from a previous crash).
    ///
    /// # Errors
    ///
    /// Propagates file-creation failures.
    pub fn create(path: impl AsRef<Path>) -> io::Result<Self> {
        let path = path.as_ref().to_path_buf();
        let mut tmp = path.clone().into_os_string();
        tmp.push(".tmp");
        let tmp = PathBuf::from(tmp);
        let out = BufWriter::new(File::create(&tmp)?);
        Ok(Self {
            out: Some(out),
            tmp,
            path,
        })
    }

    /// The final path the file will land at.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Flushes, fsyncs, and renames the temporary into place. Also
    /// best-effort fsyncs the parent directory so the rename itself is
    /// durable.
    ///
    /// # Errors
    ///
    /// Propagates flush, sync, and rename failures; on error the
    /// temporary is removed and the destination is untouched.
    pub fn commit(mut self) -> io::Result<()> {
        let out = self.out.take().expect("commit consumes the writer");
        let result = (|| {
            let file = out.into_inner().map_err(|e| e.into_error())?;
            file.sync_all()?;
            drop(file);
            std::fs::rename(&self.tmp, &self.path)
        })();
        match result {
            Ok(()) => {
                if let Some(dir) = self.path.parent() {
                    if let Ok(d) = File::open(dir) {
                        // Directory fsync is not supported everywhere;
                        // the rename is already atomic without it.
                        let _ = d.sync_all();
                    }
                }
                Ok(())
            }
            Err(e) => {
                let _ = std::fs::remove_file(&self.tmp);
                Err(e)
            }
        }
    }
}

impl Write for AtomicFile {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.out.as_mut().expect("writer present until commit").write(buf)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.out.as_mut().expect("writer present until commit").flush()
    }
}

impl Drop for AtomicFile {
    fn drop(&mut self) {
        if self.out.take().is_some() {
            let _ = std::fs::remove_file(&self.tmp);
        }
    }
}

/// Consumes a stream of timed events at the collection boundary.
pub trait Recorder {
    /// Accepts one event.
    fn record(&mut self, event: &TimedEvent);

    /// Flushes any buffered output (no-op by default).
    fn flush(&mut self) {}
}

/// The do-nothing recorder: the default everywhere instrumentation is
/// threaded but nobody asked for a trace.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullRecorder;

impl Recorder for NullRecorder {
    fn record(&mut self, _event: &TimedEvent) {}
}

/// Keeps the most recent `capacity` events — the flight-recorder shape
/// for always-on tracing with bounded memory.
#[derive(Debug)]
pub struct RingRecorder {
    capacity: usize,
    events: VecDeque<TimedEvent>,
}

impl RingRecorder {
    /// A ring holding at most `capacity` events.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "ring recorder needs room for at least one event");
        Self {
            capacity,
            events: VecDeque::with_capacity(capacity),
        }
    }

    /// The retained events, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &TimedEvent> {
        self.events.iter()
    }

    /// Number of retained events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether nothing has been retained.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

impl Recorder for RingRecorder {
    fn record(&mut self, event: &TimedEvent) {
        if self.events.len() == self.capacity {
            self.events.pop_front();
        }
        self.events.push_back(event.clone());
    }
}

/// Streams events as newline-delimited JSON, one compact object per
/// line — the `lab trace` file format. Each event renders straight into
/// one reused line buffer ([`TimedEvent::write_ndjson`]) and reaches the
/// writer as a single `write_all`.
pub struct NdjsonRecorder<W: Write> {
    out: W,
    line: String,
    lines: u64,
    error: Option<io::Error>,
}

impl NdjsonRecorder<BufWriter<File>> {
    /// Creates (truncating) an NDJSON trace file.
    ///
    /// # Errors
    ///
    /// Propagates file-creation failures.
    pub fn create(path: impl AsRef<Path>) -> io::Result<Self> {
        Ok(Self::new(BufWriter::new(File::create(path)?)))
    }
}

impl NdjsonRecorder<AtomicFile> {
    /// Creates an NDJSON trace file written crash-safely: lines land in
    /// a `.tmp` sibling and [`NdjsonRecorder::commit`] fsyncs and
    /// renames the finished trace into place.
    ///
    /// # Errors
    ///
    /// Propagates file-creation failures.
    pub fn create_atomic(path: impl AsRef<Path>) -> io::Result<Self> {
        Ok(Self::new(AtomicFile::create(path)?))
    }

    /// Finishes the trace: surfaces any recording error, then fsyncs
    /// and atomically renames the file into place. Returns the number
    /// of lines written.
    ///
    /// # Errors
    ///
    /// Propagates the first recording error or the commit failure.
    pub fn commit(self) -> io::Result<u64> {
        if let Some(e) = self.error {
            return Err(e);
        }
        let lines = self.lines;
        self.out.commit()?;
        Ok(lines)
    }
}

impl<W: Write> NdjsonRecorder<W> {
    /// Wraps any writer.
    pub fn new(out: W) -> Self {
        Self {
            out,
            line: String::new(),
            lines: 0,
            error: None,
        }
    }

    /// Lines written so far.
    pub fn lines(&self) -> u64 {
        self.lines
    }

    /// The first I/O error encountered, if any (recording itself is
    /// infallible; the error surfaces here and at `flush`).
    pub fn error(&self) -> Option<&io::Error> {
        self.error.as_ref()
    }

    /// Unwraps the inner writer (flushing is the caller's business).
    pub fn into_inner(self) -> W {
        self.out
    }
}

impl<W: Write> Recorder for NdjsonRecorder<W> {
    fn record(&mut self, event: &TimedEvent) {
        if self.error.is_some() {
            return;
        }
        self.line.clear();
        event.write_ndjson(&mut self.line);
        self.line.push('\n');
        if let Err(e) = self.out.write_all(self.line.as_bytes()) {
            self.error = Some(e);
            return;
        }
        self.lines += 1;
    }

    fn flush(&mut self) {
        if let Err(e) = self.out.flush() {
            self.error.get_or_insert(e);
        }
    }
}

/// What a [`Sink`] does with emitted events.
enum SinkKind {
    /// Drop everything; the closure is never run.
    Null,
    /// Accumulate locally for a deterministic drain (fleet shards).
    Buffer(Vec<TimedEvent>),
    /// Stream into a recorder.
    Recorder(Box<dyn Recorder + Send>),
}

/// The per-component emission point instrumented code owns.
///
/// `scope` identifies the drive within a multi-drive trace: the fleet
/// gives each enclosure's sink its bay index, and emission sites use
/// [`Sink::scope`] wherever an event carries a `drive` field.
pub struct Sink {
    scope: usize,
    kind: SinkKind,
}

impl std::fmt::Debug for Sink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let kind = match &self.kind {
            SinkKind::Null => "null".to_string(),
            SinkKind::Buffer(events) => format!("buffer[{}]", events.len()),
            SinkKind::Recorder(_) => "recorder".to_string(),
        };
        write!(f, "Sink({kind}, scope {})", self.scope)
    }
}

impl Default for Sink {
    fn default() -> Self {
        Sink::null()
    }
}

impl Sink {
    /// The no-op sink: one branch per emission site, nothing built.
    pub fn null() -> Self {
        Sink {
            scope: 0,
            kind: SinkKind::Null,
        }
    }

    /// A sink that accumulates events for a later ordered drain.
    pub fn buffer() -> Self {
        Sink {
            scope: 0,
            kind: SinkKind::Buffer(Vec::new()),
        }
    }

    /// A sink streaming into a recorder.
    pub fn recorder(recorder: impl Recorder + Send + 'static) -> Self {
        Sink {
            scope: 0,
            kind: SinkKind::Recorder(Box::new(recorder)),
        }
    }

    /// Tags the sink with a drive index for multi-drive traces.
    pub fn with_scope(mut self, scope: usize) -> Self {
        self.scope = scope;
        self
    }

    /// The drive index events from this sink should carry.
    pub fn scope(&self) -> usize {
        self.scope
    }

    /// Whether emissions go anywhere. Callers with pre-emission work of
    /// their own (snapshot assembly, buffer drains) gate on this.
    pub fn is_enabled(&self) -> bool {
        !matches!(self.kind, SinkKind::Null)
    }

    /// Emits one event at simulated time `t`. The closure runs only
    /// when the sink is enabled, so a null sink never pays for event
    /// construction.
    #[inline]
    pub fn emit(&mut self, t: Seconds, build: impl FnOnce() -> Event) {
        match &mut self.kind {
            SinkKind::Null => {}
            SinkKind::Buffer(events) => events.push(TimedEvent {
                t: t.get(),
                event: build(),
            }),
            SinkKind::Recorder(r) => r.record(&TimedEvent {
                t: t.get(),
                event: build(),
            }),
        }
    }

    /// Emits a progress line: printed through the global [`crate::logger`]
    /// *and* captured in the trace as an [`Event::Log`], so a trace
    /// records the narration the user saw.
    pub fn log(&mut self, t: Seconds, level: crate::logger::Level, message: &str) {
        crate::logger::line(level, message);
        let level = match level {
            crate::logger::Level::Verbose => "verbose",
            _ => "info",
        };
        self.emit(t, || Event::Log {
            level,
            message: message.to_string(),
        });
    }

    /// Takes the buffered events (buffer sinks; empty otherwise).
    pub fn drain(&mut self) -> Vec<TimedEvent> {
        match &mut self.kind {
            SinkKind::Buffer(events) => std::mem::take(events),
            _ => Vec::new(),
        }
    }

    /// Like [`Sink::drain`], but appends into `out`, keeping this
    /// sink's buffer capacity — merge loops that drain many sinks per
    /// epoch reuse one batch buffer and allocate nothing in steady
    /// state.
    pub fn drain_into(&mut self, out: &mut Vec<TimedEvent>) {
        if let SinkKind::Buffer(events) = &mut self.kind {
            out.append(events);
        }
    }

    /// Feeds already-timed events through (used when merging per-shard
    /// buffers into one stream).
    pub fn extend(&mut self, events: impl IntoIterator<Item = TimedEvent>) {
        match &mut self.kind {
            SinkKind::Null => {}
            SinkKind::Buffer(buffer) => buffer.extend(events),
            SinkKind::Recorder(r) => {
                for e in events {
                    r.record(&e);
                }
            }
        }
    }

    /// Flushes an underlying recorder, if any.
    pub fn flush(&mut self) {
        if let SinkKind::Recorder(r) = &mut self.kind {
            r.flush();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn issue(id: u64) -> Event {
        Event::RequestIssue {
            id,
            device: 0,
            lba: 0,
            sectors: 8,
            kind: "read",
        }
    }

    #[test]
    fn null_sink_never_builds_the_event() {
        let mut sink = Sink::null();
        assert!(!sink.is_enabled());
        sink.emit(Seconds::new(1.0), || panic!("null sink ran the builder"));
        assert!(sink.drain().is_empty());
    }

    #[test]
    fn buffer_sink_accumulates_and_drains_in_order() {
        let mut sink = Sink::buffer().with_scope(3);
        assert!(sink.is_enabled());
        assert_eq!(sink.scope(), 3);
        for i in 0..4 {
            sink.emit(Seconds::new(i as f64), || issue(i));
        }
        let events = sink.drain();
        assert_eq!(events.len(), 4);
        assert!(events.windows(2).all(|w| w[0].t <= w[1].t));
        assert!(sink.drain().is_empty(), "drain must take the buffer");
    }

    #[test]
    fn ring_recorder_keeps_only_the_tail() {
        let mut ring = RingRecorder::new(3);
        let mut sink = Sink::buffer();
        for i in 0..10 {
            sink.emit(Seconds::new(i as f64), || issue(i));
        }
        for e in sink.drain() {
            ring.record(&e);
        }
        assert_eq!(ring.len(), 3);
        let ts: Vec<f64> = ring.events().map(|e| e.t).collect();
        assert_eq!(ts, [7.0, 8.0, 9.0]);
    }

    #[test]
    fn ndjson_recorder_writes_one_line_per_event() {
        let mut rec = NdjsonRecorder::new(Vec::new());
        for i in 0..3 {
            rec.record(&TimedEvent {
                t: i as f64,
                event: issue(i),
            });
        }
        rec.flush();
        assert_eq!(rec.lines(), 3);
        assert!(rec.error().is_none());
        let text = String::from_utf8(rec.into_inner()).unwrap();
        assert_eq!(text.lines().count(), 3);
        assert!(text.ends_with('\n'));
    }

    /// Takes `budget` bytes, then fails every write; counts the calls.
    struct FailingWriter {
        written: Vec<u8>,
        budget: usize,
        calls: usize,
    }

    impl Write for FailingWriter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.calls += 1;
            let room = self.budget - self.written.len();
            if room == 0 {
                return Err(io::Error::other("device full"));
            }
            let n = room.min(buf.len());
            self.written.extend_from_slice(&buf[..n]);
            Ok(n)
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn ndjson_recorder_keeps_the_first_error_and_stops_writing() {
        let event = |i: u64| TimedEvent {
            t: i as f64,
            event: issue(i),
        };
        let first = event(0).to_ndjson_line().len() + 1;
        // The second line breaks off ten bytes in.
        let mut rec = NdjsonRecorder::new(FailingWriter {
            written: Vec::new(),
            budget: first + 10,
            calls: 0,
        });
        rec.record(&event(0));
        assert!(rec.error().is_none());
        rec.record(&event(1));
        assert_eq!(rec.lines(), 1, "the torn line must not count");
        assert_eq!(rec.error().map(ToString::to_string).as_deref(), Some("device full"));
        let calls = rec.out.calls;
        rec.record(&event(2));
        rec.record(&event(3));
        assert_eq!(rec.out.calls, calls, "nothing is written after the first error");
        assert_eq!(rec.lines(), 1);
        let out = rec.into_inner();
        assert_eq!(out.written.len(), first + 10);
        assert_eq!(&out.written[..first], format!("{}\n", event(0).to_ndjson_line()).as_bytes());
    }

    #[test]
    fn a_failed_atomic_trace_commits_nothing() {
        let dir = std::env::temp_dir().join(format!("diskobs-atomic-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("trace.ndjson");
        let mut rec = NdjsonRecorder::create_atomic(&path).unwrap();
        rec.record(&TimedEvent {
            t: 0.0,
            event: issue(0),
        });
        assert_eq!(rec.lines(), 1);
        // A write failure mid-trace, as the recorder keeps it.
        rec.error = Some(io::Error::other("device full"));
        let err = rec.commit().unwrap_err();
        assert_eq!(err.to_string(), "device full");
        assert!(!path.exists(), "a failed trace must not land");
        assert!(!dir.join("trace.ndjson.tmp").exists(), "the temporary is removed");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn recorder_sink_streams() {
        let mut sink = Sink::recorder(RingRecorder::new(8));
        sink.emit(Seconds::new(0.5), || issue(1));
        assert!(sink.is_enabled());
        // Streamed events are not drainable — they belong to the recorder.
        assert!(sink.drain().is_empty());
    }
}
