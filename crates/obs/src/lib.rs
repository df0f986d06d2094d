//! `diskobs` — deterministic event tracing, metrics, and profiling for
//! the thermodisk stack.
//!
//! The paper's DTM argument is about *decisions over time* — when the
//! controller detects thermal slack, when throttling engages, how
//! temperature and queue depth co-evolve — yet aggregate reports flatten
//! that timeline away. This crate is the observability layer the rest of
//! the workspace threads through its hot paths:
//!
//! - [`Event`] / [`TimedEvent`]: a typed event vocabulary (request
//!   issue/complete, RPM transitions, throttle engage/disengage,
//!   coordinator actions, routing decisions, sensor readings, periodic
//!   snapshots) stamped with **simulated time**, never wall time, so a
//!   trace is byte-identical at any thread or shard count.
//! - [`Sink`]: the per-component emission point. The default
//!   [`Sink::null`] costs one discriminant branch per event site and
//!   never constructs the event (construction is deferred behind a
//!   closure), so instrumented hot paths stay within noise of
//!   uninstrumented ones — `BENCH_obs.json` pins that claim.
//! - [`Recorder`] implementations for real use: [`NullRecorder`],
//!   a bounded [`RingRecorder`], and a streaming [`NdjsonRecorder`].
//!   NDJSON has one renderer, [`TimedEvent::write_ndjson`], which
//!   appends each event's bytes straight into the recorder's reused
//!   line buffer — no JSON value tree, no per-field allocation. It
//!   follows the vendored `serde_json` writer's rules byte for byte
//!   (key order, integers, the `format_f64` float rule, string
//!   escaping); `Event` and `TimedEvent` derive `Serialize` only under
//!   `cfg(test)`, where that serializer is the renderer's oracle.
//!   (`BENCH_obs.json`'s `recording_overhead_pct` times a
//!   [`Sink::buffer`] run — buffering and the fleet's merge, never
//!   serialization — so the renderer does not move it; perfbench's
//!   `trace` workload measures the recorder end to end.)
//! - [`metrics`]: a registry of counters, gauges, and log-bucketed
//!   histograms (generalizing `ResponseStats`' fixed CDF buckets), plus
//!   a [`metrics::Timeseries`] for periodic snapshot probes, exportable
//!   to CSV/JSON.
//! - [`profile`]: wall-clock span timing for the experiment engine, so
//!   `results/manifest.json` can record per-stage times.
//! - [`logger`]: the leveled (quiet/normal/verbose) progress logger the
//!   `lab` CLI routes its former bare `eprintln!` output through;
//!   [`Sink::log`] mirrors a line into the trace as an [`Event::Log`].

pub mod event;
pub mod logger;
pub mod metrics;
pub mod profile;
pub mod record;

pub use event::{is_time_sorted, Event, TimedEvent};
pub use logger::Level;
pub use metrics::{LogHistogram, Registry, Timeseries};
pub use profile::{Span, SpanSet};
pub use record::{AtomicFile, NdjsonRecorder, NullRecorder, Recorder, RingRecorder, Sink};
