//! The three fleet-stepping workloads: `rebuild`, `hall` and `trace`.
//!
//! Each run repeats fixed-size *episodes* — set up a fresh fleet, then
//! step it epoch by epoch through the public API — until its time is
//! spent. Episodes are deterministic, so every episode of a run must
//! reproduce the first one's simulated statistics exactly; a reference
//! episode at the committed experiment's seed is compared with the
//! committed artifact (or with the digest in `reference.json` when the
//! run is resized).

use crate::probes::Bay;
use crate::report::{clock_ghz, cpu_s, fnv1a, median, Outcome, FNV_OFFSET};
use crate::spans::Tracer;
use crate::Size;
use diskfleet::{
    AirflowGraph, EnclosureArray, Fleet, FleetConfig, FleetDtmPolicy, FleetPhaseProfile,
    RebuildSpec, RoutingPolicy,
};
use diskobs::{NdjsonRecorder, Recorder, Sink, TimedEvent};
use diskscenario::{ArrivalSource, EpochSample, Injection, Scenario, ScenarioEngine};
use disksim::{DiskSpec, Request, StorageSystem, SystemConfig};
use diskthermal::{DriveThermalSpec, THERMAL_ENVELOPE};
use std::sync::{Arc, Mutex};
use std::time::Instant;
use units::{Inches, Rpm, TempDelta};
use workloads::{oltp, search_engine, TraceGenerator, WorkloadPreset};

/// Which fleet workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Rebuild,
    Hall,
    Trace,
}

impl Kind {
    pub fn name(self) -> &'static str {
        match self {
            Kind::Rebuild => "rebuild",
            Kind::Hall => "hall",
            Kind::Trace => "trace",
        }
    }
}

/// The size of one episode.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    pub kind: Kind,
    pub enclosures: usize,
    /// Epochs per episode (`rebuild`, `trace`); `hall` runs to drain.
    pub epochs: u64,
    /// Fleet-wide offered load, requests/s.
    pub rate: f64,
    /// Requests in the up-front trace (`hall`).
    pub requests: usize,
}

// --- rebuild: the full-scale `scenario_rebuild` storm -----------------

const REBUILD_ARRAY_DISKS: u32 = 4;
const REBUILD_STRIPE: u32 = 65_536;
const REBUILD_CHUNK: u32 = 16_384;
const REBUILD_RATE: f64 = 300_000.0;
const REBUILD_FAIL_EPOCH: u64 = 6;
const REBUILD_STREAM_W_PER_K: f64 = 26.0;
/// The committed experiment's arrival seed.
pub const REBUILD_REFERENCE_SEED: u64 = 53;

// --- hall: the full-scale `fleet_hall` speed-scaled run ---------------

const HALL_PER_RACK: usize = 20;
const HALL_RACKS_PER_ROW: usize = 25;
const HALL_K_DRIVE: f64 = 4.0e-3;
const HALL_K_RACK: f64 = 1.2e-4;
const HALL_K_ROW: f64 = 7.0e-5;
const HALL_HIGH_RPM: f64 = 15_020.0;
const HALL_LOW_RPM: f64 = 12_000.0;
/// The committed experiment's trace seed.
pub const HALL_REFERENCE_SEED: u64 = 31;

// --- trace: `lab trace scenario_rebuild`, recorded --------------------

const TRACE_STREAM_W_PER_K: f64 = 10.0;
const TRACE_FAIL_EPOCH: u64 = 2;
const TRACE_REBUILD_RATE: f64 = 4_000_000.0;

impl Shape {
    /// The measured episode of `kind` at `size`.
    pub fn of(kind: Kind, size: Size) -> Self {
        let small = size == Size::Small;
        match kind {
            Kind::Rebuild => Shape {
                kind,
                enclosures: if small { 6 } else { 16 },
                epochs: if small { 30 } else { 200 },
                rate: if small { 300.0 } else { 800.0 },
                requests: 0,
            },
            Kind::Hall => Shape {
                kind,
                enclosures: if small { 1_000 } else { 10_000 },
                epochs: 0,
                rate: if small { 600.0 } else { 2_000.0 },
                requests: if small { 2_400 } else { 40_000 },
            },
            Kind::Trace => Shape {
                kind,
                enclosures: 4,
                epochs: if small { 10 } else { 60 },
                rate: 200.0,
                requests: 0,
            },
        }
    }

    /// The reference episode: the committed experiment's own shape at
    /// full size, and the measured shape when resized.
    pub fn reference(kind: Kind, size: Size) -> Self {
        let mut s = Self::of(kind, size);
        if kind == Kind::Rebuild && size == Size::Full {
            s.epochs = 800;
        }
        s
    }

    fn spec(&self) -> DiskSpec {
        DiskSpec::era(2002, 1, Rpm::new(HALL_HIGH_RPM))
    }

    fn thermal(&self) -> DriveThermalSpec {
        DriveThermalSpec::new(Inches::new(2.6), 1)
    }

    /// The workload preset the arrivals follow.
    fn preset(&self) -> WorkloadPreset {
        match self.kind {
            Kind::Rebuild => search_engine(),
            Kind::Hall | Kind::Trace => oltp(),
        }
    }

    /// Per-bay storage configuration (what one enclosure serves).
    fn bay_config(&self) -> SystemConfig {
        match self.kind {
            Kind::Hall => SystemConfig::single_disk(self.spec()),
            Kind::Rebuild | Kind::Trace => {
                SystemConfig::raid5(self.spec(), REBUILD_ARRAY_DISKS, REBUILD_STRIPE)
                    .expect("a 4-disk RAID-5 is valid")
            }
        }
    }

    /// One bay's share of this workload, for the layer probes: degraded
    /// RAID-5 on `rebuild` and `trace`, one OLTP disk on `hall`.
    pub fn probe_bay(&self) -> Bay {
        Bay {
            spec: self.spec(),
            thermal: self.thermal(),
            preset: self.preset(),
            system: self.bay_config(),
            degraded: self.kind != Kind::Hall,
            rate: self.rate / self.enclosures as f64,
        }
    }

    /// Logical sectors of one standalone drive: the address space the
    /// generated arrivals span (the fleet remaps them per bay).
    fn drive_capacity(&self) -> Result<u64, String> {
        StorageSystem::new(SystemConfig::single_disk(self.spec()))
            .map(|s| s.logical_sectors())
            .map_err(|e| e.to_string())
    }

    fn generator(&self) -> Result<TraceGenerator, String> {
        let preset = self.preset();
        TraceGenerator::new(
            preset.profile.clone(),
            preset.arrivals.with_mean_rate(self.rate),
            1,
            self.drive_capacity()?,
        )
    }

    fn fleet_config(&self, shards: usize) -> Result<FleetConfig, String> {
        let err = |e: diskfleet::FleetError| e.to_string();
        let mut config = match self.kind {
            Kind::Rebuild => {
                let mut c = FleetConfig::serial(
                    self.enclosures,
                    self.spec(),
                    self.thermal(),
                    REBUILD_STREAM_W_PER_K,
                )
                .map_err(err)?;
                c.routing = RoutingPolicy::RoundRobin;
                c
            }
            Kind::Hall => {
                let mut c = FleetConfig::serial(self.enclosures, self.spec(), self.thermal(), 1.0)
                    .map_err(err)?;
                c.airflow = AirflowGraph::hall(
                    self.enclosures,
                    HALL_PER_RACK,
                    HALL_RACKS_PER_ROW,
                    self.thermal().ambient(),
                    HALL_K_DRIVE,
                    HALL_K_RACK,
                    HALL_K_ROW,
                )
                .map_err(err)?;
                c.routing = RoutingPolicy::ThermalAware {
                    envelope: THERMAL_ENVELOPE,
                };
                c.dtm = FleetDtmPolicy::SpeedScale {
                    high: Rpm::new(HALL_HIGH_RPM),
                    low: Rpm::new(HALL_LOW_RPM),
                    guard: TempDelta::new(0.3),
                    resume_margin: TempDelta::new(0.3),
                };
                c
            }
            Kind::Trace => {
                let mut c = FleetConfig::serial(
                    self.enclosures,
                    self.spec(),
                    self.thermal(),
                    TRACE_STREAM_W_PER_K,
                )
                .map_err(err)?;
                c.routing = RoutingPolicy::ThermalAware {
                    envelope: THERMAL_ENVELOPE,
                };
                c
            }
        };
        if self.kind != Kind::Hall {
            config.array = Some(EnclosureArray {
                disks: REBUILD_ARRAY_DISKS,
                stripe_sectors: REBUILD_STRIPE,
            });
        }
        config.threads = shards;
        Ok(config)
    }

    fn scenario(&self) -> Scenario {
        let (at_epoch, enclosure, rate) = match self.kind {
            Kind::Rebuild => (REBUILD_FAIL_EPOCH, self.enclosures / 2, REBUILD_RATE),
            _ => (TRACE_FAIL_EPOCH, 1, TRACE_REBUILD_RATE),
        };
        Scenario::new().with(Injection::DriveFailure {
            at_epoch,
            enclosure,
            disk: 1,
            rebuild: RebuildSpec {
                rate_sectors_per_sec: rate,
                chunk_sectors: REBUILD_CHUNK,
            },
        })
    }
}

/// Where an episode's arrivals come from. One lives per episode, so the
/// variants' size difference costs nothing.
#[allow(clippy::large_enum_variant)]
enum Feed {
    /// Drawn epoch by epoch under a scenario (`rebuild`, `trace`).
    Stream {
        source: ArrivalSource,
        engine: ScenarioEngine,
        lookahead: Option<Request>,
        batch: Vec<Request>,
    },
    /// Generated up front and offered at once (`hall`).
    Upfront(Vec<Request>),
}

/// A set-up fleet, ready to step.
pub struct Episode {
    shape: Shape,
    fleet: Fleet,
    feed: Feed,
}

/// Sets up one episode. Every call into a layer is a span.
pub fn setup(
    shape: Shape,
    seed: u64,
    shards: usize,
    tracer: &mut Tracer,
) -> Result<Episode, String> {
    let id = tracer.begin("setup");
    let feed = match shape.kind {
        Kind::Hall => {
            let generator = shape.generator()?;
            let trace = tracer.time("workloads.generate", || {
                generator.generate(shape.requests, seed)
            });
            Feed::Upfront(trace)
        }
        Kind::Rebuild | Kind::Trace => Feed::Stream {
            source: ArrivalSource::Synthetic(shape.generator()?.stream(seed)),
            engine: ScenarioEngine::new(shape.scenario()),
            lookahead: None,
            batch: Vec::new(),
        },
    };
    let config = tracer.time("fleet.config", || shape.fleet_config(shards))?;
    let fleet = tracer
        .time("fleet.new", || Fleet::new(config))
        .map_err(|e| e.to_string())?;
    tracer.end(id);
    Ok(Episode { shape, fleet, feed })
}

/// Host-time measurements accumulated over a run's episodes. Loop times
/// are process CPU time ([`cpu_s`]), every shard's thread included, so
/// time spent waiting for a CPU (another process, or the hypervisor
/// running another tenant) does not count.
#[derive(Default)]
pub struct LoopTimes {
    /// CPU time of each epoch (scenario, draw, offer, step), ms.
    pub epoch_ms: Vec<f64>,
    /// CPU time of each per-epoch status read, ms.
    pub read_ms: Vec<f64>,
    /// Simulated enclosure-seconds stepped.
    pub enclosure_s: f64,
    /// Arrivals drawn from the workload stream.
    pub draws: u64,
    /// Requests offered to the fleet.
    pub offered: u64,
    /// Requests offered but not completed when each episode ended.
    pub backlog_end: u64,
    /// Scenario injections that fired.
    pub injections: u64,
    pub profile: FleetPhaseProfile,
}

impl LoopTimes {
    /// CPU seconds of the epoch loop, status reads included, as
    /// `run_scenario` pays them.
    pub fn loop_s(&self) -> f64 {
        (self.epoch_ms.iter().sum::<f64>() + self.read_ms.iter().sum::<f64>()) / 1e3
    }
}

/// What an episode simulated: the statistics the committed artifacts
/// record, plus a digest of every per-epoch sample.
#[derive(Debug, Clone, PartialEq)]
pub struct SimSummary {
    pub completed: u64,
    pub mean_ms: f64,
    pub p95_ms: f64,
    pub peak_air_c: f64,
    pub peak_local_ambient_c: f64,
    pub time_over_envelope_s: f64,
    pub epochs: u64,
    pub rebuilt_fraction: f64,
    pub repaired_at_epoch: Option<u64>,
    pub samples_digest: u64,
}

impl SimSummary {
    /// Canonical text (exact float bits) for digests and messages.
    pub fn canonical(&self) -> String {
        format!(
            "completed={} mean_ms={:?} p95_ms={:?} peak_air_c={:?} peak_local_ambient_c={:?} \
             over_s={:?} epochs={} rebuilt={:?} repaired_at={:?} samples={:016x}",
            self.completed,
            self.mean_ms,
            self.p95_ms,
            self.peak_air_c,
            self.peak_local_ambient_c,
            self.time_over_envelope_s,
            self.epochs,
            self.rebuilt_fraction,
            self.repaired_at_epoch,
            self.samples_digest
        )
    }

    pub fn digest(&self) -> String {
        format!("{:016x}", fnv1a(self.canonical().as_bytes(), FNV_OFFSET))
    }
}

/// The per-epoch status read — the figures `run_scenario` samples and
/// the twin's `status` serves: peak temperatures, DTM engagement,
/// completions and rebuild progress.
fn read_status(fleet: &Fleet, traffic_factor: f64, last_total: &mut u64) -> EpochSample {
    let (mut done, mut total) = (0, 0);
    for rb in fleet.rebuilds() {
        done += rb.done();
        total += rb.total();
    }
    if total == 0 && *last_total > 0 {
        done = *last_total;
        total = *last_total;
    }
    *last_total = total;
    EpochSample {
        epoch: fleet.epochs(),
        time_s: fleet.now().get(),
        peak_air_c: fleet.peak_air().get(),
        peak_ambient_c: fleet.peak_local_ambient().get(),
        engaged: fleet.engaged_count(),
        completed: fleet.stats().count(),
        rebuild_done: done,
        rebuild_total: total,
        traffic_factor,
    }
}

/// Steps an episode to its end, feeding `times` and the tracer.
pub fn run(
    ep: Episode,
    sink: &mut Sink,
    tracer: &mut Tracer,
    times: &mut LoopTimes,
) -> Result<SimSummary, String> {
    let Episode {
        shape,
        mut fleet,
        mut feed,
    } = ep;
    if sink.is_enabled() {
        fleet.enable_drive_sinks();
    }
    let episode = tracer.begin("episode");
    let per_epoch_enclosure_s = fleet.len() as f64 * fleet.epoch_len().get();
    let offered_at_start = times.offered;
    let mut digest = FNV_OFFSET;
    let mut last_total = 0;
    let mut samples: Vec<EpochSample> = Vec::new();
    loop {
        if shape.kind != Kind::Hall && fleet.epochs() >= shape.epochs {
            break;
        }
        let t0 = cpu_s();
        let epoch = tracer.begin("epoch");
        let traffic = match &mut feed {
            Feed::Stream {
                source,
                engine,
                lookahead,
                batch,
            } => {
                let rebuilding = fleet.rebuilds().len();
                tracer
                    .time("scenario.apply_epoch", || {
                        engine.apply_epoch(&mut fleet, source)
                    })
                    .map_err(|e| e.to_string())?;
                times.injections += fleet.rebuilds().len().saturating_sub(rebuilding) as u64;
                let epoch_end = fleet.now() + fleet.epoch_len();
                let drawn = tracer.time("workloads.draw", || {
                    let mut drawn = 0;
                    loop {
                        let r = match lookahead.take() {
                            Some(r) => r,
                            None => {
                                drawn += 1;
                                source.next_request()
                            }
                        };
                        if r.arrival > epoch_end {
                            *lookahead = Some(r);
                            break;
                        }
                        batch.push(r);
                    }
                    drawn
                });
                times.draws += drawn;
                times.offered += batch.len() as u64;
                tracer.time("fleet.offer", || fleet.offer(batch.drain(..)));
                engine.traffic_factor()
            }
            Feed::Upfront(trace) => {
                if !trace.is_empty() {
                    times.offered += trace.len() as u64;
                    tracer.time("fleet.offer", || fleet.offer(trace.drain(..)));
                }
                1.0
            }
        };
        tracer.time("fleet.step_epoch", || {
            fleet.step_epoch(sink, &mut times.profile)
        });
        let done = shape.kind == Kind::Hall
            && tracer.time("fleet.is_drained", || {
                // Mirrors `Fleet::run`'s stop rule, 24-hour cap included.
                fleet.is_drained() || fleet.now().get() > 24.0 * 3600.0
            });
        tracer.end(epoch);
        let t1 = cpu_s();
        let sample = tracer.time("fleet.status", || {
            read_status(&fleet, traffic, &mut last_total)
        });
        let t2 = cpu_s();
        times.epoch_ms.push((t1 - t0) * 1e3);
        times.read_ms.push((t2 - t1) * 1e3);
        times.enclosure_s += per_epoch_enclosure_s;
        digest = fnv1a(sample.to_csv_row().as_bytes(), digest);
        samples.push(sample);
        if done {
            break;
        }
    }
    tracer.end(episode);
    sink.flush();
    let report = fleet.report();
    let offered = times.offered - offered_at_start;
    times.backlog_end += offered.saturating_sub(report.stats.count());
    let last = samples.last().copied();
    Ok(SimSummary {
        completed: report.stats.count(),
        mean_ms: report.stats.mean().to_millis(),
        // The committed experiments call `percentile(0.95)`, which the
        // 0-100 scale reads as the 0.95th percentile; it is reproduced
        // here so the comparison is like for like.
        p95_ms: report.stats.percentile(0.95).to_millis(),
        peak_air_c: report.max_air.get(),
        peak_local_ambient_c: report.peak_local_ambient.get(),
        time_over_envelope_s: report.time_over_envelope.get(),
        epochs: report.epochs,
        rebuilt_fraction: last.map_or(0.0, |s| {
            if s.rebuild_total > 0 {
                s.rebuild_done as f64 / s.rebuild_total as f64
            } else {
                0.0
            }
        }),
        repaired_at_epoch: samples
            .iter()
            .find(|s| s.rebuild_total > 0 && s.rebuild_done == s.rebuild_total)
            .map(|s| s.epoch),
        samples_digest: digest,
    })
}

/// An NDJSON recorder whose output stays reachable after the sink that
/// owns it is dropped.
#[derive(Clone)]
pub struct SharedRecorder(Arc<Mutex<NdjsonRecorder<Vec<u8>>>>);

impl SharedRecorder {
    pub fn new() -> Self {
        Self(Arc::new(Mutex::new(NdjsonRecorder::new(Vec::new()))))
    }

    /// Lines recorded, and the bytes and digest of what was written;
    /// empties the buffer, keeping its capacity, for the next episode.
    pub fn take(&self) -> (u64, u64, u64) {
        let mut guard = self.0.lock().expect("recorder lock is never poisoned");
        let rec = std::mem::replace(&mut *guard, NdjsonRecorder::new(Vec::new()));
        let lines = rec.lines();
        let mut bytes = rec.into_inner();
        let taken = (lines, bytes.len() as u64, fnv1a(&bytes, FNV_OFFSET));
        bytes.clear();
        *guard = NdjsonRecorder::new(bytes);
        taken
    }
}

impl Recorder for SharedRecorder {
    fn record(&mut self, event: &TimedEvent) {
        self.0
            .lock()
            .expect("recorder lock is never poisoned")
            .record(event);
    }

    fn flush(&mut self) {
        self.0
            .lock()
            .expect("recorder lock is never poisoned")
            .flush();
    }
}

/// What the run loop gathered, for the metric tables.
pub struct FleetRun {
    pub times: LoopTimes,
    /// CPU seconds of each set-up, and its wall seconds.
    pub setup_s: Vec<f64>,
    pub setup_wall_s: Vec<f64>,
    /// Simulated enclosure-seconds per host CPU second, one per episode.
    pub episode_rates: Vec<f64>,
    /// Core clock estimates ([`clock_ghz`]), one before each episode.
    pub clock_ghz: Vec<f64>,
    /// Peak resident set when the episodes end, before any check runs.
    pub peak_rss_mb: f64,
    pub episodes: u64,
    /// Recorded events / bytes (trace workload).
    pub obs_events: u64,
    pub obs_bytes: u64,
    /// Host seconds in recording episodes and the enclosure-seconds
    /// they stepped; same for null-sink episodes (traced run only).
    pub recorded_loop: (f64, f64),
    pub null_loop: (f64, f64),
}

/// How long a batch of episodes runs.
#[derive(Debug, Clone, Copy)]
pub enum Until {
    Seconds(f64),
    Episodes(u64),
}

/// One episode's outcome: which sub-seed it ran, what it simulated, and
/// (for a recorded `trace` episode) the digest of its event stream.
pub type EpisodeSummary = (usize, SimSummary, Option<u64>);

/// Runs episodes of `shape` until `until`, cycling through `seeds` (one
/// arrival stream per episode), and records each episode's summary.
/// With `alternate_null`, every other `trace` episode steps under a null
/// sink so the recording overhead compares like epochs.
pub fn episodes(
    shape: Shape,
    seeds: &[u64],
    shards: usize,
    until: Until,
    setup_reps: usize,
    alternate_null: bool,
    tracer: &mut Tracer,
) -> Result<(FleetRun, Vec<EpisodeSummary>), String> {
    let mut run_data = FleetRun {
        times: LoopTimes::default(),
        setup_s: Vec::new(),
        setup_wall_s: Vec::new(),
        episode_rates: Vec::new(),
        clock_ghz: Vec::new(),
        peak_rss_mb: 0.0,
        episodes: 0,
        obs_events: 0,
        obs_bytes: 0,
        recorded_loop: (0.0, 0.0),
        null_loop: (0.0, 0.0),
    };
    let recorder = SharedRecorder::new();
    let mut summaries = Vec::new();
    let started = Instant::now();

    // Extra set-ups so `setup_s` is a median even when episodes are long.
    for _ in 1..setup_reps {
        let (t, c) = (Instant::now(), cpu_s());
        let ep = setup(shape, seeds[0], shards, tracer)?;
        run_data.setup_s.push(cpu_s() - c);
        run_data.setup_wall_s.push(t.elapsed().as_secs_f64());
        drop(ep);
    }

    loop {
        let more = match until {
            Until::Seconds(s) => run_data.episodes < 1 || started.elapsed().as_secs_f64() < s,
            Until::Episodes(n) => run_data.episodes < n,
        };
        if !more {
            break;
        }
        // Alternating episodes run each stream twice in a row, recorded
        // and then not, so the two sides step the same epochs.
        let (record, k) = if alternate_null {
            let n = run_data.episodes as usize;
            (
                shape.kind == Kind::Trace && n.is_multiple_of(2),
                n / 2 % seeds.len(),
            )
        } else {
            (
                shape.kind == Kind::Trace,
                run_data.episodes as usize % seeds.len(),
            )
        };
        run_data.clock_ghz.push(clock_ghz());
        let (t, c) = (Instant::now(), cpu_s());
        let ep = setup(shape, seeds[k], shards, tracer)?;
        run_data.setup_s.push(cpu_s() - c);
        run_data.setup_wall_s.push(t.elapsed().as_secs_f64());
        let mut sink = if record {
            Sink::recorder(recorder.clone())
        } else {
            Sink::null()
        };
        let before = (run_data.times.loop_s(), run_data.times.enclosure_s);
        let summary = run(ep, &mut sink, tracer, &mut run_data.times)?;
        drop(sink);
        let stepped = (
            run_data.times.loop_s() - before.0,
            run_data.times.enclosure_s - before.1,
        );
        let stream = if record {
            let (lines, bytes, digest) = recorder.take();
            run_data.obs_events += lines;
            run_data.obs_bytes += bytes;
            run_data.recorded_loop.0 += stepped.0;
            run_data.recorded_loop.1 += stepped.1;
            Some(digest)
        } else {
            run_data.null_loop.0 += stepped.0;
            run_data.null_loop.1 += stepped.1;
            None
        };
        run_data.episode_rates.push(stepped.1 / stepped.0);
        summaries.push((k, summary, stream));
        run_data.episodes += 1;
    }
    run_data.peak_rss_mb = crate::report::peak_rss_mb();
    Ok((run_data, summaries))
}

/// The correctness checks of a fleet run: episodes agree, the workload
/// did what it is for, and the reference episode matches the record.
pub fn verify(
    shape: Shape,
    size: Size,
    seeds: &[u64],
    shards: usize,
    run_data: &FleetRun,
    summaries: &[EpisodeSummary],
    out: &mut Outcome,
) -> Result<(), String> {
    let name = shape.kind.name();
    let (_, summary, _) = summaries.first().ok_or("no episode ran")?;
    // Each episode must reproduce the first episode of its sub-seed.
    let mut mismatches = 0;
    for k in 0..seeds.len() {
        let group: Vec<_> = summaries.iter().filter(|(k0, ..)| *k0 == k).collect();
        let Some((_, s0, _)) = group.first() else {
            continue;
        };
        let d0 = group.iter().find_map(|(.., d)| *d);
        mismatches += group
            .iter()
            .filter(|(_, s, d)| s != s0 || (d.is_some() && *d != d0))
            .count();
    }
    let repeated = summaries
        .len()
        .saturating_sub(seeds.len().min(summaries.len()));
    out.check(
        format!(
            "{name}: {repeated} repeated episodes reproduce their sub-seed's first exactly \
             ({} episodes over {} sub-seeds)",
            summaries.len(),
            seeds.len()
        ),
        mismatches == 0,
    );
    out.check(
        format!("{name}: the episode completed requests"),
        summary.completed > 0 && summary.mean_ms.is_finite(),
    );
    match shape.kind {
        Kind::Rebuild => out.check(
            "rebuild: the failed member is being rebuilt",
            summary.rebuilt_fraction > 0.0,
        ),
        Kind::Hall => out.check(
            "hall: every offered request completed",
            summary.completed == shape.requests as u64,
        ),
        Kind::Trace => {
            // The recorded run must simulate exactly what a null-sink run
            // of the same config does, and must have recorded something.
            let ep = setup(shape, seeds[0], shards, &mut Tracer::new(false))?;
            let null = run(
                ep,
                &mut Sink::null(),
                &mut Tracer::new(false),
                &mut LoopTimes::default(),
            )?;
            out.check(
                "trace: recorded report equals the null-sink run",
                null == *summary,
            );
            out.check(
                "trace: the recorder captured events",
                run_data.obs_events > 0 && summaries.iter().any(|(.., d)| d.is_some()),
            );
        }
    }
    reference_check(shape.kind, size, shards, out)
}

/// Compares the reference episode with the committed artifact (full
/// size) or with the recorded digest (resized).
fn reference_check(kind: Kind, size: Size, shards: usize, out: &mut Outcome) -> Result<(), String> {
    let seed = match kind {
        Kind::Rebuild => REBUILD_REFERENCE_SEED,
        Kind::Hall => HALL_REFERENCE_SEED,
        Kind::Trace => return Ok(()), // checked against its null-sink twin
    };
    let shape = Shape::reference(kind, size);
    let ep = setup(shape, seed, shards, &mut Tracer::new(false))?;
    let got = run(
        ep,
        &mut Sink::null(),
        &mut Tracer::new(false),
        &mut LoopTimes::default(),
    )?;
    match size {
        Size::Full => {
            let (file, pick): (&str, fn(&serde_json::Value) -> Option<&serde_json::Value>) =
                match kind {
                    Kind::Rebuild => ("scenario_rebuild.json", |v| {
                        v.get("storms")?.as_array()?.iter().find(|s| {
                            s.get("rebuild_rate_sectors_per_sec")
                                .and_then(serde_json::Value::as_f64)
                                == Some(REBUILD_RATE)
                        })
                    }),
                    _ => ("fleet_hall.json", |v| v.get("speed_scaled")),
                };
            let text = std::fs::read_to_string(crate::results_path(file))
                .map_err(|e| format!("results/{file}: {e}"))?;
            let json: serde_json::Value =
                serde_json::from_str(&text).map_err(|e| format!("{file}: {e}"))?;
            let entry = pick(&json).ok_or_else(|| format!("{file}: reference entry missing"))?;
            let num = |k: &str| entry.get(k).and_then(serde_json::Value::as_f64);
            let mut fields: Vec<(&str, Option<f64>, f64)> = match kind {
                Kind::Rebuild => vec![
                    ("completed", num("completed"), got.completed as f64),
                    (
                        "rebuilt_fraction",
                        num("rebuilt_fraction"),
                        got.rebuilt_fraction,
                    ),
                    ("peak_air_c", num("peak_air_c"), got.peak_air_c),
                    (
                        "repaired_at_epoch",
                        num("repaired_at_epoch"),
                        got.repaired_at_epoch.map_or(f64::NAN, |e| e as f64),
                    ),
                ],
                _ => vec![
                    ("drives", num("drives"), shape.enclosures as f64),
                    ("peak_air", num("peak_air"), got.peak_air_c),
                    (
                        "peak_local_ambient",
                        num("peak_local_ambient"),
                        got.peak_local_ambient_c,
                    ),
                    ("epochs", num("epochs"), got.epochs as f64),
                ],
            };
            fields.push(("mean_response_ms", num("mean_response_ms"), got.mean_ms));
            fields.push(("p95_response_ms", num("p95_response_ms"), got.p95_ms));
            fields.push((
                "time_over_envelope_s",
                num("time_over_envelope_s"),
                got.time_over_envelope_s,
            ));
            for (name, want, have) in fields {
                out.check(
                    format!(
                        "{}: {name} equals results/{file} ({want:?} vs {have:?})",
                        kind.name()
                    ),
                    want.is_some_and(|w| w.to_bits() == have.to_bits()),
                );
            }
        }
        Size::Small => {
            let want = crate::reference_digest(kind.name());
            let have = got.digest();
            out.check(
                format!(
                    "{}: resized reference digest {have} equals perfbench/reference.json ({want:?}); {}",
                    kind.name(),
                    got.canonical()
                ),
                want.as_deref() == Some(have.as_str()),
            );
        }
    }
    Ok(())
}

/// The clock the fleet set-up and loop CPU times are reported at.
const REFERENCE_GHZ: f64 = 2.5;

/// End-to-end metrics of a fleet workload. The set-up and loop figures
/// are CPU time at [`REFERENCE_GHZ`]: measured CPU time times the run's
/// median clock estimate (cycles), over the reference clock.
pub fn e2e_metrics(data: &FleetRun, out: &mut Outcome) {
    let t = &data.times;
    let clock = median(&data.clock_ghz);
    let scale = clock / REFERENCE_GHZ;
    out.note("clock_ghz", format!("{clock:?}"));
    out.note("reference_ghz", format!("{REFERENCE_GHZ:?}"));
    out.note("setup_wall_s", format!("{:?}", median(&data.setup_wall_s)));
    out.metric("setup_s", median(&data.setup_s) * scale, "s");
    out.metric(
        "enclosure_s_per_s",
        median(&data.episode_rates) / scale,
        "encl-s/s",
    );
    out.metric("op_p50_ms", median(&t.epoch_ms) * scale, "ms");
    out.metric("peak_rss_mb", data.peak_rss_mb, "MB");
}
