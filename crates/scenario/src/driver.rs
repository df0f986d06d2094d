//! The epoch driver: the one loop that steps a fleet — apply the
//! schedule, draw arrivals up to the boundary, step the fleet, sample.
//! The lab experiments, the trace recorder and the twin all run it.

use crate::scenario::ScenarioEngine;
use crate::source::ArrivalSource;
use diskfleet::{Fleet, FleetError, FleetPhaseProfile};
use disksim::Request;

/// The most arrivals one sync epoch may draw before [`EpochDriver::step`]
/// fails with [`FleetError::DrawCapReached`]. The busiest committed
/// workload (`scenario_diurnal`'s flash crowd) draws 9,031 in one
/// epoch, so the cap is far out of reach; it exists for sources whose
/// arrivals barely advance (a replay at rate 1e300, a what-if
/// `traffic_scale` of 1e300), which would otherwise draw and queue
/// requests without end inside one epoch.
pub const MAX_DRAWS_PER_EPOCH: u64 = 1_000_000;

/// One per-epoch observation row, shaped for the experiments' CSVs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EpochSample {
    /// Sync epochs completed after this step.
    pub epoch: u64,
    /// Simulated time after this step, seconds.
    pub time_s: f64,
    /// Hottest internal air across the fleet, °C.
    pub peak_air_c: f64,
    /// Hottest preheated local ambient across the fleet, °C.
    pub peak_ambient_c: f64,
    /// Drives currently under DTM control action.
    pub engaged: usize,
    /// Cumulative foreground completions (rebuild I/O excluded).
    pub completed: u64,
    /// Rebuild sectors reconstructed so far, summed over active
    /// rebuilds; once none is left, the final total of the last ones
    /// to finish (also when they started and finished in this epoch).
    pub rebuild_done: u64,
    /// Total sectors the active rebuilds must reconstruct.
    pub rebuild_total: u64,
    /// Traffic multiplier in force during this epoch.
    pub traffic_factor: f64,
}

impl EpochSample {
    /// Header matching [`Self::to_csv_row`].
    pub fn csv_header() -> &'static str {
        "epoch,time_s,peak_air_c,peak_ambient_c,engaged,completed,rebuild_done,rebuild_total,traffic_factor"
    }

    /// One CSV row with fixed-precision floats (deterministic bytes).
    pub fn to_csv_row(&self) -> String {
        format!(
            "{},{:.3},{:.4},{:.4},{},{},{},{},{:.6}",
            self.epoch,
            self.time_s,
            self.peak_air_c,
            self.peak_ambient_c,
            self.engaged,
            self.completed,
            self.rebuild_done,
            self.rebuild_total,
            self.traffic_factor,
        )
    }
}

/// A fleet, its arrival source, an optional injection schedule and the
/// one request drawn past the current epoch boundary, stepped one sync
/// epoch at a time. Because the lookahead lives here, the stream is
/// consumed exactly once however the epochs are split across calls:
/// `k` calls to [`Self::step`] equal one `k`-epoch [`Self::run`], and a
/// batch fleet and a twin driven from identical sources produce
/// identical event streams. The fleet, source and schedule are open
/// between epochs, for perturbations and checkpoints.
pub struct EpochDriver {
    /// The fleet being stepped.
    pub fleet: Fleet,
    /// Where its arrivals come from.
    pub source: ArrivalSource,
    /// The injection schedule, applied at every boundary, if any.
    pub scenario: Option<ScenarioEngine>,
    lookahead: Option<Request>,
    /// Wall-clock profile of the epochs stepped so far.
    pub profile: FleetPhaseProfile,
    /// Rebuild total last sampled: a finished rebuild leaves the
    /// fleet's list, and samples keep reporting its final figures so
    /// the CSV doesn't snap back to zero mid-plot.
    last_rebuild_total: u64,
}

impl EpochDriver {
    /// A driver at the fleet's current epoch, with nothing drawn ahead.
    pub fn new(fleet: Fleet, source: ArrivalSource, scenario: Option<ScenarioEngine>) -> Self {
        Self {
            fleet,
            source,
            scenario,
            lookahead: None,
            profile: FleetPhaseProfile::default(),
            last_rebuild_total: 0,
        }
    }

    /// Resumes a stream mid-flight: `lookahead` is the request an
    /// earlier driver drew past this epoch's boundary (checkpoint
    /// restore).
    pub fn with_lookahead(mut self, lookahead: Option<Request>) -> Self {
        self.lookahead = lookahead;
        self
    }

    /// The first request drawn past the current boundary, offered first
    /// at the next step.
    pub fn lookahead(&self) -> Option<Request> {
        self.lookahead
    }

    /// Runs one sync epoch: applies the injections due at this
    /// boundary, offers every arrival up to the next boundary, and
    /// steps the fleet. Per-drive events are buffered into `sink` when
    /// it is enabled and switched off when it is not.
    ///
    /// # Errors
    ///
    /// Propagates injection failures ([`FleetError`]) from the schedule,
    /// and fails with [`FleetError::DrawCapReached`] when the epoch
    /// would draw more than [`MAX_DRAWS_PER_EPOCH`] arrivals. That
    /// epoch is abandoned part-way, its draws so far already offered,
    /// so the driver is not meant to be stepped again.
    pub fn step(&mut self, sink: &mut diskobs::Sink) -> Result<EpochSample, FleetError> {
        if sink.is_enabled() {
            self.fleet.enable_drive_sinks();
        } else {
            self.fleet.disable_drive_sinks();
        }
        if let Some(engine) = &mut self.scenario {
            engine.apply_epoch(&mut self.fleet, &mut self.source)?;
        }
        let epoch_end = self.fleet.now() + self.fleet.epoch_len();
        let mut draws = 0;
        loop {
            let r = match self.lookahead.take() {
                Some(r) => r,
                None if draws == MAX_DRAWS_PER_EPOCH => {
                    return Err(FleetError::DrawCapReached {
                        epoch: self.fleet.epochs(),
                        cap: MAX_DRAWS_PER_EPOCH,
                    });
                }
                None => {
                    draws += 1;
                    self.source.next_request()
                }
            };
            if r.arrival > epoch_end {
                self.lookahead = Some(r);
                break;
            }
            self.fleet.offer(std::iter::once(r));
        }
        // Rebuilds only finish inside `step_epoch`, so when none is left
        // after it, every one active before it (including one injected
        // at this very boundary) has just finished in full.
        let before: u64 = self.fleet.rebuilds().iter().map(|rb| rb.total()).sum();
        self.fleet.step_epoch(sink, &mut self.profile);
        let fleet = &self.fleet;
        let (mut done, mut total) = (0, 0);
        for rb in fleet.rebuilds() {
            done += rb.done();
            total += rb.total();
        }
        if total == 0 {
            let finished = if before > 0 { before } else { self.last_rebuild_total };
            done = finished;
            total = finished;
        }
        self.last_rebuild_total = total;
        Ok(EpochSample {
            epoch: fleet.epochs(),
            time_s: fleet.now().get(),
            peak_air_c: fleet.peak_air().get(),
            peak_ambient_c: fleet.peak_local_ambient().get(),
            engaged: fleet.engaged_count(),
            completed: fleet.stats().count(),
            rebuild_done: done,
            rebuild_total: total,
            traffic_factor: self.scenario.as_ref().map_or(1.0, ScenarioEngine::traffic_factor),
        })
    }

    /// Runs `epochs` sync epochs, pushing one [`EpochSample`] each.
    ///
    /// # Errors
    ///
    /// As [`Self::step`]; the samples of the epochs before the failure
    /// stay pushed.
    pub fn run(
        &mut self,
        epochs: u64,
        sink: &mut diskobs::Sink,
        samples: &mut Vec<EpochSample>,
    ) -> Result<(), FleetError> {
        for _ in 0..epochs {
            samples.push(self.step(sink)?);
        }
        Ok(())
    }
}
