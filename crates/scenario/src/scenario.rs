//! Typed injection schedules and the engine that applies them.
//!
//! Every injection is keyed to a **sync-epoch number**, not a wall
//! time, and the engine runs in the serial stretch before an epoch's
//! parallel phases. Cross-enclosure mutation therefore happens only
//! where the fleet already serializes (routing commit, airflow
//! reduce), which is what keeps perturbed runs byte-identical at any
//! shard count.

use crate::source::ArrivalSource;
use diskfleet::{Fleet, FleetError, RebuildSpec};
use diskobs::Event;
use serde::{Deserialize, Serialize};

/// Which bays a cooling excursion touches.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CoolingScope {
    /// Every enclosure in the fleet (a room-level CRAC event).
    All,
    /// A contiguous enclosure range `lo..hi` (`hi` exclusive) — one
    /// rack or one row in the hall layouts, where enclosure indices
    /// are row-major.
    Enclosures {
        /// First affected enclosure.
        lo: usize,
        /// One past the last affected enclosure.
        hi: usize,
    },
}

impl CoolingScope {
    fn bounds(self, fleet_len: usize) -> (usize, usize) {
        match self {
            Self::All => (0, fleet_len),
            Self::Enclosures { lo, hi } => (lo.min(fleet_len), hi.min(fleet_len)),
        }
    }
}

/// One scheduled perturbation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Injection {
    /// Fail one RAID-5 member at an epoch boundary and start the
    /// rebuild storm (sequential reconstruct reads over the degraded
    /// volume at the spec's rate). Fires exactly once.
    DriveFailure {
        /// Epoch boundary at which the disk dies.
        at_epoch: u64,
        /// Enclosure holding the failed disk.
        enclosure: usize,
        /// Member index inside the enclosure's array.
        disk: u32,
        /// Rebuild-rate knobs (`rate_sectors_per_sec <= 0` disables
        /// rebuild and leaves the array degraded).
        rebuild: RebuildSpec,
    },
    /// An inlet-temperature excursion: the affected bays see their
    /// ambient biased by up to `delta_c`, ramped linearly over
    /// `ramp_epochs` (0 = step), held until `at_epoch +
    /// duration_epochs`, then removed. `duration_epochs == 0` never
    /// recovers.
    CoolingEvent {
        /// Epoch boundary at which the excursion starts.
        at_epoch: u64,
        /// Excursion length in epochs (0 = permanent).
        duration_epochs: u64,
        /// Epochs over which the bias ramps to full strength.
        ramp_epochs: u64,
        /// Peak inlet-temperature bias in Celsius (may be negative:
        /// overcooling; 0 is a no-op that emits no event).
        delta_c: f64,
        /// Which bays are affected.
        scope: CoolingScope,
    },
    /// Multiplicative traffic shaping layered over whatever the
    /// arrival source produces: a diurnal sinusoid plus an optional
    /// flash crowd. Several `TrafficShape` injections compose by
    /// multiplying their factors.
    TrafficShape {
        /// Diurnal period in epochs (0 disables the sinusoid).
        diurnal_period_epochs: u64,
        /// Diurnal swing: the factor oscillates in `1 ± amplitude`.
        diurnal_amplitude: f64,
        /// Epoch at which a flash crowd begins (`None` = no flash).
        flash_at_epoch: Option<u64>,
        /// Flash-crowd length in epochs.
        flash_epochs: u64,
        /// Rate multiplier while the flash crowd is on.
        flash_factor: f64,
    },
}

impl Injection {
    /// The cooling bias this injection contributes at `epoch`
    /// (0 for non-cooling injections and outside the excursion).
    fn cooling_delta_at(&self, epoch: u64) -> f64 {
        let Self::CoolingEvent {
            at_epoch,
            duration_epochs,
            ramp_epochs,
            delta_c,
            ..
        } = *self
        else {
            return 0.0;
        };
        if epoch < at_epoch {
            return 0.0;
        }
        let t = epoch - at_epoch;
        if duration_epochs > 0 && t >= duration_epochs {
            return 0.0;
        }
        if ramp_epochs > 0 && t < ramp_epochs {
            delta_c * (t + 1) as f64 / ramp_epochs as f64
        } else {
            delta_c
        }
    }

    /// The traffic factor this injection contributes at `epoch`
    /// (1 for non-traffic injections).
    fn traffic_factor_at(&self, epoch: u64) -> f64 {
        let Self::TrafficShape {
            diurnal_period_epochs,
            diurnal_amplitude,
            flash_at_epoch,
            flash_epochs,
            flash_factor,
        } = *self
        else {
            return 1.0;
        };
        let mut f = 1.0;
        if diurnal_period_epochs > 0 && diurnal_amplitude != 0.0 {
            let phase =
                2.0 * std::f64::consts::PI * (epoch % diurnal_period_epochs) as f64
                    / diurnal_period_epochs as f64;
            f *= 1.0 + diurnal_amplitude * phase.sin();
        }
        if let Some(at) = flash_at_epoch {
            if epoch >= at && epoch < at + flash_epochs {
                f *= flash_factor;
            }
        }
        f
    }
}

/// An ordered schedule of injections. Plain data: build it, hand it to
/// a [`ScenarioEngine`], serialize it into experiment configs.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct Scenario {
    /// The schedule. Order only matters for same-epoch drive failures
    /// (applied in schedule order).
    pub injections: Vec<Injection>,
}

impl Scenario {
    /// An empty schedule (runs are unperturbed).
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends an injection, builder style.
    #[must_use]
    pub fn with(mut self, injection: Injection) -> Self {
        self.injections.push(injection);
        self
    }
}

/// Applies a [`Scenario`] to a running fleet, one epoch boundary at a
/// time. The engine is deterministic — cooling bias and traffic factor
/// are pure functions of the epoch number, and one-shot failures carry
/// fired flags — and its entire dynamic state serializes, so a twin
/// checkpoint taken mid-scenario restores with the pending schedule
/// intact.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScenarioEngine {
    scenario: Scenario,
    /// One flag per injection; only `DriveFailure` entries use theirs.
    fired: Vec<bool>,
    /// The traffic multiplier currently applied to the source.
    traffic_factor: f64,
    /// Whether a bias vector is currently installed on the fleet.
    cooling_active: bool,
}

impl ScenarioEngine {
    /// Wraps a schedule in a fresh engine (nothing fired yet).
    pub fn new(scenario: Scenario) -> Self {
        let fired = vec![false; scenario.injections.len()];
        Self {
            scenario,
            fired,
            traffic_factor: 1.0,
            cooling_active: false,
        }
    }

    /// The schedule this engine is applying.
    pub fn scenario(&self) -> &Scenario {
        &self.scenario
    }

    /// Appends one more injection to a (possibly mid-flight) schedule,
    /// preserving the fired flags of everything already scheduled.
    pub fn push(&mut self, injection: Injection) {
        self.scenario.injections.push(injection);
        self.fired.push(false);
    }

    /// The traffic multiplier currently in force.
    pub fn traffic_factor(&self) -> f64 {
        self.traffic_factor
    }

    /// Applies everything due at the fleet's **next** epoch (i.e. call
    /// immediately before each `step_epoch`). Emits `DriveFailed`,
    /// `CoolingExcursion`, and `TrafficPhase` boundary events through
    /// the fleet's sink.
    ///
    /// # Errors
    ///
    /// Propagates [`FleetError`] from a failure injection naming a
    /// nonexistent enclosure/disk or double-failing an array.
    pub fn apply_epoch(
        &mut self,
        fleet: &mut Fleet,
        source: &mut ArrivalSource,
    ) -> Result<(), FleetError> {
        let epoch = fleet.epochs();

        // One-shot drive failures, in schedule order.
        for (k, inj) in self.scenario.injections.iter().enumerate() {
            let Injection::DriveFailure {
                at_epoch,
                enclosure,
                disk,
                rebuild,
            } = *inj
            else {
                continue;
            };
            if self.fired[k] || epoch < at_epoch {
                continue;
            }
            self.fired[k] = true;
            fleet.fail_drive(enclosure, disk, rebuild)?;
        }

        // Cooling bias: a pure function of the epoch number, summed
        // over overlapping excursions. Transition events fire on the
        // first and one-past-last epochs only.
        let has_cooling = self
            .scenario
            .injections
            .iter()
            .any(|i| matches!(i, Injection::CoolingEvent { .. }));
        if has_cooling {
            let n = fleet.len();
            let mut bias = vec![0.0; n];
            let mut any = false;
            for inj in &self.scenario.injections {
                let Injection::CoolingEvent {
                    at_epoch,
                    duration_epochs,
                    delta_c,
                    scope,
                    ..
                } = *inj
                else {
                    continue;
                };
                // A zero excursion changes nothing, so it announces nothing.
                if delta_c == 0.0 {
                    continue;
                }
                let (lo, hi) = scope.bounds(n);
                let d = inj.cooling_delta_at(epoch);
                if d != 0.0 {
                    any = true;
                    for b in &mut bias[lo..hi] {
                        *b += d;
                    }
                }
                if epoch == at_epoch {
                    fleet.push_boundary_event(Event::CoolingExcursion {
                        lo,
                        hi,
                        delta_c,
                    });
                }
                if duration_epochs > 0 && epoch == at_epoch + duration_epochs {
                    fleet.push_boundary_event(Event::CoolingExcursion {
                        lo,
                        hi,
                        delta_c: 0.0,
                    });
                }
            }
            if any {
                fleet.set_ambient_bias(&bias)?;
                self.cooling_active = true;
            } else if self.cooling_active {
                fleet.set_ambient_bias(&[])?;
                self.cooling_active = false;
            }
        }

        // Traffic shaping: product over all shapes, applied as the
        // ratio against what is already in force.
        let factor: f64 = self
            .scenario
            .injections
            .iter()
            .map(|i| i.traffic_factor_at(epoch))
            .product();
        if factor != self.traffic_factor {
            source.scale_traffic(factor / self.traffic_factor);
            self.traffic_factor = factor;
            fleet.push_boundary_event(Event::TrafficPhase { factor });
        }

        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cooling_delta_ramps_holds_and_recovers() {
        let inj = Injection::CoolingEvent {
            at_epoch: 10,
            duration_epochs: 8,
            ramp_epochs: 4,
            delta_c: 8.0,
            scope: CoolingScope::All,
        };
        assert_eq!(inj.cooling_delta_at(9), 0.0);
        assert_eq!(inj.cooling_delta_at(10), 2.0);
        assert_eq!(inj.cooling_delta_at(13), 8.0);
        assert_eq!(inj.cooling_delta_at(17), 8.0);
        assert_eq!(inj.cooling_delta_at(18), 0.0);
    }

    #[test]
    fn step_excursions_skip_the_ramp_and_permanent_ones_never_recover() {
        let inj = Injection::CoolingEvent {
            at_epoch: 5,
            duration_epochs: 0,
            ramp_epochs: 0,
            delta_c: -3.0,
            scope: CoolingScope::Enclosures { lo: 2, hi: 6 },
        };
        assert_eq!(inj.cooling_delta_at(5), -3.0);
        assert_eq!(inj.cooling_delta_at(1_000_000), -3.0);
    }

    #[test]
    fn traffic_factor_composes_diurnal_and_flash() {
        let inj = Injection::TrafficShape {
            diurnal_period_epochs: 24,
            diurnal_amplitude: 0.5,
            flash_at_epoch: Some(6),
            flash_epochs: 2,
            flash_factor: 3.0,
        };
        assert_eq!(inj.traffic_factor_at(0), 1.0);
        // Epoch 6 is the diurnal peak (sin = 1) and inside the flash.
        assert!((inj.traffic_factor_at(6) - 4.5).abs() < 1e-12);
        assert!((inj.traffic_factor_at(8) - (1.0 + 0.5 * (2.0 * std::f64::consts::PI * 8.0 / 24.0).sin())).abs() < 1e-12);
    }

    #[test]
    fn engine_state_round_trips_through_serde() {
        let scenario = Scenario::new()
            .with(Injection::DriveFailure {
                at_epoch: 3,
                enclosure: 1,
                disk: 0,
                rebuild: RebuildSpec::default(),
            })
            .with(Injection::TrafficShape {
                diurnal_period_epochs: 12,
                diurnal_amplitude: 0.3,
                flash_at_epoch: None,
                flash_epochs: 0,
                flash_factor: 1.0,
            });
        let engine = ScenarioEngine::new(scenario);
        let json = serde_json::to_string(&engine).unwrap();
        let back: ScenarioEngine = serde_json::from_str(&json).unwrap();
        assert_eq!(engine, back);
    }
}
