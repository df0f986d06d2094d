//! Deterministic fault-injection and operational-scenario engine
//! (`diskscenario`).
//!
//! The paper evaluates DTM against steady workloads; the events that
//! actually stress a thermal envelope are operational: a RAID-5 member
//! dies and the rebuild storm saturates its neighbours, a CRAC unit
//! trips and one rack's inlet climbs eight degrees, a flash crowd lands
//! on top of the diurnal peak. This crate schedules those perturbations
//! against a running [`diskfleet::Fleet`] (or a `disktwin` twin) at
//! exact simulated times:
//!
//! - [`Scenario`] / [`Injection`] — a typed, serializable schedule of
//!   drive failures (with rebuild-rate knobs), cooling excursions
//!   (step or ramped, per rack/row scope), and multiplicative traffic
//!   shaping (diurnal sinusoid + flash crowds);
//! - [`ScenarioEngine`] — applies the schedule at **epoch boundaries**,
//!   in the fleet's serial stretch, so perturbed runs stay
//!   byte-identical at any shard count; its whole dynamic state
//!   serializes for twin checkpoints;
//! - [`ArrivalSource`] — one interface over synthetic generator
//!   streams and recorded-trace replay ([`ReplaySource`], fed by the
//!   MSR-Cambridge / DiskSim-ASCII / JSON readers in `workloads`), so
//!   the fleet and the twin consume real traces identically;
//! - [`EpochDriver`] — the one epoch-stepping loop, shared by the lab
//!   experiments and the twin, producing per-epoch [`EpochSample`] rows
//!   and refusing an epoch that would draw more than
//!   [`MAX_DRAWS_PER_EPOCH`] arrivals.
//!
//! # Examples
//!
//! ```
//! use diskfleet::{EnclosureArray, Fleet, FleetConfig, RebuildSpec};
//! use diskscenario::{ArrivalSource, EpochDriver, Injection, Scenario, ScenarioEngine};
//! use disksim::DiskSpec;
//! use diskthermal::DriveThermalSpec;
//! use units::{Inches, Rpm};
//! use workloads::{AccessProfile, ArrivalModel, SizeModel, TraceGenerator};
//!
//! let mut config = FleetConfig::serial(
//!     4,
//!     DiskSpec::era(2002, 1, Rpm::new(15_020.0)),
//!     DriveThermalSpec::new(Inches::new(2.6), 1),
//!     12.0,
//! )?;
//! config.array = Some(EnclosureArray { disks: 4, stripe_sectors: 65_536 });
//! let fleet = Fleet::new(config)?;
//!
//! let profile = AccessProfile {
//!     read_fraction: 0.7,
//!     sequential_fraction: 0.2,
//!     size: SizeModel::Fixed(16),
//!     hot_regions: 64,
//!     zipf_theta: 0.9,
//! };
//! let gen = TraceGenerator::new(profile, ArrivalModel::Poisson { rate: 200.0 }, 1, 1 << 20)
//!     .map_err(diskfleet::FleetError::Config)?;
//! let source = ArrivalSource::Synthetic(gen.stream(7));
//!
//! let scenario = Scenario::new().with(Injection::DriveFailure {
//!     at_epoch: 2,
//!     enclosure: 1,
//!     disk: 0,
//!     rebuild: RebuildSpec::default(),
//! });
//! let mut driver = EpochDriver::new(fleet, source, Some(ScenarioEngine::new(scenario)));
//! let mut samples = Vec::new();
//! driver.run(4, &mut diskobs::Sink::null(), &mut samples)?;
//! assert_eq!(samples.len(), 4);
//! assert!(samples[3].rebuild_total > 0, "the storm is under way");
//! # Ok::<(), diskfleet::FleetError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod driver;
mod scenario;
mod source;

pub use driver::{EpochDriver, EpochSample, MAX_DRAWS_PER_EPOCH};
pub use scenario::{CoolingScope, Injection, Scenario, ScenarioEngine};
pub use source::{ArrivalSource, ArrivalSourceState, ReplaySource};
