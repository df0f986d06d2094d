//! Fleet-level error type.

use disksim::SimError;
use std::fmt;
use units::Seconds;

/// Everything that can go wrong assembling or running a fleet.
#[derive(Debug)]
#[non_exhaustive]
pub enum FleetError {
    /// The underlying event simulator rejected a configuration or
    /// request.
    Sim(SimError),
    /// The fleet configuration itself is inconsistent (mismatched
    /// airflow graph, zero enclosures, bad coupling coefficients, ...).
    Config(String),
    /// An injection addressed an enclosure index the fleet does not
    /// have.
    NoSuchEnclosure {
        /// Enclosure index requested.
        enclosure: usize,
        /// Enclosures in the fleet.
        fleet: usize,
    },
    /// A batch run reached its 24-hour simulated-time cap with
    /// requests still outstanding.
    TimeCapReached {
        /// Simulated time when the cap fired.
        now: Seconds,
        /// Requests not yet completed: unrouted, queued at a bay, or
        /// in flight at a drive.
        backlog: u64,
    },
    /// One sync epoch drew more arrivals than the epoch driver's fixed
    /// per-epoch cap (`diskscenario::MAX_DRAWS_PER_EPOCH`): the source's
    /// arrivals crawl (an absurd replay rate or traffic scale), and
    /// drawing on would queue requests without bound.
    DrawCapReached {
        /// The epoch being filled when the cap fired.
        epoch: u64,
        /// The cap, in draws per epoch.
        cap: u64,
    },
}

impl fmt::Display for FleetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FleetError::Sim(e) => write!(f, "simulator error: {e}"),
            FleetError::Config(msg) => write!(f, "fleet configuration error: {msg}"),
            FleetError::NoSuchEnclosure { enclosure, fleet } => {
                write!(f, "enclosure {enclosure} requested but the fleet has {fleet}")
            }
            FleetError::TimeCapReached { now, backlog } => write!(
                f,
                "run stopped at the simulated-time cap ({:.0} s) with {backlog} \
                 request(s) outstanding",
                now.get()
            ),
            FleetError::DrawCapReached { epoch, cap } => write!(
                f,
                "epoch {epoch} drew more than {cap} arrivals; the source's arrivals \
                 barely advance"
            ),
        }
    }
}

impl std::error::Error for FleetError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FleetError::Sim(e) => Some(e),
            _ => None,
        }
    }
}

impl From<SimError> for FleetError {
    fn from(e: SimError) -> Self {
        FleetError::Sim(e)
    }
}
