//! The one trip/resume rule every DTM mechanism shares: a mechanism
//! engages when the sensed temperature reaches its trip point and
//! releases once it falls a resume margin below it.

use units::{Celsius, TempDelta};

/// What one sensed reading does to a hysteresis band.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Hysteresis {
    /// Stay as is: below the trip point while released, or inside the
    /// band while engaged.
    Hold,
    /// The reading reached the trip point: engage.
    Engage,
    /// The reading fell `resume_margin` below the trip point: release.
    Release,
}

impl Hysteresis {
    /// The transition for a band currently `engaged`, given a `sensed`
    /// reading, the `trip` point and the `resume_margin` below it.
    pub fn step(engaged: bool, sensed: Celsius, trip: Celsius, resume_margin: TempDelta) -> Self {
        if !engaged && sensed >= trip {
            Self::Engage
        } else if engaged && sensed <= trip - resume_margin {
            Self::Release
        } else {
            Self::Hold
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn engages_at_the_trip_point_and_releases_below_the_band() {
        let (trip, margin) = (Celsius::new(45.0), TempDelta::new(0.5));
        let at = |engaged, c| Hysteresis::step(engaged, Celsius::new(c), trip, margin);
        assert_eq!(at(false, 44.9), Hysteresis::Hold);
        assert_eq!(at(false, 45.0), Hysteresis::Engage);
        assert_eq!(at(true, 46.0), Hysteresis::Hold);
        assert_eq!(
            at(true, 44.6),
            Hysteresis::Hold,
            "inside the band the state holds"
        );
        assert_eq!(at(true, 44.5), Hysteresis::Release);
        assert_eq!(at(false, 40.0), Hysteresis::Hold);
    }
}
