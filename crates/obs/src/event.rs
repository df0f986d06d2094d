//! The typed event vocabulary and its sim-time stamp.
//!
//! Every field is a plain scalar so the crate sits below `disksim` in
//! the dependency graph; producers translate their domain types at the
//! emission site. Timestamps are **simulated seconds** — wall time never
//! enters a trace, which is what keeps traces byte-identical at any
//! thread or shard count.
//!
//! Events render to NDJSON through one direct writer,
//! [`TimedEvent::write_ndjson`], which appends bytes without building a
//! JSON value tree. It follows the vendored JSON writer's rules exactly;
//! the unit tests derive `Serialize` (under `cfg(test)` only) and use
//! that serializer as the byte-for-byte oracle.

use serde::ser::push_escaped;
#[cfg(test)]
use serde::Serialize;
use std::fmt::Write;

/// One thing that happened inside a simulated run.
#[derive(Debug, Clone, PartialEq)]
#[cfg_attr(test, derive(Serialize))]
pub enum Event {
    /// A logical request entered service consideration at a drive.
    RequestIssue {
        /// Request id (trace-global).
        id: u64,
        /// Target device within the storage system.
        device: u32,
        /// Starting logical block address.
        lba: u64,
        /// Transfer length in sectors.
        sectors: u32,
        /// `"read"` or `"write"`.
        kind: &'static str,
    },
    /// A logical request completed.
    RequestComplete {
        /// Request id (trace-global).
        id: u64,
        /// Sim time service started, seconds.
        start: f64,
        /// Arrival-to-finish response time, milliseconds.
        response_ms: f64,
    },
    /// A drive's spindle speed changed (DTM actuation).
    RpmTransition {
        /// Drive index within the traced scope (0 for a single drive).
        drive: usize,
        /// Speed before the transition, RPM.
        from: f64,
        /// Speed after the transition, RPM.
        to: f64,
    },
    /// Admission gating engaged (throttle policies).
    ThrottleEngage {
        /// Drive index within the traced scope.
        drive: usize,
        /// Sensed air temperature that tripped the gate, Celsius.
        sensed_c: f64,
    },
    /// Admission gating released.
    ThrottleDisengage {
        /// Drive index within the traced scope.
        drive: usize,
        /// Sensed air temperature at release, Celsius.
        sensed_c: f64,
    },
    /// A control-loop actor (controller or fleet coordinator) acted on
    /// a drive.
    CoordinatorAction {
        /// Drive index within the traced scope.
        drive: usize,
        /// What it did: `"downshift"`, `"upshift"`, `"boost"`,
        /// `"unboost"`, `"gate"`, or `"ungate"`.
        action: &'static str,
    },
    /// The fleet router placed a request on a drive.
    RoutingDecision {
        /// Request id (trace-global).
        request: u64,
        /// Chosen drive index.
        drive: usize,
    },
    /// A temperature sensor was polled.
    SensorReading {
        /// Drive index within the traced scope.
        drive: usize,
        /// What the sensor reported, Celsius.
        sensed_c: f64,
        /// The model's continuous air temperature, Celsius.
        actual_c: f64,
    },
    /// A periodic per-drive state probe.
    Snapshot {
        /// Drive index within the traced scope.
        drive: usize,
        /// Internal-air temperature, Celsius.
        air_c: f64,
        /// Local ambient (inlet) temperature, Celsius.
        ambient_c: f64,
        /// Requests queued or in flight at the drive.
        queue: u64,
        /// Disk busy fraction over the probe interval.
        util: f64,
        /// Actuator duty over the probe interval.
        duty: f64,
        /// Spindle speed, RPM.
        rpm: f64,
        /// Whether admission is currently gated.
        gated: bool,
    },
    /// A drive in a RAID-5 enclosure failed (scenario injection).
    DriveFailed {
        /// Enclosure index within the fleet.
        enclosure: usize,
        /// Failed member disk within the array.
        disk: u32,
    },
    /// Rebuild progress over a degraded array, sampled once per epoch.
    RebuildProgress {
        /// Enclosure index within the fleet.
        enclosure: usize,
        /// Sectors rebuilt so far.
        done: u64,
        /// Total sectors to rebuild.
        total: u64,
    },
    /// An inlet-temperature excursion started or ended over a range of
    /// enclosures (cooling failure or recovery).
    CoolingExcursion {
        /// First affected enclosure index (inclusive).
        lo: usize,
        /// Last affected enclosure index (exclusive).
        hi: usize,
        /// Inlet bias now in force, Celsius (0.0 on recovery).
        delta_c: f64,
    },
    /// The scenario traffic multiplier changed (diurnal phase or flash
    /// crowd boundary).
    TrafficPhase {
        /// Multiplier now applied over the workload's base rate.
        factor: f64,
    },
    /// A progress line from the leveled logger, captured in the trace.
    Log {
        /// `"info"` or `"verbose"`.
        level: &'static str,
        /// The message as printed.
        message: String,
    },
}

/// An [`Event`] stamped with simulated time.
#[derive(Debug, Clone, PartialEq)]
#[cfg_attr(test, derive(Serialize))]
pub struct TimedEvent {
    /// Simulated time of the event, seconds.
    pub t: f64,
    /// What happened.
    pub event: Event,
}

impl TimedEvent {
    /// Appends the event as one compact NDJSON line (no trailing
    /// newline) to `out`: `{"t":..,"event":{"Variant":{..}}}`, keys in
    /// declaration order, integers plain, floats as the vendored JSON
    /// writer renders them, strings escaped by its escaper. Identical
    /// event streams therefore produce identical bytes.
    pub fn write_ndjson(&self, out: &mut String) {
        out.push_str("{\"t\":");
        self.t.write_json(out);
        out.push_str(",\"event\":");
        // Writes `{"Variant":{"k0":v0,"k1":v1,..` (the closing braces
        // follow the match), with punctuation and keys joined at
        // compile time into one push per field.
        macro_rules! variant {
            ($name:literal { $k0:literal: $v0:expr $(, $k:literal: $v:expr)* $(,)? }) => {{
                out.push_str(concat!("{\"", $name, "\":{\"", $k0, "\":"));
                $v0.write_json(out);
                $(
                    out.push_str(concat!(",\"", $k, "\":"));
                    $v.write_json(out);
                )*
            }};
        }
        match &self.event {
            Event::RequestIssue { id, device, lba, sectors, kind } => variant!("RequestIssue" {
                "id": id, "device": device, "lba": lba, "sectors": sectors, "kind": kind,
            }),
            Event::RequestComplete { id, start, response_ms } => variant!("RequestComplete" {
                "id": id, "start": start, "response_ms": response_ms,
            }),
            Event::RpmTransition { drive, from, to } => {
                variant!("RpmTransition" { "drive": drive, "from": from, "to": to })
            }
            Event::ThrottleEngage { drive, sensed_c } => {
                variant!("ThrottleEngage" { "drive": drive, "sensed_c": sensed_c })
            }
            Event::ThrottleDisengage { drive, sensed_c } => {
                variant!("ThrottleDisengage" { "drive": drive, "sensed_c": sensed_c })
            }
            Event::CoordinatorAction { drive, action } => {
                variant!("CoordinatorAction" { "drive": drive, "action": action })
            }
            Event::RoutingDecision { request, drive } => {
                variant!("RoutingDecision" { "request": request, "drive": drive })
            }
            Event::SensorReading { drive, sensed_c, actual_c } => variant!("SensorReading" {
                "drive": drive, "sensed_c": sensed_c, "actual_c": actual_c,
            }),
            Event::Snapshot { drive, air_c, ambient_c, queue, util, duty, rpm, gated } => {
                variant!("Snapshot" {
                    "drive": drive,
                    "air_c": air_c,
                    "ambient_c": ambient_c,
                    "queue": queue,
                    "util": util,
                    "duty": duty,
                    "rpm": rpm,
                    "gated": gated,
                })
            }
            Event::DriveFailed { enclosure, disk } => {
                variant!("DriveFailed" { "enclosure": enclosure, "disk": disk })
            }
            Event::RebuildProgress { enclosure, done, total } => variant!("RebuildProgress" {
                "enclosure": enclosure, "done": done, "total": total,
            }),
            Event::CoolingExcursion { lo, hi, delta_c } => {
                variant!("CoolingExcursion" { "lo": lo, "hi": hi, "delta_c": delta_c })
            }
            Event::TrafficPhase { factor } => variant!("TrafficPhase" { "factor": factor }),
            Event::Log { level, message } => {
                variant!("Log" { "level": level, "message": message })
            }
        }
        out.push_str("}}}");
    }

    /// The event as one compact NDJSON line (no trailing newline); see
    /// [`Self::write_ndjson`].
    pub fn to_ndjson_line(&self) -> String {
        let mut line = String::new();
        self.write_ndjson(&mut line);
        line
    }
}

/// An event field value, rendered as the vendored JSON writer renders
/// it. Keys and variant names are plain identifiers, so only string
/// values need escaping.
trait Scalar {
    fn write_json(&self, out: &mut String);
}

macro_rules! plain_integer {
    ($($t:ty),*) => {$(
        impl Scalar for $t {
            fn write_json(&self, out: &mut String) {
                let _ = write!(out, "{self}");
            }
        }
    )*};
}
plain_integer!(u32, u64, usize);

impl Scalar for f64 {
    /// `serde::ser::format_f64`'s rule, written in place: integral
    /// values below 1e16 keep a trailing `.0`, everything else takes
    /// the shortest round-trip form, and non-finite values are `null`.
    /// An integral value is exact in a `u64`, so its digits are written
    /// as one: the same bytes as `{x:.1}` (sign of -0.0 included),
    /// whose exact-precision formatting path costs about ten times as
    /// much.
    fn write_json(&self, out: &mut String) {
        let x = *self;
        if !x.is_finite() {
            out.push_str("null");
        } else if x == x.trunc() && x.abs() < 1e16 {
            if x.is_sign_negative() {
                out.push('-');
            }
            (x.abs() as u64).write_json(out);
            out.push_str(".0");
        } else {
            let _ = write!(out, "{x}");
        }
    }
}

impl Scalar for bool {
    fn write_json(&self, out: &mut String) {
        out.push_str(if *self { "true" } else { "false" });
    }
}

impl Scalar for &str {
    fn write_json(&self, out: &mut String) {
        push_escaped(out, self);
    }
}

impl Scalar for String {
    fn write_json(&self, out: &mut String) {
        push_escaped(out, self);
    }
}

/// Whether `events` is nondecreasing in `t` under `f64::total_cmp`.
///
/// The k-way merge at the fleet's epoch boundary assumes every
/// per-enclosure event run is already time-sorted (each enclosure emits
/// events as its own clock advances); this is the debug-assert guard
/// for that contract. Returns `true` for empty and single-event runs.
pub fn is_time_sorted(events: &[TimedEvent]) -> bool {
    events
        .windows(2)
        .all(|w| w[0].t.total_cmp(&w[1].t) != std::cmp::Ordering::Greater)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The oracle: the vendored serializer through the test-only derive.
    fn serde_line(e: &TimedEvent) -> String {
        serde_json::to_string(e).unwrap()
    }

    fn assert_matches_oracle(e: &TimedEvent) {
        assert_eq!(e.to_ndjson_line(), serde_line(e), "event {e:?}");
    }

    /// One event of every variant: integer fields from `n`, every float
    /// field `x`, every string field `text`.
    fn every_variant(n: u64, x: f64, text: &str) -> Vec<Event> {
        let (d, w) = (n as usize, n as u32);
        vec![
            Event::RequestIssue { id: n, device: w, lba: n, sectors: w, kind: "read" },
            Event::RequestComplete { id: n, start: x, response_ms: x },
            Event::RpmTransition { drive: d, from: x, to: x },
            Event::ThrottleEngage { drive: d, sensed_c: x },
            Event::ThrottleDisengage { drive: d, sensed_c: x },
            Event::CoordinatorAction { drive: d, action: "downshift" },
            Event::RoutingDecision { request: n, drive: d },
            Event::SensorReading { drive: d, sensed_c: x, actual_c: x },
            Event::Snapshot {
                drive: d,
                air_c: x,
                ambient_c: x,
                queue: n,
                util: x,
                duty: x,
                rpm: x,
                gated: n % 2 == 1,
            },
            Event::DriveFailed { enclosure: d, disk: w },
            Event::RebuildProgress { enclosure: d, done: n, total: n },
            Event::CoolingExcursion { lo: d, hi: d, delta_c: x },
            Event::TrafficPhase { factor: x },
            Event::Log { level: "info", message: text.to_string() },
        ]
    }

    #[test]
    fn direct_renderer_matches_the_serializer_on_float_edge_cases() {
        let edges = [
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            -0.0,
            0.0,
            5e-324,
            0.1 + 0.2,
            9_999_999_999_999_998.0,
            1e16,
            -1e16,
            1e300,
            -2.5,
            15_020.0,
        ];
        for x in edges {
            for event in every_variant(3, x, "edge") {
                assert_matches_oracle(&TimedEvent { t: x, event });
            }
        }
    }

    #[test]
    fn direct_renderer_escapes_log_messages_like_the_serializer() {
        for message in [
            "",
            "plain",
            "quote \" inside",
            "back\\slash",
            "line\nbreak\r\ttab",
            "control \u{1} \u{8} \u{c} \u{1f}",
            "non-ASCII: Zürich, 温度, 🌡",
        ] {
            for level in ["info", "verbose"] {
                let event = Event::Log { level, message: message.to_string() };
                assert_matches_oracle(&TimedEvent { t: 1.0, event });
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]
        #[test]
        fn direct_renderer_matches_the_serializer_on_random_fields(
            variant in 0usize..14,
            n in any::<u64>(),
            t_bits in any::<u64>(),
            x_bits in any::<u64>(),
            x_scaled in any::<f64>(),
            chars in prop::collection::vec(0u32..0x1_1000, 0..16),
        ) {
            let text: String =
                chars.iter().map(|&c| char::from_u32(c).unwrap_or('\u{fffd}')).collect();
            // Raw bit patterns reach NaN, infinities and subnormals; the
            // scaled draw keeps ordinary magnitudes common.
            for x in [f64::from_bits(x_bits), x_scaled, x_scaled.trunc()] {
                let event = every_variant(n, x, &text).swap_remove(variant);
                let e = TimedEvent { t: f64::from_bits(t_bits), event };
                prop_assert_eq!(e.to_ndjson_line(), serde_line(&e));
            }
        }
    }

    #[test]
    fn is_time_sorted_accepts_ties_and_rejects_regressions() {
        let at = |t: f64| TimedEvent {
            t,
            event: Event::RoutingDecision { request: 0, drive: 0 },
        };
        assert!(is_time_sorted(&[]));
        assert!(is_time_sorted(&[at(1.0)]));
        assert!(is_time_sorted(&[at(1.0), at(1.0), at(2.0)]));
        assert!(!is_time_sorted(&[at(2.0), at(1.0)]));
    }

    #[test]
    fn events_render_stable_ndjson() {
        let e = TimedEvent {
            t: 1.25,
            event: Event::RequestIssue {
                id: 7,
                device: 0,
                lba: 1024,
                sectors: 8,
                kind: "read",
            },
        };
        let line = e.to_ndjson_line();
        assert!(line.starts_with("{\"t\":1.25,"), "line was {line}");
        assert!(line.contains("\"RequestIssue\""));
        assert!(!line.contains('\n'));
        // Rendering is a pure function of the event.
        assert_eq!(line, e.to_ndjson_line());
    }

    #[test]
    fn every_variant_serializes() {
        for n in [0, 1, 7, u64::from(u32::MAX), u64::MAX] {
            for event in every_variant(n, 12.5, "hello") {
                assert_matches_oracle(&TimedEvent { t: 0.25, event });
            }
        }
    }
}
