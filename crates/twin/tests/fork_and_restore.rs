//! Fork and restore oracles: a what-if with no perturbation forks into
//! exactly its own baseline, and a checkpoint whose replay source can
//! no longer move time forward is refused at restore instead of
//! stalling the epoch loop, and sources whose arrivals barely advance
//! stop at the per-epoch draw cap instead of hanging.

use diskfleet::FleetError;
use diskscenario::{ArrivalSource, MAX_DRAWS_PER_EPOCH};
use disksim::{Request, RequestKind};
use disktwin::{decode, encode, whatif, Twin, TwinConfig, TwinError, TwinState, WhatIf};
use std::time::{Duration, Instant};
use units::Seconds;

#[test]
fn an_empty_what_if_equals_its_baseline() {
    let mut twin = Twin::new(TwinConfig::preset(workloads::oltp(), 3)).expect("twin builds");
    for _ in 0..2 {
        twin.advance_epoch().expect("advance");
    }
    let report = whatif(&twin.capture_state(), &WhatIf::default(), 3, None).expect("whatif");
    assert!(report.baseline.completed > 0, "the horizon carries traffic");
    assert_eq!(report.baseline, report.perturbed);
    for delta in [
        report.peak_air_delta_c,
        report.mean_response_delta_ms,
        report.p99_response_delta_ms,
        report.gated_delta_s,
    ] {
        assert_eq!(delta.to_bits(), 0.0f64.to_bits(), "{report:?}");
    }
    assert_eq!(report.engaged_delta, 0);
}

/// A two-enclosure twin replaying a recorded 50-request trace, one
/// epoch in.
fn replay_twin() -> Twin {
    let trace: Vec<Request> = (0..50u64)
        .map(|i| {
            Request::new(
                i,
                Seconds::new(i as f64 * 0.01),
                0,
                i * 64,
                8,
                RequestKind::Read,
            )
        })
        .collect();
    let source = ArrivalSource::replay(trace).expect("replay source");
    let mut twin =
        Twin::with_source(TwinConfig::preset(workloads::oltp(), 2), source).expect("twin builds");
    twin.advance_epoch().expect("advance");
    twin
}

/// Rewrites the one replay field `key` in the twin's checkpoint body to
/// `value` and passes the result through the checkpoint envelope.
/// Re-encoding recomputes the header checksum, so the corrupted body
/// passes the envelope checks and reaches the restore validation.
fn with_replay_field(twin: &Twin, key: &str, value: &str) -> TwinState {
    let body = serde_json::to_string(&twin.capture_state()).unwrap();
    let key = format!("\"{key}\":");
    assert_eq!(body.matches(&key).count(), 1, "one {key} in the body");
    let start = body.find(&key).unwrap() + key.len();
    let end = start + body[start..].find(',').unwrap();
    let corrupt = format!("{}{value}{}", &body[..start], &body[end..]);
    let state: TwinState = serde_json::from_str(&corrupt).expect("still a well-formed body");
    decode(&encode(&state).expect("encode")).expect("the envelope validates")
}

#[test]
fn a_negative_replay_period_is_refused_at_restore() {
    let decoded = with_replay_field(&replay_twin(), "period", "-1.0");
    match Twin::restore_state(decoded) {
        Err(TwinError::Config(msg)) => assert!(msg.contains("period"), "{msg}"),
        Err(other) => panic!("expected a config error, got {other}"),
        Ok(_) => panic!("a negative replay period must not restore"),
    }
}

/// The error a twin reports when epoch `epoch` hits the draw cap.
fn draw_cap_error(epoch: u64) -> TwinError {
    TwinError::from(FleetError::DrawCapReached {
        epoch,
        cap: MAX_DRAWS_PER_EPOCH,
    })
}

// Both probes below draw arrivals that barely advance (gaps of order
// 1e-300 s vanish against the epoch clock), so without the per-epoch
// draw cap one epoch would never end; with it, each fails within
// seconds even in a debug build.
const PROBE_BOUND: Duration = Duration::from_secs(60);

#[test]
fn a_replay_restored_at_rate_1e300_stops_at_the_draw_cap() {
    // 1e300 is finite and positive, so the restore checks accept it.
    let state = with_replay_field(&replay_twin(), "rate", "1e300");
    let mut twin = Twin::restore_state(state).expect("a finite positive rate restores");
    let started = Instant::now();
    let err = twin.advance_epoch().expect_err("the epoch must not complete");
    assert!(started.elapsed() < PROBE_BOUND, "took {:?}", started.elapsed());
    assert_eq!(err.to_string(), draw_cap_error(1).to_string());
}

#[test]
fn a_what_if_at_traffic_scale_1e300_is_refused_at_the_draw_cap() {
    let mut twin = Twin::new(TwinConfig::preset(workloads::oltp(), 2)).expect("twin builds");
    twin.advance_epoch().expect("advance");
    let query = WhatIf {
        traffic_scale: Some(1e300),
        ..WhatIf::default()
    };
    let started = Instant::now();
    let err = whatif(&twin.capture_state(), &query, 2, None).expect_err("must refuse");
    assert!(started.elapsed() < PROBE_BOUND, "took {:?}", started.elapsed());
    assert_eq!(err.to_string(), draw_cap_error(1).to_string());
}
