//! Fork and restore oracles: a what-if with no perturbation forks into
//! exactly its own baseline, and a checkpoint whose replay source can
//! no longer move time forward is refused at restore instead of
//! stalling the epoch loop.

use diskscenario::ArrivalSource;
use disksim::{Request, RequestKind};
use disktwin::{decode, encode, whatif, Twin, TwinConfig, TwinError, TwinState, WhatIf};
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

#[test]
fn a_negative_replay_period_is_refused_at_restore() {
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

    let body = serde_json::to_string(&twin.capture_state()).unwrap();
    let key = "\"period\":";
    assert_eq!(
        body.matches(key).count(),
        1,
        "one replay period in the body"
    );
    let start = body.find(key).unwrap() + key.len();
    let end = start + body[start..].find(',').unwrap();
    let corrupt = format!("{}-1.0{}", &body[..start], &body[end..]);

    // Re-encoding recomputes the header checksum, so the corrupted body
    // passes the envelope checks and reaches the restore validation.
    let state: TwinState = serde_json::from_str(&corrupt).expect("still a well-formed body");
    let decoded = decode(&encode(&state).expect("encode")).expect("the envelope validates");
    match Twin::restore_state(decoded) {
        Err(TwinError::Config(msg)) => assert!(msg.contains("period"), "{msg}"),
        Err(other) => panic!("expected a config error, got {other}"),
        Ok(_) => panic!("a negative replay period must not restore"),
    }
}
