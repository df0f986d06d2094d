//! Trace-replay parity: an MSR-Cambridge trace written out, read back,
//! and replayed must drive a batch fleet (through the scenario driver)
//! and a live twin identically — the two event streams are
//! byte-identical NDJSON.

use diskfleet::{Fleet, FleetConfig};
use diskscenario::{ArrivalSource, EpochDriver, Scenario, ScenarioEngine};
use disksim::{DiskSpec, Request, RequestKind};
use diskthermal::DriveThermalSpec;
use disktwin::{Twin, TwinConfig};
use units::{Inches, Rpm, Seconds};
use workloads::{read_msr_trace, write_msr_trace};

const ENCLOSURES: usize = 4;
const EPOCHS: u64 = 6;

/// A small synthetic recording, round-tripped through the MSR CSV
/// format so the parity run exercises the real parser.
fn msr_trace() -> Vec<Request> {
    // Arrivals sit exactly on 100-ns MSR ticks so the CSV round-trip
    // is bit-exact (the format quantizes to FILETIME ticks).
    let recorded: Vec<Request> = (0..400u64)
        .map(|i| {
            Request::new(
                i,
                Seconds::new((i * 110_000) as f64 * 1e-7),
                0,
                (i * 37_199) % (1 << 22),
                if i % 5 == 0 { 64 } else { 8 },
                if i % 3 == 0 { RequestKind::Write } else { RequestKind::Read },
            )
        })
        .collect();
    let mut csv = Vec::new();
    write_msr_trace(&mut csv, &recorded, "src1").expect("write msr");
    let replayed = read_msr_trace(csv.as_slice()).expect("read msr");
    assert_eq!(recorded, replayed, "the CSV round-trip is exact");
    replayed
}

fn ndjson(sink: &mut diskobs::Sink) -> String {
    sink.drain().iter().map(|e| e.to_ndjson_line() + "\n").collect()
}

#[test]
fn msr_replay_drives_fleet_and_twin_identically() {
    let trace = msr_trace();
    let spec = DiskSpec::era(2002, 1, Rpm::new(15_020.0));
    let thermal = DriveThermalSpec::new(Inches::new(3.3), 1);

    // Batch path: a fleet stepped by the scenario driver.
    let mut config = FleetConfig::serial(ENCLOSURES, spec.clone(), thermal, 10.0)
        .expect("fleet config");
    config.routing = diskfleet::RoutingPolicy::ThermalAware {
        envelope: diskthermal::THERMAL_ENVELOPE,
    };
    let fleet = Fleet::new(config).expect("fleet builds");
    let source = ArrivalSource::replay(trace.clone()).expect("replay source");
    let engine = ScenarioEngine::new(Scenario::new());
    let mut fleet_sink = diskobs::Sink::buffer();
    let mut samples = Vec::new();
    EpochDriver::new(fleet, source, Some(engine))
        .run(EPOCHS, &mut fleet_sink, &mut samples)
        .expect("fleet run");

    // Twin path: the same recording through Twin::with_source. The
    // preset only shapes the fleet; spec/thermal/stream are overridden
    // to match the batch fleet exactly.
    let mut twin_cfg = TwinConfig::preset(workloads::oltp(), ENCLOSURES);
    twin_cfg.spec = spec;
    twin_cfg.thermal = thermal;
    twin_cfg.stream_w_per_k = 10.0;
    let twin_source = ArrivalSource::replay(trace).expect("replay source");
    let mut twin = Twin::with_source(twin_cfg, twin_source).expect("twin builds");
    let mut twin_sink = diskobs::Sink::buffer();
    for _ in 0..EPOCHS {
        twin.advance_epoch_with_sink(&mut twin_sink).expect("advance");
    }

    let fleet_events = ndjson(&mut fleet_sink);
    let twin_events = ndjson(&mut twin_sink);
    assert!(
        fleet_events.contains("RequestComplete"),
        "the replay actually produced traffic"
    );
    assert_eq!(
        fleet_events, twin_events,
        "fleet and twin event streams must be byte-identical"
    );
}
