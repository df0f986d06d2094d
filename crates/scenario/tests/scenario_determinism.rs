//! Cross-shard determinism and end-to-end behavior of the scenario
//! engine: a perturbed run (failure + cooling + traffic) must be
//! byte-identical at any shard count, the perturbations must actually
//! move the physics, the per-epoch completion count must agree with
//! the merged statistics, stepping epoch by epoch must equal one run,
//! and a schedule of no-op injections must equal no schedule at all.

use diskfleet::{EnclosureArray, Fleet, FleetConfig, RebuildSpec};
use diskscenario::{
    ArrivalSource, CoolingScope, EpochDriver, EpochSample, Injection, Scenario, ScenarioEngine,
};
use disksim::DiskSpec;
use diskthermal::DriveThermalSpec;
use units::{Inches, Rpm};
use workloads::{AccessProfile, ArrivalModel, SizeModel, TraceGenerator};

const ENCLOSURES: usize = 8;
const EPOCHS: u64 = 16;

fn fleet(threads: usize) -> Fleet {
    let mut config = FleetConfig::serial(
        ENCLOSURES,
        DiskSpec::era(2002, 1, Rpm::new(15_020.0)),
        DriveThermalSpec::new(Inches::new(2.6), 1),
        12.0,
    )
    .unwrap();
    config.array = Some(EnclosureArray {
        disks: 3,
        stripe_sectors: 65_536,
    });
    config.threads = threads;
    Fleet::new(config).unwrap()
}

fn source() -> ArrivalSource {
    let profile = AccessProfile {
        read_fraction: 0.7,
        sequential_fraction: 0.2,
        size: SizeModel::Fixed(16),
        hot_regions: 64,
        zipf_theta: 0.9,
    };
    let gen = TraceGenerator::new(profile, ArrivalModel::Poisson { rate: 400.0 }, 1, 1 << 22)
        .unwrap();
    ArrivalSource::Synthetic(gen.stream(97))
}

fn storm_scenario() -> Scenario {
    Scenario::new()
        .with(Injection::DriveFailure {
            at_epoch: 3,
            enclosure: 2,
            disk: 1,
            rebuild: RebuildSpec {
                rate_sectors_per_sec: 500_000.0,
                chunk_sectors: 4_096,
            },
        })
        .with(Injection::CoolingEvent {
            at_epoch: 5,
            duration_epochs: 6,
            ramp_epochs: 2,
            delta_c: 6.0,
            scope: CoolingScope::Enclosures { lo: 4, hi: 8 },
        })
        .with(Injection::TrafficShape {
            diurnal_period_epochs: 8,
            diurnal_amplitude: 0.4,
            flash_at_epoch: Some(10),
            flash_epochs: 3,
            flash_factor: 2.5,
        })
}

fn storm_driver(threads: usize) -> EpochDriver {
    EpochDriver::new(fleet(threads), source(), Some(ScenarioEngine::new(storm_scenario())))
}

/// A storm that finishes: small 1998-era members rebuild within three
/// epochs, so the later samples carry the finished rebuild's figures.
fn finishing_driver(threads: usize) -> EpochDriver {
    finishing_driver_of_era(1998, threads)
}

/// [`finishing_driver`] with members of the given era.
fn finishing_driver_of_era(year: i32, threads: usize) -> EpochDriver {
    let mut config = FleetConfig::serial(
        3,
        DiskSpec::era(year, 1, Rpm::new(7_200.0)),
        DriveThermalSpec::new(Inches::new(2.6), 1),
        12.0,
    )
    .unwrap();
    config.array = Some(EnclosureArray {
        disks: 3,
        stripe_sectors: 65_536,
    });
    config.threads = threads;
    let scenario = Scenario::new().with(Injection::DriveFailure {
        at_epoch: 1,
        enclosure: 1,
        disk: 1,
        rebuild: RebuildSpec {
            rate_sectors_per_sec: 4_000_000.0,
            chunk_sectors: 16_384,
        },
    });
    let fleet = Fleet::new(config).unwrap();
    EpochDriver::new(fleet, source(), Some(ScenarioEngine::new(scenario)))
}

fn ndjson(sink: &mut diskobs::Sink) -> String {
    sink.drain().iter().map(|e| e.to_ndjson_line() + "\n").collect()
}

fn run_at(threads: usize) -> (Vec<EpochSample>, String, String) {
    let mut driver = storm_driver(threads);
    let mut sink = diskobs::Sink::buffer();
    let mut samples = Vec::new();
    driver.run(EPOCHS, &mut sink, &mut samples).unwrap();
    let report = serde_json::to_string(&driver.fleet.report()).unwrap();
    (samples, ndjson(&mut sink), report)
}

#[test]
fn perturbed_run_is_byte_identical_at_any_shard_count() {
    let (s1, n1, r1) = run_at(1);
    for threads in [3, 8] {
        let (s, n, r) = run_at(threads);
        assert_eq!(s1, s, "samples diverge at {threads} shards");
        assert_eq!(n1, n, "event stream diverges at {threads} shards");
        assert_eq!(r1, r, "report diverges at {threads} shards");
    }
}

#[test]
fn injections_actually_perturb_the_run() {
    let (samples, ndjson, _) = run_at(4);

    // The rebuild storm starts at epoch 3 and makes progress.
    assert_eq!(samples[2].rebuild_total, 0);
    assert!(samples[3].rebuild_total > 0);
    assert!(
        samples[EPOCHS as usize - 1].rebuild_done > samples[3].rebuild_done,
        "rebuild advances epoch over epoch"
    );

    // The cooling excursion heats the scoped bays and then recovers:
    // peak local ambient during the hold exceeds both before and after.
    let before = samples[4].peak_ambient_c;
    let during = samples[7].peak_ambient_c;
    let after = samples[EPOCHS as usize - 1].peak_ambient_c;
    assert!(during > before + 4.0, "excursion heats the row ({before} -> {during})");
    assert!(during > after, "bias clears after the excursion ({during} -> {after})");

    // Traffic shaping moved the factor off 1 and through the flash.
    assert!((samples[0].traffic_factor - 1.0).abs() < 1e-12);
    assert!(samples[11].traffic_factor > 2.0, "flash crowd in force");

    // The boundary events landed in the stream.
    for needle in [
        "\"DriveFailed\"",
        "\"RebuildProgress\"",
        "\"CoolingExcursion\"",
        "\"TrafficPhase\"",
    ] {
        assert!(ndjson.contains(needle), "missing {needle} in event stream");
    }
}

#[test]
fn failure_injections_surface_fleet_errors() {
    let scenario = Scenario::new().with(Injection::DriveFailure {
        at_epoch: 0,
        enclosure: 99,
        disk: 0,
        rebuild: RebuildSpec::default(),
    });
    let mut driver = EpochDriver::new(fleet(1), source(), Some(ScenarioEngine::new(scenario)));
    let mut samples = Vec::new();
    let err = driver.run(2, &mut diskobs::Sink::null(), &mut samples).unwrap_err();
    assert!(err.to_string().contains("enclosure 99"));
    assert!(samples.is_empty(), "the failing epoch pushes no sample");
}

/// The three ways to count completions must agree: the O(enclosures)
/// status read, the merged reservoir, and the full report.
fn assert_counts_agree(fleet: &Fleet) -> u64 {
    let stats = fleet.stats();
    let count = stats.count();
    assert_eq!(count, stats.merged().count(), "status count vs merged reservoir");
    assert_eq!(count, fleet.report().stats.count(), "status count vs report");
    count
}

#[test]
fn status_count_equals_the_merged_and_reported_counts_every_epoch() {
    let mut runs = Vec::new();
    for threads in [1, 4] {
        let mut driver = storm_driver(threads);
        let mut samples = Vec::new();
        let mut counts = Vec::new();
        for epoch in 0..EPOCHS {
            if epoch == EPOCHS / 2 {
                driver.fleet.reset_stats();
                assert_eq!(assert_counts_agree(&driver.fleet), 0, "reset clears every bay");
            }
            // One epoch per step so every boundary can be read; the
            // driver holds the lookahead between steps, so this is the
            // same run as one multi-epoch call (see the chunked-run
            // oracle below).
            samples.push(driver.step(&mut diskobs::Sink::null()).unwrap());
            let count = assert_counts_agree(&driver.fleet);
            assert_eq!(count, samples.last().unwrap().completed, "sampled count");
            counts.push(count);
        }
        let half = EPOCHS as usize / 2;
        assert!(counts[half - 1] > 0 && counts[EPOCHS as usize - 1] > 0, "{counts:?}");
        assert!(samples.iter().any(|s| s.rebuild_total > 0), "the storm rebuilds");
        runs.push(counts);
    }
    assert_eq!(runs[0], runs[1], "counts diverge across shard counts");
}

#[test]
fn a_rebuild_finished_in_the_epoch_it_starts_reaches_the_sample() {
    // 1995-era members are small enough that the 4M sectors/s scan
    // ends inside the epoch the failure lands in, so the rebuild has
    // left the fleet's list before the sample is read.
    const MEMBER: u64 = 1_310_720;
    for threads in [1, 4] {
        let mut driver = finishing_driver_of_era(1995, threads);
        let mut sink = diskobs::Sink::buffer();
        let mut samples = Vec::new();
        driver.run(4, &mut sink, &mut samples).unwrap();
        assert!(driver.fleet.rebuilds().is_empty(), "the rebuild finished");
        let figures: Vec<(u64, u64)> =
            samples.iter().map(|s| (s.rebuild_done, s.rebuild_total)).collect();
        assert_eq!(figures, [(0, 0), (MEMBER, MEMBER), (MEMBER, MEMBER), (MEMBER, MEMBER)]);
        let progress: Vec<(f64, u64, u64)> = sink
            .drain()
            .into_iter()
            .filter_map(|e| match e.event {
                diskobs::Event::RebuildProgress { done, total, .. } => Some((e.t, done, total)),
                _ => None,
            })
            .collect();
        assert_eq!(progress, [(samples[0].time_s, MEMBER, MEMBER)], "the trace agrees");
    }
}

#[test]
fn stepping_epoch_by_epoch_equals_one_run() {
    let drivers: [fn(usize) -> EpochDriver; 2] = [storm_driver, finishing_driver];
    for threads in [1, 4] {
        for driver in drivers {
            let (mut whole, mut chunked) = (driver(threads), driver(threads));
            let (mut whole_sink, mut chunked_sink) =
                (diskobs::Sink::buffer(), diskobs::Sink::buffer());
            let mut whole_samples = Vec::new();
            whole.run(EPOCHS, &mut whole_sink, &mut whole_samples).unwrap();
            // One epoch per call, through both entry points in turn.
            let mut chunked_samples = Vec::new();
            for epoch in 0..EPOCHS {
                if epoch % 2 == 0 {
                    chunked_samples.push(chunked.step(&mut chunked_sink).unwrap());
                } else {
                    chunked.run(1, &mut chunked_sink, &mut chunked_samples).unwrap();
                }
            }

            assert_eq!(whole_samples, chunked_samples, "samples at {threads} shards");
            assert!(
                whole_samples.iter().any(|s| s.rebuild_total > 0),
                "the storm rebuilds, so the rebuild columns are compared"
            );
            if whole.fleet.rebuilds().is_empty() {
                let last = whole_samples.last().unwrap();
                assert!(
                    last.rebuild_total > 0 && last.rebuild_done == last.rebuild_total,
                    "a finished rebuild keeps its final figures: {last:?}"
                );
            }
            let whole_events = ndjson(&mut whole_sink);
            assert_eq!(whole_events, ndjson(&mut chunked_sink), "events at {threads} shards");
            let next_id = |d: &EpochDriver| d.lookahead().expect("a request is held ahead").id;
            assert_eq!(next_id(&whole), next_id(&chunked), "next request at {threads} shards");
            assert_eq!(
                serde_json::to_string(&whole.fleet.report()).unwrap(),
                serde_json::to_string(&chunked.fleet.report()).unwrap(),
            );
        }
    }
}

#[test]
fn no_op_injections_equal_no_scenario() {
    let no_ops = Scenario::new()
        .with(Injection::CoolingEvent {
            at_epoch: 2,
            duration_epochs: 4,
            ramp_epochs: 2,
            delta_c: 0.0,
            scope: CoolingScope::All,
        })
        .with(Injection::TrafficShape {
            diurnal_period_epochs: 0,
            diurnal_amplitude: 0.0,
            flash_at_epoch: Some(3),
            flash_epochs: 5,
            flash_factor: 1.0,
        });
    let run = |engine: Option<ScenarioEngine>| {
        let mut driver = EpochDriver::new(fleet(2), source(), engine);
        let mut sink = diskobs::Sink::buffer();
        let mut samples = Vec::new();
        driver.run(EPOCHS, &mut sink, &mut samples).unwrap();
        let report = serde_json::to_string(&driver.fleet.report()).unwrap();
        (samples, ndjson(&mut sink), report)
    };
    let (bare_samples, bare_events, bare_report) = run(None);
    let (samples, events, report) = run(Some(ScenarioEngine::new(no_ops)));
    assert!(bare_events.contains("RequestComplete"), "the run carries traffic");
    assert_eq!(bare_samples, samples);
    assert_eq!(bare_events, events, "no-op injections must leave the event stream untouched");
    assert_eq!(bare_report, report);
}
