//! The repository benchmark.
//!
//! ```text
//! perfbench --workload <rebuild|hall|twin|trace> --seed <n> --seconds <s> --trace <0|1> [--size full|small]
//! ```
//!
//! With `--trace 0` a run measures its workload with every timer off
//! and ends with the end-to-end metrics; with `--trace 1` it repeats the
//! workload with spans around every call into a layer, adds the
//! isolated layer probes, writes the spans under `perfbench/out/`, and
//! ends with the per-layer metrics. Either way it checks the simulated
//! output and ends with one JSON line:
//! `{"correct":..,"attempted":..,"failed":..,"metrics":{..}}`.
//! See `perfbench/README.md` for the workload → layer → metric map.

mod fleetload;
mod probes;
mod report;
mod spans;
mod twinload;

use fleetload::{Kind, Shape, Until};
use report::{median, percentile, Outcome};
use spans::Tracer;
use std::path::PathBuf;
use std::process::ExitCode;
use twinload::TwinShape;

/// Largest share of a traced loop's wall time that the timed layer
/// calls may leave unaccounted for.
const RECONCILE_TOLERANCE_PCT: f64 = 5.0;

/// Run size: `full` is the benchmark; `small` is the smoke test's.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    Full,
    Small,
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    size: Size,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut size) =
        (None, None, None, false, Size::Full);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                let s = value()?
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--size" => {
                size = match value()?.as_str() {
                    "full" => Size::Full,
                    "small" => Size::Small,
                    other => return Err(format!("--size takes full or small, not {other:?}")),
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
        size,
    })
}

fn bench_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// The committed artifacts the reference episodes are compared with.
pub fn results_path(file: &str) -> PathBuf {
    bench_dir().join("..").join("results").join(file)
}

/// The recorded digest of a resized reference episode.
pub fn reference_digest(workload: &str) -> Option<String> {
    let text = std::fs::read_to_string(bench_dir().join("reference.json")).ok()?;
    let json: serde_json::Value = serde_json::from_str(&text).ok()?;
    json.get("small")?
        .get(workload)?
        .as_str()
        .map(str::to_string)
}

fn shards() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let mut out = Outcome::default();
    let mut tracer = Tracer::new(args.trace);
    let result = match args.workload.as_str() {
        "rebuild" => fleet_workload(Kind::Rebuild, &args, &mut tracer, &mut out),
        "hall" => fleet_workload(Kind::Hall, &args, &mut tracer, &mut out),
        "trace" => fleet_workload(Kind::Trace, &args, &mut tracer, &mut out),
        "twin" => twin_workload(&args, &mut tracer, &mut out),
        other => Err(format!(
            "unknown workload {other:?} (rebuild, hall, twin, trace)"
        )),
    };
    if let Err(e) = result {
        eprintln!("perfbench: {}: {e}", args.workload);
        return ExitCode::from(1);
    }
    if args.trace {
        let path = bench_dir()
            .join("out")
            .join(format!("spans-{}-seed{}.ndjson", args.workload, args.seed));
        match tracer.write_ndjson(&path) {
            Ok(()) => eprintln!(
                "perfbench: {} spans written to {}",
                tracer.spans().len(),
                path.display()
            ),
            Err(e) => eprintln!("perfbench: writing {}: {e}", path.display()),
        }
    } else {
        out.metric("ok_ratio", out.ok_ratio(), "ratio");
    }

    for (what, ok) in &out.checks {
        println!("check {}: {what}", if *ok { "ok  " } else { "FAIL" });
    }
    println!("provenance {}", report::provenance_json(&out));
    for m in &out.metrics {
        println!("metric {:<32} {:>16.6} {}", m.name, m.value, m.unit);
    }
    println!("{}", report::result_json(&out));
    ExitCode::SUCCESS
}

fn provenance(out: &mut Outcome, args: &Args, shards: usize, rate: f64, runs: u64) {
    let size = match args.size {
        Size::Full => "full",
        Size::Small => "small",
    };
    out.note("workload", format!("\"{}\"", args.workload));
    out.note("commit", format!("\"{}\"", report::git_commit()));
    out.note("nproc", shards);
    out.note("shards", shards);
    out.note("seed", args.seed);
    out.note("rate", format!("{rate:?}"));
    out.note("runs", runs);
    out.note("seconds", format!("{:?}", args.seconds));
    out.note("trace", u8::from(args.trace));
    out.note("size", format!("\"{size}\""));
}

/// Every per-layer row, in print order, with its unit. A workload that
/// does not exercise a layer reports its rows as 0.
const LAYER_ROWS: [(&str, &str); 41] = [
    ("workloads.draw_ns", "ns"),
    ("workloads.draws", "count"),
    ("scenario.apply_epoch_us", "us"),
    ("scenario.injections", "count"),
    ("fleet.config_ms", "ms"),
    ("fleet.new_ms", "ms"),
    ("fleet.offer_ns", "ns"),
    ("fleet.step_epoch_ms.p50", "ms"),
    ("fleet.step_epoch_ms.p99", "ms"),
    ("fleet.status_read_us", "us"),
    ("fleet.ns_per_enclosure_epoch", "ns"),
    ("fleet.parallel_phase_ms", "ms"),
    ("fleet.serial_phase_ms", "ms"),
    ("fleet.serial_fraction", "ratio"),
    ("fleet.backlog_end", "count"),
    ("disksim.ns_per_request", "ns"),
    ("disksim.requests", "count"),
    ("thermal.step_ns", "ns"),
    ("thermal.steps", "count"),
    ("dtm.serve_window_us", "us"),
    ("obs.events", "count"),
    ("obs.bytes", "B"),
    ("obs.ns_per_event", "ns"),
    ("obs.recording_overhead_pct", "%"),
    ("twin.whatif_ms", "ms"),
    ("twin.fork_ms", "ms"),
    ("twin.capture_state_ms", "ms"),
    ("twin.query_parse_us", "us"),
    ("twin.advance_epoch_ms", "ms"),
    ("twin.live_epochs_per_s", "1/s"),
    ("twin.rejected", "count"),
    ("client.sent", "count"),
    ("client.succeeded", "count"),
    ("client.failed", "count"),
    ("client.send_late_p99_ms", "ms"),
    ("client.whatif_p99_ms", "ms"),
    ("client.status_p50_ms", "ms"),
    ("client.status_p99_ms", "ms"),
    ("bench.unattributed_pct", "%"),
    ("bench.tracing_overhead_pct", "%"),
    ("bench.clock_ghz", "GHz"),
];

/// Reports every layer row, taking values from `values` and 0 for the
/// rest.
fn layer_rows(out: &mut Outcome, values: &[(&str, f64)]) {
    for (name, _) in values {
        assert!(
            LAYER_ROWS.iter().any(|(n, _)| n == name),
            "{name} is not a layer row"
        );
    }
    for (name, unit) in LAYER_ROWS {
        let value = values.iter().find(|(n, _)| *n == name).map_or(0.0, |v| v.1);
        out.metric(name, value, unit);
    }
}

/// The isolated-probe rows for `bay`.
fn probe_rows(
    bay: &probes::Bay,
    args: &Args,
    tracer: &mut Tracer,
) -> Result<Vec<(&'static str, f64)>, String> {
    let (requests, steps) = match args.size {
        Size::Full => (20_000, 200_000),
        Size::Small => (2_000, 20_000),
    };
    let p = probes::run(bay, args.seed, requests, steps, tracer)?;
    Ok(vec![
        ("disksim.ns_per_request", p.disksim_ns_per_request),
        ("disksim.requests", p.disksim_requests as f64),
        ("thermal.step_ns", p.thermal_step_ns),
        ("thermal.steps", p.thermal_steps as f64),
        ("dtm.serve_window_us", p.dtm_serve_window_us),
    ])
}

fn setup_reps(kind: Kind) -> usize {
    match kind {
        Kind::Hall => 2,
        Kind::Rebuild | Kind::Trace => 7,
    }
}

/// Arrival streams a run cycles through.
fn streams(kind: Kind) -> usize {
    match kind {
        Kind::Hall => 3,
        Kind::Rebuild | Kind::Trace => 6,
    }
}

fn fleet_workload(
    kind: Kind,
    args: &Args,
    tracer: &mut Tracer,
    out: &mut Outcome,
) -> Result<(), String> {
    let shape = Shape::of(kind, args.size);
    let shards = shards();
    // The traced run spends half its time traced and then repeats as
    // many episodes untraced, for the tracing overhead.
    let seconds = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let seeds = report::subseeds(args.seed, streams(kind));
    let (data, summaries) = fleetload::episodes(
        shape,
        &seeds,
        shards,
        Until::Seconds(seconds),
        setup_reps(kind),
        args.trace,
        tracer,
    )?;
    out.ops += data.times.epoch_ms.len() as u64;
    fleetload::verify(shape, args.size, &seeds, shards, &data, &summaries, out)?;
    provenance(out, args, shards, shape.rate, data.episodes);
    out.note("episodes", data.episodes);
    out.note("streams", seeds.len());
    out.note("enclosures", shape.enclosures);
    if !args.trace {
        fleetload::e2e_metrics(&data, out);
        return Ok(());
    }

    tracer.set_enabled(false);
    let (plain, _) = fleetload::episodes(
        shape,
        &seeds,
        shards,
        Until::Episodes(data.episodes),
        1,
        true,
        tracer,
    )?;
    tracer.set_enabled(true);
    let rate = |t: &fleetload::LoopTimes| t.enclosure_s / t.loop_s();
    let tracing_overhead_pct = (rate(&plain.times) / rate(&data.times) - 1.0) * 100.0;

    // Reconciliation: the episode loops' wall time against the sum of
    // the timed layer calls inside them.
    let (episode_ns, _) = tracer.total("episode");
    let (in_epoch_ns, _) = tracer.child_coverage("epoch");
    let (status_ns, _) = tracer.total("fleet.status");
    let unattributed_pct =
        (episode_ns as f64 - (in_epoch_ns + status_ns) as f64) / episode_ns.max(1) as f64 * 100.0;
    out.check(
        format!(
            "{}: layer rows reconcile with the loop wall time ({unattributed_pct:.2}% unattributed, \
             tolerance {RECONCILE_TOLERANCE_PCT}%)",
            kind.name()
        ),
        unattributed_pct.abs() <= RECONCILE_TOLERANCE_PCT,
    );

    let t = &data.times;
    let (draw_ns, _) = tracer.total("workloads.draw");
    let (gen_ns, generations) = tracer.total("workloads.generate");
    let draws = t.draws + generations * shape.requests as u64;
    let (apply_ns, applies) = tracer.total("scenario.apply_epoch");
    let (offer_ns, _) = tracer.total("fleet.offer");
    let (step_ns, steps) = tracer.total("fleet.step_epoch");
    let step_ms = tracer.durations_ms("fleet.step_epoch");
    let epochs = steps.max(1) as f64;
    let mut values = vec![
        (
            "workloads.draw_ns",
            (draw_ns + gen_ns) as f64 / draws.max(1) as f64,
        ),
        ("workloads.draws", draws as f64),
        (
            "scenario.apply_epoch_us",
            apply_ns as f64 / applies.max(1) as f64 / 1e3,
        ),
        ("scenario.injections", t.injections as f64),
        (
            "fleet.config_ms",
            median(&tracer.durations_ms("fleet.config")),
        ),
        ("fleet.new_ms", median(&tracer.durations_ms("fleet.new"))),
        ("fleet.offer_ns", offer_ns as f64 / t.offered.max(1) as f64),
        ("fleet.step_epoch_ms.p50", median(&step_ms)),
        ("fleet.step_epoch_ms.p99", percentile(&step_ms, 0.99)),
        ("fleet.status_read_us", median(&t.read_ms) * 1e3),
        (
            "fleet.ns_per_enclosure_epoch",
            step_ns as f64 / (epochs * shape.enclosures as f64),
        ),
        ("fleet.parallel_phase_ms", t.profile.parallel_ms / epochs),
        ("fleet.serial_phase_ms", t.profile.serial_ms / epochs),
        ("fleet.serial_fraction", t.profile.serial_fraction()),
        (
            "fleet.backlog_end",
            t.backlog_end as f64 / data.episodes.max(1) as f64,
        ),
        ("bench.unattributed_pct", unattributed_pct),
        ("bench.tracing_overhead_pct", tracing_overhead_pct),
        ("bench.clock_ghz", median(&data.clock_ghz)),
    ];
    if kind == Kind::Trace {
        // Host seconds per simulated enclosure-second, recorded against
        // the interleaved null-sink episodes.
        let per = |(s, e): (f64, f64)| s / e;
        let (rec, null) = (per(data.recorded_loop), per(data.null_loop));
        let extra_s = (rec - null) * data.recorded_loop.1;
        values.extend([
            ("obs.events", data.obs_events as f64),
            ("obs.bytes", data.obs_bytes as f64),
            (
                "obs.ns_per_event",
                extra_s * 1e9 / data.obs_events.max(1) as f64,
            ),
            ("obs.recording_overhead_pct", (rec / null - 1.0) * 100.0),
        ]);
    }
    let bay = shape.probe_bay();
    values.extend(probe_rows(&bay, args, tracer)?);
    layer_rows(out, &values);
    Ok(())
}

fn twin_workload(args: &Args, tracer: &mut Tracer, out: &mut Outcome) -> Result<(), String> {
    let shape = TwinShape::of(args.size);
    let shards = shards();
    let run = twinload::measure(shape, args.seed, shards, args.seconds, 3, tracer, out)?;
    provenance(out, args, shards, shape.rate(), run.setup_s.len() as u64);
    out.note("connections", run.connections);
    out.note("queries", run.sent);
    // Warm-up queries: every set-up answers each pinned what-if and one
    // status before any sample is taken; a failure aborts the run.
    out.note("warmup_queries", run.setup_s.len() * (twinload::PINNED + 1));
    if !args.trace {
        twinload::e2e_metrics(&run, out);
        return Ok(());
    }

    // The in-process twin calls, traced and then untraced for the
    // tracing overhead.
    let reps = if args.size == Size::Full { 5 } else { 1 };
    let probe = twinload::probe(shape, args.seed, shards, reps, tracer)?;
    tracer.set_enabled(false);
    let started = std::time::Instant::now();
    twinload::probe(shape, args.seed, shards, reps, tracer)?;
    let plain_s = started.elapsed().as_secs_f64();
    tracer.set_enabled(true);
    let (probe_ns, _) = tracer.total("twin.probe");
    let (covered_ns, _) = tracer.child_coverage("twin.probe");

    let mut values = vec![
        ("twin.whatif_ms", probe.whatif_ms),
        ("twin.fork_ms", probe.fork_ms),
        ("twin.capture_state_ms", probe.capture_state_ms),
        ("twin.query_parse_us", probe.query_parse_us),
        ("twin.advance_epoch_ms", probe.advance_epoch_ms),
        (
            "twin.live_epochs_per_s",
            run.live_epochs as f64 / run.measure_s,
        ),
        ("twin.rejected", run.rejected as f64),
        ("client.sent", run.sent as f64),
        ("client.succeeded", run.succeeded as f64),
        ("client.failed", run.failed as f64),
        ("client.send_late_p99_ms", percentile(&run.late_ms, 0.99)),
        ("client.whatif_p99_ms", percentile(&run.whatif_ms, 0.99)),
        ("client.status_p50_ms", median(&run.status_ms)),
        ("client.status_p99_ms", percentile(&run.status_ms, 0.99)),
        (
            "bench.unattributed_pct",
            (probe_ns - covered_ns) as f64 / probe_ns.max(1) as f64 * 100.0,
        ),
        (
            "bench.tracing_overhead_pct",
            (probe_ns as f64 / 1e9 / plain_s - 1.0) * 100.0,
        ),
        (
            "bench.clock_ghz",
            median(&(0..5).map(|_| report::clock_ghz()).collect::<Vec<_>>()),
        ),
    ];
    values.extend(probe_rows(&shape.probe_bay(), args, tracer)?);
    layer_rows(out, &values);
    Ok(())
}
