//! Isolated layer probes for the traced run: one bay's share of a
//! workload's arrivals through `StorageSystem`, the thermal transient
//! alone, and the coupled drive window alone. Each runs a fixed amount
//! of work, so its count repeats exactly, inside one span; a per-call
//! figure is that span over the call count, so no timer runs per call.

use crate::spans::Tracer;
use disksim::{Completion, DiskSpec, Request, StorageSystem, SystemConfig};
use diskthermal::{DriveThermalSpec, OperatingPoint, ThermalModel, ThermalParams, TransientSim};
use dtm::WindowedDrive;
use units::Seconds;
use workloads::{TraceGenerator, WorkloadPreset};

/// The fleet's control window and the drive's thermal step.
const WINDOW: Seconds = Seconds::new(0.25);
const THERMAL_DT: Seconds = Seconds::new(0.05);

/// What one bay of a workload serves.
pub struct Bay {
    pub spec: DiskSpec,
    pub thermal: DriveThermalSpec,
    pub preset: WorkloadPreset,
    pub system: SystemConfig,
    /// Fail member 1 before replaying (degraded RAID-5).
    pub degraded: bool,
    /// This bay's share of the fleet-wide rate, requests/s.
    pub rate: f64,
}

pub struct ProbeResult {
    pub disksim_requests: u64,
    pub disksim_ns_per_request: f64,
    pub thermal_steps: u64,
    pub thermal_step_ns: f64,
    pub dtm_serve_window_us: f64,
}

fn system(bay: &Bay) -> Result<StorageSystem, String> {
    let mut system = StorageSystem::new(bay.system.clone()).map_err(|e| e.to_string())?;
    if bay.degraded {
        system.fail_disk(1).map_err(|e| e.to_string())?;
    }
    Ok(system)
}

fn arrivals(bay: &Bay, capacity: u64, n: usize, seed: u64) -> Result<Vec<Request>, String> {
    let generator = TraceGenerator::new(
        bay.preset.profile.clone(),
        bay.preset.arrivals.with_mean_rate(bay.rate),
        1,
        capacity,
    )?;
    Ok(generator.generate(n, seed))
}

/// Runs the three probes with `requests` arrivals, `steps` thermal
/// steps, and windows covering the same arrivals.
pub fn run(
    bay: &Bay,
    seed: u64,
    requests: usize,
    steps: u64,
    tracer: &mut Tracer,
) -> Result<ProbeResult, String> {
    // disksim: submit each window's arrivals, then advance to its end.
    let mut sys = system(bay)?;
    let trace = arrivals(bay, sys.logical_sectors(), requests, seed)?;
    let mut out: Vec<Completion> = Vec::new();
    let mut completed = 0u64;
    let span = tracer.begin("disksim.probe");
    let mut next = 0;
    let mut window_end = WINDOW;
    while next < trace.len() || sys.in_flight() > 0 {
        while next < trace.len() && trace[next].arrival <= window_end {
            sys.submit(trace[next]).map_err(|e| e.to_string())?;
            next += 1;
        }
        sys.advance_to_into(window_end, &mut out);
        completed += out.len() as u64;
        out.clear();
        window_end += WINDOW;
    }
    tracer.end(span);
    let disksim_ns = tracer.total("disksim.probe").0 as f64;

    // thermal: the drive's transient at a busy operating point.
    let model = ThermalModel::with_params(bay.thermal, ThermalParams::default());
    let op = OperatingPoint::new(bay.spec.rpm(), 0.35);
    let mut sim = TransientSim::from_ambient(&model)
        .with_step(THERMAL_DT)
        .map_err(|e| e.to_string())?;
    let span = tracer.begin("thermal.probe");
    for _ in 0..steps {
        sim.step(&model, op);
    }
    tracer.end(span);
    std::hint::black_box(sim.temps());
    let thermal_ns = tracer.total("thermal.probe").0 as f64;

    // dtm: the coupled drive serving the same arrivals window by window.
    let mut drive = WindowedDrive::new(system(bay)?, model);
    let mut windows = 0u64;
    let span = tracer.begin("dtm.probe");
    let mut next = 0;
    let mut window_end = WINDOW;
    while next < trace.len() || drive.in_flight() > 0 {
        while next < trace.len() && trace[next].arrival <= window_end {
            drive.submit(trace[next]).map_err(|e| e.to_string())?;
            next += 1;
        }
        drive.serve_window(window_end, WINDOW, &mut out);
        out.clear();
        windows += 1;
        window_end += WINDOW;
    }
    tracer.end(span);
    let (dtm_ns, _) = tracer.total("dtm.probe");

    Ok(ProbeResult {
        disksim_requests: completed,
        disksim_ns_per_request: disksim_ns / completed.max(1) as f64,
        thermal_steps: steps,
        thermal_step_ns: thermal_ns / steps.max(1) as f64,
        dtm_serve_window_us: dtm_ns as f64 / 1e3 / windows.max(1) as f64,
    })
}
