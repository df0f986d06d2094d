//! The `twin` workload: an in-process `TwinServer` on a fixed preset,
//! queried over TCP by a single-process open-loop client.
//!
//! The client sends a seeded Poisson schedule of `status` reads and
//! pinned `whatif` queries over at most `nproc` connections, each query
//! timed from when it was due. Pinned answers are deterministic, so
//! every one is byte-compared with an in-process `twin::whatif` on the
//! same snapshot.

use crate::probes::Bay;
use crate::report::{median, splitmix64, Outcome};
use crate::spans::Tracer;
use crate::Size;
use disksim::SystemConfig;
use disktwin::{whatif, QueryMsg, ServerConfig, Twin, TwinConfig, TwinServer, WhatIf};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Server and client settings.
#[derive(Debug, Clone, Copy)]
pub struct TwinShape {
    pub enclosures: usize,
    /// Live-twin arrival rate, requests/s.
    pub arrival_rate: f64,
    /// Wall-clock pacing between live epochs, ms.
    pub epoch_interval_ms: u64,
    /// Fork horizon of every what-if query, epochs.
    pub horizon: u64,
    /// Offered query rates, queries/s.
    pub status_rate: f64,
    pub whatif_rate: f64,
}

impl TwinShape {
    pub fn of(size: Size) -> Self {
        match size {
            Size::Full => TwinShape {
                enclosures: 4,
                arrival_rate: 120.0,
                epoch_interval_ms: 50,
                horizon: 4,
                status_rate: 30.0,
                whatif_rate: 30.0,
            },
            Size::Small => TwinShape {
                enclosures: 2,
                arrival_rate: 60.0,
                epoch_interval_ms: 20,
                horizon: 2,
                status_rate: 20.0,
                whatif_rate: 5.0,
            },
        }
    }

    /// Total offered query rate.
    pub fn rate(&self) -> f64 {
        self.status_rate + self.whatif_rate
    }

    /// One enclosure's share of the live twin, for the layer probes.
    pub fn probe_bay(&self) -> Bay {
        let config = self.config(0, 1);
        Bay {
            system: SystemConfig::single_disk(config.spec.clone()),
            spec: config.spec,
            thermal: config.thermal,
            preset: config.workload,
            degraded: false,
            rate: self.arrival_rate / self.enclosures as f64,
        }
    }

    fn config(&self, seed: u64, shards: usize) -> TwinConfig {
        let mut workload = workloads::oltp();
        workload.arrivals = workload.arrivals.with_mean_rate(self.arrival_rate);
        let mut config = TwinConfig::preset(workload, self.enclosures);
        config.seed = seed;
        config.threads = shards;
        config
    }
}

/// Number of pinned what-if queries.
pub const PINNED: usize = 4;

/// The pinned what-if queries and the snapshot epoch each is pinned to.
fn pinned() -> [(u64, WhatIf); PINNED] {
    [
        (
            2,
            WhatIf {
                inlet_delta_c: Some(5.0),
                ..WhatIf::default()
            },
        ),
        (
            3,
            WhatIf {
                traffic_scale: Some(1.3),
                ..WhatIf::default()
            },
        ),
        (
            4,
            WhatIf {
                add_drives: Some(2),
                ..WhatIf::default()
            },
        ),
        (
            5,
            WhatIf {
                cooling_delta_c: Some(4.0),
                cooling_epochs: Some(2),
                ..WhatIf::default()
            },
        ),
    ]
}

fn opt<T: std::fmt::Debug>(key: &str, v: Option<T>) -> String {
    v.map_or(String::new(), |v| format!(",\"{key}\":{v:?}"))
}

/// The request line for pinned query `k`.
fn whatif_line(k: usize, horizon: u64) -> String {
    let (epoch, q) = pinned()[k];
    format!(
        "{{\"cmd\":\"whatif\"{}{}{}{}{},\"horizon_epochs\":{horizon},\"at_epoch\":{epoch}}}",
        opt("inlet_delta_c", q.inlet_delta_c),
        opt("traffic_scale", q.traffic_scale),
        opt("add_drives", q.add_drives),
        opt("cooling_delta_c", q.cooling_delta_c),
        opt("cooling_epochs", q.cooling_epochs),
    )
}

const STATUS_LINE: &str = "{\"cmd\":\"status\"}";

/// One scheduled query: its due offset and which query it is
/// (`None` = status, `Some(k)` = pinned what-if `k`).
#[derive(Debug, Clone, Copy)]
struct Planned {
    due: Duration,
    whatif: Option<usize>,
}

fn unit(state: &mut u64) -> f64 {
    (splitmix64(state) >> 11) as f64 / (1u64 << 53) as f64
}

/// A Poisson schedule over `seconds` with the shape's query mix.
fn schedule(shape: &TwinShape, seed: u64, seconds: f64) -> Vec<Planned> {
    let mut state = seed ^ 0x7477_696e_7363_6864;
    let mut t = 0.0;
    let mut out = Vec::new();
    loop {
        t += -(1.0 - unit(&mut state)).ln() / shape.rate();
        if t >= seconds {
            return out;
        }
        let whatif = (unit(&mut state) < shape.whatif_rate / shape.rate())
            .then(|| (splitmix64(&mut state) % pinned().len() as u64) as usize);
        out.push(Planned {
            due: Duration::from_secs_f64(t),
            whatif,
        });
    }
}

/// What one query saw.
#[derive(Debug, Clone, Copy)]
struct Answer {
    whatif: Option<usize>,
    due: Instant,
    sent: Instant,
    received: Instant,
    /// 0 ok, 1 error reply (`overloaded` counted apart), 2 wrong answer,
    /// 3 no answer.
    status: u8,
    overloaded: bool,
}

/// Drives one connection: a sender thread writes each query when due
/// (open loop), this thread reads the replies in order.
fn connection(
    addr: &str,
    start: Instant,
    plan: &[Planned],
    expected: &[String],
    enclosures: usize,
    horizon: u64,
) -> Vec<Answer> {
    let mut answers = Vec::with_capacity(plan.len());
    let Ok(stream) = TcpStream::connect(addr) else {
        return plan
            .iter()
            .map(|p| Answer {
                whatif: p.whatif,
                due: start + p.due,
                sent: start + p.due,
                received: start + p.due,
                status: 3,
                overloaded: false,
            })
            .collect();
    };
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(Duration::from_secs(30)));
    let mut writer = stream.try_clone().expect("a connected socket clones");
    let lines: Vec<String> = (0..pinned().len())
        .map(|k| whatif_line(k, horizon))
        .collect();
    let (tx, rx) = mpsc::channel::<(Planned, Instant)>();
    std::thread::scope(|scope| {
        scope.spawn(move || {
            for p in plan {
                let due = start + p.due;
                let now = Instant::now();
                if due > now {
                    std::thread::sleep(due - now);
                }
                let line = p.whatif.map_or(STATUS_LINE, |k| lines[k].as_str());
                let sent = Instant::now();
                if writer
                    .write_all(line.as_bytes())
                    .and_then(|()| writer.write_all(b"\n"))
                    .is_err()
                {
                    break;
                }
                if tx.send((*p, sent)).is_err() {
                    break;
                }
            }
            // Dropping `tx` tells the reader the schedule is done.
        });
        let mut reader = BufReader::new(stream);
        let mut line = String::new();
        for (p, sent) in rx {
            line.clear();
            let got = reader.read_line(&mut line);
            let received = Instant::now();
            let reply = line.trim_end();
            let overloaded = reply.contains("\"overloaded\"");
            let status = match got {
                Ok(n) if n > 0 => match p.whatif {
                    Some(k) if reply == expected[k] => 0,
                    Some(_) if reply.starts_with("{\"error\"") => 1,
                    Some(_) => 2,
                    None => status_ok(reply, enclosures),
                },
                _ => 3,
            };
            answers.push(Answer {
                whatif: p.whatif,
                due: start + p.due,
                sent,
                received,
                status,
                overloaded,
            });
        }
    });
    answers
}

fn status_ok(reply: &str, enclosures: usize) -> u8 {
    if reply.starts_with("{\"error\"") {
        return 1;
    }
    let parsed: Result<serde_json::Value, _> = serde_json::from_str(reply);
    match parsed {
        Ok(v)
            if v.get("enclosures").and_then(serde_json::Value::as_u64)
                == Some(enclosures as u64) =>
        {
            0
        }
        _ => 2,
    }
}

fn server_config(shape: &TwinShape) -> ServerConfig {
    ServerConfig {
        max_inflight: 4,
        // Pinned snapshots must outlive the run; pacing bounds the count.
        snapshot_history: 100_000,
        epoch_interval_ms: shape.epoch_interval_ms,
        default_horizon: shape.horizon,
        ..ServerConfig::default()
    }
}

/// Starts a server and warms it: every pinned snapshot published, and
/// each pinned query and a status answered once. None of it is sampled.
fn start_warm(shape: &TwinShape, seed: u64, shards: usize) -> Result<TwinServer, String> {
    let twin = Twin::new(shape.config(seed, shards)).map_err(|e| e.to_string())?;
    let server = TwinServer::start(twin, server_config(shape)).map_err(|e| e.to_string())?;
    let last_pin = pinned().iter().map(|(e, _)| *e).max().unwrap_or(0);
    let deadline = Instant::now() + Duration::from_secs(30);
    while server.epoch() < last_pin {
        if Instant::now() > deadline {
            return Err("twin server never reached the pinned epochs".into());
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    let addr = server.addr().to_string();
    let timeout = Duration::from_secs(30);
    disktwin::query_line(&addr, STATUS_LINE, timeout).map_err(|e| e.to_string())?;
    for k in 0..pinned().len() {
        disktwin::query_line(&addr, &whatif_line(k, shape.horizon), timeout)
            .map_err(|e| e.to_string())?;
    }
    Ok(server)
}

/// The in-process answer every pinned query must reproduce, in
/// `pinned()` order.
fn expected_answers(shape: &TwinShape, seed: u64, shards: usize) -> Result<Vec<String>, String> {
    let mut twin = Twin::new(shape.config(seed, shards)).map_err(|e| e.to_string())?;
    let mut answers = Vec::new();
    for (epoch, q) in pinned() {
        while twin.epoch() < epoch {
            twin.advance_epoch().map_err(|e| e.to_string())?;
        }
        let report =
            whatif(&twin.capture_state(), &q, shape.horizon, None).map_err(|e| e.to_string())?;
        answers.push(serde_json::to_string(&report).map_err(|e| e.to_string())?);
    }
    Ok(answers)
}

/// What the twin run gathered.
pub struct TwinRun {
    pub setup_s: Vec<f64>,
    pub whatif_ms: Vec<f64>,
    pub status_ms: Vec<f64>,
    pub late_ms: Vec<f64>,
    pub sent: u64,
    pub succeeded: u64,
    pub failed: u64,
    pub rejected: u64,
    pub live_epochs: u64,
    pub measure_s: f64,
    /// Peak resident set when the client finishes, server still up.
    pub peak_rss_mb: f64,
    pub enclosures: usize,
    pub connections: usize,
}

/// Runs the twin workload for `seconds`.
pub fn measure(
    shape: TwinShape,
    seed: u64,
    shards: usize,
    seconds: f64,
    setup_reps: usize,
    tracer: &mut Tracer,
    out: &mut Outcome,
) -> Result<TwinRun, String> {
    let expected = expected_answers(&shape, seed, shards)?;

    let mut setup_s = Vec::new();
    let mut server = None;
    for rep in 0..setup_reps.max(1) {
        let t = Instant::now();
        let s = tracer.time("setup", || start_warm(&shape, seed, shards))?;
        setup_s.push(t.elapsed().as_secs_f64());
        if rep + 1 < setup_reps {
            s.stop();
        } else {
            server = Some(s);
        }
    }
    let server = server.expect("the last set-up is kept");
    let addr = server.addr().to_string();

    let plan = schedule(&shape, seed, seconds);
    let connections = shards.max(1);
    let mut per_conn: Vec<Vec<Planned>> = vec![Vec::new(); connections];
    for (i, p) in plan.iter().enumerate() {
        per_conn[i % connections].push(*p);
    }

    let epoch0 = server.epoch();
    let start = Instant::now() + Duration::from_millis(5);
    let answers: Vec<Answer> = std::thread::scope(|scope| {
        let handles: Vec<_> = per_conn
            .iter()
            .map(|plan| {
                let addr = addr.as_str();
                let expected = &expected;
                scope.spawn(move || {
                    connection(addr, start, plan, expected, shape.enclosures, shape.horizon)
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client connection thread"))
            .collect()
    });
    let measure_s = start.elapsed().as_secs_f64();
    let live_epochs = server.epoch() - epoch0;
    let peak_rss_mb = crate::report::peak_rss_mb();
    server.stop();

    let mut run = TwinRun {
        setup_s,
        whatif_ms: Vec::new(),
        status_ms: Vec::new(),
        late_ms: Vec::new(),
        sent: answers.len() as u64,
        succeeded: 0,
        failed: plan.len() as u64 - answers.iter().filter(|a| a.status != 3).count() as u64,
        rejected: 0,
        live_epochs,
        measure_s,
        peak_rss_mb,
        enclosures: shape.enclosures,
        connections,
    };
    let mut wrong = 0;
    for a in &answers {
        let ms = (a.received - a.due).as_secs_f64() * 1e3;
        run.late_ms
            .push(a.sent.saturating_duration_since(a.due).as_secs_f64() * 1e3);
        match a.status {
            0 => run.succeeded += 1,
            3 => {}
            s => {
                run.failed += 1;
                wrong += u64::from(s == 2);
                run.rejected += u64::from(a.overloaded);
            }
        }
        if a.status == 0 {
            if a.whatif.is_some() {
                run.whatif_ms.push(ms);
            } else {
                run.status_ms.push(ms);
            }
        }
        tracer.push(
            if a.whatif.is_some() {
                "client.whatif"
            } else {
                "client.status"
            },
            a.due,
            a.received,
        );
    }
    out.ops += plan.len() as u64;
    out.ops_failed += run.failed;
    out.check(
        format!("twin: every pinned whatif answer equals the in-process whatif ({wrong} differ)"),
        wrong == 0,
    );
    out.check(
        "twin: every scheduled query was answered",
        answers.len() == plan.len() && answers.iter().all(|a| a.status != 3),
    );
    out.check(
        "twin: the schedule holds both query kinds",
        !run.whatif_ms.is_empty() && !run.status_ms.is_empty(),
    );
    Ok(run)
}

/// In-process twin layer timings for the traced run: advance, capture,
/// fork, what-if and protocol parse, each repeated `reps` times.
pub struct TwinProbe {
    pub advance_epoch_ms: f64,
    pub capture_state_ms: f64,
    pub fork_ms: f64,
    pub whatif_ms: f64,
    pub query_parse_us: f64,
}

pub fn probe(
    shape: TwinShape,
    seed: u64,
    shards: usize,
    reps: usize,
    tracer: &mut Tracer,
) -> Result<TwinProbe, String> {
    let span = tracer.begin("twin.probe");
    let mut twin = Twin::new(shape.config(seed, shards)).map_err(|e| e.to_string())?;
    let last_pin = pinned().iter().map(|(e, _)| *e).max().unwrap_or(0);
    while twin.epoch() < last_pin {
        tracer
            .time("twin.advance_epoch", || twin.advance_epoch())
            .map_err(|e| e.to_string())?;
    }
    let state = tracer.time("twin.capture_state", || twin.capture_state());
    for _ in 0..reps {
        tracer.time("twin.capture_state", || {
            std::hint::black_box(twin.capture_state())
        });
        let fork = tracer
            .time("twin.fork", || twin.fork())
            .map_err(|e| e.to_string())?;
        drop(fork);
        for (_, q) in pinned() {
            tracer
                .time("twin.whatif", || whatif(&state, &q, shape.horizon, None))
                .map_err(|e| e.to_string())?;
        }
    }
    let lines: Vec<String> = std::iter::once(STATUS_LINE.to_string())
        .chain((0..pinned().len()).map(|k| whatif_line(k, shape.horizon)))
        .collect();
    for _ in 0..reps * 50 {
        for line in &lines {
            let parsed = tracer.time("twin.query_parse", || {
                serde_json::from_str::<QueryMsg>(line)
            });
            parsed.map_err(|e| e.to_string())?;
        }
    }
    tracer.end(span);
    let med = |name: &str| median(&tracer.durations_ms(name));
    Ok(TwinProbe {
        advance_epoch_ms: med("twin.advance_epoch"),
        capture_state_ms: med("twin.capture_state"),
        fork_ms: med("twin.fork"),
        whatif_ms: med("twin.whatif"),
        query_parse_us: med("twin.query_parse") * 1e3,
    })
}

/// End-to-end metrics of the twin workload.
pub fn e2e_metrics(run: &TwinRun, out: &mut Outcome) {
    out.metric("setup_s", median(&run.setup_s), "s");
    out.metric(
        "enclosure_s_per_s",
        run.live_epochs as f64 * run.enclosures as f64 / run.measure_s,
        "encl-s/s",
    );
    out.metric("op_p50_ms", median(&run.whatif_ms), "ms");
    out.metric("peak_rss_mb", run.peak_rss_mb, "MB");
}
