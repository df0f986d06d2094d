//! What one run reports: named metrics with units, the correctness
//! checks it made, its provenance, and the final JSON line.

use std::fmt::Write as _;

/// One reported number.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// Everything a workload run produced.
#[derive(Default)]
pub struct Outcome {
    /// Operations the run attempted (epochs stepped or queries sent).
    pub ops: u64,
    /// Operations that failed or were refused.
    pub ops_failed: u64,
    /// Correctness checks, by description.
    pub checks: Vec<(String, bool)>,
    pub metrics: Vec<Metric>,
    /// Extra provenance fields (`key`, JSON value).
    pub provenance: Vec<(&'static str, String)>,
}

impl Outcome {
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    pub fn check(&mut self, what: impl Into<String>, ok: bool) {
        self.checks.push((what.into(), ok));
    }

    pub fn note(&mut self, key: &'static str, value: impl std::fmt::Display) {
        self.provenance.push((key, value.to_string()));
    }

    pub fn attempted(&self) -> u64 {
        self.ops + self.checks.len() as u64
    }

    pub fn failed(&self) -> u64 {
        self.ops_failed + self.checks.iter().filter(|(_, ok)| !ok).count() as u64
    }

    /// Share of attempted operations and checks that succeeded.
    pub fn ok_ratio(&self) -> f64 {
        let attempted = self.attempted().max(1);
        (attempted - self.failed().min(attempted)) as f64 / attempted as f64
    }
}

/// Nearest-rank percentile (`q` in 0..=1) of unsorted samples.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5)
}

/// Peak resident set size of this process, MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// CPU time this process has used so far, every thread included, in
/// seconds (`CLOCK_PROCESS_CPUTIME_ID`). Unlike wall time it leaves out
/// the time the process waited for a CPU: on a paravirtualised guest the
/// kernel also leaves out the time the hypervisor gave the virtual CPU
/// to another tenant (steal).
pub fn cpu_s() -> f64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec (64-bit `time_t` and
    // `long` on the 64-bit Linux targets this benchmark runs on), and
    // the clock id is a constant the kernel always accepts.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Cycles per step of the chain in [`clock_ghz`]: a shift, an xor and an
/// add, each a one-cycle integer operation waiting on the one before.
const CHAIN_CYCLES: f64 = 3.0;
const CHAIN_STEPS: u32 = 1 << 22;

/// The core clock the process runs at right now, in GHz, estimated from
/// the CPU time of a fixed chain of dependent one-cycle operations
/// (about 5 ms). A shared host moves its cores' clock as its other
/// tenants come and go; CPU time times this clock estimates cycles.
pub fn clock_ghz() -> f64 {
    let t0 = cpu_s();
    let mut x = std::hint::black_box(0x1234_5678_u64);
    for _ in 0..CHAIN_STEPS {
        x = (x ^ (x >> 7)).wrapping_add(0x9e37_79b9);
    }
    std::hint::black_box(x);
    CHAIN_CYCLES * f64::from(CHAIN_STEPS) / (cpu_s() - t0) / 1e9
}

/// The commit of the checkout, read from `.git` without running git;
/// `unknown` in an exported tree.
pub fn git_commit() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "unknown".into(),
    };
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(format!(".git/{r}"))
            .map(|s| s.trim().to_string())
            .or_else(|_| {
                std::fs::read_to_string(".git/packed-refs").map(|p| {
                    p.lines()
                        .find(|l| l.ends_with(r))
                        .and_then(|l| l.split_whitespace().next())
                        .unwrap_or("unknown")
                        .to_string()
                })
            })
            .unwrap_or_else(|_| "unknown".into()),
        None => head,
    }
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        // `{:?}` keeps every digit and always marks a float.
        format!("{v:?}")
    } else {
        "null".into()
    }
}

/// The provenance object printed before the result line.
pub fn provenance_json(outcome: &Outcome) -> String {
    let mut s = String::from("{");
    for (i, (k, v)) in outcome.provenance.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let _ = write!(s, "\"{k}\":{v}");
    }
    s.push('}');
    s
}

/// The single-line result object the benchmark ends with.
pub fn result_json(outcome: &Outcome) -> String {
    let mut s = String::new();
    let correct = outcome.failed() == 0;
    let _ = write!(
        s,
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{",
        outcome.attempted(),
        outcome.failed()
    );
    for (i, m) in outcome.metrics.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let _ = write!(
            s,
            "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
            m.name,
            json_num(m.value),
            m.unit
        );
    }
    s.push_str("}}");
    s
}

/// splitmix64: the benchmark's seeded random source.
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// `n` arrival-stream seeds derived from the benchmark seed. A run
/// cycles its episodes through several streams so one stream's queueing
/// luck does not set the run's figures.
pub fn subseeds(seed: u64, n: usize) -> Vec<u64> {
    let mut state = seed;
    (0..n).map(|_| splitmix64(&mut state)).collect()
}

/// FNV-1a over bytes: the digest simulated statistics are compared by.
pub fn fnv1a(bytes: &[u8], mut h: u64) -> u64 {
    for b in bytes {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
