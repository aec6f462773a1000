//! Measurement plumbing shared by every workload: command line, host
//! clocks, spans, sample statistics, resident memory and the result line.

// simlint: allow-file(D2, reason = "the benchmark measures host time by design; host clocks never feed virtual-time results")
// simlint: allow-file(D4, reason = "OnceLocks hold the process clock epoch and the CPU-clock probe, and a yield refreshes the CPU clock; no simulation state is shared")

use std::cell::RefCell;
use std::fmt::Write as _;
use std::sync::OnceLock;
use std::time::Instant;

// --------------------------------------------------------------------- //
// Command line
// --------------------------------------------------------------------- //

/// The checked command line of one benchmark run.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Workload seed: every input of the run is derived from it.
    pub seed: u64,
    /// Host seconds the run keeps repeating its measured rounds for.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of an untraced one.
    pub trace: bool,
    /// Set in a child process: run exactly this one round and print it.
    pub round: Option<usize>,
}

/// Parses `--workload <name> --seed <n> --seconds <s> --trace <0|1>`.
pub fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace, mut round) =
        (None, None, 10.0, false, None);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => {
                seed = Some(
                    value
                        .parse::<u64>()
                        .map_err(|e| format!("--seed {value}: {e}"))?,
                )
            }
            "--seconds" => {
                seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0 && *s <= 600.0)
                    .ok_or_else(|| format!("--seconds {value}: want 0 < s <= 600"))?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value}: want 0 or 1")),
                }
            }
            "--round" => {
                round = Some(
                    value
                        .parse::<usize>()
                        .map_err(|e| format!("--round {value}: {e}"))?,
                )
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace,
        round,
    })
}

/// SplitMix64 step: derives independent sub-seeds from the workload
/// seed (`derive(seed, i)` for the i-th world of a round).
pub fn derive(seed: u64, i: u64) -> u64 {
    let mut z = seed
        .wrapping_add(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(i.wrapping_mul(0xBF58_476D_1CE4_E5B9));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

// --------------------------------------------------------------------- //
// Host clock and spans
// --------------------------------------------------------------------- //

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Host nanoseconds since the first call in this process.
pub fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

/// Host seconds spent in `f`, with its result.
pub fn timed<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let t0 = Instant::now();
    let out = f();
    (t0.elapsed().as_secs_f64(), out)
}

/// The calling thread's run time so far, from the kernel's per-thread
/// accounting (first field of `/proc/thread-self/schedstat`).
fn schedstat_ns() -> Option<u64> {
    // The kernel brings the running thread's figure up to date only at a
    // tick or a reschedule; yielding makes it exact to the microsecond.
    std::thread::yield_now();
    std::fs::read_to_string("/proc/thread-self/schedstat")
        .ok()?
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}

/// Whether [`cpu_ns`] reads the per-thread CPU clock (else it falls back
/// to the monotonic wall clock). Decided once per process.
pub fn cpu_clock() -> bool {
    static AVAILABLE: OnceLock<bool> = OnceLock::new();
    *AVAILABLE.get_or_init(|| {
        // Burn a little CPU so a working clock cannot read 0.
        let t = Instant::now();
        let mut x = 0u64;
        while t.elapsed().as_micros() < 2_000 {
            x = std::hint::black_box(x.wrapping_add(1));
        }
        schedstat_ns().is_some_and(|ns| ns > 0)
    })
}

/// CPU nanoseconds the calling thread has run. Unlike wall time this
/// leaves out time the thread spent waiting for a processor, whether
/// another process or the hypervisor had it, so it stays steady on a
/// shared host. Falls back to [`now_ns`] where the kernel does not
/// provide the figure (see [`cpu_clock`]).
pub fn cpu_ns() -> u64 {
    if cpu_clock() {
        schedstat_ns().unwrap_or(0)
    } else {
        now_ns()
    }
}

/// CPU seconds the calling thread spent in `f` ([`cpu_ns`]), with its
/// result.
pub fn cpu_timed<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let t0 = cpu_ns();
    let out = f();
    ((cpu_ns() - t0) as f64 / 1e9, out)
}

// --------------------------------------------------------------------- //
// Host speed calibration
// --------------------------------------------------------------------- //

/// CPU seconds [`calibration_kernel`] takes on the reference host. Host
/// times are reported at this speed (see [`speed_factor`]).
pub const CALIBRATION_REF_S: f64 = 0.005;

/// A fixed piece of work shaped like the simulator's own: ordered-map
/// inserts and removals, small boxed allocations freed out of order, and
/// bulk byte copies. It never calls into the program, so a change to the
/// program cannot change its cost.
fn calibration_kernel() -> u64 {
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let mut map = std::collections::BTreeMap::new();
    let mut boxes: Vec<Box<[u64; 8]>> = Vec::with_capacity(2048);
    let mut buf = vec![0u8; 128 * 1024];
    let mut acc = 0u64;
    for i in 0..12_000u64 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        map.insert(x % 8_192, i);
        if i % 2 == 0 {
            map.remove(&(x.rotate_left(23) % 8_192));
        }
        boxes.push(Box::new([x; 8]));
        if boxes.len() == 2048 {
            acc = acc.wrapping_add(boxes.swap_remove((x % 2048) as usize)[3]);
        }
        if i % 128 == 0 {
            let copy = buf.clone();
            let at = (x % copy.len() as u64) as usize;
            acc = acc.wrapping_add(u64::from(copy[at]));
            buf[at] = x as u8;
        }
    }
    std::hint::black_box(acc.wrapping_add(map.len() as u64 + boxes.len() as u64))
}

thread_local! {
    static CALIBRATION: RefCell<Vec<f64>> = const { RefCell::new(Vec::new()) };
}

/// Times [`calibration_kernel`] once and keeps the sample. A round calls
/// it at its start and end and between its worlds, so the samples follow
/// the host's speed through the round.
pub fn calibrate() {
    let (s, _) = cpu_timed(calibration_kernel);
    CALIBRATION.with(|c| c.borrow_mut().push(s));
}

/// Reference over measured calibration time: multiplying a CPU time
/// measured during the round by it gives the time at reference speed.
/// On a shared host the speed of a core moves in phases of seconds with
/// what the other tenants run on it (CPU time excludes waiting, but not
/// a slowed core); the kernel slows with it, so the product stays put.
pub fn speed_factor() -> f64 {
    let samples = CALIBRATION.with(|c| c.borrow().clone());
    if samples.is_empty() {
        return 1.0;
    }
    CALIBRATION_REF_S / median(&samples).max(1e-9)
}

/// One recorded span: a call from the benchmark into a layer.
#[derive(Debug, Clone)]
pub struct Span {
    /// Span id (1-based; 0 is "no parent").
    pub id: u64,
    /// Enclosing span, 0 at top level.
    pub parent: u64,
    /// The operation this span belongs to (spans of one operation share it).
    pub op: u64,
    /// Layer (crate) the call went into.
    pub layer: &'static str,
    /// Public function or phase called.
    pub name: &'static str,
    /// Host nanoseconds at entry.
    pub start_ns: u64,
    /// Host nanoseconds at exit.
    pub end_ns: u64,
}

#[derive(Default)]
struct Tracer {
    enabled: bool,
    spans: Vec<Span>,
    open: Vec<usize>,
    op: u64,
}

thread_local! {
    static TRACER: RefCell<Tracer> = RefCell::new(Tracer::default());
}

/// Turns span recording on or off for this thread.
pub fn set_tracing(on: bool) {
    TRACER.with(|t| t.borrow_mut().enabled = on);
}

/// Whether spans are being recorded on this thread.
pub fn tracing() -> bool {
    TRACER.with(|t| t.borrow().enabled)
}

/// Starts a new operation: spans opened from now on carry a fresh id.
pub fn begin_op() {
    TRACER.with(|t| t.borrow_mut().op += 1);
}

/// Runs `f` inside a span `layer`/`name`. With tracing off this is one
/// branch and a direct call.
pub fn span<T>(layer: &'static str, name: &'static str, f: impl FnOnce() -> T) -> T {
    let index = TRACER.with(|t| {
        let mut t = t.borrow_mut();
        if !t.enabled {
            return None;
        }
        let id = t.spans.len() as u64 + 1;
        let parent = t.open.last().map_or(0, |&i| t.spans[i].id);
        let op = t.op;
        t.spans.push(Span {
            id,
            parent,
            op,
            layer,
            name,
            start_ns: now_ns(),
            end_ns: 0,
        });
        let index = t.spans.len() - 1;
        t.open.push(index);
        Some(index)
    });
    let out = f();
    if let Some(index) = index {
        TRACER.with(|t| {
            let mut t = t.borrow_mut();
            t.spans[index].end_ns = now_ns();
            t.open.pop();
        });
    }
    out
}

/// Records an already-measured interval as a closed top-level span
/// (phases timed on other threads, such as the partitioned executor's).
pub fn record_span(layer: &'static str, name: &'static str, start_ns: u64, end_ns: u64) {
    TRACER.with(|t| {
        let mut t = t.borrow_mut();
        if !t.enabled {
            return;
        }
        let id = t.spans.len() as u64 + 1;
        let parent = t.open.last().map_or(0, |&i| t.spans[i].id);
        let op = t.op;
        t.spans.push(Span {
            id,
            parent,
            op,
            layer,
            name,
            start_ns,
            end_ns,
        });
    });
}

/// Every span recorded on this thread so far.
pub fn spans() -> Vec<Span> {
    TRACER.with(|t| t.borrow().spans.clone())
}

/// Durations in microseconds of every span called `layer`/`name`.
pub fn span_durations_us(spans: &[Span], layer: &str, name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.layer == layer && s.name == name)
        .map(|s| (s.end_ns - s.start_ns) as f64 / 1e3)
        .collect()
}

/// Self time per layer in seconds: each span's duration minus the time
/// its direct children cover. Sorted by layer name.
pub fn self_seconds(spans: &[Span]) -> Vec<(&'static str, f64)> {
    let mut child_ns = vec![0u64; spans.len() + 1];
    for s in spans {
        if s.parent != 0 {
            child_ns[s.parent as usize] += s.end_ns - s.start_ns;
        }
    }
    let mut by_layer: Vec<(&'static str, f64)> = Vec::new();
    for s in spans {
        let own = (s.end_ns - s.start_ns).saturating_sub(child_ns[s.id as usize]);
        match by_layer.iter_mut().find(|(l, _)| *l == s.layer) {
            Some((_, total)) => *total += own as f64 / 1e9,
            None => by_layer.push((s.layer, own as f64 / 1e9)),
        }
    }
    by_layer.sort_by(|a, b| a.0.cmp(b.0));
    by_layer
}

/// Writes the spans as JSON lines (one object per span) to `path`.
pub fn write_spans(path: &std::path::Path, header: &str, spans: &[Span]) -> std::io::Result<()> {
    let mut out = String::with_capacity(spans.len() * 96 + header.len() + 1);
    out.push_str(header);
    out.push('\n');
    for s in spans {
        let _ = writeln!(
            out,
            "{{\"id\": {}, \"parent\": {}, \"op\": {}, \"layer\": \"{}\", \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}}}",
            s.id, s.parent, s.op, s.layer, s.name, s.start_ns, s.end_ns
        );
    }
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, out)
}

// --------------------------------------------------------------------- //
// Sample statistics
// --------------------------------------------------------------------- //

fn sorted(v: &[f64]) -> Vec<f64> {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// Linear-interpolated quantile `q` in [0, 1]; 0 for no samples.
pub fn quantile(v: &[f64], q: f64) -> f64 {
    let s = sorted(v);
    match s.len() {
        0 => 0.0,
        1 => s[0],
        n => {
            let pos = q.clamp(0.0, 1.0) * (n - 1) as f64;
            let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
            s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
        }
    }
}

/// Median of the samples; 0 for no samples.
pub fn median(v: &[f64]) -> f64 {
    quantile(v, 0.5)
}

/// Mean of the samples; 0 for no samples.
pub fn mean(v: &[f64]) -> f64 {
    v.iter().sum::<f64>() / v.len().max(1) as f64
}

/// The tail of a timing: the highest of p99.9 / p99 / p90 that still has
/// at least ten samples beyond it, or the maximum below 100 samples.
pub fn tail(v: &[f64]) -> f64 {
    let n = v.len() as f64;
    for q in [0.999, 0.99, 0.9] {
        if n * (1.0 - q) >= 10.0 {
            return quantile(v, q);
        }
    }
    quantile(v, 1.0)
}

// --------------------------------------------------------------------- //
// Resident memory
// --------------------------------------------------------------------- //

fn status_kb(field: &str) -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with(field))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .unwrap_or(0.0)
}

/// Current resident set size, MB.
pub fn rss_mb() -> f64 {
    status_kb("VmRSS:") / 1024.0
}

/// Resident high-water mark of this process, MB.
pub fn peak_rss_mb() -> f64 {
    status_kb("VmHWM:") / 1024.0
}

// --------------------------------------------------------------------- //
// Round results
// --------------------------------------------------------------------- //

/// How a value aggregates across the rounds of a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Host-time dependent: the run reports the median over rounds.
    Host,
    /// Deterministic (virtual time, counts): every round must produce
    /// exactly the same value.
    Exact,
}

/// One named value measured by a round.
#[derive(Debug, Clone)]
pub struct Value {
    /// Metric name as listed in `BENCHMARK.json` or the per-layer list.
    pub name: String,
    /// Unit string.
    pub unit: String,
    /// Aggregation rule.
    pub kind: Kind,
    /// Measured value.
    pub value: f64,
}

/// Everything one round (one child process) measured and checked.
#[derive(Debug, Default)]
pub struct RoundOut {
    /// Named values.
    pub values: Vec<Value>,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// Correctness problems found by the checks; empty when correct.
    pub problems: Vec<String>,
    /// Why operations failed (the program's defects, not the benchmark's).
    pub notes: Vec<String>,
    /// Worker threads the round used.
    pub threads: usize,
}

impl RoundOut {
    fn push(&mut self, name: &str, unit: &str, kind: Kind, value: f64) {
        self.values.push(Value {
            name: name.to_string(),
            unit: unit.to_string(),
            kind,
            value,
        });
    }

    /// Adds a host-time value (median over rounds).
    pub fn host(&mut self, name: &str, unit: &str, value: f64) {
        self.push(name, unit, Kind::Host, value);
    }

    /// Adds a deterministic value (identical in every round).
    pub fn exact(&mut self, name: &str, unit: &str, value: f64) {
        self.push(name, unit, Kind::Exact, value);
    }

    /// Records a failed correctness check unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(what());
        }
    }

    /// Counts `ops` operations as attempted and failed, with the reason.
    pub fn fail(&mut self, ops: u64, why: String) {
        self.attempted += ops;
        self.failed += ops;
        self.notes.push(why);
    }

    /// Serializes the round as lines for the parent process.
    pub fn to_lines(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "round-ops {} {} {}",
            self.attempted, self.failed, self.threads
        );
        for v in &self.values {
            let kind = match v.kind {
                Kind::Host => 'h',
                Kind::Exact => 'x',
            };
            let _ = writeln!(
                out,
                "round-value {kind} {} {} {:?}",
                v.name, v.unit, v.value
            );
        }
        for p in &self.problems {
            let _ = writeln!(out, "round-problem {}", p.replace('\n', " "));
        }
        for n in &self.notes {
            let _ = writeln!(out, "round-note {}", n.replace('\n', " "));
        }
        out
    }

    /// Parses what [`RoundOut::to_lines`] wrote (other lines are ignored).
    pub fn from_lines(text: &str) -> Result<RoundOut, String> {
        let mut r = RoundOut::default();
        let mut saw_ops = false;
        for line in text.lines() {
            let mut f = line.split(' ');
            match f.next() {
                Some("round-ops") => {
                    let mut n = || f.next().and_then(|x| x.parse::<u64>().ok());
                    match (n(), n(), n()) {
                        (Some(a), Some(b), Some(t)) => {
                            (r.attempted, r.failed, r.threads) = (a, b, t as usize)
                        }
                        _ => return Err(format!("bad line {line:?}")),
                    }
                    saw_ops = true;
                }
                Some("round-value") => {
                    let parts: Vec<&str> = f.collect();
                    let [kind, name, unit, value] = parts[..] else {
                        return Err(format!("bad line {line:?}"));
                    };
                    let kind = if kind == "h" { Kind::Host } else { Kind::Exact };
                    let value = value
                        .parse::<f64>()
                        .map_err(|e| format!("bad value in {line:?}: {e}"))?;
                    r.push(name, unit, kind, value);
                }
                Some("round-problem") => {
                    r.problems.push(line["round-problem ".len()..].to_string())
                }
                Some("round-note") => r.notes.push(line["round-note ".len()..].to_string()),
                _ => {}
            }
        }
        if !saw_ops {
            return Err("the round printed no result".to_string());
        }
        Ok(r)
    }
}

/// One metric of the final result.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Unit string.
    pub unit: String,
    /// Value.
    pub value: f64,
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0".to_string()
    }
}

/// Renders the final result line.
pub fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}
