//! `perfbench`: runs one workload of the PadicoTM-RS benchmark, checks
//! its outputs, and prints every metric by name and unit. The last line
//! of standard output is the JSON result.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload grid-failover --seed 1 --seconds 10 --trace 0
//! ```
//!
//! See `perfbench/README.md` for the workloads and metrics.

// simlint: allow-file(D2, reason = "the parent times the run to decide how many rounds to start")
// simlint: allow-file(H1, reason = "printed metrics and the result line are the benchmark interface")

#![deny(unsafe_code)]

mod churn;
mod failover;
mod harness;
mod paper;
mod ring;
mod worldstats;

use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::time::Instant;

use harness::{Args, Kind, Metric, RoundOut};

/// End-to-end metrics every workload reports, with their units.
const E2E: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("run_s", "s"),
    ("peak_rss_mb", "MB"),
    ("virt_goodput_mb_s", "MB/s"),
    ("virt_latency_us", "us"),
];

/// Stacks whose host round-trip time the paper workload samples.
pub const RTT_STACKS: &[&str] = &[
    "circuit", "vlink", "mpi", "omniorb3", "omniorb4", "mico", "orbacus", "java", "tcp",
];

/// Stacks whose 4-byte latency increment over Circuit is reported.
pub const LADDER_STACKS: &[&str] = &["vlink", "mpi", "omniorb3", "omniorb4", "java"];

/// Layers that receive self time from the spans.
const LAYERS: &[&str] = &[
    "simnet",
    "shard",
    "transport",
    "madeleine",
    "netaccess",
    "core",
    "gridtopo",
    "middleware",
    "bench",
];

/// Per-layer metrics every traced run reports; a workload that bypasses
/// a layer reports 0 for it.
fn layer_metrics() -> Vec<(String, &'static str)> {
    let mut m: Vec<(String, &'static str)> = [
        ("simnet.events", "count"),
        ("simnet.host_ns_per_event", "ns"),
        ("simnet.cancel_ratio", "ratio"),
        ("simnet.scrape_ms", "ms"),
        ("simnet.retained_mb_per_world", "MB"),
        ("shard.build_s", "s"),
        ("shard.window_s", "s"),
        ("shard.rounds", "count"),
        ("shard.frames_crossed", "count"),
        ("shard.speedup_2t", "ratio"),
        ("gridtopo.build_ms", "ms"),
        ("gridtopo.route_cache_hit_ratio", "ratio"),
        ("gridtopo.route_cache_invalidations", "count"),
        ("gridtopo.delta_us_p50", "us"),
        ("gridtopo.delta_us_tail", "us"),
        ("gridtopo.admit_ms", "ms"),
        ("gridtopo.drain_ms", "ms"),
        ("core.runtime_build_ms", "ms"),
        ("core.relay.send_us", "us"),
        ("core.relay.credit_stalls", "count"),
        ("core.vlink.post_write_us", "us"),
        ("core.trunk.count", "count"),
        ("core.trunk.recv_high_water", "bytes"),
        ("core.proxy.bytes_refused", "bytes"),
        ("core.failover.migrated", "count"),
        ("core.failover.recovery_ms", "ms"),
        ("core.failover.budget_exhausted", "count"),
        ("madeleine.messages", "count"),
        ("madeleine.host_ns_per_message", "ns"),
        ("netaccess.madio.messages", "count"),
        ("transport.vrp_speedup", "ratio"),
        ("transport.parallel_gain", "ratio"),
    ]
    .iter()
    .map(|&(n, u)| (n.to_string(), u))
    .collect();
    for stack in RTT_STACKS {
        for point in ["32b_p50", "32b_tail", "1mb_p50", "1mb_tail"] {
            m.push((format!("middleware.rtt_host_us.{stack}.{point}"), "us"));
        }
    }
    for stack in LADDER_STACKS {
        m.push((format!("middleware.latency_increment_us.{stack}"), "us"));
    }
    m.push(("bench.check_s".to_string(), "s"));
    m.push(("bench.trace_overhead_pct".to_string(), "%"));
    for layer in LAYERS {
        m.push((format!("{layer}.self_s"), "s"));
    }
    m
}

/// Rounds a run makes at least, whatever `--seconds` says.
const MIN_ROUNDS: usize = 3;

type Workload = fn(u64, &mut RoundOut);

fn workload(name: &str) -> Option<Workload> {
    Some(match name {
        "ring-partitioned" => ring::run,
        "grid-failover" => failover::run,
        "grid-churn" => churn::run,
        "paper-eval" => paper::run,
        _ => return None,
    })
}

/// The checkout's git revision, read from `.git` without leaving it.
fn git_revision() -> String {
    let read = |p: &str| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let Some(head) = read(".git/HEAD") else {
        return "unknown".to_string();
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    read(&format!(".git/{reference}"))
        .or_else(|| {
            read(".git/packed-refs").and_then(|packed| {
                packed
                    .lines()
                    .find(|l| l.ends_with(reference))
                    .and_then(|l| l.split_whitespace().next().map(str::to_string))
            })
        })
        .unwrap_or_else(|| "unknown".to_string())
}

fn trace_dir() -> PathBuf {
    let dir = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| ".bench_build".to_string());
    PathBuf::from(dir).join("perfbench")
}

/// Child process: one round of the workload, printed as `round-*` lines.
fn child(args: &Args, run: Workload, round: usize) {
    // A world stopped by a panic is counted and reported by the workload;
    // keep the stderr trace of it to one line.
    std::panic::set_hook(Box::new(|info| eprintln!("perfbench: panic: {info}")));
    harness::set_tracing(args.trace);
    let mut out = RoundOut::default();
    harness::calibrate();
    run(args.seed, &mut out);
    harness::calibrate();
    let speed = harness::speed_factor();
    if args.trace {
        harness::set_tracing(false);
        let spans = harness::spans();
        let self_s = harness::self_seconds(&spans);
        for layer in LAYERS {
            let s = self_s
                .iter()
                .find(|(l, _)| l == layer)
                .map_or(0.0, |(_, s)| *s);
            out.host(&format!("{layer}.self_s"), "s", s);
        }
        let path = trace_dir().join(format!(
            "trace-{}-{}-r{round}.jsonl",
            args.workload, args.seed
        ));
        let header = format!(
            "{{\"workload\": \"{}\", \"seed\": {}, \"round\": {round}, \"spans\": {}}}",
            args.workload,
            args.seed,
            spans.len()
        );
        if let Err(e) = harness::write_spans(&path, &header, &spans) {
            out.problems
                .push(format!("could not write spans to {}: {e}", path.display()));
        }
    }
    // Every host time of the round, at reference speed.
    for v in &mut out.values {
        if v.kind == Kind::Host && ["s", "ms", "us", "ns"].contains(&v.unit.as_str()) {
            v.value *= speed;
        }
    }
    out.host("peak_rss_mb", "MB", harness::peak_rss_mb());
    out.host("stamp.speed_factor", "ratio", speed);
    print!("{}", out.to_lines());
}

/// Runs round `round` in a child process and reads its result back.
fn spawn_round(args: &Args, round: usize, traced: bool) -> Result<RoundOut, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = Command::new(exe)
        .args(["--workload", &args.workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .args(["--round", &round.to_string()])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("round {round}: spawn failed: {e}"))?;
    if !out.status.success() {
        return Err(format!("round {round} exited with {}", out.status));
    }
    RoundOut::from_lines(&String::from_utf8_lossy(&out.stdout))
        .map_err(|e| format!("round {round}: {e}"))
}

/// Aggregates one value over rounds: the median of host values, the
/// common value of exact ones (a difference is a correctness problem).
fn aggregate(rounds: &[&RoundOut], problems: &mut Vec<String>) -> Vec<Metric> {
    let mut names: Vec<(&str, &str, Kind)> = Vec::new();
    for r in rounds {
        for v in &r.values {
            if !names.iter().any(|(n, _, _)| *n == v.name) {
                names.push((&v.name, &v.unit, v.kind));
            }
        }
    }
    names
        .into_iter()
        .map(|(name, unit, kind)| {
            let values: Vec<f64> = rounds
                .iter()
                .flat_map(|r| r.values.iter().filter(|v| v.name == name).map(|v| v.value))
                .collect();
            let value = match kind {
                Kind::Host => harness::median(&values),
                Kind::Exact => {
                    if values.iter().any(|v| v.to_bits() != values[0].to_bits()) {
                        problems.push(format!("{name} differs across rounds: {values:?}"));
                    }
                    values[0]
                }
            };
            Metric {
                name: name.to_string(),
                unit: unit.to_string(),
                value,
            }
        })
        .collect()
}

/// Picks `wanted` out of `have` in order; missing ones are 0 when
/// `zero_missing`, an error otherwise.
fn select(
    have: &[Metric],
    wanted: &[(String, &'static str)],
    zero_missing: bool,
) -> Result<Vec<Metric>, String> {
    wanted
        .iter()
        .map(|(name, unit)| match have.iter().find(|m| m.name == *name) {
            Some(m) if m.unit == *unit => Ok(m.clone()),
            Some(m) => Err(format!("{name} has unit {}, declared {unit}", m.unit)),
            None if zero_missing => Ok(Metric {
                name: name.clone(),
                unit: unit.to_string(),
                value: 0.0,
            }),
            None => Err(format!("the workload did not report {name}")),
        })
        .collect()
}

fn main() {
    let args = match harness::parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <ring-partitioned|grid-failover|grid-churn|paper-eval> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            std::process::exit(2);
        }
    };
    let Some(run) = workload(&args.workload) else {
        eprintln!("perfbench: unknown workload {}", args.workload);
        std::process::exit(2);
    };
    if let Some(round) = args.round {
        child(&args, run, round);
        return;
    }

    // Parent: one child process per round until the time is up. A traced
    // run alternates untraced and traced rounds; the run_s difference is
    // the tracing overhead.
    let t0 = Instant::now();
    let mut outs: Vec<(bool, RoundOut)> = Vec::new();
    let mut problems = Vec::new();
    let min_rounds = if args.trace {
        2 * MIN_ROUNDS
    } else {
        MIN_ROUNDS
    };
    // After the minimum, a round starts only if it can end in time,
    // judging by the longest round so far.
    let mut longest = 0.0f64;
    while outs.len() < min_rounds || t0.elapsed().as_secs_f64() + longest < args.seconds {
        let round_start = Instant::now();
        let traced = args.trace && outs.len() % 2 == 1;
        match spawn_round(&args, outs.len(), traced) {
            Ok(out) => {
                outs.push((traced, out));
                longest = longest.max(round_start.elapsed().as_secs_f64());
            }
            Err(e) => {
                problems.push(e);
                break;
            }
        }
    }
    // Every round runs the same worlds, so each operation is counted once:
    // the counts are one round's, and every round must repeat them (the
    // number of rounds depends on host speed; the counts must not).
    let (attempted, failed) = outs
        .first()
        .map_or((0, 0), |(_, o)| (o.attempted, o.failed));
    if let Some((_, o)) = outs
        .iter()
        .find(|(_, o)| (o.attempted, o.failed) != (attempted, failed))
    {
        problems.push(format!(
            "operation counts differ across rounds: {attempted}/{failed} and {}/{}",
            o.attempted, o.failed
        ));
    }
    let threads = outs.iter().map(|(_, o)| o.threads).max().unwrap_or(0);
    for (_, o) in &outs {
        problems.extend(o.problems.iter().cloned());
    }
    let pick = |traced: bool| -> Vec<&RoundOut> {
        outs.iter()
            .filter(|(t, _)| *t == traced)
            .map(|(_, o)| o)
            .collect()
    };
    // Exact values must agree across every round, traced or not.
    let all: Vec<&RoundOut> = outs.iter().map(|(_, o)| o).collect();
    aggregate(&all, &mut problems);
    let mut ignored = Vec::new();
    let plain = aggregate(&pick(false), &mut ignored);
    let mut metrics = plain.clone();
    if args.trace {
        metrics = aggregate(&pick(true), &mut ignored);
        let run_s = |ms: &[Metric]| {
            ms.iter()
                .find(|m| m.name == "run_s")
                .map_or(0.0, |m| m.value)
        };
        metrics.push(Metric {
            name: "bench.trace_overhead_pct".to_string(),
            unit: "%".to_string(),
            value: (run_s(&metrics) / run_s(&plain).max(1e-12) - 1.0) * 100.0,
        });
    }
    let layer = layer_metrics();
    let e2e: Vec<(String, &'static str)> = E2E.iter().map(|&(n, u)| (n.to_string(), u)).collect();
    // `check.*` values only take part in the cross-round comparison;
    // `stamp.*` values go to the stamp line.
    if let Some(m) = metrics.iter().find(|m| {
        !m.name.starts_with("check.")
            && !m.name.starts_with("stamp.")
            && !e2e.iter().chain(&layer).any(|(n, _)| *n == m.name)
    }) {
        problems.push(format!("metric {} is not declared", m.name));
    }
    let selected = if args.trace {
        select(&metrics, &layer, true)
    } else {
        select(&metrics, &e2e, false)
    };
    let result = match selected {
        Ok(m) => m,
        Err(e) => {
            eprintln!("perfbench: {e}");
            for p in &problems {
                eprintln!("perfbench: check failed: {p}");
            }
            std::process::exit(3);
        }
    };

    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    println!(
        "stamp: {{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"rounds\": {}, \
         \"nproc\": {nproc}, \"profile\": \"{profile}\", \"git_rev\": \"{}\", \"threads\": {threads}, \
         \"clock\": \"{}\", \"speed_factor\": {:.4}}}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        outs.len(),
        git_revision(),
        if harness::cpu_clock() {
            "thread-cpu"
        } else {
            "wall"
        },
        plain
            .iter()
            .find(|m| m.name == "stamp.speed_factor")
            .map_or(1.0, |m| m.value),
    );
    for m in &metrics {
        println!("metric {} = {} {}", m.name, m.value, m.unit);
    }
    println!(
        "operations: {attempted} attempted, {failed} failed ({:.4} failure share)",
        failed as f64 / attempted.max(1) as f64
    );
    for p in &problems {
        println!("check failed: {p}");
    }
    let mut notes: Vec<&String> = outs.iter().flat_map(|(_, o)| &o.notes).collect();
    notes.sort();
    notes.dedup();
    for n in notes {
        println!("operations failed: {n}");
    }
    if attempted == 0 {
        eprintln!("perfbench: no operation was attempted");
        std::process::exit(3);
    }
    println!(
        "{}",
        harness::result_json(problems.is_empty(), attempted, failed, &result)
    );
}
