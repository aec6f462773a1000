//! `ring-partitioned`: the full-stack 10⁵-node ring (1000 sites × 101
//! nodes) on the partitioned executor with per-trunk windows. Each site
//! runs a credit-mode relay fabric; site gateways send frames round the
//! ring across shard boundaries.
//!
//! The shard build mirrors `padico_bench::fullstack`'s ring, with two
//! differences: frame send times and sizes are drawn from the workload
//! seed, and every relayed payload carries its send time so the
//! benchmark can measure one-way latency at the receiver.

// simlint: allow-file(D2, reason = "build, scrape and relay-send host times are what the benchmark measures")
// simlint: allow-file(D4, reason = "atomics and one mutex collect host-clock stamps and per-shard tallies from the partitioned executor threads at build and scrape time; no simulation state crosses threads")

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use gridtopo::{link_cost, BackpressureMode, Hop, RelayConfig, RelayFabric, RouteTable};
use padico_bench::fullstack::RingConfig;
use simnet::{
    run_partitioned, Frame, NetworkSpec, NodeId, Partition, PartitionReport, ProtoId, SimDuration,
    SimRng, SimTime, SimWorld,
};

use crate::harness::{self, derive, median, RoundOut};
use crate::worldstats::{self, WorldCounters};

/// Relay port of the intra-site payload.
const RING_PORT: u16 = 23;
/// Cross-shard gateway traffic tag.
const RING_CROSS: ProtoId = ProtoId(ProtoId::USER_BASE.0 + 47);

/// What each shard hands back at scrape time.
#[derive(Default)]
struct Tally {
    latencies_ns: Vec<u64>,
    delivered: u64,
    delivered_bytes: u64,
    delivered_cross: u64,
    sends: u64,
    send_ns: u64,
}

/// Host-clock stamps and tallies shared by the shard worlds.
struct Shared {
    threads: usize,
    /// Summed build-closure nanoseconds per worker.
    build_ns: Vec<AtomicU64>,
    /// Latest build-closure exit per worker (ns since `t0`).
    build_end_ns: Vec<AtomicU64>,
    /// First collector call of the final scrape (ns since `t0`).
    scrape_start_ns: AtomicU64,
    /// Per worker: its thread's CPU nanoseconds at its latest build-closure
    /// exit, which is the whole of its set-up (the thread is new).
    build_cpu_ns: Vec<AtomicU64>,
    /// Per worker: its thread's CPU nanoseconds at the collector call of
    /// its last shard, the end of its part of the final scrape.
    scrape_cpu_ns: Vec<AtomicU64>,
    tally: Mutex<Tally>,
    t0: Instant,
    time_sends: bool,
}

impl Shared {
    fn since_t0(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }
}

/// Builds one ring site (see `padico_bench::fullstack` for the shape).
fn build_shard(
    cfg: &RingConfig,
    seed: u64,
    shard: u16,
    world: &mut SimWorld,
    shared: &Arc<Shared>,
) {
    let n = cfg.segment_nodes;
    let mut rng = SimRng::seeded(derive(seed, shard as u64));
    let gw = world.add_node(&format!("r{shard}g"));

    // Registered first, so it runs first in the final scrape: stamps the
    // scrape start and hands the shard's tally over.
    let local = Rc::new(RefCell::new(Tally::default()));
    {
        let (local, shared) = (local.clone(), shared.clone());
        let worker = shard as usize % shared.threads;
        // A worker scrapes its shards in ascending order, so its last one
        // marks the end of its scrape; only that one reads the CPU clock.
        let last_of_worker = shard as usize + shared.threads >= cfg.shards as usize;
        world.metrics.register_collector(move |_b| {
            shared
                .scrape_start_ns
                .fetch_min(shared.since_t0(), Ordering::Relaxed);
            if last_of_worker {
                shared.scrape_cpu_ns[worker].fetch_max(harness::cpu_ns(), Ordering::Relaxed);
            }
            let mut mine = local.borrow_mut();
            let mut all = shared
                .tally
                .lock()
                .expect("no shard panicked holding the tally");
            all.latencies_ns.append(&mut mine.latencies_ns);
            all.delivered += mine.delivered;
            all.delivered_bytes += mine.delivered_bytes;
            all.delivered_cross += mine.delivered_cross;
            all.sends += mine.sends;
            all.send_ns += mine.send_ns;
        });
    }

    let near = world.add_network(NetworkSpec::ethernet_100());
    let far = world.add_network(NetworkSpec::ethernet_100());
    world.attach(gw, near);
    world.attach(gw, far);
    let mut segment = |tag: char, net| -> Vec<NodeId> {
        (0..n)
            .map(|i| {
                let node = world.add_node(&format!("r{shard}{tag}{i}"));
                world.attach(node, net);
                node
            })
            .collect()
    };
    let near_nodes = segment('a', near);
    let far_nodes = segment('b', far);

    let mut routes = RouteTable::default();
    let (near_cost, far_cost) = (link_cost(world, near), link_cost(world, far));
    for i in 0..n {
        let hop = Hop {
            network: near,
            node: gw,
        };
        routes.insert(near_nodes[i], far_nodes[i], hop, near_cost + far_cost);
        let hop = Hop {
            network: far,
            node: far_nodes[i],
        };
        routes.insert(gw, far_nodes[i], hop, far_cost);
    }
    let fabric = RelayFabric::new(
        routes,
        RelayConfig {
            per_hop_latency: SimDuration::from_micros(500),
            queue_capacity: 4,
            backpressure: BackpressureMode::Credit,
            ..Default::default()
        },
    );
    for &node in near_nodes.iter().chain(far_nodes.iter()) {
        fabric.attach(world, node);
    }
    fabric.attach(world, gw);

    for &node in &far_nodes {
        let local = local.clone();
        fabric.bind(world, node, RING_PORT, move |w, msg| {
            let sent = u64::from_le_bytes(msg.payload[..8].try_into().expect("8-byte stamp"));
            let mut t = local.borrow_mut();
            t.latencies_ns.push(w.now().as_nanos() - sent);
            t.delivered += 1;
            t.delivered_bytes += msg.payload.len() as u64;
        });
    }
    let cross = local.clone();
    world.register_handler(gw, RING_CROSS, move |_w, _net, _f| {
        cross.borrow_mut().delivered_cross += 1;
    });

    // Seeded inputs: each frame's send time is jittered and its size drawn
    // around the 512-byte mean of the fixed ring.
    let time_sends = shared.time_sends;
    for i in 0..n {
        let (src, dst) = (near_nodes[i], far_nodes[i]);
        for k in 0..cfg.frames_per_node {
            let at = 1_000 + k * 100_000 + i as u64 * 3_100 + rng.gen_range(0, 3_000);
            let bytes = rng.gen_range(384, 641) as usize;
            let (fabric, local) = (fabric.clone(), local.clone());
            world.schedule_at(SimTime::from_nanos(at), move |w| {
                let mut payload = vec![0u8; bytes];
                payload[..8].copy_from_slice(&w.now().as_nanos().to_le_bytes());
                let t0 = time_sends.then(Instant::now);
                fabric
                    .send(w, src, dst, RING_PORT, payload)
                    .expect("ring relay send");
                if let Some(t0) = t0 {
                    let mut t = local.borrow_mut();
                    t.sends += 1;
                    t.send_ns += t0.elapsed().as_nanos() as u64;
                }
            });
        }
    }
    let next = (shard + 1) % cfg.shards;
    let latency = cfg.segment_latency(shard);
    for k in 0..cfg.cross_frames_per_shard {
        let at = 40_000 + k * 500_000 + rng.gen_range(0, 50_000);
        let bytes = rng.gen_range(384, 641) as usize;
        world.schedule_at(SimTime::from_nanos(at), move |w| {
            let frame = Frame::new(gw, NodeId(0), RING_CROSS, vec![0u8; bytes]);
            w.send_remote(next, frame, latency);
        });
    }
}

/// One partitioned ring run with its phase split.
struct RingRun {
    report: PartitionReport,
    tally: Tally,
    /// CPU seconds of every worker's set-up.
    setup_s: f64,
    /// CPU seconds of every worker and the coordinator from the end of
    /// set-up to the end of the final scrape.
    run_s: f64,
    /// Wall seconds of the set-up.
    build_wall_s: f64,
    window_s: f64,
    scrape_s: f64,
    build_s: f64,
}

fn ring_run(cfg: &RingConfig, seed: u64, time_sends: bool) -> RingRun {
    let threads = cfg.threads.clamp(1, cfg.shards as usize);
    let shared = Arc::new(Shared {
        threads,
        build_ns: (0..threads).map(|_| AtomicU64::new(0)).collect(),
        build_end_ns: (0..threads).map(|_| AtomicU64::new(0)).collect(),
        scrape_start_ns: AtomicU64::new(u64::MAX),
        build_cpu_ns: (0..threads).map(|_| AtomicU64::new(0)).collect(),
        scrape_cpu_ns: (0..threads).map(|_| AtomicU64::new(0)).collect(),
        tally: Mutex::new(Tally::default()),
        t0: Instant::now(),
        time_sends,
    });
    let part = Partition {
        shards: cfg.shards,
        threads,
        lookahead: cfg.global_lookahead(),
        trunks: Some(cfg.trunks()),
        seed,
    };
    let coordinator_cpu = harness::cpu_ns();
    let report = run_partitioned(&part, |shard, world| {
        let start = shared.since_t0();
        build_shard(cfg, seed, shard, world, &shared);
        let end = shared.since_t0();
        let worker = shard as usize % shared.threads;
        shared.build_ns[worker].fetch_add(end - start, Ordering::Relaxed);
        shared.build_end_ns[worker].fetch_max(end, Ordering::Relaxed);
        shared.build_cpu_ns[worker].fetch_max(harness::cpu_ns(), Ordering::Relaxed);
    });
    let coordinator_cpu = harness::cpu_ns() - coordinator_cpu;
    let end_ns = shared.since_t0();
    let load = |a: &AtomicU64| a.load(Ordering::Relaxed);
    let setup_ns = shared.build_end_ns.iter().map(load).max().unwrap_or(0);
    let scrape_ns = load(&shared.scrape_start_ns).clamp(setup_ns, end_ns);
    let build_ns = shared.build_ns.iter().map(load).max().unwrap_or(0);
    let build_cpu: u64 = shared.build_cpu_ns.iter().map(load).sum();
    let scrape_cpu: u64 = shared.scrape_cpu_ns.iter().map(load).sum();
    let tally = std::mem::take(
        &mut *shared
            .tally
            .lock()
            .expect("no shard panicked holding the tally"),
    );
    RingRun {
        report,
        tally,
        setup_s: build_cpu as f64 / 1e9,
        run_s: (scrape_cpu.saturating_sub(build_cpu) + coordinator_cpu) as f64 / 1e9,
        build_wall_s: setup_ns as f64 / 1e9,
        window_s: (scrape_ns - setup_ns) as f64 / 1e9,
        scrape_s: (end_ns - scrape_ns) as f64 / 1e9,
        build_s: build_ns as f64 / 1e9,
    }
}

/// FNV-1a of the run digest.
fn fingerprint(report: &PartitionReport) -> u64 {
    report
        .digest()
        .bytes()
        .fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
            (h ^ b as u64).wrapping_mul(0x0100_0000_01b3)
        })
}

/// The ring configuration: the measured 10⁵-node row on at most 2 threads.
fn config() -> RingConfig {
    let mut cfg = RingConfig::hundred_k();
    cfg.threads = cfg.threads.min(2);
    cfg
}

/// Runs one round (one partitioned ring run; on a traced round also the
/// 1-thread reference run) and records it in `out`.
pub fn run(seed: u64, out: &mut RoundOut) {
    let cfg = config();
    let traced = harness::tracing();
    let rss_before = harness::rss_mb();
    harness::begin_op();
    let t = harness::now_ns();
    let run = ring_run(&cfg, seed, traced);
    let setup_end = t + (run.build_wall_s * 1e9) as u64;
    let scrape_start = setup_end + (run.window_s * 1e9) as u64;
    harness::record_span("shard", "build", t, setup_end);
    harness::record_span("shard", "window", setup_end, scrape_start);
    harness::record_span("simnet", "scrape", scrape_start, harness::now_ns());
    out.threads = run.report.threads;

    // ---- Check: conservation and completeness (the digest, on traced
    // rounds only, below) ------------------------------------------------ //
    let want_relayed = cfg.shards as u64 * cfg.segment_nodes as u64 * cfg.frames_per_node;
    let want_cross = cfg.shards as u64 * cfg.cross_frames_per_shard;
    let (check_s, (problems, snapshots)) = harness::timed(|| {
        harness::span("bench", "check", || {
            let r = &run.report;
            let mut problems = Vec::new();
            let cross_out: u64 = r.outcomes.iter().map(|o| o.stats.cross_out).sum();
            let cross_in: u64 = r.outcomes.iter().map(|o| o.stats.cross_in).sum();
            let unclaimed: u64 = r.outcomes.iter().map(|o| o.stats.remote_unclaimed).sum();
            let relayed: u64 = r
                .outcomes
                .iter()
                .map(|o| o.snapshot.counter_total("relay.fabric.frames_sent"))
                .sum();
            if cross_out != cross_in {
                problems.push(format!(
                    "cross-shard frames: {cross_out} out != {cross_in} in"
                ));
            }
            if unclaimed != 0 {
                problems.push(format!("{unclaimed} cross-shard frames unclaimed"));
            }
            if r.lookahead_violations() != 0 {
                problems.push(format!("{} lookahead violations", r.lookahead_violations()));
            }
            if relayed != want_relayed || run.tally.delivered != relayed {
                problems.push(format!(
                    "relayed {relayed} (want {want_relayed}), delivered {}",
                    run.tally.delivered
                ));
            }
            if run.tally.delivered_cross != want_cross || r.frames_crossed != want_cross {
                problems.push(format!(
                    "crossed {} / delivered {} (want {want_cross})",
                    r.frames_crossed, run.tally.delivered_cross
                ));
            }
            let snapshots: Vec<WorldCounters> = r
                .outcomes
                .iter()
                .map(|o| WorldCounters::from_snapshot(&o.snapshot))
                .collect();
            (problems, snapshots)
        })
    });
    out.problems.extend(problems);
    // An operation is a relayed or a cross-shard frame.
    out.attempted = want_relayed + want_cross;
    out.failed = want_relayed.saturating_sub(run.tally.delivered)
        + want_cross.saturating_sub(run.tally.delivered_cross);

    let makespan_s = run
        .report
        .outcomes
        .iter()
        .map(|o| o.final_now.as_secs_f64())
        .fold(0.0, f64::max);
    let latencies: Vec<f64> = run
        .tally
        .latencies_ns
        .iter()
        .map(|&ns| ns as f64 / 1e3)
        .collect();
    out.host("setup_s", "s", run.setup_s);
    out.host("run_s", "s", run.run_s);
    out.exact(
        "virt_goodput_mb_s",
        "MB/s",
        run.tally.delivered_bytes as f64 / makespan_s.max(1e-12) / 1e6,
    );
    out.exact("virt_latency_us", "us", median(&latencies));

    // Per-layer figures.
    let counters = WorldCounters::sum(snapshots.iter());
    worldstats::simnet_layer(out, &counters, run.run_s);
    out.host("simnet.scrape_ms", "ms", run.scrape_s * 1e3);
    out.host("shard.build_s", "s", run.build_s);
    out.host("shard.window_s", "s", run.window_s);
    out.exact("shard.rounds", "count", run.report.rounds as f64);
    out.exact(
        "shard.frames_crossed",
        "count",
        run.report.frames_crossed as f64,
    );
    out.host(
        "core.relay.send_us",
        "us",
        run.tally.send_ns as f64 / 1e3 / run.tally.sends.max(1) as f64,
    );
    let stalls: u64 = run
        .report
        .outcomes
        .iter()
        .map(|o| o.snapshot.counter_total("relay.fabric.credit_stalls"))
        .sum();
    out.exact("core.relay.credit_stalls", "count", stalls as f64);
    let window_2t = run.window_s;
    let (digest_s, digest) = harness::timed(|| {
        traced.then(|| harness::span("bench", "digest", || fingerprint(&run.report)))
    });
    drop(run);
    out.host(
        "simnet.retained_mb_per_world",
        "MB",
        harness::rss_mb() - rss_before,
    );
    out.host("bench.check_s", "s", check_s + digest_s);

    // Traced rounds also run the ring on one thread: the digest must not
    // depend on the thread count, and the window-time ratio is the
    // 2-thread speed-up.
    if let (Some(digest), true) = (digest, cfg.threads > 1) {
        let mut one = cfg.clone();
        one.threads = 1;
        let single = harness::span("shard", "run_partitioned_1t", || {
            ring_run(&one, seed, false)
        });
        let same = fingerprint(&single.report) == digest;
        out.check(same, || {
            "ring digest differs between 1 and 2 threads".to_string()
        });
        out.host(
            "shard.speedup_2t",
            "ratio",
            single.window_s / window_2t.max(1e-12),
        );
    }
}
