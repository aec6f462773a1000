//! `grid-failover`: sixteen relayed VLink streams fan into a 2-gateway
//! site; the destination's primary gateway is killed a third of the way
//! through and the streams migrate to the secondary.

use std::cell::RefCell;
use std::rc::Rc;

use gridtopo::{BackpressureMode, GridTopology, SiteSpec};
use padico_bench::conservation_violations;
use padico_core::{runtimes_for_grid, PadicoRuntime, SelectorPreferences, VLink, VLinkEvent};
use simnet::{MetricsSnapshot, NetworkSpec, SimDuration, SimWorld};

use crate::harness::{self, cpu_timed, derive, mean, median, span, timed, RoundOut};
use crate::worldstats::{self, run_while_budget, WorldCounters};

/// Concurrent streams (one per sender node).
const SENDERS: usize = 16;
/// Payload of each stream.
const STREAM_BYTES: usize = 192 * 1024;
/// Senders start at seeded offsets within this window (ns).
const START_SPREAD_NS: u64 = 10_000_000;
/// Worlds per round, each on its own derived seed.
const WORLDS: u64 = 8;
/// Events one world may execute before it is stopped and its streams
/// counted as failed (a healthy world needs well under a tenth of it).
const EVENT_BUDGET: u64 = 400_000;

/// Virtual-time outcome of one world.
struct Virt {
    goodput_mb_s: f64,
    recovery_ms: Option<f64>,
    completion_us: Vec<f64>,
    failed_streams: u64,
    migrated: u64,
    budget_exhausted: bool,
}

struct WorldOut {
    virt: Virt,
    setup_s: f64,
    run_s: f64,
    check_s: f64,
    topo_s: f64,
    runtime_s: f64,
    retained_mb: f64,
    counters: WorldCounters,
    snapshot: MetricsSnapshot,
    conservation: Vec<String>,
}

type Logs = Vec<Rc<RefCell<Vec<Vec<u8>>>>>;

fn delivered(logs: &Logs) -> usize {
    logs.iter()
        .map(|l| l.borrow().iter().map(Vec::len).sum::<usize>())
        .sum()
}

fn one_world(seed: u64) -> WorldOut {
    let rss_before = harness::rss_mb();
    harness::begin_op();

    // ---- Setup: world, topology, runtimes, listeners, inputs ---------- //
    let setup_start = harness::cpu_ns();
    let mut world = SimWorld::new(seed);
    world.max_events_per_run = Some(EVENT_BUDGET);
    let regions = vec![
        vec![SiteSpec::san_cluster("send", SENDERS + 2).with_gateways(2)],
        vec![SiteSpec::san_cluster("recv", 3).with_gateways(2)],
    ];
    let (topo_s, grid) = timed(|| {
        span("gridtopo", "cluster_of_clusters", || {
            GridTopology::cluster_of_clusters(
                &mut world,
                &regions,
                NetworkSpec::vthd_wan(),
                NetworkSpec::vthd_wan(),
            )
        })
    });
    let prefs = SelectorPreferences {
        relay_backpressure: BackpressureMode::Credit,
        gateway_failover: true,
        ..Default::default()
    };
    let (runtime_s, (rts, _proxies)) = timed(|| {
        span("core", "runtimes_for_grid", || {
            runtimes_for_grid(&mut world, &grid, prefs)
        })
    });
    let find = |node| -> PadicoRuntime {
        rts.iter()
            .find(|rt| rt.node() == node)
            .expect("every grid node has a runtime")
            .clone()
    };
    let recv_site = grid.site(1).clone();
    let dst_rt = find(recv_site.node(2));
    let primary_rt = find(recv_site.gateways[0]);
    let dst = dst_rt.node();

    // Per stream: bytes per accepted connection, and the virtual time
    // its last byte arrived.
    let logs: Logs = (0..SENDERS)
        .map(|_| Rc::new(RefCell::new(Vec::new())))
        .collect();
    let done_at: Rc<RefCell<Vec<Option<u64>>>> = Rc::new(RefCell::new(vec![None; SENDERS]));
    for (s, log) in logs.iter().enumerate() {
        let log = log.clone();
        let done_at = done_at.clone();
        span("core", "vlink_listen", || {
            dst_rt.vlink_listen(&mut world, 800 + s as u16, move |_w, v: VLink| {
                let slot = {
                    let mut all = log.borrow_mut();
                    all.push(Vec::new());
                    all.len() - 1
                };
                let (v2, log, done_at) = (v.clone(), log.clone(), done_at.clone());
                v.set_handler(move |world, ev| {
                    if ev == VLinkEvent::Readable {
                        let mut all = log.borrow_mut();
                        all[slot].extend(v2.read_now(world, usize::MAX));
                        if all.iter().map(Vec::len).sum::<usize>() >= STREAM_BYTES {
                            done_at.borrow_mut()[s].get_or_insert(world.now().as_nanos());
                        }
                    }
                });
            })
        });
    }
    let payloads: Vec<Vec<u8>> = (0..SENDERS)
        .map(|s| {
            let k = derive(seed, s as u64);
            (0..STREAM_BYTES)
                .map(|i| (k >> (i % 57)) as u8 ^ i as u8)
                .collect()
        })
        .collect();
    let senders: Vec<PadicoRuntime> = (0..SENDERS)
        .map(|s| find(grid.site(0).node(2 + s)))
        .collect();
    // Senders start in order at seeded offsets within the first 10 ms.
    let mut offsets: Vec<SimDuration> = (0..SENDERS)
        .map(|s| SimDuration::from_nanos(derive(seed, 0x5700 + s as u64) % START_SPREAD_NS))
        .collect();
    offsets.sort();
    let setup_s = (harness::cpu_ns() - setup_start) as f64 / 1e9;

    // ---- Run: streams, kill at a third, migrate, quiesce -------------- //
    let mut budget = EVENT_BUDGET;
    let (run_s, (recovery_ms, ok, start, end)) = cpu_timed(|| {
        let start = world.now();
        for (s, rt) in senders.iter().enumerate() {
            span("simnet", "run_until", || {
                world.run_until(start + offsets[s])
            });
            let client = span("core", "vlink_connect", || {
                rt.vlink_connect(&mut world, dst, 800 + s as u16)
            });
            span("core", "vlink.post_write", || {
                client.post_write(&mut world, &payloads[s])
            });
        }
        let total = SENDERS * STREAM_BYTES;
        let l2 = logs.clone();
        let mut ok = span("simnet", "run_while", || {
            run_while_budget(&mut world, &mut budget, || delivered(&l2) < total / 3)
        });
        let pre_kill: Vec<usize> = logs.iter().map(|l| l.borrow().len()).collect();
        let t_kill = world.now();
        span("core", "runtime.kill", || primary_rt.kill(&mut world));
        let resumed = || {
            logs.iter()
                .zip(&pre_kill)
                .any(|(l, &n)| l.borrow().iter().skip(n).any(|c| !c.is_empty()))
        };
        ok &= span("simnet", "run_while", || {
            run_while_budget(&mut world, &mut budget, || ok && !resumed())
        });
        let recovery_ms = resumed().then(|| world.now().since(t_kill).as_millis_f64());
        ok &= span("simnet", "run", || {
            run_while_budget(&mut world, &mut budget, || ok)
        });
        (recovery_ms, ok, start, world.now())
    });

    // ---- Check: byte-exact streams, conservation ---------------------- //
    let (check_s, (failed_streams, migrated, snapshot, conservation)) = timed(|| {
        span("bench", "check", || {
            let mut failed = 0u64;
            let mut migrated = 0u64;
            for (s, log) in logs.iter().enumerate() {
                let log = log.borrow();
                migrated += log.len().saturating_sub(1) as u64;
                let exact = log.iter().map(Vec::len).sum::<usize>() == STREAM_BYTES
                    && log.iter().flatten().eq(payloads[s].iter());
                failed += u64::from(!exact);
            }
            let snapshot = world.metrics_snapshot();
            let conservation = conservation_violations(&snapshot);
            (failed, migrated, snapshot, conservation)
        })
    });
    let elapsed_s = end.since(start).as_secs_f64();
    // Each stream's completion time counts from its own start.
    let completion_us: Vec<f64> = done_at
        .borrow()
        .iter()
        .zip(&offsets)
        .filter_map(|(t, off)| t.map(|t| (t - start.as_nanos() - off.as_nanos()) as f64 / 1e3))
        .collect();
    let counters = WorldCounters::from_world(&world);
    let virt = Virt {
        goodput_mb_s: delivered(&logs) as f64 / elapsed_s.max(1e-12) / 1e6,
        recovery_ms,
        completion_us,
        failed_streams: if ok { failed_streams } else { SENDERS as u64 },
        migrated,
        budget_exhausted: !ok,
    };
    drop((world, grid, rts, logs, senders, primary_rt, dst_rt));
    WorldOut {
        virt,
        setup_s,
        run_s,
        check_s,
        topo_s,
        runtime_s,
        retained_mb: harness::rss_mb() - rss_before,
        counters,
        snapshot,
        conservation,
    }
}

/// Runs one round — every derived seed once — and records it in `out`.
pub fn run(seed: u64, out: &mut RoundOut) {
    out.threads = 1;
    // A world that was stopped, or that quiesced with a conservation law
    // broken, fails all its streams; the reason is reported with the run.
    let mut worlds: Vec<WorldOut> = Vec::new();
    for i in 0..WORLDS {
        if i > 0 {
            harness::calibrate();
        }
        let o = match worldstats::guarded(|| one_world(derive(seed, i))) {
            Ok(o) => o,
            Err(why) => {
                out.fail(SENDERS as u64, format!("world {i}: stopped: {why}"));
                continue;
            }
        };
        if o.virt.budget_exhausted {
            out.fail(SENDERS as u64, format!("world {i}: event budget exhausted"));
        } else if !o.conservation.is_empty() {
            out.fail(
                SENDERS as u64,
                format!("world {i}: {}", o.conservation.join("; ")),
            );
        } else {
            out.attempted += SENDERS as u64;
            out.failed += o.virt.failed_streams;
        }
        worlds.push(o);
    }

    let total = |f: &dyn Fn(&WorldOut) -> f64| worlds.iter().map(f).sum::<f64>();
    let each = |f: &dyn Fn(&WorldOut) -> f64| worlds.iter().map(f).collect::<Vec<f64>>();
    // Mean per world: the worlds of a seed differ in cost, and the mean
    // over eight of them varies less from seed to seed than a median.
    out.host("setup_s", "s", mean(&each(&|o| o.setup_s)));
    out.host("run_s", "s", mean(&each(&|o| o.run_s)));

    out.exact(
        "virt_goodput_mb_s",
        "MB/s",
        median(&each(&|o| o.virt.goodput_mb_s)),
    );
    let completions: Vec<f64> = worlds
        .iter()
        .flat_map(|o| o.virt.completion_us.iter().copied())
        .collect();
    out.exact("virt_latency_us", "us", median(&completions));

    // Per-layer figures.
    let merged = MetricsSnapshot::merge(worlds.iter().map(|o| &o.snapshot));
    let counters = WorldCounters::sum(worlds.iter().map(|o| &o.counters));
    worldstats::simnet_layer(out, &counters, total(&|o| o.run_s));
    out.host(
        "simnet.retained_mb_per_world",
        "MB",
        median(&each(&|o| o.retained_mb)),
    );
    out.host(
        "gridtopo.build_ms",
        "ms",
        median(&each(&|o| o.topo_s)) * 1e3,
    );
    out.exact(
        "gridtopo.route_cache_hit_ratio",
        "ratio",
        worldstats::route_cache_hit_ratio(&merged),
    );
    out.exact(
        "gridtopo.route_cache_invalidations",
        "count",
        merged.counter_total("route.cache.invalidations") as f64,
    );
    out.host(
        "core.runtime_build_ms",
        "ms",
        median(&each(&|o| o.runtime_s)) * 1e3,
    );
    let post_write = harness::span_durations_us(&harness::spans(), "core", "vlink.post_write");
    out.host("core.vlink.post_write_us", "us", median(&post_write));
    worldstats::trunk_layer(out, worlds.iter().map(|o| &o.snapshot));
    out.exact(
        "core.proxy.bytes_refused",
        "bytes",
        merged.counter_total("relay.proxy.bytes_refused") as f64,
    );
    out.exact(
        "core.failover.migrated",
        "count",
        total(&|o| o.virt.migrated as f64),
    );
    let recoveries: Vec<f64> = worlds.iter().filter_map(|o| o.virt.recovery_ms).collect();
    out.exact("core.failover.recovery_ms", "ms", median(&recoveries));
    out.exact(
        "core.failover.budget_exhausted",
        "count",
        total(&|o| f64::from(u8::from(o.virt.budget_exhausted))),
    );
    out.host("bench.check_s", "s", total(&|o| o.check_s));
}
