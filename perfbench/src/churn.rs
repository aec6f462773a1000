//! `grid-churn`: an 8-site ring of 2-gateway clusters replays a seeded
//! schedule of 16 flap pairs, then admits and drains a site live, with
//! relayed VLink probes between the steps.

use std::cell::Cell;
use std::rc::Rc;

use gridtopo::{
    check_transients, full_recomputes, inject_link_churn, BackpressureMode, GridTopology, SiteSpec,
};
use padico_bench::conservation_violations;
use padico_core::{
    admit_site_live, apply_backbone_delta, drain_site_live, runtimes_for_grid, PadicoRuntime,
    SelectorPreferences, VLink, VLinkEvent,
};
use simnet::{MetricsSnapshot, NetworkSpec, NodeId, SimRng, SimWorld};

use crate::harness::{self, derive, mean, median, span, tail, timed, RoundOut};
use crate::worldstats::{self, run_while_budget, WorldCounters};

/// Sites in the initial ring.
const SITES: usize = 8;
/// Flap pairs in the schedule.
const FLAPS: usize = 16;
/// Bytes each probe pushes through a relayed VLink: seeded in this range.
const PROBE_BYTES: (u64, u64) = (7_800, 8_600);
/// A probe runs after every this many flap steps.
const PROBE_EVERY: usize = 8;
/// Worlds per round, each on its own derived seed.
const WORLDS: u64 = 8;
/// Events one world may execute before it is stopped and counted failed
/// (a healthy world needs about 125 000).
const EVENT_BUDGET: u64 = 250_000;

/// Virtual-time outcome of one world.
#[derive(Default)]
struct Virt {
    probe_us: Vec<f64>,
    probe_mb_s: Vec<f64>,
    probes: u64,
    probes_failed: u64,
    steps: u64,
    steps_failed: u64,
    budget_exhausted: bool,
}

struct WorldOut {
    virt: Virt,
    setup_s: f64,
    run_s: f64,
    check_s: f64,
    topo_s: f64,
    runtime_s: f64,
    delta_us: Vec<f64>,
    admit_ms: f64,
    drain_ms: f64,
    transient_violations: usize,
    full_recomputes: u64,
    retained_mb: f64,
    counters: WorldCounters,
    snapshot: MetricsSnapshot,
    conservation: Vec<String>,
}

/// One relayed VLink probe of `bytes`; `Some(virtual µs)` when all of
/// them arrived.
fn probe(
    world: &mut SimWorld,
    rts: &[PadicoRuntime],
    (from, to, bytes): (NodeId, NodeId, usize),
    service: u16,
    budget: &mut u64,
) -> Option<f64> {
    let find = |node: NodeId| {
        rts.iter()
            .find(|rt| rt.node() == node)
            .expect("probe endpoints have runtimes")
            .clone()
    };
    let (src_rt, dst_rt) = (find(from), find(to));
    let received = Rc::new(Cell::new(0usize));
    let r2 = received.clone();
    span("core", "vlink_listen", || {
        dst_rt.vlink_listen(world, service, move |_w, v: VLink| {
            let (v2, r) = (v.clone(), r2.clone());
            v.set_handler(move |world, ev| {
                if ev == VLinkEvent::Readable {
                    r.set(r.get() + v2.read_now(world, usize::MAX).len());
                }
            });
        })
    });
    let start = world.now();
    let client = span("core", "vlink_connect", || {
        src_rt.vlink_connect(world, to, service)
    });
    span("core", "vlink.post_write", || {
        client.post_write(world, &vec![0x5A; bytes])
    });
    span("simnet", "run_while", || {
        run_while_budget(world, budget, || received.get() < bytes)
    });
    (received.get() == bytes).then(|| world.now().since(start).as_micros_f64())
}

fn one_world(seed: u64) -> WorldOut {
    let rss_before = harness::rss_mb();
    harness::begin_op();

    // ---- Setup: world, ring, runtimes, schedule, probe pairs ---------- //
    let setup_start = harness::cpu_ns();
    let mut world = SimWorld::new(seed);
    world.max_events_per_run = Some(EVENT_BUDGET);
    let specs: Vec<SiteSpec> = (0..SITES)
        .map(|i| SiteSpec::san_cluster(format!("s{i}"), 3).with_gateways(2))
        .collect();
    let (topo_s, mut grid) = timed(|| {
        span("gridtopo", "ring", || {
            GridTopology::ring(&mut world, &specs, NetworkSpec::vthd_wan())
        })
    });
    let prefs = SelectorPreferences {
        relay_backpressure: BackpressureMode::Credit,
        gateway_failover: true,
        ..Default::default()
    };
    let (runtime_s, (mut rts, _proxies)) = timed(|| {
        span("core", "runtimes_for_grid", || {
            runtimes_for_grid(&mut world, &grid, prefs.clone())
        })
    });
    let schedule = span("gridtopo", "inject_link_churn", || {
        inject_link_churn(&grid, seed, FLAPS)
    });
    // Probes run from site 0 to the site opposite it on the ring (the
    // longest path, so every probe crosses the backbone): before the
    // schedule, after every `PROBE_EVERY`-th step, after the schedule, into
    // the admitted site and after the drain. Their sizes are seeded.
    let mut rng = SimRng::seeded(derive(seed, 0xC4));
    let (src, far) = (grid.site(0).node(2), grid.site(SITES / 2).node(2));
    let probes: Vec<(NodeId, NodeId, usize)> = (0..schedule.deltas.len() / PROBE_EVERY + 4)
        .map(|_| {
            (
                src,
                far,
                rng.gen_range(PROBE_BYTES.0, PROBE_BYTES.1 + 1) as usize,
            )
        })
        .collect();
    let setup_s = (harness::cpu_ns() - setup_start) as f64 / 1e9;

    // ---- Run: probes between flap steps, then live admit and drain ---- //
    let mut budget = EVENT_BUDGET;
    let mut virt = Virt::default();
    let mut transient_violations = 0usize;
    let mut delta_us = Vec::with_capacity(schedule.deltas.len());
    let mut service = 8200u16;
    let recomputes_before = full_recomputes();
    let mut run_probe = |world: &mut SimWorld,
                         rts: &[PadicoRuntime],
                         grid: &GridTopology,
                         (from, to, bytes): (NodeId, NodeId, usize),
                         virt: &mut Virt,
                         budget: &mut u64| {
        // A pair the flaps have partitioned is not probed: the table says
        // there is no path, and that is the correct answer.
        if grid.routes.cost(from, to).is_none() {
            return;
        }
        service += 1;
        virt.probes += 1;
        match probe(world, rts, (from, to, bytes), service, budget) {
            Some(us) => {
                virt.probe_us.push(us);
                virt.probe_mb_s.push(bytes as f64 / us);
            }
            None => virt.probes_failed += 1,
        }
    };
    // Transient checks run between the steps but are not part of run_s.
    let mut check_ns = 0u64;
    let mut check = |world: &SimWorld, grid: &GridTopology| {
        let t = harness::cpu_ns();
        transient_violations += span("bench", "check_transients", || {
            check_transients(world, grid).len()
        });
        check_ns += harness::cpu_ns() - t;
    };

    let run_start = harness::cpu_ns();
    run_probe(&mut world, &rts, &grid, probes[0], &mut virt, &mut budget);
    for (i, delta) in schedule.deltas.iter().enumerate() {
        virt.steps += 1;
        let (s, applied) = timed(|| {
            span("core", "apply_backbone_delta", || {
                apply_backbone_delta(&mut world, &mut grid, &rts, delta)
            })
        });
        delta_us.push(s * 1e6);
        virt.steps_failed += u64::from(applied.is_err());
        check(&world, &grid);
        if i % PROBE_EVERY == 0 {
            run_probe(
                &mut world,
                &rts,
                &grid,
                probes[i / PROBE_EVERY + 1],
                &mut virt,
                &mut budget,
            );
        }
    }

    run_probe(
        &mut world,
        &rts,
        &grid,
        probes[probes.len() - 3],
        &mut virt,
        &mut budget,
    );

    let late = SiteSpec::san_cluster("late", 3).with_gateways(2);
    virt.steps += 1;
    let (admit_s, admitted) = timed(|| {
        span("core", "admit_site_live", || {
            admit_site_live(&mut world, &mut grid, &mut rts, &late, prefs)
        })
    });
    check(&world, &grid);
    let mut drain_s = 0.0;
    match admitted {
        Ok(admitted) => {
            let late_node = grid.site(admitted.index).node(2);
            let (from, _, bytes) = probes[probes.len() - 2];
            run_probe(
                &mut world,
                &rts,
                &grid,
                (from, late_node, bytes),
                &mut virt,
                &mut budget,
            );
            virt.steps += 1;
            let (s, drained) = timed(|| {
                span("core", "drain_site_live", || {
                    drain_site_live(&mut world, &mut grid, &rts, admitted.index)
                })
            });
            drain_s = s;
            virt.steps_failed += u64::from(drained.is_err());
            check(&world, &grid);
        }
        Err(_) => virt.steps_failed += 2,
    }
    run_probe(
        &mut world,
        &rts,
        &grid,
        probes[probes.len() - 1],
        &mut virt,
        &mut budget,
    );
    let quiesced = span("simnet", "run", || {
        run_while_budget(&mut world, &mut budget, || true)
    });
    virt.budget_exhausted = !quiesced;
    let run_s = (harness::cpu_ns() - run_start - check_ns) as f64 / 1e9;
    let full_recomputes = full_recomputes() - recomputes_before;

    // ---- Check: conservation at quiescence ---------------------------- //
    let (conservation_s, (snapshot, conservation)) = timed(|| {
        span("bench", "check", || {
            let snapshot = world.metrics_snapshot();
            let conservation = conservation_violations(&snapshot);
            (snapshot, conservation)
        })
    });
    let check_s = check_ns as f64 / 1e9 + conservation_s;
    let counters = WorldCounters::from_world(&world);
    drop((world, grid, rts));
    WorldOut {
        virt,
        setup_s,
        run_s,
        check_s,
        topo_s,
        runtime_s,
        delta_us,
        admit_ms: admit_s * 1e3,
        drain_ms: drain_s * 1e3,
        transient_violations,
        full_recomputes,
        retained_mb: harness::rss_mb() - rss_before,
        counters,
        snapshot,
        conservation,
    }
}

/// Runs one round — every derived seed once — and records it in `out`.
pub fn run(seed: u64, out: &mut RoundOut) {
    out.threads = 1;
    // A world that was stopped, or whose routing or conservation checks
    // failed, fails all its operations; the reason is reported with the run.
    let planned = (FLAPS * 2 + 2 + FLAPS * 2 / PROBE_EVERY + 4) as u64;
    let mut worlds: Vec<WorldOut> = Vec::new();
    for i in 0..WORLDS {
        if i > 0 {
            harness::calibrate();
        }
        let o = match worldstats::guarded(|| one_world(derive(seed, i))) {
            Ok(o) => o,
            Err(why) => {
                out.fail(planned, format!("world {i}: stopped: {why}"));
                continue;
            }
        };
        let v = &o.virt;
        let ops = v.probes + v.steps;
        if v.budget_exhausted {
            out.fail(ops, format!("world {i}: event budget exhausted"));
        } else if o.transient_violations > 0 {
            out.fail(
                ops,
                format!(
                    "world {i}: {} transient routing violations",
                    o.transient_violations
                ),
            );
        } else if o.full_recomputes > 0 {
            out.fail(
                ops,
                format!(
                    "world {i}: {} full route recomputes during churn",
                    o.full_recomputes
                ),
            );
        } else if !o.conservation.is_empty() {
            out.fail(ops, format!("world {i}: {}", o.conservation.join("; ")));
        } else {
            out.attempted += ops;
            out.failed += v.probes_failed + v.steps_failed;
        }
        worlds.push(o);
    }

    let total = |f: &dyn Fn(&WorldOut) -> f64| worlds.iter().map(f).sum::<f64>();
    let each = |f: &dyn Fn(&WorldOut) -> f64| worlds.iter().map(f).collect::<Vec<f64>>();
    // Mean per world: the worlds of a seed differ in cost, and the mean
    // varies less from seed to seed than a median.
    out.host("setup_s", "s", mean(&each(&|o| o.setup_s)));
    out.host("run_s", "s", mean(&each(&|o| o.run_s)));
    let probe_us: Vec<f64> = worlds
        .iter()
        .flat_map(|o| o.virt.probe_us.iter().copied())
        .collect();
    let probe_mb_s: Vec<f64> = worlds
        .iter()
        .flat_map(|o| o.virt.probe_mb_s.iter().copied())
        .collect();
    out.exact("virt_goodput_mb_s", "MB/s", median(&probe_mb_s));
    out.exact("virt_latency_us", "us", median(&probe_us));

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
    let delta_us: Vec<f64> = worlds
        .iter()
        .flat_map(|o| o.delta_us.iter().copied())
        .collect();
    out.host("gridtopo.delta_us_p50", "us", median(&delta_us));
    out.host("gridtopo.delta_us_tail", "us", tail(&delta_us));
    out.host("gridtopo.admit_ms", "ms", median(&each(&|o| o.admit_ms)));
    out.host("gridtopo.drain_ms", "ms", median(&each(&|o| o.drain_ms)));
    out.host(
        "core.runtime_build_ms",
        "ms",
        median(&each(&|o| o.runtime_s)) * 1e3,
    );
    let post_write = harness::span_durations_us(&harness::spans(), "core", "vlink.post_write");
    out.host("core.vlink.post_write_us", "us", median(&post_write));
    worldstats::trunk_layer(out, worlds.iter().map(|o| &o.snapshot));
    out.host("bench.check_s", "s", total(&|o| o.check_s));
}
