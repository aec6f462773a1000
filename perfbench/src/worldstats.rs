//! Counters read from quiesced worlds and turned into per-layer metrics.

use simnet::{MetricValue, MetricsSnapshot, SimWorld};

use crate::harness::RoundOut;

/// Event-queue counters of one or more worlds.
#[derive(Debug, Clone, Copy, Default)]
pub struct WorldCounters {
    /// Events executed.
    pub executed: u64,
    /// Events scheduled.
    pub scheduled: u64,
    /// Events cancelled before they fired.
    pub cancelled: u64,
}

impl WorldCounters {
    /// Reads a quiesced world.
    pub fn from_world(world: &SimWorld) -> Self {
        WorldCounters {
            executed: world.stats.events_executed,
            scheduled: world.stats.events_scheduled,
            cancelled: world.stats.events_cancelled,
        }
    }

    /// Reads the counters a world exported into its snapshot.
    pub fn from_snapshot(snapshot: &MetricsSnapshot) -> Self {
        WorldCounters {
            executed: snapshot.counter("sim.world.events_executed").unwrap_or(0),
            scheduled: snapshot.counter("sim.world.events_scheduled").unwrap_or(0),
            cancelled: snapshot.counter("sim.world.events_cancelled").unwrap_or(0),
        }
    }

    /// Element-wise sum.
    pub fn sum<'a>(parts: impl Iterator<Item = &'a WorldCounters>) -> Self {
        parts.fold(WorldCounters::default(), |a, b| WorldCounters {
            executed: a.executed + b.executed,
            scheduled: a.scheduled + b.scheduled,
            cancelled: a.cancelled + b.cancelled,
        })
    }
}

/// `simnet.events`, `simnet.host_ns_per_event` and `simnet.cancel_ratio`
/// for one round of worlds that took `run_s` host seconds to run.
pub fn simnet_layer(out: &mut RoundOut, c: &WorldCounters, run_s: f64) {
    out.exact("simnet.events", "count", c.executed as f64);
    out.host(
        "simnet.host_ns_per_event",
        "ns",
        run_s * 1e9 / c.executed.max(1) as f64,
    );
    out.exact(
        "simnet.cancel_ratio",
        "ratio",
        c.cancelled as f64 / c.scheduled.max(1) as f64,
    );
}

/// Route-cache hits over lookups across every runtime of the snapshot.
pub fn route_cache_hit_ratio(snapshot: &MetricsSnapshot) -> f64 {
    let hits = snapshot.counter_total("route.cache.hits");
    let misses = snapshot.counter_total("route.cache.misses");
    hits as f64 / (hits + misses).max(1) as f64
}

/// Sum and maximum of every gauge called `name` (all label sets).
fn gauges(snapshot: &MetricsSnapshot, name: &str) -> (i64, i64) {
    let prefix = format!("{name}{{");
    snapshot
        .with_prefix(&prefix)
        .filter_map(|(_, v)| match v {
            MetricValue::Gauge(g) => Some(*g),
            _ => None,
        })
        .fold((0, 0), |(sum, max), g| (sum + g, max.max(g)))
}

/// `core.trunk.count` (trunks per world, median over worlds) and
/// `core.trunk.recv_high_water` (largest receive buffer of any trunk).
pub fn trunk_layer<'a>(out: &mut RoundOut, worlds: impl Iterator<Item = &'a MetricsSnapshot>) {
    let mut counts = Vec::new();
    let mut high_water = 0i64;
    for snap in worlds {
        counts.push(gauges(snap, "trunk.memory.trunks").0 as f64);
        high_water = high_water.max(gauges(snap, "trunk.memory.recv_high_water").1);
    }
    out.exact("core.trunk.count", "count", crate::harness::median(&counts));
    out.exact("core.trunk.recv_high_water", "bytes", high_water as f64);
}

/// Runs `keep_going`'s loop through `run_while`, stopping once `budget`
/// events have been spent; returns `false` when the budget ran out.
pub fn run_while_budget(
    world: &mut SimWorld,
    budget: &mut u64,
    mut keep_going: impl FnMut() -> bool,
) -> bool {
    let mut exhausted = false;
    world.run_while(|| {
        if !keep_going() {
            return false;
        }
        if *budget == 0 {
            exhausted = true;
            return false;
        }
        *budget -= 1;
        true
    });
    !exhausted
}

/// Runs one world's measurement. The simulator's per-`run` event cap
/// (set to the world's budget) panics inside library calls that run the
/// world to quiescence themselves, as does a library assertion; either
/// way the world comes back as the panic message and the caller counts
/// its operations as failed.
pub fn guarded<T>(f: impl FnOnce() -> T) -> Result<T, String> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).map_err(|e| {
        e.downcast_ref::<String>()
            .cloned()
            .or_else(|| e.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_else(|| "panic".to_string())
    })
}
