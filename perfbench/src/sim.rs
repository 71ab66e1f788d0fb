//! `sim-radix` and `sim-ycsb`: PrORAM simulations of a single tile.
//!
//! The system is the paper's Table 1 machine with the dynamic
//! super-block scheme (`SchemeConfig::dynamic(2)`) over an opaque Path
//! ORAM, configured as the figure experiments configure it. The trace is
//! the registered benchmark at the standard footprint; its seed follows
//! `--seed`, the system seed is fixed.

use crate::measure::{median, ns_since, ratio, timed_setup, Chunks, CHUNKS};
use crate::report::Outcome;
use crate::Args;
use proram_core::SchemeConfig;
use proram_mem::BackendStats;
use proram_sim::{MemoryKind, System, SystemConfig};
use proram_workloads::{suite, BenchSpec, Scale, Suite};
use std::time::Instant;

/// Which registered benchmark drives the system.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Bench {
    /// Splash2 `radix`: sequential key scans plus bucket appends.
    Radix,
    /// DBMS `YCSB`: 50% updates over the mini KV engine.
    Ycsb,
}

impl Bench {
    fn spec(self) -> BenchSpec {
        let (suite, name) = match self {
            Bench::Radix => (Suite::Splash2, "radix"),
            Bench::Ycsb => (Suite::Dbms, "YCSB"),
        };
        suite::specs(suite)
            .into_iter()
            .find(|s| s.name == name)
            .expect("benchmark is registered")
    }

    /// Measured trace ops per second of `--seconds`. The count is fixed,
    /// not timed, so the simulated metrics repeat exactly.
    fn ops_per_second(self) -> u64 {
        match self {
            Bench::Radix => 300_000,
            Bench::Ycsb => 200_000,
        }
    }

    /// Builds timed per run; `setup_s` is their median. A radix system
    /// builds in about a millisecond, so it takes more repetitions.
    fn setup_reps(self) -> usize {
        match self {
            Bench::Radix => 101,
            Bench::Ycsb => 15,
        }
    }
}

/// Trace ops before measurement starts (the standard scale's warmup).
const WARMUP: u64 = 50_000;
/// The standard scale's footprint multiplier.
const FOOTPRINT_SCALE: f64 = 0.25;

/// The figure experiments' system configuration for PrORAM.
fn system_config() -> SystemConfig {
    let mut cfg = SystemConfig::paper_default(MemoryKind::Oram(SchemeConfig::dynamic(2)));
    // The tree is sized to the workload footprint; this is only the floor.
    cfg.oram.num_data_blocks = 1 << 14;
    cfg
}

/// Host time of the traced chunks, split at the harness's spans.
#[derive(Debug, Default)]
struct Tally {
    ops: u64,
    wall_ns: u64,
    next_op_ns: u64,
    hit_ns: u64,
    hits: u64,
    miss_ns: u64,
    misses: u64,
    miss_paths: u64,
}

/// Runs the workload.
pub fn run(args: &Args, bench: Bench) -> Outcome {
    let mut out = Outcome::default();
    let chunk_len = args.seconds * bench.ops_per_second() / CHUNKS;
    let measured = chunk_len * CHUNKS;
    let scale = Scale {
        ops: measured,
        warmup_ops: WARMUP,
        footprint_scale: FOOTPRINT_SCALE,
        seed: args.seed,
    };
    let cfg = system_config();
    let (setup_s, (mut workload, mut system)) = timed_setup(bench.setup_reps(), || {
        let workload = suite::build(bench.spec(), scale);
        let system = System::build(&cfg, workload.footprint_bytes());
        (workload, system)
    });
    out.manifest
        .push(("footprint_bytes", workload.footprint_bytes().to_string()));
    out.manifest.push(("warmup_ops", WARMUP.to_string()));
    out.manifest.push(("measured_ops", measured.to_string()));

    let mut short = false;
    for _ in 0..WARMUP {
        match workload.next_op() {
            Some(op) => system.step(op),
            None => {
                short = true;
                break;
            }
        }
    }
    let before = system.memory().stats();
    let cycles_before = system.now();
    let mut phys = before.physical_accesses;
    let mut chunks = Chunks::default();
    let mut traced_rates = Vec::new();
    let mut t = Tally::default();
    for chunk in 0..CHUNKS {
        if short {
            break;
        }
        let traced = args.trace && chunk % 2 == 0;
        let start = Instant::now();
        for _ in 0..chunk_len {
            let t0 = traced.then(Instant::now);
            let Some(op) = workload.next_op() else {
                short = true;
                break;
            };
            let t1 = Instant::now();
            system.step(op);
            let step_ns = ns_since(t1);
            let now_phys = system.memory().stats().physical_accesses;
            let missed = now_phys != phys;
            if let Some(t0) = t0 {
                t.next_op_ns += t1.duration_since(t0).as_nanos() as u64;
                if missed {
                    t.miss_ns += step_ns;
                    t.misses += 1;
                    t.miss_paths += now_phys - phys;
                } else {
                    t.hit_ns += step_ns;
                    t.hits += 1;
                }
            } else if missed {
                chunks.sample(step_ns);
            }
            phys = now_phys;
        }
        let ns = ns_since(start);
        if traced {
            t.wall_ns += ns;
            t.ops += chunk_len;
            traced_rates.push(chunk_len as f64 / (ns as f64 / 1e9));
        } else {
            chunks.close(chunk_len, ns);
        }
    }
    let requested = WARMUP + measured;
    out.attempted += requested;
    out.check(!short, "the workload produced every requested op");
    out.check(
        workload.next_op().is_none(),
        "the trace ends after the requested ops",
    );
    let after = system.memory().stats();
    let sim_cycles = system.now() - cycles_before;
    let m = system.finish();
    out.check(
        m.trace_ops == requested,
        &format!("{} trace ops retired, {requested} requested", m.trace_ops),
    );
    out.check(
        m.stage_cycles_consistent(),
        "backend stage cycles sum to busy cycles",
    );
    if !out.correct() {
        return out;
    }
    let d = after - before;
    out.manifest.push(("sim_cycles", sim_cycles.to_string()));
    out.manifest
        .push(("physical_accesses", d.physical_accesses.to_string()));
    out.manifest
        .push(("bytes_moved", d.bytes_moved.to_string()));

    if args.trace {
        set_layer_counts(&mut out, &d, sim_cycles, &m);
        out.set("workloads.next_op_ns", ratio(t.next_op_ns, t.ops));
        out.set("sim.hit_step_ns", ratio(t.hit_ns, t.hits));
        out.set("sim.miss_step_ns", ratio(t.miss_ns, t.misses));
        out.set("mem.host_ns_per_path", ratio(t.miss_ns, t.miss_paths));
        out.set(
            "trace.coverage",
            ratio(t.next_op_ns + t.hit_ns + t.miss_ns, t.wall_ns),
        );
        out.set(
            "trace.overhead",
            1.0 - median(&traced_rates) / chunks.ops_per_s(),
        );
    } else {
        out.set("setup_s", setup_s);
        chunks.report(&mut out, "steps that reached memory");
        out.set("bytes_per_access", ratio(d.bytes_moved, d.demand_accesses));
        out.set("sim_cycles_per_op", ratio(sim_cycles, measured));
    }
    out
}

/// Simulated counts: backend ratios over the measured phase, cache and
/// write-back ratios over the whole trace (the system reports its cache
/// counters only when it finishes).
fn set_layer_counts(
    out: &mut Outcome,
    d: &BackendStats,
    sim_cycles: u64,
    m: &proram_sim::RunMetrics,
) {
    out.set("cache.llc_miss_ratio", m.llc_miss_rate());
    out.set(
        "core.prefetch_hit_ratio",
        ratio(d.prefetch_hits, d.prefetch_hits + d.prefetch_misses),
    );
    out.set(
        "mem.paths_per_demand",
        ratio(d.physical_accesses, d.demand_accesses),
    );
    out.set(
        "mem.posmap_paths_per_demand",
        ratio(d.posmap_accesses, d.demand_accesses),
    );
    out.set(
        "mem.dummy_paths_per_demand",
        ratio(d.dummy_accesses, d.demand_accesses),
    );
    out.set("mem.busy_share", ratio(d.busy_cycles, sim_cycles));
    out.set("sim.writebacks_per_op", ratio(m.writebacks, m.trace_ops));
}
