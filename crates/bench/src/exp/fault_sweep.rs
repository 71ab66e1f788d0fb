//! Fault sweep: detection, fail-stops, transient retries and latency
//! overhead of the ORAM's fault machinery across fault class x injection
//! rate.
//!
//! Each cell runs a seeded read stream against a [`PathOram`] whose
//! backing store injects one fault class at one rate, with the periodic
//! scrub and the stash hard capacity engaged. The store is the only copy
//! of the off-chip tree, so a detected corruption or rollback cannot be
//! repaired: the access fail-stops with a typed error and rolls back, and
//! every later access whose path crosses that bucket fail-stops too. Only
//! transient read failures are recovered, by retrying. The experiment
//! asserts the robustness contract directly: **zero undetected
//! corruptions** in every cell (the injector's ground-truth `undetected`
//! counter stays zero) and a zero-rate injector that is observationally
//! identical to running with no injector at all.

use crate::exp::RunCtx;
use crate::jobs::parallel_map;
use proram_mem::{AccessKind, BlockAddr, FaultStats};
use proram_oram::{FaultClass, FaultConfig, OramConfig, PathOram};
use proram_stats::{table, Rng64, Table, Xoshiro256};

/// Data blocks in the swept tree: small enough that every cell runs in
/// milliseconds, large enough that paths overlap and rollbacks replay
/// genuinely stale buckets.
const NUM_BLOCKS: u64 = 256;
/// Injector seed; the access stream uses its own.
const INJECT_SEED: u64 = 0xFA17;

/// Write-fault rates swept per class (`transient` uses them per read
/// attempt instead of per write).
const RATES: [f64; 3] = [0.002, 0.01, 0.05];

struct CellOutcome {
    stats: FaultStats,
    /// Accesses that fail-stopped with a typed error (rolled back, not
    /// panicked).
    errored_accesses: u64,
    /// Latency summed over the accesses that were served.
    total_latency: u64,
    /// Mean latency of a served access.
    mean_latency: f64,
}

fn run_cell(fault: Option<FaultConfig>, ops: u64) -> CellOutcome {
    let mut cfg = OramConfig::small_for_tests(NUM_BLOCKS);
    // Engage the whole robustness surface: periodic scrub plus a stash
    // hard capacity (emergency eviction before fail-stop).
    cfg.scrub_interval = 256;
    cfg.stash_hard_capacity = Some(cfg.stash_limit);
    cfg.fault = fault;
    let mut oram = PathOram::new(cfg, 42);
    let mut rng = Xoshiro256::seed_from(7);
    let mut errored_accesses = 0u64;
    let mut total_latency = 0u64;
    for _ in 0..ops {
        let addr = BlockAddr(rng.next_below(NUM_BLOCKS));
        match oram.try_access_block(addr, AccessKind::Read) {
            Ok(report) => total_latency += report.latency,
            Err(_) => errored_accesses += 1,
        }
    }
    CellOutcome {
        stats: oram.fault_stats(),
        errored_accesses,
        total_latency,
        mean_latency: total_latency as f64 / (ops - errored_accesses).max(1) as f64,
    }
}

fn row_cells(
    class_name: &str,
    rate: f64,
    cell: &CellOutcome,
    baseline: &CellOutcome,
) -> Vec<String> {
    let s = cell.stats;
    vec![
        class_name.to_owned(),
        format!("{rate}"),
        s.total_injected().to_string(),
        s.masked_by_overwrite.to_string(),
        s.total_detected().to_string(),
        s.recovered.to_string(),
        cell.errored_accesses.to_string(),
        s.undetected.to_string(),
        s.detection_rate()
            .map_or_else(|| "-".to_owned(), table::pct),
        s.transient_retries.to_string(),
        s.scrub_runs.to_string(),
        s.emergency_evictions.to_string(),
        table::f3(cell.mean_latency / baseline.mean_latency),
    ]
}

/// Runs the sweep and builds the detection/recovery/overhead table.
///
/// # Panics
///
/// Panics if any injected corruption survives undetected (a false
/// negative) or if the zero-rate injector perturbs the fault-free run —
/// the assertions CI's fault smoke relies on.
pub fn run(ctx: RunCtx) -> Vec<Table> {
    // Enough accesses that even the lowest rate injects faults, scaled
    // down for --scale quick.
    let ops = (ctx.scale.ops / 10).clamp(2_000, 6_000);
    let baseline = run_cell(None, ops);
    assert!(baseline.total_latency > 0, "baseline did not execute");

    // Zero-rate identity: a structurally present but silent injector must
    // not change anything observable.
    let silent = run_cell(Some(FaultConfig::silent(INJECT_SEED)), ops);
    assert_eq!(
        silent.total_latency, baseline.total_latency,
        "zero-rate injector changed the access timeline"
    );
    assert_eq!(
        silent.stats, baseline.stats,
        "zero-rate injector changed fault counters"
    );

    let grid: Vec<(FaultClass, f64)> = FaultClass::ALL
        .into_iter()
        .flat_map(|class| RATES.into_iter().map(move |rate| (class, rate)))
        .collect();
    let outcomes = parallel_map(ctx.jobs, grid, |(class, rate)| {
        let cell = run_cell(Some(FaultConfig::single(class, rate, INJECT_SEED)), ops);
        (class, rate, cell)
    });

    let mut t = Table::new(&[
        "class",
        "rate",
        "injected",
        "masked",
        "detected",
        "recovered",
        "fail_stopped",
        "undetected",
        "detect%",
        "retries",
        "scrubs",
        "emerg_evict",
        "latency_x",
    ])
    .with_title(format!(
        "Fault sweep: detection / fail-stop / overhead ({ops} reads, {NUM_BLOCKS} blocks)"
    ));
    t.row(&row_cells("none", 0.0, &baseline, &baseline));
    for (class, rate, cell) in &outcomes {
        assert_eq!(
            cell.stats.undetected,
            0,
            "false negative: {} at rate {rate} survived an authenticated read",
            class.name()
        );
        assert!(
            cell.stats.total_injected() > 0,
            "{} at rate {rate} injected nothing; sweep too short",
            class.name()
        );
        t.row(&row_cells(class.name(), *rate, cell, &baseline));
    }
    vec![t]
}

#[cfg(test)]
mod tests {
    use super::*;
    use proram_workloads::Scale;

    #[test]
    fn sweep_detects_everything_and_is_silent_at_rate_zero() {
        // run() itself asserts zero false negatives and the zero-rate
        // identity; this exercises both on the quick scale.
        let tables = run(RunCtx::serial(Scale::quick()));
        assert_eq!(tables.len(), 1);
        // One baseline row plus every class x rate cell.
        assert_eq!(tables[0].len(), 1 + FaultClass::ALL.len() * RATES.len());
    }

    #[test]
    fn corruption_cells_fail_stop() {
        let ops = 2_000;
        let cell = run_cell(
            Some(FaultConfig::single(FaultClass::BitFlip, 0.05, INJECT_SEED)),
            ops,
        );
        assert!(cell.stats.injected_bit_flips > 0);
        assert_eq!(cell.stats.undetected, 0);
        assert!(cell.stats.detected_integrity > 0);
        assert_eq!(cell.stats.recovered, 0, "corruption is never repaired");
        assert!(cell.errored_accesses > 0, "detected corruption fail-stops");
    }
}
