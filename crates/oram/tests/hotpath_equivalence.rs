//! Behavior-identity goldens for the allocation-free hot path.
//!
//! The hot-path optimizations (reusable path scratch, counting-bucket
//! write-back, wide stream-cipher XOR) must
//! not change *what* the ORAM does — only how fast. These tests replay
//! the fixed-seed workload from the shared `common` fixture and compare
//! every observable of the run against goldens captured on the seed
//! implementation: the stats counters, the stash-occupancy histogram,
//! the physical access trace, and the stash peak. Any change to path
//! selection, eviction order, or byte accounting shows up as a hash
//! mismatch here.

mod common;

use common::{
    assert_golden, golden_config, replay, replay_cfg, replay_observed, GOLDEN_OPAQUE,
    GOLDEN_PAYLOADS,
};
use proram_obs::{NoopSink, Obs};
use proram_oram::FaultConfig;

#[test]
fn golden_run_with_payloads() {
    assert_golden(&replay(true), &GOLDEN_PAYLOADS);
}

#[test]
fn golden_run_without_payloads() {
    assert_golden(&replay(false), &GOLDEN_OPAQUE);
}

/// A structurally present but zero-rate fault injector must leave every
/// golden observable untouched: the injector draws from its own RNG, so
/// installing it cannot perturb path selection, eviction, byte
/// accounting, or the adversary-visible trace.
#[test]
fn golden_run_with_silent_fault_injector() {
    let cfg = golden_config(true)
        .to_builder()
        .fault(FaultConfig::silent(0xDEAD))
        .build()
        .expect("valid golden configuration");
    assert_golden(&replay_cfg(cfg), &GOLDEN_PAYLOADS);
}

/// Attaching an enabled-but-retaining-nothing observability sink must
/// leave every golden byte-identical: the obs layer reads controller
/// state but never feeds back into path selection, eviction, or byte
/// accounting.
#[test]
fn goldens_unchanged_with_noop_sink_attached() {
    let d = replay_observed(golden_config(true), Obs::with_sink(Box::new(NoopSink)));
    assert_golden(&d, &GOLDEN_PAYLOADS);
}

/// Same property with the retaining ring sink: events accumulate on the
/// side, and the run itself still matches the disabled-path goldens.
#[test]
fn goldens_unchanged_with_ring_sink_attached() {
    let obs = Obs::ring(1 << 12);
    let d = replay_observed(golden_config(false), obs.clone());
    assert_golden(&d, &GOLDEN_OPAQUE);
    // The sink really was live for the whole replay.
    assert!(obs.event_count() > 0 || obs.dropped() > 0);
}
