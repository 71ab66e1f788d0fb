//! Metric names, the run outcome, and the printed result.

use crate::Args;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics (`--trace 0`), with units, as `BENCHMARK.json`
/// lists them.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("access_p50_us", "us"),
    ("access_p99_us", "us"),
    ("peak_rss_mib", "MiB"),
    ("bytes_per_access", "B"),
    ("sim_cycles_per_op", "cycles"),
];

/// Per-layer metrics (`--trace 1`), with units, as `BENCHMARK.json`
/// lists them. A layer the workload does not route through a boundary
/// the harness can time reads 0 (see `README.md`).
pub const PER_LAYER: [(&str, &str); 29] = [
    ("oram.txn_begin_us", "us"),
    ("oram.resolve_posmap_us", "us"),
    ("oram.path_fetch_us", "us"),
    ("oram.decrypt_verify_us", "us"),
    ("oram.stash_update_us", "us"),
    ("oram.payload_us", "us"),
    ("oram.write_back_us", "us"),
    ("oram.evict_us", "us"),
    ("oram.txn_commit_us", "us"),
    ("oram.paths_per_access", "count"),
    ("oram.posmap_paths_per_access", "count"),
    ("oram.bg_evictions_per_access", "count"),
    ("oram.plb_hit_ratio", "ratio"),
    ("oram.stash_peak", "blocks"),
    ("crypto.mac_ns_per_bucket", "ns"),
    ("crypto.cipher_ns_per_bucket", "ns"),
    ("workloads.next_op_ns", "ns"),
    ("sim.hit_step_ns", "ns"),
    ("sim.miss_step_ns", "ns"),
    ("mem.host_ns_per_path", "ns"),
    ("cache.llc_miss_ratio", "ratio"),
    ("core.prefetch_hit_ratio", "ratio"),
    ("mem.paths_per_demand", "count"),
    ("mem.posmap_paths_per_demand", "count"),
    ("mem.dummy_paths_per_demand", "count"),
    ("mem.busy_share", "ratio"),
    ("sim.writebacks_per_op", "count"),
    ("trace.coverage", "ratio"),
    ("trace.overhead", "ratio"),
];

/// What one run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations and end-of-run checks attempted.
    pub attempted: u64,
    /// Operations and checks that failed.
    pub failed: u64,
    /// Metric values by name.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
    /// Extra manifest entries (run plan, deterministic digests).
    pub manifest: Vec<(&'static str, String)>,
}

impl Outcome {
    /// Records one check: counts it as attempted, and as failed unless
    /// `ok`, with `what` noted on failure.
    pub fn check(&mut self, ok: bool, what: &str) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.notes.push(format!("CHECK FAILED: {what}"));
        }
    }

    /// Sets metric `name`.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// `true` when every operation and check passed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Prints the manifest, one line per metric, and the result JSON as the
/// last line of standard output.
///
/// # Panics
///
/// Panics if a correct run lacks a metric of its mode or produced a
/// non-finite value: both are harness bugs.
pub fn print(args: &Args, outcome: &Outcome) {
    let mut manifest = crate::measure::manifest(args);
    manifest.extend(outcome.manifest.iter().map(|(k, v)| (*k, v.clone())));
    let fields: Vec<String> = manifest
        .iter()
        .map(|(k, v)| format!("{}: {}", json_str(k), json_str(v)))
        .collect();
    println!("{{\"manifest\": {{{}}}}}", fields.join(", "));
    for note in &outcome.notes {
        println!("{note}");
    }
    println!(
        "fail_ratio {} ({} of {} failed)",
        outcome.failed as f64 / outcome.attempted.max(1) as f64,
        outcome.failed,
        outcome.attempted
    );
    let mut entries = Vec::new();
    let names: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    for &(name, unit) in names {
        let value = match outcome.metrics.get(name) {
            Some(v) if v.is_finite() => *v,
            other => {
                assert!(
                    !outcome.correct(),
                    "metric {name} missing or not finite: {other:?}"
                );
                0.0
            }
        };
        println!("metric {name} {value} {unit}");
        entries.push(format!(
            "{}: {{\"value\": {value}, \"unit\": {}}}",
            json_str(name),
            json_str(unit)
        ));
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.correct(),
        outcome.attempted.max(1),
        outcome.failed,
        entries.join(", ")
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut all: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER.iter())
            .map(|(n, _)| *n)
            .collect();
        for n in &all {
            assert!(
                n.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{n}"
            );
            assert!(n.len() <= 64 && n.starts_with(|c: char| c.is_ascii_alphanumeric()));
        }
        let len = all.len();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), len, "duplicate metric name");
    }

    #[test]
    fn json_strings_are_escaped() {
        assert_eq!(json_str("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
    }
}
