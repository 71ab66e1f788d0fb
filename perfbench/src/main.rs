//! Single-process benchmark of the PrORAM stack.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <sealed-uniform|sim-radix|sim-ycsb> [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Each run drives one workload through the public APIs of the
//! repository's crates, in one thread, as a single closed-loop client.
//! With `--trace 0` it prints the end-to-end metrics; with `--trace 1`
//! it prints the per-layer metrics, timed from outside at public layer
//! boundaries. The last line of standard output is one JSON object with
//! the keys `correct`, `attempted`, `failed` and `metrics`; the process
//! exits non-zero when any correctness check failed. `README.md` in this
//! directory documents every workload and metric.

mod measure;
mod report;
mod sealed;
mod sim;

use report::Outcome;
use std::process::ExitCode;

/// Workload seed used when `--seed` is absent.
pub const DEFAULT_SEED: u64 = 1;
/// Seed reserved for confirming a claimed gain: never use it while a
/// change is being tuned.
pub const CONFIRM_SEED: u64 = 2015;

/// The workloads the harness runs. `BENCHMARK.json` lists all but
/// `sim-radix` (see `README.md`).
pub const WORKLOADS: [&str; 3] = ["sealed-uniform", "sim-radix", "sim-ycsb"];

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name (one of [`WORKLOADS`]).
    pub workload: String,
    /// Seed of the workload's input stream.
    pub seed: u64,
    /// Nominal run length; the amount of work done scales with it.
    pub seconds: u64,
    /// `true` for the traced (per-layer) run.
    pub trace: bool,
}

fn usage() -> String {
    format!(
        "usage: perfbench --workload <{}> [--seed N (default {DEFAULT_SEED}; {CONFIRM_SEED} is reserved \
         for confirming claims)] [--seconds S (1..=600, default 45)] [--trace 0|1]",
        WORKLOADS.join("|")
    )
}

fn parse_args(raw: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 45,
        trace: false,
    };
    let mut it = raw.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} takes a whole number, got '{value}'"))
        };
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = number()?,
            "--seconds" => args.seconds = number()?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got '{value}'")),
                }
            }
            _ => return Err(format!("unknown argument '{flag}'")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("unknown or missing workload '{}'", args.workload));
    }
    if !(1..=600).contains(&args.seconds) {
        return Err(format!(
            "--seconds must be in 1..=600, got {}",
            args.seconds
        ));
    }
    Ok(args)
}

/// Runs the workload, then adds the metrics every workload shares.
fn run(args: &Args) -> Outcome {
    let mut out = match args.workload.as_str() {
        "sealed-uniform" => sealed::run(args),
        "sim-radix" => sim::run(args, sim::Bench::Radix),
        "sim-ycsb" => sim::run(args, sim::Bench::Ycsb),
        other => unreachable!("workload '{other}' passed validation"),
    };
    if !out.correct() {
        return out;
    }
    if args.trace {
        let (mac_ns, cipher_ns) = sealed::crypto_probe();
        out.set("crypto.mac_ns_per_bucket", mac_ns);
        out.set("crypto.cipher_ns_per_bucket", cipher_ns);
        // A layer the workload does not route through a boundary the
        // harness can time reads 0.
        for (name, _) in report::PER_LAYER {
            out.metrics.entry(name).or_insert(0.0);
        }
    } else {
        match measure::peak_rss_mib() {
            Some(mib) => out.set("peak_rss_mib", mib),
            None => out.check(false, "peak RSS readable from /proc/self/status"),
        }
    }
    out
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&raw) {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("perfbench: {msg}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let outcome = run(&args);
    report::print(&args, &outcome);
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "perfbench: {} of {} operations or checks failed",
            outcome.failed, outcome.attempted
        );
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| (*s).to_owned()).collect()
    }

    #[test]
    fn parses_a_full_command_line() {
        let a = parse_args(&strings(&[
            "--workload",
            "sim-ycsb",
            "--seed",
            "9",
            "--seconds",
            "3",
            "--trace",
            "1",
        ]))
        .unwrap();
        assert_eq!(a.workload, "sim-ycsb");
        assert_eq!((a.seed, a.seconds, a.trace), (9, 3, true));
    }

    #[test]
    fn rejects_bad_arguments() {
        for bad in [
            &["--workload", "nope"][..],
            &["--workload", "sim-radix", "--trace", "2"],
            &["--workload", "sim-radix", "--seconds", "0"],
            &["--workload", "sim-radix", "--seed"],
            &["--workload", "sim-radix", "--bogus", "1"],
            &[],
        ] {
            assert!(parse_args(&strings(bad)).is_err(), "{bad:?}");
        }
    }
}
