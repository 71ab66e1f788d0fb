//! Timing, statistics, memory and manifest helpers shared by the
//! workloads.

use crate::report::Outcome;
use crate::Args;
use std::time::Instant;

/// Median of `values` (mean of the middle two for even lengths; 0 when
/// empty).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The `q`-quantile (`0.0..=1.0`) of `values` by linear interpolation
/// between closest ranks (0 when empty). Sorts `values` in place.
pub fn quantile(values: &mut [f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (values.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    values[lo] + (values[hi] - values[lo]) * (pos - lo as f64)
}

/// One line summarising `values`: count, min, quartiles and max.
pub fn spread_note(label: &str, values: &[f64]) -> String {
    let mut v = values.to_vec();
    let [min, q1, med, q3, max] = [0.0, 0.25, 0.5, 0.75, 1.0].map(|p| quantile(&mut v, p));
    format!(
        "{label}: n={} min={min:.1} q1={q1:.1} median={med:.1} q3={q3:.1} max={max:.1}",
        v.len()
    )
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Nanoseconds elapsed since `start`.
#[inline]
pub fn ns_since(start: Instant) -> u64 {
    start.elapsed().as_nanos() as u64
}

/// Times `build` `reps` times and returns the median build time in
/// seconds together with the last value built (earlier ones are dropped
/// before the next build starts, so peak memory holds one instance).
pub fn timed_setup<T>(reps: usize, mut build: impl FnMut() -> T) -> (f64, T) {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps {
        drop(last.take());
        let start = Instant::now();
        let value = build();
        times.push(start.elapsed().as_secs_f64());
        last = Some(value);
    }
    (median(&times), last.expect("at least one setup repetition"))
}

/// Measurement chunks per run. Even, so a traced run alternates equal
/// numbers of traced and untraced chunks; at 45 s a chunk lasts about
/// 0.4 s and a sealed chunk holds 2250 accesses, so its 99th percentile
/// has 22 samples beyond it.
pub const CHUNKS: u64 = 120;

/// Throughput and latency of the untraced measurement chunks. Each
/// chunk yields its own rate and latency percentiles; the reported
/// values are medians over chunks, so a burst of interference from
/// outside the process moves few of them.
#[derive(Debug, Default)]
pub struct Chunks {
    current_us: Vec<f64>,
    samples: usize,
    rates: Vec<f64>,
    p50s: Vec<f64>,
    p99s: Vec<f64>,
}

impl Chunks {
    /// Records one operation latency of the current chunk.
    #[inline]
    pub fn sample(&mut self, ns: u64) {
        self.current_us.push(ns as f64 / 1e3);
    }

    /// Closes the current chunk: `ops` operations took `ns` nanoseconds.
    pub fn close(&mut self, ops: u64, ns: u64) {
        self.rates.push(ops as f64 / (ns as f64 / 1e9));
        if !self.current_us.is_empty() {
            self.p50s.push(quantile(&mut self.current_us, 0.50));
            self.p99s.push(quantile(&mut self.current_us, 0.99));
            self.samples += self.current_us.len();
            self.current_us.clear();
        }
    }

    /// Median chunk rate in operations per second.
    pub fn ops_per_s(&self) -> f64 {
        median(&self.rates)
    }

    /// Sets `ops_per_s`, `access_p50_us` and `access_p99_us`, and notes
    /// the sample counts and the chunk spread.
    pub fn report(&self, out: &mut Outcome, what: &str) {
        out.notes.push(format!(
            "latency samples ({what}): {} in {} chunks",
            self.samples,
            self.p50s.len()
        ));
        out.notes.push(spread_note("chunk ops/s", &self.rates));
        out.notes.push(spread_note("chunk p99 us", &self.p99s));
        out.set("ops_per_s", self.ops_per_s());
        out.set("access_p50_us", median(&self.p50s));
        out.set("access_p99_us", median(&self.p99s));
    }
}

/// Peak resident set of this process in MiB (`VmHWM`), or `None` where
/// `/proc` does not provide it.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

fn command_output(program: &str, args: &[&str]) -> Option<String> {
    let out = std::process::Command::new(program)
        .args(args)
        .stdin(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_owned())
}

/// The host and build facts every result carries: git revision and dirty
/// flag (only when run from the root of a git checkout), `rustc -V`,
/// available cores, CPU model, and the run's seed and length.
pub fn manifest(args: &Args) -> Vec<(&'static str, String)> {
    let in_git = std::path::Path::new(".git").exists();
    let git = |a: &[&str]| {
        in_git
            .then(|| command_output("git", a))
            .flatten()
            .unwrap_or_else(|| "unknown".to_owned())
    };
    let dirty = match git(&["status", "--porcelain"]).as_str() {
        "unknown" => "unknown".to_owned(),
        s => (!s.is_empty()).to_string(),
    };
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".to_owned());
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    vec![
        ("git_rev", git(&["rev-parse", "HEAD"])),
        ("git_dirty", dirty),
        (
            "rustc",
            command_output("rustc", &["-V"]).unwrap_or_else(|| "unknown".to_owned()),
        ),
        ("nproc", cores.to_string()),
        ("cpu_model", cpu),
        ("workload", args.workload.clone()),
        ("seed", args.seed.to_string()),
        ("seconds", args.seconds.to_string()),
        ("trace", u8::from(args.trace).to_string()),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_quantiles() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        let mut v: Vec<f64> = (0..=100).map(f64::from).collect();
        assert_eq!(quantile(&mut v, 0.99), 99.0);
        assert_eq!(quantile(&mut v, 0.5), 50.0);
    }

    #[test]
    fn setup_keeps_the_last_build() {
        let mut n = 0;
        let (secs, last) = timed_setup(3, || {
            n += 1;
            n
        });
        assert_eq!(last, 3);
        assert!(secs >= 0.0);
    }
}
