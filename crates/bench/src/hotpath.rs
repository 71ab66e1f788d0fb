//! The ORAM-access hot-path kernels behind `proram-bench hotpath`.
//!
//! Two kernels drive a `PathOram` directly — no cache hierarchy, no
//! workload model — so their throughput isolates the controller + path
//! engine (`opaque`) and the same plus the encrypted byte-level image
//! (`encrypted`), where every path read decrypts and authenticates its
//! off-chip buckets and every write-back re-encrypts them. A cipher
//! microbench times the widened keystream
//! against its retained scalar reference
//! ([`StreamCipher::apply_scalar_reference`]) in interleaved slices of
//! the same run and asserts the widening still pays. `proram-bench
//! hotpath` writes all three as `BENCH_hotpath.json`, together with a
//! manifest of the build and host that measured them: only same-run
//! references count as a "before", so the report carries no baseline
//! from another machine.

use crate::microbench::Throughput;
use proram_mem::{AccessKind, BlockAddr};
use proram_oram::{OramConfig, PathOram, StreamCipher};
use proram_stats::{Rng64, Xoshiro256};
use std::time::Instant;

/// Data blocks in the kernel tree (2^14 => 14 levels at Z=3).
pub(crate) const NUM_BLOCKS: u64 = 1 << 14;
/// Accesses executed before timing starts.
pub(crate) const WARMUP: u64 = 2_000;
/// Accesses per timer check.
pub(crate) const CHUNK: u64 = 256;

/// Target widened-over-scalar cipher throughput ratio. The 8-wide
/// keystream is pure ILP, so this is machine-independent and typically
/// measures ~1.55x; [`check_cipher`] retries a trial that misses it
/// (shared runners dip under co-tenant load) and records the achieved
/// ratio in the report.
pub const CIPHER_SPEEDUP_FLOOR: f64 = 1.5;

/// Hard assertion floor for the cipher ratio: [`check_cipher`] panics
/// when even the best retry lands below this. Set with enough margin
/// below [`CIPHER_SPEEDUP_FLOOR`] that sustained interference on a
/// shared single-core runner (observed compressing the measured ratio to
/// ~1.2x) does not fail the build, while a genuine loss of the widened
/// path's ILP (ratio ~1.0x) still does.
pub const CIPHER_SPEEDUP_HARD_FLOOR: f64 = 1.1;

/// Cipher trials [`check_cipher`] runs before giving up on the soft
/// target.
const CIPHER_TRIALS: usize = 3;

/// Interleaved slices per cipher trial: both variants run many short
/// alternating timed slices, so transient interference (a noisy
/// co-tenant, a frequency dip) hits individual slices instead of biasing
/// one whole side of the comparison.
const CIPHER_SLICES: usize = 8;

/// Cipher-microbench buffer size: one plausible bucket body (Z = 3 slots
/// of a little over 1 KiB each).
const CIPHER_BUF_BYTES: usize = 4096;

/// The cipher microbench's result: the gated ratio and the throughputs
/// of the trial that produced it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CipherCheck {
    /// Widened-over-scalar throughput ratio of the best trial.
    pub ratio: f64,
    /// Widened-keystream throughput of that trial, bytes/sec.
    pub wide_bytes_per_sec: f64,
    /// Scalar-reference throughput of that trial, bytes/sec.
    pub scalar_bytes_per_sec: f64,
}

/// Everything `proram-bench hotpath` measures in one run.
#[derive(Debug, Clone, PartialEq)]
pub struct HotpathReport {
    /// `(kernel name, throughput)`: `units` are logical ORAM accesses;
    /// `bytes` are path bytes moved (`OramStats::bytes_moved`);
    /// `allocations_avoided` counts path-scratch reuses — each one a
    /// `read_path`/`write_path` round trip that allocated nothing.
    pub kernels: Vec<(&'static str, Throughput)>,
    /// The widened-cipher check.
    pub cipher: CipherCheck,
}

pub(crate) fn kernel_config(store_payloads: bool) -> OramConfig {
    OramConfig::builder()
        .num_data_blocks(NUM_BLOCKS)
        .entries_per_posmap_block(8)
        .store_payloads(store_payloads)
        .trace_capacity(0)
        .build()
        .expect("kernel configuration is valid")
}

/// Runs one kernel for roughly `ms` milliseconds of timed accesses.
pub fn run_kernel(store_payloads: bool, ms: u64) -> Throughput {
    let mut oram = PathOram::new(kernel_config(store_payloads), 1);
    let mut rng = Xoshiro256::seed_from(2);
    for _ in 0..WARMUP {
        oram.try_access_block(BlockAddr(rng.next_below(NUM_BLOCKS)), AccessKind::Read)
            .unwrap();
    }
    let bytes_before = oram.oram_stats().bytes_moved;
    let reuse_before = oram.allocs_avoided();
    let start = Instant::now();
    let mut accesses = 0u64;
    loop {
        for _ in 0..CHUNK {
            oram.try_access_block(BlockAddr(rng.next_below(NUM_BLOCKS)), AccessKind::Read)
                .unwrap();
        }
        accesses += CHUNK;
        if start.elapsed().as_millis() >= u128::from(ms) {
            break;
        }
    }
    Throughput {
        units: accesses,
        bytes: oram.oram_stats().bytes_moved - bytes_before,
        allocations_avoided: oram.allocs_avoided() - reuse_before,
        secs: start.elapsed().as_secs_f64(),
    }
}

/// Times both cipher formulations over [`CIPHER_SLICES`] alternating
/// slices of roughly `ms` milliseconds each; returns the `(wide, scalar)`
/// throughput of every slice in bytes/sec.
fn cipher_slices(ms: u64) -> Vec<(f64, f64)> {
    let cipher = StreamCipher::new(0x5EED_CAFE_F00D_D00D);
    let mut buf = vec![0u8; CIPHER_BUF_BYTES];
    let mut nonce = 1u64;
    let mut slice = |wide: bool| {
        let start = Instant::now();
        let mut bytes = 0u64;
        while start.elapsed().as_millis() < u128::from(ms) {
            for _ in 0..16 {
                nonce = nonce.wrapping_add(1);
                if wide {
                    cipher.apply(nonce, &mut buf);
                } else {
                    cipher.apply_scalar_reference(nonce, &mut buf);
                }
            }
            bytes += 16 * CIPHER_BUF_BYTES as u64;
        }
        std::hint::black_box(&buf);
        bytes as f64 / start.elapsed().as_secs_f64()
    };
    (0..CIPHER_SLICES)
        .map(|_| (slice(true), slice(false)))
        .collect()
}

/// One trial's statistic: the best wide slice over the best scalar
/// slice, with those two throughputs.
fn best_slice_ratio(slices: &[(f64, f64)]) -> (f64, f64, f64) {
    let wide = slices.iter().map(|s| s.0).fold(0.0, f64::max);
    let scalar = slices.iter().map(|s| s.1).fold(0.0, f64::max);
    (wide / scalar, wide, scalar)
}

/// Runs the cipher microbench with roughly `ms` milliseconds of budget
/// per trial.
///
/// # Panics
///
/// Panics if the widened cipher fails to beat the scalar reference by
/// [`CIPHER_SPEEDUP_HARD_FLOOR`] on three consecutive trials — that
/// regression would mean the widened keystream lost its
/// instruction-level parallelism. Trials below the soft
/// [`CIPHER_SPEEDUP_FLOOR`] are retried and the best ratio is kept.
pub fn check_cipher(ms: u64) -> CipherCheck {
    // Per-slice budget: a trial runs 2 * CIPHER_SLICES slices.
    let slice_ms = (ms / (2 * CIPHER_SLICES as u64)).clamp(10, 50);
    let mut best = CipherCheck {
        ratio: 0.0,
        wide_bytes_per_sec: 0.0,
        scalar_bytes_per_sec: 0.0,
    };
    // The soft target is a floor on a wall-clock ratio; on a loaded
    // shared runner even one trial can dip, so retry the whole trial and
    // keep the best ratio seen. Only a best ratio below the hard floor —
    // the widened path essentially tying the scalar loop — is a
    // regression worth failing on.
    for _ in 0..CIPHER_TRIALS {
        let (ratio, wide, scalar) = best_slice_ratio(&cipher_slices(slice_ms));
        if ratio > best.ratio {
            best.ratio = ratio;
            best.wide_bytes_per_sec = wide;
            best.scalar_bytes_per_sec = scalar;
        }
        if best.ratio >= CIPHER_SPEEDUP_FLOOR {
            break;
        }
    }
    assert!(
        best.ratio >= CIPHER_SPEEDUP_HARD_FLOOR,
        "widened keystream must be >= {CIPHER_SPEEDUP_HARD_FLOOR}x the scalar reference \
         (soft target {CIPHER_SPEEDUP_FLOOR}x), got {:.2}x \
         ({:.3e} vs {:.3e} bytes/sec) after {CIPHER_TRIALS} attempts",
        best.ratio,
        best.wide_bytes_per_sec,
        best.scalar_bytes_per_sec
    );
    best
}

/// Measures both kernels for roughly `ms` milliseconds each, then runs
/// the cipher check ([`check_cipher`]) with the same budget.
///
/// # Panics
///
/// Panics if the cipher check fails.
pub fn measure(ms: u64) -> HotpathReport {
    HotpathReport {
        kernels: vec![
            ("oram-access/opaque", run_kernel(false, ms)),
            ("oram-access/encrypted", run_kernel(true, ms)),
        ],
        cipher: check_cipher(ms),
    }
}

/// Runs `program args` and returns its trimmed stdout, or `"unknown"`
/// when it cannot run or fails.
fn command_output(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .stdin(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|out| out.status.success())
        .map_or_else(
            || "unknown".to_owned(),
            |out| String::from_utf8_lossy(&out.stdout).trim().to_owned(),
        )
}

/// The build and host facts the report carries: git revision and
/// whether the working tree differed from it, `rustc -V` and the cores
/// the host reports.
pub fn manifest() -> Vec<(&'static str, String)> {
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    let dirty = match command_output("git", &["status", "--porcelain"]).as_str() {
        "unknown" => "unknown".to_owned(),
        s => (!s.is_empty()).to_string(),
    };
    vec![
        ("git_rev", command_output("git", &["rev-parse", "HEAD"])),
        ("git_dirty", dirty),
        ("rustc", command_output("rustc", &["-V"])),
        ("nproc", cores.to_string()),
    ]
}

/// Renders the report as the `BENCH_hotpath.json` document.
pub fn to_json(report: &HotpathReport, manifest: &[(&str, String)], ms: u64) -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"benchmark\": \"oram-access hot path\",\n");
    out.push_str("  \"harness\": \"proram-bench hotpath\",\n");
    let fields: Vec<String> = manifest
        .iter()
        .map(|(k, v)| format!("\"{k}\": \"{}\"", v.replace(['"', '\\'], "")))
        .collect();
    out.push_str(&format!("  \"manifest\": {{{}}},\n", fields.join(", ")));
    out.push_str(&format!("  \"measure_ms\": {ms},\n"));
    out.push_str(&format!(
        "  \"config\": {{\"num_data_blocks\": {NUM_BLOCKS}, \"entries_per_posmap_block\": 8, \"warmup_accesses\": {WARMUP}}},\n"
    ));
    out.push_str("  \"kernels\": [\n");
    for (i, (name, t)) in report.kernels.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"name\": \"{name}\", \"accesses_per_sec\": {:.1}, \"bytes_per_sec\": {:.4e}, \"timed_accesses\": {}, \"allocations_avoided\": {}}}{}\n",
            t.units_per_sec(),
            t.bytes_per_sec(),
            t.units,
            t.allocations_avoided,
            if i + 1 == report.kernels.len() { "" } else { "," }
        ));
    }
    out.push_str("  ],\n");
    let c = &report.cipher;
    out.push_str(&format!(
        "  \"cipher\": {{\"wide_bytes_per_sec\": {:.4e}, \"scalar_bytes_per_sec\": {:.4e}, \"speedup\": {:.3}, \"floor\": {CIPHER_SPEEDUP_FLOOR}, \"hard_floor\": {CIPHER_SPEEDUP_HARD_FLOOR}}}\n",
        c.wide_bytes_per_sec, c.scalar_bytes_per_sec, c.ratio
    ));
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_runs_and_reuses_scratch() {
        let r = run_kernel(false, 30);
        assert!(r.units >= CHUNK);
        assert!(r.units_per_sec() > 0.0);
        assert!(r.bytes_per_sec() > 0.0);
        // Every timed round trip after warmup reuses the scratch.
        assert!(r.allocations_avoided >= r.units);
    }

    #[test]
    fn cipher_slices_report_positive_throughput() {
        let slices = cipher_slices(2);
        assert_eq!(slices.len(), CIPHER_SLICES);
        assert!(slices.iter().all(|&(w, s)| w > 0.0 && s > 0.0));
    }

    #[test]
    fn best_slice_ratio_pairs_the_fastest_slices() {
        let (ratio, wide, scalar) = best_slice_ratio(&[(3.0, 1.0), (4.0, 2.0), (1.0, 1.5)]);
        assert_eq!((wide, scalar), (4.0, 2.0));
        assert!((ratio - 2.0).abs() < 1e-12);
    }

    #[test]
    fn json_is_shaped_like_a_report() {
        let report = HotpathReport {
            kernels: vec![(
                "oram-access/opaque",
                Throughput {
                    units: 512,
                    bytes: 5_120_000,
                    allocations_avoided: 1024,
                    secs: 2.048,
                },
            )],
            cipher: CipherCheck {
                ratio: 1.6,
                wide_bytes_per_sec: 8.0e9,
                scalar_bytes_per_sec: 5.0e9,
            },
        };
        let manifest = vec![("git_rev", "abc".to_owned()), ("nproc", "2".to_owned())];
        let json = to_json(&report, &manifest, 1000);
        assert!(json.contains("\"manifest\": {\"git_rev\": \"abc\", \"nproc\": \"2\"}"));
        assert!(json.contains("\"accesses_per_sec\": 250.0"));
        assert!(json.contains("\"allocations_avoided\": 1024"));
        assert!(json.contains("\"speedup\": 1.600"));
        assert!(!json.contains("before"));
        // Balanced braces as a crude well-formedness check.
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }
}
