//! `sealed-uniform`: the encrypted Path ORAM kernel in its honest
//! configuration.
//!
//! Payloads are stored and encrypted, every path read is decrypted and
//! authenticated (`verify_image`), and every access runs under the
//! crash-consistent commit protocol. The protocol is armed through the
//! crash-injection hook with a kill point that never fires, because the
//! configuration has no other switch for it yet.

use crate::measure::{median, ns_since, ratio, timed_setup, Chunks, CHUNKS};
use crate::report::Outcome;
use crate::Args;
use proram_mem::{AccessKind, BlockAddr};
use proram_oram::{
    AccessMachine, AccessRequest, AccessStage, CrashConfig, EncryptedStore, KillPoint, Mac,
    OramBackend, OramConfig, OramError, OramStats, PathOram, Payload, StreamCipher,
};
use proram_stats::{Rng64, Xoshiro256};
use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// Data blocks in the tree.
pub const NUM_BLOCKS: u64 = 1 << 16;
/// Fixed ORAM seed: only the access stream follows `--seed`.
const ORAM_SEED: u64 = 11;
/// Builds timed per run; `setup_s` is their median.
const SETUP_REPS: usize = 9;
/// Accesses before measurement starts (stash and PLB warm).
const WARMUP: u64 = 1_000;
/// Measured accesses per second of `--seconds`. The count is fixed, not
/// timed, so the deterministic metrics repeat exactly.
const ACCESSES_PER_SECOND: u64 = 6_000;

/// Span indices of the traced access, in pipeline order.
const TXN_BEGIN: usize = 0;
const PAYLOAD: usize = 5;
const TXN_COMMIT: usize = 8;
const SPAN_NAMES: [&str; 9] = [
    "oram.txn_begin_us",
    "oram.resolve_posmap_us",
    "oram.path_fetch_us",
    "oram.decrypt_verify_us",
    "oram.stash_update_us",
    "oram.payload_us",
    "oram.write_back_us",
    "oram.evict_us",
    "oram.txn_commit_us",
];

/// Host nanoseconds per span. The spans never nest, so their sum is the
/// traced time they cover.
type SpanNs = [u64; SPAN_NAMES.len()];

fn stage_span(stage: AccessStage) -> usize {
    match stage {
        AccessStage::ResolvePosmap => 1,
        AccessStage::PathFetch => 2,
        AccessStage::DecryptVerify => 3,
        AccessStage::StashUpdate => 4,
        AccessStage::WriteBack => 6,
        AccessStage::Evict => 7,
        AccessStage::Done => unreachable!("a finished machine is never stepped"),
    }
}

/// The benchmarked configuration.
pub fn config() -> OramConfig {
    OramConfig::builder()
        .num_data_blocks(NUM_BLOCKS)
        .entries_per_posmap_block(8)
        .store_payloads(true)
        .verify_image(true)
        .trace_capacity(0)
        .crash(CrashConfig::at(KillPoint::WriteBack, u64::MAX))
        .build()
        .expect("the sealed configuration is valid")
}

/// The seeded request stream: uniform addresses, alternating reads and
/// writes, a fresh random payload per write.
struct Stream {
    rng: Xoshiro256,
    write_next: bool,
    payload: Vec<u8>,
}

impl Stream {
    fn new(seed: u64, block_bytes: usize) -> Self {
        Stream {
            rng: Xoshiro256::seed_from(seed),
            write_next: false,
            payload: vec![0; block_bytes],
        }
    }

    /// The next request; for a write, `self.payload` holds its bytes.
    fn next(&mut self) -> (BlockAddr, bool) {
        let addr = BlockAddr(self.rng.next_below(NUM_BLOCKS));
        let write = self.write_next;
        self.write_next = !write;
        if write {
            for chunk in self.payload.chunks_mut(8) {
                let word = self.rng.next_u64().to_le_bytes();
                chunk.copy_from_slice(&word[..chunk.len()]);
            }
        }
        (addr, write)
    }
}

/// The ORAM under test plus the client's view of what it should hold.
struct Client {
    oram: PathOram,
    stream: Stream,
    /// Last value written to every block (initial contents are zero).
    shadow: Vec<u8>,
    block_bytes: usize,
    /// Reads that did not return the last value written.
    mismatches: u64,
}

impl Client {
    /// Byte range of `addr` in `shadow`.
    fn slot(&self, addr: BlockAddr) -> std::ops::Range<usize> {
        let at = addr.0 as usize * self.block_bytes;
        at..at + self.block_bytes
    }

    /// One access through the public payload API.
    fn access(&mut self) -> Result<(), OramError> {
        let (addr, write) = self.stream.next();
        let slot = self.slot(addr);
        if write {
            self.oram.try_write_block(addr, &self.stream.payload)?;
            self.shadow[slot].copy_from_slice(&self.stream.payload);
        } else {
            let got = self.oram.try_read_block(addr)?;
            if got.as_deref() != Some(&self.shadow[slot]) {
                self.mismatches += 1;
            }
        }
        Ok(())
    }

    /// One access with a span around every call into the ORAM, mirroring
    /// `PathOram::try_access_block`: open the transaction, step the
    /// access machine through its stages, commit. The payload is read or
    /// replaced while the block sits in the stash, between the stash
    /// update and the write-back.
    fn access_traced(&mut self, spans: &mut SpanNs) -> Result<(), OramError> {
        let (addr, write) = self.stream.next();
        let kind = if write {
            AccessKind::Write
        } else {
            AccessKind::Read
        };
        let start = Instant::now();
        OramBackend::txn_begin(&mut self.oram);
        spans[TXN_BEGIN] += ns_since(start);
        let mut machine = AccessMachine::new(AccessRequest { addr, kind });
        loop {
            let stage = machine.stage();
            let start = Instant::now();
            let done = machine.step(&mut self.oram)?;
            spans[stage_span(stage)] += ns_since(start);
            if stage == AccessStage::StashUpdate {
                let start = Instant::now();
                self.payload_in_stash(addr, write);
                spans[PAYLOAD] += ns_since(start);
            }
            if done.is_some() {
                break;
            }
        }
        let start = Instant::now();
        OramBackend::txn_commit(&mut self.oram)?;
        spans[TXN_COMMIT] += ns_since(start);
        Ok(())
    }

    fn payload_in_stash(&mut self, addr: BlockAddr, write: bool) {
        let slot = self.slot(addr);
        let expected = &mut self.shadow[slot];
        match self.oram.stash_block_mut(addr).map(|b| &mut b.payload) {
            Some(Payload::Data(bytes)) if write => {
                bytes.copy_from_slice(&self.stream.payload);
                expected.copy_from_slice(&self.stream.payload);
            }
            Some(Payload::Data(bytes)) if **bytes == *expected => {}
            _ => self.mismatches += 1,
        }
    }
}

/// Median nanoseconds of `f` over batches of `iters` calls.
fn ns_per_call(iters: u32, mut f: impl FnMut()) -> f64 {
    let batches: Vec<f64> = (0..9)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..iters {
                f();
            }
            ns_since(start) as f64 / f64::from(iters)
        })
        .collect();
    median(&batches)
}

/// Host nanoseconds of the public `Mac::tag` and `StreamCipher::apply`
/// on one bucket image of the sealed configuration. Every traced run
/// reports them, so the sims show that crypto is off their path.
pub fn crypto_probe() -> (f64, f64) {
    let cfg = config();
    let bucket_bytes =
        EncryptedStore::new(1, cfg.z, cfg.timing.block_bytes as usize, 1).bucket_bytes();
    let mut buf = vec![0x5au8; bucket_bytes];
    let mac = Mac::new(0x1234_5678);
    let cipher = StreamCipher::new(0x9abc_def0);
    let mut nonce = 0u64;
    let mac_ns = ns_per_call(4_000, || {
        nonce += 1;
        black_box(mac.tag(black_box(&[nonce, 7]), black_box(&buf)));
    });
    let cipher_ns = ns_per_call(4_000, || {
        nonce += 1;
        cipher.apply(nonce, black_box(&mut buf));
    });
    (mac_ns, cipher_ns)
}

/// Runs the workload.
pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let cfg = config();
    let block_bytes = cfg.timing.block_bytes as usize;
    let (setup_s, oram) = timed_setup(SETUP_REPS, || PathOram::new(cfg.clone(), ORAM_SEED));
    let mut client = Client {
        oram,
        stream: Stream::new(args.seed, block_bytes),
        shadow: vec![0; NUM_BLOCKS as usize * block_bytes],
        block_bytes,
        mismatches: 0,
    };
    let chunk_len = args.seconds * ACCESSES_PER_SECOND / CHUNKS;
    let measured = chunk_len * CHUNKS;
    out.manifest.push(("warmup_accesses", WARMUP.to_string()));
    out.manifest
        .push(("measured_accesses", measured.to_string()));

    let mut error = None;
    for _ in 0..WARMUP {
        out.attempted += 1;
        if let Err(e) = client.access() {
            error = Some(e);
            break;
        }
    }
    let before = client.oram.oram_stats();
    let plb_before = client.oram.plb_stats();
    let mut spans: SpanNs = [0; SPAN_NAMES.len()];
    let mut chunks = Chunks::default();
    let mut traced_rates = Vec::new();
    let (mut traced_ns, mut traced_accesses) = (0u64, 0u64);
    for chunk in 0..CHUNKS {
        if error.is_some() {
            break;
        }
        let traced = args.trace && chunk % 2 == 0;
        let start = Instant::now();
        for _ in 0..chunk_len {
            out.attempted += 1;
            let result = if traced {
                client.access_traced(&mut spans)
            } else {
                let t = Instant::now();
                let r = client.access();
                chunks.sample(ns_since(t));
                r
            };
            if let Err(e) = result {
                error = Some(e);
                break;
            }
        }
        let ns = ns_since(start);
        if traced {
            traced_ns += ns;
            traced_accesses += chunk_len;
            traced_rates.push(chunk_len as f64 / (ns as f64 / 1e9));
        } else {
            chunks.close(chunk_len, ns);
        }
    }
    if let Some(e) = error {
        out.failed += 1;
        out.notes.push(format!("CHECK FAILED: access error {e}"));
        return out;
    }

    let d = delta(&client.oram.oram_stats(), &before);
    // Each mismatched read already counts as an attempted operation.
    out.failed += client.mismatches;
    if client.mismatches > 0 {
        out.notes.push(format!(
            "CHECK FAILED: {} reads did not return the last value written",
            client.mismatches
        ));
    }
    let oram = &client.oram;
    out.check(
        catch_unwind(AssertUnwindSafe(|| oram.check_invariants())).is_ok(),
        "check_invariants",
    );
    out.check(
        catch_unwind(AssertUnwindSafe(|| oram.audit_full())).is_ok(),
        "audit_full",
    );
    out.check(
        oram.crash_stats().crashes_injected == 0,
        "no crash was injected",
    );
    out.manifest
        .push(("state_digest", format!("{:016x}", oram.state_digest())));
    out.manifest
        .push(("bytes_moved", d.bytes_moved.to_string()));

    let paths = d.total_path_accesses();
    if args.trace {
        let per_access = |ns: u64| ns as f64 / 1e3 / traced_accesses as f64;
        for (i, name) in SPAN_NAMES.iter().enumerate() {
            out.set(name, per_access(spans[i]));
        }
        let (plb_hits, plb_misses) = oram.plb_stats();
        let (hits, misses) = (plb_hits - plb_before.0, plb_misses - plb_before.1);
        out.set("oram.paths_per_access", ratio(paths, d.logical_accesses));
        out.set(
            "oram.posmap_paths_per_access",
            ratio(d.posmap_path_accesses, d.logical_accesses),
        );
        out.set(
            "oram.bg_evictions_per_access",
            ratio(d.background_evictions, d.logical_accesses),
        );
        out.set("oram.plb_hit_ratio", ratio(hits, hits + misses));
        out.set("oram.stash_peak", oram.stash().peak() as f64);
        out.set(
            "trace.coverage",
            spans.iter().sum::<u64>() as f64 / traced_ns as f64,
        );
        out.set(
            "trace.overhead",
            1.0 - median(&traced_rates) / chunks.ops_per_s(),
        );
    } else {
        out.set("setup_s", setup_s);
        chunks.report(&mut out, "every access");
        out.set("bytes_per_access", ratio(d.bytes_moved, d.logical_accesses));
        out.set(
            "sim_cycles_per_op",
            paths as f64 * oram.fetch_cycles() as f64 / d.logical_accesses as f64,
        );
    }
    out
}

fn delta(after: &OramStats, before: &OramStats) -> OramStats {
    OramStats {
        logical_accesses: after.logical_accesses - before.logical_accesses,
        data_path_accesses: after.data_path_accesses - before.data_path_accesses,
        posmap_path_accesses: after.posmap_path_accesses - before.posmap_path_accesses,
        background_evictions: after.background_evictions - before.background_evictions,
        bytes_moved: after.bytes_moved - before.bytes_moved,
        treetop_hits: after.treetop_hits - before.treetop_hits,
        treetop_bytes_saved: after.treetop_bytes_saved - before.treetop_bytes_saved,
    }
}
