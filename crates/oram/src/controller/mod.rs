//! The Path ORAM controller, split into pipeline stage modules.
//!
//! Implements the five-step access of paper Section 2.2 on top of the
//! unified recursive position map of Section 2.3 and background eviction
//! of Section 2.4. Each stage of an access lives in its own child module
//! and the stages communicate through the typed
//! [`crate::pipeline::AccessMachine`] state machine instead of one deep
//! call chain:
//!
//! * `posmap` — position-map resolve and remap (PLB, top table),
//! * `fetch` — path fetch: bucket-read batches, stash fill, block claim,
//! * `verify` — decrypt and authenticate the path's off-chip buckets,
//!   and the periodic scrub of the whole image,
//! * `writeback` — path write-back, background and emergency eviction.
//!
//! [`PathOram::try_access_block`] is a thin driver that steps the machine
//! to completion; the super-block schemes in `proram-core` compose the
//! same stage primitives ([`PathOram::try_resolve_posmap`],
//! [`PathOram::try_read_path_into_stash`],
//! [`PathOram::write_path_from_stash`], entry accessors) into grouped
//! accesses.
//!
//! # Fault handling
//!
//! Every fallible primitive returns [`Result<_, OramError>`] — the
//! `try_` forms ([`PathOram::try_access_block`],
//! [`PathOram::try_read_block`], [`PathOram::try_write_block`]) are the
//! only access API; the old panicking wrappers are gone. With a stored
//! image the off-chip buckets exist only as ciphertext, so nothing can be
//! repaired from a plaintext copy: a bucket that fails authentication
//! ([`OramError::Integrity`]) or is stale ([`OramError::Rollback`])
//! fail-stops the access with that typed error, and so does a transient
//! read failure that exhausts its retries (each retry's exponential
//! backoff is charged to access latency). A path is authenticated in full
//! before any of its blocks reaches the stash, and with fault injection
//! ([`OramConfig::fault`]) or crash injection the access runs under the
//! commit protocol and a failed one rolls back, so the controller is left
//! exactly as before the call. A stash past its hard capacity enters
//! emergency eviction before it fail-stops. Counters live in
//! [`proram_mem::FaultStats`], surfaced via [`PathOram::fault_stats`].

pub(crate) mod fetch;
pub(crate) mod posmap;
pub(crate) mod verify;
pub(crate) mod writeback;

use crate::addr::{AddressSpace, Leaf};
use crate::block::{Block, Payload};
use crate::bucket::Bucket;
use crate::config::OramConfig;
use crate::crash::{CrashArm, CrashStats, KillPoint, RecoveryMode, RecoveryReport};
use crate::error::OramError;
use crate::eviction::PathScratch;
use crate::journal::Checkpoint;
use crate::layout::StoreLayout;
use crate::pipeline::{AccessMachine, AccessRequest, AccessStage, StageCycles};
use crate::plb::Plb;
use crate::posmap::PosEntry;
use crate::stash::Stash;
use crate::storage::EncryptedStore;
use crate::trace::TraceRecorder;
use crate::tree::OramTree;
use proram_mem::{
    AccessKind, AccessOutcome, BackendStats, BankScheduler, BlockAddr, CacheProbe, Cycle,
    FaultStats, Fill, MemRequest, MemoryBackend,
};
use proram_obs::Obs;
use proram_stats::{Rng64, Xoshiro256};

/// Bound on background evictions after one access. A dense tree with a
/// tiny stash target can enter a persistent eviction storm (the regime of
/// the paper's Figure 12 at stash size 25); the controller then keeps
/// serving requests while evicting at this rate instead of livelocking.
pub(crate) const MAX_BACKGROUND_EVICTIONS_PER_ACCESS: u64 = 64;

/// Bound on *emergency* evictions when the stash exceeds its hard
/// capacity: the degraded mode may run this much longer than a normal
/// drain before the controller gives up and fail-stops with
/// [`OramError::StashOverflow`].
pub(crate) const MAX_EMERGENCY_EVICTIONS: u64 = 4 * MAX_BACKGROUND_EVICTIONS_PER_ACCESS;

/// A minimal FNV-1a accumulator for [`PathOram::state_digest`] —
/// deterministic across platforms, unlike the std hasher.
struct Fnv1a(u64);

impl Fnv1a {
    fn new() -> Fnv1a {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }

    fn write_bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        }
    }

    fn write_u64(&mut self, v: u64) {
        self.write_bytes(&v.to_le_bytes());
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// Statistics kept by the controller.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OramStats {
    /// Logical block requests served.
    pub logical_accesses: u64,
    /// Path accesses for data blocks.
    pub data_path_accesses: u64,
    /// Path accesses for position-map blocks.
    pub posmap_path_accesses: u64,
    /// Background-eviction (dummy) path accesses.
    pub background_evictions: u64,
    /// Bytes moved on the memory bus (all path accesses).
    pub bytes_moved: u64,
    /// Buckets served from the on-chip treetop cache (one per cached
    /// level per path access; zero with `treetop_levels == 0`).
    pub treetop_hits: u64,
    /// DRAM bytes the treetop cache saved: what the cached levels would
    /// have moved had they round-tripped through the store.
    pub treetop_bytes_saved: u64,
}

impl OramStats {
    /// All physical path accesses.
    pub fn total_path_accesses(&self) -> u64 {
        self.data_path_accesses + self.posmap_path_accesses + self.background_evictions
    }
}

/// Ground-truth classification of a path access (for statistics; on the
/// wire every kind is identical).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PathKind {
    /// A data-block (or super-block) access.
    Data,
    /// A position-map block fetch.
    PosMap,
    /// A dummy access: background eviction or periodic filler.
    Dummy,
}

/// Result of one logical access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessReport {
    /// Cycles the access occupied the ORAM (path transfers + overheads).
    /// Always equals [`StageCycles::total`] of `stages`.
    pub latency: u64,
    /// Total tree path accesses performed (data + posmap + background).
    pub tree_accesses: u64,
    /// Position-map path accesses among them.
    pub posmap_accesses: u64,
    /// Background evictions among them.
    pub background_evictions: u64,
    /// Per-stage cycle attribution summing to `latency`.
    pub stages: StageCycles,
}

/// The Path ORAM controller plus its tree.
///
/// Without a stored image (`store_payloads` off, the opaque simulation
/// mode behind every paper figure) the whole tree is resident in
/// [`OramTree`]. With one, only the on-chip treetop is: every other
/// bucket exists only as ciphertext in the [`EncryptedStore`].
///
/// # Examples
///
/// ```
/// use proram_oram::{OramConfig, PathOram};
/// use proram_mem::{AccessKind, BlockAddr};
///
/// let mut oram = PathOram::new(OramConfig::small_for_tests(512), 1);
/// let r1 = oram
///     .try_access_block(BlockAddr(7), AccessKind::Read)
///     .expect("no faults injected");
/// assert!(r1.tree_accesses >= 1);
/// oram.check_invariants();
/// ```
#[derive(Debug, Clone)]
pub struct PathOram {
    pub(crate) config: OramConfig,
    pub(crate) space: AddressSpace,
    /// The resident buckets: the whole tree in opaque mode, the treetop
    /// ([`StoreLayout::treetop_buckets`]) with a stored image.
    pub(crate) tree: OramTree,
    pub(crate) stash: Stash,
    pub(crate) plb: Plb,
    /// On-chip entries for blocks of the highest on-tree hierarchy (or for
    /// the data blocks themselves when `on_tree_hierarchies == 0`).
    pub(crate) top: Vec<PosEntry>,
    pub(crate) rng: Xoshiro256,
    pub(crate) store: Option<EncryptedStore>,
    pub(crate) trace: TraceRecorder,
    pub(crate) stats: OramStats,
    pub(crate) path_cycles: u64,
    /// Per-path fetch cost actually charged: equals `path_cycles` with the
    /// lump-sum timing model, smaller with the bank-aware pipeline
    /// ([`OramConfig::pipeline`]).
    pub(crate) fetch_cycles: u64,
    pub(crate) path_bytes: u64,
    /// DRAM bytes one path access would additionally move without the
    /// treetop cache (full-path bytes minus off-chip `path_bytes`).
    pub(crate) treetop_saved_bytes: u64,
    /// Heap-index ↔ physical-index map of the off-chip store: the top
    /// [`StoreLayout::treetop_buckets`] heap buckets live on chip and
    /// have no store image.
    pub(crate) layout: StoreLayout,
    pub(crate) busy_until: Cycle,
    pub(crate) label: String,
    /// Reusable path scratch: write-back bins plus the decrypted off-chip
    /// buckets of the path in flight (see [`PathScratch`]).
    pub(crate) scratch: PathScratch,
    /// Fault counters owned by the controller (unserved requests,
    /// emergency evictions, scrub passes); the injector's own counters
    /// live in the store and the two are summed by
    /// [`PathOram::fault_stats`].
    pub(crate) ctrl_faults: FaultStats,
    /// Data-path reads since the last scrub pass.
    pub(crate) reads_since_scrub: u64,
    /// Observability handle (events + per-stage profile); disabled by
    /// default so the hot path stays allocation- and branch-free.
    pub(crate) obs: Obs,
    /// Countdown arm for the six pipeline-stage kill points; the three
    /// store-level points are armed on the store instead
    /// ([`KillPoint::is_store_point`]).
    pub(crate) crash: Option<CrashArm>,
    /// Whether a commit transaction is open (between [`PathOram::txn_begin`]
    /// and the matching commit or recovery).
    pub(crate) txn_open: bool,
    /// `true` once the crash of the open transaction was counted and
    /// emitted (store-level crashes surface through several callers).
    pub(crate) crash_surfaced: bool,
    /// Cumulative crash-injection and recovery counters.
    pub(crate) crash_stats: CrashStats,
}

/// What the auditors' census found about one block.
#[derive(Debug, Clone, Copy, Default)]
struct Spot {
    /// Copies across stash, PLB and tree.
    copies: u32,
    /// Heap index of the first copy's bucket; `None` on chip.
    bucket: Option<usize>,
    /// The leaf its position-map entry names, if that entry was found.
    mapped: Option<Leaf>,
}

impl PathOram {
    /// Builds and initializes an ORAM: every data and position-map block
    /// is mapped to a random leaf and placed into the tree.
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails [`OramConfig::validate`].
    pub fn new(config: OramConfig, seed: u64) -> Self {
        config.validate();
        let space = config.address_space();
        let levels = config.tree_levels();
        let mut rng = Xoshiro256::seed_from(seed);
        // The store only holds the off-chip buckets: the treetop lives in
        // trusted on-chip memory and never gets a ciphertext image. With
        // `treetop_levels == 0` and the flat layout the map is the
        // identity, so the image (and its nonce sequence) is byte-
        // identical to the pre-layout goldens.
        let layout = StoreLayout::new(levels, config.treetop_levels, config.layout);
        let resident = if config.store_payloads {
            layout.treetop_buckets()
        } else {
            usize::MAX
        };
        let mut tree = OramTree::with_resident(levels, config.z, resident);
        let resident = tree.resident_buckets();
        let num_leaves = tree.num_leaves();
        // Random initial leaf for every on-tree block. Data blocks may be
        // grouped (static super block scheme, Section 3.3): every aligned
        // group of `init_group_size` shares one leaf.
        let total = space.total_tree_blocks();
        let group = config.init_group_size;
        let mut leaves: Vec<Leaf> = Vec::with_capacity(total as usize);
        for addr in 0..total {
            if addr < space.num_data_blocks() && group > 1 && addr % group != 0 {
                let base = (addr / group * group) as usize;
                leaves.push(leaves[base]);
            } else {
                leaves.push(Leaf(rng.next_below(u64::from(num_leaves)) as u32));
            }
        }

        // On-chip table: entries for the highest on-tree hierarchy (or for
        // the data blocks directly when there is no on-tree posmap).
        let top_child = space.on_tree_hierarchies();
        let top_base = space.region_base(top_child);
        let top: Vec<PosEntry> = (0..space.region_len(top_child))
            .map(|i| PosEntry::new(leaves[(top_base + i) as usize]))
            .collect();

        // The configured stash size is the *physical* capacity, which
        // must also buffer one in-flight path of `levels * Z` blocks
        // (at the paper's full scale a Z=4 path is 104 blocks against the
        // 100-block stash — the regime that makes super-block schemes
        // eviction-bound). Background eviction therefore triggers when
        // resting occupancy exceeds what leaves room for one path.
        let path_blocks = levels as usize * config.z;
        let resting_limit = config.stash_limit.saturating_sub(path_blocks).max(8);
        let mut stash = Stash::new(resting_limit);
        let mut store = if config.store_payloads {
            let mut store = EncryptedStore::new(
                layout.num_off_chip(),
                config.z,
                config.timing.block_bytes as usize,
                rng.next_u64(),
            );
            // Install the injector before the initial bucket writes so
            // even initialization traffic is subject to faults.
            if let Some(fault_cfg) = config.fault.clone() {
                store.enable_faults(fault_cfg);
            }
            Some(store)
        } else {
            None
        };

        // Materialize blocks and place each, in address order, as deep as
        // possible on its own path. Resident buckets take their blocks
        // directly; the off-chip ones are sealed afterwards, in heap
        // order, so no plaintext copy of the off-chip tree ever exists.
        let mut off_chip_fill = vec![0usize; tree.num_buckets() - resident];
        let mut off_chip: Vec<(usize, u64)> = Vec::new();
        let block = |addr: u64| {
            Self::make_block(
                &config,
                &space,
                BlockAddr(addr),
                leaves[addr as usize],
                &leaves,
            )
        };
        for addr in 0..total {
            let home = tree.path_indices(leaves[addr as usize]).rev().find(|&idx| {
                if idx < resident {
                    !tree.bucket(idx).is_full()
                } else {
                    off_chip_fill[idx - resident] < config.z
                }
            });
            match home {
                Some(idx) if idx < resident => tree.bucket_mut(idx).push(block(addr)),
                Some(idx) => {
                    off_chip_fill[idx - resident] += 1;
                    off_chip.push((idx, addr));
                }
                None => stash.insert(block(addr)),
            }
        }
        if let Some(store) = store.as_mut() {
            off_chip.sort_unstable();
            let mut next = off_chip.iter().peekable();
            let mut bucket = Bucket::new(config.z);
            for idx in resident..tree.num_buckets() {
                while let Some(&(_, addr)) = next.next_if(|&&(home, _)| home == idx) {
                    bucket.push(block(addr));
                }
                store.write_bucket(layout.phys_of(idx), &bucket);
                bucket.drain();
            }
        }
        // Crash injection arms after initialization: init traffic is not a
        // transaction and must never trip a kill point. Store-level points
        // live on the store (only it sees those crossings); pipeline-stage
        // points live on the controller.
        let mut crash = None;
        if let Some(cfg) = config.crash {
            let arm = CrashArm::new(cfg);
            if cfg.point.is_store_point() {
                store
                    .as_mut()
                    .expect("config validation requires store_payloads")
                    .arm_crash(Some(arm));
            } else {
                crash = Some(arm);
            }
        }

        let trace = if config.trace_capacity > 0 {
            TraceRecorder::enabled(config.trace_capacity)
        } else {
            TraceRecorder::disabled()
        };
        // Treetop-cached levels live in on-chip SRAM: they cost neither
        // bus cycles nor bytes. The functional tree is unchanged — the
        // cached buckets simply reside on-chip.
        let off_chip = config.off_chip_levels();
        let path_cycles = config.timing.path_cycles(off_chip, config.z);
        let path_bytes = config.timing.path_bytes(off_chip, config.z);
        let treetop_saved_bytes = config.timing.path_bytes(levels, config.z) - path_bytes;
        // With the bank-aware pipeline, the per-path fetch cost comes from
        // scheduling one path's bucket-read batch on an idle bank
        // scheduler; the lump-sum model keeps fetch == path cost.
        let fetch_cycles = match config.pipeline {
            None => path_cycles,
            Some(bank) => {
                let bucket_bytes = config.timing.bucket_wire_bytes(config.z);
                BankScheduler::path_fetch_cycles(bank, bucket_bytes, u64::from(off_chip))
                    + u64::from(config.timing.fixed_overhead_cycles)
            }
        };
        let mut scratch = PathScratch::new();
        scratch.fit(&tree);
        PathOram {
            plb: Plb::new(config.plb_blocks),
            config,
            space,
            tree,
            stash,
            top,
            rng,
            store,
            trace,
            stats: OramStats::default(),
            path_cycles,
            fetch_cycles,
            path_bytes,
            treetop_saved_bytes,
            layout,
            busy_until: 0,
            label: "oram".to_owned(),
            scratch,
            ctrl_faults: FaultStats::default(),
            reads_since_scrub: 0,
            obs: Obs::disabled(),
            crash,
            txn_open: false,
            crash_surfaced: false,
            crash_stats: CrashStats::default(),
        }
    }

    fn make_block(
        config: &OramConfig,
        space: &AddressSpace,
        addr: BlockAddr,
        leaf: Leaf,
        leaves: &[Leaf],
    ) -> Block {
        match space.hierarchy_of(addr) {
            0 => {
                if config.store_payloads {
                    Block::with_data(
                        addr,
                        leaf,
                        vec![0; config.timing.block_bytes as usize].into(),
                    )
                } else {
                    Block::opaque(addr, leaf)
                }
            }
            _ => {
                let first = space.first_child(addr);
                let count = space.child_count(addr);
                let entries: Vec<PosEntry> = (0..count as u64)
                    .map(|i| PosEntry::new(leaves[(first.0 + i) as usize]))
                    .collect();
                Block::posmap(addr, leaf, entries.into())
            }
        }
    }

    // ------------------------------------------------------------------
    // Accessors
    // ------------------------------------------------------------------

    /// The heap-index ↔ physical-index layout of the off-chip store.
    pub fn store_layout(&self) -> &StoreLayout {
        &self.layout
    }

    /// The configuration this ORAM was built with.
    pub fn config(&self) -> &OramConfig {
        &self.config
    }

    /// The unified address-space layout.
    pub fn space(&self) -> &AddressSpace {
        &self.space
    }

    /// Cycles one path access costs under the lump-sum timing model.
    pub fn path_cycles(&self) -> u64 {
        self.path_cycles
    }

    /// Cycles one path fetch actually costs: equal to
    /// [`PathOram::path_cycles`] without the pipeline, smaller when the
    /// bank-aware scheduler overlaps bucket reads ([`OramConfig::pipeline`]).
    pub fn fetch_cycles(&self) -> u64 {
        self.fetch_cycles
    }

    /// Statistics so far.
    pub fn oram_stats(&self) -> OramStats {
        self.stats
    }

    /// PLB `(hits, misses)`.
    pub fn plb_stats(&self) -> (u64, u64) {
        self.plb.stats()
    }

    /// Heap allocations avoided so far by reusing the write-back scratch
    /// (one per path write-back; see [`PathScratch`]).
    pub fn allocs_avoided(&self) -> u64 {
        self.scratch.allocs_avoided()
    }

    /// Fault injection, detection and recovery counters: the injector's
    /// (store-side) counters plus the controller's recovery counters.
    /// All-zero when fault injection is disabled.
    pub fn fault_stats(&self) -> FaultStats {
        let injector = self
            .store
            .as_ref()
            .map_or_else(FaultStats::default, EncryptedStore::fault_stats);
        injector + self.ctrl_faults
    }

    /// The stash (for occupancy statistics).
    pub fn stash(&self) -> &Stash {
        &self.stash
    }

    /// The adversary-trace recorder.
    pub fn trace(&self) -> &TraceRecorder {
        &self.trace
    }

    /// The encrypted DRAM image, when payload storage is enabled.
    pub fn storage(&self) -> Option<&EncryptedStore> {
        self.store.as_ref()
    }

    /// Mutable access to the encrypted image — fault-injection tests use
    /// this to tamper with ciphertexts and check detection.
    pub fn storage_mut(&mut self) -> Option<&mut EncryptedStore> {
        self.store.as_mut()
    }

    /// Clears the recorded adversary trace.
    pub fn clear_trace(&mut self) {
        self.trace.clear();
    }

    /// Draws a fresh uniformly random leaf.
    pub fn random_leaf(&mut self) -> Leaf {
        Leaf(self.rng.next_below(u64::from(self.tree.num_leaves())) as u32)
    }

    /// Whether `addr` is currently in the stash.
    pub fn stash_contains(&self, addr: BlockAddr) -> bool {
        self.stash.contains(addr)
    }

    /// Mutably borrows a stashed block.
    pub fn stash_block_mut(&mut self, addr: BlockAddr) -> Option<&mut Block> {
        self.stash.get_mut(addr)
    }

    // ------------------------------------------------------------------
    // High-level access (the `oram` baseline)
    // ------------------------------------------------------------------

    /// Performs one logical access to data block `addr` following the
    /// five steps of paper Section 2.2, plus recursion and background
    /// eviction.
    ///
    /// This is a thin driver: it builds an
    /// [`AccessMachine`] for the request and steps it through the pipeline
    /// stages (posmap resolve → path fetch → decrypt/verify → stash
    /// update → write-back → evict) until it yields a completion. The
    /// reported latency charges every tree access at the fetch cost plus
    /// any transient-retry backoff the injected faults incurred.
    ///
    /// # Errors
    ///
    /// Returns the typed [`OramError`] that fail-stopped the access: a
    /// bucket that failed authentication or is stale, a transient read
    /// that exhausted its retries, a stash past its hard capacity, or an
    /// injected crash. Under the commit protocol (fault or crash
    /// injection configured) every error but a crash rolls the access
    /// back before returning.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is not a data block.
    pub fn try_access_block(
        &mut self,
        addr: BlockAddr,
        kind: AccessKind,
    ) -> Result<AccessReport, OramError> {
        self.run_access(addr, kind, |_| {})
    }

    /// Drives one access through the commit protocol and the pipeline
    /// stages, calling `in_stash` once the requested block sits in the
    /// stash (after `StashUpdate`, before `WriteBack`) — the only point
    /// where its payload may be read or replaced without an extra,
    /// adversary-visible bucket write.
    fn run_access(
        &mut self,
        addr: BlockAddr,
        kind: AccessKind,
        mut in_stash: impl FnMut(&mut Self),
    ) -> Result<AccessReport, OramError> {
        assert_eq!(
            self.space.hierarchy_of(addr),
            0,
            "access_block takes data blocks"
        );
        self.txn_begin();
        let mut machine = AccessMachine::new(AccessRequest { addr, kind });
        let result = loop {
            let stage = machine.stage();
            match machine.step(self) {
                Ok(None) if stage == AccessStage::StashUpdate => in_stash(self),
                Ok(None) => {}
                Ok(Some(completion)) => break self.txn_commit().map(|()| completion.report),
                Err(err) => break Err(err),
            }
        };
        if let Err(err) = &result {
            // Fail-stop: a crash is left to the caller's `recover`, any
            // other error rolls the open transaction back at once.
            if self.txn_open && !matches!(err, OramError::Crashed { .. }) {
                self.recover();
            }
        }
        result
    }

    /// Records the start of one logical access (pipeline stage hook).
    pub(crate) fn note_logical_access(&mut self) {
        self.stats.logical_accesses += 1;
    }

    /// Cumulative transient-retry backoff cycles charged by the injector.
    pub(crate) fn backoff_cycles(&self) -> u64 {
        self.store
            .as_ref()
            .map_or(0, |s| s.fault_stats().backoff_cycles)
    }

    /// Reads the data payload of `addr` (a full ORAM access). The payload
    /// is copied out while the block sits in the stash.
    ///
    /// Returns `Ok(None)` if payload storage is disabled.
    ///
    /// # Errors
    ///
    /// Propagates the [`OramError`] that fail-stopped the access.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is not a data block.
    pub fn try_read_block(&mut self, addr: BlockAddr) -> Result<Option<Vec<u8>>, OramError> {
        let mut out = None;
        self.run_access(addr, AccessKind::Read, |oram| {
            if let Some(Payload::Data(bytes)) = oram.stash.get(addr).map(|b| &b.payload) {
                out = Some(bytes.to_vec());
            }
        })?;
        Ok(out)
    }

    /// Writes the data payload of `addr` (a full ORAM access). The payload
    /// is replaced while the block sits in the stash, so it reaches the
    /// store with the path write-back of this access and no other write.
    ///
    /// # Errors
    ///
    /// Propagates the [`OramError`] that fail-stopped the access.
    ///
    /// # Panics
    ///
    /// Panics if payload storage is disabled, `bytes` is not exactly one
    /// block, or `addr` is not a data block.
    pub fn try_write_block(&mut self, addr: BlockAddr, bytes: &[u8]) -> Result<(), OramError> {
        assert_eq!(
            bytes.len(),
            self.config.timing.block_bytes as usize,
            "payload must be exactly one block"
        );
        let mut found = false;
        self.run_access(addr, AccessKind::Write, |oram| {
            if let Some(Payload::Data(old)) = oram.stash.get_mut(addr).map(|b| &mut b.payload) {
                old.copy_from_slice(bytes);
                found = true;
            }
        })?;
        assert!(found, "payload storage disabled; enable store_payloads");
        Ok(())
    }

    /// The observability handle currently attached (disabled by default).
    pub fn obs(&self) -> &Obs {
        &self.obs
    }

    /// Attaches an observability handle: subsequent accesses emit typed
    /// [`proram_obs::ObsEvent`]s and per-stage cycle profiles into it.
    pub fn attach_obs_handle(&mut self, obs: Obs) {
        self.obs = obs;
    }

    // ------------------------------------------------------------------
    // Crash-consistent commit protocol (DESIGN.md section 15)
    // ------------------------------------------------------------------

    /// Cumulative crash-injection and recovery counters.
    pub fn crash_stats(&self) -> CrashStats {
        self.crash_stats
    }

    /// Opens the commit transaction of one logical access: seals
    /// checkpoint A (the pre-access volatile state) into the store journal
    /// and starts first-touch undo journaling. No-op without
    /// [`OramConfig::crash`] or [`OramConfig::fault`] — the protocol costs
    /// nothing when no injector is armed.
    pub(crate) fn txn_begin(&mut self) {
        if self.config.crash.is_none() && self.config.fault.is_none() {
            return;
        }
        if self.txn_open {
            // The previous access unwound mid-transaction with a
            // non-crash error (e.g. a stash-overflow fail-stop) and was
            // never recovered: roll it back so the new transaction opens
            // on consistent state instead of tripping the store's
            // open-journal assertion.
            self.recover();
        }
        let checkpoint_a = self.seal_checkpoint();
        self.store
            .as_mut()
            .expect("the commit protocol requires store_payloads")
            .begin_txn(checkpoint_a);
        self.txn_open = true;
        self.crash_surfaced = false;
    }

    /// Commits the open transaction: seals checkpoint B and asks the
    /// store to flip the epoch and discard the journal.
    ///
    /// # Errors
    ///
    /// [`OramError::Crashed`] when the `MidFlip` kill point fires inside
    /// the flip; the transaction is then durable and recovery replays it.
    pub(crate) fn txn_commit(&mut self) -> Result<(), OramError> {
        if !self.txn_open {
            return Ok(());
        }
        let checkpoint_b = self.seal_checkpoint();
        let store = self
            .store
            .as_mut()
            .expect("the commit protocol requires store_payloads");
        match store.commit_txn(checkpoint_b) {
            Ok(entries) => {
                let epoch = store.epoch();
                self.txn_open = false;
                self.obs
                    .emit(|| proram_obs::ObsEvent::JournalCommit { entries, epoch });
                Ok(())
            }
            Err(_) => Err(self.note_store_crash()),
        }
    }

    /// Seals the controller's volatile state (RNG, top table, stash, PLB,
    /// treetop buckets) into one MAC-bound checkpoint record.
    ///
    /// The treetop is volatile on-chip SRAM with no ciphertext image, so
    /// its buckets ride in the checkpoint: recovery adopts checkpoint A's
    /// pre-access treetop after a rollback and checkpoint B's post-access
    /// treetop after a replay — exactly like the stash.
    fn seal_checkpoint(&self) -> Vec<u8> {
        let store = self
            .store
            .as_ref()
            .expect("the commit protocol requires store_payloads");
        let mut stash: Vec<Block> = self.stash.iter().cloned().collect();
        // The stash map iterates in hash order; the checkpoint is a
        // canonical record, so impose address order.
        stash.sort_unstable_by_key(|b| b.addr.0);
        Checkpoint {
            epoch: store.epoch(),
            rng: self.rng.state(),
            top: self.top.clone(),
            stash,
            plb: self.plb.iter().cloned().collect(),
            treetop: (0..self.layout.treetop_buckets())
                .map(|idx| self.tree.bucket(idx).iter().cloned().collect())
                .collect(),
        }
        .seal(store.mac())
    }

    /// Crosses a pipeline-stage kill point. Fires only inside an open
    /// transaction — steppers driving the [`AccessMachine`] without the
    /// commit protocol (no [`OramConfig::crash`]) never unwind here.
    ///
    /// # Errors
    ///
    /// [`OramError::Crashed`] when the armed crossing is reached.
    pub(crate) fn crash_gate(&mut self, point: KillPoint) -> Result<(), OramError> {
        if !self.txn_open {
            return Ok(());
        }
        let fired = self.crash.as_mut().is_some_and(|arm| arm.cross(point));
        if !fired {
            return Ok(());
        }
        self.crash_stats.crashes_injected += 1;
        self.crash_surfaced = true;
        let crossing = self.config.crash.map_or(0, |c| c.crossing);
        self.obs.emit(|| proram_obs::ObsEvent::CrashInject {
            point: point.obs(),
            crossing,
        });
        Err(OramError::Crashed { point })
    }

    /// Surfaces a store-level kill that fired during a write the store
    /// silently dropped (the "dead store" contract): `Ok` when the store
    /// is alive, the typed crash otherwise.
    ///
    /// # Errors
    ///
    /// [`OramError::Crashed`] naming the store kill point that fired.
    pub(crate) fn store_crash_check(&mut self) -> Result<(), OramError> {
        let fired = self.store.as_ref().and_then(EncryptedStore::crash_fired);
        match fired {
            None => Ok(()),
            Some(_) => Err(self.note_store_crash()),
        }
    }

    /// Counts and emits a store-level crash exactly once, returning the
    /// typed error for the caller to propagate.
    fn note_store_crash(&mut self) -> OramError {
        let point = self
            .store
            .as_ref()
            .and_then(EncryptedStore::crash_fired)
            .expect("store crash to surface");
        if !self.crash_surfaced {
            self.crash_surfaced = true;
            self.crash_stats.crashes_injected += 1;
            let crossing = self.config.crash.map_or(0, |c| c.crossing);
            self.obs.emit(|| proram_obs::ObsEvent::CrashInject {
                point: point.obs(),
                crossing,
            });
        }
        OramError::Crashed { point }
    }

    /// Recovers from a crashed or fail-stopped access: closes the store
    /// journal (rollback or replay), adopts the matching sealed
    /// checkpoint, re-authenticates every bucket the journal touched, and
    /// clears the transaction state.
    ///
    /// Safe to call when nothing crashed — it reports
    /// [`RecoveryMode::Clean`] and changes nothing.
    ///
    /// # Panics
    ///
    /// Panics if the epoch header or the adopted checkpoint fails its MAC,
    /// or if a touched bucket fails re-authentication — recovery must
    /// never adopt forged state.
    pub fn recover(&mut self) -> RecoveryReport {
        // Blocks of an abandoned path read never reached the stash.
        self.scratch.clear_path();
        let Some(store) = self.store.as_mut() else {
            self.crash_stats.clean_recoveries += 1;
            return self.clean_recovery();
        };
        let Some(rec) = store.recover_txn() else {
            // Crash before the first journaled write (or no crash at
            // all): volatile state is still the pre-access state, the
            // image never changed. Only the transaction bookkeeping and
            // any pipeline-stage arm state need clearing.
            self.crash_stats.clean_recoveries += 1;
            return self.clean_recovery();
        };
        let checkpoint =
            Checkpoint::unseal(&rec.checkpoint, store.mac()).expect("checkpoint failed its seal");
        // Checkpoint A is sealed at the begin epoch; checkpoint B is
        // sealed during commit just *before* the flip. Either way the
        // record must be from this transaction's begin epoch.
        let begin_epoch = if rec.replay {
            store.epoch() - 1
        } else {
            store.epoch()
        };
        assert_eq!(
            checkpoint.epoch, begin_epoch,
            "adopted checkpoint is from another epoch"
        );
        // The store is the durable medium and the only copy of the
        // off-chip tree: every bucket the transaction wrote must
        // authenticate in its rolled-back (or replayed) image.
        for &phys in &rec.touched {
            store
                .peek_bucket(phys)
                .expect("recovered bucket failed authentication");
        }
        // Adopt the checkpointed volatile state: RNG (so a rolled-back
        // access retries with identical randomness), top table, stash and
        // PLB (re-inserted oldest-first so the MRU order is restored).
        self.rng = Xoshiro256::from_state(checkpoint.rng);
        self.top = checkpoint.top;
        let mut stash = Stash::new(self.stash.limit());
        for block in checkpoint.stash {
            stash.insert(block);
        }
        self.stash = stash;
        let mut plb = Plb::new(self.plb.capacity());
        for block in checkpoint.plb.into_iter().rev() {
            plb.insert(block);
        }
        self.plb = plb;
        // The treetop is volatile SRAM with no store image: adopt the
        // checkpointed buckets wholesale (A's pre-access contents after a
        // rollback, B's post-access contents after a replay).
        assert_eq!(
            checkpoint.treetop.len(),
            self.layout.treetop_buckets(),
            "adopted checkpoint has the wrong treetop geometry"
        );
        for (idx, blocks) in checkpoint.treetop.into_iter().enumerate() {
            let bucket = self.tree.bucket_mut(idx);
            bucket.drain();
            for block in blocks {
                bucket.push(block);
            }
        }
        let mode = if rec.replay {
            self.crash_stats.replays += 1;
            RecoveryMode::Replayed
        } else {
            self.crash_stats.rollbacks += 1;
            RecoveryMode::RolledBack
        };
        self.txn_open = false;
        self.crash_surfaced = false;
        let replay = rec.replay;
        let restored = rec.restored as u64;
        let reverified = rec.touched.len();
        self.obs.emit(|| proram_obs::ObsEvent::RecoverReplay {
            replay,
            restored,
            reverified: reverified as u64,
        });
        // Modeled recovery latency: every restored image write and every
        // re-verification read costs one off-chip bucket's share of a
        // path fetch (restored/reverified buckets are all off-chip).
        let levels = u64::from(self.config.off_chip_levels()).max(1);
        let per_bucket = (self.path_cycles / levels).max(1);
        let cycles = (restored + reverified as u64) * per_bucket;
        RecoveryReport {
            mode,
            journal_entries: rec.entries,
            buckets_restored: rec.restored,
            buckets_reverified: reverified,
            cycles,
        }
    }

    /// The nothing-pending recovery result: clears transaction state and
    /// reports [`RecoveryMode::Clean`].
    fn clean_recovery(&mut self) -> RecoveryReport {
        self.txn_open = false;
        self.crash_surfaced = false;
        RecoveryReport {
            mode: RecoveryMode::Clean,
            journal_entries: 0,
            buckets_restored: 0,
            buckets_reverified: 0,
            cycles: 0,
        }
    }

    /// Full-state auditor: asserts block conservation — every logical
    /// block of the address space lives in exactly one place (stash, PLB,
    /// or one tree bucket) — and then the per-block placement invariant
    /// ([`PathOram::check_invariants`]). The crash-recovery suite runs
    /// this after every recovery.
    ///
    /// # Panics
    ///
    /// Panics on the first duplicated, missing, or misplaced block, and
    /// on an off-chip bucket that fails authentication.
    pub fn audit_full(&self) {
        let census = self.census();
        for (addr, spot) in census.iter().enumerate() {
            let n = spot.copies;
            assert_eq!(n, 1, "block {addr} appears {n} times across stash/PLB/tree");
        }
        self.check_placement(&census);
    }

    /// A deterministic digest of the complete controller state (RNG, top
    /// table, stash, PLB, tree) — two controllers with equal digests are
    /// observationally identical. The crash-recovery suite compares
    /// post-recovery digests against crash-free runs. An off-chip bucket
    /// that fails authentication has no logical content and digests as a
    /// fixed marker.
    pub fn state_digest(&self) -> u64 {
        let mut h = Fnv1a::new();
        for w in self.rng.state() {
            h.write_u64(w);
        }
        for e in &self.top {
            h.write_u64(u64::from(e.leaf.0));
            h.write_u64(e.merge as u64);
            h.write_u64(e.brk as u64);
            h.write_u64(u64::from(e.prefetch));
        }
        let mut stash: Vec<&Block> = self.stash.iter().collect();
        stash.sort_unstable_by_key(|b| b.addr.0);
        for b in stash {
            Self::digest_block(&mut h, b);
        }
        for b in self.plb.iter() {
            Self::digest_block(&mut h, b);
        }
        self.for_each_bucket(|idx, blocks| {
            h.write_u64(idx as u64);
            match blocks {
                Ok(blocks) => blocks.iter().for_each(|b| Self::digest_block(&mut h, b)),
                Err(_) => h.write_u64(u64::MAX),
            }
        });
        h.finish()
    }

    fn digest_block(h: &mut Fnv1a, b: &Block) {
        h.write_u64(b.addr.0);
        h.write_u64(u64::from(b.leaf.0));
        h.write_u64(u64::from(b.hit));
        match &b.payload {
            Payload::Opaque => h.write_u64(0),
            Payload::Data(bytes) => {
                h.write_u64(1);
                h.write_bytes(bytes);
            }
            Payload::PosMap(entries) => {
                h.write_u64(2);
                for e in entries.iter() {
                    h.write_u64(u64::from(e.leaf.0));
                    h.write_u64(e.merge as u64);
                    h.write_u64(e.brk as u64);
                    h.write_u64(u64::from(e.prefetch));
                }
            }
        }
    }

    /// Visits every tree bucket in heap order: resident ones in place,
    /// off-chip ones through the store's read-only decrypt, which touches
    /// neither statistics, the RNG nor the fault injector.
    fn for_each_bucket(&self, mut f: impl FnMut(usize, Result<&[Block], OramError>)) {
        let resident = self.tree.resident_buckets();
        for idx in 0..self.tree.num_buckets() {
            if idx < resident {
                f(idx, Ok(self.tree.bucket(idx).as_slice()));
            } else {
                let store = self
                    .store
                    .as_ref()
                    .expect("off-chip buckets live in the store");
                match store.peek_bucket(self.layout.phys_of(idx)) {
                    Ok(blocks) => f(idx, Ok(&blocks)),
                    Err(err) => f(idx, Err(err)),
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Invariant checking (tests)
    // ------------------------------------------------------------------

    /// Verifies the Path ORAM invariant for every reachable block: a block
    /// mapped to leaf `s` is in the stash, in the PLB/top (posmap blocks),
    /// or on the path to `s`.
    ///
    /// # Panics
    ///
    /// Panics on the first violation, and on an off-chip bucket that
    /// fails authentication. Intended for tests; it reads every bucket
    /// once.
    pub fn check_invariants(&self) {
        self.check_placement(&self.census());
    }

    fn check_placement(&self, census: &[Spot]) {
        for (addr, spot) in census.iter().enumerate() {
            let Some(leaf) = spot.mapped else { continue };
            let placed = spot.copies > 0
                && spot
                    .bucket
                    .is_none_or(|idx| self.tree.bucket_index(leaf, (idx + 1).ilog2()) == idx);
            assert!(
                placed,
                "invariant violation: block {addr} mapped to {leaf} is not on its path/stash/PLB"
            );
        }
    }

    /// Where every block lives, gathered in one pass over the stash, the
    /// PLB and every tree bucket.
    fn census(&self) -> Vec<Spot> {
        let mut census = vec![Spot::default(); self.space.total_tree_blocks() as usize];
        let top_base = self.space.region_base(self.space.on_tree_hierarchies()) as usize;
        for (i, e) in self.top.iter().enumerate() {
            census[top_base + i].mapped = Some(e.leaf);
        }
        let mut note = |b: &Block, bucket: Option<usize>, where_: &str| {
            let spot = census
                .get_mut(b.addr.0 as usize)
                .unwrap_or_else(|| panic!("{where_} holds out-of-space block {}", b.addr));
            if spot.copies == 0 {
                spot.bucket = bucket;
            }
            spot.copies += 1;
            if let Payload::PosMap(entries) = &b.payload {
                let first = self.space.first_child(b.addr).0 as usize;
                for (i, e) in entries.iter().enumerate() {
                    census[first + i].mapped = Some(e.leaf);
                }
            }
        };
        self.stash.iter().for_each(|b| note(b, None, "stash"));
        self.plb.iter().for_each(|b| note(b, None, "PLB"));
        self.for_each_bucket(|idx, blocks| {
            let blocks =
                blocks.unwrap_or_else(|err| panic!("bucket {idx} failed authentication: {err}"));
            blocks.iter().for_each(|b| note(b, Some(idx), "tree"));
        });
        census
    }

    /// Schedules `cycles` of work on the serialized ORAM resource starting
    /// no earlier than `now`; returns the completion cycle.
    fn schedule_cycles(&mut self, now: Cycle, cycles: u64) -> Cycle {
        let start = now.max(self.busy_until);
        let complete = start + cycles;
        self.busy_until = complete;
        complete
    }
}

impl crate::backend_trait::OramBackend for PathOram {
    fn space(&self) -> &AddressSpace {
        PathOram::space(self)
    }

    fn resolve_posmap(&mut self, child: BlockAddr) -> Result<u64, OramError> {
        PathOram::try_resolve_posmap(self, child)
    }

    fn entry(&self, child: BlockAddr) -> &PosEntry {
        PathOram::entry(self, child)
    }

    fn entry_mut(&mut self, child: BlockAddr) -> &mut PosEntry {
        PathOram::entry_mut(self, child)
    }

    fn read_path_into_stash(&mut self, leaf: Leaf, kind: PathKind) -> Result<(), OramError> {
        PathOram::try_read_path_into_stash(self, leaf, kind)
    }

    fn write_path_from_stash(&mut self, leaf: Leaf) -> Result<(), OramError> {
        PathOram::write_path_from_stash(self, leaf)
    }

    fn txn_begin(&mut self) {
        PathOram::txn_begin(self);
    }

    fn txn_commit(&mut self) -> Result<(), OramError> {
        PathOram::txn_commit(self)
    }

    fn recover_crash(&mut self) -> Option<RecoveryReport> {
        Some(self.recover())
    }

    fn stash_contains(&self, addr: BlockAddr) -> bool {
        PathOram::stash_contains(self, addr)
    }

    fn stash_block_mut(&mut self, addr: BlockAddr) -> Option<&mut Block> {
        PathOram::stash_block_mut(self, addr)
    }

    fn random_leaf(&mut self) -> Leaf {
        PathOram::random_leaf(self)
    }

    fn background_evict(&mut self) -> Result<(), OramError> {
        PathOram::try_background_evict(self)
    }

    fn drain_background(&mut self) -> Result<u64, OramError> {
        PathOram::try_drain_background(self)
    }

    fn path_cycles(&self) -> u64 {
        PathOram::path_cycles(self)
    }

    fn fetch_cycles(&self) -> u64 {
        PathOram::fetch_cycles(self)
    }

    fn oram_stats(&self) -> OramStats {
        PathOram::oram_stats(self)
    }

    fn fault_stats(&self) -> FaultStats {
        PathOram::fault_stats(self)
    }

    fn backend_name(&self) -> &'static str {
        "path"
    }

    fn attach_obs(&mut self, obs: Obs) {
        self.attach_obs_handle(obs);
    }
}

impl MemoryBackend for PathOram {
    fn access(&mut self, now: Cycle, req: MemRequest, _llc: &dyn CacheProbe) -> AccessOutcome {
        let latency = match self.try_access_block(req.block, req.kind) {
            Ok(report) => report.latency,
            Err(OramError::Crashed { .. }) => {
                // Simulated process death: run crash recovery, then retry
                // the access once. A rolled-back transaction re-executes
                // (the checkpointed RNG replays identical randomness); a
                // replayed one already committed, so retrying would
                // double-apply the remap.
                let rec = self.recover();
                let retry = if rec.mode == RecoveryMode::Replayed {
                    0
                } else {
                    match self.try_access_block(req.block, req.kind) {
                        Ok(report) => report.latency,
                        Err(_) => {
                            self.ctrl_faults.unrecovered += 1;
                            self.fetch_cycles
                        }
                    }
                };
                rec.cycles + retry
            }
            Err(_) => {
                // Fail-stopped access: count it and charge one path's
                // worth of latency; the timing simulation still delivers
                // the fill instead of aborting the run.
                self.ctrl_faults.unrecovered += 1;
                self.fetch_cycles
            }
        };
        let complete_at = self.schedule_cycles(now, latency);
        let fills = match req.kind {
            AccessKind::Read => vec![Fill {
                block: req.block,
                prefetched: req.prefetch,
            }],
            AccessKind::Write => Vec::new(),
        };
        AccessOutcome { complete_at, fills }
    }

    fn dummy_access(&mut self, now: Cycle) -> Cycle {
        if self.try_background_evict().is_err() {
            self.ctrl_faults.unrecovered += 1;
        }
        self.schedule_cycles(now, self.fetch_cycles)
    }

    fn free_at(&self) -> Cycle {
        self.busy_until
    }

    fn stats(&self) -> BackendStats {
        let s = self.stats;
        BackendStats {
            demand_accesses: s.logical_accesses,
            prefetch_requests: 0,
            physical_accesses: s.total_path_accesses(),
            dummy_accesses: s.background_evictions,
            posmap_accesses: s.posmap_path_accesses,
            bytes_moved: s.bytes_moved,
            prefetch_hits: 0,
            prefetch_misses: 0,
            busy_cycles: s.total_path_accesses() * self.fetch_cycles,
            data_path_cycles: s.data_path_accesses * self.fetch_cycles,
            posmap_path_cycles: s.posmap_path_accesses * self.fetch_cycles,
            dummy_path_cycles: s.background_evictions * self.fetch_cycles,
            treetop_hits: s.treetop_hits,
            treetop_bytes_saved: s.treetop_bytes_saved,
            faults: self.fault_stats(),
        }
    }

    fn label(&self) -> &str {
        &self.label
    }

    fn attach_obs(&mut self, obs: Obs) {
        self.attach_obs_handle(obs);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> PathOram {
        PathOram::new(OramConfig::small_for_tests(256), 42)
    }

    #[test]
    fn construction_satisfies_invariants() {
        let oram = small();
        oram.check_invariants();
    }

    #[test]
    fn every_data_block_is_accessible() {
        let mut oram = PathOram::new(OramConfig::small_for_tests(64), 7);
        for a in 0..64 {
            let r = oram
                .try_access_block(BlockAddr(a), AccessKind::Read)
                .unwrap();
            assert!(r.tree_accesses >= 1);
        }
        oram.check_invariants();
    }

    #[test]
    fn access_remaps_to_fresh_leaf() {
        let mut oram = small();
        let addr = BlockAddr(10);
        oram.try_resolve_posmap(addr).unwrap();
        let before = oram.entry(addr).leaf;
        // Access many times; the leaf must change (collision chance over
        // 20 draws from >=128 leaves is negligible at this seed).
        let mut changed = false;
        for _ in 0..20 {
            oram.try_access_block(addr, AccessKind::Read).unwrap();
            oram.try_resolve_posmap(addr).unwrap();
            if oram.entry(addr).leaf != before {
                changed = true;
            }
        }
        assert!(changed, "leaf never remapped");
    }

    #[test]
    fn repeated_access_is_stable_under_invariants() {
        let mut oram = small();
        let mut rng = Xoshiro256::seed_from(3);
        for _ in 0..300 {
            let a = BlockAddr(rng.next_below(256));
            oram.try_access_block(a, AccessKind::Read).unwrap();
        }
        oram.check_invariants();
        let s = oram.oram_stats();
        assert_eq!(s.logical_accesses, 300);
        assert_eq!(s.data_path_accesses, 300);
    }

    #[test]
    fn posmap_recursion_costs_extra_accesses() {
        let mut oram = small();
        // First touch of a cold region must miss the PLB.
        let r = oram
            .try_access_block(BlockAddr(100), AccessKind::Read)
            .unwrap();
        assert!(r.posmap_accesses >= 1, "cold access should walk the posmap");
        // Immediately repeated access hits the PLB.
        let r2 = oram
            .try_access_block(BlockAddr(100), AccessKind::Read)
            .unwrap();
        assert_eq!(r2.posmap_accesses, 0);
    }

    #[test]
    fn plb_locality_for_neighbors() {
        let mut oram = small();
        oram.try_access_block(BlockAddr(8), AccessKind::Read)
            .unwrap();
        // Same posmap group (entries_per_block = 8): no extra posmap walk.
        let r = oram
            .try_access_block(BlockAddr(9), AccessKind::Read)
            .unwrap();
        assert_eq!(r.posmap_accesses, 0);
    }

    #[test]
    fn trace_records_accesses() {
        let mut oram = small();
        oram.clear_trace();
        oram.try_access_block(BlockAddr(0), AccessKind::Read)
            .unwrap();
        assert!(!oram.trace().events().is_empty());
    }

    #[test]
    fn payload_round_trip_via_try_api() {
        let mut oram = PathOram::new(OramConfig::small_for_tests(64), 5);
        let data = vec![0xAB; 128];
        oram.try_write_block(BlockAddr(3), &data).expect("write");
        let read = oram
            .try_read_block(BlockAddr(3))
            .expect("read")
            .expect("payloads enabled");
        assert_eq!(read, data);
        oram.try_access_block(BlockAddr(3), AccessKind::Read)
            .expect("access");
        oram.check_invariants();
    }

    #[test]
    fn payloads_survive_many_interleaved_accesses() {
        let mut oram = PathOram::new(OramConfig::small_for_tests(64), 6);
        for a in 0..16u64 {
            oram.try_write_block(BlockAddr(a), &[a as u8; 128]).unwrap();
        }
        let mut rng = Xoshiro256::seed_from(9);
        for _ in 0..100 {
            oram.try_access_block(BlockAddr(rng.next_below(64)), AccessKind::Read)
                .unwrap();
        }
        for a in 0..16u64 {
            assert_eq!(
                oram.try_read_block(BlockAddr(a)).unwrap().unwrap(),
                vec![a as u8; 128],
                "payload of block {a} corrupted"
            );
        }
    }

    #[test]
    #[should_panic(expected = "payload must be exactly one block")]
    fn wrong_payload_size_panics() {
        let mut oram = small();
        oram.try_write_block(BlockAddr(0), &[1, 2, 3]).unwrap();
    }

    #[test]
    #[should_panic(expected = "access_block takes data blocks")]
    fn posmap_address_rejected() {
        let mut oram = small();
        // First posmap block lives right after the data region.
        oram.try_access_block(BlockAddr(256), AccessKind::Read)
            .unwrap();
    }

    #[test]
    fn background_eviction_triggers_under_pressure() {
        // A small stash target and a Z=2 tree at ~90% occupancy force
        // background evictions (Z=4 at low occupancy essentially never
        // overflows, which is why the paper pairs small Z with background
        // eviction).
        let cfg = OramConfig {
            stash_limit: 4,
            z: 2,
            ..OramConfig::small_for_tests(400)
        };
        let mut oram = PathOram::new(cfg, 11);
        let mut rng = Xoshiro256::seed_from(1);
        for _ in 0..200 {
            oram.try_access_block(BlockAddr(rng.next_below(400)), AccessKind::Read)
                .unwrap();
        }
        assert!(oram.oram_stats().background_evictions > 0);
        assert!(
            oram.stash().len() <= 8,
            "stash drained to the resting limit after access"
        );
        oram.check_invariants();
    }

    #[test]
    fn memory_backend_serializes_accesses() {
        use proram_mem::NoProbe;
        let mut oram = small();
        let a = oram.access(0, MemRequest::read(BlockAddr(1)), &NoProbe);
        let b = oram.access(0, MemRequest::read(BlockAddr(2)), &NoProbe);
        assert!(b.complete_at >= a.complete_at + oram.path_cycles());
    }

    #[test]
    fn memory_backend_write_returns_no_fills() {
        use proram_mem::NoProbe;
        let mut oram = small();
        let o = oram.access(0, MemRequest::write(BlockAddr(1)), &NoProbe);
        assert!(o.fills.is_empty());
        let o2 = oram.access(0, MemRequest::read(BlockAddr(1)), &NoProbe);
        assert_eq!(o2.fills, vec![Fill::demand(BlockAddr(1))]);
    }

    #[test]
    fn backend_stats_are_consistent() {
        use proram_mem::NoProbe;
        let mut oram = small();
        for i in 0..20 {
            oram.access(0, MemRequest::read(BlockAddr(i)), &NoProbe);
        }
        let s = MemoryBackend::stats(&oram);
        assert_eq!(s.demand_accesses, 20);
        assert!(s.physical_accesses >= 20);
        assert!(s.bytes_moved > 0);
        assert!(s.stage_cycles_consistent(), "stage attribution incomplete");
    }

    #[test]
    fn dummy_access_is_background_eviction() {
        let mut oram = small();
        let before = oram.oram_stats().background_evictions;
        let done = oram.dummy_access(100);
        assert!(done >= 100 + oram.path_cycles());
        assert_eq!(oram.oram_stats().background_evictions, before + 1);
    }

    #[test]
    fn observed_leaves_cover_the_tree() {
        let mut oram = PathOram::new(OramConfig::small_for_tests(512), 13);
        oram.clear_trace();
        let mut rng = Xoshiro256::seed_from(2);
        for _ in 0..400 {
            oram.try_access_block(BlockAddr(rng.next_below(512)), AccessKind::Read)
                .unwrap();
        }
        let leaves = oram.trace().observed_leaves();
        assert!(leaves.len() >= 400);
        // Many distinct leaves must appear (uniform remapping).
        let mut distinct: Vec<u64> = leaves.clone();
        distinct.sort_unstable();
        distinct.dedup();
        assert!(
            distinct.len() > 20,
            "only {} distinct leaves",
            distinct.len()
        );
    }

    #[test]
    fn stats_accumulate_bytes() {
        let mut oram = small();
        oram.try_access_block(BlockAddr(0), AccessKind::Read)
            .unwrap();
        let s = oram.oram_stats();
        assert_eq!(s.bytes_moved, s.total_path_accesses() * oram.path_bytes);
    }

    #[test]
    fn report_latency_equals_stage_total() {
        let mut oram = small();
        let mut rng = Xoshiro256::seed_from(5);
        for _ in 0..50 {
            let r = oram
                .try_access_block(BlockAddr(rng.next_below(256)), AccessKind::Read)
                .unwrap();
            assert_eq!(r.latency, r.stages.total(), "stage attribution broken");
            assert_eq!(r.stages.fetch, oram.fetch_cycles());
            assert_eq!(r.stages.posmap, r.posmap_accesses * oram.fetch_cycles());
            assert_eq!(r.stages.evict, r.background_evictions * oram.fetch_cycles());
        }
    }

    #[test]
    fn pipeline_off_keeps_lump_sum_fetch_cost() {
        let oram = small();
        assert_eq!(oram.fetch_cycles(), oram.path_cycles());
    }

    #[test]
    fn pipeline_on_is_behavior_identical_and_overlaps_banks() {
        use proram_mem::BankConfig;
        // The pipeline is purely a timing-model change: stats, trace and
        // stash must match the lump-sum run step for step.
        let run = |pipeline: Option<BankConfig>| {
            let cfg = OramConfig {
                pipeline,
                ..OramConfig::small_for_tests(256)
            };
            let mut oram = PathOram::new(cfg, 42);
            let mut rng = Xoshiro256::seed_from(3);
            for _ in 0..200 {
                oram.try_access_block(BlockAddr(rng.next_below(256)), AccessKind::Read)
                    .unwrap();
            }
            (
                oram.oram_stats(),
                oram.trace().observed_leaves(),
                oram.stash().peak(),
                oram.fetch_cycles(),
            )
        };
        let banks = |n| {
            Some(BankConfig {
                banks: n,
                ..BankConfig::default()
            })
        };
        let (base_stats, base_leaves, base_peak, base_fetch) = run(None);
        let (serial_stats, serial_leaves, serial_peak, serial_fetch) = run(banks(1));
        let (pipe_stats, pipe_leaves, pipe_peak, pipe_fetch) = run(banks(8));
        assert_eq!(base_stats, serial_stats);
        assert_eq!(base_stats, pipe_stats);
        assert_eq!(base_leaves, serial_leaves);
        assert_eq!(base_leaves, pipe_leaves);
        assert_eq!(base_peak, serial_peak);
        assert_eq!(base_peak, pipe_peak);
        // One bank serializes every bucket's DRAM latency; multiple banks
        // overlap them, leaving only the bus transfers plus one latency.
        assert!(
            pipe_fetch < serial_fetch,
            "bank overlap must cut the fetch cost: {pipe_fetch} vs {serial_fetch}"
        );
        // Versus the lump-sum model the banked fetch keeps the full bus
        // transfer and adds the (previously unmodelled) leading DRAM
        // latency — it is costlier than the pure pin-bandwidth bound but
        // far cheaper than the fully serialized single-bank schedule.
        assert!(pipe_fetch >= base_fetch);
        assert!(serial_fetch > base_fetch);
    }

    #[test]
    fn bucket_read_batch_covers_off_chip_path() {
        let oram = small();
        let batch = oram.bucket_read_batch(Leaf(0));
        assert_eq!(
            batch.len() as u32,
            oram.config().off_chip_levels(),
            "one read per off-chip bucket"
        );
        let per_bucket = oram.config().timing.bucket_wire_bytes(oram.config().z);
        let total: u64 = batch.iter().map(|r| r.bytes).sum();
        assert_eq!(total, per_bucket * batch.len() as u64);
    }

    #[test]
    fn write_backs_reuse_the_scratch() {
        let mut oram = small();
        oram.try_access_block(BlockAddr(1), AccessKind::Read)
            .unwrap();
        let after_one = oram.allocs_avoided();
        assert!(after_one > 0, "each write-back counts a scratch reuse");
        oram.try_access_block(BlockAddr(2), AccessKind::Read)
            .unwrap();
        assert!(oram.allocs_avoided() > after_one);
    }

    #[test]
    fn sealed_tree_holds_only_the_treetop() {
        for treetop in [0, 2] {
            let cfg = OramConfig {
                treetop_levels: treetop,
                ..OramConfig::small_for_tests(256)
            };
            let mut oram = PathOram::new(cfg, 3);
            for a in 0..64 {
                oram.try_access_block(BlockAddr(a), AccessKind::Read)
                    .unwrap();
            }
            assert_eq!(
                oram.tree.resident_buckets(),
                oram.store_layout().treetop_buckets()
            );
            oram.audit_full();
        }
        let opaque = OramConfig {
            store_payloads: false,
            ..OramConfig::small_for_tests(256)
        };
        let oram = PathOram::new(opaque, 3);
        assert_eq!(oram.tree.resident_buckets(), oram.tree.num_buckets());
    }

    /// Cleartext version counter of every store bucket.
    fn versions(oram: &PathOram) -> Vec<u64> {
        let store = oram.storage().expect("payloads on");
        (0..store.num_buckets())
            .map(|i| u64::from_le_bytes(store.ciphertext(i)[8..16].try_into().unwrap()))
            .collect()
    }

    #[test]
    fn payload_write_rewrites_each_accessed_bucket_once_per_path() {
        // The payload is replaced in the stash, so the only bucket writes
        // an adversary sees are the write-backs of the paths the access
        // walked: one version step per walked path, nothing else.
        let mut oram = PathOram::new(OramConfig::small_for_tests(64), 5);
        for a in 0..16u64 {
            let before = versions(&oram);
            oram.clear_trace();
            oram.try_write_block(BlockAddr(a), &[a as u8 + 1; 128])
                .unwrap();
            let mut expected = vec![0; before.len()];
            for leaf in oram.trace().observed_leaves() {
                for idx in oram.tree.path_indices(Leaf(leaf as u32)) {
                    expected[oram.layout.phys_of(idx)] += 1;
                }
            }
            let advanced: Vec<u64> = versions(&oram)
                .iter()
                .zip(&before)
                .map(|(after, before)| after - before)
                .collect();
            assert_eq!(advanced, expected, "write of block {a}");
        }
        for a in 0..16u64 {
            assert_eq!(
                oram.try_read_block(BlockAddr(a)).unwrap().unwrap(),
                vec![a as u8 + 1; 128]
            );
        }
    }

    #[test]
    fn small_flat_posmap_config_works() {
        // on_tree_hierarchies = 0: the whole position map is on-chip.
        let cfg = OramConfig {
            on_tree_hierarchies: 0,
            ..OramConfig::small_for_tests(128)
        };
        let mut oram = PathOram::new(cfg, 3);
        for a in 0..128 {
            let r = oram
                .try_access_block(BlockAddr(a), AccessKind::Read)
                .unwrap();
            assert_eq!(r.posmap_accesses, 0);
        }
        oram.check_invariants();
    }
}

#[cfg(test)]
mod fault_tests {
    use super::*;
    use crate::fault::{FaultClass, FaultConfig};

    fn faulty_cfg(fault: FaultConfig) -> OramConfig {
        OramConfig {
            fault: Some(fault),
            ..OramConfig::small_for_tests(256)
        }
    }

    #[test]
    fn silent_injector_matches_fault_free_run() {
        // A configured injector with all rates zero must be
        // observationally silent: same stats, same trace, same stash.
        let run = |fault: Option<FaultConfig>| {
            let cfg = OramConfig {
                fault,
                ..OramConfig::small_for_tests(256)
            };
            let mut oram = PathOram::new(cfg, 42);
            let mut rng = Xoshiro256::seed_from(3);
            for _ in 0..200 {
                oram.try_access_block(BlockAddr(rng.next_below(256)), AccessKind::Read)
                    .unwrap();
            }
            (
                oram.oram_stats(),
                oram.trace().observed_leaves(),
                oram.stash().peak(),
            )
        };
        assert_eq!(run(None), run(Some(FaultConfig::silent(99))));
    }

    /// Alternating payload writes and reads against a shadow copy: every
    /// read returns the last bytes written or a typed error, a failed
    /// access leaves the controller exactly as it was, and no injected
    /// fault goes unnoticed.
    fn shadow_checked_run(cfg: OramConfig, class: FaultClass) {
        let blocks = cfg.num_data_blocks;
        let mut oram = PathOram::new(cfg, 21);
        let mut shadow = vec![vec![0u8; 128]; blocks as usize];
        let mut rng = Xoshiro256::seed_from(8);
        let (mut served, mut failed) = (0, 0);
        for i in 0..120u64 {
            let addr = rng.next_below(blocks);
            let slot = addr as usize;
            let before = oram.state_digest();
            let result = if i % 2 == 0 {
                let bytes = vec![(i % 255) as u8 + 1; 128];
                oram.try_write_block(BlockAddr(addr), &bytes)
                    .map(|()| shadow[slot] = bytes)
            } else {
                oram.try_read_block(BlockAddr(addr)).map(|got| {
                    assert_eq!(got.as_ref(), Some(&shadow[slot]), "{}", class.name());
                })
            };
            match result {
                Ok(()) => served += 1,
                Err(
                    OramError::Integrity { .. }
                    | OramError::Rollback { .. }
                    | OramError::Transient { .. },
                ) => {
                    assert_eq!(oram.state_digest(), before, "{}", class.name());
                    failed += 1;
                }
                Err(e) => panic!("{}: unexpected {e}", class.name()),
            }
        }
        let stats = oram.fault_stats();
        assert!(stats.total_injected() > 0, "{}", class.name());
        assert_eq!(stats.undetected, 0, "{}: false negatives", class.name());
        assert!(served > 0, "{}: nothing served", class.name());
        assert!(failed > 0, "{}: nothing fail-stopped", class.name());
        if class == FaultClass::Transient {
            assert!(stats.recovered > 0, "no transient read was retried");
        }
    }

    #[test]
    fn every_fault_class_fail_stops_without_losing_a_write() {
        for class in FaultClass::ALL {
            let rate = match class {
                FaultClass::Transient => 0.3,
                _ => 0.02,
            };
            let cfg = faulty_cfg(FaultConfig::single(class, rate, 17));
            shadow_checked_run(
                OramConfig {
                    num_data_blocks: 64,
                    ..cfg
                },
                class,
            );
        }
    }

    #[test]
    fn treetop_faults_fail_stop_without_losing_a_write() {
        // Initialization writes are injected too. A corrupted bucket on
        // the path of the top position-map block stops every later
        // access (nothing can repair it), which at injector seed 17 leaves
        // nothing to serve; seed 18 keeps that path clean.
        let cfg = OramConfig {
            num_data_blocks: 64,
            treetop_levels: 2,
            ..faulty_cfg(FaultConfig::single(FaultClass::BitFlip, 0.02, 18))
        };
        shadow_checked_run(cfg, FaultClass::BitFlip);
    }

    #[test]
    fn scrub_detects_out_of_path_corruption() {
        let cfg = OramConfig {
            scrub_interval: 10,
            ..faulty_cfg(FaultConfig::silent(1))
        };
        let mut oram = PathOram::new(cfg, 13);
        // Corrupt a bucket directly (not via the injector): the scrub
        // pass must report it even if no access walks past it.
        let nb = oram.storage().expect("payloads on").num_buckets();
        oram.storage_mut()
            .expect("payloads on")
            .corrupt_byte(nb - 1, 30, 0x08);
        let mut rng = Xoshiro256::seed_from(6);
        let flagged = (0..10)
            .filter_map(|_| {
                oram.try_access_block(BlockAddr(rng.next_below(256)), AccessKind::Read)
                    .err()
            })
            .any(|e| e.bucket() == Some(nb - 1));
        assert!(oram.fault_stats().scrub_runs >= 1, "scrub never ran");
        assert!(flagged, "scrub did not report the corruption");
        assert_eq!(oram.scrub().unwrap_err().bucket(), Some(nb - 1));
        assert!(oram.fault_stats().detected_integrity >= 2);
    }

    #[test]
    fn transient_backoff_charges_latency() {
        let fault = FaultConfig {
            retry_backoff_cycles: 100,
            ..FaultConfig::single(FaultClass::Transient, 0.2, 7)
        };
        let mut oram = PathOram::new(faulty_cfg(fault), 4);
        let mut total_latency = 0;
        let mut tree_accesses = 0;
        let mut rng = Xoshiro256::seed_from(2);
        for _ in 0..50 {
            let r = oram
                .try_access_block(BlockAddr(rng.next_below(256)), AccessKind::Read)
                .expect("transients under budget recover");
            total_latency += r.latency;
            tree_accesses += r.tree_accesses;
        }
        let stats = oram.fault_stats();
        assert!(stats.backoff_cycles > 0, "no backoff charged");
        assert_eq!(
            total_latency,
            tree_accesses * oram.path_cycles() + stats.backoff_cycles,
            "latency must include retry backoff"
        );
    }

    #[test]
    fn stash_never_exceeds_hard_capacity() {
        // Seeded-loop property: under eviction pressure with a hard
        // capacity configured, resting occupancy stays bounded (or the
        // controller fail-stops with a typed overflow, never silently
        // exceeding it).
        let cfg = OramConfig {
            stash_limit: 4,
            z: 2,
            stash_hard_capacity: Some(12),
            ..OramConfig::small_for_tests(400)
        };
        let cap = cfg.stash_hard_capacity.unwrap();
        let mut oram = PathOram::new(cfg, 11);
        let mut rng = Xoshiro256::seed_from(1);
        for i in 0..300 {
            match oram.try_access_block(BlockAddr(rng.next_below(400)), AccessKind::Read) {
                Ok(_) => assert!(
                    oram.stash().len() <= cap,
                    "iteration {i}: stash {} over hard capacity {cap}",
                    oram.stash().len()
                ),
                Err(OramError::StashOverflow { occupancy, .. }) => {
                    // Fail-stop is the documented last resort; it must
                    // name the offending occupancy.
                    assert!(occupancy > cap);
                    return;
                }
                Err(e) => panic!("unexpected error: {e}"),
            }
        }
        oram.check_invariants();
    }

    #[test]
    fn emergency_eviction_drains_past_the_bounded_limit() {
        // Flood the stash past what the bounded per-access drain can
        // place so the emergency mode must engage, at a load the tree
        // can still absorb. Placement efficiency depends on leaf draws,
        // so probe increasing floods (deterministic per seed) until one
        // engages the emergency path and still drains successfully.
        let mut engaged = false;
        for flood in [182u64, 186, 190, 194, 198] {
            let cfg = OramConfig {
                stash_limit: 4,
                stash_hard_capacity: Some(16),
                ..OramConfig::small_for_tests(64)
            };
            let cap = cfg.stash_hard_capacity.unwrap();
            let mut oram = PathOram::new(cfg, 19);
            for i in 0..flood {
                let leaf = oram.random_leaf();
                oram.stash
                    .insert(Block::opaque(BlockAddr(1_000_000 + i), leaf));
            }
            let Ok(evictions) = oram.try_drain_background() else {
                break; // tree saturated; heavier floods only fail harder
            };
            assert!(oram.stash().len() <= cap, "drain left stash over capacity");
            if oram.fault_stats().emergency_evictions > 0 {
                assert!(
                    evictions > MAX_BACKGROUND_EVICTIONS_PER_ACCESS,
                    "emergency counted but drain stayed within the bound"
                );
                engaged = true;
                break;
            }
        }
        assert!(
            engaged,
            "no flood level engaged emergency eviction successfully"
        );
    }

    #[test]
    fn saturated_tree_fail_stops_with_typed_overflow() {
        // More foreign blocks than the whole tree can absorb: even
        // MAX_EMERGENCY_EVICTIONS paths cannot place them, so the drain
        // must fail-stop with the typed overflow naming the occupancy.
        let cfg = OramConfig {
            stash_limit: 4,
            stash_hard_capacity: Some(16),
            ..OramConfig::small_for_tests(64)
        };
        let cap = cfg.stash_hard_capacity.unwrap();
        let mut oram = PathOram::new(cfg, 23);
        let slots = oram.tree.num_buckets() * oram.config.z;
        for i in 0..(slots as u64 + 200) {
            let leaf = oram.random_leaf();
            oram.stash
                .insert(Block::opaque(BlockAddr(1_000_000 + i), leaf));
        }
        match oram.try_drain_background() {
            Err(OramError::StashOverflow {
                occupancy,
                capacity,
            }) => {
                assert_eq!(capacity, cap);
                assert!(occupancy > cap, "fail-stop below the boundary");
            }
            other => panic!("expected StashOverflow, got {other:?}"),
        }
        assert!(oram.fault_stats().emergency_evictions > 0);
    }

    #[test]
    fn unrecovered_faults_degrade_instead_of_panicking() {
        use proram_mem::NoProbe;
        // Without recovery (no injector), MemoryBackend::access absorbs a
        // detected corruption into the unrecovered counter and still
        // serves the fill.
        let mut oram = PathOram::new(OramConfig::small_for_tests(256), 2);
        oram.storage_mut()
            .expect("payloads on")
            .corrupt_byte(0, 30, 0x01);
        let o = oram.access(0, MemRequest::read(BlockAddr(1)), &NoProbe);
        assert_eq!(o.fills.len(), 1);
        assert_eq!(MemoryBackend::stats(&oram).faults.unrecovered, 1);
    }
}

#[cfg(test)]
mod init_group_tests {
    use super::*;

    #[test]
    fn grouped_init_maps_groups_to_common_leaves() {
        let cfg = OramConfig {
            init_group_size: 4,
            ..OramConfig::small_for_tests(64)
        };
        let mut oram = PathOram::new(cfg, 17);
        for base in (0..64u64).step_by(4) {
            oram.try_resolve_posmap(BlockAddr(base)).unwrap();
            let leaf = oram.entry(BlockAddr(base)).leaf;
            for off in 1..4 {
                assert_eq!(
                    oram.entry(BlockAddr(base + off)).leaf,
                    leaf,
                    "group at {base} not co-located"
                );
            }
        }
        oram.check_invariants();
    }

    #[test]
    fn grouped_init_still_serves_accesses() {
        let cfg = OramConfig {
            init_group_size: 2,
            ..OramConfig::small_for_tests(64)
        };
        let mut oram = PathOram::new(cfg, 18);
        for a in 0..64 {
            oram.try_access_block(BlockAddr(a), AccessKind::Read)
                .unwrap();
        }
        oram.check_invariants();
    }
}
