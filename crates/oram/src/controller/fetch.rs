//! Stage 2: path fetch.
//!
//! Brings every bucket on a path into the stash, records the
//! adversary-visible event and byte movement, and claims the requested
//! block for remapping. A path fetch is a *batch* of bucket reads —
//! [`PathOram::bucket_read_batch`] renders one explicitly for the
//! bank-aware scheduler in `proram-mem`; the per-access timing model
//! charges the same batch analytically via
//! [`proram_mem::BankScheduler::path_fetch_cycles`] so the hot path stays
//! allocation-free.

use super::{PathKind, PathOram};
use crate::addr::Leaf;
use crate::error::OramError;
use crate::eviction::read_path;
use crate::trace::PhysEvent;
use proram_mem::BucketRead;
use proram_obs::ObsEvent;

impl PathOram {
    /// Reads every bucket on the path to `leaf` into the stash, recording
    /// the adversary-visible event, statistics and byte movement. Callers
    /// must pair this with [`PathOram::write_path_from_stash`] on the same
    /// leaf before reading another path: until then the store still holds
    /// the path's old images.
    ///
    /// With a stored image every off-chip bucket on the path is decrypted
    /// and authenticated first, and no block reaches the stash unless the
    /// whole path authenticates.
    ///
    /// # Errors
    ///
    /// Returns the [`OramError`] of the first off-chip bucket that failed
    /// authentication, is stale, or exhausted its transient-read retries;
    /// the stash and the tree are then untouched.
    pub fn try_read_path_into_stash(
        &mut self,
        leaf: Leaf,
        kind: PathKind,
    ) -> Result<(), OramError> {
        self.decrypt_path(leaf)?;
        self.fill_path_into_stash(leaf, kind);
        Ok(())
    }

    /// The stash-update half of a path fetch: moves the (authenticated)
    /// path's blocks into the stash and records stats, trace and
    /// occupancy.
    pub(crate) fn fill_path_into_stash(&mut self, leaf: Leaf, kind: PathKind) {
        let peak_before = self.stash.peak();
        read_path(&mut self.tree, &mut self.stash, leaf);
        for bucket in &mut self.scratch.path {
            for block in bucket.drain() {
                self.stash.insert(block);
            }
        }
        match kind {
            PathKind::Data => {
                self.stats.data_path_accesses += 1;
                self.trace.record(PhysEvent::PathAccess(leaf));
            }
            PathKind::PosMap => {
                self.stats.posmap_path_accesses += 1;
                self.trace.record(PhysEvent::PathAccess(leaf));
            }
            PathKind::Dummy => {
                self.stats.background_evictions += 1;
                self.trace.record(PhysEvent::DummyAccess(leaf));
            }
        }
        self.stats.bytes_moved += self.path_bytes;
        if self.config.treetop_levels > 0 {
            self.stats.treetop_hits += u64::from(self.config.treetop_levels);
            self.stats.treetop_bytes_saved += self.treetop_saved_bytes;
        }
        self.stash.sample_occupancy();
        // Watermark events fire only when the all-time peak moves, so an
        // attached sink sees the (rare) growth edges, not every access.
        let peak = self.stash.peak();
        if peak > peak_before {
            let occupancy = self.stash.len() as u64;
            self.obs.emit(|| ObsEvent::StashWatermark {
                occupancy,
                peak: peak as u64,
            });
        }
    }

    /// Claims a just-fetched block for the access: finds `addr` in the
    /// stash and points it at its fresh leaf.
    ///
    /// # Errors
    ///
    /// Returns [`OramError::BlockMissing`] if the block is on neither the
    /// fetched path nor in the stash — the placement invariant is broken.
    pub(crate) fn claim_block(
        &mut self,
        addr: proram_mem::BlockAddr,
        old_leaf: Leaf,
        new_leaf: Leaf,
    ) -> Result<(), OramError> {
        let block = self.stash.get_mut(addr).ok_or(OramError::BlockMissing {
            addr: addr.0,
            leaf: old_leaf.0,
        })?;
        block.leaf = new_leaf;
        Ok(())
    }

    /// Renders the path to `leaf` as an explicit bucket-read batch for the
    /// bank-aware scheduler: one [`BucketRead`] per off-chip bucket,
    /// addressed by its *physical* store index under the configured
    /// [`crate::TreeLayout`], each
    /// moving the derate-adjusted wire bytes of one bucket
    /// ([`crate::OramTiming::bucket_wire_bytes`]). Treetop-cached levels
    /// are on-chip and never appear in the batch. A super-block merged
    /// fetch is simply one larger batch (several paths concatenated).
    ///
    /// Allocates the returned vector; the per-access hot path instead
    /// charges the identical batch analytically, so this is for explicit
    /// scheduler callers (experiments, `proram-bench pipeline`).
    pub fn bucket_read_batch(&self, leaf: Leaf) -> Vec<BucketRead> {
        let bucket_bytes = self.config.timing.bucket_wire_bytes(self.config.z);
        let skip = (self.config.tree_levels() - self.config.off_chip_levels()) as usize;
        self.tree
            .path_indices(leaf)
            .skip(skip)
            .map(|idx| BucketRead::new(self.layout.phys_of(idx) as u64, bucket_bytes))
            .collect()
    }
}
