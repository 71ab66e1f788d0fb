//! The primitive interface super-block schemes build on.
//!
//! Paper Section 6.1: "other ORAM schemes (e.g., \[27\]) have similar
//! binary tree structure to Path ORAM. After adding background eviction,
//! these ORAM schemes can also benefit from using super blocks. In
//! general, all ORAM schemes should be able to take advantage of super
//! blocks as long as they have support for background eviction."
//!
//! [`OramBackend`] captures exactly the primitives the super-block
//! controller in `proram-core` needs: position-map access, a
//! read-path/write-path pair, stash access, remapping and background
//! eviction. [`crate::PathOram`] implements it natively; so does the
//! Shi-style tree ORAM in [`crate::shi`], which is how the Section 6.1
//! claim is reproduced.

use crate::addr::{AddressSpace, Leaf};
use crate::block::Block;
use crate::controller::{OramStats, PathKind};
use crate::crash::RecoveryReport;
use crate::error::OramError;
use crate::posmap::PosEntry;
use proram_mem::{BlockAddr, FaultStats};
use proram_obs::Obs;

/// A tree-based ORAM offering the primitives super-block schemes need.
///
/// The fallible methods return [`OramError`] for faults the backend
/// detected and fail-stopped on (corruption, rollback, exhausted
/// transient retries, stash overflow past the hard capacity, injected
/// crashes).
pub trait OramBackend {
    /// The unified block-address-space layout.
    fn space(&self) -> &AddressSpace;

    /// Ensures the position-map entries covering `child`'s group are
    /// on-chip; returns the tree accesses spent doing so.
    ///
    /// # Errors
    ///
    /// Propagates unrecovered faults from the path reads.
    fn resolve_posmap(&mut self, child: BlockAddr) -> Result<u64, OramError>;

    /// Borrows `child`'s position-map entry (requires a prior resolve).
    fn entry(&self, child: BlockAddr) -> &PosEntry;

    /// Mutably borrows `child`'s position-map entry.
    fn entry_mut(&mut self, child: BlockAddr) -> &mut PosEntry;

    /// Read phase of one access: brings every real block that the access
    /// may serve into the stash, recording the adversary-visible event.
    ///
    /// # Errors
    ///
    /// Returns the detected [`OramError`]; nothing reached the stash.
    fn read_path_into_stash(&mut self, leaf: Leaf, kind: PathKind) -> Result<(), OramError>;

    /// Write phase of one access, paired with the preceding read.
    ///
    /// # Errors
    ///
    /// Returns [`OramError::Crashed`] when a store-level crash kill point
    /// fired during the write-back (the write is dropped and the caller
    /// must run recovery); backends without crash injection always return
    /// `Ok`.
    fn write_path_from_stash(&mut self, leaf: Leaf) -> Result<(), OramError>;

    /// Opens the crash-consistent commit transaction of one composite
    /// access (DESIGN.md section 15), so the scheme layer's multi-path
    /// accesses roll back or replay as one unit. No-op for backends
    /// without a commit protocol (the default) and for backends whose
    /// crash injection is disabled.
    fn txn_begin(&mut self) {}

    /// Commits the transaction opened by [`OramBackend::txn_begin`].
    ///
    /// # Errors
    ///
    /// [`OramError::Crashed`] when a kill point fires inside the commit;
    /// the caller must run [`OramBackend::recover_crash`].
    fn txn_commit(&mut self) -> Result<(), OramError> {
        Ok(())
    }

    /// Recovers after an access returned [`OramError::Crashed`]: the
    /// backend restores its last consistent state and reports what
    /// recovery did. `None` (the default) means the backend has no commit
    /// protocol and the caller must treat the crash as unrecovered.
    fn recover_crash(&mut self) -> Option<RecoveryReport> {
        None
    }

    /// Whether `addr` currently sits in the stash.
    fn stash_contains(&self, addr: BlockAddr) -> bool;

    /// Mutably borrows a stashed block.
    fn stash_block_mut(&mut self, addr: BlockAddr) -> Option<&mut Block>;

    /// Draws a fresh uniform leaf.
    fn random_leaf(&mut self) -> Leaf;

    /// One background eviction (a dummy access on the wire).
    ///
    /// # Errors
    ///
    /// Propagates unrecovered faults from the path read.
    fn background_evict(&mut self) -> Result<(), OramError>;

    /// Background-evicts until the stash is under its trigger; returns
    /// the evictions run.
    ///
    /// # Errors
    ///
    /// Returns [`OramError::StashOverflow`] if even emergency eviction
    /// cannot respect a configured hard capacity, or propagates
    /// unrecovered path-read faults.
    fn drain_background(&mut self) -> Result<u64, OramError>;

    /// Cycles one physical tree access costs.
    fn path_cycles(&self) -> u64;

    /// Cycles one physical tree access costs with the fetch pipeline
    /// applied. Equal to [`OramBackend::path_cycles`] for backends
    /// without a bank-aware fetch stage (the default), and smaller when
    /// bucket reads overlap across banks.
    fn fetch_cycles(&self) -> u64 {
        self.path_cycles()
    }

    /// Statistics so far.
    fn oram_stats(&self) -> OramStats;

    /// Fault injection/detection/recovery counters; all-zero for backends
    /// without fault injection (the default).
    fn fault_stats(&self) -> FaultStats {
        FaultStats::default()
    }

    /// Short name of the underlying ORAM ("path", "shi", ...).
    fn backend_name(&self) -> &'static str;

    /// Attaches an observability handle; backends without instrumentation
    /// ignore it (the default).
    fn attach_obs(&mut self, _obs: Obs) {}
}
