//! Stage 3: decrypt and authenticate.
//!
//! Decrypts and authenticates every off-chip bucket of a path into the
//! path scratch (the `DecryptVerify` stage), and re-authenticates the
//! whole image in the periodic scrub. The store holds the only copy of
//! those buckets, so a detected fault is never repaired: it surfaces as
//! a typed [`OramError`] and fail-stops the access.

use super::PathOram;
use crate::addr::Leaf;
use crate::error::OramError;
use proram_obs::{FaultKind, ObsEvent};

/// The event-taxonomy class of a detected fault (for observability; the
/// typed error itself keeps the full payload).
fn fault_kind(err: &OramError) -> FaultKind {
    match err {
        OramError::Integrity { .. } => FaultKind::Integrity,
        OramError::Rollback { .. } => FaultKind::Rollback,
        OramError::Transient { .. } => FaultKind::Transient,
        OramError::StashOverflow { .. } => FaultKind::StashPressure,
        OramError::BlockMissing { .. } => FaultKind::BlockMissing,
        // Store reads never report crashes, so this classification is
        // only a defensive nearest-neighbor.
        OramError::Crashed { .. } => FaultKind::Transient,
    }
}

impl PathOram {
    /// Decrypts and authenticates every *off-chip* bucket on the path to
    /// `leaf` into the path scratch. Resident (treetop) buckets are
    /// trusted plaintext and skipped; without a stored image there is
    /// nothing to do.
    ///
    /// # Errors
    ///
    /// The first bucket's [`OramError`]; the scratch is then emptied, so
    /// nothing of the path reaches the stash.
    pub(crate) fn decrypt_path(&mut self, leaf: Leaf) -> Result<(), OramError> {
        let Some(store) = self.store.as_mut() else {
            return Ok(());
        };
        let resident = self.tree.resident_buckets();
        for (level, idx) in self.tree.path_indices(leaf).enumerate() {
            if idx < resident {
                continue;
            }
            let phys = self.layout.phys_of(idx);
            if let Err(err) = store.read_bucket_into(phys, &mut self.scratch.path[level]) {
                self.scratch.clear_path();
                let kind = fault_kind(&err);
                self.obs.emit(|| ObsEvent::FaultDetected {
                    kind,
                    bucket: idx as u64,
                });
                return Err(err);
            }
        }
        Ok(())
    }

    /// Re-authenticates the whole encrypted image
    /// ([`crate::EncryptedStore::verify_all`]). This is the periodic scrub
    /// pass driven by [`crate::OramConfig::scrub_interval`]; it can also
    /// be called directly. It finds corruption no access has walked past
    /// yet, and reports it.
    ///
    /// # Errors
    ///
    /// The first detected [`OramError`].
    pub fn scrub(&mut self) -> Result<(), OramError> {
        let Some(store) = self.store.as_mut() else {
            return Ok(());
        };
        self.ctrl_faults.scrub_runs += 1;
        self.ctrl_faults.scrub_buckets += store.num_buckets() as u64;
        store.verify_all().inspect_err(|err| {
            let kind = fault_kind(err);
            let bucket = err.bucket().map_or(u64::MAX, |b| b as u64);
            self.obs.emit(|| ObsEvent::FaultDetected { kind, bucket });
        })
    }
}
