//! Stages 4 & 5: path write-back and background eviction.
//!
//! Greedily writes stash blocks back onto the just-read path, seals the
//! off-chip buckets into the encrypted image, and drains the stash with
//! background (dummy) evictions — paper Section 2.4 — bounded per access
//! so an eviction storm degrades throughput instead of livelocking.

use super::{PathOram, MAX_BACKGROUND_EVICTIONS_PER_ACCESS, MAX_EMERGENCY_EVICTIONS};
use crate::addr::Leaf;
use crate::error::OramError;
use crate::eviction::write_path_with;
use proram_obs::{FaultKind, ObsEvent};

impl PathOram {
    /// Greedily writes stash blocks back to the path to `leaf`: resident
    /// buckets in place, and every off-chip bucket serialized and
    /// encrypted straight from the path scratch into the storage image.
    ///
    /// # Errors
    ///
    /// Returns [`OramError::Crashed`] when a store-level crash kill point
    /// fired during the write-back; the encrypted image keeps its
    /// pre-crash bytes and [`PathOram::recover`] must run before the next
    /// access.
    pub fn write_path_from_stash(&mut self, leaf: Leaf) -> Result<(), OramError> {
        write_path_with(&mut self.tree, &mut self.stash, leaf, &mut self.scratch);
        if let Some(store) = self.store.as_mut() {
            let resident = self.tree.resident_buckets();
            for (level, idx) in self.tree.path_indices(leaf).enumerate() {
                if idx >= resident {
                    let bucket = &mut self.scratch.path[level];
                    store.write_bucket(self.layout.phys_of(idx), bucket);
                    bucket.drain();
                }
            }
        }
        self.store_crash_check()
    }

    /// Performs one background eviction (paper Section 2.4): read and
    /// write a random path, remapping nothing.
    ///
    /// # Errors
    ///
    /// Propagates unrecovered faults from the path read.
    pub fn try_background_evict(&mut self) -> Result<(), OramError> {
        let leaf = self.random_leaf();
        self.try_read_path_into_stash(leaf, super::PathKind::Dummy)?;
        self.write_path_from_stash(leaf)
    }

    /// Issues background evictions until the stash is under its limit,
    /// bounded per call so a persistent eviction storm degrades
    /// throughput instead of livelocking the simulator; returns how many
    /// evictions ran.
    ///
    /// With [`crate::OramConfig::stash_hard_capacity`] set, a stash still
    /// above the hard capacity after the bounded drain enters **emergency
    /// eviction**: a degraded mode (counted in
    /// [`proram_mem::FaultStats::emergency_evictions`]) that keeps
    /// evicting up to `MAX_EMERGENCY_EVICTIONS` more paths. Only if the
    /// stash *still* exceeds capacity does the controller fail-stop.
    ///
    /// # Errors
    ///
    /// Returns [`OramError::StashOverflow`] when emergency eviction cannot
    /// bring occupancy under the hard capacity, or propagates unrecovered
    /// path-read faults.
    pub fn try_drain_background(&mut self) -> Result<u64, OramError> {
        let mut n = 0;
        while self.stash.over_limit() && n < MAX_BACKGROUND_EVICTIONS_PER_ACCESS {
            self.try_background_evict()?;
            n += 1;
        }
        if let Some(cap) = self.config.stash_hard_capacity {
            let mut emergencies = 0;
            if self.stash.len() > cap {
                let occupancy = self.stash.len() as u64;
                self.obs.emit(|| ObsEvent::FaultDetected {
                    kind: FaultKind::StashPressure,
                    bucket: occupancy,
                });
            }
            while self.stash.len() > cap && emergencies < MAX_EMERGENCY_EVICTIONS {
                self.try_background_evict()?;
                self.ctrl_faults.emergency_evictions += 1;
                emergencies += 1;
                n += 1;
            }
            if self.stash.len() > cap {
                return Err(OramError::StashOverflow {
                    occupancy: self.stash.len(),
                    capacity: cap,
                });
            }
            if emergencies > 0 {
                let occupancy = self.stash.len() as u64;
                self.obs.emit(|| ObsEvent::FaultRecovered {
                    kind: FaultKind::StashPressure,
                    bucket: occupancy,
                });
            }
        }
        Ok(n)
    }

    /// The eviction stage of one access: bounded background drain plus
    /// the periodic image scrub driven by
    /// [`crate::OramConfig::scrub_interval`]. Returns the background
    /// evictions run.
    ///
    /// # Errors
    ///
    /// Propagates drain and scrub failures.
    pub(crate) fn drain_and_periodic_scrub(&mut self) -> Result<u64, OramError> {
        let background_evictions = self.try_drain_background()?;
        if self.config.scrub_interval > 0 {
            self.reads_since_scrub += 1;
            if self.reads_since_scrub >= self.config.scrub_interval {
                self.reads_since_scrub = 0;
                self.scrub()?;
            }
        }
        Ok(background_evictions)
    }
}
