//! The staged ORAM access pipeline.
//!
//! One logical access moves through five stages — position-map resolve,
//! path fetch, decrypt/verify, stash update, write-back — followed by
//! background eviction, exactly the five steps of paper Section 2.2.
//! [`AccessMachine`] is the typed state machine that carries an
//! [`AccessRequest`] through those stages against a
//! [`crate::PathOram`]; [`PathOram::try_access_block`] is a thin driver
//! that steps it to completion and returns the
//! [`AccessCompletion`]'s report.
//!
//! The machine exists so stage boundaries are explicit values rather than
//! one deep call chain: simulators can step it, attribute cycles per
//! stage ([`StageCycles`]) and — with [`crate::OramConfig::pipeline`]
//! set — charge the fetch stage at the bank-overlapped cost computed by
//! [`proram_mem::BankScheduler`] instead of the serialized lump sum.
//! Stepping draws the same randomness in the same order as the historical
//! monolithic access, so pipeline-off runs are behavior-identical to the
//! pre-split controller.
//!
//! [`PathOram::try_access_block`]: crate::PathOram::try_access_block

use crate::addr::Leaf;
use crate::controller::{AccessReport, PathKind, PathOram};
use crate::crash::KillPoint;
use crate::error::OramError;
use proram_mem::{AccessKind, BlockAddr};
use proram_obs::{ObsEvent, StageKind};

/// One logical block request entering the pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessRequest {
    /// The data block to access.
    pub addr: BlockAddr,
    /// Read or write (identical on the wire; kept for attribution).
    pub kind: AccessKind,
}

/// The stage an in-flight access is in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessStage {
    /// Step 1: walk the position map, remap to a fresh leaf.
    ResolvePosmap,
    /// Step 2: issue the path's bucket-read batch.
    PathFetch,
    /// Step 3: decrypt and authenticate the fetched buckets.
    DecryptVerify,
    /// Step 3b: move the path's blocks into the stash, claim the target.
    StashUpdate,
    /// Step 5: write the path back from the stash.
    WriteBack,
    /// Post-access: bounded background eviction and periodic scrub.
    Evict,
    /// The access has completed; the machine must not be stepped again.
    Done,
}

/// Per-stage cycle attribution of one access; the stage totals sum to the
/// reported latency.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageCycles {
    /// Cycles spent fetching position-map paths.
    pub posmap: u64,
    /// Cycles spent fetching the data path itself.
    pub fetch: u64,
    /// Cycles spent on background-eviction (dummy) paths.
    pub evict: u64,
    /// Transient-retry backoff charged by fault injection.
    pub backoff: u64,
}

impl StageCycles {
    /// Total cycles across all stages — equals the access latency.
    pub fn total(&self) -> u64 {
        self.posmap + self.fetch + self.evict + self.backoff
    }
}

/// A finished access: the request that entered the pipeline plus its
/// report.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessCompletion {
    /// The request this completion answers.
    pub request: AccessRequest,
    /// Latency, tree accesses and per-stage attribution.
    pub report: AccessReport,
}

/// The in-flight state of one access moving through the pipeline.
///
/// Step it with [`AccessMachine::step`] until it yields a completion:
///
/// ```
/// use proram_oram::{AccessMachine, AccessRequest, OramConfig, PathOram};
/// use proram_mem::{AccessKind, BlockAddr};
///
/// let mut oram = PathOram::new(OramConfig::small_for_tests(64), 1);
/// let mut machine = AccessMachine::new(AccessRequest {
///     addr: BlockAddr(5),
///     kind: AccessKind::Read,
/// });
/// let completion = loop {
///     if let Some(done) = machine.step(&mut oram).unwrap() {
///         break done;
///     }
/// };
/// assert!(completion.report.tree_accesses >= 1);
/// assert_eq!(completion.report.latency, completion.report.stages.total());
/// ```
#[derive(Debug, Clone, Copy)]
pub struct AccessMachine {
    request: AccessRequest,
    stage: AccessStage,
    backoff_before: u64,
    posmap_accesses: u64,
    /// Leaf the block was mapped to when the access began (path to fetch).
    old_leaf: Leaf,
    /// Fresh leaf the block was remapped to.
    new_leaf: Leaf,
    /// Off-chip buckets in the fetch batch (recorded by `PathFetch`).
    batch_len: u32,
}

impl AccessMachine {
    /// A machine ready to run `request` from its first stage.
    pub fn new(request: AccessRequest) -> Self {
        AccessMachine {
            request,
            stage: AccessStage::ResolvePosmap,
            backoff_before: 0,
            posmap_accesses: 0,
            old_leaf: Leaf(0),
            new_leaf: Leaf(0),
            batch_len: 0,
        }
    }

    /// The stage the machine will execute next.
    pub fn stage(&self) -> AccessStage {
        self.stage
    }

    /// Runs the current stage against `oram` and advances. Returns
    /// `Ok(Some(..))` when the final stage retires the access.
    ///
    /// # Errors
    ///
    /// Propagates the stage's [`OramError`]; the machine is then stuck in
    /// the failing stage and must be discarded.
    ///
    /// # Panics
    ///
    /// Panics if stepped again after returning a completion.
    pub fn step(&mut self, oram: &mut PathOram) -> Result<Option<AccessCompletion>, OramError> {
        match self.stage {
            AccessStage::ResolvePosmap => {
                let addr = self.request.addr.0;
                oram.obs().emit(|| ObsEvent::AccessIssued {
                    addr,
                    write: self.request.kind == AccessKind::Write,
                });
                oram.obs().emit(|| ObsEvent::StageEnter {
                    addr,
                    stage: StageKind::ResolvePosmap,
                });
                oram.crash_gate(KillPoint::ResolvePosmap)?;
                oram.note_logical_access();
                self.backoff_before = oram.backoff_cycles();
                self.posmap_accesses = oram.try_resolve_posmap(self.request.addr)?;
                let (old_leaf, new_leaf) = oram.remap_block(self.request.addr);
                self.old_leaf = old_leaf;
                self.new_leaf = new_leaf;
                self.stage = AccessStage::PathFetch;
                Ok(None)
            }
            AccessStage::PathFetch => {
                self.emit_stage(oram, StageKind::PathFetch);
                oram.crash_gate(KillPoint::PathFetch)?;
                // The fetch is one batch of bucket reads, one per off-chip
                // level; recording its size here keeps the hot path
                // allocation-free (an explicit batch is available via
                // `PathOram::bucket_read_batch`).
                self.batch_len = oram.config().off_chip_levels();
                self.stage = AccessStage::DecryptVerify;
                Ok(None)
            }
            AccessStage::DecryptVerify => {
                self.emit_stage(oram, StageKind::DecryptVerify);
                oram.crash_gate(KillPoint::DecryptVerify)?;
                oram.decrypt_path(self.old_leaf)?;
                self.stage = AccessStage::StashUpdate;
                Ok(None)
            }
            AccessStage::StashUpdate => {
                self.emit_stage(oram, StageKind::StashUpdate);
                oram.crash_gate(KillPoint::StashUpdate)?;
                oram.fill_path_into_stash(self.old_leaf, PathKind::Data);
                oram.claim_block(self.request.addr, self.old_leaf, self.new_leaf)?;
                self.stage = AccessStage::WriteBack;
                Ok(None)
            }
            AccessStage::WriteBack => {
                self.emit_stage(oram, StageKind::WriteBack);
                oram.crash_gate(KillPoint::WriteBack)?;
                oram.write_path_from_stash(self.old_leaf)?;
                self.stage = AccessStage::Evict;
                Ok(None)
            }
            AccessStage::Evict => {
                self.emit_stage(oram, StageKind::Evict);
                oram.crash_gate(KillPoint::Evict)?;
                let background_evictions = oram.drain_and_periodic_scrub()?;
                let backoff = oram.backoff_cycles() - self.backoff_before;
                let fetch_cycles = oram.fetch_cycles();
                let stages = StageCycles {
                    posmap: self.posmap_accesses * fetch_cycles,
                    fetch: fetch_cycles,
                    evict: background_evictions * fetch_cycles,
                    backoff,
                };
                let tree_accesses = 1 + self.posmap_accesses + background_evictions;
                let obs = oram.obs();
                if obs.is_enabled() {
                    obs.profile(StageKind::ResolvePosmap, stages.posmap);
                    obs.profile(StageKind::PathFetch, stages.fetch);
                    obs.profile(StageKind::Evict, stages.evict);
                    obs.profile(StageKind::Backoff, stages.backoff);
                    let addr = self.request.addr.0;
                    obs.emit(|| ObsEvent::AccessRetired {
                        addr,
                        latency: stages.total(),
                        posmap: stages.posmap,
                        fetch: stages.fetch,
                        evict: stages.evict,
                        backoff: stages.backoff,
                    });
                }
                self.stage = AccessStage::Done;
                Ok(Some(AccessCompletion {
                    request: self.request,
                    report: AccessReport {
                        latency: stages.total(),
                        tree_accesses,
                        posmap_accesses: self.posmap_accesses,
                        background_evictions,
                        stages,
                    },
                }))
            }
            AccessStage::Done => panic!("AccessMachine stepped after completion"),
        }
    }

    /// Off-chip buckets the fetch stage batched (0 before `PathFetch`).
    pub fn batch_len(&self) -> u32 {
        self.batch_len
    }

    #[inline]
    fn emit_stage(&self, oram: &PathOram, stage: StageKind) {
        let addr = self.request.addr.0;
        oram.obs().emit(|| ObsEvent::StageEnter { addr, stage });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::OramConfig;

    #[test]
    fn machine_walks_all_stages_in_order() {
        let mut oram = PathOram::new(OramConfig::small_for_tests(64), 9);
        let mut machine = AccessMachine::new(AccessRequest {
            addr: BlockAddr(3),
            kind: AccessKind::Read,
        });
        let expected = [
            AccessStage::ResolvePosmap,
            AccessStage::PathFetch,
            AccessStage::DecryptVerify,
            AccessStage::StashUpdate,
            AccessStage::WriteBack,
            AccessStage::Evict,
        ];
        for (i, want) in expected.iter().enumerate() {
            assert_eq!(machine.stage(), *want, "stage {i}");
            let done = machine.step(&mut oram).unwrap();
            assert_eq!(done.is_some(), i == expected.len() - 1);
        }
        assert_eq!(machine.stage(), AccessStage::Done);
        assert_eq!(machine.batch_len(), oram.config().off_chip_levels());
    }

    #[test]
    fn stepped_machine_matches_driver() {
        // Stepping the machine by hand and calling the driver must be the
        // same computation.
        let mut a = PathOram::new(OramConfig::small_for_tests(128), 4);
        let mut b = PathOram::new(OramConfig::small_for_tests(128), 4);
        for addr in [5u64, 77, 5, 100] {
            let via_driver = a
                .try_access_block(BlockAddr(addr), AccessKind::Read)
                .unwrap();
            let mut machine = AccessMachine::new(AccessRequest {
                addr: BlockAddr(addr),
                kind: AccessKind::Read,
            });
            let stepped = loop {
                if let Some(done) = machine.step(&mut b).unwrap() {
                    break done.report;
                }
            };
            assert_eq!(via_driver, stepped);
        }
        assert_eq!(a.oram_stats(), b.oram_stats());
    }

    #[test]
    #[should_panic(expected = "stepped after completion")]
    fn stepping_done_machine_panics() {
        let mut oram = PathOram::new(OramConfig::small_for_tests(64), 2);
        let mut machine = AccessMachine::new(AccessRequest {
            addr: BlockAddr(0),
            kind: AccessKind::Read,
        });
        while machine.step(&mut oram).unwrap().is_none() {}
        let _ = machine.step(&mut oram);
    }

    #[test]
    fn attached_sink_sees_the_access_lifecycle() {
        use proram_obs::Obs;

        let mut oram = PathOram::new(OramConfig::small_for_tests(64), 9);
        oram.attach_obs_handle(Obs::ring(1024));
        let report = oram
            .try_access_block(BlockAddr(3), AccessKind::Read)
            .unwrap();
        let events = oram.obs().events();
        assert!(matches!(
            events.first(),
            Some(ObsEvent::AccessIssued {
                addr: 3,
                write: false
            })
        ));
        // One StageEnter per pipeline stage, in order.
        let stages: Vec<StageKind> = events
            .iter()
            .filter_map(|e| match e {
                ObsEvent::StageEnter { stage, .. } => Some(*stage),
                _ => None,
            })
            .collect();
        assert_eq!(
            stages,
            vec![
                StageKind::ResolvePosmap,
                StageKind::PathFetch,
                StageKind::DecryptVerify,
                StageKind::StashUpdate,
                StageKind::WriteBack,
                StageKind::Evict,
            ]
        );
        let retired = events
            .iter()
            .find_map(|e| match *e {
                ObsEvent::AccessRetired { latency, .. } => Some(latency),
                _ => None,
            })
            .expect("access retired");
        assert_eq!(retired, report.latency);
        // The per-stage profile mirrors the report's attribution.
        let profile = oram.obs().profile_snapshot();
        assert_eq!(profile.cycles(StageKind::PathFetch), report.stages.fetch);
        assert_eq!(
            profile.cycles(StageKind::ResolvePosmap),
            report.stages.posmap
        );
    }

    #[test]
    fn detached_oram_emits_nothing() {
        let mut oram = PathOram::new(OramConfig::small_for_tests(64), 9);
        oram.try_access_block(BlockAddr(3), AccessKind::Read)
            .unwrap();
        assert!(!oram.obs().is_enabled());
        assert_eq!(oram.obs().event_count(), 0);
    }

    #[test]
    fn stage_cycles_total_sums_fields() {
        let s = StageCycles {
            posmap: 10,
            fetch: 20,
            evict: 30,
            backoff: 5,
        };
        assert_eq!(s.total(), 65);
    }
}
