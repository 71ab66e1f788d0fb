//! Behavior-identity goldens for the functional treetop cache and the
//! subtree-packed store layout.
//!
//! Treetop caching keeps the top `treetop_levels` buckets in trusted
//! on-chip memory, so a path access only serializes/encrypts/verifies
//! the off-chip suffix. That is a *physical* optimization: path
//! selection, eviction order, stash behavior and the adversary-visible
//! leaf trace must stay byte-identical to the uncached run — only the
//! DRAM byte accounting shrinks, by exactly the cached levels' share.
//! The subtree-packed layout is a pure address permutation of the
//! off-chip store and must be invisible to *every* observable.

mod common;

use common::{
    assert_golden, golden_config, replay_cfg, RunDigest, GOLDEN_PAYLOADS, ORAM_SEED, TREE_BLOCKS,
};
use proram_mem::{AccessKind, BlockAddr};
use proram_oram::{OramConfig, PathOram, TreeLayout};
use proram_stats::{Rng64, Xoshiro256};

/// Tree levels of the golden 256-block configuration.
const GOLDEN_LEVELS: u64 = 8;

fn treetop_config(treetop_levels: u32, layout: TreeLayout) -> OramConfig {
    golden_config(true)
        .to_builder()
        .treetop_levels(treetop_levels)
        .tree_layout(layout)
        .build()
        .expect("valid treetop configuration")
}

/// `treetop_levels = 0` with the flat layout is the pre-treetop code
/// path: it must still reproduce the seed goldens bit for bit.
#[test]
fn treetop_zero_flat_matches_the_goldens() {
    assert_golden(
        &replay_cfg(treetop_config(0, TreeLayout::Flat)),
        &GOLDEN_PAYLOADS,
    );
}

/// Treetop caching changes only the DRAM byte accounting: every logical
/// observable of the golden run — trace hash included — matches the
/// uncached digest, and `bytes_moved` shrinks by exactly the cached
/// levels' share of each path.
#[test]
fn treetop_levels_change_only_the_byte_accounting() {
    let base = replay_cfg(treetop_config(0, TreeLayout::Flat));
    for treetop in [1u32, 2] {
        let d = replay_cfg(treetop_config(treetop, TreeLayout::Flat));
        // bytes_moved is linear in the off-chip level count.
        assert_eq!(
            d.bytes_moved * GOLDEN_LEVELS,
            base.bytes_moved * (GOLDEN_LEVELS - u64::from(treetop)),
            "treetop {treetop} must save exactly its levels' bytes"
        );
        let normalized = RunDigest {
            bytes_moved: base.bytes_moved,
            ..d
        };
        assert_eq!(
            normalized, base,
            "treetop {treetop} changed a logical observable"
        );
    }
}

/// The subtree-packed layout is a bijective relabeling of the off-chip
/// store: at any packing height, every observable — byte accounting
/// included — matches the flat layout exactly.
#[test]
fn subtree_packed_layout_is_invisible_at_every_height() {
    for (treetop, heights) in [(0u32, vec![1u32, 2, 4, 8]), (2, vec![1, 2, 3, 6])] {
        let flat = replay_cfg(treetop_config(treetop, TreeLayout::Flat));
        for height in heights {
            let packed = replay_cfg(treetop_config(
                treetop,
                TreeLayout::SubtreePacked { height },
            ));
            assert_eq!(
                packed, flat,
                "subtree_packed({height}) at treetop {treetop} diverged from flat"
            );
        }
    }
}

/// The encrypted store holds exactly the off-chip buckets — the treetop
/// has no ciphertext image, so neither the fault injector nor any other
/// store-level adversary can reach it.
#[test]
fn store_holds_only_off_chip_buckets() {
    for treetop in [0u32, 1, 2, 4] {
        let oram = PathOram::new(treetop_config(treetop, TreeLayout::Flat), ORAM_SEED);
        let layout = oram.store_layout();
        assert_eq!(layout.treetop_levels(), treetop);
        assert_eq!(
            oram.storage().expect("payloads on").num_buckets(),
            layout.num_off_chip(),
            "store must be sized to the off-chip suffix"
        );
        // Treetop hit accounting: cached levels are charged per access.
        let mut oram = oram;
        let mut rng = Xoshiro256::seed_from(3);
        for _ in 0..50 {
            oram.try_access_block(BlockAddr(rng.next_below(TREE_BLOCKS)), AccessKind::Read)
                .unwrap();
        }
        let s = oram.oram_stats();
        if treetop == 0 {
            assert_eq!(s.treetop_hits, 0);
            assert_eq!(s.treetop_bytes_saved, 0);
        } else {
            assert_eq!(s.treetop_hits, s.total_path_accesses() * u64::from(treetop));
            assert!(s.treetop_bytes_saved > 0);
        }
    }
}

/// The golden run with `treetop_levels = 2`, where every off-chip bucket
/// is decrypted and authenticated on every read, reproduces a pinned
/// whole digest: the on-chip levels skip decryption without changing
/// any observable but the byte accounting (6/8 of the uncached path).
#[test]
fn treetop_two_with_verified_image_matches_its_pinned_digest() {
    assert_eq!(
        replay_cfg(treetop_config(2, TreeLayout::Flat)),
        RunDigest {
            logical: 2000,
            data_paths: 2000,
            posmap_paths: 2210,
            background: 0,
            bytes_moved: 29_099_520,
            hist_hash: 0x7e34_7ba1_61c4_bef3,
            hist_total: 4210,
            trace_hash: 0xb5a0_c950_fe1e_8801,
            trace_events: 4210,
            trace_dropped: 0,
            stash_peak: 19,
            allocs_avoided: 4210,
        }
    );
}
