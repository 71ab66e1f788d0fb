//! Position-map entries.
//!
//! Each position-map block stores the leaf labels of
//! `entries_per_block` consecutive child blocks, "along with their merge
//! and break bits" (paper Section 4.1, Figure 4). The prefetch bit is also
//! kept here (Section 4.5.1: "The merge bit, break bit and the prefetch
//! bit are stored in the Pos-Map blocks").
//!
//! The bits are opaque to this crate; the super-block schemes in
//! `proram-core` reconstruct merge/break counters from them. Because the
//! paper leaves exact counter widths underspecified (a size-2 super
//! block's break counter must hold the initial value 4 in 2 physical
//! bits), we store a small signed counter field per entry and let the
//! scheme clamp it to a configurable width — see DESIGN.md, "Design
//! liberties".

use crate::addr::Leaf;

/// One position-map entry: the leaf label of a child block plus the
/// per-block bits used by the dynamic super-block scheme.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PosEntry {
    /// Leaf the child block is mapped to.
    pub leaf: Leaf,
    /// Merge-counter contribution of this block (paper's merge bits).
    pub merge: i16,
    /// Break-counter contribution of this block (paper's break bits).
    pub brk: i16,
    /// Set while the block sits in the LLC as an unconsumed prefetch.
    pub prefetch: bool,
}

impl PosEntry {
    /// Creates an entry mapping the child to `leaf`, all bits clear.
    pub fn new(leaf: Leaf) -> Self {
        PosEntry {
            leaf,
            merge: 0,
            brk: 0,
            prefetch: false,
        }
    }

    /// Writes the entry's little-endian encoding into the first
    /// [`crate::storage::ENTRY_BYTES`] bytes of `dst` — the one format of
    /// bucket slots and checkpoint records.
    pub(crate) fn encode(&self, dst: &mut [u8]) {
        dst[0..4].copy_from_slice(&self.leaf.0.to_le_bytes());
        dst[4..6].copy_from_slice(&self.merge.to_le_bytes());
        dst[6..8].copy_from_slice(&self.brk.to_le_bytes());
        dst[8] = u8::from(self.prefetch);
    }

    /// Decodes an entry written by [`Self::encode`].
    pub(crate) fn decode(src: &[u8]) -> PosEntry {
        let word = |r: std::ops::Range<usize>| -> [u8; 2] { src[r].try_into().expect("2 bytes") };
        PosEntry {
            leaf: Leaf(u32::from_le_bytes(src[0..4].try_into().expect("4 bytes"))),
            merge: i16::from_le_bytes(word(4..6)),
            brk: i16::from_le_bytes(word(6..8)),
            prefetch: src[8] != 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_clears_bits() {
        let e = PosEntry::new(Leaf(12));
        assert_eq!(e.leaf, Leaf(12));
        assert_eq!(e.merge, 0);
        assert_eq!(e.brk, 0);
        assert!(!e.prefetch);
    }

    #[test]
    fn default_is_leaf_zero() {
        let e = PosEntry::default();
        assert_eq!(e.leaf, Leaf(0));
    }
}
