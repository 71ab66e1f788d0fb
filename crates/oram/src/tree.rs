//! The ORAM binary tree.
//!
//! A complete binary tree of [`Bucket`]s in heap layout: level 0 is the
//! root, level `L` the leaves (paper Figure 1). The path to leaf `s` is the
//! set of buckets whose level-`l` ancestor index matches `s`'s.
//! The tree may hold only a heap-order prefix of its buckets (the on-chip
//! treetop, when the rest live only in [`crate::EncryptedStore`]).

use crate::addr::Leaf;
use crate::bucket::Bucket;

/// The binary-tree bucket store.
///
/// # Examples
///
/// ```
/// use proram_oram::{OramTree, Leaf};
///
/// let tree = OramTree::new(4, 3); // 4 levels => 8 leaves, Z = 3
/// assert_eq!(tree.num_leaves(), 8);
/// assert_eq!(tree.path_indices(Leaf(5)).count(), 4);
/// ```
#[derive(Debug, Clone)]
pub struct OramTree {
    levels: u32,
    z: usize,
    /// The resident buckets: heap indices `0..buckets.len()`.
    buckets: Vec<Bucket>,
}

impl OramTree {
    /// Creates an empty tree with `levels` levels (root through leaves)
    /// and `z` slots per bucket.
    ///
    /// # Panics
    ///
    /// Panics if `levels` is zero or large enough to overflow leaf labels
    /// (more than 31), or `z` is zero.
    pub fn new(levels: u32, z: usize) -> Self {
        Self::with_resident(levels, z, usize::MAX)
    }

    /// [`OramTree::new`] holding only the first `resident` buckets in
    /// heap order (all of them if `resident` exceeds the bucket count).
    pub(crate) fn with_resident(levels: u32, z: usize, resident: usize) -> Self {
        assert!((1..=31).contains(&levels), "levels must be in 1..=31");
        assert!(z > 0, "Z must be positive");
        let num_buckets = (1usize << levels) - 1;
        let buckets = vec![Bucket::new(z); num_buckets.min(resident)];
        OramTree { levels, z, buckets }
    }

    /// Number of levels (root through leaves). The paper's `L` is
    /// `levels - 1`.
    pub fn levels(&self) -> u32 {
        self.levels
    }

    /// Bucket slot count `Z`.
    pub fn z(&self) -> usize {
        self.z
    }

    /// Number of leaves, `2^(levels-1)`.
    pub fn num_leaves(&self) -> u32 {
        1 << (self.levels - 1)
    }

    /// Number of buckets, `2^levels - 1`.
    pub fn num_buckets(&self) -> usize {
        (1usize << self.levels) - 1
    }

    /// Number of buckets held: heap indices below this are resident.
    pub fn resident_buckets(&self) -> usize {
        self.buckets.len()
    }

    /// Total real-block capacity, `Z * num_buckets`.
    pub fn capacity(&self) -> usize {
        self.z * self.num_buckets()
    }

    /// Heap index of the bucket at `level` on the path to `leaf`.
    ///
    /// # Panics
    ///
    /// Panics if `level >= levels` or `leaf` is out of range.
    pub fn bucket_index(&self, leaf: Leaf, level: u32) -> usize {
        assert!(level < self.levels, "level {level} out of range");
        assert!(leaf.0 < self.num_leaves(), "{leaf} out of range");
        let prefix = leaf.0 >> (self.levels - 1 - level);
        ((1u32 << level) - 1 + prefix) as usize
    }

    /// Heap indices of the buckets on the path to `leaf`, root first.
    ///
    /// The iterator owns the tree geometry rather than borrowing the tree,
    /// so callers may mutate buckets while walking the path — the hot path
    /// in [`crate::eviction`] consumes it directly instead of collecting
    /// indices into a temporary `Vec`.
    ///
    /// # Panics
    ///
    /// Panics if `leaf` is out of range.
    pub fn path_indices(&self, leaf: Leaf) -> PathIndices {
        assert!(leaf.0 < self.num_leaves(), "{leaf} out of range");
        PathIndices {
            leaf: leaf.0,
            leaf_level: self.levels - 1,
            front: 0,
            back: self.levels,
        }
    }

    /// Borrows the (resident) bucket at a heap index.
    pub fn bucket(&self, index: usize) -> &Bucket {
        &self.buckets[index]
    }

    /// Mutably borrows the (resident) bucket at a heap index.
    pub fn bucket_mut(&mut self, index: usize) -> &mut Bucket {
        &mut self.buckets[index]
    }

    /// Deepest level (0-based) shared by the paths to `a` and `b`.
    ///
    /// A block mapped to leaf `a` may be stored in any bucket on the path
    /// to `b` at levels `0..=common_level(a, b)` — the quantity the greedy
    /// write-back in [`crate::eviction`] maximizes.
    pub fn common_level(&self, a: Leaf, b: Leaf) -> u32 {
        let diff = a.0 ^ b.0;
        let leaf_bits = self.levels - 1;
        if diff == 0 {
            leaf_bits
        } else {
            leaf_bits - (32 - diff.leading_zeros())
        }
    }

    /// Number of real blocks currently held in the resident buckets.
    pub fn occupancy(&self) -> usize {
        self.buckets.iter().map(Bucket::len).sum()
    }
}

/// Owned iterator over the bucket heap indices of one path, root first.
///
/// Returned by [`OramTree::path_indices`]; holds no borrow of the tree.
#[derive(Debug, Clone)]
pub struct PathIndices {
    leaf: u32,
    /// Level of the leaf bucket (`levels - 1`).
    leaf_level: u32,
    /// Next level to yield from the front.
    front: u32,
    /// One past the last level to yield from the back.
    back: u32,
}

impl PathIndices {
    #[inline]
    fn index_at(&self, level: u32) -> usize {
        let prefix = self.leaf >> (self.leaf_level - level);
        ((1u32 << level) - 1 + prefix) as usize
    }
}

impl Iterator for PathIndices {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        if self.front >= self.back {
            return None;
        }
        let idx = self.index_at(self.front);
        self.front += 1;
        Some(idx)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = (self.back - self.front) as usize;
        (n, Some(n))
    }
}

impl DoubleEndedIterator for PathIndices {
    #[inline]
    fn next_back(&mut self) -> Option<usize> {
        if self.front >= self.back {
            return None;
        }
        self.back -= 1;
        Some(self.index_at(self.back))
    }
}

impl ExactSizeIterator for PathIndices {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::Block;
    use proram_mem::BlockAddr;

    #[test]
    fn geometry() {
        let t = OramTree::new(4, 3);
        assert_eq!(t.num_leaves(), 8);
        assert_eq!(t.num_buckets(), 15);
        assert_eq!(t.capacity(), 45);
        assert_eq!(t.levels(), 4);
        assert_eq!(t.z(), 3);
    }

    #[test]
    fn path_indices_match_figure_1() {
        // 4-level tree, path to leaf 5: root(0), then right(2), then
        // left-of-right(5), then leaf index 5 => heap 7 + 5 = 12.
        let t = OramTree::new(4, 3);
        let path: Vec<usize> = t.path_indices(Leaf(5)).collect();
        assert_eq!(path, vec![0, 2, 5, 12]);
    }

    #[test]
    fn path_indices_iterate_both_ways() {
        let t = OramTree::new(4, 3);
        let fwd: Vec<usize> = t.path_indices(Leaf(5)).collect();
        let mut rev: Vec<usize> = t.path_indices(Leaf(5)).rev().collect();
        rev.reverse();
        assert_eq!(fwd, rev);
        assert_eq!(t.path_indices(Leaf(5)).len(), 4);
    }

    #[test]
    fn path_indices_do_not_borrow_the_tree() {
        // The owned iterator permits bucket mutation mid-walk — the shape
        // the eviction hot path relies on.
        let mut t = OramTree::new(4, 2);
        for idx in t.path_indices(Leaf(3)) {
            t.bucket_mut(idx)
                .push(Block::opaque(BlockAddr(idx as u64), Leaf(3)));
        }
        assert_eq!(t.occupancy(), 4);
    }

    #[test]
    fn paths_share_the_root() {
        let t = OramTree::new(5, 3);
        for leaf in 0..t.num_leaves() {
            assert_eq!(t.path_indices(Leaf(leaf)).next(), Some(0));
        }
    }

    #[test]
    fn sibling_leaves_share_all_but_last() {
        let t = OramTree::new(4, 3);
        let a: Vec<usize> = t.path_indices(Leaf(6)).collect();
        let b: Vec<usize> = t.path_indices(Leaf(7)).collect();
        assert_eq!(a[..3], b[..3]);
        assert_ne!(a[3], b[3]);
    }

    #[test]
    fn common_level_examples() {
        let t = OramTree::new(4, 3); // leaf bits = 3
        assert_eq!(t.common_level(Leaf(5), Leaf(5)), 3);
        assert_eq!(t.common_level(Leaf(6), Leaf(7)), 2);
        assert_eq!(t.common_level(Leaf(0), Leaf(7)), 0);
        assert_eq!(t.common_level(Leaf(4), Leaf(6)), 1);
    }

    #[test]
    fn common_level_is_symmetric() {
        let t = OramTree::new(6, 3);
        for a in 0..t.num_leaves() {
            for b in 0..t.num_leaves() {
                assert_eq!(
                    t.common_level(Leaf(a), Leaf(b)),
                    t.common_level(Leaf(b), Leaf(a))
                );
            }
        }
    }

    #[test]
    fn buckets_store_blocks() {
        let mut t = OramTree::new(3, 2);
        let idx = t.bucket_index(Leaf(2), 2);
        t.bucket_mut(idx).push(Block::opaque(BlockAddr(1), Leaf(2)));
        assert_eq!(t.occupancy(), 1);
        assert_eq!(t.bucket(idx).len(), 1);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_level_panics() {
        OramTree::new(3, 2).bucket_index(Leaf(0), 3);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_leaf_panics() {
        OramTree::new(3, 2).bucket_index(Leaf(4), 0);
    }

    #[test]
    fn partial_tree_keeps_the_geometry() {
        let t = OramTree::with_resident(4, 3, 3);
        assert_eq!(t.num_buckets(), 15);
        assert_eq!(t.resident_buckets(), 3);
        assert_eq!(t.num_leaves(), 8);
        assert_eq!(OramTree::new(4, 3).resident_buckets(), 15);
    }

    #[test]
    fn single_level_tree() {
        let t = OramTree::new(1, 2);
        assert_eq!(t.num_leaves(), 1);
        assert_eq!(t.num_buckets(), 1);
        assert_eq!(t.common_level(Leaf(0), Leaf(0)), 0);
    }
}
