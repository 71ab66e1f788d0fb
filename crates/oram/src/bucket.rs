//! Tree buckets.

use crate::block::Block;
use proram_mem::BlockAddr;

/// One node of the ORAM tree: up to `Z` real blocks.
///
/// Slots not holding a real block are *dummy blocks* on the wire; the
/// functional model simply leaves them empty (the encryption layer in
/// [`crate::storage`] serializes dummies explicitly so ciphertext sizes
/// are position-independent).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Bucket {
    slots: Vec<Block>,
    capacity: usize,
}

impl Bucket {
    /// Creates an empty bucket with `z` slots.
    ///
    /// # Panics
    ///
    /// Panics if `z` is zero.
    pub fn new(z: usize) -> Self {
        assert!(z > 0, "bucket capacity must be positive");
        Bucket {
            slots: Vec::with_capacity(z),
            capacity: z,
        }
    }

    /// Slot capacity `Z`.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of real blocks held.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// `true` if the bucket holds no real blocks.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// `true` if no slot is free.
    pub fn is_full(&self) -> bool {
        self.slots.len() == self.capacity
    }

    /// Inserts a block.
    ///
    /// # Panics
    ///
    /// Panics if the bucket is full.
    pub fn push(&mut self, block: Block) {
        assert!(!self.is_full(), "bucket overflow (Z={})", self.capacity);
        self.slots.push(block);
    }

    /// Removes and yields all blocks (the path-read operation).
    ///
    /// Keeps the slot allocation so the next write-back into this bucket
    /// does not reallocate — buckets on hot paths are drained and refilled
    /// millions of times.
    pub fn drain(&mut self) -> std::vec::Drain<'_, Block> {
        self.slots.drain(..)
    }

    /// Removes the block with the given address, if present.
    pub fn take(&mut self, addr: BlockAddr) -> Option<Block> {
        let pos = self.slots.iter().position(|b| b.addr == addr)?;
        Some(self.slots.swap_remove(pos))
    }

    /// Iterates over resident blocks.
    pub fn iter(&self) -> impl Iterator<Item = &Block> {
        self.slots.iter()
    }

    /// The resident blocks, in slot order.
    pub(crate) fn as_slice(&self) -> &[Block] {
        &self.slots
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::Leaf;

    fn blk(a: u64) -> Block {
        Block::opaque(BlockAddr(a), Leaf(0))
    }

    #[test]
    fn push_and_drain() {
        let mut b = Bucket::new(3);
        b.push(blk(1));
        b.push(blk(2));
        assert_eq!(b.len(), 2);
        assert!(!b.is_full());
        let blocks: Vec<Block> = b.drain().collect();
        assert_eq!(blocks.len(), 2);
        assert!(b.is_empty());
        // Draining keeps the slot allocation for the refill.
        assert!(b.slots.capacity() >= 2);
    }

    #[test]
    #[should_panic(expected = "bucket overflow")]
    fn overflow_panics() {
        let mut b = Bucket::new(1);
        b.push(blk(1));
        b.push(blk(2));
    }

    #[test]
    fn take_by_address() {
        let mut b = Bucket::new(4);
        b.push(blk(1));
        b.push(blk(2));
        assert_eq!(b.take(BlockAddr(1)).unwrap().addr, BlockAddr(1));
        assert!(b.take(BlockAddr(1)).is_none());
        assert_eq!(b.len(), 1);
    }

    #[test]
    fn capacity_reported() {
        let b = Bucket::new(4);
        assert_eq!(b.capacity(), 4);
        assert!(b.is_empty());
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_panics() {
        Bucket::new(0);
    }
}
