//! The commit journal and sealed checkpoint records.
//!
//! The crash-consistency protocol (DESIGN.md section 15) makes every
//! ORAM access all-or-nothing with three durable artifacts, all held in
//! the untrusted store's journal area ([`TxnJournal`]):
//!
//! * **Undo entries** ([`UndoEntry`]): before a bucket's home location
//!   is overwritten for the first time in a transaction, its old raw
//!   image and trusted version counter are journaled. Rolling the
//!   journal back restores the exact pre-transaction byte image. The
//!   entries and their image buffers outlive the transaction and are
//!   overwritten in place by the next one.
//! * **Sealed checkpoints** ([`Checkpoint`]): the controller's volatile
//!   state — stash, PLB, on-chip position-map top table, treetop-cached
//!   buckets and RNG state — serialized and MAC-sealed, bound to the
//!   epoch in which it is current. The journal area always holds the
//!   last *committed* record. Opening a transaction moves it, unsealed
//!   again by nobody, into the checkpoint-A slot; the commit seals
//!   checkpoint B from live state at the epoch it commits into, and B
//!   becomes the committed record once the flip lands. So one seal per
//!   access covers both ends, and recovery adopts A after a rollback and
//!   B after a replay.
//! * **The epoch header**: a trusted monotonic counter bound by a MAC.
//!   The commit "flips" it after all home writes land; recovery compares
//!   it against the journal's begin epoch to decide rollback (not yet
//!   flipped) versus replay (flipped, journal not yet discarded).
//!
//! Everything here is plain serialization plus one MAC; the protocol
//! logic lives in [`crate::storage`] (journaling, flip) and
//! [`crate::controller`] (`PathOram::recover`).

use crate::addr::Leaf;
use crate::block::{Block, Payload};
use crate::crypto::Mac;
use crate::posmap::PosEntry;
use crate::storage::ENTRY_BYTES;
use proram_mem::BlockAddr;

/// Domain-separation constant folded into checkpoint MACs so a sealed
/// checkpoint can never be confused with a sealed slot or epoch header.
const CHECKPOINT_DOMAIN: u64 = 0x4350_4B54_5052_4F52; // "CPKTPROR"

/// Domain-separation constant for the epoch header MAC.
pub(crate) const EPOCH_DOMAIN: u64 = 0x4550_4F43_5052_4F52; // "EPOCPROR"

/// Encoded bytes of a block before its payload: address, leaf, hit bit
/// and payload kind.
const BLOCK_HEADER_BYTES: usize = 8 + 4 + 1 + 1;

/// One first-touch undo record: the raw store image and trusted version
/// a bucket had before the current transaction first overwrote it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct UndoEntry {
    /// Physical off-chip store index of the bucket. Treetop buckets are
    /// on-chip and never journaled — they ride in the sealed
    /// checkpoints instead.
    pub index: usize,
    /// The full pre-transaction ciphertext image (header + body).
    pub image: Vec<u8>,
    /// The trusted version counter before the transaction.
    pub version: u64,
}

/// The store's durable journal area: the last committed checkpoint and,
/// while a transaction is open, its undo entries and checkpoints A and B.
///
/// Every buffer here is recycled: undo entries past the open
/// transaction's are kept with their image buffers for the next one,
/// and the record a commit replaces becomes the buffer the next
/// checkpoint B is sealed into.
#[derive(Debug, Clone, Default)]
pub(crate) struct TxnJournal {
    /// `true` exactly while a commit transaction is open (between
    /// [`Self::begin`] and [`Self::close`]).
    open: bool,
    /// Epoch at transaction begin; recovery compares the store's epoch
    /// against this to pick rollback vs replay.
    pub begin_epoch: u64,
    /// Undo entries: the first `live` are the open transaction's, in
    /// write order; the rest are buffers kept from earlier ones.
    entries: Vec<UndoEntry>,
    /// Undo entries written by the open transaction.
    live: usize,
    /// The last committed checkpoint, sealed at the current epoch. Empty
    /// while a transaction is open (it is checkpoint A then) and while
    /// the protocol is disarmed.
    committed: Vec<u8>,
    /// Checkpoint A (pre-access state): the committed record, moved here
    /// unchanged at begin.
    pub checkpoint_a: Vec<u8>,
    /// Checkpoint B (post-access state), sealed at the epoch it commits
    /// into and written during commit just before the flip.
    pub checkpoint_b: Option<Vec<u8>>,
    /// The buffer of the record the last commit or recovery replaced,
    /// handed out to seal the next checkpoint B into.
    spare: Vec<u8>,
}

impl TxnJournal {
    /// Whether a transaction is open.
    pub fn is_open(&self) -> bool {
        self.open
    }

    /// Installs the first committed record (no transaction has run).
    pub fn install(&mut self, record: Vec<u8>) {
        assert!(!self.open, "a transaction is open");
        self.committed = record;
    }

    /// The last committed checkpoint record.
    pub fn committed(&self) -> &[u8] {
        &self.committed
    }

    /// Opens a transaction at `epoch`: the committed record becomes
    /// checkpoint A as it is, without a seal or a copy.
    ///
    /// # Panics
    ///
    /// Panics if a transaction is already open.
    pub fn begin(&mut self, epoch: u64) {
        assert!(!self.open, "transaction already open");
        self.open = true;
        self.begin_epoch = epoch;
        self.live = 0;
        self.checkpoint_a = std::mem::take(&mut self.committed);
    }

    /// A buffer to seal checkpoint B into (the one the last commit or
    /// recovery freed; its contents are garbage).
    pub fn take_spare(&mut self) -> Vec<u8> {
        std::mem::take(&mut self.spare)
    }

    /// `true` if `index` already has an undo entry this transaction.
    pub fn touched(&self, index: usize) -> bool {
        self.undo_entries().iter().any(|e| e.index == index)
    }

    /// The open transaction's undo entries, in write order.
    pub fn undo_entries(&self) -> &[UndoEntry] {
        &self.entries[..self.live]
    }

    /// Appends an undo entry, overwriting a kept buffer when one is left.
    pub fn record(&mut self, index: usize, image: &[u8], version: u64) {
        match self.entries.get_mut(self.live) {
            Some(entry) => {
                entry.index = index;
                entry.version = version;
                entry.image.clear();
                entry.image.extend_from_slice(image);
            }
            None => self.entries.push(UndoEntry {
                index,
                image: image.to_vec(),
                version,
            }),
        }
        self.live += 1;
    }

    /// Closes the open transaction. `keep_b` (a commit, or a replay
    /// after the flip) makes checkpoint B the committed record;
    /// otherwise (a rollback) checkpoint A stays committed. The other
    /// record's buffer becomes the spare.
    ///
    /// # Panics
    ///
    /// Panics if `keep_b` is set and no checkpoint B was written.
    pub fn close(&mut self, keep_b: bool) {
        let a = std::mem::take(&mut self.checkpoint_a);
        let b = self.checkpoint_b.take();
        if keep_b {
            self.committed = b.expect("a flipped transaction always carries checkpoint B");
            self.spare = a;
        } else {
            self.committed = a;
            if let Some(b) = b {
                self.spare = b;
            }
        }
        self.open = false;
        self.live = 0;
    }
}

/// A decoded controller checkpoint: everything volatile the recovery
/// path must restore. The *off-chip* tree buckets are deliberately
/// absent — they are rebuilt by decrypting and re-authenticating the
/// (rolled-back or replayed) store image, which is what makes recovery
/// honest about what survives a crash. The on-chip treetop buckets have
/// no encrypted image at all, so their plaintext contents ride inside
/// the sealed record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Checkpoint {
    /// The epoch in which this record is current: the begin epoch for
    /// checkpoint A, the epoch it commits into for checkpoint B.
    pub epoch: u64,
    /// Controller RNG state (leaf remaps and eviction choices replay
    /// identically after a rollback).
    pub rng: [u64; 4],
    /// The on-chip position-map top table.
    pub top: Vec<PosEntry>,
    /// Stash contents, in address order.
    pub stash: Vec<Block>,
    /// PLB contents, MRU first.
    pub plb: Vec<Block>,
    /// On-chip treetop bucket contents, heap order `0..treetop_buckets`.
    /// Checkpoint A carries the pre-access treetop (adopted on
    /// rollback); checkpoint B the post-access treetop (adopted on
    /// replay).
    pub treetop: Vec<Vec<Block>>,
}

impl Checkpoint {
    /// Serializes and MAC-seals the checkpoint into one record.
    #[cfg(test)]
    pub fn seal(&self, mac: &Mac) -> Vec<u8> {
        let mut out = Vec::new();
        CheckpointView {
            epoch: self.epoch,
            rng: self.rng,
            top: &self.top,
            stash: self.stash.iter(),
            plb: self.plb.iter(),
            treetop: self.treetop.iter().map(Vec::as_slice),
        }
        .seal_into(&mut out, mac);
        out
    }
    /// Verifies the seal and decodes a checkpoint record.
    ///
    /// Returns `None` on a truncated record or MAC mismatch — a torn or
    /// tampered checkpoint must never be adopted.
    pub fn unseal(bytes: &[u8], mac: &Mac) -> Option<Checkpoint> {
        if bytes.len() < 8 + 32 + 8 {
            return None;
        }
        let (body, tag_bytes) = bytes.split_at(bytes.len() - 8);
        let mut r = Reader { buf: body, pos: 0 };
        let epoch = r.u64()?;
        let mut rng = [0u64; 4];
        for w in &mut rng {
            *w = r.u64()?;
        }
        let tag = u64::from_le_bytes(tag_bytes.try_into().ok()?);
        if mac.tag_parts(&[CHECKPOINT_DOMAIN, epoch], &[body]) != tag {
            return None;
        }
        let top_len = r.len()?;
        let mut top = Vec::with_capacity(top_len);
        for _ in 0..top_len {
            top.push(decode_entry(&mut r)?);
        }
        let stash_len = r.len()?;
        let mut stash = Vec::with_capacity(stash_len);
        for _ in 0..stash_len {
            stash.push(decode_block(&mut r)?);
        }
        let plb_len = r.len()?;
        let mut plb = Vec::with_capacity(plb_len);
        for _ in 0..plb_len {
            plb.push(decode_block(&mut r)?);
        }
        let treetop_len = r.len()?;
        let mut treetop = Vec::with_capacity(treetop_len);
        for _ in 0..treetop_len {
            let bucket_len = r.len()?;
            let mut bucket = Vec::with_capacity(bucket_len);
            for _ in 0..bucket_len {
                bucket.push(decode_block(&mut r)?);
            }
            treetop.push(bucket);
        }
        if r.pos != body.len() {
            return None; // trailing garbage
        }
        Some(Checkpoint {
            epoch,
            rng,
            top,
            stash,
            plb,
            treetop,
        })
    }
}

/// The borrowed parts of one checkpoint record, in record order: the
/// encoder behind both [`Checkpoint::seal`] and the controller's seal
/// straight from its live structures.
pub(crate) struct CheckpointView<'a, S, P, T> {
    /// The epoch in which the record is current.
    pub epoch: u64,
    /// Controller RNG state.
    pub rng: [u64; 4],
    /// The on-chip position-map top table.
    pub top: &'a [PosEntry],
    /// Stash blocks, in address order.
    pub stash: S,
    /// PLB blocks, MRU first.
    pub plb: P,
    /// Treetop buckets, heap order.
    pub treetop: T,
}

impl<'a, S, P, T> CheckpointView<'a, S, P, T>
where
    S: ExactSizeIterator<Item = &'a Block>,
    P: ExactSizeIterator<Item = &'a Block>,
    T: ExactSizeIterator<Item = &'a [Block]>,
{
    /// Serializes and MAC-seals the record into `out`, replacing its
    /// contents but keeping its capacity. Fixed-size fields are written
    /// in place into space reserved once per entry.
    pub fn seal_into(self, out: &mut Vec<u8>, mac: &Mac) {
        out.clear();
        for w in [self.epoch].into_iter().chain(self.rng) {
            out.extend_from_slice(&w.to_le_bytes());
        }
        push_len(out, self.top.len());
        encode_entries(out, self.top);
        encode_blocks(out, self.stash);
        encode_blocks(out, self.plb);
        push_len(out, self.treetop.len());
        for bucket in self.treetop {
            encode_blocks(out, bucket.iter());
        }
        let tag = mac.tag_parts(&[CHECKPOINT_DOMAIN, self.epoch], &[out]);
        out.extend_from_slice(&tag.to_le_bytes());
    }
}

fn push_len(out: &mut Vec<u8>, len: usize) {
    out.extend_from_slice(
        &u32::try_from(len)
            .expect("checkpoint section length")
            .to_le_bytes(),
    );
}

/// Encodes a length-prefixed section of blocks.
fn encode_blocks<'a>(out: &mut Vec<u8>, blocks: impl ExactSizeIterator<Item = &'a Block>) {
    push_len(out, blocks.len());
    for b in blocks {
        encode_block(out, b);
    }
}

/// Encodes `entries` (without a length prefix), each in place.
fn encode_entries(out: &mut Vec<u8>, entries: &[PosEntry]) {
    let start = out.len();
    out.resize(start + entries.len() * ENTRY_BYTES, 0);
    for (dst, e) in out[start..].chunks_exact_mut(ENTRY_BYTES).zip(entries) {
        e.encode(dst);
    }
}

fn encode_block(out: &mut Vec<u8>, b: &Block) {
    let start = out.len();
    out.resize(start + BLOCK_HEADER_BYTES, 0);
    let dst = &mut out[start..];
    dst[0..8].copy_from_slice(&b.addr.0.to_le_bytes());
    dst[8..12].copy_from_slice(&b.leaf.0.to_le_bytes());
    dst[12] = u8::from(b.hit);
    match &b.payload {
        Payload::Opaque => dst[13] = 0,
        Payload::Data(data) => {
            dst[13] = 1;
            push_len(out, data.len());
            out.extend_from_slice(data);
        }
        Payload::PosMap(entries) => {
            dst[13] = 2;
            push_len(out, entries.len());
            encode_entries(out, entries);
        }
    }
}

fn decode_entry(r: &mut Reader<'_>) -> Option<PosEntry> {
    Some(PosEntry::decode(r.bytes(ENTRY_BYTES)?))
}

fn decode_block(r: &mut Reader<'_>) -> Option<Block> {
    let addr = BlockAddr(r.u64()?);
    let leaf = Leaf(r.u32()?);
    let hit = r.u8()? != 0;
    let payload = match r.u8()? {
        0 => Payload::Opaque,
        1 => {
            let len = r.len()?;
            Payload::Data(r.bytes(len)?.to_vec().into_boxed_slice())
        }
        2 => {
            let len = r.len()?;
            let mut entries = Vec::with_capacity(len);
            for _ in 0..len {
                entries.push(decode_entry(r)?);
            }
            Payload::PosMap(entries.into_boxed_slice())
        }
        _ => return None,
    };
    Some(Block {
        addr,
        leaf,
        hit,
        payload,
    })
}

/// A bounds-checked little-endian cursor.
struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn bytes(&mut self, n: usize) -> Option<&'a [u8]> {
        let end = self.pos.checked_add(n)?;
        if end > self.buf.len() {
            return None;
        }
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Some(s)
    }

    fn u8(&mut self) -> Option<u8> {
        Some(self.bytes(1)?[0])
    }

    fn u32(&mut self) -> Option<u32> {
        Some(u32::from_le_bytes(self.bytes(4)?.try_into().ok()?))
    }

    fn u64(&mut self) -> Option<u64> {
        Some(u64::from_le_bytes(self.bytes(8)?.try_into().ok()?))
    }

    fn len(&mut self) -> Option<usize> {
        Some(self.u32()? as usize)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_checkpoint() -> Checkpoint {
        Checkpoint {
            epoch: 5,
            rng: [1, 2, 3, 4],
            top: vec![
                PosEntry {
                    leaf: Leaf(9),
                    merge: -3,
                    brk: 4,
                    prefetch: true,
                },
                PosEntry::new(Leaf(2)),
            ],
            stash: vec![
                Block::opaque(BlockAddr(7), Leaf(1)),
                Block::with_data(BlockAddr(8), Leaf(2), vec![0xAB; 16].into()),
            ],
            plb: vec![Block::posmap(
                BlockAddr(100),
                Leaf(3),
                vec![PosEntry::new(Leaf(5)), PosEntry::new(Leaf(6))].into(),
            )],
            treetop: vec![vec![Block::opaque(BlockAddr(11), Leaf(4))], vec![]],
        }
    }

    #[test]
    fn checkpoint_round_trips_through_seal() {
        let mac = Mac::new(0xDEAD_BEEF);
        let cp = sample_checkpoint();
        let sealed = cp.seal(&mac);
        let back = Checkpoint::unseal(&sealed, &mac).expect("seal verifies");
        assert_eq!(back, cp);
    }

    #[test]
    fn tampered_checkpoint_is_rejected() {
        let mac = Mac::new(0xDEAD_BEEF);
        let sealed = sample_checkpoint().seal(&mac);
        for i in 0..sealed.len() {
            let mut bad = sealed.clone();
            bad[i] ^= 0x01;
            assert!(
                Checkpoint::unseal(&bad, &mac).is_none(),
                "flip at byte {i} must fail the seal"
            );
        }
    }

    #[test]
    fn truncated_checkpoint_is_rejected() {
        let mac = Mac::new(1);
        let sealed = sample_checkpoint().seal(&mac);
        for cut in 0..sealed.len() {
            assert!(Checkpoint::unseal(&sealed[..cut], &mac).is_none());
        }
    }

    #[test]
    fn wrong_key_is_rejected() {
        let sealed = sample_checkpoint().seal(&Mac::new(1));
        assert!(Checkpoint::unseal(&sealed, &Mac::new(2)).is_none());
    }

    #[test]
    fn journal_tracks_first_touch() {
        let mut j = TxnJournal::default();
        j.begin(0);
        assert!(!j.touched(3));
        j.record(3, &[0; 8], 1);
        assert!(j.touched(3));
        assert!(!j.touched(4));
    }

    #[test]
    fn journal_recycles_undo_buffers_and_records() {
        let mut j = TxnJournal::default();
        j.install(vec![0xA; 3]);
        j.begin(0);
        assert!(
            j.committed().is_empty(),
            "the committed record is checkpoint A"
        );
        assert_eq!(j.checkpoint_a, vec![0xA; 3]);
        j.record(3, &[1; 8], 1);
        j.record(4, &[2; 8], 2);
        let image = j.undo_entries()[0].image.as_ptr();
        j.checkpoint_b = Some(vec![0xB; 3]);
        j.close(true);
        assert!(!j.is_open());
        assert_eq!(j.committed(), &[0xB; 3], "B is the committed record");
        assert!(j.undo_entries().is_empty());
        assert_eq!(j.take_spare(), vec![0xA; 3], "A's buffer is the spare");
        // The next transaction overwrites the kept entry in place.
        j.begin(1);
        assert!(!j.touched(3), "earlier entries are not this transaction's");
        j.record(5, &[3; 8], 7);
        assert_eq!(j.undo_entries().len(), 1);
        assert_eq!(j.undo_entries()[0].image.as_ptr(), image);
        assert_eq!(j.undo_entries()[0].image, vec![3; 8]);
        // A rollback keeps A committed and frees B's buffer.
        j.checkpoint_b = Some(vec![0xC; 2]);
        j.close(false);
        assert_eq!(j.committed(), &[0xB; 3]);
        assert_eq!(j.take_spare(), vec![0xC; 2]);
    }
}
