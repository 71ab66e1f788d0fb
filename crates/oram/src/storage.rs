//! The encrypted DRAM image: the only home of every off-chip bucket.
//!
//! When [`crate::OramConfig::store_payloads`] is enabled, the controller
//! keeps no plaintext copy of the off-chip tree. A path read decrypts and
//! authenticates each off-chip bucket into the controller's path
//! scratch, and the write-back serializes the
//! placed buckets — dummies and all, so every bucket's ciphertext has the
//! same size and shape — and encrypts them under fresh nonces into a flat
//! byte array standing in for the untrusted DRAM. Only the on-chip
//! treetop stays plaintext, in [`crate::OramTree`]. This is the data path
//! a real ORAM controller's crypto unit performs; the tests check
//! round-tripping and that rewriting a bucket always changes its
//! ciphertext (probabilistic encryption).
//!
//! # Authentication and rollback protection
//!
//! Each bucket carries a cleartext header — nonce, a **monotonic version
//! counter**, and a header MAC binding both to the bucket index — and each
//! slot carries a PMMAC-style tag (after Freecursive ORAM \[8\]) over the
//! slot's *entire raw bytes* (header fields and the full payload area,
//! used or not) keyed by `(bucket index, version)`. The trusted version
//! counter of every bucket lives in [`EncryptedStore`] (it models the
//! controller's on-chip counters; the byte image is the untrusted part).
//! A stored bucket that authenticates but carries an old version is a
//! **rollback** ([`OramError::Rollback`]) — the replay of a previously
//! valid ciphertext — which plain MACs cannot distinguish from fresh
//! data. Anything that fails a MAC is **corruption**
//! ([`OramError::Integrity`]). Neither can be repaired: there is no other
//! copy of the bucket, so the controller fail-stops the access.
//!
//! The byte backing is either plain memory or a [`FaultyStore`] that
//! injects seeded faults (bit flips, torn writes, rollbacks, transient
//! read failures); see [`crate::fault`]. All read paths report failures as
//! typed [`OramError`] values — nothing here panics on adversarial input.

use crate::addr::Leaf;
use crate::block::{Block, Payload};
use crate::bucket::Bucket;
use crate::crash::{CrashArm, CrashConfig, KillPoint};
use crate::crypto::{Mac, StreamCipher};
use crate::error::OramError;
use crate::fault::{FaultConfig, FaultyStore};
use crate::journal::{TxnJournal, EPOCH_DOMAIN};
use crate::posmap::PosEntry;
use proram_mem::{BlockAddr, FaultStats};

/// Authenticated slot header: `(addr, leaf, hit, kind, payload_len)`.
type SlotHeader = (BlockAddr, Leaf, bool, u8, usize);

/// Serialized size of one position-map entry.
pub const ENTRY_BYTES: usize = 9;

/// Per-slot header: valid flag, address, leaf, hit bit, payload kind,
/// payload length, MAC tag.
const SLOT_HEADER_BYTES: usize = 1 + 8 + 4 + 1 + 1 + 2 + 8;

/// Offset of the slot tag within the slot; the tag covers every other
/// slot byte (`[0, TAG)` and `[SLOT_HEADER_BYTES, end)`).
const SLOT_TAG_OFFSET: usize = 17;

/// Per-bucket header, stored in the clear as a real system stores its
/// IV/counter: encryption nonce, monotonic version counter, and a MAC over
/// both (bound to the bucket index).
const BUCKET_HEADER_BYTES: usize = 8 + 8 + 8;

/// The byte backing of the image: plain memory, or the fault injector.
#[derive(Debug, Clone)]
enum Backing {
    Plain(Vec<u8>),
    Faulty(Box<FaultyStore>),
}

impl Backing {
    fn bytes(&self) -> &[u8] {
        match self {
            Backing::Plain(d) => d,
            Backing::Faulty(f) => f.bytes(),
        }
    }

    fn bytes_mut(&mut self) -> &mut [u8] {
        match self {
            Backing::Plain(d) => d,
            Backing::Faulty(f) => f.bytes_mut(),
        }
    }

    fn begin_write(&mut self, index: usize, bucket_bytes: usize) -> &mut [u8] {
        match self {
            Backing::Plain(d) => &mut d[index * bucket_bytes..(index + 1) * bucket_bytes],
            Backing::Faulty(f) => f.begin_write(index),
        }
    }

    fn commit_write(&mut self, index: usize) {
        if let Backing::Faulty(f) = self {
            f.commit_write(index);
        }
    }

    /// Puts a journaled pre-transaction image back (a rollback).
    fn restore(&mut self, index: usize, image: &[u8]) {
        match self {
            Backing::Plain(d) => {
                d[index * image.len()..(index + 1) * image.len()].copy_from_slice(image);
            }
            Backing::Faulty(f) => f.restore(index, image),
        }
    }
}

/// The encrypted bucket store.
#[derive(Debug, Clone)]
pub struct EncryptedStore {
    backing: Backing,
    cipher: StreamCipher,
    mac: Mac,
    next_nonce: u64,
    /// Trusted on-chip version counters, one per bucket. The stored image
    /// must match exactly; an authentic-but-older version is a rollback.
    versions: Vec<u64>,
    z: usize,
    payload_bytes: usize,
    num_buckets: usize,
    /// Trusted epoch counter; the commit flip advances it after all home
    /// writes of a transaction landed.
    epoch: u64,
    /// The durable epoch header's MAC, binding [`Self::epoch`].
    epoch_tag: u64,
    /// The durable journal area: the last committed checkpoint, and the
    /// undo entries and checkpoints of the open transaction (none open =
    /// writes go straight home).
    journal: TxnJournal,
    /// Countdown arm for every kill point: the pipeline-stage entries
    /// cross it through the controller, `MidJournal` and `MidFlip` from
    /// inside the commit protocol.
    crash: Option<CrashArm>,
    /// Reusable decrypt buffer of [`Self::read_bucket_into`].
    plain: Vec<u8>,
}

/// What [`EncryptedStore::recover_txn`] did with the open journal; the
/// controller finishes recovery from this and from the checkpoint the
/// store now holds as committed ([`EncryptedStore::committed_checkpoint`]):
/// checkpoint adoption and re-verification.
#[derive(Debug)]
pub(crate) struct StoreRecovery {
    /// `true` = the epoch had already flipped: home images are
    /// authoritative and checkpoint B is now the committed record.
    /// `false` = rollback: journaled images were restored and checkpoint
    /// A stays the committed record.
    pub replay: bool,
    /// Bucket indices touched by the transaction's journal, in first-write
    /// order — the set recovery re-authenticates.
    pub touched: Vec<usize>,
    /// Undo entries the journal held.
    pub entries: usize,
    /// Bucket images physically restored (0 on replay).
    pub restored: usize,
}

impl EncryptedStore {
    /// Creates a zeroed store for `num_buckets` buckets of `z` slots whose
    /// payload area holds `payload_bytes` bytes. Every bucket starts at
    /// version 0 with an authentic all-dummy image.
    pub fn new(num_buckets: usize, z: usize, payload_bytes: usize, key: u64) -> Self {
        let bucket_bytes = Self::bucket_bytes_for(z, payload_bytes);
        let mac = Mac::new(key.rotate_left(32) ^ 0x5A5A_5A5A_5A5A_5A5A);
        let mut data = vec![0; num_buckets * bucket_bytes];
        // Authentic initial headers: nonce 0 (body not yet encrypted),
        // version 0. Without them an unwritten bucket would read as a
        // header forgery.
        for idx in 0..num_buckets {
            let header = &mut data[idx * bucket_bytes..idx * bucket_bytes + BUCKET_HEADER_BYTES];
            Self::write_header(header, &mac, idx as u64, 0, 0);
        }
        EncryptedStore {
            backing: Backing::Plain(data),
            cipher: StreamCipher::new(key),
            mac,
            next_nonce: 1,
            versions: vec![0; num_buckets],
            z,
            payload_bytes,
            num_buckets,
            epoch: 0,
            epoch_tag: mac.tag(&[EPOCH_DOMAIN, 0], &[]),
            journal: TxnJournal::default(),
            crash: None,
            plain: Vec::new(),
        }
    }

    /// Swaps the plain byte backing for a seeded fault injector.
    ///
    /// The injector draws from its own RNG, so a zero-rate configuration
    /// leaves every observable behavior identical.
    ///
    /// # Panics
    ///
    /// Panics if fault injection is already enabled or the configuration
    /// is invalid.
    pub fn enable_faults(&mut self, cfg: FaultConfig) {
        let bucket_bytes = self.bucket_bytes();
        match std::mem::replace(&mut self.backing, Backing::Plain(Vec::new())) {
            Backing::Plain(data) => {
                self.backing = Backing::Faulty(Box::new(FaultyStore::new(data, bucket_bytes, cfg)));
            }
            Backing::Faulty(_) => panic!("fault injection already enabled"),
        }
    }

    /// Fault injection / detection counters (all-zero without injection).
    pub fn fault_stats(&self) -> FaultStats {
        match &self.backing {
            Backing::Plain(_) => FaultStats::default(),
            Backing::Faulty(f) => f.stats(),
        }
    }

    /// Whether a fault injector backs this store.
    pub fn faults_enabled(&self) -> bool {
        matches!(self.backing, Backing::Faulty(_))
    }

    fn bucket_bytes_for(z: usize, payload_bytes: usize) -> usize {
        BUCKET_HEADER_BYTES + z * (SLOT_HEADER_BYTES + payload_bytes)
    }

    /// Serialized size of one bucket.
    pub fn bucket_bytes(&self) -> usize {
        Self::bucket_bytes_for(self.z, self.payload_bytes)
    }

    /// Number of buckets in the image.
    pub fn num_buckets(&self) -> usize {
        self.num_buckets
    }

    /// Raw ciphertext of bucket `index` (for tests).
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn ciphertext(&self, index: usize) -> &[u8] {
        let bb = self.bucket_bytes();
        &self.backing.bytes()[index * bb..(index + 1) * bb]
    }

    fn write_header(header: &mut [u8], mac: &Mac, bucket_index: u64, nonce: u64, version: u64) {
        header[0..8].copy_from_slice(&nonce.to_le_bytes());
        header[8..16].copy_from_slice(&version.to_le_bytes());
        let tag = mac.tag(&[bucket_index, nonce, version], &[]);
        header[16..24].copy_from_slice(&tag.to_le_bytes());
    }

    // ----- crash-consistent commit protocol (DESIGN.md section 15) -----

    /// Arms crash injection. Every kill point crosses this one arm, and
    /// only inside an open transaction.
    pub(crate) fn arm_crash(&mut self, cfg: CrashConfig) {
        self.crash = Some(CrashArm::new(cfg));
    }

    /// Whether a commit transaction is open (between
    /// [`Self::begin_txn`] and the matching commit or recovery).
    pub(crate) fn in_txn(&self) -> bool {
        self.journal.is_open()
    }

    /// Crosses kill point `point`. Outside a transaction nothing is
    /// armed: initialization and other non-transactional traffic never
    /// trips a kill.
    ///
    /// # Errors
    ///
    /// [`OramError::Crashed`] when this is the armed crossing; the arm
    /// never fires again.
    pub(crate) fn cross(&mut self, point: KillPoint) -> Result<(), OramError> {
        let fired = self.in_txn() && self.crash.as_mut().is_some_and(|arm| arm.cross(point));
        if fired {
            Err(OramError::Crashed { point })
        } else {
            Ok(())
        }
    }

    /// Trusted epoch counter (advanced by each commit flip).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Verifies the durable epoch header's MAC against the trusted epoch.
    pub fn epoch_header_ok(&self) -> bool {
        self.epoch_tag == self.mac.tag(&[EPOCH_DOMAIN, self.epoch], &[])
    }

    /// The store's MAC (checkpoints are sealed under the same key domain
    /// machinery as slots and the epoch header).
    pub(crate) fn mac(&self) -> &Mac {
        &self.mac
    }

    /// Installs the first committed checkpoint, sealed at epoch 0 before
    /// any transaction runs.
    ///
    /// # Panics
    ///
    /// Panics if a transaction is open.
    pub(crate) fn install_checkpoint(&mut self, record: Vec<u8>) {
        self.journal.install(record);
    }

    /// The last committed checkpoint record: sealed at the current epoch
    /// and describing the controller's state between transactions.
    /// After [`Self::recover_txn`] it is the record to adopt.
    pub(crate) fn committed_checkpoint(&self) -> &[u8] {
        self.journal.committed()
    }

    /// A buffer to seal the next checkpoint B into: the one the record
    /// last replaced left behind. Its contents are garbage.
    pub(crate) fn take_checkpoint_buffer(&mut self) -> Vec<u8> {
        self.journal.take_spare()
    }

    /// The journal area, for tests that tamper with it.
    #[cfg(test)]
    pub(crate) fn journal_mut(&mut self) -> &mut TxnJournal {
        &mut self.journal
    }

    /// Opens a transaction: the committed checkpoint becomes checkpoint
    /// A as it is (no seal, no copy), and subsequent bucket writes
    /// journal a first-touch undo entry (old image + old version) before
    /// touching home.
    ///
    /// # Panics
    ///
    /// Panics if a transaction is already open — the controller must
    /// commit or recover first.
    pub(crate) fn begin_txn(&mut self) {
        self.journal.begin(self.epoch);
    }

    /// Commits the open transaction: stores checkpoint B (sealed at the
    /// epoch it commits into), flips the MAC-bound epoch header, and
    /// closes the journal with B as the committed record. After the flip
    /// the transaction is durable — a crash between flip and close is
    /// replayed forward by recovery, not rolled back.
    ///
    /// Returns the journal's entry count (for observability).
    ///
    /// # Errors
    ///
    /// [`OramError::Crashed`] if the `MidFlip` kill point fires between
    /// the flip and the journal close.
    ///
    /// # Panics
    ///
    /// Panics if no transaction is open.
    pub(crate) fn commit_txn(&mut self, checkpoint_b: Vec<u8>) -> Result<u64, OramError> {
        assert!(self.journal.is_open(), "commit without begin_txn");
        self.journal.checkpoint_b = Some(checkpoint_b);
        let entries = self.journal.undo_entries().len() as u64;
        self.epoch += 1;
        self.epoch_tag = self.mac.tag(&[EPOCH_DOMAIN, self.epoch], &[]);
        self.cross(KillPoint::MidFlip)?;
        self.journal.close(true);
        Ok(entries)
    }

    /// Store-level recovery: compares the epoch header against the open
    /// journal's begin epoch. Not yet flipped → roll every journaled
    /// image and version counter back, checkpoint A stays committed;
    /// flipped → home is authoritative, checkpoint B becomes committed.
    /// Either way the journal closes and the committed checkpoint
    /// ([`Self::committed_checkpoint`]) is the one the controller adopts.
    ///
    /// Returns `None` when no transaction was open.
    ///
    /// # Panics
    ///
    /// Panics if the durable epoch header fails its MAC — recovery must
    /// never trust a forged epoch.
    pub(crate) fn recover_txn(&mut self) -> Option<StoreRecovery> {
        assert!(self.epoch_header_ok(), "epoch header failed authentication");
        if !self.journal.is_open() {
            return None;
        }
        let undo = self.journal.undo_entries();
        let entries = undo.len();
        let touched: Vec<usize> = undo.iter().map(|e| e.index).collect();
        let replay = self.epoch != self.journal.begin_epoch;
        if !replay {
            // Rollback: restore the pre-transaction image and trusted
            // version of every touched bucket, newest-first so a bucket
            // journaled once is restored exactly once either way.
            for e in undo.iter().rev() {
                self.backing.restore(e.index, &e.image);
                self.versions[e.index] = e.version;
            }
        }
        self.journal.close(replay);
        Some(StoreRecovery {
            replay,
            touched,
            entries,
            restored: if replay { 0 } else { entries },
        })
    }

    /// Records a first-touch undo entry for `index` if a transaction is
    /// open.
    ///
    /// # Errors
    ///
    /// [`OramError::Crashed`] when the `MidJournal` kill point fired on
    /// this crossing: the undo entry itself is durable, the home write it
    /// guards never happens.
    fn journal_record(&mut self, index: usize) -> Result<(), OramError> {
        if !self.journal.is_open() || self.journal.touched(index) {
            return Ok(());
        }
        let bb = self.bucket_bytes();
        let image = &self.backing.bytes()[index * bb..(index + 1) * bb];
        self.journal.record(index, image, self.versions[index]);
        self.cross(KillPoint::MidJournal)
    }

    /// Serializes, encrypts and stores `bucket` at `index` under a fresh
    /// nonce, advancing the bucket's trusted version counter.
    ///
    /// # Errors
    ///
    /// [`OramError::Crashed`] when the `MidJournal` kill point fired while
    /// journaling this write; nothing reached the bucket.
    ///
    /// # Panics
    ///
    /// Panics if the bucket exceeds `z` blocks or a payload exceeds the
    /// payload area.
    pub fn write_bucket(&mut self, index: usize, bucket: &Bucket) -> Result<(), OramError> {
        self.journal_record(index)?;
        assert!(bucket.len() <= self.z, "bucket exceeds Z");
        let nonce = self.next_nonce;
        self.next_nonce += 1;
        let version = self.versions[index] + 1;
        self.versions[index] = version;
        let bb = self.bucket_bytes();
        let slot_bytes = SLOT_HEADER_BYTES + self.payload_bytes;
        // Serialize and encrypt directly in the image — no staging buffer.
        let (mac, cipher, payload_bytes) = (self.mac, self.cipher, self.payload_bytes);
        let out = self.backing.begin_write(index, bb);
        Self::write_header(
            &mut out[..BUCKET_HEADER_BYTES],
            &mac,
            index as u64,
            nonce,
            version,
        );
        let plain = &mut out[BUCKET_HEADER_BYTES..];
        // Zero first so unfilled slots are dummy blocks, indistinguishable
        // after encryption.
        plain.fill(0);
        for (i, block) in bucket.iter().enumerate() {
            let slot = &mut plain[i * slot_bytes..(i + 1) * slot_bytes];
            Self::serialize_fields(block, slot, payload_bytes);
            Self::seal_slot(slot, &mac, index as u64, version);
        }
        cipher.encrypt(nonce, plain);
        self.backing.commit_write(index);
        Ok(())
    }

    /// Reads, decrypts, authenticates and deserializes bucket `index`.
    ///
    /// # Errors
    ///
    /// Reports tampering as [`OramError::Integrity`], an authentic stale
    /// image as [`OramError::Rollback`], and a transient read failure that
    /// exhausted its retry budget as [`OramError::Transient`].
    pub fn try_read_bucket(&mut self, index: usize) -> Result<Vec<Block>, OramError> {
        let mut out = Bucket::new(self.z);
        self.read_bucket_into(index, &mut out)?;
        Ok(out.drain().collect())
    }

    /// Reads, decrypts, authenticates and deserializes bucket `index` into
    /// `out`, replacing its contents. On error `out` is left empty.
    ///
    /// # Errors
    ///
    /// Same classification as [`EncryptedStore::try_read_bucket`].
    pub(crate) fn read_bucket_into(
        &mut self,
        index: usize,
        out: &mut Bucket,
    ) -> Result<(), OramError> {
        if let Backing::Faulty(f) = &mut self.backing {
            if let Err(attempts) = f.read_gate() {
                out.drain();
                return Err(OramError::Transient {
                    bucket: index,
                    attempts,
                });
            }
        }
        let mut plain = std::mem::take(&mut self.plain);
        let result = self.open(index, &mut plain, out);
        self.plain = plain;
        if let Backing::Faulty(f) = &mut self.backing {
            match &result {
                Ok(()) => f.note_clean_read(index),
                Err(err) => f.note_detected(index, err),
            }
        }
        result
    }

    /// Authenticates and decodes bucket `index` without the transient-read
    /// gate or any detection bookkeeping: a read-only look at the image
    /// for auditors, digests and crash recovery.
    ///
    /// # Errors
    ///
    /// [`OramError::Integrity`] or [`OramError::Rollback`], as for
    /// [`EncryptedStore::try_read_bucket`].
    pub(crate) fn peek_bucket(&self, index: usize) -> Result<Vec<Block>, OramError> {
        let mut out = Bucket::new(self.z);
        self.open(index, &mut Vec::new(), &mut out)?;
        Ok(out.drain().collect())
    }

    /// Authenticates bucket `index`'s header against the trusted version
    /// counter, decrypts the body into `plain` and decodes every slot into
    /// `out` (emptied first, and again on error).
    fn open(&self, index: usize, plain: &mut Vec<u8>, out: &mut Bucket) -> Result<(), OramError> {
        out.drain();
        let bb = self.bucket_bytes();
        let raw = &self.backing.bytes()[index * bb..(index + 1) * bb];
        let nonce = u64::from_le_bytes(raw[0..8].try_into().expect("nonce"));
        let version = u64::from_le_bytes(raw[8..16].try_into().expect("version"));
        let stored_tag = u64::from_le_bytes(raw[16..24].try_into().expect("header tag"));
        if stored_tag != self.mac.tag(&[index as u64, nonce, version], &[]) {
            return Err(OramError::Integrity {
                bucket: index,
                slot: None,
            });
        }
        let expected = self.versions[index];
        if version != expected {
            // The header authenticates, so (nonce, version) was once valid
            // for this bucket: an old version is a replayed stale image.
            // (A version ahead of the trusted counter cannot be produced
            // by replay; classify it as corruption defensively.)
            return Err(if version < expected {
                OramError::Rollback {
                    bucket: index,
                    stored_version: version,
                    expected_version: expected,
                }
            } else {
                OramError::Integrity {
                    bucket: index,
                    slot: None,
                }
            });
        }
        plain.clear();
        plain.extend_from_slice(&raw[BUCKET_HEADER_BYTES..]);
        if nonce != 0 {
            self.cipher.decrypt(nonce, plain);
        }
        let slot_bytes = SLOT_HEADER_BYTES + self.payload_bytes;
        for (i, slot) in plain.chunks_exact(slot_bytes).take(self.z).enumerate() {
            match Self::deserialize_block(slot, &self.mac, index as u64, version) {
                Ok(Some(b)) => out.push(b),
                Ok(None) => {}
                Err(()) => {
                    out.drain();
                    return Err(OramError::Integrity {
                        bucket: index,
                        slot: Some(i),
                    });
                }
            }
        }
        Ok(())
    }

    /// Verifies one bucket's header and slot authentication tags.
    ///
    /// # Errors
    ///
    /// Same classification as [`EncryptedStore::try_read_bucket`].
    pub fn verify_bucket(&mut self, index: usize) -> Result<(), OramError> {
        self.try_read_bucket(index).map(|_| ())
    }

    /// Verifies every bucket's authentication tags (the scrub pass).
    ///
    /// # Errors
    ///
    /// Returns the first [`OramError`] encountered.
    pub fn verify_all(&mut self) -> Result<(), OramError> {
        for idx in 0..self.num_buckets {
            self.verify_bucket(idx)?;
        }
        Ok(())
    }

    /// Fault injection for tests: XORs `mask` into one ciphertext byte of
    /// bucket `index`.
    ///
    /// # Panics
    ///
    /// Panics if the offset is outside the bucket or the mask is zero (a
    /// zero mask would not corrupt anything).
    pub fn corrupt_byte(&mut self, index: usize, offset: usize, mask: u8) {
        assert!(mask != 0, "a zero mask does not corrupt");
        let bb = self.bucket_bytes();
        assert!(offset < bb, "offset {offset} outside bucket of {bb} bytes");
        self.backing.bytes_mut()[index * bb + offset] ^= mask;
    }

    /// Writes a block's slot fields — valid flag, address, leaf, hit,
    /// payload kind/length and the payload bytes — leaving the tag field
    /// zero. [`Self::seal_slot`] computes the tag afterwards.
    fn serialize_fields(block: &Block, slot: &mut [u8], payload_bytes: usize) {
        let (head, body_area) = slot.split_at_mut(SLOT_HEADER_BYTES);
        head[0] = 1; // valid
        head[1..9].copy_from_slice(&block.addr.0.to_le_bytes());
        head[9..13].copy_from_slice(&block.leaf.0.to_le_bytes());
        head[13] = u8::from(block.hit);
        // Serialize the payload straight into the slot's body area — no
        // staging Vec; the MAC is computed over the written bytes.
        let (kind, len): (u8, usize) = match &block.payload {
            Payload::Opaque => (0, 0),
            Payload::Data(bytes) => {
                assert!(
                    bytes.len() <= payload_bytes,
                    "payload {} exceeds slot {payload_bytes}",
                    bytes.len()
                );
                body_area[..bytes.len()].copy_from_slice(bytes);
                (1, bytes.len())
            }
            Payload::PosMap(entries) => {
                let len = entries.len() * ENTRY_BYTES;
                assert!(
                    len <= payload_bytes,
                    "payload {len} exceeds slot {payload_bytes}"
                );
                for (e, out) in entries.iter().zip(body_area.chunks_exact_mut(ENTRY_BYTES)) {
                    e.encode(out);
                }
                (2, len)
            }
        };
        head[14] = kind;
        head[15..17].copy_from_slice(&(len as u16).to_le_bytes());
    }

    /// Computes and stores a serialized slot's authentication tag. The
    /// tag binds the slot's raw bytes — header fields and the whole
    /// payload area, used or not (zeroed padding included, so a flip
    /// past `len` is still caught) — plus the bucket index and version,
    /// so replaying an authentic slot at a different tree position or
    /// from an older epoch fails verification. The tag field itself is
    /// zero at this point and excluded from coverage.
    fn seal_slot(slot: &mut [u8], mac: &Mac, bucket_index: u64, version: u64) {
        let (head, body_area) = slot.split_at_mut(SLOT_HEADER_BYTES);
        let tag = mac.tag_parts(
            &[bucket_index, version],
            &[&head[..SLOT_TAG_OFFSET], body_area],
        );
        head[SLOT_TAG_OFFSET..SLOT_HEADER_BYTES].copy_from_slice(&tag.to_le_bytes());
    }

    /// Validates and authenticates one slot without touching the payload
    /// encoding: `Ok(None)` = dummy slot, `Ok(Some((addr, leaf, hit, kind,
    /// len)))` = authenticated header, `Err(())` = tampering.
    fn check_slot(
        slot: &[u8],
        mac: &Mac,
        bucket_index: u64,
        version: u64,
    ) -> Result<Option<SlotHeader>, ()> {
        if slot[0] != 1 {
            // Dummy slots are all-zero after decryption; any other value
            // in the valid flag is tampering.
            return if slot.iter().all(|&b| b == 0) {
                Ok(None)
            } else {
                Err(())
            };
        }
        let addr = BlockAddr(u64::from_le_bytes(slot[1..9].try_into().expect("addr")));
        let leaf = Leaf(u32::from_le_bytes(slot[9..13].try_into().expect("leaf")));
        let hit = slot[13] != 0;
        let kind = slot[14];
        let len = u16::from_le_bytes(slot[15..17].try_into().expect("len")) as usize;
        if len > slot.len().saturating_sub(SLOT_HEADER_BYTES) {
            return Err(()); // corrupted length field
        }
        let stored_tag = u64::from_le_bytes(
            slot[SLOT_TAG_OFFSET..SLOT_HEADER_BYTES]
                .try_into()
                .expect("tag"),
        );
        let expected = mac.tag_parts(
            &[bucket_index, version],
            &[&slot[..SLOT_TAG_OFFSET], &slot[SLOT_HEADER_BYTES..]],
        );
        if stored_tag != expected {
            return Err(());
        }
        Ok(Some((addr, leaf, hit, kind, len)))
    }

    /// `Ok(None)` = dummy slot, `Ok(Some)` = authenticated block,
    /// `Err(())` = tag mismatch.
    fn deserialize_block(
        slot: &[u8],
        mac: &Mac,
        bucket_index: u64,
        version: u64,
    ) -> Result<Option<Block>, ()> {
        let Some((addr, leaf, hit, kind, len)) =
            Self::check_slot(slot, mac, bucket_index, version)?
        else {
            return Ok(None);
        };
        let body = &slot[SLOT_HEADER_BYTES..SLOT_HEADER_BYTES + len];
        let payload = match kind {
            0 => Payload::Opaque,
            1 => Payload::Data(body.to_vec().into()),
            2 => {
                let entries: Vec<PosEntry> = body
                    .chunks_exact(ENTRY_BYTES)
                    .map(PosEntry::decode)
                    .collect();
                Payload::PosMap(entries.into())
            }
            _ => return Err(()), // unknown payload kind: tampering
        };
        Ok(Some(Block {
            addr,
            leaf,
            hit,
            payload,
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultClass;

    fn store() -> EncryptedStore {
        EncryptedStore::new(8, 3, 128, 0x5EED)
    }

    fn data_block(addr: u64, fill: u8) -> Block {
        Block::with_data(BlockAddr(addr), Leaf(3), vec![fill; 128].into())
    }

    #[test]
    fn round_trip_data_bucket() {
        let mut s = store();
        let mut b = Bucket::new(3);
        b.push(data_block(1, 0xAA));
        b.push(data_block(2, 0xBB));
        s.write_bucket(4, &b).unwrap();
        let blocks = s.try_read_bucket(4).expect("authentic bucket");
        assert_eq!(blocks.len(), 2);
        let b1 = blocks.iter().find(|b| b.addr == BlockAddr(1)).unwrap();
        assert_eq!(b1.leaf, Leaf(3));
        match &b1.payload {
            Payload::Data(bytes) => assert!(bytes.iter().all(|&x| x == 0xAA)),
            other => panic!("wrong payload: {other:?}"),
        }
    }

    #[test]
    fn round_trip_posmap_bucket() {
        let mut s = store();
        let entries = vec![
            PosEntry {
                leaf: Leaf(7),
                merge: -2,
                brk: 3,
                prefetch: true,
            },
            PosEntry::new(Leaf(9)),
        ];
        let mut b = Bucket::new(3);
        b.push(Block::posmap(
            BlockAddr(100),
            Leaf(1),
            entries.clone().into(),
        ));
        s.write_bucket(0, &b).unwrap();
        let blocks = s.try_read_bucket(0).expect("authentic bucket");
        assert_eq!(blocks[0].entries(), entries.as_slice());
    }

    #[test]
    fn hit_bit_survives() {
        let mut s = store();
        let mut blk = data_block(1, 0x11);
        blk.hit = true;
        let mut b = Bucket::new(3);
        b.push(blk);
        s.write_bucket(1, &b).unwrap();
        assert!(s.try_read_bucket(1).expect("authentic bucket")[0].hit);
    }

    #[test]
    fn empty_bucket_round_trips() {
        let mut s = store();
        s.write_bucket(2, &Bucket::new(3)).unwrap();
        assert!(s.try_read_bucket(2).expect("authentic bucket").is_empty());
    }

    #[test]
    fn unwritten_bucket_reads_empty() {
        let mut s = store();
        assert!(s.try_read_bucket(5).expect("initial image").is_empty());
    }

    #[test]
    fn rewriting_changes_ciphertext() {
        let mut s = store();
        let mut b = Bucket::new(3);
        b.push(data_block(1, 0xCC));
        s.write_bucket(3, &b).unwrap();
        let before = s.ciphertext(3).to_vec();
        s.write_bucket(3, &b).unwrap(); // identical plaintext
        let after = s.ciphertext(3).to_vec();
        assert_ne!(
            before, after,
            "probabilistic encryption must refresh ciphertexts"
        );
        // But the logical content is unchanged.
        assert_eq!(
            s.try_read_bucket(3).expect("authentic bucket")[0].addr,
            BlockAddr(1)
        );
    }

    #[test]
    fn dummy_slots_indistinguishable_from_real() {
        // Every bucket ciphertext has the same length regardless of how
        // many real blocks it holds.
        let mut s = store();
        let mut full = Bucket::new(3);
        for i in 0..3 {
            full.push(data_block(i, i as u8));
        }
        s.write_bucket(0, &full).unwrap();
        s.write_bucket(1, &Bucket::new(3)).unwrap();
        assert_eq!(s.ciphertext(0).len(), s.ciphertext(1).len());
    }

    #[test]
    fn tampering_with_ciphertext_is_detected() {
        let mut s = store();
        let mut b = Bucket::new(3);
        b.push(data_block(1, 0x5A));
        s.write_bucket(2, &b).unwrap();
        assert!(s.verify_all().is_ok());
        // Flip one ciphertext byte in the slot area.
        s.corrupt_byte(2, 40, 0x80);
        let err = s
            .try_read_bucket(2)
            .expect_err("tampering must be detected");
        assert_eq!(err.bucket(), Some(2));
        assert!(matches!(err, OramError::Integrity { .. }));
        assert!(s.verify_all().is_err());
    }

    #[test]
    fn tampering_with_nonce_is_detected() {
        let mut s = store();
        let mut b = Bucket::new(3);
        b.push(data_block(1, 0x5A));
        s.write_bucket(0, &b).unwrap();
        s.corrupt_byte(0, 0, 0x01); // nonce byte
        assert!(matches!(
            s.try_read_bucket(0),
            Err(OramError::Integrity {
                bucket: 0,
                slot: None
            })
        ));
    }

    #[test]
    fn every_header_field_flip_reports_exact_bucket_and_slot() {
        // Flip one byte in each authenticated field — bucket header
        // (nonce, version, header tag) and slot 0's header (valid, addr,
        // leaf, hit, kind, len, tag) — and check the error names the exact
        // bucket, and the exact slot for slot-local corruption.
        let bucket_fields: [(&str, usize); 3] = [("nonce", 0), ("version", 8), ("header-tag", 16)];
        for (name, offset) in bucket_fields {
            let mut s = store();
            let mut b = Bucket::new(3);
            b.push(data_block(1, 0x5A));
            s.write_bucket(2, &b).unwrap();
            s.corrupt_byte(2, offset, 0x01);
            assert_eq!(
                s.try_read_bucket(2),
                Err(OramError::Integrity {
                    bucket: 2,
                    slot: None
                }),
                "{name} flip misclassified"
            );
        }
        // Slot 0 begins after the bucket header; its field offsets follow
        // the serialized layout.
        let slot0 = BUCKET_HEADER_BYTES;
        let slot_fields: [(&str, usize); 7] = [
            ("valid", slot0),
            ("addr", slot0 + 1),
            ("leaf", slot0 + 9),
            ("hit", slot0 + 13),
            ("kind", slot0 + 14),
            ("len", slot0 + 15),
            ("tag", slot0 + SLOT_TAG_OFFSET),
        ];
        for (name, offset) in slot_fields {
            let mut s = store();
            let mut b = Bucket::new(3);
            b.push(data_block(1, 0x5A));
            s.write_bucket(2, &b).unwrap();
            s.corrupt_byte(2, offset, 0x01);
            assert_eq!(
                s.try_read_bucket(2),
                Err(OramError::Integrity {
                    bucket: 2,
                    slot: Some(0)
                }),
                "{name} flip misclassified"
            );
        }
    }

    #[test]
    fn payload_bytes_past_len_are_authenticated() {
        // A posmap payload uses only part of the payload area; the MAC
        // must cover the zeroed remainder too.
        let mut s = store();
        let mut b = Bucket::new(3);
        b.push(Block::posmap(
            BlockAddr(9),
            Leaf(2),
            vec![PosEntry::new(Leaf(1)); 4].into(),
        ));
        s.write_bucket(1, &b).unwrap();
        // 4 entries * 9 bytes = 36 used of 128; flip a byte well past len.
        let offset = BUCKET_HEADER_BYTES + SLOT_HEADER_BYTES + 100;
        s.corrupt_byte(1, offset, 0x40);
        assert_eq!(
            s.try_read_bucket(1),
            Err(OramError::Integrity {
                bucket: 1,
                slot: Some(0)
            })
        );
    }

    #[test]
    fn hit_byte_is_authenticated_raw() {
        // Flipping the hit byte from 1 to another nonzero value must fail:
        // the MAC covers the raw byte, not the derived bool.
        let mut s = store();
        let mut blk = data_block(1, 0x11);
        blk.hit = true;
        let mut b = Bucket::new(3);
        b.push(blk);
        s.write_bucket(0, &b).unwrap();
        s.corrupt_byte(0, BUCKET_HEADER_BYTES + 13, 0x02); // 1 -> 3
        assert!(s.try_read_bucket(0).is_err());
    }

    #[test]
    fn rollback_replay_is_detected_as_rollback() {
        // Capture an authentic version-1 image, let the store advance to
        // version 2, then replay the stale image. Every MAC in the stale
        // image verifies — without version counters this replay would be
        // accepted (the error would have to be `Integrity`, and there is
        // none). The trusted version counter is what catches it.
        let mut s = store();
        let mut b = Bucket::new(3);
        b.push(data_block(1, 0x77));
        s.write_bucket(4, &b).unwrap();
        let stale = s.ciphertext(4).to_vec();
        let mut b2 = Bucket::new(3);
        b2.push(data_block(2, 0x88));
        s.write_bucket(4, &b2).unwrap();

        // Adversary restores the old bytes wholesale.
        for (i, byte) in stale.iter().enumerate() {
            let cur = s.ciphertext(4)[i];
            if cur != *byte {
                s.corrupt_byte(4, i, cur ^ *byte);
            }
        }
        assert_eq!(
            s.try_read_bucket(4),
            Err(OramError::Rollback {
                bucket: 4,
                stored_version: 1,
                expected_version: 2
            }),
            "authentic stale image must be classified as rollback, not corruption"
        );

        // Control: the same stale image under a store whose trusted
        // counter still expects version 1 authenticates perfectly — i.e.
        // the MACs alone cannot reject it; only the version counter does.
        let mut fresh = store();
        let mut b = Bucket::new(3);
        b.push(data_block(1, 0x77));
        fresh.write_bucket(4, &b).unwrap();
        assert!(fresh.try_read_bucket(4).is_ok());
    }

    #[test]
    fn replaying_another_buckets_ciphertext_is_detected() {
        // Copy bucket 0's authentic ciphertext over bucket 1: the nonce
        // decrypts and the tags are valid MACs — but they bind the
        // *source* bucket index, so the replay fails verification at the
        // destination.
        let mut s = store();
        let mut b = Bucket::new(3);
        b.push(data_block(7, 0x22));
        s.write_bucket(0, &b).unwrap();
        s.write_bucket(1, &Bucket::new(3)).unwrap();
        let src: Vec<u8> = s.ciphertext(0).to_vec();
        for (i, byte) in src.iter().enumerate() {
            let cur = s.ciphertext(1)[i];
            if cur != *byte {
                s.corrupt_byte(1, i, cur ^ *byte);
            }
        }
        assert!(
            s.try_read_bucket(1).is_err(),
            "bucket replay must not authenticate"
        );
        // The source bucket itself still verifies.
        assert!(s.try_read_bucket(0).is_ok());
    }

    #[test]
    fn transient_failures_exhaust_into_typed_error() {
        let mut s = store();
        s.enable_faults(FaultConfig {
            retry_budget: 2,
            ..FaultConfig::single(FaultClass::Transient, 1.0, 5)
        });
        let mut b = Bucket::new(3);
        b.push(data_block(1, 0x11));
        s.write_bucket(0, &b).unwrap();
        assert_eq!(
            s.try_read_bucket(0),
            Err(OramError::Transient {
                bucket: 0,
                attempts: 3
            })
        );
        assert_eq!(s.fault_stats().injected_transients, 3);
    }

    #[test]
    fn injected_write_faults_are_always_detected() {
        // Drive every write-fault class at a high rate and read each
        // bucket back after every write: zero false negatives.
        for class in [
            FaultClass::BitFlip,
            FaultClass::TornWrite,
            FaultClass::Rollback,
        ] {
            let mut s = store();
            s.enable_faults(FaultConfig::single(class, 0.5, 42));
            let mut injected_before = 0;
            for round in 0..50u64 {
                let idx = (round % 8) as usize;
                let mut b = Bucket::new(3);
                b.push(data_block(round, round as u8));
                s.write_bucket(idx, &b).unwrap();
                let stats = s.fault_stats();
                let injected = stats.total_injected();
                let read = s.try_read_bucket(idx);
                if injected > injected_before {
                    assert!(read.is_err(), "{} fault escaped detection", class.name());
                    // Repair so the next round starts authentic.
                    s.write_bucket(idx, &b).unwrap();
                } else {
                    assert!(read.is_ok());
                }
                injected_before = s.fault_stats().total_injected();
            }
            let stats = s.fault_stats();
            assert_eq!(stats.undetected, 0, "{}", class.name());
            assert!(stats.total_injected() > 0, "{}", class.name());
        }
    }

    #[test]
    fn silent_injector_is_observationally_identical() {
        let run = |faulty: bool| {
            let mut s = store();
            if faulty {
                s.enable_faults(FaultConfig::silent(123));
            }
            let mut images = Vec::new();
            for round in 0..20u64 {
                let idx = (round % 8) as usize;
                let mut b = Bucket::new(3);
                b.push(data_block(round, round as u8));
                s.write_bucket(idx, &b).unwrap();
                assert!(s.try_read_bucket(idx).is_ok());
                images.push(s.ciphertext(idx).to_vec());
            }
            images
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    #[should_panic(expected = "exceeds slot")]
    fn oversized_payload_panics() {
        let mut s = EncryptedStore::new(1, 1, 16, 1);
        let mut b = Bucket::new(1);
        b.push(data_block(0, 1)); // 128-byte payload into 16-byte slot
        s.write_bucket(0, &b).unwrap();
    }

    fn one_block_bucket(addr: u64, fill: u8) -> Bucket {
        let mut b = Bucket::new(3);
        b.push(data_block(addr, fill));
        b
    }

    #[test]
    fn txn_rollback_restores_images_and_versions() {
        let mut s = store();
        s.write_bucket(2, &one_block_bucket(10, 0xAA)).unwrap();
        s.write_bucket(3, &one_block_bucket(11, 0xBB)).unwrap();
        let before: Vec<Vec<u8>> = (0..8).map(|i| s.ciphertext(i).to_vec()).collect();
        s.install_checkpoint(vec![0xCA; 4]);
        s.begin_txn();
        s.write_bucket(2, &one_block_bucket(12, 0xCC)).unwrap();
        s.write_bucket(2, &one_block_bucket(13, 0xDD)).unwrap(); // second touch: one undo entry
        s.write_bucket(5, &one_block_bucket(14, 0xEE)).unwrap();
        assert_ne!(s.ciphertext(2), &before[2][..]);
        let rec = s.recover_txn().expect("open transaction");
        assert!(!rec.replay);
        assert_eq!(
            s.committed_checkpoint(),
            &[0xCA; 4],
            "checkpoint A stays committed"
        );
        assert_eq!(rec.entries, 2, "first-touch journaling");
        assert_eq!(rec.restored, 2);
        assert_eq!(rec.touched, vec![2, 5]);
        for (i, img) in before.iter().enumerate() {
            assert_eq!(s.ciphertext(i), &img[..], "bucket {i} rolled back");
        }
        // Versions rolled back too: the whole image re-authenticates and
        // the pre-transaction content is served.
        s.verify_all().expect("rolled-back image authenticates");
        assert_eq!(s.try_read_bucket(2).unwrap()[0].addr, BlockAddr(10));
        // The store works normally after recovery.
        s.write_bucket(2, &one_block_bucket(20, 0x11)).unwrap();
        assert_eq!(s.try_read_bucket(2).unwrap()[0].addr, BlockAddr(20));
    }

    #[test]
    fn txn_commit_discards_journal_and_flips_epoch() {
        let mut s = store();
        assert_eq!(s.epoch(), 0);
        s.install_checkpoint(vec![1]);
        s.begin_txn();
        s.write_bucket(1, &one_block_bucket(5, 0x55)).unwrap();
        let entries = s.commit_txn(vec![2]).expect("no crash armed");
        assert_eq!(entries, 1);
        assert_eq!(s.committed_checkpoint(), &[2], "B is the committed record");
        assert_eq!(
            s.take_checkpoint_buffer(),
            vec![1],
            "A's buffer is recycled"
        );
        assert_eq!(s.epoch(), 1);
        assert!(s.epoch_header_ok());
        assert!(s.recover_txn().is_none(), "journal discarded at commit");
        assert_eq!(s.try_read_bucket(1).unwrap()[0].addr, BlockAddr(5));
    }

    #[test]
    fn mid_flip_crash_replays_forward() {
        let mut s = store();
        s.write_bucket(4, &one_block_bucket(30, 0x30)).unwrap();
        s.install_checkpoint(vec![0xA]);
        s.begin_txn();
        s.write_bucket(4, &one_block_bucket(31, 0x31)).unwrap();
        s.arm_crash(CrashConfig::first(KillPoint::MidFlip));
        let err = s.commit_txn(vec![0xB]).expect_err("MidFlip fires");
        assert!(matches!(
            err,
            OramError::Crashed {
                point: KillPoint::MidFlip
            }
        ));
        assert_eq!(s.epoch(), 1, "the flip itself landed");
        assert!(s.in_txn(), "the journal outlives the crash");
        let rec = s.recover_txn().expect("journal still open");
        assert!(rec.replay, "flipped epoch means roll forward");
        assert_eq!(s.committed_checkpoint(), &[0xB], "checkpoint B is adopted");
        assert_eq!(rec.restored, 0);
        assert!(!s.in_txn());
        s.verify_all().expect("committed image authenticates");
        assert_eq!(s.try_read_bucket(4).unwrap()[0].addr, BlockAddr(31));
    }

    #[test]
    fn mid_journal_crash_drops_the_home_write() {
        let mut s = store();
        s.write_bucket(6, &one_block_bucket(40, 0x40)).unwrap();
        let before = s.ciphertext(6).to_vec();
        s.begin_txn();
        s.arm_crash(CrashConfig::first(KillPoint::MidJournal));
        let err = s
            .write_bucket(6, &one_block_bucket(41, 0x41))
            .expect_err("MidJournal fires");
        assert!(matches!(
            err,
            OramError::Crashed {
                point: KillPoint::MidJournal
            }
        ));
        assert_eq!(s.ciphertext(6), &before[..], "home write dropped");
        let rec = s.recover_txn().expect("open transaction");
        assert!(!rec.replay);
        assert_eq!(rec.entries, 1, "the undo entry itself is durable");
        s.verify_all().expect("rolled-back image authenticates");
        assert_eq!(s.try_read_bucket(6).unwrap()[0].addr, BlockAddr(40));
    }
}
