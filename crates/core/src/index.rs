//! The PPV index: precomputed prime PPVs of hub nodes (paper §5.1).
//!
//! One layout holds them: the [`FlatIndex`] arena — `ids` / `scores`
//! slices per hub plus a precomputed border-hub sublist and norm — which
//! the builder fills, the online engine reads zero-copy, the delta path
//! patches copy-on-write, a shard serves as its slice of the hubs
//! ([`FlatIndex::insert_from`]), and the index file stores. [`PpvStore`]
//! is the read interface the engine is written against.
//!
//! ## The zero-copy store contract
//!
//! Reads go through [`PpvStore::view`], which returns a borrowed
//! [`PpvRef`] aliasing the store's own memory — no `Arc` refcount traffic,
//! no cloning, no allocation, for a heap arena and an `mmap`ed one alike.
//! Code that genuinely needs an owned copy calls [`PpvStore::load`].
//!
//! ## The index file
//!
//! `FPPVIDX3` is the one on-disk format. Its body *is* the flat
//! structure-of-arrays arena, little-endian and section-aligned so
//! [`FlatIndex::open`] can borrow it zero-copy from an `mmap` (see the
//! private `mapfile` module); scores are raw `f64`, so a served answer and
//! its certificate are bit-identical before and after a trip through the
//! file:
//!
//! ```text
//! magic "FPPVIDX3" | u32 version=3 | u32 flags
//! u64 × { num_nodes, num_hubs, num_entries, num_border,
//!         dir_off, spend_off, ids_off, scores_off,
//!         border_ids_off, border_pos_off, file_len }          (104-byte header)
//! directory:  num_hubs × { u32 hub_id, u32 len, u32 border_len, u32 0,
//!                          u64 entry_start, u64 border_start }
//! spend:      num_hubs × f64 budget_spent                     (directory order)
//! ids:        num_entries × u32, zero-padded to 8 bytes
//! scores:     num_entries × f64
//! border_ids: num_border × u32, zero-padded to 8 bytes
//! border_pos: num_border × u32, zero-padded to 8 bytes
//! ```
//!
//! Every section starts 8-byte aligned and hubs are laid out ascending with
//! tightly packed `entry_start`/`border_start`, so an opened arena carves
//! the sections into borrowed [`FlatIndex`] chunks without any decode pass.
//! [`FlatIndex::open`] fails closed ([`OpenError`]): every header and
//! directory field is read through one bounds-checked reader and validated
//! with checked arithmetic before any slice of the backing is formed. Files
//! of the two retired record formats are rejected by name, with the
//! instruction to rebuild.
//!
//! One directory column is **not** in the file: the per-hub norm `‖r̊⁰_h‖₁`
//! ([`PpvStore::stored_norm`]) that lets the online engine account for an
//! expanded hub's mass without scanning it. It is a pure function of the
//! score section — the scores of a segment summed in entry order — so it is
//! summed where a segment is written and once more over the score section
//! at [`FlatIndex::open`]; serializing it would add a field that can
//! disagree with the data it is derived from.

use std::fs::File;
use std::io::{self, Read, Write};
use std::path::Path;
use std::sync::Arc;

use fastppv_graph::{NodeId, SparseVector};

use crate::hubs::HubSet;
use crate::mapfile::Backing;

/// A stored prime PPV: the trivial-tour-excluded reachabilities `r̊⁰_v`
/// (see [`crate::prime`] for why the empty tour is excluded).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct PrimePpv {
    /// Sparse reachability entries, sorted by node id.
    pub entries: SparseVector,
}

impl PrimePpv {
    /// Number of stored entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether there are no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The hub entries (expansion candidates of the next iteration).
    pub fn border_hubs<'a>(&'a self, hubs: &'a HubSet) -> impl Iterator<Item = (NodeId, f64)> + 'a {
        self.entries
            .entries()
            .iter()
            .copied()
            .filter(move |&(v, _)| hubs.is_hub(v))
    }
}

/// A borrowed view of one stored prime PPV — the unit of the zero-copy
/// store contract (see the module docs).
///
/// Both variants borrow; a store's reads are always [`PpvRef::Soa`].
#[derive(Clone, Debug)]
pub enum PpvRef<'a> {
    /// Structure-of-arrays slices into a [`FlatIndex`] arena.
    Soa {
        /// Entry node ids, ascending.
        ids: &'a [NodeId],
        /// Scores, parallel to `ids`.
        scores: &'a [f64],
    },
    /// Array-of-structs entries borrowed from a sorted entry slice — the
    /// writer side: a [`PrimePpv`] or a delta patch's merge output on its
    /// way into the arena.
    Aos(&'a [(NodeId, f64)]),
}

impl PpvRef<'_> {
    /// Number of entries.
    pub fn len(&self) -> usize {
        match self {
            PpvRef::Soa { ids, .. } => ids.len(),
            PpvRef::Aos(entries) => entries.len(),
        }
    }

    /// Whether there are no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Calls `f(node, score)` for every entry, in ascending node-id order.
    #[inline]
    pub fn for_each(&self, mut f: impl FnMut(NodeId, f64)) {
        match self {
            PpvRef::Soa { ids, scores } => {
                for (&id, &s) in ids.iter().zip(scores.iter()) {
                    f(id, s);
                }
            }
            PpvRef::Aos(entries) => {
                for &(id, s) in *entries {
                    f(id, s);
                }
            }
        }
    }

    /// The score at entry position `pos` (used with the border-hub
    /// sublists of [`PpvStore::border_sublist`], whose positions index
    /// into this view).
    #[inline]
    pub fn score_at(&self, pos: usize) -> f64 {
        match self {
            PpvRef::Soa { scores, .. } => scores[pos],
            PpvRef::Aos(entries) => entries[pos].1,
        }
    }

    /// Sum of all scores.
    pub fn l1_norm(&self) -> f64 {
        let mut sum = 0.0;
        self.for_each(|_, s| sum += s);
        sum
    }

    /// Score of node `id`, or `None` if it has no entry. Binary search —
    /// the point lookup the delta-update path uses to read a changed
    /// tail's settled mass out of a stored PPV.
    pub fn score_of(&self, id: NodeId) -> Option<f64> {
        match self {
            PpvRef::Soa { ids, scores } => ids.binary_search(&id).ok().map(|pos| scores[pos]),
            PpvRef::Aos(entries) => entries
                .binary_search_by_key(&id, |&(v, _)| v)
                .ok()
                .map(|pos| entries[pos].1),
        }
    }

    /// Materializes an owned copy.
    pub fn to_prime_ppv(&self) -> PrimePpv {
        match self {
            PpvRef::Soa { ids, scores } => PrimePpv {
                entries: SparseVector::from_sorted(
                    ids.iter().copied().zip(scores.iter().copied()).collect(),
                ),
            },
            PpvRef::Aos(entries) => PrimePpv {
                entries: SparseVector::from_sorted(entries.to_vec()),
            },
        }
    }
}

/// Read access to precomputed prime PPVs.
///
/// The primary read is [`PpvStore::view`] — a borrowed, clone-free
/// [`PpvRef`]. Deep copies are reserved for callers that opt into
/// [`PpvStore::load`].
pub trait PpvStore {
    /// A borrowed view of `hub`'s prime PPV, or `None` if not indexed.
    fn view(&self, hub: NodeId) -> Option<PpvRef<'_>>;

    /// Whether `hub` is indexed.
    fn contains(&self, hub: NodeId) -> bool;

    /// Number of indexed hubs.
    fn hub_count(&self) -> usize;

    /// Total stored entries across hubs.
    fn total_entries(&self) -> usize;

    /// The precomputed border-hub sublist of `hub`'s PPV, or `None` if it
    /// is not indexed: the hub-entry node ids plus their positions within
    /// the PPV's entry list (so `view.score_at(pos)` is the hub's score).
    fn border_sublist(&self, hub: NodeId) -> Option<(&[NodeId], &[u32])>;

    /// `‖r̊⁰_hub‖₁`: the scores of `hub`'s stored PPV summed in entry
    /// order, or `None` if it is not indexed. The mass an expansion of
    /// `hub` covers is this times its coefficient, so the query engine's
    /// rounds never scan an entry to know `φ`.
    fn stored_norm(&self, hub: NodeId) -> Option<f64>;

    /// Materializes an owned copy of `hub`'s prime PPV (convenience; not
    /// the hot path).
    fn load(&self, hub: NodeId) -> Option<PrimePpv> {
        self.view(hub).map(|v| v.to_prime_ppv())
    }

    /// Exact byte size of the index file this store serializes to. The
    /// paper's nominal record size is [`crate::offline::OfflineStats`]'s.
    fn storage_bytes(&self) -> usize;

    /// Bytes this store keeps resident on the process heap.
    fn resident_bytes(&self) -> usize;

    /// Bytes this store serves through a memory-mapped file. Mapped bytes
    /// are page-cache resident at the kernel's discretion, not process
    /// heap.
    fn mapped_bytes(&self) -> usize;
}

impl<S: PpvStore> PpvStore for &S {
    fn view(&self, hub: NodeId) -> Option<PpvRef<'_>> {
        (**self).view(hub)
    }
    fn contains(&self, hub: NodeId) -> bool {
        (**self).contains(hub)
    }
    fn hub_count(&self) -> usize {
        (**self).hub_count()
    }
    fn total_entries(&self) -> usize {
        (**self).total_entries()
    }
    fn border_sublist(&self, hub: NodeId) -> Option<(&[NodeId], &[u32])> {
        (**self).border_sublist(hub)
    }
    fn stored_norm(&self, hub: NodeId) -> Option<f64> {
        (**self).stored_norm(hub)
    }
    fn storage_bytes(&self) -> usize {
        (**self).storage_bytes()
    }
    fn resident_bytes(&self) -> usize {
        (**self).resident_bytes()
    }
    fn mapped_bytes(&self) -> usize {
        (**self).mapped_bytes()
    }
}

/// The arena's name from when a second, slot-map layout existed. Kept only
/// for callers that still spell it; new code names [`FlatIndex`].
pub type MemoryIndex = FlatIndex;

/// Sentinel for "node is not an indexed hub" in [`FlatIndex::slot_of`].
const NO_SLOT: u32 = u32::MAX;

/// Why [`FlatIndex::open`] rejected a file. Header parsing fails closed:
/// a corrupt or truncated file yields `Format`, never a panic or an
/// out-of-bounds slice.
#[derive(Debug)]
pub enum OpenError {
    /// The underlying I/O failed.
    Io(io::Error),
    /// The file is not a well-formed `FPPVIDX3` arena.
    Format(String),
}

impl std::fmt::Display for OpenError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OpenError::Io(e) => write!(f, "arena open failed: {e}"),
            OpenError::Format(detail) => write!(f, "invalid arena file: {detail}"),
        }
    }
}

impl std::error::Error for OpenError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            OpenError::Io(e) => Some(e),
            OpenError::Format(_) => None,
        }
    }
}

impl From<io::Error> for OpenError {
    fn from(e: io::Error) -> Self {
        OpenError::Io(e)
    }
}

fn bad(detail: impl Into<String>) -> OpenError {
    OpenError::Format(detail.into())
}

/// A bounds-checked little-endian cursor over file bytes — the one way
/// [`FlatIndex::open`] reads a header, directory or spend field. Running
/// off the end of `what` is an [`OpenError::Format`], never a panic.
struct LeReader<'a> {
    bytes: &'a [u8],
    what: &'static str,
}

impl LeReader<'_> {
    fn take<const N: usize>(&mut self) -> Result<[u8; N], OpenError> {
        let (head, rest) = self
            .bytes
            .split_first_chunk::<N>()
            .ok_or_else(|| bad(format!("{} is truncated", self.what)))?;
        self.bytes = rest;
        Ok(*head)
    }

    fn u32(&mut self) -> Result<u32, OpenError> {
        self.take().map(u32::from_le_bytes)
    }

    fn u64(&mut self) -> Result<u64, OpenError> {
        self.take().map(u64::from_le_bytes)
    }

    fn f64(&mut self) -> Result<f64, OpenError> {
        self.take().map(f64::from_le_bytes)
    }
}

use crate::protocol_consts::{IDX3_MAGIC as FLAT_MAGIC, IDX3_VERSION as FLAT_VERSION};

const FLAT_HEADER_LEN: usize = 8 + 4 + 4 + 11 * 8;
const FLAT_DIR_RECORD_LEN: usize = 4 + 4 + 4 + 4 + 8 + 8;
/// Headers claiming more nodes than this are rejected before the
/// `slot_of` table is allocated (a corrupt header must not OOM the open).
const MAX_ARENA_NODES: u64 = 1 << 31;

/// Rounds up to the next multiple of 8 (section alignment), checked.
fn pad8(x: u64) -> Option<u64> {
    x.checked_add(7).map(|v| v & !7)
}

/// Section offsets of the `FPPVIDX3` layout, derived from the four counts
/// with checked arithmetic. The writer and the opener both compute it, so
/// a file whose stored offsets disagree is rejected as corrupt.
struct ArenaLayout {
    num_nodes: u64,
    num_hubs: u64,
    num_entries: u64,
    num_border: u64,
    dir_off: u64,
    spend_off: u64,
    ids_off: u64,
    scores_off: u64,
    border_ids_off: u64,
    border_pos_off: u64,
    file_len: u64,
}

impl ArenaLayout {
    fn compute(num_nodes: u64, num_hubs: u64, num_entries: u64, num_border: u64) -> Option<Self> {
        let dir_off = FLAT_HEADER_LEN as u64;
        let spend_off = dir_off.checked_add(num_hubs.checked_mul(FLAT_DIR_RECORD_LEN as u64)?)?;
        let ids_off = spend_off.checked_add(num_hubs.checked_mul(8)?)?;
        let scores_off = ids_off.checked_add(pad8(num_entries.checked_mul(4)?)?)?;
        let border_ids_off = scores_off.checked_add(num_entries.checked_mul(8)?)?;
        let border_pos_off = border_ids_off.checked_add(pad8(num_border.checked_mul(4)?)?)?;
        let file_len = border_pos_off.checked_add(pad8(num_border.checked_mul(4)?)?)?;
        Some(ArenaLayout {
            num_nodes,
            num_hubs,
            num_entries,
            num_border,
            dir_off,
            spend_off,
            ids_off,
            scores_off,
            border_ids_off,
            border_pos_off,
            file_len,
        })
    }

    /// The header fields after magic/version/flags, in file order.
    fn header_words(&self) -> [u64; 11] {
        [
            self.num_nodes,
            self.num_hubs,
            self.num_entries,
            self.num_border,
            self.dir_off,
            self.spend_off,
            self.ids_off,
            self.scores_off,
            self.border_ids_off,
            self.border_pos_off,
            self.file_len,
        ]
    }
}

/// Directory entry of one hub segment: which chunk holds it and where.
/// An empty segment lives in no chunk; its fields are all 0.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
struct SegRef {
    /// Index into [`FlatIndex::chunks`] (meaningless when `len` is 0).
    chunk: u32,
    /// Entry offset within the chunk.
    off: u32,
    /// Segment length (entries).
    len: u32,
    /// Border-sublist offset within the chunk.
    border_off: u32,
    /// Border-sublist length.
    border_len: u32,
}

/// Heap-resident chunk storage (the mutable kind).
#[derive(Clone, Debug, Default)]
struct OwnedChunk {
    ids: Vec<NodeId>,
    scores: Vec<f64>,
    border_ids: Vec<NodeId>,
    border_pos: Vec<u32>,
}

impl OwnedChunk {
    /// An empty chunk with room for exactly `len` entries and `border_len`
    /// border-sublist entries.
    fn with_capacity(len: usize, border_len: usize) -> Self {
        OwnedChunk {
            ids: Vec::with_capacity(len),
            scores: Vec::with_capacity(len),
            border_ids: Vec::with_capacity(border_len),
            border_pos: Vec::with_capacity(border_len),
        }
    }

    /// Gives back the vectors' spare capacity (a no-op when there is none).
    fn shrink(&mut self) {
        self.ids.shrink_to_fit();
        self.scores.shrink_to_fit();
        self.border_ids.shrink_to_fit();
        self.border_pos.shrink_to_fit();
    }

    /// Heap bytes the four vectors hold, spare capacity included.
    fn heap_bytes(&self) -> usize {
        self.ids.capacity() * 4
            + self.scores.capacity() * 8
            + self.border_ids.capacity() * 4
            + self.border_pos.capacity() * 4
    }
}

/// Chunk storage: heap vectors, or borrowed spans of an opened arena file.
#[derive(Debug)]
enum ChunkData {
    Owned(OwnedChunk),
    /// Byte spans of [`Backing`] (an `mmap` or its heap fallback). Only
    /// constructed on little-endian targets, where the file encoding *is*
    /// the in-memory encoding.
    Mapped {
        backing: Arc<Backing>,
        ids_off: usize,
        scores_off: usize,
        border_ids_off: usize,
        border_pos_off: usize,
        len: usize,
        border_len: usize,
    },
}

/// One span of the arena, at most [`FlatIndex::CHUNK_ENTRIES`] entries
/// unless a single segment is larger. Chunks are immutable once sealed
/// (shared with a snapshot, file-backed, or full); only the unique owned
/// tail chunk ever grows. Snapshot clones `Arc`-share chunks wholesale —
/// the copy-on-write unit of the publish path.
#[derive(Debug)]
struct Chunk {
    data: ChunkData,
}

/// A directory's handle on one chunk: the shared bytes, and how many of
/// its entries *this* directory has tombstoned. Snapshots sharing a chunk
/// each count their own dead entries in it.
#[derive(Clone, Debug)]
struct ChunkRef {
    data: Arc<Chunk>,
    dead: usize,
}

impl ChunkRef {
    fn new(chunk: Chunk) -> Self {
        ChunkRef {
            data: Arc::new(chunk),
            dead: 0,
        }
    }

    /// Whether the tombstoned share of the chunk has passed
    /// [`FlatIndex::COMPACTION_THRESHOLD`].
    fn over_threshold(&self) -> bool {
        self.dead as f64 > FlatIndex::COMPACTION_THRESHOLD * self.data.len() as f64
    }

    /// Whether no other snapshot holds the chunk.
    fn is_unshared(&self) -> bool {
        Arc::strong_count(&self.data) == 1
    }

    /// Whether appends may write into the chunk: heap-owned and unshared.
    fn is_open(&self) -> bool {
        self.is_unshared() && self.data.is_owned()
    }
}

#[cfg(target_endian = "little")]
fn map_u32s(backing: &Backing, off: usize, n: usize) -> &[u32] {
    let bytes = &backing.bytes()[off..off + n * 4];
    debug_assert_eq!(bytes.as_ptr() as usize % 4, 0);
    // SAFETY: the slice covers exactly n*4 in-bounds bytes of the backing
    // (which outlives the return via the borrow), the arena layout keeps
    // every section 4-aligned from an 8-aligned base, and on this
    // little-endian target the file encoding is the in-memory encoding.
    unsafe { std::slice::from_raw_parts(bytes.as_ptr().cast::<u32>(), n) }
}

#[cfg(target_endian = "little")]
fn map_f64s(backing: &Backing, off: usize, n: usize) -> &[f64] {
    let bytes = &backing.bytes()[off..off + n * 8];
    debug_assert_eq!(bytes.as_ptr() as usize % 8, 0);
    // SAFETY: the slice covers exactly n*8 in-bounds bytes of the backing,
    // the score section is 8-aligned from the backing's 8-aligned base,
    // any bit pattern is a valid f64, and this target is little-endian.
    unsafe { std::slice::from_raw_parts(bytes.as_ptr().cast::<f64>(), n) }
}

impl Chunk {
    fn from_owned(owned: OwnedChunk) -> Self {
        Chunk {
            data: ChunkData::Owned(owned),
        }
    }

    fn is_owned(&self) -> bool {
        matches!(self.data, ChunkData::Owned(_))
    }

    /// Whether the chunk borrows from a kernel file mapping (as opposed to
    /// heap memory, owned or heap-fallback backing).
    fn is_file_mapped(&self) -> bool {
        match &self.data {
            ChunkData::Owned(_) => false,
            ChunkData::Mapped { backing, .. } => backing.is_file_mapped(),
        }
    }

    fn owned_mut(&mut self) -> &mut OwnedChunk {
        match &mut self.data {
            ChunkData::Owned(o) => o,
            ChunkData::Mapped { .. } => unreachable!("appends only target owned tail chunks"),
        }
    }

    fn len(&self) -> usize {
        match &self.data {
            ChunkData::Owned(o) => o.ids.len(),
            ChunkData::Mapped { len, .. } => *len,
        }
    }

    fn border_len(&self) -> usize {
        match &self.data {
            ChunkData::Owned(o) => o.border_ids.len(),
            ChunkData::Mapped { border_len, .. } => *border_len,
        }
    }

    fn ids(&self) -> &[NodeId] {
        match &self.data {
            ChunkData::Owned(o) => &o.ids,
            ChunkData::Mapped {
                backing,
                ids_off,
                len,
                ..
            } => map_u32s(backing, *ids_off, *len),
        }
    }

    fn scores(&self) -> &[f64] {
        match &self.data {
            ChunkData::Owned(o) => &o.scores,
            ChunkData::Mapped {
                backing,
                scores_off,
                len,
                ..
            } => map_f64s(backing, *scores_off, *len),
        }
    }

    fn border_ids(&self) -> &[NodeId] {
        match &self.data {
            ChunkData::Owned(o) => &o.border_ids,
            ChunkData::Mapped {
                backing,
                border_ids_off,
                border_len,
                ..
            } => map_u32s(backing, *border_ids_off, *border_len),
        }
    }

    fn border_pos(&self) -> &[u32] {
        match &self.data {
            ChunkData::Owned(o) => &o.border_pos,
            ChunkData::Mapped {
                backing,
                border_pos_off,
                border_len,
                ..
            } => map_u32s(backing, *border_pos_off, *border_len),
        }
    }

    /// Bytes of entry + border data viewed through this chunk.
    fn data_bytes(&self) -> usize {
        self.len() * (4 + 8) + self.border_len() * (4 + 4)
    }

    /// Bytes the chunk keeps on the process heap: an owned chunk's
    /// vectors at their capacity, a heap-fallback backing's viewed span,
    /// nothing for spans of a kernel file mapping.
    fn heap_bytes(&self) -> usize {
        match &self.data {
            ChunkData::Owned(o) => o.heap_bytes(),
            ChunkData::Mapped { .. } if self.is_file_mapped() => 0,
            ChunkData::Mapped { .. } => self.data_bytes(),
        }
    }
}

/// The flat structure-of-arrays PPV index — the online hot path.
///
/// All entries live in *chunks* (`ids` / `scores` parallel arrays plus
/// each segment's precomputed *border-hub sublist*: the positions of the
/// entries that are themselves hubs, so the query engine's `step()` walks
/// only the expansion candidates instead of filtering every entry through
/// a hub mask). A per-hub directory ([`SegRef`], budget spend, and the
/// in-memory norm `‖r̊⁰_h‖₁` that lets `step()` account for a hub's mass
/// without scanning it) carves the chunks into segments; segments never
/// span a chunk boundary.
///
/// Reads are zero-copy: [`PpvStore::view`] returns slices into the chunk.
/// A chunk either owns its vectors on the heap or borrows spans of an
/// opened `FPPVIDX3` file ([`FlatIndex::open`] — `mmap` where available).
/// Sealed owned chunks hold no spare capacity — a patch reserves exactly
/// the segment it writes, a build's chunk gives its spare back once full
/// or sealed, a compaction sizes its chunk before filling it — and
/// [`FlatIndex::resident_bytes`] counts their capacity.
///
/// ## Copy-on-write snapshots
///
/// `Clone` is shallow: chunks and the node → slot map (`slot_of`, 4 B
/// per node, written only when a hub is first inserted) are `Arc`-shared
/// and only the per-hub directory (`segs`, `spent`, `norms`, and a dead
/// count per chunk) is copied, so publishing a patched snapshot costs
/// microseconds instead of a deep arena copy. Mutations never write
/// through a shared chunk: appends that would touch a shared (or
/// file-backed, or full) tail chunk *seal* it and start a fresh owned
/// chunk instead — see [`FlatIndex::CHUNK_ENTRIES`]. The only bulk copy
/// left is compaction — per [`FlatIndex::seal`], at most one chunk's
/// entries plus the refresh's tombstones over the threshold — and
/// [`FlatIndex::bytes_cloned`] meters it.
///
/// ## Dynamic updates
///
/// [`FlatIndex::replace`] patches a segment by tombstoning the old one
/// (a directory edit — chunk bytes are left in place) and appending the
/// new entries at the tail chunk. Dead entries are counted per chunk, and
/// compaction works one chunk at a time: once a chunk's dead share passes
/// [`FlatIndex::COMPACTION_THRESHOLD`], its live segments move into a
/// fresh chunk sized to them and its `Arc` is dropped. A chunk no other
/// snapshot holds is compacted by the tombstone that takes it past the
/// threshold; one a snapshot still reads waits for [`FlatIndex::seal`],
/// the publish boundary, which rewrites at most
/// [`FlatIndex::CHUNK_ENTRIES`] entries' worth of chunks plus the entries
/// the refresh tombstoned divided by the threshold, so reclaiming keeps
/// pace with batches of any size. The arena's memory peak while a
/// snapshot is being patched is therefore the live arena, its dead
/// entries, one chunk and a multiple of what the refresh itself replaced
/// — never two arenas.
#[derive(Clone, Debug)]
pub struct FlatIndex {
    /// node id → directory slot (or [`NO_SLOT`]); shared between clones
    /// until a hub is first inserted.
    slot_of: Arc<[u32]>,
    /// slot → hub id.
    hub_ids: Vec<NodeId>,
    /// slot → segment location.
    segs: Vec<SegRef>,
    /// The arena: `Arc`-shared chunks and this directory's dead count in
    /// each.
    chunks: Vec<ChunkRef>,
    /// Live (non-tombstoned) arena entries.
    live_entries: usize,
    /// Entries tombstoned since the last [`FlatIndex::seal`]: the seal's
    /// compaction budget grows with them.
    tombstoned: usize,
    /// Chunk compactions performed over the arena's lifetime.
    compactions: u64,
    /// Cumulative chunk bytes deep-copied by compactions over the arena's
    /// lifetime.
    bytes_cloned: u64,
    /// slot → accumulated score-L1 error bound of the segment relative to
    /// an exact recompute — runtime state of the delta-update path
    /// ([`crate::dynamic`]), serialized in the arena's spend section.
    spent: Vec<f64>,
    /// slot → `‖r̊⁰_h‖₁`, the segment's scores summed in entry order
    /// ([`PpvStore::stored_norm`]). In memory only: derived from the score
    /// section wherever a segment is written or a file is opened.
    norms: Vec<f64>,
}

impl FlatIndex {
    /// Dead-entry fraction of one chunk past which the chunk is compacted:
    /// at once when no other snapshot holds it, else at the next
    /// [`FlatIndex::seal`].
    pub const COMPACTION_THRESHOLD: f64 = 0.3;

    /// Target entries per chunk — the copy-on-write granule, and the most
    /// entries one [`FlatIndex::seal`] compacts beyond the share its
    /// refresh's tombstones buy. A segment larger than this gets a chunk
    /// of its own (segments never span chunks).
    pub const CHUNK_ENTRIES: usize = 1 << 16;

    /// An empty arena for graphs of `n` nodes.
    pub fn new(n: usize) -> Self {
        FlatIndex {
            slot_of: vec![NO_SLOT; n].into(),
            hub_ids: Vec::new(),
            segs: Vec::new(),
            chunks: Vec::new(),
            live_entries: 0,
            tombstoned: 0,
            compactions: 0,
            bytes_cloned: 0,
            spent: Vec::new(),
            norms: Vec::new(),
        }
    }

    /// Appends a brand-new segment for `hub` (which must not be indexed
    /// yet — use [`FlatIndex::replace`] to patch an existing hub).
    pub fn insert(&mut self, hub: NodeId, ppv: &PrimePpv, hubs: &HubSet) {
        assert!(
            self.slot_of[hub as usize] == NO_SLOT,
            "hub {hub} already indexed (use replace)"
        );
        self.append_segment(hub, &PpvRef::Aos(ppv.entries.entries()), hubs);
    }

    /// Appends `hub`'s segment and budget spend copied straight from
    /// `src`'s arena — the bytes a shard's slice serves are the ones the
    /// whole arena holds. `hub` must be indexed in `src` and not here.
    pub fn insert_from(&mut self, src: &FlatIndex, hub: NodeId, hubs: &HubSet) {
        let view = src
            .view(hub)
            .unwrap_or_else(|| panic!("hub {hub} has no prime PPV in the source arena"));
        assert!(
            self.slot_of[hub as usize] == NO_SLOT,
            "hub {hub} already indexed (use replace)"
        );
        self.append_segment(hub, &view, hubs);
        self.set_budget_spent(hub, src.budget_spent(hub));
    }

    /// Replaces `hub`'s prime PPV: tombstone-and-append, then compaction
    /// of the old segment's chunk once its dead share crosses
    /// [`FlatIndex::COMPACTION_THRESHOLD`].
    pub fn replace(&mut self, hub: NodeId, ppv: &PrimePpv, hubs: &HubSet) {
        self.replace_entries(hub, ppv.entries.entries(), hubs);
    }

    /// [`FlatIndex::replace`] over a raw sorted entry slice — the
    /// delta-update path patches segments from its merge scratch without
    /// materializing a [`PrimePpv`]. Resets the slot's budget spend to 0;
    /// delta patches re-apply theirs via [`FlatIndex::set_budget_spent`].
    pub fn replace_entries(&mut self, hub: NodeId, entries: &[(NodeId, f64)], hubs: &HubSet) {
        let view = PpvRef::Aos(entries);
        let slot = self.slot_of[hub as usize];
        if slot == NO_SLOT {
            self.append_segment(hub, &view, hubs);
            return;
        }
        let slot = slot as usize;
        // Tombstone the old segment: a pure directory edit. The old chunk
        // bytes are left in place, so snapshots sharing the chunk keep
        // reading them untouched.
        let old = self.segs[slot];
        self.live_entries -= old.len as usize;
        self.tombstoned += old.len as usize;
        if old.len > 0 {
            self.chunks[old.chunk as usize].dead += old.len as usize;
        }
        // Append the new segment and point the directory at it.
        (self.segs[slot], self.norms[slot]) = self.push_segment_data(&view, hubs, true);
        self.spent[slot] = 0.0;
        if old.len > 0 {
            let c = &self.chunks[old.chunk as usize];
            // No other snapshot reads the chunk: compacting it frees its
            // bytes now. A shared one waits for the publish boundary.
            if c.over_threshold() && c.is_unshared() {
                self.compact_chunks(&[old.chunk as usize]);
            }
        }
    }

    /// Readies the arena to be shared as a snapshot — the publish boundary
    /// of the update path ([`crate::dynamic::Refresher::refresh`] ends
    /// with it, and the offline builders with it):
    ///
    /// * the open tail gives back its spare capacity;
    /// * chunks past [`FlatIndex::COMPACTION_THRESHOLD`], the largest dead
    ///   share first, and the run of small chunks at the end of the arena
    ///   (each refresh seals one; a chunk joins the run while it is at
    ///   most twice the run's entries and the run stays within one chunk,
    ///   so the small chunks stay a geometric series) are compacted
    ///   together into chunks sized to their live segments.
    ///
    /// One seal compacts at most [`FlatIndex::CHUNK_ENTRIES`] stored
    /// entries plus the entries tombstoned since the last seal divided by
    /// the threshold (and always at least the first chunk it picks). Each
    /// chunk compacted past the threshold reclaims more than the
    /// threshold's share of itself, so a seal that leaves a chunk past the
    /// threshold has reclaimed more dead entries than the refresh
    /// tombstoned: dead entries never pile up, however large the batches.
    /// The bytes a pinned snapshot keeps alive beside the sealed one stay
    /// under one chunk's plus that refresh's share.
    pub fn seal(&mut self) {
        let tombstoned = std::mem::take(&mut self.tombstoned);
        let Some(last) = self.chunks.last_mut() else {
            return;
        };
        // The open tail was written since the last seal; it is left out
        // of this seal's compaction and joins the run at the next one.
        let open_tail = last.is_open();
        if open_tail {
            Arc::get_mut(&mut last.data)
                .expect("an open tail is unshared")
                .owned_mut()
                .shrink();
        }
        let end = self.chunks.len() - usize::from(open_tail);
        let cap =
            Self::CHUNK_ENTRIES + (tombstoned as f64 / Self::COMPACTION_THRESHOLD).ceil() as usize;
        let mut picked = vec![false; end];
        let mut budget = 0usize;
        let mut over: Vec<usize> = (0..end)
            .filter(|&c| self.chunks[c].over_threshold())
            .collect();
        let share = |c: usize| self.chunks[c].dead as f64 / self.chunks[c].data.len() as f64;
        over.sort_by(|&a, &b| share(b).total_cmp(&share(a)));
        for c in over {
            let len = self.chunks[c].data.len();
            if budget == 0 || budget + len <= cap {
                picked[c] = true;
                budget += len;
            }
        }
        // The trailing run of small sealed chunks.
        let (mut run, mut first) = (0usize, end);
        while first > 0 {
            let len = self.chunks[first - 1].data.len();
            let extra = if picked[first - 1] { 0 } else { len };
            if (first < end && len > 2 * run)
                || run + len > Self::CHUNK_ENTRIES
                || budget + extra > cap
            {
                break;
            }
            run += len;
            budget += extra;
            first -= 1;
        }
        if end - first >= 2 {
            picked[first..].fill(true);
        }
        let picked: Vec<usize> = (0..end).filter(|&c| picked[c]).collect();
        if !picked.is_empty() {
            self.compact_chunks(&picked);
        }
    }

    /// Compacts every chunk that holds dead entries or borrows a file:
    /// the same per-chunk routine [`FlatIndex::seal`] runs, over all of
    /// them, at most [`FlatIndex::CHUNK_ENTRIES`] entries per rewrite, so
    /// the arena is never held twice. Afterwards no entry is dead and the
    /// whole arena is on the heap (a mapped arena's file is released once
    /// its other holders drop it). The copied bytes are metered in
    /// [`FlatIndex::bytes_cloned`].
    pub fn compact(&mut self) {
        loop {
            let mut picked = Vec::new();
            let mut budget = 0usize;
            for (c, chunk) in self.chunks.iter().enumerate() {
                let len = chunk.data.len();
                if (chunk.dead > 0 || !chunk.data.is_owned())
                    && (budget == 0 || budget + len <= Self::CHUNK_ENTRIES)
                {
                    picked.push(c);
                    budget += len;
                }
            }
            if picked.is_empty() {
                return;
            }
            self.compact_chunks(&picked);
        }
    }

    /// The one compaction routine: moves the live segments of the
    /// `picked` chunks (ascending indices), in chunk then offset order,
    /// into fresh chunks of at most [`FlatIndex::CHUNK_ENTRIES`] entries
    /// (a larger segment gets one of its own), each sized before it is
    /// filled, and drops the picked chunks. The new chunks go after every
    /// kept chunk but an open tail, so appends keep landing where they
    /// did. Snapshots sharing a dropped chunk keep reading it until they
    /// let it go.
    fn compact_chunks(&mut self, picked: &[usize]) {
        let n = self.chunks.len();
        let mut is_picked = vec![false; n];
        for &c in picked {
            is_picked[c] = true;
        }
        let open_tail = !is_picked[n - 1] && self.chunks[n - 1].is_open();
        let mut moving: Vec<usize> = (0..self.segs.len())
            .filter(|&s| self.segs[s].len > 0 && is_picked[self.segs[s].chunk as usize])
            .collect();
        moving.sort_unstable_by_key(|&s| (self.segs[s].chunk, self.segs[s].off));
        // Each new chunk's (entries, border entries): a segment starts the
        // next chunk when it would take the current one past the target.
        let mut sizes: Vec<(usize, usize)> = Vec::new();
        for &s in &moving {
            let (len, border_len) = (self.segs[s].len as usize, self.segs[s].border_len as usize);
            match sizes.last_mut() {
                Some((l, b)) if *l + len <= Self::CHUNK_ENTRIES => {
                    *l += len;
                    *b += border_len;
                }
                _ => sizes.push((len, border_len)),
            }
        }
        // Kept chunks in order, then the new ones, then an open tail.
        let mut new_index = vec![0u32; n];
        let mut kept = 0u32;
        for c in 0..n - usize::from(open_tail) {
            if !is_picked[c] {
                new_index[c] = kept;
                kept += 1;
            }
        }
        if open_tail {
            new_index[n - 1] = kept + sizes.len() as u32;
        }
        for seg in &mut self.segs {
            if seg.len > 0 && !is_picked[seg.chunk as usize] {
                seg.chunk = new_index[seg.chunk as usize];
            }
        }
        let mut outs: Vec<OwnedChunk> = sizes
            .iter()
            .map(|&(len, border_len)| OwnedChunk::with_capacity(len, border_len))
            .collect();
        let mut o = 0;
        for &s in &moving {
            let old = self.segs[s];
            let src = &self.chunks[old.chunk as usize].data;
            let (off, l) = (old.off as usize, old.len as usize);
            let (bo, bl) = (old.border_off as usize, old.border_len as usize);
            if outs[o].ids.len() + l > sizes[o].0 {
                o += 1;
            }
            let out = &mut outs[o];
            let new_off = out.ids.len() as u32;
            let border_off = out.border_ids.len() as u32;
            out.ids.extend_from_slice(&src.ids()[off..off + l]);
            out.scores.extend_from_slice(&src.scores()[off..off + l]);
            out.border_ids
                .extend_from_slice(&src.border_ids()[bo..bo + bl]);
            out.border_pos
                .extend_from_slice(&src.border_pos()[bo..bo + bl]);
            self.segs[s] = SegRef {
                chunk: kept + o as u32,
                off: new_off,
                border_off,
                ..old
            };
        }
        let copied: usize = outs.iter().map(OwnedChunk::heap_bytes).sum();
        let mut chunks = Vec::with_capacity(n + outs.len() - picked.len());
        let mut old_chunks = std::mem::take(&mut self.chunks).into_iter();
        let tail = if open_tail {
            old_chunks.next_back()
        } else {
            None
        };
        chunks.extend(
            old_chunks
                .enumerate()
                .filter(|(c, _)| !is_picked[*c])
                .map(|(_, chunk)| chunk),
        );
        chunks.extend(
            outs.into_iter()
                .map(|o| ChunkRef::new(Chunk::from_owned(o))),
        );
        chunks.extend(tail);
        self.chunks = chunks;
        self.compactions += 1;
        self.bytes_cloned += copied as u64;
    }

    /// Appends a fresh directory slot for `hub` backed by a new arena
    /// segment.
    fn append_segment(&mut self, hub: NodeId, view: &PpvRef<'_>, hubs: &HubSet) {
        let slot = self.hub_ids.len() as u32;
        Arc::make_mut(&mut self.slot_of)[hub as usize] = slot;
        self.hub_ids.push(hub);
        let (seg, norm) = self.push_segment_data(view, hubs, false);
        self.segs.push(seg);
        self.spent.push(0.0);
        self.norms.push(norm);
    }

    /// Copies one segment's entries (and its border-hub sublist) into the
    /// tail chunk — the single place the segment encoding is written — and
    /// returns the segment's location and its norm (the scores summed in
    /// the order they are copied). An empty segment occupies no chunk.
    ///
    /// The tail chunk is grown in place only while it is uniquely owned,
    /// heap-resident, and has room; otherwise it is *sealed* and a fresh
    /// owned chunk is started. Appends therefore never deep-copy a chunk a
    /// snapshot is still reading — that is what makes the shallow `Clone` a
    /// sound copy-on-write publish.
    ///
    /// With `exact`, the tail grows by exactly this segment: a patch's few
    /// segments leave nothing spare for the seal to give back. Otherwise
    /// it grows geometrically, as a build that fills whole chunks hub by
    /// hub needs, and gives its spare capacity back once it is full (or at
    /// the next [`FlatIndex::seal`]).
    fn push_segment_data(
        &mut self,
        view: &PpvRef<'_>,
        hubs: &HubSet,
        exact: bool,
    ) -> (SegRef, f64) {
        let need = view.len();
        if need == 0 {
            return (SegRef::default(), 0.0);
        }
        let start_new = match self.chunks.last_mut() {
            None => true,
            Some(tail) if !tail.is_open() => true,
            Some(tail) => {
                let full = tail.data.len() > 0 && tail.data.len() + need > Self::CHUNK_ENTRIES;
                if full {
                    Arc::get_mut(&mut tail.data)
                        .expect("an open tail is unshared")
                        .owned_mut()
                        .shrink();
                }
                full
            }
        };
        if start_new {
            self.chunks
                .push(ChunkRef::new(Chunk::from_owned(OwnedChunk::default())));
        }
        let ci = self.chunks.len() - 1;
        let chunk = Arc::get_mut(&mut self.chunks[ci].data)
            .expect("tail chunk is uniquely owned")
            .owned_mut();
        if exact {
            let mut border = 0;
            view.for_each(|id, _| border += usize::from(hubs.is_hub(id)));
            chunk.ids.reserve_exact(need);
            chunk.scores.reserve_exact(need);
            chunk.border_ids.reserve_exact(border);
            chunk.border_pos.reserve_exact(border);
        } else {
            chunk.ids.reserve(need);
            chunk.scores.reserve(need);
        }
        let off = chunk.ids.len() as u32;
        let border_off = chunk.border_ids.len() as u32;
        let mut n_border = 0u32;
        let mut norm = 0.0;
        view.for_each(|id, s| {
            if hubs.is_hub(id) {
                chunk.border_ids.push(id);
                chunk.border_pos.push(chunk.ids.len() as u32 - off);
                n_border += 1;
            }
            chunk.ids.push(id);
            chunk.scores.push(s);
            norm += s;
        });
        self.live_entries += need;
        let seg = SegRef {
            chunk: ci as u32,
            off,
            len: need as u32,
            border_off,
            border_len: n_border,
        };
        (seg, norm)
    }

    /// The entry slices of a segment.
    fn seg_entries(&self, seg: SegRef) -> (&[NodeId], &[f64]) {
        if seg.len == 0 {
            return (&[], &[]);
        }
        let c = &self.chunks[seg.chunk as usize].data;
        let (o, l) = (seg.off as usize, seg.len as usize);
        (&c.ids()[o..o + l], &c.scores()[o..o + l])
    }

    /// The border-sublist slices of a segment.
    fn seg_borders(&self, seg: SegRef) -> (&[NodeId], &[u32]) {
        if seg.border_len == 0 {
            return (&[], &[]);
        }
        let c = &self.chunks[seg.chunk as usize].data;
        let (o, l) = (seg.border_off as usize, seg.border_len as usize);
        (&c.border_ids()[o..o + l], &c.border_pos()[o..o + l])
    }

    /// Indexed hub ids, in slot order (insertion order).
    pub fn hub_ids(&self) -> &[NodeId] {
        &self.hub_ids
    }

    /// Number of node slots (the graph size the arena was created for).
    pub fn capacity(&self) -> usize {
        self.slot_of.len()
    }

    /// Tombstoned arena entries currently awaiting compaction.
    pub fn dead_entries(&self) -> usize {
        self.chunks.iter().map(|c| c.dead).sum()
    }

    /// Chunk compactions performed over the arena's lifetime.
    pub fn compactions(&self) -> u64 {
        self.compactions
    }

    /// Accumulated error-budget spend of `hub`'s segment (score-L1 bound
    /// vs an exact recompute; see [`crate::dynamic`]).
    pub fn budget_spent(&self, hub: NodeId) -> f64 {
        match self.slot_of.get(hub as usize) {
            Some(&slot) if slot != NO_SLOT => self.spent[slot as usize],
            _ => 0.0,
        }
    }

    /// Sets `hub`'s accumulated error-budget spend (delta refresh only).
    pub fn set_budget_spent(&mut self, hub: NodeId, spent: f64) {
        let slot = self.slot_of[hub as usize];
        assert!(slot != NO_SLOT, "hub {hub} not indexed");
        self.spent[slot as usize] = spent;
    }

    /// Largest per-hub budget spend in the arena — the watermark reported
    /// by [`crate::dynamic::RefreshStats`].
    pub fn budget_watermark(&self) -> f64 {
        self.spent.iter().copied().fold(0.0, f64::max)
    }

    /// Bytes a shallow snapshot clone copies: the per-hub directory
    /// (`hub_ids`, `segs`, `spent`, `norms` — 40 B a hub) and the chunk
    /// handles with their dead counts (16 B a chunk). The node → slot map
    /// is shared, not copied.
    pub(crate) fn snapshot_bytes(&self) -> usize {
        self.hub_ids.len() * 4
            + self.segs.len() * std::mem::size_of::<SegRef>()
            + self.spent.len() * 8
            + self.norms.len() * 8
            + self.chunks.len() * std::mem::size_of::<ChunkRef>()
    }

    /// Directory overhead in bytes: the node → slot map plus what a
    /// snapshot clone copies.
    fn directory_bytes(&self) -> usize {
        self.slot_of.len() * 4 + self.snapshot_bytes()
    }

    /// Bytes viewed through the arena chunks (including tombstoned
    /// segments and the border sublists) plus the directory — the total
    /// working-set figure, as opposed to the on-disk-equivalent
    /// [`PpvStore::storage_bytes`].
    pub fn arena_bytes(&self) -> usize {
        self.chunks
            .iter()
            .map(|c| c.data.data_bytes())
            .sum::<usize>()
            + self.directory_bytes()
    }

    /// Bytes resident on the process heap: owned chunks at their capacity,
    /// heap-fallback file backings, and the directory. Memory behind a
    /// kernel file mapping is *not* counted here — see
    /// [`FlatIndex::mapped_bytes`].
    pub fn resident_bytes(&self) -> usize {
        self.chunks
            .iter()
            .map(|c| c.data.heap_bytes())
            .sum::<usize>()
            + self.directory_bytes()
    }

    /// Bytes served through `mmap`-backed chunks (page-cache resident at
    /// the kernel's discretion; an arena larger than RAM stays openable).
    pub fn mapped_bytes(&self) -> usize {
        self.chunks
            .iter()
            .filter(|c| c.data.is_file_mapped())
            .map(|c| c.data.data_bytes())
            .sum::<usize>()
    }

    /// Cumulative chunk bytes deep-copied over the arena's lifetime
    /// (compaction rewrites; zero for shallow snapshot clones and
    /// tombstone patches). The delta-refresh path reports the per-refresh
    /// difference, plus the directory the refresh's clone copied, as
    /// [`crate::dynamic::RefreshStats::cloned_bytes`].
    pub fn bytes_cloned(&self) -> u64 {
        self.bytes_cloned
    }

    /// Number of chunks currently backing the arena.
    pub fn chunk_count(&self) -> usize {
        self.chunks.len()
    }

    /// How many of `self`'s chunks are the *same allocation* as one of
    /// `other`'s — the copy-on-write sharing observable across a snapshot
    /// clone.
    pub fn shared_chunk_count(&self, other: &FlatIndex) -> usize {
        self.chunks
            .iter()
            .filter(|c| other.chunks.iter().any(|o| Arc::ptr_eq(&c.data, &o.data)))
            .count()
    }

    /// Exact byte size of the `FPPVIDX3` serialization of this arena.
    pub fn file_bytes(&self) -> usize {
        let num_border: u64 = self.segs.iter().map(|s| s.border_len as u64).sum();
        ArenaLayout::compute(
            self.slot_of.len() as u64,
            self.hub_ids.len() as u64,
            self.live_entries as u64,
            num_border,
        )
        .expect("arena sizes fit u64")
        .file_len as usize
    }

    /// Serializes to the `FPPVIDX3` arena format: live segments only, in
    /// ascending hub-id order — so the bytes are independent of the
    /// in-memory chunk/tombstone state and two equal arenas serialize
    /// byte-identically. The per-hub budget spend is included.
    pub fn write_to_file<P: AsRef<Path>>(&self, path: P) -> io::Result<()> {
        let mut sorted = self.hub_ids.clone();
        sorted.sort_unstable();
        let num_border: u64 = self.segs.iter().map(|s| s.border_len as u64).sum();
        let layout = ArenaLayout::compute(
            self.slot_of.len() as u64,
            sorted.len() as u64,
            self.live_entries as u64,
            num_border,
        )
        .expect("arena sizes fit u64");
        // Published atomically (temp + fsync + rename): a crash mid-write
        // can never leave a torn FPPVIDX3 file at `path`, so `open`'s
        // fail-closed validation only ever sees external corruption.
        crate::atomic_io::write_atomic(path, |w| {
            w.write_all(FLAT_MAGIC)?;
            w.write_all(&FLAT_VERSION.to_le_bytes())?;
            w.write_all(&0u32.to_le_bytes())?;
            for word in layout.header_words() {
                w.write_all(&word.to_le_bytes())?;
            }
            // Directory: tightly packed ascending hubs.
            let (mut entry_start, mut border_start) = (0u64, 0u64);
            for &h in &sorted {
                let seg = self.segs[self.slot_of[h as usize] as usize];
                w.write_all(&h.to_le_bytes())?;
                w.write_all(&seg.len.to_le_bytes())?;
                w.write_all(&seg.border_len.to_le_bytes())?;
                w.write_all(&0u32.to_le_bytes())?;
                w.write_all(&entry_start.to_le_bytes())?;
                w.write_all(&border_start.to_le_bytes())?;
                entry_start += seg.len as u64;
                border_start += seg.border_len as u64;
            }
            // Spend section (directory order).
            for &h in &sorted {
                let spent = self.spent[self.slot_of[h as usize] as usize];
                w.write_all(&spent.to_le_bytes())?;
            }
            // Entry ids, then scores; then the border sublists.
            let pad = |n: u64| (pad8(n).unwrap() - n) as usize;
            for &h in &sorted {
                let seg = self.segs[self.slot_of[h as usize] as usize];
                write_u32s(w, self.seg_entries(seg).0)?;
            }
            w.write_all(&[0u8; 8][..pad(layout.num_entries * 4)])?;
            for &h in &sorted {
                let seg = self.segs[self.slot_of[h as usize] as usize];
                write_f64s(w, self.seg_entries(seg).1)?;
            }
            for &h in &sorted {
                let seg = self.segs[self.slot_of[h as usize] as usize];
                write_u32s(w, self.seg_borders(seg).0)?;
            }
            w.write_all(&[0u8; 8][..pad(layout.num_border * 4)])?;
            for &h in &sorted {
                let seg = self.segs[self.slot_of[h as usize] as usize];
                write_u32s(w, self.seg_borders(seg).1)?;
            }
            w.write_all(&[0u8; 8][..pad(layout.num_border * 4)])?;
            Ok(())
        })
    }

    /// Opens a `FPPVIDX3` arena file zero-copy: the file is mapped (or
    /// heap-loaded where `mmap` is unavailable) and the sections become
    /// borrowed chunks — no decode pass and nothing copied. Open reads
    /// the header, the directory, the border positions (validation) and
    /// the score section once (the per-hub norms).
    ///
    /// Fails closed: every header and directory field is read through one
    /// bounds-checked reader and validated with checked arithmetic (magic,
    /// version, section offsets, bounds, tight packing, border positions)
    /// before any data is referenced. A corrupt file — or one of the
    /// retired `FPPVIDX1` / `FPPVIDX2` formats — yields
    /// [`OpenError::Format`], never a panic.
    pub fn open<P: AsRef<Path>>(path: P) -> Result<FlatIndex, OpenError> {
        let file = File::open(path)?;
        let file_len = file.metadata()?.len();
        let byte_len =
            usize::try_from(file_len).map_err(|_| bad("file larger than the address space"))?;
        let mut header = Vec::with_capacity(FLAT_HEADER_LEN);
        (&file)
            .take(FLAT_HEADER_LEN as u64)
            .read_to_end(&mut header)?;
        let mut r = LeReader {
            bytes: &header,
            what: "arena header",
        };
        let magic: [u8; 8] = r.take()?;
        if let b"FPPVIDX1" | b"FPPVIDX2" = &magic {
            return Err(bad(format!(
                "{} is a retired index format this binary no longer reads; \
                 rebuild the index with `fastppv build`",
                String::from_utf8_lossy(&magic)
            )));
        }
        if &magic != FLAT_MAGIC {
            return Err(bad("not a FastPPV arena (bad magic)"));
        }
        let version = r.u32()?;
        if version != FLAT_VERSION {
            return Err(bad(format!(
                "unsupported arena version {version} (expected {FLAT_VERSION}); \
                 rebuild the index with this binary"
            )));
        }
        let flags = r.u32()?;
        if flags != 0 {
            return Err(bad(format!("unknown flags 0x{flags:x}")));
        }
        let mut words = [0u64; 11];
        for word in &mut words {
            *word = r.u64()?;
        }
        let [num_nodes, num_hubs, num_entries, num_border, ..] = words;
        if num_nodes > MAX_ARENA_NODES {
            return Err(bad(format!("implausible node count {num_nodes}")));
        }
        if num_hubs > num_nodes {
            return Err(bad("more hubs than nodes"));
        }
        let layout = ArenaLayout::compute(num_nodes, num_hubs, num_entries, num_border)
            .ok_or_else(|| bad("section sizes overflow (corrupt header)"))?;
        if layout.header_words() != words {
            return Err(bad("section offsets disagree with the declared counts \
                 (misaligned or overlapping sections)"));
        }
        if layout.file_len != file_len {
            return Err(bad(format!(
                "file is {file_len} bytes but the header declares {}",
                layout.file_len
            )));
        }
        let backing = Arc::new(Backing::open(&file, byte_len)?);
        FlatIndex::from_backing(backing, &layout)
    }

    /// Builds the directory and carves the chunks out of a backing whose
    /// length matches `layout`.
    fn from_backing(backing: Arc<Backing>, layout: &ArenaLayout) -> Result<FlatIndex, OpenError> {
        let bytes = backing.bytes();
        let section = |from: u64, to: u64, what: &'static str| {
            let bytes = bytes
                .get(from as usize..to as usize)
                .ok_or_else(|| bad(format!("{what} lies outside the file")))?;
            Ok::<_, OpenError>(LeReader { bytes, what })
        };
        let num_hubs = layout.num_hubs as usize;
        let mut slot_of = vec![NO_SLOT; layout.num_nodes as usize];
        let mut hub_ids = Vec::with_capacity(num_hubs);
        let mut segs: Vec<SegRef> = Vec::with_capacity(num_hubs);
        let mut chunks: Vec<ChunkRef> = Vec::new();
        // Running sums double as tight-packing validation and as the
        // entry/border offsets of the chunk under construction.
        let (mut entry_sum, mut border_sum) = (0u64, 0u64);
        // Chunk under construction: first entry/border and counts.
        let (mut c_entry0, mut c_border0) = (0u64, 0u64);
        let (mut c_len, mut c_blen) = (0u64, 0u64);
        let mut dir = section(layout.dir_off, layout.spend_off, "arena directory")?;
        for slot in 0..num_hubs {
            let hub = dir.u32()?;
            let len = dir.u32()?;
            let blen = dir.u32()?;
            let reserved = dir.u32()?;
            let entry_start = dir.u64()?;
            let border_start = dir.u64()?;
            if hub_ids.last().is_some_and(|&prev| prev >= hub) {
                return Err(bad("directory hubs not strictly ascending"));
            }
            if reserved != 0 {
                return Err(bad("nonzero reserved directory field"));
            }
            if blen > len {
                return Err(bad(format!(
                    "hub {hub}: border sublist longer than its segment"
                )));
            }
            if entry_start != entry_sum || border_start != border_sum {
                return Err(bad(format!(
                    "hub {hub}: segment offsets not tightly packed (corrupt directory)"
                )));
            }
            entry_sum = entry_sum
                .checked_add(len as u64)
                .filter(|&e| e <= layout.num_entries)
                .ok_or_else(|| bad("directory entry counts exceed the header total"))?;
            border_sum = border_sum
                .checked_add(blen as u64)
                .filter(|&b| b <= layout.num_border)
                .ok_or_else(|| bad("directory border counts exceed the header total"))?;
            // Seal the chunk under construction when this segment would
            // overflow it (oversized segments get a chunk of their own).
            if c_len > 0 && c_len + len as u64 > Self::CHUNK_ENTRIES as u64 {
                chunks.push(ChunkRef::new(carve_chunk(
                    &backing, layout, c_entry0, c_len, c_border0, c_blen,
                )));
                (c_entry0, c_border0) = (entry_start, border_start);
                (c_len, c_blen) = (0, 0);
            }
            segs.push(SegRef {
                chunk: chunks.len() as u32,
                off: c_len as u32,
                len,
                border_off: c_blen as u32,
                border_len: blen,
            });
            c_len += len as u64;
            c_blen += blen as u64;
            *slot_of
                .get_mut(hub as usize)
                .ok_or_else(|| bad(format!("hub {hub} out of node range")))? = slot as u32;
            hub_ids.push(hub);
        }
        if entry_sum != layout.num_entries || border_sum != layout.num_border {
            return Err(bad("directory totals disagree with the header"));
        }
        if c_len > 0 || c_blen > 0 {
            chunks.push(ChunkRef::new(carve_chunk(
                &backing, layout, c_entry0, c_len, c_border0, c_blen,
            )));
        }
        let mut spend = section(layout.spend_off, layout.ids_off, "arena spend section")?;
        let spent = (0..num_hubs)
            .map(|_| spend.f64())
            .collect::<Result<Vec<f64>, _>>()?;
        let mut flat = FlatIndex {
            slot_of: slot_of.into(),
            hub_ids,
            segs,
            chunks,
            live_entries: layout.num_entries as usize,
            tombstoned: 0,
            compactions: 0,
            bytes_cloned: 0,
            spent,
            norms: Vec::new(),
        };
        // Border positions index into their segment's entry slice at query
        // time; validate them now so a corrupt file cannot panic later.
        for (&hub, &seg) in flat.hub_ids.iter().zip(&flat.segs) {
            let (_, positions) = flat.seg_borders(seg);
            if positions.iter().any(|&p| p >= seg.len) {
                return Err(bad(format!(
                    "hub {hub}: border position out of segment range"
                )));
            }
        }
        // The norm column is not in the file: one read of the score
        // section, summed per segment in entry order like the writer's.
        let norm_of = |&seg| {
            let (_, scores) = flat.seg_entries(seg);
            scores.iter().fold(0.0, |norm, &s| norm + s)
        };
        flat.norms = flat.segs.iter().map(norm_of).collect();
        Ok(flat)
    }
}

/// A chunk borrowing the byte spans of entries `[entry0, entry0+len)` and
/// borders `[border0, border0+blen)` from an opened arena. On big-endian
/// targets the spans are decoded into an owned chunk instead.
fn carve_chunk(
    backing: &Arc<Backing>,
    layout: &ArenaLayout,
    entry0: u64,
    len: u64,
    border0: u64,
    blen: u64,
) -> Chunk {
    #[cfg(target_endian = "little")]
    {
        Chunk {
            data: ChunkData::Mapped {
                backing: Arc::clone(backing),
                ids_off: (layout.ids_off + entry0 * 4) as usize,
                scores_off: (layout.scores_off + entry0 * 8) as usize,
                border_ids_off: (layout.border_ids_off + border0 * 4) as usize,
                border_pos_off: (layout.border_pos_off + border0 * 4) as usize,
                len: len as usize,
                border_len: blen as usize,
            },
        }
    }
    #[cfg(not(target_endian = "little"))]
    {
        let bytes = backing.bytes();
        let u32s = |off: u64, n: u64| -> Vec<u32> {
            bytes[off as usize..(off + n * 4) as usize]
                .chunks_exact(4)
                .map(|b| u32::from_le_bytes(b.try_into().unwrap()))
                .collect()
        };
        let scores = bytes[(layout.scores_off + entry0 * 8) as usize
            ..(layout.scores_off + (entry0 + len) * 8) as usize]
            .chunks_exact(8)
            .map(|b| f64::from_le_bytes(b.try_into().unwrap()))
            .collect();
        Chunk::from_owned(OwnedChunk {
            ids: u32s(layout.ids_off + entry0 * 4, len),
            scores,
            border_ids: u32s(layout.border_ids_off + border0 * 4, blen),
            border_pos: u32s(layout.border_pos_off + border0 * 4, blen),
        })
    }
}

/// Writes a `u32` slice little-endian (bulk memcpy on LE targets).
fn write_u32s(w: &mut impl Write, vals: &[u32]) -> io::Result<()> {
    #[cfg(target_endian = "little")]
    {
        let n = std::mem::size_of_val(vals);
        // SAFETY: viewing an initialized `[u32]` as bytes is always valid —
        // same allocation, same length in bytes, alignment only loosens.
        let bytes = unsafe { std::slice::from_raw_parts(vals.as_ptr().cast::<u8>(), n) };
        w.write_all(bytes)
    }
    #[cfg(not(target_endian = "little"))]
    {
        for v in vals {
            w.write_all(&v.to_le_bytes())?;
        }
        Ok(())
    }
}

/// Writes an `f64` slice little-endian (bulk memcpy on LE targets).
fn write_f64s(w: &mut impl Write, vals: &[f64]) -> io::Result<()> {
    #[cfg(target_endian = "little")]
    {
        let n = std::mem::size_of_val(vals);
        // SAFETY: viewing an initialized `[f64]` as bytes is always valid —
        // same allocation, same length in bytes, alignment only loosens.
        let bytes = unsafe { std::slice::from_raw_parts(vals.as_ptr().cast::<u8>(), n) };
        w.write_all(bytes)
    }
    #[cfg(not(target_endian = "little"))]
    {
        for v in vals {
            w.write_all(&v.to_le_bytes())?;
        }
        Ok(())
    }
}

impl PpvStore for FlatIndex {
    #[inline]
    fn view(&self, hub: NodeId) -> Option<PpvRef<'_>> {
        let slot = *self.slot_of.get(hub as usize)?;
        if slot == NO_SLOT {
            return None;
        }
        let (ids, scores) = self.seg_entries(self.segs[slot as usize]);
        Some(PpvRef::Soa { ids, scores })
    }

    fn contains(&self, hub: NodeId) -> bool {
        self.slot_of
            .get(hub as usize)
            .is_some_and(|&s| s != NO_SLOT)
    }

    fn hub_count(&self) -> usize {
        self.hub_ids.len()
    }

    fn total_entries(&self) -> usize {
        self.live_entries
    }

    #[inline]
    fn border_sublist(&self, hub: NodeId) -> Option<(&[NodeId], &[u32])> {
        let slot = *self.slot_of.get(hub as usize)?;
        if slot == NO_SLOT {
            return None;
        }
        Some(self.seg_borders(self.segs[slot as usize]))
    }

    #[inline]
    fn stored_norm(&self, hub: NodeId) -> Option<f64> {
        match *self.slot_of.get(hub as usize)? {
            NO_SLOT => None,
            slot => Some(self.norms[slot as usize]),
        }
    }

    /// The `FPPVIDX3` serialized size.
    fn storage_bytes(&self) -> usize {
        self.file_bytes()
    }

    fn resident_bytes(&self) -> usize {
        FlatIndex::resident_bytes(self)
    }

    fn mapped_bytes(&self) -> usize {
        FlatIndex::mapped_bytes(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_ppv(ids: &[(NodeId, f64)]) -> PrimePpv {
        PrimePpv {
            entries: SparseVector::from_unsorted(ids.to_vec()),
        }
    }

    /// An arena of `ppvs`, inserted in the order given.
    fn arena(n: usize, hubs: &HubSet, ppvs: &[(NodeId, &[(NodeId, f64)])]) -> FlatIndex {
        let mut flat = FlatIndex::new(n);
        for &(h, entries) in ppvs {
            flat.insert(h, &sample_ppv(entries), hubs);
        }
        flat
    }

    fn temp_path(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!(
            "fastppv-test-{}-{}-{name}",
            std::process::id(),
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .unwrap()
                .as_nanos()
        ));
        p
    }

    #[test]
    fn memory_index_insert_and_get() {
        let hubs = HubSet::from_ids(10, vec![3, 7]);
        let idx = arena(10, &hubs, &[(3, &[(1, 0.5), (2, 0.25)]), (7, &[(0, 0.1)])]);
        assert_eq!(idx.hub_count(), 2);
        assert_eq!(idx.total_entries(), 3);
        assert!(idx.contains(3) && !idx.contains(4));
        assert_eq!(idx.view(3).unwrap().score_of(2), Some(0.25));
        assert!(idx.view(4).is_none());
        assert!(idx.load(4).is_none());
        assert_eq!(idx.load(3).unwrap().entries.get(1), 0.5);
    }

    #[test]
    fn memory_index_replace_updates_totals() {
        let hubs = HubSet::from_ids(10, vec![3]);
        let mut idx = arena(10, &hubs, &[(3, &[(1, 0.5), (2, 0.25)])]);
        idx.replace(3, &sample_ppv(&[(1, 0.9)]), &hubs);
        assert_eq!(idx.hub_count(), 1);
        assert_eq!(idx.total_entries(), 1);
        assert_eq!(idx.load(3).unwrap().entries.get(1), 0.9);
    }

    #[test]
    fn ppv_ref_variants_agree() {
        let ppv = sample_ppv(&[(1, 0.5), (4, 0.25), (9, 0.125)]);
        let ids: Vec<NodeId> = ppv.entries.entries().iter().map(|&(v, _)| v).collect();
        let scores: Vec<f64> = ppv.entries.entries().iter().map(|&(_, s)| s).collect();
        let views = [
            PpvRef::Soa {
                ids: &ids,
                scores: &scores,
            },
            PpvRef::Aos(ppv.entries.entries()),
        ];
        for view in &views {
            assert_eq!(view.len(), 3);
            assert_eq!(view.to_prime_ppv(), ppv);
            assert_eq!(view.score_at(1), 0.25);
            assert!((view.l1_norm() - 0.875).abs() < 1e-15);
            let mut collected = Vec::new();
            view.for_each(|v, s| collected.push((v, s)));
            assert_eq!(collected, ppv.entries.entries());
        }
    }

    #[test]
    fn flat_index_matches_memory_index() {
        // The arena returns exactly the in-memory PPVs it was filled from.
        let ppvs: [(NodeId, &[(NodeId, f64)]); 3] = [
            (3, &[(1, 0.5), (2, 0.25), (7, 0.1)]),
            (5, &[]),
            (7, &[(0, 0.1), (3, 0.2)]),
        ];
        let hubs = HubSet::from_ids(10, vec![3, 5, 7]);
        let flat = arena(10, &hubs, &ppvs);
        assert_eq!(flat.hub_count(), 3);
        assert_eq!(flat.total_entries(), 5);
        assert_eq!(flat.storage_bytes(), flat.file_bytes());
        assert!(flat.resident_bytes() > 0);
        assert_eq!(flat.mapped_bytes(), 0, "built arena is heap-resident");
        for (h, entries) in ppvs {
            assert!(flat.contains(h));
            assert_eq!(flat.load(h).unwrap(), sample_ppv(entries), "hub {h}");
        }
        assert!(!flat.contains(4));
        assert!(flat.view(4).is_none());
    }

    #[test]
    fn flat_index_border_sublist_points_at_hub_entries() {
        let hubs = HubSet::from_ids(10, vec![2, 4, 9]);
        let ppv2 = [(1, 0.5), (4, 0.3), (6, 0.2), (9, 0.1)];
        let flat = arena(10, &hubs, &[(2, &ppv2), (4, &[(2, 0.7)])]);
        let (bids, bpos) = flat.border_sublist(2).unwrap();
        assert_eq!(bids, &[4, 9]);
        let view = flat.view(2).unwrap();
        let borders: Vec<(NodeId, f64)> = bids
            .iter()
            .zip(bpos)
            .map(|(&id, &p)| (id, view.score_at(p as usize)))
            .collect();
        let expected: Vec<(NodeId, f64)> = sample_ppv(&ppv2).border_hubs(&hubs).collect();
        assert_eq!(borders, expected);
        // Non-hub-entry segments have empty sublists.
        let (bids4, _) = flat.border_sublist(4).unwrap();
        assert_eq!(bids4, &[2]);
    }

    #[test]
    fn flat_replace_tombstones_then_compacts() {
        let hubs = HubSet::from_ids(10, vec![1, 2]);
        let mut flat = arena(10, &hubs, &[(1, &[(2, 0.5), (3, 0.25)]), (2, &[(1, 0.5)])]);
        assert_eq!(flat.dead_entries(), 0);
        flat.replace(1, &sample_ppv(&[(2, 0.9), (5, 0.05)]), &hubs);
        // 2 of 5 arena entries are dead (40% > 30%): compaction fired.
        assert_eq!(flat.dead_entries(), 0, "threshold crossed, compacted");
        assert_eq!(flat.total_entries(), 3);
        assert_eq!(
            flat.load(1).unwrap().entries.entries(),
            &[(2, 0.9), (5, 0.05)]
        );
        assert_eq!(flat.load(2).unwrap().entries.entries(), &[(1, 0.5)]);
        // Border sublists survive the patch + compaction.
        let (bids, _) = flat.border_sublist(1).unwrap();
        assert_eq!(bids, &[2]);
    }

    #[test]
    fn flat_replace_below_threshold_keeps_tombstones() {
        let big: Vec<(NodeId, f64)> = (0..15).map(|v| (v, 0.01)).collect();
        let hubs = HubSet::from_ids(20, vec![1, 2]);
        let mut flat = arena(20, &hubs, &[(1, &big), (2, &[(3, 0.5)])]);
        flat.replace(2, &sample_ppv(&[(4, 0.25)]), &hubs);
        // 1 dead of 17 total: below the 30% threshold, tombstone retained.
        assert_eq!(flat.dead_entries(), 1);
        assert_eq!(flat.total_entries(), 16);
        assert_eq!(flat.load(2).unwrap().entries.entries(), &[(4, 0.25)]);
        flat.compact();
        assert_eq!(flat.dead_entries(), 0);
        assert_eq!(flat.load(2).unwrap().entries.entries(), &[(4, 0.25)]);
    }

    #[test]
    fn flat_insert_appends_new_hub() {
        let hubs = HubSet::from_ids(10, vec![1, 6]);
        let mut flat = FlatIndex::new(10);
        flat.insert(1, &sample_ppv(&[(0, 0.5), (6, 0.1)]), &hubs);
        flat.insert(6, &sample_ppv(&[(1, 0.3)]), &hubs);
        assert_eq!(flat.hub_count(), 2);
        assert_eq!(flat.border_sublist(1).unwrap().0, &[6]);
        assert_eq!(flat.load(6).unwrap().entries.entries(), &[(1, 0.3)]);
    }

    #[test]
    fn arena_file_round_trips_bit_exact() {
        let hubs = HubSet::from_ids(100, vec![7, 9, 42]);
        let mut flat = arena(
            100,
            &hubs,
            &[
                (7, &[(7, 1.0)]),
                (9, &[]),
                (42, &[(0, 0.125), (42, 0.5), (99, 0.0625)]),
            ],
        );
        flat.set_budget_spent(42, 0.0042);
        let path = temp_path("arena.fppv");
        flat.write_to_file(&path).unwrap();
        assert_eq!(
            std::fs::metadata(&path).unwrap().len() as usize,
            flat.file_bytes(),
            "file_bytes must predict the serialized size exactly"
        );
        let opened = FlatIndex::open(&path).unwrap();
        assert_eq!(opened.hub_count(), 3);
        assert_eq!(opened.capacity(), 100);
        assert_eq!(opened.total_entries(), flat.total_entries());
        for h in [7u32, 9, 42] {
            // Bit-exact: scores are stored as raw f64, never quantized.
            assert_eq!(
                opened.load(h).unwrap().entries.entries(),
                flat.load(h).unwrap().entries.entries(),
                "hub {h}"
            );
            assert_eq!(opened.border_sublist(h), flat.border_sublist(h));
            assert_eq!(opened.budget_spent(h), flat.budget_spent(h));
        }
        assert_eq!(opened.budget_spent(42), 0.0042, "spend survives reopen");
        assert!(!opened.contains(8));
        // The reopened arena is file-backed: mapped (or, if mmap was
        // unavailable, heap-fallback) rather than deep-copied.
        assert!(opened.resident_bytes() + opened.mapped_bytes() > 0);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn arena_writer_is_independent_of_tombstone_state() {
        let hubs = HubSet::from_ids(50, vec![1, 2, 3]);
        let mut a = FlatIndex::new(50);
        a.insert(1, &sample_ppv(&[(2, 0.5), (9, 0.1)]), &hubs);
        a.insert(2, &sample_ppv(&[(1, 0.25)]), &hubs);
        a.insert(3, &sample_ppv(&[(4, 0.125)]), &hubs);
        let mut b = a.clone();
        // Dirty b's chunk layout: replace forces a tombstone + fresh chunk.
        b.replace(2, &sample_ppv(&[(1, 0.25)]), &hubs);
        let (pa, pb) = (temp_path("ser-a.fppv"), temp_path("ser-b.fppv"));
        a.write_to_file(&pa).unwrap();
        b.write_to_file(&pb).unwrap();
        assert_eq!(
            std::fs::read(&pa).unwrap(),
            std::fs::read(&pb).unwrap(),
            "equal logical content must serialize byte-identically"
        );
        std::fs::remove_file(&pa).unwrap();
        std::fs::remove_file(&pb).unwrap();
    }

    #[test]
    fn open_rejects_garbage() {
        let path = temp_path("garbage.idx");
        std::fs::write(&path, b"definitely not an index file").unwrap();
        expect_format_error(&path, "garbage");
        let path = temp_path("empty.idx");
        std::fs::write(&path, b"").unwrap();
        expect_format_error(&path, "empty file");
    }

    #[test]
    fn open_rejects_absurd_hub_count() {
        // A header claiming 2^40 hubs must not allocate terabytes.
        let path = write_arena_bytes("absurd-hubs.fppv", |b| {
            b[24..32].copy_from_slice(&(1u64 << 40).to_le_bytes());
        });
        expect_format_error(&path, "absurd hub count");
    }

    #[test]
    fn storage_bytes_matches_file_size() {
        let (flat, _) = sample_arena();
        let path = temp_path("size.fppv");
        flat.write_to_file(&path).unwrap();
        let file_len = std::fs::metadata(&path).unwrap().len() as usize;
        assert_eq!(flat.storage_bytes(), file_len);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn border_hubs_filters_by_hub_set() {
        let ppv = sample_ppv(&[(1, 0.5), (2, 0.3), (4, 0.1)]);
        let hubs = HubSet::from_ids(5, vec![2, 4]);
        let borders: Vec<_> = ppv.border_hubs(&hubs).collect();
        assert_eq!(borders, vec![(2, 0.3), (4, 0.1)]);
    }

    #[test]
    fn open_rejects_retired_formats_with_rebuild_hint() {
        for magic in [b"FPPVIDX1", b"FPPVIDX2"] {
            // No writer of either format survives: the magic plus junk.
            let path = temp_path("retired.idx");
            let mut bytes = magic.to_vec();
            bytes.extend_from_slice(&[0xAB; 57]);
            std::fs::write(&path, &bytes).unwrap();
            let Err(OpenError::Format(msg)) = FlatIndex::open(&path) else {
                panic!("retired format accepted or misreported");
            };
            let name = std::str::from_utf8(magic).unwrap();
            assert!(
                msg.contains(name) && msg.contains("rebuild") && msg.contains("fastppv build"),
                "the rejection must name the format and say what to do: {msg}"
            );
            std::fs::remove_file(&path).unwrap();
        }
    }

    /// A small arena used by the FPPVIDX3 failure-mode tests.
    fn sample_arena() -> (FlatIndex, HubSet) {
        let hubs = HubSet::from_ids(30, vec![3, 5, 20]);
        let flat = arena(
            30,
            &hubs,
            &[
                (3, &[(1, 0.5), (5, 0.25), (20, 0.125)]),
                (5, &[(3, 0.3)]),
                (20, &[(2, 0.1), (5, 0.05)]),
            ],
        );
        (flat, hubs)
    }

    fn write_arena_bytes(name: &str, mutate: impl FnOnce(&mut Vec<u8>)) -> std::path::PathBuf {
        let (flat, _) = sample_arena();
        let path = temp_path(name);
        flat.write_to_file(&path).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        mutate(&mut bytes);
        std::fs::write(&path, &bytes).unwrap();
        path
    }

    fn expect_format_error(path: &std::path::Path, what: &str) {
        match FlatIndex::open(path) {
            Ok(_) => panic!("{what}: corrupt arena accepted"),
            Err(OpenError::Format(_)) => {}
            Err(OpenError::Io(e)) => panic!("{what}: expected Format error, got Io({e})"),
        }
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn arena_open_rejects_bad_magic() {
        let path = write_arena_bytes("bad-magic.fppv", |b| b[..8].copy_from_slice(b"NOTANIDX"));
        expect_format_error(&path, "bad magic");
    }

    #[test]
    fn arena_open_rejects_bad_version() {
        let path = write_arena_bytes("bad-version.fppv", |b| {
            b[8..12].copy_from_slice(&9u32.to_le_bytes())
        });
        expect_format_error(&path, "bad version");
    }

    #[test]
    fn arena_open_rejects_truncation() {
        let path = write_arena_bytes("truncated.fppv", |b| b.truncate(b.len() - 9));
        expect_format_error(&path, "truncated body");
        let path = write_arena_bytes("beheaded.fppv", |b| b.truncate(40));
        expect_format_error(&path, "truncated header");
    }

    #[test]
    fn arena_open_rejects_offset_tampering() {
        // Shift the scores section offset: sections would overlap.
        let path = write_arena_bytes("overlap.fppv", |b| {
            let off = 16 + 7 * 8; // scores_off header word
            let v = u64::from_le_bytes(b[off..off + 8].try_into().unwrap());
            b[off..off + 8].copy_from_slice(&(v - 8).to_le_bytes());
        });
        expect_format_error(&path, "overlapping sections");
    }

    #[test]
    fn arena_open_rejects_absurd_node_count() {
        let path = write_arena_bytes("absurd-nodes.fppv", |b| {
            b[16..24].copy_from_slice(&(1u64 << 40).to_le_bytes());
        });
        expect_format_error(&path, "absurd node count");
    }

    #[test]
    fn arena_open_rejects_unsorted_directory() {
        let path = write_arena_bytes("unsorted-dir.fppv", |b| {
            // Swap the hub ids of the first two directory records.
            let d0 = FLAT_HEADER_LEN;
            let d1 = FLAT_HEADER_LEN + FLAT_DIR_RECORD_LEN;
            let (h0, h1) = (
                u32::from_le_bytes(b[d0..d0 + 4].try_into().unwrap()),
                u32::from_le_bytes(b[d1..d1 + 4].try_into().unwrap()),
            );
            b[d0..d0 + 4].copy_from_slice(&h1.to_le_bytes());
            b[d1..d1 + 4].copy_from_slice(&h0.to_le_bytes());
        });
        expect_format_error(&path, "unsorted directory");
    }

    #[test]
    fn arena_open_rejects_loose_packing() {
        let path = write_arena_bytes("loose-dir.fppv", |b| {
            // Bump the second record's entry_start so segments overlap.
            let off = FLAT_HEADER_LEN + FLAT_DIR_RECORD_LEN + 16;
            let v = u64::from_le_bytes(b[off..off + 8].try_into().unwrap());
            b[off..off + 8].copy_from_slice(&(v + 1).to_le_bytes());
        });
        expect_format_error(&path, "loose packing");
    }

    #[test]
    fn arena_open_rejects_out_of_range_border_pos() {
        let (flat, _) = sample_arena();
        let layout_border_pos_off = {
            // Recompute the layout the same way the writer does.
            let num_border: u64 = (0..flat.hub_count())
                .map(|s| flat.segs[s].border_len as u64)
                .sum();
            ArenaLayout::compute(30, 3, flat.total_entries() as u64, num_border)
                .unwrap()
                .border_pos_off as usize
        };
        let path = write_arena_bytes("bad-bpos.fppv", |b| {
            b[layout_border_pos_off..layout_border_pos_off + 4]
                .copy_from_slice(&1000u32.to_le_bytes());
        });
        expect_format_error(&path, "border position out of range");
    }

    #[test]
    fn arena_clone_is_shallow_and_isolated() {
        let (flat, hubs) = sample_arena();
        let mut next = flat.clone();
        assert_eq!(
            next.shared_chunk_count(&flat),
            flat.chunk_count(),
            "clone shares every chunk"
        );
        let before: Vec<_> = flat.load(5).unwrap().entries.entries().to_vec();
        next.replace(5, &sample_ppv(&[(9, 0.9)]), &hubs);
        assert_eq!(
            flat.load(5).unwrap().entries.entries(),
            &before[..],
            "mutating the clone must not write through shared chunks"
        );
        assert_eq!(next.load(5).unwrap().entries.entries(), &[(9, 0.9)]);
        assert_eq!(
            flat.bytes_cloned(),
            0,
            "tombstone patches never deep-copy chunks"
        );
    }

    #[test]
    fn multi_chunk_arena_round_trips_and_compacts() {
        let n = FlatIndex::CHUNK_ENTRIES / 2;
        let hub_list: Vec<NodeId> = (0..6).map(|i| i * 30_000).collect();
        let hubs = HubSet::from_ids(200_000, hub_list.clone());
        let mut flat = FlatIndex::new(200_000);
        for &h in &hub_list {
            let entries: Vec<(NodeId, f64)> = (0..n)
                .map(|i| (h + i as NodeId + 1, 1.0 / (i + 2) as f64))
                .collect();
            flat.insert(h, &sample_ppv(&entries), &hubs);
        }
        assert!(
            flat.chunk_count() >= 2,
            "6×{n} entries must span multiple chunks (got {})",
            flat.chunk_count()
        );
        let path = temp_path("multichunk.fppv");
        flat.write_to_file(&path).unwrap();
        let opened = FlatIndex::open(&path).unwrap();
        assert!(opened.chunk_count() >= 2);
        for &h in &hub_list {
            assert_eq!(
                opened.load(h).unwrap().entries.entries(),
                flat.load(h).unwrap().entries.entries(),
                "hub {h}"
            );
        }
        // Replacing a segment of the mapped arena seals, never mutates the
        // mapping; compaction then pulls everything back onto the heap.
        let mut patched = opened.clone();
        patched.replace(0, &sample_ppv(&[(1, 0.5)]), &hubs);
        assert_eq!(opened.load(0).unwrap().len(), n);
        patched.compact();
        assert_eq!(patched.mapped_bytes(), 0, "compaction releases the file");
        assert!(patched.bytes_cloned() > 0, "compaction is metered");
        assert_eq!(patched.load(3 * 30_000).unwrap().len(), n);
        std::fs::remove_file(&path).unwrap();
    }

    /// `n` entries over nodes `base + 1 ..`, none of them hubs of the
    /// tests below.
    fn run_of(base: NodeId, n: usize) -> PrimePpv {
        sample_ppv(
            &(0..n)
                .map(|i| (base + 1 + i as NodeId, 1.0 / (i + 2) as f64))
                .collect::<Vec<_>>(),
        )
    }

    /// Every owned chunk holds exactly its bytes: no spare capacity.
    fn assert_exact(flat: &FlatIndex) {
        for (c, chunk) in flat.chunks.iter().enumerate() {
            if let ChunkData::Owned(o) = &chunk.data.data {
                assert_eq!(o.heap_bytes(), chunk.data.data_bytes(), "chunk {c}");
            }
        }
    }

    #[test]
    fn a_shared_chunk_past_the_threshold_waits_for_the_seal() {
        let hubs = HubSet::from_ids(100, vec![1, 2, 3]);
        let mut flat = arena(100, &hubs, &[]);
        flat.insert(1, &run_of(10, 10), &hubs);
        flat.insert(2, &run_of(30, 10), &hubs);
        let first = flat.clone();
        // The tail is shared now: hub 3 opens chunk 1.
        flat.insert(3, &run_of(50, 10), &hubs);
        let pinned = flat.clone();
        // Half of chunk 0 dies, but two snapshots still read it.
        flat.replace(1, &run_of(70, 10), &hubs);
        assert_eq!(flat.chunk_count(), 3);
        assert_eq!(flat.dead_entries(), 10);
        assert_eq!(
            flat.compactions(),
            0,
            "a shared chunk is not rewritten mid-refresh"
        );
        flat.seal();
        // Chunk 0 (past the threshold) and chunk 1 (a small chunk at the
        // end of the run) move into one chunk; the open tail stays last.
        assert_eq!(flat.compactions(), 1);
        assert_eq!(flat.dead_entries(), 0);
        assert_eq!(flat.chunk_count(), 2);
        assert_eq!(flat.shared_chunk_count(&pinned), 0);
        assert_eq!(
            flat.bytes_cloned(),
            2 * 10 * 12,
            "hubs 2 and 3 moved, hub 1's old run did not"
        );
        assert_exact(&flat);
        for (h, base) in [(1, 70), (2, 30), (3, 50)] {
            assert_eq!(flat.load(h).unwrap(), run_of(base, 10), "hub {h}");
        }
        // The snapshots read what they read before.
        assert_eq!(pinned.load(1).unwrap(), run_of(10, 10));
        assert_eq!(first.load(2).unwrap(), run_of(30, 10));
        assert!(!first.contains(3));
    }

    #[test]
    fn a_seal_reclaims_what_its_refresh_tombstoned() {
        // Four chunks, one segment each, all four replaced in one refresh:
        // the seal's budget grows with the tombstones, so one rewrite
        // drops every dead chunk rather than one chunk per seal.
        let n = FlatIndex::CHUNK_ENTRIES / 2 + 1;
        let hub_list: Vec<NodeId> = (0..4).map(|i| i * 40_000).collect();
        let hubs = HubSet::from_ids(200_000, hub_list.clone());
        let mut flat = FlatIndex::new(200_000);
        for &h in &hub_list {
            flat.insert(h, &run_of(h, n), &hubs);
        }
        flat.seal();
        assert_eq!(flat.chunk_count(), 4, "one segment a chunk");
        assert_eq!(
            flat.compactions(),
            0,
            "a fresh build has nothing to compact"
        );
        let pinned = flat.clone();
        for &h in &hub_list {
            flat.replace(h, &run_of(h, 1), &hubs);
        }
        assert_eq!(flat.dead_entries(), 4 * n);
        flat.seal();
        assert_eq!(flat.compactions(), 1);
        assert_eq!(flat.dead_entries(), 0);
        assert_eq!(flat.chunk_count(), 1, "only the patches' chunk is left");
        assert_eq!(flat.bytes_cloned(), 0, "every compacted chunk was dead");
        flat.seal();
        assert_eq!(flat.compactions(), 1, "nothing left to compact");
        for &h in &hub_list {
            assert_eq!(flat.load(h).unwrap(), run_of(h, 1));
            assert_eq!(pinned.load(h).unwrap().len(), n);
        }
    }

    #[test]
    fn batched_refreshes_keep_dead_entries_and_chunks_bounded() {
        // Refreshes the size of a multi-event batch: each replaces 16 of
        // 64 hubs (≈ 88 k entries, more than a chunk) on an arena of six
        // chunks, holding the previous snapshot as a serving process does
        // until publish. Reclaiming must keep pace with the tombstones,
        // and the chunk count must not creep up.
        let hub_list: Vec<NodeId> = (0..64).map(|i| i * 1_000).collect();
        let hubs = HubSet::from_ids(100_000, hub_list.clone());
        let size = |x: u64| 3_000 + (x % 5_000) as usize;
        let mut published = FlatIndex::new(100_000);
        for (i, &h) in hub_list.iter().enumerate() {
            published.insert(h, &run_of(h, size(i as u64 * 1_237)), &hubs);
        }
        published.seal();
        assert!(published.chunk_count() >= 5, "{}", published.chunk_count());
        let mut rng = 0x9E37_79B9_7F4A_7C15u64;
        let mut next_u64 = move || {
            rng = rng
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            rng >> 33
        };
        for cycle in 0..60 {
            let mut next = published.clone();
            let dead_before = next.dead_entries();
            let mut tombstoned = 0;
            for _ in 0..16 {
                let h = hub_list[next_u64() as usize % hub_list.len()];
                tombstoned += next.view(h).unwrap().len();
                next.replace(h, &run_of(h, size(next_u64())), &hubs);
            }
            assert!(tombstoned > FlatIndex::CHUNK_ENTRIES);
            next.seal();
            assert_exact(&next);
            let stored = next.total_entries() + next.dead_entries();
            let dead = next.dead_entries();
            let over = next.chunks.iter().filter(|c| c.over_threshold()).count();
            assert!(
                over == 0 || dead < dead_before,
                "cycle {cycle}: {over} chunks past the threshold and dead \
                 entries went {dead_before} -> {dead}"
            );
            assert!(
                dead as f64 <= FlatIndex::COMPACTION_THRESHOLD * stored as f64,
                "cycle {cycle}: {dead} dead of {stored}"
            );
            let full = stored.div_ceil(FlatIndex::CHUNK_ENTRIES);
            assert!(
                next.chunk_count() <= 2 * full + 4,
                "cycle {cycle}: {} chunks for {stored} entries",
                next.chunk_count()
            );
            published = next;
        }
    }

    #[test]
    fn sealed_snapshots_keep_a_geometric_tail_of_exact_chunks() {
        // A refresh a cycle: clone the published snapshot, patch one hub,
        // seal, publish. Each cycle seals one small chunk; coalescing keeps
        // the count logarithmic in the cycles.
        let hub_list: Vec<NodeId> = (0..8).map(|i| i * 100).collect();
        let hubs = HubSet::from_ids(1_000, hub_list.clone());
        let mut published = FlatIndex::new(1_000);
        for &h in &hub_list {
            published.insert(h, &run_of(h, 40), &hubs);
        }
        published.seal();
        for cycle in 0..200usize {
            let mut next = published.clone();
            let h = hub_list[cycle % hub_list.len()];
            next.replace(h, &run_of(h, 20 + cycle % 7), &hubs);
            next.seal();
            assert_exact(&next);
            assert!(
                next.chunk_count() <= 12,
                "cycle {cycle}: {} chunks",
                next.chunk_count()
            );
            assert!(
                next.dead_entries() as f64
                    <= FlatIndex::COMPACTION_THRESHOLD
                        * (next.total_entries() + next.dead_entries()) as f64
            );
            published = next;
        }
        assert_eq!(published.resident_bytes(), published.arena_bytes());
    }

    #[test]
    fn compact_releases_a_mapped_arena_one_chunk_at_a_time() {
        let n = FlatIndex::CHUNK_ENTRIES / 3;
        let hub_list: Vec<NodeId> = (0..7).map(|i| i * 25_000).collect();
        let hubs = HubSet::from_ids(200_000, hub_list.clone());
        let mut flat = FlatIndex::new(200_000);
        for &h in &hub_list {
            flat.insert(h, &run_of(h, n), &hubs);
        }
        let path = temp_path("compact-mapped.fppv");
        flat.write_to_file(&path).unwrap();
        let mut opened = FlatIndex::open(&path).unwrap();
        let chunks = opened.chunk_count();
        assert!(chunks >= 3);
        opened.compact();
        assert_eq!(opened.compactions() as usize, chunks, "one rewrite a chunk");
        assert_eq!(opened.mapped_bytes(), 0);
        assert_exact(&opened);
        for &h in &hub_list {
            assert_eq!(opened.load(h).unwrap(), flat.load(h).unwrap(), "hub {h}");
        }
        let reopened = temp_path("compact-mapped-2.fppv");
        opened.write_to_file(&reopened).unwrap();
        assert_eq!(
            std::fs::read(&path).unwrap(),
            std::fs::read(&reopened).unwrap()
        );
        std::fs::remove_file(&path).unwrap();
        std::fs::remove_file(&reopened).unwrap();
    }
}
