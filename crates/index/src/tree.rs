//! The k-ary time-partitioned aggregation tree (paper §4.5, Fig. 4).
//!
//! Layout: the chunk sequence is the leaf level (level 0). A node at
//! `(level ℓ ≥ 1, index i)` covers chunks `[i·k^ℓ, (i+1)·k^ℓ)` and stores up
//! to k entries, entry `c` being the homomorphic aggregate of its child
//! subtree (for ℓ = 1, entry `c` *is* the digest of chunk `i·k + c`).
//! Appends ripple one addition into each ancestor level; range queries
//! combine fully-covered entries top-down and recurse only at the two
//! partially-covered edges — O(2(k−1)·log_k n) additions worst case, the
//! bound quoted in §6.1.
//!
//! # Concurrency: shared readers, serialized writers
//!
//! The tree is a shared handle: any number of threads may call
//! [`AggTree::query`] concurrently with one in-flight
//! [`AggTree::append`]. Writers (`append`, `decay`) are serialized by an
//! internal mutex; readers never take it. A query snapshots the published
//! chunk count `len` once (an `Acquire` load) and answers exactly for
//! chunks `[0, len)`:
//!
//! * `append` publishes the new `len` with a `Release` store only after
//!   every node write for the new chunk reached the store and cache, so a
//!   reader that observes `len == n` can resolve every node covering
//!   chunks `< n`.
//! * A reader whose snapshot predates an in-flight append of chunk `n`
//!   stays exact even if it reads nodes the append already rewrote: every
//!   entry the append touches covers a chunk range *containing `n`*, and a
//!   query with `end ≤ n` never consumes such an entry whole — it either
//!   skips it (leaf level, where the new chunk occupies a fresh slot) or
//!   recurses past it into children covering only chunks `< n`. Node
//!   values are replaced wholesale in both the KV store and the cache, so
//!   readers see complete old or complete new nodes, never torn entries.
//! * The read path's cache fill is guarded by a seqlock-style generation
//!   (odd while a writer's node writes are in flight): a reader that
//!   raced a writer still *returns* the bytes it fetched, but never
//!   inserts them into the cache, so stale bytes cannot overwrite the
//!   writer's freshly cached node or resurrect a decayed one.
//!
//! `decay` deletes nodes, so a reader drilling below a freshly decayed
//! level surfaces [`IndexError::Decayed`] — the aged-out region is only
//! answerable at coarser granularity, which is the documented decay
//! contract, not corruption.

use crate::cache::LruCache;
use crate::digest::HomDigest;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use timecrypt_store::{KvStore, StoreError};

/// Tree parameters.
#[derive(Debug, Clone)]
pub struct TreeConfig {
    /// Fan-out k. The paper's evaluation instantiates 64-ary trees.
    pub arity: usize,
    /// LRU cache budget in bytes for index nodes (split evenly across the
    /// cache's lock stripes). Fig. 7's "small cache" variant uses 1 MB;
    /// the default is generous.
    pub cache_bytes: usize,
}

impl Default for TreeConfig {
    fn default() -> Self {
        TreeConfig {
            arity: 64,
            cache_bytes: 256 * 1024 * 1024,
        }
    }
}

/// Index errors.
#[derive(Debug)]
pub enum IndexError {
    /// Underlying storage failure.
    Store(StoreError),
    /// Stored node bytes failed to parse.
    CorruptNode { level: u8, index: u64 },
    /// The query drilled below a level that was aged out by
    /// [`AggTree::decay`]: the node is legitimately gone, and the region
    /// is only answerable at coarser granularity.
    Decayed { level: u8, index: u64 },
    /// Query over a range the stream hasn't reached / empty range.
    BadRange { start: u64, end: u64, len: u64 },
}

impl std::fmt::Display for IndexError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IndexError::Store(e) => write!(f, "index storage error: {e}"),
            IndexError::CorruptNode { level, index } => {
                write!(f, "corrupt index node at level {level} index {index}")
            }
            IndexError::Decayed { level, index } => {
                write!(
                    f,
                    "index node at level {level} index {index} was aged out by decay; \
                     only coarser aggregates remain for this region"
                )
            }
            IndexError::BadRange { start, end, len } => {
                write!(f, "bad query range [{start}, {end}) over {len} chunks")
            }
        }
    }
}

impl std::error::Error for IndexError {}

impl From<StoreError> for IndexError {
    fn from(e: StoreError) -> Self {
        IndexError::Store(e)
    }
}

/// One tree node: the per-child aggregates present so far.
#[derive(Clone)]
struct Node<D> {
    entries: Vec<D>,
}

impl<D: HomDigest> Node<D> {
    fn encode(&self) -> Vec<u8> {
        let mut out =
            Vec::with_capacity(4 + self.entries.iter().map(|e| e.encoded_len()).sum::<usize>());
        out.extend_from_slice(&(self.entries.len() as u32).to_le_bytes());
        for e in &self.entries {
            e.encode(&mut out);
        }
        out
    }

    fn decode(buf: &[u8]) -> Option<Self> {
        if buf.len() < 4 {
            return None;
        }
        let n = u32::from_le_bytes(buf[..4].try_into().ok()?) as usize;
        let mut pos = 4;
        // The length prefix is untrusted stored data: clamp the
        // pre-allocation by what the remaining buffer could possibly hold
        // (every entry consumes at least one byte), so a corrupt node
        // cannot demand a multi-GB allocation before the first entry
        // fails to parse.
        let mut entries = Vec::with_capacity(n.min(buf.len() - 4));
        for _ in 0..n {
            let (d, used) = D::decode(&buf[pos..])?;
            entries.push(d);
            pos += used;
        }
        if pos != buf.len() {
            return None;
        }
        Some(Node { entries })
    }

    fn weight(&self) -> usize {
        4 + self.entries.iter().map(|e| e.encoded_len()).sum::<usize>()
    }
}

/// Runtime statistics (cache behaviour, sizes) for the benchmarks.
#[derive(Debug, Clone, Default)]
pub struct TreeStats {
    /// Index-node cache hits.
    pub cache_hits: u64,
    /// Index-node cache misses (KV fetches).
    pub cache_misses: u64,
    /// Total serialized bytes of all index nodes in the store.
    pub stored_bytes: usize,
    /// Number of index nodes in the store.
    pub stored_nodes: usize,
}

/// The aggregation tree for one stream, generic over the digest
/// representation (HEAC/plaintext `Vec<u64>`, or a strawman ciphertext).
pub struct AggTree<D: HomDigest> {
    kv: Arc<dyn KvStore>,
    stream: u128,
    cfg: TreeConfig,
    /// Published chunk count. Readers snapshot it with `Acquire`;
    /// [`append`](Self::append) publishes with `Release` only after every
    /// node write for the new chunk reached the store and cache.
    len: AtomicU64,
    /// Serializes the write path (`append`, `decay`). Queries never take
    /// it — see the module docs for why reads stay exact regardless.
    write: Mutex<()>,
    /// Seqlock-style generation for the read-aside cache fill: odd while a
    /// writer's node writes are in flight, bumped even when they finish. A
    /// reader that loaded node bytes from the KV store may only insert
    /// them into the cache if the generation was even before its KV read
    /// *and* is unchanged at fill time — otherwise its (possibly stale)
    /// bytes could overwrite the node a concurrent `append` just cached,
    /// or resurrect a node `decay` just deleted, silently corrupting every
    /// later cached read. Stale bytes are still fine for the reader's own
    /// snapshot-consistent query; they just must not poison the cache.
    cache_gen: AtomicU64,
    cache: NodeCache<D>,
}

/// Lock stripes in the node cache. Concurrent queries take node-cache
/// locks from several threads at once; striping by node key keeps them
/// off one global mutex. Eight stripes cover a handful of concurrent
/// readers without fragmenting the byte budget.
const CACHE_STRIPES: usize = 8;

/// The striped node cache: an LRU per stripe, each holding `Arc`ed nodes so
/// a cache hit hands back a reference-count bump instead of deep-cloning
/// the node's digest entries (the former per-visit clone was the single
/// largest allocation source in the query hot loop).
struct NodeCache<D> {
    stripes: Vec<Stripe<D>>,
    /// Hits of completed cache-only walks. Their lookups bypass the stripe
    /// counters until the walk is known to complete, so a walk that stops
    /// at a miss and is retried against the store counts each lookup once.
    probe_hits: AtomicU64,
}

/// One stripe: an independently locked LRU over `Arc`ed nodes.
type Stripe<D> = Mutex<LruCache<(u8, u64), Arc<Node<D>>>>;

impl<D: HomDigest> NodeCache<D> {
    fn new(budget_bytes: usize) -> Self {
        // Round the per-stripe budget up so tiny test budgets don't become
        // zero-capacity stripes; the aggregate overshoot is ≤ 7 bytes.
        let per_stripe = budget_bytes.div_ceil(CACHE_STRIPES);
        NodeCache {
            stripes: (0..CACHE_STRIPES)
                .map(|_| Mutex::new(LruCache::new(per_stripe)))
                .collect(),
            probe_hits: AtomicU64::new(0),
        }
    }

    fn stripe(&self, key: &(u8, u64)) -> &Stripe<D> {
        // Consecutive node indexes (the common locality pattern) land on
        // different stripes; mixing the level in (un-shifted — stripe
        // selection keeps only the low bits) keeps a node and its parent
        // at the same index from colliding systematically.
        let h = key.1 ^ (key.0 as u64);
        &self.stripes[(h % CACHE_STRIPES as u64) as usize]
    }

    fn get(&self, key: &(u8, u64)) -> Option<Arc<Node<D>>> {
        self.stripe(key).lock().get(key).cloned()
    }

    /// A lookup for a cache-only walk: refreshes recency, counts nothing.
    fn probe(&self, key: &(u8, u64)) -> Option<Arc<Node<D>>> {
        self.stripe(key).lock().get_uncounted(key).cloned()
    }

    fn put(&self, key: (u8, u64), node: Arc<Node<D>>, weight: usize) {
        self.stripe(&key).lock().put(key, node, weight);
    }

    fn remove(&self, key: &(u8, u64)) {
        self.stripe(key).lock().remove(key);
    }

    /// Aggregate (hits, misses) across stripes.
    fn stats(&self) -> (u64, u64) {
        let probed = self.probe_hits.load(Ordering::Relaxed);
        self.stripes.iter().fold((probed, 0), |(h, m), s| {
            let (sh, sm) = s.lock().stats();
            (h + sh, m + sm)
        })
    }
}

/// One query walk's running state.
struct Walk<D> {
    /// The homomorphic sum of the entries covered so far.
    acc: Option<D>,
    /// Resolve nodes from the cache alone (see [`AggTree::query_cached`]).
    cache_only: bool,
    /// Nodes a cache-only walk found cached, counted once it completes.
    hits: u64,
}

/// RAII end-bump for `cache_gen`: makes the odd→even transition
/// unskippable even when a writer errors out mid-flight (`?`), so a failed
/// append can't leave the generation permanently odd (readers would stop
/// caching) or desync the parity for the next writer.
struct GenGuard<'a> {
    gen: &'a AtomicU64,
}

impl Drop for GenGuard<'_> {
    fn drop(&mut self) {
        self.gen.fetch_add(1, Ordering::AcqRel);
    }
}

/// The chunk count persisted for `stream`, read straight from the index's
/// meta record without building a tree handle (no record stored means an
/// empty stream). This is exactly the length a fresh [`AggTree::open`]
/// would recover — the cheap answer for callers that need a cold stream's
/// published length without hydrating its state (lazy stream directories,
/// live-record staleness checks).
pub fn stored_chunk_count(kv: &dyn KvStore, stream: u128) -> Result<u64, IndexError> {
    match kv.get(&meta_key(stream))? {
        Some(bytes) => match <[u8; 8]>::try_from(bytes.as_slice()) {
            Ok(arr) => Ok(u64::from_le_bytes(arr)),
            Err(_) => Err(IndexError::CorruptNode { level: 0, index: 0 }),
        },
        None => Ok(0),
    }
}

impl<D: HomDigest> AggTree<D> {
    /// Opens (or creates) the tree for `stream` on `kv`, recovering the
    /// chunk count from the store.
    pub fn open(kv: Arc<dyn KvStore>, stream: u128, cfg: TreeConfig) -> Result<Self, IndexError> {
        assert!(cfg.arity >= 2, "arity must be at least 2");
        let len = stored_chunk_count(kv.as_ref(), stream)?;
        let cache = NodeCache::new(cfg.cache_bytes);
        Ok(AggTree {
            kv,
            stream,
            cfg,
            len: AtomicU64::new(len),
            write: Mutex::new(()),
            cache_gen: AtomicU64::new(0),
            cache,
        })
    }

    /// Number of chunks ingested (a consistent snapshot: every chunk
    /// counted here is fully resolvable through [`query`](Self::query)).
    pub fn len(&self) -> u64 {
        self.len.load(Ordering::Acquire)
    }

    /// True if no chunks have been ingested.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The fan-out.
    pub fn arity(&self) -> usize {
        self.cfg.arity
    }

    /// Number of levels above the chunks currently in use.
    pub fn levels(&self) -> u8 {
        let mut levels = 0u8;
        let mut span = 1u64;
        while span < self.len().max(1) {
            span = span.saturating_mul(self.cfg.arity as u64);
            levels += 1;
        }
        levels.max(1)
    }

    /// Appends the next chunk's digest (chunk index = current `len`),
    /// updating every ancestor level (write-through). Appends are
    /// serialized internally; concurrent queries proceed against the
    /// previous `len` snapshot and stay exact (see module docs).
    pub fn append(&self, digest: D) -> Result<(), IndexError> {
        self.append_batch(std::slice::from_ref(&digest))
    }

    /// Appends a run of consecutive chunk digests (starting at the current
    /// `len`) with **one store write per touched node** instead of one per
    /// chunk per level: the run is applied to an in-memory overlay of the
    /// touched nodes, which is flushed node-by-node at the end, followed by
    /// a single length-metadata write. For a k-chunk run landing in one
    /// leaf node this turns `2k` index puts into `~2` — the dominant cost
    /// of ingest when the store has per-operation latency.
    ///
    /// The final store/cache state is byte-identical to `k` sequential
    /// [`append`](Self::append)s (pinned by `append_batch_matches_
    /// sequential_appends`): the overlay applies exactly the per-chunk
    /// operations in the same order, only the persistence is coalesced.
    /// `len` is published once, after every flush write — readers observe
    /// either the pre-batch or the post-batch length, never a torn middle,
    /// by the same Release/Acquire argument as single appends.
    ///
    /// # Torn flushes self-heal
    ///
    /// A store failure mid-flush leaves `len` unpublished but may leave
    /// node writes behind (a *torn* flush). Appends are idempotent over
    /// that state: any entry at or beyond the appended chunk's slot
    /// describes unpublished history and is truncated, and every ancestor
    /// slot is *recomputed* as the total of its (corrected) child node
    /// rather than accumulated incrementally — so a retry after a crash or
    /// storage error can never double-count, and a stream never wedges on
    /// a failed append (it retries until the flush finally lands).
    pub fn append_batch(&self, digests: &[D]) -> Result<(), IndexError> {
        if digests.is_empty() {
            return Ok(());
        }
        let _write = self.write.lock();
        // Generation goes odd for the whole node-write window (see
        // `cache_gen`); the guard restores even parity on every exit path.
        self.cache_gen.fetch_add(1, Ordering::AcqRel);
        let _gen = GenGuard {
            gen: &self.cache_gen,
        };
        // lint: allow(atomics-ordering) — stable: we hold `write`, the only mutator; Relaxed cannot observe a torn value of our own last Release store
        let base = self.len.load(Ordering::Relaxed);
        let k = self.cfg.arity as u64;
        // Overlay of nodes touched by this run. BTreeMap so the flush
        // below writes in deterministic (level, index) order.
        let mut dirty: std::collections::BTreeMap<(u8, u64), Node<D>> =
            std::collections::BTreeMap::new();
        for (off, digest) in digests.iter().enumerate() {
            let i = base + off as u64;
            // Ripple into each ancestor: at level ℓ the digest lands in
            // node i / k^ℓ, slot (i / k^(ℓ-1)) % k. We stop one level above
            // the highest level whose node would have only one child ever —
            // but to keep queries simple we always maintain levels up to
            // levels().
            let mut level = 1u8;
            let mut child_index = i; // index at level-1 (ℓ-1)
            loop {
                let node_index = child_index / k;
                let slot = (child_index % k) as usize;
                let key = (level, node_index);
                if let std::collections::btree_map::Entry::Vacant(vacant) = dirty.entry(key) {
                    let loaded = self
                        .load_node(level, node_index)?
                        .map(|a| (*a).clone())
                        .unwrap_or(Node {
                            entries: Vec::new(),
                        });
                    vacant.insert(loaded);
                }
                // Entries at or beyond this chunk's slot describe history
                // past the published `len`: slots left behind by a torn
                // flush (the leaf was written but `len` never advanced), or
                // — at ancestors — the partial aggregate this pass is about
                // to recompute anyway. Dropping them makes the append
                // idempotent over any interrupted predecessor instead of
                // double-counting its leftovers.
                // lint: allow(panic-freedom) — `key` was inserted by the Entry::Vacant arm above; nothing removes from `dirty` in between
                dirty
                    .get_mut(&key)
                    .expect("inserted above")
                    .entries
                    .truncate(slot);
                let filled = dirty[&key].entries.len();
                // When the tree grows a new top level, the fresh node
                // must first absorb the aggregates of the already-
                // completed child subtrees to its left (they were roots
                // until now). Those children may themselves be dirty
                // from this very run, so totals consult the overlay.
                let mut backfill = Vec::with_capacity(slot - filled);
                for c in filled..slot {
                    backfill.push(self.node_total_overlay(
                        &dirty,
                        level - 1,
                        node_index * k + c as u64,
                    )?);
                }
                // A leaf slot holds the chunk digest itself; an ancestor
                // slot is, by definition, the total of its child subtree —
                // recomputed from the overlay child (corrected by the
                // previous ripple step) rather than accumulated in place,
                // so stale flushed aggregates can never double-count.
                let value = if level == 1 {
                    digest.clone()
                } else {
                    self.node_total_overlay(&dirty, level - 1, child_index)?
                };
                // lint: allow(panic-freedom) — same invariant as above: inserted this iteration, and `node_total_overlay` only reads `dirty`
                let node = dirty.get_mut(&key).expect("inserted above");
                node.entries.extend(backfill);
                node.entries.push(value);
                // Continue while there is (or will be) a higher level: stop
                // when this node is the lone root-level node and covers
                // everything.
                if node_index == 0 && (i + 1) <= span_at(level, k) {
                    break;
                }
                child_index = node_index;
                level += 1;
            }
        }
        // Flush: each touched node exactly once, then the length metadata.
        for ((level, node_index), node) in dirty {
            self.store_node(level, node_index, node)?;
        }
        let new_len = base + digests.len() as u64;
        self.kv
            .put(&meta_key(self.stream), &new_len.to_le_bytes())?;
        // Publish last: a reader that observes the new length is
        // guaranteed (Release/Acquire) to see every node write above.
        self.len.store(new_len, Ordering::Release);
        Ok(())
    }

    /// Statistical range query over chunks `[start, end)`: the homomorphic
    /// sum of their digests. Runs against a single `len` snapshot taken at
    /// entry, so it is exact even while an append is in flight.
    ///
    /// A misaligned range drills down two edge chains (the start edge and
    /// the end edge), one node load per level each, so it touches
    /// O(k · log_k n) digests and at most 2 · log_k n nodes.
    pub fn query(&self, start: u64, end: u64) -> Result<D, IndexError> {
        // A store walk never stops early: `None` cannot come back here.
        self.walk(start, end, false)?.ok_or(IndexError::BadRange {
            start,
            end,
            len: self.len(),
        })
    }

    /// [`query`](Self::query) answered from the node cache alone: the same
    /// walk, but it stops with `Ok(None)` ("would block") at the first node
    /// the cache does not hold — a node `query` would read from the store,
    /// or one `decay` deleted, which `query` then reports. It never reads
    /// the store, so a caller can try it on a latency-sensitive thread and
    /// hand only the misses to a thread that may block.
    ///
    /// Counting: a walk that completes counts its lookups as cache hits; a
    /// walk that stops counts nothing, so the store walk that follows it
    /// counts each lookup (and the miss) exactly once.
    pub fn query_cached(&self, start: u64, end: u64) -> Result<Option<D>, IndexError> {
        self.walk(start, end, true)
    }

    /// The shared body of [`query`](Self::query) and
    /// [`query_cached`](Self::query_cached): `Ok(None)` only when a
    /// cache-only walk stopped at a miss.
    fn walk(&self, start: u64, end: u64, cache_only: bool) -> Result<Option<D>, IndexError> {
        let _span = timecrypt_obs::trace::stage("index.walk");
        let len = self.len();
        if start >= end || end > len {
            return Err(IndexError::BadRange { start, end, len });
        }
        let k = self.cfg.arity as u64;
        // Find the lowest level whose single node covers [start, end).
        let mut level = 1u8;
        while span_at(level, k) < end {
            level += 1;
        }
        let mut walk = Walk {
            acc: None,
            cache_only,
            hits: 0,
        };
        if !self.query_node(level, 0, start, end, &mut walk)? {
            return Ok(None);
        }
        if walk.hits > 0 {
            self.cache
                .probe_hits
                .fetch_add(walk.hits, Ordering::Relaxed);
        }
        walk.acc
            .ok_or(IndexError::BadRange { start, end, len })
            .map(Some)
    }

    /// Recursive combine: add fully-covered entries of `(level, index)`;
    /// recurse into the (at most two) partially-covered children, start
    /// edge first. Returns `false` when a cache-only walk stopped at a
    /// node the cache does not hold.
    fn query_node(
        &self,
        level: u8,
        index: u64,
        start: u64,
        end: u64,
        walk: &mut Walk<D>,
    ) -> Result<bool, IndexError> {
        let k = self.cfg.arity as u64;
        let child_span = span_at(level - 1, k);
        let node = if walk.cache_only {
            match self.cache.probe(&(level, index)) {
                Some(node) => {
                    walk.hits += 1;
                    node
                }
                None => return Ok(false),
            }
        } else {
            // A missing node on the query path means the region was aged
            // out by `decay` (the only code path that deletes nodes):
            // report that distinctly from unparseable bytes, which `load`
            // maps to `CorruptNode`.
            self.load_node(level, index)?
                .ok_or(IndexError::Decayed { level, index })?
        };
        let base = index * span_at(level, k);
        // At most two children partially overlap a contiguous range: the
        // slot containing `start` and the slot containing `end`.
        let mut partial: [Option<u64>; 2] = [None, None];
        for (slot, entry) in node.entries.iter().enumerate() {
            let c_lo = base + slot as u64 * child_span;
            let c_hi = c_lo + child_span;
            if c_hi <= start || c_lo >= end {
                continue;
            }
            if start <= c_lo && c_hi <= end {
                match &mut walk.acc {
                    Some(a) => a.add_assign(entry),
                    None => walk.acc = Some(entry.clone()),
                }
            } else {
                // Partial overlap: drill down. At level 1 children are
                // chunks, which can't partially overlap a chunk-aligned
                // range, so level > 1 here.
                debug_assert!(level > 1, "partial overlap at chunk level");
                let child = index * k + slot as u64;
                if partial[0].is_none() {
                    partial[0] = Some(child);
                } else {
                    partial[1] = Some(child);
                }
            }
        }
        for child in partial.into_iter().flatten() {
            if !self.query_node(level - 1, child, start, end, walk)? {
                return Ok(false);
            }
        }
        Ok(true)
    }

    /// Data decay (§4.5): drops all *fully covered* index nodes at levels
    /// `< keep_level` for chunks before `before_chunk`, retaining only
    /// coarser aggregates for the aged-out region. Returns nodes removed.
    /// Serialized with `append`; a concurrent query drilling below the
    /// decayed level surfaces [`IndexError::Decayed`].
    pub fn decay(&self, before_chunk: u64, keep_level: u8) -> Result<usize, IndexError> {
        let _write = self.write.lock();
        // Odd generation across the deletes: a reader that fetched a node
        // just before its deletion must not re-insert it into the cache.
        self.cache_gen.fetch_add(1, Ordering::AcqRel);
        let _gen = GenGuard {
            gen: &self.cache_gen,
        };
        let k = self.cfg.arity as u64;
        let mut removed = 0usize;
        // Never decay the current root level: growth backfill needs it.
        let keep_level = keep_level.min(self.levels());
        for level in 1..keep_level {
            let span = span_at(level, k);
            // Node n at `level` covers [n*span, (n+1)*span): fully before
            // the cutoff iff (n+1)*span <= before_chunk.
            let full_nodes = before_chunk / span;
            for n in 0..full_nodes {
                let key = node_key(self.stream, level, n);
                if self.kv.get(&key)?.is_some() {
                    self.kv.delete(&key)?;
                    // Per-node cache locking (one stripe per removal):
                    // concurrent readers only ever wait one removal, not
                    // the whole decay scan.
                    self.cache.remove(&(level, n));
                    removed += 1;
                }
            }
        }
        Ok(removed)
    }

    /// Cache and size statistics.
    pub fn stats(&self) -> Result<TreeStats, IndexError> {
        let (hits, misses) = self.cache.stats();
        let nodes = self.kv.scan_prefix(&node_prefix(self.stream))?;
        Ok(TreeStats {
            cache_hits: hits,
            cache_misses: misses,
            stored_bytes: nodes.iter().map(|(k, v)| k.len() + v.len()).sum(),
            stored_nodes: nodes.len(),
        })
    }

    /// The homomorphic total of one (complete) node: the sum of its
    /// entries, preferring the batch overlay over the persisted state (a
    /// run crossing a level boundary backfills from nodes the same run
    /// just grew).
    fn node_total_overlay(
        &self,
        dirty: &std::collections::BTreeMap<(u8, u64), Node<D>>,
        level: u8,
        index: u64,
    ) -> Result<D, IndexError> {
        let sum = |entries: &[D]| {
            let mut acc = entries[0].clone();
            for e in &entries[1..] {
                acc.add_assign(e);
            }
            acc
        };
        if let Some(node) = dirty.get(&(level, index)) {
            return Ok(sum(&node.entries));
        }
        let node = self
            .load_node(level, index)?
            .ok_or(IndexError::CorruptNode { level, index })?;
        Ok(sum(&node.entries))
    }

    fn load_node(&self, level: u8, index: u64) -> Result<Option<Arc<Node<D>>>, IndexError> {
        if let Some(n) = self.cache.get(&(level, index)) {
            return Ok(Some(n));
        }
        let gen_before = self.cache_gen.load(Ordering::Acquire);
        match self.kv.get(&node_key(self.stream, level, index))? {
            Some(bytes) => {
                let node =
                    Arc::new(Node::decode(&bytes).ok_or(IndexError::CorruptNode { level, index })?);
                // Read-aside fill, guarded by the seqlock generation: only
                // cache if no writer critical section overlapped the KV
                // read (even and unchanged generation), otherwise these
                // bytes may already be superseded — returning them is fine
                // (snapshot semantics), caching them is not.
                if gen_before.is_multiple_of(2) {
                    let w = node.weight();
                    let stripe = self.cache.stripe(&(level, index));
                    let mut cache = stripe.lock();
                    if self.cache_gen.load(Ordering::Acquire) == gen_before {
                        cache.put((level, index), node.clone(), w);
                    }
                }
                Ok(Some(node))
            }
            None => Ok(None),
        }
    }

    fn store_node(&self, level: u8, index: u64, node: Node<D>) -> Result<(), IndexError> {
        self.kv
            .put(&node_key(self.stream, level, index), &node.encode())?;
        let w = node.weight();
        self.cache.put((level, index), Arc::new(node), w);
        Ok(())
    }
}

/// Chunks covered by one node at `level` (k^level).
fn span_at(level: u8, k: u64) -> u64 {
    k.saturating_pow(level as u32)
}

fn node_prefix(stream: u128) -> Vec<u8> {
    let mut key = Vec::with_capacity(18);
    key.extend_from_slice(b"i/");
    key.extend_from_slice(&stream.to_be_bytes());
    key
}

fn node_key(stream: u128, level: u8, index: u64) -> Vec<u8> {
    let mut key = node_prefix(stream);
    key.push(b'/');
    key.push(level);
    key.extend_from_slice(&index.to_be_bytes());
    key
}

fn meta_key(stream: u128) -> Vec<u8> {
    let mut key = Vec::with_capacity(18);
    key.extend_from_slice(b"im/");
    key.extend_from_slice(&stream.to_be_bytes());
    key
}

#[cfg(test)]
mod tests {
    use super::*;
    use timecrypt_store::MemKv;

    fn tree(arity: usize) -> AggTree<Vec<u64>> {
        let kv = Arc::new(MemKv::new());
        AggTree::open(
            kv,
            1,
            TreeConfig {
                arity,
                cache_bytes: 1 << 20,
            },
        )
        .unwrap()
    }

    fn fill(t: &AggTree<Vec<u64>>, n: u64) {
        for i in 0..n {
            t.append(vec![i, 1]).unwrap();
        }
    }

    fn naive_sum(a: u64, b: u64) -> Vec<u64> {
        vec![(a..b).sum::<u64>(), b - a]
    }

    #[test]
    fn single_chunk() {
        let t = tree(4);
        t.append(vec![42, 1]).unwrap();
        assert_eq!(t.query(0, 1).unwrap(), vec![42, 1]);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn query_matches_naive_fold_exhaustive() {
        // Every (a, b) range over 100 chunks, small arity to exercise many
        // levels and both partial edges.
        let t = tree(4);
        fill(&t, 100);
        for a in 0..100u64 {
            for b in (a + 1)..=100u64 {
                assert_eq!(t.query(a, b).unwrap(), naive_sum(a, b), "[{a},{b})");
            }
        }
    }

    #[test]
    fn arity_64_matches_naive() {
        let t = tree(64);
        fill(&t, 1000);
        for (a, b) in [
            (0u64, 1000u64),
            (0, 64),
            (63, 65),
            (64, 128),
            (1, 999),
            (500, 501),
            (0, 1),
        ] {
            assert_eq!(t.query(a, b).unwrap(), naive_sum(a, b), "[{a},{b})");
        }
    }

    #[test]
    fn bad_ranges_rejected() {
        let t = tree(4);
        fill(&t, 10);
        assert!(t.query(5, 5).is_err());
        assert!(t.query(6, 5).is_err());
        assert!(t.query(0, 11).is_err());
        assert!(t.query(10, 11).is_err());
    }

    #[test]
    fn reopen_recovers_length_and_data() {
        let kv: Arc<dyn KvStore> = Arc::new(MemKv::new());
        {
            let t: AggTree<Vec<u64>> = AggTree::open(
                kv.clone(),
                9,
                TreeConfig {
                    arity: 8,
                    cache_bytes: 1 << 20,
                },
            )
            .unwrap();
            for i in 0..77u64 {
                t.append(vec![i]).unwrap();
            }
        }
        let t: AggTree<Vec<u64>> = AggTree::open(
            kv,
            9,
            TreeConfig {
                arity: 8,
                cache_bytes: 1 << 20,
            },
        )
        .unwrap();
        assert_eq!(t.len(), 77);
        assert_eq!(t.query(0, 77).unwrap(), vec![(0..77).sum::<u64>()]);
        assert_eq!(t.query(10, 20).unwrap(), vec![(10..20).sum::<u64>()]);
    }

    #[test]
    fn streams_are_isolated() {
        let kv: Arc<dyn KvStore> = Arc::new(MemKv::new());
        let t1: AggTree<Vec<u64>> = AggTree::open(kv.clone(), 1, TreeConfig::default()).unwrap();
        let t2: AggTree<Vec<u64>> = AggTree::open(kv.clone(), 2, TreeConfig::default()).unwrap();
        t1.append(vec![100]).unwrap();
        t2.append(vec![200]).unwrap();
        assert_eq!(t1.query(0, 1).unwrap(), vec![100]);
        assert_eq!(t2.query(0, 1).unwrap(), vec![200]);
    }

    #[test]
    fn tiny_cache_still_correct() {
        // A 200-byte cache can hold at most a node or two: every query
        // hammers the KV but answers stay exact (Fig. 7 small-cache shape).
        let kv = Arc::new(MemKv::new());
        let t: AggTree<Vec<u64>> = AggTree::open(
            kv,
            3,
            TreeConfig {
                arity: 4,
                cache_bytes: 200,
            },
        )
        .unwrap();
        fill(&t, 200);
        for (a, b) in [(0u64, 200u64), (17, 113), (199, 200)] {
            assert_eq!(t.query(a, b).unwrap(), naive_sum(a, b));
        }
        let stats = t.stats().unwrap();
        assert!(stats.cache_misses > 0, "tiny cache must miss");
    }

    #[test]
    fn root_query_is_cheap_on_power_of_k() {
        // Aggregating the entire index = reading the root (Fig. 5's right
        // edge). We can't measure time here, but we can check the query
        // works exactly at the k^ℓ boundaries.
        let t = tree(4);
        fill(&t, 256); // 4^4
        assert_eq!(t.query(0, 256).unwrap(), naive_sum(0, 256));
        assert_eq!(t.query(0, 64).unwrap(), naive_sum(0, 64));
    }

    #[test]
    fn decay_drops_fine_nodes_keeps_coarse() {
        let t = tree(4);
        fill(&t, 256);
        let before = t.stats().unwrap().stored_nodes;
        // Age out everything below level 2 for the first 128 chunks.
        let removed = t.decay(128, 2).unwrap();
        assert!(removed > 0);
        let after = t.stats().unwrap().stored_nodes;
        assert_eq!(before - removed, after);
        // Coarse queries over the decayed region still work (level-2 nodes
        // cover 16 chunks each).
        assert_eq!(t.query(0, 256).unwrap(), naive_sum(0, 256));
        assert_eq!(t.query(0, 16).unwrap(), naive_sum(0, 16));
        // Recent data still queryable at full granularity.
        assert_eq!(t.query(200, 201).unwrap(), naive_sum(200, 201));
    }

    #[test]
    fn stats_accounting() {
        let t = tree(64);
        fill(&t, 500);
        let s = t.stats().unwrap();
        assert!(
            s.stored_nodes >= 8,
            "500 chunks / 64-ary = 8 level-1 nodes + root"
        );
        assert!(s.stored_bytes > 500 * 16, "leaf digests dominate");
    }

    /// A store that fails the `fail_at`-th put (1-based), passing
    /// everything else through to a [`MemKv`].
    struct FailNthPut {
        inner: MemKv,
        puts: std::sync::atomic::AtomicU64,
        fail_at: u64,
    }

    impl FailNthPut {
        fn new(fail_at: u64) -> Self {
            FailNthPut {
                inner: MemKv::new(),
                puts: std::sync::atomic::AtomicU64::new(0),
                fail_at,
            }
        }
    }

    impl KvStore for FailNthPut {
        fn get(&self, key: &[u8]) -> Result<Option<Vec<u8>>, StoreError> {
            self.inner.get(key)
        }
        fn put(&self, key: &[u8], value: &[u8]) -> Result<(), StoreError> {
            let n = self.puts.fetch_add(1, std::sync::atomic::Ordering::Relaxed) + 1;
            if n == self.fail_at {
                return Err(StoreError::Corrupt("injected put failure"));
            }
            self.inner.put(key, value)
        }
        fn delete(&self, key: &[u8]) -> Result<(), StoreError> {
            self.inner.delete(key)
        }
        fn scan_prefix(&self, prefix: &[u8]) -> Result<timecrypt_store::KvPairs, StoreError> {
            self.inner.scan_prefix(prefix)
        }
    }

    #[test]
    fn interrupted_append_self_heals_on_retry_without_double_counting() {
        // Arity 4: appends 0..=3 cost 2 puts each (leaf node + meta).
        // Append of chunk 4 puts the level-1 node (put #9), then fails on
        // the level-2 node (put #10) — a torn append: leaf written, len
        // not advanced.
        let kv = Arc::new(FailNthPut::new(10));
        let t: AggTree<Vec<u64>> = AggTree::open(
            kv.clone(),
            1,
            TreeConfig {
                arity: 4,
                cache_bytes: 1 << 20,
            },
        )
        .unwrap();
        fill(&t, 4);
        match t.append(vec![4, 1]) {
            Err(IndexError::Store(_)) => {}
            other => panic!("expected injected store failure, got {other:?}"),
        }
        assert_eq!(t.len(), 4, "torn append must not publish a new length");
        // The committed prefix stays exact and queryable.
        assert_eq!(t.query(0, 4).unwrap(), naive_sum(0, 4));
        // The retry must absorb the torn leftovers (the already-written
        // leaf slot) instead of double-counting them or wedging.
        t.append(vec![4, 1]).unwrap();
        assert_eq!(t.len(), 5);
        assert_eq!(t.query(0, 5).unwrap(), naive_sum(0, 5));
        // And the healed store is byte-identical to one that never failed.
        let clean_kv: Arc<dyn KvStore> = Arc::new(MemKv::new());
        let clean: AggTree<Vec<u64>> = AggTree::open(
            clean_kv.clone(),
            1,
            TreeConfig {
                arity: 4,
                cache_bytes: 1 << 20,
            },
        )
        .unwrap();
        fill(&clean, 5);
        assert_eq!(
            dump(kv.as_ref()),
            dump(clean_kv.as_ref()),
            "healed store diverges from a clean history"
        );
    }

    #[test]
    fn corrupt_length_prefix_fails_cleanly_without_allocating() {
        // A stored node claiming u32::MAX entries must parse-fail as
        // CorruptNode, not attempt a multi-GB Vec pre-allocation.
        let kv: Arc<dyn KvStore> = Arc::new(MemKv::new());
        {
            let t: AggTree<Vec<u64>> = AggTree::open(
                kv.clone(),
                1,
                TreeConfig {
                    arity: 4,
                    cache_bytes: 1 << 20,
                },
            )
            .unwrap();
            fill(&t, 8);
        }
        let mut bad = u32::MAX.to_le_bytes().to_vec();
        bad.extend_from_slice(&[0u8; 7]);
        kv.put(&node_key(1, 1, 0), &bad).unwrap();
        // Fresh handle (cold cache) so the corrupt bytes are actually read.
        let t: AggTree<Vec<u64>> = AggTree::open(
            kv,
            1,
            TreeConfig {
                arity: 4,
                cache_bytes: 1 << 20,
            },
        )
        .unwrap();
        match t.query(0, 4) {
            Err(IndexError::CorruptNode { level: 1, index: 0 }) => {}
            other => panic!("expected CorruptNode, got {other:?}"),
        }
    }

    #[test]
    fn query_below_decayed_level_reports_decayed_not_corrupt() {
        let t = tree(4);
        fill(&t, 256);
        assert!(t.decay(128, 2).unwrap() > 0);
        // Fine-grained query inside the aged-out region: a distinct,
        // well-explained error.
        match t.query(0, 1) {
            Err(IndexError::Decayed { level: 1, index: 0 }) => {}
            other => panic!("expected Decayed, got {other:?}"),
        }
        let msg = t.query(2, 3).unwrap_err().to_string();
        assert!(msg.contains("decay"), "message should explain decay: {msg}");
        // The same region at coarser granularity still answers exactly.
        assert_eq!(t.query(0, 16).unwrap(), naive_sum(0, 16));
        // Recent (undecayed) data still answers at full granularity.
        assert_eq!(t.query(130, 131).unwrap(), naive_sum(130, 131));
    }

    #[test]
    fn concurrent_readers_stay_exact_during_appends() {
        use std::sync::atomic::{AtomicBool, Ordering};
        // Small cache so readers also exercise the store miss path.
        let kv = Arc::new(MemKv::new());
        let t: Arc<AggTree<Vec<u64>>> = Arc::new(
            AggTree::open(
                kv,
                1,
                TreeConfig {
                    arity: 4,
                    cache_bytes: 512,
                },
            )
            .unwrap(),
        );
        const N: u64 = 600;
        let done = Arc::new(AtomicBool::new(false));
        std::thread::scope(|scope| {
            let writer = t.clone();
            let writer_done = done.clone();
            scope.spawn(move || {
                for i in 0..N {
                    writer.append(vec![i, 1]).unwrap();
                }
                writer_done.store(true, Ordering::Release);
            });
            for r in 0..4u64 {
                let t = t.clone();
                let done = done.clone();
                scope.spawn(move || {
                    let mut checked = 0u64;
                    loop {
                        let stop = done.load(Ordering::Acquire);
                        let len = t.len();
                        if len > 0 {
                            // Full prefix and a reader-dependent suffix:
                            // both must match the closed form exactly for
                            // the snapshot the reader observed.
                            assert_eq!(t.query(0, len).unwrap(), naive_sum(0, len));
                            let a = (r * len / 5).min(len - 1);
                            assert_eq!(t.query(a, len).unwrap(), naive_sum(a, len));
                            checked += 1;
                        }
                        if stop {
                            break;
                        }
                    }
                    assert!(checked > 0, "reader {r} never saw data");
                });
            }
        });
        assert_eq!(t.len(), N);
        // End-state canary: if any reader poisoned the cache with a stale
        // node during the run, these (cache-served) queries would now be
        // missing digests.
        for a in [0u64, 1, N / 3, N - 1] {
            assert_eq!(t.query(a, N).unwrap(), naive_sum(a, N), "[{a},{N})");
        }
    }

    #[test]
    fn growth_across_level_boundaries() {
        // Appending exactly across k, k^2 boundaries keeps queries exact.
        let t = tree(4);
        for n in 1..=70u64 {
            t.append(vec![n - 1, 1]).unwrap();
            assert_eq!(t.query(0, n).unwrap(), naive_sum(0, n), "after {n} appends");
        }
    }

    /// Full store dump (every key under the stream's index prefixes),
    /// sorted — the byte-identity probe for equivalence tests.
    fn dump(kv: &dyn KvStore) -> Vec<(Vec<u8>, Vec<u8>)> {
        let mut all = kv.scan_prefix(b"").unwrap();
        all.sort();
        all
    }

    #[test]
    fn append_batch_matches_sequential_appends() {
        // Batch sizes that land inside one leaf node, exactly fill one,
        // cross node boundaries, and cross level-growth boundaries — the
        // final store bytes must equal sequential appends exactly.
        for (arity, batches) in [
            (4usize, vec![1usize, 3, 4, 5, 16, 17, 64, 30]),
            (64, vec![64, 1, 63, 128, 200]),
            (2, vec![7, 9, 1, 15]),
        ] {
            let kv_seq = Arc::new(MemKv::new());
            let kv_batch = Arc::new(MemKv::new());
            let seq: AggTree<Vec<u64>> = AggTree::open(
                kv_seq.clone(),
                1,
                TreeConfig {
                    arity,
                    cache_bytes: 1 << 20,
                },
            )
            .unwrap();
            let batch: AggTree<Vec<u64>> = AggTree::open(
                kv_batch.clone(),
                1,
                TreeConfig {
                    arity,
                    cache_bytes: 1 << 20,
                },
            )
            .unwrap();
            let mut i = 0u64;
            for n in batches {
                let digests: Vec<Vec<u64>> = (0..n as u64).map(|j| vec![i + j, 1]).collect();
                for d in &digests {
                    seq.append(d.clone()).unwrap();
                }
                batch.append_batch(&digests).unwrap();
                i += n as u64;
                assert_eq!(seq.len(), batch.len());
                assert_eq!(
                    dump(kv_seq.as_ref()),
                    dump(kv_batch.as_ref()),
                    "arity {arity}, after {i} chunks: stores diverge"
                );
            }
            assert_eq!(batch.query(0, i).unwrap(), naive_sum(0, i));
        }
    }

    #[test]
    fn append_batch_self_heals_torn_state() {
        // Same torn-state setup as the single-append test: chunk 4's first
        // append died after the leaf write. A later *batch* starting at
        // chunk 4 must absorb the stale leaf slot and land both chunks
        // exactly once, converging on the same bytes as a clean history.
        let kv = Arc::new(FailNthPut::new(10));
        let t: AggTree<Vec<u64>> = AggTree::open(
            kv.clone(),
            1,
            TreeConfig {
                arity: 4,
                cache_bytes: 1 << 20,
            },
        )
        .unwrap();
        fill(&t, 4);
        assert!(t.append(vec![4, 1]).is_err());
        assert_eq!(t.len(), 4);
        t.append_batch(&[vec![4, 1], vec![5, 1]]).unwrap();
        assert_eq!(t.len(), 6);
        assert_eq!(t.query(0, 6).unwrap(), naive_sum(0, 6));
        let clean_kv: Arc<dyn KvStore> = Arc::new(MemKv::new());
        let clean: AggTree<Vec<u64>> = AggTree::open(
            clean_kv.clone(),
            1,
            TreeConfig {
                arity: 4,
                cache_bytes: 1 << 20,
            },
        )
        .unwrap();
        fill(&clean, 6);
        assert_eq!(
            dump(kv.as_ref()),
            dump(clean_kv.as_ref()),
            "healed store diverges from a clean history"
        );
    }

    #[test]
    fn deep_tree_queries_match_naive_sum() {
        // A deep arity-2 tree (600 chunks ⇒ 10 levels) with a tiny cache,
        // so misaligned ranges descend two long edge chains and most node
        // loads miss the cache and read the store.
        let t: AggTree<Vec<u64>> = AggTree::open(
            Arc::new(MemKv::new()),
            1,
            TreeConfig {
                arity: 2,
                cache_bytes: 512,
            },
        )
        .unwrap();
        fill(&t, 600);
        for (a, b) in [
            (1u64, 599u64),
            (1, 600),
            (0, 599),
            (3, 517),
            (255, 257),
            (0, 600),
            (299, 300),
        ] {
            assert_eq!(t.query(a, b).unwrap(), naive_sum(a, b), "[{a},{b})");
        }
    }
}
