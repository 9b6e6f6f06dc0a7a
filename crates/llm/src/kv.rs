//! The paged KV-cache arena, with copy-on-write prefix caching.
//!
//! Decode on real deployments is memory-bound: the KV cache, not the
//! MACs, is what fills the accelerator's DRAM budget (LlamaF,
//! arXiv:2409.11424). A serving runtime therefore needs KV storage it
//! can *budget*: fixed-size pages allocated from a shared pool, so the
//! scheduler can ask "does this request's prefill fit?" and "how many
//! pages would this tick grow?" before committing work — the vLLM
//! PagedAttention storage discipline, applied to this reproduction's
//! caches.
//!
//! A [`KvArena`] is that pool: a thread-safe handle (cheap to clone,
//! shared across every session of a serving runtime) that hands out
//! page buffers of [`page_tokens`](KvArena::page_tokens) rows and
//! enforces an optional budget in pages. [`KvCache`](crate::KvCache)
//! draws its per-layer storage from an arena; a lone cache defaults to
//! its own unbounded arena, so nothing changes for single-session use.
//!
//! ## Page sharing and the prefix index
//!
//! Pages are handed out as refcounted handles. A freshly allocated page
//! has one holder, so the owning cache writes to it without further
//! locking; *full* pages never change again (caches are append-only),
//! which makes them safe to share. Two mechanisms share them:
//!
//! * **Prefix caching.** The arena keeps an index from hashed
//!   token-prefix blocks (one block = `page_tokens` tokens, keyed under
//!   a caller-supplied *class* that names the model + quantisation
//!   scheme that produced the rows) to the full pages holding those
//!   rows. A cache that is about to prefill a prompt can *adopt* the
//!   longest indexed prefix — the shared pages are attached by
//!   refcount, no KV rows are recomputed or rewritten — and a cache
//!   that has finished a prompt can *publish* its full prefix pages for
//!   later requests. Index keys store the exact prefix tokens alongside
//!   the hash, so a hash collision degrades to a miss, never to wrong
//!   rows.
//! * **Copy-on-write clones.** [`KvCache::clone`](crate::KvCache)
//!   shares all pages with the original. Appending to a shared
//!   *partial* tail page first copies it into a private page
//!   (copy-on-write); full pages stay shared forever.
//!
//! The budget counts **unique** pages: a page shared by ten caches
//! costs one page of arena space. [`KvArena::pages_in_use`] reports
//! unique pages (what the budget is judged against) and
//! [`KvArena::logical_pages_in_use`] the per-holder view (what the
//! caches would cost without sharing); the gap is the sharing win.
//!
//! Index entries whose pages no cache references any more are
//! *reclaimable*: they are evicted least-recently-used, either on
//! demand ([`KvArena::ensure_free`]) or automatically when an
//! allocation would otherwise exhaust the budget.

use bbal_core::{
    algebra_quantize_in_place, packed_rows_capacity_bytes, PackedRows, RoundingMode, SchemeSpec,
};
use std::collections::BTreeMap;
use std::fmt;
use std::sync::{Arc, Mutex, MutexGuard};

/// Default page granularity of a lone cache's private arena: small
/// enough that short sequences waste little, large enough that page
/// bookkeeping is negligible against the attention math.
pub const DEFAULT_PAGE_TOKENS: usize = 16;

/// The arena has no free page left (its budget is exhausted and no
/// reclaimable prefix-cache entry remains).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ArenaFull {
    /// The arena's budget in pages, if one is set.
    pub budget_pages: Option<usize>,
    /// The arena's budget in bytes, if one is set.
    pub budget_bytes: Option<u64>,
}

impl fmt::Display for ArenaFull {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match (self.budget_pages, self.budget_bytes) {
            (Some(p), Some(b)) => {
                write!(f, "KV arena budget of {p} pages / {b} bytes exhausted")
            }
            (Some(p), None) => write!(f, "KV arena budget of {p} pages exhausted"),
            (None, Some(b)) => write!(f, "KV arena budget of {b} bytes exhausted"),
            (None, None) => write!(f, "KV arena budget exhausted"),
        }
    }
}

impl std::error::Error for ArenaFull {}

/// How a [`KvCache`](crate::KvCache) stores its key/value rows.
///
/// The default — dense f32, no quantisation — reproduces the classic
/// cache exactly. The two knobs are independent and both opt-in:
///
/// * `quantize` passes every appended K/V row through `scheme`'s
///   quantiser (per row, so any prefill chunking and any page size
///   produce the same rows). This **changes the numerics**
///   deterministically — it is the paper's compressed-KV operating
///   point, applied identically in prefill and decode.
/// * `packed` stores the page buffers in `scheme`'s packed block layout
///   ([`PackedRows`]) instead of dense f32. This **never changes the
///   numerics**: packing self-verifies and the attention kernels are
///   bit-identical to the dense loops, so `packed` on/off yields the
///   same token streams at a fraction of the page bytes.
///
/// Packing without quantisation stores dense f32 (raw activations are
/// not representable in a block format), so the byte win requires both
/// knobs; [`KvStore::storage_scheme`] encodes that rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KvStore {
    /// The quantisation scheme of the cached rows.
    pub scheme: SchemeSpec,
    /// Quantise each appended row through `scheme` before caching.
    pub quantize: bool,
    /// Store pages in `scheme`'s packed block layout.
    pub packed: bool,
}

impl KvStore {
    /// The classic store: dense f32 rows, no quantisation.
    pub fn dense_f32() -> KvStore {
        KvStore {
            scheme: SchemeSpec::Fp32,
            quantize: false,
            packed: false,
        }
    }

    /// The scheme pages are physically stored in: `scheme` when both
    /// knobs are on (rows are quantised, so the block layout round-trips
    /// exactly), dense f32 otherwise.
    pub fn storage_scheme(&self) -> SchemeSpec {
        if self.packed && self.quantize {
            self.scheme
        } else {
            SchemeSpec::Fp32
        }
    }

    /// Bytes one full page (K rows + V rows, `page_tokens × hidden`
    /// each) occupies — and is charged against an arena byte budget —
    /// under this store.
    pub fn page_bytes(&self, hidden: usize, page_tokens: usize) -> u64 {
        2 * packed_rows_capacity_bytes(self.storage_scheme(), hidden, page_tokens) as u64
    }

    /// Quantises one K/V row in place through `scheme` (the per-row
    /// step of the `quantize` knob). A no-op when `quantize` is off,
    /// when the scheme has no block form (`fp32` et al.), or when the
    /// row is non-finite. Per-row application makes the result
    /// independent of prefill chunking and page size.
    pub fn quantize_row(&self, row: &mut [f32]) {
        if !self.quantize {
            return;
        }
        let Some(alg) = self.scheme.block_algebra() else {
            return;
        };
        if !row.iter().all(|v| v.is_finite()) {
            return;
        }
        algebra_quantize_in_place(row, &alg, RoundingMode::NearestEven);
    }

    /// Bytes a `layers`-layer cache holding `tokens` tokens occupies
    /// under this store — whole pages, the byte twin of
    /// [`KvArena::pages_for_tokens`].
    pub fn bytes_for_tokens(
        &self,
        hidden: usize,
        page_tokens: usize,
        tokens: usize,
        layers: usize,
    ) -> u64 {
        (layers * tokens.div_ceil(page_tokens)) as u64 * self.page_bytes(hidden, page_tokens)
    }
}

impl Default for KvStore {
    fn default() -> KvStore {
        KvStore::dense_f32()
    }
}

/// One page of KV storage: up to `page_tokens` key rows and value rows
/// of one decoder layer, each held in a [`PackedRows`] buffer (dense
/// f32 for the classic store, the scheme's block layout for a packed
/// store). The row width is whatever the owning cache pushes (the
/// model's hidden width); the arena only recycles the backing buffers.
#[derive(Debug, Clone, Default)]
pub(crate) struct PageBuf {
    /// Key rows, `page_tokens × hidden`.
    pub k: PackedRows,
    /// Value rows, `page_tokens × hidden`.
    pub v: PackedRows,
    /// Bytes this page is charged against the arena's byte accounting
    /// (its full-page capacity under the owning cache's store).
    pub charge: u64,
}

/// A refcounted handle to one page. Shared pages are immutable (they
/// are always full); a sole holder appends through `Arc::get_mut`.
pub(crate) type PageRef = Arc<PageBuf>;

/// FNV-1a over the class and the exact prefix tokens: the hashed key of
/// a prefix-index block.
fn prefix_hash(class: u64, prefix: &[usize]) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for chunk in class.to_le_bytes() {
        h ^= u64::from(chunk);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    for &t in prefix {
        h ^= t as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// One indexed prefix block: the full pages (one per decoder layer)
/// holding rows `[len-page_tokens, len)` of a prompt prefix.
#[derive(Debug)]
struct PrefixEntry {
    /// The exact prefix tokens the pages were computed from — the
    /// collision guard behind the hashed map key.
    prefix: Vec<usize>,
    /// One full page per layer.
    pages: Vec<PageRef>,
    /// LRU stamp: the arena clock at the last adoption or publication.
    last_used: u64,
}

impl PrefixEntry {
    /// No cache holds these pages any more; evicting frees real space.
    fn reclaimable(&self) -> bool {
        self.pages.iter().all(|p| Arc::strong_count(p) == 1)
    }
}

/// Prefix-cache activity counters (see [`KvArena::prefix_stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PrefixStats {
    /// Prefix blocks currently indexed.
    pub entries: usize,
    /// Blocks adopted by caches (each adopted block counts once).
    pub hits: u64,
    /// Adoption attempts that found no cached block at all.
    pub misses: u64,
    /// Blocks inserted into the index.
    pub insertions: u64,
    /// Blocks evicted (LRU) to reclaim space.
    pub evictions: u64,
}

/// What [`KvArena::probe_prefix`] found resident for a prompt: the
/// basis of shared-aware admission accounting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PrefixProbe {
    /// Prompt tokens covered by resident indexed blocks (a multiple of
    /// [`KvArena::page_tokens`]).
    pub tokens: usize,
    /// Total pages those blocks span (`blocks × layers`).
    pub pages: usize,
    /// Of those, pages some cache already holds a reference to — pages
    /// a new adopter gets *for free* against the budget, because they
    /// are pinned by another request either way.
    pub held_pages: usize,
    /// Byte twin of `pages`: charges of the resident blocks' pages.
    pub bytes: u64,
    /// Byte twin of `held_pages`.
    pub held_bytes: u64,
}

#[derive(Debug)]
struct ArenaInner {
    page_tokens: usize,
    budget_pages: Option<usize>,
    /// Optional budget in *bytes* of packed page storage — the honest
    /// twin of `budget_pages` once pages are scheme-sized. Both budgets
    /// are enforced when both are set.
    budget_bytes: Option<u64>,
    /// Unique pages out of the free-list (shared pages count once).
    unique: usize,
    peak_unique: usize,
    /// Bytes charged by unique pages (each page's full-capacity charge).
    unique_bytes: u64,
    peak_unique_bytes: u64,
    /// Page handles held by caches (shared pages count once per
    /// holder). Excludes the prefix index's own references.
    logical: usize,
    peak_logical: usize,
    /// Byte twin of `logical`: page charges summed per holder.
    logical_bytes: u64,
    peak_logical_bytes: u64,
    free: Vec<PageBuf>,
    /// (class, prefix hash) → indexed block.
    index: BTreeMap<(u64, u64), PrefixEntry>,
    /// LRU clock, bumped once per adoption/publication.
    clock: u64,
    hits: u64,
    misses: u64,
    insertions: u64,
    evictions: u64,
}

impl ArenaInner {
    /// Evicts the least-recently-used reclaimable index entry; `false`
    /// when nothing is reclaimable. Ties (same stamp) break on the map
    /// key, so eviction order is deterministic.
    fn evict_one(&mut self) -> bool {
        let Some(key) = self
            .index
            .iter()
            .filter(|(_, e)| e.reclaimable())
            .min_by_key(|(k, e)| (e.last_used, **k))
            .map(|(k, _)| *k)
        else {
            return false;
        };
        let entry = self.index.remove(&key).expect("victim key was just found");
        for page in entry.pages {
            // `reclaimable` held under this same lock, and every clone
            // of an index page is made under the lock too, so unwrap
            // cannot race; stay defensive anyway.
            if let Ok(mut buf) = Arc::try_unwrap(page) {
                buf.k.clear();
                buf.v.clear();
                self.unique = self.unique.saturating_sub(1);
                self.unique_bytes = self.unique_bytes.saturating_sub(buf.charge);
                buf.charge = 0;
                self.free.push(buf);
            }
        }
        self.evictions += 1;
        true
    }

    /// Bytes still allocatable under the byte budget without eviction
    /// (`u64::MAX` when no byte budget is set).
    fn free_bytes(&self) -> u64 {
        match self.budget_bytes {
            Some(b) => b.saturating_sub(self.unique_bytes),
            None => u64::MAX,
        }
    }
}

/// A shared pool of fixed-size KV pages with an optional budget and a
/// copy-on-write prefix cache.
///
/// Cloning the handle shares the pool: every
/// [`KvCache`](crate::KvCache) created
/// [in the same arena](crate::TransformerModel::kv_cache_in) draws
/// from, and is limited by, the same budget — and can share prefix
/// pages with every other cache in the arena.
///
/// ```
/// use bbal_llm::KvArena;
///
/// let arena = KvArena::with_budget(4, 64);
/// assert_eq!(arena.page_tokens(), 4);
/// assert_eq!(arena.budget_pages(), Some(64));
/// assert_eq!(arena.pages_in_use(), 0);
/// // 10 tokens over 3 layers at 4 tokens/page: 3 pages per layer.
/// assert_eq!(arena.pages_for_tokens(10, 3), 9);
/// ```
#[derive(Clone)]
pub struct KvArena {
    inner: Arc<Mutex<ArenaInner>>,
}

impl fmt::Debug for KvArena {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let g = self.lock();
        f.debug_struct("KvArena")
            .field("page_tokens", &g.page_tokens)
            .field("budget_pages", &g.budget_pages)
            .field("unique", &g.unique)
            .field("logical", &g.logical)
            .field("peak_unique", &g.peak_unique)
            .field("indexed_prefixes", &g.index.len())
            .finish()
    }
}

impl KvArena {
    /// An arena with no page budget (allocation never fails).
    ///
    /// # Panics
    ///
    /// Panics if `page_tokens` is zero.
    pub fn unbounded(page_tokens: usize) -> KvArena {
        KvArena::build(page_tokens, None, None)
    }

    /// An arena limited to `budget_pages` pages across every cache that
    /// draws from it.
    ///
    /// # Panics
    ///
    /// Panics if `page_tokens` or `budget_pages` is zero.
    pub fn with_budget(page_tokens: usize, budget_pages: usize) -> KvArena {
        assert!(budget_pages > 0, "zero-page budget");
        KvArena::build(page_tokens, Some(budget_pages), None)
    }

    /// An arena limited to `budget_bytes` bytes of packed page storage
    /// across every cache that draws from it — the honest budget once
    /// pages are scheme-sized (a compressed page charges only its
    /// packed capacity, so a byte budget admits more compressed pages
    /// than f32 ones).
    ///
    /// # Panics
    ///
    /// Panics if `page_tokens` or `budget_bytes` is zero.
    pub fn with_byte_budget(page_tokens: usize, budget_bytes: u64) -> KvArena {
        assert!(budget_bytes > 0, "zero-byte budget");
        KvArena::build(page_tokens, None, Some(budget_bytes))
    }

    /// An arena constrained by any combination of page and byte budgets
    /// (`None` + `None` is [`KvArena::unbounded`]). Allocation fails as
    /// soon as *either* budget is exhausted.
    ///
    /// # Panics
    ///
    /// Panics if `page_tokens` is zero, or if either budget is `Some(0)`.
    pub fn with_budgets(
        page_tokens: usize,
        budget_pages: Option<usize>,
        budget_bytes: Option<u64>,
    ) -> KvArena {
        assert!(budget_pages != Some(0), "zero-page budget");
        assert!(budget_bytes != Some(0), "zero-byte budget");
        KvArena::build(page_tokens, budget_pages, budget_bytes)
    }

    fn build(
        page_tokens: usize,
        budget_pages: Option<usize>,
        budget_bytes: Option<u64>,
    ) -> KvArena {
        assert!(page_tokens > 0, "zero-token pages");
        KvArena {
            inner: Arc::new(Mutex::new(ArenaInner {
                page_tokens,
                budget_pages,
                budget_bytes,
                unique: 0,
                peak_unique: 0,
                unique_bytes: 0,
                peak_unique_bytes: 0,
                logical: 0,
                peak_logical: 0,
                logical_bytes: 0,
                peak_logical_bytes: 0,
                free: Vec::new(),
                index: BTreeMap::new(),
                clock: 0,
                hits: 0,
                misses: 0,
                insertions: 0,
                evictions: 0,
            })),
        }
    }

    fn lock(&self) -> MutexGuard<'_, ArenaInner> {
        // A panic inside the tensor math (the serve runtime catches
        // worker panics) must not wedge every other session's cache.
        match self.inner.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// Tokens per page.
    pub fn page_tokens(&self) -> usize {
        self.lock().page_tokens
    }

    /// The budget in pages, or `None` for an unbounded arena.
    pub fn budget_pages(&self) -> Option<usize> {
        self.lock().budget_pages
    }

    /// The budget in bytes, or `None` when no byte budget is set.
    pub fn budget_bytes(&self) -> Option<u64> {
        self.lock().budget_bytes
    }

    /// Bytes charged by unique pages — the byte twin of
    /// [`KvArena::pages_in_use`], judged against the byte budget.
    pub fn bytes_in_use(&self) -> u64 {
        self.lock().unique_bytes
    }

    /// Byte twin of [`KvArena::logical_pages_in_use`]: page charges
    /// summed per holder. `logical − unique` bytes is the sharing win.
    pub fn logical_bytes_in_use(&self) -> u64 {
        self.lock().logical_bytes
    }

    /// Bytes still allocatable before the byte budget is hit, without
    /// eviction (`u64::MAX` when no byte budget is set).
    pub fn free_bytes(&self) -> u64 {
        self.lock().free_bytes()
    }

    /// High-water mark of [`KvArena::bytes_in_use`].
    pub fn peak_bytes(&self) -> u64 {
        self.lock().peak_unique_bytes
    }

    /// High-water mark of [`KvArena::logical_bytes_in_use`].
    pub fn peak_logical_bytes(&self) -> u64 {
        self.lock().peak_logical_bytes
    }

    /// Unique pages currently out of the free-list — what the budget is
    /// judged against. A page shared by many caches (or retained only
    /// by the prefix index) counts once.
    pub fn pages_in_use(&self) -> usize {
        self.lock().unique
    }

    /// Page handles held by caches: what the same caches would occupy
    /// without sharing. `logical − unique` pages is the space sharing
    /// saved. Prefix-index retention does not count as a holder.
    pub fn logical_pages_in_use(&self) -> usize {
        self.lock().logical
    }

    /// Pages still allocatable before the budget is hit, *without*
    /// evicting anything (`usize::MAX` for an unbounded arena).
    pub fn free_pages(&self) -> usize {
        let g = self.lock();
        match g.budget_pages {
            Some(b) => b.saturating_sub(g.unique),
            None => usize::MAX,
        }
    }

    /// High-water mark of [`KvArena::pages_in_use`] (unique pages) over
    /// the arena's lifetime.
    pub fn peak_pages(&self) -> usize {
        self.lock().peak_unique
    }

    /// High-water mark of [`KvArena::logical_pages_in_use`]: the peak
    /// the reports would have shown if shared pages were double-counted
    /// per holder.
    pub fn peak_logical_pages(&self) -> usize {
        self.lock().peak_logical
    }

    /// Pages a cache of `layers` decoder layers holding `tokens` tokens
    /// occupies: `layers × ⌈tokens / page_tokens⌉`. This is the exact
    /// arithmetic [`KvCache`](crate::KvCache) allocates by, so a
    /// scheduler can plan admissions and preemptions without touching
    /// the arena.
    pub fn pages_for_tokens(&self, tokens: usize, layers: usize) -> usize {
        layers * tokens.div_ceil(self.lock().page_tokens)
    }

    /// Pages held *only* by the prefix index: evicting them frees real
    /// budget space without touching any active cache.
    pub fn reclaimable_pages(&self) -> usize {
        let g = self.lock();
        g.index
            .values()
            .flat_map(|e| &e.pages)
            .filter(|p| Arc::strong_count(p) == 1)
            .count()
    }

    /// Byte twin of [`KvArena::reclaimable_pages`]: charges of pages
    /// held only by the prefix index.
    pub fn reclaimable_bytes(&self) -> u64 {
        let g = self.lock();
        g.index
            .values()
            .flat_map(|e| &e.pages)
            .filter(|p| Arc::strong_count(p) == 1)
            .map(|p| p.charge)
            .sum()
    }

    /// Prefix-cache activity counters.
    pub fn prefix_stats(&self) -> PrefixStats {
        let g = self.lock();
        PrefixStats {
            entries: g.index.len(),
            hits: g.hits,
            misses: g.misses,
            insertions: g.insertions,
            evictions: g.evictions,
        }
    }

    /// Read-only probe: how much of `tokens` (capped at `max_tokens`)
    /// is resident in the prefix index under `class` for a
    /// `layers`-layer cache, and how many of those pages other caches
    /// already hold. Does not touch LRU state or stats — schedulers
    /// call this to plan admission before committing to an adoption.
    pub fn probe_prefix(
        &self,
        class: u64,
        tokens: &[usize],
        max_tokens: usize,
        layers: usize,
    ) -> PrefixProbe {
        let g = self.lock();
        let pt = g.page_tokens;
        let mut probe = PrefixProbe::default();
        for b in 1..=tokens.len().min(max_tokens) / pt {
            let prefix = &tokens[..b * pt];
            let Some(entry) = g.index.get(&(class, prefix_hash(class, prefix))) else {
                break;
            };
            if entry.prefix != prefix || entry.pages.len() != layers {
                break;
            }
            probe.tokens += pt;
            probe.pages += layers;
            for p in &entry.pages {
                probe.bytes += p.charge;
                if Arc::strong_count(p) > 1 {
                    probe.held_pages += 1;
                    probe.held_bytes += p.charge;
                }
            }
        }
        probe
    }

    /// Evicts least-recently-used reclaimable prefix entries until at
    /// least `pages` pages are allocatable without further eviction (or
    /// nothing reclaimable remains). Returns the entries evicted. A
    /// scheduler calls this before dispatching a tick's allocations so
    /// worker threads never have to evict (eviction order stays
    /// deterministic). No-op on an unbounded arena.
    pub fn ensure_free(&self, pages: usize) -> usize {
        let mut g = self.lock();
        let Some(budget) = g.budget_pages else {
            return 0;
        };
        let mut evicted = 0;
        while budget.saturating_sub(g.unique) < pages && g.evict_one() {
            evicted += 1;
        }
        evicted
    }

    /// Byte twin of [`KvArena::ensure_free`]: evicts LRU reclaimable
    /// prefix entries until at least `bytes` bytes are allocatable
    /// without further eviction (or nothing reclaimable remains).
    /// Returns the entries evicted. No-op without a byte budget.
    pub fn ensure_free_bytes(&self, bytes: u64) -> usize {
        let mut g = self.lock();
        if g.budget_bytes.is_none() {
            return 0;
        }
        let mut evicted = 0;
        while g.free_bytes() < bytes && g.evict_one() {
            evicted += 1;
        }
        evicted
    }

    /// Adopts the longest indexed prefix of `tokens` under `class` for
    /// a `layers`-layer cache, capped at `max_tokens` tokens: bumps the
    /// blocks' refcounts and returns them outermost-first (each inner
    /// vector holds one page per layer). Returns an empty vector on a
    /// cold prefix.
    pub(crate) fn adopt_prefix(
        &self,
        class: u64,
        tokens: &[usize],
        max_tokens: usize,
        layers: usize,
    ) -> Vec<Vec<PageRef>> {
        let mut g = self.lock();
        let pt = g.page_tokens;
        let tick = g.clock;
        g.clock += 1;
        let mut blocks: Vec<Vec<PageRef>> = Vec::new();
        for b in 1..=tokens.len().min(max_tokens) / pt {
            let prefix = &tokens[..b * pt];
            let key = (class, prefix_hash(class, prefix));
            let Some(entry) = g.index.get_mut(&key) else {
                break;
            };
            if entry.prefix != prefix || entry.pages.len() != layers {
                break;
            }
            entry.last_used = tick;
            blocks.push(entry.pages.clone());
        }
        if blocks.is_empty() {
            g.misses += 1;
        } else {
            g.hits += blocks.len() as u64;
        }
        g.logical += blocks.len() * layers;
        g.peak_logical = g.peak_logical.max(g.logical);
        g.logical_bytes += blocks
            .iter()
            .flatten()
            .map(|p: &PageRef| p.charge)
            .sum::<u64>();
        g.peak_logical_bytes = g.peak_logical_bytes.max(g.logical_bytes);
        blocks
    }

    /// Publishes one full prefix block: `pages` (one full page per
    /// layer) hold the KV rows of the last `page_tokens` tokens of
    /// `prefix`. First publication of a prefix wins; re-publishing is a
    /// no-op. The index holds plain references — publishing allocates
    /// nothing and the pages stay shared with the publishing cache.
    ///
    /// # Panics
    ///
    /// Panics if `prefix` is not a whole number of pages.
    pub(crate) fn publish_prefix(&self, class: u64, prefix: &[usize], pages: Vec<PageRef>) {
        let mut g = self.lock();
        assert!(
            !prefix.is_empty() && prefix.len().is_multiple_of(g.page_tokens),
            "published prefix must cover whole pages"
        );
        let key = (class, prefix_hash(class, prefix));
        if g.index.contains_key(&key) {
            return;
        }
        let tick = g.clock;
        g.clock += 1;
        g.index.insert(
            key,
            PrefixEntry {
                prefix: prefix.to_vec(),
                pages,
                last_used: tick,
            },
        );
        g.insertions += 1;
    }

    /// Takes one page out of the arena (recycled when available),
    /// charging `charge` bytes against the byte accounting. When a
    /// budget (pages or bytes) is exhausted, reclaimable prefix entries
    /// are evicted LRU-first before giving up.
    ///
    /// # Errors
    ///
    /// [`ArenaFull`] when a budget is exhausted and nothing is
    /// reclaimable.
    pub(crate) fn alloc(&self, charge: u64) -> Result<PageBuf, ArenaFull> {
        let mut g = self.lock();
        if g.budget_pages.is_some() || g.budget_bytes.is_some() {
            let over = |g: &ArenaInner| {
                g.budget_pages.is_some_and(|b| g.unique >= b) || g.free_bytes() < charge
            };
            while over(&g) && g.evict_one() {}
            if over(&g) {
                return Err(ArenaFull {
                    budget_pages: g.budget_pages,
                    budget_bytes: g.budget_bytes,
                });
            }
        }
        g.unique += 1;
        g.peak_unique = g.peak_unique.max(g.unique);
        g.unique_bytes += charge;
        g.peak_unique_bytes = g.peak_unique_bytes.max(g.unique_bytes);
        g.logical += 1;
        g.peak_logical = g.peak_logical.max(g.logical);
        g.logical_bytes += charge;
        g.peak_logical_bytes = g.peak_logical_bytes.max(g.logical_bytes);
        let mut buf = g.free.pop().unwrap_or_default();
        buf.charge = charge;
        Ok(buf)
    }

    /// Registers `handles` additional cache-held references (charging
    /// `bytes` in total) to already allocated pages (a copy-on-write
    /// cache clone): logical pages grow, unique pages do not.
    pub(crate) fn share(&self, handles: usize, bytes: u64) {
        let mut g = self.lock();
        g.logical += handles;
        g.peak_logical = g.peak_logical.max(g.logical);
        g.logical_bytes += bytes;
        g.peak_logical_bytes = g.peak_logical_bytes.max(g.logical_bytes);
    }

    /// Drops one cache-held page reference. The page returns to the
    /// free-list only when this was the last reference anywhere
    /// (including the prefix index); otherwise only the holder count
    /// drops.
    pub(crate) fn release_ref(&self, page: PageRef) {
        let mut g = self.lock();
        debug_assert!(g.logical > 0, "releasing into an empty arena");
        g.logical = g.logical.saturating_sub(1);
        g.logical_bytes = g.logical_bytes.saturating_sub(page.charge);
        if let Ok(mut buf) = Arc::try_unwrap(page) {
            buf.k.clear();
            buf.v.clear();
            debug_assert!(g.unique > 0, "freeing an untracked page");
            g.unique = g.unique.saturating_sub(1);
            g.unique_bytes = g.unique_bytes.saturating_sub(buf.charge);
            buf.charge = 0;
            g.free.push(buf);
        }
    }
}

impl Default for KvArena {
    /// An unbounded arena at [`DEFAULT_PAGE_TOKENS`] granularity.
    fn default() -> KvArena {
        KvArena::unbounded(DEFAULT_PAGE_TOKENS)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Allocates one page (zero byte charge) and wraps it in the handle
    /// a cache would hold.
    fn alloc_ref(arena: &KvArena) -> Result<PageRef, ArenaFull> {
        arena.alloc(0).map(Arc::new)
    }

    /// Publishes a one-layer block for `prefix`, allocating a fresh full
    /// page for it, and returns the cache-held handle.
    fn publish_block(arena: &KvArena, class: u64, prefix: &[usize]) -> PageRef {
        publish_block_charged(arena, class, prefix, 0)
    }

    /// As [`publish_block`], with an explicit byte charge.
    fn publish_block_charged(
        arena: &KvArena,
        class: u64,
        prefix: &[usize],
        charge: u64,
    ) -> PageRef {
        let mut page = arena.alloc(charge).expect("arena has room");
        page.k.reset(SchemeSpec::Fp32, 1);
        page.v.reset(SchemeSpec::Fp32, 1);
        for &t in prefix {
            page.k.push_row(&[t as f32]);
            page.v.push_row(&[-(t as f32)]);
        }
        let page = Arc::new(page);
        arena.publish_prefix(class, prefix, vec![page.clone()]);
        page
    }

    #[test]
    fn budget_is_enforced_and_released_pages_recycle() {
        let arena = KvArena::with_budget(8, 2);
        let a = alloc_ref(&arena).unwrap();
        let b = alloc_ref(&arena).unwrap();
        assert_eq!(arena.pages_in_use(), 2);
        assert_eq!(arena.free_pages(), 0);
        assert_eq!(
            arena.alloc(0).unwrap_err(),
            ArenaFull {
                budget_pages: Some(2),
                budget_bytes: None
            }
        );
        arena.release_ref(a);
        assert_eq!(arena.pages_in_use(), 1);
        let c = alloc_ref(&arena).unwrap();
        assert_eq!(arena.peak_pages(), 2);
        arena.release_ref(b);
        arena.release_ref(c);
        assert_eq!(arena.pages_in_use(), 0);
        assert_eq!(arena.logical_pages_in_use(), 0);
    }

    #[test]
    fn released_buffers_come_back_empty() {
        let arena = KvArena::unbounded(4);
        let mut page = arena.alloc(8).unwrap();
        page.k.reset(SchemeSpec::Fp32, 2);
        page.k.push_row(&[1.0, 2.0]);
        arena.release_ref(Arc::new(page));
        assert_eq!(arena.bytes_in_use(), 0);
        let recycled = arena.alloc(4).unwrap();
        assert!(recycled.k.is_empty() && recycled.v.is_empty());
        assert_eq!(recycled.charge, 4);
        assert_eq!(arena.bytes_in_use(), 4);
    }

    #[test]
    fn byte_budget_is_enforced_and_released_bytes_recycle() {
        let arena = KvArena::with_byte_budget(8, 100);
        assert_eq!(arena.budget_pages(), None);
        assert_eq!(arena.budget_bytes(), Some(100));
        assert_eq!(arena.free_bytes(), 100);
        let a = Arc::new(arena.alloc(60).unwrap());
        assert_eq!(arena.bytes_in_use(), 60);
        assert_eq!(arena.free_bytes(), 40);
        assert_eq!(
            arena.alloc(60).unwrap_err(),
            ArenaFull {
                budget_pages: None,
                budget_bytes: Some(100)
            }
        );
        // A smaller page still fits: byte budgets admit by size, not
        // count.
        let b = Arc::new(arena.alloc(40).unwrap());
        assert_eq!(arena.peak_bytes(), 100);
        assert_eq!(arena.logical_bytes_in_use(), 100);
        arena.release_ref(a);
        assert_eq!(arena.bytes_in_use(), 40);
        let c = Arc::new(arena.alloc(60).unwrap());
        arena.release_ref(b);
        arena.release_ref(c);
        assert_eq!(arena.bytes_in_use(), 0);
        assert_eq!(arena.logical_bytes_in_use(), 0);
        assert_eq!(arena.peak_bytes(), 100);
    }

    #[test]
    fn byte_budget_evicts_reclaimable_prefix_entries() {
        let arena = KvArena::with_byte_budget(2, 100);
        let cold = publish_block_charged(&arena, 1, &[1, 2], 80);
        arena.release_ref(cold);
        assert_eq!(arena.reclaimable_bytes(), 80);
        // The next allocation does not fit without evicting the entry.
        let page = Arc::new(arena.alloc(50).unwrap());
        assert_eq!(arena.prefix_stats().evictions, 1);
        assert_eq!(arena.bytes_in_use(), 50);
        arena.release_ref(page);
    }

    #[test]
    fn ensure_free_bytes_evicts_up_front() {
        let arena = KvArena::with_byte_budget(2, 100);
        for (prefix, charge) in [([1usize, 2], 30), ([3, 4], 30), ([5, 6], 30)] {
            let p = publish_block_charged(&arena, 1, &prefix, charge);
            arena.release_ref(p);
        }
        assert_eq!(arena.free_bytes(), 10);
        assert_eq!(arena.ensure_free_bytes(10), 0); // already free
        assert_eq!(arena.ensure_free_bytes(50), 2); // evicts two entries
        assert_eq!(arena.free_bytes(), 70);
        // Unbounded (no byte budget): never evicts.
        let unbounded = KvArena::with_budget(2, 8);
        let p = publish_block_charged(&unbounded, 1, &[1, 2], 30);
        unbounded.release_ref(p);
        assert_eq!(unbounded.ensure_free_bytes(u64::MAX), 0);
    }

    #[test]
    fn probe_and_adoption_report_bytes() {
        let arena = KvArena::unbounded(2);
        let held = publish_block_charged(&arena, 1, &[1, 2], 10);
        let released = publish_block_charged(&arena, 1, &[1, 2, 3, 4], 10);
        arena.release_ref(released);
        let probe = arena.probe_prefix(1, &[1, 2, 3, 4], 4, 1);
        assert_eq!(probe.bytes, 20);
        assert_eq!(probe.held_bytes, 10);
        let blocks = arena.adopt_prefix(1, &[1, 2, 3, 4], 4, 1);
        assert_eq!(blocks.len(), 2);
        // held (10) + adopter's two handles (20).
        assert_eq!(arena.logical_bytes_in_use(), 30);
        for block in blocks {
            for page in block {
                arena.release_ref(page);
            }
        }
        assert_eq!(arena.logical_bytes_in_use(), 10);
        drop(held);
    }

    #[test]
    fn pages_for_tokens_rounds_up_per_layer() {
        let arena = KvArena::unbounded(16);
        assert_eq!(arena.pages_for_tokens(0, 3), 0);
        assert_eq!(arena.pages_for_tokens(1, 3), 3);
        assert_eq!(arena.pages_for_tokens(16, 3), 3);
        assert_eq!(arena.pages_for_tokens(17, 3), 6);
    }

    #[test]
    fn clones_share_the_budget() {
        let arena = KvArena::with_budget(4, 1);
        let other = arena.clone();
        let page = alloc_ref(&other).unwrap();
        assert!(arena.alloc(0).is_err());
        other.release_ref(page);
        assert!(arena.alloc(0).is_ok());
    }

    #[test]
    fn unbounded_reports_max_free() {
        let arena = KvArena::default();
        assert_eq!(arena.free_pages(), usize::MAX);
        assert_eq!(arena.budget_pages(), None);
        assert_eq!(arena.page_tokens(), DEFAULT_PAGE_TOKENS);
    }

    #[test]
    fn shared_handles_count_unique_once_and_logical_per_holder() {
        let arena = KvArena::unbounded(4);
        let a = alloc_ref(&arena).unwrap();
        let b = a.clone();
        arena.share(1, 0);
        assert_eq!(arena.pages_in_use(), 1);
        assert_eq!(arena.logical_pages_in_use(), 2);
        assert_eq!(arena.peak_logical_pages(), 2);
        arena.release_ref(a);
        // The other holder keeps the page allocated.
        assert_eq!(arena.pages_in_use(), 1);
        assert_eq!(arena.logical_pages_in_use(), 1);
        arena.release_ref(b);
        assert_eq!(arena.pages_in_use(), 0);
        assert_eq!(arena.peak_pages(), 1);
        assert_eq!(arena.peak_logical_pages(), 2);
    }

    #[test]
    fn publish_then_adopt_shares_pages_without_allocating() {
        let arena = KvArena::unbounded(2);
        let prefix = [3usize, 1];
        let page = publish_block(&arena, 7, &prefix);
        assert_eq!(arena.prefix_stats().insertions, 1);
        assert_eq!(arena.pages_in_use(), 1);

        let blocks = arena.adopt_prefix(7, &[3, 1, 9, 9], 4, 1);
        assert_eq!(blocks.len(), 1);
        assert_eq!(blocks[0][0].k.to_dense(), page.k.to_dense());
        assert!(Arc::ptr_eq(&blocks[0][0], &page));
        // Adoption allocated nothing: one unique page, two holders.
        assert_eq!(arena.pages_in_use(), 1);
        assert_eq!(arena.logical_pages_in_use(), 2);
        assert_eq!(arena.prefix_stats().hits, 1);

        // A different class or a different prefix misses.
        assert!(arena.adopt_prefix(8, &[3, 1], 2, 1).is_empty());
        assert!(arena.adopt_prefix(7, &[3, 2], 2, 1).is_empty());
        // Fewer tokens than a block, or a cap below a block: miss.
        assert!(arena.adopt_prefix(7, &[3], 1, 1).is_empty());
        assert!(arena.adopt_prefix(7, &[3, 1], 1, 1).is_empty());
        assert_eq!(arena.prefix_stats().misses, 4);
    }

    #[test]
    fn adoption_stops_at_the_first_missing_block() {
        let arena = KvArena::unbounded(2);
        let _b1 = publish_block(&arena, 1, &[5, 6]);
        let _b3 = publish_block(&arena, 1, &[5, 6, 7, 8, 9, 10]);
        // Blocks 1 and 3 are indexed but 2 is not: only block 1 adopts.
        let blocks = arena.adopt_prefix(1, &[5, 6, 7, 8, 9, 10], 6, 1);
        assert_eq!(blocks.len(), 1);

        // Once block 2 is published the full run adopts, orphan healed.
        let _b2 = publish_block(&arena, 1, &[5, 6, 7, 8]);
        let blocks = arena.adopt_prefix(1, &[5, 6, 7, 8, 9, 10], 6, 1);
        assert_eq!(blocks.len(), 3);
    }

    #[test]
    fn republishing_is_a_no_op() {
        let arena = KvArena::unbounded(2);
        let first = publish_block(&arena, 1, &[1, 2]);
        let second = publish_block(&arena, 1, &[1, 2]);
        assert_eq!(arena.prefix_stats().insertions, 1);
        assert_eq!(arena.pages_in_use(), 2);
        // The adopted page is the first publication's.
        let blocks = arena.adopt_prefix(1, &[1, 2], 2, 1);
        assert!(Arc::ptr_eq(&blocks[0][0], &first));
        assert!(!Arc::ptr_eq(&blocks[0][0], &second));
    }

    #[test]
    fn probe_reports_residency_and_held_pages_without_side_effects() {
        let arena = KvArena::unbounded(2);
        let held = publish_block(&arena, 1, &[1, 2]);
        let released = publish_block(&arena, 1, &[1, 2, 3, 4]);
        arena.release_ref(released);
        assert_eq!(arena.reclaimable_pages(), 1);

        let probe = arena.probe_prefix(1, &[1, 2, 3, 4, 5], 5, 1);
        assert_eq!(probe.tokens, 4);
        assert_eq!(probe.pages, 2);
        assert_eq!(probe.held_pages, 1); // block 1 is still held by `held`
        assert_eq!(arena.probe_prefix(1, &[1, 2, 3, 4], 2, 1).tokens, 2);
        assert_eq!(arena.probe_prefix(2, &[1, 2], 2, 1), PrefixProbe::default());
        // Probing never counts as a hit or a miss.
        assert_eq!(
            (arena.prefix_stats().hits, arena.prefix_stats().misses),
            (0, 0)
        );
        drop(held);
    }

    #[test]
    fn lru_eviction_reclaims_only_unreferenced_entries() {
        let arena = KvArena::with_budget(2, 3);
        let held = publish_block(&arena, 1, &[1, 2]); // oldest, but held
        let cold = publish_block(&arena, 1, &[3, 4]);
        arena.release_ref(cold);
        let warm = publish_block(&arena, 1, &[5, 6]);
        arena.release_ref(warm);
        // Refresh [5, 6] so [3, 4] is the LRU reclaimable entry.
        let adopted = arena.adopt_prefix(1, &[5, 6], 2, 1);
        for block in adopted {
            for page in block {
                arena.release_ref(page);
            }
        }
        assert_eq!(arena.pages_in_use(), 3);
        assert_eq!(arena.reclaimable_pages(), 2);

        // The budget is full: the next alloc must evict exactly [3, 4].
        let page = alloc_ref(&arena).unwrap();
        assert_eq!(arena.prefix_stats().evictions, 1);
        assert!(arena.adopt_prefix(1, &[3, 4], 2, 1).is_empty());
        assert_eq!(arena.adopt_prefix(1, &[5, 6], 2, 1).len(), 1);
        // The held entry was never evictable, even though it is older.
        assert_eq!(arena.adopt_prefix(1, &[1, 2], 2, 1).len(), 1);
        drop((held, page));
    }

    #[test]
    fn alloc_fails_only_when_nothing_is_reclaimable() {
        let arena = KvArena::with_budget(2, 2);
        let a = publish_block(&arena, 1, &[1, 2]);
        let b = publish_block(&arena, 1, &[3, 4]);
        assert_eq!(arena.free_pages(), 0);
        // Both entries are held by caches: nothing to evict.
        assert!(arena.alloc(0).is_err());
        arena.release_ref(a);
        // Now one entry is reclaimable and alloc succeeds by evicting it.
        let c = alloc_ref(&arena).unwrap();
        assert_eq!(arena.prefix_stats().evictions, 1);
        drop((b, c));
    }

    #[test]
    fn ensure_free_evicts_up_front_and_reports_honestly() {
        let arena = KvArena::with_budget(2, 4);
        for prefix in [[1usize, 2], [3, 4], [5, 6]] {
            let p = publish_block(&arena, 1, &prefix);
            arena.release_ref(p);
        }
        assert_eq!(arena.free_pages(), 1);
        assert_eq!(arena.ensure_free(1), 0); // already free
        assert_eq!(arena.ensure_free(3), 2); // evicts the two oldest
        assert_eq!(arena.free_pages(), 3);
        // Asking for more than the budget can ever give evicts all and
        // stops.
        assert_eq!(arena.ensure_free(100), 1);
        assert_eq!(arena.free_pages(), 4);
        assert_eq!(arena.ensure_free(100), 0);
        // Unbounded arenas never evict on ensure_free.
        let unbounded = KvArena::unbounded(2);
        let p = publish_block(&unbounded, 1, &[1, 2]);
        unbounded.release_ref(p);
        assert_eq!(unbounded.ensure_free(usize::MAX), 0);
        assert_eq!(unbounded.prefix_stats().entries, 1);
    }

    #[test]
    #[should_panic(expected = "whole pages")]
    fn publishing_a_partial_block_is_rejected() {
        let arena = KvArena::unbounded(4);
        let page = alloc_ref(&arena).unwrap();
        arena.publish_prefix(1, &[1, 2, 3], vec![page]);
    }

    #[test]
    #[should_panic(expected = "zero-token pages")]
    fn zero_page_tokens_is_rejected() {
        let _ = KvArena::unbounded(0);
    }

    #[test]
    #[should_panic(expected = "zero-page budget")]
    fn zero_budget_is_rejected() {
        let _ = KvArena::with_budget(4, 0);
    }
}
