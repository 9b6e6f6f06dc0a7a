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
//! The budget is one [`KvBudget`]: a number of pages, or a number of
//! bytes of page charges. Either way a page has one cost against it (1
//! under a page budget, its byte charge under a byte budget), and every
//! decision compares that cost with what the budget has free. The
//! budget counts **unique** pages: a page shared by ten caches costs
//! one page of arena space. [`KvArena::in_use`] reports unique pages
//! and bytes (what the budget is judged against) and
//! [`KvArena::logical_in_use`] the per-holder view (what the caches
//! would cost without sharing); the gap is the sharing win.
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

/// A KV arena's budget: what it counts, and how much of it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KvBudget {
    /// At most this many unique pages; every page costs 1.
    Pages(usize),
    /// At most this many bytes of page charges; every page costs its
    /// charge (its full-page capacity under its cache's store), so a
    /// packed store fits more pages than a dense one.
    Bytes(u64),
}

impl KvBudget {
    /// The budget, in its own unit.
    pub fn limit(self) -> u64 {
        match self {
            KvBudget::Pages(pages) => pages as u64,
            KvBudget::Bytes(bytes) => bytes,
        }
    }

    /// What `usage` costs against this budget: its pages or its bytes.
    pub fn cost(self, usage: KvUsage) -> u64 {
        match self {
            KvBudget::Pages(_) => usage.pages as u64,
            KvBudget::Bytes(_) => usage.bytes,
        }
    }

    /// The budget's unit, singular: `"page"` or `"byte"`.
    pub fn unit(self) -> &'static str {
        match self {
            KvBudget::Pages(_) => "page",
            KvBudget::Bytes(_) => "byte",
        }
    }
}

impl fmt::Display for KvBudget {
    /// `"64 pages"`, `"4096 bytes"`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {}s", self.limit(), self.unit())
    }
}

/// An amount of KV storage counted both ways: pages, and the bytes
/// those pages are charged.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KvUsage {
    /// Pages.
    pub pages: usize,
    /// Bytes charged by those pages.
    pub bytes: u64,
}

impl KvUsage {
    /// One page charged `bytes`.
    pub fn page(bytes: u64) -> KvUsage {
        KvUsage { pages: 1, bytes }
    }

    /// Both counts less `other`'s, clamped at zero.
    pub fn saturating_sub(self, other: KvUsage) -> KvUsage {
        KvUsage {
            pages: self.pages.saturating_sub(other.pages),
            bytes: self.bytes.saturating_sub(other.bytes),
        }
    }

    /// The larger of each count (the update of a high-water mark).
    pub fn max(self, other: KvUsage) -> KvUsage {
        KvUsage {
            pages: self.pages.max(other.pages),
            bytes: self.bytes.max(other.bytes),
        }
    }
}

impl std::ops::Add for KvUsage {
    type Output = KvUsage;

    fn add(self, other: KvUsage) -> KvUsage {
        KvUsage {
            pages: self.pages + other.pages,
            bytes: self.bytes + other.bytes,
        }
    }
}

impl std::iter::Sum for KvUsage {
    fn sum<I: Iterator<Item = KvUsage>>(iter: I) -> KvUsage {
        iter.fold(KvUsage::default(), |a, b| a + b)
    }
}

/// The arena has no free page left (its budget is exhausted and no
/// reclaimable prefix-cache entry remains).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ArenaFull {
    /// The arena's budget, if one is set.
    pub budget: Option<KvBudget>,
}

impl fmt::Display for ArenaFull {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.budget {
            Some(budget) => write!(f, "KV arena budget of {budget} exhausted"),
            None => write!(f, "KV arena budget exhausted"),
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
///   ([`PackedRows`]) instead of dense f32: one integer element code
///   per value (`i16`, or `f32` where codes outgrow it) plus one
///   power-of-two scale per block, the same store packed weights use.
///   Its keys are stored key-minor ([`PackedRows::key_minor`]), the
///   layout the attention page kernel reads; the classic dense store
///   keeps every row row-major, as it always has.
///   This **never changes the numerics**: packing self-verifies and the
///   attention kernels are bit-identical to the dense loops, so `packed`
///   on/off yields the same token streams at a fraction of the page
///   bytes. Pages are *charged* the scheme's bit layout
///   ([`packed_rows_capacity_bytes`]); the codes they hold resident are
///   wider than those bits.
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

    /// Appends one K/V row to `rows` under this store: quantised as
    /// [`KvStore::quantize_row`] quantises it when `quantize` is on, in
    /// one encode pass into a page that stores the scheme's blocks
    /// ([`PackedRows::push_quantized_row`]), and as given otherwise.
    pub(crate) fn push_row(&self, rows: &mut PackedRows, row: &[f32]) {
        match self.scheme.block_algebra() {
            Some(alg) if self.quantize => rows.push_quantized_row(row, &alg),
            _ => rows.push_row(row),
        }
    }
}

impl Default for KvStore {
    fn default() -> KvStore {
        KvStore::dense_f32()
    }
}

/// One page of KV storage: up to `page_tokens` key rows and value rows
/// of one decoder layer, each held in a [`PackedRows`] buffer (dense
/// f32 for the classic store, the scheme's element codes and block
/// scales for a packed store). The arena builds each page fresh in the
/// scheme and width its cache asks for, and drops it when the last
/// reference goes.
#[derive(Debug, Clone)]
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
    /// The pages those blocks span (`blocks × layers`) and their
    /// charges.
    pub resident: KvUsage,
    /// Of those, the pages some cache already holds a reference to —
    /// pages a new adopter gets *for free* against the budget, because
    /// they are pinned by another request either way.
    pub held: KvUsage,
}

#[derive(Debug)]
struct ArenaInner {
    page_tokens: usize,
    budget: Option<KvBudget>,
    /// Unique pages allocated and not yet released (shared pages count
    /// once), with each page's full-capacity charge.
    unique: KvUsage,
    peak_unique: KvUsage,
    /// Page handles held by caches (shared pages count once per
    /// holder). Excludes the prefix index's own references.
    logical: KvUsage,
    peak_logical: KvUsage,
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
            if let Ok(buf) = Arc::try_unwrap(page) {
                self.unique = self.unique.saturating_sub(KvUsage::page(buf.charge));
            }
        }
        self.evictions += 1;
        true
    }

    /// Budget still allocatable without eviction, in the budget's unit
    /// (`u64::MAX` for an unbounded arena).
    fn free(&self) -> u64 {
        self.budget
            .map_or(u64::MAX, |b| b.limit().saturating_sub(b.cost(self.unique)))
    }

    /// Counts `added` more cache-held page handles.
    fn hold(&mut self, added: KvUsage) {
        self.logical = self.logical + added;
        self.peak_logical = self.peak_logical.max(self.logical);
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
/// use bbal_llm::{KvArena, KvBudget};
///
/// let arena = KvArena::with_budget(4, KvBudget::Pages(64));
/// assert_eq!(arena.page_tokens(), 4);
/// assert_eq!(arena.budget(), Some(KvBudget::Pages(64)));
/// assert_eq!(arena.free(), 64);
/// assert_eq!(arena.in_use().pages, 0);
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
            .field("budget", &g.budget)
            .field("unique", &g.unique)
            .field("logical", &g.logical)
            .field("peak_unique", &g.peak_unique)
            .field("indexed_prefixes", &g.index.len())
            .finish()
    }
}

impl KvArena {
    /// An arena with no budget (allocation never fails).
    ///
    /// # Panics
    ///
    /// Panics if `page_tokens` is zero.
    pub fn unbounded(page_tokens: usize) -> KvArena {
        KvArena::build(page_tokens, None)
    }

    /// An arena limited to `budget` across every cache that draws from
    /// it: a number of pages, or a number of bytes of page charges (a
    /// compressed page charges only its packed capacity, so a byte
    /// budget admits more compressed pages than f32 ones).
    ///
    /// # Panics
    ///
    /// Panics if `page_tokens` or the budget is zero.
    pub fn with_budget(page_tokens: usize, budget: KvBudget) -> KvArena {
        assert!(budget.limit() > 0, "zero-{} budget", budget.unit());
        KvArena::build(page_tokens, Some(budget))
    }

    fn build(page_tokens: usize, budget: Option<KvBudget>) -> KvArena {
        assert!(page_tokens > 0, "zero-token pages");
        KvArena {
            inner: Arc::new(Mutex::new(ArenaInner {
                page_tokens,
                budget,
                unique: KvUsage::default(),
                peak_unique: KvUsage::default(),
                logical: KvUsage::default(),
                peak_logical: KvUsage::default(),
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

    /// The budget, or `None` for an unbounded arena.
    pub fn budget(&self) -> Option<KvBudget> {
        self.lock().budget
    }

    /// Unique pages currently allocated, and the bytes they charge —
    /// what the budget is judged against. A page shared by many caches
    /// (or retained only by the prefix index) counts once.
    pub fn in_use(&self) -> KvUsage {
        self.lock().unique
    }

    /// Page handles held by caches, and their charges: what the same
    /// caches would occupy without sharing. `logical − unique` is the
    /// space sharing saved. Prefix-index retention does not count as a
    /// holder.
    pub fn logical_in_use(&self) -> KvUsage {
        self.lock().logical
    }

    /// Budget still allocatable before it is hit, *without* evicting
    /// anything, in the budget's unit (`u64::MAX` for an unbounded
    /// arena).
    pub fn free(&self) -> u64 {
        self.lock().free()
    }

    /// High-water marks of [`KvArena::in_use`] over the arena's
    /// lifetime (pages and bytes each their own maximum).
    pub fn peak(&self) -> KvUsage {
        self.lock().peak_unique
    }

    /// High-water marks of [`KvArena::logical_in_use`]: the peak the
    /// reports would have shown if shared pages were double-counted per
    /// holder.
    pub fn peak_logical(&self) -> KvUsage {
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

    /// Pages held *only* by the prefix index, and their charges:
    /// evicting them frees real budget space without touching any
    /// active cache.
    pub fn reclaimable(&self) -> KvUsage {
        let g = self.lock();
        g.index
            .values()
            .flat_map(|e| &e.pages)
            .filter(|p| Arc::strong_count(p) == 1)
            .map(|p| KvUsage::page(p.charge))
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
            for p in &entry.pages {
                probe.resident = probe.resident + KvUsage::page(p.charge);
                if Arc::strong_count(p) > 1 {
                    probe.held = probe.held + KvUsage::page(p.charge);
                }
            }
        }
        probe
    }

    /// Evicts least-recently-used reclaimable prefix entries until at
    /// least `amount` (in the budget's unit) is allocatable without
    /// further eviction (or nothing reclaimable remains). Returns the
    /// entries evicted. A scheduler calls this before dispatching a
    /// tick's allocations so worker threads never have to evict
    /// (eviction order stays deterministic). No-op on an unbounded
    /// arena.
    pub fn ensure_free(&self, amount: u64) -> usize {
        let mut g = self.lock();
        let mut evicted = 0;
        while g.free() < amount && g.evict_one() {
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
        let adopted = blocks.iter().flatten().map(|p| KvUsage::page(p.charge));
        g.hold(adopted.sum());
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

    /// Allocates one empty page whose rows are `width` wide and stored
    /// as `store` stores them ([`KvStore::storage_scheme`]), reserved at
    /// its full `page_tokens` rows so it never grows, charging `charge`
    /// bytes against the byte accounting ([`KvArena::charge_page`]). A
    /// packed store keeps its keys key-minor ([`PackedRows::key_minor`]),
    /// which the attention page kernel reads 16 keys at a time; values,
    /// and every row of the classic dense store, are row-major.
    ///
    /// # Errors
    ///
    /// [`ArenaFull`] when a budget is exhausted and nothing is
    /// reclaimable.
    pub(crate) fn alloc(
        &self,
        store: KvStore,
        width: usize,
        charge: u64,
    ) -> Result<PageBuf, ArenaFull> {
        let page_tokens = self.charge_page(charge)?;
        let storage = store.storage_scheme();
        let rows = || PackedRows::new(storage, width).copy_with_capacity(page_tokens);
        Ok(PageBuf {
            k: if store.packed {
                PackedRows::key_minor(storage, width, page_tokens)
            } else {
                rows()
            },
            v: rows(),
            charge,
        })
    }

    /// Allocates a private copy of `page` — the copy-on-write of a shared
    /// partial tail page — charged `charge` bytes as [`KvArena::alloc`]
    /// charges a fresh page: its rows, in buffers allocated once at the
    /// full `page_tokens` rows.
    ///
    /// # Errors
    ///
    /// [`ArenaFull`] when a budget is exhausted and nothing is
    /// reclaimable.
    pub(crate) fn copy_page(&self, page: &PageBuf, charge: u64) -> Result<PageBuf, ArenaFull> {
        let page_tokens = self.charge_page(charge)?;
        Ok(PageBuf {
            k: page.k.copy_with_capacity(page_tokens),
            v: page.v.copy_with_capacity(page_tokens),
            charge,
        })
    }

    /// Counts one new page of `charge` bytes as held (unique and
    /// logical, with their peaks) and returns the arena's page size in
    /// tokens. When the budget is exhausted, reclaimable prefix entries
    /// are evicted LRU-first before giving up.
    ///
    /// # Errors
    ///
    /// [`ArenaFull`] when the budget is exhausted and nothing is
    /// reclaimable.
    fn charge_page(&self, charge: u64) -> Result<usize, ArenaFull> {
        let page = KvUsage::page(charge);
        let mut g = self.lock();
        if let Some(budget) = g.budget {
            let cost = budget.cost(page);
            while g.free() < cost && g.evict_one() {}
            if g.free() < cost {
                return Err(ArenaFull { budget: g.budget });
            }
        }
        g.unique = g.unique + page;
        g.peak_unique = g.peak_unique.max(g.unique);
        g.hold(page);
        Ok(g.page_tokens)
    }

    /// Registers `shared` additional cache-held references to already
    /// allocated pages (a copy-on-write cache clone): logical pages
    /// grow, unique pages do not.
    pub(crate) fn share(&self, shared: KvUsage) {
        self.lock().hold(shared);
    }

    /// Drops one cache-held page reference. The page itself is freed
    /// only when this was the last reference anywhere (including the
    /// prefix index); otherwise only the holder count drops.
    pub(crate) fn release_ref(&self, page: PageRef) {
        let mut g = self.lock();
        debug_assert!(g.logical.pages > 0, "releasing into an empty arena");
        let usage = KvUsage::page(page.charge);
        g.logical = g.logical.saturating_sub(usage);
        if Arc::try_unwrap(page).is_ok() {
            debug_assert!(g.unique.pages > 0, "freeing an untracked page");
            g.unique = g.unique.saturating_sub(usage);
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
        arena.alloc(KvStore::dense_f32(), 1, 0).map(Arc::new)
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
        let mut page = arena
            .alloc(KvStore::dense_f32(), 1, charge)
            .expect("arena has room");
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
        let arena = KvArena::with_budget(8, KvBudget::Pages(2));
        let a = alloc_ref(&arena).unwrap();
        let b = alloc_ref(&arena).unwrap();
        assert_eq!(arena.in_use().pages, 2);
        assert_eq!(arena.free(), 0);
        assert_eq!(
            arena.alloc(KvStore::dense_f32(), 1, 0).unwrap_err(),
            ArenaFull {
                budget: Some(KvBudget::Pages(2))
            }
        );
        arena.release_ref(a);
        assert_eq!(arena.in_use().pages, 1);
        let c = alloc_ref(&arena).unwrap();
        assert_eq!(arena.peak().pages, 2);
        arena.release_ref(b);
        arena.release_ref(c);
        assert_eq!(arena.in_use().pages, 0);
        assert_eq!(arena.logical_in_use().pages, 0);
    }

    #[test]
    fn released_buffers_come_back_empty() {
        let arena = KvArena::unbounded(4);
        let mut page = arena.alloc(KvStore::dense_f32(), 2, 8).unwrap();
        page.k.push_row(&[1.0, 2.0]);
        arena.release_ref(Arc::new(page));
        assert_eq!(arena.in_use().bytes, 0);
        let packed = KvStore {
            scheme: SchemeSpec::Bfp(4),
            quantize: true,
            packed: true,
        };
        let fresh = arena.alloc(packed, 32, 4).unwrap();
        assert!(fresh.k.is_empty() && fresh.v.is_empty());
        assert!(fresh.k.is_key_minor() && !fresh.v.is_key_minor());
        assert_eq!(fresh.k.width(), 32);
        assert_eq!(fresh.charge, 4);
        assert_eq!(arena.in_use().bytes, 4);
    }

    #[test]
    fn byte_budget_is_enforced_and_released_bytes_recycle() {
        let arena = KvArena::with_budget(8, KvBudget::Bytes(100));
        assert_eq!(arena.budget(), Some(KvBudget::Bytes(100)));
        assert_eq!(arena.free(), 100);
        let a = Arc::new(arena.alloc(KvStore::dense_f32(), 1, 60).unwrap());
        assert_eq!(arena.in_use().bytes, 60);
        assert_eq!(arena.free(), 40);
        assert_eq!(
            arena.alloc(KvStore::dense_f32(), 1, 60).unwrap_err(),
            ArenaFull {
                budget: Some(KvBudget::Bytes(100))
            }
        );
        // A smaller page still fits: byte budgets admit by size, not
        // count.
        let b = Arc::new(arena.alloc(KvStore::dense_f32(), 1, 40).unwrap());
        assert_eq!(arena.peak().bytes, 100);
        assert_eq!(arena.logical_in_use().bytes, 100);
        arena.release_ref(a);
        assert_eq!(arena.in_use().bytes, 40);
        let c = Arc::new(arena.alloc(KvStore::dense_f32(), 1, 60).unwrap());
        arena.release_ref(b);
        arena.release_ref(c);
        assert_eq!(arena.in_use().bytes, 0);
        assert_eq!(arena.logical_in_use().bytes, 0);
        assert_eq!(arena.peak().bytes, 100);
    }

    #[test]
    fn byte_budget_evicts_reclaimable_prefix_entries() {
        let arena = KvArena::with_budget(2, KvBudget::Bytes(100));
        let cold = publish_block_charged(&arena, 1, &[1, 2], 80);
        arena.release_ref(cold);
        assert_eq!(arena.reclaimable().bytes, 80);
        // The next allocation does not fit without evicting the entry.
        let page = Arc::new(arena.alloc(KvStore::dense_f32(), 1, 50).unwrap());
        assert_eq!(arena.prefix_stats().evictions, 1);
        assert_eq!(arena.in_use().bytes, 50);
        arena.release_ref(page);
    }

    #[test]
    fn ensure_free_bytes_evicts_up_front() {
        let arena = KvArena::with_budget(2, KvBudget::Bytes(100));
        for (prefix, charge) in [([1usize, 2], 30), ([3, 4], 30), ([5, 6], 30)] {
            let p = publish_block_charged(&arena, 1, &prefix, charge);
            arena.release_ref(p);
        }
        assert_eq!(arena.free(), 10);
        assert_eq!(arena.ensure_free(10), 0); // already free
        assert_eq!(arena.ensure_free(50), 2); // evicts two entries
        assert_eq!(arena.free(), 70);
        // Unbounded (no budget): never evicts.
        let unbounded = KvArena::unbounded(2);
        let p = publish_block_charged(&unbounded, 1, &[1, 2], 30);
        unbounded.release_ref(p);
        assert_eq!(unbounded.ensure_free(u64::MAX), 0);
    }

    #[test]
    fn probe_and_adoption_report_bytes() {
        let arena = KvArena::unbounded(2);
        let held = publish_block_charged(&arena, 1, &[1, 2], 10);
        let released = publish_block_charged(&arena, 1, &[1, 2, 3, 4], 10);
        arena.release_ref(released);
        let probe = arena.probe_prefix(1, &[1, 2, 3, 4], 4, 1);
        assert_eq!(probe.resident.bytes, 20);
        assert_eq!(probe.held.bytes, 10);
        let blocks = arena.adopt_prefix(1, &[1, 2, 3, 4], 4, 1);
        assert_eq!(blocks.len(), 2);
        // held (10) + adopter's two handles (20).
        assert_eq!(arena.logical_in_use().bytes, 30);
        for block in blocks {
            for page in block {
                arena.release_ref(page);
            }
        }
        assert_eq!(arena.logical_in_use().bytes, 10);
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
        let arena = KvArena::with_budget(4, KvBudget::Pages(1));
        let other = arena.clone();
        let page = alloc_ref(&other).unwrap();
        assert!(arena.alloc(KvStore::dense_f32(), 1, 0).is_err());
        other.release_ref(page);
        assert!(arena.alloc(KvStore::dense_f32(), 1, 0).is_ok());
    }

    #[test]
    fn unbounded_reports_max_free() {
        let arena = KvArena::default();
        assert_eq!(arena.free(), u64::MAX);
        assert_eq!(arena.budget(), None);
        assert_eq!(arena.page_tokens(), DEFAULT_PAGE_TOKENS);
    }

    #[test]
    fn shared_handles_count_unique_once_and_logical_per_holder() {
        let arena = KvArena::unbounded(4);
        let a = alloc_ref(&arena).unwrap();
        let b = a.clone();
        arena.share(KvUsage::page(0));
        assert_eq!(arena.in_use().pages, 1);
        assert_eq!(arena.logical_in_use().pages, 2);
        assert_eq!(arena.peak_logical().pages, 2);
        arena.release_ref(a);
        // The other holder keeps the page allocated.
        assert_eq!(arena.in_use().pages, 1);
        assert_eq!(arena.logical_in_use().pages, 1);
        arena.release_ref(b);
        assert_eq!(arena.in_use().pages, 0);
        assert_eq!(arena.peak().pages, 1);
        assert_eq!(arena.peak_logical().pages, 2);
    }

    #[test]
    fn publish_then_adopt_shares_pages_without_allocating() {
        let arena = KvArena::unbounded(2);
        let prefix = [3usize, 1];
        let page = publish_block(&arena, 7, &prefix);
        assert_eq!(arena.prefix_stats().insertions, 1);
        assert_eq!(arena.in_use().pages, 1);

        let blocks = arena.adopt_prefix(7, &[3, 1, 9, 9], 4, 1);
        assert_eq!(blocks.len(), 1);
        assert_eq!(blocks[0][0].k.to_dense(), page.k.to_dense());
        assert!(Arc::ptr_eq(&blocks[0][0], &page));
        // Adoption allocated nothing: one unique page, two holders.
        assert_eq!(arena.in_use().pages, 1);
        assert_eq!(arena.logical_in_use().pages, 2);
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
        assert_eq!(arena.in_use().pages, 2);
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
        assert_eq!(arena.reclaimable().pages, 1);

        let probe = arena.probe_prefix(1, &[1, 2, 3, 4, 5], 5, 1);
        assert_eq!(probe.tokens, 4);
        assert_eq!(probe.resident.pages, 2);
        assert_eq!(probe.held.pages, 1); // block 1 is still held by `held`
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
        let arena = KvArena::with_budget(2, KvBudget::Pages(3));
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
        assert_eq!(arena.in_use().pages, 3);
        assert_eq!(arena.reclaimable().pages, 2);

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
        let arena = KvArena::with_budget(2, KvBudget::Pages(2));
        let a = publish_block(&arena, 1, &[1, 2]);
        let b = publish_block(&arena, 1, &[3, 4]);
        assert_eq!(arena.free(), 0);
        // Both entries are held by caches: nothing to evict.
        assert!(arena.alloc(KvStore::dense_f32(), 1, 0).is_err());
        arena.release_ref(a);
        // Now one entry is reclaimable and alloc succeeds by evicting it.
        let c = alloc_ref(&arena).unwrap();
        assert_eq!(arena.prefix_stats().evictions, 1);
        drop((b, c));
    }

    #[test]
    fn ensure_free_evicts_up_front_and_reports_honestly() {
        let arena = KvArena::with_budget(2, KvBudget::Pages(4));
        for prefix in [[1usize, 2], [3, 4], [5, 6]] {
            let p = publish_block(&arena, 1, &prefix);
            arena.release_ref(p);
        }
        assert_eq!(arena.free(), 1);
        assert_eq!(arena.ensure_free(1), 0); // already free
        assert_eq!(arena.ensure_free(3), 2); // evicts the two oldest
        assert_eq!(arena.free(), 3);
        // Asking for more than the budget can ever give evicts all and
        // stops.
        assert_eq!(arena.ensure_free(100), 1);
        assert_eq!(arena.free(), 4);
        assert_eq!(arena.ensure_free(100), 0);
        // Unbounded arenas never evict on ensure_free.
        let unbounded = KvArena::unbounded(2);
        let p = publish_block(&unbounded, 1, &[1, 2]);
        unbounded.release_ref(p);
        assert_eq!(unbounded.ensure_free(u64::MAX), 0);
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
        let _ = KvArena::with_budget(4, KvBudget::Pages(0));
    }
}
