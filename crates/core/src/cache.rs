//! Cross-hop memoization of the forwarding decision.
//!
//! GMP is stateless per hop: every forwarder rebuilds a virtual Steiner
//! tree over the packet's remaining destination set and regroups from
//! scratch (Figure 7). Consecutive hops therefore repeat nearly identical
//! work — same destination set, same neighborhood geometry — and the
//! simulator replays whole tasks thousands of times.
//! [`ConcurrentTreeCache`] exploits that: it memoizes the *outcome* of
//! [`DecisionScratch::group_destinations_into`] keyed by a fingerprint of
//! the decision inputs, and serves a stored [`Grouping`] instead of
//! rebuilding the tree.
//!
//! # Why cached decisions are bit-exact
//!
//! The grouping is a pure function of exactly these inputs: the deciding
//! node's position, the radio range, the destination ids and positions,
//! the neighbor ids, positions and liveness bits, the radio-range-aware
//! flag, and the perimeter entry point. A cache entry stores **all of
//! them exactly** (positions compared by `f64` bit pattern), and a lookup
//! only serves the stored grouping after verifying every one — so a hit
//! is *proven* equal to what recomputation would produce, not assumed
//! from a hash. The fingerprint only finds the candidate entry, and it
//! hashes ids and bit patterns alone: the node id, the flags, the
//! perimeter entry's bits, the destination ids and the indices of dead
//! neighbors. It reads no position, so a different topology behind the
//! same ids lands on the same probe and is turned away by the exact check;
//! correctness never rests on the hash.
//!
//! Any input change the fingerprint misses (a hash collision, a different
//! topology behind the same ids) fails verification and falls back to a
//! full rebuild; a liveness flip changes the dead-neighbor indices and so
//! the probe itself. Either way `gmp-faults` liveness changes invalidate
//! affected entries without any out-of-band notification.
//!
//! The liveness bits are *normalized*: a `None` view and an all-`true`
//! slice have no dead neighbors, so they share one fingerprint and store
//! identical bits. That is sound because the grouping's only
//! read of the view — the candidate filter at the top of
//! `find_next_hop`'s neighbor loop — precedes all floating-point work, so
//! the two views are bit-identical by construction (the zero-fault parity
//! contract).
//!
//! With `GMP_CACHE_PARANOID` set (any value but `0`), every verified hit
//! *additionally* recomputes the decision and asserts the stored grouping
//! matches — the belt-and-braces mode the parity tests run under.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

use gmp_geom::Point;
use gmp_net::{NodeId, Topology};

use crate::grouping::{DecisionScratch, Grouping};

/// Probe window width: a fingerprint may land in any of this many
/// consecutive slots.
const WAYS: usize = 4;

/// Tuning knobs for [`ConcurrentTreeCache`]. These affect only speed and
/// memory, never outcomes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Decisions the table can hold, rounded up to a power of two of at
    /// least 4; `0` disables caching (`GMP_CACHE_CAPACITY`).
    pub capacity: usize,
    /// Recompute-and-compare every hit (`GMP_CACHE_PARANOID`).
    pub paranoid: bool,
}

impl Default for CacheConfig {
    fn default() -> Self {
        CacheConfig {
            capacity: 8192,
            paranoid: false,
        }
    }
}

impl CacheConfig {
    /// The defaults with any `GMP_CACHE_CAPACITY` / `GMP_CACHE_PARANOID`
    /// environment overrides applied. Unparsable values fall back to the
    /// defaults with a warning on stderr — never a panic.
    pub fn from_env() -> Self {
        let (config, warnings) = CacheConfig::from_lookup(|key| std::env::var(key).ok());
        for w in &warnings {
            eprintln!("warning: {w}");
        }
        config
    }

    /// [`CacheConfig::from_env`] with the variable source injected, so the
    /// malformed-input paths are testable without mutating the process
    /// environment. Returns the resolved configuration plus one warning
    /// message per rejected value.
    pub fn from_lookup(lookup: impl Fn(&str) -> Option<String>) -> (Self, Vec<String>) {
        let mut config = CacheConfig::default();
        let mut warnings = Vec::new();
        config.capacity = gmp_sim::env_knob(
            &lookup,
            "GMP_CACHE_CAPACITY",
            config.capacity,
            "is not a non-negative integer",
            &format!("default {}", config.capacity),
            |raw| raw.parse::<usize>().ok(),
            &mut warnings,
        );
        // Any value but "0" enables paranoid mode — no malformed case, by
        // construction.
        if let Some(raw) = lookup("GMP_CACHE_PARANOID") {
            config.paranoid = raw != "0";
        }
        (config, warnings)
    }
}

/// Counters describing how the cache behaved, for the bench reports.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups served from a stored, fully verified entry.
    pub hits: u64,
    /// Lookups with no stored entry under the fingerprint: computed
    /// fresh, then stored if the probe window had room.
    pub misses: u64,
    /// Lookups whose stored entry under the fingerprint failed the exact
    /// validity check (liveness flip, hash collision, changed geometry):
    /// computed fresh.
    pub fallbacks: u64,
    /// Decisions currently stored — an occupancy snapshot taken by
    /// [`ConcurrentTreeCache::stats`], not a running counter.
    pub entries_live: u64,
}

impl CacheStats {
    /// Total lookups.
    pub fn lookups(&self) -> u64 {
        self.hits + self.misses + self.fallbacks
    }

    /// Fraction of lookups served from the cache, or 0 when idle.
    pub fn hit_rate(&self) -> f64 {
        let total = self.lookups();
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

// Word layout of a packed [`CacheEntry`]. A fixed header, then:
//
// * one [`RECORD`] per destination, then one per neighbor: the node id
//   and its position's bits;
// * the dead-neighbor bitmap, `⌈m / 32⌉` words: bit `i % 32` of word
//   `i / 32` is set iff neighbor `i` is dead in the decision's view;
// * the void destination ids;
// * each covered group as `[next hop, length, destination ids…]`, to the
//   end of the entry.
//
// An `f64` takes two words, low half first.

/// Header word: the deciding node's id.
const NODE: usize = 0;
/// Header word: [`Decision::flags`].
const FLAGS: usize = 1;
/// Header word: the destination count `k`.
const DEST_COUNT: usize = 2;
/// Header word: the neighbor count `m`.
const NEIGHBOR_COUNT: usize = 3;
/// Header word: the void destination count.
const VOID_COUNT: usize = 4;
/// Header words: the radio range.
const RANGE: usize = 5;
/// Header words: the deciding node's position.
const NODE_POS: usize = 7;
/// Header words: the perimeter entry point (zero when absent).
const ENTRY_POS: usize = 11;
/// Header length in words.
const HEADER: usize = 15;
/// Words per (node id, position) record.
const RECORD: usize = 5;

/// One published decision: every exact input and the resulting grouping,
/// packed into a single allocation of 32-bit words (layout above).
/// Immutable once published.
#[derive(Debug)]
struct CacheEntry {
    words: Box<[u32]>,
}

/// An `f64`'s bits as two words, low half first.
#[inline]
fn bits_words(bits: u64) -> [u32; 2] {
    [bits as u32, (bits >> 32) as u32]
}

/// A point's coordinate bits as four words.
#[inline]
fn point_words(p: Point) -> [u32; 4] {
    let ([x0, x1], [y0, y1]) = (bits_words(p.x.to_bits()), bits_words(p.y.to_bits()));
    [x0, x1, y0, y1]
}

#[inline]
fn bits_at(words: &[u32], at: usize) -> u64 {
    u64::from(words[at]) | u64::from(words[at + 1]) << 32
}

/// `true` iff the four words at `at` hold exactly `p`'s bits.
#[inline]
fn point_at(words: &[u32], at: usize, p: Point) -> bool {
    bits_at(words, at) == p.x.to_bits() && bits_at(words, at + 2) == p.y.to_bits()
}

impl CacheEntry {
    /// Serves the stored grouping into `scratch`.
    fn load_into(&self, scratch: &mut DecisionScratch) {
        let w = &self.words;
        let (k, m) = (w[DEST_COUNT] as usize, w[NEIGHBOR_COUNT] as usize);
        let voids_at = HEADER + RECORD * (k + m) + m.div_ceil(32);
        let (voids, mut groups) = w[voids_at..].split_at(w[VOID_COUNT] as usize);
        let groups = std::iter::from_fn(move || {
            let [hop, len, rest @ ..] = groups else {
                return None;
            };
            let (ids, tail) = rest.split_at(*len as usize);
            groups = tail;
            Some((NodeId(*hop), ids.iter().map(|&d| NodeId(d))))
        });
        scratch.load_grouping(voids.iter().map(|&v| NodeId(v)), groups);
    }
}

/// The inputs of one forwarding decision, bundled so the fingerprint, the
/// exact check, the recompute and the stored entry all read the same
/// values.
struct Decision<'a> {
    topo: &'a Topology,
    node: NodeId,
    dests: &'a [NodeId],
    radio_range_aware: bool,
    perimeter_entry: Option<Point>,
    alive: Option<&'a [bool]>,
}

/// One FxHash-style mixing step (rotate, xor, multiply by a large odd
/// constant) — cheap, dependency-free, and plenty for keys this small.
#[inline]
fn mix(h: u64, v: u64) -> u64 {
    (h.rotate_left(5) ^ v).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95)
}

impl Decision<'_> {
    /// Bit 0: radio-range aware; bit 1: a perimeter entry point is set.
    #[inline]
    fn flags(&self) -> u32 {
        u32::from(self.radio_range_aware) | u32::from(self.perimeter_entry.is_some()) << 1
    }

    /// The dead-neighbor bitmap word for `chunk` (at most 32 neighbors):
    /// bit `i` set iff `chunk[i]` is dead in the view. `None` has no dead
    /// neighbors, so it shares every word with an all-`true` view (see the
    /// module docs for why that is sound).
    #[inline]
    fn dead_word(&self, chunk: &[NodeId]) -> u32 {
        let Some(alive) = self.alive else {
            return 0;
        };
        chunk
            .iter()
            .enumerate()
            .fold(0, |bits, (i, n)| bits | u32::from(!alive[n.index()]) << i)
    }

    /// The uncached decision, computed into `scratch`.
    fn compute_into(&self, scratch: &mut DecisionScratch) {
        scratch.group_destinations_into(
            self.topo,
            self.node,
            self.dests,
            self.radio_range_aware,
            self.perimeter_entry,
            self.alive,
        );
    }

    /// The lookup fingerprint: node id, flags, the perimeter entry's bits,
    /// the destination ids and the indices of dead neighbors, mixed into
    /// 64 bits. Ids and bit patterns only — no position is read, and the
    /// neighbor walk is skipped when there is no liveness view. Only a
    /// probe: every served decision is re-verified against exact inputs.
    fn fingerprint(&self) -> u64 {
        let mut h = mix(0x9e37_79b9_7f4a_7c15, u64::from(self.node.0));
        h = mix(h, u64::from(self.flags()));
        if let Some(e) = self.perimeter_entry {
            h = mix(h, e.x.to_bits());
            h = mix(h, e.y.to_bits());
        }
        for &d in self.dests {
            h = mix(h, u64::from(d.0));
        }
        if let Some(alive) = self.alive {
            for (i, n) in self.topo.neighbors(self.node).iter().enumerate() {
                if !alive[n.index()] {
                    // Bit 32 keeps dead indices apart from node ids.
                    h = mix(h, 1 << 32 | i as u64);
                }
            }
        }
        h
    }

    /// The exact-input validity check: `true` iff recomputing this
    /// decision is guaranteed to reproduce `entry`'s grouping (every value
    /// the decision reads is compared, positions by bit pattern).
    fn matches(&self, entry: &CacheEntry) -> bool {
        let topo = self.topo;
        let w = &entry.words;
        let neighbors = topo.neighbors(self.node);
        let (k, m) = (self.dests.len(), neighbors.len());
        if w[NODE] != self.node.0
            || w[FLAGS] != self.flags()
            || w[DEST_COUNT] as usize != k
            || w[NEIGHBOR_COUNT] as usize != m
            || bits_at(w, RANGE) != topo.radio_range().to_bits()
            || !point_at(w, NODE_POS, topo.pos(self.node))
            || self
                .perimeter_entry
                .is_some_and(|e| !point_at(w, ENTRY_POS, e))
        {
            return false;
        }
        let records_match = |records: &[u32], ids: &[NodeId]| {
            records
                .chunks_exact(RECORD)
                .zip(ids)
                .all(|(r, &id)| r[0] == id.0 && point_at(r, 1, topo.pos(id)))
        };
        let (dest_records, rest) = w[HEADER..].split_at(RECORD * k);
        let (neighbor_records, rest) = rest.split_at(RECORD * m);
        records_match(dest_records, self.dests)
            && records_match(neighbor_records, neighbors)
            && rest
                .iter()
                .zip(neighbors.chunks(32))
                .all(|(&dead, chunk)| dead == self.dead_word(chunk))
    }

    /// A publishable entry recording this decision's exact inputs and its
    /// freshly computed `grouping`, in one allocation.
    fn entry(&self, grouping: &Grouping) -> CacheEntry {
        let topo = self.topo;
        let neighbors = topo.neighbors(self.node);
        let (k, m) = (self.dests.len(), neighbors.len());
        let group_words: usize = grouping.covered.iter().map(|g| 2 + g.dests.len()).sum();
        let len = HEADER + RECORD * (k + m) + m.div_ceil(32) + grouping.voids.len() + group_words;
        let mut words = Vec::with_capacity(len);
        words.extend([
            self.node.0,
            self.flags(),
            k as u32,
            m as u32,
            grouping.voids.len() as u32,
        ]);
        words.extend(bits_words(topo.radio_range().to_bits()));
        words.extend(point_words(topo.pos(self.node)));
        words.extend(point_words(self.perimeter_entry.unwrap_or(Point::ORIGIN)));
        words.resize(HEADER + RECORD * (k + m), 0);
        let ids = self.dests.iter().chain(neighbors);
        for (r, &id) in words[HEADER..].chunks_exact_mut(RECORD).zip(ids) {
            r[0] = id.0;
            r[1..].copy_from_slice(&point_words(topo.pos(id)));
        }
        words.extend(neighbors.chunks(32).map(|chunk| self.dead_word(chunk)));
        words.extend(grouping.voids.iter().map(|v| v.0));
        for g in &grouping.covered {
            words.extend([g.next_hop.0, g.dests.len() as u32]);
            words.extend(g.dests.iter().map(|d| d.0));
        }
        debug_assert_eq!(words.len(), len);
        CacheEntry {
            words: words.into_boxed_slice(),
        }
    }
}

/// The decision cache: one warm memo of forwarding decisions, owned by a
/// single router or shared by every router of a multi-worker engine.
///
/// The cache owns no scratch of its own: results are always materialized
/// into the caller's [`DecisionScratch`], so downstream code (the emit
/// step, which mutates the grouping in place) is oblivious to whether the
/// decision was computed or served.
///
/// # Design
///
/// The table is a fixed power-of-two array of `OnceLock` slots, each
/// holding at most one immutable published decision: its fingerprint tag
/// inline, next to the pointer to its packed entry (32 B a slot). A lookup
/// probes the 4-slot window starting at the fingerprint's bucket; reading
/// a slot is [`OnceLock::get`] — one atomic load on the hot path, no lock,
/// no bus traffic beyond the counters — and the tags are compared in the
/// slot array itself, so an entry is dereferenced only when its tag
/// matches. A miss computes the decision in the caller's scratch and then
/// *publishes* it into the first empty slot in the window via
/// [`OnceLock::set`]; the first writer wins and entries are never mutated
/// or evicted afterwards. Stats are relaxed atomics.
///
/// Slots fill monotonically and a publish takes the first empty way of its
/// window, so a probe stops at the first empty way: no entry under its
/// fingerprint (which fixes the window) can lie beyond it.
///
/// There is no eviction: if a window is full, the decision is recomputed
/// each time (counted as a miss) — eviction under concurrency would need
/// entry reclamation, and the bench working sets fit the default
/// capacity comfortably. A capacity of `0` builds an empty table: every
/// lookup computes straight into the scratch and counts as a miss.
///
/// # Why sharing cannot change outcomes
///
/// Every served entry passes the exact-input verification: every value
/// the decision reads is compared bitwise before the stored grouping is
/// served, so a hit is *proven* equal to recomputation no matter which
/// thread published the entry or when. The only cross-thread effect is
/// whether a given lookup is a hit or a recompute — two paths that are
/// bit-identical by the cache's core contract (pinned by `cache_parity`).
///
/// # Why warmed lookups stay allocation-free
///
/// Slot fills are monotonic (empty → published, never back), and a
/// lookup allocates a new entry only after probing its window. Replay a
/// workload once to warm the table: every decision the replay needs is
/// now resident (published by whichever thread got there first), so
/// subsequent replays take the `get`-verify-serve path exclusively —
/// zero allocations, regardless of worker count or interleaving. The
/// `steady_alloc_drift` certificate in BENCH_5 measures exactly this.
#[derive(Debug)]
pub struct ConcurrentTreeCache {
    config: CacheConfig,
    /// Bucket mask; `slots.len()` is `0` or a power of two `>= WAYS`.
    mask: usize,
    /// Each published decision with its fingerprint tag.
    slots: Vec<OnceLock<(u64, CacheEntry)>>,
    hits: AtomicU64,
    misses: AtomicU64,
    fallbacks: AtomicU64,
}

impl Default for ConcurrentTreeCache {
    fn default() -> Self {
        ConcurrentTreeCache::new()
    }
}

impl ConcurrentTreeCache {
    /// A cache with the environment-tuned configuration
    /// ([`CacheConfig::from_env`]).
    pub fn new() -> Self {
        ConcurrentTreeCache::with_config(CacheConfig::from_env())
    }

    /// A cache with an explicit configuration.
    pub fn with_config(config: CacheConfig) -> Self {
        let table = match config.capacity {
            0 => 0,
            capacity => capacity.next_power_of_two().max(WAYS),
        };
        ConcurrentTreeCache {
            config,
            mask: table.saturating_sub(1),
            slots: (0..table).map(|_| OnceLock::new()).collect(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            fallbacks: AtomicU64::new(0),
        }
    }

    /// The active configuration.
    pub fn config(&self) -> CacheConfig {
        self.config
    }

    /// Behaviour counters since construction, with the live-occupancy
    /// snapshot filled in.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            fallbacks: self.fallbacks.load(Ordering::Relaxed),
            entries_live: self.len() as u64,
        }
    }

    /// Number of currently published decisions.
    pub fn len(&self) -> usize {
        self.slots.iter().filter(|s| s.get().is_some()).count()
    }

    /// `true` if no decisions are published.
    pub fn is_empty(&self) -> bool {
        self.slots.iter().all(|s| s.get().is_none())
    }

    /// [`DecisionScratch::group_destinations_into`] through the cache:
    /// serves a stored grouping when every exact input matches, computes
    /// (and publishes) it otherwise. The result always lives in `scratch`,
    /// bit-identical to what the direct call would leave there. Callable
    /// through a shared reference from any number of threads at once.
    #[allow(clippy::too_many_arguments)]
    pub fn group_destinations_cached<'a>(
        &self,
        scratch: &'a mut DecisionScratch,
        topo: &Topology,
        node: NodeId,
        dests: &[NodeId],
        radio_range_aware: bool,
        perimeter_entry: Option<Point>,
        alive: Option<&[bool]>,
    ) -> &'a Grouping {
        let decision = Decision {
            topo,
            node,
            dests,
            radio_range_aware,
            perimeter_entry,
            alive,
        };
        if self.slots.is_empty() {
            self.misses.fetch_add(1, Ordering::Relaxed);
            decision.compute_into(scratch);
            return scratch.grouping_ref();
        }
        let fp = decision.fingerprint();
        let base = fp as usize & self.mask;
        let window = |way: usize| &self.slots[(base + way) & self.mask];
        let mut stale = false;
        let mut vacant = WAYS;
        for way in 0..WAYS {
            let Some((tag, entry)) = window(way).get() else {
                // Nothing under `fp` lies past the first empty way (see
                // "Design" above).
                vacant = way;
                break;
            };
            if *tag != fp {
                continue;
            }
            if decision.matches(entry) {
                self.hits.fetch_add(1, Ordering::Relaxed);
                entry.load_into(scratch);
                if self.config.paranoid {
                    let served = scratch.grouping_ref().clone();
                    decision.compute_into(scratch);
                    assert_eq!(
                        scratch.grouping_ref(),
                        &served,
                        "paranoid cache check failed at node {node} for {dests:?}"
                    );
                }
                return scratch.grouping_ref();
            }
            // Same fingerprint, different exact inputs (a hash collision,
            // or a different topology behind the same ids). Immutable
            // entries can't be replaced, so this probe recomputes; the
            // corrected decision may still land in a later way.
            stale = true;
        }

        let counter = if stale { &self.fallbacks } else { &self.misses };
        counter.fetch_add(1, Ordering::Relaxed);
        decision.compute_into(scratch);

        // Publish into the first empty way. A resident entry that holds
        // *this* decision (a racing publisher beat us) ends the walk; a
        // same-fingerprint collision does not, so the corrected decision
        // can land in a later way where the probe loop will find it.
        let resident = |(tag, entry): &(u64, CacheEntry)| *tag == fp && decision.matches(entry);
        let mut boxed: Option<(u64, CacheEntry)> = None;
        for way in vacant..WAYS {
            let slot = window(way);
            if let Some(published) = slot.get() {
                if resident(published) {
                    break;
                }
                continue;
            }
            let candidate = boxed
                .take()
                .unwrap_or_else(|| (fp, decision.entry(scratch.grouping_ref())));
            match slot.set(candidate) {
                Ok(()) => break,
                Err(lost) => {
                    if slot.get().is_some_and(resident) {
                        break;
                    }
                    boxed = Some(lost);
                }
            }
        }
        scratch.grouping_ref()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grouping::group_destinations;
    use gmp_net::TopologyConfig;

    fn topo() -> Topology {
        Topology::random(&TopologyConfig::new(600.0, 300, 120.0), 8)
    }

    fn dests_for(seed: u64, topo: &Topology, node: NodeId) -> Vec<NodeId> {
        let mut d: Vec<NodeId> = (0..6)
            .map(|i| NodeId(((seed * 131 + i * 97) % topo.len() as u64) as u32))
            .filter(|&d| d != node)
            .collect();
        d.sort();
        d.dedup();
        d
    }

    #[test]
    fn perimeter_entry_distinguishes_decisions() {
        let topo = topo();
        let cache = ConcurrentTreeCache::with_config(CacheConfig::default());
        let mut scratch = DecisionScratch::new();
        let node = NodeId(5);
        let dests = dests_for(1, &topo, node);
        let entry = Some(Point::new(10.0, 20.0));
        let plain = cache
            .group_destinations_cached(&mut scratch, &topo, node, &dests, true, None, None)
            .clone();
        let perim = cache
            .group_destinations_cached(&mut scratch, &topo, node, &dests, true, entry, None)
            .clone();
        assert_eq!(plain, group_destinations(&topo, node, &dests, true, None));
        assert_eq!(perim, group_destinations(&topo, node, &dests, true, entry));
        assert_eq!(cache.stats().misses, 2);
    }

    #[test]
    fn env_defaults_are_sane() {
        let config = CacheConfig::from_env();
        assert!(config.capacity > 0);
    }

    /// A lookup table standing in for the process environment.
    fn lookup_from<'a>(pairs: &'a [(&'a str, &'a str)]) -> impl Fn(&str) -> Option<String> + 'a {
        move |key| {
            pairs
                .iter()
                .find(|(k, _)| *k == key)
                .map(|(_, v)| v.to_string())
        }
    }

    #[test]
    fn malformed_env_values_fall_back_to_defaults_with_warnings() {
        let defaults = CacheConfig::default();
        for bad in ["banana", "-3", "1.5", ""] {
            let (config, warnings) =
                CacheConfig::from_lookup(lookup_from(&[("GMP_CACHE_CAPACITY", bad)]));
            assert_eq!(config, defaults, "capacity {bad:?}");
            assert_eq!(warnings.len(), 1, "capacity {bad:?}");
            assert!(warnings[0].contains("GMP_CACHE_CAPACITY"), "{warnings:?}");
        }
        // A malformed capacity next to a valid paranoid flag: only the
        // capacity falls back, and only it is warned about.
        let (config, warnings) = CacheConfig::from_lookup(lookup_from(&[
            ("GMP_CACHE_CAPACITY", "lots"),
            ("GMP_CACHE_PARANOID", "1"),
        ]));
        assert_eq!(config.capacity, defaults.capacity);
        assert!(config.paranoid);
        assert_eq!(warnings.len(), 1);
    }

    #[test]
    fn valid_env_values_apply_without_warnings() {
        for (raw, capacity) in [("1024", 1024), ("0", 0)] {
            let (config, warnings) = CacheConfig::from_lookup(lookup_from(&[
                ("GMP_CACHE_CAPACITY", raw),
                ("GMP_CACHE_PARANOID", "1"),
            ]));
            assert_eq!(config.capacity, capacity);
            assert!(config.paranoid);
            assert!(warnings.is_empty(), "capacity {raw:?}: {warnings:?}");
        }
    }

    #[test]
    fn paranoid_accepts_any_value_but_zero() {
        for (value, expect) in [("0", false), ("1", true), ("yes", true), ("", true)] {
            let (config, warnings) =
                CacheConfig::from_lookup(lookup_from(&[("GMP_CACHE_PARANOID", value)]));
            assert_eq!(config.paranoid, expect, "paranoid {value:?}");
            assert!(warnings.is_empty());
        }
    }

    #[test]
    fn absent_env_yields_defaults_silently() {
        let (config, warnings) = CacheConfig::from_lookup(|_| None);
        assert_eq!(config, CacheConfig::default());
        assert!(warnings.is_empty());
    }

    #[test]
    fn concurrent_cache_matches_direct_compute() {
        let topo = topo();
        let cache = ConcurrentTreeCache::with_config(CacheConfig::default());
        let mut scratch = DecisionScratch::new();
        for seed in 0..12u64 {
            let node = NodeId((seed * 71 % 300) as u32);
            let dests = dests_for(seed, &topo, node);
            let expect = group_destinations(&topo, node, &dests, true, None);
            for _ in 0..3 {
                let got = cache
                    .group_destinations_cached(&mut scratch, &topo, node, &dests, true, None, None)
                    .clone();
                assert_eq!(got, expect, "seed {seed}");
            }
        }
        let stats = cache.stats();
        assert_eq!(stats.misses, 12);
        assert_eq!(stats.hits, 24);
        assert_eq!(stats.fallbacks, 0);
        assert_eq!(stats.entries_live, cache.len() as u64);
    }

    #[test]
    fn concurrent_cache_agrees_across_threads() {
        let topo = topo();
        let cache = ConcurrentTreeCache::with_config(CacheConfig::default());
        // Every thread hammers the same key set concurrently; each lookup
        // is checked against direct computation, so a wrongly shared or
        // torn entry fails inside the worker that observed it.
        std::thread::scope(|scope| {
            for worker in 0..4u64 {
                let topo = &topo;
                let cache = &cache;
                scope.spawn(move || {
                    let mut scratch = DecisionScratch::new();
                    for round in 0..3u64 {
                        for seed in 0..12u64 {
                            // Stagger the key order per worker so publishes
                            // and probes interleave differently.
                            let seed = (seed + worker * 5 + round) % 12;
                            let node = NodeId((seed * 71 % 300) as u32);
                            let dests = dests_for(seed, topo, node);
                            let got = cache
                                .group_destinations_cached(
                                    &mut scratch,
                                    topo,
                                    node,
                                    &dests,
                                    true,
                                    None,
                                    None,
                                )
                                .clone();
                            let expect = group_destinations(topo, node, &dests, true, None);
                            assert_eq!(got, expect, "worker {worker} seed {seed}");
                        }
                    }
                });
            }
        });
        let stats = cache.stats();
        assert_eq!(stats.lookups(), 4 * 3 * 12);
        // All 12 decisions are published exactly once each (no same-key
        // duplicates survive the publish walk), so a cold follow-up pass
        // is pure hits.
        let mut scratch = DecisionScratch::new();
        let before = cache.stats();
        for seed in 0..12u64 {
            let node = NodeId((seed * 71 % 300) as u32);
            let dests = dests_for(seed, &topo, node);
            cache.group_destinations_cached(&mut scratch, &topo, node, &dests, true, None, None);
        }
        let after = cache.stats();
        assert_eq!(after.hits, before.hits + 12);
        assert_eq!(after.misses, before.misses);
    }

    #[test]
    fn concurrent_liveness_flip_recomputes() {
        let topo = topo();
        let cache = ConcurrentTreeCache::with_config(CacheConfig::default());
        let mut scratch = DecisionScratch::new();
        let node = NodeId(42);
        let dests = dests_for(7, &topo, node);
        let all_alive = vec![true; topo.len()];
        let mut some_dead = all_alive.clone();
        for &n in topo.neighbors(node) {
            some_dead[n.index()] = false;
        }

        let warm = cache
            .group_destinations_cached(
                &mut scratch,
                &topo,
                node,
                &dests,
                true,
                None,
                Some(&all_alive),
            )
            .clone();
        let none_view = cache
            .group_destinations_cached(&mut scratch, &topo, node, &dests, true, None, None)
            .clone();
        assert_eq!(warm, none_view, "normalized liveness must share the entry");
        assert_eq!(cache.stats().hits, 1);

        let dead_view = cache
            .group_destinations_cached(
                &mut scratch,
                &topo,
                node,
                &dests,
                true,
                None,
                Some(&some_dead),
            )
            .clone();
        let expect_dead = {
            let mut s = DecisionScratch::new();
            s.group_destinations_into(&topo, node, &dests, true, None, Some(&some_dead));
            s.grouping_ref().clone()
        };
        assert_eq!(dead_view, expect_dead, "dead view must be recomputed");
        assert!(dead_view.covered.is_empty(), "all neighbors are dead");
        assert_eq!(cache.stats().hits, 1);

        // Both variants are now resident under their own fingerprints.
        let again_alive = cache
            .group_destinations_cached(&mut scratch, &topo, node, &dests, true, None, None)
            .clone();
        assert_eq!(again_alive, warm);
        let again_dead = cache
            .group_destinations_cached(
                &mut scratch,
                &topo,
                node,
                &dests,
                true,
                None,
                Some(&some_dead),
            )
            .clone();
        assert_eq!(again_dead, expect_dead);
        assert_eq!(cache.stats().hits, 3);
    }

    #[test]
    fn moved_node_behind_the_same_ids_is_never_served() {
        // The fingerprint reads no position, so a topology that differs
        // only in one node's position probes the same slots: the exact
        // check alone must keep every decision that reads the moved node
        // from being served the other topology's grouping.
        let original = topo();
        let moved = NodeId(42);
        let mut decisions: Vec<(NodeId, Vec<NodeId>)> = Vec::new();
        for (i, &node) in original.neighbors(moved).iter().take(8).enumerate() {
            let mut dests = dests_for(i as u64, &original, node);
            if i % 2 == 0 {
                dests.push(moved);
                dests.sort();
                dests.dedup();
            }
            decisions.push((node, dests));
        }
        decisions.push((moved, dests_for(9, &original, moved)));
        for seed in 0..12u64 {
            let node = NodeId((seed * 71 % 300) as u32);
            decisions.push((node, dests_for(seed, &original, node)));
        }
        // From a sub-ulp-of-a-meter nudge that keeps every neighbor list to
        // a move that rewires them.
        for shift in [1e-9, 0.5, 40.0] {
            let mut positions = original.positions();
            positions[moved.index()].x += shift;
            let shifted =
                Topology::from_positions(positions, original.area(), original.radio_range());
            let reads_moved = |node: NodeId, dests: &[NodeId]| {
                node == moved
                    || dests.contains(&moved)
                    || original.neighbors(node).contains(&moved)
                    || shifted.neighbors(node).contains(&moved)
            };
            let cache = ConcurrentTreeCache::with_config(CacheConfig::default());
            let mut scratch = DecisionScratch::new();
            let mut lookup = |topo: &Topology, node: NodeId, dests: &[NodeId]| {
                let before = cache.stats();
                let got = cache
                    .group_destinations_cached(&mut scratch, topo, node, dests, true, None, None)
                    .clone();
                assert_eq!(got, group_destinations(topo, node, dests, true, None));
                let after = cache.stats();
                (after.hits - before.hits, after.fallbacks - before.fallbacks)
            };
            for (node, dests) in &decisions {
                lookup(&original, *node, dests);
            }
            let mut fallbacks = 0;
            for (node, dests) in &decisions {
                let (hits, fell_back) = lookup(&shifted, *node, dests);
                if reads_moved(*node, dests) {
                    assert_eq!(
                        hits, 0,
                        "shift {shift}: node {node} served a moved decision"
                    );
                    fallbacks += fell_back;
                } else {
                    assert_eq!(hits, 1, "shift {shift}: node {node} unaffected by the move");
                }
            }
            assert!(
                fallbacks > 0,
                "shift {shift}: no same-tag entry was turned away"
            );
            // Both topologies' entries are now resident side by side, and
            // each topology is served its own.
            for topo in [&original, &shifted] {
                for (node, dests) in &decisions {
                    lookup(topo, *node, dests);
                }
            }
        }
    }

    #[test]
    fn concurrent_paranoid_mode_hits_and_agrees() {
        let topo = topo();
        let cache = ConcurrentTreeCache::with_config(CacheConfig {
            paranoid: true,
            ..CacheConfig::default()
        });
        let mut scratch = DecisionScratch::new();
        let node = NodeId(17);
        let dests = dests_for(3, &topo, node);
        let a = cache
            .group_destinations_cached(&mut scratch, &topo, node, &dests, true, None, None)
            .clone();
        let b = cache
            .group_destinations_cached(&mut scratch, &topo, node, &dests, true, None, None)
            .clone();
        assert_eq!(a, b);
        assert_eq!(cache.stats().hits, 1);
    }

    #[test]
    fn concurrent_full_window_recomputes_instead_of_evicting() {
        let topo = topo();
        // A 4-slot table (capacity rounds up to WAYS) with 10 distinct
        // decisions: windows overflow, so some keys can never publish —
        // they must recompute correctly every time, and occupancy stays
        // bounded by the table size.
        let cache = ConcurrentTreeCache::with_config(CacheConfig {
            capacity: 1,
            ..CacheConfig::default()
        });
        let mut scratch = DecisionScratch::new();
        for round in 0..3 {
            for seed in 0..10u64 {
                let node = NodeId((seed * 71 % 300) as u32);
                let dests = dests_for(seed, &topo, node);
                let got = cache
                    .group_destinations_cached(&mut scratch, &topo, node, &dests, true, None, None)
                    .clone();
                let expect = group_destinations(&topo, node, &dests, true, None);
                assert_eq!(got, expect, "round {round} seed {seed}");
            }
        }
        assert!(cache.len() <= 4);
        let stats = cache.stats();
        assert_eq!(stats.lookups(), 30);
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let topo = topo();
        let cache = ConcurrentTreeCache::with_config(CacheConfig {
            capacity: 0,
            ..CacheConfig::default()
        });
        let mut scratch = DecisionScratch::new();
        for seed in 0..6u64 {
            let node = NodeId((seed * 71 % 300) as u32);
            let dests = dests_for(seed, &topo, node);
            for _ in 0..2 {
                let got = cache
                    .group_destinations_cached(&mut scratch, &topo, node, &dests, true, None, None)
                    .clone();
                assert_eq!(got, group_destinations(&topo, node, &dests, true, None));
            }
        }
        assert!(cache.is_empty());
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.fallbacks), (0, 12, 0));
        assert_eq!(stats.entries_live, 0);
    }

    #[test]
    fn warmed_concurrent_cache_publishes_nothing_new() {
        let topo = topo();
        let cache = ConcurrentTreeCache::with_config(CacheConfig::default());
        let mut scratch = DecisionScratch::new();
        let replay = |cache: &ConcurrentTreeCache, scratch: &mut DecisionScratch| {
            for seed in 0..12u64 {
                let node = NodeId((seed * 71 % 300) as u32);
                let dests = dests_for(seed, &topo, node);
                cache.group_destinations_cached(scratch, &topo, node, &dests, true, None, None);
            }
        };
        replay(&cache, &mut scratch);
        let warmed = cache.len();
        let before = cache.stats();
        replay(&cache, &mut scratch);
        assert_eq!(cache.len(), warmed, "steady-state replay must not publish");
        let after = cache.stats();
        assert_eq!(after.misses, before.misses);
        assert_eq!(after.fallbacks, before.fallbacks);
        assert_eq!(after.hits, before.hits + 12);
    }
}
