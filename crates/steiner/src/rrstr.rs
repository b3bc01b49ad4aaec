//! rrSTR: the reduction-ratio heuristic for Euclidean Steiner trees
//! (Figure 3 of the paper).
//!
//! Starting from the source and the destination set, rrSTR repeatedly
//! merges the *active* destination pair with the largest reduction ratio,
//! replacing it with a virtual destination at the pair's exact 3-point
//! Steiner point. Radio-range awareness (Section 3.3) suppresses virtual
//! junctions that would only add hops: a junction one hop away is worth a
//! transmission only if
//!
//! ```text
//! 1 + (d(t,u) + d(t,v)) / rr  <  (d(s,u) + d(s,v)) / rr
//! ```
//!
//! Where the Figure 3 pseudocode and the Section 3.3 prose disagree, this
//! implementation follows the pseudocode (see DESIGN.md).
//!
//! Complexity: Section 4.2 bounds rrSTR at `O(n² log n)` for `n`
//! destinations, the cost of a priority queue over the `O(n²)` pairs.
//! There is no queue and no sort here. Pair priorities live in a
//! triangular matrix, and each vertex caches its best partner (the
//! dynamic closest-pair scheme of agglomerative clustering; Eppstein,
//! ACM JEA 2000). A selection scans the `O(n)` row maxima, and a changed
//! row is rescanned in `O(n)`. Filling the matrix is `O(n²)`, and so are
//! the `n − 1` merges with their selections. On top of that, each exact
//! evaluation and each surfacing of a stale row maximum costs one row
//! rescan plus one more selection. On uniform random inputs both happen
//! `O(n)` times (about 35 and 17 times at `n = 25`), which makes a run
//! `O(n²)`. An adversarial input could make either happen `O(n²)` times,
//! for `O(n³)`: the sort is gone, but the paper's worst-case bound is
//! not guaranteed.

use gmp_geom::Point;

use crate::ratio::{pair_bound_batch, reduction_ratio_with_spokes};
use crate::tree::{SteinerTree, VertexId, VertexKind};

/// Whether rrSTR applies the radio-range-aware pruning of Section 3.3.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RadioRange {
    /// Radio-range aware with the given range in meters — the GMP variant.
    Aware(f64),
    /// Range-oblivious — the GMPnr variant the paper ablates in Figures
    /// 11–14.
    Ignored,
}

/// Maps a ratio onto a `u64` through the order-preserving bijection
/// between `f64`s under `total_cmp` and `u64`s (flip all bits of
/// negatives, flip the sign bit of positives), so `u64 >` is "higher
/// ratio". No finite ratio maps to `0`, which marks a dead pair.
#[inline]
fn ratio_key(ratio: f64) -> u64 {
    let b = ratio.to_bits();
    b ^ (((b as i64 >> 63) as u64) | (1 << 63))
}

/// The ratio a key was mapped from, exactly (the mapping is a bijection).
fn key_ratio(key: u64) -> f64 {
    f64::from_bits(if key >> 63 == 1 {
        key ^ (1 << 63)
    } else {
        !key
    })
}

/// Reusable working state for [`rrstr_into`].
///
/// Every live pair `(u, v)`, `u < v`, has one `u64` priority in `keys`,
/// an upper-triangular matrix stored row by row. Row `u` holds the
/// columns `v = u + 1 ..`, so a row rescan is a contiguous walk. A pair
/// enters with a cheap *upper bound* on its ratio (Fermat slot 0) and is
/// lowered in place to its exact ratio when it first surfaces as the
/// best pair. Its Steiner point is then parked in `fermat`, and the slot
/// remembers where. A pair dropped by a Section 3.3 branch is zeroed; a
/// merged pair has a dead endpoint and is masked out (below).
///
/// Each row caches its maximum and the column holding it. The next pair
/// is the largest row maximum, scanning rows in ascending `u` with a
/// strict `>`. Rows are scanned in ascending `v` the same way. So ties
/// fall to the smaller `u`, then the smaller `v`: the order the paper's
/// pseudocode and [`crate::reference`] use.
///
/// A vertex's death touches nothing but its own row, which it zeroes.
/// The other rows may still name it as their best partner. Such a cached
/// maximum is too high, never too low, so it can only surface early. When
/// it surfaces, its row is rescanned with the dead columns masked out,
/// and the selection runs again.
///
/// The matrix is sized for the most vertices a run can make: `n`
/// terminals and at most `n − 1` virtual junctions, so `(2n − 1)(2n − 2)
/// / 2` slots. A slot takes 12 bytes: the 8-byte priority and the 4-byte
/// Fermat slot. Only the slots of this run's vertices are read, and each
/// is written before it is read, so what a larger earlier run left
/// beyond them is never cleared.
///
/// After a warm-up run of comparable size, rebuilding a tree through the
/// same scratch performs no allocations.
#[derive(Debug, Clone, Default)]
pub struct RrstrScratch {
    /// Pair priorities, mapped by [`ratio_key`]; `0` is a dead pair.
    keys: Vec<u64>,
    /// Per pair, same layout as `keys`: `0` while the priority is a
    /// bound, else one more than the index of its Steiner point in
    /// `fermat`.
    fermat_slot: Vec<u32>,
    /// Steiner points of pairs lowered to their exact ratio: when such a
    /// pair wins, its point is read back instead of re-derived.
    fermat: Vec<Point>,
    /// Vertex ids one past the largest this run can make (`2n`); fixes
    /// the row offsets of `keys`.
    cap: usize,
    /// Per vertex: the cached maximum of its row, `0` for a dead vertex
    /// or an empty row.
    row_best: Vec<u64>,
    /// Per vertex: the column holding `row_best`.
    row_arg: Vec<usize>,
    /// Per vertex: all ones while active, zero once dead. Row rescans AND
    /// it into the priorities to mask dead partners without a branch.
    live: Vec<u64>,
    /// Number of active vertices. Lets the merge loop stop as soon as
    /// fewer than two are active.
    active_count: usize,
    /// Per-vertex distance to the source, computed once at registration —
    /// the bound in [`pair_bound`] reads two of these instead of taking
    /// two square roots per candidate pair, and the Section 3.3 branches
    /// reuse them for the spoke lengths.
    dist_s: Vec<f64>,
    /// SoA mirror of the destination coordinates (`xs[i], ys[i]` is
    /// vertex `i + 1`), feeding the batched geometry kernels: the
    /// registration distances and the O(n²) initial pair bounds run
    /// through [`gmp_geom::dist_batch`] / [`crate::ratio::pair_bound_batch`]
    /// row by row instead of one scalar call per pair.
    xs: Vec<f64>,
    /// SoA mirror of the destination y coordinates (see `xs`).
    ys: Vec<f64>,
    /// Batch kernel lanes: pair separations for the current row.
    batch_d: Vec<f64>,
    /// Batch kernel lanes: two-spoke costs for the current row.
    batch_s: Vec<f64>,
    /// Batch kernel lanes: ratio upper bounds for the current row.
    batch_b: Vec<f64>,
}

impl RrstrScratch {
    /// Fresh, empty working state.
    pub fn new() -> Self {
        RrstrScratch::default()
    }

    /// Marks `v` inactive. Only its own row is cleared; see the type docs.
    #[inline]
    fn deactivate(&mut self, v: VertexId) {
        debug_assert!(self.live[v] != 0);
        self.live[v] = 0;
        self.row_best[v] = 0;
        self.active_count -= 1;
    }

    /// Registers the new virtual vertex `v`, active, with an empty row.
    #[inline]
    fn add_virtual(&mut self, v: VertexId, dist_to_source: f64) {
        debug_assert_eq!(self.live.len(), v);
        self.live.push(u64::MAX);
        self.active_count += 1;
        self.dist_s.push(dist_to_source);
        self.row_best.push(0);
        self.row_arg.push(0);
    }

    /// Index of pair `(u, v)`, `u < v`, in `keys`: row `u` starts after
    /// rows `1..u`, which hold `cap − 2, cap − 3, …` columns.
    #[inline]
    fn slot(&self, u: VertexId, v: VertexId) -> usize {
        debug_assert!(0 < u && u < v && v < self.cap);
        (u - 1) * (self.cap - 1) - (u - 1) * u / 2 + (v - u - 1)
    }

    /// Recomputes row `u`'s maximum over its live columns `u + 1 .. len`.
    #[inline]
    fn rescan(&mut self, u: VertexId, len: usize) {
        let start = self.slot(u, u + 1);
        let row = &self.keys[start..start + (len - u - 1)];
        let (mut best, mut arg) = (0, 0);
        for (j, (&k, &live)) in row.iter().zip(&self.live[u + 1..len]).enumerate() {
            let k = k & live;
            if k > best {
                best = k;
                arg = j;
            }
        }
        self.row_best[u] = best;
        self.row_arg[u] = u + 1 + arg;
    }

    /// The live pair with the largest priority, ties to the smaller `u`
    /// then the smaller `v`; `None` once no live pair is left. Rows whose
    /// cached partner died are rescanned as they surface.
    #[inline]
    fn select(&mut self, len: usize) -> Option<(VertexId, VertexId)> {
        loop {
            let (mut best, mut u) = (0, 0);
            for (i, &k) in self.row_best.iter().enumerate() {
                if k > best {
                    best = k;
                    u = i;
                }
            }
            if best == 0 {
                return None;
            }
            let v = self.row_arg[u];
            if self.live[v] != 0 {
                return Some((u, v));
            }
            self.rescan(u, len);
        }
    }
}

/// Builds a heuristic Euclidean Steiner tree rooted at `source` spanning
/// all of `dests` (Figure 3 of the paper).
///
/// The returned tree contains one [`VertexKind::Terminal`] per destination
/// (carrying its index in `dests`) plus zero or more
/// [`VertexKind::Virtual`] junctions. Every vertex is reachable from the
/// root.
///
/// Allocates fresh working state per call; the forwarding hot path uses
/// [`rrstr_into`] with a reused [`RrstrScratch`] instead. Both produce
/// bit-identical trees.
///
/// # Example
///
/// ```
/// use gmp_geom::Point;
/// use gmp_steiner::rrstr::{rrstr, RadioRange};
///
/// let tree = rrstr(
///     Point::new(0.0, 0.0),
///     &[Point::new(400.0, 30.0), Point::new(400.0, -30.0)],
///     RadioRange::Aware(150.0),
/// );
/// // The two destinations merge through one virtual junction.
/// assert_eq!(tree.len(), 4);
/// tree.check_invariants().unwrap();
/// ```
pub fn rrstr(source: Point, dests: &[Point], mode: RadioRange) -> SteinerTree {
    let mut tree = SteinerTree::new(source);
    let mut scratch = RrstrScratch::new();
    rrstr_into(source, dests, mode, &mut tree, &mut scratch);
    tree
}

/// The bound priority of the pair `(u, v)`, `u < v`. The bound:
/// any tree connecting `{s, a, b}` has length at least half the triangle
/// perimeter (each pairwise distance is at most the path through the
/// tree, and summing the three paths counts every edge at most twice), so
///
/// ```text
/// RR = 1 − through/spokes ≤ 1 − (spokes + d(a,b))/(2·spokes)
///                          = ½ − d(a,b)/(2·spokes).
/// ```
///
/// A `1e-9` margin keeps the bound above the exact ratio under floating-
/// point rounding (the two are mathematically equal for collinear
/// triples). The exact ratio and Fermat point are computed lazily when
/// the pair surfaces as the best live pair.
#[inline]
fn pair_bound(scratch: &RrstrScratch, tree: &SteinerTree, u: VertexId, v: VertexId) -> u64 {
    let spokes = scratch.dist_s[u] + scratch.dist_s[v];
    let bound = if spokes <= gmp_geom::EPS {
        0.5
    } else {
        0.5 - tree.pos(u).dist(tree.pos(v)) / (2.0 * spokes)
    };
    ratio_key(bound + 1e-9)
}

/// [`rrstr`] writing into a caller-owned tree and scratch: the per-packet
/// hot path. `tree` is reset to `source`; `scratch` is reused as is.
/// Steady-state (after warm-up at comparable size) this performs zero
/// heap allocations.
pub fn rrstr_into(
    source: Point,
    dests: &[Point],
    mode: RadioRange,
    tree: &mut SteinerTree,
    scratch: &mut RrstrScratch,
) {
    tree.reset(source);
    scratch.fermat.clear();
    let n = dests.len();

    // Mirror the destinations into SoA lanes once; the registration
    // distances and every initial pair bound then run through the batch
    // kernels. Each lane is bit-identical to the scalar expression it
    // replaces (see `dist_batch` / `pair_bound_batch`), so the pair
    // priorities — and with them every merge — are unchanged.
    scratch.xs.clear();
    scratch.ys.clear();
    for (i, &d) in dests.iter().enumerate() {
        scratch.xs.push(d.x);
        scratch.ys.push(d.y);
        tree.add_vertex(VertexKind::Terminal(i), d);
    }
    // Register the inactive root and the `n` active terminals in bulk.
    scratch.dist_s.clear();
    scratch.dist_s.resize(n + 1, 0.0);
    gmp_geom::dist_batch(source, &scratch.xs, &scratch.ys, &mut scratch.dist_s[1..]);
    scratch.live.clear();
    scratch.live.push(0);
    scratch.live.resize(n + 1, u64::MAX);
    scratch.row_best.clear();
    scratch.row_best.resize(n + 1, 0);
    scratch.row_arg.clear();
    scratch.row_arg.resize(n + 1, 0);
    scratch.active_count = n;

    // With at most two destinations the two-active endgame below decides
    // everything, so the matrix is only built for three or more.
    if n > 2 {
        scratch.cap = 2 * n;
        let slots = (scratch.cap - 1) * (scratch.cap - 2) / 2;
        assert!(slots < u32::MAX as usize, "rrstr Fermat slots overflow u32");
        if scratch.keys.len() < slots {
            scratch.keys.resize(slots, 0);
            scratch.fermat_slot.resize(slots, 0);
        }
        // Fill row `u` with the bounds of the lanes `v = u+1..=n` through
        // the batch kernels, tracking the row maximum as it is written.
        // The `+ 1e-9` rounding margin is applied exactly as `pair_bound`
        // applies it.
        scratch.batch_d.clear();
        scratch.batch_d.resize(n - 1, 0.0);
        scratch.batch_b.clear();
        scratch.batch_b.resize(n - 1, 0.0);
        for u in 1..n {
            let lanes = n - u;
            let pu = tree.pos(u);
            let du = scratch.dist_s[u];
            gmp_geom::dist_batch(
                pu,
                &scratch.xs[u..],
                &scratch.ys[u..],
                &mut scratch.batch_d[..lanes],
            );
            scratch.batch_s.clear();
            scratch
                .batch_s
                .extend(scratch.dist_s[u + 1..=n].iter().map(|&dv| du + dv));
            pair_bound_batch(
                &scratch.batch_d[..lanes],
                &scratch.batch_s,
                &mut scratch.batch_b[..lanes],
            );
            let start = scratch.slot(u, u + 1);
            let (mut best, mut arg) = (0, 0);
            for (j, (key, &bound)) in scratch.keys[start..start + lanes]
                .iter_mut()
                .zip(&scratch.batch_b[..lanes])
                .enumerate()
            {
                *key = ratio_key(bound + 1e-9);
                if *key > best {
                    best = *key;
                    arg = j;
                }
            }
            scratch.fermat_slot[start..start + lanes].fill(0);
            scratch.row_best[u] = best;
            scratch.row_arg[u] = u + 1 + arg;
        }
    }

    // Whether the two-active endgame below already consumed its pair.
    let mut endgame_taken = false;
    loop {
        // The live pair with the largest reduction ratio, with its Steiner
        // point, and whether it came from the matrix.
        let entry = if scratch.active_count < 2 {
            None
        } else if scratch.active_count == 2 {
            // Endgame: exactly one live pair remains, so evaluate it
            // directly instead of selecting it. This is the identical
            // decision the selection would reach: it could only yield
            // this pair, the merge step below depends only on `(u, v, t)`
            // — all recomputed from positions, bit-identically — and if
            // the pair was already consumed *and dropped* by a Section 3.3
            // branch earlier, re-running that branch deterministically
            // re-drops it, after which the `endgame_taken` flag routes
            // straight to the terminal connect-to-root case exactly as
            // the selection would. Merges only ever shrink the active
            // count, so the flag can never mask a fresh pair.
            if endgame_taken {
                None
            } else {
                endgame_taken = true;
                let mut actives = (1..tree.len()).filter(|&i| scratch.live[i] != 0);
                let u = actives.next().expect("two active vertices");
                let v = actives.next().expect("two active vertices");
                let spokes = scratch.dist_s[u] + scratch.dist_s[v];
                let exact = reduction_ratio_with_spokes(source, tree.pos(u), tree.pos(v), spokes);
                Some((u, v, exact.steiner.location, false))
            }
        } else {
            loop {
                let Some((u, v)) = scratch.select(tree.len()) else {
                    break None;
                };
                let i = scratch.slot(u, v);
                let fermat = scratch.fermat_slot[i];
                if fermat != 0 {
                    break Some((u, v, scratch.fermat[fermat as usize - 1], true));
                }
                // A bound surfaced: lower it in place to the exact ratio,
                // park the Steiner point, and select again. Every other
                // pair's exact ratio is at most its priority, so the
                // selection takes this pair next iff its exact ratio
                // still wins, ties included.
                let spokes = scratch.dist_s[u] + scratch.dist_s[v];
                let exact = reduction_ratio_with_spokes(source, tree.pos(u), tree.pos(v), spokes);
                debug_assert!(exact.ratio <= key_ratio(scratch.keys[i]));
                scratch.fermat.push(exact.steiner.location);
                scratch.fermat_slot[i] = scratch.fermat.len() as u32;
                scratch.keys[i] = ratio_key(exact.ratio);
                scratch.rescan(u, tree.len());
            }
        };
        let Some((u, v, t, selected)) = entry else {
            // No distinct active pair remains: the pseudocode's terminal
            // `(u, u)` case — connect each remaining active vertex
            // directly to the source.
            for v in 1..tree.len() {
                if scratch.live[v] != 0 {
                    tree.add_edge(tree.root(), v);
                    scratch.deactivate(v);
                }
            }
            break;
        };

        let (pu, pv) = (tree.pos(u), tree.pos(v));

        if t.almost_eq(source) {
            // Steiner point collocated with the source: direct spokes.
            tree.add_edge(tree.root(), u);
            tree.add_edge(tree.root(), v);
            scratch.deactivate(u);
            scratch.deactivate(v);
        } else if t.almost_eq(pu) {
            // Steiner point collocated with u: u covers v and stays active.
            tree.add_edge(u, v);
            scratch.deactivate(v);
        } else if t.almost_eq(pv) {
            tree.add_edge(v, u);
            scratch.deactivate(u);
        } else if let RadioRange::Aware(rr) = mode {
            // The spoke lengths were computed at registration (`dist_s`)
            // from the same operands, so reading them back is bit-identical
            // to the two square roots the seed took here.
            let du = scratch.dist_s[u];
            let dv = scratch.dist_s[v];
            let spokes = du + dv;
            let via_t = t.dist(pu) + t.dist(pv);
            if du < rr && dv < rr {
                // Both already one hop away; a junction only adds hops.
                // The pair is dropped for good (below).
            } else if du < rr {
                if rr + via_t > spokes {
                    // Junction not worth a hop; drop the pair (below).
                } else {
                    // Use u itself as the junction.
                    tree.add_edge(u, v);
                    scratch.deactivate(v);
                }
            } else if dv < rr {
                if rr + via_t > spokes {
                    // Junction not worth a hop; drop the pair (below).
                } else {
                    tree.add_edge(v, u);
                    scratch.deactivate(u);
                }
            } else if source.dist(t) < rr && rr + via_t > spokes {
                // Junction in range but not worth a transmission.
                tree.add_edge(tree.root(), u);
                tree.add_edge(tree.root(), v);
                scratch.deactivate(u);
                scratch.deactivate(v);
            } else {
                create_virtual(tree, scratch, source, t, u, v);
            }
        } else {
            create_virtual(tree, scratch, source, t, u, v);
        }
        if selected && scratch.live[u] & scratch.live[v] != 0 {
            // Dropped with both ends still active: retire the pair and
            // refresh its row. A pair with a dead end is masked anyway.
            let i = scratch.slot(u, v);
            scratch.keys[i] = 0;
            scratch.rescan(u, tree.len());
        }
    }

    debug_assert!(tree.check_invariants().is_ok());
    // `check_invariants` + all-attached ⟹ fully reachable from the root;
    // unlike `reachable_from_root` this keeps debug builds allocation-free.
    debug_assert!(tree.all_attached());
}

/// Creates a virtual destination `w` at `t` covering `u` and `v`, and
/// writes the bounds of its pairs into column `w` of every active row.
fn create_virtual(
    tree: &mut SteinerTree,
    scratch: &mut RrstrScratch,
    source: Point,
    t: Point,
    u: VertexId,
    v: VertexId,
) {
    let w = tree.add_vertex(VertexKind::Virtual, t);
    tree.add_edge(w, u);
    tree.add_edge(w, v);
    scratch.deactivate(u);
    scratch.deactivate(v);
    scratch.add_virtual(w, source.dist(t));
    debug_assert_eq!(scratch.live.len(), tree.len());
    for i in 1..w {
        if scratch.live[i] != 0 {
            let key = pair_bound(scratch, tree, i, w);
            let s = scratch.slot(i, w);
            scratch.keys[s] = key;
            scratch.fermat_slot[s] = 0;
            // Column `w` is the row's last, so it takes the row only on a
            // strictly larger priority: equal ones keep the smaller `v`.
            if key > scratch.row_best[i] {
                scratch.row_best[i] = key;
                scratch.row_arg[i] = w;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const RR: f64 = 150.0;

    fn spokes_total(source: Point, dests: &[Point]) -> f64 {
        dests.iter().map(|&d| source.dist(d)).sum()
    }

    fn assert_spans(tree: &SteinerTree, dests: &[Point]) {
        tree.check_invariants().unwrap();
        assert_eq!(tree.reachable_from_root().len(), tree.len());
        let covered = tree.terminals_in_subtree(tree.root());
        assert_eq!(covered, (0..dests.len()).collect::<Vec<_>>());
        for v in tree.vertex_ids() {
            if let VertexKind::Terminal(i) = tree.kind(v) {
                assert_eq!(tree.pos(v), dests[i]);
            }
        }
    }

    #[test]
    fn empty_destination_set_gives_bare_root() {
        let tree = rrstr(Point::ORIGIN, &[], RadioRange::Aware(RR));
        assert!(tree.is_empty());
        assert_eq!(tree.total_length(), 0.0);
    }

    #[test]
    fn single_destination_gets_direct_edge() {
        let d = Point::new(500.0, 0.0);
        let tree = rrstr(Point::ORIGIN, &[d], RadioRange::Aware(RR));
        assert_eq!(tree.len(), 2);
        assert_eq!(tree.children(tree.root()), &[1]);
        assert!((tree.total_length() - 500.0).abs() < 1e-9);
    }

    #[test]
    fn far_close_pair_merges_through_virtual_junction() {
        // Observation 1: far from the source, close to each other.
        let dests = [Point::new(600.0, 40.0), Point::new(600.0, -40.0)];
        let tree = rrstr(Point::ORIGIN, &dests, RadioRange::Aware(RR));
        assert_spans(&tree, &dests);
        let virtuals: Vec<_> = tree.vertex_ids().filter(|&v| tree.is_virtual(v)).collect();
        assert_eq!(virtuals.len(), 1, "expected exactly one virtual junction");
        // Tree length strictly better than two direct spokes.
        assert!(tree.total_length() < spokes_total(Point::ORIGIN, &dests) - 1.0);
    }

    #[test]
    fn opposite_destinations_get_direct_spokes() {
        // Angle at source is 180° ⇒ Steiner point is the source itself.
        let dests = [Point::new(400.0, 0.0), Point::new(-400.0, 0.0)];
        let tree = rrstr(Point::ORIGIN, &dests, RadioRange::Aware(RR));
        assert_spans(&tree, &dests);
        assert_eq!(tree.children(tree.root()).len(), 2);
        assert!(tree.vertex_ids().all(|v| !tree.is_virtual(v)));
        assert!((tree.total_length() - 800.0).abs() < 1e-6);
    }

    #[test]
    fn both_in_radio_range_suppresses_junction() {
        // Both destinations one hop away: range-aware rrSTR must not
        // create a virtual junction (first case of Section 3.3).
        let dests = [Point::new(100.0, 20.0), Point::new(100.0, -20.0)];
        let aware = rrstr(Point::ORIGIN, &dests, RadioRange::Aware(RR));
        assert_spans(&aware, &dests);
        assert!(aware.vertex_ids().all(|v| !aware.is_virtual(v)));
        // Both hang directly off the root.
        assert_eq!(aware.children(aware.root()).len(), 2);

        // The range-oblivious variant happily creates the junction.
        let nr = rrstr(Point::ORIGIN, &dests, RadioRange::Ignored);
        assert_spans(&nr, &dests);
        assert!(nr.vertex_ids().any(|v| nr.is_virtual(v)));
    }

    #[test]
    fn collocated_destination_pair_chains() {
        // Two destinations at the same point: the Steiner point collapses
        // onto them, so one covers the other with a zero-length edge.
        let p = Point::new(300.0, 100.0);
        let dests = [p, p];
        let tree = rrstr(Point::ORIGIN, &dests, RadioRange::Aware(RR));
        assert_spans(&tree, &dests);
        assert!(tree.vertex_ids().all(|v| !tree.is_virtual(v)));
        assert!((tree.total_length() - Point::ORIGIN.dist(p)).abs() < 1e-6);
    }

    #[test]
    fn destination_at_source_is_handled() {
        let dests = [Point::ORIGIN, Point::new(200.0, 0.0)];
        let tree = rrstr(Point::ORIGIN, &dests, RadioRange::Aware(RR));
        assert_spans(&tree, &dests);
    }

    #[test]
    fn figure_4_like_scenario_builds_nested_junctions() {
        // Mimics Figure 4: u,v far and close together; d a bit closer;
        // c on the way. rrSTR should merge (u,v) first, then chain.
        let s = Point::ORIGIN;
        let u = Point::new(900.0, 80.0);
        let v = Point::new(900.0, -80.0);
        let d = Point::new(700.0, -200.0);
        let c = Point::new(350.0, -60.0);
        let dests = [c, u, v, d];
        let tree = rrstr(s, &dests, RadioRange::Aware(RR));
        assert_spans(&tree, &dests);
        // At least two virtual junctions (w1 for (u,v), w2 joining d).
        let virtuals = tree.vertex_ids().filter(|&x| tree.is_virtual(x)).count();
        assert!(virtuals >= 2, "expected nested junctions, got {virtuals}");
        // The root should have a single pivot (everything funnels through c's
        // direction), matching the paper's narrative.
        assert_eq!(tree.children(tree.root()).len(), 1);
    }

    #[test]
    fn tree_never_longer_than_direct_spokes() {
        // Every rrSTR merge replaces two spokes by a cheaper-or-equal
        // through-path, so the total can never exceed the star.
        let mut seed = 12345u64;
        let mut next = move || {
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (seed >> 11) as f64 / (1u64 << 53) as f64
        };
        for case in 0..20 {
            let n = 2 + case % 12;
            let dests: Vec<Point> = (0..n)
                .map(|_| Point::new(next() * 1000.0, next() * 1000.0))
                .collect();
            let s = Point::new(next() * 1000.0, next() * 1000.0);
            for mode in [RadioRange::Aware(RR), RadioRange::Ignored] {
                let tree = rrstr(s, &dests, mode);
                assert_spans(&tree, &dests);
                assert!(
                    tree.total_length() <= spokes_total(s, &dests) + 1e-6,
                    "case {case}: tree {} > spokes {}",
                    tree.total_length(),
                    spokes_total(s, &dests)
                );
            }
        }
    }

    #[test]
    fn aware_and_unaware_agree_when_radio_range_is_tiny() {
        // With a vanishing radio range none of the Section 3.3 cases can
        // trigger, so both variants build the same tree.
        let dests = [
            Point::new(400.0, 100.0),
            Point::new(500.0, -50.0),
            Point::new(300.0, 300.0),
        ];
        let aware = rrstr(Point::ORIGIN, &dests, RadioRange::Aware(1e-9));
        let nr = rrstr(Point::ORIGIN, &dests, RadioRange::Ignored);
        assert_eq!(aware, nr);
    }

    #[test]
    fn deterministic_across_runs() {
        let dests = [
            Point::new(123.0, 456.0),
            Point::new(789.0, 12.0),
            Point::new(345.0, 678.0),
            Point::new(901.0, 234.0),
        ];
        let a = rrstr(Point::ORIGIN, &dests, RadioRange::Aware(RR));
        let b = rrstr(Point::ORIGIN, &dests, RadioRange::Aware(RR));
        assert_eq!(a, b);
    }

    #[test]
    fn virtual_count_bounded_by_terminals() {
        let dests: Vec<Point> = (0..15)
            .map(|i| Point::new(800.0 + (i % 5) as f64 * 30.0, (i / 5) as f64 * 40.0))
            .collect();
        let tree = rrstr(Point::ORIGIN, &dests, RadioRange::Ignored);
        let virtuals = tree.vertex_ids().filter(|&v| tree.is_virtual(v)).count();
        assert!(virtuals < dests.len());
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn points(max: usize) -> impl Strategy<Value = Vec<Point>> {
        proptest::collection::vec((0.0..1000.0f64, 0.0..1000.0f64), 1..max)
            .prop_map(|v| v.into_iter().map(|(x, y)| Point::new(x, y)).collect())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn rrstr_spans_all_destinations(
            dests in points(14),
            sx in 0.0..1000.0f64,
            sy in 0.0..1000.0f64,
            aware in proptest::bool::ANY,
        ) {
            let s = Point::new(sx, sy);
            let mode = if aware { RadioRange::Aware(150.0) } else { RadioRange::Ignored };
            let tree = rrstr(s, &dests, mode);
            tree.check_invariants().unwrap();
            prop_assert_eq!(tree.reachable_from_root().len(), tree.len());
            prop_assert_eq!(
                tree.terminals_in_subtree(tree.root()),
                (0..dests.len()).collect::<Vec<_>>()
            );
            let spokes: f64 = dests.iter().map(|&d| s.dist(d)).sum();
            prop_assert!(tree.total_length() <= spokes + 1e-6);
        }

        #[test]
        fn scratch_reuse_is_bit_identical(
            runs in proptest::collection::vec(
                (points(81), (0.0..1000.0f64, 0.0..1000.0f64), proptest::bool::ANY),
                2..8,
            ),
        ) {
            // One scratch and tree carried across a whole sequence of
            // builds whose sizes grow and shrink over k ∈ 1..=80: every
            // rebuild must be bit-identical to a fresh-allocation run
            // (vertices, edges, and lengths). A smaller build after a
            // larger one runs over the stale matrix slots the larger one
            // left behind, so this pins that they are never read.
            let mut tree = SteinerTree::new(Point::ORIGIN);
            let mut scratch = RrstrScratch::new();
            for (dests, (sx, sy), aware) in runs {
                let s = Point::new(sx, sy);
                let mode = if aware { RadioRange::Aware(150.0) } else { RadioRange::Ignored };
                let fresh = rrstr(s, &dests, mode);
                rrstr_into(s, &dests, mode, &mut tree, &mut scratch);
                prop_assert_eq!(&tree, &fresh);
                prop_assert_eq!(tree.edges(), fresh.edges());
                prop_assert!(tree.total_length().to_bits() == fresh.total_length().to_bits());
            }
        }
    }
}
