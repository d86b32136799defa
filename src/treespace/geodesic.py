"""Shortest paths between attributed trees across orthant boundaries.

The distance between two trees t1, t2 decomposes into three kinds of
coordinates.  Splits present in both trees ("common") contribute their
attribute difference and interpolate linearly.  Splits of one tree that are
compatible with every split of the other ("free") shrink from, or grow to,
zero over the whole path.  The remaining conflicting splits are organized
into an ordered support sequence (A_1, B_1), ..., (A_k, B_k): walking the
path, the source splits in A_i collapse together at switch time
tau_i = |A_i| / (|A_i| + |B_i|) and the target splits in B_i start growing
there, with tau_1 <= ... <= tau_k.  Unfolding each (A_i, B_i) pair onto its
own axis turns the path into a straight segment, so the squared length is

    sum_i (|A_i| + |B_i|)^2  +  sum_free |attr|^2  +  sum_common |x - y|^2

with |A_i| the Euclidean norm of the stacked attribute vectors of A_i.

The support starts as the single pair (all source-only, all target-only) and
is refined greedily: a pair may be split exactly when the minimum-weight
vertex cover of its conflict graph, with vertex weights |e|^2 / |A_i|^2 and
|f|^2 / |B_i|^2, weighs less than one.  The cover is found via max-flow on
the bipartite graph.  Refining on minimum covers keeps the sequence sorted
by switch time and strictly shortens the path; when no pair can be split the
path is the unique shortest one (the space is non-positively curved, so
local optimality implies global).

``brute_force_distance`` checks the same quantity by exhaustive search over
support sequences and never looks at the refinement machinery.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import chain, product, repeat
from operator import add, sub

import numpy as np

from ._pool import cpus, fork_map, resolve_workers
from .distmat import DistanceMatrix
from .trees import (AttributedTree, Split, TreeError, _labels, _view,
                    compatible)

__all__ = [
    "GeodesicPath",
    "geodesic",
    "geodesic_distance",
    "geodesic_point",
    "distance_matrix",
    "distance_matrix_detailed",
    "brute_force_distance",
]

# Absolute tolerance on normalized squared lengths: a pair is split only if
# its minimum cover is clearly below one, so ties stay unrefined (splitting
# a weight-one cover leaves the length unchanged).
_COVER_TOL = 1e-10
_RESIDUAL_EPS = 1e-13
# work counted by distance_matrix_detailed
_COUNTS = ("pairs", "same_topology", "covers", "cover_early_stops",
           "refinements", "augmentations")
# pairs from which distance_matrix_detailed starts a process pool; below
# it, starting the pool costs about what the second CPU saves
_POOL_MIN_PAIRS = 2000


def _check_pair(t1: AttributedTree, t2: AttributedTree) -> None:
    if t1.leaves != t2.leaves:
        raise TreeError("trees have different leaf sets")
    k1, k2 = t1.k, t2.k
    if k1 is not None and k2 is not None and k1 != k2:
        raise TreeError(f"attribute dimensions differ: {k1} vs {k2}")


def _side_splits(t1: AttributedTree, t2: AttributedTree):
    """Common splits plus each side's nonzero one-side-only splits."""
    s2 = t2.splits
    common = [s for s in t1.sorted_splits() if s in s2]
    only1 = [s for s in t1.sorted_splits()
             if s not in s2 and any(c != 0.0 for c in t1.edges[s])]
    s1 = t1.splits
    only2 = [s for s in t2.sorted_splits()
             if s not in s1 and any(c != 0.0 for c in t2.edges[s])]
    return common, only1, only2


# ---------------------------------------------------------------------------
# minimum-weight vertex cover via max-flow
# ---------------------------------------------------------------------------

def _min_weight_cover(wa, wb, edges, counts=None):
    """Minimum-weight vertex cover of a bipartite conflict graph.

    ``wa``/``wb`` are positive vertex weights, ``edges`` index pairs (i, j).
    Runs max-flow (source -> a: wa, a -> b: inf, b -> sink: wb); the min cut
    weight equals the cover weight, and the cover itself is read off the
    residual reachability and pruned to a minimal one, so every covered
    vertex has an uncovered neighbour.  Returns (weight, in_cover_a,
    in_cover_b), or (flow, None, None) as soon as the flow reaches
    1 - _COVER_TOL: a pair that heavy is never split.  Augmenting paths are
    added to ``counts["augmentations"]`` when ``counts`` is given.
    """
    na, nb = len(wa), len(wb)
    # a residual at or below _RESIDUAL_EPS times the most flow the arc can
    # carry counts as zero, so rounding never hides a light vertex; the
    # flow on a conflict arc never exceeds either endpoint's weight
    ra, rb = list(wa), list(wb)
    ta = [_RESIDUAL_EPS * w for w in wa]
    tb = [_RESIDUAL_EPS * w for w in wb]
    te = [_RESIDUAL_EPS * min(wa[i], wb[j]) for i, j in edges]
    fe = [0.0] * len(edges)
    out_a = [[] for _ in range(na)]
    in_b = [[] for _ in range(nb)]
    for e, (i, j) in enumerate(edges):
        out_a[i].append(e)
        in_b[j].append(e)
    flow, paths = 0.0, 0
    # the direct paths source -> a -> b -> sink are the shortest, and with
    # edges sorted by (i, j) breadth-first search takes them in edge order
    for e, (i, j) in enumerate(edges):
        if ra[i] > ta[i] and rb[j] > tb[j]:
            d = min(ra[i], rb[j])
            ra[i] -= d
            rb[j] -= d
            fe[e] += d
            flow += d
            paths += 1
    reach = None
    while flow < 1.0 - _COVER_TOL:
        # breadth-first search for the sink; queue holds a as i, b as ~j
        via_a, via_b = [None] * na, [None] * nb
        queue = [i for i in range(na) if ra[i] > ta[i]]
        for i in queue:
            via_a[i] = -1
        sink = -1
        for u in queue:
            if u >= 0:
                for e in out_a[u]:
                    j = edges[e][1]
                    if via_b[j] is None:
                        via_b[j] = e
                        queue.append(~j)
            elif rb[~u] > tb[~u]:
                sink = ~u
                break
            else:
                for e in in_b[~u]:
                    i = edges[e][0]
                    if via_a[i] is None and fe[e] > te[e]:
                        via_a[i] = e
                        queue.append(i)
        if sink < 0:
            reach = via_a, via_b
            break
        # walk back: forward along conflict edges, backward against them
        fwd, back, j = [], [], sink
        while True:
            fwd.append(via_b[j])
            i = edges[via_b[j]][0]
            if via_a[i] < 0:
                break
            back.append(via_a[i])
            j = edges[via_a[i]][1]
        d = min(rb[sink], ra[i], *(fe[e] for e in back))
        rb[sink] -= d
        ra[i] -= d
        for e in fwd:
            fe[e] += d
        for e in back:
            fe[e] -= d
        flow += d
        paths += 1
    if counts is not None:
        counts["augmentations"] += paths
    if reach is None:
        return flow, None, None
    cov_b = [v is not None for v in reach[1]]
    # a covered (reached) b was reached from an uncovered neighbour.  A
    # covered a has one too unless its weight is nil next to the tolerance
    # (a squared length that underflowed): drop such an a, so that the
    # cover stays minimal
    needed = [False] * na
    for i, j in edges:
        if not cov_b[j]:
            needed[i] = True
    return flow, [v is None and needed[i]
                  for i, v in enumerate(reach[0])], cov_b


# ---------------------------------------------------------------------------
# support refinement
# ---------------------------------------------------------------------------

def _refine_pairs(clash, con2, sq1, sq2, counts):
    """Refine the support of the conflicting splits down to the geodesic.

    ``clash`` maps each conflicting source-only split to the target-only
    splits it conflicts with, all of which ``con2`` lists; ``sq1``/``sq2``
    hold the views' squared norms.  Returns the support pairs (A, B) of
    view positions, in no particular order.
    """
    done, todo = [], [(tuple(clash), tuple(con2))] if clash else []
    while todo:
        A, B = todo.pop()
        if len(A) == 1 or len(B) == 1:
            # the lone split clashes with every split across, so covering
            # it alone weighs exactly one: the pair is never split
            done.append((A, B))
            continue
        edges = [(i, j) for i, p in enumerate(A) for j, q in enumerate(B)
                 if q in clash[p]]
        asq = sum(sq1[p] for p in A)
        bsq = sum(sq2[q] for q in B)
        if not (asq and bsq):
            raise ValueError("squared attribute norms underflow to zero on "
                             "conflicting splits; geodesics need "
                             "attributes above about 1e-162")
        counts["covers"] += 1
        weight, ca, cb = _min_weight_cover([sq1[p] / asq for p in A],
                                           [sq2[q] / bsq for q in B],
                                           edges, counts)
        if weight >= 1.0 - _COVER_TOL:
            counts["cover_early_stops"] += 1
            done.append((A, B))
            continue
        # Every split of a pair conflicts with one in the same pair.  A
        # cover below one leaves part of each side uncovered; each
        # uncovered split's conflicts are covered, and, the cover being
        # minimal, each covered split has an uncovered conflict.  So no
        # block is empty and both blocks keep the property.
        counts["refinements"] += 1
        todo.append((tuple(p for p, c in zip(A, ca) if c),
                     tuple(q for q, c in zip(B, cb) if not c)))
        todo.append((tuple(p for p, c in zip(A, ca) if not c),
                     tuple(q for q, c in zip(B, cb) if c)))
    return done


def _order_support(pairs, v1, v2):
    """Sort support pairs by switch time; tie-break on smallest split."""
    items = []
    for A, B in pairs:
        # fsum: correctly rounded, so swapping source and target mirrors
        # the arithmetic exactly and d(t1,t2) == d(t2,t1) bitwise
        an = math.sqrt(math.fsum(v1.sq[p] for p in A))
        bn = math.sqrt(math.fsum(v2.sq[q] for q in B))
        total = an + bn
        t = an / total if total > 0 else 0.0
        tie = min(min(v1.keys[p] for p in A), min(v2.keys[q] for q in B))
        items.append((t, tie, A, B, an, bn))
    items.sort(key=lambda it: (it[0], it[1]))
    support = tuple((it[2], it[3]) for it in items)
    times = tuple(it[0] for it in items)
    seg_sq = math.fsum((it[4] + it[5]) ** 2 for it in items)
    return support, times, seg_sq


def _pair(v1, v2, counts):
    """(length, common, free1, free2, support, times) of the geodesic
    between two split views, splits given as view positions."""
    m1, m2, i1, i2 = v1.masks, v2.masks, v1.index, v2.index
    if m1 == m2:
        counts["same_topology"] += 1
    common = [(p, i2[m]) for p, m in enumerate(m1) if m in i2]
    only1 = [p for p, m in enumerate(m1) if m not in i2 and v1.live[p]]
    only2 = [q for q, m in enumerate(m2) if m not in i1 and v2.live[q]]
    a1, a2 = v1.attrs, v2.attrs
    # sum(map(...)) adds the same (x - y) ** 2 terms in the same order as a
    # generator would, without its frame
    common_sq = math.fsum([sum(map(pow, map(sub, a1[p], a2[q]), repeat(2)))
                           for p, q in common])
    # masks a, b clash (are neither nested nor disjoint) unless a & b is
    # 0, a or b
    clash = {}
    for p in only1:
        a = m1[p]
        hit = {q for q in only2 if (m2[q] & a) not in (0, a, m2[q])}
        if hit:
            clash[p] = hit
    hit2 = set().union(*clash.values())
    free1 = [p for p in only1 if p not in clash]
    free2 = [q for q in only2 if q not in hit2]
    support, times, seg_sq = _order_support(_refine_pairs(
        clash, [q for q in only2 if q in hit2], v1.sq, v2.sq, counts),
        v1, v2)
    free_sq = math.fsum(chain(
        (v1.sq[p] for p in free1), (v2.sq[q] for q in free2)))
    length = math.sqrt(math.fsum((common_sq, free_sq, seg_sq)))
    return length, common, free1, free2, support, times


# ---------------------------------------------------------------------------
# the geodesic object
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GeodesicPath:
    """The unique shortest path between two trees, evaluable anywhere.

    ``support`` lists the pairs (A_i, B_i) in visiting order, including the
    free splits as a leading pair with empty A (grow from the start) and a
    trailing pair with empty B (shrink until the end).  ``times`` holds the
    matching switch times.
    """

    source: AttributedTree
    target: AttributedTree
    common: tuple[Split, ...]
    support: tuple[tuple[tuple[Split, ...], tuple[Split, ...]], ...]
    times: tuple[float, ...]
    length: float
    # ``common`` and ``support`` as positions in the source and target
    # split views, recorded by ``geodesic``; None on a path built by hand
    _positions: tuple | None = field(default=None, init=False,
                                     compare=False, repr=False)

    def _look_up_positions(self):
        at1 = {sp: p for p, sp in enumerate(self.source._split_view.splits)}
        at2 = {sp: q for q, sp in enumerate(self.target._split_view.splits)}
        try:
            return (tuple((at1[sp], at2[sp]) for sp in self.common),
                    tuple((tuple(at1[sp] for sp in A),
                           tuple(at2[sp] for sp in B))
                          for A, B in self.support))
        except KeyError as exc:
            raise TreeError(f"path split {sorted(exc.args[0])} is missing "
                            "from its source or target") from None

    def point(self, s: float) -> AttributedTree:
        """The tree at arc-length fraction ``s`` along the path.

        A path from ``geodesic`` is valid by construction, so its points
        skip the public constructor's checks and come with their split
        view built.  A path built by hand gets every check.
        """
        if not 0.0 <= s <= 1.0:
            raise ValueError(f"path parameter {s} outside [0, 1]")
        if s == 0.0:
            return self.source
        if s == 1.0:
            return self.target
        s = float(s)  # a NumPy scalar would put NumPy floats in the tree
        v1, v2 = self.source._split_view, self.target._split_view
        common, support = self._positions or self._look_up_positions()
        # edges in the order the support visits them, and the same rows
        # as (key, split, mask, attribute) for the new split view.  The
        # attributes are floats, so map() over the bound float methods
        # does (1 - s) * x + s * y and c * f without a frame per split
        edges, rows = {}, []
        r_mul, s_mul = (1.0 - s).__mul__, s.__mul__
        for p, q in common:
            v = tuple(map(add, map(r_mul, v1.attrs[p]),
                          map(s_mul, v2.attrs[q])))
            if any(v):
                edges[v1.splits[p]] = v
                rows.append((v1.keys[p], v1.splits[p], v1.masks[p], v))
        for (A, B), t in zip(support, self.times):
            if s < t:
                f, view, side = 1.0 - s / t, v1, A
            elif s > t:
                f, view, side = (s - t) / (1.0 - t), v2, B
            else:
                continue
            for p in side:
                v = tuple(map(f.__mul__, view.attrs[p]))
                edges[view.splits[p]] = v
                rows.append((view.keys[p], view.splits[p], view.masks[p], v))
        labels = _labels((self.source, self.target), edges)
        if self._positions is None:
            return AttributedTree(self.source.leaves, edges, labels)
        # split keys are unique, so the sort never compares further
        keys, splits, masks, attrs = zip(*sorted(rows)) if rows \
            else ((), (), (), ())
        return AttributedTree._trusted(self.source.leaves, edges, labels,
                                       _view(splits, keys, masks, attrs))


def geodesic(t1: AttributedTree, t2: AttributedTree) -> GeodesicPath:
    """Build the shortest path between two trees on one leaf set."""
    _check_pair(t1, t2)
    v1, v2 = t1._split_view, t2._split_view
    length, common, free1, free2, support, times = _pair(
        v1, v2, dict.fromkeys(_COUNTS, 0))
    if free2:
        support = (((), tuple(free2)),) + support
        times = (0.0,) + times
    if free1:
        support = support + ((tuple(free1), ()),)
        times = times + (1.0,)
    s1, s2 = v1.splits, v2.splits
    path = GeodesicPath(
        t1, t2, tuple(s1[p] for p, _ in common),
        tuple((tuple(s1[p] for p in A), tuple(s2[q] for q in B))
              for A, B in support),
        times, length)
    object.__setattr__(path, "_positions", (tuple(common), support))
    return path


def geodesic_distance(t1: AttributedTree, t2: AttributedTree) -> float:
    """Length of the shortest path between two trees."""
    _check_pair(t1, t2)
    return _pair(t1._split_view, t2._split_view,
                 dict.fromkeys(_COUNTS, 0))[0]


def geodesic_point(t1: AttributedTree, t2: AttributedTree,
                   s: float) -> AttributedTree:
    """The tree at arc-length fraction ``s`` of the path from t1 to t2."""
    return geodesic(t1, t2).point(s)


def _check_trees(trees) -> None:
    """Raise what ``_check_pair`` raises on the first bad pair in row
    order, looking at each tree once."""
    for t in trees[1:]:
        _check_pair(trees[0], t)
    # every tree now has the first one's leaves, and its dimension where
    # both are set, so only two later trees can still clash
    dims = [(i, t.k) for i, t in enumerate(trees) if t.k is not None]
    for i, k in dims[1:]:
        if k != dims[0][1]:
            _check_pair(trees[dims[0][0]], trees[i])


def distance_matrix_detailed(trees, ids=None, labels=None, workers=None):
    """All pairwise distances, and counts of the work: ``pairs``,
    ``same_topology`` pairs, ``covers`` (max-flow runs), their
    ``cover_early_stops`` (weight one, no split), ``refinements`` (support
    pairs split) and ``augmentations`` (augmenting paths).

    From 2 000 pairs on, the pairs are spread over ``workers`` processes
    (default, and at most: the CPUs this process may run on); the matrix
    and the counts do not depend on how many.
    """
    workers = resolve_workers(workers)
    trees = list(trees)
    n = len(trees)
    if ids is None:
        ids = tuple(f"t{i}" for i in range(n))
    # built here, before any fork, so that the workers inherit them
    views = [t._split_view for t in trees]
    _check_trees(trees)
    rows, cols = np.triu_indices(n, 1)
    pairs = list(zip(rows.tolist(), cols.tolist()))
    if len(pairs) < _POOL_MIN_PAIRS:
        workers = 1
    # pairs dealt round-robin, a few chunks per process that fork_map can
    # start, so that every chunk mixes short and long rows alike
    k = 4 * min(workers, cpus()) if workers > 1 else 1

    def run(chunk):
        work = dict.fromkeys(_COUNTS, 0)
        return [_pair(views[i], views[j], work)[0] for i, j in chunk], work

    flat = np.empty(len(pairs))
    counts = dict.fromkeys(_COUNTS, 0)
    chunks = [pairs[c::k] for c in range(k)]
    for c, (lengths, work) in enumerate(fork_map(run, chunks, workers)):
        flat[c::k] = lengths
        for key, v in work.items():
            counts[key] += v
    counts["pairs"] = len(pairs)
    values = np.zeros((n, n))
    values[rows, cols] = values[cols, rows] = flat
    return DistanceMatrix(tuple(ids), values, labels), counts


def distance_matrix(trees, ids=None, labels=None,
                    workers=None) -> DistanceMatrix:
    """All pairwise geodesic distances."""
    return distance_matrix_detailed(trees, ids, labels, workers)[0]


# ---------------------------------------------------------------------------
# exhaustive reference computation
# ---------------------------------------------------------------------------

def _ordered_partitions(items, k):
    """All ways to deal ``items`` into k nonempty ordered blocks."""
    n = len(items)
    for assign in product(range(k), repeat=n):
        if len(set(assign)) != k:
            continue
        blocks = [[] for _ in range(k)]
        for item, b in zip(items, assign):
            blocks[b].append(item)
        yield tuple(tuple(b) for b in blocks)


def _polyline_length(anorms, bnorms, lin_sq, times):
    """Length of the piecewise-linear path with the given switch times.

    Source block i shrinks linearly to zero at times[i], target block i
    grows linearly from there; free and common coordinates move linearly
    over the whole of [0, 1].  Valid for nondecreasing times.
    """
    k = len(anorms)
    ts = [0.0] + list(times) + [1.0]
    total = 0.0
    for seg in range(len(ts) - 1):
        t0, t1 = ts[seg], ts[seg + 1]
        if t1 <= t0:
            continue
        sq = (t1 - t0) ** 2 * lin_sq
        for i in range(k):
            tau = times[i]
            l0 = max(0.0, 1.0 - t0 / tau)
            l1 = max(0.0, 1.0 - t1 / tau)
            sq += (anorms[i] * (l1 - l0)) ** 2
            m0 = max(0.0, (t0 - tau) / (1.0 - tau))
            m1 = max(0.0, (t1 - tau) / (1.0 - tau))
            sq += (bnorms[i] * (m1 - m0)) ** 2
        total += math.sqrt(sq)
    return total


def _grid_refine(anorms, bnorms, lin_sq, grid):
    """Best polyline length over switch times restricted to a uniform grid.

    Used for support sequences whose unconstrained switch times would leave
    the prescribed visiting order; the result is always the length of a
    realizable path, hence an upper bound on the true distance.
    """
    k = len(anorms)
    candidates = [j / grid for j in range(1, grid)]
    times = []
    for i in range(k):
        want = (i + 1) / (k + 1)
        times.append(min(candidates, key=lambda c: abs(c - want)))
    times.sort()
    best = _polyline_length(anorms, bnorms, lin_sq, times)
    for _ in range(4):
        improved = False
        for i in range(k):
            lo = times[i - 1] if i > 0 else candidates[0]
            hi = times[i + 1] if i + 1 < k else candidates[-1]
            for c in candidates:
                if c < lo or c > hi or c == times[i]:
                    continue
                trial = times[:i] + [c] + times[i + 1:]
                val = _polyline_length(anorms, bnorms, lin_sq, trial)
                if val < best - 1e-15:
                    best = val
                    times = trial
                    improved = True
        if not improved:
            break
    return best


def brute_force_distance(t1: AttributedTree, t2: AttributedTree,
                         grid: int = 128) -> float:
    """Reference distance by exhaustive search over support sequences.

    Every ordered pairing of source-only and target-only split blocks whose
    orthant sequence exists is scored.  Sequences whose switch times come
    out in visiting order get the exact straight-line length; the others are
    scored by the best piecewise-linear path with switch times on a uniform
    ``grid``, which upper-bounds the distance and tightens as the grid
    grows.  The minimum over all sequences equals the geodesic length.

    Intentionally knows nothing about the refinement algorithm; cost is
    exponential in the number of conflicting splits (at most 5 per side).
    """
    _check_pair(t1, t2)
    if grid < 2:
        raise ValueError("grid must be at least 2")
    common, only1, only2 = _side_splits(t1, t2)
    base_sq = sum(
        sum((xi - yi) ** 2 for xi, yi in zip(t1.edges[s], t2.edges[s]))
        for s in common
    )
    sq1 = {s: sum(c * c for c in t1.edges[s]) for s in only1}
    sq2 = {s: sum(c * c for c in t2.edges[s]) for s in only2}
    con1 = [e for e in only1 if not all(compatible(e, f) for f in only2)]
    con2 = [f for f in only2 if not all(compatible(e, f) for e in only1)]
    base_sq += sum(sq1[e] for e in only1 if e not in set(con1))
    base_sq += sum(sq2[f] for f in only2 if f not in set(con2))

    if not con1 and not con2:
        return math.sqrt(base_sq)
    if len(con1) > 5 or len(con2) > 5:
        raise ValueError(
            f"instance too large for exhaustive search: "
            f"{len(con1)} x {len(con2)} conflicting splits (limit 5)"
        )

    ok = {(a, b): compatible(a, b) for a in con1 for b in con2}
    best = math.inf
    for k in range(1, min(len(con1), len(con2)) + 1):
        b_parts = list(_ordered_partitions(con2, k))
        for ablocks in _ordered_partitions(con1, k):
            anorms = [math.sqrt(sum(sq1[a] for a in blk)) for blk in ablocks]
            for bblocks in b_parts:
                if any(not ok[a, b]
                       for p in range(k) for q in range(p + 1, k)
                       for b in bblocks[p] for a in ablocks[q]):
                    continue
                bnorms = [math.sqrt(sum(sq2[b] for b in blk))
                          for blk in bblocks]
                times = [an / (an + bn)
                         for an, bn in zip(anorms, bnorms)]
                if all(times[i] <= times[i + 1] + 1e-12
                       for i in range(k - 1)):
                    val = math.sqrt(base_sq + sum(
                        (an + bn) ** 2 for an, bn in zip(anorms, bnorms)))
                else:
                    lower = math.sqrt(base_sq + sum(
                        (an + bn) ** 2 for an, bn in zip(anorms, bnorms)))
                    if lower >= best:
                        continue
                    val = _grid_refine(anorms, bnorms, base_sq, grid)
                if val < best:
                    best = val
    return best
