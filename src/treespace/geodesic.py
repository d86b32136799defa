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
from dataclasses import dataclass
from functools import partial, reduce
from itertools import chain, compress, product, repeat
from operator import add, not_, or_, sub

import numpy as np

from ._pool import fork_map, resolve_workers
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

def _min_weight_cover(wa, wb, ta, tb, adj, amask, bmask, counts):
    """Minimum-weight vertex cover of a bipartite conflict graph.

    The a's are the bits i of ``amask``, with weights ``wa[i]``, residual
    tolerances ``ta[i] = _RESIDUAL_EPS * wa[i]`` and clash masks ``adj[i]``
    over the b's, the bits of ``bmask`` (with ``wb``, ``tb``).  The cover
    weight is the min cut of the max-flow source -> a: wa, a -> b: inf,
    b -> sink: wb; the cover, read off the residual reach, is pruned to a
    minimal one.  Returns (weight, cover_a, cover_b) as masks, or (flow,
    None, None) once the flow reaches 1 - _COVER_TOL: a pair that heavy is
    never split.  Counts its augmenting paths in ``counts``.

    Each path, so each rounding, is plain Edmonds-Karp's on the edges in
    (i, j) order, which is ascending bit order.  *Saturating start:* the
    direct paths, a by a, each a walking only b's with an open sink arc
    (``rb[j] > tb[j]``: weights can underflow to 0) until it saturates;
    the edges skipped are those where Edmonds-Karp pushes nothing.  *Early
    return* if the start reaches 1 - _COVER_TOL.  *Open-arc masks:* source
    and sink residuals only shrink, so masks of the open arcs replace
    scanning every a and testing every b.  *Sink at enqueue:* the search
    ends at the first open b it enqueues, the lowest bit of those one a
    reaches, which Edmonds-Karp dequeues first, via the same predecessors.
    *Hot loops* are inline: a helper listing a mask's bits was no faster.
    """
    # A residual at or below its tolerance is zero, so rounding never hides
    # a light vertex; (i, j)'s is min(ta[i], tb[j]).  fe[i * nb + j]: the
    # flow on (i, j); back[j]: the a's whose flow into b_j is above it;
    # sources: open_a's bits in ascending order
    ra, rb, nb = list(wa), list(wb), bmask.bit_length()
    back, fe = [0] * nb, [0.0] * (amask.bit_length() * nb)
    flow, paths, open_a, open_b, sources, m = 0.0, 0, 0, 0, [], bmask
    while m:
        low = m & -m
        if rb[low.bit_length() - 1] > tb[low.bit_length() - 1]:
            open_b |= low
        m ^= low
    m = amask
    while m:
        bit = m & -m
        i = bit.bit_length() - 1
        m ^= bit
        a, t, base, hit = ra[i], ta[i], i * nb, adj[i] & open_b
        while hit and a > t:
            low = hit & -hit
            j = low.bit_length() - 1
            b = rb[j]
            d = a if a < b else b   # above min(ta[i], tb[j])
            a -= d
            rb[j] = b = b - d       # x - x is 0.0
            fe[base + j] = d
            back[j] |= bit
            flow, paths = flow + d, paths + 1
            if not b > tb[j]:
                open_b ^= low
            hit ^= low
        ra[i] = a
        if a > t:
            open_a |= bit
            sources.append(i)
    stop, via_a, via_b = 1.0 - _COVER_TOL, [0] * len(ra), [0] * nb
    while flow < stop:
        # breadth-first search; queue: a as i, b as ~j; via_*: where each
        # came from; seen_*: those reached (and the b's off bmask)
        queue, seen_a, seen_b, sink = list(sources), open_a, ~bmask, -1
        for u in queue:
            if u >= 0:
                new = adj[u] & ~seen_b
                hit = new & open_b
                if hit:
                    sink = (hit & -hit).bit_length() - 1
                    via_b[sink] = u
                    break
                seen_b |= new
                while new:
                    low = new & -new
                    j = low.bit_length() - 1
                    via_b[j] = u
                    queue.append(~j)
                    new ^= low
            else:
                new = back[~u] & ~seen_a
                seen_a |= new
                while new:
                    low = new & -new
                    i = low.bit_length() - 1
                    via_a[i] = ~u
                    queue.append(i)
                    new ^= low
        if sink < 0:
            break
        # walk back to an open source arc, forward along conflict edges and
        # backward against them: once for the bottleneck d, once to add it
        d, j = rb[sink], sink
        while not open_a >> via_b[j] & 1:
            i = via_b[j]
            j = via_a[i]
            d = fe[i * nb + j] if fe[i * nb + j] < d else d
        i, j = via_b[j], sink
        d = ra[i] if ra[i] < d else d
        while True:
            i = via_b[j]
            f = fe[i * nb + j] = fe[i * nb + j] + d
            if f > ta[i] or f > tb[j]:
                back[j] |= 1 << i
            if open_a >> i & 1:
                break
            j = via_a[i]
            f = fe[i * nb + j] = fe[i * nb + j] - d
            if not (f > ta[i] or f > tb[j]):
                back[j] &= ~(1 << i)
        ra[i] -= d
        if not ra[i] > ta[i]:
            open_a ^= 1 << i
            sources.remove(i)
        rb[sink] -= d
        if not rb[sink] > tb[sink]:
            open_b ^= 1 << sink
        flow, paths = flow + d, paths + 1
    counts["augmentations"] += paths
    if flow >= stop:
        return flow, None, None
    # a reached (covered) b has an uncovered neighbour; drop a covered a
    # without one, which a weight that underflowed can leave
    cover_a, m = 0, amask & ~seen_a
    while m:
        low = m & -m
        cover_a |= low if adj[low.bit_length() - 1] & ~seen_b else 0
        m ^= low
    return flow, cover_a, seen_b & bmask


# ---------------------------------------------------------------------------
# support refinement
# ---------------------------------------------------------------------------

def _refine_pairs(clash, hit, sqa, sqb, bits, counts):
    """The geodesic's support pairs (A, B), in no order, as masks over the
    conflicting source splits and the target-only ones.  ``clash[i]`` masks
    the targets that source i clashes with, ``hit`` is their union,
    ``sqa``/``sqb`` list squared norms in ascending view position (block
    sums run in ascending bit order, as the cover does), bits[t] = 1 << t."""
    done, todo = [], [((1 << len(sqa)) - 1, hit)]
    while todo:
        A, B = todo.pop()
        if not (A & (A - 1) and B & (B - 1)):
            # a lone split clashes with all across: its cover weighs one
            done.append((A, B))
            continue
        asq = sum(compress(sqa, map(A.__and__, bits)))
        bsq = sum(compress(sqb, map(B.__and__, bits)))
        if not (asq and bsq):
            raise ValueError("squared attribute norms underflow to zero on "
                             "conflicting splits; geodesics need "
                             "attributes above about 1e-162")
        counts["covers"] += 1
        wa, wb = [x / asq for x in sqa], [x / bsq for x in sqb]
        _, ca, cb = _min_weight_cover(
            wa, wb, [_RESIDUAL_EPS * w for w in wa],
            [_RESIDUAL_EPS * w for w in wb], clash, A, B, counts)
        if ca is None:
            counts["cover_early_stops"] += 1
            done.append((A, B))
            continue
        # Every split of a pair conflicts with one in the pair.  A cover
        # below one leaves part of each side uncovered, whose conflicts it
        # covers, and a minimal one leaves each covered split an uncovered
        # conflict: no block is empty and both keep the property.
        counts["refinements"] += 1
        todo.append((ca, B & ~cb))
        todo.append((A & ~ca, cb))
    return done


def _pair(v1, v2, counts):
    """(length, common, free1, free2, support, times) of the geodesic
    between two split views, splits given as view positions.  The support
    pairs and their switch times come in no particular order: the length
    does not depend on it, and only ``geodesic`` needs the visiting order.
    """
    m1, m2, i1, i2 = v1.masks, v2.masks, v1.index, v2.index
    sq1, sq2, live1, live2 = v1.sq, v2.sq, v1.live, v2.live
    counts["same_topology"] += m1 == m2
    only2 = [q for q, m in enumerate(m2) if m not in i1 and live2[q]]
    o2 = [m2[q] for q in only2]
    # a source-only split's clashes as a mask, bit t for only2[t]: masks
    # a, b clash (are neither nested nor disjoint) unless a & b is 0, a, b
    P, Q, free1, con1, clash = [], [], [], [], []
    for p, a in enumerate(m1):
        q = i2.get(a)
        if q is not None:
            P.append(p)
            Q.append(q)
        elif live1[p]:
            hit, t = 0, 1
            for b in o2:
                c = a & b
                if c and c != a and c != b:
                    hit |= t
                t <<= 1
            if hit:
                con1.append(p)
                clash.append(hit)
            else:
                free1.append(p)
    # each common split's |x - y|^2 a coordinate at a time: the maps add
    # its (x_c - y_c) ** 2 left to right, as sum() over it would, bitwise
    common_sq = math.fsum(reduce(partial(map, add), [
        map(pow, map(sub, map(c1.__getitem__, P), map(c2.__getitem__, Q)),
            repeat(2)) for c1, c2 in zip(v1.cols, v2.cols)])) if P else 0.0
    hit2 = reduce(or_, clash, 0)
    bits = [1 << t for t in range(max(len(con1), len(only2)))]
    free2 = list(compress(only2, map(not_, map(hit2.__and__, bits))))
    # view positions, read back from the finished blocks' masks
    support = [(tuple(compress(con1, map(A.__and__, bits))),
                tuple(compress(only2, map(B.__and__, bits))))
               for A, B in _refine_pairs(clash, hit2, [sq1[p] for p in con1],
                                         [sq2[q] for q in only2], bits,
                                         counts)] if clash else []
    # fsum rounds correctly, so no order of the terms changes a bit, and
    # swapping source and target mirrors the arithmetic: d(t1,t2) == d(t2,t1)
    times, seg = [], []
    for A, B in support:
        an = math.sqrt(math.fsum(map(sq1.__getitem__, A)))
        bn = math.sqrt(math.fsum(map(sq2.__getitem__, B)))
        total = an + bn
        times.append(an / total if total > 0 else 0.0)
        seg.append(total ** 2)
    free_sq = math.fsum(chain(map(sq1.__getitem__, free1),
                              map(sq2.__getitem__, free2)))
    length = math.sqrt(math.fsum((common_sq, free_sq, math.fsum(seg))))
    return length, list(zip(P, Q)), free1, free2, support, times


# ---------------------------------------------------------------------------
# the geodesic object
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GeodesicPath:
    """The unique shortest path between two trees, evaluable anywhere.

    ``support`` lists the pairs (A_i, B_i) in visiting order, including the
    free splits as a leading pair with empty A (grow from the start) and a
    trailing pair with empty B (shrink until the end).  ``times`` holds the
    matching switch times.  The path keeps its splits only as positions in
    the source and target split views; ``common`` and ``support`` map them
    back to frozensets.  Paths come from ``geodesic``, which proves every
    point a tree: building one by hand is not supported.
    """

    source: AttributedTree
    target: AttributedTree
    times: tuple[float, ...]
    length: float
    # (common, support) as view positions: ((p, q), ...) and
    # (((p, ...), (q, ...)), ...)
    _positions: tuple

    @property
    def common(self) -> tuple[Split, ...]:
        s1 = self.source._split_view.splits
        return tuple(s1[p] for p, _ in self._positions[0])

    @property
    def support(self) -> tuple[tuple[tuple[Split, ...], ...], ...]:
        s1 = self.source._split_view.splits
        s2 = self.target._split_view.splits
        return tuple((tuple(s1[p] for p in A), tuple(s2[q] for q in B))
                     for A, B in self._positions[1])

    def point(self, s: float) -> AttributedTree:
        """The tree at arc-length fraction ``s`` along the path.

        The path is valid by construction, so its points skip the public
        constructor's checks and come with their split view built.
        """
        if not 0.0 <= s <= 1.0:
            raise ValueError(f"path parameter {s} outside [0, 1]")
        if s == 0.0:
            return self.source
        if s == 1.0:
            return self.target
        s = float(s)  # a NumPy scalar would put NumPy floats in the tree
        v1, v2 = self.source._split_view, self.target._split_view
        common, support = self._positions
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
        # split keys are unique, so the sort never compares further
        keys, splits, masks, attrs = zip(*sorted(rows)) if rows \
            else ((), (), (), ())
        return AttributedTree._trusted(self.source.leaves, edges, labels,
                                       _view(splits, keys, masks, attrs))


def geodesic(t1: AttributedTree, t2: AttributedTree) -> GeodesicPath:
    """Build the shortest path between two trees on one leaf set."""
    _check_pair(t1, t2)
    v1, v2 = t1._split_view, t2._split_view
    length, common, free1, free2, pairs, times = _pair(
        v1, v2, dict.fromkeys(_COUNTS, 0))
    # visiting order: by switch time, ties broken on the smallest split
    order = sorted(range(len(pairs)), key=lambda n: (times[n], min(
        min(v1.keys[p] for p in pairs[n][0]),
        min(v2.keys[q] for q in pairs[n][1]))))
    support = tuple(pairs[n] for n in order)
    times = tuple(times[n] for n in order)
    if free2:
        support = (((), tuple(free2)),) + support
        times = (0.0,) + times
    if free1:
        support = support + ((tuple(free1), ()),)
        times = times + (1.0,)
    return GeodesicPath(t1, t2, times, length, (tuple(common), support))


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

    From 2 000 pairs on, the rows of the matrix are spread over ``workers``
    processes (default, and at most: the CPUs this process may run on); the
    matrix and the counts do not depend on how many.
    """
    workers = resolve_workers(workers)
    trees = list(trees)
    n = len(trees)
    if ids is None:
        ids = tuple(f"t{i}" for i in range(n))
    # built here, before any fork, so that the workers inherit them
    views = [t._split_view for t in trees]
    _check_trees(trees)
    pairs = n * (n - 1) // 2
    if pairs < _POOL_MIN_PAIRS:
        workers = 1

    def row(i):
        """Distances from tree i to trees i+1 ... n-1, and their work."""
        work = dict.fromkeys(_COUNTS, 0)
        return [_pair(views[i], views[j], work)[0]
                for j in range(i + 1, n)], work

    values = np.zeros((n, n))
    counts = dict.fromkeys(_COUNTS, 0)
    for i, (lengths, work) in enumerate(fork_map(row, range(n), workers)):
        values[i, i + 1:] = values[i + 1:, i] = lengths
        for key, v in work.items():
            counts[key] += v
    counts["pairs"] = pairs
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
