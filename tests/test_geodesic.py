import hashlib
import inspect
import math
import sys
from itertools import product, repeat
from operator import sub

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from treespace import (
    AttributedTree,
    TreeError,
    brute_force_distance,
    compatible,
    distance_matrix,
    distance_matrix_detailed,
    geodesic,
    geodesic_distance,
    geodesic_point,
)
from treespace.cli import main
from treespace.geodesic import (_COUNTS, _COVER_TOL, _RESIDUAL_EPS,
                                _min_weight_cover, _pair)

from helpers import leaf_names, random_tree, random_tree_pair

S = frozenset


def _cover(wa, wb, edges):
    """``_min_weight_cover`` on all of ``wa`` and ``wb`` with the index
    pairs ``edges`` as its clash masks, covers given back as flag lists.
    Masks carry no order: the cover scans edges sorted by (i, j)."""
    adj = [0] * len(wa)
    for i, j in edges:
        adj[i] |= 1 << j
    weight, ca, cb = _min_weight_cover(
        wa, wb, [_RESIDUAL_EPS * w for w in wa],
        [_RESIDUAL_EPS * w for w in wb], adj, (1 << len(wa)) - 1,
        (1 << len(wb)) - 1, {"augmentations": 0})
    if ca is None:
        return weight, None, None
    return (weight, [bool(ca >> i & 1) for i in range(len(wa))],
            [bool(cb >> j & 1) for j in range(len(wb))])


def star(leaves, lengths):
    return AttributedTree(tuple(leaves),
                          {S([x]): (l,) for x, l in zip(leaves, lengths)})


def quartet(inner1, inner2, inner_len=1.0):
    """Binary tree on a,b,c,d with two interior splits, unit pendants."""
    edges = {S(x): (1.0,) for x in "abcd"}
    edges[S(inner1)] = (inner_len,)
    edges[S(inner2)] = (inner_len,)
    return AttributedTree(("a", "b", "c", "d"), edges)


def test_identity():
    t = star("abc", (1.0, 2.0, 3.0))
    assert geodesic_distance(t, t) == 0.0


def test_same_orthant_euclidean():
    t1 = star("abc", (1.0, 2.0, 3.0))
    t2 = star("abc", (2.0, 2.0, 4.0))
    assert geodesic_distance(t1, t2) == pytest.approx(math.sqrt(2.0), abs=1e-15)


def test_cone_path_quartet():
    # both interior splits cross both of the others: one unsplittable
    # support pair, so the path passes through the shared star face
    t1 = quartet("ab", "cd")
    t2 = quartet("ac", "bd")
    d = geodesic_distance(t1, t2)
    assert d == pytest.approx(2.0 * math.sqrt(2.0), abs=1e-12)
    assert abs(brute_force_distance(t1, t2, grid=64) - d) <= 1e-6

    mid = geodesic_point(t1, t2, 0.5)
    assert mid.splits == frozenset(S(x) for x in "abcd")
    for x in "abcd":
        assert mid.attribute(S(x)) == (1.0,)


def test_two_pair_support():
    # {a,b} fights only {b,c} and {d,e} only {e,f}: the support refines
    # into two pairs with switch times 1/3 and 2/3
    leaves = ("a", "b", "c", "d", "e", "f")
    pend = {S(x): (1.0,) for x in leaves}
    t1 = AttributedTree(leaves, {**pend, S("ab"): (2.0,), S("de"): (1.0,)})
    t2 = AttributedTree(leaves, {**pend, S("bc"): (1.0,), S("ef"): (2.0,)})
    d = geodesic_distance(t1, t2)
    assert d == pytest.approx(math.sqrt(18.0), abs=1e-12)

    path = geodesic(t1, t2)
    assert path.times == pytest.approx((1.0 / 3.0, 2.0 / 3.0), abs=1e-12)
    assert abs(brute_force_distance(t1, t2) - d) <= 1e-6


def test_free_splits():
    # the two one-side-only splits never conflict, so each contributes
    # its own norm and vanishes at an endpoint of the path
    leaves = ("a", "b", "c", "d")
    pend = {S(x): (1.0,) for x in leaves}
    t1 = AttributedTree(leaves, {**pend, S("ab"): (2.0,)})
    t2 = AttributedTree(leaves, {**pend, S("cd"): (2.0,)})
    d = geodesic_distance(t1, t2)
    assert d == pytest.approx(2.0 * math.sqrt(2.0), abs=1e-12)
    assert abs(brute_force_distance(t1, t2) - d) <= 1e-6


def test_endpoint_law():
    rng = np.random.default_rng(5)
    t1, t2 = random_tree_pair(rng, 5)
    assert geodesic_point(t1, t2, 0.0) == t1
    assert geodesic_point(t1, t2, 1.0) == t2
    with pytest.raises(ValueError):
        geodesic_point(t1, t2, 1.5)
    with pytest.raises(ValueError):
        geodesic_point(t1, t2, -0.1)


def test_same_topology_midpoint():
    t1 = star("abc", (1.0, 2.0, 3.0))
    t2 = star("abc", (2.0, 2.0, 4.0))
    mid = geodesic_point(t1, t2, 0.5)
    assert mid.attribute(S("a")) == (1.5,)
    assert mid.attribute(S("b")) == (2.0,)
    assert mid.attribute(S("c")) == (3.5,)


def test_path_additivity():
    rng = np.random.default_rng(11)
    for _ in range(30):
        t1, t2 = random_tree_pair(rng, int(rng.integers(3, 7)),
                                  k=int(rng.integers(1, 3)))
        d = geodesic_distance(t1, t2)
        for s in (0.25, 0.5, 0.75):
            mid = geodesic_point(t1, t2, s)
            left = geodesic_distance(t1, mid)
            right = geodesic_distance(mid, t2)
            assert abs(left + right - d) <= 1e-9
            assert abs(left - s * d) <= 1e-9


def test_symmetry_bitwise():
    rng = np.random.default_rng(13)
    for _ in range(50):
        t1, t2 = random_tree_pair(rng, int(rng.integers(3, 8)),
                                  k=int(rng.integers(1, 3)))
        assert geodesic_distance(t1, t2) == geodesic_distance(t2, t1)


def test_homogeneity():
    rng = np.random.default_rng(17)
    for _ in range(20):
        t1, t2 = random_tree_pair(rng, 5, k=2)
        c = float(rng.uniform(0.3, 3.0))
        s1 = AttributedTree(t1.leaves, {s: tuple(c * v for v in a)
                                        for s, a in t1.edges.items()})
        s2 = AttributedTree(t2.leaves, {s: tuple(c * v for v in a)
                                        for s, a in t2.edges.items()})
        assert abs(geodesic_distance(s1, s2) - c * geodesic_distance(t1, t2)) <= 1e-9


def test_oracle_agreement():
    rng = np.random.default_rng(20260823)
    for _ in range(40):
        n = int(rng.integers(3, 7))
        k = int(rng.integers(1, 3))
        t1, t2 = random_tree_pair(rng, n, k=k, zero_prob=0.1)
        d = geodesic_distance(t1, t2)
        b = brute_force_distance(t1, t2, grid=128)
        assert abs(d - b) <= 1e-6
        # the oracle searches a restricted path family, so it never
        # undercuts the true geodesic
        assert b >= d - 1e-8


def test_oracle_same_topology_exact():
    t1 = star("abcd", (1.0, 2.0, 3.0, 4.0))
    t2 = star("abcd", (4.0, 3.0, 2.0, 1.0))
    for grid in (2, 16, 128):
        assert brute_force_distance(t1, t2, grid=grid) == \
            geodesic_distance(t1, t2)


def test_oracle_size_guard():
    leaves = tuple("abcdefgh")
    pend = {S(x): (1.0,) for x in leaves}
    nested1 = {S(leaves[:i]): (1.0,) for i in range(2, 8)}
    nested2 = {S(leaves[-i:]): (1.0,) for i in range(2, 8)}
    t1 = AttributedTree(leaves, {**pend, **nested1})
    t2 = AttributedTree(leaves, {**pend, **nested2})
    with pytest.raises(ValueError):
        brute_force_distance(t1, t2)


def test_mismatched_inputs_rejected():
    t1 = star("abc", (1.0, 1.0, 1.0))
    t2 = star("abd", (1.0, 1.0, 1.0))
    with pytest.raises(TreeError):
        geodesic_distance(t1, t2)
    t3 = AttributedTree(("a", "b", "c"),
                        {S(x): (1.0, 0.0) for x in "abc"})
    with pytest.raises(TreeError):
        geodesic_distance(t1, t3)


def test_distance_matrix_small():
    t = star("abc", (1.0, 2.0, 3.0))
    dm = distance_matrix([t])
    assert dm.values.shape == (1, 1)
    assert dm.values[0, 0] == 0.0

    dm = distance_matrix([t, t, star("abc", (2.0, 2.0, 4.0))])
    assert dm.values[0, 1] == 0.0
    assert dm.values[0, 2] == pytest.approx(math.sqrt(2.0))


def test_distance_matrix_triangle():
    rng = np.random.default_rng(23)
    trees = [random_tree(rng, ("a", "b", "c", "d", "e")) for _ in range(10)]
    dm = distance_matrix(trees)
    v = dm.values
    n = len(trees)
    for i in range(n):
        for j in range(i + 1, n):
            for l in range(n):
                assert v[i, j] <= v[i, l] + v[l, j] + 1e-9


def test_min_weight_cover_prefers_light_side():
    # one heavy A vertex against two light B vertices: the cover picks
    # whichever side is cheaper
    flow, in_a, in_b = _cover([0.9], [0.3, 0.3], [(0, 0), (0, 1)])
    assert flow == pytest.approx(0.6)
    assert in_a == [False]
    assert in_b == [True, True]

    flow, in_a, in_b = _cover([0.2], [0.3, 0.3], [(0, 0), (0, 1)])
    assert flow == pytest.approx(0.2)
    assert in_a == [True]
    assert in_b == [False, False]

    # the same choice between weights far below any fixed residual
    # tolerance: the lighter of a1 and b1 is covered
    flow, in_a, in_b = _cover([0.5, 2e-20], [0.5, 1e-20],
                              [(0, 0), (1, 1)])
    assert in_a[1] is False and in_b[1] is True
    assert flow == pytest.approx(0.5 + 1e-20, rel=0, abs=1e-30)


def assert_valid_point(pt):
    """``pt`` is the tree the public, validating constructor builds from
    its parts, and the split view it came with is that tree's own."""
    rebuilt = AttributedTree(pt.leaves, pt.edges, pt.branch_labels)
    assert pt == rebuilt
    assert pt._split_view == rebuilt._split_view


def test_geodesic_path_structure():
    rng = np.random.default_rng(31)

    def rescale(t):
        # lengths spanning 1e-8 to 1 put some cover weights far below the
        # max-flow's rounding level
        return AttributedTree(t.leaves, {
            s: tuple(c * 10.0 ** rng.uniform(-8.0, 0.0) for c in v)
            for s, v in t.edges.items()})

    cases = [(n, k, zp, wide) for n in (5, 8, 12, 16) for k in (1, 3)
             for zp in (0.0, 0.3) for wide in (False, True)]
    for n, k, zp, wide in cases:
        for _ in range(20):
            t1, t2 = random_tree_pair(rng, n, k=k, zero_prob=zp)
            if wide:
                t1, t2 = rescale(t1), rescale(t2)
            path = geodesic(t1, t2)
            only1 = {s for s in t1.splits - t2.splits
                     if any(t1.edges[s])}
            only2 = {s for s in t2.splits - t1.splits
                     if any(t2.edges[s])}
            got1 = [s for A, _ in path.support for s in A]
            got2 = [s for _, B in path.support for s in B]
            # every nonzero one-side split appears exactly once
            assert sorted(map(sorted, got1)) == sorted(map(sorted, only1))
            assert sorted(map(sorted, got2)) == sorted(map(sorted, only2))
            assert all(0.0 <= t <= 1.0 for t in path.times)
            assert list(path.times) == sorted(path.times)
            assert path.length >= 0.0
            # free splits form the only pairs with an empty side
            free1 = {e for e in only1 if all(compatible(e, f) for f in only2)}
            free2 = {f for f in only2 if all(compatible(e, f) for e in only1)}
            support = list(path.support)
            if free2:
                assert set(support.pop(0)[1]) == free2
            if free1:
                assert set(support.pop()[0]) == free1
            assert all(A and B for A, B in support)
            # the visiting order is realizable: nothing that grows at an
            # earlier switch clashes with a split that collapses later
            for p, (_, Bp) in enumerate(path.support):
                for Aq, _ in path.support[p + 1:]:
                    assert all(compatible(b, a) for b in Bp for a in Aq)
            # so every point of the path is a tree
            for s in [*np.linspace(0.0, 1.0, 21), *path.times]:
                assert_valid_point(path.point(float(s)))


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n_leaves=st.integers(2, 10),
       k=st.sampled_from((1, 3)), zero_prob=st.sampled_from((0.0, 0.3)),
       s=st.floats(0.0, 1.0))
def test_path_points_equal_the_validated_rebuild(seed, n_leaves, k,
                                                 zero_prob, s):
    t1, t2 = random_tree_pair(np.random.default_rng(seed), n_leaves, k,
                              zero_prob)
    path = geodesic(t1, t2)
    # the path keeps view positions; its frozensets map back to them
    assert set(path.common) == t1.splits & t2.splits
    # each point skips the public constructor, which must build the same
    # tree and split view from the point's parts
    for u in (s, *path.times):
        assert_valid_point(path.point(u))


def _rescaled(rng, tree, same_splits=None):
    """``tree`` with each coordinate scaled by 10**U(-6, 6), so that adding
    a split's squares in another order moves the last bits; with
    ``same_splits``, that tree's splits carry fresh attributes instead."""
    k = tree.k
    edges = {}
    for sp, v in (same_splits or tree).edges.items():
        if same_splits is not None and any(v):
            v = rng.normal(0.0, 1.0, size=k) if k > 1 \
                else rng.uniform(0.05, 2.0, size=1)
        edges[sp] = tuple(float(c) * 10.0 ** rng.uniform(-6, 6) for c in v)
    return AttributedTree(tree.leaves, edges)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_pair_sums_common_splits_as_the_per_split_formula(k):
    # _pair sums the common splits' squared differences a coordinate at a
    # time; it must give the bits of summing them a split at a time
    rng = np.random.default_rng(60 + k)
    for n in range(120):
        t1, t2 = random_tree_pair(rng, int(rng.integers(2, 12)), k,
                                  zero_prob=0.25)
        t1 = _rescaled(rng, t1)
        t2 = _rescaled(rng, t2, same_splits=t1 if n % 3 == 0 else None)
        v1, v2 = t1._split_view, t2._split_view
        assert v1.cols == tuple(zip(*v1.attrs))
        length, common, free1, free2, support, _ = _pair(
            v1, v2, dict.fromkeys(_COUNTS, 0))
        assert common == [(p, v2.index[m]) for p, m in enumerate(v1.masks)
                          if m in v2.index]
        common_sq = math.fsum([
            sum(map(pow, map(sub, v1.attrs[p], v2.attrs[q]), repeat(2)))
            for p, q in common])
        free_sq = math.fsum([v1.sq[p] for p in free1]
                            + [v2.sq[q] for q in free2])
        seg = [(math.sqrt(math.fsum([v1.sq[p] for p in A]))
                + math.sqrt(math.fsum([v2.sq[q] for q in B]))) ** 2
               for A, B in support]
        assert length.hex() == math.sqrt(
            math.fsum((common_sq, free_sq, math.fsum(seg)))).hex()


def test_min_weight_cover_is_minimal_with_tiny_weights():
    # a covered split without an uncovered conflict would leave a block of
    # the split pair empty, however light the split is
    cases = [
        # A = (big, x, tiny), B = (b1, b2); conflicts x-b1, big-b2, tiny-b2
        ([1.0, 1e-6, 1e-15], [1.0, 1e-4], [(1, 0), (0, 1), (2, 1)]),
        # a weight that underflowed to zero never carries flow
        ([1.0, 0.0], [0.1], [(0, 0), (1, 0)]),
    ]
    for wa, wb, edges in cases:
        weight, in_a, in_b = _cover(wa, wb, edges)
        assert all(in_a[i] or in_b[j] for i, j in edges)
        for i, j in edges:
            if in_a[i]:
                assert any(not in_b[jj] for ii, jj in edges if ii == i)
            if in_b[j]:
                assert any(not in_a[ii] for ii, jj in edges if jj == j)
        assert weight == pytest.approx(
            sum(w for w, c in zip(wa + wb, in_a + in_b) if c))


def _pinned_populations():
    rng = np.random.default_rng(20261018)
    # fully resolved 10-leaf trees, as in the tree-map benchmark
    yield [random_tree(rng, leaf_names(10), p_keep=1.0) for _ in range(40)]
    # partly resolved trees holding zero-length edges
    yield [random_tree(rng, leaf_names(12), zero_prob=0.3) for _ in range(12)]
    yield [random_tree(rng, leaf_names(8), k=3, zero_prob=0.2)
           for _ in range(8)]


# sha256 of each population's distance CSV, recorded with the frozenset-
# based geodesic core that the split-mask core replaced: the rewrite, and
# any later speed-up, must keep every byte
_PINNED_CSV_SHA256 = (
    "4d2f8072f3376ac7d02821ab3969b95463f52314e0a441816ea0d606e5f8a088",
    "1d361c2079e5d113cf5057ebf5404ffab302d20148c020b276fdb3b9bf907e06",
    "a16667fcaa2040220262c5c784b346f749b0f847670b6103289e8a2cf666f207",
)


# the work counts of distance_matrix_detailed on the same populations,
# recorded before the bitmask max-flow: a faster max-flow must still take
# every augmenting path of plain Edmonds-Karp, so these may never change
_PINNED_COUNTS = (
    {"pairs": 780, "same_topology": 0, "covers": 1757,
     "cover_early_stops": 948, "refinements": 809, "augmentations": 19371},
    {"pairs": 66, "same_topology": 0, "covers": 140,
     "cover_early_stops": 66, "refinements": 74, "augmentations": 1031},
    {"pairs": 28, "same_topology": 0, "covers": 21,
     "cover_early_stops": 13, "refinements": 8, "augmentations": 136},
)


def test_distance_matrix_work_pinned():
    for trees, want in zip(_pinned_populations(), _PINNED_COUNTS):
        assert distance_matrix_detailed(trees, workers=1)[1] == want


def test_distance_matrix_bytes_pinned():
    for trees, digest in zip(_pinned_populations(), _PINNED_CSV_SHA256):
        dm = distance_matrix(trees)
        assert hashlib.sha256(dm.to_csv().encode()).hexdigest() == digest
        for i, ti in enumerate(trees):
            for j, tj in enumerate(trees[i + 1:], i + 1):
                d = geodesic(ti, tj).length
                assert dm.values[i, j] == d == geodesic_distance(tj, ti)


# sha256 of command outputs on a 17-subject cohort in several topologies,
# recorded before subtrees were built trusted and before group variances
# reused the mean search's objective: neither may change a byte
_PINNED_COMMAND_SHA256 = {
    "pooled.csv":
        "9ff43c9562e20efd15797acd7f12f8e2810f4693519ceae882369e8ce8d6ee68",
    "per-class.csv":
        "90c397f838f69c53d0c755e3a828390afd75fe61efac88698f60c5a8d107ac93",
    "perm.json":
        "775d74788ac1ead5d5357827b8fb6599a5f79ec027e3b4f098d9ea3f2bf12d68",
}


def test_features_and_variance_permtest_bytes_pinned(tmp_path):
    pop = str(tmp_path / "pop.json")
    labels = ("LMB", "RMB", "LUL", "RUL", "L1+2+3", "LLB", "BronchInt",
              "RLL")   # the benchmark's: every default label but Trachea
    assert main(["gen", "trees", "-o", pop, "--n", "17", "--attr-sigma",
                 "0.1", "--topology-noise", "0.5", "--class-shift",
                 '{"LMB": 0.3}', "--seed", "1"]) == 0
    runs = {
        "pooled.csv": ["subtree-features", "--input", pop, "--mode",
                       "pooled", "--labels", *labels],
        "per-class.csv": ["subtree-features", "--input", pop],
        "perm.json": ["permtest", "--groups", pop, "--statistic",
                      "variance", "--M", "30", "--threads", "1"],
    }
    for name, argv in runs.items():
        out = tmp_path / name
        assert main([*argv, "-o", str(out), "--seed", "1"]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == \
            _PINNED_COMMAND_SHA256[name]


def _exhaustive_cover_weight(wa, wb, edges):
    best = math.inf
    for pick in product((False, True), repeat=len(wa) + len(wb)):
        ca, cb = pick[:len(wa)], pick[len(wa):]
        if all(ca[i] or cb[j] for i, j in edges):
            best = min(best, math.fsum(
                w for w, c in zip(wa + wb, pick) if c))
    return best


def test_min_weight_cover_matches_exhaustive_search():
    rng = np.random.default_rng(43)
    for _ in range(200):
        na, nb = (int(x) for x in rng.integers(1, 6, size=2))

        def weights(n):
            w = 10.0 ** rng.uniform(-15.0, 0.0, size=n)
            w = [0.0 if rng.random() < 0.1 else float(x) for x in w]
            # support refinement divides each side by its total
            return [x / sum(w) for x in w] if normalize and sum(w) else w

        normalize = bool(rng.random() < 0.5)
        wa, wb = weights(na), weights(nb)
        edges = [(i, j) for i in range(na) for j in range(nb)
                 if rng.random() < 0.7] or [(0, 0)]
        edges = [edges[k] for k in rng.permutation(len(edges))]
        # the max-flow stops once its flow reaches 1 - _COVER_TOL; weights
        # scaled by 1/8 keep it below that, and a power-of-two scale leaves
        # every comparison and rounding of the run unchanged
        full, ca, cb = _cover([w / 8 for w in wa], [w / 8 for w in wb],
                              edges)
        full *= 8
        best = _exhaustive_cover_weight(wa, wb, edges)
        assert abs(full - best) <= 1e-12 * best
        assert all(ca[i] or cb[j] for i, j in edges)
        for i, j in edges:
            if ca[i]:
                assert any(not cb[jj] for ii, jj in edges if ii == i)
            if cb[j]:
                assert any(not ca[ii] for ii, jj in edges if jj == j)
        assert abs(math.fsum(w for w, c in zip(wa + wb, ca + cb) if c)
                   - full) <= 1e-12 * full

        weight, in_a, in_b = _cover(wa, wb, edges)
        assert (weight >= 1.0 - _COVER_TOL) == (full >= 1.0 - _COVER_TOL)
        if in_a is None:
            assert in_b is None and weight <= full
        else:
            assert (weight, in_a, in_b) == (full, ca, cb)


def _plain_edmonds_karp_cover(wa, wb, edges):
    """Reference: textbook Edmonds-Karp on explicit arc lists, each search
    running to exhaustion, with the same residual tolerances and pruning
    as ``_min_weight_cover`` but none of its shortcuts."""
    na, nb = len(wa), len(wb)
    src, snk = na + nb, na + nb + 1
    adj = [[] for _ in range(na + nb + 2)]
    to, cap, tol = [], [], []
    arcs = ([(src, i, w, w) for i, w in enumerate(wa)]
            + [(na + j, snk, w, w) for j, w in enumerate(wb)]
            + [(i, na + j, math.inf, min(wa[i], wb[j])) for i, j in edges])
    for u, v, c, bound in arcs:
        for x, y, cc in ((u, v, c), (v, u, 0.0)):
            adj[x].append(len(to))
            to.append(y)
            cap.append(cc)
            tol.append(1e-13 * bound)
    flow = 0.0
    while True:
        arc_in = {src: None}
        queue = [src]
        for u in queue:
            for a in adj[u]:
                if to[a] not in arc_in and cap[a] > tol[a]:
                    arc_in[to[a]] = a
                    queue.append(to[a])
        if snk not in arc_in:
            break
        path, v = [], snk
        while v != src:
            path.append(arc_in[v])
            v = to[arc_in[v] ^ 1]
        d = min(cap[a] for a in path)
        for a in path:
            cap[a] -= d
            cap[a ^ 1] += d
        flow += d
    in_b = [na + j in arc_in for j in range(nb)]
    needed = [any(not in_b[j] for ii, j in edges if ii == i)
              for i in range(na)]
    return flow, [i not in arc_in and needed[i] for i in range(na)], in_b


def test_min_weight_cover_equals_plain_edmonds_karp():
    # the saturating start and the search stopped at the sink must take
    # the very augmenting paths, and so the very roundings, of the plain
    # algorithm; sums of tenths leave residuals just above zero
    rng = np.random.default_rng(47)
    for _ in range(300):
        na, nb = (int(x) for x in rng.integers(1, 7, size=2))

        def weights(n):
            kind = rng.integers(0, 3, size=n)
            return [float(rng.integers(1, 10)) / 10 if k == 0 else
                    0.0 if k == 1 and rng.random() < 0.3 else
                    float(10.0 ** rng.uniform(-15.0, 0.0)) for k in kind]

        wa, wb = [w / 8 for w in weights(na)], [w / 8 for w in weights(nb)]
        # sorted by (i, j), the order the cover scans its masks in
        edges = [(i, j) for i in range(na) for j in range(nb)
                 if rng.random() < 0.6] or [(0, 0)]
        assert _cover(wa, wb, edges) == \
            _plain_edmonds_karp_cover(wa, wb, edges)


def test_min_weight_cover_keeps_sub_tolerance_flow_closed():
    # the path to the 1e-15 sink pushes flow that stays below the
    # tolerance of a forward arc it crosses; plain Edmonds-Karp never
    # walks that arc backward, so the search may not either
    wa = [w / 8 for w in (0.3, 0.3, 0.5)]
    wb = [w / 8 for w in (1e-15, 0.3, 0.3, 0.2)]
    edges = [(0, 0), (0, 1), (0, 3), (1, 2), (1, 3), (2, 0), (2, 2)]
    assert _cover(wa, wb, edges) == \
        _plain_edmonds_karp_cover(wa, wb, edges)


def _plain_augmentations(wa, wb, edges):
    """``_plain_edmonds_karp_cover`` and the augmenting paths it takes:
    how often it runs its ``flow += d`` line, counted by a line tracer."""
    code = _plain_edmonds_karp_cover.__code__
    lines, first = inspect.getsourcelines(_plain_edmonds_karp_cover)
    target = first + [line.strip() for line in lines].index("flow += d")
    paths = 0

    def count(frame, event, arg):
        nonlocal paths
        paths += event == "line" and frame.f_lineno == target
        return count

    old = sys.gettrace()
    sys.settrace(lambda frame, event, arg:
                 count if frame.f_code is code else None)
    try:
        result = _plain_edmonds_karp_cover(wa, wb, edges)
    finally:
        sys.settrace(old)
    return result, paths


def test_min_weight_cover_on_scattered_masks_equals_plain_edmonds_karp():
    # support refinement hands the cover blocks whose a's and b's are
    # scattered bits of the split lists, with clash masks that reach past
    # the block; each run must be plain Edmonds-Karp on the compacted
    # subgraph, bit for bit and path for path.  Weights off the block are
    # NaN, which would show in the flow if they were read
    rng = np.random.default_rng(53)
    leaves = leaf_names(10)
    for _ in range(300):
        m1, m2 = (random_tree(rng, leaves, p_keep=1.0)._split_view.masks
                  for _ in range(2))
        adj = [sum(1 << j for j, b in enumerate(m2) if a & b not in (0, a, b))
               for a in m1]
        ia = [i for i, hit in enumerate(adj) if hit and rng.random() < 0.8]
        jb = [j for j in range(len(m2))
              if rng.random() < 0.8 and any(adj[i] >> j & 1 for i in ia)]

        def weights(size, block):
            w = [math.nan] * size
            for i in block:
                u = rng.random()
                w[i] = 0.0 if u < 0.1 else 1e-20 if u < 0.2 else \
                    float(rng.uniform(0.05, 2.0)) ** 2
            # each side sums to 1/8: plain Edmonds-Karp never stops early,
            # and the cover stops at 1 - _COVER_TOL
            total = 8.0 * math.fsum(w[i] for i in block)
            for i in block:
                w[i] /= total or 1.0
            return w

        wa, wb = weights(len(m1), ia), weights(len(m2), jb)
        edges = [(x, y) for x, i in enumerate(ia) for y, j in enumerate(jb)
                 if adj[i] >> j & 1]
        counts = {"augmentations": 0}
        flow, ca, cb = _min_weight_cover(
            wa, wb, [_RESIDUAL_EPS * w for w in wa],
            [_RESIDUAL_EPS * w for w in wb], adj, sum(1 << i for i in ia),
            sum(1 << j for j in jb), counts)
        (want, in_a, in_b), paths = _plain_augmentations(
            [wa[i] for i in ia], [wb[j] for j in jb], edges)
        assert flow.hex() == want.hex()
        assert ca == sum(1 << i for i, c in zip(ia, in_a) if c)
        assert cb == sum(1 << j for j, c in zip(jb, in_b) if c)
        assert counts["augmentations"] == paths


def scaled(t, c):
    return AttributedTree(t.leaves, {s: tuple(c * v for v in a)
                                     for s, a in t.edges.items()})


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n_leaves=st.integers(3, 6),
       k=st.sampled_from((1, 3)), exponent=st.floats(-100.0, 100.0))
def test_geodesic_laws_at_any_scale(seed, n_leaves, k, exponent):
    t1, t2 = (scaled(t, 10.0 ** exponent) for t in random_tree_pair(
        np.random.default_rng(seed), n_leaves, k))
    d = geodesic_distance(t1, t2)
    # one core, whichever entry point and direction: bit for bit
    assert d == geodesic_distance(t2, t1) == geodesic(t1, t2).length
    assert distance_matrix([t1, t2]).values[0, 1] == d
    # the oracle scores realizable paths only, so it can undercut the
    # geodesic by rounding at most
    b = brute_force_distance(t1, t2)
    assert abs(d - b) <= 1e-6 * b
    assert d <= b * (1.0 + 1e-12)


def scaled_conflict_pairs(s):
    """Two 6-leaf pairs whose conflicting splits all have length s."""
    leaves = tuple("abcdef")
    for one, two in ((("ab", "abc"), ("bc", "bcd")),
                     (("ab", "de"), ("bc", "ef"))):
        yield (AttributedTree(leaves, {S(x): (s,) for x in one}),
               AttributedTree(leaves, {S(x): (s,) for x in two}))


@pytest.mark.parametrize("s", [1e-100, 1e150])
def test_extreme_lengths_scale_the_distance(s):
    for (t1, t2), (u1, u2) in zip(scaled_conflict_pairs(s),
                                  scaled_conflict_pairs(1.0)):
        want = s * geodesic_distance(u1, u2)
        assert geodesic_distance(t1, t2) == pytest.approx(want, rel=1e-12)


def test_one_underflowing_split_among_normal_ones_is_fine():
    # its square is 0, a zero cover weight; only a side whose squares all
    # underflow leaves the geodesic undefined in floating point
    leaves = tuple("abcdef")
    t1 = AttributedTree(leaves, {S("ab"): (1e-170,), S("abc"): (1.0,)})
    t2 = AttributedTree(leaves, {S("bc"): (1.0,), S("bcd"): (2.0,)})
    want = brute_force_distance(t1, t2)
    assert geodesic_distance(t1, t2) == geodesic_distance(t2, t1) == want


@pytest.mark.parametrize("s, word", [(1e-170, "underflow"),
                                     (1e160, "overflow"),
                                     (1e200, "overflow")])
def test_unrepresentable_squared_norms_raise(s, word):
    # squares below the smallest subnormal make a side's weights 0/0, and
    # infinite squares make them NaN, which used to loop forever
    for t1, t2 in scaled_conflict_pairs(s):
        for fn in (geodesic_distance, geodesic,
                   lambda a, b: distance_matrix([a, b])):
            with pytest.raises(ValueError, match=word):
                fn(t1, t2)
