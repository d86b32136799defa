import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treespace import (
    AttributedTree,
    MeanConfig,
    airway_template,
    correlation_matrix,
    distance_matrix,
    frechet_mean,
    frechet_mean_detailed,
    gen_tree_population,
    geodesic,
    geodesic_distance,
    pearson,
    permutation_test,
    serialize_tree,
)
import treespace.stats as stats_module
from treespace.stats import _best_input, _orthant_solve

from helpers import leaf_names, random_tree, random_tree_pair

S = frozenset


def spider(inner, inner_len=1.0):
    """Star on a,b,c,d plus one interior split of the given length."""
    edges = {S(x): (1.0,) for x in "abcd"}
    edges[S(inner)] = (inner_len,)
    return AttributedTree(("a", "b", "c", "d"), edges)


ORIGIN_STAR = AttributedTree(("a", "b", "c", "d"),
                             {S(x): (1.0,) for x in "abcd"})


def test_single_tree_is_its_own_mean():
    t = spider("ab", 0.7)
    assert frechet_mean([t]) == t


def test_two_tree_mean_is_midpoint():
    rng = np.random.default_rng(1)
    for _ in range(5):
        t1 = random_tree(rng, ("a", "b", "c", "d"))
        t2 = random_tree(rng, ("a", "b", "c", "d"))
        mid = geodesic(t1, t2).point(0.5)
        mean = frechet_mean([t1, t2])
        assert geodesic_distance(mean, mid) <= 1e-6


def test_same_topology_mean_is_coordinate_mean():
    t1 = spider("ab", 0.4)
    t2 = spider("ab", 1.0)
    t3 = spider("ab", 1.6)
    mean = frechet_mean([t1, t2, t3])
    assert mean.attribute(S("ab")) == pytest.approx((1.0,), abs=1e-12)
    for x in "abcd":
        assert mean.attribute(S(x)) == pytest.approx((1.0,), abs=1e-12)


def test_sticky_mean_three_orthants():
    # three incompatible interior directions at equal weight pull the mean
    # onto the shared star face
    trees = [spider("ab"), spider("ac"), spider("ad")]
    res = frechet_mean_detailed(trees)
    assert geodesic_distance(res.tree, ORIGIN_STAR) <= 1e-3

    # grid-search oracle over candidate means on each orthant axis,
    # including r = 0 (the star itself)
    best_on_axes = min(
        sum(geodesic_distance(spider(inner, r), t) ** 2 for t in trees)
        for inner in ("ab", "ac", "ad")
        for r in np.linspace(0.0, 1.0, 101)
    )
    assert res.objective <= best_on_axes + 1e-9


def test_mean_objective_beats_inputs():
    # holds at any iteration budget: the iteration starts from the best
    # input and only ever keeps improvements
    rng = np.random.default_rng(4)
    trees = [random_tree(rng, ("a", "b", "c", "d", "e")) for _ in range(7)]
    res = frechet_mean_detailed(trees, MeanConfig(max_iterations=300))
    for t in trees:
        obj_at_input = sum(geodesic_distance(t, s) ** 2 for s in trees)
        assert res.objective <= obj_at_input + 1e-9


# sha256 of serialize_tree of the walk's mean of 17 airway trees in several
# topologies, with the walk's stop, recorded while every path point still
# went through the public, validating constructor: building points from
# the geodesic core's positions must keep every byte
_PINNED_MEANS = {
    4: ("6a916c640bc07b45c72d3e0842d63bb0c0ce1dc2c5dd6e170a7dd6cb3ac3c210",
        "cap", 400),
    11: ("93ef7c4a581aabc674a8fdaa25c8d2b6298db12e9212eabbcbe29d3c6f286c2d",
         "converged", 272),
    14: ("d854edffc503d3ee8d0045c9586975b455f4ff132a87cc621fc86bdfe7cba4d7",
         "converged", 272),
}
# the same populations' means with certify on, with their hops and orthant
# evaluations: the solve over the best input's orthant certifies (4, 14),
# or the one after a hop (11), and no walk step is taken.  The digests of
# 4 and 14 are those the solve after two walk cycles gave; 11's mean
# differs from that one in one length, by 9 ulps
_PINNED_CERTIFIED = {
    4: ("be4afb2baf659360fedbe55891ade2fadbfa6096b953298d20140c839eb5332c",
        0, 2),
    11: ("2807a30f1a49eb6962a35e726d53420faa8740aa77241b3c8c8b93c0cbf78f2d",
         1, 4),
    14: ("5a33c27a4c8c43a33c6f87753bcede6465181ec550f6ef5b3bb25601d0900df2",
         0, 2),
}


def _digest(tree):
    return hashlib.sha256(serialize_tree(tree).encode()).hexdigest()


@pytest.mark.parametrize("seed", sorted(_PINNED_MEANS))
def test_mean_bytes_pinned(seed):
    trees = gen_tree_population(airway_template(), 17, topology_noise=0.5,
                                seed=seed).trees
    assert len({t.splits for t in trees}) > 1
    walk = frechet_mean_detailed(trees, MeanConfig(max_iterations=400))
    assert (_digest(walk.tree), walk.stop_reason, walk.iterations) == \
        _PINNED_MEANS[seed]
    res = frechet_mean_detailed(trees, MeanConfig(max_iterations=400,
                                                  certify=True))
    assert res.stop_reason == "certified"
    assert (_digest(res.tree), res.hops, res.evaluations) == \
        _PINNED_CERTIFIED[seed]
    assert res.iterations == 0


def _matrix_start(trees):
    """The start the full distance matrix gives: np.argmin of its row
    sums, each summing d ** 2 in input order."""
    rows = [sum(d ** 2 for d in row)
            for row in distance_matrix(trees, workers=1).values.tolist()]
    best = int(np.argmin(rows))
    return (best, rows[best]), rows


def _long_branches(rng):
    """Two 6-leaf topologies, every length 1e3 give or take 1e-9."""
    shapes = [random_tree(rng, leaf_names(6), p_keep=1.0) for _ in range(2)]
    return [AttributedTree(t.leaves, {
        s: (1e3 + float(rng.uniform(-1e-9, 1e-9)),) for s in t.edges})
        for t in (shapes[i % 2] for i in range(12))]


def _start_populations():
    rng = np.random.default_rng(31)
    cohort = gen_tree_population(airway_template(), 17, topology_noise=0.5,
                                 seed=1).trees
    (best, _), _ = _matrix_start(cohort)
    # the best tree twice more, as new objects, before and after itself:
    # three rows tie
    copies = [AttributedTree(cohort[best].leaves, cohort[best].edges)
              for _ in range(2)]
    return {
        "cohort": cohort,
        "ties": [copies[0], *cohort, copies[1]],
        # rows 0 and 1 tie at 78, and row 1 has the lower bound, so it is
        # computed first
        "ties-against-bounds": [
            AttributedTree(tuple("abcd"), {S(s): (x,) for s, x in e.items()})
            for e in ({"abc": 4.0}, {"abc": 4.0, "ab": 3.0}, {"bcd": 3.0},
                      {"ab": 4.0, "abc": 2.0})],
        "long-branches": _long_branches(rng),
        "k3": gen_tree_population(airway_template(3), 12, topology_noise=0.5,
                                  seed=3).trees,
        "zero-lengths": [random_tree(rng, leaf_names(7), zero_prob=0.3)
                         for _ in range(12)],
        "rand10": [random_tree(rng, leaf_names(10), p_keep=1.0)
                   for _ in range(40)],
    }


_START_POPULATIONS = _start_populations()


@pytest.mark.parametrize("name", sorted(_START_POPULATIONS))
def test_best_input_is_the_full_matrix_argmin_bitwise(name, monkeypatch):
    trees = _START_POPULATIONS[name]
    pairs = []

    def counted(v1, v2, counts):
        pairs.append((id(v1), id(v2)))
        return pair(v1, v2, counts)

    pair = stats_module._pair
    monkeypatch.setattr(stats_module, "_pair", counted)
    start = _best_input(trees)
    monkeypatch.undo()
    want, rows = _matrix_start(trees)
    assert start == want
    assert start[1].hex() == want[1].hex()
    n = len(trees)
    assert n - 1 <= len(set(pairs)) == len(pairs) <= n * (n - 1) // 2
    if name == "cohort":
        assert len(pairs) <= 2 * (n - 1)
    if name.startswith("ties"):
        assert start[0] == 0 and rows.count(start[1]) > 1


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n_leaves=st.integers(2, 9),
       k=st.sampled_from([1, 3]), zero_prob=st.sampled_from([0.0, 0.3]))
def test_attribute_distance_bounds_the_geodesic(seed, n_leaves, k,
                                                zero_prob):
    # the bound the mean's start search rests on: absent splits are zeros
    t1, t2 = random_tree_pair(np.random.default_rng(seed), n_leaves, k,
                              zero_prob)
    zero = (0.0,) * k
    euclid = math.sqrt(sum(
        (a - b) ** 2 for s in t1.splits | t2.splits
        for a, b in zip(t1.edges.get(s, zero), t2.edges.get(s, zero))))
    assert euclid <= geodesic_distance(t1, t2) * (1 + 1e-12)


def test_mean_trace_non_increasing():
    rng = np.random.default_rng(9)
    trees = [random_tree(rng, ("a", "b", "c", "d")) for _ in range(6)]
    res = frechet_mean_detailed(trees)
    for a, b in zip(res.trace, res.trace[1:]):
        assert b <= a + 1e-12


@pytest.mark.parametrize("seed", range(1, 6))
def test_mean_stops_converged_near_full_budget_objective(seed):
    pop = gen_tree_population(airway_template(), 17, topology_noise=0.5,
                              seed=seed)
    assert len({t.splits for t in pop.trees}) > 1
    res = frechet_mean_detailed(pop.trees, MeanConfig(certify=True))
    # the walk alone, to its full budget
    ref = frechet_mean_detailed(pop.trees, MeanConfig(tolerance=1e-15))
    assert res.stop_reason == "certified"
    assert res.iterations < ref.iterations == 1000 * 17
    assert res.objective <= ref.objective * (1 + 1e-12)
    for a, b in zip(res.trace, res.trace[1:]):
        assert b <= a + 1e-12


def test_sticky_seed4_mean_certifies_within_four_cycles():
    trees = gen_tree_population(airway_template(), 17, topology_noise=0.5,
                                seed=4).trees
    res = frechet_mean_detailed(trees, MeanConfig(certify=True))
    assert res.stop_reason == "certified"
    assert res.iterations <= 4 * 17
    assert res.evaluations >= 1
    ref = frechet_mean_detailed(trees, MeanConfig(tolerance=1e-15))
    assert ref.iterations == 1000 * 17
    assert res.objective <= ref.objective


def test_certificate_accepts_the_three_spider_star():
    trees = [spider("ab"), spider("ac"), spider("ad")]
    # the solve clamps the start's interior split to 0; each candidate
    # interior split gains 2 from its own tree and pays 2 + 2 to the others
    tree, obj, certified, _ = _orthant_solve(spider("ab"), trees)
    assert certified
    assert tree == ORIGIN_STAR
    assert obj == 3.0
    res = frechet_mean_detailed(trees, MeanConfig(certify=True))
    assert (res.tree, res.stop_reason) == (ORIGIN_STAR, "certified")


def test_certificate_declines_a_descending_candidate():
    # a long ab pulls the mean off the star: D(ab) = -2*3 + 2 + 2 < 0.
    # Along ab, F(r) = (r - 3)^2 + 2 (r + 1)^2 is least at r = 1/3
    trees = [spider("ab", 3.0), spider("ac"), spider("ad")]
    tree, obj, certified, _ = _orthant_solve(ORIGIN_STAR, trees)
    assert (tree, obj, certified) == (ORIGIN_STAR, 11.0, False)
    res = frechet_mean_detailed(trees, MeanConfig(certify=True))
    assert res.stop_reason == "certified"
    assert res.tree.attribute(S("ab")) == pytest.approx((1 / 3,), abs=1e-12)
    assert res.objective == pytest.approx(96 / 9, rel=1e-14)


def test_certificate_declines_two_compatible_candidates():
    # at the star, growing ab or cd alone gains 2a from t_pair and pays 2a
    # to t_cross, whose bc clashes with both: D(ab) = D(cd) = 0.  Growing
    # both at once pays for bc only once, so F falls along (ab + cd)
    a = 0.5
    pendants = {S(x): (1.0,) for x in "abcd"}
    t_pair = AttributedTree(tuple("abcd"),
                            {**pendants, S("ab"): (a,), S("cd"): (a,)})
    t_cross = AttributedTree(tuple("abcd"), {**pendants, S("bc"): (a,)})
    trees = [t_pair, t_cross]
    tree, obj, certified, _ = _orthant_solve(ORIGIN_STAR, trees)
    assert tree == ORIGIN_STAR
    assert not certified

    def objective(t):
        return sum(geodesic_distance(t, u) ** 2 for u in trees)

    h = 1e-3
    for grown in ({S("ab"): (h,)}, {S("cd"): (h,)}):
        single = AttributedTree(tuple("abcd"), {**pendants, **grown})
        assert objective(single) >= obj
    both = AttributedTree(tuple("abcd"),
                          {**pendants, S("ab"): (h,), S("cd"): (h,)})
    assert objective(both) < obj


def _walk_first(trees, cfg):
    """(objective, stop) of the search as it ran before orthants came
    first: walk from the best input with an orthant solve after cycles 2,
    4, 8, ..., keeping the best point seen."""
    n = len(trees)
    start, best = _best_input(trees)
    cycles, solve_at = [best], 2
    for step, current, obj in stats_module._walk(
            trees, trees[start], cfg.max_iterations or 1000 * n, cfg.seed):
        best = min(best, obj)
        if step % n:
            break
        k = step // n
        cycles.append(obj)
        if k == solve_at:
            solve_at *= 2
            _, x_obj, certified, _ = _orthant_solve(current, trees)
            best = min(best, x_obj)
            if certified:
                return best, "certified"
        if k >= 4 and abs(cycles[k // 2] - obj) <= cfg.tolerance * obj:
            return best, "converged"
    return best, "cap"


def _hopping_populations():
    """The cohort on seeds 1-5, and group means of a noisier population:
    its two classes and four random halvings."""
    for seed in range(1, 6):
        yield gen_tree_population(airway_template(), 17, topology_noise=0.5,
                                  class_shift={"LMB": 0.3}, seed=seed).trees
    pop = gen_tree_population(airway_template(), 40, attr_sigma=0.2,
                              topology_noise=1.0, seed=3)
    for cls in ("control", "case"):
        yield [t for t, c in zip(pop.trees, pop.classes) if c == cls]
    for rep in range(4):
        half = np.random.default_rng([3, rep]).permutation(40)[:20]
        yield [pop.trees[i] for i in half]


def test_orthant_search_certifies_the_walk_routes_mean():
    hops = []
    for trees in _hopping_populations():
        assert len({t.splits for t in trees}) > 1
        cfg = MeanConfig(certify=True)
        res = frechet_mean_detailed(trees, cfg)
        assert (res.stop_reason, res.iterations) == ("certified", 0)
        # one trace entry for the best input and one per solve
        assert len(res.trace) == res.hops + 2
        assert res.evaluations >= res.hops + 1
        walk, stop = _walk_first(trees, cfg)
        assert stop == "certified"
        assert abs(res.objective - walk) <= 1e-14 * walk
        hops.append(res.hops)
    # first solves that certify, and solves that certify after a hop
    assert 0 in hops and max(hops) >= 1


def test_sticky_means_fall_back_to_the_walk_and_lose_nothing():
    # random resolved trees have a star-like mean whose candidates are
    # compatible: no solve certifies, no candidate descends to hop to
    cfg = MeanConfig(max_iterations=500, certify=True)
    for seed in range(10):
        rng = np.random.default_rng(seed)
        trees = [random_tree(rng, leaf_names(6), p_keep=1.0)
                 for _ in range(10)]
        res = frechet_mean_detailed(trees, cfg)
        walk, stop = _walk_first(trees, cfg)
        assert res.stop_reason == stop != "certified"
        assert res.iterations > 0
        assert res.hops <= len(trees)
        assert res.objective <= walk
        assert all(b <= a for a, b in zip(res.trace, res.trace[1:]))


def test_exhausted_hops_hand_over_to_the_walk():
    # trees that miss pendants: each hop adds one missing pendant or the
    # root split while others still descend, so the 3 hops run out, and
    # the walk's solve after cycle 2 certifies
    rng = np.random.default_rng(0)
    trees = [random_tree(rng, leaf_names(7), p_keep=0.9) for _ in range(3)]
    cfg = MeanConfig(certify=True)
    res = frechet_mean_detailed(trees, cfg)
    assert (res.stop_reason, res.hops, res.iterations) == ("certified", 3, 6)
    # the best input, four solves and two cycles
    assert len(res.trace) == 7
    assert all(b <= a for a, b in zip(res.trace, res.trace[1:]))
    walk, stop = _walk_first(trees, cfg)
    assert stop == "certified"
    assert abs(res.objective - walk) <= 1e-14 * walk


def test_permutation_test_with_hops_does_not_depend_on_workers():
    pop = gen_tree_population(airway_template(), 12, topology_noise=0.5,
                              class_shift={"LMB": 0.3}, seed=2)
    groups = [[t for t, c in zip(pop.trees, pop.classes) if c == cls]
              for cls in ("control", "case")]
    reports = [permutation_test(*groups, m=8, seed=1, workers=w)
               for w in (1, 2)]
    assert reports[0] == reports[1]
    assert reports[0].mean_stop_reasons == {"certified": 2 * 9}
    assert reports[0].mean_iterations == 0 < reports[0].mean_hops


def test_orthant_solves_that_overshoot_back_off_and_certify():
    # the solves on this population try steps that raise F (the
    # Barzilai-Borwein step is not monotone) and halve them, Armijo's
    # backtracking, yet still end on a certified mean below the walk's
    rng = np.random.default_rng(2)
    trees = [random_tree(rng, leaf_names(5), p_keep=0.9) for _ in range(4)]
    res = frechet_mean_detailed(trees, MeanConfig(certify=True))
    assert res.stop_reason == "certified"
    assert res.objective < frechet_mean_detailed(trees).objective
    assert all(b <= a for a, b in zip(res.trace, res.trace[1:]))


@settings(derandomize=True, database=None, max_examples=5, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n_leaves=st.integers(3, 6),
       n_trees=st.integers(3, 8))
def test_mean_never_loses_to_inputs_or_a_long_walk(seed, n_leaves, n_trees):
    rng = np.random.default_rng(seed)
    leaves = tuple(f"L{i}" for i in range(n_leaves))
    trees = [random_tree(rng, leaves) for _ in range(n_trees)]
    res = frechet_mean_detailed(trees, MeanConfig(certify=True))
    best_input = min(sum(geodesic_distance(t, u) ** 2 for u in trees)
                     for t in trees)
    assert res.objective <= best_input
    walk = frechet_mean_detailed(
        trees, MeanConfig(max_iterations=2000 * n_trees, tolerance=1e-15))
    assert res.objective <= walk.objective * (1 + 1e-9)
    for a, b in zip(res.trace, res.trace[1:]):
        assert b <= a


def test_mean_stops_at_cap():
    rng = np.random.default_rng(9)
    trees = [random_tree(rng, ("a", "b", "c", "d")) for _ in range(6)]
    res = frechet_mean_detailed(trees, MeanConfig(max_iterations=3))
    assert res.stop_reason == "cap"
    assert res.iterations == 3
    assert len(res.trace) == 2
    assert frechet_mean_detailed(trees[:1]).stop_reason == "converged"


def test_variance():
    # a group's variance is its mean objective over N - 1, as
    # permutation_test's variance statistic computes it
    t = spider("ab")
    assert frechet_mean_detailed([t, t, t]).objective / 2 == 0.0

    t1 = spider("ab", 0.0)
    t2 = spider("ab", 2.0)
    res = frechet_mean_detailed([t1, t2])   # N - 1 = 1
    assert geodesic_distance(res.tree, geodesic(t1, t2).point(0.5)) <= 1e-12
    assert res.objective == pytest.approx(2.0, abs=1e-12)

    with pytest.raises(ValueError, match="at least two trees"):
        permutation_test([t], [t, t], kind="variance", m=1, workers=1)


def test_variance_matches_recomputation():
    rng = np.random.default_rng(12)
    trees = jittered(rng, 1.0, 30)
    res = frechet_mean_detailed(trees)
    v = res.objective / 29
    direct = sum(geodesic_distance(t, res.tree) ** 2 for t in trees) / 29
    assert abs(v - direct) <= 1e-12


def test_mean_objective_is_the_variance_sum_bitwise():
    # permutation_test's variance statistic divides the mean search's
    # objective instead of summing the distances again: the two must agree
    # to the bit however the search stopped, a mid-cycle cap included
    trees = gen_tree_population(airway_template(), 17, topology_noise=0.5,
                                seed=1).trees
    reasons = set()
    for size in (2, 5, 9):
        group = trees[:size]
        for cfg in (MeanConfig(certify=True), MeanConfig(tolerance=1e-2),
                    MeanConfig(max_iterations=3 * size + 1)):
            res = frechet_mean_detailed(group, cfg)
            reasons.add(res.stop_reason)
            assert res.objective == sum(
                geodesic_distance(t, res.tree) ** 2 for t in group)
    assert reasons == {"certified", "converged", "cap"}


def jittered(rng, base_len, n):
    out = []
    for _ in range(n):
        edges = {S(x): (float(rng.uniform(0.5, 1.5)),) for x in "abcd"}
        edges[S("ab")] = (float(abs(rng.normal(base_len, 0.2))),)
        out.append(AttributedTree(("a", "b", "c", "d"), edges))
    return out


def test_permutation_identical_groups():
    rng = np.random.default_rng(21)
    g = jittered(rng, 1.0, 5)
    rep = permutation_test(g, g, kind="mean", m=99, seed=0)
    assert rep.observed == 0.0
    assert rep.p_value == 1.0


def test_permutation_strong_separation():
    rng = np.random.default_rng(22)
    g1 = jittered(rng, 0.2, 8)
    g2 = jittered(rng, 3.0, 8)
    rep = permutation_test(g1, g2, kind="mean", m=99, seed=0)
    # observed beats every permuted value, so p hits the formula floor
    assert all(p < rep.observed for p in rep.permuted)
    assert rep.p_value == pytest.approx(1.0 / 100.0)


def test_permutation_reproducible():
    rng = np.random.default_rng(23)
    g1 = jittered(rng, 0.6, 6)
    g2 = jittered(rng, 1.2, 6)
    r1 = permutation_test(g1, g2, kind="mean", m=50, seed=7)
    r2 = permutation_test(g1, g2, kind="mean", m=50, seed=7)
    assert r1.observed == r2.observed
    assert r1.permuted == r2.permuted
    assert r1.p_value == r2.p_value
    r3 = permutation_test(g1, g2, kind="mean", m=50, seed=8)
    assert r1.permuted != r3.permuted


def test_permutation_variance_kind():
    # same topology, very different spreads
    rng = np.random.default_rng(24)
    tight = jittered(rng, 1.0, 6)
    spread = [AttributedTree(("a", "b", "c", "d"),
                             {**{S(x): (float(rng.uniform(0.1, 4.0)),)
                                 for x in "abcd"},
                              S("ab"): (float(rng.uniform(0.1, 4.0)),)})
              for _ in range(6)]
    rep = permutation_test(tight, spread, kind="variance", m=50, seed=1)
    assert rep.statistic_kind == "variance"
    assert rep.observed >= 0.0
    assert 0.0 < rep.p_value <= 1.0


def test_permutation_report_json():
    rng = np.random.default_rng(25)
    g1 = jittered(rng, 0.5, 5)
    g2 = jittered(rng, 1.5, 5)
    rep = permutation_test(g1, g2, kind="mean", m=20, seed=3)
    doc = rep.to_json()
    assert doc["kind"] == "mean"
    assert doc["M"] == 20
    assert "permuted" not in doc
    assert set(doc["permuted_summary"]) == {"q0", "q25", "q50", "q75", "q100"}
    assert rep.to_json(include_permuted=True)["permuted"] == list(rep.permuted)


def test_permutation_errors():
    rng = np.random.default_rng(26)
    g = jittered(rng, 1.0, 4)
    with pytest.raises(ValueError):
        permutation_test(g, g, m=0)
    with pytest.raises(ValueError):
        permutation_test(g[:1], g)
    with pytest.raises(ValueError):
        permutation_test(g, g, kind="median")


def test_pearson_examples():
    x = [1.0, 2.0, 3.0, 4.0]
    assert pearson(x, [2 * v + 1 for v in x]) == pytest.approx(1.0, abs=1e-12)
    assert pearson(x, [-v for v in x]) == pytest.approx(-1.0, abs=1e-12)
    assert pearson(x, [2.0, 1.0, 4.0, 3.0]) == pytest.approx(0.6, abs=1e-12)


def test_pearson_affine_invariance():
    rng = np.random.default_rng(31)
    x = rng.normal(size=40)
    y = rng.normal(size=40)
    r = pearson(x, y)
    assert abs(pearson(3.0 * x + 2.0, y) - r) <= 1e-12
    assert abs(pearson(x, 0.25 * y - 7.0) - r) <= 1e-12


def test_pearson_hand_oracle():
    rng = np.random.default_rng(32)
    x = list(rng.normal(size=25))
    y = list(rng.normal(size=25))
    n = len(x)
    mx = sum(x) / n
    my = sum(y) / n
    sx = math.sqrt(sum((v - mx) ** 2 for v in x) / (n - 1))
    sy = math.sqrt(sum((v - my) ** 2 for v in y) / (n - 1))
    r_hand = sum((a - mx) * (b - my) for a, b in zip(x, y)) / ((n - 1) * sx * sy)
    assert abs(pearson(x, y) - r_hand) <= 1e-12


def test_pearson_errors():
    with pytest.raises(ValueError):
        pearson([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])
    with pytest.raises(ValueError):
        pearson([1.0], [2.0])
    with pytest.raises(ValueError):
        pearson([1.0, 2.0], [1.0, 2.0, 3.0])


def _deviations(populations, means):
    """Subjects by rows, one column of distances to a mean per population."""
    return np.column_stack([[geodesic_distance(t, mu) for t in pop]
                            for pop, mu in zip(populations, means)])


def test_subtree_correlation_copied_population():
    rng = np.random.default_rng(41)
    pop = [random_tree(rng, ("a", "b", "c")) for _ in range(12)]
    mean = frechet_mean(pop)
    matrix = correlation_matrix(_deviations([pop, list(pop)], [mean, mean]))
    assert matrix.shape == (2, 2)
    assert matrix[0, 0] == 1.0
    assert matrix[1, 1] == 1.0
    # identical deviation vectors correlate perfectly
    assert matrix[0, 1] == pytest.approx(1.0, abs=1e-12)
    assert np.array_equal(matrix, matrix.T)


def test_subtree_correlation_deviations_definition():
    rng = np.random.default_rng(42)
    pa = [random_tree(rng, ("a", "b")) for _ in range(8)]
    pb = [random_tree(rng, ("a", "b")) for _ in range(8)]
    ma = frechet_mean(pa)
    mb = frechet_mean(pb)
    deviations = _deviations([pa, pb], [ma, mb])
    matrix = correlation_matrix(deviations)
    for i, t in enumerate(pa):
        assert deviations[i, 0] == pytest.approx(
            geodesic_distance(t, ma), abs=1e-12)
    r_direct = pearson(deviations[:, 0], deviations[:, 1])
    assert matrix[0, 1] == pytest.approx(r_direct, abs=1e-12)


def test_subtree_correlation_independent_null():
    # independent populations decorrelate as n grows; a shared topology
    # keeps the mean computation on the closed-form path
    rng = np.random.default_rng(43)

    def stars(n):
        return [AttributedTree(("a", "b", "c"),
                               {S(x): (float(rng.uniform(0.5, 2.0)),)
                                for x in "abc"}) for _ in range(n)]

    pa, pb = stars(200), stars(200)
    matrix = correlation_matrix(
        _deviations([pa, pb], [frechet_mean(pa), frechet_mean(pb)]))
    assert abs(matrix[0, 1]) <= 0.2
