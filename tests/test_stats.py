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
    frechet_mean,
    frechet_mean_detailed,
    gen_tree_population,
    geodesic_distance,
    geodesic_point,
    pearson,
    permutation_test,
    serialize_tree,
    variance,
)
from treespace.stats import _orthant_solve

from helpers import random_tree

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
        mid = geodesic_point(t1, t2, 0.5)
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
# the same populations' means with certify on: the orthant solve after
# cycle 2 certifies
_PINNED_CERTIFIED = {
    4: "be4afb2baf659360fedbe55891ade2fadbfa6096b953298d20140c839eb5332c",
    11: "a19f913bd4dd267869ae6988c9f11d8b7e5bf83d813c428b0410c7ce53b3dec0",
    14: "5a33c27a4c8c43a33c6f87753bcede6465181ec550f6ef5b3bb25601d0900df2",
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
    assert (_digest(res.tree), res.stop_reason, res.iterations) == \
        (_PINNED_CERTIFIED[seed], "certified", 2 * 17)


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
    t = spider("ab")
    assert variance([t, t, t], t) == 0.0

    t1 = spider("ab", 0.0)
    t2 = spider("ab", 2.0)
    mid = geodesic_point(t1, t2, 0.5)
    assert variance([t1, t2], mid) == pytest.approx(2.0, abs=1e-12)

    with pytest.raises(ValueError):
        variance([t], t)


def test_variance_matches_recomputation():
    rng = np.random.default_rng(12)
    trees = jittered(rng, 1.0, 30)
    mean = frechet_mean(trees)
    v = variance(trees, mean)
    direct = sum(geodesic_distance(t, mean) ** 2 for t in trees) / 29
    assert abs(v - direct) <= 1e-12


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
