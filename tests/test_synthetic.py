import json
import math

import numpy as np
import pytest

from treespace import (
    CONE_ANGLE,
    AttributedTree,
    BookPoint,
    ConePoint,
    MetricDataset,
    airway_template,
    book_distance,
    cone_distance,
    gen_corner,
    gen_sheets,
    gen_tree_population,
)

S = frozenset


# ---------------------------------------------------------------------------
# cone
# ---------------------------------------------------------------------------

def test_cone_angle_is_five_quadrants():
    assert CONE_ANGLE == pytest.approx(2.5 * math.pi)


def test_cone_same_ray():
    p = ConePoint(2.0, 1.0)
    q = ConePoint(0.5, 1.0)
    assert cone_distance(p, q) == pytest.approx(1.5, abs=1e-15)


def test_cone_right_angle():
    p = ConePoint(1.0, 0.0)
    q = ConePoint(1.0, math.pi / 2)
    assert cone_distance(p, q) == pytest.approx(math.sqrt(2.0), abs=1e-15)


def test_cone_apex_path():
    p = ConePoint(1.0, 0.0)
    q = ConePoint(2.0, 1.5 * math.pi)
    assert cone_distance(p, q) == pytest.approx(3.0, abs=1e-15)
    assert cone_distance(p, ConePoint(0.0, 2.0)) == pytest.approx(1.0)


def test_cone_continuous_at_pi():
    eps = 1e-7
    p = ConePoint(1.3, 0.0)
    lo = cone_distance(p, ConePoint(0.7, math.pi - eps))
    hi = cone_distance(p, ConePoint(0.7, math.pi + eps))
    assert abs(lo - hi) < 1e-12
    assert hi == pytest.approx(2.0, abs=1e-15)


def test_cone_wraparound_gap():
    # the circular gap, not the raw difference: 0 vs 2.4pi is only 0.1pi
    p = ConePoint(1.0, 0.0)
    q = ConePoint(1.0, 2.4 * math.pi)
    expect = math.sqrt(2.0 - 2.0 * math.cos(0.1 * math.pi))
    assert cone_distance(p, q) == pytest.approx(expect, abs=1e-15)


def test_cone_point_validation():
    with pytest.raises(ValueError):
        ConePoint(-0.1, 0.0)
    with pytest.raises(ValueError):
        ConePoint(1.0, CONE_ANGLE)
    with pytest.raises(ValueError):
        ConePoint(1.0, -0.01)


# ---------------------------------------------------------------------------
# open books
# ---------------------------------------------------------------------------

def test_book_same_sheet_euclidean():
    p = BookPoint(1, (0.0, 0.0), 3.0)
    q = BookPoint(1, (4.0, 0.0), 0.0)
    assert book_distance(p, q) == pytest.approx(5.0, abs=1e-15)


def test_book_spine_shared_between_sheets():
    p = BookPoint(0, (1.0,), 0.0)
    q = BookPoint(2, (4.0,), 0.0)
    assert book_distance(p, q) == pytest.approx(3.0, abs=1e-15)


def test_book_cross_sheet_heights_add():
    p = BookPoint(0, (2.0, -1.0), 1.0)
    q = BookPoint(1, (2.0, -1.0), 2.0)
    assert book_distance(p, q) == pytest.approx(3.0, abs=1e-15)


def test_book_dimension_mismatch():
    with pytest.raises(ValueError):
        book_distance(BookPoint(0, (1.0,), 0.0), BookPoint(0, (1.0, 2.0), 0.0))


def test_book_point_validation():
    with pytest.raises(ValueError):
        BookPoint(-1, (0.0,), 1.0)
    with pytest.raises(ValueError):
        BookPoint(0, (0.0,), -1.0)


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------

def test_gen_corner_shapes_and_labels():
    ds = gen_corner(40, seed=3)
    assert ds.space == "cone"
    assert len(ds.points) == 40
    assert len(ds.matrix) == 40
    for p, lab in zip(ds.points, ds.labels):
        assert p.radius >= 0.0
        assert 0.0 <= p.angle < CONE_ANGLE
        assert lab == int(p.angle // (math.pi / 2))


def test_gen_sheets_shapes_and_labels():
    ds = gen_sheets(3, 2, per_sheet=10, seed=1)
    assert ds.space == "book"
    assert len(ds.points) == 30
    assert ds.labels == tuple([0] * 10 + [1] * 10 + [2] * 10)
    big = gen_sheets(5, 3, seed=1)
    assert len(big.points) == 250
    assert all(len(p.spine) == 2 for p in big.points)


def test_gen_sheets_same_sheet_submatrix_euclidean():
    ds = gen_sheets(2, 3, per_sheet=6, seed=7)
    vals = ds.matrix.values
    for i in range(6):
        for j in range(6):
            p, q = ds.points[i], ds.points[j]
            direct = math.sqrt(sum((a - b) ** 2
                                   for a, b in zip(p.spine, q.spine))
                               + (p.height - q.height) ** 2)
            assert vals[i, j] == pytest.approx(direct, abs=1e-15)


def test_generators_reproducible():
    a = gen_corner(25, seed=11)
    b = gen_corner(25, seed=11)
    c = gen_corner(25, seed=12)
    assert np.array_equal(a.matrix.values, b.matrix.values)
    assert not np.array_equal(a.matrix.values, c.matrix.values)


def test_generator_validation():
    with pytest.raises(ValueError):
        gen_corner(0)
    with pytest.raises(ValueError):
        gen_sheets(1, 2)
    with pytest.raises(ValueError):
        gen_sheets(3, 1)
    with pytest.raises(ValueError):
        gen_sheets(3, 2, per_sheet=0)


def test_triangle_inequality_samples():
    rng = np.random.default_rng(13)
    for ds in (gen_corner(60, seed=5), gen_sheets(3, 2, per_sheet=20,
                                                   seed=5)):
        v = ds.matrix.values
        n = len(v)
        for _ in range(1000):
            i, j, k = rng.integers(0, n, size=3)
            assert v[i, j] <= v[i, k] + v[k, j] + 1e-9


def test_metric_dataset_json_roundtrip():
    for ds in (gen_corner(15, seed=2), gen_sheets(2, 3, per_sheet=5,
                                                   seed=2)):
        blob = json.dumps(ds.to_json())
        back = MetricDataset.from_json(json.loads(blob))
        assert back.space == ds.space
        assert back.labels == ds.labels
        assert np.array_equal(back.matrix.values, ds.matrix.values)
    with pytest.raises(ValueError):
        MetricDataset.from_json({"space": "plane", "points": [],
                                 "labels": []})


# ---------------------------------------------------------------------------
# tree populations
# ---------------------------------------------------------------------------

def test_population_noise_free_copies():
    tpl = airway_template()
    pop = gen_tree_population(tpl, 5, topology_noise=0.0, attr_sigma=0.0)
    assert pop.classes == ["control"] * 3 + ["case"] * 2
    for t in pop.trees:
        assert t.leaves == tpl.leaves
        assert t.edges == tpl.edges
        assert t.branch_labels == tpl.branch_labels


def test_population_class_shift():
    tpl = airway_template()
    pop = gen_tree_population(tpl, 4, attr_sigma=0.0,
                              class_shift={"LMB": 0.7})
    target = tpl.branch_labels["LMB"]
    for t, cls in zip(pop.trees, pop.classes):
        expect = 1.7 if cls == "case" else 1.0
        assert t.edges[target][0] == pytest.approx(expect, abs=1e-15)


def test_population_per_tree_streams():
    tpl = airway_template()
    big = gen_tree_population(tpl, 8, attr_sigma=0.2, seed=21)
    small = gen_tree_population(tpl, 4, attr_sigma=0.2, seed=21)
    for a, b in zip(small.trees, big.trees):
        assert a.edges == b.edges


def test_population_regrafts_stay_valid():
    tpl = airway_template()
    pop = gen_tree_population(tpl, 12, topology_noise=1.0, attr_sigma=0.05,
                              seed=33)
    changed = 0
    for t in pop.trees:
        assert t.leaves == tpl.leaves
        for name, s in tpl.branch_labels.items():
            assert t.branch_labels[name] == s
            assert s in t.edges
        if set(t.edges) != set(tpl.edges):
            changed += 1
    assert changed > 0


def test_population_regrafts_on_a_template_without_pendants():
    # e lies in no split of two or more leaves, and inside {a, b}, the
    # parent of a and of b, no split avoids them: only c and d have a
    # move, each grafted onto {a, b}, which gives up half its length
    tpl = AttributedTree(tuple("abcde"), {S("ab"): (1.0,), S("abcd"): (2.0,)})
    pop = gen_tree_population(tpl, 8, topology_noise=1.0, attr_sigma=0.0,
                              seed=3)
    grafted = set()
    for t in pop.trees:
        (new,) = set(t.edges) - set(tpl.edges)
        assert set(t.edges) == set(tpl.edges) | {new}
        assert t.edges[S("ab")] == t.edges[new] == (0.5,)
        assert t.edges[S("abcd")] == (2.0,)
        grafted.add(new)
    assert grafted == {S("abc"), S("abd")}


def test_population_lengths_clamped():
    tpl = airway_template()
    pop = gen_tree_population(tpl, 20, attr_sigma=3.0, seed=41)
    smallest = min(v for t in pop.trees for attr in t.edges.values()
                   for v in attr)
    assert smallest >= 0.0
    assert smallest == 0.0  # sigma 3 drives some lengths into the clamp


def test_population_vector_attributes():
    tpl = airway_template(k=3)
    assert tpl.k == 3
    pop = gen_tree_population(tpl, 4, attr_sigma=0.1,
                              class_shift={"RUL": (0.0, 1.0, 0.0)}, seed=5)
    for t in pop.trees:
        assert t.k == 3
    case = pop.trees[-1]
    ctrl = pop.trees[0]
    s = tpl.branch_labels["RUL"]
    assert case.edges[s][1] > ctrl.edges[s][1]


@pytest.mark.parametrize("k", [0, -2])
def test_airway_template_needs_a_positive_dimension(k):
    with pytest.raises(ValueError, match="k: expected a positive integer"):
        airway_template(k)


def test_population_validation():
    tpl = airway_template()
    with pytest.raises(ValueError):
        gen_tree_population(tpl, 0)
    with pytest.raises(ValueError):
        gen_tree_population(tpl, 4, topology_noise=1.5)
    with pytest.raises(ValueError):
        gen_tree_population(tpl, 4, attr_sigma=-0.1)
    with pytest.raises(ValueError):
        gen_tree_population(tpl, 4, class_shift={"Aorta": 1.0})
    with pytest.raises(ValueError):
        gen_tree_population(tpl, 4, class_shift={"LMB": (1.0, 2.0)})
