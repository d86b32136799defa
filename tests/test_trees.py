import json
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from treespace import (
    AttributedTree,
    TreeError,
    all_compatible,
    compatible,
    parse_population,
    parse_tree,
    serialize_population,
    serialize_tree,
    splits_of,
    tree_from_dict,
    tree_to_dict,
)

from helpers import random_tree


S = frozenset


def test_compatible_basic():
    assert compatible(S("ab"), S("abc"))
    assert compatible(S("ab"), S("cd"))
    assert not compatible(S("ab"), S("bc"))
    # containment is symmetric in the test
    assert compatible(S("abc"), S("ab"))
    assert all_compatible([S("a"), S("b"), S("ab"), S("abcd")])
    assert not all_compatible([S("a"), S("ab"), S("bc")])


def test_minimal_tree():
    t = parse_tree('{"leaves": ["a"], "edges": [{"split": ["a"], "attr": [1.0]}]}')
    assert t.m == 1
    assert t.k == 1
    assert splits_of(t) == frozenset({S("a")})


def test_incompatible_splits_rejected():
    with pytest.raises(TreeError):
        AttributedTree(
            ("a", "b", "c", "d"),
            {S("ab"): (1.0,), S("bc"): (1.0,)},
        )


def _incompatible_error(leaves, splits, k=1):
    """The TreeError text of a tree on ``splits``, or None if it is one."""
    try:
        AttributedTree(tuple(leaves),
                       {S(sp): (1.0,) * k for sp in splits})
    except TreeError as e:
        return str(e)
    return None


def test_incompatible_splits_name_the_first_clash_in_key_order():
    # texts recorded from the frozenset check that the bitmask check
    # replaced: the first clashing pair in split_key order is named
    assert _incompatible_error("abc", ["bc", "ab"]) == \
        "incompatible splits ['a', 'b'] and ['b', 'c']"
    assert _incompatible_error("abcdefgh",
                               ["cde", "abc", "def", "ef", "ab"]) == \
        "incompatible splits ['a', 'b', 'c'] and ['c', 'd', 'e']"
    # lexicographic keys, not leaf-index bit order, decide which is first
    assert _incompatible_error(
        ["10", "9", "B", "a", "x"],
        [["9", "B"], ["10", "9"], ["a", "x", "10"], ["B", "a"]], k=3) == \
        "incompatible splits ['10', '9'] and ['10', 'a', 'x']"
    rng = random.Random(7)
    got = []
    for _ in range(12):
        leaves = [f"L{i}" for i in range(rng.randint(4, 12))]
        splits = {S(rng.sample(leaves, rng.randint(1, len(leaves))))
                  for _ in range(rng.randint(2, 9))}
        got.append(_incompatible_error(leaves, sorted(splits, key=sorted)))
    L = [f"L{i}" for i in range(12)]

    def pair(a, b):
        return (f"incompatible splits {[L[i] for i in a]} and "
                f"{[L[i] for i in b]}")

    assert got == [
        None,
        pair([0, 1, 10, 11, 2, 3, 4, 6, 7, 8, 9],
             [0, 1, 10, 11, 2, 4, 5, 6, 7, 8, 9]),
        pair([0, 10, 11, 2, 5, 6, 7], [0, 11, 5, 7, 8, 9]),
        pair([0, 1], [1, 4]),
        None,
        pair([0, 3], [1, 2, 3]),
        pair([0, 1, 10, 2, 3, 4, 8, 9], [0, 1, 10, 2, 4, 5, 7, 9]),
        pair([0, 1, 10, 11, 2, 3, 4, 5, 6, 7, 8],
             [1, 10, 11, 5, 6, 7, 8, 9]),
        pair([0, 1], [0, 5]),
        pair([0, 1, 3, 4], [1, 2]),
        pair([0, 1, 10, 2, 3, 5, 6, 7, 8], [0, 1, 10, 2, 3, 6, 8, 9]),
        pair([0, 1, 2, 3, 4, 9], [1, 2, 3, 4, 5, 7, 9]),
    ]


def test_four_leaf_binary_counts():
    edges = {S(x): (1.0,) for x in "abcd"}
    edges[S("ab")] = (0.5,)
    edges[S("cd")] = (0.25,)
    t = AttributedTree(("a", "b", "c", "d"), edges)
    assert t.m == 6
    assert splits_of(t) == frozenset(
        {S("a"), S("b"), S("c"), S("d"), S("ab"), S("cd")}
    )


def test_star_tree_splits():
    t = AttributedTree(("a", "b", "c", "d"), {S(x): (1.0,) for x in "abcd"})
    assert splits_of(t) == frozenset({S("a"), S("b"), S("c"), S("d")})


def test_validation_errors():
    with pytest.raises(TreeError):
        AttributedTree((), {})
    with pytest.raises(TreeError):
        AttributedTree(("a", "a"), {S("a"): (1.0,)})
    with pytest.raises(TreeError):
        AttributedTree(("a",), {S("b"): (1.0,)})
    with pytest.raises(TreeError):
        AttributedTree(("a",), {S("a"): ()})
    with pytest.raises(TreeError):
        AttributedTree(("a",), {S("a"): (-1.0,)})       # k=1 must be >= 0
    with pytest.raises(TreeError):
        AttributedTree(("a",), {S("a"): (float("nan"),)})
    with pytest.raises(TreeError):
        AttributedTree(("a", "b"), {S("a"): (1.0,), S("b"): (1.0, 2.0)})
    with pytest.raises(TreeError):
        AttributedTree(("a", "b"), {S("a"): (1.0,)}, {"x": S("b")})


def test_negative_coordinates_allowed_for_vectors():
    # only the scalar case is sign-restricted
    t = AttributedTree(("a", "b"), {S("a"): (-1.0, 2.0), S("b"): (0.0, 0.0)})
    assert t.k == 2


def test_roundtrip_law():
    rng = np.random.default_rng(42)
    for _ in range(25):
        t = random_tree(rng, ("a", "b", "c", "d", "e"), k=int(rng.integers(1, 4)))
        back = parse_tree(serialize_tree(t))
        assert back == t


def test_serialize_canonical_under_edge_order():
    edges = {S("ab"): (0.5,), S("a"): (1.0,), S("b"): (2.0,)}
    t1 = AttributedTree(("a", "b"), edges)
    t2 = AttributedTree(("b", "a"), dict(reversed(list(edges.items()))))
    assert serialize_tree(t1) == serialize_tree(t2)
    # serialize . parse is the identity on canonical text
    text = serialize_tree(t1)
    assert serialize_tree(parse_tree(text)) == text


def test_high_dimensional_attributes_preserved():
    attr = tuple(float(x) for x in np.random.default_rng(7).normal(size=15))
    t = AttributedTree(("a", "b"), {S("a"): attr, S("b"): (0.0,) * 15})
    assert parse_tree(serialize_tree(t)).attribute(S("a")) == attr


def test_labels_roundtrip():
    t = AttributedTree(
        ("a", "b", "c"),
        {S("a"): (1.0,), S("b"): (1.0,), S("c"): (1.0,), S("ab"): (0.5,)},
        {"stem": S("ab"), "tip": S("a")},
    )
    back = parse_tree(serialize_tree(t))
    assert back.branch_labels == {"stem": S("ab"), "tip": S("a")}


def test_parse_errors():
    with pytest.raises(TreeError):
        parse_tree("not json")
    with pytest.raises(TreeError):
        parse_tree("[1, 2]")
    with pytest.raises(TreeError):
        tree_from_dict({"leaves": ["a"]})


@pytest.mark.parametrize("doc", [
    {"leaves": ["a"], "edges": [], "labels": 5},
    {"leaves": ["a"], "edges": [], "labels": {"x": 5}},
    {"leaves": ["a"], "edges": [], "labels": None},
    {"leaves": ["a"], "edges": [{"split": ["a"], "attr": ["x"]}]},
    {"leaves": ["a"], "edges": [{"split": ["a"], "attr": [[1.0]]}]},
    {"leaves": ["a"], "edges": [{"split": ["a"], "attr": [10 ** 400]}]},
    {"leaves": ["a"], "edges": [], "class": ["case"]},
], ids=["labels-number", "labels-split-number", "labels-null",
        "attr-text", "attr-nested", "attr-overflow", "class-list"])
def test_malformed_population_documents(doc):
    with pytest.raises(TreeError):
        parse_population(json.dumps([doc]))


# any JSON value, and tree documents whose fields hold any JSON value
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=4)
    | st.floats(allow_nan=False, allow_infinity=False),
    lambda kids: st.lists(kids, max_size=3)
    | st.dictionaries(st.text(max_size=4), kids, max_size=3),
    max_leaves=6)
_LEAVES = st.lists(st.sampled_from("abcd"), min_size=1, max_size=4)
_EDGE = st.fixed_dictionaries({
    "split": _LEAVES | _JSON,
    "attr": st.lists(st.floats(-2, 2), min_size=1, max_size=2) | _JSON})
_DOC = st.fixed_dictionaries({
    "leaves": _LEAVES | _JSON,
    "edges": st.lists(_EDGE, max_size=3) | _JSON,
}, optional={
    "labels": st.dictionaries(st.text(max_size=2), _LEAVES | _JSON,
                              max_size=2) | _JSON,
    "class": st.sampled_from(["case", "control"]) | _JSON})


@settings(derandomize=True, database=None, max_examples=120, deadline=None)
@given(st.lists(_DOC, max_size=3) | _JSON)
def test_parse_population_returns_trees_or_raises_tree_error(docs):
    try:
        trees, classes = parse_population(json.dumps(docs))
    except TreeError:
        return
    assert all(isinstance(t, AttributedTree) for t in trees)
    assert classes is None or all(c is None or isinstance(c, str)
                                  for c in classes)


def test_population_roundtrip():
    rng = np.random.default_rng(3)
    trees = [random_tree(rng, ("a", "b", "c", "d")) for _ in range(6)]
    classes = ["control", "case", "control", "case", "control", "case"]
    text = serialize_population(trees, classes)
    back, back_classes = parse_population(text)
    assert back == trees
    assert back_classes == classes

    text = serialize_population(trees)
    back, back_classes = parse_population(text)
    assert back == trees
    assert back_classes is None


def test_population_class_count_mismatch():
    t = AttributedTree(("a",), {S("a"): (1.0,)})
    with pytest.raises(TreeError):
        serialize_population([t, t], ["only-one"])


def test_tree_dict_shape():
    t = AttributedTree(("b", "a"), {S("ab"): (0.5,), S("a"): (1.5,)})
    doc = tree_to_dict(t)
    assert doc["leaves"] == ["a", "b"]
    assert doc["edges"][0]["split"] == ["a"]     # sorted by leaf tuple
    assert doc["edges"][1]["split"] == ["a", "b"]
