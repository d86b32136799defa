import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from treespace import (
    DEFAULT_BRANCH_LABELS,
    AttributedTree,
    FeatureMatrix,
    SubtreeScheme,
    airway_template,
    compute_reference_means,
    extract_subtree,
    feature_matrix,
    fold_feature_builder,
    frechet_mean,
    gen_tree_population,
    geodesic_distance,
)

from helpers import leaf_names, random_tree

S = frozenset


def three_level():
    """a-d with a labeled interior edge {a,b,c} and a nested {a,b}."""
    leaves = ("a", "b", "c", "d")
    edges = {S(x): (1.0, 0.0) for x in leaves}
    edges[S("ab")] = (0.5, -1.0)
    edges[S("abc")] = (2.0, 3.0)
    edges[S("abcd")] = (0.1, 0.2)
    return AttributedTree(leaves, edges, {"root": S("abcd"), "mid": S("abc"),
                                          "tip": S("d")})


def test_default_scheme():
    assert len(DEFAULT_BRANCH_LABELS) == 9
    assert DEFAULT_BRANCH_LABELS[0] == "Trachea"
    scheme = SubtreeScheme()
    assert scheme.labels == DEFAULT_BRANCH_LABELS
    with pytest.raises(ValueError):
        SubtreeScheme(())
    with pytest.raises(ValueError):
        SubtreeScheme(("A", "A"))


def test_extract_root_is_identity():
    t = airway_template()
    assert extract_subtree(t, "Trachea") == t


def test_extract_pendant_single_edge():
    t = three_level()
    sub = extract_subtree(t, "tip")
    assert sub.leaves == ("d",)
    assert sub.m == 1
    assert sub.attribute(S("d")) == (1.0, 0.0)


def test_extract_interior_matches_manual_traversal():
    t = three_level()
    sub = extract_subtree(t, "mid")
    # manual oracle: every split nested in {a,b,c}, attributes untouched
    want = {s: a for s, a in t.edges.items() if s <= S("abc")}
    assert dict(sub.edges) == want
    assert sub.leaves == ("a", "b", "c")
    assert sub.branch_labels == {"mid": S("abc")}


def test_extract_unknown_label():
    with pytest.raises(KeyError):
        extract_subtree(three_level(), "nope")


def test_template_carries_all_default_labels():
    t = airway_template()
    for label in DEFAULT_BRANCH_LABELS:
        sub = extract_subtree(t, label)
        assert sub.m >= 1


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n_leaves=st.integers(3, 9),
       k=st.sampled_from((1, 3)), zero_prob=st.sampled_from((0.0, 0.3)))
def test_extract_subtree_equals_the_validated_rebuild(seed, n_leaves, k,
                                                      zero_prob):
    rng = np.random.default_rng(seed)
    t = random_tree(rng, leaf_names(n_leaves), k, zero_prob=zero_prob)
    # a label on every split, so every subtree is taken
    t = AttributedTree(t.leaves, t.edges, {
        f"b{i}": s for i, s in enumerate(t.sorted_splits())})
    for label in t.branch_labels:
        sub = extract_subtree(t, label)
        # the public constructor accepts the parts the subtree skipped
        # checking, and builds the same tree and split view from them
        rebuilt = AttributedTree(sub.leaves, sub.edges, sub.branch_labels)
        assert sub == rebuilt
        assert sub._split_view == rebuilt._split_view


def population(n=8, seed=0):
    template = airway_template()
    pop = gen_tree_population(template, n, attr_sigma=0.05,
                              class_shift={"LMB": 0.4}, seed=seed)
    return pop.trees, pop.classes


def test_feature_matrix_counts():
    trees, classes = population()
    scheme = SubtreeScheme()

    pooled = compute_reference_means(trees, None, scheme, mode="pooled")
    fm = feature_matrix(trees, scheme, pooled, y=classes)
    assert fm.values.shape == (8, 9)
    assert fm.column_names == DEFAULT_BRANCH_LABELS

    byclass = compute_reference_means(trees, classes, scheme)
    fm2 = feature_matrix(trees, scheme, byclass, y=classes)
    assert fm2.values.shape == (8, 18)
    assert fm2.column_names[:2] == ("Trachea:case", "Trachea:control")


def test_feature_zero_at_reference():
    trees, _ = population()
    scheme = SubtreeScheme(("LMB",))
    means = {("LMB", None): extract_subtree(trees[0], "LMB")}
    fm = feature_matrix(trees, scheme, means)
    assert fm.values[0, 0] == 0.0


def test_features_match_elementwise_recomputation():
    trees, classes = population(n=6)
    scheme = SubtreeScheme(("Trachea", "LUL", "RLL"))
    means = compute_reference_means(trees, classes, scheme)
    fm = feature_matrix(trees, scheme, means, y=classes)
    for i, t in enumerate(trees):
        for j, (label, cls) in enumerate(fm.columns):
            d = geodesic_distance(extract_subtree(t, label),
                                  means[(label, cls)])
            assert fm.values[i, j] == d
    assert np.all(fm.values >= 0.0)
    assert np.all(np.isfinite(fm.values))


def test_pooled_mean_definition():
    trees, _ = population(n=5)
    scheme = SubtreeScheme(("RUL",))
    means = compute_reference_means(trees, None, scheme, mode="pooled")
    subs = [extract_subtree(t, "RUL") for t in trees]
    direct = frechet_mean(subs)
    assert geodesic_distance(means[("RUL", None)], direct) <= 1e-12


def test_reference_means_validation():
    trees, classes = population(n=4)
    scheme = SubtreeScheme(("LMB",))
    with pytest.raises(ValueError):
        compute_reference_means(trees, None, scheme, mode="per-class")
    with pytest.raises(ValueError):
        compute_reference_means(trees, classes[:-1], scheme)
    with pytest.raises(ValueError):
        compute_reference_means(trees, classes, scheme, mode="median")


def test_feature_csv_roundtrip():
    trees, classes = population(n=6)
    scheme = SubtreeScheme(("Trachea", "LMB"))
    means = compute_reference_means(trees, classes, scheme)
    fm = feature_matrix(trees, scheme, means, y=classes)
    back = FeatureMatrix.from_csv(fm.to_csv())
    assert np.array_equal(back.values, fm.values)
    assert back.columns == fm.columns
    assert back.ids == fm.ids
    assert back.y == tuple(classes)

    # no-class variant
    fm = feature_matrix(trees, scheme, means)
    back = FeatureMatrix.from_csv(fm.to_csv())
    assert back.y is None


def test_feature_matrix_validation():
    with pytest.raises(ValueError):
        FeatureMatrix(np.zeros((2, 2)), (("A", None),), ("r0", "r1"))
    with pytest.raises(ValueError):
        FeatureMatrix(np.zeros((2, 1)), (("A", None),), ("r0",))
    with pytest.raises(ValueError):
        FeatureMatrix(np.full((1, 1), np.nan), (("A", None),), ("r0",))


def test_fold_builder_uses_train_only():
    trees, classes = population(n=8, seed=3)
    scheme = SubtreeScheme(("LMB", "RMB"))
    build = fold_feature_builder(trees, classes, scheme)

    train = [0, 1, 2, 3, 4]
    fm = build(train)
    assert fm.values.shape == (8, 4)

    # oracle: means from the training subset, features for everyone
    means = compute_reference_means([trees[i] for i in train],
                                    [classes[i] for i in train], scheme)
    want = feature_matrix(trees, scheme, means, y=classes)
    assert np.array_equal(fm.values, want.values)

    # a different training set moves the reference means
    fm2 = build([3, 4, 5, 6, 7])
    assert not np.array_equal(fm.values, fm2.values)
