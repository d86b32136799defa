"""Library rejections of malformed arguments, one table.

Each entry is a call that some argument makes invalid, the exception it
must raise, and that exception's exact message.  The table holds the
rejections no other test reaches, so that every raise of the library runs
under test (``tools/never_run.py`` lists the statements that still do
not).  None of the calls needs SciPy.
"""

import math

import numpy as np
import pytest

from treespace import (AttributedTree, DistanceMatrix, FeatureMatrix,
                       SubtreeScheme, TreeError, airway_template,
                       compute_reference_means, correlation_matrix,
                       cross_validate, feature_matrix, frechet_mean_detailed,
                       gen_tree_population, knn_classify, lambda_max,
                       sammon_stress)
from treespace.svgfig import svg_histogram, svg_pair_grid

_TREES = gen_tree_population(airway_template(), 4, seed=1).trees
_PAIR = DistanceMatrix(("a", "b"), np.array([[0.0, 1.0], [1.0, 0.0]]))


def _rejects(name, call, message, error=ValueError):
    """Entry ``name``: ``call()`` raises ``error`` with ``message``."""
    return pytest.param(call, error, message, id=name)


_ENTRIES = [
    _rejects("lambda_max-rows", lambda: lambda_max(
        np.zeros((3, 2)), [0, 1], 1.0), "X must be (n, d) with matching y"),
    # each alpha would be fitted twice and reported in two identical rows
    _rejects("cross_validate-repeated-alpha", lambda: cross_validate(
        np.zeros((4, 1)), [0, 1, 0, 1], alphas=(1.0, 0.5, 1.0)),
        "alphas: 1.0 given twice"),
    _rejects("knn_classify-labels", lambda: knn_classify(_PAIR, ["x"]),
             "labels do not match matrix size"),
    # a field past the csv module's size limit
    _rejects("DistanceMatrix.from_csv-field", lambda: DistanceMatrix.from_csv(
        "x" * 200_000), "malformed CSV: field larger than field limit "
                        "(131072)"),
    _rejects("DistanceMatrix-shape", lambda: DistanceMatrix(
        ("a", "b"), np.zeros((3, 3))), "matrix shape (3, 3) does not match "
                                       "2 ids"),
    _rejects("DistanceMatrix-labels", lambda: DistanceMatrix(
        ("a", "b"), np.zeros((2, 2)), ("x",)), "one label per id required"),
    _rejects("DistanceMatrix.from_csv-empty",
             lambda: DistanceMatrix.from_csv("\n"),
             "empty distance matrix CSV"),
    _rejects("DistanceMatrix.from_csv-header",
             lambda: DistanceMatrix.from_csv("name,label,a\na,,0\n"),
             "expected header 'id,label,<id1>,...'"),
    _rejects("DistanceMatrix.from_csv-cells",
             lambda: DistanceMatrix.from_csv(
                 "id,label,a,b\na,,0\nb,,1,0\n"),
             "row 0: expected 4 cells"),
    _rejects("sammon_stress-disk-points", lambda: sammon_stress(
        np.zeros((2, 2)), np.zeros((2, 3)), "hyperbolic"),
        "points must be complex or (n, 2) coordinates"),
    _rejects("frechet_mean_detailed-empty", lambda: frechet_mean_detailed([]),
             "empty population"),
    _rejects("correlation_matrix-1d",
             lambda: correlation_matrix([1.0, 2.0, 3.0]),
             "values must be a 2-D array"),
    # NaN is unequal to itself, so the class NaN finds no member
    _rejects("compute_reference_means-nan-class",
             lambda: compute_reference_means(
                 _TREES, [math.nan] * 4, SubtreeScheme(("LMB",))),
             "class nan has no trees"),
    _rejects("FeatureMatrix-1d", lambda: FeatureMatrix(np.zeros(3), (), ()),
             "feature values must be a 2-D array"),
    _rejects("FeatureMatrix-y", lambda: FeatureMatrix(
        np.zeros((2, 1)), (("LMB", None),), ("s0", "s1"), ("case",)),
        "y does not match row count"),
    _rejects("FeatureMatrix.from_csv-header",
             lambda: FeatureMatrix.from_csv("name,class,A\ns0,,1\n"),
             "feature CSV must start with id,class columns"),
    _rejects("feature_matrix-no-mean", lambda: feature_matrix(
        _TREES, SubtreeScheme(("LMB",)), {}),
        "no reference mean for label 'LMB'"),
    _rejects("svg_histogram-edges", lambda: svg_histogram([1, 2], [0.0, 1.0]),
             "need len(edges) == len(counts) + 1"),
    _rejects("svg_pair_grid-names",
             lambda: svg_pair_grid(np.zeros((3, 2)), ["a"]),
             "names do not match column count"),
    _rejects("AttributedTree-empty-split", lambda: AttributedTree(
        ("a",), {frozenset(): (1.0,)}), "empty split", TreeError),
]


@pytest.mark.parametrize("call, error, message", _ENTRIES)
def test_library_rejects_with_its_message(call, error, message):
    with pytest.raises(error) as err:
        call()
    assert type(err.value) is error
    assert str(err.value) == message
