"""One table of numeric ranges for the library and the command line.

Every library entry point that takes a counted or bounded number checks it
against ``treespace._bounds``, and the command line builds its argparse
types from the same bounds.  The entry points get NaN, the infinities, a
bool, a non-integer float for integer parameters and the nearest values on
either side of each bound: outside, a ValueError that starts with the
parameter's name; inside, no error.  No test here needs SciPy, because
every check runs before SciPy is imported.
"""

import argparse
import inspect
import math
import re
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from treespace import (BookPoint, ConePoint, EmbeddingConfig, MeanConfig,
                       airway_template, cross_validate, distortion_report,
                       fit_elastic_net, gen_corner, gen_sheets,
                       gen_tree_population, isomap_graph_distances,
                       knn_classify, lambda_grid, lambda_max,
                       permutation_test)
from treespace import _bounds
from treespace._bounds import (ABOVE_ZERO, COUNT, FINITE, FRACTION,
                               FROM_ZERO, MIX, SEED, TWO_UP, check)
from treespace._pool import resolve_workers
from treespace.cli import CliError, build_parser
from treespace.distmat import DistanceMatrix

_TINY = math.ulp(0.0)                   # the least float above 0
_ABOVE_ONE = math.nextafter(1.0, 2.0)
_MAX = sys.float_info.max
_HUGE = 10 ** 400                       # an integer beyond the float range

def _real(v):
    return type(v) in (int, float) and abs(v) <= _MAX


# each bound written out again, so a change to the table shows here
_REFERENCE = {
    SEED: lambda v: type(v) is int and v >= 0,
    COUNT: lambda v: type(v) is int and v >= 1,
    TWO_UP: lambda v: type(v) is int and v >= 2,
    ABOVE_ZERO: lambda v: _real(v) and v > 0,
    FROM_ZERO: lambda v: _real(v) and v >= 0,
    FRACTION: lambda v: _real(v) and 0 <= v <= 1,
    MIX: lambda v: _real(v) and 0 < v <= 1,
    FINITE: _real,
}

# (nearest values outside, nearest values inside) each bound's edges
_EDGES = {
    SEED: ([-1, 0.5, 0.0], [0]),
    COUNT: ([0, 1.5, 1.0], [1]),
    TWO_UP: ([1, 2.5, 2.0], [2]),
    ABOVE_ZERO: ([0.0, _HUGE], [_TINY]),
    FROM_ZERO: ([-_TINY, _HUGE], [0.0]),
    FRACTION: ([-_TINY, _ABOVE_ONE], [0.0, 1.0]),
    MIX: ([0.0, _ABOVE_ONE], [_TINY, 1.0]),
    FINITE: ([_HUGE, -_HUGE], [-_MAX, _MAX]),
}
_NON_NUMBERS = [math.nan, math.inf, -math.inf, True, False]

_NOT_INTEGER = st.one_of(st.booleans(), st.floats())
_NOT_FINITE = st.one_of(st.booleans(), st.sampled_from(
    [math.nan, math.inf, -math.inf, _HUGE, -_HUGE]))
_OUTSIDE = {
    SEED: st.one_of(st.integers(max_value=-1), _NOT_INTEGER),
    COUNT: st.one_of(st.integers(max_value=0), _NOT_INTEGER),
    TWO_UP: st.one_of(st.integers(max_value=1), _NOT_INTEGER),
    ABOVE_ZERO: st.one_of(st.floats(max_value=0.0), _NOT_FINITE),
    FROM_ZERO: st.one_of(st.floats(max_value=-_TINY), _NOT_FINITE),
    FRACTION: st.one_of(st.floats(max_value=-_TINY),
                        st.floats(min_value=_ABOVE_ONE), _NOT_FINITE),
    MIX: st.one_of(st.floats(max_value=0.0),
                   st.floats(min_value=_ABOVE_ONE), _NOT_FINITE),
    FINITE: _NOT_FINITE,
}

_TPL = airway_template()
_TREES = gen_tree_population(_TPL, 4, seed=1).trees
_LINE = DistanceMatrix(     # two clusters of three points on a line
    tuple("abcdef"),
    np.abs(np.subtract.outer(*[np.array([0, 1, 2, 10, 11, 12.0])] * 2)),
    tuple("xxxyyy"))
_PAIR = DistanceMatrix(("a", "b"), np.array([[0.0, 1.0], [1.0, 0.0]]))
_X = np.random.default_rng(0).normal(size=(8, 2))
_Y = np.array([0, 1] * 4)


def _cv(**kwargs):
    return cross_validate(_X, _Y, **{
        "alphas": (1.0,), "num_lambda": 3, "folds": 2, "inner_folds": 2,
        "repeats": 1, **kwargs})


def _entry(name, bound, call, inside=None):
    """An entry point's parameter ``name``, its bound, a call that passes
    it a value, and the values inside the bound that the call must take
    (by default the bound's nearest ones)."""
    return pytest.param(name, bound, call, inside or _EDGES[bound][1],
                        id=f"{call.__name__}-{name}")


def _named(name, call):
    call.__name__ = name
    return call


_ENTRIES = [
    _entry("max_iterations", COUNT,
           _named("MeanConfig", lambda v: MeanConfig(max_iterations=v))),
    _entry("tolerance", ABOVE_ZERO,
           _named("MeanConfig", lambda v: MeanConfig(tolerance=v))),
    _entry("m", COUNT, _named("permutation_test", lambda v: permutation_test(
        _TREES[:2], _TREES[2:], m=v, workers=1))),
    _entry("workers", COUNT, resolve_workers),
    *(_entry(field, COUNT, _named("EmbeddingConfig",
                                  lambda v, f=field: EmbeddingConfig(
                                      **{f: v})))
      for field in ("isomap_k", "max_iterations", "restarts", "bins")),
    _entry("k", COUNT, _named("isomap_graph_distances",
                              lambda v: isomap_graph_distances(_PAIR, v))),
    _entry("bins", COUNT, _named("distortion_report",
                                 lambda v: distortion_report(_LINE, _LINE,
                                                             v))),
    _entry("n", COUNT, gen_corner),
    _entry("sheets", TWO_UP, _named("gen_sheets",
                                    lambda v: gen_sheets(v, 2, 1))),
    _entry("dim", TWO_UP, _named("gen_sheets",
                                 lambda v: gen_sheets(2, v, 1))),
    _entry("per_sheet", COUNT, _named("gen_sheets",
                                      lambda v: gen_sheets(2, 2, v))),
    _entry("k", COUNT, airway_template),
    _entry("n", COUNT, _named("gen_tree_population",
                              lambda v: gen_tree_population(_TPL, v))),
    _entry("topology_noise", FRACTION, _named(
        "gen_tree_population",
        lambda v: gen_tree_population(_TPL, 2, topology_noise=v))),
    _entry("attr_sigma", FROM_ZERO, _named(
        "gen_tree_population",
        lambda v: gen_tree_population(_TPL, 2, attr_sigma=v))),
    # a class shift names its branch label; offsets are finite numbers
    _entry("LMB", FINITE, _named(
        "class_shift", lambda v: gen_tree_population(
            _TPL, 2, class_shift={"LMB": v}))),
    _entry("LMB", FINITE, _named(
        "class_shift_vector", lambda v: gen_tree_population(
            _TPL, 2, class_shift={"LMB": [v]}))),
    _entry("lam", FROM_ZERO, _named(
        "fit_elastic_net", lambda v: fit_elastic_net(_X, _Y, v, 0.5))),
    _entry("alpha", FRACTION, _named(
        "fit_elastic_net", lambda v: fit_elastic_net(_X, _Y, 0.1, v))),
    # alpha = 5e-324 overflows lambda_max's division, and lmax = 5e-324
    # makes a grid down to 0, so these two take their closed end only
    _entry("alpha", MIX, _named("lambda_max",
                                lambda v: lambda_max(_X, _Y, v)), [1.0]),
    _entry("lmax", ABOVE_ZERO, lambda_grid, [1.0]),
    _entry("folds", TWO_UP, _named("cross_validate",
                                   lambda v: _cv(folds=v))),
    _entry("inner_folds", TWO_UP, _named("cross_validate",
                                         lambda v: _cv(inner_folds=v))),
    _entry("repeats", COUNT, _named("cross_validate",
                                    lambda v: _cv(repeats=v))),
    _entry("alphas[0]", MIX, _named("cross_validate",
                                    lambda v: _cv(alphas=(v,))), [1.0]),
    _entry("k", COUNT, _named("knn_classify", lambda v: knn_classify(
        _LINE, _LINE.labels, k=v, folds=2))),
    _entry("folds", TWO_UP, _named("knn_classify", lambda v: knn_classify(
        _LINE, _LINE.labels, k=1, folds=v))),
    _entry("radius", FROM_ZERO, _named("ConePoint",
                                       lambda v: ConePoint(v, 0.0))),
    _entry("height", FROM_ZERO, _named("BookPoint",
                                       lambda v: BookPoint(0, (0.0,), v))),
]

_SETTINGS = settings(derandomize=True, database=None, deadline=None,
                     max_examples=40)


def _raises_naming(name, call, value):
    with pytest.raises(ValueError) as err:
        call(value)
    assert str(err.value).startswith(f"{name}: "), str(err.value)


@pytest.mark.parametrize("bound", list(_REFERENCE), ids=lambda b: b.phrase)
@_SETTINGS
@given(value=st.one_of(st.booleans(), st.integers(-10 ** 6, 10 ** 6),
                       st.floats(), st.sampled_from([_HUGE, -_HUGE])))
def test_each_bound_holds_what_its_phrase_says(bound, value):
    assert bound.holds(value) == _REFERENCE[bound](value)
    if not bound.holds(value):
        with pytest.raises(ValueError) as err:
            check(bound, size=value)
        assert str(err.value) == \
            f"size: expected {bound.phrase}, got {value!r}"


@pytest.mark.parametrize("bound", list(_REFERENCE), ids=lambda b: b.phrase)
def test_edges_sit_on_either_side_of_each_bound(bound):
    outside, inside = _EDGES[bound]
    assert not any(map(bound.holds, outside + _NON_NUMBERS))
    assert all(map(bound.holds, inside))


def test_a_numpy_integer_is_an_integer_and_a_numpy_bool_is_not():
    assert COUNT.holds(np.int64(3)) and FRACTION.holds(np.float64(0.5))
    assert not COUNT.holds(np.True_) and not COUNT.holds(np.float64(3.0))


@pytest.mark.parametrize("name, bound, call, inside", _ENTRIES)
def test_entry_points_reject_the_edges_and_non_numbers(name, bound, call,
                                                       inside):
    for value in _EDGES[bound][0] + _NON_NUMBERS:
        _raises_naming(name, call, value)


@pytest.mark.parametrize("name, bound, call, inside", _ENTRIES)
@_SETTINGS
@given(data=st.data())
def test_entry_points_reject_every_value_outside(name, bound, call, inside,
                                                 data):
    _raises_naming(name, call, data.draw(_OUTSIDE[bound]))


@pytest.mark.parametrize("name, bound, call, inside", _ENTRIES)
def test_entry_points_take_the_nearest_values_inside(name, bound, call,
                                                     inside):
    for value in inside:
        try:
            call(value)
        except ModuleNotFoundError as e:    # SciPy comes after the check
            assert e.name.partition(".")[0] == "scipy"


def test_nan_attribute_noise_no_longer_zeroes_the_population():
    with pytest.raises(ValueError, match="^attr_sigma: expected a finite "
                                         "number of at least 0, got nan$"):
        gen_tree_population(_TPL, 2, attr_sigma=math.nan)


# ---------------------------------------------------------------------------
# the command line takes its ranges from the same table
# ---------------------------------------------------------------------------

def _parsers(parser):
    """``parser`` and every parser below it."""
    yield parser
    for a in parser._actions:
        if isinstance(a, argparse._SubParsersAction):
            for sub in a.choices.values():
                yield from _parsers(sub)


def test_every_numeric_option_takes_its_range_from_the_table():
    table = [v for v in vars(_bounds).values()
             if isinstance(v, _bounds.Bound)]
    used = []
    for parser in _parsers(build_parser()):
        for a in parser._actions:
            if a.type is None:
                # no number slips through untyped
                assert type(a.default) not in (int, float), a.dest
                continue
            assert a.type.__qualname__ == "_option.<locals>.parse", a.dest
            bound = inspect.getclosurevars(a.type).nonlocals["bound"]
            assert any(bound is b for b in table), a.dest
            used.append(bound)
    assert {b.phrase for b in used} == {
        b.phrase for b in table if b is not FINITE}


@pytest.mark.parametrize("argv, call", [
    (["mean", "--tolerance", "nan"], lambda: MeanConfig(tolerance=math.nan)),
    (["mean", "--max-iterations", "0"],
     lambda: MeanConfig(max_iterations=0)),
    (["permtest", "--M", "0"],
     lambda: permutation_test(_TREES[:2], _TREES[2:], m=0, workers=1)),
    (["dist", "--threads", "0"], lambda: resolve_workers(0)),
    (["embed", "--isomap-k", "0"],
     lambda: isomap_graph_distances(_PAIR, 0)),
    (["embed", "--restarts", "0"], lambda: EmbeddingConfig(restarts=0)),
    (["embed", "--max-iterations", "0"],
     lambda: EmbeddingConfig(max_iterations=0)),
    (["embed", "--bins", "0"], lambda: EmbeddingConfig(bins=0)),
    (["distortion", "--bins", "0"],
     lambda: distortion_report(_LINE, _LINE, 0)),
    (["gen", "corner", "--n", "0"], lambda: gen_corner(0)),
    (["gen", "sheets", "--sheets", "1"], lambda: gen_sheets(1, 2)),
    (["gen", "sheets", "--dim", "1"], lambda: gen_sheets(2, 1)),
    (["gen", "sheets", "--per-sheet", "0"], lambda: gen_sheets(2, 2, 0)),
    (["gen", "trees", "--n", "0"], lambda: gen_tree_population(_TPL, 0)),
    (["gen", "trees", "--k", "0"], lambda: airway_template(0)),
    (["gen", "trees", "--attr-sigma", "nan"],
     lambda: gen_tree_population(_TPL, 2, attr_sigma=math.nan)),
    (["gen", "trees", "--topology-noise", "2"],
     lambda: gen_tree_population(_TPL, 2, topology_noise=2.0)),
    (["classify", "--alphas", "0"], lambda: _cv(alphas=(0.0,))),
    (["classify", "--folds", "1"], lambda: _cv(folds=1)),
    (["classify", "--repeats", "0"], lambda: _cv(repeats=0)),
    (["knn", "--k", "0"], lambda: knn_classify(_LINE, _LINE.labels, k=0)),
    (["knn", "--folds", "1"],
     lambda: knn_classify(_LINE, _LINE.labels, folds=1)),
], ids=lambda v: " ".join(v) if isinstance(v, list) else None)
def test_flag_and_library_name_a_range_in_one_phrase(argv, call):
    with pytest.raises(CliError) as cli:
        build_parser(argv[:2]).parse_args(argv)
    with pytest.raises(ValueError) as lib:
        call()
    phrase = re.compile(r": expected (.*), got ")
    assert phrase.search(str(cli.value))[1] == \
        phrase.search(str(lib.value))[1]
