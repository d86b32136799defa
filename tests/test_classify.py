import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from treespace import (
    SubtreeScheme,
    airway_template,
    compute_reference_means,
    cross_validate,
    distance_matrix,
    feature_matrix,
    fit_elastic_net,
    gen_tree_population,
    kkt_residual,
    knn_classify,
    lambda_grid,
    lambda_max,
    penalized_objective,
    predict,
    predict_proba,
)
from treespace.classify import _knn_vote, _newton_direction


def logistic_data(seed=0, n=120, d=4, noise=True):
    """Features with a planted coefficient vector, labels drawn or thresholded."""
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, d))
    w = np.resize([1.0, -0.5, 0.0, 0.3], d)
    margin = X @ w - 0.2
    if noise:
        y = (rng.random(n) < 1.0 / (1.0 + np.exp(-margin))).astype(float)
    else:
        y = (margin > 0).astype(float)
    return X, y


def irls_fit(X, y, iters=80, ridge=0.0):
    """Logistic regression by damped Newton, high precision.

    ``ridge`` adds ridge / 2 * |beta|^2 (intercept unpenalized), the
    elastic-net objective at alpha = 0 with lambda = ridge.
    """
    n = len(y)
    A = np.hstack([np.ones((n, 1)), X])
    R = ridge * np.diag(np.r_[0.0, np.ones(A.shape[1] - 1)])
    b = np.zeros(A.shape[1])
    for _ in range(iters):
        p = 1.0 / (1.0 + np.exp(-(A @ b)))
        g = A.T @ (p - y) + R @ b
        H = (A * (p * (1 - p))[:, None]).T @ A + R
        b = b - np.linalg.solve(H, g)
    return b[0], b[1:]


# ---------------------------------------------------------------------------
# fit_elastic_net
# ---------------------------------------------------------------------------

def test_lambda_at_max_gives_null_model():
    X, y = logistic_data(seed=3)
    lmax = lambda_max(X, y, 1.0)
    for lam in (lmax, 2 * lmax):
        m = fit_elastic_net(X, y, lam, 1.0)
        assert np.all(m.beta == 0.0)
        ybar = y.mean()
        assert m.intercept == pytest.approx(np.log(ybar / (1 - ybar)),
                                            abs=1e-8)
        assert m.selected == ()


def test_unregularized_matches_newton_oracle():
    X, y = logistic_data(seed=5)
    b0, bw = irls_fit(X, y)
    m = fit_elastic_net(X, y, 0.0, 1.0)
    assert m.intercept == pytest.approx(b0, abs=1e-6)
    assert np.abs(m.beta - bw).max() < 1e-6


def test_ridge_matches_newton_oracle():
    X, y = logistic_data(seed=5)
    for frac in (0.1, 1.0):
        lam = frac * lambda_max(X, y, 1.0)
        b0, bw = irls_fit(X, y, ridge=lam)
        m = fit_elastic_net(X, y, lam, 0.0)
        assert m.stop_reason == "converged"
        assert m.intercept == pytest.approx(b0, abs=1e-6)
        assert np.abs(m.beta - bw).max() < 1e-6


def test_near_separable_subtree_path_converges():
    # standardized pooled subtree features of 16 airway trees with a 0.3
    # LMB shift: at this seed the classes are nearly separable, so the
    # small-lambda end of the path is where a solver stalls
    pop = gen_tree_population(airway_template(), 16, attr_sigma=0.4,
                              class_shift={"LMB": 0.3}, seed=1)
    scheme = SubtreeScheme()
    means = compute_reference_means(pop.trees, pop.classes, scheme, "pooled")
    fm = feature_matrix(pop.trees, scheme, means, y=pop.classes)
    X = np.asarray(fm.values, dtype=float)
    sd = X.std(axis=0)
    X = (X - X.mean(axis=0)) / np.where(sd == 0.0, 1.0, sd)
    y = np.array([c == "case" for c in fm.y], dtype=float)
    warm = None
    for lam in lambda_grid(lambda_max(X, y, 1.0), num=50):
        warm = fit_elastic_net(X, y, lam, 1.0, warm=warm)
        assert warm.stop_reason == "converged"
        assert kkt_residual(warm, X, y) <= 1e-6


def test_stop_reasons():
    X, y = logistic_data(seed=7, n=50)
    lam = 0.05 * lambda_max(X, y, 1.0)
    m = fit_elastic_net(X, y, lam, 0.5)
    assert m.stop_reason == "converged" and 0 < m.iterations < 50
    capped = fit_elastic_net(X, y, lam, 0.5, max_sweeps=1)
    assert capped.stop_reason == "cap" and capped.iterations == 1
    # without a penalty the coefficients diverge on separable data, until
    # rounding hides every decrease of the objective
    Xs, ys = logistic_data(seed=37, noise=False)
    m = fit_elastic_net(Xs, ys, 0.0, 1.0)
    assert m.stop_reason == "line_search"
    assert np.all(predict(m, Xs) == ys)


def test_kkt_along_paths():
    X, y = logistic_data(seed=11, n=60, d=6)
    for alpha in (1.0, 0.5, 0.25):
        warm = None
        for lam in lambda_grid(lambda_max(X, y, alpha), num=20):
            warm = fit_elastic_net(X, y, lam, alpha, warm=warm)
            assert kkt_residual(warm, X, y) <= 1e-6


def test_pure_lasso_subgradient():
    X, y = logistic_data(seed=13)
    lam = 0.1 * lambda_max(X, y, 1.0)
    m = fit_elastic_net(X, y, lam, 1.0)
    from scipy.special import expit
    p = expit(m.intercept + X @ m.beta)
    grad = X.T @ (p - y)
    for j, b in enumerate(m.beta):
        if b != 0.0:
            assert grad[j] == pytest.approx(-np.sign(b) * lam, abs=1e-6)
        else:
            assert abs(grad[j]) <= lam + 1e-6


def test_objective_non_increasing_over_sweeps():
    # the fit is deterministic, so truncating at k sweeps replays the same
    # trajectory and exposes the per-sweep objective values
    X, y = logistic_data(seed=7, n=50)
    lam = 0.05 * lambda_max(X, y, 1.0)
    objs = []
    for k in range(1, 20):
        m = fit_elastic_net(X, y, lam, 0.5, max_sweeps=k)
        objs.append(penalized_objective(m, X, y))
    for a, b in zip(objs, objs[1:]):
        assert b <= a + 1e-12


def test_duplicated_columns_keep_kkt_along_a_lasso_path():
    # the last two columns copy the first two, so every support holding a
    # column and its copy makes the Newton subproblem's solve singular
    X, y = logistic_data(seed=0, n=40, d=5)
    X = np.hstack([X, X[:, :2]])
    warm = None
    for lam in lambda_grid(lambda_max(X, y, 1.0)):
        warm = fit_elastic_net(X, y, lam, 1.0, warm=warm)
        assert warm.stop_reason == "converged"
        assert kkt_residual(warm, X, y) <= 1e-12


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), d=st.integers(1, 6),
       rows=st.integers(1, 7), copy=st.booleans())
def test_newton_direction_solves_its_subproblem(seed, d, rows, copy):
    # H = B'DB, singular when rows < d, when D has zeros or when a column
    # of B copies another; g leaves H's range by at most thr, so q is
    # bounded below and has a minimizer
    rng = np.random.default_rng(seed)

    def sparse(draw, p_zero):
        return draw * (rng.random(d) >= p_zero)

    B = rng.normal(size=(rows, d))
    if copy and d > 1:
        B[:, -1] = B[:, 0]
    D = rng.exponential(size=rows) * (rng.random(rows) >= 0.3)
    H = B.T @ (D[:, None] * B)
    thr = sparse(rng.exponential(size=d), 0.3)
    l2 = sparse(rng.exponential(size=d), 0.5)
    g = B.T @ (D * rng.normal(size=rows)) + thr * rng.uniform(-1, 1, d)
    w = sparse(rng.normal(size=d), 0.3)

    def q(u):
        return (g @ (u - w) + 0.5 * (u - w) @ H @ (u - w)
                + thr @ np.abs(u) + 0.5 * l2 @ (u * u))

    v = _newton_direction(H, g, w, thr, l2)
    r = g + H @ (v - w) + l2 * v
    scale = 1.0 + np.abs(g).max() + np.abs(H).max() * np.abs(
        np.r_[v, w]).max() + thr.max() + l2.max() * np.abs(v).max()
    on = (v != 0.0) | (thr == 0.0)
    assert np.all(np.abs((r + thr * np.sign(v))[on]) <= 1e-9 * scale)
    assert np.all(np.abs(r[~on]) <= thr[~on] * (1.0 + 1e-12) + 1e-9 * scale)
    assert q(v) <= q(w) + 1e-12 * scale * (1.0 + np.abs(w).max())


def test_newton_direction_ends_on_a_singular_support(monkeypatch):
    # the generator above at seed 10680, d = 4, rows = 1, no copy: every
    # coordinate is unpenalized and H + diag(l2) is singular, yet the plain
    # solve does not raise, so each round needs a proximal step; the round
    # whose proximal iterate solves the system must end the search
    H = np.array([
        [3.1928507029759543, 1.013652393301923, 0.7428131536647188,
         0.5331955008695473],
        [1.013652393301923, 0.32180996546096713, 0.2358250983319034,
         0.16927659506611903],
        [0.7428131536647188, 0.23582509833190338, 0.172814651415751,
         0.12404733837118925],
        [0.5331955008695471, 0.169276595066119, 0.12404733837118924,
         0.08904188407010159]])
    g = np.array([-0.45440730369506516, -0.14426325994355316,
                  -0.10571735220547673, -0.07588451588627111])
    w = np.array([1.1958866332165816, -1.1189427201518984,
                  -1.470453159735634, -0.989763418580508])
    thr = np.zeros(4)
    l2 = np.array([0.0, 0.0, 1.221247395489022, 0.11001473188716321])
    solve, calls = np.linalg.solve, []

    def counted(*args):
        calls.append(None)
        return solve(*args)

    monkeypatch.setattr(np.linalg, "solve", counted)
    v = _newton_direction(H, g, w, thr, l2)
    assert len(calls) <= 6
    # no penalty: the minimizer is a stationary point of q
    r = g + H @ (v - w) + l2 * v
    assert np.abs(r).max() <= 1e-12
    d = v - w
    assert g @ d + 0.5 * d @ H @ d + 0.5 * l2 @ (v * v - w * w) <= 0.0


def test_sparsity_monotone_on_grid():
    X, y = logistic_data(seed=2, n=200, d=4)
    for alpha in (1.0, 0.5):
        warm = None
        sizes = []
        for lam in lambda_grid(lambda_max(X, y, alpha), num=30):
            warm = fit_elastic_net(X, y, lam, alpha, warm=warm)
            sizes.append(len(warm.selected))
        assert sizes == sorted(sizes)


def test_warm_start_agrees_with_cold():
    X, y = logistic_data(seed=17, n=80)
    lmax = lambda_max(X, y, 0.5)
    warm = fit_elastic_net(X, y, lmax, 0.5)
    warm = fit_elastic_net(X, y, 0.3 * lmax, 0.5, warm=warm)
    cold = fit_elastic_net(X, y, 0.3 * lmax, 0.5)
    assert np.abs(warm.beta - cold.beta).max() < 1e-6
    assert warm.intercept == pytest.approx(cold.intercept, abs=1e-6)


def test_fit_rejects_bad_inputs():
    X, y = logistic_data(seed=1)
    with pytest.raises(ValueError):
        fit_elastic_net(X, y, -0.1, 0.5)
    with pytest.raises(ValueError):
        fit_elastic_net(X, y, 0.1, 1.5)
    with pytest.raises(ValueError):
        fit_elastic_net(X, y + 1.0, 0.1, 0.5)  # labels 1/2
    bad = X.copy()
    bad[0, 0] = np.nan
    with pytest.raises(ValueError):
        fit_elastic_net(bad, y, 0.1, 0.5)
    with pytest.raises(ValueError):
        lambda_max(X, y, 0.0)


# ---------------------------------------------------------------------------
# prediction
# ---------------------------------------------------------------------------

def test_predict_proba_closed_forms():
    X, y = logistic_data(seed=23, d=2)
    m = fit_elastic_net(X, y, lambda_max(X, y, 1.0), 1.0)
    m.intercept = 0.0
    assert predict_proba(m, [[5.0, -3.0]])[0] == pytest.approx(0.5)
    m.beta = np.array([1.0, 0.0])
    m.intercept = 0.0
    assert predict_proba(m, [[np.log(3.0), 0.0]])[0] == pytest.approx(0.75)


def test_predict_proba_negation_symmetry():
    rng = np.random.default_rng(29)
    X, y = logistic_data(seed=29)
    m = fit_elastic_net(X, y, 0.01, 0.5)
    x = rng.normal(size=(1, 4))
    p = predict_proba(m, x)[0]
    m.beta = -m.beta
    assert predict_proba(m, -x)[0] == pytest.approx(p, abs=1e-15)


def test_predict_proba_open_interval_and_dim_check():
    X, y = logistic_data(seed=31, d=2)
    m = fit_elastic_net(X, y, 0.0, 1.0)
    huge = np.array([[1e4, -1e4], [-1e4, 1e4]])
    p = predict_proba(m, huge)
    assert np.all(p > 0.0) and np.all(p < 1.0)
    with pytest.raises(ValueError):
        predict_proba(m, [[1.0, 2.0, 3.0]])


def test_separable_data_perfect_accuracy():
    X, y = logistic_data(seed=37, noise=False)
    m = fit_elastic_net(X, y, 1e-4 * lambda_max(X, y, 1.0), 1.0)
    assert np.all(predict(m, X) == y)


# ---------------------------------------------------------------------------
# cross_validate
# ---------------------------------------------------------------------------

def test_cv_separable_single_feature():
    rng = np.random.default_rng(41)
    x = np.concatenate([rng.normal(-3.0, 0.3, 30), rng.normal(3.0, 0.3, 30)])
    y = np.array(["a"] * 30 + ["b"] * 30)
    rep = cross_validate(x[:, None], y, alphas=(1.0,), num_lambda=15,
                        repeats=1, seed=4)
    assert max(rep.grid_mean[1.0]) == 1.0
    assert rep.nested_mean[1.0] == 1.0


def test_cv_shuffled_labels_near_chance():
    rng = np.random.default_rng(43)
    X = rng.normal(size=(200, 5))
    y = np.array(["a", "b"] * 100)
    rng.shuffle(y)
    rep = cross_validate(X, y, alphas=(1.0, 0.25), num_lambda=12,
                        repeats=1, seed=8)
    for a in rep.alphas:
        assert 0.35 <= rep.nested_mean[a] <= 0.65


def test_cv_deterministic_and_tie_break():
    X, y = logistic_data(seed=47, n=40, d=3)
    labels = np.where(y > 0, "case", "control")
    rep1 = cross_validate(X, labels, alphas=(1.0,), num_lambda=10,
                         repeats=1, seed=12)
    rep2 = cross_validate(X, labels, alphas=(1.0,), num_lambda=10,
                         repeats=1, seed=12)
    assert rep1.to_json() == rep2.to_json()
    # chosen lambda is the largest among the accuracy maximizers
    mean = rep1.grid_mean[1.0]
    lams = rep1.lambdas[1.0]
    best = [lams[j] for j in range(len(lams)) if mean[j] == mean.max()]
    assert rep1.chosen_lambda[1.0] == max(best)


def test_cv_report_invariants():
    X, y = logistic_data(seed=53, n=30, d=3)
    labels = np.where(y > 0, "case", "control")
    rep = cross_validate(X, labels, alphas=(1.0, 0.5), num_lambda=8,
                        repeats=2, seed=3)
    for a in rep.alphas:
        assert np.all(rep.grid_mean[a] >= 0.0)
        assert np.all(rep.grid_mean[a] <= 1.0)
        assert 0.0 <= rep.nested_mean[a] <= 1.0
        assert rep.chosen_lambda[a] in set(map(float, rep.lambdas[a]))
    js = rep.to_json()
    assert {r["alpha"] for r in js["rows"]} == {1.0, 0.5}


def test_cv_counts_stop_reasons():
    X, y = logistic_data(seed=53, n=30, d=3)
    labels = np.where(y > 0, "case", "control")
    rep = cross_validate(X, labels, alphas=(1.0, 0.5), num_lambda=8,
                        folds=3, repeats=2, seed=3)
    # per repeat, fold and alpha: one outer path and five inner paths
    assert sum(rep.stop_reasons.values()) == 2 * 3 * 2 * 6 * 8
    assert "stop_reasons" not in rep.to_json()


@pytest.mark.parametrize("kw", [{"folds": 1}, {"folds": 0}, {"repeats": 0},
                                {"inner_folds": 1}])
def test_cv_rejects_counts_below_minimum(kw):
    X, y = logistic_data(seed=59, n=20, d=2)
    with pytest.raises(ValueError):
        cross_validate(X, y, **{"repeats": 1, **kw})


def test_cv_rejects_degenerate_labels():
    X, y = logistic_data(seed=59, n=20, d=2)
    with pytest.raises(ValueError):
        cross_validate(X, np.zeros(20), repeats=1)
    lone = np.array(["a"] * 19 + ["b"])
    with pytest.raises(ValueError):
        cross_validate(X, lone, repeats=1)


# ---------------------------------------------------------------------------
# kNN baseline
# ---------------------------------------------------------------------------

def test_knn_vote_tie_rules():
    # 2-2 vote: "a" wins on smaller summed distance
    assert _knn_vote(np.array([1.0, 2.0, 3.0, 4.0]),
                     np.array(["a", "b", "a", "b"]), 4) == "a"
    # 2-2 vote and equal sums: label order decides
    assert _knn_vote(np.array([1.0, 2.0, 2.0, 1.0]),
                     np.array(["b", "a", "b", "a"]), 4) == "a"
    assert _knn_vote(np.array([0.5, 1.0, 1.0]),
                     np.array(["b", "a", "a"]), 1) == "b"


def test_knn_duplicates_are_recovered():
    # 12 base points, each duplicated at distance zero; seed 30 is one where
    # every test point keeps its twin on the training side, so k=1 is exact
    rng = np.random.default_rng(61)
    base = rng.normal(size=(12, 2)) * 5.0
    pts = np.vstack([base, base])
    y = np.array((["a"] * 6 + ["b"] * 6) * 2)
    from scipy.spatial.distance import squareform, pdist
    from treespace import DistanceMatrix
    dm = DistanceMatrix(tuple(f"p{i}" for i in range(24)),
                        squareform(pdist(pts)))
    from treespace.classify import _folds_with_all_classes
    parts = _folds_with_all_classes(y, 2, (30,))
    for part in parts:
        held = set(part.tolist())
        assert all(not {i, i + 12} <= held for i in range(12))
    rep = knn_classify(dm, y, k=1, folds=2, seed=30)
    assert rep.mean == 1.0


def test_knn_separated_tree_clusters():
    pop = gen_tree_population(airway_template(), 30, attr_sigma=0.1,
                              class_shift={"LMB": 2.0, "Trachea": 1.5},
                              seed=9)
    dm = distance_matrix(pop.trees)
    rep = knn_classify(dm, np.array(pop.classes), k=5, folds=5, seed=2)
    assert rep.mean >= 0.95
    assert len(rep.accuracies) == 5


def test_knn_k_too_large():
    rng = np.random.default_rng(67)
    pts = rng.normal(size=(8, 2))
    from scipy.spatial.distance import squareform, pdist
    from treespace import DistanceMatrix
    dm = DistanceMatrix(tuple("abcdefgh"), squareform(pdist(pts)))
    y = np.array(["x", "y"] * 4)
    with pytest.raises(ValueError):
        knn_classify(dm, y, k=7, folds=2)
