"""Command-line front end.

Subcommands cover the whole pipeline: dataset generation, pairwise
distances, means, permutation tests, subtree features, classification,
nearest neighbors, deviation correlations, embeddings and distortion
reports.  Every run writes a manifest (argv, seeds, inputs, outputs,
version, duration; ``mean`` adds the solver's iterations, stop reason,
objective and orthant-solve evaluations, ``embed`` each restart's,
``dist`` counts its geodesic work, ``permtest`` its group means' stop
reasons and steps) next to its outputs, numeric outputs are byte-stable
for a fixed seed, and ``--deterministic`` additionally drops timestamps
from SVG files and the manifest.
``--threads N`` sets the worker processes of the commands that compute
many independent geodesic pairs or group means (``dist``, ``knn --input``
and ``permtest``); by default, and at most, they use every CPU this
process may run on.  Outputs do not depend on it.

Option precedence is flags, then ``--config`` JSON, then built-in
defaults.  Exit codes: 64 usage, 65 bad input, 70 computation failure.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .classify import cross_validate, knn_classify
from .distmat import DistanceMatrix, csv_text
from .embedding import EmbeddingConfig, distortion_report, embed
from .geodesic import (distance_matrix, distance_matrix_detailed,
                       geodesic_distance)
from .stats import (MeanConfig, frechet_mean, frechet_mean_detailed,
                    permutation_test, subtree_variance_correlation)
from .subtrees import (DEFAULT_BRANCH_LABELS, SubtreeScheme,
                       compute_reference_means, extract_subtree,
                       feature_matrix, fold_feature_builder, FeatureMatrix)
from .svgfig import svg_histogram, svg_pair_grid, svg_scatter
from .synthetic import (airway_template, gen_corner, gen_sheets,
                        gen_tree_population, MetricDataset)
from .trees import TreeError, parse_population, parse_tree, \
    serialize_population, serialize_tree

USAGE_ERROR, INPUT_ERROR, COMPUTE_ERROR = 64, 65, 70


class CliError(Exception):
    def __init__(self, code, message):
        super().__init__(message)
        self.code = code


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise CliError(USAGE_ERROR, f"usage: {message}")


# Defaults live outside argparse so config-file values can slot in between
# explicit flags and the built-ins.
_DEFAULTS: dict = {}


def _add(parser, cmd, *names, **kwargs):
    default = kwargs.pop("default", None)
    action = kwargs.get("action")
    dest = kwargs.get("dest") or names[-1].lstrip("-").replace("-", "_")
    _DEFAULTS.setdefault(cmd, {})[dest] = False if action == "store_true" \
        else default
    kwargs["default"] = argparse.SUPPRESS
    parser.add_argument(*names, **kwargs)


def _merged(args):
    cmd = getattr(args, "cmd", None)
    space = getattr(args, "space", None)
    merged = dict(_DEFAULTS.get(cmd, {}))
    if space:
        merged.update(_DEFAULTS.get(f"{cmd}.{space}", {}))
    given = vars(args)
    config_path = given.get("config") or merged.get("config")
    if config_path:
        try:
            cfg = json.loads(Path(config_path).read_text())
        except (OSError, json.JSONDecodeError) as e:
            raise CliError(INPUT_ERROR, f"config: {e}")
        if not isinstance(cfg, dict):
            raise CliError(INPUT_ERROR, "config: expected a JSON object")
        for key, value in cfg.items():
            key = key.replace("-", "_")
            if key in merged:
                merged[key] = value
    merged.update(given)
    return argparse.Namespace(**merged)


def _common(parser, cmd):
    _add(parser, cmd, "--seed", type=int, default=0)
    _add(parser, cmd, "--threads", type=int, default=None,
         help="worker processes for dist, knn --input and permtest "
              "(default, and at most: every CPU this process may run "
              "on; 1 runs serially); other commands run serially")
    _add(parser, cmd, "--config", default=None)
    _add(parser, cmd, "--deterministic", action="store_true")


def build_parser() -> _Parser:
    top = _Parser(prog="treespace", description=__doc__)
    top.add_argument("--version", action="version",
                     version=f"treespace {__version__}")
    sub = top.add_subparsers(dest="cmd", metavar="COMMAND")

    gen = sub.add_parser("gen", help="generate synthetic datasets")
    gensub = gen.add_subparsers(dest="space", metavar="SPACE")
    for space in ("corner", "sheets", "trees"):
        p = gensub.add_parser(space)
        key = f"gen.{space}"
        _add(p, key, "-o", "--output", required=True)
        if space == "corner":
            _add(p, key, "--n", type=int, default=250)
        elif space == "sheets":
            _add(p, key, "--sheets", type=int, default=5)
            _add(p, key, "--dim", type=int, default=2)
            _add(p, key, "--per-sheet", type=int, default=50)
        else:
            _add(p, key, "--n", type=int, default=50)
            _add(p, key, "--k", type=int, default=1)
            _add(p, key, "--attr-sigma", type=float, default=0.1)
            _add(p, key, "--topology-noise", type=float, default=0.0)
            _add(p, key, "--class-shift", default=None,
                 help="JSON object mapping branch labels to offsets")
            _add(p, key, "--template", default=None,
                 help="tree JSON file; defaults to the airway template")
        _common(p, key)

    p = sub.add_parser("dist", help="pairwise geodesic distance matrix")
    _add(p, "dist", "--input", required=True)
    _add(p, "dist", "-o", "--output", required=True)
    _common(p, "dist")

    p = sub.add_parser(
        "mean", help="Fréchet mean of a population",
        description="Fréchet mean of a population.  The search walks "
                    "toward the inputs in turn; for scalar lengths it also "
                    "minimises over the walk's orthant after cycles 2, 4, "
                    "8, ... and stops as soon as that point is certified "
                    "optimal.  mean.manifest.json says why it stopped: "
                    "certified, converged (the walk's gap rule) or cap.")
    _add(p, "mean", "--input", required=True)
    _add(p, "mean", "-o", "--output", required=True)
    _add(p, "mean", "--max-iterations", type=int, default=None,
         help="cap on the walk's steps (default 1000 per tree)")
    _add(p, "mean", "--tolerance", type=float,
         default=MeanConfig.tolerance,
         help="relative objective-gap estimate at which the walk stops; "
              "the certificate does not use it")
    _common(p, "mean")

    p = sub.add_parser("permtest", help="two-group permutation test")
    _add(p, "permtest", "--groups", required=True,
         help="population JSON with exactly two classes")
    _add(p, "permtest", "--statistic", choices=("mean", "variance"),
         default="mean")
    _add(p, "permtest", "--M", type=int, default=1000, dest="m")
    _add(p, "permtest", "--full", action="store_true",
         help="include all permuted statistics in the report")
    _add(p, "permtest", "-o", "--output", required=True)
    _common(p, "permtest")

    p = sub.add_parser("subtree-features",
                       help="subtree-distance feature matrix")
    _add(p, "subtree-features", "--input", required=True)
    _add(p, "subtree-features", "--mode",
         choices=("per-class", "pooled"), default="per-class")
    _add(p, "subtree-features", "--labels", nargs="+", default=None)
    _add(p, "subtree-features", "-o", "--output", required=True)
    _common(p, "subtree-features")

    p = sub.add_parser("classify", help="elastic-net cross-validation")
    _add(p, "classify", "--input", default=None,
         help="population JSON; features rebuilt per fold")
    _add(p, "classify", "--features", default=None,
         help="precomputed feature CSV")
    _add(p, "classify", "--mode", choices=("per-class", "pooled"),
         default="per-class")
    _add(p, "classify", "--labels", nargs="+", default=None)
    _add(p, "classify", "--alphas", nargs="+", type=float,
         default=[1.0, 0.75, 0.5, 0.25])
    _add(p, "classify", "--folds", type=int, default=5)
    _add(p, "classify", "--repeats", type=int, default=10)
    _add(p, "classify", "-o", "--output", required=True)
    _common(p, "classify")

    p = sub.add_parser("knn", help="nearest-neighbor baseline")
    _add(p, "knn", "--input", default=None, help="population JSON")
    _add(p, "knn", "--matrix", default=None, help="distance CSV")
    _add(p, "knn", "--k", type=int, default=5)
    _add(p, "knn", "--folds", type=int, default=5)
    _add(p, "knn", "-o", "--output", required=True)
    _common(p, "knn")

    p = sub.add_parser("correlate",
                       help="subtree deviation correlations")
    _add(p, "correlate", "--input", required=True)
    _add(p, "correlate", "--labels", nargs="+", default=None)
    _add(p, "correlate", "-o", "--output", required=True,
         help="output directory")
    _common(p, "correlate")

    p = sub.add_parser("embed", help="2-D embedding of a distance matrix")
    _add(p, "embed", "--input", required=True, help="distance CSV")
    _add(p, "embed", "--method",
         choices=("mds", "isomap", "hmds", "hisomap"), default="hmds")
    _add(p, "embed", "--isomap-k", type=int, default=10)
    _add(p, "embed", "--restarts", type=int, default=5)
    _add(p, "embed", "--max-iterations", type=int, default=10000)
    _add(p, "embed", "--bins", type=int, default=20)
    _add(p, "embed", "-o", "--output", required=True,
         help="output directory")
    _common(p, "embed")

    p = sub.add_parser("distortion", help="compare two distance matrices")
    _add(p, "distortion", "--original", required=True)
    _add(p, "distortion", "--embedded", required=True)
    _add(p, "distortion", "--bins", type=int, default=20)
    _add(p, "distortion", "-o", "--output", required=True)
    _common(p, "distortion")
    return top


# ---------------------------------------------------------------------------
# IO helpers
# ---------------------------------------------------------------------------

def _read_text(path):
    try:
        return Path(path).read_text()
    except OSError as e:
        raise CliError(INPUT_ERROR, f"input: {e}")


def _load_population(path):
    try:
        return parse_population(_read_text(path))
    except (TreeError, ValueError, KeyError, json.JSONDecodeError) as e:
        raise CliError(INPUT_ERROR, f"input: {path}: {e}")


def _load_matrix(path):
    try:
        return DistanceMatrix.from_csv(_read_text(path))
    except ValueError as e:
        raise CliError(INPUT_ERROR, f"input: {path}: {e}")


def _load_features(path):
    try:
        return FeatureMatrix.from_csv(_read_text(path))
    except ValueError as e:
        raise CliError(INPUT_ERROR, f"input: {path}: {e}")


def _json_text(data):
    return json.dumps(data, indent=2, sort_keys=True) + "\n"


def _write(path, text):
    path = Path(path)
    if path.parent != Path(""):
        path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)
    return str(path)


def _timestamp(args):
    if args.deterministic:
        return None
    return time.strftime("%Y-%m-%dT%H:%M:%S")


def _manifest(args, argv, inputs, outputs, t0, where, diagnostics=None):
    data = {
        "command": args.cmd,
        "argv": list(argv),
        "seed": getattr(args, "seed", None),
        "inputs": [str(p) for p in inputs],
        "outputs": [str(p) for p in outputs],
        "version": __version__,
        "duration_s": 0.0 if args.deterministic
        else round(time.time() - t0, 3),
    }
    if diagnostics is not None:
        data["diagnostics"] = diagnostics
    _write(where, _json_text(data))


def _require_two_classes(classes, path):
    if classes is None:
        raise CliError(INPUT_ERROR,
                       f"input: {path}: population has no class column")
    uniq = sorted(set(classes))
    if len(uniq) != 2:
        raise CliError(INPUT_ERROR,
                       f"input: {path}: need exactly two classes, "
                       f"found {uniq}")
    return uniq


def _scheme(label_args):
    labels = tuple(label_args) if label_args else DEFAULT_BRANCH_LABELS
    return SubtreeScheme(labels)


# ---------------------------------------------------------------------------
# command handlers
# ---------------------------------------------------------------------------

def _cmd_gen(args, argv, t0):
    out = Path(args.output)
    if args.space == "corner":
        ds = gen_corner(args.n, args.seed)
    elif args.space == "sheets":
        ds = gen_sheets(args.sheets, args.dim, args.per_sheet, args.seed)
    elif args.space == "trees":
        if args.template:
            template = parse_tree(_read_text(args.template))
        else:
            template = airway_template(args.k)
        shift = None
        if args.class_shift:
            try:
                shift = json.loads(args.class_shift)
            except json.JSONDecodeError as e:
                raise CliError(INPUT_ERROR, f"class-shift: {e}")
        pop = gen_tree_population(template, args.n, args.topology_noise,
                                  args.attr_sigma, shift, args.seed)
        path = _write(out, serialize_population(pop.trees, pop.classes))
        _manifest(args, argv, [], [path], t0,
                  out.with_suffix(".manifest.json"))
        return
    else:
        raise CliError(USAGE_ERROR, "usage: gen needs corner|sheets|trees")
    ds_path = _write(out, _json_text(ds.to_json()))
    csv_path = _write(out.with_suffix(".csv"), ds.matrix.to_csv())
    _manifest(args, argv, [], [ds_path, csv_path], t0,
              out.with_suffix(".manifest.json"))


def _cmd_dist(args, argv, t0):
    trees, classes = _load_population(args.input)
    labels = tuple(str(c) for c in classes) if classes else None
    dm, counts = distance_matrix_detailed(trees, labels=labels,
                                          workers=args.threads)
    path = _write(args.output, dm.to_csv())
    _manifest(args, argv, [args.input], [path], t0,
              Path(args.output).with_suffix(".manifest.json"),
              diagnostics=counts)


def _cmd_mean(args, argv, t0):
    trees, _ = _load_population(args.input)
    cfg = MeanConfig(args.max_iterations, args.tolerance, args.seed,
                     certify=True)
    result = frechet_mean_detailed(trees, cfg)
    path = _write(args.output, serialize_tree(result.tree) + "\n")
    _manifest(args, argv, [args.input], [path], t0,
              Path(args.output).with_suffix(".manifest.json"),
              diagnostics={"iterations": result.iterations,
                           "stop_reason": result.stop_reason,
                           "objective": result.objective,
                           "orthant_evaluations": result.evaluations})


def _cmd_permtest(args, argv, t0):
    trees, classes = _load_population(args.groups)
    uniq = _require_two_classes(classes, args.groups)
    g1 = [t for t, c in zip(trees, classes) if c == uniq[0]]
    g2 = [t for t, c in zip(trees, classes) if c == uniq[1]]
    report = permutation_test(g1, g2, args.statistic, args.m, args.seed,
                              workers=args.threads)
    path = _write(args.output, _json_text(report.to_json(args.full)))
    _manifest(args, argv, [args.groups], [path], t0,
              Path(args.output).with_suffix(".manifest.json"),
              diagnostics={"mean_stop_reasons": report.mean_stop_reasons,
                           "mean_iterations": report.mean_iterations})


def _cmd_features(args, argv, t0):
    trees, classes = _load_population(args.input)
    scheme = _scheme(args.labels)
    if args.mode == "per-class":
        _require_two_classes(classes, args.input)
    cfg = MeanConfig(seed=args.seed, certify=True)
    means = compute_reference_means(trees, classes, scheme, args.mode, cfg)
    fm = feature_matrix(trees, scheme, means, y=classes)
    path = _write(args.output, fm.to_csv())
    _manifest(args, argv, [args.input], [path], t0,
              Path(args.output).with_suffix(".manifest.json"))


def _cmd_classify(args, argv, t0):
    if bool(args.input) == bool(args.features):
        raise CliError(USAGE_ERROR,
                       "usage: classify needs --input or --features")
    if args.input:
        trees, classes = _load_population(args.input)
        _require_two_classes(classes, args.input)
        scheme = _scheme(args.labels)
        cfg = MeanConfig(seed=args.seed, certify=True)
        builder = fold_feature_builder(trees, classes, scheme, args.mode,
                                       cfg)
        names = builder(np.arange(len(trees))).column_names
        report = cross_validate(None, np.array(classes),
                                alphas=tuple(args.alphas),
                                folds=args.folds, repeats=args.repeats,
                                seed=args.seed, fold_features=builder,
                                column_names=names)
        inputs = [args.input]
    else:
        fm = _load_features(args.features)
        if fm.y is None:
            raise CliError(INPUT_ERROR,
                           f"input: {args.features}: no class column")
        report = cross_validate(fm.values, np.array(fm.y),
                                alphas=tuple(args.alphas),
                                folds=args.folds, repeats=args.repeats,
                                seed=args.seed,
                                column_names=fm.column_names)
        inputs = [args.features]
    path = _write(args.output, _json_text(report.to_json()))
    _manifest(args, argv, inputs, [path], t0,
              Path(args.output).with_suffix(".manifest.json"),
              diagnostics={"stop_reasons": report.stop_reasons})


def _cmd_knn(args, argv, t0):
    if bool(args.input) == bool(args.matrix):
        raise CliError(USAGE_ERROR, "usage: knn needs --input or --matrix")
    if args.input:
        trees, classes = _load_population(args.input)
        if classes is None:
            raise CliError(INPUT_ERROR,
                           f"input: {args.input}: no class column")
        dm = distance_matrix(trees, labels=tuple(map(str, classes)),
                             workers=args.threads)
        y = list(classes)
        inputs = [args.input]
    else:
        dm = _load_matrix(args.matrix)
        if dm.labels is None:
            raise CliError(INPUT_ERROR,
                           f"input: {args.matrix}: no label column")
        y = list(dm.labels)
        inputs = [args.matrix]
    report = knn_classify(dm, y, args.k, args.folds, args.seed)
    path = _write(args.output, _json_text(report.to_json()))
    _manifest(args, argv, inputs, [path], t0,
              Path(args.output).with_suffix(".manifest.json"))


def _cmd_correlate(args, argv, t0):
    trees, _ = _load_population(args.input)
    scheme = _scheme(args.labels)
    populations = {lab: [extract_subtree(t, lab) for t in trees]
                   for lab in scheme.labels}
    cfg = MeanConfig(seed=args.seed, certify=True)
    means = {lab: frechet_mean(subs, cfg)
             for lab, subs in populations.items()}
    corr = subtree_variance_correlation(populations, means)
    out = Path(args.output)
    stamp = _timestamp(args)

    def table(corner, names, rows):
        return csv_text([[corner, *corr.labels]] + [
            [name, *(f"{v:.17g}" for v in row)]
            for name, row in zip(names, rows)])

    outputs = [
        _write(out / "correlation.csv",
               table("label", corr.labels, corr.matrix)),
        _write(out / "deviations.csv",
               table("id", (f"s{i}" for i in range(len(corr.deviations))),
                     corr.deviations)),
        _write(out / "pairs.svg",
               svg_pair_grid(corr.deviations, corr.labels,
                             timestamp=stamp)),
    ]
    _manifest(args, argv, [args.input], outputs, t0, out / "manifest.json")


def _cmd_embed(args, argv, t0):
    dm = _load_matrix(args.input)
    cfg = EmbeddingConfig(args.method, args.isomap_k, args.max_iterations,
                          seed=args.seed, restarts=args.restarts,
                          bins=args.bins)
    result = embed(dm, cfg)
    out = Path(args.output)
    stamp = _timestamp(args)
    coords = result.coordinates
    lab = result.labels or ("",) * len(coords)
    coord_rows = [["id", "label", "x", "y"]] + [
        [i, l, f"{x:.17g}", f"{y:.17g}"]
        for i, l, (x, y) in zip(result.ids, lab, coords)]
    summary = {
        "method": result.method,
        "metric": result.metric,
        "final_stress": result.final_stress,
        "iterations": result.iterations,
        "distortion": result.distortion.to_json(),
    }
    outputs = [
        _write(out / "coordinates.csv", csv_text(coord_rows)),
        _write(out / "embedding.json", _json_text(summary)),
        _write(out / "scatter.svg",
               svg_scatter(coords, lab, title=result.method,
                           timestamp=stamp)),
        _write(out / "histogram.svg",
               svg_histogram(result.distortion.histogram_counts,
                             result.distortion.histogram_edges,
                             title="additive error", timestamp=stamp)),
    ]
    runs = result.restarts or (result,)  # a flat fit is its only run
    stresses = [r.final_stress for r in runs]
    _manifest(args, argv, [args.input], outputs, t0, out / "manifest.json",
              diagnostics={"restarts": [
                  {"iterations": r.iterations, "stop_reason": r.stop_reason,
                   "final_stress": r.final_stress} for r in runs],
                  "best": stresses.index(result.final_stress)})


def _cmd_distortion(args, argv, t0):
    orig = _load_matrix(args.original)
    emb = _load_matrix(args.embedded)
    if orig.ids != emb.ids:
        raise CliError(INPUT_ERROR, "input: matrices have different ids")
    report = distortion_report(orig, emb, args.bins)
    path = _write(args.output, _json_text(report.to_json()))
    _manifest(args, argv, [args.original, args.embedded], [path], t0,
              Path(args.output).with_suffix(".manifest.json"))


_HANDLERS = {
    "gen": _cmd_gen,
    "dist": _cmd_dist,
    "mean": _cmd_mean,
    "permtest": _cmd_permtest,
    "subtree-features": _cmd_features,
    "classify": _cmd_classify,
    "knn": _cmd_knn,
    "correlate": _cmd_correlate,
    "embed": _cmd_embed,
    "distortion": _cmd_distortion,
}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    t0 = time.time()
    try:
        parser = build_parser()
        args = parser.parse_args(argv)
        if not getattr(args, "cmd", None):
            raise CliError(USAGE_ERROR, "usage: missing subcommand")
        if args.cmd == "gen" and not getattr(args, "space", None):
            raise CliError(USAGE_ERROR, "usage: gen needs corner|sheets|trees")
        args = _merged(args)
        try:
            _HANDLERS[args.cmd](args, argv, t0)
        except CliError:
            raise
        except (TreeError,) as e:
            raise CliError(INPUT_ERROR, f"input: {e}")
        except (ValueError, KeyError, ArithmeticError) as e:
            raise CliError(COMPUTE_ERROR, f"compute: {e}")
        return 0
    except CliError as e:
        print(f"treespace: error: {e}", file=sys.stderr)
        return e.code
    except SystemExit as e:  # argparse --version/--help
        return int(e.code or 0)


if __name__ == "__main__":
    sys.exit(main())
