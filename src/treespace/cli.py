"""Command-line front end.

Subcommands cover the whole pipeline: dataset generation, pairwise
distances, means, permutation tests, subtree features, classification,
nearest neighbors, deviation correlations, embeddings and distortion
reports.  Every run writes a manifest (argv, seeds, inputs, outputs,
version, duration; ``mean`` adds the solver's iterations, hops, stop
reason, objective and orthant-solve evaluations, ``embed`` each
restart's, ``dist`` and ``knn --input`` count their geodesic work,
``permtest`` its group means' stop reasons, steps and hops) next to its
outputs, numeric outputs are byte-stable for a fixed seed, and
``--deterministic`` additionally drops timestamps from SVG files and the
manifest.
``--threads N`` sets the worker processes of the commands that compute
many independent geodesic pairs, group means or embedding restarts
(``dist``, ``knn --input``, ``permtest`` and ``embed``); by default, and
at most, they use every CPU this process may run on.  Outputs do not
depend on it.

Option precedence is flags, then ``--config`` JSON, then built-in
defaults; config values pass the same checks as flags.  Exit codes: 64
usage (a negative ``--seed``, an output path that cannot be written, and
an option out of its range included: an integer below 1 for counts and
sizes such as ``--threads``, ``--M`` or ``--n``, below 2 for ``--folds``,
``--sheets`` and ``--dim``; a number that is not finite, or not above 0
for ``--tolerance``, below 0 for ``--attr-sigma``, outside [0, 1] for
``--topology-noise`` or outside (0, 1] for ``--alphas``; and a value
given twice to ``--alphas`` or ``--labels``), 65 bad input, 70
computation failure (a value in range that the data cannot meet, and a
worker process that died, included).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from collections import Counter
from pathlib import Path

import numpy as np

from . import __version__
from ._bounds import (ABOVE_ZERO, COUNT, FRACTION, FROM_ZERO, MIX, SEED,
                      TWO_UP)
from .classify import cross_validate, knn_classify
from .distmat import DistanceMatrix, csv_text
from .embedding import EmbeddingConfig, distortion_report, embed
# geodesic_distance is unused here, but bench/test_bench.py checks that the
# benchmark tracer wraps this module's binding of it
from .geodesic import distance_matrix_detailed, geodesic_distance
from .stats import (MeanConfig, correlation_matrix, frechet_mean_detailed,
                    permutation_test)
from .subtrees import (DEFAULT_BRANCH_LABELS, SubtreeScheme, _fold_builder,
                       FeatureMatrix)
from .svgfig import svg_histogram, svg_pair_grid, svg_scatter
from .synthetic import (_shift_offsets, airway_template, gen_corner,
                        gen_sheets, gen_tree_population, MetricDataset)
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


def _option(bound):
    """An argparse type that takes the numbers ``bound`` holds."""
    def parse(text):
        try:
            value = bound.kind(text)
        except ValueError:
            value = None
        if not bound.holds(value):
            raise argparse.ArgumentTypeError(
                f"expected {bound.phrase}, got {text!r}")
        return value
    return parse


class _Distinct(argparse.Action):
    """Store an option's values, which must all differ."""

    def __call__(self, parser, namespace, values, option_string=None):
        for i, value in enumerate(values):
            if value in values[:i]:
                raise argparse.ArgumentError(self, f"{value} given twice")
        setattr(namespace, self.dest, values)


def _common(parser, handler):
    parser.add_argument("--seed", type=_option(SEED), default=0)
    parser.add_argument(
        "--threads", type=_option(COUNT), default=None,
        help="worker processes for dist, knn --input, permtest and "
             "embed's restarts (default, and at most: every CPU this "
             "process may run on; 1 runs serially); other commands run "
             "serially")
    parser.add_argument("--config", default=None)
    parser.add_argument("--deterministic", action="store_true")
    parser.set_defaults(handler=handler, parser=parser)


def build_parser(words=()) -> _Parser:
    """The command table as a parser.  When ``words``, the first two words
    of an argv, name a command (and for gen a space), only that command's
    parser is built: that argv parses the same, at about a seventh of the
    cost.  Words that name no command get the whole table."""
    # the module docstring, without its reST literal markup
    top = _Parser(prog="treespace", description=__doc__.replace("``", ""))
    top.add_argument("--version", action="version",
                     version=f"treespace {__version__}")
    sub = top.add_subparsers(dest="cmd", metavar="COMMAND")
    cmd, only = (*words, None, None)[:2]

    def add(name, **kwargs):
        """Command ``name``'s parser, or None if ``words`` name another."""
        return sub.add_parser(name, **kwargs) if cmd in (None, name) \
            else None

    if gen := add("gen", help="generate synthetic datasets"):
        gensub = gen.add_subparsers(dest="space", metavar="SPACE")
        spaces = ("corner", "sheets", "trees")
        for space in (only,) if only in spaces else spaces:
            p = gensub.add_parser(space)
            p.add_argument("-o", "--output", required=True)
            if space == "corner":
                p.add_argument("--n", type=_option(COUNT), default=250)
            elif space == "sheets":
                p.add_argument("--sheets", type=_option(TWO_UP), default=5)
                p.add_argument("--dim", type=_option(TWO_UP), default=2)
                p.add_argument("--per-sheet", type=_option(COUNT), default=50)
            else:
                p.add_argument("--n", type=_option(COUNT), default=50)
                p.add_argument("--k", type=_option(COUNT), default=None,
                               help="attribute dimension of the airway "
                                    "template (default 1)")
                p.add_argument("--attr-sigma", type=_option(FROM_ZERO),
                               default=0.1)
                p.add_argument("--topology-noise", type=_option(FRACTION),
                               default=0.0)
                p.add_argument("--class-shift", default=None,
                               help="JSON object mapping branch labels to "
                                    "offsets")
                p.add_argument("--template", default=None,
                               help="tree JSON file; defaults to the "
                                    "airway template")
            _common(p, _cmd_gen)

    if p := add("dist", help="pairwise geodesic distance matrix"):
        p.add_argument("--input", required=True)
        p.add_argument("-o", "--output", required=True)
        _common(p, _cmd_dist)

    if p := add(
            "mean", help="Fréchet mean of a population",
            description="Fréchet mean of a population.  The search walks "
                        "toward the inputs in turn; for scalar lengths it "
                        "also minimises over the walk's orthant after "
                        "cycles 2, 4, 8, ... and stops as soon as that "
                        "point is certified optimal.  mean.manifest.json "
                        "says why it stopped: certified, converged (the "
                        "walk's gap rule) or cap."):
        p.add_argument("--input", required=True)
        p.add_argument("-o", "--output", required=True)
        p.add_argument("--max-iterations", type=_option(COUNT), default=None,
                       help="cap on the walk's steps (default 1000 per "
                            "tree)")
        p.add_argument("--tolerance", type=_option(ABOVE_ZERO),
                       default=MeanConfig.tolerance,
                       help="relative objective-gap estimate at which the "
                            "walk stops; the certificate does not use it")
        _common(p, _cmd_mean)

    if p := add("permtest", help="two-group permutation test"):
        p.add_argument("--groups", required=True,
                       help="population JSON with exactly two classes")
        p.add_argument("--statistic", choices=("mean", "variance"),
                       default="mean")
        p.add_argument("--M", type=_option(COUNT), default=1000, dest="m")
        p.add_argument("--full", action="store_true",
                       help="include all permuted statistics in the report")
        p.add_argument("-o", "--output", required=True)
        _common(p, _cmd_permtest)

    if p := add("subtree-features", help="subtree-distance feature matrix"):
        p.add_argument("--input", required=True)
        p.add_argument("--mode", choices=("per-class", "pooled"),
                       default="per-class")
        p.add_argument("--labels", nargs="+", action=_Distinct,
                       default=None)
        p.add_argument("-o", "--output", required=True)
        _common(p, _cmd_features)

    if p := add("classify", help="elastic-net cross-validation"):
        p.add_argument("--input", default=None,
                       help="population JSON; features rebuilt per fold")
        p.add_argument("--features", default=None,
                       help="precomputed feature CSV")
        p.add_argument("--mode", choices=("per-class", "pooled"),
                       default="per-class")
        p.add_argument("--labels", nargs="+", action=_Distinct,
                       default=None)
        p.add_argument("--alphas", nargs="+", type=_option(MIX),
                       action=_Distinct, default=[1.0, 0.75, 0.5, 0.25])
        p.add_argument("--folds", type=_option(TWO_UP), default=5)
        p.add_argument("--repeats", type=_option(COUNT), default=10)
        p.add_argument("-o", "--output", required=True)
        _common(p, _cmd_classify)

    if p := add("knn", help="nearest-neighbor baseline"):
        p.add_argument("--input", default=None, help="population JSON")
        p.add_argument("--matrix", default=None, help="distance CSV")
        p.add_argument("--k", type=_option(COUNT), default=5)
        p.add_argument("--folds", type=_option(TWO_UP), default=5)
        p.add_argument("-o", "--output", required=True)
        _common(p, _cmd_knn)

    if p := add("correlate", help="subtree deviation correlations"):
        p.add_argument("--input", required=True)
        p.add_argument("--labels", nargs="+", action=_Distinct,
                       default=None)
        p.add_argument("-o", "--output", required=True,
                       help="output directory")
        _common(p, _cmd_correlate)

    if p := add("embed", help="2-D embedding of a distance matrix"):
        p.add_argument("--input", required=True, help="distance CSV")
        p.add_argument("--method",
                       choices=("mds", "isomap", "hmds", "hisomap"),
                       default="hmds")
        p.add_argument("--isomap-k", type=_option(COUNT), default=10)
        p.add_argument("--restarts", type=_option(COUNT), default=5)
        p.add_argument("--max-iterations", type=_option(COUNT), default=10000)
        p.add_argument("--bins", type=_option(COUNT), default=20)
        p.add_argument("-o", "--output", required=True,
                       help="output directory")
        _common(p, _cmd_embed)

    if p := add("distortion", help="compare two distance matrices"):
        p.add_argument("--original", required=True)
        p.add_argument("--embedded", required=True)
        p.add_argument("--bins", type=_option(COUNT), default=20)
        p.add_argument("-o", "--output", required=True)
        _common(p, _cmd_distortion)
    return top if sub.choices else build_parser()


def _config_tokens(parser, path):
    """The ``--config`` JSON object as option tokens for the command
    ``parser``, so its values meet the same checks as flags.  Keys name
    option dests (``-`` or ``_``) or option strings without their dashes
    (``M`` for ``--M``); keys of no option, and null values, are skipped.
    A switch takes true or false, an option of several values a list or
    one value."""
    try:
        cfg = json.loads(Path(path).read_text())
    except (OSError, ValueError) as e:
        raise CliError(INPUT_ERROR, f"config: {e}")
    if not isinstance(cfg, dict):
        raise CliError(INPUT_ERROR, "config: expected a JSON object")
    options = {}
    for a in parser._actions:
        if a.option_strings and a.dest not in ("help", "config"):
            for name in (a.dest, *a.option_strings):
                options[name.lstrip("-").replace("-", "_")] = a
    tokens = []
    for key, value in cfg.items():
        action = options.get(key.replace("-", "_"))
        if action is None or value is None:
            continue
        flag = action.option_strings[-1]
        if action.nargs == 0:
            if not isinstance(value, bool):
                raise CliError(USAGE_ERROR,
                               f"usage: config: {flag} takes true or false")
            if value:
                tokens.append(flag)
        elif action.nargs == "+" and isinstance(value, list):
            tokens += [flag, *map(_token, value)]
        else:
            tokens.append(f"{flag}={_token(value)}")
    return tokens


def _token(value):
    return value if isinstance(value, str) else json.dumps(value)


def _parse(argv):
    """Parse ``argv``; with ``--config``, parse again with the config's
    tokens after the command words, so the user's flags still win."""
    parser = build_parser(argv[:2])
    args = parser.parse_args(argv)
    if not getattr(args, "cmd", None):
        raise CliError(USAGE_ERROR, "usage: missing subcommand")
    if args.cmd == "gen" and not args.space:
        raise CliError(USAGE_ERROR, "usage: gen needs corner|sheets|trees")
    if args.config:
        words = 2 if args.cmd == "gen" else 1
        args = parser.parse_args([*argv[:words],
                                  *_config_tokens(args.parser, args.config),
                                  *argv[words:]])
    return args


# ---------------------------------------------------------------------------
# IO helpers
# ---------------------------------------------------------------------------

def _read_text(path):
    try:
        return Path(path).read_text()
    except OSError as e:
        raise CliError(INPUT_ERROR, f"input: {e}")


def _load(path, parse):
    """``parse`` applied to the text of ``path``; any failure is bad input."""
    try:
        return parse(_read_text(path))
    except (ValueError, KeyError) as e:  # TreeError and JSON errors too
        raise CliError(INPUT_ERROR, f"input: {path}: {_message(e)}")


def _message(e):
    """``e`` as text; ``str`` would quote a KeyError's message."""
    return e.args[0] if isinstance(e, KeyError) and e.args else e


def _json_text(data):
    return json.dumps(data, indent=2, sort_keys=True) + "\n"


def _write(path, text):
    path = Path(path)
    try:
        if path.parent != Path(""):
            path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    except OSError as e:
        raise CliError(USAGE_ERROR, f"output: {e}")
    return str(path)


def _timestamp(args):
    if args.deterministic:
        return None
    return time.strftime("%Y-%m-%dT%H:%M:%S")


def _manifest(args, argv, inputs, outputs, diagnostics, t0):
    """Write the run's manifest: ``manifest.json`` inside the output
    directory of ``correlate`` and ``embed``, else ``<output
    stem>.manifest.json``."""
    out = Path(args.output)
    where = out / "manifest.json" if args.cmd in ("correlate", "embed") \
        else out.with_suffix(".manifest.json")
    data = {
        "command": args.cmd,
        "argv": list(argv),
        "seed": args.seed,
        "inputs": [str(p) for p in inputs],
        "outputs": [str(p) for p in outputs],
        "version": __version__,
        "duration_s": 0.0 if args.deterministic
        else round(time.time() - t0, 3),
    }
    if diagnostics is not None:
        data["diagnostics"] = diagnostics
    _write(where, _json_text(data))


def _require_classes(classes, path):
    if classes is None or None in classes:
        raise CliError(INPUT_ERROR,
                       f"input: {path}: every tree needs a class")


def _require_two_classes(classes, path):
    _require_classes(classes, path)
    uniq = sorted(set(classes))
    if len(uniq) != 2:
        raise CliError(INPUT_ERROR,
                       f"input: {path}: need exactly two classes, "
                       f"found {uniq}")
    return uniq


def _features(args, trees, classes, mode):
    """The fold feature builder for ``--labels`` and ``--seed``, the
    feature matrix it builds with means over every tree, and how those
    means stopped, in ``permtest``'s diagnostics shape."""
    scheme = SubtreeScheme(tuple(args.labels or DEFAULT_BRANCH_LABELS))
    cfg = MeanConfig(seed=args.seed, certify=True)
    build = _fold_builder(trees, classes, scheme, mode, cfg)
    fm, results = build(np.arange(len(trees)))
    return (lambda train_idx: build(train_idx)[0]), fm, {
        "mean_stop_reasons": dict(Counter(
            r.stop_reason for r in results.values())),
        "mean_iterations": sum(r.iterations for r in results.values()),
        "mean_hops": sum(r.hops for r in results.values())}


def _class_shift(text, template):
    """The ``--class-shift`` JSON object, checked against ``template``."""
    try:
        shift = json.loads(text)
        if not isinstance(shift, dict):
            raise ValueError("expected a JSON object")
        _shift_offsets(shift, template)
    except ValueError as e:  # JSON errors too
        raise CliError(INPUT_ERROR, f"class-shift: {e}")
    return shift


# ---------------------------------------------------------------------------
# command handlers
# ---------------------------------------------------------------------------

def _cmd_gen(args):
    out = Path(args.output)
    if args.space == "trees":
        if args.template and args.k is not None:
            raise CliError(USAGE_ERROR, "usage: --k sets the airway "
                                        "template; --template has its own")
        template = _load(args.template, parse_tree) if args.template \
            else airway_template(args.k or 1)
        shift = _class_shift(args.class_shift, template) \
            if args.class_shift else None
        pop = gen_tree_population(template, args.n, args.topology_noise,
                                  args.attr_sigma, shift, args.seed)
        return [], [_write(out, serialize_population(pop.trees,
                                                     pop.classes))], None
    if args.space == "corner":
        ds = gen_corner(args.n, args.seed)
    else:
        ds = gen_sheets(args.sheets, args.dim, args.per_sheet, args.seed)
    return [], [_write(out, _json_text(ds.to_json())),
                _write(out.with_suffix(".csv"), ds.matrix.to_csv())], None


def _cmd_dist(args):
    trees, classes = _load(args.input, parse_population)
    labels = tuple(c or "" for c in classes) if classes else None
    dm, counts = distance_matrix_detailed(trees, labels=labels,
                                          workers=args.threads)
    return [args.input], [_write(args.output, dm.to_csv())], counts


def _cmd_mean(args):
    trees, _ = _load(args.input, parse_population)
    cfg = MeanConfig(args.max_iterations, args.tolerance, args.seed,
                     certify=True)
    result = frechet_mean_detailed(trees, cfg)
    path = _write(args.output, serialize_tree(result.tree) + "\n")
    return [args.input], [path], {
        "iterations": result.iterations,
        "hops": result.hops,
        "stop_reason": result.stop_reason,
        "objective": result.objective,
        "orthant_evaluations": result.evaluations}


def _cmd_permtest(args):
    trees, classes = _load(args.groups, parse_population)
    uniq = _require_two_classes(classes, args.groups)
    g1 = [t for t, c in zip(trees, classes) if c == uniq[0]]
    g2 = [t for t, c in zip(trees, classes) if c == uniq[1]]
    report = permutation_test(g1, g2, args.statistic, args.m, args.seed,
                              workers=args.threads)
    path = _write(args.output, _json_text(report.to_json(args.full)))
    return [args.groups], [path], {
        "mean_stop_reasons": report.mean_stop_reasons,
        "mean_iterations": report.mean_iterations,
        "mean_hops": report.mean_hops}


def _cmd_features(args):
    trees, classes = _load(args.input, parse_population)
    if args.mode == "per-class":
        _require_two_classes(classes, args.input)
    elif classes is not None:
        _require_classes(classes, args.input)
    _, fm, diagnostics = _features(args, trees, classes, args.mode)
    return [args.input], [_write(args.output, fm.to_csv())], diagnostics


def _cmd_classify(args):
    if bool(args.input) == bool(args.features):
        raise CliError(USAGE_ERROR,
                       "usage: classify needs --input or --features")
    if args.input:
        trees, y = _load(args.input, parse_population)
        _require_two_classes(y, args.input)
        builder, fm, _ = _features(args, trees, y, args.mode)
        x, names = fm.values, fm.column_names
    else:
        fm = _load(args.features, FeatureMatrix.from_csv)
        if fm.y is None:
            raise CliError(INPUT_ERROR,
                           f"input: {args.features}: no class column")
        x, y, names, builder = fm.values, fm.y, fm.column_names, None
    report = cross_validate(x, np.array(y), alphas=tuple(args.alphas),
                            folds=args.folds, repeats=args.repeats,
                            seed=args.seed, fold_features=builder,
                            column_names=names)
    path = _write(args.output, _json_text(report.to_json()))
    return [args.input or args.features], [path], {
        "stop_reasons": report.stop_reasons}


def _cmd_knn(args):
    if bool(args.input) == bool(args.matrix):
        raise CliError(USAGE_ERROR, "usage: knn needs --input or --matrix")
    if args.input:
        trees, classes = _load(args.input, parse_population)
        _require_classes(classes, args.input)
        dm, counts = distance_matrix_detailed(
            trees, labels=tuple(map(str, classes)), workers=args.threads)
        y = list(classes)
    else:
        dm, counts = _load(args.matrix, DistanceMatrix.from_csv), None
        if dm.labels is None:
            raise CliError(INPUT_ERROR,
                           f"input: {args.matrix}: no label column")
        if "" in dm.labels:
            raise CliError(INPUT_ERROR,
                           f"input: {args.matrix}: every row needs a label")
        y = list(dm.labels)
    report = knn_classify(dm, y, args.k, args.folds, args.seed)
    path = _write(args.output, _json_text(report.to_json()))
    return [args.input or args.matrix], [path], counts


def _cmd_correlate(args):
    trees, _ = _load(args.input, parse_population)
    _, fm, diagnostics = _features(args, trees, None, "pooled")
    labels = fm.column_names
    out = Path(args.output)

    def table(corner, names, rows):
        return csv_text([[corner, *labels]] + [
            [name, *(f"{v:.17g}" for v in row)]
            for name, row in zip(names, rows)])

    return [args.input], [
        _write(out / "correlation.csv",
               table("label", labels, correlation_matrix(fm.values))),
        _write(out / "deviations.csv", table("id", fm.ids, fm.values)),
        _write(out / "pairs.svg",
               svg_pair_grid(fm.values, labels, timestamp=_timestamp(args))),
    ], diagnostics


def _cmd_embed(args):
    dm = _load(args.input, DistanceMatrix.from_csv)
    cfg = EmbeddingConfig(args.method, args.isomap_k, args.max_iterations,
                          seed=args.seed, restarts=args.restarts,
                          bins=args.bins)
    result = embed(dm, cfg, workers=args.threads)
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
    return [args.input], outputs, {
        "restarts": [{"iterations": r.iterations,
                      "stop_reason": r.stop_reason,
                      "final_stress": r.final_stress} for r in runs],
        "best": stresses.index(result.final_stress)}


def _cmd_distortion(args):
    orig = _load(args.original, DistanceMatrix.from_csv)
    emb = _load(args.embedded, DistanceMatrix.from_csv)
    if orig.ids != emb.ids:
        raise CliError(INPUT_ERROR, "input: matrices have different ids")
    report = distortion_report(orig, emb, args.bins)
    path = _write(args.output, _json_text(report.to_json()))
    return [args.original, args.embedded], [path], None


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    t0 = time.time()
    try:
        args = _parse(argv)
        try:
            inputs, outputs, diagnostics = args.handler(args)
        except CliError:
            raise
        except TreeError as e:
            raise CliError(INPUT_ERROR, f"input: {e}")
        except (ValueError, KeyError, ArithmeticError,
                ChildProcessError) as e:  # the last: a pool worker died
            raise CliError(COMPUTE_ERROR, f"compute: {_message(e)}")
        _manifest(args, argv, inputs, outputs, diagnostics, t0)
        return 0
    except CliError as e:
        print(f"treespace: error: {e}", file=sys.stderr)
        return e.code
    except SystemExit as e:  # argparse --version/--help
        return int(e.code or 0)


if __name__ == "__main__":
    sys.exit(main())
