import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import treespace
from treespace.cli import CliError, build_parser, main
from treespace.distmat import DistanceMatrix, csv_rows, csv_text
from treespace.geodesic import distance_matrix_detailed
from treespace.stats import MeanConfig, frechet_mean_detailed
from treespace.subtrees import DEFAULT_BRANCH_LABELS, extract_subtree
from treespace.trees import (AttributedTree, parse_population, parse_tree,
                             serialize_tree)


def run(*argv):
    return main(list(argv))


@pytest.fixture()
def pop_file(tmp_path):
    """A small two-class population, same topology everywhere (fast paths)."""
    out = tmp_path / "pop.json"
    code = run("gen", "trees", "-o", str(out), "--n", "20",
               "--attr-sigma", "0.1", "--class-shift", '{"LMB": 0.6}',
               "--seed", "7")
    assert code == 0
    return out


def test_gen_trees_output_and_manifest(pop_file, tmp_path):
    trees, classes = parse_population(pop_file.read_text())
    assert len(trees) == 20
    assert sorted(set(classes)) == ["case", "control"]
    man = json.loads((tmp_path / "pop.manifest.json").read_text())
    assert man["command"] == "gen"
    assert man["seed"] == 7
    assert man["outputs"] == [str(pop_file)]
    assert "version" in man and "duration_s" in man


def test_gen_corner_and_sheets(tmp_path):
    assert run("gen", "corner", "-o", str(tmp_path / "c.json"),
               "--n", "12", "--seed", "1") == 0
    blob = json.loads((tmp_path / "c.json").read_text())
    assert blob["space"] == "cone" and len(blob["points"]) == 12
    matrix = DistanceMatrix.from_csv((tmp_path / "c.csv").read_text())
    assert len(matrix) == 12

    assert run("gen", "sheets", "-o", str(tmp_path / "s.json"),
               "--sheets", "2", "--dim", "2", "--per-sheet", "4") == 0
    blob = json.loads((tmp_path / "s.json").read_text())
    assert blob["space"] == "book" and len(blob["points"]) == 8


def test_dist_outputs_square_csv(pop_file, tmp_path):
    out = tmp_path / "d.csv"
    assert run("dist", "--input", str(pop_file), "-o", str(out)) == 0
    dm = DistanceMatrix.from_csv(out.read_text())
    assert len(dm) == 20
    assert dm.labels is not None
    assert np.all(dm.values >= 0)


def test_mean_writes_tree(pop_file, tmp_path):
    out = tmp_path / "m.json"
    assert run("mean", "--input", str(pop_file), "-o", str(out)) == 0
    mean = parse_tree(out.read_text())
    trees, _ = parse_population(pop_file.read_text())
    assert mean.leaves == trees[0].leaves


def test_permtest_report(pop_file, tmp_path):
    out = tmp_path / "p.json"
    assert run("permtest", "--groups", str(pop_file), "-o", str(out),
               "--M", "30", "--seed", "2") == 0
    rep = json.loads(out.read_text())
    assert rep["kind"] == "mean"
    assert rep["M"] == 30
    assert 0.0 < rep["p_value"] <= 1.0
    assert set(rep["permuted_summary"]) == {"q0", "q25", "q50", "q75",
                                            "q100"}


def test_features_then_classify_and_knn(pop_file, tmp_path):
    feats = tmp_path / "f.csv"
    assert run("subtree-features", "--input", str(pop_file),
               "-o", str(feats), "--mode", "pooled") == 0
    header = feats.read_text().splitlines()[0]
    assert header.startswith("id,class,")
    assert len(header.split(",")) == 2 + 9

    cv = tmp_path / "cv.json"
    assert run("classify", "--features", str(feats), "-o", str(cv),
               "--alphas", "1.0", "0.5", "--repeats", "1",
               "--folds", "3", "--seed", "3") == 0
    rep = json.loads(cv.read_text())
    assert {row["alpha"] for row in rep["rows"]} == {1.0, 0.5}
    for row in rep["rows"]:
        assert 0.0 <= row["accuracy_mean"] <= 1.0

    dcsv = tmp_path / "d.csv"
    assert run("dist", "--input", str(pop_file), "-o", str(dcsv)) == 0
    knn = tmp_path / "knn.json"
    assert run("knn", "--matrix", str(dcsv), "-o", str(knn),
               "--k", "3", "--folds", "2") == 0
    rep = json.loads(knn.read_text())
    assert rep["k"] == 3 and len(rep["accuracies"]) == 2


def test_correlate_outputs(pop_file, tmp_path):
    out = tmp_path / "corr"
    assert run("correlate", "--input", str(pop_file), "-o", str(out),
               "--deterministic") == 0
    lines = (out / "correlation.csv").read_text().splitlines()
    assert lines[0].startswith("label,")
    names = lines[0].split(",")[1:]
    assert len(lines) == 1 + len(names)
    assert (out / "pairs.svg").read_text().startswith("<svg")
    man = json.loads((out / "manifest.json").read_text())
    assert man["duration_s"] == 0.0


def test_correlate_deviations_are_the_pooled_features(tmp_path):
    # several topologies, so the reference means are certified, not exact
    pop = tmp_path / "pop.json"
    assert run("gen", "trees", "-o", str(pop), "--n", "10",
               "--topology-noise", "0.5", "--class-shift", '{"LMB": 0.3}',
               "--seed", "2") == 0
    labels = ("LMB", "LLB", "RMB")
    assert run("correlate", "--input", str(pop), "--labels", *labels,
               "--seed", "5", "-o", str(tmp_path / "corr")) == 0
    assert run("subtree-features", "--input", str(pop), "--mode", "pooled",
               "--labels", *labels, "--seed", "5",
               "-o", str(tmp_path / "f.csv")) == 0
    dev = csv_rows((tmp_path / "corr" / "deviations.csv").read_text())
    feats = csv_rows((tmp_path / "f.csv").read_text())
    assert dev[0] == ["id", *labels]
    assert feats[0] == ["id", "class", *labels]
    assert dev[1:] == [[r[0], *r[2:]] for r in feats[1:]]


def test_dist_rejects_unrepresentable_lengths(tmp_path, capsys):
    # squared lengths of 1e160 overflow; the max-flow used to spin on them
    pop = tmp_path / "pop.json"
    pop.write_text(json.dumps([
        {"leaves": list("abcdef"), "edges": [
            {"split": list(x), "attr": [1e160]} for x in pair]}
        for pair in (("ab", "abc"), ("bc", "bcd"))]))
    assert run("dist", "--input", str(pop), "-o",
               str(tmp_path / "d.csv")) == 70
    err = capsys.readouterr().err
    assert err.startswith("treespace: error: compute:") and "overflow" in err
    assert len(err.strip().splitlines()) == 1


def test_correlate_quotes_labels_with_commas(pop_file, tmp_path):
    blob = json.loads(pop_file.read_text())
    for tree in blob:
        tree["labels"]["L,MB"] = tree["labels"].pop("LMB")
    pop = tmp_path / "comma.json"
    pop.write_text(json.dumps(blob))
    out = tmp_path / "corr"
    assert run("correlate", "--input", str(pop), "--labels", "L,MB", "RMB",
               "LUL", "-o", str(out), "--deterministic") == 0
    names = ["L,MB", "RMB", "LUL"]
    corr = csv_rows((out / "correlation.csv").read_text())
    assert corr[0] == ["label", *names]
    assert [r[0] for r in corr[1:]] == names
    assert all(len(r) == 4 for r in corr)
    dev = csv_rows((out / "deviations.csv").read_text())
    assert dev[0] == ["id", *names]
    assert len(dev) == 1 + len(blob) and all(len(r) == 4 for r in dev)


def test_embed_and_distortion(tmp_path):
    assert run("gen", "corner", "-o", str(tmp_path / "c.json"),
               "--n", "15", "--seed", "4") == 0
    emb = tmp_path / "emb"
    assert run("embed", "--input", str(tmp_path / "c.csv"), "-o", str(emb),
               "--method", "hmds", "--restarts", "2",
               "--deterministic") == 0
    summary = json.loads((emb / "embedding.json").read_text())
    assert summary["metric"] == "hyperbolic"
    assert summary["final_stress"] >= 0.0
    assert summary["distortion"]["multiplicative"] >= 1.0
    rows = (emb / "coordinates.csv").read_text().splitlines()
    assert rows[0] == "id,label,x,y"
    assert len(rows) == 16
    diag = json.loads((emb / "manifest.json").read_text())["diagnostics"]
    runs = diag["restarts"]
    assert len(runs) == 2 and diag["best"] in (0, 1)
    best = runs[diag["best"]]
    assert best["final_stress"] == summary["final_stress"] == min(
        r["final_stress"] for r in runs)
    assert best["iterations"] == summary["iterations"] > 0
    for r in runs:
        assert r["stop_reason"] in ("converged", "cap", "line_search",
                                    "stationary")
    capped = tmp_path / "capped"
    assert run("embed", "--input", str(tmp_path / "c.csv"), "-o",
               str(capped), "--restarts", "1", "--max-iterations", "3",
               "--deterministic") == 0
    diag = json.loads((capped / "manifest.json").read_text())["diagnostics"]
    assert diag == {"restarts": [{
        "iterations": 3, "stop_reason": "cap",
        "final_stress": diag["restarts"][0]["final_stress"]}], "best": 0}
    flat = tmp_path / "flat"
    assert run("embed", "--input", str(tmp_path / "c.csv"), "-o", str(flat),
               "--method", "mds", "--deterministic") == 0
    diag = json.loads((flat / "manifest.json").read_text())["diagnostics"]
    assert diag["best"] == 0 and diag["restarts"][0]["iterations"] == 0

    out = tmp_path / "ident.json"
    assert run("distortion", "--original", str(tmp_path / "c.csv"),
               "--embedded", str(tmp_path / "c.csv"),
               "-o", str(out)) == 0
    rep = json.loads(out.read_text())
    assert rep["multiplicative"] == pytest.approx(1.0)


def _strict_json(path):
    def reject(name):
        raise ValueError(f"{path}: {name} is not JSON")
    return json.loads(Path(path).read_text(), parse_constant=reject)


@pytest.mark.parametrize("text", [
    "id,label,a\na,,0\n",
    "id,label,a,b\na,,0,0\nb,,0,0\n",
], ids=["one-point", "all-zero"])
def test_distortion_without_positive_pairs_is_null(tmp_path, text):
    # no pair has a ratio, so its summaries are null rather than NaN
    matrix = tmp_path / "d.csv"
    matrix.write_text(text)
    out, emb = tmp_path / "distortion.json", tmp_path / "emb"
    assert run("distortion", "--original", str(matrix),
               "--embedded", str(matrix), "-o", str(out)) == 0
    assert run("embed", "--input", str(matrix), "--restarts", "2",
               "-o", str(emb)) == 0
    _strict_json(emb / "manifest.json")
    for rep in (_strict_json(out),
                _strict_json(emb / "embedding.json")["distortion"]):
        assert (rep["max"], rep["min"], rep["multiplicative"]) == \
            (None, None, None)


def test_exit_codes(tmp_path):
    # 64: usage problems
    assert run() == 64
    assert run("gen") == 64
    assert run("classify", "-o", str(tmp_path / "x.json")) == 64
    assert run("knn", "-o", str(tmp_path / "x.json")) == 64
    # 65: unreadable or invalid input
    assert run("dist", "--input", str(tmp_path / "missing.json"),
               "-o", str(tmp_path / "d.csv")) == 65
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run("mean", "--input", str(bad),
               "-o", str(tmp_path / "m.json")) == 65
    # 70: computation failure on structurally valid input
    single = tmp_path / "single.json"
    assert run("gen", "trees", "-o", str(single), "--n", "3") == 0
    assert run("permtest", "--groups", str(single),
               "-o", str(tmp_path / "p.json"), "--M", "5") == 70


@pytest.mark.parametrize("argv", [
    ("gen", "corner"), ("gen", "sheets"), ("gen", "trees"),
    ("dist", "--input", "p.json"), ("mean", "--input", "p.json"),
    ("permtest", "--groups", "p.json"),
    ("subtree-features", "--input", "p.json"),
    ("classify", "--features", "f.csv"), ("knn", "--matrix", "d.csv"),
    ("correlate", "--input", "p.json"),
    ("embed", "--input", "d.csv", "--method", "mds"),
    ("embed", "--input", "d.csv", "--method", "isomap"),
    ("embed", "--input", "d.csv", "--method", "hmds"),
    ("distortion", "--original", "d.csv", "--embedded", "d.csv"),
], ids=lambda argv: "-".join(a for a in argv
                             if a[0] != "-" and "." not in a))
def test_negative_seed_is_a_usage_error(tmp_path, capsys, argv):
    out = tmp_path / "out"
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"seed": -1}')
    for seed in (("--seed", "-1"), ("--config", str(cfg))):
        capsys.readouterr()
        assert run(*argv, "-o", str(out), *seed) == 64, seed
        err = capsys.readouterr().err
        assert err.startswith("treespace: error: usage: argument --seed:")
        assert len(err.splitlines()) == 1
    assert not out.exists()


@pytest.mark.parametrize("shift", ['{"LMB": "a"}', '{"LMB": [0.5, "a"]}',
                                   '{"LMB": null}', '{"LMB": true}',
                                   '{"LMB": NaN}', '{"LMB": Infinity}',
                                   '{"LMB": [-Infinity]}', '{"LMB": 1e400}',
                                   pytest.param('{"LMB": 1' + '0' * 400 + '}',
                                                id="beyond-float-range")])
def test_malformed_class_shift_exits_65(tmp_path, capsys, shift):
    out = tmp_path / "pop.json"
    assert run("gen", "trees", "-o", str(out), "--n", "4",
               "--class-shift", shift) == 65
    assert capsys.readouterr().err == (
        "treespace: error: class-shift: LMB: expected a number or a list "
        "of numbers\n")
    assert not out.exists()


@pytest.mark.parametrize("shift, k, message", [
    ('{"XYZ": 0.5}', "1", "XYZ: the template has no such branch"),
    ('{"LMB": [0.5, 1]}', "1", "LMB: got 2 numbers for 1-dimensional "
                               "attributes"),
    ('{"LMB": [0.5]}', "3", "LMB: got 1 numbers for 3-dimensional "
                            "attributes"),
], ids=["unknown-label", "long-vector", "short-vector"])
def test_class_shift_that_misfits_the_template_exits_65(tmp_path, capsys,
                                                        shift, k, message):
    out = tmp_path / "pop.json"
    assert run("gen", "trees", "-o", str(out), "--n", "4", "--k", k,
               "--class-shift", shift) == 65
    assert capsys.readouterr().err == \
        f"treespace: error: class-shift: {message}\n"
    assert not out.exists()


def test_gen_trees_from_a_template_file(tmp_path, capsys):
    S = frozenset
    template = AttributedTree(
        tuple("abcd"), {S("ab"): (1.0,), S("a"): (0.5,), S("b"): (0.5,),
                        S("c"): (0.5,), S("d"): (0.5,)},
        {"AB": S("ab")})
    path = tmp_path / "template.json"
    path.write_text(serialize_tree(template))
    out = tmp_path / "pop.json"
    assert run("gen", "trees", "-o", str(out), "--n", "6",
               "--template", str(path), "--class-shift", '{"AB": 2.0}',
               "--attr-sigma", "0.0") == 0
    trees, classes = parse_population(out.read_text())
    assert classes == ["control"] * 3 + ["case"] * 3
    for t, c in zip(trees, classes):
        assert t.leaves == template.leaves
        assert t.splits == template.splits
        assert t.edges[S("ab")] == ((3.0,) if c == "case" else (1.0,))
    # a template that is not a tree is bad input naming the file
    path.write_text("{not json")
    capsys.readouterr()
    assert run("gen", "trees", "-o", str(out), "--template",
               str(path)) == 65
    err = capsys.readouterr().err
    assert err.startswith(f"treespace: error: input: {path}: ")
    assert len(err.splitlines()) == 1


def test_gen_trees_k_sets_the_airway_attribute_dimension(tmp_path):
    out = tmp_path / "pop.json"
    for argv, k in (((), 1), (("--k", "3"), 3)):
        assert run("gen", "trees", "-o", str(out), "--n", "3", *argv) == 0
        trees, _ = parse_population(out.read_text())
        assert {t.k for t in trees} == {k}


@pytest.mark.parametrize("k", ["0", "-2", "x"])
def test_gen_trees_k_below_one_is_a_usage_error(tmp_path, capsys, k):
    out = tmp_path / "pop.json"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"k": k}))
    for argv in (("--k", k), ("--config", str(cfg))):
        capsys.readouterr()
        assert run("gen", "trees", "-o", str(out), *argv) == 64, argv
        err = capsys.readouterr().err
        assert err == ("treespace: error: usage: argument --k: expected a "
                       f"positive integer, got {k!r}\n")
    assert not out.exists()


def test_gen_trees_k_with_a_template_is_a_usage_error(tmp_path, capsys):
    template = tmp_path / "template.json"
    template.write_text(serialize_tree(treespace.airway_template()))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"k": 3, "template": str(template)}))
    out = tmp_path / "pop.json"
    for argv in (("--k", "3", "--template", str(template)),
                 ("--config", str(cfg))):
        capsys.readouterr()
        assert run("gen", "trees", "-o", str(out), *argv) == 64, argv
        err = capsys.readouterr().err
        assert err.startswith("treespace: error: usage: --k ")
        assert len(err.splitlines()) == 1
    assert not out.exists()


def test_output_that_cannot_be_created_is_a_usage_error(pop_file, tmp_path,
                                                       capsys):
    blocker = tmp_path / "c.json"
    blocker.write_text("{}")
    capsys.readouterr()
    assert run("dist", "--input", str(pop_file),
               "-o", str(blocker / "x.csv")) == 64
    err = capsys.readouterr().err
    assert err.startswith("treespace: error: output: ")
    assert str(blocker) in err and len(err.splitlines()) == 1


def test_malformed_populations_exit_65(pop_file, tmp_path, capsys):
    docs = json.loads(pop_file.read_text())
    del docs[0]["class"]
    partial = tmp_path / "partial.json"
    partial.write_text(json.dumps(docs))
    labels = tmp_path / "labels.json"
    labels.write_text('[{"leaves": ["a"], "edges": [], "labels": 5}]')
    for argv in (("dist", "--input", str(labels)),
                 ("knn", "--input", str(partial), "--folds", "2"),
                 ("permtest", "--groups", str(partial), "--M", "3"),
                 ("subtree-features", "--input", str(partial),
                  "--mode", "pooled")):
        capsys.readouterr()
        assert run(*argv, "-o", str(tmp_path / "out")) == 65, argv
        err = capsys.readouterr().err
        assert err.startswith(f"treespace: error: input: {argv[2]}: ")
        assert len(err.splitlines()) == 1


def _mixed_population(pop_file, tmp_path, kind):
    """``pop_file`` with its last tree given another leaf name, or attribute
    vectors of another dimension."""
    docs = json.loads(pop_file.read_text())
    if kind == "leaves":
        docs[-1] = json.loads(json.dumps(docs[-1]).replace('"r3"', '"r9"'))
    else:
        for e in docs[-1]["edges"]:
            e["attr"] = e["attr"] * 2
    path = tmp_path / f"mixed-{kind}.json"
    path.write_text(json.dumps(docs))
    return path


@pytest.mark.parametrize("kind, message", [
    ("leaves", "trees have different leaf sets"),
    ("dimensions", "attribute dimensions differ: 1 vs 2"),
])
@pytest.mark.parametrize("argv", [
    ("dist", "--input"), ("mean", "--input"),
    ("permtest", "--M", "3", "--groups"), ("subtree-features", "--input"),
], ids=lambda argv: argv[0])
def test_mixed_populations_exit_65(pop_file, tmp_path, capsys, kind,
                                   message, argv):
    mixed = _mixed_population(pop_file, tmp_path, kind)
    capsys.readouterr()
    assert run(*argv, str(mixed), "-o", str(tmp_path / "out")) == 65
    assert capsys.readouterr().err == f"treespace: error: input: {message}\n"


def test_subtree_features_per_class_mode(pop_file, tmp_path, capsys):
    feats = tmp_path / "f.csv"
    assert run("subtree-features", "--input", str(pop_file),
               "-o", str(feats), "--labels", "LMB", "RMB") == 0
    header = feats.read_text().splitlines()[0]
    assert header == "id,class,LMB:case,LMB:control,RMB:case,RMB:control"
    # per-class distances need a mean for each of two classes
    docs = json.loads(pop_file.read_text())
    one = tmp_path / "one.json"
    one.write_text(json.dumps([d for d in docs if d["class"] == "case"]))
    capsys.readouterr()
    assert run("subtree-features", "--input", str(one),
               "-o", str(tmp_path / "g.csv")) == 65
    assert capsys.readouterr().err == (
        f"treespace: error: input: {one}: need exactly two classes, "
        f"found ['case']\n")


def test_pooled_features_of_a_population_without_classes(pop_file,
                                                        tmp_path):
    docs = json.loads(pop_file.read_text())
    for doc in docs:
        del doc["class"]
    bare = tmp_path / "bare.json"
    bare.write_text(json.dumps(docs))
    feats = tmp_path / "f.csv"
    assert run("subtree-features", "--input", str(bare), "--mode", "pooled",
               "--labels", "LMB", "-o", str(feats)) == 0
    rows = csv_rows(feats.read_text())
    assert rows[0] == ["id", "class", "LMB"]
    assert [r[1] for r in rows[1:]] == [""] * len(docs)


def _partly_classed(pop_file, tmp_path):
    """``pop_file`` with the class of its first 5 trees removed."""
    docs = json.loads(pop_file.read_text())
    for doc in docs[:5]:
        del doc["class"]
    path = tmp_path / "partly.json"
    path.write_text(json.dumps(docs))
    return path, docs


def test_dist_leaves_the_label_of_an_unclassed_tree_empty(pop_file,
                                                          tmp_path):
    partly, docs = _partly_classed(pop_file, tmp_path)
    out = tmp_path / "d.csv"
    assert run("dist", "--input", str(partly), "-o", str(out)) == 0
    rows = csv_rows(out.read_text())
    assert [r[1] for r in rows[1:]] == [""] * 5 + [
        d["class"] for d in docs[5:]]


def test_knn_matrix_needs_every_label(pop_file, tmp_path, capsys):
    partly, _ = _partly_classed(pop_file, tmp_path)
    out = tmp_path / "d.csv"
    assert run("dist", "--input", str(partly), "-o", str(out)) == 0
    capsys.readouterr()
    assert run("knn", "--matrix", str(out), "--k", "3", "--folds", "2",
               "-o", str(tmp_path / "knn.json")) == 65
    assert capsys.readouterr().err == (
        f"treespace: error: input: {out}: every row needs a label\n")
    # a matrix of no labels at all has no label column
    unlabeled = tmp_path / "unlabeled.csv"
    unlabeled.write_text(_distance_csv().replace(",x,", ",,"))
    assert run("knn", "--matrix", str(unlabeled), "--k", "1", "--folds",
               "2", "-o", str(tmp_path / "knn.json")) == 65
    assert capsys.readouterr().err == (
        f"treespace: error: input: {unlabeled}: no label column\n")
    # as knn --input does for the population itself
    assert run("knn", "--input", str(partly), "--k", "3", "--folds", "2",
               "-o", str(tmp_path / "knn.json")) == 65
    assert capsys.readouterr().err == (
        f"treespace: error: input: {partly}: every tree needs a class\n")


def test_classify_names_an_alpha_too_small_for_the_penalty_grid(
        pop_file, tmp_path, capsys):
    feats = tmp_path / "f.csv"
    assert run("subtree-features", "--input", str(pop_file),
               "--mode", "pooled", "-o", str(feats)) == 0
    capsys.readouterr()
    assert run("classify", "--features", str(feats), "--alphas", "1e-320",
               "--folds", "2", "--repeats", "1",
               "-o", str(tmp_path / "cv.json")) == 70
    assert capsys.readouterr().err == (
        "treespace: error: compute: alpha: 1e-320 is too small for the "
        "penalty grid\n")


@pytest.mark.parametrize("names, values", [(["f1", "f2"], ["1.5", "2.0"]),
                                           ([], [])])
def test_classify_names_features_that_carry_no_signal(names, values,
                                                      tmp_path, capsys):
    # constant feature columns, or none at all: no penalty is needed to
    # zero every coefficient, so the penalty grid has no top
    feats = tmp_path / "const.csv"
    feats.write_text(csv_text([["id", "class", *names]] + [
        [f"s{i}", "AB"[i % 2], *values] for i in range(12)]))
    assert run("classify", "--features", str(feats), "--folds", "2",
               "--repeats", "1", "-o", str(tmp_path / "cv.json")) == 70
    assert capsys.readouterr().err == (
        "treespace: error: compute: no feature column varies with the "
        "classes\n")


_D3 = np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 3.0], [2.0, 3.0, 0.0]])


def _distance_csv(values=_D3, ids=("a", "b", "c"), row_ids=None):
    return csv_text([["id", "label", *ids]] + [
        [i, "x", *(f"{v:.17g}" for v in row)]
        for i, row in zip(row_ids or ids, values)])


def _d3_with(i, j, v):
    m = _D3.copy()
    m[i, j] = m[j, i] = v
    return m


_BAD_DISTANCE_CSVS = {
    "duplicate-ids": (_distance_csv(ids=("a", "a", "c")),
                      "duplicate ids in distance matrix"),
    "row-count": (_distance_csv(_D3[:2]), "expected 3 data rows, found 2"),
    # the rows are read one at a time, but the count still wins
    "row-count-and-bad-cell": (
        _distance_csv(_D3[:2]).replace("a,x,0,1,2", "a,x,0,abc,2"),
        "expected 3 data rows, found 2"),
    "id-mismatch": (_distance_csv(row_ids=("a", "z", "c")),
                    "row 1: id 'z' does not match header"),
    "negative": (_distance_csv(_d3_with(0, 1, -1.0)), "negative distances"),
    "non-finite": (_distance_csv(_d3_with(0, 2, np.inf)),
                   "non-finite distances"),
    "diagonal": (_distance_csv(_d3_with(1, 1, 0.5)), "nonzero diagonal"),
    "asymmetric": (_distance_csv(_D3 + np.eye(3, k=1) * 1e-9),
                   "matrix is not symmetric"),
    "non-numeric": (_distance_csv().replace("x,2,3,0", "x,2,abc,0"),
                    "row 2, column 'b': 'abc' is not a number"),
}


@pytest.mark.parametrize("case", sorted(_BAD_DISTANCE_CSVS))
@pytest.mark.parametrize("argv", [
    ("knn", "--matrix", "{bad}"),
    ("embed", "--method", "mds", "--input", "{bad}"),
    ("distortion", "--original", "{bad}", "--embedded", "{good}"),
    ("distortion", "--original", "{good}", "--embedded", "{bad}"),
], ids=["knn", "embed", "distortion-original", "distortion-embedded"])
def test_malformed_distance_csvs_exit_65(tmp_path, capsys, case, argv):
    bad, good = tmp_path / "bad.csv", tmp_path / "good.csv"
    text, message = _BAD_DISTANCE_CSVS[case]
    bad.write_text(text)
    good.write_text(_distance_csv())
    out = tmp_path / "out"
    assert run(*[a.format(bad=bad, good=good) for a in argv],
               "-o", str(out)) == 65
    assert capsys.readouterr().err == \
        f"treespace: error: input: {bad}: {message}\n"
    assert not out.exists()


def test_distance_csv_asymmetry_within_tolerance_is_read(tmp_path):
    # rounding-level asymmetry is averaged away, not rejected
    near = tmp_path / "near.csv"
    near.write_text(_distance_csv(_D3 + np.eye(3, k=1) * 1e-13))
    out = tmp_path / "d.json"
    assert run("distortion", "--original", str(near), "--embedded",
               str(near), "-o", str(out)) == 0


@pytest.mark.parametrize("config, message", [
    (None, "config: [Errno 2] No such file or directory"),
    ("{not json", "config: Expecting property name"),
    ("[1, 2]", "config: expected a JSON object"),
], ids=["missing", "not-json", "not-an-object"])
def test_unreadable_config_exits_65(tmp_path, capsys, config, message):
    cfg = tmp_path / "cfg.json"
    if config is not None:
        cfg.write_text(config)
    out = tmp_path / "pop.json"
    assert run("gen", "trees", "-o", str(out), "--config", str(cfg)) == 65
    err = capsys.readouterr().err
    assert err.startswith(f"treespace: error: {message}")
    assert len(err.splitlines()) == 1
    assert not out.exists()


def test_config_file_precedence(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": 6, "seed": 9}))
    out = tmp_path / "pop.json"
    # config overrides the built-in n=50; the explicit flag beats the config
    assert run("gen", "trees", "-o", str(out), "--config", str(cfg)) == 0
    trees, _ = parse_population(out.read_text())
    assert len(trees) == 6
    man = json.loads((tmp_path / "pop.manifest.json").read_text())
    assert man["seed"] == 9

    assert run("gen", "trees", "-o", str(out), "--config", str(cfg),
               "--n", "4") == 0
    trees, _ = parse_population(out.read_text())
    assert len(trees) == 4


def test_config_values_pass_flag_checks(pop_file, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"

    def with_config(config, *argv):
        cfg.write_text(json.dumps(config))
        capsys.readouterr()
        code = run(*argv, "--config", str(cfg))
        return code, capsys.readouterr().err

    pop, feats = str(pop_file), str(tmp_path / "f.csv")
    # a wrong-typed value, a value outside choices and a non-boolean
    # switch are usage errors that name the option, as flags would be
    for config, argv, option in [
        ({"n": "abc"}, ("gen", "trees", "-o", str(tmp_path / "p.json")),
         "--n"),
        ({"threads": "x"}, ("dist", "--input", pop, "-o",
                            str(tmp_path / "d.csv")), "--threads"),
        ({"method": "bogus"}, ("embed", "--input", str(tmp_path / "d.csv"),
                               "-o", str(tmp_path / "emb")), "--method"),
        ({"deterministic": "yes"}, ("dist", "--input", pop, "-o",
                                    str(tmp_path / "d.csv")),
         "--deterministic"),
        ({"labels": []}, ("subtree-features", "--input", pop, "-o", feats),
         "--labels"),
    ]:
        code, err = with_config(config, *argv)
        assert code == 64, config
        assert err.startswith("treespace: error: usage:") and option in err
        assert len(err.splitlines()) == 1

    # a list serves an option of several values; the flag still wins
    config = {"labels": ["LMB", "RMB"], "mode": "pooled"}
    argv = ("subtree-features", "--input", pop, "-o", feats)
    assert with_config(config, *argv)[0] == 0
    assert Path(feats).read_text().splitlines()[0] == "id,class,LMB,RMB"
    assert with_config(config, *argv, "--labels", "LUL")[0] == 0
    assert Path(feats).read_text().splitlines()[0] == "id,class,LUL"

    # true turns a switch on; unknown keys and other commands' keys are
    # ignored; a number given as a string parses as the flag would
    out = tmp_path / "d.csv"
    assert with_config({"deterministic": True, "threads": "1", "M": 3,
                        "no_such_option": [1]},
                       "dist", "--input", pop, "-o", str(out)) == (0, "")
    man = json.loads((tmp_path / "d.manifest.json").read_text())
    assert man["duration_s"] == 0.0


def test_every_command_writes_its_manifest_beside_its_outputs(pop_file,
                                                              tmp_path):
    o, pop = tmp_path, str(pop_file)
    runs = [
        ("gen", "corner", "-o", f"{o}/c.json", "--n", "12"),
        ("gen", "sheets", "-o", f"{o}/s.json", "--sheets", "2",
         "--per-sheet", "3"),
        ("gen", "trees", "-o", f"{o}/t.json", "--n", "4"),
        ("dist", "--input", pop, "-o", f"{o}/d.csv"),
        ("mean", "--input", pop, "-o", f"{o}/m.json"),
        ("permtest", "--groups", pop, "-o", f"{o}/p.json", "--M", "5"),
        ("subtree-features", "--input", pop, "-o", f"{o}/f.csv",
         "--mode", "pooled"),
        ("classify", "--features", f"{o}/f.csv", "-o", f"{o}/cv.json",
         "--alphas", "1.0", "--folds", "2", "--repeats", "1"),
        ("classify", "--input", pop, "-o", f"{o}/cvin.json",
         "--labels", "LMB", "--alphas", "1.0", "--folds", "2",
         "--repeats", "1"),
        ("knn", "--matrix", f"{o}/d.csv", "-o", f"{o}/k.json",
         "--folds", "2"),
        ("knn", "--input", pop, "-o", f"{o}/kin.json", "--folds", "2"),
        ("correlate", "--input", pop, "-o", f"{o}/corr"),
        ("embed", "--input", f"{o}/c.csv", "-o", f"{o}/emb",
         "--restarts", "1", "--max-iterations", "20"),
        ("distortion", "--original", f"{o}/c.csv", "--embedded",
         f"{o}/c.csv", "-o", f"{o}/x.json"),
    ]
    where = ["c", "s", "t", "d", "m", "p", "f", "cv", "cvin", "k", "kin"]
    where = [f"{o}/{w}.manifest.json" for w in where] + [
        f"{o}/corr/manifest.json", f"{o}/emb/manifest.json",
        f"{o}/x.manifest.json"]
    for argv, path in zip(runs, where):
        assert run(*argv, "--deterministic") == 0, argv
        man = json.loads(Path(path).read_text())
        assert man["command"] == argv[0]
        assert man["argv"] == [*argv, "--deterministic"]
        assert man["outputs"] and all(Path(p).is_file()
                                      for p in man["outputs"])
    assert sorted(map(str, tmp_path.rglob("*manifest.json"))) == sorted(
        [*where, str(pop_file.with_suffix(".manifest.json"))])


# Option names (either spelling) of three commands, keys no option has,
# and any JSON value.  Integers stay small so that valid values run fast.
_FUZZ_KEYS = {
    "gen": ["n", "k", "attr_sigma", "topology-noise", "class_shift",
            "template", "output"],
    "permtest": ["statistic", "M", "m", "full", "groups"],
    "embed": ["method", "isomap_k", "restarts", "max-iterations", "bins",
              "input"],
}
_COMMON_KEYS = ["seed", "threads", "deterministic", "config", "help",
                "unknown"]
_FUZZ_VALUE = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 12)
    | st.integers(-3, 12).map(str) | st.text(max_size=6)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.sampled_from(["mean", "variance", "hmds", "isomap", "hisomap",
                       '{"LMB": 0.5}', "[1]"]),
    lambda kids: st.lists(kids, max_size=3)
    | st.dictionaries(st.text(max_size=3), kids, max_size=2),
    max_leaves=4)


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("fuzz")
    assert run("gen", "trees", "-o", str(d / "pop.json"), "--n", "6",
               "--class-shift", '{"LMB": 0.5}') == 0
    assert run("gen", "corner", "-o", str(d / "corner.json"),
               "--n", "8") == 0
    return d


@pytest.mark.parametrize("cmd", sorted(_FUZZ_KEYS))
@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(data=st.data())
def test_config_fuzz_exits_cleanly(fuzz_dir, cmd, data):
    keys = st.sampled_from(_FUZZ_KEYS[cmd] + _COMMON_KEYS)
    config = data.draw(st.dictionaries(keys, _FUZZ_VALUE, max_size=4))
    cfg = fuzz_dir / "cfg.json"
    cfg.write_text(json.dumps(config))
    d = str(fuzz_dir)
    argv = {
        "gen": ["gen", "trees", "-o", f"{d}/out.json"],
        "permtest": ["permtest", "--groups", f"{d}/pop.json",
                     "-o", f"{d}/perm.json"],
        # the flag bounds the cost; the config's value is still checked
        "embed": ["embed", "--input", f"{d}/corner.csv", "-o", f"{d}/emb",
                  "--max-iterations", "30"],
    }[cmd]
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main([*argv, "--config", str(cfg)])
    err = err.getvalue()
    if code == 0:
        assert err == ""
        return
    # 70 is a value in range that the data cannot meet (an --isomap-k too
    # small to connect the neighbour graph), exactly as the same flag
    # would be
    prefix = {64: "usage:", 65: "", 70: "compute:"}[code]
    assert err.startswith(f"treespace: error: {prefix}"), err
    assert len(err.splitlines()) == 1, err


def test_dist_manifest_counts_geodesic_work(tmp_path):
    pop = tmp_path / "pop.json"
    assert run("gen", "trees", "-o", str(pop), "--n", "8",
               "--topology-noise", "1.0", "--seed", "3") == 0
    trees, _ = parse_population(pop.read_text())
    manifests = []
    for _ in range(2):
        assert run("dist", "--input", str(pop), "-o",
                   str(tmp_path / "d.csv"), "--deterministic") == 0
        manifests.append((tmp_path / "d.manifest.json").read_bytes())
    assert manifests[0] == manifests[1]
    counts = json.loads(manifests[0])["diagnostics"]
    assert counts == distance_matrix_detailed(trees)[1]
    assert counts["pairs"] == 28
    assert 0 < counts["same_topology"] < 28
    assert counts["covers"] == (counts["cover_early_stops"]
                                + counts["refinements"])
    assert counts["augmentations"] >= counts["covers"]


def test_deterministic_byte_identical_across_threads(pop_file, tmp_path):
    outputs = []
    for threads in ("1", "3"):
        d = tmp_path / f"t{threads}"
        assert run("dist", "--input", str(pop_file),
                   "-o", str(d / "d.csv"), "--threads", threads,
                   "--deterministic") == 0
        assert run("embed", "--input", str(d / "d.csv"), "-o", str(d),
                   "--method", "hmds", "--restarts", "2",
                   "--threads", threads, "--deterministic") == 0
        outputs.append({
            "dist": (d / "d.csv").read_bytes(),
            "coords": (d / "coordinates.csv").read_bytes(),
            "emb": (d / "embedding.json").read_bytes(),
            "scatter": (d / "scatter.svg").read_bytes(),
        })
    assert outputs[0] == outputs[1]


def test_repeat_runs_byte_identical(pop_file, tmp_path):
    blobs = []
    for tag in ("a", "b"):
        out = tmp_path / tag / "p.json"
        assert run("permtest", "--groups", str(pop_file), "-o", str(out),
                   "--M", "20", "--seed", "6", "--deterministic") == 0
        blobs.append(out.read_bytes())
    assert blobs[0] == blobs[1]


def test_version_flag(capsys):
    assert run("--version") == 0
    assert "treespace" in capsys.readouterr().out


def _subparsers(parser):
    """name -> parser of ``parser``'s subcommands."""
    return next(a.choices for a in parser._actions
                if isinstance(a, argparse._SubParsersAction))


def _command_parser(parser, words):
    """The parser of the command (and gen space) ``words`` name."""
    for word in words:
        parser = _subparsers(parser)[word]
    return parser


_COMMAND_WORDS = [(c,) for c in _subparsers(build_parser()) if c != "gen"] \
    + [("gen", s) for s in _subparsers(_subparsers(build_parser())["gen"])]


@pytest.mark.parametrize("words", _COMMAND_WORDS, ids=" ".join)
def test_command_parser_help_matches_the_full_table(words):
    # the parser built for one command holds that command's parser, with
    # the help the full table gives it
    full = _command_parser(build_parser(), words)
    own = _command_parser(build_parser(words), words)
    assert own.format_help() == full.format_help()
    assert list(_subparsers(build_parser(words))) == [words[0]]


def test_words_naming_no_command_build_the_full_table():
    # and gen without a known space builds all three spaces
    for other in ((), ("--help",), ("bogus",), ("--version", "dist")):
        assert build_parser(other).format_help() == \
            build_parser().format_help()
    gen = _subparsers(build_parser())["gen"]
    for other in (("gen",), ("gen", "bogus"), ("gen", "--help")):
        own = _subparsers(build_parser(other))["gen"]
        assert own.format_help() == gen.format_help()
        assert _subparsers(own).keys() == _subparsers(gen).keys()


def _parsed(parser, argv):
    """What parsing ``argv`` gives: the values, or the error or exit."""
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            args = vars(parser.parse_args(argv))
    except CliError as e:
        return "error", e.code, str(e)
    except SystemExit as e:   # --help, --version
        return "exit", e.code, out.getvalue()
    args.pop("parser", None)
    args.pop("handler", None)
    return "args", args


# per command words: its options, and the required ones given a value
_OPTIONS = {words: _command_parser(build_parser(), words)._actions
            for words in _COMMAND_WORDS}
_VALUES = ["0", "1", "2", "-1", "7", "x", "1.5", "mean", "hmds", "pooled",
           "trees", "dist", "--", "--version", "--M=3", "--max-it", "--in"]


@st.composite
def _argvs(draw):
    """Mostly well-formed command lines, with some noise."""
    words = draw(st.sampled_from([(), ("bogus",), ("gen",), ("gen", "x"),
                                  *_COMMAND_WORDS, *_COMMAND_WORDS]))
    argv = list(words)
    # words that name no command or space draw dist's options
    actions = _OPTIONS.get(words, _OPTIONS[("dist",)])
    if draw(st.integers(0, 3)):
        argv += [x for a in actions if a.required
                 for x in (a.option_strings[-1], "v")]
    # help texts are compared above
    options = [o for a in actions for o in a.option_strings
               if o not in ("-h", "--help")]
    for _ in range(draw(st.integers(0, 4))):
        argv.append(draw(st.sampled_from(options)))
        argv += draw(st.lists(st.sampled_from(_VALUES), min_size=1,
                              max_size=2))
    return argv


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(argv=_argvs())
def test_command_parser_parses_like_the_full_table(argv):
    assert _parsed(build_parser(argv[:2]), argv) == \
        _parsed(build_parser(), argv)


def test_mean_manifest_reports_stop_reason(tmp_path):
    pop, vectors = tmp_path / "pop.json", tmp_path / "k3.json"
    for path, k in ((pop, "1"), (vectors, "3")):
        assert run("gen", "trees", "-o", str(path), "--n", "6", "--k", k,
                   "--topology-noise", "1.0", "--seed", "3") == 0
        trees, _ = parse_population(path.read_text())
        assert len({t.splits for t in trees}) > 1

    def diagnostics(path, *extra):
        out = tmp_path / "m.json"
        assert run("mean", "--input", str(path), "-o", str(out),
                   "--deterministic", *extra) == 0
        return json.loads((tmp_path / "m.manifest.json").read_text())[
            "diagnostics"]

    full = diagnostics(pop)
    assert full["stop_reason"] == "certified"
    # the solve over the best input's orthant certifies: no hop, no walk
    assert (full["iterations"], full["hops"],
            full["orthant_evaluations"]) == (0, 0, 2)
    assert full["objective"] > 0.0
    # the step cap bounds the walk, which this search never reaches
    assert diagnostics(pop, "--max-iterations", "5") == full
    # vector attributes walk alone, so there the cap stops the search
    capped = diagnostics(vectors, "--max-iterations", "5")
    assert capped["stop_reason"] == "cap"
    assert (capped["iterations"], capped["hops"],
            capped["orthant_evaluations"]) == (5, 0, 0)
    assert capped["objective"] > 0.0


def test_mean_manifest_counts_orthant_evaluations(tmp_path):
    pop = tmp_path / "pop.json"
    assert run("gen", "trees", "-o", str(pop), "--n", "9",
               "--topology-noise", "0.5", "--seed", "4") == 0
    out = tmp_path / "m.json"
    manifests = []
    for _ in range(2):
        assert run("mean", "--input", str(pop), "-o", str(out),
                   "--deterministic") == 0
        manifests.append((tmp_path / "m.manifest.json").read_bytes())
    assert manifests[0] == manifests[1]
    diagnostics = json.loads(manifests[0])["diagnostics"]
    assert diagnostics["stop_reason"] == "certified"
    assert diagnostics["orthant_evaluations"] >= 1
    # a cap below two cycles bounds the walk, not the orthant search
    assert run("mean", "--input", str(pop), "-o", str(out),
               "--max-iterations", "17", "--deterministic") == 0
    capped = json.loads((tmp_path / "m.manifest.json").read_text())
    assert capped["diagnostics"] == diagnostics


def test_permtest_multi_orthant_counts_certified_means(tmp_path):
    pop = tmp_path / "pop.json"
    assert run("gen", "trees", "-o", str(pop), "--n", "12",
               "--topology-noise", "0.5", "--class-shift", '{"LMB": 0.3}',
               "--seed", "2") == 0
    trees, _ = parse_population(pop.read_text())
    assert len({t.splits for t in trees}) > 1
    out = tmp_path / "perm.json"
    assert run("permtest", "--groups", str(pop), "-o", str(out),
               "--M", "8", "--deterministic") == 0
    reasons = json.loads(out.read_text())["mean_stop_reasons"]
    manifest = json.loads((tmp_path / "perm.manifest.json").read_text())
    assert manifest["diagnostics"]["mean_stop_reasons"] == reasons
    assert reasons.get("certified", 0) > 0
    assert "cap" not in reasons
    assert sum(reasons.values()) == 2 * (8 + 1)


def test_permtest_variance_on_several_orthants(tmp_path):
    pop = tmp_path / "pop.json"
    assert run("gen", "trees", "-o", str(pop), "--n", "12",
               "--topology-noise", "0.5", "--class-shift", '{"LMB": 0.3}',
               "--seed", "2") == 0
    out = tmp_path / "perm.json"
    assert run("permtest", "--groups", str(pop), "-o", str(out),
               "--statistic", "variance", "--M", "4", "--full",
               "--deterministic") == 0
    report = json.loads(out.read_text())
    assert report["kind"] == "variance" and report["M"] == 4
    assert report["observed"] >= 0.0
    assert len(report["permuted"]) == 4
    assert min(report["permuted"]) >= 0.0
    assert 0.0 < report["p_value"] <= 1.0
    assert sum(report["mean_stop_reasons"].values()) == 2 * (4 + 1)


@pytest.mark.parametrize("text, message", [
    ("", "empty feature CSV"),
    ("id,class,A,B\n", "feature CSV has no data rows"),
    ("id,class,A,B\ns0,case,1.0,2.0\ns1,control,3.0\n",
     "row 1: expected 4 cells, found 3"),
    ("id,class,A,B\ns0,case,1.0,2.0\ns1,control,3.0,x\n",
     "row 1, column 'B': 'x' is not a number"),
    ("id,class,A\n" + "".join(
        f"s{i},{'' if i == 4 else ('case', 'control')[i % 2]},{i}.5\n"
        for i in range(7)),
     "row 4: every row needs a class"),
    ("id,class,A\n" + "".join(f"s{i},,{i}.5\n" for i in range(6)),
     "no class column"),
], ids=["empty", "header-only", "ragged", "non-numeric", "missing-class",
        "no-class-column"])
def test_classify_rejects_malformed_features(tmp_path, capsys, text,
                                             message):
    feats = tmp_path / "f.csv"
    feats.write_text(text)
    assert run("classify", "--features", str(feats),
               "-o", str(tmp_path / "cv.json")) == 65
    assert capsys.readouterr().err == \
        f"treespace: error: input: {feats}: {message}\n"


def test_distortion_needs_matrices_on_the_same_ids(tmp_path, capsys):
    orig, emb = tmp_path / "orig.csv", tmp_path / "emb.csv"
    orig.write_text(_distance_csv())
    emb.write_text(_distance_csv(ids=("a", "b", "z")))
    out = tmp_path / "distortion.json"
    assert run("distortion", "--original", str(orig), "--embedded", str(emb),
               "-o", str(out)) == 65
    assert capsys.readouterr().err == \
        "treespace: error: input: matrices have different ids\n"
    assert not out.exists()


@pytest.mark.parametrize("argv, flag, values", [
    (("classify", "--features", "{feats}"), "--alphas", ["1.0", "0.5", "1"]),
    (("classify", "--input", "{pop}"), "--labels", ["LMB", "LMB"]),
    (("subtree-features", "--input", "{pop}"), "--labels",
     ["LMB", "RMB", "LMB"]),
    (("correlate", "--input", "{pop}"), "--labels", ["LMB", "LMB"]),
], ids=["classify-alphas", "classify-labels", "subtree-features-labels",
        "correlate-labels"])
def test_repeated_option_values_are_usage_errors(pop_file, tmp_path, capsys,
                                                 argv, flag, values):
    # one line and exit 64, by flag and by --config, before any work: a
    # repeated alpha would run every fit twice, and a repeated label
    # would fail the subtree scheme after the input is read
    feats = tmp_path / "f.csv"
    feats.write_text("id,class,A\n" + "".join(
        f"s{i},{('case', 'control')[i % 2]},{i}.5\n" for i in range(6)))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({flag.lstrip("-"): values}))
    argv = [a.format(pop=pop_file, feats=feats) for a in argv]
    repeated = "1.0" if flag == "--alphas" else "LMB"
    capsys.readouterr()
    for option in ([flag, *values], ["--config", str(cfg)]):
        out = tmp_path / "out"
        assert run(*argv, *option, "-o", str(out)) == 64
        assert capsys.readouterr().err == (
            f"treespace: error: usage: argument {flag}: {repeated} given "
            f"twice\n")
        assert not out.exists()


@pytest.mark.parametrize("argv, flag, key, value, kind", [
    (("classify", "--features", "{feats}"), "--folds", "folds", 1,
     "an integer of at least 2"),
    (("classify", "--features", "{feats}"), "--repeats", "repeats", 0,
     "a positive integer"),
    (("knn", "--matrix", "{dist}", "--folds", "2"), "--k", "k", 0,
     "a positive integer"),
    (("knn", "--matrix", "{dist}"), "--folds", "folds", 1,
     "an integer of at least 2"),
    (("permtest", "--groups", "{pop}"), "--M", "m", 0, "a positive integer"),
    (("mean", "--input", "{pop}"), "--max-iterations", "max-iterations", 0,
     "a positive integer"),
    (("gen", "trees"), "--n", "n", 0, "a positive integer"),
    (("gen", "corner"), "--n", "n", 0, "a positive integer"),
    (("gen", "sheets"), "--sheets", "sheets", 1, "an integer of at least 2"),
    (("gen", "sheets"), "--dim", "dim", 1, "an integer of at least 2"),
    (("gen", "sheets"), "--per-sheet", "per_sheet", 0, "a positive integer"),
], ids=["classify-folds", "classify-repeats", "knn-k", "knn-folds",
        "permtest-M", "mean-max-iterations", "gen-trees-n", "gen-corner-n",
        "gen-sheets-sheets", "gen-sheets-dim", "gen-sheets-per-sheet"])
def test_integer_options_below_range_are_usage_errors(tmp_path, capsys, argv,
                                                      flag, key, value, kind):
    # one line and exit 64, by flag and by --config, before any work; the
    # value is the largest one out of range
    ids = [f"s{i}" for i in range(20)]
    labels = ["case", "control"] * 10
    feats = tmp_path / "f.csv"
    feats.write_text("id,class,A,B\n" + "".join(
        f"{i},{c},{j},{j * j % 5}\n" for j, (i, c) in enumerate(
            zip(ids, labels))))
    pts = np.arange(20.0)
    dist = tmp_path / "d.csv"
    dist.write_text(DistanceMatrix(ids, np.abs(pts[:, None] - pts),
                                   tuple(labels)).to_csv())
    pop = tmp_path / "pop.json"
    assert run("gen", "trees", "-o", str(pop), "--n", "6",
               "--class-shift", '{"LMB": 0.5}') == 0
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({key: value}))
    argv = [a.format(feats=feats, dist=dist, pop=pop) for a in argv]
    capsys.readouterr()
    for option in ([flag, str(value)], ["--config", str(cfg)]):
        out = tmp_path / "out"
        assert run(*argv, *option, "-o", str(out)) == 64
        assert capsys.readouterr().err == (
            f"treespace: error: usage: argument {flag}: expected {kind}, "
            f"got '{value}'\n")
        assert not out.exists()


@pytest.mark.parametrize("argv, flag", [
    (("embed", "--input", "{dist}"), "--restarts"),
    (("embed", "--input", "{dist}"), "--max-iterations"),
    (("embed", "--input", "{dist}", "--method", "hmds"), "--isomap-k"),
    (("embed", "--input", "{dist}"), "--bins"),
    (("distortion", "--original", "{dist}", "--embedded", "{dist}"),
     "--bins"),
], ids=["embed-restarts", "embed-max-iterations", "embed-isomap-k",
        "embed-bins", "distortion-bins"])
def test_embedding_counts_below_one_are_usage_errors(tmp_path, capsys, argv,
                                                     flag):
    # one line and exit 64, by flag and by --config, before any work
    pts = np.arange(6.0)
    dist = tmp_path / "d.csv"
    dist.write_text(DistanceMatrix(tuple(f"s{i}" for i in range(6)),
                                   np.abs(pts[:, None] - pts)).to_csv())
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({flag[2:]: 0}))
    argv = [a.format(dist=dist) for a in argv]
    for option in ([flag, "0"], ["--config", str(cfg)]):
        out = tmp_path / "out"
        assert run(*argv, *option, "-o", str(out)) == 64
        assert capsys.readouterr().err == (
            f"treespace: error: usage: argument {flag}: expected a "
            f"positive integer, got '0'\n")
        assert not out.exists()


def test_classify_names_inner_folds_it_cannot_build(tmp_path, capsys):
    # 12 subjects in 3 outer folds leave 8 per training fold, too few for
    # 5 inner folds that each leave every class in training
    pop, feats = tmp_path / "pop.json", tmp_path / "feats.csv"
    assert run("gen", "trees", "-o", str(pop), "--n", "12",
               "--topology-noise", "0.3", "--class-shift", '{"LMB": 0.5}',
               "--seed", "5") == 0
    assert run("subtree-features", "--input", str(pop), "-o", str(feats),
               "--mode", "pooled") == 0
    capsys.readouterr()
    assert run("classify", "--features", str(feats), "--folds", "3",
               "-o", str(tmp_path / "cv.json")) == 70
    assert capsys.readouterr().err == (
        "treespace: error: compute: could not build 5 inner folds "
        "containing every class from a training fold of 8 subjects\n")


def test_classify_output_is_pinned(tmp_path):
    # cv.json of a seeded 17-subject cohort, on both kinds of subtree
    # features; a change to the elastic-net solver must keep these bytes
    pop = tmp_path / "pop.json"
    assert run("gen", "trees", "-o", str(pop), "--n", "17",
               "--attr-sigma", "0.1", "--topology-noise", "0.5",
               "--class-shift", '{"LMB": 0.3}', "--seed", "1") == 0
    digests = {}
    for mode in ("pooled", "per-class"):
        feats, cv = tmp_path / f"{mode}.csv", tmp_path / f"{mode}.json"
        assert run("subtree-features", "--input", str(pop), "--mode", mode,
                   "-o", str(feats), "--seed", "1") == 0
        assert run("classify", "--features", str(feats), "--alphas", "1.0",
                   "0.5", "--folds", "3", "--repeats", "1", "--seed", "1",
                   "-o", str(cv)) == 0
        digests[mode] = hashlib.sha256(cv.read_bytes()).hexdigest()
    assert digests == {
        "pooled": "6e875f0c524087a9a10d1af24247afb9"
                  "1b6395ae452d0cabcc21a333b648d9ee",
        "per-class": "f9d150005d47ab0b2e521270e07f4882"
                     "3f11d0ec0454d63add24fd0f5af7c4eb",
    }


@pytest.fixture(scope="module")
def cohort17(tmp_path_factory):
    """The seeded 17-subject cohort in several topologies."""
    pop = tmp_path_factory.mktemp("cohort17") / "pop.json"
    assert run("gen", "trees", "-o", str(pop), "--n", "17",
               "--attr-sigma", "0.1", "--topology-noise", "0.5",
               "--class-shift", '{"LMB": 0.3}', "--seed", "1") == 0
    return pop


# sha256 of the outputs of the commands that run subtree means and
# multi-topology group means on the cohort: (argv after the input, output
# path, {file under it: digest})
_COHORT_PINS = {
    "classify-pooled": (
        ["classify", "--input", "{pop}", "--mode", "pooled", "--alphas",
         "1.0", "--folds", "3", "--repeats", "1"], "cv.json",
        {"": "8ab1bf978be17a75399eab42f8bf77ee"
             "803f09135e3b0d6d0802b7ee5826f5fc"}),
    "classify-per-class": (
        ["classify", "--input", "{pop}", "--mode", "per-class", "--alphas",
         "1.0", "--folds", "3", "--repeats", "1"], "cv.json",
        {"": "4601c2ecea7457a35aa0b35055de9afe"
             "2608fe6dda29200b863e675447d0b6c6"}),
    "correlate": (
        ["correlate", "--input", "{pop}"], "corr",
        {"correlation.csv": "3116628d924547748d80fcb3bdfb398e"
                            "913279c2e60a30c9c23344267334cf67",
         "deviations.csv": "366e676268d372f914b34b3512d75ba6"
                           "0f2240749a45e5cb140db6ad9761e342",
         "pairs.svg": "9b2132555c74fc05adbffd638e1fc04e"
                      "f71d24252e4f08ed9ea034b9d5d2bde7"}),
    "permtest": (
        ["permtest", "--groups", "{pop}", "--statistic", "mean", "--M",
         "30", "--threads", "1"], "perm.json",
        {"": "4a9710cc9baa1cc42eb943ab9e3838d6"
             "ad611353584fcc713f851e1b8427c223"}),
}


@pytest.mark.parametrize("argv, manifest, mode", [
    (["subtree-features", "--mode", "pooled"], "f.manifest.json", "pooled"),
    (["subtree-features", "--mode", "per-class"], "f.manifest.json",
     "per-class"),
    (["correlate"], "f/manifest.json", "pooled"),
])
def test_subtree_mean_diagnostics_in_manifests(cohort17, tmp_path, argv,
                                               manifest, mode):
    # one mean per label (and class), searched as the commands search them
    trees, classes = parse_population(cohort17.read_text())
    cfg = MeanConfig(seed=1, certify=True)
    results = []
    for label in DEFAULT_BRANCH_LABELS:
        subs = [extract_subtree(t, label) for t in trees]
        groups = [subs] if mode == "pooled" else [
            [s for s, c in zip(subs, classes) if c == cls]
            for cls in sorted(set(classes))]
        results += [frechet_mean_detailed(g, cfg) for g in groups]
    assert run(*argv, "--input", str(cohort17), "--seed", "1",
               "--deterministic", "-o", str(tmp_path / "f")) == 0
    diagnostics = json.loads((tmp_path / manifest).read_text())[
        "diagnostics"]
    assert diagnostics == {
        "mean_stop_reasons": dict(Counter(r.stop_reason for r in results)),
        "mean_iterations": sum(r.iterations for r in results),
        "mean_hops": sum(r.hops for r in results)}
    # the multi-topology means certify without a walk step, two
    # evaluations a solve; the others are plain averages
    assert set(diagnostics["mean_stop_reasons"]) == {"certified",
                                                     "converged"}
    assert diagnostics["mean_iterations"] == 0
    assert all(r.evaluations == 2 * (r.hops + 1) for r in results
               if r.stop_reason == "certified")


@pytest.mark.parametrize("name", sorted(_COHORT_PINS))
def test_cohort_outputs_pinned(cohort17, tmp_path, name):
    argv, output, pins = _COHORT_PINS[name]
    out = tmp_path / output
    assert run(*(a.format(pop=cohort17) for a in argv), "--seed", "1",
               "--deterministic", "-o", str(out)) == 0
    assert {f: hashlib.sha256((out / f if f else out).read_bytes())
            .hexdigest() for f in pins} == pins


_PIPELINE = """
import sys
from treespace.cli import main
o = sys.argv[1]
for argv in (
    ["gen", "trees", "-o", f"{o}/pop.json", "--n", "16",
     "--topology-noise", "0.3", "--class-shift", '{"LMB": 0.5}',
     "--seed", "5"],
    ["dist", "--input", f"{o}/pop.json", "-o", f"{o}/dist.csv"],
    ["mean", "--input", f"{o}/pop.json", "-o", f"{o}/mean.json"],
    ["subtree-features", "--input", f"{o}/pop.json",
     "-o", f"{o}/feats.csv", "--mode", "pooled"],
    ["classify", "--features", f"{o}/feats.csv", "-o", f"{o}/cv.json",
     "--alphas", "1.0", "--folds", "3", "--repeats", "1"],
):
    assert main([*argv, "--deterministic"]) == 0, argv
"""


def test_outputs_byte_identical_across_hash_seeds(tmp_path):
    # set and dict iteration order follows PYTHONHASHSEED, which only a
    # fresh interpreter varies
    src = str(Path(treespace.__file__).resolve().parent.parent)
    outputs = []
    for hash_seed in ("0", "1"):
        out = tmp_path / hash_seed
        out.mkdir()
        env = {**os.environ, "PYTHONHASHSEED": hash_seed,
               "PYTHONPATH": os.pathsep.join(
                   [src, os.environ.get("PYTHONPATH", "")])}
        subprocess.run([sys.executable, "-c", _PIPELINE, str(out)],
                       env=env, check=True, timeout=600)
        outputs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())
                        if not p.name.endswith("manifest.json")})
    assert set(outputs[0]) == {"pop.json", "dist.csv", "mean.json",
                               "feats.csv", "cv.json"}
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("argv, flag, key, value, kind", [
    (("gen", "trees"), "--attr-sigma", "attr_sigma", math.nan,
     "a finite number of at least 0"),
    (("gen", "trees"), "--attr-sigma", "attr-sigma", math.inf,
     "a finite number of at least 0"),
    (("gen", "trees"), "--attr-sigma", "attr_sigma", -1.0,
     "a finite number of at least 0"),
    (("gen", "trees"), "--topology-noise", "topology_noise", math.nan,
     "a number in [0, 1]"),
    (("gen", "trees"), "--topology-noise", "topology-noise", 2.0,
     "a number in [0, 1]"),
    (("gen", "trees"), "--topology-noise", "topology_noise", -0.5,
     "a number in [0, 1]"),
    (("mean", "--input", "{pop}"), "--tolerance", "tolerance", math.nan,
     "a finite number above 0"),
    (("mean", "--input", "{pop}"), "--tolerance", "tolerance", math.inf,
     "a finite number above 0"),
    (("mean", "--input", "{pop}"), "--tolerance", "tolerance", 0.0,
     "a finite number above 0"),
    (("classify", "--features", "{feats}"), "--alphas", "alphas", 0.0,
     "a number in (0, 1]"),
    (("classify", "--features", "{feats}"), "--alphas", "alphas", 1.5,
     "a number in (0, 1]"),
    (("classify", "--features", "{feats}"), "--alphas", "alphas", -math.inf,
     "a number in (0, 1]"),
], ids=["sigma-nan", "sigma-inf", "sigma-negative", "noise-nan", "noise-2",
        "noise-negative", "tolerance-nan", "tolerance-inf", "tolerance-0",
        "alphas-0", "alphas-1.5", "alphas-minus-inf"])
def test_float_options_out_of_range_are_usage_errors(tmp_path, capsys, argv,
                                                     flag, key, value, kind):
    # NaN and the infinities included: one line and exit 64, by flag and
    # by --config, before any work
    pop, feats = tmp_path / "pop.json", tmp_path / "f.csv"
    assert run("gen", "trees", "-o", str(pop), "--n", "6",
               "--class-shift", '{"LMB": 0.5}') == 0
    feats.write_text("id,class,A\n" + "".join(
        f"s{i},{('case', 'control')[i % 2]},{i}.5\n" for i in range(6)))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({key: value}))
    text = json.dumps(value)      # NaN, Infinity, -Infinity, 2.0, ...
    argv = [a.format(pop=pop, feats=feats) for a in argv]
    capsys.readouterr()
    for option in ([f"{flag}={text}"], ["--config", str(cfg)]):
        out = tmp_path / "out"
        assert run(*argv, *option, "-o", str(out)) == 64
        assert capsys.readouterr().err == (
            f"treespace: error: usage: argument {flag}: expected {kind}, "
            f"got '{text}'\n")
        assert not out.exists()


def test_config_keys_may_spell_the_flag(pop_file, tmp_path, capsys):
    # {"M": 0} names --M as {"m": 0} names its dest: both are checked
    cfg = tmp_path / "cfg.json"
    for key in ("M", "m"):
        cfg.write_text(json.dumps({key: 0}))
        capsys.readouterr()
        assert run("permtest", "--groups", str(pop_file), "-o",
                   str(tmp_path / "perm.json"), "--config", str(cfg)) == 64
        assert capsys.readouterr().err == (
            "treespace: error: usage: argument --M: expected a positive "
            "integer, got '0'\n")


def test_top_level_help_is_plain_text(capsys):
    assert run("--help") == 0
    out = capsys.readouterr().out
    assert "``" not in out
    assert "flags, then --config JSON, then" in " ".join(out.split())


def test_missing_branch_label_is_named_without_quotes(pop_file, tmp_path,
                                                      capsys):
    # a KeyError's own message, not its repr
    assert run("subtree-features", "--input", str(pop_file), "--labels",
               "NOPE", "-o", str(tmp_path / "f.csv")) == 70
    assert capsys.readouterr().err == (
        "treespace: error: compute: tree carries no branch labeled "
        "'NOPE'\n")


def test_knn_input_manifest_counts_the_geodesic_work_of_dist(tmp_path):
    pop = tmp_path / "pop.json"
    assert run("gen", "trees", "-o", str(pop), "--n", "8",
               "--topology-noise", "1.0", "--seed", "3") == 0
    assert run("dist", "--input", str(pop), "-o", str(tmp_path / "d.csv"),
               "--deterministic") == 0
    counts = json.loads((tmp_path / "d.manifest.json").read_text())
    assert counts["diagnostics"]["pairs"] == 28
    for threads in ("1", "2"):
        out = tmp_path / f"knn{threads}.json"
        assert run("knn", "--input", str(pop), "--k", "1", "--folds", "2",
                   "--threads", threads, "-o", str(out),
                   "--deterministic") == 0
        manifest = json.loads(out.with_suffix(".manifest.json").read_text())
        assert manifest["diagnostics"] == counts["diagnostics"]
