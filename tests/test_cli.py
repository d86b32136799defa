import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import treespace
from treespace.cli import main
from treespace.distmat import DistanceMatrix, csv_rows
from treespace.geodesic import distance_matrix_detailed
from treespace.trees import parse_population, parse_tree


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


def test_mean_manifest_reports_stop_reason(tmp_path):
    pop = tmp_path / "pop.json"
    assert run("gen", "trees", "-o", str(pop), "--n", "6",
               "--topology-noise", "1.0", "--seed", "3") == 0
    trees, _ = parse_population(pop.read_text())
    assert len({t.splits for t in trees}) > 1

    def diagnostics(*extra):
        out = tmp_path / "m.json"
        assert run("mean", "--input", str(pop), "-o", str(out),
                   "--deterministic", *extra) == 0
        return json.loads((tmp_path / "m.manifest.json").read_text())[
            "diagnostics"]

    full = diagnostics()
    assert full["stop_reason"] == "certified"
    assert 0 < full["iterations"] < 6000
    assert full["objective"] > 0.0
    capped = diagnostics("--max-iterations", "5")
    assert capped["stop_reason"] == "cap"
    assert capped["iterations"] == 5
    assert capped["objective"] >= full["objective"]


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
    # capped before the first solve, after cycle 2
    assert run("mean", "--input", str(pop), "-o", str(out),
               "--max-iterations", "17", "--deterministic") == 0
    capped = json.loads((tmp_path / "m.manifest.json").read_text())
    assert capped["diagnostics"]["orthant_evaluations"] == 0


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


@pytest.mark.parametrize("text", [
    "",
    "id,class,A,B\n",
    "id,class,A,B\ns0,case,1.0,2.0\ns1,control,3.0\n",
], ids=["empty", "header-only", "ragged"])
def test_classify_rejects_malformed_features(tmp_path, capsys, text):
    feats = tmp_path / "f.csv"
    feats.write_text(text)
    assert run("classify", "--features", str(feats),
               "-o", str(tmp_path / "cv.json")) == 65
    err = capsys.readouterr().err
    assert err.startswith("treespace: error: input:")
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("argv", [
    ("classify", "--features", "{feats}", "--folds", "0"),
    ("classify", "--features", "{feats}", "--repeats", "0"),
    ("knn", "--matrix", "{dist}", "--k", "0", "--folds", "2"),
    ("knn", "--matrix", "{dist}", "--folds", "0"),
    ("embed", "--input", "{dist}", "--restarts", "0"),
], ids=["classify-folds", "classify-repeats", "knn-k", "knn-folds",
        "embed-restarts"])
def test_count_options_below_minimum(tmp_path, capsys, argv):
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
    out = tmp_path / "out"
    argv = [a.format(feats=feats, dist=dist) for a in argv]
    assert run(*argv, "-o", str(out)) == 70
    err = capsys.readouterr().err
    assert err.startswith("treespace: error: compute:")
    assert len(err.strip().splitlines()) == 1
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
