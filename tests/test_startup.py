"""SciPy stays off the start-up path.

Only ``embed`` and the elastic-net ``classify`` use SciPy, and they import
it when they run.  Each check starts a fresh interpreter, because this
suite's other modules import SciPy themselves.
"""

import os
import subprocess
import sys
from pathlib import Path

import treespace

_SRC = str(Path(treespace.__file__).resolve().parent.parent)

# Every SciPy import raises in this process (a None entry in sys.modules
# blocks the import), so any command that reaches for SciPy fails.
_BLOCKED = """
import sys
sys.modules["scipy"] = None
import treespace
from treespace.cli import main
o = sys.argv[1]
pop, dist = f"{o}/pop.json", f"{o}/dist.csv"
for argv in (
    ["gen", "trees", "-o", pop, "--n", "8", "--topology-noise", "0.5",
     "--class-shift", '{"LMB": 0.3}'],
    ["dist", "--input", pop, "-o", dist],
    ["mean", "--input", pop, "-o", f"{o}/mean.json"],
    ["subtree-features", "--input", pop, "--mode", "pooled",
     "--labels", "LMB", "RMB", "-o", f"{o}/feats.csv"],
    ["correlate", "--input", pop, "--labels", "LMB", "RMB",
     "-o", f"{o}/corr"],
    ["knn", "--matrix", dist, "--k", "3", "--folds", "2",
     "-o", f"{o}/knn.json"],
    ["permtest", "--groups", pop, "--M", "3", "-o", f"{o}/perm.json"],
    ["distortion", "--original", dist, "--embedded", dist,
     "-o", f"{o}/distortion.json"],
):
    assert main(argv) == 0, argv
assert sys.modules.pop("scipy") is None
loaded = sorted(m for m in sys.modules if m.startswith("scipy"))
assert not loaded, loaded
"""

# SciPy is installed but not yet imported: importing the command line
# loads none of it, and the commands that need it import it themselves.
_COLD = """
import sys
import treespace.cli
loaded = sorted(m for m in sys.modules if m.startswith("scipy"))
assert not loaded, loaded
from treespace.cli import main
o = sys.argv[1]
for argv in (
    ["gen", "corner", "-o", f"{o}/c.json", "--n", "12"],
    ["embed", "--input", f"{o}/c.csv", "--method", "isomap",
     "--isomap-k", "4", "-o", f"{o}/emb"],
    ["gen", "trees", "-o", f"{o}/pop.json", "--n", "20",
     "--class-shift", '{"LMB": 0.5}'],
    ["subtree-features", "--input", f"{o}/pop.json", "--mode", "pooled",
     "--labels", "LMB", "-o", f"{o}/feats.csv"],
    ["classify", "--features", f"{o}/feats.csv", "--alphas", "1.0",
     "--folds", "2", "--repeats", "1", "-o", f"{o}/cv.json"],
):
    assert main(argv) == 0, argv
assert "scipy.special" in sys.modules
"""


def _run(script, out):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [_SRC, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-c", script, str(out)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr


def test_scipy_free_commands_run_with_scipy_blocked(tmp_path):
    _run(_BLOCKED, tmp_path)


def test_scipy_commands_import_it_when_they_run(tmp_path):
    _run(_COLD, tmp_path)
