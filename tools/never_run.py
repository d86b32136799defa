"""The ledger of ``src/treespace`` statements that the tier-1 suite never runs.

Runs the tier-1 tests (``pytest tests``) in this process under
``sys.settrace`` and lists every statement of ``src/treespace`` that none of
them ran.  Forked pool workers are followed too: a forked child keeps
tracing, and ends with ``os._exit``, which the child wraps here so that it
writes the lines it ran to a scratch file first; the parent reads them back
when the suite ends.  A worker killed by a signal writes nothing.

An entry names the file, the qualified name of the enclosing function or
class (``<module>`` at the top level) and the statement's first source line,
stripped; a second statement with the same text in the same scope gets
`` [2]``, and so on.  Line numbers are not part of the key, so edits
elsewhere leave the list alone.  ``tests/data/never_run.txt`` holds the
expected list, one entry a line with a reason::

    <file> | <qualified name> | <first source line> | <reason>

The tool prints the entries it found to stdout, each with the ledger's
reason or ``UNLISTED``, while the suite reports to stderr.  It exits 0
when the entries match the ledger, 1 when a listed statement ran or an
unlisted one did not, and 2 when a test fails.  The trace more than
doubles the suite's time.  Run it from anywhere::

    python tools/never_run.py
"""

from __future__ import annotations

import ast
import contextlib
import json
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
PACKAGE = SRC / "treespace"
LEDGER = ROOT / "tests" / "data" / "never_run.txt"

_FILES = {str(p) for p in PACKAGE.glob("*.py")}
_ran: set[tuple[str, int]] = set()


def _lines(frame, event, arg):
    if event == "line":
        _ran.add((frame.f_code.co_filename, frame.f_lineno))
    return _lines


def _calls(frame, event, arg):
    return _lines if frame.f_code.co_filename in _FILES else None


def _in_child():
    # the parent keeps what it ran; a forked child starts an empty set,
    # keeps tracing, whichever thread forked it, and writes its lines on
    # the way out
    _ran.clear()
    os._exit = _exit_writing_lines
    sys.settrace(_calls)


_exit = os._exit
_scratch = None  # the directory the children write their lines to


def _exit_writing_lines(code):
    """``os._exit`` in a forked child: write the lines it ran, then exit."""
    path = Path(_scratch, str(os.getpid()))
    path.with_suffix(".tmp").write_text(json.dumps(sorted(_ran)))
    path.with_suffix(".tmp").replace(path)
    _exit(code)


def run_suite() -> tuple[int, set[tuple[str, int]]]:
    """The pytest exit code and the (file, line) pairs the suite ran."""
    global _scratch
    import pytest
    os.chdir(ROOT)
    sys.path.insert(0, str(SRC))
    # subprocesses started by tests import the package from the same tree
    os.environ["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    os.register_at_fork(after_in_child=_in_child)
    with tempfile.TemporaryDirectory() as _scratch:
        sys.settrace(_calls)
        try:
            # the suite's report goes to stderr, the list to stdout
            with contextlib.redirect_stdout(sys.stderr):
                code = pytest.main(["-q", "-p", "no:cacheprovider", "tests"])
        finally:
            sys.settrace(None)
        ran = set(_ran)
        for path in Path(_scratch).iterdir():
            if path.suffix != ".tmp":
                ran.update(map(tuple, json.loads(path.read_text())))
    return int(code), ran


def _code_lines(code) -> set[int]:
    """Lines that carry an instruction of ``code`` or its nested code."""
    out = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            out |= _code_lines(const)
    return out


def _children(node) -> list:
    """The statements nested directly in ``node``."""
    blocks = [getattr(node, f, []) for f in ("body", "orelse", "finalbody")]
    blocks += [h.body for h in getattr(node, "handlers", [])]
    blocks += [c.body for c in getattr(node, "cases", [])]
    return [s for block in blocks for s in block]


def never_run(ran: set[tuple[str, int]]) -> list[str]:
    """The key of every statement of the package that carries an
    instruction but ran neither a line of its own nor a statement nested
    in it, file by file in source order.  A statement's own lines are its
    span, decorators included, less the spans of the statements nested in
    it; a statement with no instruction (``global``, a function's
    docstring) is left out."""
    keys = []
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text()
        text = source.splitlines()
        code = _code_lines(compile(source, str(path), "exec"))
        hit = {line for name, line in ran if name == str(path)}
        found, seen = [], {}

        def visit(node, scope):
            """Whether ``node`` carries an instruction, and whether it ran."""
            line = text[node.lineno - 1].strip()
            n = seen[scope, line] = seen.get((scope, line), 0) + 1
            first = min([node.lineno] + [d.lineno for d in
                                         getattr(node, "decorator_list", [])])
            own = set(range(first, node.end_lineno + 1))
            kids = _children(node)
            for kid in kids:
                own -= set(range(kid.lineno, kid.end_lineno + 1))
            inner = scope
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                inner = node.name if scope == "<module>" \
                    else f"{scope}.{node.name}"
            results = [visit(kid, inner) for kid in kids]
            live = bool(own & code) or any(r[0] for r in results)
            did = bool(own & hit) or any(r[1] for r in results)
            if live and not did:
                found.append((node.lineno, f"{path.name} | {scope} | {line}"
                               + (f" [{n}]" if n > 1 else "")))
            return live, did

        for node in ast.parse(source).body:
            visit(node, "<module>")
        keys += [key for _, key in sorted(found)]
    return keys


def read_ledger(path: Path = LEDGER) -> dict[str, str]:
    """Ledger key -> reason; a line without all four fields raises
    ValueError."""
    out = {}
    for n, raw in enumerate(path.read_text().splitlines(), 1):
        if not raw.strip() or raw.startswith("#"):
            continue
        fields = raw.split(" | ", 2)
        key, _, reason = fields[-1].rpartition(" | ")
        if len(fields) < 3 or not key or not reason.strip():
            raise ValueError(f"{path.name}:{n}: expected '<file> | "
                             f"<qualified name> | <first source line> | "
                             f"<reason>'")
        out[" | ".join(fields[:2] + [key])] = reason
    return out


def main() -> int:
    ledger = read_ledger()
    code, ran = run_suite()
    if code != 0:
        print(f"never_run: the suite failed (pytest exit {code})",
              file=sys.stderr)
        return 2
    found = never_run(ran)
    for key in found:
        print(f"{key} | {ledger.get(key, 'UNLISTED')}")
    ran_listed = [k for k in ledger if k not in found]
    unlisted = [k for k in found if k not in ledger]
    for key in ran_listed:
        print(f"never_run: listed, but ran or is gone: {key}",
              file=sys.stderr)
    for key in unlisted:
        print(f"never_run: never run, unlisted: {key}", file=sys.stderr)
    print(f"never_run: {len(found)} statements never run, "
          f"{len(ledger)} listed", file=sys.stderr)
    return 1 if ran_listed or unlisted else 0


if __name__ == "__main__":
    sys.exit(main())
