"""Spans around the public functions of every treespace module.

The tracer swaps each traced function for a wrapper in every module that
binds it (``stats``, ``subtrees`` and ``cli`` each hold their own reference
to ``geodesic_distance``), so calls made through any binding are seen.
Methods are swapped on their class.  ``uninstall`` puts the originals back.

A span records name, start, end and parent.  Self time is the span's
duration minus the durations of its direct children.  Stage spans (one per
CLI call, opened with ``stage``) are kept raw; library spans run 10^5-10^6
times a pass, so they are folded in memory per (name, parent) into a count,
total time, self time and a log-bucket percentile sketch.
"""

from __future__ import annotations

import contextlib
import functools
import math
import sys
import time

# Predicates called millions of times a pass at well under a microsecond
# each; wrapping them would cost more than the work they do.  Their time
# stays in the caller's self time.
SKIP = {"treespace.trees": {"compatible", "all_compatible", "split_key",
                            "splits_of"}}

# (module, class, method) pairs traced as "<Class>.<method>".
METHODS = [
    ("treespace.trees", "AttributedTree", "__post_init__"),
    ("treespace.geodesic", "GeodesicPath", "point"),
    ("treespace.distmat", "DistanceMatrix", "__post_init__"),
    ("treespace.distmat", "DistanceMatrix", "to_csv"),
    ("treespace.distmat", "DistanceMatrix", "from_csv"),
    ("treespace.distmat", "DistanceMatrix", "read_csv"),
    ("treespace.distmat", "DistanceMatrix", "write_csv"),
    ("treespace.distmat", "DistanceMatrix", "submatrix"),
    ("treespace.subtrees", "FeatureMatrix", "to_csv"),
    ("treespace.subtrees", "FeatureMatrix", "from_csv"),
]

MODULES = ("trees", "distmat", "geodesic", "stats", "subtrees", "classify",
           "embedding", "synthetic", "svgfig")

# Sketch buckets grow by 2% so percentiles carry at most 1% relative error.
_BASE = math.log(1.02)


class Sketch:
    """Log-bucket histogram of durations for percentile estimates."""

    __slots__ = ("buckets",)

    def __init__(self):
        self.buckets = {}

    def add(self, seconds: float) -> None:
        b = math.floor(math.log(seconds) / _BASE) if seconds > 0 else -10**6
        self.buckets[b] = self.buckets.get(b, 0) + 1

    def merge(self, other: "Sketch") -> None:
        for b, c in other.buckets.items():
            self.buckets[b] = self.buckets.get(b, 0) + c

    def quantile(self, q: float) -> float:
        """Seconds at quantile ``q``: the geometric middle of its bucket."""
        total = sum(self.buckets.values())
        if total == 0:
            return 0.0
        rank = q * (total - 1)
        seen = 0
        for b in sorted(self.buckets):
            seen += self.buckets[b]
            if seen > rank:
                return 0.0 if b == -10**6 else math.exp((b + 0.5) * _BASE)
        raise AssertionError("unreachable")


class Agg:
    """Folded leaf spans of one (name, parent)."""

    __slots__ = ("count", "total", "self_time", "sketch")

    def __init__(self):
        self.count = 0
        self.total = 0.0
        self.self_time = 0.0
        self.sketch = Sketch()


class _Frame:
    __slots__ = ("name", "start", "child")

    def __init__(self, name, start):
        self.name = name
        self.start = start
        self.child = 0.0


class Tracer:
    """Installs wrappers, collects spans, and restores the originals.

    ``hooks`` maps a span name to ``f(args, kwargs, result)``, called after
    the wrapped function returns, for counts read off arguments or results.
    """

    def __init__(self, hooks=None):
        self.hooks = dict(hooks or {})
        self.stack = [_Frame(None, 0.0)]
        self.aggs: dict[tuple[str, str | None], Agg] = {}
        self.stages: list[dict] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------

    def _enter(self, name):
        frame = _Frame(name, time.perf_counter())
        self.stack.append(frame)
        return frame

    def _exit(self, frame):
        end = time.perf_counter()
        self.stack.pop()
        parent = self.stack[-1]
        dur = end - frame.start
        parent.child += dur
        return end, dur, parent.name

    @contextlib.contextmanager
    def stage(self, name):
        """One raw stage span (a CLI call)."""
        frame = self._enter(name)
        try:
            yield
        finally:
            end, dur, parent = self._exit(frame)
            self.stages.append({"name": name, "parent": parent,
                                "start": frame.start, "end": end,
                                "self_s": dur - frame.child})

    def wrap(self, name, fn):
        enter, leave, aggs = self._enter, self._exit, self.aggs
        hook = self.hooks.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                _, dur, parent = leave(frame)
                agg = aggs.get((name, parent))
                if agg is None:
                    agg = aggs[(name, parent)] = Agg()
                agg.count += 1
                agg.total += dur
                agg.self_time += dur - frame.child
                agg.sketch.add(dur)
            if hook is not None:
                hook(args, kwargs, result)
            return result

        return traced

    # -- installation ------------------------------------------------------

    def install(self):
        """Wrap every public function of every treespace module, in every
        treespace module that binds it, plus the methods in ``METHODS``."""
        import treespace.cli  # noqa: F401  (loads every submodule)
        wrappers = {}
        for short in MODULES:
            mod = sys.modules[f"treespace.{short}"]
            skip = SKIP.get(mod.__name__, set())
            for attr in getattr(mod, "__all__", ()):
                fn = getattr(mod, attr)
                if (callable(fn) and not isinstance(fn, type)
                        and attr not in skip
                        and getattr(fn, "__module__", None) == mod.__name__):
                    wrappers[fn] = self.wrap(f"{short}.{attr}", fn)
        for name, mod in list(sys.modules.items()):
            if name != "treespace" and not name.startswith("treespace."):
                continue
            for attr, value in list(vars(mod).items()):
                try:
                    wrapper = wrappers.get(value)
                except TypeError:  # unhashable module attribute
                    continue
                if wrapper is not None:
                    self._swap(mod, attr, wrapper)
        for modname, cls_name, meth in METHODS:
            cls = getattr(sys.modules[modname], cls_name)
            raw = cls.__dict__[meth]
            short = modname.split(".")[1]
            span = f"{short}.{cls_name}.{meth}"
            if isinstance(raw, classmethod):
                wrapped = classmethod(self.wrap(span, raw.__func__))
            else:
                wrapped = self.wrap(span, raw)
            self._swap(cls, meth, wrapped)
        return self

    def _swap(self, owner, attr, value):
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- results -----------------------------------------------------------

    def table(self) -> list[dict]:
        """Folded spans, one row per (name, parent), for the record."""
        rows = []
        for (name, parent), agg in sorted(
                self.aggs.items(), key=lambda kv: -kv[1].total):
            rows.append({
                "name": name, "parent": parent, "count": agg.count,
                "total_s": agg.total, "self_s": agg.self_time,
                "p50_ms": 1e3 * agg.sketch.quantile(0.5),
                "p99_ms": 1e3 * agg.sketch.quantile(0.99)})
        return rows

    def by_name(self, name) -> Agg:
        """All spans of ``name``, whatever their parent."""
        out = Agg()
        for (n, _), agg in self.aggs.items():
            if n == name:
                out.count += agg.count
                out.total += agg.total
                out.self_time += agg.self_time
                out.sketch.merge(agg.sketch)
        return out

    def self_time(self, prefix) -> float:
        """Summed self time of every span whose name starts with prefix."""
        return sum((a.self_time for (n, _), a in self.aggs.items()
                    if n.startswith(prefix)), 0.0)
