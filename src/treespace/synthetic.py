"""Synthetic singular spaces with exact metrics, and tree populations.

Two families of non-Euclidean test beds:

* A cone made of five flat quadrants glued around one origin (total angle
  5 pi / 2).  Between two points the shortest path either stays in the
  flat part (law of cosines over the angular gap) or, once the gap reaches
  pi, goes through the apex, where the distance is just the sum of radii.
* Open books: S flat half-sheets of dimension d glued along their shared
  boundary (the spine, dimension d - 1).  Same sheet means plain Euclidean
  distance; across sheets the two half-planes unfold into one plane, so
  heights add.

Both metrics are exact, which is what makes the embedding distortion
numbers meaningful.  ``gen_tree_population`` fabricates labeled airway-like
tree populations around a template for the statistics and classification
pipelines: attribute noise, optional local topology changes, and a
deterministic per-branch offset for the "case" class.

All generators draw from ``numpy.random.default_rng``; anything needing
per-item streams seeds them as [seed, item index], so outputs are
reproducible across platforms and independent of evaluation order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._bounds import COUNT, FINITE, FRACTION, FROM_ZERO, TWO_UP, check
from .distmat import DistanceMatrix
from .trees import AttributedTree, split_key

__all__ = [
    "CONE_ANGLE",
    "ConePoint",
    "BookPoint",
    "MetricDataset",
    "cone_distance",
    "book_distance",
    "gen_corner",
    "gen_sheets",
    "TreePopulation",
    "gen_tree_population",
    "airway_template",
]

CONE_ANGLE = 2.5 * math.pi  # five quadrants around the apex


@dataclass(frozen=True)
class ConePoint:
    radius: float
    angle: float

    def __post_init__(self):
        check(FROM_ZERO, radius=self.radius)
        if not 0.0 <= self.angle < CONE_ANGLE:
            raise ValueError(f"angle must lie in [0, {CONE_ANGLE})")


@dataclass(frozen=True)
class BookPoint:
    sheet: int
    spine: tuple[float, ...]
    height: float

    def __post_init__(self):
        if self.sheet < 0:
            raise ValueError("sheet index must be nonnegative")
        check(FROM_ZERO, height=self.height)
        object.__setattr__(self, "spine", tuple(float(v)
                                                for v in self.spine))


def cone_distance(p: ConePoint, q: ConePoint) -> float:
    """Exact geodesic distance on the 5-quadrant cone."""
    gap = abs(p.angle - q.angle)
    theta = min(gap, CONE_ANGLE - gap)
    if theta >= math.pi:
        return p.radius + q.radius
    return math.sqrt(p.radius ** 2 + q.radius ** 2
                     - 2.0 * p.radius * q.radius * math.cos(theta))


def book_distance(p: BookPoint, q: BookPoint) -> float:
    """Exact geodesic distance on an open book of half-sheets."""
    if len(p.spine) != len(q.spine):
        raise ValueError("spine dimensions differ")
    spine_sq = sum((a - b) ** 2 for a, b in zip(p.spine, q.spine))
    if p.sheet == q.sheet:
        return math.sqrt(spine_sq + (p.height - q.height) ** 2)
    return math.sqrt(spine_sq + (p.height + q.height) ** 2)


@dataclass
class MetricDataset:
    """Sampled points with their class labels and the exact metric."""

    space: str
    points: list
    labels: tuple[int, ...]
    matrix: DistanceMatrix
    params: dict
    seed: int

    def to_json(self) -> dict:
        if self.space == "cone":
            pts = [{"radius": p.radius, "angle": p.angle}
                   for p in self.points]
        else:
            pts = [{"sheet": p.sheet, "spine": list(p.spine),
                    "height": p.height} for p in self.points]
        return {"space": self.space, "params": self.params,
                "seed": self.seed, "points": pts,
                "labels": list(self.labels)}

    @classmethod
    def from_json(cls, data: dict) -> "MetricDataset":
        space = data["space"]
        if space == "cone":
            points = [ConePoint(p["radius"], p["angle"])
                      for p in data["points"]]
            dist = cone_distance
        elif space == "book":
            points = [BookPoint(p["sheet"], p["spine"], p["height"])
                      for p in data["points"]]
            dist = book_distance
        else:
            raise ValueError(f"unknown space: {space!r}")
        labels = tuple(int(v) for v in data["labels"])
        matrix = _exact_matrix(points, labels, dist)
        return cls(space, points, labels, matrix, data.get("params", {}),
                   data.get("seed", 0))


def _exact_matrix(points, labels, dist) -> DistanceMatrix:
    n = len(points)
    values = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            values[i, j] = values[j, i] = dist(points[i], points[j])
    ids = tuple(f"p{i}" for i in range(n))
    return DistanceMatrix(ids, values, tuple(str(c) for c in labels))


def gen_corner(n: int = 250, seed: int = 0) -> MetricDataset:
    """Half-normal radii, uniform angles over the whole cone.

    Labels index the quadrant the angle falls in (0 to 4).
    """
    check(COUNT, n=n)
    rng = np.random.default_rng(seed)
    radii = np.abs(rng.normal(0.0, 1.0, size=n))
    angles = rng.uniform(0.0, CONE_ANGLE, size=n)
    points = [ConePoint(float(r), float(a)) for r, a in zip(radii, angles)]
    labels = tuple(int(a // (math.pi / 2)) for a in angles)
    matrix = _exact_matrix(points, labels, cone_distance)
    return MetricDataset("cone", points, labels, matrix,
                         {"n": n}, seed)


def gen_sheets(sheets: int, dim: int, per_sheet: int = 50,
               seed: int = 0) -> MetricDataset:
    """Per sheet: standard-normal spine coordinates, half-normal heights."""
    check(TWO_UP, sheets=sheets, dim=dim)
    check(COUNT, per_sheet=per_sheet)
    rng = np.random.default_rng(seed)
    points, labels = [], []
    for s in range(sheets):
        spines = rng.normal(0.0, 1.0, size=(per_sheet, dim - 1))
        heights = np.abs(rng.normal(0.0, 1.0, size=per_sheet))
        for sp, h in zip(spines, heights):
            points.append(BookPoint(s, tuple(float(v) for v in sp),
                                    float(h)))
            labels.append(s)
    labels = tuple(labels)
    matrix = _exact_matrix(points, labels, book_distance)
    return MetricDataset("book", points, labels, matrix,
                         {"sheets": sheets, "dim": dim,
                          "per_sheet": per_sheet}, seed)


# ---------------------------------------------------------------------------
# tree populations
# ---------------------------------------------------------------------------

@dataclass
class TreePopulation:
    trees: list
    classes: list


def airway_template(k: int = 1) -> AttributedTree:
    """A nine-branch labeled tree shaped like the main airway segments.

    Left side: LMB forks into LUL (carrying L1+2+3) and LLB; right side:
    RMB leads to RUL and down the BronchInt to RLL.  The LLB ends in an
    unresolved three-way basal trunk, the one spot where individual
    branching order genuinely varies, so topology noise has somewhere to
    act without touching a labeled branch.  Attributes default to unit
    first coordinate.
    """
    check(COUNT, k=k)
    groups = {
        "Trachea": ("l1", "l2", "l3", "l4", "l5", "r1", "r2", "r3"),
        "LMB": ("l1", "l2", "l3", "l4", "l5"),
        "LUL": ("l1", "l2"),
        "L1+2+3": ("l1",),
        "LLB": ("l3", "l4", "l5"),
        "RMB": ("r1", "r2", "r3"),
        "RUL": ("r1",),
        "BronchInt": ("r2", "r3"),
        "RLL": ("r2",),
    }
    attr = (1.0,) + (0.0,) * (k - 1)
    leaves = groups["Trachea"]
    edges = {frozenset(v): attr for v in groups.values()}
    for leaf in leaves:  # pendants keep the leaf set visible in every split
        edges.setdefault(frozenset({leaf}), attr)
    labels = {name: frozenset(v) for name, v in groups.items()}
    return AttributedTree(leaves, edges, labels)


def _regraft_moves(tree):
    """All (pendant, sibling split) pairs admitting a local regraft.

    The pendant's parent is its smallest containing split; eligible
    siblings are the maximal splits strictly inside the parent avoiding
    the leaf.  Grafting the pendant onto such a sibling inserts the split
    sibling + leaf, which is compatible with everything by construction.
    """
    splits = set(tree.edges)
    moves = []
    for leaf in tree.leaves:
        containing = [s for s in splits if leaf in s and len(s) > 1]
        if not containing:
            continue
        parent = min(containing, key=len)
        inside = [s for s in splits if s < parent and leaf not in s]
        if not inside:
            continue
        top = max(len(s) for s in inside)
        for s in sorted((s for s in inside if len(s) == top), key=split_key):
            if s | {leaf} != parent and s | {leaf} not in splits:
                moves.append((leaf, s))
    return moves


def _apply_regraft(edges, leaf, sibling):
    half = tuple(c / 2.0 for c in edges[sibling])
    edges[sibling] = half
    edges[sibling | {leaf}] = half
    return edges


def _shift_offsets(class_shift, template) -> dict:
    """``class_shift`` as branch label -> offset of the attribute dimension
    of ``template``: a number shifts the first coordinate only."""
    k = template.k or 1
    shift = {}
    for label, off in (class_shift or {}).items():
        vector = isinstance(off, (list, tuple, np.ndarray))
        if not all(map(FINITE.holds, off if vector else [off])):
            raise ValueError(f"{label}: expected a number or a list of "
                             f"numbers")
        if label not in template.branch_labels:
            raise ValueError(f"{label}: the template has no such branch")
        if vector and len(off) != k:
            raise ValueError(f"{label}: got {len(off)} numbers for "
                             f"{k}-dimensional attributes")
        shift[label] = tuple(map(float, off)) if vector \
            else (float(off),) + (0.0,) * (k - 1)
    return shift


def gen_tree_population(template: AttributedTree, n: int,
                        topology_noise: float = 0.0,
                        attr_sigma: float = 0.1,
                        class_shift=None, seed: int = 0) -> TreePopulation:
    """Population of noisy copies of a labeled template.

    Subjects split half and half into classes "control" and "case" (first
    half control).  Every attribute coordinate gets N(0, attr_sigma^2)
    noise; length-like attributes (k = 1) are clamped at zero.  With
    probability ``topology_noise`` a tree additionally re-grafts one
    pendant onto a compatible neighboring branch.  ``class_shift`` maps
    branch labels to an offset added to case-class attributes: a scalar
    shifts the first coordinate, a vector shifts all of them.

    Tree i draws from the stream [seed, i], so any subset of the
    population is reproducible in isolation.
    """
    check(COUNT, n=n)
    check(FRACTION, topology_noise=topology_noise)
    check(FROM_ZERO, attr_sigma=attr_sigma)
    shift = _shift_offsets(class_shift, template)
    n_control = n - n // 2
    trees, classes = [], []
    for i in range(n):
        rng = np.random.default_rng([seed, i])
        cls = "control" if i < n_control else "case"
        edges = dict(template.edges)
        if topology_noise > 0.0 and rng.random() < topology_noise:
            moves = _regraft_moves(template)
            if moves:
                leaf, sibling = moves[int(rng.integers(len(moves)))]
                edges = _apply_regraft(edges, leaf, sibling)
        noisy = {}
        for s, attr in edges.items():
            vals = [a + attr_sigma * float(g)
                    for a, g in zip(attr, rng.normal(size=len(attr)))]
            noisy[s] = vals
        if cls == "case":
            for label, off in shift.items():
                s = template.branch_labels[label]
                noisy[s] = [a + o for a, o in zip(noisy[s], off)]
        if (template.k or 1) == 1:
            noisy = {s: [max(0.0, v) for v in vals]
                     for s, vals in noisy.items()}
        # zero attributes stay: a labeled branch must survive even when
        # noise drives its length to the clamp
        final = {s: tuple(vals) for s, vals in noisy.items()}
        labels = dict(template.branch_labels)
        trees.append(AttributedTree(template.leaves, final, labels))
        classes.append(cls)
    return TreePopulation(trees, classes)
