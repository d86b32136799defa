"""Labeled subtree extraction and subtree-distance feature matrices.

A branch label names one edge of a tree; the subtree rooted there consists
of that edge plus every edge whose split nests inside it, over the leaf set
below the branch.  Airway trees carry nine such labels by default, with
"Trachea" at the root so its subtree is the whole tree.

A subject's feature vector holds, per labeled subtree, the geodesic
distance to a reference mean of that subtree.  Reference means come either
pooled over all subjects (one column per label) or per class (two columns
per label, the default); means must always be computed on training subjects
only, which ``fold_feature_builder`` takes care of during cross-validation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .distmat import csv_rows, csv_text, float_cells
from .geodesic import geodesic_distance
from .stats import MeanConfig, frechet_mean
from .trees import AttributedTree

__all__ = [
    "DEFAULT_BRANCH_LABELS",
    "SubtreeScheme",
    "FeatureMatrix",
    "extract_subtree",
    "compute_reference_means",
    "feature_matrix",
    "fold_feature_builder",
]

DEFAULT_BRANCH_LABELS = (
    "Trachea", "LMB", "RMB", "LUL", "RUL", "L1+2+3", "LLB", "BronchInt",
    "RLL",
)


@dataclass(frozen=True)
class SubtreeScheme:
    """Ordered branch names; the order fixes feature-column order."""

    labels: tuple[str, ...] = DEFAULT_BRANCH_LABELS

    def __post_init__(self):
        if not self.labels:
            raise ValueError("scheme needs at least one label")
        if len(set(self.labels)) != len(self.labels):
            raise ValueError("duplicate labels in scheme")


def extract_subtree(tree: AttributedTree, label: str) -> AttributedTree:
    """The subtree rooted at the labeled branch, that branch included."""
    if label not in tree.branch_labels:
        raise KeyError(f"tree carries no branch labeled {label!r}")
    root = tree.branch_labels[label]
    edges = {s: tree.edges[s] for s in tree.splits if s <= root}
    labels = {n: s for n, s in tree.branch_labels.items() if s <= root}
    return AttributedTree(tuple(sorted(root)), edges, labels)


def compute_reference_means(trees, classes, scheme: SubtreeScheme,
                            mode: str = "per-class",
                            cfg: MeanConfig | None = None) -> dict:
    """Mean subtree per label, pooled or per class.

    Returns {(label, class): tree} in per-class mode and {(label, None):
    tree} in pooled mode; these keys drive the feature-column layout.
    """
    trees = list(trees)
    if mode not in ("per-class", "pooled"):
        raise ValueError(f"unknown mode: {mode!r}")
    if mode == "per-class":
        if classes is None:
            raise ValueError("per-class means need class labels")
        classes = list(classes)
        if len(classes) != len(trees):
            raise ValueError("classes and trees differ in length")
    means = {}
    for label in scheme.labels:
        subs = [extract_subtree(t, label) for t in trees]
        if mode == "pooled":
            means[(label, None)] = frechet_mean(subs, cfg)
        else:
            for cls in sorted(set(classes)):
                group = [s for s, c in zip(subs, classes) if c == cls]
                if not group:
                    raise ValueError(f"class {cls!r} has no trees")
                means[(label, cls)] = frechet_mean(group, cfg)
    return means


@dataclass
class FeatureMatrix:
    """Subtree-distance features, one row per subject.

    ``columns`` pairs each column with (label, reference class or None for
    a pooled mean).
    """

    values: np.ndarray
    columns: tuple[tuple[str, object], ...]
    ids: tuple[str, ...]
    y: tuple | None = None

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.ndim != 2:
            raise ValueError("feature values must be a 2-D array")
        if self.values.shape[1] != len(self.columns):
            raise ValueError("column metadata does not match width")
        if self.values.shape[0] != len(self.ids):
            raise ValueError("ids do not match row count")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("non-finite feature value")
        if self.y is not None and len(self.y) != len(self.ids):
            raise ValueError("y does not match row count")

    @property
    def column_names(self) -> tuple[str, ...]:
        return tuple(lab if cls is None else f"{lab}:{cls}"
                     for lab, cls in self.columns)

    def to_csv(self) -> str:
        ys = ("",) * len(self.ids) if self.y is None else self.y
        return csv_text([["id", "class", *self.column_names]] + [
            [rid, str(c), *(f"{v:.17g}" for v in self.values[i])]
            for i, (rid, c) in enumerate(zip(self.ids, ys))])

    @classmethod
    def from_csv(cls, text: str) -> "FeatureMatrix":
        rows = csv_rows(text)
        if not rows:
            raise ValueError("empty feature CSV")
        header = rows[0]
        if header[:2] != ["id", "class"]:
            raise ValueError("feature CSV must start with id,class columns")
        if len(rows) < 2:
            raise ValueError("feature CSV has no data rows")
        columns = []
        for name in header[2:]:
            if ":" in name:
                lab, c = name.rsplit(":", 1)
                columns.append((lab, c))
            else:
                columns.append((name, None))
        ids, ys, values = [], [], []
        for i, parts in enumerate(rows[1:]):
            if len(parts) != len(header):
                raise ValueError(f"row {i}: expected {len(header)} cells, "
                                 f"found {len(parts)}")
            ids.append(parts[0])
            ys.append(parts[1])
            values.append(float_cells(parts[2:], header[2:], i))
        y = None if all(v == "" for v in ys) else tuple(ys)
        return cls(np.array(values), tuple(columns), tuple(ids), y)


def feature_matrix(trees, scheme: SubtreeScheme, means: dict,
                   ids=None, y=None) -> FeatureMatrix:
    """Distances from each subject's labeled subtrees to reference means.

    The mode is read off the keys of ``means``: pooled keys (label, None)
    give one column per label, per-class keys one column per (label,
    class).
    """
    trees = list(trees)
    if ids is None:
        ids = tuple(f"s{i}" for i in range(len(trees)))
    columns = []
    for label in scheme.labels:
        keyed = sorted((c for l, c in means if l == label),
                       key=lambda c: (c is not None, c))
        if not keyed:
            raise ValueError(f"no reference mean for label {label!r}")
        columns.extend((label, c) for c in keyed)
    values = np.zeros((len(trees), len(columns)))
    for i, t in enumerate(trees):
        subs = {label: extract_subtree(t, label) for label in scheme.labels}
        for j, (label, c) in enumerate(columns):
            values[i, j] = geodesic_distance(subs[label], means[(label, c)])
    return FeatureMatrix(values, tuple(columns), tuple(ids),
                         None if y is None else tuple(y))


def fold_feature_builder(trees, classes, scheme: SubtreeScheme,
                         mode: str = "per-class",
                         cfg: MeanConfig | None = None):
    """Leakage-free feature construction for cross-validation.

    Returns ``build(train_idx) -> FeatureMatrix`` covering all subjects but
    with reference means recomputed from the training subset only.
    """
    trees = list(trees)
    classes = list(classes) if classes is not None else None

    def build(train_idx) -> FeatureMatrix:
        sub_trees = [trees[i] for i in train_idx]
        sub_classes = None if classes is None \
            else [classes[i] for i in train_idx]
        means = compute_reference_means(sub_trees, sub_classes, scheme,
                                        mode, cfg)
        return feature_matrix(trees, scheme, means, y=classes)

    return build
