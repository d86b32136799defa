"""Attributed trees with labeled leaves, stored as split -> attribute maps.

A tree over a fixed leaf label set (the root is not a leaf) is stored as a
mapping from splits -- the set of leaves below an edge -- to per-edge
attribute vectors.  k = 1 recovers plain branch lengths, k = 3*l encodes l
centerline landmark points per branch.  Topology never needs to be stored
separately: the Hasse diagram of the splits under inclusion reconstructs the
tree, and a split set describes a tree exactly when the splits are pairwise
compatible (nested or disjoint).

Trees sharing a split set form one Euclidean orthant, coordinatized by the
concatenated attribute vectors; orthants are glued along the faces where
attributes vanish.  Everything downstream treats an ``AttributedTree`` as a
point of that complex.  An edge whose attribute is identically zero is the
same point as the tree without that edge; constructors therefore accept zero
attributes but interpolation code drops splits whose attribute reaches zero.

Serialization is canonical: leaves sorted lexicographically, edges sorted by
their sorted leaf tuple, floats emitted with ``repr`` round-trip precision.
Parsing a canonical document and serializing it again is byte-identical.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import cached_property
from operator import mul
from typing import Iterable, Mapping, NamedTuple

__all__ = [
    "Split",
    "TreeError",
    "AttributedTree",
    "compatible",
    "all_compatible",
    "split_key",
    "splits_of",
    "tree_from_dict",
    "tree_to_dict",
    "parse_tree",
    "serialize_tree",
    "parse_population",
    "serialize_population",
]

# A split is the set of leaf names below an edge.  Pendant splits are
# singletons; the full leaf set is the root edge when present.
Split = frozenset


class TreeError(ValueError):
    """Malformed or mutually inconsistent tree data."""


def compatible(s1: Split, s2: Split) -> bool:
    """Two splits can occur in one tree iff they are nested or disjoint."""
    return s1 <= s2 or s2 <= s1 or not (s1 & s2)


def all_compatible(splits: Iterable[Split]) -> bool:
    items = list(splits)
    return all(
        compatible(items[i], items[j])
        for i in range(len(items))
        for j in range(i + 1, len(items))
    )


def split_key(split: Split) -> tuple[str, ...]:
    """Canonical sort key: the lexicographically sorted leaf tuple."""
    return tuple(sorted(split))


class _SplitView(NamedTuple):
    """A tree's splits in ``split_key`` order, with per-split data the
    geodesic core reads in its inner loops."""

    splits: tuple      # the frozensets
    keys: tuple        # their split_key tuples
    masks: tuple       # leaf-index bitmasks, bit i for leaves[i]
    attrs: tuple       # attribute vectors
    sq: tuple          # squared attribute norms
    live: tuple        # attribute not identically zero
    index: dict        # mask -> position


def _view(splits, keys, masks, attrs) -> _SplitView:
    """The split view of rows already in ``split_key`` order."""
    sq = tuple(sum(map(mul, v, v)) for v in attrs)
    if sum(sq) == math.inf:
        # an infinite weight makes the max-flow covers NaN
        raise ValueError("squared attribute norms overflow; geodesics "
                         "need attributes below about 1e154")
    return _SplitView(
        splits, keys, masks, attrs, sq,
        tuple(map(any, attrs)),    # any(v): some c != 0.0
        dict(zip(masks, range(len(masks)))))


def _check_attr(attr, split) -> tuple[float, ...]:
    try:
        vec = tuple(float(c) for c in attr)
    except (TypeError, ValueError, OverflowError) as exc:
        raise TreeError(f"non-numeric attribute on split {sorted(split)}: "
                        f"{exc}") from exc
    if not vec:
        raise TreeError(f"empty attribute vector on split {sorted(split)}")
    if any(not math.isfinite(c) for c in vec):
        raise TreeError(f"non-finite attribute on split {sorted(split)}")
    if len(vec) == 1 and vec[0] < 0.0:
        raise TreeError(f"negative length {vec[0]} on split {sorted(split)}")
    return vec


@dataclass(frozen=True)
class AttributedTree:
    """One point of the tree-shape space.

    leaves
        All leaf names, kept in canonical (lexicographic) order.
    edges
        Mapping split -> attribute vector.  All vectors share one dimension
        k; scalar attributes (k = 1) must be non-negative, higher-dimensional
        ones are unrestricted.
    branch_labels
        Optional anatomical names for splits, e.g. "Trachea" -> full leaf
        set.  Every labeled split must be present in ``edges``.
    """

    leaves: tuple[str, ...]
    edges: dict[Split, tuple[float, ...]]
    branch_labels: dict[str, Split] = field(default_factory=dict)

    def __post_init__(self):
        leaves = tuple(sorted(self.leaves))
        if not leaves:
            raise TreeError("a tree needs at least one leaf")
        if len(set(leaves)) != len(leaves):
            raise TreeError("duplicate leaf names")
        object.__setattr__(self, "leaves", leaves)
        leafset = set(leaves)

        edges = {}
        for split, attr in self.edges.items():
            split = frozenset(split)
            if not split:
                raise TreeError("empty split")
            if not split <= leafset:
                raise TreeError(f"split {sorted(split)} uses unknown leaves")
            edges[split] = _check_attr(attr, split)
        object.__setattr__(self, "edges", edges)

        dims = {len(v) for v in edges.values()}
        if len(dims) > 1:
            raise TreeError(f"mixed attribute dimensions {sorted(dims)}")

        splits = sorted(edges, key=split_key)
        for i, s1 in enumerate(splits):
            for s2 in splits[i + 1:]:
                if not compatible(s1, s2):
                    raise TreeError(
                        f"incompatible splits {sorted(s1)} and {sorted(s2)}"
                    )

        labels = {}
        for name, split in self.branch_labels.items():
            split = frozenset(split)
            if split not in edges:
                raise TreeError(f"label {name!r} points at a missing split")
            labels[str(name)] = split
        object.__setattr__(self, "branch_labels", labels)

    @property
    def k(self) -> int | None:
        """Attribute dimension, or None for an edgeless tree."""
        for v in self.edges.values():
            return len(v)
        return None

    @property
    def m(self) -> int:
        return len(self.edges)

    @property
    def splits(self) -> frozenset:
        return frozenset(self.edges)

    def attribute(self, split: Split) -> tuple[float, ...]:
        return self.edges[frozenset(split)]

    def sorted_splits(self) -> list[Split]:
        return sorted(self.edges, key=split_key)

    @classmethod
    def _trusted(cls, leaves, edges, labels, view) -> "AttributedTree":
        """A tree from parts the caller has already proven valid, with
        ``view`` as its split view: none of the public constructor's checks
        run.  ``leaves`` is sorted, ``edges`` maps frozensets to float
        tuples of one dimension whose splits are pairwise compatible, and
        ``labels`` maps names to splits of ``edges``.  Only the points of a
        path and the orthant solves of the mean search use it."""
        tree = object.__new__(cls)
        # straight into the instance dict, past the frozen __setattr__; the
        # view fills its cached_property slot, so it is never rebuilt
        vars(tree).update(leaves=leaves, edges=edges, branch_labels=labels,
                          _split_view=view)
        return tree

    @cached_property
    def _split_view(self) -> _SplitView:
        """Built on first use and kept: the tree is immutable."""
        # map() over builtins: a view is built for every new input tree,
        # so its cost matters
        bit = {x: 1 << i for i, x in enumerate(self.leaves)}.__getitem__
        keyed = sorted(zip(map(split_key, self.edges), self.edges))
        keys, splits = tuple(zip(*keyed)) or ((), ())
        return _view(splits, keys, tuple(sum(map(bit, s)) for s in splits),
                     tuple(map(self.edges.__getitem__, splits)))


def _labels(trees, edges) -> dict:
    """Branch labels for a tree on ``edges``, inherited from ``trees``:
    each name goes to the split of the first tree that names a split
    still present."""
    labels = {}
    for t in trees:
        for name, sp in t.branch_labels.items():
            if name not in labels and sp in edges:
                labels[name] = sp
    return labels


def splits_of(tree: AttributedTree) -> frozenset:
    """The set of splits present in ``tree``."""
    return tree.splits


# ---------------------------------------------------------------------------
# JSON serialization
# ---------------------------------------------------------------------------

def tree_to_dict(tree: AttributedTree) -> dict:
    doc = {
        "leaves": list(tree.leaves),
        "edges": [
            {"split": list(split_key(s)), "attr": list(tree.edges[s])}
            for s in tree.sorted_splits()
        ],
    }
    if tree.branch_labels:
        doc["labels"] = {
            name: list(split_key(tree.branch_labels[name]))
            for name in sorted(tree.branch_labels)
        }
    return doc


def tree_from_dict(doc: Mapping) -> AttributedTree:
    try:
        leaves = tuple(str(x) for x in doc["leaves"])
        edges = {
            frozenset(str(x) for x in e["split"]): tuple(e["attr"])
            for e in doc["edges"]
        }
        labels = {
            str(name): frozenset(str(x) for x in split)
            for name, split in doc.get("labels", {}).items()
        }
    except (AttributeError, KeyError, TypeError) as exc:
        raise TreeError(f"malformed tree document: {exc}") from exc
    return AttributedTree(leaves, edges, labels)


def serialize_tree(tree: AttributedTree) -> str:
    return json.dumps(tree_to_dict(tree), indent=2)


def parse_tree(text: str) -> AttributedTree:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise TreeError(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise TreeError("expected a JSON object with 'leaves' and 'edges'")
    return tree_from_dict(doc)


def serialize_population(trees: Iterable[AttributedTree],
                         classes: Iterable[str] | None = None) -> str:
    trees = list(trees)
    docs = [tree_to_dict(t) for t in trees]
    if classes is not None:
        classes = list(classes)
        if len(classes) != len(docs):
            raise TreeError("one class per tree required")
        for doc, cls in zip(docs, classes):
            if cls is not None:
                doc["class"] = str(cls)
    return json.dumps(docs, indent=2)


def parse_population(text: str) -> tuple[list[AttributedTree], list[str] | None]:
    """Parse a JSON array of tree documents.

    Returns the trees plus their per-tree "class" strings, or None when no
    document carries a class.  A class that is not a string is malformed.
    """
    try:
        docs = json.loads(text)
    except json.JSONDecodeError as exc:
        raise TreeError(f"invalid JSON: {exc}") from exc
    if not isinstance(docs, list):
        raise TreeError("expected a JSON array of tree documents")
    trees = [tree_from_dict(doc) for doc in docs]
    classes = [doc.get("class") for doc in docs]
    if not all(c is None or isinstance(c, str) for c in classes):
        raise TreeError("a tree's class must be a string")
    if all(c is None for c in classes):
        return trees, None
    return trees, classes
