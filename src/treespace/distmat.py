"""Symmetric distance matrices with ids, optional labels, and CSV I/O.

The CSV layout is one header row ``id,label,<id1>,<id2>,...`` followed by one
row per point carrying its id, its label (empty when absent) and the full
symmetric row of distances, printed with 17 significant digits so float64
values round-trip exactly.  Fields are quoted as the ``csv`` module does, so
ids and labels may contain commas and quotes.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass

import numpy as np

__all__ = ["DistanceMatrix"]


def csv_text(rows) -> str:
    """Rows of string cells as CSV, quoting only where a cell needs it."""
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows(rows)
    return out.getvalue()


def csv_rows(text: str) -> list[list[str]]:
    """The rows of a CSV text, blank lines skipped."""
    try:
        rows = list(csv.reader(io.StringIO(text)))
    except csv.Error as e:
        raise ValueError(f"malformed CSV: {e}")
    return [r for r in rows if r and not (len(r) == 1 and not r[0].strip())]


def float_cells(cells, names, row) -> list[float]:
    """``cells`` as floats; a cell that is not a number raises a
    ValueError naming ``row`` and the cell's column in ``names``."""
    try:
        return [float(c) for c in cells]
    except ValueError:
        for name, c in zip(names, cells):
            try:
                float(c)
            except ValueError:
                raise ValueError(f"row {row}, column {name!r}: {c!r} is "
                                 f"not a number") from None


@dataclass
class DistanceMatrix:
    ids: tuple[str, ...]
    values: np.ndarray
    labels: tuple[str, ...] | None = None

    def __post_init__(self):
        self.ids = tuple(str(i) for i in self.ids)
        if len(set(self.ids)) != len(self.ids):
            raise ValueError("duplicate ids in distance matrix")
        values = np.asarray(self.values, dtype=float)
        n = len(self.ids)
        if values.shape != (n, n):
            raise ValueError(f"matrix shape {values.shape} does not match {n} ids")
        if not np.all(np.isfinite(values)):
            raise ValueError("non-finite distances")
        if np.any(values < 0):
            raise ValueError("negative distances")
        if np.any(np.diag(values) != 0):
            raise ValueError("nonzero diagonal")
        if not np.array_equal(values, values.T):
            if not np.allclose(values, values.T, rtol=0, atol=1e-12):
                raise ValueError("matrix is not symmetric")
            values = (values + values.T) / 2.0
        self.values = values
        if self.labels is not None:
            self.labels = tuple(str(x) for x in self.labels)
            if len(self.labels) != n:
                raise ValueError("one label per id required")

    def __len__(self) -> int:
        return len(self.ids)

    def submatrix(self, idx) -> "DistanceMatrix":
        idx = list(idx)
        labels = None if self.labels is None else tuple(self.labels[i] for i in idx)
        return DistanceMatrix(
            tuple(self.ids[i] for i in idx),
            self.values[np.ix_(idx, idx)],
            labels,
        )

    def to_csv(self) -> str:
        labels = self.labels or ("",) * len(self.ids)
        return csv_text([["id", "label", *self.ids]] + [
            [pid, lab, *(f"{v:.17g}" for v in self.values[i])]
            for i, (pid, lab) in enumerate(zip(self.ids, labels))])

    def write_csv(self, path) -> None:
        with open(path, "w") as fh:
            fh.write(self.to_csv())

    @classmethod
    def from_csv(cls, text: str) -> "DistanceMatrix":
        rows = csv_rows(text)
        if not rows:
            raise ValueError("empty distance matrix CSV")
        header = rows[0]
        if len(header) < 3 or header[0] != "id" or header[1] != "label":
            raise ValueError("expected header 'id,label,<id1>,...'")
        ids = tuple(header[2:])
        n = len(ids)
        if len(rows) != n + 1:
            raise ValueError(f"expected {n} data rows, found {len(rows) - 1}")
        values = np.zeros((n, n))
        labels = []
        for i, cells in enumerate(rows[1:]):
            if len(cells) != n + 2:
                raise ValueError(f"row {i}: expected {n + 2} cells")
            if cells[0] != ids[i]:
                raise ValueError(f"row {i}: id {cells[0]!r} does not match header")
            labels.append(cells[1])
            values[i] = float_cells(cells[2:], ids, i)
        lab = None if all(x == "" for x in labels) else tuple(labels)
        return cls(ids, values, lab)

    @classmethod
    def read_csv(cls, path) -> "DistanceMatrix":
        with open(path) as fh:
            return cls.from_csv(fh.read())
