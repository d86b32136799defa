"""Symmetric distance matrices with ids, optional labels, and CSV I/O.

The CSV layout is one header row ``id,label,<id1>,<id2>,...`` followed by one
row per point carrying its id, its label (empty when absent) and the full
symmetric row of distances, printed with 17 significant digits so float64
values round-trip exactly.  Fields are quoted as the ``csv`` module does, so
ids and labels may contain commas, quotes and line breaks.  Writing and
reading go one row at a time, so neither holds every cell as a string of
its own, and reading makes no copy of the text.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from itertools import chain

import numpy as np

__all__ = ["DistanceMatrix"]


class _Lines(list):
    """The rows a ``csv.writer`` writes with ``"\\r\\n"`` line ends, as
    lines ending in ``"\\n"``."""

    def write(self, row):
        self.append(row[:-2])
        self.append("\n")


def csv_text(rows) -> str:
    """Rows of string cells as CSV, quoting only where a cell needs it.
    Each row is formatted as ``rows`` yields it.  The writer's ``"\\r\\n"``
    line ends make it quote a cell holding a lone ``"\\r"`` too, which a
    reader would take for a line break."""
    lines = _Lines()
    csv.writer(lines, lineterminator="\r\n").writerows(rows)
    return "".join(lines)


def _lines(text: str):
    """The lines of ``text`` with their ``\\n``, as iterating
    ``io.StringIO(text)`` gives them, without that copy of the text."""
    start = 0
    while start < len(text):
        end = text.find("\n", start) + 1 or len(text)
        yield text[start:end]
        start = end


def csv_records(text: str):
    """The rows of a CSV text one at a time, blank lines skipped; a
    malformed row raises ValueError when it is reached."""
    try:
        for row in csv.reader(_lines(text)):
            if row and not (len(row) == 1 and not row[0].strip()):
                yield row
    except csv.Error as e:
        raise ValueError(f"malformed CSV: {e}")


def csv_rows(text: str) -> list[list[str]]:
    """The rows of a CSV text, blank lines skipped."""
    return list(csv_records(text))


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
        rows = ([pid, lab, *(f"{v:.17g}" for v in self.values[i].tolist())]
                for i, (pid, lab) in enumerate(zip(self.ids, labels)))
        return csv_text(chain([["id", "label", *self.ids]], rows))

    def write_csv(self, path) -> None:
        with open(path, "w") as fh:
            fh.write(self.to_csv())

    @classmethod
    def from_csv(cls, text: str) -> "DistanceMatrix":
        # the rows are parsed and filled in one at a time, and the first
        # error is kept until the text has parsed to its end: a malformed
        # row, then the header, then the row count win over a bad row
        rows = csv_records(text)
        header = next(rows, None)
        good = header is not None and len(header) >= 3 \
            and header[:2] == ["id", "label"]
        ids = tuple(header[2:]) if good else ()
        n = len(ids)
        # a text of fewer lines than rows fails on the row count, so the
        # matrix is not built
        values = np.zeros((n, n)) if good and text.count("\n") >= n \
            else None
        labels, error, found = [], None, 0
        for i, cells in enumerate(rows):
            found += 1
            if values is None or error is not None or i >= n:
                continue
            try:
                if len(cells) != n + 2:
                    raise ValueError(f"row {i}: expected {n + 2} cells")
                if cells[0] != ids[i]:
                    raise ValueError(f"row {i}: id {cells[0]!r} does not "
                                     f"match header")
                labels.append(cells[1])
                values[i] = float_cells(cells[2:], ids, i)
            except ValueError as e:
                error = e
        if header is None:
            raise ValueError("empty distance matrix CSV")
        if not good:
            raise ValueError("expected header 'id,label,<id1>,...'")
        if found != n:
            raise ValueError(f"expected {n} data rows, found {found}")
        if error is not None:
            raise error
        lab = None if all(x == "" for x in labels) else tuple(labels)
        return cls(ids, values, lab)

    @classmethod
    def read_csv(cls, path) -> "DistanceMatrix":
        with open(path) as fh:
            return cls.from_csv(fh.read())
