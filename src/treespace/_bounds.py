"""Numeric parameter ranges: the library checks its arguments with
``check``, and the command line builds its argparse types from the same
bounds, so both name a range in one phrase.  Integer bounds go through
``operator.index``, float bounds take only finite numbers, and a bool
fails every bound."""

from __future__ import annotations

import math
import operator
from typing import Callable, NamedTuple


class Bound(NamedTuple):
    kind: type          # int or float
    test: Callable
    phrase: str

    def holds(self, value) -> bool:
        try:
            if self.kind is int:
                operator.index(value)   # a TypeError for floats and NaN
            elif not math.isfinite(value):
                return False
        except (TypeError, OverflowError):  # OverflowError: a huge integer
            return False
        return not isinstance(value, bool) and self.test(value)


SEED = Bound(int, lambda x: x >= 0, "a non-negative integer")
COUNT = Bound(int, lambda x: x >= 1, "a positive integer")
TWO_UP = Bound(int, lambda x: x >= 2, "an integer of at least 2")
ABOVE_ZERO = Bound(float, lambda x: x > 0.0, "a finite number above 0")
FROM_ZERO = Bound(float, lambda x: x >= 0.0, "a finite number of at least 0")
FRACTION = Bound(float, lambda x: 0.0 <= x <= 1.0, "a number in [0, 1]")
MIX = Bound(float, lambda x: 0.0 < x <= 1.0, "a number in (0, 1]")
FINITE = Bound(float, lambda x: True, "a finite number")


def check(bound: Bound, **values) -> None:
    """Raise a ValueError naming the first of ``values`` outside ``bound``."""
    for name, value in values.items():
        if not bound.holds(value):
            raise ValueError(f"{name}: expected {bound.phrase}, "
                             f"got {value!r}")
