"""Regression tests for the dormant-module bugs fixed when cracking was
wired into the warm path.

* ``CrackerColumn.rowids`` was typed ``np.ndarray`` but defaulted to
  ``None``; it is now declared Optional and narrowed in ``__post_init__``.
* ``CrackerColumn.crack`` on a NaN pivot silently produced a degenerate
  cut; it now raises a clean :class:`ExecutionError`.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.cracking.cracker import CrackerColumn
from repro.errors import ExecutionError
from repro.ranges import ValueInterval


def test_rowids_narrowed_after_post_init():
    c = CrackerColumn(np.array([3, 1, 2], dtype=np.int64))
    assert c.rowids is not None
    assert c.rowids.tolist() == [0, 1, 2]
    # an explicit permutation is copied, not aliased
    perm = np.array([2, 0, 1], dtype=np.int64)
    c2 = CrackerColumn(np.array([7, 8, 9]), rowids=perm)
    perm[0] = 99
    assert c2.rowids.tolist() == [2, 0, 1]


@pytest.mark.parametrize("pivot", (math.nan, float("nan"), np.float64("nan")))
@pytest.mark.parametrize("inclusive", (True, False))
def test_nan_pivot_raises_clean_execution_error(pivot, inclusive):
    c = CrackerColumn(np.array([1.0, 2.0, 3.0]))
    with pytest.raises(ExecutionError, match="NaN pivot"):
        c.crack(pivot, inclusive=inclusive)
    # the refused crack must leave no partial state behind
    assert c.cuts == []
    assert c.stats.cracks == 0
    c.check_invariants()


def test_nan_bounded_interval_raises_through_select():
    c = CrackerColumn(np.array([1.0, 2.0, 3.0]))
    with pytest.raises(ExecutionError, match="NaN pivot"):
        c.select_rowids(ValueInterval(lo=math.nan))


def test_nan_values_in_data_stay_selectable():
    """NaN *data* (as opposed to NaN pivots) must keep working: NaN rows
    compare False against every cut and end up right of it."""
    arr = np.array([5.0, math.nan, 1.0, math.nan, 3.0])
    c = CrackerColumn(arr)
    interval = ValueInterval(lo=0.0, hi=4.0)
    got = sorted(c.select_rowids(interval).tolist())
    expected = sorted(np.nonzero(interval.mask(arr))[0].tolist())
    assert got == expected
    c.check_invariants()
