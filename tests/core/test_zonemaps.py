"""Zone-map index unit tests: learning, skipping soundness, persistence.

The skip test must be *sound* — a zone is only skipped when no value in
it could satisfy the interval — under every combination of open/closed
bounds, int/float dtypes, and NaN placement.  The reference for
soundness is :meth:`ValueInterval.mask` itself: for any learned column
and any interval, every row the mask keeps must live in a kept zone.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.core.zonemaps import ColumnZones, ZoneMapIndex
from repro.ranges import ValueInterval


def _index(values: np.ndarray, zone_rows: int = 4) -> ZoneMapIndex:
    zmi = ZoneMapIndex(nrows=len(values), zone_rows=zone_rows)
    zmi.learn(0, values)
    return zmi


def _assert_sound(zmi: ZoneMapIndex, values: np.ndarray, interval: ValueInterval):
    """Every row the mask keeps must sit in a kept zone."""
    keep = zmi.zone_keep_mask(0, interval)
    if keep is None:
        return
    rows = np.nonzero(interval.mask(values))[0]
    assert keep[rows // zmi.zone_rows].all(), (
        f"interval {interval!r} lost qualifying rows to a skipped zone"
    )


# ---------------------------------------------------------------------------
# construction + learning
# ---------------------------------------------------------------------------


def test_nzones_rounds_up():
    assert ZoneMapIndex(nrows=10, zone_rows=4).nzones == 3
    assert ZoneMapIndex(nrows=8, zone_rows=4).nzones == 2
    assert ZoneMapIndex(nrows=1, zone_rows=1024).nzones == 1


def test_invalid_construction_rejected():
    with pytest.raises(ValueError):
        ZoneMapIndex(nrows=0, zone_rows=4)
    with pytest.raises(ValueError):
        ZoneMapIndex(nrows=10, zone_rows=0)
    with pytest.raises(ValueError):
        ColumnZones(
            mins=np.zeros(2), maxs=np.zeros(3), nulls=np.zeros(2, dtype=np.int64)
        )


def test_learn_declines_wrong_length_and_dtype():
    zmi = ZoneMapIndex(nrows=8, zone_rows=4)
    zmi.learn(0, np.arange(7))  # wrong length
    zmi.learn(1, np.array(["a"] * 8, dtype=object))  # non-numeric
    assert not zmi.has(0) and not zmi.has(1)


def test_learn_int_column_exact_stats():
    values = np.array([5, 1, 9, 3, -2, 0, 7, 4], dtype=np.int64)
    zmi = _index(values)
    zones = zmi.columns[0]
    assert zones.mins.tolist() == [1, -2]
    assert zones.maxs.tolist() == [9, 7]
    assert zones.nulls.tolist() == [0, 0]
    assert zones.mins.dtype == np.int64  # native dtype, never rounded


def test_drop_column():
    zmi = _index(np.arange(8))
    assert zmi.has(0)
    zmi.drop_column(0)
    assert not zmi.has(0)
    assert zmi.zone_keep_mask(0, ValueInterval(lo=1)) is None


# ---------------------------------------------------------------------------
# skipping semantics
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("lo_open", (True, False))
@pytest.mark.parametrize("hi_open", (True, False))
def test_open_closed_bounds_exact_at_zone_edges(lo_open, hi_open):
    # zone 0 holds exactly [0..3], zone 1 [4..7]: bounds sitting exactly
    # on zone max/min are where open/closed logic can go wrong.
    values = np.arange(8, dtype=np.int64)
    zmi = _index(values)
    interval = ValueInterval(lo=3, hi=4, lo_open=lo_open, hi_open=hi_open)
    _assert_sound(zmi, values, interval)
    keep = zmi.zone_keep_mask(0, interval)
    # lo=3 open means zone 0 (max 3) cannot match the lower bound
    assert keep[0] == (not lo_open)
    # hi=4 open means zone 1 (min 4) cannot match the upper bound
    assert keep[1] == (not hi_open)


def test_unbounded_interval_declines():
    zmi = _index(np.arange(8))
    assert zmi.zone_keep_mask(0, ValueInterval.unbounded()) is None


def test_non_numeric_and_nan_bounds_decline():
    zmi = _index(np.arange(8))
    assert zmi.zone_keep_mask(0, ValueInterval(lo="x")) is None
    assert zmi.zone_keep_mask(0, ValueInterval(lo=math.nan)) is None
    assert zmi.zone_keep_mask(0, ValueInterval(lo=True)) is None


def test_half_bounded_intervals_skip():
    values = np.arange(16, dtype=np.int64)
    zmi = _index(values)
    # zones hold [0..3] [4..7] [8..11] [12..15]; lo=11 strict excludes
    # zone 2 (max exactly 11)
    keep = zmi.zone_keep_mask(0, ValueInterval(lo=11))
    assert keep.tolist() == [False, False, False, True]
    keep = zmi.zone_keep_mask(0, ValueInterval(hi=4, hi_open=False))
    assert keep.tolist() == [True, True, False, False]


def test_skipping_sound_on_random_data():
    rng = np.random.default_rng(7)
    values = rng.integers(-50, 50, size=100).astype(np.int64)
    zmi = _index(values, zone_rows=8)
    for lo, hi in [(-10, 10), (-60, -49), (49, 60), (0, 0), (-3, 3)]:
        for lo_open in (True, False):
            for hi_open in (True, False):
                _assert_sound(
                    zmi,
                    values,
                    ValueInterval(lo=lo, hi=hi, lo_open=lo_open, hi_open=hi_open),
                )


def test_int64_beyond_float53_precision_not_misskipped():
    # 2**60 and 2**60 + 1 collapse to the same float64; native-dtype
    # stats must keep them distinguishable.
    base = 2**60
    values = np.array([base, base + 1, base + 2, base + 3], dtype=np.int64)
    zmi = _index(values, zone_rows=2)
    keep = zmi.zone_keep_mask(0, ValueInterval(lo=base, hi=base + 2))
    assert keep.tolist() == [True, False]
    _assert_sound(zmi, values, ValueInterval(lo=base, hi=base + 2))


# ---------------------------------------------------------------------------
# NaN semantics (satellite: never skip a zone that could match)
# ---------------------------------------------------------------------------


def test_nan_mixed_zone_keeps_finite_bounds():
    values = np.array([1.0, math.nan, 3.0, math.nan, 100.0, 101.0, 102.0, 103.0])
    zmi = _index(values)
    zones = zmi.columns[0]
    assert zones.mins[0] == 1.0 and zones.maxs[0] == 3.0  # NaNs ignored
    assert zones.nulls.tolist() == [2, 0]
    # finite values in the NaN-mixed zone must stay findable
    _assert_sound(zmi, values, ValueInterval(lo=0.0, hi=4.0))
    keep = zmi.zone_keep_mask(0, ValueInterval(lo=0.0, hi=4.0))
    assert keep.tolist() == [True, False]


def test_all_nan_zone_skipped_exactly_like_the_mask():
    values = np.array([math.nan] * 4 + [1.0, 2.0, 3.0, 4.0])
    zmi = _index(values)
    # Any bounded interval rejects every NaN row via the mask; the
    # all-NaN zone's NaN stats compare False and skip it — same answer.
    for interval in (
        ValueInterval(lo=0.0),
        ValueInterval(hi=10.0),
        ValueInterval(lo=-1.0, hi=1.5, lo_open=False, hi_open=False),
    ):
        _assert_sound(zmi, values, interval)
        keep = zmi.zone_keep_mask(0, interval)
        assert not keep[0], "all-NaN zone must be skipped under any bound"


# ---------------------------------------------------------------------------
# persistence round-trip
# ---------------------------------------------------------------------------


def test_manifest_round_trip_int_and_float():
    zmi = ZoneMapIndex(nrows=10, zone_rows=4)
    zmi.learn(0, np.arange(10, dtype=np.int64) * 3)
    zmi.learn(2, np.array([0.5, math.nan, 2.5, 3.5, math.nan] * 2))
    back = ZoneMapIndex.from_manifest(zmi.as_manifest())
    assert back.nrows == 10 and back.zone_rows == 4
    assert sorted(back.columns) == [0, 2]
    for col in (0, 2):
        a, b = zmi.columns[col], back.columns[col]
        assert a.mins.dtype == b.mins.dtype
        np.testing.assert_array_equal(a.nulls, b.nulls)
        for x, y in ((a.mins, b.mins), (a.maxs, b.maxs)):
            np.testing.assert_array_equal(np.isnan(x) if x.dtype.kind == "f" else x,
                                          np.isnan(y) if y.dtype.kind == "f" else y)
            finite = ~np.isnan(x) if x.dtype.kind == "f" else np.ones(len(x), bool)
            np.testing.assert_array_equal(x[finite], y[finite])


def test_manifest_round_trip_is_json_safe():
    import json

    zmi = ZoneMapIndex(nrows=6, zone_rows=4)
    zmi.learn(1, np.array([math.nan, 1.0, 2.0, math.nan, math.nan, math.nan]))
    wire = json.loads(json.dumps(zmi.as_manifest()))
    back = ZoneMapIndex.from_manifest(wire)
    assert math.isnan(back.columns[1].mins[1])  # all-NaN zone survives


def test_damaged_manifest_raises():
    zmi = ZoneMapIndex(nrows=8, zone_rows=4)
    zmi.learn(0, np.arange(8))
    good = zmi.as_manifest()
    bad = {**good, "columns": {"0": {**good["columns"]["0"], "mins": [1]}}}
    with pytest.raises(ValueError):
        ZoneMapIndex.from_manifest(bad)  # zone count mismatch
    with pytest.raises((ValueError, KeyError)):
        ZoneMapIndex.from_manifest({"nrows": 8})  # missing keys


def test_snapshot_is_isolated_from_later_learning():
    zmi = ZoneMapIndex(nrows=8, zone_rows=4)
    zmi.learn(0, np.arange(8))
    snap = zmi.snapshot()
    zmi.learn(1, np.arange(8).astype(float))
    assert 1 not in snap.columns and 1 in zmi.columns
