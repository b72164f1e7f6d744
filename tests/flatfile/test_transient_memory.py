"""The first pass allocates no file-sized temporaries.

A first query's framing and parsing keep the frame (the positional map),
the fields' spans and the parsed columns.  Everything else the pass
allocates — masks, separator positions, digit and field bytes — is
thrown away, and when it is as big as the file, it is page-faulted in
for nothing on every first answer.  This ratchet holds the transient
bytes (the ``tracemalloc`` peak less what is kept) of a whole first pass
over a regular digit-and-float CSV to at most the file's size.  Building
a file-sized mask, index matrix or padded field matrix breaks it.
"""

from __future__ import annotations

import tracemalloc

import numpy as np

from repro.flatfile.dialects import DelimitedAdapter
from repro.flatfile.parser import parse_fields
from repro.flatfile.positions import PositionalMap
from repro.flatfile.schema import DataType
from repro.flatfile.vectorized import tokenize_vectorized

TYPES = [DataType.INT64] * 4 + [DataType.FLOAT64] * 2


def regular_csv(nrows: int, seed: int = 5) -> bytes:
    """A header, four integer columns and two 3-decimal float columns."""
    rng = np.random.default_rng(seed)
    columns = [
        np.cumsum(rng.integers(1, 20, nrows)).astype(str),
        *(rng.integers(0, 1_000_000, nrows).astype(str) for _ in range(3)),
        *(np.char.mod("%.3f", rng.random(nrows) * 1000.0) for _ in range(2)),
    ]
    lines = [",".join(row) for row in zip(*columns)]
    return ("ts,u1,u2,u3,f1,f2\n" + "\n".join(lines) + "\n").encode("ascii")


def test_first_pass_transients_stay_below_the_file_size():
    data = regular_csv(45_000)
    assert 1_800_000 < len(data) < 2_400_000
    pmap = PositionalMap()
    tracemalloc.start()
    try:
        result = tokenize_vectorized(
            data, DelimitedAdapter(","), len(TYPES), range(len(TYPES)),
            positional_map=pmap, skip_rows=1,
        )
        parsed = [parse_fields(result.fields[c], t) for c, t in enumerate(TYPES)]
        kept, peak = tracemalloc.get_traced_memory()  # frame, result, parsed
    finally:
        tracemalloc.stop()
    assert pmap.frame.shape == (45_000, len(TYPES) + 1)
    assert kept >= pmap.frame.nbytes + sum(p.nbytes for p in parsed)
    assert peak - kept <= len(data), (
        f"transient {(peak - kept) / 1e6:.2f} MB for a {len(data) / 1e6:.2f} MB file"
    )
