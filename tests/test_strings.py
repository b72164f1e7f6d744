"""``StringColumn`` against plain Python lists.

Selections keep their base column's dictionary, so most columns a query
meets use only some of their dictionary's entries.  These properties hold
whichever way a column is ranked or compared: over the whole dictionary
(its order known, or the rows as many as the entries) or over the
entries its codes use.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.strings import StringColumn

_text = st.text(alphabet="ßéあxy", max_size=3)
_values = st.lists(_text, min_size=1, max_size=30)


def _sign(x) -> int:
    return (x > 0) - (x < 0)


def _assert_ranks_order(ranks, texts) -> None:
    for i in range(len(texts)):
        for j in range(len(texts)):
            expected = _sign((texts[i] > texts[j]) - (texts[i] < texts[j]))
            assert _sign(int(ranks[i]) - int(ranks[j])) == expected


@settings(max_examples=60, deadline=None)
@given(values=_values, data=st.data())
def test_selection_ranks_compare_and_isin(values, data):
    """A selection of a column answers like the list it decodes to, both
    before and after the whole dictionary's order is known."""
    base = StringColumn.encode(values)
    idx = data.draw(st.lists(st.integers(0, len(values) - 1), max_size=len(values)))
    literal = data.draw(_text)
    wanted = data.draw(st.lists(_text, max_size=3))
    for _ in range(2):
        part = base.take(np.array(idx, dtype=np.int64))
        texts = [values[i] for i in idx]
        assert part.decode().tolist() == texts
        _assert_ranks_order(part.ranks(), texts)
        assert part.compare("<", literal).tolist() == [t < literal for t in texts]
        assert part.compare("=", literal).tolist() == [t == literal for t in texts]
        assert part.isin(wanted).tolist() == [t in wanted for t in texts]
        if texts:
            ranks = part.ranks()
            low = part.at_ranks(ranks, [ranks.min()]).decode()[0]
            high = part.at_ranks(ranks, [ranks.max()]).decode()[0]
            assert (low, high) == (min(texts), max(texts))
        base.ranks()  # the second round runs with the order known


@settings(max_examples=60, deadline=None)
@given(left=_values, right=_values)
def test_co_ranks_share_one_order(left, right):
    """Two columns of different dictionaries rank in one order."""
    a, b = StringColumn.encode(left), StringColumn.encode(right)
    mine, theirs = a.co_ranks(b)
    _assert_ranks_order(np.concatenate([mine, theirs]), left + right)


@settings(max_examples=60, deadline=None)
@given(batches=st.lists(_values, min_size=1, max_size=4), branch=_values)
def test_puts_keep_codes_and_entries_distinct(batches, branch):
    """A line of partial loads, then a second load into an older column
    (two dictionaries grown from one): every column decodes right, no
    dictionary repeats an entry, and existing codes never move."""
    size = sum(map(len, batches)) + len(branch)
    column = StringColumn.unloaded(size)
    history = [(column, [None] * size)]
    start = 0
    for batch in batches:
        rows = np.arange(start, start + len(batch))
        column = column.put(rows, StringColumn.encode(batch))
        texts = history[-1][1][:start] + batch + [None] * (size - start - len(batch))
        history.append((column, texts))
        start += len(batch)
    older, older_texts = history[len(history) // 2]
    rows = np.arange(size - len(branch), size)
    forked = older.put(rows, StringColumn.encode(branch))
    history.append((forked, older_texts[: size - len(branch)] + branch))
    for col, texts in history:
        loaded = [i for i, t in enumerate(texts) if t is not None]
        assert col.take(np.array(loaded, dtype=np.int64)).decode().tolist() == [
            texts[i] for i in loaded
        ]
        entries = col.dictionary.tolist()
        assert len(set(entries)) == len(entries)
    for (before, texts), (after, _) in zip(history[:-2], history[1:-1]):
        loaded = [i for i, t in enumerate(texts) if t is not None]
        assert after.codes[loaded].tolist() == before.codes[loaded].tolist()
        assert after.dictionary[: len(before.dictionary)].tolist() == (
            before.dictionary.tolist()
        )


def test_a_selection_learns_its_dictionarys_order_for_every_column():
    """The string order a full-size selection computes is the
    dictionary's, shared with the base column and its other selections."""
    base = StringColumn.encode(["b", "a", "c", "a"])
    every_row = base.take(np.arange(4))
    every_row.ranks()
    assert base._facts.rank_of is not None
    assert base.take(np.array([2]))._facts is base._facts


_ascii_values = st.lists(st.text(alphabet="ab\x01 ", max_size=9), min_size=1, max_size=40)


@settings(max_examples=80, deadline=None)
@given(values=_ascii_values)
def test_field_bytes_encode_like_text(values):
    """Encoding a gather's ``S`` matrix (grouped by hash) numbers the
    values exactly as encoding the decoded text (grouped by value)."""
    from_bytes = StringColumn.encode(np.array([v.encode() for v in values], dtype="S"))
    from_text = StringColumn.encode(values)
    assert from_bytes.codes.tolist() == from_text.codes.tolist()
    assert from_bytes.dictionary.tolist() == from_text.dictionary.tolist()


def test_a_hash_collision_is_found_not_served(monkeypatch):
    """Fields that share a hash but differ still get their own codes."""
    from repro import strings

    monkeypatch.setattr(
        strings, "_field_hashes", lambda values: np.zeros(len(values), dtype=np.uint64)
    )
    column = StringColumn.encode(np.array([b"b", b"a", b"b", b"c"]))
    assert column.codes.tolist() == [0, 1, 0, 2]
    assert column.decode().tolist() == ["b", "a", "b", "c"]


def test_concurrent_loads_into_one_column_keep_their_own_codes():
    """Threads loading into one base column at once, some with new values
    and some with known ones (the value-to-code index changes hands
    between them), each get a column that decodes to what they stored,
    with no entry twice."""
    import sys
    import threading

    base = StringColumn.unloaded(200).put(
        np.arange(100), StringColumn.encode([f"v{i}" for i in range(100)])
    )
    results: dict[tuple[int, int], tuple] = {}
    failures: list[BaseException] = []

    start = threading.Barrier(8)

    def grow(worker: int) -> None:
        try:
            start.wait(timeout=30)
            for round_ in range(100):
                if worker % 2:  # new values: the index passes to the grown column
                    texts = [f"s{(worker + round_ + i) % 80}" for i in range(50)] + ["v7"]
                else:  # known values only: the index goes back to the base
                    texts = [f"v{(round_ + i) % 100}" for i in range(51)]
                rows = np.arange(100, 151)
                column = base.put(rows, StringColumn.encode(texts))
                results[(worker, round_)] = (column, texts)
        except BaseException as exc:  # reported on the main thread
            failures.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=grow, args=(w,)) for w in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(interval)
    assert not failures
    assert len(results) == 8 * 100
    for column, texts in results.values():
        assert column.take(np.arange(100, 151)).decode().tolist() == texts
        assert column.take(np.arange(100)).decode().tolist() == [f"v{i}" for i in range(100)]
        entries = column.dictionary.tolist()
        assert len(set(entries)) == len(entries)
