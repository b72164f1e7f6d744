"""String columns as dictionary codes.

A STRING column is held as ``(codes, dictionary)`` from the moment the
parser makes it until the executor emits result rows: ``codes`` is an
int32 array with one entry per row, ``dictionary`` an object array of
the column's distinct ``str`` values, and row ``i`` holds
``dictionary[codes[i]]``.  Grouping, comparisons, ``IN``, ``min``/``max``,
``count(distinct)``, ``DISTINCT``, ``ORDER BY`` and join keys all run on
integers; only the values that leave as a result are decoded.  This is
the cheap end of factorised representations: encode once, operate on the
encoding.

This module owns the format.  Every other module goes through
:class:`StringColumn`'s methods, and ``np.asarray(column)`` raises rather
than decoding silently, so a site that meets strings has to say so.

Two invariants make the codes safe to persist and to extend:

* **Distinct entries.**  No value appears twice in a dictionary, so two
  rows hold equal strings exactly when they hold equal codes.
* **Existing codes stay put.**  A dictionary only grows at its end:
  :meth:`StringColumn.concat` (a tail-append, another part file) and
  :meth:`StringColumn.put` (a partial load) append the values they have
  not seen and never renumber the ones they have.  A
  freshly encoded batch numbers its values in order of first occurrence,
  so a column loaded cold and a column grown by appends hold the same
  codes for the same file bytes.

Work follows the rows, not the dictionary.  A selection keeps its base
column's dictionary, which can hold far more values than the selection
uses.  On a column with fewer rows than dictionary entries a comparison
or ``IN`` tests each row's string, and a ranking sorts only the entries
its codes use (``np.unique(codes)``).  What is learned about a whole
dictionary — its string order, its budget bytes, the value-to-code
index a partial load extends — is computed once and shared by every
column that holds it.
"""

from __future__ import annotations

import operator
import sys
import threading
from typing import Callable, Iterable, Sequence

import numpy as np

#: The codes' dtype: one int32 per row.
CODE_DTYPE = np.dtype(np.int32)

#: The code of an unloaded slot in a partially loaded column's backing.
#: Never read: the owner reads loaded rows only.
UNLOADED = -1

#: Budget-accounted bytes of one dictionary entry beyond its characters:
#: CPython's ``str`` header plus the object array's pointer.
_ENTRY_OVERHEAD = 57

_OPS = {
    "=": operator.eq,
    "!=": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}

#: Guards the hand-over of a dictionary's value-to-code index.
_INDEX_LOCK = threading.Lock()


def _empty_dictionary() -> np.ndarray:
    return np.empty(0, dtype=object)


def _entries_nbytes(entries: np.ndarray) -> int:
    """Budget bytes of dictionary entries (``str`` objects, or the ``S``
    or ``U`` fields they decode from): characters plus overhead."""
    if entries.dtype.kind in "SU":
        chars = int(np.char.str_len(entries).sum())
    else:
        chars = sum(map(len, entries.tolist()))
    return chars + _ENTRY_OVERHEAD * len(entries)


class _Facts:
    """What is known about one dictionary, shared by every column that
    holds it (each field computed at most once per dictionary)."""

    __slots__ = ("rank_of", "nbytes", "index")

    def __init__(
        self, nbytes: int | None = None, index: dict[str, int] | None = None
    ) -> None:
        #: Per entry, its position in string order.
        self.rank_of: np.ndarray | None = None
        #: Budget bytes of the entries.
        self.nbytes = nbytes
        #: Value to code.  Owned by one dictionary at a time: growing a
        #: dictionary hands its index on to the grown one (see _merge).
        self.index = index


class StringColumn:
    """A column of strings as int32 codes into a dictionary of distinct
    values.  Immutable by convention: every operation returns a new
    column, sharing the dictionary when it did not grow."""

    __slots__ = ("codes", "dictionary", "_facts")

    #: NumPy operators (``ndarray == column``) defer to ours.
    __array_ufunc__ = None
    __hash__ = None  # type: ignore[assignment]  # defines __eq__ elementwise

    def __init__(
        self, codes: np.ndarray, dictionary: np.ndarray, _facts: _Facts | None = None
    ) -> None:
        self.codes = codes
        self.dictionary = dictionary
        self._facts = _Facts() if _facts is None else _facts

    # ----------------------------------------------------------- building

    @classmethod
    def encode(cls, values: Sequence[str] | np.ndarray) -> "StringColumn":
        """Encode field values (``S`` bytes, ``U`` or object ``str``, or
        a list), numbering distinct values in order of first occurrence."""
        if isinstance(values, np.ndarray) and values.dtype.kind in "SU":
            if len(values) == 0:
                return cls.empty()
            factorized = _factorize(values)
            if factorized is None:  # two values share a hash: go by value
                return cls.encode(values.astype(str).tolist())
            codes, firsts = factorized
            entries = values[firsts]
            texts = entries.tolist()
            if values.dtype.kind == "S":
                texts = list(map(bytes.decode, texts))
            dictionary = np.empty(len(texts), dtype=object)
            dictionary[:] = texts
            return cls(codes, dictionary, _Facts(nbytes=_entries_nbytes(entries)))
        index: dict[str, int] = {}
        texts = values.tolist() if isinstance(values, np.ndarray) else values
        codes = np.fromiter(
            (index.setdefault(s, len(index)) for s in texts),
            dtype=CODE_DTYPE,
            count=len(texts),
        )
        dictionary = _empty_dictionary()
        if index:
            dictionary = np.empty(len(index), dtype=object)
            dictionary[:] = list(index)
        return cls(codes, dictionary)

    @classmethod
    def empty(cls) -> "StringColumn":
        return cls(np.empty(0, dtype=CODE_DTYPE), _empty_dictionary())

    @classmethod
    def unloaded(cls, nrows: int) -> "StringColumn":
        """A backing of ``nrows`` slots, none of them loaded yet."""
        return cls(np.full(nrows, UNLOADED, dtype=CODE_DTYPE), _empty_dictionary())

    @staticmethod
    def concat(parts: Iterable["StringColumn"]) -> "StringColumn":
        """Rows of ``parts`` in order.  The first part's codes stay put;
        later parts' values the dictionary lacks are appended to it."""
        columns = list(parts)
        if not columns:
            return StringColumn.empty()
        first = columns[0]
        dictionary, facts = first.dictionary, first._facts
        pieces = [first.codes]
        for column in columns[1:]:
            dictionary, facts, remap = _merge(dictionary, facts, column.dictionary)
            pieces.append(column.codes if remap is None else remap[column.codes])
        codes = np.concatenate(pieces).astype(CODE_DTYPE, copy=False)
        return StringColumn(codes, dictionary, facts)

    def put(self, idx: np.ndarray, values: "StringColumn") -> "StringColumn":
        """A copy with rows ``idx`` set to ``values`` (a partial load).
        Never writes into this column's codes: a reader may hold them."""
        dictionary, facts, remap = _merge(self.dictionary, self._facts, values.dictionary)
        codes = np.array(self.codes, dtype=CODE_DTYPE)
        codes[idx] = values.codes if remap is None else remap[values.codes]
        return StringColumn(codes, dictionary, facts)

    # ------------------------------------------------------------ reading

    def __len__(self) -> int:
        return len(self.codes)

    def __array__(self, *args, **kwargs):
        raise TypeError(
            "a StringColumn does not convert to an array implicitly: "
            "call decode() for its values or ranks() for sort keys"
        )

    def take(self, idx) -> "StringColumn":
        """The rows ``idx`` selects (an index array, mask or slice)."""
        return StringColumn(self.codes[idx], self.dictionary, self._facts)

    def __getitem__(self, idx):
        """Rows ``idx`` selects as a column; an integer index gives that
        row's string, as an ndarray gives a scalar."""
        if isinstance(idx, (int, np.integer)):
            return self.dictionary[self.codes[idx]]
        return self.take(idx)

    def decode(self) -> np.ndarray:
        """The values as an object array of ``str`` (for result rows)."""
        return self.dictionary[self.codes]

    @property
    def nbytes(self) -> int:
        """Budget-accounted bytes: 4 a row, the dictionary's entries, and
        the value-to-code index a partially loaded column keeps."""
        facts = self._facts
        if facts.nbytes is None:
            facts.nbytes = _entries_nbytes(self.dictionary)
        index = facts.index
        return self.codes.nbytes + facts.nbytes + (0 if index is None else sys.getsizeof(index))

    # -------------------------------------------------------- comparisons

    def compare(self, op: str, other) -> np.ndarray:
        """Row mask of ``self <op> other`` for a ``str`` literal or another
        column.  A literal is compared once per dictionary entry and the
        answers are gathered by code (or once per row, when there are
        fewer rows).  Against a non-string literal ``=``/``!=``
        never/always hold and an ordering raises TypeError."""
        fn = _OPS[op]
        if isinstance(other, StringColumn):
            mine, theirs = self.co_ranks(other)
            return fn(mine, theirs)
        if not isinstance(other, str):
            if op in ("=", "!="):
                return np.full(len(self), op == "!=")
            raise TypeError(f"cannot compare strings with {type(other).__name__}")
        return self._per_entry(lambda entries: np.asarray(fn(entries, other), dtype=bool))

    def __eq__(self, other):  # type: ignore[override]
        return self.compare("=", other)

    def __ne__(self, other):  # type: ignore[override]
        return self.compare("!=", other)

    def __lt__(self, other):
        return self.compare("<", other)

    def __le__(self, other):
        return self.compare("<=", other)

    def __gt__(self, other):
        return self.compare(">", other)

    def __ge__(self, other):
        return self.compare(">=", other)

    def isin(self, values: Iterable) -> np.ndarray:
        """Row mask of membership in ``values`` (non-strings never match)."""
        wanted = [v for v in values if isinstance(v, str)]

        def answer(entries: np.ndarray) -> np.ndarray:
            hit = np.zeros(len(entries), dtype=bool)
            for v in wanted:
                hit |= entries == v
            return hit

        return self._per_entry(answer)

    def _per_entry(self, answer: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
        """Row mask from ``answer`` (entries to one bool each): asked once
        per dictionary entry, or once per row when there are fewer rows."""
        if len(self.codes) < len(self.dictionary):
            return answer(self.decode())
        return answer(self.dictionary)[self.codes]

    # -------------------------------------------------------------- order

    def ranks(self) -> np.ndarray:
        """Int sort keys in string order, for this column's rows: equal
        strings get equal ranks, and ``ranks()[i] < ranks()[j]`` exactly
        when row ``i``'s string sorts before row ``j``'s."""
        return _ranks([self])[0]

    def co_ranks(self, other: "StringColumn") -> tuple[np.ndarray, np.ndarray]:
        """Ranks of ``self`` and ``other`` in one shared string order (for
        join keys and column-to-column comparisons)."""
        mine, theirs = _ranks([self, other])
        return mine, theirs

    def at_ranks(self, ranks: np.ndarray, wanted) -> "StringColumn":
        """The strings of ranks ``wanted``, given this column's
        ``ranks()``: how ``min``/``max`` computed over ranks turn back
        into strings (each wanted rank must occur in ``ranks``)."""
        wanted = np.asarray(wanted, dtype=np.int64)
        if len(wanted) == 0:
            return self.take(wanted)
        row_of = np.empty(int(ranks.max()) + 1, dtype=np.int64)
        row_of[ranks] = np.arange(len(ranks))
        return self.take(row_of[wanted])

    def _rank_of(self) -> np.ndarray:
        """Every dictionary entry's position in string order (cached)."""
        facts = self._facts
        if facts.rank_of is None:
            order = np.argsort(self.dictionary, kind="stable")
            rank_of = np.empty(len(order), dtype=np.int64)
            rank_of[order] = np.arange(len(order))
            facts.rank_of = rank_of
        return facts.rank_of

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"StringColumn({len(self)} rows, {len(self.dictionary)} distinct)"


def _factorize(values: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """Codes numbering the distinct fields of an ``S`` or ``U`` array in
    order of first occurrence, and each code's first row; None when two
    different fields share a hash.

    Fields are grouped by a 64-bit hash of their bytes (an integer sort,
    where ``np.unique`` would sort the fields themselves), then every
    field is checked against its group's first, so a collision is found,
    never served."""
    hashes = _field_hashes(values)
    order = np.argsort(hashes)
    ordered = hashes[order]
    step = ordered[1:] != ordered[:-1]
    first = np.minimum.reduceat(order, np.flatnonzero(np.r_[True, step]))
    by_first = np.argsort(first)
    code_of = np.empty(len(first), dtype=CODE_DTYPE)
    code_of[by_first] = np.arange(len(first), dtype=CODE_DTYPE)
    codes = np.empty(len(values), dtype=CODE_DTYPE)
    codes[order] = code_of[np.cumsum(np.r_[False, step])]
    firsts = first[by_first]
    if not (values[firsts][codes] == values).all():
        return None
    return codes, firsts


#: An odd 64-bit multiplier (2**64 over the golden ratio) for field hashes.
_HASH_MULTIPLIER = np.uint64(0x9E3779B97F4A7C15)


def _field_hashes(values: np.ndarray) -> np.ndarray:
    """A 64-bit hash of each fixed-width field's bytes, 8 at a time."""
    n, width = len(values), values.dtype.itemsize
    chars = np.ascontiguousarray(values).view(np.uint8).reshape(n, width)
    if width % 8:
        chars = np.concatenate(
            [chars, np.zeros((n, -width % 8), dtype=np.uint8)], axis=1
        )
    hashes = np.zeros(n, dtype=np.uint64)
    for word in chars.view(np.uint64).T:
        hashes = (hashes ^ word) * _HASH_MULTIPLIER
        hashes ^= hashes >> np.uint64(29)
    return hashes


def _ranks(columns: list[StringColumn]) -> list[np.ndarray]:
    """Each column's ranks in one string order shared by all of them.

    Columns of one dictionary whose rows reach its size, or whose
    dictionary's order is already known, gather the whole dictionary's
    order by code.  Otherwise only the entries the rows use are sorted."""
    first = columns[0]
    if all(c.dictionary is first.dictionary for c in columns) and (
        first._facts.rank_of is not None
        or sum(len(c) for c in columns) >= len(first.dictionary)
    ):
        rank_of = first._rank_of()
        return [rank_of[c.codes] for c in columns]
    used = [np.unique(c.codes, return_inverse=True) for c in columns]
    texts = np.concatenate([c.dictionary[u] for c, (u, _) in zip(columns, used)])
    rank = np.unique(texts, return_inverse=True)[1].ravel()
    out = []
    start = 0
    for u, inverse in used:
        out.append(rank[start : start + len(u)][inverse.ravel()])
        start += len(u)
    return out


def _merge(
    dictionary: np.ndarray, facts: _Facts, extra: np.ndarray
) -> tuple[np.ndarray, _Facts, np.ndarray | None]:
    """``dictionary`` (described by ``facts``) grown by the entries of
    ``extra`` it lacks, at its end; the grown dictionary's facts; and the
    map from ``extra``'s codes to the grown dictionary's — None when
    ``extra`` is a prefix of ``dictionary`` (codes carry over).

    The value-to-code index is built once per line of growth: a grown
    dictionary takes its base's index over (extended by the new values),
    so repeated partial loads and appends look up only their own values."""
    if extra is dictionary or (
        len(extra) <= len(dictionary)
        and (len(extra) == 0 or bool((dictionary[: len(extra)] == extra).all()))
    ):
        return dictionary, facts, None
    with _INDEX_LOCK:  # one owner at a time: the taker may extend it
        index, facts.index = facts.index, None
    if index is None:
        index = dict(zip(dictionary.tolist(), range(len(dictionary))))
    texts = extra.tolist()
    known = np.fromiter(map(index.__contains__, texts), dtype=bool, count=len(texts))
    added = extra[~known]  # extra's entries are distinct: each is new once
    index.update(zip(added.tolist(), range(len(dictionary), len(dictionary) + len(added))))
    remap = np.fromiter(map(index.__getitem__, texts), dtype=CODE_DTYPE, count=len(texts))
    if not len(added):
        facts.index = index
        return dictionary, facts, remap
    nbytes = None if facts.nbytes is None else facts.nbytes + _entries_nbytes(added)
    grown = np.concatenate([dictionary, added])
    return grown, _Facts(nbytes=nbytes, index=index), remap
