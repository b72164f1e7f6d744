"""The scripting-tool baseline: an "Awk" over raw files.

Section 2 of the paper benchmarks hand-written Awk scripts against the
DBMS.  This module recreates that contender faithfully *in behaviour*:

* **stateless** — nothing survives between queries; every query streams
  the whole file again ("a scripting tool has a constant performance that
  cannot improve over time");
* **row-at-a-time** — records are split into fields and processed one by
  one, the volcano-without-an-optimizer style of a script;
* **optimized the way the authors optimized their scripts** — selections
  are applied as early as possible and only needed fields are converted
  ("our scripts match the techniques used in an optimized DB plan, i.e.,
  push down selections, perform the most selective filtering first");
* **both join strategies** of section 2.2 — a hash join (build a dict from
  one file, probe with the other) and a sort-merge join (sort both inputs,
  then merge — the `Unix sort` + 100-line-awk approach).

For convenience and apples-to-apples result checking, the engine accepts
the same SQL dialect as :class:`~repro.core.engine.NoDBEngine` — think of
it as FlatSQL [16]: SQL in, scripted streaming underneath.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.errors import UnsupportedSQLError
from repro.flatfile.files import FlatFile, decode_utf8
from repro.flatfile.parser import parse_single
from repro.flatfile.schema import TableSchema, infer_schema, looks_like_header
from repro.result import QueryResult
from repro.sql.binder import (
    BAgg,
    BArith,
    BColumn,
    BCompare,
    BExpr,
    BIn,
    BLiteral,
    BLogical,
    BNeg,
    BNot,
    BoundQuery,
    bind,
)
from repro.sql.parser import parse_sql

_CMP = {
    "=": operator.eq,
    "!=": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}


@dataclass
class _ScriptTable:
    """One file known to the script, with lazily inferred schema."""

    name: str
    file: FlatFile
    schema: TableSchema | None = None
    has_header: bool = False

    def ensure_schema(self) -> TableSchema:
        if self.schema is None:
            rows = self.file.sample_rows()
            second = rows[1] if len(rows) > 1 else None
            self.has_header = looks_like_header(rows[0], second)
            if self.has_header:
                self.schema = infer_schema(rows[1:], header=rows[0])
            else:
                self.schema = infer_schema(rows)
        return self.schema


@dataclass
class AwkEngine:
    """Stateless streaming query processor over raw flat files."""

    tables: dict[str, _ScriptTable] = field(default_factory=dict)
    join_strategy: str = "hash"  # 'hash' | 'merge'

    def attach(self, name: str, path: Path | str, delimiter: str = ",") -> None:
        # Plain delimited only: this baseline shells out to awk with
        # FS=<delimiter>, which has no notion of the adapter dialects.
        self.tables[name.lower()] = _ScriptTable(
            name, FlatFile(Path(path), delimiter=delimiter)
        )

    # -------------------------------------------------------------- query

    def query(self, sql: str) -> QueryResult:
        stmt = parse_sql(sql)
        names = [stmt.table.name] if stmt.table else []
        names += [j.table.name for j in stmt.joins]
        schemas = {}
        for n in names:
            t = self.tables.get(n.lower())
            if t is None:
                raise UnsupportedSQLError(f"table {n!r} not attached to the script")
            schemas[n] = t.ensure_schema()
        bound = bind(stmt, schemas)
        if bound.having is not None:
            raise UnsupportedSQLError(
                "the script baseline does not implement HAVING"
            )
        if len(bound.tables) == 1:
            rows = self._scan_single(bound)
        elif len(bound.tables) == 2 and len(bound.joins) == 1:
            rows = self._scan_join(bound)
        else:
            raise UnsupportedSQLError(
                "the script baseline supports one table or one two-table join"
            )
        return _finalize(bound, rows)

    # ----------------------------------------------------------- streaming

    def _stream_rows(self, binding: str, bound: BoundQuery):
        """Yield per-row dicts of parsed needed fields, filtering early."""
        table = self.tables[bound.tables[binding].lower()]
        schema = table.ensure_schema()
        needed = bound.needed_columns[binding]
        positions = [(n, schema.index_of(n), schema.dtype_of(n)) for n in needed]
        # Most-selective-first: evaluate recognized range conjuncts in
        # file order as soon as their field is available.
        condition = bound.conditions[binding]
        intervals = {n.lower(): iv for n, iv in condition.items}
        text = decode_utf8(table.file.read_all_bytes(), table.file.path)
        start = 1 if table.has_header else 0
        for line in text.split("\n")[start:]:
            line = line.rstrip("\r")
            if not line:
                continue
            fields = line.split(table.file.delimiter)  # awk splits the record
            row: dict[str, object] = {}
            ok = True
            for name, idx, dtype in positions:
                value = parse_single(fields[idx], dtype)
                interval = intervals.get(name.lower())
                if interval is not None and not interval.contains_value(value):
                    ok = False
                    break
                row[name.lower()] = value
            if ok:
                yield row

    def _scan_single(self, bound: BoundQuery) -> list[dict[str, object]]:
        binding = bound.single_binding()
        rows = []
        for row in self._stream_rows(binding, bound):
            if _residual_ok(bound, {binding: row}):
                rows.append({f"{binding}.{k}": v for k, v in row.items()})
        return rows

    def _scan_join(self, bound: BoundQuery) -> list[dict[str, object]]:
        join = bound.joins[0]
        lb, rb = join.left.binding, join.right.binding
        if self.join_strategy == "merge":
            return self._merge_join(bound, join, lb, rb)
        # Hash join: build on the right input, probe with the left.
        build: dict[object, list[dict[str, object]]] = {}
        for row in self._stream_rows(rb, bound):
            build.setdefault(row[join.right.name.lower()], []).append(row)
        out = []
        for row in self._stream_rows(lb, bound):
            for match in build.get(row[join.left.name.lower()], ()):
                combined = {f"{lb}.{k}": v for k, v in row.items()}
                combined.update({f"{rb}.{k}": v for k, v in match.items()})
                if _residual_ok(bound, {lb: row, rb: match}):
                    out.append(combined)
        return out

    def _merge_join(self, bound, join, lb, rb) -> list[dict[str, object]]:
        """Sort both inputs (the `Unix sort` step), then merge."""
        lkey, rkey = join.left.name.lower(), join.right.name.lower()
        left = sorted(self._stream_rows(lb, bound), key=lambda r: r[lkey])
        right = sorted(self._stream_rows(rb, bound), key=lambda r: r[rkey])
        out = []
        i = j = 0
        while i < len(left) and j < len(right):
            lv, rv = left[i][lkey], right[j][rkey]
            if lv < rv:
                i += 1
            elif lv > rv:
                j += 1
            else:
                i2 = i
                while i2 < len(left) and left[i2][lkey] == lv:
                    i2 += 1
                j2 = j
                while j2 < len(right) and right[j2][rkey] == rv:
                    j2 += 1
                for a in range(i, i2):
                    for b in range(j, j2):
                        if _residual_ok(bound, {lb: left[a], rb: right[b]}):
                            combined = {f"{lb}.{k}": v for k, v in left[a].items()}
                            combined.update(
                                {f"{rb}.{k}": v for k, v in right[b].items()}
                            )
                            out.append(combined)
                i, j = i2, j2
        return out


# ---------------------------------------------------------------------------
# Row-at-a-time expression evaluation (the "script body")
# ---------------------------------------------------------------------------


def _residual_ok(bound: BoundQuery, rows_by_binding: dict[str, dict]) -> bool:
    """Evaluate the full WHERE on one candidate row combination.

    Recognized conjuncts were already applied during streaming; they are
    re-checked here only when part of a residual tree, which keeps this
    simple and obviously correct.
    """
    if bound.where is None:
        return True
    return bool(_eval_scalar(bound.where, rows_by_binding))


def _eval_scalar(expr: BExpr, rows: dict[str, dict]):
    if isinstance(expr, BLiteral):
        return expr.value
    if isinstance(expr, BColumn):
        row = rows.get(expr.binding)
        if row is None:
            # Half-evaluated join rows: treat unseen side as satisfied.
            return None
        return row[expr.name.lower()]
    if isinstance(expr, BNeg):
        v = _eval_scalar(expr.operand, rows)
        return None if v is None else -v
    if isinstance(expr, BArith):
        left = _eval_scalar(expr.left, rows)
        right = _eval_scalar(expr.right, rows)
        if left is None or right is None:
            return None
        if expr.op == "+":
            return left + right
        if expr.op == "-":
            return left - right
        if expr.op == "*":
            return left * right
        return left / right
    if isinstance(expr, BCompare):
        left = _eval_scalar(expr.left, rows)
        right = _eval_scalar(expr.right, rows)
        if left is None or right is None:
            return True  # cannot reject yet
        return _CMP[expr.op](left, right)
    if isinstance(expr, BLogical):
        left = _eval_scalar(expr.left, rows)
        right = _eval_scalar(expr.right, rows)
        if expr.op == "and":
            return bool(left) and bool(right)
        return bool(left) or bool(right)
    if isinstance(expr, BNot):
        return not bool(_eval_scalar(expr.operand, rows))
    if isinstance(expr, BIn):
        v = _eval_scalar(expr.operand, rows)
        if v is None:
            return True
        hit = any(v == m for m in expr.values)
        return (not hit) if expr.negated else hit
    raise UnsupportedSQLError(f"script cannot evaluate {expr!r}")


# ---------------------------------------------------------------------------
# Aggregation / projection over accumulated rows
# ---------------------------------------------------------------------------


def _finalize(bound: BoundQuery, rows: list[dict[str, object]]) -> QueryResult:
    def col_key(c: BColumn) -> str:
        return f"{c.binding}.{c.name.lower()}"

    def eval_row(expr: BExpr, row: dict):
        if isinstance(expr, BColumn):
            return row[col_key(expr)]
        return _eval_scalar_row(expr, row, col_key)

    if bound.is_aggregate:
        if bound.group_by:
            groups: dict[tuple, list[dict]] = {}
            for row in rows:
                key = tuple(eval_row(k, row) for k in bound.group_by)
                groups.setdefault(key, []).append(row)
            key_strs = [str(k) for k in bound.group_by]
            names, columns = [], []
            ordered = sorted(groups.items(), key=lambda kv: kv[0])
            for out in bound.outputs:
                names.append(out.name)
                if str(out.expr) in key_strs:
                    idx = key_strs.index(str(out.expr))
                    columns.append(np.array([k[idx] for k, _ in ordered]))
                else:
                    columns.append(
                        np.array(
                            [_agg_over(out.expr, grp, eval_row) for _, grp in ordered]
                        )
                    )
            return QueryResult(names, columns)
        names = [o.name for o in bound.outputs]
        columns = [np.array([_agg_over(o.expr, rows, eval_row)]) for o in bound.outputs]
        return QueryResult(names, columns)

    names = [o.name for o in bound.outputs]
    out_rows = [tuple(eval_row(o.expr, row) for o in bound.outputs) for row in rows]
    if bound.distinct:
        seen = set()
        deduped = []
        for row in out_rows:
            if row not in seen:
                seen.add(row)
                deduped.append(row)
        out_rows = deduped
    columns = [
        np.array([row[i] for row in out_rows]) for i in range(len(names))
    ]
    if not out_rows:
        columns = [np.empty(0) for _ in names]
    result = QueryResult(names, columns)
    return _order_limit(bound, result)


def _eval_scalar_row(expr: BExpr, row: dict, col_key):
    if isinstance(expr, BLiteral):
        return expr.value
    if isinstance(expr, BColumn):
        return row[col_key(expr)]
    if isinstance(expr, BNeg):
        return -_eval_scalar_row(expr.operand, row, col_key)
    if isinstance(expr, BArith):
        left = _eval_scalar_row(expr.left, row, col_key)
        right = _eval_scalar_row(expr.right, row, col_key)
        if expr.op == "+":
            return left + right
        if expr.op == "-":
            return left - right
        if expr.op == "*":
            return left * right
        return left / right
    if isinstance(expr, BCompare):
        return _CMP[expr.op](
            _eval_scalar_row(expr.left, row, col_key),
            _eval_scalar_row(expr.right, row, col_key),
        )
    raise UnsupportedSQLError(f"script cannot project {expr!r}")


def _agg_over(expr: BExpr, rows: list[dict], eval_row):
    """Evaluate an aggregate-bearing output expression over a row group."""
    if isinstance(expr, BAgg):
        if expr.func == "count" and expr.arg is None:
            return len(rows)
        values = [eval_row(expr.arg, r) for r in rows]
        if expr.distinct:
            values = list(set(values))
        if expr.func == "count":
            return len(values)
        if not values:
            return float("nan")
        if expr.func == "sum":
            return sum(values)
        if expr.func == "min":
            return min(values)
        if expr.func == "max":
            return max(values)
        if expr.func == "avg":
            return sum(values) / len(values)
        raise UnsupportedSQLError(f"unknown aggregate {expr.func}")
    if isinstance(expr, BArith):
        left = _agg_over(expr.left, rows, eval_row)
        right = _agg_over(expr.right, rows, eval_row)
        if expr.op == "+":
            return left + right
        if expr.op == "-":
            return left - right
        if expr.op == "*":
            return left * right
        return left / right
    if isinstance(expr, BLiteral):
        return expr.value
    if isinstance(expr, BNeg):
        return -_agg_over(expr.operand, rows, eval_row)
    raise UnsupportedSQLError(f"script cannot aggregate {expr!r}")


def _order_limit(bound: BoundQuery, result: QueryResult) -> QueryResult:
    columns = result.columns
    if bound.order_by and result.num_rows > 1:
        by_name = {str(o.expr): c for o, c in zip(bound.outputs, columns)}
        keys = []
        for expr, desc in reversed(bound.order_by):
            col = by_name.get(str(expr))
            if col is None:
                raise UnsupportedSQLError(
                    "script ORDER BY must reference select-list expressions"
                )
            keys.append(-col if desc else col)
        order = np.lexsort(tuple(keys))
        columns = [c[order] for c in columns]
    if bound.limit is not None:
        columns = [c[: bound.limit] for c in columns]
    return QueryResult(result.names, columns)
