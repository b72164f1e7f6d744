"""Serving queries over the network: one engine, many clients.

Boots a ``ReproServer`` in-process (the same thing ``repro serve``
starts), then drives it with two wire clients to show the serving
contract end to end:

1. both clients attach the *same* raw file — identical attaches are
   idempotent, so they converge on one shared table;
2. queries return a **result handle** plus the first page; further pages
   are fetched on demand (results are addressable resources with a TTL);
3. the second client re-opens the first client's result by id;
4. the error taxonomy travels the wire: bad SQL raises the same
   ``SQLSyntaxError`` the engine raised server-side;
5. ``/stats`` shows one shared adaptive store serving everyone.

Run:  python examples/server_client.py
(set REPRO_EXAMPLE_ROWS to shrink the dataset, e.g. for CI smoke runs)
"""

from __future__ import annotations

import os
import tempfile
from pathlib import Path

import numpy as np

import repro
from repro.server import ReproServer

ROWS = int(os.environ.get("REPRO_EXAMPLE_ROWS", "100000"))


def write_table(path: Path, nrows: int, ncols: int, seed: int) -> Path:
    """A headerless CSV whose columns a1..aN each permute 0..nrows-1."""
    rng = np.random.default_rng(seed)
    columns = [rng.permutation(nrows) for _ in range(ncols)]
    np.savetxt(path, np.column_stack(columns), fmt="%d", delimiter=",")
    return path


def main() -> None:
    workdir = Path(tempfile.mkdtemp(prefix="repro-serve-"))
    csv_path = write_table(workdir / "data.csv", ROWS, ncols=4, seed=7)
    print(f"raw data file: {csv_path} ({csv_path.stat().st_size:,} bytes)")

    engine = repro.NoDBEngine(repro.EngineConfig(policy="column_loads"))
    with ReproServer(engine, port=0, owns_engine=True) as server:
        server.start()
        print(f"serving on {server.url}  (same as: repro serve {csv_path.name})\n")

        alice = repro.connect(url=server.url)
        bob = repro.connect(url=server.url)

        # Both clients attach the same file: idempotent, one shared table.
        alice.attach("t", csv_path)
        bob.attach("t", csv_path)
        print(f"tables: {alice.tables()}  (both clients attached the same file)")

        result = alice.execute(
            "select a1, a2 from t where a1 > 1000 and a1 < 30000", page_size=500
        )
        print(f"\nalice> {result!r}")
        print(f"  first page arrived with the response: {result.page(0).num_rows} rows")
        print(f"  total {result.num_rows} rows in {result.num_pages} pages of "
              f"{result.page_size}")

        # Results are resources: bob re-opens alice's result by id.
        shared = bob.result(result.result_id)
        print(f"bob reopens {shared.result_id}: {shared.num_rows} rows "
              f"(identical: {shared.page(0).rows() == result.page(0).rows()})")

        # Aggregates round-trip exactly; the engine only loads what
        # queries touch, no matter which client asks.
        for sql in (
            "select count(*) from t",
            "select sum(a1), avg(a2) from t where a1 > 2000 and a1 < 25000",
        ):
            print(f"bob> {sql}\n  {bob.execute(sql).rows()[0]}")

        # The error taxonomy crosses the wire as the same exception class.
        try:
            alice.execute("selct broken")
        except repro.SQLSyntaxError as exc:
            print(f"\nalice> selct broken\n  -> {exc.code} at position "
                  f"{exc.position}: {exc.message}")

        stats = alice.stats()
        print(f"\none shared engine served everyone: "
              f"{stats['engine']['queries']} queries, "
              f"{stats['results']['stored']} result resources, "
              f"{stats['server']['requests']} HTTP requests")
        warmth = alice.table_info("t")["warmth"]
        print(f"adaptive store warmth: {warmth['state']}, columns loaded: "
              f"{sorted(warmth['loaded'])}")


if __name__ == "__main__":
    main()
