"""Pagination round-trips: pages concatenated must equal the full result."""

from __future__ import annotations

import time

import pytest

from repro import UnknownResultError
from repro.client import RemoteConnection
from repro.result import QueryResult


@pytest.mark.parametrize("page_size", [1, 7, 100, 499, 500, 501])
def test_all_pages_concatenate_to_the_full_result(served, remote, page_size):
    sql = "select a1, a2 from r"
    want = served.engine.query(sql).rows()
    result = remote.execute(sql, page_size=page_size)
    assert result.num_rows == len(want)
    assert result.num_pages == max(1, -(-len(want) // page_size))
    rows = [row for page in result.pages() for row in page.rows()]
    assert rows == want
    assert result.to_result().rows() == want


@pytest.fixture
def mixed(server_factory, tmp_path):
    """A server over a 230-row table with an int, a float and a string column."""
    path = tmp_path / "mixed.csv"
    lines = ["i,f,s"] + [f"{i * 7 - 300},{i / 8 - 3.0!r},w{i % 13}" for i in range(230)]
    path.write_text("\n".join(lines) + "\n")
    server = server_factory()
    server.engine.attach("m", path)
    return server


def test_mixed_dtype_download_equals_the_embedded_result(mixed):
    sql = "select i, f, s from m where i > -200"
    want = mixed.engine.query(sql)
    remote = RemoteConnection(mixed.url).execute(sql, page_size=32)
    assert remote.num_pages == -(-want.num_rows // 32) > 1
    got = remote.to_result()
    assert got.names == want.names
    assert [c.dtype.kind for c in got.columns] == ["i", "f", "O"]
    for have, expected in zip(got.columns, want.columns):
        assert have.tolist() == expected.tolist()  # floats exactly, not approximately
    assert remote.rows() == want.rows()


def test_a_query_encodes_the_full_result_once_and_then_only_pages(mixed, monkeypatch):
    encoded_rows = []
    encode = QueryResult.to_json_dict

    def counting(self):
        encoded_rows.append(self.num_rows)
        return encode(self)

    monkeypatch.setattr(QueryResult, "to_json_dict", counting)
    remote = RemoteConnection(mixed.url).execute("select i, f, s from m", page_size=50)
    assert encoded_rows == [230, 50]  # the resource, then page 0 of the response
    del encoded_rows[:]
    assert sum(page.num_rows for page in remote.pages()) == 230
    assert encoded_rows == [50, 50, 50, 30]  # pages 1..4; page 0 came with the query


def test_pages_are_bounded_by_page_size(remote):
    result = remote.execute("select a1 from r", page_size=64)
    sizes = [page.num_rows for page in result.pages()]
    assert all(s == 64 for s in sizes[:-1])
    assert 0 < sizes[-1] <= 64
    assert sum(sizes) == result.num_rows


def test_empty_result_is_one_empty_page(remote):
    result = remote.execute("select a1 from r where a1 > 100000000")
    assert result.num_rows == 0
    assert result.num_pages == 1
    assert result.page(0).num_rows == 0
    assert result.rows() == []


def test_out_of_range_page_is_unknown_result(remote):
    result = remote.execute("select a1 from r", page_size=100)
    with pytest.raises(UnknownResultError):
        remote._request("GET", f"/results/{result.result_id}/pages/{result.num_pages}")
    with pytest.raises(UnknownResultError):
        remote._request("GET", f"/results/{result.result_id}/pages/-1")


def test_results_are_addressable_across_clients(served, remote):
    result = remote.execute("select a1, a4 from r where a1 < 250", page_size=50)
    other = RemoteConnection(served.url, client_id="second-client")
    reopened = other.result(result.result_id)
    assert reopened.num_rows == result.num_rows
    assert reopened.rows() == result.rows()


def test_deleted_result_is_gone(remote):
    result = remote.execute("select a1 from r")
    result.delete()
    with pytest.raises(UnknownResultError) as excinfo:
        remote.result(result.result_id)
    assert excinfo.value.code == "unknown_result"


def test_result_resources_expire_over_the_wire(server_factory, small_csv):
    server = server_factory(result_ttl_s=0.3)
    server.engine.attach("r", small_csv)
    remote = RemoteConnection(server.url)
    result = remote.execute("select a1 from r", page_size=100)
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        try:
            remote.result(result.result_id)
        except UnknownResultError as exc:
            assert exc.code == "unknown_result"
            break
        time.sleep(0.05)
    else:
        pytest.fail("result resource never expired")


def test_first_page_arrives_with_the_query_response(served, remote):
    result = remote.execute("select a1 from r", page_size=100)
    # Page 0 was cached from the POST /query response: reading it must
    # not issue another request even after the resource is deleted.
    remote._request("DELETE", f"/results/{result.result_id}")
    assert result.page(0).num_rows == 100
    with pytest.raises(UnknownResultError):
        result.page(1)
