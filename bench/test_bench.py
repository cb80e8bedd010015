"""Tests for the benchmark harness's pure parts.

Run from the repository root:  python3 -m pytest bench/test_bench.py -q
"""

from array import array

import pytest

from run import percentile, tail_percentile
from tracing import Tracer, aggregate, metric, read_spans, self_times
from workloads import WORKLOADS, label, members


@pytest.mark.parametrize("n, expected", [(10, None), (11, 9), (20, 50), (23, 56), (29, 65), (100, 90)])
def test_tail_percentile_leaves_ten_beyond(n, expected):
    p = tail_percentile(n)
    assert p == expected
    if p is not None:
        rank = -(-p * n // 100)
        assert n - rank >= 10
        assert n - -(-(p + 1) * n // 100) < 10


def test_percentile_is_nearest_rank():
    values = [5, 1, 4, 2, 3, 10, 9, 8, 7, 6]
    assert percentile(values, 50) == 5
    assert percentile(values, 90) == 9
    assert percentile(values, 91) == 10
    assert percentile(values, 1) == 1


def test_self_time_subtracts_direct_children_only():
    # root [0, 10] > a [1, 4] > leaf [2, 3]; root > b [5, 9]
    start = [0.0, 1.0, 2.0, 5.0]
    end = [10.0, 4.0, 3.0, 9.0]
    parent = [-1, 0, 1, 0]
    assert self_times(start, end, parent) == [3.0, 2.0, 1.0, 4.0]


def _columns(rows):
    cols = {k: [] for k in ("name", "start", "end", "parent", "work", "size")}
    for row in rows:
        for k, v in zip(cols, row):
            cols[k].append(v)
    return cols


def test_metrics_read_spans_and_whole_layers():
    names = ["homology.hochster_total_rank.q", "linalg.integer_rank", "homology.hochster_total_rank.gf2"]
    cols = _columns([
        (0, 0.0, 4.0, -1, 1 << 5, 0),
        (1, 1.0, 2.0, 0, 12, 0),
        (1, 2.5, 3.0, 0, 30, 0),
        (2, 5.0, 6.0, -1, 1 << 6, 0),
    ])
    agg = aggregate(names, cols)
    assert metric(agg, "homology.hochster_total_rank.q.s") == 4.0
    assert metric(agg, "homology.self_s") == pytest.approx(2.5 + 1.0)
    assert metric(agg, "homology.subsets_requested") == 32 + 64
    assert metric(agg, "linalg.integer_rank.calls") == 2
    assert metric(agg, "linalg.integer_rank.cells") == 42
    assert metric(agg, "linalg.integer_rank.max_cells") == 30
    assert metric(agg, "linalg.gf2_rank.s") == 0


def test_spans_round_trip(tmp_path):
    tracer = Tracer()
    outer = tracer.open(tracer.name_id("a"))
    inner = tracer.open(tracer.name_id("b"))
    tracer.close(inner)
    tracer.close(outer)
    tracer.work[inner] = 7
    path = tmp_path / "t.spans"
    tracer.write(path)
    names, cols = read_spans(path)
    assert names == ["a", "b"]
    assert list(cols["parent"]) == [-1, 0]
    assert list(cols["work"]) == [0, 7]
    assert cols["start"] == array("d", tracer.start)


@pytest.mark.parametrize(
    "construction, expected",
    [
        (("product", (1, 2)), (True, (2, 3))),
        (("product", (4,)), (True, (5,))),
        (("polygon", 3), (True, (3,))),
        (("polygon", 4), (True, (2, 2))),
        (("polygon", 5), (False, None)),
        (("prism", 4), (True, (2, 2, 2))),
        (("prism", 5), (False, None)),
        (("truncation", ("product", (3,)), 1), (True, (2, 3))),
        (("truncation", ("product", (3,)), 2), (False, None)),
        (("truncation", ("product", (1, 1, 1)), 1), (False, None)),
        (("join", ("polygon", 3), ("product", (1, 1))), (True, (2, 2, 3))),
    ],
)
def test_labels_follow_construction(construction, expected):
    assert label(construction) == expected


def test_seed_never_changes_a_slots_answer():
    # every family member the seed may draw for a slot has the same label kind
    for workload, slots in WORKLOADS.items():
        for family, m, dim, _count in slots:
            choices = members(family, m, dim)
            assert choices, (workload, family, m, dim)
            assert len({label(c)[0] for c in choices}) == 1, (workload, family, m, dim)
