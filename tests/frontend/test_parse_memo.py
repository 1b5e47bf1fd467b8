"""``parse`` memoizes on the source text: equal sources share one
immutable TranslationUnit."""

import pytest

from repro import Session, SimOptions
from repro.frontend import parse
from repro.frontend.parser import parse_memo

SRC = """
#define N 8
__global__ void k(float *x) {
    int i = threadIdx.x;
    if (i < N) { x[i] = 2.0f * x[i]; }
}
"""


def test_equal_sources_share_one_unit():
    unit = parse(SRC)
    assert parse(str(SRC)) is unit
    parse_memo.clear()
    again = parse(SRC)
    assert again is not unit and again == unit


def test_defines_reject_writes():
    unit = parse(SRC)
    assert unit.defines == {"N": 8}
    with pytest.raises(TypeError):
        unit.defines["N"] = 16
    assert parse(SRC).defines["N"] == 8


def test_hits_emit_the_parse_span_and_count():
    sess = Session("max", SimOptions(trace=True, metrics=True))
    sess.reset_observability()
    sess.compile(SRC)
    sess.compile(SRC)
    spans = [s for root in sess.spans() for s in root.walk()
             if s.name == "frontend.parse"]
    assert [s.attrs["cached"] for s in spans] == [False, True]
    counters = sess.metrics_snapshot()["counters"]
    assert counters["frontend.parse.cache_misses"] == 1
    assert counters["frontend.parse.cache_hits"] == 1
    sess.reset_observability()
