"""``repro.memo``: the one bounded LRU class behind every kernel memo."""

from repro.analysis.kernel_info import analysis_memo
from repro.frontend.parser import parse_memo
from repro.memo import Memo, clear_memos
from repro.obs.metrics_registry import MetricsRegistry, install
from repro.sim.compile import compile_memo
from repro.sim.launch import record_memo
from repro.sim.tape import lowering_memo


def test_memos_keep_their_limits():
    assert (parse_memo.limit, analysis_memo.limit, lowering_memo.limit,
            record_memo.limit, compile_memo.limit) == (64, 256, 64, 16, 64)


def test_least_recent_entry_goes_and_lookups_count():
    reg = MetricsRegistry(enabled=True)
    previous = install(reg)
    try:
        memo = Memo("test.memo", 2)
        memo.put("a", 1)
        memo.put("b", 2)
        assert memo.get("a") == 1      # "a" is now the most recent
        memo.put("c", 3)               # so "b" goes
        assert memo.get("b") is None and len(memo) == 2
        assert memo.get("c") == 3
        clear_memos()
        assert len(memo) == 0 and memo.get("a") is None
    finally:
        install(previous)
    assert reg.snapshot()["counters"] == {"test.memo_hits": 2,
                                          "test.memo_misses": 2}
