"""Span log semantics: nesting, error status, bounds, global helpers."""

import tracemalloc

import pytest

from repro.obs import SpanLog, get_span_log, span
from repro.obs.spans import DEFAULT_SPAN_LIMIT

CHAIN = ("spaden", "cusparse-bsr", "cusparse-csr", "csr-scalar")


def _engine_batch(log: SpanLog) -> None:
    """The 7 spans one engine batch records, with the engine's attributes."""
    with log.span("engine.batch", kernel="spaden", k=4, simulate=False) as batch:
        with log.span("exec.chain", chain=",".join(CHAIN)) as chain:
            with log.span("exec.attempt", kernel="spaden", position=0, try_number=0) as attempt:
                with log.span("exec.execute", kernel="spaden", mode="NUMERIC"):
                    with log.span("exec.prepare", exec_stage="prepare", kernel="spaden") as prep:
                        prep.attributes["cached"] = True
                    with log.span(
                        "exec.run", exec_stage="run", kernel="spaden", mode="NUMERIC", batched=True
                    ):
                        pass
                    with log.span("exec.check", exec_stage="check", kernel="spaden"):
                        pass
                attempt.attributes["outcome"] = "ok"
            chain.attributes["kernel"] = "spaden"
            chain.attributes["degradations"] = 0
        batch.attributes["served_by"] = "spaden"


class TestSpanLog:
    def test_nesting_links_parent(self):
        log = SpanLog()
        with log.span("outer") as outer:
            with log.span("inner") as inner:
                pass
        assert inner.parent_id == outer.span_id
        assert outer.parent_id is None
        # children finish (and record) before parents
        assert [s.name for s in log.spans()] == ["inner", "outer"]
        assert log.children_of(outer) == [inner]

    def test_attributes_and_duration(self):
        log = SpanLog()
        with log.span("work", kernel="spaden", batch=4) as s:
            s.attributes["outcome"] = "ok"
        assert s.attributes == {"kernel": "spaden", "batch": 4, "outcome": "ok"}
        assert s.duration_seconds >= 0.0
        assert s.status == "ok" and s.error is None

    def test_exception_marks_error_and_propagates(self):
        log = SpanLog()
        with pytest.raises(ValueError, match="boom"):
            with log.span("work"):
                raise ValueError("boom")
        [s] = log.spans()
        assert s.status == "error"
        assert s.error == "ValueError: boom"
        assert s.end_seconds is not None

    def test_error_in_child_does_not_poison_parent(self):
        log = SpanLog()
        with log.span("outer") as outer:
            try:
                with log.span("inner"):
                    raise RuntimeError("inner only")
            except RuntimeError:
                pass
        assert outer.status == "ok"
        assert log.by_name("inner")[0].status == "error"

    def test_bounded_with_dropped_counter(self):
        log = SpanLog(limit=3)
        for i in range(5):
            with log.span(f"s{i}"):
                pass
        assert len(log) == 3
        assert log.dropped == 2
        assert [s.name for s in log.spans()] == ["s2", "s3", "s4"]

    def test_default_log_memory_does_not_grow_with_traffic(self):
        log = SpanLog()
        recorded = 0
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            while recorded < 20_000:
                _engine_batch(log)
                recorded += 7
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(log) == DEFAULT_SPAN_LIMIT
        assert log.dropped == recorded - DEFAULT_SPAN_LIMIT
        assert retained < 5 * 2**20

    def test_as_dicts_shape(self):
        log = SpanLog()
        with log.span("work", kernel="spaden"):
            pass
        [d] = log.as_dicts()
        assert d["name"] == "work"
        assert d["attributes"] == {"kernel": "spaden"}
        assert d["status"] == "ok"
        assert set(d) == {
            "span_id", "parent_id", "name", "attributes",
            "start_seconds", "duration_seconds", "status", "error",
        }

    def test_clear(self):
        log = SpanLog(limit=1)
        for _ in range(3):
            with log.span("s"):
                pass
        log.clear()
        assert len(log) == 0 and log.dropped == 0


class TestGlobalSpan:
    def test_span_helper_records_on_global_log(self):
        with span("global.work", mode="NUMERIC"):
            pass
        [s] = get_span_log().by_name("global.work")
        assert s.attributes["mode"] == "NUMERIC"
