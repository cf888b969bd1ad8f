"""The seam is wired: every producer emits spans and metrics, and none
of it perturbs numeric results or simulator counters (the bitwise
identity contract)."""

import numpy as np
import pytest

from repro.engine import SpMVEngine
from repro.errors import KernelError
from repro.exec import ExecutionMode, execute, execute_chain
from repro.formats.csr import CSRMatrix
from repro.obs import get_registry, get_span_log, reset_observability


@pytest.fixture
def csr(small_coo) -> CSRMatrix:
    return CSRMatrix.from_coo(small_coo)


class TestExecutorInstrumentation:
    def test_execute_emits_stage_spans(self, csr, x_small):
        execute("spaden", csr, x_small, deep_verify=True)
        log = get_span_log()
        [root] = log.by_name("exec.execute")
        assert root.attributes == {"kernel": "spaden", "mode": "NUMERIC"}
        children = {s.name for s in log.children_of(root)}
        assert children == {"exec.prepare", "exec.verify", "exec.run", "exec.check"}
        [run] = log.by_name("exec.run")
        assert run.attributes["exec_stage"] == "run"
        assert run.attributes["batched"] is False
        [prep] = log.by_name("exec.prepare")
        assert prep.attributes["cached"] is False

    def test_cached_operand_marks_prepare_span(self, csr, x_small):
        from repro.kernels.base import get_kernel

        prepared = get_kernel("spaden").prepare(csr)
        reset_observability()
        execute("spaden", prepared, x_small)
        [prep] = get_span_log().by_name("exec.prepare")
        assert prep.attributes["cached"] is True

    def test_success_counted_ok(self, csr, x_small):
        execute("spaden", csr, x_small)
        counter = get_registry().get("exec_executions_total")
        assert counter.value(kernel="spaden", mode="NUMERIC", status="ok") == 1

    def test_failure_counted_under_its_stage(self, csr, x_small):
        def poison(kernel_name, prepared):
            raise KernelError("injected fault")

        with pytest.raises(KernelError):
            execute("spaden", csr, x_small, faults=(poison,))
        counter = get_registry().get("exec_executions_total")
        assert counter.value(kernel="spaden", mode="NUMERIC", status="error:prepare") == 1
        [root] = get_span_log().by_name("exec.execute")
        assert root.status == "error"
        assert "injected fault" in root.error

    def test_stage_seconds_histogram_populated(self, csr, x_small):
        execute("spaden", csr, x_small)
        hist = get_registry().get("exec_stage_seconds")
        assert hist.count(exec_stage="prepare", kernel="spaden") == 1
        assert hist.count(exec_stage="run", kernel="spaden") == 1


class TestChainInstrumentation:
    def test_clean_walk_annotates_chain_span(self, csr, x_small):
        execute_chain(csr, x_small)
        [chain_span] = get_span_log().by_name("exec.chain")
        assert chain_span.attributes["kernel"] == "spaden"
        assert chain_span.attributes["degradations"] == 0
        [attempt] = get_span_log().by_name("exec.attempt")
        assert attempt.attributes["outcome"] == "ok"

    def test_degradation_counted_by_stage_and_cause(self, csr, x_small):
        def poison_spaden(kernel_name, prepared):
            if kernel_name == "spaden":
                raise KernelError("injected fault")

        execute_chain(csr, x_small, faults=(poison_spaden,))
        counter = get_registry().get("exec_degradations_total")
        assert counter.value(kernel="spaden", exec_stage="prepare", cause="KernelError") == 1
        [chain_span] = get_span_log().by_name("exec.chain")
        assert chain_span.attributes["kernel"] == "spaden-no-tc"
        assert chain_span.attributes["degradations"] == 1

    def test_exhaustion_counted_and_flagged(self, csr, x_small):
        def poison_all(kernel_name, prepared):
            raise KernelError("injected fault")

        with pytest.raises(KernelError):
            execute_chain(csr, x_small, chain=("spaden",), faults=(poison_all,))
        assert get_registry().get("exec_chain_exhausted_total").value() == 1
        [chain_span] = get_span_log().by_name("exec.chain")
        assert chain_span.attributes["exhausted"] is True


class TestEngineAndDispatchInstrumentation:
    def test_engine_batch_spans_and_counters(self, csr, rng):
        X = rng.standard_normal((4, csr.ncols)).astype(np.float32)
        engine = SpMVEngine("spaden")
        engine.spmv_many([(csr, x) for x in X])
        [batch] = get_span_log().by_name("engine.batch")
        assert batch.attributes["kernel"] == "spaden"
        assert batch.attributes["k"] == 4
        assert batch.attributes["served_by"] == "spaden"
        registry = get_registry()
        assert registry.get("engine_requests_total").value(kernel="spaden") == 4
        assert registry.get("engine_batches_total").value(kernel="spaden") == 1
        assert registry.get("engine_batch_size").count(kernel="spaden") == 1
        assert registry.get("engine_batch_size").sum(kernel="spaden") == 4

    def test_engine_cache_metrics_labeled_by_name(self, csr, x_small):
        engine = SpMVEngine("spaden")
        engine.spmv(csr, x_small)
        engine.spmv(csr, x_small)
        events = get_registry().get("operand_cache_events_total")
        assert events.value(cache="engine:spaden", event="miss") == 1
        assert events.value(cache="engine:spaden", event="hit") == 1
        resident = get_registry().get("operand_cache_resident_bytes")
        assert resident.value(cache="engine:spaden") == engine.cache.resident_bytes > 0

    def test_dispatch_status_counter(self, csr, x_small):
        """A verified dispatch is counted by outcome in exec_executions_total."""
        execute_chain(csr, x_small, deep_verify=True)
        counter = get_registry().get("exec_executions_total")
        assert counter.value(kernel="spaden", mode="NUMERIC", status="ok") == 1
        assert "exec_degradations_total" not in get_registry()  # nothing abandoned


class TestBitwiseIdentity:
    """Enabling observability must not change a single bit of output."""

    def test_numeric_results_identical_with_and_without_state(self, csr, x_small):
        reset_observability()
        y_fresh = execute("spaden", csr, x_small).y
        # run again on a now-populated registry/span log
        y_warm = execute("spaden", csr, x_small).y
        assert np.array_equal(y_fresh, y_warm)
        assert len(get_span_log()) > 0  # observability was genuinely on

    def test_simulated_counters_identical_across_obs_state(self, csr, x_small):
        reset_observability()
        first = execute("spaden", csr, x_small, mode=ExecutionMode.SIMULATED)
        second = execute("spaden", csr, x_small, mode=ExecutionMode.SIMULATED)
        assert np.array_equal(first.y, second.y)
        assert first.stats.as_dict() == second.stats.as_dict()

    def test_engine_results_match_bare_execute(self, csr, rng):
        X = rng.standard_normal((3, csr.ncols)).astype(np.float32)
        engine = SpMVEngine("spaden")
        batched = engine.spmv_many([(csr, x) for x in X])
        singles = [execute("spaden", csr, x).y for x in X]
        for warm, cold in zip(batched, singles):
            assert np.array_equal(warm, cold)
