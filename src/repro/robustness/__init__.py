"""Fault injection and graceful degradation for the Spaden reproduction.

Three pieces work together:

* the deep verifiers on every format (``matrix.verify(deep=True)`` in
  :mod:`repro.formats`), which turn silent corruption into structured
  :class:`~repro.errors.VerificationError` subclasses with coordinates,
* :mod:`repro.robustness.faults`, a seeded registry of named corruption
  models that break exactly the invariants the verifiers guard,
* :func:`repro.exec.execute_chain`, the dispatch entry point, which
  catches those failures and falls back along the registry-derived
  chain (``spaden -> spaden-no-tc -> cusparse-csr -> csr-scalar`` with
  the built-in kernels), logging each degradation instead of crashing;
  pass ``deep_verify=True`` to run the deep verifiers on every attempt.

See ``docs/robustness.md`` for the invariant-by-invariant mapping to the
paper's §4.2 format definition, and ``docs/architecture.md`` for the
execution layer the chain walker lives in.
"""

from repro.exec.result import DegradationEvent
from repro.robustness.faults import (
    FaultModel,
    FaultReport,
    available_faults,
    corrupt,
    faults_for_format,
    get_fault,
    inject_lane_fault,
)

__all__ = [
    "DegradationEvent",
    "FaultModel",
    "FaultReport",
    "available_faults",
    "corrupt",
    "faults_for_format",
    "get_fault",
    "inject_lane_fault",
]

