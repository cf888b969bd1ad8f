"""Execution-side correctness tooling for the simulated GPU.

Three prongs, all reachable through ``python -m repro.cli analyze``:

* :mod:`repro.analysis.sanitizer` — the *dynamic* prong: a
  :class:`~repro.gpu.instrument.Tracer` that watches every warp memory
  instruction and fragment layout-table consultation while a kernel runs
  on the lane-accurate simulator, flagging intra-warp and cross-warp data
  races, §3 lane-ownership violations, and producing an achieved-vs-ideal
  coalescing report per device array.
* :mod:`repro.analysis.lint` — the *static kernel* prong: an AST pass
  over the kernel sources enforcing the warp-synchronous idioms the
  simulator's counters (and the paper's traffic model) rely on.
* :mod:`repro.analysis.concurrency` — the *static thread-safety* prong:
  an AST audit of the serving-layer packages enforcing the declared
  lock contracts (``# concurrency: guarded-by(...)``) and reporting
  unguarded shared state and lock-ordering cycles in the serving
  front-end and the layers it runs on.

Shared traversal/reporting plumbing lives in
:mod:`repro.analysis.astwalk`; the boundary gate
(``scripts/check_exec_boundaries.py``) builds on it too.

PR 1 gave the *data* side deep verifiers (``verify(deep=True)``); this
package is the *execution* side counterpart, so a refactor that breaks a
kernel's warp behavior fails loudly with lane coordinates instead of
silently skewing modeled runtimes.
"""

from repro.analysis.concurrency import (
    AUDITED_PACKAGES,
    CONCURRENCY_RULES,
    ConcurrencyFinding,
    audit_package,
    audit_paths,
    audit_source,
)
from repro.analysis.lint import (
    LintFinding,
    RULES,
    format_findings,
    lint_paths,
    lint_source,
)
from repro.analysis.sanitizer import (
    CoalescingEntry,
    KernelSanitizeResult,
    OwnershipRecord,
    RaceRecord,
    Sanitizer,
    SanitizerReport,
    sanitize_kernel,
    small_suite,
)

__all__ = [
    "AUDITED_PACKAGES",
    "CONCURRENCY_RULES",
    "CoalescingEntry",
    "ConcurrencyFinding",
    "KernelSanitizeResult",
    "LintFinding",
    "OwnershipRecord",
    "RULES",
    "RaceRecord",
    "Sanitizer",
    "SanitizerReport",
    "audit_package",
    "audit_paths",
    "audit_source",
    "format_findings",
    "lint_paths",
    "lint_source",
    "sanitize_kernel",
    "small_suite",
]
