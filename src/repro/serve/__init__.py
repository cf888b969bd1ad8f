"""``repro.serve`` — the concurrent multi-tenant SpMV serving front-end.

The engine (:mod:`repro.engine`) amortizes work across *batches*; this
package supplies the layer that turns concurrent multi-tenant traffic
into those batches.  A :class:`ServeFrontend` accepts requests against
registered matrices from many threads, applies admission control and
per-tenant quotas (:class:`TenantQuota`, rejecting with a structured
:class:`~repro.errors.AdmissionError`), hands each free worker the
group holding the oldest pending request, lets same-matrix requests
keep coalescing while every worker is busy, and executes the
micro-batches on a worker pool through
:meth:`~repro.engine.SpMVEngine.spmv_many` — every request
resolving a :class:`ServeTicket` with its result vector or its
structured error, never silently dropped.

Built entirely on the PR-6/PR-7 hardened seams: per-request
:class:`~repro.resilience.Deadline`\\ s order batch assembly and gate
dispatch, the engine's ``return_errors`` contract delivers per-request
failures, everything shared is lock-guarded under the
:mod:`repro.analysis.concurrency` audit, and the whole layer reports
through :mod:`repro.obs` (``serve_*`` metrics).  The end-to-end
benchmark's ``serve-hot`` and ``serve-churn`` workloads
(``benchmarks/e2e``) measure it under load.  See ``docs/serving.md``.
"""

from repro.serve.frontend import ServeFrontend, ServeTicket
from repro.serve.quota import TenantQuota, TokenBucket

__all__ = [
    "ServeFrontend",
    "ServeTicket",
    "TenantQuota",
    "TokenBucket",
]
