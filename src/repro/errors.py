"""Exception hierarchy for the Spaden reproduction."""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all library errors."""


class FormatError(ReproError):
    """A sparse-matrix format is structurally invalid (bad pointers,
    out-of-range indices, mismatched array lengths, ...)."""


class VerificationError(FormatError):
    """Deep verification of a stored matrix failed.

    Raised by :meth:`repro.formats.base.SparseMatrix.verify` when an
    invariant that holds at construction time has been violated afterwards
    (bit rot, an injected fault, a buggy in-place transformation).  The
    structured attributes let callers — notably the graceful-degradation
    chain walker, :func:`repro.exec.execute_chain` — log *where* a matrix
    broke without parsing the message:

    * ``format_name`` — registry name of the offending format,
    * ``check``       — short identifier of the violated invariant
      (e.g. ``"pointer-monotonicity"``, ``"bitmap-popcount"``),
    * ``coord``       — the block/row/element coordinate of the first
      violation, as a tuple (or ``None`` when the failure is global).
    """

    def __init__(
        self,
        message: str,
        *,
        format_name: str | None = None,
        check: str | None = None,
        coord: tuple | None = None,
    ):
        super().__init__(message)
        self.format_name = format_name
        self.check = check
        self.coord = coord


class PointerMonotonicityError(VerificationError):
    """A CSR-style pointer array decreases; ``coord`` holds the first
    (block) row whose pointer runs backwards."""


class IndexRangeError(VerificationError):
    """A stored column/row index escapes the matrix (or block grid);
    ``coord`` locates the offending entry."""


class BitmapPopcountError(VerificationError):
    """The popcount of the stored bitmaps disagrees with the number of
    packed values — the central bitBSR invariant (§4.2)."""


class OffsetScanError(VerificationError):
    """A block-offset array is not the exclusive scan of the per-block
    nonzero counts, or a pointer frame has the wrong size/endpoints."""


class EmptyBlockError(VerificationError):
    """A stored block's bitmap is all-zero; bitBSR forbids empty blocks."""


class NonFiniteValueError(VerificationError):
    """A stored value is NaN or infinite; ``coord`` is the (row, col) of
    the first non-finite entry."""


class NumericalError(ReproError):
    """A computation left the representable range of its precision.

    Raised when fp16 storage or the (simulated) tensor-core pipeline
    saturates or overflows — e.g. a finite float32 input rounds to
    ``inf`` in half precision, or an MMA accumulator register goes
    non-finite.  The graceful-degradation dispatcher treats this as a
    signal to retry on a wider-precision (CUDA-core) kernel rather than
    return a poisoned ``y``.
    """


class ConversionError(ReproError):
    """A format conversion is impossible or was given inconsistent input."""


class SimulationError(ReproError):
    """The GPU simulator was driven incorrectly (bad lane id, register
    index out of range, fragment shape mismatch, ...)."""


class LaneIndexError(SimulationError):
    """A warp shuffle was given a source lane / delta outside the warp.

    Structured attributes identify the request precisely (real hardware
    wraps silently; the simulator refuses instead):

    * ``lane``  — the requesting lane, or ``None`` for a warp-uniform
      argument such as ``shuffle_down``'s delta,
    * ``value`` — the offending source lane or delta,
    * ``warp_id`` — the warp that issued the shuffle.
    """

    def __init__(self, message, *, lane=None, value=None, warp_id=None):
        super().__init__(message)
        self.lane = lane
        self.value = value
        self.warp_id = warp_id


class MemoryAccessError(SimulationError):
    """A warp memory access escaped the bounds of a named device array.

    * ``array`` — the registered array name,
    * ``kind``  — ``"load"`` / ``"store"`` / ``"atomic"``,
    * ``lane``  — the first offending lane,
    * ``index`` — the element index that lane requested,
    * ``size``  — the array's element count.
    """

    def __init__(self, message, *, array=None, kind=None, lane=None, index=None, size=None):
        super().__init__(message)
        self.array = array
        self.kind = kind
        self.lane = lane
        self.index = index
        self.size = size


class SanitizerError(SimulationError):
    """Base class for violations the SIMT sanitizer detects.

    ``check`` names the violated rule (``"intra-warp-race"``,
    ``"cross-warp-race"``, ``"lane-ownership"``); ``coord`` is the
    rule-specific coordinate tuple of the first violation, mirroring the
    structured :class:`VerificationError`\\ s on the data side.
    """

    def __init__(self, message, *, check=None, coord=None):
        super().__init__(message)
        self.check = check
        self.coord = coord


class RaceError(SanitizerError):
    """Unsynchronized conflicting accesses to one global-memory address.

    * ``array`` — the device array name,
    * ``index`` — the conflicted element index,
    * ``lanes`` — the lanes involved,
    * ``warps`` — the warp ordinals involved (equal for an intra-warp
      same-instruction conflict).
    """

    def __init__(self, message, *, array=None, index=None, lanes=None, warps=None, **kw):
        super().__init__(message, **kw)
        self.array = array
        self.index = index
        self.lanes = list(lanes) if lanes is not None else []
        self.warps = list(warps) if warps is not None else []


class LayoutError(SimulationError):
    """A fragment register/element mapping was violated."""


class LaneOwnershipError(SanitizerError):
    """A lane touched a fragment element outside its §3 ownership set.

    * ``fragment_kind`` — ``"matrix_a"`` / ``"matrix_b"`` / ``"accumulator"``,
    * ``lane`` / ``register`` — the offending slot,
    * ``portion`` — the 8x8 portion the register addresses,
    * ``expected`` / ``actual`` — the (row, col) the §3 mapping assigns
      vs. the element the active layout table touched.
    """

    def __init__(
        self,
        message,
        *,
        fragment_kind=None,
        lane=None,
        register=None,
        portion=None,
        expected=None,
        actual=None,
        **kw,
    ):
        super().__init__(message, **kw)
        self.fragment_kind = fragment_kind
        self.lane = lane
        self.register = register
        self.portion = portion
        self.expected = expected
        self.actual = actual


class KernelError(ReproError):
    """A kernel was invoked with incompatible operands."""


class DatasetError(ReproError):
    """A matrix-generator or registry request cannot be satisfied."""


class ObservabilityError(ReproError):
    """A metrics/span/report request is malformed (bad name, label
    mismatch, kind conflict, or an unparseable exported document)."""


class ResilienceError(ReproError):
    """A resilience policy is misconfigured (non-positive deadline
    budget, empty retry schedule, breaker thresholds outside [0, 1],
    ...).  Raised at construction time, never during a request."""


class ServeError(ReproError):
    """The serving front-end was misconfigured or misused (a worker
    count or ``max_batch`` below 1, duplicate matrix registration,
    unknown matrix name, a request submitted after
    :meth:`~repro.serve.ServeFrontend.close`, ...)."""


class PlanError(ReproError):
    """An execution planner was misconfigured or asked the impossible
    (unknown GPU or kernel candidate, a capability filter that leaves
    no kernel standing, a malformed structure profile, ...)."""


class PersistError(ReproError):
    """The on-disk operand store was misconfigured (bad root path,
    non-positive size budget, invalid store name).

    Note the asymmetry with runtime trouble: configuration errors raise,
    but *operational* failures (corrupt entries, truncated files, a
    full disk during spill) never do — persistence is an optimization,
    so :mod:`repro.persist` degrades those to counted structured misses
    and the engine falls through to re-conversion."""


class AdmissionError(ServeError):
    """The serving front-end refused to admit a request.

    Admission control is the front door of :mod:`repro.serve`: a
    request that would blow a tenant's quota is rejected *before* it
    consumes queue space or engine time, with enough structure for the
    caller to react without parsing messages:

    * ``tenant``  — the tenant whose quota rejected the request,
    * ``reason``  — ``"queue-depth"`` (too many requests in flight) or
      ``"rate"`` (the tenant's token bucket is empty),
    * ``limit``   — the configured bound that was enforced,
    * ``current`` — the observed value at rejection time (queue depth
      for ``"queue-depth"``; ``None`` for ``"rate"``).

    Every rejection is counted in ``serve_admission_rejected_total``
    (labeled by tenant and reason) in :mod:`repro.obs`.
    """

    def __init__(
        self,
        message: str,
        *,
        tenant: str | None = None,
        reason: str | None = None,
        limit: float | None = None,
        current: float | None = None,
    ):
        super().__init__(message)
        self.tenant = tenant
        self.reason = reason
        self.limit = limit
        self.current = current


class DeadlineExceededError(ReproError):
    """A request ran out of its time budget at a stage boundary.

    The execution layer checks the request's :class:`~repro.resilience.Deadline`
    between stages (``prepare`` / ``verify`` / ``run`` / ``check``) and
    between chain attempts (``dispatch``); the *first* checkpoint past
    expiry raises.  Structured attributes locate the miss without
    parsing the message:

    * ``stage``   — the checkpoint that observed expiry,
    * ``elapsed`` — seconds since the deadline started,
    * ``budget``  — the budget the request was admitted with.

    Deadline misses are terminal: the degradation chain re-raises them
    instead of falling back (a slower kernel cannot beat a clock that
    has already run out), and the retry taxonomy classifies them fatal.
    """

    def __init__(
        self,
        message: str,
        *,
        stage: str | None = None,
        elapsed: float | None = None,
        budget: float | None = None,
    ):
        super().__init__(message)
        self.stage = stage
        self.elapsed = elapsed
        self.budget = budget
