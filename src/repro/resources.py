"""The resource-exhaustion taxonomy and cheap memory sampling.

The paper's Table 2 is full of "unscalable within budget" rows; this
module names the ways a run can hit its budget so the rest of the
pipeline can react *differentially* instead of collapsing every failure
into one timeout flag:

* :class:`TimeBudgetExceeded` — a wall-clock budget expired;
* :class:`MemoryBudgetExceeded` — the peak-memory watermark crossed the
  configured ceiling;
* :class:`WorkBudgetExceeded` — a work guard tripped (worklist
  iterations or interned-object count).

All three derive from :class:`ResourceExhausted`, which carries the
*phase* the budget belonged to (``pre``/``fpg``/``merge``/``main``), the
budget, and the observed value — exactly the provenance the degradation
ladder (:mod:`repro.analysis.pipeline`) and the Table 2 harness need to
render honest rows.  The
:class:`~repro.analysis.governor.ResourceGovernor` raises all three
(the solver calls its check); callers catch one kind by its class or
the whole family with ``except ResourceExhausted``.

This module sits below both :mod:`repro.pta` and :mod:`repro.analysis`
on purpose: :mod:`repro.faults`, which the solver imports, subclasses
:class:`TimeBudgetExceeded`, and the governor raises these types.
"""

from __future__ import annotations

from typing import Optional

__all__ = [
    "ResourceExhausted",
    "TimeBudgetExceeded",
    "MemoryBudgetExceeded",
    "WorkBudgetExceeded",
    "memory_watermark_bytes",
]


class ResourceExhausted(Exception):
    """A run crossed one of its resource budgets.

    ``phase`` is attributed by whoever owns phase structure (the
    governor's phase scopes, or the pipeline's boundary handling) —
    raisers deep in the solver may leave it ``None``.
    """

    #: Which resource ran out; subclasses override.
    resource = "resource"

    def __init__(
        self,
        message: str = "",
        *,
        phase: Optional[str] = None,
        budget: Optional[float] = None,
        observed: Optional[float] = None,
        iterations: int = 0,
    ) -> None:
        if not message:
            message = (
                f"{self.resource} budget exceeded"
                f"{f' in phase {phase!r}' if phase else ''}"
                f"{f' (budget={budget}, observed={observed})' if budget is not None else ''}"
            )
        super().__init__(message)
        self.phase = phase
        self.budget = budget
        self.observed = observed
        self.iterations = iterations

    @property
    def cause(self) -> str:
        """Short machine-readable cause, e.g. ``"time"`` or ``"memory"``."""
        return self.resource


class TimeBudgetExceeded(ResourceExhausted):
    """A wall-clock budget expired mid-run."""

    resource = "time"


class MemoryBudgetExceeded(ResourceExhausted):
    """The peak-memory watermark crossed the configured ceiling."""

    resource = "memory"


class WorkBudgetExceeded(ResourceExhausted):
    """A work guard tripped (iterations or objects)."""

    resource = "work"


def memory_watermark_bytes() -> Optional[int]:
    """The process's peak-memory watermark in bytes, or ``None``.

    Prefers ``tracemalloc`` (when tracing is active it reports exactly
    the Python-heap high-water mark, which is what the solver's
    interning tables dominate); otherwise falls back to the kernel's
    ``ru_maxrss`` peak-RSS accounting.  Both are *watermarks* — they
    never decrease — which is the right shape for a budget check: once
    the ceiling is crossed the phase is over, there is no "recovering"
    within the same process snapshot.
    """
    import tracemalloc

    if tracemalloc.is_tracing():
        return tracemalloc.get_traced_memory()[1]
    try:
        import resource as _rusage

        peak = _rusage.getrusage(_rusage.RUSAGE_SELF).ru_maxrss
    except (ImportError, ValueError, OSError):  # pragma: no cover - non-POSIX
        return None
    # ru_maxrss is KiB on Linux, bytes on macOS.
    import sys

    return peak if sys.platform == "darwin" else peak * 1024
