"""Per-phase resource governance for the analysis pipeline.

The pipeline runs four budgetable phases — ``pre`` (the ci
pre-analysis), ``fpg``, ``merge``, and ``main`` — and each can be given
an independent :class:`PhaseBudget` covering three resource axes:

* **wall-clock** (``wall_seconds``),
* **memory growth** (``memory_bytes``) — the process watermark from
  :func:`repro.resources.memory_watermark_bytes` (plus any injected
  ``memory-spike`` from :mod:`repro.faults`) *relative to a baseline
  sampled at construction and re-sampled by :meth:`begin_attempt`*.
  The watermark has peak-RSS semantics — it never decreases — so
  budgeting the absolute value would make one memory exhaustion
  poison every later degradation rung: the next, coarser attempt
  would re-read the same high-water and spuriously exhaust even
  though its own footprint fits.  Budgeting the per-attempt *delta*
  lets a rung be rescued after a memory trip;
* **work** (``max_iterations`` worklist pops, ``max_objects`` interned
  abstract objects).

A :class:`ResourceGovernor` owns the budgets and the current-phase
state.  The pipeline brackets each phase with :meth:`phase`; the solver
calls :meth:`check` on its 1024-pop check stride (the
governor's ``check_stride`` can lower that, e.g. to 1 in tests, so
budgets land deterministically even on tiny programs).  Exhaustion
raises the :mod:`repro.resources` taxonomy with the phase attributed,
which is what the degradation ladder keys its retry decisions on.

The governor is stateful, single-run, and **single-thread**: build one
per :func:`~repro.analysis.pipeline.run_analysis` call (the batch
runner builds one per program, the analysis service one per request —
both from a picklable :class:`GovernorSpec`); the pipeline calls
:meth:`begin_attempt` at every degradation-ladder rung.  The first
stateful call claims the governor for its thread and any later call
from another thread raises :class:`GovernorConcurrencyError` instead of
silently corrupting budgets.  An optional **whole-run deadline**
(``deadline_seconds``) is enforced on every check across all ladder
rungs — the mechanism the service uses to turn a client's request
deadline into degradation instead of a hang.  A budget trip carries
what it observed on the raised exception (``observed``); with a
:class:`~repro.obs.Tracer` attached it also emits a
``governor.exhausted`` instant into the active trace, whose ``phase:*``
spans carry the phase times.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Dict, Iterator, Mapping, Optional

from repro import faults

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for hints only
    from repro.obs import Tracer
from repro.resources import (
    MemoryBudgetExceeded,
    ResourceExhausted,
    TimeBudgetExceeded,
    WorkBudgetExceeded,
    memory_watermark_bytes,
)

__all__ = [
    "PHASES",
    "PhaseBudget",
    "GovernorSpec",
    "GovernorConcurrencyError",
    "ResourceGovernor",
    "ResourceExhausted",
    "TimeBudgetExceeded",
    "MemoryBudgetExceeded",
    "WorkBudgetExceeded",
]


class GovernorConcurrencyError(RuntimeError):
    """A governor's stateful surface was touched from two threads.

    Governors are **single-run, single-thread** objects: one per
    :func:`~repro.analysis.pipeline.run_analysis` attempt, owned by the
    thread that drives the attempt.  Phase state and the memory
    baseline are unsynchronized, so cross-thread reuse would silently
    corrupt budgets instead of enforcing them.  The
    governor claims its owner on the first stateful call
    (:meth:`~ResourceGovernor.phase`, :meth:`~ResourceGovernor.check`,
    :meth:`~ResourceGovernor.begin_attempt`) and raises this on any
    later call from a different thread — concurrent users (the analysis
    service, batch workers) must build one governor per request
    from a :class:`GovernorSpec` instead of sharing one.
    """

#: The pipeline's budgetable phases, in execution order.
PHASES = ("pre", "fpg", "merge", "main")


@dataclass(frozen=True)
class PhaseBudget:
    """Budgets for one phase; ``None`` = unbounded on that axis."""

    wall_seconds: Optional[float] = None
    memory_bytes: Optional[int] = None
    max_iterations: Optional[int] = None
    max_objects: Optional[int] = None

    @property
    def unbounded(self) -> bool:
        return (self.wall_seconds is None and self.memory_bytes is None
                and self.max_iterations is None and self.max_objects is None)


@dataclass(frozen=True)
class GovernorSpec:
    """A picklable recipe for building a :class:`ResourceGovernor`.

    Governors are stateful and single-run, so they cannot cross a
    process boundary; a spec can.  The batch runner
    (:mod:`repro.bench.batch` with ``--jobs``) ships one spec per
    worker and builds a fresh governor per attempt inside the worker.

    :meth:`slice` derives the per-worker budget from a machine-level
    one, hopperkv-style fair-share: *machine-shared* axes (the memory
    watermark — all workers grow the same machine's RSS) are divided
    by the number of concurrent workers, while *per-program* axes
    (wall-clock, iterations, objects) pass through unchanged — a
    program's own budget means the same thing at any parallelism.
    """

    wall_seconds: Optional[float] = None
    memory_mb: Optional[float] = None
    max_iterations: Optional[int] = None
    max_objects: Optional[int] = None
    check_stride: int = 1024
    #: whole-run deadline, relative to when the governor is *built* —
    #: the analysis service folds each request's remaining deadline in
    #: here so a slow solve exhausts (and rides the degradation ladder)
    #: instead of hanging past its client's patience.
    deadline_seconds: Optional[float] = None

    @property
    def bounded(self) -> bool:
        return (self.wall_seconds is not None or self.memory_mb is not None
                or self.max_iterations is not None
                or self.max_objects is not None
                or self.deadline_seconds is not None)

    def slice(self, workers: int) -> "GovernorSpec":
        """The fair-share spec for one of ``workers`` concurrent
        shards (identity at ``workers <= 1``, so ``--jobs 1`` budgets
        exactly like a serial run)."""
        if workers <= 1 or self.memory_mb is None:
            return self
        return replace(self, memory_mb=self.memory_mb / workers)

    def build(self) -> Optional["ResourceGovernor"]:
        """A fresh governor enforcing this spec, or ``None`` when every
        axis is unbounded (an unbounded run should pay no governor
        overhead at all)."""
        if not self.bounded:
            return None
        return ResourceGovernor.from_limits(
            wall_seconds=self.wall_seconds,
            memory_mb=self.memory_mb,
            max_iterations=self.max_iterations,
            max_objects=self.max_objects,
            check_stride=self.check_stride,
            deadline_seconds=self.deadline_seconds,
        )


class ResourceGovernor:
    """Owns per-phase budgets and raises the exhaustion taxonomy.

    ``budgets`` maps phase names (from :data:`PHASES`) to
    :class:`PhaseBudget`; ``default`` applies to phases without an
    explicit entry.  ``check_stride`` must be a power of two and lowers
    the solver's check cadence when below the solver's own stride.
    """

    def __init__(
        self,
        budgets: Optional[Mapping[str, PhaseBudget]] = None,
        default: Optional[PhaseBudget] = None,
        check_stride: int = 1024,
        tracer: Optional["Tracer"] = None,
        deadline_seconds: Optional[float] = None,
    ) -> None:
        self.budgets: Dict[str, PhaseBudget] = dict(budgets or {})
        for name in self.budgets:
            if name not in PHASES:
                raise ValueError(
                    f"unknown phase {name!r}; known: {', '.join(PHASES)}"
                )
        self.default = default
        if check_stride <= 0 or check_stride & (check_stride - 1):
            raise ValueError(
                f"check_stride must be a power of two, got {check_stride}"
            )
        self.check_stride = check_stride
        self.tracer = tracer
        self._phase: Optional[str] = None
        self._phase_start: float = 0.0
        # Whole-run deadline: absolute from construction time, checked
        # on every stride and phase boundary across *all* ladder rungs
        # (begin_attempt re-baselines memory, never the deadline — a
        # request's patience does not renew per rung).
        self.deadline_seconds = deadline_seconds
        self._start = time.monotonic()
        self._deadline: Optional[float] = (
            None if deadline_seconds is None
            else self._start + deadline_seconds)
        # One-governor-per-attempt invariant: the first stateful call
        # claims the governor for its thread (see
        # GovernorConcurrencyError).
        self._owner_ident: Optional[int] = None
        # Memory budgets are deltas against this baseline (re-sampled by
        # begin_attempt); sample eagerly so a standalone governor with no
        # ladder around it still budgets growth, not absolute RSS.
        self._memory_baseline: int = 0
        if self._memory_budgeted():
            self._memory_baseline = self._sample_watermark() or 0

    @classmethod
    def from_limits(
        cls,
        wall_seconds: Optional[float] = None,
        memory_mb: Optional[float] = None,
        max_iterations: Optional[int] = None,
        max_objects: Optional[int] = None,
        check_stride: int = 1024,
        deadline_seconds: Optional[float] = None,
    ) -> "ResourceGovernor":
        """Convenience constructor: one budget applied to every phase
        (how the CLI's ``--budget`` / ``--max-iterations`` /
        ``--memory-mb`` flags and ``run_analysis(timeout_seconds=)`` are
        spelled), plus an optional whole-run deadline."""
        budget = PhaseBudget(
            wall_seconds=wall_seconds,
            memory_bytes=None if memory_mb is None else int(memory_mb * 1024 * 1024),
            max_iterations=max_iterations,
            max_objects=max_objects,
        )
        return cls(default=budget, check_stride=check_stride,
                   deadline_seconds=deadline_seconds)

    # -- memory baseline ------------------------------------------------
    def _memory_budgeted(self) -> bool:
        if self.default is not None and self.default.memory_bytes is not None:
            return True
        return any(b.memory_bytes is not None for b in self.budgets.values())

    def _sample_watermark(self) -> Optional[int]:
        """The process watermark plus any already-injected spike bytes
        (``spiked_bytes`` reads without arming new activations — a
        baseline sample must not consume the fault it will later
        observe)."""
        observed = memory_watermark_bytes()
        if observed is None:
            return None
        plan = faults.current_plan()
        if plan is not None:
            observed += plan.spiked_bytes
        return observed

    def begin_attempt(self) -> None:
        """Re-baseline the memory budget for a new degradation-ladder
        rung.  The watermark never decreases, so without this a rung
        that exhausted memory would leave every later, coarser rung
        reading the same high-water and spuriously exhausting too."""
        self._claim()
        if self._memory_budgeted():
            self._memory_baseline = self._sample_watermark() or 0

    # -- single-thread ownership ----------------------------------------
    def _claim(self) -> None:
        """Claim (or verify) this governor for the calling thread."""
        ident = threading.get_ident()
        if self._owner_ident is None:
            self._owner_ident = ident
        elif self._owner_ident != ident:
            raise GovernorConcurrencyError(
                f"governor already in use by thread {self._owner_ident}; "
                f"thread {ident} must build its own (one governor per "
                f"attempt — use GovernorSpec.build() per request)"
            )

    # -- phase structure ------------------------------------------------
    @property
    def current_phase(self) -> Optional[str]:
        return self._phase

    def _budget_for(self, phase: str) -> Optional[PhaseBudget]:
        return self.budgets.get(phase, self.default)

    @contextmanager
    def phase(self, name: str) -> Iterator[None]:
        """Bracket one phase: starts its clock, attributes any
        :class:`ResourceExhausted` escaping the block, and runs one final
        :meth:`check` at the boundary (so phases without internal check
        sites — FPG build, merge — still honor wall-clock budgets,
        detected at exit)."""
        if name not in PHASES:
            raise ValueError(f"unknown phase {name!r}; known: {', '.join(PHASES)}")
        self._claim()
        previous, previous_start = self._phase, self._phase_start
        self._phase = name
        self._phase_start = time.monotonic()
        try:
            yield
            self.check()
        except ResourceExhausted as exc:
            if exc.phase is None:
                exc.phase = name
            raise
        finally:
            self._phase, self._phase_start = previous, previous_start

    @contextmanager
    def ensure_phase(self, name: str) -> Iterator[None]:
        """Like :meth:`phase`, but a no-op when a phase is already
        active — lets a standalone :class:`~repro.pta.solver.Solver`
        self-bracket without fighting the pipeline's scopes."""
        if self._phase is not None:
            yield
            return
        with self.phase(name):
            yield

    # -- the hot-path check ---------------------------------------------
    def _exhaust(self, exc: ResourceExhausted) -> None:
        """Emit the ``governor.exhausted`` instant (when traced) and
        raise — the single funnel for every budget trip."""
        if self.tracer is not None:
            self.tracer.instant(
                "governor.exhausted",
                phase=exc.phase,
                resource=type(exc).__name__,
                budget=exc.budget,
                observed=exc.observed,
            )
        raise exc

    def check(self, iterations: int = 0, objects: int = 0) -> None:
        """Raise if the current phase's budget is exhausted.

        Called by the solver on its check stride and by :meth:`phase` at
        boundaries.  Memory is sampled only when a memory budget is set
        (the watermark read is a syscall); the sample includes any armed
        ``memory-spike`` fault.  The whole-run deadline (when set) is
        enforced here too, *before* the per-phase budget lookup, so a
        request deadline trips even in phases with no budget of their
        own.
        """
        self._claim()
        phase = self._phase or "main"
        if self._deadline is not None:
            now = time.monotonic()
            if now > self._deadline:
                self._exhaust(TimeBudgetExceeded(
                    f"run deadline of {self.deadline_seconds:.3f}s exceeded "
                    f"in phase {phase!r} "
                    f"(elapsed {now - self._start:.3f}s)",
                    phase=phase, budget=self.deadline_seconds,
                    observed=now - self._start, iterations=iterations,
                ))
        budget = self._budget_for(phase)
        if budget is None or budget.unbounded:
            return
        if budget.wall_seconds is not None:
            elapsed = time.monotonic() - self._phase_start
            if elapsed > budget.wall_seconds:
                self._exhaust(TimeBudgetExceeded(
                    f"phase {phase!r} exceeded {budget.wall_seconds:.3f}s "
                    f"(elapsed {elapsed:.3f}s)",
                    phase=phase, budget=budget.wall_seconds,
                    observed=elapsed, iterations=iterations,
                ))
        if budget.max_iterations is not None and iterations > budget.max_iterations:
            self._exhaust(WorkBudgetExceeded(
                f"phase {phase!r} exceeded {budget.max_iterations} "
                f"worklist iterations",
                phase=phase, budget=budget.max_iterations,
                observed=iterations, iterations=iterations,
            ))
        if budget.max_objects is not None and objects > budget.max_objects:
            self._exhaust(WorkBudgetExceeded(
                f"phase {phase!r} exceeded {budget.max_objects} "
                f"abstract objects ({objects} interned)",
                phase=phase, budget=budget.max_objects,
                observed=objects, iterations=iterations,
            ))
        if budget.memory_bytes is not None:
            observed = memory_watermark_bytes()
            if observed is not None:
                plan = faults.current_plan()
                if plan is not None:
                    observed += plan.spike_bytes()
                delta = max(0, observed - self._memory_baseline)
                if delta > budget.memory_bytes:
                    self._exhaust(MemoryBudgetExceeded(
                        f"phase {phase!r} grew {delta} bytes over its "
                        f"{budget.memory_bytes}-byte budget "
                        f"(watermark {observed}, attempt baseline "
                        f"{self._memory_baseline})",
                        phase=phase, budget=budget.memory_bytes,
                        observed=delta, iterations=iterations,
                    ))
