"""Deterministic, seed-driven fault injection.

Every degradation path in the pipeline must be *exercisable*: tests (and
the CI fault-injection job) need to trigger budget exhaustion, crashes,
transient faults, and corrupted artifacts on demand, deterministically,
without relying on wall-clock races or machine-sized workloads.  This
module owns the injection points and the plan that activates them.

Injection points
----------------

===================  ====================================================
``pre-boundary``     raised entering the pre-analysis (ci) phase
``fpg-boundary``     raised entering FPG construction
``merge-boundary``   raised entering the MAHJONG merge phase
``main-boundary``    raised entering the main analysis
``solve-iteration``  the solver raises at worklist iteration ``at=N``
``memory-spike``     inflates the governor's sampled memory watermark
``fpg-corrupt``      corrupts one FPG edge (dangling object reference)
===================  ====================================================

Boundary points carry a ``kind``:

* ``exhaust`` (default) — raise :class:`InjectedExhaustion`, a
  :class:`~repro.resources.TimeBudgetExceeded`, so the degradation
  ladder treats it exactly like a real budget expiry;
* ``transient`` — raise :class:`TransientFault`, which the pipeline
  deliberately does *not* catch: the batch runner retries it with
  jittered backoff;
* ``crash`` — raise :class:`InjectedCrash`, also uncaught by the
  pipeline: the batch runner records a structured failure and moves on.

Activation
----------

A :class:`FaultPlan` reaches the pipeline one way: scoped to the calling
thread with ``with active(plan):``, just as :func:`repro.obs.active`
scopes a tracer.  The ``--faults``/``--faults-seed`` flags of ``analyze``
and ``batch`` and the service's ``faults``/``faults_seed`` request fields
all parse a plan and enter that scope.  Spec strings are comma-separated
points with colon-separated ``key=value`` fields::

    main-boundary:kind=exhaust,solve-iteration:at=2048

Each spec fires on its first ``times`` activations (default 1) and then
goes quiet — that is what makes a *transient* fault transient and lets
the ladder's next rung succeed.  ``memory-spike`` is the exception in
one respect: once fired, its contribution is *sticky* (the plan keeps
reporting the peak spike from :meth:`FaultPlan.spike_bytes` /
:attr:`FaultPlan.spiked_bytes`), mirroring the peak-RSS semantics of
the real watermark it inflates — memory you allocated does not vanish
from ``ru_maxrss`` when the allocation dies.  With ``probability``
below 1 the
decision comes from a per-point ``random.Random`` seeded from
``(seed, point)`` (via CRC32, so it is stable across processes and
independent of activation order at other points), keeping every run
with a fixed seed exactly reproducible.
"""

from __future__ import annotations

import random
import threading
import zlib
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from repro.resources import TimeBudgetExceeded

__all__ = [
    "INJECTION_POINTS",
    "InjectedFault",
    "InjectedCrash",
    "TransientFault",
    "InjectedExhaustion",
    "FaultSpec",
    "FaultPlan",
    "derive_seed",
    "active",
    "current_plan",
    "fire",
    "corrupt_fpg",
]

INJECTION_POINTS = (
    "pre-boundary",
    "fpg-boundary",
    "merge-boundary",
    "main-boundary",
    "solve-iteration",
    "memory-spike",
    "fpg-corrupt",
)

_BOUNDARY_KINDS = ("exhaust", "transient", "crash")


def derive_seed(seed: int, name: str) -> int:
    """A per-shard seed derived from a batch-level seed and a shard
    name (usually the program name).

    CRC32-based like the per-point RNGs, so it is stable across
    processes and independent of how shards are ordered or interleaved
    — the property the batch runner needs for ``--jobs 1`` and
    ``--jobs N`` to observe identical fault firings and backoff jitter
    per program.
    """
    return zlib.crc32(name.encode("utf-8")) ^ (seed & 0xFFFFFFFF)


class InjectedFault(Exception):
    """Base class of every deliberately injected failure."""

    def __init__(self, message: str, *, point: str, phase: Optional[str] = None) -> None:
        super().__init__(message)
        self.point = point
        self.phase = phase


class InjectedCrash(InjectedFault):
    """A simulated bug: the pipeline must *not* absorb it.  The batch
    runner isolates it into a structured failure record."""


class TransientFault(InjectedFault):
    """A simulated transient fault (flaky I/O, lost worker): retryable
    by the batch runner's jittered backoff, never by the ladder."""


class InjectedExhaustion(TimeBudgetExceeded):
    """A simulated budget expiry — indistinguishable from a real one to
    the degradation ladder, which is the point."""

    def __init__(self, point: str, phase: Optional[str] = None,
                 iterations: int = 0) -> None:
        super().__init__(
            f"injected exhaustion at {point!r}",
            phase=phase, budget=0.0, observed=None, iterations=iterations,
        )
        self.point = point


@dataclass
class FaultSpec:
    """One armed injection point."""

    point: str
    #: fire on the first ``times`` activations, then go quiet (-1 = always).
    times: int = 1
    #: boundary points: what to raise.
    kind: str = "exhaust"
    #: ``solve-iteration``: raise once the iteration counter reaches this.
    at: int = 0
    #: ``solve-iteration``: restrict to one phase's solve (``pre``/``main``).
    phase: Optional[str] = None
    #: ``memory-spike``: bytes added to the sampled watermark.
    bytes: int = 1 << 40
    #: seeded per-point coin; 1.0 = always fire while activations remain.
    probability: float = 1.0

    def __post_init__(self) -> None:
        if self.point not in INJECTION_POINTS:
            raise ValueError(
                f"unknown injection point {self.point!r}; "
                f"known: {', '.join(INJECTION_POINTS)}"
            )
        if self.kind not in _BOUNDARY_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; known: "
                f"{', '.join(_BOUNDARY_KINDS)}"
            )


_INT_FIELDS = ("times", "at", "bytes")
_FLOAT_FIELDS = ("probability",)


def _parse_spec(text: str) -> FaultSpec:
    head, *fields = [part.strip() for part in text.split(":")]
    kwargs: Dict[str, object] = {}
    for item in fields:
        if not item:
            continue
        key, sep, value = item.partition("=")
        if not sep:
            raise ValueError(f"malformed fault field {item!r} in {text!r}")
        key = key.strip()
        value = value.strip()
        if key in _INT_FIELDS:
            kwargs[key] = int(value)
        elif key in _FLOAT_FIELDS:
            kwargs[key] = float(value)
        elif key in ("kind", "phase"):
            kwargs[key] = value
        else:
            raise ValueError(f"unknown fault field {key!r} in {text!r}")
    return FaultSpec(point=head, **kwargs)  # type: ignore[arg-type]


class FaultPlan:
    """A set of armed :class:`FaultSpec` plus deterministic firing state.

    While a plan is active the solver checks it on every pop, so
    iteration faults land exactly even on programs whose whole solve
    fits inside the default 1024-pop window.
    """

    def __init__(self, specs: Iterable[FaultSpec], seed: int = 0) -> None:
        self.specs: Dict[str, FaultSpec] = {}
        for spec in specs:
            if spec.point in self.specs:
                raise ValueError(f"duplicate fault spec for {spec.point!r}")
            self.specs[spec.point] = spec
        self.seed = seed
        self._activations: Dict[str, int] = {}
        self._rngs: Dict[str, random.Random] = {}
        #: sticky peak of fired memory-spike bytes (watermark semantics).
        self._spiked: int = 0
        #: chronological record of every firing: ``(point, detail)``.
        self.log: List[Tuple[str, str]] = []

    # -- construction ---------------------------------------------------
    @classmethod
    def parse(cls, text: str, seed: int = 0) -> "FaultPlan":
        """Parse a spec string like
        ``"main-boundary:kind=crash,solve-iteration:at=64:times=2"``."""
        specs = [_parse_spec(part) for part in text.split(",") if part.strip()]
        return cls(specs, seed=seed)

    @classmethod
    def derive(cls, text: str, seed: int, name: str) -> "FaultPlan":
        """Parse a spec string with its seed derived per shard name
        (:func:`derive_seed`) — one independent plan per program, with
        identical firing decisions no matter which worker runs it."""
        return cls.parse(text, seed=derive_seed(seed, name))

    # -- firing decisions -----------------------------------------------
    def _rng(self, point: str) -> random.Random:
        rng = self._rngs.get(point)
        if rng is None:
            rng = random.Random(zlib.crc32(point.encode("utf-8")) ^ self.seed)
            self._rngs[point] = rng
        return rng

    def _consume(self, spec: FaultSpec) -> bool:
        """One activation attempt at ``spec``'s point: True = fire."""
        used = self._activations.get(spec.point, 0)
        if spec.times >= 0 and used >= spec.times:
            return False
        self._activations[spec.point] = used + 1
        if spec.probability < 1.0 and self._rng(spec.point).random() >= spec.probability:
            return False
        return True

    def remaining(self, point: str) -> int:
        """Activations left at ``point`` (-1 = unlimited, 0 = quiet)."""
        spec = self.specs.get(point)
        if spec is None:
            return 0
        if spec.times < 0:
            return -1
        return max(0, spec.times - self._activations.get(point, 0))

    # -- injection-point entry points -----------------------------------
    @staticmethod
    def _trace_firing(point: str, **attrs) -> None:
        """Emit a ``fault`` instant into the active trace, if any.  The
        import is lazy: fault hooks are module-level and must stay
        importable before :mod:`repro.obs` is."""
        from repro import obs

        tracer = obs.current_tracer()
        if tracer is not None:
            tracer.instant("fault", point=point, **attrs)

    def fire(self, point: str, phase: Optional[str] = None) -> None:
        """Boundary points: raise per the armed spec, if any."""
        spec = self.specs.get(point)
        if spec is None or not self._consume(spec):
            return
        self.log.append((point, spec.kind))
        self._trace_firing(point, kind=spec.kind, phase=phase)
        if spec.kind == "crash":
            raise InjectedCrash(
                f"injected crash at {point!r}", point=point, phase=phase
            )
        if spec.kind == "transient":
            raise TransientFault(
                f"injected transient fault at {point!r}", point=point, phase=phase
            )
        raise InjectedExhaustion(point, phase=phase)

    def check_iteration(self, iterations: int, phase: str = "main") -> None:
        """``solve-iteration``: called by the solver on its check stride."""
        spec = self.specs.get("solve-iteration")
        if spec is None or iterations < spec.at:
            return
        if spec.phase is not None and spec.phase != phase:
            return
        if not self._consume(spec):
            return
        self.log.append(("solve-iteration", f"iterations={iterations}"))
        self._trace_firing("solve-iteration", phase=phase,
                           iterations=iterations)
        raise InjectedExhaustion(
            "solve-iteration", phase=phase, iterations=iterations
        )

    def spike_bytes(self) -> int:
        """``memory-spike``: extra bytes for the governor's next memory
        sample.  Each sample consumes one activation; fired bytes are
        *sticky* (watermark semantics — the return value is the peak
        spike so far, and stays inflated after the spec goes quiet).
        Use :attr:`spiked_bytes` to read without consuming."""
        spec = self.specs.get("memory-spike")
        if spec is not None and self._consume(spec):
            if spec.bytes > self._spiked:
                self._spiked = spec.bytes
                self.log.append(("memory-spike", f"bytes={spec.bytes}"))
                self._trace_firing("memory-spike", bytes=spec.bytes)
        return self._spiked

    @property
    def spiked_bytes(self) -> int:
        """The sticky spike watermark, read without consuming an
        activation — what the governor's per-attempt memory baseline
        samples."""
        return self._spiked

    def corrupt_fpg(self, fpg) -> bool:
        """``fpg-corrupt``: add a dangling edge to ``fpg`` (an edge whose
        target was never registered), chosen deterministically from the
        plan's seed.  Returns True when a corruption was applied."""
        spec = self.specs.get("fpg-corrupt")
        if spec is None or not self._consume(spec):
            return False
        nodes = sorted(fpg._type_of)
        bogus = max(nodes) + 1000
        rng = self._rng("fpg-corrupt")
        source = nodes[rng.randrange(len(nodes))]
        fields = sorted(fpg._succ.get(source, ()))
        field_name = fields[rng.randrange(len(fields))] if fields else "__corrupt__"
        fpg._succ.setdefault(source, {}).setdefault(field_name, set()).add(bogus)
        self.log.append(("fpg-corrupt", f"{source}.{field_name} -> {bogus}"))
        self._trace_firing("fpg-corrupt", source=source, field=field_name)
        return True


# ----------------------------------------------------------------------
# Thread-scoped activation
# ----------------------------------------------------------------------
_thread_plans = threading.local()


@contextmanager
def active(plan: Optional[FaultPlan]) -> Iterator[Optional[FaultPlan]]:
    """Scope a plan to the *calling thread* for a ``with`` block.

    The analysis service runs one request per thread; a request's plan
    must fire only inside that request's own pipeline — never in a
    concurrent tenant's — so it is pushed onto a thread-local stack.
    The injection points all fire on the thread that drives the
    pipeline (phase boundaries, solver strides, governor samples),
    which is what makes thread scoping sufficient.  Scopes nest; the
    innermost wins.  ``plan=None`` is a no-op scope, so call sites can
    use it unconditionally.
    """
    if plan is None:
        yield None
        return
    stack = getattr(_thread_plans, "stack", None)
    if stack is None:
        stack = _thread_plans.stack = []
    stack.append(plan)
    try:
        yield plan
    finally:
        stack.pop()


def current_plan() -> Optional[FaultPlan]:
    """The calling thread's innermost :func:`active` plan, or ``None``."""
    stack = getattr(_thread_plans, "stack", None)
    return stack[-1] if stack else None


def fire(point: str, phase: Optional[str] = None) -> None:
    """Module-level boundary hook: no-op unless a plan is active."""
    plan = current_plan()
    if plan is not None:
        plan.fire(point, phase=phase)


def corrupt_fpg(fpg) -> bool:
    """Module-level ``fpg-corrupt`` hook: no-op unless a plan is active."""
    plan = current_plan()
    if plan is not None:
        return plan.corrupt_fpg(fpg)
    return False
