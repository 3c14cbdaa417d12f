"""Shared transient-failure retry with deterministic jittered backoff.

Two production surfaces retry transient faults the same way: the batch
corpus runner (:mod:`repro.bench.batch`) and the analysis service
(:mod:`repro.serve`).  Both need the identical discipline:

* exponential backoff with multiplicative jitter —
  ``backoff_seconds * 2**retries * (0.5 + rng.random())`` — drawn from a
  caller-owned :class:`random.Random` so delays are a pure function of
  the seed (the batch runner derives one per program, the
  service one per request);
* an injectable ``sleeper`` so tests never wait real wall-clock;
* every *planned* delay recorded, including the one planned when the
  final retry is abandoned — which is deliberately **never slept**
  (giving up must not delay whoever is waiting behind the request).

:func:`call_with_retry` owns the loop; callers hand it a
:class:`RetryState` when they need the retry/delay provenance even on
the non-retryable failure path (the batch runner records both on its
failure records).
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Tuple, Type, TypeVar, Union

__all__ = [
    "RetryPolicy",
    "RetryState",
    "RetriesExhausted",
    "call_with_retry",
]

T = TypeVar("T")

ExceptionTypes = Union[Type[BaseException], Tuple[Type[BaseException], ...]]


@dataclass(frozen=True)
class RetryPolicy:
    """How many transient failures to absorb, and how long to back off.

    ``max_retries`` counts *retries*, not attempts: the call runs at
    most ``max_retries + 1`` times.  Jitter keeps concurrent retriers
    from synchronizing while staying fully deterministic under a seeded
    RNG — the formula is pinned by the batch runner's recorded
    ``backoff_delays`` regression tests.
    """

    max_retries: int = 2
    backoff_seconds: float = 0.05

    def delay(self, retries: int, rng: random.Random) -> float:
        """The planned backoff after the ``retries``-th transient
        failure (0-based): exponential with multiplicative jitter in
        ``[0.5, 1.5)``."""
        return self.backoff_seconds * (2 ** retries) * (0.5 + rng.random())


@dataclass
class RetryState:
    """Mutable provenance of one :func:`call_with_retry` invocation.

    ``retries`` is the number of retries actually granted so far;
    ``delays`` records every *planned* backoff in planning order
    (the final, never-slept give-up delay included).  Callers that pass
    their own state can read both even when the call fails with a
    non-retryable exception mid-loop.
    """

    retries: int = 0
    delays: List[float] = field(default_factory=list)


class RetriesExhausted(Exception):
    """The retryable failure persisted past ``max_retries``.

    Carries the final exception (also set as ``__cause__``) and the
    retry provenance; the last planned delay was recorded but never
    slept.
    """

    def __init__(self, last: BaseException, state: RetryState) -> None:
        super().__init__(
            f"transient fault persisted after {state.retries} retries: {last}"
        )
        self.last = last
        self.retries = state.retries
        self.delays = state.delays


def call_with_retry(
    fn: Callable[[], T],
    *,
    policy: RetryPolicy,
    rng: random.Random,
    retryable: ExceptionTypes,
    sleeper: Callable[[float], None] = time.sleep,
    on_backoff: Optional[Callable[[int, float], None]] = None,
    state: Optional[RetryState] = None,
) -> T:
    """Call ``fn`` until it succeeds or the retry budget is spent.

    Exceptions matching ``retryable`` trigger a planned backoff; all
    others propagate immediately (with ``state`` still reflecting the
    retries granted before them).  When the budget is spent the final
    failure is wrapped in :class:`RetriesExhausted` — its delay is
    planned (recorded) but not slept.  ``on_backoff(retry_number,
    delay)`` fires just before each *slept* backoff, after the retry
    counter advances (retry numbers start at 1).
    """
    if state is None:
        state = RetryState()
    while True:
        try:
            return fn()
        except retryable as exc:
            delay = policy.delay(state.retries, rng)
            state.delays.append(delay)
            if state.retries >= policy.max_retries:
                raise RetriesExhausted(exc, state) from exc
            state.retries += 1
            if on_backoff is not None:
                on_backoff(state.retries, delay)
            sleeper(delay)
