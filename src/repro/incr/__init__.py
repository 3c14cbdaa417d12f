"""Incremental re-analysis: constraint-graph diffing + artifact cache.

The package splits the IDE-shaped workload (tiny program deltas,
repeated queries) into two independent reuse layers:

* :mod:`repro.incr.diff` — structural diff between two versions of a
  :class:`~repro.ir.program.Program` (edited/added/removed methods,
  structural changes that force a cold solve).
* :mod:`repro.incr.engine` — turns a finished base analysis plus a
  diff into a :class:`~repro.pta.solver.WarmStart`: the retained cone
  complement of the edit (facts provably unaffected by it), which the
  solver pre-seeds so re-propagation touches only the edit's cone of
  influence.
* :mod:`repro.incr.cache` — on-disk content-addressed artifact cache
  for the pre-analysis / FPG / merged-object-map phases, keyed by
  sha256 of the program text, the config, and every env knob
  (:mod:`repro.envknobs`).
* :mod:`repro.incr.edits` — deterministic single-method program edits
  used by the differential tests and ``repro.bench incr``.

The whole feature is off-switchable via ``REPRO_INCR`` (same contract
as ``REPRO_SCC``: explicit value → env → default
on); switched off, every update falls back to a cold solve and the
artifact cache is bypassed by its callers.
"""

from __future__ import annotations

import os
from typing import Optional

INCR_ENV_VAR = "REPRO_INCR"

_TRUTHY = frozenset({"on", "1", "true", "yes", "incr"})
_FALSY = frozenset({"off", "0", "false", "no", "noincr"})

_default_incr = True


def default_incr() -> bool:
    """Process-wide default used when neither an explicit value nor
    ``$REPRO_INCR`` decides."""
    return _default_incr


def set_default_incr(enabled: bool):
    """Set the process-wide default; returns the previous value so
    tests can restore it."""
    global _default_incr
    previous = _default_incr
    _default_incr = bool(enabled)
    return previous


def resolve_incr(value: Optional[object] = None) -> bool:
    """Resolve the incremental switch: explicit value → ``$REPRO_INCR``
    → default (on).  Unknown strings raise."""
    if value is not None:
        if isinstance(value, bool):
            return value
        text = str(value).strip().lower()
        if text in _TRUTHY:
            return True
        if text in _FALSY:
            return False
        raise ValueError(
            f"unknown incremental switch {value!r} "
            f"(known: {sorted(_TRUTHY | _FALSY)})"
        )
    env = os.environ.get(INCR_ENV_VAR, "").strip().lower()
    if env:
        if env in _TRUTHY:
            return True
        if env in _FALSY:
            return False
        raise ValueError(
            f"unknown ${INCR_ENV_VAR} value {env!r} "
            f"(known: {sorted(_TRUTHY | _FALSY)})"
        )
    return _default_incr


from repro.incr.cache import (  # noqa: E402
    ArtifactCache,
    FPGArtifact,
    MergeArtifact,
    PreSummaryArtifact,
    program_fingerprint,
)
from repro.incr.diff import ProgramDelta, diff_programs, method_fingerprint  # noqa: E402
from repro.incr.edits import perturb_method, pick_editable_method  # noqa: E402
from repro.incr.engine import (  # noqa: E402
    IncrementalBase,
    IncrementalSession,
    prepare_warm_start,
)

__all__ = [
    "INCR_ENV_VAR",
    "default_incr",
    "set_default_incr",
    "resolve_incr",
    "ArtifactCache",
    "PreSummaryArtifact",
    "FPGArtifact",
    "MergeArtifact",
    "program_fingerprint",
    "ProgramDelta",
    "diff_programs",
    "method_fingerprint",
    "perturb_method",
    "pick_editable_method",
    "IncrementalBase",
    "IncrementalSession",
    "prepare_warm_start",
]
