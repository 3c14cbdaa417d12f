"""Registry of every ``REPRO_*`` environment knob that affects results.

Historically each consumer of :func:`repro.serve.protocol.cache_key`
folded the env knobs it happened to know about into the cache key by
hand, so direct callers computed keys that collided across settings
the server did fold in.  This module is the single source of truth: add a
knob to :data:`ENV_KNOBS` when it can change an analysis *result*, or
to :data:`NON_RESULT_KNOBS` when it only changes *how* the result is
computed (parallelism, scheduling), and every cache key in the system
picks it up.

Deliberately dependency-free (stdlib only): :mod:`repro.serve.protocol`
and :mod:`repro.incr.cache` both import it, and it must never pull the
pipeline back in.
"""

from __future__ import annotations

import os
from typing import Tuple

__all__ = ["ENV_KNOBS", "NON_RESULT_KNOBS", "env_knobs"]

#: Environment variables that can change what an analysis *returns*.
#: Sorted; every entry is folded into cache keys by default.
ENV_KNOBS: Tuple[str, ...] = (
    "REPRO_FAULTS",
    "REPRO_FAULTS_SEED",
    "REPRO_SCC",
)

#: Knobs that change execution shape but never the result (safe to
#: exclude from cache keys).  Kept here so the regression test can
#: assert that every ``REPRO_*`` variable read anywhere in the source
#: tree is classified one way or the other.
NON_RESULT_KNOBS: Tuple[str, ...] = (
    "REPRO_JOBS",
)

def env_knobs() -> str:
    """Canonical string of every result-affecting env knob's current
    value, e.g. ``"REPRO_FAULTS=|...|REPRO_SCC=off"``.

    Unset and empty both render as ``""`` — the knobs themselves treat
    an empty value as unset, so the key must too.
    """
    return "|".join(
        f"{name}={os.environ.get(name, '')}" for name in ENV_KNOBS
    )
