"""Incremental re-analysis: a content-addressed artifact cache.

An edited program is solved cold; what carries over between versions
is the MAHJONG pre-analysis (ci solve, FPG and merged-object map),
which is the expensive, reusable part of the pipeline:

* :mod:`repro.incr.cache` — on-disk content-addressed artifact cache
  for the FPG / merged-object-map phases, keyed by sha256 of the
  program text and the config.
* :mod:`repro.incr.engine` — :class:`IncrementalSession`, the
  edit → re-analyze loop over one cache.
* :mod:`repro.incr.edits` — deterministic single-method program edits
  used by the tests and the benchmark's edit loop.
"""

from __future__ import annotations

from repro.incr.cache import (
    ArtifactCache,
    FPGArtifact,
    MergeArtifact,
    program_fingerprint,
)
from repro.incr.edits import perturb_method, pick_editable_method
from repro.incr.engine import IncrementalSession

__all__ = [
    "ArtifactCache",
    "FPGArtifact",
    "MergeArtifact",
    "program_fingerprint",
    "perturb_method",
    "pick_editable_method",
    "IncrementalSession",
]
