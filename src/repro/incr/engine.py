"""The edit → re-analyze loop.

Every version of the program is solved cold; the session's
:class:`~repro.incr.ArtifactCache` (when given) serves the MAHJONG
pre-analysis of any program text it has seen before, so an undo back
to an earlier version skips the pre-analysis, FPG and merge.
"""

from __future__ import annotations

from repro.ir.program import Program

__all__ = ["IncrementalSession"]


def prepare_warm_start(*args, **kwargs):
    """Not called: perfbench/tracing.py (``instrument_incr``) wraps
    this name under ``--trace 1``."""
    raise NotImplementedError("edits re-solve cold; there is no warm start")


class IncrementalSession:
    """Convenience wrapper for edit → re-analyze loops.

    Keeps the latest program + run; each :meth:`update` analyzes the
    edited program through the session's artifact cache and rebases
    onto it.  ``run_kwargs`` are passed to every
    :func:`~repro.analysis.pipeline.run_analysis` call.
    """

    def __init__(self, program: Program, config: str = "ci",
                 artifact_cache=None, **run_kwargs) -> None:
        self.config = config
        self.artifact_cache = artifact_cache
        self.run_kwargs = dict(run_kwargs)
        self.program = program
        self.run = None

    def analyze(self):
        """Solve the current program and make it the base."""
        return self.update(self.program)

    def update(self, new_program: Program):
        """Solve ``new_program`` cold (pre-analysis from the artifact
        cache when it has the program), then rebase onto the result."""
        from repro.analysis.pipeline import run_analysis

        run = run_analysis(new_program, self.config,
                           artifact_cache=self.artifact_cache,
                           **self.run_kwargs)
        self.program = new_program
        self.run = run
        return run
