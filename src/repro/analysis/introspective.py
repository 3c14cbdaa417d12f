"""Introspective (selective) context sensitivity — a related scalability
technique, for comparison with MAHJONG.

Smaragdakis et al. (PLDI 2014) accelerate context-sensitive analysis by
*refining selectively*: a cheap pre-analysis estimates which methods
would explode under contexts, and those are analyzed context-
insensitively while everything else gets the full treatment.  The
MAHJONG paper positions itself against this family: introspective
analysis trades precision for scalability per *method*, MAHJONG per
*heap object* (and loses essentially nothing for type-dependent
clients).

:func:`run_introspective` reuses this repository's pre-analysis to build
the refinement predicate: a method is left context-insensitive when the
number of abstract receiver objects flowing to its ``this`` exceeds
``threshold`` (the pre-analysis points-to set of ``this`` is exactly
the count of contexts k-object-sensitivity would spawn for it at k=1).
"""

from __future__ import annotations

import time
from typing import Optional, Set

from repro.analysis.pipeline import AnalysisRun, PreAnalysisArtifacts, run_pre_analysis
from repro.analysis.config import AnalysisConfig
from repro.analysis.governor import ResourceGovernor
from repro.ir.program import Program
from repro.pta.context import IntrospectiveSensitive, selector_for
from repro.pta.heapmodel import AllocationSiteAbstraction
from repro.pta.solver import Solver
from repro.resources import TimeBudgetExceeded

__all__ = ["refinement_set", "run_introspective"]


def refinement_set(pre: PreAnalysisArtifacts, program: Program,
                   threshold: int = 8) -> Set[str]:
    """Qualified names of methods cheap enough to refine."""
    refined: Set[str] = set()
    for method in program.all_methods():
        if method.is_static:
            refined.add(method.qualified_name)
            continue
        receivers = pre.result.var_points_to_ids(
            method.qualified_name, "this"
        )
        if len(receivers) <= threshold:
            refined.add(method.qualified_name)
    return refined


def run_introspective(
    program: Program,
    base: str = "2obj",
    threshold: int = 8,
    timeout_seconds: Optional[float] = None,
    pre: Optional[PreAnalysisArtifacts] = None,
) -> AnalysisRun:
    """Run ``base`` with introspective refinement.

    Returns an :class:`~repro.analysis.pipeline.AnalysisRun` whose
    configuration name is ``I-<base>`` (heap: allocation-site — this is
    the *competing* technique, so it does not use MAHJONG's heap).
    """
    if pre is None:
        pre = run_pre_analysis(program)
    refined = refinement_set(pre, program, threshold)
    selector = IntrospectiveSensitive(
        selector_for(base), lambda qname: qname in refined
    )
    governor = (None if timeout_seconds is None
                else ResourceGovernor.from_limits(wall_seconds=timeout_seconds))
    solver = Solver(program, selector, AllocationSiteAbstraction(),
                    governor=governor)
    start = time.monotonic()
    try:
        result = solver.solve()
        timed_out = False
    except TimeBudgetExceeded:
        result = None
        timed_out = True
    return AnalysisRun(
        config=AnalysisConfig(name=f"I-{base}", heap="alloc-site",
                              sensitivity=base),
        result=result,
        main_seconds=time.monotonic() - start,
        timed_out=timed_out,
        pre=pre,
    )
