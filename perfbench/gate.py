"""Correctness gate: checks run after each timed cell, outside the timing.

Every problem is counted against the cell, never raised, so one bad
cell shows up in ``failed`` without stopping the run.
"""

from __future__ import annotations

import random
from typing import Dict, List

from repro.clients import check_casts
from repro.interp import ExecutionTrace, interpret
from repro.serve.protocol import result_digest

#: Interpreter step bound.  A truncated execution is still a valid
#: partial trace; the bound keeps the oracle well under a cell's cost.
ORACLE_MAX_STEPS = 50_000
#: Variable bindings checked per cell.  ``var_points_to_ids`` scans every
#: variable node per query, so checking all of them on a deep-context
#: result would cost minutes.
BINDING_SAMPLE = 32


class Gate:
    """Repeatability and soundness checks shared by every workload."""

    def __init__(self, seed: int) -> None:
        self._rng = random.Random(f"{seed}:gate")
        #: cell key -> result digest of its first run with a result
        self.digests: Dict[str, str] = {}
        #: digests of the first round's cells, in order
        self.first_round: List[str] = []
        self._traces: Dict[str, ExecutionTrace] = {}

    def check(self, cell, run, first_round: bool) -> List[str]:
        if run.timed_out or run.result is None:
            return [f"no result ({run.exhaustion_cause} in {run.failed_phase})"]
        digest = result_digest(run.result)
        problems = []
        if self.digests.setdefault(cell.key, digest) != digest:
            problems.append("result digest differs from an earlier repeat")
        if first_round:
            self.first_round.append(digest)
            problems += self.soundness(cell.program_key, run.result)
        problems += cell.check(run, digest)
        return problems

    def soundness(self, program_key: str, result) -> List[str]:
        """Every call edge, executed method, failed cast and (sampled)
        variable binding the concrete interpreter records must be
        covered by the analysis result."""
        trace = self._traces.get(program_key)
        if trace is None:
            trace = interpret(result.program, max_steps=ORACLE_MAX_STEPS)
            self._traces[program_key] = trace
        problems = []
        missing = trace.call_edges - result.call_graph_edges()
        if missing:
            problems.append(f"{len(missing)} concrete call edges not covered")
        missing = trace.executed_methods - result.reachable_methods()
        if missing:
            problems.append(f"{len(missing)} executed methods not reachable")
        missing = trace.failed_casts - check_casts(result).may_fail_sites
        if missing:
            problems.append(f"{len(missing)} failing casts not flagged")
        keys = sorted(trace.var_bindings)
        for method, var in self._rng.sample(keys, min(BINDING_SAMPLE, len(keys))):
            sites = set()
            for obj in result.var_points_to_ids(method, var):
                sites |= result.object_sites(obj)
            if not trace.var_bindings[(method, var)] <= sites:
                problems.append(f"binding of {method}:{var} not covered")
        return problems
