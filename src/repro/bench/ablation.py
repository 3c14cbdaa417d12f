"""Ablation harness for the design choices DESIGN.md calls out.

Three ablations, all on the merging engine:

1. **shared automata** — the Section 5 shared-DFA optimization vs
   rebuilding explicit per-object NFAs/DFAs for every pair;
2. **disjoint-set heuristics** — union-by-rank + path compression vs
   the naive forest, on the merge workload;
3. **representative policy** — min-site vs max-site representatives and
   their effect on M-ktype precision (Example 3.2).

Run with ``python -m repro.bench ablation``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.analysis.pipeline import run_analysis
from repro.bench.reporting import format_seconds, render_table
from repro.bench.runners import ProgramUnderBench
from repro.core.automata import build_nfa, nfa_to_dfa
from repro.core.disjoint_sets import DisjointSets, NaiveDisjointSets
from repro.core.equivalence import dfa_equivalent
from repro.core.fpg import FieldPointsToGraph
from repro.core.merging import MergeOptions, merge_type_consistent_objects

__all__ = ["AblationResult", "run_ablation", "main", "merge_without_sharing"]


def merge_without_sharing(fpg: FieldPointsToGraph) -> Dict[int, int]:
    """Algorithm 1 with *explicit* automata rebuilt per pair — the
    baseline the shared-automata optimization is measured against.
    Returns a MOM equal to the optimized engine's."""
    by_type: Dict[str, List[int]] = {}
    for obj in fpg.objects():
        by_type.setdefault(fpg.type_of(obj), []).append(obj)
    sets: DisjointSets = DisjointSets(fpg.objects())
    for objs in by_type.values():
        objs.sort()
        representatives: List[int] = []
        for obj in objs:
            dfa = nfa_to_dfa(build_nfa(fpg, obj))
            if any(len(types) != 1 for types in dfa.gamma.values()):
                representatives.append(obj)  # keeps it unmergeable
                continue
            merged = False
            for rep in representatives:
                rep_dfa = nfa_to_dfa(build_nfa(fpg, rep))
                if any(len(t) != 1 for t in rep_dfa.gamma.values()):
                    continue
                if dfa_equivalent(rep_dfa, dfa):
                    sets.union(rep, obj)
                    merged = True
                    break
            if not merged:
                representatives.append(obj)
    return {obj: sets.find(obj) for obj in fpg.objects()}


@dataclass
class AblationResult:
    rows: List[tuple] = field(default_factory=list)

    def render(self) -> str:
        return render_table(
            ("ablation", "variant", "time", "notes"), self.rows,
            title="Ablations on the merging engine",
        )


def run_ablation(profile: str = "checkstyle", scale: float = 1.0) -> AblationResult:
    under = ProgramUnderBench.load(profile, scale)
    fpg = under.pre.fpg
    result = AblationResult()

    # 1: automata sharing
    for label, runner in (
        ("representatives+shared",
         lambda: merge_type_consistent_objects(fpg)),
        ("representatives+explicit", lambda: merge_without_sharing(fpg)),
    ):
        start = time.monotonic()
        outcome = runner()
        seconds = time.monotonic() - start
        notes = ""
        if hasattr(outcome, "equivalence_tests"):
            notes = f"{outcome.equivalence_tests} equivalence tests"
        result.rows.append(("merging", label, format_seconds(seconds), notes))

    # 2: disjoint sets on the merge's union workload
    base = merge_type_consistent_objects(fpg)
    union_pairs = [
        (min(cls), obj)
        for cls in base.classes
        for obj in cls
        if obj != min(cls)
    ]
    for label, cls in (("rank+compression", DisjointSets),
                       ("naive", NaiveDisjointSets)):
        start = time.monotonic()
        for _ in range(50):
            sets = cls(fpg.objects())
            for a, b in union_pairs:
                sets.union(a, b)
            for obj in fpg.objects():
                sets.find(obj)
        seconds = time.monotonic() - start
        result.rows.append((
            "disjoint-sets", label, format_seconds(seconds),
            f"{len(union_pairs)} unions x50",
        ))

    # 3: representative policy effect on M-ktype (Example 3.2)
    for policy in ("min_site", "max_site"):
        merge = merge_type_consistent_objects(
            fpg, MergeOptions(representative_policy=policy)
        )
        start = time.monotonic()
        run = run_analysis(
            under.program, "M-2type", timeout_seconds=60,
            pre=None, merge_options=MergeOptions(representative_policy=policy),
        )
        seconds = time.monotonic() - start
        metrics = run.metrics()
        result.rows.append((
            "representative", policy, format_seconds(seconds),
            f"cg-edges={metrics.get('call_graph_edges')} "
            f"casts={metrics.get('may_fail_casts')}",
        ))
        del merge
    return result


def main(argv: Optional[Sequence[str]] = None) -> int:
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--profile", type=str, default="checkstyle")
    parser.add_argument("--scale", type=float, default=1.0)
    args = parser.parse_args(argv)
    print(run_ablation(args.profile, args.scale).render())
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
