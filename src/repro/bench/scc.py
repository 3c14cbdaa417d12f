"""A/B benchmark: constraint-graph condensation on vs off.

One question, measured end to end: how much solve work does online
cycle elimination plus wave scheduling save?  For every (profile,
config) cell the harness runs the same solve twice — once with
``scc=False`` (the FIFO loop over the raw constraint graph) and once
with ``scc=True`` (periodic Tarjan condensation + topological wave
scheduling) — asserts the final points-to facts are identical, and
reports wall-clock, iteration counts, and the condensation counters
(components collapsed, nodes merged, edges dropped, pushes coalesced).

The default workload pairs the ``cycles`` stressor (deep copy chains
closed through shared static hubs — the shape condensation targets)
with ``luindex`` (a regular profile, mostly acyclic) so the report
shows both the win and the no-regression control.

Run with ``python -m repro.bench scc``; ``--out`` writes the report
under ``bench_results/``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from repro.bench.reporting import format_seconds, render_table
from repro.bench.runners import interleaved_best_of
from repro.ir.program import Program
from repro.pta.context import selector_for
from repro.pta.solver import Solver
from repro.workloads import load_profile

__all__ = ["SccMeasurement", "SccResult", "measure_scc_ab", "run_scc",
           "main"]

DEFAULT_PROFILES = ("cycles", "luindex")
DEFAULT_CONFIGS = ("ci", "2obj")
DEFAULT_REPEATS = 3
#: At scale 1 these profiles solve in ~10 ms and graph construction
#: dominates; scale 3 makes propagation the bulk of the wall-clock,
#: which is the regime the A/B is about.
DEFAULT_SCALE = 3.0


@dataclass
class SccMeasurement:
    """One condensation A/B data point (identical facts asserted)."""

    profile: str
    config: str
    facts: int
    off_seconds: float
    on_seconds: float
    off_iterations: int
    on_iterations: int
    sccs_collapsed: int
    nodes_merged: int
    edges_dropped: int
    propagations_saved: int

    @property
    def speedup(self) -> float:
        if self.on_seconds <= 0:
            return float("inf")
        return self.off_seconds / self.on_seconds

    @property
    def work_ratio(self) -> float:
        """FIFO iterations per wave iteration (pure scheduling view)."""
        if self.on_iterations <= 0:
            return float("inf")
        return self.off_iterations / self.on_iterations


def measure_scc_ab(program: Program, profile: str, config: str,
                   repeats: int = DEFAULT_REPEATS) -> SccMeasurement:
    """Interleaved best-of-``repeats`` solve under each switch position
    (see :func:`~repro.bench.runners.interleaved_best_of` for why the
    schedule alternates).

    Raises ``AssertionError`` when the two fixpoints disagree on total
    points-to facts — the timings are only meaningful for identical
    results.
    """

    def make(scc: bool):
        return lambda: Solver(program, selector_for(config), scc=scc)

    ((off_seconds, off_solver),
     (on_seconds, on_solver)) = interleaved_best_of(
        make(False), make(True), lambda solver: solver.solve(), repeats)
    off_facts = sum(off_solver.node_pts_count(n)
                    for n in range(len(off_solver._pts)))
    on_facts = sum(on_solver.node_pts_count(n)
                   for n in range(len(on_solver._pts)))
    if off_facts != on_facts:
        raise AssertionError(
            f"condensation diverged on {profile}/{config}: "
            f"off={off_facts} on={on_facts}"
        )
    counters = on_solver.counters
    return SccMeasurement(
        profile=profile,
        config=config,
        facts=on_facts,
        off_seconds=off_seconds,
        on_seconds=on_seconds,
        off_iterations=off_solver.iterations,
        on_iterations=on_solver.iterations,
        sccs_collapsed=counters["sccs_collapsed"],
        nodes_merged=counters["scc_nodes_merged"],
        edges_dropped=counters["scc_edges_dropped"],
        propagations_saved=counters["propagations_saved"],
    )


@dataclass
class SccResult:
    scale: float
    measurements: List[SccMeasurement] = field(default_factory=list)

    @property
    def headline_speedup(self) -> float:
        """The acceptance number: best solve speedup on the cycle-heavy
        workload (any config)."""
        return max((m.speedup for m in self.measurements
                    if m.profile == "cycles"),
                   default=max((m.speedup for m in self.measurements),
                               default=0.0))

    def render(self) -> str:
        rows = [
            (m.profile, m.config, m.facts,
             format_seconds(m.off_seconds), format_seconds(m.on_seconds),
             f"{m.speedup:.2f}x",
             m.off_iterations, m.on_iterations, f"{m.work_ratio:.2f}x",
             m.sccs_collapsed, m.nodes_merged, m.edges_dropped,
             m.propagations_saved)
            for m in self.measurements
        ]
        parts = [render_table(
            ("profile", "config", "facts", "scc off", "scc on", "speedup",
             "iters off", "iters on", "work", "sccs", "merged", "dropped",
             "coalesced"),
            rows,
            title=(f"Constraint-graph condensation A/B (scale "
                   f"{self.scale:g}; identical facts asserted per row)"),
        )]
        parts.append("")
        parts.append(
            f"headline: condensation solves the cycle-heavy workload "
            f"{self.headline_speedup:.2f}x faster than the FIFO baseline"
        )
        return "\n".join(parts)


def run_scc(profiles: Sequence[str] = DEFAULT_PROFILES,
            scale: float = DEFAULT_SCALE,
            configs: Sequence[str] = DEFAULT_CONFIGS,
            repeats: int = DEFAULT_REPEATS) -> SccResult:
    result = SccResult(scale=scale)
    for profile in profiles:
        program = load_profile(profile, scale)
        for config in configs:
            result.measurements.append(
                measure_scc_ab(program, profile, config, repeats)
            )
    return result


def main(argv: Optional[Sequence[str]] = None) -> int:
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--profiles", type=str,
                        default=",".join(DEFAULT_PROFILES))
    parser.add_argument("--configs", type=str,
                        default=",".join(DEFAULT_CONFIGS))
    parser.add_argument("--scale", type=float, default=DEFAULT_SCALE)
    parser.add_argument("--repeats", type=int, default=DEFAULT_REPEATS)
    parser.add_argument("--out", type=str, default=None,
                        help="also write the report to this file")
    args = parser.parse_args(argv)
    result = run_scc(
        profiles=[p for p in args.profiles.split(",") if p],
        scale=args.scale,
        configs=[c for c in args.configs.split(",") if c],
        repeats=args.repeats,
    )
    report = result.render()
    print(report)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(report + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
