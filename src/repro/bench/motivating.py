"""Section 2.1 motivating measurement: pmd under 3obj / T-3obj / M-3obj.

The paper reports for pmd: 3obj takes 14469.3s and finds 44004 call
graph edges; T-3obj is fastest (50.3s) but most imprecise (50666 edges);
M-3obj matches 3obj's precision (44016 edges) at nearly T-3obj's speed
(127.7s).  The shape to reproduce:

* time: T-3obj < M-3obj ≪ 3obj;
* call graph edges: 3obj ≈ M-3obj < T-3obj.

Run with ``python -m repro.bench motivating``.
"""

from __future__ import annotations

import gc
import time
from dataclasses import dataclass
from typing import Dict, Optional, Sequence

from repro.bench.reporting import format_seconds, render_table
from repro.bench.runners import ProgramUnderBench

__all__ = ["MotivatingResult", "run_motivating", "main"]

#: pmd completed under 3obj in the paper (in ~80% of the 5h budget), so
#: the motivating bench uses a budget generous enough for it to finish.
MOTIVATING_BUDGET_SECONDS = 60.0


@dataclass
class MotivatingResult:
    profile: str
    #: config -> metrics
    runs: Dict[str, Dict[str, object]]

    def seconds(self, config: str) -> float:
        return float(self.runs[config]["main_seconds"])

    def edges(self, config: str) -> Optional[int]:
        value = self.runs[config].get("call_graph_edges")
        return int(value) if value is not None else None

    def shape_holds(self) -> bool:
        """The paper's ordering: T fastest & least precise, M ≈ A precise
        and much faster than A."""
        try:
            time_ok = (
                self.seconds("T-3obj") <= self.seconds("M-3obj") * 3
                and self.seconds("M-3obj") < self.seconds("3obj")
            )
            t_edges, m_edges, a_edges = (
                self.edges("T-3obj"), self.edges("M-3obj"), self.edges("3obj")
            )
            precision_ok = (
                t_edges is not None and m_edges is not None
                and a_edges is not None
                and m_edges <= t_edges
                and abs(m_edges - a_edges) <= max(4, a_edges // 100)
            )
        except KeyError:
            return False
        return time_ok and precision_ok


#: the three configurations, in the order of the first timing round
CONFIGS = ("3obj", "T-3obj", "M-3obj")
#: interleaved runs per configuration; ``main_seconds`` is their best
REPEATS = 3


def run_motivating(profile: str = "pmd", scale: float = 1.0,
                   budget: float = MOTIVATING_BUDGET_SECONDS) -> MotivatingResult:
    """Run the three configurations ``REPEATS`` times each, interleaved.

    Each round runs every configuration once, rotating which goes
    first, so drift on a shared host hits all three alike.  A run is
    timed with ``time.process_time`` (scheduler preemption excluded)
    after a ``gc.collect()``, as in
    :func:`repro.bench.runners.interleaved_best_of`, and
    ``main_seconds`` reports the best of the repeats.  The shared
    pre-analysis is built before the first timed run, and a
    configuration that exhausts ``budget`` is not run again."""
    under = ProgramUnderBench.load(profile, scale)
    under.pre  # build the shared pre-analysis outside the timed runs
    runs: Dict[str, Dict[str, object]] = {}
    for round_index in range(REPEATS):
        shift = round_index % len(CONFIGS)
        for config in CONFIGS[shift:] + CONFIGS[:shift]:
            if runs.get(config, {}).get("timed_out"):
                continue
            gc.collect()
            start = time.process_time()
            run = under.run(config, budget)
            seconds = time.process_time() - start
            metrics = dict(run.metrics())
            if not run.timed_out:
                best = runs.get(config, {}).get("main_seconds", seconds)
                metrics["main_seconds"] = round(min(best, seconds), 4)
            runs[config] = metrics
    return MotivatingResult(profile, {config: runs[config]
                                      for config in CONFIGS})


def main(argv: Optional[Sequence[str]] = None) -> int:
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--profile", type=str, default="pmd")
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--budget", type=float,
                        default=MOTIVATING_BUDGET_SECONDS)
    args = parser.parse_args(argv)
    result = run_motivating(args.profile, args.scale, args.budget)
    rows = [
        (
            config,
            format_seconds(
                metrics.get("main_seconds"),
                bool(metrics.get("timed_out")), args.budget,
            ),
            metrics.get("call_graph_edges", "-"),
            metrics.get("may_fail_casts", "-"),
            metrics.get("poly_call_sites", "-"),
        )
        for config, metrics in result.runs.items()
    ]
    print(render_table(
        ("analysis", "time", "cg-edges", "may-fail casts", "poly sites"),
        rows,
        title=f"Section 2.1 motivating numbers ({result.profile})",
    ))
    print(f"\npaper shape holds: {result.shape_holds()}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
