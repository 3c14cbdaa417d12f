"""A/B benchmark: incremental re-solve vs cold solve after one edit.

For every (profile, config) cell the harness:

1. cold-solves the base program;
2. applies a seeded single-method edit (:mod:`repro.incr.edits` — the
   "IDE keystroke" model);
3. prepares the warm start (:func:`repro.incr.prepare_warm_start`,
   timed separately — it is real cost the incremental path pays);
4. runs the edited program cold and warm on an interleaved best-of
   schedule, asserts ``protocol.result_digest`` byte-identity, and
   reports worklist pops, facts propagated, and wall-clock for both
   sides.

A second table measures the on-disk artifact cache
(:class:`repro.incr.ArtifactCache`): the full MAHJONG pre-analysis
(ci solve + FPG + merge) cold vs served from a warm cache directory.

Run with ``python -m repro.bench incr``; ``--out`` writes the report
under ``bench_results/``.
"""

from __future__ import annotations

import shutil
import tempfile
import time
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from repro.bench.reporting import format_seconds, render_table
from repro.bench.runners import interleaved_best_of
from repro.incr import ArtifactCache, perturb_method, pick_editable_method
from repro.incr.engine import prepare_warm_start
from repro.ir.program import Program
from repro.pta.context import selector_for
from repro.pta.solver import Solver
from repro.serve.protocol import result_digest
from repro.workloads import load_profile

__all__ = [
    "IncrMeasurement",
    "ArtifactCacheMeasurement",
    "IncrResult",
    "measure_incr_ab",
    "measure_artifact_cache",
    "run_incr",
    "main",
]

DEFAULT_PROFILES = ("antlr", "chart")
DEFAULT_CONFIGS = ("ci", "2obj")
DEFAULT_REPEATS = 3
DEFAULT_SCALE = 1.0
DEFAULT_EDIT_SEED = 3


@dataclass
class IncrMeasurement:
    """One warm-vs-cold re-solve data point (identical digests
    asserted)."""

    profile: str
    config: str
    edited_method: str
    cold_seconds: float
    warm_seconds: float
    #: one-time cone-of-influence computation over the base solve
    prepare_seconds: float
    cold_pops: int
    warm_pops: int
    cold_facts: int
    warm_facts: int
    warm_seed_facts: int

    @property
    def speedup(self) -> float:
        if self.warm_seconds <= 0:
            return float("inf")
        return self.cold_seconds / self.warm_seconds

    @property
    def pops_saved(self) -> float:
        """Fraction of cold worklist pops the warm solve avoided."""
        if self.cold_pops <= 0:
            return 0.0
        return 1.0 - self.warm_pops / self.cold_pops

    @property
    def facts_saved(self) -> float:
        """Fraction of cold fact propagations absorbed by seeding."""
        if self.cold_facts <= 0:
            return 0.0
        return 1.0 - self.warm_facts / self.cold_facts


class _Subject:
    """interleaved_best_of subject: a fresh solver whose result is kept
    for the digest assertion."""

    def __init__(self, program: Program, config: str,
                 warm_start=None) -> None:
        self.solver = Solver(program, selector_for(config),
                             warm_start=warm_start)
        self.result = None

    def run(self) -> None:
        self.result = self.solver.solve()


def measure_incr_ab(program: Program, profile: str, config: str,
                    repeats: int = DEFAULT_REPEATS,
                    edit_seed: int = DEFAULT_EDIT_SEED) -> IncrMeasurement:
    """Interleaved best-of-``repeats``: cold vs warm solve of the same
    edited program.  Raises ``AssertionError`` when the two fixpoints'
    result digests differ — the warm start must change *work*, never
    the answer.
    """
    base_result = Solver(program, selector_for(config)).solve()
    qualname = pick_editable_method(program, seed=edit_seed,
                                    exclude_entry=True)
    edited = perturb_method(program, qualname, seed=edit_seed)
    t0 = time.process_time()
    warm_start = prepare_warm_start(base_result, edited)
    prepare_seconds = time.process_time() - t0
    if warm_start is None:
        raise AssertionError(
            f"edit to {qualname} on {profile} was unexpectedly structural"
        )

    ((cold_seconds, cold), (warm_seconds, warm)) = interleaved_best_of(
        lambda: _Subject(edited, config),
        lambda: _Subject(edited, config, warm_start=warm_start),
        _Subject.run, repeats)
    cold_digest = result_digest(cold.result)
    warm_digest = result_digest(warm.result)
    if cold_digest != warm_digest:
        raise AssertionError(
            f"incremental re-solve diverged on {profile}/{config}: "
            f"cold={cold_digest} warm={warm_digest}"
        )
    return IncrMeasurement(
        profile=profile,
        config=config,
        edited_method=qualname,
        cold_seconds=cold_seconds,
        warm_seconds=warm_seconds,
        prepare_seconds=prepare_seconds,
        cold_pops=cold.solver.iterations,
        warm_pops=warm.solver.iterations,
        cold_facts=cold.solver.counters["facts_propagated"],
        warm_facts=warm.solver.counters["facts_propagated"],
        warm_seed_facts=warm.solver.counters["warm_seed_facts"],
    )


@dataclass
class ArtifactCacheMeasurement:
    """Full MAHJONG pre-analysis: computed cold vs served from a warm
    artifact-cache directory."""

    profile: str
    cold_seconds: float
    hit_seconds: float
    hits: int
    stores: int

    @property
    def speedup(self) -> float:
        if self.hit_seconds <= 0:
            return float("inf")
        return self.cold_seconds / self.hit_seconds


def measure_artifact_cache(program: Program,
                           profile: str) -> ArtifactCacheMeasurement:
    """Time ``run_pre_analysis`` with a cold cache directory (miss +
    store) and again with the warm one (pure hit)."""
    from repro.analysis.pipeline import run_pre_analysis

    directory = tempfile.mkdtemp(prefix="repro-incr-bench-")
    try:
        cache = ArtifactCache(directory)
        t0 = time.process_time()
        run_pre_analysis(program, artifact_cache=cache)
        cold_seconds = time.process_time() - t0
        t0 = time.process_time()
        hit = run_pre_analysis(program, artifact_cache=cache)
        hit_seconds = time.process_time() - t0
        if set(hit.cache_hits) != {"fpg", "merge"}:
            raise AssertionError(
                f"expected warm fpg+merge hits on {profile}, "
                f"got {hit.cache_hits!r}"
            )
        stats = cache.stats()
        return ArtifactCacheMeasurement(
            profile=profile,
            cold_seconds=cold_seconds,
            hit_seconds=hit_seconds,
            hits=stats["hits"],
            stores=stats["stores"],
        )
    finally:
        shutil.rmtree(directory, ignore_errors=True)


@dataclass
class IncrResult:
    scale: float
    edit_seed: int
    measurements: List[IncrMeasurement] = field(default_factory=list)
    cache_measurements: List[ArtifactCacheMeasurement] = field(
        default_factory=list)

    @property
    def worst_facts_saved(self) -> float:
        """The acceptance number: worst-case fraction of cold fact
        propagations the warm re-solve avoided, across all cells."""
        return min((m.facts_saved for m in self.measurements), default=0.0)

    @property
    def worst_pops_saved(self) -> float:
        return min((m.pops_saved for m in self.measurements), default=0.0)

    @property
    def best_speedup(self) -> float:
        return max((m.speedup for m in self.measurements), default=0.0)

    def render(self) -> str:
        rows = [
            (m.profile, m.config, m.edited_method,
             f"{m.cold_pops}", f"{m.warm_pops}",
             f"{100 * m.pops_saved:.0f}%",
             f"{m.cold_facts}", f"{m.warm_facts}",
             f"{100 * m.facts_saved:.0f}%",
             format_seconds(m.cold_seconds), format_seconds(m.warm_seconds),
             format_seconds(m.prepare_seconds),
             f"{m.speedup:.2f}x")
            for m in self.measurements
        ]
        parts = [render_table(
            ("profile", "config", "edited", "pops cold",
             "pops warm", "saved", "facts cold", "facts warm", "saved",
             "cold", "warm", "prep", "speedup"),
            rows,
            title=(f"Incremental re-solve after one method edit "
                   f"(scale {self.scale:g}, seed {self.edit_seed}; "
                   f"identical result digests asserted per row)"),
        )]
        cache_rows = [
            (c.profile, format_seconds(c.cold_seconds),
             format_seconds(c.hit_seconds), f"{c.speedup:.1f}x",
             c.stores, c.hits)
            for c in self.cache_measurements
        ]
        parts.append("")
        parts.append(render_table(
            ("profile", "cold", "warm hit", "speedup", "stores", "hits"),
            cache_rows,
            title=("Artifact cache: MAHJONG pre-analysis cold vs "
                   "served from disk"),
        ))
        parts.append("")
        parts.append(
            f"headline: a single-method edit re-propagates at most "
            f"{100 * (1 - self.worst_facts_saved):.0f}% of the cold "
            f"solve's facts and saves >={100 * self.worst_pops_saved:.0f}% "
            f"of worklist pops (worst cells); warm re-solve wall-clock "
            f"is {self.best_speedup:.2f}x cold at best on these "
            f"in-memory profile scales (replaying retained constraints "
            f"has a constant per-fact cost that shrinks relative to "
            f"propagation as programs grow); warm artifact hits skip "
            f"the pre-analysis entirely"
        )
        return "\n".join(parts)


def run_incr(profiles: Sequence[str] = DEFAULT_PROFILES,
             scale: float = DEFAULT_SCALE,
             configs: Sequence[str] = DEFAULT_CONFIGS,
             repeats: int = DEFAULT_REPEATS,
             edit_seed: int = DEFAULT_EDIT_SEED) -> IncrResult:
    result = IncrResult(scale=scale, edit_seed=edit_seed)
    for profile in profiles:
        program = load_profile(profile, scale)
        for config in configs:
            result.measurements.append(
                measure_incr_ab(program, profile, config, repeats, edit_seed)
            )
        result.cache_measurements.append(
            measure_artifact_cache(program, profile))
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
    parser.add_argument("--edit-seed", type=int, default=DEFAULT_EDIT_SEED)
    parser.add_argument("--out", type=str, default=None,
                        help="also write the report to this file")
    args = parser.parse_args(argv)
    result = run_incr(
        profiles=[p for p in args.profiles.split(",") if p],
        scale=args.scale,
        configs=[c for c in args.configs.split(",") if c],
        repeats=args.repeats,
        edit_seed=args.edit_seed,
    )
    report = result.render()
    print(report)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(report + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
