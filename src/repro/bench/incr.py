"""Artifact-cache benchmark: the MAHJONG pre-analysis cold vs from disk.

An edited program is solved cold; what an edit → re-analyze loop
reuses is the pre-analysis (ci solve + FPG + merge), served by
:class:`repro.incr.ArtifactCache` for any program text it has seen.
Per profile the harness times ``run_pre_analysis`` once against an
empty cache directory (miss + store) and once against the filled one
(pure hit).

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
from repro.incr import ArtifactCache
from repro.ir.program import Program
from repro.workloads import load_profile

__all__ = [
    "ArtifactCacheMeasurement",
    "IncrResult",
    "measure_artifact_cache",
    "run_incr",
    "main",
]

DEFAULT_PROFILES = ("antlr", "chart")
DEFAULT_SCALE = 1.0


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
    cache_measurements: List[ArtifactCacheMeasurement] = field(
        default_factory=list)

    def render(self) -> str:
        rows = [
            (c.profile, format_seconds(c.cold_seconds),
             format_seconds(c.hit_seconds), f"{c.speedup:.1f}x",
             c.stores, c.hits)
            for c in self.cache_measurements
        ]
        return render_table(
            ("profile", "cold", "warm hit", "speedup", "stores", "hits"),
            rows,
            title=(f"Artifact cache: MAHJONG pre-analysis cold vs "
                   f"served from disk (scale {self.scale:g})"),
        )


def run_incr(profiles: Sequence[str] = DEFAULT_PROFILES,
             scale: float = DEFAULT_SCALE) -> IncrResult:
    result = IncrResult(scale=scale)
    for profile in profiles:
        result.cache_measurements.append(
            measure_artifact_cache(load_profile(profile, scale), profile))
    return result


def main(argv: Optional[Sequence[str]] = None) -> int:
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--profiles", type=str,
                        default=",".join(DEFAULT_PROFILES))
    parser.add_argument("--scale", type=float, default=DEFAULT_SCALE)
    parser.add_argument("--out", type=str, default=None,
                        help="also write the report to this file")
    args = parser.parse_args(argv)
    result = run_incr(
        profiles=[p for p in args.profiles.split(",") if p],
        scale=args.scale,
    )
    report = result.render()
    print(report)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(report + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
