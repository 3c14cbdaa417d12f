"""Scaling benchmark for the sharded batch runner.

:func:`~repro.bench.batch.run_batch` fans the hand-written corpus plus a
few profiles over the sharded process pool, serial (``jobs=None``) vs
``--jobs N``, and the normalized records are asserted identical.  The
MAHJONG merge phase has no leg here: it is serial (see
:mod:`repro.core.merging`).

The report always records ``os.cpu_count()``: speedup is bounded by
physical cores (a 1-core container will honestly report ~1x and the
pool overhead), and the numbers are only comparable across machines
with that context attached.

Run with ``python -m repro.bench parallel``; ``--out`` writes the
report under ``bench_results/``.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Tuple

from repro.bench.reporting import format_seconds, render_table
from repro.workloads import corpus_names, corpus_program, load_profile

__all__ = ["BatchScaling", "ParallelResult", "run_parallel_bench", "main"]

DEFAULT_JOBS = 4
DEFAULT_REPEATS = 3
DEFAULT_BATCH_PROFILES = ("luindex", "antlr")
DEFAULT_BATCH_SCALE = 0.4


@dataclass
class BatchScaling:
    """The batch cell: legacy serial vs sharded at ``jobs`` workers."""

    programs: int
    jobs: int
    pool: str
    serial_seconds: float
    parallel_seconds: float

    @property
    def speedup(self) -> float:
        if self.parallel_seconds <= 0:
            return float("inf")
        return self.serial_seconds / self.parallel_seconds


@dataclass
class ParallelResult:
    jobs: int
    cores: Optional[int]
    batch: BatchScaling

    def render(self) -> str:
        b = self.batch
        parts = [f"host cores: {self.cores or 'unknown'} "
                 f"(speedup is bounded above by this)", ""]
        parts.append(render_table(
            ("programs", "pool", "jobs", "serial", "sharded", "speedup"),
            [(b.programs, b.pool, b.jobs,
              format_seconds(b.serial_seconds),
              format_seconds(b.parallel_seconds),
              f"{b.speedup:.2f}x")],
            title="Sharded batch runner (identical normalized "
                  "records asserted)",
        ))
        if self.cores is not None and self.cores < 2:
            parts.append("")
            parts.append(
                "note: single-core host — no speedup is physically "
                "achievable here; the ratio above measures pure pool "
                "overhead.  The batch shards are independent programs, "
                "so speedup on an N-core host is bounded by "
                "min(N, programs).")
        return "\n".join(parts)


def _best_of(fn: Callable[[], object],
             repeats: int) -> Tuple[float, object]:
    best_seconds, best_value = float("inf"), None
    for _ in range(max(1, repeats)):
        t0 = time.monotonic()
        value = fn()
        seconds = time.monotonic() - t0
        if seconds < best_seconds:
            best_seconds, best_value = seconds, value
    return best_seconds, best_value


def measure_batch(jobs: int, profiles: Sequence[str] = DEFAULT_BATCH_PROFILES,
                  scale: float = DEFAULT_BATCH_SCALE,
                  repeats: int = 1) -> BatchScaling:
    """Legacy serial batch vs the sharded process pool at ``jobs``."""
    from repro.bench.batch import run_batch

    def programs():
        out = [(name, corpus_program(name)) for name in corpus_names()]
        out += [(name, load_profile(name, scale)) for name in profiles]
        return out

    def normalized(result):
        payload = result.to_dict()
        for record in payload["records"]:
            record["seconds"] = 0
            metrics = record.get("metrics")
            if metrics:
                metrics.pop("main_seconds", None)
                metrics.pop("pre_seconds", None)
        return payload

    serial_seconds, serial = _best_of(
        lambda: run_batch(programs(), config="M-2obj"), repeats)
    parallel_seconds, parallel = _best_of(
        lambda: run_batch(programs(), config="M-2obj", jobs=jobs), repeats)
    if normalized(serial) != normalized(parallel):
        raise AssertionError("sharded batch diverged from serial records")
    return BatchScaling(
        programs=len(serial.records), jobs=jobs, pool="process",
        serial_seconds=serial_seconds, parallel_seconds=parallel_seconds,
    )


def run_parallel_bench(jobs: int = DEFAULT_JOBS,
                       repeats: int = DEFAULT_REPEATS) -> ParallelResult:
    # best-of-N on both sides, or the cold-start of whichever leg runs
    # first masquerades as a scheduling effect
    return ParallelResult(jobs=jobs, cores=os.cpu_count(),
                          batch=measure_batch(jobs, repeats=max(2, repeats)))


def main(argv: Optional[Sequence[str]] = None) -> int:
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--jobs", type=int, default=DEFAULT_JOBS)
    parser.add_argument("--repeats", type=int, default=DEFAULT_REPEATS)
    parser.add_argument("--out", type=str, default=None,
                        help="also write the report to this file")
    args = parser.parse_args(argv)
    result = run_parallel_bench(jobs=args.jobs, repeats=args.repeats)
    report = result.render()
    print(report)
    if args.out:
        os.makedirs(os.path.dirname(args.out) or ".", exist_ok=True)
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(report + "\n")
        print(f"\nwrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
