"""Batch corpus runner with per-program failure isolation.

The bench harnesses assume every program completes; a production-shaped
service cannot.  ``repro batch`` (also ``python -m repro.bench batch``)
runs one analysis configuration over a whole corpus and guarantees the
batch *finishes*:

* each program runs in isolation — a crash, a corrupted artifact, or a
  blown budget yields a structured :class:`BatchRecord` while the rest
  of the batch continues;
* :class:`~repro.faults.TransientFault` (flaky-infrastructure
  simulation, and the natural slot for real transient errors) is
  retried with deterministic jittered exponential backoff
  (:mod:`repro.retry`, shared with the analysis service) before being
  recorded as a failure;
* budget exhaustion rides the pipeline's degradation ladder by default,
  so a record is ``degraded`` (coarser but usable metrics, with
  ``degraded_from`` provenance) rather than empty whenever any rung
  fits the budget.

Record statuses: ``ok`` (requested configuration completed),
``degraded`` (a coarser rung completed), ``exhausted`` (every rung blew
the budget — the paper's "unscalable within budget"), ``failed`` (the
attempt raised; the error is recorded).

Programs come from the synthetic profiles (``--profiles``), the
hand-written corpus (``--corpus``), and/or mini-Java files
(``--files``).  Per-phase budgets come from ``--budget`` (wall-clock
per phase) plus the governor knobs (``--max-iterations``,
``--memory-mb``); fault injection from ``--faults``/``--faults-seed``;
``--trace-dir`` writes one Chrome trace (:mod:`repro.obs`) per program.

**Per-program state.**  Nothing is shared between programs, so the
records are identical at any worker count (``--jobs N``, default 1 =
inline, ``0`` = one worker per core, more than 1 = a process pool):

* each program's backoff jitter comes from its own
  ``Random(derive_seed(seed, name))`` stream;
* the fault spec is re-seeded per program
  (:meth:`repro.faults.FaultPlan.derive`) and scoped with
  :func:`repro.faults.active` on the thread where the program runs, so
  firings depend only on ``(spec, seed, name)`` — never on scheduling.
  A plan the caller's thread already holds would be one plan shared by
  every program, so :func:`run_batch` rejects it;
* machine-shared governor budgets (memory) are divided across workers
  via :meth:`repro.analysis.governor.GovernorSpec.slice`;
* each program's trace comes back as event payloads
  (:mod:`repro.obs.events`) and the parent writes the Chrome trace;
* records land in **input order** whatever the completion order.
"""

from __future__ import annotations

import os
import pickle
import random
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro import faults as faults_mod
from repro import obs
from repro.analysis.governor import GovernorSpec
from repro.analysis.pipeline import run_analysis
from repro.bench.reporting import format_seconds, render_table
from repro.faults import TransientFault, derive_seed
from repro.ir.program import Program
from repro.retry import RetriesExhausted, RetryPolicy, RetryState, call_with_retry

__all__ = ["BatchRecord", "BatchResult", "ShardTask", "run_batch", "main"]

#: Statuses that still produced a usable result.
USABLE_STATUSES = ("ok", "degraded")


@dataclass
class BatchRecord:
    """Outcome of one program in the batch."""

    program: str
    config: str
    status: str  # "ok" | "degraded" | "exhausted" | "failed"
    seconds: float
    retries: int = 0
    metrics: Optional[Dict[str, object]] = None
    error: Optional[str] = None
    degraded_from: Optional[str] = None
    failed_phase: Optional[str] = None
    exhaustion_cause: Optional[str] = None
    #: every *planned* transient-retry backoff, in order — including
    #: the final one that is deliberately never slept (giving up must
    #: not delay the rest of the batch).
    backoff_delays: List[float] = field(default_factory=list)

    @property
    def usable(self) -> bool:
        return self.status in USABLE_STATUSES

    def as_dict(self) -> Dict[str, object]:
        out: Dict[str, object] = {
            "program": self.program,
            "config": self.config,
            "status": self.status,
            "seconds": round(self.seconds, 4),
            "retries": self.retries,
        }
        for key in ("metrics", "error", "degraded_from", "failed_phase",
                    "exhaustion_cause"):
            value = getattr(self, key)
            if value is not None:
                out[key] = value
        if self.backoff_delays:
            out["backoff_delays"] = [round(d, 6) for d in self.backoff_delays]
        return out


@dataclass
class BatchResult:
    """All records of one batch run, always in program **input order**."""

    config: str
    records: List[BatchRecord] = field(default_factory=list)

    def counts(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for record in self.records:
            counts[record.status] = counts.get(record.status, 0) + 1
        return counts

    @property
    def all_usable(self) -> bool:
        return all(record.usable for record in self.records)

    def to_dict(self) -> Dict[str, object]:
        return {
            "config": self.config,
            "counts": self.counts(),
            "records": [record.as_dict() for record in self.records],
        }

    def render(self) -> str:
        rows = []
        for record in self.records:
            detail = ""
            if record.status == "degraded":
                detail = f"ran {record.metrics['analysis']}" if record.metrics else ""
            elif record.status == "exhausted":
                detail = f"{record.exhaustion_cause} in {record.failed_phase}"
            elif record.status == "failed":
                detail = (record.error or "")[:60]
            rows.append((
                record.program,
                record.status,
                format_seconds(record.seconds),
                record.retries or "-",
                detail or "-",
            ))
        counts = ", ".join(
            f"{count} {status}" for status, count in sorted(self.counts().items())
        )
        table = render_table(
            ("program", "status", "time", "retries", "detail"), rows,
            title=f"Batch: {self.config} over {len(self.records)} programs",
        )
        return f"{table}\n\ntotals: {counts or 'empty batch'}"


ProgramSource = Union[Program, Callable[[], Program]]


def _trace_slug(name: str) -> str:
    """A filesystem-safe stem for a per-program trace file."""
    return "".join(c if c.isalnum() or c in "-_." else "_" for c in name)


def _trace_slugs(names: Sequence[str]) -> List[str]:
    """Collision-free trace-file stems, one per name, in input order.

    Distinct program names can slug identically (``a/b`` and ``a:b``
    both become ``a_b``), which used to make later traces silently
    overwrite earlier ones.  The first occurrence keeps the bare slug;
    later collisions get ``-2``, ``-3``, … (probing past any name that
    already slugs to the suffixed form)."""
    slugs: List[str] = []
    used: set = set()
    for name in names:
        base = _trace_slug(name)
        slug, n = base, 1
        while slug in used:
            n += 1
            slug = f"{base}-{n}"
        used.add(slug)
        slugs.append(slug)
    return slugs


@dataclass(frozen=True)
class ShardTask:
    """One program's worth of batch work, picklable end to end.

    Everything a worker needs is derived, not shared: the backoff RNG
    and the fault plan both come from ``derive_seed(seed, name)`` /
    ``FaultPlan.derive``, and the governor recipe is sliced by
    ``workers`` before building, so the task's behavior is a pure
    function of its fields — independent of where it runs.
    """

    name: str
    source: ProgramSource
    config: str
    degrade: Union[bool, str, Tuple[str, ...]]
    max_retries: int
    backoff_seconds: float
    seed: int
    workers: int
    governor: Optional[GovernorSpec] = None
    fault_spec: Optional[str] = None
    fault_seed: int = 0
    collect_trace: bool = False


def _run_task(
    task: ShardTask,
    sleeper: Callable[[float], None] = time.sleep,
) -> Tuple[BatchRecord, Optional[List[Dict[str, object]]]]:
    """One program through the isolation boundary; the process-pool
    entry point.

    Returns the record and, with ``collect_trace``, the program's trace
    events as plain dicts (:func:`repro.obs.events_to_dicts`), which
    survive the pickle trip home where a live tracer would not.
    """
    mem_sink = obs.InMemorySink() if task.collect_trace else None
    tracer = obs.Tracer(sinks=(mem_sink,)) if mem_sink is not None else None
    governor = task.governor.slice(task.workers) if task.governor else None
    span = None
    if tracer is not None:
        span = tracer.begin("batch:program", program=task.name,
                            config=task.config)
    start = time.monotonic()

    def attempt():
        source = task.source
        program = source() if callable(source) else source
        return run_analysis(program, task.config,
                            governor=governor.build() if governor else None,
                            degrade=task.degrade, tracer=tracer)

    def on_backoff(retry: int, delay: float) -> None:
        if tracer is not None:
            tracer.instant("batch.backoff", program=task.name,
                           retry=retry, delay=round(delay, 6))

    plan_scope = faults_mod.active(
        faults_mod.FaultPlan.derive(
            task.fault_spec, task.fault_seed, task.name)
        if task.fault_spec else None
    )
    state = RetryState()
    record = BatchRecord(program=task.name, config=task.config,
                         status="failed", seconds=0.0)
    try:
        with plan_scope:
            run = call_with_retry(
                attempt,
                policy=RetryPolicy(max_retries=task.max_retries,
                                   backoff_seconds=task.backoff_seconds),
                rng=random.Random(derive_seed(task.seed, task.name)),
                retryable=TransientFault, sleeper=sleeper,
                on_backoff=on_backoff, state=state,
            )
    except RetriesExhausted as exc:
        record.retries, record.error = exc.retries, str(exc)
        record.backoff_delays = exc.delays
    except Exception as exc:  # noqa: BLE001 - isolation is the point
        record.retries = state.retries
        record.error = f"{type(exc).__name__}: {exc}"
        record.backoff_delays = state.delays
    else:
        record.status = run.status
        record.degraded_from = run.degraded_from
        record.failed_phase = run.failed_phase
        record.exhaustion_cause = run.exhaustion_cause
        record.retries = state.retries
        record.metrics = dict(run.metrics())
        record.backoff_delays = state.delays
    record.seconds = time.monotonic() - start
    if tracer is not None:
        tracer.end(span, status=record.status, retries=record.retries)
    events = (obs.events_to_dicts(mem_sink.events)
              if mem_sink is not None else None)
    return record, events


def run_batch(
    programs: Iterable[Tuple[str, ProgramSource]],
    config: str = "M-2obj",
    budget: Optional[float] = None,
    degrade: Union[bool, str, Sequence[str]] = True,
    max_retries: int = 2,
    backoff_seconds: float = 0.05,
    seed: int = 0,
    verbose: bool = False,
    sleeper: Callable[[float], None] = time.sleep,
    trace_dir: Optional[str] = None,
    jobs: int = 1,
    governor_spec: Optional[GovernorSpec] = None,
    fault_spec: Optional[str] = None,
    fault_seed: int = 0,
) -> BatchResult:
    """Run ``config`` over every program, isolating failures.

    ``programs`` yields ``(name, program_or_thunk)`` pairs; thunks are
    evaluated inside the isolation boundary so even a program that
    fails to *load* (parse error, generator bug) becomes a ``failed``
    record instead of killing the batch.  ``governor_spec`` builds a
    fresh :class:`~repro.analysis.governor.ResourceGovernor` per attempt
    (governors are stateful); ``budget`` sets its ``wall_seconds``.
    Transient faults are retried up to ``max_retries`` times with
    jittered exponential backoff seeded by ``seed`` and the program
    name — deterministic, like everything else in the fault path.  ``fault_spec``/``fault_seed`` arm one derived
    plan per program.  Calling it inside a :func:`repro.faults.active`
    scope raises :class:`ValueError`.

    ``sleeper`` performs the backoff waits (injectable so tests never
    sleep real wall-clock); every *planned* delay is recorded on the
    record's ``backoff_delays``, but the one planned when the final
    retry is abandoned is never slept.  ``trace_dir`` gives every
    program its own tracer (a ``batch:program`` span, a
    ``batch.backoff`` instant per slept backoff) and writes one Chrome
    trace file per program into the directory (collision-free names
    even when distinct program names slug identically).

    ``jobs`` is the worker count (``0`` = one per core).  Above 1 the
    programs run on a process pool; unpicklable sources run in the
    parent after the pool drains.  Worker processes sleep their
    backoffs with ``time.sleep``; a custom ``sleeper`` is honored
    wherever a program runs in the parent.
    """
    if faults_mod.current_plan() is not None:
        raise ValueError(
            "run_batch derives one fault plan per program: pass "
            "fault_spec=/fault_seed= instead of scoping a plan with "
            "repro.faults.active()")
    if budget is not None:
        governor_spec = replace(governor_spec or GovernorSpec(),
                                wall_seconds=budget)
    programs = list(programs)
    workers = _resolve_jobs(jobs)
    tasks = [
        ShardTask(
            name=name, source=source, config=config,
            degrade=(tuple(degrade) if isinstance(degrade, (list, tuple))
                     else degrade),
            max_retries=max_retries, backoff_seconds=backoff_seconds,
            seed=seed, workers=workers, governor=governor_spec,
            fault_spec=fault_spec, fault_seed=fault_seed,
            collect_trace=trace_dir is not None,
        )
        for name, source in programs
    ]
    outputs: List[Optional[Tuple[BatchRecord, Optional[list]]]] = \
        [None] * len(tasks)
    remote = ([i for i, task in enumerate(tasks) if _picklable(task)]
              if workers > 1 else [])
    if len(remote) > 1:
        with ProcessPoolExecutor(
                max_workers=min(workers, len(remote))) as executor:
            done = executor.map(_run_task, [tasks[i] for i in remote])
            for i, output in zip(remote, done):
                outputs[i] = output
    # inline runs, and unpicklable sources (closures over live objects)
    # after the pool is drained
    for i, task in enumerate(tasks):
        if outputs[i] is None:
            outputs[i] = _run_task(task, sleeper=sleeper)

    result = BatchResult(config=config,
                         records=[record for record, _ in outputs])
    if trace_dir is not None:
        os.makedirs(trace_dir, exist_ok=True)
        slugs = _trace_slugs([name for name, _ in programs])
        for slug, (_, events) in zip(slugs, outputs):
            path = os.path.join(trace_dir, f"{slug}.trace.json")
            obs.write_chrome_trace(obs.events_from_dicts(events), path)
    if verbose:
        for record in result.records:
            print(f"  {record.program:<16} {record.status:<10} "
                  f"{format_seconds(record.seconds)}")
    return result


def _resolve_jobs(jobs: int) -> int:
    """The worker count for ``jobs``: ``0`` means one per core, and the
    result is always at least 1."""
    if jobs == 0:
        jobs = os.cpu_count() or 1
    return max(1, jobs)


def _picklable(value: object) -> bool:
    """Whether ``value`` survives pickling, i.e. whether a task may go
    to the process pool (an unpicklable one runs in the parent)."""
    try:
        pickle.dumps(value)
    except Exception:  # noqa: BLE001 - any pickling failure means "no"
        return False
    return True


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class _ProfileSource:
    """Picklable loader for a synthetic profile (lambdas cannot cross
    the process-pool boundary)."""

    name: str
    scale: float

    def __call__(self) -> Program:
        from repro.workloads import load_profile

        return load_profile(self.name, self.scale)


@dataclass(frozen=True)
class _CorpusSource:
    """Picklable loader for a hand-written corpus program."""

    name: str

    def __call__(self) -> Program:
        from repro.workloads import corpus_program

        return corpus_program(self.name)


@dataclass(frozen=True)
class _FileSource:
    """Picklable loader for a mini-Java source file."""

    path: str

    def __call__(self) -> Program:
        from repro.frontend import parse_program

        with open(self.path, "r", encoding="utf-8") as handle:
            return parse_program(handle.read())


def _collect_programs(args) -> List[Tuple[str, ProgramSource]]:
    from repro.workloads import PROFILE_NAMES, corpus_names

    programs: List[Tuple[str, ProgramSource]] = []
    if args.profiles:
        names = (list(PROFILE_NAMES) if args.profiles == "all"
                 else [p for p in args.profiles.split(",") if p])
        programs += [(name, _ProfileSource(name, args.scale))
                     for name in names]
    if args.corpus:
        names = (corpus_names() if args.corpus == "all"
                 else [c for c in args.corpus.split(",") if c])
        programs += [(name, _CorpusSource(name)) for name in names]
    for path in args.files:
        programs.append((path, _FileSource(path)))
    if not programs:  # default: the hand-written corpus
        programs = [(name, _CorpusSource(name)) for name in corpus_names()]
    return programs


def main(argv: Optional[Sequence[str]] = None) -> int:
    import argparse

    from repro.export import dump_json

    parser = argparse.ArgumentParser(
        prog="repro batch", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--config", default="M-2obj")
    parser.add_argument("--profiles", default="",
                        help="comma-separated profile names, or 'all'")
    parser.add_argument("--corpus", default="",
                        help="comma-separated corpus names, or 'all'")
    parser.add_argument("--files", nargs="*", default=[],
                        help="mini-Java source files")
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--budget", type=float, default=None,
                        help="wall-clock budget per phase, in seconds")
    parser.add_argument("--no-degrade", action="store_true",
                        help="disable the degradation ladder")
    parser.add_argument("--ladder", default=None,
                        help="explicit comma-separated degradation rungs")
    parser.add_argument("--max-retries", type=int, default=2)
    parser.add_argument("--backoff", type=float, default=0.05,
                        help="base backoff in seconds for transient faults")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--max-iterations", type=int, default=None)
    parser.add_argument("--memory-mb", type=float, default=None)
    parser.add_argument("--check-stride", type=int, default=1024)
    parser.add_argument("--faults", default=None,
                        help="fault-injection spec (see repro.faults)")
    parser.add_argument("--faults-seed", type=int, default=0)
    parser.add_argument("--jobs", type=int, default=1,
                        help="run the batch on N worker processes (0 = one "
                             "per core; default 1, inline)")
    parser.add_argument("--strict", action="store_true",
                        help="exit non-zero unless every record is usable")
    parser.add_argument("-o", "--output", default=None,
                        help="write the JSON batch report here")
    parser.add_argument("--trace-dir", default=None,
                        help="write one Chrome trace file per program "
                             "into this directory")
    args = parser.parse_args(argv)

    degrade: Union[bool, str] = True
    if args.no_degrade:
        degrade = False
    elif args.ladder:
        degrade = args.ladder

    # an unbounded spec builds no governor (GovernorSpec.build)
    governor_spec = GovernorSpec(
        memory_mb=args.memory_mb,
        max_iterations=args.max_iterations,
        check_stride=args.check_stride,
    )

    result = run_batch(
        _collect_programs(args),
        config=args.config, budget=args.budget, degrade=degrade,
        max_retries=args.max_retries, backoff_seconds=args.backoff,
        seed=args.seed, governor_spec=governor_spec, verbose=True,
        trace_dir=args.trace_dir, jobs=args.jobs,
        fault_spec=args.faults, fault_seed=args.faults_seed,
    )
    print()
    print(result.render())
    if args.output:
        dump_json(result.to_dict(), args.output)
        print(f"wrote {args.output}")
    if args.trace_dir:
        print(f"wrote per-program traces to {args.trace_dir}")
    if args.strict and not result.all_usable:
        return 4
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
