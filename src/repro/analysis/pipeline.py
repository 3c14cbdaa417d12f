"""End-to-end analysis pipeline (Figure 5 of the paper).

For a MAHJONG configuration (``M-*``) the pipeline is:

1. **pre-analysis** — context-insensitive, allocation-site-based
   Andersen's;
2. **FPG** — build the field points-to graph from the pre-analysis;
3. **MAHJONG** — merge type-consistent objects (Algorithm 1) into the
   merged object map;
4. **main analysis** — the requested context-sensitive analysis with the
   MAHJONG heap abstraction.

Non-MAHJONG configurations skip steps 1–3 (``T-*`` uses the allocation-
type abstraction, bare names use the allocation-site abstraction).

:func:`run_analysis` returns an :class:`AnalysisRun` carrying the result,
the client metrics, and the per-phase timing breakdown used by the
Table 2 harness.  Budget exhaustion reproduces the paper's "unscalable
within budget" rows: the run is marked ``timed_out`` instead of raising
— *any* :class:`~repro.resources.ResourceExhausted` (wall-clock, memory
watermark, or work guard, whether from ``timeout_seconds`` or a
:class:`~repro.analysis.governor.ResourceGovernor`) is caught in *every*
phase, pre-analysis included, and attributed to the phase that burned
the budget.

**Degradation ladder.**  With ``degrade`` enabled, exhaustion does not
zero out the run: the pipeline retries down a chain of coarser — but
still sound — configurations (MAHJONG's own thesis, and the
introspective-analysis family's: a coarse answer beats no answer).  The
automatic chain steps ``M-3obj → M-2obj → M-2type → ci``; exhaustion
*inside* the pre-analysis (or a corrupted FPG) instead drops the
MAHJONG heap and reruns the same sensitivity on the allocation-site
heap.  Every attempt is recorded as an :class:`AttemptRecord`, and a
rescued run carries ``degraded_from`` provenance so harnesses can
render honest rows.

Fault-injection points (:mod:`repro.faults`) are threaded through every
phase boundary, which is how the tests exercise each degradation path
deterministically.
"""

from __future__ import annotations

import time
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

from repro import faults, obs
from repro.analysis.config import AnalysisConfig, parse_config
from repro.core.automata import SharedAutomata
from repro.obs.metrics import PerfRecorder
from repro.clients import (
    analyze_exceptions,
    build_call_graph,
    check_casts,
    devirtualize,
)
from repro.core.fpg import FieldPointsToGraph, FPGIntegrityError, build_fpg
from repro.core.heap_modeler import build_heap_abstraction
from repro.core.merging import MergeOptions, MergeResult, merge_type_consistent_objects
from repro.faults import InjectedFault
from repro.incr.cache import FPGArtifact, MergeArtifact
from repro.ir.program import Program
from repro.pta.context import selector_for
from repro.pta.heapmodel import (
    AllocationSiteAbstraction,
    AllocationTypeAbstraction,
    HeapModel,
    MahjongAbstraction,
)
from repro.pta.results import PointsToResult
from repro.pta.solver import AnalysisTimeout, Solver
from repro.resources import ResourceExhausted

__all__ = [
    "AnalysisRun",
    "AttemptRecord",
    "FailureInfo",
    "PreAnalysisArtifacts",
    "classify_failure",
    "coarser_sensitivity",
    "degradation_chain",
    "next_rung",
    "run_analysis",
    "run_pre_analysis",
]

#: Phases that belong to the pre-analysis (exhaustion there drops the
#: MAHJONG heap rather than the context sensitivity).
PRE_PHASES = ("pre", "fpg", "merge")


@contextmanager
def _phase_scope(governor, name: str) -> Iterator[None]:
    """Bracket one pipeline phase: governor budget scope (when present)
    plus phase attribution on any escaping exhaustion or injected
    fault."""
    try:
        if governor is not None:
            with governor.phase(name):
                yield
        else:
            yield
    except (ResourceExhausted, InjectedFault, FPGIntegrityError) as exc:
        if getattr(exc, "phase", None) is None:
            exc.phase = name  # type: ignore[attr-defined]
        raise


@contextmanager
def _maybe_span(tracer: Optional[obs.Tracer], name: str, **attrs) -> Iterator[None]:
    """A tracer span, or a no-op when untraced."""
    if tracer is None:
        yield
        return
    with tracer.span(name, **attrs):
        yield


@dataclass
class PreAnalysisArtifacts:
    """Everything the pre-analysis phase produces (reusable across the
    main analyses of one program, as in the paper's Table 2 where the
    pre-analysis cost is shared).

    ``result`` is ``None`` only when the ci solve was skipped entirely
    because the FPG came out of an :class:`~repro.incr.ArtifactCache`
    (the FPG supersedes the raw solve for everything downstream);
    ``cache_hits`` names the phases served from the cache.
    """

    result: Optional[PointsToResult]
    fpg: FieldPointsToGraph
    merge: MergeResult
    abstraction: MahjongAbstraction
    ci_seconds: float
    fpg_seconds: float
    mahjong_seconds: float
    cache_hits: Tuple[str, ...] = ()

    @property
    def total_seconds(self) -> float:
        return self.ci_seconds + self.fpg_seconds + self.mahjong_seconds


@dataclass
class AttemptRecord:
    """Provenance of one rung of the degradation ladder.

    ``phase``/``cause`` are ``None`` for the successful attempt;
    ``seconds`` covers the whole attempt (pre-analysis included when the
    attempt built one), unlike ``AnalysisRun.main_seconds`` which is the
    main solve only.  When the run collects performance counters, each
    attempt keeps its *own* recorder here — a failed rung's phase timers
    must not leak into the rescued run's numbers (only the successful
    attempt is merged into the run-level recorder).
    """

    config: str
    seconds: float
    phase: Optional[str] = None
    cause: Optional[str] = None
    detail: str = ""
    recorder: Optional[PerfRecorder] = field(default=None, repr=False)

    @property
    def succeeded(self) -> bool:
        return self.cause is None

    def as_dict(self) -> Dict[str, object]:
        out: Dict[str, object] = {
            "config": self.config,
            "seconds": round(self.seconds, 4),
        }
        if self.cause is not None:
            out["phase"] = self.phase
            out["cause"] = self.cause
            out["detail"] = self.detail
        if self.recorder is not None:
            snapshot = self.recorder.snapshot()
            if snapshot:
                out["perf"] = snapshot
        return out


@dataclass
class AnalysisRun:
    """Outcome of one configuration on one program."""

    config: AnalysisConfig
    result: Optional[PointsToResult]
    main_seconds: float
    timed_out: bool = False
    pre: Optional[PreAnalysisArtifacts] = None
    _metrics: Optional[Dict[str, object]] = field(default=None, repr=False)
    #: the originally requested configuration, when the ladder stepped
    #: down from it (set on rescued *and* on fully exhausted runs).
    degraded_from: Optional[str] = None
    #: phase whose budget was exhausted, for a failed run.
    failed_phase: Optional[str] = None
    #: short cause (``time``/``memory``/``work``/``corrupt``) of failure.
    exhaustion_cause: Optional[str] = None
    #: one record per ladder attempt, in order (last one is this run's).
    attempts: List[AttemptRecord] = field(default_factory=list)
    #: always ``None``: kept only because perfbench/cells.py
    #: (``Counts.add``) reads it.
    incr: Optional[Dict[str, object]] = None

    @property
    def succeeded(self) -> bool:
        return self.result is not None

    @property
    def degraded(self) -> bool:
        return self.degraded_from is not None and self.result is not None

    def metrics(self) -> Dict[str, object]:
        """The paper's Table 2 row: time plus the three client metrics.

        Timed-out runs report only the timing/flag fields.  Degraded or
        exhausted runs additionally carry their provenance
        (``degraded_from``, ``failed_phase``, ``exhaustion_cause``, and
        the per-attempt records) so harness rows stay honest.
        """
        if self._metrics is not None:
            return self._metrics
        metrics: Dict[str, object] = {
            "analysis": self.config.name,
            "main_seconds": round(self.main_seconds, 4),
            "timed_out": self.timed_out,
        }
        if self.pre is not None:
            metrics["pre_seconds"] = round(self.pre.total_seconds, 4)
        if self.degraded_from is not None:
            metrics["degraded_from"] = self.degraded_from
        if self.failed_phase is not None:
            metrics["failed_phase"] = self.failed_phase
        if self.exhaustion_cause is not None:
            metrics["exhaustion_cause"] = self.exhaustion_cause
        if any(not attempt.succeeded for attempt in self.attempts):
            metrics["attempts"] = [a.as_dict() for a in self.attempts]
        if self.result is not None:
            call_graph = build_call_graph(self.result)
            devirt = devirtualize(call_graph)
            casts = check_casts(self.result)
            metrics.update(
                {
                    "call_graph_edges": call_graph.edge_count,
                    "reachable_methods": call_graph.reachable_method_count,
                    "poly_call_sites": devirt.poly_call_site_count,
                    "may_fail_casts": casts.may_fail_count,
                    "abstract_objects": self.result.object_count,
                    "method_contexts": self.result.total_context_count(),
                    "escaping_exceptions": analyze_exceptions(
                        self.result
                    ).escaping_class_count,
                }
            )
        self._metrics = metrics
        return metrics


@dataclass(frozen=True)
class FailureInfo:
    """A structured, phase-attributed account of why a run failed.

    This is the *one* failure taxonomy every surface renders: the CLI's
    exit-3 diagnostics, the batch runner's ``failed`` records, and the
    analysis service's JSON error bodies all spell failures as a
    ``kind`` (coarse family), a ``cause`` (short machine-readable
    token, e.g. ``time``/``memory``/``work``/``crash``), the pipeline
    ``phase`` the failure is attributed to (when known), and the
    exception's type/detail.  Built by :func:`classify_failure` — the
    guarantee behind "no bare traceback ever escapes a request".
    """

    kind: str  # "exhausted" | "corrupt" | "transient" | "crash" | "error"
    cause: str
    phase: Optional[str]
    error_type: str
    detail: str

    def as_dict(self) -> Dict[str, object]:
        out: Dict[str, object] = {
            "kind": self.kind,
            "cause": self.cause,
            "error_type": self.error_type,
            "detail": self.detail,
        }
        if self.phase is not None:
            out["phase"] = self.phase
        return out


def classify_failure(exc: BaseException) -> FailureInfo:
    """Map any exception escaping the pipeline onto :class:`FailureInfo`.

    Knows the whole deliberate taxonomy — resource exhaustion (with its
    ``time``/``memory``/``work`` causes), corrupted artifacts, injected
    transients and crashes — and degrades gracefully for anything else:
    an unexpected ``KeyError`` in a solver becomes kind ``"error"`` with
    the exception type as its cause, still phase-attributed when the
    raiser tagged one.
    """
    phase = getattr(exc, "phase", None)
    if isinstance(exc, ResourceExhausted):
        return FailureInfo(kind="exhausted", cause=exc.resource,
                           phase=phase or "main",
                           error_type=type(exc).__name__, detail=str(exc))
    if isinstance(exc, FPGIntegrityError):
        return FailureInfo(kind="corrupt", cause="corrupt", phase=phase,
                           error_type=type(exc).__name__, detail=str(exc))
    from repro.faults import InjectedCrash, TransientFault

    if isinstance(exc, TransientFault):
        return FailureInfo(kind="transient", cause="transient", phase=phase,
                           error_type=type(exc).__name__, detail=str(exc))
    if isinstance(exc, InjectedCrash):
        return FailureInfo(kind="crash", cause="crash", phase=phase,
                           error_type=type(exc).__name__, detail=str(exc))
    return FailureInfo(kind="error", cause=type(exc).__name__, phase=phase,
                       error_type=type(exc).__name__, detail=str(exc))


def _pre_cache_component(merge_options, scc) -> str:
    """Cache-key component for the pre-analysis artifacts: every
    *explicit* argument that can change them.  (Env-knob defaults are
    folded in separately via :func:`repro.envknobs.env_knobs`.)"""
    return f"scc={scc}|merge={merge_options!r}"


def run_pre_analysis(
    program: Program,
    merge_options: Optional[MergeOptions] = None,
    timeout_seconds: Optional[float] = None,
    perf: Optional[PerfRecorder] = None,
    governor=None,
    scc: Optional[bool] = None,
    tracer: Optional[obs.Tracer] = None,
    artifact_cache=None,
) -> PreAnalysisArtifacts:
    """Phases 1–3: ci points-to analysis, FPG construction, MAHJONG.

    ``scc`` switches the pre-analysis solve's constraint-graph
    condensation (``None`` = resolve through ``$REPRO_SCC``/default);
    ``perf`` optionally collects
    counters/timers across all three phases; ``governor`` budgets each
    phase (``pre``/``fpg``/``merge``); ``tracer`` wraps each phase in a
    ``phase:*`` span.  Exhaustion raises
    :class:`~repro.resources.ResourceExhausted` with the phase
    attributed — :func:`run_analysis` catches it.

    ``artifact_cache`` (an :class:`~repro.incr.ArtifactCache`) keys the
    FPG and merged-object map by content hash of the printed program,
    the explicit arguments above, and every result-affecting env knob;
    a hit skips the corresponding phases (an FPG hit also skips the ci
    solve, leaving ``result=None``).  Corrupt entries read as misses.
    """
    fpg = merge = None
    fpg_key = merge_key = None
    cache_hits: List[str] = []
    if artifact_cache is not None:
        component = _pre_cache_component(merge_options, scc)
        fpg_key = artifact_cache.key_for("fpg", program, component)
        merge_key = artifact_cache.key_for("merge", program, component)
        fpg_artifact = artifact_cache.load("fpg", fpg_key)
        if fpg_artifact is not None:
            fpg = fpg_artifact.fpg
            merge_artifact = artifact_cache.load("merge", merge_key)
            if merge_artifact is not None:
                merge = merge_artifact.merge

    t0 = time.monotonic()
    pre_result: Optional[PointsToResult] = None
    if fpg is None:
        with _maybe_span(tracer, "phase:pre"):
            with _phase_scope(governor, "pre"):
                faults.fire("pre-boundary", phase="pre")
                pre_result = Solver(program, selector_for("ci"),
                                    AllocationSiteAbstraction(),
                                    timeout_seconds=timeout_seconds,
                                    perf=perf, governor=governor,
                                    phase_label="pre", scc=scc,
                                    tracer=tracer).solve()
    t1 = time.monotonic()
    if fpg is None:
        with _maybe_span(tracer, "phase:fpg"):
            with _phase_scope(governor, "fpg"):
                faults.fire("fpg-boundary", phase="fpg")
                fpg = build_fpg(pre_result)
                # a corrupted artifact must not reach the merge phase; the
                # fault plan may deliberately corrupt an edge right before.
                faults.corrupt_fpg(fpg)
                fpg.check_integrity()
        if artifact_cache is not None:
            artifact_cache.store("fpg", fpg_key, FPGArtifact(
                fpg=fpg, ci_seconds=t1 - t0,
                fpg_seconds=time.monotonic() - t1,
            ))
    else:
        cache_hits.append("fpg")
    t2 = time.monotonic()
    shared = None
    if merge is None:
        with _maybe_span(tracer, "phase:merge"):
            with _phase_scope(governor, "merge"):
                faults.fire("merge-boundary", phase="merge")
                shared = SharedAutomata(fpg, perf=perf) if perf is not None else None
                merge = merge_type_consistent_objects(fpg, merge_options, shared=shared)
        if artifact_cache is not None:
            artifact_cache.store("merge", merge_key, MergeArtifact(
                merge=merge, seconds=time.monotonic() - t2,
            ))
    else:
        cache_hits.append("merge")
    t3 = time.monotonic()
    if perf is not None:
        perf.add_time("pre.fpg", t2 - t1)
        perf.add_time("pre.mahjong", t3 - t2)
        if shared is not None:
            shared.record_perf()
    return PreAnalysisArtifacts(
        result=pre_result,
        fpg=fpg,
        merge=merge,
        abstraction=build_heap_abstraction(merge),
        ci_seconds=t1 - t0,
        fpg_seconds=t2 - t1,
        mahjong_seconds=t3 - t2,
        cache_hits=tuple(cache_hits),
    )


# ----------------------------------------------------------------------
# The degradation ladder
# ----------------------------------------------------------------------
def coarser_sensitivity(sensitivity: str) -> Optional[str]:
    """One step down the precision ladder, or ``None`` below ``ci``.

    ``kobj → (k-1)obj`` down to ``2obj → 2type``; ``ktype → (k-1)type``
    down to ``2type → ci``; ``kcs → (k-1)cs`` down to ``2cs → ci``.
    """
    if sensitivity == "ci":
        return None
    for suffix in ("cs", "obj", "type"):
        if sensitivity.endswith(suffix) and sensitivity[:-len(suffix)].isdigit():
            k = int(sensitivity[:-len(suffix)])
            break
    else:
        return None
    if k <= 1:
        return "ci"
    if suffix == "obj":
        return f"{k - 1}obj" if k > 2 else "2type"
    # cs and type both bottom out at ci from k=2
    return f"{k - 1}{suffix}" if k > 2 else "ci"


def next_rung(config_name: str, failed_phase: Optional[str]) -> Optional[str]:
    """The next (coarser) configuration after ``config_name`` exhausted
    its budget in ``failed_phase``, or ``None`` when the ladder ends.

    Main-phase exhaustion keeps the heap abstraction and coarsens the
    context sensitivity; pre-analysis exhaustion (``pre``/``fpg``/
    ``merge`` — the MAHJONG machinery itself was the problem) falls back
    to the allocation-site heap at the same sensitivity.  An ``@scc``/
    ``@noscc`` suffix is carried through unchanged.
    """
    config = parse_config(config_name)
    suffix = ""
    if config.scc is not None:
        suffix = "@scc" if config.scc else "@noscc"
    if failed_phase in PRE_PHASES and config.heap == "mahjong":
        return config.sensitivity + suffix
    sensitivity = coarser_sensitivity(config.sensitivity)
    if sensitivity is None:
        return None
    if sensitivity == "ci":
        # the pre-analysis already *is* an allocation-site ci solve, so
        # the bottom rung never needs a heap prefix
        return "ci" + suffix
    prefix = {"mahjong": "M-", "alloc-type": "T-", "alloc-site": ""}[config.heap]
    return prefix + sensitivity + suffix


def degradation_chain(config_name: str) -> List[str]:
    """The full automatic main-phase ladder below ``config_name``
    (e.g. ``M-3obj`` → ``["M-2obj", "M-2type", "ci"]``)."""
    chain: List[str] = []
    current = config_name
    while True:
        current = next_rung(current, "main")
        if current is None:
            return chain
        chain.append(current)


def _normalize_degrade(
    degrade: Union[None, bool, str, Sequence[str]],
) -> Union[None, str, List[str]]:
    """``None``/``False`` → off; ``True``/``"auto"`` → ``"auto"``;
    anything else → an explicit list of rung names."""
    if degrade is None or degrade is False:
        return None
    if degrade is True or degrade == "auto":
        return "auto"
    if isinstance(degrade, str):
        return [part.strip() for part in degrade.split(",") if part.strip()]
    return list(degrade)


def _solve_main(
    program: Program,
    config: AnalysisConfig,
    heap_model: HeapModel,
    timeout_seconds: Optional[float],
    perf: Optional[PerfRecorder],
    governor,
    scc: Optional[bool] = None,
    tracer: Optional[obs.Tracer] = None,
) -> AnalysisRun:
    """Phase 4 for one configuration; raises on exhaustion."""
    selector = selector_for(config.sensitivity)
    solver = Solver(program, selector, heap_model,
                    timeout_seconds=timeout_seconds, perf=perf,
                    governor=governor, phase_label="main", scc=scc,
                    tracer=tracer)
    start = time.monotonic()
    with _maybe_span(tracer, "phase:main"):
        with _phase_scope(governor, "main"):
            faults.fire("main-boundary", phase="main")
            result = solver.solve()
    return AnalysisRun(
        config=config,
        result=result,
        main_seconds=time.monotonic() - start,
    )


def diff_programs(*args, **kwargs):
    """Not called: perfbench/tracing.py (``instrument_incr``) wraps
    this name under ``--trace 1``."""
    raise NotImplementedError("edits re-solve cold; there is no diff")


def run_analysis(
    program: Program,
    analysis: str = "ci",
    timeout_seconds: Optional[float] = None,
    pre: Optional[PreAnalysisArtifacts] = None,
    merge_options: Optional[MergeOptions] = None,
    perf: Optional[PerfRecorder] = None,
    governor=None,
    degrade: Union[None, bool, str, Sequence[str]] = None,
    scc: Optional[bool] = None,
    tracer: Optional[obs.Tracer] = None,
    artifact_cache=None,
) -> AnalysisRun:
    """Run a named analysis configuration end to end.

    ``pre`` lets callers share one pre-analysis across several ``M-*``
    configurations of the same program (how Table 2 accounts costs).
    ``timeout_seconds`` bounds each solve (the pre-analysis included);
    ``governor`` adds per-phase wall-clock/memory/work budgets.  On
    exhaustion the run is returned with ``timed_out=True`` rather than
    raising — including exhaustion *inside* the pre-analysis, which is
    attributed to its phase (``failed_phase``).

    ``degrade`` arms the graceful-degradation ladder: ``True`` (or
    ``"auto"``) retries down the automatic chain (see :func:`next_rung`),
    a sequence (or comma-separated string) of configuration names is
    tried in the given order.  A rescued run keeps ``timed_out=False``
    and records ``degraded_from`` plus per-attempt provenance.
    ``scc`` overrides the ``@scc``/``@noscc`` suffix for both the
    pre-analysis and main solves (``None`` → suffix → ``$REPRO_SCC`` →
    on).

    ``tracer`` (``None`` = the process-wide one from
    :func:`repro.obs.current_tracer`, if installed) records the run as
    a span tree — an ``analysis`` root, one ``attempt`` span per ladder
    rung, the four ``phase:*`` spans, and the solver's ``solve``/
    ``stride`` spans — and is installed process-wide for the duration
    so fault firings land in the same trace.  With ``perf`` given, each
    attempt additionally collects into its *own* recorder
    (``AttemptRecord.recorder``); only the successful attempt's numbers
    merge into ``perf``, so a failed rung cannot pollute the rescued
    run's counters.

    ``artifact_cache`` (an :class:`~repro.incr.ArtifactCache`) is
    threaded into the pre-analysis so a program whose text was seen
    before reuses its on-disk FPG/merge artifacts.  It is the only
    incremental mechanism: an edited program is solved cold.
    """
    if tracer is None:
        tracer = obs.current_tracer()
    if (governor is not None and tracer is not None
            and getattr(governor, "tracer", None) is None):
        governor.tracer = tracer
    ladder = _normalize_degrade(degrade)
    requested = analysis
    attempts: List[AttemptRecord] = []
    current = analysis
    shared_pre = pre
    explicit_index = 0
    with ExitStack() as scope:
        if tracer is not None:
            scope.enter_context(obs.active(tracer))
            scope.enter_context(tracer.span(
                "analysis", analysis=analysis,
                degrade=bool(ladder),
            ))
        while True:
            config = parse_config(current)
            use_scc = scc if scc is not None else config.scc
            attempt_perf = PerfRecorder() if perf is not None else None
            begin_attempt = getattr(governor, "begin_attempt", None)
            if begin_attempt is not None:
                begin_attempt()
            attempt_span = None
            if tracer is not None:
                attempt_span = tracer.begin(
                    "attempt", config=current, index=len(attempts),
                )
            start = time.monotonic()
            try:
                if config.heap == "mahjong":
                    if shared_pre is None:
                        shared_pre = run_pre_analysis(
                            program, merge_options,
                            timeout_seconds=timeout_seconds,
                            perf=attempt_perf, governor=governor,
                            scc=use_scc, tracer=tracer,
                            artifact_cache=artifact_cache,
                        )
                    heap_model: HeapModel = shared_pre.abstraction
                elif config.heap == "alloc-type":
                    heap_model = AllocationTypeAbstraction(program)
                else:
                    heap_model = AllocationSiteAbstraction()
                run = _solve_main(program, config, heap_model,
                                  timeout_seconds, attempt_perf, governor,
                                  scc=use_scc, tracer=tracer)
            except (ResourceExhausted, FPGIntegrityError) as exc:
                seconds = time.monotonic() - start
                phase = getattr(exc, "phase", None) or "main"
                cause = exc.resource if isinstance(exc, ResourceExhausted) else "corrupt"
                if tracer is not None:
                    tracer.end(attempt_span, outcome="exhausted",
                               cause=cause, phase=phase)
                attempts.append(AttemptRecord(
                    config=current, seconds=seconds, phase=phase, cause=cause,
                    detail=str(exc), recorder=attempt_perf,
                ))
                if ladder == "auto":
                    following = next_rung(current, phase)
                elif ladder is not None and explicit_index < len(ladder):
                    following = ladder[explicit_index]
                    explicit_index += 1
                else:
                    following = None
                if following is None:
                    return AnalysisRun(
                        config=config,
                        result=None,
                        main_seconds=seconds,
                        timed_out=True,
                        pre=shared_pre,
                        degraded_from=requested if current != requested else None,
                        failed_phase=phase,
                        exhaustion_cause=cause,
                        attempts=attempts,
                    )
                current = following
                continue
            if tracer is not None:
                tracer.end(attempt_span, outcome="ok")
            attempts.append(AttemptRecord(
                config=current, seconds=run.main_seconds,
                recorder=attempt_perf,
            ))
            if perf is not None and attempt_perf is not None:
                perf.merge(attempt_perf)
            run.pre = shared_pre
            run.attempts = attempts
            if current != requested:
                run.degraded_from = requested
            return run
