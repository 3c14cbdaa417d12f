"""The benchmark's three workloads and the per-layer counts of a round.

A *cell* is one analysis request: inputs in, client answers out.  Each
workload yields its cells one *round* at a time.  A round's composition
is fixed; the seed changes only the generated programs, the order of
the cells and the edits, so every run measures the same mix of work.
"""

from __future__ import annotations

import dataclasses
import os
import random
import shutil
import tempfile
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional

from repro.analysis.pipeline import AnalysisRun, run_analysis
from repro.frontend import parse_program
from repro.incr import (
    ArtifactCache,
    IncrementalSession,
    perturb_method,
    pick_editable_method,
)
from repro.ir.printer import print_program
from repro.ir.statements import Copy
from repro.serve.protocol import result_digest
from repro.workloads.generator import generate
from repro.workloads.profiles import profile_spec

#: Per-solve budget.  A cell that exhausts it counts as failed.
CELL_TIMEOUT_S = 120.0
#: mahjong cells whose generated IR is also analyzed for the round trip
ROUNDTRIP_SAMPLE = 2
PRECISION = ("may_fail_casts", "poly_call_sites", "call_graph_edges")


def seeded_program(profile: str, scale: float, seed: int):
    """The profile's program at ``scale``, with its generator seed drawn
    from the run seed (sizes stay those of the profile)."""
    spec = profile_spec(profile, scale)
    draw = random.Random(f"{seed}:{profile}").randrange(1, 2 ** 31)
    return generate(dataclasses.replace(spec, seed=draw))


def analyze(lt, program, config: str, **kwargs) -> AnalysisRun:
    """``run_analysis`` plus the client answers, as one cell sees it."""
    run = run_analysis(program, config, timeout_seconds=CELL_TIMEOUT_S,
                       tracer=lt.tracer, **kwargs)
    with lt.span("clients"):
        run.metrics()
    return run


def no_check(run: AnalysisRun, digest: str) -> List[str]:
    return []


@dataclass
class Cell:
    label: str
    #: identity of the request: repeats of a key must give one digest
    key: str
    #: identity of the analyzed program (the soundness oracle's memo key)
    program_key: str
    execute: Callable[..., AnalysisRun]
    #: workload-specific checks, given the run and its result digest
    check: Callable[[AnalysisRun, str], List[str]] = no_check
    source_kb: float = 0.0
    #: ``warm``/``cold`` for the two 2obj solves of one edit, whose pops
    #: give ``incr.warm_pops_frac``
    solve: str = ""


class Counts:
    """Per-layer work counts of one round, from public return values.

    Counts are deterministic for a seed, so they are taken from the
    first round of every run, traced or not.
    """

    def __init__(self) -> None:
        self.values: Dict[str, float] = dict.fromkeys(COUNT_METRICS, 0)
        self._merged_before = 0
        self._merged_after = 0
        self.updates = 0
        self.warm_updates = 0
        self.warm_pops = 0
        self.cold_pops = 0

    def add(self, cell: Cell, run: AnalysisRun) -> None:
        v = self.values
        metrics = run.metrics()
        for name in PRECISION:
            v[name] += metrics[name]
        v["frontend.source_kb"] += cell.source_kb
        pre = run.pre
        if pre is not None:
            if pre.result is not None:
                self._add_solve("pta.pre", pre.result.stats())
            if "fpg" not in pre.cache_hits:
                v["core.fpg.edges"] += pre.fpg.edge_count()
            if "merge" not in pre.cache_hits:
                v["core.merging.equivalence_tests"] += pre.merge.equivalence_tests
                v["core.merging.singletype_failures"] += pre.merge.singletype_failures
                self._merged_before += pre.merge.object_count_before
                self._merged_after += pre.merge.object_count_after
        stats = run.result.stats()
        self._add_solve("pta.main", stats)
        v["pta.main.propagations_saved"] += stats["count_propagations_saved"]
        v["pta.main.scc_nodes_merged"] += stats["count_scc_nodes_merged"]
        v["pta.main.contexts"] += stats["method_contexts"]
        v["pta.main.nodes"] += stats["nodes"]
        if run.incr is not None:
            self.updates += 1
            self.warm_updates += run.incr.get("mode") == "warm"
            v["incr.warm_seed_facts"] += stats["count_warm_seed_facts"]
        if cell.solve == "warm":
            self.warm_pops += stats["iterations"]
        elif cell.solve == "cold":
            self.cold_pops += stats["iterations"]

    def _add_solve(self, layer: str, stats) -> None:
        v = self.values
        v[f"{layer}.pops"] += stats["iterations"]
        v[f"{layer}.facts"] += stats["count_facts_propagated"]
        v[f"{layer}.dispatch_attempts"] += stats["count_dispatch_attempts"]
        v[f"{layer}.objects"] += stats["abstract_objects"]

    def note_cache(self, cache: Optional[ArtifactCache],
                   before: Optional[Dict[str, int]]) -> None:
        """Record the cache traffic of the first round (``before`` is the
        cache's stats when it started)."""
        if cache is None:
            return
        v = self.values
        stats = cache.stats()
        hits = stats["hits"] - before["hits"]
        misses = stats["misses"] - before["misses"]
        v["incr.cache.hit_frac"] = hits / max(1, hits + misses)
        v["incr.cache.stores"] = stats["stores"] - before["stores"]
        v["incr.cache.bytes"] = sum(
            entry.stat().st_size for entry in os.scandir(cache.directory))

    def finish(self) -> Dict[str, float]:
        v = self.values
        if self._merged_before:
            v["core.merging.kept_frac"] = self._merged_after / self._merged_before
        if self.updates:
            v["incr.warm_frac"] = self.warm_updates / self.updates
        if self.cold_pops:
            v["incr.warm_pops_frac"] = self.warm_pops / self.cold_pops
        return dict(v)


COUNT_METRICS = (
    *PRECISION,
    "frontend.source_kb",
    "pta.pre.pops", "pta.pre.facts", "pta.pre.dispatch_attempts",
    "pta.pre.objects",
    "core.fpg.edges",
    "core.merging.equivalence_tests", "core.merging.singletype_failures",
    "core.merging.kept_frac",
    "pta.main.pops", "pta.main.facts", "pta.main.dispatch_attempts",
    "pta.main.propagations_saved", "pta.main.scc_nodes_merged",
    "pta.main.contexts", "pta.main.objects", "pta.main.nodes",
    "incr.warm_frac", "incr.warm_pops_frac", "incr.warm_seed_facts",
    "incr.cache.hit_frac", "incr.cache.stores", "incr.cache.bytes",
)


class Workload:
    name = ""
    #: the artifact cache the cells write through, if any
    cache: Optional[ArtifactCache] = None

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.counts = Counts()

    def composition(self) -> List[str]:
        raise NotImplementedError

    def setup(self, lt) -> None:
        raise NotImplementedError

    def round(self, index: int) -> Iterator[Cell]:
        raise NotImplementedError

    def final_checks(self, gate) -> List[str]:
        """Checks too costly for every cell, run once after the loop
        against the digests the gate recorded."""
        return []

    def close(self) -> None:
        pass


class MahjongPipeline(Workload):
    """The CLI user's request: source text in, M-* analysis, clients out.

    Every cell parses its program and pays for its own pre-analysis,
    FPG and merge; the main solve after them is small.
    """

    name = "mahjong_pipeline"
    #: the tier-1 and tier-2 profiles, each under one MAHJONG config, at
    #: the scale where its cell takes about 0.4 s on a 2-core VM.  Cells
    #: of one cost form one band of times, so the median and the tail
    #: percentile never sit on the edge between two bands of cells,
    #: where a few slow cells move them far.
    PLAN = (
        ("antlr", 1.0, "M-2obj"), ("fop", 1.0, "M-3obj"),
        ("luindex", 1.6, "M-2type"), ("lusearch", 1.2, "M-2obj"),
        ("bloat", 0.9, "M-3obj"), ("chart", 0.5, "M-2type"),
        ("pmd", 0.85, "M-2obj"), ("xalan", 0.9, "M-3obj"),
        ("checkstyle", 0.5, "M-2type"),
    )

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.plan = list(self.PLAN)
        random.Random(f"{seed}:order").shuffle(self.plan)

    def composition(self) -> List[str]:
        return [f"{p}@{s:g} {c} (parsed)" for p, s, c in self.plan]

    def setup(self, lt) -> None:
        self.programs = {p: seeded_program(p, s, self.seed)
                         for p, s, _ in self.plan}
        self.sources = {p: print_program(prog)
                        for p, prog in self.programs.items()}
        self._cell("luindex", "M-2obj").execute(lt)

    def round(self, index: int) -> Iterator[Cell]:
        for profile, _, config in self.plan:
            yield self._cell(profile, config)

    def _cell(self, profile: str, config: str) -> Cell:
        source = self.sources[profile]

        def execute(lt) -> AnalysisRun:
            with lt.span("frontend"):
                program = parse_program(source)
            return analyze(lt, program, config)

        return Cell(f"{profile} {config}", f"{profile}/{config}", profile,
                    execute, source_kb=len(source.encode()) / 1024)

    def final_checks(self, gate) -> List[str]:
        """Text round trip: the generated IR must analyze to the digest
        its printed and re-parsed text gave, on a seeded sample."""
        problems = []
        sample = random.Random(f"{self.seed}:roundtrip").sample(
            self.plan, ROUNDTRIP_SAMPLE)
        for profile, _, config in sample:
            parsed = gate.digests.get(f"{profile}/{config}")
            if parsed is None:
                # never ran to a result: already counted as failed, or
                # the loop hit its time limit before reaching it
                continue
            direct = run_analysis(self.programs[profile], config,
                                  timeout_seconds=CELL_TIMEOUT_S)
            if direct.result is None or result_digest(direct.result) != parsed:
                problems.append(f"{profile} {config}: digest of the parsed "
                                f"text differs from the IR's")
        return problems


class DeepContext(Workload):
    """The paper's allocation-site and allocation-type baselines on
    generated IR: no parse, pre-analysis, FPG or merge, so the main
    solve (propagation, contexts, SCC collapse) carries the cost."""

    name = "deep_context"
    #: (profile, scale, config): tier-2 profiles under the four
    #: baselines, plus the copy-cycle stressor, each at the scale where
    #: its cell takes about 0.4 s on a 2-core VM (see
    #: ``MahjongPipeline.PLAN`` for why).  2obj and 2cs stay on pmd: on
    #: the other tier-2 profiles they cost over 1.5 s even at scale 0.3.
    PLAN = (
        ("pmd", 0.8, "2obj"), ("pmd", 0.8, "2cs"),
        ("chart", 1.25, "2type"), ("checkstyle", 1.1, "2type"),
        ("bloat", 1.9, "T-2obj"), ("xalan", 1.9, "T-2obj"),
        ("cycles", 6.0, "ci"), ("cycles", 7.0, "2obj"),
    )

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.plan = list(self.PLAN)
        random.Random(f"{seed}:order").shuffle(self.plan)

    def composition(self) -> List[str]:
        return [f"{p}@{s:g} {c}" for p, s, c in self.plan]

    def setup(self, lt) -> None:
        self.programs = {(p, s): seeded_program(p, s, self.seed)
                         for p, s, _ in self.plan}
        analyze(lt, self.programs[("pmd", 0.8)], "2cs")

    def round(self, index: int) -> Iterator[Cell]:
        for profile, scale, config in self.plan:
            program = self.programs[(profile, scale)]
            yield Cell(f"{profile} {config}", f"{profile}/{config}",
                       f"{profile}@{scale:g}",
                       lambda lt, p=program, c=config: analyze(lt, p, c))


@dataclass
class _EditBase:
    session: IncrementalSession
    history: List[object] = field(default_factory=list)
    version: int = 0


class EditLoop(Workload):
    """The IDE loop: seeded single-method edits and undos on a base
    program.  Each step is a warm ``2obj`` update through
    ``IncrementalSession`` and an ``M-2obj`` run through one artifact
    cache, which undo steps read back.  Each edit also solves the edited
    program cold under ``2obj``: it checks the warm result and puts the
    warm start beside a cold solve on the clock."""

    name = "edit_loop"
    #: not smaller: at scale 0.5 even copy edits can make the warm start
    #: differ from a cold solve (see ``_copy_edit``)
    SCALE = 1.0
    #: chart is not edited: even its copy edits can make the warm start
    #: miss facts a cold solve finds (see ``_copy_edit``)
    BASES = ("antlr",)

    def __init__(self, seed: int, out_dir: str) -> None:
        super().__init__(seed)
        self.out_dir = out_dir
        self._rng = random.Random(f"{seed}:edits")

    #: a round: two edits and an undo to an earlier version.  With the
    #: cold solves, warm updates are 3 of a round's 8 cells, so the
    #: median falls inside one kind of cell, not between two.
    STEPS = (("antlr", "edit"), ("antlr", "edit"), ("antlr", "undo"))

    def composition(self) -> List[str]:
        return [f"{base}@{self.SCALE:g} {kind}: 2obj warm update"
                + (" + 2obj cold" if kind == "edit" else "")
                + " + M-2obj through the cache" for base, kind in self.STEPS]

    def setup(self, lt) -> None:
        os.makedirs(self.out_dir, exist_ok=True)
        self.cache = ArtifactCache(tempfile.mkdtemp(prefix="cache-",
                                                    dir=self.out_dir))
        self.bases: Dict[str, _EditBase] = {}
        for name in self.BASES:
            program = seeded_program(name, self.SCALE, self.seed)
            session = IncrementalSession(program, "2obj",
                                         timeout_seconds=CELL_TIMEOUT_S)
            session.analyze()
            analyze(lt, program, "M-2obj", artifact_cache=self.cache)
            self.bases[name] = _EditBase(session, [program])

    def close(self) -> None:
        self.bases = {}
        if self.cache is not None:
            shutil.rmtree(self.cache.directory, ignore_errors=True)
            self.cache = None

    def round(self, index: int) -> Iterator[Cell]:
        for name, kind in self.STEPS:
            base = self.bases[name]
            current = base.history[base.version]
            if kind == "edit":
                base.history.append(self._copy_edit(current))
                base.version = len(base.history) - 1
            else:
                base.version = self._rng.choice(
                    [v for v in range(len(base.history)) if v != base.version])
            program = base.history[base.version]
            key = f"{name}@v{base.version}"
            solve = "warm" if kind == "edit" else ""
            yield Cell(f"{name} {kind} 2obj warm", f"{key}/2obj", key,
                       lambda lt, b=base, p=program: self._update(lt, b, p),
                       solve=solve)
            if kind == "edit":
                # The same key as the warm update: the gate's repeat
                # check fails the cell unless the digests agree.
                yield Cell(f"{name} edit 2obj cold", f"{key}/2obj", key,
                           lambda lt, p=program: analyze(lt, p, "2obj"),
                           solve="cold")
            yield Cell(f"{name} {kind} M-2obj cached", f"{key}/M-2obj", key,
                       lambda lt, p=program: analyze(
                           lt, p, "M-2obj", artifact_cache=self.cache),
                       self._undo_check if kind == "undo" else no_check)

    def _copy_edit(self, program):
        """A seeded edit that appends ``x = y`` to one method.

        ``perturb_method`` also appends allocations and drops statements,
        but on a few percent of antlr's methods those edits make the warm
        start miss virtual call edges a cold solve finds (the gate flags
        them), so the loop draws edit seeds until the edit is a copy.
        On chart, and on antlr at scale 0.5, even copy edits sometimes
        do, so chart is not edited and antlr stays at scale 1."""
        while True:
            edit_seed = self._rng.randrange(1 << 30)
            method = pick_editable_method(program, seed=edit_seed,
                                          exclude_entry=True)
            edited = perturb_method(program, method, seed=edit_seed)
            before, after = (
                next(m.statements for m in version.all_methods()
                     if m.qualified_name == method)
                for version in (program, edited))
            if len(after) > len(before) and isinstance(after[-1], Copy):
                return edited

    @staticmethod
    def _update(lt, base: _EditBase, program) -> AnalysisRun:
        base.session.run_kwargs["tracer"] = lt.tracer
        run = base.session.update(program)
        with lt.span("clients"):
            run.metrics()
        return run

    @staticmethod
    def _undo_check(run, digest) -> List[str]:
        if set(run.pre.cache_hits) != {"fpg", "merge"}:
            return [f"undo step hit only {sorted(run.pre.cache_hits)}"]
        return []


WORKLOADS = {
    "mahjong_pipeline": MahjongPipeline,
    "deep_context": DeepContext,
    "edit_loop": EditLoop,
}
