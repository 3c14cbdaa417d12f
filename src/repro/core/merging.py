"""MAHJONG's main algorithm (Algorithm 1): merge type-consistent objects.

Given the field points-to graph of a pre-analysis,
:func:`merge_type_consistent_objects`:

1. partitions the heap objects by type (objects of different types are
   never type-consistent — line 5 of Algorithm 1);
2. within a partition, checks ``SINGLETYPE-CHECK`` (Condition 2) and
   automata equivalence (Condition 1, via Hopcroft–Karp over shared
   DFAs) for candidate pairs, merging with a disjoint-set forest;
3. returns the quotient ``H/≡`` as a :class:`MergeResult`, from which the
   merged object map (MOM) of Definition 2.2 is produced.

Each object is compared only against the representative of each
existing class of its type.  Because ``≡`` is an equivalence relation
(transitive), this yields exactly the quotient of Algorithm 1's literal
all-pairs loop while doing O(n · #classes) instead of O(n²) equivalence
tests.  The literal loop is kept in ``tests/merge_oracle.py`` as the
oracle that checks this.

The paper checks the per-type partitions, its synchronization-free
parallel unit, on 8 threads (Section 5).  Here they run serially: on
this reproduction's workloads a worker pool never beat the serial loop
(EXPERIMENTS.md, "Parallel execution scaling").
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.core.automata import DFAState, SharedAutomata
from repro.core.disjoint_sets import DisjointSets
from repro.core.equivalence import shared_equivalent
from repro.core.fpg import NULL_OBJECT, FieldPointsToGraph

__all__ = ["MergeResult", "merge_type_consistent_objects", "MergeOptions"]


@dataclass
class MergeOptions:
    """Knobs for the merging engine (all paper-default when omitted)."""

    #: representative choice per class: "min_site" or "max_site" (both
    #: deterministic) — Example 3.2 shows the choice can change M-ktype
    #: precision, so it is exposed for the ablation bench.
    representative_policy: str = "min_site"

    def __post_init__(self) -> None:
        if self.representative_policy not in ("min_site", "max_site"):
            raise ValueError(
                f"unknown representative policy {self.representative_policy!r}"
            )


@dataclass
class MergeResult:
    """The quotient set H/≡ plus statistics.

    ``mom`` is the merged object map of Definition 2.2: every object maps
    to its class representative (identity for singletons).
    """

    mom: Dict[int, int]
    classes: List[Set[int]]
    seconds: float
    equivalence_tests: int = 0
    singletype_failures: int = 0
    shared_states: int = 0

    @property
    def object_count_before(self) -> int:
        return len(self.mom)

    @property
    def object_count_after(self) -> int:
        return len(self.classes)

    @property
    def reduction(self) -> float:
        """Fraction of objects eliminated (the paper reports 62% avg)."""
        before = self.object_count_before
        if before == 0:
            return 0.0
        return 1.0 - self.object_count_after / before

    def class_of(self, obj: int) -> Set[int]:
        representative = self.mom.get(obj, obj)
        for cls in self.classes:
            if representative in cls:
                return cls
        return {obj}

    def class_size_histogram(self) -> Dict[int, int]:
        """size → number of classes of that size (Figure 9's data)."""
        histogram: Dict[int, int] = {}
        for cls in self.classes:
            histogram[len(cls)] = histogram.get(len(cls), 0) + 1
        return histogram

    def equivalence_classes(self) -> Dict[int, List[int]]:
        """representative → sorted members, singletons included.

        The representative is ``mom``'s image of the members (each
        equivalence class is single-type by Definition 2.1, so this is
        the unit the hierarchy-ordered numbering assigns one id slot
        per heap context to — see :mod:`repro.pta.numbering`).
        """
        grouped: Dict[int, List[int]] = {}
        for obj, representative in self.mom.items():
            grouped.setdefault(representative, []).append(obj)
        for members in grouped.values():
            members.sort()
        return grouped


def merge_type_consistent_objects(
    fpg: FieldPointsToGraph,
    options: Optional[MergeOptions] = None,
    shared: Optional[SharedAutomata] = None,
) -> MergeResult:
    """Run Algorithm 1 over ``fpg`` and return the quotient H/≡."""
    opts = options if options is not None else MergeOptions()
    start = time.monotonic()
    automata = shared if shared is not None else SharedAutomata(fpg)

    # Partition by type (line 5 of Algorithm 1).
    by_type: Dict[str, List[int]] = {}
    for obj in fpg.objects():
        by_type.setdefault(fpg.type_of(obj), []).append(obj)
    for objs in by_type.values():
        objs.sort()
    partitions = [objs for objs in by_type.values() if len(objs) > 1]

    equivalence_tests = singletype_failures = 0
    sets: DisjointSets = DisjointSets(fpg.objects())
    for objs in partitions:
        pairs, tests, failures = _merge_partition(objs, automata)
        for a, b in pairs:
            sets.union(a, b)
        equivalence_tests += tests
        singletype_failures += failures

    classes = [cls for cls in sets.classes()]
    mom = _build_mom(classes, opts.representative_policy)
    return MergeResult(
        mom=mom,
        classes=classes,
        seconds=time.monotonic() - start,
        equivalence_tests=equivalence_tests,
        singletype_failures=singletype_failures,
        shared_states=automata.state_count(),
    )


def _merge_partition(
    objs: Sequence[int],
    automata: SharedAutomata,
) -> Tuple[List[Tuple[int, int]], int, int]:
    """Find the merges within one same-type partition.

    Returns ``(union pairs, equivalence tests, singletype failures)``.
    """
    equivalence_tests = 0
    singletype_failures = 0
    pairs: List[Tuple[int, int]] = []
    # each representative beside its DFA root
    representatives: List[Tuple[int, DFAState]] = []
    for obj in objs:
        if not automata.singletype(obj):
            singletype_failures += 1
            continue
        root = automata.dfa_root(obj)
        for representative, rep_root in representatives:
            equivalence_tests += 1
            if shared_equivalent(rep_root, root):
                pairs.append((representative, obj))
                break
        else:
            representatives.append((obj, root))
    return pairs, equivalence_tests, singletype_failures


def _build_mom(classes: List[Set[int]], policy: str) -> Dict[int, int]:
    """Definition 2.2: map every object to its class representative."""
    mom: Dict[int, int] = {}
    for cls in classes:
        representative = min(cls) if policy == "min_site" else max(cls)
        for obj in cls:
            mom[obj] = representative
    mom.pop(NULL_OBJECT, None)
    return mom
