"""The MAHJONG heap abstraction — the paper's primary contribution.

Pipeline (Figure 5): a pre-analysis produces a field points-to graph
(:mod:`repro.core.fpg`); per-object NFAs/DFAs are built and shared
(:mod:`repro.core.automata`); pairs are tested for equivalence with a
modified Hopcroft–Karp algorithm (:mod:`repro.core.equivalence`);
Algorithm 1 merges type-consistent objects into equivalence classes
(:mod:`repro.core.merging`); and the heap modeler emits the merged
object map consumed by the main analysis
(:mod:`repro.core.heap_modeler`).
"""

from repro.core.automata import (
    DFAState,
    ERROR_TYPE_NAME,
    SequentialDFA,
    SequentialNFA,
    SharedAutomata,
    build_nfa,
    nfa_to_dfa,
)
from repro.core.disjoint_sets import DisjointSets, NaiveDisjointSets
from repro.core.equivalence import (
    brute_force_equivalent,
    dfa_equivalent,
    shared_equivalent,
)
from repro.core.fpg import (
    FPGIntegrityError,
    NULL_OBJECT,
    NULL_TYPE_NAME,
    FieldPointsToGraph,
    build_fpg,
)
from repro.core.heap_modeler import (
    EquivalenceClassReport,
    build_heap_abstraction,
    describe_classes,
)
from repro.core.merging import (
    MergeOptions,
    MergeResult,
    merge_type_consistent_objects,
)
from repro.core.pathcheck import reached_types, type_consistent_by_paths

__all__ = [
    "FieldPointsToGraph",
    "build_fpg",
    "FPGIntegrityError",
    "NULL_OBJECT",
    "NULL_TYPE_NAME",
    "SequentialNFA",
    "SequentialDFA",
    "DFAState",
    "SharedAutomata",
    "build_nfa",
    "nfa_to_dfa",
    "ERROR_TYPE_NAME",
    "dfa_equivalent",
    "shared_equivalent",
    "brute_force_equivalent",
    "DisjointSets",
    "NaiveDisjointSets",
    "MergeOptions",
    "MergeResult",
    "merge_type_consistent_objects",
    "build_heap_abstraction",
    "describe_classes",
    "EquivalenceClassReport",
    "reached_types",
    "type_consistent_by_paths",
]
