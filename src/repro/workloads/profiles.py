"""The 12 benchmark profiles (synthetic analogues of the paper's suite).

The paper evaluates antlr, bloat, chart, eclipse, fop, luindex,
lusearch, pmd, xalan (DaCapo) plus checkstyle, findbugs, JPC.  Each
profile here is a :class:`~repro.workloads.generator.WorkloadSpec`
shaped after what the paper reports about the program:

* ``eclipse`` has the largest heap (19529 objects, biggest NFAs) —
  largest spec;
* ``luindex`` the smallest (6190 objects, smallest NFAs);
* ``checkstyle`` is string-builder heavy (its largest equivalence class
  is 1303 StringBuilders, Table 1) — many homogeneous groups;
* the programs where 3obj is unscalable (bloat, eclipse, findbugs, JPC
  among them) get deep/fan-heavy dispatch kernels.

Absolute sizes are laptop-scale for a pure-Python solver; relative
ordering is what the benches check.  ``load_profile(name, scale)``
lets benches run everything smaller or bigger uniformly.
"""

from __future__ import annotations

from typing import Dict, List

from repro.ir.program import Program
from repro.workloads.generator import WorkloadSpec, generate

__all__ = ["PROFILES", "PROFILE_NAMES", "profile_spec", "load_profile",
           "TINY", "CYCLES"]


def _spec(name: str, seed: int, **kwargs) -> WorkloadSpec:
    return WorkloadSpec(name=name, seed=seed, **kwargs)


#: A minimal spec for unit/integration tests (fast everywhere).
TINY = _spec(
    "tiny", seed=7,
    element_classes=3, box_groups=2, box_sites_per_group=3, mixed_boxes=2,
    list_groups=1, list_sites_per_group=2, null_objects=1,
    kernel_receiver_sites=2, kernel_depth=2, kernel_fanout=2,
    factory_subtypes=2, poly_call_sites=2,
)

#: Copy-cycle-heavy stressor (not one of the paper's 12): deep copy
#: chains closed into cycles through shared static hubs, the shape the
#: solver's constraint-graph condensation targets.  Used by the
#: benchmark's ``deep_context`` workload and the SCC regression tests.
CYCLES = _spec(
    "cycles", seed=61,
    element_classes=6, box_groups=2, box_sites_per_group=3, mixed_boxes=2,
    list_groups=1, list_sites_per_group=2, null_objects=1,
    cycle_chains=24, cycle_chain_length=40, cycle_size=5, cycle_hubs=3,
    kernel_receiver_sites=4, kernel_depth=3, kernel_fanout=2,
    factory_subtypes=3, poly_call_sites=4,
)

PROFILES: Dict[str, WorkloadSpec] = {
    # --- tier 1: 3obj scalable (the paper's four 3obj-scalable programs)
    "antlr": _spec(
        "antlr", seed=11,
        element_classes=10, box_groups=8, box_sites_per_group=12,
        mixed_boxes=8, list_groups=6, list_sites_per_group=6,
        null_objects=4, kernel_receiver_sites=8, kernel_depth=5,
        kernel_fanout=11, kernel_strings=True,
        factory_subtypes=5, poly_call_sites=10,
        unique_records=500,
    ),
    "fop": _spec(
        "fop", seed=23,
        element_classes=10, box_groups=10, box_sites_per_group=10,
        mixed_boxes=6, list_groups=5, list_sites_per_group=4,
        null_objects=3, kernel_receiver_sites=8, kernel_depth=5,
        kernel_fanout=10, kernel_strings=True,
        factory_subtypes=5, poly_call_sites=8,
        unique_records=450,
    ),
    "luindex": _spec(
        "luindex", seed=29,
        element_classes=6, box_groups=5, box_sites_per_group=8,
        mixed_boxes=4, list_groups=3, list_sites_per_group=3,
        null_objects=2, kernel_receiver_sites=6, kernel_depth=4,
        kernel_fanout=9, kernel_strings=True,
        factory_subtypes=4, poly_call_sites=6,
        unique_records=200,
    ),
    "lusearch": _spec(
        "lusearch", seed=31,
        element_classes=7, box_groups=6, box_sites_per_group=8,
        mixed_boxes=4, list_groups=3, list_sites_per_group=4,
        null_objects=2, kernel_receiver_sites=10, kernel_depth=6,
        kernel_fanout=18, kernel_strings=True, kernel_count=2,
        factory_subtypes=4, poly_call_sites=6,
        unique_records=380,
    ),
    # --- tier 2: 3obj unscalable within budget, M-3obj scalable
    # (the paper's five programs M-3obj rescues, avg 33.42 min)
    "bloat": _spec(
        "bloat", seed=13,
        element_classes=10, box_groups=8, box_sites_per_group=10,
        mixed_boxes=10, list_groups=5, list_sites_per_group=5,
        null_objects=4, kernel_receiver_sites=10, kernel_depth=6,
        kernel_fanout=18, kernel_strings=True, kernel_count=2,
        factory_subtypes=6, poly_call_sites=12,
        unique_records=550,
    ),
    "chart": _spec(
        "chart", seed=17,
        element_classes=14, box_groups=12, box_sites_per_group=14,
        mixed_boxes=8, list_groups=6, list_sites_per_group=5,
        null_objects=5, kernel_receiver_sites=10, kernel_depth=6,
        kernel_fanout=18, kernel_strings=True, kernel_count=2,
        factory_subtypes=6, poly_call_sites=12,
        unique_records=800,
    ),
    "pmd": _spec(
        "pmd", seed=37,
        element_classes=12, box_groups=10, box_sites_per_group=12,
        mixed_boxes=8, list_groups=6, list_sites_per_group=5,
        null_objects=4, kernel_receiver_sites=10, kernel_depth=6,
        kernel_fanout=12, kernel_strings=True,
        factory_subtypes=6, poly_call_sites=10,
        unique_records=550,
    ),
    "xalan": _spec(
        "xalan", seed=41,
        element_classes=10, box_groups=9, box_sites_per_group=10,
        mixed_boxes=6, list_groups=5, list_sites_per_group=4,
        null_objects=3, kernel_receiver_sites=10, kernel_depth=6,
        kernel_fanout=18, kernel_strings=True, kernel_count=2,
        factory_subtypes=5, poly_call_sites=8,
        unique_records=530,
    ),
    "checkstyle": _spec(
        "checkstyle", seed=43,
        element_classes=12, box_groups=12, box_sites_per_group=16,
        mixed_boxes=6, list_groups=8, list_sites_per_group=6,
        null_objects=5, kernel_receiver_sites=10, kernel_depth=6,
        kernel_fanout=18, kernel_strings=True, kernel_count=2,
        factory_subtypes=5, poly_call_sites=8,
        unique_records=950,
    ),
    # --- tier 3: unscalable even under M-3obj within budget
    # (the paper's remaining three programs)
    "eclipse": _spec(
        "eclipse", seed=19,
        element_classes=16, box_groups=14, box_sites_per_group=16,
        mixed_boxes=12, list_groups=8, list_sites_per_group=6,
        null_objects=6, kernel_receiver_sites=10, kernel_depth=6,
        kernel_fanout=15, kernel_strings=True, kernel_poly_payloads=True, kernel_count=2,
        factory_subtypes=8, poly_call_sites=16,
        unique_records=800,
    ),
    "findbugs": _spec(
        "findbugs", seed=47,
        element_classes=12, box_groups=10, box_sites_per_group=12,
        mixed_boxes=10, list_groups=6, list_sites_per_group=5,
        null_objects=4, kernel_receiver_sites=10, kernel_depth=6,
        kernel_fanout=15, kernel_strings=True, kernel_poly_payloads=True, kernel_count=2,
        factory_subtypes=7, poly_call_sites=12,
        unique_records=500,
    ),
    "jpc": _spec(
        "jpc", seed=53,
        element_classes=10, box_groups=9, box_sites_per_group=10,
        mixed_boxes=8, list_groups=5, list_sites_per_group=4,
        null_objects=3, kernel_receiver_sites=10, kernel_depth=6,
        kernel_fanout=15, kernel_strings=True, kernel_poly_payloads=True, kernel_count=2,
        factory_subtypes=6, poly_call_sites=10,
        unique_records=400,
    ),
}

PROFILE_NAMES: List[str] = list(PROFILES)


def profile_spec(name: str, scale: float = 1.0) -> WorkloadSpec:
    """The (possibly scaled) spec of a named profile; the out-of-suite
    ``tiny`` and ``cycles`` specs included."""
    if name == "tiny":
        spec = TINY
    elif name == "cycles":
        spec = CYCLES
    else:
        try:
            spec = PROFILES[name]
        except KeyError:
            raise ValueError(
                f"unknown profile {name!r}; known: tiny, cycles, "
                f"{', '.join(PROFILES)}"
            ) from None
    return spec if scale == 1.0 else spec.scaled(scale)


def load_profile(name: str, scale: float = 1.0) -> Program:
    """Generate the program of a named profile."""
    return generate(profile_spec(name, scale))
