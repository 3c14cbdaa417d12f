"""Named analysis configurations.

The paper's configuration grammar: an optional heap-abstraction prefix
(``M-`` for MAHJONG, ``T-`` for allocation-type, none for allocation
site) followed by a context-sensitivity name (``ci``, ``2cs``, ``2obj``,
``3obj``, ``2type``, ``3type``, ...).  Examples: ``3obj``, ``M-3obj``,
``T-2type``, ``M-ci``.  A name has no suffixes: anything after the
sensitivity (e.g. ``M-3obj@set``) is an unknown sensitivity.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

__all__ = ["AnalysisConfig", "parse_config", "PAPER_BASELINES", "PAPER_CONFIGS"]

#: The five baselines the paper evaluates (Section 6.2.1).
PAPER_BASELINES: Tuple[str, ...] = ("2cs", "2obj", "3obj", "2type", "3type")

#: Baselines plus their MAHJONG variants.
PAPER_CONFIGS: Tuple[str, ...] = PAPER_BASELINES + tuple(
    f"M-{name}" for name in PAPER_BASELINES
)


@dataclass(frozen=True)
class AnalysisConfig:
    """A parsed analysis name."""

    name: str
    heap: str  # "alloc-site" | "alloc-type" | "mahjong"
    sensitivity: str  # "ci", "2cs", "3obj", ...

    @property
    def needs_pre_analysis(self) -> bool:
        return self.heap == "mahjong"

    def __str__(self) -> str:
        return self.name


def parse_config(name: str) -> AnalysisConfig:
    """Parse a configuration name like ``M-3obj``.

    Raises ``ValueError`` for unknown prefixes or sensitivities (the
    sensitivity grammar is validated by
    :func:`repro.pta.context.selector_for`).
    """
    from repro.pta.context import selector_for

    heap = "alloc-site"
    sensitivity = name
    if name.startswith("M-"):
        heap = "mahjong"
        sensitivity = name[2:]
    elif name.startswith("T-"):
        heap = "alloc-type"
        sensitivity = name[2:]
    # validate eagerly so configuration typos fail before a long solve
    selector_for(sensitivity)
    return AnalysisConfig(name=name, heap=heap, sensitivity=sensitivity)
