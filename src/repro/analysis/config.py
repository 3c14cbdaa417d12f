"""Named analysis configurations.

The paper's configuration grammar: an optional heap-abstraction prefix
(``M-`` for MAHJONG, ``T-`` for allocation-type, none for allocation
site) followed by a context-sensitivity name (``ci``, ``2cs``, ``2obj``,
``3obj``, ``2type``, ``3type``, ...).  Examples: ``3obj``, ``M-3obj``,
``T-2type``, ``M-ci``.

A configuration may additionally pin constraint-graph condensation
with an ``@`` suffix token: ``M-3obj@noscc`` disables cycle collapsing
and ``@scc`` forces it on; ``M-3obj`` (no suffix) resolves through
``$REPRO_SCC`` (default on; see :mod:`repro.pta.scc`).  The ``bench
scc`` ablation runs the same configuration both ways.  Any other
``@`` token is an error.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

__all__ = ["AnalysisConfig", "parse_config", "PAPER_BASELINES", "PAPER_CONFIGS"]

#: Recognized ``@`` condensation tokens (resolved by
#: :func:`repro.pta.scc.resolve_scc` to on/off).
_SCC_TOKENS = {"scc": True, "noscc": False}

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
    #: constraint-graph condensation; ``None`` = process default
    #: (resolved through :func:`repro.pta.scc.resolve_scc`).
    scc: Optional[bool] = None

    @property
    def needs_pre_analysis(self) -> bool:
        return self.heap == "mahjong"

    def __str__(self) -> str:
        return self.name


def parse_config(name: str) -> AnalysisConfig:
    """Parse a configuration name like ``M-3obj`` or ``2obj@noscc``.

    Raises ``ValueError`` for unknown prefixes, sensitivities, or
    ``@`` suffix tokens (the sensitivity grammar is validated by
    :func:`repro.pta.context.selector_for`).
    """
    from repro.pta.context import selector_for

    base = name
    scc: Optional[bool] = None
    if "@" in name:
        base, *tokens = name.split("@")
        for token in tokens:
            if token not in _SCC_TOKENS:
                raise ValueError(
                    f"unknown @-token {token!r} in {name!r}; known: "
                    f"{', '.join(sorted(_SCC_TOKENS))}"
                )
            if scc is not None:
                raise ValueError(
                    f"conflicting condensation tokens in {name!r}"
                )
            scc = _SCC_TOKENS[token]
    heap = "alloc-site"
    sensitivity = base
    if base.startswith("M-"):
        heap = "mahjong"
        sensitivity = base[2:]
    elif base.startswith("T-"):
        heap = "alloc-type"
        sensitivity = base[2:]
    # validate eagerly so configuration typos fail before a long solve
    selector_for(sensitivity)
    return AnalysisConfig(name=name, heap=heap, sensitivity=sensitivity,
                          scc=scc)
