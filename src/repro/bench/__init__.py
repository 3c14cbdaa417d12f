"""Benchmark harnesses regenerating every table and figure of the paper.

Each harness is runnable as ``python -m repro.bench <name>``:

=============  ========================================================
``motivating``  Section 2.1 pmd numbers (3obj vs T-3obj vs M-3obj)
``table1``      Table 1: notable equivalence classes
``table2``      Table 2: efficiency & precision, 5 analyses × 12 programs
``fig8``        Figure 8: abstract object counts per heap abstraction
``fig9``        Figure 9: equivalence-class size distribution
``prestats``    Section 6.1.1: FPG/NFA statistics, pre-analysis times
``ablation``    Design-choice ablations (DESIGN.md §5)
``all``         Everything above, written to a report
=============  ========================================================
"""

from repro.bench.fig8 import Fig8Result, run_fig8
from repro.bench.fig9 import Fig9Result, run_fig9
from repro.bench.motivating import MotivatingResult, run_motivating
from repro.bench.prestats import PreStatsResult, run_prestats
from repro.bench.runners import DEFAULT_BUDGET_SECONDS, ProgramUnderBench
from repro.bench.table1 import Table1Result, run_table1
from repro.bench.table2 import Table2Result, run_table2

__all__ = [
    "run_table2",
    "Table2Result",
    "run_table1",
    "Table1Result",
    "run_fig8",
    "Fig8Result",
    "run_fig9",
    "Fig9Result",
    "run_motivating",
    "MotivatingResult",
    "run_prestats",
    "PreStatsResult",
    "ProgramUnderBench",
    "DEFAULT_BUDGET_SECONDS",
]
