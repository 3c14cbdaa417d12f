"""Dispatcher: ``python -m repro.bench <harness> [options]``."""

from __future__ import annotations

import sys
from typing import Callable, Dict, List

from repro.bench import (ablation, batch, compare, fig8, fig9, motivating,
                         prestats, report, table1, table2)

_HARNESSES: Dict[str, Callable[[List[str]], int]] = {
    "motivating": motivating.main,
    "table1": table1.main,
    "table2": table2.main,
    "fig8": fig8.main,
    "fig9": fig9.main,
    "prestats": prestats.main,
    "ablation": ablation.main,
    "compare": compare.main,
    "batch": batch.main,
    "report": report.main,
}


def main(argv: List[str]) -> int:
    if not argv or argv[0] in ("-h", "--help"):
        names = ", ".join([*_HARNESSES, "all"])
        print(f"usage: python -m repro.bench <harness> [options]\n"
              f"harnesses: {names}")
        return 0
    name, rest = argv[0], argv[1:]
    if name == "all":
        status = 0
        for harness_name, harness in _HARNESSES.items():
            if harness_name == "report":
                continue
            print(f"\n{'#' * 70}\n# {harness_name}\n{'#' * 70}")
            status |= harness(rest)
        return status
    harness = _HARNESSES.get(name)
    if harness is None:
        print(f"unknown harness {name!r}; known: {', '.join(_HARNESSES)}, all",
              file=sys.stderr)
        return 2
    return harness(rest)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
