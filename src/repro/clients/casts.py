"""May-fail casting client (Section 6's third client).

A cast ``x = (T) y`` *may fail* when the points-to set of ``y`` contains
an object whose class is not a subtype of ``T``.  The paper reports the
number of casts that may fail — fewer is more precise (more casts proven
safe).

The solver records, per reachable cast site, the objects flowing into
the cast source (:meth:`repro.pta.results.PointsToResult.cast_bits`, one
bit-vector per site and target class).  With objects numbered in class
hierarchy order, the objects whose class is a subtype of ``T`` form one
mask (:meth:`~repro.pta.results.PointsToResult.subtype_mask`), so the
test is ``bits & ~mask(T)``: the cast may fail exactly when that is not
empty.  The offending classes are read off those bits one class block
at a time (:meth:`~repro.pta.results.PointsToResult.classes_of_bits`),
not object by object (Toussi & Khademzadeh's class-hierarchy
bit-vectors, PAPERS.md).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Set, Tuple

from repro.pta.results import PointsToResult

__all__ = ["CastReport", "check_casts"]


@dataclass(frozen=True)
class CastReport:
    """Per-site classification of reachable casts."""

    safe_sites: FrozenSet[int]
    may_fail_sites: FrozenSet[int]
    #: cast site -> offending classes (for diagnostics/examples)
    offending_classes: Tuple[Tuple[int, FrozenSet[str]], ...]

    @property
    def may_fail_count(self) -> int:
        """The paper's "#may-fail casts" metric."""
        return len(self.may_fail_sites)

    @property
    def safe_count(self) -> int:
        return len(self.safe_sites)

    def offenders_of(self, cast_site: int) -> FrozenSet[str]:
        for site, classes in self.offending_classes:
            if site == cast_site:
                return classes
        return frozenset()


def check_casts(result: PointsToResult) -> CastReport:
    """Classify every reachable cast site as safe or may-fail.

    A cast whose source points to nothing is trivially safe.  Cast sites
    reachable under several contexts are judged on the union of their
    incoming objects (the paper's metrics are site-level).
    """
    safe: Set[int] = set()
    may_fail: Set[int] = set()
    offenders: Dict[int, Set[str]] = {}
    for cast_site, target_class, bits in result.cast_bits():
        failing = bits & ~result.subtype_mask(target_class)
        if failing:
            may_fail.add(cast_site)
            offenders.setdefault(cast_site, set()).update(
                result.classes_of_bits(failing))
            safe.discard(cast_site)
        elif cast_site not in may_fail:
            safe.add(cast_site)
    return CastReport(
        safe_sites=frozenset(safe),
        may_fail_sites=frozenset(may_fail),
        offending_classes=tuple(
            (site, frozenset(classes)) for site, classes in sorted(offenders.items())
        ),
    )
