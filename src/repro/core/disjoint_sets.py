"""Disjoint-set forest (union–find) with union-by-rank and path compression.

Used in three places:

* Algorithm 1 maintains the growing type-consistency equivalence relation
  over heap objects (paper, Section 5);
* Algorithm 4 (Hopcroft–Karp) maintains the would-be-merged DFA state
  classes during an equivalence test;
* the Andersen solver's online cycle elimination collapses copy-edge
  strongly connected components of the constraint graph into single
  representative nodes (:mod:`repro.pta.scc`), via the dense int-keyed
  variant :class:`IntDisjointSets`.

Both heuristics bring the amortized cost of ``union``/``find`` to nearly
O(1) (inverse Ackermann).  A deliberately naive variant
(:class:`NaiveDisjointSets`) is kept for the ablation benchmark and as a
property-test oracle.
"""

from __future__ import annotations

from typing import Dict, Generic, Hashable, Iterable, List, Set, TypeVar

__all__ = ["DisjointSets", "IntDisjointSets", "NaiveDisjointSets"]

T = TypeVar("T", bound=Hashable)


class DisjointSets(Generic[T]):
    """Union–find over arbitrary hashable elements.

    Elements are added implicitly on first use (``find`` of an unknown
    element makes it a singleton), which matches how both algorithms in
    the paper initialize W and V with singletons.
    """

    def __init__(self, elements: Iterable[T] = ()) -> None:
        self._parent: Dict[T, T] = {}
        self._rank: Dict[T, int] = {}
        for element in elements:
            self.add(element)

    def add(self, element: T) -> None:
        """Make ``element`` a singleton set if it is new."""
        if element not in self._parent:
            self._parent[element] = element
            self._rank[element] = 0

    def __contains__(self, element: T) -> bool:
        return element in self._parent

    def __len__(self) -> int:
        return len(self._parent)

    def find(self, element: T) -> T:
        """Representative of ``element``'s set (with path compression)."""
        parent = self._parent
        if element not in parent:
            self.add(element)
            return element
        root = element
        while parent[root] != root:
            root = parent[root]
        # path compression: point everything on the path at the root
        while parent[element] != root:
            parent[element], element = root, parent[element]
        return root

    def union(self, a: T, b: T) -> T:
        """Unite the sets of ``a`` and ``b``; returns the new root."""
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return ra
        rank_a, rank_b = self._rank[ra], self._rank[rb]
        if rank_a < rank_b:
            ra, rb = rb, ra
        self._parent[rb] = ra
        if rank_a == rank_b:
            self._rank[ra] = rank_a + 1
        return ra

    def connected(self, a: T, b: T) -> bool:
        return self.find(a) == self.find(b)

    def classes(self) -> List[Set[T]]:
        """All equivalence classes (each a set), in no particular order."""
        by_root: Dict[T, Set[T]] = {}
        for element in self._parent:
            by_root.setdefault(self.find(element), set()).add(element)
        return list(by_root.values())


class IntDisjointSets:
    """Union–find over the dense int ids ``0..n-1``, array-backed.

    The generic :class:`DisjointSets` hashes every element through a
    dict; the solver's constraint-graph condensation does millions of
    ``find`` calls over interned node ids, so this variant stores the
    forest in two flat lists and uses iterative path halving.  The
    ``parent`` list is exposed read-only on purpose: the solver's hot
    loop peeks ``parent[i] == i`` to skip the ``find`` call for the
    overwhelmingly common unmerged node.
    """

    __slots__ = ("parent", "_rank", "merges")

    def __init__(self, size: int = 0) -> None:
        #: ``parent[i] == i`` ⇔ ``i`` is a representative.  Treat as
        #: read-only outside this class.
        self.parent: List[int] = list(range(size))
        self._rank: List[int] = [0] * size
        #: Total successful unions performed (0 ⇒ ``find`` is identity).
        self.merges = 0

    def add(self) -> int:
        """Append a fresh singleton; returns its id (``len - 1``)."""
        element = len(self.parent)
        self.parent.append(element)
        self._rank.append(0)
        return element

    def grow(self, size: int) -> None:
        """Ensure ids ``0..size-1`` exist (as singletons when new)."""
        start = len(self.parent)
        if size > start:
            self.parent.extend(range(start, size))
            self._rank.extend([0] * (size - start))

    def __len__(self) -> int:
        return len(self.parent)

    def find(self, element: int) -> int:
        """Representative of ``element``'s set (path halving)."""
        parent = self.parent
        while parent[element] != element:
            parent[element] = element = parent[parent[element]]
        return element

    def union(self, a: int, b: int) -> int:
        """Unite the sets of ``a`` and ``b``; returns the new root."""
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return ra
        rank = self._rank
        if rank[ra] < rank[rb]:
            ra, rb = rb, ra
        self.parent[rb] = ra
        if rank[ra] == rank[rb]:
            rank[ra] += 1
        self.merges += 1
        return ra

    def connected(self, a: int, b: int) -> bool:
        return self.find(a) == self.find(b)

    def roots(self) -> Iterable[int]:
        """All current representatives, in ascending id order."""
        parent = self.parent
        return (i for i in range(len(parent)) if parent[i] == i)

    def classes(self) -> List[Set[int]]:
        """All equivalence classes (each a set), in no particular order."""
        by_root: Dict[int, Set[int]] = {}
        for element in range(len(self.parent)):
            by_root.setdefault(self.find(element), set()).add(element)
        return list(by_root.values())


class NaiveDisjointSets(Generic[T]):
    """Union–find without rank or compression — worst case O(n) finds.

    Exists only as (a) an oracle for property tests and (b) the baseline
    of the disjoint-set ablation bench.
    """

    def __init__(self, elements: Iterable[T] = ()) -> None:
        self._parent: Dict[T, T] = {}
        for element in elements:
            self.add(element)

    def add(self, element: T) -> None:
        if element not in self._parent:
            self._parent[element] = element

    def __contains__(self, element: T) -> bool:
        return element in self._parent

    def __len__(self) -> int:
        return len(self._parent)

    def find(self, element: T) -> T:
        if element not in self._parent:
            self.add(element)
            return element
        while self._parent[element] != element:
            element = self._parent[element]
        return element

    def union(self, a: T, b: T) -> T:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self._parent[rb] = ra
        return ra

    def connected(self, a: T, b: T) -> bool:
        return self.find(a) == self.find(b)

    def classes(self) -> List[Set[T]]:
        by_root: Dict[T, Set[T]] = {}
        for element in self._parent:
            by_root.setdefault(self.find(element), set()).add(element)
        return list(by_root.values())
