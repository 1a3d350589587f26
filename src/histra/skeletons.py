"""Finite abstractions of assignments: which register names sit where.

A skeleton records, for every place, the set of register-name classes
present there.  Class ids are 1-based and canonical: scanning register
places left to right, each class is numbered at its first occurrence.
Names held only by histories are deliberately invisible here -- they are
what the counter reductions count -- and a class evicted from its last
register is dropped from the history places too.

Id 0 is reserved for "anonymous": a name that is not any register class
(fresh, or history-only).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Iterable, Iterator

from .core import Assignment, subsets
from .errors import NoWitness


@dataclass(frozen=True)
class Skeleton:
    m: int
    n: int
    phi: tuple[frozenset[int], ...]  # index i-1 holds the classes at place i

    def place(self, i: int) -> frozenset[int]:
        return self.phi[i - 1]

    def classes(self) -> frozenset[int]:
        out = set()
        for s in self.phi:
            out |= s
        return frozenset(out)

    def places_of(self, j: int) -> frozenset[int]:
        return frozenset(i + 1 for i, s in enumerate(self.phi) if j in s)

    def __repr__(self) -> str:
        cells = []
        for i, s in enumerate(self.phi):
            if s:
                cells.append(f"{i + 1}:{{{','.join(map(str, sorted(s)))}}}")
        return "Sk[" + " ".join(cells) + "]"


def _canonical(m: int, n: int, phi: list[set[int]]) -> Skeleton:
    """Drop register-less classes, then renumber by first register occurrence."""
    alive = set()
    for i in range(m, m + n):
        alive |= phi[i]
    relabel: dict[int, int] = {}
    for i in range(m, m + n):
        for j in sorted(phi[i]):
            if j in alive and j not in relabel:
                relabel[j] = len(relabel) + 1
    out = tuple(
        frozenset(relabel[j] for j in cell if j in relabel) for cell in phi
    )
    return Skeleton(m, n, out)


def skeleton_of(h: Assignment, m: int, n: int) -> Skeleton:
    """Abstract a concrete assignment."""
    reg_names = []
    for i in range(m + 1, m + n + 1):
        for a in h.place(i):
            if a not in reg_names:
                reg_names.append(a)
    ident = {a: j + 1 for j, a in enumerate(reg_names)}
    phi = [set(ident[a] for a in h.place(i) if a in ident) for i in range(1, m + n + 1)]
    return _canonical(m, n, phi)


def skel_at(s: Skeleton, x: Iterable[int]) -> frozenset[int]:
    """Classes whose place-set is exactly `x`; for empty `x`, the anonymous
    marker {0} (a fresh name can always be conjured)."""
    x = frozenset(x)
    if not x:
        return frozenset({0})
    return frozenset(j for j in s.classes() if s.places_of(j) == x)


def skel_move(s: Skeleton, j: int, post: Iterable[int]) -> Skeleton:
    """The skeleton after moving class `j` (0 for an anonymous name) to
    exactly `post`."""
    post = frozenset(post)
    if j != 0 and j not in s.classes():
        raise NoWitness(f"no class {j} in {s!r}")
    phi = [set(cell) for cell in s.phi]
    if j != 0:
        for cell in phi:
            cell.discard(j)
    if post & frozenset(range(s.m + 1, s.m + s.n + 1)):
        new_id = max(s.classes(), default=0) + 1
        for i in post:
            if i > s.m:
                phi[i - 1] = {new_id}  # registers hold one name: evict
            else:
                phi[i - 1].add(new_id)
    return _canonical(s.m, s.n, phi)


def skel_reset(s: Skeleton, targets: Iterable[int]) -> Skeleton:
    phi = [set() if (i + 1) in frozenset(targets) else set(cell)
           for i, cell in enumerate(s.phi)]
    return _canonical(s.m, s.n, phi)


def enumerate_skeletons(m: int, n: int) -> Iterator[Skeleton]:
    """All canonical skeletons of type (m, n), registers enumerated by
    restricted-growth labelling so each abstract shape appears once."""

    def register_labellings(k: int) -> Iterator[tuple[int, ...]]:
        if k == 0:
            yield ()
            return
        for prefix in register_labellings(k - 1):
            used = max(prefix, default=0)
            for v in range(0, used + 2):  # 0 = empty, used+1 = fresh class
                yield prefix + (v,)

    for regs in register_labellings(n):
        classes = sorted(set(regs) - {0})
        for hist_cells in product(subsets(classes), repeat=m):
            phi = [set(cell) for cell in hist_cells]
            phi += [set() if v == 0 else {v} for v in regs]
            yield Skeleton(m, n, tuple(frozenset(c) for c in phi))
