"""Finite abstractions of assignments: which register names sit where.

A skeleton is the set of place-sets of the names that some register holds,
each place-set in full (history places included).  A register holds at most
one name, so two register names never share a place-set, and the set needs
no numbering to be canonical.  Names held only by histories are deliberately
invisible here -- they are what the counter reductions count -- so a name
evicted from its last register drops out of the skeleton.  A `Skeleton`
is a NamedTuple: it equals the plain tuple of its fields and hashes as
that tuple.
"""

from __future__ import annotations

from itertools import product
from typing import Iterable, Iterator, NamedTuple

from .core import Assignment, subsets
from .errors import NoWitness


class Skeleton(NamedTuple):
    m: int
    n: int
    placesets: frozenset[frozenset[int]]  # each meets the registers m+1..m+n

    def __repr__(self) -> str:
        cells = sorted(sorted(y) for y in self.placesets)
        return "Sk[" + " ".join("{" + ",".join(map(str, y)) + "}" for y in cells) + "]"


def _keep(m: int, ys: Iterable[frozenset[int]]) -> frozenset[frozenset[int]]:
    """The place-sets that still meet a register (a place above m)."""
    return frozenset(y for y in ys if max(y, default=0) > m)


def skeleton_of(h: Assignment, m: int, n: int) -> Skeleton:
    """Abstract a concrete assignment."""
    names = set().union(*(h.place(i) for i in range(m + 1, m + n + 1)))
    return Skeleton(m, n, frozenset(h.placeset_of(a) for a in names))


def skel_at(s: Skeleton, x: Iterable[int]) -> bool:
    """Whether some register name sits at exactly `x`."""
    return frozenset(x) in s.placesets


def skel_move(s: Skeleton, x: Iterable[int], post: Iterable[int]) -> Skeleton:
    """The skeleton after moving a name from exactly `x` to exactly `post`.

    A name whose `x` meets no register (fresh, or history-only) is not in
    the skeleton; a register in `post` evicts the name it held."""
    x, post = frozenset(x), frozenset(post)
    if max(x, default=0) > s.m and x not in s.placesets:
        raise NoWitness(f"no register name at {sorted(x)} in {s!r}")
    wiped = frozenset(p for p in post if p > s.m)
    others = (y - wiped for y in s.placesets if y != x)
    return Skeleton(s.m, s.n, _keep(s.m, [post, *others]))


def skel_reset(s: Skeleton, targets: Iterable[int]) -> Skeleton:
    targets = frozenset(targets)
    return Skeleton(s.m, s.n, _keep(s.m, (y - targets for y in s.placesets)))


def enumerate_skeletons(m: int, n: int) -> Iterator[Skeleton]:
    """All skeletons of type (m, n): a partition of some of the registers,
    each block joined by any set of histories."""

    def blocks(regs: list[int]) -> Iterator[list[frozenset[int]]]:
        """Each partition of each subset of `regs`, once."""
        if not regs:
            yield []
            return
        r = regs[0]
        for p in blocks(regs[1:]):
            yield p
            yield p + [frozenset({r})]
            for i, b in enumerate(p):
                yield p[:i] + [b | {r}] + p[i + 1:]

    hist = subsets(range(1, m + 1))
    for p in blocks(list(range(m + 1, m + n + 1))):
        for hs in product(hist, repeat=len(p)):
            yield Skeleton(m, n, frozenset(b | y for b, y in zip(p, hs)))
