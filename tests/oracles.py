"""Independent brute-force oracles the library tests check against.

Everything here enumerates rather than using the library's per-point
criteria; the library path under test never feeds the expected values.
"""

from __future__ import annotations

import itertools

from topoglue.fintop import FiniteSpace, SpaceMap


def first_difference(f: SpaceMap, g: SpaceMap) -> str | None:
    """None when f and g are one map, else the first sorted point where they
    differ, or ``"<endpoint mismatch>"``: the reference for ``fintop.disagreement``."""
    if f.dom != g.dom or f.cod != g.cod:
        return "<endpoint mismatch>"
    return next((x for x in sorted(f.dom.points) if f(x) != g(x)), None)


def all_opens(space: FiniteSpace) -> set[frozenset]:
    """The full open-set lattice: all unions of minimal opens."""
    base = sorted({space.min_open[x] for x in space.points}, key=sorted)
    out = set()
    for bits in itertools.product((0, 1), repeat=len(base)):
        u = frozenset()
        for b, cell in zip(bits, base):
            if b:
                u = u | cell
        out.add(u)
    return out


def closure_opens(points, generators) -> set[frozenset]:
    """Close a generating family under finite union and intersection."""
    pts = frozenset(points)
    opens = {frozenset(), pts} | {frozenset(g) & pts for g in generators}
    while True:
        fresh = set()
        for a in opens:
            for b in opens:
                for c in (a | b, a & b):
                    if c not in opens:
                        fresh.add(c)
        if not fresh:
            return opens
        opens |= fresh


def min_open_from_lattice(opens, x) -> frozenset:
    out = None
    for o in opens:
        if x in o and (out is None or len(o) < len(out)):
            out = o if out is None else out & o
    return out


class _UF:
    def __init__(self, items):
        self.p = {x: x for x in items}

    def find(self, x):
        while self.p[x] != x:
            self.p[x] = self.p[self.p[x]]
            x = self.p[x]
        return x

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.p[ra] = rb


def tuple_equivalence(index):
    """Brute-force closure of the index-tuple identifications.

    Generated by (i,) ~ (i,i), (i,j,k) ~ (i,k,j) and (i,j,j) ~ (i,j) over all
    raw tuples of length 1 to 3; returns a map tuple -> representative.
    """
    idx = sorted(index)
    elems = [(i,) for i in idx]
    elems += [(i, j) for i in idx for j in idx]
    elems += [(i, j, k) for i in idx for j in idx for k in idx]
    uf = _UF(elems)
    for i in idx:
        uf.union((i,), (i, i))
        for j in idx:
            uf.union((i, j, j), (i, j))
            for k in idx:
                uf.union((i, j, k), (i, k, j))
    return {e: uf.find(e) for e in elems}


def all_tuples(index):
    idx = sorted(index)
    out = [(i,) for i in idx]
    out += [(i, j) for i in idx for j in idx]
    out += [(i, j, k) for i in idx for j in idx for k in idx]
    return out
