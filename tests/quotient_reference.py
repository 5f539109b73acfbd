"""The quotient by a regrow-to-fixpoint hull: the reference for ``fintop.quotient``.

Classes come from the same union-find, named by their least member, and a
pair naming an unknown point raises as the library does, in pair order.
Each class's minimal open is grown from its members: add the minimal opens
of every point held, saturate under the equivalence, and repeat until
nothing changes; the hull is then pushed forward to classes.  The library
reads the same open off a class graph by reachability, so the two must
give the same space, table and projection.
"""

from __future__ import annotations

from typing import Iterable

from topoglue.fintop import FiniteSpace, SpaceMap, _UnionFind, make_space


def quotient(space: FiniteSpace, pairs: Iterable[tuple[str, str]]) -> tuple[FiniteSpace, SpaceMap]:
    uf = _UnionFind(space.points)
    for x, y in pairs:
        space.require(x)
        space.require(y)
        uf.union(x, y)
    rep = {x: uf.find(x) for x in space.points}
    members: dict[str, set[str]] = {}
    for x, r in rep.items():
        members.setdefault(r, set()).add(x)

    def hull(start: set[str]) -> frozenset[str]:
        cur = set(start)
        while True:
            grown = set()
            for x in cur:
                grown |= space.min_open[x]
            for x in list(grown):
                grown |= members[rep[x]]
            if grown == cur:
                return frozenset(cur)
            cur = grown

    table = {r: frozenset(rep[x] for x in hull(mem)) for r, mem in members.items()}
    q = make_space(f"{space.space_id}/~", members.keys(), table)
    return q, SpaceMap(space, q, dict(rep))
