"""Cone legs and cone triangles spelled out table by table: the reference for tests.

The library walks the index category's generator edges (``glidx.edges`` and
``glidx.faces_of``) to build cone legs and to list the triangles each cone mode
compares.  These helpers keep the hand-built versions, which read the anchor,
transition and projection tables directly, so that a test can compare the
two.

- ``complete_cone`` extends patch legs through the anchors and projections;
- ``cone_edges`` lists a mode's triangles, the diagonal (i = i) ones included;
- ``cone_failure`` is the first failing triangle of a mode, as (a, b, point).

Each runs over every object of the index category.  A datum stores only its
nerve, so an object outside it reads as the empty space and its anchors,
transitions and projections as empty maps (``paths.anchor``,
``paths.transition``, ``paths.coord``), and ``dense_cone`` gives a cone the
empty leg there.
"""

from __future__ import annotations

from paths import anchor, coord, transition
from topoglue import glidx
from topoglue.fintop import SpaceMap, compose, disagreement
from topoglue.gdata import EMPTY
from topoglue.glidx import pair, single
from topoglue.glue import Cone, _typed_legs


def dense_cone(gd, cone) -> Cone:
    """The cone with the empty leg at every object outside the datum's nerve it has none for."""
    empty = SpaceMap(EMPTY, cone.apex, {})
    legs = {obj: empty for obj in glidx.objects(gd.index) if not gd.stores(obj)}
    return Cone(cone.apex, {**legs, **cone.legs})


def complete_cone(gd, apex, single_legs) -> Cone:
    legs = {single(i): single_legs[i] for i in gd.index}
    for i in gd.index:
        for j in gd.index:
            if i != j:
                legs[pair(i, j)] = compose(legs[single(i)], anchor(gd, i, j))
    for obj in glidx.objects(gd.index):
        if obj.arity == 3:
            j, k = obj.rest
            legs[obj] = compose(legs[pair(obj.head, j)], coord(gd, obj.head, j, k))
    return Cone(apex, legs)


def cone_edges(gd, mode):
    """``full``: the functor's map of every generator edge.  ``figure3``: the anchor triangles
    [i] -> [i,j], the transition triangles [j,i] -> [i,j] and the projection
    triangles [i,n] -> [i|{j,k}].  ``figure4``: the same, with each transition
    triangle in its through-the-patch form [j] -> [i,j]."""
    if mode == "full":
        return [(a, b, gd.map(a, b)) for a, b in glidx.edges(gd.index)]
    idx = gd.index
    edges = []
    for i in idx:
        for j in idx:
            edges.append((single(i), pair(i, j), anchor(gd, i, j)))
            if mode == "figure3":
                edges.append((pair(j, i), pair(i, j), transition(gd, i, j)))
            else:
                through = compose(anchor(gd, j, i), transition(gd, i, j))
                edges.append((single(j), pair(i, j), through))
    for obj in glidx.objects(idx):
        if obj.arity == 3:
            i, (j, k) = obj.head, obj.rest
            edges += [(pair(i, j), obj, coord(gd, i, j, k)), (pair(i, k), obj, coord(gd, i, k, j))]
    return edges


def cone_failure(gd, cone, mode):
    legs = _typed_legs(gd, dense_cone(gd, cone), glidx.objects(gd.index))
    for a, b, f in cone_edges(gd, mode):
        point = disagreement([legs[a], f], [legs[b]])
        if point is not None:
            return a, b, point
    return None
