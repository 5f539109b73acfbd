"""Generator paths of the index category: the path-level reference for tests.

The library models a morphism by its endpoints alone, since the index
category is thin.  These helpers keep the paths, so that a test can evaluate a
functor along one chosen factorization and compare it with another.  A path
is a tuple of generators in the order they apply, read out of an explicit
start object; the empty path is the identity.

- ``find_path`` searches ``glidx.edges`` breadth first;
- ``realize`` composes a functor's generator maps along a path;
- ``reindex`` maps a path through an index map;
- ``coord`` reads a datum's coordinate map of a triple from its labels, as
  a reference that does not go through the library's law plan.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Mapping

from topoglue import glidx
from topoglue.fintop import FiniteSpace, SpaceMap, compose, identity_map
from topoglue.gdata import EMPTY, GluingData, GluingFunctor
from topoglue.glidx import GlGen, GlObject, normalize, pair, single
from topoglue.refine import reindex_object

Path = tuple[GlGen, ...]


@lru_cache(maxsize=None)
def _successors(index: tuple[str, ...]) -> dict[GlObject, list[tuple[GlObject, GlGen]]]:
    succ: dict[GlObject, list[tuple[GlObject, GlGen]]] = {o: [] for o in glidx.objects(index)}
    for (d, c), gen in glidx.edges(index).items():
        succ[d].append((c, gen))
    return {d: sorted(out, key=lambda e: repr(e[0])) for d, out in succ.items()}


def find_path(index, a: GlObject, b: GlObject) -> Path | None:
    """A shortest generator path a -> b (successors in display order), or None."""
    succ = _successors(tuple(sorted(set(index))))
    if a not in succ or b not in succ:
        return None
    if a == b:
        return ()
    frontier: list[tuple[GlObject, Path]] = [(a, ())]
    visited = {a}
    while frontier:
        nxt = []
        for obj, path in frontier:
            for tgt, gen in succ[obj]:
                if tgt in visited:
                    continue
                if tgt == b:
                    return path + (gen,)
                visited.add(tgt)
                nxt.append((tgt, path + (gen,)))
        frontier = nxt
    return None


def realize(fun: GluingFunctor, dom: GlObject, path: Path) -> SpaceMap:
    """The map ``fun`` gives the path out of ``dom``, running from its end's space to dom's.

    Each generator contributes its map (``GluingFunctor.map``, the empty map
    into an object outside the nerve); an identity generator has none and
    contributes the identity.
    """
    glidx.compose_path(dom, path)  # CompositionMismatch unless the path composes
    out = identity_map(fun.space(dom))
    for gen in path:
        if gen.dom != gen.cod:
            out = compose(out, fun.map(gen.dom, gen.cod))
    return out


def reindex(gamma: Mapping[str, str], dom: GlObject, path: Path) -> tuple[GlObject, Path]:
    """The image of the path out of ``dom``: every generator's indices mapped through gamma."""
    return reindex_object(gamma, dom), tuple(
        GlGen(gen.kind, tuple(gamma[i] for i in gen.indices)) for gen in path
    )


def overlap(gd: GluingData, i: str, j: str) -> FiniteSpace:
    """Overlap (i,j): its table entry for a pair of the nerve, else the empty space ``space_of`` gives."""
    if (i, j) in gd.overlap:
        return gd.overlap[(i, j)]
    return gd.space_of(pair(i, j))


def anchor(gd: GluingData, i: str, j: str) -> SpaceMap:
    """Anchor (i,j): its table entry for a pair of the nerve, else the empty map ``GluingData.map`` gives."""
    if (i, j) in gd.anchor:
        return gd.anchor[(i, j)]
    return gd.map(single(i), pair(i, j))


def transition(gd: GluingData, i: str, j: str) -> SpaceMap:
    """Transition (i,j): its table entry for a pair of the nerve, else the empty map ``GluingData.map`` gives."""
    if (i, j) in gd.transition:
        return gd.transition[(i, j)]
    return gd.map(pair(j, i), pair(i, j))


def coord(gd: GluingData, i: str, j: str, k: str) -> SpaceMap:
    """The map from the space of [i,j,k] onto overlap (i,j).

    For a genuine triple this is the stored pullback projection; when the
    tuple collapses to the pair (i,j) it is the identity; and for an object
    outside the datum's nerve it is the empty map.
    """
    obj = normalize((i, j, k))
    if not gd.stores(obj):
        return SpaceMap(EMPTY, gd.space_of(pair(i, j)), {})
    if obj.arity == 3:
        return gd.triple_proj[(obj, j)]
    return identity_map(gd.space_of(obj))
