"""Reindexing, refinement morphisms, induced maps, and meta gluing.

A refinement relates a fine gluing functor (over index set J) to a coarse one
(over I) through an index map gamma: I -> J and one component map per object
over I.  The index map is a plain table from label to label, keyed by the
coarse index: its ends are the two functors' indices.  A gluing functor is
the validated datum itself (``GluingFunctor`` holds a datum that passes
``validate``), so its spaces and maps are the datum's.  Components run in
the continuous direction, from the fine functor's space at the reindexed
object to the coarse functor's space; this matches the computable
orientation of the worked fixtures, and the opposite-category bookkeeping
stays implicit.  A generator reindexed through gamma is itself a
generator or an identity, so the fine functor's map of it is
``GluingFunctor.map`` on the reindexed endpoints.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from . import glidx
from .errors import (
    CompositionMismatch,
    HypothesisBFailed,
    MissingComponent,
    ValidationFailed,
)
from .fintop import (
    SpaceMap,
    analyze_map,
    compose,
    disagreement,
    identity_map,
    is_homeomorphism,
    lift,
    read_only,
)
from .gdata import (
    EMPTY,
    GluingData,
    GluingFunctor,
    Report,
    _add_continuity,
    derive_triple_maps,
    functor_of,
)
from .glidx import GlObject, normalize, pair, single
from .glue import Cone, GluedSpace, glue, mediate


def reindex_object(gamma: Mapping[str, str], obj: GlObject) -> GlObject:
    raw = (obj.head,) + obj.rest
    return normalize(tuple(gamma[i] for i in raw))


@dataclass(frozen=True)
class Refinement:
    """An index map with one component per coarse object, fine-to-coarse, completed when built.

    ``gamma`` is a table from the coarse index into the fine one: a label
    of the coarse index without an entry, or whose entry is off the fine
    index, raises ``MissingComponent``, and entries at other labels are
    dropped.  Every patch component must be given.  A missing pair or
    triple component is lifted along the coarse functor's generator edges
    into it from its faces (``glidx.faces_of``): the patch of its head for a
    pair, and its two pair coordinates for a triple.  Pairs come before
    triples, in display order, over the coarse nerve and the objects outside
    it whose fine space has points (``_stranded``).  Anything not uniquely
    forced raises ``MissingComponent``; so does every such object outside
    the nerve, as nothing lifts into its empty space.

    Frozen: ``gamma`` is a read-only copy keyed by the coarse index, and
    ``components`` a read-only copy of the completed table.
    """

    gamma: Mapping[str, str]
    fine: GluingFunctor
    coarse: GluingFunctor
    components: Mapping[GlObject, SpaceMap]

    __hash__ = None  # the tables are not hashable

    def __post_init__(self):
        fine, coarse = self.fine, self.coarse
        for i in coarse.index:
            if i not in self.gamma:
                raise MissingComponent(f"index map undefined at {i!r}")
            if self.gamma[i] not in fine.index:
                raise MissingComponent(f"index map leaves target at {i!r}")
        gamma = read_only({i: self.gamma[i] for i in coarse.index})
        object.__setattr__(self, "gamma", gamma)
        comps = dict(self.components)
        for i in coarse.index:
            if single(i) not in comps:
                raise MissingComponent(f"patch component for {i!r} must be given")
        walk = [o for o in coarse.data.nerve.objects if o.arity > 1 and o not in comps]
        for obj in sorted([*walk, *_stranded(gamma, fine, coarse)], key=glidx.display_order):
            faces = glidx.faces_of(obj)
            fine_obj = reindex_object(gamma, obj)
            lifted = lift(
                [compose(comps[a], fine.map(reindex_object(gamma, a), fine_obj)) for a in faces],
                [coarse.map(a, obj) for a in faces],
            )
            if not isinstance(lifted, SpaceMap):
                raise MissingComponent(
                    f"pair component {obj} not uniquely forced at {lifted[0]!r}"
                    if obj.arity == 2
                    else f"triple component {obj} coordinates fall outside the pullback at {lifted[0]!r}"
                )
            comps[obj] = lifted
        object.__setattr__(self, "components", read_only(comps))

    def component(self, obj: GlObject) -> SpaceMap:
        """The component at ``obj``: the table's, else the empty map out of the fine space.

        Construction gives every object of the coarse nerve a component, and
        raises at every other object whose fine space has points, so off the
        table the fine space has none.
        """
        if obj in self.components:
            return self.components[obj]
        return SpaceMap(self.fine.space(reindex_object(self.gamma, obj)), EMPTY, {})


def _stranded(gamma: Mapping[str, str], fine: GluingFunctor, coarse: GluingFunctor) -> list[GlObject]:
    """The coarse objects outside the coarse nerve whose reindexed fine space has points.

    No component exists at such an object: it would run from those points
    into the empty space.  Read are the pair objects (i, j) whose reindexed
    pair is one of the fine nerve's, and the triple objects whose two faces
    are in the coarse nerve.  A triple with a face outside the nerve needs
    no look: its fine space maps into the face's (a reindexed generator), so
    it has points only when the face's has, and the face is listed, before
    it.  So the cost follows the two nerves and the fibres of gamma, not
    |I|^2.
    """
    data = coarse.data
    preimage: dict[str, list[str]] = {}
    for i in data.index:
        preimage.setdefault(gamma[i], []).append(i)
    objs = [
        pair(i, j)
        for a, b in fine.data.nerve.pairs
        for i in preimage.get(a, ())
        for j in preimage.get(b, ())
    ]
    near: dict[str, list[str]] = {i: [] for i in data.index}
    for i, j in data.nerve.pairs:  # in index order
        near[i].append(j)
    for i, labels in near.items():
        objs += [normalize((i, j, k)) for n, j in enumerate(labels) for k in labels[n + 1:]]
    return [o for o in objs if not data.stores(o) and fine.space(reindex_object(gamma, o)).points]


def identity_refinement(fun: GluingFunctor) -> Refinement:
    comps = {o: identity_map(fun.space(o)) for o in fun.data.nerve.objects}
    return Refinement({i: i for i in fun.index}, fun, fun, comps)


def check_refinement(r: Refinement) -> Report:
    """Verify every naturality square over the coarse nerve's generator edges, then the components' continuity.

    A square into an object outside the nerve runs out of the empty space
    (``Refinement`` raised at any other when built), so it commutes.
    """
    rep = Report()
    for a, b in sorted(r.coarse.data.nerve.edges, key=lambda ab: (repr(ab[0]), repr(ab[1]))):
        fine_map = r.fine.map(reindex_object(r.gamma, a), reindex_object(r.gamma, b))
        w = disagreement([r.component(a), fine_map], [r.coarse.map(a, b), r.component(b)])
        rep.add("naturality", f"{a}->{b}", w is None, w)
    for obj, comp in sorted(r.components.items(), key=lambda kv: repr(kv[0])):
        _add_continuity(rep, "component-continuous", repr(obj), comp)
    return rep


def paste(outer: Refinement, inner: Refinement) -> Refinement:
    """Compose two refinements component-wise.

    ``inner`` runs from the finest functor to the middle one and ``outer``
    from the middle one to the coarsest; the paste runs finest to coarsest.
    The two middle functors must realize equal data, maps included, else
    ``MissingComponent``.
    """
    if inner.coarse.data != outer.fine.data:
        raise MissingComponent("pasted refinements do not share a middle functor")
    gamma = {i: inner.gamma[j] for i, j in outer.gamma.items()}
    comps = {}
    for obj in outer.coarse.data.nerve.objects:
        mid = reindex_object(outer.gamma, obj)
        comps[obj] = compose(outer.component(obj), inner.component(mid))
    return Refinement(gamma, inner.fine, outer.coarse, comps)


def induced_map(
    r: Refinement, glued_fine: GluedSpace, glued_coarse: GluedSpace
) -> SpaceMap:
    """The unique map of glued spaces induced by a refinement.

    Determined by sending the image of each fine patch leg through the
    matching component and coarse leg; computed as the mediating map of the
    cone this builds on the fine gluing.  The index map must be onto the fine
    index set, and collapsed indices must agree on their induced leg.
    """
    rep = check_refinement(r)
    if not rep.passed:
        raise ValidationFailed(rep, "refinement does not check")
    return _induced_map(r, glued_fine, glued_coarse)


def _induced_map(r: Refinement, glued_fine: GluedSpace, glued_coarse: GluedSpace) -> SpaceMap:
    """``induced_map`` for a refinement already checked."""
    legs: dict[str, SpaceMap] = {}
    for j in r.fine.index:
        sources = [i for i in r.coarse.index if r.gamma[i] == j]
        if not sources:
            raise MissingComponent(
                f"index map misses fine index {j!r}; induced map is not determined"
            )
        candidates = [
            compose(glued_coarse.leg(single(i)), r.component(single(i)))
            for i in sources
        ]
        for other in candidates[1:]:
            if disagreement([candidates[0]], [other]) is not None:
                raise MissingComponent(
                    f"collapsed indices {sources} disagree on the leg for {j!r}"
                )
        legs[j] = candidates[0]
    cone = Cone(glued_coarse.space, {single(j): legs[j] for j in r.fine.index})
    return mediate(r.fine.data, glued_fine, cone)


@dataclass(frozen=True)
class GdfGluingData:
    """Gluing data whose nodes are gluing functors and edges are refinements.

    ``edge[(a, b)]`` is the refinement realizing the generator a -> b, with
    fine functor ``node[b]`` and coarse functor ``node[a]``.  Frozen: both
    tables are read-only copies.
    """

    index: tuple[str, ...]
    node: Mapping[GlObject, GluingFunctor]
    edge: Mapping[tuple[GlObject, GlObject], Refinement]

    __hash__ = None  # the tables are not hashable

    def __post_init__(self):
        object.__setattr__(self, "index", tuple(self.index))
        object.__setattr__(self, "node", read_only(self.node))
        object.__setattr__(self, "edge", read_only(self.edge))


def compose_gdf(meta: GdfGluingData) -> tuple[GluingFunctor, Report]:
    """Glue every node and assemble the glued spaces into one gluing functor.

    Every edge a -> b must run from fine functor ``node[b]`` to coarse functor
    ``node[a]`` (else ``CompositionMismatch``) and check.  Patches and overlaps
    of the composed datum are glued node spaces; anchors and transitions are
    the induced maps of the eta and tau edges.  Only the pair nodes whose
    glued space has points give overlaps: a pair with no node, or with an
    empty one, is an empty overlap, so the cost follows the meta's nodes,
    not |I|^2.  Triple spaces are the
    canonical pullbacks of the composed anchors, with transitions derived, and
    the composed datum must validate.  For each triple node present, the map
    into the pullback of its glued pair spaces assembled from the eta3 edges
    into it must be an isomorphism (``HypothesisBFailed``).  The triples
    walked are those of the composed datum's nerve and every triple node
    with points; a node with no points over a composed triple with none
    maps isomorphically, so it has no row.  The tau3 edges
    are checked but not read.  A missing patch node, node at either end of
    an edge, opposite node of an overlap or read edge raises
    ``MissingComponent``.
    """
    rep = Report()
    idx = tuple(sorted(set(meta.index)))
    glued: dict[GlObject, GluedSpace] = {}
    for obj in sorted(meta.node, key=repr):
        glued[obj] = glue(meta.node[obj].data)
        rep.add("node-glued", repr(obj), True, f"{len(glued[obj].space.points)} points")

    def node_at(obj: GlObject) -> GluingFunctor:
        if obj not in meta.node:
            raise MissingComponent(f"meta gluing has no node for {obj}")
        return meta.node[obj]

    for (a, b), r in sorted(meta.edge.items(), key=lambda kv: repr(kv[0])):
        coarse, fine = node_at(a), node_at(b)
        if r.coarse.data != coarse.data or r.fine.data != fine.data:
            raise CompositionMismatch(
                f"the refinement on edge {a}->{b} does not run from node {b} to node {a}"
            )
        edge_rep = check_refinement(r)
        rep.add("edge-checks", f"{a}->{b}", edge_rep.passed)
        if not edge_rep.passed:
            raise ValidationFailed(edge_rep, f"edge {a}->{b} does not check")

    def induced(a: GlObject, b: GlObject) -> SpaceMap:
        node_at(a)  # the opposite pair of an overlap may have no node
        if (a, b) not in meta.edge:
            raise MissingComponent(f"meta gluing has no edge for {a}->{b}")
        return _induced_map(meta.edge[(a, b)], glued[b], glued[a])

    # every space is read before any map, and every anchor before any transition
    for i in idx:
        node_at(single(i))  # every patch is a node
    patch = {i: glued[single(i)].space for i in idx}
    labels = set(idx)
    pairs = sorted(
        (obj.head, obj.rest[0])
        for obj, g in glued.items()
        if obj.arity == 2 and labels.issuperset((obj.head, *obj.rest)) and g.space.points
    )
    overlap = {(i, j): glued[pair(i, j)].space for i, j in pairs}
    anchor = {(i, j): induced(single(i), pair(i, j)) for i, j in pairs}
    transition = {(i, j): induced(pair(j, i), pair(i, j)) for i, j in pairs}
    composed = derive_triple_maps(GluingData(idx, patch, overlap, anchor, transition))
    fun = functor_of(composed)
    triples = {obj for obj in fun.data.nerve.objects if obj.arity == 3}
    triples.update(
        obj for obj in meta.node
        if obj.arity == 3 and labels.issuperset((obj.head, *obj.rest)) and glued[obj].space.points
    )
    for obj in sorted(triples, key=glidx.display_order):
        if obj not in meta.node:
            rep.add("pushout-condition", repr(obj), True, "no node given; skipped")
            continue
        faces = glidx.faces_of(obj)
        canonical = lift([induced(a, obj) for a in faces], [fun.map(a, obj) for a in faces])
        witness = None
        if not isinstance(canonical, SpaceMap):
            witness = f"{canonical[0]!r} lands outside the pullback"
        elif not is_homeomorphism(canonical):
            witness = f"canonical map is not an isomorphism: {analyze_map(canonical)}"
        rep.add("pushout-condition", repr(obj), witness is None, witness)
        if witness is not None:
            raise HypothesisBFailed(obj.head, *obj.rest, f"triple {obj}: {witness}")
    rep.add("composed-validates", "all", True)
    return fun, rep
