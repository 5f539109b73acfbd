"""Glued spaces: the standard quotient as a cone, and the universal property.

The glued space of a gluing datum is the disjoint union of the patches modulo
the overlap relation, carrying the final topology.  With its legs it is a cone
over the gluing data functor, the candidate colimit: ``GluedSpace`` is a
``Cone`` that also keeps the overlap relation and each glued point's class.
The cone checks, the six glued-object properties, ``mediate`` and the oracles
take any cone.  The relation is emitted raw (one pair per overlap point).
Data that passes ``validate`` need not yield an equivalence relation when an
anchor is not injective, so ``glue`` checks the raw relation with
``check_equivalence``, a report with one row per property (reflexive,
symmetric, transitive), and raises ``NotEquivalence``, a cocycle diagnostic
naming the first failing row's witness, instead of silently closing it.

Everything here walks the datum's nerve (a ``glidx.Category``): a cone has one
leg per object of the nerve, and a triangle, factorization or overlap out
of an object outside it runs out of the empty space, so it holds and is not
checked.  Only (e) of the glued-object properties looks further: two
patches whose legs meet over an empty overlap fail it.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from itertools import product
from typing import Iterable, Iterator, Mapping, Sequence

from . import fintop
from .errors import (
    CompositionMismatch,
    IllDefined,
    MissingLeg,
    NotCovering,
    NotEquivalence,
    ValidationFailed,
)
from .fintop import (
    FiniteSpace,
    SpaceMap,
    analyze_map,
    collisions,
    compose,
    disagreement,
    discontinuities,
    failure_witnesses,
    is_open,
    non_embedding_points,
    non_open_points,
    read_only,
)
from .gdata import GluingData, Report, _pair_typed, _require_triples, validate
from .glidx import GlObject, faces_of, single

CONE_MODES = ("full", "figure3", "figure4")


@dataclass(frozen=True)
class Cone:
    """An apex with one leg per index-category object, in the continuous direction.

    Frozen: ``legs`` is a read-only copy of the table the cone was built from.
    The cone hashes its apex and its leg pairs, computed on first use and kept.
    """

    apex: FiniteSpace
    legs: Mapping[GlObject, SpaceMap]

    def __post_init__(self):
        object.__setattr__(self, "legs", read_only(self.legs))

    def __hash__(self):
        return self._content_hash

    @cached_property
    def _content_hash(self) -> int:
        return hash((self.apex, frozenset(self.legs.items())))

    def leg(self, obj: GlObject) -> SpaceMap:
        if obj not in self.legs:
            raise MissingLeg(f"cone has no leg for {obj}")
        return self.legs[obj]


@dataclass(frozen=True)
class GluedSpace(Cone):
    """The glued quotient as a cone, with the raw overlap relation and each point's class.

    ``classes[q]`` holds the tagged patch points (``x@i``) that land on q;
    like ``legs``, the table is a read-only copy.  The hash adds the relation
    and the class pairs to the cone's.
    """

    relation: tuple[tuple[str, str], ...]
    classes: Mapping[str, frozenset[str]]

    def __post_init__(self):
        super().__post_init__()
        object.__setattr__(self, "relation", tuple(self.relation))
        object.__setattr__(self, "classes", read_only(self.classes))

    __hash__ = Cone.__hash__

    @cached_property
    def _content_hash(self) -> int:
        legs = frozenset(self.legs.items())
        return hash((self.apex, legs, self.relation, frozenset(self.classes.items())))

    @property
    def space(self) -> FiniteSpace:
        return self.apex


def _meeting(images: Mapping[str, Iterable[str]]) -> set[tuple[str, str]]:
    """The ordered pairs (i, j), i == j among them, of labels whose point sets share a point."""
    owners: dict[str, list[str]] = {}
    for i, points in images.items():
        for y in points:
            owners.setdefault(y, []).append(i)
    return set().union(*(product(shared, repeat=2) for shared in owners.values()))


def _links(gd: GluingData) -> dict[tuple[str, str], list[tuple[str, str, str]]]:
    """The identification each overlap point makes, per pair (i, j) of the nerve in index order.

    For each sorted point u of overlap (i, j), the link (u, x, y) identifies
    x = anchor_ij(u) in patch i with y = anchor_ji(transition_ij(u)) in
    patch j.  The maps a link reads are typed first (``gdata._pair_typed``):
    data that need not have passed ``validate`` may send a link out of its
    patches, and a mistyped map raises CompositionMismatch naming the pair.
    Typed, transition (i, j) lands in an overlap with points, so (j, i) is
    in the nerve too.
    """
    links = {}
    for i, j in gd.nerve.pairs:
        if not (all(_pair_typed(gd, i, j)) and _pair_typed(gd, j, i)[0]):
            raise CompositionMismatch(f"the maps linking patches {i!r} and {j!r} are mistyped")
        anchor_ij, anchor_ji, trans = gd.anchor[(i, j)], gd.anchor[(j, i)], gd.transition[(i, j)]
        links[(i, j)] = [
            (u, anchor_ij(u), anchor_ji(trans(u))) for u in sorted(gd.overlap[(i, j)].points)
        ]
    return links


def build_relation(gd: GluingData) -> list[tuple[str, str]]:
    """Raw identification pairs on the disjoint union of patches, one per link."""
    report = validate(gd)
    if not report.passed:
        raise ValidationFailed(report)
    _, inj = gd._union
    return sorted(
        {(inj[i](x), inj[j](y)) for (i, j), links in _links(gd).items() for _, x, y in links}
    )


def check_equivalence(relation: Iterable[tuple[str, str]], gd: GluingData) -> Report:
    """Check the raw relation itself (not its closure) is an equivalence.

    One row per property, ``reflexive``, ``symmetric`` and ``transitive``,
    each with subject ``relation`` and the first failing point, pair or triple
    as its witness.  A transitivity failure is a cocycle diagnostic: it means
    the pair data do not cohere, and the witness triple names the offending
    points.
    """
    rel = set(relation)
    succ: dict[str, set[str]] = {}
    for a, b in rel:
        succ.setdefault(a, set()).add(b)
    refl = next(((p,) for p in sorted(gd._union[0].points) if (p, p) not in rel), None)
    sym = next(((a, b) for a, b in sorted(rel) if (b, a) not in rel), None)
    trans = next(
        (
            (a, b, c)
            for a in sorted(succ)
            for b in sorted(succ[a])
            for c in sorted(succ.get(b, ()))
            if (a, c) not in rel
        ),
        None,
    )
    rep = Report()
    for name, witness in (("reflexive", refl), ("symmetric", sym), ("transitive", trans)):
        rep.add(name, "relation", witness is None, witness)
    return rep


def glue(gd: GluingData) -> GluedSpace:
    """Quotient the patches by the overlap relation and assemble all legs.

    The patch legs are the quotient projection restricted to each patch;
    ``complete_cone`` extends them to the pair and triple legs.
    """
    relation = build_relation(gd)
    eq = check_equivalence(relation, gd)
    if not eq.passed:
        flags = " ".join(f"{e.name}={e.ok}" for e in eq.entries)
        witness = eq.failures()[0].witness
        raise NotEquivalence(
            witness, f"overlap relation is not an equivalence: {flags} witness={witness}"
        )
    total, inj = gd._union
    q, projection = fintop.quotient(total, relation)
    patch_legs = {i: compose(projection, inj[i]) for i in gd.index}
    classes: dict[str, set[str]] = {qp: set() for qp in q.points}
    for x in total.points:
        classes[projection(x)].add(x)
    return GluedSpace(
        q,
        complete_cone(gd, q, patch_legs).legs,
        relation=tuple(relation),
        classes={k: frozenset(v) for k, v in classes.items()},
    )


def complete_cone(
    gd: GluingData, apex: FiniteSpace, single_legs: Mapping[str, SpaceMap]
) -> Cone:
    """Extend patch legs to a full leg family using the forced factorizations.

    Each pair and triple leg of the nerve, pairs first, is its first face's
    leg composed with the map of the edge between them (``glidx.faces_of``,
    ``GluingData.map``).
    """
    legs: dict[GlObject, SpaceMap] = {}
    for i in gd.index:
        if i not in single_legs:
            raise MissingLeg(f"no leg for patch {i!r}")
        legs[single(i)] = single_legs[i]
    for obj in (o for o in gd.nerve.objects if o.arity > 1):
        a = faces_of(obj)[0]
        legs[obj] = compose(legs[a], gd.map(a, obj))
    return Cone(apex, legs)


def _cone_edges(gd: GluingData, mode: str) -> list[tuple[GlObject, GlObject, SpaceMap]]:
    """The triples (a, b, f) whose triangles ``leg(a) . f == leg(b)`` a mode checks.

    A filter of the nerve's generator edges a -> b, in edge order, with f
    the edge's map.  ``full`` keeps every edge (so it needs every triple
    transition).
    ``figure3`` drops the tau3 edges, keeping the anchor, transition and
    projection triangles; ``figure4`` drops them too and takes each
    transition triangle [j,i] -> [i,j] through the patch, as [j] -> [i,j].
    """
    if mode == "full":
        _require_triples(gd)
    edges = []
    for (a, b), gen in gd.nerve.edges.items():
        if gen.kind == "tau" and mode == "figure4":
            i, j = gen.indices
            edges.append((single(j), b, compose(gd.anchor[(j, i)], gd.transition[(i, j)])))
        elif gen.kind != "tau3" or mode == "full":
            edges.append((a, b, gd.map(a, b)))
    return edges


def _typed_legs(gd: GluingData, cone: Cone, objs: Iterable[GlObject]) -> dict[GlObject, SpaceMap]:
    """The cone's legs at ``objs``, each typed against its object and the apex.

    Every leg is looked up before any is typed, so a missing leg raises
    MissingLeg first; a leg that does not start at its object's space or does
    not land in the apex raises CompositionMismatch.
    """
    legs = {a: cone.leg(a) for a in objs}
    for a, leg in legs.items():
        # the same space is mostly the same object: test that before comparing tables
        space = gd.space_of(a)
        if leg.dom is not space and leg.dom != space:
            raise CompositionMismatch(f"the leg of {a} does not start at {space.space_id!r}")
        if leg.cod is not cone.apex and leg.cod != cone.apex:
            raise CompositionMismatch(
                f"the leg of {a} does not land in the apex {cone.apex.space_id!r}"
            )
    return legs


def cone_failure(
    gd: GluingData, cone: Cone, mode: str = "full"
) -> tuple[GlObject, GlObject, str] | None:
    """The first triangle ``leg(a) . f == leg(b)`` of a mode that fails, as (a, b, point).

    Every leg is typed first (``_typed_legs``), so a missing or mistyped leg
    raises in every mode.  Then the triples of ``_cone_edges`` are compared
    in turn (``disagreement``); the point is the first one where the two
    sides differ, and None means every triangle commutes.
    """
    if mode not in CONE_MODES:
        raise ValueError(f"unknown cone mode {mode!r}")
    legs = _typed_legs(gd, cone, gd.nerve.objects)
    for a, b, f in _cone_edges(gd, mode):
        point = disagreement([legs[a], f], [legs[b]])
        if point is not None:
            return a, b, point
    return None


def check_cone(gd: GluingData, cone: Cone, mode: str = "full") -> bool:
    """Whether the candidate is a cone: ``cone_failure`` finds no failing triangle.

    Each mode is a filter of the nerve's generator edges (``_cone_edges``).
    ``full`` covers every morphism: the index category is thin and every
    morphism is a path of generator edges, so when each edge commutes every
    path commutes; a triangle out of an object outside the nerve runs out
    of the empty space, so it commutes.  ``figure3`` and ``figure4`` check
    the paper's triangles; like ``full`` they compare no identity, so no
    diagonal anchor or transition.
    The three modes are equivalent verdicts for lawful data.
    """
    return cone_failure(gd, cone, mode) is None


def check_glued_properties(gd: GluingData, candidate: Cone) -> Report:
    """The six named glued-object properties for a candidate cone.

    (a) pair legs factor through the anchors; (b) triple legs factor through
    the projections; (c) the two routes across an overlap agree; (d) the patch
    leg images cover the space; (e) overlap images equal pairwise intersections
    of patch images; (f) every patch leg is injective and continuous.  Every
    leg is typed first (``_typed_legs``), so a missing or mistyped leg raises.
    The (f) rows ask only for continuity and injectivity
    (``fintop.failure_witnesses``).

    The (a), (b), (c) and (e) rows walk the nerve; a property of an object
    outside it holds, as all its maps are empty, except (e) for two patches
    whose images meet over an empty overlap, which gets a failing row.
    """
    rep = Report()
    idx = gd.index
    legs = _typed_legs(gd, candidate, gd.nerve.objects)
    for obj in (o for o in gd.nerve.objects if o.arity > 1):
        paths = [[legs[a], gd.map(a, obj)] for a in faces_of(obj)]
        failed = [w for p in paths if (w := disagreement(p, [legs[obj]])) is not None]
        if obj.arity == 2:
            name, subject = "a-pair-factors", f"({obj.head},{obj.rest[0]})"
        else:
            name, subject = "b-triple-factors", repr(obj)
        rep.add(name, subject, not failed, failed[-1] if failed else None)
    links = _links(gd)
    for (i, j), pairs in links.items():
        leg_i, leg_j = legs[single(i)], legs[single(j)]
        w = next((u for u, x, y in pairs if leg_i(x) != leg_j(y)), None)
        rep.add("c-overlap-agree", f"({i},{j})", w is None, w)
    images = {i: legs[single(i)].image() for i in idx}
    missing = sorted(candidate.apex.points.difference(*images.values()))
    rep.add("d-covering", "all", not missing, missing[0] if missing else None)
    meeting = set(links) | _meeting(images)
    for i, j in sorted(meeting):
        via_ij = {legs[single(i)](x) for _, x, _ in links.get((i, j), ())}
        via_ji = {legs[single(j)](x) for _, x, _ in links.get((j, i), ())}
        both = images[i] & images[j]
        ok = via_ij == via_ji == both
        rep.add(
            "e-intersections",
            f"({i},{j})",
            ok,
            None if ok else f"{sorted(via_ij)} vs {sorted(via_ji)} vs {sorted(both)}",
        )
    for i in idx:
        w = failure_witnesses(legs[single(i)], discontinuities, collisions)
        rep.add("f-leg-embedding-free", i, w is None, w)
    return rep


def mediate(gd: GluingData, glued: Cone, cone: Cone) -> SpaceMap:
    """The unique map from the glued space matching the cone's patch legs.

    The patch legs of both cones are typed first (``_typed_legs``), so a
    missing or mistyped leg raises.  For each patch i and point x, the glued
    point ``glued.leg([i])(x)`` is sent to ``cone.leg([i])(x)``.  A glued
    point no patch point reaches has no provenance;
    one sent to two apex points means the cone conditions were violated.
    Continuity is automatic from the final topology but still checked.
    """
    patches = list(map(single, gd.index))
    into_glued = _typed_legs(gd, glued, patches)
    values: dict[str, set[str]] = {qp: set() for qp in glued.apex.points}
    for obj, into_apex in _typed_legs(gd, cone, patches).items():
        for x, y in into_apex.table.items():
            values[into_glued[obj](x)].add(y)
    table: dict[str, str] = {}
    for qp in sorted(values):
        if not values[qp]:
            raise NotCovering(f"glued point {qp!r} has no provenance")
        if len(values[qp]) != 1:
            raise IllDefined((qp, sorted(values[qp])))
        (table[qp],) = values[qp]
    mu = SpaceMap(glued.apex, cone.apex, table)
    if fintop.discontinuities(mu):
        raise IllDefined((glued.apex.space_id, "mediating map not continuous", analyze_map(mu)))
    return mu


@dataclass
class UniversalReport(Report):
    """A report that also counts the compatible cone families it checked."""

    cones_checked: int = 0


def default_apexes() -> list[FiniteSpace]:
    from .fixtures import arc3, disc2, pt, sierp

    return [pt(), sierp(), disc2(), arc3()]


def _cone_search(
    gd: GluingData, apex: FiniteSpace, budget: int
) -> tuple[list[tuple[str, list[tuple[str, int]]]], Iterator[tuple[str, ...]]]:
    """The link classes of the patch points, and a lazy search for class images into an apex.

    ``classes`` lists each patch, in index order, with its sorted points and
    the link class of each.  The patch points (i, x) fall into link classes
    by the oracle's own union-find over the overlap links (``_links``),
    independent of the quotient ``glue`` builds; classes are numbered in
    order of their first member.  Every point of a class takes one image,
    so the search (``fintop.backtrack``) assigns the classes in turn, each
    with the union of its members' minimal-open relations, under the map
    search's order constraint (a map of finite spaces is continuous iff it
    keeps every such pair, Stong 1966).  It yields one image per class for
    each compatible family; ``budget`` bounds the class assignments tried.
    A mistyped map a link reads raises CompositionMismatch here, before the
    search starts.
    """
    patch_points = [(i, sorted(gd.patch[i].points)) for i in gd.index]
    pos = {ix: p for p, ix in enumerate((i, x) for i, pts in patch_points for x in pts)}
    links = fintop._UnionFind(range(len(pos)))  # a class's root is its first member
    for (i, j), pairs in _links(gd).items():
        for _, x, y in pairs:
            links.union(pos[(i, x)], pos[(j, y)])
    number = {r: c for c, r in enumerate(sorted({links.find(p) for p in pos.values()}))}
    cls = {ix: number[links.find(p)] for ix, p in pos.items()}  # the link class of each patch point
    min_open: list[set[int]] = [set() for _ in number]
    for (i, x), c in cls.items():
        min_open[c].update(cls[(i, z)] for z in gd.patch[i].min_open[x])
    allowed = fintop._allowed_images(range(len(number)), min_open, apex)
    search = f"cone search into {apex.space_id!r}"
    classes = [(i, [(x, cls[(i, x)]) for x in pts]) for i, pts in patch_points]
    return classes, fintop.backtrack(search, len(number), lambda img: sorted(allowed(img)), budget)


def enumerate_cones(
    gd: GluingData, apex: FiniteSpace, budget: int = fintop.DEFAULT_MAP_BUDGET
) -> list[dict[str, SpaceMap]]:
    """All compatible patch-leg families into an apex (brute-force oracle).

    A family is compatible when the legs of patches i and j agree on every
    overlap point u: leg_i(anchor_ij(u)) == leg_j(anchor_ji(transition_ij(u))).
    The list holds, as patch maps, every class image the link-class search
    (``_cone_search``) yields.  Families come out in the order of the
    Cartesian product of the per-patch map lists: two families first differ
    at the first member of the first class they differ on.  ``budget``
    bounds the class assignments tried.  A mistyped map a link reads raises
    CompositionMismatch (``_links``).
    """
    classes, images = _cone_search(gd, apex, budget)
    return [
        {i: SpaceMap(gd.patch[i], apex, {x: img[c] for x, c in xs}) for i, xs in classes}
        for img in images
    ]


def verify_universal(
    gd: GluingData,
    glued: Cone,
    apexes: Sequence[FiniteSpace] | None = None,
    budget: int = fintop.DEFAULT_MAP_BUDGET,
) -> UniversalReport:
    """Oracle for the universal property: every cone has exactly one mediator.

    The candidate must itself be a cone with continuous legs.  For each apex,
    every compatible patch-leg family is checked and the continuous maps
    out of the glued space commuting with all legs are counted; exactly one
    must exist and it must agree with ``mediate``.  The count is a hash join
    on tables: each candidate h, an image tuple over the sorted glued points
    (``fintop.continuous_images``), is counted under its restriction tuple,
    the tables of h . leg_i over the sorted points of every patch i, and each
    family is looked up under the tuple of its own leg tables.  The tables
    are compared alone because h . leg_i and the family's leg i both run from
    patch i to the apex.

    The families stream from the link-class search (``_cone_search``) one
    class-image tuple at a time, and are neither held together nor built
    into maps: a family's key reads each patch point's class image.  A
    family's one mediator h agrees with ``mediate`` without calling it:
    the key is h . leg_i, so ``mediate`` sends every glued point a patch leg
    reaches to h's value there, and h is continuous.  It fails only on the
    first glued point no patch leg reaches (NotCovering), which depends on
    the candidate's legs alone, so it is found once and reported for every
    family with one mediator.  The map search out of the glued space runs
    first and counts point assignments against ``budget``, and the cone
    search counts link-class assignments, so an apex too large to search
    ends in SearchBudgetExceeded.

    With no ``apexes`` named (the CLI never names any) the apexes are PT,
    SIERP, DISC2, ARC3 and the candidate's own apex.  The first four are T0,
    so a pass with them says nothing about cones into spaces that are not:
    ``trivial_data(indisc2())`` with its constant cone into PT passes with
    the defaults (9 cones) and fails with PT, SIERP and I2 named (7 cones).

    Named as apexes, SIERP and the indiscrete 2-point space I2 suffice once
    the candidate C is a cone with continuous legs.  Write Q for the glued
    space and m: Q -> C for its mediating map; C is a colimit iff m is a
    homeomorphism.  Every function into I2 is continuous, so every function
    on Q gives a cone into I2.  If the legs miss a point of C, two maps
    C -> I2 that differ only there mediate the same cone.  If m(q) = m(q')
    for q != q', no map mediates the cone separating q from q'.  So I2 makes
    m a bijection.  An open U of Q gives the cone of U's indicator
    Q -> SIERP; its only candidate mediator is continuous iff m(U) is open,
    so SIERP makes m open.
    """
    rep = UniversalReport()
    if apexes is None:
        apexes = default_apexes() + [glued.apex]
    # A terminal cone must itself be a cone: a candidate whose legs do not
    # commute, or are not continuous, can still receive a unique map from
    # every cone, so this check is what rules out finer-than-lawful quotients
    # and topologies finer than the final one.
    failure = cone_failure(gd, glued, "figure4")
    if failure is not None:
        witness = "triangle {} -> {} fails at {!r}".format(*failure)
    else:
        witness = next(
            (
                f"leg {obj} is not continuous at {bad}"
                for obj, leg in glued.legs.items()
                if (bad := fintop.discontinuities(leg))
            ),
            None,
        )
    is_cone = witness is None
    rep.add("candidate-is-cone", glued.apex.space_id, is_cone, witness)
    patch_points = [(i, sorted(gd.patch[i].points)) for i in gd.index]
    glued_points = sorted(glued.apex.points)
    at = {q: n for n, q in enumerate(glued_points)}
    # the position of the glued point each patch point lands on, in restriction-tuple order
    route = [at[glued.leg(single(i))(x)] for i, pts in patch_points for x in pts]
    # the first glued point no patch leg reaches: mediate finds no provenance for it
    reached = set(route)
    uncovered = next((q for n, q in enumerate(glued_points) if n not in reached), None)
    for apex in apexes:
        mediators = Counter(
            tuple([h[n] for n in route]) for h in fintop.continuous_images(glued.apex, apex, budget)
        )
        classes, images = _cone_search(gd, apex, budget)
        flat = [c for _, xs in classes for _, c in xs]  # each patch point's class, in route order
        for img in images:
            rep.cones_checked += 1
            key = tuple([img[c] for c in flat])
            count = mediators[key]
            if count != 1:
                legs = {i: [(x, img[c]) for x, c in xs] for i, xs in classes}
                witness = f"{count} mediators for legs {legs}"
                rep.add("unique-mediator", apex.space_id, False, witness)
                continue
            if is_cone and uncovered is not None:
                witness = f"glued point {uncovered!r} has no provenance"
                rep.add("mediate-agrees", apex.space_id, False, witness)
        rep.add("apex-done", apex.space_id, True)
    return rep


def _non_open_data(gd: GluingData) -> list[tuple[str, tuple[str, str]]]:
    """The anchors, then the transitions, of the nerve's pairs that are not open maps, as (kind, key):
    the data is open iff there is none, as every map off the nerve is empty, so open."""
    return [
        (kind, key)
        for kind, table in (("anchor", gd.anchor), ("transition", gd.transition))
        for key in gd.nerve.pairs
        if non_open_points(table[key])
    ]


class OtopReport(Report):
    """A report that also says whether all anchors and transitions are open.

    It is applicable iff it has no ``data-open`` row; since those rows fail,
    a report that is not applicable never passes.
    """

    @property
    def applicable(self) -> bool:
        return all(e.name != "data-open" for e in self.entries)


def check_otop(gd: GluingData, glued: Cone) -> OtopReport:
    """Open-map strengthening: with all-open data, legs are open embeddings.

    Each anchor or transition that is not an open map adds a failing
    ``data-open`` row, which makes the report not applicable, but the leg
    facts are still recorded.  The maps are those of the nerve's pairs: an
    empty map is open.  The patch legs are typed first (``_typed_legs``), so
    a missing or mistyped leg raises.
    """
    legs = _typed_legs(gd, glued, map(single, gd.index))
    rep = OtopReport()
    for kind, key in _non_open_data(gd):
        rep.add("data-open", f"{kind}{key}", False, "not an open map")
    covered = set()
    for obj, leg in legs.items():
        w = failure_witnesses(leg, discontinuities, collisions, non_embedding_points)
        rep.add("leg-embedding", obj.head, w is None, w)
        img = leg.image()
        rep.add("leg-image-open", obj.head, is_open(glued.apex, img))
        covered |= img
    rep.add("legs-cover", "all", covered == glued.apex.points)
    return rep
