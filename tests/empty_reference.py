"""The checks and constructions that treat every object alike: the reference for tests.

A datum stores only its nerve, and the library walks only that: a map out
of an object outside it is the empty map, so it needs no row, triangle or
lift.  The library also asks a map only for the property a row needs.  These
helpers keep the dense versions, which run every object of the index
category through the same path, so that a test can compare the two: every
composite goes through ``compose`` and every comparison through a scan of
the composites (``disagreement``), every pullback scans its fibers, every
triple transition is lifted, and every map property comes from one full
``analyze_map``, which keeps its own flags beside the witnesses in a
``MapRecord`` (``is_homeomorphism`` is its ``homeomorphism``).  An object
outside the nerve reads as the empty space, its maps as empty maps
(``paths.overlap``, ``paths.anchor``, ``paths.transition``, ``paths.coord``,
``triple_map``) and a cone's leg there as the empty leg
(``cone_reference.dense_cone``).  ``on_nerve`` keeps the rows the library
gives: those about the nerve's objects, and every failing one.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, replace

from cone_reference import dense_cone
from oracles import first_difference
from itertools import product

from paths import anchor, coord, overlap, transition
from topoglue import fintop, glidx
from topoglue.errors import CompositionMismatch, DuplicateName, NotDetermined
from topoglue.fintop import (
    SpaceMap,
    compose,
    discontinuities,
    identity_map,
    is_open,
    lift,
    make_space,
)
from topoglue.gdata import EMPTY, GluingData, Report, _generator_image, _require_triples, make_gluing_data
from topoglue.glidx import normalize, pair, single
from topoglue.glue import CONE_MODES, Cone, OtopReport, _typed_legs


def row_object(gd: GluingData, subject: str):
    """The object a row's subject names: ``(i,j)``, ``(i,j,k)``, ``[i,j,k]``,
    a triple key's repr or a patch label; None for a subject naming none."""
    if subject.startswith("('"):
        return normalize(ast.literal_eval(subject))
    if subject[:1] in "([" and subject[-1:] in ")]":
        return normalize(tuple(subject[1:-1].split(",")))
    return single(subject) if subject in gd.index else None


def on_nerve(gd: GluingData, rows) -> list:
    """The rows about objects of the nerve or about none, and every failing row."""
    return [
        e for e in rows
        if not e.ok or (obj := row_object(gd, e.subject)) is None or gd.stores(obj)
    ]


def disagreement(left, right):
    """Compose both paths and scan the sorted points."""
    return first_difference(fintop._composite(left), fintop._composite(right))


@dataclass(frozen=True)
class MapRecord:
    """Per-property flags of a map, with witnesses for every failure."""

    continuous: bool
    injective: bool
    open_map: bool
    embedding: bool
    witnesses: tuple[tuple[str, str], ...]

    @property
    def homeomorphism(self) -> bool:
        surjective = not any(prop == "surjective" for prop, _ in self.witnesses)
        return self.continuous and self.injective and surjective and self.open_map


def triple_map(gd: GluingData, i: str, j: str, k: str) -> SpaceMap:
    """The transition from the space of [i,j,k] to the space of [j,i,k]."""
    if i == j:
        return identity_map(gd.space_of(normalize((i, j, k))))
    if not gd.stores(normalize((i, j, k))):
        return SpaceMap(EMPTY, gd.space_of(normalize((j, i, k))), {})
    return gd.triple_transition[(i, j, k)]


def _triples_present(gd: GluingData, rep: Report) -> bool:
    missing = [
        (i, j, k)
        for i in gd.index
        for j in gd.index
        for k in gd.index
        if i != j and gd.stores(normalize((i, j, k))) and (i, j, k) not in gd.triple_transition
    ]
    for key in missing:
        rep.add("triple-present", str(key), False, "missing triple transition")
    return not missing


def analyze_map(f: SpaceMap) -> MapRecord:
    broken = discontinuities(f)
    continuous = not broken
    witnesses = [("continuous", x) for x in broken]
    injective = True
    seen: dict[str, str] = {}
    for x in sorted(f.dom.points):
        y = f(x)
        if y in seen:
            injective = False
            witnesses.append(("injective", f"{seen[y]},{x}"))
        else:
            seen[y] = x
    open_map = True
    for x in sorted(f.dom.points):
        if not is_open(f.cod, f.image(f.dom.min_open[x])):
            open_map = False
            witnesses.append(("open", x))
    full_image = f.image()
    embedding = injective and continuous
    if embedding:
        for x in sorted(f.dom.points):
            if f.image(f.dom.min_open[x]) != f.cod.min_open[f(x)] & full_image:
                embedding = False
                witnesses.append(("embedding", x))
    if full_image != f.cod.points:
        witnesses.append(("surjective", sorted(f.cod.points - full_image)[0]))
    return MapRecord(continuous, injective, open_map, embedding, tuple(witnesses))


def pullback(f, g, space_id=None):
    if f.cod != g.cod:
        raise CompositionMismatch("pullback needs maps into a common codomain")
    fiber: dict[str, list[str]] = {}
    for v in sorted(g.dom.points):
        fiber.setdefault(g(v), []).append(v)
    pair_of: dict[str, tuple[str, str]] = {}
    name: dict[tuple[str, str], str] = {}
    for u in sorted(f.dom.points):
        for v in fiber.get(f(u), ()):
            tag = f"({u},{v})"
            if tag in pair_of:
                raise DuplicateName(
                    f"pullback pairs {pair_of[tag]} and {(u, v)} both get the name {tag!r}"
                )
            pair_of[tag] = (u, v)
            name[(u, v)] = tag
    table = {
        tag: frozenset(
            name[(a, b)]
            for a in f.dom.min_open[u]
            for b in g.dom.min_open[v]
            if (a, b) in name
        )
        for tag, (u, v) in pair_of.items()
    }
    sp = make_space(space_id or f"{f.dom.space_id}*{g.dom.space_id}", pair_of, table)
    proj_f = SpaceMap(sp, f.dom, {tag: u for tag, (u, _) in pair_of.items()})
    proj_g = SpaceMap(sp, g.dom, {tag: v for tag, (_, v) in pair_of.items()})
    return sp, proj_f, proj_g


def triple_tables(gd: GluingData):
    spaces, projs = {}, {}
    for obj in glidx.objects(gd.index):
        if obj.arity != 3:
            continue
        i = obj.head
        j, k = obj.rest
        spaces[obj], projs[(obj, j)], projs[(obj, k)] = pullback(
            anchor(gd, i, j), anchor(gd, i, k), f"T[{i},{j},{k}]"
        )
    return spaces, projs


def derive_triple_maps(gd: GluingData) -> dict:
    """Every triple transition, the derived ones lifted; those out of an empty object too."""
    derived = dict(gd.triple_transition)
    for i in gd.index:
        for j in gd.index:
            for k in gd.index:
                if i == j or (i, j, k) in derived:
                    continue
                want = compose(transition(gd, i, j), coord(gd, i, j, k))
                lifted = lift([want], [coord(gd, j, i, k)])
                if not isinstance(lifted, SpaceMap):
                    raise NotDetermined(i, j, k, *lifted)
                derived[(i, j, k)] = lifted
    return derived


def data_of_covering(c) -> GluingData:
    idx = [str(n) for n in range(len(c.family))]
    patch = {i: sp for i, (sp, _) in zip(idx, c.family)}
    legs = {i: leg for i, (_, leg) in zip(idx, c.family)}
    pullbacks = {(i, j): pullback(legs[i], legs[j]) for i in idx for j in idx if i != j}
    overlap = {key: sp for key, (sp, _, _) in pullbacks.items()}
    anchor = {key: pi for key, (_, pi, _) in pullbacks.items()}
    transition = {}
    for (i, j), (_, pi, pj) in pullbacks.items():
        _, pj_back, pi_back = pullbacks[(j, i)]
        transition[(i, j)] = lift([pj, pi], [pj_back, pi_back])
    gd = make_gluing_data(idx, patch, overlap, anchor, transition)
    return replace(gd, triple_transition=derive_triple_maps(gd))


def _add_continuity(rep, name, subject, f):
    ok = not discontinuities(f)
    rep.add(name, subject, ok, None if ok else str(analyze_map(f).witnesses))


def check_laws(gd: GluingData) -> Report:
    rep = Report()
    for obj in glidx.objects(gd.index):
        if obj.arity == 3 and obj.head in obj.rest:
            rep.add(
                "degenerate-triple", repr(obj), True,
                "kept distinct from its pair object; canonically isomorphic",
            )
    for i in gd.index:
        rep.add("overlap-diagonal", f"({i},{i})", gd.overlap[(i, i)] == gd.patch[i])
        rep.add(
            "anchor-diagonal",
            f"({i},{i})",
            disagreement([gd.anchor[(i, i)]], [identity_map(gd.patch[i])]) is None,
        )
        rep.add(
            "transition-diagonal",
            f"({i},{i})",
            disagreement([gd.transition[(i, i)]], [identity_map(gd.overlap[(i, i)])]) is None,
        )
    for i in gd.index:
        for j in gd.index:
            a = anchor(gd, i, j)
            t = transition(gd, i, j)
            ok_a = a.dom == overlap(gd, i, j) and a.cod == gd.patch[i]
            ok_t = t.dom == overlap(gd, i, j) and t.cod == overlap(gd, j, i)
            rep.add("anchor-typing", f"({i},{j})", ok_a)
            rep.add("transition-typing", f"({i},{j})", ok_t)
            if ok_a:
                _add_continuity(rep, "anchor-continuous", f"({i},{j})", a)
            if ok_t:
                _add_continuity(rep, "transition-continuous", f"({i},{j})", t)
    for i in gd.index:
        for j in gd.index:
            w = disagreement(
                [transition(gd, j, i), transition(gd, i, j)], [identity_map(overlap(gd, i, j))]
            )
            rep.add("transition-inverse", f"({i},{j})", w is None, w)
    if not _triples_present(gd, rep):
        return rep
    for i in gd.index:
        for j in gd.index:
            for k in gd.index:
                sub = f"({i},{j},{k})"
                fwd = triple_map(gd, i, j, k)
                _add_continuity(rep, "triple-continuous", sub, fwd)
                w = disagreement([triple_map(gd, j, k, i), fwd], [triple_map(gd, i, k, j)])
                rep.add("cocycle", sub, w is None, w)
                w = disagreement(
                    [coord(gd, j, i, k), fwd], [transition(gd, i, j), coord(gd, i, j, k)]
                )
                rep.add("projection-square", sub, w is None, w)
    return rep


def complete_cone(gd, apex, single_legs) -> Cone:
    legs = {single(i): single_legs[i] for i in gd.index}
    for i in gd.index:
        for j in gd.index:
            if i != j:
                legs[pair(i, j)] = compose(legs[single(i)], anchor(gd, i, j))
    for obj in glidx.objects(gd.index):
        if obj.arity == 3:
            i, (j, k) = obj.head, obj.rest
            legs[obj] = compose(legs[pair(i, j)], coord(gd, i, j, k))
    return Cone(apex, legs)


def cone_edges(gd, mode):
    """``glue._cone_edges`` over every generator edge of the index category."""
    if mode == "full":
        _require_triples(gd)
    edges = []
    for (a, b), gen in glidx.edges(gd.index).items():
        if gen.kind == "tau" and mode == "figure4":
            i, j = gen.indices
            edges.append((single(j), b, compose(anchor(gd, j, i), transition(gd, i, j))))
        elif gen.kind != "tau3" or mode == "full":
            f = _generator_image(gd, gen) if gd.stores(b) else SpaceMap(EMPTY, gd.space_of(a), {})
            edges.append((a, b, f))
    return edges


def cone_failure(gd, cone, mode="full"):
    if mode not in CONE_MODES:
        raise ValueError(f"unknown cone mode {mode!r}")
    legs = _typed_legs(gd, dense_cone(gd, cone), glidx.objects(gd.index))
    for a, b, f in cone_edges(gd, mode):
        point = disagreement([legs[a], f], [legs[b]])
        if point is not None:
            return a, b, point
    return None


def _links(gd):
    """The links (u, anchor_ij(u), anchor_ji(transition_ij(u))) of every ordered pair."""
    return {
        (i, j): [
            (u, anchor(gd, i, j)(u), anchor(gd, j, i)(transition(gd, i, j)(u)))
            for u in sorted(overlap(gd, i, j).points)
        ]
        for i in gd.index
        for j in gd.index
    }


def check_glued_properties(gd, candidate) -> Report:
    rep = Report()
    idx = gd.index
    legs = _typed_legs(gd, dense_cone(gd, candidate), glidx.objects(idx))
    for obj in glidx.objects(idx):
        if obj.arity == 1:
            continue
        i = obj.head
        if obj.arity == 2:
            name, subject = "a-pair-factors", f"({i},{obj.rest[0]})"
            paths = [[legs[single(i)], anchor(gd, i, obj.rest[0])]]
        else:
            name, subject = "b-triple-factors", repr(obj)
            j, k = obj.rest
            paths = [[legs[pair(i, j)], coord(gd, i, j, k)], [legs[pair(i, k)], coord(gd, i, k, j)]]
        failed = [w for p in paths if (w := disagreement(p, [legs[obj]])) is not None]
        rep.add(name, subject, not failed, failed[-1] if failed else None)
    links = _links(gd)
    for (i, j), pairs in links.items():
        leg_i, leg_j = legs[single(i)], legs[single(j)]
        w = next((u for u, x, y in pairs if leg_i(x) != leg_j(y)), None)
        rep.add("c-overlap-agree", f"({i},{j})", w is None, w)
    images = {i: legs[single(i)].image() for i in idx}
    missing = sorted(candidate.apex.points.difference(*images.values()))
    rep.add("d-covering", "all", not missing, missing[0] if missing else None)
    for i, j in links:
        via_ij = {legs[single(i)](x) for _, x, _ in links[(i, j)]}
        via_ji = {legs[single(j)](x) for _, x, _ in links[(j, i)]}
        both = images[i] & images[j]
        ok = via_ij == via_ji == both
        rep.add(
            "e-intersections",
            f"({i},{j})",
            ok,
            None if ok else f"{sorted(via_ij)} vs {sorted(via_ji)} vs {sorted(both)}",
        )
    for i in idx:
        r = analyze_map(legs[single(i)])
        ok = r.injective and r.continuous
        rep.add("f-leg-embedding-free", i, ok, None if ok else str(r.witnesses))
    return rep


def check_otop(gd, glued) -> OtopReport:
    legs = _typed_legs(gd, glued, map(single, gd.index))
    rep = OtopReport()
    for kind, table in (("anchor", anchor), ("transition", transition)):
        for key in product(gd.index, repeat=2):  # every ordered pair
            if not analyze_map(table(gd, *key)).open_map:
                rep.add("data-open", f"{kind}{key}", False, "not an open map")
    covered = set()
    for obj, leg in legs.items():
        r = analyze_map(leg)
        rep.add("leg-embedding", obj.head, r.embedding, None if r.embedding else str(r.witnesses))
        img = leg.image()
        rep.add("leg-image-open", obj.head, is_open(glued.apex, img))
        covered |= img
    rep.add("legs-cover", "all", covered == glued.apex.points)
    return rep


def check_covering(c) -> Report:
    rep = Report()
    if c.kind not in ("gluing", "open"):
        rep.add("kind", c.kind, False, "unknown kind")
        return rep
    covered: set[str] = set()
    for pos, (patch, leg) in enumerate(c.family):
        subject = f"leg{pos}({patch.space_id})"
        ok_typing = leg.dom == patch and leg.cod == c.base
        rep.add("leg-typing", subject, ok_typing)
        if not ok_typing:
            continue
        r = analyze_map(leg)
        rep.add("leg-injective", subject, r.injective, None if r.injective else str(r.witnesses))
        rep.add("leg-continuous", subject, r.continuous, None if r.continuous else str(r.witnesses))
        if c.kind == "open":
            rep.add("leg-open", subject, r.open_map, None if r.open_map else str(r.witnesses))
        covered |= leg.image()
    missing = sorted(c.base.points - covered)
    rep.add("coverage", "base", not missing, missing[0] if missing else None)
    return rep
