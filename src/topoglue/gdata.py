"""Concrete gluing data over finite spaces and its functor realization.

A gluing datum over an index set I consists of a patch space per index, an
overlap space with an anchor map into the first patch per ordered pair, a
transition map between opposite overlaps, and a transition per ordered index
triple between the canonical triple spaces.  The triple space of [i,j,k] is
always the pullback of the two anchors out of overlaps (i,j) and (i,k); the
freedom to choose any pullback is resolved by this fixed representative.

All stored maps are the continuous direction; the index-category arrows they
realize point the other way.

A datum is frozen: its tables are read-only copies of what it was built
from.  So it has one verdict, and ``validate`` computes its rows once per
datum (as ``glue`` builds the patches' disjoint union once);
``dataclasses.replace`` and ``derive_triple_maps`` build a new datum, which
gets its own.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from functools import cached_property, lru_cache
from itertools import product
from typing import Callable, Iterable, Mapping, NamedTuple

from . import fintop, glidx
from .errors import NotDetermined, UnresolvedReference, ValidationFailed
from .fintop import (
    FiniteSpace,
    SpaceMap,
    composable,
    compose,
    disagreement,
    discontinuities,
    failure_witnesses,
    identity_map,
    read_only,
)
from .glidx import GlGen, GlObject, normalize, pair, single


@dataclass(frozen=True)
class CheckEntry:
    name: str
    subject: str
    ok: bool
    witness: str | None = None

    def __str__(self):
        status = "ok" if self.ok else "FAIL"
        tail = "" if self.witness is None else f" (witness: {self.witness})"
        return f"{status:4} {self.name} {self.subject}{tail}"


@dataclass
class Report:
    """A list of named check rows, passing when every row is ok: what every check returns."""

    entries: list[CheckEntry] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(e.ok for e in self.entries)

    def failures(self) -> list[CheckEntry]:
        return [e for e in self.entries if not e.ok]

    def add(self, name, subject, ok, witness=None):
        self.entries.append(CheckEntry(name, subject, ok, witness))

    def extend(self, rows: Iterable[CheckEntry]) -> None:
        """Append rows already built; rows are frozen, so several reports may share them."""
        self.entries.extend(rows)

    def __str__(self):
        return "\n".join(str(e) for e in self.entries)


@dataclass(frozen=True)
class GluingData:
    """Gluing data, lawful or not, with its seven tables held as read-only copies.

    ``triple_transition`` is keyed by the triples (i, j, k) with i != j; a
    triple's map onto its pair (i,j) is read through the law plan (``_coord``).
    """

    index: tuple[str, ...]
    patch: Mapping[str, FiniteSpace]
    overlap: Mapping[tuple[str, str], FiniteSpace]
    anchor: Mapping[tuple[str, str], SpaceMap]
    transition: Mapping[tuple[str, str], SpaceMap]
    triple_space: Mapping[GlObject, FiniteSpace]
    triple_proj: Mapping[tuple[GlObject, str], SpaceMap]
    triple_transition: Mapping[tuple[str, str, str], SpaceMap]

    __hash__ = None  # the tables are not hashable

    def __post_init__(self):
        object.__setattr__(self, "index", tuple(self.index))
        for table in fields(self)[1:]:  # every field after the index is a table
            object.__setattr__(self, table.name, read_only(getattr(self, table.name)))

    @cached_property
    def _law_rows(self) -> tuple[CheckEntry, ...]:
        """The rows of ``validate``, from the one clause pass this datum gets."""
        return tuple(_check_laws(self).entries)

    @cached_property
    def _union(self) -> tuple[FiniteSpace, Mapping[str, SpaceMap]]:
        """The disjoint union of the patches with each patch's injection, built once."""
        total, injections = fintop.disjoint_union([self.patch[i] for i in self.index], self.index)
        return total, read_only(dict(zip(self.index, injections)))

    def space_of(self, obj: GlObject) -> FiniteSpace:
        if obj.arity == 1:
            return self.patch[obj.head]
        if obj.arity == 2:
            return self.overlap[(obj.head, obj.rest[0])]
        return self.triple_space[obj]


def _triple_tables(index, overlap, anchor):
    spaces: dict[GlObject, FiniteSpace] = {}
    projs: dict[tuple[GlObject, str], SpaceMap] = {}
    for obj in glidx.objects(index):
        if obj.arity != 3:
            continue
        i = obj.head
        j, k = obj.rest
        spaces[obj], projs[(obj, j)], projs[(obj, k)] = fintop.pullback(
            anchor[(i, j)], anchor[(i, k)], f"T[{i},{j},{k}]"
        )
    return spaces, projs


def make_gluing_data(
    index: Iterable[str],
    patch: Mapping[str, FiniteSpace],
    overlap: Mapping[tuple[str, str], FiniteSpace],
    anchor: Mapping[tuple[str, str], SpaceMap],
    transition: Mapping[tuple[str, str], SpaceMap],
    triple_transition: Mapping[tuple[str, str, str], SpaceMap] | None = None,
) -> GluingData:
    """Assemble gluing data, filling the forced diagonal entries.

    Diagonal overlaps default to the patches with identity anchor and
    transition.  Triple spaces and their projections are computed as the
    canonical pullbacks; triple transitions are taken as given (use
    ``derive_triple_maps`` to fill them when they are forced).
    """
    idx = tuple(sorted(set(index)))
    for label in idx:
        if "@" in label:
            # '@' separates point tags from patch labels in the coproduct
            raise UnresolvedReference(f"index label {label!r} must not contain '@'")
    unpatched = sorted(set(idx) - set(patch))
    if unpatched:
        raise UnresolvedReference(f"no patch for index labels {unpatched}")
    patch = dict(patch)
    overlap = dict(overlap)
    anchor = dict(anchor)
    transition = dict(transition)
    for i in idx:
        overlap.setdefault((i, i), patch[i])
        anchor.setdefault((i, i), identity_map(patch[i]))
        transition.setdefault((i, i), identity_map(overlap[(i, i)]))
    missing = [
        key
        for i in idx
        for j in idx
        for key, table in (((i, j), overlap), ((i, j), anchor), ((i, j), transition))
        if key not in table
    ]
    if missing:
        raise UnresolvedReference(
            f"gluing data is missing entries for pairs {sorted(set(missing))}"
        )
    spaces, projs = _triple_tables(idx, overlap, anchor)
    return GluingData(
        index=idx,
        patch=patch,
        overlap=overlap,
        anchor=anchor,
        transition=transition,
        triple_space=spaces,
        triple_proj=projs,
        triple_transition=dict(triple_transition or {}),
    )


class _Triple(NamedTuple):
    """One ordered index triple (i, j, k) of a law plan; its partners are positions in the plan."""

    key: tuple[str, str, str]
    obj: GlObject  # the normal object of (i, j, k)
    swaps: bool  # i != j: its transition is stored, not an identity
    proj: tuple[GlObject, str] | None  # its ``triple_proj`` key onto (i, j); None: an identity
    cocycle: tuple[int, int]  # (j, k, i) and (i, k, j)
    square: int  # (j, i, k)
    pair: tuple[str, str]  # (i, j), the key of the transition in its square
    subject: str
    passing: tuple[CheckEntry, ...]  # its rows when its space is empty and its diagrams typed


class _LawPlan(NamedTuple):
    """What the index set alone decides of the law pass and of the triple derivation."""

    diagonal: tuple[tuple[str, str], ...]  # each label with its (i,i) subject, in index order
    pairs: tuple[tuple[tuple[str, str], str], ...]  # each ordered pair with its subject
    degenerate: tuple[CheckEntry, ...]
    triples: tuple[_Triple, ...]  # every ordered triple, in index order


@lru_cache(maxsize=None)
def _law_plan(index: tuple[str, ...]) -> _LawPlan:
    """The law plan of an index set, built on first use.

    The labels are taken in the order given, as the law pass walks a
    datum's ``index``, so the rows keep their order.
    """
    n = len(index)

    def at(a: int, b: int, c: int) -> int:
        """The position, in product order, of the triple of the labels at a, b, c."""
        return (a * n + b) * n + c

    triples = []
    for (x, i), (y, j), (z, k) in product(enumerate(index), repeat=3):
        obj = normalize((i, j, k))
        sub = f"({i},{j},{k})"
        passing = (
            CheckEntry("triple-continuous", sub, True),
            CheckEntry("cocycle", sub, True),
            CheckEntry("projection-square", sub, True),
        )
        proj = (obj, j) if obj.arity == 3 else None
        cocycle, square = (at(y, z, x), at(x, z, y)), at(y, x, z)
        triples.append(_Triple((i, j, k), obj, i != j, proj, cocycle, square, (i, j), sub, passing))
    degenerate = tuple(
        CheckEntry(
            "degenerate-triple", repr(obj), True,
            "kept distinct from its pair object; canonically isomorphic",
        )
        for obj in glidx.objects(index)
        if obj.arity == 3 and obj.head in obj.rest
    )
    return _LawPlan(
        tuple((i, f"({i},{i})") for i in index),
        tuple(((i, j), f"({i},{j})") for i, j in product(index, repeat=2)),
        degenerate,
        tuple(triples),
    )


def _coord(gd: GluingData, t: _Triple) -> SpaceMap:
    """The map from the space of t = [i,j,k] onto overlap (i,j): the stored
    pullback projection, or the identity when the tuple collapses to the pair (i,j)."""
    return identity_map(gd.space_of(t.obj)) if t.proj is None else gd.triple_proj[t.proj]


def derive_triple_maps(gd: GluingData) -> GluingData:
    """Fill every missing triple transition with its unique compatible map.

    The image of a point t of the [i,j,k]-space is the point of the
    [j,i,k]-space whose (j,i)-coordinate equals the transition image of t's
    (i,j)-coordinate (``fintop.lift``).  Anything but exactly one candidate
    raises ``NotDetermined``: the map must then be supplied explicitly.

    The triples, their square partners and where their coordinate maps
    are stored come from the law plan of the index set (``_law_plan``),
    which holds only what the labels decide, never a space or a map; each
    call reads the datum's coordinate maps off it once, through ``_coord``.

    A [i,j,k]-space with no points needs no lift.  When the transition
    after the (i,j)-coordinate map and the (j,i)-coordinate map are typed
    as one square (``fintop.composable``), the [j,i,k]-space is empty too and
    the lift is the empty map.  An untyped square goes through ``compose``
    and ``lift``, which raise CompositionMismatch where the maps do not meet.
    """
    triples = _law_plan(gd.index).triples
    coords = [_coord(gd, t) if t.swaps else None for t in triples]
    derived = dict(gd.triple_transition)
    for t, out_coord in zip(triples, coords):
        if not t.swaps or t.key in derived:
            continue
        transition, in_coord = gd.transition[t.pair], coords[t.square]
        if not out_coord.dom.points and composable((transition, out_coord), (in_coord,)):
            derived[t.key] = SpaceMap(out_coord.dom, in_coord.dom, {})
            continue
        lifted = fintop.lift([compose(transition, out_coord)], [in_coord])
        if not isinstance(lifted, SpaceMap):
            raise NotDetermined(*t.key, *lifted)
        derived[t.key] = lifted
    return replace(gd, triple_transition=derived)


def _add_continuity(rep: Report, name: str, subject: str, f: SpaceMap) -> None:
    """One continuity row, witnessed by ``fintop.failure_witnesses``."""
    w = failure_witnesses(f, discontinuities)
    rep.add(name, subject, w is None, w)


def _triples_present(gd: GluingData, rep: Report) -> bool:
    """Add a failing ``triple-present`` row per missing triple transition; True if none is."""
    missing = [
        t.key
        for t in _law_plan(gd.index).triples
        if t.swaps and t.key not in gd.triple_transition
    ]
    for key in missing:
        rep.add("triple-present", str(key), False, "missing triple transition")
    return not missing


def _require_triples(gd: GluingData) -> None:
    """Raise ValidationFailed, with the ``triple-present`` rows, if a triple transition is missing."""
    rep = Report()
    if not _triples_present(gd, rep):
        raise ValidationFailed(rep)


def validate(gd: GluingData) -> Report:
    """Check the gluing-data laws clause by clause, as a fresh report.

    The rows come from one clause pass per datum (``_check_laws``), run on
    first use and kept by the frozen datum; so ``functor_of`` and
    ``glue.build_relation`` reuse a verdict already reached.
    """
    return Report(list(gd._law_rows))


def _diagrams_typed(
    fwd: SpaceMap, after: SpaceMap, alt: SpaceMap, back: SpaceMap, transition: SpaceMap, coord: SpaceMap
) -> bool:
    """``fintop.composable`` for both diagrams of a triple, unrolled into its seven endpoint tests.

    The cocycle diagram is ``(after, fwd)`` against ``(alt,)`` and the
    projection square ``(back, fwd)`` against ``(transition, coord)``.
    """
    same, dom, cod = fintop._same, fwd.dom, fwd.cod
    return (
        same(after.dom, cod) and same(dom, alt.dom) and same(after.cod, alt.cod)
        and same(back.dom, cod) and same(transition.dom, coord.cod)
        and same(dom, coord.dom) and same(back.cod, transition.cod)
    )


def _check_laws(gd: GluingData) -> Report:
    """The clause pass behind ``validate``.

    a) the diagonal overlap is the patch; b) diagonal anchor and transition
    are identities; continuity of every anchor and transition; the inverse law
    for opposite transitions; presence of all triple transitions; the cocycle
    law for composed triple transitions; and the projection square tying
    triple transitions to pair transitions.

    The transition out of the [i,j,k]-space always lands in the [j,i,k]-space
    (first two indices swapped, third carried along); the cocycle and
    projection-square clauses are typed accordingly.  Degenerate triples such
    as [i,i,k] stay distinct objects (isomorphic to their pair through the
    index category, never identified with it) and are flagged for the reader.

    The three rows of a triple whose transition starts at a space with no
    points are decided by ``fintop.composable`` alone, unrolled for the
    triple's two diagrams in ``_diagrams_typed``; only an untyped triple
    goes on to ``disagreement``, which names the endpoint mismatch or raises.

    The pass walks the law plan of the index set (``_law_plan``): each
    ordered triple with its normal object, its cocycle and square partners
    and its pair, each row's subject, and the rows that do not depend on the
    datum.  The plan holds only what the labels decide, never a space or a
    map, so one plan serves every datum over the index set.  The rows are
    frozen, so an empty, typed triple's three passing rows and the
    ``degenerate-triple`` rows are the plan's own, shared by every report.
    """
    plan = _law_plan(gd.index)
    rep = Report()
    rep.extend(plan.degenerate)
    for i, sub in plan.diagonal:
        rep.add("overlap-diagonal", sub, gd.overlap[(i, i)] == gd.patch[i])
        rep.add(
            "anchor-diagonal",
            sub,
            disagreement([gd.anchor[(i, i)]], [identity_map(gd.patch[i])]) is None,
        )
        rep.add(
            "transition-diagonal",
            sub,
            disagreement([gd.transition[(i, i)]], [identity_map(gd.overlap[(i, i)])]) is None,
        )
    for (i, j), sub in plan.pairs:
        a = gd.anchor[(i, j)]
        t = gd.transition[(i, j)]
        ok_a = a.dom == gd.overlap[(i, j)] and a.cod == gd.patch[i]
        ok_t = t.dom == gd.overlap[(i, j)] and t.cod == gd.overlap[(j, i)]
        rep.add("anchor-typing", sub, ok_a)
        rep.add("transition-typing", sub, ok_t)
        if ok_a:
            _add_continuity(rep, "anchor-continuous", sub, a)
        if ok_t:
            _add_continuity(rep, "transition-continuous", sub, t)
    for (i, j), sub in plan.pairs:
        w = disagreement(
            [gd.transition[(j, i)], gd.transition[(i, j)]], [identity_map(gd.overlap[(i, j)])]
        )
        rep.add("transition-inverse", sub, w is None, w)
    if not _triples_present(gd, rep):
        return rep
    triples = plan.triples
    fwds = [
        gd.triple_transition[t.key] if t.swaps else identity_map(gd.space_of(t.obj))
        for t in triples
    ]
    coords = [_coord(gd, t) for t in triples]
    for t, fwd, coord in zip(triples, fwds, coords):
        after, alt = fwds[t.cocycle[0]], fwds[t.cocycle[1]]
        back, transition = coords[t.square], gd.transition[t.pair]
        if not fwd.dom.points and _diagrams_typed(fwd, after, alt, back, transition, coord):
            rep.extend(t.passing)
            continue
        _add_continuity(rep, "triple-continuous", t.subject, fwd)
        w = disagreement((after, fwd), (alt,))
        rep.add("cocycle", t.subject, w is None, w)
        w = disagreement((back, fwd), (transition, coord))
        rep.add("projection-square", t.subject, w is None, w)
    return rep


@dataclass(frozen=True)
class GluingFunctor:
    """Realization of gluing data on the index category.

    ``obj`` maps every normalized object to its space; ``gen`` maps the
    endpoints of every non-identity generator to the continuous map realizing
    it (running from the codomain's space to the domain's space).  Both are
    read-only copies.
    """

    data: GluingData
    obj: Mapping[GlObject, FiniteSpace]
    gen: Mapping[tuple[GlObject, GlObject], SpaceMap]

    __hash__ = None  # the tables are not hashable

    def __post_init__(self):
        object.__setattr__(self, "obj", read_only(self.obj))
        object.__setattr__(self, "gen", read_only(self.gen))

    @property
    def index(self) -> tuple[str, ...]:
        return self.data.index

    def space(self, obj: GlObject) -> FiniteSpace:
        return self.obj[obj]


def _generator_image(gd: GluingData, gen: GlGen) -> SpaceMap:
    """The map realizing a non-identity generator (an entry of ``glidx.edges``)."""
    if gen.kind == "eta":
        return gd.anchor[gen.indices]
    if gen.kind == "tau":
        return gd.transition[gen.indices]
    if gen.kind == "eta3":
        i, j, k, n = gen.indices
        return gd.triple_proj[(normalize((i, j, k)), n)]
    return gd.triple_transition[gen.indices]  # a tau3 edge has i != j


def functor_tables(gd: GluingData) -> GluingFunctor:
    """Realize the data as tables without validating it first.

    Only a missing triple transition, which leaves a generator without a
    map, raises ValidationFailed, with the ``triple-present`` rows of
    ``validate``.
    """
    _require_triples(gd)
    obj_table = {o: gd.space_of(o) for o in glidx.objects(gd.index)}
    gen_table = {dc: _generator_image(gd, gen) for dc, gen in glidx.edges(gd.index).items()}
    return GluingFunctor(gd, obj_table, gen_table)


def functor_of(gd: GluingData) -> GluingFunctor:
    """Validate the data and realize it as tables over the index category.

    ``validate`` is the only law check.  When the triple tables come from
    ``make_gluing_data`` (``derive_triple_maps`` copies them), a passing
    report implies the relation families of ``glidx.verify_relations`` on
    the tables; write t(..) for triple transitions.  (a) identity generators
    have no table entry, so a realization reads them as identities; the
    diagonal clauses tie that to the diagonal data.  (b) is
    transition-inverse, (c1) cocycle and (e) projection-square, clause for
    clause.  (d) holds by construction: each
    triple space is the pullback of anchors (i,j) and (i,k).  (c2): for a
    point p of [i,j,k], q = t(j,i,k) t(i,j,k) p has the (i,j)-coordinate of
    p by projection-square at (i,j,k) and (j,i,k) and transition-inverse at
    (i,j); cocycle at (i,j,k) and (j,i,k) gives t(i,k,j) q = t(i,k,j) p, so
    projection-square at (i,k,j) and transition-inverse at (i,k) give q the
    (i,k)-coordinate of p, and a pullback point is fixed by its two
    coordinates.  The tables are coherent: raw generators share endpoints
    only as eta3 pairs, which read the same projection.
    """
    report = validate(gd)
    if not report.passed:
        raise ValidationFailed(report)
    return functor_tables(gd)


def _pair_tables(index: tuple[str, ...], space_at: Callable, map_at: Callable) -> tuple[dict, ...]:
    """The patch, overlap, anchor and transition tables of the datum a functor realizes.

    ``space_at`` gives the space at an object and ``map_at(a, b)`` the map
    realizing the generator edge a -> b.  Every space is read before any map
    and every anchor before any transition; the diagonal entries are left to
    ``make_gluing_data``.
    """
    pairs = [(i, j) for i in index for j in index if i != j]
    patch = {i: space_at(single(i)) for i in index}
    overlap = {(i, j): space_at(pair(i, j)) for i, j in pairs}
    anchor = {(i, j): map_at(single(i), pair(i, j)) for i, j in pairs}
    transition = {(i, j): map_at(pair(j, i), pair(i, j)) for i, j in pairs}
    return patch, overlap, anchor, transition


def extract_data(fun: GluingFunctor) -> GluingData:
    """Read the gluing data back off the functor tables (round trip)."""
    idx = fun.index
    tables = _pair_tables(idx, fun.space, lambda a, b: fun.gen[(a, b)])
    triple_transition = {
        (i, j, k): fun.gen[(normalize((j, i, k)), normalize((i, j, k)))]
        for i, j, k in product(idx, repeat=3)
        if i != j
    }
    return make_gluing_data(idx, *tables, triple_transition)
