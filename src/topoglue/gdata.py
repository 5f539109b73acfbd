"""Concrete gluing data over finite spaces and its functor realization.

A gluing datum over an index set I consists of a patch space per index, an
overlap space with an anchor map into the first patch per ordered pair, a
transition map between opposite overlaps, and a transition per ordered index
triple between the canonical triple spaces.  The triple space of [i,j,k] is
always the pullback of the two anchors out of overlaps (i,j) and (i,k); the
freedom to choose any pullback is resolved by this fixed representative.

A datum stores only its nerve: every patch, the overlaps and triple spaces
that have points, and their anchors, transitions, projections and triple
transitions.  Any other object reads as the one shared empty space ``EMPTY``
and its maps as empty maps, so a map given out of such an object must be
that empty map, into the right space, or construction raises
CompositionMismatch.  The datum's ``nerve`` is the full subcategory of the
index category on its objects (a ``glidx.Category``): its objects and the
generator edges between them, in the index category's order; every later
stage walks it, so an empty overlap or triple costs nothing.

All stored maps are the continuous direction; the index-category arrows they
realize point the other way.  ``GluingData.map`` is the one reader of the
map of a generator edge, and the gluing functor (``GluingFunctor``) is a
view of its datum: its spaces and maps are the datum's.

A datum is frozen: its tables are read-only copies of what it was built
from.  So it has one verdict, and ``validate`` computes its rows once per
datum (as ``glue`` builds the patches' disjoint union once);
``dataclasses.replace`` and ``derive_triple_maps`` build a new datum, which
gets its own.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property, lru_cache
from itertools import product
from typing import Callable, Iterable, Mapping

from . import fintop, glidx
from .errors import CompositionMismatch, NotDetermined, UnresolvedReference, ValidationFailed
from .fintop import (
    FiniteSpace,
    SpaceMap,
    compose,
    disagreement,
    discontinuities,
    failure_witnesses,
    identity_map,
    read_only,
)
from .glidx import GlGen, GlObject, normalize, pair, single

EMPTY = FiniteSpace("empty", (), {})  # the space of every object outside a datum's nerve
_NOTHING = identity_map(EMPTY)


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

    def __str__(self):
        return "\n".join(str(e) for e in self.entries)


def _require_empty(what: str, f: SpaceMap, cod: FiniteSpace) -> None:
    """Raise CompositionMismatch unless f, given out of an empty object, is the empty map into cod."""
    if f.dom.points or not fintop._same(f.cod, cod):
        raise CompositionMismatch(
            f"{what} leaves an empty object: it must be the empty map into {cod.space_id!r}"
        )


def _nerve_pairs(index, patch, overlap, anchor, transition) -> tuple[dict, dict, dict]:
    """The overlap, anchor and transition tables of a datum, one entry per ordered pair in index order.

    Every ordered pair needs all three entries, else UnresolvedReference.
    An off-diagonal overlap with no points leaves the nerve: its anchor must
    be the empty map into the patch and its transition the empty map into
    the opposite overlap, else CompositionMismatch.  Such a pair's entries
    become the shared ``EMPTY``, the patch's one empty anchor and the
    empty map into the opposite overlap (shared when that is ``EMPTY``).
    """
    pairs = list(product(index, repeat=2))
    tables = (overlap, anchor, transition)
    missing = [key for key in pairs for table in tables if key not in table]
    if missing:
        raise UnresolvedReference(
            f"gluing data is missing entries for pairs {sorted(set(missing))}"
        )
    kept = {key: overlap[key] for key in pairs if key[0] == key[1] or overlap[key].points}
    no_anchor = {i: SpaceMap(EMPTY, patch[i], {}) for i in index}
    spaces, anchors, transitions = {}, {}, {}
    for i, j in pairs:
        key = (i, j)
        if key in kept:
            spaces[key], anchors[key], transitions[key] = kept[key], anchor[key], transition[key]
            continue
        back = kept.get((j, i), EMPTY)
        _require_empty(f"anchor ({i},{j})", anchor[key], patch[i])
        _require_empty(f"transition ({i},{j})", transition[key], back)
        spaces[key], anchors[key] = EMPTY, no_anchor[i]
        transitions[key] = _NOTHING if back is EMPTY else SpaceMap(EMPTY, back, {})
    return spaces, anchors, transitions


@lru_cache(maxsize=64)
def _nerve(index: tuple[str, ...], pairs: frozenset, triples: frozenset) -> glidx.Category:
    """The nerve of the data over ``index`` that store these pairs (i, j) and triple objects:
    ``glidx.restrict`` to every patch and to the pair and triple objects whose spaces have points.

    It depends on nothing else, so it is built once per such shape, as
    ``glidx`` builds the whole index category once per index set.
    """
    objects = [single(i) for i in index] + [pair(i, j) for i, j in pairs if i != j] + list(triples)
    return glidx.restrict(index, objects)


@dataclass(frozen=True)
class GluingData:
    """Gluing data, lawful or not: its nerve's tables, held as read-only copies.

    ``overlap``, ``anchor`` and ``transition`` have an entry for every
    ordered pair; those outside the nerve are the shared empty space and
    empty maps (``_nerve_pairs``).
    ``triple_space`` and ``triple_proj`` hold the triple spaces with points
    and their projections, and ``triple_transition`` is keyed by the triples
    (i, j, k) with i != j whose normal object the datum stores.  Building a
    datum drops what is given for an object outside the nerve, after
    checking it is empty (``_nerve_pairs`` and ``_nerve_triples``).
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
        index = tuple(self.index)
        object.__setattr__(self, "index", index)
        object.__setattr__(self, "patch", read_only(self.patch))
        tables = _nerve_pairs(index, self.patch, self.overlap, self.anchor, self.transition)
        for name, table in zip(("overlap", "anchor", "transition"), tables):
            object.__setattr__(self, name, read_only(table))
        names = ("triple_space", "triple_proj", "triple_transition")
        for name, table in zip(names, _nerve_triples(self)):
            object.__setattr__(self, name, read_only(table))

    @cached_property
    def nerve(self) -> glidx.Category:
        """The objects this datum stores, with their edges and law subjects (``_nerve``)."""
        return _nerve(self.index, self._pairs, frozenset(self.triple_space))

    @cached_property
    def _pairs(self) -> frozenset[tuple[str, str]]:
        """The ordered pairs (i, j) of the nerve: the diagonal ones and those whose overlap has points."""
        return frozenset(key for key, space in self.overlap.items() if key[0] == key[1] or space.points)

    @cached_property
    def _law_rows(self) -> tuple[CheckEntry, ...]:
        """The rows of ``validate``, from the one clause pass this datum gets."""
        return tuple(_check_laws(self).entries)

    @cached_property
    def _union(self) -> tuple[FiniteSpace, Mapping[str, SpaceMap]]:
        """The disjoint union of the patches with each patch's injection, built once."""
        total, injections = fintop.disjoint_union([self.patch[i] for i in self.index], self.index)
        return total, read_only(dict(zip(self.index, injections)))

    def stores(self, obj: GlObject) -> bool:
        """Whether ``obj`` is in the nerve: a patch, or a pair or triple object with points."""
        if obj.arity == 1:
            return obj.head in self.patch
        if obj.arity == 2:
            return (obj.head, obj.rest[0]) in self._pairs
        return obj in self.triple_space

    def space_of(self, obj: GlObject) -> FiniteSpace:
        if obj.arity == 1:
            return self.patch[obj.head]
        if obj.arity == 2:
            return self.overlap[(obj.head, obj.rest[0])]
        return self.triple_space.get(obj, EMPTY)

    def map(self, a: GlObject, b: GlObject) -> SpaceMap:
        """The map realizing the generator edge a -> b, from b's space to a's.

        A nerve edge reads its stored map (``_generator_image``), and a tau3
        edge whose triple transition is missing raises ValidationFailed with
        the ``triple-present`` rows of ``validate``.  For a == b it is the
        identity.  Any other edge runs out of an object outside the nerve,
        so its map is the empty one; an edge into the nerve out of such an
        object, which only unlawful data has, raises UnknownPoint, as no map
        runs from points to none.
        """
        gen = self.nerve.edges.get((a, b))
        if gen is not None:
            return _generator_image(self, gen)
        if a == b:
            return identity_map(self.space_of(a))
        return SpaceMap(self.space_of(b), self.space_of(a), {})


def _nerve_triples(gd: GluingData) -> tuple[dict, dict, dict]:
    """The triple tables of a datum whose pair tables are set, as its nerve keeps them.

    It runs while the triple tables are still as given.  A triple space
    with no points is dropped, and so is a projection out of it or a triple
    transition (i, j, k), i != j, out of an object the datum does not store,
    once ``_require_empty`` finds it the empty map into overlap (i,n) or the
    space of (j,i,k).
    """
    spaces = {obj: sp for obj, sp in gd.triple_space.items() if sp.points}
    projs = {}
    for (obj, n), f in gd.triple_proj.items():
        if obj in spaces:
            projs[(obj, n)] = f
        else:
            _require_empty(f"projection {obj!r} -> [{obj.head},{n}]", f, gd.overlap[(obj.head, n)])
    labels, pairs = set(gd.index), gd._pairs
    transitions = {}
    for key, f in gd.triple_transition.items():
        if len(key) != 3 or key[0] == key[1] or not labels.issuperset(key):
            transitions[key] = f  # not the key of a transition the laws read
        elif normalize(key) in spaces or (key[1] == key[2] and key[:2] in pairs):
            transitions[key] = f
        else:
            i, j, k = key
            _require_empty(f"triple transition {key}", f, gd.space_of(normalize((j, i, k))))
    return spaces, projs, transitions


def _triple_tables(index, overlap, anchor):
    """The triple spaces with points and their projections: canonical pullbacks of anchor pairs.

    The space of [i|{j,k}] is the pullback of anchors (i,j) and (i,k), so it
    has points only when both overlaps do.  Only those anchor pairs are
    pulled back: per label i, the pairs of its overlaps with points, (i,i)
    among them.
    """
    near: dict[str, list[str]] = {i: [] for i in index}
    for (i, j), space in overlap.items():  # in index order
        if space.points:
            near[i].append(j)
    spaces: dict[GlObject, FiniteSpace] = {}
    projs: dict[tuple[GlObject, str], SpaceMap] = {}
    for i in index:
        for a, j in enumerate(near[i]):
            for k in near[i][a + 1:]:
                tag = f"T[{i},{j},{k}]"
                space, proj_j, proj_k = fintop.pullback(anchor[(i, j)], anchor[(i, k)], tag)
                if space.points:
                    obj = normalize((i, j, k))
                    spaces[obj], projs[(obj, j)], projs[(obj, k)] = space, proj_j, proj_k
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
    transition.  Every ordered pair needs its overlap, anchor and
    transition.  Triple spaces and their projections are computed as the
    canonical pullbacks, for the triples with points; triple transitions
    are taken as given (use ``derive_triple_maps`` to fill them when they
    are forced).
    """
    idx = tuple(sorted(set(index)))
    for label in idx:
        if "@" in label:
            # '@' separates point tags from patch labels in the coproduct
            raise UnresolvedReference(f"index label {label!r} must not contain '@'")
    unpatched = sorted(set(idx) - set(patch))
    if unpatched:
        raise UnresolvedReference(f"no patch for index labels {unpatched}")
    overlap = dict(overlap)
    anchor = dict(anchor)
    transition = dict(transition)
    for i in idx:
        overlap.setdefault((i, i), patch[i])
        anchor.setdefault((i, i), identity_map(patch[i]))
        transition.setdefault((i, i), identity_map(overlap[(i, i)]))
    overlap, anchor, transition = _nerve_pairs(idx, patch, overlap, anchor, transition)
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


def _coord(gd: GluingData, key: tuple[str, str, str]) -> SpaceMap:
    """The coordinate map of a triple (i,j,k): its space onto overlap (i,j), along the eta3 edge."""
    i, j, _ = key
    return gd.map(pair(i, j), normalize(key))


def _fwd(gd: GluingData, key: tuple[str, str, str]) -> SpaceMap:
    """The transition of a triple (i,j,k): its space into that of (j,i,k), along the tau3 edge."""
    i, j, k = key
    return gd.map(normalize((j, i, k)), normalize(key))


def derive_triple_maps(gd: GluingData) -> GluingData:
    """Fill every missing triple transition with its unique compatible map.

    The image of a point t of the [i,j,k]-space is the point of the
    [j,i,k]-space whose (j,i)-coordinate equals the transition image of t's
    (i,j)-coordinate (``fintop.lift``).  Anything but exactly one candidate
    raises ``NotDetermined``: the map must then be supplied explicitly.

    Only the triples of the nerve need a map (``Category.triples``); each has
    points, so each is lifted.  A square partner outside the nerve reads as
    the empty space, and the lift into it finds no candidate.
    """
    derived = dict(gd.triple_transition)
    coords = {key: _coord(gd, key) for key in gd.nerve.triples if key[0] != key[1]}
    for key, coord in coords.items():
        i, j, k = key
        if key in derived:
            continue
        want = compose(gd.transition[(i, j)], coord)
        partner = coords[(j, i, k)] if (j, i, k) in coords else _coord(gd, (j, i, k))
        lifted = fintop.lift([want], [partner])
        if not isinstance(lifted, SpaceMap):
            raise NotDetermined(*key, *lifted)
        derived[key] = lifted
    return replace(gd, triple_transition=derived)


def _add_continuity(rep: Report, name: str, subject: str, f: SpaceMap) -> None:
    """One continuity row, witnessed by ``fintop.failure_witnesses``."""
    w = failure_witnesses(f, discontinuities)
    rep.add(name, subject, w is None, w)


def _triples_present(gd: GluingData, rep: Report) -> bool:
    """Add a failing ``triple-present`` row per missing triple transition; True if none is."""
    missing = [
        key for key in gd.nerve.triples if key[0] != key[1] and key not in gd.triple_transition
    ]
    for key in missing:
        rep.add("triple-present", str(key), False, "missing triple transition")
    return not missing


def _triples_typed(gd: GluingData, rep: Report) -> bool:
    """Add a failing ``triple-typing`` row per nerve triple transition (i, j, k), i != j, that
    does not run from the space of (i,j,k) to that of (j,i,k); True if none is."""
    typed = True
    for i, j, k in gd.nerve.triples:
        if i == j:
            continue  # (i,i,k) reads the identity
        f = gd.triple_transition[(i, j, k)]
        dom, cod = gd.space_of(normalize((i, j, k))), gd.space_of(normalize((j, i, k)))
        if not (fintop._same(f.dom, dom) and fintop._same(f.cod, cod)):
            typed = False
            witness = f"{f.dom.space_id} -> {f.cod.space_id}, not {dom.space_id} -> {cod.space_id}"
            rep.add("triple-typing", f"({i},{j},{k})", False, witness)
    return typed


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

    The pass walks the nerve: its degenerate triples, its pairs and its
    triples (``glidx.Category``).  Every map out of an object outside the
    nerve is the empty map into the right space, so every clause there
    holds and has no row.  Once every triple transition is typed, each runs
    into a space with points, so every partner a clause reads is in the
    nerve too.
    """
    nerve = gd.nerve
    rep = Report()
    for obj in nerve.objects:
        if obj.arity == 3 and obj.head in obj.rest:
            rep.add(
                "degenerate-triple", repr(obj), True,
                "kept distinct from its pair object; canonically isomorphic",
            )
    for i in gd.index:
        sub = f"({i},{i})"
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
    for i, j in nerve.pairs:
        sub = f"({i},{j})"
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
    for i, j in nerve.pairs:
        w = disagreement(
            [gd.transition[(j, i)], gd.transition[(i, j)]], [identity_map(gd.overlap[(i, j)])]
        )
        rep.add("transition-inverse", f"({i},{j})", w is None, w)
    if not _triples_present(gd, rep) or not _triples_typed(gd, rep):
        return rep

    # each nerve triple's two maps, read once
    fwds = {key: _fwd(gd, key) for key in nerve.triples}
    coords = {key: _coord(gd, key) for key in nerve.triples}
    for key, f in fwds.items():
        i, j, k = key
        sub = f"({i},{j},{k})"
        _add_continuity(rep, "triple-continuous", sub, f)
        w = disagreement((fwds[(j, k, i)], f), (fwds[(i, k, j)],))
        rep.add("cocycle", sub, w is None, w)
        w = disagreement((coords[(j, i, k)], f), (gd.transition[(i, j)], coords[key]))
        rep.add("projection-square", sub, w is None, w)
    return rep


@dataclass(frozen=True)
class GluingFunctor:
    """Realization of gluing data on its index category: a view of the datum.

    ``space`` is the datum's space at an object and ``map`` its map of a
    generator edge (``GluingData.map``); nothing is copied out of the datum.
    Building the view raises ValidationFailed, with the ``triple-present``
    rows of ``validate``, when a triple transition is missing, as that
    leaves a generator edge without a map.
    """

    data: GluingData

    __hash__ = None  # the datum's tables are not hashable

    def __post_init__(self):
        _require_triples(self.data)

    @property
    def index(self) -> tuple[str, ...]:
        return self.data.index

    def space(self, obj: GlObject) -> FiniteSpace:
        return self.data.space_of(obj)

    def map(self, a: GlObject, b: GlObject) -> SpaceMap:
        """The map realizing the generator edge a -> b, from b's space to a's (``GluingData.map``)."""
        return self.data.map(a, b)


def _generator_image(gd: GluingData, gen: GlGen) -> SpaceMap:
    """The map realizing a non-identity generator (an entry of the nerve's ``edges``).

    A tau3 edge whose triple transition is missing raises ValidationFailed
    with the ``triple-present`` rows of ``validate``.
    """
    if gen.kind == "eta":
        return gd.anchor[gen.indices]
    if gen.kind == "tau":
        return gd.transition[gen.indices]
    if gen.kind == "eta3":
        i, j, k, n = gen.indices
        return gd.triple_proj[(normalize((i, j, k)), n)]
    if gen.indices not in gd.triple_transition:  # a tau3 edge, i != j
        _require_triples(gd)
    return gd.triple_transition[gen.indices]


def functor_of(gd: GluingData) -> GluingFunctor:
    """Validate the data and realize it as a functor (``GluingFunctor``).

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
    coordinates.  Off the nerve every instance runs out of an empty space,
    so it holds.  The maps are coherent: raw generators share endpoints
    only as eta3 pairs, which read the same projection.
    """
    report = validate(gd)
    if not report.passed:
        raise ValidationFailed(report)
    return GluingFunctor(gd)


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
    """Read the gluing data back off the functor's spaces and maps (round trip)."""
    idx = fun.index
    tables = _pair_tables(idx, fun.space, fun.map)
    triple_transition = {
        (i, j, k): fun.map(normalize((j, i, k)), normalize((i, j, k)))
        for i, j, k in fun.data.nerve.triples
        if i != j
    }
    return make_gluing_data(idx, *tables, triple_transition)
