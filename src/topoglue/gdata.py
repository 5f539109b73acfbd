"""Concrete gluing data over finite spaces: the paper's gluing-data functor.

A gluing datum over an index set I consists of a patch space per index, an
overlap space with an anchor map into the first patch per ordered pair, a
transition map between opposite overlaps, and a transition per ordered index
triple between the canonical triple spaces.  The triple space of [i,j,k] is
always the pullback of the two anchors out of overlaps (i,j) and (i,k); the
freedom to choose any pullback is resolved by this fixed representative.  So
a datum is built from its pairs and triple transitions alone
(``GluingData(...)``, also ``make_gluing_data``): it works out its triple
spaces and their projections, which no caller gives.

A datum stores only its nerve: its patches, the overlaps and triple spaces
that have points, and their anchors, transitions, projections and triple
transitions.  The pair tables are keyed by the nerve's pairs only, and a pair
given no overlap has the empty one.  Any other object reads as the one
shared empty space ``EMPTY`` and its maps as empty maps, so a map given out
of such an object must be that empty map, into the right space, or
construction raises CompositionMismatch.  The datum's ``nerve`` is the full
subcategory of the index category on its objects (a ``glidx.Category``): its
objects and the generator edges between them, in the index category's order;
every later stage walks it, so an empty overlap or triple costs nothing.

All stored maps are the continuous direction; the index-category arrows they
realize point the other way.  ``GluingData.map`` is the reader of the map of
a generator edge for every caller that walks edges; the law pass reads each
triple's two maps straight from the triple tables, by label tuple.  The
paper's gluing-data functor is the validated datum itself: ``GluingFunctor``
(``functor_of``) holds a datum that passes ``validate``, and its spaces and
maps are the datum's.

A datum is frozen: its tables are read-only copies of what it was built
from.  So it has one verdict, and ``validate`` computes its rows once per
datum (as ``glue`` builds the patches' disjoint union once);
``dataclasses.replace`` and ``derive_triple_maps`` build a new datum, which
gets its own.  Building a datum checks its pair tables once;
``derive_triple_maps`` shares the checked tables of the datum it copies.
``validate`` first types every map of the nerve, and stops after those
rows if one is mistyped; then every law compares tables point by point.
"""

from __future__ import annotations

from dataclasses import FrozenInstanceError, dataclass, field
from functools import cached_property, lru_cache
from typing import Iterable, Mapping, NamedTuple

from . import fintop, glidx
from .errors import CompositionMismatch, NotDetermined, UnresolvedReference, ValidationFailed
from .fintop import (
    FiniteSpace,
    SpaceMap,
    compose,
    discontinuities,
    failure_witnesses,
    identity_map,
    read_only,
)
from .glidx import GlGen, GlObject, normalize, pair, single

_TABLES = ("patch", "overlap", "anchor", "transition", "triple_transition", "triple_space", "triple_proj")
EMPTY = FiniteSpace("empty", (), {})  # the space of every object outside a datum's nerve


class CheckEntry(NamedTuple):
    """One check row: a named tuple, so it is cheap to build, hashable and read-only."""

    name: str
    subject: str
    ok: bool
    witness: str | None = None

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

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
    """The overlap, anchor and transition tables of a datum's nerve pairs, in index order.

    An ordered pair given no overlap has the empty one.  The nerve's pairs
    are the diagonal ones and those whose overlap has points; each needs its
    overlap, anchor and transition, else UnresolvedReference.  An entry
    given for any other pair is checked once and dropped: its anchor must be
    the empty map into the patch and its transition the empty map into the
    opposite overlap, else CompositionMismatch.  Keys off the index are
    ignored.
    """
    labels = set(index)
    given = {(i, i) for i in index}
    for table in (overlap, anchor, transition):
        given.update(key for key in table if len(key) == 2 and key[0] in labels and key[1] in labels)
    keys = sorted(given)
    pairs = [key for key in keys if key[0] == key[1] or key in overlap and overlap[key].points]
    unmapped = [key for key in pairs if not (key in overlap and key in anchor and key in transition)]
    if unmapped:
        raise UnresolvedReference(f"the nerve pairs {unmapped} need an overlap, an anchor and a transition")
    spaces = {key: overlap[key] for key in pairs}
    for i, j in (key for key in keys if key not in spaces):
        if (i, j) in anchor:
            _require_empty(f"anchor ({i},{j})", anchor[(i, j)], patch[i])
        if (i, j) in transition:
            _require_empty(f"transition ({i},{j})", transition[(i, j)], spaces.get((j, i), EMPTY))
    return spaces, {key: anchor[key] for key in pairs}, {key: transition[key] for key in pairs}


@lru_cache(maxsize=64)
def _nerve(index: tuple[str, ...], pairs: frozenset, triples: frozenset) -> glidx.Category:
    """The nerve of the data over ``index`` that store these pairs (i, j) and triple objects:
    ``glidx.restrict`` to every patch and to the pair and triple objects whose spaces have points.

    ``restrict`` reads the objects alone; the index gives the patches.  The
    nerve depends on nothing else, so it is built once per such shape, as
    ``glidx`` builds the whole index category once per index set.
    """
    objects = [single(i) for i in index] + [pair(i, j) for i, j in pairs if i != j] + list(triples)
    return glidx.restrict(objects)


@dataclass(frozen=True)
class GluingData:
    """Gluing data, lawful or not: its nerve's tables, held as read-only copies.

    The one constructor.  The index is sorted (``_index_labels``), and
    diagonal overlaps default to the patches with identity anchor and
    transition.  ``overlap``, ``anchor`` and ``transition`` are keyed by
    the nerve's pairs only, in index order (``_nerve_pairs``); any other
    pair reads as ``EMPTY`` through ``space_of`` and its maps as empty maps
    through ``map``.  ``triple_space`` and ``triple_proj`` are worked out,
    not given: the canonical pullbacks of anchor pairs (``_triple_tables``).
    ``triple_transition`` is taken as given, keyed by the triples (i, j, k),
    i != j, whose normal object the datum stores (``_nerve_triples``).  A
    datum that passes ``validate`` is the paper's gluing-data functor
    itself: ``GluingFunctor`` only reads it on the index category.  A patch
    off the index is dropped, as a pair off it is.
    """

    index: tuple[str, ...]
    patch: Mapping[str, FiniteSpace]
    overlap: Mapping[tuple[str, str], FiniteSpace]
    anchor: Mapping[tuple[str, str], SpaceMap]
    transition: Mapping[tuple[str, str], SpaceMap]
    triple_transition: Mapping[tuple[str, str, str], SpaceMap] = field(default_factory=dict)
    triple_space: Mapping[GlObject, FiniteSpace] = field(init=False)
    triple_proj: Mapping[tuple[GlObject, str], SpaceMap] = field(init=False)

    __hash__ = None  # the tables are not hashable

    def __post_init__(self):
        index = _index_labels(self.index, self.patch)
        overlap, anchor, transition = dict(self.overlap), dict(self.anchor), dict(self.transition)
        for i in index:  # not setdefault: it would build each identity even where one is given
            overlap.setdefault((i, i), self.patch[i])
            if (i, i) not in anchor:
                anchor[(i, i)] = identity_map(self.patch[i])
            if (i, i) not in transition:
                transition[(i, i)] = identity_map(overlap[(i, i)])
        pairs = _nerve_pairs(index, self.patch, overlap, anchor, transition)
        spaces, projs = _triple_tables(index, *pairs[:2])
        triples = _nerve_triples(index, pairs[0], spaces, self.triple_transition)
        patch = {i: self.patch[i] for i in index}
        self._hold(index, *map(read_only, (patch, *pairs, triples, spaces, projs)))

    def _hold(self, index: tuple[str, ...], *tables: Mapping) -> None:
        """Set the index and then the tables, in field order, as they are."""
        object.__setattr__(self, "index", index)
        for name, table in zip(_TABLES, tables):
            object.__setattr__(self, name, table)

    @classmethod
    def _checked(cls, index: tuple[str, ...], *tables: Mapping) -> GluingData:
        """A datum from read-only tables, in field order, that are already kept as its nerve
        keeps them (``_nerve_pairs``, ``_nerve_triples``): held as they are, not checked again."""
        gd = object.__new__(cls)
        gd._hold(index, *tables)
        return gd

    @cached_property
    def nerve(self) -> glidx.Category:
        """The objects this datum stores, with their edges and law subjects (``_nerve``)."""
        return _nerve(self.index, frozenset(self.overlap), frozenset(self.triple_space))

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
            return (obj.head, obj.rest[0]) in self.overlap
        return obj in self.triple_space

    def space_of(self, obj: GlObject) -> FiniteSpace:
        if obj.arity == 1:
            return self.patch[obj.head]
        if obj.arity == 2:
            return self.overlap.get((obj.head, obj.rest[0]), EMPTY)
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


def _nerve_triples(index, overlap, spaces, triple_transition) -> dict:
    """The triple transitions of a datum with these ``overlap`` and triple ``spaces`` tables
    (``_nerve_pairs``, ``_triple_tables``), as its nerve keeps them.

    A key no law reads is ignored: one not of three labels of the index, or
    (i, i, k), which reads the identity.  A triple transition (i, j, k) out
    of an object the datum does not store is dropped, once
    ``_require_empty`` finds it the empty map into the space of (j,i,k); an
    object that is not a key of ``overlap`` or ``spaces`` is ``EMPTY``.
    """
    labels = set(index)
    transitions = {}
    for key, f in triple_transition.items():
        if len(key) != 3 or key[0] == key[1] or not labels.issuperset(key):
            continue
        i, j, k = key
        if normalize(key) in spaces or (j == k and (i, j) in overlap):
            transitions[key] = f
        else:
            partner = normalize((j, i, k))
            cod = overlap.get((j, i), EMPTY) if partner.arity == 2 else spaces.get(partner, EMPTY)
            _require_empty(f"triple transition {key}", f, cod)
    return transitions


def _triple_tables(index, overlap, anchor):
    """The triple spaces with points and their projections: canonical pullbacks of anchor pairs.

    The space of [i|{j,k}] is the pullback of anchors (i,j) and (i,k), so it
    has points only when both overlaps do.  Only those anchor pairs are
    pulled back: per label i, the pairs of its overlaps with points, (i,i)
    among them, whose anchors land in one space.  Any other pair has a
    mistyped anchor, which fails ``validate``'s ``anchor-typing`` row.  A
    projection runs onto its anchor's domain, so it is mistyped only when
    that anchor is.
    """
    near: dict[str, list[str]] = {i: [] for i in index}
    for (i, j), space in overlap.items():  # the nerve's pairs, in index order
        if space.points:
            near[i].append(j)
    spaces: dict[GlObject, FiniteSpace] = {}
    projs: dict[tuple[GlObject, str], SpaceMap] = {}
    for i in index:
        for a, j in enumerate(near[i]):
            for k in near[i][a + 1:]:
                f, g = anchor[(i, j)], anchor[(i, k)]
                if not fintop._same(f.cod, g.cod):
                    continue
                space, proj_j, proj_k = fintop.pullback(f, g, f"T[{i},{j},{k}]")
                if space.points:
                    obj = normalize((i, j, k))
                    spaces[obj], projs[(obj, j)], projs[(obj, k)] = space, proj_j, proj_k
    return spaces, projs


def _index_labels(index: Iterable[str], patch: Mapping[str, FiniteSpace]) -> tuple[str, ...]:
    """The index of a datum, sorted: UnresolvedReference for a label holding '@' or ',', or without a patch."""
    idx = tuple(sorted(set(index)))
    for label in idx:
        # '@' separates point tags from patch labels in the coproduct, and ','
        # the labels in object names ([i,j]) and row subjects ((i,j))
        for sep in "@,":
            if sep in label:
                raise UnresolvedReference(f"index label {label!r} must not contain {sep!r}")
    unpatched = sorted(set(idx) - set(patch))
    if unpatched:
        raise UnresolvedReference(f"no patch for index labels {unpatched}")
    return idx


def make_gluing_data(
    index: Iterable[str],
    patch: Mapping[str, FiniteSpace],
    overlap: Mapping[tuple[str, str], FiniteSpace],
    anchor: Mapping[tuple[str, str], SpaceMap],
    transition: Mapping[tuple[str, str], SpaceMap],
    triple_transition: Mapping[tuple[str, str, str], SpaceMap] | None = None,
) -> GluingData:
    """``GluingData(...)``, with no triple transitions for ``None``."""
    return GluingData(index, patch, overlap, anchor, transition, triple_transition or {})


def _coord(gd: GluingData, key: tuple[str, str, str]) -> SpaceMap:
    """The coordinate map of a triple (i,j,k): its space onto overlap (i,j), along the eta3 edge."""
    i, j, _ = key
    return gd.map(pair(i, j), normalize(key))


def derive_triple_maps(gd: GluingData) -> GluingData:
    """Fill every missing triple transition with its unique compatible map.

    The image of a point t of the [i,j,k]-space is the point of the
    [j,i,k]-space whose (j,i)-coordinate equals the transition image of t's
    (i,j)-coordinate (``fintop.lift``).  Anything but exactly one candidate
    raises ``NotDetermined``: the map must then be supplied explicitly.

    Only the triples of the nerve need a map (``Category.triples``); each has
    points, so each is lifted.  A square partner outside the nerve reads as
    the empty space, and the lift into it finds no candidate.  When an
    anchor or transition of the nerve is mistyped (``_pair_typed``), nothing
    is lifted and ``gd`` is returned: that map fails a typing row of
    ``validate``.  Otherwise the new datum shares the tables of ``gd``,
    which are already checked.
    """
    if not all(all(_pair_typed(gd, i, j)) for i, j in gd.nerve.pairs):
        return gd
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
    tables = (gd.overlap, gd.anchor, gd.transition, read_only(derived), gd.triple_space, gd.triple_proj)
    return GluingData._checked(gd.index, gd.patch, *tables)


def _add_continuity(rep: Report, name: str, subject: str, f: SpaceMap) -> None:
    """One continuity row: a scan that stops at the first failure (``fintop.is_continuous``),
    witnessed on failure by ``fintop.failure_witnesses``."""
    w = None if fintop.is_continuous(f) else failure_witnesses(f, discontinuities)
    rep.add(name, subject, w is None, w)


def _triples_present(gd: GluingData, rep: Report) -> bool:
    """Add a failing ``triple-present`` row per missing triple transition; True if none is."""
    missing = [
        key for key in gd.nerve.triples if key[0] != key[1] and key not in gd.triple_transition
    ]
    for key in missing:
        rep.add("triple-present", str(key), False, "missing triple transition")
    return not missing


def _mistyped(f: SpaceMap, dom: FiniteSpace, cod: FiniteSpace) -> str | None:
    """None when f runs from ``dom`` to ``cod``, else the witness of its failing typing row.

    The witness names both ends by their ids, and then each end that is
    another space under the expected id, which the ids alone would hide.
    """
    if fintop._same(f.dom, dom) and fintop._same(f.cod, cod):
        return None
    w = f"{f.dom.space_id} -> {f.cod.space_id}, not {dom.space_id} -> {cod.space_id}"
    for end, got, want in (("domain", f.dom, dom), ("codomain", f.cod, cod)):
        if got.space_id == want.space_id and not fintop._same(got, want):
            w += f"; its {end} is another space named {got.space_id!r}"
    return w


def _pair_typed(gd: GluingData, i: str, j: str) -> tuple[bool, bool]:
    """Whether anchor (i,j) of a nerve pair runs from overlap (i,j) into patch i, and whether
    transition (i,j) runs from overlap (i,j) into overlap (j,i), ``EMPTY`` off the nerve."""
    over = gd.overlap[(i, j)]
    return (
        _mistyped(gd.anchor[(i, j)], over, gd.patch[i]) is None,
        _mistyped(gd.transition[(i, j)], over, gd.overlap.get((j, i), EMPTY)) is None,
    )


def _triples_typed(gd: GluingData, rep: Report) -> bool:
    """Add a failing ``triple-typing`` row (i,j,k) per given triple transition of the nerve
    that does not run from the space of (i,j,k) to that of (j,i,k); True if none does.

    (i,i,k) reads the identity, and a missing triple transition is left to
    ``triple-present``.  The projections need no row: each runs onto its
    anchor's domain (``_triple_tables``), so it is mistyped only when that
    anchor fails ``anchor-typing``.
    """
    typed = True
    for i, j, k in gd.nerve.triples:
        f = gd.triple_transition.get((i, j, k)) if i != j else None
        if f is not None:
            w = _mistyped(f, gd.space_of(normalize((i, j, k))), gd.space_of(normalize((j, i, k))))
            if w is not None:
                typed = False
                rep.add("triple-typing", f"({i},{j},{k})", False, w)
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
    ``glue.build_relation`` reuse a verdict already reached.  The pass types
    every map of the nerve first and stops after the typing rows if one
    fails; only then does it compare tables, point by point.
    """
    return Report(list(gd._law_rows))


def _is_identity(f: SpaceMap, space: FiniteSpace) -> bool:
    """Whether f is the identity of ``space``: typed so, and ``table[x] == x`` for every x."""
    return (
        fintop._same(f.dom, space)
        and fintop._same(f.cod, space)
        and all(x == y for x, y in f.table.items())
    )


def _check_laws(gd: GluingData) -> Report:
    """The clause pass behind ``validate``: first typing, then table compares.

    a) the diagonal overlap is the patch; b) diagonal anchor and transition
    are identities; typing and continuity of every anchor and transition;
    typing of every given triple transition (``_triples_typed``); the
    inverse law for opposite transitions; presence of all triple
    transitions; the cocycle law for composed triple transitions; and the
    projection square tying triple transitions to pair transitions.

    The transition out of the [i,j,k]-space always lands in the [j,i,k]-space
    (first two indices swapped, third carried along); the cocycle and
    projection-square clauses are typed accordingly.  Degenerate triples such
    as [i,i,k] stay distinct objects (isomorphic to their pair through the
    index category, never identified with it) and are flagged for the reader.

    The pass walks the nerve: its degenerate triples, its pairs and its
    triples (``glidx.Category``).  Every map out of an object outside the
    nerve is the empty map into the right space, so every clause there
    holds and has no row.  The pass returns after the typing rows when a
    diagonal overlap is not its patch or a map of the nerve is mistyped, as
    it does after a failing ``triple-present`` row.  Typed, every map runs
    into a space with points, so every partner a clause reads is in the
    nerve too, and every composite meets: each law row compares the tables
    point by point (``fintop._first_difference``, as ``fintop.disagreement``
    compares typed paths).  Each triple's two maps are read once, by label
    tuple: ``triple_transition[(i,j,k)]`` and ``triple_proj[([i,j,k], j)]``,
    the maps ``GluingData.map`` gives on its tau3 and eta3 edges (an identity
    edge is the empty path, read from no table).  Neither read misses: a
    missing triple transition has ended the pass at ``triple-present``, and
    every triple of the nerve has both projections (``_triple_tables``).
    """
    nerve = gd.nerve
    rep = Report()
    for obj in nerve.objects:
        if obj.arity == 3 and obj.head in obj.rest:
            rep.add(
                "degenerate-triple", repr(obj), True,
                "kept distinct from its pair object; canonically isomorphic",
            )
    typed = True
    for i in gd.index:
        sub = f"({i},{i})"
        patch, over = gd.patch[i], gd.overlap[(i, i)]
        same = over == patch
        typed = typed and same
        rep.add("overlap-diagonal", sub, same)
        rep.add("anchor-diagonal", sub, _is_identity(gd.anchor[(i, i)], patch))
        rep.add("transition-diagonal", sub, _is_identity(gd.transition[(i, i)], over))
    for i, j in nerve.pairs:
        sub = f"({i},{j})"
        ok_a, ok_t = _pair_typed(gd, i, j)
        typed = typed and ok_a and ok_t
        rep.add("anchor-typing", sub, ok_a)
        rep.add("transition-typing", sub, ok_t)
        if ok_a:
            _add_continuity(rep, "anchor-continuous", sub, gd.anchor[(i, j)])
        if ok_t:
            _add_continuity(rep, "transition-continuous", sub, gd.transition[(i, j)])
    if not (_triples_typed(gd, rep) and typed):
        return rep

    for i, j in nerve.pairs:
        there = gd.transition[(i, j)]
        w = fintop._first_difference((gd.transition[(j, i)], there), (), list(there.dom.points))
        rep.add("transition-inverse", f"({i},{j})", w is None, w)
    if not _triples_present(gd, rep):
        return rep

    # each nerve triple's two maps, read once by key, each as a path of maps; the identities,
    # the transition of (i,i,k) and the (i,j)-coordinate of (i,j,j), are the empty path
    fwds, coords = {}, {}
    for key in nerve.triples:
        i, j, k = key
        fwds[key] = () if i == j else (gd.triple_transition[key],)
        coords[key] = () if j == k else (gd.triple_proj[(normalize(key), j)],)
    for key, f in fwds.items():
        i, j, k = key
        sub = f"({i},{j},{k})"
        if f:
            _add_continuity(rep, "triple-continuous", sub, f[0])
        else:
            rep.add("triple-continuous", sub, True)
        points = list(gd.space_of(normalize(key)).points)
        w = fintop._first_difference((*fwds[(j, k, i)], *f), fwds[(i, k, j)], points)
        rep.add("cocycle", sub, w is None, w)
        w = fintop._first_difference((*coords[(j, i, k)], *f), (gd.transition[(i, j)], *coords[key]), points)
        rep.add("projection-square", sub, w is None, w)
    return rep


@dataclass(frozen=True)
class GluingFunctor:
    """The paper's gluing-data functor: the validated datum itself, read on its index category.

    Only a datum that passes ``validate`` (kept per datum) builds one, else
    ValidationFailed with its report.  ``space`` and ``map`` are the datum's
    (``GluingData.map``); nothing is copied out of it.  A passing report
    implies the relation families of ``glidx.verify_relations`` on the
    tables; write t(..) for triple transitions.  (a) identity generators
    have no table entry, so a realization reads them as identities; the
    diagonal clauses tie that to the diagonal data.  (b) is transition-inverse, (c1) cocycle and (e)
    projection-square, clause for clause.  (d) holds by construction: each
    triple space is the pullback of anchors (i,j) and (i,k).  (c2): for a
    point p of [i,j,k], q = t(j,i,k) t(i,j,k) p has the (i,j)-coordinate of
    p by projection-square at (i,j,k) and (j,i,k) and transition-inverse at
    (i,j); cocycle at (i,j,k) and (j,i,k) gives t(i,k,j) q = t(i,k,j) p, so
    projection-square at (i,k,j) and transition-inverse at (i,k) give q the
    (i,k)-coordinate of p, and a pullback point is fixed by its two
    coordinates.  Off the nerve every instance runs out of an empty space,
    so it holds.  The maps are coherent: raw generators share endpoints only
    as eta3 pairs, which read the same projection.
    """

    data: GluingData

    __hash__ = None  # the datum's tables are not hashable

    def __post_init__(self):
        report = validate(self.data)
        if not report.passed:
            raise ValidationFailed(report)

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
    """The gluing-data functor of a lawful datum (``GluingFunctor``): ValidationFailed unless it validates."""
    return GluingFunctor(gd)
