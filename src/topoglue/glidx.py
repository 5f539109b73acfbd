"""The gluing index category over a finite index set.

Objects are normalized index tuples: a single [i], an ordered pair [i,j] with
i != j, or a triple [i|{j,k}] whose second component is an unordered pair of
distinct indices (either of which may equal i).  Normalization applies
(i,i) -> i, (i,j,j) -> (i,j) and (i,j,k) -> (i,k,j).

The category is thin: between any two objects there is at most one morphism,
so a morphism is its endpoint pair.  The generator slots of one raw index
tuple are written once (``_slots``): ``raw_generators`` lists them all, and
``restrict`` builds the objects and edges of a full subcategory from the
slots into its objects alone, ordered by their labels, so it needs no index.
That is how a gluing datum gets its nerve; the whole category of an index
set is built once and returned read-only.  An object's faces (``faces_of``)
and the raw index tuples naming it (``raw_triples``) are read off the object
itself.  Generator paths appear only where the relation families are listed
(``relation_instances``) and checked (``compose_path``), so that a
realization can evaluate each side of a relation along its own path.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import product
from types import MappingProxyType
from typing import TYPE_CHECKING, Iterable, Iterator, Mapping

from .errors import BadArity, CompositionMismatch

if TYPE_CHECKING:
    from .gdata import Report


@dataclass(frozen=True)
class GlObject:
    head: str
    rest: tuple[str, ...]  # () single, (j,) pair, (j,k) sorted triple

    def __post_init__(self):
        # every table lookup hashes its key and every sort by repr builds its
        # display string: compute each once
        object.__setattr__(self, "_hash", hash((self.head, self.rest)))
        object.__setattr__(self, "_display", "[" + ",".join((self.head,) + self.rest) + "]")

    def __hash__(self):
        return self._hash

    @property
    def arity(self) -> int:
        return 1 + len(self.rest)

    def __repr__(self):
        return self._display


@lru_cache(maxsize=None)
def single(i: str) -> GlObject:
    return GlObject(i, ())


@lru_cache(maxsize=None)
def pair(i: str, j: str) -> GlObject:
    if i == j:
        return single(i)
    return GlObject(i, (j,))


@lru_cache(maxsize=None)
def normalize(raw: tuple[str, ...]) -> GlObject:
    """Canonical object for a raw index tuple of length 1 to 3."""
    if len(raw) == 1:
        return single(raw[0])
    if len(raw) == 2:
        return pair(raw[0], raw[1])
    if len(raw) == 3:
        i, j, k = raw
        if j == k:
            return pair(i, j)
        return GlObject(i, tuple(sorted((j, k))))
    raise BadArity(f"index tuples have length 1 to 3, got {len(raw)}")


@dataclass(frozen=True)
class GlGen:
    """One generator slot.

    kind "eta":  indices (i,j)      [i] -> [i,j]
    kind "tau":  indices (i,j)      [j,i] -> [i,j]
    kind "eta3": indices (i,j,k,n)  [i,n] -> [i,j,k]   with n in {j,k}
    kind "tau3": indices (i,j,k)    [j,i,k] -> [i,j,k]
    """

    kind: str
    indices: tuple[str, ...]

    @property
    def dom(self) -> GlObject:
        if self.kind == "eta":
            return single(self.indices[0])
        if self.kind == "tau":
            i, j = self.indices
            return normalize((j, i))
        if self.kind == "eta3":
            i, j, k, n = self.indices
            return normalize((i, n))
        i, j, k = self.indices
        return normalize((j, i, k))

    @property
    def cod(self) -> GlObject:
        return normalize(self.indices[:3])

    def display(self) -> str:
        return f"{self.kind}({','.join(self.indices)})"


def compose_path(dom: GlObject, path: Iterable[GlGen]) -> GlObject:
    """The codomain of a generator path out of ``dom`` (generators in the order they apply)."""
    cod = dom
    for gen in path:
        if gen.dom != cod:
            raise CompositionMismatch(f"cannot compose {gen.display()} after a path to {cod!r}")
        cod = gen.cod
    return cod


def _slots(raw: tuple[str, ...]) -> tuple[GlGen, ...]:
    """The generator slots of one raw index tuple, in raw order: eta and tau for a pair
    (i,j), and eta3 into [i,j], eta3 into [i,k] and tau3 for a triple (i,j,k)."""
    if len(raw) == 2:
        return (GlGen("eta", raw), GlGen("tau", raw))
    i, j, k = raw
    return (GlGen("eta3", (i, j, k, j)), GlGen("eta3", (i, j, k, k)), GlGen("tau3", raw))


def raw_generators(index: Iterable[str]) -> list[GlGen]:
    """Every generator slot in raw order: the ``_slots`` of each pair, then of each
    triple, tuples in label order; 2|I|^2 + 3|I|^3 entries."""
    idx = sorted(set(index))
    return [gen for n in (2, 3) for raw in product(idx, repeat=n) for gen in _slots(raw)]


@dataclass(frozen=True)
class Category:
    """The objects and generator edges of one index set, or of a full subcategory of it.

    ``pairs`` ((i, i) for [i], (i, j) for [i,j]) and ``triples`` (``raw_triples``)
    are the index tuples naming its objects, in label order: a gluing datum's law subjects.
    """

    objects: tuple[GlObject, ...]
    edges: Mapping[tuple[GlObject, GlObject], GlGen]

    @cached_property
    def pairs(self) -> tuple[tuple[str, str], ...]:
        return tuple(sorted(t[:2] for o in self.objects if o.arity < 3 for t in raw_triples(o)))

    @cached_property
    def triples(self) -> tuple[tuple[str, str, str], ...]:
        return tuple(sorted(t for o in self.objects for t in raw_triples(o)))


def raw_triples(obj: GlObject) -> tuple[tuple[str, str, str], ...]:
    """The raw 3-tuples normalizing to ``obj``: (i,i,i) for [i], (i,j,j) for [i,j],
    and (i,j,k), (i,k,j) for [i|{j,k}]."""
    i = obj.head
    if obj.arity == 3:
        j, k = obj.rest
        return ((i, j, k), (i, k, j))
    j = obj.rest[0] if obj.rest else i
    return ((i, j, j),)


@lru_cache(maxsize=None)
def _raw_slots(obj: GlObject) -> tuple[tuple[tuple, GlGen, GlObject], ...]:
    """The raw generators into ``obj`` that are not identities, as (key, generator, domain).

    An index tuple's generators have its normal object as codomain, so they
    are the ``_slots`` of the tuples normalizing to ``obj``: (i,j) for [i,j],
    and its ``raw_triples``.  The key (tuple length, raw tuple, slot number)
    orders slots as ``raw_generators`` lists them over any sorted index.  The
    domains are ``GlGen.dom``; a generator starting at ``obj`` is its identity.
    """
    raws = raw_triples(obj)
    if obj.arity == 2:
        raws = ((obj.head, obj.rest[0]),) + raws
    slots = (((len(raw), raw, n), gen, gen.dom) for raw in raws for n, gen in enumerate(_slots(raw)))
    return tuple(slot for slot in slots if slot[2] != obj)


def display_order(obj: GlObject) -> tuple:
    """The sort key of ``objects``: arity, then head, then the other labels."""
    return (obj.arity, obj.head, obj.rest)


def restrict(objs: Iterable[GlObject]) -> Category:
    """The full subcategory of the index category on ``objs``.

    Its objects and edges are those of ``objects`` and ``edges`` restricted
    in order to ``objs``: an edge is kept when both its endpoints are.  Only
    the raw generators into ``objs`` are read (``_raw_slots``, from the one
    slot rule ``_slots``), so the cost follows the number of objects, not
    |I|^3.  Raw order is the order of the slots' keys, which name labels, not
    positions, so the objects alone are the argument.
    """
    kept = sorted(set(objs), key=display_order)
    members = set(kept)
    # keys are distinct (each raw tuple normalizes to one object), so the sort reads keys alone
    slots = sorted((key, d, c, gen) for c in kept for key, gen, d in _raw_slots(c) if d in members)
    first: dict[tuple[GlObject, GlObject], GlGen] = {}
    for _, d, c, gen in slots:
        first.setdefault((d, c), gen)
    return Category(tuple(kept), MappingProxyType(first))


@lru_cache(maxsize=None)
def _category(idx: tuple[str, ...]) -> Category:
    # every object is the normal form of some 3-tuple: (i,i,i) -> [i], (i,j,j) -> [i,j]
    return restrict({normalize(raw) for raw in product(idx, repeat=3)})


def _of(index: Iterable[str]) -> Category:
    return _category(tuple(sorted(set(index))))


def objects(index: Iterable[str]) -> tuple[GlObject, ...]:
    """All normalized objects over the index set, in display order."""
    return _of(index).objects


def edges(index: Iterable[str]) -> Mapping[tuple[GlObject, GlObject], GlGen]:
    """One raw generator per non-identity endpoint pair (dom, cod), the first in raw order."""
    return _of(index).edges


def faces_of(obj: GlObject) -> tuple[GlObject, ...]:
    """The sources of the eta and eta3 edges into a pair or triple object:
    ``[i,j] -> ([i],)`` and ``[i|{j,k}] -> ([i,j], [i,k])``, where ``[i,i]`` reads ``[i]``."""
    if obj.arity == 2:
        return (single(obj.head),)
    return tuple(pair(obj.head, n) for n in obj.rest)


def relation_instances(
    index: Iterable[str],
) -> Iterator[tuple[str, GlObject, tuple[GlGen, ...], tuple[GlGen, ...]]]:
    """Both sides of every instance of the five relation families, as generator paths.

    Each instance is (label, dom, lhs, rhs): two paths out of ``dom`` whose
    generators are listed in the order they apply; the empty path is the
    identity.

    (a) eta(i,i) = tau(i,i) = id
    (b) tau(i,j) . tau(j,i) = id
    (c) tau3(i,j,k) . tau3(j,k,i) = tau3(i,k,j)   and   tau3(i,j,k) . tau3(j,i,k) = id
    (d) eta3(i,j,k,j) . eta(i,j) = eta3(i,j,k,k) . eta(i,k)
    (e) tau3(i,j,k) . eta3(j,i,k,i) = eta3(i,j,k,j) . tau(i,j)
    """
    idx = sorted(set(index))
    for i in idx:
        yield f"(a) eta({i},{i})", single(i), (GlGen("eta", (i, i)),), ()
        yield f"(a) tau({i},{i})", single(i), (GlGen("tau", (i, i)),), ()
    for i, j in product(idx, repeat=2):
        yield f"(b) tau({i},{j}).tau({j},{i})", pair(i, j), (GlGen("tau", (j, i)), GlGen("tau", (i, j))), ()
    for i, j, k in product(idx, repeat=3):
        yield (
            f"(c1) at ({i},{j},{k})",
            normalize((k, i, j)),
            (GlGen("tau3", (j, k, i)), GlGen("tau3", (i, j, k))),
            (GlGen("tau3", (i, k, j)),),
        )
        yield (
            f"(c2) at ({i},{j},{k})",
            normalize((i, j, k)),
            (GlGen("tau3", (j, i, k)), GlGen("tau3", (i, j, k))),
            (),
        )
        yield (
            f"(d) at ({i},{j},{k})",
            single(i),
            (GlGen("eta", (i, j)), GlGen("eta3", (i, j, k, j))),
            (GlGen("eta", (i, k)), GlGen("eta3", (i, j, k, k))),
        )
        yield (
            f"(e) at ({i},{j},{k})",
            pair(j, i),
            (GlGen("eta3", (j, i, k, i)), GlGen("tau3", (i, j, k))),
            (GlGen("tau", (i, j)), GlGen("eta3", (i, j, k, j))),
        )


@lru_cache(maxsize=None)
def _representatives(labels: tuple[str, ...]) -> tuple[tuple, ...]:
    """The first instance of each order type among the relation instances over ``labels``.

    ``labels`` are at most three sorted labels.  The instances are read from
    ``relation_instances`` once per label tuple; ``verify_relations`` still
    composes both sides of each on every call.
    """
    prefix = [set(labels[:m]) for m in range(len(labels) + 1)]
    firsts = []
    for label, dom, lhs, rhs in relation_instances(labels):
        used = {i for gen in lhs + rhs for i in gen.indices}
        if used == prefix[len(used)]:  # a later instance of its order type uses a later label
            firsts.append((label, dom, lhs, rhs))
    return tuple(firsts)


def verify_relations(index: Iterable[str]) -> Report:
    """One report row per relation family, (a) to (e).

    A row passes when both sides of every instance of its family compose to
    one morphism; its witness is the first failing instance, as
    ``label: [d]->[c] != [d]->[c']``.

    Only the first instance of each order type is checked, and these give
    the rows, witnesses and errors of the full enumeration.  ``normalize``,
    ``pair`` and every generator endpoint depend only on which indices are
    equal and on their sorted order, so an instance's outcome (its two
    codomains or the error it raises) depends only on the order type of its
    indices (i), (i, j) or (i, j, k).  The lexicographically first instance
    of an order type with m distinct indices uses exactly the first m sorted
    labels, so the representatives are the instances over the first three
    labels whose labels are such a prefix: 2 for (a), 3 for (b) and 13 for
    each triple family, 57 in all.  The full enumeration lists instances in
    lexicographic order within each family, so its first failing or raising
    instance of a family is the first of its order type, hence one of these,
    and it comes first among them too.  The representatives are listed once
    per label prefix (``_representatives``); each call composes both sides of
    every one of them.
    """
    from .gdata import Report  # gdata imports this module

    witness: dict[str, str] = {}
    for label, dom, lhs, rhs in _representatives(tuple(sorted(set(index))[:3])):
        cl, cr = compose_path(dom, lhs), compose_path(dom, rhs)
        if cl != cr:
            witness.setdefault(label.partition(" ")[0], f"{label}: {dom!r}->{cl!r} != {dom!r}->{cr!r}")
    rep = Report()
    for family in ("(a)", "(b)", "(c1)", "(c2)", "(d)", "(e)"):
        rep.add(family, "all", family not in witness, witness.get(family))
    return rep
