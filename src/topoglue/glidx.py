"""The gluing index category over a finite index set.

Objects are normalized index tuples: a single [i], an ordered pair [i,j] with
i != j, or a triple [i|{j,k}] whose second component is an unordered pair of
distinct indices (either of which may equal i).  Normalization applies
(i,i) -> i, (i,j,j) -> (i,j) and (i,j,k) -> (i,k,j).

Between any two objects there is at most one morphism, so morphisms compare
equal by endpoints alone; generator paths are kept only as witnesses for
diagnostics and evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator, Sequence

from .errors import BadArity, CompositionMismatch

SINGLE, PAIR, TRIPLE = 1, 2, 3


@dataclass(frozen=True)
class GlObject:
    head: str
    rest: tuple[str, ...]  # () single, (j,) pair, (j,k) sorted triple

    @property
    def arity(self) -> int:
        return 1 + len(self.rest)

    def display(self) -> str:
        return "[" + ",".join((self.head,) + self.rest) + "]"

    def __repr__(self):
        return self.display()


def single(i: str) -> GlObject:
    return GlObject(i, ())


def pair(i: str, j: str) -> GlObject:
    if i == j:
        return single(i)
    return GlObject(i, (j,))


def normalize(raw: Sequence[str]) -> GlObject:
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
        if self.kind in ("eta", "tau"):
            return normalize(self.indices)
        return normalize(self.indices[:3])

    def display(self) -> str:
        return f"{self.kind}({','.join(self.indices)})"


@dataclass(frozen=True, eq=False)
class GlMorphism:
    """The unique morphism dom -> cod, witnessed by a generator path."""

    dom: GlObject
    cod: GlObject
    witness: tuple[GlGen, ...] = ()

    def __eq__(self, other):
        if not isinstance(other, GlMorphism):
            return NotImplemented
        return self.dom == other.dom and self.cod == other.cod

    def __hash__(self):
        return hash((self.dom, self.cod))

    def __repr__(self):
        return f"{self.dom}->{self.cod}"


def identity(a: GlObject) -> GlMorphism:
    return GlMorphism(a, a, ())


def morphism_of(gen: GlGen) -> GlMorphism:
    d, c = gen.dom, gen.cod
    if d == c:
        return identity(d)
    return GlMorphism(d, c, (gen,))


def objects(index: Iterable[str]) -> list[GlObject]:
    """All normalized objects over the index set, in display order."""
    idx = sorted(set(index))
    out = [single(i) for i in idx]
    out += [pair(i, j) for i in idx for j in idx if i != j]
    seen = set()
    for i in idx:
        for j in idx:
            for k in idx:
                o = normalize((i, j, k))
                if o.arity == TRIPLE and o not in seen:
                    seen.add(o)
                    out.append(o)
    return sorted(out, key=lambda o: (o.arity, o.head, o.rest))


def raw_generators(index: Iterable[str]) -> list[GlGen]:
    """Every generator slot, one per index tuple: 2|I|^2 + 3|I|^3 entries."""
    idx = sorted(set(index))
    gens = []
    for i in idx:
        for j in idx:
            gens.append(GlGen("eta", (i, j)))
            gens.append(GlGen("tau", (i, j)))
    for i in idx:
        for j in idx:
            for k in idx:
                gens.append(GlGen("eta3", (i, j, k, j)))
                gens.append(GlGen("eta3", (i, j, k, k)))
                gens.append(GlGen("tau3", (i, j, k)))
    return gens


def generators(index: Iterable[str]) -> list[GlMorphism]:
    """Generator morphisms, deduplicated by endpoints (identities included once)."""
    seen = {}
    for gen in raw_generators(index):
        m = morphism_of(gen)
        key = (m.dom, m.cod)
        if key not in seen:
            seen[key] = m
    return [seen[k] for k in sorted(seen, key=lambda dc: (repr(dc[0]), repr(dc[1])))]


def edges(index: Iterable[str]) -> dict[tuple[GlObject, GlObject], GlGen]:
    """One raw generator per non-identity endpoint pair (dom, cod), the first in raw order."""
    first: dict[tuple[GlObject, GlObject], GlGen] = {}
    for gen in raw_generators(index):
        d, c = gen.dom, gen.cod
        if d != c:
            first.setdefault((d, c), gen)
    return first


@lru_cache(maxsize=None)
def _adjacency(index: tuple[str, ...]) -> dict[GlObject, list[tuple[GlObject, GlGen]]]:
    adj: dict[GlObject, list[tuple[GlObject, GlGen]]] = {o: [] for o in objects(index)}
    for (d, c), gen in edges(index).items():
        adj[d].append((c, gen))
    for d in adj:
        adj[d].sort(key=lambda e: repr(e[0]))
    return adj


def hom(index: Iterable[str], a: GlObject, b: GlObject) -> GlMorphism | None:
    """The unique morphism a -> b, or None; found by search in the generator graph."""
    if a == b:
        return identity(a)
    adj = _adjacency(tuple(sorted(set(index))))
    if a not in adj or b not in adj:
        return None
    frontier = [(a, ())]
    visited = {a}
    while frontier:
        nxt = []
        for obj, path in frontier:
            for tgt, gen in adj[obj]:
                if tgt in visited:
                    continue
                full = path + (gen,)
                if tgt == b:
                    return GlMorphism(a, b, full)
                visited.add(tgt)
                nxt.append((tgt, full))
        frontier = nxt
    return None


def compose_hom(g: GlMorphism, f: GlMorphism) -> GlMorphism:
    """The unique composite; witnesses are concatenated for diagnostics."""
    if f.cod != g.dom:
        raise CompositionMismatch(f"cannot compose {g!r} after {f!r}")
    return GlMorphism(f.dom, g.cod, f.witness + g.witness)


def _eta(i, j):
    return morphism_of(GlGen("eta", (i, j)))


def _tau(i, j):
    return morphism_of(GlGen("tau", (i, j)))


def _eta3(i, j, k, n):
    return morphism_of(GlGen("eta3", (i, j, k, n)))


def _tau3(i, j, k):
    return morphism_of(GlGen("tau3", (i, j, k)))


@dataclass
class RelationsReport:
    checked: int
    failures: list[str]

    @property
    def passed(self) -> bool:
        return not self.failures

    def __str__(self):
        if self.passed:
            return f"all {self.checked} relation instances hold"
        return f"{len(self.failures)} relation failures: " + "; ".join(self.failures)


def relation_instances(index: Iterable[str]) -> Iterator[tuple[str, GlMorphism, GlMorphism]]:
    """Both sides of every instance of the five relation families.

    (a) eta(i,i) = tau(i,i) = id
    (b) tau(i,j) . tau(j,i) = id
    (c) tau3(i,j,k) . tau3(j,k,i) = tau3(i,k,j)   and   tau3(i,j,k) . tau3(j,i,k) = id
    (d) eta3(i,j,k,j) . eta(i,j) = eta3(i,j,k,k) . eta(i,k)
    (e) tau3(i,j,k) . eta3(j,i,k,i) = eta3(i,j,k,j) . tau(i,j)
    """
    idx = sorted(set(index))
    for i in idx:
        yield f"(a) eta({i},{i})", _eta(i, i), identity(single(i))
        yield f"(a) tau({i},{i})", _tau(i, i), identity(single(i))
    for i in idx:
        for j in idx:
            yield (
                f"(b) tau({i},{j}).tau({j},{i})",
                compose_hom(_tau(i, j), _tau(j, i)),
                identity(pair(i, j)),
            )
    for i in idx:
        for j in idx:
            for k in idx:
                yield (
                    f"(c1) at ({i},{j},{k})",
                    compose_hom(_tau3(i, j, k), _tau3(j, k, i)),
                    _tau3(i, k, j),
                )
                yield (
                    f"(c2) at ({i},{j},{k})",
                    compose_hom(_tau3(i, j, k), _tau3(j, i, k)),
                    identity(normalize((i, j, k))),
                )
                yield (
                    f"(d) at ({i},{j},{k})",
                    compose_hom(_eta3(i, j, k, j), _eta(i, j)),
                    compose_hom(_eta3(i, j, k, k), _eta(i, k)),
                )
                yield (
                    f"(e) at ({i},{j},{k})",
                    compose_hom(_tau3(i, j, k), _eta3(j, i, k, i)),
                    compose_hom(_eta3(i, j, k, j), _tau(i, j)),
                )


def verify_relations(index: Iterable[str]) -> RelationsReport:
    """Check the five relation families forced by morphism uniqueness."""
    instances = list(relation_instances(index))
    failures = [f"{label}: {lhs!r} != {rhs!r}" for label, lhs, rhs in instances if lhs != rhs]
    return RelationsReport(len(instances), failures)
