"""Finite topological spaces and their maps.

A finite topology is stored as a minimal-open table: for every point x,
``min_open[x]`` is the smallest open set containing x.  This determines the
whole open-set lattice (a set is open iff it contains the minimal open of each
of its points), so continuity, openness and embeddings reduce to per-point
checks.  Points are plain strings scoped to their space; nothing identifies
points across spaces except explicit maps.

Spaces and maps are frozen: their tables are read-only copies of what the
constructor was given, so no reference a caller keeps can change them.  Every
operation is a pure function of its inputs.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from .errors import (
    CompositionMismatch,
    DuplicateName,
    InvalidTopology,
    SearchBudgetExceeded,
    UnknownPoint,
)

DEFAULT_MAP_BUDGET = 10**6
DEFAULT_HOMEO_BUDGET = 200_000


def read_only(table: Mapping) -> Mapping:
    """A read-only copy of ``table``: no reference to ``table`` can change it."""
    return MappingProxyType(table.copy() if isinstance(table, MappingProxyType) else dict(table))


@dataclass(frozen=True, init=False)
class FiniteSpace:
    """A finite topological space given by its minimal-open table.

    ``space_id`` is a label for diagnostics only; it does not take part in
    equality.  Two spaces are equal iff they have the same points and the
    same minimal-open table.  The space keeps a read-only copy of the table.
    """

    space_id: str = field(compare=False)
    points: frozenset[str]
    min_open: Mapping[str, frozenset[str]] = field(hash=False)

    def __init__(self, space_id: str, points: Iterable[str], min_open: Mapping[str, frozenset[str]]):
        object.__setattr__(self, "space_id", space_id)
        object.__setattr__(self, "points", frozenset(points))
        object.__setattr__(self, "min_open", read_only(min_open))

    def __repr__(self):
        return f"FiniteSpace({self.space_id!r}, {len(self.points)} points)"

    def require(self, point: str) -> None:
        if point not in self.points:
            raise UnknownPoint(f"{point!r} is not a point of {self.space_id!r}")


@dataclass(frozen=True, init=False)
class SpaceMap:
    """A total map between two finite spaces, given by its point table (not necessarily continuous).

    The table's keys must be exactly the points of ``dom`` and its values
    points of ``cod``, else UnknownPoint names the least domain point the
    table misses, else the least key outside the domain, else the least
    value outside the codomain, whatever order the table was built in.
    Every reader can therefore trust the table.  The map keeps a read-only
    copy of it.
    """

    dom: FiniteSpace
    cod: FiniteSpace
    table: Mapping[str, str] = field(hash=False)

    def __init__(self, dom: FiniteSpace, cod: FiniteSpace, table: Mapping[str, str]):
        own = dict(table)
        if own.keys() != dom.points or not cod.points.issuperset(own.values()):
            missing, extra = dom.points - own.keys(), own.keys() - dom.points
            if missing:
                raise UnknownPoint(f"{min(missing)!r} of {dom.space_id!r} has no image")
            if extra:
                raise UnknownPoint(f"{min(extra)!r} is not a point of {dom.space_id!r}")
            stray = set(own.values()) - cod.points
            raise UnknownPoint(f"{min(stray)!r} is not a point of {cod.space_id!r}")
        object.__setattr__(self, "dom", dom)
        object.__setattr__(self, "cod", cod)
        object.__setattr__(self, "table", MappingProxyType(own))

    def __call__(self, point: str) -> str:
        try:
            return self.table[point]
        except KeyError:
            raise UnknownPoint(f"{point!r} is not a point of {self.dom.space_id!r}") from None

    def image(self, subset: Iterable[str] | None = None) -> frozenset[str]:
        if subset is None:
            subset = self.dom.points
        return frozenset(self(x) for x in subset)

    def __repr__(self):
        return f"SpaceMap({self.dom.space_id!r} -> {self.cod.space_id!r})"


def make_space(space_id: str, points: Iterable[str], min_open: Mapping[str, Iterable[str]]) -> FiniteSpace:
    """Build a validated finite space from a minimal-open table.

    Each check names its least offending point, and the min_open(y) check
    its least y, whatever the hash order; offenders are sorted only when
    there is one.
    """
    pts = frozenset(points)
    table = {x: frozenset(min_open[x]) for x in pts if x in min_open}
    bad = [x for x in pts if x not in table or not table[x] <= pts]
    if bad:
        x = min(bad)
        if x not in table:
            raise InvalidTopology(x, None, f"no minimal open given for {x!r}")
        raise InvalidTopology(x, table[x] - pts, f"min_open({x!r}) leaves the point set")
    extra = set(min_open) - pts
    if extra:
        raise InvalidTopology(sorted(extra)[0], None, "table mentions unknown points")
    # a point's own-open check sorts before its min_open(y) checks
    bad = [(x, 0, x) for x, u in table.items() if x not in u]
    bad += [(x, 1, y) for x, u in table.items() for y in u if not table[y] <= u]
    if bad:
        x, wide, y = min(bad)
        if not wide:
            raise InvalidTopology(x, x, f"{x!r} not in its own minimal open")
        raise InvalidTopology(x, y, f"min_open({y!r}) not inside min_open({x!r})")
    return FiniteSpace(space_id, pts, table)


def from_opens(space_id: str, points: Iterable[str], opens: Iterable[Iterable[str]]) -> FiniteSpace:
    """Build the space whose topology is generated by ``opens``.

    The minimal open of x is the intersection of the generating sets that
    contain x (and the whole set); closing under union/intersection does not
    change these intersections, so the closure is never materialized.
    """
    pts = frozenset(points)
    gens = [frozenset(o) & pts for o in opens]
    table = {}
    for x in pts:
        u = pts
        for g in gens:
            if x in g:
                u = u & g
        table[x] = u
    return make_space(space_id, pts, table)


def is_open(space: FiniteSpace, subset: Iterable[str]) -> bool:
    """A set is open iff it contains the minimal open of each of its points."""
    sub = frozenset(subset)
    for x in sub:
        space.require(x)
    return all(space.min_open[x] <= sub for x in sub)


def identity_map(space: FiniteSpace) -> SpaceMap:
    return SpaceMap(space, space, {x: x for x in space.points})


def compose(g: SpaceMap, f: SpaceMap) -> SpaceMap:
    """Pointwise composition g after f."""
    if f.cod != g.dom:
        raise CompositionMismatch(
            f"cannot compose {g!r} after {f!r}: middle spaces differ"
        )
    outer = g.table
    return SpaceMap(f.dom, g.cod, {x: outer[y] for x, y in f.table.items()})


def _composite(path: Sequence[SpaceMap]) -> SpaceMap:
    """The composite of a path listed outermost first: ``(g, f)`` is g after f."""
    out = path[-1]
    for outer in reversed(path[:-1]):
        out = compose(outer, out)
    return out


def _same(a: FiniteSpace, b: FiniteSpace) -> bool:
    return a is b or a == b


def _images(path: Sequence[SpaceMap], points: list[str]) -> list[str]:
    """The images of ``points`` along a composable path, read from the tables."""
    for m in reversed(path):
        table = m.table
        points = [table[x] for x in points]
    return points


def composable(left: Sequence[SpaceMap], right: Sequence[SpaceMap]) -> bool:
    """Whether each path's consecutive maps meet and the two paths share their endpoints.

    Each path lists its maps outermost first, as ``disagreement`` takes
    them.  Two composable paths out of a space with no points are the one
    map out of it: a diagram out of an empty space commutes exactly when it
    is typed, and ``disagreement`` answers None for it without reading a
    table.
    """
    for path in (left, right):
        inner = path[-1]
        for outer in path[-2::-1]:
            if not _same(outer.dom, inner.cod):
                return False
            inner = outer
    return _same(left[-1].dom, right[-1].dom) and _same(left[0].cod, right[0].cod)


def disagreement(left: Sequence[SpaceMap], right: Sequence[SpaceMap]) -> str | None:
    """Where the composites of two paths of maps differ; None when they are one map.

    Each path lists its maps outermost first, as ``compose`` nests them:
    ``(g, f)`` is g after f.  The answer is the least domain point where the
    two composites differ, or ``"<endpoint mismatch>"`` when their domains
    or codomains differ.  A path whose middle spaces differ raises
    CompositionMismatch, as ``compose`` does.

    Composable paths (``composable``) out of a space with no points are one
    map, decided before any table is read.  Otherwise the two image lists
    are read straight from the tables and compared.
    """
    if not composable(left, right):
        _composite(left)  # a path whose middle spaces differ raises here
        _composite(right)
        return "<endpoint mismatch>"
    return _first_difference(left, right, list(left[-1].dom.points))


def _first_difference(left: Sequence[SpaceMap], right: Sequence[SpaceMap], points: list[str]) -> str | None:
    """The least of ``points`` where two composable paths, listed as ``disagreement`` takes
    them, send a point to different images; None if there is none.  ``points``
    are those of the paths' common domain, and an empty path is its identity."""
    ours, theirs = _images(left, points), _images(right, points)
    if ours == theirs:
        return None
    return min(x for x, a, b in zip(points, ours, theirs) if a != b)


def discontinuities(f: SpaceMap) -> list[str]:
    """The sorted points x where f(min_open(x)) is not inside min_open(f(x)).

    The list is empty iff f is continuous.
    """
    table, cod_open = f.table, f.cod.min_open
    broken = []
    for x, ux in f.dom.min_open.items():
        if not cod_open[table[x]].issuperset([table[z] for z in ux]):
            broken.append(x)
    broken.sort()
    return broken


def is_continuous(f: SpaceMap) -> bool:
    """Whether f(min_open(x)) lies inside min_open(f(x)) for every x; the first failure stops."""
    table, cod_open = f.table, f.cod.min_open
    for x, ux in f.dom.min_open.items():
        if not cod_open[table[x]].issuperset(map(table.__getitem__, ux)):
            return False
    return True


def collisions(f: SpaceMap) -> list[str]:
    """Each sorted point that f sends where an earlier one went, as ``"x',x"`` with x' the first.

    The list is empty iff f is injective.
    """
    seen: dict[str, str] = {}
    out = []
    for x in sorted(f.dom.points):
        y = f(x)
        if y in seen:
            out.append(f"{seen[y]},{x}")
        else:
            seen[y] = x
    return out


def non_open_points(f: SpaceMap) -> list[str]:
    """The sorted points x where f(min_open(x)) is not open.

    The list is empty iff f is an open map.
    """
    table, cod_open = f.table, f.cod.min_open
    closed = []
    for x, ux in f.dom.min_open.items():
        img = {table[z] for z in ux}
        if not all(cod_open[y] <= img for y in img):
            closed.append(x)
    closed.sort()
    return closed


def non_embedding_points(f: SpaceMap) -> list[str]:
    """The sorted points x where f(min_open(x)) is not min_open(f(x)) cut to the image of f.

    For an injective continuous f, the list is empty iff f is an embedding.
    """
    table, cod_open = f.table, f.cod.min_open
    misfits = []
    full_image = set(table.values())
    for x, ux in f.dom.min_open.items():
        if {table[z] for z in ux} != cod_open[table[x]] & full_image:
            misfits.append(x)
    misfits.sort()
    return misfits


def analyze_map(f: SpaceMap) -> tuple[tuple[str, str], ...]:
    """The witnesses of every property f fails, as (property, point) pairs.

    continuous: f(min_open(x)) is inside min_open(f(x)) for every x.
    injective:  no two points share an image (``"x',x"`` names a pair).
    open:       the image of every minimal open is open.
    embedding:  asked only of an injective continuous f: the image of each
                minimal open is exactly min_open(f(x)) intersected with the
                image of f.
    surjective: the least point of the codomain outside the image.

    Each property has its own helper (``discontinuities``, ``collisions``,
    ``non_open_points``, ``non_embedding_points``), for a caller that asks
    about one property alone.  The tuple is empty iff ``is_homeomorphism(f)``.
    """
    broken = discontinuities(f)
    clashes = collisions(f)
    witnesses = [("continuous", x) for x in broken]
    witnesses += [("injective", pair) for pair in clashes]
    witnesses += [("open", x) for x in non_open_points(f)]
    if not broken and not clashes:
        witnesses += [("embedding", x) for x in non_embedding_points(f)]
    full_image = f.image()
    if full_image != f.cod.points:
        witnesses.append(("surjective", min(f.cod.points - full_image)))
    return tuple(witnesses)


def is_homeomorphism(f: SpaceMap) -> bool:
    """Whether f is continuous, injective, surjective and open; the first failure stops."""
    return (
        not discontinuities(f)
        and not collisions(f)
        and f.image() == f.cod.points
        and not non_open_points(f)
    )


def failure_witnesses(f: SpaceMap, *tests: Callable[[SpaceMap], list]) -> str | None:
    """None when no property test in ``tests`` finds a point of f, else the row witness.

    The witness is the string of ``analyze_map(f)``; the first failing test stops the tests.
    """
    if any(test(f) for test in tests):
        return str(analyze_map(f))
    return None


def _coproduct_tag(point: str, tag: str) -> str:
    return f"{point}@{tag}"


def disjoint_union(
    spaces: Sequence[FiniteSpace], tags: Sequence[str] | None = None
) -> tuple[FiniteSpace, list[SpaceMap]]:
    """Disjoint union with tagged points and the canonical injections.

    The point x of the space tagged i is named ``x@i``; no other function
    makes such names.  Two (point, tag) pairs that would get one name (a
    point or tag holding ``@``) raise DuplicateName.
    """
    if tags is None:
        tags = [str(i) for i in range(len(spaces))]
    if len(tags) != len(spaces) or len(set(tags)) != len(tags):
        raise ValueError("tags must be distinct and match the space list")
    source: dict[str, tuple[str, str]] = {}
    names = []
    for sp, tag in zip(spaces, tags):
        name = {}
        for x in sorted(sp.points):
            name[x] = _coproduct_tag(x, tag)
            if name[x] in source:
                raise DuplicateName(
                    f"disjoint union points {source[name[x]]} and {(x, tag)} "
                    f"both get the name {name[x]!r}"
                )
            source[name[x]] = (x, tag)
        names.append(name)
    table = {
        name[x]: frozenset(name[y] for y in sp.min_open[x])
        for sp, name in zip(spaces, names)
        for x in sp.points
    }
    union_id = "+".join(s.space_id for s in spaces) or "empty"
    total = make_space(union_id, source, table)
    return total, [SpaceMap(sp, total, name) for sp, name in zip(spaces, names)]


def subspace(space: FiniteSpace, subset: Iterable[str]) -> tuple[FiniteSpace, SpaceMap]:
    """Subspace topology: minimal opens are intersected with the subset."""
    sub = frozenset(subset)
    for x in sub:
        space.require(x)
    table = {x: space.min_open[x] & sub for x in sub}
    sp = make_space(f"{space.space_id}|sub", sub, table)
    return sp, SpaceMap(sp, space, {x: x for x in sub})


def pullback(
    f: SpaceMap, g: SpaceMap, space_id: str | None = None
) -> tuple[FiniteSpace, SpaceMap, SpaceMap]:
    """Pullback of a cospan: pairs with equal images, product topology restricted.

    The pair (u, v) is the point named ``(u,v)``; no other function makes
    such names.  Two pairs that would get one name (a point name holding
    ``,``) raise DuplicateName, the first such pair in sorted order.  The
    space is named ``space_id``, by default ``A*B`` for the domains A of
    ``f`` and B of ``g``.
    """
    if f.cod != g.cod:
        raise CompositionMismatch("pullback needs maps into a common codomain")
    fiber: dict[str, list[str]] = {}
    for v, y in g.table.items():
        fiber.setdefault(y, []).append(v)
    pairs = sorted((u, v) for u, y in f.table.items() for v in fiber.get(y, ()))
    pair_of: dict[str, tuple[str, str]] = {}
    name: dict[tuple[str, str], str] = {}
    for u, v in pairs:
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


def lift(
    want: Sequence[SpaceMap], along: Sequence[SpaceMap]
) -> SpaceMap | tuple[str, list[str]]:
    """The map sending each t to the one point u with ``along[n](u) == want[n](t)`` for every n.

    With one ``along`` map this lifts through its singleton fibers; with the
    two projections of a pullback it pairs into the pullback.  The ``want``
    maps share a domain T, the ``along`` maps share a domain U, and
    ``want[n]`` and ``along[n]`` share a codomain, else CompositionMismatch.
    When some t has no such u or several, the first such t in sorted order
    is returned with its sorted candidates instead of a map, so that the
    caller raises its own error.
    """
    dom, cod = want[0].dom, along[0].dom
    if len(want) != len(along) or any(
        w.dom != dom or a.dom != cod or w.cod != a.cod for w, a in zip(want, along)
    ):
        raise CompositionMismatch(
            f"cannot lift {list(want)!r} along {list(along)!r}: endpoints differ"
        )
    fibers: dict[tuple[str, ...], list[str]] = {}
    for u in sorted(cod.points):
        fibers.setdefault(tuple([a.table[u] for a in along]), []).append(u)
    table = {}
    for t in sorted(dom.points):
        candidates = fibers.get(tuple([w.table[t] for w in want]), [])
        if len(candidates) != 1:
            return t, candidates
        table[t] = candidates[0]
    return SpaceMap(dom, cod, table)


class _UnionFind:
    def __init__(self, items: Iterable[str]):
        self.parent = {x: x for x in items}

    def find(self, x: str) -> str:
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, x: str, y: str) -> None:
        rx, ry = self.find(x), self.find(y)
        if rx != ry:
            self.parent[max(rx, ry)] = min(rx, ry)


def quotient(
    space: FiniteSpace, pairs: Iterable[tuple[str, str]]
) -> tuple[FiniteSpace, SpaceMap]:
    """Quotient by the pair graph, carrying the final topology.

    Classes are named by their lexicographically least member.  Class rep(x)
    meets class rep(z) for each z in U(x), and a class's minimal open is the
    set of classes it reaches.  Their members make the least saturated open
    holding the class, so this is the final topology: the specialization
    preorder is the image preorder's transitive closure (Barmak, LNM 2032).
    """
    uf = _UnionFind(space.points)
    for x, y in pairs:
        space.require(x)
        space.require(y)
        uf.union(x, y)
    rep = {x: uf.find(x) for x in space.points}
    meets: dict[str, set[str]] = {r: set() for r in rep.values()}
    for x, r in rep.items():
        meets[r].update(rep[z] for z in space.min_open[x])
    table = {}
    for r in meets:
        reached, todo = {r}, [r]
        while todo:
            todo += meets[todo.pop()] - reached
            reached.update(todo)
        table[r] = reached
    q = make_space(f"{space.space_id}/~", meets, table)
    projection = SpaceMap(space, q, dict(rep))
    return q, projection


_EXHAUSTED = object()


def backtrack(
    search: str, depth: int, options: Callable[[list], Iterable], budget: int
) -> Iterator[tuple]:
    """Depth-first search over ``depth`` positions, yielding every complete choice tuple.

    ``options(prefix)`` lists the choices for position ``len(prefix)`` that
    are consistent with the choices in ``prefix``; complete tuples come out in
    the lexicographic order those lists induce.  Every choice taken is one
    search node, and more than ``budget`` nodes raises SearchBudgetExceeded
    naming ``search``.  The stack is explicit, so depth is not limited by the
    interpreter's recursion limit.
    """
    if depth == 0:
        yield ()
        return
    prefix: list = []
    stack = [iter(options(prefix))]
    nodes = 0
    while stack:
        del prefix[len(stack) - 1:]
        choice = next(stack[-1], _EXHAUSTED)
        if choice is _EXHAUSTED:
            stack.pop()
            continue
        nodes += 1
        if nodes > budget:
            raise SearchBudgetExceeded(search, nodes, budget)
        prefix.append(choice)
        if len(prefix) == depth:
            yield tuple(prefix)
        else:
            stack.append(iter(options(prefix)))


def _allowed_images(
    order: Sequence, min_open: Mapping, cod: FiniteSpace
) -> Callable[[Sequence[str]], frozenset[str]]:
    """The order constraint of a point-by-point search for continuous maps.

    ``order`` lists the domain points in search order and ``min_open[x]`` is
    x's minimal open among them.  The returned function maps the images of a
    prefix of ``order`` to the points of ``cod`` the next point x may take.
    A map is continuous iff z in U(x) implies f(z) in U(f(x)) (Stong 1966),
    so an earlier z in U(x) needs f(x) in up(f(z)) and an earlier z with x
    in U(z) needs f(x) in U(f(z)); a dead end is cut at the first pair of
    points that breaks the order.
    """
    pos = {x: p for p, x in enumerate(order)}
    # below[p]: earlier points inside U(x); above[p]: earlier points whose U holds x
    below = [[pos[z] for z in min_open[x] if pos[z] < p] for p, x in enumerate(order)]
    above: list[list[int]] = [[] for _ in order]
    for q, x in enumerate(order):
        for z in min_open[x]:
            if pos[z] > q:
                above[pos[z]].append(q)
    # up[y]: the points whose minimal open contains y
    up = {y: frozenset(z for z in cod.points if y in cod.min_open[z]) for y in cod.points}

    def allowed(img: Sequence[str]) -> frozenset[str]:
        p = len(img)
        out = cod.points
        for q in below[p]:
            out = out & up[img[q]]
        for q in above[p]:
            out = out & cod.min_open[img[q]]
        return out

    return allowed


def continuous_images(
    a: FiniteSpace, b: FiniteSpace, budget: int = DEFAULT_MAP_BUDGET
) -> list[tuple[str, ...]]:
    """The tables of all continuous maps a -> b, as image tuples over ``sorted(a.points)``.

    The tuples come in lexicographic order.  The search assigns the sorted
    points of ``a`` in turn and offers each the images ``_allowed_images``
    leaves it, in sorted order.  ``budget`` bounds the number of point
    assignments tried (search nodes).
    """
    dom = sorted(a.points)
    allowed = _allowed_images(dom, a.min_open, b)
    search = f"map search {a.space_id!r} -> {b.space_id!r}"
    return list(backtrack(search, len(dom), lambda img: sorted(allowed(img)), budget))


def enumerate_continuous_maps(
    a: FiniteSpace, b: FiniteSpace, budget: int = DEFAULT_MAP_BUDGET
) -> list[SpaceMap]:
    """All continuous maps a -> b, in lexicographic table order (``continuous_images``)."""
    dom = sorted(a.points)
    return [SpaceMap(a, b, dict(zip(dom, img))) for img in continuous_images(a, b, budget)]


def _signature(space: FiniteSpace) -> dict[str, tuple[int, int]]:
    indeg = {x: 0 for x in space.points}
    for y in space.points:
        for x in space.min_open[y]:
            indeg[x] += 1
    return {x: (len(space.min_open[x]), indeg[x]) for x in space.points}


def _connected_order(space: FiniteSpace, key: Callable[[str], tuple]) -> list[str]:
    """The points breadth-first through the specialization graph.

    Each component starts at its point of least ``key`` and neighbours are
    queued in ``key`` order, so every point after a component's first comes
    after a neighbour.
    """
    near = {x: set(space.min_open[x]) for x in space.points}
    for x in space.points:
        for z in space.min_open[x]:
            near[z].add(x)
    order: list[str] = []
    seen: set[str] = set()
    for root in sorted(space.points, key=key):
        queue = [] if root in seen else [root]
        seen.update(queue)
        for x in queue:  # the queue grows while it is read
            fresh = sorted(near[x] - seen, key=key)
            seen.update(fresh)
            queue.extend(fresh)
        order += queue
    return order


def find_homeomorphism(
    a: FiniteSpace, b: FiniteSpace, node_budget: int = DEFAULT_HOMEO_BUDGET
) -> SpaceMap | None:
    """Search for a homeomorphism a -> b; returns a witness map or None.

    The signature of x is (|U(x)|, the number of points whose minimal open
    holds x).  After the size and signature-count checks, the search assigns
    the points of ``a`` breadth-first through its specialization graph,
    starting each component at its rarest signature, and offers x the images
    ``_allowed_images`` leaves it that have x's signature and are not used
    yet.  ``node_budget`` bounds the number of point assignments tried.

    Complete: a homeomorphism preserves the specialization order and the
    signature and is injective, so it passes every filter.  Sound: the first
    tuple found is a continuous injection with |U(f(x))| = |U(x)| for every x;
    f(U(x)) lies in U(f(x)) by continuity and has |U(x)| points by
    injectivity, so f(U(x)) = U(f(x)).  A bijection (|a| = |b|) that sends
    minimal opens onto minimal opens is continuous and open, so it is a
    homeomorphism.
    """
    if len(a.points) != len(b.points):
        return None
    sig_a, sig_b = _signature(a), _signature(b)
    counts = Counter(sig_a.values())
    if counts != Counter(sig_b.values()):
        return None
    by_sig: dict[tuple[int, int], list[str]] = {}
    for y in sorted(b.points):
        by_sig.setdefault(sig_b[y], []).append(y)
    order = _connected_order(a, lambda x: (counts[sig_a[x]], x))
    allowed = _allowed_images(order, a.min_open, b)

    def images(img: list) -> list[str]:
        ok, used = allowed(img), set(img)
        return [y for y in by_sig[sig_a[order[len(img)]]] if y in ok and y not in used]

    search = f"homeomorphism search {a.space_id!r} -> {b.space_id!r}"
    for img in backtrack(search, len(order), images, node_budget):
        return SpaceMap(a, b, dict(zip(order, img)))
    return None
