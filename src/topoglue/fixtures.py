"""Standard spaces and gluing fixtures used by the tests and the docs.

The circle fixture glues two 3-point arcs along their endpoint pairs and
yields the 4-point pseudocircle.  The torus pipeline does the analogous thing
one dimension up: two square models glue into a cylinder model along their
vertical edges, and two cylinder models glue into a torus model along their
boundary circles.  Every one of these is a two-patch gluing built by
``_two_patches``, and every strip it glues along is a product with the
two-point discrete space ``_ends``.
"""

from __future__ import annotations

from .fintop import FiniteSpace, SpaceMap, make_space
from .gdata import GluingData, GluingFunctor, derive_triple_maps, functor_of
from .glidx import normalize, pair, single
from .glue import Cone, glue
from .refine import GdfGluingData, Refinement, identity_refinement

ARC = ("l", "m", "r")
CIRCLE4 = ("l", "ma", "r", "mb")


def pt(space_id: str = "PT", point: str = "p") -> FiniteSpace:
    return make_space(space_id, [point], {point: [point]})


def sierp() -> FiniteSpace:
    return make_space("SIERP", ["t", "b"], {"t": ["t"], "b": ["t", "b"]})


def disc2() -> FiniteSpace:
    return make_space("DISC2", ["a", "b"], {"a": ["a"], "b": ["b"]})


def indisc2() -> FiniteSpace:
    """Indiscrete 2-point space: its two points are topologically indistinguishable."""
    return make_space("I2", ["a", "b"], {"a": ["a", "b"], "b": ["a", "b"]})


def arc3(space_id: str = "ARC3") -> FiniteSpace:
    """Interval model: open endpoints l and r, closed midpoint m."""
    return make_space(
        space_id, ARC, {"l": ["l"], "r": ["r"], "m": ["l", "m", "r"]}
    )


def circle4(space_id: str = "C4") -> FiniteSpace:
    """Pseudocircle: open points l and r, closed points ma and mb."""
    return make_space(
        space_id,
        CIRCLE4,
        {"l": ["l"], "r": ["r"], "ma": ["l", "ma", "r"], "mb": ["l", "mb", "r"]},
    )


def _ends() -> FiniteSpace:
    """The two endpoints l and r of an interval model, as a discrete space."""
    return make_space("ENDS", ["l", "r"], {"l": ["l"], "r": ["r"]})


def _product(space_id: str, a: FiniteSpace, b: FiniteSpace) -> FiniteSpace:
    points = [f"{x}|{y}" for x in sorted(a.points) for y in sorted(b.points)]
    table = {
        f"{x}|{y}": [f"{u}|{v}" for u in a.min_open[x] for v in b.min_open[y]]
        for x in sorted(a.points)
        for y in sorted(b.points)
    }
    return make_space(space_id, points, table)


def sq9(space_id: str = "SQ9") -> FiniteSpace:
    """Square model: the product of two interval models."""
    return _product(space_id, arc3(), arc3())


def product_c4_c4() -> FiniteSpace:
    return _product("C4xC4", circle4(), circle4())


def _name_map(dom: FiniteSpace, cod: FiniteSpace) -> SpaceMap:
    return SpaceMap(dom, cod, {p: p for p in dom.points})


def _two_patches(
    p1: FiniteSpace, p2: FiniteSpace, o12: FiniteSpace, o21: FiniteSpace,
    a12: dict[str, str], a21: dict[str, str],
) -> GluingData:
    """Patches 1 and 2 glued along overlaps o12 and o21, which share point names.

    ``a12`` and ``a21`` are the anchor tables into p1 and p2; each transition
    sends an overlap point to the point of the same name in the other overlap.
    """
    data = GluingData(
        ["1", "2"],
        patch={"1": p1, "2": p2},
        overlap={("1", "2"): o12, ("2", "1"): o21},
        anchor={
            ("1", "2"): SpaceMap(o12, p1, dict(a12)),
            ("2", "1"): SpaceMap(o21, p2, dict(a21)),
        },
        transition={("1", "2"): _name_map(o12, o21), ("2", "1"): _name_map(o21, o12)},
    )
    return derive_triple_maps(data)


def gd_circ() -> GluingData:
    """Two arcs glued along their endpoints: the glued space is the pseudocircle."""
    table = {"a": "l", "b": "r"}
    return _two_patches(arc3("arcA"), arc3("arcB"), disc2(), disc2(), table, table)


def trivial_data(space: FiniteSpace | None = None, label: str = "1") -> GluingData:
    """A single patch and nothing else."""
    sp = space if space is not None else arc3()
    return derive_triple_maps(
        GluingData([label], patch={label: sp}, overlap={}, anchor={}, transition={})
    )


def cylinder_data(tag: str) -> GluingData:
    """Two square models glued along both vertical edges into a cylinder model."""
    e12 = _product(f"edges{tag}a", _ends(), arc3())
    e21 = _product(f"edges{tag}b", _ends(), arc3())
    incl = {p: p for p in e12.points}
    return _two_patches(sq9(f"sqA{tag}"), sq9(f"sqB{tag}"), e12, e21, incl, incl)


def boundary_data(tag: str) -> GluingData:
    """The two boundary circles of a cylinder model, as a gluing of row strips."""
    c12 = _product(f"corners{tag}a", _ends(), _ends())
    c21 = _product(f"corners{tag}b", _ends(), _ends())
    incl = {p: p for p in c12.points}
    rows_a = _product(f"rowsA{tag}", arc3(), _ends())
    rows_b = _product(f"rowsB{tag}", arc3(), _ends())
    return _two_patches(rows_a, rows_b, c12, c21, incl, incl)


def torus_meta():
    """The cylinder-of-cylinders meta gluing and its sequential counterpart.

    Returns (meta, seq_data) where ``meta`` is a GdfGluingData whose nodes glue
    square models into cylinder models, and ``seq_data`` is the hand-built
    cylinder-level gluing datum whose glued space is the torus model.
    """
    cyl1 = functor_of(cylinder_data("1"))
    cyl2 = functor_of(cylinder_data("2"))
    bnd1 = functor_of(boundary_data("1"))
    bnd2 = functor_of(boundary_data("2"))
    gamma = {"1": "1", "2": "2"}

    def inclusion_refinement(fine, coarse):
        singles = {
            single(i): _name_map(fine.space(single(i)), coarse.space(single(i)))
            for i in ("1", "2")
        }
        return Refinement(gamma, fine, coarse, singles)

    incl1 = inclusion_refinement(bnd1, cyl1)
    incl2 = inclusion_refinement(bnd2, cyl2)
    t12 = inclusion_refinement(bnd1, bnd2)
    t21 = inclusion_refinement(bnd2, bnd1)

    s1, s2 = single("1"), single("2")
    p12, p21 = pair("1", "2"), pair("2", "1")
    t112 = normalize(("1", "1", "2"))
    t221 = normalize(("2", "2", "1"))
    meta = GdfGluingData(
        index=("1", "2"),
        node={s1: cyl1, s2: cyl2, p12: bnd1, p21: bnd2, t112: bnd1, t221: bnd2},
        edge={
            (s1, p12): incl1,
            (s2, p21): incl2,
            (p21, p12): t12,
            (p12, p21): t21,
            (s1, t112): incl1,
            (p12, t112): identity_refinement(bnd1),
            (s2, t221): incl2,
            (p21, t221): identity_refinement(bnd2),
            (p21, t112): t12,
            (p12, t221): t21,
            (t112, p21): t21,
            (t221, p12): t12,
        },
    )
    seq = sequential_torus_data()
    return meta, seq


def _circle_to_cylinder(cyl: Cone) -> dict[str, str]:
    # circle coordinates: l and r are the shared edge columns, ma lives in
    # square A (patch 1), mb in square B (patch 2)
    rename = {"l": ("l", "1"), "r": ("r", "1"), "ma": ("m", "1"), "mb": ("m", "2")}
    return {
        f"{c}|{y}": cyl.leg(single(i))(f"{col}|{y}")
        for c, (col, i) in rename.items()
        for y in ("l", "r")
    }


def sequential_torus_data() -> GluingData:
    """Glued cylinders glued along explicit two-circle overlap spaces."""
    q1 = glue(cylinder_data("1"))
    q2 = glue(cylinder_data("2"))
    w12 = _product("circles12", circle4(), _ends())
    w21 = _product("circles21", circle4(), _ends())
    return _two_patches(
        q1.space, q2.space, w12, w21, _circle_to_cylinder(q1), _circle_to_cylinder(q2)
    )


def counter_meta():
    """The torus meta gluing with one triple node replaced by a point.

    The replacement node still refines its neighbours (all components are the
    constant maps onto a compatible family of points; ``Refinement`` lifts
    the triple ones into the triple pullbacks when built), but its glued space is
    a single point, so the pushout condition at that triple must fail.
    """
    meta, _ = torus_meta()
    p = pt("collapse", "p")
    point_fun = functor_of(trivial_data(p, "1"))
    gamma = {"1": "1", "2": "1"}

    def const_refinement(coarse: GluingFunctor):
        comps = {
            obj: SpaceMap(p, coarse.space(obj), {"p": "l|l"})
            for obj in coarse.data.nerve.objects
            if obj.arity < 3
        }
        return Refinement(gamma, point_fun, coarse, comps)

    t112 = normalize(("1", "1", "2"))
    edges = dict(meta.edge)
    edges[(single("1"), t112)] = const_refinement(meta.node[single("1")])
    edges[(pair("1", "2"), t112)] = const_refinement(meta.node[pair("1", "2")])
    edges.pop((pair("2", "1"), t112), None)
    edges.pop((t112, pair("2", "1")), None)
    nodes = dict(meta.node)
    nodes[t112] = point_fun
    return GdfGluingData(index=("1", "2"), node=nodes, edge=edges)
