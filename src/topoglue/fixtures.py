"""Standard spaces and gluing fixtures used by the tests and the docs.

The circle fixture glues two 3-point arcs along their endpoint pairs and
yields the 4-point pseudocircle.  The torus pipeline does the analogous thing
one dimension up: two square models glue into a cylinder model along their
vertical edges, and two cylinder models glue into a torus model along their
boundary circles.
"""

from __future__ import annotations

from . import glidx
from .fintop import FiniteSpace, SpaceMap, make_space
from .gdata import GluingData, GluingFunctor, derive_triple_maps, functor_of, make_gluing_data
from .glidx import normalize, pair, single
from .glue import Cone, glue

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


def gd_circ() -> GluingData:
    """Two arcs glued along their endpoints: the glued space is the pseudocircle."""
    a1 = arc3("arcA")
    a2 = arc3("arcB")
    d12 = disc2()
    d21 = disc2()
    table = {"a": "l", "b": "r"}
    data = make_gluing_data(
        ["1", "2"],
        patch={"1": a1, "2": a2},
        overlap={("1", "2"): d12, ("2", "1"): d21},
        anchor={
            ("1", "2"): SpaceMap(d12, a1, table),
            ("2", "1"): SpaceMap(d21, a2, table),
        },
        transition={
            ("1", "2"): SpaceMap(d12, d21, {"a": "a", "b": "b"}),
            ("2", "1"): SpaceMap(d21, d12, {"a": "a", "b": "b"}),
        },
    )
    return derive_triple_maps(data)


def trivial_data(space: FiniteSpace | None = None, label: str = "1") -> GluingData:
    """A single patch and nothing else."""
    sp = space if space is not None else arc3()
    return derive_triple_maps(
        make_gluing_data([label], patch={label: sp}, overlap={}, anchor={}, transition={})
    )


def _edge_columns(space_id: str) -> FiniteSpace:
    points = [f"{c}|{y}" for c in ("l", "r") for y in ARC]
    table = {
        f"{c}|{y}": [f"{c}|{v}" for v in arc3().min_open[y]]
        for c in ("l", "r")
        for y in ARC
    }
    return make_space(space_id, points, table)


def cylinder_data(tag: str) -> GluingData:
    """Two square models glued along both vertical edges into a cylinder model."""
    sq_a = sq9(f"sqA{tag}")
    sq_b = sq9(f"sqB{tag}")
    e12 = _edge_columns(f"edges{tag}a")
    e21 = _edge_columns(f"edges{tag}b")
    incl = {p: p for p in e12.points}
    data = make_gluing_data(
        ["1", "2"],
        patch={"1": sq_a, "2": sq_b},
        overlap={("1", "2"): e12, ("2", "1"): e21},
        anchor={
            ("1", "2"): SpaceMap(e12, sq_a, dict(incl)),
            ("2", "1"): SpaceMap(e21, sq_b, dict(incl)),
        },
        transition={
            ("1", "2"): SpaceMap(e12, e21, dict(incl)),
            ("2", "1"): SpaceMap(e21, e12, dict(incl)),
        },
    )
    return derive_triple_maps(data)


def _boundary_rows(space_id: str) -> FiniteSpace:
    points = [f"{c}|{y}" for c in ARC for y in ("l", "r")]
    table = {
        f"{c}|{y}": [f"{u}|{y}" for u in arc3().min_open[c]]
        for c in ARC
        for y in ("l", "r")
    }
    return make_space(space_id, points, table)


def _corners(space_id: str) -> FiniteSpace:
    points = [f"{c}|{y}" for c in ("l", "r") for y in ("l", "r")]
    return make_space(space_id, points, {p: [p] for p in points})


def boundary_data(tag: str) -> GluingData:
    """The two boundary circles of a cylinder model, as a gluing of row strips."""
    rows_a = _boundary_rows(f"rowsA{tag}")
    rows_b = _boundary_rows(f"rowsB{tag}")
    c12 = _corners(f"corners{tag}a")
    c21 = _corners(f"corners{tag}b")
    incl = {p: p for p in c12.points}
    data = make_gluing_data(
        ["1", "2"],
        patch={"1": rows_a, "2": rows_b},
        overlap={("1", "2"): c12, ("2", "1"): c21},
        anchor={
            ("1", "2"): SpaceMap(c12, rows_a, dict(incl)),
            ("2", "1"): SpaceMap(c21, rows_b, dict(incl)),
        },
        transition={
            ("1", "2"): SpaceMap(c12, c21, dict(incl)),
            ("2", "1"): SpaceMap(c21, c12, dict(incl)),
        },
    )
    return derive_triple_maps(data)


def _name_map(dom: FiniteSpace, cod: FiniteSpace) -> SpaceMap:
    return SpaceMap(dom, cod, {p: p for p in dom.points})


def torus_meta():
    """The cylinder-of-cylinders meta gluing and its sequential counterpart.

    Returns (meta, seq_data) where ``meta`` is a GdfGluingData whose nodes glue
    square models into cylinder models, and ``seq_data`` is the hand-built
    cylinder-level gluing datum whose glued space is the torus model.
    """
    from .refine import (
        GdfGluingData,
        IndexMap,
        complete_refinement,
        identity_refinement,
    )

    cyl1 = functor_of(cylinder_data("1"))
    cyl2 = functor_of(cylinder_data("2"))
    bnd1 = functor_of(boundary_data("1"))
    bnd2 = functor_of(boundary_data("2"))
    gamma = IndexMap(("1", "2"), ("1", "2"), {"1": "1", "2": "2"})

    def inclusion_refinement(fine, coarse):
        singles = {
            single(i): _name_map(fine.space(single(i)), coarse.space(single(i)))
            for i in ("1", "2")
        }
        return complete_refinement(gamma, fine, coarse, singles)

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


def _two_circles(space_id: str) -> FiniteSpace:
    circ = circle4()
    points = [f"{c}|{y}" for c in CIRCLE4 for y in ("l", "r")]
    table = {
        f"{c}|{y}": [f"{u}|{y}" for u in circ.min_open[c]]
        for c in CIRCLE4
        for y in ("l", "r")
    }
    return make_space(space_id, points, table)


def _circle_to_cylinder(dom: FiniteSpace, cyl: Cone) -> SpaceMap:
    # circle coordinates: l and r are the shared edge columns, ma lives in
    # square A (patch 1), mb in square B (patch 2)
    rename = {"l": ("l", "1"), "r": ("r", "1"), "ma": ("m", "1"), "mb": ("m", "2")}
    table = {}
    for c in CIRCLE4:
        col, i = rename[c]
        for y in ("l", "r"):
            table[f"{c}|{y}"] = cyl.leg(single(i))(f"{col}|{y}")
    return SpaceMap(dom, cyl.apex, table)


def sequential_torus_data() -> GluingData:
    """Glued cylinders glued along explicit two-circle overlap spaces."""
    q1 = glue(cylinder_data("1"))
    q2 = glue(cylinder_data("2"))
    w12 = _two_circles("circles12")
    w21 = _two_circles("circles21")
    data = make_gluing_data(
        ["1", "2"],
        patch={"1": q1.space, "2": q2.space},
        overlap={("1", "2"): w12, ("2", "1"): w21},
        anchor={
            ("1", "2"): _circle_to_cylinder(w12, q1),
            ("2", "1"): _circle_to_cylinder(w21, q2),
        },
        transition={
            ("1", "2"): _name_map(w12, w21),
            ("2", "1"): _name_map(w21, w12),
        },
    )
    return derive_triple_maps(data)


def counter_meta():
    """The torus meta gluing with one triple node replaced by a point.

    The replacement node still refines its neighbours (all components are the
    constant maps onto a compatible family of points; ``complete_refinement``
    reads the triple ones off the triple projections), but its glued space is
    a single point, so the pushout condition at that triple must fail.
    """
    from .refine import GdfGluingData, IndexMap, complete_refinement

    meta, _ = torus_meta()
    point_fun = functor_of(trivial_data(pt("collapse", "p"), "1"))
    gamma = IndexMap(("1", "2"), ("1",), {"1": "1", "2": "1"})
    p = pt("collapse", "p")

    def const_refinement(coarse: GluingFunctor):
        comps = {
            obj: SpaceMap(p, coarse.space(obj), {"p": "l|l"})
            for obj in glidx.objects(("1", "2"))
            if obj.arity < 3
        }
        return complete_refinement(gamma, point_fun, coarse, comps)

    t112 = normalize(("1", "1", "2"))
    edges = dict(meta.edge)
    edges[(single("1"), t112)] = const_refinement(meta.node[single("1")])
    edges[(pair("1", "2"), t112)] = const_refinement(meta.node[pair("1", "2")])
    edges.pop((pair("2", "1"), t112), None)
    edges.pop((t112, pair("2", "1")), None)
    nodes = dict(meta.node)
    nodes[t112] = point_fun
    return GdfGluingData(index=("1", "2"), node=nodes, edge=edges)
