import dataclasses
import itertools
import os
import random
import subprocess
import sys
from pathlib import Path
from types import MappingProxyType

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import quotient_reference
from conftest import digital_circle, digital_circle_data, small_spaces
from oracles import all_opens, closure_opens, first_difference, min_open_from_lattice
import topoglue
from topoglue import cover, fintop
from topoglue.errors import (
    CompositionMismatch,
    DuplicateName,
    InvalidTopology,
    SearchBudgetExceeded,
    TopoglueError,
    UnknownPoint,
)
from topoglue.fintop import (
    SpaceMap,
    analyze_map,
    collisions,
    compose,
    disagreement,
    discontinuities,
    disjoint_union,
    enumerate_continuous_maps,
    find_homeomorphism,
    from_opens,
    identity_map,
    is_homeomorphism,
    is_open,
    lift,
    make_space,
    non_embedding_points,
    non_open_points,
    pullback,
    quotient,
    subspace,
)
from topoglue.fixtures import (
    arc3,
    boundary_data,
    circle4,
    cylinder_data,
    disc2,
    gd_circ,
    pt,
    sequential_torus_data,
    sierp,
    sq9,
    torus_meta,
)
from topoglue.glue import build_relation, glue
from topoglue.refine import compose_gdf


class TestMakeSpace:
    def test_point(self):
        sp = make_space("PT", ["p"], {"p": ["p"]})
        assert sp.points == frozenset({"p"})
        assert sp.min_open["p"] == frozenset({"p"})

    def test_sierpinski(self):
        sp = make_space("S", ["t", "b"], {"t": ["t"], "b": ["t", "b"]})
        assert sp == sierp()

    def test_rejects_point_outside_own_minopen(self):
        with pytest.raises(InvalidTopology):
            make_space("bad", ["t", "b"], {"t": ["b"], "b": ["t", "b"]})

    def test_rejects_non_nested_minopens(self):
        # b's minimal open contains t, but t's is not inside b's
        with pytest.raises(InvalidTopology):
            make_space(
                "bad", ["t", "b", "c"], {"t": ["t", "c"], "b": ["t", "b"], "c": ["c"]}
            )

    def test_empty_space(self):
        sp = make_space("E", [], {})
        assert sp.points == frozenset()


class TestFromOpens:
    def test_sierpinski(self):
        assert from_opens("S", ["t", "b"], [["t"]]) == sierp()

    def test_discrete(self):
        assert from_opens("D", ["a", "b"], [["a"], ["b"]]) == disc2()

    def test_arc_against_closure_oracle(self):
        generated = from_opens("A", ["l", "m", "r"], [["l"], ["r"]])
        opens = closure_opens(["l", "m", "r"], [["l"], ["r"]])
        for x in generated.points:
            assert generated.min_open[x] == min_open_from_lattice(opens, x)
        assert generated == arc3()

    @settings(max_examples=60, deadline=None)
    @given(small_spaces())
    def test_axioms_always_hold(self, sp):
        for x in sp.points:
            assert x in sp.min_open[x]
            for y in sp.min_open[x]:
                assert sp.min_open[y] <= sp.min_open[x]

    @settings(max_examples=40, deadline=None)
    @given(small_spaces(max_points=4))
    def test_min_opens_match_lattice_oracle(self, sp):
        opens = all_opens(sp)
        for x in sp.points:
            assert sp.min_open[x] == min_open_from_lattice(opens, x)


class TestIsOpen:
    def test_sierpinski(self):
        assert is_open(sierp(), {"t"})
        assert not is_open(sierp(), {"b"})

    def test_arc_ends_open(self):
        # oracle: the arc has exactly these five opens
        assert all_opens(arc3()) == {
            frozenset(),
            frozenset({"l"}),
            frozenset({"r"}),
            frozenset({"l", "r"}),
            frozenset({"l", "m", "r"}),
        }
        assert is_open(arc3(), {"l", "r"})

    def test_unknown_point(self):
        with pytest.raises(UnknownPoint):
            is_open(sierp(), {"zzz"})

    @settings(max_examples=40, deadline=None)
    @given(small_spaces(max_points=4))
    def test_agrees_with_lattice_oracle(self, sp):
        opens = all_opens(sp)
        points = sorted(sp.points)
        for k in range(len(points) + 1):
            for sub in itertools.combinations(points, k):
                assert is_open(sp, sub) == (frozenset(sub) in opens)


def _failed(f):
    """The properties ``analyze_map`` finds f failing."""
    return {prop for prop, _ in analyze_map(f)}


def _is_embedding(f):
    return not _failed(f) & {"continuous", "injective", "embedding"}


_WITNESS_ORDER = ["continuous", "injective", "open", "embedding", "surjective"]


class TestAnalyzeMap:
    def test_identity_all_flags(self):
        assert analyze_map(identity_map(sierp())) == ()

    def test_constant_collapse(self):
        f = SpaceMap(arc3(), pt(), {x: "p" for x in arc3().points})
        assert analyze_map(f) == (("injective", "l,m"), ("injective", "l,r"))

    def test_discrete_into_sierpinski(self):
        f = SpaceMap(disc2(), sierp(), {"a": "t", "b": "b"})
        assert _failed(f) == {"open", "embedding"}
        # oracle: the image of the open {b} is {b}, which is not in the lattice
        assert frozenset({"b"}) not in all_opens(sierp())

    def test_non_continuous(self):
        f = SpaceMap(sierp(), sierp(), {"t": "b", "b": "t"})
        assert "continuous" in _failed(f)

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_witnesses_are_the_points_of_each_helper(self, data):
        b = data.draw(small_spaces(max_points=3))
        cod = sorted(b.points)
        if data.draw(st.booleans()):  # a bijection of b, so homeomorphisms occur
            f = SpaceMap(b, b, dict(zip(cod, data.draw(st.permutations(cod)))))
        else:
            a = data.draw(small_spaces(max_points=4))
            f = SpaceMap(a, b, {x: data.draw(st.sampled_from(cod)) for x in sorted(a.points)})
        witnesses = analyze_map(f)

        def points(prop):
            return [x for p, x in witnesses if p == prop]

        assert points("continuous") == discontinuities(f)
        assert points("injective") == collisions(f)
        assert points("open") == non_open_points(f)
        asked = not discontinuities(f) and not collisions(f)
        assert points("embedding") == (non_embedding_points(f) if asked else [])
        assert points("surjective") == sorted(b.points - f.image())[:1]
        kinds = [p for p, _ in witnesses]
        assert kinds == sorted(kinds, key=_WITNESS_ORDER.index)
        assert is_homeomorphism(f) == (witnesses == ())

    def test_space_map_validates(self):
        with pytest.raises(UnknownPoint, match="^'b' of 'SIERP' has no image$"):
            SpaceMap(sierp(), sierp(), {"t": "t"})
        with pytest.raises(UnknownPoint, match="^'zzz' is not a point of 'SIERP'$"):
            SpaceMap(sierp(), sierp(), {"t": "t", "b": "zzz"})
        with pytest.raises(UnknownPoint, match="^'x' is not a point of 'SIERP'$"):
            SpaceMap(sierp(), sierp(), {"t": "t", "b": "b", "x": "t"})


class TestCompose:
    def test_identity_laws(self):
        f = SpaceMap(disc2(), sierp(), {"a": "t", "b": "b"})
        assert compose(f, identity_map(disc2())) == f
        assert compose(identity_map(sierp()), f) == f

    def test_constant_through(self):
        f = SpaceMap(disc2(), sierp(), {"a": "t", "b": "b"})
        g = SpaceMap(sierp(), pt(), {"t": "p", "b": "p"})
        assert compose(g, f) == SpaceMap(disc2(), pt(), {"a": "p", "b": "p"})

    def test_mismatch(self):
        f = SpaceMap(disc2(), sierp(), {"a": "t", "b": "b"})
        with pytest.raises(CompositionMismatch):
            compose(f, f)

    def test_calling_a_map_off_its_domain_raises_unknown_point(self):
        f = SpaceMap(pt(), sierp(), {"p": "t"})
        with pytest.raises(UnknownPoint, match="^'zz' is not a point of 'PT'$"):
            f("zz")


class TestDisjointUnion:
    def test_single(self):
        total, (eps,) = disjoint_union([pt()])
        assert len(total.points) == 1
        assert _is_embedding(eps)

    def test_two_discrete(self):
        total, _ = disjoint_union([disc2(), disc2()])
        assert len(total.points) == 4
        assert all(len(total.min_open[x]) == 1 for x in total.points)

    def test_open_count_oracle(self):
        total, _ = disjoint_union([arc3(), sierp()])
        assert len(total.points) == 5
        # oracle: opens of a sum multiply pairwise
        assert len(all_opens(total)) == len(all_opens(arc3())) * len(all_opens(sierp()))

    def test_injections_are_open_embeddings(self):
        total, injections = disjoint_union([arc3(), sierp()])
        for eps in injections:
            assert _is_embedding(eps) and "open" not in _failed(eps)

    def test_name_collision_is_an_input_error(self):
        # x tagged "a@b" and "x@a" tagged "b" would both be named "x@a@b"
        x = make_space("X", ["x"], {"x": ["x"]})
        y = make_space("Y", ["x@a"], {"x@a": ["x@a"]})
        with pytest.raises(DuplicateName) as info:
            disjoint_union([x, y], ["a@b", "b"])
        assert info.value.exit_code == 2
        assert str(info.value) == (
            "disjoint union points ('x', 'a@b') and ('x@a', 'b') both get the name 'x@a@b'"
        )

    def test_points_named_through_their_tags(self):
        total, (eps_a, eps_b) = disjoint_union([sierp(), sierp()], ["a", "b"])
        assert total.points == {"t@a", "b@a", "t@b", "b@b"}
        assert eps_b.table == {"t": "t@b", "b": "b@b"}
        assert total.min_open["b@a"] == {"t@a", "b@a"}

    @pytest.mark.parametrize("tags", [["a"], ["a", "a"]])
    def test_tags_must_be_distinct_and_one_per_space(self, tags):
        with pytest.raises(ValueError, match="^tags must be distinct and match the space list$"):
            disjoint_union([pt(), sierp()], tags)


class TestSubspace:
    def test_sierpinski_top(self):
        sub, incl = subspace(sierp(), {"t"})
        assert len(sub.points) == 1
        assert _is_embedding(incl)

    def test_arc_endpoints(self):
        sub, _ = subspace(arc3(), {"l", "r"})
        assert find_homeomorphism(sub, disc2()) is not None

    def test_square_column_is_an_arc(self):
        sub, incl = subspace(sq9(), {"m|l", "m|m", "m|r"})
        assert find_homeomorphism(sub, arc3()) is not None
        assert _is_embedding(incl)


class TestPullback:
    def test_diagonal(self):
        sp, p1, p2 = pullback(identity_map(arc3()), identity_map(arc3()))
        assert find_homeomorphism(sp, arc3()) is not None
        assert p1.table == p2.table

    def test_equal_inclusions(self):
        f = SpaceMap(disc2(), arc3(), {"a": "l", "b": "r"})
        sp, _, _ = pullback(f, f)
        assert len(sp.points) == 2

    def test_product_over_point(self):
        to_pt = SpaceMap(arc3(), pt(), {x: "p" for x in arc3().points})
        sp, _, _ = pullback(to_pt, to_pt)
        assert len(sp.points) == 9

    def test_space_name(self):
        f = SpaceMap(disc2(), arc3(), {"a": "l", "b": "r"})
        assert pullback(f, f)[0].space_id == "DISC2*DISC2"
        sp, proj_f, proj_g = pullback(f, f, "T")
        assert sp.space_id == "T" and proj_f.dom is sp and proj_g.dom is sp

    def test_maps_into_different_codomains_are_rejected(self):
        f = SpaceMap(disc2(), arc3(), {"a": "l", "b": "r"})
        g = SpaceMap(disc2(), sierp(), {"a": "t", "b": "b"})
        with pytest.raises(CompositionMismatch, match="common codomain"):
            pullback(f, g)

    def test_pair_name_collision_is_an_input_error(self):
        # (a, "b,c") and ("a,b", c) would both be named "(a,b,c)"
        x = make_space("X", ["a", "a,b"], {"a": ["a"], "a,b": ["a,b"]})
        y = make_space("Y", ["b,c", "c"], {"b,c": ["b,c"], "c": ["c"]})
        fx = SpaceMap(x, pt(), {u: "p" for u in x.points})
        fy = SpaceMap(y, pt(), {v: "p" for v in y.points})
        with pytest.raises(DuplicateName) as info:
            pullback(fx, fy)
        assert info.value.exit_code == 2
        assert str(info.value) == (
            "pullback pairs ('a', 'b,c') and ('a,b', 'c') both get the name '(a,b,c)'"
        )

    @settings(max_examples=20, deadline=None)
    @given(small_spaces(max_points=3), small_spaces(max_points=3))
    def test_product_size(self, a, b):
        target = pt()
        fa = SpaceMap(a, target, {x: "p" for x in a.points})
        fb = SpaceMap(b, target, {x: "p" for x in b.points})
        sp, _, _ = pullback(fa, fb)
        assert len(sp.points) == len(a.points) * len(b.points)

    @settings(max_examples=12, deadline=None)
    @given(st.data())
    def test_universal_property(self, data):
        a = data.draw(small_spaces(max_points=5))
        b = data.draw(small_spaces(max_points=5))
        w = data.draw(small_spaces(max_points=3))
        apex = data.draw(small_spaces(max_points=2))
        maps_a = enumerate_continuous_maps(a, apex)
        maps_b = enumerate_continuous_maps(b, apex)
        f = data.draw(st.sampled_from(maps_a))
        g = data.draw(st.sampled_from(maps_b))
        sp, proj_f, proj_g = pullback(f, g)
        into_a = enumerate_continuous_maps(w, a)
        into_b = enumerate_continuous_maps(w, b)

        def key(m):
            return tuple(sorted(m.table.items()))

        mediators = {}
        for h in enumerate_continuous_maps(w, sp):
            k = (key(compose(proj_f, h)), key(compose(proj_g, h)))
            mediators[k] = mediators.get(k, 0) + 1
        for p in into_a:
            for q in into_b:
                if compose(f, p) != compose(g, q):
                    continue
                assert mediators.get((key(p), key(q)), 0) == 1


class TestQuotient:
    def test_no_pairs(self):
        q, proj = quotient(arc3(), [])
        assert find_homeomorphism(q, arc3()) is not None
        assert "continuous" not in _failed(proj)

    def test_collapse_discrete(self):
        q, _ = quotient(disc2(), [("a", "b")])
        assert len(q.points) == 1

    def test_two_arcs_to_pseudocircle(self):
        total, _ = disjoint_union([arc3(), arc3()], ["1", "2"])
        q, proj = quotient(total, [("l@1", "l@2"), ("r@1", "r@2")])
        assert sorted(q.points) == ["l@1", "m@1", "m@2", "r@1"]
        assert q.min_open["l@1"] == frozenset({"l@1"})
        assert q.min_open["m@1"] == frozenset({"l@1", "m@1", "r@1"})
        assert find_homeomorphism(q, circle4()) is not None
        # final topology, exhaustively over all class subsets
        for k in range(len(q.points) + 1):
            for sub in itertools.combinations(sorted(q.points), k):
                pre = {x for x in total.points if proj(x) in sub}
                assert is_open(q, sub) == is_open(total, pre)

    @staticmethod
    def _same_as_reference(space, pairs):
        q, proj = quotient(space, pairs)
        ref_q, ref_proj = quotient_reference.quotient(space, pairs)
        assert q.space_id == ref_q.space_id
        assert q.points == ref_q.points
        assert dict(q.min_open) == dict(ref_q.min_open)
        assert proj.dom is space and proj.cod is q
        assert dict(proj.table) == dict(ref_proj.table)

    def test_same_as_the_hull_reference_on_random_spaces(self):
        rng = random.Random(34)
        for n in range(300):
            sp = cover.random_space(rng, 9, space_id=f"R{n}")
            points = sorted(sp.points)
            pairs = [(rng.choice(points), rng.choice(points)) for _ in range(rng.randint(0, 6))]
            self._same_as_reference(sp, pairs)

    @pytest.mark.parametrize(
        "make",
        [
            gd_circ,
            lambda: cylinder_data("1"),
            lambda: boundary_data("1"),
            sequential_torus_data,
            lambda: digital_circle_data(12, 3),
            lambda: digital_circle_data(48, 6),
            lambda: digital_circle_data(96, 24),
        ],
        ids=["circ", "cylinder", "boundary", "torus", "m12k3", "m48k6", "m96k24"],
    )
    def test_same_as_the_hull_reference_on_glued_unions(self, make):
        gd = make()
        self._same_as_reference(gd._union[0], build_relation(gd))

    @pytest.mark.parametrize(
        "pairs, bad",
        [
            ([("a", "zzz")], "zzz"),
            ([("zzz", "a")], "zzz"),
            ([("zzz", "yyy")], "zzz"),
            ([("a", "b"), ("b", "yyy"), ("zzz", "a")], "yyy"),
        ],
    )
    def test_unknown_point_in_pairs(self, pairs, bad):
        with pytest.raises(UnknownPoint) as got:
            quotient(disc2(), pairs)
        with pytest.raises(UnknownPoint) as ref:
            quotient_reference.quotient(disc2(), pairs)
        assert str(got.value) == str(ref.value) == f"{bad!r} is not a point of 'DISC2'"

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_final_topology_law(self, data):
        sp = data.draw(small_spaces(max_points=5))
        points = sorted(sp.points)
        pairs = data.draw(
            st.lists(
                st.tuples(st.sampled_from(points), st.sampled_from(points)),
                max_size=4,
            )
        )
        q, proj = quotient(sp, pairs)
        for k in range(len(q.points) + 1):
            for sub in itertools.combinations(sorted(q.points), k):
                pre = {x for x in sp.points if proj(x) in sub}
                assert is_open(q, sub) == is_open(sp, pre)


class TestEnumerateContinuousMaps:
    def test_point_into_sierpinski(self):
        assert len(enumerate_continuous_maps(pt(), sierp())) == 2

    def test_sierpinski_endomaps(self):
        maps = enumerate_continuous_maps(sierp(), sierp())
        tables = sorted(tuple(sorted(m.table.items())) for m in maps)
        assert len(maps) == 3
        assert (("b", "t"), ("t", "t")) in tables  # constant t
        assert (("b", "b"), ("t", "b")) in tables  # constant b
        assert (("b", "b"), ("t", "t")) in tables  # identity

    def test_discrete_domain(self):
        assert len(enumerate_continuous_maps(disc2(), arc3())) == 9

    def test_budget(self):
        with pytest.raises(SearchBudgetExceeded):
            enumerate_continuous_maps(sq9(), sq9(), budget=100)

    def test_deterministic_order(self):
        a = enumerate_continuous_maps(sierp(), arc3())
        b = enumerate_continuous_maps(sierp(), arc3())
        assert [m.table for m in a] == [m.table for m in b]


def _filtered_maps(a, b):
    """Every table in |b| ** |a|, kept when continuous: the reference for the search."""
    dom, cod = sorted(a.points), sorted(b.points)
    out = []
    for images in itertools.product(cod, repeat=len(dom)):
        table = dict(zip(dom, images))
        if all(table[z] in b.min_open[table[x]] for x in dom for z in a.min_open[x]):
            out.append(table)
    return out


def _torus():
    meta, _ = torus_meta()
    return glue(compose_gdf(meta)[0].data).space


class TestMapSearch:
    """The backtracking search against the |b| ** |a| filter it replaced."""

    def test_same_maps_in_same_order_as_filter(self):
        rng = random.Random(29)
        empty = make_space("E", [], {})
        pairs = [(empty, pt()), (empty, empty), (pt(), empty)]
        for _ in range(300):
            a = cover.random_space(rng, max_points=5, space_id="A")
            pairs.append((a, cover.random_space(rng, max_points=4, space_id="B")))
        counts = []
        for a, b in pairs:
            maps = enumerate_continuous_maps(a, b)
            assert all(m.dom is a and m.cod is b for m in maps)
            assert [m.table for m in maps] == _filtered_maps(a, b)
            counts.append(len(maps))
        assert counts[:3] == [1, 1, 0]
        assert max(counts) > 100

    def test_torus_counts_match_its_open_sets(self):
        torus = _torus()
        points = sorted(torus.points)
        opens = [
            frozenset(sub)
            for k in range(len(points) + 1)
            for sub in itertools.combinations(points, k)
            if is_open(torus, sub)
        ]
        # maps into SIERP are the preimages of its open point t; maps into
        # ARC3 are the ordered pairs of disjoint preimages of l and r
        assert len(enumerate_continuous_maps(torus, sierp())) == len(opens) == 430
        disjoint = sum(1 for u in opens for v in opens if not u & v)
        assert len(enumerate_continuous_maps(torus, arc3())) == disjoint == 1137

    def test_budget_counts_search_nodes(self):
        assert len(enumerate_continuous_maps(pt(), sierp(), budget=2)) == 2
        with pytest.raises(SearchBudgetExceeded) as info:
            enumerate_continuous_maps(pt(), sierp(), budget=1)
        assert (info.value.used, info.value.limit) == (2, 1)
        assert info.value.search == "map search 'PT' -> 'SIERP'"
        assert str(info.value) == "map search 'PT' -> 'SIERP' tried 2 nodes, over its budget of 1"

    def test_deep_domain_needs_no_recursion(self):
        n = sys.getrecursionlimit() + 10
        points = [f"x{k}" for k in range(n)]
        discrete = make_space("D", points, {x: [x] for x in points})
        (only,) = enumerate_continuous_maps(discrete, pt(), budget=n)
        assert set(only.table.values()) == {"p"}


class TestFindHomeomorphism:
    def test_identity_exists(self):
        w = find_homeomorphism(sierp(), sierp())
        assert w is not None
        assert fintop.is_homeomorphism(w)

    def test_distinguishes_sierpinski_from_discrete(self):
        assert find_homeomorphism(sierp(), disc2()) is None

    def test_same_signatures_without_a_homeomorphism(self):
        # DC_8 and DC_4 + DC_4 share size and signature multiset, so only a full search says no
        dc8, two_dc4 = digital_circle(8), disjoint_union([digital_circle(4), digital_circle(4)])[0]
        assert find_homeomorphism(dc8, two_dc4) is None
        assert find_homeomorphism(two_dc4, dc8) is None

    def test_budget(self):
        with pytest.raises(SearchBudgetExceeded):
            find_homeomorphism(sq9(), sq9(), node_budget=3)

    def test_budget_error_names_search_use_and_limit(self):
        with pytest.raises(SearchBudgetExceeded) as info:
            find_homeomorphism(sq9(), sq9(), node_budget=3)
        assert (info.value.used, info.value.limit) == (4, 3)
        assert info.value.search == "homeomorphism search 'SQ9' -> 'SQ9'"

    @settings(max_examples=25, deadline=None)
    @given(st.data())
    def test_witness_is_a_homeomorphism(self, data):
        a = data.draw(small_spaces(max_points=4))
        b = data.draw(small_spaces(max_points=4))
        w = find_homeomorphism(a, b)
        if w is not None:
            assert fintop.is_homeomorphism(w)


def _recursive_homeomorphism(a, b):
    """The recursive search ``find_homeomorphism`` ran before: the reference.

    Points in signature-rarity order; a candidate must keep both directions
    of the specialization relation with every point already assigned.
    """
    if len(a.points) != len(b.points):
        return None
    sig_a, sig_b = fintop._signature(a), fintop._signature(b)
    by_sig = {}
    for y in sorted(b.points):
        by_sig.setdefault(sig_b[y], []).append(y)
    counts_a = {}
    for x in a.points:
        counts_a[sig_a[x]] = counts_a.get(sig_a[x], 0) + 1
    if {k: len(v) for k, v in by_sig.items()} != counts_a:
        return None
    order = sorted(a.points, key=lambda x: (len(by_sig[sig_a[x]]), x))
    assignment = {}

    def consistent(x, y):
        return all(
            (x2 in a.min_open[x]) == (y2 in b.min_open[y])
            and (x in a.min_open[x2]) == (y in b.min_open[y2])
            for x2, y2 in assignment.items()
        )

    def search(pos):
        if pos == len(order):
            return True
        x = order[pos]
        for y in by_sig[sig_a[x]]:
            if y not in assignment.values() and consistent(x, y):
                assignment[x] = y
                if search(pos + 1):
                    return True
                del assignment[x]
        return False

    return SpaceMap(a, b, dict(assignment)) if search(0) else None


def _relabelled(rng, space):
    """A copy of ``space`` with its points renamed by a random bijection."""
    points = sorted(space.points)
    names = dict(zip(points, rng.sample([f"q{k}" for k in range(len(points))], len(points))))
    table = {names[x]: [names[z] for z in space.min_open[x]] for x in points}
    return make_space("R", table, table)


class TestHomeomorphismSearch:
    """The search on ``backtrack`` against the recursive search it replaced."""

    def test_agrees_with_recursive_search(self):
        rng = random.Random(37)
        found = []
        for n in range(320):
            a = cover.random_space(rng, max_points=6, space_id="A")
            if n % 2:
                b = _relabelled(rng, a)
            else:
                b = cover.random_space(rng, max_points=6, space_id="B")
            w = find_homeomorphism(a, b)
            assert (w is None) == (_recursive_homeomorphism(a, b) is None)
            if w is not None:
                assert w.dom is a and w.cod is b and fintop.is_homeomorphism(w)
            found.append(w is not None)
        # every relabelled copy is found, and some unrelated pairs are too
        assert all(found[1::2]) and 0 < sum(found[::2]) < 160

    def test_large_discrete_space_needs_no_recursion(self):
        points = [f"x{k}" for k in range(1100)]
        discrete = make_space("D", points, {x: [x] for x in points})
        w = find_homeomorphism(discrete, discrete)
        assert w is not None and fintop.is_homeomorphism(w)

    def test_points_are_visited_next_to_an_assigned_one(self):
        order = fintop._connected_order(sq9(), lambda x: x)
        assert sorted(order) == sorted(sq9().points)
        for p, x in enumerate(order[1:], start=1):
            earlier = set(order[:p])
            assert any(z in earlier for z in sq9().min_open[x]) or any(
                x in sq9().min_open[z] for z in earlier
            )


class TestRepr:
    def test_a_space_shows_its_name_and_size(self):
        assert repr(arc3()) == "FiniteSpace('ARC3', 3 points)"


class TestHashable:
    def test_equal_spaces_hash_equal(self):
        assert len({sierp(), sierp()}) == 1
        assert hash(sierp()) == hash(sierp())

    def test_maps_hash(self):
        assert hash(identity_map(sierp())) == hash(identity_map(sierp()))
        assert len({identity_map(sierp()), identity_map(sierp()), identity_map(pt())}) == 2


class TestDiscontinuities:
    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_same_points_as_analyze_map(self, data):
        a = data.draw(small_spaces(max_points=4))
        b = data.draw(small_spaces(max_points=3))
        cod = sorted(b.points)
        table = {x: data.draw(st.sampled_from(cod)) for x in sorted(a.points)}
        f = SpaceMap(a, b, table)
        witnesses = [x for prop, x in analyze_map(f) if prop == "continuous"]
        assert discontinuities(f) == witnesses
        # the open-set definition: the preimage of every open set is open
        continuous = all(
            is_open(a, [x for x in a.points if f(x) in u]) for u in all_opens(b)
        )
        assert continuous == (not witnesses)

    def test_table_gap_raises_unknown_point(self):
        # discontinuities reads the table unchecked, so a gap is refused where the map is built
        with pytest.raises(UnknownPoint, match="^'b' of 'SIERP' has no image$"):
            SpaceMap(sierp(), sierp(), {"t": "t"})


def _random_map(data, dom, cod):
    return SpaceMap(dom, cod, {x: data.draw(st.sampled_from(sorted(cod.points))) for x in dom.points})


class TestDisagreement:
    """The table-level path comparison against composing the paths and scanning."""

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_same_answer_as_composing_and_scanning(self, data):
        a = data.draw(small_spaces(max_points=4))
        b = data.draw(small_spaces(max_points=3))
        c = data.draw(small_spaces(max_points=3))
        f, g, h = _random_map(data, a, b), _random_map(data, b, c), _random_map(data, a, c)
        assert disagreement([g, f], [h]) == first_difference(compose(g, f), h)
        assert disagreement([h], [g, f]) == first_difference(h, compose(g, f))
        assert disagreement([g, f], [g, f]) is None
        k = _random_map(data, c, c)
        assert disagreement([k, g, f], [k, h]) == first_difference(
            compose(k, compose(g, f)), compose(k, h)
        )

    def test_first_sorted_witness(self):
        a = make_space("A", "pqrs", {x: [x] for x in "pqrs"})
        f = SpaceMap(a, disc2(), {"p": "a", "q": "a", "r": "a", "s": "a"})
        g = SpaceMap(a, disc2(), {"p": "a", "q": "b", "r": "a", "s": "b"})
        assert disagreement([f], [g]) == "q"
        assert disagreement([identity_map(disc2()), f], [g]) == "q"

    def test_endpoint_mismatch(self):
        f = SpaceMap(disc2(), sierp(), {"a": "t", "b": "b"})
        assert disagreement([f], [identity_map(disc2())]) == "<endpoint mismatch>"
        assert disagreement([identity_map(sierp()), f], [f]) is None

    def test_mistyped_path_raises_composition_mismatch(self):
        f = SpaceMap(disc2(), sierp(), {"a": "t", "b": "b"})
        with pytest.raises(CompositionMismatch, match="middle spaces differ"):
            disagreement([f, f], [f])
        with pytest.raises(CompositionMismatch):
            disagreement([f], [f, f])

    def test_table_gap_raises_unknown_point(self):
        # disagreement reads the tables unchecked, so a gap is refused where the map is built
        with pytest.raises(UnknownPoint, match="^'b' of 'DISC2' has no image$"):
            SpaceMap(disc2(), sierp(), {"a": "t"})


_LEAST_GAP = """
from topoglue.errors import UnknownPoint
from topoglue.fintop import SpaceMap, make_space

a = make_space("A", "pqrs", {x: [x] for x in "pqrs"})
for table in (
    {"p": "p", "q": "q"},
    {"q": "q", "p": "p", "y": "p", "z": "zz"},
    {"p": "p", "q": "q", "r": "r", "s": "s", "z": "p", "y": "q"},
    {"p": "w", "q": "v", "r": "r", "s": "s"},
):
    try:
        SpaceMap(a, a, table)
    except UnknownPoint as exc:
        print(exc)
"""


class TestTableGaps:
    """A table with a gap, a key outside the domain or a value outside the codomain is refused where the map is built.

    The UnknownPoint names the least missing domain point, else the least
    key outside the domain, else the least stray value.
    """

    def test_value_outside_the_codomain(self):
        # compose, disagreement and collisions read the tables unchecked, so a stray value stops here
        with pytest.raises(UnknownPoint, match="^'zzz' is not a point of 'SIERP'$"):
            SpaceMap(sierp(), sierp(), {"t": "zzz", "b": "b"})

    def test_value_outside_the_codomain_in_pullback_and_lift(self):
        # a stray value in the first map of a pullback or lift, or in the second, stops where it is built
        for dom, table in ((disc2(), {"a": "zzz", "b": "t"}), (sierp(), {"t": "zzz", "b": "b"})):
            with pytest.raises(UnknownPoint, match="^'zzz' is not a point of 'SIERP'$"):
                SpaceMap(dom, sierp(), table)

    @pytest.mark.parametrize("seed", range(1, 7))
    def test_least_missing_point_under_every_hash_seed(self, seed):
        """Set order follows the string hash seed; the named point must not."""
        env = {
            **os.environ,
            "PYTHONHASHSEED": str(seed),
            "PYTHONPATH": str(Path(topoglue.__file__).parents[1]),
        }
        out = subprocess.run(
            [sys.executable, "-c", _LEAST_GAP], env=env, capture_output=True, text=True, check=True
        ).stdout
        assert out.splitlines() == [
            "'r' of 'A' has no image",
            "'r' of 'A' has no image",
            "'y' is not a point of 'A'",
            "'v' is not a point of 'A'",
        ]


def _hand_map(data, dom, cod):
    """A hand-built map between two spaces.

    The table is drawn point by point with random gaps, keys outside ``dom``
    and values outside ``cod``.  Such a table must raise UnknownPoint where
    the map is built, naming the least missing point, else the least stray
    key, else the least stray value; its faults are then redrawn inside
    ``cod`` and the well-typed map is returned.
    """
    table = {}
    for x in sorted(dom.points):
        kind = data.draw(st.sampled_from(["point", "point", "point", "gap", "stray", "key"]))
        if kind == "gap":
            continue
        if kind == "key":
            table[data.draw(st.sampled_from(["zzz", "p9"]))] = x
        table[x] = data.draw(st.sampled_from(["zzz", "p9"] if kind == "stray" else sorted(cod.points)))
    missing, keys = dom.points - table.keys(), table.keys() - dom.points
    values = set(table.values()) - cod.points
    if missing or keys or values:
        expected = (
            f"{min(missing)!r} of {dom.space_id!r} has no image" if missing
            else f"{min(keys)!r} is not a point of {dom.space_id!r}" if keys
            else f"{min(values)!r} is not a point of {cod.space_id!r}"
        )
        with pytest.raises(UnknownPoint) as info:
            SpaceMap(dom, cod, table)
        assert str(info.value) == expected
        table = {
            x: table[x] if table.get(x) in cod.points else data.draw(st.sampled_from(sorted(cod.points)))
            for x in sorted(dom.points)
        }
    return SpaceMap(dom, cod, table)


class TestHandBuiltMapsFuzz:
    """A hand-built table is refused at construction, or every reading function returns or raises a TopoglueError."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.data())
    def test_no_raw_lookup_error(self, data):
        a = data.draw(small_spaces(max_points=3))
        b = data.draw(small_spaces(max_points=3))
        f, h, k = _hand_map(data, a, b), _hand_map(data, a, b), _hand_map(data, b, a)
        g = _hand_map(data, b, b)
        calls = [
            (compose, g, f),
            (compose, k, f),
            (disagreement, [g, f], [h]),
            (disagreement, [k, f], [identity_map(a)]),
            (disagreement, [f], [k]),
            (pullback, f, h),
            (pullback, f, g),
            (lift, [f], [h]),
            (lift, [f, h], [g, g]),
        ]
        checks = (
            discontinuities, collisions, non_open_points, non_embedding_points,
            analyze_map, is_homeomorphism,
        )
        calls += [(check, m) for m in (f, g, k) for check in checks]
        for fn, *args in calls:
            try:
                fn(*args)
            except TopoglueError:
                pass


class TestFrozen:
    def test_tables_are_read_only(self):
        sp = sierp()
        with pytest.raises(TypeError):
            sp.min_open["b"] = frozenset({"b"})
        f = identity_map(sp)
        with pytest.raises(TypeError):
            f.table["t"] = "b"
        assert sp.min_open["b"] == {"t", "b"} and f("t") == "t"

    def test_attributes_are_frozen(self):
        f = SpaceMap(disc2(), sierp(), {"a": "t", "b": "b"})
        with pytest.raises(dataclasses.FrozenInstanceError):
            f.table = {"a": "b", "b": "b"}
        with pytest.raises(dataclasses.FrozenInstanceError):
            f.dom.min_open = {}

    def test_constructor_tables_are_copied(self):
        points, min_open = {"t", "b"}, {"t": frozenset("t"), "b": frozenset("tb")}
        sp = fintop.FiniteSpace("S", points, min_open)
        table = {"t": "t", "b": "b"}
        f = SpaceMap(sp, sp, table)
        points.add("x")
        min_open["t"] = frozenset("tb")
        table["t"] = "b"
        assert sp == sierp() and isinstance(sp.points, frozenset)
        assert f == identity_map(sierp())
        # a read-only view of a caller's table is copied too
        view = {"t": "t", "b": "b"}
        g = SpaceMap(sp, sp, MappingProxyType(view))
        view["t"] = "b"
        assert g == f


def _all_topologies(points):
    """Every valid minimal-open table on the given labeled points."""
    points = list(points)
    subsets = [
        frozenset(c)
        for k in range(1, len(points) + 1)
        for c in itertools.combinations(points, k)
    ]
    out = []
    for choice in itertools.product(subsets, repeat=len(points)):
        table = dict(zip(points, choice))
        try:
            out.append(make_space("enum", points, table))
        except InvalidTopology:
            continue
    return out


class TestTopologyCensus:
    def test_counts_of_labeled_topologies(self):
        # 1, 4 and 29 topologies on 1, 2 and 3 labeled points
        assert len(_all_topologies(["a"])) == 1
        assert len(_all_topologies(["a", "b"])) == 4
        assert len(_all_topologies(["a", "b", "c"])) == 29

    def test_find_homeomorphism_complete_on_three_points(self):
        # exhaustive: the search agrees with brute-force bijection checking
        spaces = _all_topologies(["a", "b", "c"])
        perms = list(itertools.permutations(["a", "b", "c"]))
        for x in spaces:
            for y in spaces:
                brute = any(
                    all(
                        frozenset(dict(zip(["a", "b", "c"], p))[q] for q in x.min_open[z])
                        == y.min_open[dict(zip(["a", "b", "c"], p))[z]]
                        for z in x.points
                    )
                    for p in perms
                )
                found = find_homeomorphism(x, y) is not None
                assert brute == found


class TestEmbeddingConsistency:
    @settings(max_examples=25, deadline=None)
    @given(st.data())
    def test_embedding_iff_corestriction_homeo(self, data):
        a = data.draw(small_spaces(max_points=3))
        b = data.draw(small_spaces(max_points=4))
        maps = enumerate_continuous_maps(a, b)
        f = data.draw(st.sampled_from(maps))
        img, _ = subspace(b, f.image())
        core = SpaceMap(a, img, dict(f.table))
        assert _is_embedding(f) == fintop.is_homeomorphism(core)
