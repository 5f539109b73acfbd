import dataclasses
import random

import pytest

from topoglue.errors import CompositionMismatch, HypothesisBFailed, MissingComponent
from topoglue.fintop import (
    FiniteSpace,
    SpaceMap,
    compose,
    disjoint_union,
    enumerate_continuous_maps,
    find_homeomorphism,
    identity_map,
)
from topoglue.fixtures import (
    arc3,
    circle4,
    counter_meta,
    gd_circ,
    product_c4_c4,
    pt,
    torus_meta,
    trivial_data,
)
from topoglue import refine as refine_mod
from topoglue.gdata import EMPTY, Report, _add_continuity, derive_triple_maps, functor_of, make_gluing_data
from topoglue.glidx import (
    GlGen,
    compose_path,
    edges,
    normalize,
    objects,
    pair,
    raw_generators,
    relation_instances,
    single,
)
from topoglue.glue import GluedSpace, complete_cone, glue, mediate
from topoglue.refine import (
    GdfGluingData,
    Refinement,
    check_refinement,
    compose_gdf,
    identity_refinement,
    induced_map,
    paste,
    reindex_object,
)

from oracles import first_difference
from paths import realize, reindex
from test_glue import self_weld_arc


class TestReindex:
    def test_gamma_is_a_read_only_copy(self):
        fun = functor_of(gd_circ())
        gamma = {"1": "1", "2": "2"}
        r = Refinement(gamma, fun, fun, {o: identity_map(fun.space(o)) for o in fun.data.nerve.objects})
        gamma["1"] = "2"
        gamma.clear()
        assert dict(r.gamma) == {"1": "1", "2": "2"}
        with pytest.raises(TypeError):
            r.gamma["1"] = "2"

    def test_identity(self):
        gamma = {"1": "1", "2": "2"}
        assert all(reindex_object(gamma, o) == o for o in objects(("1", "2")))
        for g in raw_generators(("1", "2")):
            assert reindex(gamma, g.dom, (g,)) == (g.dom, (g,))

    def test_constant_collapses_pairs(self):
        gamma = {"1": "*", "2": "*"}
        objs = {o: reindex_object(gamma, o) for o in objects(("1", "2"))}
        assert objs[pair("1", "2")] == single("*")
        eta = GlGen("eta", ("1", "2"))
        dom, path = reindex(gamma, eta.dom, (eta,))
        assert dom == compose_path(dom, path) == single("*")

    def test_injective_relabel(self):
        gamma = {"1": "1", "2": "2"}
        objs = {o: reindex_object(gamma, o) for o in objects(("1", "2"))}
        assert objs[pair("1", "2")] == pair("1", "2")
        assert objs[normalize(("1", "1", "2"))] == normalize(("1", "1", "2"))

    def test_functoriality_on_relation_families(self):
        # both reindexed sides of every relation instance still compose, and
        # to one morphism (an identity side stays an identity)
        rng = random.Random(9)
        for _ in range(12):
            ni = rng.randint(1, 3)
            nj = rng.randint(1, 3)
            src = tuple(f"s{k}" for k in range(ni))
            dst = tuple(f"d{k}" for k in range(nj))
            gamma = {i: rng.choice(dst) for i in src}
            for label, dom, lhs, rhs in relation_instances(src):
                ml = compose_path(*reindex(gamma, dom, lhs))
                assert ml == compose_path(*reindex(gamma, dom, rhs)), label


def _check_refinement_reference(r):
    """``check_refinement`` realizing each generator edge and its reindexed path: the reference."""
    rep = Report()
    by_endpoints = sorted(edges(r.coarse.index).items(), key=lambda e: (repr(e[0][0]), repr(e[0][1])))
    for (a, b), gen in by_endpoints:
        lhs = compose(r.component(a), realize(r.fine, *reindex(r.gamma, a, (gen,))))
        rhs = compose(realize(r.coarse, a, (gen,)), r.component(b))
        w = first_difference(lhs, rhs)
        rep.add("naturality", f"{a}->{b}", w is None, w)
    for obj, comp in sorted(r.components.items(), key=lambda kv: repr(kv[0])):
        _add_continuity(rep, "component-continuous", repr(obj), comp)
    return rep


class TestCheckRefinement:
    def test_same_rows_as_reference_on_seeded_refinements(self):
        rng = random.Random(59)
        refinements = [identity_refinement(functor_of(gd_circ()))]
        refinements += list(torus_meta()[0].edge.values()) + list(counter_meta().edge.values())
        cases = []
        for r in refinements:
            cases.append(r)
            comps = dict(r.components)
            obj = rng.choice(sorted((o for o in comps if len(comps[o].cod.points) > 1), key=repr))
            x = rng.choice(sorted(comps[obj].dom.points))
            table = dict(comps[obj].table)
            table[x] = rng.choice(sorted(comps[obj].cod.points - {table[x]}))
            moved = SpaceMap(comps[obj].dom, comps[obj].cod, table)
            cases.append(Refinement(r.gamma, r.fine, r.coarse, {**comps, obj: moved}))
            # a dropped pair or triple component is lifted back; a dropped patch one is missing
            dropped = rng.choice(sorted(comps, key=repr))
            del comps[dropped]
            if dropped.arity == 1:
                with pytest.raises(MissingComponent, match=f"patch component for '{dropped.head}'"):
                    Refinement(r.gamma, r.fine, r.coarse, comps)
            else:
                assert Refinement(r.gamma, r.fine, r.coarse, comps).components == r.components
        verdicts = set()
        for r in cases:
            rep = check_refinement(r)
            assert rep.entries == _check_refinement_reference(r).entries
            verdicts |= {(e.name, e.ok) for e in rep.entries}
        assert ("naturality", False) in verdicts

    def test_identity_refinement(self):
        fun = functor_of(gd_circ())
        rep = check_refinement(identity_refinement(fun))
        assert rep.passed, str(rep)

    def test_torus_projection_edges(self):
        meta, _ = torus_meta()
        for key in meta.edge:
            rep = check_refinement(meta.edge[key])
            assert rep.passed, f"{key}: {rep}"

    def test_mutated_component_fails_with_witness(self):
        meta, _ = torus_meta()
        r = meta.edge[(single("1"), pair("1", "2"))]
        bad_comps = dict(r.components)
        obj = pair("1", "2")
        old = bad_comps[obj]
        table = dict(old.table)
        table["l|l"], table["r|l"] = table["r|l"], table["l|l"]
        bad_comps[obj] = SpaceMap(old.dom, old.cod, table)
        rep = check_refinement(Refinement(r.gamma, r.fine, r.coarse, bad_comps))
        assert not rep.passed
        assert any(e.witness for e in rep.entries if not e.ok)


class TestCompleteRefinement:
    def test_completes_pairs_and_triples(self):
        meta, _ = torus_meta()
        r = meta.edge[(single("1"), pair("1", "2"))]
        singles = {o: c for o, c in r.components.items() if o.arity == 1}
        rebuilt = Refinement(r.gamma, r.fine, r.coarse, singles)
        for obj in objects(("1", "2")):
            assert first_difference(rebuilt.component(obj), r.component(obj)) is None

    @pytest.mark.parametrize("fixture", [lambda: torus_meta()[0], counter_meta], ids=["torus", "counter"])
    def test_every_meta_edge_rebuilds_from_its_patch_components(self, fixture):
        for key, r in fixture().edge.items():
            patches = {o: c for o, c in r.components.items() if o.arity == 1}
            assert Refinement(r.gamma, r.fine, r.coarse, patches).components == r.components, key

    def test_not_forced_when_anchor_collapses(self):
        fun = functor_of(self_weld_arc())
        gamma = {"1": "1", "2": "2"}
        singles = {
            single(i): identity_map(fun.space(single(i))) for i in ("1", "2")
        }
        with pytest.raises(MissingComponent):
            Refinement(gamma, fun, fun, singles)

    def test_a_missing_patch_component_raises(self):
        fun = functor_of(gd_circ())
        gamma = {i: i for i in fun.index}
        with pytest.raises(MissingComponent, match=r"^patch component for '2' must be given$"):
            Refinement(gamma, fun, fun, {single("1"): identity_map(fun.space(single("1")))})

    def test_an_index_map_undefined_on_the_coarse_index_is_a_missing_component(self):
        fun = functor_of(gd_circ())
        singles = {single(i): identity_map(fun.space(single(i))) for i in ("1", "2")}
        with pytest.raises(MissingComponent, match=r"^index map undefined at '2'$"):
            Refinement({"1": "1", "3": "2"}, fun, fun, singles)

    def test_an_index_map_off_the_fine_index_is_a_missing_component(self):
        fun = functor_of(gd_circ())
        singles = {single(i): identity_map(fun.space(single(i))) for i in ("1", "2")}
        with pytest.raises(MissingComponent, match=r"^index map leaves target at '2'$"):
            Refinement({"1": "1", "2": "3"}, fun, fun, singles)

    def test_an_index_map_key_off_the_coarse_index_is_dropped(self):
        fun = functor_of(gd_circ())
        singles = {single(i): identity_map(fun.space(single(i))) for i in ("1", "2")}
        r = Refinement({"1": "1", "2": "2", "3": "1"}, fun, fun, singles)
        assert dict(r.gamma) == {"1": "1", "2": "2"}
        assert r == Refinement({"1": "1", "2": "2"}, fun, fun, singles)


class TestInducedMap:
    def test_identity_refinement_gives_identity(self):
        gd = gd_circ()
        fun = functor_of(gd)
        glued = glue(gd)
        mu = induced_map(identity_refinement(fun), glued, glued)
        assert mu == identity_map(glued.space)

    def test_torus_boundary_inclusion(self):
        meta, _ = torus_meta()
        r = meta.edge[(single("1"), pair("1", "2"))]
        glued_fine = glue(r.fine.data)
        glued_coarse = glue(r.coarse.data)
        mu = induced_map(r, glued_fine, glued_coarse)
        # boundary classes carry the same names as their cylinder classes
        assert mu.table == {p: p for p in glued_fine.space.points}

    def test_collapse_onto_trivial_coarse(self):
        fine = functor_of(trivial_data(arc3(), "1"))
        coarse = functor_of(trivial_data(pt(), "1"))
        rho = SpaceMap(arc3(), pt(), {x: "p" for x in arc3().points})
        r = Refinement({"1": "1"}, fine, coarse, {single("1"): rho})
        mu = induced_map(r, glue(fine.data), glue(coarse.data))
        assert set(mu.table.values()) == {"p@1"}

    @staticmethod
    def _torus_with_a_failing_edge():
        """``torus_meta()`` and its edge [1]->[1,2] with two points of the [1,2] component swapped."""
        meta, _ = torus_meta()
        r = meta.edge[(single("1"), pair("1", "2"))]
        bad_comps = dict(r.components)
        obj = pair("1", "2")
        old = bad_comps[obj]
        table = dict(old.table)
        table["l|l"], table["r|l"] = table["r|l"], table["l|l"]
        bad_comps[obj] = SpaceMap(old.dom, old.cod, table)
        return meta, Refinement(r.gamma, r.fine, r.coarse, bad_comps)

    @staticmethod
    def _point_onto_both_arcs():
        """The point refining the two-arc circle: both arcs collapse onto it, p going to l in each."""
        fine = functor_of(trivial_data(pt(), "1"))
        coarse = functor_of(gd_circ())
        comps = {single(i): SpaceMap(pt(), coarse.space(single(i)), {"p": "l"}) for i in ("1", "2")}
        return Refinement({"1": "1", "2": "1"}, fine, coarse, comps)

    def test_collapsed_indices_agree_on_the_glued_circle(self):
        r = self._point_onto_both_arcs()
        assert check_refinement(r).passed
        mu = induced_map(r, glue(r.fine.data), glue(r.coarse.data))
        assert mu.table == {"p@1": "l@1"}

    def test_collapsed_indices_disagree_off_the_coarse_gluing(self):
        r = self._point_onto_both_arcs()
        data = r.coarse.data
        total, injections = disjoint_union([data.patch[i] for i in data.index], data.index)
        apart = GluedSpace(
            total,
            {single(i): inj for i, inj in zip(data.index, injections)},
            (),
            {x: frozenset({x}) for x in total.points},
        )
        with pytest.raises(MissingComponent) as info:
            induced_map(r, glue(r.fine.data), apart)
        assert str(info.value) == "collapsed indices ['1', '2'] disagree on the leg for '1'"

    def test_failing_refinement_is_rejected(self):
        from topoglue.errors import ValidationFailed

        _, bad = self._torus_with_a_failing_edge()
        with pytest.raises(ValidationFailed):
            induced_map(bad, glue(bad.fine.data), glue(bad.coarse.data))

    def test_failing_edge_stops_compose_gdf(self):
        from topoglue.errors import ValidationFailed

        meta, bad = self._torus_with_a_failing_edge()
        edge = {**meta.edge, (single("1"), pair("1", "2")): bad}
        with pytest.raises(ValidationFailed) as info:
            compose_gdf(GdfGluingData(meta.index, meta.node, edge))
        assert info.value.message == "edge [1]->[1,2] does not check"

    def test_gamma_must_reach_every_fine_index(self):
        fine = functor_of(gd_circ())
        coarse = functor_of(trivial_data(circle4(), "0"))
        gamma = {"0": "1"}
        rho = SpaceMap(
            fine.space(single("1")), circle4(), {"l": "l", "m": "ma", "r": "r"}
        )
        r = Refinement(gamma, fine, coarse, {single("0"): rho})
        with pytest.raises(MissingComponent):
            induced_map(r, glue(fine.data), glue(coarse.data))

    def test_unique_as_cone_morphism(self):
        # oracle: the induced map is the only continuous map commuting with
        # the component-transported legs; the refinement here swaps the two
        # arc patches of the circle gluing
        gd = gd_circ()
        fun = functor_of(gd)
        gamma = {"1": "2", "2": "1"}
        singles = {
            single("1"): SpaceMap(gd.patch["2"], gd.patch["1"], {x: x for x in arc3().points}),
            single("2"): SpaceMap(gd.patch["1"], gd.patch["2"], {x: x for x in arc3().points}),
        }
        r = Refinement(gamma, fun, fun, singles)
        assert check_refinement(r).passed
        glued_fine = glue(r.fine.data)
        glued_coarse = glue(r.coarse.data)
        mu = induced_map(r, glued_fine, glued_coarse)
        assert mu.table == {"l@1": "l@1", "r@1": "r@1", "m@1": "m@2", "m@2": "m@1"}
        commuting = []
        for h in enumerate_continuous_maps(glued_fine.space, glued_coarse.space):
            ok = True
            for i, j in r.gamma.items():
                lhs = compose(h, glued_fine.leg(single(j)))
                rhs = compose(glued_coarse.leg(single(i)), r.component(single(i)))
                if first_difference(lhs, rhs) is not None:
                    ok = False
                    break
            if ok:
                commuting.append(h)
        assert commuting == [mu]


class TestPaste:
    def test_pasted_refinements_stay_refinements(self):
        meta, _ = torus_meta()
        t12 = meta.edge[(pair("2", "1"), pair("1", "2"))]  # bnd1 -> bnd2
        incl2 = meta.edge[(single("2"), pair("2", "1"))]  # bnd2 -> cyl2
        pasted = paste(incl2, t12)
        rep = check_refinement(pasted)
        assert rep.passed, str(rep)
        assert pasted.fine is t12.fine
        assert pasted.coarse is incl2.coarse

    @pytest.mark.parametrize(
        "fixture, composed",
        [(lambda: torus_meta()[0], {"1": "1", "2": "2"}), (counter_meta, {"1": "1", "2": "1"})],
        ids=["torus", "counter"],
    )
    def test_pasted_index_map_is_the_composed_table(self, fixture, composed):
        # edges [1] -> [1,2] and [1,2] -> [1|{1,2}]; the counter meta's
        # second edge sends both labels onto its point node's one label
        meta = fixture()
        outer = meta.edge[(single("1"), pair("1", "2"))]
        inner = meta.edge[(pair("1", "2"), normalize(("1", "1", "2")))]
        pasted = paste(outer, inner)
        assert dict(pasted.gamma) == {i: inner.gamma[j] for i, j in outer.gamma.items()} == composed
        assert check_refinement(pasted).passed

    def test_middle_functors_with_other_maps_do_not_paste(self):
        # same spaces as gd_circ, transitions swapping a and b: another functor
        gd = gd_circ()
        swap = {
            (i, j): SpaceMap(gd.overlap[(i, j)], gd.overlap[(j, i)], {"a": "b", "b": "a"})
            for i, j in gd.nerve.pairs
            if i != j
        }
        anchor = {key: gd.anchor[key] for key in swap}
        overlap = {key: gd.overlap[key] for key in swap}
        swapped = derive_triple_maps(make_gluing_data(gd.index, gd.patch, overlap, anchor, swap))
        plain, other = functor_of(gd), functor_of(swapped)
        assert all(plain.space(o) == other.space(o) for o in gd.nerve.objects)
        assert check_refinement(paste(identity_refinement(plain), identity_refinement(functor_of(gd)))).passed
        with pytest.raises(MissingComponent, match="do not share a middle functor"):
            paste(identity_refinement(plain), identity_refinement(other))


class TestComposeGdf:
    def test_each_edge_is_checked_once(self, monkeypatch):
        meta, _ = torus_meta()
        checked = []

        def counting_check(r):
            checked.append(r)
            return check_refinement(r)

        monkeypatch.setattr(refine_mod, "check_refinement", counting_check)
        compose_gdf(meta)
        assert len(checked) == len(meta.edge) == 12

    def test_single_node(self):
        fun = functor_of(trivial_data(arc3(), "1"))
        meta = GdfGluingData(("1",), {single("1"): fun}, {})
        composed, rep = compose_gdf(meta)
        assert rep.passed
        glued = glue(composed.data)
        assert find_homeomorphism(glued.space, arc3()) is not None

    def test_torus_pipeline(self):
        meta, seq = torus_meta()
        composed, rep = compose_gdf(meta)
        assert rep.passed, str(rep)
        torus_from_meta = glue(composed.data)
        torus_from_seq = glue(seq)
        assert len(torus_from_meta.space.points) == 16
        assert len(torus_from_seq.space.points) == 16
        assert find_homeomorphism(torus_from_meta.space, product_c4_c4()) is not None

    def test_two_stage_equals_sequential_via_mediators(self):
        meta, seq = torus_meta()
        composed, _ = compose_gdf(meta)
        g_meta = glue(composed.data)
        g_seq = glue(seq)
        cone_on_seq = complete_cone(
            composed.data, g_seq.space,
            {i: g_seq.leg(single(i)) for i in composed.data.index},
        )
        mu1 = mediate(composed.data, g_meta, cone_on_seq)
        cone_on_meta = complete_cone(
            seq, g_meta.space, {i: g_meta.leg(single(i)) for i in seq.index}
        )
        mu2 = mediate(seq, g_seq, cone_on_meta)
        assert compose(mu2, mu1) == identity_map(g_meta.space)
        assert compose(mu1, mu2) == identity_map(g_seq.space)

    def test_missing_pair_node_is_a_missing_component(self):
        meta, _ = torus_meta()
        nodes = {obj: fun for obj, fun in meta.node.items() if obj != pair("2", "1")}
        with pytest.raises(MissingComponent, match=r"meta gluing has no node for \[2,1\]"):
            compose_gdf(GdfGluingData(meta.index, nodes, meta.edge))

    def test_edge_between_other_nodes_is_a_composition_mismatch(self):
        meta, _ = torus_meta()
        eta, tau = (single("1"), pair("1", "2")), (pair("2", "1"), pair("1", "2"))
        edge = {**meta.edge, eta: meta.edge[tau]}  # its coarse functor is node [2,1], not [1]
        with pytest.raises(CompositionMismatch, match=r"edge \[1\]->\[1,2\] does not run"):
            compose_gdf(GdfGluingData(meta.index, meta.node, edge))

    def test_pushout_condition_failure_raises(self):
        with pytest.raises(HypothesisBFailed) as info:
            compose_gdf(counter_meta())
        assert info.value.key == ("1", "1", "2")

    def test_composed_data_is_open_map_data(self):
        from topoglue.glue import check_otop

        meta, seq = torus_meta()
        composed, _ = compose_gdf(meta)
        for gd in (composed.data, seq):
            glued = glue(gd)
            rep = check_otop(gd, glued)
            assert rep.applicable and rep.passed, str(rep)


class TestFrozenRefinementLayer:
    def test_tables_and_attributes_are_read_only(self):
        meta, _ = torus_meta()
        r = meta.edge[(single("1"), pair("1", "2"))]
        with pytest.raises(TypeError):
            r.components[single("1")] = r.components[single("1")]
        with pytest.raises(TypeError):
            r.gamma["1"] = "2"
        with pytest.raises(AttributeError):
            meta.node.clear()
        with pytest.raises(TypeError):
            meta.edge[(single("1"), pair("1", "2"))] = r
        for value in (r, meta):
            for f in dataclasses.fields(value):
                with pytest.raises(dataclasses.FrozenInstanceError):
                    setattr(value, f.name, getattr(value, f.name))
            with pytest.raises(TypeError):
                hash(value)

    def test_constructor_tables_are_copied(self):
        meta, _ = torus_meta()
        r = meta.edge[(single("1"), pair("1", "2"))]
        table = dict(r.gamma)
        comps = dict(r.components)
        copy = Refinement(table, r.fine, r.coarse, comps)
        node, edge = dict(meta.node), dict(meta.edge)
        meta_copy = GdfGluingData(list(meta.index), node, edge)
        for d in (table, comps, node, edge):
            d.clear()
        assert copy.gamma == r.gamma and copy.components == r.components
        assert check_refinement(copy).passed
        assert (meta_copy.index, meta_copy.node, meta_copy.edge) == (meta.index, meta.node, meta.edge)


def _two_points(overlapping: bool):
    """Two one-point patches: over a one-point overlap, or over empty overlaps (no pair in the nerve)."""
    patch = {"1": pt("P1", "a"), "2": pt("P2", "b")}
    if overlapping:
        overlap = {("1", "2"): pt("O12", "o"), ("2", "1"): pt("O21", "o")}
        anchor = {
            ("1", "2"): SpaceMap(overlap[("1", "2")], patch["1"], {"o": "a"}),
            ("2", "1"): SpaceMap(overlap[("2", "1")], patch["2"], {"o": "b"}),
        }
        transition = {
            ("1", "2"): SpaceMap(overlap[("1", "2")], overlap[("2", "1")], {"o": "o"}),
            ("2", "1"): SpaceMap(overlap[("2", "1")], overlap[("1", "2")], {"o": "o"}),
        }
    else:
        overlap = {key: EMPTY for key in (("1", "2"), ("2", "1"))}
        anchor = {(i, j): SpaceMap(EMPTY, patch[i], {}) for i, j in overlap}
        transition = {key: SpaceMap(EMPTY, EMPTY, {}) for key in overlap}
    return functor_of(derive_triple_maps(make_gluing_data(("1", "2"), patch, overlap, anchor, transition)))


class TestRefinementOntoAnEmptyOverlap:
    """A coarse overlap with no points under a fine overlap with points admits no component."""

    gamma = {"1": "1", "2": "2"}

    def _patches(self, fine, coarse):
        return {
            single(i): SpaceMap(fine.space(single(i)), coarse.space(single(i)), {x: min(coarse.space(single(i)).points) for x in fine.space(single(i)).points})
            for i in ("1", "2")
        }

    def test_construction_raises_at_the_empty_overlap(self):
        fine, coarse = _two_points(True), _two_points(False)
        with pytest.raises(MissingComponent, match=r"^pair component \[1,2\] not uniquely forced at 'o'$"):
            Refinement(self.gamma, fine, coarse, self._patches(fine, coarse))

    def test_construction_fails_without_the_component(self):
        # retargeting a refinement onto the empty overlaps builds it anew: its
        # pair components, given, still have no empty space to land in
        fine, coarse = _two_points(True), _two_points(True)
        r = Refinement(self.gamma, fine, coarse, self._patches(fine, coarse))
        assert check_refinement(r).passed and pair("1", "2") in r.components
        with pytest.raises(MissingComponent, match=r"^pair component \[1,2\] not uniquely forced at 'o'$"):
            dataclasses.replace(r, coarse=_two_points(False))

    def test_empty_fine_overlaps_need_no_component(self):
        fine, coarse = _two_points(False), _two_points(False)
        r = Refinement(self.gamma, fine, coarse, self._patches(fine, coarse))
        assert set(r.components) == {single("1"), single("2")}
        assert r.component(pair("1", "2")) == SpaceMap(EMPTY, EMPTY, {})
        assert check_refinement(r).passed
        # into the overlapping datum, the coarse overlap has points: its component is lifted
        r = Refinement(self.gamma, fine, _two_points(True), self._patches(fine, _two_points(True)))
        assert check_refinement(r).passed


def _point_node(name: str, *points: str):
    space = FiniteSpace(name, points, {x: {x} for x in points})
    return functor_of(trivial_data(space, "1"))


def _node_refinement(fine, coarse, table):
    return Refinement({"1": "1"}, fine, coarse, {single("1"): SpaceMap(fine.space(single("1")), coarse.space(single("1")), table)})


def _empty_triple_meta(with_empty_pairs: bool) -> GdfGluingData:
    """[1] has two points; [1,2] lands on x and [1,3] on y, so the composed
    triple [1|{2,3}] is empty, while the triple node has a point.  The pair
    nodes [2,3] and [3,2] have no points; without ``with_empty_pairs`` they
    and their edges are left out."""
    node = {
        single("1"): _point_node("X1", "x", "y"),
        single("2"): _point_node("X2", "u"),
        single("3"): _point_node("X3", "v"),
        pair("1", "2"): _point_node("O12", "p"),
        pair("2", "1"): _point_node("O21", "p"),
        pair("1", "3"): _point_node("O13", "q"),
        pair("3", "1"): _point_node("O31", "q"),
        normalize(("1", "2", "3")): _point_node("T", "t"),
    }
    images = {("1", "2"): "x", ("1", "3"): "y", ("2", "1"): "u", ("3", "1"): "v"}
    if with_empty_pairs:
        node[pair("2", "3")] = _point_node("O23")
        node[pair("3", "2")] = _point_node("O32")
    edge = {}
    for i, j in [(i, j) for i in "123" for j in "123" if i != j and pair(i, j) in node]:
        a, b = single(i), pair(i, j)
        table = {p: images[(i, j)] for p in node[b].space(single("1")).points}
        edge[(a, b)] = _node_refinement(node[b], node[a], table)
        back = pair(j, i)
        points = node[b].space(single("1")).points
        edge[(back, b)] = _node_refinement(node[b], node[back], {p: p for p in points})
    t = normalize(("1", "2", "3"))
    edge[(pair("1", "2"), t)] = _node_refinement(node[t], node[pair("1", "2")], {"t": "p"})
    edge[(pair("1", "3"), t)] = _node_refinement(node[t], node[pair("1", "3")], {"t": "q"})
    return GdfGluingData(("1", "2", "3"), node, edge)


class TestPushoutOverAnEmptyComposedTriple:
    @pytest.mark.parametrize("with_empty_pairs", [True, False], ids=["all-pairs", "sparse"])
    def test_a_triple_node_with_points_over_an_empty_pullback_raises(self, with_empty_pairs):
        with pytest.raises(HypothesisBFailed, match="'t@1' lands outside the pullback") as info:
            compose_gdf(_empty_triple_meta(with_empty_pairs))
        assert info.value.key == ("1", "2", "3")

    def test_a_meta_may_omit_its_empty_pair_nodes(self):
        # without the triple node both metas compose, to the same datum
        composed = []
        for with_empty_pairs in (True, False):
            meta = _empty_triple_meta(with_empty_pairs)
            t = normalize(("1", "2", "3"))
            node = {obj: fun for obj, fun in meta.node.items() if obj != t}
            edge = {key: r for key, r in meta.edge.items() if t not in key}
            fun, rep = compose_gdf(GdfGluingData(meta.index, node, edge))
            assert rep.passed, str(rep)
            composed.append(fun.data)
        assert composed[0] == composed[1]
        assert not composed[1].stores(pair("2", "3"))

    def test_an_overlap_without_its_opposite_node_is_a_missing_component(self):
        meta = _empty_triple_meta(False)
        node = {obj: fun for obj, fun in meta.node.items() if obj != pair("2", "1")}
        edge = {key: r for key, r in meta.edge.items() if pair("2", "1") not in key}
        with pytest.raises(MissingComponent, match=r"meta gluing has no node for \[2,1\]"):
            compose_gdf(GdfGluingData(meta.index, node, edge))
