import dataclasses
import itertools
import random
import tracemalloc
from collections.abc import Mapping

import pytest

import cone_reference
from conftest import digital_circle, digital_circle_data, random_lawful_data
from oracles import first_difference
from empty_reference import on_nerve
from paths import anchor, coord, find_path, realize, transition
from topoglue import fintop, glidx
from topoglue import glue as glue_mod
from topoglue.errors import (
    CompositionMismatch,
    IllDefined,
    MissingLeg,
    NotCovering,
    NotEquivalence,
    SearchBudgetExceeded,
    UnknownPoint,
)
from topoglue.fintop import (
    SpaceMap,
    analyze_map,
    compose,
    disjoint_union,
    enumerate_continuous_maps,
    find_homeomorphism,
    from_opens,
    identity_map,
    is_homeomorphism,
    is_open,
    make_space,
    quotient,
)
from topoglue.fixtures import (
    arc3,
    circle4,
    cylinder_data,
    disc2,
    gd_circ,
    indisc2,
    pt,
    sierp,
    trivial_data,
)
from topoglue.gdata import (
    GluingFunctor,
    Report,
    derive_triple_maps,
    make_gluing_data,
    validate,
)
from topoglue.glidx import normalize, pair, single
from topoglue.glue import (
    CONE_MODES,
    Cone,
    UniversalReport,
    build_relation,
    check_cone,
    check_equivalence,
    cone_failure,
    check_glued_properties,
    check_otop,
    complete_cone,
    default_apexes,
    enumerate_cones,
    glue,
    mediate,
    verify_universal,
)


def one_point_weld():
    """Two discrete two-point patches welded at a single point."""
    d1, d2 = disc2(), disc2()
    p12, p21 = pt("w12"), pt("w21")
    return derive_triple_maps(
        make_gluing_data(
            ["1", "2"],
            patch={"1": d1, "2": d2},
            overlap={("1", "2"): p12, ("2", "1"): p21},
            anchor={
                ("1", "2"): SpaceMap(p12, d1, {"p": "a"}),
                ("2", "1"): SpaceMap(p21, d2, {"p": "a"}),
            },
            transition={
                ("1", "2"): SpaceMap(p12, p21, {"p": "p"}),
                ("2", "1"): SpaceMap(p21, p12, {"p": "p"}),
            },
        )
    )


def self_weld_arc():
    """One arc patch glued to a copy of itself end-to-start.

    The overlap is the arc plus an extra point that lands on one endpoint, so
    the anchors are not injective; the raw relation then fails transitivity.
    """
    a = arc3()
    ov1 = make_space(
        "arc+l", ["l@s", "m@s", "r@s", "p@e"],
        {"l@s": ["l@s"], "r@s": ["r@s"], "m@s": ["l@s", "m@s", "r@s"], "p@e": ["p@e"]},
    )
    ov2 = make_space(
        "arc+r", ["l@s", "m@s", "r@s", "p@e"],
        {"l@s": ["l@s"], "r@s": ["r@s"], "m@s": ["l@s", "m@s", "r@s"], "p@e": ["p@e"]},
    )
    fold1 = {"l@s": "l", "m@s": "m", "r@s": "r", "p@e": "l"}
    fold2 = {"l@s": "l", "m@s": "m", "r@s": "r", "p@e": "r"}
    swap = {x: x for x in ov1.points}
    return derive_triple_maps(
        make_gluing_data(
            ["1", "2"],
            patch={"1": a, "2": a},
            overlap={("1", "2"): ov1, ("2", "1"): ov2},
            anchor={
                ("1", "2"): SpaceMap(ov1, a, fold1),
                ("2", "1"): SpaceMap(ov2, a, fold2),
            },
            transition={
                ("1", "2"): SpaceMap(ov1, ov2, swap),
                ("2", "1"): SpaceMap(ov2, ov1, swap),
            },
        )
    )


def three_patch_chain():
    """Three patches whose identifications chain without composing.

    Patch 1 meets patch 2 and patch 2 meets patch 3 at the same point, but
    the (1,3)-overlap is empty.  No triple family can exist over such pair
    data: the triple space over patch 2 is nonempty while its transition
    target over patch 1 is empty, so the derivation is obstructed.  That
    obstruction is the transitivity mechanism showing up at the data level.
    """
    d = disc2()
    p12, p21 = pt("c12"), pt("c21")
    p23, p32 = pt("c23"), pt("c32")
    empty = make_space("none", [], {})

    def empty_map(cod):
        return SpaceMap(empty, cod, {})

    return make_gluing_data(
        ["1", "2", "3"],
        patch={"1": d, "2": d, "3": d},
        overlap={
            ("1", "2"): p12, ("2", "1"): p21,
            ("2", "3"): p23, ("3", "2"): p32,
            ("1", "3"): empty, ("3", "1"): empty,
        },
        anchor={
            ("1", "2"): SpaceMap(p12, d, {"p": "a"}),
            ("2", "1"): SpaceMap(p21, d, {"p": "a"}),
            ("2", "3"): SpaceMap(p23, d, {"p": "a"}),
            ("3", "2"): SpaceMap(p32, d, {"p": "a"}),
            ("1", "3"): empty_map(d),
            ("3", "1"): empty_map(d),
        },
        transition={
            ("1", "2"): SpaceMap(p12, p21, {"p": "p"}),
            ("2", "1"): SpaceMap(p21, p12, {"p": "p"}),
            ("2", "3"): SpaceMap(p23, p32, {"p": "p"}),
            ("3", "2"): SpaceMap(p32, p23, {"p": "p"}),
            ("1", "3"): empty_map(empty),
            ("3", "1"): empty_map(empty),
        },
    )


def three_patch_weld():
    """A welded pair of arc patches plus a disjoint third patch.

    The weld's fold anchors keep every triple space populated, so the datum
    validates, while the raw relation still fails transitivity inside the
    weld; the extra patch makes it a genuine three-index instance.
    """
    base = self_weld_arc()
    extra = pt("P3")
    empty = make_space("none", [], {})

    def empty_map(cod):
        return SpaceMap(empty, cod, {})

    overlap = dict(base.overlap)
    anchor = dict(base.anchor)
    transition = dict(base.transition)
    for i in ("1", "2"):
        overlap[(i, "3")] = empty
        overlap[("3", i)] = empty
        anchor[(i, "3")] = empty_map(base.patch[i])
        anchor[("3", i)] = empty_map(extra)
        transition[(i, "3")] = empty_map(empty)
        transition[("3", i)] = empty_map(empty)
    patch = dict(base.patch)
    patch["3"] = extra
    return derive_triple_maps(
        make_gluing_data(["1", "2", "3"], patch, overlap, anchor, transition)
    )


class TestBuildRelation:
    def test_single_patch_is_diagonal(self):
        gd = trivial_data(arc3())
        rel = build_relation(gd)
        assert rel == sorted((f"{x}@1", f"{x}@1") for x in arc3().points)

    def test_circle_pairs(self):
        rel = set(build_relation(gd_circ()))
        off_diagonal = {(a, b) for a, b in rel if a != b}
        assert off_diagonal == {
            ("l@1", "l@2"), ("l@2", "l@1"), ("r@1", "r@2"), ("r@2", "r@1"),
        }

    def test_one_point_weld(self):
        rel = set(build_relation(one_point_weld()))
        off_diagonal = {(a, b) for a, b in rel if a != b}
        assert off_diagonal == {("a@1", "a@2"), ("a@2", "a@1")}


def _equivalence_reference(relation, domain):
    """``check_equivalence`` with one flag-and-break loop per property: the reference."""
    rel = set(relation)
    refl = sym = trans = None
    for p in sorted(domain):
        if (p, p) not in rel:
            refl = (p,)
            break
    for a, b in sorted(rel):
        if (b, a) not in rel:
            sym = (a, b)
            break
    succ = {}
    for a, b in rel:
        succ.setdefault(a, set()).add(b)
    for a in sorted(succ):
        for b in sorted(succ[a]):
            for c in sorted(succ.get(b, ())):
                if trans is None and (a, c) not in rel:
                    trans = (a, b, c)
    return refl is None, sym is None, trans is None, refl or sym or trans


def _equivalence_flags(rep):
    """A ``check_equivalence`` report as the reference's tuple: three flags, the first witness."""
    assert [(e.name, e.subject) for e in rep.entries] == [
        ("reflexive", "relation"), ("symmetric", "relation"), ("transitive", "relation"),
    ]
    failures = rep.failures()
    return (*(e.ok for e in rep.entries), failures[0].witness if failures else None)


class TestCheckEquivalence:
    def test_same_report_as_reference_on_random_relations(self):
        rng = random.Random(61)
        gd = gd_circ()
        domain = [f"{x}@{i}" for i in gd.index for x in sorted(gd.patch[i].points)]
        outcomes = set()
        for _ in range(300):
            relation = [tuple(rng.sample(domain, 2)) for _ in range(rng.randint(0, 8))]
            relation += [(p, p) for p in domain if rng.random() < 0.9]
            rep = check_equivalence(relation, gd)
            expected = _equivalence_reference(relation, domain)
            assert _equivalence_flags(rep) == expected
            outcomes.add(expected[:3])
        assert len(outcomes) >= 6

    def test_circle_is_equivalence(self):
        gd = gd_circ()
        rep = check_equivalence(build_relation(gd), gd)
        assert rep.passed

    def test_single_patch(self):
        gd = trivial_data(arc3())
        assert check_equivalence(build_relation(gd), gd).passed

    def test_self_weld_breaks_transitivity(self):
        gd = self_weld_arc()
        assert validate(gd).passed, str(validate(gd))
        _, _, transitive, witness = _equivalence_flags(check_equivalence(build_relation(gd), gd))
        assert not transitive
        assert witness is not None and len(witness) == 3

    def test_chained_overlaps_cannot_complete_triples(self):
        from topoglue.errors import NotDetermined

        gd = three_patch_chain()
        with pytest.raises(NotDetermined) as info:
            derive_triple_maps(gd)
        assert info.value.key == ("2", "1", "3")
        assert info.value.candidates == []

    def test_three_patch_weld_breaks_transitivity(self):
        gd = three_patch_weld()
        assert validate(gd).passed, str(validate(gd))
        reflexive, symmetric, transitive, witness = _equivalence_flags(
            check_equivalence(build_relation(gd), gd)
        )
        assert reflexive and symmetric and not transitive
        assert witness is not None and len(witness) == 3


class TestGlue:
    def test_glued_space_is_a_cone(self):
        glued = glue(gd_circ())
        assert isinstance(glued, Cone)
        assert glued.space is glued.apex

    def test_legs_classes_and_fields_are_read_only(self):
        glued = glue(gd_circ())
        with pytest.raises(TypeError):
            glued.legs[single("1")] = glued.leg(single("2"))
        with pytest.raises(TypeError):
            glued.classes["l@1"] = frozenset()
        with pytest.raises(dataclasses.FrozenInstanceError):
            glued.apex = circle4()
        with pytest.raises(dataclasses.FrozenInstanceError):
            glued.relation = ()

    def test_a_cone_copies_its_leg_table(self):
        gd = gd_circ()
        legs = dict(glue(gd).legs)
        cone = Cone(circle4(), legs)
        legs.clear()
        assert set(cone.legs) == set(glidx.objects(gd.index))

    def test_glued_spaces_hash_by_content(self):
        a, b = glue(gd_circ()), glue(gd_circ())
        assert a is not b and a == b and hash(a) == hash(b)
        assert len({a, b}) == 1
        cone = Cone(a.apex, a.legs)
        assert cone != a and hash(Cone(b.apex, b.legs)) == hash(cone)

    def test_equal_cones_from_different_dicts_hash_equal(self):
        glued = glue(gd_circ())
        legs = dict(glued.legs)
        backwards = dict(reversed(list(legs.items())))
        assert list(backwards) != list(legs)
        first, second = Cone(glued.apex, legs), Cone(glued.apex, backwards)
        assert first == second and hash(first) == hash(second)

    def test_single_patch_is_homeomorphic_copy(self):
        gd = trivial_data(arc3())
        glued = glue(gd)
        assert is_homeomorphism(glued.leg(single("1")))

    def test_circle(self):
        glued = glue(gd_circ())
        assert sorted(glued.space.points) == ["l@1", "m@1", "m@2", "r@1"]
        assert find_homeomorphism(glued.space, circle4()) is not None

    def test_one_point_weld_is_three_point_discrete(self):
        glued = glue(one_point_weld())
        assert len(glued.space.points) == 3
        assert all(len(glued.space.min_open[x]) == 1 for x in glued.space.points)

    def test_self_weld_raises(self):
        with pytest.raises(NotEquivalence):
            glue(self_weld_arc())

    @pytest.mark.parametrize("weld", [self_weld_arc, three_patch_weld])
    def test_weld_message_names_the_failing_row(self, weld):
        with pytest.raises(NotEquivalence) as info:
            glue(weld())
        assert info.value.witness == ("l@1", "r@2", "r@1")
        assert str(info.value) == (
            "overlap relation is not an equivalence: reflexive=True symmetric=True "
            "transitive=False witness=('l@1', 'r@2', 'r@1')"
        )

    def test_one_disjoint_union_per_glue(self, monkeypatch):
        calls = []
        union = fintop.disjoint_union
        monkeypatch.setattr(fintop, "disjoint_union", lambda *a: calls.append(a) or union(*a))
        glue(digital_circle_data(12, 3))
        assert len(calls) == 1

    def test_leg_factorizations_hold(self):
        gd = gd_circ()
        glued = glue(gd)
        for i in gd.index:
            for j in gd.index:
                if i != j:
                    assert glued.leg(pair(i, j)) == compose(
                        glued.leg(single(i)), gd.anchor[(i, j)]
                    )

    def test_final_topology_via_legs(self):
        gd = gd_circ()
        glued = glue(gd)
        points = sorted(glued.space.points)
        for k in range(len(points) + 1):
            for sub in itertools.combinations(points, k):
                expect = all(
                    is_open(
                        gd.patch[i],
                        {x for x in gd.patch[i].points if glued.leg(single(i))(x) in sub},
                    )
                    for i in gd.index
                )
                assert is_open(glued.space, sub) == expect


class TestCheckCone:
    def test_glued_space_is_a_cone_in_all_modes(self):
        gd = gd_circ()
        glued = glue(gd)
        for mode in CONE_MODES:
            assert check_cone(gd, glued, mode)

    def test_perturbed_leg_fails_all_modes(self):
        # pair and triple legs are fully pinned by the factorization
        # conditions; a single-patch leg is pinned only on anchor images,
        # so perturbations target constrained points
        gd = gd_circ()
        glued = glue(gd)
        rng = random.Random(3)
        perturbed = 0
        while perturbed < 20:
            legs = dict(glue(gd).legs)
            obj = rng.choice(sorted(legs, key=repr))
            old = legs[obj]
            if obj.arity == 1:
                constrained = set()
                for j in gd.index:
                    if j != obj.head:
                        constrained |= gd.anchor[(obj.head, j)].image()
                points = sorted(constrained)
            else:
                points = sorted(old.dom.points)
            if not points:
                continue
            x = rng.choice(points)
            others = sorted(old.cod.points - {old(x)})
            if not others:
                continue
            table = dict(old.table)
            table[x] = rng.choice(others)
            legs[obj] = SpaceMap(old.dom, old.cod, table)
            cone = Cone(glued.space, legs)
            verdicts = [check_cone(gd, cone, mode) for mode in CONE_MODES]
            assert verdicts == [False, False, False]
            perturbed += 1

    def test_modes_agree_on_random_families(self):
        gd = gd_circ()
        apexes = [pt(), sierp(), disc2(), arc3(), circle4()]
        rng = random.Random(5)
        objs = sorted(
            set(list(gd.patch) and []) | set(),
        )
        from topoglue import glidx

        objects = glidx.objects(gd.index)
        agreements = 0
        for _ in range(60):
            apex = rng.choice(apexes)
            legs = {}
            for obj in objects:
                sp = gd.space_of(obj)
                table = {x: rng.choice(sorted(apex.points)) for x in sp.points}
                legs[obj] = SpaceMap(sp, apex, table)
            cone = Cone(apex, legs)
            verdicts = {mode: check_cone(gd, cone, mode) for mode in CONE_MODES}
            assert len(set(verdicts.values())) == 1, verdicts
            agreements += 1
        assert agreements == 60


def _morphism_maps(gd):
    """(a, b, F(a -> b)) for every ordered object pair with a morphism, along a BFS path."""
    fun = GluingFunctor(gd)
    objs = glidx.objects(gd.index)
    out = []
    for a in objs:
        for b in objs:
            path = find_path(gd.index, a, b)
            if path is not None:
                out.append((a, b, realize(fun, a, path)))
    return out


def _all_pairs_verdict(cone, morphism_maps):
    """The cone condition on every morphism of the index category, one pair at a time."""
    for a, b, f in morphism_maps:
        if compose(cone.leg(a), f) != cone.leg(b):
            return False
    return True


def _redirected(cone, rng, n):
    """The cone with n leg entries sent to another apex point."""
    legs = dict(cone.legs)
    nonempty = sorted((obj for obj in legs if legs[obj].dom.points), key=repr)
    for _ in range(n):
        obj = rng.choice(nonempty)
        leg = legs[obj]
        x = rng.choice(sorted(leg.dom.points))
        table = dict(leg.table)
        table[x] = rng.choice(sorted(leg.cod.points - {leg(x)}))
        legs[obj] = SpaceMap(leg.dom, leg.cod, table)
    return Cone(cone.apex, legs)


class TestFullConeEdgeCheck:
    """``full`` checks generator edges; the all-pairs loop over every morphism is the reference."""

    def test_same_verdict_as_all_pairs_on_seeded_cones(self):
        rng = random.Random(23)
        sources = [
            (gd_circ(), 250),
            (cylinder_data("1"), 250),
            (digital_circle_data(12, 3), 60),
            (digital_circle_data(8, 4), 40),
        ]
        verdicts = []
        for gd, count in sources:
            maps = _morphism_maps(gd)
            glued_cone = glue(gd)
            for _ in range(count):
                cone = _redirected(glued_cone, rng, rng.randint(0, 2))
                if rng.random() < 0.5:
                    # pair and triple legs forced from the patch legs: such a cone
                    # fails only where the patch legs disagree across an overlap
                    singles = {i: cone.leg(single(i)) for i in gd.index}
                    cone = complete_cone(gd, cone.apex, singles)
                verdict = check_cone(gd, cone, "full")
                assert verdict == _all_pairs_verdict(cone_reference.dense_cone(gd, cone), maps)
                verdicts.append(verdict)
        assert set(verdicts) == {True, False}

    @pytest.mark.parametrize("gd", [gd_circ(), trivial_data(arc3())], ids=["circle", "single"])
    def test_missing_leg_raises(self, gd):
        legs = dict(glue(gd).legs)
        del legs[single(gd.index[-1])]
        cone = Cone(pt(), legs)
        with pytest.raises(MissingLeg):
            _all_pairs_verdict(cone, _morphism_maps(gd))
        with pytest.raises(MissingLeg):
            check_cone(gd, cone, "full")

    def test_leg_with_wrong_domain_raises(self):
        gd = gd_circ()
        legs = dict(glue(gd).legs)
        legs[single("1")] = legs[pair("1", "2")]
        cone = Cone(pt(), legs)
        with pytest.raises(CompositionMismatch):
            _all_pairs_verdict(cone, _morphism_maps(gd))
        with pytest.raises(CompositionMismatch):
            check_cone(gd, cone, "full")

    @pytest.mark.parametrize("mode", CONE_MODES)
    @pytest.mark.parametrize(
        "obj, wrong",
        [(pair("1", "2"), single("1")), (normalize(("1", "1", "2")), pair("1", "2"))],
        ids=["pair", "triple"],
    )
    def test_mistyped_leg_raises_in_every_mode(self, mode, obj, wrong):
        # a triple leg is only ever compared in figure3 and figure4, never
        # composed, so only the typing pass catches it there
        gd = gd_circ()
        legs = dict(glue(gd).legs)
        legs[obj] = legs[wrong]
        with pytest.raises(CompositionMismatch):
            check_cone(gd, Cone(pt(), legs), mode)

    def test_compose_calls_stay_linear_in_objects_and_edges(self, monkeypatch):
        gd = digital_circle_data(96, 8)
        cone = glue(gd)
        calls = []

        def counting_compose(g, f):
            calls.append(1)
            return compose(g, f)

        monkeypatch.setattr(glue_mod, "compose", counting_compose)
        assert check_cone(gd, cone, "full")
        assert len(calls) <= len(glidx.objects(gd.index)) + len(gd.nerve.edges)


class TestConeEdgesMatchTableReference:
    """Legs and cone triangles read off the generator edges; the table-by-table lists are the reference."""

    def test_same_failure_and_legs_as_reference_on_seeded_cones(self):
        rng = random.Random(31)
        data = [
            (gd_circ(), 120),
            (cylinder_data("1"), 120),
            (digital_circle_data(12, 3), 40),
            (digital_circle_data(8, 4), 30),
        ]
        data += [(random_lawful_data(rng), 12) for _ in range(10)]
        failures = {mode: 0 for mode in CONE_MODES}
        checks = 0
        for gd, count in data:
            glued = glue(gd)
            if len(glued.space.points) < 2:
                continue
            for _ in range(count):
                cone = _redirected(glued, rng, rng.randint(0, 3))
                singles = {i: cone.leg(single(i)) for i in gd.index}
                completed = complete_cone(gd, cone.apex, singles)
                reference = cone_reference.complete_cone(gd, cone.apex, singles)
                # the reference also builds the empty legs of the objects outside the nerve
                assert dict(completed.legs) == {
                    obj: leg for obj, leg in reference.legs.items() if gd.stores(obj)
                }
                assert not any(leg.dom.points for obj, leg in reference.legs.items() if not gd.stores(obj))
                for candidate in (cone, completed):
                    checks += 1
                    for mode in CONE_MODES:
                        failure = cone_failure(gd, candidate, mode)
                        assert failure == cone_reference.cone_failure(gd, candidate, mode)
                        failures[mode] += failure is not None
        assert all(0 < n < checks for n in failures.values()), (failures, checks)

    def test_figure_modes_skip_the_diagonal_like_full(self):
        # a non-identity diagonal anchor is unlawful (validate rejects it); the
        # figure modes compare no identity triangle, so like full they pass
        a = arc3()
        swap = SpaceMap(a, a, {"l": "r", "m": "m", "r": "l"})
        gd = make_gluing_data(["1"], {"1": a}, {}, {("1", "1"): swap}, {})
        cone = Cone(a, {single("1"): identity_map(a)})
        assert not validate(gd).passed
        assert [cone_failure(gd, cone, mode) for mode in CONE_MODES] == [None] * 3
        assert cone_reference.cone_failure(gd, cone, "full") is None
        expected = (single("1"), single("1"), "l")
        assert cone_reference.cone_failure(gd, cone, "figure3") == expected
        assert cone_reference.cone_failure(gd, cone, "figure4") == expected


class TestConeErrors:
    def test_unknown_mode(self):
        gd = gd_circ()
        with pytest.raises(ValueError, match="^unknown cone mode 'bogus'$"):
            check_cone(gd, glue(gd), "bogus")

    def test_missing_leg(self):
        from topoglue.errors import MissingLeg

        gd = gd_circ()
        glued = glue(gd)
        cone = Cone(glued.space, {single("1"): glued.leg(single("1"))})
        with pytest.raises(MissingLeg):
            check_cone(gd, cone, "figure4")

    def test_mediate_requires_provenance(self):
        from topoglue.errors import NotCovering

        gd = gd_circ()
        glued = glue(gd)
        bigger = make_space(
            "Q+",
            list(glued.space.points) + ["stray"],
            {**{x: glued.space.min_open[x] for x in glued.space.points}, "stray": ["stray"]},
        )
        legs = {
            obj: SpaceMap(m.dom, bigger, dict(m.table)) for obj, m in glued.legs.items()
        }
        candidate = Cone(bigger, legs)
        cone = complete_cone(
            gd, pt(), {i: SpaceMap(gd.patch[i], pt(), {x: "p" for x in gd.patch[i].points})
                       for i in gd.index},
        )
        with pytest.raises(NotCovering):
            mediate(gd, candidate, cone)


class TestModeAgreementOnRandomInstances:
    def test_small_random_instances(self):
        from conftest import random_lawful_data
        from topoglue import glidx

        rng = random.Random(17)
        for _ in range(10):
            gd = random_lawful_data(rng, max_patches=3, max_points=4)
            apex = rng.choice([pt(), sierp(), disc2()])
            legs = {}
            for obj in glidx.objects(gd.index):
                sp = gd.space_of(obj)
                legs[obj] = SpaceMap(
                    sp, apex, {x: rng.choice(sorted(apex.points)) for x in sp.points}
                )
            cone = Cone(apex, legs)
            verdicts = {m: check_cone(gd, cone, m) for m in CONE_MODES}
            assert len(set(verdicts.values())) == 1, verdicts


class TestCompleteCone:
    def test_completed_singles_give_a_cone_iff_compatible(self):
        gd = gd_circ()
        glued = glue(gd)
        cone = complete_cone(
            gd, glued.space, {i: glued.leg(single(i)) for i in gd.index}
        )
        assert check_cone(gd, cone, "full")


class TestCheckGluedProperties:
    def test_glue_output_passes_all_six(self):
        gd = gd_circ()
        glued = glue(gd)
        rep = check_glued_properties(gd, glued)
        assert rep.passed, str(rep)

    def test_extra_isolated_point_fails_covering(self):
        gd = gd_circ()
        glued = glue(gd)
        bigger = make_space(
            "Q+",
            list(glued.space.points) + ["stray"],
            {**{x: glued.space.min_open[x] for x in glued.space.points}, "stray": ["stray"]},
        )
        legs = {
            obj: SpaceMap(m.dom, bigger, dict(m.table)) for obj, m in glued.legs.items()
        }
        candidate = Cone(bigger, legs)
        rep = check_glued_properties(gd, candidate)
        assert not rep.passed
        assert any(e.name == "d-covering" and not e.ok for e in rep.entries)

    def test_cross_patch_collapse_fails_intersections(self):
        gd = gd_circ()
        glued = glue(gd)
        squash, proj = quotient(glued.space, [("m@1", "m@2")])
        legs = {obj: compose(proj, m) for obj, m in glued.legs.items()}
        candidate = Cone(squash, legs)
        rep = check_glued_properties(gd, candidate)
        assert not rep.passed
        assert any(e.name == "e-intersections" and not e.ok for e in rep.entries)

    def test_collapsed_leg_fails_injectivity(self):
        gd = gd_circ()
        glued = glue(gd)
        squash, proj = quotient(glued.space, [("l@1", "m@1")])
        legs = {obj: compose(proj, m) for obj, m in glued.legs.items()}
        candidate = Cone(squash, legs)
        rep = check_glued_properties(gd, candidate)
        assert not rep.passed
        assert any(e.name == "f-leg-embedding-free" and not e.ok for e in rep.entries)


def _glued_properties_reference(gd, candidate):
    """``check_glued_properties`` with its own anchor and transition loops: the reference.

    It walks every object of the index category, reading one outside the
    nerve as the empty space (``cone_reference.dense_cone``; ``anchor``, ``transition``, ``coord``).
    """
    rep = Report()
    idx = gd.index
    candidate = cone_reference.dense_cone(gd, candidate)
    for i in idx:
        for j in idx:
            if i == j:
                continue
            w = first_difference(
                candidate.leg(pair(i, j)),
                compose(candidate.leg(single(i)), anchor(gd, i, j)),
            )
            rep.add("a-pair-factors", f"({i},{j})", w is None, w)
    for obj in glidx.objects(idx):
        if obj.arity != 3:
            continue
        i = obj.head
        ok = True
        wit = None
        for n in obj.rest:
            w = first_difference(
                candidate.leg(obj),
                compose(candidate.leg(pair(i, n)), coord(gd, i, n, *set(obj.rest) - {n})),
            )
            if w is not None:
                ok = False
                wit = w
        rep.add("b-triple-factors", repr(obj), ok, wit)
    for i in idx:
        for j in idx:
            lhs = compose(candidate.leg(single(i)), anchor(gd, i, j))
            rhs = compose(
                compose(candidate.leg(single(j)), anchor(gd, j, i)),
                transition(gd, i, j),
            )
            w = first_difference(lhs, rhs)
            rep.add("c-overlap-agree", f"({i},{j})", w is None, w)
    covered = set()
    for i in idx:
        covered |= candidate.leg(single(i)).image()
    missing = sorted(candidate.apex.points - covered)
    rep.add("d-covering", "all", not missing, missing[0] if missing else None)
    for i in idx:
        for j in idx:
            img_i = candidate.leg(single(i)).image()
            img_j = candidate.leg(single(j)).image()
            via_ij = compose(candidate.leg(single(i)), anchor(gd, i, j)).image()
            via_ji = compose(candidate.leg(single(j)), anchor(gd, j, i)).image()
            ok = via_ij == via_ji == (img_i & img_j)
            rep.add(
                "e-intersections",
                f"({i},{j})",
                ok,
                None if ok else f"{sorted(via_ij)} vs {sorted(via_ji)} vs {sorted(img_i & img_j)}",
            )
    for i in idx:
        witnesses = analyze_map(candidate.leg(single(i)))
        ok = not {prop for prop, _ in witnesses} & {"injective", "continuous"}
        rep.add("f-leg-embedding-free", i, ok, None if ok else str(witnesses))
    return rep


class TestGluedPropertiesThroughLinks:
    """Rows read off the overlap links and the typed legs; the per-row loops are the reference."""

    def test_same_rows_as_reference_on_seeded_cones(self):
        rng = random.Random(47)
        data = [gd_circ(), cylinder_data("1"), digital_circle_data(12, 3)]
        data += [random_lawful_data(rng) for _ in range(12)]
        failing = set()
        for gd in data:
            glued = glue(gd)
            cones = [glued]
            for _ in range(8 if len(glued.space.points) > 1 else 0):
                cone = _redirected(glued, rng, rng.randint(1, 4))
                cones.append(cone)
                singles = {i: cone.leg(single(i)) for i in gd.index}
                cones.append(complete_cone(gd, cone.apex, singles))
            for apex in (pt(), sierp(), disc2(), arc3(), circle4()):
                table = {q: rng.choice(sorted(apex.points)) for q in glued.space.points}
                h = SpaceMap(glued.space, apex, table)
                cones.append(Cone(apex, {obj: compose(h, leg) for obj, leg in glued.legs.items()}))
            for cone in cones:
                rows = check_glued_properties(gd, cone).entries
                assert rows == on_nerve(gd, _glued_properties_reference(gd, cone).entries)
                failing |= {e.name for e in rows if not e.ok}
        assert failing == {
            "a-pair-factors",
            "b-triple-factors",
            "c-overlap-agree",
            "d-covering",
            "e-intersections",
            "f-leg-embedding-free",
        }

    @pytest.mark.parametrize(
        "obj, wrong",
        [(single("1"), pair("1", "2")), (normalize(("1", "1", "2")), pair("1", "2"))],
        ids=["patch", "triple"],
    )
    def test_leg_with_wrong_domain_raises(self, obj, wrong):
        gd = gd_circ()
        legs = dict(glue(gd).legs)
        legs[obj] = legs[wrong]
        with pytest.raises(CompositionMismatch) as info:
            check_glued_properties(gd, Cone(glue(gd).space, legs))
        assert str(info.value).startswith(f"the leg of {obj} does not start at")

    def test_leg_outside_the_apex_raises(self):
        gd = gd_circ()
        glued = glue(gd)
        with pytest.raises(CompositionMismatch) as info:
            check_glued_properties(gd, Cone(circle4(), dict(glued.legs)))
        assert str(info.value) == "the leg of [1] does not land in the apex 'C4'"

    def test_missing_leg_raises_before_typing(self):
        gd = gd_circ()
        legs = dict(glue(gd).legs)
        del legs[pair("2", "1")]
        with pytest.raises(MissingLeg):
            check_glued_properties(gd, Cone(pt(), legs))


class TestMediate:
    def test_self_cone_gives_identity(self):
        gd = gd_circ()
        glued = glue(gd)
        mu = mediate(gd, glued, glued)
        assert mu == identity_map(glued.space)

    def test_constant_cone(self):
        gd = gd_circ()
        glued = glue(gd)
        target = pt()
        cone = complete_cone(
            gd, target,
            {i: SpaceMap(gd.patch[i], target, {x: "p" for x in gd.patch[i].points})
             for i in gd.index},
        )
        mu = mediate(gd, glued, cone)
        assert set(mu.table.values()) == {"p"}

    def test_parameterization_gives_the_expected_homeomorphism(self):
        gd = gd_circ()
        glued = glue(gd)
        target = circle4()
        cone = complete_cone(
            gd, target,
            {
                "1": SpaceMap(gd.patch["1"], target, {"l": "l", "m": "ma", "r": "r"}),
                "2": SpaceMap(gd.patch["2"], target, {"l": "l", "m": "mb", "r": "r"}),
            },
        )
        mu = mediate(gd, glued, cone)
        assert mu.table == {"l@1": "l", "m@1": "ma", "m@2": "mb", "r@1": "r"}
        assert is_homeomorphism(mu)
        assert find_homeomorphism(glued.space, target) is not None

    def test_patch_leg_domains_are_typed(self):
        # the leg of [1] has patch 1's points but not its topology
        gd = gd_circ()
        glued = glue(gd)
        discrete = make_space("ARC3-discrete", ["l", "m", "r"], {x: [x] for x in "lmr"})
        legs = dict(glued.legs)
        legs[single("1")] = SpaceMap(discrete, glued.space, dict(glued.leg(single("1")).table))
        with pytest.raises(CompositionMismatch) as info:
            mediate(gd, glued, Cone(glued.space, legs))
        assert str(info.value) == "the leg of [1] does not start at 'arcA'"

    def test_glued_cone_legs_are_typed(self):
        # a glued cone whose leg [2] lands outside its apex is refused, not read
        gd = gd_circ()
        glued = glue(gd)
        legs = dict(glued.legs)
        legs[single("2")] = SpaceMap(gd.patch["2"], pt(), {x: "p" for x in gd.patch["2"].points})
        with pytest.raises(CompositionMismatch) as info:
            mediate(gd, Cone(glued.apex, legs), glued)
        assert str(info.value) == f"the leg of [2] does not land in the apex {glued.apex.space_id!r}"

    def test_incompatible_cone_is_ill_defined(self):
        gd = gd_circ()
        glued = glue(gd)
        target = disc2()
        legs = {
            "1": SpaceMap(gd.patch["1"], target, {x: "a" for x in gd.patch["1"].points}),
            "2": SpaceMap(gd.patch["2"], target, {x: "b" for x in gd.patch["2"].points}),
        }
        cone = complete_cone(gd, target, legs)
        with pytest.raises(IllDefined):
            mediate(gd, glued, cone)

    @staticmethod
    def _with_leg_table(cone, i, edit):
        """A copy of the cone whose leg [i] has its table passed through ``edit``."""
        legs = dict(cone.legs)
        leg = legs[single(i)]
        table = dict(leg.table)
        edit(table)
        legs[single(i)] = SpaceMap(leg.dom, leg.cod, table)
        return Cone(cone.apex, legs)

    def test_patch_leg_with_a_gap_names_the_point(self):
        # the gap is refused where the leg is built, before any cone holds it
        glued = glue(gd_circ())
        with pytest.raises(UnknownPoint) as info:
            self._with_leg_table(glued, "1", lambda t: t.pop("m"))
        assert str(info.value) == "'m' of 'arcA' has no image"

    def test_patch_leg_with_a_stray_value_is_ill_defined(self):
        gd = gd_circ()
        glued = glue(gd)
        with pytest.raises(UnknownPoint) as info:
            self._with_leg_table(glued, "1", lambda t: t.update(l="zzz"))
        assert str(info.value) == f"'zzz' is not a point of {glued.space.space_id!r}"
        # l@1 and l@2 are one glued point, which a leg sending l elsewhere sends two ways
        cone = self._with_leg_table(glued, "1", lambda t: t.update(l="m@1"))
        with pytest.raises(IllDefined) as info:
            mediate(gd, glued, cone)
        assert str(info.value) == "cone legs disagree on identified points: ('l@1', ['l@1', 'm@1'])"

    def test_glued_leg_with_a_stray_value_names_it(self):
        glued = glue(gd_circ())
        with pytest.raises(UnknownPoint) as info:
            self._with_leg_table(glued, "1", lambda t: t.update(m="zzz"))
        assert str(info.value) == f"'zzz' is not a point of {glued.space.space_id!r}"


def _mediate_by_tags(gd, glued, cone):
    """``mediate`` as it was: each glued point's class, with the patch parsed from each tag."""
    table = {}
    for qp in sorted(glued.space.points):
        members = glued.classes.get(qp, frozenset())
        if not members:
            raise NotCovering(f"glued point {qp!r} has no provenance")
        values = set()
        for tagged in sorted(members):
            x, _, i = tagged.rpartition("@")
            values.add(cone.leg(single(i))(x))
        if len(values) != 1:
            raise IllDefined((qp, sorted(values)))
        table[qp] = values.pop()
    mu = SpaceMap(glued.space, cone.apex, table)
    witnesses = analyze_map(mu)
    if any(prop == "continuous" for prop, _ in witnesses):
        raise IllDefined((glued.space.space_id, "mediating map not continuous", witnesses))
    return mu


def _outcome(fn, *args):
    """The table of a mediating map, or the exception class and its witness."""
    try:
        return fn(*args).table
    except (IllDefined, NotCovering) as exc:
        return type(exc), getattr(exc, "witness", str(exc))


class TestMediateThroughPatchLegs:
    """``mediate`` routes through the glued space's patch legs; the tag parser is the reference."""

    def test_same_outcome_as_class_and_tag_reference(self):
        rng = random.Random(41)
        data = [gd_circ(), cylinder_data("1"), digital_circle_data(12, 3)]
        data += [random_lawful_data(rng) for _ in range(12)]
        kinds = set()

        def random_map(dom, apex):
            return SpaceMap(dom, apex, {x: rng.choice(sorted(apex.points)) for x in dom.points})

        for gd in data:
            glued = glue(gd)
            for apex in (pt(), sierp(), disc2(), arc3()):
                # compatible families h . leg_i, with h continuous or not, and
                # independent random families, mostly incompatible
                families = []
                for _ in range(3):
                    h = random_map(glued.space, apex)
                    families.append({i: compose(h, glued.leg(single(i))) for i in gd.index})
                for _ in range(6):
                    families.append({i: random_map(gd.patch[i], apex) for i in gd.index})
                for fam in families:
                    cone = Cone(apex, {single(i): leg for i, leg in fam.items()})
                    expected = _outcome(_mediate_by_tags, gd, glued, cone)
                    assert _outcome(mediate, gd, glued, cone) == expected
                    if isinstance(expected, Mapping):
                        kinds.add("table")
                    elif "mediating map not continuous" in expected[1]:
                        kinds.add("not continuous")
                    else:
                        kinds.add("ill-defined")
        assert kinds == {"table", "not continuous", "ill-defined"}


class TestVerifyUniversal:
    def test_trivial_data(self):
        gd = trivial_data(arc3())
        glued = glue(gd)
        rep = verify_universal(gd, glued, apexes=[pt(), sierp()])
        assert rep.passed, str(rep)

    def test_circle_full_default_apexes(self):
        gd = gd_circ()
        glued = glue(gd)
        rep = verify_universal(gd, glued)
        assert rep.passed, str(rep)
        assert rep.cones_checked > 0

    def test_missing_identification_fails(self):
        gd = gd_circ()
        total, injections = disjoint_union(
            [gd.patch[i] for i in gd.index], list(gd.index)
        )
        q, proj = quotient(total, [("l@1", "l@2")])  # r is never identified
        legs = {i: compose(proj, eps) for i, eps in zip(gd.index, injections)}
        candidate = complete_cone(gd, q, legs)
        rep = verify_universal(gd, candidate)
        assert not rep.passed

    def test_discontinuous_legs_are_not_a_cone(self):
        # the glued circle's points with the discrete topology: the legs commute
        # and every cone has a unique mediator, but the legs are not continuous
        gd = gd_circ()
        glued = glue(gd)
        points = sorted(glued.space.points)
        discrete = make_space("CIRC-discrete", points, {x: [x] for x in points})
        legs = {i: SpaceMap(gd.patch[i], discrete, glued.leg(single(i)).table) for i in gd.index}
        candidate = complete_cone(gd, discrete, legs)
        assert check_cone(gd, candidate, "figure4")
        rep = verify_universal(gd, candidate)
        assert rep.cones_checked == 29
        assert [e.name for e in rep.failures()] == ["candidate-is-cone"]

    def test_candidate_row_names_its_witness(self):
        gd = gd_circ()
        glued = glue(gd)
        points = sorted(glued.space.points)
        discrete = make_space("CIRC-discrete", points, {x: [x] for x in points})
        legs = {i: SpaceMap(gd.patch[i], discrete, glued.leg(single(i)).table) for i in gd.index}
        total, injections = disjoint_union([gd.patch[i] for i in gd.index], list(gd.index))
        q, proj = quotient(total, [("l@1", "l@2")])  # r is never identified
        finer = {i: compose(proj, eps) for i, eps in zip(gd.index, injections)}
        rows = [
            verify_universal(gd, complete_cone(gd, apex, legs), [pt()]).entries[0]
            for apex, legs in ((discrete, legs), (q, finer))
        ]
        assert [(e.name, e.ok, e.witness) for e in rows] == [
            ("candidate-is-cone", False, "leg [1] is not continuous at ['m']"),
            ("candidate-is-cone", False, "triangle [2] -> [1,2] fails at 'b'"),
        ]

    def test_random_lawful_instances(self):
        rng = random.Random(23)
        for _ in range(5):
            gd = random_lawful_data(rng, max_patches=2, max_points=3)
            glued = glue(gd)
            rep = verify_universal(gd, glued, apexes=[pt(), sierp()])
            assert rep.passed, str(rep)


def _colimit_verdict(gd, candidate):
    """Whether the candidate is a continuous cone whose mediating map is a homeomorphism."""
    if not check_cone(gd, candidate, "full"):
        return False
    if any(fintop.discontinuities(leg) for leg in candidate.legs.values()):
        return False
    return is_homeomorphism(mediate(gd, glue(gd), candidate))


def _seeded_candidates(rng, gd):
    """The glued cone, and cones over it with two points merged, a point added, or a
    coarser or a finer topology (either of which may come out equal)."""
    glued = glue(gd)
    q = glued.space
    points = sorted(q.points)
    opens = [q.min_open[x] for x in points]

    def over(space, f):
        return Cone(space, {obj: compose(f, leg) for obj, leg in glued.legs.items()})

    def renamed(space):
        return over(space, SpaceMap(q, space, {x: x for x in points}))

    out = [glued]
    if len(points) > 1:
        merged, proj = quotient(q, [tuple(rng.sample(points, 2))])
        out.append(over(merged, proj))
    z_open = rng.choice([{"z"}, q.points | {"z"}])
    plus = make_space("Q+z", points + ["z"], {**q.min_open, "z": z_open})
    out.append(over(plus, SpaceMap(q, plus, {x: x for x in points})))
    some = rng.sample(opens, rng.randint(0, len(opens)))
    out.append(renamed(from_opens("coarser", points, some)))
    extra = [rng.sample(points, rng.randint(1, len(points))) for _ in range(rng.randint(1, 2))]
    out.append(renamed(from_opens("finer", points, opens + extra)))
    return out


class TestTwoPointApexes:
    """SIERP and I2 decide the universal property for a continuous cone."""

    @staticmethod
    def _point_from_i2():
        gd = trivial_data(indisc2())
        to_pt = SpaceMap(indisc2(), pt(), {"a": "p", "b": "p"})
        return gd, complete_cone(gd, pt(), {"1": to_pt})

    def test_i2_rejects_the_merge_no_t0_apex_sees(self):
        gd, candidate = self._point_from_i2()
        rep = verify_universal(gd, candidate, [pt(), sierp(), indisc2()])
        assert rep.cones_checked == 7
        assert {(e.name, e.subject) for e in rep.failures()} == {("unique-mediator", "I2")}
        rep = verify_universal(gd, candidate, [pt(), sierp(), disc2(), arc3(), candidate.apex])
        assert rep.passed and rep.cones_checked == 9

    def test_each_apex_is_needed(self):
        # SIERP alone cannot see the non-T0 merge; I2 alone cannot see a coarser topology
        gd, candidate = self._point_from_i2()
        assert verify_universal(gd, candidate, [sierp()]).passed
        gd = gd_circ()
        glued = glue(gd)
        points = sorted(glued.space.points)
        indiscrete = make_space("CIRC-indiscrete", points, {x: points for x in points})
        legs = {i: SpaceMap(gd.patch[i], indiscrete, glued.leg(single(i)).table) for i in gd.index}
        candidate = complete_cone(gd, indiscrete, legs)
        assert verify_universal(gd, candidate, [indisc2()]).passed
        assert not verify_universal(gd, candidate, [sierp()]).passed

    def test_verdict_matches_homeomorphic_mediator_on_seeded_candidates(self):
        rng = random.Random(53)
        verdicts = []
        for _ in range(30):
            gd = random_lawful_data(rng, max_patches=2, max_points=3)
            for candidate in _seeded_candidates(rng, gd):
                expected = _colimit_verdict(gd, candidate)
                assert verify_universal(gd, candidate, [pt(), sierp(), indisc2()]).passed == expected
                verdicts.append(expected)
        assert verdicts.count(True) >= 30 and verdicts.count(False) >= 60


def _product_cones(gd, apex):
    """Every family in the Cartesian product of patch maps, kept when compatible: the reference."""
    per_patch = [enumerate_continuous_maps(gd.patch[i], apex) for i in gd.index]
    out = []
    for combo in itertools.product(*per_patch):
        legs = dict(zip(gd.index, combo))
        if all(
            compose(legs[i], anchor(gd, i, j))
            == compose(compose(legs[j], anchor(gd, j, i)), transition(gd, i, j))
            for i in gd.index
            for j in gd.index
        ):
            out.append(legs)
    return out


def _scan_report(gd, glued, apexes):
    """``verify_universal`` with the candidates x families x legs scan: the reference."""
    rep = UniversalReport()
    failure = cone_failure(gd, glued, "figure4")
    broken = [
        (obj, points)
        for obj, leg in glued.legs.items()
        if (points := [x for prop, x in analyze_map(leg) if prop == "continuous"])
    ]
    witness = None
    if failure is not None:
        witness = "triangle {} -> {} fails at {!r}".format(*failure)
    elif broken:
        witness = f"leg {broken[0][0]} is not continuous at {broken[0][1]}"
    is_cone = witness is None
    rep.add("candidate-is-cone", glued.apex.space_id, is_cone, witness)
    for apex in apexes:
        candidates = enumerate_continuous_maps(glued.apex, apex)
        families = _product_cones(gd, apex)
        rep.cones_checked += len(families)
        for fam in families:
            mediators = [
                h
                for h in candidates
                if all(compose(h, glued.leg(single(i))) == fam[i] for i in gd.index)
            ]
            if len(mediators) != 1:
                rep.add(
                    "unique-mediator",
                    apex.space_id,
                    False,
                    f"{len(mediators)} mediators for legs "
                    + str({i: sorted(fam[i].table.items()) for i in gd.index}),
                )
                continue
            if not is_cone:
                continue
            try:
                mu = mediate(gd, glued, complete_cone(gd, apex, fam))
            except NotCovering as exc:  # a candidate point the legs miss
                rep.add("mediate-agrees", apex.space_id, False, str(exc))
                continue
            if mu != mediators[0]:
                rep.add("mediate-agrees", apex.space_id, False, "mediate differs from oracle")
        rep.add("apex-done", apex.space_id, True)
    return rep


class TestConeSearch:
    def test_same_families_in_same_order_as_product(self):
        rng = random.Random(31)
        data = [gd_circ(), cylinder_data("1")] + [random_lawful_data(rng) for _ in range(20)]
        total = 0
        for gd in data:
            for apex in (pt(), sierp(), disc2(), arc3()):
                families = enumerate_cones(gd, apex)
                expected = _product_cones(gd, apex)
                assert [{i: f.table for i, f in fam.items()} for fam in families] == [
                    {i: f.table for i, f in fam.items()} for fam in expected
                ]
                total += len(families)
        assert total > 900

    def test_budget_counts_point_assignments(self):
        gd = gd_circ()
        # one node per link class assigned, the classes being {l@1, l@2}, {m@1},
        # {r@1, r@2}, {m@2}: l takes 2 nodes, m@1 then 3 (b under l = b, t or b
        # under t), r 5 (t or b under m = b, t under t), and m@2 7 (b unless l
        # and r are both t): 17 nodes for 7 families
        assert len(enumerate_cones(gd, sierp(), budget=17)) == 7
        with pytest.raises(SearchBudgetExceeded) as info:
            enumerate_cones(gd, sierp(), budget=16)
        assert (info.value.search, info.value.used, info.value.limit) == (
            "cone search into 'SIERP'", 17, 16
        )

    def test_linked_points_share_one_node(self):
        # the cylinder into SIERP: 1031 nodes when every patch point was assigned
        gd = cylinder_data("1")
        assert len(enumerate_cones(gd, sierp(), budget=425)) == 124
        with pytest.raises(SearchBudgetExceeded) as info:
            enumerate_cones(gd, sierp(), budget=424)
        assert info.value.used == 425

    def test_budget_bounds_the_search_into_a_large_apex(self):
        # the glued cylinder as its own apex has 382 268 families, so the class
        # search needs more nodes than that; every class assignment counts, so
        # the search stops at the limit
        gd = cylinder_data("1")
        apex = glue(gd).space
        with pytest.raises(SearchBudgetExceeded) as info:
            enumerate_cones(gd, apex, budget=20_000)
        assert (info.value.search, info.value.used) == (f"cone search into {apex.space_id!r}", 20_001)

    def test_streaming_keeps_the_budget_of_each_search(self):
        # into the glued cylinder, the map search out of a one-point candidate
        # takes 12 nodes, so the streamed cone search is the one that stops,
        # with the counts enumerate_cones stops at
        gd = cylinder_data("1")
        apex = glue(gd).space
        to_pt = {
            i: SpaceMap(gd.patch[i], pt(), dict.fromkeys(gd.patch[i].points, "p")) for i in gd.index
        }
        with pytest.raises(SearchBudgetExceeded) as streamed:
            verify_universal(gd, complete_cone(gd, pt(), to_pt), [apex], budget=20_000)
        with pytest.raises(SearchBudgetExceeded) as listed:
            enumerate_cones(gd, apex, budget=20_000)
        counts = (f"cone search into {apex.space_id!r}", 20_001, 20_000)
        assert (streamed.value.search, streamed.value.used, streamed.value.limit) == counts
        assert (listed.value.search, listed.value.used, listed.value.limit) == counts
        # out of the glued cylinder itself the map search (382 268 maps) runs
        # first and stops first
        glued = glue(gd)
        with pytest.raises(SearchBudgetExceeded) as info:
            verify_universal(gd, glued, [glued.space], budget=20_000)
        assert (info.value.search, info.value.used, info.value.limit) == (
            f"map search {apex.space_id!r} -> {apex.space_id!r}", 20_001, 20_000
        )


class TestGluedDigitalCircle:
    @pytest.mark.parametrize("m, k", [(12, 3), (24, 4), (48, 6), (96, 8)])
    def test_homeomorphic_to_its_base_within_default_budget(self, m, k):
        glued = glue(digital_circle_data(m, k))
        w = find_homeomorphism(glued.space, digital_circle(m))
        assert w is not None and is_homeomorphism(w)


class TestMediatorHashJoin:
    """The report entries of the hash join against the scan it replaced."""

    @staticmethod
    def _quotient_candidate(gd, pairs):
        total, injections = disjoint_union([gd.patch[i] for i in gd.index], list(gd.index))
        q, proj = quotient(total, pairs)
        legs = {i: compose(proj, eps) for i, eps in zip(gd.index, injections)}
        return complete_cone(gd, q, legs)

    def test_finer_quotient_is_not_a_cone(self):
        gd = gd_circ()
        candidate = self._quotient_candidate(gd, [("l@1", "l@2")])  # r is never identified
        rep = verify_universal(gd, candidate)
        assert rep == _scan_report(gd, candidate, default_apexes() + [candidate.apex])
        # every family factors uniquely through the finer quotient: only the
        # cone check rejects it
        assert [e.name for e in rep.failures()] == ["candidate-is-cone"]

    def test_coarser_quotient_without_mediators(self):
        gd = gd_circ()
        candidate = self._quotient_candidate(gd, list(glue(gd).relation) + [("l@1", "r@1")])
        apexes = [sierp(), disc2(), arc3()]
        rep = verify_universal(gd, candidate, apexes)
        assert rep == _scan_report(gd, candidate, apexes)
        unique = [e.witness for e in rep.failures() if e.name == "unique-mediator"]
        # families that separate l from r: 2 into SIERP, none into DISC2, 6 into ARC3
        assert len(unique) == 8 and all(w.startswith("0 mediators") for w in unique)

    def test_extra_point_gives_two_mediators(self):
        gd = gd_circ()
        glued = glue(gd)
        space = make_space(
            "CIRC+z", glued.space.points | {"z"}, {**glued.space.min_open, "z": {"z"}}
        )
        incl = SpaceMap(glued.space, space, {x: x for x in glued.space.points})
        legs = {i: compose(incl, glued.leg(single(i))) for i in gd.index}
        candidate = complete_cone(gd, space, legs)
        rep = verify_universal(gd, candidate, apexes=[disc2()])
        assert rep == _scan_report(gd, candidate, [disc2()])
        assert rep.cones_checked == 2
        assert [e.witness[:11] for e in rep.failures()] == ["2 mediators"] * 2

    def test_streaming_matches_the_scan_on_seeded_candidates(self):
        # the glued cone, a finer and a coarser quotient, and the glued space
        # plus one or two isolated points, against every apex kind the oracle
        # meets; the finer quotient plus a point is no cone, yet has a point
        # no leg reaches; the cylinder skips ARC3 and I2, where the scan pairs
        # 421 and 4096 candidates with as many families
        rng = random.Random(71)
        every = [pt(), sierp(), disc2(), arc3(), indisc2()]
        runs = [(random_lawful_data(random.Random(seed)), every) for seed in range(20)]
        runs += [(gd_circ(), every), (cylinder_data("1"), every[:3])]
        names, total = set(), 0
        for gd, apexes in runs:
            glued = glue(gd)
            linked = [p for p in glued.relation if p[0] != p[1]]
            finer = self._quotient_candidate(gd, rng.sample(linked, len(linked) // 2))
            candidates = [glued, finer]
            union = sorted(gd._union[0].points)
            if len(union) > 1:
                merged = list(glued.relation) + [tuple(rng.sample(union, 2))]
                candidates.append(self._quotient_candidate(gd, merged))
            candidates.append(self._plus_isolated_points(gd, glued, ["z"]))
            candidates.append(self._plus_isolated_points(gd, glued, ["y", "z"]))
            candidates.append(self._plus_isolated_points(gd, finer, ["z"]))
            for candidate in candidates:
                rep = verify_universal(gd, candidate, apexes)
                assert rep == _scan_report(gd, candidate, apexes)
                names |= {e.name for e in rep.failures()}
                total += rep.cones_checked
        assert names == {"candidate-is-cone", "unique-mediator", "mediate-agrees"}
        assert total > 2500

    @staticmethod
    def _plus_isolated_points(gd, cone, extra):
        assert cone.apex.points.isdisjoint(extra)
        min_open = {**cone.apex.min_open, **{z: {z} for z in extra}}
        space = make_space("Q+" + "".join(extra), cone.apex.points | set(extra), min_open)
        incl = SpaceMap(cone.apex, space, {x: x for x in cone.apex.points})
        return complete_cone(gd, space, {i: compose(incl, cone.leg(single(i))) for i in gd.index})

    def test_families_stream_through_the_oracle(self):
        # held as a list of SpaceMap families, the cylinder's 4221 cones into
        # these apexes peaked at 5.8 MB
        gd = cylinder_data("1")
        glued = glue(gd)
        tracemalloc.start()
        try:
            rep = verify_universal(gd, glued, [pt(), sierp(), indisc2()])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rep.passed and rep.cones_checked == 4221
        assert peak < 3_000_000

    def test_extra_point_fails_mediate_at_a_point_apex(self):
        # into PT every family has one mediator, but mediate finds no provenance for z
        gd = gd_circ()
        glued = glue(gd)
        space = make_space(
            "CIRC+z", glued.space.points | {"z"}, {**glued.space.min_open, "z": {"z"}}
        )
        incl = SpaceMap(glued.space, space, {x: x for x in glued.space.points})
        legs = {i: compose(incl, glued.leg(single(i))) for i in gd.index}
        candidate = complete_cone(gd, space, legs)
        rep = verify_universal(gd, candidate, apexes=[pt()])
        assert [(e.name, e.witness) for e in rep.failures()] == [
            ("mediate-agrees", "glued point 'z' has no provenance")
        ]


class TestCheckOtop:
    def test_circle_open_data(self):
        gd = gd_circ()
        glued = glue(gd)
        rep = check_otop(gd, glued)
        assert rep.applicable
        assert rep.passed, str(rep)

    def test_trivial_patch(self):
        gd = trivial_data(arc3())
        glued = glue(gd)
        rep = check_otop(gd, glued)
        assert rep.applicable and rep.passed

    def test_leg_outside_the_apex_raises_like_check_glued(self):
        gd = gd_circ()
        cone = Cone(circle4(), dict(glue(gd).legs))
        messages = []
        for check in (check_otop, check_glued_properties):
            with pytest.raises(CompositionMismatch) as info:
                check(gd, cone)
            messages.append(str(info.value))
        assert messages == ["the leg of [1] does not land in the apex 'C4'"] * 2

    def test_patch_leg_with_wrong_domain_raises(self):
        gd = gd_circ()
        legs = dict(glue(gd).legs)
        legs[single("1")] = legs[pair("1", "2")]
        with pytest.raises(CompositionMismatch) as info:
            check_otop(gd, Cone(glue(gd).space, legs))
        assert str(info.value).startswith("the leg of [1] does not start at")

    def test_anchor_on_closed_point_not_applicable(self):
        s = sierp()
        p1, p2 = pt("o12"), pt("o21")
        gd = derive_triple_maps(
            make_gluing_data(
                ["1", "2"],
                patch={"1": s, "2": pt("P2")},
                overlap={("1", "2"): p1, ("2", "1"): p2},
                anchor={
                    ("1", "2"): SpaceMap(p1, s, {"p": "b"}),
                    ("2", "1"): SpaceMap(p2, pt("P2"), {"p": "p"}),
                },
                transition={
                    ("1", "2"): SpaceMap(p1, p2, {"p": "p"}),
                    ("2", "1"): SpaceMap(p2, p1, {"p": "p"}),
                },
            )
        )
        glued = glue(gd)
        rep = check_otop(gd, glued)
        assert not rep.applicable and not rep.passed
        # and the second patch leg image is indeed not open
        img = glued.leg(single("2")).image()
        assert not is_open(glued.space, img)
