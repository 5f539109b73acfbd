import dataclasses
import random

import pytest

from conftest import digital_circle
from topoglue.cover import (
    Covering,
    check_covering,
    covering_of_glued,
    functor_of_covering,
    random_covering,
    random_space,
    site_axiom_basechange,
    site_axiom_compose,
    site_axiom_iso,
)
from topoglue.errors import UnknownPoint, ValidationFailed
from topoglue.fintop import (
    SpaceMap,
    compose,
    enumerate_continuous_maps,
    find_homeomorphism,
    identity_map,
    is_homeomorphism,
    subspace,
)
from topoglue.fixtures import arc3, circle4, gd_circ, pt, sierp, sq9, trivial_data
from topoglue.glue import glue


def two_arc_covering(kind="gluing"):
    base = circle4()
    u1, i1 = subspace(base, {"l", "ma", "r"})
    u2, i2 = subspace(base, {"l", "mb", "r"})
    return Covering(base, [(u1, i1), (u2, i2)], kind)


def two_strip_covering():
    base = sq9()
    s1, i1 = subspace(base, {f"{c}|{y}" for c in ("l", "m") for y in ("l", "m", "r")})
    s2, i2 = subspace(base, {f"{c}|{y}" for c in ("m", "r") for y in ("l", "m", "r")})
    return Covering(base, [(s1, i1), (s2, i2)], "gluing")


class TestCheckCovering:
    def test_identity_both_kinds(self):
        for kind in ("gluing", "open"):
            c = Covering(sierp(), [(sierp(), identity_map(sierp()))], kind)
            assert check_covering(c).passed

    def test_sierpinski_two_legs(self):
        top, incl = subspace(sierp(), {"t"})
        c = Covering(sierp(), [(top, incl), (sierp(), identity_map(sierp()))], "gluing")
        assert check_covering(c).passed
        # both legs happen to be open maps too
        c_open = Covering(sierp(), c.family, "open")
        assert check_covering(c_open).passed

    def test_missing_point_fails(self):
        top, incl = subspace(sierp(), {"t"})
        c = Covering(sierp(), [(top, incl)], "gluing")
        rep = check_covering(c)
        assert not rep.passed
        assert any(e.name == "coverage" and e.witness == "b" for e in rep.entries)

    def test_leg_value_outside_the_base_raises_unknown_point(self):
        # the stray value is refused where the leg is built, so no covering of either kind holds it
        with pytest.raises(UnknownPoint, match="^'zzz' is not a point of 'SIERP'$"):
            SpaceMap(sierp(), sierp(), {"t": "zzz", "b": "b"})

    def test_open_kind_rejects_non_open_leg(self):
        bottom, incl = subspace(sierp(), {"b"})
        full = Covering(sierp(), [(bottom, incl), (sierp(), identity_map(sierp()))], "open")
        rep = check_covering(full)
        assert not rep.passed
        assert any(e.name == "leg-open" and not e.ok for e in rep.entries)

    def test_unknown_kind_is_one_failing_row(self):
        c = Covering(sierp(), [(sierp(), identity_map(sierp()))], "weird")
        assert [str(e) for e in check_covering(c).entries] == ["FAIL kind weird (witness: unknown kind)"]

    def test_leg_off_its_patch_fails_typing_and_covers_nothing(self):
        # leg 0 starts at the subspace {l}, not at its patch PT: its one row is
        # leg-typing, and its image is not counted, so l is left uncovered
        left, incl_l = subspace(arc3(), {"l"})
        right, incl_r = subspace(arc3(), {"r"})
        rep = check_covering(Covering(arc3(), [(pt(), incl_l), (right, incl_r)], "gluing"))
        rows = [str(e) for e in rep.entries]
        assert rows[0] == "FAIL leg-typing leg0(PT)"
        assert not any("leg0" in row for row in rows[1:])
        assert rows[-1] == "FAIL coverage base (witness: l)"


class TestFunctorOfCovering:
    def test_single_identity_leg(self):
        c = Covering(arc3(), [(arc3(), identity_map(arc3()))], "gluing")
        res = functor_of_covering(c)
        assert res.report.passed, str(res.report)
        assert find_homeomorphism(res.glued.space, arc3()) is not None

    def test_two_arcs_reconstruct_pseudocircle(self):
        res = functor_of_covering(two_arc_covering())
        assert res.report.passed, str(res.report)
        assert is_homeomorphism(res.iso)
        assert find_homeomorphism(res.glued.space, circle4()) is not None

    def test_two_strips_reconstruct_square(self):
        res = functor_of_covering(two_strip_covering())
        assert res.report.passed, str(res.report)
        assert is_homeomorphism(res.iso)
        assert find_homeomorphism(res.glued.space, sq9()) is not None

    def test_eleven_patches_keep_their_legs(self):
        # the labels "0".."10" sort as strings, so "10" comes before "2"
        base = digital_circle(22)
        arcs = [[f"o{s}", f"c{s}", f"o{s + 1}", f"c{s + 1}", f"o{(s + 2) % 22}"] for s in range(0, 22, 2)]
        family = [subspace(base, arc) for arc in arcs]
        res = functor_of_covering(Covering(base, family, "open"))
        assert res.report.passed, str(res.report)
        assert is_homeomorphism(res.iso)

    def test_sierpinski_by_its_two_points_does_not_glue_back(self):
        # a gluing covering whose base is not the glued-up object: the glued space is discrete
        top, top_leg = subspace(sierp(), {"t"})
        bottom, bottom_leg = subspace(sierp(), {"b"})
        c = Covering(sierp(), [(top, top_leg), (bottom, bottom_leg)], "gluing")
        assert check_covering(c).passed
        res = functor_of_covering(c)
        assert [e.name for e in res.report.failures()] == ["mediate-iso"]
        assert not is_homeomorphism(res.iso)

    def test_intersection_images_exact(self):
        res = functor_of_covering(two_arc_covering())
        gd = res.data
        legs = {i: leg for i, (_, leg) in zip(gd.index, two_arc_covering().family)}
        for i in gd.index:
            for j in gd.index:
                via = compose(legs[i], gd.anchor[(i, j)]).image()
                assert via == legs[i].image() & legs[j].image()


class TestCoveringOfGlued:
    def test_trivial(self):
        gd = trivial_data(arc3())
        glued = glue(gd)
        c = covering_of_glued(gd, glued)
        assert check_covering(c).passed
        assert c.kind == "open"
        assert is_homeomorphism(c.family[0][1])

    def test_circle_two_arcs(self):
        gd = gd_circ()
        glued = glue(gd)
        c = covering_of_glued(gd, glued)
        assert len(c.family) == 2
        assert check_covering(c).passed
        assert c.kind == "open"  # anchors land on open endpoints

    def test_kind_downgrades_when_maps_not_open(self):
        s = sierp()
        p1, p2 = pt("k12"), pt("k21")
        from topoglue.gdata import derive_triple_maps, make_gluing_data

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
        c = covering_of_glued(gd, glued)
        assert c.kind == "gluing"
        assert check_covering(c).passed


class TestSiteAxioms:
    def test_iso_identity(self):
        assert site_axiom_iso(identity_map(circle4()))

    def test_iso_circle_witness(self):
        gd = gd_circ()
        glued = glue(gd)
        w = find_homeomorphism(glued.space, circle4())
        assert w is not None
        assert site_axiom_iso(w)

    def test_iso_rejects_collapse(self):
        f = SpaceMap(arc3(), pt(), {x: "p" for x in arc3().points})
        assert not site_axiom_iso(f)

    def test_compose_with_identity_subcoverings(self):
        c = two_arc_covering()
        subs = [
            Covering(patch, [(patch, identity_map(patch))], c.kind)
            for patch, _ in c.family
        ]
        out, ok = site_axiom_compose(c, subs)
        assert ok
        assert [leg.table for _, leg in out.family] == [
            leg.table for _, leg in c.family
        ]

    def test_compose_with_refining_subcoverings(self):
        c = two_arc_covering()
        subs = []
        for patch, _ in c.family:
            ends, incl_e = subspace(patch, {"l", "r"})
            subs.append(
                Covering(patch, [(ends, incl_e), (patch, identity_map(patch))], c.kind)
            )
        out, ok = site_axiom_compose(c, subs)
        assert ok
        assert len(out.family) == 4

    def test_compose_undercovered_patch_fails(self):
        c = two_arc_covering()
        subs = []
        for pos, (patch, _) in enumerate(c.family):
            if pos == 0:
                # misses the interior point of the first arc, which no other
                # composite leg supplies
                ends, incl_e = subspace(patch, {"l", "r"})
                subs.append(Covering(patch, [(ends, incl_e)], c.kind))
            else:
                ends2, incl2 = subspace(patch, {"l", "r"})
                subs.append(Covering(patch, [(ends2, incl2)], c.kind))
        out, ok = site_axiom_compose(c, subs)
        assert not ok

    def test_compose_needs_one_subcovering_per_patch(self):
        c = two_arc_covering()
        patch = c.family[0][0]
        with pytest.raises(ValidationFailed) as info:
            site_axiom_compose(c, [Covering(patch, [(patch, identity_map(patch))], c.kind)])
        assert info.value.message == "one subcovering per patch required"

    def test_compose_with_a_subcovering_of_another_space_is_empty_and_fails(self):
        c = two_arc_covering()
        subs = [Covering(sierp(), [(sierp(), identity_map(sierp()))], c.kind) for _ in c.family]
        out, ok = site_axiom_compose(c, subs)
        assert (out, ok) == (Covering(c.base, [], c.kind), False)

    def test_basechange_identity(self):
        c = two_arc_covering()
        out, ok = site_axiom_basechange(c, identity_map(circle4()))
        assert ok
        assert len(out.family) == 2
        assert out.kind == c.kind

    def test_basechange_point_into_arc_interior(self):
        c = two_arc_covering()
        phi = SpaceMap(pt(), circle4(), {"p": "ma"})
        out, ok = site_axiom_basechange(c, phi)
        assert ok
        sizes = sorted(len(sp.points) for sp, _ in out.family)
        assert sizes == [0, 1]  # interior of one arc misses the other

    def test_basechange_map_meeting_both_arcs(self):
        c = two_arc_covering()
        from topoglue.fixtures import disc2

        phi = SpaceMap(disc2(), circle4(), {"a": "ma", "b": "mb"})
        out, ok = site_axiom_basechange(c, phi)
        assert ok
        sizes = sorted(len(sp.points) for sp, _ in out.family)
        assert sizes == [1, 1]

    def test_basechange_needs_a_map_into_the_base(self):
        with pytest.raises(ValidationFailed) as info:
            site_axiom_basechange(two_arc_covering(), SpaceMap(pt(), sierp(), {"p": "t"}))
        assert info.value.message == "map must land in the covering's base"


class TestCoveringOfGluedRandom:
    def test_random_data_yields_valid_coverings(self):
        from conftest import random_lawful_data

        rng = random.Random(19)
        for _ in range(10):
            gd = random_lawful_data(rng)
            glued = glue(gd)
            c = covering_of_glued(gd, glued)
            assert check_covering(c).passed
            # round trip the other way: the covering's data glues back to
            # something homeomorphic to the glued space
            res = functor_of_covering(c)
            assert res.report.passed, str(res.report)


class TestRandomizedSite:
    def test_axioms_hold_on_random_instances(self):
        rng = random.Random(42)
        rounds = 0
        for n in range(30):
            for kind in ("gluing", "open"):
                base = random_space(rng, max_points=6, space_id=f"b{n}")
                c = random_covering(rng, base, kind)
                assert check_covering(c).passed, f"{kind} covering invalid"
                rounds += 1
                assert site_axiom_iso(identity_map(base))
                subs = [random_covering(rng, patch, kind) for patch, _ in c.family]
                _, ok = site_axiom_compose(c, subs)
                assert ok
                v = random_space(rng, max_points=3, space_id=f"v{n}")
                maps = enumerate_continuous_maps(v, base)
                if maps:
                    phi = rng.choice(maps)
                    pulled, ok = site_axiom_basechange(c, phi)
                    assert ok
                    assert pulled.kind == kind
        assert rounds == 60


class TestFrozenCovering:
    def test_family_members_are_tuple_copies(self):
        sp, inc = two_arc_covering().family[0]
        member = [sp, inc]
        c = Covering(circle4(), [member], "open")
        member[1] = identity_map(circle4())
        assert c.family == ((sp, inc),) and isinstance(c.family[0], tuple)
        assert hash(c) == hash(Covering(circle4(), [(sp, inc)], "open"))

    def test_family_is_a_tuple_copy_and_fields_are_frozen(self):
        family = list(two_arc_covering().family)
        c = Covering(circle4(), family, "open")
        family.clear()
        assert isinstance(c.family, tuple) and len(c.family) == 2
        assert hash(c) == hash(Covering(c.base, list(c.family), c.kind))
        result = functor_of_covering(c)
        for value in (c, result):
            for f in dataclasses.fields(value):
                with pytest.raises(dataclasses.FrozenInstanceError):
                    setattr(value, f.name, getattr(value, f.name))
