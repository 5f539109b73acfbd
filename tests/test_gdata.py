import dataclasses
import itertools
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import law_reference
from conftest import absent_pairs, digital_circle_data, mutate_transition, mutate_triple, random_lawful_data
from paths import coord, find_path, realize
from test_glue import self_weld_arc
from topoglue import gdata, glidx
from topoglue.errors import (
    CompositionMismatch,
    NotDetermined,
    TopoglueError,
    UnresolvedReference,
    ValidationFailed,
)
from topoglue.fintop import SpaceMap, compose, enumerate_continuous_maps, identity_map, make_space
from topoglue.fixtures import (
    arc3,
    boundary_data,
    circle4,
    cylinder_data,
    disc2,
    gd_circ,
    indisc2,
    pt,
    sequential_torus_data,
    sierp,
    trivial_data,
)
from topoglue.gdata import (
    GluingData,
    derive_triple_maps,
    functor_of,
    make_gluing_data,
    validate,
)
from topoglue.glue import CONE_MODES, check_cone, check_glued_properties, check_otop, glue, verify_universal
from topoglue.glidx import (
    GlGen,
    edges,
    normalize,
    objects,
    pair,
    raw_generators,
    relation_instances,
    single,
)


def _mutated_transition(gd, key, table):
    new_transition = dict(gd.transition)
    old = new_transition[key]
    new_transition[key] = SpaceMap(old.dom, old.cod, table)
    return GluingData(
        index=gd.index,
        patch=gd.patch,
        overlap=gd.overlap,
        anchor=gd.anchor,
        transition=new_transition,
        triple_transition=gd.triple_transition,
    )


class TestValidate:
    def test_trivial_single_patch(self):
        rep = validate(trivial_data(arc3()))
        assert rep.passed, str(rep)

    def test_circle_data(self):
        rep = validate(gd_circ())
        assert rep.passed, str(rep)

    def test_non_inverse_transition_fails_with_witness(self):
        gd = gd_circ()
        bad = _mutated_transition(gd, ("2", "1"), {"a": "b", "b": "a"})
        rep = validate(bad)
        assert not rep.passed
        failed = [e for e in rep.failures() if e.name == "transition-inverse"]
        assert failed and failed[0].witness in ("a", "b")

    def test_missing_triples_reported(self):
        gd = gd_circ()
        stripped = GluingData(
            index=gd.index,
            patch=gd.patch,
            overlap=gd.overlap,
            anchor=gd.anchor,
            transition=gd.transition,
            triple_transition={},
        )
        rep = validate(stripped)
        assert not rep.passed
        assert any(e.name == "triple-present" for e in rep.failures())

    def test_mistyped_triple_transition_fails_a_row(self):
        gd = gd_circ()
        old = gd.triple_transition[("1", "2", "2")]
        into_pt = SpaceMap(old.dom, pt(), dict.fromkeys(old.dom.points, "p"))
        bad = dataclasses.replace(gd, triple_transition={**gd.triple_transition, ("1", "2", "2"): into_pt})
        rep = validate(bad)
        assert [(e.name, e.subject) for e in rep.failures()] == [("triple-typing", "(1,2,2)")]
        assert rep.entries[-1].witness == "DISC2 -> PT, not DISC2 -> T[2,1,2]"

    def test_a_stale_triple_transition_names_the_other_space_of_the_same_name(self):
        # anchor (1,2) moved through replace: T[1,1,2] is a new pullback under the old
        # name, so the triple transitions given for the old one no longer type
        gd = gd_circ()
        f = gd.anchor[("1", "2")]
        collapsed = SpaceMap(f.dom, f.cod, {"a": "l", "b": "l"})
        moved = dataclasses.replace(gd, anchor={**gd.anchor, ("1", "2"): collapsed})
        assert [(e.name, e.subject, e.witness) for e in validate(moved).failures()] == [
            ("triple-typing", "(1,2,1)",
             "T[1,1,2] -> DISC2, not T[1,1,2] -> DISC2; its domain is another space named 'T[1,1,2]'"),
            ("triple-typing", "(2,1,1)",
             "DISC2 -> T[1,1,2], not DISC2 -> T[1,1,2]; its codomain is another space named 'T[1,1,2]'"),
        ]
        assert law_reference.check_laws(moved).failures() == validate(moved).failures()


def _triple_keys(index, objects):
    """The ordered triples whose normal object is among ``objects``, in index order, as the
    nerve listed its triple law subjects before it was a ``glidx.Category``."""
    keys = []
    for obj in objects:
        i = obj.head
        if obj.arity == 3:
            j, k = obj.rest
            keys += [(i, j, k), (i, k, j)]
        else:
            j = obj.rest[0] if obj.rest else i
            keys.append((i, j, j))
    pos = {i: n for n, i in enumerate(index)}
    return tuple(sorted(keys, key=lambda t: (pos[t[0]], pos[t[1]], pos[t[2]])))


class TestLawSubjects:
    """``Category.pairs`` and ``triples``, read off the objects, are the law subjects the nerve listed."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_whole_index_category(self, n):
        idx = tuple("abcd"[:n])
        cat = glidx.restrict(objects(idx))
        assert cat.pairs == tuple(itertools.product(idx, repeat=2))
        assert cat.triples == tuple(itertools.product(idx, repeat=3)) == _triple_keys(idx, cat.objects)

    def test_seeded_lawful_data_and_circles_with_empty_overlaps(self):
        rng = random.Random(5)
        data = [random_lawful_data(rng) for _ in range(12)]
        data += [digital_circle_data(16, 4), digital_circle_data(24, 6)]
        assert any(absent_pairs(gd) for gd in data)
        for gd in data:
            pos = {i: n for n, i in enumerate(gd.index)}
            keys = itertools.product(gd.index, repeat=2)
            stored = [key for key in keys if key[0] == key[1] or gd.space_of(pair(*key)).points]
            assert isinstance(gd.nerve, glidx.Category)
            assert gd.nerve.pairs == tuple(sorted(stored, key=lambda ij: (pos[ij[0]], pos[ij[1]])))
            assert gd.nerve.triples == _triple_keys(gd.index, gd.nerve.objects)


TABLES = ("patch", "overlap", "anchor", "transition", "triple_transition", "triple_space", "triple_proj")
GIVEN = TABLES[:5]  # the tables a datum is built from; it works out the other two


class TestFrozenDatum:
    def test_tables_and_attributes_are_read_only(self):
        gd = gd_circ()
        for name in TABLES:
            table = getattr(gd, name)
            with pytest.raises(TypeError):
                table[next(iter(table))] = None
        for f in dataclasses.fields(gd):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(gd, f.name, getattr(gd, f.name))

    def test_constructor_tables_are_copied(self):
        gd = gd_circ()
        tables = {name: dict(getattr(gd, name)) for name in GIVEN}
        copy = GluingData(list(gd.index), **tables)
        for table in tables.values():
            table.clear()
        assert copy == gd
        assert copy.index == gd.index and validate(copy).passed

    def test_check_entries_and_functor_tables_are_frozen(self):
        gd = gd_circ()
        entry = validate(gd).entries[0]
        with pytest.raises(dataclasses.FrozenInstanceError):
            entry.ok = not entry.ok
        fun = functor_of(gd)
        assert fun.data is gd
        with pytest.raises(dataclasses.FrozenInstanceError):
            fun.data = gd_circ()


class TestCheckEntry:
    """A row is a named tuple: equal rows are one key, and its dict and string forms are fixed."""

    def _rows(self):
        passing = validate(gd_circ()).entries
        failing = validate(_mutated_transition(gd_circ(), ("1", "2"), {"a": "b", "b": "b"})).failures()
        return passing, failing

    def test_equal_rows_hash_equal(self):
        passing, failing = self._rows()
        for row in passing + failing:
            twin = gdata.CheckEntry(row.name, row.subject, row.ok, row.witness)
            assert twin == row and hash(twin) == hash(row)
            assert len({row, twin}) == 1

    def test_rows_round_trip_through_their_dict(self):
        passing, failing = self._rows()
        for row in passing + failing:
            assert list(row._asdict()) == ["name", "subject", "ok", "witness"]
            assert gdata.CheckEntry(**row._asdict()) == row

    def test_string_form(self):
        assert str(gdata.CheckEntry("anchor-typing", "(1,2)", True)) == "ok   anchor-typing (1,2)"
        row = gdata.CheckEntry("cocycle", "(1,2,3)", False, "p: q != r")
        assert str(row) == "FAIL cocycle (1,2,3) (witness: p: q != r)"
        assert repr(row) == "CheckEntry(name='cocycle', subject='(1,2,3)', ok=False, witness='p: q != r')"
        passing, failing = self._rows()
        plain = [e for e in passing if e.witness is None]
        assert plain and all(str(e) == f"ok   {e.name} {e.subject}" for e in plain)
        witnessed = [e for e in failing if e.witness is not None]
        assert witnessed and all(str(e) == f"FAIL {e.name} {e.subject} (witness: {e.witness})" for e in witnessed)


class TestValidateOnce:
    """A frozen datum has one verdict: its clause pass runs once, on first use."""

    def test_one_clause_pass_behind_validate_functor_of_and_glue(self, monkeypatch):
        gd = gd_circ()
        calls = []
        clause_pass = gdata._check_laws
        monkeypatch.setattr(gdata, "_check_laws", lambda d: calls.append(d) or clause_pass(d))
        assert validate(gd).passed
        functor_of(gd)
        glue(gd)
        assert calls == [gd] and calls[0] is gd

    def test_a_replaced_datum_gets_its_own_verdict(self):
        gd = gd_circ()
        assert validate(gd).passed
        swap = _mutated_transition(gd, ("2", "1"), {"a": "b", "b": "a"}).transition
        bad = dataclasses.replace(gd, transition=swap)
        assert not validate(bad).passed
        stripped = dataclasses.replace(gd, triple_transition={})
        assert [e.name for e in validate(stripped).failures()][0] == "triple-present"
        assert validate(derive_triple_maps(stripped)).passed
        assert validate(gd).passed

    def test_appending_to_a_report_does_not_leak(self):
        gd = gd_circ()
        rep = validate(gd)
        rows = list(rep.entries)
        rep.add("extra", "row", False)
        rep.entries.clear()
        again = validate(gd)
        assert again.passed and again.entries == rows and again is not rep

    def test_glue_after_a_failing_validate_raises_the_same_rows(self):
        bad = _mutated_transition(gd_circ(), ("2", "1"), {"a": "b", "b": "a"})
        rep = validate(bad)
        assert not rep.passed
        for later in (glue, functor_of):
            with pytest.raises(ValidationFailed) as info:
                later(bad)
            assert info.value.report.entries == rep.entries
            assert str(info.value) == f"validation failed:\n{rep}"


def _ambiguous_instance():
    """Three patches where one anchor collapses two overlap points."""
    d = disc2()
    p = pt("P", "p")
    d23 = disc2()
    d32 = disc2()
    def m(dom, cod, table):
        return SpaceMap(dom, cod, table)
    return make_gluing_data(
        ["1", "2", "3"],
        patch={"1": d, "2": d, "3": d},
        overlap={
            ("1", "2"): p, ("2", "1"): p,
            ("1", "3"): p, ("3", "1"): p,
            ("2", "3"): d23, ("3", "2"): d32,
        },
        anchor={
            ("1", "2"): m(p, d, {"p": "a"}),
            ("2", "1"): m(p, d, {"p": "a"}),
            ("1", "3"): m(p, d, {"p": "a"}),
            ("3", "1"): m(p, d, {"p": "a"}),
            ("2", "3"): m(d23, d, {"a": "a", "b": "a"}),  # collapses onto a
            ("3", "2"): m(d32, d, {"a": "a", "b": "b"}),
        },
        transition={
            ("1", "2"): m(p, p, {"p": "p"}),
            ("2", "1"): m(p, p, {"p": "p"}),
            ("1", "3"): m(p, p, {"p": "p"}),
            ("3", "1"): m(p, p, {"p": "p"}),
            ("2", "3"): m(d23, d32, {"a": "a", "b": "b"}),
            ("3", "2"): m(d32, d23, {"a": "a", "b": "b"}),
        },
    )


def _fixture_data():
    return [
        gd_circ(), cylinder_data("1"), boundary_data("1"), sequential_torus_data(), self_weld_arc(),
        trivial_data(arc3()), digital_circle_data(12, 3), digital_circle_data(24, 6), _constant_anchor_data(),
    ]


class TestMakeGluingData:
    @pytest.mark.parametrize("build", [make_gluing_data, GluingData])
    def test_index_label_with_at_sign(self, build):
        sp = arc3()
        with pytest.raises(UnresolvedReference, match="must not contain '@'") as info:
            build(["a@b"], patch={"a@b": sp}, overlap={}, anchor={}, transition={})
        assert info.value.exit_code == 2

    @pytest.mark.parametrize("build", [make_gluing_data, GluingData])
    def test_index_label_with_comma(self, build):
        # ',' joins the labels of object names: the pair (a,b) and the patch a,b are both [a,b]
        patch = {label: arc3() for label in ("a", "b", "a,b")}
        with pytest.raises(UnresolvedReference, match=r"^index label 'a,b' must not contain ','$") as info:
            build(["a", "b", "a,b"], patch=patch, overlap={}, anchor={}, transition={})
        assert info.value.exit_code == 2

    @pytest.mark.parametrize("build", [make_gluing_data, GluingData])
    def test_index_label_without_patch(self, build):
        with pytest.raises(UnresolvedReference, match=r"no patch for index labels \['2'\]") as info:
            build(["1", "2"], patch={"1": arc3()}, overlap={}, anchor={}, transition={})
        assert info.value.exit_code == 2

    def test_the_constructor_is_given_the_pairs_and_triple_transitions_only(self):
        init = [f.name for f in dataclasses.fields(GluingData) if f.init]
        assert init == ["index", "patch", "overlap", "anchor", "transition", "triple_transition"]

    def test_the_constructor_rebuilds_every_fixture(self):
        for gd in _fixture_data():
            given = (gd.index, gd.patch, gd.overlap, gd.anchor, gd.transition, gd.triple_transition)
            assert GluingData(*given) == gd == make_gluing_data(*given)
            assert GluingData(*given[:5]) == make_gluing_data(*given[:5])

    def test_the_direct_constructor_fills_the_diagonals(self):
        sp = arc3()
        gd = GluingData(["1"], patch={"1": sp}, overlap={}, anchor={}, transition={})  # no triple transitions
        assert gd == trivial_data(sp) and validate(gd).passed
        assert gd.overlap == {("1", "1"): sp} and gd.transition == {("1", "1"): identity_map(sp)}

    def test_patches_off_the_index_are_dropped(self):
        gd = GluingData(["1"], {"1": arc3(), "2": sierp()}, {}, {}, {})
        assert dict(gd.patch) == {"1": arc3()} and not gd.stores(single("2"))
        assert gd == GluingData(["1"], {"1": arc3()}, {}, {}, {})

    def test_unread_triple_transition_keys_are_dropped(self):
        # (1,1,2) reads the identity, (1,2,9) is off the index, (1,2) is not a triple
        gd = gd_circ()
        m = gd.triple_transition[("1", "2", "2")]
        given = (gd.index, gd.patch, gd.overlap, gd.anchor, gd.transition)
        unread = {("1", "1", "2"): m, ("1", "2", "9"): m, ("1", "2"): m}
        bare = make_gluing_data(*given, unread)
        assert bare.triple_transition == {} and bare == make_gluing_data(*given)
        assert make_gluing_data(*given, {**gd.triple_transition, **unread}) == gd

    def test_triple_projections_start_at_the_named_triple_space(self):
        gd = digital_circle_data(12, 3)
        # the nerve keeps the six degenerate triples; the three [i|{j,k}] are empty
        assert len(gd.triple_space) == 6
        for obj, space in gd.triple_space.items():
            i, (j, k) = obj.head, obj.rest
            assert space.space_id == f"T[{i},{j},{k}]"
            for n in (j, k):
                proj = gd.triple_proj[(obj, n)]
                assert proj.dom is space
                assert proj.cod is gd.overlap[(i, n)]


class TestDeriveTripleMaps:
    def test_single_patch_nothing_to_derive(self):
        gd = trivial_data(arc3())
        assert gd.triple_transition == {}

    def test_circle_derives_and_validates(self):
        gd = gd_circ()
        assert validate(gd).passed
        # every non-diagonal ordered triple slot is present
        for i in gd.index:
            for j in gd.index:
                for k in gd.index:
                    if i != j:
                        assert (i, j, k) in gd.triple_transition

    def test_collapsing_anchor_is_not_determined(self):
        with pytest.raises(NotDetermined) as info:
            derive_triple_maps(_ambiguous_instance())
        assert len(info.value.candidates) == 2

    def test_user_supplied_maps_win(self):
        base = gd_circ()
        supplied = dict(base.triple_transition)
        rebuilt = derive_triple_maps(
            make_gluing_data(
                base.index, base.patch, base.overlap, base.anchor, base.transition,
                supplied,
            )
        )
        assert rebuilt.triple_transition == supplied


def _constant_anchor_data(triples_for=("1", "2")):
    """Three one-point patches glued along two-point discrete overlaps.

    Every anchor is constant, so each genuine triple space is a 4-point
    product and ``derive_triple_maps`` cannot force its transition.  The
    lawful ones come from a Z/2 model: overlap point x of (i,j) stands for
    y_j - y_i + e(i,j) with the head's y fixed at 0, and e is 1 only at
    (1,2), whose transitions swap.  Triple transitions built for e at another
    pair (``triples_for``) break projection-square and nothing else.
    """
    idx = ["1", "2", "3"]
    e = {(i, j): int((i, j) == ("1", "2")) for i in idx for j in idx}
    f = {(i, j): int((i, j) == triples_for) for i in idx for j in idx}
    patch = {i: make_space(f"P{i}", ["p"], {"p": ["p"]}) for i in idx}
    overlap = {
        (i, j): make_space(f"O{i}{j}", ["0", "1"], {"0": ["0"], "1": ["1"]})
        for i in idx for j in idx if i != j
    }
    anchor = {key: SpaceMap(sp, patch[key[0]], {"0": "p", "1": "p"}) for key, sp in overlap.items()}
    transition = {
        (i, j): SpaceMap(sp, overlap[(j, i)], {x: str((int(x) + e[(i, j)] + e[(j, i)]) % 2) for x in "01"})
        for (i, j), sp in overlap.items()
    }
    bare = make_gluing_data(idx, patch, overlap, anchor, transition)
    triples = {}
    for i, j, k in itertools.permutations(idx):
        dom = bare.space_of(normalize((i, j, k)))
        cod = bare.space_of(normalize((j, i, k)))
        table = {}
        for p in dom.points:
            a, b = int(coord(bare, i, j, k)(p)), int(coord(bare, i, k, j)(p))
            ji = str((a + f[(i, j)] + f[(j, i)]) % 2)
            jk = str((a + b + f[(i, j)] + f[(i, k)] + f[(j, k)]) % 2)
            (table[p],) = [
                q for q in cod.points
                if coord(bare, j, i, k)(q) == ji and coord(bare, j, k, i)(q) == jk
            ]
        triples[(i, j, k)] = SpaceMap(dom, cod, table)
    return derive_triple_maps(make_gluing_data(idx, patch, overlap, anchor, transition, triples))


def _redirected_anchors(gd, rng=None, count=None):
    """``dataclasses.replace(gd, anchor=...)`` for each continuous map an off-diagonal anchor of
    ``gd`` can be sent to instead, or for a seeded sample of ``count`` of them.  Each keeps the
    triple transitions of ``gd``, given between the triple spaces of the old anchors."""
    moves = [
        (key, g)
        for key, f in gd.anchor.items() if key[0] != key[1]
        for g in enumerate_continuous_maps(f.dom, f.cod) if g != f
    ]
    if count is not None:
        moves = rng.sample(moves, count)
    return [dataclasses.replace(gd, anchor={**gd.anchor, key: g}) for key, g in moves]


class TestValidateImpliesFunctoriality:
    """``validate`` is the only law check: a passing report must make every
    relation instance of the index category an equality of realized maps."""

    @staticmethod
    def _corpus():
        rng = random.Random(4)
        lawful = [
            gd_circ(),
            cylinder_data("1"),
            self_weld_arc(),
            digital_circle_data(12, 3),
            _constant_anchor_data(),
        ]
        lawful += [random_lawful_data(rng) for _ in range(30)]
        moved = [m for gd in lawful for _ in range(2) if (m := mutate_transition(rng, gd))]
        mutants = moved + [m for gd in lawful for _ in range(2) if (m := mutate_triple(rng, gd))]
        mutants.append(_constant_anchor_data(triples_for=("1", "3")))
        redirected = _redirected_anchors(gd_circ()) + _redirected_anchors(cylinder_data("1"), rng, 40)
        rederived = [derive_triple_maps(dataclasses.replace(gd, triple_transition={})) for gd in redirected]
        return lawful, mutants + redirected + rederived

    def test_a_redirected_anchor_moves_its_triple_spaces(self):
        # the triple spaces are the pullbacks of the new anchors, so the triple transitions
        # given for the old ones fail to type, and those derived anew validate
        redirected = _redirected_anchors(gd_circ())
        assert len(redirected) == 16
        for gd in redirected:
            assert {e.name for e in validate(gd).failures()} == {"triple-typing"}
            assert validate(derive_triple_maps(dataclasses.replace(gd, triple_transition={}))).passed

    def test_relations_hold_wherever_validate_passes(self):
        lawful, mutants = self._corpus()
        assert all(validate(gd).passed for gd in lawful)
        rejected = 0
        for gd in lawful + mutants:
            rep = validate(gd)
            if not rep.passed:
                rejected += 1
                with pytest.raises(ValidationFailed) as info:
                    functor_of(gd)
                assert info.value.report.entries == rep.entries
                continue
            fun = functor_of(gd)
            # each side along its own generator path: endpoints alone would
            # name one map for both sides
            for label, dom, lhs, rhs in relation_instances(gd.index):
                assert realize(fun, dom, lhs) == realize(fun, dom, rhs), f"{label} on {gd.index}"
        assert rejected > 0

    def test_constant_anchor_triples_are_not_derivable(self):
        gd = _constant_anchor_data()
        with pytest.raises(NotDetermined):
            derive_triple_maps(make_gluing_data(gd.index, gd.patch, gd.overlap, gd.anchor, gd.transition))

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_shared_generator_endpoints_read_one_entry(self, n):
        # the realized tables keep one map per endpoint pair; the raw
        # generators that share a pair are eta3 slots naming one projection
        reads: dict = {}
        for gen in raw_generators(str(k) for k in range(n)):
            if gen.dom != gen.cod:
                entry = (gen.cod, gen.indices[3]) if gen.kind == "eta3" else gen
                reads.setdefault((gen.dom, gen.cod), set()).add(entry)
        assert all(len(entries) == 1 for entries in reads.values())


class TestFunctorOf:
    def test_trivial(self):
        fun = functor_of(trivial_data(arc3()))
        assert fun.space(single("1")) == arc3()

    def test_circle_transition_image_is_homeomorphism(self):
        from topoglue.fintop import is_homeomorphism

        fun = functor_of(gd_circ())
        tau = GlGen("tau", ("1", "2"))
        assert is_homeomorphism(realize(fun, tau.dom, (tau,)))

    def test_tau_roundtrip_is_identity(self):
        fun = functor_of(gd_circ())
        roundtrip = (GlGen("tau", ("2", "1")), GlGen("tau", ("1", "2")))
        img = realize(fun, pair("1", "2"), roundtrip)
        assert img == identity_map(fun.space(pair("1", "2")))

    def test_invalid_data_raises(self):
        gd = gd_circ()
        bad = _mutated_transition(gd, ("2", "1"), {"a": "b", "b": "a"})
        with pytest.raises(ValidationFailed):
            functor_of(bad)


def _reference_map(gd, a, b, gen):
    """The map of the generator edge a -> b read off the datum's tables, not through ``map``;
    an anchor or transition out of a pair off the nerve, which no table keys, is the empty map."""
    if gen.kind in ("eta", "tau"):
        if gen.indices not in gd.overlap:
            return SpaceMap(gdata.EMPTY, gd.space_of(a), {})
        return (gd.anchor if gen.kind == "eta" else gd.transition)[gen.indices]
    if gen.kind == "eta3":
        i, j, k, n = gen.indices
        return coord(gd, i, n, k if n == j else j)
    if not gd.stores(b):
        return SpaceMap(gdata.EMPTY, gd.space_of(a), {})
    return gd.triple_transition[gen.indices]


class TestMapParity:
    """``GluingData.map`` on every generator edge of the index category, against the tables."""

    @staticmethod
    def _data():
        rng = random.Random(13)
        data = [random_lawful_data(rng) for _ in range(12)]
        return data + [gd_circ(), cylinder_data("1"), digital_circle_data(16, 4), digital_circle_data(24, 6)]

    def test_every_generator_edge_reads_its_table(self):
        off_nerve = 0
        for gd in self._data():
            assert validate(gd).passed
            for (a, b), gen in edges(gd.index).items():
                assert gd.map(a, b) == _reference_map(gd, a, b, gen), (a, b, gen)
                if not gd.stores(b):
                    off_nerve += 1
                    assert gd.map(a, b) == SpaceMap(gdata.EMPTY, gd.space_of(a), {})
            for obj in objects(gd.index):
                assert gd.map(obj, obj) == identity_map(gd.space_of(obj))
        assert off_nerve  # the digital circles have empty overlaps

    def test_a_missing_triple_transition_is_a_failed_validation(self):
        gd = digital_circle_data(16, 4)
        bare = dataclasses.replace(gd, triple_transition={})
        (a, b), gen = next(
            (ab, gen) for ab, gen in gd.nerve.edges.items() if gen.kind == "tau3"
        )
        with pytest.raises(ValidationFailed) as info:
            bare.map(a, b)
        rows = info.value.report.entries
        assert rows and {e.name for e in rows} == {"triple-present"}
        assert all(not e.ok for e in rows)
        assert gd.map(a, b) == gd.triple_transition[gen.indices]


class TestEvaluate:
    """A functor evaluated along generator paths (``paths.realize``)."""

    def test_identity(self):
        fun = functor_of(gd_circ())
        a = pair("1", "2")
        assert realize(fun, a, ()) == identity_map(fun.space(a))

    def test_eta_is_the_anchor(self):
        gd = gd_circ()
        fun = functor_of(gd)
        eta = GlGen("eta", ("1", "2"))
        assert realize(fun, eta.dom, (eta,)) == gd.anchor[("1", "2")]

    def test_path_independence(self):
        # two factorizations of the same morphism give the same map
        gd = gd_circ()
        fun = functor_of(gd)
        t = normalize(("1", "1", "2"))
        p = pair("2", "1")
        direct = find_path(gd.index, t, p)
        assert direct is not None
        # alternate path: out of the triple into [1,2], then transit
        alt = find_path(gd.index, t, pair("1", "2")) + find_path(gd.index, pair("1", "2"), p)
        assert alt != direct
        assert realize(fun, t, direct) == realize(fun, t, alt)

    def test_all_two_step_paths_agree(self):
        gd = gd_circ()
        fun = functor_of(gd)
        gens = list(edges(gd.index).values())
        by_dom = {}
        for g in gens:
            by_dom.setdefault(g.dom, []).append(g)
        checked = 0
        for f in gens:
            for g in by_dom.get(f.cod, []):
                lhs = realize(fun, f.dom, (f, g))
                rhs = compose(realize(fun, f.dom, (f,)), realize(fun, g.dom, (g,)))
                assert lhs == rhs
                checked += 1
        assert checked > 0


class TestRepresentativeInvariance:
    def test_relabelled_overlaps_glue_homeomorphically(self):
        # renaming overlap points (an isomorphic presentation of the same
        # datum) must not change the glued space up to homeomorphism
        from topoglue.fintop import find_homeomorphism, make_space
        from topoglue.fixtures import arc3
        from topoglue.glue import glue

        base = gd_circ()
        renamed = make_space("D12x", ["x", "y"], {"x": ["x"], "y": ["y"]})
        rename = {"a": "x", "b": "y"}
        gd = make_gluing_data(
            ["1", "2"],
            patch=base.patch,
            overlap={("1", "2"): renamed, ("2", "1"): base.overlap[("2", "1")]},
            anchor={
                ("1", "2"): SpaceMap(renamed, base.patch["1"], {"x": "l", "y": "r"}),
                ("2", "1"): base.anchor[("2", "1")],
            },
            transition={
                ("1", "2"): SpaceMap(renamed, base.overlap[("2", "1")], {"x": "a", "y": "b"}),
                ("2", "1"): SpaceMap(base.overlap[("2", "1")], renamed, {"a": "x", "b": "y"}),
            },
        )
        gd = derive_triple_maps(gd)
        assert validate(gd).passed
        g1 = glue(base)
        g2 = glue(gd)
        assert find_homeomorphism(g1.space, g2.space) is not None


class TestRoundTrip:
    def test_transition_invertibility(self):
        rng = random.Random(11)
        for _ in range(8):
            gd = random_lawful_data(rng)
            fun = functor_of(gd)
            for i in gd.index:
                for j in gd.index:
                    tau_ij, tau_ji = GlGen("tau", (i, j)), GlGen("tau", (j, i))
                    fwd = realize(fun, tau_ij.dom, (tau_ij,))
                    bwd = realize(fun, tau_ji.dom, (tau_ji,))
                    assert compose(bwd, fwd) == identity_map(gd.space_of(pair(i, j)))


class TestMistypedPairMaps:
    """A mistyped anchor or transition fails a typing row, and no law reads it."""

    def _rows(self, gd):
        rep = validate(gd)
        assert not any(e.name in ("transition-inverse", "cocycle") for e in rep.entries)
        return [(e.name, e.subject, e.witness) for e in rep.failures()]

    def _failures(self, gd):
        return [row[:2] for row in self._rows(gd)]

    def test_transition_into_another_space(self):
        gd = gd_circ()
        old = gd.transition[("1", "2")]
        into_pt = SpaceMap(old.dom, pt(), dict.fromkeys(old.dom.points, "p"))
        swapped = {**gd.transition, ("1", "2"): into_pt}
        assert self._failures(dataclasses.replace(gd, transition=swapped)) == [
            ("transition-typing", "(1,2)")
        ]
        # not lifted over: the triple transitions are left to validate, which stops at typing
        built = make_gluing_data(gd.index, gd.patch, gd.overlap, gd.anchor, swapped)
        assert derive_triple_maps(built) is built
        assert self._failures(built) == [("transition-typing", "(1,2)")]

    def test_anchor_into_another_space(self):
        gd = gd_circ()
        old = gd.anchor[("1", "2")]
        into_pt = SpaceMap(old.dom, pt(), dict.fromkeys(old.dom.points, "p"))
        anchor = {**gd.anchor, ("1", "2"): into_pt}
        built = make_gluing_data(gd.index, gd.patch, gd.overlap, anchor, gd.transition)
        assert self._failures(derive_triple_maps(built)) == [("anchor-typing", "(1,2)")]

    def test_diagonal_overlap_that_is_not_the_patch(self):
        gd = gd_circ()
        overlap = {**gd.overlap, ("1", "1"): disc2()}
        built = derive_triple_maps(make_gluing_data(gd.index, gd.patch, overlap, gd.anchor, gd.transition))
        # the identities of patch 1 given at (1,1) no longer type: where composing them
        # raised, each fails a row
        assert self._failures(built) == [
            ("overlap-diagonal", "(1,1)"),
            ("transition-diagonal", "(1,1)"),
            ("anchor-typing", "(1,1)"),
            ("transition-typing", "(1,1)"),
        ]


def _law_outcome(check, gd):
    """The rows a law pass returns, or the type and message of what it raises."""
    try:
        return "rows", check(gd).entries
    except (TopoglueError, KeyError) as exc:
        return "raises", type(exc).__name__, str(exc)


def _redirection_sites(gd):
    """Every (table, key, point, image) that redirects one point of one off-diagonal anchor,
    transition or triple transition of ``gd``, in table, key and point order."""
    tables = ("anchor", "transition", "triple_transition")
    return [
        (name, key, x, y)
        for name in tables
        for key, f in getattr(gd, name).items()
        if name == "triple_transition" or key[0] != key[1]
        for x in sorted(f.dom.points)
        for y in sorted(f.cod.points - {f.table[x]})
    ]


def _redirected(gd, site):
    """``gd`` with one point redirected (``_redirection_sites``), built as the benchmark's mutants
    are: a redirected pair map through ``make_gluing_data`` and ``derive_triple_maps`` (left
    underived where that raises NotDetermined), a redirected triple transition given to
    ``make_gluing_data``."""
    name, key, x, y = site
    pairs = {"anchor": gd.anchor, "transition": gd.transition}
    table = getattr(gd, name)
    f = table[key]
    changed = {**table, key: SpaceMap(f.dom, f.cod, {**f.table, x: y})}
    data = make_gluing_data(gd.index, gd.patch, gd.overlap, **{**pairs, name: changed})
    if name not in pairs:
        return data
    try:
        return derive_triple_maps(data)
    except NotDetermined:
        return data


def _redirections(gd):
    """Every datum that differs from ``gd`` in one redirected point (``_redirected``)."""
    return (_redirected(gd, site) for site in _redirection_sites(gd))


class TestLawPassAgainstReference:
    """On data whose maps are typed, the law pass gives the reference's rows, or its error.

    The reference (``law_reference.check_laws``) composes every path through
    ``fintop.disagreement`` and compares each diagonal map with a fresh
    ``identity_map``; the library reads the tables of typed maps directly.
    """

    def test_every_redirection_of_the_m12k3_covering_data(self):
        gd = digital_circle_data(12, 3)
        failed = Counter()
        seen = 0
        for data in _redirections(gd):
            outcome = _law_outcome(gdata._check_laws, data)
            assert outcome == _law_outcome(law_reference.check_laws, data)
            seen += 1
            failed.update(e.name for e in outcome[1] if not e.ok)
        assert seen > 250
        # the guard reads every law: each clause fails on some redirection
        for clause in ("anchor-continuous", "transition-inverse", "triple-present", "cocycle",
                       "projection-square", "triple-continuous"):
            assert failed[clause], clause

    @pytest.mark.parametrize("m, k, seed", [(24, 4, 24), (48, 6, 48)])
    def test_a_seeded_sample_of_the_redirections_at_the_benchmark_sizes(self, m, k, seed):
        # the benchmark's larger covering data: the triple clauses read the maps by key, the
        # reference through ``GluingData.map``
        gd = digital_circle_data(m, k)
        sites = _redirection_sites(gd)
        failed = Counter()
        for site in random.Random(seed).sample(sites, 60):
            data = _redirected(gd, site)
            outcome = _law_outcome(gdata._check_laws, data)
            assert outcome == _law_outcome(law_reference.check_laws, data), site
            failed.update(e.name for e in outcome[1] if not e.ok)
        for clause in ("transition-inverse", "cocycle", "projection-square"):
            assert failed[clause], clause

    def test_fixtures_seeded_data_and_circles_with_empty_overlaps(self):
        rng = random.Random(23)
        data = [gd_circ(), cylinder_data("1"), boundary_data("1"), sequential_torus_data()]
        data += [random_lawful_data(rng) for _ in range(25)]
        data += [digital_circle_data(16, 4), digital_circle_data(24, 6)]
        assert any(absent_pairs(gd) for gd in data)
        for gd in data:
            for variant in (gd, dataclasses.replace(gd, triple_transition={})):
                expected = _law_outcome(law_reference.check_laws, variant)
                assert _law_outcome(gdata._check_laws, variant) == expected


class TestConstructionPasses:
    """``make_gluing_data`` runs the pair pass once, and ``derive_triple_maps`` copies a checked datum."""

    def _counted(self, monkeypatch):
        calls = Counter()

        def counted(name):
            real = getattr(gdata, name)

            def call(*args):
                calls[name] += 1
                return real(*args)

            return call

        for name in ("_nerve_pairs", "_nerve_triples"):
            monkeypatch.setattr(gdata, name, counted(name))
        return calls

    def test_one_pair_pass_per_covering_datum(self, monkeypatch):
        calls = self._counted(monkeypatch)
        gd = digital_circle_data(12, 3)
        assert calls == {"_nerve_pairs": 1, "_nerve_triples": 1}
        calls.clear()
        derived = derive_triple_maps(dataclasses.replace(gd, triple_transition={}))
        assert calls == {"_nerve_pairs": 1, "_nerve_triples": 1}  # replace checks; derive does not
        assert derived == gd

    def test_derived_datum_is_read_only(self):
        gd = derive_triple_maps(dataclasses.replace(gd_circ(), triple_transition={}))
        for name in TABLES:
            table = getattr(gd, name)
            with pytest.raises(TypeError):
                table[next(iter(table))] = None
        with pytest.raises(dataclasses.FrozenInstanceError):
            gd.triple_transition = {}

    def test_tables_given_to_make_gluing_data_are_copied(self):
        gd = gd_circ()
        given = {name: dict(getattr(gd, name)) for name in ("patch", "overlap", "anchor", "transition")}
        triples = dict(gd.triple_transition)
        built = make_gluing_data(gd.index, **given, triple_transition=triples)
        for table in (*given.values(), triples):
            table.clear()
        assert built == gd and validate(built).passed

    def test_given_diagonals_build_no_identity(self, monkeypatch):
        calls = Counter()
        real = gdata.identity_map

        def counted(space):
            calls[space.space_id] += 1
            return real(space)

        gd = digital_circle_data(12, 3)
        monkeypatch.setattr(gdata, "identity_map", counted)
        given = {name: dict(getattr(gd, name)) for name in GIVEN}
        assert GluingData(gd.index, **given) == gd
        assert not calls
        for name in ("anchor", "transition"):
            for i in gd.index:
                del given[name][(i, i)]
        built = GluingData(gd.index, **given)
        assert sum(calls.values()) == 2 * len(gd.index)
        for i in gd.index:
            assert built.anchor[(i, i)] == real(gd.patch[i])
            assert built.transition[(i, i)] == real(gd.overlap[(i, i)])
        assert built == gd and validate(built).passed

    def test_replace_still_checks_a_map_out_of_an_empty_overlap(self):
        gd = digital_circle_data(16, 4)
        i, j = absent_pairs(gd)[0]
        with pytest.raises(CompositionMismatch, match="leaves an empty object"):
            dataclasses.replace(gd, anchor={**gd.anchor, (i, j): identity_map(gd.patch[i])})


FUZZ_SPACES = (pt(), sierp(), disc2(), indisc2(), arc3(), circle4())


def _nerve_slots(gd):
    """The (table, key) of every map of the nerve a datum is given: the anchors and
    transitions of its pairs, then its triple transitions."""
    return (
        [("anchor", key) for key in gd.nerve.pairs]
        + [("transition", key) for key in gd.nerve.pairs]
        + [("triple_transition", key) for key in gd.triple_transition]
    )


def _replaced(gd, name, key, f):
    """``gd`` with map ``f`` at ``key`` of table ``name``, built through ``replace``, or the
    CompositionMismatch that building it raises: a swapped anchor can empty a triple object
    that is given a triple transition with points."""
    try:
        return dataclasses.replace(gd, **{name: {**getattr(gd, name), key: f}})
    except CompositionMismatch as exc:
        return exc


@st.composite
def swapped_data(draw):
    """Seeded lawful data, and a copy with one map of its nerve swapped for a map between
    fixture spaces or the datum's own patches and overlaps (``_replaced``)."""
    seed = draw(st.integers(min_value=0, max_value=40))
    gd = gd_circ() if seed == 0 else random_lawful_data(random.Random(seed))
    name, key = draw(st.sampled_from(_nerve_slots(gd)))
    pool = FUZZ_SPACES + tuple(gd.patch.values()) + tuple(sp for sp in gd.overlap.values() if sp.points)
    dom, cod = draw(st.sampled_from(pool)), draw(st.sampled_from(pool))
    points = sorted(dom.points)
    images = draw(st.lists(st.sampled_from(sorted(cod.points)), min_size=len(points), max_size=len(points)))
    swapped = SpaceMap(dom, cod, dict(zip(points, images)))
    return gd, _replaced(gd, name, key, swapped)


def _every_check_ends_typed(bad, glued):
    """Every check on ``bad``, against the glued cone of the lawful datum, returns or raises a typed error."""
    assert isinstance(validate(bad), gdata.Report)
    calls = [lambda: glue(bad)]
    calls += [lambda mode=mode: check_cone(bad, glued, mode) for mode in CONE_MODES]
    calls += [
        lambda: check_glued_properties(bad, glued),
        lambda: check_otop(bad, glued),
        lambda: verify_universal(bad, glued, budget=500),
    ]
    for call in calls:
        try:
            call()
        except TopoglueError:
            pass


class TestSwappedMapFuzz:
    """Data with one nerve map swapped ends in a typed error when it is built, or else in a
    report or a typed error in every check."""

    @settings(max_examples=150, derandomize=True, deadline=None)
    @given(swapped_data())
    def test_every_check_returns_or_raises_a_typed_error(self, case):
        gd, bad = case
        if not isinstance(bad, CompositionMismatch):
            _every_check_ends_typed(bad, glue(gd))


class TestOneWayPairs:
    """Data given an overlap (i, j) with points but no entry for (j, i), so that (j, i) is off
    its nerve and no table has it, ends in a report or a typed error in every check."""

    def test_every_check_returns_or_raises_a_typed_error(self):
        rng = random.Random(41)
        data = [gd_circ(), digital_circle_data(12, 3)] + [random_lawful_data(rng) for _ in range(15)]
        seen = 0
        for gd in data:
            glued = glue(gd)
            for i, j in (key for key in gd.nerve.pairs if key[0] != key[1]):
                tables = [
                    {key: v for key, v in getattr(gd, name).items() if key != (j, i)}
                    for name in ("overlap", "anchor", "transition")
                ]
                bad = derive_triple_maps(make_gluing_data(gd.index, gd.patch, *tables))
                assert (i, j) in bad.overlap and not bad.stores(pair(j, i))
                assert ("transition-typing", f"({i},{j})") in [(e.name, e.subject) for e in validate(bad).failures()]
                _every_check_ends_typed(bad, glued)
                seen += 1
        assert seen >= 20
