"""Objects whose spaces have no points: the shortcuts against the reference, and their counts.

On a sparse covering most overlaps and triple spaces are empty.  The
library decides their rows, triangles and forced maps from endpoint typing
alone; ``empty_reference`` keeps the versions that run every object through
composition, scans and lifts.  The guard compares rows, witnesses, maps and
raised errors on digital circles, seeded random coverings, redirected
entries, and hand-made mistyped maps out of empty objects (each of which
breaks one typing test of one shortcut).  The count guards check that the
law pass and the cone checks compare the tables of nonempty objects only,
that the triple lifts touch nonempty objects only, and that an empty, typed
triple adds the law plan's shared rows and builds no row of its own.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import replace
from itertools import product

import pytest

import empty_reference as ref
from conftest import digital_circle, digital_circle_data, mutate_transition, mutate_triple
from topoglue import cover, fintop, gdata, glue
from topoglue.errors import TopoglueError
from topoglue.fintop import SpaceMap, subspace
from topoglue.fixtures import disc2, sierp, trivial_data
from topoglue.gdata import derive_triple_maps, make_gluing_data
from topoglue.glidx import normalize, pair, single
from topoglue.glue import CONE_MODES, Cone


def _ends(m):
    return (m.dom.space_id, m.dom, m.cod.space_id, m.cod, dict(m.table))


def _plain(value):
    """A comparable form of a result: maps by their ends and tables, reports by their rows."""
    if isinstance(value, SpaceMap):
        return _ends(value)
    if isinstance(value, fintop.FiniteSpace):
        return (value.space_id, value)
    if isinstance(value, gdata.Report):
        return (type(value).__name__, value.entries)
    if isinstance(value, gdata.GluingData):
        return tuple(_plain(getattr(value, name)) for name in (
            "index", "patch", "overlap", "anchor", "transition",
            "triple_space", "triple_proj", "triple_transition",
        ))
    if isinstance(value, Cone):
        return (_plain(value.apex), _plain(value.legs))
    if isinstance(value, (tuple, list)):
        return tuple(_plain(v) for v in value)
    if hasattr(value, "items"):
        return tuple(sorted((repr(k), _plain(v)) for k, v in value.items()))
    return value


def _outcome(fn, *args):
    """What a call gives, or the type and message of what it raises."""
    try:
        return "value", _plain(fn(*args))
    except (TopoglueError, KeyError) as exc:
        return "raises", type(exc).__name__, str(exc)


def _rows_then_outcome(check, gd):
    """The rows a report check adds, one by one or in bulk, also those before an error it
    raises, then its outcome."""
    rows, add, extend = [], gdata.Report.add, gdata.Report.extend

    def recorded(self, *row):
        rows.append(gdata.CheckEntry(*row))
        add(self, *row)

    def recorded_in_bulk(self, entries):
        entries = list(entries)
        rows.extend(entries)
        extend(self, entries)

    gdata.Report.add, gdata.Report.extend = recorded, recorded_in_bulk
    try:
        return rows, _outcome(check, gd)
    finally:
        gdata.Report.add, gdata.Report.extend = add, extend


def _same_everywhere(gd, cones=()):
    """Every changed loop and its reference agree on ``gd`` and the given cones."""
    assert _rows_then_outcome(gdata._check_laws, gd) == _rows_then_outcome(ref.check_laws, gd)
    bare = replace(gd, triple_transition={})
    assert _outcome(derive_triple_maps, bare) == _outcome(ref.derive_triple_maps, bare)
    tables = (gd.index, gd.overlap, gd.anchor)
    assert _outcome(gdata._triple_tables, *tables) == _outcome(ref.triple_tables, *tables)
    for cone in cones:
        for mode in CONE_MODES:
            assert _outcome(glue.cone_failure, gd, cone, mode) == _outcome(
                ref.cone_failure, gd, cone, mode
            )
        assert _outcome(glue.check_glued_properties, gd, cone) == _outcome(
            ref.check_glued_properties, gd, cone
        )
        assert _outcome(glue.check_otop, gd, cone) == _outcome(ref.check_otop, gd, cone)
        if all(single(i) in cone.legs for i in gd.index):
            singles = {i: cone.leg(single(i)) for i in gd.index}
            assert _outcome(glue.complete_cone, gd, cone.apex, singles) == _outcome(
                ref.complete_cone, gd, cone.apex, singles
            )


def _redirected(glued, rng, moves):
    """The glued cone with a few points of its nonempty legs sent elsewhere in the apex."""
    legs = dict(glued.legs)
    apex = sorted(glued.apex.points)
    for _ in range(moves):
        obj = rng.choice(sorted((o for o in legs if legs[o].dom.points), key=repr))
        leg = legs[obj]
        x = rng.choice(sorted(leg.dom.points))
        legs[obj] = SpaceMap(leg.dom, leg.cod, {**leg.table, x: rng.choice(apex)})
    return Cone(glued.apex, legs)


def _cones(gd, rng, count):
    glued = glue.glue(gd)
    cones = [glued]
    if len(glued.apex.points) > 1:
        cones += [_redirected(glued, rng, rng.randint(1, 3)) for _ in range(count)]
    return cones


def _random_coverings(seed, kind, count):
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        base = cover.random_space(rng, max_points=6, space_id="B")
        c = cover.random_covering(rng, base, kind)
        if len(c.family) >= 2:
            out.append(c)
    return out


def _mutated_anchor(rng, gd):
    """Redirect one point of one off-diagonal anchor, as the benchmark's mutants do."""
    key = rng.choice(sorted(k for k, f in gd.anchor.items() if k[0] != k[1] and f.dom.points))
    f = gd.anchor[key]
    x = rng.choice(sorted(f.dom.points))
    target = rng.choice(sorted(f.cod.points - {f.table[x]}) or sorted(f.cod.points))
    anchor = {**gd.anchor, key: SpaceMap(f.dom, f.cod, {**f.table, x: target})}
    return make_gluing_data(gd.index, gd.patch, gd.overlap, anchor, gd.transition)


class TestSameAsReference:
    @pytest.mark.parametrize("k", [3, 4, 6, 12])
    def test_digital_circles(self, k):
        gd = digital_circle_data(4 * k, k)
        _same_everywhere(gd, _cones(gd, random.Random(k), 3 if k < 12 else 1))

    @pytest.mark.parametrize("kind", ["gluing", "open"])
    def test_seeded_random_coverings(self, kind):
        rng = random.Random(17)
        for c in _random_coverings(5 if kind == "open" else 6, kind, 12):
            assert _outcome(cover.data_of_covering, c) == _outcome(ref.data_of_covering, c)
            gd = cover.data_of_covering(c)
            try:
                cones = _cones(gd, rng, 2)
            except TopoglueError:
                cones = []
            _same_everywhere(gd, cones)

    def test_data_of_covering_on_digital_circles(self):
        for k in (3, 6):
            base = digital_circle(4 * k)
            m = 4 * k
            # neighbouring arcs share two cells: wider overlaps than digital_circle_data's
            arcs = [
                [f"o{s % m}" for s in range(4 * j, 4 * j + 6)]
                + [f"c{s % m}" for s in range(4 * j, 4 * j + 5)]
                for j in range(k)
            ]
            c = cover.Covering(base, [subspace(base, a) for a in arcs], "open")
            assert _outcome(cover.data_of_covering, c) == _outcome(ref.data_of_covering, c)

    def test_redirected_entries(self):
        rng = random.Random(23)
        lawful = [digital_circle_data(12, 3), digital_circle_data(24, 6)]
        for gd in lawful:
            glued = glue.glue(gd)
            for _ in range(6):
                for mutate in (mutate_transition, mutate_triple, _mutated_anchor):
                    _same_everywhere(mutate(rng, gd), [glued])


def _empty_triple(gd):
    """Labels (i, j, k), j < k, of an empty triple space [i|{j,k}] with nonempty overlaps [i,j], [i,k]."""
    return next(
        (i, j, k)
        for obj, sp in gd.triple_space.items()
        if not sp.points
        for i, (j, k) in [(obj.head, obj.rest)]
        if i not in (j, k) and gd.overlap[(i, j)].points and gd.overlap[(i, k)].points
    )


def _empty_pair(gd):
    return next(key for key, sp in gd.overlap.items() if not sp.points)


class TestMistypedMapsOutOfEmptyObjects:
    """Each datum breaks the typing of one map out of an empty object; the shortcut must see it."""

    gd = digital_circle_data(24, 6)

    def _check(self, gd):
        _same_everywhere(gd, [glue.glue(self.gd)])

    def test_triple_transition_into_the_wrong_space(self):
        i, j, k = _empty_triple(self.gd)
        key = (j, i, k)
        wrong = SpaceMap(self.gd.triple_transition[key].dom, self.gd.patch[i], {})
        self._check(replace(self.gd, triple_transition={**self.gd.triple_transition, key: wrong}))

    def test_triple_transition_out_of_the_wrong_space(self):
        i, j, k = _empty_triple(self.gd)
        key = (i, k, j)
        old = self.gd.triple_transition[key]
        wrong = SpaceMap(self.gd.patch[i], old.cod, {})
        self._check(replace(self.gd, triple_transition={**self.gd.triple_transition, key: wrong}))

    def test_triple_transition_into_an_equal_space_under_another_name(self):
        i, j, k = _empty_triple(self.gd)
        key = (i, j, k)
        old = self.gd.triple_transition[key]
        renamed = SpaceMap(old.dom, fintop.FiniteSpace("elsewhere", (), {}), {})
        self._check(replace(self.gd, triple_transition={**self.gd.triple_transition, key: renamed}))

    def test_transition_out_of_an_empty_overlap_into_the_wrong_space(self):
        i, j = _empty_pair(self.gd)
        old = self.gd.transition[(i, j)]
        wrong = SpaceMap(old.dom, self.gd.patch[j], {})
        self._check(replace(self.gd, transition={**self.gd.transition, (i, j): wrong}))

    def test_transition_into_the_wrong_space_before_deriving(self):
        i, j, k = _empty_triple(self.gd)
        old = self.gd.transition[(i, j)]
        wrong = SpaceMap(old.dom, self.gd.patch[j], old.table)
        bare = replace(self.gd, transition={**self.gd.transition, (i, j): wrong}, triple_transition={})
        assert _outcome(derive_triple_maps, bare) == _outcome(ref.derive_triple_maps, bare)

    def test_projection_into_the_wrong_space(self):
        i, j, k = _empty_triple(self.gd)
        obj = normalize((i, j, k))
        old = self.gd.triple_proj[(obj, j)]
        wrong = SpaceMap(old.dom, self.gd.patch[j], {})
        self._check(replace(self.gd, triple_proj={**self.gd.triple_proj, (obj, j): wrong}))

    def test_anchor_out_of_an_empty_overlap_into_the_wrong_patch(self):
        i, j = _empty_pair(self.gd)
        old = self.gd.anchor[(i, j)]
        wrong = SpaceMap(old.dom, self.gd.patch[j], {})
        self._check(replace(self.gd, anchor={**self.gd.anchor, (i, j): wrong}))

    def test_cone_leg_with_the_wrong_domain(self):
        glued = glue.glue(self.gd)
        # the patch's first face is an empty overlap: the wrong leg first meets a map out of an empty space
        i = next(i for i in self.gd.index if not self.gd.overlap[(i, min(set(self.gd.index) - {i}))].points)
        other = next(j for j in self.gd.index if j != i)
        singles = {n: glued.leg(single(n)) for n in self.gd.index}
        singles[i] = glued.leg(single(other))
        assert _outcome(glue.complete_cone, self.gd, glued.apex, singles) == _outcome(
            ref.complete_cone, self.gd, glued.apex, singles
        )
        assert _outcome(glue.complete_cone, self.gd, glued.apex, singles)[0] == "raises"

    def test_cone_leg_out_of_an_empty_object_into_the_wrong_apex(self):
        glued = glue.glue(self.gd)
        i, j = _empty_pair(self.gd)
        legs = dict(glued.legs)
        legs[pair(i, j)] = SpaceMap(legs[pair(i, j)].dom, self.gd.patch[i], {})
        cone = Cone(glued.apex, legs)
        for mode in CONE_MODES:
            assert _outcome(glue.cone_failure, self.gd, cone, mode) == _outcome(
                ref.cone_failure, self.gd, cone, mode
            )


class TestTripleTypingUnrolled:
    """The law pass types an empty triple's two diagrams with ``_diagrams_typed``; ``composable`` is its reference."""

    @staticmethod
    def _typed_both_ways(maps):
        fwd, after, alt, back, transition, coord = maps
        expect = fintop.composable((after, fwd), (alt,)) and fintop.composable((back, fwd), (transition, coord))
        assert gdata._diagrams_typed(*maps) == expect
        return expect

    def test_each_endpoint_moved_alone(self):
        def space(name):
            return fintop.FiniteSpace(name, (name,), {name: {name}})

        s_ijk, s_jik, s_kij, o_ij, o_ji = map(space, ("ijk", "jik", "kij", "ij", "ji"))
        ends = [  # fwd, after, alt, back, transition, coord
            (s_ijk, s_jik), (s_jik, s_kij), (s_ijk, s_kij), (s_jik, o_ji), (o_ij, o_ji), (s_ijk, o_ij),
        ]
        assert self._typed_both_ways([SpaceMap(d, c, {}) for d, c in ends])
        for pos, end in product(range(len(ends)), (0, 1)):
            here = ends[pos][end]
            renamed = fintop.FiniteSpace("renamed", here.points, here.min_open)
            for moved_to, typed in ((space("elsewhere"), False), (renamed, True)):
                moved = [list(e) for e in ends]
                moved[pos][end] = moved_to
                assert self._typed_both_ways([SpaceMap(d, c, {}) for d, c in moved]) is typed


class TestMapPropertiesOneAtATime:
    """Rows that ask for one property of a leg or map; the full ``analyze_map`` is the reference."""

    def test_continuous_injective_leg_that_is_not_an_embedding(self):
        gd = trivial_data(disc2())
        leg = SpaceMap(disc2(), sierp(), {"a": "t", "b": "b"})
        cone = Cone(sierp(), {single("1"): leg})
        _same_everywhere(gd, [cone])
        assert not glue.check_otop(gd, cone).passed

    def test_maps_that_are_not_open(self):
        gd = trivial_data(sierp())
        flip = SpaceMap(sierp(), sierp(), {"t": "b", "b": "b"})
        for table in ("anchor", "transition"):
            broken = replace(gd, **{table: {("1", "1"): flip}})
            glued = glue.glue(gd)
            _same_everywhere(broken, [glued])
            assert not glue.check_otop(broken, glued).applicable

    def test_random_maps_and_leg_families(self):
        rng = random.Random(11)
        for n in range(80):
            a = cover.random_space(rng, max_points=4, space_id=f"A{n}")
            b = cover.random_space(rng, max_points=4, space_id=f"B{n}")
            f = SpaceMap(a, b, {x: rng.choice(sorted(b.points)) for x in a.points})
            assert fintop.is_homeomorphism(f) == ref.analyze_map(f).homeomorphism
            assert fintop.analyze_map(f) == ref.analyze_map(f).witnesses
            for kind in ("gluing", "open"):
                c = cover.Covering(b, [(a, f), (b, fintop.identity_map(b))], kind)
                assert _outcome(cover.check_covering, c) == _outcome(ref.check_covering, c)


class TestPullbackOfDisjointImages:
    def test_same_as_the_fiber_scan(self):
        rng = random.Random(3)
        base = digital_circle(8)
        points = sorted(base.points)
        for _ in range(60):
            f = subspace(base, rng.sample(points, rng.randint(0, 5)))[1]
            g = subspace(base, rng.sample(points, rng.randint(0, 5)))[1]
            if rng.random() < 0.2:  # a table gap: the scan names it
                g = SpaceMap(g.dom, g.cod, dict(list(g.table.items())[1:]))
            assert _outcome(fintop.pullback, f, g) == _outcome(ref.pullback, f, g)
            assert _outcome(fintop.pullback, f, g, "T") == _outcome(ref.pullback, f, g, "T")


class TestEmptyObjectsCostNoComparison:
    """On DC_48 covered by six arcs, 96 of the 126 objects are empty."""

    def test_table_comparisons_and_lifts_see_only_nonempty_domains(self, monkeypatch):
        """``disagreement`` answers for an empty domain before it reads a table."""
        calls = {"images": [], "lift": []}
        real_images, real_lift = fintop._images, fintop.lift

        def counted_images(path, points):
            calls["images"].append(bool(points))
            return real_images(path, points)

        def counted_lift(want, along):
            calls["lift"].append(bool(want[0].dom.points))
            return real_lift(want, along)

        gd = digital_circle_data(48, 6)
        glued = glue.glue(gd)
        cone = Cone(glued.apex, dict(glued.legs))
        bare = replace(gd, triple_transition={})
        monkeypatch.setattr(fintop, "_images", counted_images)
        monkeypatch.setattr(fintop, "lift", counted_lift)
        assert gdata.validate(replace(gd)).passed
        for mode in CONE_MODES:
            assert glue.check_cone(gd, cone, mode)
        derive_triple_maps(bare)
        assert calls["images"] and all(calls["images"])
        assert calls["lift"] and all(calls["lift"])

    def test_empty_typed_triples_build_no_rows_or_maps(self, monkeypatch):
        """The law pass shares the plan's rows for them, and the triple derivation builds no row."""
        gd = digital_circle_data(48, 6)
        bare = replace(gd, triple_transition={})
        gdata._check_laws(gd)  # the index set's law plan is built on first use
        calls = Counter()

        def counted(name, real):
            def call(*args):
                calls[name] += 1
                return real(*args)

            return call

        monkeypatch.setattr(gdata.CheckEntry, "__init__", counted("row", gdata.CheckEntry.__init__))
        rows = gdata._check_laws(replace(gd)).entries
        empty = sum(not gd.space_of(normalize(t)).points for t in product(gd.index, repeat=3))
        shared = 3 * empty + sum(e.name == "degenerate-triple" for e in rows)
        assert empty == 174 and calls["row"] == len(rows) - shared
        calls.clear()
        derive_triple_maps(bare)
        assert not calls
