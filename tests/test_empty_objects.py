"""The nerve against the dense reference, the maps out of empty objects, and the nerve's counts.

On a sparse covering most overlaps and triple spaces are empty.  A datum
stores only its nerve (every patch and the objects whose spaces have points)
and the library walks only that; ``empty_reference`` keeps the dense loops
over every object of the index category.  The guard compares the nerve's
rows, witnesses, maps and raised errors with the dense ones on the nerve's
objects (``empty_reference.on_nerve``) on digital circles, seeded random
coverings and the benchmark's three mutation kinds, and checks that the
nerve is the full subcategory of ``glidx`` on its objects, in order.  A map
given out of an empty object must be the empty map into the right space,
else construction fails.  The count guard checks that the objects and edges
each stage visits grow with the nerve, not with |I|^3.
"""

from __future__ import annotations

import random
import re
from collections import Counter
from dataclasses import replace
from itertools import product

import pytest

import empty_reference as ref
from cone_reference import dense_cone
from conftest import (
    absent_pairs,
    digital_circle,
    digital_circle_covering,
    digital_circle_data,
    mutate_transition,
    mutate_triple,
    random_lawful_data,
)
from topoglue import cover, dot, fintop, gdata, glidx, glue, refine
from topoglue.errors import CompositionMismatch, TopoglueError, UnknownPoint, UnresolvedReference
from topoglue.fintop import FiniteSpace, SpaceMap, subspace
from topoglue.fixtures import cylinder_data, disc2, gd_circ, sierp, trivial_data
from topoglue.gdata import EMPTY, derive_triple_maps, functor_of, make_gluing_data
from topoglue.glidx import normalize, pair, single
from topoglue.glue import CONE_MODES, Cone


def _ends(m):
    return (m.dom.space_id, m.dom, m.cod.space_id, m.cod, dict(m.table))


def _plain(value):
    """A comparable form of a result: maps by their ends and tables, reports by their rows."""
    if isinstance(value, SpaceMap):
        return _ends(value)
    if isinstance(value, FiniteSpace):
        return (value.space_id, value)
    if isinstance(value, gdata.Report):
        return (type(value).__name__, value.entries)
    if isinstance(value, gdata.GluingData):
        return tuple(_plain(getattr(value, name)) for name in (
            "index", "patch", "overlap", "anchor", "transition",
            "triple_transition", "triple_space", "triple_proj",
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


def _rows_then_error(check, *args):
    """The rows a report check adds, also those before an error it raises, then that error."""
    rows, add = [], gdata.Report.add

    def recorded(self, *row):
        rows.append(gdata.CheckEntry(*row))
        add(self, *row)

    gdata.Report.add = recorded
    try:
        check(*args)
        error = None
    except (TopoglueError, KeyError) as exc:
        error = type(exc).__name__, str(exc)
    finally:
        gdata.Report.add = add
    return rows, error


def _same_rows(gd, check, reference, *args):
    """The check's rows are the reference's rows on the nerve, and both raise alike."""
    rows, error = _rows_then_error(check, *args)
    ref_rows, ref_error = _rows_then_error(reference, *args)
    assert (rows, error) == (ref.on_nerve(gd, ref_rows), ref_error)


def _maps(fn, *args):
    """The maps a call returns, by their ends and tables, or the type and message of what it raises."""
    try:
        maps = fn(*args)
    except (TopoglueError, KeyError) as exc:
        return "raises", type(exc).__name__, str(exc)
    return "value", {key: _ends(m) for key, m in maps.items()}


def _on_nerve_maps(outcome, stored):
    """A dense outcome's maps at the keys ``stored`` keeps; the others must run out of no points."""
    if outcome[0] != "value":
        return outcome
    maps = outcome[1]
    assert all(not maps[key][1].points for key in maps if not stored(key))
    return "value", {key: m for key, m in maps.items() if stored(key)}


def _nonempty_triples(tables):
    spaces, projs = tables
    return (
        {obj: sp for obj, sp in spaces.items() if sp.points},
        {key: f for key, f in projs.items() if f.dom.points},
    )


def _same_everywhere(gd, cones=()):
    """Every loop that walks the nerve agrees with its dense reference on ``gd`` and the cones."""
    _same_rows(gd, gdata._check_laws, ref.check_laws, gd)
    bare = replace(gd, triple_transition={})
    derived = _maps(lambda d: derive_triple_maps(d).triple_transition, bare)
    dense = _maps(ref.derive_triple_maps, bare)
    assert derived == _on_nerve_maps(dense, lambda key: gd.stores(normalize(key)))
    assert _outcome(gdata._triple_tables, gd.index, gd.overlap, gd.anchor) == _outcome(
        lambda: _nonempty_triples(ref.triple_tables(gd))
    )
    for cone in cones:
        for mode in CONE_MODES:
            assert _outcome(glue.cone_failure, gd, cone, mode) == _outcome(
                ref.cone_failure, gd, cone, mode
            )
        _same_rows(gd, glue.check_glued_properties, ref.check_glued_properties, gd, cone)
        _same_rows(gd, glue.check_otop, ref.check_otop, gd, cone)
        if all(single(i) in cone.legs for i in gd.index):
            singles = {i: cone.leg(single(i)) for i in gd.index}
            completed = _maps(lambda *a: glue.complete_cone(*a).legs, gd, cone.apex, singles)
            dense = _maps(lambda *a: ref.complete_cone(*a).legs, gd, cone.apex, singles)
            assert completed == _on_nerve_maps(dense, gd.stores)


def _redirected(glued, rng, moves):
    """The glued cone with a few points of its legs sent elsewhere in the apex."""
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
        cones.append(_squashed(gd, glued))
    return cones


def _squashed(gd, glued):
    """The cone of the glued legs followed by a map onto one point: patches that do not
    overlap meet in the apex, which fails (e) over their empty overlap."""
    apex = fintop.FiniteSpace("one", ("p",), {"p": frozenset({"p"})})
    to_point = SpaceMap(glued.apex, apex, dict.fromkeys(glued.apex.points, "p"))
    return Cone(apex, {obj: fintop.compose(to_point, leg) for obj, leg in glued.legs.items()})


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


MUTATIONS = {"anchor": _mutated_anchor, "transition": mutate_transition, "triple": mutate_triple}


def _restricted(gd):
    """``glidx``'s objects, edges and law subjects restricted in order to what ``gd`` stores,
    with the sources of the kept eta and eta3 edges into each object as its faces."""
    kept = [o for o in glidx.objects(gd.index) if o.arity == 1 or gd.space_of(o).points]
    members = set(kept)
    edges = [(dc, g) for dc, g in glidx.edges(gd.index).items() if members.issuperset(dc)]
    into: dict = {}
    for (d, c), g in edges:
        if g.kind in ("eta", "eta3"):
            into.setdefault(c, []).append(d)
    faces = [(o, tuple(into[o])) for o in kept if o in into]
    pairs = [(i, j) for i, j in product(gd.index, repeat=2) if pair(i, j) in members]
    triples = [key for key in product(gd.index, repeat=3) if normalize(key) in members]
    return tuple(kept), edges, faces, pairs, triples


def _nerve_lists(gd):
    """The nerve's objects, edges, faces (``glidx.faces_of`` of each pair and triple) and law subjects."""
    nerve = gd.nerve
    faces = [(o, glidx.faces_of(o)) for o in nerve.objects if o.arity > 1]
    return nerve.objects, list(nerve.edges.items()), faces, list(nerve.pairs), list(nerve.triples)


class TestSameAsReference:
    @pytest.mark.parametrize("k", [3, 4, 6, 12])
    def test_digital_circles(self, k):
        gd = digital_circle_data(4 * k, k)
        assert _nerve_lists(gd) == _restricted(gd)
        _same_everywhere(gd, _cones(gd, random.Random(k), 3 if k < 12 else 1))

    @pytest.mark.parametrize("kind", ["gluing", "open"])
    def test_seeded_random_coverings(self, kind):
        rng = random.Random(17)
        for c in _random_coverings(5 if kind == "open" else 6, kind, 12):
            assert _outcome(cover.data_of_covering, c) == _outcome(ref.data_of_covering, c)
            gd = cover.data_of_covering(c)
            assert _nerve_lists(gd) == _restricted(gd)
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

    @pytest.mark.parametrize("kind", sorted(MUTATIONS))
    def test_mutants(self, kind):
        rng = random.Random(23)
        for gd in (digital_circle_data(12, 3), digital_circle_data(24, 6)):
            glued = glue.glue(gd)
            for _ in range(6):
                mutant = MUTATIONS[kind](rng, gd)
                assert _nerve_lists(mutant) == _restricted(mutant)
                _same_everywhere(mutant, [glued])


class TestRoundTrips:
    """The benchmark's mutants rebuild a datum from a datum's own tables; that must give it back."""

    @staticmethod
    def _data():
        data = [digital_circle_data(4 * k, k) for k in (3, 4, 6)]
        for kind in ("gluing", "open"):
            data += [cover.data_of_covering(c) for c in _random_coverings(31, kind, 6)]
        return data

    def test_make_gluing_data_rebuilds_the_datum(self):
        for gd in self._data():
            tables = (gd.index, gd.patch, gd.overlap, gd.anchor, gd.transition)
            assert make_gluing_data(*tables, gd.triple_transition) == gd
            bare = make_gluing_data(*tables)
            assert derive_triple_maps(bare) == gd
            # the benchmark copies the tables into plain dicts first
            copied = [dict(t) for t in tables[2:]]
            assert make_gluing_data(gd.index, gd.patch, *copied, dict(gd.triple_transition)) == gd

    def test_absent_pairs_read_as_the_shared_empty_space(self):
        gd = digital_circle_data(24, 6)
        absent = absent_pairs(gd)
        assert len(absent) == 36 - 18 and len(gd.overlap) == len(gd.nerve.pairs) == 6 + 12
        for i, j in absent:
            assert (i, j) not in gd.overlap and (i, j) not in gd.anchor and (i, j) not in gd.transition
            assert gd.space_of(pair(i, j)) is EMPTY
            assert gd.map(single(i), pair(i, j)) == SpaceMap(EMPTY, gd.patch[i], {})
            assert gd.map(pair(j, i), pair(i, j)) == SpaceMap(EMPTY, EMPTY, {})
            with pytest.raises(KeyError):
                gd.anchor[(i, j)]
        assert ("0", "9") not in gd.overlap
        with pytest.raises(KeyError):
            gd.overlap[("0", "9")]


class TestOmittedPairs:
    """The pair tables hold the nerve's pairs only, and an omitted pair is the empty overlap."""

    @staticmethod
    def _data():
        rng = random.Random(29)
        data = [random_lawful_data(rng) for _ in range(12)]
        return data + [gd_circ(), cylinder_data("1"), digital_circle_data(16, 4), digital_circle_data(24, 6)]

    @staticmethod
    def _with_empty_entries(gd):
        """The datum's pair tables with an explicit empty entry for every absent pair, each
        through its own empty space: the overlap, its anchor into the patch, and its
        transition into the opposite (also empty) overlap."""
        overlap, anchor, transition = dict(gd.overlap), dict(gd.anchor), dict(gd.transition)
        for i, j in absent_pairs(gd):
            overlap[(i, j)] = FiniteSpace(f"E{i},{j}", (), {})
            anchor[(i, j)] = SpaceMap(overlap[(i, j)], gd.patch[i], {})
            transition[(i, j)] = SpaceMap(overlap[(i, j)], FiniteSpace(f"E{j},{i}", (), {}), {})
        return overlap, anchor, transition

    def test_omitted_pairs_give_the_datum_explicit_empty_entries_give(self):
        data = self._data()
        assert sum(len(absent_pairs(gd)) for gd in data) >= 20
        for gd in data:
            dense = self._with_empty_entries(gd)
            sparse = (gd.overlap, gd.anchor, gd.transition)
            for triples in (gd.triple_transition, None):
                built = make_gluing_data(gd.index, gd.patch, *sparse, triples)
                assert built == make_gluing_data(gd.index, gd.patch, *dense, triples)
                assert (built if triples else derive_triple_maps(built)) == gd

    def test_pair_tables_hold_the_nerve_pairs(self):
        for gd in self._data():
            dense = make_gluing_data(gd.index, gd.patch, *self._with_empty_entries(gd), gd.triple_transition)
            for datum in (gd, dense):
                pairs = datum.nerve.pairs
                assert len(datum.overlap) == len(datum.anchor) == len(datum.transition) == len(pairs)
                assert tuple(datum.overlap) == tuple(datum.anchor) == tuple(datum.transition) == pairs
        gd = digital_circle_data(4 * 48, 48)
        assert len(gd.overlap) == len(gd.anchor) == len(gd.transition) == 3 * 48 < 48 * 48

    def test_nerve_pair_without_its_maps_is_unresolved(self):
        gd = digital_circle_data(16, 4)
        i, j = next(key for key in gd.nerve.pairs if key[0] != key[1])
        anchor = {key: f for key, f in gd.anchor.items() if key != (i, j)}
        with pytest.raises(UnresolvedReference, match=re.escape(f"[{(i, j)!r}] need an overlap, an anchor")):
            make_gluing_data(gd.index, gd.patch, gd.overlap, anchor, gd.transition)

    def test_data_of_covering_builds_maps_linear_in_the_arcs(self, monkeypatch):
        """``SpaceMap`` constructions in ``data_of_covering`` on DC_{4k}: doubling k at most
        about doubles them, and no map is given out of an empty overlap."""
        built, emptied = Counter(), Counter()
        init, require = SpaceMap.__init__, gdata._require_empty

        def counted_init(self, *args, **kwargs):
            built[None] += 1
            init(self, *args, **kwargs)

        def counted_require(*args):
            emptied[None] += 1
            return require(*args)

        monkeypatch.setattr(SpaceMap, "__init__", counted_init)
        monkeypatch.setattr(gdata, "_require_empty", counted_require)
        counts = {}
        for k in (12, 24, 48):
            c = digital_circle_covering(4 * k, k)
            built.clear()
            gd = cover.data_of_covering(c)
            counts[k] = built[None]
            assert len(gd.overlap) == 3 * k
        assert emptied[None] == 0
        assert counts[24] <= 2.2 * counts[12] and counts[48] <= 2.2 * counts[24], counts


def _empty_pair(gd):
    return absent_pairs(gd)[0]


def _empty_triple(gd):
    """Labels (i, j, k), j < k, of an empty triple [i|{j,k}] whose overlaps [i,j], [i,k] have points."""
    return next(
        (i, j, k)
        for i, j, k in product(gd.index, repeat=3)
        if i not in (j, k) and j < k
        and gd.space_of(pair(i, j)).points and gd.space_of(pair(i, k)).points
        and not gd.stores(normalize((i, j, k)))
    )


class TestMapsOutOfEmptyObjects:
    """A map given out of an empty object must be the empty map into the right space."""

    gd = digital_circle_data(24, 6)

    def _tables(self, **changes):
        tables = {
            "overlap": dict(self.gd.overlap),
            "anchor": dict(self.gd.anchor),
            "transition": dict(self.gd.transition),
        }
        for name, (key, f) in changes.items():
            tables[name][key] = f
        return tables

    def _rejected(self, build):
        with pytest.raises(CompositionMismatch, match="leaves an empty object") as info:
            build()
        assert info.value.exit_code == 2

    def test_anchor_into_the_wrong_patch(self):
        i, j = _empty_pair(self.gd)
        wrong = SpaceMap(EMPTY, self.gd.patch[j], {})
        tables = self._tables(anchor=((i, j), wrong))
        self._rejected(lambda: make_gluing_data(self.gd.index, self.gd.patch, **tables))
        self._rejected(lambda: replace(self.gd, anchor=tables["anchor"]))

    def test_transition_into_the_wrong_space(self):
        i, j = _empty_pair(self.gd)
        wrong = SpaceMap(EMPTY, self.gd.patch[j], {})
        tables = self._tables(transition=((i, j), wrong))
        self._rejected(lambda: make_gluing_data(self.gd.index, self.gd.patch, **tables))

    def test_anchor_with_a_point_out_of_an_empty_overlap(self):
        # such an anchor is refused where it is built, so no datum can be given it
        i, _ = _empty_pair(self.gd)
        x = min(self.gd.patch[i].points)
        with pytest.raises(UnknownPoint, match=re.escape(f"{x!r} is not a point of {EMPTY.space_id!r}")) as info:
            SpaceMap(EMPTY, self.gd.patch[i], {x: x})
        assert info.value.exit_code == 2

    def test_maps_into_an_equal_space_under_another_name_are_dropped(self):
        i, j = _empty_pair(self.gd)
        named = FiniteSpace("elsewhere", (), {})
        tables = self._tables(
            overlap=((i, j), named),
            anchor=((i, j), SpaceMap(named, self.gd.patch[i], {})),
            transition=((i, j), SpaceMap(named, FiniteSpace("there", (), {}), {})),
        )
        rebuilt = make_gluing_data(self.gd.index, self.gd.patch, **tables, triple_transition=self.gd.triple_transition)
        assert rebuilt == self.gd and (i, j) not in rebuilt.overlap and rebuilt.space_of(pair(i, j)) is EMPTY

    def test_empty_triple_transition_outside_the_nerve_is_dropped(self):
        i, j, k = _empty_triple(self.gd)
        given = {**self.gd.triple_transition, (i, j, k): SpaceMap(FiniteSpace("T", (), {}), EMPTY, {})}
        tables = (self.gd.index, self.gd.patch, self.gd.overlap, self.gd.anchor, self.gd.transition)
        assert make_gluing_data(*tables, given) == self.gd
        assert (i, j, k) not in make_gluing_data(*tables, given).triple_transition

    @pytest.mark.parametrize("where", ["cod", "dom", "table"])
    def test_other_triple_transition_outside_the_nerve_is_rejected(self, where):
        i, j, k = _empty_triple(self.gd)
        patch = self.gd.patch[i]
        x = min(patch.points)
        wrong, refused = {
            "cod": (lambda: SpaceMap(EMPTY, patch, {}), None),
            # a map from points into no points, or out of no points with a table, cannot be built
            "dom": (lambda: SpaceMap(patch, EMPTY, {}), f"{x!r} of {patch.space_id!r} has no image"),
            "table": (lambda: SpaceMap(EMPTY, EMPTY, {x: x}), f"{x!r} is not a point of {EMPTY.space_id!r}"),
        }[where]
        if refused is not None:
            with pytest.raises(UnknownPoint, match=re.escape(refused)):
                wrong()
            return
        given = {**self.gd.triple_transition, (i, j, k): wrong()}
        tables = (self.gd.index, self.gd.patch, self.gd.overlap, self.gd.anchor, self.gd.transition)
        self._rejected(lambda: make_gluing_data(*tables, given))

    @pytest.mark.parametrize("first_overlap", ["has points", "is empty"])
    def test_cone_leg_with_the_wrong_domain(self, first_overlap):
        gd, glued = self.gd, glue.glue(self.gd)
        i = next(
            i for i in gd.index
            if bool(gd.space_of(pair(i, min(set(gd.index) - {i}))).points) == (first_overlap == "has points")
        )
        other = next(j for j in gd.index if j != i)
        singles = {n: glued.leg(single(n)) for n in gd.index}
        singles[i] = glued.leg(single(other))
        got = _outcome(glue.complete_cone, gd, glued.apex, singles)
        if first_overlap == "has points":
            # the wrong leg first meets the anchor of its first overlap, which the nerve holds
            assert got == _outcome(ref.complete_cone, gd, glued.apex, singles)
        else:
            # the dense loop meets the empty overlap's anchor first; the nerve, its first overlap with points
            j = next(j for j in gd.index if j != i and (i, j) in gd.overlap)
            assert got == _outcome(fintop.compose, singles[i], gd.anchor[(i, j)])
            assert got[:2] == ("raises", "CompositionMismatch")

    def test_cone_legs_at_empty_objects_are_not_read(self):
        glued = glue.glue(self.gd)
        i, j = _empty_pair(self.gd)
        assert pair(i, j) not in glued.legs
        legs = {**glued.legs, pair(i, j): SpaceMap(EMPTY, self.gd.patch[i], {})}
        cone = Cone(glued.apex, legs)
        assert all(glue.check_cone(self.gd, cone, mode) for mode in CONE_MODES)
        assert ref.cone_failure(self.gd, dense_cone(self.gd, glued), "full") is None


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
            if rng.random() < 0.2 and g.table:  # a table gap is refused where the map is built
                gap = dict(list(g.table.items())[1:])
                with pytest.raises(UnknownPoint, match=re.escape(f"{min(g.dom.points - gap.keys())!r} of ")):
                    SpaceMap(g.dom, g.cod, gap)
            assert _outcome(fintop.pullback, f, g) == _outcome(ref.pullback, f, g)
            assert _outcome(fintop.pullback, f, g, "T") == _outcome(ref.pullback, f, g, "T")


COUNTED = ("space_of", "_generator_image", "disagreement", "compose", "lift", "pullback")


def _stage_visits(k, monkeypatch):
    """Per stage, the calls on DC_{4k} covered by k arcs that visit an object or an edge.

    Counted: ``GluingData.space_of`` (an object read), ``_generator_image``
    (an edge read), every ``SpaceMap`` built, and every table-level call
    (``disagreement``, ``compose``, ``lift``, ``pullback``), wherever a
    module reads it.
    """
    calls = Counter()

    def counted(real):
        def call(*args, **kwargs):
            calls[None] += 1
            return real(*args, **kwargs)

        return call

    for module in (fintop, gdata, glue, cover, refine, dot):
        for name in COUNTED:
            if name in vars(module) and callable(vars(module)[name]):
                monkeypatch.setattr(module, name, counted(vars(module)[name]))
    monkeypatch.setattr(gdata.GluingData, "space_of", counted(gdata.GluingData.space_of))
    monkeypatch.setattr(SpaceMap, "__init__", counted(SpaceMap.__init__))
    m = 4 * k
    base = digital_circle(m)
    arcs = [
        [f"o{s % m}" for s in range(j * 4, j * 4 + 6)] + [f"c{s % m}" for s in range(j * 4, j * 4 + 5)]
        for j in range(k)
    ]
    c = cover.Covering(base, [subspace(base, a) for a in arcs], "open")
    visits = {}

    def stage(name, fn, *args):
        calls.clear()
        out = fn(*args)
        visits[name] = calls[None]
        return out

    gd = stage("data_of_covering", cover.data_of_covering, c)
    bare = replace(gd, triple_transition={})
    stage("derive_triple_maps", derive_triple_maps, bare)
    stage("validate", gdata.validate, gd)
    fun = stage("functor_of", functor_of, gd)
    glued = stage("glue", glue.glue, gd)
    cone = Cone(glued.apex, dict(glued.legs))
    for mode in CONE_MODES:
        stage(f"check_cone.{mode}", glue.check_cone, gd, cone, mode)
    singles = {i: glued.leg(single(i)) for i in gd.index}
    stage("complete_cone", glue.complete_cone, gd, glued.apex, singles)
    stage("check_glued_properties", glue.check_glued_properties, gd, glued)
    stage("check_otop", glue.check_otop, gd, glued)
    stage("functor_of_covering", cover.functor_of_covering, c)
    gamma = {i: i for i in gd.index}
    patches = {single(i): fintop.identity_map(gd.patch[i]) for i in gd.index}
    r = stage("Refinement", refine.Refinement, gamma, fun, fun, patches)
    stage("check_refinement", refine.check_refinement, r)
    stage("render_gluing", dot.render_gluing, "G", gd, glued)
    return visits


class TestVisitsGrowWithTheNerve:
    """Doubling the arcs doubles the nerve (5k objects) but multiplies |I|^3 by 8.

    The guard counts calls, not time, so a slow or busy host cannot flip it.
    """

    def test_each_stage_visits_at_most_2_2_times_more_at_twice_the_arcs(self, monkeypatch):
        small = _stage_visits(12, monkeypatch)
        large = _stage_visits(24, monkeypatch)
        # functor_of is validate, whose verdict the datum keeps, and a view of the datum
        assert small.pop("functor_of") == large.pop("functor_of") == 0
        growth = {name: large[name] / small[name] for name in small}
        assert all(small.values())
        assert max(growth.values()) <= 2.2, growth

    def test_the_nerve_is_five_objects_per_arc(self):
        for k in (6, 12, 24):
            gd = digital_circle_data(4 * k, k)
            counts = Counter(obj.arity for obj in gd.nerve.objects)
            assert counts == {1: k, 2: 2 * k, 3: 2 * k}
            assert len(gd.nerve.triples) == 7 * k
