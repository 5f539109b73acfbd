import random
from dataclasses import FrozenInstanceError

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import digital_circle_data, random_lawful_data
from oracles import all_tuples, tuple_equivalence
from paths import find_path
from topoglue import glidx
from topoglue.errors import BadArity, CompositionMismatch
from topoglue.gdata import Report
from topoglue.glidx import (
    GlGen,
    GlObject,
    compose_path,
    edges,
    normalize,
    objects,
    pair,
    raw_generators,
    relation_instances,
    single,
    verify_relations,
)

I2 = ("1", "2")
I3 = ("1", "2", "3")


class TestNormalize:
    def test_pair_collapse(self):
        assert normalize(("i", "i")) == single("i")

    def test_triple_tail_collapse(self):
        assert normalize(("i", "j", "j")) == pair("i", "j")
        assert normalize(("i", "i", "i")) == single("i")

    def test_triple_tail_swap(self):
        assert normalize(("i", "j", "k")) == normalize(("i", "k", "j"))

    def test_degenerate_triple_kept(self):
        t = normalize(("i", "i", "k"))
        assert t.arity == 3
        assert t != pair("i", "k")

    def test_a_directly_built_object_is_the_interned_one_for_tables(self):
        for built, interned in [
            (GlObject("i", ()), single("i")),
            (GlObject("i", ("j",)), pair("i", "j")),
            (GlObject("i", ("j", "k")), normalize(("i", "k", "j"))),
        ]:
            assert built == interned and hash(built) == hash(interned)
            assert hash(built) == hash((built.head, built.rest))
            assert {interned: 1}[built] == 1
            assert repr(built) == repr(interned)
        assert single("i") is single("i") and pair("i", "j") is pair("i", "j")
        with pytest.raises(FrozenInstanceError):
            single("i").head = "j"

    def test_bad_arity(self):
        with pytest.raises(BadArity):
            normalize(())
        with pytest.raises(BadArity):
            normalize(("a", "b", "c", "d"))

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_idempotent(self, data):
        idx = [f"i{k}" for k in range(data.draw(st.integers(1, 4)))]
        raw = data.draw(
            st.lists(st.sampled_from(idx), min_size=1, max_size=3).map(tuple)
        )
        obj = normalize(raw)
        again = normalize((obj.head,) + obj.rest)
        assert again == obj

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_agrees_with_closure_oracle(self, n):
        idx = [str(k) for k in range(n)]
        rep = tuple_equivalence(idx)
        for t1 in all_tuples(idx):
            for t2 in all_tuples(idx):
                assert (normalize(t1) == normalize(t2)) == (rep[t1] == rep[t2]), (t1, t2)


class TestObjects:
    def test_single_index(self):
        assert objects(("i",)) == (single("i"),)

    def test_two_indices_pair_level(self):
        obs = objects(I2)
        low = [o for o in obs if o.arity <= 2]
        assert low == [single("1"), single("2"), pair("1", "2"), pair("2", "1")]
        assert len([o for o in obs if o.arity == 3]) == 2

    def test_counts(self):
        # n singles, n(n-1) pairs, n*C(n,2) triples
        for n in (1, 2, 3, 4):
            idx = tuple(str(k) for k in range(n))
            obs = objects(idx)
            assert len([o for o in obs if o.arity == 1]) == n
            assert len([o for o in obs if o.arity == 2]) == n * (n - 1)
            assert len([o for o in obs if o.arity == 3]) == n * n * (n - 1) // 2

    def test_built_once_per_index_set(self):
        assert objects(I3) is objects(["3", "1", "2", "1"])
        assert edges(I3) is edges(reversed(I3))

    def test_tables_are_read_only(self):
        with pytest.raises(TypeError):
            edges(I3)[(single("1"), pair("1", "2"))] = GlGen("tau", ("1", "2"))
        with pytest.raises(TypeError):
            objects(I3)[0] = single("9")
        assert objects(I3)[0] == single("1")


class TestGenerators:
    def test_single_index_only_identities(self):
        assert all(g.dom == g.cod for g in raw_generators(("i",)))
        assert not edges(("i",))

    def test_census_before_dedup(self):
        for n in (1, 2, 3):
            idx = tuple(str(k) for k in range(n))
            assert len(raw_generators(idx)) == 2 * n**2 + 3 * n**3

    def test_endpoints_normalized(self):
        for g in raw_generators(I3):
            assert g.dom in objects(I3)
            assert g.cod in objects(I3)

    @staticmethod
    def _first_raw_edges(index, objs):
        """The reference: walk ``raw_generators`` in order, keeping the first
        non-identity generator per endpoint pair whose ends are both in ``objs``."""
        kept, first = set(objs), {}
        for g in raw_generators(index):
            if g.dom != g.cod and g.dom in kept and g.cod in kept:
                first.setdefault((g.dom, g.cod), g)
        return list(first.items())

    @pytest.mark.parametrize("idx", [("i",), I2, I3])
    def test_edges_are_the_first_raw_generator_per_endpoint_pair(self, idx):
        assert list(edges(idx).items()) == self._first_raw_edges(idx, objects(idx))

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_restricted_edges_are_the_first_raw_generators_in_order(self, n):
        # [a]->[a,a,b] has the slots eta3(a,a,b,a) and eta3(a,b,a,a): raw order
        # picks the first, and the edge list follows that order too
        idx = tuple("abcde"[:n])
        rng = random.Random(n)
        for _ in range(30):
            objs = [o for o in objects(idx) if o.arity == 1 or rng.random() < 0.5]
            rng.shuffle(objs)
            assert list(glidx.restrict(objs).edges.items()) == self._first_raw_edges(idx, objs)

    def test_nerve_edges_are_the_first_raw_generators_in_order(self):
        rng = random.Random(3)
        data = [random_lawful_data(rng) for _ in range(12)] + [digital_circle_data(24, 6)]
        for gd in data:
            expected = self._first_raw_edges(gd.index, gd.nerve.objects)
            assert list(gd.nerve.edges.items()) == expected
            assert list(glidx.restrict(gd.nerve.objects).edges.items()) == expected


class TestFaces:
    def test_shapes(self):
        assert glidx.faces_of(pair("2", "3")) == (single("2"),)
        assert glidx.faces_of(normalize(("1", "2", "3"))) == (pair("1", "2"), pair("1", "3"))
        assert glidx.faces_of(normalize(("2", "1", "3"))) == (pair("2", "1"), pair("2", "3"))

    def test_degenerate_triple(self):
        # [i|{i,k}] has the patch [i] and the pair [i,k] as faces, in the order of rest
        assert glidx.faces_of(normalize(("1", "1", "3"))) == (single("1"), pair("1", "3"))
        assert glidx.faces_of(normalize(("3", "1", "3"))) == (pair("3", "1"), single("3"))

    @pytest.mark.parametrize("idx", [("i",), I2, I3, ("1", "2", "3", "4")])
    def test_faces_are_the_sources_of_the_eta_edges_into_each_object(self, idx):
        into: dict = {}
        for (d, c), g in edges(idx).items():
            if g.kind in ("eta", "eta3"):
                into.setdefault(c, []).append(d)
        assert list(into) == [o for o in objects(idx) if o.arity > 1]
        for obj, sources in into.items():
            ns = (obj.head,) if obj.arity == 2 else obj.rest
            assert glidx.faces_of(obj) == tuple(sources) == tuple(pair(obj.head, n) for n in ns)

    @pytest.mark.parametrize("idx", [I2, I3, ("1", "2", "3", "4")])
    def test_objects_in_display_order(self, idx):
        assert list(objects(idx)) == sorted(objects(idx), key=glidx.display_order)

    def test_built_once_and_read_only(self):
        assert objects(I3) is objects(reversed(I3))
        assert edges(I3) is edges(reversed(I3))
        with pytest.raises(TypeError):
            edges(I3)[(single("1"), pair("1", "2"))] = GlGen("tau", ("1", "2"))


class TestHom:
    """A morphism a -> b exists iff a generator path a -> b does."""

    def test_identity(self):
        a = pair("1", "2")
        assert find_path(I2, a, a) is not None

    def test_opposite_pairs_connected(self):
        assert find_path(I2, pair("2", "1"), pair("1", "2")) is not None

    @pytest.mark.parametrize(
        "a, b",
        [(single("9"), single("9")), (single("9"), single("1")), (single("1"), single("9"))],
        ids=["same", "dom", "cod"],
    )
    def test_none_unless_both_endpoints_are_objects(self, a, b):
        assert find_path(I2, a, b) is None

    def test_no_arrow_from_triple_to_single(self):
        triples = [o for o in objects(I3) if o.arity == 3]
        singles = [o for o in objects(I3) if o.arity == 1]
        for t in triples:
            for s in singles:
                assert find_path(I3, t, s) is None

    def test_degenerate_triple_isomorphic_to_pair(self):
        t = normalize(("1", "1", "2"))
        p = pair("1", "2")
        assert find_path(I2, t, p) is not None
        assert find_path(I2, p, t) is not None


class TestComposeHom:
    """Composition along generator paths (``compose_path``), compared by codomain."""

    def test_tau_tau_is_identity(self):
        p = pair("1", "2")
        roundtrip = (GlGen("tau", ("2", "1")), GlGen("tau", ("1", "2")))
        assert compose_path(p, roundtrip) == p

    def test_tau3_cocycle(self):
        i, j, k = I3
        dom = normalize((k, i, j))
        lhs = compose_path(dom, (GlGen("tau3", (j, k, i)), GlGen("tau3", (i, j, k))))
        assert lhs == compose_path(dom, (GlGen("tau3", (i, k, j)),))

    def test_eta3_square(self):
        i, j, k = I3
        lhs = compose_path(single(i), (GlGen("eta", (i, j)), GlGen("eta3", (i, j, k, j))))
        rhs = compose_path(single(i), (GlGen("eta", (i, k)), GlGen("eta3", (i, j, k, k))))
        assert lhs == rhs

    def test_mismatch(self):
        e12 = GlGen("eta", ("1", "2"))
        with pytest.raises(CompositionMismatch):
            compose_path(single("1"), (e12, e12))

    def test_associativity_on_samples(self):
        # the category is thin: every composable chain of three generator
        # edges composes to one reachable codomain, however it is split
        gens = list(edges(I3).values())
        by_dom = {}
        for g in gens:
            by_dom.setdefault(g.dom, []).append(g)
        checked = 0
        for f in gens:
            for g in by_dom.get(f.cod, []):
                for h in by_dom.get(g.cod, []):
                    whole = compose_path(f.dom, (f, g, h))
                    assert whole == h.cod and find_path(I3, f.dom, whole) is not None
                    assert compose_path(compose_path(f.dom, (f, g)), (h,)) == whole
                    checked += 1
        assert checked > 0

    def test_identity_laws(self):
        for g in raw_generators(I3):
            assert compose_path(g.dom, ()) == g.dom
            assert compose_path(g.dom, (g,)) == g.cod


class TestVerifyRelations:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_families_hold(self, n):
        idx = tuple(str(k) for k in range(n))
        rep = verify_relations(idx)
        assert rep.passed, str(rep)
        assert [(e.name, e.subject) for e in rep.entries] == [
            (family, "all") for family in ("(a)", "(b)", "(c1)", "(c2)", "(d)", "(e)")
        ]

    def test_a_failing_family_names_its_first_failing_instance(self, monkeypatch):
        s1, p12 = single("1"), pair("1", "2")
        eta, tau = GlGen("eta", ("1", "2")), GlGen("tau", ("1", "2"))
        instances = [
            ("(b) ok", p12, (GlGen("tau", ("2", "1")), tau), ()),
            ("(d) first", s1, (eta,), ()),
            ("(d) second", s1, (), (eta,)),
        ]
        monkeypatch.setattr(glidx, "relation_instances", lambda index: iter(instances))
        # the representatives are read from relation_instances once per label prefix
        glidx._representatives.cache_clear()
        try:
            rep = verify_relations(I2)
        finally:
            glidx._representatives.cache_clear()
        assert [e.name for e in rep.failures()] == ["(d)"]
        assert rep.failures()[0].witness == "(d) first: [1]->[1,2] != [1]->[1]"
        assert len(rep.entries) == 6

    def test_hom_uniqueness_under_closure(self):
        # every path between two objects denotes the same morphism: collect
        # all two-step composites and check them against a shortest path
        gens = list(edges(I3).values())
        by_dom = {}
        for g in gens:
            by_dom.setdefault(g.dom, []).append(g)
        for f in gens:
            for g in by_dom.get(f.cod, []):
                shortest = find_path(I3, f.dom, g.cod)
                assert shortest is not None
                assert compose_path(f.dom, (f, g)) == compose_path(f.dom, shortest)

    @pytest.mark.parametrize("n", range(1, 8))
    def test_rows_match_the_full_enumeration(self, n):
        idx = _labels(n)
        assert _outcome(verify_relations, idx) == _outcome(_verify_relations_reference, idx)

    @pytest.mark.parametrize("n", range(1, 8))
    @pytest.mark.parametrize("mutant", ["unsorted-triple-cod", "eta3-cod-drops-j"])
    def test_a_mutant_gives_the_rows_or_error_of_the_full_enumeration(self, monkeypatch, mutant, n):
        cod = GlGen.cod.fget

        def unsorted_triple(gen):
            i, *rest = gen.indices[:3]
            return GlObject(i, tuple(rest)) if len(set(rest)) == 2 else cod(gen)

        def eta3_drops_j(gen):
            # only on three distinct indices: its first failure needs three labels
            ix = gen.indices
            if gen.kind == "eta3" and ix[3] == ix[2] and len(set(ix[:3])) == 3:
                return pair(ix[0], ix[2])
            return cod(gen)

        patched = {"unsorted-triple-cod": unsorted_triple, "eta3-cod-drops-j": eta3_drops_j}[mutant]
        idx = _labels(n)
        expect = _outcome(verify_relations, idx)
        monkeypatch.setattr(GlGen, "cod", property(patched))
        got = _outcome(verify_relations, idx)
        assert got == _outcome(_verify_relations_reference, idx)
        if n >= 3:
            assert got != expect  # the mutant changes the outcome

    def test_cost_does_not_grow_with_the_index(self, monkeypatch):
        calls = []
        real = glidx.compose_path

        def counted(dom, path):
            calls.append(dom)
            return real(dom, path)

        monkeypatch.setattr(glidx, "compose_path", counted)
        counts = []
        for n in (3, 8):
            calls.clear()
            verify_relations(_labels(n))
            counts.append(len(calls))
        assert counts[0] == counts[1] > 0


def _labels(n):
    # listed against their sorted order, so the check must sort them itself
    return tuple(f"x{k}" for k in reversed(range(n)))


def _verify_relations_reference(index) -> Report:
    """``verify_relations`` over every relation instance: the reference."""
    witness = {}
    for label, dom, lhs, rhs in relation_instances(index):
        cl, cr = compose_path(dom, lhs), compose_path(dom, rhs)
        if cl != cr:
            witness.setdefault(label.partition(" ")[0], f"{label}: {dom!r}->{cl!r} != {dom!r}->{cr!r}")
    rep = Report()
    for family in ("(a)", "(b)", "(c1)", "(c2)", "(d)", "(e)"):
        rep.add(family, "all", family not in witness, witness.get(family))
    return rep


def _outcome(check, index):
    """The rows a check gives, or the composition error it raises."""
    try:
        return check(index).entries
    except CompositionMismatch as exc:
        return str(exc)
