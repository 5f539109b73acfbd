import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import all_tuples, tuple_equivalence
from topoglue.errors import BadArity, CompositionMismatch
from topoglue.glidx import (
    GlGen,
    compose_hom,
    edges,
    generators,
    hom,
    identity,
    morphism_of,
    normalize,
    objects,
    pair,
    raw_generators,
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
        assert objects(("i",)) == [single("i")]

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


class TestGenerators:
    def test_single_index_only_identities(self):
        gens = generators(("i",))
        assert all(m.dom == m.cod for m in gens)

    def test_census_before_dedup(self):
        for n in (1, 2, 3):
            idx = tuple(str(k) for k in range(n))
            assert len(raw_generators(idx)) == 2 * n**2 + 3 * n**3

    def test_endpoints_normalized(self):
        for m in generators(I3):
            assert m.dom in objects(I3)
            assert m.cod in objects(I3)

    @pytest.mark.parametrize("idx", [("i",), I2, I3])
    def test_edges_are_the_first_raw_generator_per_endpoint_pair(self, idx):
        raw = raw_generators(idx)
        first = edges(idx)
        assert set(first) == {(m.dom, m.cod) for m in generators(idx) if m.dom != m.cod}
        for (d, c), gen in first.items():
            assert gen == next(g for g in raw if (g.dom, g.cod) == (d, c))


class TestHom:
    def test_identity(self):
        a = pair("1", "2")
        assert hom(I2, a, a) == identity(a)

    def test_opposite_pairs_connected(self):
        m = hom(I2, pair("2", "1"), pair("1", "2"))
        assert m is not None
        assert m.witness

    def test_no_arrow_from_triple_to_single(self):
        triples = [o for o in objects(I3) if o.arity == 3]
        singles = [o for o in objects(I3) if o.arity == 1]
        for t in triples:
            for s in singles:
                assert hom(I3, t, s) is None

    def test_degenerate_triple_isomorphic_to_pair(self):
        t = normalize(("1", "1", "2"))
        p = pair("1", "2")
        fwd = hom(I2, t, p)
        back = hom(I2, p, t)
        assert fwd is not None and back is not None
        assert compose_hom(fwd, back) == identity(p)
        assert compose_hom(back, fwd) == identity(t)


class TestComposeHom:
    def test_tau_tau_is_identity(self):
        t12 = morphism_of(GlGen("tau", ("1", "2")))
        t21 = morphism_of(GlGen("tau", ("2", "1")))
        assert compose_hom(t12, t21) == identity(pair("1", "2"))

    def test_tau3_cocycle(self):
        i, j, k = I3
        lhs = compose_hom(
            morphism_of(GlGen("tau3", (i, j, k))),
            morphism_of(GlGen("tau3", (j, k, i))),
        )
        assert lhs == morphism_of(GlGen("tau3", (i, k, j)))

    def test_eta3_square(self):
        i, j, k = I3
        lhs = compose_hom(
            morphism_of(GlGen("eta3", (i, j, k, j))),
            morphism_of(GlGen("eta", (i, j))),
        )
        rhs = compose_hom(
            morphism_of(GlGen("eta3", (i, j, k, k))),
            morphism_of(GlGen("eta", (i, k))),
        )
        assert lhs == rhs

    def test_mismatch(self):
        e12 = morphism_of(GlGen("eta", ("1", "2")))
        with pytest.raises(CompositionMismatch):
            compose_hom(e12, e12)

    def test_associativity_on_samples(self):
        # pick composable generator chains and compare both bracketings
        gens = [m for m in generators(I3) if m.dom != m.cod]
        by_dom = {}
        for m in gens:
            by_dom.setdefault(m.dom, []).append(m)
        checked = 0
        for f in gens:
            for g in by_dom.get(f.cod, []):
                for h in by_dom.get(g.cod, []):
                    lhs = compose_hom(h, compose_hom(g, f))
                    rhs = compose_hom(compose_hom(h, g), f)
                    assert lhs == rhs
                    checked += 1
        assert checked > 0

    def test_identity_laws(self):
        for m in generators(I3):
            assert compose_hom(m, identity(m.dom)) == m
            assert compose_hom(identity(m.cod), m) == m


class TestVerifyRelations:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_families_hold(self, n):
        idx = tuple(str(k) for k in range(n))
        rep = verify_relations(idx)
        assert rep.passed, str(rep)

    def test_hom_uniqueness_under_closure(self):
        # every path between two objects denotes the same morphism: collect
        # all two-step composites and check against hom
        gens = [m for m in generators(I3) if m.dom != m.cod]
        by_dom = {}
        for m in gens:
            by_dom.setdefault(m.dom, []).append(m)
        for f in gens:
            for g in by_dom.get(f.cod, []):
                expect = hom(I3, f.dom, g.cod)
                assert expect is not None
                assert compose_hom(g, f) == expect
