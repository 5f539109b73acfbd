"""``fintop.lift`` and the forced maps built on it.

The differential tests keep the loops that ``lift`` replaced as test-only
references: the codomain scan of ``derive_triple_maps``, the fiber dict and
the pair-name membership test of the completion in ``Refinement``, and the coordinate
swap of ``data_of_covering``.
"""

import random

import pytest

from conftest import digital_circle_data, mutate_transition, random_lawful_data
from paths import anchor, coord, find_path, realize, reindex, transition
from test_gdata import _ambiguous_instance
from test_glue import self_weld_arc, three_patch_chain
from topoglue import cover, glidx
from topoglue.errors import CompositionMismatch, MissingComponent, NotDetermined, TopoglueError
from topoglue.fintop import SpaceMap, compose, identity_map, lift, make_space, pullback
from topoglue.fixtures import arc3, cylinder_data, disc2, gd_circ, pt, torus_meta
from topoglue.gdata import derive_triple_maps, functor_of, make_gluing_data
from topoglue.glidx import normalize, pair, single
from topoglue.refine import Refinement, reindex_object


def _fold():
    """ARC3 onto DISC2 with both ends over a: every fiber size 0, 1 and 2 occurs."""
    two = make_space("TWO", ["a", "b", "c"], {"a": ["a"], "b": ["b"], "c": ["c"]})
    return SpaceMap(arc3(), two, {"l": "a", "m": "b", "r": "a"})


class TestLift:
    def test_one_map_lifts_through_singleton_fibers(self):
        f = SpaceMap(disc2(), arc3(), {"a": "l", "b": "r"})
        want = SpaceMap(pt(), arc3(), {"p": "r"})
        lifted = lift([want], [f])
        assert isinstance(lifted, SpaceMap)
        assert (lifted.dom, lifted.cod, lifted.table) == (pt(), disc2(), {"p": "b"})

    def test_two_maps_pair_into_the_pullback(self):
        f = SpaceMap(disc2(), arc3(), {"a": "l", "b": "r"})
        sp, pf, pg = pullback(f, identity_map(arc3()))
        swap = SpaceMap(disc2(), disc2(), {"a": "b", "b": "a"})
        lifted = lift([swap, compose(f, swap)], [pf, pg])
        assert isinstance(lifted, SpaceMap)
        assert (lifted.dom, lifted.cod, lifted.table) == (disc2(), sp, {"a": "(b,r)", "b": "(a,l)"})

    def test_miss_with_no_candidate(self):
        want = SpaceMap(pt(), _fold().cod, {"p": "c"})
        assert lift([want], [_fold()]) == ("p", [])

    def test_miss_with_two_candidates(self):
        fold = _fold()
        want = SpaceMap(disc2(), fold.cod, {"a": "b", "b": "a"})
        # a lifts to m; b has the two candidates l and r
        assert lift([want], [fold]) == ("b", ["l", "r"])

    @pytest.mark.parametrize("case", ["codomains", "along-domains", "want-domains", "lengths"])
    def test_mistyped_maps(self, case):
        fold = _fold()
        want = SpaceMap(pt(), fold.cod, {"p": "b"})
        other = SpaceMap(disc2(), fold.cod, {"a": "b", "b": "b"})
        cases = {
            "codomains": ([SpaceMap(pt(), arc3(), {"p": "m"})], [fold]),
            "along-domains": ([want, want], [fold, other]),
            "want-domains": ([want, other], [fold, fold]),
            "lengths": ([want, want], [fold]),
        }
        with pytest.raises(CompositionMismatch) as info:
            lift(*cases[case])
        assert info.value.exit_code == 2


def _scan_derive(gd):
    """``derive_triple_maps`` as a scan over every codomain point: the reference."""
    derived = dict(gd.triple_transition)
    for i in gd.index:
        for j in gd.index:
            for k in gd.index:
                if i == j or (i, j, k) in derived:
                    continue
                dom_sp = gd.space_of(normalize((i, j, k)))
                cod_sp = gd.space_of(normalize((j, i, k)))
                out_coord = coord(gd, i, j, k)
                in_coord = coord(gd, j, i, k)
                phi = transition(gd, i, j)
                table = {}
                for t in sorted(dom_sp.points):
                    target = phi(out_coord(t))
                    cands = [u for u in sorted(cod_sp.points) if in_coord(u) == target]
                    if len(cands) != 1:
                        raise NotDetermined(i, j, k, t, cands)
                    table[t] = cands[0]
                derived[(i, j, k)] = SpaceMap(dom_sp, cod_sp, table)
    return derived


def _loop_complete(gamma, fine, coarse, components):
    """The completion of ``Refinement`` with its fiber dict and pair-name test: the reference."""
    comps = dict(components)
    for i in coarse.index:
        for j in coarse.index:
            obj = pair(i, j)
            if obj in comps or obj.arity == 1:
                continue
            fine_sp = fine.space(reindex_object(gamma, obj))
            eta = find_path(coarse.index, single(i), obj)
            known = compose(comps[single(i)], realize(fine, *reindex(gamma, single(i), eta)))
            anchor_ij = anchor(coarse.data, i, j)
            fibers = {}
            for u in sorted(anchor_ij.dom.points):
                fibers.setdefault(anchor_ij(u), []).append(u)
            table = {}
            for t in sorted(fine_sp.points):
                cand = fibers.get(known(t), [])
                if len(cand) != 1:
                    raise MissingComponent(f"pair component {obj} not uniquely forced at {t!r}")
                table[t] = cand[0]
            comps[obj] = SpaceMap(fine_sp, coarse.space(obj), table)
    for obj in glidx.objects(coarse.index):
        if obj.arity != 3 or obj in comps:
            continue
        i = obj.head
        j, k = obj.rest
        fine_sp = fine.space(reindex_object(gamma, obj))
        target = coarse.space(obj)
        legs = {}
        for n in (j, k):
            eta3 = find_path(coarse.index, pair(i, n), obj)
            legs[n] = compose(comps[pair(i, n)], realize(fine, *reindex(gamma, pair(i, n), eta3)))
        table = {}
        for t in sorted(fine_sp.points):
            tag = f"({legs[j](t)},{legs[k](t)})"
            if tag not in target.points:
                raise MissingComponent(
                    f"triple component {obj} coordinates fall outside the pullback at {t!r}"
                )
            table[t] = tag
        comps[obj] = SpaceMap(fine_sp, target, table)
    return comps


def _outcome(fn, *args):
    """The maps a call returns, or its error class, key, point, candidates and message."""
    try:
        maps = fn(*args)
    except TopoglueError as exc:
        fields = tuple(getattr(exc, name, None) for name in ("key", "point", "candidates"))
        return type(exc), fields, str(exc)
    return {key: (m.dom, m.cod, m.table) for key, m in maps.items()}


def _on_nerve(outcome, stored):
    """The maps of a loop's outcome at the keys ``stored`` keeps; the others run out of no points."""
    if not isinstance(outcome, dict):
        return outcome
    assert not any(dom.points for key, (dom, _, _) in outcome.items() if not stored(key))
    return {key: ends for key, ends in outcome.items() if stored(key)}


def _underived(gd):
    return make_gluing_data(gd.index, gd.patch, gd.overlap, gd.anchor, gd.transition)


def _datasets():
    rng = random.Random(8)
    data = {
        "circle": gd_circ(),
        "cylinder": cylinder_data("1"),
        "DC12k3": digital_circle_data(12, 3),
        "DC24k4": digital_circle_data(24, 4),
    }
    for n in range(30):
        data[f"random{n}"] = random_lawful_data(rng)
    return data


DATASETS = _datasets()


class TestDifferential:
    """``lift`` against the loops it replaced: same tables, or the same error."""

    def test_derive_triple_maps(self):
        rng = random.Random(9)
        inputs = [_underived(gd) for gd in DATASETS.values()]
        inputs += [three_patch_chain(), _ambiguous_instance()]
        # a redirected transition can leave a triple point without a candidate
        inputs += [_underived(m) for gd in DATASETS.values() if (m := mutate_transition(rng, gd))]
        errors = set()
        for gd in inputs:
            expected = _on_nerve(_outcome(_scan_derive, gd), lambda key: gd.stores(normalize(key)))
            assert _outcome(lambda d: derive_triple_maps(d).triple_transition, gd) == expected
            if isinstance(expected, tuple):
                errors.add(len(expected[1][2]))
        assert errors == {0, 2}

    def test_complete_refinement(self):
        rng = random.Random(10)
        cases = []
        funs = [functor_of(gd) for gd in DATASETS.values()] + [functor_of(self_weld_arc())]
        for fun in funs:
            gamma = {i: i for i in fun.index}
            # identity patch components, then random ones: most pair
            # components are then not forced
            for shuffle in (False, True):
                comps = {}
                for i in fun.index:
                    sp = fun.space(single(i))
                    pts = sorted(sp.points)
                    comps[single(i)] = SpaceMap(sp, sp, {x: rng.choice(pts) if shuffle else x for x in pts})
                cases.append((gamma, fun, fun, comps))
        meta, _ = torus_meta()
        for r in meta.edge.values():
            singles = {o: c for o, c in r.components.items() if o.arity == 1}
            pairs = {o: c for o, c in r.components.items() if o.arity < 3}
            cases += [(r.gamma, r.fine, r.coarse, singles), (r.gamma, r.fine, r.coarse, pairs)]
        outcomes = []
        for case in cases:
            coarse, given = case[2], case[3]
            expected = _on_nerve(
                _outcome(_loop_complete, *case), lambda obj: coarse.data.stores(obj) or obj in given
            )
            assert _outcome(lambda *a: Refinement(*a).components, *case) == expected
            outcomes.append(isinstance(expected, dict))
        assert any(outcomes) and not all(outcomes)

    def test_covering_swap(self):
        # data_of_covering's transitions against swapping the pullback's pair names
        rng = random.Random(11)
        for n in range(30):
            c = cover.random_covering(rng, cover.random_space(rng, space_id=f"B{n}"))
            gd = cover.data_of_covering(c)
            for (i, j), t in gd.transition.items():
                if i != j:
                    sp, pi, pj = pullback(c.family[int(i)][1], c.family[int(j)][1])
                    swapped = {f"({pi(x)},{pj(x)})": f"({pj(x)},{pi(x)})" for x in sp.points}
                    assert t.table == swapped
                    assert (t.dom, t.cod) == (gd.overlap[(i, j)], gd.overlap[(j, i)])
