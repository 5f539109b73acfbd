import random
from itertools import product

import pytest
from hypothesis import strategies as st

from topoglue import cover, fintop
from topoglue.fintop import SpaceMap
from topoglue.gdata import GluingData
from topoglue.fixtures import arc3, circle4, disc2, pt, sierp, sq9


@pytest.fixture
def spaces():
    return {
        "PT": pt(),
        "SIERP": sierp(),
        "DISC2": disc2(),
        "ARC3": arc3(),
        "SQ9": sq9(),
        "C4": circle4(),
    }


@st.composite
def small_spaces(draw, max_points=5):
    n = draw(st.integers(min_value=1, max_value=max_points))
    points = [f"p{i}" for i in range(n)]
    gens = draw(
        st.lists(
            st.sets(st.sampled_from(points), min_size=0, max_size=n),
            min_size=0,
            max_size=6,
        )
    )
    return fintop.from_opens("S", points, gens)


def random_lawful_data(rng: random.Random, max_patches=3, max_points=4):
    """A random valid gluing datum, built as the canonical data of a covering."""
    base = cover.random_space(rng, max_points=max_points, space_id="B")
    points = sorted(base.points)
    k = rng.randint(1, max_patches)
    subsets = [
        set(rng.sample(points, rng.randint(1, len(points)))) for _ in range(k)
    ]
    leftover = set(points) - set().union(*subsets)
    subsets[-1] |= leftover
    family = []
    for s in subsets:
        sp, incl = fintop.subspace(base, s)
        family.append((sp, incl))
    return cover.data_of_covering(cover.Covering(base, family, "gluing"))


def digital_circle(m: int):
    """DC_m: open points o_s and closed points c_s with U(c_s) = {o_s, c_s, o_s+1}."""
    table = {}
    for s in range(m):
        table[f"o{s}"] = [f"o{s}"]
        table[f"c{s}"] = [f"o{s}", f"c{s}", f"o{(s + 1) % m}"]
    return fintop.make_space(f"DC{m}", table, table)


def digital_circle_covering(m: int, k: int):
    """DC_m covered by k open arcs; neighbouring arcs share o_s, c_s, o_s+1."""
    base = digital_circle(m)
    family = []
    for j in range(k):
        lo, hi = j * m // k, (j + 1) * m // k
        arc = [f"o{s % m}" for s in range(lo, hi + 2)] + [f"c{s % m}" for s in range(lo, hi + 1)]
        family.append(fintop.subspace(base, arc))
    return cover.Covering(base, family, "open")


def digital_circle_data(m: int, k: int):
    """Canonical data of DC_m covered by k open arcs (``digital_circle_covering``)."""
    return cover.data_of_covering(digital_circle_covering(m, k))


def absent_pairs(gd):
    """The ordered pairs of the index off the datum's nerve, in index order: those whose overlap is empty."""
    nerve = set(gd.nerve.pairs)
    return [key for key in product(gd.index, repeat=2) if key not in nerve]


def mutate_transition(rng, gd):
    """Redirect one point of one off-diagonal transition; None if none can move."""
    options = [
        (i, j)
        for (i, j) in gd.transition
        if i != j
        and gd.overlap[(i, j)].points
        and len(gd.overlap[(j, i)].points) >= 2
    ]
    if not options:
        return None
    key = rng.choice(sorted(options))
    old = gd.transition[key]
    x = rng.choice(sorted(old.dom.points))
    other = rng.choice(sorted(old.cod.points - {old(x)}))
    table = dict(old.table)
    table[x] = other
    new_transition = dict(gd.transition)
    new_transition[key] = SpaceMap(old.dom, old.cod, table)
    return GluingData(gd.index, gd.patch, gd.overlap, gd.anchor, new_transition, gd.triple_transition)


def mutate_triple(rng, gd):
    """Redirect one point of one triple transition; None if none can move."""
    options = [
        key
        for key, m in gd.triple_transition.items()
        if m.dom.points and len(m.cod.points) >= 2
    ]
    if not options:
        return None
    key = rng.choice(sorted(options))
    old = gd.triple_transition[key]
    x = rng.choice(sorted(old.dom.points))
    other = rng.choice(sorted(old.cod.points - {old(x)}))
    table = dict(old.table)
    table[x] = other
    new_triples = dict(gd.triple_transition)
    new_triples[key] = SpaceMap(old.dom, old.cod, table)
    return GluingData(gd.index, gd.patch, gd.overlap, gd.anchor, gd.transition, new_triples)
