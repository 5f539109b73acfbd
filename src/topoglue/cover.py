"""Gluing coverings and the Grothendieck-topology axioms.

A gluing covering of a base space is a family of injective continuous maps
whose images cover the base; the open kind additionally requires every leg to
be an open map.  Coverings convert to gluing data (overlaps are pullbacks of
leg pairs, so the nerve is the pairs of patches whose images meet, found
from the base points they share), and the patch legs of a glued space cover
it.  The reports on that data walk its nerve.  Gluing that data
gives the base back only when the base is the glued-up object:
``functor_of_covering``'s ``mediate-iso`` row says whether it is.  A gluing
covering can fail it: SIERP covered by its two one-point subspaces glues to
the discrete space.  The three site axioms are verified per instance.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from . import fintop
from .errors import ValidationFailed
from .fintop import (
    FiniteSpace,
    SpaceMap,
    collisions,
    compose,
    discontinuities,
    failure_witnesses,
    is_homeomorphism,
    lift,
    non_open_points,
    pullback,
)
from .gdata import GluingData, Report, derive_triple_maps
from .glidx import single
from .glue import Cone, GluedSpace, _meeting, _non_open_data, glue, mediate

KINDS = ("gluing", "open")


@dataclass(frozen=True)
class Covering:
    """A base space with a family of (patch, leg) pairs; ``family`` is held as a tuple of pairs."""

    base: FiniteSpace
    family: tuple[tuple[FiniteSpace, SpaceMap], ...]
    kind: str = "gluing"

    def __post_init__(self):
        object.__setattr__(self, "family", tuple((patch, leg) for patch, leg in self.family))

    def legs(self) -> list[SpaceMap]:
        return [leg for _, leg in self.family]


def check_covering(c: Covering) -> Report:
    """Validate the leg conditions for the covering's kind, plus coverage."""
    rep = Report()
    if c.kind not in KINDS:
        rep.add("kind", c.kind, False, "unknown kind")
        return rep
    covered: set[str] = set()
    for pos, (patch, leg) in enumerate(c.family):
        subject = f"leg{pos}({patch.space_id})"
        ok_typing = leg.dom == patch and leg.cod == c.base
        rep.add("leg-typing", subject, ok_typing)
        if not ok_typing:
            continue
        tests = [("leg-injective", collisions), ("leg-continuous", discontinuities)]
        if c.kind == "open":
            tests.append(("leg-open", non_open_points))
        for name, test in tests:
            w = failure_witnesses(leg, test)
            rep.add(name, subject, w is None, w)
        covered |= leg.image()
    missing = sorted(c.base.points - covered)
    rep.add("coverage", "base", not missing, missing[0] if missing else None)
    return rep


def data_of_covering(c: Covering) -> GluingData:
    """The canonical gluing data of a covering.

    Patches are the covering's own patches, overlaps are the pullbacks of leg
    pairs with the projections as anchors, and transitions swap coordinates.
    A pullback has points exactly when the two leg images meet, so only
    those leg pairs are pulled back, found from the base points each leg
    image holds, and only they get entries: every other pair is left out,
    so its overlap is the empty one (``GluingData``).
    """
    idx = [str(n) for n in range(len(c.family))]
    patch = {i: sp for i, (sp, _) in zip(idx, c.family)}
    legs = {i: leg for i, (_, leg) in zip(idx, c.family)}
    meet = _meeting({i: set(leg.table.values()) for i, leg in legs.items()})
    pullbacks = {
        (i, j): pullback(legs[i], legs[j]) for i in idx for j in idx if i != j and (i, j) in meet
    }
    overlap, anchor, transition = {}, {}, {}
    for (i, j), (sp, pi, pj) in pullbacks.items():
        _, pj_back, pi_back = pullbacks[(j, i)]
        overlap[(i, j)], anchor[(i, j)] = sp, pi
        transition[(i, j)] = lift([pj, pi], [pj_back, pi_back])
        assert isinstance(transition[(i, j)], SpaceMap), "a swapped pair is a pullback point"
    return derive_triple_maps(GluingData(idx, patch, overlap, anchor, transition))


@dataclass(frozen=True)
class CoverFunctorResult:
    data: GluingData
    glued: GluedSpace
    iso: SpaceMap
    report: Report


def functor_of_covering(c: Covering) -> CoverFunctorResult:
    """Build the canonical gluing data of a covering and glue it back.

    The report says whether the glued space rebuilds the base: the
    ``mediate-iso`` row passes when the mediating map of the original legs
    is a homeomorphism, and the ``intersection-images`` rows when the overlap
    images realize the pairwise intersections of leg images.  Those rows are
    the nerve's pairs: ``data_of_covering`` leaves an overlap empty exactly
    when the two leg images are disjoint.
    """
    pre = check_covering(c)
    if not pre.passed:
        raise ValidationFailed(pre, "not a covering")
    gd = data_of_covering(c)
    glued = glue(gd)
    idx = gd.index
    # patch n is labelled str(n), and the index sorts its labels as strings
    legs = {str(n): leg for n, leg in enumerate(c.legs())}
    cone = Cone(c.base, {single(i): legs[i] for i in idx})
    mu = mediate(gd, glued, cone)
    rep = Report()
    rep.add("glued-size", "points", len(glued.space.points) == len(c.base.points))
    rep.add("mediate-iso", "base", is_homeomorphism(mu))
    images = {i: leg.image() for i, leg in legs.items()}
    for i, j in gd.nerve.pairs:
        via = compose(legs[i], gd.anchor[(i, j)]).image()
        expect = images[i] & images[j]
        rep.add(
            "intersection-images",
            f"({i},{j})",
            via == expect,
            None if via == expect else f"{sorted(via)} != {sorted(expect)}",
        )
    return CoverFunctorResult(gd, glued, mu, rep)


def covering_of_glued(gd: GluingData, glued: GluedSpace) -> Covering:
    """The patch legs of a glued space, as a covering of it.

    The kind is open exactly when every anchor and transition of the datum is
    an open map.
    """
    family = [(gd.patch[i], glued.leg(single(i))) for i in gd.index]
    return Covering(glued.space, family, "gluing" if _non_open_data(gd) else "open")


def site_axiom_iso(phi: SpaceMap) -> bool:
    """A single isomorphism is a covering (of either kind)."""
    if not is_homeomorphism(phi):
        return False
    singleton = Covering(phi.cod, [(phi.dom, phi)], "open")
    return check_covering(singleton).passed


def site_axiom_compose(
    c: Covering, sub: Sequence[Covering]
) -> tuple[Covering, bool]:
    """Compose each patch's subcovering with the patch leg and revalidate."""
    if len(sub) != len(c.family):
        raise ValidationFailed(check_covering(c), "one subcovering per patch required")
    family = []
    for (patch, leg), subcov in zip(c.family, sub):
        if subcov.base != patch:
            return Covering(c.base, [], c.kind), False
        for small, ell in subcov.family:
            family.append((small, compose(leg, ell)))
    out = Covering(c.base, family, c.kind)
    return out, check_covering(out).passed


def site_axiom_basechange(c: Covering, phi: SpaceMap) -> tuple[Covering, bool]:
    """Pull the covering back along a map into the base and revalidate.

    Finite spaces always have pullbacks, so the existence hypothesis of the
    axiom is vacuous here.
    """
    if phi.cod != c.base:
        raise ValidationFailed(check_covering(c), "map must land in the covering's base")
    family = []
    for patch, leg in c.family:
        sp, _, proj_v = pullback(leg, phi)
        family.append((sp, proj_v))
    out = Covering(phi.dom, family, c.kind)
    return out, check_covering(out).passed


def random_space(rng, max_points: int = 8, space_id: str = "rand") -> FiniteSpace:
    """A random finite space: a random generating family of opens."""
    n = rng.randint(1, max_points)
    points = [f"p{k}" for k in range(n)]
    gens = []
    for _ in range(rng.randint(0, 2 * n)):
        size = rng.randint(1, n)
        gens.append(rng.sample(points, size))
    return fintop.from_opens(space_id, points, gens)


def random_covering(rng, base: FiniteSpace, kind: str = "gluing") -> Covering:
    """A random covering of a base by subspace inclusions.

    For the open kind the patches are unions of minimal opens, so every
    inclusion is an open map.  Each round covers a new point, as a subset
    missing every uncovered point is given one, so at most |points| rounds
    are run.
    """
    points = sorted(base.points)
    family = []
    covered: set[str] = set()
    while covered != set(points):
        if kind == "open":
            seeds = rng.sample(points, rng.randint(1, len(points)))
            subset: set[str] = set()
            for s in seeds:
                subset |= base.min_open[s]
        else:
            subset = set(rng.sample(points, rng.randint(1, len(points))))
        leftover = set(points) - covered
        if not subset & leftover:
            subset.add(rng.choice(sorted(leftover)))
            if kind == "open":
                extra = subset - covered
                for s in sorted(extra):
                    subset |= base.min_open[s]
        sp, incl = fintop.subspace(base, subset)
        family.append((sp, incl))
        covered |= subset
    return Covering(base, family, kind)
