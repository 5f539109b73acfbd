"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines as they go.
Every criterion carries its stated runtime bound where one applies.
"""

import random
import time

from conftest import mutate_transition, mutate_triple, random_lawful_data
from oracles import all_tuples, tuple_equivalence
from topoglue import glidx
from topoglue.cover import Covering, check_covering, functor_of_covering, random_covering, random_space, site_axiom_basechange, site_axiom_compose, site_axiom_iso
from topoglue.errors import HypothesisBFailed
from topoglue.fintop import (
    SpaceMap,
    compose,
    disjoint_union,
    enumerate_continuous_maps,
    find_homeomorphism,
    identity_map,
    is_homeomorphism,
    quotient,
    subspace,
)
from topoglue.fixtures import (
    arc3,
    circle4,
    counter_meta,
    disc2,
    gd_circ,
    product_c4_c4,
    pt,
    sierp,
    sq9,
    torus_meta,
)
from topoglue.gdata import validate
from topoglue.glidx import normalize, single, verify_relations
from topoglue.glue import (
    CONE_MODES,
    Cone,
    build_relation,
    check_cone,
    check_equivalence,
    check_glued_properties,
    check_otop,
    complete_cone,
    glue,
    mediate,
    verify_universal,
)
from topoglue.refine import compose_gdf

from test_glue import self_weld_arc


def report(n, ok, text):
    print(f"ACCEPTANCE {n}: {'PASS' if ok else 'FAIL'} - {text}")
    assert ok, f"criterion {n} failed: {text}"


def test_criterion_1_index_category_laws():
    t0 = time.monotonic()
    for n in (1, 2, 3, 4):
        idx = tuple(str(k) for k in range(n))
        rep = verify_relations(idx)
        assert rep.passed, f"|I|={n}: {rep}"
    for n in (1, 2, 3, 4):
        idx = [str(k) for k in range(n)]
        rep_map = tuple_equivalence(idx)
        tuples = all_tuples(idx)
        for t1 in tuples:
            for t2 in tuples:
                assert (normalize(t1) == normalize(t2)) == (rep_map[t1] == rep_map[t2])
    elapsed = time.monotonic() - t0
    report(1, elapsed < 5.0, f"relation families and normalize oracle in {elapsed:.2f}s")


def test_criterion_2_equivalence_relation():
    t0 = time.monotonic()
    rng = random.Random(2024)
    valid_checked = 0
    while valid_checked < 50:
        gd = random_lawful_data(rng, max_patches=3, max_points=4)
        assert validate(gd).passed
        rep = check_equivalence(build_relation(gd), gd)
        assert rep.passed, f"lawful instance not an equivalence: {rep}"
        valid_checked += 1
    mutants_failed = 0
    attempts = 0
    while mutants_failed < 20 and attempts < 400:
        attempts += 1
        gd = random_lawful_data(rng, max_patches=3, max_points=4)
        mutant = (mutate_transition if rng.random() < 0.5 else mutate_triple)(rng, gd)
        if mutant is None:
            continue
        vrep = validate(mutant)
        if not vrep.passed:
            assert any(
                e.witness is not None for e in vrep.failures()
            ), "validation failure carries no witness"
            mutants_failed += 1
            continue
        erep = check_equivalence(build_relation(mutant), mutant)
        assert not erep.passed, "mutant survived both validation and equivalence"
        assert erep.failures()[0].witness is not None
        mutants_failed += 1
    assert mutants_failed >= 20
    # the generalized self-gluing shape: lawful clauses, broken transitivity
    weld = self_weld_arc()
    assert validate(weld).passed
    erep = check_equivalence(build_relation(weld), weld)
    assert [e.name for e in erep.failures()] == ["transitive"]
    assert erep.failures()[0].witness is not None
    elapsed = time.monotonic() - t0
    report(
        2,
        elapsed < 30.0,
        f"{valid_checked} lawful + {mutants_failed} mutated instances in {elapsed:.2f}s",
    )


def test_criterion_3_cone_mode_equivalence():
    rng = random.Random(3)
    gd = gd_circ()
    glued = glue(gd)
    objects = glidx.objects(gd.index)
    apexes = [pt(), sierp(), disc2(), arc3(), circle4()]
    disagreements = 0
    checked = 0
    for trial in range(120):
        apex = rng.choice(apexes)
        style = trial % 3
        if style == 0:
            legs = {}
            for obj in objects:
                sp = gd.space_of(obj)
                legs[obj] = SpaceMap(
                    sp, apex, {x: rng.choice(sorted(apex.points)) for x in sp.points}
                )
            cone = Cone(apex, legs)
        elif style == 1:
            singles = {}
            for i in gd.index:
                sp = gd.patch[i]
                singles[i] = SpaceMap(
                    sp, apex, {x: rng.choice(sorted(apex.points)) for x in sp.points}
                )
            cone = complete_cone(gd, apex, singles)
        else:
            legs = dict(glue(gd).legs)
            obj = rng.choice(sorted(legs, key=repr))
            old = legs[obj]
            x = rng.choice(sorted(old.dom.points))
            choices = sorted(old.cod.points - {old(x)})
            if choices:
                table = dict(old.table)
                table[x] = rng.choice(choices)
                legs[obj] = SpaceMap(old.dom, old.cod, table)
            cone = Cone(glued.space, legs)
        verdicts = [check_cone(gd, cone, mode) for mode in CONE_MODES]
        if len(set(verdicts)) != 1:
            disagreements += 1
        checked += 1
    report(3, checked >= 100 and disagreements == 0,
           f"{checked} families, {disagreements} mode disagreements")


def test_criterion_4_glued_object_roundtrip():
    t0 = time.monotonic()
    gd = gd_circ()
    glued = glue(gd)
    six = check_glued_properties(gd, glued)
    assert six.passed, str(six)
    uni = verify_universal(gd, glued, apexes=[pt(), sierp(), disc2(), arc3()])
    assert uni.passed, str(uni)
    assert uni.cones_checked > 0
    # drop one identification and the candidate stops being a glued object
    total, injections = disjoint_union([gd.patch[i] for i in gd.index], list(gd.index))
    q, proj = quotient(total, [("l@1", "l@2")])
    legs = {i: compose(proj, eps) for i, eps in zip(gd.index, injections)}
    mutant = complete_cone(gd, q, legs)
    bad = verify_universal(gd, mutant, apexes=[pt(), sierp(), disc2(), arc3()])
    assert not bad.passed
    elapsed = time.monotonic() - t0
    report(4, elapsed < 30.0,
           f"six properties, {uni.cones_checked} cones, mutant rejected in {elapsed:.2f}s")


def test_criterion_5_open_map_strengthening():
    gd = gd_circ()
    glued = glue(gd)
    rep = check_otop(gd, glued)
    assert rep.applicable, "circle data should be open-map data"
    failures = [e for e in rep.entries if not e.ok]
    report(5, rep.passed and not failures,
           f"open data: embeddings with open images, {len(failures)} failures")


def test_criterion_6_torus_pipeline():
    t0 = time.monotonic()
    meta, seq = torus_meta()
    composed, comp_rep = compose_gdf(meta)
    assert comp_rep.passed, str(comp_rep)
    torus_two_stage = glue(composed.data)
    torus_sequential = glue(seq)
    cone_on_seq = complete_cone(
        composed.data, torus_sequential.space,
        {i: torus_sequential.leg(single(i)) for i in composed.data.index},
    )
    mu1 = mediate(composed.data, torus_two_stage, cone_on_seq)
    cone_on_two_stage = complete_cone(
        seq, torus_two_stage.space,
        {i: torus_two_stage.leg(single(i)) for i in seq.index},
    )
    mu2 = mediate(seq, torus_sequential, cone_on_two_stage)
    assert compose(mu2, mu1) == identity_map(torus_two_stage.space)
    assert compose(mu1, mu2) == identity_map(torus_sequential.space)
    product = product_c4_c4()
    assert len(product.points) == 16
    assert find_homeomorphism(torus_two_stage.space, product) is not None
    assert find_homeomorphism(torus_sequential.space, product) is not None
    elapsed = time.monotonic() - t0
    report(6, elapsed < 60.0,
           f"two-stage and sequential tori mutually inverse, both C4xC4, in {elapsed:.2f}s")


def test_criterion_7_covering_correspondence():
    base_c4 = circle4()
    u1, i1 = subspace(base_c4, {"l", "ma", "r"})
    u2, i2 = subspace(base_c4, {"l", "mb", "r"})
    arcs = Covering(base_c4, [(u1, i1), (u2, i2)], "open")
    res = functor_of_covering(arcs)
    assert res.report.passed, str(res.report)
    assert is_homeomorphism(res.iso)

    base_sq = sq9()
    s1, j1 = subspace(base_sq, {f"{a}|{y}" for a in ("l", "m") for y in ("l", "m", "r")})
    s2, j2 = subspace(base_sq, {f"{a}|{y}" for a in ("m", "r") for y in ("l", "m", "r")})
    strips = Covering(base_sq, [(s1, j1), (s2, j2)], "gluing")
    res2 = functor_of_covering(strips)
    assert res2.report.passed, str(res2.report)
    assert is_homeomorphism(res2.iso)

    exact = True
    for covering, result in ((arcs, res), (strips, res2)):
        gd = result.data
        legs = {i: leg for i, (_, leg) in zip(gd.index, covering.family)}
        for i in gd.index:
            for j in gd.index:
                via = compose(legs[i], gd.anchor[(i, j)]).image()
                if via != legs[i].image() & legs[j].image():
                    exact = False
    report(7, exact, "two-arc and two-strip coverings reconstruct their bases")


def test_criterion_8_grothendieck_axioms():
    rng = random.Random(88)
    coverings_checked = 0
    basechanges = 0
    kind_preserved = 0
    failures = []
    round_no = 0
    while coverings_checked < 100:
        round_no += 1
        for kind in ("gluing", "open"):
            base = random_space(rng, max_points=8, space_id=f"b{round_no}")
            c = random_covering(rng, base, kind)
            if not check_covering(c).passed:
                failures.append(f"round {round_no}: invalid generated covering")
                continue
            coverings_checked += 1
            if not site_axiom_iso(identity_map(base)):
                failures.append(f"round {round_no}: iso axiom ({kind})")
            subs = [random_covering(rng, patch, kind) for patch, _ in c.family]
            _, ok = site_axiom_compose(c, subs)
            if not ok:
                failures.append(f"round {round_no}: composition axiom ({kind})")
            v = random_space(rng, max_points=3, space_id=f"v{round_no}")
            maps = enumerate_continuous_maps(v, base)
            if maps:
                phi = rng.choice(maps)
                pulled, ok = site_axiom_basechange(c, phi)
                basechanges += 1
                if not ok:
                    failures.append(f"round {round_no}: base-change axiom ({kind})")
                if pulled.kind == kind:
                    kind_preserved += 1
    ok = not failures and basechanges > 0 and kind_preserved == basechanges
    report(8, ok,
           f"{coverings_checked} coverings, {basechanges} base changes, "
           f"{kind_preserved} kind-preserving, {len(failures)} failures")


def test_criterion_9_pushout_condition():
    meta, _ = torus_meta()
    _, rep = compose_gdf(meta)
    entries = [e for e in rep.entries if e.name == "pushout-condition"]
    assert entries and all(e.ok for e in entries)
    raised = False
    try:
        compose_gdf(counter_meta())
    except HypothesisBFailed as exc:
        raised = exc.key == ("1", "1", "2")
    report(9, raised, "triple nodes glue to the pullback; counter-fixture raises")
