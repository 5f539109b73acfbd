"""The law pass as ``fintop``'s path helpers spell it: the reference for ``gdata._check_laws``.

Every diagonal row compares the map with a fresh ``identity_map`` and every
law row compares two composites through ``fintop.disagreement``, which
types each path before it reads a table, so a mistyped map raises
CompositionMismatch here where the library adds a failing typing row.
Each triple's two maps are read through ``GluingData.map``, identities
included, and each continuity row scans every point
(``fintop.failure_witnesses``).  It walks the nerve as the library does,
so on data whose maps are typed its rows, and any error it raises, must
equal the library's.
"""

from __future__ import annotations

from topoglue import fintop
from topoglue.fintop import SpaceMap, disagreement, discontinuities, failure_witnesses, identity_map
from topoglue.gdata import GluingData, Report, _triples_present
from topoglue.glidx import normalize, pair


def _coord(gd: GluingData, key: tuple[str, str, str]) -> SpaceMap:
    i, j, _ = key
    return gd.map(pair(i, j), normalize(key))


def _fwd(gd: GluingData, key: tuple[str, str, str]) -> SpaceMap:
    i, j, k = key
    return gd.map(normalize((j, i, k)), normalize(key))


def _add_continuity(rep: Report, name: str, subject: str, f: SpaceMap) -> None:
    w = failure_witnesses(f, discontinuities)
    rep.add(name, subject, w is None, w)


def _triples_typed(gd: GluingData, rep: Report) -> bool:
    typed = True
    for i, j, k in gd.nerve.triples:
        if i == j:
            continue
        f = gd.triple_transition[(i, j, k)]
        dom, cod = gd.space_of(normalize((i, j, k))), gd.space_of(normalize((j, i, k)))
        if not (fintop._same(f.dom, dom) and fintop._same(f.cod, cod)):
            typed = False
            witness = f"{f.dom.space_id} -> {f.cod.space_id}, not {dom.space_id} -> {cod.space_id}"
            if f.dom.space_id == dom.space_id and f.dom != dom:
                witness += f"; its domain is another space named {dom.space_id!r}"
            if f.cod.space_id == cod.space_id and f.cod != cod:
                witness += f"; its codomain is another space named {cod.space_id!r}"
            rep.add("triple-typing", f"({i},{j},{k})", False, witness)
    return typed


def check_laws(gd: GluingData) -> Report:
    nerve = gd.nerve
    rep = Report()
    for obj in nerve.objects:
        if obj.arity == 3 and obj.head in obj.rest:
            rep.add(
                "degenerate-triple", repr(obj), True,
                "kept distinct from its pair object; canonically isomorphic",
            )
    for i in gd.index:
        sub = f"({i},{i})"
        rep.add("overlap-diagonal", sub, gd.overlap[(i, i)] == gd.patch[i])
        rep.add(
            "anchor-diagonal",
            sub,
            disagreement([gd.anchor[(i, i)]], [identity_map(gd.patch[i])]) is None,
        )
        rep.add(
            "transition-diagonal",
            sub,
            disagreement([gd.transition[(i, i)]], [identity_map(gd.overlap[(i, i)])]) is None,
        )
    for i, j in nerve.pairs:
        sub = f"({i},{j})"
        a = gd.anchor[(i, j)]
        t = gd.transition[(i, j)]
        ok_a = a.dom == gd.overlap[(i, j)] and a.cod == gd.patch[i]
        ok_t = t.dom == gd.overlap[(i, j)] and t.cod == gd.overlap[(j, i)]
        rep.add("anchor-typing", sub, ok_a)
        rep.add("transition-typing", sub, ok_t)
        if ok_a:
            _add_continuity(rep, "anchor-continuous", sub, a)
        if ok_t:
            _add_continuity(rep, "transition-continuous", sub, t)
    for i, j in nerve.pairs:
        w = disagreement(
            [gd.transition[(j, i)], gd.transition[(i, j)]], [identity_map(gd.overlap[(i, j)])]
        )
        rep.add("transition-inverse", f"({i},{j})", w is None, w)
    if not _triples_present(gd, rep) or not _triples_typed(gd, rep):
        return rep
    fwds = {key: _fwd(gd, key) for key in nerve.triples}
    coords = {key: _coord(gd, key) for key in nerve.triples}
    for key, f in fwds.items():
        i, j, k = key
        sub = f"({i},{j},{k})"
        _add_continuity(rep, "triple-continuous", sub, f)
        w = disagreement((fwds[(j, k, i)], f), (fwds[(i, k, j)],))
        rep.add("cocycle", sub, w is None, w)
        w = disagreement((coords[(j, i, k)], f), (gd.transition[(i, j)], coords[key]))
        rep.add("projection-square", sub, w is None, w)
    return rep
