"""Document-format fixtures shared by the parser and CLI tests.

The torus document is generated from the programmatic fixtures so the two
stay in lockstep; the broken circle document corrupts one explicit triple
transition so validation fails on the projection square with a point witness;
the disjoint document glues two points over empty overlaps.
"""

from __future__ import annotations

from topoglue.fintop import FiniteSpace, SpaceMap
from topoglue.fixtures import boundary_data, cylinder_data

CIRCLE_DOC = """
space ARC3A
  points: l m r
  minopen l: l
  minopen m: l m r
  minopen r: r
end

space ARC3B
  points: l m r
  minopen l: l
  minopen m: l m r
  minopen r: r
end

space D12
  points: a b
  opens: a
  opens: b
end

space D21
  points: a b
  opens: a
  opens: b
end

map a12: D12 -> ARC3A
  a -> l
  b -> r
end

map a21: D21 -> ARC3B
  a -> l
  b -> r
end

map t12: D12 -> D21
  a -> a
  b -> b
end

map t21: D21 -> D12
  a -> a
  b -> b
end

gluing CIRC
  index: 1 2
  patch 1: ARC3A
  patch 2: ARC3B
  overlap 1 2: D12
  overlap 2 1: D21
  anchor 1 2: a12
  anchor 2 1: a21
  transition 1 2: t12
  transition 2 1: t21
end

space C4
  points: cl cma cmb cr
  minopen cl: cl
  minopen cr: cr
  minopen cma: cl cma cr
  minopen cmb: cl cmb cr
end

map psi1: ARC3A -> C4
  l -> cl
  m -> cma
  r -> cr
end

map psi2: ARC3B -> C4
  l -> cl
  m -> cmb
  r -> cr
end

cone PARAM
  over: CIRC
  apex: C4
  leg 1: psi1
  leg 2: psi2
end

map u1leg: ARC3A -> C4
  l -> cl
  m -> cma
  r -> cr
end

map u2leg: ARC3B -> C4
  l -> cl
  m -> cmb
  r -> cr
end

covering TWOARCS
  base: C4
  kind: open
  leg: u1leg
  leg: u2leg
end
"""

BROKEN_TRIPLE_DOC = CIRCLE_DOC + """
space T112
  points: (l,a) (r,b)
  minopen (l,a): (l,a)
  minopen (r,b): (r,b)
end

map badtriple: T112 -> D21
  (l,a) -> b
  (r,b) -> a
end

gluing BROKEN
  index: 1 2
  patch 1: ARC3A
  patch 2: ARC3B
  overlap 1 2: D12
  overlap 2 1: D21
  anchor 1 2: a12
  anchor 2 1: a21
  transition 1 2: t12
  transition 2 1: t21
  triple 1 2 1: badtriple
end
"""


# Two one-point patches whose overlaps are empty: the nerve is the two patches alone.
DISJOINT_DOC = """
space P1
  points: a
  minopen a: a
end

space P2
  points: b
  minopen b: b
end

space E
  points:
end

map e1: E -> P1
end

map e2: E -> P2
end

map ee: E -> E
end

gluing DISJ
  index: 1 2
  patch 1: P1
  patch 2: P2
  overlap 1 2: E
  overlap 2 1: E
  anchor 1 2: e1
  anchor 2 1: e2
  transition 1 2: ee
  transition 2 1: ee
end
"""


# DISJ refined by the same two points over one-point overlaps: the fine overlap
# [1,2] has a point and the coarse one none, so no component exists there.
ONTO_DISJOINT_DOC = DISJOINT_DOC + """
space O12
  points: o
  minopen o: o
end

space O21
  points: o
  minopen o: o
end

map o1: O12 -> P1
  o -> a
end

map o2: O21 -> P2
  o -> b
end

map t12: O12 -> O21
  o -> o
end

map t21: O21 -> O12
  o -> o
end

gluing OVER
  index: 1 2
  patch 1: P1
  patch 2: P2
  overlap 1 2: O12
  overlap 2 1: O21
  anchor 1 2: o1
  anchor 2 1: o2
  transition 1 2: t12
  transition 2 1: t21
end

map id1: P1 -> P1
  a -> a
end

map id2: P2 -> P2
  b -> b
end

refinement ONTO
  fine: OVER
  coarse: DISJ
  gamma 1: 1
  gamma 2: 2
  component 1: id1
  component 2: id2
end
"""

def _space_block(name: str, sp: FiniteSpace) -> list[str]:
    lines = [f"space {name}", "  points: " + " ".join(sorted(sp.points))]
    for x in sorted(sp.points):
        lines.append(f"  minopen {x}: " + " ".join(sorted(sp.min_open[x])))
    lines.append("end")
    return lines


def _map_block(name: str, m: SpaceMap, dom: str, cod: str) -> list[str]:
    lines = [f"map {name}: {dom} -> {cod}"]
    for x in sorted(m.table):
        lines.append(f"  {x} -> {m.table[x]}")
    lines.append("end")
    return lines


def _identity_block(name: str, space_name: str, sp: FiniteSpace) -> list[str]:
    lines = [f"map {name}: {space_name} -> {space_name}"]
    for x in sorted(sp.points):
        lines.append(f"  {x} -> {x}")
    lines.append("end")
    return lines


def torus_document() -> str:
    """The cylinder-of-cylinders meta gluing, flattened into document form."""
    lines: list[str] = []
    datas = {}
    for tag in ("1", "2"):
        datas[f"CYL{tag}"] = cylinder_data(tag)
        datas[f"BND{tag}"] = boundary_data(tag)
    space_names = {}

    def declare_space(name, sp):
        if name not in space_names:
            space_names[name] = sp
            lines.extend(_space_block(name, sp))
            lines.append("")
        return name

    def gluing_block(gname, gd, names):
        out = [f"gluing {gname}", "  index: 1 2"]
        for i in gd.index:
            out.append(f"  patch {i}: {names[('patch', i)]}")
        for i in gd.index:
            for j in gd.index:
                if i != j:
                    out.append(f"  overlap {i} {j}: {names[('overlap', i, j)]}")
                    out.append(f"  anchor {i} {j}: {names[('anchor', i, j)]}")
                    out.append(f"  transition {i} {j}: {names[('transition', i, j)]}")
        out.append("end")
        return out

    for gname in ("CYL1", "CYL2", "BND1", "BND2"):
        gd = datas[gname]
        names = {}
        for i in gd.index:
            names[("patch", i)] = declare_space(f"{gname}P{i}", gd.patch[i])
        for i in gd.index:
            for j in gd.index:
                if i == j:
                    continue
                names[("overlap", i, j)] = declare_space(f"{gname}O{i}{j}", gd.overlap[(i, j)])
        for i in gd.index:
            for j in gd.index:
                if i == j:
                    continue
                aname = f"{gname.lower()}a{i}{j}"
                tname = f"{gname.lower()}t{i}{j}"
                lines.extend(
                    _map_block(aname, gd.anchor[(i, j)],
                               names[("overlap", i, j)], names[("patch", i)])
                )
                lines.append("")
                lines.extend(
                    _map_block(tname, gd.transition[(i, j)],
                               names[("overlap", i, j)], names[("overlap", j, i)])
                )
                lines.append("")
                names[("anchor", i, j)] = aname
                names[("transition", i, j)] = tname
        lines.extend(gluing_block(gname, gd, names))
        lines.append("")

    # refinement components: boundary rows include into their squares by name
    for tag in ("1", "2"):
        bnd, cyl = datas[f"BND{tag}"], datas[f"CYL{tag}"]
        for i in ("1", "2"):
            incl = SpaceMap(bnd.patch[i], cyl.patch[i], {p: p for p in bnd.patch[i].points})
            lines.extend(
                _map_block(f"incl{tag}p{i}", incl, f"BND{tag}P{i}", f"CYL{tag}P{i}")
            )
            lines.append("")
        lines.extend(
            [f"refinement INCL{tag}",
             f"  fine: BND{tag}",
             f"  coarse: CYL{tag}",
             "  gamma 1: 1",
             "  gamma 2: 2",
             f"  component 1: incl{tag}p1",
             f"  component 2: incl{tag}p2",
             "end", ""]
        )
    # transitions between the two boundary gluings, and identity refinements
    for src, dst, rname in (("1", "2", "T12"), ("2", "1", "T21")):
        for i in ("1", "2"):
            cross = SpaceMap(
                datas[f"BND{src}"].patch[i],
                datas[f"BND{dst}"].patch[i],
                {p: p for p in datas[f"BND{src}"].patch[i].points},
            )
            lines.extend(
                _map_block(f"cross{src}{dst}p{i}", cross, f"BND{src}P{i}", f"BND{dst}P{i}")
            )
            lines.append("")
        lines.extend(
            [f"refinement {rname}",
             f"  fine: BND{src}",
             f"  coarse: BND{dst}",
             "  gamma 1: 1",
             "  gamma 2: 2",
             f"  component 1: cross{src}{dst}p1",
             f"  component 2: cross{src}{dst}p2",
             "end", ""]
        )
    for tag in ("1", "2"):
        for i in ("1", "2"):
            lines.extend(
                _identity_block(f"idb{tag}p{i}", f"BND{tag}P{i}", datas[f"BND{tag}"].patch[i])
            )
            lines.append("")
        lines.extend(
            [f"refinement IDB{tag}",
             f"  fine: BND{tag}",
             f"  coarse: BND{tag}",
             "  gamma 1: 1",
             "  gamma 2: 2",
             f"  component 1: idb{tag}p1",
             f"  component 2: idb{tag}p2",
             "end", ""]
        )
    lines.extend(
        ["meta TORUS",
         "  index: 1 2",
         "  node 1: CYL1",
         "  node 2: CYL2",
         "  node 1 2: BND1",
         "  node 2 1: BND2",
         "  node 1 1 2: BND1",
         "  node 2 2 1: BND2",
         "  edge eta 1 2: INCL1",
         "  edge eta 2 1: INCL2",
         "  edge tau 1 2: T12",
         "  edge tau 2 1: T21",
         "  edge eta3 1 1 2 1: INCL1",
         "  edge eta3 1 1 2 2: IDB1",
         "  edge eta3 2 2 1 2: INCL2",
         "  edge eta3 2 2 1 1: IDB2",
         "  edge tau3 1 2 1: T12",
         "  edge tau3 2 1 2: T21",
         "  edge tau3 2 1 1: T21",
         "  edge tau3 1 2 2: T12",
         "end", ""]
    )
    return "\n".join(lines)
