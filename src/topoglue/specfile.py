"""Parser and serializer for the declaration document format.

A document is a sequence of named blocks, one declaration per line, closed by
``end``.  Comments start with ``#`` and blank lines separate nothing.  All
references are by name and resolved at parse time; forward references are not
allowed, so a document reads top to bottom.  A key appears at most once per
block; only ``opens`` and a covering's ``leg`` repeat.  A gluing names the
overlap, anchor and transition of every ordered pair of distinct labels (the
diagonal ones default to the patch and identities), even where the overlap
is empty; ``GluingData`` itself reads an omitted pair as empty.

    space ARC3
      points: l m r
      minopen l: l
      minopen m: l m r
      minopen r: r
    end

    space S            # generated topology
      points: t b
      opens: t
    end

    map a12: D12 -> ARC3
      a -> l
      b -> r
    end

    gluing CIRC
      index: 1 2
      patch 1: ARC3
      overlap 1 2: D12
      anchor 1 2: a12
      transition 1 2: t12
      triple 1 2 2: m       # optional explicit triple transition
    end

    cone K
      over: CIRC
      apex: C4
      leg 1: psi1           # pair/triple legs: "leg 1 2:", "leg 1 2 3:"
    end

    refinement R
      fine: FINEGLUING
      coarse: COARSEGLUING
      gamma 1: 1
      component 1: rho1     # pair/triple components optional
    end

    meta M
      index: 1 2
      node 1: G1
      node 1 2: H12
      edge eta 1 2: R       # eta i j / tau i j / eta3 i j k n / tau3 i j k
    end

    covering COV
      base: C4
      kind: open
      leg: m1
    end
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from .errors import DuplicateName, ParseError, UnresolvedReference
from .fintop import FiniteSpace, SpaceMap, from_opens, make_space
from .gdata import GluingData, GluingFunctor, _index_labels, derive_triple_maps, functor_of
from .glidx import GlGen, GlObject, normalize
from .glue import Cone, complete_cone
from .refine import GdfGluingData, Refinement
from .cover import KINDS, Covering


@dataclass
class ConeDecl:
    """A declared cone over ``gluing``, completed when first read (``glue.complete_cone``;
    the declared legs override the completed ones): parsing composes no map of the gluing."""

    gluing: GluingData
    apex: FiniteSpace
    legs: dict[GlObject, SpaceMap]

    @cached_property
    def cone(self) -> Cone:
        single_legs = {obj.head: leg for obj, leg in self.legs.items() if obj.arity == 1}
        return Cone(self.apex, {**complete_cone(self.gluing, self.apex, single_legs).legs, **self.legs})


@dataclass
class SpecDocument:
    spaces: dict[str, FiniteSpace] = field(default_factory=dict)
    maps: dict[str, SpaceMap] = field(default_factory=dict)
    gluings: dict[str, GluingData] = field(default_factory=dict)
    cones: dict[str, ConeDecl] = field(default_factory=dict)
    refinements: dict[str, Refinement] = field(default_factory=dict)
    metas: dict[str, GdfGluingData] = field(default_factory=dict)
    coverings: dict[str, Covering] = field(default_factory=dict)
    order: list[tuple[str, str]] = field(default_factory=list)
    sources: dict[tuple[str, str], list[str]] = field(default_factory=dict)


def _strip(line: str) -> str:
    if "#" in line:
        line = line[: line.index("#")]
    return line.strip()


class _Block:
    def __init__(self, kind: str, name: str, line_no: int):
        self.kind = kind
        self.name = name
        self.line_no = line_no
        self.lines: list[tuple[int, str]] = []
        self.key_words: list[tuple[int, list[str]]] = []  # (line_no, words of the key), kept by _entries


def _split_blocks(text: str) -> list[_Block]:
    blocks = []
    current: _Block | None = None
    for no, raw in enumerate(text.splitlines(), start=1):
        line = _strip(raw)
        if not line:
            continue
        if current is None:
            parts = line.split()
            if len(parts) < 2:
                raise ParseError(no, f"expected a block header, got {raw.strip()!r}")
            kind = parts[0]
            rest = line[len(kind):].strip()
            current = _Block(kind, rest, no)
        elif line == "end":
            blocks.append(current)
            current = None
        else:
            current.lines.append((no, line))
    if current is not None:
        raise ParseError(current.line_no, f"block {current.name!r} never closed with 'end'")
    return blocks


# entries keyed by an index-category object: "leg 1 2 3" repeats "leg 1 3 2"
_OBJECT_KEYS = {"cone": "leg", "refinement": "component", "meta": "node"}


def _once(block: _Block, first: dict, entry, line_no: int, shown: str) -> None:
    if entry in first:
        raise DuplicateName(
            f"line {line_no}: {block.kind} entry {shown!r} repeats line {first[entry]}"
        )
    first[entry] = line_no


def _entries(block: _Block, repeatable: tuple[str, ...] = ()):
    """Yield ``(line_no, key, words, entry, value)`` for each ``key: value`` line.

    ``words`` is the key split into words, kept on the block for
    ``_check_labels``.  ``entry`` is the normalized object of an object key
    (``leg``, ``component``, ``node``), the ``(dom, cod)`` pair of a meta
    ``edge`` key's generator, else the key.  An entry given twice in one block
    raises ``DuplicateName`` naming both lines, except the keys in
    ``repeatable``.
    """
    first: dict = {}
    for no, line in block.lines:
        key, colon, value = line.partition(":")
        words = key.split()
        if not colon or not words:
            raise ParseError(no, f"expected 'key: value', got {line!r}")
        key = " ".join(words)
        block.key_words.append((no, words))
        if words[0] == _OBJECT_KEYS.get(block.kind):
            entry = _parse_object(no, words[1:])
        elif block.kind == "meta" and words[0] == "edge":
            gen = _parse_gen(no, words[1:])
            entry = (gen.dom, gen.cod)
        else:
            entry = key
        if key not in repeatable:
            _once(block, first, entry, no, key)
        yield no, key, words, entry, value.strip()


def _need(doc_table: dict, name: str, what: str, line_no: int):
    if name not in doc_table:
        raise UnresolvedReference(f"line {line_no}: {what} {name!r} is not declared")
    return doc_table[name]


def _parse_space(block: _Block) -> FiniteSpace:
    points: list[str] = []
    minopen: dict[str, list[str]] = {}
    opens: list[list[str]] = []
    for no, key, words, _, value in _entries(block, repeatable=("opens",)):
        if key == "points":
            points = value.split()
        elif key == "opens":
            opens.append(value.split())
        elif words[0] == "minopen" and len(words) == 2:
            minopen[words[1]] = value.split()
        else:
            raise ParseError(no, f"unknown space entry {key!r}")
    if minopen and opens:
        raise ParseError(block.line_no, "give either minopen lines or opens lines, not both")
    for gen in opens:
        for x in gen:
            if x not in points:
                raise ParseError(block.line_no, f"opens entry {x!r} is not a declared point")
    if minopen:
        return make_space(block.name, points, minopen)
    return from_opens(block.name, points, opens)


def _parse_map(block: _Block, doc: SpecDocument) -> tuple[str, SpaceMap]:
    header = block.name
    if ":" not in header or "->" not in header:
        raise ParseError(block.line_no, "map header must read 'map NAME: DOM -> COD'")
    name, _, rest = header.partition(":")
    dom_name, _, cod_name = rest.partition("->")
    dom = _need(doc.spaces, dom_name.strip(), "space", block.line_no)
    cod = _need(doc.spaces, cod_name.strip(), "space", block.line_no)
    table = {}
    first: dict[str, int] = {}
    for no, line in block.lines:
        if "->" not in line:
            raise ParseError(no, f"expected 'point -> point', got {line!r}")
        src, _, dst = line.partition("->")
        src = src.strip()
        _once(block, first, src, no, src)
        table[src] = dst.strip()
    return name.strip(), SpaceMap(dom, cod, table)


def _parse_gluing(block: _Block, doc: SpecDocument, derive: bool) -> GluingData:
    index: list[str] = []
    patch = {}
    overlap = {}
    anchor = {}
    transition = {}
    triples = {}
    for no, key, words, _, value in _entries(block):
        if key == "index":
            index = value.split()
        elif words[0] == "patch" and len(words) == 2:
            patch[words[1]] = _need(doc.spaces, value, "space", no)
        elif words[0] == "overlap" and len(words) == 3:
            overlap[(words[1], words[2])] = _need(doc.spaces, value, "space", no)
        elif words[0] == "anchor" and len(words) == 3:
            anchor[(words[1], words[2])] = _need(doc.maps, value, "map", no)
        elif words[0] == "transition" and len(words) == 3:
            transition[(words[1], words[2])] = _need(doc.maps, value, "map", no)
        elif words[0] == "triple" and len(words) == 4:
            triples[(words[1], words[2], words[3])] = _need(doc.maps, value, "map", no)
        else:
            raise ParseError(no, f"unknown gluing entry {key!r}")
    if not index:
        raise ParseError(block.line_no, "gluing needs an index line")
    _check_labels(block, index)
    # the format names every ordered pair; the library reads an omitted pair as an empty overlap
    idx = _index_labels(index, patch)
    missing = sorted(
        (i, j) for i in idx for j in idx
        if i != j and not ((i, j) in overlap and (i, j) in anchor and (i, j) in transition)
    )
    if missing:
        raise UnresolvedReference(f"gluing data is missing entries for pairs {missing}")
    data = GluingData(idx, patch, overlap, anchor, transition, triples)
    if derive:
        data = derive_triple_maps(data)
    return data


def _check_labels(block: _Block, index: list[str] | tuple[str, ...], where: str = "'index:'") -> None:
    """Raise ``UnresolvedReference`` for the first entry label that is not in ``index``.

    A key's labels are its words after the first, or after the generator kind for an ``edge``.
    """
    for no, words in block.key_words:
        for label in words[2:] if words[0] == "edge" else words[1:]:
            if label not in index:
                raise UnresolvedReference(f"line {no}: index label {label!r} is not in {where}")


def _parse_object(line_no: int, fields: list[str]) -> GlObject:
    if not 1 <= len(fields) <= 3:
        raise ParseError(line_no, f"object needs 1 to 3 indices, got {fields!r}")
    return normalize(tuple(fields))


def _parse_cone(block: _Block, doc: SpecDocument) -> ConeDecl:
    over = None
    apex = None
    legs: dict[GlObject, SpaceMap] = {}
    for no, key, words, entry, value in _entries(block):
        if key == "over":
            over = value
        elif key == "apex":
            apex = _need(doc.spaces, value, "space", no)
        elif words[0] == "leg":
            legs[entry] = _need(doc.maps, value, "map", no)
        else:
            raise ParseError(no, f"unknown cone entry {key!r}")
    if over is None or apex is None:
        raise ParseError(block.line_no, "cone needs 'over' and 'apex'")
    gd = _need(doc.gluings, over, "gluing", block.line_no)
    _check_labels(block, gd.index, f"the index of gluing {over!r}")
    return ConeDecl(gd, apex, legs)


def _parse_refinement(block: _Block, doc: SpecDocument) -> Refinement:
    fine = None
    coarse = None
    gamma: dict[str, str] = {}
    components: dict[GlObject, SpaceMap] = {}
    for no, key, words, entry, value in _entries(block):
        if key == "fine":
            fine = functor_of(_need(doc.gluings, value, "gluing", no))
        elif key == "coarse":
            coarse = functor_of(_need(doc.gluings, value, "gluing", no))
        elif words[0] == "gamma" and len(words) == 2:
            gamma[words[1]] = value
        elif words[0] == "component":
            components[entry] = _need(doc.maps, value, "map", no)
        else:
            raise ParseError(no, f"unknown refinement entry {key!r}")
    if fine is None or coarse is None:
        raise ParseError(block.line_no, "refinement needs 'fine' and 'coarse'")
    _check_labels(block, coarse.index, "the index of the coarse gluing")
    return Refinement(gamma, fine, coarse, components)


def _parse_gen(line_no: int, fields: list[str]) -> GlGen:
    if not fields:
        raise ParseError(line_no, "edge needs a generator")
    kind = fields[0]
    arities = {"eta": 2, "tau": 2, "eta3": 4, "tau3": 3}
    if kind not in arities:
        raise ParseError(line_no, f"unknown generator kind {kind!r}")
    if len(fields) - 1 != arities[kind]:
        raise ParseError(line_no, f"generator {kind} needs {arities[kind]} indices")
    return GlGen(kind, tuple(fields[1:]))


def _parse_meta(block: _Block, doc: SpecDocument) -> GdfGluingData:
    index: list[str] = []
    node: dict[GlObject, GluingFunctor] = {}
    edge: dict[tuple[GlObject, GlObject], Refinement] = {}
    for no, key, words, entry, value in _entries(block):
        if key == "index":
            index = value.split()
        elif words[0] == "node":
            node[entry] = functor_of(_need(doc.gluings, value, "gluing", no))
        elif words[0] == "edge":
            dom, cod = entry
            if dom == cod:
                raise ParseError(no, "edge generator is an identity")
            edge[entry] = _need(doc.refinements, value, "refinement", no)
        else:
            raise ParseError(no, f"unknown meta entry {key!r}")
    if not index:
        raise ParseError(block.line_no, "meta needs an index line")
    _check_labels(block, index)
    return GdfGluingData(tuple(sorted(set(index))), node, edge)


def _parse_covering(block: _Block, doc: SpecDocument) -> Covering:
    base = None
    kind = "gluing"
    family = []
    for no, key, _, _, value in _entries(block, repeatable=("leg",)):
        if key == "base":
            base = _need(doc.spaces, value, "space", no)
        elif key == "kind":
            if value not in KINDS:
                raise ParseError(no, f"unknown covering kind {value!r}")
            kind = value
        elif key == "leg":
            leg = _need(doc.maps, value, "map", no)
            family.append((leg.dom, leg))
        else:
            raise ParseError(no, f"unknown covering entry {key!r}")
    if base is None:
        raise ParseError(block.line_no, "covering needs a base")
    return Covering(base, family, kind)


def parse_spec(text: str, derive_triples: bool = False) -> SpecDocument:
    """Parse a document; resolves every reference and rejects duplicates.

    Triple transitions are never filled in silently: pass ``derive_triples``
    to complete them where they are uniquely forced.
    """
    doc = SpecDocument()
    taken: set[str] = set()
    for block in _split_blocks(text):
        kind = block.kind
        if kind == "map":
            name, value = _parse_map(block, doc)
        else:
            name = block.name
        if not name or any(ch.isspace() for ch in name):
            raise ParseError(block.line_no, f"bad {kind} name {name!r}")
        if name in taken:
            raise DuplicateName(f"line {block.line_no}: {name!r} declared twice")
        taken.add(name)
        if kind == "space":
            doc.spaces[name] = _parse_space(block)
        elif kind == "map":
            doc.maps[name] = value
        elif kind == "gluing":
            doc.gluings[name] = _parse_gluing(block, doc, derive_triples)
        elif kind == "cone":
            doc.cones[name] = _parse_cone(block, doc)
        elif kind == "refinement":
            doc.refinements[name] = _parse_refinement(block, doc)
        elif kind == "meta":
            doc.metas[name] = _parse_meta(block, doc)
        elif kind == "covering":
            doc.coverings[name] = _parse_covering(block, doc)
        else:
            raise ParseError(block.line_no, f"unknown block kind {kind!r}")
        doc.order.append((kind, name))
        doc.sources[(kind, name)] = [line for _, line in block.lines]
    return doc


def serialize(doc: SpecDocument) -> str:
    """Render a document back to text; reparsing yields an equal document."""
    out = []
    for kind, name in doc.order:
        if kind == "map":
            m = doc.maps[name]
            dom = _space_name(doc, m.dom)
            cod = _space_name(doc, m.cod)
            out.append(f"map {name}: {dom} -> {cod}")
            for src in sorted(m.table):
                out.append(f"  {src} -> {m.table[src]}")
        elif kind == "space":
            sp = doc.spaces[name]
            out.append(f"space {name}")
            out.append("  points: " + " ".join(sorted(sp.points)))
            for x in sorted(sp.points):
                out.append(f"  minopen {x}: " + " ".join(sorted(sp.min_open[x])))
        else:
            out.append(f"{kind} {name}")
            for line in doc.sources[(kind, name)]:
                out.append(f"  {line}")
        out.append("end")
        out.append("")
    return "\n".join(out)


def _space_name(doc: SpecDocument, space: FiniteSpace) -> str:
    # equality ignores space_id, so two declared spaces with one table are
    # equal; the identical object names the space the map was declared with
    for same in (lambda sp: sp is space, lambda sp: sp == space):
        for name, sp in doc.spaces.items():
            if same(sp):
                return name
    raise UnresolvedReference(f"space {space.space_id!r} is not declared in the document")
