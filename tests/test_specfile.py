from pathlib import Path

import pytest

from topoglue.errors import DuplicateName, ParseError, UnresolvedReference
from topoglue.fintop import SpaceMap
from topoglue.fixtures import gd_circ, pt, sierp
from topoglue.specfile import parse_spec, serialize

EXAMPLES = Path(__file__).resolve().parent.parent / "docs" / "examples"


def _example_with(name: str, after: str, line: str) -> tuple[str, int]:
    """An example document with ``line`` inserted after its first ``after``
    line, and the line number ``line`` lands on."""
    text = (EXAMPLES / name).read_text()
    lines = text.splitlines()
    at = lines.index(after) + 1
    return "\n".join(lines[:at] + [line] + lines[at:]) + "\n", at + 1


MINIMAL = """
space PT
  points: p
  minopen p: p
end
"""

CIRCLE = """
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
"""


class TestParse:
    def test_minimal_document(self):
        doc = parse_spec(MINIMAL)
        assert sorted(doc.spaces) == ["PT"]
        assert len(doc.spaces["PT"].points) == 1

    def test_circle_matches_programmatic_fixture(self):
        doc = parse_spec(CIRCLE, derive_triples=True)
        gd = doc.gluings["CIRC"]
        expect = gd_circ()
        assert gd.index == expect.index
        assert gd.patch == expect.patch
        assert gd.overlap == expect.overlap
        assert gd.anchor == expect.anchor
        assert gd.transition == expect.transition
        assert gd.triple_transition == expect.triple_transition

    def test_generated_opens(self):
        doc = parse_spec(
            "space S\n  points: t b\n  opens: t\nend\n"
        )
        assert doc.spaces["S"] == sierp()

    def test_unresolved_reference(self):
        text = MINIMAL + "\nmap f: PT -> NOWHERE\n  p -> p\nend\n"
        with pytest.raises(UnresolvedReference):
            parse_spec(text)

    def test_duplicate_name(self):
        with pytest.raises(DuplicateName):
            parse_spec(MINIMAL + MINIMAL)

    def test_unclosed_block(self):
        with pytest.raises(ParseError):
            parse_spec("space X\n  points: a\n  minopen a: a\n")

    def test_unknown_entry(self):
        with pytest.raises(ParseError):
            parse_spec("space X\n  points: a\n  minopen a: a\n  frobnicate: 1\nend\n")

    def test_comments_and_blanks_ignored(self):
        text = "# heading\n\n" + MINIMAL.replace("points:", "points:  # inline\n  points:")
        # the replace would duplicate the key; use a simpler check instead
        doc = parse_spec("# top\n" + MINIMAL + "\n# tail\n")
        assert "PT" in doc.spaces

    def test_triples_not_derived_by_default(self):
        doc = parse_spec(CIRCLE)
        assert doc.gluings["CIRC"].triple_transition == {}

    @pytest.mark.parametrize(
        "line",
        [
            "patch 3: ARC3A",
            "overlap 1 3: D12",
            "anchor 3 1: a12",
            "transition 1 3: t12",
            "triple 1 2 3: t12",
        ],
    )
    def test_gluing_entry_outside_index(self, line):
        text = CIRCLE.replace("  transition 2 1: t21\n", f"  transition 2 1: t21\n  {line}\n")
        with pytest.raises(UnresolvedReference, match="not in 'index:'"):
            parse_spec(text)

    @pytest.mark.parametrize(
        "line", ["index: 1 2", "patch 1: ARC3B", "anchor  1 2: a12", "transition 2 1: t21"]
    )
    def test_repeated_gluing_entry(self, line):
        text = CIRCLE.replace("  transition 2 1: t21\n", f"  transition 2 1: t21\n  {line}\n")
        with pytest.raises(DuplicateName, match="repeats line"):
            parse_spec(text)

    def test_repeated_map_source(self):
        text = CIRCLE.replace("  a -> l\n  b -> r\n", "  a -> l\n  b -> r\n  a -> r\n", 1)
        with pytest.raises(DuplicateName, match=r"line 31: map entry 'a' repeats line 29"):
            parse_spec(text)


class TestEntryKeys:
    @pytest.mark.parametrize(
        "name, after",
        [
            ("circle.glue", "  points: l m r"),
            ("circle.glue", "  index: 1 2"),
            ("circle.glue", "  over: CIRC"),
            ("torus.glue", "  gamma 1: 1"),
            ("torus.glue", "  node 1: CYL1"),
            ("circle.glue", "  kind: open"),
        ],
        ids=["space", "gluing", "cone", "refinement", "meta", "covering"],
    )
    def test_empty_key(self, name, after):
        text, no = _example_with(name, after, "  : p")
        with pytest.raises(ParseError, match=f"line {no}: expected 'key: value', got ': p'"):
            parse_spec(text, derive_triples=True)

    @pytest.mark.parametrize(
        "name, after, line, kind, key",
        [
            ("circle.glue", "  minopen m: l m r", "  minopen m: m", "space", "minopen m"),
            ("circle.glue", "  points: l m r", "  points:  l m", "space", "points"),
            ("circle.glue", "  a -> l", "  a -> r", "map", "a"),
            ("circle.glue", "  index: 1 2", "  index: 1", "gluing", "index"),
            ("circle.glue", "  leg 1: psi1", "  leg  1: psi2", "cone", "leg 1"),
            ("circle.glue", "  over: CIRC", "  over: CIRC", "cone", "over"),
            ("torus.glue", "  gamma 1: 1", "  gamma 1: 2", "refinement", "gamma 1"),
            ("torus.glue", "  component 1: incl1p1", "  component 1: incl1p2", "refinement", "component 1"),
            ("torus.glue", "  node 1 1 2: BND1", "  node 1 2 1: BND2", "meta", "node 1 2 1"),
            ("torus.glue", "  edge eta3 1 1 2 1: INCL1", "  edge eta3 1 2 1 1: IDB1", "meta", "edge eta3 1 2 1 1"),
            ("circle.glue", "  kind: open", "  kind: gluing", "covering", "kind"),
        ],
    )
    def test_repeated_entry(self, name, after, line, kind, key):
        text, no = _example_with(name, after, line)
        with pytest.raises(DuplicateName, match=f"line {no}: {kind} entry '{key}' repeats line {no - 1}$") as info:
            parse_spec(text, derive_triples=True)
        assert info.value.exit_code == 2

    def test_opens_and_covering_legs_repeat(self):
        doc = parse_spec((EXAMPLES / "circle.glue").read_text())
        assert len(doc.spaces["D12"].points) == 2
        assert len(doc.coverings["TWOARCS"].family) == 2


class TestRoundTrip:
    def test_serialize_reparses_equal(self):
        doc = parse_spec(CIRCLE, derive_triples=True)
        text = serialize(doc)
        doc2 = parse_spec(text, derive_triples=True)
        assert sorted(doc.spaces) == sorted(doc2.spaces)
        for name in doc.spaces:
            assert doc.spaces[name] == doc2.spaces[name]
        for name in doc.maps:
            assert doc.maps[name] == doc2.maps[name]
        for name in doc.gluings:
            a, b = doc.gluings[name], doc2.gluings[name]
            assert a.patch == b.patch and a.anchor == b.anchor

    def test_map_between_equal_tables_keeps_its_header(self):
        text = (
            "space A\n  points: p q\n  opens: p\nend\n"
            "space B\n  points: p q\n  opens: p\nend\n"
            "map m: B -> A\n  p -> p\n  q -> q\nend\n"
        )
        doc = parse_spec(text)
        assert doc.spaces["A"] == doc.spaces["B"]
        out = serialize(doc)
        assert "map m: B -> A" in out.splitlines()
        again = parse_spec(out).maps["m"]
        assert (again.dom.space_id, again.cod.space_id) == ("B", "A")

    def test_serialize_deterministic(self):
        doc = parse_spec(CIRCLE)
        assert serialize(doc) == serialize(parse_spec(CIRCLE))

    def test_map_out_of_an_undeclared_space_is_refused(self):
        doc = parse_spec("space S\n  points: t b\n  opens: t\nend\n")
        doc.maps["f"] = SpaceMap(pt(), doc.spaces["S"], {"p": "t"})
        doc.order.append(("map", "f"))
        with pytest.raises(UnresolvedReference, match="^space 'PT' is not declared in the document$"):
            serialize(doc)
