"""Deterministic DOT rendering of index categories and gluing diagrams."""

from __future__ import annotations

from . import glidx
from .gdata import GluingData
from .glidx import single
from .refine import GdfGluingData


def _quote(s: str) -> str:
    return '"' + s.replace('"', r"\"") + '"'


def render_index(index: tuple[str, ...]) -> str:
    """Objects as nodes, one labeled edge per deduplicated generator.

    Identity loops are suppressed.
    """
    lines = ["digraph gluing_index {"]
    for obj in glidx.objects(index):
        lines.append(f"  {_quote(repr(obj))};")
    edges = [
        f"  {_quote(repr(d))} -> {_quote(repr(c))} [label={_quote(gen.display())}];"
        for (d, c), gen in glidx.edges(index).items()
    ]
    lines.extend(sorted(edges))
    lines.append("}")
    return "\n".join(lines) + "\n"


def render_gluing(name: str, gd: GluingData, glued=None) -> str:
    """The nerve's objects carrying their space labels, its generator edges, and glued legs."""
    lines = [f"digraph {name} {{"]
    for obj in gd.nerve.objects:
        sp = gd.space_of(obj)
        label = f"{obj!r}\\n{sp.space_id} ({len(sp.points)}p)"
        lines.append(f"  {_quote(repr(obj))} [label={_quote(label)}];")
    edges = [
        f"  {_quote(repr(c))} -> {_quote(repr(d))} [label={_quote(gen.display())}];"
        for (d, c), gen in gd.nerve.edges.items()
    ]
    lines.extend(sorted(edges))
    if glued is not None:
        glabel = f"glued\\n{len(glued.space.points)}p"
        lines.append(f"  glued [label={_quote(glabel)},shape=doublecircle];")
        for i in gd.index:
            lines.append(
                f"  {_quote(repr(single(i)))} -> glued [label={_quote('leg ' + i)},style=dashed];"
            )
    lines.append("}")
    return "\n".join(lines) + "\n"


def render_meta(name: str, meta: GdfGluingData) -> str:
    """Nodes labeled by their node gluings, refinement edges labeled by target."""
    lines = [f"digraph {name} {{"]
    for obj in sorted(meta.node, key=repr):
        fun = meta.node[obj]
        label = f"{obj!r}\\n{len(fun.index)} patches"
        lines.append(f"  {_quote(repr(obj))} [label={_quote(label)}];")
    edges = []
    for (a, b) in sorted(meta.edge, key=repr):
        edges.append(f"  {_quote(repr(b))} -> {_quote(repr(a))} [label={_quote('refines')}];")
    lines.extend(edges)
    lines.append("}")
    return "\n".join(lines) + "\n"
