"""Command-line interface: batch validation and construction over documents.

Exit codes: 0 all checks pass, 1 a check failed, 2 input error, 3 search
budget exceeded; each error class declares its code in ``topoglue.errors``.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
from dataclasses import asdict, dataclass, field

from . import cover as cover_mod
from . import dot, fintop, gdata, glue as glue_mod, refine as refine_mod
from .errors import TopoglueError, UnknownCommand, UnknownTarget, ValidationFailed
from .specfile import SpecDocument, parse_spec

@dataclass
class RunReport:
    command: str
    target: str
    ok: bool
    lines: list[str] = field(default_factory=list)
    data: dict = field(default_factory=dict)
    bare: bool = False  # suppress the status line (pipeable output)

    @property
    def exit_code(self) -> int:
        return 0 if self.ok else 1

    def human(self) -> str:
        if self.bare:
            return "\n".join(self.lines)
        status = "PASS" if self.ok else "FAIL"
        return "\n".join([f"{status} {self.command} {self.target}".rstrip()] + self.lines)

    def machine(self) -> str:
        payload = {
            "command": self.command,
            "target": self.target,
            "ok": self.ok,
            "data": self.data,
        }
        return json.dumps(payload, sort_keys=True)


def _rows(rep: gdata.Report) -> list[dict]:
    return [asdict(e) for e in rep.entries]


def _checked(command, target, rep: gdata.Report, head=(), tail=(), **data) -> RunReport:
    """A check report: ``head``, one line per row, ``tail``; the rows as ``entries``."""
    lines = [*head, *map(str, rep.entries), *tail]
    return RunReport(command, target, rep.passed, lines, {**data, "entries": _rows(rep)})


def _named(table: dict, kind: str, name: str):
    if name not in table:
        raise UnknownTarget(f"no {kind} named {name!r}")
    return table[name]


def _cmd_validate(doc, targets, opts):
    names = targets or sorted(doc.gluings)
    lines = []
    data = {}
    ok = True
    for name in names:
        rep = gdata.validate(_named(doc.gluings, "gluing", name))
        ok = ok and rep.passed
        lines.append(f"gluing {name}: {'pass' if rep.passed else 'FAIL'}")
        lines += ["  " + str(e) for e in rep.failures()]
        data[name] = _rows(rep)
    return RunReport("validate", " ".join(names), ok, lines, data)


def _cmd_glue(doc, targets, opts):
    name = _one_target("glue", targets)
    glued = glue_mod.glue(_named(doc.gluings, "gluing", name))
    classes = {q: sorted(glued.classes[q]) for q in sorted(glued.classes)}
    lines = [f"glued space has {len(glued.space.points)} classes"]
    for q in sorted(classes):
        lines.append(f"  {q} = {{{', '.join(classes[q])}}}")
    legs = {}
    for obj in sorted(glued.legs, key=repr):
        legs[repr(obj)] = dict(sorted(glued.legs[obj].table.items()))
        lines.append(f"  leg {obj!r}: " + ", ".join(
            f"{k}->{v}" for k, v in sorted(glued.legs[obj].table.items())
        ))
    data = {
        "classes": classes,
        "legs": legs,
        "min_open": {q: sorted(glued.space.min_open[q]) for q in sorted(glued.space.points)},
    }
    return RunReport("glue", name, True, lines, data)


def _cmd_check_cone(doc, targets, opts):
    name = _one_target("check-cone", targets)
    decl = _named(doc.cones, "cone", name)
    gd = _named(doc.gluings, "gluing", decl.over)
    modes = [opts.mode] if opts.mode else list(glue_mod.CONE_MODES)
    verdicts, missing = {}, None
    for m in modes:
        try:
            verdicts[m] = glue_mod.check_cone(gd, decl.cone, m)
        except ValidationFailed as exc:  # full mode without every triple transition
            if opts.mode:
                raise
            verdicts[m], missing = None, exc.report
    words = {True: "cone", False: "not a cone", None: "not checked"}
    head = [f"mode {m}: {words[v]}" for m, v in verdicts.items()]
    if missing is not None:
        return _checked("check-cone", name, missing, head, verdicts=verdicts)
    return RunReport("check-cone", name, all(verdicts.values()), head, {"verdicts": verdicts})


def _cmd_check_glued(doc, targets, opts):
    name = _one_target("check-glued", targets)
    decl = _named(doc.cones, "cone", name)
    gd = _named(doc.gluings, "gluing", decl.over)
    return _checked("check-glued", name, glue_mod.check_glued_properties(gd, decl.cone))


def _cmd_mediate(doc, targets, opts):
    if len(targets) != 2:
        raise UnknownTarget("mediate needs a gluing name and a cone name")
    gd = _named(doc.gluings, "gluing", targets[0])
    decl = _named(doc.cones, "cone", targets[1])
    glued = glue_mod.glue(gd)
    mu = glue_mod.mediate(gd, glued, decl.cone)
    lines = [f"{k} -> {v}" for k, v in sorted(mu.table.items())]
    return RunReport(
        "mediate", " ".join(targets), True, lines, {"table": dict(sorted(mu.table.items()))}
    )


def _cmd_verify_universal(doc, targets, opts):
    name = _one_target("verify-universal", targets)
    gd = _named(doc.gluings, "gluing", name)
    glued = glue_mod.glue(gd)
    rep = glue_mod.verify_universal(gd, glued, budget=opts.budget)
    head = [f"{rep.cones_checked} cones checked"]
    return _checked("verify-universal", name, rep, head, cones=rep.cones_checked)


def _cmd_check_otop(doc, targets, opts):
    name = _one_target("check-otop", targets)
    gd = _named(doc.gluings, "gluing", name)
    glued = glue_mod.glue(gd)
    rep = glue_mod.check_otop(gd, glued)
    head = ["applicable" if rep.applicable else "not applicable"]
    return _checked("check-otop", name, rep, head, applicable=rep.applicable)


def _cmd_check_refinement(doc, targets, opts):
    name = _one_target("check-refinement", targets)
    rep = refine_mod.check_refinement(_named(doc.refinements, "refinement", name))
    return _checked("check-refinement", name, rep)


def _cmd_compose(doc, targets, opts):
    name = _one_target("compose", targets)
    fun, rep = refine_mod.compose_gdf(_named(doc.metas, "meta gluing", name))
    points = sorted(glue_mod.glue(fun.data).space.points)
    tail = [f"composed glued space has {len(points)} points"]
    return _checked("compose", name, rep, tail=tail, glued_points=points)


def _cmd_cover_check(doc, targets, opts):
    name = _one_target("cover-check", targets)
    c = _named(doc.coverings, "covering", name)
    if opts.kind:
        c = cover_mod.Covering(c.base, c.family, opts.kind)
    return _checked("cover-check", name, cover_mod.check_covering(c))


def _cmd_cover_functor(doc, targets, opts):
    name = _one_target("cover-functor", targets)
    c = _named(doc.coverings, "covering", name)
    result = cover_mod.functor_of_covering(c)
    tail = [f"glued space has {len(result.glued.space.points)} points"]
    return _checked("cover-functor", name, result.report, tail=tail)


def _cmd_site_check(doc, targets, opts):
    rng = random.Random(opts.seed)
    rounds = opts.count
    kinds = [opts.kind] if opts.kind else ["gluing", "open"]
    failures = []
    checked = 0
    for n in range(rounds):
        for kind in kinds:
            base = cover_mod.random_space(rng, max_points=8, space_id=f"base{n}")
            c = cover_mod.random_covering(rng, base, kind)
            if not cover_mod.check_covering(c).passed:
                failures.append(f"round {n}: generated covering invalid ({kind})")
                continue
            checked += 1
            ident = fintop.identity_map(base)
            if not cover_mod.site_axiom_iso(ident):
                failures.append(f"round {n}: iso axiom failed ({kind})")
            subs = [
                cover_mod.random_covering(rng, patch, kind) for patch, _ in c.family
            ]
            _, ok = cover_mod.site_axiom_compose(c, subs)
            if not ok:
                failures.append(f"round {n}: composition axiom failed ({kind})")
            v = cover_mod.random_space(rng, max_points=5, space_id=f"v{n}")
            tables = fintop.continuous_images(v, base, opts.budget)
            if tables:
                phi = fintop.SpaceMap(v, base, dict(zip(sorted(v.points), rng.choice(tables))))
                pulled, ok = cover_mod.site_axiom_basechange(c, phi)
                if not ok:
                    failures.append(f"round {n}: base-change axiom failed ({kind})")
                if pulled.kind != c.kind:
                    failures.append(f"round {n}: base-change changed the kind")
    ok = not failures
    lines = [f"{checked} random coverings checked"] + failures
    return RunReport("site-check", f"seed={opts.seed}", ok, lines, {"checked": checked, "failures": failures})


def _cmd_render_dot(doc, targets, opts):
    name = _one_target("render-dot", targets)
    if name.startswith("index:"):
        labels = tuple(sorted(set(name[len("index:"):].split(","))))
        if "" in labels:
            raise UnknownTarget(f"{name!r} has an empty index label")
        # a spec file splits its index lines on whitespace, so no label holds any
        if any(label.split() != [label] for label in labels):
            raise UnknownTarget(f"{name!r} has an index label with whitespace")
        text = dot.render_index(labels)
    elif name in doc.gluings:
        gd = doc.gluings[name]
        glued = glue_mod.glue(gd)
        text = dot.render_gluing(name, gd, glued)
    elif name in doc.metas:
        text = dot.render_meta(name, doc.metas[name])
    else:
        raise UnknownTarget(f"{name!r} is not an index set, gluing, or meta gluing")
    return RunReport("render-dot", name, True, [text.rstrip("\n")], {"dot": text}, bare=True)


def _one_target(command: str, targets) -> str:
    if len(targets) != 1:
        raise UnknownTarget(f"{command} needs exactly one target name")
    return targets[0]


_DISPATCH = {
    "validate": _cmd_validate,
    "glue": _cmd_glue,
    "check-cone": _cmd_check_cone,
    "check-glued": _cmd_check_glued,
    "mediate": _cmd_mediate,
    "verify-universal": _cmd_verify_universal,
    "check-otop": _cmd_check_otop,
    "check-refinement": _cmd_check_refinement,
    "compose": _cmd_compose,
    "cover-check": _cmd_cover_check,
    "cover-functor": _cmd_cover_functor,
    "site-check": _cmd_site_check,
    "render-dot": _cmd_render_dot,
}
COMMANDS = tuple(_DISPATCH)


def run(doc: SpecDocument, command: str, targets=(), opts=None) -> RunReport:
    """Execute one command against a parsed document."""
    if command not in _DISPATCH:
        raise UnknownCommand(f"unknown command {command!r}")
    if opts is None:
        opts = _default_opts()
    return _DISPATCH[command](doc, list(targets), opts)


def render_dot(doc: SpecDocument, target: str) -> str:
    """The DOT text for an index set (``index:i,j,k``), gluing, or meta gluing."""
    return _cmd_render_dot(doc, [target], _default_opts()).data["dot"]


def _default_opts():
    """The options of a command line that sets none of them."""
    return _build_parser().parse_args([COMMANDS[0], ""])


def _at_least(least: int):
    """An argparse type: an integer no less than ``least``."""

    def number(text: str) -> int:
        value = int(text)
        if value < least:
            raise argparse.ArgumentTypeError(f"must be at least {least}, got {value}")
        return value

    number.__name__ = "int"  # argparse names the type in its "invalid int value" message
    return number


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="topoglue",
        description="validate and construct gluings of finite topological spaces",
    )
    p.add_argument("command", choices=COMMANDS)
    p.add_argument("file", help="declaration document")
    p.add_argument("targets", nargs="*", help="declared names the command acts on")
    p.add_argument("--budget", type=_at_least(0), default=fintop.DEFAULT_MAP_BUDGET,
                   help="search budget for enumeration oracles: point or link-class "
                   "assignments each search may try (search nodes)")
    p.add_argument("--derive-triples", action="store_true",
                   help="fill missing triple transitions when uniquely forced")
    p.add_argument("--mode", choices=glue_mod.CONE_MODES, default=None,
                   help="cone check mode (default: all three)")
    p.add_argument("--kind", choices=cover_mod.KINDS, default=None,
                   help="covering kind override")
    p.add_argument("--seed", type=int, default=0, help="seed for randomized batches")
    p.add_argument("--count", type=_at_least(1), default=25,
                   help="rounds for randomized batches")
    p.add_argument("--machine", action="store_true", help="emit a JSON report")
    return p


def main(argv=None) -> int:
    opts = _build_parser().parse_args(argv)
    try:
        with open(opts.file, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        doc = parse_spec(text, derive_triples=opts.derive_triples)
        report = run(doc, opts.command, opts.targets, opts)
    except TopoglueError as exc:
        prefix = "check failed" if exc.exit_code == 1 else "error"
        print(f"{prefix}: {exc}", file=sys.stderr)
        return exc.exit_code
    try:
        print(report.machine() if opts.machine else report.human())
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed the pipe: send the rest, and the flush at exit, nowhere
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return report.exit_code


if __name__ == "__main__":
    sys.exit(main())
