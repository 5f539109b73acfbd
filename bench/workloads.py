"""The four benchmark workloads: inputs, ops, and the checks on their answers.

Each workload is built from a seed (its set-up, which ``setup_s`` times).
``prepare`` then does the benchmark's own untimed work: expected answers
from ``refs`` and, on reject_mutants, the entries a mutation may redirect.
A workload hands out ops one block at a time (every op of the mix once per
block, so any whole number of blocks has the same mix), runs one op through
a tracer, and checks the op's outcome.  ``check`` returns None for a correct
answer and a short description of the mismatch otherwise.

Importing this module puts the checkout's ``src`` first on ``sys.path``, so
the benchmark always measures the code next to it.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
EXAMPLES = ROOT / "docs" / "examples"
sys.path.insert(0, str(SRC))

# cli is imported so that every workload's set-up pays the whole package import
from topoglue import cli, cover, fintop, fixtures, gdata, glidx, glue, refine  # noqa: E402,F401
from topoglue.errors import NotDetermined, NotEquivalence, ValidationFailed  # noqa: E402

import refs  # noqa: E402
from cli_child import SPANS_TAG  # noqa: E402
from spans import Tracer  # noqa: E402


def _failed_entries(report):
    return [e for e in report.entries if not e.ok]


def index_objects(k: int) -> int:
    """Objects of the gluing index category over k labels: [i], [i,j], and [i,j,k] for j != k up to order."""
    return k + k * (k - 1) + k * (k * (k - 1) // 2)


class Workload:
    """Defaults: no instances and nothing to prepare."""

    def prepare(self):
        pass

    def instance(self, op):
        return None


# --- cli_docs -------------------------------------------------------------

# The nine README commands; ``CliDocs.check`` holds the facts each one's
# --machine output must show.
CLI_COMMANDS = (
    ("glue", "circle.glue", ["CIRC"]),
    ("check-cone", "circle.glue", ["PARAM"]),
    ("mediate", "circle.glue", ["CIRC", "PARAM"]),
    ("verify-universal", "circle.glue", ["CIRC"]),
    ("compose", "torus.glue", ["TORUS"]),
    ("validate", "broken.glue", ["BROKEN"]),
    ("cover-functor", "circle.glue", ["TWOARCS"]),
    ("site-check", "circle.glue", ["--count", "25", "--seed", "0"]),
    ("render-dot", "circle.glue", ["index:i,j,k"]),
)


class CliDocs(Workload):
    """Each op runs one README command in a fresh interpreter."""

    name = "cli_docs"

    def __init__(self, seed: int):
        self.argv = []
        self.declarations = []
        for command, doc, rest in CLI_COMMANDS:
            argv = [command, f"docs/examples/{doc}", *rest, "--machine"]
            if command != "site-check" and command != "render-dot":
                argv.append("--derive-triples")
            self.argv.append(argv)
            text = (EXAMPLES / doc).read_text(encoding="utf-8")
            self.declarations.append(sum(1 for line in text.splitlines() if line.strip() == "end"))
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p
        )

    def prepare(self):
        # verify-universal on CIRC uses the default apexes plus the glued
        # pseudocircle itself
        self.circ_cones = refs.cone_count(
            refs.C4, [refs.PT, refs.SIERP, refs.DISC2, refs.ARC3, refs.C4]
        )

    def block(self, rng):
        return list(range(len(CLI_COMMANDS)))

    def run(self, op, tr):
        if isinstance(tr, Tracer):
            cmd = [sys.executable, str(Path(__file__).with_name("cli_child.py"))]
        else:
            cmd = [sys.executable, "-m", "topoglue.cli"]
        proc = subprocess.run(
            cmd + self.argv[op], cwd=ROOT, env=self.env, capture_output=True, text=True
        )
        if isinstance(tr, Tracer):
            for line in proc.stderr.splitlines():
                if line.startswith(SPANS_TAG):
                    tr.add_child_spans(json.loads(line[len(SPANS_TAG):]))
        return proc

    def check(self, op, proc):
        command = CLI_COMMANDS[op][0]
        want_code = 1 if command == "validate" else 0
        if proc.returncode != want_code:
            return f"{command}: exit {proc.returncode}, expected {want_code}: {proc.stderr[-300:]}"
        try:
            out = json.loads(proc.stdout)
        except json.JSONDecodeError:
            return f"{command}: output is not JSON"
        data = out["data"]
        if out["ok"] != (want_code == 0):
            return f"{command}: ok={out['ok']}"
        if command == "glue" and len(data["classes"]) != 4:
            return f"glue CIRC: {len(data['classes'])} classes, expected 4"
        if command == "check-cone" and sorted(data["verdicts"].values()) != [True] * 3:
            return f"check-cone PARAM: {data['verdicts']}"
        if command == "mediate" and sorted(data["table"].values()) != ["cl", "cma", "cmb", "cr"]:
            return f"mediate CIRC PARAM: {data['table']}"
        if command == "verify-universal" and data["cones"] != self.circ_cones:
            return f"verify-universal CIRC: {data['cones']} cones, expected {self.circ_cones}"
        if command == "compose" and len(data["glued_points"]) != 16:
            return f"compose TORUS: {len(data['glued_points'])} points, expected 16"
        if command == "validate" and not any(
            not e["ok"] and e["witness"] is not None for e in data["BROKEN"]
        ):
            return "validate BROKEN: no failed clause with a witness"
        if command == "site-check" and (data["failures"] or data["checked"] < 1):
            return f"site-check: {data['checked']} checked, failures {data['failures']}"
        if command == "render-dot":
            nodes = [ln for ln in data["dot"].splitlines() if ln.endswith('";') and "->" not in ln]
            if len(nodes) != index_objects(3):
                return f"render-dot index:i,j,k: {len(nodes)} nodes, expected {index_objects(3)}"
        return None

    def counts(self, op, proc):
        return {"specfile.declarations": self.declarations[op]}


# --- cover_scale and reject_mutants ---------------------------------------

COVER_SIZES = ((12, 3), (24, 4), (48, 6))


@dataclass
class CoverInstance:
    tag: str
    m: int
    k: int
    model: dict
    covering: cover.Covering


def arcs(m: int, k: int) -> list[list[str]]:
    """k open arcs covering DC_m; neighbouring arcs share o_s, c_s, o_s+1."""
    out = []
    for j in range(k):
        s, e = j * m // k, (j + 1) * m // k
        pts = [f"o{c % m}" for c in range(s, e + 2)] + [f"c{c % m}" for c in range(s, e + 1)]
        out.append(pts)
    return out


def cover_instance(m: int, k: int) -> CoverInstance:
    model = refs.digital_circle(m)
    base = fintop.make_space(f"DC{m}", model, model)
    family = [fintop.subspace(base, pts) for pts in arcs(m, k)]
    return CoverInstance(f"m{m}k{k}", m, k, model, cover.Covering(base, family, "open"))


class CoverScale(Workload):
    """One op is the whole construction-and-verification chain on one covering."""

    name = "cover_scale"

    def __init__(self, seed: int):
        self.inst = [cover_instance(m, k) for m, k in COVER_SIZES]

    def block(self, rng):
        return list(range(len(self.inst)))

    def instance(self, op):
        return self.inst[op].tag

    def run(self, op, tr):
        c = self.inst[op].covering
        r = SimpleNamespace()
        r.covering = tr.call("cover.check_covering", cover.check_covering, c)
        gd = r.gd = tr.call("cover.data_of_covering", cover.data_of_covering, c)
        r.relations = tr.call("glidx.verify_relations", glidx.verify_relations, gd.index)
        r.validation = tr.call("gdata.validate", gdata.validate, gd)
        r.functor = tr.call("gdata.functor_of", gdata.functor_of, gd)
        glued = r.glued = tr.call("glue.glue", glue.glue, gd)
        cone = glue.Cone(glued.space, dict(glued.legs))
        r.verdicts = [
            tr.call(f"glue.check_cone.{mode}", glue.check_cone, gd, cone, mode)
            for mode in ("figure3", "figure4", "full")
        ]
        r.properties = tr.call("glue.check_glued_properties", glue.check_glued_properties, gd, glued)
        r.otop = tr.call("glue.check_otop", glue.check_otop, gd, glued)
        base_cone = glue.Cone(c.base, {glidx.single(i): leg for i, leg in zip(gd.index, c.legs())})
        r.mediator = tr.call("glue.mediate", glue.mediate, gd, glued, base_cone)
        r.cover_functor = tr.call("cover.functor_of_covering", cover.functor_of_covering, c)
        return r

    def check(self, op, r):
        inst = self.inst[op]
        m = inst.m
        for label, rep in (
            ("check_covering", r.covering),
            ("verify_relations", r.relations),
            ("validate", r.validation),
            ("check_glued_properties", r.properties),
            ("check_otop", r.otop),
            ("functor_of_covering", r.cover_functor.report),
        ):
            if not rep.passed:
                return f"{inst.tag}: {label} failed"
        glued = refs.model_of(r.glued.space)
        if refs.min_open_sizes(glued) != {1: m, 3: m}:
            return f"{inst.tag}: glued space has minimal-open sizes {refs.min_open_sizes(glued)}"
        if r.verdicts != [True, True, True]:
            return f"{inst.tag}: check_cone verdicts {r.verdicts}"
        if not refs.is_homeomorphism(glued, inst.model, r.mediator.table):
            return f"{inst.tag}: mediating map is not a homeomorphism onto DC_{m}"
        again = refs.model_of(r.cover_functor.glued.space)
        if not refs.is_homeomorphism(again, inst.model, r.cover_functor.iso.table):
            return f"{inst.tag}: functor_of_covering does not rebuild DC_{m}"
        return None

    def counts(self, op, r):
        v = index_objects(self.inst[op].k)
        return {"glidx.objects": v, "glidx.hom_pairs": v * v, "glue.relation_pairs": len(r.glued.relation)}


MUTATION_KINDS = ("anchor", "transition", "triple")


@dataclass(frozen=True)
class Mutation:
    inst: int
    kind: str
    key: tuple
    point: str
    target: str


class RejectMutants(Workload):
    """One op mutates lawful covering data in one entry and must be rejected."""

    name = "reject_mutants"

    def __init__(self, seed: int):
        self.inst = [cover_instance(m, k) for m, k in COVER_SIZES]
        self.lawful = [cover.data_of_covering(i.covering) for i in self.inst]

    def prepare(self):
        # every entry that may be redirected, per instance and kind
        self.sites = []
        for gd in self.lawful:
            by_kind = {kind: [] for kind in MUTATION_KINDS}
            for (i, j), f in gd.anchor.items():
                if i != j and f.dom.points:
                    by_kind["anchor"].append(((i, j), f))
            for (i, j), f in gd.transition.items():
                if i != j and len(f.cod.points) > 1:
                    by_kind["transition"].append(((i, j), f))
            for key, f in gd.triple_transition.items():
                if f.dom.points and len(f.cod.points) > 1:
                    by_kind["triple"].append((key, f))
            self.sites.append({kind: sorted(s, key=lambda site: site[0]) for kind, s in by_kind.items()})

    def block(self, rng):
        ops = []
        for n, sites in enumerate(self.sites):
            for kind in MUTATION_KINDS:
                key, f = rng.choice(sites[kind])
                point = rng.choice(sorted(f.dom.points))
                target = rng.choice(sorted(f.cod.points - {f.table[point]}))
                ops.append(Mutation(n, kind, key, point, target))
        return ops

    def instance(self, op):
        return self.inst[op.inst].tag

    def _mutated(self, op):
        gd = self.lawful[op.inst]
        tables = {
            "anchor": dict(gd.anchor),
            "transition": dict(gd.transition),
            "triple": dict(gd.triple_transition),
        }
        f = tables[op.kind][op.key]
        tables[op.kind][op.key] = fintop.SpaceMap(f.dom, f.cod, {**f.table, op.point: op.target})
        return gd, tables

    def run(self, op, tr):
        gd, tables = self._mutated(op)
        out = SimpleNamespace(report=None, glued=None, error=None)
        try:
            data = tr.call(
                "gdata.make_gluing_data", gdata.make_gluing_data,
                gd.index, gd.patch, gd.overlap, tables["anchor"], tables["transition"],
                tables["triple"] if op.kind == "triple" else None,
            )
            if op.kind != "triple":
                data = tr.call("gdata.derive_triple_maps", gdata.derive_triple_maps, data)
            out.report = tr.call("gdata.validate", gdata.validate, data)
            out.glued = tr.call("glue.glue", glue.glue, data)
        except (ValidationFailed, NotEquivalence, NotDetermined) as exc:
            out.error = exc
        return out

    def expected_clause(self, op):
        """The validate clause the mutation must break, when one is forced."""
        if op.kind == "transition":
            return "transition-inverse"
        if op.kind == "triple":
            return "projection-square"
        _, tables = self._mutated(op)
        f = tables["anchor"][op.key]
        if not refs.is_continuous(refs.model_of(f.dom), refs.model_of(f.cod), f.table):
            return "anchor-continuous"
        return None

    def check(self, op, out):
        what = f"{self.inst[op.inst].tag} {op.kind} {op.key} at {op.point}"
        if out.glued is not None or out.error is None:
            return f"{what}: mutant was glued"
        if isinstance(out.error, NotDetermined) and op.kind == "triple":
            return f"{what}: NotDetermined although no triple map was derived"
        if isinstance(out.error, ValidationFailed) and not any(
            e.witness is not None for e in _failed_entries(out.error.report)
        ):
            return f"{what}: rejected without a witnessed clause"
        clause = self.expected_clause(op)
        if clause and out.report is not None:
            failed = {e.name for e in _failed_entries(out.report)}
            if clause not in failed:
                return f"{what}: validate did not fail {clause} (failed: {sorted(failed)})"
        return None

    def counts(self, op, out):
        failed = len(_failed_entries(out.report)) if out.report is not None else 0
        return {"gdata.validate.failed_clauses": failed}


# --- oracle_search ----------------------------------------------------------

ORACLE_OPS = ("circle", "cylinder", "torus", "torus_maps")


class OracleSearch(Workload):
    """Four fixed brute-force oracle calls, cycled."""

    name = "oracle_search"

    def __init__(self, seed: int):
        self.circ = fixtures.gd_circ()
        self.circ_glued = glue.glue(self.circ)
        self.cyl = fixtures.cylinder_data("1")
        self.cyl_glued = glue.glue(self.cyl)
        self.meta, _ = fixtures.torus_meta()
        self.torus_model = refs.product(refs.C4, refs.C4)
        self.torus_target = fintop.make_space("C4xC4", self.torus_model, self.torus_model)
        self.torus = glue.glue(refine.compose_gdf(self.meta)[0].data).space
        self.pt, self.sierp, self.disc2 = fixtures.pt(), fixtures.sierp(), fixtures.disc2()

    def prepare(self):
        cyl = refs.product(refs.C4, refs.ARC3)
        circ_apexes = [refs.PT, refs.SIERP, refs.DISC2, refs.ARC3, refs.C4]
        self.per_apex = {
            "circle": (refs.C4, circ_apexes),
            "cylinder": (cyl, [refs.PT, refs.SIERP, refs.DISC2]),
            "torus": (self.torus_model, [refs.PT, refs.DISC2]),
        }
        self.cones = {op: refs.cone_count(sp, ax) for op, (sp, ax) in self.per_apex.items()}
        self.scan_pairs = {
            op: sum(refs.cone_count(sp, [a]) ** 2 for a in ax)
            for op, (sp, ax) in self.per_apex.items()
        }
        self.points = {"circle": 4, "cylinder": 12, "torus": 16}
        self.torus_opens = refs.count_opens(self.torus_model)

    def block(self, rng):
        return list(ORACLE_OPS)

    def run(self, op, tr):
        r = SimpleNamespace(glued=None)
        if op == "circle":
            r.glued = self.circ_glued
            r.universal = tr.call("glue.verify_universal", glue.verify_universal, self.circ, self.circ_glued)
        elif op == "cylinder":
            r.glued = self.cyl_glued
            r.universal = tr.call(
                "glue.verify_universal", glue.verify_universal, self.cyl, self.cyl_glued,
                [self.pt, self.sierp, self.disc2],
            )
        elif op == "torus":
            fun, r.compose = tr.call("refine.compose_gdf", refine.compose_gdf, self.meta)
            r.glued = tr.call("glue.glue", glue.glue, fun.data)
            r.homeo = tr.call(
                "fintop.find_homeomorphism", fintop.find_homeomorphism, r.glued.space, self.torus_target
            )
            r.universal = tr.call(
                "glue.verify_universal", glue.verify_universal, fun.data, r.glued, [self.pt, self.disc2]
            )
        else:
            r.maps = tr.call(
                "fintop.enumerate_continuous_maps", fintop.enumerate_continuous_maps, self.torus, self.sierp
            )
        return r

    def check(self, op, r):
        if op == "torus_maps":
            tables = {tuple(sorted(f.table.items())) for f in r.maps}
            if len(r.maps) != self.torus_opens or len(tables) != len(r.maps):
                return f"torus -> SIERP: {len(r.maps)} maps ({len(tables)} distinct), expected {self.torus_opens}"
            source = refs.model_of(self.torus)
            if not all(refs.is_continuous(source, refs.SIERP, f.table) for f in r.maps):
                return "torus -> SIERP: a listed map is not continuous"
            return None
        if len(r.glued.space.points) != self.points[op]:
            return f"{op}: glued space has {len(r.glued.space.points)} points"
        if op == "torus":
            if not r.compose.passed:
                return "torus: compose_gdf report failed"
            if r.homeo is None or not refs.is_homeomorphism(
                refs.model_of(r.glued.space), self.torus_model, r.homeo.table
            ):
                return "torus: no homeomorphism onto C4xC4"
        if not r.universal.passed:
            return f"{op}: verify_universal failed"
        if r.universal.cones_checked != self.cones[op]:
            return f"{op}: {r.universal.cones_checked} cones, expected {self.cones[op]}"
        return None

    def counts(self, op, r):
        if op == "torus_maps":
            return {
                "fintop.enumerate_continuous_maps.candidates": len(self.sierp.points) ** len(self.torus.points),
                "fintop.enumerate_continuous_maps.maps": len(r.maps),
            }
        return {
            "glue.verify_universal.cones": r.universal.cones_checked,
            "glue.verify_universal.scan_pairs": self.scan_pairs[op],
        }


WORKLOADS = {w.name: w for w in (CliDocs, CoverScale, OracleSearch, RejectMutants)}
