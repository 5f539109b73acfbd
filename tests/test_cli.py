import contextlib
import io
import itertools
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from doc_fixtures import BROKEN_TRIPLE_DOC, CIRCLE_DOC, DISJOINT_DOC, ONTO_DISJOINT_DOC, torus_document
from topoglue import cover as cover_mod
from topoglue import glue as glue_mod
from topoglue.cli import main
from topoglue.gdata import CheckEntry, Report
from topoglue.specfile import parse_spec

REPO = Path(__file__).resolve().parent.parent
EXAMPLES = REPO / "docs" / "examples"
GOLDEN_MACHINE = Path(__file__).resolve().parent / "golden" / "machine.jsonl"


@pytest.fixture
def circle_file(tmp_path):
    f = tmp_path / "circle.glue"
    f.write_text(CIRCLE_DOC)
    return str(f)


@pytest.fixture
def broken_file(tmp_path):
    f = tmp_path / "broken.glue"
    f.write_text(BROKEN_TRIPLE_DOC)
    return str(f)


@pytest.fixture
def torus_file(tmp_path):
    f = tmp_path / "torus.glue"
    f.write_text(torus_document())
    return str(f)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGlueCommand:
    def test_circle_classes_and_legs(self, capsys, circle_file):
        code, out, _ = run_cli(
            capsys, "glue", circle_file, "CIRC", "--derive-triples"
        )
        assert code == 0
        assert "4 classes" in out
        assert "l@1 = {l@1, l@2}" in out

    def test_machine_output(self, capsys, circle_file):
        code, out, _ = run_cli(
            capsys, "glue", circle_file, "CIRC", "--derive-triples", "--machine"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["ok"] is True
        assert payload["data"]["classes"]["l@1"] == ["l@1", "l@2"]

    def test_deterministic(self, capsys, circle_file):
        _, out1, _ = run_cli(capsys, "glue", circle_file, "CIRC", "--derive-triples")
        _, out2, _ = run_cli(capsys, "glue", circle_file, "CIRC", "--derive-triples")
        assert out1 == out2


class TestValidateCommand:
    def test_lawful_passes(self, capsys, circle_file):
        code, out, _ = run_cli(capsys, "validate", circle_file, "--derive-triples")
        assert code == 0
        assert "pass" in out

    def test_broken_triple_fails_with_witness(self, capsys, broken_file):
        code, out, _ = run_cli(
            capsys, "validate", broken_file, "BROKEN", "--derive-triples"
        )
        assert code == 1
        assert "projection-square" in out
        assert "(l,a)" in out

    def test_mistyped_triple_transition_fails_a_row(self, capsys, tmp_path):
        # a given triple transition (1,2,2) into PT, not into the space of (2,1,2)
        bad = "space PT\n  points: p\n  opens: p\nend\n\nmap bad: D12 -> PT\n  a -> p\n  b -> p\nend\n\n"
        doc = CIRCLE_DOC.replace("gluing CIRC", bad + "gluing CIRC", 1).replace(
            "  transition 2 1: t21\nend", "  transition 2 1: t21\n  triple 1 2 2: bad\nend", 1
        )
        f = tmp_path / "mistyped.glue"
        f.write_text(doc)
        code, out, err = run_cli(capsys, "validate", str(f), "CIRC", "--derive-triples")
        assert (code, err) == (1, "")
        assert "FAIL triple-typing (1,2,2) (witness: D12 -> PT, not D12 -> T[2,1,2])" in out

    @pytest.mark.parametrize("kind", ["anchor", "transition"])
    @pytest.mark.parametrize("derive", [[], ["--derive-triples"]])
    def test_mistyped_pair_map_fails_a_row(self, capsys, tmp_path, kind, derive):
        # a pair map D12 -> PT: no law reads it, and no triple transition is lifted over it;
        # the document ends with the gluing (the test below keeps its cone blocks)
        bad = "space PT\n  points: p\n  opens: p\nend\n\nmap bad: D12 -> PT\n  a -> p\n  b -> p\nend\n\n"
        given = {"anchor": "  anchor 1 2: a12\n", "transition": "  transition 1 2: t12\n"}[kind]
        doc = CIRCLE_DOC[: CIRCLE_DOC.index("space C4")].replace("gluing CIRC", bad + "gluing CIRC", 1)
        doc = doc.replace(given, f"  {kind} 1 2: bad\n", 1)
        f = tmp_path / "mistyped.glue"
        f.write_text(doc)
        code, out, err = run_cli(capsys, "validate", str(f), "CIRC", *derive)
        assert (code, err) == (1, "")
        assert f"FAIL {kind}-typing (1,2)" in out
        assert "transition-inverse" not in out and "cocycle" not in out


    @pytest.mark.parametrize("kind", ["anchor", "transition"])
    def test_mistyped_pair_map_under_a_declared_cone_fails_a_row(self, capsys, tmp_path, kind):
        # cone PARAM over CIRC is completed only when a command reads it, so the mistyped map
        # is composed by no parse: validate gives the typing row, as without the cone blocks
        bad = "space PT\n  points: p\n  opens: p\nend\n\nmap bad: D12 -> PT\n  a -> p\n  b -> p\nend\n\n"
        given = {"anchor": "  anchor 1 2: a12\n", "transition": "  transition 1 2: t12\n"}[kind]
        doc = CIRCLE_DOC.replace("gluing CIRC", bad + "gluing CIRC", 1).replace(given, f"  {kind} 1 2: bad\n", 1)
        assert "cone PARAM\n  over: CIRC" in doc
        f = tmp_path / "mistyped.glue"
        f.write_text(doc)
        for derive in ([], ["--derive-triples"]):
            code, out, err = run_cli(capsys, "validate", str(f), "CIRC", *derive)
            assert (code, err) == (1, "")
            assert f"FAIL {kind}-typing (1,2)" in out
        code, _, err = run_cli(capsys, "mediate", str(f), "CIRC", "PARAM")
        assert code == 1 and err.startswith("check failed: validation failed")
        # a command that checks the cone itself composes the mistyped map: a typed input error
        code, out, err = run_cli(capsys, "check-cone", str(f), "PARAM")
        assert (code, out) == (2, "") and err.startswith("error: cannot compose")

    def test_check_glued_names_the_pair_of_a_mistyped_transition(self, capsys, tmp_path):
        # check-glued reads the overlap links of data it does not validate: a transition
        # D12 -> PT is a typed input error that names its pair, not a point missing from D21
        bad = "space PT\n  points: p\n  opens: p\nend\n\nmap bad: D12 -> PT\n  a -> p\n  b -> p\nend\n\n"
        doc = (EXAMPLES / "circle.glue").read_text().replace("gluing CIRC", bad + "gluing CIRC", 1)
        f = tmp_path / "mistyped.glue"
        f.write_text(doc.replace("  transition 1 2: t12\n", "  transition 1 2: bad\n", 1))
        code, out, err = run_cli(capsys, "check-glued", str(f), "PARAM")
        assert (code, out) == (2, "")
        assert err == "error: the maps linking patches '1' and '2' are mistyped\n"


class TestComposeCommand:
    def test_torus_meta(self, capsys, torus_file):
        code, out, _ = run_cli(
            capsys, "compose", torus_file, "TORUS", "--derive-triples"
        )
        assert code == 0
        assert "pushout-condition" in out
        assert "16 points" in out


class TestOtherCommands:
    def test_check_cone_all_modes(self, capsys, circle_file):
        code, out, _ = run_cli(
            capsys, "check-cone", circle_file, "PARAM", "--derive-triples"
        )
        assert code == 0
        assert out.count("cone") >= 3

    def test_check_glued(self, capsys, circle_file):
        code, out, _ = run_cli(
            capsys, "check-glued", circle_file, "PARAM", "--derive-triples"
        )
        assert code == 0

    def test_check_glued_rejects_bad_candidate(self, capsys, tmp_path):
        bad_cone = """
map flat1: ARC3A -> C4
  l -> cl
  m -> cl
  r -> cl
end

map flat2: ARC3B -> C4
  l -> cl
  m -> cl
  r -> cl
end

cone FLAT
  over: CIRC
  apex: C4
  leg 1: flat1
  leg 2: flat2
end
"""
        f = tmp_path / "flat.glue"
        f.write_text(CIRCLE_DOC + bad_cone)
        code, out, _ = run_cli(
            capsys, "check-glued", str(f), "FLAT", "--derive-triples"
        )
        assert code == 1
        assert "d-covering" in out and "f-leg-embedding-free" in out

    def test_mediate(self, capsys, circle_file):
        code, out, _ = run_cli(
            capsys, "mediate", circle_file, "CIRC", "PARAM", "--derive-triples"
        )
        assert code == 0
        assert "m@1 -> cma" in out

    def test_verify_universal(self, capsys, circle_file):
        code, out, _ = run_cli(
            capsys, "verify-universal", circle_file, "CIRC", "--derive-triples"
        )
        assert code == 0

    def test_check_otop(self, capsys, circle_file):
        code, out, _ = run_cli(
            capsys, "check-otop", circle_file, "CIRC", "--derive-triples"
        )
        assert code == 0
        assert "applicable" in out

    def test_check_refinement(self, capsys, torus_file):
        code, _, _ = run_cli(
            capsys, "check-refinement", torus_file, "INCL1", "--derive-triples"
        )
        assert code == 0

    def test_cover_check_and_functor(self, capsys, circle_file):
        code, _, _ = run_cli(
            capsys, "cover-check", circle_file, "TWOARCS", "--derive-triples"
        )
        assert code == 0
        code, out, _ = run_cli(
            capsys, "cover-functor", circle_file, "TWOARCS", "--derive-triples"
        )
        assert code == 0
        assert "4 points" in out

    def test_site_check_batch(self, capsys, circle_file):
        code, out, _ = run_cli(
            capsys, "site-check", circle_file, "--count", "3", "--seed", "7"
        )
        assert code == 0
        assert "random coverings checked" in out


class TestRenderDot:
    def test_index_set(self, capsys, circle_file):
        code, out, _ = run_cli(capsys, "render-dot", circle_file, "index:i")
        assert code == 0
        assert out.startswith("digraph")
        assert "->" not in out.split("{", 1)[1].rsplit("}", 1)[0]  # loops suppressed

    def test_index_edge_census_matches_generators(self, capsys, circle_file):
        from topoglue import glidx

        code, out, _ = run_cli(capsys, "render-dot", circle_file, "index:i,j,k")
        assert code == 0
        edge_lines = [l for l in out.splitlines() if "->" in l]
        expected = len(glidx.edges(("i", "j", "k")))
        assert len(edge_lines) == expected

    GOLDEN_CIRC_DOT = """\
digraph CIRC {
  "[1]" [label="[1]\\nARC3A (3p)"];
  "[2]" [label="[2]\\nARC3B (3p)"];
  "[1,2]" [label="[1,2]\\nD12 (2p)"];
  "[2,1]" [label="[2,1]\\nD21 (2p)"];
  "[1,1,2]" [label="[1,1,2]\\nT[1,1,2] (2p)"];
  "[2,1,2]" [label="[2,1,2]\\nT[2,1,2] (2p)"];
  "[1,1,2]" -> "[1,2]" [label="eta3(1,1,2,2)"];
  "[1,1,2]" -> "[1]" [label="eta3(1,1,2,1)"];
  "[1,1,2]" -> "[2,1]" [label="tau3(1,2,1)"];
  "[1,2]" -> "[1]" [label="eta(1,2)"];
  "[1,2]" -> "[2,1,2]" [label="tau3(1,2,2)"];
  "[1,2]" -> "[2,1]" [label="tau(1,2)"];
  "[2,1,2]" -> "[1,2]" [label="tau3(2,1,2)"];
  "[2,1,2]" -> "[2,1]" [label="eta3(2,1,2,1)"];
  "[2,1,2]" -> "[2]" [label="eta3(2,1,2,2)"];
  "[2,1]" -> "[1,1,2]" [label="tau3(2,1,1)"];
  "[2,1]" -> "[1,2]" [label="tau(2,1)"];
  "[2,1]" -> "[2]" [label="eta(2,1)"];
  glued [label="glued\\n4p",shape=doublecircle];
  "[1]" -> glued [label="leg 1",style=dashed];
  "[2]" -> glued [label="leg 2",style=dashed];
}
"""

    def test_gluing_diagram_golden(self, capsys, circle_file):
        code, out, _ = run_cli(
            capsys, "render-dot", circle_file, "CIRC", "--derive-triples"
        )
        assert code == 0
        assert out == self.GOLDEN_CIRC_DOT

    def test_meta_diagram(self, capsys, torus_file):
        code, out, _ = run_cli(
            capsys, "render-dot", torus_file, "TORUS", "--derive-triples"
        )
        assert code == 0
        assert "refines" in out


_REAL_BASECHANGE = cover_mod.site_axiom_basechange


def _failing_report():
    rep = Report()
    rep.add("coverage", "all", False)
    return rep


def _basechange_to_open(c, phi):
    pulled, ok = _REAL_BASECHANGE(c, phi)
    return cover_mod.Covering(pulled.base, pulled.family, "open"), ok


class TestSiteCheckFailures:
    """Each site-check failure line, with one ``cover`` function made to fail."""

    @pytest.mark.parametrize(
        "name, fake, line",
        [
            ("check_covering", lambda c: _failing_report(), "round 0: generated covering invalid (gluing)"),
            ("site_axiom_iso", lambda f: False, "round 0: iso axiom failed (gluing)"),
            ("site_axiom_compose", lambda c, subs: (None, False), "round 0: composition axiom failed (gluing)"),
            (
                "site_axiom_basechange",
                lambda c, phi: (_REAL_BASECHANGE(c, phi)[0], False),
                "round 0: base-change axiom failed (gluing)",
            ),
            ("site_axiom_basechange", _basechange_to_open, "round 0: base-change changed the kind"),
        ],
        ids=["covering", "iso", "compose", "basechange", "kind"],
    )
    def test_failure_line(self, capsys, monkeypatch, circle_file, name, fake, line):
        monkeypatch.setattr(cover_mod, name, fake)
        code, out, _ = run_cli(
            capsys, "site-check", circle_file, "--count", "1", "--seed", "7", "--kind", "gluing"
        )
        assert code == 1
        checked = 0 if name == "check_covering" else 1
        assert out.splitlines() == ["FAIL site-check seed=7", f"{checked} random coverings checked", line]


class TestDisjointPatches:
    """A gluing whose overlaps are all empty: every report walks the two patches alone."""

    @pytest.fixture
    def disjoint_file(self, tmp_path):
        f = tmp_path / "disjoint.glue"
        f.write_text(DISJOINT_DOC)
        return f

    def _run(self, capsys, disjoint_file, command, *rest):
        return run_cli(capsys, command, str(disjoint_file), "DISJ", *rest)

    def test_glue_prints_only_the_patch_legs(self, capsys, disjoint_file):
        code, out, _ = self._run(capsys, disjoint_file, "glue", "--derive-triples")
        assert code == 0
        assert [line.strip() for line in out.splitlines() if "leg" in line] == [
            "leg [1]: a->a@1", "leg [2]: b->b@2",
        ]
        code, out, _ = self._run(capsys, disjoint_file, "glue", "--derive-triples", "--machine")
        assert sorted(json.loads(out)["data"]["legs"]) == ["[1]", "[2]"]

    def test_validate_has_rows_for_the_patches_only(self, capsys, disjoint_file):
        code, out, _ = self._run(capsys, disjoint_file, "validate", "--derive-triples", "--machine")
        assert code == 0
        rows = json.loads(out)["data"]["DISJ"]
        assert {row["subject"] for row in rows} == {"(1,1)", "(2,2)", "(1,1,1)", "(2,2,2)"}

    def test_check_otop(self, capsys, disjoint_file):
        code, out, _ = self._run(capsys, disjoint_file, "check-otop", "--derive-triples")
        assert code == 0
        assert out.splitlines()[:2] == ["PASS check-otop DISJ", "applicable"]

    def test_verify_universal(self, capsys, disjoint_file):
        code, out, _ = self._run(capsys, disjoint_file, "verify-universal", "--derive-triples", "--machine")
        assert code == 0
        # a cone into an apex with n points is a pair of points: 1 + 4 + 4 + 9 + 4
        assert json.loads(out)["data"]["cones"] == 22

    def test_render_dot_draws_the_patches_alone(self, capsys, disjoint_file):
        code, out, _ = self._run(capsys, disjoint_file, "render-dot")
        assert code == 0
        assert out == (
            "digraph DISJ {\n"
            '  "[1]" [label="[1]\\nP1 (1p)"];\n'
            '  "[2]" [label="[2]\\nP2 (1p)"];\n'
            '  glued [label="glued\\n2p",shape=doublecircle];\n'
            '  "[1]" -> glued [label="leg 1",style=dashed];\n'
            '  "[2]" -> glued [label="leg 2",style=dashed];\n'
            "}\n"
        )

    def test_refinement_onto_an_empty_overlap_has_no_component(self, capsys, tmp_path):
        f = tmp_path / "onto.glue"
        f.write_text(ONTO_DISJOINT_DOC)
        code, out, err = run_cli(capsys, "check-refinement", str(f), "ONTO", "--derive-triples")
        assert (code, out) == (2, "")
        assert err == "error: pair component [1,2] not uniquely forced at 'o'\n"

    def test_anchor_out_of_an_empty_overlap_into_the_wrong_patch(self, capsys, tmp_path):
        f = tmp_path / "wrong.glue"
        f.write_text(DISJOINT_DOC.replace("anchor 1 2: e1", "anchor 1 2: e2"))
        code, _, err = run_cli(capsys, "validate", str(f), "DISJ")
        assert code == 2
        assert err == "error: anchor (1,2) leaves an empty object: it must be the empty map into 'P1'\n"

    def test_triple_transition_outside_the_nerve(self, capsys, tmp_path):
        # the empty map between the right spaces is dropped; any other is an input error
        f = tmp_path / "triple.glue"
        f.write_text(DISJOINT_DOC.replace(
            "  transition 2 1: ee\n", "  transition 2 1: ee\n  triple 1 2 2: ee\n"
        ))
        code, out, _ = run_cli(capsys, "validate", str(f), "DISJ", "--machine")
        assert code == 0
        f.write_text(DISJOINT_DOC.replace(
            "  transition 2 1: ee\n", "  transition 2 1: ee\n  triple 1 2 2: e1\n"
        ))
        code, _, err = run_cli(capsys, "validate", str(f), "DISJ")
        assert code == 2
        assert err.startswith("error: triple transition ('1', '2', '2') leaves an empty object")


class TestClosedPipe:
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(REPO / "src"), os.environ.get("PYTHONPATH", "")])}

    def test_a_reader_that_stops_early_ends_no_run_in_a_traceback(self):
        # more output than a pipe holds, so the child is still writing when the pipe closes
        labels = "index:" + ",".join("abcdefghij")
        argv = [sys.executable, "-m", "topoglue.cli", "render-dot", str(EXAMPLES / "circle.glue"), labels]
        with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=self.env) as child:
            assert child.stdout.readline() == b"digraph gluing_index {\n"
            child.stdout.close()
            err = child.stderr.read().decode()
            assert child.wait(timeout=60) == 0
        assert err == ""  # no traceback

    def test_a_reader_gone_before_the_first_write_ends_with_exit_0(self):
        argv = [sys.executable, "-m", "topoglue.cli", "render-dot", str(EXAMPLES / "circle.glue"), "index:a,b,c,d,e"]
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            run = subprocess.run(argv, stdout=write_end, stderr=subprocess.PIPE, env=self.env, timeout=60)
        finally:
            os.close(write_end)
        assert run.returncode == 0
        assert run.stderr == b""


class TestHashSeeds:
    """``make_space`` names its least offending point, whatever the hash seed."""

    @pytest.mark.parametrize(
        "table, message",
        [
            ("minopen a: a", "no minimal open given for 'b'"),
            ("minopen a: b\nminopen b: c\nminopen c: a\nminopen d: d", "'a' not in its own minimal open"),
            (
                "minopen a: a b c\nminopen b: b d\nminopen c: c d\nminopen d: d",
                "min_open('b') not inside min_open('a')",
            ),
        ],
    )
    def test_invalid_space_names_the_least_bad_point(self, tmp_path, table, message):
        f = tmp_path / "doc.glue"
        f.write_text(f"space X\npoints: a b c d\n{table}\nend\n")
        pythonpath = os.pathsep.join([str(REPO / "src"), os.environ.get("PYTHONPATH", "")])
        for seed in "0123":
            env = {**os.environ, "PYTHONPATH": pythonpath, "PYTHONHASHSEED": seed}
            argv = [sys.executable, "-m", "topoglue.cli", "validate", str(f)]
            run = subprocess.run(argv, capture_output=True, encoding="utf-8", env=env, timeout=60)
            assert (run.returncode, run.stdout, run.stderr) == (2, "", f"error: {message}\n"), seed


# The README's nine commands plus the four other report commands, on the
# committed examples; paths are relative to the repository root.
GOLDEN_COMMANDS = (
    ("glue", "docs/examples/circle.glue", "CIRC", "--derive-triples"),
    ("check-cone", "docs/examples/circle.glue", "PARAM", "--derive-triples"),
    ("mediate", "docs/examples/circle.glue", "CIRC", "PARAM", "--derive-triples"),
    ("verify-universal", "docs/examples/circle.glue", "CIRC", "--derive-triples"),
    ("compose", "docs/examples/torus.glue", "TORUS", "--derive-triples"),
    ("validate", "docs/examples/broken.glue", "BROKEN", "--derive-triples"),
    ("cover-functor", "docs/examples/circle.glue", "TWOARCS", "--derive-triples"),
    ("site-check", "docs/examples/circle.glue", "--count", "25", "--seed", "0"),
    ("render-dot", "docs/examples/circle.glue", "index:i,j,k"),
    ("check-glued", "docs/examples/circle.glue", "PARAM", "--derive-triples"),
    ("check-otop", "docs/examples/circle.glue", "CIRC", "--derive-triples"),
    ("check-refinement", "docs/examples/torus.glue", "INCL1", "--derive-triples"),
    ("cover-check", "docs/examples/circle.glue", "TWOARCS", "--derive-triples"),
)


def golden_record(capsys, argv) -> dict:
    """Run one golden command with ``--machine``; its argv, exit code and stdout."""
    command, path, *rest = argv
    code, out, _ = run_cli(capsys, command, str(REPO / path), *rest, "--machine")
    return {"argv": list(argv), "exit": code, "stdout": out}


class TestMachineGolden:
    """``--machine`` stdout and exit codes pinned byte for byte.

    Regenerate ``golden/machine.jsonl`` only for an intended output change:
    write ``json.dumps(golden_record(capsys, argv), sort_keys=True)`` for each
    entry of ``GOLDEN_COMMANDS``, one per line.
    """

    @pytest.fixture(scope="class")
    def golden(self):
        lines = GOLDEN_MACHINE.read_text(encoding="utf-8").splitlines()
        return {tuple(r["argv"]): r for r in map(json.loads, lines)}

    def test_golden_covers_every_command(self, golden):
        assert sorted(golden) == sorted(GOLDEN_COMMANDS)

    @pytest.mark.parametrize("argv", GOLDEN_COMMANDS, ids=lambda a: f"{a[0]}-{a[2]}")
    def test_machine_output_matches_golden(self, capsys, golden, argv):
        assert golden_record(capsys, argv) == golden[argv]


class TestExitCodes:
    def test_parse_error_is_input_error(self, capsys, tmp_path):
        f = tmp_path / "bad.glue"
        f.write_text("space X\n  points: a\n")
        code, _, err = run_cli(capsys, "validate", str(f))
        assert code == 2

    def test_empty_key_is_input_error(self, capsys, tmp_path):
        f = tmp_path / "empty.glue"
        f.write_text("space X\n  points: a\n  : p\nend\n")
        code, out, err = run_cli(capsys, "validate", str(f), "X")
        assert (code, out) == (2, "")
        assert err == "error: line 3: expected 'key: value', got ': p'\n"

    def test_unresolved_reference(self, capsys, tmp_path):
        f = tmp_path / "bad.glue"
        f.write_text("map f: A -> B\n  x -> y\nend\n")
        code, _, _ = run_cli(capsys, "validate", str(f))
        assert code == 2

    def test_unknown_target(self, capsys, circle_file):
        code, _, _ = run_cli(capsys, "glue", circle_file, "NOPE", "--derive-triples")
        assert code == 2

    def test_missing_file(self, capsys):
        code, _, _ = run_cli(capsys, "validate", "/nonexistent/x.glue")
        assert code == 2

    @pytest.mark.parametrize(
        "bad", [b"\xff\xfe", b"\xe2\x82", b"\xed\xa0\x80"],
        ids=["invalid-start-byte", "truncated-sequence", "encoded-surrogate"],
    )
    def test_file_not_utf8_is_input_error(self, capsys, tmp_path, bad):
        f = tmp_path / "bad.glue"
        f.write_bytes(b"space A\n  points: " + bad + b"\nend\n")
        code, out, err = run_cli(capsys, "validate", str(f))
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {str(f)!r} is not UTF-8: ") and err.count("\n") == 1

    def test_file_not_utf8_ends_in_no_traceback(self, tmp_path):
        f = tmp_path / "bad.glue"
        f.write_bytes(b"space A\n  points: \xff\xfe\nend\n")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(REPO / "src"), os.environ.get("PYTHONPATH", "")])}
        argv = [sys.executable, "-m", "topoglue.cli", "validate", str(f)]
        run = subprocess.run(argv, capture_output=True, encoding="utf-8", env=env, timeout=60)
        assert (run.returncode, run.stdout) == (2, "")
        assert "Traceback" not in run.stderr and run.stderr.startswith("error: ") and run.stderr.count("\n") == 1

    def test_budget_exhaustion(self, capsys, circle_file):
        code, _, _ = run_cli(
            capsys, "verify-universal", circle_file, "CIRC",
            "--derive-triples", "--budget", "2",
        )
        assert code == 3

    def test_check_failure(self, capsys, broken_file):
        code, _, _ = run_cli(
            capsys, "validate", broken_file, "BROKEN", "--derive-triples"
        )
        assert code == 1

    def test_stderr_prefixes(self, capsys, broken_file):
        code, _, err = run_cli(
            capsys, "mediate", broken_file, "BROKEN", "PARAM", "--derive-triples"
        )
        assert code == 1 and err.startswith("check failed: validation failed")
        code, _, err = run_cli(
            capsys, "verify-universal", broken_file, "CIRC",
            "--derive-triples", "--budget", "2",
        )
        assert code == 3 and err.startswith("error: ")

    def test_gluing_without_pair_entries(self, capsys, tmp_path):
        f = tmp_path / "bare.glue"
        f.write_text(
            CIRCLE_DOC + "\ngluing BARE\n  index: 1 2\n  patch 1: ARC3A\n"
            "  patch 2: ARC3B\nend\n"
        )
        code, _, err = run_cli(capsys, "validate", str(f), "BARE")
        assert code == 2
        assert err.startswith("error: gluing data is missing entries")

    def test_covering_that_misses_a_base_point_fails(self, capsys, tmp_path):
        f = tmp_path / "one-arc.glue"
        f.write_text(CIRCLE_DOC.replace("  leg: u2leg\n", ""))
        code, out, err = run_cli(capsys, "cover-functor", str(f), "TWOARCS", "--derive-triples")
        assert (code, out) == (1, "")
        assert err.startswith("check failed: not a covering:\n")
        assert [line for line in err.splitlines() if line.startswith("FAIL")] == ["FAIL coverage base (witness: cmb)"]

    def test_unknown_covering_kind(self, capsys, tmp_path):
        f = tmp_path / "kind.glue"
        f.write_text(CIRCLE_DOC.replace("kind: open", "kind: bogus"))
        code, _, err = run_cli(capsys, "cover-check", str(f), "TWOARCS")
        assert code == 2
        assert "unknown covering kind 'bogus'" in err

    @pytest.mark.parametrize(
        "block, message",
        [
            (
                "  index: a@b\n  patch a@b: ARC3A\n",
                "error: index label 'a@b' must not contain '@'\n",
            ),
            ("  index: 1 2\n  patch 1: ARC3A\n", "error: no patch for index labels ['2']\n"),
        ],
        ids=["at-sign", "unpatched"],
    )
    def test_index_label_rejected_by_make_gluing_data(self, capsys, tmp_path, block, message):
        f = tmp_path / "labels.glue"
        f.write_text(CIRCLE_DOC + f"\ngluing LABELS\n{block}end\n")
        code, out, err = run_cli(capsys, "validate", str(f), "LABELS")
        assert (code, out, err) == (2, "", message)

    @pytest.mark.parametrize("machine", [False, True], ids=["text", "machine"])
    def test_index_label_with_a_comma_is_rejected(self, capsys, tmp_path, machine):
        # the pair (a,b) and the patch a,b would both be the object [a,b]: the
        # document glued, printing two 'leg [a,b]' lines and losing one leg from --machine
        labels = ("a", "b", "a,b")
        lines = [
            "space P", "  points: p", "  opens: p", "end",
            "space O", "  points: o", "  opens: o", "end",
            "space E", "  points:", "end",
            "map anchor: O -> P", "  o -> p", "end",
            "map flip: O -> O", "  o -> o", "end",
            "map none: E -> P", "end",
            "map idle: E -> E", "end",
            "gluing G", "  index: " + " ".join(labels), *(f"  patch {i}: P" for i in labels),
        ]
        for i, j in itertools.permutations(labels, 2):
            over, maps = ("O", ("anchor", "flip")) if {i, j} == {"a", "b"} else ("E", ("none", "idle"))
            lines += [f"  overlap {i} {j}: {over}", f"  anchor {i} {j}: {maps[0]}", f"  transition {i} {j}: {maps[1]}"]
        f = tmp_path / "comma.glue"
        f.write_text("\n".join([*lines, "end", ""]))
        argv = ["glue", str(f), "G", "--derive-triples"] + (["--machine"] if machine else [])
        code, out, err = run_cli(capsys, *argv)
        assert (code, out, err) == (2, "", "error: index label 'a,b' must not contain ','\n")

    @pytest.mark.parametrize(
        "line, message",
        [
            ("patch 3: ARC3A", "error: line 58: index label '3' is not in 'index:'"),
            ("patch 1: ARC3B", "error: line 58: gluing entry 'patch 1' repeats line 50"),
        ],
    )
    def test_gluing_entry_outside_index_or_repeated(self, capsys, tmp_path, line, message):
        f = tmp_path / "extra.glue"
        f.write_text(CIRCLE_DOC.replace("  transition 2 1: t21\n", f"  transition 2 1: t21\n  {line}\n", 1))
        code, out, err = run_cli(capsys, "glue", str(f), "CIRC", "--derive-triples")
        assert (code, out) == (2, "")
        assert err.startswith(message)

    @pytest.mark.parametrize(
        "argv", [("check-cone", "PARAM"), ("check-glued", "PARAM"), ("mediate", "CIRC", "PARAM")]
    )
    def test_legs_outside_the_apex(self, capsys, tmp_path, argv):
        f = tmp_path / "apex.glue"
        f.write_text(CIRCLE_DOC.replace("  apex: C4\n", "  apex: ARC3A\n", 1))
        command, *targets = argv
        code, out, err = run_cli(capsys, command, str(f), *targets, "--derive-triples")
        assert (code, out) == (2, "")
        assert err == "error: the leg of [1] does not land in the apex 'ARC3A'\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ("check-cone", "PARAM", "--mode", "full"),
            ("glue", "CIRC"),
            ("mediate", "CIRC", "PARAM"),
        ],
    )
    def test_missing_triple_transitions(self, capsys, argv):
        # the circle example without --derive-triples gives no triple transitions
        command, *targets = argv
        code, out, err = run_cli(capsys, command, str(EXAMPLES / "circle.glue"), *targets)
        assert (code, out) == (1, "")
        assert err.startswith("check failed: validation failed:\n")
        rows = [line for line in err.splitlines() if line.startswith("FAIL")]
        assert rows == [
            f"FAIL triple-present {key} (witness: missing triple transition)"
            for key in [("1", "2", "1"), ("1", "2", "2"), ("2", "1", "1"), ("2", "1", "2")]
        ]

    def test_all_modes_without_triple_transitions(self, capsys):
        # figure3 and figure4 need no triple transitions; full is not checked
        path = str(EXAMPLES / "circle.glue")
        rows = [
            f"FAIL triple-present {key} (witness: missing triple transition)"
            for key in [("1", "2", "1"), ("1", "2", "2"), ("2", "1", "1"), ("2", "1", "2")]
        ]
        head = ["FAIL check-cone PARAM", "mode full: not checked", "mode figure3: cone"]
        expected = "\n".join(head + ["mode figure4: cone"] + rows) + "\n"
        assert run_cli(capsys, "check-cone", path, "PARAM") == (1, expected, "")
        code, out, err = run_cli(capsys, "check-cone", path, "PARAM", "--machine")
        assert (code, err) == (1, "")
        data = json.loads(out)["data"]
        assert data["verdicts"] == {"full": None, "figure3": True, "figure4": True}
        assert [str(CheckEntry(**row)) for row in data["entries"]] == rows

    def test_figure3_needs_no_triple_transitions(self, capsys):
        argv = ("check-cone", str(EXAMPLES / "circle.glue"), "PARAM", "--mode", "figure3")
        assert run_cli(capsys, *argv) == (0, "PASS check-cone PARAM\nmode figure3: cone\n", "")

    def test_pullback_name_collision(self, capsys, tmp_path):
        # the two legs meet at (a, "b,c") and ("a,b", c), both named "(a,b,c)"
        f = tmp_path / "comma.glue"
        f.write_text(
            "space B\n  points: p q\n  opens: p\n  opens: q\nend\n"
            "space X\n  points: a a,b\n  opens: a\n  opens: a,b\nend\n"
            "space Y\n  points: b,c c\n  opens: b,c\n  opens: c\nend\n"
            "map x: X -> B\n  a -> p\n  a,b -> q\nend\n"
            "map y: Y -> B\n  b,c -> p\n  c -> q\nend\n"
            "covering XY\n  base: B\n  leg: x\n  leg: y\nend\n"
        )
        code, out, err = run_cli(capsys, "cover-functor", str(f), "XY")
        assert (code, out) == (2, "")
        assert err == (
            "error: pullback pairs ('a', 'b,c') and ('a,b', 'c') both get the name '(a,b,c)'\n"
        )

    def test_repeated_map_source(self, capsys, tmp_path):
        f = tmp_path / "twice.glue"
        f.write_text(CIRCLE_DOC.replace("  a -> l\n  b -> r\n", "  a -> l\n  b -> r\n  a -> r\n", 1))
        code, _, err = run_cli(capsys, "validate", str(f), "CIRC", "--derive-triples")
        assert code == 2
        assert "map entry 'a' repeats line" in err


# One input per error path: a document (None: the circle example), the command
# with its targets, and the message on stderr.
INCL1_HEAD = "refinement INCL1\n  fine: BND1\n  coarse: CYL1\n"

INPUT_ERRORS = {
    "minopen-and-opens": (
        "space X\n  points: a\n  minopen a: a\n  opens: a\nend\n", ("validate",),
        "line 1: give either minopen lines or opens lines, not both",
    ),
    "map-header-without-arrow": (
        "space A\n  points: a\nend\nmap f: A A\n  a -> a\nend\n", ("validate",),
        "line 4: map header must read 'map NAME: DOM -> COD'",
    ),
    "map-missing-a-point": (
        "space A\n  points: a b\nend\nmap f: A -> A\n  a -> a\nend\n", ("validate",),
        "'b' of 'A' has no image",
    ),
    "map-value-outside-the-codomain": (
        "space A\n  points: a b\nend\nmap f: A -> A\n  a -> a\n  b -> zz\nend\n", ("validate",),
        "'zz' is not a point of 'A'",
    ),
    "gluing-without-index": (
        "space A\n  points: a\nend\ngluing G\n  patch 1: A\nend\n", ("validate",),
        "line 4: gluing needs an index line",
    ),
    "cone-without-apex": (
        "cone K\n  over: G\nend\n", ("validate",), "line 1: cone needs 'over' and 'apex'",
    ),
    "four-index-leg": (
        "cone K\n  leg 1 2 1 2: f\nend\n", ("validate",),
        "line 2: object needs 1 to 3 indices, got ['1', '2', '1', '2']",
    ),
    "unknown-generator-kind": (
        "meta M\n  edge foo 1 2: R\nend\n", ("validate",), "line 2: unknown generator kind 'foo'",
    ),
    "generator-arity": (
        "meta M\n  edge eta 1: R\nend\n", ("validate",), "line 2: generator eta needs 2 indices",
    ),
    "identity-edge": (
        "meta M\n  index: 1\n  edge tau 1 1: R\nend\n", ("validate",),
        "line 3: edge generator is an identity",
    ),
    "meta-without-index": ("meta M\nend\n", ("validate",), "line 1: meta needs an index line"),
    "covering-without-base": (
        "covering C\n  kind: open\nend\n", ("validate",), "line 1: covering needs a base",
    ),
    "mediate-one-target": (None, ("mediate", "CIRC"), "mediate needs a gluing name and a cone name"),
    "render-dot-unknown-name": (
        None, ("render-dot", "NOPE"), "'NOPE' is not an index set, gluing, or meta gluing",
    ),
    "glue-two-targets": (None, ("glue", "CIRC", "PARAM"), "glue needs exactly one target name"),
    "render-dot-empty-index": (None, ("render-dot", "index:"), "'index:' has an empty index label"),
    "render-dot-empty-index-label": (
        None, ("render-dot", "index:1,,2"), "'index:1,,2' has an empty index label",
    ),
    "render-dot-index-label-with-whitespace": (
        None, ("render-dot", "index:1, 2"), "'index:1, 2' has an index label with whitespace",
    ),
    "render-dot-index-label-with-inner-whitespace": (
        None, ("render-dot", "index:1,a\tb"), "'index:1,a\\tb' has an index label with whitespace",
    ),
    "cone-leg-outside-the-index": (
        CIRCLE_DOC.replace("  leg 2: psi2\n", "  leg 2: psi2\n  leg 7: psi2\n"), ("check-cone", "PARAM"),
        "line 85: index label '7' is not in the index of gluing 'CIRC'",
    ),
    "refinement-gamma-outside-the-index": (
        torus_document().replace(INCL1_HEAD, INCL1_HEAD + "  gamma 9: 1\n"), ("check-refinement", "INCL1"),
        "line 362: index label '9' is not in the index of the coarse gluing",
    ),
    "refinement-component-outside-the-index": (
        torus_document().replace(INCL1_HEAD, INCL1_HEAD + "  component 9: incl1p2\n"),
        ("check-refinement", "INCL1"),
        "line 362: index label '9' is not in the index of the coarse gluing",
    ),
    **{
        f"unknown-{kind}-entry": (
            f"{kind} X\n  bogus 1: x\nend\n", ("validate",), f"line 2: unknown {kind} entry 'bogus 1'",
        )
        for kind in ("gluing", "cone", "refinement", "meta", "covering")
    },
    "refinement-without-coarse": (
        torus_document().replace(INCL1_HEAD, "refinement INCL1\n  fine: BND1\n"), ("check-refinement", "INCL1"),
        "line 359: refinement needs 'fine' and 'coarse'",
    ),
    "meta-edge-without-generator": ("meta M\n  edge: R\nend\n", ("validate",), "line 2: edge needs a generator"),
    "cone-without-a-patch-leg": (
        CIRCLE_DOC.replace("  leg 2: psi2\n", ""), ("check-cone", "PARAM"), "no leg for patch '2'",
    ),
}


class TestInputErrors:
    @pytest.mark.parametrize("case", INPUT_ERRORS)
    def test_each_error_path_is_an_input_error(self, capsys, tmp_path, case):
        text, (command, *targets), message = INPUT_ERRORS[case]
        f = tmp_path / "doc.glue"
        f.write_text(CIRCLE_DOC if text is None else text)
        code, out, err = run_cli(capsys, command, str(f), *targets, "--derive-triples")
        assert (code, out, err) == (2, "", f"error: {message}\n")

    def test_kind_option_overrides_the_declared_kind(self, capsys, tmp_path):
        f = tmp_path / "gluing-kind.glue"
        f.write_text(CIRCLE_DOC.replace("kind: open", "kind: gluing"))
        code, out, _ = run_cli(capsys, "cover-check", str(f), "TWOARCS")
        assert code == 0 and "leg-open" not in out
        code, out, _ = run_cli(capsys, "cover-check", str(f), "TWOARCS", "--kind", "open")
        assert code == 0 and out.count("ok   leg-open") == 2

    @pytest.mark.parametrize(
        "option, value, message",
        [
            ("--count", "-3", "argument --count: must be at least 1, got -3"),
            ("--count", "0", "argument --count: must be at least 1, got 0"),
            ("--budget", "-1", "argument --budget: must be at least 0, got -1"),
        ],
    )
    def test_nonsense_batch_options_are_rejected(self, capsys, circle_file, option, value, message):
        with pytest.raises(SystemExit) as info:
            main(["site-check", circle_file, option, value])
        captured = capsys.readouterr()
        assert info.value.code == 2 and captured.out == ""
        assert captured.err.endswith(f"topoglue: error: {message}\n")
        assert "Traceback" not in captured.err


class TestMetaErrors:
    """A malformed meta gluing ends in a typed input error, never a traceback."""

    def compose(self, capsys, tmp_path, text):
        f = tmp_path / "torus.glue"
        f.write_text(text)
        return run_cli(capsys, "compose", str(f), "TORUS", "--derive-triples")

    @pytest.mark.parametrize(
        "line, node",
        [("node 1: CYL1", "[1]"), ("node 2 1: BND2", "[2,1]"), ("node 1 1 2: BND1", "[1,1,2]")],
    )
    def test_missing_node(self, capsys, tmp_path, line, node):
        text = torus_document().replace(f"  {line}\n", "", 1)
        assert self.compose(capsys, tmp_path, text) == (
            2, "", f"error: meta gluing has no node for {node}\n"
        )

    @pytest.mark.parametrize(
        "line, relabelled",
        [("node 1 2: BND1", "node 1 3: BND1"), ("edge eta 1 2: INCL1", "edge eta 1 3: INCL1")],
    )
    def test_label_outside_the_index(self, capsys, tmp_path, line, relabelled):
        text = torus_document().replace(f"  {line}\n", f"  {relabelled}\n", 1)
        no = text.splitlines().index(f"  {relabelled}") + 1
        assert self.compose(capsys, tmp_path, text) == (
            2, "", f"error: line {no}: index label '3' is not in 'index:'\n"
        )

    def test_edge_refinement_between_other_nodes(self, capsys, tmp_path):
        # IDB1 refines BND1 to BND1, but the coarse node of [1]->[1,2] is CYL1
        text = torus_document().replace("  edge eta 1 2: INCL1\n", "  edge eta 1 2: IDB1\n", 1)
        assert self.compose(capsys, tmp_path, text) == (
            2, "", "error: the refinement on edge [1]->[1,2] does not run from node [1,2] to node [1]\n"
        )

    def test_each_meta_line_deleted(self, capsys, tmp_path):
        # an exception that is not a typed error propagates out of main and fails the test
        lines = torus_document().splitlines()
        start = lines.index("meta TORUS")
        end = lines.index("end", start)
        assert end - start - 1 == 19
        for k in range(start + 1, end):
            code, _, _ = self.compose(capsys, tmp_path, "\n".join(lines[:k] + lines[k + 1 :]) + "\n")
            assert code in (0, 1, 2, 3), lines[k]


# The golden commands on their examples, without the two search-bound ones.
FUZZ_COMMANDS = tuple(
    (command, path, *[a for a in rest if a != "--derive-triples"])
    for command, path, *rest in GOLDEN_COMMANDS
    if command not in ("verify-universal", "site-check")
)
FUZZ_WORDS = ("x", "1", "3", "end", ":", "->", "@", ",", "leg", "index", "CIRC", "ARC3A", "D12")
GRAMMAR_MUTATIONS = ("delete", "duplicate", "swap", "truncate", "empty-key", "word")


def map_blocks(lines):
    """The line numbers of the ``x -> y`` entries of each map block, one list per block."""
    blocks, run = [], []
    for k, line in enumerate(lines + [""]):
        if "->" in line and not line.startswith("map "):
            run.append(k)
        elif run:
            blocks.append(run)
            run = []
    return blocks


@st.composite
def mutated_runs(draw):
    """A golden command, with or without ``--derive-triples``, and its example with
    one to three lines mutated.

    Half the examples edit lines in ways that mostly break the grammar.  The
    other half only retarget map entries (one entry takes the target of another
    entry of the same map), which keeps the document parseable, so the run
    reaches the checks behind the parser.
    """
    command, path, *targets = draw(st.sampled_from(FUZZ_COMMANDS))
    if draw(st.booleans()):
        targets.append("--derive-triples")
    lines = (REPO / path).read_text().splitlines()
    grammar = draw(st.booleans())
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(lines) - 1))
        op = draw(st.sampled_from(GRAMMAR_MUTATIONS)) if grammar else "retarget"
        if op == "delete":
            del lines[i]
        elif op == "duplicate":
            lines.insert(i, lines[i])
        elif op == "swap":
            j = draw(st.integers(0, len(lines) - 1))
            lines[i], lines[j] = lines[j], lines[i]
        elif op == "truncate":
            lines[i] = lines[i][: draw(st.integers(0, len(lines[i])))]
        elif op == "empty-key":
            lines.insert(i, "  : p")
        elif op == "word":
            words = lines[i].split() or [""]
            words[draw(st.integers(0, len(words) - 1))] = draw(st.sampled_from(FUZZ_WORDS))
            lines[i] = "  " + " ".join(words)
        elif map_blocks(lines):
            block = draw(st.sampled_from(map_blocks(lines)))
            k, j = draw(st.sampled_from(block)), draw(st.sampled_from(block))
            source, _, _ = lines[k].partition("->")
            lines[k] = source + "->" + lines[j].partition("->")[2]
        if not lines:
            lines = [""]
    return [command, *targets], "\n".join(lines) + "\n"


class TestFuzz:
    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(mutated_runs())
    def test_mutated_examples_end_in_an_exit_code(self, run):
        (command, *targets), text = run
        with tempfile.TemporaryDirectory() as tmp:
            f = Path(tmp) / "doc.glue"
            f.write_text(text)
            argv = [command, str(f), *targets, "--budget", "20000"]
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                code = main(argv)
        assert code in (0, 1, 2, 3)


# Names the parser takes apart nowhere but that the library joins: pullbacks
# name pairs "(u,v)", disjoint unions name points "x@i".
# The pool makes two pairs of one pullback share a name often enough:
# ("a", "b,a") and ("a,b", "a") are both named "(a,b,a)".
NAME_CHARS = "ab,@()"
NAME_POOL = ("a", "b", "a,b", "b,a", ",", "a,", ",a", "(a", "a)", "(a,b)", "a@b", "@")


def _names(draw, count, chars=NAME_CHARS):
    name = st.sampled_from([n for n in NAME_POOL if set(n) <= set(chars)]) | st.text(chars, min_size=1, max_size=3)
    return draw(st.lists(name, min_size=count, max_size=count, unique=True))


def _space_block(name, points, min_open):
    lines = [f"space {name}", "  points: " + " ".join(points)]
    lines += [f"  minopen {x}: " + " ".join(sorted(min_open[x])) for x in points]
    return lines + ["end"]


def _map_block(name, dom, cod, table):
    return [f"map {name}: {dom} -> {cod}", *(f"  {x} -> {y}" for x, y in table.items()), "end"]


# Two base points x, y named so that the pairs over them in one pullback
# collide: ("a", "b,a") and ("a,b", "a") are both named "(a,b,a)".
PLANTED = (("a", "a,b"), ("b,a", "a"))


@st.composite
def glue_documents(draw):
    """A covering of a base space B and the gluing of its patches, with generated names.

    B has 1 to 5 points and the topology of up to four generating opens; one
    to three patches cover it, each with the subspace topology under its own
    point names.  The covering ``COV`` has the inclusions as legs.  The
    gluing ``GL`` glues the same patches along overlaps with their own point
    names, under generated index labels.  Names come from ``NAME_POOL`` and
    ``NAME_CHARS``; a third of the documents plant a name collision in the
    legs' pullback and a third in the triple pullback [0|{0,1}] of the
    gluing.  Returns the text and a model: per patch its names by base point,
    per ordered pair the overlap names, and the labels.
    """
    base = _names(draw, draw(st.integers(1, 5)))
    gens = draw(st.lists(st.sets(st.sampled_from(base)), max_size=4))
    up = {x: frozenset(base).intersection(*(g for g in gens if x in g)) for x in base}
    count = draw(st.integers(1, 3))
    parts = [draw(st.sets(st.sampled_from(base), min_size=1)) for _ in range(count)]
    parts[-1] |= set(base).difference(*parts)
    plant = draw(st.sampled_from([None, "legs", "anchors"])) if count > 1 and len(base) > 1 else None
    if plant:
        parts[0] |= set(base[:2])
        parts[1] |= set(base[:2])
    names = [dict(zip(sorted(part), _names(draw, len(part)))) for part in parts]
    # index labels may not hold "@": one document in six tries one anyway
    labels = _names(draw, count, NAME_CHARS if draw(st.integers(0, 5)) == 0 else "ab,()")
    overlap = {
        (i, j): dict(zip(sorted(parts[i] & parts[j]), _names(draw, len(parts[i] & parts[j]))))
        for i in range(count) for j in range(count) if i != j
    }
    first, second = PLANTED
    if plant == "legs":
        names[0].update(zip(base, first))
        names[1].update(zip(base, second))
    elif plant == "anchors":
        # the pullback pairs a point of patch 0 with one of overlap (0,1), in label order
        if labels[1] < labels[0]:
            first, second = second, first
        names[0].update(zip(base, first))
        overlap[(0, 1)].update(zip(base, second))
    assume(all(len(set(n.values())) == len(n) for n in [*names, *overlap.values()]))

    def induced(name):
        return {name[x]: {name[z] for z in up[x] & name.keys()} for x in name}

    lines = ["space B", "  points: " + " ".join(base), *(f"  opens: {' '.join(sorted(g))}" for g in gens if g)]
    lines.append("end")
    for i, name in enumerate(names):
        lines += _space_block(f"P{i}", list(name.values()), induced(name))
        lines += _map_block(f"l{i}", f"P{i}", "B", {name[x]: x for x in name})
    lines += ["covering COV", "  base: B", *(f"  leg: l{i}" for i in range(count)), "end"]
    gluing = ["gluing GL", "  index: " + " ".join(labels)]
    gluing += [f"  patch {label}: P{i}" for i, label in enumerate(labels)]
    for (i, j), name in overlap.items():
        lines += _space_block(f"O{i}_{j}", list(name.values()), induced(name))
    for (i, j), name in overlap.items():
        lines += _map_block(f"a{i}_{j}", f"O{i}_{j}", f"P{i}", {name[x]: names[i][x] for x in name})
        lines += _map_block(f"t{i}_{j}", f"O{i}_{j}", f"O{j}_{i}", {name[x]: overlap[(j, i)][x] for x in name})
        gluing += [
            f"  overlap {labels[i]} {labels[j]}: O{i}_{j}",
            f"  anchor {labels[i]} {labels[j]}: a{i}_{j}",
            f"  transition {labels[i]} {labels[j]}: t{i}_{j}",
        ]
    lines += gluing + ["end"]
    model = {"base": base, "names": names, "overlap": overlap, "labels": labels}
    return "\n".join(lines) + "\n", model


def _pullbacks_collide(name_of, labels):
    """Whether two pairs of one triple pullback [i|{j,k}] get one ``(u,v)`` name.

    ``name_of(i, j)`` maps each base point of overlap (i, j) to the name of
    its point there; overlap (i, i) is patch i.  The pullback of anchors
    (i, j) and (i, k) pairs the points over one base point, with j before k
    in label order.
    """
    by_label = sorted(range(len(labels)), key=labels.__getitem__)
    for i in by_label:
        for j, k in itertools.combinations(by_label, 2):
            left, right = name_of(i, j), name_of(i, k)
            shared = left.keys() & right.keys()
            if len({f"({left[x]},{right[x]})" for x in shared}) < len(shared):
                return True
    return False


def _run_quietly(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


class TestGeneratedDocuments:
    """Whole documents generated with ``,``, ``@``, ``(`` and ``)`` in every name."""

    @settings(max_examples=80, derandomize=True, deadline=None)
    @given(glue_documents())
    def test_pullback_and_union_sizes_or_duplicate_name(self, document):
        text, model = document
        base, names, overlap, labels = model["base"], model["names"], model["overlap"], model["labels"]
        count = len(names)
        with tempfile.TemporaryDirectory() as tmp:
            f = Path(tmp) / "doc.glue"
            f.write_text(text)
            runs = [
                _run_quietly(["cover-functor", str(f), "COV", "--machine"]),
                _run_quietly(["glue", str(f), "GL", "--derive-triples", "--machine"]),
            ]
        for code, out, err in runs:
            assert code in (0, 1, 2, 3) and "Traceback" not in out + err

        # the gluing's triple spaces are pullbacks of its declared anchors,
        # computed when the document is parsed, so they fail both runs
        def gluing_name(i, j):
            return names[i] if i == j else overlap[(i, j)]

        # the first sorted label holding '@' or ',' is rejected, '@' before ','
        rejected = [label for label in sorted(set(labels)) if "@" in label or "," in label]
        if rejected:
            sep = "@" if "@" in rejected[0] else ","
            assert all((code, out) == (2, "") and f"must not contain {sep!r}" in err for code, out, err in runs)
            return
        if _pullbacks_collide(gluing_name, labels):
            assert all((code, out) == (2, "") and "both get the name" in err for code, out, err in runs)
            return
        (cover_code, cover_out, cover_err), (glue_code, glue_out, _) = runs
        classes = json.loads(glue_out)["data"]["classes"]
        assert glue_code == 0 and len(classes) == len(base)
        assert sum(len(members) for members in classes.values()) == sum(len(n) for n in names)
        gd = parse_spec(text, derive_triples=True).gluings["GL"]
        for obj, space in gd.triple_space.items():
            i, j, k = (labels.index(label) for label in (obj.head, *obj.rest))
            assert len(space.points) == len(names[i].keys() & names[j].keys() & names[k].keys())

        # the covering's overlaps are the pullbacks of its legs, named (u,v)
        def cover_name(i, j):
            if i == j:
                return names[i]
            return {x: f"({names[i][x]},{names[j][x]})" for x in names[i].keys() & names[j].keys()}

        pairs_collide = any(
            len(set(cover_name(i, j).values())) < len(cover_name(i, j))
            for i in range(count) for j in range(count)
        )
        if pairs_collide or _pullbacks_collide(cover_name, [str(i) for i in range(count)]):
            assert (cover_code, cover_out) == (2, "") and "both get the name" in cover_err
            return
        rows = {(e["name"], e["subject"]): e["ok"] for e in json.loads(cover_out)["data"]["entries"]}
        assert cover_code in (0, 1) and rows[("glued-size", "points")]
        covering = parse_spec(text).coverings["COV"]
        gd = cover_mod.data_of_covering(covering)
        for (i, j), space in gd.overlap.items():
            assert len(space.points) == len(cover_name(int(i), int(j)))
        glued = glue_mod.glue(gd)
        assert sum(len(members) for members in glued.classes.values()) == sum(len(n) for n in names)


# Every error class and the exit code the README's table gives it.
ERROR_EXIT_CODES = {
    "TopoglueError": 1,
    "InvalidTopology": 2,
    "UnknownPoint": 2,
    "CompositionMismatch": 2,
    "SearchBudgetExceeded": 3,
    "BadArity": 2,
    "ValidationFailed": 1,
    "NotDetermined": 2,
    "NotEquivalence": 1,
    "MissingLeg": 2,
    "IllDefined": 1,
    "NotCovering": 1,
    "MissingComponent": 2,
    "HypothesisBFailed": 1,
    "ParseError": 2,
    "UnresolvedReference": 2,
    "DuplicateName": 2,
    "UnknownCommand": 2,
    "UnknownTarget": 2,
}


class TestErrorExitCodes:
    def test_every_error_class_declares_the_readme_code(self):
        from topoglue import errors

        classes = {
            name: cls
            for name, cls in vars(errors).items()
            if isinstance(cls, type) and issubclass(cls, errors.TopoglueError)
        }
        assert sorted(classes) == sorted(ERROR_EXIT_CODES)
        assert {n: c.exit_code for n, c in classes.items()} == ERROR_EXIT_CODES
        readme = (REPO / "README.md").read_text(encoding="utf-8")
        table = "`1` a check failed, `2` input error,\n`3` search budget exceeded"
        assert table in readme


# Constructor arguments of the error classes that take more than a message.
ERROR_ARGS = {
    "InvalidTopology": ("a", "b"),
    "SearchBudgetExceeded": ("search", 2, 1),
    "ValidationFailed": (Report(),),
    "NotDetermined": ("1", "2", "3", "p", []),
    "NotEquivalence": (("a", "b"),),
    "IllDefined": (("q", ["a", "b"]),),
    "HypothesisBFailed": ("1", "2", "3"),
    "ParseError": (1, "bad line"),
}


class TestErrorPrefixes:
    @pytest.mark.parametrize("name", ERROR_EXIT_CODES)
    def test_main_prints_the_prefix_of_the_exit_code(
        self, capsys, monkeypatch, circle_file, name
    ):
        from topoglue import cli, errors

        exc = getattr(errors, name)(*ERROR_ARGS.get(name, ("boom",)))

        def raising(*args):
            raise exc

        monkeypatch.setattr(cli, "run", raising)
        code = ERROR_EXIT_CODES[name]
        prefix = "check failed" if code == 1 else "error"
        assert run_cli(capsys, "validate", circle_file) == (code, "", f"{prefix}: {exc}\n")


class TestRunApi:
    def test_unknown_command(self):
        from topoglue.cli import run
        from topoglue.errors import UnknownCommand
        from topoglue.specfile import parse_spec

        doc = parse_spec(CIRCLE_DOC, derive_triples=True)
        with pytest.raises(UnknownCommand):
            run(doc, "frobnicate")

    def test_run_with_default_options(self):
        from topoglue.cli import run
        from topoglue.specfile import parse_spec

        doc = parse_spec(CIRCLE_DOC, derive_triples=True)
        rep = run(doc, "glue", ["CIRC"])
        assert rep.ok and "4 classes" in rep.human()

    def test_opens_entry_must_be_declared(self):
        from topoglue.errors import ParseError
        from topoglue.specfile import parse_spec

        with pytest.raises(ParseError):
            parse_spec("space S\n  points: a\n  opens: a zzz\nend\n")

    def test_render_dot_function(self):
        from topoglue.cli import render_dot
        from topoglue.specfile import parse_spec

        doc = parse_spec(CIRCLE_DOC, derive_triples=True)
        text = render_dot(doc, "index:i,j")
        assert text.startswith("digraph")
        assert render_dot(doc, "CIRC") == render_dot(doc, "CIRC")


class TestCommittedExamples:
    def test_examples_in_sync_with_generators(self):
        assert (EXAMPLES / "circle.glue").read_text() == CIRCLE_DOC.lstrip()
        assert (EXAMPLES / "torus.glue").read_text() == torus_document()
        assert (EXAMPLES / "broken.glue").read_text() == BROKEN_TRIPLE_DOC
