"""The benchmark's own tests: ``python3 -m pytest bench``.

Each workload runs one block of ops (``seconds=0``) with its checker on, in
both modes, and must print exactly the metrics named in BENCHMARK.json.
"""

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import refs
import run
from spans import Tracer, self_times

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def test_declared_metrics_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOAD_NAMES)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == dict(run.END_TO_END)
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.per_layer_units()


@pytest.mark.parametrize("traced", [False, True], ids=["plain", "traced"])
@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_one_block_is_correct_and_prints_every_metric(workload, traced):
    res = run.measure(workload, seed=3, seconds=0, traced=traced, setups=1)
    assert res["failures"] == []
    assert res["correct"] and res["attempted"] >= 3
    declared = SPEC["per_layer"] if traced else SPEC["end_to_end"]
    assert {k: m["unit"] for k, m in res["metrics"].items()} == {m["name"]: m["unit"] for m in declared}
    if not traced:
        assert res["metrics"]["ok_share"]["value"] == 1.0
        assert all(m["value"] > 0 for m in res["metrics"].values())


def test_planted_wrong_answer_is_a_failure(monkeypatch):
    monkeypatch.setattr(refs, "count_opens", lambda space: 1)
    res = run.measure("oracle_search", seed=3, seconds=0, traced=False, setups=1)
    assert res["failed"] > 0 and not res["correct"]
    assert res["metrics"]["ok_share"]["value"] < 1  # fail_share > 0


def test_seed_fixes_op_order_and_mutations():
    import workloads

    wl = workloads.RejectMutants(0)
    wl.prepare()

    def ops(seed):
        rng = random.Random(seed)
        out = []
        for _ in range(3):
            block = wl.block(rng)
            rng.shuffle(block)
            out += block
        return out

    assert ops(7) == ops(7)
    assert ops(7) != ops(8)


def test_self_time_subtracts_covered_child_time():
    spans = [
        [0, "op", 0.0, 10.0, None, 0],
        [1, "a", 1.0, 3.0, 0, 0],
        [2, "b", 2.0, 4.0, 0, 0],
        [3, "c", 6.0, 7.0, 0, 0],
        [4, "d", 6.5, 6.8, 3, 0],
    ]
    assert self_times(spans) == pytest.approx([6.0, 2.0, 2.0, 0.7, 0.3])


def test_tracer_parents_calls_on_the_open_span():
    tr = Tracer()
    tr.op = 5
    sid = tr.open("op")
    assert tr.call("inner", lambda x: x + 1, 1) == 2
    tr.add_child_spans([["child", 0.0, 0.0]])
    tr.close(sid)
    assert [(s[1], s[4], s[5]) for s in tr.spans] == [("op", None, 5), ("inner", 0, 5), ("child", 0, 5)]


@pytest.mark.parametrize(
    "space", [refs.C4, refs.product(refs.C4, refs.ARC3), refs.digital_circle(5), refs.DISC2]
)
def test_reference_counts_agree_with_each_other(space):
    # Stong: maps into SIERP are open sets, maps into DISC2 are unions of components
    assert refs.count_continuous(space, refs.SIERP) == refs.count_opens(space)
    assert refs.count_continuous(space, refs.DISC2) == 2 ** refs.components(space)


def test_without_the_program_it_exits_nonzero(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__", "out"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "cover_scale", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
