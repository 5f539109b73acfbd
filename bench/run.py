"""topoglue benchmark: ``python3 bench/run.py --workload W --seed N --seconds S --trace 0|1``.

One process runs one op at a time (a closed loop with one caller) for at
least ``--seconds``, in whole blocks that hold every op of the workload's mix
once, shuffled by the seed.  Every op's answer is checked against a
reference from ``refs``.  A human-readable table goes to standard output,
and the last line is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}

With ``--trace 0`` the metrics are the end-to-end ones.  With ``--trace 1``
each op runs twice, once plain and once with a span around every call the
benchmark makes into a topoglue layer; the metrics are then per-layer mean
self times per op, per-op counts, and the tracing overhead (traced minus
plain op time), and the spans are written to ``bench/out/``.

The run pins itself (and so its children) to one CPU and times a fixed
probe from ``speed`` right before and after every untraced op and every
set-up.  End-to-end times are scaled to the CPU speed at which the probe
takes PROBE_REFERENCE_S, so that a host whose CPU changes speed under other
tenants gives steady figures; the table above the JSON line also prints the
unscaled median and how far the probe times spread.

``--workload all`` runs every workload in turn, each in its own process.
"""

from __future__ import annotations

import argparse
import os
import gc
import itertools
import json
import random
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
WORKLOAD_NAMES = ("cli_docs", "cover_scale", "oracle_search", "reject_mutants")
SETUPS = 7
# end-to-end times are scaled to the CPU speed at which the speed probe takes
# this long (see speed.py)
PROBE_REFERENCE_S = 0.001
TAIL_BEYOND = 10
# Untraced runs sample every op of the mix at least this often, so that the
# tail percentile lands inside the slowest op's samples rather than on the
# boundary between two ops, where one block more or less would move it.
MIN_BLOCKS = TAIL_BEYOND + 3

END_TO_END = (
    ("ops_per_s", "ops/s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("ok_share", "ratio"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

# spans (one per call into a layer) whose mean self time per op is reported
TIME_LAYERS = (
    "cli.import",
    "cli.process_overhead",
    "specfile.parse_spec",
    "cli.run",
    "cover.check_covering",
    "cover.data_of_covering",
    "cover.functor_of_covering",
    "glidx.verify_relations",
    "gdata.make_gluing_data",
    "gdata.derive_triple_maps",
    "gdata.validate",
    "gdata.functor_of",
    "glue.glue",
    "glue.check_cone.figure3",
    "glue.check_cone.figure4",
    "glue.check_cone.full",
    "glue.check_glued_properties",
    "glue.check_otop",
    "glue.mediate",
    "glue.verify_universal",
    "fintop.enumerate_continuous_maps",
    "fintop.find_homeomorphism",
    "refine.compose_gdf",
)
# the layers cover_scale and reject_mutants call, also reported per instance
INSTANCE_LAYERS = TIME_LAYERS[4:19]
INSTANCES = ("m12k3", "m24k4", "m48k6")
COUNTS = (
    "specfile.declarations",
    "glidx.objects",
    "glidx.hom_pairs",
    "gdata.validate.failed_clauses",
    "glue.relation_pairs",
    "glue.verify_universal.cones",
    "glue.verify_universal.scan_pairs",
    "fintop.enumerate_continuous_maps.candidates",
    "fintop.enumerate_continuous_maps.maps",
    "fintop.budget_exceeded",
)


def per_layer_units() -> dict[str, str]:
    units = {f"{layer}.ms": "ms" for layer in TIME_LAYERS}
    for layer in INSTANCE_LAYERS:
        for tag in INSTANCES:
            units[f"{layer}.ms.{tag}"] = "ms"
    units.update({name: "count" for name in COUNTS})
    units["trace.overhead.ms"] = "ms"
    units["trace.overhead.share"] = "ratio"
    return units


def setup_seconds(workload: str, seed: int, count: int) -> list[tuple[float, float]]:
    """Import plus input building, each timed in a fresh interpreter, one at a time.

    Returns (seconds, mean probe seconds around the set-up) pairs.
    """
    from speed import probe

    out = []
    for _ in range(count):
        before = probe()
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_child.py"), workload, str(seed)],
            capture_output=True, text=True, check=True,
        )
        out.append((float(proc.stdout.split()[-1]), (before + probe()) / 2))
    return out


class Run:
    """One measured run of one workload: op times, failures and (traced) spans."""

    def __init__(self, wl, traced: bool):
        from spans import NoTrace, Tracer
        from topoglue.errors import SearchBudgetExceeded, TopoglueError

        self.wl = wl
        self.plain = NoTrace()
        self.tracer = Tracer() if traced else None
        self.budget_error = SearchBudgetExceeded
        self.typed_error = TopoglueError
        self.times: list[float] = []
        # untraced ops only: mean probe seconds around each op, and every probe time
        self.op_speed: list[float] = []
        self.speeds: list[float] = []
        self.traced_times: list[float] = []
        self.failures: list[str] = []
        self.budget_exceeded = 0
        self.op_instance: dict[int, str | None] = {}
        self.op_counts: list[dict] = []

    def attempt(self, op, tr, meter=None) -> float:
        """Run, time and check one op; failures are recorded, never raised."""
        if tr is self.tracer:
            tr.op = len(self.op_counts)
            self.op_instance[tr.op] = self.wl.instance(op)
            sid = tr.open("op")
        t0 = perf_counter()
        if meter is not None:
            meter.start()
        try:
            out = self.wl.run(op, tr)
            problem = None
        except self.budget_error as exc:
            self.budget_exceeded += 1
            out, problem = None, f"SearchBudgetExceeded: {exc}"
        except self.typed_error as exc:
            out, problem = None, f"{type(exc).__name__}: {exc}"
        except Exception as exc:  # an untyped exception is a failed op, not a crash
            out, problem = None, f"untyped {type(exc).__name__}: {exc}"
        if meter is not None:
            meter.stop()
        elapsed = perf_counter() - t0 - (meter.stolen if meter is not None else 0.0)
        if tr is self.tracer:
            tr.close(sid)
        if problem is None:
            problem = self.wl.check(op, out)
        if problem is not None:
            self.failures.append(problem)
        if tr is self.tracer:
            self.op_counts.append(self.wl.counts(op, out) if problem is None else {})
        return elapsed

    def go(self, seed: int, seconds: float) -> None:
        """Whole shuffled blocks until ``seconds`` have passed.

        Untraced runs make at least MIN_BLOCKS blocks, unless ``seconds`` is 0
        (one block, for the benchmark's own tests).
        """
        from speed import Meter, probe

        meter = Meter()
        rng = random.Random(seed)
        min_blocks = MIN_BLOCKS if self.tracer is None and seconds > 0 else 1
        gc.collect()
        start = perf_counter()
        for blocks in itertools.count(1):
            ops = self.wl.block(rng)
            rng.shuffle(ops)
            for n, op in enumerate(ops):
                if self.tracer is None:
                    before = probe()
                    self.times.append(self.attempt(op, self.plain, meter))
                    around = [before, *meter.samples, probe()]
                    self.speeds += around
                    self.op_speed.append(statistics.fmean(around))
                    continue
                # alternate which of the pair runs first
                first, second = (self.plain, self.tracer) if n % 2 == 0 else (self.tracer, self.plain)
                a = self.attempt(op, first)
                b = self.attempt(op, second)
                plain_t, traced_t = (a, b) if first is self.plain else (b, a)
                self.times.append(plain_t)
                self.traced_times.append(traced_t)
            if blocks >= min_blocks and perf_counter() - start >= seconds:
                return

    @property
    def attempted(self) -> int:
        return len(self.times) + len(self.traced_times)

    def end_to_end(self, setups: list[tuple[float, float]], children_rss: bool) -> tuple[dict, dict]:
        deciles = statistics.quantiles(self.speeds, n=10)
        times = sorted(t * PROBE_REFERENCE_S / s for t, s in zip(self.times, self.op_speed))
        n = len(times)
        # the highest percentile with TAIL_BEYOND samples beyond it (the maximum
        # when there are too few samples for one)
        tail_rank = n - TAIL_BEYOND - 1 if n > TAIL_BEYOND else n - 1
        who = resource.RUSAGE_CHILDREN if children_rss else resource.RUSAGE_SELF
        values = {
            "ops_per_s": n / sum(times),
            "op_p50_ms": statistics.median(times) * 1000,
            "op_tail_ms": times[tail_rank] * 1000,
            "ok_share": 1 - len(self.failures) / self.attempted,
            "setup_s": statistics.median(t * PROBE_REFERENCE_S / s for t, s in setups),
            "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024,
        }
        notes = {
            "ops_per_s": f"{n} ops in {sum(times):.1f} s of op time",
            "op_p50_ms": f"median of {n} samples; unscaled {1000 * statistics.median(self.times):.4g} ms; "
                         f"probe p10 {1000 * deciles[0]:.3f} ms, p90/p10 {deciles[-1] / deciles[0]:.3f}",
            "op_tail_ms": f"p{100 * (tail_rank + 1) / n:.1f}, {n - tail_rank - 1} of {n} samples beyond",
            "ok_share": f"fail_share {len(self.failures) / self.attempted:.4g}: "
                        f"{len(self.failures)} failed of {self.attempted}",
            "setup_s": f"median of {len(setups)} set-ups",
            "peak_rss_mb": "largest child" if children_rss else "this process",
        }
        return values, notes

    def per_layer(self) -> dict:
        from spans import self_times

        tr = self.tracer
        n_ops = len(self.op_counts)
        per_inst = {tag: sum(1 for t in self.op_instance.values() if t == tag) for tag in INSTANCES}
        totals: dict[str, float] = {}
        for span, own in zip(tr.spans, self_times(tr.spans)):
            name = span[1]
            if name == "op":
                # time in a cli_docs child outside import, parse and run
                if self.wl.name != "cli_docs":
                    continue
                name = "cli.process_overhead"
            totals[f"{name}.ms"] = totals.get(f"{name}.ms", 0.0) + own
            tag = self.op_instance[span[5]]
            if tag is not None:
                key = f"{name}.ms.{tag}"
                totals[key] = totals.get(key, 0.0) + own
        values = {}
        for name, unit in per_layer_units().items():
            if unit != "ms" or name.startswith("trace."):
                continue
            tag = name.rsplit(".", 1)[1]
            ops = per_inst[tag] if tag in per_inst else n_ops
            values[name] = 1000 * totals.get(name, 0.0) / ops if ops else 0.0
        for name in COUNTS:
            values[name] = sum(c.get(name, 0) for c in self.op_counts) / n_ops
        values["fintop.budget_exceeded"] = self.budget_exceeded
        plain = statistics.fmean(self.times)
        values["trace.overhead.ms"] = 1000 * (statistics.fmean(self.traced_times) - plain)
        values["trace.overhead.share"] = values["trace.overhead.ms"] / (1000 * plain)
        return values


def measure(workload: str, seed: int, seconds: float, traced: bool, setups: int = SETUPS) -> dict:
    """Set up, run and check one workload; returns the result object the CLI prints."""
    import workloads

    run = Run(workloads.WORKLOADS[workload](seed), traced)
    run.wl.prepare()
    setup_times = [] if traced else setup_seconds(workload, seed, setups)
    run.go(seed, seconds)
    if traced:
        values = run.per_layer()
        units = per_layer_units()
        notes = {}
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        run.tracer.dump(out_dir / f"trace-{workload}-seed{seed}.json")
    else:
        values, notes = run.end_to_end(setup_times, children_rss=workload == "cli_docs")
        units = dict(END_TO_END)
    return {
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
        "notes": notes,
        "failures": run.failures,
    }


def report(workload: str, seed: int, res: dict) -> None:
    print(f"workload {workload}  seed {seed}  attempted {res['attempted']}  failed {res['failed']}")
    for name, m in res["metrics"].items():
        note = res["notes"].get(name, "")
        print(f"  {name:48} {m['value']:>14.6g} {m['unit']:6} {note}")
    for problem in res["failures"][:5]:
        print(f"  FAILED: {problem}")


def run_all(args) -> int:
    """Each workload in its own process, so peak memory is per workload."""
    results = {}
    code = 0
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True,
        )
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(proc.stderr, file=sys.stderr)
            code = proc.returncode or 1
            continue
        results[name] = json.loads(lines[-1])
    print(json.dumps(results))
    return code


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    # the layout check runs before anything imports topoglue
    missing = _missing_program()
    if not missing:
        # one CPU for the run and its children, so the speed probe times the
        # CPU the op ran on
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    if missing:
        print(f"error: {missing}; run from a checkout of the repository", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    res = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    report(args.workload, args.seed, res)
    print(json.dumps({k: res[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


def _missing_program() -> str | None:
    root = HERE.parent
    for need in (root / "src" / "topoglue" / "__init__.py", root / "docs" / "examples"):
        if not need.exists():
            return f"{need.relative_to(root)} not found"
    return None


if __name__ == "__main__":
    sys.exit(main())
