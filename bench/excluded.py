"""Re-measure the inputs the workloads leave out on purpose: ``python3 bench/excluded.py``.

Each is over budget or too slow for a run today.  A change that brings one
within budget can add it to a workload as a benchmark change of its own.
Prints one JSON object per line; ``excluded.jsonl`` holds the last
measurement, taken in about 20 s on 2 cores of an Intel Xeon host.
"""

import json
from time import perf_counter

import refs
import workloads
from topoglue import cover, fintop, fixtures, glue, refine
from topoglue.errors import SearchBudgetExceeded


def timed(fn, *args, **kwargs):
    t0 = perf_counter()
    try:
        fn(*args, **kwargs)
        outcome = "finished"
    except SearchBudgetExceeded as exc:
        outcome = f"SearchBudgetExceeded: {exc}"
    return outcome, round(perf_counter() - t0, 3)


def main():
    meta, _ = fixtures.torus_meta()
    fun, _ = refine.compose_gdf(meta)
    torus = glue.glue(fun.data)
    outcome, secs = timed(glue.verify_universal, fun.data, torus)
    yield {
        "input": "torus verify_universal, default apexes",
        "outcome": outcome,
        "seconds": secs,
        "why": "ARC3 needs 3^16 candidate maps and the glued space as its own apex 16^16; the budget is 10^6",
    }

    for m in (6, 8, 12):
        inst = workloads.cover_instance(m, 2 if m < 12 else 3)
        glued = glue.glue(cover.data_of_covering(inst.covering))
        outcome, secs = timed(fintop.find_homeomorphism, glued.space, inst.covering.base)
        yield {
            "input": f"find_homeomorphism glued DC_{m} -> DC_{m}",
            "outcome": outcome,
            "seconds": secs,
            "why": "every o_k shares one (minimal-open size, in-degree) signature and every c_k "
                   "another, so pruning starts late" if m == 12 else "finishes at once",
        }

    cyl = fixtures.cylinder_data("1")
    outcome, secs = timed(glue.verify_universal, cyl, glue.glue(cyl), [fixtures.arc3()])
    yield {
        "input": "cylinder verify_universal, apex ARC3",
        "outcome": outcome,
        "seconds": secs,
        "why": f"{refs.count_continuous(refs.product(refs.C4, refs.ARC3), refs.ARC3)} cones, "
               "each scanned against every candidate map",
    }

    inst = workloads.cover_instance(96, 8)
    gd = cover.data_of_covering(inst.covering)
    glued = glue.glue(gd)
    outcome, secs = timed(glue.check_cone, gd, glue.Cone(glued.space, dict(glued.legs)), "full")
    yield {
        "input": "check_cone full, DC_96 in 8 patches",
        "outcome": outcome,
        "seconds": secs,
        "why": f"one glidx.hom search per ordered pair of the {workloads.index_objects(8)} index objects",
    }


if __name__ == "__main__":
    for row in main():
        print(json.dumps(row), flush=True)
