"""Traced stand-in for ``python -m topoglue.cli``: same arguments, same output.

It runs the steps of ``topoglue.cli.main`` one by one and times the import,
``specfile.parse_spec`` and ``cli.run``.  The spans go to the last line of
standard error as ``BENCH_SPANS [[name, start, end], ...]`` with
``time.perf_counter`` times, which the parent places inside its op span.
"""

import sys
from time import perf_counter

SPANS_TAG = "BENCH_SPANS "


def main(argv) -> int:
    spans = []
    t0 = perf_counter()
    from topoglue import cli, specfile

    spans.append(["cli.import", t0, perf_counter()])
    import json

    opts = cli._build_parser().parse_args(argv)
    with open(opts.file, encoding="utf-8") as fh:
        text = fh.read()
    t0 = perf_counter()
    doc = specfile.parse_spec(text, derive_triples=opts.derive_triples)
    spans.append(["specfile.parse_spec", t0, perf_counter()])
    t0 = perf_counter()
    report = cli.run(doc, opts.command, opts.targets, opts)
    spans.append(["cli.run", t0, perf_counter()])
    print(report.machine() if opts.machine else report.human())
    print(SPANS_TAG + json.dumps(spans), file=sys.stderr)
    return report.exit_code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
