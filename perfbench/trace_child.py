"""Traced stand-in for ``python -m cmbproj.cli``.

Usage: trace_child.py SPANS_JSON -- CLI_ARGS...

Runs ``cmbproj.cli.main`` with the tracer installed and writes the spans
to SPANS_JSON, for the convergence-ladder workload's traced ops.
"""

import json
import os
import sys

from tracing import Tracer


def main() -> int:
    spans_path, sep, *cli_args = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: trace_child.py SPANS_JSON -- CLI_ARGS...")
    import cmbproj.cli
    tracer = Tracer(os.path.dirname(os.path.abspath(spans_path)))
    tracer.install()
    tracer.active = True
    rc = cmbproj.cli.main(cli_args)
    tracer.active = False
    with open(spans_path, "w", encoding="utf-8") as f:
        json.dump(tracer.take(), f)
    return rc


if __name__ == "__main__":
    sys.exit(main())
