"""``repro serve`` with the benchmark's layer wrappers installed.

Usage: ``python -m perfbench.serve_traced <spans.json> serve [args...]``.
The wrappers go in before the CLI builds ``PlacementService`` (the
scheduler copies its executor registry at construction), and the spans
are written out once the service has shut down.
"""

from __future__ import annotations

import sys

from perfbench.tracing import Tracer


def main(argv) -> int:
    out, serve_args = argv[0], argv[1:]
    tracer = Tracer()
    tracer.install()
    tracer.enabled = True
    from repro.cli import main as repro_main

    try:
        return repro_main(serve_args)
    finally:
        tracer.enabled = False
        tracer.dump(out)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
