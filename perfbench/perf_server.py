"""Traced launcher for the session server.

Runs ``python -m repro serve ...`` in this process with the service
layers' calls wrapped in spans (see :func:`perf_trace.server_patches`)
and writes the spans to ``--spans`` when the server exits::

    python perfbench/perf_server.py --spans spans.json serve --port 0

Everything after ``--spans PATH`` is handed to the ``repro`` command
line unchanged, so SIGTERM and the exit code behave exactly as for an
untraced server.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from perf_trace import Tracer, patched, server_patches


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spans", type=Path, required=True)
    args, rest = parser.parse_known_args(argv)

    from repro.runtime.cli import main as repro_main

    tracer = Tracer()
    with patched(server_patches(tracer)):
        try:
            return repro_main(rest)
        finally:
            tracer.dump(args.spans)


if __name__ == "__main__":
    sys.exit(main())
