"""Run one isoplp CLI invocation with spans around the package's public functions.

Usage: python3 perfbench/traced_cli.py SPANS.json ISOPLP-ARGS...

The spans stay in memory and are written to SPANS.json when the
invocation ends; the exit code is the CLI's.
"""

import sys

import tracing
from isoplp import cli


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tracer = tracing.Tracer()
    tracing.install(tracer)
    try:
        return tracer.wrap("cli.main", cli.main)(argv)
    finally:
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main())
