"""Run the gmequiv command line with layer tracing.

    python3 bench/cli_child.py TRACE.json <gmequiv arguments...>

Behaves like `python -m gmequiv.cli <arguments...>` (same stdout, stderr
and exit code) and writes the layer counts, self times and spans of the
run to TRACE.json. gmequiv must be importable (PYTHONPATH=src).
"""

import json
import sys

import tracing

import gmequiv
import gmequiv.cli


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    tracer = tracing.Tracer()
    tracer.install(gmequiv)
    try:
        code = gmequiv.cli.main(argv)
    finally:
        tracer.uninstall()
        sys.stdout.flush()
        with open(out_path, "w", encoding="utf-8") as handle:
            json.dump({**tracer.summary(), "spans": tracer.span_records()}, handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
