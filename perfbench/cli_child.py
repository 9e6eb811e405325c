"""Traced CLI child: `python3 cli_child.py SPANS_FILE <ffr arguments>`.

Installs the trace wrappers, runs `ffr.cli.run` on the arguments and
writes the recorded spans to SPANS_FILE.  PYTHONPATH must name the source
directory holding `ffr`.
"""

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import decide  # noqa: E402
import tracing  # noqa: E402


def main() -> int:
    spans_file, argv = sys.argv[1], sys.argv[2:]
    lib = decide.load_library(os.path.abspath(
        os.environ["PYTHONPATH"].split(os.pathsep)[0]))
    tracer = tracing.Tracer(lib)
    try:
        with tracer.active():
            code = lib.cli.run(argv)
    finally:
        with open(spans_file, "w", encoding="utf-8") as fh:
            json.dump(tracer.to_doc(), fh, separators=(",", ":"))
    return code


if __name__ == "__main__":
    sys.exit(main())
