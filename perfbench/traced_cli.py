"""``python -m orbifusion.cli`` with spans, for the traced pass of ``cli``.

Usage: traced_cli.py TRACE_JSON ARG...

Times the fresh-process import of ``orbifusion.cli``, installs the
wrappers of :mod:`spans`, runs ``orbifusion.cli.main(ARG...)`` and
writes the per-layer rows and the spans to TRACE_JSON. Exit code,
stdout and stderr are those of the command line, traceback included.
"""

import json
import sys
import time

start = time.perf_counter()
import orbifusion.cli  # noqa: E402

imported = time.perf_counter()

from spans import Tracer, install  # noqa: E402


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.add("cli.import", start, imported)
    install(tracer)
    try:
        with tracer.span("cli.main"):
            return orbifusion.cli.main(argv)
    finally:
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump({"layers": tracer.layers(), "spans": tracer.spans}, fh)


if __name__ == "__main__":
    raise SystemExit(main())
