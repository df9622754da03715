"""Child-process entry points of the benchmark.

    python3 bench/launch.py setup CONFIG [SPANS]
        Time ``import qmem.cli`` and ``cli.load_config(CONFIG)`` in this
        fresh interpreter and print both as JSON.  Given SPANS, then run
        ``qmem couple --config CONFIG`` in the same interpreter, untimed,
        so that the traced run records one ``cli.main`` span per probe.
    python3 bench/launch.py cli SPANS ARGS...
        Run ``qmem.cli.main(ARGS)`` with the benchmark's wrappers
        installed, the traced form of ``python -m qmem.cli ARGS``, and
        exit with its code.

Given a SPANS path, the wrappers of ``tracing.LAYERS`` are installed
right after the import and the spans are written to SPANS when the
command ends.  The caller puts ``src`` on PYTHONPATH and pins the BLAS
thread count.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import os
import sys
import time

import tracing

USAGE = "usage: launch.py setup CONFIG [SPANS] | launch.py cli SPANS ARGS..."


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[0] not in ("setup", "cli"):
        print(USAGE, file=sys.stderr)
        return 2
    mode = argv[0]
    if mode == "setup":
        config, spans_path = argv[1], (argv[2] if len(argv) > 2 else None)
    else:
        config, spans_path = None, argv[1]

    start = time.perf_counter()
    cli = importlib.import_module("qmem.cli")
    imported = time.perf_counter()
    tracer = None
    if spans_path:
        tracer = tracing.Tracer()
        tracer.task = 0
        tracer.record(tracing.IMPORT_SPAN, start, imported)
        tracer.install()
    try:
        if mode == "setup":
            load_start = time.perf_counter()
            cli.load_config(config)
            loaded = time.perf_counter()
            print(json.dumps({
                "import_s": imported - start,
                "load_config_s": loaded - load_start,
            }), flush=True)
            if tracer is None:
                return 0
            with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
                return cli.main(["couple", "--config", config])
        return cli.main(argv[2:])
    finally:
        if tracer is not None:
            tracer.write(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
