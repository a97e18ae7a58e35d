"""Run the flagnest CLI once with per-layer spans installed.

    python bench/traced_cli.py SPANS_FILE ARG...

behaves like `python -m flagnest.cli ARG...` (same stdout, stderr and exit
code) and afterwards writes the span totals as JSON to SPANS_FILE.  flagnest
must be importable, for example through PYTHONPATH=src.
"""

import sys
import time

from tracer import Tracer

start = time.perf_counter()
import flagnest.cli  # noqa: E402  (timed import)

import_s = time.perf_counter() - start

if __name__ == "__main__":
    tracer = Tracer()
    main = tracer.install()
    code = main(sys.argv[2:])
    sys.stdout.flush()
    tracer.dump(sys.argv[1], import_s)
    sys.exit(code)
