"""One benchmark client: a fresh process issuing edtorus CLI requests in order.

    python3 bench/worker.py --requests '[["ed", "case", "sl", "7", "2"]]' [--trace]

Each request runs through ``edtorus.cli.main(argv + ["--format", "json"])``
after the previous one returned.  Protocol on stdout, one JSON object a line:

    {"ready": <epoch seconds once edtorus is imported>, "cpu_s": <CPU seconds until then>,
     "rss_file_mb": <resident file-backed MB then>, "python": ..., "numpy": ...}
    {"rc": <exit code or null>, "seconds": ..., "cpu_s": ..., "stdout": ..., "error": ...}   one per request
    {"layers": {...} | null, "missing": [...]}

With ``--trace`` the tracer wraps the package after the ready line, and the
last line carries its per-layer metrics.
"""

import argparse
import contextlib
import io
import json
import platform
import sys
import time
import traceback

import edtorus
import edtorus.cli
import numpy

READY, READY_CPU = time.time(), time.process_time()


def _rss_file_mb() -> float:
    """Resident file-backed pages (mapped libraries), from /proc/self/status."""
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("RssFile:"):
                return int(line.split()[1]) / 1024.0
    return 0.0


def _send(doc) -> None:
    sys.__stdout__.write(json.dumps(doc) + "\n")
    sys.__stdout__.flush()


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--requests", required=True, help="JSON list of argv lists")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()
    requests = json.loads(args.requests)

    _send({"ready": READY, "cpu_s": READY_CPU, "rss_file_mb": _rss_file_mb(), "python": platform.python_version(), "numpy": numpy.__version__})
    tracer = None
    if args.trace:
        import tracer as tracing

        tracer = tracing.install()

    for argv in requests:
        out, err = io.StringIO(), io.StringIO()
        rc, error = None, None
        start, cpu = time.perf_counter(), time.process_time()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = edtorus.cli.main(argv + ["--format", "json"])
        except SystemExit as exc:  # argparse rejected the argv
            error = f"SystemExit({exc.code}): {err.getvalue().strip()}"
        except Exception:
            error = traceback.format_exc()
        seconds = time.perf_counter() - start
        _send({"rc": rc, "seconds": seconds, "cpu_s": time.process_time() - cpu, "stdout": out.getvalue(), "error": error or err.getvalue() or None})

    layers = tracer.layer_metrics() if tracer is not None else None
    _send({"layers": layers, "missing": tracer.missing if tracer is not None else []})
    return 0


if __name__ == "__main__":
    sys.exit(main())
