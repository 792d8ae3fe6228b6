"""One repetition: a fresh interpreter that runs one kgaudit command.

Usage: python3 perfbench/child.py SPEC.json

SPEC names the program's source directory, the command's arguments,
whether to trace, and where to write the result.  The child imports
``kgaudit.cli`` and loads the default catalog (that is the set-up the
parent times, from before it started this process), then calls
``kgaudit.cli.main`` once with standard output captured, and writes a
JSON result: exit code, wall-clock and CPU time of the call, the
monotonic time at which set-up ended, the calibration times, peak
resident memory and the captured output.  The set-up the parent times
excludes the calibration that runs before it.  With tracing on, the result
also holds the per-layer summary and the spans are written next to it.
"""

import sys
import time


def calibrate() -> float:
    """Seconds a fixed, allocation-heavy loop takes: the host's current speed.

    Shared hosts run the same code 30-60% slower for minutes at a time.
    The loop is timed twice before the program is imported, and the parent
    scales the set-up time and the command's CPU time by it.  Timing it
    before the import keeps the program out of the figure: after the
    command, the program's live heap would slow the loop's garbage
    collection, so a change that leaves more objects behind would make
    its own scaled time read faster.
    """
    start = time.perf_counter()
    index = {}
    for i in range(40_000):
        key = (f"http://example.org/s{i % 997}", f"p{i % 31}")
        index.setdefault(key, []).append(("o", i))
    sorted(index)
    return time.perf_counter() - start


def main() -> int:
    import contextlib
    import io
    import json
    import os
    import resource

    with open(sys.argv[1], "r", encoding="utf-8") as handle:
        spec = json.load(handle)
    start = time.monotonic()
    calibration = [calibrate(), calibrate()]
    calibration_s = time.monotonic() - start
    sys.path.insert(0, spec["src"])
    import kgaudit.cli
    from kgaudit import catalog as catalog_module

    tracer = None
    if spec["trace"]:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    start = time.perf_counter()
    catalog_module.default_catalog()
    catalog_load_s = time.perf_counter() - start
    ready = time.monotonic()

    if not os.path.abspath(kgaudit.cli.__file__).startswith(os.path.abspath(spec["src"]) + os.sep):
        print(f"kgaudit was imported from {kgaudit.cli.__file__}, not from {spec['src']}",
              file=sys.stderr)
        return 3

    captured = io.StringIO()
    cpu_start = time.process_time()
    start = time.perf_counter()
    with contextlib.redirect_stdout(captured):
        try:
            code = kgaudit.cli.main(spec["argv"])
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
    wall_s = time.perf_counter() - start
    cpu_s = time.process_time() - cpu_start
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    result = {
        "code": code,
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "calibration": calibration,
        "calibration_s": calibration_s,
        "ready": ready,
        "rss_mb": rss_mb,
        "stdout": captured.getvalue(),
    }
    if tracer is not None:
        result["layers"] = tracer.summary(spec["datasets"])
        result["layers"]["catalog.load_s"] = catalog_load_s
        result["absent"] = tracer.absent
        tracer.write_spans(spec["spans"])
    with open(spec["result"], "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
