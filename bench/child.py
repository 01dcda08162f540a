"""One fixproc invocation in a fresh interpreter, timed from the inside.

    python3 bench/child.py RESULT_JSON {setup|run|trace} [-- CLI ARGS...]

``setup`` only imports ``fixproc.cli``; ``run`` also calls
``fixproc.cli.main(CLI ARGS)``; ``trace`` does the same with the spans of
``spans.py`` installed. The result file holds the monotonic clock reading
taken right after the import (the parent subtracts its own reading taken
before the spawn to get set-up time), and for a call its wall seconds, CPU
seconds after import, peak RSS and exit code.
"""

import time
import fixproc.cli

IMPORTED_AT = time.perf_counter()

import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402


def _cpu_seconds() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def main() -> int:
    result_path, mode = sys.argv[1], sys.argv[2]
    argv = sys.argv[4:] if len(sys.argv) > 3 and sys.argv[3] == "--" else []
    out = {"imported_at": IMPORTED_AT, "fixproc_file": os.path.realpath(fixproc.cli.__file__)}
    if mode in ("run", "trace"):
        tracer = None
        if mode == "trace":
            import spans

            tracer = spans.Tracer()
            spans.install(tracer)
        cpu0 = _cpu_seconds()
        t0 = time.perf_counter()
        code = fixproc.cli.main(argv)
        wall = time.perf_counter() - t0
        out.update(
            exit_code=code,
            wall_s=wall,
            cpu_s=_cpu_seconds() - cpu0,
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        )
        if tracer is not None:
            out["trace"] = tracer.to_dict()
    with open(result_path, "w") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
