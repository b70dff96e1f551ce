"""One benchmark child process.

    python3 bench/child.py FD cli ARGS...          # the wilson CLI, as the installed script runs it
    python3 bench/child.py FD trace OUT.json ARGS... # the same under tracer.py
    python3 bench/child.py FD setup CODE           # import wilson.cli as c, then run CODE

On exit the process writes a JSON report to file descriptor FD: its own peak
resident set size (``peak_kib``, VmHWM) and, for ``setup``, the time the import
and CODE took (``setup_s``), timed inside the process so that interpreter
start-up is left out.  ``ru_maxrss`` from ``wait4`` cannot serve for the peak:
Linux carries the spawning process's high-water mark across ``exec`` into the
child's, so every child of the benchmark would read at least the benchmark's
own size.
"""

from __future__ import annotations

import json
import os
import sys
import time


def peak_kib() -> int:
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def run(mode: str, args: list[str], report: dict) -> int:
    if mode == "setup":
        start = time.perf_counter()
        import wilson.cli

        exec(args[0], {"c": wilson.cli})
        report["setup_s"] = time.perf_counter() - start
        return 0
    if mode == "trace":
        import tracer

        return tracer.main(args)
    if mode == "cli":
        from wilson.cli import main

        sys.argv = ["wilson", *args]
        return main()
    raise SystemExit(f"unknown mode {mode!r}")


def main(argv: list[str]) -> int:
    fd, mode, *args = argv
    report: dict = {}
    try:
        return run(mode, args, report)
    finally:
        sys.stdout.flush()
        report["peak_kib"] = peak_kib()
        os.write(int(fd), json.dumps(report).encode())


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
