"""Starts the CLI child processes of a benchmark run from a small process.

A child's peak RSS as ``os.wait4`` reports it is at least the peak RSS of
the process it was forked from, because the kernel carries the forked memory
image's high-water mark across ``exec``. ``run.py`` holds the corpus, numpy
and networkx, so it starts this launcher before loading any of them and has
it fork every measured child.

Protocol: one JSON request per line on stdin,
``{"argv": [...], "env": {...}, "stdout": path, "stderr": path, "timeout": s,
"cpus": [...]}``, where ``cpus`` is the child's CPU affinity,
answered by one JSON line on stdout,
``{"seconds": wall time, "maxrss_kb": peak RSS of that child, "status": code}``;
a negative status is the signal that ended the child, as after a timeout.
A request ``{"probe": cpu}`` runs :func:`calibration_loop` on that CPU and is
answered by ``{"seconds": its time}``. End of input ends the launcher.
"""

import json
import os
import subprocess
import sys
import threading
import time


CALIBRATION_ITERATIONS = 500_000


def calibration_loop() -> float:
    """Seconds taken by a fixed pure-Python loop; see ``run.SpeedProbe``."""
    start = time.perf_counter()
    table: dict[int, int] = {}
    total = 0
    for i in range(CALIBRATION_ITERATIONS):
        total += i * i % 7
        table[i & 255] = total
    return time.perf_counter() - start


def main() -> None:
    every_cpu = os.sched_getaffinity(0)
    for request in sys.stdin:
        req = json.loads(request)
        if "probe" in req:
            os.sched_setaffinity(0, {req["probe"]})
            sys.stdout.write(json.dumps({"seconds": calibration_loop()}) + "\n")
            sys.stdout.flush()
            continue
        # inherited by the child across fork and exec
        os.sched_setaffinity(0, req["cpus"] or every_cpu)
        with open(req["stdout"], "wb") as out, open(req["stderr"], "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(req["argv"], stdout=out, stderr=err, env=req["env"])
            timer = threading.Timer(req["timeout"], proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            seconds = time.perf_counter() - start
        proc.returncode = code = os.waitstatus_to_exitcode(status)
        sys.stdout.write(json.dumps({"seconds": seconds, "maxrss_kb": usage.ru_maxrss, "status": code}) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
