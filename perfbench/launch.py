"""Helper process that starts the benchmark's measured children.

    python3 perfbench/launch.py     (started by run.py, never by hand)

A child's peak RSS as ``os.wait4`` reports it includes the peak RSS of
the process that started it: Linux carries the old address space's
high-water mark across ``exec``.  run.py holds the chain, its ground
truth and decoded stores, so children it started itself would report its
memory, not their own.  This helper holds nothing but itself.

Reads one JSON request a line on stdin, ``[argv, cwd, timeout_s]``, runs
the command with stdout and stderr in ``stdout.bin`` and ``stderr.txt``
in ``cwd``, and answers with one JSON line, ``[seconds, peak RSS in MB,
exit code]``.  A child still running after ``timeout_s`` is killed.
Exits when stdin closes.
"""

import json
import os
import subprocess
import sys
import threading
import time


def main() -> None:
    for line in sys.stdin:
        argv, cwd, timeout_s = json.loads(line)
        with open(os.path.join(cwd, "stdout.bin"), "wb") as out, \
                open(os.path.join(cwd, "stderr.txt"), "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=cwd, stdout=out, stderr=err)
            timer = threading.Timer(timeout_s, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            seconds = time.perf_counter() - start
        # ru_maxrss is in KiB on Linux
        print(json.dumps([seconds, usage.ru_maxrss / 1024, os.waitstatus_to_exitcode(status)]), flush=True)


if __name__ == "__main__":
    main()
