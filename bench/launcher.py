"""Start the benchmark's processes from a small process, and report each one's
exit code, wall time, peak resident set and stdout.

    python3 bench/launcher.py    (driven by run.py over stdin/stdout)

Each stdin line is a JSON list, one command.  For each, stdout gets a JSON
header line ``{"code", "wall", "maxrss_kb", "bytes"}`` followed by exactly
``bytes`` bytes of the command's stdout.

Why a separate process: Linux counts the memory a child had before it
exec'd in its peak resident set, and a child starts as a copy of the
process that spawned it.  Spawned from run.py, which holds every parsed
output, each call would report at least run.py's own size; spawned from
this small process, it reports its own peak.
"""

import json
import os
import subprocess
import sys
import threading
import time

TIMEOUT_S = 120


def main() -> int:
    out = sys.stdout.buffer
    for line in sys.stdin:
        cmd = json.loads(line)
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
        timer = threading.Timer(TIMEOUT_S, proc.kill)
        timer.start()
        data = proc.stdout.read()
        timer.cancel()
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)  # reaped here, not by Popen
        proc.stdout.close()
        header = {"code": proc.returncode, "wall": wall, "maxrss_kb": usage.ru_maxrss,
                  "bytes": len(data)}
        out.write(json.dumps(header).encode() + b"\n")
        out.write(data)
        out.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
