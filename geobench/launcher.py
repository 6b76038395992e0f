"""Spawn-and-wait helper: reads one JSON request per line on stdin, runs
the command, and answers with its wall time, exit code and peak RSS.

Linux records the pre-exec address space's peak RSS in a child's
``ru_maxrss`` at exec, so a child of the benchmark process (which holds
the generated inputs) would report at least the benchmark's own peak.
This process stays small, so the peak RSS of its children is theirs.
"""

import json
import os
import signal
import subprocess
import sys
import threading
import time


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def main() -> None:
    for line in sys.stdin:
        req = json.loads(line)
        with open(req["stderr"], "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(req["cmd"], stdout=subprocess.DEVNULL, stderr=err,
                                    env=req["env"], start_new_session=True)
            killer = threading.Timer(req["timeout"], _kill_group, (proc.pid,))
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
            wall = time.perf_counter() - t0
        reply = {"wall_s": wall, "exit": os.waitstatus_to_exitcode(status),
                 "maxrss_kb": usage.ru_maxrss}
        print(json.dumps(reply), flush=True)


if __name__ == "__main__":
    main()
