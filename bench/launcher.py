"""Starts the benchmark's op processes from a small process.

Linux charges a child's peak RSS (ru_maxrss) with the resident memory of
the process it was forked from, and run.py holds numpy and the reference
grids. Forking ops from this lean process keeps each op's peak RSS its own.

Protocol: one JSON request per line on stdin,
``{"cmd", "env", "cwd", "timeout", "stdout", "stderr"}`` (stdout may be
null), and one JSON reply per line on stdout, ``{"rc", "seconds",
"rss_mb"}``. The op leads its own process group, which is killed on timeout
and again after the op ends, so no pool worker outlives its op. The launcher
exits when stdin closes.
"""

import json
import os
import signal
import subprocess
import sys
import threading
import time


def kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def run(req: dict) -> dict:
    stdout = open(req["stdout"], "wb") if req["stdout"] else subprocess.DEVNULL
    try:
        with open(req["stderr"], "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(req["cmd"], env=req["env"], cwd=req["cwd"], stdout=stdout,
                                    stderr=err, start_new_session=True)
            timer = threading.Timer(req["timeout"], kill_group, (proc.pid,))
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            seconds = time.perf_counter() - start
    finally:
        if stdout is not subprocess.DEVNULL:
            stdout.close()
    proc.returncode = os.waitstatus_to_exitcode(status)
    kill_group(proc.pid)
    return {"rc": proc.returncode, "seconds": seconds, "rss_mb": usage.ru_maxrss / 1024.0}


if __name__ == "__main__":
    for line in sys.stdin:
        sys.stdout.write(json.dumps(run(json.loads(line))) + "\n")
        sys.stdout.flush()
