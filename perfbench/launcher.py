"""Starts program processes one at a time for the benchmark process.

    python3 perfbench/launcher.py

Reads one JSON request per line on stdin, {"argv": [...], "out": path,
"err": path}, runs ``python3 argv...`` with stdout and stderr in those
files, and answers with one line, {"wall": s, "code": n, "rss_mb": mb}.

On Linux a child's peak RSS counts the peak of the memory image it was
started from, so children are started from this small process rather
than from the benchmark process, which holds numpy and scipy.
"""

import json
import os
import signal
import sys
import time


def run(argv, out, err):
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [
        (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
        (os.POSIX_SPAWN_OPEN, 1, out, flags, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, err, flags, 0o644),
    ]
    t0 = time.perf_counter()
    pid = os.posix_spawn(sys.executable, [sys.executable, *argv], os.environ, file_actions=actions)
    try:
        _, status, usage = os.wait4(pid, 0)
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        raise
    wall = time.perf_counter() - t0
    return {"wall": wall, "code": os.waitstatus_to_exitcode(status), "rss_mb": usage.ru_maxrss / 1024.0}


def _stop(signum, frame):
    raise SystemExit(1)


def main():
    signal.signal(signal.SIGTERM, _stop)
    for line in sys.stdin:
        req = json.loads(line)
        sys.stdout.write(json.dumps(run(req["argv"], req["out"], req["err"])) + "\n")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
