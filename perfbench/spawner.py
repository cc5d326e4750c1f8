"""Start the program's child processes from a small process and time them.

Linux charges a child's ``ru_maxrss`` with the resident size of the process
it was spawned from, so children spawned by the benchmark itself (which
holds the parsed workload) would all report the benchmark's size.  This
process stays small: it reads one JSON request per line on stdin
(``argv``, ``env``, ``stdin``, ``stdout``, ``stderr`` paths), runs the child
to completion and answers with one JSON line ``{"wall", "maxrss_kb",
"code"}``.  It exits when stdin closes.
"""

import json
import os
import sys
import time


def main() -> None:
    for line in sys.stdin:
        req = json.loads(line)
        fds = [os.open(req["stdin"], os.O_RDONLY)]
        fds += [os.open(req[name], os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
                for name in ("stdout", "stderr")]
        try:
            start = time.perf_counter()
            pid = os.posix_spawn(req["argv"][0], req["argv"], req["env"],
                                 file_actions=[(os.POSIX_SPAWN_DUP2, fd, i)
                                               for i, fd in enumerate(fds)])
            _, status, usage = os.wait4(pid, 0)
            wall = time.perf_counter() - start
        finally:
            for fd in fds:
                os.close(fd)
        sys.stdout.write(json.dumps({"wall": wall, "maxrss_kb": usage.ru_maxrss,
                                     "code": os.waitstatus_to_exitcode(status)}) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
