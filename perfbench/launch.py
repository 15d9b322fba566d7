"""Start the benchmark's measured processes from a small process.

On Linux, exec records the peak RSS of the process that spawned the child into
the child's own max RSS. Spawned from the benchmark process, which holds the
reference graphs, every op would report at least that process's peak. This
launcher stays small, so a child's max RSS is its own and its pool workers'.

Protocol: one JSON request per stdin line, ``{"cmd": [...], "stderr": path}``;
one JSON reply per stdout line, ``{"start", "end", "returncode", "maxrss_kb"}``
with ``time.perf_counter`` times. It exits when stdin closes.
"""

import json
import os
import subprocess
import sys
import time


def main() -> None:
    for line in sys.stdin:
        request = json.loads(line)
        with open(request["stderr"], "ab") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(request["cmd"], stdin=subprocess.DEVNULL,
                                    stdout=subprocess.DEVNULL, stderr=err)
            _, status, usage = os.wait4(proc.pid, 0)
            end = time.perf_counter()
        proc.returncode = os.waitstatus_to_exitcode(status)
        reply = {"start": start, "end": end, "returncode": proc.returncode,
                 "maxrss_kb": usage.ru_maxrss}
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
