"""Runs the CLI children of the cli-session workload, one at a time.

Linux charges a spawned child with the peak RSS of the address space it
was spawned from, so a child spawned by the (large) benchmark process
would report the benchmark's memory as its own ``ru_maxrss``.  This small
process spawns every child instead, which leaves each child's
``ru_maxrss`` its own.

Protocol, one JSON array per line: the benchmark writes ``[argv,
stdout_path, stderr_path]``, this process answers ``[exit_code,
maxrss_kb]`` once the child has exited.  It stops at end of input.
"""

import json
import os
import sys


def main() -> None:
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    for line in sys.stdin:
        argv, stdout_path, stderr_path = json.loads(line)
        actions = [
            (os.POSIX_SPAWN_OPEN, 1, stdout_path, flags, 0o644),
            (os.POSIX_SPAWN_OPEN, 2, stderr_path, flags, 0o644),
        ]
        pid = os.posix_spawn(argv[0], argv, os.environ, file_actions=actions)
        _, status, usage = os.wait4(pid, 0)
        sys.stdout.write(json.dumps([os.waitstatus_to_exitcode(status), usage.ru_maxrss]) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
