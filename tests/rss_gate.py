#!/usr/bin/env python3
"""Run text ``analyze`` on one graph file and fail above 400 MiB peak RSS.

The command runs under ``timeout SECONDS`` and must exit 0.  Prints the
child's peak RSS; exits with a message when it is above the limit.  The
file may be ``/dev/stdin``, so a shape from the catalogue is piped in:

    python3 tests/shapes.py eared_tree 80000 20000 | python3 tests/rss_gate.py 60 /dev/stdin

Only the ``analyze`` child counts: the generator is the shell's process, not
this script's.
"""

import resource
import subprocess
import sys

LIMIT_MIB = 400


def main() -> None:
    seconds, path = sys.argv[1:]
    subprocess.run(["timeout", seconds, sys.executable, "-m", "welldom.cli", "analyze", path], check=True)
    peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss // 1024
    print(f"peak RSS {peak} MiB")
    sys.exit(f"peak RSS {peak} MiB is above {LIMIT_MIB} MiB" if peak > LIMIT_MIB else 0)


if __name__ == "__main__":
    main()
