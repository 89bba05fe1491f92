"""Run the multinum command line once under cProfile and count the calls.

    python3 bench/counted.py ARG...

runs ``multinumbers.cli.main([ARG...])`` with its normal stdout and stderr,
then writes ``py_calls <n>`` as the last line of stderr: every Python and
builtin call made while ``main`` ran.  In this pure-Python program each
Fraction operation is such a call, so the count tracks the interpreter's
work.  It repeats exactly at a fixed ``PYTHONHASHSEED``; the import of the
package happens before profiling starts and is not counted.
"""

from __future__ import annotations

import cProfile
import sys

import multinumbers.cli


def main() -> int:
    profiler = cProfile.Profile(builtins=True)
    status = profiler.runcall(multinumbers.cli.main, sys.argv[1:])
    calls = sum(entry.callcount for entry in profiler.getstats())
    sys.stdout.flush()
    sys.stderr.write(f"py_calls {calls}\n")
    return status


if __name__ == "__main__":
    sys.exit(main())
