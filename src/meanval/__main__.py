"""Entry point of ``python -m meanval`` and of the installed ``meanval`` script.

No command calls a BLAS routine, but NumPy's OpenBLAS starts one pool
thread per extra CPU at import, and that thread burns CPU while the process
starts and is still there when ``xsum.split_sums`` forks its workers. So
``run`` asks OpenBLAS for one thread before anything imports NumPy. A value
of ``OPENBLAS_NUM_THREADS`` already in the environment wins, and a program
that imports ``meanval`` as a library keeps its own BLAS threading.
"""

import os
import sys


def run() -> int:
    """Run the CLI on ``sys.argv`` with OpenBLAS on one thread; return its exit code."""
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    from . import cli

    return cli.main()


if __name__ == "__main__":
    sys.exit(run())
