"""qgen benchmark: one seeded workload per run, end to end or traced.

    python3 perfbench/run.py --workload corpus|train|generate \
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the benchmark imports ``qgen`` from
``src/`` and builds its inputs from ``tests/data/squad_tiny.json``. The last
line of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import os
import sys

# One BLAS thread, set before numpy loads, so runs on small shared machines
# repeat; the thread count is recorded with every result.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_REPEATS = 15


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("corpus", "train", "generate"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_program():
    """Import qgen from this checkout's src/, or explain what is missing."""
    src = os.path.join(ROOT, "src")
    for need in (os.path.join(src, "qgen", "__init__.py"),
                 os.path.join(ROOT, "tests", "data", "squad_tiny.json")):
        if not os.path.exists(need):
            sys.exit(f"perfbench: {os.path.relpath(need, ROOT)} not found; "
                     "run from the root of a qgen source checkout")
    sys.path.insert(0, src)
    sys.path.insert(0, HERE)
    import qgen
    if os.path.dirname(os.path.abspath(qgen.__file__)) != os.path.join(src, "qgen"):
        sys.exit(f"perfbench: imported qgen from {qgen.__file__}, not from {src}")


def main(argv=None) -> int:
    args = parse_args(argv)
    # Stay on one CPU: the CPUs of a shared host can run at different speeds.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    import_program()
    import runner
    return runner.run(ROOT, args.workload, args.seed, args.seconds, bool(args.trace),
                      SETUP_REPEATS)


if __name__ == "__main__":
    sys.exit(main())
