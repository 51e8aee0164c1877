"""Benchmark of the mmscatter CLI on seeded fit and simulate workloads.

Run it from the root of a checkout:

    python3 perfbench/run.py --workload fit-arc --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py            # every workload, seed 0, untraced

With --trace 0 each CLI call is a fresh `python -m mmscatter.cli`
process, as users run it, so every call pays the cold per-process
normalization cache. Calls run one after another: a closed loop with a
single client. The workload's pass of calls repeats, call by call, while
the next call is expected to end within --seconds; every repeated call
must write the same bytes as its first run. A fixed speed reference runs
before every timed call, and times are scaled to the machine speed at
which it takes a fixed time.

With --trace 1 the same calls are replayed in this process through
`mmscatter.cli.main`, once untraced and once with spans on the public
functions of each module (see spans.py); the per-layer metrics come from
the traced replay, and the difference between the two is the tracing
overhead.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. README.md defines every metric.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def cap_threads() -> int:
    """Cap the BLAS/OpenMP thread settings at the cores this process may use."""
    nproc = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        try:
            wanted = int(os.environ.get(var, nproc))
        except ValueError:
            wanted = nproc
        os.environ[var] = str(max(1, min(wanted, nproc)))
    return nproc


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", help="fit-arc, fit-cylinder, simulate-refine or all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0, help="measuring time per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = Path.cwd()
    src = root / "src"
    if not (src / "mmscatter" / "cli.py").is_file():
        print(f"perfbench: {src / 'mmscatter' / 'cli.py'} not found; run from the root of a checkout",
              file=sys.stderr)
        return 2
    nproc = cap_threads()  # before numpy is first imported
    sys.path.insert(0, str(src))
    import harness  # these import mmscatter, so only now
    from workloads import WORKLOADS

    if args.workload != "all" and args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)} or all")
    names = tuple(WORKLOADS) if args.workload == "all" else (args.workload,)
    return harness.run(root, nproc, names, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
