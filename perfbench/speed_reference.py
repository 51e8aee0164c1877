"""Fixed work that tracks the speed of the machine the benchmark runs on.

The harness runs this script as a child process before every timed CLI
call. Like a CLI call it starts a fresh interpreter, imports numpy, runs
an interpreted loop over small numpy values and a few array operations on
tens of thousands of rows, but it never touches mmscatter, so no change to
the program changes its duration.
"""

import numpy as np

rng = np.random.default_rng(0)
x = rng.random((20000, 3))
acc = 0.0
for i in range(4000):
    acc += float(x[i] @ x[i + 1])
for _ in range(20):
    n = np.linalg.norm(x - x[0], axis=1)
    acc += float(np.cos(np.arccos(np.clip(n / n.max(), -1.0, 1.0))).sum())
grid = np.outer(np.arange(400.0), np.arange(2000.0))
acc += float(np.exp(-grid / grid.max()).sum())
if not np.isfinite(acc):
    raise SystemExit("non-finite result")
