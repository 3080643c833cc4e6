"""Launch the gradflow benchmark with BLAS pinned to one thread.

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 20 --trace 0

See ``perfbench/bench.py`` for what is measured and printed.
"""

import os
import sys
from pathlib import Path

BLAS_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)

if __name__ == "__main__":
    # before numpy is imported, so its BLAS starts single-threaded
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
    from perfbench.bench import main

    raise SystemExit(main())
