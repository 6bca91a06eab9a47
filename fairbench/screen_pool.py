"""List the design_grid pool draws on which solve_opt_k raises NumericalFailure.

    python3 fairbench/screen_pool.py

Designs every draw of the fixed pool (workloads.POOL per class) once and
prints the faulting ones, with their messages, for workloads.POOL_FAULTS.
Run it again when the pool, its seed or the solver changes.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import workloads  # noqa: E402


def main() -> None:
    faults = []
    for k in workloads.GRID_KS:
        for eps in workloads.GRID_EPSILONS:
            for tight in sorted(set(workloads.BUDGETS)):
                for index in range(workloads.POOL):
                    result = workloads.design_instance(workloads.pool_instance(k, eps, tight, index))
                    if workloads.is_failure(result):
                        faults.append(((k, eps, tight, index), str(result[2])))
    print("POOL_FAULTS = {")
    for draw, message in faults:
        print(f"    {draw!r}: {message!r},")
    print("}")


if __name__ == "__main__":
    main()
