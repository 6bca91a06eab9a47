"""Check that the design_grid designs do not depend on which HiGHS call runs.

    PYTHONPATH=src python tests/design_identity.py

Designs each of the 967 design_grid k-ary instances (the 960 pool draws,
the six fixed instances and the k=12 reproducer, from
`fairbench/workloads.py`) twice: once as shipped, and once with
`kary_design.linprog` replaced by `oracles.scipy_linprog`, the same LP
through `scipy.optimize.linprog`.  Compares min_achievable_error, zeta and
the design's JSON (Q.entries, objective, certificate.iterations and
certificate.slacks, floats written by repr, so bit for bit), or the message
of a NumericalFailure.  Prints the count of identical instances and a
sha256 over each side's designs; exits 1 on any difference.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "fairbench"))

import workloads  # noqa: E402
from fairldp import kary_design  # noqa: E402
from oracles import scipy_linprog  # noqa: E402


def instances():
    for k in workloads.GRID_KS:
        for eps in workloads.GRID_EPSILONS:
            for tight in sorted(set(workloads.BUDGETS)):
                for index in range(workloads.POOL):
                    yield workloads.pool_instance(k, eps, tight, index)
    for j, (k, eps, tight) in enumerate(workloads.FIXED):
        rng = np.random.default_rng([workloads.FIXED_SEED, k, j])
        yield workloads.make_instance(k, eps, tight, rng)
    yield workloads.reproducer_instance()


def design_bytes(instance) -> bytes:
    min_error, zeta, result = workloads.design_instance(instance)
    if workloads.is_failure(result):
        design = f"{type(result[2]).__name__}: {result[2]}"
    else:
        design = result.to_json_dict()
    return json.dumps([min_error, zeta, design]).encode()


def main() -> int:
    shipped = hashlib.sha256()
    oracle = hashlib.sha256()
    solve = kary_design.linprog
    same = total = 0
    for instance in instances():
        kary_design.linprog = solve
        ours = design_bytes(instance)
        kary_design.linprog = scipy_linprog
        theirs = design_bytes(instance)
        total += 1
        same += ours == theirs
        if ours != theirs:
            print(f"differs: k={instance[0]} eps={instance[1]} {instance[2]}")
        shipped.update(ours)
        oracle.update(theirs)
    kary_design.linprog = solve
    print(f"{same} of {total} instances identical")
    print(f"sha256 shipped {shipped.hexdigest()}")
    print(f"sha256 scipy   {oracle.hexdigest()}")
    return 0 if same == total else 1


if __name__ == "__main__":
    sys.exit(main())
