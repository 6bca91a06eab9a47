"""Report how far warm-started designs drift from designs solved cold.

    PYTHONPATH=src python tests/design_identity.py

Designs each of the 967 design_grid k-ary instances (the 960 pool draws,
the six fixed instances and the k=12 reproducer, from
`fairbench/workloads.py`) twice: once as shipped, where the LPs of a design
share one warm-started HiGHS model, and once with `kary_design.linprog`
replaced by `oracles.scipy_linprog`, so that every LP is solved cold through
`scipy.optimize.linprog`.  Prints the failures on each side; how many
designs are identical, moved by at most 1e-9 and moved by more (largest
|change| of a Q entry); the largest |change| of the objective and of the
expected reporting error; how many min_achievable_error values differ; and
the LP solves on each side.  Exits 1 on any failure, or when an objective
moves by more than the solver's `objective_tol`.
"""

from __future__ import annotations

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


def cold_linprog(model):
    c, A, b, bounds = model.dense()
    return scipy_linprog(c, A_ub=A, b_ub=b, bounds=bounds)


def counting(solve, counter: list[int]):
    def counted(model):
        counter[0] += 1
        return solve(model)

    return counted


def expected_error(dist, Q: np.ndarray) -> float:
    return 1.0 - float(np.diag(Q) @ dist.group_probs)


def main() -> int:
    shipped = kary_design.linprog
    solves = {"shipped": [0], "cold": [0]}
    sides = {
        "shipped": counting(shipped, solves["shipped"]),
        "cold": counting(cold_linprog, solves["cold"]),
    }
    failures = {side: 0 for side in sides}
    identical = small = large = min_error_moved = total = 0
    max_q = max_objective = max_error = 0.0
    try:
        for instance in instances():
            total += 1
            results = {}
            for side, solve in sides.items():
                kary_design.linprog = solve
                results[side] = workloads.design_instance(instance)
                if workloads.is_failure(results[side]):
                    failures[side] += 1
                    print(f"{side} fails: k={instance[0]} eps={instance[1]} "
                          f"{instance[2]}: {results[side][2]}")
            if any(workloads.is_failure(r) for r in results.values()):
                continue
            (ours_min, _, ours), (cold_min, _, cold) = results.values()
            min_error_moved += ours_min != cold_min
            moved = float(np.max(np.abs(ours.Q.entries - cold.Q.entries)))
            identical += moved == 0.0
            small += 0.0 < moved <= 1e-9
            large += moved > 1e-9
            max_q = max(max_q, moved)
            max_objective = max(max_objective, abs(ours.objective - cold.objective))
            dist = instance[5]
            max_error = max(
                max_error,
                abs(expected_error(dist, ours.Q.entries) - expected_error(dist, cold.Q.entries)),
            )
    finally:
        kary_design.linprog = shipped
    tol = kary_design.SolverConfig(epsilon=1.0, zeta=1.0).objective_tol
    print(f"{total} instances; failures: shipped {failures['shipped']}, cold {failures['cold']}")
    print(f"designs identical {identical}, moved <= 1e-9 {small}, moved > 1e-9 {large} "
          f"(max |dQ| {max_q:.3g})")
    print(f"max |d objective| {max_objective:.3g} (objective_tol {tol:g}); "
          f"max |d expected error| {max_error:.3g}")
    print(f"min_achievable_error differs on {min_error_moved}")
    print(f"LP solves: shipped {solves['shipped'][0]}, cold {solves['cold'][0]}")
    failed = any(failures.values()) or max_objective > tol
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
