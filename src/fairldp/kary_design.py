"""Disparity-minimizing k-ary mechanism design via bisection over LP feasibility.

The design problem minimizes the worst per-output relative disparity of the
released attribute subject to privacy, truthfulness, and utility constraints.
For a fixed disparity target t every constraint is linear in the off-diagonal
mechanism entries, and feasibility is monotone in t, so bisection over a
linear-feasibility oracle finds the optimum.  A multi-pass grid search over
the raw matrix entries (`brute_force_opt_k`) serves as an independent check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linprog

from .distribution import JointDistribution, delta
from .errors import (
    ConfigError,
    InfeasibleBudget,
    InvalidEpsilon,
    NumericalFailure,
    SolverError,
    TooLarge,
)
from .mechanisms import MechanismMatrix, induced_distribution

LP_OPTIONS = {
    "primal_feasibility_tolerance": 1e-10,
    "dual_feasibility_tolerance": 1e-10,
}


@dataclass(frozen=True)
class SolverConfig:
    """Budgets and tolerances for the k-ary design solver."""

    epsilon: float
    zeta: float
    objective_tol: float = 1e-6
    feasibility_tol: float = 1e-9
    max_bisection_iters: int = 60

    def __post_init__(self):
        if not math.isfinite(self.epsilon) or self.epsilon <= 0.0:
            raise InvalidEpsilon(self.epsilon)
        if not 0.0 <= self.zeta <= 1.0:
            raise ConfigError(f"zeta must lie in [0, 1], got {self.zeta}")
        if self.objective_tol <= 0.0 or self.feasibility_tol <= 0.0:
            raise ConfigError("tolerances must be positive")
        if self.max_bisection_iters < 1:
            raise ConfigError("max_bisection_iters must be at least 1")


@dataclass(frozen=True)
class LinearConstraintSystem:
    """Constraints A x <= b over the k(k-1) off-diagonal mechanism entries.

    Row r of A and entry r of b form the constraint named labels[r]; a lower
    bound is stored as its negated upper bound.
    """

    A: np.ndarray
    b: np.ndarray
    labels: tuple[str, ...]

    def __post_init__(self):
        m = len(self.labels)
        if self.A.ndim != 2 or self.A.shape[0] != m or self.b.shape != (m,):
            raise ValueError(
                f"A {self.A.shape} and b {self.b.shape} do not match {m} labels"
            )
        if not np.all(np.isfinite(self.b)):
            raise ValueError("constraint bounds must be finite")

    @property
    def num_vars(self) -> int:
        return self.A.shape[1]

    def extended(self, extra: "LinearConstraintSystem") -> "LinearConstraintSystem":
        return LinearConstraintSystem(
            np.vstack([self.A, extra.A]),
            np.concatenate([self.b, extra.b]),
            self.labels + extra.labels,
        )

    def slacks(self, x: np.ndarray) -> dict[str, float]:
        return dict(zip(self.labels, (self.b - self.A @ x).tolist()))

    def satisfied(self, x: np.ndarray, tol: float) -> bool:
        return bool(np.all(self.b - self.A @ x >= -tol))


@dataclass(frozen=True)
class FeasiblePoint:
    x: np.ndarray


@dataclass(frozen=True)
class Infeasible:
    pass


@dataclass(frozen=True)
class Certificate:
    """Bisection trace plus labeled constraint slacks at the returned point."""

    iterations: list[tuple[float, float]]
    slacks: dict[str, float]

    def to_json_dict(self) -> dict:
        return {
            "iterations": [[lo, hi] for lo, hi in self.iterations],
            "slacks": dict(self.slacks),
        }


@dataclass(frozen=True)
class KaryDesignResult:
    Q: MechanismMatrix
    objective: float
    certificate: Certificate
    epsilon: float
    zeta: float

    def to_json_dict(self) -> dict:
        return {
            "k": self.Q.k,
            "epsilon": self.epsilon,
            "zeta": self.zeta,
            "objective": self.objective,
            "entries": self.Q.entries.tolist(),
            "certificate": self.certificate.to_json_dict(),
        }


def var_index(i: int, j: int, k: int) -> int:
    """Position of off-diagonal entry (i, j) in the flattened variable vector."""
    if i == j:
        raise ValueError("diagonal entries are not variables")
    return i * (k - 1) + (j if j < i else j - 1)


def _off_diagonal(k: int) -> tuple[np.ndarray, np.ndarray]:
    """Row and column of each variable, in `var_index` order."""
    return np.nonzero(~np.eye(k, dtype=bool))


def matrix_from_vars(x: np.ndarray, k: int) -> np.ndarray:
    """Rebuild the full mechanism matrix, diagonals from the row-mass identity."""
    Q = np.zeros((k, k))
    Q[_off_diagonal(k)] = x
    np.fill_diagonal(Q, 1.0 - Q.sum(axis=1))
    return Q


def assemble_constraints(
    dist: JointDistribution, cfg: SolverConfig
) -> LinearConstraintSystem:
    """Static constraint system: truthfulness, privacy, row mass, sign, utility.

    Canonical row order: for each ordered pair (i, j), i != j, a truthfulness
    row against the sender's own diagonal then one against the target's
    (2k(k-1) rows); the reduced privacy rows per ordered pair (k(k-1)); the k
    row-mass rows; the k(k-1) non-negativity rows; the single utility row.
    """
    k = dist.k
    n = k * (k - 1)
    I, J = _off_diagonal(k)
    pairs = [f"({i},{j})" for i, j in zip(I, J)]
    # S[i] sums row i's off-diagonals, so the diagonal q_ii is 1 - S[i] x
    S = (I == np.arange(k)[:, None]).astype(float)
    E = np.eye(n)
    # q_ij <= q_ii and q_ij <= q_jj, interleaved per pair
    truth = np.stack([S[I] + E, E + S[J]], axis=1).reshape(2 * n, n)
    # q_jj <= e^eps q_ij, i.e. the strongest pairwise privacy ratio per column
    ldp = -S[J] - math.exp(cfg.epsilon) * E
    # sum_i p_i (1 - q_ii) <= zeta
    utility = dist.group_probs[I]
    A = np.vstack([truth, ldp, S, -E, utility])
    b = np.concatenate(
        [np.ones(2 * n), np.full(n, -1.0), np.ones(k), np.zeros(n), [cfg.zeta]]
    )
    labels = (
        tuple(f"{kind}{pair}" for pair in pairs for kind in ("truth_own", "truth_tgt"))
        + tuple(f"ldp{pair}" for pair in pairs)
        + tuple(f"mass({i})" for i in range(k))
        + tuple(f"nonneg{pair}" for pair in pairs)
        + ("utility",)
    )
    return LinearConstraintSystem(A, b, labels)


def fairness_rows_at(dist: JointDistribution, t: float) -> LinearConstraintSystem:
    """Linearized per-output disparity bounds |N_a / D_a - 1| <= t.

    N_a is the released positive mass at output a, D_a the released group mass
    scaled by the base positive rate; both are linear in the off-diagonal
    entries once diagonals are substituted out, and D_a > 0 on the feasible
    region, so each absolute-value bound becomes two linear rows.  Entry
    (i, j) enters the rows of output j (it moves group i's mass there) and of
    output i (it moves that mass away).
    """
    if t < 0.0:
        raise ValueError("disparity target must be non-negative")
    k = dist.k
    p = dist.group_probs
    r = dist.pos_rates
    py = dist.pos_marginal
    I, J = _off_diagonal(k)
    cols = np.arange(k * (k - 1))
    hi_bound = (1.0 + t) * py * p - r * p
    lo_bound = r * p - (1.0 - t) * py * p
    hi = np.zeros((k, cols.size))
    lo = np.zeros((k, cols.size))
    hi[J, cols] = r[I] * p[I] - (1.0 + t) * py * p[I]
    lo[J, cols] = (1.0 - t) * py * p[I] - r[I] * p[I]
    hi[I, cols] = hi_bound[I]
    lo[I, cols] = lo_bound[I]
    return LinearConstraintSystem(
        np.stack([hi, lo], axis=1).reshape(2 * k, cols.size),
        np.stack([hi_bound, lo_bound], axis=1).ravel(),
        tuple(f"{kind}({a})" for a in range(k) for kind in ("fair_hi", "fair_lo")),
    )


def _run_lp(system: LinearConstraintSystem, objective: np.ndarray):
    return linprog(
        objective,
        A_ub=system.A,
        b_ub=system.b,
        bounds=(None, None),
        method="highs",
        options=LP_OPTIONS,
    )


def lp_feasible(
    system: LinearConstraintSystem, tol: float = 1e-9
) -> FeasiblePoint | Infeasible:
    """Find any point satisfying every row within tol, or certify none exists."""
    res = _run_lp(system, np.zeros(system.num_vars))
    if res.status == 2:
        return Infeasible()
    if res.status != 0:
        raise NumericalFailure(f"feasibility solve ended with status {res.status}")
    if not system.satisfied(res.x, tol):
        raise NumericalFailure("solver returned a point violating its own system")
    return FeasiblePoint(np.asarray(res.x))


def _utility_objective(dist: JointDistribution) -> np.ndarray:
    return dist.group_probs[_off_diagonal(dist.k)[0]]


def solve_opt_k(dist: JointDistribution, cfg: SolverConfig) -> KaryDesignResult:
    """Minimize the worst per-output disparity subject to the static system.

    Bisects the disparity target: the target is feasible iff the fairness rows
    joined with the static system admit a point, and feasibility is monotone
    in the target.  Among mechanisms optimal at the final target, a second LP
    picks the one with the smallest expected reporting error.  The certificate
    records the bisection intervals and the labeled slacks of the returned
    point.
    """
    try:
        return _bisect_design(dist, cfg)
    except SolverError as err:
        # the solver's frames hold every constraint matrix of the design; a
        # caller that keeps the error would keep them all alive
        raise err.with_traceback(None)


def _bisect_design(dist: JointDistribution, cfg: SolverConfig) -> KaryDesignResult:
    static = assemble_constraints(dist, cfg)
    if isinstance(lp_feasible(static, cfg.feasibility_tol), Infeasible):
        raise InfeasibleBudget(cfg.epsilon, cfg.zeta)

    def feasible_at(t: float) -> bool:
        system = static.extended(fairness_rows_at(dist, t))
        return isinstance(lp_feasible(system, cfg.feasibility_tol), FeasiblePoint)

    trace: list[tuple[float, float]] = []
    if feasible_at(0.0):
        t_star = 0.0
        trace.append((0.0, 0.0))
    else:
        lo = 0.0
        hi = max(1.0 / dist.pos_marginal - 1.0, 1.0)
        for _ in range(cfg.max_bisection_iters):
            if hi - lo <= cfg.objective_tol:
                break
            mid = 0.5 * (lo + hi)
            if feasible_at(mid):
                hi = mid
            else:
                lo = mid
            trace.append((lo, hi))
        t_star = hi

    final_system = static.extended(fairness_rows_at(dist, t_star))
    res = _run_lp(final_system, _utility_objective(dist))
    if res.status != 0:
        raise NumericalFailure(
            f"utility refinement ended with status {res.status} at t={t_star}"
        )
    x = np.asarray(res.x)
    if not final_system.satisfied(x, cfg.feasibility_tol):
        raise NumericalFailure("refined point violates the constraint system")

    Q = MechanismMatrix(dist.k, matrix_from_vars(x, dist.k))
    objective = delta(induced_distribution(dist, Q))
    certificate = Certificate(iterations=trace, slacks=final_system.slacks(x))
    return KaryDesignResult(
        Q=Q,
        objective=float(objective),
        certificate=certificate,
        epsilon=cfg.epsilon,
        zeta=cfg.zeta,
    )


def min_achievable_error(dist: JointDistribution, epsilon: float) -> float:
    """Smallest expected reporting error any compliant mechanism allows.

    Minimizes the utility-row left side over the static system without the
    utility row itself; error budgets below this value are unsatisfiable at
    the given privacy level.
    """
    cfg = SolverConfig(epsilon=epsilon, zeta=1.0)
    static = assemble_constraints(dist, cfg)
    # the utility row is the last one
    trimmed = LinearConstraintSystem(static.A[:-1], static.b[:-1], static.labels[:-1])
    res = _run_lp(trimmed, _utility_objective(dist))
    if res.status != 0:
        raise NumericalFailure(f"error minimization ended with status {res.status}")
    return float(res.fun)


def _grid_feasible_mask(Q: np.ndarray, dist, ee: float, zeta: float, tol: float):
    # direct checks on the full matrices, independent of the LP row encoding
    k = dist.k
    diag = Q[:, np.arange(k), np.arange(k)]
    ok = np.all(diag >= -tol, axis=1)
    ok &= np.all(diag[:, :, None] >= Q - tol, axis=(1, 2))
    ok &= np.all(diag[:, None, :] >= Q - tol, axis=(1, 2))
    colmax = Q.max(axis=1)
    colmin = Q.min(axis=1)
    ok &= np.all(colmax <= ee * colmin + tol, axis=1)
    ok &= (diag @ dist.group_probs) >= 1.0 - zeta - tol
    return ok


def _grid_rows(axes: list[np.ndarray], i: int, k: int, ee: float, tol: float):
    """Row i of every grid point, in grid order, that passes the row-local checks.

    A grid point's row i depends only on the k-1 axes of that row's
    off-diagonals, so the rows are enumerated once per pass.  The checks are
    the parts of `_grid_feasible_mask` that read row i alone: a nonnegative
    diagonal that dominates its row, and each entry against itself in the
    privacy ratio.  The diagonal is computed as there, so comparisons match
    bit for bit.
    """
    grids = np.meshgrid(*axes[i * (k - 1) : (i + 1) * (k - 1)], indexing="ij")
    rows = np.zeros((grids[0].size, k))
    rows[:, [j for j in range(k) if j != i]] = np.stack(
        [g.ravel() for g in grids], axis=1
    )
    rows[:, i] = 1.0 - rows.sum(axis=1)
    diag = rows[:, i]
    ok = diag >= -tol
    ok &= np.all(diag[:, None] >= rows - tol, axis=1)
    ok &= np.all(rows <= ee * rows + tol, axis=1)
    return rows[ok]


def _grid_row_pair(ra: np.ndarray, rb: np.ndarray, a: int, b: int, ee, tol):
    """Which pairs of rows a and b can sit in one feasible matrix.

    These are the column checks of `_grid_feasible_mask` between two rows:
    each column's diagonal dominates the other row's entry, and every
    column's entries stay within a factor e^epsilon of each other.  The
    column ratio check holds for a whole column exactly when it holds for
    every ordered pair of its entries, since x -> ee * x + tol is monotone in
    floating point, so checking pairs changes no outcome.
    """
    A = ra[:, None, :]
    B = rb[None, :, :]
    ok = B[:, :, b] >= A[:, :, b] - tol
    ok &= A[:, :, a] >= B[:, :, a] - tol
    ok &= np.all(A <= ee * B + tol, axis=2)
    ok &= np.all(B <= ee * A + tol, axis=2)
    return ok


def _grid_best(
    axes: list[np.ndarray], dist, ee: float, zeta: float, tol: float, chunk: int
):
    """Best feasible grid point of one pass, the first in grid order on ties.

    Feasibility is `_grid_feasible_mask`, split by the rows each check reads:
    row-local checks filter each row's candidates, pairwise column checks
    give one boolean table per pair of rows, and only the grid points that
    every table allows are built as matrices for the utility check and the
    objective.  The grid is walked in blocks of the first row's candidates,
    so the flat order, and with it the tie-break, is that of the full grid.
    """
    k = dist.k
    rows = [_grid_rows(axes, i, k, ee, tol) for i in range(k)]
    if any(r.shape[0] == 0 for r in rows):
        return None, math.inf
    pairs = {
        (a, b): _grid_row_pair(rows[a], rows[b], a, b, ee, tol)
        for a in range(k)
        for b in range(a + 1, k)
    }
    tail = int(np.prod([r.shape[0] for r in rows[1:]]))
    step = max(1, chunk // tail)
    off = [(i, j) for i in range(k) for j in range(k) if i != j]
    best_x, best_val = None, math.inf
    for start in range(0, rows[0].shape[0], step):
        stop = min(start + step, rows[0].shape[0])
        valid = np.ones((stop - start,) + tuple(r.shape[0] for r in rows[1:]), bool)
        for (a, b), table in pairs.items():
            if a == 0:
                table = table[start:stop]
            shape = [1] * k
            shape[a], shape[b] = table.shape
            valid &= table.reshape(shape)
        idx = np.nonzero(valid)
        if idx[0].size == 0:
            continue
        Q = np.stack(
            [rows[0][idx[0] + start]] + [rows[i][idx[i]] for i in range(1, k)], axis=1
        )
        diag = Q[:, np.arange(k), np.arange(k)]
        Q = Q[(diag @ dist.group_probs) >= 1.0 - zeta - tol]
        if Q.shape[0] == 0:
            continue
        vals = _grid_objective(Q, dist)
        pick = int(np.argmin(vals))
        if vals[pick] < best_val:
            best_val = float(vals[pick])
            best_x = np.array([Q[pick, i, j] for i, j in off])
    return best_x, best_val


def _grid_least_violation(
    axes: list[np.ndarray], dist, ee: float, zeta: float, chunk: int
):
    """Least-violating grid point of one pass, the first in grid order on ties."""
    k = dist.k
    n = len(axes)
    shape = tuple(ax.size for ax in axes)
    total = int(np.prod(shape))
    best_x, best_viol = None, math.inf
    for start in range(0, total, chunk):
        digits = np.unravel_index(np.arange(start, min(start + chunk, total)), shape)
        cand = np.stack([axes[m][digits[m]] for m in range(n)], axis=1)
        Q = np.zeros((cand.shape[0], k, k))
        for i in range(k):
            for j in range(k):
                if i != j:
                    Q[:, i, j] = cand[:, var_index(i, j, k)]
            Q[:, i, i] = 1.0 - Q[:, i].sum(axis=1)
        viol = _violation_score(Q, dist, ee, zeta)
        pick = int(np.argmin(viol))
        if viol[pick] < best_viol:
            best_viol = float(viol[pick])
            best_x = cand[pick]
    return best_x, best_viol


def _grid_objective(Q: np.ndarray, dist) -> np.ndarray:
    weights = dist.group_probs * dist.pos_rates
    group_mass = np.einsum("i,nij->nj", dist.group_probs, Q)
    pos_mass = np.einsum("i,nij->nj", weights, Q)
    ratios = pos_mass / (dist.pos_marginal * group_mass)
    return np.abs(ratios - 1.0).max(axis=1)


def brute_force_opt_k(
    dist: JointDistribution, cfg: SolverConfig, grid_steps: int, passes: int = 12
) -> tuple[np.ndarray, float]:
    """Zooming grid search over raw off-diagonal entries; oracle for the solver.

    Evaluates every grid point of the off-diagonal box, keeps the best point
    passing direct constraint checks, then shrinks the box around it and
    repeats.  Zooming is sound here because the disparity objective has convex
    sublevel sets on the (convex) feasible region.  While no feasible point
    has been seen the box shrinks around the least-violating point instead.

    The first pass joins the uniform grid with geometric points anchored at
    exp(-epsilon): at tight budgets the feasible off-diagonals live in windows
    of that scale near the privacy-tight boundary, which a uniform grid
    straddles entirely until its cells are far finer than the zoom ever
    reaches from a bad start.  Refinement passes likewise splice in the
    privacy floor of each column diagonal, estimated from the current center,
    so privacy-tight coordinates snap to their boundary instead of hoping a
    uniform cell lands on it.  After the first descent the whole zoom runs
    once more from a medium-width box around the incumbent: floor anchors
    computed from a good center can pull coordinates the first descent
    committed wrongly while its center was still poor.  Extra candidate
    values never cost soundness: every point still has to pass the direct
    constraint checks.
    """
    k = dist.k
    n = k * (k - 1)
    if k > 3:
        raise TooLarge(f"grid oracle supports k <= 3, got k={k}")
    if grid_steps > 25:
        raise TooLarge(f"grid oracle supports at most 25 steps, got {grid_steps}")
    if grid_steps < 2:
        raise ValueError("grid_steps must be at least 2")
    if passes < 1:
        raise ValueError("passes must be at least 1")

    ee = math.exp(cfg.epsilon)
    tol = 1e-9
    chunk = 200_000
    # never shrink past two grid cells of margin around the zoom center, so a
    # best point displaced by constraint filtering cannot push the true
    # optimum outside the next box
    shrink = max(0.5, 4.0 / (grid_steps - 1))
    seed_axis = np.unique(
        np.concatenate(
            [
                np.linspace(0.0, 1.0, grid_steps),
                np.geomspace(max(1.0 / ee / 2.0, 1e-6), 1.0, 7),
            ]
        )
    )
    best_x = None
    best_val = math.inf
    fallback_x = None
    fallback_viol = math.inf
    center = None
    for descent in range(2):
        if descent == 0:
            lo = np.zeros(n)
            hi = np.ones(n)
        else:
            if best_x is None:
                break
            center = best_x
            lo = np.clip(center - 0.175, 0.0, 1.0)
            hi = np.clip(center + 0.175, 0.0, 1.0)
        for p in range(passes):
            if descent == 0 and p == 0:
                axes = [seed_axis for _ in range(n)]
            else:
                axes = [np.linspace(lo[m], hi[m], grid_steps) for m in range(n)]
                diag = np.array(
                    [
                        1.0
                        - sum(
                            center[var_index(j, c, k)] for c in range(k) if c != j
                        )
                        for j in range(k)
                    ]
                )
                for m in range(n):
                    r = m % (k - 1)
                    j = r if r < m // (k - 1) else r + 1
                    extra = np.array([diag[j] / ee, diag[j], center[m], 1.0 / k])
                    ax = np.concatenate([axes[m], extra])
                    axes[m] = np.unique(ax[(ax >= lo[m]) & (ax <= hi[m])])
            pass_best_x, pass_best_val = _grid_best(
                axes, dist, ee, cfg.zeta, tol, chunk
            )
            if pass_best_x is None and best_x is None:
                x, viol = _grid_least_violation(axes, dist, ee, cfg.zeta, chunk)
                if viol < fallback_viol:
                    fallback_viol = viol
                    fallback_x = x
            if pass_best_val < best_val:
                best_val = pass_best_val
                best_x = pass_best_x
            center = best_x if best_x is not None else fallback_x
            width = (hi - lo) * shrink
            lo = np.clip(center - width / 2.0, 0.0, 1.0)
            hi = np.clip(center + width / 2.0, 0.0, 1.0)

    if best_x is None:
        raise InfeasibleBudget(cfg.epsilon, cfg.zeta)
    return matrix_from_vars(best_x, k), best_val


def _violation_score(Q: np.ndarray, dist, ee: float, zeta: float) -> np.ndarray:
    k = dist.k
    diag = Q[:, np.arange(k), np.arange(k)]
    score = np.clip(-diag, 0.0, None).sum(axis=1)
    score += np.clip(Q - diag[:, :, None], 0.0, None).sum(axis=(1, 2))
    score += np.clip(Q - diag[:, None, :], 0.0, None).sum(axis=(1, 2))
    score += np.clip(Q.max(axis=1) - ee * Q.min(axis=1), 0.0, None).sum(axis=1)
    score += np.clip(1.0 - zeta - diag @ dist.group_probs, 0.0, None)
    return score
