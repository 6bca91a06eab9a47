"""Disparity-minimizing k-ary mechanism design by a Dinkelbach iteration over LPs.

The design problem minimizes the worst per-output relative disparity of the
released attribute subject to privacy, truthfulness, and utility constraints.
Every constraint is linear in the off-diagonal mechanism entries, and the
disparity is a max of ratios of affine functions with positive denominators,
so a generalized Dinkelbach iteration (Dinkelbach 1967; Crouzeix, Ferland &
Schaible 1985) finds the optimum with one LP per step.  Every LP goes to
HiGHS with its rows equilibrated, through the HiGHS bindings bundled with
scipy (`scipy.optimize._highspy`, scipy >= 1.15) rather than through
`scipy.optimize.linprog`'s wrapper; results are checked against the unscaled
rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize._highspy._core import (
    HighsDebugLevel,
    HighsLp,
    HighsModelStatus,
    HighsOptions,
    HighsStatus,
    MatrixFormat,
    _Highs,
    kHighsInf,
    simplex_constants,
)
from scipy.optimize._linprog_highs import _highs_to_scipy_status_message

from .distribution import JointDistribution, delta
from .errors import (
    ConfigError,
    InfeasibleBudget,
    NumericalFailure,
    SolverError,
    check_epsilon,
)
from .mechanisms import MechanismMatrix, induced_distribution

# the options linprog(method="highs") passes, with both tolerances at 1e-10
HIGHS_OPTIONS = HighsOptions()
HIGHS_OPTIONS.presolve = "on"
HIGHS_OPTIONS.simplex_strategy = simplex_constants.SimplexStrategy.kSimplexStrategyDual
HIGHS_OPTIONS.highs_debug_level = HighsDebugLevel.kHighsDebugLevelNone
HIGHS_OPTIONS.output_flag = False
HIGHS_OPTIONS.log_to_console = False
HIGHS_OPTIONS.primal_feasibility_tolerance = 1e-10
HIGHS_OPTIONS.dual_feasibility_tolerance = 1e-10

# linprog's default tol, as its result check widens it
_SLACK_TOL = math.sqrt(1e-9) * 10


@dataclass(frozen=True)
class SolverConfig:
    """Budgets and tolerances for the k-ary design solver.

    `max_bisection_iters` caps the Dinkelbach steps of `solve_opt_k`.
    """

    epsilon: float
    zeta: float
    objective_tol: float = 1e-6
    feasibility_tol: float = 1e-9
    max_bisection_iters: int = 60

    def __post_init__(self):
        check_epsilon(self.epsilon)
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
        if not (np.all(np.isfinite(self.A)) and np.all(np.isfinite(self.b))):
            raise ValueError("constraint coefficients and bounds must be finite")

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
    """Dinkelbach trace plus labeled constraint slacks at the returned point.

    `iterations` holds one (t, s) pair per Dinkelbach step: the disparity
    target t the step's LP ran at, and that LP's optimum s, how far below t
    the best feasible point brings every per-output ratio, measured against
    the previous point's denominators (s < 0: some point beats t).  The t
    strictly decrease and the last s is at least -objective_tol / 10,
    unless `max_bisection_iters` cut the iteration short.  A design whose
    t = 0 probe is feasible records the single pair (0.0, 0.0) and made no
    step.  A design makes 3 + len(iterations) LP solves, or 3 in that case.
    """

    iterations: list[tuple[float, float]]
    slacks: dict[str, float]

    def to_json_dict(self) -> dict:
        return {
            "iterations": [[t, s] for t, s in self.iterations],
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


@dataclass
class LpResult:
    """One LP's outcome in `scipy.optimize.linprog`'s status codes.

    status 0 optimal, 1 iteration or time limit, 2 infeasible, 3 unbounded,
    4 numerical difficulty or any other HiGHS status; x and fun are None
    unless HiGHS reported an optimum.
    """

    status: int
    message: str
    x: np.ndarray | None = None
    fun: float | None = None


def linprog(c: np.ndarray, *, A_ub: np.ndarray, b_ub: np.ndarray) -> LpResult:
    """Minimize c x subject to A_ub x <= b_ub over free x, on a fresh HiGHS.

    Gives what `scipy.optimize.linprog(c, A_ub=A_ub, b_ub=b_ub,
    bounds=(None, None), method="highs", options=...)` gives with both
    feasibility tolerances at 1e-10, without that wrapper's input cleaning,
    option checks and result fields.  An optimum whose x or fun is NaN, or
    whose slack falls below -sqrt(1e-9) * 10, is downgraded to status 4, as
    linprog's own result check does.  Each call gets a new HiGHS instance:
    one reused across calls could warm-start from the previous basis and
    return a different optimal vertex.

    The name and the keywords are linprog's on purpose: benchmark tracers
    and tests replace `kary_design.linprog` by name and read `b_ub`.
    """
    num_row, num_col = A_ub.shape
    # column-wise nonzeros; lists cross into HiGHS faster than arrays do
    cols, rows = np.nonzero(A_ub.T)
    lp = HighsLp()
    lp.num_col_ = num_col
    lp.num_row_ = num_row
    lp.col_cost_ = c.tolist()
    lp.col_lower_ = [-kHighsInf] * num_col
    lp.col_upper_ = [kHighsInf] * num_col
    lp.row_lower_ = [-kHighsInf] * num_row
    lp.row_upper_ = b_ub.tolist()
    lp.a_matrix_.format_ = MatrixFormat.kColwise
    lp.a_matrix_.num_col_ = num_col
    lp.a_matrix_.num_row_ = num_row
    lp.a_matrix_.start_ = np.searchsorted(cols, np.arange(num_col + 1)).tolist()
    lp.a_matrix_.index_ = rows.tolist()
    lp.a_matrix_.value_ = A_ub.T[cols, rows].tolist()

    highs = _Highs()
    highs.passOptions(HIGHS_OPTIONS)
    if highs.passModel(lp) == HighsStatus.kError:
        model_status, ran = HighsModelStatus.kModelError, False
    else:
        ran = highs.run() != HighsStatus.kError
        model_status = highs.getModelStatus()
    message = highs.modelStatusToString(model_status)
    x = fun = None
    if ran and model_status == HighsModelStatus.kOptimal:
        solution = highs.getSolution()
        x = np.array(solution.col_value)
        fun = highs.getInfo().objective_function_value
        slack = b_ub - np.array(solution.row_value)
    elif ran:
        primal = highs.solutionStatusToString(highs.getInfo().primal_solution_status)
        message = f"model_status is {message}; primal_status is {primal}"
    status, message = _highs_to_scipy_status_message(model_status, message)
    if status == 0 and (
        x is None
        or np.isnan(x).any()
        or math.isnan(fun)
        or np.isnan(slack).any()
        or (slack < -_SLACK_TOL).any()
    ):
        status = 4
        message = (
            "The solution does not satisfy the constraints within the "
            f"required tolerance of {_SLACK_TOL:.2E}."
        )
    return LpResult(status, message, x, fun)


def _run_lp(system: LinearConstraintSystem, objective: np.ndarray):
    # equilibrate: every row scaled to a largest coefficient of 1, so HiGHS's
    # tolerances mean the same on the privacy rows (coefficients up to
    # e^epsilon) as on the fairness rows (coefficients of order 1/k)
    scale = np.abs(system.A).max(axis=1)
    scale[scale == 0.0] = 1.0
    return linprog(objective, A_ub=system.A / scale[:, None], b_ub=system.b / scale)


def _checked_point(
    res, system: LinearConstraintSystem, tol: float, stage: str, t, problem: dict
) -> np.ndarray:
    """The LP's point, or a NumericalFailure saying where the LP failed."""
    if res.status != 0:
        reason = f"{stage} ended with status {res.status}"
        if t is not None:
            reason += f" at t={t}"
    elif not system.satisfied(res.x, tol):
        reason = f"{stage} returned a point violating its own system"
    else:
        return np.asarray(res.x)
    raise NumericalFailure(
        reason, stage=stage, t=t, status=res.status, message=res.message, **problem
    )


def lp_feasible(
    system: LinearConstraintSystem, tol: float = 1e-9, *, t=None, **problem
) -> FeasiblePoint | Infeasible:
    """Find any point satisfying every row within tol, or certify none exists.

    `t` and `problem` (k, epsilon, zeta) only label a NumericalFailure.
    """
    res = _run_lp(system, np.zeros(system.num_vars))
    if res.status == 2:
        return Infeasible()
    return FeasiblePoint(
        _checked_point(res, system, tol, "feasibility solve", t, problem)
    )


def _utility_objective(dist: JointDistribution) -> np.ndarray:
    return dist.group_probs[_off_diagonal(dist.k)[0]]


def solve_opt_k(dist: JointDistribution, cfg: SolverConfig) -> KaryDesignResult:
    """Minimize the worst per-output disparity subject to the static system.

    The disparity is a max of ratios f_r(x) / g_r(x) of affine functions with
    positive denominators, so a generalized Dinkelbach iteration finds its
    minimum (Crouzeix, Ferland & Schaible 1985).  After a probe at t = 0,
    t starts at the disparity of a feasible point.  Each step solves one LP
    in (x, s): minimize s subject to the static rows and
    f_r(x) - t g_r(x) <= s g_r(x_prev), with x_prev the previous point.
    Once s >= -objective_tol / 10 no point beats t by more than that, so t
    is optimal to within it; else t drops to the disparity of the new point
    and the step repeats, at most `max_bisection_iters` times.  Among
    mechanisms optimal at the final t, a last LP picks the one with the
    smallest expected reporting error.  The certificate records each step's
    (t, s) and the labeled slacks of the returned point.
    """
    try:
        return _dinkelbach_design(dist, cfg)
    except SolverError as err:
        # the solver's frames hold every constraint matrix of the design; a
        # caller that keeps the error would keep them all alive
        raise err.with_traceback(None)


def _dinkelbach_design(dist: JointDistribution, cfg: SolverConfig) -> KaryDesignResult:
    problem = {"k": dist.k, "epsilon": cfg.epsilon, "zeta": cfg.zeta}
    tol = cfg.feasibility_tol
    static = assemble_constraints(dist, cfg)
    start = lp_feasible(static, tol, **problem)
    if isinstance(start, Infeasible):
        raise InfeasibleBudget(cfg.epsilon, cfg.zeta)

    at_zero = static.extended(fairness_rows_at(dist, 0.0))
    if isinstance(lp_feasible(at_zero, tol, t=0.0, **problem), FeasiblePoint):
        t_star = 0.0
        trace = [(0.0, 0.0)]
    else:
        t_star, trace = _dinkelbach_steps(dist, cfg, static, start.x, problem)

    final_system = static.extended(fairness_rows_at(dist, t_star))
    res = _run_lp(final_system, _utility_objective(dist))
    x = _checked_point(res, final_system, tol, "utility refinement", t_star, problem)

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


def _dinkelbach_steps(
    dist: JointDistribution,
    cfg: SolverConfig,
    static: LinearConstraintSystem,
    x: np.ndarray,
    problem: dict,
) -> tuple[float, list[tuple[float, float]]]:
    """Optimal disparity from the feasible point x, with each step's (t, s)."""
    # the fairness rows at t are A0 x - b0 - t (db - dA x) <= 0: row r's
    # signed disparity f_r(x) = A0 x - b0 against its denominator
    # g_r(x) = db - dA x, the released group mass at its output times P(Y=1)
    zero = fairness_rows_at(dist, 0.0)
    one = fairness_rows_at(dist, 1.0)
    dA = one.A - zero.A
    db = one.b - zero.b
    with_s = LinearConstraintSystem(
        np.hstack([static.A, np.zeros((static.A.shape[0], 1))]),
        static.b,
        static.labels,
    )
    objective = np.zeros(with_s.num_vars)
    objective[-1] = 1.0

    def disparity(point: np.ndarray) -> tuple[float, np.ndarray]:
        g = db - dA @ point
        return float(np.max((zero.A @ point - zero.b) / g)), g

    t, g = disparity(x)
    trace: list[tuple[float, float]] = []
    for _ in range(cfg.max_bisection_iters):
        system = with_s.extended(
            LinearConstraintSystem(
                np.hstack([zero.A + t * dA, -g[:, None]]),
                zero.b + t * db,
                zero.labels,
            )
        )
        res = _run_lp(system, objective)
        xs = _checked_point(
            res, system, cfg.feasibility_tol, "Dinkelbach step", t, problem
        )
        trace.append((t, float(xs[-1])))
        if xs[-1] >= -0.1 * cfg.objective_tol:
            break
        t, g = disparity(xs[:-1])
    return t, trace


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
    problem = {"k": dist.k, "epsilon": epsilon, "zeta": None}
    _checked_point(res, trimmed, cfg.feasibility_tol, "error minimization", None, problem)
    return float(res.fun)
