"""Disparity-minimizing k-ary mechanism design by a Dinkelbach iteration over LPs.

The design problem minimizes the worst per-output relative disparity of the
released attribute subject to privacy, truthfulness, and utility constraints.
Every constraint is linear in the off-diagonal mechanism entries, and the
disparity is a max of ratios of affine functions with positive denominators,
so a generalized Dinkelbach iteration (Dinkelbach 1967; Crouzeix, Ferland &
Schaible 1985) finds the optimum with one LP per step.  The LPs of one
design differ only in their fairness rows and cost, so they share one HiGHS
model (`DesignLp`): the static rows go in once, each later LP edits the
model in place, and HiGHS starts it from the previous LP's basis.  HiGHS
holds the rows equilibrated and is reached through the bindings bundled with
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


def _equilibrated(A: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # every row scaled to a largest coefficient of 1, so HiGHS's tolerances
    # mean the same on the privacy rows (coefficients up to e^epsilon) as on
    # the fairness rows (coefficients of order 1/k)
    scale = np.abs(A).max(axis=1)
    scale[scale == 0.0] = 1.0
    return A / scale[:, None], b / scale


class DesignLp:
    """One HiGHS model that every LP of a design runs on, edited between runs.

    Its rows are the static system over the `n` mechanism entries (free
    columns), passed once.  The first `set_fairness` adds a column s, fixed
    at 0 until `set_cost` frees it, and the fairness rows over the entries
    and s; each later call replaces those rows.  HiGHS holds every row
    equilibrated; `satisfied` checks a point against the rows as given.
    Every edit keeps HiGHS's basis (a replaced row takes over its
    predecessor's status), so each run after the first starts warm from the
    previous run's basis.
    """

    def __init__(self, static: LinearConstraintSystem):
        self.n = static.num_vars
        self.static = static
        self.fairness: LinearConstraintSystem | None = None
        self.warm = False
        self.highs = _Highs()
        self.highs.passOptions(HIGHS_OPTIONS)
        A, self.b = _equilibrated(static.A, static.b)
        free = np.full(self.n, kHighsInf)
        self.rejected = HighsStatus.kError in (
            self.highs.addVars(self.n, -free, free),
            self._add_rows(A, self.b),
        )

    def _add_rows(self, A: np.ndarray, b: np.ndarray) -> HighsStatus:
        rows, cols = np.nonzero(A)
        start = np.searchsorted(rows, np.arange(A.shape[0]))
        return self.highs.addRows(
            A.shape[0], np.full(b.size, -kHighsInf), b, rows.size, start, cols, A[rows, cols]
        )

    def set_fairness(self, rows: LinearConstraintSystem, s_coef: np.ndarray) -> None:
        """Make `rows`, with s_coef in the s column, the model's fairness rows."""
        rows = LinearConstraintSystem(
            np.hstack([rows.A, s_coef[:, None]]), rows.b, rows.labels
        )
        A, b = _equilibrated(rows.A, rows.b)
        if self.fairness is None:
            self.rejected |= HighsStatus.kError in (
                self.highs.addVars(1, np.zeros(1), np.zeros(1)),
                self._add_rows(A, b),
            )
            self.b = np.concatenate([self.b, b])
        else:
            # the new rows go last, where the old ones were, so the basis
            # HiGHS had still fits
            basis = self.highs.getBasis()
            first = self.static.A.shape[0]
            self.rejected |= HighsStatus.kError in (
                self.highs.deleteRows(b.size, np.arange(first, first + b.size)),
                self._add_rows(A, b),
                self.highs.setBasis(basis) if basis.valid else HighsStatus.kOk,
            )
            self.b[first:] = b
        self.fairness = rows

    def set_cost(self, cost: np.ndarray, s_cost: float | None = None) -> None:
        """Minimize cost over the entries, plus s_cost s with s free once s
        exists; s_cost None fixes s at 0 again."""
        statuses = [self.highs.changeColsCost(self.n, np.arange(self.n), cost)]
        if self.fairness is not None:
            bound = 0.0 if s_cost is None else kHighsInf
            statuses += [
                self.highs.changeColCost(self.n, s_cost or 0.0),
                self.highs.changeColBounds(self.n, -bound, bound),
            ]
        self.rejected |= HighsStatus.kError in statuses

    def satisfied(self, x: np.ndarray, tol: float) -> bool:
        """Whether x (the entries, then s once it exists) meets every row as
        given within tol."""
        return self.static.satisfied(x[: self.n], tol) and (
            self.fairness is None or self.fairness.satisfied(x, tol)
        )

    def dense(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, list]:
        """The LP HiGHS holds now, as `scipy.optimize.linprog`'s (c, A_ub,
        b_ub, bounds); every row's lower bound is -inf."""
        lp = self.highs.getLp()
        matrix = lp.a_matrix_
        counts = np.diff(matrix.start_)
        # the index and value arrays can run past the last start
        nnz = matrix.start_[-1]
        inner = np.asarray(matrix.index_[:nnz])
        outer = np.repeat(np.arange(counts.size), counts)
        rows, cols = (
            (inner, outer)
            if matrix.format_ == MatrixFormat.kColwise
            else (outer, inner)
        )
        A = np.zeros((lp.num_row_, lp.num_col_))
        A[rows, cols] = matrix.value_[:nnz]
        bounds = list(zip(lp.col_lower_, lp.col_upper_))
        return np.array(lp.col_cost_), A, np.array(lp.row_upper_), bounds


@dataclass
class LpResult:
    """One LP's outcome in `scipy.optimize.linprog`'s status codes.

    status 0 optimal, 1 iteration or time limit, 2 infeasible, 3 unbounded,
    4 numerical difficulty, a model HiGHS rejects, or any other HiGHS
    status; x (every column of the model) and fun are None unless HiGHS
    reported an optimum.
    """

    status: int
    message: str
    x: np.ndarray | None = None
    fun: float | None = None


def _run_highs(model: DesignLp) -> LpResult:
    """One HiGHS run of the model's current LP, checked as linprog checks it."""
    highs = model.highs
    if model.rejected:
        model_status, ran = HighsModelStatus.kModelError, False
    else:
        ran = highs.run() != HighsStatus.kError
        model_status = highs.getModelStatus()
        model.warm = True
    message = highs.modelStatusToString(model_status)
    x = fun = None
    if ran and model_status == HighsModelStatus.kOptimal:
        solution = highs.getSolution()
        x = np.array(solution.col_value)
        fun = highs.getInfo().objective_function_value
        slack = model.b - np.array(solution.row_value)
    elif ran:
        primal = highs.solutionStatusToString(highs.getInfo().primal_solution_status)
        message = f"model_status is {message}; primal_status is {primal}"
    status, message = _highs_to_scipy_status_message(model_status, message)
    if model_status == HighsModelStatus.kModelError:
        status = 4
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


def linprog(model: DesignLp) -> LpResult:
    """Minimize the model's current LP on its HiGHS instance.

    A model's first run is cold and gives what `scipy.optimize.linprog(c,
    A_ub=A_ub, b_ub=b_ub, bounds=bounds, method="highs", options=...)`
    gives for `model.dense()` with both feasibility tolerances at 1e-10,
    without that wrapper's input cleaning, option checks and result fields.
    Later runs start from the previous run's basis and may reach another
    optimal vertex than a cold solve of the same LP; one that ends neither
    optimal nor infeasible runs once more from a cleared solver, within
    this call.

    An optimum whose x or fun is NaN, or whose slack on the equilibrated
    rows falls below -sqrt(1e-9) * 10, is downgraded to status 4, as
    linprog's own result check does.  Unlike linprog, a model HiGHS rejects
    (an `addRows` or edit error, or `kModelError`) is status 4, not 2:
    HiGHS said nothing about feasibility.

    Benchmark tracers and tests replace `kary_design.linprog` by name and
    count one LP per call.
    """
    warm = model.warm
    res = _run_highs(model)
    if warm and res.status not in (0, 2):
        model.highs.clearSolver()
        res = _run_highs(model)
    return res


def _checked_point(
    res, model: DesignLp, tol: float, stage: str, t, problem: dict
) -> np.ndarray:
    """The LP's point, or a NumericalFailure saying where the LP failed."""
    if res.status != 0:
        reason = f"{stage} ended with status {res.status}"
        if t is not None:
            reason += f" at t={t}"
    elif not model.satisfied(res.x, tol):
        reason = f"{stage} returned a point violating its own system"
    else:
        return np.asarray(res.x)
    raise NumericalFailure(
        reason, stage=stage, t=t, status=res.status, message=res.message, **problem
    )


def _feasible_point(model: DesignLp, tol: float, t, problem: dict) -> np.ndarray | None:
    """A point meeting the model's rows, or None if HiGHS finds none."""
    res = linprog(model)
    if res.status == 2:
        return None
    return _checked_point(res, model, tol, "feasibility solve", t, problem)


def lp_feasible(
    system: LinearConstraintSystem, tol: float = 1e-9, *, t=None, **problem
) -> FeasiblePoint | Infeasible:
    """Find any point satisfying every row within tol, or certify none exists.

    `t` and `problem` (k, epsilon, zeta) only label a NumericalFailure.
    """
    x = _feasible_point(DesignLp(system), tol, t, problem)
    return Infeasible() if x is None else FeasiblePoint(x)


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
    smallest expected reporting error.  Every LP runs on one `DesignLp`.  The
    certificate records each step's (t, s) and the labeled slacks of the
    returned point.
    """
    try:
        return _dinkelbach_design(dist, cfg)
    except SolverError as err:
        # the solver's frames hold the design's constraint matrices and its
        # HiGHS model; a caller that keeps the error would keep them alive
        raise err.with_traceback(None)


def _dinkelbach_design(dist: JointDistribution, cfg: SolverConfig) -> KaryDesignResult:
    problem = {"k": dist.k, "epsilon": cfg.epsilon, "zeta": cfg.zeta}
    tol = cfg.feasibility_tol
    static = assemble_constraints(dist, cfg)
    model = DesignLp(static)
    start = _feasible_point(model, tol, None, problem)
    if start is None:
        raise InfeasibleBudget(cfg.epsilon, cfg.zeta)

    no_s = np.zeros(2 * dist.k)
    model.set_fairness(fairness_rows_at(dist, 0.0), no_s)
    if _feasible_point(model, tol, 0.0, problem) is not None:
        t_star = 0.0
        trace = [(0.0, 0.0)]
    else:
        t_star, trace = _dinkelbach_steps(dist, cfg, model, start, problem)

    final = fairness_rows_at(dist, t_star)
    model.set_fairness(final, no_s)
    model.set_cost(_utility_objective(dist))
    res = linprog(model)
    x = _checked_point(res, model, tol, "utility refinement", t_star, problem)[:-1]

    Q = MechanismMatrix(dist.k, matrix_from_vars(x, dist.k))
    objective = delta(induced_distribution(dist, Q))
    certificate = Certificate(
        iterations=trace, slacks={**static.slacks(x), **final.slacks(x)}
    )
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
    model: DesignLp,
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
    model.set_cost(np.zeros(x.size), s_cost=1.0)

    def disparity(point: np.ndarray) -> tuple[float, np.ndarray]:
        g = db - dA @ point
        return float(np.max((zero.A @ point - zero.b) / g)), g

    t, g = disparity(x)
    trace: list[tuple[float, float]] = []
    for _ in range(cfg.max_bisection_iters):
        rows = LinearConstraintSystem(zero.A + t * dA, zero.b + t * db, zero.labels)
        model.set_fairness(rows, -g)
        res = linprog(model)
        xs = _checked_point(
            res, model, cfg.feasibility_tol, "Dinkelbach step", t, problem
        )
        trace.append((t, float(xs[-1])))
        if xs[-1] >= -0.1 * cfg.objective_tol:
            break
        t, g = disparity(xs[:-1])
    return t, trace


def min_achievable_error(dist: JointDistribution, epsilon: float) -> float:
    """Smallest expected reporting error any compliant mechanism allows.

    Minimizes the utility-row left side over the static system without the
    utility row itself, on a model of its own; error budgets below this
    value are unsatisfiable at the given privacy level.
    """
    cfg = SolverConfig(epsilon=epsilon, zeta=1.0)
    static = assemble_constraints(dist, cfg)
    # the utility row is the last one
    model = DesignLp(
        LinearConstraintSystem(static.A[:-1], static.b[:-1], static.labels[:-1])
    )
    model.set_cost(_utility_objective(dist))
    res = linprog(model)
    problem = {"k": dist.k, "epsilon": epsilon, "zeta": None}
    _checked_point(res, model, cfg.feasibility_tol, "error minimization", None, problem)
    return float(res.fun)
