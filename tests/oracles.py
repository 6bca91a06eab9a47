"""Brute-force oracles the tests check the package's designs against.

`boundary_oracle` re-derives the closed-form binary design by a grid search
over the privacy-tight boundary curves.  `brute_force_opt_k` re-derives the
k-ary design (k <= 3) by a zooming grid search over the raw matrix entries.
`all_entries_feasible` asks an LP over all k^2 entries, written without the
package's constraint encoding, whether a compliant matrix reaches a given
disparity.  None of them shares code with the solver it checks beyond
`var_index`/`matrix_from_vars` and the binary objective formula.
`scipy_linprog` solves one design LP cold through `scipy.optimize.linprog`,
the wrapper the package's own HiGHS calls replace.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.optimize import linprog

from fairldp.binary_design import _ratio_core, _require_binary
from fairldp.distribution import JointDistribution, delta_prime
from fairldp.errors import ConfigError, InfeasibleBudget, InvalidEpsilon, ZeroBaseUnfairness
from fairldp.kary_design import SolverConfig, matrix_from_vars, var_index


class TooLarge(ConfigError):
    """A brute-force limit (alphabet size or grid resolution) was exceeded."""


def boundary_oracle(
    dist: JointDistribution, epsilon: float, grid_n: int
) -> tuple[float, float, float]:
    """Brute-force argmin of the disparity ratio over the privacy boundary.

    Evaluates grid_n points on each of the two curves where the privacy
    constraint is tight (p = e^eps (1-q) and q = e^eps (1-p), clipped to
    [1/2, 1]^2) and returns (p, q, objective) for the best point.  Ties are
    broken lexicographically on (p, q) so the result is deterministic.
    """
    _require_binary(dist)
    if not math.isfinite(epsilon) or epsilon <= 0.0:
        raise InvalidEpsilon(epsilon)
    if grid_n < 1000:
        raise ValueError(f"grid_n must be at least 1000, got {grid_n}")
    if delta_prime(dist) == 0.0:
        raise ZeroBaseUnfairness()
    p0, p1 = dist.group_probs
    em = math.exp(-epsilon)
    # both curves run from the symmetric point p = q = e^eps/(e^eps+1) to a
    # corner where one parameter is exactly 1/2; parameterizing by the free
    # coordinate avoids cancellation in e^eps (1 - t) for large epsilon
    ts = np.linspace(0.5, 1.0 / (1.0 + em), grid_n)
    mirrored = 1.0 - ts * em
    ps = np.concatenate([ts, mirrored])
    qs = np.concatenate([mirrored, ts])
    vals = _ratio_core(p0, p1, ps, qs)
    best = np.lexsort((qs, ps, vals))[0]
    return float(ps[best]), float(qs[best]), float(vals[best])


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


def all_entries_feasible(
    dist: JointDistribution, epsilon: float, zeta: float, t: float
) -> bool:
    """Whether a compliant matrix has every per-output disparity at most t.

    One LP over all k^2 entries of Q, row-major, with rows summing to one:
    q_ij <= e^eps q_i'j for every column j and rows i != i'; truthfulness
    q_ij <= q_ii and q_ij <= q_jj; expected error sum_i p_i (1 - q_ii) <=
    zeta; and, per output j, |N_j - P(Y=1) G_j| <= t P(Y=1) G_j, where N_j
    and G_j are the positive and total mass released at j.
    """
    k = dist.k
    p, r = dist.group_probs, dist.pos_rates
    py = float(p @ r)
    ee = math.exp(epsilon)
    rows, bounds = [], []

    def add(bound, *terms):
        row = np.zeros((k, k))
        for (i, j), coeff in terms:
            row[i, j] += coeff
        rows.append(row.ravel())
        bounds.append(bound)

    for j in range(k):
        for i in range(k):
            for i2 in range(k):
                if i2 != i:
                    add(0.0, ((i, j), 1.0), ((i2, j), -ee))
            if i != j:
                add(0.0, ((i, j), 1.0), ((i, i), -1.0))
                add(0.0, ((i, j), 1.0), ((j, j), -1.0))
    add(zeta - 1.0, *(((i, i), -p[i]) for i in range(k)))
    for j in range(k):
        add(0.0, *(((i, j), p[i] * r[i] - (1.0 + t) * py * p[i]) for i in range(k)))
        add(0.0, *(((i, j), (1.0 - t) * py * p[i] - p[i] * r[i]) for i in range(k)))
    res = linprog(
        np.zeros(k * k),
        A_ub=np.array(rows),
        b_ub=np.array(bounds),
        A_eq=np.kron(np.eye(k), np.ones(k)),
        b_eq=np.ones(k),
        bounds=(0.0, 1.0),
        method="highs",
    )
    if res.status not in (0, 2):
        raise RuntimeError(f"all-entries LP ended with status {res.status}")
    return res.status == 0


def scipy_linprog(c, *, A_ub, b_ub, bounds=(None, None)):
    """A design LP through `scipy.optimize.linprog`'s HiGHS, solved cold.

    Free variables unless `bounds` says otherwise, both feasibility
    tolerances at 1e-10, as the design solver asked of linprog before it
    called HiGHS itself.  `kary_design.DesignLp.dense` gives a model's LP in
    this form.
    """
    return linprog(
        c,
        A_ub=A_ub,
        b_ub=b_ub,
        bounds=bounds,
        method="highs",
        options={
            "primal_feasibility_tolerance": 1e-10,
            "dual_feasibility_tolerance": 1e-10,
        },
    )
