"""Output checks computed apart from fairldp.

Every function here recomputes what the program should have produced from
first principles (closed forms, exact binomial tails, an LP built over all
k^2 matrix entries) and returns a list of failure messages; an empty list
means the output passed.  Nothing here imports fairldp.
"""

from __future__ import annotations

import csv
import math

import numpy as np
from scipy import stats
from scipy.optimize import linprog

# per-run false-alarm budget of the statistical checks, split evenly over
# every test a run makes
FALSE_ALARM = 1e-6
# sampling margin for accuracy against the Bayes rate, in standard errors
ACCURACY_Z = 6.0


# -- mechanisms -------------------------------------------------------------


def worst_column_ratio(Q: np.ndarray) -> float:
    """max over columns of max_i Q[i, j] / min_i Q[i, j] (inf on a zero)."""
    hi = Q.max(axis=0)
    lo = Q.min(axis=0)
    used = hi > 0.0
    if np.any(lo[used] <= 0.0):
        return math.inf
    return float(np.max(hi[used] / lo[used])) if used.any() else 1.0


def subset_closed_form(k: int, epsilon: float) -> tuple[int, float, float]:
    """(omega, p_true, p_off) of the subset mechanism at budget epsilon.

    omega is k / (e^eps + 1) rounded half up and kept in [1, k-1]; the truth
    is included with p_true = omega e^eps / (omega e^eps + k - omega), and,
    since every report has exactly omega members, each other value with
    p_off = (omega - p_true) / (k - 1).
    """
    e = math.exp(epsilon)
    omega = min(max(int(math.floor(k / (e + 1.0) + 0.5)), 1), k - 1)
    p_true = omega * e / (omega * e + k - omega)
    return omega, p_true, (omega - p_true) / (k - 1)


def subset_worst_ratio(k: int, omega: int, p_true: float) -> float:
    """Worst ratio of one subset's probability under two different truths.

    A subset holding the truth has probability p_true / C(k-1, omega-1), one
    without it (1 - p_true) / C(k-1, omega).
    """
    with_truth = p_true / math.comb(k - 1, omega - 1)
    without = (1.0 - p_true) / math.comb(k - 1, omega)
    return max(with_truth, without) / min(with_truth, without)


def check_ldp(Q: np.ndarray, epsilon: float, what: str) -> list[str]:
    ratio = worst_column_ratio(Q)
    if ratio > math.exp(epsilon) * (1.0 + 1e-9):
        return [f"{what}: worst column ratio {ratio!r} exceeds e^{epsilon}"]
    return []


def binomial_outliers(counts, trials, probs, alpha: float) -> list[tuple]:
    """Cells whose count is in either binomial tail beyond alpha / 2."""
    counts = np.asarray(counts)
    trials = np.broadcast_to(np.asarray(trials), counts.shape)
    probs = np.clip(np.asarray(probs, dtype=float), 0.0, 1.0)
    low = stats.binom.cdf(counts, trials, probs)
    high = stats.binom.sf(counts - 1, trials, probs)
    bad = np.minimum(low, high) < alpha / 2.0
    return [tuple(int(v) for v in idx) for idx in np.argwhere(bad)]


def check_matrix_release(
    truth: np.ndarray, released: np.ndarray, Q: np.ndarray, alpha: float
) -> list[str]:
    """Per true group, report shares must match that row of Q."""
    k = Q.shape[0]
    if released.shape != truth.shape:
        return [f"matrix release has {released.shape[0]} records, expected {truth.shape[0]}"]
    if released.min() < 0 or released.max() >= k:
        return ["matrix release has a report outside [0, k)"]
    counts = np.zeros((k, k), dtype=np.int64)
    np.add.at(counts, (truth, released), 1)
    n_group = counts.sum(axis=1, keepdims=True)
    return [
        f"matrix release: group {i} reported {j} {counts[i, j]} times of "
        f"{n_group[i, 0]}, expected share {Q[i, j]:.6f}"
        for i, j in binomial_outliers(counts, n_group, Q, alpha)
    ]


def check_subset_release(
    truth: np.ndarray,
    indicators: np.ndarray,
    omega: int,
    p_true: float,
    p_off: float,
    alpha: float,
) -> list[str]:
    """Each row fires exactly omega indicators, at p_true on the truth."""
    n, k = indicators.shape
    if n != truth.shape[0]:
        return [f"subset release has {n} records, expected {truth.shape[0]}"]
    if not np.isin(indicators, (0.0, 1.0)).all():
        return ["subset release has an indicator outside {0, 1}"]
    sizes = indicators.sum(axis=1)
    if np.any(sizes != omega):
        bad = int(np.argmax(sizes != omega))
        return [f"subset release: record {bad} fires {sizes[bad]} indicators, not {omega}"]
    counts = np.zeros((k, k), dtype=np.int64)
    np.add.at(counts, truth, indicators.astype(np.int64))
    n_group = np.bincount(truth, minlength=k)[:, None]
    probs = np.full((k, k), p_off)
    np.fill_diagonal(probs, p_true)
    return [
        f"subset release: group {i} fired indicator {j} {counts[i, j]} times of "
        f"{n_group[i, 0]}, expected rate {probs[i, j]:.6f}"
        for i, j in binomial_outliers(counts, n_group, probs, alpha)
    ]


def check_released_rates(
    truth: np.ndarray,
    labels: np.ndarray,
    released: np.ndarray,
    Q: np.ndarray,
    alpha: float,
) -> list[str]:
    """Released group positive rates against the input pushed through Q.

    Positives and negatives landing in report j are sums of independent
    Bernoulli draws over disjoint records; each is bounded at z standard
    deviations and the rate interval follows from the two bounds.
    """
    k = Q.shape[0]
    z = stats.norm.isf(alpha / 4.0)
    n_pos = np.bincount(truth[labels == 1], minlength=k).astype(float)
    n_neg = np.bincount(truth[labels == 0], minlength=k).astype(float)
    failures = []
    for j in range(k):
        pos_mean = float(n_pos @ Q[:, j])
        neg_mean = float(n_neg @ Q[:, j])
        pos_sd = math.sqrt(float(n_pos @ (Q[:, j] * (1.0 - Q[:, j]))))
        neg_sd = math.sqrt(float(n_neg @ (Q[:, j] * (1.0 - Q[:, j]))))
        pos_lo, pos_hi = max(pos_mean - z * pos_sd - 1, 0.0), pos_mean + z * pos_sd + 1
        neg_lo, neg_hi = max(neg_mean - z * neg_sd - 1, 0.0), neg_mean + z * neg_sd + 1
        in_j = released == j
        pos = float(np.sum(labels[in_j] == 1))
        total = float(np.sum(in_j))
        if total == 0.0:
            continue
        rate = pos / total
        lo = pos_lo / (pos_lo + neg_hi)
        hi = pos_hi / (pos_hi + neg_lo) if pos_hi + neg_lo > 0 else 1.0
        if not lo <= rate <= hi:
            failures.append(
                f"released positive rate of report {j} is {rate:.5f}, "
                f"outside [{lo:.5f}, {hi:.5f}] pushed through Q"
            )
    return failures


def read_csv_rows(path) -> tuple[list[str], list[list[str]], list[str]]:
    """(header, data rows, leading comment lines) of a CSV file."""
    comments, rows = [], []
    with open(path, newline="", encoding="utf-8") as fh:
        for row in csv.reader(fh):
            if row and row[0].startswith("#"):
                comments.append(",".join(row))
            elif row:
                rows.append(row)
    return rows[0], rows[1:], comments


def check_passthrough(
    in_path, out_path, sensitive: str, literals: list[str]
) -> list[str]:
    """Every column but the sensitive one is copied cell for cell."""
    header_in, rows_in, _ = read_csv_rows(in_path)
    header_out, rows_out, comments = read_csv_rows(out_path)
    if header_out != header_in:
        return [f"released header {header_out} differs from input {header_in}"]
    if len(rows_out) != len(rows_in):
        return [f"released file has {len(rows_out)} rows, input has {len(rows_in)}"]
    if not comments:
        return ["released file lacks its leading provenance comment"]
    s = header_in.index(sensitive)
    allowed = set(literals)
    for r, (a, b) in enumerate(zip(rows_in, rows_out)):
        if len(a) != len(b):
            return [f"row {r} has {len(b)} cells, input has {len(a)}"]
        if b[s] not in allowed:
            return [f"row {r} has sensitive literal {b[s]!r} outside the alphabet"]
        if a[:s] != b[:s] or a[s + 1 :] != b[s + 1 :]:
            return [f"row {r}: a cell outside the sensitive column changed"]
    return []


# -- design -----------------------------------------------------------------


def pushed_rates(
    group_probs: np.ndarray, pos_rates: np.ndarray, Q: np.ndarray
) -> tuple[np.ndarray, float]:
    """Positive rate per released value, and the positive marginal."""
    mass = group_probs @ Q
    pos = (group_probs * pos_rates) @ Q
    return pos / mass, float(group_probs @ pos_rates)


def relative_disparity(group_probs, pos_rates, Q) -> float:
    """max_j |rate_j / Pr(Y=1) - 1| of the data released through Q."""
    rates, marginal = pushed_rates(group_probs, pos_rates, Q)
    return float(np.max(np.abs(rates / marginal - 1.0)))


def grr(k: int, epsilon: float) -> np.ndarray:
    e = math.exp(epsilon)
    Q = np.full((k, k), 1.0 / (e + k - 1))
    np.fill_diagonal(Q, e / (e + k - 1))
    return Q


def check_kary_design(
    group_probs: np.ndarray,
    pos_rates: np.ndarray,
    epsilon: float,
    zeta: float,
    Q: np.ndarray,
    objective: float,
    tol: float = 1e-8,
) -> list[str]:
    """Validity of a designed k-ary matrix and of its reported objective."""
    k = Q.shape[0]
    failures = []
    if Q.shape != (k, k) or np.any(Q < -tol):
        failures.append("Q has a negative entry")
    if np.any(np.abs(Q.sum(axis=1) - 1.0) > 1e-9):
        failures.append(f"Q is not row-stochastic: row sums {Q.sum(axis=1)!r}")
    e = math.exp(epsilon)
    failures += check_ldp(Q, epsilon, "designed Q")
    diag = np.diag(Q)
    if np.any(Q > diag[:, None] + tol) or np.any(Q > diag[None, :] + tol):
        failures.append("Q breaks truthfulness: some q_ij exceeds q_ii or q_jj")
    error = float(group_probs @ (1.0 - diag))
    if error > zeta + tol:
        failures.append(f"expected reporting error {error!r} exceeds zeta {zeta!r}")
    mine = relative_disparity(group_probs, pos_rates, Q)
    if abs(mine - objective) > 1e-9:
        failures.append(f"reported objective {objective!r} but Q induces {mine!r}")
    grr_error = 1.0 - e / (e + k - 1)
    if grr_error <= zeta:
        baseline = relative_disparity(group_probs, pos_rates, grr(k, epsilon))
        if objective > baseline + 1e-6:
            failures.append(f"objective {objective!r} is worse than GRR's {baseline!r}")
    return failures


def _full_lp(group_probs, pos_rates, epsilon, zeta, t):
    """Constraint matrices over all k^2 entries of Q, row-major.

    Privacy q_ij <= e^eps q_i'j for every i, i', j; truthfulness
    q_ij <= q_ii and q_ij <= q_jj; rows summing to one; the utility row when
    zeta is given; the fairness rows |N_j - (1 +- t) Pr(Y=1) D_j| when t is.
    """
    k = group_probs.shape[0]
    e = math.exp(epsilon)

    def var(i, j):
        return i * k + j

    rows, bounds = [], []

    def add(entries):
        row = np.zeros(k * k)
        for idx, coeff in entries:
            row[idx] += coeff
        rows.append(row)
        bounds.append(0.0)

    for j in range(k):
        for i in range(k):
            for i2 in range(k):
                if i != i2:
                    add([(var(i, j), 1.0), (var(i2, j), -e)])
    for i in range(k):
        for j in range(k):
            if i != j:
                add([(var(i, j), 1.0), (var(i, i), -1.0)])
                add([(var(i, j), 1.0), (var(j, j), -1.0)])
    if zeta is not None:
        row = np.zeros(k * k)
        for i in range(k):
            row[var(i, i)] = -group_probs[i]
        rows.append(row)
        bounds.append(zeta - 1.0)
    if t is not None:
        marginal = float(group_probs @ pos_rates)
        for j in range(k):
            hi = np.zeros(k * k)
            lo = np.zeros(k * k)
            for i in range(k):
                w_pos = group_probs[i] * pos_rates[i]
                w_all = group_probs[i] * marginal
                hi[var(i, j)] = w_pos - (1.0 + t) * w_all
                lo[var(i, j)] = (1.0 - t) * w_all - w_pos
            rows.extend([hi, lo])
            bounds.extend([0.0, 0.0])
    a_eq = np.zeros((k, k * k))
    for i in range(k):
        a_eq[i, i * k : (i + 1) * k] = 1.0
    return np.array(rows), np.array(bounds), a_eq, np.ones(k)


def independent_min_error(group_probs, pos_rates, epsilon) -> float:
    """Smallest sum_i p_i (1 - q_ii) over private, truthful matrices."""
    k = group_probs.shape[0]
    a_ub, b_ub, a_eq, b_eq = _full_lp(group_probs, pos_rates, epsilon, None, None)
    cost = np.zeros(k * k)
    for i in range(k):
        cost[i * k + i] = -group_probs[i]
    res = linprog(cost, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq, bounds=(0, 1), method="highs")
    if res.status != 0:
        raise RuntimeError(f"independent error LP ended with status {res.status}")
    return 1.0 + float(res.fun)


def independent_beats(group_probs, pos_rates, epsilon, zeta, t) -> bool:
    """Whether some compliant matrix reaches disparity t or less."""
    a_ub, b_ub, a_eq, b_eq = _full_lp(group_probs, pos_rates, epsilon, zeta, t)
    res = linprog(
        np.zeros(a_ub.shape[1]),
        A_ub=a_ub,
        b_ub=b_ub,
        A_eq=a_eq,
        b_eq=b_eq,
        bounds=(0, 1),
        method="highs",
    )
    if res.status not in (0, 2):
        raise RuntimeError(f"independent feasibility LP ended with status {res.status}")
    return res.status == 0


def check_optimality(
    group_probs, pos_rates, epsilon, zeta, objective, min_error, tol: float = 1e-5
) -> list[str]:
    """No compliant matrix beats the objective by more than tol, and the
    program's minimum achievable error agrees with an LP over all entries."""
    failures = []
    mine = independent_min_error(group_probs, pos_rates, epsilon)
    if abs(mine - min_error) > 1e-7:
        failures.append(f"min_achievable_error {min_error!r}, full LP gives {mine!r}")
    if objective > tol and independent_beats(
        group_probs, pos_rates, epsilon, zeta, objective - tol
    ):
        failures.append(f"a compliant matrix beats objective {objective!r} by more than {tol}")
    return failures


def binary_ratio(group_probs, pos_rates, p, q):
    """Released over original rate gap for the binary mechanism (p, q).

    Works elementwise on arrays of (p, q).
    """
    g0, g1 = group_probs
    r0, r1 = pos_rates
    rate0 = (g0 * r0 * p + g1 * r1 * (1.0 - q)) / (g0 * p + g1 * (1.0 - q))
    rate1 = (g0 * r0 * (1.0 - p) + g1 * r1 * q) / (g0 * (1.0 - p) + g1 * q)
    return np.abs(rate0 - rate1) / abs(r0 - r1)


def check_binary_design(group_probs, pos_rates, epsilon, p, q, objective) -> list[str]:
    """Ratio, privacy and optimality of a designed binary mechanism.

    Optimality is checked against a dense scan of the two privacy-tight
    curves p = e^eps (1 - q) and q = e^eps (1 - p) inside [1/2, 1]^2.
    """
    failures = []
    e = math.exp(epsilon)
    Q = np.array([[p, 1.0 - p], [1.0 - q, q]])
    if not (0.5 - 1e-12 <= p <= 1.0 and 0.5 - 1e-12 <= q <= 1.0):
        failures.append(f"binary parameters ({p!r}, {q!r}) outside [1/2, 1]")
    if worst_column_ratio(Q) > e * (1.0 + 1e-9):
        failures.append(f"binary mechanism ({p!r}, {q!r}) breaks {epsilon}-LDP")
    mine = float(binary_ratio(group_probs, pos_rates, p, q))
    if abs(mine - objective) > 1e-9:
        failures.append(f"binary objective {objective!r}, recomputed ratio {mine!r}")
    keep = e / (e + 1.0)
    rr = float(binary_ratio(group_probs, pos_rates, keep, keep))
    if objective > rr + 1e-12:
        failures.append(f"binary objective {objective!r} is worse than RR's {rr!r}")
    free = np.linspace(0.5, keep, 4001)
    tight = 1.0 - free / e
    scan = np.concatenate(
        [
            binary_ratio(group_probs, pos_rates, free, tight),
            binary_ratio(group_probs, pos_rates, tight, free),
        ]
    )
    best = float(scan.min())
    if objective > best + 1e-9:
        failures.append(f"binary objective {objective!r} above the boundary scan's {best!r}")
    return failures
