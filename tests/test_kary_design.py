"""Tests for the k-ary design solver, its constraint assembly, and oracles."""

import itertools
import math
from collections import Counter

import numpy as np
import pytest

from fairldp.distribution import JointDistribution, delta
from fairldp.errors import (
    ConfigError,
    InfeasibleBudget,
    InvalidEpsilon,
    NumericalFailure,
)
from fairldp import kary_design
from fairldp.kary_design import (
    FeasiblePoint,
    Infeasible,
    LinearConstraintSystem,
    SolverConfig,
    assemble_constraints,
    fairness_rows_at,
    lp_feasible,
    matrix_from_vars,
    min_achievable_error,
    solve_opt_k,
    var_index,
)
from fairldp.mechanisms import (
    BinaryMechanism,
    grr_matrix,
    induced_distribution,
    matrix_of_binary,
    verify_ldp,
)
from oracles import (
    TooLarge,
    _grid_best,
    _grid_feasible_mask,
    _grid_objective,
    all_entries_feasible,
    brute_force_opt_k,
    scipy_linprog,
)

FIXTURE_DIST = ([0.5, 0.3, 0.2], [0.2, 0.5, 0.8])
# frozen from a converged grid-oracle run on the fixture at eps=1, zeta=0.55
FIXTURE_GRID_OBJECTIVE = 0.022369605322278607
FIXTURE_SOLVER_OBJECTIVE = 0.022360557463111053
FIXTURE_MIN_ERROR = 0.42020418279466154


def fixture_dist():
    return JointDistribution.from_rates(*FIXTURE_DIST)


def random_dist(rng, k):
    gp = rng.dirichlet(np.ones(k)) * 0.8 + 0.2 / k
    gp = gp / gp.sum()
    rates = rng.uniform(0.15, 0.85, k)
    while np.ptp(rates) < 0.15:
        rates = rng.uniform(0.15, 0.85, k)
    return JointDistribution.from_rates(gp, rates)


def grr_vars(k, epsilon):
    Q = grr_matrix(k, epsilon).entries
    x = np.zeros(k * (k - 1))
    for i in range(k):
        for j in range(k):
            if i != j:
                x[var_index(i, j, k)] = Q[i, j]
    return x


def static_rows_direct(dist, epsilon):
    """Independent re-derivation of the utility-free static system as A x <= b."""
    k = dist.k
    n = k * (k - 1)
    ee = math.exp(epsilon)
    pos = {}
    m = 0
    for i in range(k):
        for j in range(k):
            if i != j:
                pos[(i, j)] = m
                m += 1
    A, b = [], []
    for (i, j), col in pos.items():
        row = np.zeros(n)
        row[col] = -1.0
        A.append(row)
        b.append(0.0)
    for i in range(k):
        row = np.zeros(n)
        for a in range(k):
            if a != i:
                row[pos[(i, a)]] = 1.0
        A.append(row)
        b.append(1.0)
    for (i, j), col in pos.items():
        row = np.zeros(n)
        row[col] += 1.0
        for a in range(k):
            if a != i:
                row[pos[(i, a)]] += 1.0
        A.append(row)
        b.append(1.0)
        row = np.zeros(n)
        row[col] += 1.0
        for a in range(k):
            if a != j:
                row[pos[(j, a)]] += 1.0
        A.append(row)
        b.append(1.0)
        row = np.zeros(n)
        row[col] -= ee
        for a in range(k):
            if a != j:
                row[pos[(j, a)]] -= 1.0
        A.append(row)
        b.append(-1.0)
    error_coeffs = np.zeros(n)
    for (i, j), col in pos.items():
        error_coeffs[col] = dist.group_probs[i]
    return np.array(A), np.array(b), error_coeffs


def fairness_rows_direct(dist, t):
    """Per-output loop over the fairness rows, with the solver's arithmetic."""
    k = dist.k
    p, r, py = dist.group_probs, dist.pos_rates, dist.pos_marginal
    A, b = [], []
    for a in range(k):
        hi = np.zeros(k * (k - 1))
        lo = np.zeros(k * (k - 1))
        for j in range(k):
            if j != a:
                hi[var_index(j, a, k)] = r[j] * p[j] - (1.0 + t) * py * p[j]
                lo[var_index(j, a, k)] = (1.0 - t) * py * p[j] - r[j] * p[j]
                hi[var_index(a, j, k)] = (1.0 + t) * py * p[a] - r[a] * p[a]
                lo[var_index(a, j, k)] = r[a] * p[a] - (1.0 - t) * py * p[a]
        A += [hi, lo]
        b += [(1.0 + t) * py * p[a] - r[a] * p[a], r[a] * p[a] - (1.0 - t) * py * p[a]]
    return np.array(A), np.array(b)


def vertex_min_error(dist, epsilon):
    """Exact minimum reporting error by enumerating polytope vertices."""
    A, b, c = static_rows_direct(dist, epsilon)
    n = A.shape[1]
    combos = np.array(list(itertools.combinations(range(A.shape[0]), n)))
    best = math.inf
    for start in range(0, len(combos), 40_000):
        sel = combos[start : start + 40_000]
        bases = A[sel]
        rhs = b[sel]
        dets = np.abs(np.linalg.det(bases))
        good = dets > 1e-10
        if not good.any():
            continue
        xs = np.linalg.solve(bases[good], rhs[good][:, :, None])[:, :, 0]
        feas = np.all(xs @ A.T <= b + 1e-9, axis=1)
        if feas.any():
            best = min(best, float((xs[feas] @ c).min()))
    return best


def zoom_grid_min_error(dist, epsilon, steps=9, passes=10):
    """Axis-aligned zooming grid over off-diagonals minimizing reporting error."""
    k, n = dist.k, dist.k * (dist.k - 1)
    ee = math.exp(epsilon)
    tol = 1e-6
    lo, hi = np.zeros(n), np.ones(n)
    best, best_x = math.inf, None
    for _ in range(passes):
        axes = [np.linspace(lo[m], hi[m], steps) for m in range(n)]
        total = steps**n
        for start in range(0, total, 200_000):
            flat = np.arange(start, min(start + 200_000, total))
            digits = np.unravel_index(flat, (steps,) * n)
            cand = np.stack([axes[m][digits[m]] for m in range(n)], axis=1)
            Q = np.zeros((cand.shape[0], k, k))
            for i in range(k):
                for j in range(k):
                    if i != j:
                        Q[:, i, j] = cand[:, var_index(i, j, k)]
                Q[:, i, i] = 1.0 - Q[:, i].sum(axis=1)
            diag = Q[:, np.arange(k), np.arange(k)]
            ok = np.all(diag >= -tol, axis=1)
            ok &= np.all(diag[:, :, None] >= Q - tol, axis=(1, 2))
            ok &= np.all(diag[:, None, :] >= Q - tol, axis=(1, 2))
            ok &= np.all(Q.max(axis=1) <= ee * Q.min(axis=1) + tol, axis=1)
            if not ok.any():
                continue
            err = 1.0 - diag[ok] @ dist.group_probs
            pick = int(np.argmin(err))
            if err[pick] < best:
                best = float(err[pick])
                best_x = cand[ok][pick]
        width = (hi - lo) * 0.5
        lo = np.clip(best_x - width / 2.0, 0.0, 1.0)
        hi = np.clip(best_x + width / 2.0, 0.0, 1.0)
    return best


class TestSolverConfig:
    def test_defaults(self):
        cfg = SolverConfig(epsilon=1.0, zeta=0.5)
        assert cfg.objective_tol == 1e-6
        assert cfg.feasibility_tol == 1e-9
        assert cfg.max_bisection_iters == 60

    def test_validation(self):
        with pytest.raises(InvalidEpsilon):
            SolverConfig(epsilon=0.0, zeta=0.5)
        with pytest.raises(ConfigError):
            SolverConfig(epsilon=1.0, zeta=1.5)
        with pytest.raises(ConfigError):
            SolverConfig(epsilon=1.0, zeta=-0.1)
        with pytest.raises(ConfigError):
            SolverConfig(epsilon=1.0, zeta=0.5, objective_tol=0.0)
        with pytest.raises(ConfigError):
            SolverConfig(epsilon=1.0, zeta=0.5, max_bisection_iters=0)


class TestAssembleConstraints:
    def test_counts_k2(self):
        d = JointDistribution.from_rates([0.4, 0.6], [0.25, 0.7])
        sys2 = assemble_constraints(d, SolverConfig(1.0, 0.5))
        assert sys2.num_vars == 2
        assert len(sys2.labels) == 11

    def test_counts_k3(self):
        sys3 = assemble_constraints(fixture_dist(), SolverConfig(1.0, 0.3))
        assert sys3.num_vars == 6
        assert len(sys3.labels) == 28
        kinds = Counter(label.split("(")[0] for label in sys3.labels)
        assert kinds == {
            "truth_own": 6,
            "truth_tgt": 6,
            "ldp": 6,
            "mass": 3,
            "nonneg": 6,
            "utility": 1,
        }

    def test_canonical_order_k2(self):
        d = JointDistribution.from_rates([0.4, 0.6], [0.25, 0.7])
        labels = list(assemble_constraints(d, SolverConfig(1.0, 0.5)).labels)
        assert labels == [
            "truth_own(0,1)",
            "truth_tgt(0,1)",
            "truth_own(1,0)",
            "truth_tgt(1,0)",
            "ldp(0,1)",
            "ldp(1,0)",
            "mass(0)",
            "mass(1)",
            "nonneg(0,1)",
            "nonneg(1,0)",
            "utility",
        ]

    def test_identity_violates_only_ldp(self):
        sys3 = assemble_constraints(fixture_dist(), SolverConfig(1.0, 0.3))
        x = np.zeros(sys3.num_vars)
        slacks = sys3.slacks(x)
        for label in sys3.labels:
            if label.startswith("ldp"):
                assert slacks[label] < 0.0
            else:
                assert slacks[label] >= -1e-12

    def test_matches_direct_derivation(self):
        rng = np.random.default_rng(71)
        for k in (2, 3, 4, 5):
            for epsilon in (0.25, 1.0, 3.0):
                d = random_dist(rng, k)
                system = assemble_constraints(d, SolverConfig(epsilon, 0.4))
                A, b, c = static_rows_direct(d, epsilon)
                pairs = [f"({i},{j})" for i in range(k) for j in range(k) if i != j]
                direct_labels = (
                    [f"nonneg{pair}" for pair in pairs]
                    + [f"mass({i})" for i in range(k)]
                    + [
                        f"{kind}{pair}"
                        for pair in pairs
                        for kind in ("truth_own", "truth_tgt", "ldp")
                    ]
                )
                order = [system.labels.index(label) for label in direct_labels]
                assert sorted(order) == list(range(len(system.labels) - 1))
                assert np.array_equal(system.A[order], A)
                assert np.array_equal(system.b[order], b)
                assert system.labels[-1] == "utility"
                assert np.array_equal(system.A[-1], c)
                assert system.b[-1] == 0.4

    def test_grr_point_is_feasible(self):
        d = fixture_dist()
        sys3 = assemble_constraints(d, SolverConfig(1.0, 0.6))
        x = grr_vars(3, 1.0)
        assert sys3.satisfied(x, 1e-12)


class TestFairnessRows:
    def test_shape_and_labels(self):
        rows = fairness_rows_at(fixture_dist(), 0.2)
        assert len(rows.labels) == 6
        assert list(rows.labels) == [
            "fair_hi(0)",
            "fair_lo(0)",
            "fair_hi(1)",
            "fair_lo(1)",
            "fair_hi(2)",
            "fair_lo(2)",
        ]

    def test_matches_per_output_loop(self):
        rng = np.random.default_rng(72)
        for k in (2, 3, 4, 6):
            d = random_dist(rng, k)
            for t in (0.0, 0.013, 0.5, 1.7):
                rows = fairness_rows_at(d, t)
                A, b = fairness_rows_direct(d, t)
                assert rows.A.tobytes() == A.tobytes()
                assert rows.b.tobytes() == b.tobytes()

    def test_negative_target_rejected(self):
        with pytest.raises(ValueError):
            fairness_rows_at(fixture_dist(), -0.1)

    def test_fair_data_at_zero_target(self):
        d = JointDistribution.from_rates([0.5, 0.3, 0.2], [0.4, 0.4, 0.4])
        rows = fairness_rows_at(d, 0.0)
        identity = np.zeros(6)
        uniform = np.full(6, 1.0 / 3.0)
        for x in (identity, uniform):
            assert all(s >= -1e-12 for s in rows.slacks(x).values())

    def test_max_target_implied_by_static(self):
        d = fixture_dist()
        t_max = max(1.0 / d.pos_marginal - 1.0, 1.0)
        rows = fairness_rows_at(d, t_max)
        static = assemble_constraints(d, SolverConfig(1.0, 1.0))
        point = lp_feasible(static)
        assert isinstance(point, FeasiblePoint)
        candidates = [point.x] + [grr_vars(3, e) for e in (0.3, 1.0, 3.0)]
        for x in candidates:
            assert all(s >= -1e-9 for s in rows.slacks(x).values())

    def test_binary_cross_path(self):
        d = JointDistribution.from_rates([0.4, 0.6], [0.25, 0.7])
        rng = np.random.default_rng(64)
        for _ in range(200):
            p, q = rng.uniform(0.5, 1.0, 2)
            t = float(rng.uniform(0.0, 1.2))
            achieved = delta(
                induced_distribution(d, matrix_of_binary(BinaryMechanism(p, q)))
            )
            if abs(achieved - t) < 1e-9:
                continue
            x = np.array([1.0 - p, 1.0 - q])
            satisfied = all(
                s >= -1e-12 for s in fairness_rows_at(d, t).slacks(x).values()
            )
            assert satisfied == (achieved <= t)


class TestLpFeasible:
    def test_single_variable_band(self):
        system = LinearConstraintSystem(
            np.array([[-1.0], [1.0], [-1.0]]),
            np.array([-0.5, 1.0, 0.0]),
            ("floor", "cap", "sign"),
        )
        result = lp_feasible(system)
        assert isinstance(result, FeasiblePoint)
        assert 0.5 - 1e-9 <= result.x[0] <= 1.0 + 1e-9

    def test_contradiction(self):
        system = LinearConstraintSystem(
            np.array([[-1.0], [1.0]]), np.array([-0.7, 0.3]), ("floor", "cap")
        )
        assert isinstance(lp_feasible(system), Infeasible)

    def test_sound_against_rejection_sampling(self):
        rng = np.random.default_rng(1234)
        for margin in (0.8, 0.15):
            A = rng.normal(size=(20, 6))
            center = np.full(6, 0.5)
            b = A @ center + margin
            system = LinearConstraintSystem(
                np.vstack([A, -np.eye(6), np.eye(6)]),
                np.concatenate([b, np.zeros(6), np.ones(6)]),
                tuple(f"r{i}" for i in range(20))
                + tuple(f"lo{i}" for i in range(6))
                + tuple(f"hi{i}" for i in range(6)),
            )
            found = False
            for _ in range(10):
                pts = rng.uniform(0.0, 1.0, size=(1_000_000, 6))
                if np.any(np.all(pts @ A.T <= b, axis=1)):
                    found = True
                    break
            if found:
                assert isinstance(lp_feasible(system), FeasiblePoint)


def tight_instances():
    """The fixture and tight random budgets: designs that take Dinkelbach steps."""
    out = [(fixture_dist(), SolverConfig(1.0, 0.55))]
    rng = np.random.default_rng(29)
    for k, eps in ((3, 0.5), (4, 2.0), (5, 1.0), (6, 0.25)):
        dist = random_dist(rng, k)
        floor = min_achievable_error(dist, eps)
        out.append((dist, SolverConfig(eps, floor + 0.02 * (1.0 - floor))))
    return out


class TestSolveOptK:
    def test_fixture_budget_below_error_floor(self):
        with pytest.raises(InfeasibleBudget) as err:
            solve_opt_k(fixture_dist(), SolverConfig(1.0, 0.3))
        assert err.value.epsilon == 1.0
        assert err.value.zeta == 0.3

    def test_zero_error_budget_never_feasible(self):
        # zeta=0 forces the identity matrix, which no finite budget allows
        d = JointDistribution.from_rates([0.4, 0.6], [0.25, 0.7])
        with pytest.raises(InfeasibleBudget):
            solve_opt_k(d, SolverConfig(2.0, 0.0))

    def test_fair_data_solved_at_zero(self):
        d = JointDistribution.from_rates([0.5, 0.3, 0.2], [0.4, 0.4, 0.4])
        res = solve_opt_k(d, SolverConfig(1.0, 0.6))
        assert res.objective <= 1e-9
        assert res.certificate.iterations == [(0.0, 0.0)]

    def test_tiny_epsilon_full_error_budget(self):
        d = JointDistribution.from_rates([0.4, 0.6], [0.25, 0.7])
        res = solve_opt_k(d, SolverConfig(0.01, 1.0))
        assert res.objective <= 1e-6

    def test_fixture_regression(self):
        res = solve_opt_k(fixture_dist(), SolverConfig(1.0, 0.55))
        assert res.objective == pytest.approx(FIXTURE_SOLVER_OBJECTIVE, abs=1e-6)
        assert abs(res.objective - FIXTURE_GRID_OBJECTIVE) <= 2e-3

    def test_solution_validity(self):
        rng = np.random.default_rng(7)
        for _ in range(5):
            k = int(rng.integers(2, 4))
            d = random_dist(rng, k)
            eps = float(rng.uniform(0.5, 2.0))
            grr_err = 1.0 - float(
                np.diag(grr_matrix(k, eps).entries) @ d.group_probs
            )
            zeta = min(1.0, grr_err * 1.5)
            res = solve_opt_k(d, SolverConfig(eps, zeta))
            Q = res.Q.entries
            assert verify_ldp(res.Q, eps)
            assert Q.sum(axis=1) == pytest.approx(np.ones(k), abs=1e-9)
            diag = np.diag(Q)
            assert np.all(diag[:, None] >= Q - 1e-9)
            assert np.all(diag[None, :] >= Q - 1e-9)
            assert float(diag @ d.group_probs) >= 1.0 - zeta - 1e-9
            assert res.objective == pytest.approx(
                delta(induced_distribution(d, res.Q)), abs=1e-8
            )
            assert min(res.certificate.slacks.values()) >= -1e-9

    def test_dinkelbach_targets_strictly_decrease(self):
        for dist, cfg in tight_instances():
            trace = solve_opt_k(dist, cfg).certificate.iterations
            assert len(trace) > 1
            for (t1, _), (t2, _) in zip(trace, trace[1:]):
                assert t2 < t1

    def test_dinkelbach_stops_once_no_point_beats_t(self):
        for dist, cfg in tight_instances():
            res = solve_opt_k(dist, cfg)
            trace = res.certificate.iterations
            t_last, s_last = trace[-1]
            assert s_last >= -0.1 * cfg.objective_tol
            assert all(s < -0.1 * cfg.objective_tol for _, s in trace[:-1])
            assert res.objective <= t_last + 1e-9

    def test_objective_not_beaten_by_objective_tol(self):
        for dist, cfg in tight_instances():
            res = solve_opt_k(dist, cfg)
            t = res.objective
            assert not all_entries_feasible(dist, cfg.epsilon, cfg.zeta, t - cfg.objective_tol)
            assert all_entries_feasible(dist, cfg.epsilon, cfg.zeta, t + cfg.objective_tol)

    def test_lp_count_matches_certificate(self, monkeypatch):
        calls = []
        solve = kary_design.linprog

        def counted(*args, **kwargs):
            calls.append(1)
            return solve(*args, **kwargs)

        monkeypatch.setattr(kary_design, "linprog", counted)
        fair = JointDistribution.from_rates([0.5, 0.3, 0.2], [0.4, 0.4, 0.4])
        cases = tight_instances() + [(fair, SolverConfig(1.0, 0.6))]
        for dist, cfg in cases:
            calls.clear()
            trace = solve_opt_k(dist, cfg).certificate.iterations
            if trace == [(0.0, 0.0)]:
                assert len(calls) == 3
            else:
                assert len(calls) == 3 + len(trace)
        assert trace == [(0.0, 0.0)]

    def test_step_cap_keeps_a_feasible_design(self):
        dist, cfg = tight_instances()[0]
        capped = SolverConfig(cfg.epsilon, cfg.zeta, max_bisection_iters=1)
        res = solve_opt_k(dist, capped)
        (t, s), = res.certificate.iterations
        assert s < -0.1 * cfg.objective_tol
        assert res.objective < t
        assert min(res.certificate.slacks.values()) >= -1e-9

    def test_deterministic(self):
        cfg = SolverConfig(1.0, 0.55)
        a = solve_opt_k(fixture_dist(), cfg)
        b = solve_opt_k(fixture_dist(), cfg)
        assert np.array_equal(a.Q.entries, b.Q.entries)
        assert a.objective == b.objective

    def test_dominates_grr_when_grr_feasible(self):
        rng = np.random.default_rng(17)
        for _ in range(3):
            k = int(rng.integers(2, 4))
            d = random_dist(rng, k)
            eps = float(rng.uniform(0.5, 2.0))
            grr = grr_matrix(k, eps)
            grr_err = 1.0 - float(np.diag(grr.entries) @ d.group_probs)
            zeta = min(1.0, grr_err + 0.05)
            res = solve_opt_k(d, SolverConfig(eps, zeta))
            assert res.objective <= delta(induced_distribution(d, grr)) + 1e-6

    def test_json_shape(self):
        payload = solve_opt_k(fixture_dist(), SolverConfig(1.0, 0.55)).to_json_dict()
        assert set(payload) == {
            "k",
            "epsilon",
            "zeta",
            "objective",
            "entries",
            "certificate",
        }
        assert payload["k"] == 3
        assert set(payload["certificate"]) == {"iterations", "slacks"}
        assert len(payload["entries"]) == 3
        assert "utility" in payload["certificate"]["slacks"]

    def test_failure_does_not_keep_constraint_matrices(self, monkeypatch):
        solve = kary_design.linprog

        def status_4_after_static(c, **kw):
            res = solve(c, **kw)
            if len(kw["b_ub"]) > 28:
                res.status = 4
            return res

        monkeypatch.setattr(kary_design, "linprog", status_4_after_static)
        with pytest.raises(NumericalFailure, match="status 4") as err:
            solve_opt_k(fixture_dist(), SolverConfig(1.0, 0.55))
        tb = err.value.__traceback__
        while tb is not None:
            for value in tb.tb_frame.f_locals.values():
                assert not isinstance(value, LinearConstraintSystem)
            tb = tb.tb_next


    @pytest.mark.parametrize(
        "call, stage",
        [
            (1, "feasibility solve"),
            (2, "feasibility solve"),
            (3, "Dinkelbach step"),
            (-1, "utility refinement"),
        ],
    )
    def test_failure_says_where_it_failed(self, monkeypatch, call, stage):
        dist, cfg = fixture_dist(), SolverConfig(1.0, 0.55)
        trace = solve_opt_k(dist, cfg).certificate.iterations
        fail_at = call if call > 0 else 3 + len(trace)
        target = {1: None, 2: 0.0, 3: trace[0][0], -1: trace[-1][0]}[call]
        solve = kary_design.linprog
        calls = []

        def status_4_once(c, **kw):
            res = solve(c, **kw)
            calls.append(1)
            if len(calls) == fail_at:
                res.status, res.message = 4, "forced"
            return res

        monkeypatch.setattr(kary_design, "linprog", status_4_once)
        with pytest.raises(NumericalFailure, match="ended with status 4") as err:
            solve_opt_k(dist, cfg)
        fields = err.value.details()
        assert fields.pop("t", None) == target
        assert fields == {
            "stage": stage,
            "status": 4,
            "message": "forced",
            "k": 3,
            "epsilon": 1.0,
            "zeta": 0.55,
        }

    def test_violating_point_is_a_failure(self, monkeypatch):
        solve = kary_design.linprog

        def shifted(c, **kw):
            res = solve(c, **kw)
            # every row-mass bound breaks: k - 1 entries above 1 each
            res.x = res.x + 1.0
            return res

        monkeypatch.setattr(kary_design, "linprog", shifted)
        with pytest.raises(NumericalFailure, match="violating its own system") as err:
            solve_opt_k(fixture_dist(), SolverConfig(1.0, 0.55))
        assert err.value.stage == "feasibility solve"
        assert err.value.status == 0


def design_lps(monkeypatch, dist, cfg):
    """(c, A_ub, b_ub) of every LP that min_achievable_error and solve_opt_k
    hand to HiGHS, equilibrated, in order."""
    lps = []
    solve = kary_design.linprog

    def recording(c, **kw):
        lps.append((c, kw["A_ub"], kw["b_ub"]))
        return solve(c, **kw)

    monkeypatch.setattr(kary_design, "linprog", recording)
    min_achievable_error(dist, cfg.epsilon)
    solve_opt_k(dist, cfg)
    monkeypatch.undo()
    return lps


# tiny LPs that end in a non-optimal status, with scipy's status and HiGHS's
TINY_FAILURES = {
    "infeasible": (([0.0], [[1.0], [-1.0]], [0.3, -0.7]), 2, 8),
    "unbounded": (([1.0], [[1.0]], [1.0]), 3, 10),
    # a cost beyond HiGHS's infinite_cost: HiGHS stops with status Unknown
    "infinite-cost": (([1e300, 0.0], [[1.0, 1.0]], [1.0]), 4, 15),
}


def tiny_lp(name):
    (c, A, b), _, _ = TINY_FAILURES[name]
    return np.array(c), np.array(A), np.array(b)


class TestHighsCall:
    def test_matches_scipy_linprog_on_design_lps(self, monkeypatch):
        fair = JointDistribution.from_rates([0.5, 0.3, 0.2], [0.4, 0.4, 0.4])
        loose = random_dist(np.random.default_rng(5), 5)
        cases = tight_instances()[:4] + [
            (fair, SolverConfig(1.0, 0.6)),
            (loose, SolverConfig(2.0, 0.8)),
        ]
        statuses = Counter()
        for dist, cfg in cases:
            for c, A, b in design_lps(monkeypatch, dist, cfg):
                ours = kary_design.linprog(c, A_ub=A, b_ub=b)
                ref = scipy_linprog(c, A_ub=A, b_ub=b)
                assert ours.status == ref.status
                assert ours.message == ref.message
                statuses[ours.status] += 1
                if ref.status == 0:
                    assert ours.x.tobytes() == ref.x.tobytes()
                    assert ours.fun == ref.fun
                else:
                    assert ours.x is None and ours.fun is None
        # optimal LPs of every stage, and infeasible t = 0 probes
        assert statuses[0] > 3 * len(cases) and statuses[2] >= 4

    @pytest.mark.parametrize("name", sorted(TINY_FAILURES))
    def test_tiny_failures_match_scipy_linprog(self, name):
        c, A, b = tiny_lp(name)
        _, status, highs_status = TINY_FAILURES[name]
        ours = kary_design.linprog(c, A_ub=A, b_ub=b)
        ref = scipy_linprog(c, A_ub=A, b_ub=b)
        assert ours.status == ref.status == status
        assert ours.message == ref.message
        assert f"(HiGHS Status {highs_status}: " in ours.message
        assert ours.x is None and ref.x is None

    @pytest.mark.parametrize("name", sorted(TINY_FAILURES))
    def test_highs_failure_reaches_lp_feasible(self, monkeypatch, name):
        c, A, b = tiny_lp(name)
        _, status, highs_status = TINY_FAILURES[name]
        real = kary_design.linprog(c, A_ub=A, b_ub=b)
        # hand the real failure to the feasibility solve of another system
        monkeypatch.setattr(kary_design, "linprog", lambda c, **kw: real)
        system = LinearConstraintSystem(np.ones((1, 1)), np.ones(1), ("cap",))
        if status == 2:
            assert isinstance(lp_feasible(system), Infeasible)
            return
        with pytest.raises(NumericalFailure, match=f"status {status}") as err:
            lp_feasible(system)
        assert err.value.stage == "feasibility solve"
        assert err.value.status == status
        assert f"(HiGHS Status {highs_status}: " in err.value.message

    def test_non_finite_coefficients_rejected(self):
        with pytest.raises(ValueError, match="must be finite"):
            LinearConstraintSystem(np.array([[np.nan]]), np.ones(1), ("cap",))


def reported_fault_instances():
    """Valid instances that ended in NumericalFailure before row equilibration.

    A k=12 draw and two design pool draws: status 4 in a feasibility solve
    for the first two, status 2 in the utility refinement for the third.
    Each is designed at a tight error budget, 2% of the way from the
    minimum achievable error to 1.
    """
    rng = np.random.default_rng(112)
    for _ in range(9):
        eps = float(rng.choice([0.5, 1.0, 2.0]))
        gp = rng.dirichlet(np.ones(12) * 2)
        pr = rng.uniform(0.1, 0.9, 12)
    cases = {"k12_status4": (JointDistribution.from_rates(gp, pr), eps)}
    for name, k, eps, key in (
        ("k8_eps2_status4", 8, 2.0, [20251117, 8, 3, 0, 16]),
        ("k5_eps0.25_refinement_status2", 5, 0.25, [20251117, 5, 0, 0, 14]),
    ):
        rng = np.random.default_rng(key)
        gp = rng.dirichlet(np.ones(k) * 2)
        pr = rng.uniform(0.1, 0.9, k)
        cases[name] = (JointDistribution.from_rates(gp, pr), eps)
    return cases


FAULTS = reported_fault_instances()


@pytest.mark.parametrize("name", sorted(FAULTS))
def test_reported_solver_fault_designs(name):
    dist, eps = FAULTS[name]
    floor = min_achievable_error(dist, eps)
    cfg = SolverConfig(eps, floor + 0.02 * (1.0 - floor))
    res = solve_opt_k(dist, cfg)
    Q = res.Q.entries
    diag = np.diag(Q)
    assert verify_ldp(res.Q, eps)
    assert Q.sum(axis=1) == pytest.approx(np.ones(dist.k), abs=1e-9)
    assert np.all(Q >= -1e-9)
    assert np.all(diag[:, None] >= Q - 1e-9)
    assert np.all(diag[None, :] >= Q - 1e-9)
    assert float(diag @ dist.group_probs) >= 1.0 - cfg.zeta - 1e-9
    assert res.objective == pytest.approx(
        delta(induced_distribution(dist, res.Q)), abs=1e-12
    )
    assert min(res.certificate.slacks.values()) >= -1e-9
    assert res.certificate.iterations[-1][1] >= -0.1 * cfg.objective_tol
    t = res.objective - cfg.objective_tol
    assert not all_entries_feasible(dist, eps, cfg.zeta, t)


# LPs that failed inside the former bisection, as (instance, error budget,
# disparity target).  Each target lies below the optimum.  Without row
# equilibration HiGHS ended the first two with status 4 and called the
# third feasible, whose utility refinement then ended with status 2.
FAULT_LPS = [
    ("k12_status4", 0.5488148026886623, 0.125),
    ("k8_eps2_status4", 0.4272439879034653, 0.2895339481419419),
    ("k5_eps0.25_refinement_status2", 0.7489543314965194, 0.022228240966796875),
]


@pytest.mark.parametrize("name, zeta, t", FAULT_LPS)
def test_equilibrated_rows_certify_the_failed_lps(name, zeta, t):
    dist, eps = FAULTS[name]
    cfg = SolverConfig(eps, zeta)
    system = assemble_constraints(dist, cfg).extended(fairness_rows_at(dist, t))
    assert isinstance(lp_feasible(system), Infeasible)
    assert solve_opt_k(dist, cfg).objective > t


class TestBruteForce:
    def test_size_guards(self):
        d4 = JointDistribution.from_rates(
            [0.25, 0.25, 0.25, 0.25], [0.2, 0.4, 0.6, 0.8]
        )
        with pytest.raises(TooLarge):
            brute_force_opt_k(d4, SolverConfig(1.0, 0.8), 9)
        with pytest.raises(TooLarge):
            brute_force_opt_k(fixture_dist(), SolverConfig(1.0, 0.8), 26)
        with pytest.raises(ValueError):
            brute_force_opt_k(fixture_dist(), SolverConfig(1.0, 0.8), 1)

    def test_fixture_regression(self):
        Qg, og = brute_force_opt_k(fixture_dist(), SolverConfig(1.0, 0.55), 9)
        assert og == pytest.approx(FIXTURE_GRID_OBJECTIVE, abs=1e-9)
        assert abs(og - FIXTURE_SOLVER_OBJECTIVE) <= 2e-3
        assert Qg.shape == (3, 3)
        assert Qg.sum(axis=1) == pytest.approx(np.ones(3), abs=1e-9)

    def test_binary_agreement_with_solver(self):
        d = JointDistribution.from_rates([0.4, 0.6], [0.25, 0.7])
        cfg = SolverConfig(1.0, 0.5)
        res = solve_opt_k(d, cfg)
        _, og = brute_force_opt_k(d, cfg, 21)
        assert abs(og - res.objective) <= 5e-3

    def test_fair_data(self):
        d = JointDistribution.from_rates([0.5, 0.3, 0.2], [0.4, 0.4, 0.4])
        _, og = brute_force_opt_k(d, SolverConfig(1.0, 0.6), 9)
        assert og <= 1e-4

    def test_infeasible_budget(self):
        with pytest.raises(InfeasibleBudget):
            brute_force_opt_k(fixture_dist(), SolverConfig(1.0, 0.3), 9)

    def test_split_checks_match_full_matrix_checks(self):
        # the pass evaluates feasibility row by row and pair by pair; it must
        # pick exactly the point a scan of full matrices in grid order picks
        rng = np.random.default_rng(8)
        found = missed = 0
        for trial in range(24):
            k = 2 + trial % 2
            dist = random_dist(rng, k)
            ee = math.exp(float(rng.uniform(0.3, 2.5)))
            zeta = float(rng.uniform(0.3, 0.9))
            axes = [
                np.unique(
                    np.concatenate(
                        [rng.uniform(0.0, 0.5, 3), [0.0, 1.0 / ee / k, 0.3, 0.4]]
                    )
                )
                for _ in range(k * (k - 1))
            ]
            grid = np.array(list(itertools.product(*axes)))
            Q = np.zeros((len(grid), k, k))
            for i, j in itertools.permutations(range(k), 2):
                Q[:, i, j] = grid[:, var_index(i, j, k)]
            for i in range(k):
                Q[:, i, i] = 1.0 - Q[:, i].sum(axis=1)
            ok = _grid_feasible_mask(Q, dist, ee, zeta, 1e-9)
            for chunk in (7, 100_000):
                x, val = _grid_best(axes, dist, ee, zeta, 1e-9, chunk)
                if not ok.any():
                    assert x is None and val == math.inf
                    continue
                vals = _grid_objective(Q[ok], dist)
                pick = int(np.argmin(vals))
                assert val == float(vals[pick])
                np.testing.assert_array_equal(x, grid[ok][pick])
            found += bool(ok.any())
            missed += not ok.any()
        assert found >= 5 and missed >= 1


class TestMinAchievableError:
    def test_large_budget_vanishes(self):
        d = JointDistribution.from_rates([0.4, 0.6], [0.25, 0.7])
        assert min_achievable_error(d, 20.0) < 1e-6

    def test_monotone_in_epsilon(self):
        d = fixture_dist()
        vals = [min_achievable_error(d, e) for e in (0.25, 0.5, 1.0, 2.0, 4.0)]
        assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))

    def test_balanced_binary_matches_symmetric_vertex(self):
        # for near-balanced groups the optimum keeps both off-diagonals equal,
        # which pins the error at 1/(e^eps + 1) regardless of the group split
        d = JointDistribution.from_rates([0.4, 0.6], [0.25, 0.7])
        for eps in (0.5, 1.0, 2.0):
            expected = 1.0 / (math.exp(eps) + 1.0)
            assert min_achievable_error(d, eps) == pytest.approx(expected, abs=1e-9)

    def test_skewed_binary_slides_to_truthfulness_cap(self):
        # p0 >> p1 makes it cheaper to keep group 0 honest and push group 1 to
        # its truthfulness cap: error = p0/(2 e^eps) + p1/2
        d = JointDistribution.from_rates([0.95, 0.05], [0.3, 0.6])
        expected = 0.95 / (2.0 * math.e) + 0.05 / 2.0
        assert min_achievable_error(d, 1.0) == pytest.approx(expected, abs=1e-9)

    def test_vertex_enumeration_agreement(self):
        for dist, eps in [
            (fixture_dist(), 1.0),
            (JointDistribution.from_rates([0.95, 0.05], [0.3, 0.6]), 1.0),
            (JointDistribution.from_rates([0.4, 0.6], [0.25, 0.7]), 2.0),
        ]:
            lp_value = min_achievable_error(dist, eps)
            assert lp_value == pytest.approx(vertex_min_error(dist, eps), abs=1e-9)

    def test_fixture_value(self):
        assert min_achievable_error(fixture_dist(), 1.0) == pytest.approx(
            FIXTURE_MIN_ERROR, abs=1e-9
        )

    def test_zoom_grid_upper_bound(self):
        d = fixture_dist()
        lp_value = min_achievable_error(d, 1.0)
        grid_value = zoom_grid_min_error(d, 1.0)
        assert grid_value >= lp_value - 1e-6
        assert grid_value - lp_value <= 5e-3


class TestMatrixFromVars:
    def test_round_trip(self):
        Q = grr_matrix(3, 1.0).entries
        x = grr_vars(3, 1.0)
        assert matrix_from_vars(x, 3) == pytest.approx(Q, abs=1e-15)

    def test_var_index_layout(self):
        assert [var_index(0, 1, 3), var_index(0, 2, 3)] == [0, 1]
        assert [var_index(1, 0, 3), var_index(1, 2, 3)] == [2, 3]
        assert [var_index(2, 0, 3), var_index(2, 1, 3)] == [4, 5]
        with pytest.raises(ValueError):
            var_index(1, 1, 3)
