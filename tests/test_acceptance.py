"""Acceptance suite: one test per headline criterion, one PASS/FAIL line each.

Each test prints `criterion N: PASS/FAIL (detail)` so a verbose run reads as
a checklist.  Tolerances and instance counts are fixed here and should not be
loosened; a failure means the implementation drifted, not the test.
"""

import math
import time

import numpy as np
import pytest

from fairldp.binary_design import opt_binary
from fairldp.distribution import JointDistribution, delta, delta_prime
from fairldp.evaluation import TrainConfig
from fairldp.kary_design import SolverConfig, solve_opt_k
from fairldp.mechanisms import (
    grr_matrix,
    induced_distribution,
    matrix_of_binary,
    privacy_level,
    rr_mechanism,
    ss_params,
    ss_perturb,
    verify_ldp,
)
from fairldp.pipeline import Mechanism, RunConfig, SplitConfig, cmd_evaluate, render_json
from fairldp.dataset import ColumnsConfig, export_csv
from fairldp.synthetic import generate_planted
from oracles import boundary_oracle, brute_force_opt_k


def report(num: int, ok: bool, detail: str) -> None:
    line = f"criterion {num}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    assert ok, line


def random_joint(rng: np.random.Generator, k: int, min_prob=0.05) -> JointDistribution:
    probs = rng.uniform(min_prob, 1.0, size=k)
    probs /= probs.sum()
    rates = rng.uniform(0.05, 0.95, size=k)
    return JointDistribution.from_rates(probs, rates)


def test_criterion_1_binary_closed_form_vs_boundary_oracle():
    rng = np.random.default_rng(101)
    grid_n = 100_000
    start = time.perf_counter()
    worst_obj = 0.0
    worst_arg = 0.0
    for _ in range(200):
        eps = float(rng.uniform(1e-4, 5.0))
        p0 = float(rng.uniform(0.05, 0.95))
        while True:
            r0, r1 = rng.uniform(0.02, 0.98, size=2)
            if abs(r0 - r1) >= 0.05:
                break
        dist = JointDistribution.from_rates([p0, 1.0 - p0], [r0, r1])
        res = opt_binary(dist, eps)
        op, oq, oval = boundary_oracle(dist, eps, grid_n)
        spacing = (1.0 / (1.0 + math.exp(-eps)) - 0.5) / (grid_n - 1)
        worst_obj = max(worst_obj, abs(res.objective - oval))
        worst_arg = max(
            worst_arg,
            max(abs(res.mechanism.p - op), abs(res.mechanism.q - oq)) - spacing,
        )
    elapsed = time.perf_counter() - start
    ok = worst_obj <= 1e-6 and worst_arg <= 1e-12 and elapsed < 30.0
    report(
        1,
        ok,
        f"200 instances, max objective gap {worst_obj:.2e}, "
        f"argmin within grid step, {elapsed:.1f}s",
    )


def test_criterion_2_grr_never_increases_pairwise_unfairness():
    rng = np.random.default_rng(202)
    start = time.perf_counter()
    violations = 0
    for _ in range(1000):
        k = int(rng.integers(2, 7))
        dist = random_joint(rng, k, min_prob=0.01)
        eps = float(rng.uniform(0.01, 8.0))
        induced = induced_distribution(dist, grr_matrix(k, eps))
        if delta_prime(induced) > delta_prime(dist) + 1e-12:
            violations += 1
    elapsed = time.perf_counter() - start
    ok = violations == 0 and elapsed < 5.0
    report(2, ok, f"1000 instances, {violations} violations, {elapsed:.2f}s")


def test_criterion_3_relative_and_pairwise_metrics_sandwich():
    rng = np.random.default_rng(303)
    start = time.perf_counter()
    violations = 0
    for _ in range(1000):
        k = int(rng.integers(2, 7))
        dist = random_joint(rng, k, min_prob=0.01)
        d, dp = delta(dist), delta_prime(dist)
        py = dist.pos_marginal
        if d > dp / py + 1e-12 or dp > 2.0 * py * d + 1e-12:
            violations += 1
    elapsed = time.perf_counter() - start
    ok = violations == 0 and elapsed < 1.0
    report(3, ok, f"1000 instances, {violations} violations, {elapsed:.2f}s")


def solver_instances(seed: int, count_per_k: int):
    rng = np.random.default_rng(seed)
    for k in (2, 3):
        for _ in range(count_per_k):
            dist = random_joint(rng, k, min_prob=0.08)
            eps = float(rng.uniform(0.4, 3.0))
            pi = math.exp(eps) / (math.exp(eps) + k - 1)
            zeta = min(1.0, (1.0 - pi) * 1.15 + 0.12)
            yield dist, SolverConfig(epsilon=eps, zeta=zeta)


def matrix_is_valid(Q, dist, cfg, tol=1e-9) -> bool:
    entries = Q.entries
    if not verify_ldp(Q, cfg.epsilon, tol=tol).ok:
        return False
    if np.any(np.abs(entries.sum(axis=1) - 1.0) > tol):
        return False
    diag = np.diag(entries)
    if np.any(entries - diag[:, None] > tol):
        return False
    if np.any(entries - diag[None, :] > tol):
        return False
    return float(dist.group_probs @ diag) >= 1.0 - cfg.zeta - tol


def test_criterion_4_solver_matches_brute_force_grid():
    start = time.perf_counter()
    worst = 0.0
    all_valid = True
    for dist, cfg in solver_instances(404, 10):
        res = solve_opt_k(dist, cfg)
        all_valid = all_valid and matrix_is_valid(res.Q, dist, cfg)
        steps = 21 if dist.k == 2 else 11
        _, grid_obj = brute_force_opt_k(dist, cfg, steps)
        worst = max(worst, abs(res.objective - grid_obj))
    elapsed = time.perf_counter() - start
    ok = worst <= 5e-3 and all_valid and elapsed < 600.0
    report(
        4,
        ok,
        f"20 instances, max |solver - grid| {worst:.2e}, "
        f"all outputs valid at 1e-9: {all_valid}, {elapsed:.0f}s",
    )


def test_criterion_5_solver_dominates_feasible_baselines():
    rng = np.random.default_rng(505)
    worst = -math.inf
    for k in (2, 3):
        for _ in range(15):
            dist = random_joint(rng, k, min_prob=0.08)
            eps = float(rng.uniform(0.4, 3.0))
            base = (
                matrix_of_binary(rr_mechanism(eps)) if k == 2 else grr_matrix(k, eps)
            )
            pi = float(base.entries[0, 0])
            zeta = min(1.0, (1.0 - pi) + float(rng.uniform(0.0, 0.3)))
            res = solve_opt_k(dist, SolverConfig(epsilon=eps, zeta=zeta))
            baseline_delta = delta(induced_distribution(dist, base))
            worst = max(worst, res.objective - baseline_delta)
    ok = worst <= 1e-6
    report(5, ok, f"30 instances, max objective excess over baseline {worst:.2e}")


def round_half_away(x: float) -> int:
    return int(math.floor(x + 0.5))


def test_criterion_6_closed_forms_and_subset_frequencies():
    pairs = [(k, eps) for k in (2, 3, 4, 5, 6) for eps in (0.25, 0.7, 1.3, 2.6)]
    assert len(pairs) == 20
    worst = 0.0
    for k, eps in pairs:
        e = math.exp(eps)
        grr = grr_matrix(k, eps)
        worst = max(worst, abs(grr.entries[0, 0] - e / (e + k - 1)))
        worst = max(worst, abs(grr.entries[0, 1] - 1.0 / (e + k - 1)))
        if k == 2:
            rr = rr_mechanism(eps)
            worst = max(worst, abs(rr.p - e / (e + 1)), abs(rr.q - e / (e + 1)))
        sp = ss_params(k, eps)
        omega = min(max(round_half_away(k / (e + 1.0)), 1), k - 1)
        worst = max(worst, abs(sp.omega - omega))
        worst = max(worst, abs(sp.p_true - omega * e / (omega * e + k - omega)))

    sp = ss_params(5, 1.0)
    rng = np.random.default_rng(606)
    n = 1_000_000
    truth_hits = 0
    off_hits = 0
    sizes_ok = True
    for _ in range(n):
        members = ss_perturb(2, sp, rng).members
        truth_hits += 2 in members
        off_hits += 4 in members
        sizes_ok = sizes_ok and len(members) == sp.omega
    t_sigma = math.sqrt(sp.p_true * (1.0 - sp.p_true) / n)
    o_sigma = math.sqrt(sp.p_off * (1.0 - sp.p_off) / n)
    t_dev = abs(truth_hits / n - sp.p_true)
    o_dev = abs(off_hits / n - sp.p_off)
    ok = worst <= 1e-12 and sizes_ok and t_dev <= 3 * t_sigma and o_dev <= 3 * o_sigma
    report(
        6,
        ok,
        f"20 closed-form pairs max err {worst:.1e}; membership devs "
        f"{t_dev / t_sigma:.2f} sigma (truth), {o_dev / o_sigma:.2f} sigma (other)",
    )


def test_criterion_7_designed_mechanisms_sit_on_the_privacy_boundary():
    rng = np.random.default_rng(707)
    binary_ok = True
    for _ in range(60):
        p0 = float(rng.uniform(0.05, 0.95))
        rates = rng.uniform(0.02, 0.98, size=2)
        dist = JointDistribution.from_rates([p0, 1.0 - p0], rates)
        eps = float(rng.uniform(0.05, 5.0))
        res = opt_binary(dist, eps)
        level = privacy_level(matrix_of_binary(res.mechanism))
        binary_ok = binary_ok and abs(level - eps) <= 1e-6

    kary_ok = True
    strictly_below = 0
    for dist, cfg in solver_instances(717, 6):
        res = solve_opt_k(dist, cfg)
        level = privacy_level(res.Q)
        if abs(level - cfg.epsilon) <= 1e-6:
            continue
        ldp_slacks = [
            v for name, v in res.certificate.slacks.items() if name.startswith("ldp")
        ]
        kary_ok = kary_ok and level < cfg.epsilon and min(ldp_slacks) > 0.0
        strictly_below += 1
    ok = binary_ok and kary_ok
    report(
        7,
        ok,
        f"60 binary designs exactly at budget: {binary_ok}; 12 k-ary designs, "
        f"{strictly_below} strictly below with slack certificates: {kary_ok}",
    )


def test_criterion_8_planted_trend_beats_nonprivate_and_rr(tmp_path):
    start = time.perf_counter()
    data = tmp_path / "planted.csv"
    export_csv(generate_planted(2000, seed=23), data)
    columns = ColumnsConfig(sensitive="group", label="label", positive_label="1")

    def run(mechanism, epsilon):
        cfg = RunConfig(
            data=str(data),
            columns=columns,
            mechanism=mechanism,
            seed=101,
            epsilon=epsilon,
            split=SplitConfig(train_fraction=0.75, trials=20),
        )
        return cmd_evaluate(cfg)

    non_private = run(Mechanism.NON_PRIVATE, None)
    opt = run(Mechanism.OPT_BINARY, 1.0)
    rr = run(Mechanism.RR, 1.0)
    elapsed = time.perf_counter() - start

    sp_np = non_private["summary"]["sp_gap"]["mean"]
    sp_opt = opt["summary"]["sp_gap"]["mean"]
    acc_np = non_private["summary"]["accuracy"]["mean"]
    acc_opt = opt["summary"]["accuracy"]["mean"]
    opt_vs_rr = sum(
        o["sp_gap"] <= r["sp_gap"] for o, r in zip(opt["trials"], rr["trials"])
    )
    opt_vs_np = sum(
        o["sp_gap"] < n["sp_gap"] for o, n in zip(opt["trials"], non_private["trials"])
    )
    ok = (
        sp_opt < sp_np
        and abs(acc_opt - acc_np) <= 0.03
        and opt_vs_rr >= 15
        and opt_vs_np >= 16
        and elapsed < 120.0
    )
    report(
        8,
        ok,
        f"sp_gap {sp_opt:.3f} vs non-private {sp_np:.3f}, accuracy gap "
        f"{abs(acc_opt - acc_np):.3f}, beats RR {opt_vs_rr}/20, beats "
        f"non-private {opt_vs_np}/20, {elapsed:.0f}s",
    )


def test_criterion_9_evaluation_reports_are_byte_stable(tmp_path):
    data = tmp_path / "planted.csv"
    export_csv(generate_planted(400, seed=7), data)
    cfg = RunConfig(
        data=str(data),
        columns=ColumnsConfig(sensitive="group", label="label", positive_label="1"),
        mechanism=Mechanism.GRR,
        seed=7,
        epsilon=1.0,
        split=SplitConfig(train_fraction=0.75, trials=5),
    )
    first = render_json(cmd_evaluate(cfg))
    second = render_json(cmd_evaluate(cfg))
    ok = first == second
    report(9, ok, f"repeat identical: {ok}")
