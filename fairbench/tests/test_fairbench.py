"""Tests of the benchmark itself, on small inputs.

Each output check must pass on the program's real output and fail once
that output is corrupted; both run modes must print exactly the metric
names BENCHMARK.json declares.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
for path in (ROOT / "src", BENCH):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import checks  # noqa: E402
import fairldp as fl  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SMALL = {
    "release_stream": {"records": 4000},
    "design_grid": {"per_k": 2, "binary": 2, "fixed": 1, "sample_every": 1},
    "fairness_sweep": {"records": 2000, "epsilons": (1.0,)},
}


def declared(kind: str) -> set[str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {metric["name"] for metric in spec[kind]}


@pytest.fixture(scope="module")
def kary_design():
    dist = fl.JointDistribution.from_rates([0.5, 0.3, 0.2], [0.2, 0.5, 0.8])
    min_error = fl.min_achievable_error(dist, 1.0)
    zeta = min_error + 0.05 * (1.0 - min_error)
    result = fl.solve_opt_k(dist, fl.SolverConfig(epsilon=1.0, zeta=zeta))
    return dist, zeta, min_error, result


def test_kary_checks_pass_on_real_design(kary_design):
    dist, zeta, min_error, res = kary_design
    gp, pr = dist.group_probs, dist.pos_rates
    assert checks.check_kary_design(gp, pr, 1.0, zeta, res.Q.entries, res.objective) == []
    assert checks.check_optimality(gp, pr, 1.0, zeta, res.objective, min_error) == []


def test_tampered_q_entry_fails(kary_design):
    dist, zeta, _, res = kary_design
    Q = res.Q.entries.copy()
    Q[0, 1] += 0.05
    Q[0, 0] -= 0.05
    found = checks.check_kary_design(dist.group_probs, dist.pos_rates, 1.0, zeta, Q, res.objective)
    assert found


def test_shifted_objective_fails(kary_design):
    dist, zeta, min_error, res = kary_design
    gp, pr = dist.group_probs, dist.pos_rates
    shifted = res.objective + 1e-3
    assert checks.check_kary_design(gp, pr, 1.0, zeta, res.Q.entries, shifted)
    assert checks.check_optimality(gp, pr, 1.0, zeta, shifted, min_error)
    assert checks.check_optimality(gp, pr, 1.0, zeta, res.objective, min_error + 1e-4)


def test_binary_checks():
    dist = fl.JointDistribution.from_rates([0.65, 0.35], [0.3, 0.7])
    res = fl.opt_binary(dist, 1.0)
    m = res.mechanism
    gp, pr = dist.group_probs, dist.pos_rates
    assert checks.check_binary_design(gp, pr, 1.0, m.p, m.q, res.objective) == []
    assert checks.check_binary_design(gp, pr, 1.0, m.p, m.q, res.objective + 1e-3)
    # the randomized-response point is private but not optimal
    keep = np.e / (np.e + 1.0)
    rr = float(checks.binary_ratio(gp, pr, keep, keep))
    assert checks.check_binary_design(gp, pr, 1.0, keep, keep, rr)


@pytest.fixture(scope="module")
def release():
    data = fl.generate_planted(
        20000,
        fl.PlantedConfig(group_probs=(0.5, 0.3, 0.2), pos_rates=(0.2, 0.5, 0.8)),
        seed=3,
    )
    Q = fl.grr_matrix(3, 1.0)
    out = fl.perturb_dataset(data, Q, 11)
    return data, Q.entries, np.array(out.sensitive)


def test_release_checks_pass(release):
    data, Q, released = release
    truth, labels = np.asarray(data.sensitive), np.asarray(data.labels)
    assert checks.check_matrix_release(truth, released, Q, 1e-6) == []
    assert checks.check_released_rates(truth, labels, released, Q, 1e-6) == []


def test_swapped_report_fails(release):
    data, Q, released = release
    truth, labels = np.asarray(data.sensitive), np.asarray(data.labels)
    swapped = released.copy()
    group = truth == 1
    swapped[group & (released == 0)] = 2
    assert checks.check_matrix_release(truth, swapped, Q, 1e-6)
    assert checks.check_released_rates(truth, labels, swapped, Q, 1e-6)


def test_subset_release_checks():
    data = fl.generate_planted(
        20000,
        fl.PlantedConfig(group_probs=(0.25,) * 4, pos_rates=(0.2, 0.4, 0.6, 0.8)),
        seed=4,
    )
    params = fl.ss_params(4, 0.5)
    out = fl.perturb_dataset(data, params, 5)
    indicators = np.stack(
        [out.indicator_columns[f"group={v}"] for v in range(4)], axis=1
    )
    truth = np.asarray(data.sensitive)
    omega, p_true, p_off = checks.subset_closed_form(4, 0.5)
    assert (omega, p_true) == (params.omega, params.p_true)
    assert checks.check_subset_release(truth, indicators, omega, p_true, p_off, 1e-6) == []
    dropped = indicators.copy()
    dropped[7] = 0.0
    assert checks.check_subset_release(truth, dropped, omega, p_true, p_off, 1e-6)
    # reports drawn from the wrong group: the count check must notice
    shifted = np.roll(indicators, 1, axis=1)
    assert checks.check_subset_release(truth, shifted, omega, p_true, p_off, 1e-6)


def test_changed_passthrough_cell_fails(tmp_path):
    src = tmp_path / "in.csv"
    src.write_text("x1,region,group,label\n0.5,north,0,1\n1.5,south,1,0\n", encoding="utf-8")
    good = tmp_path / "good.csv"
    good.write_text("# seed=1\nx1,region,group,label\n0.5,north,1,1\n1.5,south,1,0\n", encoding="utf-8")
    bad = tmp_path / "bad.csv"
    bad.write_text("# seed=1\nx1,region,group,label\n0.5,north,1,1\n1.5,east,1,0\n", encoding="utf-8")
    assert checks.check_passthrough(src, good, "group", ["0", "1"]) == []
    assert checks.check_passthrough(src, bad, "group", ["0", "1"])


def test_sweep_check_fails_on_corrupted_report():
    out = run.OUT / "test-sweep"
    out.mkdir(parents=True, exist_ok=True)
    try:
        sweep = workloads.FairnessSweep(7, out, SMALL["fairness_sweep"])
        sweep.setup()
        sweep.round()
        assert sweep.check() == []
        rows = sweep.first[0]["rows"]
        for row in rows:
            if row["mechanism"] == "NonPrivate" and row["metric"] == "accuracy":
                row["mean"] = 0.5
        assert sweep.check()
    finally:
        shutil.rmtree(out, ignore_errors=True)


def test_seeded_inputs_do_not_reach_the_solver_fault():
    # stratified tables: the same empirical distribution for every seed
    tables = [workloads.stratified_planted(3000, workloads.KARY_TABLE, seed) for seed in (1, 2)]
    dists = [fl.estimate_distribution(table) for table in tables]
    assert np.array_equal(dists[0].group_probs, dists[1].group_probs)
    assert np.array_equal(dists[0].pos_rates, dists[1].pos_rates)
    assert not np.array_equal(tables[0].feature_columns["x1"], tables[1].feature_columns["x1"])
    # design_grid: the seed picks pool draws, never a listed faulting one
    grid = workloads.DesignGrid(3, run.OUT, None)
    grid.setup()
    faults = [workloads.pool_instance(*draw) for draw in workloads.POOL_FAULTS]
    seeded = grid.instances[: len(workloads.GRID_KS) * grid.sizes["per_k"]]
    for inst in seeded:
        assert not any(np.array_equal(inst[3], fault[3]) for fault in faults)


def test_timed_keeps_each_requests_fastest_repeat():
    work = workloads.Workload(0, run.OUT)
    for pauses in ((0.02, 0.0), (0.0, 0.01)):
        for pause in pauses:
            work.timed(time.sleep, pause)
        work.rounds += 1
    assert len(work.best_s) == 2
    assert work.best_s[0] < 0.01 and work.best_s[1] < 0.005
    assert work.attempted == 4


@pytest.mark.parametrize("name", sorted(SMALL))
def test_both_modes_print_declared_metrics(name):
    plain, failures = run.run_workload(name, 5, 0.01, False, time.perf_counter(), SMALL[name])
    assert failures == [] and plain["correct"]
    traced, failures = run.run_workload(name, 5, 0.01, True, time.perf_counter(), SMALL[name])
    assert failures == [] and traced["correct"]
    assert set(plain["metrics"]) == declared("end_to_end")
    assert set(traced["metrics"]) == declared("per_layer")
    assert plain["attempted"] == traced["attempted"] >= 1
    assert plain["failed"] == traced["failed"]
    for metric in plain["metrics"].values():
        assert metric["value"] > 0


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", "design_grid", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
