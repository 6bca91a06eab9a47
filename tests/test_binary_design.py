"""Tests for the closed-form binary design and its search oracle."""

import math

import numpy as np
import pytest

from fairldp.binary_design import (
    BinaryDesignResult,
    BranchCase,
    objective_ratio,
    opt_binary,
)
from fairldp.distribution import JointDistribution, delta_prime
from fairldp.errors import InvalidEpsilon, NotBinary, ZeroBaseUnfairness
from oracles import boundary_oracle
from fairldp.mechanisms import (
    BinaryMechanism,
    induced_distribution,
    matrix_of_binary,
    privacy_level,
    rr_mechanism,
)


def random_binary_dist(rng, min_gap=1e-3):
    gp = rng.dirichlet([1.0, 1.0]) * 0.9 + 0.05
    gp = gp / gp.sum()
    rates = np.sort(rng.uniform(0.05, 0.95, 2))
    if rates[1] - rates[0] < min_gap:
        rates[1] = min(0.99, rates[1] + 0.01)
    return JointDistribution.from_rates(gp, rates)


class TestObjectiveRatio:
    def test_identity_preserves(self):
        d = JointDistribution.from_rates([0.4, 0.6], [0.2, 0.7])
        assert objective_ratio(d, 1.0, 1.0) == pytest.approx(1.0, abs=1e-12)

    def test_full_randomization_erases(self):
        d = JointDistribution.from_rates([0.4, 0.6], [0.2, 0.7])
        assert objective_ratio(d, 0.5, 0.5) == pytest.approx(0.0, abs=1e-12)

    def test_even_groups_example(self):
        d = JointDistribution.from_rates([0.5, 0.5], [0.3, 0.7])
        assert objective_ratio(d, 0.75, 0.5) == pytest.approx(
            0.26666666666666666, abs=1e-12
        )

    def test_agrees_with_induced_path(self):
        rng = np.random.default_rng(31)
        for _ in range(100):
            d = random_binary_dist(rng)
            p, q = rng.uniform(0.5, 1.0, 2)
            direct = objective_ratio(d, p, q)
            ind = induced_distribution(d, matrix_of_binary(BinaryMechanism(p, q)))
            assert direct == pytest.approx(
                delta_prime(ind) / delta_prime(d), abs=1e-10
            )

    def test_equal_rates_rejected(self):
        d = JointDistribution.from_rates([0.4, 0.6], [0.5, 0.5])
        with pytest.raises(ZeroBaseUnfairness):
            objective_ratio(d, 0.8, 0.6)

    def test_out_of_range_parameters_rejected(self):
        d = JointDistribution.from_rates([0.4, 0.6], [0.2, 0.7])
        with pytest.raises(ValueError):
            objective_ratio(d, 0.4, 0.8)

    def test_requires_binary(self):
        d = JointDistribution.from_rates([0.3, 0.3, 0.4], [0.2, 0.5, 0.8])
        with pytest.raises(NotBinary):
            objective_ratio(d, 0.8, 0.8)


class TestOptBinary:
    def test_lighter_first_group(self):
        d = JointDistribution.from_rates([0.3, 0.7], [0.2, 0.6])
        res = opt_binary(d, math.log(2))
        assert res.mechanism.p == pytest.approx(0.75, abs=1e-15)
        assert res.mechanism.q == pytest.approx(0.5, abs=1e-15)
        assert res.case_taken is BranchCase.P0_LESS_P1
        assert res.objective == pytest.approx(0.21483375959079284, abs=1e-12)

    def test_lighter_second_group(self):
        d = JointDistribution.from_rates([0.7, 0.3], [0.2, 0.6])
        res = opt_binary(d, math.log(2))
        assert res.mechanism.p == pytest.approx(0.5, abs=1e-15)
        assert res.mechanism.q == pytest.approx(0.75, abs=1e-15)
        assert res.case_taken is BranchCase.P1_LESS_P0

    def test_vanishing_budget_limit(self):
        d = JointDistribution.from_rates([0.3, 0.7], [0.2, 0.6])
        res = opt_binary(d, 1e-9)
        assert res.mechanism.p == pytest.approx(0.5, abs=1e-9)
        assert res.mechanism.q == pytest.approx(0.5, abs=1e-9)
        assert res.objective == pytest.approx(0.0, abs=1e-8)

    def test_tie_case(self):
        d = JointDistribution.from_rates([0.5, 0.5], [0.3, 0.7])
        res = opt_binary(d, 1.0)
        assert res.case_taken is BranchCase.TIE
        assert res.mechanism.p == pytest.approx(0.8160602794142788, abs=1e-15)
        assert res.mechanism.q == 0.5
        assert res.objective == pytest.approx(0.3511367712318451, abs=1e-12)

    def test_decreasing_rates_marked_relabeled(self):
        d = JointDistribution.from_rates([0.3, 0.7], [0.6, 0.2])
        res = opt_binary(d, 1.0)
        assert res.relabeled
        # the mechanism depends only on the group masses, not the rate order
        twin = opt_binary(JointDistribution.from_rates([0.3, 0.7], [0.2, 0.6]), 1.0)
        assert res.mechanism == twin.mechanism

    def test_equal_rates_allowed(self):
        # the contraction factor is well defined even with nothing to contract
        d = JointDistribution.from_rates([0.3, 0.7], [0.4, 0.4])
        res = opt_binary(d, 1.0)
        assert 0.0 < res.objective < 1.0

    def test_invalid_inputs(self):
        d = JointDistribution.from_rates([0.3, 0.7], [0.2, 0.6])
        with pytest.raises(InvalidEpsilon):
            opt_binary(d, 0.0)
        with pytest.raises(InvalidEpsilon):
            opt_binary(d, math.inf)
        with pytest.raises(InvalidEpsilon):
            opt_binary(d, 800.0)
        d3 = JointDistribution.from_rates([0.3, 0.3, 0.4], [0.2, 0.5, 0.8])
        with pytest.raises(NotBinary):
            opt_binary(d3, 1.0)

    def test_solution_in_privacy_region(self):
        rng = np.random.default_rng(40)
        for _ in range(100):
            d = random_binary_dist(rng)
            eps = float(rng.uniform(0.05, 5.0))
            m = opt_binary(d, eps).mechanism
            ee = math.exp(eps)
            assert m.p <= ee * (1.0 - m.q) + 1e-9
            assert m.q <= ee * (1.0 - m.p) + 1e-9

    def test_objective_in_unit_interval(self):
        rng = np.random.default_rng(41)
        for _ in range(100):
            d = random_binary_dist(rng)
            res = opt_binary(d, float(rng.uniform(0.05, 5.0)))
            assert 0.0 <= res.objective <= 1.0

    def test_sits_on_privacy_boundary(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            d = random_binary_dist(rng)
            eps = float(rng.uniform(0.05, 5.0))
            m = opt_binary(d, eps).mechanism
            assert privacy_level(matrix_of_binary(m)) == pytest.approx(eps, abs=1e-9)

    def test_json_shape(self):
        d = JointDistribution.from_rates([0.3, 0.7], [0.2, 0.6])
        payload = opt_binary(d, math.log(2)).to_json_dict()
        assert set(payload) == {"p", "q", "epsilon", "objective", "case"}
        assert payload["case"] == "P0LessP1"
        assert payload["epsilon"] == pytest.approx(math.log(2))


class TestBoundaryOracle:
    def test_matches_closed_form_dense_grid(self):
        d = JointDistribution.from_rates([0.3, 0.7], [0.2, 0.6])
        res = opt_binary(d, math.log(2))
        ph, qh, ob = boundary_oracle(d, math.log(2), 100_000)
        assert abs(ph - res.mechanism.p) < 1e-4
        assert abs(qh - res.mechanism.q) < 1e-4
        assert abs(ob - res.objective) < 1e-6

    def test_strong_privacy_skewed_groups(self):
        d = JointDistribution.from_rates([0.9, 0.1], [0.1, 0.9])
        ph, qh, _ = boundary_oracle(d, 5.0, 100_000)
        assert ph == pytest.approx(0.5, abs=1e-4)
        assert qh == pytest.approx(1.0 - math.exp(-5.0) / 2.0, abs=1e-4)

    def test_tie_curves_equal(self):
        d = JointDistribution.from_rates([0.5, 0.5], [0.2, 0.6])
        _, _, ob = boundary_oracle(d, 1.0, 10_001)
        assert ob == pytest.approx(opt_binary(d, 1.0).objective, abs=1e-8)

    def test_agreement_over_random_instances(self):
        rng = np.random.default_rng(77)
        for _ in range(200):
            d = random_binary_dist(rng)
            eps = float(rng.uniform(0.05, 4.0))
            res = opt_binary(d, eps)
            ph, qh, ob = boundary_oracle(d, eps, 2001)
            assert res.objective <= ob + 1e-6
            step = (math.exp(eps) / (math.exp(eps) + 1.0) - 0.5) / 2000
            assert abs(ph - res.mechanism.p) <= step + 1e-12
            assert abs(qh - res.mechanism.q) <= step + 1e-12

    def test_rejects_coarse_grid(self):
        d = JointDistribution.from_rates([0.3, 0.7], [0.2, 0.6])
        with pytest.raises(ValueError):
            boundary_oracle(d, 1.0, 999)

    def test_deterministic(self):
        d = JointDistribution.from_rates([0.45, 0.55], [0.3, 0.6])
        assert boundary_oracle(d, 0.7, 5000) == boundary_oracle(d, 0.7, 5000)


class TestDesignProperties:
    def test_beats_randomized_response(self):
        rng = np.random.default_rng(90)
        for _ in range(100):
            d = random_binary_dist(rng)
            eps = float(rng.uniform(0.05, 5.0))
            rr = rr_mechanism(eps)
            opt = opt_binary(d, eps)
            assert opt.objective <= objective_ratio(d, rr.p, rr.q) + 1e-12

    def test_branch_matches_direct_comparison(self):
        rng = np.random.default_rng(91)
        strong_of = lambda eps: 1.0 - math.exp(-eps) / 2.0
        for _ in range(100):
            d = random_binary_dist(rng)
            eps = float(rng.uniform(0.1, 4.0))
            s = strong_of(eps)
            first = objective_ratio(d, s, 0.5)
            second = objective_ratio(d, 0.5, s)
            res = opt_binary(d, eps)
            if abs(d.group_probs[0] - d.group_probs[1]) <= 1e-12:
                continue
            if first < second:
                assert res.case_taken is BranchCase.P0_LESS_P1
            else:
                assert res.case_taken is BranchCase.P1_LESS_P0

    def test_induced_rates_stay_ordered(self):
        rng = np.random.default_rng(92)
        for _ in range(100):
            d = random_binary_dist(rng)
            p, q = rng.uniform(0.5, 1.0, 2)
            ind = induced_distribution(d, matrix_of_binary(BinaryMechanism(p, q)))
            assert ind.pos_rates[0] <= ind.pos_rates[1] + 1e-12

    def test_interior_never_beats_boundary_at_own_level(self):
        # any strictly interior mechanism has a privacy level of its own;
        # the boundary optimum at that level must be at least as good
        d = JointDistribution.from_rates([0.3, 0.7], [0.2, 0.6])
        rng = np.random.default_rng(93)
        for _ in range(10_000):
            p, q = rng.uniform(0.5, 1.0, 2)
            lvl = privacy_level(matrix_of_binary(BinaryMechanism(p, q)))
            if lvl == 0.0:
                continue
            assert opt_binary(d, lvl).objective <= objective_ratio(d, p, q) + 1e-9
