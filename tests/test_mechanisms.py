"""Tests for LDP mechanisms, verification, and dataset perturbation."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairldp import mechanisms
from fairldp.dataset import SubsetPerturbedDataset, TabularDataset
from fairldp.distribution import JointDistribution, delta_prime, estimate_distribution
from fairldp.errors import MAX_EPSILON, AlphabetMismatch, DegenerateOutput, InvalidEpsilon
from fairldp.kary_design import SolverConfig, min_achievable_error, solve_opt_k
from fairldp.mechanisms import (
    BinaryMechanism,
    MechanismMatrix,
    SsParams,
    SubsetReport,
    grr_matrix,
    induced_distribution,
    matrix_of_binary,
    perturb_dataset,
    privacy_level,
    record_rng,
    rr_mechanism,
    ss_induced_distribution,
    ss_params,
    ss_perturb,
    ss_privacy_level,
    verify_ldp,
)
from fairldp.pipeline import mechanism_from_payload


def random_distribution(rng, k):
    gp = rng.dirichlet(np.ones(k)) * 0.9 + 0.1 / k
    gp = gp / gp.sum()
    rates = rng.uniform(0.02, 0.98, size=k)
    return JointDistribution.from_rates(gp, rates)


def make_dataset(sensitive, labels=None, k=None):
    sensitive = np.asarray(sensitive)
    if labels is None:
        labels = np.zeros(len(sensitive), dtype=int)
    k = int(sensitive.max()) + 1 if k is None else k
    return TabularDataset(
        feature_columns={"x": np.arange(len(sensitive), dtype=float)},
        sensitive=sensitive,
        labels=np.asarray(labels),
        k=k,
    )


class TestGrrMatrix:
    def test_binary_ln3(self):
        q = grr_matrix(2, math.log(3)).entries
        assert q == pytest.approx(np.array([[0.75, 0.25], [0.25, 0.75]]), abs=1e-12)

    def test_uniform_limit(self):
        q = grr_matrix(4, 1e-12).entries
        assert q == pytest.approx(np.full((4, 4), 0.25), abs=1e-9)

    def test_k5_ln4(self):
        q = grr_matrix(5, math.log(4)).entries
        assert q[0, 0] == pytest.approx(0.5, abs=1e-12)
        assert q[0, 1] == pytest.approx(0.125, abs=1e-12)

    def test_rows_stochastic(self):
        q = grr_matrix(7, 2.3).entries
        assert q.sum(axis=1) == pytest.approx(np.ones(7), abs=1e-12)

    def test_invalid_epsilon(self):
        with pytest.raises(InvalidEpsilon):
            grr_matrix(3, 0.0)
        with pytest.raises(InvalidEpsilon):
            grr_matrix(3, -1.0)


class TestRrMechanism:
    def test_ln3(self):
        m = rr_mechanism(math.log(3))
        assert m.p == pytest.approx(0.75, abs=1e-12)
        assert m.q == pytest.approx(0.75, abs=1e-12)

    def test_small_epsilon_limit(self):
        m = rr_mechanism(1e-12)
        assert m.p == pytest.approx(0.5, abs=1e-9)

    def test_ln9(self):
        m = rr_mechanism(math.log(9))
        assert m.p == pytest.approx(0.9, abs=1e-12)

    def test_invalid_epsilon(self):
        with pytest.raises(InvalidEpsilon):
            rr_mechanism(0.0)


class TestSsParams:
    def test_degenerates_to_grr(self):
        params = ss_params(5, math.log(4))
        assert params.omega == 1
        # with omega = 1 the inclusion probability equals the GRR keep rate
        assert params.p_true == pytest.approx(
            grr_matrix(5, math.log(4)).entries[0, 0], abs=1e-12
        )

    def test_near_zero_epsilon(self):
        omega, p_true = ss_params(10, 1e-9)
        assert omega == 5
        assert p_true == pytest.approx(0.5, abs=1e-6)

    def test_k5_ln2(self):
        omega, p_true = ss_params(5, math.log(2))
        assert omega == 2
        assert p_true == pytest.approx(4.0 / 7.0, abs=1e-12)

    def test_half_rounds_away_from_zero(self):
        # k / (e^eps + 1) = 9/6 = 1.5 exactly
        assert ss_params(9, math.log(5)).omega == 2

    def test_clamped_to_valid_range(self):
        assert ss_params(2, 1e-9).omega == 1
        assert ss_params(4, 10.0).omega == 1

    def test_unpacks_as_pair(self):
        omega, p_true = ss_params(6, 1.0)
        assert isinstance(omega, int)
        assert 0.0 < p_true < 1.0

    def test_level_is_inf_once_p_true_rounds_to_one(self):
        params = ss_params(2, 40.0)
        assert params.p_true == 1.0
        assert ss_privacy_level(params) == math.inf
        assert not params.within(40.0)


@pytest.mark.parametrize(
    "build",
    [
        lambda eps: grr_matrix(3, eps),
        lambda eps: rr_mechanism(eps),
        lambda eps: ss_params(3, eps),
        lambda eps: verify_ldp(grr_matrix(3, 1.0), eps),
        lambda eps: SolverConfig(epsilon=eps, zeta=0.5),
    ],
    ids=["grr", "rr", "ss", "verify_ldp", "solver_config"],
)
def test_epsilon_whose_exponential_overflows_is_rejected(build):
    build(MAX_EPSILON)
    for eps in (math.nextafter(MAX_EPSILON, math.inf), 800.0, math.inf, math.nan):
        with pytest.raises(InvalidEpsilon):
            build(eps)


class TestSsPerturb:
    def test_reports_have_size_omega(self):
        params = ss_params(6, 0.8)
        rng = np.random.default_rng(0)
        for _ in range(200):
            report = ss_perturb(2, params, rng)
            assert report.omega == params.omega
            assert len(report.members) == params.omega
            assert all(0 <= v < 6 for v in report.members)

    def test_omega_one_is_value_report(self):
        params = ss_params(5, math.log(4))
        rng = np.random.default_rng(1)
        hits = 0
        n = 20000
        for _ in range(n):
            report = ss_perturb(3, params, rng)
            assert len(report.members) == 1
            hits += 3 in report.members
        sigma = math.sqrt(params.p_true * (1 - params.p_true) / n)
        assert abs(hits / n - params.p_true) < 3 * sigma + 1e-9

    def test_membership_frequencies(self):
        # Closed forms: Pr(a in R) = p_true; for b != a, by total probability,
        # Pr(b in R) = p_true*(omega-1)/(k-1) + (1-p_true)*omega/(k-1) = 5/14.
        params = ss_params(5, math.log(2))
        rng = np.random.default_rng(42)
        n = 100_000
        counts = np.zeros(5)
        for _ in range(n):
            for v in ss_perturb(1, params, rng).members:
                counts[v] += 1
        freq = counts / n
        p_off = 5.0 / 14.0
        sigma_true = math.sqrt(params.p_true * (1 - params.p_true) / n)
        sigma_off = math.sqrt(p_off * (1 - p_off) / n)
        assert abs(freq[1] - params.p_true) < 3 * sigma_true
        for b in (0, 2, 3, 4):
            assert abs(freq[b] - p_off) < 4 * sigma_off

    def test_rejects_out_of_range_value(self):
        params = ss_params(4, 1.0)
        with pytest.raises(ValueError):
            ss_perturb(4, params, np.random.default_rng(0))


class TestMatrixOfBinary:
    def test_embedding(self):
        q = matrix_of_binary(BinaryMechanism(0.75, 0.5)).entries
        assert q == pytest.approx(np.array([[0.75, 0.25], [0.5, 0.5]]), abs=1e-15)

    def test_identity(self):
        q = matrix_of_binary(BinaryMechanism(1.0, 1.0)).entries
        assert q == pytest.approx(np.eye(2), abs=1e-15)

    def test_full_randomization(self):
        q = matrix_of_binary(BinaryMechanism(0.5, 0.5)).entries
        assert q == pytest.approx(np.full((2, 2), 0.5), abs=1e-15)


class TestVerifyLdp:
    def test_grr_exact_at_epsilon(self):
        eps = 1.3
        audit = verify_ldp(grr_matrix(4, eps), eps)
        assert audit.ok
        assert audit.worst_ratio == pytest.approx(math.exp(eps), rel=1e-12)

    def test_identity_fails(self):
        identity = MechanismMatrix(2, np.eye(2))
        audit = verify_ldp(identity, 5.0)
        assert not audit.ok
        assert audit.worst_ratio == math.inf

    def test_design_point_tight(self):
        eps = 0.9
        m = BinaryMechanism(1 - math.exp(-eps) / 2, 0.5)
        q = matrix_of_binary(m)
        assert verify_ldp(q, eps).ok
        assert not verify_ldp(q, eps - 0.01).ok

    def test_bool_protocol(self):
        assert verify_ldp(grr_matrix(3, 1.0), 1.0)


class TestPrivacyLevel:
    def test_rr_matrix(self):
        eps = 1.7
        q = matrix_of_binary(rr_mechanism(eps))
        assert privacy_level(q) == pytest.approx(eps, abs=1e-9)

    def test_uniform_is_zero(self):
        q = MechanismMatrix(3, np.full((3, 3), 1.0 / 3.0))
        assert privacy_level(q) == 0.0

    def test_enumerated_ratios(self):
        q = MechanismMatrix(2, np.array([[0.75, 0.25], [0.5, 0.5]]))
        assert privacy_level(q) == pytest.approx(math.log(2.0), abs=1e-12)

    def test_zero_entry_is_infinite(self):
        q = MechanismMatrix(2, np.array([[1.0, 0.0], [0.5, 0.5]]))
        assert privacy_level(q) == math.inf

    def test_grr_round_trip(self):
        for k, eps in [(2, 0.3), (3, 1.0), (6, 2.5)]:
            assert privacy_level(grr_matrix(k, eps)) == pytest.approx(eps, abs=1e-9)


class TestInducedDistribution:
    def test_identity_unchanged(self):
        d = JointDistribution.from_rates([0.5, 0.5], [0.2, 0.6])
        out = induced_distribution(d, MechanismMatrix(2, np.eye(2)))
        assert out.pos_rates == pytest.approx(d.pos_rates, abs=1e-15)
        assert out.group_probs == pytest.approx(d.group_probs, abs=1e-15)

    def test_uniform_erases_association(self):
        d = JointDistribution.from_rates([0.3, 0.7], [0.2, 0.6])
        out = induced_distribution(d, MechanismMatrix(2, np.full((2, 2), 0.5)))
        assert out.pos_rates == pytest.approx([d.pos_marginal] * 2, abs=1e-12)
        assert delta_prime(out) == pytest.approx(0.0, abs=1e-12)

    def test_rr_hand_expansion(self):
        d = JointDistribution.from_rates([0.5, 0.5], [0.2, 0.6])
        out = induced_distribution(d, matrix_of_binary(rr_mechanism(math.log(3))))
        assert out.pos_rates == pytest.approx([0.3, 0.5], abs=1e-12)
        assert out.pos_marginal == pytest.approx(0.4, abs=1e-15)

    def test_monte_carlo_cross_check(self):
        d = JointDistribution.from_rates([0.5, 0.5], [0.2, 0.6])
        Q = matrix_of_binary(rr_mechanism(math.log(3)))
        rng = np.random.default_rng(9)
        n = 200_000
        a = rng.choice(2, size=n, p=d.group_probs)
        y = (rng.random(n) < d.pos_rates[a]).astype(int)
        z = np.where(rng.random(n) < 0.75, a, 1 - a)
        emp = [y[z == v].mean() for v in (0, 1)]
        out = induced_distribution(d, Q)
        assert emp == pytest.approx(out.pos_rates, abs=0.01)

    def test_alphabet_mismatch(self):
        d = JointDistribution.from_rates([0.5, 0.5], [0.2, 0.6])
        with pytest.raises(AlphabetMismatch):
            induced_distribution(d, grr_matrix(3, 1.0))

    def test_degenerate_output(self):
        d = JointDistribution.from_rates([0.5, 0.5], [0.2, 0.6])
        dead_column = MechanismMatrix(2, np.array([[1.0, 0.0], [1.0, 0.0]]))
        with pytest.raises(DegenerateOutput):
            induced_distribution(d, dead_column)

    def test_grr_never_increases_delta_prime(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            k = int(rng.integers(2, 6))
            d = random_distribution(rng, k)
            eps = float(rng.uniform(0.01, 5.0))
            out = induced_distribution(d, grr_matrix(k, eps))
            assert delta_prime(out) <= delta_prime(d) + 1e-12

    def test_grr_sandwich_property(self):
        rng = np.random.default_rng(6)
        for _ in range(200):
            k = int(rng.integers(2, 6))
            d = random_distribution(rng, k)
            out = induced_distribution(d, grr_matrix(k, float(rng.uniform(0.05, 4.0))))
            lo, hi = d.pos_rates.min(), d.pos_rates.max()
            assert np.all(out.pos_rates >= lo - 1e-12)
            assert np.all(out.pos_rates <= hi + 1e-12)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_pos_marginal_preserved(self, seed):
        rng = np.random.default_rng(seed)
        k = int(rng.integers(2, 5))
        d = random_distribution(rng, k)
        rows = rng.dirichlet(np.ones(k), size=k)
        out = induced_distribution(d, MechanismMatrix(k, rows))
        assert float(out.group_probs @ out.pos_rates) == pytest.approx(
            d.pos_marginal, abs=1e-9
        )


def same_distribution(a, b):
    return (
        np.array_equal(a.group_probs, b.group_probs)
        and np.array_equal(a.pos_rates, b.pos_rates)
        and a.pos_marginal == b.pos_marginal
    )


class TestMechanismInterface:
    """Both mechanism types answer the same questions as the module functions."""

    def test_matrix_methods_match_functions(self):
        d = random_distribution(np.random.default_rng(3), 3)
        Q = grr_matrix(3, 0.8)
        assert Q.privacy_level() == privacy_level(Q)
        assert same_distribution(Q.induced(d), induced_distribution(d, Q))
        assert Q.within(0.8) and not Q.within(0.7)
        assert Q.report_fields() == {"entries": Q.entries.tolist(), "ss": None}

    def test_subset_methods_match_functions(self):
        d = random_distribution(np.random.default_rng(4), 4)
        params = ss_params(4, 0.9)
        assert params.privacy_level() == ss_privacy_level(params)
        assert same_distribution(params.induced(d), ss_induced_distribution(d, params))
        assert params.within(0.9) and not params.within(0.9 + 1e-6)
        fields = params.report_fields()
        assert fields["entries"] is None
        assert fields["ss"] == {
            "omega": params.omega,
            "p_true": params.p_true,
            "p_off": params.p_off,
            "k": 4,
            "epsilon": 0.9,
        }

    def test_non_finite_entries_rejected(self):
        with pytest.raises(ValueError, match="entries"):
            MechanismMatrix(2, np.array([[math.nan, 1.0], [0.5, 0.5]]))


class TestPerturbDataset:
    def test_identity_round_trip(self):
        ds = make_dataset([0, 1, 1, 0, 1])
        out = perturb_dataset(ds, MechanismMatrix(2, np.eye(2)), seed=99)
        assert np.array_equal(out.sensitive, ds.sensitive)
        assert np.array_equal(out.labels, ds.labels)
        assert np.array_equal(out.feature_columns["x"], ds.feature_columns["x"])

    def test_same_seed_identical(self):
        ds = make_dataset(np.tile([0, 1, 2], 50), k=3)
        Q = grr_matrix(3, 1.0)
        out1 = perturb_dataset(ds, Q, seed=1234)
        out2 = perturb_dataset(ds, Q, seed=1234)
        assert np.array_equal(out1.sensitive, out2.sensitive)

    def test_different_seed_differs(self):
        ds = make_dataset(np.zeros(200, dtype=int), k=2)
        Q = grr_matrix(2, 0.5)
        out1 = perturb_dataset(ds, Q, seed=1)
        out2 = perturb_dataset(ds, Q, seed=2)
        assert not np.array_equal(out1.sensitive, out2.sensitive)

    def test_grr_keep_fraction(self):
        n = 100_000
        ds = make_dataset(np.zeros(n, dtype=int), k=2)
        out = perturb_dataset(ds, grr_matrix(2, math.log(3)), seed=7)
        kept = float(np.mean(out.sensitive == 0))
        assert abs(kept - 0.75) < 0.01

    def test_alphabet_mismatch(self):
        ds = make_dataset([0, 1, 2], k=3)
        with pytest.raises(AlphabetMismatch):
            perturb_dataset(ds, grr_matrix(2, 1.0), seed=0)

    def test_empirical_delta_prime_matches_induced(self):
        rng = np.random.default_rng(17)
        gp = np.array([0.4, 0.6])
        rates = np.array([0.25, 0.65])
        n = 60_000
        sensitive = rng.choice(2, size=n, p=gp)
        labels = (rng.random(n) < rates[sensitive]).astype(int)
        ds = make_dataset(sensitive, labels)
        Q = grr_matrix(2, 1.0)
        out = perturb_dataset(ds, Q, seed=3)
        emp = estimate_distribution(out)
        target = induced_distribution(estimate_distribution(ds), Q)
        # binomial noise on each group rate, three sigma with n/2-ish groups
        sigma = 3.0 * math.sqrt(0.25 / (n / 3))
        assert abs(delta_prime(emp) - delta_prime(target)) < 2 * sigma

    def test_ss_output_is_indicator_encoded(self):
        ds = make_dataset([0, 1, 2, 1], k=3)
        params = ss_params(3, 0.4)
        out = perturb_dataset(ds, params, seed=5)
        assert isinstance(out, SubsetPerturbedDataset)
        assert len(out.indicator_columns) == 3
        stacked = np.stack(list(out.indicator_columns.values()), axis=1)
        assert np.all(stacked.sum(axis=1) == params.omega)
        assert np.array_equal(out.indicator_matrix(), stacked)

    def test_matrix_output_indicator_matrix_is_one_hot(self):
        ds = make_dataset([2, 0, 1, 2], k=3)
        out = perturb_dataset(ds, MechanismMatrix(3, np.eye(3)), seed=5)
        assert np.array_equal(out.indicator_matrix(), np.eye(3)[[2, 0, 1, 2]])

    def test_ss_alphabet_mismatch(self):
        ds = make_dataset([0, 1, 2], k=3)
        with pytest.raises(AlphabetMismatch):
            perturb_dataset(ds, ss_params(4, 1.0), seed=0)

    def test_ss_refuses_metric_estimation(self):
        ds = make_dataset([0, 1, 0, 1])
        out = perturb_dataset(ds, ss_params(2, 1.0), seed=5)
        with pytest.raises(TypeError):
            estimate_distribution(out)


# seeds on both sides of 2^32 and 2^64: the record seed seed ^ i spans one to
# five 32-bit entropy words
EXACT_SEEDS = (0, 2**32 - 1, 2**32, 2**63 - 1, 2**64 + 2**33 + 5, 2**130 + 7)


def loop_matrix_release(ds, Q, seed):
    """The per-record definition: one record_rng(seed, i).random() per row."""
    cum = np.cumsum(Q.entries, axis=1)
    cum[:, -1] = 1.0
    return np.array(
        [
            int(np.searchsorted(cum[a], record_rng(seed, i).random(), side="right"))
            for i, a in enumerate(ds.sensitive)
        ]
    )


def loop_subset_release(ds, params, seed):
    """The per-record definition: ss_perturb with record_rng(seed, i)."""
    out = np.zeros((ds.n, ds.k))
    for i, a in enumerate(ds.sensitive):
        for v in ss_perturb(int(a), params, record_rng(seed, i)).members:
            out[i, v] = 1.0
    return out


def stacked_indicators(released):
    return np.stack(list(released.indicator_columns.values()), axis=1)


def random_codes(k, n, salt):
    return make_dataset(np.random.default_rng(salt).integers(0, k, n), k=k)


class TestBulkReleaseExact:
    """The one-pass release equals the per-record loop bit for bit."""

    def test_raw_outputs_match_default_rng(self):
        for seed in EXACT_SEEDS:
            # the window crosses index 2^32, where seed ^ i gains a word
            start = 2**32 - 3
            got = mechanisms._record_outputs(seed, start, start + 6, 3)
            for r in range(6):
                raw = np.random.default_rng(seed ^ (start + r)).bit_generator.random_raw(3)
                assert np.array_equal(got[r], raw)

    @pytest.mark.parametrize("seed", EXACT_SEEDS)
    @pytest.mark.parametrize("k", range(2, 17))
    def test_matrix_release(self, seed, k):
        ds = random_codes(k, 400, k)
        rows = np.random.default_rng(k).dirichlet(np.full(k, 0.3), size=k)
        Q = MechanismMatrix(k, rows)
        out = perturb_dataset(ds, Q, seed)
        assert np.array_equal(out.sensitive, loop_matrix_release(ds, Q, seed))

    @pytest.mark.parametrize("seed", EXACT_SEEDS)
    @pytest.mark.parametrize("k", range(2, 17))
    def test_subset_release(self, seed, k):
        ds = random_codes(k, 300, k)
        # omega = 1 never calls choice when the truth is kept; omega = k - 1
        # without the truth has the bound-zero step that draws nothing
        omegas = {1, k - 1, ss_params(k, 1.0).omega}
        for omega in sorted(omegas):
            params = SsParams(omega=omega, p_true=0.6, k=k, epsilon=1.0)
            out = perturb_dataset(ds, params, seed)
            expected = loop_subset_release(ds, params, seed)
            assert np.array_equal(stacked_indicators(out), expected), omega

    def test_subset_release_past_floyd_population(self):
        # above 10 000 others and 1/50 of them, choice shuffles instead
        k = mechanisms._FLOYD_MAX_POP + 2
        ds = make_dataset([0, 5, k - 1, 17], k=k)
        params = SsParams(omega=300, p_true=0.5, k=k, epsilon=1.0)
        out = perturb_dataset(ds, params, 2**32 + 1)
        assert np.array_equal(stacked_indicators(out), loop_subset_release(ds, params, 2**32 + 1))

    def test_matrices_with_zero_entries(self):
        ds = random_codes(5, 2000, 3)
        identity = MechanismMatrix(5, np.eye(5))
        assert np.array_equal(perturb_dataset(ds, identity, 11).sensitive, ds.sensitive)
        # zero entries in every row and a column that is never reported
        holes = np.array(
            [
                [0.0, 0.5, 0.0, 0.5, 0.0],
                [0.0, 0.0, 0.25, 0.75, 0.0],
                [0.3, 0.0, 0.0, 0.7, 0.0],
                [0.0, 0.0, 0.0, 1.0, 0.0],
                [0.125, 0.375, 0.5, 0.0, 0.0],
            ]
        )
        Q = MechanismMatrix(5, holes)
        for seed in EXACT_SEEDS:
            out = perturb_dataset(ds, Q, seed)
            assert np.array_equal(out.sensitive, loop_matrix_release(ds, Q, seed))
        assert not np.any(out.sensitive == 4)

    def test_draws_on_a_cumulative_boundary_skip_zero_entries(self, monkeypatch):
        # u = 0, 1/2 and 3/4 sit exactly on cumulative sums of a row with
        # zero entries; searchsorted(side="right") never reports those values
        ds = make_dataset([0, 0, 0, 1, 1, 1], k=4)
        Q = MechanismMatrix(
            4,
            np.array(
                [
                    [0.0, 0.5, 0.0, 0.5],
                    [0.0, 0.75, 0.0, 0.25],
                    [0.25, 0.25, 0.25, 0.25],
                    [0.25, 0.25, 0.25, 0.25],
                ]
            ),
        )
        u = np.array([0.0, 0.5, 0.75, 0.0, 0.5, 0.75])

        def crafted_outputs(seed, start, stop, m):
            return (u[start:stop, None] * 2.0**53).astype(np.uint64) << np.uint64(11)

        monkeypatch.setattr(mechanisms, "_record_outputs", crafted_outputs)
        out = perturb_dataset(ds, Q, 0)
        assert out.sensitive.tolist() == [1, 3, 3, 1, 1, 3]

    def test_optkary_design(self):

        dist = JointDistribution.from_rates(
            np.array([0.4, 0.3, 0.2, 0.1]), np.array([0.2, 0.4, 0.6, 0.8])
        )
        floor = min_achievable_error(dist, 1.0)
        Q = solve_opt_k(dist, SolverConfig(epsilon=1.0, zeta=floor + 0.1 * (1 - floor))).Q
        ds = random_codes(4, 3000, 4)
        out = perturb_dataset(ds, Q, 2**40 + 1)
        assert np.array_equal(out.sensitive, loop_matrix_release(ds, Q, 2**40 + 1))

    def test_several_chunks(self):
        n = 2 * mechanisms._CHUNK + 123
        ds = random_codes(6, n, 6)
        seed = 2**62 + 9
        Q = grr_matrix(6, 1.0)
        out = perturb_dataset(ds, Q, seed)
        assert np.array_equal(out.sensitive, loop_matrix_release(ds, Q, seed))
        params = ss_params(6, 0.5)
        out = perturb_dataset(ds, params, seed)
        assert np.array_equal(stacked_indicators(out), loop_subset_release(ds, params, seed))

    def test_negative_seed_raises_like_default_rng(self):
        ds = random_codes(3, 10, 0)
        with pytest.raises(ValueError) as expected:
            record_rng(-5, 0)
        for mech in (grr_matrix(3, 1.0), ss_params(3, 1.0)):
            with pytest.raises(ValueError) as bulk:
                perturb_dataset(ds, mech, -5)
            assert str(bulk.value) == str(expected.value)

    def test_rejected_bounded_draw_falls_back_to_ss_perturb(self, monkeypatch):
        # a zero 32-bit draw lands in Lemire's rejection zone whenever the
        # bound + 1 is not a power of two: here bounds 4 and 5 (k = 8, omega = 3)
        ds = random_codes(8, 500, 8)
        params = SsParams(omega=3, p_true=0.5, k=8, epsilon=1.0)
        seed = 2**33 + 3
        expected = loop_subset_release(ds, params, seed)
        crafted = np.arange(0, 500, 7)
        real_outputs = mechanisms._record_outputs

        def outputs_with_rejections(seed, start, stop, m):
            out = real_outputs(seed, start, stop, m)
            out[crafted, 1] &= np.uint64(0xFFFFFFFF00000000)
            return out

        fallback_rows = []
        real_ss_perturb = mechanisms.ss_perturb

        def spy(a, params, rng):
            fallback_rows.append(a)
            return real_ss_perturb(a, params, rng)

        monkeypatch.setattr(mechanisms, "_record_outputs", outputs_with_rejections)
        monkeypatch.setattr(mechanisms, "ss_perturb", spy)
        out = perturb_dataset(ds, params, seed)
        assert fallback_rows == [int(a) for a in ds.sensitive[crafted]]
        assert np.array_equal(stacked_indicators(out), expected)


class TestSerialization:
    def test_matrix_round_trip(self):
        Q = grr_matrix(3, 1.2)
        payload = json.loads(json.dumps({"k": Q.k, **Q.report_fields()}))
        back = mechanism_from_payload(payload)
        assert np.array_equal(back.entries, Q.entries)
        assert back.privacy_level() == pytest.approx(1.2, abs=1e-9)

    def test_subset_report_sorted(self):
        report = SubsetReport(omega=3, members=frozenset({4, 0, 2}))
        assert report.to_sorted_list() == [0, 2, 4]
