"""Tests for the logistic trainer, thresholding, and fairness gaps."""

import hashlib
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import expit

from fairldp import evaluation
from fairldp.dataset import TabularDataset
from fairldp.errors import (
    EmptyGroup,
    NonFiniteLoss,
    SchemaMismatch,
    SingleClassTrainingSet,
    UndefinedRate,
)
from fairldp.evaluation import (
    NEWTON_STEPS,
    Calibration,
    FairnessReport,
    GroupStats,
    LinearClassifier,
    TrainConfig,
    base_rate_threshold,
    equalized_odds_gaps,
    equalized_opportunity_gap,
    evaluate,
    statistical_parity_gap,
    train_logistic,
)


def make_dataset(features, sensitive, labels, k=2):
    return TabularDataset(
        feature_columns=features,
        sensitive=np.asarray(sensitive),
        labels=np.asarray(labels),
        k=k,
    )


def gaussian_dataset(rng, n, signal=2.0, k=2):
    groups = rng.integers(0, k, n)
    labels = rng.integers(0, 2, n)
    x1 = rng.standard_normal(n) + signal * (labels - 0.5)
    x2 = rng.standard_normal(n)
    return make_dataset({"x1": x1, "x2": x2}, groups, labels, k=k)


def separable_toy():
    rng = np.random.default_rng(0)
    n = 200
    labels = rng.integers(0, 2, n)
    x1 = labels * 2.0 - 1.0 + 0.1 * rng.standard_normal(n)
    return make_dataset({"x1": x1}, rng.integers(0, 2, n), labels)


def separable_threshold():
    """Complete separation: the label is [x > 0]."""
    rng = np.random.default_rng(7)
    x = rng.standard_normal(400)
    return make_dataset({"x": x}, rng.integers(0, 2, 400), (x > 0).astype(int))


def group_all_positive():
    """Quasi-complete separation: every record of group 2 is positive."""
    rng = np.random.default_rng(8)
    n = 400
    groups = rng.integers(0, 3, n)
    labels = rng.integers(0, 2, n)
    x1 = rng.standard_normal(n) + (labels - 0.5)
    labels[groups == 2] = 1
    return make_dataset({"x1": x1, "x2": rng.standard_normal(n)}, groups, labels, k=3)


def gradient_descent_oracle(ds, learning_rate=0.5, max_epochs=3000, grad_tol=1e-7):
    """Plain full-batch gradient descent on the trainer's standardized design.

    Written apart from the package: the numeric columns in sorted name order,
    standardized by the training mean and standard deviation, then the
    sensitive one-hot block and the bias column.
    """
    names = sorted(ds.feature_columns)
    numeric = np.stack([ds.feature_columns[name] for name in names], axis=1)
    sigma = numeric.std(axis=0)
    sigma[sigma == 0.0] = 1.0
    numeric = (numeric - numeric.mean(axis=0)) / sigma
    one_hot = np.eye(ds.k)[np.asarray(ds.sensitive)]
    X = np.concatenate([numeric, one_hot, np.ones((ds.n, 1))], axis=1)
    y = np.asarray(ds.labels, dtype=float)
    w = np.zeros(X.shape[1])
    for _ in range(max_epochs):
        grad = X.T @ (expit(X @ w) - y) / len(y)
        if np.abs(grad).max() < grad_tol:
            break
        w = w - learning_rate * grad
    return w


def zero_model(feature_names=("x1", "x2"), k=2, calibration=Calibration.FIXED):
    d = len(feature_names)
    return LinearClassifier(
        weights=np.zeros(d + k + 1),
        threshold=0.5,
        calibration=calibration,
        feature_names=tuple(feature_names),
        mu=np.zeros(d),
        sigma=np.ones(d),
        k=k,
        sensitive_as_feature=True,
    )


class TestTrainConfig:
    def test_defaults(self):
        cfg = TrainConfig()
        assert cfg.calibration is Calibration.BASE_RATE_MATCH
        assert cfg.sensitive_as_feature

    def test_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(learning_rate=0.0)
        with pytest.raises(ValueError):
            TrainConfig(max_epochs=0)
        with pytest.raises(ValueError):
            TrainConfig(grad_tol=-1.0)


class TestTrainLogistic:
    def test_separable_toy(self):
        ds = separable_toy()
        model = train_logistic(ds, TrainConfig(calibration=Calibration.FIXED))
        assert (model.predict(ds) == ds.labels).mean() >= 0.99

    def test_no_signal_hits_class_prior(self):
        rng = np.random.default_rng(1)
        n = 2000
        labels = (rng.random(n) < 0.6).astype(int)
        ds = make_dataset(
            {"x1": rng.standard_normal(n), "x2": rng.standard_normal(n)},
            rng.integers(0, 2, n),
            labels,
        )
        idx = np.arange(n)
        train, test = ds.subset(idx[:1500]), ds.subset(idx[1500:])
        model = train_logistic(train, TrainConfig(calibration=Calibration.FIXED))
        acc = (model.predict(test) == test.labels).mean()
        prior = max(test.labels.mean(), 1.0 - test.labels.mean())
        assert abs(acc - prior) <= 0.05

    def test_single_class_rejected(self):
        ds = make_dataset({"x1": np.ones(10)}, np.zeros(10, int), np.ones(10, int))
        with pytest.raises(SingleClassTrainingSet):
            train_logistic(ds)

    def test_non_finite_features_fail_loudly(self):
        x = np.ones(10)
        x[3] = np.nan
        ds = make_dataset({"x1": x}, np.zeros(10, int), np.arange(10) % 2)
        with pytest.raises(NonFiniteLoss):
            train_logistic(ds)

    def test_non_finite_logits_fail_loudly_in_fallback(self, monkeypatch):
        monkeypatch.setattr(evaluation, "_newton", lambda X, y, grad_tol: None)
        x = np.ones(10)
        x[3] = np.nan
        ds = make_dataset({"x1": x}, np.zeros(10, int), np.arange(10) % 2)
        with pytest.raises(NonFiniteLoss):
            train_logistic(ds)

    def test_deterministic(self):
        rng = np.random.default_rng(2)
        ds = gaussian_dataset(rng, 300)
        w1 = train_logistic(ds).weights
        w2 = train_logistic(ds).weights
        assert np.array_equal(w1, w2)

    def test_constant_feature_survives_standardization(self):
        rng = np.random.default_rng(3)
        n = 200
        labels = rng.integers(0, 2, n)
        ds = make_dataset(
            {"x1": labels + 0.01 * rng.standard_normal(n), "flat": np.full(n, 7.0)},
            rng.integers(0, 2, n),
            labels,
        )
        model = train_logistic(ds, TrainConfig(calibration=Calibration.FIXED))
        assert np.all(np.isfinite(model.weights))
        assert (model.predict(ds) == ds.labels).mean() >= 0.95


# sha256 of train_logistic's weights, recorded from the gradient-descent-only
# trainer that preceded the Newton path; separated data has no finite
# minimiser, so it must keep reaching gradient descent and these bytes
SEPARATED_WEIGHTS_SHA256 = {
    "toy": "097b9632ea5e08316cf23ba8ecb82cac7ee1d91305dec959943032db50d70f55",
    "threshold": "76af27d426f33df20ed92fc2cc16a2350f56d77a670ce268a3ec24625a937dd0",
    "group_all_positive": "97bf75b3ae1b0db0e420feeb03e1c1da8882e3fd5a433319dbe9ae8bd1b3ba68",
}


class TestNewtonTrainer:
    @pytest.mark.parametrize(
        "name, make",
        [
            ("toy", separable_toy),
            ("threshold", separable_threshold),
            ("group_all_positive", group_all_positive),
        ],
    )
    def test_separated_data_keeps_gradient_descent_bytes(self, name, make):
        weights = train_logistic(make()).weights
        digest = hashlib.sha256(weights.tobytes()).hexdigest()
        assert digest == SEPARATED_WEIGHTS_SHA256[name]

    @pytest.mark.parametrize(
        "seed, n, k", [(20, 300, 2), (21, 500, 2), (22, 800, 3), (23, 1200, 4), (24, 2000, 2)]
    )
    def test_newton_reaches_the_gradient_descent_minimiser(self, monkeypatch, seed, n, k):
        ds = gaussian_dataset(np.random.default_rng(seed), n, k=k)
        calls = []

        def counted(z):
            calls.append(1)
            return expit(z)

        monkeypatch.setattr(evaluation, "expit", counted)
        weights = train_logistic(ds).weights
        assert len(calls) <= NEWTON_STEPS
        np.testing.assert_allclose(weights, gradient_descent_oracle(ds), rtol=0, atol=1e-5)

    def test_linalg_error_falls_back_to_gradient_descent(self, monkeypatch):
        def singular(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(np.linalg, "lstsq", singular)
        ds = gaussian_dataset(np.random.default_rng(25), 400)
        weights = train_logistic(ds).weights
        assert weights.tobytes() == gradient_descent_oracle(ds).tobytes()


class TestBaseRateThreshold:
    def test_exact_count_on_distinct_scores(self):
        rng = np.random.default_rng(4)
        scores = rng.uniform(0.01, 0.99, 101)
        for rate in (0.0, 0.25, 0.5, 0.9, 1.0):
            cut = base_rate_threshold(scores, rate)
            assert (scores > cut).sum() == math.floor(rate * 101)

    def test_ties_fall_negative(self):
        scores = np.array([0.9, 0.5, 0.5, 0.1])
        cut = base_rate_threshold(scores, 0.5)
        assert (scores > cut).sum() == 1

    @given(
        scores=st.lists(
            st.floats(0.001, 0.999), min_size=2, max_size=60, unique=True
        ),
        rate=st.floats(0.0, 1.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_rate_matched_within_one_record(self, scores, rate):
        arr = np.asarray(scores)
        cut = base_rate_threshold(arr, rate)
        assert 0.0 < cut < 1.0
        assert abs((arr > cut).mean() - rate) <= 1.0 / len(scores)


class TestStatisticalParityGap:
    def test_constant_predictions(self):
        groups = np.array([0, 0, 1, 1, 2, 2])
        assert statistical_parity_gap(np.ones(6, int), groups) == 0.0

    def test_hand_built_rates(self):
        # group rates 0.4, 0.7, 0.5 -> spread 0.3
        preds = np.concatenate([
            np.repeat([1, 0], [4, 6]),
            np.repeat([1, 0], [7, 3]),
            np.repeat([1, 0], [5, 5]),
        ])
        groups = np.repeat([0, 1, 2], 10)
        assert statistical_parity_gap(preds, groups) == pytest.approx(0.3, abs=1e-15)

    def test_matches_counting_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            n = int(rng.integers(20, 200))
            preds = rng.integers(0, 2, n)
            groups = rng.integers(0, 3, n)
            if len(set(groups.tolist())) < 3:
                continue
            rates = []
            for a in range(3):
                hits = sum(1 for p, g in zip(preds, groups) if g == a and p == 1)
                total = sum(1 for g in groups if g == a)
                rates.append(hits / total)
            expected = max(rates) - min(rates)
            assert statistical_parity_gap(preds, groups, 3) == pytest.approx(
                expected, abs=1e-15
            )

    def test_empty_group(self):
        with pytest.raises(EmptyGroup):
            statistical_parity_gap(np.array([1, 0]), np.array([0, 0]), k=2)

    def test_relabel_and_order_invariance(self):
        rng = np.random.default_rng(6)
        preds = rng.integers(0, 2, 90)
        groups = rng.integers(0, 3, 90)
        base = statistical_parity_gap(preds, groups, 3)
        perm = np.array([2, 0, 1])
        assert statistical_parity_gap(preds, perm[groups], 3) == pytest.approx(base)
        order = rng.permutation(90)
        assert statistical_parity_gap(preds[order], groups[order], 3) == pytest.approx(
            base
        )


class TestEqualizedOpportunityGap:
    def test_perfect_classifier(self):
        rng = np.random.default_rng(7)
        labels = rng.integers(0, 2, 60)
        groups = rng.integers(0, 2, 60)
        labels[:4] = [1, 1, 0, 0]
        groups[:4] = [0, 1, 0, 1]
        assert equalized_opportunity_gap(labels, labels, groups) == 0.0

    def test_hand_built_tprs(self):
        # TPRs 0.9 and 0.6 over ten positives each
        labels = np.ones(20, int)
        groups = np.repeat([0, 1], 10)
        preds = np.concatenate([np.repeat([1, 0], [9, 1]), np.repeat([1, 0], [6, 4])])
        assert equalized_opportunity_gap(preds, labels, groups) == pytest.approx(
            0.3, abs=1e-15
        )

    def test_undefined_rate_raises(self):
        labels = np.array([1, 1, 0, 0])
        groups = np.array([0, 0, 1, 1])
        preds = np.array([1, 0, 1, 0])
        with pytest.raises(UndefinedRate):
            equalized_opportunity_gap(preds, labels, groups)

    def test_skip_undefined_warns(self):
        labels = np.array([1, 1, 0, 0, 1, 1])
        groups = np.array([0, 0, 1, 1, 2, 2])
        preds = np.array([1, 0, 1, 0, 1, 1])
        with pytest.warns(UserWarning):
            gap = equalized_opportunity_gap(
                preds, labels, groups, skip_undefined=True
            )
        # remaining pair is groups 0 and 2: TPRs 0.5 and 1.0
        assert gap == pytest.approx(0.5, abs=1e-15)

    def test_empty_group_takes_precedence(self):
        labels = np.array([1, 0])
        groups = np.array([0, 0])
        with pytest.raises(EmptyGroup):
            equalized_opportunity_gap(np.array([1, 0]), labels, groups, k=2)

    def test_lipschitz_in_one_groups_rate(self):
        rng = np.random.default_rng(8)
        labels = np.ones(150, int)
        groups = np.repeat([0, 1, 2], 50)
        for _ in range(50):
            preds = rng.integers(0, 2, 150)
            altered = preds.copy()
            altered[50:100] = rng.integers(0, 2, 50)
            delta = abs(altered[50:100].mean() - preds[50:100].mean())
            g1 = equalized_opportunity_gap(preds, labels, groups)
            g2 = equalized_opportunity_gap(altered, labels, groups)
            assert abs(g1 - g2) <= delta + 1e-12


class TestEqualizedOddsGaps:
    def test_perfect_classifier(self):
        labels = np.array([1, 0, 1, 0, 1, 0])
        groups = np.array([0, 0, 1, 1, 2, 2])
        assert equalized_odds_gaps(labels, labels, groups) == (0.0, 0.0)

    def test_two_group_substitution(self):
        # TPRs (1.0, 0.5), FPRs (0.0, 0.5)
        labels = np.array([1, 1, 0, 0, 1, 1, 0, 0])
        groups = np.array([0, 0, 0, 0, 1, 1, 1, 1])
        preds = np.array([1, 1, 0, 0, 1, 0, 1, 0])
        meo, eod = equalized_odds_gaps(preds, labels, groups)
        assert meo == pytest.approx(0.5, abs=1e-15)
        assert eod == pytest.approx(0.5, abs=1e-15)

    def test_maximizing_pairs_can_differ(self):
        # TPRs (0.0, 1.0, 0.6), FPRs (0.0, 0.0, 0.9): the mean gap peaks on
        # pair (0,2) at 0.75 while the max gap peaks on pair (0,1) at 1.0
        labels = np.tile(np.repeat([1, 0], 10), 3)
        groups = np.repeat([0, 1, 2], 20)
        tp = {0: 0, 1: 10, 2: 6}
        fp = {0: 0, 1: 0, 2: 9}
        preds = np.concatenate(
            [
                np.repeat([1, 0, 1, 0], [tp[a], 10 - tp[a], fp[a], 10 - fp[a]])
                for a in range(3)
            ]
        )
        meo, eod = equalized_odds_gaps(preds, labels, groups)
        assert meo == pytest.approx(0.75, abs=1e-15)
        assert eod == pytest.approx(1.0, abs=1e-15)

    def test_matches_pairwise_oracle(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            n = 120
            labels = rng.integers(0, 2, n)
            groups = rng.integers(0, 3, n)
            preds = rng.integers(0, 2, n)
            ok = all(
                ((groups == a) & (labels == y)).any()
                for a in range(3)
                for y in (0, 1)
            )
            if not ok:
                continue
            tpr, fpr = {}, {}
            for a in range(3):
                pos = (groups == a) & (labels == 1)
                neg = (groups == a) & (labels == 0)
                tpr[a] = preds[pos].mean()
                fpr[a] = preds[neg].mean()
            meo_exp = max(
                0.5 * (abs(tpr[i] - tpr[j]) + abs(fpr[i] - fpr[j]))
                for i in range(3)
                for j in range(i + 1, 3)
            )
            eod_exp = max(
                max(abs(tpr[i] - tpr[j]), abs(fpr[i] - fpr[j]))
                for i in range(3)
                for j in range(i + 1, 3)
            )
            meo, eod = equalized_odds_gaps(preds, labels, groups, 3)
            assert meo == pytest.approx(meo_exp, abs=1e-15)
            assert eod == pytest.approx(eod_exp, abs=1e-15)


class TestEvaluate:
    def test_constant_negative_model(self):
        rng = np.random.default_rng(10)
        ds = gaussian_dataset(rng, 400)
        report = evaluate(zero_model(), ds)
        assert report.accuracy == pytest.approx(1.0 - ds.labels.mean(), abs=1e-15)
        assert report.sp_gap == 0.0
        assert report.eo_gap == 0.0
        assert (report.meo_gap, report.eod_gap) == (0.0, 0.0)

    def test_base_rate_match_tracks_prevalence(self):
        rng = np.random.default_rng(11)
        for seed in range(5):
            ds = gaussian_dataset(np.random.default_rng(seed), 500)
            model = train_logistic(ds)
            report = evaluate(model, ds)
            pos_rate = sum(
                g.pos_rate * g.count for g in report.per_group
            ) / sum(g.count for g in report.per_group)
            assert abs(pos_rate - ds.labels.mean()) <= 1.0 / ds.n

    def test_gaps_recomputable_from_per_group(self):
        rng = np.random.default_rng(12)
        ds = gaussian_dataset(rng, 600, k=3)
        report = evaluate(train_logistic(ds), ds)
        pos_rates = [g.pos_rate for g in report.per_group]
        assert report.sp_gap == pytest.approx(
            max(pos_rates) - min(pos_rates), abs=1e-12
        )
        tprs = [g.tpr for g in report.per_group]
        fprs = [g.fpr for g in report.per_group]
        pairs = [(i, j) for i in range(3) for j in range(i + 1, 3)]
        assert report.eo_gap == pytest.approx(
            max(abs(tprs[i] - tprs[j]) for i, j in pairs), abs=1e-12
        )
        assert report.meo_gap == pytest.approx(
            max(
                0.5 * (abs(tprs[i] - tprs[j]) + abs(fprs[i] - fprs[j]))
                for i, j in pairs
            ),
            abs=1e-12,
        )
        assert report.eod_gap == pytest.approx(
            max(
                max(abs(tprs[i] - tprs[j]), abs(fprs[i] - fprs[j]))
                for i, j in pairs
            ),
            abs=1e-12,
        )

    def test_schema_mismatch(self):
        rng = np.random.default_rng(13)
        model = train_logistic(gaussian_dataset(rng, 200))
        other = make_dataset(
            {"y1": np.zeros(4), "y2": np.zeros(4)},
            [0, 1, 0, 1],
            [0, 1, 0, 1],
        )
        with pytest.raises(SchemaMismatch):
            evaluate(model, other)

    def test_groups_come_from_test_sensitive(self):
        rng = np.random.default_rng(14)
        ds = gaussian_dataset(rng, 400)
        flipped = TabularDataset(
            feature_columns=dict(ds.feature_columns),
            sensitive=1 - ds.sensitive,
            labels=ds.labels,
            k=2,
        )
        model = train_logistic(flipped)
        report = evaluate(model, ds)
        counts = [g.count for g in report.per_group]
        assert counts == [int((ds.sensitive == 0).sum()), int((ds.sensitive == 1).sum())]

    def test_report_serialization(self):
        rng = np.random.default_rng(15)
        ds = gaussian_dataset(rng, 300)
        report = evaluate(train_logistic(ds), ds)
        payload = report.to_json_dict()
        assert set(payload) == {
            "accuracy",
            "sp_gap",
            "eo_gap",
            "meo_gap",
            "eod_gap",
            "per_group",
        }
        text = json.dumps(payload)
        assert json.loads(text)["per_group"][0]["count"] == report.per_group[0].count
        csv_text = report.per_group_csv()
        lines = csv_text.strip().split("\n")
        assert lines[0] == "group,pos_rate,tpr,fpr,count"
        assert len(lines) == 3

    def test_pure_and_repeatable(self):
        rng = np.random.default_rng(16)
        ds = gaussian_dataset(rng, 250)
        model = train_logistic(ds)
        r1 = evaluate(model, ds)
        r2 = evaluate(model, ds)
        assert r1 == r2

    def test_fixed_threshold_respected(self):
        rng = np.random.default_rng(17)
        ds = gaussian_dataset(rng, 300)
        model = train_logistic(ds, TrainConfig(calibration=Calibration.FIXED))
        assert model.threshold == 0.5
        report = evaluate(model, ds)
        manual = (model.scores(ds) > 0.5).astype(int)
        assert report.accuracy == pytest.approx(
            (manual == ds.labels).mean(), abs=1e-15
        )

    def test_invalid_classifier_fields(self):
        with pytest.raises(ValueError):
            LinearClassifier(
                weights=np.array([np.inf]),
                threshold=0.5,
                calibration=Calibration.FIXED,
                feature_names=(),
                mu=np.zeros(0),
                sigma=np.ones(0),
                k=2,
                sensitive_as_feature=False,
            )
        with pytest.raises(ValueError):
            LinearClassifier(
                weights=np.array([0.0]),
                threshold=1.0,
                calibration=Calibration.FIXED,
                feature_names=(),
                mu=np.zeros(0),
                sigma=np.ones(0),
                k=2,
                sensitive_as_feature=False,
            )
