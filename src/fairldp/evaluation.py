"""Logistic training and group-fairness evaluation of downstream classifiers.

The classifier is deliberately small: logistic regression on a standardized
design matrix, fitted from zero weights by Newton's method, with full-batch
gradient descent as the fallback when Newton does not converge within
NEWTON_STEPS steps (separated data, where no finite minimiser exists).  No RNG
is involved, so identical inputs give bit-identical models.  Fairness gaps are
pure functions of (predictions, labels, groups) and are computed by
exhaustive pairwise scans over the groups.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from enum import Enum

import numpy as np
from scipy.special import expit

from .dataset import SubsetPerturbedDataset, TabularDataset
from .errors import (
    EmptyGroup,
    NonFiniteLoss,
    SchemaMismatch,
    SingleClassTrainingSet,
    UndefinedRate,
)


# Newton converges quadratically within a handful of steps whenever a finite
# minimiser exists; under (quasi-)complete separation its gradient shrinks only
# geometrically and the weights run off to infinity, so the cap is what sends
# separated data to gradient descent.
NEWTON_STEPS = 10


class Calibration(Enum):
    FIXED = "fixed"
    BASE_RATE_MATCH = "base_rate_match"


@dataclass(frozen=True)
class TrainConfig:
    """Hyperparameters for the logistic trainer.

    grad_tol stops both optimizers; learning_rate and max_epochs are the
    settings of the gradient-descent fallback only, since the Newton path has
    no step size and is capped by the module constant NEWTON_STEPS.
    """

    learning_rate: float = 0.5
    max_epochs: int = 3000
    grad_tol: float = 1e-7
    calibration: Calibration = Calibration.BASE_RATE_MATCH
    sensitive_as_feature: bool = True

    def __post_init__(self):
        if self.learning_rate <= 0 or self.max_epochs < 1 or self.grad_tol <= 0:
            raise ValueError("learning_rate, max_epochs, grad_tol must be positive")


@dataclass(frozen=True, eq=False)
class LinearClassifier:
    """Logistic model over (standardized numerics, sensitive one-hot, bias).

    feature_names fixes the numeric column order; mu and sigma are the
    training-set standardization constants applied again at prediction time.
    """

    weights: np.ndarray
    threshold: float
    calibration: Calibration
    feature_names: tuple[str, ...]
    mu: np.ndarray
    sigma: np.ndarray
    k: int
    sensitive_as_feature: bool

    def __post_init__(self):
        if not np.all(np.isfinite(self.weights)):
            raise ValueError("weights must be finite")
        if not 0.0 < self.threshold < 1.0:
            raise ValueError("threshold must lie in (0, 1)")

    def scores(self, data: TabularDataset | SubsetPerturbedDataset) -> np.ndarray:
        """Predicted positive probability per record."""
        X = _design_matrix(data, self.feature_names, self.sensitive_as_feature, self.k)
        X[:, : len(self.feature_names)] -= self.mu
        X[:, : len(self.feature_names)] /= self.sigma
        return expit(X @ self.weights)

    def predict(
        self,
        data: TabularDataset | SubsetPerturbedDataset,
        threshold: float | None = None,
    ) -> np.ndarray:
        cut = self.threshold if threshold is None else threshold
        return (self.scores(data) > cut).astype(int)


@dataclass(frozen=True)
class GroupStats:
    """Per-group empirical rates; tpr or fpr is NaN when its base is empty."""

    group: int
    pos_rate: float
    tpr: float
    fpr: float
    count: int

    def to_json_dict(self) -> dict:
        return {
            "group": self.group,
            "pos_rate": self.pos_rate,
            "tpr": None if math.isnan(self.tpr) else self.tpr,
            "fpr": None if math.isnan(self.fpr) else self.fpr,
            "count": self.count,
        }


@dataclass(frozen=True)
class FairnessReport:
    accuracy: float
    sp_gap: float
    eo_gap: float
    meo_gap: float
    eod_gap: float
    per_group: tuple[GroupStats, ...]

    def to_json_dict(self) -> dict:
        return {
            "accuracy": self.accuracy,
            "sp_gap": self.sp_gap,
            "eo_gap": self.eo_gap,
            "meo_gap": self.meo_gap,
            "eod_gap": self.eod_gap,
            "per_group": [g.to_json_dict() for g in self.per_group],
        }

    def per_group_csv(self) -> str:
        lines = ["group,pos_rate,tpr,fpr,count"]
        for g in self.per_group:
            lines.append(f"{g.group},{g.pos_rate!r},{g.tpr!r},{g.fpr!r},{g.count}")
        return "\n".join(lines) + "\n"


def _design_matrix(
    data: TabularDataset | SubsetPerturbedDataset,
    feature_names: tuple[str, ...],
    sensitive_as_feature: bool,
    k: int,
) -> np.ndarray:
    if set(data.feature_columns) != set(feature_names):
        raise SchemaMismatch(
            f"feature columns {sorted(data.feature_columns)} do not match "
            f"the training schema {sorted(feature_names)}"
        )
    if data.k != k:
        raise SchemaMismatch(f"sensitive alphabet size {data.k} != trained {k}")
    blocks = [np.stack([data.feature_columns[n] for n in feature_names], axis=1)]
    if sensitive_as_feature:
        blocks.append(data.indicator_matrix())
    blocks.append(np.ones((data.n, 1)))
    return np.concatenate(blocks, axis=1)


def train_logistic(
    train: TabularDataset | SubsetPerturbedDataset,
    config: TrainConfig = TrainConfig(),
) -> LinearClassifier:
    """Fit by Newton's method from zero weights, else by gradient descent.

    Newton's weights are kept when the gradient infinity-norm drops below
    grad_tol within NEWTON_STEPS steps and the loss never rises.  Otherwise,
    as on separated data, which has no finite minimiser, training re-runs
    full-batch gradient descent from zero, which stops at grad_tol or after
    max_epochs.
    """
    y = np.asarray(train.labels, dtype=float)
    if train.n < 2 or len(np.unique(train.labels)) < 2:
        raise SingleClassTrainingSet("training data must contain both classes")
    feature_names = tuple(sorted(train.feature_columns))
    X = _design_matrix(train, feature_names, config.sensitive_as_feature, train.k)
    d = len(feature_names)
    mu = X[:, :d].mean(axis=0)
    sigma = X[:, :d].std(axis=0)
    sigma[sigma == 0.0] = 1.0
    X[:, :d] -= mu
    X[:, :d] /= sigma

    w = _newton(X, y, config.grad_tol)
    if w is None:
        w = _gradient_descent(X, y, config)

    return LinearClassifier(
        weights=w,
        threshold=0.5,
        calibration=config.calibration,
        feature_names=feature_names,
        mu=mu,
        sigma=sigma,
        k=train.k,
        sensitive_as_feature=config.sensitive_as_feature,
    )


def _newton(X: np.ndarray, y: np.ndarray, grad_tol: float) -> np.ndarray | None:
    """Newton (IRLS) iterate from zero, or None when it must not be trusted.

    The sensitive one-hot block plus the bias column make the Hessian
    singular; the least-squares step keeps the iterate in the row space of X,
    where gradient descent from zero also stays, so both approach the same
    minimiser.  Each step evaluates expit once, so expit calls count steps.
    """
    n = X.shape[0]
    w = np.zeros(X.shape[1])
    previous = math.inf
    for _ in range(NEWTON_STEPS):
        z = X @ w
        with np.errstate(invalid="ignore"):
            loss = float(np.mean(np.logaddexp(0.0, z) - y * z))
        if not math.isfinite(loss):
            raise NonFiniteLoss(f"loss became {loss}")
        if loss > previous:
            return None
        previous = loss
        p = expit(z)
        grad = X.T @ (p - y) / n
        if np.abs(grad).max() < grad_tol:
            return w
        hessian = (X.T * (p * (1.0 - p))) @ X / n
        try:
            w = w - np.linalg.lstsq(hessian, grad, rcond=None)[0]
        except np.linalg.LinAlgError:
            return None
    return None


def _gradient_descent(X: np.ndarray, y: np.ndarray, config: TrainConfig) -> np.ndarray:
    """Full-batch gradient descent from zero; one expit per step."""
    n = X.shape[0]
    w = np.zeros(X.shape[1])
    for _ in range(config.max_epochs):
        z = X @ w
        # the loss is finite exactly when every logit is (labels are 0 or 1)
        if not np.isfinite(z).all():
            raise NonFiniteLoss("logits became non-finite")
        grad = X.T @ (expit(z) - y) / n
        if np.abs(grad).max() < config.grad_tol:
            break
        w = w - config.learning_rate * grad
    return w


def base_rate_threshold(scores: np.ndarray, base_rate: float) -> float:
    """Cut so that the share of scores strictly above it matches base_rate.

    Uses the empirical quantile: with m = floor(base_rate * n) the cut sits
    between the m-th and (m+1)-th largest scores, so exactly m records are
    predicted positive when those scores differ; score ties on the cut fall
    to the negative side.
    """
    n = scores.shape[0]
    if n == 0:
        raise ValueError("no scores to threshold")
    m = int(math.floor(base_rate * n))
    ordered = np.sort(scores)[::-1]
    upper = 1.0 if m == 0 else float(ordered[m - 1])
    lower = 0.0 if m == n else float(ordered[m])
    cut = 0.5 * (upper + lower)
    if cut <= 0.0 or cut >= 1.0:
        cut = min(max(cut, np.nextafter(0.0, 1.0)), np.nextafter(1.0, 0.0))
    return cut


def _group_masks(groups: np.ndarray, k: int | None) -> list[np.ndarray]:
    groups = np.asarray(groups, dtype=int)
    count = int(groups.max()) + 1 if k is None else k
    masks = []
    for a in range(count):
        mask = groups == a
        if not mask.any():
            raise EmptyGroup(a)
        masks.append(mask)
    return masks


def statistical_parity_gap(
    preds: np.ndarray, groups: np.ndarray, k: int | None = None
) -> float:
    """Largest pairwise difference of positive-prediction rates."""
    preds = np.asarray(preds)
    rates = [float(preds[m].mean()) for m in _group_masks(groups, k)]
    return max(rates) - min(rates)


def _conditional_rates(
    preds: np.ndarray,
    labels: np.ndarray,
    groups: np.ndarray,
    k: int | None,
    on_label: int,
    name: str,
    skip_undefined: bool,
) -> list[float]:
    preds = np.asarray(preds)
    labels = np.asarray(labels)
    rates = []
    for a, mask in enumerate(_group_masks(groups, k)):
        base = mask & (labels == on_label)
        if not base.any():
            if not skip_undefined:
                raise UndefinedRate(a, name)
            warnings.warn(
                f"group {a} has no label-{on_label} records; {name} skipped",
                stacklevel=3,
            )
            rates.append(math.nan)
        else:
            rates.append(float(preds[base].mean()))
    return rates


def _max_pairwise(values: list[float]) -> float:
    best = 0.0
    seen_pair = False
    for i in range(len(values)):
        for j in range(i + 1, len(values)):
            if math.isnan(values[i]) or math.isnan(values[j]):
                continue
            seen_pair = True
            best = max(best, abs(values[i] - values[j]))
    return best if seen_pair or len(values) == 1 else math.nan


def equalized_opportunity_gap(
    preds: np.ndarray,
    labels: np.ndarray,
    groups: np.ndarray,
    k: int | None = None,
    skip_undefined: bool = False,
) -> float:
    """Largest pairwise true-positive-rate difference."""
    tprs = _conditional_rates(preds, labels, groups, k, 1, "tpr", skip_undefined)
    return _max_pairwise(tprs)


def equalized_odds_gaps(
    preds: np.ndarray,
    labels: np.ndarray,
    groups: np.ndarray,
    k: int | None = None,
    skip_undefined: bool = False,
) -> tuple[float, float]:
    """(mean, max) combination of TPR and FPR differences over group pairs.

    The mean form averages |TPR diff| and |FPR diff| per pair, the max form
    takes the larger; each is maximized over pairs separately, so different
    pairs may win.
    """
    tprs = _conditional_rates(preds, labels, groups, k, 1, "tpr", skip_undefined)
    fprs = _conditional_rates(preds, labels, groups, k, 0, "fpr", skip_undefined)
    return _odds_from_rates(tprs, fprs)


def _odds_from_rates(tprs: list[float], fprs: list[float]) -> tuple[float, float]:
    meo = eod = 0.0
    seen_pair = False
    for i in range(len(tprs)):
        for j in range(i + 1, len(tprs)):
            if any(math.isnan(v) for v in (tprs[i], tprs[j], fprs[i], fprs[j])):
                continue
            seen_pair = True
            dt = abs(tprs[i] - tprs[j])
            df = abs(fprs[i] - fprs[j])
            meo = max(meo, 0.5 * (dt + df))
            eod = max(eod, max(dt, df))
    if not seen_pair and len(tprs) > 1:
        return math.nan, math.nan
    return meo, eod


def evaluate(
    model: LinearClassifier,
    test: TabularDataset,
    skip_undefined: bool = False,
) -> FairnessReport:
    """Score the model on untouched test data and report accuracy plus gaps.

    Groups always come from the test set's own sensitive column; a model
    trained on perturbed values is still judged against the real groups.
    """
    scores = model.scores(test)
    if model.calibration is Calibration.BASE_RATE_MATCH:
        cut = base_rate_threshold(scores, float(test.labels.mean()))
    else:
        cut = model.threshold
    preds = (scores > cut).astype(int)
    labels = np.asarray(test.labels)
    groups = np.asarray(test.sensitive)

    accuracy = float((preds == labels).mean())
    sp = statistical_parity_gap(preds, groups, test.k)
    tprs = _conditional_rates(preds, labels, groups, test.k, 1, "tpr", skip_undefined)
    fprs = _conditional_rates(preds, labels, groups, test.k, 0, "fpr", skip_undefined)
    eo = _max_pairwise(tprs)
    meo, eod = _odds_from_rates(tprs, fprs)

    per_group = []
    for a, mask in enumerate(_group_masks(groups, test.k)):
        per_group.append(
            GroupStats(
                group=a,
                pos_rate=float(preds[mask].mean()),
                tpr=tprs[a],
                fpr=fprs[a],
                count=int(mask.sum()),
            )
        )
    return FairnessReport(
        accuracy=accuracy,
        sp_gap=sp,
        eo_gap=eo,
        meo_gap=meo,
        eod_gap=eod,
        per_group=tuple(per_group),
    )
