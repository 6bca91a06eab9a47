"""Synthetic tabular data with a planted group-rate disparity.

Records are (X, A, Y): group A from fixed marginals, binary Y with a
group-specific positive rate (the planted data unfairness), and Gaussian
features whose first coordinate carries the label signal with a chosen mean
separation.  Because X | Y is Gaussian with shared covariance, the optimal
decision rule is linear in (X, one-hot A), so the plain logistic model can
reach the closed-form Bayes accuracy computed here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr

from .dataset import TabularDataset


@dataclass(frozen=True)
class PlantedConfig:
    """Generator parameters; defaults plant a 0.4 positive-rate spread."""

    group_probs: tuple[float, ...] = (0.5, 0.5)
    pos_rates: tuple[float, ...] = (0.3, 0.7)
    separation: float = 1.5
    num_features: int = 2

    def __post_init__(self):
        if len(self.group_probs) != len(self.pos_rates) or len(self.group_probs) < 2:
            raise ValueError("need matching group_probs and pos_rates, k >= 2")
        if abs(sum(self.group_probs) - 1.0) > 1e-9 or min(self.group_probs) <= 0:
            raise ValueError("group_probs must be positive and sum to 1")
        if not all(0.0 < r < 1.0 for r in self.pos_rates):
            raise ValueError("pos_rates must lie strictly inside (0, 1)")
        if self.separation <= 0 or self.num_features < 1:
            raise ValueError("separation and num_features must be positive")

    @property
    def k(self) -> int:
        return len(self.group_probs)

    @property
    def planted_spread(self) -> float:
        return max(self.pos_rates) - min(self.pos_rates)


def generate_planted(
    n: int, config: PlantedConfig = PlantedConfig(), seed: int = 0
) -> TabularDataset:
    """Sample n records; fully determined by (n, config, seed)."""
    if n < 1:
        raise ValueError("n must be positive")
    rng = np.random.default_rng(seed)
    groups = rng.choice(config.k, size=n, p=np.asarray(config.group_probs))
    rates = np.asarray(config.pos_rates)
    labels = (rng.random(n) < rates[groups]).astype(int)
    X = rng.standard_normal((n, config.num_features))
    X[:, 0] += (labels - 0.5) * config.separation
    return TabularDataset(
        feature_columns={f"x{i + 1}": X[:, i] for i in range(config.num_features)},
        sensitive=groups,
        labels=labels,
        k=config.k,
        sensitive_name="group",
    )


def bayes_accuracy(config: PlantedConfig = PlantedConfig()) -> float:
    """Exact accuracy of the optimal classifier on (X, A).

    Only the first feature carries signal: its projection is N(+s/2, 1) under
    Y=1 and N(-s/2, 1) under Y=0, so the log-likelihood ratio is s times the
    projection and the optimal rule inside group a cuts at
    ln((1 - r_a) / r_a) / s.
    """
    s = config.separation
    total = 0.0
    for p_a, r_a in zip(config.group_probs, config.pos_rates):
        tau = math.log((1.0 - r_a) / r_a) / s
        total += p_a * (
            r_a * ndtr(s / 2.0 - tau) + (1.0 - r_a) * ndtr(s / 2.0 + tau)
        )
    return float(total)
