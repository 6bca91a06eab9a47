"""Closed-form optimal binary release.

The design problem: given a binary sensitive attribute and a privacy level,
pick the binary mechanism (p, q) that minimizes the ratio of post-release
demographic disparity to the original disparity.  The minimizer admits a
closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .distribution import JointDistribution, delta_prime
from .errors import NotBinary, ZeroBaseUnfairness, check_epsilon
from .mechanisms import BinaryMechanism

TIE_ATOL = 1e-12


class BranchCase(Enum):
    P0_LESS_P1 = "P0LessP1"
    P1_LESS_P0 = "P1LessP0"
    TIE = "Tie"


@dataclass(frozen=True)
class BinaryDesignResult:
    """Optimal binary mechanism with the disparity ratio it attains."""

    mechanism: BinaryMechanism
    objective: float
    case_taken: BranchCase
    epsilon: float
    relabeled: bool = False

    def to_json_dict(self) -> dict:
        return {
            "p": self.mechanism.p,
            "q": self.mechanism.q,
            "epsilon": self.epsilon,
            "objective": self.objective,
            "case": self.case_taken.value,
        }


def _require_binary(dist: JointDistribution) -> None:
    if dist.k != 2:
        raise NotBinary(dist.k)


def _ratio_core(p0, p1, p, q):
    # disparity contraction factor; the label rates cancel out of the ratio,
    # leaving an expression in the group masses and mechanism parameters only
    num = p0 * p1 * (p * q - (1.0 - p) * (1.0 - q))
    den = (p0 * (1.0 - p) + p1 * q) * (p0 * p + p1 * (1.0 - q))
    return num / den


def objective_ratio(dist: JointDistribution, p: float, q: float) -> float:
    """Ratio of released to original disparity for the mechanism (p, q).

    Requires unequal group positive rates; the ratio divides by the original
    disparity, which would otherwise be zero.
    """
    _require_binary(dist)
    if delta_prime(dist) == 0.0:
        raise ZeroBaseUnfairness()
    if not (0.5 <= p <= 1.0 and 0.5 <= q <= 1.0):
        raise ValueError(f"parameters out of range [1/2, 1]: p={p}, q={q}")
    p0, p1 = dist.group_probs
    return float(_ratio_core(p0, p1, p, q))


def opt_binary(dist: JointDistribution, epsilon: float) -> BinaryDesignResult:
    """Closed-form disparity-minimizing binary mechanism at privacy level epsilon.

    The minimizer sits on the privacy-tight boundary: it keeps one group's
    report almost deterministic and fully randomizes the other, choosing
    which by comparing the group masses.  A group-mass tie is reported as
    `Tie`; both assignments then attain the same objective and the first is
    returned.
    """
    _require_binary(dist)
    check_epsilon(epsilon)
    r0, r1 = dist.pos_rates
    relabeled = bool(r0 > r1)
    p0, p1 = dist.group_probs
    strong = 1.0 - math.exp(-epsilon) / 2.0
    if abs(p0 - p1) <= TIE_ATOL:
        case = BranchCase.TIE
        p, q = strong, 0.5
    elif p0 < p1:
        case = BranchCase.P0_LESS_P1
        p, q = strong, 0.5
    else:
        case = BranchCase.P1_LESS_P0
        p, q = 0.5, strong
    objective = float(_ratio_core(p0, p1, p, q))
    return BinaryDesignResult(
        mechanism=BinaryMechanism(p, q),
        objective=objective,
        case_taken=case,
        epsilon=float(epsilon),
        relabeled=relabeled,
    )
