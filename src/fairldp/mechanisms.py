"""Local-privacy mechanisms over a finite alphabet.

Covers the randomized-response family (binary and k-ary), subset reports,
exact privacy verification, the induced post-perturbation distribution, and
seeded record-level perturbation of datasets. Record i of a release draws
from default_rng(seed ^ i); perturb_dataset reproduces those per-record
streams for every record in one vectorised pass over NumPy's SeedSequence,
PCG64 and Generator.choice algorithms instead of building a generator each.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, replace

import numpy as np

from .dataset import SubsetPerturbedDataset, TabularDataset
from .distribution import JointDistribution
from .errors import AlphabetMismatch, DegenerateOutput, check_epsilon

ENTRY_ATOL = 1e-9


@dataclass(frozen=True, eq=False)
class MechanismMatrix:
    """Row-stochastic matrix Q with entries[i][j] = Pr(report j | truth i).

    Shares the mechanism interface with SsParams: induced, privacy_level,
    within, release and report_fields.
    """

    k: int
    entries: np.ndarray

    def __post_init__(self):
        if self.k < 2:
            raise ValueError(f"need k >= 2, got k = {self.k}")
        q = np.array(self.entries, dtype=float)
        if q.shape != (self.k, self.k):
            raise ValueError(f"entries must be {self.k}x{self.k}, got {q.shape}")
        if not np.all((q >= -ENTRY_ATOL) & (q <= 1.0 + ENTRY_ATOL)):
            raise ValueError("entries must lie in [0, 1]")
        rows = q.sum(axis=1)
        if np.any(np.abs(rows - 1.0) > ENTRY_ATOL):
            raise ValueError(f"rows must sum to 1, got sums {rows!r}")
        q = np.clip(q, 0.0, 1.0)
        q.setflags(write=False)
        object.__setattr__(self, "entries", q)

    def induced(self, dist: JointDistribution) -> JointDistribution:
        return induced_distribution(dist, self)

    def privacy_level(self) -> float:
        return privacy_level(self)

    def within(self, epsilon: float) -> bool:
        return bool(verify_ldp(self, epsilon))

    def report_fields(self) -> dict:
        """The design report's mechanism fields."""
        return {"entries": self.entries.tolist(), "ss": None}

    def release(self, dataset: TabularDataset, seed: int) -> TabularDataset:
        """Each record's value: one random() through its row's cumulative sums."""
        cum = np.cumsum(self.entries, axis=1)
        cum[:, -1] = 1.0
        sensitive = np.asarray(dataset.sensitive)
        n = sensitive.shape[0]
        u = np.empty(n)
        for start in range(0, n, _CHUNK):
            stop = min(start + _CHUNK, n)
            u[start:stop] = _uniforms(_record_outputs(seed, start, stop, 1)[:, 0])
        out = np.empty_like(sensitive)
        for a in range(self.k):
            rows = sensitive == a
            out[rows] = np.searchsorted(cum[a], u[rows], side="right")
        return replace(dataset, sensitive=out)


@dataclass(frozen=True)
class BinaryMechanism:
    """The two-parameter binary mechanism.

    p = Pr(report 0 | truth 0) and q = Pr(report 1 | truth 1). Both sit in
    [1/2, 1]: anything below one half reports the opposite value more often
    than the truth and has no utility.
    """

    p: float
    q: float

    def __post_init__(self):
        for name, value in (("p", self.p), ("q", self.q)):
            if not 0.5 - ENTRY_ATOL <= value <= 1.0 + ENTRY_ATOL:
                raise ValueError(f"{name} = {value!r} outside [1/2, 1]")


@dataclass(frozen=True)
class SubsetReport:
    """A reported subset of the alphabet, always of size omega."""

    omega: int
    members: frozenset

    def __post_init__(self):
        if self.omega < 1:
            raise ValueError(f"omega must be >= 1, got {self.omega}")
        if len(self.members) != self.omega:
            raise ValueError(
                f"report has {len(self.members)} members, expected omega = {self.omega}"
            )
        if any((not isinstance(v, (int, np.integer))) or v < 0 for v in self.members):
            raise ValueError("members must be non-negative integers")

    def to_sorted_list(self) -> list[int]:
        return sorted(int(v) for v in self.members)


@dataclass(frozen=True)
class SsParams:
    """Subset-report parameters; iterates as (omega, p_true) for unpacking.

    Shares the mechanism interface with MechanismMatrix.
    """

    omega: int
    p_true: float
    k: int
    epsilon: float

    def __iter__(self):
        return iter((self.omega, self.p_true))

    @property
    def p_off(self) -> float:
        """Inclusion probability of any fixed value other than the truth."""
        stay = self.p_true * (self.omega - 1) / (self.k - 1)
        move = (1.0 - self.p_true) * self.omega / (self.k - 1)
        return stay + move

    def induced(self, dist: JointDistribution) -> JointDistribution:
        return ss_induced_distribution(dist, self)

    def privacy_level(self) -> float:
        return ss_privacy_level(self)

    def within(self, epsilon: float) -> bool:
        # tight by construction: the level is the budget the parameters came from
        return abs(ss_privacy_level(self) - epsilon) <= 1e-9

    def report_fields(self) -> dict:
        """The design report's mechanism fields."""
        ss = {
            "omega": self.omega,
            "p_true": self.p_true,
            "p_off": self.p_off,
            "k": self.k,
            "epsilon": self.epsilon,
        }
        return {"entries": None, "ss": ss}

    def release(self, dataset: TabularDataset, seed: int) -> SubsetPerturbedDataset:
        """Each record's subset report as k indicator columns."""
        sensitive = np.asarray(dataset.sensitive)
        n = sensitive.shape[0]
        indicators = np.zeros((n, dataset.k), dtype=float)
        for start in range(0, n, _CHUNK):
            stop = min(start + _CHUNK, n)
            if self.k - 1 > _FLOYD_MAX_POP:
                for i in range(start, stop):
                    report = ss_perturb(int(sensitive[i]), self, record_rng(seed, i))
                    indicators[i, list(report.members)] = 1.0
            else:
                indicators[start:stop] = _subset_indicators(
                    sensitive[start:stop], self, seed, start
                )
        columns = {
            f"{dataset.sensitive_name}={dataset.sensitive_values[v]}": indicators[:, v]
            for v in range(dataset.k)
        }
        return SubsetPerturbedDataset(
            feature_columns=dict(dataset.feature_columns),
            indicator_columns=columns,
            labels=dataset.labels,
            k=dataset.k,
            sensitive_name=dataset.sensitive_name,
            sensitive_values=dataset.sensitive_values,
            label_values=dataset.label_values,
        )


def ss_privacy_level(params: SsParams) -> float:
    """Exact privacy level of the subset mechanism.

    The worst report-probability ratio is attained on a subset containing
    one truth and excluding the other: p_true / C(k-1, omega-1) against
    (1 - p_true) / C(k-1, omega), which simplifies to
    p_true (k - omega) / ((1 - p_true) omega).  At a large epsilon p_true
    rounds to 1 and the level is inf.
    """
    if params.p_true == 1.0:
        return math.inf
    ratio = (
        params.p_true
        * (params.k - params.omega)
        / ((1.0 - params.p_true) * params.omega)
    )
    return math.log(ratio)


def grr_matrix(k: int, epsilon: float) -> MechanismMatrix:
    """k-ary randomized response: keep the truth with probability
    e^eps / (e^eps + k - 1), otherwise report a uniform other value.
    """
    check_epsilon(epsilon)
    if k < 2:
        raise ValueError(f"need k >= 2, got k = {k}")
    e = math.exp(epsilon)
    keep = e / (e + k - 1)
    flip = 1.0 / (e + k - 1)
    q = np.full((k, k), flip)
    np.fill_diagonal(q, keep)
    return MechanismMatrix(k=k, entries=q)


def rr_mechanism(epsilon: float) -> BinaryMechanism:
    """Binary randomized response: p = q = e^eps / (e^eps + 1)."""
    check_epsilon(epsilon)
    e = math.exp(epsilon)
    keep = e / (e + 1.0)
    return BinaryMechanism(p=keep, q=keep)


def ss_params(k: int, epsilon: float) -> SsParams:
    """Subset-report parameters for alphabet size k at budget epsilon.

    omega = round(k / (e^eps + 1)), rounding half away from zero and clamped
    to [1, k - 1]; p_true = omega * e^eps / (omega * e^eps + k - omega).
    """
    check_epsilon(epsilon)
    if k < 2:
        raise ValueError(f"need k >= 2, got k = {k}")
    e = math.exp(epsilon)
    raw = k / (e + 1.0)
    omega = int(math.floor(raw + 0.5))
    omega = max(1, min(k - 1, omega))
    p_true = omega * e / (omega * e + k - omega)
    return SsParams(omega=omega, p_true=p_true, k=k, epsilon=epsilon)


def ss_perturb(a: int, params: SsParams, rng: np.random.Generator) -> SubsetReport:
    """Draw one subset report for true value a.

    Three steps: include a with probability p_true; fill the remaining slots
    uniformly without replacement from the other values; if a was excluded,
    draw all omega members from the other values.
    """
    k, omega = params.k, params.omega
    if not 0 <= a < k:
        raise ValueError(f"true value {a} outside [0, {k})")
    others = np.array([v for v in range(k) if v != a])
    if rng.random() < params.p_true:
        members = {a}
        if omega > 1:
            members.update(int(v) for v in rng.choice(others, size=omega - 1, replace=False))
    else:
        members = {int(v) for v in rng.choice(others, size=omega, replace=False)}
    return SubsetReport(omega=omega, members=frozenset(members))


def matrix_of_binary(m: BinaryMechanism) -> MechanismMatrix:
    """Embed a binary mechanism as its 2x2 matrix [[p, 1-p], [1-q, q]]."""
    return MechanismMatrix(
        k=2, entries=np.array([[m.p, 1.0 - m.p], [1.0 - m.q, m.q]])
    )


@dataclass(frozen=True)
class LdpAudit:
    """Result of checking a matrix against a privacy budget.

    ok is the verdict; worst_ratio is the largest column ratio
    max_j max_{i,i'} q_ij / q_i'j (inf when a column mixes zero and
    nonzero mass). witness identifies (row_hi, row_lo, column) achieving it.
    """

    ok: bool
    worst_ratio: float
    epsilon: float
    tol: float
    witness: tuple[int, int, int] | None

    def __bool__(self) -> bool:
        return self.ok


def verify_ldp(Q: MechanismMatrix, epsilon: float, tol: float = 1e-9) -> LdpAudit:
    """Check the privacy inequality q_ij <= e^eps * q_i'j + tol for all i, i', j."""
    check_epsilon(epsilon)
    e = math.exp(epsilon)
    q = Q.entries
    ok = True
    worst = 1.0
    witness = None
    for j in range(Q.k):
        col = q[:, j]
        hi_i = int(np.argmax(col))
        lo_i = int(np.argmin(col))
        hi, lo = float(col[hi_i]), float(col[lo_i])
        if hi == 0.0:
            continue
        if hi > e * lo + tol:
            ok = False
        ratio = math.inf if lo == 0.0 else hi / lo
        if ratio > worst:
            worst = ratio
            witness = (hi_i, lo_i, j)
    return LdpAudit(ok=ok, worst_ratio=worst, epsilon=epsilon, tol=tol, witness=witness)


def privacy_level(Q: MechanismMatrix) -> float:
    """Exact privacy level: ln of the worst column ratio.

    Returns inf when some column mixes zero and nonzero entries. Columns with
    no mass at all impose no constraint and are skipped.
    """
    q = Q.entries
    worst = 1.0
    for j in range(Q.k):
        col = q[:, j]
        hi = float(col.max())
        if hi == 0.0:
            continue
        lo = float(col.min())
        if lo == 0.0:
            return math.inf
        worst = max(worst, hi / lo)
    return math.log(worst)


def induced_distribution(dist: JointDistribution, Q: MechanismMatrix) -> JointDistribution:
    """Distribution of (reported value, label) after pushing A through Q.

    The report is independent of Y given A, so the positive marginal is
    unchanged; only the group axis is re-mixed.
    """
    if Q.k != dist.k:
        raise AlphabetMismatch(Q.k, dist.k)
    gp = dist.group_probs
    mass = gp @ Q.entries
    for a in range(dist.k):
        if mass[a] <= 0.0:
            raise DegenerateOutput(a)
    pos_mass = (gp * dist.pos_rates) @ Q.entries
    rates = np.clip(pos_mass / mass, 0.0, 1.0)
    return JointDistribution(
        k=dist.k,
        group_probs=mass,
        pos_rates=rates,
        pos_marginal=dist.pos_marginal,
    )


def ss_induced_distribution(dist: JointDistribution, params: SsParams) -> JointDistribution:
    """Distribution of (fired indicator, label) pairs under subset selection.

    Every record reports a size-omega subset, so it fires exactly omega
    indicators and the pair population keeps the original positive marginal.
    Indicator i fires with probability p_true when i is the truth and p_off
    otherwise, independent of the label given the sensitive value.
    """
    if params.k != dist.k:
        raise AlphabetMismatch(params.k, dist.k)
    gp = dist.group_probs
    pos = gp * dist.pos_rates
    pos_total = float(pos.sum())
    mass = params.p_true * gp + params.p_off * (1.0 - gp)
    pos_mass = params.p_true * pos + params.p_off * (pos_total - pos)
    rates = np.clip(pos_mass / mass, 0.0, 1.0)
    return JointDistribution(
        k=dist.k,
        group_probs=mass / params.omega,
        pos_rates=rates,
        pos_marginal=dist.pos_marginal,
    )


def record_rng(seed: int, index: int) -> np.random.Generator:
    """Per-record generator: record index i draws from seed XOR i.

    One root seed fixes every record's stream independently of processing
    order, so perturbation is order-stable and parallelizable. This is the
    definition of every record's draw; perturb_dataset computes the same
    streams for all records at once rather than building one generator each.
    """
    return np.random.default_rng(seed ^ index)


# Records per bulk pass of perturb_dataset: the kernel's temporaries are a few
# dozen arrays of this length, whatever the dataset size.
_CHUNK = 1 << 14

_M32 = 0xFFFFFFFF
_M64 = 0xFFFFFFFFFFFFFFFF

# SeedSequence constants (numpy/random/bit_generator.pyx)
_POOL_SIZE = 4
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = np.uint32(0xCA01F9DD)
_MIX_MULT_R = np.uint32(0x4973F715)
_XSHIFT = np.uint32(16)

# PCG64's 128-bit LCG multiplier, as 64-bit halves and 32-bit limbs
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_PCG_MULT_HI = np.uint64(_PCG_MULT >> 64)
_PCG_MULT_LO = np.uint64(_PCG_MULT & _M64)
_PCG_MULT_LO0 = np.uint64(_PCG_MULT & _M32)
_PCG_MULT_LO1 = np.uint64((_PCG_MULT >> 32) & _M32)

# Generator.choice(replace=False) runs Floyd's algorithm up to this population
_FLOYD_MAX_POP = 10000


def _hashmix(value: np.ndarray, h: int, mult: int) -> tuple[np.ndarray, int]:
    value = value ^ np.uint32(h)
    h = (h * mult) & _M32
    value *= np.uint32(h)
    value ^= value >> _XSHIFT
    return value, h


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = _MIX_MULT_L * x - _MIX_MULT_R * y
    result ^= result >> _XSHIFT
    return result


def _pcg_step(hi, lo, inc_hi, inc_lo):
    """state * MULT + inc mod 2^128 on (hi, lo) uint64 lanes."""
    a0 = lo & np.uint64(_M32)
    a1 = lo >> np.uint64(32)
    p00 = a0 * _PCG_MULT_LO0
    p01 = a0 * _PCG_MULT_LO1
    p10 = a1 * _PCG_MULT_LO0
    mid = (p00 >> np.uint64(32)) + (p01 & np.uint64(_M32)) + (p10 & np.uint64(_M32))
    carry_hi = (
        a1 * _PCG_MULT_LO1
        + (p01 >> np.uint64(32))
        + (p10 >> np.uint64(32))
        + (mid >> np.uint64(32))
    )
    new_lo = lo * _PCG_MULT_LO + inc_lo
    new_hi = carry_hi + hi * _PCG_MULT_LO + lo * _PCG_MULT_HI + inc_hi
    new_hi += (new_lo < inc_lo).astype(np.uint64)
    return new_hi, new_lo


def _record_outputs(seed: int, start: int, stop: int, m: int) -> np.ndarray:
    """First m uint64 outputs of record_rng(seed, i) for i in [start, stop).

    Runs NumPy's SeedSequence pool mixing and generate_state on uint32 lanes,
    seeds PCG64 from that state (state 0, step, add the seed, step) and takes
    one XSL-RR output per step. Shape (stop - start, m).
    """
    seed = operator.index(seed)
    if seed < 0:
        np.random.SeedSequence(seed)  # raises default_rng's own ValueError
    low = np.uint64(seed & _M64) ^ np.arange(start, stop, dtype=np.uint64)
    # seed XOR i as uint32 words; a word past the integer's length and a zero
    # word mix the same way inside the pool, so the first four are always set
    words = [
        (low & np.uint64(_M32)).astype(np.uint32),
        (low >> np.uint64(32)).astype(np.uint32),
    ]
    high = seed >> 64
    while high or len(words) < _POOL_SIZE:
        words.append(np.array([high & _M32], dtype=np.uint32))
        high >>= 32

    h = _INIT_A
    pool = []
    for word in words[:_POOL_SIZE]:
        mixed, h = _hashmix(word, h, _MULT_A)
        pool.append(mixed)
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                mixed, h = _hashmix(pool[src], h, _MULT_A)
                pool[dst] = _mix(pool[dst], mixed)
    for word in words[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            mixed, h = _hashmix(word, h, _MULT_A)
            pool[dst] = _mix(pool[dst], mixed)

    # generate_state(4, uint64): eight uint32 words paired little-endian
    h = _INIT_B
    state = []
    for t in range(8):
        value, h = _hashmix(pool[t % _POOL_SIZE], h, _MULT_B)
        state.append(value.astype(np.uint64))
    seed_hi = state[0] | (state[1] << np.uint64(32))
    seed_lo = state[2] | (state[3] << np.uint64(32))
    seq_hi = state[4] | (state[5] << np.uint64(32))
    seq_lo = state[6] | (state[7] << np.uint64(32))

    inc_hi = (seq_hi << np.uint64(1)) | (seq_lo >> np.uint64(63))
    inc_lo = (seq_lo << np.uint64(1)) | np.uint64(1)
    lo = inc_lo + seed_lo
    hi = inc_hi + seed_hi + (lo < seed_lo).astype(np.uint64)
    hi, lo = _pcg_step(hi, lo, inc_hi, inc_lo)

    out = np.empty((stop - start, m), dtype=np.uint64)
    for t in range(m):
        hi, lo = _pcg_step(hi, lo, inc_hi, inc_lo)
        x = hi ^ lo
        rot = hi >> np.uint64(58)
        out[:, t] = (x >> rot) | (x << ((np.uint64(64) - rot) & np.uint64(63)))
    return out


def _uniforms(outputs: np.ndarray) -> np.ndarray:
    """Generator.random() from uint64 outputs: the top 53 bits over 2^53."""
    return (outputs >> np.uint64(11)) * (1.0 / 9007199254740992.0)


def _floyd(draws: np.ndarray, pop: int, size: int) -> tuple[np.ndarray, np.ndarray]:
    """Generator.choice(pop, size, replace=False) as a membership mask.

    draws holds each row's uint32 stream, one column per bounded draw; a
    bound of zero draws nothing. Bounded draws follow Lemire's method; a row
    whose draw lands in the rejection zone, where NumPy would draw again, is
    flagged instead. Returns (chosen, rejected).
    """
    rows = np.arange(draws.shape[0])
    chosen = np.zeros((rows.size, pop), dtype=bool)
    rejected = np.zeros(rows.size, dtype=bool)
    col = 0
    for j in range(pop - size, pop):
        if j == 0:
            pick = np.zeros(rows.size, dtype=np.intp)
        else:
            scaled = draws[:, col].astype(np.uint64) * np.uint64(j + 1)
            col += 1
            rejected |= (scaled & np.uint64(_M32)) < np.uint64(2**32 % (j + 1))
            pick = (scaled >> np.uint64(32)).astype(np.intp)
        chosen[rows, np.where(chosen[rows, pick], j, pick)] = True
    return chosen, rejected


def _subset_indicators(sensitive, params: SsParams, seed: int, start: int) -> np.ndarray:
    """0/1 indicator rows of ss_perturb for records start, start + 1, ..."""
    k, omega = params.k, params.omega
    pop = k - 1
    c = sensitive.shape[0]
    sizes = {True: omega - 1, False: omega}
    # 32-bit draws of the larger subset; a bound-zero step takes none
    draws_needed = omega - (omega == pop)
    outputs = _record_outputs(seed, start, start + c, 1 + (draws_needed + 1) // 2)
    include = _uniforms(outputs[:, 0]) < params.p_true
    rest = outputs[:, 1:]
    draws = np.empty((c, 2 * rest.shape[1]), dtype=np.uint32)
    draws[:, 0::2] = rest & np.uint64(_M32)
    draws[:, 1::2] = rest >> np.uint64(32)

    chosen = np.zeros((c, pop), dtype=bool)
    rejected = np.zeros(c, dtype=bool)
    for inc, size in sizes.items():
        rows = include == inc
        chosen[rows], rejected[rows] = _floyd(draws[rows], pop, size)
    # others = [v for v in range(k) if v != a]: position p holds p + (p >= a)
    shifted = np.arange(pop) >= sensitive[:, None]
    ind = np.zeros((c, k), dtype=bool)
    ind[:, :pop] = chosen & ~shifted
    ind[:, 1:] |= chosen & shifted
    ind[np.arange(c), sensitive] |= include
    for i in np.flatnonzero(rejected):
        report = ss_perturb(int(sensitive[i]), params, record_rng(seed, start + i))
        ind[i] = False
        ind[i, list(report.members)] = True
    return ind


def perturb_dataset(dataset, mech, seed: int):
    """Replace each record's sensitive value with one mechanism draw.

    mech is either a MechanismMatrix (the output is again a value in [k]) or
    SsParams (the output subsets are encoded as k indicator columns).
    Features and labels are untouched. Fully reproducible from (seed,
    record order).

    Record i's draw is defined by record_rng(seed, i), that is
    default_rng(seed ^ i): one random() through the row's cumulative
    distribution, or ss_perturb. The streams of all records are computed
    together, chunk by chunk, and give the same bits as the per-record loop.
    """
    if mech.k != dataset.k:
        raise AlphabetMismatch(mech.k, dataset.k)
    return mech.release(dataset, seed)
