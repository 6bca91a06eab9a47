"""Run configuration and the design / perturb / evaluate / sweep commands.

Everything here is deterministic from (config, input files): trial t derives
its seed as seed XOR t, the train/test split uses a salted stream so it never
collides with the perturbation stream, and JSON is always written with
sorted keys.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import MISSING, asdict, dataclass, field, fields, is_dataclass, replace
from enum import Enum
from functools import partial
from pathlib import Path
from typing import get_type_hints

import numpy as np

from .binary_design import opt_binary
from .dataset import (
    COMMENT_PREFIX,
    ColumnsConfig,
    _read_rows,
    _write_rows,
    ingest_csv,
)
from .distribution import (
    JointDistribution,
    delta,
    delta_prime,
    estimate_distribution,
)
from .errors import (
    ConfigError,
    DataError,
    InvalidEpsilon,
    NotBinary,
    NumericalFailure,
    check_epsilon,
)
from .evaluation import Calibration, TrainConfig, evaluate, train_logistic
from .kary_design import SolverConfig, min_achievable_error, solve_opt_k
from .mechanisms import (
    MechanismMatrix,
    SsParams,
    grr_matrix,
    matrix_of_binary,
    perturb_dataset,
    rr_mechanism,
    ss_params,
)

SCHEMA_VERSION = 1
SPLIT_SALT = 0x9E3779B97F4A7C15
METRICS = ("accuracy", "sp_gap", "eo_gap", "meo_gap", "eod_gap")
MAX_SEED = 2**63


class Mechanism(Enum):
    NON_PRIVATE = "NonPrivate"
    RR = "RR"
    GRR = "GRR"
    SS = "SS"
    OPT_BINARY = "OptBinary"
    OPT_KARY = "OptKary"


@dataclass(frozen=True)
class SplitConfig:
    train_fraction: float = 0.75
    trials: int = 20

    def __post_init__(self):
        if not 0.0 < self.train_fraction < 1.0:
            raise ConfigError(
                f"train_fraction must lie in (0, 1), got {self.train_fraction}"
            )
        if not isinstance(self.trials, int) or self.trials < 1:
            raise ConfigError(f"trials must be a positive integer, got {self.trials}")


@dataclass(frozen=True)
class EvalSettings:
    calibration: str = Calibration.BASE_RATE_MATCH.value
    sensitive_as_feature: bool = True
    skip_undefined_groups: bool = False

    def __post_init__(self):
        if self.calibration not in [c.value for c in Calibration]:
            raise ConfigError(f"unknown calibration {self.calibration!r}")


@dataclass(frozen=True)
class RunConfig:
    """Everything a run needs; one JSON file pins every output byte.

    The fields are the JSON config's keys and their defaults its defaults;
    columns, split and eval are nested objects.
    """

    data: str
    columns: ColumnsConfig
    mechanism: Mechanism
    seed: int = 0
    epsilon: float | None = None
    zeta: float | None = None
    split: SplitConfig = field(default_factory=SplitConfig)
    eval: EvalSettings = field(default_factory=EvalSettings)

    def __post_init__(self):
        if not isinstance(self.seed, int) or not 0 <= self.seed < MAX_SEED:
            raise ConfigError("seed must be an integer in [0, 2^63)")
        if self.mechanism is not Mechanism.NON_PRIVATE:
            if self.epsilon is None:
                raise ConfigError(f"{self.mechanism.value} requires epsilon")
            check_epsilon(self.epsilon)
        if self.mechanism is Mechanism.OPT_KARY:
            if self.zeta is None:
                raise ConfigError("OptKary requires zeta (the error budget)")
            if not 0.0 <= self.zeta <= 1.0:
                raise ConfigError(f"zeta must lie in [0, 1], got {self.zeta}")

    def to_json_dict(self) -> dict:
        return {**asdict(self), "mechanism": self.mechanism.value}


# RunConfig's fields that hold a nested object, with its dataclass
_SECTIONS = {
    name: hint for name, hint in get_type_hints(RunConfig).items() if is_dataclass(hint)
}
# the config keys a command-line flag may set, each with its section (None at
# the top level): every field but the column roles
OVERRIDES: dict[str, str | None] = {
    **{f.name: None for f in fields(RunConfig) if f.name not in _SECTIONS},
    **{
        f.name: section
        for section, cls in _SECTIONS.items()
        if cls is not ColumnsConfig
        for f in fields(cls)
    },
}


def _number(name: str, value) -> float:
    if not isinstance(value, bool):
        try:
            return float(value)
        except (TypeError, ValueError):
            pass
    raise ConfigError(f"{name} must be a number, got {value!r}")


def _integer(name: str, value) -> int:
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if isinstance(value, str):
        try:
            return int(value)
        except ValueError:
            pass
    elif isinstance(value, float) and value.is_integer():
        return int(value)
    raise ConfigError(f"{name} must be an integer, got {value!r}")


def _expect(ok: bool, name: str, value, what: str):
    """value if ok; otherwise ConfigError: name must be what."""
    if not ok:
        raise ConfigError(f"{name} must be {what}, got {value!r}")
    return value


def _flag(name: str, value) -> bool:
    return _expect(isinstance(value, bool), name, value, "true or false")


def _string(name: str, value) -> str:
    return _expect(isinstance(value, str), name, value, "a string")


def _literal(name: str, value) -> str:
    """A cell literal: a string, or a number as str() writes it."""
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    ok = number or isinstance(value, str)
    return str(_expect(ok, name, value, "a string or a number"))


def _features(name: str, value) -> list[str] | str:
    names = isinstance(value, list) and all(isinstance(f, str) for f in value)
    what = '"auto" or a list of column names'
    return _expect(names or value == "auto", name, value, what)


def _order(name: str, value) -> list[str]:
    ok = (
        isinstance(value, list)
        and all(isinstance(v, str) and v for v in value)
        and len(set(value)) == len(value)
    )
    return _expect(ok, name, value, "a list of distinct non-empty strings")


def _mechanism(name: str, value) -> Mechanism:
    try:
        return Mechanism(value)
    except ValueError:
        names = [m.value for m in Mechanism]
        raise ConfigError(f"unknown {name} {value!r}; expected one of {names}") from None


def _build(cls, where: str, raw):
    """A config dataclass from its JSON object, one key per field.

    An absent key takes the field's default; null stands for a None default.
    Fields without a parser here are checked by the dataclass itself.
    """
    if not isinstance(raw, dict):
        raise ConfigError(f"{where} must be an object")
    unknown = set(raw) - {f.name for f in fields(cls)}
    if unknown:
        raise ConfigError(f"unknown {where} keys: {sorted(unknown)}")
    kwargs = {}
    for f in fields(cls):
        if f.name not in raw:
            if f.default is MISSING and f.default_factory is MISSING:
                raise ConfigError(f"{where} is missing {f.name!r}")
            continue
        value = raw[f.name]
        parse = _PARSERS.get(f.name)
        if parse is not None and not (value is None and f.default is None):
            value = parse(f.name, value)
        kwargs[f.name] = value
    return cls(**kwargs)


_PARSERS = {
    "data": _string,
    "mechanism": _mechanism,
    "seed": _integer,
    "epsilon": _number,
    "zeta": _number,
    "sensitive": _string,
    "label": _string,
    "positive_label": _literal,
    "features": _features,
    "sensitive_order": _order,
    "train_fraction": _number,
    "trials": _integer,
    "sensitive_as_feature": _flag,
    "skip_undefined_groups": _flag,
    **{name: partial(_build, cls) for name, cls in _SECTIONS.items()},
}


def config_from_dict(raw: dict) -> RunConfig:
    return _build(RunConfig, "config", raw)


def load_config(path: str | Path, overrides: dict | None = None) -> RunConfig:
    """Read a JSON config file and apply flat overrides on top (flags win).

    overrides maps OVERRIDES keys to values; None leaves the file's value.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except json.JSONDecodeError as err:
        raise ConfigError(f"config file is not valid JSON: {err}") from None
    if not isinstance(raw, dict):
        raise ConfigError("config root must be an object")
    for key, value in (overrides or {}).items():
        if value is None:
            continue
        if key not in OVERRIDES:
            raise ConfigError(f"unknown override {key!r}")
        section = OVERRIDES[key]
        target = raw if section is None else raw.setdefault(section, {})
        if not isinstance(target, dict):
            raise ConfigError(f"{section} must be an object")
        target[key] = value
    return config_from_dict(raw)


def render_json(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, indent=2, allow_nan=False) + "\n"


def write_json(payload: dict, path: str | Path) -> None:
    Path(path).write_text(render_json(payload), encoding="utf-8")


def _finite_or_none(value: float) -> float | None:
    value = float(value)
    return value if math.isfinite(value) else None


def design_mechanism(dist, config: RunConfig) -> tuple[MechanismMatrix | SsParams, dict]:
    """Build the configured mechanism for dist; returns (mechanism, extras).

    extras carries the designer's own report (branch case or solver
    certificate) for mechanisms that have one.
    """
    k = dist.k
    if config.mechanism is Mechanism.NON_PRIVATE:
        return MechanismMatrix(k, np.eye(k)), {}
    eps = config.epsilon
    if config.mechanism is Mechanism.RR:
        if k != 2:
            raise NotBinary(k)
        return matrix_of_binary(rr_mechanism(eps)), {}
    if config.mechanism is Mechanism.GRR:
        return grr_matrix(k, eps), {}
    if config.mechanism is Mechanism.SS:
        return ss_params(k, eps), {}
    if config.mechanism is Mechanism.OPT_BINARY:
        if k != 2:
            raise NotBinary(k)
        res = opt_binary(dist, eps)
        design = res.to_json_dict()
        design["relabeled"] = res.relabeled
        return matrix_of_binary(res.mechanism), {"design": design}
    res = solve_opt_k(dist, SolverConfig(epsilon=eps, zeta=config.zeta))
    return res.Q, {"design": res.to_json_dict()}


def _check_emitted_mechanism(mech, epsilon: float | None) -> float | None:
    """Audit before writing; returns the exact privacy level (None if infinite)."""
    level = mech.privacy_level()
    if epsilon is not None and not mech.within(epsilon):
        raise NumericalFailure(
            f"designed mechanism violates the privacy bound at epsilon={epsilon}"
        )
    return _finite_or_none(level)


def _predicted(mech, dist: JointDistribution) -> dict:
    """Data-unfairness of the distribution mech induces from dist."""
    induced = mech.induced(dist)
    return {"delta": float(delta(induced)), "delta_prime": float(delta_prime(induced))}


def cmd_design(config: RunConfig, out_path: str | Path | None = None) -> dict:
    """Design the configured mechanism from the file's empirical distribution.

    The report carries the mechanism itself, its exact privacy level, the
    predicted data-unfairness of the induced distribution, the smallest error
    budget any compliant mechanism could meet at this epsilon, and the GRR/SS
    baselines at the same budget for comparison.
    """
    dataset = ingest_csv(config.data, config.columns)
    dist = estimate_distribution(dataset)
    mech, extras = design_mechanism(dist, config)
    eps_star = _check_emitted_mechanism(mech, config.epsilon)

    baselines = None
    if config.epsilon is not None:
        grr = grr_matrix(dist.k, config.epsilon)
        sp = ss_params(dist.k, config.epsilon)
        baselines = {
            "grr": {
                "entries": grr.entries.tolist(),
                "predicted_delta_prime": float(delta_prime(grr.induced(dist))),
            },
            "ss": {"omega": sp.omega, "p_true": sp.p_true, "p_off": sp.p_off},
        }

    payload = {
        "schema_version": SCHEMA_VERSION,
        "config": config.to_json_dict(),
        "mechanism": config.mechanism.value,
        "epsilon": config.epsilon,
        "zeta": config.zeta,
        "k": dist.k,
        "dist": {
            "group_probs": dist.group_probs.tolist(),
            "pos_rates": dist.pos_rates.tolist(),
        },
        **mech.report_fields(),
        "eps_star": eps_star,
        "predicted": _predicted(mech, dist),
        "min_achievable_error": (
            None
            if config.epsilon is None
            else float(min_achievable_error(dist, config.epsilon))
        ),
        "baselines": baselines,
        **extras,
    }
    if out_path is not None:
        write_json(payload, out_path)
    return payload


def mechanism_from_payload(payload: dict) -> MechanismMatrix | SsParams:
    """Rebuild the mechanism object a design report describes.

    Any malformed mechanism raises DataError.
    """
    try:
        if payload.get("ss") is not None:
            return _ss_from_payload(payload)
        entries = payload.get("entries")
        if entries is None:
            raise DataError("design report has neither entries nor subset parameters")
        return MechanismMatrix(int(payload["k"]), np.array(entries, dtype=float))
    except KeyError as missing:
        raise DataError(f"design report is missing {missing}") from None
    except (TypeError, ValueError, OverflowError, InvalidEpsilon) as err:
        raise DataError(f"design report holds a malformed mechanism: {err}") from None


def _ss_from_payload(payload: dict) -> SsParams:
    """Subset parameters rebuilt from the report's ss.k and ss.epsilon.

    Every other value the ss block records, and the report's top-level
    epsilon where present, must match the rebuilt parameters.
    """
    recorded = payload["ss"]
    params = ss_params(int(recorded["k"]), float(recorded["epsilon"]))
    rebuilt = params.report_fields()["ss"]
    fields = [(f"ss.{name}", v, rebuilt.get(name)) for name, v in recorded.items()]
    if "epsilon" in payload:
        fields.append(("epsilon", payload["epsilon"], params.epsilon))
    for name, value, expected in fields:
        number = type(value) in (int, float)  # a JSON number; a bool is not one
        if not (number and expected is not None and abs(value - expected) <= 1e-9):
            raise DataError(
                f"design report's {name} = {value!r} does not match {expected!r}, "
                "rebuilt from ss.k and ss.epsilon"
            )
    return params


def _read_report(path: str | Path, what: str) -> dict:
    """A JSON report whose root is an object; anything else raises DataError."""
    try:
        with open(path, encoding="utf-8") as fh:
            payload = json.load(fh)
    except FileNotFoundError:
        raise DataError(f"{what} not found: {path}") from None
    except json.JSONDecodeError as err:
        raise DataError(f"{what} is not valid JSON: {err}") from None
    if not isinstance(payload, dict):
        raise DataError(f"{what}'s JSON root is not an object")
    return payload


def _payload_hash(payload: dict) -> str:
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode()
    ).hexdigest()[:16]


def cmd_perturb(
    config: RunConfig, mechanism_path: str | Path, out_path: str | Path
) -> dict:
    """Rewrite the input CSV with the sensitive column perturbed.

    Every byte outside the sensitive column is copied from the input
    unchanged.  A value-valued mechanism replaces each sensitive cell with
    the drawn literal; the subset mechanism replaces the column with k 0/1
    indicator columns.  The leading comment line records the seed and the
    design-report hash so outputs are attributable.  The input is read once:
    ingest_csv parses the same rows that are then rewritten.
    """
    payload = _read_report(mechanism_path, "mechanism file")
    mech = mechanism_from_payload(payload)
    header, rows = _read_rows(config.data)
    dataset = ingest_csv(config.data, config.columns, table=(header, rows))
    result = perturb_dataset(dataset, mech, config.seed)

    sens_idx = header.index(config.columns.sensitive)
    stamp = f"{COMMENT_PREFIX} seed={config.seed} mechanism={_payload_hash(payload)}"

    if result.indicator_columns is not None:
        names = [f"{result.sensitive_name}={v}" for v in result.sensitive_values]
        header = header[:sens_idx] + names + header[sens_idx + 1 :]
        cells = result.indicator_matrix().astype(int).astype(str).tolist()
        rows = [
            row[:sens_idx] + flags + row[sens_idx + 1 :]
            for row, flags in zip(rows, cells)
        ]
    else:
        literals = np.array(dataset.sensitive_values, dtype=object)
        for row, literal in zip(rows, literals[result.sensitive]):
            row[sens_idx] = literal

    with open(out_path, "w", newline="", encoding="utf-8") as fh:
        fh.write(stamp + "\n")
        _write_rows(fh, [header, *rows])
    return {
        "schema_version": SCHEMA_VERSION,
        "out": str(out_path),
        "rows": len(rows),
        "seed": config.seed,
        "mechanism_hash": _payload_hash(payload),
    }


def _train_config(settings: EvalSettings) -> TrainConfig:
    return TrainConfig(
        calibration=Calibration(settings.calibration),
        sensitive_as_feature=settings.sensitive_as_feature,
    )


def _summarize(rows: list[dict]) -> dict:
    summary = {}
    for metric in METRICS:
        values = [row[metric] for row in rows]
        if any(v is None for v in values):
            summary[metric] = {"mean": None, "ci_low": None, "ci_high": None}
            continue
        arr = np.asarray(values, dtype=float)
        mean = float(arr.mean())
        if arr.size > 1:
            half = 1.96 * float(arr.std(ddof=1)) / math.sqrt(arr.size)
        else:
            half = 0.0
        summary[metric] = {
            "mean": mean,
            "ci_low": mean - half,
            "ci_high": mean + half,
        }
    return summary


def cmd_evaluate(
    config: RunConfig, out_path: str | Path | None = None
) -> dict:
    """Run trials x (split, perturb train only, train, evaluate on raw test).

    The mechanism is designed once from the whole file's empirical
    distribution and reused across trials.  Trial t splits with a generator
    seeded by (seed XOR t) XOR a fixed salt and perturbs with seed XOR t, so
    mechanisms sharing a config see identical splits and the two streams
    never collide.  The summary reports mean and a 95% normal-approximation
    confidence interval per metric.
    """
    dataset = ingest_csv(config.data, config.columns)
    if dataset.n < 2:
        raise DataError("need at least two records to split")
    if config.mechanism is Mechanism.NON_PRIVATE:
        mech = None
    else:
        dist = estimate_distribution(dataset)
        mech, _ = design_mechanism(dist, config)
        _check_emitted_mechanism(mech, config.epsilon)
    tconf = _train_config(config.eval)

    def run_trial(t: int) -> dict:
        trial_seed = config.seed ^ t
        rng = np.random.default_rng(trial_seed ^ SPLIT_SALT)
        perm = rng.permutation(dataset.n)
        n_train = int(round(config.split.train_fraction * dataset.n))
        n_train = min(max(n_train, 1), dataset.n - 1)
        train = dataset.subset(perm[:n_train])
        test = dataset.subset(perm[n_train:])
        if mech is not None:
            train = perturb_dataset(train, mech, trial_seed)
        model = train_logistic(train, tconf)
        report = evaluate(
            model, test, skip_undefined=config.eval.skip_undefined_groups
        )
        row = {"trial": t, "seed": trial_seed}
        for name in METRICS:
            value = getattr(report, name)
            row[name] = None if math.isnan(value) else float(value)
        return row

    rows = [run_trial(t) for t in range(config.split.trials)]

    payload = {
        "schema_version": SCHEMA_VERSION,
        "config": config.to_json_dict(),
        "mechanism": config.mechanism.value,
        "epsilon": config.epsilon,
        "summary": _summarize(rows),
        "trials": rows,
    }
    if out_path is not None:
        write_json(payload, out_path)
    return payload


def trials_csv(payload: dict) -> str:
    """Per-trial rows of an evaluate report as a CSV table."""
    lines = ["trial,seed," + ",".join(METRICS)]
    for row in payload["trials"]:
        cells = [str(row["trial"]), str(row["seed"])]
        cells += ["" if row[m] is None else repr(row[m]) for m in METRICS]
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def cmd_sweep(
    config: RunConfig,
    epsilons: list[float],
    mechanisms: list[Mechanism | str] | None = None,
    out_path: str | Path | None = None,
) -> dict:
    """Evaluate every (mechanism, epsilon) pair into one long-format table."""
    if not epsilons:
        raise ConfigError("sweep needs a non-empty epsilon list")
    for eps in epsilons:
        check_epsilon(eps)
    mech_list = [_mechanism("mechanism", m) for m in mechanisms or [config.mechanism]]
    rows = []
    for mech in mech_list:
        for eps in epsilons:
            sub = replace(config, mechanism=mech, epsilon=float(eps))
            report = cmd_evaluate(sub)
            for metric in METRICS:
                stats = report["summary"][metric]
                rows.append(
                    {
                        "mechanism": mech.value,
                        "epsilon": float(eps),
                        "metric": metric,
                        "mean": stats["mean"],
                        "ci_low": stats["ci_low"],
                        "ci_high": stats["ci_high"],
                    }
                )
    payload = {"schema_version": SCHEMA_VERSION, "rows": rows}
    if out_path is not None:
        write_json(payload, out_path)
    return payload


def sweep_csv(payload: dict) -> str:
    lines = ["mechanism,epsilon,metric,mean,ci_low,ci_high"]
    for row in payload["rows"]:
        cells = [row["mechanism"], repr(row["epsilon"]), row["metric"]]
        cells += [
            "" if row[key] is None else repr(row[key])
            for key in ("mean", "ci_low", "ci_high")
        ]
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def cmd_verify(
    design_path: str | Path, report_path: str | Path | None = None
) -> dict:
    """Re-audit an existing design report (and optionally an evaluate report).

    Rechecks the privacy bound and recomputes every derived number in the
    design report from its own recorded distribution; for an evaluate report
    it recomputes the summary from the per-trial rows.
    """
    payload = _read_report(design_path, "design report")
    try:
        checks = _verify_design(payload)
    except KeyError as missing:
        raise DataError(f"design report is missing {missing}") from None

    if report_path is not None:
        report = _read_report(report_path, "evaluate report")
        try:
            checks["summary"] = _verify_summary(report)
        except KeyError as missing:
            raise DataError(f"evaluate report is missing {missing}") from None

    return {
        "schema_version": SCHEMA_VERSION,
        "ok": all(checks.values()),
        "checks": checks,
    }


def _verify_design(payload: dict) -> dict[str, bool]:
    checks: dict[str, bool] = {}
    epsilon = payload.get("epsilon")
    dist = JointDistribution.from_rates(
        payload["dist"]["group_probs"], payload["dist"]["pos_rates"]
    )
    mech = mechanism_from_payload(payload)
    if epsilon is not None:
        checks["ldp"] = mech.within(float(epsilon))
    level = mech.privacy_level()
    recorded = payload.get("eps_star")
    if recorded is None:
        checks["eps_star"] = not math.isfinite(level)
    else:
        checks["eps_star"] = abs(level - recorded) <= 1e-9
    predicted = payload.get("predicted") or {}
    for name, value in _predicted(mech, dist).items():
        checks[f"predicted_{name}"] = abs(value - predicted.get(name, math.nan)) <= 1e-9
    if epsilon is not None and payload.get("min_achievable_error") is not None:
        recomputed = min_achievable_error(dist, float(epsilon))
        checks["min_achievable_error"] = (
            abs(recomputed - payload["min_achievable_error"]) <= 1e-9
        )

    return checks


def _verify_summary(report: dict) -> bool:
    resummed = _summarize(report["trials"])
    for metric in METRICS:
        for key in ("mean", "ci_low", "ci_high"):
            a = resummed[metric][key]
            b = report["summary"][metric][key]
            if (a is None) != (b is None):
                return False
            if a is not None and abs(a - b) > 1e-12:
                return False
    return True
