"""Tests for run configuration, the five commands, and the CLI surface."""

import argparse
import builtins
import copy
import hashlib
import json
import math
import os
from dataclasses import MISSING, fields
from pathlib import Path

import numpy as np
import pytest

from fairldp import kary_design
from fairldp.cli import _add_config_options, build_parser, main
from fairldp.dataset import ColumnsConfig, export_csv, ingest_csv
from fairldp.distribution import delta, delta_prime, estimate_distribution
from fairldp.errors import (
    AlphabetMismatch,
    ConfigError,
    DataError,
    InfeasibleBudget,
    InvalidEpsilon,
)
from fairldp.evaluation import TrainConfig, evaluate, train_logistic
from fairldp.mechanisms import matrix_of_binary, perturb_dataset, rr_mechanism
from fairldp.pipeline import (
    METRICS,
    OVERRIDES,
    SPLIT_SALT,
    EvalSettings,
    Mechanism,
    RunConfig,
    SplitConfig,
    _summarize,
    cmd_design,
    cmd_evaluate,
    cmd_perturb,
    cmd_sweep,
    cmd_verify,
    config_from_dict,
    design_mechanism,
    load_config,
    render_json,
    sweep_csv,
    trials_csv,
)
from fairldp.synthetic import PlantedConfig, generate_planted

# grid-oracle objective for the committed k=3 instance, epsilon=1, zeta=0.55
KARY_FIXTURE_OBJECTIVE = 0.022369605322278607

COLUMNS = ColumnsConfig(sensitive="group", label="label", positive_label="1")

# every field that has a default holds another value here
OFF_DEFAULT = RunConfig(
    data="tables/census.csv",
    columns=ColumnsConfig(
        sensitive="race",
        label="income",
        positive_label=">50K",
        features=["age", "hours"],
        sensitive_order=["w", "b", "o"],
    ),
    mechanism=Mechanism.OPT_KARY,
    seed=12345,
    epsilon=1.5,
    zeta=0.3,
    split=SplitConfig(train_fraction=0.6, trials=5),
    eval=EvalSettings(
        calibration="fixed", sensitive_as_feature=False, skip_undefined_groups=True
    ),
)
# sha256 of render_json(OFF_DEFAULT.to_json_dict()) as a hand-written
# to_json_dict rendered it, key by key
OFF_DEFAULT_JSON_SHA256 = (
    "3cf98d9dc9a947d726d64698f1bc181f41c510dc9ba6c003cab0e0bf52a8257b"
)


def base_config(data_path, **kw):
    defaults = dict(
        data=str(data_path),
        columns=COLUMNS,
        mechanism=Mechanism.GRR,
        seed=7,
        epsilon=1.0,
        split=SplitConfig(train_fraction=0.75, trials=3),
    )
    defaults.update(kw)
    return RunConfig(**defaults)


def config_dict(data_path, **kw):
    raw = {
        "data": str(data_path),
        "columns": {"sensitive": "group", "label": "label", "positive_label": "1"},
        "mechanism": "GRR",
        "epsilon": 1.0,
        "seed": 7,
        "split": {"train_fraction": 0.75, "trials": 3},
    }
    raw.update(kw)
    return raw


@pytest.fixture(scope="session")
def planted_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "planted.csv"
    export_csv(generate_planted(400, seed=7), path)
    return path


@pytest.fixture(scope="session")
def tri_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "tri.csv"
    cfg = PlantedConfig(group_probs=(0.4, 0.35, 0.25), pos_rates=(0.3, 0.5, 0.7))
    export_csv(generate_planted(300, cfg, seed=11), path)
    return path


@pytest.fixture(scope="session")
def fair_csv(tmp_path_factory):
    # both groups have exactly 10 of 20 positive, so the data is exactly fair
    path = tmp_path_factory.mktemp("data") / "fair.csv"
    lines = ["x,group,label"]
    for g in (0, 1):
        for i in range(20):
            lines.append(f"{0.1 * i + g:.2f},{g},{1 if i < 10 else 0}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


@pytest.fixture(scope="session")
def fresh_reports(tmp_path_factory, planted_csv):
    """A GRR design report and an evaluate report of planted_csv, as dicts."""
    root = tmp_path_factory.mktemp("reports")
    cmd_design(base_config(planted_csv), root / "design.json")
    cmd_evaluate(base_config(planted_csv), root / "eval.json")
    names = ("design.json", "eval.json")
    return [json.loads((root / name).read_text(encoding="utf-8")) for name in names]


@pytest.fixture(scope="session")
def kary_fixture_csv(tmp_path_factory):
    # exact counts reproducing group_probs (0.5, 0.3, 0.2), pos_rates (0.2, 0.5, 0.8)
    path = tmp_path_factory.mktemp("data") / "kary.csv"
    lines = ["x,group,label"]
    for g, (total, pos) in enumerate([(50, 10), (30, 15), (20, 16)]):
        for i in range(total):
            lines.append(f"{i}.0,{g},{1 if i < pos else 0}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


class TestRunConfig:
    def test_epsilon_required_unless_nonprivate(self, planted_csv):
        for mech in (Mechanism.RR, Mechanism.GRR, Mechanism.SS, Mechanism.OPT_BINARY):
            with pytest.raises(ConfigError):
                base_config(planted_csv, mechanism=mech, epsilon=None)
        cfg = base_config(planted_csv, mechanism=Mechanism.NON_PRIVATE, epsilon=None)
        assert cfg.epsilon is None

    def test_nonprivate_ignores_epsilon(self, planted_csv):
        cfg = base_config(planted_csv, mechanism=Mechanism.NON_PRIVATE, epsilon=2.0)
        assert cfg.epsilon == 2.0

    def test_bad_epsilon(self, planted_csv):
        for eps in (0.0, -1.0, math.inf, math.nan):
            with pytest.raises(InvalidEpsilon):
                base_config(planted_csv, epsilon=eps)
            # a set epsilon is checked even where the mechanism ignores it
            with pytest.raises(InvalidEpsilon):
                base_config(planted_csv, mechanism=Mechanism.NON_PRIVATE, epsilon=eps)

    def test_zeta_required_iff_optkary(self, planted_csv):
        with pytest.raises(ConfigError):
            base_config(planted_csv, mechanism=Mechanism.OPT_KARY)
        cfg = base_config(planted_csv, mechanism=Mechanism.OPT_KARY, zeta=0.5)
        assert cfg.zeta == 0.5
        with pytest.raises(ConfigError):
            base_config(planted_csv, mechanism=Mechanism.OPT_KARY, zeta=1.5)
        # other mechanisms may carry zeta so one config can drive a sweep
        assert base_config(planted_csv, zeta=0.5).zeta == 0.5
        # but a zeta they carry must still be a valid budget
        for zeta in (1.5, -0.1, math.nan, math.inf):
            with pytest.raises(ConfigError, match="zeta must lie in"):
                base_config(planted_csv, zeta=zeta)

    def test_seed_range(self, planted_csv):
        with pytest.raises(ConfigError):
            base_config(planted_csv, seed=-1)
        with pytest.raises(ConfigError):
            base_config(planted_csv, seed=2**63)
        assert base_config(planted_csv, seed=2**63 - 1).seed == 2**63 - 1

    def test_split_and_eval_validation(self):
        with pytest.raises(ConfigError):
            SplitConfig(train_fraction=1.0)
        with pytest.raises(ConfigError):
            SplitConfig(train_fraction=0.0)
        with pytest.raises(ConfigError):
            SplitConfig(trials=0)
        with pytest.raises(ConfigError):
            EvalSettings(calibration="median")

    def test_json_round_trip(self, planted_csv):
        cfg = base_config(planted_csv, mechanism=Mechanism.OPT_KARY, zeta=0.4)
        assert config_from_dict(cfg.to_json_dict()) == cfg

    def test_json_round_trip_off_every_default(self):
        cfg = OFF_DEFAULT
        for part in (cfg, cfg.columns, cfg.split, cfg.eval):
            for f in fields(part):
                factory = f.default_factory
                default = f.default if factory is MISSING else factory()
                assert getattr(part, f.name) != default, f.name
        assert config_from_dict(cfg.to_json_dict()) == cfg
        assert config_from_dict(json.loads(render_json(cfg.to_json_dict()))) == cfg

    def test_json_bytes_pinned(self):
        text = render_json(OFF_DEFAULT.to_json_dict())
        assert hashlib.sha256(text.encode()).hexdigest() == OFF_DEFAULT_JSON_SHA256


class TestConfigFromDict:
    def test_minimal_defaults(self, planted_csv):
        cfg = config_from_dict(
            {
                "data": str(planted_csv),
                "columns": {
                    "sensitive": "group",
                    "label": "label",
                    "positive_label": "1",
                },
                "mechanism": "NonPrivate",
            }
        )
        assert cfg.seed == 0
        assert cfg.split == SplitConfig(train_fraction=0.75, trials=20)
        assert cfg.eval == EvalSettings()

    def test_unknown_key_rejected(self, planted_csv):
        with pytest.raises(ConfigError, match="unknown config keys"):
            config_from_dict(config_dict(planted_csv, extra=1))

    def test_missing_required(self, planted_csv):
        for key in ("data", "columns", "mechanism"):
            raw = config_dict(planted_csv)
            del raw[key]
            with pytest.raises(ConfigError, match=key):
                config_from_dict(raw)

    def test_missing_column_field(self, planted_csv):
        raw = config_dict(planted_csv)
        del raw["columns"]["label"]
        with pytest.raises(ConfigError):
            config_from_dict(raw)

    def test_unknown_mechanism(self, planted_csv):
        with pytest.raises(ConfigError, match="unknown mechanism"):
            config_from_dict(config_dict(planted_csv, mechanism="Laplace"))


    def test_wrongly_typed_values(self, planted_csv):
        for key, value in (
            ("epsilon", "one"),
            ("seed", "x"),
            ("zeta", [0.5]),
            # a quoted number is a string, and NaN or Infinity no number at all
            ("epsilon", " 1.5 "),
            ("seed", "5"),
            ("zeta", math.nan),
            ("epsilon", math.inf),
            ("epsilon", True),
        ):
            with pytest.raises(ConfigError, match=key):
                config_from_dict(config_dict(planted_csv, **{key: value}))
        raw = config_dict(planted_csv)
        raw["columns"]["features"] = "x"
        with pytest.raises(ConfigError, match="features"):
            config_from_dict(raw)
        raw = config_dict(planted_csv)
        raw["split"]["trials"] = "3"
        with pytest.raises(ConfigError, match="trials"):
            config_from_dict(raw)

    def test_unknown_section_keys(self, planted_csv):
        for section in ("columns", "split", "eval"):
            raw = config_dict(planted_csv)
            raw.setdefault(section, {})["trails"] = 3
            with pytest.raises(ConfigError, match=f"unknown {section} keys"):
                config_from_dict(raw)

    def test_non_boolean_flags(self, planted_csv):
        for key in ("sensitive_as_feature", "skip_undefined_groups"):
            raw = config_dict(planted_csv, eval={key: "false"})
            with pytest.raises(ConfigError, match=key):
                config_from_dict(raw)

    def test_non_integral_trials(self, planted_csv):
        raw = config_dict(planted_csv)
        raw["split"]["trials"] = 2.7
        with pytest.raises(ConfigError, match="trials"):
            config_from_dict(raw)
        raw["split"]["trials"] = 2.0
        assert config_from_dict(raw).split.trials == 2


class TestLoadConfig:
    def write(self, tmp_path, raw):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(raw), encoding="utf-8")
        return path

    def test_reads_file(self, tmp_path, planted_csv):
        path = self.write(tmp_path, config_dict(planted_csv))
        cfg = load_config(path)
        assert cfg.mechanism is Mechanism.GRR
        assert cfg.epsilon == 1.0

    def test_missing_or_invalid_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            load_config(tmp_path / "absent.json")
        bad = tmp_path / "bad.json"
        bad.write_text("{", encoding="utf-8")
        with pytest.raises(ConfigError, match="valid JSON"):
            load_config(bad)
        arr = tmp_path / "arr.json"
        arr.write_text("[]", encoding="utf-8")
        with pytest.raises(ConfigError, match="object"):
            load_config(arr)

    def test_overrides_win(self, tmp_path, planted_csv):
        path = self.write(tmp_path, config_dict(planted_csv))
        cfg = load_config(
            path,
            {
                "epsilon": 2.5,
                "mechanism": "RR",
                "trials": 5,
                "train_fraction": 0.6,
                "calibration": "fixed",
                "sensitive_as_feature": False,
            },
        )
        assert cfg.mechanism is Mechanism.RR
        assert cfg.epsilon == 2.5
        assert cfg.split == SplitConfig(train_fraction=0.6, trials=5)
        assert cfg.eval.calibration == "fixed"
        assert cfg.eval.sensitive_as_feature is False

    def test_none_override_keeps_file_value(self, tmp_path, planted_csv):
        path = self.write(tmp_path, config_dict(planted_csv))
        cfg = load_config(path, {"epsilon": None, "seed": None})
        assert cfg.epsilon == 1.0
        assert cfg.seed == 7

    def test_unknown_override(self, tmp_path, planted_csv):
        path = self.write(tmp_path, config_dict(planted_csv))
        with pytest.raises(ConfigError, match="unknown override"):
            load_config(path, {"episode": 3})

    def test_every_override_reaches_its_field(self, tmp_path, planted_csv):
        values = {
            "data": "other.csv",
            "mechanism": "OptKary",
            "seed": 11,
            "epsilon": 3.0,
            "zeta": 0.2,
            "train_fraction": 0.5,
            "trials": 4,
            "calibration": "fixed",
            "sensitive_as_feature": False,
            "skip_undefined_groups": True,
        }
        assert set(values) == set(OVERRIDES)
        cfg = load_config(self.write(tmp_path, config_dict(planted_csv)), values)
        raw = cfg.to_json_dict()
        assert {**raw, **raw["split"], **raw["eval"]}.items() >= values.items()

    def test_override_into_a_section_that_is_not_an_object(self, tmp_path, planted_csv):
        path = self.write(tmp_path, config_dict(planted_csv, split=[3]))
        with pytest.raises(ConfigError, match="split must be an object"):
            load_config(path, {"trials": 2})

    def test_override_keys_are_the_config_flags(self):
        bare = argparse.ArgumentParser()
        _add_config_options(bare)
        flags = {action.dest for action in bare._actions} - {"help", "config"}
        assert flags == set(OVERRIDES)
        commands = next(
            action
            for action in build_parser()._actions
            if isinstance(action, argparse._SubParsersAction)
        )
        for name in ("design", "perturb", "evaluate", "sweep"):
            dests = {action.dest for action in commands.choices[name]._actions}
            assert flags <= dests, name


class TestCmdDesign:
    def test_binary_optimum_at_ln2(self, planted_csv):
        cfg = base_config(
            planted_csv, mechanism=Mechanism.OPT_BINARY, epsilon=math.log(2.0)
        )
        payload = cmd_design(cfg)
        diag = sorted([payload["entries"][0][0], payload["entries"][1][1]])
        assert diag[0] == pytest.approx(0.5, abs=1e-12)
        assert diag[1] == pytest.approx(0.75, abs=1e-12)
        assert payload["design"]["objective"] >= 0.0

    @pytest.mark.parametrize(
        "mechanism,zeta,tol",
        [
            ("NonPrivate", None, 1e-12),
            ("RR", None, 1e-12),
            ("GRR", None, 1e-12),
            ("SS", None, 1e-12),
            ("OptBinary", None, 1e-12),
            ("OptKary", 1.0, 1e-8),
        ],
    )
    def test_fair_data_stays_fair(self, fair_csv, mechanism, zeta, tol):
        cfg = base_config(
            fair_csv,
            mechanism=Mechanism(mechanism),
            epsilon=None if mechanism == "NonPrivate" else 1.0,
            zeta=zeta,
        )
        payload = cmd_design(cfg)
        assert payload["predicted"]["delta_prime"] <= tol

    def test_kary_fixture_objective(self, kary_fixture_csv):
        cfg = base_config(
            kary_fixture_csv, mechanism=Mechanism.OPT_KARY, epsilon=1.0, zeta=0.55
        )
        payload = cmd_design(cfg)
        assert payload["design"]["objective"] == pytest.approx(
            KARY_FIXTURE_OBJECTIVE, abs=2e-3
        )
        assert payload["zeta"] == 0.55
        assert payload["k"] == 3

    def test_nonprivate_payload(self, planted_csv):
        cfg = base_config(planted_csv, mechanism=Mechanism.NON_PRIVATE, epsilon=None)
        payload = cmd_design(cfg)
        assert payload["entries"] == [[1.0, 0.0], [0.0, 1.0]]
        assert payload["eps_star"] is None
        assert payload["min_achievable_error"] is None
        assert payload["baselines"] is None
        dataset = ingest_csv(planted_csv, COLUMNS)
        dist = estimate_distribution(dataset)
        assert payload["predicted"]["delta"] == pytest.approx(delta(dist), abs=1e-12)
        assert payload["predicted"]["delta_prime"] == pytest.approx(
            delta_prime(dist), abs=1e-12
        )

    def test_ss_payload(self, tri_csv):
        cfg = base_config(tri_csv, mechanism=Mechanism.SS, epsilon=0.7)
        payload = cmd_design(cfg)
        assert payload["entries"] is None
        assert payload["ss"]["k"] == 3
        assert payload["ss"]["omega"] == 1
        assert 0.0 < payload["ss"]["p_off"] < payload["ss"]["p_true"] < 1.0
        assert payload["eps_star"] == pytest.approx(0.7, abs=1e-9)
        assert 0.0 <= payload["predicted"]["delta_prime"] <= 1.0

    def test_grr_payload_and_baselines(self, tri_csv):
        cfg = base_config(tri_csv, mechanism=Mechanism.GRR, epsilon=1.0)
        payload = cmd_design(cfg)
        entries = np.array(payload["entries"])
        assert entries.shape == (3, 3)
        assert entries.sum(axis=1) == pytest.approx(np.ones(3), abs=1e-12)
        assert payload["eps_star"] == pytest.approx(1.0, abs=1e-9)
        dist = estimate_distribution(ingest_csv(tri_csv, COLUMNS))
        base = payload["baselines"]
        assert base["grr"]["entries"] == payload["entries"]
        assert base["grr"]["predicted_delta_prime"] <= delta_prime(dist) + 1e-12
        assert set(base["ss"]) == {"omega", "p_true", "p_off"}

    def test_writes_file_and_is_deterministic(self, tmp_path, planted_csv):
        cfg = base_config(planted_csv)
        out = tmp_path / "design.json"
        payload = cmd_design(cfg, out)
        again = cmd_design(cfg)
        assert render_json(payload) == render_json(again)
        assert json.loads(out.read_text(encoding="utf-8")) == payload
        assert payload["schema_version"] == 1
        assert payload["config"] == cfg.to_json_dict()

    def test_infeasible_budget_propagates(self, kary_fixture_csv):
        cfg = base_config(
            kary_fixture_csv, mechanism=Mechanism.OPT_KARY, epsilon=1.0, zeta=0.05
        )
        with pytest.raises(InfeasibleBudget):
            cmd_design(cfg)


class TestCmdPerturb:
    def design_file(self, tmp_path, csv_path, **kw):
        cfg = base_config(csv_path, **kw)
        out = tmp_path / "design.json"
        cmd_design(cfg, out)
        return cfg, out

    def test_identity_round_trips(self, tmp_path, planted_csv):
        cfg, design = self.design_file(
            tmp_path, planted_csv, mechanism=Mechanism.NON_PRIVATE, epsilon=None
        )
        out = tmp_path / "pert.csv"
        summary = cmd_perturb(cfg, design, out)
        body = out.read_text(encoding="utf-8").splitlines()
        assert body[0].startswith("# seed=7 mechanism=")
        assert body[1:] == planted_csv.read_text(encoding="utf-8").splitlines()
        assert summary["rows"] == 400

    def test_fixed_seed_reproduces_bytes(self, tmp_path, planted_csv):
        cfg, design = self.design_file(tmp_path, planted_csv)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        cmd_perturb(cfg, design, a)
        cmd_perturb(cfg, design, b)
        assert a.read_bytes() == b.read_bytes()
        other = base_config(planted_csv, seed=8)
        c = tmp_path / "c.csv"
        cmd_perturb(other, design, c)
        assert a.read_bytes() != c.read_bytes()

    def test_non_sensitive_cells_untouched(self, tmp_path, planted_csv):
        cfg, design = self.design_file(tmp_path, planted_csv)
        out = tmp_path / "pert.csv"
        cmd_perturb(cfg, design, out)
        orig = planted_csv.read_text(encoding="utf-8").splitlines()
        pert = out.read_text(encoding="utf-8").splitlines()[1:]
        assert orig[0] == pert[0]
        sens = orig[0].split(",").index("group")
        for o_row, p_row in zip(orig[1:], pert[1:]):
            o_cells, p_cells = o_row.split(","), p_row.split(",")
            del o_cells[sens], p_cells[sens]
            assert o_cells == p_cells

    def test_grr_marginals_within_3_sigma(self, tmp_path):
        n = 100_000
        counts = {0: 50_000, 1: 30_000, 2: 20_000}
        path = tmp_path / "big.csv"
        lines = ["x,group,label"]
        for g, c in counts.items():
            lines.extend(f"0.0,{g},{i % 2}" for i in range(c))
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        cfg, design = self.design_file(tmp_path, path, epsilon=1.0)
        out = tmp_path / "pert.csv"
        cmd_perturb(cfg, design, out)
        entries = np.array(json.loads(design.read_text(encoding="utf-8"))["entries"])
        expected = np.array([0.5, 0.3, 0.2]) @ entries
        observed = np.zeros(3)
        for line in out.read_text(encoding="utf-8").splitlines()[2:]:
            observed[int(line.split(",")[1])] += 1
        for j in range(3):
            sigma = math.sqrt(n * expected[j] * (1.0 - expected[j]))
            assert abs(observed[j] - n * expected[j]) <= 3.0 * sigma

    def test_subset_indicator_columns(self, tmp_path, tri_csv):
        cfg, design = self.design_file(
            tmp_path, tri_csv, mechanism=Mechanism.SS, epsilon=0.7
        )
        out = tmp_path / "pert.csv"
        cmd_perturb(cfg, design, out)
        body = out.read_text(encoding="utf-8").splitlines()
        header = body[1].split(",")
        assert header == ["x1", "x2", "group=0", "group=1", "group=2", "label"]
        omega = json.loads(design.read_text(encoding="utf-8"))["ss"]["omega"]
        orig = tri_csv.read_text(encoding="utf-8").splitlines()[1:]
        for o_row, p_row in zip(orig, body[2:]):
            cells = p_row.split(",")
            flags = [int(c) for c in cells[2:5]]
            assert set(flags) <= {0, 1}
            assert sum(flags) == omega
            o_cells = o_row.split(",")
            assert cells[:2] == o_cells[:2]
            assert cells[5] == o_cells[3]

    def test_hash_tracks_design(self, tmp_path, planted_csv):
        cfg, design = self.design_file(tmp_path, planted_csv)
        summary = cmd_perturb(cfg, design, tmp_path / "p1.csv")
        _, design2 = self.design_file(tmp_path, planted_csv, epsilon=2.0)
        summary2 = cmd_perturb(cfg, design2, tmp_path / "p2.csv")
        assert len(summary["mechanism_hash"]) == 16
        assert summary["mechanism_hash"] != summary2["mechanism_hash"]

    def test_alphabet_mismatch(self, tmp_path, planted_csv, tri_csv):
        _, design3 = self.design_file(tmp_path, tri_csv, epsilon=1.0)
        cfg2 = base_config(planted_csv)
        with pytest.raises(AlphabetMismatch):
            cmd_perturb(cfg2, design3, tmp_path / "bad.csv")

    def test_missing_design_file(self, tmp_path, planted_csv):
        cfg = base_config(planted_csv)
        with pytest.raises(DataError, match="not found"):
            cmd_perturb(cfg, tmp_path / "absent.json", tmp_path / "out.csv")

    def test_reads_input_once(self, tmp_path, planted_csv, monkeypatch):
        cfg, design = self.design_file(tmp_path, planted_csv)
        opened = []
        real_open = builtins.open

        def spy(file, *args, **kwargs):
            if isinstance(file, (str, os.PathLike)) and Path(file) == Path(cfg.data):
                opened.append(file)
            return real_open(file, *args, **kwargs)

        monkeypatch.setattr(builtins, "open", spy)
        cmd_perturb(cfg, design, tmp_path / "pert.csv")
        assert len(opened) == 1


# sha256 of cmd_perturb's output on pinned_release_csv, recorded from a loop
# that built one default_rng(seed ^ i) per record, the definition of each
# record's draw; no change to how a release is computed may move a byte
PINNED_RELEASE_SHA256 = {
    "matrix": "289bf419f4e374312970e719643a3d99cb16db9674628e1cf1be0b4abe6300f4",
    "subset": "787695931f8b4fa8083c06c70c764c6800d9fea8712545268e51308ebda4b251",
}


@pytest.fixture(scope="session")
def pinned_release_csv(tmp_path_factory):
    # five group literals, labels, a numeric and a quoted categorical feature
    # planted by integer formulas only, so the input bytes never move
    path = tmp_path_factory.mktemp("data") / "pinned.csv"
    literals = ("north", "south", "east", "west", "centre")
    cities = ("Oslo", "Lyon, FR", "Graz")
    lines = ["x,city,group,label"]
    for i in range(6000):
        g = (i * i + 3 * i + i // 7) % 5
        label = 1 if (i * 13 + g) % 10 < 2 + g else 0
        city = cities[(i // 3) % 3]
        lines.append(f'{(i * 37) % 101 / 8},"{city}",{literals[g]},{label}')
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


class TestReleaseBytesPinned:
    @pytest.mark.parametrize(
        "kind, payload",
        [
            (
                "matrix",
                {
                    "k": 5,
                    "entries": [
                        [0.6, 0.3, 0.0, 0.1, 0.0],
                        [0.0, 0.55, 0.45, 0.0, 0.0],
                        [0.2, 0.0, 0.5, 0.2, 0.1],
                        [0.0, 0.0, 0.0, 1.0, 0.0],
                        [0.125, 0.25, 0.125, 0.0, 0.5],
                    ],
                },
            ),
            ("subset", {"ss": {"k": 5, "epsilon": 0.3}}),
        ],
    )
    def test_cmd_perturb_output_hash(self, tmp_path, pinned_release_csv, kind, payload):
        design = tmp_path / "design.json"
        design.write_text(json.dumps(payload), encoding="utf-8")
        cfg = base_config(pinned_release_csv, seed=2**40 + 12345)
        out = tmp_path / "release.csv"
        assert cmd_perturb(cfg, design, out)["rows"] == 6000
        digest = hashlib.sha256(out.read_bytes()).hexdigest()
        assert digest == PINNED_RELEASE_SHA256[kind]


class TestCmdEvaluate:
    def test_single_trial_matches_manual_run(self, planted_csv):
        cfg = base_config(
            planted_csv, mechanism=Mechanism.RR, split=SplitConfig(trials=1)
        )
        payload = cmd_evaluate(cfg)
        row = payload["trials"][0]
        assert row["trial"] == 0
        assert row["seed"] == cfg.seed

        dataset = ingest_csv(planted_csv, COLUMNS)
        mech = matrix_of_binary(rr_mechanism(1.0))
        perm = np.random.default_rng(cfg.seed ^ SPLIT_SALT).permutation(dataset.n)
        n_train = min(max(int(round(0.75 * dataset.n)), 1), dataset.n - 1)
        train = perturb_dataset(dataset.subset(perm[:n_train]), mech, cfg.seed)
        model = train_logistic(train, TrainConfig())
        report = evaluate(model, dataset.subset(perm[n_train:]))
        assert row["accuracy"] == report.accuracy
        assert row["sp_gap"] == report.sp_gap
        assert row["eo_gap"] == report.eo_gap

    def test_nonprivate_trains_on_raw_data(self, planted_csv):
        cfg = base_config(
            planted_csv,
            mechanism=Mechanism.NON_PRIVATE,
            epsilon=None,
            split=SplitConfig(trials=1),
        )
        payload = cmd_evaluate(cfg)
        dataset = ingest_csv(planted_csv, COLUMNS)
        perm = np.random.default_rng(cfg.seed ^ SPLIT_SALT).permutation(dataset.n)
        n_train = min(max(int(round(0.75 * dataset.n)), 1), dataset.n - 1)
        model = train_logistic(dataset.subset(perm[:n_train]), TrainConfig())
        report = evaluate(model, dataset.subset(perm[n_train:]))
        assert payload["trials"][0]["accuracy"] == report.accuracy
        assert payload["trials"][0]["sp_gap"] == report.sp_gap

    def test_trial_seeds_are_xor_derived(self, planted_csv):
        cfg = base_config(planted_csv, split=SplitConfig(trials=4))
        payload = cmd_evaluate(cfg)
        assert [row["seed"] for row in payload["trials"]] == [7 ^ t for t in range(4)]

    def test_repeated_runs_byte_identical(self, tmp_path, planted_csv):
        cfg = base_config(planted_csv)
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        cmd_evaluate(cfg, out_path=a)
        cmd_evaluate(cfg, out_path=b)
        assert a.read_bytes() == b.read_bytes()

    def test_summary_matches_trials(self, planted_csv):
        cfg = base_config(planted_csv, split=SplitConfig(trials=3))
        payload = cmd_evaluate(cfg)
        assert payload["summary"] == _summarize(payload["trials"])
        for metric in METRICS:
            stats = payload["summary"][metric]
            assert stats["ci_low"] <= stats["mean"] <= stats["ci_high"]

    def test_single_trial_ci_collapses(self, planted_csv):
        cfg = base_config(planted_csv, split=SplitConfig(trials=1))
        stats = cmd_evaluate(cfg)["summary"]["accuracy"]
        assert stats["ci_low"] == stats["mean"] == stats["ci_high"]

    def test_trials_csv_shape(self, planted_csv):
        cfg = base_config(planted_csv, split=SplitConfig(trials=3))
        text = trials_csv(cmd_evaluate(cfg))
        lines = text.strip().split("\n")
        assert lines[0] == "trial,seed,accuracy,sp_gap,eo_gap,meo_gap,eod_gap"
        assert len(lines) == 4

    def test_too_small_dataset(self, tmp_path):
        path = tmp_path / "one.csv"
        path.write_text("x,group,label\n1.0,0,1\n", encoding="utf-8")
        with pytest.raises(DataError):
            cmd_evaluate(base_config(path))


class TestCmdSweep:
    def test_empty_epsilon_list(self, planted_csv):
        with pytest.raises(ConfigError):
            cmd_sweep(base_config(planted_csv), [])
        with pytest.raises(ConfigError):
            cmd_sweep(base_config(planted_csv), [1.0], mechanisms=[])

    def test_bad_epsilon(self, planted_csv):
        with pytest.raises(InvalidEpsilon):
            cmd_sweep(base_config(planted_csv), [1.0, -2.0])

    def test_unknown_mechanism_name(self, planted_csv):
        with pytest.raises(ConfigError, match="unknown mechanism"):
            cmd_sweep(base_config(planted_csv), [1.0], mechanisms=["Bogus"])

    def test_table_shape(self, planted_csv):
        payload = cmd_sweep(
            base_config(planted_csv),
            [0.5, 1.0],
            mechanisms=["NonPrivate", "RR"],
        )
        rows = payload["rows"]
        assert len(rows) == 2 * 2 * len(METRICS)
        keys = {(r["mechanism"], r["epsilon"], r["metric"]) for r in rows}
        assert len(keys) == len(rows)
        assert all(
            set(r) == {"mechanism", "epsilon", "metric", "mean", "ci_low", "ci_high"}
            for r in rows
        )

    def test_nonprivate_rows_constant(self, planted_csv):
        payload = cmd_sweep(
            base_config(planted_csv), [0.5, 2.0], mechanisms=["NonPrivate"]
        )
        by_metric = {}
        for row in payload["rows"]:
            by_metric.setdefault(row["metric"], set()).add(row["mean"])
        assert all(len(v) == 1 for v in by_metric.values())

    def test_sweep_csv_shape(self, planted_csv):
        payload = cmd_sweep(base_config(planted_csv), [1.0], mechanisms=["RR"])
        lines = sweep_csv(payload).strip().split("\n")
        assert lines[0] == "mechanism,epsilon,metric,mean,ci_low,ci_high"
        assert len(lines) == 1 + len(METRICS)

    def test_opt_gap_shrinks_with_privacy(self, tmp_path):
        # tighter budgets contract the planted disparity harder; trials share
        # splits and perturbation draws across epsilons, so the trend is stable
        path = tmp_path / "sweep.csv"
        export_csv(generate_planted(1200, seed=19), path)
        cfg = base_config(
            path, mechanism=Mechanism.OPT_BINARY, split=SplitConfig(trials=6)
        )
        payload = cmd_sweep(cfg, [0.25, 1.0, 4.0], mechanisms=["OptBinary"])
        sp = {
            row["epsilon"]: row["mean"]
            for row in payload["rows"]
            if row["metric"] == "sp_gap"
        }
        assert sp[0.25] <= sp[1.0] + 0.02
        assert sp[1.0] <= sp[4.0] + 0.02


class TestCmdVerify:
    def fresh_design(self, tmp_path, csv_path, **kw):
        out = tmp_path / "design.json"
        cmd_design(base_config(csv_path, **kw), out)
        return out

    def test_fresh_reports_pass(self, tmp_path, planted_csv, tri_csv, kary_fixture_csv):
        cases = [
            (planted_csv, dict(mechanism=Mechanism.OPT_BINARY)),
            (tri_csv, dict(mechanism=Mechanism.GRR)),
            (tri_csv, dict(mechanism=Mechanism.SS, epsilon=0.7)),
            (planted_csv, dict(mechanism=Mechanism.NON_PRIVATE, epsilon=None)),
            (planted_csv, dict(mechanism=Mechanism.RR)),
            (kary_fixture_csv, dict(mechanism=Mechanism.OPT_KARY, zeta=0.55)),
        ]
        for csv_path, kw in cases:
            path = self.fresh_design(tmp_path, csv_path, **kw)
            payload = json.loads(path.read_text(encoding="utf-8"))
            assert payload["mechanism"] == kw["mechanism"].value
            result = cmd_verify(path)
            assert result["ok"] is True, kw
            assert all(result["checks"].values()), kw

    def test_tampered_entries_fail(self, tmp_path, planted_csv):
        path = self.fresh_design(tmp_path, planted_csv)
        payload = json.loads(path.read_text(encoding="utf-8"))
        payload["entries"][0][0] += 0.05
        payload["entries"][0][1] -= 0.05
        path.write_text(json.dumps(payload), encoding="utf-8")
        result = cmd_verify(path)
        assert result["ok"] is False
        assert result["checks"]["eps_star"] is False

    def test_tampered_prediction_fails(self, tmp_path, planted_csv):
        path = self.fresh_design(tmp_path, planted_csv)
        payload = json.loads(path.read_text(encoding="utf-8"))
        payload["predicted"]["delta_prime"] += 1e-6
        path.write_text(json.dumps(payload), encoding="utf-8")
        result = cmd_verify(path)
        assert result["checks"]["predicted_delta_prime"] is False

    def test_tampered_min_error_fails(self, tmp_path, planted_csv):
        path = self.fresh_design(tmp_path, planted_csv)
        payload = json.loads(path.read_text(encoding="utf-8"))
        payload["min_achievable_error"] *= 1.01
        path.write_text(json.dumps(payload), encoding="utf-8")
        assert cmd_verify(path)["checks"]["min_achievable_error"] is False

    def test_evaluate_report_summary_recheck(self, tmp_path, planted_csv):
        design = self.fresh_design(tmp_path, planted_csv)
        report = tmp_path / "eval.json"
        cmd_evaluate(base_config(planted_csv), out_path=report)
        assert cmd_verify(design, report)["checks"]["summary"] is True
        payload = json.loads(report.read_text(encoding="utf-8"))
        payload["trials"][0]["accuracy"] += 0.01
        report.write_text(json.dumps(payload), encoding="utf-8")
        result = cmd_verify(design, report)
        assert result["checks"]["summary"] is False
        assert result["ok"] is False

    def test_missing_or_invalid_files(self, tmp_path):
        with pytest.raises(DataError, match="not found"):
            cmd_verify(tmp_path / "absent.json")
        bad = tmp_path / "bad.json"
        bad.write_text("{", encoding="utf-8")
        with pytest.raises(DataError, match="JSON"):
            cmd_verify(bad)

    @pytest.mark.parametrize(
        "tamper",
        [
            pytest.param(lambda p: p["ss"].update(omega=2), id="omega"),
            pytest.param(lambda p: p["ss"].update(omega="1"), id="omega-str"),
            pytest.param(lambda p: p["ss"].update(omega=True), id="omega-bool"),
            pytest.param(lambda p: p["ss"].update(p_true=math.nan), id="p-true-nan"),
            pytest.param(lambda p: p["ss"].update(p_true=0.5), id="p-true"),
            pytest.param(lambda p: p["ss"].update(p_off=0.5), id="p-off"),
            pytest.param(lambda p: p["ss"].update(epsilon=0.8), id="ss-epsilon"),
            pytest.param(lambda p: p.update(epsilon=0.8), id="epsilon"),
            pytest.param(lambda p: p.update(epsilon=None), id="epsilon-null"),
        ],
    )
    def test_tampered_subset_report_is_data_error(self, tmp_path, tri_csv, tamper):
        path = self.fresh_design(tmp_path, tri_csv, mechanism=Mechanism.SS, epsilon=0.7)
        payload = json.loads(path.read_text(encoding="utf-8"))
        tamper(payload)
        path.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(DataError, match="rebuilt from ss.k and ss.epsilon"):
            cmd_verify(path)

    def test_missing_dist_is_data_error(self, tmp_path, planted_csv):
        path = self.fresh_design(tmp_path, planted_csv)
        payload = json.loads(path.read_text(encoding="utf-8"))
        del payload["dist"]
        path.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(DataError, match="'dist'"):
            cmd_verify(path)


def _set(path: list, value):
    """A change that sets the JSON value at path (keys and indices)."""

    def change(payload):
        *parents, last = path
        for key in parents:
            payload = payload[key]
        payload[last] = value

    return change


# Malformed input through the CLI: (what to change, the change, exit code).
# "design" and "evaluate" change a fresh report and run verify on it,
# "config" changes the config file and runs design, and "flags" runs a
# command with these flags after --config.  Mistyped design-report fields
# that perturb rejects too are cases of test_malformed_mechanism_exit.
MALFORMED_INPUT_PROBES = [
    pytest.param("design", _set(["epsilon"], -1), 4, id="design-epsilon-negative"),
    pytest.param("design", lambda p: p.pop("dist"), 4, id="design-dist-deleted"),
    pytest.param(
        "design", _set(["dist", "group_probs"], [0.6, 0.5]), 4, id="design-group-probs-sum"
    ),
    pytest.param("evaluate", _set(["trials"], "x"), 4, id="trials-str"),
    pytest.param("evaluate", _set(["trials"], []), 4, id="trials-empty"),
    pytest.param("evaluate", _set(["trials", 0], [1]), 4, id="trial-row-list"),
    pytest.param(
        "evaluate", _set(["trials", 0, "accuracy"], "0.5"), 4, id="trial-metric-str"
    ),
    pytest.param("evaluate", _set(["summary"], []), 4, id="summary-list"),
    pytest.param(
        "evaluate", _set(["summary", "accuracy", "mean"], "0.5"), 4, id="summary-mean-str"
    ),
    pytest.param(
        "evaluate", _set(["summary", "accuracy", "mean"], math.nan), 4, id="summary-mean-nan"
    ),
    pytest.param("config", _set(["epsilon"], " 1.5 "), 2, id="config-epsilon-str"),
    pytest.param("config", _set(["seed"], "5"), 2, id="config-seed-str"),
    pytest.param("config", _set(["split"], {"trials": "3"}), 2, id="config-trials-str"),
    pytest.param("config", _set(["zeta"], math.nan), 2, id="config-zeta-nan"),
    pytest.param("flags", ["design", "--zeta", "nan"], 2, id="design-zeta-nan"),
    pytest.param("flags", ["design", "--zeta", "inf"], 2, id="design-zeta-inf"),
    pytest.param("flags", ["design", "--zeta", "5"], 2, id="design-zeta-5"),
    pytest.param(
        "flags",
        ["evaluate", "--mechanism", "NonPrivate", "--epsilon", "inf"],
        2,
        id="evaluate-nonprivate-epsilon-inf",
    ),
    pytest.param(
        "flags", ["sweep", "--epsilons", "1", "--zeta", "nan"], 2, id="sweep-zeta-nan"
    ),
    pytest.param(
        "flags", ["sweep", "--epsilons", "1", "--mechanisms", ","], 2, id="sweep-no-mechanisms"
    ),
    pytest.param("flags", ["sweep", "--epsilons", ","], 2, id="sweep-no-epsilons"),
]


class TestCli:
    def write_config(self, tmp_path, raw):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(raw), encoding="utf-8")
        return path

    def test_design_stdout_json(self, tmp_path, planted_csv, capsys):
        cfg = self.write_config(tmp_path, config_dict(planted_csv))
        assert main(["design", "--config", str(cfg)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["mechanism"] == "GRR"

    def test_design_out_file_suppresses_stdout(self, tmp_path, planted_csv, capsys):
        cfg = self.write_config(tmp_path, config_dict(planted_csv))
        out = tmp_path / "design.json"
        assert main(["design", "--config", str(cfg), "--out", str(out)]) == 0
        assert capsys.readouterr().out == ""
        assert json.loads(out.read_text(encoding="utf-8"))["epsilon"] == 1.0

    def test_flag_override_wins(self, tmp_path, planted_csv, capsys):
        cfg = self.write_config(tmp_path, config_dict(planted_csv))
        assert main(["design", "--config", str(cfg), "--epsilon", "2.0"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["epsilon"] == 2.0
        assert payload["config"]["epsilon"] == 2.0

    def test_config_error_exit(self, tmp_path, planted_csv, capsys):
        cfg = self.write_config(
            tmp_path, config_dict(planted_csv, mechanism="Laplace")
        )
        assert main(["design", "--config", str(cfg)]) == 2
        assert "unknown mechanism" in capsys.readouterr().err

    def test_solver_error_exit(self, tmp_path, kary_fixture_csv, capsys):
        raw = config_dict(kary_fixture_csv, mechanism="OptKary", zeta=0.05)
        cfg = self.write_config(tmp_path, raw)
        assert main(["design", "--config", str(cfg)]) == 3
        assert "no feasible mechanism" in capsys.readouterr().err

    def test_numerical_failure_prints_where(self, tmp_path, kary_fixture_csv, monkeypatch, capsys):
        solve = kary_design.linprog

        def refinement_fails(model):
            res = solve(model)
            # the utility refinement: an error objective on the 6 entries,
            # with the fairness rows in place
            cost = model.dense()[0]
            if model.fairness is not None and np.any(cost[:6]):
                res.status, res.message = 4, "forced"
            return res

        monkeypatch.setattr(kary_design, "linprog", refinement_fails)
        raw = config_dict(kary_fixture_csv, mechanism="OptKary", zeta=0.55)
        cfg = self.write_config(tmp_path, raw)
        assert main(["design", "--config", str(cfg)]) == 3
        err = capsys.readouterr().err.splitlines()
        assert err[0].startswith("error: utility refinement ended with status 4 at t=")
        assert err[1:] == [
            "  stage: utility refinement",
            f"  t: {err[0].rsplit('=', 1)[1]}",
            "  status: 4",
            "  message: forced",
            "  k: 3",
            "  epsilon: 1.0",
            "  zeta: 0.55",
        ]

    def test_data_error_exit(self, tmp_path, capsys):
        raw = config_dict(tmp_path / "absent.csv")
        cfg = self.write_config(tmp_path, raw)
        assert main(["design", "--config", str(cfg)]) == 4
        assert capsys.readouterr().err.startswith("error:")

    def test_mistyped_config_value_exit(self, tmp_path, planted_csv, capsys):
        cfg = self.write_config(tmp_path, config_dict(planted_csv, epsilon="one"))
        assert main(["design", "--config", str(cfg)]) == 2
        assert "epsilon must be a number" in capsys.readouterr().err

    def test_short_csv_row_exit(self, tmp_path, capsys):
        data = tmp_path / "short.csv"
        data.write_text("x,group,label\n1.0,a,1\n2.0,b\n", encoding="utf-8")
        cfg = self.write_config(tmp_path, config_dict(data))
        assert main(["design", "--config", str(cfg)]) == 4
        assert "cannot parse row 1, column 'label'" in capsys.readouterr().err

    def test_verify_incomplete_report_exit(self, tmp_path, planted_csv, capsys):
        cfg = self.write_config(tmp_path, config_dict(planted_csv))
        design = tmp_path / "design.json"
        assert main(["design", "--config", str(cfg), "--out", str(design)]) == 0
        payload = json.loads(design.read_text(encoding="utf-8"))
        del payload["dist"]
        design.write_text(json.dumps(payload), encoding="utf-8")
        assert main(["verify", str(design)]) == 4
        assert "missing 'dist'" in capsys.readouterr().err

    def test_long_csv_row_exit(self, tmp_path, capsys):
        data = tmp_path / "long.csv"
        data.write_text("x,group,label\n1.0,a,1\n2.0,b,0,extra\n", encoding="utf-8")
        cfg = self.write_config(tmp_path, config_dict(data))
        assert main(["design", "--config", str(cfg)]) == 4
        assert "row has 4 cells, header has 3" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "order",
        [["a", "b", "a"], ["a", "", "b"], "ab", ["a", 1]],
        ids=["repeated", "empty-string", "not-a-list", "not-a-string"],
    )
    def test_malformed_sensitive_order_exit(self, tmp_path, order, capsys):
        data = tmp_path / "tri.csv"
        data.write_text("x,group,label\n1.0,a,1\n2.0,b,0\n3.0,a,0\n", encoding="utf-8")
        raw = config_dict(data)
        raw["columns"]["sensitive_order"] = order
        cfg = self.write_config(tmp_path, raw)
        assert main(["design", "--config", str(cfg)]) == 2
        assert "sensitive_order must be a list" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "section,key,value,message",
        [
            ("columns", "sensitive", ["group"], "sensitive must be a string"),
            ("columns", "label", {"name": "label"}, "label must be a string"),
            (None, "data", None, "data must be a string"),
            (None, "data", 3, "data must be a string"),
            ("columns", "positive_label", True, "positive_label must be a string or"),
            ("columns", "positive_label", None, "positive_label must be a string or"),
        ],
    )
    def test_mistyped_column_names_exit(
        self, tmp_path, planted_csv, section, key, value, message, capsys
    ):
        raw = config_dict(planted_csv)
        (raw if section is None else raw[section])[key] = value
        cfg = self.write_config(tmp_path, raw)
        assert main(["design", "--config", str(cfg)]) == 2
        assert message in capsys.readouterr().err

    def test_numeric_positive_label_is_its_literal(self, tmp_path, planted_csv, capsys):
        raw = config_dict(planted_csv)
        raw["columns"]["positive_label"] = 1
        cfg = self.write_config(tmp_path, raw)
        assert main(["design", "--config", str(cfg)]) == 0
        columns = json.loads(capsys.readouterr().out)["config"]["columns"]
        assert columns["positive_label"] == "1"

    @pytest.mark.parametrize("mechanism", ["GRR", "SS", "OptBinary", "OptKary"])
    def test_epsilon_whose_exponential_overflows_exit(
        self, tmp_path, planted_csv, mechanism, capsys
    ):
        cfg = self.write_config(tmp_path, config_dict(planted_csv, zeta=0.5))
        argv = ["design", "--config", str(cfg), "--mechanism", mechanism]
        assert main([*argv, "--epsilon", "800"]) == 2
        assert "privacy budget must lie in" in capsys.readouterr().err

    def test_sweep_epsilon_whose_exponential_overflows_exit(
        self, tmp_path, planted_csv, capsys
    ):
        cfg = self.write_config(tmp_path, config_dict(planted_csv))
        assert main(["sweep", "--config", str(cfg), "--epsilons", "1,800"]) == 2
        assert "privacy budget must lie in" in capsys.readouterr().err

    def test_subset_release_at_a_huge_epsilon_exit(self, tmp_path, planted_csv, capsys):
        # p_true rounds to 1, so the level is inf and misses the budget
        cfg = self.write_config(tmp_path, config_dict(planted_csv))
        argv = ["design", "--config", str(cfg), "--mechanism", "SS"]
        assert main([*argv, "--epsilon", "40"]) == 3
        assert "violates the privacy bound" in capsys.readouterr().err

    def test_sensitive_order_codes_groups(self, tmp_path, capsys):
        data = tmp_path / "tri.csv"
        data.write_text("x,group,label\n1.0,a,1\n2.0,b,0\n3.0,a,0\n", encoding="utf-8")
        raw = config_dict(data)
        raw["columns"]["sensitive_order"] = ["b", "a"]
        cfg = self.write_config(tmp_path, raw)
        assert main(["design", "--config", str(cfg)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["dist"]["group_probs"] == pytest.approx([1 / 3, 2 / 3])

    @pytest.mark.parametrize(
        "tamper",
        [
            pytest.param(lambda p: p["entries"][0].__setitem__(0, 1.05), id="row-sum"),
            pytest.param(lambda p: p["entries"][0].__setitem__(0, None), id="null"),
            pytest.param(lambda p: p.__setitem__("entries", "x"), id="entries-str"),
            pytest.param(
                lambda p: p.update(ss={"epsilon": 1.0}, entries=None), id="ss-no-k"
            ),
            pytest.param(
                lambda p: p.update(
                    ss={"k": 2, "epsilon": 1.0, "omega": 1, "p_true": 0.5},
                    entries=None,
                ),
                id="ss-p-true",
            ),
            pytest.param(
                lambda p: p.update(ss={"k": "2", "epsilon": 1.0}, entries=None),
                id="ss-k-str",
            ),
            pytest.param(
                lambda p: p.update(ss={"k": 2, "epsilon": "1.0"}, entries=None),
                id="ss-epsilon-str",
            ),
            # fields only verify uses, but present and mistyped: both commands
            # reject them
            pytest.param(lambda p: p.update(epsilon="x"), id="epsilon-str"),
            pytest.param(lambda p: p.update(epsilon=True), id="epsilon-bool"),
            pytest.param(lambda p: p.update(epsilon=math.nan), id="epsilon-nan"),
            pytest.param(lambda p: p.update(k="2"), id="k-str"),
            pytest.param(lambda p: p.update(k=2.5), id="k-fraction"),
            pytest.param(
                lambda p: p.update(predicted={"delta": None, "delta_prime": 0.1}),
                id="predicted-null",
            ),
            pytest.param(lambda p: p.update(predicted=[1]), id="predicted-list"),
            pytest.param(lambda p: p.update(eps_star="x"), id="eps-star-str"),
            pytest.param(
                lambda p: p.update(min_achievable_error="x"), id="min-error-str"
            ),
            pytest.param(lambda p: p.update(dist=[1]), id="dist-list"),
        ],
    )
    def test_malformed_mechanism_exit(self, tmp_path, planted_csv, capsys, tamper):
        cfg = self.write_config(tmp_path, config_dict(planted_csv))
        design = tmp_path / "design.json"
        assert main(["design", "--config", str(cfg), "--out", str(design)]) == 0
        payload = json.loads(design.read_text(encoding="utf-8"))
        tamper(payload)
        design.write_text(json.dumps(payload), encoding="utf-8")
        capsys.readouterr()
        out = tmp_path / "pert.csv"
        perturb = ["perturb", "--config", str(cfg), "--mechanism-file", str(design)]
        for command in (["verify", str(design)], [*perturb, "--out", str(out)]):
            assert main(command) == 4
            captured = capsys.readouterr()
            # a DataError, not a failed verification report
            assert captured.out == ""
            assert captured.err.startswith("error: design report")
        assert not out.exists()

    @pytest.mark.parametrize("target, change, code", MALFORMED_INPUT_PROBES)
    def test_malformed_input_exit(
        self, tmp_path, planted_csv, fresh_reports, capsys, target, change, code
    ):
        raw = config_dict(planted_csv)
        design, report = copy.deepcopy(fresh_reports)
        if target != "flags":
            change({"config": raw, "design": design, "evaluate": report}[target])
        cfg = self.write_config(tmp_path, raw)
        paths = [tmp_path / "design.json", tmp_path / "eval.json"]
        for path, payload in zip(paths, (design, report)):
            path.write_text(json.dumps(payload), encoding="utf-8")
        if target == "flags":
            argv = [change[0], "--config", str(cfg), *change[1:]]
        elif target == "config":
            argv = ["design", "--config", str(cfg)]
        else:
            argv = ["verify", *map(str, paths)]
        assert main(argv) == code
        captured = capsys.readouterr()
        assert captured.err.startswith("error:")
        assert captured.out == ""
        if target == "design":
            # a field only verify needs: perturb still applies the mechanism
            out = tmp_path / "pert.csv"
            perturb = ["perturb", "--config", str(cfg), "--mechanism-file"]
            assert main([*perturb, str(paths[0]), "--out", str(out)]) == 0
            assert out.exists()

    @pytest.mark.parametrize("root", [[1, 2], "x", 3, None])
    def test_non_object_design_root_exit(self, tmp_path, planted_csv, capsys, root):
        cfg = self.write_config(tmp_path, config_dict(planted_csv))
        design = tmp_path / "design.json"
        design.write_text(json.dumps(root), encoding="utf-8")
        out = tmp_path / "pert.csv"
        perturb = ["perturb", "--config", str(cfg), "--mechanism-file", str(design)]
        for command in (["verify", str(design)], [*perturb, "--out", str(out)]):
            assert main(command) == 4
            captured = capsys.readouterr()
            assert captured.out == ""
            assert "JSON root is not an object" in captured.err
        assert not out.exists()

    def test_non_object_evaluate_report_exit(self, tmp_path, planted_csv, capsys):
        cfg = self.write_config(tmp_path, config_dict(planted_csv))
        design = tmp_path / "design.json"
        assert main(["design", "--config", str(cfg), "--out", str(design)]) == 0
        report = tmp_path / "eval.json"
        report.write_text("[]", encoding="utf-8")
        assert main(["verify", str(design), str(report)]) == 4
        assert "evaluate report's JSON root is not an object" in capsys.readouterr().err

    def test_rr_on_three_groups_is_data_error(self, tmp_path, tri_csv):
        cfg = self.write_config(tmp_path, config_dict(tri_csv, mechanism="RR"))
        assert main(["design", "--config", str(cfg)]) == 4

    def test_perturb_and_verify_flow(self, tmp_path, planted_csv, capsys):
        cfg = self.write_config(tmp_path, config_dict(planted_csv))
        design = tmp_path / "design.json"
        pert = tmp_path / "pert.csv"
        assert main(["design", "--config", str(cfg), "--out", str(design)]) == 0
        rc = main(
            [
                "perturb",
                "--config",
                str(cfg),
                "--mechanism-file",
                str(design),
                "--out",
                str(pert),
            ]
        )
        assert rc == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["rows"] == 400
        assert main(["verify", str(design)]) == 0
        assert json.loads(capsys.readouterr().out)["ok"] is True

    def test_verify_tampered_exits_nonzero(self, tmp_path, planted_csv, capsys):
        cfg = self.write_config(tmp_path, config_dict(planted_csv))
        design = tmp_path / "design.json"
        main(["design", "--config", str(cfg), "--out", str(design)])
        capsys.readouterr()
        payload = json.loads(design.read_text(encoding="utf-8"))
        payload["min_achievable_error"] *= 2.0
        design.write_text(json.dumps(payload), encoding="utf-8")
        assert main(["verify", str(design)]) == 4
        captured = capsys.readouterr()
        assert json.loads(captured.out)["ok"] is False
        assert "failed" in captured.err

    def test_evaluate_with_csv(self, tmp_path, planted_csv, capsys):
        raw = config_dict(planted_csv)
        raw["split"]["trials"] = 2
        cfg = self.write_config(tmp_path, raw)
        out = tmp_path / "eval.json"
        out_csv = tmp_path / "trials.csv"
        rc = main(
            [
                "evaluate",
                "--config",
                str(cfg),
                "--out",
                str(out),
                "--out-csv",
                str(out_csv),
            ]
        )
        assert rc == 0
        payload = json.loads(out.read_text(encoding="utf-8"))
        assert len(payload["trials"]) == 2
        assert out_csv.read_text(encoding="utf-8").startswith("trial,seed,")

    def test_sweep_flags(self, tmp_path, planted_csv, capsys):
        raw = config_dict(planted_csv)
        raw["split"]["trials"] = 2
        cfg = self.write_config(tmp_path, raw)
        out_csv = tmp_path / "sweep.csv"
        rc = main(
            [
                "sweep",
                "--config",
                str(cfg),
                "--epsilons",
                "0.5,1",
                "--mechanisms",
                "NonPrivate,RR",
                "--out-csv",
                str(out_csv),
            ]
        )
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["rows"]) == 2 * 2 * len(METRICS)
        assert len(out_csv.read_text(encoding="utf-8").strip().split("\n")) == 21

    def test_sweep_rejects_empty_epsilons(self, tmp_path, planted_csv, capsys):
        cfg = self.write_config(tmp_path, config_dict(planted_csv))
        assert main(["sweep", "--config", str(cfg), "--epsilons", ","]) == 2
        assert capsys.readouterr().err.startswith("error:")
