"""Digest every artifact and output of the five CLI commands.

    PYTHONPATH=src python tests/cli_identity.py

Writes a fixed binary table and a fixed k=3 table into a scratch directory,
then runs design, perturb, evaluate, sweep and verify through
`fairldp.cli.main` for every mechanism on both.  Paths are relative to the
scratch directory, so the reports do not depend on where it lives.  Feeds
each command's exit code, stdout, stderr and written files into one sha256
and prints it with the count of commands run per exit code.  Two trees that print the same
digest produce the same bytes on these inputs.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from collections import Counter
from pathlib import Path

from fairldp.cli import main
from fairldp.dataset import export_csv
from fairldp.synthetic import PlantedConfig, generate_planted

TABLES = {
    "binary": (PlantedConfig(), 400, 7),
    "tri": (
        PlantedConfig(group_probs=(0.4, 0.35, 0.25), pos_rates=(0.3, 0.5, 0.7)),
        300,
        11,
    ),
}
MECHANISMS = ("NonPrivate", "RR", "GRR", "SS", "OptBinary", "OptKary")
# RR and OptBinary need k = 2: each k=3 command with them exits 4, and a
# sweep stops at its first failing mechanism, so the k=3 sweep leaves them out
SWEPT = {"binary": MECHANISMS, "tri": ("NonPrivate", "GRR", "SS", "OptKary")}
EPSILON = "1.0"
ZETA = "0.6"
SWEEP_EPSILONS = "0.5,2"


def write_config(table: str) -> str:
    path = f"{table}.json"
    config = {
        "data": f"{table}.csv",
        "columns": {"sensitive": "group", "label": "label", "positive_label": "1"},
        "mechanism": "NonPrivate",
        "seed": 7,
        "split": {"train_fraction": 0.75, "trials": 3},
    }
    Path(path).write_text(json.dumps(config), encoding="utf-8")
    return path


def run(digest, argv: list[str], outputs: list[str]) -> int:
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(argv)
    digest.update(json.dumps([argv, code, stdout.getvalue(), stderr.getvalue()]).encode())
    for name in outputs:
        path = Path(name)
        digest.update(path.read_bytes() if path.exists() else b"<absent>")
    return code


def main_identity() -> int:
    digest = hashlib.sha256()
    codes: Counter[int] = Counter()
    with tempfile.TemporaryDirectory() as scratch:
        here = os.getcwd()
        os.chdir(scratch)
        try:
            for table, (planted, n, seed) in TABLES.items():
                export_csv(generate_planted(n, planted, seed=seed), f"{table}.csv")
                config = write_config(table)
                for mech in MECHANISMS:
                    stem = f"{table}-{mech}"
                    flags = ["--config", config, "--mechanism", mech]
                    if mech != "NonPrivate":
                        flags += ["--epsilon", EPSILON, "--zeta", ZETA]
                    steps = [
                        (["design", *flags, "--out", f"{stem}.design.json"],
                         [f"{stem}.design.json"]),
                        (["design", *flags], []),
                        (["perturb", *flags, "--mechanism-file",
                          f"{stem}.design.json", "--out", f"{stem}.csv"],
                         [f"{stem}.csv"]),
                        (["evaluate", *flags, "--out", f"{stem}.eval.json",
                          "--out-csv", f"{stem}.trials.csv"],
                         [f"{stem}.eval.json", f"{stem}.trials.csv"]),
                        (["verify", f"{stem}.design.json", f"{stem}.eval.json"], []),
                    ]
                    for argv, outputs in steps:
                        codes[run(digest, argv, outputs)] += 1
                sweep = ["sweep", "--config", config, "--zeta", ZETA,
                         "--epsilons", SWEEP_EPSILONS,
                         "--mechanisms", ",".join(SWEPT[table])]
                outputs = [f"{table}.sweep.json", f"{table}.sweep.csv"]
                written = ["--out", outputs[0], "--out-csv", outputs[1]]
                codes[run(digest, [*sweep, *written], outputs)] += 1
                codes[run(digest, sweep, [])] += 1
        finally:
            os.chdir(here)
    print("commands by exit code:", dict(sorted(codes.items())))
    print(f"sha256 {digest.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main_identity())
