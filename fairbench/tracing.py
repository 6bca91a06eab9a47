"""Span tracing of fairldp from outside the package.

The tracer replaces public functions of the fairldp modules with wrappers
that record one span per call: (name, start, end, parent).  Nothing under
src/ changes; the wrappers are swapped into every fairldp module namespace
that holds the original function, because the modules import each other's
functions by name.  Spans are kept in memory and written out once at the end.

Per-record helpers (mechanisms.record_rng, mechanisms.ss_perturb,
kary_design.var_index) are not wrapped: one span per record would cost a
sizeable share of the record's own time and distort the figures.
"""

from __future__ import annotations

import json
import math
import sys
import time
from pathlib import Path

LAYERS = (
    "mechanisms",
    "dataset",
    "kary_design",
    "evaluation",
    "pipeline",
    "distribution",
    "binary_design",
    "synthetic",
)

TRACED = {
    "mechanisms": (
        "grr_matrix",
        "induced_distribution",
        "matrix_of_binary",
        "perturb_dataset",
        "privacy_level",
        "rr_mechanism",
        "ss_induced_distribution",
        "ss_params",
        "ss_privacy_level",
        "verify_ldp",
    ),
    "dataset": ("export_csv", "ingest_csv"),
    "kary_design": (
        "assemble_constraints",
        "fairness_rows_at",
        "lp_feasible",
        "min_achievable_error",
        "solve_opt_k",
    ),
    "evaluation": (
        "base_rate_threshold",
        "evaluate",
        "statistical_parity_gap",
        "train_logistic",
    ),
    "pipeline": (
        "cmd_design",
        "cmd_evaluate",
        "cmd_perturb",
        "cmd_sweep",
        "design_mechanism",
    ),
    "distribution": ("delta", "delta_prime", "estimate_distribution"),
    "binary_design": ("objective_ratio", "opt_binary"),
    "synthetic": ("bayes_accuracy", "generate_planted"),
}

# the HiGHS call as kary_design sees it; a layer of its own so that
# kary_design's self time is the Python constraint assembly alone
LP_SPAN = "highs.linprog"


def implied_lp_solves(result) -> int:
    """LP solves a successful solve_opt_k must have made, from its certificate.

    One static feasibility check, one probe at t=0, one solve per bisection
    step (none when t=0 was feasible), and one utility refinement.
    """
    steps = result.certificate.iterations
    if list(steps) == [(0.0, 0.0)]:
        return 3
    return 3 + len(steps)


class Tracer:
    """In-memory span recorder with per-call hooks for counts."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.failed: set[int] = set()
        # span index -> counts attached on return (records, rows, implied LPs)
        self.attrs: dict[int, dict[str, int]] = {}
        self.gd_steps = 0
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ----------------------------------------------------------

    def _wrap(self, name: str, fn, on_return=None):
        names, starts, ends, parents, stack = (
            self.names,
            self.starts,
            self.ends,
            self.parents,
            self._stack,
        )
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            ends.append(math.nan)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                ends[idx] = clock()
                stack.pop()
                self.failed.add(idx)
                raise
            ends[idx] = clock()
            stack.pop()
            if on_return is not None:
                self.attrs[idx] = on_return(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _count_gd_step(self, fn):
        # train_logistic evaluates expit once per gradient step; the model's
        # scoring path calls it too, so only calls made inside a
        # train_logistic span count
        names, stack = self.names, self._stack

        def counted(*args, **kwargs):
            if stack and names[stack[-1]] == "evaluation.train_logistic":
                self.gd_steps += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    def _replace_everywhere(self, original, replacement) -> None:
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (
                mod_name == "fairldp" or mod_name.startswith("fairldp.")
            ):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, attr, original))
                    setattr(module, attr, replacement)

    def install(self) -> None:
        import fairldp.evaluation as evaluation
        import fairldp.kary_design as kary_design

        hooks = {
            "mechanisms.perturb_dataset": lambda args, res: {
                "records": args[0].n,
                "subset": int(res.indicator_columns is not None),
            },
            "dataset.ingest_csv": lambda args, res: {"rows": res.n},
            "kary_design.solve_opt_k": lambda args, res: {
                "implied_lps": implied_lp_solves(res)
            },
        }
        for layer, functions in TRACED.items():
            module = sys.modules.get(f"fairldp.{layer}") or __import__(
                f"fairldp.{layer}", fromlist=["_"]
            )
            for fn_name in functions:
                name = f"{layer}.{fn_name}"
                original = getattr(module, fn_name)
                self._replace_everywhere(
                    original, self._wrap(name, original, hooks.get(name))
                )
        original = kary_design.linprog
        self._patches.append((kary_design, "linprog", original))
        kary_design.linprog = self._wrap(LP_SPAN, original)
        original = evaluation.expit
        self._patches.append((evaluation, "expit", original))
        evaluation.expit = self._count_gd_step(original)

    def uninstall(self) -> None:
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    # -- analysis -----------------------------------------------------------

    def self_times(self) -> list[float]:
        durations = [e - s for s, e in zip(self.starts, self.ends)]
        own = list(durations)
        for idx, parent in enumerate(self.parents):
            if parent >= 0:
                own[parent] -= durations[idx]
        return own

    def lp_solves_by_entry(self) -> dict[int, int]:
        """LP solves under each solve_opt_k / min_achievable_error span.

        Keyed by the entry span's index; an LP made outside both is keyed -1.
        """
        entries = ("kary_design.solve_opt_k", "kary_design.min_achievable_error")
        counts: dict[int, int] = {
            idx: 0 for idx, name in enumerate(self.names) if name in entries
        }
        for idx, name in enumerate(self.names):
            if name != LP_SPAN:
                continue
            parent = self.parents[idx]
            while parent >= 0 and self.names[parent] not in entries:
                parent = self.parents[parent]
            counts[parent] = counts.get(parent, 0) + 1
        return counts

    def overhead_per_call(self, calls: int = 20000) -> tuple[float, float, float]:
        """Measured added cost, in s, of one span, of one span with a
        return hook, and of one gd-step count."""

        def noop():
            return None

        probe = Tracer()
        wrappers = (
            probe._wrap("probe", noop),
            probe._wrap("probe", noop, lambda args, res: {"records": len(args)}),
            probe._count_gd_step(noop),
        )
        clock = time.perf_counter
        t0 = clock()
        for _ in range(calls):
            noop()
        raw = clock() - t0
        costs = []
        for wrapper in wrappers:
            t0 = clock()
            for _ in range(calls):
                wrapper()
            costs.append(max(clock() - t0 - raw, 0.0) / calls)
        return costs[0], costs[1], costs[2]

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Every per-layer metric, as name -> (value, unit)."""
        durations = [e - s for s, e in zip(self.starts, self.ends)]
        own = self.self_times()
        layer_of = [name.split(".", 1)[0] for name in self.names]

        def total(name: str, values=durations) -> float:
            return float(sum(v for n, v in zip(self.names, values) if n == name))

        def calls(name: str) -> int:
            return sum(1 for n in self.names if n == name)

        def attr_sum(name: str, key: str) -> int:
            return sum(
                self.attrs.get(idx, {}).get(key, 0)
                for idx, n in enumerate(self.names)
                if n == name
            )

        out: dict[str, tuple[float, str]] = {}
        for layer in LAYERS:
            busy = 0.0
            for idx, lay in enumerate(layer_of):
                if lay != layer:
                    continue
                parent = self.parents[idx]
                while parent >= 0 and layer_of[parent] != layer:
                    parent = self.parents[parent]
                if parent < 0:
                    busy += durations[idx]
            out[f"{layer}.calls"] = (layer_of.count(layer), "count")
            out[f"{layer}.busy_s"] = (busy, "s")
            out[f"{layer}.self_s"] = (
                float(sum(v for lay, v in zip(layer_of, own) if lay == layer)),
                "s",
            )

        perturb_s = total("mechanisms.perturb_dataset")
        records = attr_sum("mechanisms.perturb_dataset", "records")
        out["mechanisms.perturb_dataset.s"] = (perturb_s, "s")
        out["mechanisms.perturb_dataset.records"] = (records, "count")
        out["mechanisms.ns_per_record"] = (
            perturb_s / records * 1e9 if records else 0.0,
            "ns/record",
        )
        for kind, subset in (("matrix", 0), ("subset", 1)):
            spans = [
                idx
                for idx, name in enumerate(self.names)
                if name == "mechanisms.perturb_dataset"
                and self.attrs.get(idx, {}).get("subset") == subset
            ]
            kind_records = sum(self.attrs[idx]["records"] for idx in spans)
            kind_s = sum(durations[idx] for idx in spans)
            out[f"mechanisms.{kind}_ns_per_record"] = (
                kind_s / kind_records * 1e9 if kind_records else 0.0,
                "ns/record",
            )

        out["dataset.ingest_csv.s"] = (total("dataset.ingest_csv"), "s")
        out["dataset.ingest_csv.rows"] = (attr_sum("dataset.ingest_csv", "rows"), "count")
        out["dataset.ingest_csv.calls"] = (calls("dataset.ingest_csv"), "count")
        out["dataset.export_csv.s"] = (total("dataset.export_csv"), "s")

        out["pipeline.cmd_perturb.s"] = (total("pipeline.cmd_perturb"), "s")
        out["pipeline.cmd_perturb.self_s"] = (total("pipeline.cmd_perturb", own), "s")
        out["pipeline.cmd_evaluate.calls"] = (calls("pipeline.cmd_evaluate"), "count")
        out["pipeline.cmd_evaluate.self_s"] = (total("pipeline.cmd_evaluate", own), "s")

        solve_s = total("kary_design.solve_opt_k")
        mae_s = total("kary_design.min_achievable_error")
        highs_s = total(LP_SPAN)
        out["kary_design.solve_opt_k.s"] = (solve_s, "s")
        out["kary_design.min_achievable_error.s"] = (mae_s, "s")
        out["kary_design.lp_solves"] = (calls(LP_SPAN), "count")
        out["kary_design.highs_s"] = (highs_s, "s")
        out["kary_design.python_s"] = (solve_s + mae_s - highs_s, "s")

        out["evaluation.train_logistic.s"] = (total("evaluation.train_logistic"), "s")
        out["evaluation.train_logistic.calls"] = (
            calls("evaluation.train_logistic"),
            "count",
        )
        out["evaluation.evaluate.s"] = (total("evaluation.evaluate"), "s")
        out["evaluation.gd_steps"] = (self.gd_steps, "count")

        out["distribution.estimate_distribution.s"] = (
            total("distribution.estimate_distribution"),
            "s",
        )
        out["binary_design.opt_binary.calls"] = (calls("binary_design.opt_binary"), "count")
        out["synthetic.generate_planted.s"] = (total("synthetic.generate_planted"), "s")

        # an estimate: the wrappers' own cost per call times the calls made
        per_span, per_hooked, per_count = self.overhead_per_call()
        hooked = len(self.attrs)
        out["trace.overhead_s"] = (
            (len(self.starts) - hooked) * per_span
            + hooked * per_hooked
            + self.gd_steps * per_count,
            "s",
        )
        return out

    def write(self, path: Path) -> None:
        names = sorted(set(self.names))
        ids = {name: i for i, name in enumerate(names)}
        payload = {
            "names": names,
            "columns": ["name", "start", "end", "parent", "failed"],
            "spans": [
                [ids[n], s, e, p, idx in self.failed]
                for idx, (n, s, e, p) in enumerate(
                    zip(self.names, self.starts, self.ends, self.parents)
                )
            ],
        }
        path.write_text(json.dumps(payload), encoding="utf-8")
