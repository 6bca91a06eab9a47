"""Tabular datasets: in-memory representation, CSV ingestion, and export."""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path
from typing import TextIO

import numpy as np

from .errors import EmptyFile, MissingColumn, NonBinaryLabel, UnparseableCell

COMMENT_PREFIX = "#"


@dataclass(frozen=True)
class ColumnsConfig:
    """Which CSV columns play which role.

    features may be an explicit list or "auto" (every column that is neither
    the sensitive nor the label column). sensitive_order optionally pins the
    literal-to-index mapping; otherwise first appearance decides.
    """

    sensitive: str
    label: str
    positive_label: str
    features: list[str] | str = "auto"
    sensitive_order: list[str] | None = None


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr = np.array(arr)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class TabularDataset:
    """Records of (features, sensitive value in [k], binary label).

    sensitive holds integer codes; sensitive_values maps each code back to
    the original literal. label_values is (negative literal, positive
    literal) for exact re-export.
    """

    feature_columns: dict[str, np.ndarray]
    sensitive: np.ndarray
    labels: np.ndarray
    k: int
    sensitive_name: str = "sensitive"
    sensitive_values: tuple[str, ...] = ()
    label_values: tuple[str, str] = ("0", "1")
    indicator_columns: None = None

    def __post_init__(self):
        sens = _frozen(np.asarray(self.sensitive, dtype=int))
        labels = _frozen(np.asarray(self.labels, dtype=int))
        object.__setattr__(self, "sensitive", sens)
        object.__setattr__(self, "labels", labels)
        cols = {name: _frozen(np.asarray(v, dtype=float)) for name, v in self.feature_columns.items()}
        object.__setattr__(self, "feature_columns", cols)
        if not self.sensitive_values:
            object.__setattr__(
                self, "sensitive_values", tuple(str(v) for v in range(self.k))
            )
        n = sens.shape[0]
        for name, v in cols.items():
            if v.shape != (n,):
                raise ValueError(f"column {name!r} has length {v.shape}, expected {n}")
        if labels.shape != (n,):
            raise ValueError("labels length differs from sensitive length")
        if n and (sens.min() < 0 or sens.max() >= self.k):
            raise ValueError(f"sensitive codes must lie in [0, {self.k})")
        if n and not np.isin(labels, (0, 1)).all():
            raise NonBinaryLabel("labels must be coded 0/1")
        if len(self.sensitive_values) != self.k:
            raise ValueError("sensitive_values must name every code in [k]")

    @property
    def n(self) -> int:
        return int(self.sensitive.shape[0])

    def indicator_matrix(self) -> np.ndarray:
        """n x k one-hot encoding of the sensitive codes."""
        return np.equal.outer(self.sensitive, np.arange(self.k)).astype(float)

    def subset(self, idx: np.ndarray) -> "TabularDataset":
        """Row-sliced copy (used for train/test splits)."""
        return TabularDataset(
            feature_columns={name: v[idx] for name, v in self.feature_columns.items()},
            sensitive=self.sensitive[idx],
            labels=self.labels[idx],
            k=self.k,
            sensitive_name=self.sensitive_name,
            sensitive_values=self.sensitive_values,
            label_values=self.label_values,
        )


@dataclass(frozen=True, eq=False)
class SubsetPerturbedDataset:
    """Dataset whose sensitive column was replaced by subset-report indicators.

    Carries one 0/1 indicator column per alphabet value. Data-unfairness
    metrics are undefined on subset reports, so this type deliberately has no
    sensitive vector; classifiers consume the indicators directly.
    """

    feature_columns: dict[str, np.ndarray]
    indicator_columns: dict[str, np.ndarray]
    labels: np.ndarray
    k: int
    sensitive_name: str
    sensitive_values: tuple[str, ...]
    label_values: tuple[str, str] = ("0", "1")

    def __post_init__(self):
        labels = _frozen(np.asarray(self.labels, dtype=int))
        object.__setattr__(self, "labels", labels)
        if len(self.indicator_columns) != self.k:
            raise ValueError("need one indicator column per alphabet value")

    @property
    def n(self) -> int:
        return int(self.labels.shape[0])

    def indicator_matrix(self) -> np.ndarray:
        """n x k indicator columns in sensitive_values order."""
        names = [f"{self.sensitive_name}={v}" for v in self.sensitive_values]
        columns = [self.indicator_columns[name] for name in names]
        return np.stack(columns, axis=1).astype(float)


def _read_rows(path: str | Path) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = [row for row in csv.reader(fh) if row and not row[0].startswith(COMMENT_PREFIX)]
    if not rows:
        raise EmptyFile(f"{path} has no header row")
    header, data = rows[0], rows[1:]
    if not data:
        raise EmptyFile(f"{path} has no data rows")
    width = len(header)
    if set(map(len, data)) != {width}:
        bad = next(r for r, row in enumerate(data) if len(row) != width)
        cells = len(data[bad])
        # a short row names its first missing column, a long one its first extra cell
        column = header[cells] if cells < width else f"<cell {width + 1}>"
        raise UnparseableCell(
            bad, column, f"row has {cells} cells, header has {width}"
        )
    return header, data


def ingest_csv(
    path: str | Path,
    columns: ColumnsConfig,
    *,
    table: tuple[list[str], list[list[str]]] | None = None,
) -> TabularDataset:
    """Load a CSV into a TabularDataset under the declared column roles.

    Sensitive literals map to codes by first appearance (or the explicit
    sensitive_order). Non-numeric feature columns are one-hot encoded with
    first-appearance category order. Lines starting with '#' are skipped so
    perturbed files re-ingest cleanly.

    The rows are read once, from path or from a (header, rows) table the
    caller already read from it, and parsed a column at a time. The dataset
    keeps no reference to the table's row lists.
    """
    header, data = _read_rows(path) if table is None else table
    cells = dict(zip(header, zip(*data)))
    feature_names = (
        [c for c in header if c not in (columns.sensitive, columns.label)]
        if columns.features == "auto"
        else list(columns.features)
    )
    for name in [columns.sensitive, columns.label, *feature_names]:
        if name not in cells:
            raise MissingColumn(name)

    s_cells = cells[columns.sensitive]
    seen = dict.fromkeys(s_cells)
    order = seen if columns.sensitive_order is None else columns.sensitive_order
    value_map = {lit: i for i, lit in enumerate(order)}
    # seen lists literals by first appearance, so its first bad literal
    # holds the first bad row
    for lit in seen:
        if lit == "":
            raise UnparseableCell(s_cells.index(lit), columns.sensitive, "empty cell")
        if lit not in value_map:
            raise UnparseableCell(
                s_cells.index(lit),
                columns.sensitive,
                f"literal {lit!r} not in declared ordering",
            )
    k = len(value_map)
    if k < 2:
        raise UnparseableCell(0, columns.sensitive, "fewer than two sensitive values")

    l_cells = cells[columns.label]
    literals = list(dict.fromkeys(l_cells))
    others = [lit for lit in literals if lit != columns.positive_label]
    if len(others) > 1:
        raise NonBinaryLabel(
            f"label literals {literals!r} do not reduce to a binary coding with "
            f"positive literal {columns.positive_label!r}"
        )
    negative = others[0] if others else ("0" if columns.positive_label != "0" else "neg")
    label_map = {lit: int(lit == columns.positive_label) for lit in literals}

    feature_columns: dict[str, np.ndarray] = {}
    for name in feature_names:
        values = _numeric_column(name, cells[name])
        if values is not None:
            feature_columns[name] = values
            continue
        cats = {cat: j for j, cat in enumerate(dict.fromkeys(cells[name]))}
        onehot = np.equal.outer(np.arange(len(cats)), _codes(cats, cells[name]))
        for cat, flags in zip(cats, onehot.astype(float)):
            feature_columns[f"{name}={cat}"] = flags

    ordered = sorted(value_map.items(), key=lambda kv: kv[1])
    return TabularDataset(
        feature_columns=feature_columns,
        sensitive=_codes(value_map, s_cells),
        labels=_codes(label_map, l_cells),
        k=k,
        sensitive_name=columns.sensitive,
        sensitive_values=tuple(lit for lit, _ in ordered),
        label_values=(negative, columns.positive_label),
    )


def _codes(mapping: dict[str, int], column: tuple[str, ...]) -> np.ndarray:
    return np.fromiter(map(mapping.__getitem__, column), dtype=int, count=len(column))


def _numeric_column(name: str, column: tuple[str, ...]) -> np.ndarray | None:
    """The column parsed as floats, or None when it is categorical.

    An empty cell before the first non-numeric cell raises UnparseableCell;
    after one it is a category like any other literal.
    """
    try:
        return np.array(column, dtype=float)
    except ValueError:
        pass
    for r, cell in enumerate(column):
        if cell == "":
            raise UnparseableCell(r, name, "empty cell")
        try:
            float(cell)
        except ValueError:
            return None
    # np.array parses a str cell as float() does, so the scan returns or
    # raises above; should the two ever differ, float() decides
    return np.array([float(cell) for cell in column])


def _write_rows(fh: TextIO, rows: list[list[str]]) -> None:
    """Write rows byte for byte as csv.writer(fh, lineterminator="\\n") does.

    A cell with no comma, quote or line break needs no quoting, so when no
    cell holds one the rows go out joined in one piece, without csv's scan
    of each cell; otherwise csv.writer writes them.
    """
    body = "\n".join(map(",".join, rows))
    plain = (
        body.count(",") == sum(map(len, rows)) - len(rows)
        and body.count("\n") == len(rows) - 1
        and '"' not in body
        and "\r" not in body
        and [""] not in rows  # csv writes a lone empty cell as ""
    )
    if plain:
        fh.write(body + "\n")
    else:
        csv.writer(fh, lineterminator="\n").writerows(rows)


def _format_number(v: float) -> str:
    if float(v).is_integer():
        return str(int(v))
    return repr(float(v))


def export_csv(dataset: TabularDataset, path: str | Path) -> None:
    """Write a dataset back to CSV with original literals restored."""
    header = [*dataset.feature_columns.keys(), dataset.sensitive_name, "label"]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        cols = list(dataset.feature_columns.values())
        for i in range(dataset.n):
            row = [_format_number(c[i]) for c in cols]
            row.append(dataset.sensitive_values[dataset.sensitive[i]])
            row.append(dataset.label_values[dataset.labels[i]])
            writer.writerow(row)
