"""Tests for CSV ingestion edge cases and CSV row writing."""

import csv
import io

import numpy as np
import pytest

from fairldp.dataset import ColumnsConfig, _write_rows, ingest_csv
from fairldp.errors import NonBinaryLabel, UnparseableCell

COLUMNS = ColumnsConfig(sensitive="group", label="label", positive_label="1")


class TestIngestCsv:
    def test_short_row_names_first_missing_column(self, tmp_path):
        path = tmp_path / "short.csv"
        path.write_text("x,group,label\n1.0,a,1\n2.0,b\n3.0,a,0\n", encoding="utf-8")
        with pytest.raises(UnparseableCell) as err:
            ingest_csv(path, COLUMNS)
        assert (err.value.row, err.value.column) == (1, "label")

    def test_row_missing_several_cells(self, tmp_path):
        path = tmp_path / "short.csv"
        path.write_text("x,group,label\n1.0,a,1\n2.0\n", encoding="utf-8")
        with pytest.raises(UnparseableCell) as err:
            ingest_csv(path, COLUMNS)
        assert (err.value.row, err.value.column) == (1, "group")

    def test_long_row_names_first_extra_cell(self, tmp_path):
        path = tmp_path / "long.csv"
        path.write_text("x,group,label\n1.0,a,1\n2.0,b,0,extra\n", encoding="utf-8")
        with pytest.raises(UnparseableCell) as err:
            ingest_csv(path, COLUMNS)
        assert (err.value.row, err.value.column) == (1, "<cell 4>")
        assert "row has 4 cells, header has 3" in str(err.value)


def _write(tmp_path, text):
    path = tmp_path / "data.csv"
    path.write_text(text, encoding="utf-8")
    return path


class TestIngestEdgeCases:
    def test_numeric_cells_parse_as_float_does(self, tmp_path):
        cells = ["1_000", " 2.5 ", "nan", "-Infinity", "1e400", "-0", "٣.٥", "１２"]
        groups = ["a", "b"] * (len(cells) // 2)
        lines = [f'"{c}",{g},1' for c, g in zip(cells, groups)]
        path = _write(tmp_path, "x,group,label\n" + "\n".join(lines) + "\n")
        column = ingest_csv(path, COLUMNS).feature_columns["x"]
        expected = np.array([float(c) for c in cells])
        # bytes compare NaN payloads and the sign of -0 too
        assert column.tobytes() == expected.tobytes()

    def test_non_numeric_before_empty_gives_categories(self, tmp_path):
        path = _write(tmp_path, "x,group,label\nu,a,1\n,b,0\nv,a,0\n,b,1\n")
        columns = ingest_csv(path, COLUMNS).feature_columns
        assert list(columns) == ["x=u", "x=", "x=v"]
        np.testing.assert_array_equal(columns["x="], [0.0, 1.0, 0.0, 1.0])

    def test_empty_before_non_numeric_raises_at_its_row(self, tmp_path):
        path = _write(tmp_path, "x,group,label\n1.5,a,1\n2,b,0\n,a,0\nw,b,1\n")
        with pytest.raises(UnparseableCell) as err:
            ingest_csv(path, COLUMNS)
        assert (err.value.row, err.value.column) == (2, "x")
        assert "empty cell" in str(err.value)

    def test_empty_numeric_cell_raises_at_its_row(self, tmp_path):
        path = _write(tmp_path, "x,group,label\n1.5,a,1\n2,b,0\n3,a,0\n,b,1\n")
        with pytest.raises(UnparseableCell) as err:
            ingest_csv(path, COLUMNS)
        assert (err.value.row, err.value.column) == (3, "x")

    @pytest.mark.parametrize(
        "cells, row, message",
        [
            (["a", "b", "c", ""], 2, "literal 'c' not in declared ordering"),
            (["a", "", "b", "c"], 1, "empty cell"),
            (["b", "a", "", "c", ""], 2, "empty cell"),
        ],
    )
    def test_sensitive_order_first_bad_row_wins(self, tmp_path, cells, row, message):
        lines = [f"1,{c},1" for c in cells]
        path = _write(tmp_path, "x,group,label\n" + "\n".join(lines) + "\n")
        ordered = ColumnsConfig(
            sensitive="group", label="label", positive_label="1",
            sensitive_order=["a", "b"],
        )
        with pytest.raises(UnparseableCell) as err:
            ingest_csv(path, ordered)
        assert (err.value.row, err.value.column) == (row, "group")
        assert message in str(err.value)

    def test_empty_sensitive_cell_raises_at_its_row(self, tmp_path):
        path = _write(tmp_path, "x,group,label\n1,a,1\n2,b,0\n3,,0\n4,,1\n")
        with pytest.raises(UnparseableCell) as err:
            ingest_csv(path, COLUMNS)
        assert (err.value.row, err.value.column) == (2, "group")

    def test_sensitive_codes_follow_first_appearance(self, tmp_path):
        path = _write(tmp_path, "x,group,label\n1,q,1\n2,p,0\n3,q,0\n4,r,1\n")
        dataset = ingest_csv(path, COLUMNS)
        assert dataset.sensitive_values == ("q", "p", "r")
        np.testing.assert_array_equal(dataset.sensitive, [0, 1, 0, 2])

    def test_non_binary_label_lists_literals_in_first_appearance(self, tmp_path):
        path = _write(tmp_path, "x,group,label\n1,a,yes\n2,b,1\n3,a,no\n4,b,yes\n")
        with pytest.raises(NonBinaryLabel) as err:
            ingest_csv(path, COLUMNS)
        assert "['yes', '1', 'no']" in str(err.value)

    def test_labels_code_the_positive_literal(self, tmp_path):
        path = _write(tmp_path, "x,group,label\n1,a,no\n2,b,yes\n3,a,no\n")
        columns = ColumnsConfig(sensitive="group", label="label", positive_label="yes")
        dataset = ingest_csv(path, columns)
        assert dataset.label_values == ("no", "yes")
        np.testing.assert_array_equal(dataset.labels, [0, 1, 0])

    def test_one_hot_columns_follow_first_appearance(self, tmp_path):
        path = _write(
            tmp_path, "x,city,group,label\n1,Oslo,a,1\n2,Bern,b,0\n3,Oslo,a,0\n4,Agen,b,1\n"
        )
        columns = ingest_csv(path, COLUMNS).feature_columns
        assert list(columns) == ["x", "city=Oslo", "city=Bern", "city=Agen"]
        np.testing.assert_array_equal(columns["city=Oslo"], [1.0, 0.0, 1.0, 0.0])
        np.testing.assert_array_equal(columns["city=Agen"], [0.0, 0.0, 0.0, 1.0])


class TestWriteRows:
    @pytest.mark.parametrize(
        "rows",
        [
            [["x", "group", "label"], ["1.5", "a", "1"], ["", "b", "0"]],
            [["x", "city"], ["1", "Lyon, FR"]],
            [["x", "city"], ["1", 'say "hi"']],
            [["x", "note"], ["1", "two\nlines"]],
            [["x", "note"], ["1", "carriage\rreturn"]],
            [["x"], [""], ["2"]],
            [["x", "y"], ["", ""], ["٣", "１２"]],
        ],
    )
    def test_matches_csv_writer(self, rows):
        expected, written = io.StringIO(), io.StringIO()
        csv.writer(expected, lineterminator="\n").writerows(rows)
        _write_rows(written, rows)
        assert written.getvalue() == expected.getvalue()
