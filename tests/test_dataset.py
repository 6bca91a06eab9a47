"""Tests for CSV ingestion edge cases."""

import pytest

from fairldp.dataset import ColumnsConfig, ingest_csv
from fairldp.errors import UnparseableCell

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
