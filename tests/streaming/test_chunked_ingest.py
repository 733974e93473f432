"""Chunked CSV ingest parity: ChunkedCsvReader vs the materialized read_csv."""

import codecs
import csv

import numpy as np
import pytest

from repro.exceptions import TableError
from repro.relational.io import read_csv, write_csv
from repro.relational.table import Table
from repro.relational.types import NULL, DataType, is_null, parse_cell
from repro.streaming.ingest import ChunkedCsvReader, parse_cell_block

CHUNK_SIZES = (1, 7, 10_000)

MESSY_CELLS = [
    "", "null", "NA", "nan", "-nan", "inf", "-inf", "true", "FALSE", "0", "-0",
    "+5", "007", "--5", "9223372036854775807", "9223372036854775808",
    "9999999999999999999999999", "1e3", "1E-4", ".5", "5.", "abc", "a b",
    " spaced ", "0x10", "None", "TRUE", "12.0", "12.5", "\\null", "\\x",
    "café", "5 5", "1_000", "1_000.5", "_1", "1e1_0",
]


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestParseCellBlock:
    def test_matches_scalar_parser_cell_for_cell(self):
        block = parse_cell_block(MESSY_CELLS)
        reference = [parse_cell(c) for c in MESSY_CELLS]
        flags = block.flags
        assert flags.seen_str and flags.seen_float and flags.seen_int and flags.seen_bool
        # Reconstruct every bucket back into python values and compare.
        values = [None] * len(MESSY_CELLS)
        for pos in np.nonzero(block.null_mask)[0]:
            values[pos] = NULL
        for pos, val in zip(block.bool_pos.tolist(), block.bool_vals.tolist()):
            values[pos] = bool(val)
        for pos, val in zip(block.int_pos.tolist(), block.int_vals.tolist()):
            values[pos] = int(val)
        for pos, val in zip(block.float_pos.tolist(), block.float_vals.tolist()):
            values[pos] = float(val)
        for pos, val in zip(block.str_pos.tolist(), block.str_vals):
            values[pos] = val
        for pos, val in block.extra:
            values[pos] = val
        for got, want in zip(values, reference):
            if is_null(want):
                assert got is NULL
            else:
                assert got == want and type(got) is type(want)

    def test_empty_block(self):
        block = parse_cell_block([])
        assert block.n == 0
        assert not block.flags.any_value


class TestChunkedReaderParity:
    @pytest.fixture
    def messy_csv(self, tmp_path):
        header = ["k", "num", "mix", "text", "flag"]
        rows = []
        for i, cell in enumerate(MESSY_CELLS):
            rows.append(
                [str(i), f"{i}.25", cell, f"name {i % 5}", "true" if i % 2 else "false"]
            )
        path = tmp_path / "messy.csv"
        with path.open("w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(header)
            writer.writerows(rows)
        return path

    @pytest.mark.parametrize("chunk_rows", CHUNK_SIZES)
    def test_stream_equals_read_csv(self, messy_csv, chunk_rows):
        full = read_csv(messy_csv, key_columns=["k"], label_column="flag")
        reader = ChunkedCsvReader(
            messy_csv, key_columns=["k"], label_column="flag", chunk_rows=chunk_rows
        )
        assert reader.schema == full.schema
        assert reader.n_rows == full.n_rows
        streamed = reader.read_table()
        assert streamed.equals(full)
        # NULL positions agree column by column.
        for name in full.schema.names:
            assert np.array_equal(
                streamed.column_valid(name), full.column_valid(name)
            )

    @pytest.mark.parametrize("chunk_rows", CHUNK_SIZES)
    def test_chunk_offsets_and_sizes(self, messy_csv, chunk_rows):
        reader = ChunkedCsvReader(messy_csv, chunk_rows=chunk_rows)
        offset = 0
        for chunk in reader.chunks():
            assert chunk.offset == offset
            assert chunk.n_rows <= chunk_rows
            offset += chunk.n_rows
        assert offset == reader.n_rows

    def test_types_and_roles(self, tmp_path):
        path = _write(tmp_path, "t.csv", "id,x,name,b\n1,1.5,ann,true\n2,,na,false\n")
        table = read_csv(path, key_columns=["id"], label_column="b")
        assert table.schema["id"].dtype is DataType.INT
        assert table.schema["x"].dtype is DataType.FLOAT
        assert table.schema["name"].dtype is DataType.STRING
        assert table.schema["b"].dtype is DataType.BOOL
        assert table.schema["id"].is_key and table.schema["b"].is_label
        assert table.cell(1, "x") is NULL
        assert table.cell(1, "name") is NULL

    def test_header_only_file(self, tmp_path):
        path = _write(tmp_path, "empty_rows.csv", "a,b\n")
        table = read_csv(path)
        assert table.n_rows == 0
        assert table.schema["a"].dtype is DataType.FLOAT  # all-NULL default
        reader = ChunkedCsvReader(path)
        assert reader.n_rows == 0
        assert list(reader.chunks()) == []


class TestSeedErrorParity:
    def test_empty_file_raises(self, tmp_path):
        path = _write(tmp_path, "empty.csv", "")
        with pytest.raises(TableError, match="is empty"):
            read_csv(path)
        with pytest.raises(TableError, match="is empty"):
            ChunkedCsvReader(path).scan()

    @pytest.mark.parametrize("chunk_rows", CHUNK_SIZES)
    def test_width_mismatch_raises(self, tmp_path, chunk_rows):
        path = _write(tmp_path, "bad.csv", "a,b\n1,2\n1,2,3\n")
        with pytest.raises(
            TableError, match="row width 3 does not match header width 2"
        ):
            ChunkedCsvReader(path, chunk_rows=chunk_rows).read()

    def test_read_csv_width_mismatch(self, tmp_path):
        path = _write(tmp_path, "bad.csv", "a,b\n1,2,3\n")
        with pytest.raises(TableError):
            read_csv(path)

    def test_blank_lines_skipped(self, tmp_path):
        path = _write(tmp_path, "blank.csv", "a,b\n1,2\n\n3,4\n")
        assert read_csv(path).n_rows == 2


class TestWriteReadRoundTrip:
    def test_null_literal_strings_survive(self, tmp_path):
        table = Table.from_dict(
            "rt",
            {
                "s": ["null", "", "NA", "NaN", "none", "\\null", "\\x", "plain"],
                "x": [1.0, 2.0, NULL, 4.0, 5.0, 6.0, 7.0, 8.0],
            },
        )
        path = tmp_path / "rt.csv"
        write_csv(table, path)
        loaded = read_csv(path)
        assert loaded.schema["s"].dtype is DataType.STRING
        assert loaded.column("s") == ["null", "", "NA", "NaN", "none", "\\null", "\\x", "plain"]
        assert loaded.cell(2, "x") is NULL  # real NULLs still round-trip as NULL
        assert table.equals(loaded)

    @pytest.mark.parametrize("chunk_rows", CHUNK_SIZES)
    def test_round_trip_through_chunked_reader(self, tmp_path, chunk_rows):
        table = Table.from_dict(
            "rt", {"s": ["na", "ok", "null"], "y": [0.5, NULL, 2.5]}
        )
        path = tmp_path / "rt2.csv"
        write_csv(table, path)
        loaded = ChunkedCsvReader(path, chunk_rows=chunk_rows).read_table()
        assert table.equals(loaded)

    def test_numeric_columns_unaffected(self, tmp_path):
        table = Table.from_dict("n", {"x": [1, 2, 3]})
        path = tmp_path / "n.csv"
        write_csv(table, path)
        assert path.read_text().splitlines()[1] == "1"


class TestHeaderDeclarations:
    @pytest.mark.parametrize("chunk_rows", CHUNK_SIZES)
    def test_byte_order_mark_stays_out_of_first_name(self, tmp_path, chunk_rows):
        path = tmp_path / "bom.csv"
        path.write_text("id,x\n1,0.5\n2,1.5\n", encoding="utf-8-sig")
        assert path.read_bytes().startswith(codecs.BOM_UTF8)
        table = read_csv(path, key_columns=["id"])
        reader = ChunkedCsvReader(path, key_columns=["id"], chunk_rows=chunk_rows)
        for schema in (table.schema, reader.schema):
            assert schema.names == ["id", "x"]
            assert schema["id"].is_key and schema["id"].dtype is DataType.INT
        assert table.column("id") == [1, 2]
        assert reader.read().equals(table)

    def test_undeclared_key_and_label_names_raise(self, tmp_path):
        path = _write(tmp_path, "t.csv", "id,x\n1,0.5\n")
        with pytest.raises(TableError) as info:
            read_csv(path, key_columns=["id", "key2"], label_column="target")
        assert "['key2', 'target']" in str(info.value)
        with pytest.raises(TableError, match="'key2'"):
            ChunkedCsvReader(path, key_columns=["key2"]).scan()
        with pytest.raises(TableError, match="'target'"):
            ChunkedCsvReader(path, label_column="target").read()


class TestUnderscoredNumbers:
    @pytest.mark.parametrize("chunk_rows", CHUNK_SIZES)
    def test_underscored_cells_round_trip_as_strings(self, tmp_path, chunk_rows):
        path = _write(tmp_path, "u.csv", "id,n\n1,1_000\n2,3\n")
        written = tmp_path / "out" / "u.csv"
        written.parent.mkdir()
        write_csv(read_csv(path), written)
        for source in (path, written):
            tables = (
                read_csv(source),
                ChunkedCsvReader(source, chunk_rows=chunk_rows).read(),
            )
            for table in tables:
                assert table.schema["n"].dtype is DataType.STRING
                assert table.column("n") == ["1_000", "3"]
        assert ChunkedCsvReader(path, chunk_rows=chunk_rows).schema["n"].dtype is (
            DataType.STRING
        )

    def test_scalar_parser_keeps_underscores(self):
        assert parse_cell("1_000") == "1_000"
        assert parse_cell("1_000.5") == "1_000.5"
        assert parse_cell("1000") == 1000
