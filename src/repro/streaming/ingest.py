"""Chunked columnar CSV ingest.

:class:`ChunkedCsvReader` reads row blocks and coerces them straight into
typed numpy columns + validity masks — the storage layout of
:class:`repro.relational.Table` — without the per-cell ``parse_cell`` loop
of the seed reader. Parsing is *block-at-a-time*: each raw chunk is
classified with numpy string kernels (null literals, booleans, integer
candidates) and converted with whole-array ``astype`` casts; only cells the
vectorized casts cannot handle fall back to the scalar parser, so the
semantics are exactly those of ``[parse_cell(c) for c in cells]`` followed
by :func:`repro.relational.types.coerce_column` — the parity suite asserts
this cell-for-cell.

Two consumption modes share one code path:

* ``read()`` — single pass, retains the parsed blocks and assembles a
  resident :class:`Table`; this is what ``repro.relational.io.read_csv``
  routes through (the single-chunk fast path for small files).
* ``chunks()`` — bounded memory: a first scan pass accumulates only the
  per-column type flags and the row count, then a second pass yields typed
  :class:`TableChunk` blocks that are never retained.

Both modes parse in parallel when ``repro.parallel`` is configured with
more than one worker: the file is still *read* sequentially (one handle,
one pass), but each raw row block is classified and typed on a worker via
an ordered bounded-window map, so chunk boundaries, per-chunk results and
yield order — and therefore every downstream byte — are identical to the
serial path at any worker count.
"""

from __future__ import annotations

import csv
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro import parallel as _parallel
from repro import telemetry as _telemetry
from repro.exceptions import TableError
from repro.reliability import faults as _faults
from repro.reliability.retry import INGEST_RETRY
from repro.relational.schema import Column, Schema
from repro.relational.table import Table
from repro.relational.types import (
    _STORAGE_DTYPE,
    NULL_LITERALS,
    DataType,
    coerce_value,
    is_null,
    null_placeholder,
    parse_cell,
)
from repro.streaming.chunks import DEFAULT_CHUNK_ROWS, TableChunk, TableChunkStream

PathLike = Union[str, Path]

_NULL_LITERAL_ARR = np.asarray(NULL_LITERALS, dtype=np.str_)
_BOOL_LITERAL_ARR = np.asarray(("true", "false"), dtype=np.str_)

_INT64_MIN = np.iinfo(np.int64).min
_INT64_MAX = np.iinfo(np.int64).max


class ColumnTypeFlags:
    """Which value kinds a column has produced so far (``infer_type`` state).

    Accumulated across chunks, so a streaming pass can infer the same
    :class:`DataType` ``infer_type`` would on the whole materialized column
    while retaining O(1) state per column.
    """

    __slots__ = ("seen_bool", "seen_int", "seen_float", "seen_str", "any_value")

    def __init__(self) -> None:
        self.seen_bool = False
        self.seen_int = False
        self.seen_float = False
        self.seen_str = False
        self.any_value = False

    def merge(self, other: "ColumnTypeFlags") -> None:
        self.seen_bool |= other.seen_bool
        self.seen_int |= other.seen_int
        self.seen_float |= other.seen_float
        self.seen_str |= other.seen_str
        self.any_value |= other.any_value

    def infer(self) -> DataType:
        """The ``infer_type`` priority: str > float > int > bool; all-NULL → FLOAT."""
        if not self.any_value:
            return DataType.FLOAT
        if self.seen_str:
            return DataType.STRING
        if self.seen_float:
            return DataType.FLOAT
        if self.seen_int:
            return DataType.INT
        return DataType.BOOL


class ParsedColumnBlock:
    """One column of one raw chunk, classified into typed value buckets.

    Equivalent to ``[parse_cell(c) for c in cells]``: every cell lands in
    exactly one bucket (null / bool / int64 / float / string), with python
    ints outside the int64 range kept verbatim in ``extra``. ``finalize``
    converts the buckets into ``(storage, valid)`` arrays with the exact
    semantics of ``coerce_column`` on the parsed values.
    """

    __slots__ = (
        "n", "null_mask",
        "bool_pos", "bool_vals", "int_pos", "int_vals",
        "float_pos", "float_vals", "str_pos", "str_vals", "extra",
    )

    def __init__(self, n: int):
        self.n = n
        self.null_mask = np.zeros(n, dtype=bool)
        self.bool_pos = np.empty(0, dtype=np.int64)
        self.bool_vals = np.empty(0, dtype=np.bool_)
        self.int_pos = np.empty(0, dtype=np.int64)
        self.int_vals = np.empty(0, dtype=np.int64)
        self.float_pos = np.empty(0, dtype=np.int64)
        self.float_vals = np.empty(0, dtype=np.float64)
        self.str_pos = np.empty(0, dtype=np.int64)
        self.str_vals: List[str] = []
        self.extra: List[Tuple[int, int]] = []  # out-of-int64-range python ints

    # -- classification -------------------------------------------------------------
    def _scalar_fallback(self, cells: Sequence[str], positions: np.ndarray) -> None:
        """Route cells the vectorized casts rejected through ``parse_cell``."""
        b_pos: List[int] = []
        b_val: List[bool] = []
        i_pos: List[int] = []
        i_val: List[int] = []
        f_pos: List[int] = []
        f_val: List[float] = []
        s_pos: List[int] = []
        for pos in positions.tolist():
            value = parse_cell(cells[pos])
            if is_null(value):
                self.null_mask[pos] = True
            elif isinstance(value, bool):
                b_pos.append(pos)
                b_val.append(value)
            elif isinstance(value, int):
                if _INT64_MIN <= value <= _INT64_MAX:
                    i_pos.append(pos)
                    i_val.append(value)
                else:
                    self.extra.append((pos, value))
            elif isinstance(value, float):
                f_pos.append(pos)
                f_val.append(value)
            else:
                s_pos.append(pos)
                self.str_vals.append(value)
        if b_pos:
            self.bool_pos = np.concatenate([self.bool_pos, np.asarray(b_pos, dtype=np.int64)])
            self.bool_vals = np.concatenate([self.bool_vals, np.asarray(b_val, dtype=np.bool_)])
        if i_pos:
            self.int_pos = np.concatenate([self.int_pos, np.asarray(i_pos, dtype=np.int64)])
            self.int_vals = np.concatenate([self.int_vals, np.asarray(i_val, dtype=np.int64)])
        if f_pos:
            self.float_pos = np.concatenate([self.float_pos, np.asarray(f_pos, dtype=np.int64)])
            self.float_vals = np.concatenate([self.float_vals, np.asarray(f_val, dtype=np.float64)])
        if s_pos:
            self.str_pos = np.concatenate([self.str_pos, np.asarray(s_pos, dtype=np.int64)])

    @property
    def flags(self) -> ColumnTypeFlags:
        flags = ColumnTypeFlags()
        flags.seen_bool = self.bool_pos.size > 0
        flags.seen_int = self.int_pos.size > 0 or bool(self.extra)
        flags.seen_float = self.float_pos.size > 0
        flags.seen_str = self.str_pos.size > 0
        flags.any_value = (
            flags.seen_bool or flags.seen_int or flags.seen_float or flags.seen_str
        )
        return flags

    # -- typed finalization ---------------------------------------------------------
    def finalize(self, dtype: DataType) -> Tuple[np.ndarray, np.ndarray]:
        """``(storage, valid)`` arrays, matching ``coerce_column`` exactly."""
        valid = ~self.null_mask
        if dtype is DataType.FLOAT:
            out = np.full(self.n, np.nan, dtype=np.float64)
            out[self.bool_pos] = self.bool_vals.astype(np.float64)
            out[self.int_pos] = self.int_vals.astype(np.float64)
            out[self.float_pos] = self.float_vals
            for pos, value in zip(self.str_pos.tolist(), self.str_vals):
                out[pos] = coerce_value(value, dtype)
            for pos, value in self.extra:
                out[pos] = coerce_value(value, dtype)
            return out, valid
        if dtype is DataType.INT:
            out = np.zeros(self.n, dtype=np.int64)
            out[self.bool_pos] = self.bool_vals.astype(np.int64)
            out[self.int_pos] = self.int_vals
            for pos, value in zip(self.float_pos.tolist(), self.float_vals.tolist()):
                out[pos] = coerce_value(value, dtype)
            for pos, value in zip(self.str_pos.tolist(), self.str_vals):
                out[pos] = coerce_value(value, dtype)
            for pos, value in self.extra:
                try:
                    out[pos] = coerce_value(value, dtype)
                except OverflowError as exc:
                    from repro.exceptions import SchemaError

                    raise SchemaError(
                        f"value overflows the {dtype.value} column storage"
                    ) from exc
            return out, valid
        if dtype is DataType.BOOL:
            out = np.zeros(self.n, dtype=np.bool_)
            out[self.bool_pos] = self.bool_vals
            for pos_arr, values in (
                (self.int_pos.tolist(), self.int_vals.tolist()),
                (self.float_pos.tolist(), self.float_vals.tolist()),
            ):
                for pos, value in zip(pos_arr, values):
                    out[pos] = coerce_value(value, dtype)
            for pos, value in zip(self.str_pos.tolist(), self.str_vals):
                out[pos] = coerce_value(value, dtype)
            for pos, value in self.extra:
                out[pos] = coerce_value(value, dtype)
            return out, valid
        if dtype is DataType.STRING:
            out = np.empty(self.n, dtype=object)
            out[self.null_mask] = null_placeholder(dtype)
            out[self.bool_pos] = np.where(self.bool_vals, "True", "False")
            out[self.int_pos] = self.int_vals.astype(str).astype(object)
            for pos, value in zip(self.float_pos.tolist(), self.float_vals.tolist()):
                out[pos] = str(value)
            for pos, value in zip(self.str_pos.tolist(), self.str_vals):
                out[pos] = value
            for pos, value in self.extra:
                out[pos] = str(value)
            return out, valid
        raise TableError(f"unknown data type {dtype!r}")  # pragma: no cover


def parse_cell_block(cells: Sequence[str]) -> ParsedColumnBlock:
    """Classify a block of raw CSV cells with vectorized string kernels.

    Fast paths: null/bool literal matching via ``np.isin`` on the lowered
    cells, integer candidates (one optional sign + digits) via one
    ``astype(int64)`` cast, everything else via one ``astype(float64)``
    cast. A cast that raises sends its *whole candidate subset* through the
    scalar ``parse_cell`` fallback — correctness never depends on the fast
    path accepting a cell.
    """
    block = ParsedColumnBlock(len(cells))
    if block.n == 0:
        return block
    arr = np.asarray(cells, dtype=np.str_)
    stripped = np.char.strip(arr)
    lowered = np.char.lower(stripped)
    # Backslash-escaped cells carry the write_csv NULL-literal protection;
    # the scalar parser owns that (rare) unescaping logic.
    escaped = np.char.startswith(stripped, "\\")
    block.null_mask = np.isin(lowered, _NULL_LITERAL_ARR) & ~escaped
    bool_mask = ~block.null_mask & ~escaped & np.isin(lowered, _BOOL_LITERAL_ARR)
    block.bool_pos = np.nonzero(bool_mask)[0].astype(np.int64)
    block.bool_vals = lowered[bool_mask] == "true"

    rest_mask = ~(block.null_mask | bool_mask | escaped)
    rest_pos = np.nonzero(rest_mask)[0].astype(np.int64)
    if escaped.any():
        block._scalar_fallback(cells, np.nonzero(escaped)[0])
    if rest_pos.size == 0:
        return block
    rest = stripped[rest_pos]

    # Integer candidates: at most one leading sign, then digits only.
    body = np.char.lstrip(rest, "+-")
    body_len = np.char.str_len(body)
    sign_len = np.char.str_len(rest) - body_len
    int_cand = (body_len > 0) & (sign_len <= 1) & np.char.isdigit(body)

    int_sel = rest_pos[int_cand]
    if int_sel.size:
        try:
            int_vals = rest[int_cand].astype(np.int64)
        except (ValueError, OverflowError):
            block._scalar_fallback(cells, int_sel)
        else:
            block.int_pos = int_sel
            block.int_vals = int_vals

    float_cand = ~int_cand
    # Python's float() accepts digit-group underscores ("1_000"); a CSV
    # number never carries them, so such cells take the scalar path,
    # which reads them as strings.
    underscored = float_cand & (np.char.find(rest, "_") >= 0)
    if underscored.any():
        block._scalar_fallback(cells, rest_pos[underscored])
        float_cand &= ~underscored
    float_sel = rest_pos[float_cand]
    if float_sel.size:
        try:
            values = rest[float_cand].astype(np.float64)
        except (ValueError, OverflowError):
            block._scalar_fallback(cells, float_sel)
        else:
            # A parsed NaN (e.g. "-nan") is NULL under is_null(), exactly as
            # the scalar pipeline treats it everywhere downstream.
            nan = np.isnan(values)
            block.float_pos = float_sel[~nan]
            block.float_vals = values[~nan]
            block.null_mask[float_sel[nan]] = True
    return block


class ChunkedCsvReader(TableChunkStream):
    """Columnar CSV reader producing typed :class:`TableChunk` row blocks.

    Type inference matches ``read_csv``: the streaming mode runs one scan
    pass accumulating per-column :class:`ColumnTypeFlags` (O(columns)
    state) before yielding typed chunks, while :meth:`read` parses once and
    assembles a resident table. Empty-file and row-width
    :class:`TableError` behavior is bit-for-bit that of the seed reader.
    """

    def __init__(
        self,
        path: PathLike,
        name: Optional[str] = None,
        key_columns: Sequence[str] = (),
        label_column: Optional[str] = None,
        delimiter: str = ",",
        chunk_rows: int = DEFAULT_CHUNK_ROWS,
    ):
        if chunk_rows <= 0:
            raise TableError(f"chunk_rows must be positive, got {chunk_rows}")
        self._path = Path(path)
        self.name = name if name is not None else self._path.stem
        self._key_columns = tuple(key_columns)
        self._label_column = label_column
        self._delimiter = delimiter
        self._chunk_rows = int(chunk_rows)
        self._schema: Optional[Schema] = None
        self._n_rows: Optional[int] = None

    # -- raw row blocks -------------------------------------------------------------
    def _raw_chunks(self) -> Iterator[Tuple[List[str], List[List[str]]]]:
        """Yield ``(header, rows)`` blocks; validates widths like the seed.

        Every malformed-input failure — width mismatch, undecodable
        bytes, csv-level framing errors — surfaces as a typed
        :class:`TableError` carrying the offending row number, never a
        bare ``ValueError`` from the stdlib.
        """
        # utf-8-sig drops a leading byte-order mark (spreadsheet exports),
        # which would otherwise stick to the first column name.
        with self._path.open(newline="", encoding="utf-8-sig") as handle:
            reader = csv.reader(handle, delimiter=self._delimiter)
            try:
                header = next(reader)
            except StopIteration as exc:
                raise TableError(f"CSV file {self._path} is empty") from exc
            except UnicodeDecodeError as exc:
                raise TableError(
                    f"CSV file {self._path} is not valid UTF-8 "
                    f"(header, row 1): {exc}"
                ) from exc
            except csv.Error as exc:
                raise TableError(
                    f"CSV file {self._path} is malformed (header, row 1): {exc}"
                ) from exc
            width = len(header)
            rows: List[List[str]] = []
            row_number = 1  # 1-based physical row; the header is row 1
            while True:
                try:
                    row = next(reader)
                except StopIteration:
                    break
                except UnicodeDecodeError as exc:
                    raise TableError(
                        f"CSV file {self._path} is not valid UTF-8 "
                        f"near row {row_number + 1}: {exc}"
                    ) from exc
                except csv.Error as exc:
                    raise TableError(
                        f"CSV file {self._path} is malformed "
                        f"at row {row_number + 1}: {exc}"
                    ) from exc
                row_number += 1
                if not row:
                    continue  # blank lines, as in the seed reader
                if len(row) != width:
                    raise TableError(
                        f"CSV row width {len(row)} does not match header width "
                        f"{width} (row {row_number} of {self._path})"
                    )
                rows.append(row)
                if len(rows) >= self._chunk_rows:
                    yield header, rows
                    rows = []
            yield header, rows

    def _numbered_raw_chunks(self) -> Iterator[Tuple[int, List[str], List[List[str]]]]:
        """Non-empty raw blocks with their absolute row offset, computed at
        read time so parse workers never need upstream state."""
        offset = 0
        for header, rows in self._raw_chunks():
            if not rows:
                continue
            yield offset, header, rows
            offset += len(rows)

    def _parse_chunk(self, header: List[str], rows: List[List[str]]):
        if not rows:
            return [ParsedColumnBlock(0) for _ in header]
        transposed = list(zip(*rows))
        return [parse_cell_block(transposed[i]) for i in range(len(header))]

    def _schema_from_flags(self, header: List[str], flags: List[ColumnTypeFlags]) -> Schema:
        declared = list(self._key_columns)
        if self._label_column is not None:
            declared.append(self._label_column)
        missing = [name for name in declared if name not in header]
        if missing:
            raise TableError(
                f"CSV file {self._path} has no column(s) {missing} "
                f"declared as key/label; header is {header}"
            )
        return Schema(
            [
                Column(
                    col,
                    flags[i].infer(),
                    is_key=col in self._key_columns,
                    is_label=(col == self._label_column),
                )
                for i, col in enumerate(header)
            ]
        )

    # -- streaming interface ----------------------------------------------------------
    def scan(self) -> Schema:
        """First pass: infer the schema and row count in bounded memory.

        Raw blocks are read sequentially; their type classification runs on
        the worker pool. Flag merging is a commutative boolean OR, but the
        ordered map keeps it deterministic anyway.
        """
        if self._schema is None:
            with _telemetry.span("ingest.scan", file=str(self._path)) as span:
                state: Dict[str, object] = {"header": [], "n_rows": 0}

                def _tasks() -> Iterator[Tuple[List[str], List[List[str]]]]:
                    for header, rows in self._raw_chunks():
                        state["header"] = header
                        state["n_rows"] = int(state["n_rows"]) + len(rows)
                        yield header, rows

                def _chunk_flags(task: Tuple[List[str], List[List[str]]]):
                    header, rows = task
                    return [block.flags for block in self._parse_chunk(header, rows)]

                flags: List[ColumnTypeFlags] = []
                for chunk_flags in _parallel.imap_ordered(_chunk_flags, _tasks(), label="ingest.scan"):
                    if not flags:
                        flags = [ColumnTypeFlags() for _ in chunk_flags]
                    for accumulated, block_flags in zip(flags, chunk_flags):
                        accumulated.merge(block_flags)
                header = list(state["header"])  # type: ignore[arg-type]
                if not flags:
                    flags = [ColumnTypeFlags() for _ in header]
                self._schema = self._schema_from_flags(header, flags)
                self._n_rows = int(state["n_rows"])
                span.set(rows=self._n_rows, columns=len(header))
        return self._schema

    @property
    def schema(self) -> Schema:
        return self.scan()

    @property
    def n_rows(self) -> int:
        self.scan()
        return self._n_rows  # type: ignore[return-value]

    def chunks(self) -> Iterator[TableChunk]:
        schema = self.scan()

        def _typed_chunk_once(task: Tuple[int, List[str], List[List[str]]]) -> TableChunk:
            offset, header, rows = task
            _faults.fault_point("ingest.chunk", file=str(self._path), offset=offset)
            with _telemetry.span(
                "ingest.chunk", file=str(self._path), offset=offset, rows=len(rows)
            ):
                data: Dict[str, np.ndarray] = {}
                valid: Dict[str, np.ndarray] = {}
                for column, block in zip(schema, self._parse_chunk(header, rows)):
                    data[column.name], valid[column.name] = block.finalize(column.dtype)
                return TableChunk(schema, data, valid, offset=offset)

        def _typed_chunk(task: Tuple[int, List[str], List[List[str]]]) -> TableChunk:
            # Typing a chunk is a pure function of the raw rows, so a
            # transient fault is safely retried without re-reading the file.
            if _faults.ACTIVE:
                return INGEST_RETRY.call(_typed_chunk_once, task, site="ingest.chunk")
            return _typed_chunk_once(task)

        for chunk in _parallel.imap_ordered(
            _typed_chunk, self._numbered_raw_chunks(), label="ingest.chunk"
        ):
            if _telemetry.ENABLED:
                _telemetry.counter_add("ingest.chunks")
                _telemetry.counter_add("ingest.rows", float(chunk.n_rows))
            yield chunk

    # -- one-pass materialization ------------------------------------------------------
    def read(self) -> Table:
        """Parse once and assemble a resident :class:`Table` (the
        single-chunk fast path ``read_csv`` routes through)."""
        state: Dict[str, object] = {"header": []}

        def _tasks() -> Iterator[Tuple[List[str], List[List[str]]]]:
            for header, rows in self._raw_chunks():
                state["header"] = header
                yield header, rows

        def _parsed_once(task: Tuple[List[str], List[List[str]]]):
            header, rows = task
            _faults.fault_point("ingest.chunk", file=str(self._path))
            return len(rows), self._parse_chunk(header, rows)

        def _parsed(task: Tuple[List[str], List[List[str]]]):
            if _faults.ACTIVE:
                return INGEST_RETRY.call(_parsed_once, task, site="ingest.chunk")
            return _parsed_once(task)

        flags: List[ColumnTypeFlags] = []
        parsed: List[List[ParsedColumnBlock]] = []
        n_rows = 0
        for rows_in_chunk, blocks in _parallel.imap_ordered(
            _parsed, _tasks(), label="ingest.read"
        ):
            if not flags:
                flags = [ColumnTypeFlags() for _ in blocks]
            for accumulated, block in zip(flags, blocks):
                accumulated.merge(block.flags)
            if rows_in_chunk:
                parsed.append(blocks)
                n_rows += rows_in_chunk
        header = list(state["header"])  # type: ignore[arg-type]
        if not flags:
            flags = [ColumnTypeFlags() for _ in header]
        schema = self._schema_from_flags(header, flags)
        self._schema = schema
        self._n_rows = n_rows
        data: Dict[str, np.ndarray] = {}
        valid: Dict[str, np.ndarray] = {}
        for i, column in enumerate(schema):
            pieces = [blocks[i].finalize(column.dtype) for blocks in parsed]
            if pieces:
                data[column.name] = np.concatenate([p[0] for p in pieces])
                valid[column.name] = np.concatenate([p[1] for p in pieces])
            else:
                data[column.name] = np.empty(0, dtype=_STORAGE_DTYPE[column.dtype])
                valid[column.name] = np.empty(0, dtype=bool)
        return Table._from_storage(self.name, schema, data, valid)
