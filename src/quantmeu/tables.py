"""Training table container and the package's artifact file format.

One row per simulated draw: parameter, summary statistic, optional
decision and utility, and the quantile level tau attached to the row.
CSV files carry the fixed header ``theta,summary,decision,utility,tau``
with blanks for absent columns and 17 significant digits per float so
values round-trip bit for bit. Every CSV and JSON artifact the package
writes or reads goes through `write_csv`, `write_json` and `read_json`.
`write_csv` writes the header with `csv.writer` and every row from one
template, ``%.17g`` per column, filled from the row's floats; the bytes
are those `csv.writer` writes for cells formatted as ``format(v, ".17g")``.

Both directions go through rows in blocks of `_CSV_BLOCK_ROWS`, so a
table's Python floats (writing) or cell strings (reading) exist for one
block at a time; only the 8-byte values grow with the row count. The
preset's 100,000-row tables would otherwise hold half a million string
cells at once, several times the memory of the columns they parse to.
"""

from __future__ import annotations

import csv
import json
from array import array
from dataclasses import dataclass, field
from itertools import islice
from typing import Optional

import numpy as np

from .errors import DataError, DomainError, ShapeError

CSV_HEADER = ("theta", "summary", "decision", "utility", "tau")
_CSV_BLOCK_ROWS = 1024   # rows formatted or parsed at a time


def write_csv(path, header, columns) -> None:
    """Rows across `columns`, floats at 17 significant digits, a None column blank.

    Each row fills one template, "%.17g" or an empty field per column and
    CRLF at the end: what `csv.writer` writes for cells that need no quotes.
    """
    cols = [None if col is None else np.asarray(col, dtype=np.float64) for col in columns]
    present = [col for col in cols if col is not None]
    if len(header) != len(cols):
        raise ShapeError(f"header names {len(header)} fields for {len(cols)} columns")
    if not present or any(col.ndim != 1 or col.shape != present[0].shape for col in present):
        raise ShapeError("columns must be one or more 1-D arrays of one length")
    template = ",".join("" if col is None else "%.17g" for col in cols) + "\r\n"
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerow(header)
        for start in range(0, present[0].shape[0], _CSV_BLOCK_ROWS):
            block = (col[start:start + _CSV_BLOCK_ROWS].tolist() for col in present)
            fh.writelines(template % row for row in zip(*block))


def write_json(path, doc) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)


def read_json(path, what: str) -> dict:
    """The JSON object in `path`; `what` names the file in the error."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except ValueError as exc:
            raise DataError(f"{what} is not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise DataError(f"{what} must hold a JSON object")
    return doc


@dataclass
class TrainingTable:
    """Columnar table of simulated (theta, summary, decision, utility, tau) rows."""

    theta: np.ndarray
    summary: np.ndarray
    tau: np.ndarray
    decision: Optional[np.ndarray] = None
    utility: Optional[np.ndarray] = None
    provenance: dict = field(default_factory=dict)

    def __post_init__(self):
        self.theta = np.asarray(self.theta, dtype=np.float64).reshape(-1)
        n = self.theta.shape[0]
        if n < 1:
            raise DataError("table must have at least one row")
        self.summary = np.asarray(self.summary, dtype=np.float64)
        if self.summary.ndim == 1:
            self.summary = self.summary[:, None]
        if self.summary.ndim != 2 or self.summary.shape[0] != n:
            raise ShapeError("summary must align with theta rows")
        self.tau = np.asarray(self.tau, dtype=np.float64).reshape(-1)
        if self.tau.shape[0] != n:
            raise ShapeError("tau must align with theta rows")
        if np.any(self.tau <= 0.0) or np.any(self.tau >= 1.0):
            raise DomainError("all tau must be strictly inside (0,1)")
        for name in ("decision", "utility"):
            col = getattr(self, name)
            if col is not None:
                col = np.asarray(col, dtype=np.float64).reshape(-1)
                if col.shape[0] != n:
                    raise ShapeError(f"{name} must align with theta rows")
                setattr(self, name, col)
        if (self.utility is None) != (self.decision is None):
            raise DataError("decision and utility columns must appear together")
        for name in ("theta", "summary", "tau", "decision", "utility"):
            col = getattr(self, name)
            if col is not None and not np.all(np.isfinite(col)):
                raise DataError(f"{name} column contains non-finite values")

    @property
    def n_rows(self) -> int:
        return self.theta.shape[0]

    @property
    def summary_dim(self) -> int:
        return self.summary.shape[1]

    @property
    def has_utility(self) -> bool:
        return self.utility is not None

    def to_csv(self, path) -> None:
        if self.summary_dim != 1:
            raise DataError("CSV serialization supports scalar summaries only")
        write_csv(path, CSV_HEADER, [self.theta, self.summary[:, 0], self.decision,
                                     self.utility, self.tau])

    @classmethod
    def from_csv(cls, path) -> "TrainingTable":
        """The table in `path`, read in blocks of `_CSV_BLOCK_ROWS` rows.

        A bad row raises at once; blank counts and each column's first parse
        error are kept until the last row, then checked column by column.
        """
        width = len(CSV_HEADER)
        values = [array("d") for _ in CSV_HEADER]
        blanks = [0] * width
        errors = [None] * width
        n = 0
        try:
            with open(path, "r", newline="", encoding="utf-8") as fh:
                reader = csv.reader(fh)
                header = tuple(next(reader, ()))
                if header != CSV_HEADER:
                    raise DataError(f"unexpected CSV header {header!r}")
                while block := list(islice(reader, _CSV_BLOCK_ROWS)):
                    for line_no, row in enumerate(block, start=n + 2):
                        if len(row) != width:
                            raise DataError(f"line {line_no}: expected {width} fields")
                    n += len(block)
                    for j, cells in enumerate(zip(*block)):
                        blanks[j] += cells.count("")
                        if errors[j] is None:
                            try:
                                values[j].extend(map(float, cells))
                            except ValueError as exc:
                                errors[j] = exc
        except (UnicodeDecodeError, csv.Error) as exc:
            raise DataError(f"table CSV is unreadable: {exc}") from None
        if n == 0:
            raise DataError("CSV contains no data rows")

        def parse(name, optional=False):
            j = CSV_HEADER.index(name)
            if optional and blanks[j] == n:
                return None
            if blanks[j]:
                raise DataError(f"column {name} mixes blank and present values")
            if errors[j] is not None:
                raise DataError(f"column {name}: {errors[j]}") from None
            return np.frombuffer(values[j], dtype=np.float64)

        return cls(theta=parse("theta"), summary=parse("summary"),
                   tau=parse("tau"), decision=parse("decision", optional=True),
                   utility=parse("utility", optional=True))
