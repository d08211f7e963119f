"""TrainingTable validation, CSV round trips, the CSV writer's bytes and
the block reader against the whole-file reader it replaced."""

import csv
import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import peak_bytes
from quantmeu.presets import PORTFOLIO
from quantmeu.repro import ExperimentConfig, simulate_table
from quantmeu.tables import CSV_HEADER, TrainingTable, write_csv
from quantmeu.errors import DataError, DomainError, ShapeError


def posterior_table(n=10, seed=0):
    rng = np.random.default_rng(seed)
    return TrainingTable(theta=rng.normal(size=n),
                         summary=rng.normal(size=(n, 1)),
                         tau=rng.uniform(0.01, 0.99, size=n))


def utility_table(n=10, seed=0):
    rng = np.random.default_rng(seed)
    return TrainingTable(theta=rng.normal(size=n),
                         summary=rng.normal(size=(n, 1)),
                         tau=rng.uniform(0.01, 0.99, size=n),
                         decision=rng.uniform(size=n),
                         utility=-rng.uniform(0.5, 1.5, size=n))


def test_basic_properties():
    t = posterior_table(12)
    assert t.n_rows == 12
    assert t.summary_dim == 1
    assert not t.has_utility
    assert utility_table().has_utility


def test_validation_rejects_bad_tau():
    with pytest.raises(DomainError):
        TrainingTable(theta=np.zeros(2), summary=np.zeros((2, 1)),
                      tau=np.array([0.5, 1.0]))


def test_validation_rejects_partial_utility():
    with pytest.raises(DataError):
        TrainingTable(theta=np.zeros(2), summary=np.zeros((2, 1)),
                      tau=np.full(2, 0.5), decision=np.zeros(2))


def test_validation_rejects_nonfinite():
    with pytest.raises(DataError):
        TrainingTable(theta=np.array([0.0, np.nan]),
                      summary=np.zeros((2, 1)), tau=np.full(2, 0.5))


def test_validation_rejects_empty():
    with pytest.raises(DataError):
        TrainingTable(theta=np.zeros(0), summary=np.zeros((0, 1)),
                      tau=np.zeros(0))


def test_csv_roundtrip_posterior_exact(tmp_path):
    t = posterior_table(25, seed=3)
    path = tmp_path / "t.csv"
    t.to_csv(path)
    back = TrainingTable.from_csv(path)
    np.testing.assert_array_equal(back.theta, t.theta)
    np.testing.assert_array_equal(back.summary, t.summary)
    np.testing.assert_array_equal(back.tau, t.tau)
    assert back.decision is None and back.utility is None


def test_csv_roundtrip_utility_exact(tmp_path):
    t = utility_table(25, seed=4)
    path = tmp_path / "t.csv"
    t.to_csv(path)
    back = TrainingTable.from_csv(path)
    np.testing.assert_array_equal(back.decision, t.decision)
    np.testing.assert_array_equal(back.utility, t.utility)


def test_csv_header_written(tmp_path):
    t = posterior_table(3)
    path = tmp_path / "t.csv"
    t.to_csv(path)
    first = path.read_text().splitlines()[0]
    assert first == "theta,summary,decision,utility,tau"


def test_from_csv_rejects_wrong_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b,c,d,e\n1,2,3,4,0.5\n")
    with pytest.raises(DataError):
        TrainingTable.from_csv(path)


def test_from_csv_rejects_short_row(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("theta,summary,decision,utility,tau\n1.0,2.0,0.5\n")
    with pytest.raises(DataError) as exc:
        TrainingTable.from_csv(path)
    assert "line 2" in str(exc.value)


def test_from_csv_rejects_mixed_blanks(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("theta,summary,decision,utility,tau\n"
                    "1.0,2.0,0.3,-0.5,0.5\n"
                    "1.0,2.0,,,0.5\n")
    with pytest.raises(DataError):
        TrainingTable.from_csv(path)


def test_from_csv_rejects_empty(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("theta,summary,decision,utility,tau\n")
    with pytest.raises(DataError):
        TrainingTable.from_csv(path)


def csv_writer_oracle(path, header, columns):
    """The writer as it was: csv.writer over format(v, ".17g") per cell."""
    n = len(next(col for col in columns if col is not None))
    cells = [[""] * n if col is None
             else [format(v, ".17g") for v in np.asarray(col, dtype=np.float64).tolist()]
             for col in columns]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(zip(*cells))


EDGE_VALUES = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
               1.7976931348623157e308, -1.7976931348623157e308, 0.1, 1 / 3, -2 / 3,
               1e-5, 1e16, 12345678901234567.0, 3.0, -7.0,
               float("nan"), float("inf"), float("-inf")]


@pytest.mark.parametrize("header, columns", [
    (["v", "blank", "w"], [EDGE_VALUES, None, EDGE_VALUES[::-1]]),
    (["epoch", "train_loss", "val_loss"],
     [range(4), [0.25, 1 / 3, 0.1, 2.5e-7], [0.5, 0.2, 1 / 7, 1e-300]]),
    (["theta", "summary", "decision", "utility", "tau"],
     [[1.5, -0.1], [1e-9, 2.0], None, None, [0.5, 0.999]]),
    (["theta"], [EDGE_VALUES]),
    (["d", "eu", "se"], [[], [], []]),
], ids=["edge-values", "history", "posterior-table", "one-column", "header-only"])
def test_write_csv_matches_csv_writer_bytes(tmp_path, header, columns):
    write_csv(tmp_path / "new.csv", header, columns)
    csv_writer_oracle(tmp_path / "old.csv", header, columns)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


@pytest.mark.parametrize("header", [["a", "b"], ["a", "b", "c", "d"]])
def test_write_csv_rejects_header_of_other_width(tmp_path, header):
    with pytest.raises(ShapeError):
        write_csv(tmp_path / "t.csv", header, [[1.0], None, [2.0]])


def test_write_csv_rejects_columns_of_other_lengths(tmp_path):
    with pytest.raises(ShapeError):
        write_csv(tmp_path / "t.csv", ["a", "b", "c"], [[1.0, 2.0], None, [3.0]])


def _float64(bits):
    return np.array(bits, dtype=np.uint64).view(np.float64)


# any sign, any exponent but the all-ones one (inf, nan), any mantissa
finite_bits = st.builds(lambda sign, exp, mant: sign << 63 | exp << 52 | mant,
                        st.integers(0, 1), st.integers(0, 2046), st.integers(0, 2**52 - 1))
# 5e-324 up to the largest double below 1.0: every tau in (0, 1)
tau_bits = st.integers(1, 0x3FEFFFFFFFFFFFFF)


@settings(max_examples=60, deadline=None)
@given(rows=st.lists(st.tuples(finite_bits, finite_bits, finite_bits, finite_bits, tau_bits),
                     min_size=1, max_size=20),
       utility=st.booleans())
def test_csv_roundtrip_keeps_every_bit_pattern(tmp_path_factory, rows, utility):
    theta, summary, decision, util, tau = (_float64(c) for c in zip(*rows))
    t = TrainingTable(theta=theta, summary=summary, tau=tau,
                      decision=decision if utility else None,
                      utility=util if utility else None)
    path = tmp_path_factory.mktemp("bits") / "t.csv"
    t.to_csv(path)
    back = TrainingTable.from_csv(path)
    for name in ("theta", "summary", "tau", "decision", "utility"):
        col, got = getattr(t, name), getattr(back, name)
        assert (got is None) == (col is None)
        assert col is None or got.tobytes() == col.tobytes()
    csv_writer_oracle(path.with_name("old.csv"), ["theta", "summary", "decision", "utility", "tau"],
                      [t.theta, t.summary[:, 0], t.decision, t.utility, t.tau])
    assert path.read_bytes() == path.with_name("old.csv").read_bytes()


def csv_reader_oracle(path):
    """The reader as it was: every cell of the file held as a string, then
    each column checked for blanks and parsed whole. Returns the five
    columns (None for an all-blank optional one) or the DataError message."""
    try:
        with open(path, "r", newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            header = tuple(next(reader, ()))
            if header != CSV_HEADER:
                raise DataError(f"unexpected CSV header {header!r}")
            cols = {name: [] for name in CSV_HEADER}
            for line_no, row in enumerate(reader, start=2):
                if len(row) != len(CSV_HEADER):
                    raise DataError(f"line {line_no}: expected {len(CSV_HEADER)} fields")
                for name, cell in zip(CSV_HEADER, row):
                    cols[name].append(cell)
        if not cols["theta"]:
            raise DataError("CSV contains no data rows")

        def parse(name, optional=False):
            cells = cols[name]
            blank = [c == "" for c in cells]
            if optional and all(blank):
                return None
            if any(blank):
                raise DataError(f"column {name} mixes blank and present values")
            try:
                return np.array([float(c) for c in cells])
            except ValueError as exc:
                raise DataError(f"column {name}: {exc}") from None

        return (parse("theta"), parse("summary"), parse("tau"),
                parse("decision", optional=True), parse("utility", optional=True))
    except DataError as exc:
        return str(exc)


def assert_reads_as_oracle(path):
    expected = csv_reader_oracle(path)
    if isinstance(expected, str):
        with pytest.raises(DataError) as exc:
            TrainingTable.from_csv(path)
        assert str(exc.value) == expected
        return
    back = TrainingTable.from_csv(path)
    for col, want in zip((back.theta, back.summary[:, 0], back.tau, back.decision,
                          back.utility), expected):
        assert (col is None) == (want is None)
        assert col is None or col.tobytes() == want.tobytes()


# one block, and one row short of, at, past and well past a block boundary
@pytest.mark.parametrize("n", [1, 1023, 1024, 1025, 2049, 3000])
@pytest.mark.parametrize("make", [utility_table, posterior_table], ids=["utility", "posterior"])
def test_from_csv_matches_whole_file_reader(tmp_path, n, make):
    path = tmp_path / "t.csv"
    make(n, seed=n).to_csv(path)
    assert_reads_as_oracle(path)


def _edited_table(tmp_path, edits, n=3000):
    """A utility table CSV of n rows with line -> replacement line edits
    (the header is line 1)."""
    path = tmp_path / "t.csv"
    utility_table(n, seed=8).to_csv(path)
    lines = path.read_text().splitlines()
    for line_no, text in edits.items():
        lines[line_no - 1] = text
    path.write_text("\n".join(lines) + "\n")
    return path


@pytest.mark.parametrize("edits, message", [
    ({1500: "0.5,x1.5,0.25,-1.0,0.5"}, "column summary: could not convert string to float: 'x1.5'"),
    ({10: "bad,0.1,0.25,-1.0,0.5", 1500: "0.5,0.1,0.25"}, "line 1500: expected 5 fields"),
    ({1100: "0.5,0.1,,-1.0,0.5"}, "column decision mixes blank and present values"),
    ({5: "0.5,0.1,0.25,-1.0,tau", 2000: "0.5,,0.25,-1.0,0.5"},
     "column summary mixes blank and present values"),
], ids=["bad-float-in-block-2", "short-row-after-bad-float", "blank-decision-in-block-2",
        "blank-summary-before-bad-tau"])
def test_from_csv_errors_match_whole_file_reader(tmp_path, edits, message):
    path = _edited_table(tmp_path, edits)
    assert csv_reader_oracle(path) == message
    assert_reads_as_oracle(path)


def test_csv_round_trip_memory_grows_with_values_not_cells(tmp_path):
    # From 4,096 to 32,768 utility rows the five columns grow by 8 bytes per
    # value. Block reading and writing grew by 1.02 and 0.002 times that; the
    # whole-file reader and writer, which held every cell's string or Python
    # float, grew by 11.6 and 4.0 times that.
    peaks = {}
    for n in (4096, 32_768):
        t = utility_table(n, seed=5)
        path = tmp_path / f"{n}.csv"
        peaks[n] = (peak_bytes(lambda: t.to_csv(path)),
                    peak_bytes(lambda: TrainingTable.from_csv(path)))
    values = 5 * 8 * (32_768 - 4096)
    write_growth = peaks[32_768][0] - peaks[4096][0]
    read_growth = peaks[32_768][1] - peaks[4096][1]
    assert write_growth <= 2 * values, f"to_csv grew {write_growth / values:.2f}x the values"
    assert read_growth <= 2 * values, f"from_csv grew {read_growth / values:.2f}x the values"


def test_preset_portfolio_table_round_trips_bit_for_bit(tmp_path):
    table = simulate_table(ExperimentConfig(PORTFOLIO, {}))
    assert table.n_rows == 100_000
    path = tmp_path / "table.csv"
    table.to_csv(path)
    # the preset table `simulate --preset portfolio` writes
    assert hashlib.sha256(path.read_bytes()).hexdigest() == (
        "08f16bb81ee6bdf6dabcc396a36651e1e9527e1937260ed959143607ccf0f526")
    back = TrainingTable.from_csv(path)
    for name in ("theta", "summary", "tau", "decision", "utility"):
        assert getattr(back, name).tobytes() == getattr(table, name).tobytes(), name
