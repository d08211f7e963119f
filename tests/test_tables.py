"""TrainingTable validation, CSV round trips and the CSV writer's bytes."""

import csv

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quantmeu.tables import TrainingTable, write_csv
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
