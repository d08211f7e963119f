"""TrainingTable validation and CSV round trips."""

import numpy as np
import pytest

from quantmeu.tables import TrainingTable
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
