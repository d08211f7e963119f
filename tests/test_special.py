"""Normal CDF and quantile against a 50-digit mpmath oracle.

Oracle: mpmath.ncdf evaluated at 50 decimal digits gives the forward CDF;
the quantile oracle inverts it by bisection on [-40, 40], which depends on
nothing but the forward CDF and so is independent of any inverse-normal
algorithm.
"""

import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quantmeu import normal_quantile
from quantmeu.special import _A, _B, _C, _D, _E, _F, _poly, normal_cdf
from quantmeu.errors import DomainError

mp.mp.dps = 50


def oracle_cdf(x: float) -> float:
    return float(mp.ncdf(mp.mpf(x)))


def oracle_quantile(p: float) -> float:
    # [DERIVED] bisection on the 50-digit forward CDF
    target = mp.mpf(p)
    lo, hi = mp.mpf(-40), mp.mpf(40)
    for _ in range(220):
        mid = (lo + hi) / 2
        if mp.ncdf(mid) < target:
            lo = mid
        else:
            hi = mid
    return float((lo + hi) / 2)


CDF_POINTS = [-8.0, -3.5, -1.0, -0.1, 0.0, 0.3, 1.0, 2.5, 6.0]

# covers all three rational-approximation branches: central, intermediate
# tail, and the far tail below ~1.4e-11
QUANTILE_POINTS = [
    1e-12, 1e-10, 1e-8, 1e-6, 1e-4, 0.01, 0.1, 0.25, 0.5,
    0.6, 0.9, 0.99, 1 - 1e-4, 1 - 1e-6, 1 - 1e-8,
]


@pytest.mark.parametrize("x", CDF_POINTS)
def test_normal_cdf_matches_oracle(x):
    expected = oracle_cdf(x)
    got = normal_cdf(x)
    assert got == pytest.approx(expected, rel=1e-14, abs=1e-300)


def test_normal_cdf_array():
    xs = np.array(CDF_POINTS)
    got = normal_cdf(xs)
    expected = np.array([oracle_cdf(x) for x in CDF_POINTS])
    np.testing.assert_allclose(got, expected, rtol=1e-14)


@pytest.mark.parametrize("p", QUANTILE_POINTS)
def test_normal_quantile_matches_oracle(p):
    expected = oracle_quantile(p)
    got = normal_quantile(p)
    assert got == pytest.approx(expected, rel=5e-15, abs=5e-15)


# tail points where numpy's vectorised log and libm's log differ by 1 ulp
# on x86-64 with AVX-512; a scalar quantile computed with libm moves there
ULP_SPLIT_POINTS = [0.9459567166000991, 0.05796454005960322]


def test_normal_quantile_array_matches_scalar():
    points = QUANTILE_POINTS + ULP_SPLIT_POINTS
    got = normal_quantile(np.array(points))
    expected = np.array([normal_quantile(p) for p in points])
    np.testing.assert_array_equal(got, expected)


def test_normal_quantile_median_exact():
    assert normal_quantile(0.5) == 0.0


def test_normal_quantile_symmetry():
    for p in (0.01, 0.2, 0.45):
        assert normal_quantile(p) == pytest.approx(-normal_quantile(1 - p),
                                                   rel=1e-13)


def test_roundtrip_cdf_of_quantile():
    for p in (1e-6, 0.3, 0.5, 0.9, 1 - 1e-6):
        assert normal_cdf(normal_quantile(p)) == pytest.approx(p, rel=1e-12)


@pytest.mark.parametrize("p", [0.0, 1.0, -0.1, 1.5, math.nan])
def test_normal_quantile_domain(p):
    with pytest.raises(DomainError):
        normal_quantile(p)


def test_normal_quantile_array_domain():
    with pytest.raises(DomainError):
        normal_quantile(np.array([0.5, 1.0]))
    with pytest.raises(DomainError):
        normal_quantile(np.array([0.5, math.nan]))


def masked_quantile_oracle(p):
    """normal_quantile as it was: the central rational only on the gathered
    central p, scattered back, and the tail on the rest."""
    q = p - 0.5
    out = np.empty_like(p)
    central = np.abs(q) <= 0.425
    if np.any(central):
        qc = q[central]
        r = 0.180625 - qc ** 2
        out[central] = qc * _poly(_A, r) / _poly(_B, r)
    tail = ~central
    if np.any(tail):
        pt = p[tail]
        qt = q[tail]
        r = np.sqrt(-np.log(np.where(qt < 0.0, pt, 1.0 - pt)))
        val = np.empty_like(r)
        near = r <= 5.0
        if np.any(near):
            rn = r[near] - 1.6
            val[near] = _poly(_C, rn) / _poly(_D, rn)
        far = ~near
        if np.any(far):
            rf = r[far] - 5.0
            val[far] = _poly(_E, rf) / _poly(_F, rf)
        out[tail] = np.where(qt < 0.0, -val, val)
    return out


# both sides of the central/tail boundary |p - 0.5| = 0.425, both tail
# branches and the smallest doubles
BRANCH_POINTS = [0.075, 0.925, np.nextafter(0.075, 0), np.nextafter(0.075, 1),
                 np.nextafter(0.925, 0), np.nextafter(0.925, 1), 0.5, 1e-300, 5e-324,
                 1 - 2 ** -53, 2 ** -53]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(min_value=5e-324, max_value=1 - 2 ** -53), min_size=1, max_size=64))
def test_normal_quantile_matches_masked_oracle(ps):
    p = np.array(ps + BRANCH_POINTS)
    assert normal_quantile(p).tobytes() == masked_quantile_oracle(p).tobytes()
