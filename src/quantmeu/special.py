"""Standard normal CDF and inverse CDF.

No external special-function dependency: the CDF goes through the stdlib
complementary error function and the inverse uses the Wichura PPND16
rational approximation, accurate well below the 1e-9 contract everywhere
in [1e-8, 1 - 1e-8]. Both accept scalars or numpy arrays and have one
implementation each, which scalars go through as arrays.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError

_SQRT2 = math.sqrt(2.0)


def normal_cdf(x):
    """Phi(x) for scalar or array x; a scalar comes back as a float."""
    z = -np.asarray(x, dtype=np.float64) / _SQRT2
    # fills one float64 array element by element, with no object array or
    # list of Python floats in between
    out = np.fromiter(map(math.erfc, z.flat), np.float64, z.size).reshape(z.shape)
    out *= 0.5
    return float(out) if np.ndim(x) == 0 else out


# PPND16 coefficients (central region, |p - 0.5| <= 0.425).
_A = (3.3871328727963666080e0, 1.3314166789178437745e2, 1.9715909503065514427e3,
      1.3731693765509461125e4, 4.5921953931549871457e4, 6.7265770927008700853e4,
      3.3430575583588128105e4, 2.5090809287301226727e3)
_B = (1.0, 4.2313330701600911252e1, 6.8718700749205790830e2, 5.3941960214247511077e3,
      2.1213794301586595867e4, 3.9307895800092710610e4, 2.8729085735721942674e4,
      5.2264952788528545610e3)
# Intermediate tail, r = sqrt(-log(min(p, 1-p))) in (1.6, 5].
_C = (1.42343711074968357734e0, 4.63033784615654529590e0, 5.76949722146069140550e0,
      3.64784832476320460504e0, 1.27045825245236838258e0, 2.41780725177450611770e-1,
      2.27238449892691845833e-2, 7.74545014278341407640e-4)
_D = (1.0, 2.05319162663775882187e0, 1.67638483018380384940e0, 6.89767334985100004550e-1,
      1.48103976427480074590e-1, 1.51986665636164571966e-2, 5.47593808499534494600e-4,
      1.05075007164441684324e-9)
# Far tail, r > 5.
_E = (6.65790464350110377720e0, 5.46378491116411436990e0, 1.78482653991729133580e0,
      2.96560571828504891230e-1, 2.65321895265761230930e-2, 1.24266094738807843860e-3,
      2.71155556874348757815e-5, 2.01033439929228813265e-7)
_F = (1.0, 5.99832206555887937690e-1, 1.36929880922735805310e-1, 1.48753612908506148525e-2,
      7.86869131145613259100e-4, 1.84631831751005468180e-5, 1.42151175831644588870e-7,
      2.04426310338993978564e-15)


def _poly(coeffs, x):
    """Horner's rule on array x, in place in one new array."""
    acc = coeffs[-1] * x
    acc += coeffs[-2]
    for c in coeffs[-3::-1]:
        acc *= x
        acc += c
    return acc


def normal_quantile(p):
    """Phi^{-1}(p) for scalar or array p, p strictly inside (0,1); a scalar
    goes through the array code, so its value matches the batched one."""
    scalar = np.ndim(p) == 0
    p = np.atleast_1d(np.asarray(p, dtype=np.float64))
    # written so that NaN fails the check too
    if not np.all((p > 0.0) & (p < 1.0)):
        raise DomainError("normal_quantile requires all p in (0,1)")
    q = p - 0.5
    # the central rational on every p, harmless outside |q| <= 0.425 (there
    # r > -0.0694 and _B has no root above -0.0729); the tail overwrites those
    r = 0.180625 - q ** 2
    out = _poly(_A, r)
    out *= q
    out /= _poly(_B, r)

    tail = np.abs(q) > 0.425
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
    return float(out[0]) if scalar else out
