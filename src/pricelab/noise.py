"""Noise distributions for customer valuations.

Both shipped laws (Gaussian, logistic) are strictly log-concave: the second
derivatives of log F and log(1-F) are strictly negative everywhere, which is
what makes the per-round sale likelihood strongly curved along the observed
feature direction and the whole pricing machinery work.  Both are symmetric
about 0, so every left-tail quantity is its right-tail twin at -w: F(w) =
1 - F(-w), the reverse hazard f/F at w is the hazard at -w, and the two
log-likelihood curvatures agree the same way.  Each pair has one kernel.

Everything tail-sensitive is computed in log space or through the
standardized Mills ratio m = (1-F)/f, which neither underflows in the right
tail nor loses relative accuracy there: the hazard is 1/(spread*m).  The
logistic's tails have closed forms.  The Gaussian's come from one kernel,
m(z) as a table of polynomial pieces (``_mills_table``, fitted by
``tools/mills_table.py``) evaluated with numpy and Python float arithmetic
alone; Phi and log Phi follow from m and the log density.

The Mills and hazard kernels also take a Python float, for the online
update's one round: the same operations in Python float arithmetic give the
array kernel's bits, and overflow to inf without a warning, so they need no
``np.errstate``.
"""

from __future__ import annotations

import abc
import math
from dataclasses import dataclass

import numpy as np

from . import _mills_table

__all__ = [
    "NoiseModel",
    "GaussianNoise",
    "LogisticNoise",
]

_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)
_SQRT_2PI = math.sqrt(2.0 * math.pi)
_MILLS_0 = math.sqrt(math.pi / 2.0)  # m(0), the largest m(|z|); the table's m near 0 is one ulp above it

# The pieces of the Gaussian Mills ratio, laid out in tools/mills_table.py.
# The near rows are padded with leading zeros to the length of the last,
# whose piece (just below -8) has the highest degree; a leading zero changes
# no bit of Horner's rule.  The float kernel unpacks the padded tuples; the
# array kernel gathers one contiguous row per power, highest first, and
# skips the powers that are zero in all of its pieces.  Degrees rise with
# the row, and the first _SHORT rows (z > -2.5, where the online update's
# arguments lie) have at most 8 coefficients: the float kernel unpacks
# those as 8, two multiply-adds (about 75 ns) cheaper than the padded 10.
_NEAR_LENGTH = len(_mills_table.NEAR[-1])
_NEAR = tuple((0.0,) * (_NEAR_LENGTH - len(row)) + row for row in _mills_table.NEAR)
_SHORT = sum(len(row) <= 8 for row in _mills_table.NEAR)
_NEAR_SHORT = tuple(row[-8:] for row in _NEAR[:_SHORT])
_NEAR_ZEROS = np.array([_NEAR_LENGTH - len(row) for row in _mills_table.NEAR])
_FAR = _mills_table.FAR
_NEAR_POWERS, _FAR_POWERS = np.array(_NEAR).T.copy(), np.array(_FAR).T.copy()
# Arrays up to this size run the float kernel elementwise.  The numpy
# evaluation costs about 15 us a call whatever the size (some 25 numpy
# calls), the float loop about 0.5 us an element: they cross at 26-28
# elements (2-core VM, z in [-0.8, 0.8], [0, 1.7] and [-7.5, 0.7]).
_FLOAT_LOOP = 24
_SERIES_Z = 64.0  # z past which the Gaussian sale curvature is its asymptotic series


def _check_finite(omega) -> np.ndarray:
    arr = np.asarray(omega, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ValueError("noise argument must be finite")
    return arr


def _like(omega, out: np.ndarray):
    return float(out) if np.ndim(omega) == 0 else out


def _horner(powers: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Sum of powers[i] * s**(n - i) by Horner's rule, highest power first,
    updating one array in place: the same operations as p = p*s + c."""
    p = powers[0] * s
    for c in powers[1:-1]:
        p += c
        p *= s
    p += powers[-1]
    return p


def _gaussian_mills(z):
    """The standardized Gaussian Mills ratio m(z) = (1-Phi(z))/phi(z).

    On a Python float, in Python float arithmetic; on an array, elementwise,
    with numpy's operations in the same order, so with the same bits.  An
    array of at most _FLOAT_LOOP elements goes through the float kernel.

    On [-8, 8] a piece of the table in s = x - floor(x), x = 256 - 32 z (s
    taken as -32 z - (floor(x) - 256), not from the rounded x); above 8,
    w = 1/z times a piece in x = 256 w, exactly 0 at +inf; below -8, the
    reflection sqrt(2 pi) exp(z^2/2) - m(-z), +inf below z = -37.65 with no
    warning.  NaN stays NaN.
    """
    if type(z) is not float:
        z = np.asarray(z, dtype=float)
        if z.size > _FLOAT_LOOP:
            return _mills_pieces(z.reshape(-1)).reshape(z.shape)
        return np.array([_gaussian_mills(v) for v in z.reshape(-1).tolist()]).reshape(z.shape)
    if -8.0 <= z <= 8.0:
        y = z * -32.0
        k = int(y + 256.0)
        s = y - (k - 256.0)
        if k < _SHORT:
            c0, c1, c2, c3, c4, c5, c6, c7 = _NEAR_SHORT[k]
            return ((((((c0 * s + c1) * s + c2) * s + c3) * s + c4) * s + c5) * s + c6) * s + c7
        c0, c1, c2, c3, c4, c5, c6, c7, c8, c9 = _NEAR[k]
        return ((((((((c0 * s + c1) * s + c2) * s + c3) * s + c4) * s + c5) * s + c6) * s + c7) * s + c8) * s + c9
    if z > 8.0:
        w = 1.0 / z
        x = w * 256.0
        k = int(x)
        s = x - k
        c0, c1, c2, c3, c4, c5, c6, c7 = _FAR[k]
        return (((((((c0 * s + c1) * s + c2) * s + c3) * s + c4) * s + c5) * s + c6) * s + c7) * w
    return float(_mills_pieces(np.array([z]))[0])  # below -8, and NaN


def _mills_pieces(z: np.ndarray) -> np.ndarray:
    """_gaussian_mills of a nonempty 1-D array in numpy."""
    inside = z.min() >= -8.0 and z.max() <= 8.0  # False with a NaN
    y = (z if inside else np.fmin(np.fmax(z, -8.0), 8.0)) * -32.0
    k = (y + 256.0).astype(np.intp)
    # degrees rise with k: the highest piece's leading zeros are every piece's
    m = _horner(_NEAR_POWERS[_NEAR_ZEROS[k.max()] :].take(k, axis=1), y - (k - 256.0))
    if not inside:
        far, low = z > 8.0, z < -8.0
        m[far] = _far_mills(z[far])
        zl = z[low]
        with np.errstate(over="ignore"):
            m[low] = _SQRT_2PI * np.exp(0.5 * zl * zl) - _far_mills(-zl)
        m[np.isnan(z)] = np.nan
    return m


def _far_mills(z: np.ndarray) -> np.ndarray:
    w = 1.0 / z
    x = w * 256.0
    k = x.astype(np.intp)
    return _horner(_FAR_POWERS.take(k, axis=1), x - k) * w


class NoiseModel(abc.ABC):
    """Zero-mean noise law with stable CDF/PDF/tail/hazard evaluation.

    Subclasses provide the scalar kernels; all public methods accept floats
    or arrays and validate finiteness (once per call).  Every finite
    argument is valid: where w/spread overflows, it is +-inf, and each
    method returns its limit there without a warning.  Instances are
    immutable and safe to share; samplers take an explicit Generator.

    The law must be symmetric about 0: ``sf``/``log_sf`` are the CDF at -w,
    and ``reverse_hazard``/``log_cdf_curvature`` are the hazard and the sale
    curvature at -w.  ``pricelab verify``'s ``noise.tail-identity`` fails
    for a law that is not.
    """

    # -- primitive kernels -------------------------------------------------

    @abc.abstractmethod
    def _cdf(self, z: np.ndarray) -> np.ndarray: ...

    @abc.abstractmethod
    def _log_cdf(self, z: np.ndarray) -> np.ndarray: ...

    @abc.abstractmethod
    def _log_pdf(self, z: np.ndarray) -> np.ndarray: ...

    @abc.abstractmethod
    def _mills(self, z: np.ndarray) -> np.ndarray:
        """(1-F)/f on the standardized scale.

        A function of the law alone, not of its spread: pricing keeps one
        greedy-price root table per noise class.
        """

    @abc.abstractmethod
    def _mills_prime(self, z: np.ndarray, m: np.ndarray) -> np.ndarray:
        """d/dz of the standardized Mills ratio, given its value m = _mills(z).

        Strictly negative for a log-concave law: it tends to 0 in the right
        tail and is unbounded below in the left (for the Gaussian, m'(-1) =
        -4.48 and m'(z) ~ z*m(z) as z -> -inf).
        """

    @abc.abstractmethod
    def _log_pdf_slope(self, w: np.ndarray) -> np.ndarray:
        """f'(w)/f(w), the derivative of log f, on the unstandardized scale."""

    @property
    @abc.abstractmethod
    def spread(self) -> float:
        """Standardizing scale (sigma for Gaussian, s for logistic)."""

    # -- distribution surface ----------------------------------------------

    def _standardized(self, w: np.ndarray) -> np.ndarray:
        """w/spread, +-inf where a finite w overflows it (at spread < 1)."""
        with np.errstate(over="ignore"):
            return w / self.spread

    def cdf(self, omega):
        return _like(omega, self._cdf(self._standardized(_check_finite(omega))))

    def sf(self, omega):
        return _like(omega, self._cdf(self._standardized(-_check_finite(omega))))

    def log_cdf(self, omega):
        return _like(omega, self._log_cdf(self._standardized(_check_finite(omega))))

    def log_sf(self, omega):
        return _like(omega, self._log_cdf(self._standardized(-_check_finite(omega))))

    def pdf(self, omega):
        return _like(omega, np.exp(self._log_pdf(self._standardized(_check_finite(omega)))) / self.spread)

    def pdf_derivative(self, omega):
        arr = _check_finite(omega)
        pdf = self.pdf(arr)
        with np.errstate(over="ignore", invalid="ignore"):  # f'/f may overflow where f, so f', is 0
            return _like(omega, np.where(pdf > 0.0, pdf * self._log_pdf_slope(arr), 0.0))

    def hazard(self, omega):
        """f(w)/(1 - F(w))."""
        return _like(omega, self._hazard(_check_finite(omega)))

    def _hazard(self, w):
        """f(w)/(1 - F(w)) of an array, or of a Python float as a float."""
        # far left the Mills ratio overflows to +inf, and 1/inf = 0 is the hazard;
        # at +inf it is 0, and 1/0 = inf: a Python float overflows silently and
        # takes 1/0 as numpy does under the errstate
        s = self.spread
        if type(w) is float:
            d = s * self._mills(w / s)
            return 1.0 / d if d else math.inf
        with np.errstate(over="ignore", divide="ignore"):
            return 1.0 / (s * self._mills(w / s))

    def reverse_hazard(self, omega):
        """f(w)/F(w): the hazard at -w."""
        return _like(omega, self._hazard(-_check_finite(omega)))

    # -- log-concavity curvatures -------------------------------------------
    # -d^2 log(1-F)/dw^2 = h^2 + (f'/f) h       with h = f/(1-F)
    # -d^2 log F/dw^2 at w is -d^2 log(1-F)/dw^2 at -w.
    # Both are strictly positive for strictly log-concave F.

    def _hazard_curvature(self, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The hazard and the sale curvature -d^2 log(1-F)/dw^2, from one hazard evaluation."""
        h = self._hazard(w)
        return h, h * (h + self._log_pdf_slope(w))

    def log_sf_curvature(self, omega):
        return _like(omega, self._hazard_curvature(_check_finite(omega))[1])

    def log_cdf_curvature(self, omega):
        return self.log_sf_curvature(-np.asarray(omega, dtype=float))

    # -- sampling ------------------------------------------------------------

    @abc.abstractmethod
    def sample(self, rng: np.random.Generator, size=None):
        """Draw noise; deterministic given the generator state."""

    @property
    @abc.abstractmethod
    def b_f(self) -> float:
        """sup of the density."""

    @property
    @abc.abstractmethod
    def b_fprime(self) -> float:
        """sup of |f'|."""


@dataclass(frozen=True)
class GaussianNoise(NoiseModel):
    """N(0, sigma^2) valuation noise.

    Every tail quantity comes from the Mills ratio m(z) = (1-Phi(z))/phi(z)
    (``_gaussian_mills``), within 2 ulp of the exact value for z >= -8 and
    within z^2/2 + 2 ulp below, where the reflection's exp(z^2/2) inherits
    the rounding of z^2.  It never underflows and overflows only below
    z = -37.65; there the hazard and the sale curvature are 0, where their
    true values are below 1e-300 for sigma >= 1e-3.  With m capped at
    m(0) = sqrt(pi/2) and q = m(|z|) phi(z) <= 1/2, Phi(z) is q for z < 0
    and 1 - q from 0 up, and log Phi(z) is log m(-z) + log phi(z) below 0
    and log1p(-q) from 0 up: both are monotone across 0.  Phi is within
    z^2/2 + 4 ulp (the rounding of z^2 again), and so is log Phi above 0;
    below, log Phi is within 4 ulp.
    """

    sigma: float = 1.0

    def __post_init__(self):
        if not (np.isfinite(self.sigma) and self.sigma > 0):
            raise ValueError("sigma must be a positive real")

    @property
    def spread(self) -> float:
        return self.sigma

    @property
    def b_f(self) -> float:
        return 1.0 / (self.sigma * math.sqrt(2.0 * math.pi))

    @property
    def b_fprime(self) -> float:
        return 1.0 / (self.sigma**2 * math.sqrt(2.0 * math.pi * math.e))

    # past |z| = 1.3e154, z*z overflows to inf and phi(z) to 0; at |z| = inf, m = 0

    def _cdf(self, z):
        a = np.abs(z)
        with np.errstate(over="ignore"):
            q = np.minimum(_gaussian_mills(a), _MILLS_0) * np.exp(-0.5 * a * a) / _SQRT_2PI
        return np.where(z >= 0.0, 1.0 - q, q)

    def _log_cdf(self, z):
        m = np.minimum(_gaussian_mills(np.abs(z)), _MILLS_0)
        with np.errstate(over="ignore", divide="ignore"):
            h = -0.5 * z * z
            left = np.log(m) + (h - _LOG_SQRT_2PI)
            return np.where(z >= 0.0, np.log1p(m * np.exp(h) / -_SQRT_2PI), left)

    def _log_pdf(self, z):
        with np.errstate(over="ignore"):  # -inf past |z| = 1.3e154
            return -0.5 * z * z - _LOG_SQRT_2PI

    def _mills(self, z):
        return _gaussian_mills(z)

    def _mills_prime(self, z, m):
        return z * m - 1.0

    def _log_pdf_slope(self, w):
        return -w / self.sigma**2

    def _hazard_curvature(self, w):
        """The hazard and the sale curvature, rising from 0 to 1/sigma^2: past _SERIES_Z
        its series in u = 1/z^2 (within 6e-15 of mpmath, where h(h + f'/f), with
        h = (z + 1/z - ...)/sigma, cancels), and 0 where -w/sigma^2 overflows."""
        if np.abs(w).max() <= _SERIES_Z * self.sigma:
            return super()._hazard_curvature(w)
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            h, curvature = super()._hazard_curvature(w)
            z = self._standardized(w)
            u = 1.0 / (z * z)
            series = (1.0 - u * (1.0 - u * (6.0 - u * (50.0 - 518.0 * u)))) / self.sigma**2
            return h, np.where(z > _SERIES_Z, series, np.where(h > 0.0, curvature, 0.0))

    def sample(self, rng, size=None):
        return rng.normal(0.0, self.sigma, size)


@dataclass(frozen=True)
class LogisticNoise(NoiseModel):
    """Logistic(0, s) valuation noise; every tail quantity has a closed form.

    With e = exp(-|z|), F(z) is 1/(1 + e) for z >= 0 and e/(1 + e) below, so
    neither tail cancels; the hazard is F(w)/s, bounded and increasing.
    """

    scale: float = 1.0

    def __post_init__(self):
        if not (np.isfinite(self.scale) and self.scale > 0):
            raise ValueError("scale must be a positive real")

    @property
    def spread(self) -> float:
        return self.scale

    @property
    def b_f(self) -> float:
        return 1.0 / (4.0 * self.scale)

    @property
    def b_fprime(self) -> float:
        # max of |f'| = max over p of p(1-p)|1-2p|/s^2 at p = 1/2 +- sqrt(3)/6
        return math.sqrt(3.0) / (18.0 * self.scale**2)

    def _cdf(self, z):
        e = np.exp(-np.abs(z))
        return np.where(z >= 0.0, 1.0, e) / (1.0 + e)

    def _log_cdf(self, z):
        return -(np.maximum(-z, 0.0) + np.log1p(np.exp(-np.abs(z))))

    def _log_pdf(self, z):
        a = np.abs(z)
        return -(a + 2.0 * np.log1p(np.exp(-a)))

    def _mills(self, z):
        # (1-F)/f = 1 + exp(-z) on the standardized scale; a Python float stays one
        e = np.exp(-z)
        return 1.0 + (float(e) if type(z) is float else e)

    def _mills_prime(self, z, m):
        return 1.0 - m

    def _log_pdf_slope(self, w):
        return (1.0 - 2.0 * self._cdf(self._standardized(w))) / self.scale

    def _hazard(self, w):
        if type(w) is float:  # _cdf's operations on floats, with numpy's exp for its bits
            z = w / self.scale  # a Python float overflows to inf silently
            e = float(np.exp(-abs(z)))
            return (1.0 if z >= 0.0 else e) / (1.0 + e) / self.scale
        return self._cdf(self._standardized(w)) / self.scale

    # The curvature is F(1-F)/s^2 = f/s.  The generic h(h + f'/f) cancels in
    # the right tail: 0 at w/s = 40, where F(1-F) is 4.2e-18.

    def _hazard_curvature(self, w):
        z = self._standardized(w)
        cdf = self._cdf(z)
        return cdf / self.scale, cdf * self._cdf(-z) / self.scale**2

    def sample(self, rng, size=None):
        return rng.logistic(0.0, self.scale, size)
