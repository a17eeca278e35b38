"""Noise distributions for customer valuations.

Both shipped laws (Gaussian, logistic) are strictly log-concave: the second
derivatives of log F and log(1-F) are strictly negative everywhere, which is
what makes the per-round sale likelihood strongly curved along the observed
feature direction and the whole pricing machinery work.  Both are symmetric
about 0, so every left-tail quantity is its right-tail twin at -w: F(w) =
1 - F(-w), the reverse hazard f/F at w is the hazard at -w, and the two
log-likelihood curvatures agree the same way.  Each pair has one kernel.

Everything tail-sensitive is computed in log space.  The quantities that blow
up a naive implementation are 1-F(w) (underflows in double precision near 38
standard units) and the hazard f/(1-F) (0/0 in the right tail); here they go
through ``log_sf``/``log_pdf`` or, for the Gaussian, through the scaled
complementary error function, so the hazard keeps ~1e-15 relative error at
every margin where the Mills ratio is finite, with no asymptotic switch.
"""

from __future__ import annotations

import abc
import math
from dataclasses import dataclass

import numpy as np
from scipy import special

__all__ = [
    "NoiseModel",
    "GaussianNoise",
    "LogisticNoise",
]

_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)
_SQRT_HALF_PI = math.sqrt(0.5 * math.pi)


def _check_finite(omega) -> np.ndarray:
    arr = np.asarray(omega, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ValueError("noise argument must be finite")
    return arr


def _like(omega, out: np.ndarray):
    return float(out) if np.ndim(omega) == 0 else out


class NoiseModel(abc.ABC):
    """Zero-mean noise law with stable CDF/PDF/tail/hazard evaluation.

    Subclasses provide the scalar kernels; all public methods accept floats
    or arrays and validate finiteness (once per call).  Instances are
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

    @property
    @abc.abstractmethod
    def spread(self) -> float:
        """Standardizing scale (sigma for Gaussian, s for logistic)."""

    # -- distribution surface ----------------------------------------------

    def cdf(self, omega):
        arr = _check_finite(omega)
        return _like(omega, self._cdf(arr / self.spread))

    def sf(self, omega):
        arr = _check_finite(omega)
        return _like(omega, self._cdf(-arr / self.spread))

    def log_cdf(self, omega):
        arr = _check_finite(omega)
        return _like(omega, self._log_cdf(arr / self.spread))

    def log_sf(self, omega):
        arr = _check_finite(omega)
        return _like(omega, self._log_cdf(-arr / self.spread))

    def log_pdf(self, omega):
        arr = _check_finite(omega)
        return _like(omega, self._log_pdf(arr / self.spread) - math.log(self.spread))

    def pdf(self, omega):
        arr = _check_finite(omega)
        return _like(omega, np.exp(self._log_pdf(arr / self.spread)) / self.spread)

    def pdf_derivative(self, omega):
        arr = _check_finite(omega)
        return _like(omega, np.exp(self._log_pdf(arr / self.spread)) / self.spread * self._log_pdf_slope(arr))

    def log_pdf_slope(self, omega):
        """f'(w)/f(w), the derivative of log f."""
        return _like(omega, self._log_pdf_slope(_check_finite(omega)))

    @abc.abstractmethod
    def _log_pdf_slope(self, w: np.ndarray) -> np.ndarray: ...

    def mills_ratio(self, omega):
        """(1 - F(w))/f(w), stable in both tails (may overflow to inf far left)."""
        arr = _check_finite(omega)
        return _like(omega, self.spread * self._mills(arr / self.spread))

    def hazard(self, omega):
        """f(w)/(1 - F(w))."""
        return _like(omega, self._hazard(_check_finite(omega)))

    def _hazard(self, w: np.ndarray) -> np.ndarray:
        # far left the Mills ratio overflows to +inf, and 1/inf = 0 is the hazard
        with np.errstate(over="ignore"):
            return 1.0 / (self.spread * self._mills(w / self.spread))

    def reverse_hazard(self, omega):
        """f(w)/F(w): the hazard at -w."""
        return _like(omega, self._hazard(-_check_finite(omega)))

    # -- log-concavity curvatures -------------------------------------------
    # -d^2 log(1-F)/dw^2 = h^2 + (f'/f) h       with h = f/(1-F)
    # -d^2 log F/dw^2 at w is -d^2 log(1-F)/dw^2 at -w.
    # Both are strictly positive for strictly log-concave F.

    def log_sf_curvature(self, omega):
        w = _check_finite(omega)
        h = self._hazard(w)
        return _like(omega, h * (h + self._log_pdf_slope(w)))

    def log_cdf_curvature(self, omega):
        return self.log_sf_curvature(-np.asarray(omega, dtype=float))

    # -- sampling ------------------------------------------------------------

    @abc.abstractmethod
    def sample(self, rng: np.random.Generator, size=None):
        """Draw noise; deterministic given the generator state."""

    @property
    @abc.abstractmethod
    def variance(self) -> float: ...

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

    Tails go through scipy's erfc-based ``ndtr``/``log_ndtr`` and the scaled
    complementary error function: (1-Phi(z))/phi(z) = sqrt(pi/2)*erfcx(z/sqrt2),
    which never underflows and overflows only below z = -37.65.  There the
    hazard and the sale curvature round to 0; their true values are below
    1e-300 for sigma >= 1e-3.
    """

    sigma: float = 1.0

    def __post_init__(self):
        if not (np.isfinite(self.sigma) and self.sigma > 0):
            raise ValueError("sigma must be a positive real")

    @property
    def spread(self) -> float:
        return self.sigma

    @property
    def variance(self) -> float:
        return self.sigma**2

    @property
    def b_f(self) -> float:
        return 1.0 / (self.sigma * math.sqrt(2.0 * math.pi))

    @property
    def b_fprime(self) -> float:
        return 1.0 / (self.sigma**2 * math.sqrt(2.0 * math.pi * math.e))

    def _cdf(self, z):
        return special.ndtr(z)

    def _log_cdf(self, z):
        return special.log_ndtr(z)

    def _log_pdf(self, z):
        return -0.5 * z * z - _LOG_SQRT_2PI

    def _mills(self, z):
        return _SQRT_HALF_PI * special.erfcx(z / math.sqrt(2.0))

    def _mills_prime(self, z, m):
        return z * m - 1.0

    def _log_pdf_slope(self, w):
        return -w / self.sigma**2

    def sample(self, rng, size=None):
        return rng.normal(0.0, self.sigma, size)


@dataclass(frozen=True)
class LogisticNoise(NoiseModel):
    """Logistic(0, s) valuation noise; every tail quantity has a closed form.

    The hazard is F(w)/s, bounded and increasing; ``expit`` gives it to the
    ulp, where the generic 1/(s (1 + e^-z)) differs by a few.
    """

    scale: float = 1.0

    def __post_init__(self):
        if not (np.isfinite(self.scale) and self.scale > 0):
            raise ValueError("scale must be a positive real")

    @property
    def spread(self) -> float:
        return self.scale

    @property
    def variance(self) -> float:
        return math.pi**2 * self.scale**2 / 3.0

    @property
    def b_f(self) -> float:
        return 1.0 / (4.0 * self.scale)

    @property
    def b_fprime(self) -> float:
        # max of |f'| = max over p of p(1-p)|1-2p|/s^2 at p = 1/2 +- sqrt(3)/6
        return math.sqrt(3.0) / (18.0 * self.scale**2)

    def _cdf(self, z):
        return special.expit(z)

    def _log_cdf(self, z):
        return special.log_expit(z)

    def _log_pdf(self, z):
        a = np.abs(z)
        return -(a + 2.0 * np.log1p(np.exp(-a)))

    def _mills(self, z):
        # (1-F)/f = 1 + exp(-z) on the standardized scale
        return 1.0 + np.exp(-z)

    def _mills_prime(self, z, m):
        return 1.0 - m

    def _log_pdf_slope(self, w):
        return (1.0 - 2.0 * special.expit(w / self.scale)) / self.scale

    def _hazard(self, w):
        return special.expit(w / self.scale) / self.scale

    # The curvature is F(1-F)/s^2 = f/s.  The generic h(h + f'/f) cancels in
    # the right tail: 0 at w/s = 40, where F(1-F) is 4.2e-18.

    def log_sf_curvature(self, omega):
        z = _check_finite(omega) / self.scale
        return _like(omega, special.expit(z) * special.expit(-z) / self.scale**2)

    def sample(self, rng, size=None):
        return rng.logistic(0.0, self.scale, size)
