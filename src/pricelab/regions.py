"""Bounded convex parameter sets with Euclidean and matrix-weighted projection.

Two kinds are supported, both centred at the origin, as the paper's bound
||theta*|| <= B1 is: a Euclidean ball, and its intersection with the
nonnegative orthant (which keeps x'theta >= 0 for nonnegative features).
The weighted projection argmin (theta-y)'A(theta-y) over the set is
computed exactly.  On a ball it is a trust-region subproblem, solved by the
secular equation in A's eigenbasis (More & Sorensen 1983, *Computing a
trust region step*); the orthant-ball solves that subproblem on each face
of the orthant and keeps the best feasible candidate.  The Newton-step
policy applies it after each update, and the batch MLE takes it as its
projected-Newton step.

Every public method checks its vector once: ``_as_vector`` raises ValueError
unless it has the region's length, and the norm the method takes anyway
(one dot product) is also its finiteness test, so the entries are inspected
only when that norm is not finite.  The weight matrix A is validated only on
an active projection, the one path that reads it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from numpy.linalg import LinAlgError, _umath_linalg

from .pricing import InvariantViolation

__all__ = ["Ball", "OrthantBall", "Region"]

# Newton steps allowed on the secular equation; it converges monotonically from
# mu = 0, in at most 13 steps over 20,000 random problems with cond(A) up to 1e12
SECULAR_CAP = 100


def _as_vector(theta, dim: int) -> np.ndarray:
    arr = np.asarray(theta, dtype=float)
    if arr.shape != (dim,):
        raise ValueError(f"parameter must be a vector of length {dim}, not of shape {arr.shape}")
    return arr


def _require_finite(theta: np.ndarray) -> None:
    if not np.isfinite(theta).all():
        raise ValueError("parameter must be finite")


def _norm(theta: np.ndarray, v: np.ndarray) -> float:
    """||v|| for a v computed entrywise from theta, and theta's finiteness test.

    The root of np.vdot(v, v), the dot product np.linalg.norm takes of a real
    vector, so bit-equal to it, but without its warning on overflow.  A
    non-finite entry of theta makes v'v inf or NaN, so theta's entries are
    inspected only then; a finite theta whose squares overflow has norm inf.
    """
    sq = float(np.vdot(v, v))
    if not sq < math.inf:
        _require_finite(theta)
    return math.sqrt(sq)


def _onto_sphere(v: np.ndarray, norm: float, radius: float) -> np.ndarray:
    """v scaled to the given radius, for v != 0 of norm ``norm`` (from _norm).

    A finite v whose squares overflow has norm inf, and r/inf would scale it
    to 0; it is first divided by its largest entry, whose norm is finite.
    """
    if norm == math.inf:
        v = v / np.abs(v).max()
        norm = math.sqrt(float(np.vdot(v, v)))
    return v * (radius / norm)


def _check_weight_matrix(a: np.ndarray, dim: int) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    if a.shape != (dim, dim):
        raise ValueError(f"weight matrix must be {dim}x{dim}")
    # np.allclose(a, a.T, atol=1e-10) as one comparison: |a - a'| <= atol + rtol |a'|
    if not (np.abs(a - a.T) <= 1e-10 + 1e-5 * np.abs(a.T)).all():
        raise ValueError("weight matrix must be symmetric")
    a = 0.5 * (a + a.T)
    # np.linalg.cholesky's LAPACK gufunc without its wrapper: it fills the
    # factor of a matrix that is not positive definite with NaN
    with np.errstate(all="ignore"):
        factor = _umath_linalg.cholesky_lo(a, signature="d->d")
    if not all(map(math.isfinite, factor.ravel().tolist())):
        raise ValueError("weight matrix must be positive definite")
    return a


def _trust_region(a: np.ndarray, b: np.ndarray, radius: float) -> np.ndarray:
    """argmin z'Az - 2b'z over ||z|| <= radius, for positive definite A.

    With A = V diag(lam) V' and beta = V'b, the minimizer is
    z(mu) = V (beta / (lam + mu)): mu = 0 when z(0) lies in the ball, and
    otherwise the root of the secular equation ||z(mu)|| = radius.  Newton's
    method on 1/radius - 1/||z(mu)||, which is convex and decreasing in mu,
    climbs to that root from mu = 0 without passing it.
    """
    lam, vecs = _umath_linalg.eigh_lo(a, signature="d->dd")  # np.linalg.eigh's gufunc: NaN if it fails
    if not all(map(math.isfinite, lam.tolist())):
        raise LinAlgError("Eigenvalues did not converge")
    beta = vecs.T @ b
    mu = 0.0
    for _ in range(SECULAR_CAP):
        scaled = beta / (lam + mu)
        norm = math.sqrt(float(scaled @ scaled))
        if norm <= radius:
            break
        step = (norm / radius - 1.0) * norm * norm / float(scaled @ (scaled / (lam + mu)))
        if step <= 1e-15 * mu:
            break
        mu += step
    else:
        raise InvariantViolation(f"secular equation unsolved after {SECULAR_CAP} Newton steps")
    z = vecs @ scaled
    norm = math.sqrt(float(np.vdot(z, z)))
    # land exactly inside
    return z * (radius / norm) if norm > radius else z


@functools.cache
def _faces(dim: int) -> tuple:
    """(index, block) for each nonempty face of the orthant in R^dim.

    index lists the face's free coordinates and block = np.ix_(index, index)
    cuts its rows and columns from A; the faces come in the order of
    itertools.product((False, True), repeat=dim), the first coordinate slowest.
    """
    faces = []
    for mask in range(1, 2**dim):
        index = np.array([i for i in range(dim) if mask >> (dim - 1 - i) & 1])
        faces.append((index, np.ix_(index, index)))
    return tuple(faces)


def _check_size(radius: float, dim: int) -> None:
    if not (np.isfinite(radius) and radius > 0):
        raise ValueError("radius must be positive")
    if dim < 1:
        raise ValueError("dimension must be >= 1")


@dataclass(frozen=True)
class Ball:
    """{theta : ||theta|| <= radius}: the paper's bound ||theta*|| <= B1."""

    radius: float
    dim: int = 2

    def __post_init__(self):
        _check_size(self.radius, self.dim)

    def interior_point(self) -> np.ndarray:
        return np.zeros(self.dim)

    def contains(self, theta, tol: float = 1e-12) -> bool:
        theta = _as_vector(theta, self.dim)
        return _norm(theta, theta) <= self.radius * (1.0 + tol) + tol

    def project(self, theta) -> np.ndarray:
        theta = _as_vector(theta, self.dim)
        norm = _norm(theta, theta)
        if norm <= self.radius:
            return theta.copy()
        return _onto_sphere(theta, norm, self.radius)

    def project_weighted(self, theta, a) -> np.ndarray:
        """Exact A-norm projection: the trust-region step.

        A feasible theta comes back as it is (the same array, when it is a
        float array) and A is not inspected.
        """
        if self.contains(theta):
            return np.asarray(theta, dtype=float)
        a = _check_weight_matrix(a, self.dim)
        return _trust_region(a, a @ np.asarray(theta, dtype=float), self.radius)


@dataclass(frozen=True)
class OrthantBall:
    """{theta : theta >= 0, ||theta|| <= radius}."""

    radius: float
    dim: int = 2

    def __post_init__(self):
        _check_size(self.radius, self.dim)

    def interior_point(self) -> np.ndarray:
        return np.full(self.dim, self.radius / (2.0 * math.sqrt(self.dim)))

    def contains(self, theta, tol: float = 1e-12) -> bool:
        theta = _as_vector(theta, self.dim)
        return _norm(theta, theta) <= self.radius * (1.0 + tol) + tol and min(theta.tolist()) >= -tol

    def project(self, theta) -> np.ndarray:
        # Clip to the orthant, then scale radially: exact for cone-ball
        # intersections because clipping is the projection onto the cone and
        # commutes with the radial scaling.
        theta = _as_vector(theta, self.dim)
        _require_finite(theta)  # clipping would turn an entry of -inf into 0
        clipped = np.maximum(theta, 0.0)
        norm = _norm(theta, clipped)
        if norm <= self.radius:
            return clipped
        return _onto_sphere(clipped, norm, self.radius)

    def project_weighted(self, theta, a) -> np.ndarray:
        """Exact A-norm projection by a search over the faces of the orthant.

        Let S be the support of the minimizer z*.  On the face
        {z_i = 0 for i not in S}, z* also minimizes the objective over that
        face's ball alone: the dropped constraints z_S >= 0 are inactive and
        the problem is convex.  So each of the 2^d faces gets its exact
        trust-region solution, candidates with a negative coordinate are
        discarded, and the feasible candidate of least objective is z*.
        A feasible theta comes back as it is (the same array, when it is a
        float array) and A is not inspected.
        """
        if self.contains(theta):
            return np.asarray(theta, dtype=float)
        a = _check_weight_matrix(a, self.dim)
        b = a @ np.asarray(theta, dtype=float)
        # objective z'Az - 2b'z, which is 0 on the empty face (the origin)
        best, best_value = np.zeros(self.dim), 0.0
        for face, block in _faces(self.dim):
            a_face = a[block]
            z = _trust_region(a_face, b[face], self.radius)
            if min(z.tolist()) < 0.0:
                continue
            value = float(z @ (a_face @ z)) - 2.0 * float(b[face] @ z)
            if value < best_value:
                best = np.zeros(self.dim)
                best[face] = z
                best_value = value
        return best


Region = Ball | OrthantBall
