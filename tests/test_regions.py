"""Feasible sets: Euclidean and matrix-weighted projections."""

import itertools
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize

import pricelab.regions as regions_module
from pricelab import Ball, OrthantBall

finite_coord = st.floats(min_value=-50.0, max_value=50.0, allow_nan=False)
vector2 = st.tuples(finite_coord, finite_coord).map(np.array)


@pytest.fixture
def ball():
    return Ball(1.0, 2)


@pytest.fixture
def orthant():
    return OrthantBall(1.0, 2)


class TestEuclideanProjection:
    def test_identity_inside(self, ball, orthant):
        theta = np.array([0.3, 0.4])
        np.testing.assert_array_equal(ball.project(theta), theta)
        np.testing.assert_array_equal(orthant.project(theta), theta)

    def test_ball_radial_scaling(self, ball):
        np.testing.assert_allclose(ball.project(np.array([3.0, 4.0])), [0.6, 0.8], rtol=1e-15)

    def test_orthant_clip_then_scale(self, orthant):
        np.testing.assert_allclose(orthant.project(np.array([-1.0, 2.0])), [0.0, 1.0], rtol=1e-14)

    @pytest.mark.parametrize(
        "region, theta, want",
        [
            (OrthantBall(1.0, 2), [1e200, 0.0], [1.0, 0.0]),
            (OrthantBall(1.0, 2), [1e200, -1e300], [1.0, 0.0]),
            (OrthantBall(2.0, 2), [1.7e308, 1.7e308], [2.0**0.5, 2.0**0.5]),
            (Ball(1.1, 2), [1e200, 0.0], [1.1, 0.0]),
            (Ball(1.0, 2), [-1.7e308, 1.7e308], [-(0.5**0.5), 0.5**0.5]),
        ],
    )
    def test_overflowing_squares_project_onto_the_sphere(self, region, theta, want):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = region.project(np.array(theta))
        np.testing.assert_allclose(got, want, rtol=1e-15, atol=0.0)

    def test_orthant_against_brute_force(self, orthant, rng):
        # dense enumeration of the feasible set as the distance oracle
        grid_1d = np.linspace(0.0, 1.0, 401)
        gx, gy = np.meshgrid(grid_1d, grid_1d)
        pts = np.stack([gx.ravel(), gy.ravel()], axis=1)
        pts = pts[np.linalg.norm(pts, axis=1) <= 1.0]
        for _ in range(25):
            target = rng.uniform(-2, 2, 2)
            ours = orthant.project(target)
            best = pts[np.argmin(np.linalg.norm(pts - target, axis=1))]
            assert np.linalg.norm(ours - target) <= np.linalg.norm(best - target) + 1e-9
            # grid quantization along the curved boundary allows lateral
            # slack up to ~sqrt(2 r h)
            assert np.linalg.norm(ours - best) <= np.sqrt(2.0 * grid_1d[1]) + 1e-9

    def test_nonexpansive(self, ball, orthant, rng):
        for region in (ball, orthant):
            for _ in range(200):
                a, b = rng.uniform(-3, 3, 2), rng.uniform(-3, 3, 2)
                assert np.linalg.norm(region.project(a) - region.project(b)) <= np.linalg.norm(a - b) + 1e-12

    def test_idempotent(self, ball, orthant, rng):
        for region in (ball, orthant):
            for _ in range(100):
                once = region.project(rng.uniform(-3, 3, 2))
                np.testing.assert_allclose(region.project(once), once, atol=1e-14)

    @given(target=vector2)
    @settings(max_examples=200, deadline=None)
    def test_projection_properties_hold_everywhere(self, target):
        for region in (Ball(1.0, 2), OrthantBall(1.0, 2)):
            projected = region.project(target)
            assert region.contains(projected, tol=1e-10)
            np.testing.assert_allclose(region.project(projected), projected, atol=1e-12)

    @given(a=vector2, b=vector2)
    @settings(max_examples=200, deadline=None)
    def test_projection_nonexpansive_everywhere(self, a, b):
        for region in (Ball(1.0, 2), OrthantBall(1.0, 2)):
            lhs = np.linalg.norm(region.project(a) - region.project(b))
            assert lhs <= np.linalg.norm(a - b) + 1e-10


class TestWeightedProjection:
    def test_interior_point_unchanged(self, ball, orthant):
        # a feasible point comes back without A being read, so an invalid A passes too
        theta = np.array([0.2, 0.1])
        for region in (ball, orthant):
            for a in (np.array([[4.0, 1.0], [1.0, 2.0]]), np.diag([1.0, -0.5]), np.eye(3), np.full((2, 2), np.nan)):
                np.testing.assert_array_equal(region.project_weighted(theta, a), theta)

    def test_identity_weight_reduces_to_euclidean(self, ball, orthant, rng):
        eye = np.eye(2)
        for region in (ball, orthant):
            for _ in range(50):
                target = rng.uniform(-2, 2, 2)
                np.testing.assert_allclose(
                    region.project_weighted(target, eye), region.project(target), atol=1e-10
                )

    def test_axis_aligned_kkt_case(self, ball):
        # weight diag(4, 1) and target (2, 0): the constrained optimum sits
        # on the axis at the boundary
        out = ball.project_weighted(np.array([2.0, 0.0]), np.diag([4.0, 1.0]))
        np.testing.assert_allclose(out, [1.0, 0.0], atol=1e-9)

    def test_a_norm_nonexpansive(self, ball, rng):
        m = rng.standard_normal((2, 2))
        a = m @ m.T + 0.3 * np.eye(2)

        def a_norm(v):
            return float(np.sqrt(v @ (a @ v)))

        for _ in range(100):
            p, q = rng.uniform(-2, 2, 2), rng.uniform(-2, 2, 2)
            pp, qq = ball.project_weighted(p, a), ball.project_weighted(q, a)
            assert a_norm(pp - qq) <= a_norm(p - q) + 1e-8

    def test_faces_come_in_the_order_of_the_product_search(self):
        # a tie between two faces goes to the first, so the order is part of the result
        for dim in range(1, 6):
            masks = list(itertools.product((False, True), repeat=dim))[1:]
            faces = regions_module._faces(dim)
            assert [face.tolist() for face, _ in faces] == [np.flatnonzero(mask).tolist() for mask in masks]
            a = np.arange(dim * dim, dtype=float).reshape(dim, dim)
            for face, block in faces:
                np.testing.assert_array_equal(a[block], a[np.ix_(face, face)])

    def test_an_unconverged_eigensolve_raises(self, ball, orthant, monkeypatch):
        # the gufunc fills a failed solve with NaN, which the secular loop would chase to its cap
        unconverged = SimpleNamespace(
            cholesky_lo=regions_module._umath_linalg.cholesky_lo,
            eigh_lo=lambda a, signature: (np.full(len(a), np.nan), np.full(a.shape, np.nan)),
        )
        monkeypatch.setattr(regions_module, "_umath_linalg", unconverged)
        for region in (ball, orthant):
            with pytest.raises(np.linalg.LinAlgError, match="did not converge"):
                region.project_weighted(np.array([2.0, 0.0]), np.eye(2))

    def test_rejects_bad_weight(self, ball, orthant):
        # (2, 0) lies outside both sets, so the projection is active and reads A
        for region in (ball, orthant):
            for bad in (np.array([[1.0, 0.0], [0.5, 1.0]]), np.diag([1.0, -0.5]), np.eye(3)):
                with pytest.raises(ValueError):
                    region.project_weighted(np.array([2.0, 0.0]), bad)


def _slsqp_projection(region, target, a):
    """Independent reference: SLSQP on the same QP, pulled back into the region.

    SLSQP may end a hair outside an active constraint, which would lower its
    objective below the true minimum; the Euclidean projection removes that.
    """
    constraints = [
        {
            "type": "ineq",
            "fun": lambda z: region.radius**2 - z @ z,
            "jac": lambda z: -2.0 * z,
        }
    ]
    bounds = [(0.0, None)] * region.dim if isinstance(region, OrthantBall) else None
    best = None
    for start in (region.project(target), region.interior_point()):
        fit = minimize(
            lambda z: float((z - target) @ a @ (z - target)),
            start,
            jac=lambda z: 2.0 * a @ (z - target),
            method="SLSQP",
            bounds=bounds,
            constraints=constraints,
            options={"ftol": 1e-16, "maxiter": 1000},
        )
        if best is None or fit.fun < best.fun:
            best = fit
    return region.project(best.x)


class TestExactWeightedProjection:
    """Both regions' weighted projections against an SLSQP solve of the same QP,
    for weights of condition number 1 to 1e8 and targets inside the region,
    just outside it (near or on a face) and far past the ball."""

    @pytest.mark.parametrize("cond", [1.0, 1e2, 1e4, 1e6, 1e8])
    @pytest.mark.parametrize("dim", [2, 3, 5])
    @pytest.mark.parametrize("kind", ["ball", "orthant-ball"])
    def test_matches_slsqp_and_variational_inequality(self, kind, dim, cond):
        rng = np.random.default_rng([dim, int(np.log10(cond))])
        region = Ball(1.0, dim) if kind == "ball" else OrthantBall(1.0, dim)
        for placement in ("inside", "face", "past"):
            for _ in range(4):
                rotation, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
                spectrum = np.logspace(0.0, -np.log10(cond), dim)
                a = (rotation * spectrum) @ rotation.T
                direction = rng.standard_normal(dim)
                direction /= np.linalg.norm(direction)
                if placement == "inside":
                    target = 0.9 * region.project(direction) + 0.1 * region.interior_point()
                elif placement == "face":
                    target = rng.uniform(0.95, 1.1) * direction
                else:
                    target = 3.0 * direction
                ours = region.project_weighted(target, a)
                assert region.contains(ours, tol=1e-12)
                if placement == "inside":
                    np.testing.assert_array_equal(ours, target)
                    continue

                def objective(z):
                    # eigen form: a sum of nonnegative terms, free of cancellation
                    return float(spectrum @ (rotation.T @ (z - target)) ** 2)

                reference = objective(_slsqp_projection(region, target, a))
                assert objective(ours) <= reference * (1.0 + 1e-9), (placement, objective(ours), reference)
                # feasible points spread through the region and over its boundary
                scales = [1.0, 5.0] * 100
                others = np.array([region.project(rng.uniform(-1.5, 1.5, dim) * scale) for scale in scales])
                assert float(np.min((others - ours) @ (a @ (ours - target)))) >= -1e-8


class TestValidation:
    def test_positive_radius(self):
        with pytest.raises(ValueError):
            Ball(0.0, 2)
        with pytest.raises(ValueError):
            OrthantBall(-1.0, 2)

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    @pytest.mark.parametrize("kind", [Ball, OrthantBall])
    def test_finite_radius(self, kind, bad):
        with pytest.raises(ValueError, match="radius"):
            kind(bad, 2)

    @pytest.mark.parametrize("kind", [Ball, OrthantBall])
    def test_positive_dimension(self, kind):
        with pytest.raises(ValueError, match="dimension"):
            kind(1.0, 0)

    @pytest.mark.parametrize("bad", [-np.inf, np.inf, np.nan])
    def test_finite_vectors(self, ball, orthant, bad):
        theta = np.array([bad, 0.5])
        for region in (ball, orthant):
            for call in (region.contains, region.project, lambda t: region.project_weighted(t, np.eye(2))):
                with pytest.raises(ValueError, match="finite"):
                    call(theta)

    @pytest.mark.parametrize("theta", [np.full(3, 0.1), np.full(1, 0.1), np.full((1, 2), 0.1), 0.1, []])
    def test_every_public_method_rejects_a_vector_of_another_length(self, ball, orthant, theta):
        for region in (ball, orthant):
            for call in (region.contains, region.project, lambda t: region.project_weighted(t, np.eye(2))):
                with pytest.raises(ValueError, match="length 2"):
                    call(theta)

    def test_interior_points_are_interior(self, ball, orthant):
        for region in (ball, orthant):
            p = region.interior_point()
            assert region.contains(p)
            assert np.linalg.norm(p) < region.radius


def _reference_contains(region, theta, tol):
    """The containment test as defined: np.linalg.norm, and np.all on the orthant's sign constraint."""
    with np.errstate(over="ignore"):
        if isinstance(region, OrthantBall):
            return bool(np.all(theta >= -tol) and np.linalg.norm(theta) <= region.radius * (1.0 + tol) + tol)
        return bool(np.linalg.norm(theta) <= region.radius * (1.0 + tol) + tol)


coordinate = st.one_of(
    st.floats(min_value=-2.0, max_value=2.0),
    st.sampled_from([0.0, -0.0, 1.0, -1e-12, -2e-12, 1e-300]),
    st.floats(min_value=1e199, max_value=1e201),
    st.floats(min_value=-1e201, max_value=-1e199),
)
regions = st.sampled_from(
    [OrthantBall(1.0, 2), Ball(1.0, 2), Ball(0.5, 3), OrthantBall(2.0, 3)]
)


@st.composite
def region_and_vector(draw):
    """A region and a vector of its length: anywhere, or on its boundary to within a few ulps."""
    region = draw(regions)
    theta = np.array(draw(st.lists(coordinate, min_size=region.dim, max_size=region.dim)))
    if draw(st.booleans()):
        direction = np.array(draw(st.lists(st.floats(0.01, 1.0), min_size=region.dim, max_size=region.dim)))
        stretch = 1.0 + draw(st.sampled_from([-2e-12, -1e-16, 0.0, 1e-16, 5e-13, 1e-12, 2e-12]))
        theta = direction * (region.radius * stretch / np.linalg.norm(direction))
    return region, theta


class TestContainsAgainstDefinition:
    """``contains`` takes one dot product for both the norm and the finiteness
    test; it must decide exactly as the definition with np.linalg.norm does."""

    @given(case=region_and_vector(), tol=st.sampled_from([1e-12, 1e-9, 0.0]))
    @settings(max_examples=400, deadline=None)
    def test_matches_the_definition(self, case, tol):
        region, theta = case
        assert region.contains(theta, tol=tol) is _reference_contains(region, theta, tol)

    @given(case=region_and_vector(), bad=st.sampled_from([np.nan, np.inf, -np.inf]), data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_a_non_finite_entry_raises(self, case, bad, data):
        region, theta = case
        theta = theta.copy()
        theta[data.draw(st.integers(0, region.dim - 1))] = bad
        with pytest.raises(ValueError, match="finite"):
            region.contains(theta)

    def test_overflowing_squares_are_outside_without_a_warning(self):
        theta = np.array([1e200, 0.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert not OrthantBall(1.0, 2).contains(theta)
            assert not Ball(1.0, 2).contains(theta)
