"""Sale-likelihood loss: values, derivatives, curvature bounds, batch MLE."""

import math

import numpy as np
import pytest
from scipy.optimize import minimize
from scipy.stats import logistic, norm

import pricelab.loss as loss_module
from pricelab import (
    Ball,
    BatchObjective,
    GaussianNoise,
    LogisticNoise,
    OrthantBall,
    StochasticScenario,
    compute_constants,
    fit_slope,
    solve_mle,
)

NEG_LOG_SF_2 = 3.7831843336820319  # -log(1 - Phi(2)), mpmath


def _synthetic_batch(problem, n, seed):
    """Rounds generated from the true parameter with uniform prices."""
    rng = np.random.default_rng(seed)
    x = StochasticScenario(problem).features(n, rng)
    v = rng.uniform(0.0, problem.price_window, n)
    accepted = v <= x @ problem.theta_star + problem.model.sample(rng, n)
    return BatchObjective(x, v, accepted, problem.model)


def _random_round(problem, rng):
    """A batch of one round: feature in the unit box, uniform price, fair-coin sale."""
    x = rng.uniform(0, 1, 2)
    return BatchObjective(x, rng.uniform(0, problem.price_window), rng.random() < 0.5, problem.model)


def _two_branch_reference(batch, theta):
    """Value and gradient with both kernels evaluated on every row, then selected per outcome."""
    w = batch.margins(theta)
    model = batch.model
    value = float(np.mean(np.where(batch.accepted, -model.log_sf(w), -model.log_cdf(w))))
    slopes = np.where(batch.accepted, -np.asarray(model.hazard(w)), np.asarray(model.reverse_hazard(w)))
    return value, (slopes @ batch.features) / len(batch)


class TestPointLoss:
    def test_margin_zero_gives_log_two(self, gauss1):
        x = np.array([1.0, 0.0])
        sale = BatchObjective(x, 0.5, True, gauss1)
        miss = BatchObjective(x, 0.5, False, gauss1)
        theta = np.array([0.5, 0.3])
        assert sale.value(theta) == pytest.approx(math.log(2.0), abs=1e-14)
        assert miss.value(theta) == pytest.approx(math.log(2.0), abs=1e-14)

    def test_two_sigma_sale(self, gauss025):
        # price 1.0, valuation estimate 0.5: margin is two standard units
        row = BatchObjective(np.array([1.0, 0.0]), 1.0, True, gauss025)
        assert row.value(np.array([0.5, 0.0])) == pytest.approx(NEG_LOG_SF_2, rel=1e-12)

    def test_finite_across_region(self, problem, rng):
        for _ in range(50):
            theta = problem.region.project(rng.uniform(0, 1, 2))
            row = _random_round(problem, rng)
            assert np.isfinite(row.value(theta))

    def test_validation(self, gauss1):
        cases = [
            ([[1.0, np.nan]], [0.5]),
            ([[1.0, np.inf]], [0.5]),
            ([[1.0, 0.0]], [np.nan]),
            ([[1.0, 0.0]], [-0.5]),
            ([[1.0, 0.0], [0.0, 1.0]], [0.5, -1e-300]),
        ]
        for features, prices in cases:
            with pytest.raises(ValueError):
                BatchObjective(features, prices, [True] * len(prices), gauss1)


class TestGradient:
    def test_zero_feature_zero_gradient(self, gauss1):
        row = BatchObjective(np.zeros(2), 0.7, True, gauss1)
        np.testing.assert_array_equal(row.gradient(np.zeros(2)), np.zeros(2))

    def test_margin_zero_scalar_is_hazard(self, gauss1):
        x = np.array([0.6, 0.8])
        row = BatchObjective(x, 0.5, True, gauss1)
        theta = np.array([0.3, 0.4])  # x @ theta = 0.5, margin 0
        want = -2.0 / math.sqrt(2 * math.pi)
        np.testing.assert_allclose(row.gradient(theta), want * x, rtol=1e-13)

class TestHessian:
    def test_zero_feature_zero_matrix(self, gauss1):
        row = BatchObjective(np.zeros(2), 0.7, False, gauss1)
        np.testing.assert_array_equal(row.hessian(np.zeros(2)), np.zeros((2, 2)))

    def test_convexity_inequality(self, problem, rng):
        for _ in range(100):
            row = _random_round(problem, rng)
            t1 = problem.region.project(rng.uniform(0, 1, 2))
            t2 = problem.region.project(rng.uniform(0, 1, 2))
            lam = rng.random()
            mix = row.value(lam * t1 + (1 - lam) * t2)
            assert mix <= lam * row.value(t1) + (1 - lam) * row.value(t2) + 1e-10

    def test_gradient_finite_differences(self, problem, rng):
        h = 1e-6
        batch = _synthetic_batch(problem, 64, seed=9)
        for _ in range(20):
            theta = problem.region.project(rng.uniform(0, 1, 2))
            hess = batch.hessian(theta)
            for i in range(2):
                e = np.zeros(2)
                e[i] = h
                fd = (batch.gradient(theta + e) - batch.gradient(theta - e)) / (2 * h)
                np.testing.assert_allclose(fd, hess[:, i], rtol=1e-6, atol=1e-7)


class TestOneImplementation:
    """The batch evaluates each kernel only on the rows with its outcome;
    that gives exactly the two-branch form that evaluates both on every row."""

    @pytest.mark.parametrize("model", [GaussianNoise(0.25), LogisticNoise(0.3)], ids=["gaussian", "logistic"])
    @pytest.mark.parametrize("outcomes", ["mixed", "all-sale", "all-miss"])
    def test_matches_two_branch_reference(self, problem, model, outcomes):
        rng = np.random.default_rng(17)
        for n in (1, 4, 64, 8192):
            x = StochasticScenario(problem).features(n, rng)
            v = rng.uniform(0.0, problem.price_window, n)
            accepted = {
                "mixed": v <= x @ problem.theta_star + model.sample(rng, n),
                "all-sale": np.ones(n, dtype=bool),
                "all-miss": np.zeros(n, dtype=bool),
            }[outcomes]
            batch = BatchObjective(x, v, accepted, model)
            theta = problem.region.project(rng.uniform(0, 1, 2))
            value, gradient = _two_branch_reference(batch, theta)
            assert batch.value(theta) == value
            np.testing.assert_array_equal(batch.gradient(theta), gradient)

    def test_batch_is_mean_of_batches_of_one(self, problem, rng):
        rows = [_random_round(problem, rng) for _ in range(16)]
        batch = BatchObjective(
            np.concatenate([r.features for r in rows]),
            np.concatenate([r.prices for r in rows]),
            np.concatenate([r.accepted for r in rows]),
            problem.model,
        )
        theta = np.array([0.3, 0.2])
        assert batch.value(theta) == pytest.approx(np.mean([r.value(theta) for r in rows]), rel=1e-12)
        want_grad = np.mean([r.gradient(theta) for r in rows], axis=0)
        np.testing.assert_allclose(batch.gradient(theta), want_grad, rtol=1e-12)
        want_hess = np.mean([r.hessian(theta) for r in rows], axis=0)
        np.testing.assert_allclose(batch.hessian(theta), want_hess, rtol=1e-12)


def _masked(w, accepted, on_sale, on_miss):
    """Each kernel on the rows of its outcome, through a mask, scattered back."""
    out = np.empty_like(w)
    if accepted.any():
        out[accepted] = on_sale(w[accepted])
    if (~accepted).any():
        out[~accepted] = on_miss(w[~accepted])
    return out


class TestOneOutcomeBatches:
    """The mirrored batch against each outcome's public kernel run on that
    outcome's rows through a mask: every row must come out bit-equal, with
    both outcomes in the batch or only one."""

    @pytest.mark.parametrize("model", [GaussianNoise(0.25), LogisticNoise(0.3)], ids=["gaussian", "logistic"])
    @pytest.mark.parametrize("outcomes", ["mixed", "all-sale", "all-miss"])
    @pytest.mark.parametrize("rows", [1, 257])
    def test_row_kernels_match_the_masked_path(self, model, outcomes, rows):
        rng = np.random.default_rng(29)
        # the working window, the right tail, the far left and a signed zero
        for edge in (0.3, 12.0, -12.0, -0.0):
            w = rng.uniform(-2.0, 2.0, rows)
            w[0] = edge
            accepted = {
                "mixed": rng.random(rows) < 0.5,
                "all-sale": np.ones(rows, dtype=bool),
                "all-miss": np.zeros(rows, dtype=bool),
            }[outcomes]
            neg_hazard = lambda s: -model.hazard(s)
            masked = {
                loss_module.row_losses: -_masked(w, accepted, model.log_sf, model.log_cdf),
                loss_module.row_slopes: _masked(w, accepted, neg_hazard, model.reverse_hazard),
                loss_module.row_curvatures: _masked(w, accepted, model.log_sf_curvature, model.log_cdf_curvature),
            }
            for kernel, want in masked.items():
                got = kernel(model, w, accepted)
                assert got.shape == w.shape
                assert got.tobytes() == want.tobytes(), (kernel.__name__, edge)


class TestScalarRound:
    """The round of an online update, a 0-d margin with one bool outcome,
    is mirrored as a scalar; it must come out bit-equal to the one-element
    batch."""

    @pytest.mark.parametrize(
        "model", [GaussianNoise(0.25), GaussianNoise(0.02), LogisticNoise(0.1)], ids=["g0.25", "g0.02", "logistic"]
    )
    def test_row_slopes_match_the_one_element_path(self, model):
        rng = np.random.default_rng(31)
        # standardized margins over the working window, far into the right
        # tail and into the far left, where erfcx overflows
        z = np.concatenate([rng.uniform(-4.0, 4.0, 1500), rng.uniform(-80.0, 80.0, 1500), [45.0, 46.0, -40.0, -0.0]])
        for w in z * model.spread:
            for accepted in (True, False):
                scalar = loss_module.row_slopes(model, np.float64(w), np.bool_(accepted))
                row = loss_module.row_slopes(model, np.array([w]), np.array([accepted]))
                assert np.ndim(scalar) == 0
                assert np.float64(scalar).tobytes() == row.tobytes(), (w, accepted)


class TestSolveMle:
    def test_zero_feature_returns_init(self, problem):
        batch = BatchObjective(np.zeros((1, 2)), [0.5], [True], problem.model)
        init = np.array([0.25, 0.25])
        result = solve_mle(batch, problem.region, init, problem.valuation_bound)
        assert result.converged
        np.testing.assert_array_equal(result.theta, init)

    def test_result_is_feasible_and_stationary(self, problem):
        batch = _synthetic_batch(problem, 512, seed=2)
        result = solve_mle(batch, problem.region, problem.region.interior_point(), problem.valuation_bound)
        assert result.converged
        assert problem.region.contains(result.theta, tol=1e-9)
        base = 1.0 / (compute_constants(problem.model, problem.valuation_bound).c_exp)
        image = problem.region.project(result.theta - base * batch.gradient(result.theta))
        assert np.linalg.norm(result.theta - image) / base <= 1e-9

    def test_consistency_4096(self, problem):
        batch = _synthetic_batch(problem, 4096, seed=3)
        result = solve_mle(batch, problem.region, problem.region.interior_point(), problem.valuation_bound)
        assert np.linalg.norm(result.theta - problem.theta_star) <= 0.1

    def test_error_shrinks_with_sample_size(self, problem):
        # acceptance criterion 5's statistic on 128 fits: one log-log slope over
        # every (n, error) pair.  With 64 fits per size the slope's standard
        # error is about 0.09; resampled from 400 fits per size, a correct
        # solver fails about 1% of the time, and errors that shrink like n^0
        # fail about 99.8% and like n^(-1/4) about 64%
        sizes, errors = np.repeat([1024, 4096], 64), []
        for n, s in zip(sizes, np.tile(np.arange(64), 2)):
            batch = _synthetic_batch(problem, int(n), seed=100 + int(s))
            fit = solve_mle(batch, problem.region, problem.region.interior_point(), problem.valuation_bound)
            assert fit.converged
            errors.append(np.linalg.norm(fit.theta - problem.theta_star))
        rate = fit_slope((sizes, np.array(errors)), (1024, 4096))
        assert rate.slope <= -math.log(1.3, 4)  # the old median ratio 1.3 per 4x data, as a slope
        assert abs(rate.slope + 0.5) <= 3.0 * rate.stderr, rate

    def test_rank_deficient_batch_keeps_null_component(self, problem, rng):
        # all features along e1: the e2 coordinate is undetermined and must
        # follow the warm start, not drift
        n = 256
        x = np.zeros((n, 2))
        x[:, 0] = 1.0
        v = rng.uniform(0, problem.price_window, n)
        accepted = v <= 0.5 + problem.model.sample(rng, n)
        batch = BatchObjective(x, v, accepted, problem.model)
        init = np.array([0.1, 0.3])
        result = solve_mle(batch, problem.region, init, problem.valuation_bound)
        assert result.theta[1] == pytest.approx(0.3, abs=1e-6)
        assert abs(result.theta[0] - 0.5) < 0.2
        assert problem.region.contains(result.theta)

    def test_matches_independent_probit_fit(self, problem):
        # independently coded objective: probit regression of the sale
        # indicator on x/sigma with offset -v/sigma, solved by BFGS
        batch = _synthetic_batch(problem, 2048, seed=5)
        ours = solve_mle(batch, problem.region, problem.region.interior_point(), problem.valuation_bound)
        sigma = problem.model.sigma
        y = batch.accepted.astype(float)

        def probit_nll(beta):
            z = (batch.features @ beta * sigma - batch.prices) / sigma  # beta = theta/sigma
            logp = norm.logcdf(z)
            logq = norm.logcdf(-z)
            return -np.mean(y * logp + (1 - y) * logq)

        free = minimize(probit_nll, ours.theta / sigma * 0 + 0.1, method="BFGS", options={"gtol": 1e-10})
        # interior optimum: the constrained and free fits must coincide
        assert problem.region.contains(free.x * sigma, tol=1e-6)
        assert ours.objective == pytest.approx(probit_nll(ours.theta / sigma), abs=1e-12)
        assert ours.objective == pytest.approx(free.fun, abs=1e-6)

    def test_iteration_cap_flags(self, problem, monkeypatch):
        monkeypatch.setattr(loss_module, "MLE_MAX_ITER", 3)
        batch = _synthetic_batch(problem, 512, seed=7)
        result = solve_mle(batch, problem.region, problem.region.interior_point(), problem.valuation_bound)
        assert not result.converged
        assert result.iterations == 3

    def test_batch_requires_points(self, problem):
        with pytest.raises(ValueError):
            BatchObjective(np.zeros((0, 2)), [], [], problem.model)


def _reference_nll(model, region, features, prices, accepted):
    """The sale likelihood coded independently with scipy.stats, its gradient,
    and a constrained fit by SLSQP."""
    if isinstance(model, GaussianNoise):
        dist = norm(scale=model.sigma)
    else:
        dist = logistic(scale=model.scale)

    def nll(theta):
        w = prices - features @ theta
        return -float(np.mean(np.where(accepted, dist.logsf(w), dist.logcdf(w))))

    def grad(theta):
        w = prices - features @ theta
        # d/dtheta of -log sf(w) is -(pdf/sf)(w) x; of -log cdf(w) it is (pdf/cdf)(w) x
        hazard = np.exp(dist.logpdf(w) - dist.logsf(w))
        reverse_hazard = np.exp(dist.logpdf(w) - dist.logcdf(w))
        return np.where(accepted, -hazard, reverse_hazard) @ features / len(prices)

    def fit(start):
        center = region.center
        result = minimize(
            nll,
            start,
            jac=grad,
            method="SLSQP",
            bounds=[(0.0, None)] * region.dim if isinstance(region, OrthantBall) else None,
            constraints=[
                {
                    "type": "ineq",
                    "fun": lambda t: region.radius**2 - (t - center) @ (t - center),
                    "jac": lambda t: -2.0 * (t - center),
                }
            ],
            options={"ftol": 1e-15, "maxiter": 1000},
        )
        return region.project(result.x)

    return nll, fit


def _newton_case(name):
    """(model, region, features, prices, accepted, warm start) of one named case."""
    rng = np.random.default_rng(list(name.encode()))
    model, region, theta_star, n = GaussianNoise(0.25), OrthantBall(1.0, 2), np.array([0.5, 0.5]), 512
    outcomes = "drawn"
    if name.startswith("rows-"):
        n = int(name.split("-")[1])
    elif name in ("all-sale", "all-miss"):
        n, outcomes = 16, name
    elif name == "n-8192":
        n = 8192
    elif name == "logistic":
        model = LogisticNoise(0.2)
    elif name == "ball":
        region = Ball(np.array([0.45, 0.4]), 0.3)
    elif name == "ball-rows-2":
        region, n = Ball(np.array([0.45, 0.4]), 0.3), 2
    elif name == "d3":
        region, theta_star = OrthantBall(1.0, 3), np.array([0.5, 0.3, 0.4])
    elif name == "d3-ball":
        region, theta_star = Ball(np.array([0.4, 0.3, 0.4]), 0.4), np.array([0.5, 0.3, 0.4])
    features = rng.uniform(0.0, 1.0, (n, region.dim))
    features /= np.maximum(np.linalg.norm(features, axis=1), 1.0)[:, None]
    if name == "rank-deficient":
        features[:, 1:] = 0.0
    prices = rng.uniform(0.0, 1.5, n)
    accepted = {
        "drawn": prices <= features @ theta_star + model.sample(rng, n),
        "all-sale": np.ones(n, dtype=bool),
        "all-miss": np.zeros(n, dtype=bool),
    }[outcomes]
    start = region.project(rng.uniform(0.0, 1.0, region.dim))
    return model, region, features, prices, accepted, start


class TestNewtonMle:
    """solve_mle against an independently coded likelihood fitted by SLSQP,
    on small, one-sided, rank-deficient and large batches."""

    @pytest.mark.parametrize(
        "case",
        [
            "rows-1",
            "rows-2",
            "rows-4",
            "all-sale",
            "all-miss",
            "rank-deficient",
            "n-8192",
            "logistic",
            "ball",
            "ball-rows-2",
            "d3",
            "d3-ball",
        ],
    )
    def test_matches_slsqp_fit(self, case):
        model, region, features, prices, accepted, start = _newton_case(case)
        batch = BatchObjective(features, prices, accepted, model)
        # EmlpPolicy's valuation bound for features in the unit ball: the region's radius
        ours = solve_mle(batch, region, start, region.radius)
        assert ours.converged
        assert ours.iterations <= 50, f"{ours.iterations} iterations: a first-order crawl, not Newton"
        assert region.contains(ours.theta, tol=1e-12)
        nll, fit = _reference_nll(model, region, features, prices, accepted)
        assert ours.objective == pytest.approx(nll(ours.theta), abs=1e-12)
        reference = min(nll(fit(start)), nll(fit(region.interior_point())))
        assert ours.objective == pytest.approx(reference, abs=1e-9)
