import os
from pathlib import Path

import numpy as np
import pytest

import pricelab
from pricelab import GaussianNoise, LogisticNoise, OrthantBall, PricingProblem


@pytest.fixture
def gauss1():
    return GaussianNoise(1.0)


@pytest.fixture
def gauss025():
    return GaussianNoise(0.25)


@pytest.fixture
def logistic1():
    return LogisticNoise(1.0)


@pytest.fixture
def problem(gauss025):
    """The reference market: d=2, B1=B2=1, sigma=0.25, theta*=(0.5, 0.5)."""
    return PricingProblem(
        model=gauss025,
        region=OrthantBall(radius=1.0, dim=2),
        theta_star=np.array([0.5, 0.5]),
        feature_bound=1.0,
    )


@pytest.fixture
def rng():
    return np.random.default_rng(20240501)


@pytest.fixture
def source_env():
    """Environment for a subprocess that must import this checkout's pricelab."""
    src = str(Path(pricelab.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
