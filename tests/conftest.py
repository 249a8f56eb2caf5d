import numpy as np
import pytest

try:
    from hypothesis import settings
except ImportError:  # the property tests skip themselves
    pass
else:
    # Property tests draw the same examples on every run, and a slow spell
    # of a shared host does not fail them.
    settings.register_profile("repeatable", derandomize=True, deadline=None)
    settings.load_profile("repeatable")

from smmsolve import data as sdata
from smmsolve.problem import Dataset


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20240811)


@pytest.fixture(scope="session")
def tiny_dataset():
    """6 samples of 3x3 matrices, fixed seed, both classes."""
    rng = np.random.default_rng(42)
    X = rng.standard_normal((6, 3, 3))
    y = np.array([1.0, -1.0, 1.0, -1.0, 1.0, -1.0])
    return Dataset(X, y)


@pytest.fixture(scope="session")
def small_synth():
    """Moderate synthetic instance shared by the solver tests."""
    train, test, W = sdata.gen_synthetic(
        sdata.SynthSpec(n=500, p=8, q=10, r=3, seed=7)
    )
    return train, test, W


def random_dataset(rng, n, p, q):
    X = rng.standard_normal((n, p, q))
    y = np.where(rng.standard_normal(n) >= 0, 1.0, -1.0)
    y[0], y[1] = 1.0, -1.0  # both classes guaranteed
    return Dataset(X, y)
