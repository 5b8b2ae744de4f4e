import numpy as np
import pytest

from homspace import KernelSpec, Pipeline, generate_space, validate_ati
from homspace.lab import EnsembleSpec, generate_ensemble
from homspace.space import default_radius_grid, geometry_report


@pytest.fixture(scope="session")
def grid65():
    return generate_space("grid1d", size=65)


@pytest.fixture(scope="session")
def grid257():
    return generate_space("grid1d", size=257)


@pytest.fixture(scope="session")
def pipe65(grid65):
    return Pipeline(grid65)


@pytest.fixture(scope="session")
def pipe65_inhom(grid65):
    return Pipeline(grid65, kernel=KernelSpec(flavor="inhomogeneous"))


@pytest.fixture(scope="session")
def pipe257(grid257):
    return Pipeline(grid257)


@pytest.fixture(scope="session")
def geom65(grid65):
    return geometry_report(grid65, default_radius_grid(grid65))


@pytest.fixture(scope="session")
def validated65(pipe65):
    return validate_ati(pipe65.stack)


@pytest.fixture(scope="session")
def ensemble65(grid65, pipe65):
    spec = EnsembleSpec(counts={"bandlimited": 4, "holder": 3,
                                "smoothed_indicator": 3, "gaussian_field": 4},
                        mean_zero=True, seed=7)
    return generate_ensemble(pipe65.stack, spec)


@pytest.fixture()
def rng():
    return np.random.default_rng(12345)
