import pytest

from blimpdyn import load_bundled
from blimpdyn.frames import GF_TO_N


@pytest.fixture(scope="session")
def bundle():
    """Stock (VehicleParams, AeroModel) pair."""
    return load_bundled()


@pytest.fixture(scope="session")
def params(bundle):
    return bundle[0]


@pytest.fixture(scope="session")
def model(bundle):
    return bundle[1]


@pytest.fixture(scope="session")
def sym_bundle(bundle):
    """The y-symmetric idealization used by reflection-symmetry tests."""
    p, m = bundle
    return p.symmetrized(), m.symmetrized()


@pytest.fixture(scope="session")
def gf():
    return GF_TO_N

