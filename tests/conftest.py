import numpy as np
import pytest
from hypothesis import settings

from fluxlattice import CouplingParams, make_potential

# reproducible property tests without per-example time limits; each test sets
# its own max_examples
settings.register_profile("tier1", deadline=None, derandomize=True)
settings.load_profile("tier1")

L = np.pi


@pytest.fixture(scope="session")
def free_pot():
    return make_potential({"l": L, "potential": {"kind": "zero"}})


@pytest.fixture(scope="session")
def const5_pot():
    return make_potential({"l": L, "potential": {"kind": "constant", "c": 5.0}})


@pytest.fixture(scope="session")
def step_pot():
    return make_potential({"l": L, "potential": {
        "kind": "piecewise_constant",
        "breakpoints": [0.0, L / 2, L],
        "values": [0.0, 10.0]}})


@pytest.fixture(scope="session")
def mathieu_pot():
    grid = np.linspace(0.0, L, 4097)
    return make_potential({"l": L, "potential": {
        "kind": "sampled", "grid": list(grid),
        "values": list(10.0 * np.cos(2.0 * grid))}})


@pytest.fixture(scope="session")
def deep_well_pot():
    # V = -5e4 on [0, 1], 0 on [1, pi]: the low mu_k lie in the well,
    # thousands of free spacings below sup V
    return make_potential({"l": L, "potential": {
        "kind": "piecewise_constant", "breakpoints": [0.0, 1.0, L], "values": [-5e4, 0.0]}})


@pytest.fixture(scope="session")
def linear_pot():
    # V(t) = t, represented exactly by two-node linear interpolation
    return make_potential({"l": L, "potential": {
        "kind": "sampled", "grid": [0.0, L], "values": [0.0, L]}})


@pytest.fixture(scope="session")
def linear65_pot():
    # V(t) = t again, sampled at 65 nodes: 64 sample cells of 32 cells each
    grid = np.linspace(0.0, L, 65)
    return make_potential({"l": L, "potential": {
        "kind": "sampled", "grid": list(grid), "values": list(grid)}})


@pytest.fixture(scope="session")
def free_coupling(free_pot):
    return CouplingParams(alpha=0.0, beta=1.0, potential=free_pot)
