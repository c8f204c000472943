import numpy as np
import pytest
from hypothesis import strategies as st

from nodal_lab import functional, geometry, minimize


@pytest.fixture(scope="session")
def interval_grid():
    return geometry.build_grid(geometry.DomainSpec.interval(1.0), 2048)


@pytest.fixture(scope="session")
def disc_grid():
    return geometry.build_grid(geometry.DomainSpec.disc(1.0), (64, 128))


@pytest.fixture(scope="session")
def annulus_grid():
    return geometry.build_grid(geometry.DomainSpec.annulus(0.5, 1.0), (32, 64))


@pytest.fixture(scope="session")
def interval_min_q1(interval_grid):
    """Converged 1D minimizer, q = 1, 8 starts (shared across suites)."""
    spec = functional.ProblemSpec(interval_grid, 1.0)
    return minimize.multistart(spec, minimize.SolveConfig(seed=11, starts=8))


@pytest.fixture(scope="session")
def disc_min_q1(disc_grid):
    spec = functional.ProblemSpec(disc_grid, 1.0)
    return minimize.multistart(spec, minimize.SolveConfig(seed=11, starts=8))


@pytest.fixture(scope="session")
def disc_min_q15(disc_grid):
    spec = functional.ProblemSpec(disc_grid, 1.5)
    return minimize.multistart(spec, minimize.SolveConfig(seed=11, starts=8))


def smooth_random_field(grid, rng):
    """Deterministic smooth random field (stiffness-smoothed white noise)."""
    return grid.h1_solve(grid.weights * rng.standard_normal(grid.n_nodes))


def polar_coords(grid):
    r = np.hypot(grid.coords[:, 0], grid.coords[:, 1])
    th = np.arctan2(grid.coords[:, 1], grid.coords[:, 0])
    return r, th


@st.composite
def small_grids(draw):
    """A grid of any of the four kinds with 8 to 40 nodes per direction."""
    kind = draw(st.sampled_from(("interval", "rectangle", "disc", "annulus")))
    if kind == "interval":
        return geometry.build_grid(geometry.DomainSpec.interval(draw(st.floats(0.5, 3.0))),
                                   draw(st.integers(8, 40)))
    if kind == "rectangle":
        spec = geometry.DomainSpec.rectangle(draw(st.floats(0.5, 3.0)),
                                             draw(st.floats(0.5, 3.0)))
        return geometry.build_grid(spec, (draw(st.integers(8, 20)), draw(st.integers(8, 20))))
    spec = (geometry.DomainSpec.disc(1.0) if kind == "disc"
            else geometry.DomainSpec.annulus(draw(st.floats(0.1, 0.8)), 1.0))
    return geometry.build_grid(spec, (draw(st.integers(8, 16)), 2 * draw(st.integers(4, 20))))


# Property tests draw fields on a coarse interval grid, which keeps their
# reference computations cheap
PROP_GRID = geometry.build_grid(geometry.DomainSpec.interval(1.0), 257)


@st.composite
def property_fields(draw):
    """Standard normal nodal values; the same with a share of the nodes set
    to exactly 0; or a nearly constant field, an offset plus a spread of
    1e-6 to 1e-1 times the same values."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    u = rng.standard_normal(PROP_GRID.n_nodes)
    kind = draw(st.sampled_from(("normal", "zeros", "flat")))
    if kind == "zeros":
        u[rng.random(u.size) < draw(st.floats(0.1, 0.9))] = 0.0
    elif kind == "flat":
        u = draw(st.floats(-10.0, 10.0)) + 10.0 ** draw(st.floats(-6.0, -1.0)) * u
    return u
