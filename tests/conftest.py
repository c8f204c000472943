import functools
import importlib.util
import math
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import strategies as st

from nodal_lab import functional, geometry, minimize

BENCH = Path(__file__).resolve().parents[1] / "bench"


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


def reference_edges(grid):
    """The edge list (i, j, tau) of the Dirichlet form, built from the
    node-index array: along every axis each node is joined to its successor
    (np.roll), with the last slice dropped unless the axis is periodic, and
    tau = face/length broadcast over the edges."""
    idx = np.arange(grid.n_nodes).reshape(grid.shape)
    parts = []
    for a, (periodic, face, length) in enumerate(grid.axes):
        i, j = idx, np.roll(idx, -1, axis=a)
        if not periodic:
            i, j = np.delete(i, -1, axis=a), np.delete(j, -1, axis=a)
        parts.append((i.ravel(), j.ravel(), np.broadcast_to(face / length, i.shape).ravel()))
    return tuple(np.concatenate(p) for p in zip(*parts))


def reflect(grid, u, hid):
    """A field composed with the reflection across hyperplane hid, an exact
    node permutation.  Interval: hid 0 is x -> -x.  Rectangle: hid 0 flips
    x1, hid 1 flips x2; both flip axis hid of the node array.  Polar grids:
    hid k reflects across the line at angle k pi/n_theta, so angle column j
    of the result is column (k - j) mod n_theta of u."""
    u = np.asarray(u, dtype=float).reshape(grid.shape)
    n_hyper = grid.shape[1] if grid.is_polar else len(grid.shape)
    if not 0 <= hid < n_hyper:
        raise ValueError(f"unsupported-hyperplane: id {hid} on {grid.kind}")
    if grid.is_polar:
        return u[:, (hid - np.arange(n_hyper)) % n_hyper].ravel()
    return np.flip(u, axis=hid).ravel()


def interval_energy(q, half_length=1.0):
    """The least energy on (-L, L), L = half_length, at exponent q: that of
    the odd, monotone solution with one zero, the generalized sine of
    Drabek-Manasevich (Differential Integral Equations 12, 1999).  With
    a = u(L), the first integral u'^2/2 + |u|^q/q = a^q/q gives the quarter
    period L = (sqrt(q/2)/q) a^(1-q/2) B(1/q, 1/2) and the power integral
    int |u|^q = (2/q) sqrt(q/2) a^(1+q/2) B(1 + 1/q, 1/2), and the energy is
    -(2-q)/(2q) int |u|^q; B is Euler's Beta function.  At q = 1 and L = 1,
    a = 1/2 and the energy is -1/3."""
    def beta(x, y):
        return math.exp(math.lgamma(x) + math.lgamma(y) - math.lgamma(x + y))

    s = math.sqrt(q / 2.0)
    a = (half_length * q / (s * beta(1.0 / q, 0.5))) ** (2.0 / (2.0 - q))
    power = (2.0 / q) * s * a ** (1.0 + q / 2.0) * beta(1.0 + 1.0 / q, 0.5)
    return -(2.0 - q) / (2.0 * q) * power


def second_eigenpair(grid):
    """(mu, v): the second eigenvalue mu_2h of L_h = K/w and a w-normalized
    eigenvector, by inverse iteration with (K + W)^{-1} W
    (Grid.h1_solve), deflated of the constants, K's kernel, in the weighted
    inner product.  It starts from x1, which is not orthogonal to the
    second eigenspace on any of the four kinds, and stops once
    ||L_h v - mu v||_w <= 1e-10 mu, mu the Rayleigh quotient of v."""
    w = grid.weights
    v = grid.x1.copy()
    for _ in range(200):
        v -= np.dot(w, v) / w.sum()
        v /= math.sqrt(np.dot(w, v * v))
        lv = geometry.laplacian(grid, v)
        mu = float(np.dot(w, v * lv))
        r = lv - mu * v
        if math.sqrt(np.dot(w, r * r)) <= 1e-10 * mu:
            return mu, v
        v = grid.h1_solve(w * v)
    raise AssertionError(f"second_eigenpair: no convergence on {grid!r}")


def polarize(grid, u, hid, toward=None):
    """The two-point rearrangement across hyperplane hid: max(u, u o sigma)
    on the halfspace that toward points into (default: the positive side of
    the normal), min on the other, and u on the hyperplane.  The normal is
    e_hid on interval and rectangle grids, (-sin a, cos a) with
    a = hid pi/n_theta on polar grids; a node's side is the sign of its
    coordinates' dot product with it."""
    ur = reflect(grid, u, hid)
    if grid.is_polar:
        alpha = hid * math.pi / grid.shape[1]
        normal = np.array([-math.sin(alpha), math.cos(alpha)])
    else:
        normal = np.eye(grid.coords.shape[1])[hid]
    s = grid.coords @ normal
    if toward is not None and float(np.dot(toward, normal)) < 0:
        s = -s
    return np.where(s > 0, np.maximum(u, ur), np.where(s < 0, np.minimum(u, ur), u))


def reference_monotonicity(grid, u, axis):
    """Angular monotonicity violation computed ring by ring: each value
    against the running minimum over the columns strictly nearer the axis,
    in the columns' order by distance (distances within 1e-12 are tied)."""
    profiles = u.reshape(grid.resolution["nr"], grid.resolution["ntheta"])
    thetas = grid.axis_nodes[1]
    d = np.abs((thetas - axis + math.pi) % (2.0 * math.pi) - math.pi)
    order = np.argsort(d, kind="stable")
    ds = d[order]
    worst = 0.0
    for row in profiles:
        vals = row[order]
        run_min = np.minimum.accumulate(vals)
        base = np.searchsorted(ds, ds - 1e-12, side="left") - 1
        ok = base >= 0
        if ok.any():
            worst = max(worst, float(np.max(vals[ok] - run_min[base[ok]])))
    return worst


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


@functools.cache
def load_bench(name):
    """The module bench/<name>.py, loaded by path: bench/ is no package, and
    the benchmark harness runs its files as scripts."""
    spec = importlib.util.spec_from_file_location(f"nodal_lab_bench_{name}",
                                                  BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module
