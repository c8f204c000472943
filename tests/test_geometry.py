import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nodal_lab import diagnostics as dg
from nodal_lab import geometry as geo

from conftest import polar_coords, reference_edges, small_grids


def test_domain_measures():
    assert geo.DomainSpec.interval(1.0).measure == 2.0
    assert geo.DomainSpec.rectangle(1.0, 2.0).measure == 2.0
    assert geo.DomainSpec.disc(1.0).measure == pytest.approx(math.pi)
    assert geo.DomainSpec.annulus(0.5, 1.0).measure == pytest.approx(0.75 * math.pi)


def test_invalid_specs_rejected():
    with pytest.raises(ValueError):
        geo.DomainSpec.interval(-1.0)
    with pytest.raises(ValueError):
        geo.DomainSpec.rectangle(0.0, 1.0)
    with pytest.raises(ValueError):
        geo.DomainSpec.annulus(1.0, 0.5)
    for bad in (math.nan, math.inf):
        for make in (geo.DomainSpec.interval, geo.DomainSpec.disc,
                     lambda x: geo.DomainSpec.rectangle(x, 1.0),
                     lambda x: geo.DomainSpec.rectangle(1.0, x),
                     lambda x: geo.DomainSpec.annulus(x, 1.0),
                     lambda x: geo.DomainSpec.annulus(0.5, x)):
            with pytest.raises(ValueError, match="finite"):
                make(bad)
    with pytest.raises(ValueError):
        geo.build_grid(geo.DomainSpec.interval(1.0), 4)
    with pytest.raises(ValueError):
        geo.build_grid(geo.DomainSpec.disc(1.0), (64, 127))  # odd angles


def test_interval_grid_layout():
    g = geo.build_grid(geo.DomainSpec.interval(1.0), 8)
    assert g.n_nodes == 8
    assert np.allclose(g.coords[:, 0] + g.coords[::-1, 0], 0.0)
    assert np.sum(g.weights) == pytest.approx(2.0, rel=1e-14)
    # interior weights uniform, ends half
    assert np.allclose(g.weights[1:-1], g.weights[1])
    assert g.weights[0] == pytest.approx(g.weights[1] / 2)


def test_weight_sums_match_measure(disc_grid, annulus_grid):
    ones = np.ones(disc_grid.n_nodes)
    assert geo.integrate(disc_grid, ones) == pytest.approx(math.pi, rel=1e-12)
    ones = np.ones(annulus_grid.n_nodes)
    assert geo.integrate(annulus_grid, ones) == pytest.approx(0.75 * math.pi, rel=1e-12)


def test_integrate_odd_field_vanishes(disc_grid):
    assert abs(geo.integrate(disc_grid, disc_grid.x1)) <= 1e-12


def test_integrate_x1_squared(disc_grid):
    val = geo.integrate(disc_grid, disc_grid.x1 ** 2)
    assert val == pytest.approx(math.pi / 4, abs=2e-4)


def test_dirichlet_energy_constant_in_kernel(disc_grid):
    assert geo.dirichlet_energy(disc_grid, 3.0 * np.ones(disc_grid.n_nodes)) <= 1e-14


def test_dirichlet_energy_linear_interval():
    g = geo.build_grid(geo.DomainSpec.interval(1.0), 512)
    assert geo.dirichlet_energy(g, g.coords[:, 0]) == pytest.approx(2.0, abs=1e-10)


def test_dirichlet_energy_linear_disc_second_order():
    errs = []
    for res in [(16, 32), (32, 64), (64, 128)]:
        g = geo.build_grid(geo.DomainSpec.disc(1.0), res)
        errs.append(abs(geo.dirichlet_energy(g, g.x1) - math.pi))
    rates = [math.log2(errs[k] / errs[k + 1]) for k in range(2)]
    assert min(rates) >= 1.8


def test_size_mismatch_rejected(disc_grid):
    with pytest.raises(ValueError):
        geo.integrate(disc_grid, np.ones(3))
    with pytest.raises(ValueError):
        geo.dirichlet_energy(disc_grid, np.ones(3))


def test_reflect_x1_axis(disc_grid):
    hid = disc_grid.shape[1] // 2    # line at angle pi/2 = {x1 = 0}
    out = geo.reflect(disc_grid, disc_grid.x1, hid)
    assert np.max(np.abs(out + disc_grid.x1)) <= 1e-14


def test_reflect_radial_invariance(disc_grid):
    # exactly ring-constant field (hypot-based radii differ at ulp level)
    r = np.repeat(disc_grid.polar["ring_radii"], disc_grid.shape[1])
    for hid in (0, 3, 64):
        assert np.array_equal(geo.reflect(disc_grid, 1.0 - r * r, hid), 1.0 - r * r)


def test_reflect_involution_bit_exact(disc_grid):
    rng = np.random.default_rng(5)
    u = rng.standard_normal(disc_grid.n_nodes)
    for hid in (0, 1, 17):
        assert np.array_equal(geo.reflect(disc_grid, geo.reflect(disc_grid, u, hid), hid), u)


def test_reflect_preserves_quadrature_and_energy(disc_grid):
    rng = np.random.default_rng(6)
    u = rng.standard_normal(disc_grid.n_nodes)
    r = geo.reflect(disc_grid, u, 9)
    assert geo.integrate(disc_grid, r) == pytest.approx(
        geo.integrate(disc_grid, u), rel=1e-12, abs=1e-12)
    assert geo.dirichlet_energy(disc_grid, r) == pytest.approx(
        geo.dirichlet_energy(disc_grid, u), rel=1e-12)
    perm = geo.reflect(disc_grid, np.arange(disc_grid.n_nodes), 9).astype(int)
    assert np.array_equal(disc_grid.weights[perm], disc_grid.weights)


def test_reflect_unsupported_hyperplane(disc_grid, interval_grid):
    with pytest.raises(ValueError):
        geo.reflect(disc_grid, disc_grid.x1, 128)
    with pytest.raises(ValueError):
        geo.reflect(interval_grid, interval_grid.coords[:, 0], 1)


def test_rectangle_grid_and_reflections():
    g = geo.build_grid(geo.DomainSpec.rectangle(1.0, 2.0), (16, 24))
    assert np.sum(g.weights) == pytest.approx(2.0, rel=1e-13)
    x = g.coords[:, 0]
    assert geo.dirichlet_energy(g, x) == pytest.approx(2.0, rel=1e-12)
    assert np.max(np.abs(geo.reflect(g, x, 0) + x)) <= 1e-14
    y = g.coords[:, 1]
    assert np.max(np.abs(geo.reflect(g, y, 1) + y)) <= 1e-14


def _reference_perm(grid, hid):
    """Reflection permutation by per-kind index arithmetic on node ids."""
    n, res = grid.n_nodes, grid.resolution
    if grid.kind == "interval":
        return np.arange(n)[::-1].copy()
    if grid.kind == "rectangle":
        n1, n2 = res["n1"], res["n2"]
        ii, jj = np.divmod(np.arange(n), n2)
        return (n1 - 1 - ii) * n2 + jj if hid == 0 else ii * n2 + (n2 - 1 - jj)
    ntheta = res["ntheta"]
    jj, kk = np.divmod(np.arange(n), ntheta)
    return jj * ntheta + (hid - kk) % ntheta


def _reference_polarize(grid, u, hid, toward):
    """Two-point rearrangement with the side and orientation chosen per kind."""
    ur = u[_reference_perm(grid, hid)]
    if grid.kind == "interval":
        s, sign = grid.coords[:, 0], None if toward is None else toward[0]
    elif grid.kind == "rectangle":
        s, sign = grid.coords[:, hid], None if toward is None else toward[hid]
    else:
        alpha = hid * math.pi / grid.resolution["ntheta"]
        normal = np.array([-math.sin(alpha), math.cos(alpha)])
        s = grid.coords @ normal
        sign = None if toward is None else float(np.dot(toward, normal))
    if sign is not None and sign < 0:
        s = -s
    return np.where(s > 0, np.maximum(u, ur), np.where(s < 0, np.minimum(u, ur), u))


def _reference_monotonicity(grid, u, axis):
    """Angular monotonicity violation computed ring by ring."""
    profiles = u.reshape(grid.resolution["nr"], grid.resolution["ntheta"])
    thetas = grid.polar["thetas"]
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


@st.composite
def reflection_cases(draw):
    """A small grid of any kind, one of its hyperplanes, a field (normal
    values, or values rounded to a few levels so that ties occur) and an
    optional orientation."""
    grid = draw(small_grids())
    n_hyper = grid.shape[1] if grid.is_polar else len(grid.shape)
    hid = draw(st.integers(0, n_hyper - 1))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    u = rng.standard_normal(grid.n_nodes)
    if draw(st.booleans()):
        u = np.round(u)
    dim = grid.domain.dim
    toward = draw(st.none() | st.tuples(*[st.floats(-1.0, 1.0)] * dim))
    return grid, hid, u, toward


@settings(max_examples=80, deadline=None, derandomize=True)
@given(case=reflection_cases(), axis=st.floats(-math.pi, math.pi))
def test_reflections_match_index_arithmetic(case, axis):
    grid, hid, u, toward = case
    n = grid.n_nodes
    perm = geo.reflect(grid, np.arange(n), hid).astype(int)
    assert np.array_equal(np.sort(perm), np.arange(n))
    assert np.array_equal(perm[perm], np.arange(n))
    assert np.array_equal(perm, _reference_perm(grid, hid))
    assert np.array_equal(grid.weights[perm], grid.weights)
    assert geo.dirichlet_energy(grid, u[perm]) == pytest.approx(
        geo.dirichlet_energy(grid, u), rel=1e-12)
    assert np.array_equal(geo.polarize(grid, u, hid, toward=toward),
                          _reference_polarize(grid, u, hid, toward))
    if grid.is_polar:
        assert (dg._angular_monotonicity_violation(grid, u, axis)
                == _reference_monotonicity(grid, u, axis))


def _reference_gradient_magnitude(grid, u):
    """Nodal |grad u| by the edge loop: each edge's squared slope added to
    both its ends and averaged per edge direction, with the direction read
    off the node-index positions of the ends."""
    n = grid.n_nodes
    edge_i, edge_j, _ = reference_edges(grid)
    lower = np.unravel_index(edge_i, grid.shape)
    upper = np.unravel_index(edge_j, grid.shape)
    edge_axis = np.argmax(np.not_equal(lower, upper), axis=0)
    edge_length = np.empty(edge_axis.size)
    for ax, (periodic, _, length) in enumerate(grid.axes):
        mask = edge_axis == ax
        eshape = [m - (b == ax and not periodic) for b, m in enumerate(grid.shape)]
        edge_length[mask] = np.broadcast_to(length, eshape)[tuple(c[mask] for c in lower)]
    slopes2 = ((u[edge_i] - u[edge_j]) / edge_length) ** 2
    total = np.zeros(n)
    for ax in range(len(grid.shape)):
        mask = edge_axis == ax
        acc = np.zeros(n)
        cnt = np.zeros(n)
        np.add.at(acc, edge_i[mask], slopes2[mask])
        np.add.at(acc, edge_j[mask], slopes2[mask])
        np.add.at(cnt, edge_i[mask], 1.0)
        np.add.at(cnt, edge_j[mask], 1.0)
        total += np.divide(acc, cnt, out=np.zeros(n), where=cnt > 0)
    return np.sqrt(total)


def _edge_count(grid):
    res = grid.resolution
    if grid.kind == "interval":
        return res["n"] - 1
    if grid.kind == "rectangle":
        return (res["n1"] - 1) * res["n2"] + res["n1"] * (res["n2"] - 1)
    return (res["nr"] - 1) * res["ntheta"] + res["nr"] * res["ntheta"]


@settings(max_examples=80, deadline=None, derandomize=True)
@given(case=reflection_cases(), seed=st.integers(0, 2**32 - 1))
def test_edges_join_index_neighbours(case, seed):
    grid, _, u, _ = case
    n_edges = _edge_count(grid)
    i, j, t = reference_edges(grid)
    assert i.shape == j.shape == t.shape == (n_edges,)
    pairs = np.unique(np.sort(np.column_stack([i, j]), axis=1), axis=0)
    assert len(pairs) == n_edges
    step = np.subtract(np.unravel_index(j, grid.shape), np.unravel_index(i, grid.shape))
    assert np.array_equal(np.count_nonzero(step, axis=0), np.ones(n_edges))
    for ax, m in enumerate(grid.shape):
        wraps = step[ax] == 1 - m
        assert np.all((step[ax] == 0) | (step[ax] == 1) | wraps)
        # only the angle axis of a polar grid is periodic
        assert wraps.any() == (grid.is_polar and ax == 1)
    assert np.all(t > 0)
    # adjointness: the reference edge form is the walk's and the quadrature
    # of v times the Laplacian, the natural Neumann condition
    v = np.random.default_rng(seed).standard_normal(grid.n_nodes)
    form = float(np.dot(t, (u[i] - u[j]) * (v[i] - v[j])))
    assert geo.edge_form(grid, u, v) == pytest.approx(form, rel=1e-12, abs=1e-12)
    assert geo.integrate(grid, v * geo.laplacian(grid, u)) == pytest.approx(
        form, rel=1e-12, abs=1e-12)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(case=reflection_cases())
def test_gradient_magnitude_matches_edge_loop(case):
    grid, _, u, _ = case
    assert np.array_equal(geo.gradient_magnitude(grid, u),
                          _reference_gradient_magnitude(grid, u))


def _dense_stiffness(grid):
    """The matrix K of the Dirichlet form, u.K.u = sum_e tau_e (u_i - u_j)^2,
    summed edge by edge."""
    k = np.zeros((grid.n_nodes, grid.n_nodes))
    i, j, t = reference_edges(grid)
    for rows, cols, vals in ((i, j, -t), (j, i, -t), (i, i, t), (j, j, t)):
        np.add.at(k, (rows, cols), vals)
    return k


@settings(max_examples=80, deadline=None, derandomize=True)
@given(grid=small_grids(), seed=st.integers(0, 2**32 - 1))
def test_laplacian_matches_dense_stiffness(grid, seed):
    u, v = np.random.default_rng(seed).standard_normal((2, grid.n_nodes))
    ref = _dense_stiffness(grid) @ u
    assert np.max(np.abs(geo.laplacian(grid, u) * grid.weights - ref)) \
        <= 1e-13 * np.max(np.abs(ref))
    assert geo.dirichlet_energy(grid, u) == pytest.approx(u @ ref, rel=1e-12)
    assert geo.edge_form(grid, u, v) == pytest.approx(v @ ref, rel=1e-12)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(grid=small_grids(), seed=st.integers(0, 2**32 - 1), c=st.floats(-1e3, 1e3))
def test_laplacian_adjoint_to_edge_form(grid, seed, c):
    rng = np.random.default_rng(seed)
    u, v = rng.standard_normal((2, grid.n_nodes))
    # |edge_form(u, v)| is at most this, by Cauchy-Schwarz
    scale = math.sqrt(geo.dirichlet_energy(grid, u) * geo.dirichlet_energy(grid, v))
    assert abs(geo.edge_form(grid, u, v) - geo.integrate(grid, v * geo.laplacian(grid, u))) \
        <= 1e-12 * scale
    assert np.array_equal(geo.laplacian(grid, np.full(grid.n_nodes, c)), np.zeros(grid.n_nodes))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(grid=small_grids(), seed=st.integers(0, 2**32 - 1))
def test_h1_solve_matches_dense_solve(grid, seed):
    b = np.random.default_rng(seed).standard_normal(grid.n_nodes)
    ref = np.linalg.solve(_dense_stiffness(grid) + np.diag(grid.weights), b)
    assert np.max(np.abs(grid.h1_solve(b) - ref)) <= 1e-10 * np.max(np.abs(ref))
    # K 1 = 0, so the solve maps the weights to the constant 1
    assert np.max(np.abs(grid.h1_solve(grid.weights) - 1.0)) <= 1e-12


@pytest.mark.parametrize("grid", [
    geo.build_grid(geo.DomainSpec.interval(1.0), 20),
    *(geo.build_grid(spec, (n0, 10))
      for n0 in (8, 9, 16, 17, 31)
      for spec in (geo.DomainSpec.rectangle(1.5, 1.0), geo.DomainSpec.disc(1.0),
                   geo.DomainSpec.annulus(0.3, 1.0)))],
    ids=lambda g: f"{g.kind}-{'x'.join(map(str, g.shape))}")
def test_h1_solve_at_the_edge_sizes_of_cyclic_reduction(grid):
    # the systems along axis 0 have n0 rows: 1 on the interval, a power of
    # two, one more, and 31, whose levels shrink 31 -> 15 -> 7 -> 3 -> 1
    b = np.random.default_rng(grid.n_nodes).standard_normal(grid.n_nodes)
    ref = np.linalg.solve(_dense_stiffness(grid) + np.diag(grid.weights), b)
    assert np.max(np.abs(grid.h1_solve(b) - ref)) <= 1e-10 * np.max(np.abs(ref))
    assert np.max(np.abs(grid.h1_solve(grid.weights) - 1.0)) <= 1e-12


def test_angular_profiles(disc_grid):
    r, th = polar_coords(disc_grid)
    profiles, means = geo.angular_profiles(disc_grid, r)
    assert np.allclose(profiles, profiles[:, :1])          # radial: rows constant
    profiles, means = geo.angular_profiles(disc_grid, np.cos(th))
    thetas = disc_grid.polar["thetas"]
    assert np.allclose(profiles[10], np.cos(thetas), atol=1e-12)
    _, means = geo.angular_profiles(disc_grid, disc_grid.x1)
    assert np.max(np.abs(means)) <= 1e-12


def test_angular_profiles_wrong_domain(interval_grid):
    with pytest.raises(ValueError):
        geo.angular_profiles(interval_grid, interval_grid.coords[:, 0])


def test_gradient_magnitude_linear(disc_grid):
    gm = geo.gradient_magnitude(disc_grid, disc_grid.x1)
    assert np.max(np.abs(gm - 1.0)) <= 0.02


def test_field_csv_roundtrip(tmp_path, disc_grid, interval_grid, annulus_grid):
    rng = np.random.default_rng(1)
    rect = geo.build_grid(geo.DomainSpec.rectangle(2.0, 1.0), (16, 12))
    extremes = [-0.0, 5e-324, -5e-324, 1e300, -1e300]
    for g in (disc_grid, interval_grid, annulus_grid, rect):
        u = rng.standard_normal(g.n_nodes)
        u[:len(extremes)] = extremes
        path = tmp_path / f"{g.kind}.csv"
        geo.write_field_csv(g, u, path)
        back = geo.read_field_csv(g, path)
        assert np.array_equal(back, u)
        assert np.array_equal(np.signbit(back), np.signbit(u))      # -0.0 stays
        lines = path.read_text().splitlines()
        assert lines[0] == "value"
        assert len(lines) == g.n_nodes + 1


def test_grid_dict_roundtrip(disc_grid, interval_grid, annulus_grid):
    rect = geo.build_grid(geo.DomainSpec.rectangle(2.0, 1.0), (16, 12))
    for g in (disc_grid, interval_grid, annulus_grid, rect):
        g2 = geo.grid_from_dict(json.loads(json.dumps(g.to_dict())))
        assert g2.n_nodes == g.n_nodes
        assert g2.shape == g.shape
        assert g2.resolution == g.resolution
        assert np.array_equal(g2.coords, g.coords)
        assert np.array_equal(g2.weights, g.weights)
    assert rect.resolution == {"n1": 16, "n2": 12}


def test_domain_spec_dict_roundtrip():
    for s in (geo.DomainSpec.interval(1.5), geo.DomainSpec.rectangle(2.0, 1.0),
              geo.DomainSpec.disc(0.75), geo.DomainSpec.annulus(0.3, 0.9)):
        assert geo.DomainSpec.from_dict(s.to_dict()) == s
        assert geo.DomainSpec.from_dict(json.loads(json.dumps(s.to_dict()))) == s
    with pytest.raises(ValueError, match="unknown domain kind"):
        geo.DomainSpec.from_dict({"kind": "hexagon"})


def test_disc_node_layout(disc_grid):
    # cell-centered rings (j + 1/2) dr with no node at the origin and the
    # last ring on the boundary (gradient coverage up to the wall)
    nr = disc_grid.shape[0]
    dr = 1.0 / (nr - 0.5)
    rr = disc_grid.polar["ring_radii"]
    assert np.allclose(rr[:-1], (np.arange(nr - 1) + 0.5) * dr, rtol=1e-14)
    assert rr[0] > 0.0
    assert rr[-1] == 1.0
