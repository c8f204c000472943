import dataclasses
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nodal_lab import diagnostics as dg
from nodal_lab import geometry as geo

from conftest import reference_edges, reference_monotonicity, reflect, small_grids


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
    out = reflect(disc_grid, disc_grid.x1, hid)
    assert np.max(np.abs(out + disc_grid.x1)) <= 1e-14


def test_reflect_radial_invariance(disc_grid):
    # exactly ring-constant field (hypot-based radii differ at ulp level)
    r = np.repeat(disc_grid.axis_nodes[0], disc_grid.shape[1])
    for hid in (0, 3, 64):
        assert np.array_equal(reflect(disc_grid, 1.0 - r * r, hid), 1.0 - r * r)


def test_reflect_involution_bit_exact(disc_grid):
    rng = np.random.default_rng(5)
    u = rng.standard_normal(disc_grid.n_nodes)
    for hid in (0, 1, 17):
        assert np.array_equal(reflect(disc_grid, reflect(disc_grid, u, hid), hid), u)


def test_reflect_preserves_quadrature_and_energy(disc_grid):
    rng = np.random.default_rng(6)
    u = rng.standard_normal(disc_grid.n_nodes)
    r = reflect(disc_grid, u, 9)
    assert geo.integrate(disc_grid, r) == pytest.approx(
        geo.integrate(disc_grid, u), rel=1e-12, abs=1e-12)
    assert geo.dirichlet_energy(disc_grid, r) == pytest.approx(
        geo.dirichlet_energy(disc_grid, u), rel=1e-12)
    perm = reflect(disc_grid, np.arange(disc_grid.n_nodes), 9).astype(int)
    assert np.array_equal(disc_grid.weights[perm], disc_grid.weights)


def test_reflect_unsupported_hyperplane(disc_grid, interval_grid):
    with pytest.raises(ValueError):
        reflect(disc_grid, disc_grid.x1, 128)
    with pytest.raises(ValueError):
        reflect(interval_grid, interval_grid.coords[:, 0], 1)


def test_rectangle_grid_and_reflections():
    g = geo.build_grid(geo.DomainSpec.rectangle(1.0, 2.0), (16, 24))
    assert np.sum(g.weights) == pytest.approx(2.0, rel=1e-13)
    x = g.coords[:, 0]
    assert geo.dirichlet_energy(g, x) == pytest.approx(2.0, rel=1e-12)
    assert np.max(np.abs(reflect(g, x, 0) + x)) <= 1e-14
    y = g.coords[:, 1]
    assert np.max(np.abs(reflect(g, y, 1) + y)) <= 1e-14


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


@st.composite
def reflection_cases(draw):
    """A small grid of any kind, one of its hyperplanes and a field (normal
    values, or values rounded to a few levels so that ties occur)."""
    grid = draw(small_grids())
    n_hyper = grid.shape[1] if grid.is_polar else len(grid.shape)
    hid = draw(st.integers(0, n_hyper - 1))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    u = rng.standard_normal(grid.n_nodes)
    if draw(st.booleans()):
        u = np.round(u)
    return grid, hid, u


@settings(max_examples=80, deadline=None, derandomize=True)
@given(case=reflection_cases(), axis=st.floats(-math.pi, math.pi))
def test_reflections_match_index_arithmetic(case, axis):
    grid, hid, u = case
    n = grid.n_nodes
    perm = reflect(grid, np.arange(n), hid).astype(int)
    assert np.array_equal(np.sort(perm), np.arange(n))
    assert np.array_equal(perm[perm], np.arange(n))
    assert np.array_equal(perm, _reference_perm(grid, hid))
    assert np.array_equal(grid.weights[perm], grid.weights)
    assert geo.dirichlet_energy(grid, u[perm]) == pytest.approx(
        geo.dirichlet_energy(grid, u), rel=1e-12)
    if grid.is_polar:
        mono, defect = dg._hyperplane_sweep(grid, u, np.array([math.cos(axis), math.sin(axis)]))
        assert mono == reference_monotonicity(grid, u, axis)
        # both numbers come from the same pairs
        assert defect >= math.sqrt(2.0 * grid.weights.min()) * mono * (1.0 - 1e-12)


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
    grid, _, u = case
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
    grid, _, u = case
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
                   geo.DomainSpec.annulus(0.3, 1.0))),
    *(geo.build_grid(geo.DomainSpec.rectangle(1.5, 1.0), (16, n)) for n in (16, 17))],
    ids=lambda g: f"{g.kind}-{'x'.join(map(str, g.shape))}")
def test_h1_solve_at_the_edge_sizes_of_cyclic_reduction(grid):
    # the systems along axis 0 have n0 rows: 1 on the interval, a power of
    # two, one more, and 31, whose levels shrink 31 -> 15 -> 7 -> 3 -> 1;
    # the 16 x 16 rectangle has _DENSE_NODES nodes, the 16 x 17 one more
    b = np.random.default_rng(grid.n_nodes).standard_normal(grid.n_nodes)
    ref = np.linalg.solve(_dense_stiffness(grid) + np.diag(grid.weights), b)
    assert np.max(np.abs(grid.h1_solve(b) - ref)) <= 1e-10 * np.max(np.abs(ref))
    assert np.max(np.abs(grid.h1_solve(grid.weights) - 1.0)) <= 1e-12


@pytest.mark.parametrize("grid", [
    geo.build_grid(geo.DomainSpec.interval(1.0), 257),
    geo.build_grid(geo.DomainSpec.rectangle(1.5, 1.0), (16, 17)),
    geo.build_grid(geo.DomainSpec.rectangle(2.0, 1.0), (31, 24)),
    geo.build_grid(geo.DomainSpec.disc(1.0), (16, 32)),
    geo.build_grid(geo.DomainSpec.annulus(0.3, 1.0), (17, 20))],
    ids=lambda g: f"{g.kind}-{'x'.join(map(str, g.shape))}")
def test_h1_block_solve_equals_column_solves(grid):
    # above _DENSE_NODES h1_solve is the separable solver itself; a block of
    # right-hand sides gives each column's solve bit for bit
    assert grid.n_nodes > geo._DENSE_NODES
    b = np.random.default_rng(grid.n_nodes).standard_normal((grid.n_nodes, 5))
    x = grid.h1_solve(b)
    assert x.shape == b.shape
    for j in range(b.shape[1]):
        assert np.array_equal(x[:, j], grid.h1_solve(b[:, j]))
    assert np.array_equal(grid.h1_solve(b[:, :1]), x[:, :1])


@settings(max_examples=60, deadline=None, derandomize=True)
@given(grid=small_grids(), seed=st.integers(0, 2**32 - 1))
def test_h1_dense_and_separable_paths_agree(grid, seed):
    # each path built on every grid of 64 to 640 nodes, by moving the
    # threshold; h1_solve takes the dense one up to _DENSE_NODES nodes
    def solver(dense_nodes):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(geo, "_DENSE_NODES", dense_nodes)
            return geo._separable_solver(grid.shape, grid.axes, grid.weights)

    separable, dense = solver(0), solver(grid.n_nodes)
    b = np.random.default_rng(seed).standard_normal(grid.n_nodes)
    ref = separable(b)
    assert np.max(np.abs(dense(b) - ref)) <= 1e-12 * np.max(np.abs(ref))
    path = dense if grid.n_nodes <= geo._DENSE_NODES else separable
    assert np.array_equal(grid.h1_solve(b), path(b))


def _axis_positions(grid):
    """Per axis, every node's position along it, shaped like the node
    array: the coordinate itself on box grids, the ring radius and then the
    angle on polar grids."""
    return [np.broadcast_to(x.reshape(-1, *[1] * (len(grid.shape) - 1 - a)), grid.shape)
            for a, x in enumerate(grid.axis_nodes)]


@settings(max_examples=60, deadline=None, derandomize=True)
@given(grid=small_grids())
def test_axis_nodes_describe_the_grid(grid):
    assert len(grid.axis_nodes) == len(grid.shape) == len(grid.axes)
    for a, x in enumerate(grid.axis_nodes):
        assert x.shape == (grid.shape[a],)
        assert np.all(np.diff(x) > 0)
        assert not x.flags.writeable
        if not grid.is_polar:
            assert np.array_equal(grid.coords[:, a].reshape(grid.shape),
                                  _axis_positions(grid)[a])
    if grid.is_polar:
        # the products of ring radius and cos or sin of the angle, node by
        # node in the flat order, bit for bit
        r, th = grid.axis_nodes
        rr, tt = np.repeat(r, th.size), np.tile(th, r.size)
        assert np.array_equal(grid.coords, np.column_stack([rr * np.cos(tt), rr * np.sin(tt)]))
    assert np.array_equal(grid.x1, grid.coords[:, 0])
    # the grid stores no per-node coordinates: no array it holds, directly
    # or in its axes, has as many as n_nodes x 2 values
    held = [*vars(grid).values(), *(x for axis in grid.axes for x in axis)]
    assert all(np.size(a) < 2 * grid.n_nodes for a in held if isinstance(a, np.ndarray))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(grid=small_grids(), c=st.floats(-1e3, 1e3), seed=st.integers(0, 2**32 - 1))
def test_coarsen_and_prolong(grid, c, seed):
    # coarsen halves every count, and returns None exactly where build_grid
    # refuses the halved resolution
    coarse = geo.coarsen(grid)
    try:
        ref = geo.build_grid(grid.domain, [n // 2 for n in grid.shape])
    except ValueError:
        assert coarse is None
    else:
        assert coarse.domain == grid.domain and coarse.shape == ref.shape
        assert np.array_equal(coarse.coords, ref.coords)
    pairs = [(grid, geo.build_grid(grid.domain, [2 * n for n in grid.shape]))]
    if coarse is not None:
        pairs.append((coarse, grid))
    for lo, hi in pairs:
        # constants come back exactly
        assert np.array_equal(geo.prolong(lo, hi, np.full(lo.n_nodes, c)),
                              np.full(hi.n_nodes, c))
        # a field linear along one non-periodic axis comes back to roundoff
        # inside the coarse node range and is clamped to its end values
        # outside it (the innermost disc ring lies inside the coarse one)
        for a, (xc, xf) in enumerate(zip(_axis_positions(lo), _axis_positions(hi))):
            if lo.axes[a][0]:
                continue
            out = geo.prolong(lo, hi, xc.ravel()).reshape(hi.shape)
            expected = np.clip(xf, xc.min(), xc.max())
            assert np.max(np.abs(out - expected)) <= 1e-14 * np.max(np.abs(xc))
        if lo.is_polar:
            # the angle wraps: fine angles past the last coarse column
            # interpolate toward column 0
            col = np.random.default_rng(seed).standard_normal(lo.shape[1])
            out = geo.prolong(lo, hi, np.tile(col, lo.shape[0])).reshape(hi.shape)
            pos = hi.axis_nodes[1] / (2.0 * math.pi / lo.shape[1])
            k = np.minimum(np.floor(pos).astype(int), lo.shape[1] - 1)
            t = pos - k
            expected = col[k] + t * (col[(k + 1) % lo.shape[1]] - col[k])
            assert np.max(np.abs(out - expected)) <= 1e-14 * np.max(np.abs(col))


def test_gradient_magnitude_linear(disc_grid):
    gm = geo.gradient_magnitude(disc_grid, disc_grid.x1)
    assert np.max(np.abs(gm - 1.0)) <= 0.02


def test_field_csv_roundtrip(tmp_path, disc_grid, interval_grid, annulus_grid):
    # the dump is np.save's array, written at the path as given (no .npy
    # suffix appended), the same bytes on a rerun, and read back bitwise
    rng = np.random.default_rng(1)
    values = rng.standard_normal(disc_grid.n_nodes)
    values[:5] = [-0.0, 5e-324, -5e-324, 1e300, -1e300]
    path = tmp_path / "field.dump"
    rect = geo.build_grid(geo.DomainSpec.rectangle(2.0, 1.0), (16, 12))
    for g in (disc_grid, interval_grid, annulus_grid, rect):
        u = values[:g.n_nodes]
        geo.write_field_csv(g, u, path)
        first = path.read_bytes()
        assert geo.read_field_csv(g, path).tobytes() == u.tobytes()   # -0.0 stays
        assert np.load(path).tobytes() == u.tobytes()
        assert first[:6] == b"\x93NUMPY" and len(first) == 128 + 8 * g.n_nodes
        geo.write_field_csv(g, u.copy(), path)
        assert path.read_bytes() == first
    assert [p.name for p in tmp_path.iterdir()] == ["field.dump"]


def test_field_csv_io_holds_one_block(tmp_path):
    # a 131,072-value dump (a 1 MiB field) took 4.1 MiB of traced memory to
    # write and 12.3 MiB to read while whole columns were held as Python
    # floats and strings, and up to 0.5 and 2 MiB as CSV formatted and
    # parsed one block at a time; as .npy the write holds no copy of the
    # field, and the read the 1 MiB result and its 0.125 MiB finiteness mask
    grid = geo.build_grid(geo.DomainSpec.disc(1.0), (256, 512))
    u = np.random.default_rng(2).standard_normal(grid.n_nodes)
    path = tmp_path / "field.npy"
    tracemalloc.start()
    try:
        geo.write_field_csv(grid, u, path)
        write_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        back = geo.read_field_csv(grid, path)
        read_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(back, u)
    assert write_peak < 0.1 * 2**20
    assert read_peak < 1.25 * 2**20


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


# each kind's spec and the dict that to_dict gives for it: the kind and the
# kind's size key, lengths as floats
SPEC_DICTS = [
    (geo.DomainSpec.interval(1.5), {"kind": "interval", "half_length": 1.5}),
    (geo.DomainSpec.rectangle(2.0, 1.0), {"kind": "rectangle", "sides": [2.0, 1.0]}),
    (geo.DomainSpec.disc(0.75), {"kind": "disc", "radius": 0.75}),
    (geo.DomainSpec.annulus(0.3, 0.9), {"kind": "annulus", "radii": [0.3, 0.9]}),
]


def test_domain_spec_dict_roundtrip():
    for s, d in SPEC_DICTS:
        assert s.to_dict() == d
        assert geo.DomainSpec.from_dict(d) == s
        assert geo.DomainSpec.from_dict(json.loads(json.dumps(s.to_dict()))) == s
    with pytest.raises(ValueError, match="unknown domain kind"):
        geo.DomainSpec.from_dict({"kind": "hexagon"})


def test_dicts_with_stray_keys_refused(disc_grid):
    d = disc_grid.to_dict()
    for stray in ({"domain": {**d["domain"], "sides": [2.0, 2.0]}},
                  {"resolution": {**d["resolution"], "n": 16}},
                  {"resolution": {"nr": 64}}):
        with pytest.raises(ValueError, match="invalid-spec"):
            geo.grid_from_dict({**d, **stray})
    with pytest.raises(ValueError, match="invalid-spec"):
        geo.DomainSpec.from_dict({"kind": "disc", "radius": 1.0, "radii": [0.5, 1.0]})


def test_node_counts_must_be_integers(disc_grid):
    # int(n) used to truncate: {"nr": 16.7, "ntheta": 32.9} built the 16x32
    # disc; grid_from_dict and coarsen reach the check through build_grid
    disc, interval = geo.DomainSpec.disc(1.0), geo.DomainSpec.interval(1.0)
    for make in (lambda: geo.build_grid(disc, (16.7, 32)),
                 lambda: geo.build_grid(disc, (16, 32.9)),
                 lambda: geo.build_grid(interval, 9.99),
                 lambda: geo.build_grid(interval, True),
                 lambda: geo.build_grid(disc, (True, 32)),
                 lambda: geo.build_grid(disc, (np.bool_(True), 32)),
                 lambda: geo.grid_from_dict({"domain": disc.to_dict(),
                                             "resolution": {"nr": 16.7, "ntheta": 32.9}})):
        with pytest.raises(ValueError, match="invalid-spec"):
            make()
    # numpy integers stay accepted, and so does the int shape of a grid
    for res in ((np.int64(16), np.int32(32)), np.array([16, 32]), disc_grid.shape):
        assert geo.build_grid(disc, res).shape == tuple(map(int, res))


def test_domain_spec_integer_sizes_written_as_floats():
    for d, written in (({"kind": "interval", "half_length": 2}, '"half_length": 2.0'),
                       ({"kind": "rectangle", "sides": [2, 1]}, '"sides": [2.0, 1.0]'),
                       ({"kind": "disc", "radius": 1}, '"radius": 1.0'),
                       ({"kind": "annulus", "radii": [1, 2]}, '"radii": [1.0, 2.0]')):
        assert json.dumps(geo.DomainSpec.from_dict(d).to_dict()) == \
            f'{{"kind": "{d["kind"]}", {written}}}'


def test_domain_spec_holds_kind_and_size():
    assert [f.name for f in dataclasses.fields(geo.DomainSpec)] == ["kind", "size"]
    assert geo.DomainSpec.annulus(1, 2).size == (1.0, 2.0)
    assert geo.DomainSpec("disc", 2) == geo.DomainSpec.disc(2.0)
    # what four optional size fields let through: a bool radius, one side
    # of a rectangle, and a disc with a second size
    for kind, size in (("disc", True), ("rectangle", (1.0,)), ("disc", (1.0, 2.0))):
        with pytest.raises(ValueError, match="invalid-spec"):
            geo.DomainSpec(kind, size)


GOOD_SIZES = {"interval": (1.0,), "rectangle": (2.0, 1.0), "disc": (1.0,),
              "annulus": (0.5, 1.0)}


def _bad_sizes(kind):
    """Sizes of kind that every path must reject: a bad value in each
    slot, the wrong count and, on the annulus, inner >= outer."""
    good = GOOD_SIZES[kind]
    for bad in (True, False, "1", None, math.nan, math.inf, -math.inf, 0, 0.0, -1.0,
                10**400):
        for i in range(len(good)):
            yield good[:i] + (bad,) + good[i + 1:]
    yield good + (3.0,)
    yield good[:-1]
    if kind == "annulus":
        yield from ((1.0, 0.5), (0.5, 0.5))


@pytest.mark.parametrize("kind", GOOD_SIZES)
def test_domain_spec_paths_reject_the_same_sizes(kind):
    key = geo._KINDS[kind][0]
    for size in _bad_sizes(kind):
        makes = [lambda: geo.DomainSpec(kind, size),
                 lambda: geo.DomainSpec.from_dict({"kind": kind, key: list(size)})]
        if len(size) == len(GOOD_SIZES[kind]):
            makes.append(lambda: getattr(geo.DomainSpec, kind)(*size))
        if len(size) == 1:
            makes += [lambda: geo.DomainSpec(kind, size[0]),
                      lambda: geo.DomainSpec.from_dict({"kind": kind, key: size[0]})]
        for make in makes:
            with pytest.raises(ValueError, match="invalid-spec"):
                make()
    with pytest.raises(ValueError, match="invalid-spec"):
        geo.DomainSpec.from_dict({"kind": kind})


def test_disc_node_layout(disc_grid):
    # cell-centered rings (j + 1/2) dr with no node at the origin and the
    # last ring on the boundary (gradient coverage up to the wall)
    nr = disc_grid.shape[0]
    dr = 1.0 / (nr - 0.5)
    rr = disc_grid.axis_nodes[0]
    assert np.allclose(rr[:-1], (np.arange(nr - 1) + 0.5) * dr, rtol=1e-14)
    assert rr[0] > 0.0
    assert rr[-1] == 1.0
    # row i of a field's node array is ring i, its columns ordered by angle
    thetas = disc_grid.axis_nodes[1]
    x, y = disc_grid.coords.T.reshape(2, *disc_grid.shape)
    assert np.allclose(x, np.outer(rr, np.cos(thetas)), rtol=0, atol=1e-14)
    assert np.allclose(y, np.outer(rr, np.sin(thetas)), rtol=0, atol=1e-14)
