import csv
import math
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse.csgraph import connected_components

import nodal_lab
from nodal_lab import diagnostics as dg
from nodal_lab import geometry as geo
from nodal_lab import radial as rad

from conftest import (polar_coords, polarize, reference_edges, reference_monotonicity, reflect,
                      small_grids, smooth_random_field)


def test_zero_measure_interval(interval_grid):
    x = interval_grid.coords[:, 0]
    curve = dg.zero_measure_curve(interval_grid, x, [0.1])
    cell = 2.0 / (interval_grid.n_nodes - 1)
    assert abs(curve.measures[0] - 0.2) <= 2 * cell


def test_zero_measure_zero_field(interval_grid):
    curve = dg.zero_measure_curve(interval_grid, np.zeros(interval_grid.n_nodes),
                                  [1e-6, 1e-3, 0.1])
    assert np.allclose(curve.measures, 2.0)


def test_zero_measure_monotone_and_nonnegative_slope(disc_grid, disc_min_q1):
    deltas = np.geomspace(1e-6, 0.2, 20)
    curve = dg.zero_measure_curve(disc_grid, disc_min_q1.u, deltas)
    assert np.all(np.diff(curve.measures) >= 0)        # shrinks as delta does
    assert curve.kappa_hat >= 0.0


def test_zero_curve_csv(tmp_path, interval_grid):
    curve = dg.zero_measure_curve(interval_grid, interval_grid.coords[:, 0],
                                  [0.05, 0.1])
    dg.write_zero_curve_csv(curve, tmp_path / "curve.csv")
    lines = (tmp_path / "curve.csv").read_text().splitlines()
    assert lines[0] == "delta,measure"
    assert len(lines) == 3


def test_nodal_domains_examples(disc_grid):
    rect = geo.build_grid(geo.DomainSpec.rectangle(1.0, 1.0), (16, 16))
    assert dg.nodal_domains(rect, rect.coords[:, 0]) == 2
    assert dg.nodal_domains(rect, np.ones(rect.n_nodes)) == 1
    u = np.repeat(rad.closed_form_q1(2, r=disc_grid.axis_nodes[0]).u, disc_grid.shape[1])
    assert dg.nodal_domains(disc_grid, u) == 2


def test_nodal_domains_invariances(disc_grid, disc_min_q1):
    u = disc_min_q1.u
    n = dg.nodal_domains(disc_grid, u)
    assert dg.nodal_domains(disc_grid, -u) == n
    assert dg.nodal_domains(disc_grid, reflect(disc_grid, u, 13)) == n


def test_nodal_domains_four_quadrants(disc_grid):
    _, th = polar_coords(disc_grid)
    assert dg.nodal_domains(disc_grid, np.cos(2 * th)) == 4


def _reference_nodal_domains(grid, u, threshold):
    """Two passes, one per sign set: each set's nodes renumbered and its
    components counted on the edges with both ends in the set."""
    total = 0
    i, j, _ = reference_edges(grid)
    for sel in (u > threshold, u < -threshold):
        idx = np.flatnonzero(sel)
        if idx.size == 0:
            continue
        renum = -np.ones(grid.n_nodes, dtype=int)
        renum[idx] = np.arange(idx.size)
        keep = sel[i] & sel[j]
        adj = sp.csr_matrix((np.ones(np.count_nonzero(keep)), (renum[i[keep]], renum[j[keep]])),
                            shape=(idx.size, idx.size))
        total += connected_components(adj, directed=False)[0]
    return total


@settings(max_examples=100, deadline=None, derandomize=True)
@given(grid=small_grids(), seed=st.integers(0, 2**32 - 1),
       field=st.sampled_from(("noise", "rounded", "smooth", "smooth-rounded")),
       level=st.just(0.0) | st.floats(0.01, 0.9))
def test_nodal_domains_matches_two_pass(grid, seed, field, level):
    # white noise gives many small components, smooth fields few large
    # ones; rounding leaves plateaus, exact zeros among them
    rng = np.random.default_rng(seed)
    u = (smooth_random_field(grid, rng) if field.startswith("smooth")
         else rng.standard_normal(grid.n_nodes))
    scale = float(np.max(np.abs(u)))
    if field.endswith("rounded"):
        u = np.round(3.0 * u / scale) * scale / 3.0
    threshold = level * scale
    banded = np.where(np.abs(u) > threshold, u, 0.0)
    assert dg.nodal_domains(grid, banded) == _reference_nodal_domains(grid, u, threshold)


@pytest.fixture(scope="module")
def fine_disc():
    return geo.build_grid(geo.DomainSpec.disc(1.0), (128, 256))


def test_nodal_domains_fields_match_csgraph(fine_disc):
    r, th = polar_coords(fine_disc)
    fields = {"dipole": fine_disc.x1,
              "noise": np.random.default_rng(5).standard_normal(fine_disc.n_nodes),
              "spiral": np.sin(6 * th + 20 * r),
              "ring": np.sin(40 * r) * np.cos(3 * th)}
    counts = {}
    for name, u in fields.items():
        for threshold in (0.0, 0.3):
            banded = np.where(np.abs(u) > threshold, u, 0.0)
            counts[name, threshold] = dg.nodal_domains(fine_disc, banded)
            assert counts[name, threshold] == _reference_nodal_domains(fine_disc, u, threshold), name
    assert counts["dipole", 0.0] == 2
    assert counts["noise", 0.0] > 1000 and counts["spiral", 0.0] > 2 and counts["ring", 0.0] > 20


def _snake(n1, n2):
    """Indicator of one path winding through every other row, turning at
    the right and left ends in turn."""
    i, j = np.indices((n1, n2))
    turn = np.where((i // 2) % 2 == 0, n2 - 1, 0)
    return ((i % 2 == 0) | (j == turn)).astype(float)


@pytest.mark.parametrize("shape", [(201, 40), (40, 201)])
def test_nodal_domains_snake(shape):
    # one component whose ends lie far apart along its path and in the
    # node order, winding along the first or the last axis
    grid = geo.build_grid(geo.DomainSpec.rectangle(3.0, 1.0), shape)
    snake = (_snake(*shape) if shape[0] > shape[1] else _snake(*shape[::-1]).T).ravel()
    assert dg.nodal_domains(grid, snake) == 1
    # its complement splits into one component per gap between the rows
    u = 2.0 * snake - 1.0
    assert dg.nodal_domains(grid, u) == 1 + (max(shape) - 1) // 2
    assert dg.nodal_domains(grid, u) == _reference_nodal_domains(grid, u, 0.0)


def test_nodal_domains_empty_and_single_node_sets(disc_grid):
    assert dg.nodal_domains(disc_grid, np.zeros(disc_grid.n_nodes)) == 0
    x1 = disc_grid.x1
    assert dg.nodal_domains(disc_grid, np.where(np.abs(x1) > 10.0, x1, 0.0)) == 0
    rect = geo.build_grid(geo.DomainSpec.rectangle(1.0, 2.0), (9, 12))
    i, j = np.indices(rect.shape)
    # a checkerboard: every node a set of its own
    assert dg.nodal_domains(rect, np.where((i + j) % 2, 1.0, -1.0).ravel()) == rect.n_nodes
    # isolated nodes in a zero background, of either sign
    u = np.zeros(rect.shape)
    u[::2, ::3] = 1.0
    u[1::4, 1::3] = -0.5
    assert dg.nodal_domains(rect, u.ravel()) == np.count_nonzero(u)
    assert (dg.nodal_domains(rect, np.where(np.abs(u) > 0.5, u, 0.0).ravel())
            == np.count_nonzero(u > 0.5))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(grid=small_grids(), seed=st.integers(0, 2**32 - 1),
       share=st.floats(0.0, 0.9), positive=st.floats(0.05, 0.95))
def test_nodal_domains_random_signs_match_csgraph(grid, seed, share, positive):
    # signs of independent nodes: a share of zeros, the rest split between
    # 1 and -1, from many small components to a few large ones
    rng = np.random.default_rng(seed)
    u = np.where(rng.random(grid.n_nodes) < positive, 1.0, -1.0)
    u[rng.random(grid.n_nodes) < share] = 0.0
    assert dg.nodal_domains(grid, u) == _reference_nodal_domains(grid, u, 0.0)


def test_radiality_deviation(disc_grid):
    r = np.repeat(disc_grid.axis_nodes[0], disc_grid.shape[1])
    assert dg.radiality_deviation(disc_grid, 1 - r * r) == pytest.approx(0.0, abs=1e-15)
    assert dg.radiality_deviation(disc_grid, disc_grid.x1) == pytest.approx(1.0, rel=1e-12)
    assert dg.radiality_deviation(disc_grid, np.zeros(disc_grid.n_nodes)) == 0.0


def test_foliated_schwarz_exact_field(disc_grid):
    r, th = polar_coords(disc_grid)
    rep = dg.foliated_schwarz_check(disc_grid, np.maximum(1 - r, 0) * np.cos(th))
    assert rep.passed
    assert rep.monotonicity_violation <= 1e-12
    assert rep.polarization_defect <= 1e-12
    assert rep.axis_angle == pytest.approx(0.0, abs=1e-10)


def test_foliated_schwarz_rotated_axis(disc_grid):
    r, th = polar_coords(disc_grid)
    for gamma in (0.3, -1.2):
        rep = dg.foliated_schwarz_check(disc_grid, (1 - r) * np.cos(th - gamma))
        assert rep.passed and rep.axis_angle == pytest.approx(gamma, abs=1e-8)


def test_foliated_schwarz_two_bump_fails(disc_grid):
    _, th = polar_coords(disc_grid)
    rep = dg.foliated_schwarz_check(disc_grid, np.cos(2 * th))
    assert not rep.passed
    assert rep.monotonicity_violation > 0.1
    assert rep.axis_method == "max-point"     # first angular mode vanishes


def test_foliated_schwarz_radial_passes(disc_grid):
    r = np.repeat(disc_grid.axis_nodes[0], disc_grid.shape[1])
    rep = dg.foliated_schwarz_check(disc_grid, 1 - r * r)
    assert rep.passed and rep.axis_angle is None and rep.axis_method == "radial"


def test_foliated_schwarz_retains_no_reflections():
    # a fresh grid, not the shared disc_grid fixture, which other tests may
    # have left holding state
    grid = geo.build_grid(geo.DomainSpec.disc(1.0), (64, 128))
    tracemalloc.start()
    try:
        rep = dg.foliated_schwarz_check(grid, grid.x1)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert rep.passed and rep.axis_method == "fourier"
    # one int64 permutation per hyperplane would hold 128 * 8192 * 8 B = 8 MiB
    assert held < 2**20
    # one check on the 128x256 disc peaks at 1.76 MiB; the half-ring slices
    # of one hyperplane take 128 KiB of it, those of all 256 at once 32 MiB
    grid = geo.build_grid(geo.DomainSpec.disc(1.0), (128, 256))
    u = np.array(grid.x1)
    tracemalloc.start()
    try:
        rep = dg.foliated_schwarz_check(grid, u)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.passed and peak < 2.5 * 2**20


def test_foliated_schwarz_verdict_is_scale_invariant():
    # a field and its scaled copies get one verdict, however small: cos 2 theta
    # has four nodal domains at every amplitude
    grid = geo.build_grid(geo.DomainSpec.disc(1.0), (32, 64))
    _, th = polar_coords(grid)
    for s in (1.0, 1e-3, 1e-60):
        four_domains = dg.foliated_schwarz_check(grid, s * np.cos(2 * th))
        assert not four_domains.passed and four_domains.axis_method == "max-point"
        dipole = dg.foliated_schwarz_check(grid, s * grid.x1)
        assert dipole.passed and dipole.axis_method == "fourier"


@st.composite
def polarization_cases(draw):
    """A polar grid, a field and an axis.  Fields: normal values; the same
    rounded, so that pairs tie; symmetric under one hyperplane's reflection;
    nonincreasing on every ring in the angular distance from the axis,
    which no polarization toward the axis moves; or near-tie, such a
    profile with the axis on a node column, or 4e-13 or 6e-13 off it, plus
    1e-9 noise, whose defect is made of differences 1e-9 of the values (a
    defect that weights the profiles before subtracting them is off by 1e-8
    to 1e-7 relative).  Axes: any angle, or a multiple of pi/(2 n_theta),
    which lies on a hyperplane (h pi/n_theta) or along one's normal
    (h pi/n_theta +- pi/2)."""
    grid = draw(small_grids().filter(lambda g: g.is_polar))
    nr, nth = grid.shape
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(("normal", "rounded", "symmetric", "monotone", "near-tie")))
    step = draw(st.integers(0, 4 * nth - 1) if kind == "monotone"
                else st.integers(0, nth - 1).map(lambda k: 4 * k) if kind == "near-tie"
                else st.none() | st.integers(0, 4 * nth - 1))
    axis = draw(st.floats(-math.pi, math.pi)) if step is None else step * math.pi / (2 * nth)
    u = rng.standard_normal(grid.n_nodes)
    if kind == "rounded":
        u = np.round(u)
    elif kind == "symmetric":
        u = u + reflect(grid, u, draw(st.integers(0, nth - 1)))
    elif kind in ("monotone", "near-tie"):
        # column k sits at 4k units of pi/(2 n_theta): distances are integers
        gap = (4 * np.arange(nth) - step) % (4 * nth)
        dist = np.minimum(gap, 4 * nth - gap)
        u = (rng.standard_normal((nr, 1)) - rng.random((nr, 1)) * dist).ravel()
        if kind == "near-tie":
            u += 1e-9 * rng.standard_normal(grid.n_nodes)
            # the axis off its hyperplane by less or more than the tie rule's 5e-13
            axis += draw(st.sampled_from((0.0, 4e-13, -4e-13, 6e-13, -6e-13)))
    return grid, u, axis, kind


@settings(max_examples=120, deadline=None, derandomize=True)
@given(case=polarization_cases())
def test_polarization_defect_matches_polarize(case):
    grid, u, axis, kind = case
    # the defect sums each ring with one weight
    w = grid.weights.reshape(grid.shape)
    assert np.array_equal(w, np.broadcast_to(w[:, :1], w.shape))

    def reference(axis):
        toward = np.array([math.cos(axis), math.sin(axis)])
        return max(math.sqrt(np.dot(grid.weights, (polarize(grid, u, h, toward) - u) ** 2))
                   for h in range(grid.shape[1]))

    ref = reference(axis)
    mono, got = dg._hyperplane_sweep(grid, u, np.array([math.cos(axis), math.sin(axis)]))
    assert got == pytest.approx(ref, rel=1e-12, abs=0.0)
    # axes on or near a hyperplane exercise the tie rule
    assert mono == reference_monotonicity(grid, u, axis)
    # both numbers come from the same pairs
    assert got >= math.sqrt(2.0 * grid.weights.min()) * mono * (1.0 - 1e-12)
    if kind == "monotone":
        assert got == ref == 0.0
    rep = dg.foliated_schwarz_check(grid, u)
    if rep.axis_angle is not None:
        assert rep.polarization_defect == pytest.approx(reference(rep.axis_angle),
                                                        rel=1e-12, abs=0.0)


def _csv_module_reference(path, header, columns):
    """The dump format as csv.writer writes it, 17 significant digits."""
    with open(path, "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(header)
        for row in zip(*columns):
            wr.writerow([f"{v:.17g}" for v in row])


def test_csv_writers_match_csv_module(tmp_path):
    vals = np.array([-0.0, 5e-324, 1e300, -1e300, -2.5, 1.0 / 3.0, -5e-324, 0.1])
    ref, got = tmp_path / "ref.csv", tmp_path / "got.csv"
    for g in (geo.build_grid(geo.DomainSpec.interval(1.0), 8),
              geo.build_grid(geo.DomainSpec.disc(1.0), (8, 8))):
        u = np.tile(vals, g.n_nodes // vals.size)
        geo.write_field_csv(g, u, got)
        _csv_module_reference(ref, ["value"], [u])
        assert got.read_bytes() == ref.read_bytes()

    p = rad.RadialProfile(n_dim=2, q=1.0, r=np.linspace(0.125, 1.0, 8),
                          u=vals, du=-vals[::-1])
    rad.write_profile_csv(p, got)
    _csv_module_reference(ref, ["r", "u", "du"], [p.r, p.u, p.du])
    assert got.read_bytes() == ref.read_bytes()

    curve = dg.ZeroMeasureCurve(deltas=np.abs(vals), measures=vals, kappa_hat=0.0,
                                floor=0.0, floor_measure=0.0)
    dg.write_zero_curve_csv(curve, got)
    _csv_module_reference(ref, ["delta", "measure"], [curve.deltas, curve.measures])
    assert got.read_bytes() == ref.read_bytes()

    # rows shaped like bounds.csv's and sweep.csv's: ints, a bool, an empty
    # cell and a word, which csv.writer writes unquoted
    for header, fmt, rows in [
        (["N", "upper_bound", "m_r", "holds", "h3", "h3_cubic_ok"],
         "%d,%.17g,%.17g,%d,%.17g,%s",
         [(2, 1.0 / 3.0, 5e-324, True, -0.0, ""), (16, -1e300, 0.1, False, 2.5, 1)]),
        (["q", "energy", "iterations", "constraint", "converged"],
         "%.17g,%.17g,%d,%s,%d",
         [(1.6, -1.0 / 3.0, 0, "signed-mean-zero", True),
          (1.0, 1e300, 20000, "sign-balance", False)]),
    ]:
        nodal_lab.write_table(got, ",".join(header), fmt, *zip(*rows))
        with open(ref, "w", newline="") as fh:
            wr = csv.writer(fh)
            wr.writerow(header)
            wr.writerows([f"{v:.17g}" if isinstance(v, float) else
                          int(v) if isinstance(v, bool) else v for v in row]
                         for row in rows)
        assert got.read_bytes() == ref.read_bytes()

    # the writer formats blocks of rows: tables of one row, one row short of
    # a block, a block, one row over and over two blocks long, the extreme
    # values included; a list column beside array columns; a header and no
    # rows
    block = nodal_lab._BLOCK
    cases = [(["delta", "measure"], [[], []])]
    for n in (1, block - 1, block, block + 1, 2 * block + 3):
        col = np.resize(vals, n) * np.resize([1.0, -7.0, 0.5], n)
        cases += [(["value"], [col]), (["r", "u"], [col, col[::-1]]),
                  (["r", "u", "du"], [col, col[::-1].tolist(), -col])]
    for header, columns in cases:
        nodal_lab.write_table(got, ",".join(header), ",".join(["%.17g"] * len(header)),
                              *columns)
        _csv_module_reference(ref, header, columns)
        assert got.read_bytes() == ref.read_bytes()


def test_pde_residual_closed_form_first_order():
    norms = []
    for res in [(64, 128), (128, 256)]:
        g = geo.build_grid(geo.DomainSpec.disc(1.0), res)
        u = np.repeat(rad.closed_form_q1(2, r=g.axis_nodes[0]).u, g.shape[1])
        norms.append(dg.pde_residual(g, u, 1.0).interior_norm)
    assert norms[1] <= norms[0] / 1.7          # first order or better
    assert norms[0] <= 0.05


def test_pde_residual_zero_field(disc_grid):
    res = dg.pde_residual(disc_grid, np.zeros(disc_grid.n_nodes), 1.0)
    assert res.interior_norm == 0.0
    assert res.bracket_violation == 0.0
    assert res.flux_norm == 0.0


def test_pde_residual_converged_minimizers(disc_grid, disc_min_q1, disc_min_q15):
    for rep, q in ((disc_min_q1, 1.0), (disc_min_q15, 1.5)):
        res = dg.pde_residual(disc_grid, rep.u, q)
        assert res.interior_norm <= 0.01
        assert res.bracket_violation == 0.0
        assert res.flux_norm <= 1e-10


def test_quantization_floor(disc_grid):
    assert dg.quantization_floor(disc_grid, np.ones(disc_grid.n_nodes)) == 0.0
    floor = dg.quantization_floor(disc_grid, disc_grid.x1)
    assert 0.0 < floor <= 0.06


def test_polarization_consistency_on_fs_field(disc_grid):
    # conserved quantities at the level where they hold exactly on the grid
    r, th = polar_coords(disc_grid)
    u = np.maximum(1 - r, 0) * np.cos(th)
    for hid in range(0, disc_grid.shape[1], 8):
        uh = polarize(disc_grid, u, hid, toward=(1.0, 0.0))
        assert geo.dirichlet_energy(disc_grid, uh) == pytest.approx(
            geo.dirichlet_energy(disc_grid, u), abs=1e-12)
    rep = dg.foliated_schwarz_check(disc_grid, u)
    assert rep.polarization_defect <= 1e-12
