import csv
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse.csgraph import connected_components

from nodal_lab import diagnostics as dg
from nodal_lab import geometry as geo
from nodal_lab import radial as rad

from conftest import polar_coords, small_grids, smooth_random_field


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
    r = np.repeat(disc_grid.polar["ring_radii"], disc_grid.shape[1])
    u = rad._closed_form_funcs(2)[0](r)
    assert dg.nodal_domains(disc_grid, u) == 2


def test_nodal_domains_invariances(disc_grid, disc_min_q1):
    u = disc_min_q1.u
    n = dg.nodal_domains(disc_grid, u)
    assert dg.nodal_domains(disc_grid, -u) == n
    assert dg.nodal_domains(disc_grid, geo.reflect(disc_grid, u, 13)) == n


def test_nodal_domains_four_quadrants(disc_grid):
    _, th = polar_coords(disc_grid)
    assert dg.nodal_domains(disc_grid, np.cos(2 * th)) == 4


def _reference_nodal_domains(grid, u, threshold):
    """Two passes, one per sign set: each set's nodes renumbered and its
    components counted on the edges with both ends in the set."""
    total = 0
    for sel in (u > threshold, u < -threshold):
        idx = np.flatnonzero(sel)
        if idx.size == 0:
            continue
        renum = -np.ones(grid.n_nodes, dtype=int)
        renum[idx] = np.arange(idx.size)
        keep = sel[grid.edge_i] & sel[grid.edge_j]
        adj = sp.csr_matrix((np.ones(np.count_nonzero(keep)),
                             (renum[grid.edge_i[keep]], renum[grid.edge_j[keep]])),
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
    assert dg.nodal_domains(grid, u, threshold) == _reference_nodal_domains(grid, u, threshold)


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
            counts[name, threshold] = dg.nodal_domains(fine_disc, u, threshold)
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
    assert dg.nodal_domains(disc_grid, disc_grid.x1, threshold=10.0) == 0
    rect = geo.build_grid(geo.DomainSpec.rectangle(1.0, 2.0), (9, 12))
    i, j = np.indices(rect.shape)
    # a checkerboard: every node a set of its own
    assert dg.nodal_domains(rect, np.where((i + j) % 2, 1.0, -1.0).ravel()) == rect.n_nodes
    # isolated nodes in a zero background, of either sign
    u = np.zeros(rect.shape)
    u[::2, ::3] = 1.0
    u[1::4, 1::3] = -0.5
    assert dg.nodal_domains(rect, u.ravel()) == np.count_nonzero(u)
    assert dg.nodal_domains(rect, u.ravel(), threshold=0.5) == np.count_nonzero(u > 0.5)


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


def test_nodal_domains_rejects_negative_threshold(disc_grid):
    with pytest.raises(ValueError):
        dg.nodal_domains(disc_grid, disc_grid.x1, -0.1)


def test_radiality_deviation(disc_grid):
    r = np.repeat(disc_grid.polar["ring_radii"], disc_grid.shape[1])
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
    r = np.repeat(disc_grid.polar["ring_radii"], disc_grid.shape[1])
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
        names = ["x", "y"][:g.domain.dim] + ["weight", "value"]
        _csv_module_reference(ref, names, [*g.coords.T, g.weights, u])
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


def test_pde_residual_closed_form_first_order():
    norms = []
    for res in [(64, 128), (128, 256)]:
        g = geo.build_grid(geo.DomainSpec.disc(1.0), res)
        r = np.repeat(g.polar["ring_radii"], g.shape[1])
        u = rad._closed_form_funcs(2)[0](r)
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


def test_w_set_check(disc_grid):
    chk = dg.w_set_check(disc_grid, disc_grid.x1, delta=0.02)
    assert chk.member
    assert chk.min_gradient_on_zero_set == pytest.approx(1.0, abs=0.05)
    u = disc_grid.x1 ** 2 - 0.25
    chk = dg.w_set_check(disc_grid, u, delta=0.02)
    assert chk.member and chk.min_gradient_on_zero_set >= 0.5
    chk = dg.w_set_check(disc_grid, np.zeros(disc_grid.n_nodes))
    assert not chk.member


def test_quantization_floor(disc_grid):
    assert dg.quantization_floor(disc_grid, np.ones(disc_grid.n_nodes)) == 0.0
    floor = dg.quantization_floor(disc_grid, disc_grid.x1)
    assert 0.0 < floor <= 0.06


def test_polarization_consistency_on_fs_field(disc_grid):
    # conserved quantities at the level where they hold exactly on the grid
    r, th = polar_coords(disc_grid)
    u = np.maximum(1 - r, 0) * np.cos(th)
    for hid in range(0, disc_grid.shape[1], 8):
        uh = geo.polarize(disc_grid, u, hid, toward=(1.0, 0.0))
        assert geo.dirichlet_energy(disc_grid, uh) == pytest.approx(
            geo.dirichlet_energy(disc_grid, u), abs=1e-12)
    rep = dg.foliated_schwarz_check(disc_grid, u)
    assert rep.polarization_defect <= 1e-12
