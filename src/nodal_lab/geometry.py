"""Structured grids with quadrature weights and a discrete Dirichlet form.

Supported domains: symmetric interval (-L, L), origin-centered rectangle,
disc, annulus.  Every grid is a tensor product of its axes, and the
Dirichlet form sums, in one walk along them, over node pairs ("edges") of
neighbours in the node-index array with finite-volume transmissibilities
tau = face/length, so minimizers of the discrete energy satisfy the natural
zero-flux boundary condition automatically; no boundary terms are ever
assembled.

build_grid makes every grid, those of grid_from_dict and coarsen too, so its
node-count checks hold for all of them.  One neighbour walk (_walk) serves the
Dirichlet energy, edge_form, laplacian, gradient_magnitude and the
diagnostics' quantization floor and nodal-domain labelling; no edge list is
stored.  The axis node positions a grid stores are what prolong and the
symmetry diagnostics read.  Exact reflections, which no command needs, live in
tests/conftest.py as the reference the tests hold the polarization defect to.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

# kind -> (its size key, its size count, the names of its node counts).
# The size key names the size in DomainSpec.to_dict and from_dict, and the
# counts name the axes of the grid's shape in order.
_KINDS = {
    "interval": ("half_length", 1, ("n",)),
    "rectangle": ("sides", 2, ("n1", "n2")),
    "disc": ("radius", 1, ("nr", "ntheta")),
    "annulus": ("radii", 2, ("nr", "ntheta")),
}

_DENSE_NODES = 256     # up to this many nodes, h1_solve is one dense product


@dataclass(frozen=True)
class DomainSpec:
    """A domain: its kind and its size, a tuple of floats: (L,) for the
    interval (-L, L), the sides (a, b) of the origin-centered rectangle,
    (R,) for the disc and the radii (inner, outer) of the annulus.  All
    lengths are dimensionless.  __post_init__ checks every size, from a
    constructor or a dict, and stores it as floats; a lone number stands
    for a size of one value."""

    kind: str
    size: tuple[float, ...]

    def __post_init__(self):
        if not isinstance(self.kind, str) or self.kind not in _KINDS:
            raise ValueError(f"invalid-spec: unknown domain kind {self.kind!r}")
        key, count, _ = _KINDS[self.kind]
        values = list(self.size) if isinstance(self.size, (tuple, list)) else [self.size]
        # a bool is no number; written so that NaN, and an int no float
        # holds, fail it
        if len(values) != count or not all(
                isinstance(v, (int, float)) and not isinstance(v, bool)
                and 0 < v <= sys.float_info.max for v in values):
            raise ValueError(f"invalid-spec: {self.kind} {key} must be {count} finite "
                             f"number(s) > 0, got {self.size!r}")
        if self.kind == "annulus" and not values[0] < values[1]:
            raise ValueError("invalid-spec: annulus needs 0 < inner < outer")
        object.__setattr__(self, "size", tuple(map(float, values)))

    @classmethod
    def interval(cls, half_length: float) -> "DomainSpec":
        return cls("interval", (half_length,))

    @classmethod
    def rectangle(cls, a: float, b: float) -> "DomainSpec":
        return cls("rectangle", (a, b))

    @classmethod
    def disc(cls, radius: float) -> "DomainSpec":
        return cls("disc", (radius,))

    @classmethod
    def annulus(cls, inner: float, outer: float) -> "DomainSpec":
        return cls("annulus", (inner, outer))

    @property
    def measure(self) -> float:
        """Total measure of the domain, in closed form."""
        if self.kind == "interval":
            return 2.0 * self.size[0]
        if self.kind == "rectangle":
            return self.size[0] * self.size[1]
        inner, outer = (0.0, *self.size)[-2:]      # a disc's inner radius is 0
        return math.pi * (outer**2 - inner**2)

    def to_dict(self) -> dict:
        key, count, _ = _KINDS[self.kind]
        return {"kind": self.kind, key: list(self.size) if count > 1 else self.size[0]}

    @classmethod
    def from_dict(cls, d: dict) -> "DomainSpec":
        """The spec of to_dict's dict: the value under the kind's size key,
        which with "kind" must be its only key."""
        kind = d.get("kind")
        key = _KINDS[kind][0] if isinstance(kind, str) and kind in _KINDS else None
        if key is not None and set(d) != {"kind", key}:
            raise ValueError(f"invalid-spec: a {kind} domain holds kind and {key} "
                             f"alone, got {sorted(d)}")
        return cls(kind, d.get(key))


class Grid:
    """Immutable discretization carrier.

    Nodes carry positive quadrature weights summing to the domain measure
    and are numbered row-major over `shape`: (n,) on an interval, (n1, n2)
    on a rectangle and (n_r, n_theta) rings by angles on polar grids, so
    np.arange(n_nodes).reshape(shape) is the node-index array, and on a
    polar grid row i of u.reshape(shape) is ring i's profile, ordered by
    angle.  axis_nodes[a] holds the increasing node positions along axis a:
    the coordinate of a box axis, the ring radii and then the angles on
    polar grids.  A grid stores its weights, axes and axis_nodes, no
    per-node coordinates: coords and x1 are computed from axis_nodes.

    axes[a] = (periodic, face, length) describes the edges along axis a:
    every node of the index array is joined to its successor along a,
    wrapping around when periodic, and face and length are the face area
    and node distance of those edges, arrays broadcasting over them with a
    singleton dimension wherever they are constant.  With the
    transmissibility tau = face/length they define the discrete Dirichlet
    form sum_e tau_e (u_i - u_j)^2 = u.K.u, whose matrix K is symmetric PSD
    with kernel equal to the constant fields; no code stores the edges or
    assembles K.  Construct via build_grid().
    """

    def __init__(self, domain, weights, axes, axis_nodes):
        self.domain = domain
        self.weights = weights
        self.axes = axes              # per axis (periodic, face, length)
        self.axis_nodes = axis_nodes  # per axis its node positions, increasing
        self.shape = tuple(len(x) for x in axis_nodes)
        self.n_nodes = weights.size
        for a in (weights, *axis_nodes):
            a.setflags(write=False)
        self._h1_solve = None

    # -- basic queries ------------------------------------------------------

    @property
    def kind(self) -> str:
        return self.domain.kind

    @property
    def is_polar(self) -> bool:
        return self.axes[-1][0]

    @property
    def resolution(self) -> dict:
        """The node counts by name: {"n"}, {"n1", "n2"} or {"nr", "ntheta"}."""
        return dict(zip(_KINDS[self.kind][2], self.shape))

    @property
    def coords(self) -> np.ndarray:
        """Cartesian coordinates of the nodes, one row per node, computed
        from axis_nodes on each call: no grid stores them."""
        if self.is_polar:
            r, theta = self.axis_nodes
            return np.column_stack([np.multiply.outer(r, f(theta)).ravel()
                                    for f in (np.cos, np.sin)])
        return np.column_stack([x.ravel() for x in np.meshgrid(*self.axis_nodes, indexing="ij")])

    @property
    def x1(self) -> np.ndarray:
        """First Cartesian coordinate of every node (dipole direction)."""
        return self.coords[:, 0]

    def h1_solve(self, rhs: np.ndarray) -> np.ndarray:
        """Solve (K + diag(w)) x = rhs, rhs of shape (n_nodes,) or a block
        (n_nodes, k), by _separable_solver, built on the first call and
        cached: on a grid of at most _DENSE_NODES nodes, one product with
        the dense inverse it builds."""
        if self._h1_solve is None:
            self._h1_solve = _separable_solver(self.shape, self.axes, self.weights)
        return self._h1_solve(rhs)

    def to_dict(self) -> dict:
        return {"domain": self.domain.to_dict(), "resolution": self.resolution}

    def __repr__(self):
        return f"Grid({self.kind}, {self.resolution}, n={self.n_nodes})"


# -- construction -----------------------------------------------------------

def _symmetric_line(n: int, half_length: float) -> tuple[np.ndarray, float]:
    # node layout symmetric in exact arithmetic: x_i = (i - (n-1)/2) * dx
    dx = 2.0 * half_length / (n - 1)
    x = (np.arange(n) - (n - 1) / 2.0) * dx
    return x, dx


def _trapezoid_weights(n: int, dx: float) -> np.ndarray:
    w = np.full(n, dx)
    w[0] = w[-1] = dx / 2.0
    return w


def _separable_solver(shape: tuple[int, ...], axes, weights: np.ndarray):
    """Solver of (K + diag(w)) x = b on a grid, the interval (n,) read as
    (1, n) (fast Poisson solver: Hockney 1965, Buzbee-Golub-Nielson 1970).

    On every grid w = a[i] m[j] with m the last axis's 1-D weights (taken
    as the first row of w, so a[0] = 1), axis-0 transmissibilities are
    t[i] m[j] and last-axis ones c[i], constant along that axis.  Divided
    by m, the last-axis term is c[i] times the 1-D Laplacian in the metric
    m, which the real FFT diagonalizes: of the row on a periodic axis
    (constant m), of its even extension of length 2(n - 1) otherwise
    (DCT-I, exact for trapezoid m).  Each mode then leaves one symmetric
    tridiagonal system along axis 0, with diagonal b and off-diagonal e,
    and odd-even cyclic reduction solves them all in about log2(n0)
    vectorized levels.  A level eliminates the even rows,
    x[2k] = (f[2k] - e[2k-1] x[2k-1] - e[2k] x[2k+1]) / b[2k], which leaves
    a tridiagonal system of the same form in the odd rows.  The level
    coefficients are real: they are built once, repeated per re/im pair and
    applied to the float view of the spectrum.  The solve takes b of shape
    (n_nodes,) or a block (n_nodes, k), whose k columns ride along a middle
    axis; each column's x is bitwise that of its own solve.

    On a grid of at most _DENSE_NODES nodes the solver returns h @ b
    instead, with h = (K + diag(w))^{-1} built once as the block solve of
    the identity (a direct solve on the coarsest level, as in multigrid:
    Brandt, Math. Comp. 1977).  There the separable solve is per-call
    overhead: an rFFT, about 40 small cyclic-reduction ops and an inverse
    rFFT.  Per call with one BLAS thread (2-core x86-64, numpy 2.4) the
    separable solve against the product took 47 against 2.4 us on the
    8 x 16 disc, 66 against 6.8 us on the 16 x 16 rectangle (h built in
    2.4 ms, 512 KiB), but 65 against 47 us on the 16 x 32 disc (built in
    6.7 ms, 2 MiB), and from 576 nodes the product is the slower.  h is
    not taken from np.linalg.inv: its first call in a process raised
    ru_maxrss by 1.1 MiB on the 8 x 16 disc, the block solve and first
    product by 0.5 MiB.
    """
    n0, n = (1, *shape)[-2:]
    w = weights.reshape(n0, n)
    m = w[0]
    *rest, (periodic, face, length) = axes
    c = np.broadcast_to(face / length, (n0, 1))
    t = np.zeros(n0 - 1)
    for _, f, ln in rest:                  # axis 0 of a 2-D grid
        t = np.broadcast_to(f / ln, (n0 - 1, n))[:, 0] / m[0]
    p = n if periodic else 2 * (n - 1)
    # eigenvalues of the 1-D Laplacian in the metric m; m[1] is interior
    lam = (2.0 - 2.0 * np.cos(2.0 * np.pi * np.arange(p // 2 + 1) / p)) / m[1]
    diag = (w[:, 0] / m[0] + np.pad(t, (1, 0)) + np.pad(t, (0, 1)))[:, None] + c * lam
    b = np.repeat(diag, 2, axis=1)
    e = np.broadcast_to(-t[:, None], (n0 - 1, b.shape[1]))
    # per level: the inverse pivots 1/b[2k] of the even rows, and their
    # couplings right[k] = e[2k] / b[2k] to the odd row after them and
    # left[k] = e[2k+1] / b[2k+2] to the odd row before them
    levels = []
    while True:
        inv = 1.0 / b[0::2]
        right = e[0::2] * inv[:len(b) // 2]
        left = e[1::2] * inv[1:]
        levels.append((inv[:, None], right[:, None], left[:, None]))
        if len(b) == 1:
            break
        b = b[1::2] - right * e[0::2]
        b[:len(left)] -= left * e[1::2]
        e = -left[:len(b) - 1] * e[2::2]

    def solve(rhs: np.ndarray) -> np.ndarray:
        # the k right-hand sides as (n0, k, n), C-ordered so that the float
        # view below exists: the middle axis rides along
        r = np.divide(rhs.reshape(n0, n, -1).transpose(0, 2, 1), m, order="C")
        y = np.fft.rfft(r if periodic else np.concatenate([r, r[..., -2:0:-1]], axis=-1),
                        axis=-1)
        del r                              # the rest works on y alone
        # in place on the float view: each level's odd rows are the next
        # level, and back substitution overwrites its even rows with x
        f = y.view(float)
        rows = []
        for _, right, left in levels[:-1]:
            even, f = f[0::2], f[1::2]
            f -= right * even[:len(right)]
            f[:len(left)] -= left * even[1:]
            rows.append((even, f))
        f *= levels[-1][0]
        for (inv, right, left), (even, odd) in zip(levels[-2::-1], rows[::-1]):
            even *= inv
            even[:len(right)] -= right * odd
            even[1:] -= left * odd[:len(left)]
        x = np.fft.irfft(y, p, axis=-1)[..., :n]
        return x.transpose(0, 2, 1).reshape(rhs.shape)

    if n0 * n > _DENSE_NODES:
        return solve
    h = solve(np.eye(n0 * n))              # column j is the solve of e_j
    return lambda rhs: h @ rhs


def _build_box(spec: DomainSpec, counts: tuple[int, ...]) -> Grid:
    """Interval (one axis) and rectangle (two axes) grids: the tensor
    product of symmetric lines with trapezoid weights.  An edge along axis
    a has length dx_a and as face the product of the other axes' weights."""
    halves = spec.size if spec.kind == "interval" else [s / 2.0 for s in spec.size]
    xs, dxs = zip(*(_symmetric_line(n, h) for n, h in zip(counts, halves)))
    # each axis's weights, shaped to broadcast along that axis
    ws = [_trapezoid_weights(n, dx).reshape(-1, *[1] * (len(counts) - 1 - a))
          for a, (n, dx) in enumerate(zip(counts, dxs))]
    axes = [(False, math.prod((w for b, w in enumerate(ws) if b != a), start=1.0), dx)
            for a, dx in enumerate(dxs)]
    return Grid(spec, math.prod(ws).ravel(), axes, xs)


def _build_polar(spec: DomainSpec, nr: int, ntheta: int) -> Grid:
    """Common assembly for disc and annulus grids.

    Disc rings sit at r_j = (j + 1/2) dr with dr = R / (nr - 1/2): the first
    ring is the center cell's midpoint (no node at r = 0, where the measure
    vanishes) and the outermost ring lies on the boundary, so radial edge
    control volumes tile the whole radius and the Dirichlet form is
    second-order accurate up to the wall.  Annulus rings are uniform from
    inner to outer radius inclusive.
    """
    if spec.kind == "disc":
        R, = spec.size
        dr = R / (nr - 0.5)
        ring_r = (np.arange(nr) + 0.5) * (R / (nr - 0.5))
        ring_r[-1] = R
        # cell boundaries: 0, dr, 2dr, ..., (nr-1)dr, R
        bnd = np.concatenate([[0.0], (np.arange(1, nr)) * dr, [R]])
    else:
        rin, rout = spec.size
        dr = (rout - rin) / (nr - 1)
        ring_r = rin + np.arange(nr) * dr
        ring_r[-1] = rout
        mid = 0.5 * (ring_r[:-1] + ring_r[1:])
        bnd = np.concatenate([[rin], mid, [rout]])

    ring_w = 0.5 * (bnd[1:] ** 2 - bnd[:-1] ** 2)   # integral of r dr per cell
    ring_width = bnd[1:] - bnd[:-1]
    dtheta = 2.0 * math.pi / ntheta
    thetas = np.arange(ntheta) * dtheta

    w = np.repeat(ring_w * dtheta, ntheta)

    face_r = bnd[1:-1]                      # interior face radii
    dist_r = ring_r[1:] - ring_r[:-1]
    # radial edges across the interior faces; angular edges within each
    # ring (periodic), metric factor 1/r per ring
    axes = [(False, face_r[:, None] * dtheta, dist_r[:, None]),
            (True, ring_width[:, None], (ring_r * dtheta)[:, None])]
    return Grid(spec, w, axes, (ring_r, thetas))


def build_grid(spec: DomainSpec, resolution) -> Grid:
    """Build a grid for the given domain.

    resolution: node count n for an interval, (n1, n2) node counts for a
    rectangle, (nr, ntheta) ring/angle counts for disc and annulus; one
    count stands for every direction.  Each count is an int, a Python or a
    numpy one: a float, even an integral one, or a bool raises ValueError
    (invalid-spec).  At least 8 per direction; polar grids need an even
    angle count so that axis reflections are exact node permutations.
    """
    counts = np.broadcast_to(np.array(resolution, dtype=object), len(_KINDS[spec.kind][2]))
    if not all(isinstance(n, (int, np.integer)) and not isinstance(n, bool) for n in counts):
        raise ValueError(f"invalid-spec: node counts must be integers, got {resolution!r}")
    counts = tuple(map(int, counts))
    if min(counts) < 8:
        raise ValueError("resolution-too-small: need at least 8 per direction")
    if spec.kind in ("interval", "rectangle"):
        return _build_box(spec, counts)
    if counts[1] % 2:
        raise ValueError("resolution-too-small: angular count must be even")
    return _build_polar(spec, *counts)


def grid_from_dict(d: dict) -> Grid:
    """The grid of Grid.to_dict's dict, whose resolution holds the kind's
    node counts and no other key."""
    spec = DomainSpec.from_dict(d["domain"])
    names, res = _KINDS[spec.kind][2], d["resolution"]
    if set(res) != set(names):
        raise ValueError(f"invalid-spec: a {spec.kind} resolution holds "
                         f"{', '.join(names)} alone, got {sorted(res)}")
    return build_grid(spec, [res[name] for name in names])


def coarsen(grid: Grid) -> Grid | None:
    """The same domain at half the nodes per direction (rounded down), or
    None where build_grid refuses that resolution."""
    try:
        return build_grid(grid.domain, [n // 2 for n in grid.shape])
    except ValueError:
        return None


def prolong(coarse: Grid, fine: Grid, u: np.ndarray) -> np.ndarray:
    """A field of coarse interpolated onto fine, the same domain's grid:
    separable linear interpolation along each axis, periodic in the angle
    on polar grids and clamped at the ends of the coarse node range.  Each
    value is u_lo + t (u_hi - u_lo), so constants come back exactly."""
    u = _check_field(coarse, u).reshape(coarse.shape)
    for a, (xc, xf) in enumerate(zip(coarse.axis_nodes, fine.axis_nodes)):
        if coarse.axes[a][0]:             # periodic: the first slice again at 2 pi
            xc = np.append(xc, 2.0 * math.pi)
            u = np.concatenate([u, u.take([0], axis=a)], axis=a)
        lo = np.clip(np.searchsorted(xc, xf, side="right") - 1, 0, len(xc) - 2)
        t = np.clip((xf - xc[lo]) / (xc[lo + 1] - xc[lo]), 0.0, 1.0)
        t = t.reshape(-1, *[1] * (u.ndim - 1 - a))
        u_lo = u.take(lo, axis=a)
        u = u_lo + t * (u.take(lo + 1, axis=a) - u_lo)
    return u.ravel()


def __getattr__(name):
    # geometry.spla exists only for the benchmark's tracer, which wraps
    # spla.factorized (ROADMAP item 1 removes that wrapper); scipy is
    # imported when the tracer asks for it and on no other path
    if name == "spla":
        import scipy.sparse.linalg
        return scipy.sparse.linalg
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


# -- field operations -------------------------------------------------------

def _check_field(grid: Grid, u: np.ndarray) -> np.ndarray:
    u = np.asarray(u, dtype=float)
    if u.shape != (grid.n_nodes,):
        raise ValueError(f"size mismatch: field has shape {u.shape}, "
                         f"grid has {grid.n_nodes} nodes")
    return u


def integrate(grid: Grid, f: np.ndarray) -> float:
    """Quadrature sum_i w_i f_i."""
    f = _check_field(grid, f)
    return float(np.dot(grid.weights, f))


def _walk(grid: Grid, *fields: np.ndarray):
    """The one neighbour walk of the Dirichlet form, over flat fields.

    Along axis a of grid.axes a node's successor sits prod(shape[a+1:])
    places on in the flat node order; from the last slice along a it wraps
    around to the first one if a is periodic, and there is none otherwise.
    Yields per axis (a, edges, d...), one d per field, shaped like the node
    array: every node's difference u - u(successor), 0 where it has no
    successor.  The axis's face and length broadcast over d[edges].  The d
    arrays are overwritten by the next axis (fewer large temporaries).
    """
    ds = [np.empty(grid.shape, dtype=u.dtype) for u in fields]
    for a, (periodic, _, _) in enumerate(grid.axes):
        s = math.prod(grid.shape[a + 1:])
        pre = (slice(None),) * a
        for u, d in zip(fields, ds):
            np.subtract(u[:-s], u[s:], out=d.reshape(-1)[:-s])
            u = u.reshape(grid.shape)
            d[pre + (-1,)] = u[pre + (-1,)] - u[pre + (0,)] if periodic else 0
        yield a, pre + (slice(None, None if periodic else -1),), *ds


def dirichlet_energy(grid: Grid, u: np.ndarray) -> float:
    """Discrete Dirichlet integral of |grad u|^2; zero iff u is constant."""
    return edge_form(grid, u, u)


def edge_form(grid: Grid, u: np.ndarray, v: np.ndarray) -> float:
    """Bilinear Dirichlet form sum_e tau_e (u_i - u_j)(v_i - v_j), summed
    axis by axis over one walk of u and v, or of u alone when v is u."""
    u, v = _check_field(grid, u), _check_field(grid, v)
    total = 0.0
    for a, edges, *d in _walk(grid, *((u,) if v is u else (u, v))):
        _, face, length = grid.axes[a]
        p = np.multiply(d[0], d[-1], out=d[0])
        p[edges] *= face / length
        total += float(p.sum())
    return total


def laplacian(grid: Grid, u: np.ndarray) -> np.ndarray:
    """Weighted graph Laplacian L_h u = (K u) / w.

    Sign convention: L_h approximates -Delta u, and by construction
    edge_form(u, v) == integrate(v * laplacian(u)) up to roundoff, which
    encodes the natural Neumann boundary condition.  K u is summed axis by
    axis from the edge fluxes of the walk.
    """
    u = _check_field(grid, u)
    ku = np.zeros(grid.n_nodes)
    for a, edges, flux in _walk(grid, u):
        periodic, face, length = grid.axes[a]
        # the flux (u_lo - u_hi) tau of every edge, held at lo: added there
        # and subtracted at hi, s places on in the flat order, except that a
        # wrapping edge's hi is on the first slice: its flux is subtracted
        # there and zeroed before the flat slices
        flux[edges] *= face / length
        pre = (slice(None),) * a
        ku += flux.reshape(-1)
        if periodic:
            ku.reshape(grid.shape)[pre + (0,)] -= flux[pre + (-1,)]
            flux[pre + (-1,)] = 0.0
        s = math.prod(grid.shape[a + 1:])
        ku[s:] -= flux.reshape(-1)[:-s]
    return np.divide(ku, grid.weights, out=ku)


def gradient_magnitude(grid: Grid, u: np.ndarray) -> np.ndarray:
    """Nodal |grad u|: per axis, the mean squared slope of the node's edges
    along that axis, summed over the axes (used only for diagnostics)."""
    u = _check_field(grid, u)
    total = np.zeros(grid.shape)
    for a, edges, d in _walk(grid, u):
        # squared slope of each node's edge to its successor, and edge
        # count, 0 where it has none; rolled by one, of its predecessor's
        slope2, count = np.zeros((2, *grid.shape))
        slope2[edges] = (d[edges] / grid.axes[a][2]) ** 2
        count[edges] = 1.0
        total += (slope2 + np.roll(slope2, 1, axis=a)) / (count + np.roll(count, 1, axis=a))
    return np.sqrt(total).ravel()


# -- field I/O ---------------------------------------------------------------

def write_field_csv(grid: Grid, u: np.ndarray, path) -> None:
    """Dump a field as a .npy array (the name waits for ROADMAP item 20):
    the exact float64 values, one per node in the grid's node order.  The
    grid is not written; grid_from_dict rebuilds it from the report the
    dump belongs to.  Given the open file, np.save appends no suffix to
    path, and its header is fixed, so reruns write the same bytes."""
    with open(path, "wb") as fh:
        np.save(fh, _check_field(grid, u), allow_pickle=False)


def read_field_csv(grid: Grid, path) -> np.ndarray:
    """Read back write_field_csv's .npy dump of grid, bit for bit.

    Raises ValueError, naming the cause, unless the file is a version 1.0
    .npy array (np.save writes that for any 1-D array) of <f8, shaped
    (grid.n_nodes,), with all its data and no more, and finite.  The header
    is checked first: nothing is unpickled, and no claimed shape allocated.
    """
    with open(path, "rb") as fh:
        try:
            if (version := np.lib.format.read_magic(fh)) != (1, 0):
                raise ValueError(f"version {version}, not (1, 0)")
            shape, _, dtype = np.lib.format.read_array_header_1_0(fh)
        except ValueError as exc:
            raise ValueError(f"field dump {path} is not a .npy array: {exc}") from None
        if dtype != np.dtype("<f8") or shape != (grid.n_nodes,):
            raise ValueError(f"field dump {path} holds {dtype.str} of shape {shape}, "
                             f"not <f8 of shape ({grid.n_nodes},)")
        u = np.empty(grid.n_nodes)
        if fh.readinto(u) != u.nbytes or fh.read(1):
            raise ValueError(f"field dump {path} is truncated or overlong: its data "
                             f"are not the {u.nbytes} bytes its header claims")
    if not np.isfinite(u).all():
        raise ValueError(f"field dump {path} contains non-finite values")
    return u
