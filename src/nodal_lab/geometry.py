"""Structured grids with quadrature weights, a discrete Dirichlet form and
exact reflection symmetries.

Supported domains: symmetric interval (-L, L), origin-centered rectangle,
disc, annulus.  Every grid is a tensor product of its axes, and the
Dirichlet form sums, in one walk along them, over node pairs ("edges") of
neighbours in the node-index array with finite-volume transmissibilities
tau = face/length, so minimizers of the discrete energy satisfy the natural
zero-flux boundary condition automatically; no boundary terms are ever
assembled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import write_table

# kind -> (its size parameter, the names of its node counts).  The size
# parameter is the DomainSpec field the kind's constructor fills, and the
# counts name the axes of the grid's shape in order.
_KINDS = {
    "interval": ("half_length", ("n",)),
    "rectangle": ("sides", ("n1", "n2")),
    "disc": ("radius", ("nr", "ntheta")),
    "annulus": ("radii", ("nr", "ntheta")),
}


@dataclass(frozen=True)
class DomainSpec:
    """Geometry parameters of the domain.  All lengths are dimensionless."""

    kind: str
    half_length: float | None = None          # interval (-L, L)
    sides: tuple[float, float] | None = None  # rectangle side lengths (a, b)
    radius: float | None = None               # disc radius
    radii: tuple[float, float] | None = None  # annulus (inner, outer)

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"invalid-spec: unknown domain kind {self.kind!r}")
        size = _KINDS[self.kind][0]
        value = getattr(self, size)
        values = value if isinstance(value, tuple) else (value,)
        # written so that NaN fails it
        if not all(isinstance(v, (int, float)) and math.isfinite(v) and v > 0 for v in values):
            raise ValueError(f"invalid-spec: {self.kind} {size} must be finite and > 0, "
                             f"got {value!r}")
        if self.kind == "annulus" and not values[0] < values[1]:
            raise ValueError("invalid-spec: annulus needs 0 < inner < outer")

    @classmethod
    def interval(cls, half_length: float) -> "DomainSpec":
        return cls("interval", half_length=float(half_length))

    @classmethod
    def rectangle(cls, a: float, b: float) -> "DomainSpec":
        return cls("rectangle", sides=(float(a), float(b)))

    @classmethod
    def disc(cls, radius: float) -> "DomainSpec":
        return cls("disc", radius=float(radius))

    @classmethod
    def annulus(cls, inner: float, outer: float) -> "DomainSpec":
        return cls("annulus", radii=(float(inner), float(outer)))

    @property
    def dim(self) -> int:
        return 1 if self.kind == "interval" else 2

    @property
    def measure(self) -> float:
        """Total measure of the domain, in closed form."""
        if self.kind == "interval":
            return 2.0 * self.half_length
        if self.kind == "rectangle":
            return self.sides[0] * self.sides[1]
        if self.kind == "disc":
            return math.pi * self.radius**2
        rin, rout = self.radii
        return math.pi * (rout**2 - rin**2)

    def to_dict(self) -> dict:
        size = _KINDS[self.kind][0]
        value = getattr(self, size)
        return {"kind": self.kind, size: list(value) if isinstance(value, tuple) else value}

    @classmethod
    def from_dict(cls, d: dict) -> "DomainSpec":
        kind = d["kind"]
        if kind not in _KINDS:
            raise ValueError(f"invalid-spec: unknown domain kind {kind!r}")
        size = _KINDS[kind][0]
        values = np.ravel(d.get(size)).tolist()
        count = 2 if kind in ("rectangle", "annulus") else 1
        if len(values) != count or any(type(v) not in (int, float) for v in values):
            raise ValueError(f"invalid-spec: {kind} {size} must be {count} number(s), "
                             f"got {d.get(size)!r}")
        return getattr(cls, kind)(*values)


class Grid:
    """Immutable discretization carrier.

    Nodes carry positive quadrature weights summing to the domain measure
    and are numbered row-major over `shape`: (n,) on an interval, (n1, n2)
    on a rectangle and (n_r, n_theta) rings by angles on polar grids, so
    np.arange(n_nodes).reshape(shape) is the node-index array every
    reflection and angular profile reads.

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

    def __init__(self, domain, coords, weights, axes, shape, polar=None):
        self.domain = domain
        self.coords = coords
        self.weights = weights
        self.axes = axes          # per axis (periodic, face, length)
        self.shape = shape        # row-major node layout: (n,), (n1, n2) or (n_r, n_theta)
        self.polar = polar        # ring_radii, thetas, dtheta (disc/annulus)
        self.n_nodes = coords.shape[0]
        for a in (coords, weights):
            a.setflags(write=False)
        self._h1_solve = None

    # -- basic queries ------------------------------------------------------

    @property
    def kind(self) -> str:
        return self.domain.kind

    @property
    def is_polar(self) -> bool:
        return self.polar is not None

    @property
    def resolution(self) -> dict:
        """The node counts by name: {"n"}, {"n1", "n2"} or {"nr", "ntheta"}."""
        return dict(zip(_KINDS[self.kind][1], self.shape))

    @property
    def x1(self) -> np.ndarray:
        """First Cartesian coordinate of every node (dipole direction)."""
        return self.coords[:, 0]

    def h1_solve(self, rhs: np.ndarray) -> np.ndarray:
        """Solve (K + diag(w)) x = rhs by _separable_solver, built on the
        first call and cached."""
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
    applied to the float view of the spectrum.
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
        levels.append((inv, right, left))
        if len(b) == 1:
            break
        b = b[1::2] - right * e[0::2]
        b[:len(left)] -= left * e[1::2]
        e = -left[:len(b) - 1] * e[2::2]

    def solve(rhs: np.ndarray) -> np.ndarray:
        r = rhs.reshape(n0, n) / m
        y = np.fft.rfft(r if periodic else np.concatenate([r, r[:, -2:0:-1]], axis=1),
                        axis=1)
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
        return np.fft.irfft(y, p, axis=1)[:, :n].ravel()

    return solve


def _build_box(spec: DomainSpec, counts: tuple[int, ...]) -> Grid:
    """Interval (one axis) and rectangle (two axes) grids: the tensor
    product of symmetric lines with trapezoid weights.  An edge along axis
    a has length dx_a and as face the product of the other axes' weights."""
    halves = ((spec.half_length,) if spec.kind == "interval"
              else (spec.sides[0] / 2.0, spec.sides[1] / 2.0))
    xs, dxs = zip(*(_symmetric_line(n, h) for n, h in zip(counts, halves)))
    # each axis's weights, shaped to broadcast along that axis
    ws = [_trapezoid_weights(n, dx).reshape(-1, *[1] * (len(counts) - 1 - a))
          for a, (n, dx) in enumerate(zip(counts, dxs))]
    axes = [(False, math.prod((w for b, w in enumerate(ws) if b != a), start=1.0), dx)
            for a, dx in enumerate(dxs)]
    coords = np.column_stack([c.ravel() for c in np.meshgrid(*xs, indexing="ij")])
    return Grid(spec, coords, math.prod(ws).ravel(), axes, shape=counts)


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
        R = spec.radius
        dr = R / (nr - 0.5)
        ring_r = (np.arange(nr) + 0.5) * (R / (nr - 0.5))
        ring_r[-1] = R
        # cell boundaries: 0, dr, 2dr, ..., (nr-1)dr, R
        bnd = np.concatenate([[0.0], (np.arange(1, nr)) * dr, [R]])
    else:
        rin, rout = spec.radii
        dr = (rout - rin) / (nr - 1)
        ring_r = rin + np.arange(nr) * dr
        ring_r[-1] = rout
        mid = 0.5 * (ring_r[:-1] + ring_r[1:])
        bnd = np.concatenate([[rin], mid, [rout]])

    ring_w = 0.5 * (bnd[1:] ** 2 - bnd[:-1] ** 2)   # integral of r dr per cell
    ring_width = bnd[1:] - bnd[:-1]
    dtheta = 2.0 * math.pi / ntheta
    thetas = np.arange(ntheta) * dtheta

    coords = np.empty((nr * ntheta, 2))
    rr = np.repeat(ring_r, ntheta)
    tt = np.tile(thetas, nr)
    coords[:, 0] = rr * np.cos(tt)
    coords[:, 1] = rr * np.sin(tt)
    w = np.repeat(ring_w * dtheta, ntheta)

    face_r = bnd[1:-1]                      # interior face radii
    dist_r = ring_r[1:] - ring_r[:-1]
    # radial edges across the interior faces; angular edges within each
    # ring (periodic), metric factor 1/r per ring
    axes = [(False, face_r[:, None] * dtheta, dist_r[:, None]),
            (True, ring_width[:, None], (ring_r * dtheta)[:, None])]
    polar = {"ring_radii": ring_r, "thetas": thetas, "dtheta": dtheta}
    return Grid(spec, coords, w, axes, shape=(nr, ntheta), polar=polar)


def build_grid(spec: DomainSpec, resolution) -> Grid:
    """Build a grid for the given domain.

    resolution: node count n for an interval, (n1, n2) node counts for a
    rectangle, (nr, ntheta) ring/angle counts for disc and annulus; one
    count stands for every direction.  At least 8 per direction; polar grids
    need an even angle count so that axis reflections are exact node
    permutations.
    """
    counts = tuple(int(n) for n in np.broadcast_to(resolution, len(_KINDS[spec.kind][1])))
    if min(counts) < 8:
        raise ValueError("resolution-too-small: need at least 8 per direction")
    if spec.kind in ("interval", "rectangle"):
        return _build_box(spec, counts)
    if counts[1] % 2:
        raise ValueError("resolution-too-small: angular count must be even")
    return _build_polar(spec, *counts)


def grid_from_dict(d: dict) -> Grid:
    spec = DomainSpec.from_dict(d["domain"])
    return build_grid(spec, [d["resolution"][name] for name in _KINDS[spec.kind][1]])


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


def reflect(grid: Grid, u: np.ndarray, hid: int) -> np.ndarray:
    """Compose a field with the reflection across hyperplane hid (exact
    node permutation, no interpolation).

    Interval: hid 0 is x -> -x.  Rectangle: hid 0 flips x1, hid 1 flips x2;
    both flip axis hid of the field's node array.  Polar grids: hid k
    reflects across the line at angle k*pi/ntheta: angle column j of the
    result is column (k - j) mod ntheta of u.
    """
    u = _check_field(grid, u).reshape(grid.shape)
    if grid.is_polar:
        ntheta = grid.shape[1]
        if not 0 <= hid < ntheta:
            raise ValueError(f"unsupported-hyperplane: id {hid} on polar grid")
        return u[:, (hid - np.arange(ntheta)) % ntheta].ravel()
    if not 0 <= hid < len(grid.shape):
        raise ValueError(f"unsupported-hyperplane: id {hid} on {grid.kind}")
    return np.flip(u, axis=hid).ravel()


def polarize(grid: Grid, u: np.ndarray, hid: int, toward=None) -> np.ndarray:
    """Two-point rearrangement across hyperplane hid: on the chosen halfspace
    take max(u, u o sigma), on the complement take min.

    The hyperplane normal is the unit vector e_hid on interval and rectangle
    grids and (-sin a, cos a) with a = hid*pi/n_theta on polar grids, so a
    node's side is the sign of its coordinate x_hid, or of sin(theta - a),
    one value per angle column.  toward: point/direction selecting the
    halfspace (default: positive side of the normal).  Nodes on the
    hyperplane are fixed points of the reflection, where u == u o sigma, so
    either branch keeps them.
    """
    ur = reflect(grid, u, hid).reshape(grid.shape)
    u = _check_field(grid, u).reshape(grid.shape)
    if grid.is_polar:
        alpha = hid * math.pi / grid.shape[1]
        normal = np.array([-math.sin(alpha), math.cos(alpha)])
        side = np.sin(grid.polar["thetas"] - alpha)
    else:
        normal = np.eye(grid.domain.dim)[hid]
        side = grid.coords[:, hid].reshape(grid.shape)
    if toward is not None and float(np.dot(toward, normal)) < 0:
        side = -side
    return np.where(side > 0, np.maximum(u, ur), np.minimum(u, ur)).ravel()


def angular_profiles(grid: Grid, u: np.ndarray):
    """Per-ring node values ordered by polar angle, plus ring averages.

    Returns (profiles, ring_means) where profiles has shape (n_r, n_theta)
    with column k at angle theta_k, and ring_means is the plain average of
    each ring (weights are constant within a ring).
    """
    if not grid.is_polar:
        raise ValueError("wrong-domain-kind: angular profiles need a polar grid")
    u = _check_field(grid, u)
    profiles = u.reshape(grid.shape)
    return profiles, profiles.mean(axis=1)


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
    """Dump a field as CSV: the header `value`, then one node per row in
    the grid's node order, 17 significant digits.  The grid itself is not
    written; grid_from_dict rebuilds it, coordinates and weights included,
    from the report the dump belongs to."""
    write_table(path, "value", zip(_check_field(grid, u).tolist()), "%.17g")


def read_field_csv(grid: Grid, path) -> np.ndarray:
    """Read back a field dump of grid.

    Raises ValueError unless the dump has write_field_csv's header, one row
    per node of grid and finite values (%.17g round-trips every double).
    """
    path = Path(path)
    with path.open(newline="") as fh:
        header, *rows = fh.read().splitlines() or [""]
    if header != "value":
        raise ValueError(f"field dump {path} has no 'value' header")
    if len(rows) != grid.n_nodes:
        raise ValueError(f"field dump {path} has {len(rows) or 'no'} rows, "
                         f"its grid {grid.n_nodes} nodes")
    u = np.array(rows, dtype=float)
    if not np.isfinite(u).all():
        raise ValueError(f"field dump {path} contains non-finite values")
    return u
