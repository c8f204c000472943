"""Structured grids with quadrature weights, a discrete Dirichlet form and
exact reflection symmetries.

Supported domains: symmetric interval (-L, L), origin-centered rectangle,
disc, annulus.  Every grid is a tensor product of its axes, and the
Dirichlet form is assembled from node pairs ("edges") of neighbours in the
node-index array with finite-volume transmissibilities tau = face/length,
so minimizers of the discrete energy satisfy the natural zero-flux
boundary condition automatically; no boundary terms are ever assembled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

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
        if self.kind == "interval":
            if self.half_length is None or self.half_length <= 0:
                raise ValueError("invalid-spec: interval half-length must be > 0")
        elif self.kind == "rectangle":
            if self.sides is None or min(self.sides) <= 0:
                raise ValueError("invalid-spec: rectangle sides must be > 0")
        elif self.kind == "disc":
            if self.radius is None or self.radius <= 0:
                raise ValueError("invalid-spec: disc radius must be > 0")
        else:
            if self.radii is None or self.radii[0] <= 0 or self.radii[0] >= self.radii[1]:
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
        return getattr(cls, kind)(*np.ravel(d[_KINDS[kind][0]]).tolist())


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
    singleton dimension wherever they are constant.  The edge list (i, j,
    transmissibility tau = face/length) defines the discrete Dirichlet form
    sum_e tau_e (u_i - u_j)^2 = u.K.u, whose matrix K is symmetric PSD with
    kernel equal to the constant fields; no code assembles K.  Construct
    via build_grid().
    """

    def __init__(self, domain, coords, weights, axes, shape, polar=None):
        self.domain = domain
        self.coords = coords
        self.weights = weights
        self.axes = axes          # per axis (periodic, face, length)
        self.shape = shape        # row-major node layout: (n,), (n1, n2) or (n_r, n_theta)
        self.polar = polar        # ring_radii, thetas, dtheta (disc/annulus)
        self.n_nodes = coords.shape[0]
        self.edge_i, self.edge_j, self.trans = _edges(shape, axes)
        for a in (coords, weights, self.trans):
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


def _axis_pairs(x: np.ndarray, axis: int, periodic: bool):
    """x and its successor along axis: the last slice of both is dropped
    unless the axis is periodic, where the successor wraps around."""
    y = np.roll(x, -1, axis=axis)
    if periodic:
        return x, y
    return np.delete(x, -1, axis=axis), np.delete(y, -1, axis=axis)


def _edges(shape: tuple[int, ...], axes) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Edge arrays (i, j, tau) joining index-array neighbours, axis by axis."""
    idx = np.arange(math.prod(shape)).reshape(shape)
    parts = []
    for a, (periodic, face, length) in enumerate(axes):
        i, j = _axis_pairs(idx, a, periodic)
        parts.append((i.ravel(), j.ravel(), np.broadcast_to(face / length, i.shape).ravel()))
    return tuple(np.concatenate(p) for p in zip(*parts))


def _separable_solver(shape: tuple[int, ...], axes, weights: np.ndarray):
    """Solver of (K + diag(w)) x = b on a grid, the interval (n,) read as
    (1, n) (fast Poisson solver: Hockney 1965, Buzbee-Golub-Nielson 1970).

    On every grid w = a[i] m[j] with m the last axis's 1-D weights (taken
    as the first row of w, so a[0] = 1), axis-0 transmissibilities are
    t[i] m[j] and last-axis ones c[i], constant along that axis.  Divided
    by m, the last-axis term is c[i] times the 1-D Laplacian in the metric
    m, which the real FFT diagonalizes: of the row on a periodic axis
    (constant m), of its even extension of length 2(n - 1) otherwise
    (DCT-I, exact for trapezoid m).  Each mode then leaves one tridiagonal
    system along axis 0, and one Thomas sweep solves them all.
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
    # forward elimination: inverse pivots and the multipliers t[i-1]/pivot[i-1]
    inv = np.empty_like(diag)
    inv[0] = 1.0 / diag[0]
    for i in range(1, n0):
        inv[i] = 1.0 / (diag[i] - t[i - 1] ** 2 * inv[i - 1])
    mult = t[:, None] * inv[:-1]

    def solve(b: np.ndarray) -> np.ndarray:
        r = b.reshape(n0, n) / m
        y = np.fft.rfft(r if periodic else np.concatenate([r, r[:, -2:0:-1]], axis=1),
                        axis=1)
        for i in range(1, n0):
            y[i] += mult[i - 1] * y[i - 1]
        y[-1] *= inv[-1]
        for i in range(n0 - 2, -1, -1):
            y[i] = (y[i] + t[i] * y[i + 1]) * inv[i]
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


def dirichlet_energy(grid: Grid, u: np.ndarray) -> float:
    """Discrete Dirichlet integral of |grad u|^2; zero iff u is constant."""
    u = _check_field(grid, u)
    d = u[grid.edge_i] - u[grid.edge_j]
    return float(np.dot(grid.trans, d * d))


def edge_form(grid: Grid, u: np.ndarray, v: np.ndarray) -> float:
    """Bilinear Dirichlet form sum_e tau_e (u_i - u_j)(v_i - v_j)."""
    u = _check_field(grid, u)
    v = _check_field(grid, v)
    du = u[grid.edge_i] - u[grid.edge_j]
    dv = v[grid.edge_i] - v[grid.edge_j]
    return float(np.dot(grid.trans, du * dv))


def laplacian(grid: Grid, u: np.ndarray) -> np.ndarray:
    """Weighted graph Laplacian L_h u = (K u) / w.

    Sign convention: L_h approximates -Delta u, and by construction
    edge_form(u, v) == integrate(v * laplacian(u)) up to roundoff, which
    encodes the natural Neumann boundary condition.  K u is summed axis by
    axis from the edge fluxes, on flat slices of the node array.
    """
    u = _check_field(grid, u)
    ku = np.zeros(grid.n_nodes)
    flux = np.empty(grid.n_nodes)
    u2, ku2, flux2 = (x.reshape(grid.shape) for x in (u, ku, flux))
    for a, (periodic, face, length) in enumerate(grid.axes):
        # along axis a a node's successor sits s places on in the flat
        # order, but a node on the last slice has none there: its edge, on
        # a periodic axis, wraps around to the first slice
        s = math.prod(grid.shape[a + 1:])
        pre = (slice(None),) * a
        last, first = pre + (-1,), pre + (0,)
        tau = face / length
        if periodic:
            wrap = (u2[last] - u2[first]) * np.broadcast_to(tau, grid.shape)[last]
        # the flux (u_lo - u_hi) tau of every other edge, held at lo: added
        # there and subtracted at hi, both on flat slices.  tau spans the
        # edges, so every slice on a periodic axis (where the zeroed last
        # one keeps 0) and all but the last otherwise
        np.subtract(u[:-s], u[s:], out=flux[:-s])
        flux2[last] = 0.0
        flux2[pre + (slice(None, None if periodic else -1),)] *= tau
        ku += flux
        ku[s:] -= flux[:-s]
        if periodic:
            ku2[last] += wrap
            ku2[first] -= wrap
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
    u = _check_field(grid, u).reshape(grid.shape)
    total = np.zeros(grid.shape)
    for a, (periodic, _, length) in enumerate(grid.axes):
        ui, uj = _axis_pairs(u, a, periodic)
        # squared slope of each node's edge to its successor, 0 at the
        # last node of a non-periodic axis
        pad = [(0, int(b == a and not periodic)) for b in range(u.ndim)]
        out = np.pad(((ui - uj) / length) ** 2, pad)
        cnt = np.pad(np.ones(ui.shape), pad)
        total += (out + np.roll(out, 1, axis=a)) / (cnt + np.roll(cnt, 1, axis=a))
    return np.sqrt(total).ravel()


# -- field I/O ---------------------------------------------------------------

def _field_header(grid: Grid) -> str:
    return ",".join(["x", "y"][:grid.domain.dim] + ["weight", "value"])


def write_field_csv(grid: Grid, u: np.ndarray, path) -> None:
    """Dump a field as CSV, one node per row, 17 significant digits.
    Header: x,y,weight,value (interval: x,weight,value)."""
    u = _check_field(grid, u)
    cols = [*grid.coords.T, grid.weights, u]
    line = ",".join(["%.17g"] * len(cols)) + "\r\n"      # csv's line end
    with Path(path).open("w", newline="") as fh:
        fh.write(_field_header(grid) + "\r\n")
        fh.writelines(line % row for row in zip(*(c.tolist() for c in cols)))


def read_field_csv(grid: Grid, path) -> np.ndarray:
    """Read back the value column of a field dump of grid.

    Raises ValueError unless the dump has write_field_csv's header and finite
    values, and its other columns equal the grid's coordinates and weights
    exactly, row for row (%.17g round-trips every double).
    """
    path = Path(path)
    header = _field_header(grid)
    with path.open(newline="") as fh:
        if fh.readline().rstrip("\r\n") != header:
            raise ValueError(f"field dump {path} has no {header} header")
        rows = fh.tell()
        if not fh.readline().strip():       # else loadtxt warns on stderr
            raise ValueError(f"field dump {path} has no rows")
        fh.seek(rows)
        # one C-level parse of every column; csv rows through np.array take
        # three times as long
        table = np.loadtxt(fh, delimiter=",", comments=None, ndmin=2)
    if not np.array_equal(table[:, :-1], np.column_stack([grid.coords, grid.weights])):
        raise ValueError(f"field dump {path} does not match the grid's nodes and weights")
    u = table[:, -1]
    if not np.isfinite(u).all():
        raise ValueError(f"field dump {path} contains non-finite values")
    return u
