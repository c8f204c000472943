"""Structured grids with quadrature weights, a discrete Dirichlet form and
exact reflection symmetries.

Supported domains: symmetric interval (-L, L), origin-centered rectangle,
disc, annulus.  The Dirichlet form is assembled from node pairs ("edges")
with finite-volume transmissibilities, so minimizers of the discrete energy
satisfy the natural zero-flux boundary condition automatically; no boundary
terms are ever assembled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

_KINDS = ("interval", "rectangle", "disc", "annulus")


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
        d = {"kind": self.kind}
        if self.kind == "interval":
            d["half_length"] = self.half_length
        elif self.kind == "rectangle":
            d["sides"] = list(self.sides)
        elif self.kind == "disc":
            d["radius"] = self.radius
        else:
            d["radii"] = list(self.radii)
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "DomainSpec":
        kind = d["kind"]
        if kind == "interval":
            return cls.interval(d["half_length"])
        if kind == "rectangle":
            return cls.rectangle(*d["sides"])
        if kind == "disc":
            return cls.disc(d["radius"])
        if kind == "annulus":
            return cls.annulus(*d["radii"])
        raise ValueError(f"invalid-spec: unknown domain kind {kind!r}")


class Grid:
    """Immutable discretization carrier.

    Nodes carry positive quadrature weights summing to the domain measure
    and are numbered row-major over `shape`: (n,) on an interval, (n1, n2)
    on a rectangle and (n_r, n_theta) rings by angles on polar grids, so
    np.arange(n_nodes).reshape(shape) is the node-index array every
    reflection and angular profile reads.  The edge list (i, j,
    transmissibility tau) defines the discrete Dirichlet form
    sum_e tau_e (u_i - u_j)^2, which is symmetric PSD with kernel equal to
    the constant fields.  Construct via build_grid().
    """

    def __init__(self, domain, coords, weights, edge_i, edge_j, trans,
                 edge_axis, edge_length, resolution, shape, polar=None):
        self.domain = domain
        self.coords = coords
        self.weights = weights
        self.edge_i = edge_i
        self.edge_j = edge_j
        self.trans = trans
        self.edge_axis = edge_axis
        self.edge_length = edge_length
        self.resolution = resolution
        self.shape = shape        # row-major node layout: (n,), (n1, n2) or (n_r, n_theta)
        self.polar = polar        # ring_radii, thetas, dtheta (disc/annulus)
        self.n_nodes = coords.shape[0]
        for a in (coords, weights, trans):
            a.setflags(write=False)
        self._stiffness = None
        self._h1_solve = None

    # -- basic queries ------------------------------------------------------

    @property
    def kind(self) -> str:
        return self.domain.kind

    @property
    def is_polar(self) -> bool:
        return self.polar is not None

    @property
    def x1(self) -> np.ndarray:
        """First Cartesian coordinate of every node (dipole direction)."""
        return self.coords[:, 0]

    @property
    def stiffness(self) -> sp.csr_matrix:
        """Sparse matrix K with u.K.u = discrete Dirichlet energy."""
        if self._stiffness is None:
            n, i, j, t = self.n_nodes, self.edge_i, self.edge_j, self.trans
            rows = np.concatenate([i, j, i, j])
            cols = np.concatenate([j, i, i, j])
            vals = np.concatenate([-t, -t, t, t])
            self._stiffness = sp.csr_matrix((vals, (rows, cols)), shape=(n, n))
        return self._stiffness

    def h1_solve(self, rhs: np.ndarray) -> np.ndarray:
        """Solve (K + diag(w)) x = rhs; the factorization is cached."""
        if self._h1_solve is None:
            mat = (self.stiffness + sp.diags(self.weights)).tocsc()
            self._h1_solve = spla.factorized(mat)
        return self._h1_solve(rhs)

    def reflection_perm(self, hid: int) -> np.ndarray:
        """Node permutation of the reflection across hyperplane hid.

        On interval and rectangle grids it flips axis hid of the node-index
        array; on polar grids it maps angle column k to (hid - k) mod
        n_theta, the reflection across the line at angle hid*pi/n_theta.
        """
        idx = np.arange(self.n_nodes).reshape(self.shape)
        if self.is_polar:
            ntheta = self.shape[1]
            if not 0 <= hid < ntheta:
                raise ValueError(f"unsupported-hyperplane: id {hid} on polar grid")
            return idx[:, (hid - np.arange(ntheta)) % ntheta].ravel()
        if not 0 <= hid < len(self.shape):
            raise ValueError(f"unsupported-hyperplane: id {hid} on {self.kind}")
        return np.flip(idx, axis=hid).ravel()

    def to_dict(self) -> dict:
        return {"domain": self.domain.to_dict(), "resolution": dict(self.resolution)}

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


def _build_interval(spec: DomainSpec, n: int) -> Grid:
    x, dx = _symmetric_line(n, spec.half_length)
    w = _trapezoid_weights(n, dx)
    i = np.arange(n - 1)
    j = i + 1
    trans = np.full(n - 1, 1.0 / dx)
    axis = np.zeros(n - 1, dtype=np.int8)
    length = np.full(n - 1, dx)
    return Grid(spec, x[:, None].copy(), w, i, j, trans, axis, length,
                resolution={"n": n}, shape=(n,))


def _build_rectangle(spec: DomainSpec, n1: int, n2: int) -> Grid:
    a, b = spec.sides
    x, dx = _symmetric_line(n1, a / 2.0)
    y, dy = _symmetric_line(n2, b / 2.0)
    wx = _trapezoid_weights(n1, dx)
    wy = _trapezoid_weights(n2, dy)
    X, Y = np.meshgrid(x, y, indexing="ij")
    coords = np.column_stack([X.ravel(), Y.ravel()])
    w = np.outer(wx, wy).ravel()

    def nid(ii, jj):
        return ii * n2 + jj

    # x-direction edges: per-edge transmissibility wy/dx, y-direction: wx/dy
    ii, jj = np.meshgrid(np.arange(n1 - 1), np.arange(n2), indexing="ij")
    ei_x = nid(ii, jj).ravel()
    ej_x = nid(ii + 1, jj).ravel()
    tx = np.broadcast_to(wy / dx, ii.shape).ravel().copy()
    ii, jj = np.meshgrid(np.arange(n1), np.arange(n2 - 1), indexing="ij")
    ei_y = nid(ii, jj).ravel()
    ej_y = nid(ii, jj + 1).ravel()
    ty = np.broadcast_to((wx / dy)[:, None], ii.shape).ravel().copy()

    edge_i = np.concatenate([ei_x, ei_y])
    edge_j = np.concatenate([ej_x, ej_y])
    trans = np.concatenate([tx, ty])
    axis = np.concatenate([np.zeros(ei_x.size, dtype=np.int8),
                           np.ones(ei_y.size, dtype=np.int8)])
    length = np.concatenate([np.full(ei_x.size, dx), np.full(ei_y.size, dy)])
    return Grid(spec, coords, w, edge_i, edge_j, trans, axis, length,
                resolution={"n1": n1, "n2": n2}, shape=(n1, n2))


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

    def nid(j, k):
        return j * ntheta + k

    # radial edges across the interior faces
    jj, kk = np.meshgrid(np.arange(nr - 1), np.arange(ntheta), indexing="ij")
    ei_r = nid(jj, kk).ravel()
    ej_r = nid(jj + 1, kk).ravel()
    face_r = bnd[1:-1]                      # interior face radii
    dist_r = ring_r[1:] - ring_r[:-1]
    tr = np.broadcast_to((face_r * dtheta / dist_r)[:, None], jj.shape).ravel().copy()
    len_r = np.broadcast_to(dist_r[:, None], jj.shape).ravel().copy()

    # angular edges within each ring (periodic), metric factor 1/r per ring
    jj, kk = np.meshgrid(np.arange(nr), np.arange(ntheta), indexing="ij")
    ei_t = nid(jj, kk).ravel()
    ej_t = nid(jj, (kk + 1) % ntheta).ravel()
    tt_tr = np.broadcast_to((ring_width / (ring_r * dtheta))[:, None], jj.shape).ravel().copy()
    len_t = np.broadcast_to((ring_r * dtheta)[:, None], jj.shape).ravel().copy()

    edge_i = np.concatenate([ei_r, ei_t])
    edge_j = np.concatenate([ej_r, ej_t])
    trans = np.concatenate([tr, tt_tr])
    axis = np.concatenate([np.zeros(ei_r.size, dtype=np.int8),
                           np.ones(ei_t.size, dtype=np.int8)])
    length = np.concatenate([len_r, len_t])
    polar = {"ring_radii": ring_r, "thetas": thetas, "dtheta": dtheta}
    return Grid(spec, coords, w, edge_i, edge_j, trans, axis, length,
                resolution={"nr": nr, "ntheta": ntheta}, shape=(nr, ntheta),
                polar=polar)


def build_grid(spec: DomainSpec, resolution) -> Grid:
    """Build a grid for the given domain.

    resolution: node count n for an interval, (n1, n2) node counts for a
    rectangle, (nr, ntheta) ring/angle counts for disc and annulus.  At least
    8 per direction; polar grids need an even angle count so that axis
    reflections are exact node permutations.
    """
    if spec.kind == "interval":
        n = int(resolution if np.isscalar(resolution) else resolution[0])
        if n < 8:
            raise ValueError("resolution-too-small: need at least 8 nodes")
        return _build_interval(spec, n)
    if np.isscalar(resolution):
        resolution = (int(resolution), int(resolution))
    n1, n2 = int(resolution[0]), int(resolution[1])
    if n1 < 8 or n2 < 8:
        raise ValueError("resolution-too-small: need at least 8 per direction")
    if spec.kind == "rectangle":
        return _build_rectangle(spec, n1, n2)
    if n2 % 2:
        raise ValueError("resolution-too-small: angular count must be even")
    return _build_polar(spec, n1, n2)


def grid_from_dict(d: dict) -> Grid:
    spec = DomainSpec.from_dict(d["domain"])
    res = d["resolution"]
    if spec.kind == "interval":
        return build_grid(spec, res["n"])
    if spec.kind == "rectangle":
        return build_grid(spec, (res["n1"], res["n2"]))
    return build_grid(spec, (res["nr"], res["ntheta"]))


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
    edge_form(u, v) == integrate(v * laplacian(u)) exactly, which encodes
    the natural Neumann boundary condition.
    """
    u = _check_field(grid, u)
    return (grid.stiffness @ u) / grid.weights


def reflect(grid: Grid, u: np.ndarray, hid: int) -> np.ndarray:
    """Compose a field with the reflection across hyperplane hid (exact
    node permutation, no interpolation).

    Interval: hid 0 is x -> -x.  Rectangle: hid 0 flips x1, hid 1 flips x2.
    Polar grids: hid k reflects across the line at angle k*pi/ntheta.
    """
    u = _check_field(grid, u)
    return u[grid.reflection_perm(hid)]


def polarize(grid: Grid, u: np.ndarray, hid: int, toward=None) -> np.ndarray:
    """Two-point rearrangement across hyperplane hid: on the chosen halfspace
    take max(u, u o sigma), on the complement take min.

    The hyperplane normal is the unit vector e_hid on interval and rectangle
    grids and (-sin a, cos a) with a = hid*pi/n_theta on polar grids.
    toward: point/direction selecting the halfspace (default: positive side
    of the normal).  Nodes on the hyperplane are fixed points.
    """
    u = _check_field(grid, u)
    ur = u[grid.reflection_perm(hid)]
    if grid.is_polar:
        alpha = hid * math.pi / grid.shape[1]
        normal = np.array([-math.sin(alpha), math.cos(alpha)])
    else:
        normal = np.eye(grid.domain.dim)[hid]
    s = grid.coords @ normal
    if toward is not None and float(np.dot(toward, normal)) < 0:
        s = -s
    hi = np.maximum(u, ur)
    lo = np.minimum(u, ur)
    return np.where(s > 0, hi, np.where(s < 0, lo, u))


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
    """Nodal |grad u| reconstructed from averaged squared edge slopes,
    grouped by edge direction (used only for diagnostics)."""
    u = _check_field(grid, u)
    n = grid.n_nodes
    slopes2 = ((u[grid.edge_i] - u[grid.edge_j]) / grid.edge_length) ** 2
    total = np.zeros(n)
    for ax in (0, 1):
        mask = grid.edge_axis == ax
        if not mask.any():
            continue
        acc = np.zeros(n)
        cnt = np.zeros(n)
        np.add.at(acc, grid.edge_i[mask], slopes2[mask])
        np.add.at(acc, grid.edge_j[mask], slopes2[mask])
        np.add.at(cnt, grid.edge_i[mask], 1.0)
        np.add.at(cnt, grid.edge_j[mask], 1.0)
        total += np.divide(acc, cnt, out=np.zeros(n), where=cnt > 0)
    return np.sqrt(total)


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
        # one C-level parse of every column; csv rows through np.array take
        # three times as long
        table = np.loadtxt(fh, delimiter=",", comments=None, ndmin=2)
    if not np.array_equal(table[:, :-1], np.column_stack([grid.coords, grid.weights])):
        raise ValueError(f"field dump {path} does not match the grid's nodes and weights")
    u = table[:, -1]
    if not np.isfinite(u).all():
        raise ValueError(f"field dump {path} contains non-finite values")
    return u
