"""Qualitative certificates for computed fields: zero-set measure curves,
nodal domain counts, axial symmetry with angular monotonicity, radiality
deviation, and discrete PDE residuals.

Residual-type checks exclude nodes within one discrete jump of zero: the
sign of the field at such nodes is not grid-resolvable, so pointwise values
of the discontinuous nonlinearity are not meaningful there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import functional, geometry, write_table
from .geometry import Grid

__all__ = [
    "ZeroMeasureCurve", "SymmetryReport", "PdeResidual",
    "zero_measure_curve", "nodal_domains", "foliated_schwarz_check",
    "radiality_deviation", "pde_residual", "quantization_floor",
    "write_zero_curve_csv",
]


def quantization_floor(grid: Grid, u: np.ndarray) -> float:
    """One discrete jump of the field: the largest difference between
    neighbours.  Below this scale, pointwise signs are not resolvable."""
    u = np.asarray(u, dtype=float)
    return float(np.max([np.max(np.abs(d)) for _, _, d in geometry._walk(grid, u)]))


@dataclass
class ZeroMeasureCurve:
    deltas: np.ndarray        # thresholds, increasing
    measures: np.ndarray      # weighted measure of {|u| <= delta}
    kappa_hat: float          # least-squares slope through the origin
    floor: float              # resolvable-delta floor used for the fit
    floor_measure: float      # exact measure of {|u| <= floor}

    def measure_at_floor(self) -> float:
        return self.floor_measure


def zero_measure_curve(grid: Grid, u: np.ndarray, deltas) -> ZeroMeasureCurve:
    """Weighted measure of the near-zero set {|u| <= delta} per threshold,
    with a linear fit through the origin over the resolvable range
    (delta at or above the smallest positive |u_i|)."""
    u = np.asarray(u, dtype=float)
    deltas = np.asarray(sorted(float(d) for d in deltas))
    if deltas.size and deltas[0] <= 0:
        raise ValueError("deltas must be positive")
    absu = np.abs(u)
    measures = np.array([float(np.sum(grid.weights[absu <= d])) for d in deltas])
    pos = absu[absu > 0]
    floor = float(np.min(pos)) if pos.size else 0.0
    mask = deltas >= floor
    if mask.any() and float(np.sum(deltas[mask] ** 2)) > 0:
        kappa = float(np.sum(deltas[mask] * measures[mask])
                      / np.sum(deltas[mask] ** 2))
    else:
        kappa = 0.0
    floor_measure = float(np.sum(grid.weights[absu <= floor]))
    return ZeroMeasureCurve(deltas=deltas, measures=measures,
                            kappa_hat=kappa, floor=floor,
                            floor_measure=floor_measure)


def write_zero_curve_csv(curve: ZeroMeasureCurve, path) -> None:
    write_table(path, "delta,measure", "%.17g,%.17g", curve.deltas, curve.measures)


def nodal_domains(grid: Grid, u: np.ndarray) -> int:
    """Number of edge-connected components of {u > 0} plus those of
    {u < 0}, the nodal domains of u.

    Each node is labelled 1, -1 or 0 by its sign, and components are
    labelled over the neighbours that share a nonzero label by min-label
    hooking and pointer jumping (Shiloach & Vishkin, J. Algorithms 3,
    1982), one axis at a time: the neighbour walk of the root array gives
    every node's root minus its successor's, each pair whose difference is
    not 0 hooks the larger root to the smaller, and then every node is
    pointed at its tree's root.  The axes are swept until a sweep hooks
    nothing.  No list of node pairs is formed: a call holds a few arrays
    of one entry per node, 32-bit roots among them, and the pairs that
    still join two trees, so that few of its arrays are large enough for
    the allocator to map, fault in and unmap again on each call.
    Every 0-labelled node, a zero or NaN, stays a root of its own and is
    not counted.
    """
    u = np.asarray(u, dtype=float)
    label = (u > 0).astype(np.int8) - (u < 0)
    nonzero = (label != 0).reshape(grid.shape)
    # per axis, the nodes whose successor shares their nonzero label; the
    # walk gives a difference of 0 where a node has no successor, and so it
    # does for the roots below, so such a node never hooks
    joined = [(d == 0) & nonzero for _, _, d in geometry._walk(grid, label)]
    root = np.arange(grid.n_nodes, dtype=np.int32 if grid.n_nodes < 2**31 else np.intp)
    nodes, up = root.reshape(grid.shape), np.empty_like(root)
    hooked = True
    while hooked:
        hooked = False
        for (_, _, d), same in zip(geometry._walk(grid, root), joined):
            cross = same & (d != 0)
            if not cross.any():
                continue
            hooked = True
            ri, rj = nodes[cross], d[cross]
            np.subtract(ri, rj, out=rj)     # the successors' roots
            hi = np.maximum(ri, rj)
            np.minimum.at(root, hi, np.minimum(ri, rj, out=ri))
            # mode "clip" writes to up directly, where "raise" buffers it
            np.take(root, root, out=up, mode="clip")
            while not np.array_equal(up, root):
                root[:] = up
                np.take(root, root, out=up, mode="clip")
    return int(np.count_nonzero((root == np.arange(grid.n_nodes, dtype=root.dtype))
                                & (label != 0)))


@dataclass
class SymmetryReport:
    axis_angle: float | None
    axis_method: str                  # "fourier", "max-point" or "radial"
    monotonicity_violation: float
    polarization_defect: float
    radiality_deviation: float
    passed: bool


def radiality_deviation(grid: Grid, u: np.ndarray) -> float:
    """Weighted variance of u around its ring averages over the total
    weighted variance; 0 for ring-constant fields, 1 when ring averages
    vanish, 0/0 resolved to 0."""
    if not grid.is_polar:
        raise ValueError("wrong-domain-kind: radiality needs a polar grid")
    u = np.asarray(u, dtype=float)
    profiles = u.reshape(grid.shape)
    w = grid.weights
    mean = float(np.dot(w, u)) / float(np.sum(w))
    var_total = float(np.dot(w, (u - mean) ** 2))
    around = (profiles - profiles.mean(axis=1)[:, None]).ravel()
    var_ring = float(np.dot(w, around**2))
    if var_total == 0.0:
        return 0.0
    return var_ring / var_total


def _hyperplane_sweep(grid: Grid, u: np.ndarray,
                      toward: np.ndarray) -> tuple[float, float]:
    """The angular monotonicity violation and the polarization defect
    toward the axis direction toward, from one sweep of the polar
    hyperplanes over the ring profiles P (see foliated_schwarz_check).

    Hyperplane h, at angle a = h pi/n_theta, maps column k to its mirror
    m = (h - k) mod n_theta, and its positive side, sin(theta_k - a) > 0, is
    the contiguous range h < 2k < h + n_theta.  The angle columns are laid
    out as rows, cols = P^T, and the mirrors as the rows of the doubled
    copy [P^T; P^T] in reverse order, so that both the positive side and
    its mirrors are one contiguous forward slice.  Each hyperplane's
    differences are taken, clipped and squared in one reused buffer, then
    weighted and summed by one dot; subtracting before weighting keeps the
    defect exact on near-tied pairs.
    """
    nr, nth = grid.shape
    cols = np.ascontiguousarray(u.reshape(nr, nth).T)
    mirrors = np.concatenate((cols[::-1], cols[::-1]))
    w = np.tile(grid.weights[::nth], nth // 2)  # one weight per ring, per column
    buf = np.empty(w.size)
    violation = worst = 0.0
    for hid in range(nth):
        lo, hi = hid // 2 + 1, (hid + nth + 1) // 2
        side = cols[lo:hi].ravel()
        mirror = mirrors[nth - 1 - hid + lo:nth - 1 - hid + hi].ravel()
        f = buf[:side.size]
        alpha = hid * math.pi / nth
        # sin of the axis's angle from the line: its sign picks the axis's side
        s = float(np.dot(toward, [-math.sin(alpha), math.cos(alpha)]))
        if s < 0:
            np.subtract(side, mirror, out=f)
        else:
            np.subtract(mirror, side, out=f)
        top = float(f.max())
        if top <= 0.0:
            continue
        if abs(s) > 5e-13:
            violation = max(violation, top)
        np.maximum(f, 0.0, out=f)
        np.multiply(f, f, out=f)
        worst = max(worst, float(np.dot(f, w[:f.size])))
    return violation, math.sqrt(2.0 * worst)


def foliated_schwarz_check(grid: Grid, u: np.ndarray,
                           monotonicity_tol: float = 5e-3,
                           polarization_tol: float = 5e-3) -> SymmetryReport:
    """Axial symmetry check: estimate the symmetry axis from the first
    angular Fourier mode (falling back to the location of the maximum when
    that mode is below the noise floor), then require (a) every ring profile
    to be nonincreasing in the angular distance from the axis and (b) the
    two-point rearrangement across every grid hyperplane, oriented toward
    the axis, to leave the field unchanged in the weighted norm.  Both
    bounds are scaled by min(1, max|u|), so a field and its scaled copies
    get one verdict.

    One sweep over the grid hyperplanes gives both numbers.  Hyperplane
    h = (k + m) mod n_theta, and no other, mirrors the angle columns k != m
    onto each other, and the column on the axis's side of it is the one
    nearer the axis; the sweep forms u_far - u_near for every pair, one
    subtraction each, nr n_theta^2 / 2 in all.  (a) is the largest of these
    differences over the pairs not tied in distance to the axis.  The tie
    rule: the pairs of a hyperplane whose line lies within 5e-13 of the
    axis are tied, their distances within 1e-12, and are not compared; on
    every other hyperplane no pair is.  (b) is the largest ||u_H - u||_w,
    with u_H the rearrangement across one hyperplane (polarize in
    tests/conftest.py).  It moves both columns of a pair by the positive
    part of the difference and fixes the columns on the hyperplane, so this
    is sqrt(2) times the weighted norm of those parts, and no rearranged
    field is formed.  A hyperplane whose largest difference is <= 0 adds to
    neither number and ends after that one max (see _hyperplane_sweep).

    Fields of radiality deviation <= 1e-10 pass trivially, with no axis.
    """
    if not grid.is_polar:
        raise ValueError("wrong-domain-kind: the symmetry check needs a polar grid")
    u = np.asarray(u, dtype=float)
    dev = radiality_deviation(grid, u)
    if dev <= 1e-10:
        return SymmetryReport(axis_angle=None, axis_method="radial",
                              monotonicity_violation=0.0,
                              polarization_defect=0.0,
                              radiality_deviation=dev, passed=True)

    thetas = grid.axis_nodes[1]
    profiles = u.reshape(grid.shape)
    # projecting onto e^{+i theta} puts the axis at the argument of the mode;
    # the weights are constant along a ring, so it is summed ring by ring
    ring_w = grid.weights[::grid.shape[1]]
    mode = complex(float(ring_w @ (profiles @ np.cos(thetas))),
                   float(ring_w @ (profiles @ np.sin(thetas))))
    scale = float(np.dot(grid.weights, np.abs(u)))
    if abs(mode) > 1e-8 * max(scale, 1e-300):
        axis = float(np.angle(mode))
        method = "fourier"
    else:
        # axis-undefined for the first mode; cross-check rule: point of
        # maximum on the ring with the largest angular variance
        ring_var = np.var(profiles - profiles.mean(axis=1)[:, None], axis=1)
        j = int(np.argmax(ring_var))
        axis = float(thetas[int(np.argmax(profiles[j]))])
        method = "max-point"

    mono, defect = _hyperplane_sweep(grid, u, np.array([math.cos(axis), math.sin(axis)]))
    amplitude = min(1.0, float(np.max(np.abs(u))))
    passed = (mono <= monotonicity_tol * amplitude
              and defect <= polarization_tol * amplitude)
    return SymmetryReport(axis_angle=axis, axis_method=method,
                          monotonicity_violation=mono,
                          polarization_defect=defect,
                          radiality_deviation=dev, passed=passed)


@dataclass
class PdeResidual:
    interior_norm: float      # weighted norm of L_h u - |u|^{q-2} u off the zero band
    bracket_violation: float  # q = 1 only: measure of nodes with |L_h u| > 1.05
    flux_norm: float          # total discrete flux (vanishes by the natural BC)
    quantization_floor: float  # the zero band's half-width


def pde_residual(grid: Grid, u: np.ndarray, q: float) -> PdeResidual:
    """Strong-form defect of the discrete equation on resolvable nodes.

    interior_norm is the quadrature norm of L_h u - |u|^{q-2} u over nodes
    with |u_i| above the quantization floor; bracket_violation (q = 1) is
    the weighted measure of nodes where |L_h u| exceeds 1 by more than
    0.05, which no admissible selection of the set-valued sign allows;
    flux_norm is the total flux imbalance, identically zero for the
    assembled form up to roundoff.
    """
    u = np.asarray(u, dtype=float)
    lap = geometry.laplacian(grid, u)
    floor = quantization_floor(grid, u)
    keep = np.abs(u) > floor
    res = lap - functional.signed_power(u, q - 1.0)
    interior = float(np.sqrt(np.sum(grid.weights[keep] * res[keep] ** 2)))
    if q == 1.0:
        viol = float(np.sum(grid.weights[np.abs(lap) > 1.05]))
    else:
        viol = 0.0
    flux = abs(float(np.dot(grid.weights, lap)))
    return PdeResidual(interior_norm=interior, bracket_violation=viol,
                       flux_norm=flux, quantization_floor=floor)

