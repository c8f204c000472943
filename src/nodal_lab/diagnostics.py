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
from pathlib import Path

import numpy as np

from . import functional, geometry
from .geometry import Grid

__all__ = [
    "ZeroMeasureCurve", "SymmetryReport", "PdeResidual", "WSetCheck",
    "zero_measure_curve", "nodal_domains", "foliated_schwarz_check",
    "radiality_deviation", "pde_residual", "w_set_check",
    "quantization_floor", "write_zero_curve_csv",
]


def quantization_floor(grid: Grid, u: np.ndarray) -> float:
    """One discrete jump of the field: the largest nodal difference across
    an edge.  Below this scale, pointwise signs are not resolvable."""
    u = np.asarray(u, dtype=float)
    if u.size == 0:
        return 0.0
    d = np.abs(u[grid.edge_i] - u[grid.edge_j])
    return float(np.max(d)) if d.size else 0.0


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
    with Path(path).open("w", newline="") as fh:
        fh.write("delta,measure\r\n")                      # csv's line end
        fh.writelines("%.17g,%.17g\r\n" % row
                      for row in zip(curve.deltas.tolist(), curve.measures.tolist()))


def nodal_domains(grid: Grid, u: np.ndarray, threshold: float = 0.0) -> int:
    """Number of edge-connected components of {u > threshold} plus those of
    {u < -threshold}, threshold >= 0.

    Each node is labelled 1, -1 or 0 by that test, and components are
    labelled over the edges whose ends share a nonzero label by min-label
    hooking and pointer jumping (Shiloach & Vishkin, J. Algorithms 3,
    1982): each round hooks the larger root of every edge that still joins
    two trees to the smaller, then points every node at its tree's root.
    Every 0-labelled node stays a root of its own and is not counted.
    """
    if not threshold >= 0:
        raise ValueError(f"nodal_domains threshold must be >= 0, got {threshold!r}")
    u = np.asarray(u, dtype=float)
    label = (u > threshold).astype(np.int8) - (u < -threshold)
    li, lj = label[grid.edge_i], label[grid.edge_j]
    keep = (li == lj) & (li != 0)
    i, j = grid.edge_i[keep], grid.edge_j[keep]
    root = np.arange(grid.n_nodes)
    while True:
        ri, rj = root[i], root[j]
        cross = ri != rj
        if not cross.any():
            break
        # edges inside one tree stay there, so later rounds skip them
        i, j, ri, rj = i[cross], j[cross], ri[cross], rj[cross]
        np.minimum.at(root, np.maximum(ri, rj), np.minimum(ri, rj))
        up = root[root]
        while not np.array_equal(up, root):
            root, up = up, up[up]
    return int(np.count_nonzero((root == np.arange(grid.n_nodes)) & (label != 0)))


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
    profiles, ring_means = geometry.angular_profiles(grid, u)
    w = grid.weights
    mean = float(np.dot(w, u)) / float(np.sum(w))
    var_total = float(np.dot(w, (u - mean) ** 2))
    around = (profiles - ring_means[:, None]).ravel()
    var_ring = float(np.dot(w, around**2))
    if var_total == 0.0:
        return 0.0
    return var_ring / var_total


def _wnorm(grid: Grid, v: np.ndarray) -> float:
    return float(np.sqrt(np.dot(grid.weights, v * v)))


def _angular_monotonicity_violation(grid: Grid, u: np.ndarray,
                                    axis: float) -> float:
    """Largest increase of any ring profile with growing angular distance
    from the axis (ties in distance are not compared)."""
    profiles, _ = geometry.angular_profiles(grid, u)
    thetas = grid.polar["thetas"]
    d = np.abs((thetas - axis + math.pi) % (2.0 * math.pi) - math.pi)
    order = np.argsort(d, kind="stable")
    ds = d[order]
    vals = profiles[:, order]
    run_min = np.minimum.accumulate(vals, axis=1)
    # compare each value against the running minimum over strictly smaller
    # distances; the angles, and so this base, are the same on every ring
    base = np.searchsorted(ds, ds - 1e-12, side="left") - 1
    ok = base >= 0
    return max(0.0, float(np.max(vals[:, ok] - run_min[:, base[ok]])))


def foliated_schwarz_check(grid: Grid, u: np.ndarray,
                           monotonicity_tol: float = 5e-3,
                           polarization_tol: float = 5e-3,
                           radial_tol: float = 1e-10) -> SymmetryReport:
    """Axial symmetry check: estimate the symmetry axis from the first
    angular Fourier mode (falling back to the location of the maximum when
    that mode is below the noise floor), then require (a) every ring profile
    to be nonincreasing in the angular distance from the axis and (b) the
    two-point rearrangement across every grid hyperplane, oriented toward
    the axis, to leave the field unchanged in the weighted norm.

    Ring-constant fields pass trivially with no axis.
    """
    if not grid.is_polar:
        raise ValueError("wrong-domain-kind: the symmetry check needs a polar grid")
    u = np.asarray(u, dtype=float)
    dev = radiality_deviation(grid, u)
    if dev <= radial_tol:
        return SymmetryReport(axis_angle=None, axis_method="radial",
                              monotonicity_violation=0.0,
                              polarization_defect=0.0,
                              radiality_deviation=dev, passed=True)

    thetas = grid.polar["thetas"]
    nr, nth = grid.shape
    # projecting onto e^{+i theta} puts the axis at the argument of the mode
    phase = np.tile(np.exp(1j * thetas), nr)
    mode = complex(np.sum(grid.weights * u * phase))
    scale = float(np.dot(grid.weights, np.abs(u)))
    if abs(mode) > 1e-8 * max(scale, 1e-300):
        axis = float(np.angle(mode))
        method = "fourier"
    else:
        # axis-undefined for the first mode; cross-check rule: point of
        # maximum on the ring with the largest angular variance
        profiles, ring_means = geometry.angular_profiles(grid, u)
        ring_var = np.var(profiles - ring_means[:, None], axis=1)
        j = int(np.argmax(ring_var))
        axis = float(thetas[int(np.argmax(profiles[j]))])
        method = "max-point"

    mono = _angular_monotonicity_violation(grid, u, axis)
    toward = np.array([math.cos(axis), math.sin(axis)])
    defect = 0.0
    for hid in range(nth):
        uh = geometry.polarize(grid, u, hid, toward=toward)
        defect = max(defect, _wnorm(grid, uh - u))
    passed = mono <= monotonicity_tol and defect <= polarization_tol
    return SymmetryReport(axis_angle=axis, axis_method=method,
                          monotonicity_violation=mono,
                          polarization_defect=defect,
                          radiality_deviation=dev, passed=passed)


@dataclass
class PdeResidual:
    interior_norm: float      # weighted norm of L_h u - |u|^{q-2} u off the zero band
    bracket_violation: float  # q = 1 only: measure of nodes with |L_h u| > 1 + tol
    flux_norm: float          # total discrete flux (vanishes by the natural BC)
    floor: float              # quantization floor used


def pde_residual(grid: Grid, u: np.ndarray, q: float,
                 bracket_tol: float = 0.05) -> PdeResidual:
    """Strong-form defect of the discrete equation on resolvable nodes.

    interior_norm is the quadrature norm of L_h u - |u|^{q-2} u over nodes
    with |u_i| above the quantization floor; bracket_violation (q = 1) is
    the weighted measure of nodes where |L_h u| exceeds 1 + bracket_tol,
    which no admissible selection of the set-valued sign allows; flux_norm
    is the total flux imbalance, identically zero for the assembled form up
    to roundoff.
    """
    u = np.asarray(u, dtype=float)
    lap = geometry.laplacian(grid, u)
    floor = quantization_floor(grid, u)
    keep = np.abs(u) > floor
    res = lap - functional.signed_power(u, q - 1.0)
    interior = float(np.sqrt(np.sum(grid.weights[keep] * res[keep] ** 2)))
    if q == 1.0:
        viol = float(np.sum(grid.weights[np.abs(lap) > 1.0 + bracket_tol]))
    else:
        viol = 0.0
    flux = abs(float(np.dot(grid.weights, lap)))
    return PdeResidual(interior_norm=interior, bracket_violation=viol,
                       flux_norm=flux, floor=floor)


@dataclass
class WSetCheck:
    member: bool
    min_gradient_on_zero_set: float


def w_set_check(grid: Grid, u: np.ndarray, delta: float | None = None,
                gradient_floor: float = 1e-6) -> WSetCheck:
    """Regular-set membership: the reconstructed gradient magnitude must
    stay above gradient_floor at every node within delta of zero (default
    delta: the quantization floor)."""
    u = np.asarray(u, dtype=float)
    if delta is None:
        delta = quantization_floor(grid, u)
    near = np.abs(u) <= delta
    if not near.any():
        return WSetCheck(member=True, min_gradient_on_zero_set=float("inf"))
    gm = geometry.gradient_magnitude(grid, u)
    lo = float(np.min(gm[near]))
    return WSetCheck(member=lo >= gradient_floor, min_gradient_on_zero_set=lo)
