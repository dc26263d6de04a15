"""Numerical evaluation of both sides of the corner mass inequality.

For a solved field u asymptotic to a * r cos(theta) the report compares

    lhs    = 16 pi (E + <a, P>)
    bulk   = int  |sH u|^2 / |grad u|_delta + 2 (mu |grad u| + <J, grad u>)
    corner = 2 int (H_- - H_+) |grad u|  -  2 int (pi_- - pi_+)(grad u, nu)

with slack = lhs - (bulk + corner), where sH is the spacetime Hessian.
The slack absorbs only nonnegative losses (trapped-boundary terms,
level-set topology, the delta -> 0 limit) plus truncation and grid error,
so the verdict is slack >= -(grid tolerance + outer-truncation scale).

A violated corner hypothesis ((H_- - H_+) - |omega_- - omega_+| < 0) is
flagged: the inequality then makes no claim, and a negative lhs simply
traces the energy deficit to the corner.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from ..corner import GluedDataSet
from ..masses import AdmResult
from ..numgrid import ConvergenceReport, richardson
from .fields import AxisymField, SpacetimeHessianField, spacetime_hessian
from .solver import SolveOptions, solve_spacetime_harmonic

# a node is near-critical within about CRITICAL_CELLS cells of the
# critical set of u
CRITICAL_CELLS = 2.0


class MassBoundReport:
    __slots__ = ("direction", "lhs", "bulk", "corner", "delta_sequence",
                 "slack_extrapolated", "corner_hypothesis_violated",
                 "corner_jumps", "outer_truncation_scale", "grid_shape",
                 "truncation", "grid_convergence", "epsilon_grid",
                 "diagnostics")

    def __init__(self, direction: int, lhs: float, bulk: float,
                 corner: float,
                 delta_sequence: Tuple[Tuple[float, float], ...],
                 slack_extrapolated: float, corner_hypothesis_violated: bool,
                 corner_jumps: Tuple[float, ...],
                 outer_truncation_scale: float, grid_shape: Tuple[int, int],
                 truncation: float,
                 grid_convergence: Optional[ConvergenceReport] = None,
                 epsilon_grid: Optional[float] = None,
                 diagnostics: Optional[Dict] = None):
        self.direction = direction
        self.lhs = lhs
        self.bulk = bulk
        self.corner = corner
        self.delta_sequence = delta_sequence      # (delta, slack)
        self.slack_extrapolated = slack_extrapolated
        self.corner_hypothesis_violated = corner_hypothesis_violated
        self.corner_jumps = corner_jumps
        self.outer_truncation_scale = outer_truncation_scale
        self.grid_shape = grid_shape
        self.truncation = truncation
        self.grid_convergence = grid_convergence
        self.epsilon_grid = epsilon_grid
        self.diagnostics = {} if diagnostics is None else diagnostics

    @property
    def slack(self):
        return self.lhs - (self.bulk + self.corner)

    @property
    def tolerance(self):
        eps = self.epsilon_grid if self.epsilon_grid is not None else \
            abs(self.delta_sequence[0][1] - self.delta_sequence[-1][1])
        return eps + self.outer_truncation_scale + 1e-8

    @property
    def verdict(self):
        return self.slack >= -self.tolerance


def _volume_weights(field: AxisymField):
    """Radial trapezoid weights split across corner sides, plus x weights:
    a node's upper half-cell is on its plus side at a corner ring."""
    grid = field.grid
    half = 0.5 * np.diff(grid.r)
    below, above = np.append(0.0, half), np.append(half, 0.0)
    corners = field.coeffs.corner_indices
    w_r_plus = np.zeros(grid.n_r)
    w_r_plus[corners] = above[corners]
    above[corners] = 0.0
    return grid.x_weights(), above + below, w_r_plus


def critical_mask(field: AxisymField, hes: SpacetimeHessianField):
    """Nodes within ~CRITICAL_CELLS cells of the critical set of u.

    A node is flagged when |grad u| < CRITICAL_CELLS * h * |sHu|, with h
    the local proper node spacing: there the gradient direction is
    unresolved and the 1/|grad u| quadrature is pure noise.  The mask is
    independent of the regularization delta, so excluding it keeps the
    delta sequence honest; the discarded proper volume is reported as
    the measure budget (it shrinks linearly under refinement).
    """
    c = field.coeffs
    grid = field.grid
    ds = np.zeros(grid.n_r)
    ds[1:-1] = np.maximum(np.diff(grid.r)[:-1], np.diff(grid.r)[1:])
    ds[0] = grid.r[1] - grid.r[0]
    ds[-1] = grid.r[-1] - grid.r[-2]
    h_rad = c.sqlam * ds
    h_ang = c.rho * (grid.theta[1] - grid.theta[0])
    h_loc = np.maximum(h_rad, h_ang)[:, None]
    return hes.grad_norm < CRITICAL_CELLS * h_loc * np.sqrt(hes.norm_sq)


def _side_volumes(field: AxisymField):
    """The proper volume weight of every node on the minus and on the
    plus side of the corners, each side's density on its half-cells."""
    w_x, w_r_minus, w_r_plus = _volume_weights(field)
    return [2.0 * np.pi * field.coeffs.side(side).volume_density[:, None]
            * w_r[:, None] * w_x[None, :]
            for side, w_r in (("minus", w_r_minus), ("plus", w_r_plus))]


def _bulk_parts(field: AxisymField, hes: SpacetimeHessianField, mask,
                volumes):
    """Per side of the corners, the delta-independent parts of the bulk
    integrand at the nodes the near-critical ``mask`` keeps: (|sHu|^2,
    |grad u|, 2 (mu |grad u| + J(grad u)), volume weight); each side's
    limit weights its half-cell at a corner ring, with the minus and plus
    ``volumes`` of ``_side_volumes``."""
    keep = ~mask
    parts = []
    for side, nsq, vol in zip(("minus", "plus"),
                              (hes.norm_sq, hes.plus_norm_sq), volumes):
        if not np.any(vol):
            continue
        c = field.coeffs.side(side)
        gn = hes.grad_norm if side == "minus" \
            else field.grad_norm_plain(side)
        u_t, _ = field.gradient(side)
        matter = 2.0 * (c.mu[:, None] * gn + c.Jn[:, None] * u_t)
        parts.append(tuple(arr[keep] for arr in (nsq, gn, matter, vol)))
    return parts


def _bulk_integral(parts, delta):
    """The bulk integral at regularization ``delta`` from ``_bulk_parts``."""
    return sum(float(np.sum((nsq / np.sqrt(gn**2 + delta**2) + matter)
                            * vol))
               for nsq, gn, matter, vol in parts)


def _corner_integral(field: AxisymField):
    """2 oint (H_- - H_+)|grad u| - 2 oint (pi_- - pi_+)(grad u, nu)."""
    data = field.coeffs.data
    grid = field.grid
    w_x = grid.x_weights()
    total = 0.0
    jumps = []
    violated = False
    for iface in data.interfaces:
        if not (grid.r[0] - 1e-9 < iface.r_c < grid.r[-1] + 1e-9):
            continue
        i = int(np.argmin(np.abs(grid.r - iface.r_c)))
        if iface.omega_minus[1] != 0.0 or iface.omega_plus[1] != 0.0:
            raise ValueError("tangential omega is not supported on the "
                             "axisymmetric grid path")
        u_t_m, q_m = field.gradient("minus")
        u_t_p, q_p = field.gradient("plus")
        u_t = 0.5 * (u_t_m[i] + u_t_p[i])      # continuous across the corner
        q = 0.5 * (q_m[i] + q_p[i])
        gn = np.hypot(u_t, q)
        dH = iface.H_minus - iface.H_plus
        dpi_nn = iface.omega_minus[0] - iface.omega_plus[0]
        area_el = 2.0 * np.pi * iface.r_c**2 * w_x
        total += float(np.sum((2.0 * dH * gn - 2.0 * dpi_nn * u_t) * area_el))
        jumps.append(iface.jump)
        if iface.jump < -1e-12:
            violated = True
    return total, tuple(jumps), violated


def mass_bound_report(field: AxisymField, adm: AdmResult) -> MassBoundReport:
    """Assemble the report for one solved field, read against the data
    (``field.coeffs.data``) and the asymptote direction
    (``field.diagnostics["direction"]``) it was solved for;
    ``mass_bound_sweep`` adds the grid convergence.

    The delta sequence {delta, delta/2, delta/4} re-integrates the bulk
    with the frozen field (the K = 0 scenarios are exactly
    delta-independent at the solve level; re-solving per delta is the
    sweep driver's job) and extrapolates the slack.
    """
    direction = int(field.diagnostics["direction"])
    pz = adm.P[2]
    lhs = 16.0 * np.pi * (adm.E + direction * pz)
    corner, jumps, violated = _corner_integral(field)
    hes = spacetime_hessian(field)
    mask = critical_mask(field, hes)
    volumes = _side_volumes(field)
    vol = sum(volumes)
    excluded_volume = float(np.sum(vol[mask]))
    total_volume = float(np.sum(vol))
    delta0 = field.delta if field.delta > 0 else 1e-2
    deltas = [delta0, delta0 / 2.0, delta0 / 4.0]
    parts = _bulk_parts(field, hes, mask, volumes)
    bulks = [_bulk_integral(parts, d) for d in deltas]
    slacks = [lhs - bulk - corner for bulk in bulks]
    rep = richardson(slacks[1], slacks[2], 2.0, third_coarsest=slacks[0])
    # truncation bias scale: the flux integral still moves by this much
    # between the solver truncation and infinity
    trunc = field.diagnostics.get("truncation", adm.flux_samples[-1][0])
    outer_patch = field.coeffs.data.patches[-1]
    if outer_patch.contains(trunc):
        phi = 1.0 / float(outer_patch.fv(trunc)) - 1.0
        e_at_l = 0.5 * trunc * phi
    else:
        e_at_l = adm.flux_samples[-1][1]
    outer_scale = 16.0 * np.pi * abs(e_at_l - adm.E)

    report = MassBoundReport(
        direction=direction, lhs=float(lhs), bulk=float(bulks[0]),
        corner=float(corner),
        delta_sequence=tuple(zip(deltas, slacks)),
        slack_extrapolated=float(rep.extrapolated),
        corner_hypothesis_violated=violated, corner_jumps=jumps,
        outer_truncation_scale=float(outer_scale),
        grid_shape=(field.grid.n_r, field.grid.n_theta),
        truncation=float(trunc), diagnostics=dict(field.diagnostics))
    report.diagnostics["critical_excluded_volume"] = excluded_volume
    report.diagnostics["critical_excluded_fraction"] = (
        excluded_volume / total_volume if total_volume else 0.0)
    return report


def mass_bound_sweep(data: GluedDataSet, adm: AdmResult, *,
                     resolutions: Sequence[int] = (32, 64),
                     n_theta=None, L=30.0, r_inner=None,
                     options: SolveOptions = None
                     ) -> Tuple[MassBoundReport, AxisymField]:
    """Solve at a list of resolutions and attach the grid convergence.

    Returns the finest grid's report and its solved field.  The report's
    epsilon_grid is the slack difference of the last resolution pair;
    its grid_convergence extrapolates that pair at its refinement ratio,
    with the observed order from the last three resolutions when their
    two ratios agree.
    """
    opts = options or SolveOptions()
    resolutions = list(resolutions)
    reports = []
    for n in resolutions:
        fld = solve_spacetime_harmonic(
            data, n_r=n, n_theta=(n_theta or n), L=L, r_inner=r_inner,
            options=opts)
        reports.append(mass_bound_report(fld, adm))
    slacks = [rep.slack for rep in reports]
    conv = None
    eps = None
    if len(slacks) >= 2:
        third, third_ratio = None, None
        if len(slacks) >= 3:
            third, third_ratio = slacks[-3], resolutions[-2] / resolutions[-3]
        conv = richardson(slacks[-2], slacks[-1], 1.0, third_coarsest=third,
                          ratio=resolutions[-1] / resolutions[-2],
                          third_ratio=third_ratio)
        eps = abs(slacks[-1] - slacks[-2])
    final = reports[-1]
    final.grid_convergence = conv
    final.epsilon_grid = eps
    final.diagnostics["slacks_by_resolution"] = list(zip(resolutions, slacks))
    return final, fld
