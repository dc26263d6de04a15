"""Picard iteration for the spacetime-harmonic equation on a truncated
axisymmetric domain.

Each Picard step freezes the gradient norm and solves the linear problem

    Delta u = -K |grad u_prev|_delta

by deterministic line relaxation (rows swept in increasing radial
coordinate, each theta line solved exactly).  Outer Dirichlet data is the
truncated asymptote a * rho cos(theta); an inner sphere may carry a
constant Dirichlet value (the trapped-boundary option, with the sign of
the normal derivative reported afterwards, never enforced); data with a
smooth centre instead couples the innermost ring to a slaved virtual
value at r = 0.

Data sets carrying an isotropic chart are solved on that chart: the grid
runs through the minimal sphere into the second asymptotic sheet, whose
coordinate spheres are weakly trapped and provide a legitimate inner
boundary for the mass inequality.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..corner import GluedDataSet
from ..errors import PicardStagnationError
from ..numgrid import (AxisymGrid, EllipticStencil, lagrange_weights,
                       solve_linear_elliptic, stencil_d1, stencil_d2)
from .fields import AxisymField, GridCoefficients, build_coefficients, \
    build_solver_grid


@dataclass
class SolveOptions:
    delta: float = 1e-2
    direction: int = +1              # asymptote +- rho cos(theta)
    inner: str = "auto"              # 'auto' | 'center' | 'trapped_const'
    inner_value: float = 0.0
    picard_tol: float = 1e-9
    max_picard: int = 60
    picard_damping: float = 0.65     # damped update keeps the decay monotone
    sor_tol: float = 5e-10
    max_sweeps: int = 40000
    omega: Optional[float] = None


def _assemble_stencil(coeffs: GridCoefficients, inner_mode: str):
    """Five-point stencil for Delta u in conservation form.

    Radial part (1/(sqrt(lam) rho^2)) d_s((rho^2/sqrt(lam)) u_s) and
    angular part (1/rho^2) d_x((1-x^2) u_x) are discretized as flux
    differences with telescoping face coefficients
    rho_i rho_{i+1} / (lam_i lam_{i+1})^(1/4) and 1 - x_j x_{j+1}: both
    keep the flat asymptote rho cos(theta) an exact discrete solution on
    arbitrary node spacing while making every off-diagonal nonnegative
    (relaxation-safe M-matrix rows).
    """
    grid = coeffs.grid
    s, x = grid.r, grid.x
    N, M1 = s.size, x.size
    cC = np.zeros((N, M1))
    cE = np.zeros((N, M1))
    cW = np.zeros((N, M1))
    cN = np.zeros((N, M1))
    cS = np.zeros((N, M1))
    fixed = np.zeros((N, M1), dtype=bool)
    fixed[N - 1, :] = True
    if inner_mode == "trapped_const":
        fixed[0, :] = True

    interface_rows = {}
    corner_set = set(coeffs.corner_indices)

    for (lo, hi) in coeffs.segments:
        lam_seg = coeffs.lam[lo:hi + 1].copy()
        rho_seg = coeffs.rho[lo:hi + 1].copy()
        if lo in coeffs.corner_plus:
            lam_seg[0] = coeffs.corner_plus[lo]["lam"]
            rho_seg[0] = coeffs.corner_plus[lo]["rho"]
        for i in range(lo, hi + 1):
            if i in corner_set:
                continue  # flux-continuity row below
            if i == N - 1 or (i == 0 and inner_mode == "trapped_const"):
                continue
            k = i - lo
            if i == 0:
                # smooth centre: collocation against the slaved r = 0 value
                z = np.array([0.0, s[0], s[1]])
                w1 = stencil_d1(*z)[1]
                w2 = stencil_d2(*z)
                A = 1.0 / lam_seg[k]
                B = (2.0 * coeffs.rhop[i] / (lam_seg[k] * rho_seg[k])
                     - coeffs.lamp[i] / (2.0 * lam_seg[k] ** 2))
                cW[i, :] += A * w2[0] + B * w1[0]
                cC[i, :] += A * w2[1] + B * w1[1]
                cE[i, :] += A * w2[2] + B * w1[2]
            else:
                fe = (lam_seg[k] * lam_seg[k + 1]) ** -0.25
                fw = (lam_seg[k - 1] * lam_seg[k]) ** -0.25
                ce_face = rho_seg[k] * rho_seg[k + 1] * fe
                cw_face = rho_seg[k - 1] * rho_seg[k] * fw
                wgt = 0.5 * (s[i + 1] - s[i - 1])
                pref = 1.0 / (np.sqrt(lam_seg[k]) * rho_seg[k] ** 2)
                ae = pref * ce_face / ((s[i + 1] - s[i]) * wgt)
                aw = pref * cw_face / ((s[i] - s[i - 1]) * wgt)
                cE[i, :] += ae
                cW[i, :] += aw
                cC[i, :] -= ae + aw
            # angular flux form at interior columns
            xr = 1.0 / (rho_seg[k] ** 2)
            for j in range(1, M1 - 1):
                Ce = 1.0 - x[j] * x[j + 1]
                Cw = 1.0 - x[j - 1] * x[j]
                wgt = 0.5 * (x[j + 1] - x[j - 1])
                an = Ce / ((x[j + 1] - x[j]) * wgt)
                as_ = Cw / ((x[j] - x[j - 1]) * wgt)
                cN[i, j] += xr * an
                cS[i, j] += xr * as_
                cC[i, j] -= xr * (an + as_)

    # corner rows: continuity of the radial flux u_s / sqrt(lam)
    for i in coeffs.corner_indices:
        zL = s[i - 2:i + 1]
        zR = s[i:i + 3]
        wL = stencil_d1(*zL)[2]
        wR = stencil_d1(*zR)[0]
        sfL = 1.0 / coeffs.sqlam[i]
        sfR = 1.0 / np.sqrt(coeffs.corner_plus[i]["lam"])
        offs = (-2, -1, 0, 1, 2)
        coefsv = (sfL * wL[0], sfL * wL[1], sfL * wL[2] - sfR * wR[0],
                  -sfR * wR[1], -sfR * wR[2])
        interface_rows[i] = (offs, coefsv)

    axis_w = (lagrange_weights(x[1:4], x[0]),
              lagrange_weights(x[-4:-1], x[-1]))
    center = None
    if inner_mode == "center":
        wm = grid.x_weights()
        center = {"w_mean": wm / np.sum(wm), "r1": s[0], "r2": s[1]}
    return EllipticStencil(cC=cC, cE=cE, cW=cW, cN=cN, cS=cS, fixed=fixed,
                           interface_rows=interface_rows,
                           axis_weights=axis_w, center=center)


def solve_spacetime_harmonic(data: GluedDataSet, grid: AxisymGrid = None, *,
                             n_r=64, n_theta=64, L=30.0, r_inner=None,
                             options: SolveOptions = None) -> AxisymField:
    """Solve Delta u + K |grad u|_delta = 0 on the truncated data set.

    Returns the converged AxisymField with Picard/relaxation diagnostics
    (change history, final residual, boundary-sign report, maximum
    principle margin) attached.
    """
    opts = options or SolveOptions()
    if opts.direction not in (1, -1):
        raise ValueError(
            "only the axisymmetric directions +z and -z are supported; a "
            "general asymptote direction needs a full 3-D grid")
    chart = None
    if grid is None:
        grid = build_solver_grid(data, n_r, n_theta, L, r_inner)
        chart = "isotropic" if data.chart is not None else "areal"
    coeffs = build_coefficients(data, grid, chart)

    inner_mode = opts.inner
    if inner_mode == "auto":
        inner_mode = "center" if (data.has_center
                                  and coeffs.chart == "areal") \
            else "trapped_const"
    if inner_mode == "center" and (coeffs.chart != "areal"
                                   or not data.has_center):
        raise ValueError("inner boundary mode 'center' is incompatible "
                         "with this grid: the data has no smooth centre "
                         "in the solve chart")
    stencil = _assemble_stencil(coeffs, inner_mode)

    s, x = grid.r, grid.x
    sign = float(opts.direction)
    boundary = sign * np.outer(coeffs.rho, x)
    if inner_mode == "trapped_const":
        boundary[0, :] = opts.inner_value
    if coeffs.chart == "isotropic":
        # taper the first-sheet asymptote down to the inner value so the
        # second sheet starts near the trapped-boundary constant
        w = np.log(s / s[0]) / np.log(s[-1] / s[0])
        u = opts.inner_value + w[:, None] * (
            sign * coeffs.rho[-1] * x[None, :] - opts.inner_value)
        u[-1, :] = boundary[-1, :]
        if inner_mode == "trapped_const":
            u[0, :] = boundary[0, :]
    else:
        u = boundary.copy()

    picard_changes = []
    info = {}
    sweeps = 0
    field = AxisymField(coeffs, u, delta=opts.delta)
    for it in range(1, opts.max_picard + 1):
        if np.max(np.abs(coeffs.K)) == 0.0:
            source = np.zeros_like(u)
        else:
            gn = field.grad_norm(delta=opts.delta)
            source = -coeffs.K[:, None] * gn
            source[stencil.fixed] = 0.0
        u_new, info = solve_linear_elliptic(
            grid, stencil, source, boundary, omega=opts.omega,
            tol=opts.sor_tol * max(1.0, float(np.max(np.abs(boundary)))),
            max_sweeps=opts.max_sweeps, u0=u)
        sweeps += info["sweeps"]
        theta = opts.picard_damping if it > 1 else 1.0
        u_new = (1.0 - theta) * u + theta * u_new
        change = float(np.max(np.abs(u_new - u)))
        picard_changes.append(change)
        u = u_new
        field = AxisymField(coeffs, u, delta=opts.delta)
        if it >= 2 and change <= opts.picard_tol * max(
                1.0, float(np.max(np.abs(u)))):
            break
    else:
        raise PicardStagnationError(
            f"Picard stagnated after {opts.max_picard} iterations "
            f"(last change {picard_changes[-1]:.3e})", picard_changes)

    # diagnostics: maximum principle and inner normal-derivative sign
    interior = u[1:-1, :] if inner_mode == "trapped_const" else u[:-1, :]
    bvals = [u[-1, :]]
    if inner_mode == "trapped_const":
        bvals.append(u[0, :])
    bmin = min(float(v.min()) for v in bvals)
    bmax = max(float(v.max()) for v in bvals)
    mp_violation = max(0.0, bmin - float(interior.min()),
                       float(interior.max()) - bmax)
    diag = {
        "picard_changes": picard_changes,
        # sweeps over all Picard steps; residual and omega of the last
        "relaxation": {"sweeps": sweeps, "residual": info.get("residual"),
                       "omega": info.get("omega")},
        "max_principle_violation": mp_violation,
        "inner_mode": inner_mode,
        "chart": coeffs.chart,
        "truncation": float(coeffs.rho[-1]),
        "direction": sign,
    }
    if inner_mode == "trapped_const":
        u_r0, _, _ = field.radial_derivative_rows(0, "plus")
        nu_s_u = -u_r0 / coeffs.sqlam[0]     # normal pointing out of the domain
        theta_plus = (2.0 * coeffs.rhop[0] / (coeffs.sqlam[0] * coeffs.rho[0])
                      + 2.0 * coeffs.b[0])
        diag["inner_normal_derivative"] = {
            "min": float(np.min(nu_s_u)), "max": float(np.max(nu_s_u))}
        diag["inner_theta_plus"] = float(theta_plus)
    field.diagnostics.update(diag)
    return field
