"""Picard iteration for the spacetime-harmonic equation on a truncated
axisymmetric domain.

Each Picard step freezes the gradient norm and solves the linear problem

    Delta u = -K |grad u_prev|_delta

directly: the grid's operator is assembled once as one sparse matrix,
factored once (sparse LU) and every step is a single triangular solve.
Outer Dirichlet data is the truncated asymptote a * rho cos(theta); an
inner sphere may carry a constant Dirichlet value (the trapped-boundary
option, with the sign of the normal derivative reported afterwards, never
enforced); data with a smooth centre instead couples the innermost ring to
an extra unknown, the virtual value at r = 0.

Data sets carrying an isotropic chart are solved on that chart: the grid
runs through the minimal sphere into the second asymptotic sheet, whose
coordinate spheres are weakly trapped and provide a legitimate inner
boundary for the mass inequality.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..corner import GluedDataSet
from ..errors import PicardStagnationError
from ..numgrid import (AxisymGrid, EllipticOperator, lagrange_weights,
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
    picard_damping: float = 0.65


def _assemble_operator(coeffs: GridCoefficients,
                       inner_mode: str) -> EllipticOperator:
    """Sparse operator for Delta u in conservation form, with its
    boundary, axis, corner and centre rows.

    Radial part (1/(sqrt(lam) rho^2)) d_s((rho^2/sqrt(lam)) u_s) and
    angular part (1/rho^2) d_x((1-x^2) u_x) are discretized as flux
    differences with telescoping face coefficients
    rho_i rho_{i+1} / (lam_i lam_{i+1})^(1/4) and 1 - x_j x_{j+1}: both
    keep the flat asymptote rho cos(theta) an exact discrete solution on
    arbitrary node spacing while making every off-diagonal nonnegative
    (M-matrix rows).  The other rows are:

    * the two axis columns, quadratic extrapolations of the next three
      interior columns;
    * each corner ring, continuity of the radial flux u_s / sqrt(lam);
    * with a smooth centre, one extra unknown for the virtual r = 0 value
      (the inner neighbour of the innermost ring), defined by the
      x-averages of the first two rings as even in r;
    * identity rows at the Dirichlet nodes.
    """
    from scipy.sparse import csc_matrix

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

    corner_set = set(coeffs.corner_indices)
    # angular flux form at the interior columns, per unit 1/rho^2
    Ce = 1.0 - x[1:-1] * x[2:]
    Cw = 1.0 - x[:-2] * x[1:-1]
    wgt_x = 0.5 * (x[2:] - x[:-2])
    an = Ce / ((x[2:] - x[1:-1]) * wgt_x)
    as_ = Cw / ((x[1:-1] - x[:-2]) * wgt_x)

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
                # smooth centre: collocation against the r = 0 unknown
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
            xr = 1.0 / (rho_seg[k] ** 2)
            cN[i, 1:-1] += xr * an
            cS[i, 1:-1] += xr * as_
            cC[i, 1:-1] -= xr * (an + as_)

    idx = np.arange(N * M1).reshape(N, M1)
    n_unknowns = N * M1 + (1 if inner_mode == "center" else 0)
    rows, cols, vals = [], [], []

    def put(row, col, val):
        row, col, val = np.broadcast_arrays(row, col, val)
        rows.append(row.ravel())
        cols.append(col.ravel())
        vals.append(val.ravel())

    free = [i for i in range(N) if not fixed[i].all()]
    rings = np.array([i for i in free if i not in corner_set])
    J = np.arange(1, M1 - 1)
    ii, jj = rings[:, None], J[None, :]
    source_rows = np.zeros((N, M1), dtype=bool)
    source_rows[ii, jj] = True
    put(idx[ii, jj], idx[ii, jj], cC[ii, jj])
    put(idx[ii, jj], idx[ii + 1, jj], cE[ii, jj])
    put(idx[ii, jj], idx[ii, jj + 1], cN[ii, jj])
    put(idx[ii, jj], idx[ii, jj - 1], cS[ii, jj])
    inner = rings[rings > 0][:, None]
    put(idx[inner, jj], idx[inner - 1, jj], cW[inner, jj])
    if inner_mode == "center":
        put(idx[0, J], N * M1, cW[0, J])
        wm = grid.x_weights()
        wm = wm / np.sum(wm)
        r1, r2 = s[0], s[1]
        den = r2 * r2 - r1 * r1
        put(N * M1, N * M1, 1.0)
        put(N * M1, idx[0], -(r2 * r2 / den) * wm)
        put(N * M1, idx[1], (r1 * r1 / den) * wm)

    # corner rings: continuity of the radial flux u_s / sqrt(lam), with
    # the one-sided first-derivative rows of the field derivatives
    d_r, d_r_plus = coeffs.stencils.r[0], coeffs.stencils.r_plus[0]
    for k, i in enumerate(coeffs.corner_indices):
        wL = d_r.w[i]
        wR = d_r_plus.w[k]
        sfL = 1.0 / coeffs.sqlam[i]
        sfR = 1.0 / np.sqrt(coeffs.corner_plus[i]["lam"])
        coefs = (sfL * wL[0], sfL * wL[1], sfL * wL[2] - sfR * wR[0],
                 -sfR * wR[1], -sfR * wR[2])
        for o, c in zip(range(-2, 3), coefs):
            put(idx[i, J], idx[i + o, J], c)

    w_n = lagrange_weights(x[1:4], x[0])
    w_s = lagrange_weights(x[-4:-1], x[-1])
    for i in free:
        put(idx[i, 0], idx[i, 0], 1.0)
        put(idx[i, 0], idx[i, 1:4], -w_n)
        put(idx[i, -1], idx[i, -1], 1.0)
        put(idx[i, -1], idx[i, -4:-1], -w_s)
    put(idx[fixed], idx[fixed], 1.0)

    matrix = csc_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(n_unknowns, n_unknowns))
    return EllipticOperator(matrix, fixed, source_rows)


def solve_spacetime_harmonic(data: GluedDataSet, grid: AxisymGrid = None, *,
                             n_r=64, n_theta=64, L=30.0, r_inner=None,
                             options: SolveOptions = None) -> AxisymField:
    """Solve Delta u + K |grad u|_delta = 0 on the truncated data set.

    Returns the converged AxisymField with Picard and linear-solve
    diagnostics (change history, factorization size, linear residual,
    boundary-sign report, maximum principle margin) attached.
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
    operator = _assemble_operator(coeffs, inner_mode)

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
    residual = 0.0
    field = AxisymField(coeffs, u, delta=opts.delta)
    for it in range(1, opts.max_picard + 1):
        if np.max(np.abs(coeffs.K)) == 0.0:
            source = np.zeros_like(u)
        else:
            gn = field.grad_norm(delta=opts.delta)
            source = -coeffs.K[:, None] * gn
        u_new, info = solve_linear_elliptic(operator, source, boundary)
        residual = max(residual, info["residual"])
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
        # over all Picard steps; residual is the largest max|A u - b|
        "linear": {"factorizations": operator.factorizations,
                   "solves": len(picard_changes),
                   "factor_nnz": operator.factor_nnz,
                   "residual": residual},
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
