"""Anderson-accelerated Picard iteration for the spacetime-harmonic
equation on a truncated axisymmetric domain.

The fixed-point map G freezes the gradient norm and solves the linear
problem

    Delta G(u) = -K |grad u|_delta

directly.  Each step mixes the last few values G(u_k), with the weights
that make the same mix of their residuals r_k = G(u_k) - u_k smallest in
the least-squares sense (Anderson acceleration, Walker & Ni 2011, history
depth ANDERSON_DEPTH).  The loop stops when
max|r_k| <= picard_tol * max(1, max|G(u_k)|) and returns G(u_k); since
r_k = -A^-1 F(u_k) for the discrete equation F(u) = A u - b(u), it
vanishes exactly at a discrete solution.  The residual max|F(u)| over
the source rows of the returned field is reported as
``nonlinear_residual``.

The grid's operator separates: every ring's row is a radial
stencil plus 1/rho^2 times one angular matrix, so it is assembled once as
per-ring radial coefficients and that angular matrix, and factored once
(the angular eigenvectors, from the even and odd halves of the
equatorially symmetric angular matrix, and one banded LU per radial
mode, vectorised over the modes).  A solve is two angular transforms
around the banded solves.  Every step solves once, for the correction
G(u_k) - u_k = A~^-1 (b(u_k) - A u_k) from the current u_k (A~^-1 the
factor's solve), the first from u_0 = the Dirichlet data, so its
rounding shrinks with the correction and the fixed point is still
exactly A u = b(u).  Every step applies A once, to G(u_k), for the
step's linear residual.  A u_k is never applied: A is linear and u_k is
the Anderson mix of earlier G's, so A u_k is the same mix of the A G's
the steps kept.  The first step applies A to the Dirichlet data, and the
last step's A G(u_k) gives the nonlinear residual.

With K = 0 the equation is Delta u = 0 and the radial data make the
solution exactly u = phi(s) cos(theta): x = cos(theta) is an eigenvector
of the discrete angular operator with eigenvalue -2 and the Dirichlet
data are phi_i x_j.  No Picard step and no separated factor run; phi is
one dense radial solve (``EllipticOperator.solve_l1``), and since b does
not depend on u, max|A u - b| over every row is reported as both the
linear and the nonlinear residual.

Outer Dirichlet data is the truncated asymptote a * rho cos(theta).  The
data decides the inner boundary: data with a smooth centre
(``data.has_center``) couples the innermost ring to the virtual value at
r = 0, read from rings 0 and 1 (``fields.centre_weights``); any other
inner sphere carries the Dirichlet value 0 (the trapped-boundary mode,
with the sign of the normal derivative reported afterwards, never
enforced).

Data carrying an isotropic chart is solved on that chart: the grid runs
through the minimal sphere into the second asymptotic sheet, whose
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
    build_solver_grid, centre_weights

# Anderson history: the last ANDERSON_DEPTH differences of the fixed-point
# residuals mix each step (3 takes hyperbolic_negschw from 31 damped steps
# per grid to 13-14)
ANDERSON_DEPTH = 3
# Picard steps before the solve gives up
MAX_PICARD = 60


@dataclass
class SolveOptions:
    delta: float = 1e-2
    direction: int = +1              # asymptote +- rho cos(theta)
    picard_tol: float = 1e-9


def _assemble_operator(coeffs: GridCoefficients) -> EllipticOperator:
    """Separated operator for Delta u in conservation form, with its
    axis, corner and centre rows; the operator fixes the outer ring, and
    ring 0 too unless the data has a smooth centre
    (``coeffs.data.has_center``).

    Radial part (1/(sqrt(lam) rho^2)) d_s((rho^2/sqrt(lam)) u_s) and
    angular part (1/rho^2) d_x((1-x^2) u_x) are discretized as flux
    differences with telescoping face coefficients
    rho_i rho_{i+1} / (lam_i lam_{i+1})^(1/4) and 1 - x_j x_{j+1}: both
    keep the flat asymptote rho cos(theta) an exact discrete solution on
    arbitrary node spacing while making every off-diagonal nonnegative
    (M-matrix rows).  A ring's row is its radial stencil plus
    g_i = 1/rho_i^2 times one angular matrix shared by all rings.  The
    other rows are:

    * the two axis columns, quadratic extrapolations of the next three
      interior columns;
    * each corner ring, continuity of the radial flux u_s / sqrt(lam),
      reaching two rings to either side, with g = 0;
    * with a smooth centre, ring 0 reaches the virtual r = 0 value (its
      inner neighbour), the x-averages of the first two rings read as
      even in r (``centre_weights``).
    """
    grid = coeffs.grid
    s, x = grid.r, grid.x
    N = s.size
    radial = np.zeros((N, 5))            # rings i-2 .. i+2
    g = np.zeros(N)

    # angular flux form at the interior columns, per unit 1/rho^2
    Ce = 1.0 - x[1:-1] * x[2:]
    Cw = 1.0 - x[:-2] * x[1:-1]
    wgt_x = 0.5 * (x[2:] - x[:-2])
    an = Ce / ((x[2:] - x[1:-1]) * wgt_x)
    as_ = Cw / ((x[1:-1] - x[:-2]) * wgt_x)
    # its west, centre and east diagonals
    angular = np.array([as_, -(an + as_), an])

    plus = coeffs.side("plus")
    for (lo, hi) in coeffs.segments:
        # the segment's first ring on its plus side, its last on its minus
        # side; the rings strictly inside it are the rows, its ends are
        # corners, the outer Dirichlet ring or ring 0
        lam = np.append(plus.lam[lo], coeffs.lam[lo + 1:hi + 1])
        rho = np.append(plus.rho[lo], coeffs.rho[lo + 1:hi + 1])
        k = np.arange(1, hi - lo)
        i = lo + k
        face = rho[:-1] * rho[1:] * (lam[:-1] * lam[1:]) ** -0.25
        wgt = 0.5 * (s[i + 1] - s[i - 1])
        pref = 1.0 / (np.sqrt(lam[k]) * rho[k] ** 2)
        ae = pref * face[k] / ((s[i + 1] - s[i]) * wgt)
        aw = pref * face[k - 1] / ((s[i] - s[i - 1]) * wgt)
        radial[i, 1] = aw
        radial[i, 2] = -(ae + aw)
        radial[i, 3] = ae
        g[i] = 1.0 / rho[k] ** 2

    centre = None
    if coeffs.data.has_center:
        # smooth centre: collocation of ring 0 against the r = 0 value
        z = np.array([0.0, s[0], s[1]])
        d1 = stencil_d1(*z)[1]
        d2 = stencil_d2(*z)
        lam0, rho0 = coeffs.lam[0], coeffs.rho[0]
        A = 1.0 / lam0
        B = (2.0 * coeffs.rhop[0] / (lam0 * rho0)
             - coeffs.lamp[0] / (2.0 * lam0 ** 2))
        radial[0, 2] = A * d2[1] + B * d1[1]
        radial[0, 3] = A * d2[2] + B * d1[2]
        g[0] = 1.0 / rho0 ** 2
        w0, w1 = centre_weights(grid)
        centre = (A * d2[0] + B * d1[0], -w0, -w1)

    # corner rings: continuity of the radial flux u_s / sqrt(lam), with
    # the one-sided first-derivative rows of the field derivatives
    d_r, d_r_plus = coeffs.stencils.r[0], coeffs.stencils.r_plus[0]
    for k, i in enumerate(coeffs.corner_indices):
        wL = d_r.w[i]
        wR = d_r_plus.w[k]
        sfL = 1.0 / coeffs.sqlam[i]
        sfR = 1.0 / np.sqrt(plus.lam[i])
        radial[i] = (sfL * wL[0], sfL * wL[1], sfL * wL[2] - sfR * wR[0],
                     -sfR * wR[1], -sfR * wR[2])

    axis = (lagrange_weights(x[1:4], x[0]), lagrange_weights(x[-4:-1], x[-1]))
    return EllipticOperator(radial, g, angular, axis, coeffs.corner_indices,
                            centre)


def _source(coeffs: GridCoefficients, fld: AxisymField, delta):
    """-K |grad u|_delta, the right-hand side frozen at fld."""
    return -coeffs.K[:, None] * fld.grad_norm(delta=delta)


def _picard(operator: EllipticOperator, coeffs: GridCoefficients, boundary,
            opts: SolveOptions):
    """Anderson-mixed Picard from the Dirichlet data: the fixed point u,
    A u, max|G(u_k) - u_k| per step and the largest linear residual.

    A u_{k+1} = A G(u_k) - d(AG) gamma is carried along with the mix,
    from the A G(u_k) each linear solve returns; only the first solve
    applies A to its start, the Dirichlet data.
    """
    u, Au = boundary.copy(), None
    picard_changes = []
    residual = 0.0
    hist = []                    # (r_k, G(u_k), A G(u_k)), flattened
    for step in range(MAX_PICARD):
        # one solve of the correction from u (first: the boundary data)
        g, info = solve_linear_elliptic(
            operator,
            _source(coeffs, AxisymField(coeffs, u, delta=opts.delta),
                    opts.delta),
            boundary, start=u, applied=Au)
        residual = max(residual, info["residual"])
        f, u, Au = g - u, g, info["applied"]
        change = float(np.max(np.abs(f)))
        picard_changes.append(change)
        if not np.isfinite(change):
            raise PicardStagnationError(
                f"Picard step {step + 1} left a fixed-point residual of "
                f"{change!r}", picard_changes)
        if change <= opts.picard_tol * max(1.0, float(np.max(np.abs(g)))):
            return u, Au, picard_changes, residual
        hist.append((f.ravel(), g.ravel(), Au.ravel()))
        del hist[:-ANDERSON_DEPTH - 1]
        if len(hist) > 1:
            # u_{k+1} = G(u_k) - dG gamma, gamma minimising |r_k - dF gamma|,
            # and A u_{k+1} the same mix of the A G(u_k)
            dF, dG, dAG = (np.diff(h, axis=0).T for h in zip(*hist))
            gamma = np.linalg.lstsq(dF, f.ravel(), rcond=None)[0]
            u = g - (dG @ gamma).reshape(g.shape)
            Au = Au - (dAG @ gamma).reshape(g.shape)
    raise PicardStagnationError(
        f"Picard stagnated after {MAX_PICARD} iterations (last "
        f"fixed-point residual {picard_changes[-1]:.3e})", picard_changes)


def solve_spacetime_harmonic(data: GluedDataSet, grid: AxisymGrid = None, *,
                             n_r=64, n_theta=64, L=30.0, r_inner=None,
                             options: SolveOptions = None) -> AxisymField:
    """Solve Delta u + K |grad u|_delta = 0 on the truncated data set.

    Returns the converged AxisymField with Picard and linear-solve
    diagnostics (fixed-point residual history, nonlinear residual,
    factorization size, linear residual, boundary-sign report, maximum
    principle margin) attached.
    """
    opts = options or SolveOptions()
    if opts.direction not in (1, -1):
        raise ValueError(
            "only the axisymmetric directions +z and -z are supported; a "
            "general asymptote direction needs a full 3-D grid")
    if grid is None:
        grid = build_solver_grid(data, n_r, n_theta, L, r_inner)
    coeffs = build_coefficients(data, grid)
    operator = _assemble_operator(coeffs)

    sign = float(opts.direction)
    boundary = sign * np.outer(coeffs.rho, grid.x)
    if not data.has_center:
        boundary[0, :] = 0.0
    k_zero = np.max(np.abs(coeffs.K)) == 0.0
    if k_zero:
        # Delta u = 0 on radial data: u = phi (x) x exactly, phi from the
        # l = 1 radial system on the Dirichlet values of column 0 (x = 1);
        # the fixed nodes keep the data (+0.0 on a trapped ring, not 0 * x)
        phi = operator.solve_l1(boundary[:, 0])
        u = np.where(operator.fixed, boundary, np.outer(phi, grid.x))
        picard_changes = [float(np.max(np.abs(u - boundary)))]
        Au = operator.apply(u)
    else:
        u, Au, picard_changes, residual = _picard(operator, coeffs,
                                                  boundary, opts)
    # the field's |grad u|_delta, which the report divides by, overflows
    # (with K != 0 the Picard state already did)
    if not np.isfinite(opts.delta * opts.delta):
        raise PicardStagnationError(
            f"|grad u|_delta overflows: delta = {opts.delta!r} has no "
            f"finite square", picard_changes)
    field = AxisymField(coeffs, u, delta=opts.delta)
    # the discrete equation's residual max|A u - b(u)|, A u carried out
    # of the Picard loop when K != 0
    F = (Au
         - operator.rhs(np.zeros_like(u) if k_zero
                        else _source(coeffs, field, opts.delta), boundary))
    if k_zero:
        # b does not depend on u: the linear and the nonlinear residual
        # are one max over every row, and one radial solve with no
        # transform was the whole factor
        residual = nonlinear_residual = float(np.max(np.abs(F)))
        free_rings = int(np.count_nonzero(~operator.fixed[:, 0]))
        linear = {"factorizations": 1, "solves": 1,
                  "factor_floats": free_rings * free_rings,
                  "eigvec_cond": 1.0, "residual": residual}
    else:
        nonlinear_residual = float(np.max(np.abs(F[operator.source_rows])))
        # over all Picard steps; residual is the largest max|A u - b|
        linear = {"factorizations": operator.factorizations,
                  "solves": len(picard_changes),
                  "factor_floats": operator.factor_floats,
                  "eigvec_cond": operator.eigvec_cond,
                  "residual": residual}

    # diagnostics: maximum principle and inner normal-derivative sign
    rings = operator.fixed.all(axis=1)          # the Dirichlet rings
    interior, bvals = u[~rings], u[rings]
    mp_violation = max(0.0, float(bvals.min() - interior.min()),
                       float(interior.max() - bvals.max()))
    diag = {
        # max|G(u_k) - u_k| per step; G(u) is the linear solve with the
        # source frozen at u, and the field returned is the last G(u_k)
        "picard_changes": picard_changes,
        "nonlinear_residual": nonlinear_residual,
        "linear": linear,
        "max_principle_violation": mp_violation,
        "inner_mode": "center" if data.has_center else "trapped_const",
        "chart": coeffs.chart,
        "truncation": float(coeffs.rho[-1]),
        "direction": sign,
    }
    if not data.has_center:
        u_r0, _, _ = field.radial_derivative_rows(0, "plus")
        nu_s_u = -u_r0 / coeffs.sqlam[0]     # normal pointing out of the domain
        theta_plus = (2.0 * coeffs.rhop[0] / (coeffs.sqlam[0] * coeffs.rho[0])
                      + 2.0 * coeffs.b[0])
        diag["inner_normal_derivative"] = {
            "min": float(np.min(nu_s_u)), "max": float(np.max(nu_s_u))}
        diag["inner_theta_plus"] = float(theta_plus)
    field.diagnostics.update(diag)
    return field
