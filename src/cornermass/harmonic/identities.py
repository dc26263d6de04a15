"""Term-by-term numerical checks of the two boundary identities.

Both checks evaluate exact-calculus identities for level sets of an
axisymmetric function u on the radial metric.  The identities as used in
the mass bound assume Delta u + K |grad u| = 0; for injected (non-
solution) fields the checkers add the closed-form harmonicity-defect
compensation so that the residual still converges to zero at stencil
order.  Writing G = Delta u + K |grad u| and n = grad u / |grad u|:

* sphere identity (boundary formula): the true pointwise identity
  carries an extra (nu(u)/|grad u|) G on the right-hand side;

* bulk identity (integral formula): the two sides differ by

      D = int < grad G, n > - G (K + n(|grad u|)) + G^2 / (2 |grad u|).

Geodesic curvature convention: kappa is the curvature of the
intersection curve tau_t = {u = t} cap sphere *within the level set*,
with respect to its outward normal there; on the sphere with outward
unit normal sigma e_r this is

    kappa = [sigma sqrt(f) |q| - cot(th) p sign(q)] / (r |grad u|),

p = nu(u), q = u_theta / r.  (For u = z on the unit sphere in flat space
this gives 1/sin(th), the in-plane curvature of the latitude circle.)

Level-set Euler characteristics come from counting axis crossings: a
surface of revolution generated by a curve in the (r, th) half-plane has
chi equal to the number of generator endpoints on the axis.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from ..errors import DomainError
from ..numgrid import gauss_x_nodes
from .fields import AxisymField, centre_weights, spacetime_hessian

# Gauss-Legendre nodes of the closure route of the sphere identity
N_QUAD = 96
# level bins of the Euler-characteristic integral, and the |grad u| below
# which a bin's level is near a grid critical point
N_LEVEL_BINS = 300
CRITICAL_GRAD = 1e-6


# ---------------------------------------------------------------------------
# Boundary formula on one sphere
# ---------------------------------------------------------------------------

class BoundaryFormulaReport:
    __slots__ = ("r_c", "lhs", "rhs", "harmonic_defect", "terms",
                 "max_pointwise", "excluded_measure", "excluded_flagged")

    def __init__(self, r_c: float, lhs: float, rhs: float,
                 harmonic_defect: float, terms: Dict[str, float],
                 max_pointwise: float, excluded_measure: float,
                 excluded_flagged: bool):
        self.r_c = r_c
        self.lhs = lhs
        self.rhs = rhs
        self.harmonic_defect = harmonic_defect
        self.terms = terms
        self.max_pointwise = max_pointwise
        self.excluded_measure = excluded_measure
        self.excluded_flagged = excluded_flagged

    @property
    def residual(self):
        """Defect-compensated identity residual."""
        return self.lhs - self.rhs - self.harmonic_defect


def _closure_eval(field, name, r, x):
    fn = field.closures.get(name)
    if fn is None:
        raise KeyError(f"closure {name!r} missing")
    return fn(r, x)


def _sphere_samples_from_closures(field, r_c, x):
    u_r = _closure_eval(field, "u_r", r_c, x)
    u_x = _closure_eval(field, "u_x", r_c, x)
    u_rr = _closure_eval(field, "u_rr", r_c, x)
    u_rx = _closure_eval(field, "u_rx", r_c, x)
    u_xx = _closure_eval(field, "u_xx", r_c, x)
    return u_r, u_x, u_rr, u_rx, u_xx


def _sphere_samples_from_grid(field, i, side):
    d = field._derivs()
    u_r, u_rr, u_rx = field.radial_derivative_rows(i, side)
    return u_r, d["u_x"][i], u_rr, u_rx, d["u_xx"][i]


def boundary_formula_check(field: AxisymField, r_c,
                           side="minus") -> BoundaryFormulaReport:
    """Compare both sides of the sphere identity at r = r_c, term by term,
    on the field's own data (``field.coeffs.data``).

    With analytic closures attached to the field the integrands are
    evaluated on a Gauss grid in x (quadrature-exact for smooth data);
    otherwise grid rows and trapezoid weights in x are used.  One stencil
    row at each pole is excluded, with its measure reported; the check is
    flagged if the excluded measure exceeds 1 percent.
    """
    use_closures = bool(field.closures)
    grid = field.grid
    if use_closures:
        x, w = gauss_x_nodes(N_QUAD)
        u_r, u_x, u_rr, u_rx, u_xx = _sphere_samples_from_closures(
            field, r_c, x)
        data = field.coeffs.data
        patch = data.patch_at(r_c, side if data.is_corner(r_c) else "auto")
        f = float(patch.fv(r_c))
        fp = float(patch.fp(r_c))
        a_k = float(patch.av(r_c))
        b_k = float(patch.bv(r_c))
    else:
        i = int(np.argmin(np.abs(grid.r - r_c)))
        if abs(grid.r[i] - r_c) > 1e-9 * max(1.0, r_c):
            raise DomainError("sphere radius must be a grid node")
        x = grid.x.copy()
        w = grid.x_weights()
        u_r, u_x, u_rr, u_rx, u_xx = _sphere_samples_from_grid(field, i, side)
        c = field.coeffs.side(side)
        f, fp = 1.0 / c.lam[i], -c.lamp[i] / c.lam[i] ** 2
        a_k, b_k = c.a[i], c.b[i]
        r_c = float(grid.r[i])

    sqf = np.sqrt(f)
    K = a_k + 2.0 * b_k
    sin = np.sqrt(np.maximum(1.0 - x * x, 0.0))

    # pole exclusion: one stencil row at each end
    keep = np.ones(x.size, dtype=bool)
    if not use_closures:
        keep[0] = keep[-1] = False
    excluded = float(np.sum(w[~keep]) / np.sum(w))

    p = sqf * u_r                        # nu(u)
    q = -sin * u_x / r_c                 # u_theta / r
    gn = np.hypot(p, q)
    tiny = gn < 1e-13 * max(1.0, float(np.max(gn)))
    keep &= ~tiny
    excluded = float(np.sum(w[np.logical_not(keep)]) / np.sum(w))

    H = 2.0 * sqf / r_c
    area_el = 2.0 * np.pi * r_c * r_c * w

    # LHS:  d_nu |grad u| + k(grad u, nu).  On the grid path the norm is
    # differentiated as a field (an independent route from the chain rule
    # used on the right-hand side), so the residual measures genuine
    # stencil error instead of an algebraic identity.
    if use_closures:
        dr_gn = (0.5 * fp * u_r**2 + f * u_r * u_rr
                 + (1.0 - x * x) * (u_x * u_rx - u_x**2 / r_c) / r_c**2)
        with np.errstate(divide="ignore", invalid="ignore"):
            dnu_gn = sqf * dr_gn / gn
    else:
        gn_field = field.grad_norm_plain(side)
        dnu_gn = sqf * field.coeffs.stencils.d_r(gn_field, 1, side)[i]
    k_term = a_k * p
    lhs_pt = dnu_gn + k_term

    # RHS terms
    pi_term = -2.0 * b_k * p             # pi(grad u, nu), tangential omega = 0
    minus_H = -H * gn
    lap_eta = ((1.0 - x * x) * u_xx - 2.0 * x * u_x) / r_c**2
    with np.errstate(divide="ignore", invalid="ignore"):
        # pole-regular combinations: cot(th) q = -x u_x / r
        kappa_coarea = (sqf * q * q + x * p * u_x / r_c) / (r_c * gn)
        t_lap = -(p / gn) * lap_eta
        t_grad = (1.0 - x * x) * u_x * u_rx * sqf / (r_c**2 * gn)
        t_turn = -p * x * u_x / (r_c**2 * gn)
        G = (f * u_rr + (2.0 * f / r_c + 0.5 * fp) * u_r + lap_eta
             + K * gn)
        t_defect = (p / gn) * G
    rhs_pt = pi_term + minus_H + kappa_coarea + t_lap + t_grad + t_turn

    def integ(arr):
        return float(np.sum(arr[keep] * area_el[keep]))

    terms = {
        "boundary_momentum": integ(pi_term),
        "minus_H_grad": integ(minus_H),
        "kappa_coarea": integ(kappa_coarea),
        "laplacian_eta": integ(t_lap),
        "grad_eta_nu_u": integ(t_grad),
        "turning": integ(t_turn),
        "harmonic_defect": integ(t_defect),
    }
    lhs = integ(lhs_pt)
    rhs = sum(v for k, v in terms.items() if k != "harmonic_defect")
    defect = terms["harmonic_defect"]
    max_pt = float(np.max(np.abs((lhs_pt - rhs_pt - (p / gn) * G)[keep]))) \
        if np.any(keep) else 0.0
    return BoundaryFormulaReport(
        r_c=r_c, lhs=lhs, rhs=rhs, harmonic_defect=defect, terms=terms,
        max_pointwise=max_pt, excluded_measure=excluded,
        excluded_flagged=excluded > 0.01)


# ---------------------------------------------------------------------------
# Integral formula on an annulus (or ball) region
# ---------------------------------------------------------------------------

class IntegralFormulaReport:
    __slots__ = ("r_lo", "r_hi", "lhs", "rhs", "defect", "boundary_flux",
                 "k_flux", "chi_integral", "kappa_boundary",
                 "excluded_measure", "flagged_bins")

    def __init__(self, r_lo: Optional[float], r_hi: float, lhs: float,
                 rhs: float, defect: float, boundary_flux: float,
                 k_flux: float, chi_integral: float, kappa_boundary: float,
                 excluded_measure: float, flagged_bins: int):
        self.r_lo = r_lo
        self.r_hi = r_hi
        self.lhs = lhs
        self.rhs = rhs
        self.defect = defect
        self.boundary_flux = boundary_flux
        self.k_flux = k_flux
        self.chi_integral = chi_integral
        self.kappa_boundary = kappa_boundary
        self.excluded_measure = excluded_measure
        self.flagged_bins = flagged_bins

    @property
    def residual(self):
        return self.rhs - self.lhs - self.defect

    def inequality_ok(self, tol=1e-6):
        """Inequality direction LHS <= RHS once the defect is accounted."""
        return self.lhs + self.defect <= self.rhs + tol


def integral_formula_check(field: AxisymField,
                           region: Tuple[Optional[float], float]
                           ) -> IntegralFormulaReport:
    """Bulk integral vs boundary + level-set terms on a radial region of
    the field's own data (``field.coeffs.data``).

    ``region`` is (r_lo, r_hi) with r_lo = None meaning a full ball; both
    radii must be grid nodes inside one smooth patch.  The level-set term
    is evaluated by Gauss-Bonnet per level bin: 2 pi chi(t) (axis-crossing
    count) minus the boundary geodesic-curvature co-area integral.  Bins
    whose level passes near a grid critical point of |grad u| are excluded
    and their measure reported.
    """
    grid = field.grid
    c = field.coeffs
    r = grid.r
    r_lo, r_hi = region
    i_hi = int(np.argmin(np.abs(r - r_hi)))
    i_lo = 0 if r_lo is None else int(np.argmin(np.abs(r - r_lo)))
    if abs(r[i_hi] - r_hi) > 1e-9 * max(1.0, r_hi):
        raise DomainError("region radii must be grid nodes")
    for rc in c.data.corner_radii:
        if (r_lo or r[0]) < rc < r_hi:
            raise DomainError("region must lie within one smooth patch")

    ball = r_lo is None
    sl = slice(i_lo, i_hi + 1)
    delta = field.delta if field.delta > 0 else 0.0

    # ---- LHS bulk integral ----
    hes = spacetime_hessian(field)
    gn = field.grad_norm_plain()
    gnd = np.sqrt(gn * gn + delta * delta)
    u_t, q = field.gradient()
    w_x = grid.x_weights()
    rr = r[sl]
    dr = np.diff(rr)
    w_r = np.zeros(rr.size)
    w_r[:-1] += 0.5 * dr
    w_r[1:] += 0.5 * dr
    vol = 2.0 * np.pi * c.volume_density[sl, None] \
        * w_r[:, None] * w_x[None, :]
    integrand = (0.5 * hes.norm_sq[sl] / gnd[sl]
                 + c.mu[sl, None] * gn[sl] + c.Jn[sl, None] * u_t[sl])
    lhs = float(np.sum(integrand * vol))

    # ---- boundary sphere terms ----
    st = c.stencils
    gn_field = gnd if delta > 0 else gn
    gn_r = st.d_r(gn_field, 1)
    d = field._derivs()
    f, sqf = 1.0 / c.lam, 1.0 / c.sqlam      # the areal f = 1/lam

    def sphere_terms(i, sigma):
        area_el = 2.0 * np.pi * r[i] ** 2 * w_x
        dnu = sigma * sqf[i] * gn_r[i]
        kflux = sigma * c.a[i] * u_t[i]
        p = sigma * u_t[i]
        qq = q[i]
        # kappa |grad_S eta| in the pole-regular form
        # (sigma sqrt(f) q^2 + x p u_x / rho) / (r |grad u|)
        with np.errstate(divide="ignore", invalid="ignore"):
            kap_coarea = (sigma * sqf[i] * qq * qq
                          + grid.x * p * d["u_x"][i] / c.rho[i]) \
                / (r[i] * np.where(gn[i] > 0, gn[i], 1.0))
        keep = gn[i] > 1e-13
        return (float(np.sum(dnu[keep] * area_el[keep])),
                float(np.sum(kflux[keep] * area_el[keep])),
                float(np.sum(kap_coarea[keep] * area_el[keep])))

    flux, kflux, kap_total = sphere_terms(i_hi, +1.0)
    if not ball:
        fl, kf, ka = sphere_terms(i_lo, -1.0)
        flux += fl
        kflux += kf
        kap_total += ka

    # ---- level-set Euler characteristic integral ----
    u_reg = field.values[sl]
    t_min, t_max = float(u_reg.min()), float(u_reg.max())
    edges = np.linspace(t_min, t_max, N_LEVEL_BINS + 1)
    mids = 0.5 * (edges[:-1] + edges[1:])
    dt = edges[1] - edges[0]
    axis_n = field.values[sl, 0]
    axis_s = field.values[sl, -1]
    if ball:
        # the axis continues to r = 0; levels between the centre value and
        # the innermost ring cross there
        w0, w1 = centre_weights(grid)
        u_c = float(w0 @ field.values[0] + w1 @ field.values[1])
        axis_n = np.concatenate([[u_c], axis_n])
        axis_s = np.concatenate([[u_c], axis_s])
    excluded_bins = []
    gmin_per_node = gn[sl]
    for t in mids:
        near = np.abs(u_reg - t) <= dt
        if np.any(near) and \
                float(np.min(gmin_per_node[near])) < CRITICAL_GRAD:
            excluded_bins.append((t - 0.5 * dt, t + 0.5 * dt))
    excluded = len(excluded_bins)
    excluded_measure = excluded * dt / max(t_max - t_min, 1e-300)

    # integral of the axis-crossing count over level values: exactly the
    # total variation of u along the axis, minus overlap with excluded bins
    def tv_contribution(axis_vals):
        tot = 0.0
        for va, vb in zip(axis_vals[:-1], axis_vals[1:]):
            lo, hi = (va, vb) if va <= vb else (vb, va)
            length = hi - lo
            for (elo, ehi) in excluded_bins:
                length -= max(0.0, min(hi, ehi) - max(lo, elo))
            tot += max(0.0, length)
        return tot

    chi_int = 2.0 * np.pi * (tv_contribution(axis_n)
                             + tv_contribution(axis_s))

    level_term = chi_int - kap_total
    rhs = flux + kflux + level_term

    # ---- harmonicity defect ----
    G = field.laplacian() + c.K[:, None] * gn
    G_r = st.d_r(G, 1)
    G_x = st.d_x(G, 1)
    gn_x = st.d_x(gn_field, 1)
    with np.errstate(divide="ignore", invalid="ignore"):
        inv = 1.0 / gnd
    # < grad G, n > and n(|grad u|) with n = grad u / |grad u|_delta
    rr_all = r[:, None]
    grad_dot = lambda A_r, A_x: (f[:, None] * A_r * d["u_r"]
                                 + (1.0 - grid.x[None, :]**2)
                                 * A_x * d["u_x"] / rr_all**2)
    dG_n = grad_dot(G_r, G_x) * inv
    phi_n = grad_dot(gn_r, gn_x) * inv
    defect_int = (dG_n - G * (c.K[:, None] + phi_n * inv)
                  + 0.5 * G * G * inv)
    defect = float(np.sum(defect_int[sl] * vol))

    return IntegralFormulaReport(
        r_lo=None if ball else float(r[i_lo]), r_hi=float(r[i_hi]),
        lhs=lhs, rhs=rhs, defect=defect, boundary_flux=flux, k_flux=kflux,
        chi_integral=chi_int, kappa_boundary=kap_total,
        excluded_measure=float(excluded_measure), flagged_bins=excluded)
