"""Deterministic numerical kernel: radial profiles, axisymmetric grids,
quadrature, an explicit ODE integrator, a line-relaxation elliptic solver,
root bracketing and Richardson extrapolation.

Everything in this module is a pure function of its inputs; no global state,
no randomness.  Identical inputs produce identical outputs across runs.

Conventions
-----------
* Radial coordinate ``r`` is the areal radius in geometrized units (G=c=1).
* Angular coordinate on grids is the polar angle ``theta`` on [0, pi]; all
  angular stencils are expressed in the variable ``x = cos(theta)``, where
  the axisymmetric volume measure is plain ``dx`` and linear functions of
  ``x`` are differentiated exactly by 3-point stencils.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.interpolate import CubicSpline, CubicHermiteSpline
from scipy.linalg import solve_banded
from scipy.optimize import brentq

from .errors import (
    BracketError,
    DomainError,
    IntegrationDivergedError,
    UnconvergedError,
)

_DOMAIN_SLACK = 1e-12


# ---------------------------------------------------------------------------
# Scalar profiles
# ---------------------------------------------------------------------------

class ScalarProfile:
    """A scalar function of radius with first and second derivatives.

    Two backing modes:

    * analytic closures (value plus optional derivative callables; missing
      derivatives fall back to central finite differences of the closure),
    * cubic splines over samples (natural end conditions, or Hermite when
      derivative samples are supplied).  Spline mode reproduces its own
      samples exactly at the nodes.
    """

    def __init__(self, value, d1, d2, domain, label=""):
        self._value = value
        self._d1 = d1
        self._d2 = d2
        self.domain = (float(domain[0]), float(domain[1]))
        self.label = label

    # -- constructors -------------------------------------------------

    @classmethod
    def from_callables(cls, value, d1=None, d2=None, domain=(0.0, np.inf),
                       label=""):
        if d1 is None:
            d1 = _fd_derivative(value, 1)
        if d2 is None:
            d2 = _fd_derivative(value, 2)
        return cls(value, d1, d2, domain, label)

    @classmethod
    def constant(cls, c, domain=(0.0, np.inf), label=""):
        c = float(c)
        return cls(lambda r: np.full_like(np.asarray(r, dtype=float), c),
                   lambda r: np.zeros_like(np.asarray(r, dtype=float)),
                   lambda r: np.zeros_like(np.asarray(r, dtype=float)),
                   domain, label)

    @classmethod
    def from_samples(cls, r, v, dv=None, label=""):
        r = np.asarray(r, dtype=float)
        v = np.asarray(v, dtype=float)
        if r.ndim != 1 or r.size < 4:
            raise ValueError("need at least 4 sample points")
        if np.any(np.diff(r) <= 0):
            raise ValueError("sample radii must be strictly increasing")
        if dv is None:
            spl = CubicSpline(r, v, bc_type="natural")
        else:
            spl = CubicHermiteSpline(r, v, np.asarray(dv, dtype=float))
        d1 = spl.derivative(1)
        d2 = spl.derivative(2)
        return cls(spl, d1, d2, (r[0], r[-1]), label)

    # -- evaluation ---------------------------------------------------

    def _check(self, r, extrapolate):
        r = np.asarray(r, dtype=float)
        if not extrapolate:
            lo, hi = self.domain
            slack = _DOMAIN_SLACK * max(1.0, abs(lo), min(hi, 1e30))
            if np.any(r < lo - slack) or np.any(r > hi + slack):
                raise DomainError(
                    f"radius outside profile domain [{lo}, {hi}]"
                    + (f" ({self.label})" if self.label else ""))
        return r

    def value(self, r, extrapolate=False):
        r = self._check(r, extrapolate)
        return np.asarray(self._value(r), dtype=float)

    def derivative(self, r, order=1, extrapolate=False):
        r = self._check(r, extrapolate)
        if order == 1:
            return np.asarray(self._d1(r), dtype=float)
        if order == 2:
            return np.asarray(self._d2(r), dtype=float)
        raise ValueError("derivative order must be 1 or 2")

    def __call__(self, r, extrapolate=False):
        return self.value(r, extrapolate)


def _fd_derivative(fn, order):
    def d1(r):
        r = np.asarray(r, dtype=float)
        h = 1e-5 * np.maximum(1.0, np.abs(r))
        return (np.asarray(fn(r + h)) - np.asarray(fn(r - h))) / (2 * h)

    def d2(r):
        r = np.asarray(r, dtype=float)
        h = 3e-4 * np.maximum(1.0, np.abs(r))
        return (np.asarray(fn(r + h)) - 2 * np.asarray(fn(r))
                + np.asarray(fn(r - h))) / (h * h)

    return d1 if order == 1 else d2


# ---------------------------------------------------------------------------
# Nonuniform 3-point stencils (exact on quadratics)
# ---------------------------------------------------------------------------

def stencil_d1(z0, z1, z2):
    """First-derivative weights at (z0, z1, z2) for each of the three nodes.

    Returns a (3, 3) array W with d/dz at z_i ~ W[i] . [f0, f1, f2].
    """
    z = np.array([z0, z1, z2], dtype=float)
    W = np.empty((3, 3))
    for i in range(3):
        for j in range(3):
            others = [k for k in range(3) if k != j]
            num = 0.0
            for m in others:
                prod = 1.0
                for n in others:
                    if n != m:
                        prod *= z[i] - z[n]
                num += prod
            den = np.prod([z[j] - z[n] for n in others])
            W[i, j] = num / den
    return W


def stencil_d2(z0, z1, z2):
    """Second-derivative weights of the parabola through (z0, z1, z2)."""
    z = np.array([z0, z1, z2], dtype=float)
    W = np.empty(3)
    for j in range(3):
        others = [k for k in range(3) if k != j]
        den = np.prod([z[j] - z[n] for n in others])
        W[j] = 2.0 / den
    return W


def lagrange_weights(nodes, z):
    """Lagrange interpolation weights at point z for the given nodes."""
    nodes = np.asarray(nodes, dtype=float)
    w = np.empty(nodes.size)
    for j in range(nodes.size):
        prod = 1.0
        for n in range(nodes.size):
            if n != j:
                prod *= (z - nodes[n]) / (nodes[j] - nodes[n])
        w[j] = prod
    return w


# ---------------------------------------------------------------------------
# Axisymmetric grid
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AxisymGrid:
    """Tensor grid (r_i, theta_j) with uniform theta on [0, pi].

    Attributes
    ----------
    r : (N,) strictly increasing radii.
    theta : (M+1,) uniform polar angles, endpoints exactly 0 and pi.
    x : cos(theta); angular stencils act on this (nonuniform) variable.
    """

    r: np.ndarray
    theta: np.ndarray

    def __post_init__(self):
        r = np.asarray(self.r, dtype=float)
        th = np.asarray(self.theta, dtype=float)
        if r.size < 8 or th.size < 9:
            raise ValueError("grid too small: need N >= 8, M >= 8")
        if np.any(np.diff(r) <= 0):
            raise ValueError("r-nodes must be strictly increasing")
        if th[0] != 0.0 or abs(th[-1] - np.pi) > 1e-15 or np.any(
                np.abs(np.diff(th) - (np.pi / (th.size - 1))) > 1e-12):
            raise ValueError("theta must be uniform on [0, pi] incl. endpoints")
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "theta", th)
        object.__setattr__(self, "x", np.cos(th))
        object.__setattr__(self, "n_r", r.size)
        object.__setattr__(self, "n_theta", th.size)

    @classmethod
    def build(cls, r_nodes, n_theta_cells):
        theta = np.linspace(0.0, np.pi, int(n_theta_cells) + 1)
        return cls(np.asarray(r_nodes, dtype=float), theta)

    # Trapezoid weights in x = cos(theta); integrates smooth axisymmetric
    # integrands against the exact sphere measure dx (total weight 2).
    def x_weights(self):
        x = self.x
        w = np.zeros_like(x)
        w[0] = 0.5 * (x[0] - x[1])
        w[-1] = 0.5 * (x[-2] - x[-1])
        w[1:-1] = 0.5 * (x[:-2] - x[2:])
        return w

    def r_weights(self, breaks=()):
        """Composite trapezoid weights in r, split at interior break radii."""
        r = self.r
        w = np.zeros_like(r)
        pts = [r[0]] + sorted(b for b in breaks if r[0] < b < r[-1]) + [r[-1]]
        for lo, hi in zip(pts[:-1], pts[1:]):
            i0 = int(np.searchsorted(r, lo - 1e-12 * max(1, abs(lo))))
            i1 = int(np.searchsorted(r, hi - 1e-12 * max(1, abs(hi))))
            seg = r[i0:i1 + 1]
            if seg.size < 2:
                continue
            dw = np.zeros(seg.size)
            dr = np.diff(seg)
            dw[:-1] += 0.5 * dr
            dw[1:] += 0.5 * dr
            w[i0:i1 + 1] += dw
        return w


def gauss_x_nodes(n=64):
    """Gauss-Legendre nodes/weights on x in [-1, 1] (sphere polar measure)."""
    x, w = np.polynomial.legendre.leggauss(n)
    return x[::-1].copy(), w[::-1].copy()


# ---------------------------------------------------------------------------
# Richardson extrapolation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConvergenceReport:
    """Two-resolution extrapolation record.

    ``observed_order`` requires a third (coarsest) value and is NaN otherwise;
    ``degenerate`` is set when coarse == fine, in which case the extrapolated
    value is just the common value and no division is attempted.
    """

    coarse: float
    fine: float
    extrapolated: float
    observed_order: float
    assumed_order: float
    degenerate: bool = False

    @property
    def error_estimate(self):
        return abs(self.extrapolated - self.fine)


def richardson(coarse, fine, p, third_coarsest=None):
    """Standard Richardson extrapolant (2^p fine - coarse)/(2^p - 1).

    ``third_coarsest`` is the value at resolution 2h (one level coarser than
    ``coarse``); when given, the observed order log2((v_2h - v_h)/(v_h -
    v_h/2)) is reported.
    """
    coarse = float(coarse)
    fine = float(fine)
    if coarse == fine:
        return ConvergenceReport(coarse, fine, fine, float("nan"), p, True)
    fac = 2.0 ** p
    extrap = (fac * fine - coarse) / (fac - 1.0)
    order = float("nan")
    if third_coarsest is not None:
        d1 = float(third_coarsest) - coarse
        d2 = coarse - fine
        if d1 != 0.0 and d2 != 0.0 and d1 * d2 > 0.0:
            order = float(np.log2(abs(d1) / abs(d2)))
    return ConvergenceReport(coarse, fine, extrap, order, p, False)


def limit_from_sequence(values, p=1.0):
    """Iterated Richardson limit of values at resolutions h, h/2, h/4, ...

    Each level raises the assumed order by one starting from ``p``.  Returns
    (limit, ConvergenceReport of the last pair at the deepest level).
    """
    vals = [float(v) for v in values]
    if len(vals) < 2:
        raise ValueError("need at least two values")
    third = vals[-3] if len(vals) >= 3 else None
    base = richardson(vals[-2], vals[-1], p, third)
    level = list(vals)
    order = p
    while len(level) > 1:
        level = [richardson(a, b, order).extrapolated
                 for a, b in zip(level[:-1], level[1:])]
        order += 1.0
    return level[0], ConvergenceReport(base.coarse, base.fine, level[0],
                                       base.observed_order, p,
                                       base.degenerate)


# ---------------------------------------------------------------------------
# ODE integration (classical RK4, fixed step)
# ---------------------------------------------------------------------------

def integrate_ode(rhs, y0, interval, step, max_retries=1):
    """Integrate y' = rhs(t, y) with classical RK4 at fixed step.

    Returns (t_samples, y_samples): the n + 1 abscissae of the uniform
    steps and the state at each, shaped (n + 1, len(y0)).  On a
    non-finite state the whole integration is retried once with the step
    halved; if that also fails, an IntegrationDivergedError carrying the
    last good abscissa is raised.
    """
    t0, t1 = float(interval[0]), float(interval[1])
    if step <= 0:
        raise ValueError("step bound must be positive")
    y0 = np.atleast_1d(np.asarray(y0, dtype=float))

    h_try = float(step)
    last_good = t0
    for attempt in range(max_retries + 1):
        n = max(1, int(np.ceil((t1 - t0) / h_try)))
        h = (t1 - t0) / n
        ts = np.empty(n + 1)
        ys = np.empty((n + 1, y0.size))
        ts[0] = t0
        ys[0] = y0
        t, y = t0, y0.copy()
        ok = True
        for i in range(n):
            k1 = np.asarray(rhs(t, y), dtype=float)
            k2 = np.asarray(rhs(t + 0.5 * h, y + 0.5 * h * k1), dtype=float)
            k3 = np.asarray(rhs(t + 0.5 * h, y + 0.5 * h * k2), dtype=float)
            k4 = np.asarray(rhs(t + h, y + h * k3), dtype=float)
            y = y + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
            t = t0 + (i + 1) * h
            if not np.all(np.isfinite(y)):
                ok = False
                break
            last_good = t
            ts[i + 1] = t
            ys[i + 1] = y
        if ok:
            return ts, ys
        h_try *= 0.5
    raise IntegrationDivergedError(
        f"state became non-finite near t = {last_good:.6g}",
        last_good_radius=last_good)


# ---------------------------------------------------------------------------
# Root bracketing
# ---------------------------------------------------------------------------

def find_root(f, bracket, tol=1e-12):
    """Bisection/secant hybrid root of a continuous f with a sign change."""
    a, b = float(bracket[0]), float(bracket[1])
    fa, fb = float(f(a)), float(f(b))
    if fa == 0.0:
        return a
    if fb == 0.0:
        return b
    if fa * fb > 0.0:
        raise BracketError(f"no sign change on [{a}, {b}]: f={fa:.3g},{fb:.3g}")
    return float(brentq(f, a, b, xtol=tol, rtol=8.881784197001252e-16))


# ---------------------------------------------------------------------------
# Linear elliptic relaxation solver (line SOR, lexicographic in r)
# ---------------------------------------------------------------------------

@dataclass
class EllipticStencil:
    """Five-point stencil plus slaved rows for an axisymmetric operator.

    Arrays are (N, M+1): cC at the node, cE/cW radial neighbours (i+1/i-1),
    cN/cS angular neighbours (j+1/j-1).  ``fixed`` marks Dirichlet nodes
    whose values are held; ``interface_rows`` maps a radial index to a
    (offsets, coefs) pair describing a purely radial constraint row such as
    corner flux continuity; the two axis columns are quadratically
    extrapolated after each sweep; ``center`` optionally slaves a virtual
    r=0 value feeding the inner neighbour of the innermost row.
    """

    cC: np.ndarray
    cE: np.ndarray
    cW: np.ndarray
    cN: np.ndarray
    cS: np.ndarray
    fixed: np.ndarray
    interface_rows: dict
    axis_weights: tuple  # (w_north(3,), w_south(3,)) acting on rows 1..3
    center: Optional[dict] = None  # {'w_mean': (M+1,), 'r1': .., 'r2': ..}


def _axis_extrap_weights(x):
    w_n = lagrange_weights(x[1:4], x[0])
    w_s = lagrange_weights(x[-4:-1], x[-1])
    return w_n, w_s


def _update_slaved(u, st: EllipticStencil):
    w_n, w_s = st.axis_weights
    u[:, 0] = w_n[0] * u[:, 1] + w_n[1] * u[:, 2] + w_n[2] * u[:, 3]
    u[:, -1] = w_s[0] * u[:, -4] + w_s[1] * u[:, -3] + w_s[2] * u[:, -2]


def _center_value(u, st: EllipticStencil):
    c = st.center
    wm = c["w_mean"]
    s1 = float(wm @ u[0])
    s2 = float(wm @ u[1])
    r1, r2 = c["r1"], c["r2"]
    return (s1 * r2 * r2 - s2 * r1 * r1) / (r2 * r2 - r1 * r1)


def residual_norm(u, st: EllipticStencil, source, u_center=0.0):
    """Max norm of the diagonally scaled residual over non-slaved rows."""
    res = 0.0
    N, M1 = u.shape
    for i in range(N):
        if np.all(st.fixed[i]):
            continue
        if i in st.interface_rows:
            offs, coefs = st.interface_rows[i]
            acc = np.zeros(M1)
            for o, c in zip(offs, coefs):
                acc += c * u[i + o]
            diag = coefs[list(offs).index(0)]
            res = max(res, float(np.max(np.abs(acc[1:-1] / diag))))
            continue
        west = u[i - 1] if i > 0 else np.full(M1, u_center)
        east = u[i + 1] if i + 1 < N else np.zeros(M1)
        acc = (st.cC[i] * u[i]
               + st.cE[i] * east + st.cW[i] * west)
        acc[1:-1] += st.cN[i, 1:-1] * u[i, 2:] + st.cS[i, 1:-1] * u[i, :-2]
        acc[1:-1] -= source[i, 1:-1]
        r_line = np.abs(acc[1:-1] / st.cC[i, 1:-1])
        r_line[st.fixed[i, 1:-1]] = 0.0
        res = max(res, float(np.max(r_line)))
    return res


def solve_linear_elliptic(grid: AxisymGrid, stencil: EllipticStencil,
                          source, boundary_values, *, omega=None,
                          tol=1e-10, max_sweeps=20000, check_every=10,
                          u0=None, collect_history=False):
    """Relaxation solve of the stencil equations to a residual tolerance.

    Line variant of SOR: radial rows are swept in fixed lexicographic order
    (increasing r), each row solved exactly along theta (tridiagonal), then
    over-relaxed; axis columns and the optional centre value are slaved
    updates after every sweep.  Deterministic by construction.

    ``boundary_values`` must hold the Dirichlet values at ``stencil.fixed``
    nodes.  Returns (u, info dict with 'sweeps', 'residual', 'history').
    """
    N, M1 = grid.n_r, grid.n_theta
    if omega is None:
        omega = 2.0 / (1.0 + np.sin(np.pi / max(N, M1)))
    u = np.array(boundary_values if u0 is None else u0, dtype=float)
    u[stencil.fixed] = boundary_values[stencil.fixed]
    _update_slaved(u, stencil)
    u[stencil.fixed] = boundary_values[stencil.fixed]
    u_center = _center_value(u, stencil) if stencil.center else 0.0

    history = []
    res0 = residual_norm(u, stencil, source, u_center)
    if res0 <= tol:
        return u, {"sweeps": 0, "residual": res0, "history": [res0],
                   "u_center": u_center, "omega": omega}

    ab = np.zeros((3, M1 - 2))
    sweeps = 0
    res = res0
    while sweeps < max_sweeps:
        for i in range(0, N - 1):
            if np.all(stencil.fixed[i]):
                continue
            if i in stencil.interface_rows:
                offs, coefs = stencil.interface_rows[i]
                diag = coefs[list(offs).index(0)]
                acc = np.zeros(M1)
                for o, c in zip(offs, coefs):
                    if o != 0:
                        acc += c * u[i + o]
                u[i] = -acc / diag
                continue
            west = u[i - 1] if i > 0 else np.full(M1, u_center)
            rhs = (source[i] - stencil.cE[i] * u[i + 1]
                   - stencil.cW[i] * west)
            # tridiagonal line in theta over interior j
            ab[0, 1:] = stencil.cN[i, 1:-2]
            ab[1, :] = stencil.cC[i, 1:-1]
            ab[2, :-1] = stencil.cS[i, 2:-1]
            b = rhs[1:-1].copy()
            b[0] -= stencil.cS[i, 1] * u[i, 0]
            b[-1] -= stencil.cN[i, -2] * u[i, -1]
            line = solve_banded((1, 1), ab, b)
            u[i, 1:-1] = (1.0 - omega) * u[i, 1:-1] + omega * line
        _update_slaved(u, stencil)
        u[stencil.fixed] = boundary_values[stencil.fixed]
        if stencil.center:
            u_center = _center_value(u, stencil)
        sweeps += 1
        if sweeps % check_every == 0 or sweeps == max_sweeps:
            res = residual_norm(u, stencil, source, u_center)
            if collect_history:
                history.append(res)
            if res <= tol:
                return u, {"sweeps": sweeps, "residual": res,
                           "history": history or [res],
                           "u_center": u_center, "omega": omega}
    raise UnconvergedError(
        f"relaxation hit sweep cap {max_sweeps} (residual {res:.3e})",
        residual=res, history=history)
