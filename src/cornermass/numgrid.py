"""Deterministic numerical kernel: radial profiles, axisymmetric grids,
quadrature, an explicit ODE integrator, a direct (sparse LU) elliptic
solve, a bracketed root finder and Richardson extrapolation.

Everything in this module is a pure function of its inputs; no global state,
no randomness.  Identical inputs produce identical outputs across runs.  The
one cache, an elliptic operator's LU factor, depends only on the operator.
The only scipy module used here, scipy.sparse.linalg, is imported by the
one function that factors an operator, so importing the package loads no
scipy and commands that solve no elliptic problem never do.

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

import numpy as np

from .errors import (
    BracketError,
    DomainError,
    IntegrationDivergedError,
    SingularFactorError,
)

_DOMAIN_SLACK = 1e-12


# ---------------------------------------------------------------------------
# Scalar profiles
# ---------------------------------------------------------------------------

class ScalarProfile:
    """A scalar function of radius with first and second derivatives,
    backed by analytic closures: a value callable plus optional derivative
    callables, missing derivatives falling back to central finite
    differences of the closure.
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

    Returns a (3, 3) array W with d/dz at z_i ~ W[i] . [f0, f1, f2]; for
    arrays of node triples, W[i, j] holds one weight per triple.
    """
    z = np.array([z0, z1, z2], dtype=float)
    W = np.empty((3, 3) + z.shape[1:])
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
            den = np.prod([z[j] - z[n] for n in others], axis=0)
            W[i, j] = num / den
    return W


def stencil_d2(z0, z1, z2):
    """Second-derivative weights of the parabola through (z0, z1, z2),
    one column per triple for arrays of node triples."""
    z = np.array([z0, z1, z2], dtype=float)
    W = np.empty((3,) + z.shape[1:])
    for j in range(3):
        others = [k for k in range(3) if k != j]
        den = np.prod([z[j] - z[n] for n in others], axis=0)
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
    """Root of f in a bracket whose end values differ in sign.

    Illinois steps (regula falsi with the value at an end that is kept
    twice in a row halved) shrink the bracket superlinearly on smooth f;
    a step that fails to halve the bracket is followed by a bisection, so
    the bracket at least halves every two evaluations even on a flat or
    discontinuous f.  Stops when the bracket is no wider than ``tol`` (or
    has no float strictly inside) and returns the end with the smaller
    |f|, which lies within ``tol`` of a sign change of f.  Raises
    BracketError when the end values have the same sign.
    """
    a, b = float(bracket[0]), float(bracket[1])
    fa, fb = float(f(a)), float(f(b))
    if fa == 0.0:
        return a
    if fb == 0.0:
        return b
    if fa * fb > 0.0:
        raise BracketError(f"no sign change on [{a}, {b}]: f={fa:.3g},{fb:.3g}")
    ga, gb = fa, fb                 # end values as weighted by Illinois
    kept = None                     # the end kept by the last step
    bisect = False
    while True:
        width, mid = abs(b - a), 0.5 * (a + b)
        if width <= tol or not min(a, b) < mid < max(a, b):
            break
        x = mid
        if not bisect:
            x = b - gb * (b - a) / (gb - ga)
            if not min(a, b) < x < max(a, b):
                x = mid
        fx = float(f(x))
        if fx == 0.0:
            return x
        if (fx < 0.0) == (fa < 0.0):
            a, fa, ga = x, fx, fx
            if kept == "b":
                gb *= 0.5
            kept = "b"
        else:
            b, fb, gb = x, fx, fx
            if kept == "a":
                ga *= 0.5
            kept = "a"
        bisect = abs(b - a) > 0.5 * width
    return a if abs(fa) < abs(fb) else b


# ---------------------------------------------------------------------------
# Linear elliptic solve (one sparse LU per operator)
# ---------------------------------------------------------------------------

class EllipticOperator:
    """The linear system A v = b of one axisymmetric grid, factored once.

    The unknowns v are the (N, M+1) node values in row-major order,
    followed by any extra unknowns the operator couples in (a centre
    value).  The right-hand side holds the source at the ``source_rows``
    nodes, the Dirichlet value at the ``fixed`` nodes and zero at every
    other row (axis extrapolation, corner continuity, centre definition).
    The sparse LU factor is computed on the first solve and reused by
    every later one; it is the only state the operator keeps.
    """

    def __init__(self, matrix, fixed, source_rows):
        self.matrix = matrix.tocsc()
        self.fixed = np.asarray(fixed, dtype=bool)
        self.source_rows = np.asarray(source_rows, dtype=bool)
        self.factorizations = 0
        self._lu = None

    def factor(self):
        """The sparse LU factor, computed on the first call."""
        if self._lu is None:
            from scipy.sparse.linalg import splu
            try:
                # minimum-degree ordering on A^T A with unit supernode
                # relaxation and panels: on the 129^2 schwarzschild grid
                # L + U hold 1.11M entries against 1.33M with the default
                # COLAMD, which keeps that run's peak memory below SOR's
                self._lu = splu(self.matrix, permc_spec="MMD_ATA", relax=1,
                                panel_size=1)
            except RuntimeError as exc:
                raise SingularFactorError(
                    f"sparse LU of the {self.matrix.shape[0]}-unknown "
                    f"operator failed: {exc}") from exc
            self.factorizations += 1
        return self._lu

    @property
    def factor_nnz(self):
        """Nonzeros stored in the L and U factors (0 before the first
        solve), as SuperLU counts them: reading ``lu.L`` and ``lu.U``
        instead would copy both factors."""
        return 0 if self._lu is None else int(self._lu.nnz)


def solve_linear_elliptic(operator: EllipticOperator, source,
                          boundary_values):
    """Direct solve of the operator's equations for one source.

    ``source`` holds the right-hand side at the stencil nodes and
    ``boundary_values`` the Dirichlet values at ``operator.fixed``; both
    are (N, M+1).  Returns (u, info) with 'residual' = max|A v - b| and
    'sweeps' = 0 (a direct solve does no relaxation sweeps).
    """
    fixed = operator.fixed
    n_nodes = fixed.size
    b = np.zeros(operator.matrix.shape[0])
    nodes = b[:n_nodes].reshape(fixed.shape)     # a view: writes fill b
    rows = operator.source_rows
    nodes[rows] = np.asarray(source, dtype=float)[rows]
    nodes[fixed] = np.asarray(boundary_values, dtype=float)[fixed]
    v = operator.factor().solve(b)
    residual = float(np.max(np.abs(operator.matrix @ v - b)))
    u = v[:n_nodes].reshape(fixed.shape)
    return u, {"sweeps": 0, "residual": residual}
