"""Spherically symmetric data patches and pointwise geometric quantities.

A patch carries the metric ``g = f(r)^{-1} dr^2 + r^2 dOmega^2`` together
with a symmetric 2-tensor ``k`` given by its two rotational eigenvalues:
``a`` on the unit radial normal and ``b`` on the tangential directions.
In the orthonormal frame (e_r, e_th, e_ph):

    k = diag(a, b, b),      tr k = a + 2b,      |k|^2 = a^2 + 2 b^2.

Closed forms used throughout (derived once from the metric ansatz and
cross-checked in the test suite against a brute-force Cartesian stencil):

    R    = (2/r^2) (1 - f - r f'),
    H    = 2 sqrt(f) / r                    (outward coordinate sphere),
    mu   = (R + (tr k)^2 - |k|^2) / 2,
    J_r  = 2 (a - b)/r - 2 b'               (covariant dr-component of div pi),
    J_n  = sqrt(f) J_r                       (component on the unit normal).

The sign convention is J = div pi exactly; with it, a positive J_n means
the momentum current points along the outward radial normal.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError
from .numgrid import ScalarProfile

_CENTER_TOL = 1e-8


class RadialPatch:
    """One smooth rotationally symmetric data patch on a radius interval."""

    __slots__ = ("f", "a", "b", "r_in", "r_out", "label")

    def __init__(self, f: ScalarProfile, a: ScalarProfile, b: ScalarProfile,
                 r_in: float, r_out: float, label: str = ""):
        self.f = f
        self.a = a
        self.b = b
        self.r_in = r_in
        self.r_out = r_out
        self.label = label
        if self.r_in < 0:
            raise ValueError("r_in must be >= 0")
        if self.r_out <= self.r_in:
            raise ValueError("empty patch domain")
        # radii inside the patch, also when it ends below r = 1
        scale = min(1.0, self.r_out)
        rs = np.linspace(max(self.r_in, 1e-8 * scale), self.r_out, 64)
        if np.any(self.f.value(rs) <= 0):
            raise ValueError("metric coefficient f must be positive")
        if self.r_in == 0.0:
            # smooth centre: f(0) = 1 and finite k eigenvalues
            f0 = float(self.f.value(1e-9 * scale))
            a0 = float(self.a.value(1e-9 * scale))
            b0 = float(self.b.value(1e-9 * scale))
            if abs(f0 - 1.0) > _CENTER_TOL:
                raise ValueError(f"centre regularity violated: f(0) = {f0}")
            if not (np.isfinite(a0) and np.isfinite(b0)):
                raise ValueError("centre regularity violated: k not finite")

    # -- domain -------------------------------------------------------

    def contains(self, r):
        pad = 1e-12 * max(1.0, self.r_out)
        return (self.r_in - pad) <= r <= (self.r_out + pad)

    def _require(self, r):
        if not self.contains(r):
            raise DomainError(
                f"r = {r} outside patch [{self.r_in}, {self.r_out}]")

    # -- profile access (values may be vectorized over r) --------------

    def fv(self, r):
        return self.f.value(r)

    def fp(self, r):
        return self.f.derivative(r)

    def av(self, r):
        return self.a.value(r)

    def bv(self, r):
        return self.b.value(r)

    def bp(self, r):
        return self.b.derivative(r)

    def tr_k(self, r):
        return self.av(r) + 2.0 * self.bv(r)


class ConstraintSample:
    __slots__ = ("radius", "R", "mu", "J_radial")

    def __init__(self, radius: float, R: float, mu: float, J_radial: float):
        self.radius = radius
        self.R = R
        self.mu = mu
        self.J_radial = J_radial

    @property
    def dec_margin(self):
        return float(dec_margin(self.mu, self.J_radial))


class MomentumTensorSample:
    __slots__ = ("radius", "pi_nn", "pi_tan", "tr_k", "tr_sigma_k")

    def __init__(self, radius: float, pi_nn: float, pi_tan: float,
                 tr_k: float, tr_sigma_k: float):
        self.radius = radius
        self.pi_nn = pi_nn
        self.pi_tan = pi_tan
        self.tr_k = tr_k
        self.tr_sigma_k = tr_sigma_k


class NullExpansions:
    __slots__ = ("radius", "theta_plus", "theta_minus")

    def __init__(self, radius: float, theta_plus: float, theta_minus: float):
        self.radius = radius
        self.theta_plus = theta_plus
        self.theta_minus = theta_minus

    @property
    def weakly_outer_trapped(self):
        return self.theta_plus <= 0.0


class DecReport:
    __slots__ = ("min_margin", "radius_of_min", "samples", "tolerance")

    def __init__(self, min_margin: float, radius_of_min: float, samples: int,
                 tolerance: float):
        self.min_margin = min_margin
        self.radius_of_min = radius_of_min
        self.samples = samples
        self.tolerance = tolerance

    @property
    def verdict(self):
        return self.min_margin >= -self.tolerance


# ---------------------------------------------------------------------------
# Pointwise operations
# ---------------------------------------------------------------------------

def scalar_curvature(patch: RadialPatch, r):
    """Scalar curvature R = (2/r^2)(1 - f - r f').

    At r = 0 (smooth centre) the value is obtained by one-sided
    extrapolation from r = eps, 2 eps.
    """
    if np.isscalar(r) and r == 0.0:
        if patch.r_in > 0.0:
            raise DomainError("r = 0 not in patch")
        eps = 1e-4 * patch.r_out
        v1 = scalar_curvature(patch, eps)
        v2 = scalar_curvature(patch, 2 * eps)
        return 2.0 * v1 - v2
    if np.isscalar(r):
        patch._require(r)
    r = np.asarray(r, dtype=float)
    out = (2.0 / r**2) * (1.0 - patch.fv(r) - r * patch.fp(r))
    return float(out) if out.ndim == 0 else out


def mean_curvature_sphere(patch: RadialPatch, r):
    """Mean curvature of the coordinate sphere w.r.t. the outward normal."""
    if np.isscalar(r):
        patch._require(r)
        if r <= 0:
            raise DomainError("mean curvature needs r > 0")
    r = np.asarray(r, dtype=float)
    out = 2.0 * np.sqrt(patch.fv(r)) / r
    return float(out) if out.ndim == 0 else out


def constraint_densities(patch: RadialPatch, r):
    """(R, mu, J_n) at the radii r, elementwise over an array.

    The radii must lie in the patch; ``constraints`` is the checked
    scalar form.
    """
    R = scalar_curvature(patch, r)
    a = patch.av(r)
    b = patch.bv(r)
    trk = a + 2.0 * b
    ksq = a * a + 2.0 * b * b
    mu = 0.5 * (R + trk * trk - ksq)
    J_r = 2.0 * (a - b) / r - 2.0 * patch.bp(r)
    J_n = np.sqrt(patch.fv(r)) * J_r
    return R, mu, J_n


def dec_margin(mu, J_n):
    """Dominant-energy margin mu - |J|."""
    return mu - np.abs(J_n)


def constraints(patch: RadialPatch, r) -> ConstraintSample:
    """Energy and (radial) momentum density at radius r."""
    patch._require(r)
    R, mu, J_n = constraint_densities(patch, r)
    return ConstraintSample(radius=float(r), R=float(R), mu=float(mu),
                            J_radial=float(J_n))


def momentum_tensor(patch: RadialPatch, r) -> MomentumTensorSample:
    """Conjugate momentum pi = k - (tr k) g in the orthonormal frame."""
    patch._require(r)
    a = float(patch.av(r))
    b = float(patch.bv(r))
    return MomentumTensorSample(radius=float(r),
                                pi_nn=-2.0 * b,
                                pi_tan=-(a + b),
                                tr_k=a + 2.0 * b,
                                tr_sigma_k=2.0 * b)


def null_expansions(patch: RadialPatch, r) -> NullExpansions:
    """Outer/inner null expansions theta_pm = H +- tr_Sigma k."""
    patch._require(r)
    H = mean_curvature_sphere(patch, r)
    ts = 2.0 * float(patch.bv(r))
    return NullExpansions(radius=float(r), theta_plus=H + ts,
                          theta_minus=H - ts)


def dec_margins(patch: RadialPatch, samples: int = 128, exclude=()):
    """The radii ``dec_check`` samples and the margin mu - |J| at each."""
    if samples < 2:
        raise ValueError("need at least two samples")
    lo = patch.r_in if patch.r_in > 0 else 5e-3 * patch.r_out
    rs = np.linspace(lo, patch.r_out, samples)
    pad = 2.0 * (rs[1] - rs[0])
    mask = np.ones(rs.size, dtype=bool)
    for rc in exclude:
        mask &= np.abs(rs - rc) > pad
    rs = rs[mask]
    return rs, dec_margin(*constraint_densities(patch, rs)[1:])


def dec_check(patch: RadialPatch, samples: int = 128,
              tolerance: float = 1e-10,
              exclude=()) -> DecReport:
    """Sample the dominant-energy margin mu - |J| uniformly on the patch.

    ``exclude`` lists radii (e.g. corner locations) left out of the sweep;
    a small neighbourhood around each is skipped so one-sided data is not
    differentiated across a kink.  Smooth-centre patches are sampled from
    a small relative offset: below it the curvature closed form loses all
    significant digits to the 1/r^2 cancellation.
    """
    rs, margins = dec_margins(patch, samples, exclude)
    if rs.size == 0:
        raise DomainError(f"all {samples} sample radii on [{patch.r_in}, "
                          f"{patch.r_out}] lie next to an excluded radius")
    i = int(np.argmin(margins))
    return DecReport(min_margin=float(margins[i]), radius_of_min=float(rs[i]),
                     samples=int(rs.size), tolerance=tolerance)


# ---------------------------------------------------------------------------
# Stock profiles
# ---------------------------------------------------------------------------

def flat_metric_profile():
    return ScalarProfile.constant(1.0)


def schwarzschild_metric_profile(m, r_min):
    if m > 0 and r_min <= 2.0 * m:
        raise ValueError("exterior chart needs r_min > 2m")
    return ScalarProfile(lambda r: 1.0 - 2.0 * m / r,
                         lambda r: 2.0 * m / r ** 2)


def hyperbolic_metric_profile():
    return ScalarProfile(lambda r: 1.0 + r ** 2, lambda r: 2.0 * r)
