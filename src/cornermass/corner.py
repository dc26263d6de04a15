"""Glued initial data sets with corners and the canonical scenario library.

A corner is a coordinate sphere across which the metric stays Lipschitz
(the induced boundary metric is shared automatically in the areal chart)
while mean curvature and the momentum one-form may jump.  The scalar
transmitted to the mass inequality is

    jump = (H_- - H_+) - |omega_- - omega_+|,

with H the mean curvature w.r.t. the normal pointing to infinity and
omega = pi(., nu) split here into its (normal-normal, tangential) parts
on the round boundary.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Tuple

import numpy as np

from .errors import DomainError
from .geometry import (
    RadialPatch,
    flat_metric_profile,
    hyperbolic_metric_profile,
    mean_curvature_sphere,
    momentum_tensor,
    schwarzschild_metric_profile,
)
from .numgrid import ScalarProfile

_TILE_TOL = 1e-10


class CornerInterface:
    """Both-sided data on one corner sphere.

    ``omega_minus``/``omega_plus`` are (pi(nu,nu), |pi(.,nu)^T|) pairs on
    the shared round boundary metric.  The tangential magnitude is zero for
    data assembled from rotationally symmetric patches but is carried so
    boundary-data-driven scenarios can exercise it.
    """

    __slots__ = ("r_c", "H_minus", "H_plus", "omega_minus", "omega_plus")

    def __init__(self, r_c: float, H_minus: float, H_plus: float,
                 omega_minus: Tuple[float, float],
                 omega_plus: Tuple[float, float]):
        self.r_c = r_c
        self.H_minus = H_minus
        self.H_plus = H_plus
        self.omega_minus = omega_minus
        self.omega_plus = omega_plus

    @property
    def omega_jump_norm(self):
        dn = self.omega_minus[0] - self.omega_plus[0]
        dt = self.omega_minus[1] - self.omega_plus[1]
        return float(np.hypot(dn, dt))

    @property
    def jump(self):
        """Scalar corner jump (H_- - H_+) - |omega_- - omega_+|."""
        return (self.H_minus - self.H_plus) - self.omega_jump_norm


class IsotropicChart:
    """Isotropic chart of Schwarzschild of mass ``mass``, continued to the
    coordinate ``s_min``.

    Carried by scenarios whose areal-chart patches cannot see the horizon
    interior.  The metric is psi^4 (ds^2 + s^2 dOmega^2), psi = 1 + m/2s,
    so the areal radius s psi^2 has its minimum, the minimal sphere, at
    s = m/2; the harmonic solver runs on this chart through the minimal
    sphere and truncates at a weakly trapped sphere in the second sheet.
    """

    __slots__ = ("s_min", "mass")

    def __init__(self, s_min: float, mass: float = 1.0):
        self.s_min = s_min
        self.mass = mass


def areal_sigma(m, r):
    """Isotropic coordinate of areal radius r on the exterior sheet."""
    return 0.5 * (r - m + np.sqrt(r * (r - 2.0 * m)))


class GluedDataSet:
    """Ordered radial patches joined at corner radii plus end metadata.

    The constructor checks the data: an isotropic chart carries no corner
    or centre, the patches tile, and the outermost one decays.
    ``replace`` builds a changed copy through the same checks.
    """

    __slots__ = ("patches", "interfaces", "asymptotically_flat",
                 "topology_trivial", "name", "expectations", "chart",
                 "has_center")

    def __init__(self, patches: Tuple[RadialPatch, ...],
                 interfaces: Tuple[CornerInterface, ...],
                 asymptotically_flat: bool = True,
                 topology_trivial: bool = True,
                 name: str = "custom",
                 expectations: Optional[Dict[str, float]] = None,
                 chart: Optional[IsotropicChart] = None,
                 has_center: bool = False):
        self.patches = patches
        self.interfaces = interfaces
        self.asymptotically_flat = asymptotically_flat
        # user-asserted H_2(M_ext, S) = 0 stand-in
        self.topology_trivial = topology_trivial
        self.name = name
        self.expectations = {} if expectations is None else expectations
        self.chart = chart                 # no corners, no centre
        self.has_center = has_center       # innermost patch reaches r = 0
        if self.chart is not None and (self.interfaces or self.has_center):
            raise ValueError("an isotropic chart has no corner and no "
                             "smooth centre")
        for p, q in zip(self.patches[:-1], self.patches[1:]):
            if abs(p.r_out - q.r_in) > _TILE_TOL * max(1.0, p.r_out):
                raise ValueError("patch domains must tile without gaps")
        if self.asymptotically_flat:
            outer = self.patches[-1]
            rs = outer.r_out * np.array([0.25, 0.5, 1.0])
            rs = np.maximum(rs, outer.r_in * 1.01)
            dev = np.abs(outer.fv(rs) - 1.0)
            if np.any(dev > 1e-14):
                num = np.log(dev[0] / dev[2])
                den = np.log(rs[2] / rs[0])
                q_obs = num / den
                if q_obs < 0.5:
                    raise ValueError(
                        f"outermost patch decays too slowly (q ~ {q_obs:.3f})")

    def replace(self, **changes):
        """A copy with ``changes`` applied, checked like a new data set."""
        kw = {name: getattr(self, name) for name in self.__slots__}
        kw.update(changes)
        return GluedDataSet(**kw)

    # -- lookup ---------------------------------------------------------

    @property
    def r_min(self):
        return self.patches[0].r_in

    @property
    def r_max(self):
        return self.patches[-1].r_out

    @property
    def corner_radii(self):
        return tuple(i.r_c for i in self.interfaces)

    def patch_at(self, r, side="auto") -> RadialPatch:
        """Patch containing radius r; ``side`` picks one at a corner.

        side: 'auto' (error exactly at a corner), 'minus' (inner side),
        'plus' (outer side).
        """
        tol = _TILE_TOL * max(1.0, abs(r))
        for idx, p in enumerate(self.patches):
            on_corner_out = abs(r - p.r_out) <= tol and idx + 1 < len(self.patches)
            if on_corner_out:
                if side == "minus":
                    return p
                if side == "plus":
                    return self.patches[idx + 1]
                raise DomainError(
                    f"r = {r} lies on a corner; specify side='minus'/'plus'")
            if p.r_in - tol <= r <= p.r_out + tol:
                return p
        raise DomainError(f"r = {r} outside data set [{self.r_min}, {self.r_max}]")

    def is_corner(self, r):
        tol = _TILE_TOL * max(1.0, abs(r))
        return any(abs(r - rc) <= tol for rc in self.corner_radii)


# ---------------------------------------------------------------------------
# Gluing
# ---------------------------------------------------------------------------

def interface_from_patches(inner: RadialPatch, outer: RadialPatch, r_c):
    """The corner r = r_c between two rotationally symmetric patches,
    whose momentum one-forms have no tangential part."""
    h_m = mean_curvature_sphere(inner, r_c)
    h_p = mean_curvature_sphere(outer, r_c)
    pm = momentum_tensor(inner, r_c)
    pp = momentum_tensor(outer, r_c)
    return CornerInterface(float(r_c), float(h_m), float(h_p),
                           (pm.pi_nn, 0.0), (pp.pi_nn, 0.0))


def glue(inner: RadialPatch, outer: RadialPatch, r_c, *,
         allow_discontinuous_f=False, name="glued", expectations=None,
         asymptotically_flat=True) -> GluedDataSet:
    """Join two patches at the corner sphere r = r_c.

    The shared areal chart guarantees the induced boundary metrics match;
    ``f`` itself (the normal derivative data) may jump only when
    ``allow_discontinuous_f`` is set.  The data set has a smooth centre
    when the inner patch starts at r = 0.
    """
    tol = _TILE_TOL * max(1.0, r_c)
    if abs(inner.r_out - r_c) > tol or abs(outer.r_in - r_c) > tol:
        raise ValueError("patch domains must meet exactly at r_c")
    f_m = float(inner.fv(r_c))
    f_p = float(outer.fv(r_c))
    if f_m <= 0 or f_p <= 0:
        raise ValueError("nonpositive metric coefficient at the corner")
    if not allow_discontinuous_f and abs(f_m - f_p) > 1e-10 * max(1.0, f_m):
        raise ValueError(
            f"f jumps at the corner ({f_m} vs {f_p}); "
            "pass allow_discontinuous_f=True to encode a mean-curvature jump")
    iface = interface_from_patches(inner, outer, r_c)
    return GluedDataSet(
        patches=(inner, outer), interfaces=(iface,), name=name,
        expectations=dict(expectations or {}),
        has_center=inner.r_in == 0.0, asymptotically_flat=asymptotically_flat)


# ---------------------------------------------------------------------------
# Scenario registry
# ---------------------------------------------------------------------------

_REGISTRY: Dict[str, Callable] = {}


def register_scenario(name):
    def deco(fn):
        if name in _REGISTRY:
            raise ValueError(f"duplicate scenario name {name!r}")
        _REGISTRY[name] = fn
        return fn
    return deco


def scenario_names():
    return sorted(_REGISTRY)


def scenario_build(name, **params) -> GluedDataSet:
    """Build a named scenario with analytic expectations attached."""
    try:
        builder = _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown scenario {name!r}; known: {', '.join(scenario_names())}")
    return builder(**params)


_ZERO = ScalarProfile.constant(0.0)


@register_scenario("flat")
def _flat(r_out=260.0):
    patch = RadialPatch(flat_metric_profile(), _ZERO, _ZERO, 0.0, r_out,
                        label="flat")
    return GluedDataSet(patches=(patch,), interfaces=(), name="flat",
                        has_center=True,
                        expectations={"E": 0.0, "P": 0.0, "jump": 0.0})


@register_scenario("schwarzschild")
def _schwarzschild(m=1.0, r_in=None, r_out=260.0):
    if r_in is None:
        r_in = 2.0 * m + 1e-6 * max(m, 1.0)
    patch = RadialPatch(schwarzschild_metric_profile(m, r_in), _ZERO, _ZERO,
                        r_in, r_out, label=f"schwarzschild m={m}")
    chart = IsotropicChart(s_min=float(areal_sigma(m, r_in)), mass=m)
    return GluedDataSet(patches=(patch,), interfaces=(), name="schwarzschild",
                        chart=chart, expectations={"E": m, "P": 0.0})


@register_scenario("isotropic_schwarzschild")
def _isotropic_schwarzschild(m=1.0, r_out=260.0):
    """Exterior sheet in the areal chart plus the isotropic chart record.

    The areal patch covers r in (2m, r_out]; the attached chart reaches
    s_min = m/20, across the minimal sphere s = m/2 where the areal radius
    r(s) = s (1 + m/2s)^2 is smallest.
    """
    r_in = 2.0 * m + 1e-6 * max(m, 1.0)
    patch = RadialPatch(schwarzschild_metric_profile(m, r_in), _ZERO, _ZERO,
                        r_in, r_out, label=f"isotropic schwarzschild m={m}")
    chart = IsotropicChart(s_min=0.05 * m, mass=m)
    return GluedDataSet(patches=(patch,), interfaces=(),
                        name="isotropic_schwarzschild", chart=chart,
                        expectations={"E": m, "P": 0.0,
                                      "minimal_sphere_s": 0.5 * m,
                                      "minimal_sphere_area": 16.0 * np.pi * m * m})


@register_scenario("hyperbolic_negschw")
def _hyperbolic_negschw(k_sign=1, r_out=260.0):
    """Hyperbolic ball (k = sign * g) glued to negative-mass Schwarzschild.

    f = 1 + r^2 inside, f = 1 + 1/r (m = -1/2) outside; f is continuous at
    the corner r = 1 and both sides are vacuum, yet E = -1/2: the deficit
    is carried entirely by the corner where the momentum one-form jumps.
    """
    if k_sign not in (1, -1):
        raise ValueError("k_sign must be +1 or -1")
    k = ScalarProfile.constant(float(k_sign))
    inner = RadialPatch(hyperbolic_metric_profile(), k, k, 0.0, 1.0,
                        label="hyperbolic ball")
    outer = RadialPatch(schwarzschild_metric_profile(-0.5, 1.0), _ZERO, _ZERO,
                        1.0, r_out, label="negative-mass schwarzschild")
    return glue(inner, outer, 1.0, name="hyperbolic_negschw",
                expectations={"E": -0.5, "P": 0.0, "jump": -2.0})


@register_scenario("shi_tam_glue")
def _shi_tam_glue(r0=1.0, H=2.0, omega_nn=0.0, omega_tan=0.0, r_out=None):
    """Round boundary data (r0, H, omega) matched to its scalar-flat extension.

    The outer patch is the Schwarzschild profile of energy
    E = (r0/2)(1 - ((H - |omega|) r0 / 2)^2), whose boundary mean curvature
    is exactly H - |omega|; the corner jump is then zero by construction.
    """
    omega_abs = float(np.hypot(omega_nn, omega_tan))
    h_eff = H - omega_abs
    if h_eff <= 0:
        raise ValueError("need H > |omega| for the matched extension")
    half = H * r0 / 2.0
    if not np.isfinite(1000.0 * r0 * half * half):
        raise ValueError(f"H = {H!r} and r0 = {r0!r}: the extension's "
                         "mass (r0/2)(1 - (h_eff r0/2)^2) overflows")
    f0_in = (H * r0 / 2.0) ** 2          # inner side realizes the given H
    f0_ext = (h_eff * r0 / 2.0) ** 2     # extension side has H - |omega|
    m_ext = 0.5 * r0 * (1.0 - f0_ext)
    if r_out is None:
        r_out = 1000.0 * r0
    # smooth interior profile hitting f(r0) = f0_in with a regular centre
    f_in = ScalarProfile(lambda r: 1.0 + (f0_in - 1.0) * (r / r0) ** 2,
                         lambda r: 2.0 * (f0_in - 1.0) * r / r0**2)
    b0 = -0.5 * omega_nn  # pi(nu,nu) = -2b on the inner side
    b_in = ScalarProfile(lambda r: b0 * (r / r0) ** 2,
                         lambda r: 2.0 * b0 * r / r0**2)
    inner = RadialPatch(f_in, _ZERO, b_in, 0.0, r0, label="shi-tam inner")
    outer = RadialPatch(schwarzschild_metric_profile(m_ext, r0), _ZERO, _ZERO,
                        r0, r_out, label="shi-tam extension")
    h_minus = mean_curvature_sphere(inner, r0)
    h_plus = mean_curvature_sphere(outer, r0)
    iface = CornerInterface(r0, h_minus, h_plus,
                            (omega_nn, omega_tan), (0.0, 0.0))
    return GluedDataSet(patches=(inner, outer), interfaces=(iface,),
                        name="shi_tam_glue",
                        expectations={"E": m_ext, "jump": 0.0},
                        has_center=True)


@register_scenario("polynomial")
def _polynomial(f_inv_coeffs=(), a_inv_coeffs=(), b_inv_coeffs=(),
                r_in=1.0, r_out=260.0):
    """Profiles polynomial in 1/r: f = 1 + sum c_k r^-k, k >= 1.

    Config-friendly custom data: the coefficient lists come straight from
    the run file, the asymptotically flat normalization is built in.
    """
    def prof(coeffs, base):
        coeffs = [float(c) for c in np.atleast_1d(coeffs)] if coeffs else []

        def val(r):
            r = np.asarray(r, dtype=float)
            out = np.full_like(r, base)
            for k, c in enumerate(coeffs, start=1):
                out = out + c * r ** (-k)
            return out

        def d1(r):
            r = np.asarray(r, dtype=float)
            out = np.zeros_like(r)
            for k, c in enumerate(coeffs, start=1):
                out = out - k * c * r ** (-k - 1)
            return out

        return ScalarProfile(val, d1)

    patch = RadialPatch(prof(f_inv_coeffs, 1.0), prof(a_inv_coeffs, 0.0),
                        prof(b_inv_coeffs, 0.0), float(r_in), float(r_out),
                        label="polynomial")
    return GluedDataSet(patches=(patch,), interfaces=(), name="polynomial",
                        expectations={})


@register_scenario("custom")
def _custom(patches, label="custom"):
    """Adjacent patches glued at every shared radius, with a smooth centre
    when the first starts at r = 0."""
    patches = tuple(patches)
    interfaces = tuple(interface_from_patches(p, q, p.r_out)
                       for p, q in zip(patches[:-1], patches[1:]))
    return GluedDataSet(patches=patches, interfaces=interfaces, name=label,
                        has_center=patches[0].r_in == 0.0)
