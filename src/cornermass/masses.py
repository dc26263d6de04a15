"""Mass functionals: ADM energy-momentum, Hawking, Brown-York, Liu-Yau,
the corner quasilocal energy W, minimal-sphere detection and the
comparison / localized-Penrose checks.

Two independent ADM routes are always computed: the Cartesian flux
integrals (the definition) evaluated by spherical quadrature at a list of
radii and Richardson-extrapolated, and the closed-form (r/2)(1 - f) limit
of this metric class, kept as a cross-check.

For a round sphere of areal radius r0 the Euclidean reference curvature is
H0 = 2/r0, so

    W    = r0 - (r0^2/2) (H - |omega|),
    m_BY = r0 - (r0^2/2) H,
    m_LY = r0 - (r0^2/2) sqrt(H^2 - (tr_S k)^2)      (needs H > |tr_S k|),
    m_H  = sqrt(|S|/16 pi) (1 - (1/16 pi) oint H^2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from .corner import GluedDataSet, minimal_sphere_bracket
from .errors import DomainError
from .geometry import dec_check, mean_curvature_sphere, momentum_tensor
from .numgrid import ConvergenceReport, find_root, gauss_x_nodes, \
    limit_from_sequence


# ---------------------------------------------------------------------------
# ADM energy-momentum
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AdmResult:
    E: float
    P: Tuple[float, float, float]
    mass: Optional[float]
    flux_samples: Tuple[Tuple[float, float], ...]   # (r, E_flux(r))
    misner_sharp_samples: Tuple[Tuple[float, float], ...]
    misner_sharp: float
    convergence: ConvergenceReport
    flags: Tuple[str, ...] = ()

    @property
    def P_norm(self):
        return float(np.linalg.norm(self.P))


def _flux_energy_integrand(patch, r):
    # Contraction (g_ij,i - g_ii,j) nu^j for g_ij = delta_ij
    # + (1/f - 1) x_i x_j / r^2 reduces to 2 (1/f - 1)/r; the radial-
    # derivative terms cancel between the two sums (brute-force checked
    # in the test suite).
    phi = 1.0 / patch.fv(r) - 1.0
    return 2.0 * phi / r


def geometric_ratio(radii):
    """The common ratio t > 1 of a strictly increasing geometric list of
    two or more positive radii (each ratio within relative 1e-12 of the
    first), or None for any other list."""
    if len(radii) < 2 or not radii[0] > 0:
        return None
    ratio = radii[1] / radii[0]
    if not ratio > 1.0 or any(abs(b / a - ratio) > 1e-12 * ratio
                              for a, b in zip(radii[1:], radii[2:])):
        return None
    return ratio


def adm_energy_momentum(data: GluedDataSet, radii: Sequence[float],
                        n_quad=48) -> AdmResult:
    """ADM (E, P) from flux integrals at the given radii, extrapolated.

    The limit is taken by iterated Richardson extrapolation in 1/r over the
    radii, which must be a strictly increasing geometric list
    (``geometric_ratio``); the extrapolation uses its common ratio.  P is
    the quadrature of pi_ij nu^j, identically odd on the sphere for
    rotationally symmetric k.
    """
    radii = [float(r) for r in radii]
    outer = data.patches[-1]
    for r in radii:
        if not outer.contains(r):
            raise DomainError(f"ADM radius {r} outside outermost patch")
    ratio = geometric_ratio(radii)
    if ratio is None:
        raise ValueError("radii must be a strictly increasing geometric "
                         "list of length >= 2")

    xq, wq = gauss_x_nodes(n_quad)
    e_flux, ms, pz = [], [], []
    for r in radii:
        area = 4.0 * np.pi * r * r
        e_int = _flux_energy_integrand(outer, r)          # constant on sphere
        e_flux.append(area * e_int * float(np.sum(wq)) / 2.0 / (16.0 * np.pi))
        f = float(outer.fv(r))
        ms.append(0.5 * r * (1.0 - f))
        b = outer.bv(r)
        pz_int = (-2.0 * np.asarray(b) / f) * xq          # pi_ij nu^j . e_z
        pz.append(2.0 * np.pi * r * r * float(np.dot(wq, pz_int))
                  / (8.0 * np.pi))

    flags = []
    diffs = np.diff(e_flux)
    if len(diffs) >= 2 and np.any(np.abs(diffs[1:]) > np.abs(diffs[:-1]) + 1e-14):
        flags.append("non-monotone-flux")
        if abs(diffs[-1]) > 2.0 * abs(diffs[0]):
            flags.append("divergent-flux")
    E, conv = limit_from_sequence(e_flux, p=1.0, ratio=ratio)
    ms_lim, _ = limit_from_sequence(ms, p=1.0, ratio=ratio)
    P = (0.0, 0.0, float(limit_from_sequence(pz, p=1.0, ratio=ratio)[0]))
    pn = float(np.linalg.norm(P))
    mass = float(np.sqrt(E * E - pn * pn)) if E >= pn else None
    return AdmResult(E=float(E), P=P, mass=mass,
                     flux_samples=tuple(zip(radii, e_flux)),
                     misner_sharp_samples=tuple(zip(radii, ms)),
                     misner_sharp=float(ms_lim), convergence=conv,
                     flags=tuple(flags))


# ---------------------------------------------------------------------------
# Hawking mass
# ---------------------------------------------------------------------------

def hawking_mass(data: GluedDataSet, r, side="auto", n_quad=48) -> float:
    """Hawking mass of the coordinate sphere, via the defining quadrature.

    (r/2)(1 - f) is the closed-form shortcut for this chart; it is kept as
    a test oracle only.
    """
    patch = data.patch_at(r, side)
    H = mean_curvature_sphere(patch, r)
    xq, wq = gauss_x_nodes(n_quad)
    area = 4.0 * np.pi * r * r
    h2_int = 2.0 * np.pi * r * r * float(np.dot(wq, np.full_like(xq, H * H)))
    return float(np.sqrt(area / (16.0 * np.pi))
                 * (1.0 - h2_int / (16.0 * np.pi)))


# ---------------------------------------------------------------------------
# Quasilocal masses on round boundaries
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class QuasilocalReport:
    r0: float
    H: float
    tr_sigma_k: float
    omega_abs: float
    H0: float
    W: float
    m_BY: float
    m_LY: Optional[float]
    m_H: float
    hypothesis_H_gt_omega: bool
    hypothesis_H_gt_trk: bool


def quasilocal_round(r0, H, tr_sigma_k, omega_tan=0.0):
    """Vectorized quasilocal masses for round Bartnik data.

    |omega|^2 = (tr_S k)^2 + omega_tan^2 on a round sphere, since
    pi(nu,nu) = -tr_S k.  Entries of m_LY are NaN where H <= |tr_S k|.
    """
    r0 = np.asarray(r0, dtype=float)
    H = np.asarray(H, dtype=float)
    ts = np.asarray(tr_sigma_k, dtype=float)
    om = np.hypot(ts, np.asarray(omega_tan, dtype=float))
    W = r0 - 0.5 * r0 * r0 * (H - om)
    m_by = r0 - 0.5 * r0 * r0 * H
    arg = H * H - ts * ts
    with np.errstate(invalid="ignore"):
        m_ly = np.where((H > np.abs(ts)) & (arg >= 0),
                        r0 - 0.5 * r0 * r0 * np.sqrt(np.maximum(arg, 0.0)),
                        np.nan)
    return W, m_by, m_ly, om


def quasilocal(data: GluedDataSet, r0, side="auto", omega_tan=0.0,
               n_quad=48) -> QuasilocalReport:
    """Quasilocal report for the coordinate sphere r = r0 of the data set."""
    patch = data.patch_at(r0, side)
    H = float(mean_curvature_sphere(patch, r0))
    ts = float(momentum_tensor(patch, r0).tr_sigma_k)
    W, m_by, m_ly, om = quasilocal_round(r0, H, ts, omega_tan)
    m_ly = None if np.isnan(m_ly) else float(m_ly)
    return QuasilocalReport(
        r0=float(r0), H=H, tr_sigma_k=ts, omega_abs=float(om),
        H0=2.0 / r0, W=float(W), m_BY=float(m_by), m_LY=m_ly,
        m_H=hawking_mass(data, r0, side, n_quad),
        hypothesis_H_gt_omega=bool(H > om),
        hypothesis_H_gt_trk=bool(H > abs(ts)))


# ---------------------------------------------------------------------------
# Minimal spheres
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MinimalSphere:
    coordinate: float      # chart coordinate of the root (isotropic s, or r)
    areal_radius: float
    area: float


def minimal_sphere(data: GluedDataSet) -> Optional[MinimalSphere]:
    """Outermost sphere with H = 0, or None when H > 0 throughout.

    Areal-chart patches have H = 2 sqrt(f)/r > 0 wherever the chart is
    defined, so horizon crossings are only visible through an attached
    chart (e.g. isotropic coordinates) whose areal radius r(s) turns
    around; the root of dr/ds is the minimal sphere.
    """
    br = minimal_sphere_bracket(data)
    if br is None:
        return None
    s = find_root(data.chart.dr_ds, br)
    r_areal = float(data.chart.r_of_s(s))
    return MinimalSphere(coordinate=float(s), areal_radius=r_areal,
                         area=float(4.0 * np.pi * r_areal ** 2))


# ---------------------------------------------------------------------------
# Hull comparison and localized Penrose check
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ComparisonReport:
    applicable: bool
    reasons: Tuple[str, ...]
    per_radius: Tuple[Tuple[float, float, bool, float], ...]  # (r, m_H, ok, margin)
    penrose_ok: Optional[bool]
    penrose_margin: Optional[float]
    minimal: Optional[MinimalSphere]
    k_norm_l32: float
    k_norm_l65: float
    dec_min_margin: float
    omega_identically_zero: bool = False   # recorded, never gating

    @property
    def all_ok(self):
        return all(ok for (_, _, ok, _) in self.per_radius) and (
            self.penrose_ok is not False)


def _k_norms(data: GluedDataSet, r_hi):
    """|| K^2 ||_{L^{3/2}} and || K^2 ||_{L^{6/5}} inside r <= r_hi (recorded,
    never asserted: the admissibility thresholds live in unquantified
    Sobolev constants)."""
    vals32, vals65 = 0.0, 0.0
    for patch in data.patches:
        lo = max(patch.r_in, 1e-6 * max(1.0, r_hi))
        hi = min(patch.r_out, r_hi)
        if hi <= lo:
            continue
        rs = np.linspace(lo, hi, 512)
        K = patch.tr_k(rs)
        dv = 4.0 * np.pi * rs * rs / np.sqrt(patch.fv(rs))
        vals32 += float(np.trapezoid(np.abs(K) ** 3 * dv, rs))
        vals65 += float(np.trapezoid(np.abs(K) ** 2.4 * dv, rs))
    return vals32 ** (2.0 / 3.0), vals65 ** (5.0 / 6.0)


def comparison_check(report: QuasilocalReport, data: GluedDataSet,
                     hull_radii: Sequence[float],
                     dec_tolerance=1e-8) -> ComparisonReport:
    """Check W >= m_H on sphere hulls and the localized Penrose bound.

    Hypothesis failures (DEC, H > |omega|, the user topology assertion)
    downgrade the verdict to not-applicable rather than false; the checks
    are still evaluated and reported.
    """
    reasons = []
    margins = []
    dec_min = np.inf
    for patch in data.patches:
        rep = dec_check(patch, samples=96, tolerance=dec_tolerance,
                        exclude=data.corner_radii)
        dec_min = min(dec_min, rep.min_margin)
    if dec_min < -dec_tolerance:
        reasons.append("dominant energy condition fails")
    if not report.hypothesis_H_gt_omega:
        reasons.append("H > |omega| fails on the boundary")
    if not data.topology_trivial:
        reasons.append("topology assertion withheld")

    for r in hull_radii:
        mh = hawking_mass(data, r, side="minus" if data.is_corner(r) else "auto")
        margins.append((float(r), float(mh), bool(report.W >= mh - 1e-12),
                        float(report.W - mh)))

    minimal = minimal_sphere(data)
    pen_ok = pen_margin = None
    if minimal is not None:
        bound = float(np.sqrt(minimal.area / (16.0 * np.pi)))
        pen_margin = float(report.W - bound)
        pen_ok = bool(pen_margin >= -1e-12)

    l32, l65 = _k_norms(data, report.r0)
    return ComparisonReport(
        applicable=not reasons, reasons=tuple(reasons),
        per_radius=tuple(margins), penrose_ok=pen_ok,
        penrose_margin=pen_margin, minimal=minimal,
        k_norm_l32=l32, k_norm_l65=l65, dec_min_margin=float(dec_min),
        omega_identically_zero=(report.omega_abs == 0.0))
