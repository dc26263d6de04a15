"""Constructive extension machinery: scalar-flat quasispherical extensions
of round boundary data, the monotone exterior energy Q, corner
mollification, a conformal deformation with an explicit mass shift, and
fill-in non-existence certificates.

For a round boundary sphere the zero-scalar-curvature condition
R = (2/r^2)(1 - f - r f') = 0 reduces to the single ODE

    f' = (1 - f) / r,        f(r0) = (H_eff r0 / 2)^2,

whose solution family is the Schwarzschild profile
f = 1 - (1 - f0) r0 / r, with

    E_ext = (r0/2)(1 - f0),        Q(r) = r (1 - sqrt(f)),

Q nonincreasing and Q(r0) equal to the quasilocal energy W of the matched
boundary data.  A certificate of non-existence of dominant-energy fill-ins
is issued exactly when E_ext < 0, i.e. when H - f exceeds the Euclidean
reference curvature 2/r0.  Both ``shi_tam_extend`` (which samples f and Q
along the extension for the quasilocal pipeline) and the certificates use
this closed form; the tests integrate the ODE by RK4 as its oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from .corner import GluedDataSet, interface_from_patches, scenario_build
from .errors import DomainError, HypothesisError
from .geometry import RadialPatch, constraints, scalar_curvature
from .masses import QuasilocalReport, quasilocal
from .numgrid import ScalarProfile, integrate_ode, limit_from_sequence


# ---------------------------------------------------------------------------
# Quasispherical extension (round case)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExtensionResult:
    r0: float
    lapse0: float                   # u(0) = H0 / H_eff = 1/sqrt(f0)
    f_profile: ScalarProfile
    radii: np.ndarray
    f_samples: np.ndarray
    q_samples: np.ndarray
    E_ext: float                    # exact boundary evaluation (r0/2)(1 - f0)
    E_ext_far: float                # extrapolated (r/2)(1 - f) limit
    q_limit: float                  # extrapolated Q limit
    patch: RadialPatch

    @property
    def q_boundary(self):
        return float(self.q_samples[0])


def shi_tam_extend(r0, H_eff, *, span=1000.0, n_steps=4000) -> ExtensionResult:
    """Scalar-flat extension of a round sphere with effective curvature H_eff.

    The profile is the closed form f = 1 - c/r, c = (1 - f0) r0, with its
    analytic derivatives; f and Q are sampled at n_steps + 1 radii uniform
    in s = log(r/r0) out to span * r0.  H_eff is H - |omega| for the
    quasilocal pipeline and H - f for certificates.
    """
    if r0 <= 0:
        raise HypothesisError("boundary radius must be positive")
    if H_eff <= 0:
        raise HypothesisError("need H_eff > 0 for the quasispherical lapse")
    f0 = (H_eff * r0 / 2.0) ** 2
    c = (1.0 - f0) * r0
    radii = r0 * np.exp(np.arange(n_steps + 1) * (np.log(span) / n_steps))
    dom = (float(radii[0]), float(radii[-1]))
    profile = ScalarProfile.from_callables(
        lambda r: 1.0 - c / r, lambda r: c / r**2, lambda r: -2.0 * c / r**3,
        dom, label="extension f")
    f = profile.value(radii)
    q = radii * (1.0 - np.sqrt(np.maximum(f, 0.0)))
    # limits from samples at radius ratio 2 so the 1/r tails extrapolate
    r_tail = radii[-1] * np.array([0.25, 0.5, 1.0])
    f_tail = profile.value(r_tail)
    e_far, _ = limit_from_sequence(0.5 * r_tail * (1.0 - f_tail), p=1.0)
    q_far, _ = limit_from_sequence(r_tail * (1.0 - np.sqrt(f_tail)), p=1.0)
    patch = RadialPatch(profile, ScalarProfile.constant(0.0, dom),
                        ScalarProfile.constant(0.0, dom),
                        dom[0], dom[1], label="quasispherical extension")
    return ExtensionResult(
        r0=float(r0), lapse0=float(1.0 / np.sqrt(f0)), f_profile=profile,
        radii=radii, f_samples=f, q_samples=q,
        E_ext=float(0.5 * r0 * (1.0 - f0)), E_ext_far=float(e_far),
        q_limit=float(q_far), patch=patch)


def q_monotone_violation(result: ExtensionResult) -> float:
    """Largest upward step of Q along the profile (0 for exact monotone)."""
    steps = np.diff(result.q_samples)
    return float(max(0.0, steps.max(initial=-np.inf)))


# ---------------------------------------------------------------------------
# Quasilocal pipeline: boundary data -> W, matched extension, zero jump
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PipelineResult:
    quasilocal: QuasilocalReport
    extension: ExtensionResult
    corner_jump: float
    W: float
    E_ext: float

    @property
    def chain_ok(self):
        """W >= E_ext, the monotone-Q consequence."""
        return self.W >= self.E_ext - 1e-10


def quasilocal_pipeline(r0, H, omega_nn=0.0, omega_tan=0.0) -> PipelineResult:
    """Build the matched scalar-flat extension for round Bartnik data.

    The corner of the glued set has zero jump by construction: the
    extension boundary mean curvature is H - |omega| and its momentum
    one-form vanishes.
    """
    omega_abs = float(np.hypot(omega_nn, omega_tan))
    if H <= omega_abs:
        raise HypothesisError("need H > |omega|")
    try:    # its checks also cover the extension's, as H >= H - |omega|
        data = scenario_build("shi_tam_glue", r0=r0, H=H, omega_nn=omega_nn,
                              omega_tan=omega_tan)
    except ValueError as exc:
        raise DomainError(f"no matched extension of the round data r0 = "
                          f"{r0!r}, H = {H!r}: {exc}") from exc
    ext = shi_tam_extend(r0, H - omega_abs)
    jump = data.interfaces[0].jump
    ql = quasilocal(data, r0, side="minus", omega_tan=omega_tan)
    return PipelineResult(quasilocal=ql, extension=ext,
                          corner_jump=float(jump), W=float(ql.W),
                          E_ext=ext.E_ext)


# ---------------------------------------------------------------------------
# Fill-in certificates
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CertificateVerdict:
    r0: float
    H: float
    bartnik_f: float                 # sqrt((tr alpha)^2 + |beta|^2)
    E_ext: float
    verdict: str                     # 'no-DEC-fill-in' | 'inconclusive'
    margin: float
    threshold: float                 # H - f must exceed 2/r0 for a certificate

    @property
    def certified(self):
        return self.verdict == "no-DEC-fill-in"


def fillin_certificate(r0, H, tr_alpha=0.0, beta_abs=0.0,
                       tolerance=1e-12) -> CertificateVerdict:
    """Certify non-existence of dominant-energy fill-ins for round data.

    The glued set (hypothetical fill-in + scalar-flat extension with
    matched corner) would violate the corner mass inequality whenever the
    extension energy E_ext = (r0/2)(1 - (h_eff r0/2)^2) is negative, so
    E_ext < 0 certifies non-existence; positive extension energy
    certifies nothing.
    """
    f_b = float(np.hypot(tr_alpha, beta_abs))
    h_eff = H - f_b
    if h_eff <= 0:
        raise HypothesisError("need H - sqrt((tr a)^2 + |b|^2) > 0")
    if r0 <= 0:
        raise HypothesisError("boundary radius must be positive")
    e_ext = float(0.5 * r0 * (1.0 - (h_eff * r0 / 2.0) ** 2))
    verdict = "no-DEC-fill-in" if e_ext < -tolerance else "inconclusive"
    return CertificateVerdict(r0=float(r0), H=float(H), bartnik_f=f_b,
                              E_ext=e_ext, verdict=verdict,
                              margin=float(-e_ext),
                              threshold=2.0 / r0)


# ---------------------------------------------------------------------------
# Corner mollification
# ---------------------------------------------------------------------------

def _smooth_step(t):
    """C^3 step: 0 below -1, 1 above +1, primitive of (35/32)(1-t^2)^3."""
    t = np.clip(np.asarray(t, dtype=float), -1.0, 1.0)
    return (35.0 / 32.0) * (t - t**3 + 0.6 * t**5 - t**7 / 7.0 + 16.0 / 35.0)


def _smooth_step_d1(t):
    t = np.asarray(t, dtype=float)
    inside = np.abs(t) < 1.0
    return np.where(inside, (35.0 / 32.0) * (1.0 - t * t) ** 3, 0.0)


def _smooth_step_d2(t):
    t = np.asarray(t, dtype=float)
    inside = np.abs(t) < 1.0
    return np.where(inside, (35.0 / 32.0) * 3.0 * (1.0 - t * t) ** 2 * (-2.0 * t),
                    0.0)


def _blend_profiles(p_minus: ScalarProfile, p_plus: ScalarProfile, r_c, delta,
                    domain):
    """One-sided extensions blended across the collar by the smooth step."""

    def val(r):
        t = (np.asarray(r, dtype=float) - r_c) / delta
        fm = p_minus.value(r, extrapolate=True)
        fp = p_plus.value(r, extrapolate=True)
        return fm + _smooth_step(t) * (fp - fm)

    def d1(r):
        r = np.asarray(r, dtype=float)
        t = (r - r_c) / delta
        fm, fp = (p_minus.value(r, extrapolate=True),
                  p_plus.value(r, extrapolate=True))
        dm, dp = (p_minus.derivative(r, 1, extrapolate=True),
                  p_plus.derivative(r, 1, extrapolate=True))
        return dm + _smooth_step(t) * (dp - dm) \
            + _smooth_step_d1(t) / delta * (fp - fm)

    def d2(r):
        r = np.asarray(r, dtype=float)
        t = (r - r_c) / delta
        fm, fp = (p_minus.value(r, extrapolate=True),
                  p_plus.value(r, extrapolate=True))
        dm, dp = (p_minus.derivative(r, 1, extrapolate=True),
                  p_plus.derivative(r, 1, extrapolate=True))
        sm, sp = (p_minus.derivative(r, 2, extrapolate=True),
                  p_plus.derivative(r, 2, extrapolate=True))
        return (sm + _smooth_step(t) * (sp - sm)
                + 2.0 * _smooth_step_d1(t) / delta * (dp - dm)
                + _smooth_step_d2(t) / delta**2 * (fp - fm))

    return ScalarProfile(val, d1, d2, domain, label="mollified")


@dataclass(frozen=True)
class MollifyRecord:
    delta: float
    lipschitz_seminorm: float       # sup |f'| over the collar
    sup_k: float                    # sup of |a|, |b| over the collar
    inf_R: float


@dataclass(frozen=True)
class MollifyReport:
    records: Tuple[MollifyRecord, ...]
    curvature_blowup: bool
    lipschitz_bounded: bool


def mollify_corner(data: GluedDataSet, interface_index: int, delta: float,
                   n_samples=512):
    """Smooth the data across one corner on the collar (r_c - d, r_c + d).

    Returns (collar_patch, MollifyReport): the collar patch is the blended
    smooth replacement at width ``delta``; the report tracks the Lipschitz
    seminorm of the metric coefficient, the sup of k, and inf R over the
    collar for delta, delta/2, delta/4 (uniform boundedness is the
    smoothing claim; a 1/delta curvature blow-up marks an inadmissible
    metric jump).
    """
    iface = data.interfaces[interface_index]
    r_c = iface.r_c
    idx = [i for i, p in enumerate(data.patches)
           if abs(p.r_out - r_c) < 1e-10 * max(1.0, r_c)]
    if not idx:
        raise ValueError("interface does not match a patch boundary")
    p_minus = data.patches[idx[0]]
    p_plus = data.patches[idx[0] + 1]
    if delta >= 0.5 * min(r_c - p_minus.r_in, p_plus.r_out - r_c):
        raise ValueError("collar exits the adjacent patch domains")

    records = []
    collar_patch = None
    for d in (delta, delta / 2.0, delta / 4.0):
        dom = (r_c - d, r_c + d)
        fb = _blend_profiles(p_minus.f, p_plus.f, r_c, d, dom)
        ab = _blend_profiles(p_minus.a, p_plus.a, r_c, d, dom)
        bb = _blend_profiles(p_minus.b, p_plus.b, r_c, d, dom)
        patch = RadialPatch(fb, ab, bb, dom[0], dom[1],
                            label=f"collar d={d:g}")
        rs = np.linspace(dom[0], dom[1], n_samples)
        lip = float(np.max(np.abs(fb.derivative(rs, 1))))
        supk = float(max(np.max(np.abs(ab.value(rs))),
                         np.max(np.abs(bb.value(rs)))))
        inf_r = float(np.min(scalar_curvature(patch, rs)))
        records.append(MollifyRecord(delta=d, lipschitz_seminorm=lip,
                                     sup_k=supk, inf_R=inf_r))
        if collar_patch is None:
            collar_patch = patch

    infs = [rec.inf_R for rec in records]
    lips = [rec.lipschitz_seminorm for rec in records]
    ratios = [infs[k + 1] / infs[k] for k in (0, 1) if infs[k] < -1e-8]
    blowup = bool(infs[0] < -1e-8 and len(ratios) == 2
                  and all(rt > 1.6 for rt in ratios))
    lip_bounded = bool(max(lips) <= 1.5 * lips[0] + 1e-9)
    report = MollifyReport(records=tuple(records), curvature_blowup=blowup,
                           lipschitz_bounded=lip_bounded)
    return collar_patch, report


def mollified_data(data: GluedDataSet, interface_index: int,
                   delta: float) -> GluedDataSet:
    """Replace one corner by its smooth collar; the result has no jump there."""
    collar, _ = mollify_corner(data, interface_index, delta)
    iface = data.interfaces[interface_index]
    r_c = iface.r_c
    new_patches: List[RadialPatch] = []
    for p in data.patches:
        if abs(p.r_out - r_c) < 1e-10 * max(1.0, r_c):
            new_patches.append(RadialPatch(p.f, p.a, p.b, p.r_in,
                                           r_c - delta, label=p.label))
            new_patches.append(collar)
        elif abs(p.r_in - r_c) < 1e-10 * max(1.0, r_c):
            new_patches.append(RadialPatch(p.f, p.a, p.b, r_c + delta,
                                           p.r_out, label=p.label))
        else:
            new_patches.append(p)
    interfaces = tuple(
        interface_from_patches(p, q, p.r_out)
        for p, q in zip(new_patches[:-1], new_patches[1:]))
    return GluedDataSet(
        patches=tuple(new_patches), interfaces=interfaces,
        decay_order=data.decay_order, name=data.name + "+mollified",
        expectations=dict(data.expectations), chart=data.chart,
        has_center=data.has_center, grading_anchor=data.grading_anchor,
        topology_trivial=data.topology_trivial)


# ---------------------------------------------------------------------------
# Conformal deformation (radial)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DeformationResult:
    factor_radii: np.ndarray
    factor: np.ndarray               # u >= 1 samples
    A: float                         # leading far-field coefficient
    A_flux: float                    # cross-check from the conserved flux
    m_base: float
    m_hat: float
    b_norm_l32: float
    solve_ok: bool
    min_deformed_R: float            # min of u^-4 (R + b) where b > 0


def _b_source(data: GluedDataSet, r):
    """b = max(0, -2 mu) + K^2 from the constraint quantities at radius r."""
    side = "minus" if data.is_corner(r) else "auto"
    patch = data.patch_at(r, side)
    c = constraints(patch, r)
    K = float(patch.tr_k(r))
    return max(0.0, -2.0 * c.mu) + K * K


def conformal_deform(data: GluedDataSet, collar: Tuple[float, float],
                     r_F: float, *, m_base=None, n_steps=6000,
                     r_far=None, b_override=None) -> DeformationResult:
    """Solve D u + (1/8) b u = 0 with Neumann data at r_F and u -> 1 far out.

    The equation is linear, so the two-point problem is solved by one
    shooting pass: integrate v with v(r_F) = 1, v'(r_F) = 0 and rescale by
    the far-field limit.  The leading coefficient A is fit by least squares
    on r (u - 1) over the last decade of radii; the mass shift is
    m_hat = m_base + 2 A.
    """
    if r_far is None:
        r_far = data.r_max
    if not (data.r_min <= r_F < collar[0]):
        raise ValueError("excision radius must sit inside the data, "
                         "below the source support")

    def b_of(r):
        if b_override is not None:
            return float(b_override(r))
        if r <= collar[1]:
            return _b_source(data, r)
        return 0.0

    def rhs(r, y):
        side = "minus" if data.is_corner(r) else "auto"
        f = float(data.patch_at(r, side).fv(r))
        sf = np.sqrt(f)
        v, w = y
        return np.array([w / (r * r * sf),
                         -0.125 * b_of(r) * v * r * r / sf])

    # integrate across smooth segments so profile kinks land on nodes
    breaks = sorted({data.r_min, *data.corner_radii, collar[0], collar[1],
                     r_far})
    breaks = [b for b in breaks if r_F <= b <= r_far]
    if not breaks or breaks[0] > r_F:
        breaks = [r_F] + breaks
    rr_all, vv_all, ww_all = [r_F], [1.0], [0.0]
    y = np.array([1.0, 0.0])
    for lo, hi in zip(breaks[:-1], breaks[1:]):
        if hi - lo < 1e-14:
            continue
        n = max(16, int(n_steps * (hi - lo) / (r_far - r_F)))
        ts, ys = integrate_ode(rhs, y, (lo, hi), (hi - lo) / n)
        rr_all.extend(ts[1:].tolist())
        vv_all.extend(ys[1:, 0].tolist())
        ww_all.extend(ys[1:, 1].tolist())
        y = ys[-1]
    rr = np.asarray(rr_all)
    vv = np.asarray(vv_all)
    ww = np.asarray(ww_all)

    w_inf = ww[-1]
    v_inf = vv[-1] + w_inf / rr[-1]   # tail of v' = w/(r^2 sqrt(f)), f ~ 1
    solve_ok = bool(v_inf > 1e-12 and np.all(vv > 0))
    if not solve_ok:
        u = vv / max(v_inf, 1e-300)
        a_fit = float("nan")
    else:
        u = vv / v_inf
        sel = rr >= rr[-1] / 10.0
        rsel = rr[sel]
        ysel = rsel * (u[sel] - 1.0)
        Amat = np.column_stack([np.ones_like(rsel), 1.0 / rsel])
        coef, *_ = np.linalg.lstsq(Amat, ysel, rcond=None)
        a_fit = float(coef[0])
    a_flux = float(-w_inf / v_inf) if solve_ok else float("nan")

    if m_base is None:
        outer = data.patches[-1]
        m_base = float(0.5 * rr[-1] * (1.0 - outer.fv(min(rr[-1],
                                                          outer.r_out))))
    # deformed scalar curvature where the source is on: u^-4 (R + b)
    min_R_hat = np.inf
    for r in np.linspace(collar[0], collar[1], 128):
        b = b_of(float(r))
        if b > 1e-14:
            side = "minus" if data.is_corner(r) else "auto"
            patch = data.patch_at(float(r), side)
            Rv = float(scalar_curvature(patch, float(r)))
            uu = float(np.interp(r, rr, u))
            min_R_hat = min(min_R_hat, (Rv + b) / uu**4)
    if min_R_hat is np.inf:
        min_R_hat = 0.0

    # recorded, never asserted: the Fredholm smallness lives in a Sobolev
    # constant the argument does not pin down
    bs = np.array([b_of(float(r)) for r in
                   np.linspace(r_F, collar[1], 256)])
    rs = np.linspace(r_F, collar[1], 256)
    dv = 4.0 * np.pi * rs * rs
    b_norm = float(np.trapezoid(np.abs(bs) ** 1.5 * dv, rs) ** (2.0 / 3.0))

    return DeformationResult(
        factor_radii=rr, factor=u, A=a_fit, A_flux=a_flux,
        m_base=float(m_base), m_hat=float(m_base + 2.0 * a_fit),
        b_norm_l32=b_norm, solve_ok=solve_ok,
        min_deformed_R=float(min_R_hat))
