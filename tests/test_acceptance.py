"""Acceptance suite: one test per shipped criterion, each printing a
pass/fail line with the measured quantities at the pinned tolerances."""

import dataclasses
import time

import numpy as np
import pytest

from cornermass import masses
from cornermass.corner import scenario_build
from cornermass.errors import HypothesisError
from cornermass.extension import (conformal_deform, fillin_certificate,
                                  q_monotone_violation, quasilocal_pipeline,
                                  shi_tam_extend)
from cornermass.geometry import RadialPatch, dec_check, scalar_curvature
from cornermass.harmonic import (SolveOptions, boundary_formula_check,
                                 mass_bound_report, mass_bound_sweep,
                                 solve_spacetime_harmonic, spacetime_hessian)
from cornermass.harmonic.fields import (AxisymField, build_coefficients,
                                        build_solver_grid)
from cornermass.masses import (adm_energy_momentum, comparison_check,
                               hawking_mass, minimal_sphere, quasilocal,
                               quasilocal_round)

import oracles

ADM_RADII = [50.0, 100.0, 200.0]


def report(n, ok, text):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {n}: {text}")
    assert ok, text


def test_criterion_1_counterexample_exact():
    t0 = time.time()
    data = scenario_build("hyperbolic_negschw")
    adm = adm_energy_momentum(data, ADM_RADII)
    jump = data.interfaces[0].jump
    dec_margin = min(dec_check(p, exclude=data.corner_radii).min_margin
                     for p in data.patches)
    fld = solve_spacetime_harmonic(data, n_r=48, n_theta=48, L=15.0)
    rep = mass_bound_report(fld, adm)
    elapsed = time.time() - t0
    ok = (abs(adm.E + 0.5) <= 1e-4
          and adm.P_norm <= 1e-10
          and abs(jump + 2.0) <= 1e-10
          and abs(dec_margin) <= 1e-10
          and rep.corner_hypothesis_violated
          and rep.corner < 0 and rep.bulk >= 0 and rep.lhs < 0
          and elapsed <= 10.0)
    report(1, ok,
           f"E={adm.E:.6f} |P|={adm.P_norm:.2e} jump={jump:+.12f} "
           f"dec={dec_margin:+.2e} corner-violated={rep.corner_hypothesis_violated} "
           f"(bulk={rep.bulk:.2f} corner={rep.corner:.2f} lhs={rep.lhs:.2f}) "
           f"[{elapsed:.1f}s]")


def test_criterion_2_schwarzschild_goldens():
    t0 = time.time()
    data = scenario_build("schwarzschild", m=1.0)
    adm = adm_energy_momentum(data, ADM_RADII)
    hawks = [hawking_mass(data, r) for r in (3.0, 5.0, 10.0)]
    m_by = quasilocal(data, 4.0).m_BY
    elapsed = time.time() - t0
    ok = (abs(adm.E - 1.0) <= 1e-4
          and abs(adm.misner_sharp - 1.0) <= 1e-8
          and all(abs(h - 1.0) <= 1e-8 for h in hawks)
          and abs(m_by - 4.0 * (1 - np.sqrt(0.5))) <= 1e-8
          and elapsed <= 5.0)
    report(2, ok,
           f"E_flux={adm.E:.8f} E_MS={adm.misner_sharp:.10f} "
           f"m_H={[round(h, 10) for h in hawks]} m_BY={m_by:.10f} "
           f"[{elapsed:.1f}s]")


def test_criterion_3_shi_tam_ode():
    worst_f = worst_R = worst_q = worst_lim = 0.0
    t_max = 0.0
    for r0, h_eff in ((1.0, 3.0), (1.0, 1.0), (2.0, 0.7), (4.0, np.sqrt(2) / 4)):
        t0 = time.time()
        ext = shi_tam_extend(r0, h_eff)
        t_max = max(t_max, time.time() - t0)
        _, rk4 = oracles.shi_tam_rk4(r0, h_eff)
        worst_f = max(worst_f, float(np.max(np.abs(ext.f_samples - rk4))))
        idx = np.linspace(0, ext.radii.size - 1, 100).astype(int)
        worst_R = max(worst_R, float(np.max(np.abs(
            scalar_curvature(ext.patch, ext.radii[idx])))))
        worst_q = max(worst_q, q_monotone_violation(ext))
        worst_lim = max(worst_lim, abs(ext.q_limit - ext.E_ext))
    pipe = quasilocal_pipeline(1.0, 2.0, omega_tan=1.0)
    q_eq_w = abs(pipe.extension.q_boundary - pipe.W)
    ok = (worst_f <= 1e-8 and worst_R <= 1e-10 and worst_q <= 1e-12
          and worst_lim <= 1e-6 and q_eq_w <= 1e-10 and t_max <= 2.0)
    report(3, ok,
           f"max|f-rk4|={worst_f:.2e} max|R|={worst_R:.2e} "
           f"Q-monotone-viol={worst_q:.2e} |limQ-E|={worst_lim:.2e} "
           f"|Q(r0)-W|={q_eq_w:.2e} [max {t_max:.2f}s/extension]")


def test_criterion_4_mass_bound_property_suite():
    t0 = time.time()
    flat = scenario_build("flat")
    adm0 = adm_energy_momentum(flat, ADM_RADII)
    fld0 = solve_spacetime_harmonic(flat, n_r=48, n_theta=48, L=20.0)
    rep0 = mass_bound_report(fld0, adm0)
    flat_ok = abs(rep0.slack) <= 1e-8

    sw = scenario_build("schwarzschild", m=1.0)
    adm = adm_energy_momentum(sw, ADM_RADII)
    slacks = {}
    final = None
    for n in (32, 64, 128):
        final, _ = mass_bound_sweep(sw, adm, resolutions=(n,), L=40.0,
                                    options=SolveOptions(delta=1e-2))
        slacks[n] = final.slack
    eps_64 = abs(slacks[64] - slacks[32])
    eps_128 = abs(slacks[128] - slacks[64])
    order = np.log2(eps_64 / eps_128)
    slack_ok = slacks[128] >= -eps_128
    delta_slacks = [s for _, s in final.delta_sequence]
    delta_var = max(delta_slacks) - min(delta_slacks)
    delta_ok = delta_var <= eps_128
    elapsed = time.time() - t0
    ok = (flat_ok and slack_ok and order >= 1.0 and delta_ok
          and elapsed <= 300.0)
    report(4, ok,
           f"flat slack={rep0.slack:+.2e}; schwarzschild slack(128)="
           f"{slacks[128]:+.4f} eps_grid(64)={eps_64:.4f} "
           f"eps_grid(128)={eps_128:.4f} order={order:.2f} "
           f"delta-var={delta_var:.4f} [{elapsed:.0f}s]")


def test_criterion_5_boundary_identity():
    t0 = time.time()
    flat = scenario_build("flat")
    grid = build_solver_grid(flat, 32, 32, 20.0)
    coeffs = build_coefficients(flat, grid)
    closures = {
        "u": lambda r, x: r * x,
        "u_r": lambda r, x: np.asarray(x, float),
        "u_x": lambda r, x: np.full_like(np.asarray(x, float), r),
        "u_rr": lambda r, x: np.zeros_like(np.asarray(x, float)),
        "u_rx": lambda r, x: np.ones_like(np.asarray(x, float)),
        "u_xx": lambda r, x: np.zeros_like(np.asarray(x, float)),
    }
    fld = AxisymField.from_function(coeffs, lambda R, X: R * X,
                                    closures=closures)
    rep = boundary_formula_check(fld, 1.0)
    flat_ok = abs(rep.lhs - rep.rhs) <= 1e-6

    rng = np.random.RandomState(7)
    coef = rng.uniform(-1, 1, 5)
    alpha, beta = rng.uniform(0.5, 1.5, 2)

    def u_fn(R, X):
        return (alpha * R + beta) * sum(c * X**k for k, c in enumerate(coef))

    sw = scenario_build("schwarzschild", m=1.0)
    areal = dataclasses.replace(sw, chart=None)     # sampled on sw's grid
    residuals = []
    for M in (32, 64, 128):
        g = build_solver_grid(sw, M, M, 40.0, r_inner=3.0)
        c = build_coefficients(areal, g)
        f = AxisymField.from_function(c, u_fn)
        rc = g.r[np.argmin(np.abs(g.r - 5.0))]
        residuals.append(abs(boundary_formula_check(f, rc).residual))
    orders = [np.log2(residuals[i] / residuals[i + 1]) for i in range(2)]
    elapsed = time.time() - t0
    ok = flat_ok and min(orders) >= 1.7 and elapsed <= 30.0
    report(5, ok,
           f"flat |LHS-RHS|={abs(rep.lhs - rep.rhs):.2e}; injected orders="
           f"{[round(o, 2) for o in orders]} [{elapsed:.1f}s]")


def test_criterion_6_hessian_contract():
    data = scenario_build("hyperbolic_negschw")
    fld = solve_spacetime_harmonic(data, n_r=32, n_theta=32, L=12.0)
    hes = spacetime_hessian(fld)
    gn = fld.grad_norm_plain()
    a = fld.coeffs.a[:, None]
    b = fld.coeffs.b[:, None]
    worst = 0.0
    for comp, kk in (("rr", a), ("tt", b), ("pp", b), ("rt", 0.0 * a)):
        worst = max(worst, float(np.max(np.abs(
            hes.full[comp] - hes.pure[comp] - gn * kk))))
    # finite differences vs analytic Hessian of polynomial injections
    flat = scenario_build("flat")
    errs = []
    for n in (32, 64, 128):
        g = build_solver_grid(flat, n, n, 10.0)
        c = build_coefficients(flat, g)
        f = AxisymField.from_function(c, lambda R, X: R**4 * X**3 / 100.0)
        d = f._derivs()
        R, X = np.meshgrid(g.r, g.x, indexing="ij")
        sl = (slice(1, -1), slice(1, -1))
        errs.append(max(
            float(np.max(np.abs(d["u_rr"] - 12 * R**2 * X**3 / 100)[sl])),
            float(np.max(np.abs(d["u_xx"] - 6 * R**4 * X / 100)[sl])),
            float(np.max(np.abs(d["u_rx"] - 12 * R**3 * X**2 / 100)[sl]))))
    orders = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
    ok = worst <= 1e-12 and min(orders) >= 1.5
    report(6, ok, f"construction identity max dev={worst:.2e}; "
                  f"fd-vs-analytic orders={[round(o, 2) for o in orders]}")


def test_criterion_7_w_dominates_liu_yau():
    t0 = time.time()
    rng = np.random.RandomState(2024)
    n = 10_000
    r0 = rng.uniform(0.3, 6.0, n)
    ts = rng.uniform(-2.5, 2.5, n)
    H = np.abs(ts) + rng.uniform(1e-9, 5.0, n)
    om_tan = rng.uniform(0.0, 4.0, n)
    W, _, m_ly, _ = quasilocal_round(r0, H, ts, om_tan)
    margin = float(np.min(W - m_ly))
    elapsed = time.time() - t0
    ok = margin >= -1e-12 and not np.any(np.isnan(m_ly)) and elapsed <= 1.0
    report(7, ok, f"min(W - m_LY)={margin:+.2e} over {n} trials "
                  f"[{elapsed:.2f}s]")


def test_criterion_8_comparison_and_penrose():
    sw = scenario_build("schwarzschild", m=1.0)
    ql = quasilocal(sw, 10.0)
    comp = comparison_check(ql, sw, np.linspace(2.5, 10.0, 50))
    hulls_ok = comp.applicable and all(
        ok and abs(mh - 1.0) <= 1e-8 for (_, mh, ok, _) in comp.per_radius)

    iso = scenario_build("isotropic_schwarzschild", m=1.0)
    ms = minimal_sphere(iso)
    sphere_ok = (ms is not None
                 and abs(ms.coordinate - 0.5) <= 1e-10
                 and abs(ms.area - 16.0 * np.pi) <= 1e-8)
    w_far = [quasilocal(iso, r).W for r in (10.0, 30.0, 100.0)]
    penrose_ok = all(w >= 1.0 for w in w_far)
    ok = hulls_ok and sphere_ok and penrose_ok
    report(8, ok,
           f"W(10)={ql.W:.6f}>=m_H=1 on 50 hulls={hulls_ok}; minimal sphere "
           f"s={ms.coordinate:.12f} area={ms.area:.10f}; W_far>=1: "
           f"{[round(w, 4) for w in w_far]}")


def test_criterion_9_fillin_certificates():
    sweep = np.linspace(0.05, 4.0, 80)
    verdicts_ok = all(
        fillin_certificate(1.0, h).certified == (h > 2.0)
        for h in sweep if abs(h - 2.0) > 1e-9)
    e3 = fillin_certificate(1.0, 3.0).E_ext
    e2 = fillin_certificate(1.0, 2.0).E_ext
    ok = (verdicts_ok and abs(e3 + 0.625) <= 1e-10 and abs(e2) <= 1e-10)
    report(9, ok, f"threshold at H-f=2 exact={verdicts_ok} "
                  f"E_ext(3)={e3:+.12f} E_ext(2)={e2:+.2e}")


def test_criterion_10_conformal_deformation():
    flat = scenario_build("flat", r_out=60.0)
    res0 = conformal_deform(flat, collar=(1.5, 2.5), r_F=0.5, m_base=0.0,
                            b_override=lambda r: 0.0)
    zero_ok = (res0.A == 0.0 and res0.m_hat == 0.0
               and float(np.max(np.abs(res0.factor - 1.0))) == 0.0)

    amp = 1e-3

    def bump(r, amplitude=amp):
        if 1.75 <= r <= 2.25:
            t = (r - 2.0) / 0.25
            return amplitude * (1 - t * t) ** 2
        return 0.0

    res = conformal_deform(flat, collar=(1.5, 2.5), r_F=0.5, m_base=0.4,
                           b_override=bump)
    rs = np.linspace(0.5, 60.0, 40001)
    green = np.trapezoid(np.array([bump(r) for r in rs]) * 4 * np.pi
                         * rs**2, rs) / (32 * np.pi)
    green_ok = abs(res.A / green - 1.0) <= 0.02
    res_half = conformal_deform(flat, collar=(1.5, 2.5), r_F=0.5,
                                m_base=0.4,
                                b_override=lambda r: bump(r, 0.5 * amp))
    lin_ok = abs(res.A / res_half.A - 2.0) <= 0.04
    shift_ok = res.m_hat == res.m_base + 2.0 * res.A
    ok = zero_ok and green_ok and lin_ok and shift_ok
    report(10, ok,
           f"b=0: A={res0.A} u==1 exact={zero_ok}; bump A/green="
           f"{res.A / green:.5f}; linearity={res.A / res_half.A:.5f}; "
           f"m_hat recomputation exact={shift_ok}")
