import numpy as np
import pytest

from cornermass import extension
from cornermass.corner import glue, scenario_build
from cornermass.errors import HypothesisError
from cornermass.extension import (conformal_deform, fillin_certificate,
                                  mollified_data, mollify_corner,
                                  q_monotone_violation,
                                  quasilocal_pipeline, shi_tam_extend)
from cornermass.geometry import (RadialPatch, flat_metric_profile,
                                 scalar_curvature,
                                 schwarzschild_metric_profile)
from cornermass.numgrid import ScalarProfile

import oracles


ZERO = ScalarProfile.constant(0.0)


class TestShiTamExtend:
    def test_flat_boundary(self):
        ext = shi_tam_extend(2.0, 1.0)     # H_eff = H0: Euclidean exterior
        assert ext.E_ext == pytest.approx(0.0, abs=1e-14)
        assert np.max(np.abs(ext.f_samples - 1.0)) < 1e-12
        assert np.max(np.abs(ext.q_samples)) < 1e-12

    def test_schwarzschild_boundary(self):
        # r0 = 4, H_eff = 2 sqrt(1/2)/4: reproduces the m = 1 profile
        ext = shi_tam_extend(4.0, 2.0 * np.sqrt(0.5) / 4.0)
        assert ext.E_ext == pytest.approx(1.0, abs=1e-12)

    def test_negative_energy_case(self):
        ext = shi_tam_extend(1.0, 3.0)
        assert ext.E_ext == pytest.approx(-0.625, abs=1e-12)
        assert ext.q_samples[0] == pytest.approx(-0.5, abs=1e-12)

    def test_ode_matches_closed_form(self):
        ext = shi_tam_extend(1.0, 3.0)
        s, f = oracles.shi_tam_rk4(1.0, 3.0)
        assert np.array_equal(ext.radii, np.exp(s))
        assert np.max(np.abs(ext.f_samples - f)) <= 1e-8

    def test_scalar_flat_at_nodes(self):
        ext = shi_tam_extend(1.0, 3.0)
        idx = np.linspace(0, ext.radii.size - 1, 100).astype(int)
        R = scalar_curvature(ext.patch, ext.radii[idx])
        assert np.max(np.abs(R)) <= 1e-10

    def test_q_monotone_and_limit(self):
        for h_eff in (0.4, 1.0, 2.7):
            ext = shi_tam_extend(1.0, h_eff)
            assert q_monotone_violation(ext) <= 1e-12
            assert ext.q_limit == pytest.approx(ext.E_ext, abs=1e-6)

    def test_hypothesis_errors(self):
        with pytest.raises(HypothesisError):
            shi_tam_extend(1.0, -0.5)
        with pytest.raises(HypothesisError):
            shi_tam_extend(-1.0, 1.0)


class TestQuasilocalPipeline:
    def test_flat_sphere(self):
        pipe = quasilocal_pipeline(1.0, 2.0)
        assert pipe.W == pytest.approx(0.0, abs=1e-13)
        assert pipe.E_ext == pytest.approx(0.0, abs=1e-13)
        assert pipe.corner_jump == pytest.approx(0.0, abs=1e-12)

    def test_momentum_unit_example(self):
        pipe = quasilocal_pipeline(1.0, 2.0, omega_tan=1.0)
        assert pipe.W == pytest.approx(0.5, abs=1e-12)
        assert pipe.E_ext == pytest.approx(0.375, abs=1e-12)
        assert pipe.corner_jump == pytest.approx(0.0, abs=1e-12)
        assert pipe.chain_ok
        assert pipe.extension.lapse0 == pytest.approx(2.0, abs=1e-12)

    def test_borderline(self):
        pipe = quasilocal_pipeline(1.0, 2.2, omega_nn=0.2)
        assert pipe.W == pytest.approx(0.0, abs=1e-12)
        assert pipe.E_ext == pytest.approx(0.0, abs=1e-12)

    def test_hypothesis(self):
        with pytest.raises(HypothesisError):
            quasilocal_pipeline(1.0, 1.0, omega_tan=2.0)

    def test_chain_w_ge_e_ext_randomized(self):
        rng = np.random.RandomState(9)
        for _ in range(32):
            r0 = rng.uniform(0.5, 3.0)
            om = rng.uniform(0.0, 1.5)
            H = om + rng.uniform(0.05, 3.0)
            pipe = quasilocal_pipeline(r0, H, omega_tan=om)
            assert pipe.W >= pipe.E_ext - 1e-10


class TestCertificates:
    def test_strict_case(self):
        v = fillin_certificate(1.0, 3.0)
        assert v.certified
        assert v.E_ext == pytest.approx(-0.625, abs=1e-10)
        assert v.margin == pytest.approx(0.625, abs=1e-10)

    def test_boundary_case(self):
        v = fillin_certificate(1.0, 2.0)
        assert not v.certified
        assert v.E_ext == pytest.approx(0.0, abs=1e-10)

    def test_positive_energy_inconclusive(self):
        v = fillin_certificate(1.0, 1.0)
        assert v.verdict == "inconclusive"
        assert v.E_ext == pytest.approx(0.375, abs=1e-12)

    def test_threshold_equivalence_sweep(self):
        # certified exactly when H - f > 2/r0
        for r0 in (0.5, 1.0, 2.0):
            for h_eff in np.linspace(0.1, 4.0, 40):
                v = fillin_certificate(r0, h_eff)
                assert v.certified == (h_eff > 2.0 / r0 + 1e-12)

    def test_bartnik_f_combines(self):
        v = fillin_certificate(1.0, 3.5, tr_alpha=0.3, beta_abs=0.4)
        assert v.bartnik_f == pytest.approx(0.5)
        assert v.E_ext == pytest.approx(0.5 * (1 - 2.25), abs=1e-12)

    def test_hypothesis(self):
        with pytest.raises(HypothesisError):
            fillin_certificate(1.0, 0.5, tr_alpha=1.0)

    def test_closed_form_matches_extension(self):
        for r0 in (0.5, 1.0, 2.0):
            for h_eff in (0.3, 1.0, 2.0 / r0, 2.5):
                assert fillin_certificate(r0, h_eff).E_ext == \
                    shi_tam_extend(r0, h_eff).E_ext

    def test_nonpositive_radius(self):
        for r0 in (0.0, -1.0):
            with pytest.raises(HypothesisError):
                fillin_certificate(r0, 3.0)


def _self_glue():
    inner = RadialPatch(schwarzschild_metric_profile(1.0, 2.5),
                        ZERO, ZERO, 2.5, 5.0)
    outer = RadialPatch(schwarzschild_metric_profile(1.0, 5.0),
                        ZERO, ZERO, 5.0, 50.0)
    return glue(inner, outer, 5.0)


class TestMollify:
    def test_zero_jump_identity(self):
        ds = _self_glue()
        collar, rep = mollify_corner(ds, 0, 0.5)
        rs = np.linspace(4.55, 5.45, 301)
        orig = ds.patches[0].fv(rs)
        assert np.max(np.abs(collar.fv(rs) - orig)) <= 1e-10
        assert np.max(np.abs([r.inf_R for r in rep.records])) <= 1e-10
        assert not rep.curvature_blowup

    def test_counterexample_bounded(self):
        ds = scenario_build("hyperbolic_negschw")
        collar, rep = mollify_corner(ds, 0, 0.2)
        infs = [r.inf_R for r in rep.records]
        assert not rep.curvature_blowup
        assert rep.lipschitz_bounded
        # inf R stays within a stable band as delta halves
        assert max(infs) - min(infs) <= 0.2 * abs(infs[0])
        assert max(r.sup_k for r in rep.records) <= 1.0 + 1e-12

    def test_f_jump_negative_control(self):
        inner = RadialPatch(flat_metric_profile(), ZERO, ZERO, 0.0, 1.0)
        outer = RadialPatch(ScalarProfile.constant(1.5),
                            ZERO, ZERO, 1.0, 20.0)
        ds = glue(inner, outer, 1.0, allow_discontinuous_f=True,
                  asymptotically_flat=False)
        collar, rep = mollify_corner(ds, 0, 0.2)
        assert rep.curvature_blowup
        assert not rep.lipschitz_bounded
        infs = [r.inf_R for r in rep.records]
        assert infs[2] < 1.5 * infs[1] < 2.25 * infs[0] < 0

    def test_collar_exits_domain(self):
        ds = scenario_build("hyperbolic_negschw")
        with pytest.raises(ValueError):
            mollify_corner(ds, 0, 0.8)

    def test_mollified_data_smooth(self):
        ds = scenario_build("hyperbolic_negschw")
        sm = mollified_data(ds, 0, 0.2)
        assert len(sm.patches) == 3
        for iface in sm.interfaces:
            assert abs(iface.jump) <= 1e-9


class TestConformalDeform:
    def test_zero_source(self):
        flat = scenario_build("flat", r_out=60.0)
        res = conformal_deform(flat, collar=(1.5, 2.5), r_F=0.5,
                               m_base=0.0, b_override=lambda r: 0.0)
        assert res.A == 0.0
        assert res.m_hat == 0.0
        assert np.max(np.abs(res.factor - 1.0)) <= 1e-14

    def test_bump_green_function_oracle(self):
        flat = scenario_build("flat", r_out=60.0)
        amp = 1e-3

        def bump(r, amplitude=amp):
            if 1.75 <= r <= 2.25:
                t = (r - 2.0) / 0.25
                return amplitude * (1 - t * t) ** 2
            return 0.0

        res = conformal_deform(flat, collar=(1.5, 2.5), r_F=0.5,
                               m_base=0.0, b_override=bump)
        rs = np.linspace(0.5, 60.0, 40001)
        bv = np.array([bump(r) for r in rs])
        green = np.trapezoid(bv * 4 * np.pi * rs**2, rs) / (32 * np.pi)
        assert res.A == pytest.approx(green, rel=0.02)
        # first-order linearity in the amplitude
        res_half = conformal_deform(
            flat, collar=(1.5, 2.5), r_F=0.5, m_base=0.0,
            b_override=lambda r: bump(r, 0.5 * amp))
        assert res.A / res_half.A == pytest.approx(2.0, rel=0.02)

    def test_factor_bounds_and_mass_shift(self):
        flat = scenario_build("flat", r_out=60.0)
        res = conformal_deform(
            flat, collar=(1.5, 2.5), r_F=0.5, m_base=0.7,
            b_override=lambda r: 0.05 if 1.6 <= r <= 2.4 else 0.0)
        assert np.min(res.factor) >= 1.0 - 1e-10
        assert res.m_hat == res.m_base + 2.0 * res.A
        assert res.solve_ok
        assert res.min_deformed_R >= 0.0
        assert res.A == pytest.approx(res.A_flux, rel=1e-3)

    def test_vacuum_mollified_schwarzschild(self):
        ds = _self_glue()
        sm = mollified_data(ds, 0, 0.4)
        res = conformal_deform(sm, collar=(4.6, 5.4), r_F=3.0, m_base=1.0)
        assert res.A == pytest.approx(0.0, abs=1e-10)
        assert res.m_hat == pytest.approx(1.0, abs=1e-9)
