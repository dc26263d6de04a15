import numpy as np
import pytest

from cornermass import corner
from cornermass.corner import (CornerInterface, GluedDataSet, glue,
                               scenario_build, scenario_names)
from cornermass.errors import DomainError
from cornermass.geometry import (RadialPatch, flat_metric_profile,
                                 mean_curvature_sphere,
                                 schwarzschild_metric_profile)
from cornermass.numgrid import ScalarProfile


ZERO = ScalarProfile.constant(0.0)


class TestGlue:
    def test_schwarzschild_self_glue(self):
        inner = RadialPatch(schwarzschild_metric_profile(1.0, 2.5),
                            ZERO, ZERO, 2.5, 5.0)
        outer = RadialPatch(schwarzschild_metric_profile(1.0, 5.0),
                            ZERO, ZERO, 5.0, 50.0)
        ds = glue(inner, outer, 5.0)
        iface = ds.interfaces[0]
        assert iface.jump == pytest.approx(0.0, abs=1e-14)
        assert iface.H_minus == pytest.approx(iface.H_plus, abs=1e-14)
        assert iface.omega_minus == iface.omega_plus

    def test_flat_identity_glue(self):
        inner = RadialPatch(flat_metric_profile(), ZERO, ZERO, 0.0, 1.0)
        outer = RadialPatch(flat_metric_profile(), ZERO, ZERO, 1.0, 50.0)
        ds = glue(inner, outer, 1.0)
        iface = ds.interfaces[0]
        assert iface.jump == 0.0
        assert iface.omega_minus == (0.0, 0.0)

    def test_counterexample_mean_curvatures_match(self):
        ds = scenario_build("hyperbolic_negschw")
        iface = ds.interfaces[0]
        assert iface.H_minus == pytest.approx(2 * np.sqrt(2), abs=1e-14)
        assert iface.H_plus == pytest.approx(2 * np.sqrt(2), abs=1e-14)

    def test_domain_mismatch(self):
        inner = RadialPatch(flat_metric_profile(), ZERO, ZERO, 0.0, 1.0)
        outer = RadialPatch(flat_metric_profile(), ZERO, ZERO, 2.0, 50.0)
        with pytest.raises(ValueError):
            glue(inner, outer, 1.0)

    def test_chart_refuses_corners_and_centre(self):
        chart = scenario_build("schwarzschild", m=1.0).chart
        ng = scenario_build("hyperbolic_negschw")
        with pytest.raises(ValueError, match="corner"):
            GluedDataSet(patches=ng.patches, interfaces=ng.interfaces,
                         chart=chart)
        flat = scenario_build("flat")
        with pytest.raises(ValueError, match="centre"):
            GluedDataSet(patches=flat.patches, interfaces=(), chart=chart,
                         has_center=True)

    def test_f_jump_needs_flag(self):
        inner = RadialPatch(flat_metric_profile(), ZERO, ZERO, 0.0, 1.0)
        outer = RadialPatch(schwarzschild_metric_profile(0.25, 1.0),
                            ZERO, ZERO, 1.0, 50.0)
        with pytest.raises(ValueError):
            glue(inner, outer, 1.0)
        ds = glue(inner, outer, 1.0, allow_discontinuous_f=True)
        assert ds.interfaces[0].H_minus != ds.interfaces[0].H_plus


class TestJumpCondition:
    def test_counterexample_value(self):
        ds = scenario_build("hyperbolic_negschw")
        assert ds.interfaces[0].jump == pytest.approx(-2.0, abs=1e-14)

    def test_shi_tam_matched_zero(self):
        ds = scenario_build("shi_tam_glue", r0=1.0, H=2.0, omega_tan=1.0)
        assert ds.interfaces[0].jump == pytest.approx(0.0, abs=1e-12)

    def test_identical_patches_zero(self):
        iface = CornerInterface(2.0, 1.3, 1.3, (0.5, 0.1), (0.5, 0.1))
        assert iface.jump == 0.0

    def test_swap_antisymmetry(self):
        rng = np.random.RandomState(5)
        for _ in range(64):
            hm, hp = rng.uniform(0.2, 3.0, 2)
            om = tuple(rng.uniform(-1, 1, 2))
            op = tuple(rng.uniform(-1, 1, 2))
            iface = CornerInterface(1.0, hm, hp, om, op)
            swapped = CornerInterface(1.0, hp, hm, op, om)
            assert (iface.H_minus - iface.H_plus) == pytest.approx(
                -(swapped.H_minus - swapped.H_plus))
            assert iface.omega_jump_norm == pytest.approx(
                swapped.omega_jump_norm, abs=1e-15)

    def test_k_sign_flip_same_jump(self):
        plus = scenario_build("hyperbolic_negschw", k_sign=1)
        minus = scenario_build("hyperbolic_negschw", k_sign=-1)
        assert plus.interfaces[0].jump == pytest.approx(
            minus.interfaces[0].jump, abs=1e-14)


class TestScenarioRegistry:
    def test_names(self):
        for name in ("flat", "schwarzschild", "isotropic_schwarzschild",
                     "hyperbolic_negschw", "shi_tam_glue", "custom"):
            assert name in scenario_names()

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            scenario_build("nonsense")

    def test_schwarzschild_chart_validation(self):
        with pytest.raises(ValueError):
            scenario_build("schwarzschild", m=1.0, r_in=1.5)

    def test_expectations_attached(self):
        ng = scenario_build("hyperbolic_negschw")
        assert ng.expectations["E"] == -0.5
        assert ng.expectations["P"] == 0.0
        sw = scenario_build("schwarzschild", m=2.0, r_in=5.0)
        assert sw.expectations["E"] == 2.0
        flat = scenario_build("flat")
        assert flat.expectations["E"] == 0.0

    def test_interface_recomputes_from_patches(self):
        ds = scenario_build("hyperbolic_negschw")
        iface = ds.interfaces[0]
        hm = mean_curvature_sphere(ds.patches[0], iface.r_c)
        hp = mean_curvature_sphere(ds.patches[1], iface.r_c)
        assert iface.H_minus == pytest.approx(hm, abs=1e-12)
        assert iface.H_plus == pytest.approx(hp, abs=1e-12)


class TestGluedDataSet:
    def test_patch_lookup_sides(self):
        ds = scenario_build("hyperbolic_negschw")
        assert ds.patch_at(0.5) is ds.patches[0]
        assert ds.patch_at(2.0) is ds.patches[1]
        assert ds.patch_at(1.0, side="minus") is ds.patches[0]
        assert ds.patch_at(1.0, side="plus") is ds.patches[1]
        with pytest.raises(DomainError):
            ds.patch_at(1.0)

    def test_tiling_enforced(self):
        p1 = RadialPatch(flat_metric_profile(), ZERO, ZERO, 0.0, 1.0)
        p2 = RadialPatch(flat_metric_profile(), ZERO, ZERO, 2.0, 50.0)
        with pytest.raises(ValueError):
            GluedDataSet(patches=(p1, p2), interfaces=())

    def test_decay_check(self):
        slow = RadialPatch(
            ScalarProfile(lambda r: 1.0 + np.asarray(r, float) ** -0.2),
            ZERO, ZERO, 1.0, 100.0)
        with pytest.raises(ValueError):
            GluedDataSet(patches=(slow,), interfaces=())

    def test_multiple_concentric_corners(self):
        mk = lambda lo, hi: RadialPatch(
            schwarzschild_metric_profile(1.0, lo), ZERO, ZERO, lo, hi)
        ds = scenario_build("custom",
                            patches=[mk(2.5, 4.0), mk(4.0, 8.0),
                                     mk(8.0, 260.0)],
                            label="double-glue")
        assert len(ds.interfaces) == 2
        assert all(abs(i.jump) <= 1e-13 for i in ds.interfaces)

    def test_polynomial_scenario_reproduces_schwarzschild(self):
        ds = scenario_build("polynomial", f_inv_coeffs=[-2.0], r_in=3.0)
        sw = scenario_build("schwarzschild", m=1.0, r_in=3.0)
        rs = np.linspace(3.0, 40.0, 7)
        assert np.allclose(ds.patches[0].fv(rs), sw.patches[0].fv(rs),
                           atol=1e-14)
        from cornermass.geometry import scalar_curvature
        assert abs(scalar_curvature(ds.patches[0], 5.0)) <= 1e-13
