import numpy as np
import pytest

from cornermass import masses
from cornermass.corner import scenario_build
from cornermass.errors import DomainError
from cornermass.masses import (adm_energy_momentum, comparison_check,
                               hawking_mass, minimal_sphere, quasilocal,
                               quasilocal_round)

import oracles

ADM_RADII = [50.0, 100.0, 200.0]


class TestAdm:
    def test_schwarzschild(self):
        adm = adm_energy_momentum(scenario_build("schwarzschild", m=1.0),
                                  ADM_RADII)
        assert adm.E == pytest.approx(1.0, abs=1e-4)
        assert adm.misner_sharp == pytest.approx(1.0, abs=1e-8)
        assert adm.P_norm <= 1e-10
        assert adm.mass == pytest.approx(1.0, abs=1e-4)

    def test_flat(self):
        adm = adm_energy_momentum(scenario_build("flat"), ADM_RADII)
        assert adm.E == 0.0
        assert adm.P_norm == 0.0

    def test_counterexample(self):
        adm = adm_energy_momentum(scenario_build("hyperbolic_negschw"),
                                  ADM_RADII)
        assert adm.E == pytest.approx(-0.5, abs=1e-4)
        assert adm.P_norm <= 1e-10
        assert adm.mass is None     # E < |P| leaves the mass undefined

    def test_flux_integrand_against_fd_oracle(self):
        patch = scenario_build("schwarzschild", m=1.0).patches[-1]
        from cornermass.masses import _flux_energy_integrand
        for r in (20.0, 60.0):
            x = np.array([0.0, r / np.sqrt(2), r / np.sqrt(2)])
            want = oracles.flux_integrand_cartesian(patch, x)
            assert _flux_energy_integrand(patch, r) == \
                pytest.approx(want, abs=1e-6)

    def test_radii_extrapolated_at_their_own_ratio(self):
        # a ratio of 2 assumed here used to give E = 1.00736
        adm = adm_energy_momentum(scenario_build("schwarzschild", m=1.0),
                                  [50.0, 75.0, 112.5])
        assert adm.E == pytest.approx(1.0, abs=1e-4)
        assert adm.convergence.ratio == 1.5

    @pytest.mark.parametrize("radii", [
        [50.0], [50.0, 50.0], [100.0, 50.0], [50.0, 100.0, 150.0]],
        ids=["one", "repeated", "decreasing", "not_geometric"])
    def test_radii_must_be_increasing_and_geometric(self, radii):
        assert masses.geometric_ratio(radii) is None
        with pytest.raises(ValueError):
            adm_energy_momentum(scenario_build("schwarzschild", m=1.0),
                                radii)

    def test_radius_outside_patch(self):
        with pytest.raises(DomainError):
            adm_energy_momentum(scenario_build("schwarzschild", m=1.0),
                                [50.0, 100.0, 500.0])

    def test_p_zero_for_rotationally_symmetric(self):
        # odd integrand over the sphere: exact zero up to roundoff
        ds = scenario_build("hyperbolic_negschw")
        adm = adm_energy_momentum(ds, ADM_RADII)
        assert abs(adm.P[2]) <= 1e-12

    def test_oscillating_profile_flags_extrapolation(self):
        from cornermass.corner import scenario_build as sb
        from cornermass.geometry import RadialPatch
        from cornermass.numgrid import ScalarProfile
        f = ScalarProfile.from_callables(
            lambda r: 1.0 + np.cos(np.asarray(r) / 7.0) / np.asarray(r),
            domain=(1.0, 300.0))
        zero = ScalarProfile.constant(0.0, (1.0, 300.0))
        patch = RadialPatch(f, zero, zero, 1.0, 300.0)
        ds = sb("custom", patches=[patch], label="wiggly")
        adm = adm_energy_momentum(ds, [40.0, 80.0, 160.0])
        assert "non-monotone-flux" in adm.flags


class TestTrappedChart:
    def test_minimal_sphere_is_mots(self):
        # theta_+ = H with k = 0; H = 2 rho'/(sqrt(lam) rho) vanishes at
        # the chart's minimal sphere and is negative inside it
        from cornermass.harmonic.fields import build_coefficients
        from cornermass.numgrid import AxisymGrid
        ds = scenario_build("isotropic_schwarzschild", m=1.0)
        sig = np.concatenate([[0.2, 0.3, 0.4], [0.5],
                              np.linspace(0.6, 4.0, 8)])
        grid = AxisymGrid.build(sig, 8)
        c = build_coefficients(ds, grid, "isotropic")
        H = 2.0 * c.rhop / (c.sqlam * c.rho)
        i_h = int(np.argmin(np.abs(grid.r - 0.5)))
        assert H[i_h] == pytest.approx(0.0, abs=1e-14)
        assert np.all(H[:i_h] < 0)
        assert np.all(H[i_h + 1:] > 0)


class TestHawking:
    def test_schwarzschild_radius_independent(self):
        ds = scenario_build("schwarzschild", m=1.0)
        vals = [hawking_mass(ds, r) for r in (3.0, 5.0, 10.0)]
        for v in vals:
            assert v == pytest.approx(1.0, abs=1e-8)
        many = [hawking_mass(ds, r) for r in np.linspace(2.6, 40.0, 10)]
        assert np.var(many) <= 1e-10

    def test_flat_zero(self):
        assert hawking_mass(scenario_build("flat"), 7.0) == \
            pytest.approx(0.0, abs=1e-14)

    def test_counterexample_inner_side(self):
        ds = scenario_build("hyperbolic_negschw")
        assert hawking_mass(ds, 1.0, side="minus") == \
            pytest.approx(-0.5, abs=1e-12)

    def test_corner_needs_side(self):
        ds = scenario_build("hyperbolic_negschw")
        with pytest.raises(DomainError):
            hawking_mass(ds, 1.0)

    def test_shortcut_oracle(self):
        ds = scenario_build("schwarzschild", m=1.0)
        for r in (3.0, 7.0, 21.0):
            f = float(ds.patches[-1].fv(r))
            assert hawking_mass(ds, r) == pytest.approx(
                0.5 * r * (1.0 - f), abs=1e-12)


class TestQuasilocal:
    def test_flat_round_sphere(self):
        ds = scenario_build("flat")
        ql = quasilocal(ds, 2.0)
        assert ql.H == pytest.approx(1.0)
        assert ql.W == ql.m_BY == ql.m_LY == pytest.approx(0.0, abs=1e-13)

    def test_schwarzschild_brown_york(self):
        ds = scenario_build("schwarzschild", m=1.0)
        ql = quasilocal(ds, 4.0)
        assert ql.m_BY == pytest.approx(4.0 * (1 - np.sqrt(0.5)), abs=1e-8)

    def test_liu_yau_comparison_example(self):
        W, m_by, m_ly, om = quasilocal_round(1.0, 3.0, 1.0)
        assert W == pytest.approx(1.0 - 0.5 * (3.0 - 1.0), abs=1e-14)
        assert m_ly == pytest.approx(1.0 - 0.5 * np.sqrt(8.0), abs=1e-14)
        assert W >= m_ly

    def test_w_ge_liu_yau_randomized(self):
        # the pointwise chain W >= m_LY whenever H > |tr_S k|
        rng = np.random.RandomState(42)
        n = 10_000
        r0 = rng.uniform(0.5, 5.0, n)
        ts = rng.uniform(-2.0, 2.0, n)
        H = np.abs(ts) + rng.uniform(1e-6, 4.0, n)
        om_tan = rng.uniform(0.0, 3.0, n)
        W, m_by, m_ly, om = quasilocal_round(r0, H, ts, om_tan)
        assert not np.any(np.isnan(m_ly))
        assert np.min(W - m_ly) >= -1e-12

    def test_hypothesis_flags(self):
        ds = scenario_build("hyperbolic_negschw")
        ql = quasilocal(ds, 0.5, side="minus")
        # k = g: tr_S k = 2, H = 2 sqrt(1.25)/0.5 > 2
        assert ql.tr_sigma_k == pytest.approx(2.0)
        assert ql.hypothesis_H_gt_trk
        assert ql.m_LY is not None

    def test_liu_yau_undefined_when_h_small(self):
        ql = quasilocal_round(1.0, 1.0, 2.0)
        assert np.isnan(ql[2])


class TestMinimalSphere:
    def test_isotropic_schwarzschild(self):
        ds = scenario_build("isotropic_schwarzschild", m=1.0)
        ms = minimal_sphere(ds)
        assert ms is not None
        assert ms.coordinate == pytest.approx(0.5, abs=1e-10)
        assert ms.area == pytest.approx(16.0 * np.pi, abs=1e-8)

    def test_flat_none(self):
        assert minimal_sphere(scenario_build("flat")) is None

    def test_schwarzschild_exterior_truncated_none(self):
        ds = scenario_build("schwarzschild", m=1.0, r_in=3.0)
        assert minimal_sphere(ds) is None


class TestComparison:
    def test_schwarzschild_hulls(self):
        ds = scenario_build("schwarzschild", m=1.0)
        ql = quasilocal(ds, 10.0)
        rep = comparison_check(ql, ds, np.linspace(2.5, 10.0, 50))
        assert rep.applicable
        assert rep.all_ok
        for (_, mh, ok, margin) in rep.per_radius:
            assert mh == pytest.approx(1.0, abs=1e-8)
            assert ok and margin >= 0

    def test_flat_equality(self):
        ds = scenario_build("flat")
        ql = quasilocal(ds, 5.0)
        rep = comparison_check(ql, ds, [1.0, 2.0, 3.0])
        assert rep.applicable and rep.all_ok
        assert all(abs(m) < 1e-12 for (_, _, _, m) in rep.per_radius)

    def test_penrose_isotropic(self):
        ds = scenario_build("isotropic_schwarzschild", m=1.0)
        ql = quasilocal(ds, 10.0)
        rep = comparison_check(ql, ds, [3.0, 5.0])
        assert rep.penrose_ok
        assert ql.W >= 1.0

    def test_topology_flag_downgrades(self):
        import dataclasses
        ds = scenario_build("schwarzschild", m=1.0)
        ds = dataclasses.replace(ds, topology_trivial=False)
        ql = quasilocal(ds, 10.0)
        rep = comparison_check(ql, ds, [5.0])
        assert not rep.applicable
        assert "topology assertion withheld" in rep.reasons
        assert rep.per_radius            # still evaluated and reported

    def test_k_norms_recorded(self):
        ds = scenario_build("hyperbolic_negschw")
        ql = quasilocal(ds, 0.9, side="minus")
        rep = comparison_check(ql, ds, [0.5])
        assert rep.k_norm_l32 > 0
        assert rep.k_norm_l65 > 0
