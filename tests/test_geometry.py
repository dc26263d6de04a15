import numpy as np
import pytest

from cornermass import geometry
from cornermass.corner import scenario_build, scenario_names
from cornermass.errors import DomainError
from cornermass.geometry import (RadialPatch, constraints, dec_check,
                                 dec_margins,
                                 flat_metric_profile,
                                 hyperbolic_metric_profile,
                                 mean_curvature_sphere, momentum_tensor,
                                 null_expansions, scalar_curvature,
                                 schwarzschild_metric_profile)
from cornermass.numgrid import ScalarProfile

import oracles


ZERO = ScalarProfile.constant(0.0)


def const(c):
    return ScalarProfile.constant(c)


@pytest.fixture
def flat_patch():
    return RadialPatch(flat_metric_profile(), ZERO, ZERO, 0.0, 20.0)


@pytest.fixture
def schwarzschild_patch():
    return RadialPatch(schwarzschild_metric_profile(1.0, 2.5),
                       ZERO, ZERO, 2.5, 50.0)


@pytest.fixture
def hyperbolic_patch():
    return RadialPatch(hyperbolic_metric_profile(), const(1.0),
                       const(1.0), 0.0, 1.0)


class TestScalarCurvature:
    def test_flat(self, flat_patch):
        assert scalar_curvature(flat_patch, 3.0) == 0.0

    def test_schwarzschild_vacuum(self, schwarzschild_patch):
        for r in (2.6, 5.0, 20.0):
            assert scalar_curvature(schwarzschild_patch, r) == \
                pytest.approx(0.0, abs=1e-13)

    def test_hyperbolic(self, hyperbolic_patch):
        assert scalar_curvature(hyperbolic_patch, 0.7) == \
            pytest.approx(-6.0, abs=1e-12)

    def test_outside_domain(self, schwarzschild_patch):
        with pytest.raises(DomainError):
            scalar_curvature(schwarzschild_patch, 1.0)

    def test_cartesian_oracle(self, hyperbolic_patch):
        x = np.array([0.3, -0.2, 0.4])
        want = oracles.scalar_curvature_cartesian(hyperbolic_patch, x)
        got = scalar_curvature(hyperbolic_patch, float(np.linalg.norm(x)))
        assert got == pytest.approx(want, abs=1e-4)

    def test_center_limit_one_sided(self, flat_patch, hyperbolic_patch):
        assert scalar_curvature(flat_patch, 0.0) == pytest.approx(0.0,
                                                                  abs=1e-9)
        assert scalar_curvature(hyperbolic_patch, 0.0) == \
            pytest.approx(-6.0, abs=1e-6)


class TestMeanCurvature:
    def test_flat_sphere(self, flat_patch):
        assert mean_curvature_sphere(flat_patch, 2.0) == pytest.approx(1.0)

    def test_hyperbolic_at_one(self, hyperbolic_patch):
        assert mean_curvature_sphere(hyperbolic_patch, 1.0) == \
            pytest.approx(2.0 * np.sqrt(2.0), abs=1e-14)

    def test_negmass_matches_hyperbolic(self):
        outer = RadialPatch(schwarzschild_metric_profile(-0.5, 1.0),
                            ZERO, ZERO, 1.0, 50.0)
        assert mean_curvature_sphere(outer, 1.0) == \
            pytest.approx(2.0 * np.sqrt(2.0), abs=1e-14)

    def test_areal_reparameterization_invariance(self):
        # the isotropic chart of the same manifold gives the same H at the
        # same areal radius
        m = 1.0
        s = 1.4
        psi = 1.0 + m / (2 * s)
        r_areal = s * psi * psi
        patch = RadialPatch(schwarzschild_metric_profile(m, 2.2),
                            ZERO, ZERO, 2.2, 50.0)
        h_areal = mean_curvature_sphere(patch, r_areal)
        h_iso = (2.0 / (s * psi**2)) * (1 - m / (2 * s)) / psi
        assert h_areal == pytest.approx(h_iso, rel=1e-12)


class TestConstraints:
    def test_hyperbolic_k_eq_g_vacuum(self, hyperbolic_patch):
        c = constraints(hyperbolic_patch, 0.5)
        assert c.mu == pytest.approx(0.0, abs=1e-12)
        assert c.J_radial == pytest.approx(0.0, abs=1e-12)

    def test_flat_time_symmetric(self, flat_patch):
        c = constraints(flat_patch, 1.0)
        assert c.mu == 0.0 and c.J_radial == 0.0

    def test_divergence_oracle_random_smooth(self):
        rng = np.random.RandomState(3)
        c1, c2, c3 = rng.uniform(-0.2, 0.2, 3)
        f = ScalarProfile(
            lambda r: 1.0 + c1 * np.exp(-((r - 2.5) / 1.2) ** 2))
        a = ScalarProfile(lambda r: c2 * np.sin(r))
        b = ScalarProfile(lambda r: c3 / (1.0 + r * r))
        patch = RadialPatch(f, a, b, 0.5, 6.0)
        for point in ([1.2, 0.5, 1.0], [0.0, 0.0, 3.0], [2.0, -1.0, 0.5]):
            x = np.array(point, dtype=float)
            J_cart = oracles.momentum_density_cartesian(patch, x)
            r = float(np.linalg.norm(x))
            got = constraints(patch, r).J_radial
            # the oracle returns the covariant Cartesian components; its
            # radial physical component is (J . x/r) / sqrt(g_rr)
            want = float(J_cart @ (x / r)) * float(np.sqrt(patch.fv(r)))
            assert got == pytest.approx(want, abs=1e-4)

    def test_mu_identity_cartesian(self):
        f = ScalarProfile(
            lambda r: 1.0 + 0.15 * np.exp(-((r - 2.0) / 1.5) ** 2))
        a = ScalarProfile(lambda r: 0.1 * np.cos(r))
        b = ScalarProfile(lambda r: 0.05 * r / (1 + r))
        patch = RadialPatch(f, a, b, 0.5, 6.0)
        x = np.array([1.0, 1.0, 1.5])
        r = float(np.linalg.norm(x))
        R_cart = oracles.scalar_curvature_cartesian(patch, x)
        av, bv = float(patch.av(r)), float(patch.bv(r))
        mu_oracle = 0.5 * (R_cart + (av + 2 * bv) ** 2 - (av**2 + 2 * bv**2))
        assert constraints(patch, r).mu == pytest.approx(mu_oracle, abs=1e-4)


class TestMomentumTensor:
    def test_k_eq_g(self, hyperbolic_patch):
        m = momentum_tensor(hyperbolic_patch, 0.5)
        assert m.pi_nn == pytest.approx(-2.0)
        assert m.pi_tan == pytest.approx(-2.0)

    def test_zero(self, flat_patch):
        m = momentum_tensor(flat_patch, 1.0)
        assert m.pi_nn == m.pi_tan == m.tr_k == m.tr_sigma_k == 0.0

    def test_radial_only(self):
        patch = RadialPatch(flat_metric_profile(), const(3.0),
                            ZERO, 0.5, 3.0)
        m = momentum_tensor(patch, 1.0)
        assert m.tr_k == pytest.approx(3.0)
        assert m.pi_nn == pytest.approx(0.0)
        assert m.pi_tan == pytest.approx(-3.0)

    def test_pi_nn_plus_tr_sigma_identity(self):
        rng = np.random.RandomState(11)
        for _ in range(50):
            a, b = rng.uniform(-2, 2, 2)
            patch = RadialPatch(flat_metric_profile(), const(a),
                                const(b), 0.5, 3.0)
            m = momentum_tensor(patch, 1.7)
            assert m.pi_nn + m.tr_sigma_k == pytest.approx(0.0, abs=1e-14)


class TestNullExpansions:
    def test_flat(self, flat_patch):
        ne = null_expansions(flat_patch, 1.0)
        assert ne.theta_plus == pytest.approx(2.0)
        assert ne.theta_minus == pytest.approx(2.0)
        assert not ne.weakly_outer_trapped

    def test_trapped(self):
        patch = RadialPatch(flat_metric_profile(), ZERO,
                            const(-2.0), 0.5, 3.0)
        ne = null_expansions(patch, 1.0)
        assert ne.theta_plus == pytest.approx(-2.0)
        assert ne.weakly_outer_trapped


class TestDecCheck:
    def test_schwarzschild_vacuum(self, schwarzschild_patch):
        rep = dec_check(schwarzschild_patch)
        assert rep.verdict
        assert abs(rep.min_margin) < 1e-10

    def test_hyperbolic_vacuum(self, hyperbolic_patch):
        rep = dec_check(hyperbolic_patch)
        assert rep.verdict
        assert abs(rep.min_margin) < 1e-10

    def test_ad_hoc_matches_oracle(self):
        patch = RadialPatch(
            flat_metric_profile(), ZERO,
            ScalarProfile(lambda r: np.asarray(r, float),
                          lambda r: np.ones_like(np.asarray(r, float))),
            0.5, 4.0)
        rep = dec_check(patch, samples=64)
        r = rep.radius_of_min
        x = np.array([0.0, 0.0, r])
        J = oracles.momentum_density_cartesian(patch, x)
        want_J = float(J @ (x / r)) * float(np.sqrt(patch.fv(r)))
        c = constraints(patch, r)
        assert c.J_radial == pytest.approx(want_J, abs=1e-4)
        assert rep.min_margin == pytest.approx(c.mu - abs(c.J_radial),
                                               abs=1e-12)


class TestDecMarginsOnArrays:
    @pytest.mark.parametrize("name", [
        n for n in scenario_names() if n != "custom"])
    def test_bit_identical_to_per_point_loop(self, name):
        data = scenario_build(name)
        for patch in data.patches:
            rs, margins = dec_margins(patch, 128, exclude=data.corner_radii)
            want = oracles.dec_margins_per_point(patch, rs)
            assert rs.size and np.all(margins == want)
            rep = dec_check(patch, exclude=data.corner_radii)
            i = int(np.argmin(want))
            assert rep.min_margin == want[i] and rep.radius_of_min == rs[i]

    def test_scalar_wrapper_matches_arrays(self):
        data = scenario_build("hyperbolic_negschw")
        for patch in data.patches:
            rs = np.linspace(max(patch.r_in, 0.1), patch.r_out, 9)
            R, mu, J_n = geometry.constraint_densities(patch, rs)
            for k, r in enumerate(rs):
                c = constraints(patch, float(r))
                assert (c.R, c.mu, c.J_radial) == (R[k], mu[k], J_n[k])
                assert c.dec_margin == mu[k] - abs(J_n[k])


class TestCenterRegularity:
    def test_bad_center_rejected(self):
        with pytest.raises(ValueError):
            RadialPatch(schwarzschild_metric_profile(-0.5, 0.0),
                        ZERO, ZERO, 0.0, 5.0)

    def test_nonpositive_f_rejected(self):
        with pytest.raises(ValueError):
            RadialPatch(ScalarProfile.constant(-1.0),
                        ZERO, ZERO, 1.0, 2.0)
