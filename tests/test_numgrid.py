import warnings

import numpy as np
import pytest

from cornermass import numgrid
from cornermass.errors import IntegrationDivergedError, SingularFactorError


class TestScalarProfile:
    def test_analytic_derivatives(self):
        prof = numgrid.ScalarProfile(lambda r: r**3, lambda r: 3 * r**2)
        assert prof.derivative(2.0) == 12.0


class TestIntegrateOde:
    def test_constant_solution(self):
        ts, ys = numgrid.integrate_ode(
            lambda t, y: 0.0 * y, [3.0], (1.0, 10.0), 0.1)
        assert np.all(ys == 3.0)

    def test_exponential(self):
        ts, ys = numgrid.integrate_ode(
            lambda t, y: y, [1.0], (0.0, 1.0), 1e-3)
        assert abs(ys[-1, 0] - np.e) < 1e-8

    def test_shi_tam_round_ode(self):
        # y' = (1 - y)/r, y(1) = 0  ->  y = 1 - 1/r on [1, 100]
        ts, ys = numgrid.integrate_ode(
            lambda r, y: (1.0 - y) / r, [0.0], (1.0, 100.0), 5e-3)
        exact = 1.0 - 1.0 / ts
        assert np.max(np.abs(ys[:, 0] - exact)) < 1e-8

    def test_fourth_order_under_step_halving(self):
        lam = 1.3

        def err(h):
            _, ys = numgrid.integrate_ode(
                lambda t, y: lam * y, [1.0], (0.0, 1.0), h)
            return abs(ys[-1, 0] - np.exp(lam))

        order = np.log2(err(0.02) / err(0.01))
        assert 3.7 <= order <= 4.3

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_divergence_reports_last_radius(self):
        with pytest.raises(IntegrationDivergedError) as exc:
            numgrid.integrate_ode(lambda t, y: y * y, [1.0], (0.0, 3.0), 0.05)
        assert exc.value.last_good_radius is not None


class TestRichardson:
    def test_arithmetic(self):
        rep = numgrid.richardson(1.1, 1.05, 1.0)
        assert rep.extrapolated == pytest.approx(1.0, abs=1e-14)

    def test_midpoint_disc_area(self):
        # area of the unit disc by the midpoint rule; the sqrt edge makes
        # the error O(n^-1.5)
        def area(n):
            x = (np.arange(n) + 0.5) / n * 2.0 - 1.0
            return np.sum(2.0 * np.sqrt(1.0 - x * x)) * (2.0 / n)

        rep = numgrid.richardson(area(512), area(1024), 1.5)
        assert abs(rep.extrapolated - np.pi) < 1e-6

    def test_degenerate(self):
        rep = numgrid.richardson(2.0, 2.0, 2.0)
        assert rep.degenerate
        assert rep.extrapolated == 2.0

    def test_observed_order(self):
        # values converging like 4^-k to 7
        vals = [7 + 4.0 ** (-k) for k in range(3)]
        rep = numgrid.richardson(vals[1], vals[2], 2.0, third_coarsest=vals[0])
        assert rep.observed_order == pytest.approx(2.0, abs=1e-12)


    def test_ratio_one_and_a_half(self):
        # exactly 3 + 5 h^2 at n = 32, 48, 72: the pair is extrapolated at
        # its own ratio 1.5, and both ratios agree, so the order shows
        v = [3.0 + 5.0 / n ** 2 for n in (32, 48, 72)]
        rep = numgrid.richardson(v[1], v[2], 2.0, third_coarsest=v[0],
                                 ratio=72 / 48, third_ratio=48 / 32)
        assert rep.ratio == 1.5
        assert rep.extrapolated == pytest.approx(3.0, abs=1e-14)
        assert rep.observed_order == pytest.approx(2.0, abs=1e-9)
        # the grid ratio of 2 assumed before misses the limit by 5.6e-4
        assert abs(numgrid.richardson(v[1], v[2], 2.0).extrapolated
                   - 3.0) > 5e-4

    def test_sequence_limit_at_its_ratio(self):
        # 3 + 5/r + 7/r^2 at r = 50, 75, 112.5: two levels remove both
        # terms at the radii's ratio 1.5, and miss the limit at 2
        v = [3.0 + 5.0 / r + 7.0 / r ** 2 for r in (50.0, 75.0, 112.5)]
        lim, rep = numgrid.limit_from_sequence(v, ratio=1.5)
        assert lim == pytest.approx(3.0, abs=1e-12)
        assert rep.ratio == 1.5
        assert abs(numgrid.limit_from_sequence(v)[0] - 3.0) > 1e-2

    def test_unequal_ratios_give_no_order(self):
        v = [3.0 + 5.0 / n ** 2 for n in (32, 48, 64)]
        rep = numgrid.richardson(v[1], v[2], 2.0, third_coarsest=v[0],
                                 ratio=64 / 48, third_ratio=48 / 32)
        assert np.isnan(rep.observed_order)
        assert rep.extrapolated == pytest.approx(3.0, abs=1e-14)


class TestAxisymGrid:
    @pytest.mark.parametrize("M", [8, 9, 16, 33, 48, 64, 128])
    def test_x_exactly_odd(self, M):
        grid = numgrid.AxisymGrid.build(np.linspace(1.0, 2.0, 8), M)
        x = grid.x
        assert np.array_equal(x[::-1], -x)
        assert x[0] == 1.0 and x[-1] == -1.0
        if M % 2 == 0:
            assert x[M // 2] == 0.0
        assert np.max(np.abs(x - np.cos(grid.theta))) <= np.finfo(float).eps


def _flat_laplace_setup(n_r=16, n_theta=16, r_in=1.0, r_out=4.0):
    # the default polynomial data is flat space minus the unit ball: no
    # centre, so both end rings are Dirichlet rings
    from cornermass.corner import scenario_build
    from cornermass.harmonic.fields import build_coefficients
    from cornermass.harmonic.solver import _assemble_operator
    grid = numgrid.AxisymGrid.build(np.linspace(r_in, r_out, n_r), n_theta)
    data = scenario_build("polynomial")
    coeffs = build_coefficients(data, grid)
    return grid, _assemble_operator(coeffs)


class TestEllipticSolver:
    def test_laplace_annulus_linear_data(self):
        grid, op = _flat_laplace_setup()
        boundary = np.outer(grid.r, grid.x)
        u, info = numgrid.solve_linear_elliptic(
            op, np.zeros_like(boundary), boundary)
        exact = np.outer(grid.r, grid.x)
        assert np.max(np.abs(u - exact)) < 1e-8
        assert info["sweeps"] == 0
        assert info["residual"] < 1e-12

    def test_poisson_radial_ball(self):
        # source -6, zero boundary on the unit ball -> u = 1 - r^2
        from cornermass.corner import scenario_build
        from cornermass.harmonic.fields import build_coefficients
        from cornermass.harmonic.solver import _assemble_operator
        grid = numgrid.AxisymGrid.build(np.linspace(1.0 / 24, 1.0, 24), 12)
        data = scenario_build("flat")
        coeffs = build_coefficients(data, grid)
        op = _assemble_operator(coeffs)
        boundary = np.zeros((grid.n_r, grid.n_theta))
        src = np.full_like(boundary, -6.0)
        u, info = numgrid.solve_linear_elliptic(op, src, boundary)
        exact = 1.0 - grid.r[:, None] ** 2
        assert np.max(np.abs(u - exact)) < 1e-8

    def test_zero_source_zero_boundary(self):
        grid, op = _flat_laplace_setup()
        boundary = np.zeros((grid.n_r, grid.n_theta))
        u, _ = numgrid.solve_linear_elliptic(
            op, np.zeros_like(boundary), boundary)
        assert np.max(np.abs(u)) < 1e-12

    def test_factor_reused_across_solves(self):
        grid, op = _flat_laplace_setup()
        boundary = np.outer(grid.r, grid.x)
        for scale in (1.0, 2.0, 3.0):
            u, _ = numgrid.solve_linear_elliptic(
                op, np.zeros_like(boundary), scale * boundary)
            assert np.max(np.abs(u - scale * boundary)) < 1e-8
        assert op.factorizations == 1
        # the factor holds V and V^-1 (K^2 each, K = M - 1 angular modes),
        # band_lu's four (n, K) arrays for the n free rings and the two
        # outer diagonals: O(N M + M^2), no fill beyond the band
        n, K = grid.n_r - 2, grid.n_theta - 2
        assert op.factor_floats == 2 * K * K + 4 * n * K + 2 * n
        assert op.eigvec_cond >= 1.0

    def test_singular_operator_raises(self):
        from oracles import dense_operator
        grid, op = _flat_laplace_setup(n_r=8, n_theta=8)
        # zero one interior ring's equations: the system is then singular
        op.radial[4] = 0.0
        op.ring_scale[4] = 0.0
        dense = dense_operator(op)
        assert np.linalg.matrix_rank(dense) < dense.shape[0]
        boundary = np.outer(grid.r, grid.x)
        with pytest.raises(SingularFactorError):
            numgrid.solve_linear_elliptic(
                op, np.zeros_like(boundary), boundary)
        assert op.factorizations == 0

    def test_complex_angular_spectrum_raises(self):
        grid, op = _flat_laplace_setup(n_r=8, n_theta=8)
        # a skew angular difference has an imaginary spectrum: the modes
        # would not be real, so the operator does not separate over R
        op.angular[:] = 0.0
        op.angular[0], op.angular[2] = -1.0, 1.0      # west and east
        boundary = np.outer(grid.r, grid.x)
        with pytest.raises(SingularFactorError, match="complex"):
            numgrid.solve_linear_elliptic(
                op, np.zeros_like(boundary), boundary)
        assert op.factorizations == 0


class TestSeparatedSolveOracle:
    """The separated solve against Gaussian elimination on the dense
    matrix of the same operator, on 16^2 grids with a random source and
    boundary: they agree at the cond(A) eps level."""

    @staticmethod
    def _operator(name, **params):
        from cornermass.corner import scenario_build
        from cornermass.harmonic.fields import (build_coefficients,
                                                build_solver_grid)
        from cornermass.harmonic.solver import _assemble_operator
        data = scenario_build(name, **params)
        grid = build_solver_grid(data, 16, 16, 10.0)
        coeffs = build_coefficients(data, grid)
        return coeffs, _assemble_operator(coeffs)

    @pytest.mark.parametrize("name, params, corners, centre", [
        ("hyperbolic_negschw", {}, 1, True),
        ("schwarzschild", {"m": 1.0}, 0, False),
        ("flat", {}, 0, True),
    ], ids=["negschw", "schwarzschild", "flat"])
    def test_matches_dense_solve(self, name, params, corners, centre):
        from oracles import dense_elliptic_solve
        coeffs, op = self._operator(name, **params)
        assert coeffs.chart == ("isotropic" if name == "schwarzschild"
                                else "areal")
        assert len(coeffs.corner_indices) == corners
        assert (op.centre is not None) == centre
        rng = np.random.default_rng(7)
        source = rng.standard_normal(op.fixed.shape)
        boundary = rng.standard_normal(op.fixed.shape)
        u, info = numgrid.solve_linear_elliptic(op, source, boundary)
        dense, A, b = dense_elliptic_solve(op, source, boundary)
        bound = 10.0 * np.linalg.cond(A) * np.finfo(float).eps \
            * np.max(np.abs(dense))
        assert np.max(np.abs(u - dense)) <= bound
        # the one correction from the boundary data, the centre value
        # read from the field
        u0 = np.where(op.fixed, boundary, 0.0)
        assert np.max(np.abs(u0 + op.solve(b - op.apply(u0)) - dense)) \
            <= bound
        assert info["residual"] <= 1e-12 * np.max(np.abs(A)) \
            * np.max(np.abs(dense))
        assert np.array_equal(u[op.fixed], boundary[op.fixed])
        # the corner rows, read independently of the operator: the dense
        # solution's radial flux u_s / sqrt(lam) is continuous there
        st = coeffs.stencils
        for k, i in enumerate(coeffs.corner_indices):
            minus = st.r[0].apply(dense)[i] / coeffs.sqlam[i]
            plus = st.r_plus[0].apply(dense)[k] \
                / np.sqrt(coeffs.plus.lam[i])
            assert np.max(np.abs(minus - plus)) <= 1e-9 * np.max(
                np.abs(minus))


    @pytest.mark.parametrize("name, params, corners, centre", [
        ("hyperbolic_negschw", {}, 1, True),
        ("schwarzschild", {"m": 1.0}, 0, False),
        ("flat", {}, 0, True),
    ], ids=["negschw", "schwarzschild", "flat"])
    def test_correction_step_matches_dense_solve(self, monkeypatch, name,
                                                 params, corners, centre):
        # one solve of the correction from a start: from the solution
        # itself, and from a start off by a field as large as the
        # solution, it lands on the dense solution within the bounds of
        # the plain solve
        from oracles import dense_elliptic_solve
        _, op = self._operator(name, **params)
        solves = []
        solve = op.solve
        monkeypatch.setattr(op, "solve", lambda b: solves.append(1)
                            or solve(b))
        rng = np.random.default_rng(7)
        source = rng.standard_normal(op.fixed.shape)
        boundary = rng.standard_normal(op.fixed.shape)
        dense, A, b = dense_elliptic_solve(op, source, boundary)
        bound = 10.0 * np.linalg.cond(A) * np.finfo(float).eps \
            * np.max(np.abs(dense))
        for start in (dense, dense + rng.standard_normal(dense.shape)):
            u, info = numgrid.solve_linear_elliptic(op, source, boundary,
                                                    start=start)
            assert np.max(np.abs(u - dense)) <= bound
            assert info["residual"] <= 1e-12 * np.max(np.abs(A)) \
                * np.max(np.abs(dense))
            assert np.array_equal(u[op.fixed], boundary[op.fixed])
        assert len(solves) == 2 and op.factorizations == 1

    def test_applied_start_is_bit_identical(self):
        # the caller's A of the start replaces the solve's own apply
        _, op = self._operator("hyperbolic_negschw")
        rng = np.random.default_rng(11)
        source = rng.standard_normal(op.fixed.shape)
        boundary = rng.standard_normal(op.fixed.shape)
        start = np.where(op.fixed, boundary,
                         rng.standard_normal(op.fixed.shape))
        u, info = numgrid.solve_linear_elliptic(op, source, boundary,
                                                start=start)
        u_a, info_a = numgrid.solve_linear_elliptic(
            op, source, boundary, start=start, applied=op.apply(start))
        assert np.array_equal(u, u_a)
        assert info["residual"] == info_a["residual"]
        assert np.array_equal(info["applied"], info_a["applied"])
        assert np.array_equal(info["applied"], op.apply(u))


class TestOperatorRows:
    """The operator derives its boundary rows from the data: the outer
    ring is always a Dirichlet ring, ring 0 is one exactly when the data
    has no smooth centre, and the source reaches the interior columns of
    the free rings that are not corners."""

    @pytest.mark.parametrize("name", [
        "flat", "shi_tam_glue", "hyperbolic_negschw", "schwarzschild",
        "isotropic_schwarzschild", "polynomial"])
    def test_rows_follow_the_data(self, name):
        from cornermass.corner import scenario_build
        from cornermass.harmonic.fields import (build_coefficients,
                                                build_solver_grid)
        from cornermass.harmonic.solver import _assemble_operator
        data = scenario_build(name)
        grid = build_solver_grid(data, 16, 16, 10.0)
        coeffs = build_coefficients(data, grid)
        op = _assemble_operator(coeffs)
        shape = (grid.n_r, grid.n_theta)
        assert op.fixed.shape == op.source_rows.shape == shape
        assert op.fixed[-1].all()
        assert op.fixed[0].all() == op.fixed[0].any() == (
            not data.has_center)
        assert not op.fixed[1:-1].any()
        assert (op.centre is not None) == data.has_center
        corners = coeffs.corner_indices
        assert len(corners) == len(data.corner_radii)
        assert not op.source_rows[corners].any()
        assert not op.source_rows[:, [0, -1]].any()
        free = ~op.fixed
        free[corners] = False
        assert np.array_equal(op.source_rows[:, 1:-1], free[:, 1:-1])
        u = np.random.default_rng(5).standard_normal(shape)
        assert op.apply(u).shape == shape


class TestBandRowViews:
    def test_bit_identical_to_indexed_loops(self, monkeypatch):
        # the finest negschw massbound grid (n = 48, L = 30): its factor
        # and a solve on it, exactly as the 2-D indexed loops give them
        from oracles import band_lu_indexed, band_solve_indexed
        from cornermass.corner import scenario_build
        from cornermass.harmonic.fields import (build_coefficients,
                                                build_solver_grid)
        from cornermass.harmonic.solver import _assemble_operator
        data = scenario_build("hyperbolic_negschw")
        op = _assemble_operator(build_coefficients(
            data, build_solver_grid(data, 48, 48, 30.0)))
        calls = []
        band_lu = numgrid.band_lu
        monkeypatch.setattr(numgrid, "band_lu", lambda *args: calls.append(
            (args, band_lu(*args))) or calls[-1][1])
        f = op.factor()
        (args, got), = calls
        for a, b in zip(got, band_lu_indexed(*args)):
            assert np.array_equal(a, b)
        rhs = np.random.default_rng(3).standard_normal(
            (len(f.lower2), f.V.shape[0]))
        assert np.array_equal(
            numgrid.band_solve(f.band, f.lower2, f.upper2, rhs),
            band_solve_indexed(f.band, f.lower2, f.upper2, rhs))
        assert np.any(f.lower2 != 0.0) and np.any(f.upper2 != 0.0)


class TestBandLu:
    @pytest.mark.parametrize("k", [0, 4, 9])
    def test_zero_pivot_names_its_row(self, k):
        # tridiagonal rows (1, 2, 1) from a first diagonal of 1 have every
        # pivot exactly 1, so a diagonal of 1 at row k > 0 (0 at row 0)
        # is an exact zero pivot there; the rows after it divide by it
        n = 10
        zero, one = np.zeros(n), np.ones(n)
        diag = np.full((n, 3), 2.0)
        diag[0] = 1.0
        diag[k, 1] = 0.0 if k == 0 else 1.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SingularFactorError,
                               match=rf"zero pivot in row {k} of"):
                numgrid.band_lu(zero, one, diag, one, zero)
            diag[k, 1] = diag[k, 0]
            rpiv = numgrid.band_lu(zero, one, diag, one, zero)[3]
        assert np.array_equal(rpiv, np.ones((n, 3)))


class TestMirrorEig:
    """The split eigenproblem of the reduced angular matrix against one
    eigenproblem of the whole matrix, on the solver's own grids."""

    @staticmethod
    def _operator(n):
        # negschw's operator with n angular cells (the angular matrix
        # depends on the grid's x alone)
        from cornermass.corner import scenario_build
        from cornermass.harmonic.fields import (build_coefficients,
                                                build_solver_grid)
        from cornermass.harmonic.solver import _assemble_operator
        data = scenario_build("hyperbolic_negschw")
        coeffs = build_coefficients(data, build_solver_grid(data, 16, n,
                                                            30.0))
        return _assemble_operator(coeffs)

    @pytest.mark.parametrize("n", [16, 17, 32, 48, 64, 128])
    def test_matches_full_eig_oracle(self, n):
        from oracles import full_eig
        op = self._operator(n)
        Xr = op.reduced_angular()
        assert Xr.shape == (n - 1, n - 1)
        assert np.array_equal(Xr, Xr[::-1, ::-1])
        lam, V, Vinv, cond = numgrid.mirror_eig(Xr)
        lam_full, _, _, cond_full = full_eig(Xr)
        scale = np.max(np.abs(lam_full))
        assert np.max(np.abs(np.sort(lam) - np.sort(lam_full))) \
            <= 1e-13 * scale
        assert np.max(np.abs(Xr @ V - V * lam)) <= 1e-13 * scale
        assert np.max(np.abs(V @ Vinv - np.eye(n - 1))) <= 1e-13
        assert abs(cond - np.linalg.cond(V)) <= 1e-12
        assert cond == pytest.approx(cond_full, rel=1e-12)
        # the operator's factor is this decomposition
        f = op.factor()
        assert np.array_equal(f.V, V) and np.array_equal(f.Vinv, Vinv)
        assert op.eigvec_cond == cond

    def test_matrix_not_its_flip_is_refused(self):
        op = self._operator(16)
        Xr = op.reduced_angular()
        Xr[0, 1] *= 1.0 + 1e-12
        with pytest.raises(SingularFactorError, match="mirror"):
            numgrid.mirror_eig(Xr)
        op.angular[2, 0] *= 1.0 + 1e-12       # the first row's east
        with pytest.raises(SingularFactorError, match="mirror"):
            op.factor()
        assert op.factorizations == 0


class TestDeterminism:
    def test_bitwise_repeatability(self):
        # two independent assemblies and factorizations, of the flat
        # annulus and of negschw's operator (a corner ring and a centre)
        from cornermass.corner import scenario_build
        from cornermass.harmonic.fields import (build_coefficients,
                                                build_solver_grid)
        from cornermass.harmonic.solver import _assemble_operator
        data = scenario_build("hyperbolic_negschw")
        runs = []
        for _ in range(2):
            grid, op = _flat_laplace_setup()
            boundary = np.outer(grid.r, np.abs(grid.x) ** 1.5)
            u, _ = numgrid.solve_linear_elliptic(
                op, np.zeros_like(boundary), boundary)
            grid = build_solver_grid(data, 16, 16, 10.0)
            op = _assemble_operator(build_coefficients(data, grid))
            boundary = np.outer(grid.r, grid.x)
            v, _ = numgrid.solve_linear_elliptic(
                op, np.sin(boundary), boundary)
            runs.append((u.copy(), v.copy()))
        assert all(np.array_equal(a, b) for a, b in zip(*runs))

    def test_ode_repeatability(self):
        outs = [numgrid.integrate_ode(lambda t, y: np.sin(t) * y, [1.0],
                                      (0.0, 2.0), 1e-3)[1] for _ in range(2)]
        assert np.array_equal(outs[0], outs[1])


class TestGaussNodes:
    @pytest.mark.parametrize("n", [8, 24, 48, 64, 96])
    def test_matches_numpy_rule(self, n):
        import oracles
        x, w = numgrid.gauss_x_nodes(n)
        want_x, want_w = oracles.gauss_legendre_numpy(n)
        assert np.max(np.abs(x - want_x)) <= 1e-14
        assert np.max(np.abs(w - want_w)) <= 1e-14
        assert np.all(x == -x[::-1]) and np.all(w == w[::-1])

    @pytest.mark.parametrize("n", [1, 2, 3, 8, 24, 48, 64, 96])
    def test_exact_on_polynomials(self, n):
        x, w = numgrid.gauss_x_nodes(n)
        for k in range(2 * n):
            exact = 2.0 / (k + 1) if k % 2 == 0 else 0.0
            assert abs(np.dot(w, x ** k) - exact) <= 1e-14

    def test_cached_rule_cannot_be_corrupted(self):
        x, w = numgrid.gauss_x_nodes(48)
        x0, w0 = x.copy(), w.copy()
        x[:] = 0.0
        w *= 3.0
        x1, w1 = numgrid.gauss_x_nodes(48)
        assert np.array_equal(x1, x0) and np.array_equal(w1, w0)
