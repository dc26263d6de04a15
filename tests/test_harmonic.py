import dataclasses

import numpy as np
import pytest

from cornermass import masses
from cornermass.corner import scenario_build
from cornermass.geometry import RadialPatch, flat_metric_profile
from cornermass.harmonic import (SolveOptions, boundary_formula_check,
                                 integral_formula_check, mass_bound_report,
                                 mass_bound_sweep, solve_spacetime_harmonic,
                                 spacetime_hessian)
from cornermass.harmonic.fields import (AxisymField, build_coefficients,
                                        build_solver_grid)
from cornermass.numgrid import ScalarProfile

ADM_RADII = [50.0, 100.0, 200.0]


ZERO = ScalarProfile.constant(0.0)


@pytest.fixture(scope="module")
def flat_field():
    data = scenario_build("flat")
    return data, solve_spacetime_harmonic(data, n_r=32, n_theta=32, L=20.0)


class TestSolver:
    def test_flat_exact(self, flat_field):
        data, fld = flat_field
        R, X = np.meshgrid(fld.grid.r, fld.grid.x, indexing="ij")
        assert np.max(np.abs(fld.values - R * X)) <= 1e-8

    def test_schwarzschild_linear_single_step(self):
        data = scenario_build("schwarzschild", m=1.0)
        fld = solve_spacetime_harmonic(data, n_r=32, n_theta=32, L=30.0)
        # K = 0: the fixed-point map does not depend on u, so the first
        # linear solve is the answer and nothing confirms it
        assert len(fld.diagnostics["picard_changes"]) == 1
        assert fld.diagnostics["linear"]["solves"] == 1
        assert fld.diagnostics["linear"]["residual"] <= 5e-9 * 30.0
        assert fld.diagnostics["nonlinear_residual"] <= 5e-9 * 30.0

    @pytest.mark.parametrize("name, mode, chart", [
        ("flat", "center", "areal"),
        ("schwarzschild", "trapped_const", "isotropic"),
    ])
    def test_data_decides_inner_mode_and_chart(self, name, mode, chart):
        data = scenario_build(name)
        fld = solve_spacetime_harmonic(data, n_r=16, n_theta=16, L=20.0)
        assert fld.diagnostics["inner_mode"] == mode
        assert fld.diagnostics["chart"] == chart == fld.coeffs.chart

    def test_k_zero_solves_one_radial_system(self, monkeypatch):
        # K = 0: u = phi (x) x from one l = 1 radial solve; the separated
        # factor (angular eigenproblem, per-mode band LU) is never built
        from cornermass import numgrid

        def refuse(*args, **kwargs):
            raise AssertionError("the separated factor was reached")

        for name in ("mirror_eig", "band_lu"):
            monkeypatch.setattr(numgrid, name, refuse)
        monkeypatch.setattr(numgrid.EllipticOperator, "solve", refuse)
        for name in ("schwarzschild", "flat", "shi_tam_glue"):
            fld = solve_spacetime_harmonic(scenario_build(name), n_r=32,
                                           n_theta=32, L=30.0)
            diag = fld.diagnostics
            assert diag["linear"]["solves"] == 1
            assert diag["linear"]["factorizations"] == 1
            assert diag["linear"]["eigvec_cond"] == 1.0
            assert diag["linear"]["residual"] == diag["nonlinear_residual"]
            assert len(diag["picard_changes"]) == 1

    @pytest.mark.parametrize("name, n, L", [
        ("flat", 32, 20.0), ("schwarzschild", 128, 40.0),
        ("isotropic_schwarzschild", 32, 20.0), ("polynomial", 32, 20.0),
        ("shi_tam_glue", 32, 20.0), ("shi_tam_glue", 96, 20.0)])
    def test_k_zero_field_matches_separated_solve(self, name, n, L):
        # the l = 1 field against the separated solve on the same operator
        from cornermass.harmonic import solver
        from cornermass.numgrid import solve_linear_elliptic
        data = scenario_build(name)
        fld = solve_spacetime_harmonic(data, n_r=n, n_theta=n, L=L)
        assert np.max(np.abs(fld.coeffs.K)) == 0.0
        op = solver._assemble_operator(fld.coeffs)
        ref, _ = solve_linear_elliptic(op, np.zeros_like(fld.values),
                                       np.where(op.fixed, fld.values, 0.0))
        scale = float(np.max(np.abs(ref)))
        assert scale >= L / 2
        assert np.max(np.abs(fld.values - ref)) <= 1e-12 * scale

    @pytest.mark.parametrize("n_theta", [8, 17, 64, 129, 384])
    def test_x_is_the_l1_mode(self, n_theta):
        # x = cos(theta) is an eigenvector of the reduced angular matrix
        # with eigenvalue -2, and the centre row's weights annihilate it
        from cornermass.harmonic import solver
        data = scenario_build("shi_tam_glue")
        grid = build_solver_grid(data, 16, n_theta, 20.0, None)
        op = solver._assemble_operator(build_coefficients(data, grid))
        X, x = op.reduced_angular(), grid.x
        eps = np.finfo(float).eps
        assert np.max(np.abs(X @ x[1:-1] + 2.0 * x[1:-1])) <= \
            8 * eps * np.max(np.abs(X))
        _, w0, w1 = op.centre
        for w in (w0, w1):
            assert abs(w @ x) <= 4 * eps * np.sum(np.abs(w))

    def test_maximum_principle(self):
        for name in ("flat", "schwarzschild", "hyperbolic_negschw"):
            data = scenario_build(name)
            fld = solve_spacetime_harmonic(data, n_r=24, n_theta=24, L=15.0)
            assert fld.diagnostics["max_principle_violation"] <= 1e-10

    def test_harmonic_residual_after_convergence(self):
        # the solver's own (conservation-form) residual meets the
        # tolerance; an independent collocation evaluation of
        # Delta u + K |grad u|_delta converges to zero under refinement
        data = scenario_build("hyperbolic_negschw")
        g_norms = []
        for n in (24, 48):
            fld = solve_spacetime_harmonic(data, n_r=n, n_theta=n, L=15.0)
            assert fld.diagnostics["linear"]["residual"] <= 5e-10 * 15.0
            G = fld.laplacian() + fld.coeffs.K[:, None] * fld.grad_norm()
            i_c = fld.coeffs.corner_indices[0]
            interior = np.delete(G[1:-1, 1:-1], i_c - 1, axis=0)
            g_norms.append(float(np.max(np.abs(interior))))
        assert g_norms[1] <= 0.5 * g_norms[0]

    def test_one_factorization_per_solve(self, monkeypatch):
        from cornermass import numgrid
        from cornermass.harmonic import solver
        calls = {"band_lu": 0, "solve": 0}
        band_lu, solve = numgrid.band_lu, solver.solve_linear_elliptic

        def counting_band_lu(*args, **kwargs):
            calls["band_lu"] += 1
            return band_lu(*args, **kwargs)

        def counting_solve(*args, **kwargs):
            calls["solve"] += 1
            return solve(*args, **kwargs)

        monkeypatch.setattr(numgrid, "band_lu", counting_band_lu)
        monkeypatch.setattr(solver, "solve_linear_elliptic", counting_solve)
        data = scenario_build("hyperbolic_negschw")
        fld = solve_spacetime_harmonic(data, n_r=16, n_theta=16, L=10.0)
        steps = len(fld.diagnostics["picard_changes"])
        linear = fld.diagnostics["linear"]
        assert steps > 2
        assert calls == {"band_lu": 1, "solve": steps}
        assert linear["factorizations"] == 1
        assert linear["solves"] == steps
        assert linear["factor_floats"] > 0

    def test_one_apply_per_picard_step(self, monkeypatch):
        # A is linear and u_{k+1} mixes earlier G(u_k), so A u_{k+1} is
        # carried, not applied: A runs on the Dirichlet data (in the first
        # solve) and once per step on G(u_k), and the nonlinear residual
        # reads the last one
        import oracles
        from cornermass import numgrid
        from cornermass.harmonic import solver
        applies, steps_seen = [], []
        apply = numgrid.EllipticOperator.apply
        solve = solver.solve_linear_elliptic

        def counting_apply(self, u):
            applies.append(1)
            return apply(self, u)

        def recording_solve(op, source, boundary, start=None, applied=None):
            steps_seen.append((op, start.copy(), applied))
            return solve(op, source, boundary, start=start, applied=applied)

        monkeypatch.setattr(numgrid.EllipticOperator, "apply", counting_apply)
        monkeypatch.setattr(solver, "solve_linear_elliptic", recording_solve)
        data = scenario_build("hyperbolic_negschw")
        fld = solve_spacetime_harmonic(data, n_r=32, n_theta=32, L=30.0)
        steps = len(fld.diagnostics["picard_changes"])
        assert steps > 2
        assert len(applies) == steps + 1
        assert len(steps_seen) == steps
        (op, _, first), *later = steps_seen
        assert first is None
        row_sum = np.max(np.sum(np.abs(oracles.dense_operator(op)), axis=1))
        for _, start, applied in later:
            bound = 64.0 * np.finfo(float).eps * row_sum \
                * np.max(np.abs(start))
            assert np.max(np.abs(applied - apply(op, start))) <= bound

    def test_picard_contraction(self):
        # Anderson-mixed Picard need not shrink the fixed-point residual
        # at every step, but after a short transient each one is below
        # the one two steps earlier
        for n in (24, 32):
            data = scenario_build("hyperbolic_negschw")
            fld = solve_spacetime_harmonic(data, n_r=n, n_theta=n, L=15.0)
            changes = fld.diagnostics["picard_changes"]
            assert all(changes[k] < changes[k - 2]
                       for k in range(3, len(changes)))

    @pytest.mark.parametrize("L, resolutions", [
        (30.0, (32, 48)), (15.0, (24, 48))])
    def test_nonlinear_residual(self, L, resolutions):
        # the returned field solves the discrete nonlinear equation:
        # max|A u - b(u)| over the source rows (4e-8 to 1.7e-7 here)
        data = scenario_build("hyperbolic_negschw")
        for n in resolutions:
            fld = solve_spacetime_harmonic(data, n_r=n, n_theta=n, L=L)
            assert fld.diagnostics["nonlinear_residual"] <= 5e-6

    def test_picard_steps_finest_grid(self):
        # the finest grid of the negschw massbound sweep (32/48, L = 30);
        # the damped loop took 31 steps there
        data = scenario_build("hyperbolic_negschw")
        fld = solve_spacetime_harmonic(data, n_r=48, n_theta=48, L=30.0)
        assert len(fld.diagnostics["picard_changes"]) <= 16

    def test_kappa_shell_sign(self):
        # K = const on a thin shell shifts u by a term whose sign matches
        # the sign of K (the inverse Laplacian of -K|grad u| is positive
        # for positive K)
        for kappa in (+0.4, -0.4):
            b = ScalarProfile(
                lambda r, k=kappa: np.where(
                    (np.asarray(r) >= 1.5) & (np.asarray(r) <= 2.0),
                    k / 3.0, 0.0))
            patch = RadialPatch(flat_metric_profile(), b, b, 0.0, 260.0)
            data = scenario_build("custom", patches=[patch],
                                  label="flat_shell")
            fld = solve_spacetime_harmonic(data, n_r=32, n_theta=32, L=12.0)
            R, X = np.meshgrid(fld.grid.r, fld.grid.x, indexing="ij")
            w = fld.values - R * X
            sel = (R < 6.0) & (np.abs(X) < 0.95)
            assert np.sign(np.mean(w[sel])) == np.sign(kappa)
            assert np.max(np.abs(w)) > 1e-3

    def test_trapped_boundary_sign_report(self):
        data = scenario_build("schwarzschild", m=1.0)
        fld = solve_spacetime_harmonic(data, n_r=32, n_theta=32, L=30.0)
        diag = fld.diagnostics
        assert diag["inner_mode"] == "trapped_const"
        assert diag["inner_theta_plus"] <= 0.0
        assert "min" in diag["inner_normal_derivative"]

    def test_direction_flip(self):
        data = scenario_build("schwarzschild", m=1.0)
        up = solve_spacetime_harmonic(data, n_r=24, n_theta=24, L=20.0)
        dn = solve_spacetime_harmonic(
            data, n_r=24, n_theta=24, L=20.0,
            options=SolveOptions(direction=-1))
        # K = 0 and constant inner data 0: the problem is odd-symmetric
        assert np.max(np.abs(up.values + dn.values)) <= 1e-7

    def test_picard_stagnation_reports_history(self, monkeypatch):
        from cornermass.errors import PicardStagnationError
        from cornermass.harmonic import solver
        monkeypatch.setattr(solver, "MAX_PICARD", 3)
        data = scenario_build("hyperbolic_negschw")
        with pytest.raises(PicardStagnationError) as exc:
            solve_spacetime_harmonic(data, n_r=24, n_theta=24, L=15.0)
        assert len(exc.value.history) == 3


    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflowing_picard_state_stops_with_history(self):
        from cornermass.errors import PicardStagnationError
        data = scenario_build("hyperbolic_negschw")
        with pytest.raises(PicardStagnationError) as exc:
            solve_spacetime_harmonic(data, n_r=16, n_theta=16, L=30.0,
                                     options=SolveOptions(delta=1e160))
        assert len(exc.value.history) == 1
        assert not np.isfinite(exc.value.history[-1])


class TestHessian:
    def test_flat_z_zero(self, flat_field):
        data, fld = flat_field
        hes = spacetime_hessian(fld)
        assert np.max(hes.norm_sq) <= 1e-12

    def test_construction_identity(self):
        data = scenario_build("hyperbolic_negschw")
        fld = solve_spacetime_harmonic(data, n_r=24, n_theta=24, L=10.0)
        hes = spacetime_hessian(fld)
        gn = fld.grad_norm_plain()
        a = fld.coeffs.a[:, None]
        b = fld.coeffs.b[:, None]
        for comp, kk in (("rr", a), ("tt", b), ("pp", b)):
            diff = hes.full[comp] - hes.pure[comp] - gn * kk
            assert np.max(np.abs(diff)) <= 1e-12
        assert np.max(np.abs(hes.full["rt"] - hes.pure["rt"])) == 0.0

    def test_flat_k_cg_norm(self):
        c_amp = 0.7
        k = ScalarProfile.constant(c_amp)
        patch = RadialPatch(flat_metric_profile(), k, k, 0.0, 260.0)
        data = scenario_build("custom", patches=[patch], label="flat_kcg")
        grid = build_solver_grid(data, 24, 24, 10.0)
        coeffs = build_coefficients(data, grid)
        fld = AxisymField.from_function(coeffs, lambda R, X: R * X)
        hes = spacetime_hessian(fld)
        # |grad u| = 1 so |sHu|^2 = c^2 |g|^2 = 3 c^2 everywhere
        assert np.max(np.abs(hes.norm_sq - 3 * c_amp**2)) <= 1e-10

    def test_fd_quadratic_exact(self):
        data = scenario_build("flat")
        grid = build_solver_grid(data, 24, 24, 10.0)
        coeffs = build_coefficients(data, grid)
        fld = AxisymField.from_function(coeffs, lambda R, X: R * R * X)
        d = fld._derivs()
        R, X = np.meshgrid(grid.r, grid.x, indexing="ij")
        assert np.max(np.abs(d["u_rr"] - 2 * X)) <= 1e-10
        assert np.max(np.abs(d["u_rx"] - 2 * R)) <= 1e-10
        assert np.max(np.abs(d["u_xx"])) <= 1e-9

    def test_fd_vs_analytic_order(self):
        data = scenario_build("flat")
        errs = []
        for n in (32, 64, 128):
            grid = build_solver_grid(data, n, n, 10.0)
            coeffs = build_coefficients(data, grid)
            fld = AxisymField.from_function(
                coeffs, lambda R, X: R**4 * X**3 / 100.0)
            d = fld._derivs()
            R, X = np.meshgrid(grid.r, grid.x, indexing="ij")
            interior = (slice(1, -1), slice(1, -1))
            err = max(
                np.max(np.abs(d["u_rr"] - 12 * R**2 * X**3 / 100)[interior]),
                np.max(np.abs(d["u_xx"] - 6 * R**4 * X / 100)[interior]),
                np.max(np.abs(d["u_rx"] - 12 * R**3 * X**2 / 100)[interior]))
            errs.append(err)
        order1 = np.log2(errs[0] / errs[1])
        order2 = np.log2(errs[1] / errs[2])
        assert order1 >= 1.5 and order2 >= 1.5

    def test_mixed_partials_commute(self):
        data = scenario_build("flat")
        grid = build_solver_grid(data, 16, 16, 10.0)
        coeffs = build_coefficients(data, grid)
        rng = np.random.RandomState(0)
        vals = rng.standard_normal((grid.n_r, grid.n_theta))
        st = coeffs.stencils
        a = st.d_r(st.d_x(vals, 1), 1)
        b = st.d_x(st.d_r(vals, 1), 1)
        assert np.max(np.abs(a - b)) <= 1e-9 * np.max(np.abs(a))


class TestCsvExport:
    def test_bytes_match_per_node_writer(self, tmp_path):
        import oracles
        data = scenario_build("hyperbolic_negschw")
        fld = solve_spacetime_harmonic(data, n_r=48, n_theta=48, L=30.0)
        fld.to_csv(tmp_path / "field.csv")
        oracles.csv_per_node(fld, tmp_path / "oracle.csv")
        got = (tmp_path / "field.csv").read_bytes()
        assert got == (tmp_path / "oracle.csv").read_bytes()
        assert got.count(b"\r\n") == 1 + 49 * 49


class TestGradNormTables:
    @pytest.mark.parametrize("side", ["minus", "plus"])
    def test_builds_only_u_r_and_u_x(self, side):
        data = scenario_build("hyperbolic_negschw")
        grid = build_solver_grid(data, 48, 48, 30.0)
        coeffs = build_coefficients(data, grid)
        vals = np.random.default_rng(3).standard_normal(
            (grid.n_r, grid.n_theta))
        lean = AxisymField(coeffs, vals, delta=0.01)
        got = lean.grad_norm(side)
        want_keys = {"u_r", "u_x"} | ({("plus", "u_r")} if side == "plus"
                                      else set())
        assert set(lean._cache) == want_keys
        full = AxisymField(coeffs, vals, delta=0.01)
        full._derivs()
        assert np.all(got == full.grad_norm(side))
        st = coeffs.stencils
        assert np.all(lean._table("u_r", side) == st.d_r(vals, 1, side))
        assert np.all(lean._table("u_x") == st.d_x(vals, 1))


class TestStencilTables:
    """The prebuilt per-grid tables against the per-node reference loops."""

    @pytest.mark.parametrize("scenario, n, L", [
        ("hyperbolic_negschw", 48, 30.0), ("flat", 48, 20.0)])
    def test_bit_identical_to_per_node_loops(self, scenario, n, L):
        import oracles
        data = scenario_build(scenario)
        grid = build_solver_grid(data, n, n, L)
        coeffs = build_coefficients(data, grid)
        if scenario == "hyperbolic_negschw":
            assert coeffs.corner_indices == [26]
        rng = np.random.default_rng(7)
        vals = rng.standard_normal((grid.n_r, grid.n_theta))
        st = coeffs.stencils
        for order in (1, 2):
            plus = {}
            want = oracles.d_r_per_node(vals, grid, coeffs.segments, order,
                                        corner_plus_rows=plus)
            assert sorted(plus) == coeffs.corner_indices
            assert np.all(st.d_r(vals, order) == want)
            got_plus = st.d_r(vals, order, "plus")
            for i, row in plus.items():
                want[i] = row
            assert np.all(got_plus == want)
            assert np.all(st.d_x(vals, order)
                          == oracles.d_x_per_node(vals, grid, order))
        # the field derivatives, u_rx and the plus-side rows included
        d = AxisymField(coeffs, vals)._derivs()
        u_x = oracles.d_x_per_node(vals, grid, 1)
        plus_rx = {}
        u_rx = oracles.d_r_per_node(u_x, grid, coeffs.segments, 1,
                                    corner_plus_rows=plus_rx)
        assert np.all(d["u_x"] == u_x) and np.all(d["u_rx"] == u_rx)
        for i, row in plus_rx.items():
            u_rx[i] = row
        assert np.all(d["plus"]["u_rx"] == u_rx)

    def test_no_stencil_weights_per_picard_step(self, monkeypatch):
        from cornermass.harmonic import fields, solver
        calls = []

        def counting(module, name):
            fn = getattr(module, name)

            def wrapper(*args):
                calls.append(name)
                return fn(*args)
            monkeypatch.setattr(module, name, wrapper)

        for module in (fields, solver):
            for name in ("stencil_d1", "stencil_d2"):
                counting(module, name)
        data = scenario_build("hyperbolic_negschw")
        grid = build_solver_grid(data, 16, 16, 10.0)
        solver._assemble_operator(build_coefficients(data, grid))
        setup = len(calls)
        assert setup > 0
        per_solve = []
        for tol in (1e-3, 1e-9):
            del calls[:]
            fld = solve_spacetime_harmonic(
                data, n_r=16, n_theta=16, L=10.0,
                options=SolveOptions(picard_tol=tol))
            per_solve.append((len(fld.diagnostics["picard_changes"]),
                              len(calls)))
        (steps_a, calls_a), (steps_b, calls_b) = per_solve
        assert steps_a < steps_b
        assert calls_a == calls_b == setup


SIDE_CASES = {
    # (scenario parameters, resolution, truncation)
    "hyperbolic_negschw": ({}, 48, 30.0),
    "schwarzschild": ({"m": 1.0}, 32, 40.0),
    # f jumps at the corner: 1 inside, 0.4225 outside
    "shi_tam_glue": ({"omega_nn": 0.7}, 32, 30.0),
}


@pytest.fixture(scope="module", params=sorted(SIDE_CASES))
def side_case(request):
    params, n, L = SIDE_CASES[request.param]
    data = scenario_build(request.param, **params)
    return data, solve_spacetime_harmonic(data, n_r=n, n_theta=n, L=L)


class TestSideArrays:
    """One whole array per side of a corner, against the corner-by-corner
    patching it replaced (``oracles``)."""

    def test_coefficients_differ_only_on_corner_rings(self, side_case):
        import oracles
        import dataclasses
        from cornermass.harmonic.fields import SideCoefficients, _areal_vals
        data, fld = side_case
        c = fld.coeffs
        assert len(c.corner_indices) == (0 if data.chart else 1)
        off = np.ones(fld.grid.n_r, dtype=bool)
        off[c.corner_indices] = False
        s = fld.grid.r
        for name in (f.name for f in dataclasses.fields(SideCoefficients)):
            minus, plus = getattr(c, name), getattr(c.side("plus"), name)
            assert c.side("minus") is c
            assert np.all(plus[off] == minus[off])
            for i in c.corner_indices:
                assert plus[i] == oracles.plus_patch_values(c, i)[name]
                want = _areal_vals(data, s[i:i + 1],
                                   data.patch_at(s[i], "minus"))[name][0]
                assert minus[i] == want
        if data.name == "shi_tam_glue":
            i = c.corner_indices[0]
            assert c.lam[i] == 1.0
            assert c.plus.lam[i] == pytest.approx(1.0 / 0.4225, rel=1e-14)

    def test_plus_norm_sq_matches_corner_rows(self, side_case):
        import oracles
        _, fld = side_case
        c = fld.coeffs
        hes = spacetime_hessian(fld)
        off = np.ones(fld.grid.n_r, dtype=bool)
        off[c.corner_indices] = False
        assert np.all(hes.plus_norm_sq[off] == hes.norm_sq[off])
        rows = oracles.plus_hessian_rows(fld)
        assert sorted(rows) == c.corner_indices
        for i, row in rows.items():
            assert np.all(hes.plus_norm_sq[i] == row)
            assert np.any(row != hes.norm_sq[i])

    def test_bulk_matches_patched_bulk_at_every_delta(self, side_case):
        import oracles
        from cornermass.harmonic import massbound
        data, fld = side_case
        adm = masses.adm_energy_momentum(data, ADM_RADII)
        rep = mass_bound_report(fld, adm)
        hes = spacetime_hessian(fld)
        mask = massbound.critical_mask(fld, hes)
        parts = massbound._bulk_parts(fld, hes, mask,
                                      massbound._side_volumes(fld))
        for k, (d, slack) in enumerate(rep.delta_sequence):
            want = oracles.bulk_integral_patched(fld, hes, d, mask)
            assert massbound._bulk_integral(parts, d) == want
            assert slack == rep.lhs - want - rep.corner
            if k == 0:
                assert rep.bulk == want


class TestMassBound:
    def test_flat_slack_zero(self, flat_field):
        data, fld = flat_field
        adm = masses.adm_energy_momentum(data, ADM_RADII)
        rep = mass_bound_report(fld, adm)
        assert abs(rep.slack) <= 1e-8
        assert rep.corner == 0.0
        assert rep.verdict

    def test_schwarzschild_positive_slack(self):
        data = scenario_build("schwarzschild", m=1.0)
        adm = masses.adm_energy_momentum(data, ADM_RADII)
        rep, _ = mass_bound_sweep(data, adm, resolutions=(32, 64), L=40.0)
        assert rep.slack > 0
        assert rep.verdict
        assert not rep.corner_hypothesis_violated

    def test_sweep_extrapolates_at_its_grid_ratio(self):
        # 16/24/32: the last pair has ratio 4/3, the one before 3/2
        data = scenario_build("hyperbolic_negschw")
        adm = masses.adm_energy_momentum(data, ADM_RADII)
        rep, _ = mass_bound_sweep(data, adm, resolutions=(16, 24, 32),
                                  L=10.0)
        conv = rep.grid_convergence
        coarse, fine = [s for _, s in
                        rep.diagnostics["slacks_by_resolution"][1:]]
        assert conv.ratio == 32 / 24
        assert conv.extrapolated == pytest.approx(
            (conv.ratio * fine - coarse) / (conv.ratio - 1.0), rel=1e-12)
        assert np.isnan(conv.observed_order)

    def test_counterexample_books(self):
        data = scenario_build("hyperbolic_negschw")
        adm = masses.adm_energy_momentum(data, ADM_RADII)
        fld = solve_spacetime_harmonic(data, n_r=48, n_theta=48, L=30.0)
        rep = mass_bound_report(fld, adm)
        assert rep.lhs == pytest.approx(16 * np.pi * (-0.5), rel=1e-4)
        assert rep.corner < 0
        assert rep.bulk >= 0
        assert rep.corner_hypothesis_violated
        assert rep.corner_jumps[0] == pytest.approx(-2.0, abs=1e-10)

    def test_report_builds_hessian_once(self, monkeypatch):
        from cornermass.harmonic import massbound
        calls = []

        def counting(*args, **kwargs):
            calls.append(1)
            return spacetime_hessian(*args, **kwargs)

        monkeypatch.setattr(massbound, "spacetime_hessian", counting)
        data = scenario_build("hyperbolic_negschw")
        adm = masses.adm_energy_momentum(data, ADM_RADII)
        fld = solve_spacetime_harmonic(data, n_r=16, n_theta=16, L=10.0)
        mass_bound_report(fld, adm)
        assert len(calls) == 1

    def test_volume_weights_corner_half_cells_by_side(self, monkeypatch):
        # with every node masked, the excluded volume is the total: the
        # corner ring's upper half-cell has the plus side's density (1.538
        # against 1.0 below it), as in the bulk integral
        from cornermass.harmonic import massbound
        monkeypatch.setattr(massbound, "critical_mask", lambda fld, hes:
                            np.ones(fld.values.shape, dtype=bool))
        data = scenario_build("shi_tam_glue", omega_nn=0.7)
        adm = masses.adm_energy_momentum(data, ADM_RADII)
        fld = solve_spacetime_harmonic(data, n_r=32, n_theta=32, L=30.0)
        rep = mass_bound_report(fld, adm)
        assert rep.diagnostics["critical_excluded_volume"] == pytest.approx(
            115733.909, abs=1e-3)
        assert rep.diagnostics["critical_excluded_fraction"] == 1.0

    def test_counterexample_books_balance(self):
        # lhs - bulk - corner settles to zero within the tracked
        # outer-truncation scale: the deficit is carried by the corner
        data = scenario_build("hyperbolic_negschw")
        adm = masses.adm_energy_momentum(data, ADM_RADII)
        rep, _ = mass_bound_sweep(data, adm, resolutions=(48, 96), L=30.0)
        assert abs(rep.slack) <= rep.outer_truncation_scale \
            + (rep.epsilon_grid or 0.0) + 1e-3
        assert rep.verdict

    def test_negschw_k_sign_flip_same_books(self):
        adm = masses.adm_energy_momentum(
            scenario_build("hyperbolic_negschw"), ADM_RADII)
        corners = []
        for sign in (1, -1):
            data = scenario_build("hyperbolic_negschw", k_sign=sign)
            fld = solve_spacetime_harmonic(data, n_r=32, n_theta=32, L=15.0)
            rep = mass_bound_report(fld, adm)
            corners.append(rep.corner)
        assert corners[0] < 0 and corners[1] < 0


class TestBoundaryFormula:
    def test_flat_z_closures(self, flat_field):
        data, fld = flat_field
        closures = {
            "u": lambda r, x: r * x,
            "u_r": lambda r, x: np.asarray(x, float),
            "u_x": lambda r, x: np.full_like(np.asarray(x, float), r),
            "u_rr": lambda r, x: np.zeros_like(np.asarray(x, float)),
            "u_rx": lambda r, x: np.ones_like(np.asarray(x, float)),
            "u_xx": lambda r, x: np.zeros_like(np.asarray(x, float)),
        }
        inj = AxisymField(fld.coeffs, fld.values, closures=closures)
        rep = boundary_formula_check(inj, 1.0)
        assert abs(rep.lhs - rep.rhs) <= 1e-6
        assert abs(rep.residual) <= 1e-10
        assert rep.terms["minus_H_grad"] == pytest.approx(-8 * np.pi,
                                                          abs=1e-9)
        assert rep.terms["kappa_coarea"] == pytest.approx(4 * np.pi,
                                                          abs=1e-9)

    def test_radial_injection_reduces(self):
        # u = u(r): the tangential branch vanishes and the identity
        # reduces to the constant-trace form
        data = scenario_build("schwarzschild", m=1.0)
        # the chart's grid, sampled in the areal chart
        areal = dataclasses.replace(data, chart=None)
        grid = build_solver_grid(data, 32, 32, 30.0, r_inner=3.0)
        coeffs = build_coefficients(areal, grid)
        zeros = lambda r, x: np.zeros_like(np.asarray(x, float))
        closures = {
            "u": lambda r, x: 1.0 / r + 0.0 * np.asarray(x, float),
            "u_r": lambda r, x: np.full_like(np.asarray(x, float),
                                             -1.0 / r**2),
            "u_rr": lambda r, x: np.full_like(np.asarray(x, float),
                                              2.0 / r**3),
            "u_x": zeros, "u_rx": zeros, "u_xx": zeros,
        }
        fld = AxisymField.from_function(coeffs, lambda R, X: 1.0 / R,
                                        closures=closures)
        rep = boundary_formula_check(fld, 5.0)
        for name in ("kappa_coarea", "grad_eta_nu_u", "turning",
                     "laplacian_eta"):
            assert abs(rep.terms[name]) <= 1e-10
        assert abs(rep.residual) <= 1e-9

    def test_corner_sphere_side_selection(self):
        # each side of the counterexample corner satisfies its own
        # identity with the shared field; one-sided stencils at the kink
        # are first order, so the residual halves under refinement
        data = scenario_build("hyperbolic_negschw")
        res = {}
        for n in (48, 96):
            fld = solve_spacetime_harmonic(data, n_r=n, n_theta=n, L=15.0)
            for side in ("minus", "plus"):
                rep = boundary_formula_check(fld, 1.0, side=side)
                res[(side, n)] = abs(rep.residual)
                assert abs(rep.residual) <= 0.05 * abs(rep.terms[
                    "minus_H_grad"]), (side, n)
        assert res[("minus", 96)] <= 0.6 * res[("minus", 48)]

    def test_pole_exclusion_flag_on_coarse_grid(self):
        # at M = 8 the two excluded pole rows carry > 1% of the measure
        data = scenario_build("schwarzschild", m=1.0)
        areal = dataclasses.replace(data, chart=None)
        grid = build_solver_grid(data, 16, 8, 30.0, r_inner=3.0)
        coeffs = build_coefficients(areal, grid)
        fld = AxisymField.from_function(coeffs, lambda R, X: R * X)
        rc = grid.r[len(grid.r) // 2]
        rep = boundary_formula_check(fld, rc)
        assert rep.excluded_measure > 0.01
        assert rep.excluded_flagged

    def test_random_injection_theta_order(self):
        rng = np.random.RandomState(7)
        coef = rng.uniform(-1, 1, 5)
        alpha, beta = rng.uniform(0.5, 1.5, 2)

        def u_fn(R, X):
            return (alpha * R + beta) * sum(
                c * X**k for k, c in enumerate(coef))

        data = scenario_build("schwarzschild", m=1.0)
        areal = dataclasses.replace(data, chart=None)
        residuals = []
        for M in (32, 64, 128):
            grid = build_solver_grid(data, M, M, 40.0, r_inner=3.0)
            coeffs = build_coefficients(areal, grid)
            fld = AxisymField.from_function(coeffs, u_fn)
            rc = grid.r[np.argmin(np.abs(grid.r - 5.0))]
            rep = boundary_formula_check(fld, rc)
            assert not rep.excluded_flagged
            residuals.append(abs(rep.residual))
        orders = [np.log2(residuals[i] / residuals[i + 1]) for i in range(2)]
        assert min(orders) >= 1.7


class TestIntegralFormula:
    def test_flat_ball_both_sides_zero(self, flat_field):
        data, fld = flat_field
        r_hi = fld.grid.r[np.argmin(np.abs(fld.grid.r - 10.0))]
        rep = integral_formula_check(fld, (None, r_hi))
        assert abs(rep.lhs) <= 1e-10
        assert abs(rep.rhs) <= 1e-9
        assert rep.inequality_ok()

    def test_schwarzschild_annulus_refinement(self):
        data = scenario_build("schwarzschild", m=1.0)
        # the chart's grid, solved in the areal chart from r = 3
        areal = dataclasses.replace(data, chart=None)
        residuals = []
        for n in (48, 96):
            grid = build_solver_grid(data, n, n, 40.0, r_inner=3.0)
            fld = solve_spacetime_harmonic(areal, grid=grid)
            ra = grid.r[np.argmin(np.abs(grid.r - 4.0))]
            rb = grid.r[np.argmin(np.abs(grid.r - 8.0))]
            rep = integral_formula_check(fld, (ra, rb))
            residuals.append(abs(rep.residual))
            assert rep.lhs + rep.defect <= rep.rhs + 2.0 * abs(rep.residual) \
                + 1e-8
        assert residuals[1] <= 0.5 * residuals[0]

    def test_flat_k_injection_shifts_consistently(self):
        c_amp = 0.3
        k = ScalarProfile.constant(c_amp)
        patch = RadialPatch(flat_metric_profile(), k, k, 0.0, 260.0)
        data = scenario_build("custom", patches=[patch], label="flat_kcg")
        grid = build_solver_grid(data, 48, 48, 20.0)
        coeffs = build_coefficients(data, grid)
        fld = AxisymField.from_function(coeffs, lambda R, X: R * X)
        r_hi = grid.r[np.argmin(np.abs(grid.r - 6.0))]
        rep = integral_formula_check(fld, (None, r_hi))
        vol = 4.0 / 3.0 * np.pi * r_hi**3
        assert rep.lhs == pytest.approx(4.5 * c_amp**2 * vol, rel=1e-3)
        assert rep.defect == pytest.approx(-rep.lhs, rel=1e-9)
        assert abs(rep.residual) <= 1e-9

    def test_region_must_avoid_corners(self):
        from cornermass.errors import DomainError
        data = scenario_build("hyperbolic_negschw")
        fld = solve_spacetime_harmonic(data, n_r=24, n_theta=24, L=10.0)
        lo = fld.grid.r[2]
        hi = fld.grid.r[-3]
        with pytest.raises(DomainError):
            integral_formula_check(fld, (lo, hi))


class TestFieldExport:
    def test_csv(self, flat_field, tmp_path):
        data, fld = flat_field
        path = tmp_path / "field.csv"
        fld.to_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "r,theta,u,grad_norm"
        assert len(lines) == 1 + fld.grid.n_r * fld.grid.n_theta
