"""Brute-force Cartesian oracles for the closed-form curvature quantities.

Everything here reconstructs tensors from the rotationally symmetric
profiles on a 3-D Cartesian stencil and differentiates numerically:
slow, independent of the chart formulas under test, accurate to the
finite-difference step (~1e-6 relative for smooth profiles).

The per-node grid derivatives at the end are the reference for the
prebuilt stencil tables of ``cornermass.harmonic.fields``: they recompute
every 3-point weight at every node and sum in the same order, so the
tables must match them exactly.

``shi_tam_rk4`` integrates the scalar-flat extension ODE by RK4, the
oracle of the closed-form profile of ``cornermass.extension``.

``csv_per_node`` is the node-by-node writer that
``AxisymField.to_csv`` must reproduce byte for byte.

``dec_margins_per_point`` is the radius-by-radius constraint loop that
``geometry.dec_check`` evaluates on arrays, and ``gauss_legendre_numpy``
is numpy's own Gauss-Legendre rule, the oracle of
``numgrid.gauss_x_nodes``.

``dense_elliptic_solve`` is the oracle of the separated direct solve of
``cornermass.numgrid``: it builds the operator's dense matrix column by
column from the matrix-free ``apply`` and solves it by Gaussian
elimination with partial pivoting, and ``full_eig`` is the eigenproblem of
the whole reduced angular matrix that ``numgrid.mirror_eig`` splits in
two.  ``band_lu_indexed`` and ``band_solve_indexed`` are the banded
factor and solve as they indexed the 2-D arrays once per row, which the
loops over row views of ``numgrid`` must match bit for bit.

``envelope_json`` is the two-pass writer of the report envelope, a
conversion to plain JSON values followed by ``json.dumps``, that
``cli.emit`` must reproduce byte for byte.

``plus_hessian_rows`` and ``bulk_integral_patched`` are the corner-by-
corner code that the whole plus-side arrays of
``cornermass.harmonic.fields`` replaced: the plus side of each corner
ring is read from the patch outside it, the Hessian one ring at a time,
and the bulk integral re-forms every term at every delta from minus-side
copies with their corner rows patched.
"""

import csv
import dataclasses
import json
import math

import numpy as np

from cornermass.geometry import scalar_curvature
from cornermass.harmonic.fields import _areal_vals
from cornermass.harmonic.massbound import _volume_weights
from cornermass.numgrid import (_PIVOT_TOL, integrate_ode, stencil_d1,
                                stencil_d2)


def metric_at(patch, x):
    """g_ij = delta_ij + (1/f - 1) x_i x_j / r^2 at a Cartesian point."""
    r = np.linalg.norm(x)
    f = float(patch.fv(r))
    phi = 1.0 / f - 1.0
    return np.eye(3) + phi * np.outer(x, x) / (r * r)


def k_tensor_at(patch, x):
    """k_ij = (a/f) x_i x_j/r^2 + b (delta_ij - x_i x_j/r^2)."""
    r = np.linalg.norm(x)
    f = float(patch.fv(r))
    a = float(patch.av(r))
    b = float(patch.bv(r))
    nn = np.outer(x, x) / (r * r)
    return (a / f) * nn + b * (np.eye(3) - nn)


def _d_metric(patch, x, h):
    """dg[k][i,j] = d_k g_ij by central differences."""
    out = np.empty((3, 3, 3))
    for k in range(3):
        e = np.zeros(3)
        e[k] = h
        out[k] = (metric_at(patch, x + e) - metric_at(patch, x - e)) / (2 * h)
    return out


def _dd_metric(patch, x, h):
    """ddg[k][l][i,j] = d_k d_l g_ij by central differences."""
    out = np.empty((3, 3, 3, 3))
    for k in range(3):
        ek = np.zeros(3)
        ek[k] = h
        for l in range(3):
            el = np.zeros(3)
            el[l] = h
            gpp = metric_at(patch, x + ek + el)
            gpm = metric_at(patch, x + ek - el)
            gmp = metric_at(patch, x - ek + el)
            gmm = metric_at(patch, x - ek - el)
            out[k, l] = (gpp - gpm - gmp + gmm) / (4 * h * h)
    return out


def christoffel(patch, x, h):
    g = metric_at(patch, x)
    ginv = np.linalg.inv(g)
    dg = _d_metric(patch, x, h)
    gam = np.empty((3, 3, 3))
    for a in range(3):
        for i in range(3):
            for j in range(3):
                gam[a, i, j] = 0.5 * sum(
                    ginv[a, m] * (dg[i][j, m] + dg[j][i, m] - dg[m][i, j])
                    for m in range(3))
    return gam


def scalar_curvature_cartesian(patch, x, h=None):
    """Ricci scalar from second metric derivatives on a Cartesian stencil."""
    x = np.asarray(x, dtype=float)
    r = np.linalg.norm(x)
    if h is None:
        h = 1e-3 * max(r, 1.0)
    g = metric_at(patch, x)
    ginv = np.linalg.inv(g)
    dg = _d_metric(patch, x, h)
    ddg = _dd_metric(patch, x, h)
    gam = christoffel(patch, x, h)
    # dGamma[k][a,i,j] = d_k Gamma^a_ij, via differentiated metric data
    dginv = np.empty((3, 3, 3))
    for k in range(3):
        dginv[k] = -ginv @ dg[k] @ ginv
    dgam = np.empty((3, 3, 3, 3))
    for k in range(3):
        for a in range(3):
            for i in range(3):
                for j in range(3):
                    dgam[k, a, i, j] = 0.5 * sum(
                        dginv[k][a, m] * (dg[i][j, m] + dg[j][i, m]
                                          - dg[m][i, j])
                        + ginv[a, m] * (ddg[i, k][j, m] + ddg[j, k][i, m]
                                        - ddg[m, k][i, j])
                        for m in range(3))
    ricci = np.empty((3, 3))
    for i in range(3):
        for j in range(3):
            ricci[i, j] = sum(dgam[a, a, i, j] - dgam[j, a, i, a]
                              for a in range(3))
            ricci[i, j] += sum(
                gam[a, a, b] * gam[b, i, j] - gam[a, j, b] * gam[b, i, a]
                for a in range(3) for b in range(3))
    return float(np.tensordot(ginv, ricci))


def momentum_density_cartesian(patch, x, h=None):
    """J_i = (div pi)_i by central differences of pi with Christoffels."""
    x = np.asarray(x, dtype=float)
    r = np.linalg.norm(x)
    if h is None:
        h = 1e-4 * max(r, 1.0)

    def pi_at(y):
        g = metric_at(patch, y)
        k = k_tensor_at(patch, y)
        trk = np.tensordot(np.linalg.inv(g), k)
        return k - trk * g

    g = metric_at(patch, x)
    ginv = np.linalg.inv(g)
    gam = christoffel(patch, x, h)
    pi0 = pi_at(x)
    dpi = np.empty((3, 3, 3))
    for c in range(3):
        e = np.zeros(3)
        e[c] = h
        dpi[c] = (pi_at(x + e) - pi_at(x - e)) / (2 * h)
    J = np.zeros(3)
    for j in range(3):
        for i in range(3):
            for c in range(3):
                cov = dpi[c][i, j]
                cov -= sum(gam[m, c, i] * pi0[m, j] for m in range(3))
                cov -= sum(gam[m, c, j] * pi0[i, m] for m in range(3))
                J[j] += ginv[i, c] * cov
    return J


def flux_integrand_cartesian(patch, x, h=None):
    """(g_ij,i - g_ii,j) nu^j at a point, by central differences."""
    x = np.asarray(x, dtype=float)
    r = np.linalg.norm(x)
    if h is None:
        h = 1e-4 * max(r, 1.0)
    dg = _d_metric(patch, x, h)
    nu = x / r
    total = 0.0
    for j in range(3):
        total += sum(dg[i][i, j] - dg[j][i, i] for i in range(3)) * nu[j]
    return total


def d_r_per_node(vals, grid, segments, order, corner_plus_rows=None):
    """Segment-aware radial derivative, one node at a time.

    The main output holds the minus-side (left-segment) limit at corner
    nodes; the plus-side rows go into ``corner_plus_rows`` when a dict is
    supplied.
    """
    r = grid.r
    out = np.zeros_like(vals)
    for (lo, hi) in segments:
        for i in range(lo, hi + 1):
            j0 = lo if i == lo else (hi - 2 if i == hi else i - 1)
            z = r[j0:j0 + 3]
            w = stencil_d1(*z)[i - j0] if order == 1 else stencil_d2(*z)
            row = (w[0] * vals[j0] + w[1] * vals[j0 + 1]
                   + w[2] * vals[j0 + 2])
            if i == lo and lo != 0:
                if corner_plus_rows is not None:
                    corner_plus_rows[i] = row
            else:
                out[i] = row
    return out


def d_x_per_node(vals, grid, order):
    """Angular derivative in x = cos(theta), one column at a time."""
    x = grid.x
    M1 = x.size
    out = np.zeros_like(vals)
    for j in range(M1):
        j0 = 0 if j == 0 else (M1 - 3 if j == M1 - 1 else j - 1)
        z = x[j0:j0 + 3]
        w = stencil_d1(*z)[j - j0] if order == 1 else stencil_d2(*z)
        out[:, j] = (w[0] * vals[:, j0] + w[1] * vals[:, j0 + 1]
                     + w[2] * vals[:, j0 + 2])
    return out


def shi_tam_rk4(r0, h_eff, span=1000.0, n_steps=4000):
    """f' = 1 - f in s = log(r/r0), f(0) = (h_eff r0 / 2)^2, by RK4 at step
    log(span)/n_steps out to r = span r0; returns (s, f) at the n_steps + 1
    step ends."""
    f0 = (h_eff * r0 / 2.0) ** 2
    s, ys = integrate_ode(lambda s, y: 1.0 - y, [f0], (0.0, np.log(span)),
                          np.log(span) / n_steps)
    return s, ys[:, 0]


def dense_operator(operator):
    """The dense matrix of ``operator`` on the raveled (N, M+1) field:
    column k is ``operator.apply`` of the k-th unit field, raveled."""
    shape = operator.fixed.shape
    units = np.eye(operator.fixed.size).reshape(-1, *shape)
    return np.stack([operator.apply(e).ravel() for e in units], axis=1)


def dense_elliptic_solve(operator, source, boundary_values):
    """(u, A, b): the (N, M+1) solution of A u = b by
    ``numpy.linalg.solve``, where A is ``dense_operator(operator)`` and b
    is the field ``operator.rhs(source, boundary_values)``.  A smooth
    centre is no unknown of its own: the ring-0 columns of A carry it."""
    A = dense_operator(operator)
    b = operator.rhs(source, boundary_values)
    return np.linalg.solve(A, b.ravel()).reshape(b.shape), A, b


def band_lu_indexed(lower2, lower1, diag, upper1, upper2):
    """``numgrid.band_lu`` as it indexed the 2-D arrays once per row."""
    n, K = diag.shape
    l2, l1 = np.zeros((n, K)), np.zeros((n, K))
    u1, piv = np.empty((n, K)), np.empty((n, K))
    off = np.max(np.abs([lower2, lower1, upper1, upper2]), axis=0)
    for i in range(n):
        a1, d, c1 = lower1[i], diag[i], upper1[i]
        if lower2[i] != 0.0:
            l2[i] = lower2[i] / piv[i - 2]
            a1 = a1 - l2[i] * u1[i - 2]
            d = d - l2[i] * upper2[i - 2]
        if i:
            l1[i] = a1 / piv[i - 1]
            d = d - l1[i] * u1[i - 1]
            c1 = c1 - l1[i] * upper2[i - 1]
        scale = np.maximum(off[i], np.abs(diag[i]))
        assert np.all(np.abs(d) > _PIVOT_TOL * scale)
        piv[i], u1[i] = d, c1
    return l2, l1, u1, 1.0 / piv


def band_solve_indexed(factor, lower2, upper2, rhs):
    """``numgrid.band_solve`` as it indexed the 2-D arrays once per row."""
    l2, l1, u1, rpiv = factor
    y = np.array(rhs, dtype=float)
    n = y.shape[0]
    for i in range(1, n):
        y[i] -= l1[i] * y[i - 1]
        if lower2[i] != 0.0:
            y[i] -= l2[i] * y[i - 2]
    y[n - 1] *= rpiv[n - 1]
    for i in range(n - 2, -1, -1):
        y[i] -= u1[i] * y[i + 1]
        if upper2[i] != 0.0:
            y[i] -= upper2[i] * y[i + 2]
        y[i] *= rpiv[i]
    return y


def full_eig(X):
    """(lam, V, V^-1, cond(V)) of a real matrix by one ``numpy.linalg.eig``
    of the whole matrix, ``numpy.linalg.inv`` and ``numpy.linalg.cond``."""
    lam, V = np.linalg.eig(X)
    return lam, V, np.linalg.inv(V), float(np.linalg.cond(V))


def _jsonable(obj):
    if isinstance(obj, (float, np.floating)):
        v = float(obj)
        return v if math.isfinite(v) else repr(v)
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: _jsonable(getattr(obj, f.name))
                for f in dataclasses.fields(obj)}
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        if obj.size > 64:
            return {"n": int(obj.size), "min": float(np.min(obj)),
                    "max": float(np.max(obj))}
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    return obj


def envelope_json(envelope):
    """The JSON text of a report envelope: every value converted to plain
    JSON values (dataclasses field by field, arrays of more than 64
    elements as {n, min, max}, non-finite floats as their repr), then
    ``json.dumps(indent=2, sort_keys=True)``."""
    return json.dumps(_jsonable(envelope), indent=2, sort_keys=True)


def csv_per_node(field, path):
    """The (r, theta, u, |grad u|) CSV of an AxisymField, one
    ``writerow`` and four ``repr(float(...))`` per node."""
    gn = field.grad_norm_plain()
    rho = field.coeffs.rho
    with open(path, "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(["r", "theta", "u", "grad_norm"])
        for i in range(field.grid.n_r):
            for j, th in enumerate(field.grid.theta):
                wr.writerow([repr(float(rho[i])), repr(float(th)),
                             repr(float(field.values[i, j])),
                             repr(float(gn[i, j]))])


def dec_margins_per_point(patch, rs):
    """mu - |J_n| at each radius, one scalar evaluation of every profile
    per radius in Python floats."""
    out = []
    for r in rs:
        r = float(r)
        R = scalar_curvature(patch, r)
        a = float(patch.av(r))
        b = float(patch.bv(r))
        trk = a + 2.0 * b
        ksq = a * a + 2.0 * b * b
        mu = 0.5 * (R + trk * trk - ksq)
        J_r = 2.0 * (a - b) / r - 2.0 * float(patch.bp(r))
        J_n = float(np.sqrt(patch.fv(r))) * J_r
        out.append(mu - abs(J_n))
    return np.array(out)


def gauss_legendre_numpy(n):
    """numpy's Gauss-Legendre rule, nodes decreasing."""
    x, w = np.polynomial.legendre.leggauss(n)
    return x[::-1], w[::-1]


def plus_patch_values(coeffs, i):
    """``_areal_vals`` of the patch outside corner ring i, at that ring
    alone, as Python floats."""
    r = coeffs.grid.r[i:i + 1]
    vals = _areal_vals(coeffs.data, r, coeffs.data.patch_at(r[0], "plus"))
    return {name: float(v[0]) for name, v in vals.items()}


def side_patched(coeffs, name):
    """A copy of the minus-side array ``name`` with each corner ring's row
    replaced by the plus patch's value there."""
    out = getattr(coeffs, name).copy()
    for i in coeffs.corner_indices:
        out[i] = plus_patch_values(coeffs, i)[name]
    return out


def plus_hessian_rows(field):
    """{corner ring i: |sHu|^2 on its plus side}, one ring at a time, with
    the plus-side coefficients read from the patch outside the corner."""
    c = field.coeffs
    x = field.grid.x
    sin = np.sqrt(np.maximum(1.0 - x**2, 0.0))
    u_x, u_xx = field._table("u_x"), field._table("u_xx")
    rows = {}
    for i in c.corner_indices:
        v = plus_patch_values(c, i)
        lam, lamp, sqlam, rho, rhop = (v[n] for n in
                                       ("lam", "lamp", "sqlam", "rho", "rhop"))
        u_r, u_rr, u_rx = field.radial_derivative_rows(i, "plus")
        t_rr = (u_rr - (lamp / (2.0 * lam)) * u_r) / lam
        t_rt = -(sin / (sqlam * rho)) * (u_rx - (rhop / rho) * u_x[i])
        t_tt = ((1.0 - x * x) * u_xx[i] - x * u_x[i]) / (rho * rho) \
            + (rhop / (lam * rho)) * u_r
        t_pp = (rhop / (lam * rho)) * u_r - x * u_x[i] / (rho * rho)
        u_t = u_r / sqlam
        q = -sin * u_x[i] / rho
        gn = np.sqrt(u_t * u_t + q * q + 0.0 * 0.0)
        rr, tt, pp = t_rr + gn * v["a"], t_tt + gn * v["b"], \
            t_pp + gn * v["b"]
        rows[i] = rr ** 2 + tt ** 2 + pp ** 2 + 2.0 * t_rt ** 2
    return rows


def bulk_integral_patched(field, hes, delta, mask):
    """The bulk integral of ``massbound`` at one delta: each side's
    integrand formed from scratch, the plus side from copies of the
    minus-side arrays with their corner rows patched from the patches and
    ``plus_hessian_rows``; ``mask`` marks the nodes left out."""
    c = field.coeffs
    w_x, w_r_minus, w_r_plus = _volume_weights(field)
    keep = ~mask
    sin = np.sqrt(np.maximum(1.0 - field.grid.x**2, 0.0))[None, :]

    def side_sum(side, w_r):
        if not np.any(w_r):
            return 0.0
        if side == "minus":
            nsq, mu, Jn = hes.norm_sq, c.mu, c.Jn
            sqlam, rho = c.sqlam, c.rho
            dens = c.volume_density
        else:
            nsq = hes.norm_sq.copy()
            for i, row in plus_hessian_rows(field).items():
                nsq[i] = row
            mu, Jn, sqlam, rho = (side_patched(c, n) for n in
                                  ("mu", "Jn", "sqlam", "rho"))
            dens = c.volume_density.copy()
            for i in c.corner_indices:
                v = plus_patch_values(c, i)
                dens[i] = np.sqrt(v["lam"]) * v["rho"] ** 2
        u_t = field._table("u_r", side) / sqlam[:, None]
        q = -sin * field._table("u_x") / rho[:, None]
        gn_plain = np.sqrt(u_t * u_t + q * q + 0.0 * 0.0)
        gn_delta = np.sqrt(gn_plain**2 + delta**2)
        integrand = (nsq / gn_delta
                     + 2.0 * (mu[:, None] * gn_plain + Jn[:, None] * u_t))
        vol = 2.0 * np.pi * dens[:, None] * w_r[:, None] * w_x[None, :]
        return float(np.sum((integrand * vol)[keep]))

    return side_sum("minus", w_r_minus) + side_sum("plus", w_r_plus)
