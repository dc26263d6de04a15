"""Deterministic numerical kernel: radial profiles, axisymmetric grids,
quadrature, an explicit ODE integrator, a direct elliptic solve by
separation of variables, Richardson extrapolation and the CSV writer of
every exported curve and field.

Everything in this module is a pure function of its inputs; no randomness.
Identical inputs produce identical outputs across runs.  Two caches hold
only what their inputs determine: an elliptic operator's factor (the
angular eigenvectors, found from the two half-size eigenproblems of the
grid's mirror symmetry theta -> pi - theta, and one banded LU per radial
mode), and the module's Gauss-Legendre rules, one per node count, built
on first use.  The elliptic operator maps an (N, M+1) field to an
(N, M+1) field; at a smooth centre its ring-0 rows read the virtual
value at r = 0 from rings 0 and 1 of that field.
Every linear solve is one solve of the correction from a
field that already holds the Dirichlet data, except the l = 1 solve of
a field phi(r) cos(theta) with zero source, which is one dense radial
system and needs no factor.  numpy is the only dependency.

Conventions
-----------
* Radial coordinate ``r`` is the areal radius in geometrized units (G=c=1).
* Angular coordinate on grids is the polar angle ``theta`` on [0, pi]; all
  angular stencils are expressed in the variable ``x = cos(theta)``
  (made exactly odd about the equator, so the stencils are exactly
  mirror-symmetric), where
  the axisymmetric volume measure is plain ``dx`` and linear functions of
  ``x`` are differentiated exactly by 3-point stencils.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import IntegrationDivergedError, SingularFactorError


# ---------------------------------------------------------------------------
# Scalar profiles
# ---------------------------------------------------------------------------

class ScalarProfile:
    """A scalar function of radius with its first derivative, backed by
    analytic closures: a value callable plus an optional derivative
    callable, a missing derivative falling back to a central finite
    difference of the closure.  The radius interval belongs to the patch
    that holds the profile (``geometry.RadialPatch``).
    """

    def __init__(self, value, d1=None):
        self._value = value
        self._d1 = _fd_derivative(value) if d1 is None else d1

    @classmethod
    def constant(cls, c):
        c = float(c)
        return cls(lambda r: np.full_like(r, c), np.zeros_like)

    def value(self, r):
        return np.asarray(self._value(np.asarray(r, dtype=float)),
                          dtype=float)

    def derivative(self, r):
        return np.asarray(self._d1(np.asarray(r, dtype=float)), dtype=float)


def _fd_derivative(fn):
    def d1(r):
        r = np.asarray(r, dtype=float)
        h = 1e-5 * np.maximum(1.0, np.abs(r))
        return (np.asarray(fn(r + h)) - np.asarray(fn(r - h))) / (2 * h)

    return d1


# ---------------------------------------------------------------------------
# Nonuniform 3-point stencils (exact on quadratics)
# ---------------------------------------------------------------------------

_OTHERS = ((1, 2), (0, 2), (0, 1))      # the other two nodes of each node


def stencil_d1(z0, z1, z2):
    """First-derivative weights at (z0, z1, z2) for each of the three nodes.

    Returns a (3, 3) array W with d/dz at z_i ~ W[i] . [f0, f1, f2]; for
    arrays of node triples, W[i, j] holds one weight per triple.
    """
    z = np.array([z0, z1, z2], dtype=float)
    W = np.empty((3, 3) + z.shape[1:])
    for j, (a, b) in enumerate(_OTHERS):
        # the derivative of node j's Lagrange basis parabola at z_i
        den = (z[j] - z[a]) * (z[j] - z[b])
        for i in range(3):
            W[i, j] = ((z[i] - z[b]) + (z[i] - z[a])) / den
    return W


def stencil_d2(z0, z1, z2):
    """Second-derivative weights of the parabola through (z0, z1, z2),
    one column per triple for arrays of node triples."""
    z = np.array([z0, z1, z2], dtype=float)
    return np.stack([2.0 / ((z[j] - z[a]) * (z[j] - z[b]))
                     for j, (a, b) in enumerate(_OTHERS)])


def lagrange_weights(nodes, z):
    """Lagrange interpolation weights at point z for the given nodes."""
    nodes = np.asarray(nodes, dtype=float)
    w = np.empty(nodes.size)
    for j in range(nodes.size):
        prod = 1.0
        for n in range(nodes.size):
            if n != j:
                prod *= (z - nodes[n]) / (nodes[j] - nodes[n])
        w[j] = prod
    return w


# ---------------------------------------------------------------------------
# Axisymmetric grid
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AxisymGrid:
    """Tensor grid (r_i, theta_j) with uniform theta on [0, pi].

    Attributes
    ----------
    r : (N,) strictly increasing radii.
    theta : (M+1,) uniform polar angles, endpoints exactly 0 and pi.
    x : cos(theta), made exactly odd under theta -> pi - theta
        (x[::-1] == -x, within an ulp of cos(theta)); angular stencils
        act on this (nonuniform) variable.
    """

    r: np.ndarray
    theta: np.ndarray

    def __post_init__(self):
        r = np.asarray(self.r, dtype=float)
        th = np.asarray(self.theta, dtype=float)
        if r.size < 8 or th.size < 9:
            raise ValueError("grid too small: need N >= 8, M >= 8")
        if np.any(np.diff(r) <= 0):
            raise ValueError("r-nodes must be strictly increasing")
        if th[0] != 0.0 or abs(th[-1] - np.pi) > 1e-15 or np.any(
                np.abs(np.diff(th) - (np.pi / (th.size - 1))) > 1e-12):
            raise ValueError("theta must be uniform on [0, pi] incl. endpoints")
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "theta", th)
        c = np.cos(th)
        object.__setattr__(self, "x", 0.5 * (c - c[::-1]))
        object.__setattr__(self, "n_r", r.size)
        object.__setattr__(self, "n_theta", th.size)

    @classmethod
    def build(cls, r_nodes, n_theta_cells):
        theta = np.linspace(0.0, np.pi, int(n_theta_cells) + 1)
        return cls(np.asarray(r_nodes, dtype=float), theta)

    # Trapezoid weights in x = cos(theta); integrates smooth axisymmetric
    # integrands against the exact sphere measure dx (total weight 2).
    def x_weights(self):
        x = self.x
        w = np.zeros_like(x)
        w[0] = 0.5 * (x[0] - x[1])
        w[-1] = 0.5 * (x[-2] - x[-1])
        w[1:-1] = 0.5 * (x[:-2] - x[2:])
        return w


_GAUSS_RULES = {}


def gauss_x_nodes(n):
    """Gauss-Legendre nodes/weights on x in [-1, 1] (sphere polar measure),
    nodes decreasing from the north pole.  Each rule is built on first use
    and cached; the caller gets its own copies."""
    n = int(n)
    if n not in _GAUSS_RULES:
        _GAUSS_RULES[n] = _gauss_legendre(n)
    x, w = _GAUSS_RULES[n]
    return x.copy(), w.copy()


def _gauss_legendre(n):
    """Newton's method in t on the cosine series
    P_n(cos t) = sum_k a_k a_{n-k} cos((n - 2k) t), a_k = C(2k, k)/4^k,
    for the roots with x = cos t >= 0, from t = pi (k - 1/4)/(n + 1/2);
    mirrored to the negative half so the rule is exactly symmetric;
    w = 2/(dP_n/dt)^2, scaled to total weight 2."""
    if n < 1:
        raise ValueError("need at least one Gauss node")
    k = np.arange(1, n + 1)
    a = np.cumprod(np.append(1.0, (2 * k - 1) / (2 * k)))
    m, c = n - 2 * np.arange(n + 1), a * a[::-1]

    def series(t):
        # (P_n(cos t), dP_n/dt) at t = t0 + e, t0 on a 2^-40 grid: m t0
        # is exact for n < 4096 and |m e| < 1e-8, so cos(m e) = 1 and
        # sin(m e) = m e to rounding
        t0 = np.round(t * 2.0 ** 40) / 2.0 ** 40
        mt, me = np.outer(t0, m), np.outer(t - t0, m)
        cos, sin = np.cos(mt), np.sin(mt)
        return (cos - sin * me) @ c, -(sin + cos * me) @ (m * c)

    t = np.pi * (np.arange(1, (n + 1) // 2 + 1) - 0.25) / (n + 0.5)
    for _ in range(100):
        p, dp = series(t)
        t = t - (step := p / dp)
        if np.max(np.abs(step)) <= 1e-15:
            break
    x = np.cos(t)
    if n % 2:
        x[-1] = 0.0
    w = 2.0 / series(t)[1] ** 2
    x = np.concatenate([x, -x[:n // 2][::-1]])
    w = np.concatenate([w, w[:n // 2][::-1]])
    return x, w * (2.0 / w.sum())


# ---------------------------------------------------------------------------
# Richardson extrapolation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConvergenceReport:
    """Two-resolution extrapolation record.

    ``observed_order`` requires a third (coarsest) value at the same
    refinement ratio and is NaN otherwise; ``degenerate`` is set when
    coarse == fine, in which case the extrapolated value is just the
    common value and no division is attempted.  ``ratio`` is the
    refinement ratio h_coarse / h_fine of the pair.
    """

    coarse: float
    fine: float
    extrapolated: float
    observed_order: float
    assumed_order: float
    degenerate: bool = False
    ratio: float = 2.0


def richardson(coarse, fine, p, third_coarsest=None, ratio=2.0,
               third_ratio=None):
    """Richardson extrapolant (t^p fine - coarse)/(t^p - 1) of values at
    spacings h and h/t, t = ``ratio`` (n_fine / n_coarse on a grid).

    ``third_coarsest`` is the value at spacing ``third_ratio`` * h, one
    level coarser than ``coarse`` (``third_ratio`` defaults to
    ``ratio``).  When the two ratios agree the observed order
    log((v_3 - v_h)/(v_h - v_h/t))/log(t) is reported; otherwise the
    differences do not determine it and it is NaN.
    """
    coarse = float(coarse)
    fine = float(fine)
    ratio = float(ratio)
    if coarse == fine:
        return ConvergenceReport(coarse, fine, fine, float("nan"), p, True,
                                 ratio)
    fac = ratio ** p
    extrap = (fac * fine - coarse) / (fac - 1.0)
    order = float("nan")
    same = third_ratio is None or abs(float(third_ratio) - ratio) \
        <= 1e-12 * ratio
    if third_coarsest is not None and same:
        d1 = float(third_coarsest) - coarse
        d2 = coarse - fine
        if d1 != 0.0 and d2 != 0.0 and d1 * d2 > 0.0:
            order = float(np.log2(abs(d1) / abs(d2)) / np.log2(ratio))
    return ConvergenceReport(coarse, fine, extrap, order, p, False, ratio)


def limit_from_sequence(values, ratio=2.0):
    """Iterated Richardson limit of values at resolutions h, h/t, h/t^2,
    ..., t = ``ratio``, whose error starts at first order.

    Each level raises the assumed order by one starting from 1.  Returns
    (limit, ConvergenceReport of the last pair at the deepest level).
    """
    vals = [float(v) for v in values]
    if len(vals) < 2:
        raise ValueError("need at least two values")
    third = vals[-3] if len(vals) >= 3 else None
    base = richardson(vals[-2], vals[-1], 1.0, third, ratio=ratio)
    level = list(vals)
    order = 1.0
    while len(level) > 1:
        level = [richardson(a, b, order, ratio=ratio).extrapolated
                 for a, b in zip(level[:-1], level[1:])]
        order += 1.0
    return level[0], ConvergenceReport(base.coarse, base.fine, level[0],
                                       base.observed_order, 1.0,
                                       base.degenerate, base.ratio)


# ---------------------------------------------------------------------------
# ODE integration (classical RK4, fixed step)
# ---------------------------------------------------------------------------

# halvings of the step tried after a non-finite state
ODE_RETRIES = 1


def integrate_ode(rhs, y0, interval, step):
    """Integrate y' = rhs(t, y) with classical RK4 at fixed step.

    Returns (t_samples, y_samples): the n + 1 abscissae of the uniform
    steps and the state at each, shaped (n + 1, len(y0)).  On a
    non-finite state the whole integration is retried ODE_RETRIES times,
    each with the step halved; if that also fails, an
    IntegrationDivergedError carrying the last good abscissa is raised.
    """
    t0, t1 = float(interval[0]), float(interval[1])
    if step <= 0:
        raise ValueError("step bound must be positive")
    y0 = np.atleast_1d(np.asarray(y0, dtype=float))

    h_try = float(step)
    last_good = t0
    for attempt in range(ODE_RETRIES + 1):
        n = max(1, int(np.ceil((t1 - t0) / h_try)))
        h = (t1 - t0) / n
        ts = np.empty(n + 1)
        ys = np.empty((n + 1, y0.size))
        ts[0] = t0
        ys[0] = y0
        t, y = t0, y0.copy()
        ok = True
        for i in range(n):
            k1 = np.asarray(rhs(t, y), dtype=float)
            k2 = np.asarray(rhs(t + 0.5 * h, y + 0.5 * h * k1), dtype=float)
            k3 = np.asarray(rhs(t + 0.5 * h, y + 0.5 * h * k2), dtype=float)
            k4 = np.asarray(rhs(t + h, y + h * k3), dtype=float)
            y = y + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
            t = t0 + (i + 1) * h
            if not np.all(np.isfinite(y)):
                ok = False
                break
            last_good = t
            ts[i + 1] = t
            ys[i + 1] = y
        if ok:
            return ts, ys
        h_try *= 0.5
    raise IntegrationDivergedError(
        f"state became non-finite near t = {last_good:.6g}",
        last_good_radius=last_good)


# ---------------------------------------------------------------------------
# Linear elliptic solve (separation of variables, factored once per operator)
# ---------------------------------------------------------------------------

# a pivot no larger than this fraction of its row's largest coefficient
# (or not finite) is a zero pivot
_PIVOT_TOL = 1e-13


def band_lu(lower2, lower1, diag, upper1, upper2):
    """LU factor, without pivoting, of K pentadiagonal systems of n rows
    that differ only in their diagonal: ``diag`` is (n, K), one column per
    system, and the off-diagonals at offsets -2, -1, +1, +2 are (n,)
    arrays indexed by row (entries that would leave the matrix are zero).

    Eliminates row by row with whole-array operations over the systems,
    on lists of row views, then tests every pivot at once.  Returns
    (l2, l1, u1, rpiv), each (n, K): the multipliers of rows i - 2 and
    i - 1, U's first superdiagonal and the reciprocal pivots (U's second
    superdiagonal is ``upper2`` itself).  Raises SingularFactorError
    naming the first row with a zero pivot; the rows after it, eliminated
    against that pivot, are never read.
    """
    n, K = diag.shape
    l2, l1 = np.zeros((n, K)), np.zeros((n, K))
    u1, piv = np.empty((n, K)), np.empty((n, K))
    off = np.max(np.abs([lower2, lower1, upper1, upper2]), axis=0)
    scale = np.maximum(off[:, None], np.abs(diag))
    L2, L1, U1, P, D = list(l2), list(l1), list(u1), list(piv), list(diag)
    lo2, lo1, up1, up2 = (np.asarray(c).tolist() for c in (
        lower2, lower1, upper1, upper2))
    with np.errstate(all="ignore"):
        for i in range(n):
            a1, d, c1 = lo1[i], D[i], up1[i]
            if lo2[i] != 0.0:
                L2[i][:] = lo2[i] / P[i - 2]
                a1 = a1 - L2[i] * U1[i - 2]
                d = d - L2[i] * up2[i - 2]
            if i:
                L1[i][:] = a1 / P[i - 1]
                d = d - L1[i] * U1[i - 1]
                c1 = c1 - L1[i] * up2[i - 1]
            P[i][:], U1[i][:] = d, c1
        rpiv = 1.0 / piv
    bad = np.flatnonzero(~np.all(np.abs(piv) > _PIVOT_TOL * scale, axis=1))
    if bad.size:
        raise SingularFactorError(
            f"zero pivot in row {bad[0]} of the radial mode systems")
    return l2, l1, u1, rpiv


def band_solve(factor, lower2, upper2, rhs):
    """Solve the systems of ``band_lu``'s factor (of a matrix with outer
    diagonals ``lower2`` and ``upper2``) for the (n, K) right-hand sides
    ``rhs``, one column per system, on lists of row views."""
    l2, l1, u1, rpiv = (list(a) for a in factor)
    lo2, up2 = np.asarray(lower2).tolist(), np.asarray(upper2).tolist()
    y = np.array(rhs, dtype=float)
    rows = list(y)
    n = len(rows)
    for i in range(1, n):
        rows[i] -= l1[i] * rows[i - 1]
        if lo2[i] != 0.0:
            rows[i] -= l2[i] * rows[i - 2]
    rows[n - 1] *= rpiv[n - 1]
    for i in range(n - 2, -1, -1):
        rows[i] -= u1[i] * rows[i + 1]
        if up2[i] != 0.0:
            rows[i] -= up2[i] * rows[i + 2]
        rows[i] *= rpiv[i]
    return y


def mirror_eig(X):
    """X = V diag(lam) V^-1 for a real (K, K) matrix equal to its flip
    X[::-1, ::-1] (the reduced angular matrix of a grid symmetric under
    theta -> pi - theta), from two eigenproblems of half size.

    With P the reversal, the even vectors (P e = e) and the odd ones
    (P o = -o) give an orthogonal Q = [E O] with Q^T X Q = diag(X_e,
    X_o): for the top h = K // 2 rows, A = X[:h, :h] and B their
    mirrored columns X[:h, K-1:K-1-h:-1], X_e = A + B (bordered by the
    middle row and column when K is odd) and X_o = A - B.  Then
    V = Q diag(W_e, W_o), V^-1 = diag(W_e^-1, W_o^-1) Q^T, and since Q is
    orthogonal cond(V) is the ratio of the extreme singular values of
    the two half blocks.  Returns (lam, V, V^-1, cond(V)), the even
    modes first.  Raises SingularFactorError on a complex spectrum, on
    an X that is not its own flip and on a defective block.
    """
    K = X.shape[0]
    h, ne = K // 2, K - K // 2
    A, B = X[:h, :h], X[:h, :K - h - 1:-1]
    Xe = np.empty((ne, ne))
    Xe[:h, :h] = A + B
    if K % 2:
        Xe[:h, h] = np.sqrt(2.0) * X[:h, h]
        Xe[h, :h] = np.sqrt(2.0) * X[h, :h]
        Xe[h, h] = X[h, h]
    (lam_e, We), (lam_o, Wo) = np.linalg.eig(Xe), np.linalg.eig(A - B)
    # a spectrum test first: complex modes do not separate over R,
    # whatever the matrix's symmetry
    if np.iscomplexobj(lam_e) or np.iscomplexobj(lam_o):
        raise SingularFactorError(
            "the reduced angular matrix has a complex spectrum")
    if not np.array_equal(X, X[::-1, ::-1]):
        raise SingularFactorError(
            "the reduced angular matrix is not mirror-symmetric under "
            "theta -> pi - theta")
    try:
        We_inv, Wo_inv = np.linalg.inv(We), np.linalg.inv(Wo)
    except np.linalg.LinAlgError as exc:
        raise SingularFactorError(
            f"the reduced angular matrix is defective: {exc}") from exc
    s = np.sqrt(0.5)
    V, Vinv = np.zeros((K, K)), np.zeros((K, K))
    V[:h, :ne], V[ne:, :ne] = s * We[:h], s * We[h - 1::-1]
    V[:h, ne:], V[ne:, ne:] = s * Wo, -s * Wo[::-1]
    Vinv[:ne, :h], Vinv[:ne, ne:] = s * We_inv[:, :h], \
        s * We_inv[:, h - 1::-1]
    Vinv[ne:, :h], Vinv[ne:, ne:] = s * Wo_inv, -s * Wo_inv[:, ::-1]
    if K % 2:
        V[h, :ne], Vinv[:ne, h] = We[h], We_inv[:, h]
    sv = np.concatenate([np.linalg.svd(We, compute_uv=False),
                         np.linalg.svd(Wo, compute_uv=False)])
    return np.concatenate([lam_e, lam_o]), V, Vinv, float(sv.max()
                                                          / sv.min())


class ModeFactor:
    """The factor of a separated operator: the eigenvectors V of the
    reduced angular matrix and V^-1, ``band_lu``'s factor of every radial
    mode system (with the outer diagonals ``lower2`` and ``upper2``) and,
    with a centre value, ``centre`` = (the mode solution for a unit
    centre value, the centre row on rings 0 and 1 in modes, the bordered
    system's Schur complement).  ``floats`` counts the float64 values it
    holds; ``eigvec_cond`` is cond(V)."""

    def __init__(self, V, Vinv, eigvec_cond, band, lower2, upper2,
                 centre=None):
        self.V, self.Vinv, self.band = V, Vinv, band
        self.lower2, self.upper2, self.centre = lower2, upper2, centre
        arrays = [V, Vinv, lower2, upper2, *band]
        if centre is not None:
            arrays += centre[:3]
        self.floats = int(sum(a.size for a in arrays))
        self.eigvec_cond = eigvec_cond


class EllipticOperator:
    """The linear system A u = b of one axisymmetric grid, in separated
    form, factored once.

    A maps an (N, M+1) field to an (N, M+1) field, and b is one too.  The
    operator derives its boundary rows: the outer ring is always fixed,
    ring 0 is fixed exactly when there is no ``centre``, and the other
    rings are free.  Rows:

    * at a fixed node, the identity (the Dirichlet value);
    * at the interior columns j = 1..M-1 of a free ring i,
      sum_o radial[i, o + 2] u[i + o, j] + ring_scale[i] (west u[i, j-1]
      + centre u[i, j] + east u[i, j+1]) with (west, centre, east) =
      angular[:, j - 1], plus coupling * c on ring 0 with centre =
      (coupling, w0, w1) and c = -(w0 . u[0] + w1 . u[1]) the virtual
      value at r = 0;
    * at the axis columns of a free ring, u[i, 0] - axis_weights[0] .
      u[i, 1:4] and u[i, M] - axis_weights[1] . u[i, M-3:M].

    ``radial`` is (N, 5), ``angular`` (3, M-1): the three diagonals of
    the (M-1) x (M+1) angular matrix.  The right-hand side
    holds the source at ``source_rows`` (the interior columns of the
    free rings that are not ``corners``), the Dirichlet value at the
    ``fixed`` nodes and zero elsewhere (``rhs``).

    The angular matrix is the same on every ring, so with the axis rows
    eliminated it becomes one (M-1) x (M-1) matrix X = V diag(lam) V^-1
    (``reduced_angular``).  On a grid symmetric under theta -> pi - theta
    X equals its flip, and ``mirror_eig`` finds V from its even and odd
    halves; an X that is not its own flip is refused.  In the modes
    w_i = V^-1 u[i, 1:-1] the system splits into one
    pentadiagonal radial system radial + lam_k diag(ring_scale) per mode,
    and the centre value is eliminated by bordering.  ``solve`` takes a
    right-hand side that is zero at the fixed nodes, as a correction's
    is, so only the axis rows' values move to the other side.  The factor
    is computed on the first solve and reused by every later one; it is
    the only state the operator keeps.

    x = cos(theta) is an exact eigenvector of X, with eigenvalue -2, and
    the centre value does not couple it, so a field phi (x) x with zero
    source needs none of this: ``solve_l1`` finds phi from one radial
    system and builds no factor.
    """

    def __init__(self, radial, ring_scale, angular, axis_weights, corners,
                 centre=None):
        self.radial = np.asarray(radial, dtype=float)
        self.ring_scale = np.asarray(ring_scale, dtype=float)
        self.angular = np.asarray(angular, dtype=float)
        self.axis_weights = tuple(np.asarray(w, dtype=float)
                                  for w in axis_weights)
        self.centre = centre
        N = self.radial.shape[0]
        self._free = slice(0 if centre is not None else 1, N - 1)
        self.fixed = np.ones((N, self.angular.shape[1] + 2), dtype=bool)
        self.fixed[self._free] = False
        self.source_rows = ~self.fixed
        self.source_rows[:, [0, -1]] = False
        self.source_rows[corners] = False
        self.factorizations = 0
        self._factor = None

    # -- the operator, matrix-free ---------------------------------------

    def apply(self, u):
        """A u for an (N, M+1) field u."""
        u = np.asarray(u, dtype=float)
        N = u.shape[0]
        Au = u.copy()                    # the identity rows
        free = self._free
        w_n, w_s = self.axis_weights
        # radial plus angular rows on every ring, kept on the free ones
        pad = np.zeros((N + 4, u.shape[1] - 2))
        pad[2:-2] = u[:, 1:-1]
        west, centre, east = self.angular
        rows = self.ring_scale[:, None] * (west * u[:, :-2]
                                           + centre * u[:, 1:-1]
                                           + east * u[:, 2:])
        for o in range(5):
            rows += self.radial[:, o, None] * pad[o:o + N]
        Au[free, 1:-1] = rows[free]
        Au[free, 0] -= u[free, 1:4] @ w_n
        Au[free, -1] -= u[free, -4:-1] @ w_s
        if self.centre is not None:
            coupling, w0, w1 = self.centre
            Au[0, 1:-1] += coupling * -(w0 @ u[0] + w1 @ u[1])
        return Au

    def rhs(self, source, boundary_values):
        """b: the source at the source rows, the Dirichlet values at the
        fixed nodes, zero elsewhere."""
        b = np.zeros(self.fixed.shape)
        rows, fixed = self.source_rows, self.fixed
        b[rows] = np.asarray(source, dtype=float)[rows]
        b[fixed] = np.asarray(boundary_values, dtype=float)[fixed]
        return b

    # -- the factor and the direct solve ---------------------------------

    def factor(self) -> ModeFactor:
        """The operator's factor, computed on the first call."""
        if self._factor is None:
            self._factor = self._build_factor()
            self.factorizations += 1
        return self._factor

    def reduced_angular(self, X=None):
        """The (M-1, M-1) angular matrix (or the rows X, M+1 long) on the
        interior columns, with the axis rows eliminated (each axis value
        is the extrapolation of the next three columns)."""
        if X is None:
            K = self.angular.shape[1]
            J = np.arange(K)
            X = np.zeros((K, K + 2))
            X[J, J], X[J, J + 1], X[J, J + 2] = self.angular
        w_n, w_s = self.axis_weights
        Xr = X[..., 1:-1].copy()
        Xr[..., :3] += X[..., :1] * w_n
        Xr[..., -3:] += X[..., -1:] * w_s
        return Xr

    def _build_factor(self):
        lam, V, Vinv, cond = mirror_eig(self.reduced_angular())
        R = self.radial[self._free].copy()
        # couplings to the fixed rings move to the right-hand side
        R[0, :2] = R[1, 0] = R[-1, 3:] = R[-2, 4] = 0.0
        g = self.ring_scale[self._free]
        band = band_lu(R[:, 0], R[:, 1], R[:, 2, None] + g[:, None] * lam,
                       R[:, 3], R[:, 4])
        if self.centre is None:
            return ModeFactor(V, Vinv, cond, band, R[:, 0], R[:, 4])
        coupling, w0, w1 = self.centre
        unit = np.zeros((R.shape[0], V.shape[0]))
        unit[0] = coupling * Vinv.sum(axis=1)
        z = band_solve(band, R[:, 0], R[:, 4], unit)
        # the centre row on the interior columns, in modes
        modes = [V.T @ self.reduced_angular(w) for w in (w0, w1)]
        pivot = 1.0 - (modes[0] @ z[0] + modes[1] @ z[1])
        scale = 1.0 + abs(modes[0] @ z[0]) + abs(modes[1] @ z[1])
        if not abs(pivot) > _PIVOT_TOL * scale:
            raise SingularFactorError(
                "zero pivot in the centre row of the bordered system")
        return ModeFactor(V, Vinv, cond, band, R[:, 0], R[:, 4],
                          (z, *modes, float(pivot)))

    def solve(self, b):
        """The u with A u = b for a b that is zero at the fixed nodes (the
        right-hand side of a correction), by the factor: the axis rows' b
        through the angular matrix's two corner entries (the first row's
        west and the last row's east coefficient), V^-1 along the
        angular index, one banded solve per mode, the centre value by
        bordering, V back.  The fixed nodes of u are zero."""
        f = self.factor()
        b = np.asarray(b, dtype=float)
        free = self._free
        u = np.zeros(self.fixed.shape)
        u[free, 0], u[free, -1] = b[free, 0], b[free, -1]
        g = self.ring_scale[free]
        rhs = b[free, 1:-1].copy()
        rhs[:, 0] -= g * (u[free, 0] * self.angular[0, 0])
        rhs[:, -1] -= g * (u[free, -1] * self.angular[2, -1])
        w = band_solve(f.band, f.lower2, f.upper2, rhs @ f.Vinv.T)
        if self.centre is not None:
            _, w0, w1 = self.centre
            z, m0, m1, pivot = f.centre
            c = (-(w0 @ u[0]) - w1 @ u[1] - m0 @ w[0] - m1 @ w[1]) / pivot
            w -= c * z
        inner = w @ f.V.T
        w_n, w_s = self.axis_weights
        u[free, 1:-1] = inner
        u[free, 0] += inner[:, :3] @ w_n
        u[free, -1] += inner[:, -3:] @ w_s
        return u

    def solve_l1(self, phi):
        """The radial factor of the solution phi (x) x of A v = 0 at every
        free row, x = cos(theta), given phi at the fixed rings (the
        Dirichlet data phi_i x_j); returns phi with its free rings filled.

        x is an eigenvector of ``reduced_angular`` with eigenvalue -2: the
        flux faces 1 - x_j x_{j+1} difference to -2 x_j, and the axis rows'
        quadratic extrapolation is exact on linear x.  The centre row's
        x-weights are even, so on phi (x) x the centre value is 0 and drops
        out.  What is left is one radial system on the free rings, their
        ``radial`` rows with -2 ``ring_scale`` on the diagonal (corner rows
        included, their ring_scale is 0), the couplings to the fixed rings
        moved to the right-hand side; it is solved as a dense n x n system,
        n the free rings, by LAPACK."""
        N, free = self.radial.shape[0], self._free
        i = np.arange(N)
        A = np.zeros((N, N + 4))             # rings i-2 .. i+2, padded
        for o in range(5):
            A[i, i + o] = self.radial[:, o]
        A = A[:, 2:-2]
        A[i, i] -= 2.0 * self.ring_scale
        phi = np.array(phi, dtype=float)
        fixed = np.ones(N, dtype=bool)
        fixed[free] = False
        rhs = -np.sum(A[free][:, fixed] * phi[fixed], axis=1)
        try:
            phi[free] = np.linalg.solve(A[free, free], rhs)
        except np.linalg.LinAlgError as exc:
            raise SingularFactorError(
                f"the l = 1 radial system is singular ({exc})") from None
        if not np.all(np.isfinite(phi)):
            raise SingularFactorError(
                "the l = 1 radial solve is not finite")
        return phi

    @property
    def factor_floats(self):
        """float64 values the factor holds (0 before the first solve)."""
        return 0 if self._factor is None else self._factor.floats

    @property
    def eigvec_cond(self):
        """cond(V) of the angular eigenvectors (NaN before the first
        solve), the factor by which the transforms can amplify
        rounding."""
        return float("nan") if self._factor is None \
            else self._factor.eigvec_cond


def solve_linear_elliptic(operator: EllipticOperator, source,
                          boundary_values, start=None, applied=None):
    """Direct solve of the operator's equations for one source, as one
    correction from a field that holds the Dirichlet data.

    ``source`` holds the right-hand side at the stencil nodes and
    ``boundary_values`` the Dirichlet values at ``operator.fixed``; both
    are (N, M+1).  ``start`` (an (N, M+1) field, zero when not given)
    with its fixed nodes replaced by the Dirichlet values is u0, and the
    result is u0 + A~^-1 (b - A u0), A~^-1 the factor's solve.  A u0 is
    ``applied`` when given (the caller vouches that ``start`` already
    holds the Dirichlet values and that ``applied`` is A of it), and one
    matrix-free ``apply`` otherwise.  The correction's right-hand side is
    zero at the fixed nodes, its rounding (the transforms by V amplify it
    by up to cond(V)) scales with the correction, and a fixed point is
    still exactly A u = b.  Returns (u, info) with 'applied' = A u from
    ``apply``, whose ring-0 rows read the centre value from u itself,
    'residual' = max|A u - b| and 'sweeps' = 0 (a direct solve does no
    relaxation sweeps).
    """
    b = operator.rhs(source, boundary_values)
    u = np.where(operator.fixed, boundary_values,
                 0.0 if start is None else start)
    u += operator.solve(b - (operator.apply(u) if applied is None
                             else applied))
    Au = operator.apply(u)
    residual = float(np.max(np.abs(Au - b)))
    return u, {"sweeps": 0, "residual": residual, "applied": Au}


# ---------------------------------------------------------------------------
# CSV export
# ---------------------------------------------------------------------------

def write_csv(path, header, columns):
    """Write float columns as CSV: the header row, then one row per
    element of the columns broadcast to one shape (in C order), each
    value as the repr of its float, comma separated, with CRLF line ends
    (the bytes of the csv module's default dialect, which quotes none of
    these fields).  A column is formatted before it is broadcast, so a
    value repeated along an axis is formatted once."""
    def reprs(c):
        a = np.asarray(c, dtype=float)
        return np.array(list(map(repr, a.ravel().tolist())),
                        dtype=object).reshape(a.shape)

    rows = zip(*(s.ravel().tolist() for s in
                 np.broadcast_arrays(*map(reprs, columns))))
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        fh.writelines(",".join(row) + "\r\n" for row in rows)
