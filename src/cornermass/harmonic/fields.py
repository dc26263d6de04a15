"""Grid-sampled axisymmetric fields and their covariant derivatives.

The solver works in a general radial chart: the metric on the grid is

    g = lam(s) ds^2 + rho(s)^2 dOmega^2,

with the areal chart (lam = 1/f, rho = s) used for glued patch data and
the isotropic chart of Schwarzschild (lam = psi^4, rho = s psi^2,
psi = 1 + m/2s) used exactly when the data set carries one
(``data.chart``); the latter continues through the minimal sphere into
the second asymptotic sheet, where large coordinate spheres are weakly
trapped and can serve as the inner boundary of the solve.

Angular finite differences act on x = cos(theta), where 3-point stencils
differentiate the asymptote rho cos(theta) exactly in the flat case;
radial stencils never cross a corner (corner nodes terminate every
stencil, with one-sided values kept per side), so kinks in the profiles
are never differenced.  The weights depend only on the grid, so each
GridCoefficients builds its tables once (``DerivativeStencils``).

Every coefficient, derivative and Hessian array holds the minus-side
limit at corner rings; the plus side is a second whole array, equal off
those rings (``GridCoefficients.side``, ``side="plus"`` on the fields).

Covariant Hessian, orthonormal frame (e_s, e_th, e_ph):

    T_ss = (u_ss - (lam'/2 lam) u_s) / lam
    T_st = -(sin th / (sqrt(lam) rho)) (u_sx - (rho'/rho) u_x)
    T_tt = ((1-x^2) u_xx - x u_x)/rho^2 + (rho'/(lam rho)) u_s
    T_pp = (rho'/(lam rho)) u_s - x u_x / rho^2

and the spacetime Hessian adds |grad u| k = |grad u| diag(a, b, b).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

import numpy as np

from ..corner import GluedDataSet, areal_sigma
from ..geometry import constraint_densities
from ..numgrid import AxisymGrid, stencil_d1, stencil_d2, write_csv


# ---------------------------------------------------------------------------
# Solver grids
# ---------------------------------------------------------------------------

def build_solver_grid(data: GluedDataSet, n_r, n_theta, L,
                      r_inner=None) -> AxisymGrid:
    """Radial nodes from the inner radius to the truncation.

    For data carrying an isotropic chart the nodes are log-spaced in the
    chart coordinate from sigma_inner deep in the second sheet out to
    sigma(L).  Otherwise the nodes are log-spaced in the areal radius on
    each smooth piece between the inner radius, the corner radii and L,
    so every corner lands exactly on a node; data with a smooth centre
    starts at 1/50 of its first break, the virtual r = 0 value supplying
    the innermost ring's inner neighbour.
    """
    if data.chart is not None:
        m = data.chart.mass
        if not L > 2.0 * m:
            raise ValueError("truncation radius must lie outside the "
                             "horizon r = 2m")
        sig_hi = areal_sigma(m, L)
        # default inner boundary: a weakly trapped sphere just inside the
        # minimal surface (theta_+ < 0 there)
        sig_lo = r_inner if r_inner is not None else 0.25 * m
        if not 0.0 < sig_lo < sig_hi:
            raise ValueError(f"the inner chart radius must lie in (0, "
                             f"{float(sig_hi)!r}), inside the truncation")
        nodes = np.exp(np.linspace(np.log(sig_lo), np.log(sig_hi), n_r + 1))
        return AxisymGrid.build(nodes, n_theta)
    if L > data.r_max + 1e-9:
        raise ValueError("truncation radius exceeds the data set")
    if r_inner is not None and r_inner < data.r_min - 1e-9:
        raise ValueError(f"inner radius lies below the data set's "
                         f"r_min = {data.r_min!r}")
    if r_inner is None:
        if data.has_center:
            # innermost ring well below the first break; the virtual
            # r = 0 value supplies its inner neighbour
            first = data.corner_radii[0] if data.corner_radii else L
            r_inner = first / 50.0
        else:
            r_inner = data.r_min
    breaks = [float(r_inner)] + [rc for rc in data.corner_radii
                                 if r_inner < rc < L] + [float(L)]
    # allocate nodes by logarithmic measure so inner structure and the
    # far field are resolved together
    measures = [np.log(hi / lo) for lo, hi in zip(breaks[:-1], breaks[1:])]
    total = sum(measures)
    nodes = [np.array([breaks[0]])]
    remaining = n_r
    for k, (lo, hi) in enumerate(zip(breaks[:-1], breaks[1:])):
        n_seg = max(8, int(round(n_r * measures[k] / total)))
        if k == len(breaks) - 2:
            n_seg = max(8, remaining)
        remaining -= n_seg
        seg = np.exp(np.linspace(np.log(lo), np.log(hi), n_seg + 1))
        seg[-1] = hi
        nodes.append(seg[1:])
    return AxisymGrid.build(np.concatenate(nodes), n_theta)


def centre_weights(grid: AxisymGrid):
    """(w0, w1): the value at r = 0 of a field even in r is
    w0 . u[0] + w1 . u[1], the x-averages of rings 0 and 1 extrapolated
    linearly in r^2 (the solver's centre row and the ball's axis both
    read it)."""
    wm = grid.x_weights()
    wm = wm / np.sum(wm)
    r1, r2 = grid.r[0], grid.r[1]
    den = r2 * r2 - r1 * r1
    return (r2 * r2 / den) * wm, -(r1 * r1 / den) * wm


# ---------------------------------------------------------------------------
# Finite-difference machinery
# ---------------------------------------------------------------------------
# The 3-point weights depend only on the grid and its segments: each
# GridCoefficients builds them once, and a derivative is three whole-array
# products summed in a fixed order (bit-identical to a per-node loop).

class StencilTable:
    """Three-point weights along one grid axis (0 = r, 1 = x): output row
    k is w[k, 0] v[j0[k]] + w[k, 1] v[j0[k] + 1] + w[k, 2] v[j0[k] + 2],
    the parabola through z[j0[k]:j0[k] + 3] differentiated ``order``
    times at z[at[k]]."""

    def __init__(self, z, j0, at, order, axis):
        triples = (z[j0], z[j0 + 1], z[j0 + 2])
        if order == 1:
            self.w = stencil_d1(*triples)[at - j0, :, np.arange(j0.size)]
        else:
            self.w = stencil_d2(*triples).T
        self.j0, self.axis = j0, axis

    def apply(self, vals):
        j0 = self.j0
        if self.axis == 0:
            w = self.w[:, :, None]
            return w[:, 0] * vals[j0] + w[:, 1] * vals[j0 + 1] \
                + w[:, 2] * vals[j0 + 2]
        w = self.w
        return w[:, 0] * vals[:, j0] + w[:, 1] * vals[:, j0 + 1] \
            + w[:, 2] * vals[:, j0 + 2]


class DerivativeStencils:
    """A grid's derivative tables; ``r``, ``r_plus`` and ``x`` hold the
    first-order table at index 0 and the second-order one at index 1.

    ``r`` holds the minus-side (left-segment) row at corner nodes,
    ``r_plus`` the plus-side rows at the nodes ``corners``.
    """

    def __init__(self, grid: AxisymGrid, segments):
        nodes = np.arange(grid.n_r)
        j0 = np.empty(grid.n_r, dtype=np.intp)
        for k, (lo, hi) in enumerate(segments):
            i = nodes[lo + (k > 0):hi + 1]     # a corner keeps its minus row
            j0[i] = np.clip(i - 1, lo, hi - 2)
        self.corners = np.array([lo for lo, _ in segments[1:]],
                                dtype=np.intp)
        cols = np.arange(grid.n_theta)
        jx = np.clip(cols - 1, 0, grid.n_theta - 3)
        orders = (1, 2)
        self.r = tuple(StencilTable(grid.r, j0, nodes, o, 0) for o in orders)
        self.r_plus = tuple(StencilTable(grid.r, self.corners, self.corners,
                                         o, 0) for o in orders)
        self.x = tuple(StencilTable(grid.x, jx, cols, o, 1) for o in orders)

    def d_r(self, vals, order, side="minus"):
        """Radial derivative; side='plus' takes the plus-side corner rows."""
        main = self.r[order - 1].apply(vals)
        return self.plus_side(main, vals, order) if side == "plus" else main

    def plus_side(self, main, vals, order):
        """``main`` = d_r(vals, order) with its corner rows replaced by the
        plus-side ones (``main`` itself when the grid has no corner)."""
        if not self.corners.size:
            return main
        out = main.copy()
        out[self.corners] = self.r_plus[order - 1].apply(vals)
        return out

    def d_x(self, vals, order):
        return self.x[order - 1].apply(vals)


# ---------------------------------------------------------------------------
# Chart coefficients sampled on a grid
# ---------------------------------------------------------------------------

@dataclass
class SideCoefficients:
    """Chart and matter arrays on the radial nodes, with one side's limit
    at the corner rings: lam, lam', sqrt(lam), rho, rho', the extrinsic
    curvature components a and b, K = tr k, mu and J(e_s)."""

    lam: np.ndarray
    lamp: np.ndarray
    sqlam: np.ndarray
    rho: np.ndarray
    rhop: np.ndarray
    a: np.ndarray
    b: np.ndarray
    K: np.ndarray
    mu: np.ndarray
    Jn: np.ndarray

    @property
    def volume_density(self):
        """sqrt(lam) rho^2: radial density of dV against ds dx dphi."""
        return self.sqlam * self.rho * self.rho


@dataclass
class GridCoefficients(SideCoefficients):
    """Chart and matter data on the grid nodes, one whole array per side
    of the corners: the inherited arrays hold the minus-side limit at
    corner rings, ``plus`` the plus-side one (equal elsewhere), and
    ``side(side)`` reads either.  ``segments`` are inclusive (lo, hi)
    node-index ranges of the smooth pieces; every radial stencil is built
    inside one segment, and ``stencils`` holds the grid's derivative
    tables, built once here.  No areal copy of the metric is kept: the
    areal f is 1/lam.
    """

    data: GluedDataSet
    grid: AxisymGrid
    chart: str
    segments: List[Tuple[int, int]]
    corner_indices: List[int]
    plus: SideCoefficients
    stencils: DerivativeStencils = field(init=False, repr=False)

    def __post_init__(self):
        self.stencils = DerivativeStencils(self.grid, self.segments)

    def side(self, side):
        """The coefficients with the ``side`` ('minus' or 'plus') limit at
        the corner rings."""
        return self.plus if side == "plus" else self


def _areal_vals(data, rr, patch):
    f = patch.fv(rr)
    fp = patch.fp(rr)
    a = patch.av(rr)
    b = patch.bv(rr)
    _, mu, Jn = constraint_densities(patch, rr)
    trk = a + 2 * b
    return dict(lam=1.0 / f, lamp=-fp / (f * f), sqlam=1.0 / np.sqrt(f),
                rho=rr, rhop=np.ones_like(rr),
                a=a, b=b, K=trk, mu=mu, Jn=Jn)


def build_coefficients(data: GluedDataSet,
                       grid: AxisymGrid) -> GridCoefficients:
    """Sample chart and matter profiles on the grid.

    Data carrying an isotropic chart (vacuum time-symmetric data, no
    corners) is sampled on that chart, the grid's nodes read as its
    coordinate s.  Other data is sampled in the areal chart from the glued
    patches, each smooth segment from the patch it lies in: a corner
    ring's minus side ends the segment inside it, its plus side starts the
    one outside.
    """
    s = grid.r
    if data.chart is not None:
        m = float(data.chart.mass)
        psi = 1.0 + m / (2.0 * s)
        psip = -m / (2.0 * s * s)
        lam = psi**4
        lamp = 4.0 * psi**3 * psip
        rho = s * psi * psi
        rhop = psi * psi + 2.0 * s * psi * psip
        zeros = np.zeros_like(s)
        arrays = dict(lam=lam, lamp=lamp, sqlam=psi * psi, rho=rho,
                      rhop=rhop, a=zeros, b=zeros, K=zeros, mu=zeros,
                      Jn=zeros)
        return GridCoefficients(
            data=data, grid=grid, chart="isotropic",
            segments=[(0, s.size - 1)], corner_indices=[],
            plus=SideCoefficients(**arrays), **arrays)

    N = s.size
    corner_idx = []
    for rc in data.corner_radii:
        if s[0] - 1e-9 < rc < s[-1] + 1e-9:
            i = int(np.argmin(np.abs(s - rc)))
            if abs(s[i] - rc) > 1e-9 * max(1.0, rc):
                raise ValueError("grid must place corner radii on nodes")
            corner_idx.append(i)
    bounds = [0] + corner_idx + [N - 1]
    segments = [(bounds[k], bounds[k + 1]) for k in range(len(bounds) - 1)]

    pieces = [_areal_vals(data, s[lo:hi + 1],
                          data.patch_at(0.5 * (s[lo] + s[hi])))
              for (lo, hi) in segments]
    # a corner ring ends one segment (its minus side) and starts the next
    # (its plus side)
    minus = {name: np.concatenate([first[:1]] + [v[name][1:] for v in pieces])
             for name, first in pieces[0].items()}
    plus = {name: np.concatenate([v[name][:-1] for v in pieces] + [last[-1:]])
            for name, last in pieces[-1].items()}

    return GridCoefficients(
        data=data, grid=grid, chart="areal", segments=segments,
        corner_indices=corner_idx, plus=SideCoefficients(**plus), **minus)


# ---------------------------------------------------------------------------
# Fields
# ---------------------------------------------------------------------------

class AxisymField:
    """Sampled u(s, theta) with gradient and Hessian access.

    ``closures`` optionally carries analytic derivative callables
    (u, u_r, u_x, u_rr, u_rx, u_xx as functions of (r, x)); when present
    they are preferred by the high-accuracy boundary checks.  The delta
    parameter regularizes |grad u| wherever it is divided by.
    """

    def __init__(self, coeffs: GridCoefficients, values, delta=0.0,
                 closures=None, diagnostics=None):
        self.coeffs = coeffs
        self.grid = coeffs.grid
        self.values = np.asarray(values, dtype=float)
        self.delta = float(delta)
        self.closures = closures
        self.diagnostics = dict(diagnostics or {})
        self._cache = {}

    @classmethod
    def from_function(cls, coeffs, fn, delta=0.0, closures=None):
        grid = coeffs.grid
        R, X = np.meshgrid(grid.r, grid.x, indexing="ij")
        return cls(coeffs, fn(R, X), delta=delta, closures=closures)

    # -- finite differences ----------------------------------------------

    def _table(self, name, side="minus"):
        """One derivative table on every node, built on first use: u_x,
        u_xx, or a radial one (u_r, u_rr, u_rx) with the minus-side rows
        at corners, or under side="plus" the plus-side rows."""
        radial = name in ("u_r", "u_rr", "u_rx")
        key = ("plus", name) if radial and side == "plus" else name
        out = self._cache.get(key)
        if out is None:
            st = self.coeffs.stencils
            vals = self._table("u_x") if name == "u_rx" else self.values
            order = 2 if name in ("u_rr", "u_xx") else 1
            if not radial:
                out = st.d_x(vals, order)
            elif side == "plus":
                out = st.plus_side(self._table(name), vals, order)
            else:
                out = st.d_r(vals, order)
            self._cache[key] = out
        return out

    def _derivs(self):
        """u_r, u_rr, u_x, u_xx, u_rx on every node, minus side at corners;
        under "plus" the radial three with the plus-side corner rows."""
        radial = ("u_r", "u_rr", "u_rx")
        d = {n: self._table(n) for n in radial + ("u_x", "u_xx")}
        d["plus"] = {n: self._table(n, "plus") for n in radial}
        return d

    def _radial(self, side):
        """(u_s, u_ss, u_sx) on every node for the given corner side."""
        return tuple(self._table(n, side) for n in ("u_r", "u_rr", "u_rx"))

    def radial_derivative_rows(self, i, side="minus"):
        """(u_s, u_ss, u_sx) rows at radial index i for the given side."""
        return tuple(a[i] for a in self._radial(side))

    def gradient(self, side="minus"):
        """(u_t, q): proper radial derivative u_s/sqrt(lam) and u_theta/rho."""
        g = self.grid
        sin = np.sqrt(np.maximum(1.0 - g.x**2, 0.0))[None, :]
        c = self.coeffs.side(side)
        u_t = self._table("u_r", side) / c.sqlam[:, None]
        q = -sin * self._table("u_x") / c.rho[:, None]
        return u_t, q

    def grad_norm(self, side="minus", delta=None):
        u_t, q = self.gradient(side)
        delta = self.delta if delta is None else delta
        return np.sqrt(u_t * u_t + q * q + delta * delta)

    def grad_norm_plain(self, side="minus"):
        return self.grad_norm(side, delta=0.0)

    def laplacian(self, side="minus"):
        """Delta u from the same stencils used everywhere else."""
        x = self.grid.x[None, :]
        u_r, u_rr = self._table("u_r", side), self._table("u_rr", side)
        c = self.coeffs.side(side)
        lam, lamp, rho, rhop = [arr[:, None] for arr in
                                (c.lam, c.lamp, c.rho, c.rhop)]
        ang = ((1.0 - x * x) * self._table("u_xx")
               - 2.0 * x * self._table("u_x")) / (rho * rho)
        return (u_rr / lam
                + (2.0 * rhop / (lam * rho) - lamp / (2.0 * lam * lam)) * u_r
                + ang)

    # -- export -----------------------------------------------------------

    def to_csv(self, path):
        """CSV export (r, theta, u, |grad u|), one row per node; r is the
        areal radius of the node."""
        write_csv(path, ("r", "theta", "u", "grad_norm"),
                  (self.coeffs.rho[:, None], self.grid.theta, self.values,
                   self.grad_norm_plain()))


@dataclass
class SpacetimeHessianField:
    """Orthonormal components of the spacetime Hessian and its square.

    ``pure`` holds the covariant Hessian of u alone; ``full`` adds
    |grad u| k.  Components are (rr, tt, pp, rt).  Like the coefficients,
    every array holds the minus-side limit at corner rings;
    ``plus_norm_sq`` is |sHu|^2 with the plus-side limit there.
    """

    pure: Dict[str, np.ndarray]
    full: Dict[str, np.ndarray]
    grad_norm: np.ndarray
    norm_sq: np.ndarray
    plus_norm_sq: np.ndarray


def _side_hessian(field: AxisymField, side):
    """(pure, full, |grad u|, |sHu|^2) with the ``side`` limit at corner
    rings."""
    g = field.grid
    u_x, u_xx = field._table("u_x"), field._table("u_xx")
    x = g.x[None, :]
    sin = np.sqrt(np.maximum(1.0 - g.x**2, 0.0))[None, :]
    u_r, u_rr, u_rx = field._radial(side)
    c = field.coeffs.side(side)
    lam, lamp, sqlam, rho, rhop, a, b = [
        arr[:, None] for arr in (c.lam, c.lamp, c.sqlam, c.rho, c.rhop,
                                 c.a, c.b)]
    t_rr = (u_rr - (lamp / (2.0 * lam)) * u_r) / lam
    t_rt = -(sin / (sqlam * rho)) * (u_rx - (rhop / rho) * u_x)
    t_tt = ((1.0 - x * x) * u_xx - x * u_x) / (rho * rho) \
        + (rhop / (lam * rho)) * u_r
    t_pp = (rhop / (lam * rho)) * u_r - x * u_x / (rho * rho)
    gn = field.grad_norm_plain(side)
    full = dict(rr=t_rr + gn * a, tt=t_tt + gn * b, pp=t_pp + gn * b,
                rt=t_rt.copy())
    norm_sq = (full["rr"] ** 2 + full["tt"] ** 2 + full["pp"] ** 2
               + 2.0 * full["rt"] ** 2)
    return dict(rr=t_rr, rt=t_rt, tt=t_tt, pp=t_pp), full, gn, norm_sq


def spacetime_hessian(field: AxisymField) -> SpacetimeHessianField:
    """Covariant Hessian plus |grad u| k, contracted square included.

    The construction identity full - pure = |grad u| k holds node-wise by
    definition; |grad u| here is the plain (unregularized) norm so the
    identity is exact.
    """
    pure, full, gn, norm_sq = _side_hessian(field, "minus")
    plus_norm_sq = _side_hessian(field, "plus")[3] \
        if field.coeffs.corner_indices else norm_sq
    return SpacetimeHessianField(pure=pure, full=full, grad_norm=gn,
                                 norm_sq=norm_sq, plus_norm_sq=plus_norm_sq)
