"""Spacetime-harmonic solver and the mass-inequality bookkeeping.

Submodules: ``fields`` (grid coefficients, sampled fields, spacetime
Hessian), ``solver`` (Delta u + K |grad u| = 0: on K = 0 data one
radial solve of the l = 1 system, otherwise Anderson-accelerated Picard
iteration, each step one direct solve with the grid's separated
factor), ``massbound`` (both sides of the mass inequality with corner
terms), ``identities`` (the bulk integral identity and the boundary
identity, checked term by term).
"""

from .fields import (AxisymField, GridCoefficients, SpacetimeHessianField,
                     build_coefficients, build_solver_grid, spacetime_hessian)
from .solver import SolveOptions, solve_spacetime_harmonic
from .massbound import MassBoundReport, mass_bound_report, mass_bound_sweep
from .identities import (BoundaryFormulaReport, IntegralFormulaReport,
                     boundary_formula_check, integral_formula_check)

__all__ = [
    "AxisymField", "GridCoefficients", "SpacetimeHessianField",
    "build_coefficients", "build_solver_grid", "spacetime_hessian",
    "SolveOptions", "solve_spacetime_harmonic",
    "MassBoundReport", "mass_bound_report", "mass_bound_sweep",
    "BoundaryFormulaReport", "IntegralFormulaReport",
    "boundary_formula_check", "integral_formula_check",
]
