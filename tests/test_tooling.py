"""Code outside the package that calls into it: the benchmark's tracer
(``bench/tracer.py``) and README's library example.  A renamed or
re-signatured function would otherwise show only as a ``missing`` span
in a traced benchmark run, or as a README example that no longer runs.
"""

import contextlib
import importlib
import importlib.util
import inspect
import io
import re
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]


def _tracer():
    """bench/tracer.py, loaded from its file (the bench is no package)
    without writing its bytecode next to it."""
    spec = importlib.util.spec_from_file_location(
        "bench_tracer", ROOT / "bench" / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    write, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = write
    return module


def test_tracer_targets_resolve():
    tracer = _tracer()
    assert tracer.TARGETS
    for name, module, attr in tracer.TARGETS:
        owner = importlib.import_module(module)
        for part in attr.split("."):
            owner = getattr(owner, part, None)
            assert owner is not None, f"{name}: {module}.{attr} is gone"
        assert callable(owner), f"{name}: {module}.{attr}"


def test_tracer_reads_what_the_targets_return():
    # the attributes the tracer reads: the linear solve's sweeps, the
    # solve's data and grid arguments, grad_norm's positional delta
    from cornermass.corner import scenario_build
    from cornermass.harmonic.fields import (AxisymField, build_coefficients,
                                            build_solver_grid)
    from cornermass.harmonic.solver import (_assemble_operator,
                                            solve_spacetime_harmonic)
    from cornermass.numgrid import solve_linear_elliptic
    tracer = _tracer()
    data = scenario_build("hyperbolic_negschw")
    grid = build_solver_grid(data, 16, 16, 10.0)
    op = _assemble_operator(build_coefficients(data, grid))
    boundary = np.outer(grid.r, grid.x)
    result = solve_linear_elliptic(op, np.zeros_like(boundary), boundary)
    u, info = result
    assert u.shape == boundary.shape
    assert set(info) == {"sweeps", "residual", "applied"}
    assert tracer._sweeps((), {}, result) == {"sweeps": 0}
    solve = inspect.signature(solve_spacetime_harmonic).parameters
    assert list(solve)[:2] == ["data", "grid"]
    norm = inspect.signature(AxisymField.grad_norm).parameters
    assert list(norm)[:3] == ["self", "side", "delta"]


def test_readme_example_runs():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"```python\n(.*?)```", text, flags=re.S)
    assert len(blocks) == 1
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(blocks[0], "README.md", "exec"), {})
    lhs, bulk, corner, violated = out.getvalue().split()
    assert violated == "True"
    assert np.isfinite([float(lhs), float(bulk), float(corner)]).all()
