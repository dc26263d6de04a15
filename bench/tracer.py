"""Outside-in spans around the public functions of each cornermass module.

``Tracer.install`` replaces every binding of a traced function in every
loaded ``cornermass`` module with a wrapper that records a span: the
span name, start and end (``time.perf_counter``, the same clock in every
process of the machine), the span that was open when the call began and
a few attributes read from the arguments or the return value.  A function
imported by name into another module (``solve_spacetime_harmonic`` lives
in ``harmonic.solver`` and is bound in ``harmonic.massbound``, ``harmonic``
and ``cli``) is wrapped under every name, so no call path escapes.  A
target that no longer exists is reported as missing and skipped.

Spans are kept in memory; ``child.py`` hands them to ``run.py``,
which writes them out when the run ends.  The tracer is single-threaded:
the benchmark leaves ``CORNER_MASS_THREADS`` unset.
"""

import importlib
import inspect
import sys
import time


def _sweeps(args, kwargs, result):
    return {"sweeps": int(result[1]["sweeps"])}


def _ode_steps(args, kwargs, result):
    return {"steps": len(result[0]) - 1}


def _plain_norm(args, kwargs):
    # grad_norm_plain() calls grad_norm(side, delta=0.0); only the
    # regularized |grad u|_delta that feeds the Picard source is a span
    delta = kwargs.get("delta", args[2] if len(args) > 2 else None)
    return delta == 0.0


# (span name, module, attribute)
TARGETS = (
    ("cli.config", "cornermass.cli", "parse_config"),
    ("cli.envelope", "cornermass.cli", "make_envelope"),
    ("cli.envelope", "cornermass.cli", "emit"),
    ("cli.csv", "cornermass.cli", "_write_csv"),
    ("cli.csv", "cornermass.harmonic.fields", "AxisymField.to_csv"),
    ("corner.scenario_build", "cornermass.corner", "scenario_build"),
    ("geometry.dec_check", "cornermass.geometry", "dec_check"),
    ("masses.adm", "cornermass.masses", "adm_energy_momentum"),
    ("masses.quasilocal", "cornermass.masses", "quasilocal"),
    ("masses.minimal_sphere", "cornermass.masses", "minimal_sphere"),
    ("masses.comparison_check", "cornermass.masses", "comparison_check"),
    ("extension.certificate", "cornermass.extension", "fillin_certificate"),
    ("extension.shi_tam_extend", "cornermass.extension", "shi_tam_extend"),
    ("numgrid.integrate_ode", "cornermass.numgrid", "integrate_ode"),
    ("numgrid.linear_solve", "cornermass.numgrid", "solve_linear_elliptic"),
    ("harmonic.fields.grid", "cornermass.harmonic.fields",
     "build_solver_grid"),
    ("harmonic.fields.grid", "cornermass.harmonic.fields",
     "build_coefficients"),
    ("harmonic.fields.grad_norm", "cornermass.harmonic.fields",
     "AxisymField.grad_norm"),
    ("harmonic.fields.hessian", "cornermass.harmonic.fields",
     "spacetime_hessian"),
    ("harmonic.solver.solve", "cornermass.harmonic.solver",
     "solve_spacetime_harmonic"),
    ("harmonic.massbound.sweep", "cornermass.harmonic.massbound",
     "mass_bound_sweep"),
    ("harmonic.massbound.report", "cornermass.harmonic.massbound",
     "mass_bound_report"),
    ("harmonic.identities.boundary_check", "cornermass.harmonic.identities",
     "boundary_formula_check"),
)


class Tracer:
    def __init__(self):
        self.spans = []
        self._open = []
        self._solved = set()
        self._solve_signature = None

    def call(self, name, fn, args, kwargs, attrs=None):
        """Run fn(*args, **kwargs) inside a span named ``name``."""
        span = {"id": len(self.spans), "name": name,
                "parent": self._open[-1] if self._open else None}
        self.spans.append(span)
        self._open.append(span["id"])
        span["start"] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span["end"] = time.perf_counter()
            self._open.pop()
        if attrs is not None:
            span.update(attrs(args, kwargs, result))
        return result

    def _solve_attrs(self, args, kwargs, result):
        """Picard steps, and whether this grid was already solved in the
        same command (same scenario, grid, truncation and options)."""
        bound = self._solve_signature.bind(*args, **kwargs)
        bound.apply_defaults()
        key = []
        for name, value in bound.arguments.items():
            if name == "data":
                value = value.name
            elif name == "grid" and value is not None:
                value = (value.r.tobytes(), value.x.tobytes())
            key.append((name, repr(value)))
        key = tuple(key)
        repeat = key in self._solved
        self._solved.add(key)
        return {"picard": len(result.diagnostics["picard_changes"]),
                "repeat": int(repeat)}

    def _wrap(self, name, fn, attrs=None, skip=None):
        tracer = self

        def wrapper(*args, **kwargs):
            if skip is not None and skip(args, kwargs):
                return fn(*args, **kwargs)
            return tracer.call(name, fn, args, kwargs, attrs)

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self):
        """Wrap every target; return the span names with no target left."""
        special = {
            "numgrid.linear_solve": {"attrs": _sweeps},
            "numgrid.integrate_ode": {"attrs": _ode_steps},
            "harmonic.fields.grad_norm": {"skip": _plain_norm},
            "harmonic.solver.solve": {"attrs": self._solve_attrs},
        }
        found = set()
        for name, module, attr in TARGETS:
            owner_name, _, leaf = attr.rpartition(".")
            try:
                owner = importlib.import_module(module)
                if owner_name:
                    owner = getattr(owner, owner_name)
                fn = getattr(owner, leaf)
            except (ImportError, AttributeError):
                continue
            found.add(name)
            if name == "harmonic.solver.solve":
                self._solve_signature = inspect.signature(fn)
            wrapper = self._wrap(name, fn, **special.get(name, {}))
            if owner_name:                 # a method: patch the class
                setattr(owner, leaf, wrapper)
                continue
            for mod in list(sys.modules.values()):
                if getattr(mod, "__name__", "").startswith("cornermass"):
                    for key, value in list(vars(mod).items()):
                        if value is fn:
                            setattr(mod, key, wrapper)
        return sorted({name for name, _, _ in TARGETS} - found)
