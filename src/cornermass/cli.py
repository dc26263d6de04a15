"""Command-line front end: scenario selection, pipeline orchestration,
structured report emission and the golden-value regression harness.

Usage:
    corner-mass <constraints|massbound|quasilocal|certificate|regress>
                [--config PATH] [--out PATH] [--csv PATH]
                [--deterministic] [--filter NAME] [--golden PATH]

Options go before or after the command, each spelled in full (no
abbreviations such as ``--det``), with its value as the next argument
or after ``=`` (``--out report.json`` or ``--out=report.json``).
``-h``/``--help`` prints the usage and exits 0; any other argument line
that does not fit exits 2 with the usage and the offending argument on
stderr.

Config files are flat ``key = value`` text with ``[section]`` headers;
keys are namespaced as ``section.key``.  Reports are versioned JSON
(schema shipped in cornermass/schema/); curves export as CSV with a
header row, comma separator and decimal point.

Exit codes: 0 success / verdict pass, 1 verdict fail, 2 config error or
bad argument line, 3 numerical failure.  numpy's floating-point warnings
are off while a command runs, so a command that fails writes only its
error line to stderr; the finiteness checks decide the exit code.

Work sizes are bounded before anything is allocated: ``run.resolutions``
and ``run.n_theta`` by MAX_GRID, ``run.samples`` and the count of
``certificate.h_eff_sweep`` by MAX_ROWS; a larger count exits 2.
"""

from __future__ import annotations

import dataclasses
import gc
import json
import math
import re
import sys
import time
import types
from pathlib import Path

import numpy as np

from . import __version__
from .errors import (ConfigError, CornerMassError, DomainError,
                     HypothesisError, IntegrationDivergedError,
                     PicardStagnationError, SingularFactorError)
from . import corner, extension, geometry, masses
from .numgrid import write_csv as _write_csv
from .harmonic import (SolveOptions, build_solver_grid, mass_bound_sweep,
                       solve_spacetime_harmonic)

SCHEMA_VERSION = 1

# count bounds: MAX_GRID nodes per grid axis (the largest grid any study
# of this tool has needed is 384), MAX_ROWS sampled radii or sweep rows
MAX_GRID = 1024
MAX_ROWS = 10**6


# ---------------------------------------------------------------------------
# Config parsing
# ---------------------------------------------------------------------------

def _parse_value(text):
    low = text.strip()
    if low.lower() in ("true", "false"):
        return low.lower() == "true"
    parts = low.split()
    if len(parts) > 1:
        return [_parse_value(p) for p in parts]
    try:
        return int(low)
    except ValueError:
        pass
    try:
        return float(low)
    except ValueError:
        pass
    return low


def parse_config(path) -> dict:
    """Flat key-value text with [section] headers -> {'section.key': value}."""
    cfg = {}
    section = ""
    try:
        lines = Path(path).read_text(encoding="utf-8").splitlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}")
    for ln, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            continue
        if "=" not in line:
            raise ConfigError(f"expected 'key = value'", line=ln,
                              field=line)
        key, _, val = line.partition("=")
        key = key.strip()
        if not key:
            raise ConfigError("empty key", line=ln)
        full = f"{section}.{key}" if section else key
        cfg[full] = _parse_value(val)
    return cfg


def _get(cfg, key, default=None, required=False):
    if key in cfg:
        return cfg[key]
    if required:
        raise ConfigError(f"missing required config key {key!r}", field=key)
    return default


def _as_list(v):
    if v is None:
        return None
    return v if isinstance(v, list) else [v]


def _number(cfg, key, default=None, *, kind=float, many=False, ok=None,
            need="a finite number", required=False):
    """``cfg[key]`` (else ``default``) as a finite ``kind`` (int or float),
    or as a list of them when ``many``.  A value of another type, or one
    for which ``ok`` (given the converted value) is false, raises a
    ConfigError naming the key and what it ``need``s."""
    raw = _get(cfg, key, default, required)
    if raw is None:
        return None
    vals = _as_list(raw) if many else [raw]
    types = (int,) if kind is int else (int, float)
    if not all(isinstance(v, types) and not isinstance(v, bool)
               and math.isfinite(v) for v in vals):
        raise ConfigError(f"{key} must be {need}, not {raw!r}", field=key)
    value = [kind(v) for v in vals] if many else kind(raw)
    if ok is not None and not ok(value):
        raise ConfigError(f"{key} must be {need}, not {raw!r}", field=key)
    return value


def _positive(v):
    return v > 0


def _choice(cfg, key, default, choices):
    """``cfg[key]`` (else ``default``), which must be one of the strings
    ``choices``; any other value raises a ConfigError naming the key."""
    value = _get(cfg, key, default)
    if not (isinstance(value, str) and value in choices):
        raise ConfigError(f"{key} must be one of {', '.join(choices)}, "
                          f"not {value!r}", field=key)
    return value


def _scenario_from_config(cfg):
    name = _get(cfg, "run.scenario", required=True)
    params = {}
    for key, val in cfg.items():
        if key.startswith("scenario."):
            _number(cfg, key, many=True,
                    need="a finite number or a list of them")
            params[key.split(".", 1)[1]] = val
    try:
        data = corner.scenario_build(name, **params)
    except KeyError as exc:            # unknown scenario name
        raise ConfigError(exc.args[0], field="run.scenario")
    except (TypeError, ValueError) as exc:   # unknown or invalid parameter
        named = [k for k in params if re.search(rf"\b{re.escape(k)}\b",
                                                str(exc))]
        raise ConfigError(str(exc), field="scenario." + named[0]
                          if named else "scenario")
    topo = _get(cfg, "run.topology_trivial", data.topology_trivial)
    if not isinstance(topo, bool):
        raise ConfigError(f"run.topology_trivial must be true or false, "
                          f"not {topo!r}", field="run.topology_trivial")
    if topo != data.topology_trivial:
        data = dataclasses.replace(data, topology_trivial=topo)
    return data


# ---------------------------------------------------------------------------
# Report envelope
# ---------------------------------------------------------------------------

_encode = json.encoder.encode_basestring_ascii
_FIELD_KEYS = {}        # report dataclass -> its sorted (name, '"name": ')


def _field_keys(cls):
    """(name, its JSON key and separator) for the sorted fields of a
    dataclass; None for any other type."""
    try:
        return _FIELD_KEYS[cls]
    except KeyError:
        keys = [(n, _encode(n) + ": ") for n in
                sorted(f.name for f in dataclasses.fields(cls))] \
            if dataclasses.is_dataclass(cls) else None
        _FIELD_KEYS[cls] = keys
        return keys


def _float_text(v):
    """A float as a JSON number, NaN and the infinities as json writes
    them."""
    if math.isfinite(v):
        return float.__repr__(v)
    return "NaN" if v != v else ("Infinity" if v > 0 else "-Infinity")


def _dump(obj, nl):
    """The JSON text of a report value, indented by two spaces with sorted
    keys; ``nl`` is a newline plus the indentation of the line the value
    starts on.  Dataclasses are written field by field, arrays of more
    than 64 elements as {n, min, max} (``_float_text`` numbers), other
    arrays as lists, other non-finite floats as their repr string and
    keys as strings."""
    # floats first: they are most of every report
    if isinstance(obj, (float, np.floating)):
        v = float(obj)
        return float.__repr__(v) if math.isfinite(v) else _encode(repr(v))
    if isinstance(obj, str):
        return _encode(obj)
    inner = nl + "  "
    keys = _field_keys(type(obj))
    if keys is not None:
        items = [key + _dump(getattr(obj, n), inner) for n, key in keys]
    elif isinstance(obj, dict):
        items = [_encode(k) + ": " + _dump(v, inner) for k, v in
                 sorted({str(k): v for k, v in obj.items()}.items())]
    elif isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        return "[" + inner + ("," + inner).join(
            [_dump(v, inner) for v in obj]) + nl + "]"
    elif isinstance(obj, np.ndarray):
        if obj.size <= 64:
            return _dump(obj.tolist(), nl)
        items = [f'"max": {_float_text(float(np.max(obj)))}',
                 f'"min": {_float_text(float(np.min(obj)))}',
                 f'"n": {obj.size}']
    elif isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    elif isinstance(obj, (int, np.integer)):
        return int.__repr__(int(obj))
    elif obj is None:
        return "null"
    else:
        raise TypeError(f"Object of type {type(obj).__name__} is not JSON "
                        f"serializable")
    if not items:
        return "{}"
    return "{" + inner + ("," + inner).join(items) + nl + "}"


def make_envelope(command, cfg, reports, verdicts, t0, deterministic):
    env = {
        "schema_version": SCHEMA_VERSION,
        "tool": "corner-mass",
        "version": __version__,
        "command": command,
        "config": cfg,
        "reports": reports,
        "verdicts": verdicts,
    }
    if not deterministic:
        env["timing_seconds"] = round(time.time() - t0, 3)
    return env


def emit(envelope, out_path):
    """Write the envelope as JSON (two-space indent, sorted keys) to
    ``out_path``, or to stdout."""
    text = _dump(envelope, "\n")
    if out_path:
        Path(out_path).write_text(text + "\n", encoding="utf-8")
    else:
        print(text)


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_constraints(cfg, args):
    data = _scenario_from_config(cfg)
    samples = _number(cfg, "run.samples", 96, kind=int,
                      ok=lambda n: 2 <= n <= MAX_ROWS,
                      need=f"an integer in [2, {MAX_ROWS}]")
    tol = _number(cfg, "run.dec_tolerance", 1e-8, ok=lambda t: t >= 0,
                  need="a number >= 0")
    per_patch = []
    ok = True
    for patch in data.patches:
        try:    # too few samples clear no corner
            rep = geometry.dec_check(patch, samples=samples, tolerance=tol,
                                     exclude=data.corner_radii)
        except DomainError as exc:
            raise ConfigError(str(exc), field="run.samples")
        lo = patch.r_in if patch.r_in > 0 else 1e-3 * patch.r_out
        rs = np.linspace(lo, patch.r_out, 9)
        R, mu, J_n = geometry.constraint_densities(patch, rs)
        margin = geometry.dec_margin(mu, J_n)
        rows = [{"radius": r, "R": R_r, "mu": mu_r, "J_radial": J_r,
                 "dec_margin": m}
                for r, R_r, mu_r, J_r, m in zip(
                    rs.tolist(), R.tolist(), mu.tolist(), J_n.tolist(),
                    margin.tolist())]
        per_patch.append({"label": patch.label, "dec": rep,
                          "samples": rows})
        ok = ok and rep.verdict
    jumps = [i.jump for i in data.interfaces]
    reports = {"patches": per_patch, "corner_jumps": jumps,
               "scenario": data.name,
               "expectations": data.expectations}
    return reports, {"dec_ok": ok}, (0 if ok else 1)


def _massbound_run_keys(cfg, data):
    """The grid and asymptote keys of massbound, checked before any solve:
    (resolutions, n_theta, truncation, r_inner, direction)."""
    resolutions = _number(
        cfg, "run.resolutions", [32, 64], kind=int, many=True,
        ok=lambda ns: min(ns) >= 8 and max(ns) <= MAX_GRID and all(
            b > a for a, b in zip(ns, ns[1:])),
        need=f"strictly increasing integers in [8, {MAX_GRID}]")
    n_theta = _number(cfg, "run.n_theta", kind=int,
                      ok=lambda n: 8 <= n <= MAX_GRID,
                      need=f"an integer in [8, {MAX_GRID}]")
    L = _number(cfg, "run.truncation", 30.0, ok=_positive,
                need="a positive number")
    try:    # the grid builder judges the truncation on its smallest grid
        build_solver_grid(data, 8, 8, L)
    except ValueError as exc:
        raise ConfigError(f"truncation {L!r}: {exc}", field="run.truncation")
    r_inner = _number(cfg, "run.r_inner", ok=lambda r: 0 < r < L,
                      need=f"a positive number below the truncation {L!r}")
    if r_inner is not None:
        try:    # and then the inner radius, on the same grid
            build_solver_grid(data, 8, 8, L, r_inner)
        except ValueError as exc:
            raise ConfigError(f"run.r_inner = {r_inner!r}: {exc}",
                              field="run.r_inner")
    direction = _number(cfg, "run.direction", 1, kind=int,
                        ok=lambda d: d in (1, -1),
                        need="1 or -1 (the +z or -z asymptote)")
    return resolutions, n_theta, L, r_inner, direction


def cmd_massbound(cfg, args):
    data = _scenario_from_config(cfg)
    if any(i.omega_minus[1] or i.omega_plus[1] for i in data.interfaces):
        raise ConfigError("the axisymmetric grid has no tangential omega "
                          "at a corner", field="scenario.omega_tan")
    resolutions, n_theta, L, r_inner, direction = _massbound_run_keys(
        cfg, data)
    delta = _number(cfg, "run.delta", 1e-2, ok=_positive,
                    need="a positive number")
    picard_tol = _number(cfg, "run.picard_tol", 1e-9, ok=_positive,
                         need="a positive number")
    radii = _number(cfg, "run.adm_radii", [50.0, 100.0, 200.0], many=True,
                    ok=lambda rs: masses.geometric_ratio(rs) is not None,
                    need="a strictly increasing geometric list of two or "
                    "more positive radii")
    try:
        adm = masses.adm_energy_momentum(data, radii)
    except DomainError as exc:
        raise ConfigError(f"run.adm_radii: {exc}", field="run.adm_radii")
    opts = SolveOptions(delta=delta, direction=direction,
                        picard_tol=picard_tol)
    rep, finest = mass_bound_sweep(
        data, adm, resolutions=resolutions, n_theta=n_theta, L=L,
        r_inner=r_inner, options=opts)
    verdicts = {
        "slack_nonnegative": rep.verdict,
        "corner_hypothesis_violated": rep.corner_hypothesis_violated,
    }
    reports = {"adm": adm, "massbound": rep, "slack": rep.slack,
               "tolerance": rep.tolerance, "scenario": data.name}
    if args.csv:
        finest.to_csv(args.csv)
    return reports, verdicts, (0 if rep.verdict else 1)


def cmd_quasilocal(cfg, args):
    data = _scenario_from_config(cfg)
    r0 = _number(cfg, "quasilocal.r0", ok=lambda r: r > 0 and math.isfinite(
        (2.0 / r) * (2.0 / r)), need="a positive radius whose round "
        "curvature (2/r0)^2 is finite", required=True)
    side = _choice(cfg, "quasilocal.side", "auto",
                   ("auto", "minus", "plus"))
    omega_tan = _number(cfg, "quasilocal.omega_tan", 0.0)
    try:
        ql = masses.quasilocal(data, r0, side=side, omega_tan=omega_tan)
    except DomainError as exc:         # r0 outside the data or on a corner
        key = "quasilocal.side" if side == "auto" and data.is_corner(r0) \
            else "quasilocal.r0"
        raise ConfigError(f"{key}: {exc}", field=key)
    reports = {"quasilocal": ql, "scenario": data.name}
    verdicts = {"W_nonnegative": ql.W >= -1e-12}
    pipe = None
    if ql.hypothesis_H_gt_omega:
        pipe = extension.quasilocal_pipeline(
            r0, ql.H, omega_nn=-ql.tr_sigma_k, omega_tan=omega_tan)
        reports["pipeline"] = {
            "W": pipe.W, "E_ext": pipe.E_ext,
            "corner_jump": pipe.corner_jump,
            "lapse0": pipe.extension.lapse0,
            "q_limit": pipe.extension.q_limit,
            "E_ext_far": pipe.extension.E_ext_far,
        }
        verdicts["chain_W_ge_E_ext"] = pipe.chain_ok
        verdicts["corner_jump_zero"] = abs(pipe.corner_jump) <= 1e-10
    hull = _number(cfg, "quasilocal.hull_radii", many=True,
                   ok=lambda rs: min(rs) > 0, need="positive radii")
    if hull is not None:
        try:
            comp = masses.comparison_check(ql, data, hull)
        except DomainError as exc:
            raise ConfigError(f"quasilocal.hull_radii: {exc}",
                              field="quasilocal.hull_radii")
        reports["comparison"] = comp
        verdicts["comparison_applicable"] = comp.applicable
        verdicts["comparison_ok"] = comp.all_ok
    if args.csv and pipe is not None:
        ext = pipe.extension
        _write_csv(args.csv, ("r", "f", "Q"),
                   (ext.radii, ext.f_samples, ext.q_samples))
    ok = all(v for k, v in verdicts.items()
             if k in ("W_nonnegative", "chain_W_ge_E_ext", "comparison_ok"))
    return reports, verdicts, (0 if ok else 1)


def cmd_certificate(cfg, args):
    r0 = _number(cfg, "certificate.r0", 1.0, ok=_positive,
                 need="a positive radius")
    H = _number(cfg, "certificate.H")
    tr_alpha = _number(cfg, "certificate.tr_alpha", 0.0)
    beta_abs = _number(cfg, "certificate.beta", 0.0)
    sweep = _number(cfg, "certificate.h_eff_sweep", many=True,
                    ok=lambda v: len(v) == 3
                    and v[2] == int(v[2]) and 1 <= v[2] <= MAX_ROWS,
                    need=f"'lo hi n' with a count n in [1, {MAX_ROWS}]")
    if sweep is None and H is None:
        raise ConfigError("need certificate.H or certificate.h_eff_sweep",
                          field="certificate.H")
    f_b = np.hypot(tr_alpha, beta_abs)
    Hs = [H] if sweep is None else [float(h_eff) + f_b for h_eff in
                                    np.linspace(sweep[0], sweep[1],
                                                int(sweep[2]))]
    # every row's E_ext = (r0/2)(1 - (h_eff r0/2)^2), 0 < h_eff <= H,
    # must be a float
    h = float(max(map(abs, Hs)))
    if not math.isfinite(r0 * (h * r0 / 2.0) * (h * r0 / 2.0)):
        key = "certificate.r0" if r0 > h else "certificate.H" \
            if sweep is None else "certificate.h_eff_sweep"
        raise ConfigError(f"{key}: E_ext overflows at r0 = {r0!r}, H up "
                          f"to {h!r}", field=key)
    rows = [extension.fillin_certificate(r0, H_row, tr_alpha, beta_abs)
            for H_row in Hs]
    n_cert = sum(1 for v in rows if v.certified)
    reports = {"certificates": rows, "n_certified": n_cert,
               "threshold_H_minus_f": 2.0 / r0}
    if args.csv:
        _write_csv(args.csv, ("h_eff", "E_ext", "certified"),
                   ([v.H - v.bartnik_f for v in rows], [v.E_ext for v in rows],
                    [v.certified for v in rows]))
    return reports, {"any_certified": n_cert > 0}, 0


def _default_golden_path():
    return Path(__file__).parent / "goldens" / "golden.json"


def compute_golden_values():
    """Fast golden quantities recomputed on every regress run."""
    vals = {}
    sw = corner.scenario_build("schwarzschild", m=1.0)
    adm = masses.adm_energy_momentum(sw, [50.0, 100.0, 200.0])
    vals["schwarzschild.E_flux"] = adm.E
    vals["schwarzschild.E_misner_sharp"] = adm.misner_sharp
    vals["schwarzschild.P_norm"] = adm.P_norm
    vals["schwarzschild.hawking_r5"] = masses.hawking_mass(sw, 5.0)
    vals["schwarzschild.brown_york_r4"] = masses.quasilocal(sw, 4.0).m_BY
    ng = corner.scenario_build("hyperbolic_negschw")
    admn = masses.adm_energy_momentum(ng, [50.0, 100.0, 200.0])
    vals["hyperbolic_negschw.E_flux"] = admn.E
    vals["hyperbolic_negschw.jump"] = ng.interfaces[0].jump
    vals["hyperbolic_negschw.dec_margin"] = min(
        geometry.dec_check(p, exclude=ng.corner_radii).min_margin
        for p in ng.patches)
    iso = corner.scenario_build("isotropic_schwarzschild", m=1.0)
    msph = masses.minimal_sphere(iso)
    vals["isotropic.minimal_sphere_s"] = msph.coordinate
    vals["isotropic.minimal_sphere_area"] = msph.area
    ext = extension.shi_tam_extend(1.0, 3.0)
    vals["shi_tam.E_ext_heff3"] = ext.E_ext
    vals["shi_tam.q_limit_heff3"] = ext.q_limit
    pipe = extension.quasilocal_pipeline(1.0, 2.0, omega_tan=1.0)
    vals["pipeline.W"] = pipe.W
    vals["pipeline.E_ext"] = pipe.E_ext
    vals["pipeline.jump"] = pipe.corner_jump
    cert = extension.fillin_certificate(1.0, 2.0)
    vals["certificate.E_ext_boundary_case"] = cert.E_ext

    from .harmonic import (AxisymField, boundary_formula_check,
                           build_coefficients, mass_bound_report,
                           spacetime_hessian)
    flat = corner.scenario_build("flat")
    adm0 = masses.adm_energy_momentum(flat, [50.0, 100.0, 200.0])
    fld = solve_spacetime_harmonic(flat, n_r=32, n_theta=32, L=15.0)
    vals["massbound.flat_slack"] = mass_bound_report(fld, adm0).slack
    closures = {
        "u": lambda r, x: r * x,
        "u_r": lambda r, x: np.asarray(x, float),
        "u_x": lambda r, x: np.full_like(np.asarray(x, float), r),
        "u_rr": lambda r, x: np.zeros_like(np.asarray(x, float)),
        "u_rx": lambda r, x: np.ones_like(np.asarray(x, float)),
        "u_xx": lambda r, x: np.zeros_like(np.asarray(x, float)),
    }
    inj = AxisymField(fld.coeffs, fld.values, closures=closures)
    rep5 = boundary_formula_check(inj, 1.0)
    vals["identity.flat_sphere_residual"] = rep5.lhs - rep5.rhs
    # full - pure = |grad u| k holds node by node for every field, so the
    # K != 0 grid's asymptote field checks it with no solve
    cng = build_coefficients(ng, build_solver_grid(ng, 24, 24, 10.0))
    hes = spacetime_hessian(AxisymField(cng, np.outer(cng.rho, cng.grid.x)))
    dev = 0.0
    for comp, kk in (("rr", cng.a), ("tt", cng.b), ("pp", cng.b)):
        dev = max(dev, float(np.max(np.abs(
            hes.full[comp] - hes.pure[comp] - hes.grad_norm * kk[:, None]))))
    vals["hessian.construction_dev"] = dev
    return vals


def cmd_regress(cfg, args):
    golden_path = Path(args.golden) if args.golden else _default_golden_path()
    try:
        golden = json.loads(golden_path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise ConfigError(f"cannot read golden file: {exc}")
    vals = compute_golden_values()
    rows = []
    ok = True
    for name, entry in sorted(golden["values"].items()):
        if args.filter and args.filter not in name:
            continue
        if name not in vals:
            rows.append({"name": name, "status": "MISSING"})
            ok = False
            continue
        got = vals[name]
        want = entry["value"]
        tol = entry["tol"]
        passed = abs(got - want) <= tol
        ok = ok and passed
        rows.append({"name": name, "want": want, "got": got, "tol": tol,
                     "diff": got - want,
                     "status": "pass" if passed else "FAIL"})
    width = max((len(r["name"]) for r in rows), default=10)
    for r in rows:
        if "got" in r:
            print(f"{r['name']:<{width}}  {r['status']:>4}  "
                  f"got={r['got']:+.12e}  want={r['want']:+.12e}  "
                  f"tol={r['tol']:.1e}")
        else:
            print(f"{r['name']:<{width}}  {r['status']}")
    print(f"{'-' * width}\n{sum(1 for r in rows if r['status'] == 'pass')}"
          f"/{len(rows)} pass")
    return {"table": rows}, {"all_pass": ok}, (0 if ok else 1)


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

_COMMANDS = {
    "constraints": cmd_constraints,
    "massbound": cmd_massbound,
    "quasilocal": cmd_quasilocal,
    "certificate": cmd_certificate,
    "regress": cmd_regress,
}


USAGE = """\
usage: corner-mass <constraints|massbound|quasilocal|certificate|regress>
                   [--config PATH] [--out PATH] [--csv PATH]
                   [--deterministic] [--filter NAME] [--golden PATH]"""

HELP = USAGE + """

Numerics for asymptotically flat initial data with corners: constraints,
the mass inequality, quasilocal energies, extensions and fill-in
certificates.

options (each as --name VALUE or --name=VALUE, before or after the command):
  --config PATH     key = value config file
  --out PATH        write the JSON report here
  --csv PATH        write curve/field CSV here (massbound: field
                    (r,theta,u,|grad u|); quasilocal: extension (r,f,Q);
                    certificate: sweep)
  --deterministic   byte-stable output: no timings
  --filter NAME     regress: only names containing this
  --golden PATH     regress: alternative golden file
  -h, --help        show this help and exit"""

_VALUE_OPTIONS = ("--config", "--out", "--csv", "--filter", "--golden")


class UsageError(ValueError):
    """A command line that ``parse_args`` does not accept."""


def parse_args(argv):
    """The command and options of a ``corner-mass`` argument list, as a
    namespace with ``command``, ``deterministic`` and the five value
    options (None when not given), or None for ``-h``/``--help``.
    Options are spelled in full, before or after the command; a value
    follows as the next argument or after ``=``.  Anything else raises
    UsageError naming the argument."""
    args = types.SimpleNamespace(
        command=None, deterministic=False,
        **{opt[2:]: None for opt in _VALUE_OPTIONS})
    pending = iter(argv)
    for arg in pending:
        if arg in ("-h", "--help"):
            return None
        if not arg.startswith("-"):
            if args.command is not None:
                raise UsageError(f"unexpected argument {arg!r}")
            if arg not in _COMMANDS:
                raise UsageError(f"unknown command {arg!r}")
            args.command = arg
            continue
        name, eq, value = arg.partition("=")
        if name == "--deterministic" and not eq:
            args.deterministic = True
        elif name in _VALUE_OPTIONS:
            if not eq:
                value = next(pending, None)
                if value is None or value.startswith("-"):
                    raise UsageError(f"option {name} needs a value")
            setattr(args, name[2:], value)
        else:
            raise UsageError(f"unknown option {arg!r}")
    if args.command is None:
        raise UsageError("missing command")
    return args


def main(argv=None):
    try:
        args = parse_args(sys.argv[1:] if argv is None else argv)
    except UsageError as exc:
        print(f"{USAGE}\ncorner-mass: error: {exc}", file=sys.stderr)
        return 2
    if args is None:
        print(HELP)
        return 0

    t0 = time.time()
    cfg = {}
    # collections during the command skip the imports' objects, so its
    # time does not hang on where the collector's counters stood then
    gc.freeze()
    try:
        # overflow and invalid values warn nowhere: the finiteness checks
        # turn them into exit 3, with one error line on stderr
        with np.errstate(all="ignore"):
            if args.config:
                cfg = parse_config(args.config)
            reports, verdicts, code = _COMMANDS[args.command](cfg, args)
            emit(make_envelope(args.command, cfg, reports, verdicts, t0,
                               args.deterministic), args.out)
        return code
    except ConfigError as exc:
        loc = f" (line {exc.line})" if exc.line else ""
        key = f"{exc.field}: " if exc.field and exc.field not in str(exc) \
            else ""
        print(f"config error{loc}: {key}{exc}", file=sys.stderr)
        return 2
    except (SingularFactorError, PicardStagnationError,
            IntegrationDivergedError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except HypothesisError as exc:
        print(f"hypothesis failure: {exc}", file=sys.stderr)
        return 3
    except CornerMassError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    finally:
        gc.unfreeze()


if __name__ == "__main__":
    sys.exit(main())
