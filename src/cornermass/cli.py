"""Command-line front end: scenario selection, pipeline orchestration,
structured report emission and the golden-value regression harness.

Usage:
    corner-mass <constraints|massbound|quasilocal|certificate|regress>
                [--config PATH] [--out PATH] [--csv PATH]
                [--deterministic] [--filter NAME] [--golden PATH]

Config files are flat ``key = value`` text with ``[section]`` headers;
keys are namespaced as ``section.key``.  Reports are versioned JSON
(schema shipped in cornermass/schema/); curves export as CSV with a
header row, comma separator and decimal point.

Exit codes: 0 success / verdict pass, 1 verdict fail, 2 config error,
3 numerical failure.
"""

from __future__ import annotations

import argparse
import csv as _csv
import dataclasses
import json
import math
import re
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .errors import (ConfigError, CornerMassError, HypothesisError,
                     IntegrationDivergedError, PicardStagnationError,
                     SingularFactorError)
from . import corner, extension, geometry, masses
from .harmonic import (SolveOptions, build_solver_grid, mass_bound_sweep,
                       solve_spacetime_harmonic)

SCHEMA_VERSION = 1


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


def _scenario_from_config(cfg):
    name = _get(cfg, "run.scenario", required=True)
    params = {}
    for key, val in cfg.items():
        if key.startswith("scenario."):
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
    topo = _get(cfg, "run.topology_trivial")
    if topo is not None and bool(topo) != data.topology_trivial:
        data = dataclasses.replace(data, topology_trivial=bool(topo))
    return data


# ---------------------------------------------------------------------------
# Report envelope
# ---------------------------------------------------------------------------

def _jsonable(obj):
    # floats first: they are most of every report
    if isinstance(obj, (float, np.floating)):
        v = float(obj)
        return v if math.isfinite(v) else repr(v)
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        # field by field: dataclasses.asdict would deep-copy every value
        # first, which costs more than the whole certificate sweep
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


def make_envelope(command, cfg, reports, verdicts, t0, deterministic):
    env = {
        "schema_version": SCHEMA_VERSION,
        "tool": "corner-mass",
        "version": __version__,
        "command": command,
        "config": _jsonable(cfg),
        "reports": _jsonable(reports),
        "verdicts": _jsonable(verdicts),
    }
    if not deterministic:
        env["timing_seconds"] = round(time.time() - t0, 3)
    return env


def emit(envelope, out_path):
    text = json.dumps(envelope, indent=2, sort_keys=True)
    if out_path:
        Path(out_path).write_text(text + "\n", encoding="utf-8")
    else:
        print(text)


def _write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        wr = _csv.writer(fh)
        wr.writerow(header)
        for row in rows:
            wr.writerow([repr(float(v)) for v in row])


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_constraints(cfg, args):
    data = _scenario_from_config(cfg)
    samples = _number(cfg, "run.samples", 96, kind=int,
                      ok=lambda n: n >= 2, need="an integer >= 2")
    tol = _number(cfg, "run.dec_tolerance", 1e-8, ok=lambda t: t >= 0,
                  need="a number >= 0")
    per_patch = []
    ok = True
    for patch in data.patches:
        rep = geometry.dec_check(patch, samples=samples, tolerance=tol,
                                 exclude=data.corner_radii)
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
        ok=lambda ns: min(ns) >= 8 and all(
            b > a for a, b in zip(ns, ns[1:])),
        need="strictly increasing integers >= 8")
    n_theta = _number(cfg, "run.n_theta", kind=int, ok=lambda n: n >= 8,
                      need="an integer >= 8")
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
    resolutions, n_theta, L, r_inner, direction = _massbound_run_keys(
        cfg, data)
    delta = _number(cfg, "run.delta", 1e-2, ok=_positive,
                    need="a positive number")
    picard_tol = _number(cfg, "run.picard_tol", 1e-9, ok=_positive,
                         need="a positive number")
    radii = _number(cfg, "run.adm_radii", [50.0, 100.0, 200.0], many=True,
                    ok=lambda rs: len(rs) >= 2 and min(rs) > 0
                    and rs == sorted(rs),
                    need="an increasing list of two or more positive radii")
    adm = masses.adm_energy_momentum(data, radii)
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
    r0 = _number(cfg, "quasilocal.r0", ok=_positive,
                 need="a positive radius", required=True)
    side = _get(cfg, "quasilocal.side", "auto")
    omega_tan = _number(cfg, "quasilocal.omega_tan", 0.0)
    ql = masses.quasilocal(data, r0, side=side, omega_tan=omega_tan)
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
        comp = masses.comparison_check(ql, data, hull)
        reports["comparison"] = comp
        verdicts["comparison_applicable"] = comp.applicable
        verdicts["comparison_ok"] = comp.all_ok
    if args.csv and pipe is not None:
        ext = pipe.extension
        _write_csv(args.csv, ["r", "f", "Q"],
                   zip(ext.radii, ext.f_samples, ext.q_samples))
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
                    ok=lambda v: len(v) == 3 and v[2] == int(v[2]) >= 1,
                    need="'lo hi n' with a count n >= 1")
    rows = []
    if sweep is not None:
        lo, hi, n = sweep
        values = np.linspace(lo, hi, int(n))
        for h_eff in values:
            v = extension.fillin_certificate(r0, float(h_eff) + np.hypot(
                tr_alpha, beta_abs), tr_alpha, beta_abs)
            rows.append(v)
    else:
        if H is None:
            raise ConfigError("need certificate.H or certificate.h_eff_sweep",
                              field="certificate.H")
        rows.append(extension.fillin_certificate(r0, H, tr_alpha,
                                                 beta_abs))
    n_cert = sum(1 for v in rows if v.certified)
    reports = {"certificates": rows, "n_certified": n_cert,
               "threshold_H_minus_f": 2.0 / r0}
    if args.csv:
        _write_csv(args.csv, ["h_eff", "E_ext", "certified"],
                   [(v.H - v.bartnik_f, v.E_ext, float(v.certified))
                    for v in rows])
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

    from .harmonic import (boundary_formula_check, mass_bound_report,
                           spacetime_hessian)
    from .harmonic.fields import AxisymField
    flat = corner.scenario_build("flat")
    adm0 = masses.adm_energy_momentum(flat, [50.0, 100.0, 200.0])
    fld = solve_spacetime_harmonic(flat, n_r=32, n_theta=32, L=15.0)
    vals["massbound.flat_slack"] = mass_bound_report(flat, fld, adm0).slack
    closures = {
        "u": lambda r, x: r * x,
        "u_r": lambda r, x: np.asarray(x, float),
        "u_x": lambda r, x: np.full_like(np.asarray(x, float), r),
        "u_rr": lambda r, x: np.zeros_like(np.asarray(x, float)),
        "u_rx": lambda r, x: np.ones_like(np.asarray(x, float)),
        "u_xx": lambda r, x: np.zeros_like(np.asarray(x, float)),
    }
    inj = AxisymField(fld.coeffs, fld.values, closures=closures)
    rep5 = boundary_formula_check(flat, inj, 1.0)
    vals["identity.flat_sphere_residual"] = rep5.lhs - rep5.rhs
    fng = solve_spacetime_harmonic(ng, n_r=24, n_theta=24, L=10.0)
    hes = spacetime_hessian(fng)
    gn = fng.grad_norm_plain()
    dev = 0.0
    for comp, kk in (("rr", fng.coeffs.a), ("tt", fng.coeffs.b),
                     ("pp", fng.coeffs.b)):
        dev = max(dev, float(np.max(np.abs(
            hes.full[comp] - hes.pure[comp] - gn * kk[:, None]))))
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


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="corner-mass",
        description="Numerics for asymptotically flat initial data with "
                    "corners: constraints, the mass inequality, quasilocal "
                    "energies, extensions and fill-in certificates.")
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("--config", help="key = value config file")
    parser.add_argument("--out", help="write the JSON report here")
    parser.add_argument("--csv", help="write curve/field CSV here "
                        "(massbound: field (r,theta,u,|grad u|); "
                        "quasilocal: extension (r,f,Q); certificate: sweep)")
    parser.add_argument("--deterministic", action="store_true",
                        help="byte-stable output: no timings")
    parser.add_argument("--filter", help="regress: only names containing this")
    parser.add_argument("--golden", help="regress: alternative golden file")
    args = parser.parse_args(argv)

    t0 = time.time()
    cfg = {}
    try:
        if args.config:
            cfg = parse_config(args.config)
        reports, verdicts, code = _COMMANDS[args.command](cfg, args)
    except ConfigError as exc:
        loc = f" (line {exc.line})" if exc.line else ""
        print(f"config error{loc}: {exc}", file=sys.stderr)
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
    envelope = make_envelope(args.command, cfg, reports, verdicts, t0,
                             args.deterministic)
    emit(envelope, args.out)
    return code


if __name__ == "__main__":
    sys.exit(main())
