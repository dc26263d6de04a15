"""Benchmark of the corner-mass command line.

    python3 bench/run.py [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]

Without ``--workload`` every workload runs in turn.  A run first imports
``cornermass.cli`` in a few fresh processes (set-up time), then repeats
whole passes through the workload's commands until ``--seconds`` would be
exceeded.  Each command runs in a fresh single-threaded Python process
(``child.py``), as a user runs the CLI, and its outputs are checked
against closed forms (``checks.py``).  The first pass whose outputs all
pass also feeds the checks' self-tests.

With ``--trace 0`` the run reports the end-to-end metrics.  With
``--trace 1`` it alternates untraced and traced passes and reports the
per-layer metrics of the traced passes (spans recorded by ``tracer.py``)
and the tracing overhead; the spans are written to
``bench/out/<workload>-seed<N>.trace.json`` when the run ends.  The last
line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

import argparse
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402

DEFAULT_SEED = 1
SETUP_PROBES = 5
COMMAND_TIMEOUT_S = 120
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

class Command:
    """One CLI invocation: arguments, config text and the output check."""

    def __init__(self, label, args, config, check, *check_args):
        self.label = label
        self.args = args
        self.config = config
        self.check = check
        self.check_args = check_args

    def argv(self):
        argv = list(self.args)
        if self.config is not None:
            argv += ["--config", f"{self.label}.cfg"]
        return argv + ["--out", f"{self.label}.json"]


def _certificate_sweep(rng, n=120):
    """r0 and a sweep of n h_eff values around 2/r0, no node near it."""
    while True:
        r0 = rng.uniform(0.5, 2.5)
        threshold = 2.0 / r0
        lo = threshold * rng.uniform(0.3, 0.7)
        hi = threshold * rng.uniform(1.3, 1.9)
        step = (hi - lo) / (n - 1)
        nodes = [lo + i * step for i in range(n)]
        if min(abs(h - threshold) for h in nodes) > 0.1 * step:
            return r0, lo, hi, nodes


def workload_commands(name, seed):
    rng = random.Random(seed)
    if name == "massbound-negschw":
        cmd = Command("negschw", ["massbound", "--csv", "negschw.csv"],
                      "[run]\nscenario = hyperbolic_negschw\n"
                      "resolutions = 32 48\ntruncation = 30\n",
                      checks.check_massbound_negschw)
        return [cmd]
    if name == "massbound-schwarzschild":
        return [Command("schwarzschild", ["massbound"],
                        "[run]\nscenario = schwarzschild\n"
                        "resolutions = 32 64 128\ntruncation = 40\n"
                        "[scenario]\nm = 1.0\n",
                        checks.check_massbound_schwarzschild)]
    if name == "certificate-sweep":
        r0, lo, hi, nodes = _certificate_sweep(rng)
        return [Command("certificate", ["certificate"],
                        f"[certificate]\nr0 = {r0!r}\n"
                        f"h_eff_sweep = {lo!r} {hi!r} {len(nodes)}\n",
                        checks.check_certificate, r0, nodes)]
    if name == "quick-commands":
        r0 = rng.uniform(4.0, 12.0)
        return [
            Command("regress", ["regress"], None, checks.check_regress),
            Command("constraints", ["constraints"],
                    "[run]\nscenario = hyperbolic_negschw\n",
                    checks.check_constraints_negschw),
            Command("quasilocal", ["quasilocal"],
                    "[run]\nscenario = schwarzschild\n[scenario]\nm = 1.0\n"
                    f"[quasilocal]\nr0 = {r0!r}\nhull_radii = 2.6 3.0 3.5\n",
                    checks.check_quasilocal_schwarzschild, r0),
        ]
    raise KeyError(name)


WORKLOADS = ("massbound-negschw", "massbound-schwarzschild",
             "certificate-sweep", "quick-commands")


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

END_TO_END = (("setup_s", "s"), ("pass_s", "s"), ("peak_rss_mb", "MB"))

# per-layer metric -> (span name, what: time | self | calls | attribute)
LAYERS = {
    "numgrid.linear_solve_s": ("numgrid.linear_solve", "time"),
    "numgrid.linear_solve_calls": ("numgrid.linear_solve", "calls"),
    "numgrid.relaxation_sweeps": ("numgrid.linear_solve", "sweeps"),
    "harmonic.solver.solve_s": ("harmonic.solver.solve", "time"),
    "harmonic.solver.solve_self_s": ("harmonic.solver.solve", "self"),
    "harmonic.solver.solve_calls": ("harmonic.solver.solve", "calls"),
    "harmonic.solver.picard_iterations": ("harmonic.solver.solve", "picard"),
    "harmonic.solver.repeat_solves": ("harmonic.solver.solve", "repeat"),
    "harmonic.fields.grid_s": ("harmonic.fields.grid", "time"),
    "harmonic.fields.grad_norm_s": ("harmonic.fields.grad_norm", "time"),
    "harmonic.fields.grad_norm_calls": ("harmonic.fields.grad_norm", "calls"),
    "harmonic.fields.hessian_s": ("harmonic.fields.hessian", "time"),
    "harmonic.fields.hessian_calls": ("harmonic.fields.hessian", "calls"),
    "harmonic.massbound.report_s": ("harmonic.massbound.report", "time"),
    "harmonic.massbound.report_calls": ("harmonic.massbound.report", "calls"),
    "harmonic.identities.boundary_check_s": (
        "harmonic.identities.boundary_check", "time"),
    "masses.adm_s": ("masses.adm", "time"),
    "masses.quasilocal_s": ("masses.quasilocal", "time"),
    "geometry.dec_check_s": ("geometry.dec_check", "time"),
    "corner.scenario_build_s": ("corner.scenario_build", "time"),
    "extension.certificate_s": ("extension.certificate", "time"),
    "extension.shi_tam_extend_s": ("extension.shi_tam_extend", "time"),
    "extension.shi_tam_extend_calls": ("extension.shi_tam_extend", "calls"),
    "numgrid.integrate_ode_s": ("numgrid.integrate_ode", "time"),
    "numgrid.ode_steps": ("numgrid.integrate_ode", "steps"),
    "cli.config_s": ("cli.config", "time"),
    "cli.envelope_s": ("cli.envelope", "time"),
    "cli.csv_s": ("cli.csv", "time"),
}


def layer_metrics(spans):
    """Per-layer figures of one traced pass.  ``time`` counts a span only
    when no enclosing span has the same name; ``self`` subtracts the time
    covered by the span's children."""
    by_id = {s["id"]: s for s in spans}
    child_time = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] += s["end"] - s["start"]

    def nested_in_same(s):
        p = s["parent"]
        while p is not None:
            if by_id[p]["name"] == s["name"]:
                return True
            p = by_id[p]["parent"]
        return False

    values = {}
    for metric, (name, what) in LAYERS.items():
        mine = [s for s in spans if s["name"] == name]
        if what == "time":
            v = sum(s["end"] - s["start"] for s in mine
                    if not nested_in_same(s))
        elif what == "self":
            v = sum(s["end"] - s["start"] - child_time[s["id"]] for s in mine)
        elif what == "calls":
            v = len(mine)
        else:
            v = sum(s[what] for s in mine)
        values[metric] = v
    return values


TOLERANCE = "harmonic.massbound.tolerance"


def _unit(metric):
    if metric == TOLERANCE:
        return "length"
    return "s" if metric.endswith("_s") else "count"


def stated_tolerance(outputs):
    """Largest error bar a massbound report of the pass states (grid +
    truncation, lengths in G = c = 1); 0 when the pass has none."""
    return max((o["report"]["reports"]["tolerance"] for o in outputs
                if o is not None and "tolerance" in o["report"]["reports"]),
               default=0.0)


# ---------------------------------------------------------------------------
# Running commands
# ---------------------------------------------------------------------------

def child_env():
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env.pop("CORNER_MASS_THREADS", None)
    env.pop("PYTHONPATH", None)
    return env


def run_child(work, child_args, cli_args=()):
    """Run child.py in ``work``; return its record, or None if it died."""
    result = work / "child-result.json"
    result.unlink(missing_ok=True)
    argv = [sys.executable, str(BENCH / "child.py"), "--result", str(result),
            *child_args, "--", *cli_args]
    try:
        proc = subprocess.run(argv, cwd=work, env=child_env(),
                              capture_output=True, text=True,
                              timeout=COMMAND_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None, f"timed out after {COMMAND_TIMEOUT_S} s"
    if proc.returncode != 0 or not result.exists():
        return None, proc.stderr.strip()[-2000:]
    return json.loads(result.read_text(encoding="utf-8")), None


def read_outputs(work, cmd):
    report = json.loads((work / f"{cmd.label}.json").read_text("utf-8"))
    rows = None
    csv_path = work / f"{cmd.label}.csv"
    if "--csv" in cmd.args:
        lines = csv_path.read_text("utf-8").splitlines()[1:]
        rows = [[float(v) for v in line.split(",")] for line in lines]
    return {"report": report, "csv": rows}


def run_pass(cmds, work, pass_id, traced, notes):
    """One pass through the commands.  Returns (main_s, rss_mb,
    import samples, spans, failures, outputs)."""
    main_s, rss, imports, spans, failures, outputs = 0.0, 0.0, [], [], [], []
    for k, cmd in enumerate(cmds):
        for stale in work.glob(f"{cmd.label}.*"):
            if stale.suffix != ".cfg":
                stale.unlink()
        rec, err = run_child(work, ["--trace", str(int(traced))], cmd.argv())
        if rec is None:
            failures.append(f"{cmd.label}: process failed: {err}")
            outputs.append(None)
            continue
        main_s += rec["main_s"]
        rss = max(rss, rec["rss_mb"])
        imports.append(rec["import_s"])
        for name in rec.get("missing", ()):
            notes.add(name)
        for s in rec.get("spans", ()):
            s = dict(s, id=f"{pass_id}.{k}.{s['id']}", **{"pass": pass_id})
            if s["parent"] is not None:
                s["parent"] = f"{pass_id}.{k}.{s['parent']}"
            spans.append(s)
        if rec["error"] is not None or rec["rc"] != 0:
            failures.append(f"{cmd.label}: exit {rec['rc']} "
                            f"{(rec['error'] or '').strip()[-2000:]}")
            outputs.append(None)
            continue
        out = read_outputs(work, cmd)
        bad = cmd.check(out, *cmd.check_args)
        if bad:
            more = f" (+{len(bad) - 3} more)" if len(bad) > 3 else ""
            failures.append(f"{cmd.label}: " + "; ".join(bad[:3]) + more)
            outputs.append(None)
            continue
        outputs.append(out)
    return main_s, rss, imports, spans, failures, outputs


# ---------------------------------------------------------------------------
# One run
# ---------------------------------------------------------------------------

def run_workload(name, seed, seconds, traced):
    cmds = workload_commands(name, seed)
    OUT.mkdir(exist_ok=True)
    work = OUT / f"work-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir()
    try:
        return _run(name, seed, seconds, traced, cmds, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _run(name, seed, seconds, traced, cmds, work):
    for cmd in cmds:
        if cmd.config is not None:
            (work / f"{cmd.label}.cfg").write_text(cmd.config, "utf-8")

    # set-up: one warm-up import (byte-code cache), then timed probes
    imports = []
    for i in range(SETUP_PROBES + 1):
        rec, err = run_child(work, ["--import-only"])
        if rec is None:
            raise RuntimeError(f"cannot import cornermass.cli: {err}")
        if i:
            imports.append(rec["import_s"])

    notes = set()
    samples = {True: [], False: []}     # traced? -> per-pass records
    attempted, failures, blind = 0, [], None
    t_start = time.perf_counter()
    pass_id = 0
    while True:
        # trace runs alternate untraced and traced passes
        tr = traced and pass_id % 2 == 1
        t0 = time.perf_counter()
        main_s, rss, imp, spans, fails, outputs = run_pass(
            cmds, work, pass_id, tr, notes)
        wall = time.perf_counter() - t0
        attempted += len(cmds)
        failures += fails
        samples[tr].append({"pass_s": main_s, "peak_rss_mb": rss,
                            "imports": imp, "spans": spans,
                            "tolerance": stated_tolerance(outputs)})
        if not tr:
            imports += imp
        if blind is None and all(o is not None for o in outputs):
            blind = [f"self-test: {cmd.check.__name__} accepts {p}"
                     for cmd, out in zip(cmds, outputs)
                     for p in checks.self_test(cmd.check, out,
                                               *cmd.check_args)]
        pass_id += 1
        elapsed = time.perf_counter() - t_start
        need = 2 if traced else 1
        if pass_id >= need and elapsed + wall > seconds:
            break

    failures += blind or []
    result = {"correct": not failures, "attempted": attempted,
              "failed": len(failures) - len(blind or [])}
    untraced = samples[False]
    if not traced:
        metrics = {
            "setup_s": statistics.median(imports),
            "pass_s": statistics.median(s["pass_s"] for s in untraced),
            "peak_rss_mb": statistics.median(
                s["peak_rss_mb"] for s in untraced),
        }
        units = dict(END_TO_END)
    else:
        per_pass = [layer_metrics(s["spans"]) for s in samples[True]]
        metrics = {m: statistics.median(p[m] for p in per_pass)
                   for m in LAYERS if LAYERS[m][0] not in notes}
        metrics[TOLERANCE] = statistics.median(
            s["tolerance"] for s in samples[True])
        metrics["trace.overhead_s"] = (
            statistics.median(s["pass_s"] for s in samples[True])
            - statistics.median(s["pass_s"] for s in untraced))
        units = {m: _unit(m) for m in metrics}
        trace = {"workload": name, "seed": seed,
                 "missing": sorted(notes),
                 "spans": [s for p in samples[True] for s in p["spans"]]}
        (OUT / f"{name}-seed{seed}.trace.json").write_text(
            json.dumps(trace), "utf-8")
    result["metrics"] = {m: {"value": v, "unit": units[m]}
                         for m, v in metrics.items()}
    record = dict(result, workload=name, seed=seed, seconds=seconds,
                  trace=int(traced), failures=failures,
                  missing=sorted(notes), setup_samples=imports,
                  passes=[{k: v for k, v in s.items() if k != "spans"}
                          for s in samples[False] + samples[True]])
    (OUT / f"{name}-seed{seed}-trace{int(traced)}.json").write_text(
        json.dumps(record, indent=1), "utf-8")
    return result, failures, sorted(notes)


def summary(name, result, failures, missing):
    lines = [f"{name}: attempted {result['attempted']}, "
             f"failed {result['failed']}, correct {result['correct']}"]
    for metric, m in result["metrics"].items():
        lines.append(f"  {metric:<40} {m['value']:.6g} {m['unit']}")
    lines += [f"  absent (no traced function left): {n}" for n in missing]
    lines += [f"  FAILED {f}" for f in failures[:10]]
    return "\n".join(lines)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "cornermass" / "cli.py").is_file():
        print(f"no cornermass sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    results = {}
    for name in ([args.workload] if args.workload else WORKLOADS):
        result, failures, missing = run_workload(
            name, args.seed, args.seconds, bool(args.trace))
        print(summary(name, result, failures, missing), flush=True)
        results[name] = result
    if args.workload:
        print(json.dumps(results[args.workload]))
    else:
        print(json.dumps(results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
