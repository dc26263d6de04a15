"""Output checks of the benchmark workloads, each with its self-test.

Every check compares a command's output with a closed form or a property
of the method, never with a stored copy of an earlier output.  A check
takes ``out`` (``{"report": <the JSON envelope>, "csv": <rows of floats or
None>}``) and returns the list of properties that fail.

Each check has a list of perturbations: functions that break exactly one
property of a valid output.  ``self_test`` applies each to a copy of a
real output that passed and reports every perturbation the check failed
to reject, so a check that has gone blind shows up in every run.
"""

import copy
import math

PI16 = 16.0 * math.pi


def _close(got, want, tol):
    return abs(got - want) <= tol


class _Failures(list):
    def expect(self, ok, what):
        if not ok:
            self.append(what)


# ---------------------------------------------------------------------------
# massbound
# ---------------------------------------------------------------------------

def _massbound_common(out, fails):
    rep = out["report"]["reports"]
    mb, adm = rep["massbound"], rep["adm"]
    fails.expect(_close(mb["lhs"], PI16 * adm["E"], 1e-9 * abs(mb["lhs"])),
                 "lhs = 16 pi E")
    fails.expect(rep["slack"] >= -rep["tolerance"], "slack >= -tolerance")
    fails.expect(_close(rep["slack"], mb["lhs"] - mb["bulk"] - mb["corner"],
                        1e-9 * max(1.0, abs(mb["lhs"]))),
                 "slack = lhs - bulk - corner")
    return rep, mb, adm


def check_massbound_negschw(out):
    """The corner counterexample: E = -1/2, P = 0, jump -2, vacuum."""
    fails = _Failures()
    rep, mb, adm = _massbound_common(out, fails)
    fails.expect(_close(adm["E"], -0.5, 1e-4), "E = -1/2")
    fails.expect(max(abs(p) for p in adm["P"]) <= 1e-10, "|P| = 0")
    fails.expect(len(mb["corner_jumps"]) == 1
                 and _close(mb["corner_jumps"][0], -2.0, 1e-10),
                 "corner jump = -2")
    fails.expect(out["report"]["verdicts"]["corner_hypothesis_violated"]
                 is True, "corner hypothesis flagged as violated")
    fails.expect(mb["corner"] < 0.0, "corner < 0")
    fails.expect(mb["bulk"] >= 0.0, "bulk >= 0")
    rows = out["csv"]
    r_out = max(row[0] for row in rows)
    ring = [row for row in rows if row[0] == r_out]
    inner = [row[2] for row in rows if row[0] != r_out]
    fails.expect(all(_close(u, r * math.cos(th), 1e-12)
                     for r, th, u, _ in ring),
                 "CSV outer ring = rho cos(theta)")
    lo, hi = min(row[2] for row in ring), max(row[2] for row in ring)
    slack = 1e-12 * max(abs(lo), abs(hi))
    fails.expect(all(lo - slack <= u <= hi + slack for u in inner),
                 "CSV interior within the boundary range")
    return fails


def check_massbound_schwarzschild(out):
    """Schwarzschild m = 1: E = 1, no corner, grid convergence."""
    fails = _Failures()
    rep, mb, adm = _massbound_common(out, fails)
    fails.expect(_close(adm["E"], 1.0, 1e-4), "E = 1")
    fails.expect(mb["corner"] == 0.0, "corner = 0")
    fails.expect(out["report"]["verdicts"]["corner_hypothesis_violated"]
                 is False, "corner hypothesis not violated")
    slacks = [s for _, s in mb["diagnostics"]["slacks_by_resolution"]]
    diffs = [abs(b - a) for a, b in zip(slacks, slacks[1:])]
    fails.expect(len(diffs) >= 2 and all(
        b < a for a, b in zip(diffs, diffs[1:])),
        "successive slack differences shrink")
    return fails


# ---------------------------------------------------------------------------
# certificate
# ---------------------------------------------------------------------------

def check_certificate(out, r0, h_values):
    """E_ext = (r0/2)(1 - (h_eff r0/2)^2); certified iff h_eff > 2/r0."""
    fails = _Failures()
    rep = out["report"]["reports"]
    rows = rep["certificates"]
    fails.expect(len(rows) == len(h_values), "one row per sweep value")
    threshold = 2.0 / r0
    for row, h in zip(rows, h_values):
        h_eff = row["H"] - row["bartnik_f"]
        e_ext = 0.5 * r0 * (1.0 - (h_eff * r0 / 2.0) ** 2)
        fails.expect(_close(h_eff, h, 1e-12 * max(1.0, h)),
                     f"row h_eff = {h!r}")
        fails.expect(_close(row["E_ext"], e_ext, 1e-10 * max(1.0, abs(e_ext))),
                     f"E_ext closed form at h_eff = {h!r}")
        fails.expect((row["verdict"] == "no-DEC-fill-in") == (h_eff > threshold),
                     f"certified iff h_eff > 2/r0 at h_eff = {h!r}")
    fails.expect(rep["n_certified"] == sum(h > threshold for h in h_values),
                 "n_certified = closed-form count")
    return fails


# ---------------------------------------------------------------------------
# quick commands
# ---------------------------------------------------------------------------

# regress rows with a closed form: name -> (value, absolute tolerance)
REGRESS_CLOSED_FORMS = {
    "schwarzschild.hawking_r5": (1.0, 1e-8),
    "schwarzschild.brown_york_r4": (4.0 * (1.0 - math.sqrt(0.5)), 1e-8),
    "isotropic.minimal_sphere_s": (0.5, 1e-10),
    "isotropic.minimal_sphere_area": (16.0 * math.pi, 1e-8),
    "shi_tam.E_ext_heff3": (-0.625, 1e-10),
    "massbound.flat_slack": (0.0, 1e-8),
}
REGRESS_ROWS = 19


def check_regress(out):
    fails = _Failures()
    table = out["report"]["reports"]["table"]
    fails.expect(len(table) == REGRESS_ROWS, f"{REGRESS_ROWS} golden rows")
    fails.expect(all(row["status"] == "pass" for row in table),
                 "every golden row passes")
    got = {row["name"]: row.get("got") for row in table}
    for name, (value, tol) in REGRESS_CLOSED_FORMS.items():
        fails.expect(got.get(name) is not None
                     and _close(got[name], value, tol),
                     f"{name} = {value!r}")
    return fails


def check_constraints_negschw(out):
    fails = _Failures()
    rep = out["report"]["reports"]
    for patch in rep["patches"]:
        margins = [patch["dec"]["min_margin"]] + [
            row["dec_margin"] for row in patch["samples"]]
        fails.expect(all(abs(m) <= 1e-10 for m in margins),
                     f"DEC margins 0 on {patch['label']}")
    fails.expect(len(rep["corner_jumps"]) == 1
                 and _close(rep["corner_jumps"][0], -2.0, 1e-10),
                 "corner jump = -2")
    return fails


def check_quasilocal_schwarzschild(out, r0):
    """Round sphere r0 in Schwarzschild m = 1 (k = 0)."""
    fails = _Failures()
    ql = out["report"]["reports"]["quasilocal"]
    fails.expect(ql["r0"] == r0, "sphere radius as requested")
    fails.expect(_close(ql["m_H"], 1.0, 1e-8), "m_H = 1")
    m_by = r0 * (1.0 - math.sqrt(1.0 - 2.0 / r0))
    fails.expect(_close(ql["m_BY"], m_by, 1e-10),
                 "m_BY = r0 (1 - sqrt(1 - 2/r0))")
    fails.expect(ql["m_LY"] is not None and ql["W"] >= ql["m_LY"] - 1e-12,
                 "W >= m_LY")
    return fails


# ---------------------------------------------------------------------------
# Self-tests
# ---------------------------------------------------------------------------

def _set(path, value):
    """Perturbation: set a field of the envelope (value may be a function
    of the old value)."""
    keys = path.split(".")

    def apply(out):
        node = out["report"]
        for key in keys[:-1]:
            node = node[int(key)] if isinstance(node, list) else node[key]
        last = int(keys[-1]) if isinstance(node, list) else keys[-1]
        node[last] = value(node[last]) if callable(value) else value
    apply.__name__ = path
    return apply


def _slack_below_tolerance(out):
    rep = out["report"]["reports"]
    rep["slack"] = -rep["tolerance"] - 1e-3


def _csv_ring(out):
    r_out = max(row[0] for row in out["csv"])
    row = next(row for row in out["csv"] if row[0] == r_out)
    row[2] += 1e-9


def _csv_interior(out):
    hi = max(row[2] for row in out["csv"])
    out["csv"][0][2] = hi + 1e-6


def _slacks_diverge(out):
    pairs = out["report"]["reports"]["massbound"]["diagnostics"][
        "slacks_by_resolution"]
    (_, a), (_, b) = pairs[-3], pairs[-2]
    pairs[-1][1] = b + 2.0 * (b - a)


def _regress_row(name, delta):
    def apply(out):
        for row in out["report"]["reports"]["table"]:
            if row["name"] == name:
                row["got"] += delta
    apply.__name__ = f"regress {name}"
    return apply


def _regress_fail(out):
    out["report"]["reports"]["table"][0]["status"] = "FAIL"


def _regress_drop(out):
    out["report"]["reports"]["table"].pop()


def _flip_first_certified(out):
    for row in out["report"]["reports"]["certificates"]:
        if row["verdict"] == "no-DEC-fill-in":
            row["verdict"] = "inconclusive"
            return


_MASSBOUND_COMMON = [
    _set("reports.massbound.lhs", lambda v: v * (1.0 + 1e-6)),
    _slack_below_tolerance,
]

PERTURBATIONS = {
    check_massbound_negschw: _MASSBOUND_COMMON + [
        _set("reports.adm.E", -0.5 + 2e-4),
        _set("reports.adm.P.0", 1e-9),
        _set("reports.massbound.corner_jumps.0", -1.9),
        _set("verdicts.corner_hypothesis_violated", False),
        _set("reports.massbound.corner", abs),
        _set("reports.massbound.bulk", -1e-3),
        _csv_ring,
        _csv_interior,
    ],
    check_massbound_schwarzschild: _MASSBOUND_COMMON + [
        _set("reports.adm.E", 1.0 + 2e-4),
        _set("reports.massbound.corner", 1e-6),
        _set("verdicts.corner_hypothesis_violated", True),
        _slacks_diverge,
    ],
    check_certificate: [
        _set("reports.certificates.0.E_ext", lambda v: v + 1e-9),
        _set("reports.certificates.0.H", lambda v: v + 1e-9),
        _flip_first_certified,
        _set("reports.n_certified", lambda v: v + 1),
    ],
    check_regress: [_regress_fail, _regress_drop] + [
        _regress_row(name, 10.0 * tol if tol else 1e-9)
        for name, (_, tol) in REGRESS_CLOSED_FORMS.items()],
    check_constraints_negschw: [
        _set("reports.patches.0.dec.min_margin", -2e-10),
        _set("reports.patches.1.samples.0.dec_margin", 2e-10),
        _set("reports.corner_jumps.0", -1.9),
    ],
    check_quasilocal_schwarzschild: [
        _set("reports.quasilocal.m_H", lambda v: v + 1e-7),
        _set("reports.quasilocal.m_BY", lambda v: v + 1e-9),
        _set("reports.quasilocal.W", lambda v: v - 1e-6),
        _set("reports.quasilocal.r0", lambda v: v + 1e-3),
    ],
}


def self_test(check, out, *args):
    """Names of the perturbations of ``out`` that ``check`` accepts."""
    accepted = []
    for perturb in PERTURBATIONS[check]:
        bad = copy.deepcopy(out)
        perturb(bad)
        if not check(bad, *args):
            accepted.append(perturb.__name__)
    return accepted
