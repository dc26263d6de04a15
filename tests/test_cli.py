import json
import os
import random
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from cornermass import cli
from cornermass.corner import scenario_build
from cornermass.errors import ConfigError
from cornermass.harmonic import solve_spacetime_harmonic


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return str(p)


class TestConfigParsing:
    def test_sections_and_types(self, tmp_path):
        path = write(tmp_path, "a.cfg", """
# comment
[run]
scenario = flat
resolutions = 16 32
delta = 0.01
topology_trivial = true
[quasilocal]
r0 = 2.0
""")
        cfg = cli.parse_config(path)
        assert cfg["run.scenario"] == "flat"
        assert cfg["run.resolutions"] == [16, 32]
        assert cfg["run.delta"] == 0.01
        assert cfg["run.topology_trivial"] is True
        assert cfg["quasilocal.r0"] == 2.0

    def test_diagnostics_carry_line(self, tmp_path):
        path = write(tmp_path, "bad.cfg", "[run]\nscenario flat\n")
        with pytest.raises(ConfigError) as exc:
            cli.parse_config(path)
        assert exc.value.line == 2

    def test_missing_file_is_config_error(self, tmp_path):
        rc = cli.main(["constraints", "--config",
                       str(tmp_path / "nope.cfg")])
        assert rc == 2

    def test_missing_required_key(self, tmp_path):
        path = write(tmp_path, "c.cfg", "[run]\nsamples = 8\n")
        rc = cli.main(["constraints", "--config", path])
        assert rc == 2

    @pytest.mark.parametrize("text, field", [
        ("[run]\nscenario = nope\n", "run.scenario"),
        ("[run]\nscenario = hyperbolic_negschw\n[scenario]\nk_sign = 3\n",
         "scenario.k_sign"),
        ("[run]\nscenario = flat\n[scenario]\nbogus = 1.0\n",
         "scenario.bogus"),
    ], ids=["unknown_scenario", "invalid_parameter", "unknown_parameter"])
    def test_scenario_errors_are_config_errors(self, tmp_path, text, field):
        path = write(tmp_path, "s.cfg", text)
        with pytest.raises(ConfigError) as exc:
            cli._scenario_from_config(cli.parse_config(path))
        assert exc.value.field == field
        assert cli.main(["constraints", "--config", path]) == 2

    @pytest.mark.parametrize("key, value", [
        ("direction", "2"),
        ("truncation", "1e6"),
        ("resolutions", "16 x"),
        ("resolutions", "2"),
        ("n_theta", "2"),
        ("r_inner", "0"),
        ("r_inner", "abc"),
        ("r_inner", "-1"),
        ("r_inner", "50"),
    ], ids=["direction", "truncation", "resolutions_type",
            "resolutions_small", "n_theta", "r_inner_zero", "r_inner_type",
            "r_inner_negative", "r_inner_beyond_truncation"])
    def test_run_key_errors_are_config_errors(self, tmp_path, key, value):
        keys = {"scenario": "hyperbolic_negschw", "resolutions": "16",
                key: value}
        path = write(tmp_path, "r.cfg", "[run]\n" + "".join(
            f"{k} = {v}\n" for k, v in keys.items()))
        args = cli.parse_args(["massbound"])
        with pytest.raises(ConfigError) as exc:
            cli.cmd_massbound(cli.parse_config(path), args)
        assert exc.value.field == f"run.{key}"
        assert cli.main(["massbound", "--config", path]) == 2


    @pytest.mark.parametrize("scenario, value", [
        # inside the truncation's areal radius 10 but outside its
        # isotropic chart radius 8.97
        ("schwarzschild", "9.5"),
        # below the data set's r_min = 1
        ("polynomial", "0.5"),
    ], ids=["beyond_chart_truncation", "below_data"])
    def test_r_inner_outside_the_data(self, tmp_path, capsys, scenario,
                                      value):
        path = write(tmp_path, "i.cfg", f"[run]\nscenario = {scenario}\n"
                     f"resolutions = 16\ntruncation = 10\n"
                     f"r_inner = {value}\n")
        args = cli.parse_args(["massbound"])
        with pytest.raises(ConfigError) as exc:
            cli.cmd_massbound(cli.parse_config(path), args)
        assert exc.value.field == "run.r_inner"
        assert cli.main(["massbound", "--config", path]) == 2
        assert "run.r_inner" in capsys.readouterr().err

    @pytest.mark.parametrize("command, key, value", [
        ("constraints", "samples", "x"),
        ("constraints", "samples", "0"),
        ("massbound", "delta", "abc"),
        ("massbound", "adm_radii", "-5"),
        ("massbound", "adm_radii", "50"),
        ("massbound", "adm_radii", "50 50"),
        ("massbound", "adm_radii", "100 50"),
        ("massbound", "adm_radii", "50 100 150"),
    ], ids=["samples_type", "samples_zero", "delta_type", "adm_radii",
            "adm_radii_one", "adm_radii_repeated", "adm_radii_decreasing",
            "adm_radii_not_geometric"])
    def test_typed_run_keys_exit_2(self, tmp_path, capsys, command, key,
                                   value):
        path = write(tmp_path, "t.cfg", "[run]\nscenario = hyperbolic_negschw"
                     f"\nresolutions = 16\n{key} = {value}\n")
        assert cli.main([command, "--config", path]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error") and f"run.{key}" in err

    @pytest.mark.parametrize("command, text, field", [
        ("quasilocal", "[run]\nscenario = schwarzschild\n"
         "[quasilocal]\nr0 = 1.5\n", "quasilocal.r0"),
        ("quasilocal", "[run]\nscenario = schwarzschild\n"
         "[quasilocal]\nr0 = 5\nhull_radii = 3 2\n",
         "quasilocal.hull_radii"),
        ("quasilocal", "[run]\nscenario = hyperbolic_negschw\n"
         "[quasilocal]\nr0 = 1\nside = auto\n", "quasilocal.side"),
        ("massbound", "[run]\nscenario = schwarzschild\nresolutions = 16\n"
         "adm_radii = 50 100 300\n", "run.adm_radii"),
        # geometric, but beyond the outermost patch's r = 260
        ("massbound", "[run]\nscenario = schwarzschild\nresolutions = 16\n"
         "adm_radii = 100 200 400\n", "run.adm_radii"),
    ], ids=["r0_below_data", "hull_below_data", "r0_on_corner",
            "adm_radii_not_geometric", "adm_radii_beyond_data"])
    def test_radius_outside_the_data_exits_2(self, tmp_path, capsys,
                                             command, text, field):
        # each used to exit 3, the code of a numerical failure
        path = write(tmp_path, "o.cfg", text)
        with pytest.raises(ConfigError) as exc:
            cli._COMMANDS[command](cli.parse_config(path),
                                   cli.parse_args([command]))
        assert exc.value.field == field
        assert cli.main([command, "--config", path]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error") and field in err

    def test_quasilocal_side_must_be_a_side(self, tmp_path, capsys):
        # a typo used to run silently as side = auto and exit 0
        path = write(tmp_path, "q.cfg", "[run]\nscenario = schwarzschild\n"
                     "[quasilocal]\nr0 = 5\nside = bogus\n")
        with pytest.raises(ConfigError) as exc:
            cli.cmd_quasilocal(cli.parse_config(path),
                               cli.parse_args(["quasilocal"]))
        assert exc.value.field == "quasilocal.side"
        assert cli.main(["quasilocal", "--config", path]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error") and "quasilocal.side" in err


class TestArgumentLine:
    @pytest.mark.parametrize("argv", [
        ["certificate", "--config", "c.cfg", "--out", "o.json",
         "--deterministic"],
        ["certificate", "--config=c.cfg", "--out=o.json", "--deterministic"],
        ["--config", "c.cfg", "--deterministic", "certificate", "--out",
         "o.json"],
        ["--deterministic", "--out=o.json", "--config=c.cfg", "certificate"],
        ["--out", "x.json", "certificate", "--config", "c.cfg", "--out",
         "o.json", "--deterministic"],
    ], ids=["space", "equals", "options_first", "all_before", "last_wins"])
    def test_accepted_forms(self, argv):
        args = cli.parse_args(argv)
        assert vars(args) == {"command": "certificate", "config": "c.cfg",
                              "out": "o.json", "csv": None, "filter": None,
                              "golden": None, "deterministic": True}

    def test_defaults(self):
        assert vars(cli.parse_args(["regress"])) == {
            "command": "regress", "config": None, "out": None, "csv": None,
            "filter": None, "golden": None, "deterministic": False}
        args = cli.parse_args(["regress", "--filter=a=b", "--golden", "g"])
        assert (args.filter, args.golden) == ("a=b", "g")

    @pytest.mark.parametrize("flag", ["-h", "--help"])
    def test_help_exits_0(self, capsys, flag):
        assert cli.main(["certificate", flag]) == 0
        out, err = capsys.readouterr()
        assert out.startswith(cli.USAGE) and "--deterministic" in out
        assert err == ""

    @pytest.mark.parametrize("argv, culprit", [
        (["bogus"], "'bogus'"),
        (["certificate", "--bogus"], "'--bogus'"),
        (["certificate", "--config"], "--config"),
        (["certificate", "--out", "--deterministic"], "--out"),
        (["certificate", "--det"], "'--det'"),
        (["certificate", "--deterministic=1"], "'--deterministic=1'"),
        (["certificate", "regress"], "'regress'"),
        (["--deterministic"], "missing command"),
    ], ids=["unknown_command", "unknown_option", "missing_value",
            "option_as_value", "abbreviation", "flag_with_value",
            "two_commands", "no_command"])
    def test_bad_argument_line_exits_2(self, capsys, argv, culprit):
        assert cli.main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(cli.USAGE + "\ncorner-mass: error: ")
        assert culprit in err.splitlines()[-1]
        assert "Traceback" not in err


class TestEnvelope:
    """``emit`` against the two-pass writer of ``oracles.envelope_json``,
    byte for byte."""

    CONFIGS = {
        "constraints": "[run]\nscenario = hyperbolic_negschw\nsamples = 8\n",
        "massbound": "[run]\nscenario = hyperbolic_negschw\n"
                     "resolutions = 12 16\ntruncation = 10.0\n",
        "quasilocal": "[run]\nscenario = schwarzschild\n[scenario]\nm = 1.0\n"
                      "[quasilocal]\nr0 = 4.0\nhull_radii = 2.6 3.0 3.5\n",
        "certificate": "[certificate]\nr0 = 1.3\nh_eff_sweep = 0.5 4.0 9\n",
        "regress": None,
    }

    @pytest.mark.parametrize("command", sorted(CONFIGS))
    @pytest.mark.parametrize("deterministic", [True, False],
                             ids=["deterministic", "timed"])
    def test_command_envelopes(self, tmp_path, monkeypatch, capsys,
                               command, deterministic):
        from oracles import envelope_json
        seen = []
        emit = cli.emit
        monkeypatch.setattr(cli, "emit", lambda env, out: seen.append(env)
                            or emit(env, out))
        out = tmp_path / "r.json"
        argv = [command, "--out", str(out)]
        if self.CONFIGS[command] is not None:
            argv += ["--config", write(tmp_path, "c.cfg",
                                       self.CONFIGS[command])]
        if deterministic:
            argv.append("--deterministic")
        assert cli.main(argv) in (0, 1)
        (env,) = seen
        assert ("timing_seconds" in env) != deterministic
        assert out.read_text(encoding="utf-8") == envelope_json(env) + "\n"

    def test_edge_values(self, tmp_path, capsys):
        from oracles import envelope_json
        from cornermass.extension import fillin_certificate
        inf, nan = float("inf"), float("nan")
        big = np.linspace(-1.0, 1.0, 65)
        env = {
            "floats": [nan, inf, -inf, 0.0, -0.0, 1e-310, 1.5e300, 0.1],
            "numpy": [np.float64(nan), np.float64(-inf), np.float32(0.1),
                      np.float64(2.5), np.int64(-7), np.int32(3),
                      np.uint8(255)],
            "bools": [np.bool_(True), 1, True, np.bool_(False), 0, False,
                      None],
            "arrays": {"65": big, "64": big[:64], "65_int": np.arange(65),
                       "65_inf": np.append(big[:64], inf),
                       "65_nan": np.append(big[:64], nan),
                       "2d": np.arange(6.0).reshape(2, 3),
                       "bool": np.array([True, False]),
                       "empty": np.zeros(0)},
            "empty": [{}, [], (), {"a": {}, "b": [[]]}],
            "tuples": ((1, (2.0, (nan, "x"))), [(), ((),)]),
            "strings": ["é", "naïve ∂u/∂ν", "\u2603 \U0001f600", "tab\t\"q\"",
                        "\x00\x1f"],
            "keys": {1: "int", 2.5: "float", None: "none", False: "bool",
                     (1, 2): "tuple", "ünï": "str", "b": 0, "a": 1},
            "same_key": {1: "int", "1": "str"},
            "dataclass": [fillin_certificate(1.0, 3.0),
                          {"nested": fillin_certificate(2.0, 0.5)}],
        }
        out = tmp_path / "e.json"
        cli.emit(env, str(out))
        assert out.read_text(encoding="utf-8") == envelope_json(env) + "\n"
        cli.emit(env, None)
        assert capsys.readouterr().out == envelope_json(env) + "\n"

    def test_unserializable_value_raises(self):
        with pytest.raises(TypeError, match="set"):
            cli.emit({"x": {1, 2}}, None)


class TestCommands:
    def test_constraints_flat(self, tmp_path, capsys):
        path = write(tmp_path, "c.cfg", "[run]\nscenario = flat\n")
        rc = cli.main(["constraints", "--config", path, "--deterministic"])
        out = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert out["verdicts"]["dec_ok"]
        rows = out["reports"]["patches"][0]["samples"]
        assert all(abs(row["mu"]) < 1e-12 for row in rows)

    def test_constraints_counterexample(self, tmp_path, capsys):
        path = write(tmp_path, "c.cfg",
                     "[run]\nscenario = hyperbolic_negschw\n")
        rc = cli.main(["constraints", "--config", path, "--deterministic"])
        out = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert out["verdicts"]["dec_ok"]
        assert out["reports"]["corner_jumps"][0] == pytest.approx(-2.0)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflowing_picard_state_exits_3(self, tmp_path, capsys):
        # |grad u|_delta overflows at delta = 1e160; the NaN residual used
        # to reach the Anderson least-squares step and exit 1
        path = write(tmp_path, "o.cfg", "[run]\nscenario = hyperbolic_negschw"
                     "\nresolutions = 16 24\ndelta = 1e160\n")
        assert cli.main(["massbound", "--config", path]) == 3
        assert capsys.readouterr().err.startswith("numerical failure")

    def test_massbound_flat(self, tmp_path, capsys):
        path = write(tmp_path, "m.cfg", """
[run]
scenario = flat
resolutions = 16 24
truncation = 12.0
""")
        rc = cli.main(["massbound", "--config", path, "--deterministic"])
        out = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert abs(out["reports"]["slack"]) <= 1e-8
        assert out["verdicts"]["slack_nonnegative"]

    def test_massbound_counterexample_flags(self, tmp_path, capsys):
        path = write(tmp_path, "m.cfg", """
[run]
scenario = hyperbolic_negschw
resolutions = 24
truncation = 15.0
""")
        rc = cli.main(["massbound", "--config", path, "--deterministic"])
        out = json.loads(capsys.readouterr().out)
        assert out["verdicts"]["corner_hypothesis_violated"]
        assert out["reports"]["massbound"]["lhs"] < 0
        assert out["reports"]["massbound"]["corner"] < 0
        diag = out["reports"]["massbound"]["diagnostics"]
        assert diag["linear"]["factorizations"] == 1
        assert diag["linear"]["solves"] == len(diag["picard_changes"])
        assert diag["linear"]["factor_floats"] > 0
        assert diag["linear"]["eigvec_cond"] >= 1.0
        assert 0 <= diag["linear"]["residual"] <= 1e-8

    def test_massbound_csv_is_the_finest_field(self, tmp_path, capsys):
        path = write(tmp_path, "m.cfg", """
[run]
scenario = hyperbolic_negschw
resolutions = 12 16
truncation = 10.0
""")
        csv_path = tmp_path / "field.csv"
        cli.main(["massbound", "--config", path, "--deterministic",
                  "--csv", str(csv_path)])
        fld = solve_spacetime_harmonic(scenario_build("hyperbolic_negschw"),
                                       n_r=16, n_theta=16, L=10.0)
        ref = tmp_path / "ref.csv"
        fld.to_csv(ref)
        assert csv_path.read_bytes() == ref.read_bytes()

    def test_quasilocal_with_pipeline_and_csv(self, tmp_path, capsys):
        path = write(tmp_path, "q.cfg", """
[run]
scenario = schwarzschild
scenario.m = 1.0
[quasilocal]
r0 = 4.0
hull_radii = 2.6 3.0 3.5
""")
        csv_path = str(tmp_path / "ext.csv")
        rc = cli.main(["quasilocal", "--config", path, "--deterministic",
                       "--csv", csv_path])
        out = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert out["verdicts"]["comparison_ok"]
        assert out["verdicts"]["chain_W_ge_E_ext"]
        header = open(csv_path).readline().strip()
        assert header == "r,f,Q"

    def test_certificate_sweep(self, tmp_path, capsys):
        path = write(tmp_path, "cert.cfg", """
[certificate]
r0 = 1.0
h_eff_sweep = 0.5 4.0 8
""")
        rc = cli.main(["certificate", "--config", path, "--deterministic"])
        out = json.loads(capsys.readouterr().out)
        assert rc == 0
        certs = out["reports"]["certificates"]
        for c in certs:
            h_eff = c["H"] - c["bartnik_f"]
            assert (c["verdict"] == "no-DEC-fill-in") == (h_eff > 2.0)

    def test_massbound_verdict_failure_exit_code(self, tmp_path, capsys):
        # negative-mass data with no corner and an untrapped inner
        # boundary: the lhs is negative with nothing to absorb it, so the
        # verdict honestly fails
        path = write(tmp_path, "neg.cfg", """
[run]
scenario = polynomial
scenario.f_inv_coeffs = 1.0
scenario.r_in = 1.0
resolutions = 24
truncation = 15.0
""")
        rc = cli.main(["massbound", "--config", path, "--deterministic"])
        out = json.loads(capsys.readouterr().out)
        assert rc == 1
        assert not out["verdicts"]["slack_nonnegative"]
        assert not out["verdicts"]["corner_hypothesis_violated"]
        assert out["reports"]["massbound"]["diagnostics"][
            "inner_theta_plus"] > 0   # the failing hypothesis, on record

    def test_exit_code_numerical_failure(self, tmp_path):
        path = write(tmp_path, "bad.cfg", """
[certificate]
r0 = 1.0
H = -3.0
""")
        rc = cli.main(["certificate", "--config", path])
        assert rc == 3

    def test_singular_factor_exits_3(self, tmp_path, capsys, monkeypatch):
        from cornermass import numgrid
        band_lu = numgrid.band_lu

        def singular(lower2, lower1, diag, upper1, upper2):
            # a zeroed radial mode: its first pivot is zero
            diag = diag.copy()
            diag[:, 0] = 0.0
            return band_lu(lower2, lower1, diag, upper1, upper2)

        monkeypatch.setattr(numgrid, "band_lu", singular)
        # K != 0: the separated factor (K = 0 data never reach band_lu)
        path = write(tmp_path, "m.cfg", """
[run]
scenario = hyperbolic_negschw
resolutions = 16
truncation = 12.0
""")
        rc = cli.main(["massbound", "--config", path, "--deterministic"])
        assert rc == 3
        assert "numerical failure" in capsys.readouterr().err

    @pytest.mark.parametrize("value, message", [
        (0.0, "singular"), (np.nan, "not finite")], ids=["zero", "nan"])
    def test_singular_l1_system_exits_3(self, tmp_path, capsys, monkeypatch,
                                        value, message):
        from cornermass.harmonic import solver
        assemble = solver._assemble_operator

        def broken(coeffs):
            # ring 2's row of the K = 0 radial system: all zero or NaN
            op = assemble(coeffs)
            op.radial[2] = value
            op.ring_scale[2] = value
            return op

        monkeypatch.setattr(solver, "_assemble_operator", broken)
        path = write(tmp_path, "m.cfg", """
[run]
scenario = flat
resolutions = 16
truncation = 12.0
""")
        rc = cli.main(["massbound", "--config", path, "--deterministic"])
        err = capsys.readouterr().err
        assert rc == 3
        assert err.startswith("numerical failure: ") and message in err


class TestExitCodes:
    """Inputs that escaped ``main`` as exit 1 with a traceback, each now
    with its documented code (2 naming the key, 3, or 0 for a run that
    is fine); negschw's delta = 1e300 already exited 3."""

    @pytest.mark.parametrize("command, text, field", [
        # the corner exclusion left a patch with no sample radius
        ("constraints", "[run]\nscenario = hyperbolic_negschw\nsamples = 2\n",
         "run.samples"),
        ("constraints", "[run]\nscenario = shi_tam_glue\nsamples = 2\n",
         "run.samples"),
        ("constraints", "[run]\nscenario = hyperbolic_negschw\nsamples = 3\n",
         "run.samples"),
        ("massbound", "[run]\nscenario = shi_tam_glue\nresolutions = 16\n"
         "[scenario]\nomega_tan = 0.5\n", "scenario.omega_tan"),
        ("quasilocal", "[run]\nscenario = flat\n[quasilocal]\nr0 = 1e-300\n",
         "quasilocal.r0"),
        ("certificate", "[certificate]\nH = 1e200\n", "certificate.H"),
        ("certificate", "[certificate]\nr0 = 1e300\nH = 2\n",
         "certificate.r0"),
        ("certificate", "[certificate]\nh_eff_sweep = 1e200 1e300 3\n",
         "certificate.h_eff_sweep"),
        # (H r0/2)^2 of the glued scenario overflows
        ("constraints", "[run]\nscenario = shi_tam_glue\n"
         "[scenario]\nr0 = 1e300\n", "scenario.r0"),
        ("quasilocal", "[run]\nscenario = shi_tam_glue\n"
         "[scenario]\nH = 1e200\n[quasilocal]\nr0 = 0.5\n", "scenario.H"),
        ("quasilocal", "[run]\nscenario = polynomial\n"
         "[scenario]\nf_inv_coeffs = inf\n[quasilocal]\nr0 = 12\n",
         "scenario.f_inv_coeffs"),
        # bool() of any other text asserted the topology
        ("quasilocal", "[run]\nscenario = schwarzschild\n"
         "topology_trivial = no\n[quasilocal]\nr0 = 5\n"
         "hull_radii = 2.6 3.0 3.5\n", "run.topology_trivial"),
        ("constraints", "[run]\nscenario = flat\ntopology_trivial = 0\n",
         "run.topology_trivial"),
    ], ids=["samples_2_negschw", "samples_2_shi_tam", "samples_3_negschw",
            "omega_tan", "r0_tiny", "H_huge", "r0_huge", "sweep_huge",
            "glue_r0_huge", "glue_H_huge", "coefficient_inf", "topology_no",
            "topology_0"])
    def test_config_error(self, tmp_path, capsys, command, text, field):
        path = write(tmp_path, "x.cfg", text)
        with pytest.raises(ConfigError) as exc:
            cli._COMMANDS[command](cli.parse_config(path),
                                   cli.parse_args([command]))
        assert exc.value.field == field
        assert cli.main([command, "--config", path]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error") and field in err

    @pytest.mark.parametrize("value, applicable", [("true", True),
                                                   ("false", False)])
    def test_topology_key_reaches_the_comparison(self, tmp_path, capsys,
                                                 value, applicable):
        path = write(tmp_path, "x.cfg", "[run]\nscenario = schwarzschild\n"
                     f"topology_trivial = {value}\n[quasilocal]\nr0 = 5\n"
                     "hull_radii = 2.6 3.0 3.5\n")
        cli.main(["quasilocal", "--config", path, "--deterministic"])
        comp = json.loads(capsys.readouterr().out)["reports"]["comparison"]
        assert comp["applicable"] is applicable
        assert ("topology assertion withheld" in comp["reasons"]) \
            is not applicable

    def test_omega_tan_refused_before_any_solve(self, tmp_path, monkeypatch):
        from cornermass.harmonic import solver
        monkeypatch.setattr(solver, "solve_linear_elliptic", None)
        path = write(tmp_path, "x.cfg", "[run]\nscenario = shi_tam_glue\n"
                     "resolutions = 16\n[scenario]\nomega_tan = 0.5\n")
        assert cli.main(["massbound", "--config", path]) == 2

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("scenario", ["shi_tam_glue", "hyperbolic_negschw"])
    def test_delta_without_finite_square_exits_3(self, tmp_path, capsys,
                                                 scenario):
        path = write(tmp_path, "x.cfg", f"[run]\nscenario = {scenario}\n"
                     "resolutions = 16\ndelta = 1e300\n")
        assert cli.main(["massbound", "--config", path]) == 3
        assert capsys.readouterr().err.startswith("numerical failure")

    def test_failed_run_writes_one_stderr_line(self, tmp_path):
        # numpy's overflow and invalid-value warnings used to reach stderr
        # ahead of the error line
        path = write(tmp_path, "x.cfg", "[run]\nscenario = hyperbolic_negschw"
                     "\nresolutions = 16 24\ndelta = 1e300\n")
        env = dict(os.environ, PYTHONPATH=str(
            Path(cli.__file__).resolve().parents[1]))
        proc = subprocess.run(
            [sys.executable, "-m", "cornermass.cli", "massbound", "--config",
             path], env=env, capture_output=True, text=True)
        assert proc.returncode == 3
        assert proc.stderr.startswith("numerical failure: ")
        assert proc.stderr.count("\n") == 1 and proc.stderr.endswith("\n")

    # a count above its bound is refused before the work it sizes starts,
    # and a count at its bound reaches that work (the patched call)
    @pytest.mark.parametrize("command, text, field, bound, work", [
        ("constraints", "[run]\nscenario = flat\nsamples = {}\n",
         "run.samples", cli.MAX_ROWS, ("geometry", "dec_check")),
        ("massbound", "[run]\nscenario = flat\nresolutions = 16 {}\n",
         "run.resolutions", cli.MAX_GRID, ("", "mass_bound_sweep")),
        ("massbound", "[run]\nscenario = flat\nresolutions = 16\n"
         "n_theta = {}\n", "run.n_theta", cli.MAX_GRID,
         ("", "mass_bound_sweep")),
        ("certificate", "[certificate]\nh_eff_sweep = 0.5 1.5 {}\n",
         "certificate.h_eff_sweep", cli.MAX_ROWS,
         ("extension", "fillin_certificate")),
    ], ids=["samples", "resolutions", "n_theta", "h_eff_sweep"])
    def test_count_above_its_bound_exits_2(self, tmp_path, capsys,
                                           monkeypatch, command, text, field,
                                           bound, work):
        class Started(Exception):
            pass

        def started(*args, **kwargs):
            raise Started
        monkeypatch.setattr(getattr(cli, work[0]) if work[0] else cli,
                            work[1], started)
        for count in (bound + 1, 10**12):
            path = write(tmp_path, "x.cfg", text.format(count))
            assert cli.main([command, "--config", path]) == 2
            err = capsys.readouterr().err
            assert err.startswith(f"config error: {field} must be ")
            assert f"{bound}]" in err
        path = write(tmp_path, "x.cfg", text.format(bound))
        with pytest.raises(Started):
            cli.main([command, "--config", path])

    def test_extension_overflow_exits_3(self, tmp_path, capsys):
        # finite data whose mean curvature at r0 (4.8e148) overflows
        # the matched extension's (H r0/2)^2
        path = write(tmp_path, "x.cfg", "[run]\nscenario = polynomial\n"
                     "[scenario]\nf_inv_coeffs = 1e300\n"
                     "[quasilocal]\nr0 = 12\n")
        assert cli.main(["quasilocal", "--config", path]) == 3
        assert "no matched extension" in capsys.readouterr().err

    @pytest.mark.parametrize("r0", ["4.51119805314669e-38",
                                    "2.980994576584466e-145"])
    def test_small_sphere_runs(self, tmp_path, capsys, r0):
        # the glued scenario's patch checks sample inside a patch that
        # ends below r = 1e-8
        path = write(tmp_path, "x.cfg", "[run]\nscenario = flat\n"
                     f"[quasilocal]\nr0 = {r0}\n")
        assert cli.main(["quasilocal", "--config", path]) == 0


class TestConfigFuzz:
    """Seeded random configs through ``main``: the exit code is 0, 1, 2 or
    3 and no exception or warning escapes; exit 2 names a key or the
    scenario on stderr, exits 2 and 3 write that one line only, and exit
    1 comes with a false verdict.  Values are mostly valid, one in seven
    from ``BAD``; counts and grid sizes stay small, or 10^12 (``HUGE``),
    which must be refused before any work, so every draw is cheap.  A
    failing draw becomes a test of ``TestExitCodes`` and stays among the
    draws."""

    BAD = ["0", "-1", "1e-300", "1e300", "-1e300", "1e200", "inf", "nan",
           "x", "1 2", "true"]
    HUGE = "1000000000000"
    SCENARIOS = {
        "flat": {"r_out": ["100", "260"]},
        "schwarzschild": {"m": ["0.5", "1", "2"], "r_out": ["100", "260"]},
        "isotropic_schwarzschild": {"m": ["0.5", "1"]},
        "hyperbolic_negschw": {"k_sign": ["1", "-1"]},
        "shi_tam_glue": {"r0": ["0.5", "1", "2"], "H": ["1", "2", "3"],
                         "omega_nn": ["0", "0.3", "0.7", "-0.5"],
                         "omega_tan": ["0", "0.5"]},
        "polynomial": {"f_inv_coeffs": ["-1", "-1 0.5", "0.2"],
                       "a_inv_coeffs": ["0.1", "0 0.1"], "r_in": ["1", "2"]},
    }
    KEYS = {
        "constraints": {
            "run.samples": ["2", "3", "4", "8", "33", "96", HUGE],
            "run.dec_tolerance": ["0", "1e-8", "1e-3"],
            "run.direction": ["1", "-1"],
        },
        "massbound": {
            "run.resolutions": ["8", "8 12", "12 16", "8 12 16",
                                f"8 {HUGE}"],
            "run.n_theta": ["8", "12", HUGE],
            "run.truncation": ["10", "15", "30"],
            "run.r_inner": ["0.5", "1", "2.5", "5"],
            "run.direction": ["1", "-1"],
            "run.delta": ["1e-2", "1e-4", "0.5", "10"],
            "run.picard_tol": ["1e-9", "1e-6", "1e-12"],
            "run.adm_radii": ["50 100 200", "50 100", "10 20 40", "100 200"],
        },
        "quasilocal": {
            "quasilocal.r0": ["0.5", "1", "1.5", "2", "3", "5", "12"],
            "quasilocal.side": ["auto", "minus", "plus"],
            "quasilocal.omega_tan": ["0", "0.5", "-1", "3"],
            "quasilocal.hull_radii": ["2.6 3.0 3.5", "3 4", "0.5 1"],
            "run.topology_trivial": ["true", "false", "no"],
        },
        "certificate": {
            "certificate.r0": ["0.5", "1", "2", "10"],
            "certificate.H": ["0.5", "1", "2", "3", "5"],
            "certificate.tr_alpha": ["0", "0.5", "-2"],
            "certificate.beta": ["0", "0.5", "3"],
            "certificate.h_eff_sweep": ["0.5 1.5 5", "1 3 7", "0.1 4 2",
                                        f"0.5 1.5 {HUGE}"],
        },
    }

    def _value(self, rng, pool):
        return rng.choice(self.BAD) if rng.random() < 1 / 7 \
            else rng.choice(pool)

    def _draw(self, rng):
        """(command, {section: {key: value text}})."""
        command = rng.choice(sorted(self.KEYS))
        cfg = {}
        if command != "certificate":
            name = rng.choice(sorted(self.SCENARIOS) + ["nope"])
            cfg["run"] = {"scenario": name}
            cfg["scenario"] = {
                key: self._value(rng, pool)
                for key, pool in self.SCENARIOS.get(name, {}).items()
                if rng.random() < 0.5}
        for key, pool in self.KEYS[command].items():
            if key == "run.resolutions" or rng.random() < 0.4:
                section, _, name = key.partition(".")
                cfg.setdefault(section, {})[name] = self._value(rng, pool)
        return command, "".join(
            f"[{section}]\n" + "".join(f"{k} = {v}\n" for k, v in
                                       keys.items())
            for section, keys in cfg.items())

    @pytest.mark.parametrize("seed", range(1, 7))
    def test_draws_keep_the_exit_code_contract(self, tmp_path, capsys, seed):
        rng = random.Random(seed)
        path, out = tmp_path / "f.cfg", tmp_path / "f.json"
        for draw in range(100):
            command, text = self._draw(rng)
            path.write_text(text, encoding="utf-8")
            out.unlink(missing_ok=True)
            where = f"seed {seed}, draw {draw}: {command}\n{text}"
            try:
                with warnings.catch_warnings(record=True) as caught:
                    warnings.simplefilter("always")
                    rc = cli.main([command, "--config", str(path), "--out",
                                   str(out)])
            except Exception as exc:
                pytest.fail(f"{type(exc).__name__}: {exc} at {where}")
            err = capsys.readouterr().err
            assert rc in (0, 1, 2, 3), where
            assert not caught, f"{caught[0].message} at {where}"
            if rc in (2, 3):
                assert err.count("\n") == 1 and err.endswith("\n"), where
            if rc == 2:
                assert re.search(r"^config error.*\b(run|scenario|"
                                 r"quasilocal|certificate)\b", err), where
            if rc == 1:
                verdicts = json.loads(out.read_text())["verdicts"]
                assert False in verdicts.values(), where


class TestImportPath:
    # what no command may load: scipy (the solve is separated), csv (one
    # hand-written writer, numgrid.write_csv, emits the csv module's
    # bytes), numpy.polynomial (numgrid builds the Gauss-Legendre rules)
    # and argparse with the gettext and locale modules of its first
    # message lookup (the argument line is parsed by hand)
    FORBIDDEN = ("scipy", "csv", "numpy.polynomial", "argparse", "gettext",
                 "locale")
    # the commands run in turn after the import, with their configs
    COMMANDS = (
        ("quasilocal", "[run]\nscenario = schwarzschild\n[scenario]\n"
         "m = 1.0\n[quasilocal]\nr0 = 6.0\nhull_radii = 2.6 3.0 3.5\n"),
        ("regress", None),
        ("certificate", "[certificate]\nr0 = 1.0\nh_eff_sweep = 0.5 4.0 8\n"),
        ("massbound", "[run]\nscenario = hyperbolic_negschw\n"
         "resolutions = 32 48\ntruncation = 30\n"),
    )

    @pytest.fixture(scope="class")
    def loaded(self, tmp_path_factory):
        """{stage: {package: sorted modules of it loaded}} for the stages
        "import" (``import cornermass.cli``) and each command of
        COMMANDS, all run in one fresh interpreter that imports
        cornermass from this source tree; a stage's sets hold what it and
        every earlier stage loaded."""
        cwd = tmp_path_factory.mktemp("import_path")
        commands = []
        for name, config in self.COMMANDS:
            argv = [name, "--out", f"{name}.json"]
            if config is not None:
                write(cwd, f"{name}.cfg", config)
                argv += ["--config", f"{name}.cfg"]
            commands.append((name, argv))
        code = (
            "import json, sys\n"
            "def loaded():\n"
            "    return {p: sorted(m for m in sys.modules\n"
            "                      if (m + '.').startswith(p + '.'))\n"
            f"            for p in {self.FORBIDDEN!r}}}\n"
            "import cornermass.cli as c\n"
            "stages = {'import': loaded()}\n"
            f"for name, argv in {commands!r}:\n"
            "    assert c.main(argv) == 0, name\n"
            "    stages[name] = loaded()\n"
            "print(json.dumps(stages))\n")
        src = str(Path(cli.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p)
        out = subprocess.run([sys.executable, "-c", code], env=env, cwd=cwd,
                             capture_output=True, text=True, check=True)
        return json.loads(out.stdout.splitlines()[-1])

    def test_no_stage_loads_a_forbidden_module(self, loaded):
        assert list(loaded) == ["import"] + [n for n, _ in self.COMMANDS]
        found = {stage: {p: mods for p, mods in got.items() if mods}
                 for stage, got in loaded.items()}
        assert not any(found.values()), \
            f"forbidden modules loaded, by stage: {found}"

    def test_cli_import_skips_interpolate_and_optimize(self, loaded):
        assert loaded["import"]["scipy"] == []

    def test_cli_import_skips_csv(self, loaded):
        assert loaded["import"]["csv"] == []

    def test_quasilocal_loads_no_scipy(self, loaded):
        assert loaded["quasilocal"]["scipy"] == []

    def test_regress_skips_interpolate_and_optimize(self, loaded):
        # since the separable solve, regress loads no scipy module at all
        assert loaded["regress"]["scipy"] == []

    def test_regress_leaves_numpy_polynomial_unloaded(self, loaded):
        # the Gauss-Legendre rules are built by numgrid itself
        assert loaded["regress"]["numpy.polynomial"] == []

    def test_src_has_no_numpy_polynomial(self):
        src = Path(cli.__file__).resolve().parent
        hits = [str(p) for p in sorted(src.rglob("*.py"))
                if re.search(r"(numpy|np)\.polynomial|leggauss",
                             p.read_text(encoding="utf-8"))]
        assert hits == []

    def test_certificate_loads_no_argparse_or_locale(self, loaded):
        # the argument line is parsed by hand: argparse, and the gettext
        # and locale modules of its first message lookup, stay unloaded
        assert [m for p in ("argparse", "gettext", "locale")
                for m in loaded["certificate"][p]] == []

    def test_massbound_loads_no_scipy(self, loaded):
        assert loaded["massbound"]["scipy"] == []


class TestDeterminism:
    def test_byte_identical_reports(self, tmp_path):
        cfgp = write(tmp_path, "d.cfg", """
[run]
scenario = hyperbolic_negschw
resolutions = 16 24
truncation = 10.0
""")
        outs, csvs = [], []
        for k in range(2):
            out = str(tmp_path / f"r{k}.json")
            csvp = str(tmp_path / f"r{k}.csv")
            rc = cli.main(["massbound", "--config", cfgp,
                           "--deterministic", "--out", out, "--csv", csvp])
            outs.append(open(out, "rb").read())
            csvs.append(open(csvp, "rb").read())
        assert outs[0] == outs[1]
        assert csvs[0] == csvs[1] and csvs[0].count(b"\n") == 1 + 25 * 25


    def test_k_zero_report_independent_of_blas_threads(self, tmp_path):
        # K = 0 data solve no product whose rounding follows the BLAS
        # thread count, and the residual's angular part is three shifted
        # products, so the bench's schwarzschild report, and the same
        # data on grids up to 384, are the same bytes at one and at two
        # threads
        src = str(Path(cli.__file__).resolve().parents[1])
        for resolutions in ("32 64 128", "128 256 384"):
            cfgp = write(tmp_path, "s.cfg", f"""
[run]
scenario = schwarzschild
resolutions = {resolutions}
truncation = 40
[scenario]
m = 1.0
""")
            reports = []
            for threads in ("1", "2"):
                env = dict(os.environ, PYTHONPATH=src)
                for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                            "MKL_NUM_THREADS"):
                    env[var] = threads
                out = tmp_path / f"t{threads}.json"
                csvp = tmp_path / f"t{threads}.csv"
                proc = subprocess.run(
                    [sys.executable, "-m", "cornermass.cli", "massbound",
                     "--config", cfgp, "--deterministic", "--out", str(out),
                     "--csv", str(csvp)], env=env, capture_output=True)
                assert proc.returncode == 0, proc.stderr
                reports.append((out.read_bytes(), csvp.read_bytes()))
            assert reports[0] == reports[1], resolutions


class TestRegress:
    def test_fresh_checkout_passes(self, capsys):
        rc = cli.main(["regress", "--deterministic"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "FAIL" not in out

    def test_golden_values_run_no_k_nonzero_solve(self, monkeypatch):
        # no golden value reads a Picard solve: the Hessian's construction
        # identity holds node by node, so it is checked on the K != 0
        # grid's asymptote field, which must exercise the k terms
        from cornermass import harmonic, numgrid
        from cornermass.harmonic import solver

        def refuse(*args, **kwargs):
            raise AssertionError("a K != 0 solve ran")

        monkeypatch.setattr(numgrid.EllipticOperator, "factor", refuse)
        monkeypatch.setattr(solver, "_picard", refuse)
        hessians = []
        hessian = harmonic.spacetime_hessian
        monkeypatch.setattr(harmonic, "spacetime_hessian", lambda fld:
                            hessians.append((fld, hessian(fld)))
                            or hessians[-1][1])
        vals = cli.compute_golden_values()
        golden = json.loads(cli._default_golden_path().read_text())
        assert len(golden["values"]) == 19
        for name, entry in golden["values"].items():
            assert abs(vals[name] - entry["value"]) <= entry["tol"], name
        (fld, hes), = hessians
        assert np.any(fld.coeffs.K != 0.0)
        for kk in (fld.coeffs.a, fld.coeffs.b):
            assert np.max(hes.grad_norm * np.abs(kk)[:, None]) >= 1.0

    def test_perturbed_golden_fails_with_diff(self, tmp_path, capsys):
        src = json.loads(cli._default_golden_path().read_text())
        src["values"]["schwarzschild.E_flux"]["value"] = 1.5
        gpath = write(tmp_path, "golden.json", json.dumps(src))
        rc = cli.main(["regress", "--deterministic", "--golden", gpath])
        out = capsys.readouterr().out
        assert rc == 1
        assert "FAIL" in out
        assert "schwarzschild.E_flux" in out

    def test_filter_selects_subset(self, capsys):
        rc = cli.main(["regress", "--deterministic", "--filter",
                       "shi_tam"])
        out = capsys.readouterr().out
        assert rc == 0
        table = json.loads(out[out.index("{"):])["reports"]["table"]
        assert table and all("shi_tam" in row["name"] for row in table)
