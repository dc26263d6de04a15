"""The benchmark's six seed-1 commands, run with ``--deterministic`` in
one process, and their committed outputs.

    python tests/snapshot.py --out PATH     # write the current outputs
    python tests/snapshot.py --write        # rewrite SNAPSHOT

Every BLAS thread variable is set to 1 before numpy loads, so the bytes
do not depend on the machine's core count.  The outputs are, per
command, the envelope (parsed and as its SHA-256) and, where the
command writes one, the SHA-256 of its ``--csv`` file.  The configs are
the benchmark's at seed 1, written out here.  ``test_snapshot.py``
reruns the commands and names every key that differs from SNAPSHOT.  A
change that moves a value on purpose rewrites SNAPSHOT and names the
moved keys in CHANGES.md.
"""

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
HERE = Path(__file__).resolve().parent
SNAPSHOT = HERE / "snapshots" / "bench-seed1.json"

# (label, command, config text, writes --csv)
COMMANDS = (
    ("negschw", "massbound",
     "[run]\nscenario = hyperbolic_negschw\nresolutions = 32 48\n"
     "truncation = 30\n", True),
    ("schwarzschild", "massbound",
     "[run]\nscenario = schwarzschild\nresolutions = 32 64 128\n"
     "truncation = 40\n[scenario]\nm = 1.0\n", False),
    ("certificate", "certificate",
     "[certificate]\nr0 = 0.7687284882248024\n"
     "h_eff_sweep = 1.6624165867729241 4.574475379327406 120\n", True),
    ("regress", "regress", None, False),
    ("constraints", "constraints",
     "[run]\nscenario = hyperbolic_negschw\n", False),
    ("quasilocal", "quasilocal",
     "[run]\nscenario = schwarzschild\n[scenario]\nm = 1.0\n"
     "[quasilocal]\nr0 = 5.07491395289921\nhull_radii = 2.6 3.0 3.5\n",
     True),
)


def _sha256(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def run_commands():
    """{label: {command, config, exit_code, envelope, envelope_sha256
    [, csv_sha256]}} for every command, run here in turn.  Call it
    before anything loads numpy: it sets the BLAS thread variables."""
    os.environ.update({var: "1" for var in THREAD_VARS})
    sys.path.insert(0, str(HERE.parent / "src"))
    import numpy as np
    from cornermass import cli

    out = {"numpy": np.__version__, "commands": {}}
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        for label, command, config, csv in COMMANDS:
            argv = [command, "--deterministic", "--out",
                    str(tmp / f"{label}.json")]
            if config is not None:
                (tmp / f"{label}.cfg").write_text(config, encoding="utf-8")
                argv += ["--config", str(tmp / f"{label}.cfg")]
            if csv:
                argv += ["--csv", str(tmp / f"{label}.csv")]
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(argv)
            text = (tmp / f"{label}.json").read_text(encoding="utf-8")
            rec = {"command": command, "config": config, "exit_code": code,
                   "envelope": json.loads(text),
                   "envelope_sha256": _sha256(tmp / f"{label}.json")}
            if csv:
                rec["csv_sha256"] = _sha256(tmp / f"{label}.csv")
            out["commands"][label] = rec
    return out


def main(argv):
    result = run_commands()
    if argv[:1] == ["--write"]:
        path = SNAPSHOT
    elif argv[:1] == ["--out"] and len(argv) == 2:
        path = Path(argv[1])
    else:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n",
                    encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
