"""Run one corner-mass command in this fresh process and record how it went.

    python3 bench/child.py --result PATH [--trace 0|1] [--import-only] \
        -- <corner-mass arguments>

Times the import of ``cornermass.cli`` (what a user pays on every CLI run)
and the call to ``cli.main``, records the peak resident set size of the
process and, with ``--trace 1``, installs the wrappers of ``tracer.py`` so
every call into a traced function leaves a span.  The record is written as
JSON to ``--result``; an exception escaping ``cli.main`` is recorded, not
raised.
"""

import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))


def main(argv):
    sep = argv.index("--") if "--" in argv else len(argv)
    opts, cli_args = argv[:sep], argv[sep + 1:]
    result_path = opts[opts.index("--result") + 1]
    traced = "--trace" in opts and opts[opts.index("--trace") + 1] == "1"

    t0 = time.perf_counter()
    import cornermass.cli as cli
    import_s = time.perf_counter() - t0

    import json
    import resource
    import traceback

    record = {"import_s": import_s}
    if "--import-only" not in opts:
        tracer = None
        if traced:
            sys.path.insert(0, str(BENCH))
            from tracer import Tracer
            tracer = Tracer()
            record["missing"] = tracer.install()
        rc, error = None, None
        t1 = time.perf_counter()
        try:
            if tracer is not None:
                rc = tracer.call("cli.main", cli.main, (cli_args,), {})
            else:
                rc = cli.main(cli_args)
        except SystemExit as exc:        # argparse rejects bad arguments
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception:
            error = traceback.format_exc()
        record.update(main_s=time.perf_counter() - t1, rc=rc, error=error)
        if tracer is not None:
            record["spans"] = tracer.spans
    # ru_maxrss is in KiB on Linux
    record["rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    Path(result_path).write_text(json.dumps(record), encoding="utf-8")


if __name__ == "__main__":
    main(sys.argv[1:])
