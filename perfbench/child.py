"""One biphoton-shaper CLI process, timed from inside.

    python3 perfbench/child.py RESULT_JSON TRACE run CONFIG --out DIR --seed N
    python3 perfbench/child.py RESULT_JSON TRACE validate CONFIG

Imports ``biphoton_shaper.cli`` from the checkout's ``src`` and calls
``cli.main`` with the remaining arguments, as the ``biphoton-shaper`` console
script does.  With TRACE 0 only the public functions of config and scenarios
are wrapped, enough for the set-up and compute times; with TRACE 1 those of
every layer module are (see tracer.py).  After ``cli.main`` returns, the
import time, the spans and the library versions are written to RESULT_JSON
and the process exits with the CLI's code.
"""

import json
import sys
import time
from pathlib import Path

from tracer import LAYER_MODULES, Tracer, trace_layers

ROOT = Path(__file__).resolve().parent.parent


def _library_versions():
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas.get("openblas configuration") or f"{blas['name']} {blas['version']}",
    }


def main():
    result_path, trace, *cli_args = sys.argv[1:]
    sys.path.insert(0, str(ROOT / "src"))

    start = time.perf_counter()
    import biphoton_shaper.cli as cli
    import_s = time.perf_counter() - start

    tracer = Tracer()
    trace_layers(tracer, LAYER_MODULES if trace == "1" else ("config", "scenarios"))
    try:
        code = cli.main(cli_args)
    except SystemExit as exc:  # argparse rejected the arguments
        code = exc.code if isinstance(exc.code, int) else 2

    record = {
        "exit": code,
        "import_s": import_s,
        "spans": tracer.spans(),
        "probed": tracer.probed,
        "versions": _library_versions(),
    }
    Path(result_path).write_text(json.dumps(record), encoding="utf-8")
    return code


if __name__ == "__main__":
    sys.exit(main())
