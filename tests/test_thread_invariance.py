"""The same numbers on any BLAS thread count (ROADMAP item 2(c)).

Each config runs in two concurrent processes, one with one BLAS thread and
one with two, and every report number and CSV cell of the two output trees
must agree within these tolerances.  The configs are ``configs/quick.yaml``
and a 1025-point Schmidt tree (``fig2_amplitude``, ``fig3_schmidt`` and a
12-phase d = 2 ``schmidt_fringes``), whose blurred amplitude takes the
low-rank Schmidt solve that quick's 129-order blocks never reach.


- scans, spectra, modes and number lists: 1e-12 of the largest magnitude in
  the column or list (a lone number is a list of one);
- fitted parameters, and the Bell parameters computed from them: 1e-10
  relative;
- numbers that are themselves at rounding level (fit residuals, route gaps,
  Gram leakage, the equalization spread): 1e-12 absolute;
- lambda_err, which is at rounding level when its lambda sits at the
  lambda <= 1 bound and a fitted number otherwise: 1e-12 absolute or 1e-10
  relative.

A fitted (gamma1, gamma2) pair with gamma2 > 1 is compared as
(gamma1/gamma2, 1/gamma2).  The gamma fringe model and I2 are exactly
invariant under that map, and a noise-free fit lands on either image by
rounding (``metrics.fit_gamma``), so the map compares what the scan
determines rather than the branch.  Verdicts and every other non-number
must be equal.
"""

import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import yaml

import biphoton_shaper

from oracles import canonical_gamma

ROOT = Path(__file__).resolve().parents[1]
SRC = Path(biphoton_shaper.__file__).resolve().parents[1]

LIST_RTOL = 1e-12
FIT_RTOL = 1e-10
ROUNDING_ATOL = 1e-12
FIT_KEYS = {"lambda", "lambda_err", "lambda_from_counts", "lambda_from_counts_err",
            "post_filter_lambda", "visibility", "gamma1", "gamma2", "i2"}
ROUNDING_KEYS = {"fit_residual", "cos4_residual", "cos4_residual_at_t1_0", "route_max_gap",
                 "gram_max_offdiag", "equalization_spread", "lambda_err"}
RUN = ("import sys; sys.path.insert(0, sys.argv[1]); from biphoton_shaper.cli import main; "
       "sys.exit(main(sys.argv[2:]))")


SCHMIDT_1025 = {"version": 1, "seed": 7, "grid": {"n_points": 1025, "omega_max": 0.35},
                "experiments": [{"id": "fig2_amplitude"}, {"id": "fig3_schmidt"},
                                {"id": "schmidt_fringes", "d": 2, "phi_points": 12}]}


def _run_both(tmp_path, config):
    """Output trees of a config under 1 and 2 BLAS threads, run concurrently."""
    procs = {}
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads}
        out = tmp_path / f"threads_{threads}"
        procs[out] = subprocess.Popen(
            [sys.executable, "-c", RUN, str(SRC), "run", str(config), "--out", str(out)],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT)
    for out, proc in procs.items():
        log, _ = proc.communicate(timeout=300)
        assert proc.returncode == 0, log.decode()
    return list(procs)


def _close(a, b, key, scale=None):
    """Whether two report numbers or cells agree under the tolerance of ``key``
    (either tolerance, for a key in both sets)."""
    if key in ROUNDING_KEYS or key in FIT_KEYS:
        return ((key in ROUNDING_KEYS and abs(a - b) <= ROUNDING_ATOL)
                or (key in FIT_KEYS and abs(a - b) <= FIT_RTOL * max(abs(a), abs(b))))
    return abs(a - b) <= LIST_RTOL * (max(abs(a), abs(b)) if scale is None else scale)


def _compare_report(a, b, path, key=None):
    if isinstance(a, dict):
        assert a.keys() == b.keys(), path
        a, b = dict(a), dict(b)
        if "gamma1" in a:
            for side in (a, b):
                side["gamma1"], side["gamma2"] = canonical_gamma(side["gamma1"],
                                                                  side["gamma2"])
        for name in a:
            _compare_report(a[name], b[name], f"{path}.{name}", name)
    elif isinstance(a, list) and a and all(isinstance(x, (int, float)) and
                                           not isinstance(x, bool) for x in a):
        assert len(a) == len(b), path
        scale = max(abs(x) for x in a + b)
        for i, (x, y) in enumerate(zip(a, b)):
            assert _close(x, y, key, scale), (f"{path}[{i}]", x, y)
    elif isinstance(a, list):
        assert len(a) == len(b), path
        for i, (x, y) in enumerate(zip(a, b)):
            _compare_report(x, y, f"{path}[{i}]", key)
    elif isinstance(a, float) and not isinstance(a, bool):
        assert _close(a, b, key), (path, a, b)
    else:
        assert a == b, (path, a, b)


def _columns(path):
    with open(path, newline="", encoding="utf-8") as f:
        header, *rows = csv.reader(f)
    columns = {}
    for name, cells in zip(header, zip(*rows)):
        try:
            columns[name] = np.array(cells, dtype=float)
        except ValueError:
            columns[name] = list(cells)
    return columns


def _compare_csv(a_path, b_path):
    a, b = _columns(a_path), _columns(b_path)
    assert a.keys() == b.keys(), a_path.name
    for name in [n for n in a if n.startswith("gamma1_")]:
        other = "gamma2_" + name.removeprefix("gamma1_")
        for side in (a, b):
            pairs = [canonical_gamma(g1, g2) for g1, g2 in zip(side[name], side[other])]
            side[name], side[other] = (np.array(column) for column in zip(*pairs))
    for name, x in a.items():
        y = b[name]
        if isinstance(x, list):
            assert x == y, (a_path.name, name)
        elif name.startswith(("gamma1_", "gamma2_", "i2_")):  # fitted, per row
            assert np.all(np.abs(x - y) <= FIT_RTOL * np.maximum(np.abs(x), np.abs(y))), \
                (a_path.name, name, x, y)
        else:
            scale = np.max(np.abs(np.concatenate([x, y])), initial=0.0)
            assert np.all(np.abs(x - y) <= LIST_RTOL * scale), \
                (a_path.name, name, np.max(np.abs(x - y)) / scale)


def _compare_trees(one, two):
    names = sorted(p.name for p in one.iterdir())
    assert names == sorted(p.name for p in two.iterdir())
    for name in names:
        if name == "manifest.json":
            continue
        if name.endswith(".json"):
            a, b = (json.loads((tree / name).read_text(encoding="utf-8")) for tree in (one, two))
            _compare_report(a, b, name)
        else:
            _compare_csv(one / name, two / name)


def test_quick_numbers_agree_on_one_and_two_blas_threads(tmp_path):
    _compare_trees(*_run_both(tmp_path, ROOT / "configs" / "quick.yaml"))


def test_low_rank_schmidt_numbers_agree_on_one_and_two_blas_threads(tmp_path):
    config = tmp_path / "schmidt_1025.yaml"
    config.write_text(yaml.safe_dump(SCHMIDT_1025), encoding="utf-8")
    one, two = _run_both(tmp_path, config)
    assert (one / "fig3_schmidt_report.json").exists()
    _compare_trees(one, two)
