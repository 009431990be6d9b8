"""Benchmark of the ``biphoton-shaper run`` scenario runner.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout.  Each workload is one closed-loop client
running one scenario config per run: the next run starts when the previous
one has exited.  Every run is a fresh ``biphoton-shaper run`` process
(perfbench/child.py, which calls ``cli.main`` from the checkout's ``src``)
writing into a fresh directory under ``.bench_tmp/``, which is removed at the
end.  The workload seed reaches the program only as ``--seed``; it changes the
synthesized photon counts and nothing else, so every run of a workload does
the same computation.

One invocation measures for ``--seconds``, interleaving in each round a fixed
host-reference timing (to make host drift visible next to the numbers) with
one untraced run and, with ``--trace 1``, one traced run.  It then adds
``validate`` processes until it has MIN_SETUP_SAMPLES set-up times.  Every run
is checked (see ``check_run``); a run that exits non-zero or fails the check
counts all of its experiments as failed.

The last line of standard output is one JSON object: ``correct``,
``attempted`` and ``failed`` (experiments) and ``metrics``, which holds the
``end_to_end`` metrics of BENCHMARK.json with ``--trace 0`` and its
``per_layer`` metrics with ``--trace 1``, each the median over the runs of
this invocation.  The lines above it are a human-readable table with
quartiles, the failed fraction and the environment record.  A traced run also
leaves its per-function table and spans in ``.bench_out/``.

``--write-reference`` records the seed-independent report numbers of the
first run into perfbench/reference.json instead of checking them.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import yaml

ROOT = Path.cwd()
BENCH_DIR = Path(__file__).resolve().parent
CHILD = BENCH_DIR / "child.py"
REFERENCE = BENCH_DIR / "reference.json"

DEADLINE_S = 170.0        # the whole invocation must exit within 180 s
MIN_SETUP_SAMPLES = 7
SETUP_PROBE_S = 4.0       # a validate process takes about 1.5 s
ROUTE_GAP_MAX = 1e-12
REFERENCE_RTOL = 1e-6
REFERENCE_ATOL = 1e-9

# Report keys whose values do not depend on the seed; "*_from_counts" keys are
# skipped wherever they appear.  In a pixelated scan route_max_gap is the
# quantization error of the modulator pixels, not a disagreement between the
# two routes, so it is held to its reference value instead of ROUTE_GAP_MAX.
REFERENCE_KEYS = {"entropy_ebits", "schmidt_number", "eigenvalues", "mode_weights",
                  "lambda", "post_filter_lambda", "gamma1", "gamma2", "i2", "max_i2"}
PIXELATED_REFERENCE_KEYS = REFERENCE_KEYS | {"route_max_gap"}

# Modules whose self time counts toward trace.coverage: the physics layers,
# not the scenario glue that calls them.
COVERAGE_MODULES = ("spectral_field", "bases", "shaper", "measurement", "metrics")


def _generated_config(grid_points, experiments):
    return {"version": 1, "seed": 20240901, "output_dir": "results",
            "grid": {"n_points": grid_points, "omega_max": 0.35},
            "experiments": experiments}


# Each workload stresses a different layer; see BENCHMARK.json for why.
WORKLOADS = {
    # Set-up dominated (about 1 s of import in a 1.4 s run).  Runnable and
    # checked, but not listed in BENCHMARK.json: on a shared 2-vCPU host the
    # spread of its wall and compute medians over ten seeds reached the 0.25
    # limit on bounds, and the other workloads measure the same set-up.
    "quick": "configs/quick.yaml",
    "default": "configs/default.yaml",
    # Scan engine only: 1632 coincidence integrals and no Schmidt experiment.
    # t1 stops at 100 fs: at 130 fs gamma1 oscillates and the sweep fails.
    "fringe_scan": _generated_config(1025, [
        {"id": "time_bin_sweep", "phi_points": 96},
        {"id": "freq_bin_fringes", "d": 2, "pixelate": True, "counts": True,
         "phi_points": 96},
        {"id": "freq_bin_fringes", "d": 3, "pixelate": True, "phi_points": 96},
        {"id": "freq_bin_fringes", "d": 4, "phi_points": 96},
        {"id": "procrustean", "d": 3, "phi_points": 96},
    ]),
    # Schmidt decompositions and the PSF on a 4x larger working set, plus
    # 7 MB of output; only 24 coincidence integrals.
    "schmidt_2049": _generated_config(2049, [
        {"id": "fig2_amplitude", "export_stride": 8},
        {"id": "fig3_schmidt"},
        {"id": "schmidt_fringes", "d": 2, "phi_points": 12},
        {"id": "schmidt_fringes", "d": 3, "phi_points": 12},
    ]),
}


class Fatal(Exception):
    """The benchmark cannot run here; it exits non-zero without a result."""


# --- processes -----------------------------------------------------------------


def run_child(work, tag, trace, cli_args, deadline):
    """Run child.py once; return its record plus wall, CPU and peak RSS."""
    result_path = work / f"{tag}.json"
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise Fatal("out of time before all runs finished")
    with open(work / f"{tag}.log", "wb") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(CHILD), str(result_path), str(trace), *cli_args],
            stdout=log, stderr=subprocess.STDOUT, cwd=ROOT)
        timer = threading.Timer(remaining, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    record = {}
    if result_path.is_file():
        record = json.loads(result_path.read_text(encoding="utf-8"))
    record.update(exit=proc.returncode, wall_s=wall,
                  cpu_s=usage.ru_utime + usage.ru_stime,
                  peak_rss_mb=usage.ru_maxrss / 1024.0)
    return record


def host_reference_s():
    """Fixed pure-Python and hashing work; its time tracks host speed and load."""
    start = time.perf_counter()
    acc = 0
    for i in range(400_000):
        acc = (acc * 31 + i) % 1_000_003
    hashlib.blake2b(bytes(16 << 20)).digest()
    return time.perf_counter() - start


# --- spans -------------------------------------------------------------------


def span_stats(spans):
    """Per span name: calls, total time and self time (total minus children)."""
    in_children = [0.0] * len(spans)
    for span in spans:
        if span["parent"] >= 0:
            in_children[span["parent"]] += span["end"] - span["start"]
    stats = {}
    for span, children in zip(spans, in_children):
        duration = span["end"] - span["start"]
        entry = stats.setdefault(span["name"], {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        entry["calls"] += 1
        entry["total_s"] += duration
        entry["self_s"] += duration - children
    return stats


def _stat(stats, name, key):
    return stats.get(name, {}).get(key, 0)


def setup_s(record):
    stats = span_stats(record["spans"])
    return (record["import_s"] + _stat(stats, "config.load_config", "total_s")
            + _stat(stats, "config.validate_config", "total_s"))


def compute_s(record):
    return _stat(span_stats(record["spans"]), "scenarios.run_scenario_experiments",
                 "total_s")


# --- output check ----------------------------------------------------------------


def _leaves(value, path):
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _leaves(item, f"{path}.{key}" if path else key)
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from _leaves(item, f"{path}[{i}]")
    elif isinstance(value, (int, float)) and not isinstance(value, bool):
        yield path, float(value)


def _key_parts(path):
    return path.replace("[", ".[").split(".")


def reference_numbers(report):
    """The seed-independent numbers of one report, by key path."""
    keys = PIXELATED_REFERENCE_KEYS if report.get("pixelated") else REFERENCE_KEYS
    return {path: value for path, value in _leaves(report, "")
            if "_from_counts" not in path and keys.intersection(_key_parts(path))}


def check_run(out_dir, n_experiments, reference, manifests):
    """Check one run's outputs; return (failed experiments, problems).

    ``reference`` maps report name -> key path -> value, or is None while it
    is being recorded.  ``manifests`` holds the manifest of the invocation's
    first run; every later run must write the same one.
    """
    manifest_path = out_dir / "manifest.json"
    if not manifest_path.is_file():
        return n_experiments, ["no manifest.json"]
    manifest = manifest_path.read_text(encoding="utf-8")
    manifests.setdefault("first", manifest)
    if manifest != manifests["first"]:
        return n_experiments, ["manifest.json differs from the first run's"]
    reports = sorted(out_dir.glob("*_report.json"))
    if len(reports) != n_experiments:
        return n_experiments, [f"{len(reports)} reports for {n_experiments} experiments"]

    failed, problems = 0, []
    for path in reports:
        payload = json.loads(path.read_text(encoding="utf-8"))
        name = payload["name"]
        bad = []
        if payload["passed"] not in (True, None):
            bad.append(f"verdict {payload['passed']!r}")
        gaps = [v for p, v in _leaves(payload["report"], "")
                if _key_parts(p)[-1] == "route_max_gap"]
        if not payload["report"].get("pixelated") and any(g > ROUTE_GAP_MAX for g in gaps):
            bad.append(f"route_max_gap {max(gaps):.3g} > {ROUTE_GAP_MAX:g}")
        if reference is not None:
            got = reference_numbers(payload["report"])
            want = reference.get(name)
            if want is None or set(got) != set(want):
                bad.append("report numbers do not match the reference keys")
            else:
                off = [p for p in want if abs(got[p] - want[p])
                       > REFERENCE_ATOL + REFERENCE_RTOL * abs(want[p])]
                if off:
                    bad.append(f"{len(off)} numbers off the reference, e.g. "
                               f"{off[0]} = {got[off[0]]!r} vs {want[off[0]]!r}")
        if bad:
            failed += 1
            problems.append(f"{name}: " + "; ".join(bad))
    return failed, problems


def record_reference(workload, out_dir):
    table = json.loads(REFERENCE.read_text(encoding="utf-8")) if REFERENCE.is_file() else {}
    table[workload] = {}
    for path in sorted(out_dir.glob("*_report.json")):
        payload = json.loads(path.read_text(encoding="utf-8"))
        table[workload][payload["name"]] = reference_numbers(payload["report"])
    REFERENCE.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n",
                         encoding="utf-8")


# --- statistics and output ---------------------------------------------------------


def quartiles(values):
    if len(set(values)) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def environment():
    commit = "unavailable (not a git checkout)"
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
        commit = done.stdout.strip() or commit
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "threads_env": {k: v for k, v in sorted(os.environ.items())
                        if k.endswith("_NUM_THREADS")},
        "commit": commit,
    }


def print_table(title, rows):
    print(title)
    print(f"  {'metric':44s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'n':>4s}  unit")
    for name, unit, samples in rows:
        q1, median, q3 = quartiles(samples)
        print(f"  {name:44s} {median:12.6g} {q1:12.6g} {q3:12.6g} {len(samples):4d}  {unit}")


# --- main ----------------------------------------------------------------------


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--write-reference", action="store_true",
                        help="record the report numbers instead of checking them")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    return args


def prepare(args, work):
    """Write the workload's config; return (config path, experiment count)."""
    if not (ROOT / "src" / "biphoton_shaper" / "cli.py").is_file():
        raise Fatal(f"{ROOT} holds no src/biphoton_shaper; run from a checkout root")
    source = WORKLOADS[args.workload]
    if isinstance(source, str):
        config = ROOT / source
        if not config.is_file():
            raise Fatal(f"missing {source}")
        tree = yaml.safe_load(config.read_text(encoding="utf-8"))
    else:
        tree = source
        config = work / f"{args.workload}.yaml"
        config.write_text(yaml.safe_dump(tree, sort_keys=False), encoding="utf-8")
    return config, len(tree["experiments"])


def measure(args, work, config, n_experiments, deadline):
    """Run the rounds; return the samples, counts and problems of this invocation."""
    reference = None
    if not args.write_reference:
        if not REFERENCE.is_file():
            raise Fatal(f"missing {REFERENCE.name}; record it with --write-reference")
        reference = json.loads(REFERENCE.read_text(encoding="utf-8")).get(args.workload)
        if reference is None:
            raise Fatal(f"{REFERENCE.name} has no entry for {args.workload}")

    # Warm-up, not timed: checks the config with validate_config and fills
    # the byte-code and page caches, which users pay for once.
    warm = run_child(work, "warmup", 0, ["validate", str(config)], deadline)
    if warm["exit"] != 0:
        raise Fatal(f"config does not validate (exit {warm['exit']}); "
                    f"see {(work / 'warmup.log').read_text(errors='replace')[-400:]}")

    runs, traced, probes, host = [], [], [], []
    manifests, problems = {}, []
    attempted = failed = launched = 0
    started = time.monotonic()
    while True:
        host.append(host_reference_s())
        kinds = [(0, runs)] + ([(1, traced)] if args.trace else [])
        for trace, sink in kinds:
            tag = f"run{launched:03d}"  # unique even when a run fails
            launched += 1
            out_dir = work / f"{tag}_out"
            record = run_child(work, tag, trace,
                               ["run", str(config), "--out", str(out_dir),
                                "--seed", str(args.seed)], deadline)
            attempted += n_experiments
            if record["exit"] != 0 or "spans" not in record:
                failed += n_experiments
                problems.append(f"{tag}: exit code {record['exit']}")
                continue
            if args.write_reference and reference is None:
                record_reference(args.workload, out_dir)
                reference = json.loads(REFERENCE.read_text())[args.workload]
            bad, why = check_run(out_dir, n_experiments, reference, manifests)
            failed += bad
            problems += [f"{tag}: {p}" for p in why]
            record["out_dir"] = out_dir
            sink.append(record)
            if trace == 0:
                shutil.rmtree(out_dir)  # keep the disk footprint to one run's
        if time.monotonic() - started >= args.seconds:
            break

    while (len(runs) + len(probes) < MIN_SETUP_SAMPLES
           and deadline - time.monotonic() > SETUP_PROBE_S):
        record = run_child(work, f"setup{len(probes):03d}", 0,
                           ["validate", str(config)], deadline)
        if record["exit"] != 0 or "spans" not in record:
            problems.append(f"setup probe: exit code {record['exit']}")
            break
        probes.append(record)
    return runs, traced, probes, host, attempted, failed, problems


def end_to_end(runs, probes):
    return {
        "wall_s": [r["wall_s"] for r in runs],
        "setup_s": [setup_s(r) for r in runs + probes],
        "compute_s": [compute_s(r) for r in runs],
        "cpu_s": [r["cpu_s"] for r in runs],
        "peak_rss_mb": [r["peak_rss_mb"] for r in runs],
    }


def per_layer(names, runs, traced, probes, host, problems):
    """Per-layer samples from the traced runs, for each per_layer metric name."""
    stats = [span_stats(r["spans"]) for r in traced]
    calls = [{name: entry["calls"] for name, entry in s.items()} for s in stats]
    if any(c != calls[0] for c in calls):
        problems.append("span call counts differ between traced runs")

    first = traced[0]
    svd_keys = first["probed"].get("bases.amplitude_svd", [])
    out_files = [p for p in first["out_dir"].iterdir() if p.is_file()]
    traced_compute = [compute_s(r) for r in traced]
    physics_self = [sum(e["self_s"] for n, e in s.items()
                        if n.split(".")[0] in COVERAGE_MODULES) for s in stats]
    special = {
        "cli.import_s": [r["import_s"] for r in runs + traced + probes],
        "host.reference_s": host,
        "bases.amplitude_svd.distinct_ratio":
            [len(set(svd_keys)) / len(svd_keys) if svd_keys else 1.0],
        "measurement.coincidence_signal.bytes_computed":
            [sum(first["probed"].get("measurement.coincidence_signal", []))],
        "scenarios.emit_outputs.bytes": [sum(p.stat().st_size for p in out_files)],
        "scenarios.emit_outputs.files": [len(out_files)],
        "trace.overhead_s": [statistics.median(traced_compute)
                             - statistics.median(compute_s(r) for r in runs)],
        "trace.coverage": [p / c for p, c in zip(physics_self, traced_compute)],
    }
    samples = {}
    for name in names:
        if name in special:
            samples[name] = special[name]
        else:
            span, key = name.rsplit(".", 1)
            samples[name] = [_stat(s, span, key) for s in stats]
    return samples


def save_trace(args, traced):
    stats = span_stats(traced[-1]["spans"])
    out = ROOT / ".bench_out"
    out.mkdir(exist_ok=True)
    path = out / f"trace_{args.workload}_seed{args.seed}.json"
    path.write_text(json.dumps({"per_function": stats, "spans": traced[-1]["spans"]}),
                    encoding="utf-8")
    rows = sorted(stats.items(), key=lambda item: -item[1]["self_s"])
    print("per function, last traced run (sorted by self time):")
    print(f"  {'function':44s} {'calls':>7s} {'self_s':>10s} {'total_s':>10s}")
    for name, entry in rows:
        print(f"  {name:44s} {entry['calls']:7d} {entry['self_s']:10.4f} "
              f"{entry['total_s']:10.4f}")
    print(f"spans written to {path.relative_to(ROOT)}")


def main(argv=None):
    args = parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    deadline = time.monotonic() + DEADLINE_S
    work = ROOT / ".bench_tmp" / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        config, n_experiments = prepare(args, work)
        runs, traced, probes, host, attempted, failed, problems = measure(
            args, work, config, n_experiments, deadline)
        if not runs or (args.trace and not traced):
            raise Fatal("no run completed: " + "; ".join(problems[:3]))
        # The untraced runs' table is printed in both modes; the JSON result
        # holds the last table: end-to-end untraced, per-layer traced.
        tables = [("end-to-end", spec["end_to_end"], end_to_end(runs, probes))]
        if args.trace:
            names = [m["name"] for m in spec["per_layer"]]
            tables.append(("per-layer", spec["per_layer"],
                           per_layer(names, runs, traced, probes, host, problems)))
            save_trace(args, traced)
    except Fatal as exc:
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if not any(work.parent.iterdir()):
            work.parent.rmdir()

    env = environment()
    env["versions"] = runs[0]["versions"]
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{len(runs)} untraced runs, {len(traced)} traced runs, "
          f"{len(probes)} set-up probes in {len(host)} rounds")
    print("environment:", json.dumps(env, sort_keys=True))
    print_table("host drift:", [("host.reference_s", "s", host)])
    for title, metrics, values in tables:
        print_table(f"{title} metrics (median and quartiles over this invocation's runs):",
                    [(m["name"], m["unit"], values[m["name"]]) for m in metrics])
    print(f"failed_fraction: {failed}/{attempted} = {failed / attempted:.6g}")
    for problem in problems:
        print(f"check failed: {problem}")
    print("output check:", "ok" if not problems else f"{len(problems)} problems")

    _, declared, samples = tables[-1]
    metrics = {m["name"]: {"value": quartiles(samples[m["name"]])[1], "unit": m["unit"]}
               for m in declared}
    print(json.dumps({"correct": not problems and failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
