"""Run the benchmark over several seeds, workloads round-robin, and summarize.

    python3 perfbench/sweep.py --rounds 10 [--trace 0|1] [--first-seed N]
                               [--out FILE --label NAME]

Run it from the root of a checkout.  Round r runs every workload of
BENCHMARK.json once with seed first_seed + r, so host drift spreads over all
workloads instead of landing on one.  For each workload and metric it prints the median, the
quartiles (``statistics.quantiles(values, n=4)``) and their distance as a
share of the median, next to the metric's bound in BENCHMARK.json, and the
host-reference time of each run.  With ``--out`` the set is stored in FILE
under ``sets[NAME]``, alongside any sets already there; when FILE already
holds a set of the same trace mode, each end-to-end median is compared with
that set's, against the bound.
"""

import argparse
import json
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

from run import quartiles

ROOT = Path.cwd()
RUN = Path(__file__).resolve().parent / "run.py"
HOST_LINE = re.compile(r"^\s+host\.reference_s\s+(\S+)")


def run_once(workload, seed, seconds, trace):
    done = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} exited {done.returncode}:\n"
                         f"{done.stderr[-2000:]}")
    host = next((float(m.group(1)) for m in map(HOST_LINE.match, lines) if m), None)
    return json.loads(lines[-1]), host


def summarize(values):
    q1, median, q3 = quartiles(values)
    spread = (q3 - q1) / median if median else 0.0
    return {"median": median, "q1": q1, "q3": q3, "spread": spread, "n": len(values),
            "values": values}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--rounds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--out", help="JSON file to store the set in")
    parser.add_argument("--label", default="set", help="name of the set in --out")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = [w["name"] for w in spec["workloads"]]
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    bounds = {m["name"]: m.get("bound") for m in declared}

    samples = {w: {m["name"]: [] for m in declared} for w in workloads}
    hosts = {w: [] for w in workloads}
    failures = []
    for r in range(args.rounds):
        for workload in workloads:
            seed = args.first_seed + r
            started = time.monotonic()
            result, host = run_once(workload, seed, spec["run_seconds"], args.trace)
            elapsed = time.monotonic() - started
            if not result["correct"] or result["failed"]:
                failures.append(f"{workload} seed {seed}: {result['failed']}/"
                                f"{result['attempted']} failed")
            for name, entry in result["metrics"].items():
                samples[workload][name].append(entry["value"])
            hosts[workload].append(host)
            print(f"round {r} {workload} seed {seed} took {elapsed:.1f} s, host {host:.4f} "
                  + " ".join(f"{k}={v['value']:.4g}"
                             for k, v in list(result["metrics"].items())[:6]),
                  flush=True)

    summary = {w: {name: summarize(vals) for name, vals in samples[w].items()}
               for w in workloads}
    print(f"\n{'workload':14s} {'metric':44s} {'median':>11s} {'spread':>8s} {'bound':>6s}")
    for workload in workloads:
        for name, stats in summary[workload].items():
            bound = bounds[name]
            flag = "" if bound is None else (
                "  over bound" if stats["spread"] > bound
                else "  over a third" if stats["spread"] > bound / 3 else "")
            print(f"{workload:14s} {name:44s} {stats['median']:11.5g} "
                  f"{stats['spread']:8.4f} {bound if bound is not None else '':>6}{flag}")
        print(f"{workload:14s} {'host.reference_s (per run)':44s} "
              f"{statistics.median(hosts[workload]):11.5g}")
    for failure in failures:
        print("FAILED:", failure)

    if args.out:
        out = Path(args.out)
        stored = json.loads(out.read_text(encoding="utf-8")) if out.is_file() else {}
        for label, old in stored.get("sets", {}).items():
            if old["trace"] != args.trace or label == args.label:
                continue
            for workload in workloads:
                for name, stats in summary[workload].items():
                    bound = bounds[name]
                    before = old["workloads"].get(workload, {}).get(name)
                    if bound is None or before is None:
                        continue
                    change = stats["median"] / before["median"] - 1.0
                    verdict = "worse than bound" if change > bound else "ok"
                    print(f"vs {label}: {workload:14s} {name:12s} {change:+.4f} "
                          f"(bound {bound}) {verdict}")
        stored.setdefault("sets", {})[args.label] = {
            "trace": args.trace, "rounds": args.rounds, "first_seed": args.first_seed,
            "run_seconds": spec["run_seconds"], "failures": failures,
            "host_reference_s": hosts, "workloads": summary}
        out.write_text(json.dumps(stored, indent=1) + "\n", encoding="utf-8")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
