"""Noise self-check: is the benchmark steady enough for its own bounds?

``python3 benchmarks/perf/selfcheck.py --sets 2 --runs 10 > NOISE.md``
repeats what the PR driver does before it accepts a benchmark: every
workload is run ``--runs`` times per set, each run a fresh process with
another ``--seed``, set after set on the same tree.  For every
end-to-end metric it prints each set's median and spread (distance
between the first and third quartile as a share of the median), and how
much worse the last set's median is than the first's.  It fails if a
spread (``setup_s`` excepted, as in the driver) or a gap exceeds the
metric's bound in ``BENCHMARK.json``, or if any run reports a failure.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
OUT_DIR = Path(__file__).resolve().parent / "out"

#: What the driver allows for all of its runs (4 + 22 per workload).
DRIVER_BUDGET_S = 3420


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def run_once(manifest: dict, workload: str, seed: int, trace: int) -> tuple[dict, float]:
    command = [
        *manifest["command"],
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(manifest["run_seconds"]),
        "--trace", str(trace),
    ]
    start = time.perf_counter()
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, check=False)
    wall = time.perf_counter() - start
    if done.returncode != 0:
        raise SystemExit(f"{' '.join(command)} exited {done.returncode}:\n{done.stderr}")
    # Every run's full output (host fingerprint, per-repetition times) is kept.
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"selfcheck-{workload}-seed{seed}.txt").write_text(done.stdout)
    return json.loads(done.stdout.splitlines()[-1]), wall


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--runs", type=int, default=10)
    args = parser.parse_args(argv)
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in manifest["workloads"]]

    # samples[workload][metric][set] -> values; one seed per run, none reused.
    samples = {w: {m["name"]: [] for m in manifest["end_to_end"]} for w in workloads}
    walls = {w: [] for w in workloads}
    failed = 0
    for set_index in range(args.sets):
        for workload in workloads:
            for metric_sets in samples[workload].values():
                metric_sets.append([])
            for run in range(args.runs):
                seed = 1 + set_index * args.runs + run
                result, wall = run_once(manifest, workload, seed, trace=0)
                values = " ".join(f"{n}={m['value']:.6g}" for n, m in result["metrics"].items())
                print(
                    f"set {set_index + 1} {workload} seed {seed}: {wall:.1f} s {values}",
                    file=sys.stderr,
                )
                walls[workload].append(wall)
                failed += result["failed"] + (not result["correct"])
                for name, metric_sets in samples[workload].items():
                    metric_sets[-1].append(result["metrics"][name]["value"])

    print(f"# Noise self-check: {args.sets} sets x {args.runs} runs per workload\n")
    print("Spread is (Q3 - Q1) / median over a set's runs; gap is how much worse the")
    print("last set's median is than the first's, as a share of the first.\n")
    header = "| workload | metric | unit |"
    header += "".join(f" median {k + 1} | spread {k + 1} |" for k in range(args.sets))
    print(header + " gap | bound | verdict |")
    print("|" + "---|" * (6 + 2 * args.sets))
    ok = failed == 0
    for workload in workloads:
        for metric in manifest["end_to_end"]:
            sets = samples[workload][metric["name"]]
            medians = [statistics.median(values) for values in sets]
            spreads = [spread(values) for values in sets]
            gap = (medians[-1] - medians[0]) / medians[0]
            if metric["better"] == "higher":
                gap = -gap
            steady = metric["name"] == "setup_s" or max(spreads) <= metric["bound"]
            verdict = "ok" if steady and gap <= metric["bound"] else "FAIL"
            ok = ok and verdict == "ok"
            cells = "".join(f" {m:.6g} | {s:.4f} |" for m, s in zip(medians, spreads))
            print(
                f"| {workload} | {metric['name']} | {metric['unit']} |{cells}"
                f" {gap:+.4f} | {metric['bound']} | {verdict} |"
            )
    mean_total = sum(statistics.fmean(w) for w in walls.values())
    projected = mean_total * 22 + 4 * max(max(w) for w in walls.values())
    print(f"\nRuns with a failed or incorrect result: {failed}.\n")
    print("| workload | mean invocation | slowest invocation |")
    print("|---|---|---|")
    for workload, values in walls.items():
        print(f"| {workload} | {statistics.fmean(values):.1f} s | {max(values):.1f} s |")
    print(
        f"\nProjected driver total (22 runs per workload + 4): {projected:.0f} s "
        f"of {DRIVER_BUDGET_S} s allowed."
    )
    ok = ok and projected <= DRIVER_BUDGET_S
    print(f"\nVerdict: {'ok' if ok else 'FAIL'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
