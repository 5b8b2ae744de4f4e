"""Repeat benchmark runs over seeds and record them as BENCH_<label>.json.

    python3 bench/baseline.py --label seed

Runs `run.py --trace 0` once per seed (seeds 0 .. RUNS-1) on each workload,
then one traced run per workload at the default seed.
For every end-to-end metric it prints and stores the median, the quartiles
(`statistics.quantiles(n=4)`) and the spread (q3 - q1) / median, next to the
metric's bound from BENCHMARK.json.  A spread above a third of the bound
means the benchmark is not steady enough on this machine.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import subprocess
import sys
from pathlib import Path

from workloads import DEFAULT_SEED, WORKLOADS

BENCH = Path(__file__).resolve().parent
RUNS = 10
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def run(workload, seed, trace):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(SPEC["run_seconds"]),
         "--trace", str(trace)],
        capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    record = json.loads((BENCH / "out" /
                         f"{workload}-seed{seed}-trace{trace}.json").read_text())
    return {"seed": seed, "attempted": out["attempted"],
            "failed": out["failed"], "env": record["env"],
            "metrics": {k: v["value"] for k, v in out["metrics"].items()}}


def summarize(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values)}


def machine():
    info = {"platform": platform.platform()}
    for line in Path("/proc/cpuinfo").read_text().splitlines():
        if line.startswith("model name"):
            info["cpu"] = line.split(":", 1)[1].strip()
            break
    for line in Path("/proc/meminfo").read_text().splitlines():
        if line.startswith("MemTotal"):
            info["mem_total"] = line.split(":", 1)[1].strip()
    return info


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--label", required=True,
                    help="names the output file BENCH_<label>.json")
    args = ap.parse_args()

    doc = {"label": args.label, "machine": machine(),
           "run_seconds": SPEC["run_seconds"], "workloads": {}}
    for name in WORKLOADS:
        runs = []
        for seed in range(RUNS):
            runs.append(run(name, seed, 0))
            print(name, seed, runs[-1]["metrics"], flush=True)
        entry = {"runs": runs, "summary": {}}
        for m in SPEC["end_to_end"]:
            s = summarize([r["metrics"][m["name"]] for r in runs])
            entry["summary"][m["name"]] = s
            print(f"{name} {m['name']}: median {s['median']:.4f} "
                  f"spread {s['spread']:.4f} (bound {m['bound']}, "
                  f"a third {m['bound'] / 3:.4f})", flush=True)
        entry["trace"] = run(name, DEFAULT_SEED, 1)
        doc["machine"].update((k, v) for k, v in runs[0]["env"].items()
                              if k != "seed")
        doc["workloads"][name] = entry
    path = BENCH / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote {path.relative_to(BENCH.parent)}")


if __name__ == "__main__":
    main()
