"""homspace benchmark: one run of one workload, in fresh child processes.

    python3 bench/run.py --workload theorem-band --seed 0 --seconds 30 --trace 0

Prints the run's environment and every metric by name and unit, then, as the
last line, one JSON object with `correct`, `attempted`, `failed` and
`metrics`.  `--trace 0` reports the end-to-end metrics of BENCHMARK.json,
`--trace 1` its per-layer metrics.  Exits 1 when a command fails its check
and 2 when the run cannot start or the child dies.  README.md has the
workloads and what each metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import PEAK_METRICS
from workloads import WORKLOADS, sequence_figures

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
# one BLAS thread: the plain single-threaded baseline
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
CHILD_TIMEOUT_S = 170


def fail(msg):
    print(f"bench: {msg}", file=sys.stderr)
    raise SystemExit(2)


class Children:
    """Starts worker parts one at a time, each in a fresh child process."""

    def __init__(self, args):
        self.args = args
        self.env = dict(os.environ, **{k: str(BLAS_THREADS) for k in BLAS_ENV})
        self.deadline = time.monotonic() + CHILD_TIMEOUT_S
        self.count = 0

    def run(self, part):
        a = self.args
        self.count += 1
        path = OUT / f"{a.workload}-seed{a.seed}-{self.count}-{part}.json"
        path.unlink(missing_ok=True)
        cmd = [sys.executable, str(BENCH / "worker.py"), "--workload",
               a.workload, "--seed", str(a.seed), "--part", part,
               "--result", str(path)]
        try:
            # the child's own output goes to stderr: stdout ends with the result
            proc = subprocess.run(cmd, env=self.env, cwd=ROOT,
                                  stdout=sys.stderr, check=False,
                                  timeout=self.deadline - time.monotonic())
        except subprocess.TimeoutExpired:
            fail(f"run exceeded {CHILD_TIMEOUT_S} s")
        if proc.returncode != 0 or not path.is_file():
            fail(f"{part} worker exited with status {proc.returncode}")
        return json.loads(path.read_text())


def rounds(children, seconds, parts):
    """Start one child per part, round after round, until `seconds` have
    passed, so a run measures at least that long.  Returns the rounds."""
    start = time.monotonic()
    done = []
    while not done or time.monotonic() - start < seconds:
        done.append([children.run(part) for part in parts])
    return done


def medians(records):
    return {k: statistics.median(r[k] for r in records) for k in records[0]}


def untraced_metrics(seqs):
    """Medians over the run's sequences; setup_s over all their set-ups."""
    metrics = medians([sequence_figures(p["steps"]) for p in seqs])
    metrics["setup_s"] = statistics.median(
        t for p in seqs for t in p["setup_s"])
    metrics["peak_rss_mb"] = max(p["peak_rss_mb"] for p in seqs)
    return metrics


def traced_metrics(plain, traced, memory):
    """Per-layer medians over the traced children, the `_mb` peaks from the
    memory child, and the cmd.* figures from the untraced children that
    alternate with the traced ones; every child starts cold."""
    base = medians([sequence_figures(p["steps"]) for p in plain])
    metrics = medians([p["layers"] for p in traced])
    metrics.update((k, memory["layers"][k]) for k in PEAK_METRICS)
    metrics.update((k, v) for k, v in base.items() if k.startswith("cmd."))
    metrics["trace.overhead_s"] = statistics.median(
        sequence_figures(p["steps"])["run_s"] for p in traced) - base["run_s"]
    return metrics


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=list(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "homspace" / "__init__.py").is_file():
        fail(f"no homspace source under {ROOT / 'src'}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    nproc = len(os.sched_getaffinity(0))
    if BLAS_THREADS > nproc:
        fail(f"{BLAS_THREADS} BLAS threads exceed nproc={nproc}")
    OUT.mkdir(exist_ok=True)

    children = Children(args)
    if args.trace:
        pairs = rounds(children, args.seconds, ("sequence", "trace"))
        memory = children.run("memory")
        metrics = traced_metrics([p for p, _ in pairs], [t for _, t in pairs],
                                 memory)
        parts = [p for pair in pairs for p in pair] + [memory]
    else:
        parts = [r[0] for r in rounds(children, args.seconds, ("sequence",))]
        metrics = untraced_metrics(parts)
    steps = [r for p in parts for r in p["steps"]]
    failed = sum(1 for r in steps if r["problems"])
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        fail(f"worker did not measure {missing}")
    record = {"env": parts[0]["env"], "reference": parts[0]["reference"],
              "attempted": len(steps), "failed": failed, "metrics": metrics,
              "parts": parts}
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps(record, indent=1) + "\n")

    for key, val in record["env"].items():
        print(f"env {key} = {val}")
    ref = record["reference"] or "none for this seed, exit status only"
    print(f"reference = {ref}")
    for step in steps:
        state = "FAIL" if step["problems"] else "ok"
        print(f"command {step['step']} {state} {step['wall_s']:.4f} s")
    print(f"metric failed_frac = {failed / len(steps)} ratio")
    for name, val in metrics.items():
        if name.startswith("cmd.") and not args.trace and val > 0:
            print(f"metric {name} = {val} s")
    out = {}
    for m in wanted:
        val = metrics[m["name"]]
        out[m["name"]] = {"value": val, "unit": m["unit"]}
        print(f"metric {m['name']} = {val} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": len(steps),
                      "failed": failed, "metrics": out}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
