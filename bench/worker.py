"""One benchmark run inside a fresh child process (started by run.py).

The parent pins the BLAS thread count in the environment before this process
imports numpy.  The worker imports homspace from the checkout's `src/`, runs
commands through `homspace.cli.main` in-process, checks every command, and
writes its numbers as JSON to the `--result` file.

Every part runs the command sequence once and times one set-up before the
first command and one after the last, so the set-up samples of a run are
spread over it.  `sequence` runs untraced; `trace` records spans with the
tracer; `memory` records them with tracemalloc running around the spans in
`tracer.MEMORY_SPANS`.  The tracer records nothing while a set-up is timed.
run.py starts one child per part and combines them.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
import traceback
from pathlib import Path

from check import compare_dir
from tracer import MEMORY_SPANS, Tracer, installed_wrappers
from workloads import WORKLOADS, setup_sets, step_argv

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
REFERENCE = BENCH / "reference"
PARTS = ("sequence", "trace", "memory")


def import_homspace():
    sys.path.insert(0, str(SRC))
    import homspace.cli as hcli
    pkg = Path(sys.modules["homspace"].__file__).resolve().parent
    if pkg != SRC / "homspace":
        raise SystemExit(f"imported homspace from {pkg}, not from {SRC}")
    return hcli


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                          capture_output=True, text=True, check=False)
    return proc.stdout.strip() or None


def environment(seed):
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas_name": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "commit": git_commit(),
        "seed": seed,
    }


def time_setup(hcli, workload, seed):
    """Wall seconds of generate_space + build_pipeline per flavour."""
    cfgs = [hcli.load_config(None, setup_sets(workload, seed, fl))
            for fl in workload.flavours]
    t0 = time.perf_counter()
    space = hcli.space_from_config(cfgs[0])
    for cfg in cfgs:
        hcli.pipeline_from_config(cfg, space)
    return time.perf_counter() - t0


def run_step(hcli, workload, step, seed, out_root, ref_root, tracer=None):
    """Run one command; time it, then check its exit status and reports."""
    outdir = out_root / step.name
    shutil.rmtree(outdir, ignore_errors=True)
    argv = step_argv(workload, step, seed, outdir)
    if tracer is not None:
        tracer.command = step.name
    echoed = io.StringIO()
    problems = []
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(echoed):
            status = hcli.main(argv)
    except Exception:  # a raising command is a failed command; keep going
        status = None
        problems.append(traceback.format_exc())
    wall = time.perf_counter() - t0
    if tracer is not None:
        tracer.end_command()
    if status != 0:
        problems.append(f"exit status {status}")
    elif ref_root is not None:
        problems += compare_dir(outdir, ref_root / step.name)
    if problems:
        print(f"{step.name} FAILED:", *problems, echoed.getvalue(),
              sep="\n", file=sys.stderr)
    return {"step": step.name, "kind": step.kind, "wall_s": wall,
            "status": status, "problems": problems}


def unrecorded_setup(hcli, workload, seed, tracer):
    if tracer is not None:
        tracer.recording = False
    try:
        wall = time_setup(hcli, workload, seed)
    finally:
        if tracer is not None:
            tracer.recording = True
    gc.collect()
    return wall


def run_sequence(hcli, workload, seed, out_root, ref_root, tracer=None):
    """The command sequence, with one set-up timed before and one after it."""
    setup = [unrecorded_setup(hcli, workload, seed, tracer)]
    steps = [run_step(hcli, workload, step, seed, out_root, ref_root, tracer)
             for step in workload.steps]
    setup.append(unrecorded_setup(hcli, workload, seed, tracer))
    return {"steps": steps, "setup_s": setup}


def trace_part(hcli, workload, seed, out_root, ref_root, spans_path,
               memory_spans):
    tracer = Tracer(memory_spans=memory_spans)
    tracer.install()
    try:
        result = run_sequence(hcli, workload, seed, out_root, ref_root, tracer)
    finally:
        tracer.uninstall()
    left = installed_wrappers()
    if left:
        raise SystemExit(f"tracer left wrappers behind: {left}")
    spans_path.write_text(json.dumps([vars(s) for s in tracer.spans]) + "\n")
    result["layers"] = tracer.layer_metrics()
    return result


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--part", required=True, choices=PARTS)
    ap.add_argument("--result", required=True)
    args = ap.parse_args(argv)

    hcli = import_homspace()
    workload = WORKLOADS[args.workload]
    out_root = OUT / f"{workload.name}-seed{args.seed}"
    out_root.mkdir(parents=True, exist_ok=True)
    ref_root = REFERENCE / f"seed{args.seed}" / workload.name
    if not ref_root.is_dir():
        ref_root = None

    if args.part == "sequence":
        result = run_sequence(hcli, workload, args.seed, out_root, ref_root)
    else:
        result = trace_part(
            hcli, workload, args.seed, out_root, ref_root,
            Path(args.result).with_suffix(".spans.json"),
            MEMORY_SPANS if args.part == "memory" else ())
    result["env"] = environment(args.seed)
    result["reference"] = (None if ref_root is None
                           else str(ref_root.relative_to(BENCH)))
    result["peak_rss_mb"] = \
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    Path(args.result).write_text(json.dumps(result, indent=1) + "\n")


if __name__ == "__main__":
    main()
