#!/usr/bin/env python3
"""fuzzformer benchmark: run one workload, check its outputs, print its metrics.

    python3 perfbench/run.py --workload desk-train|paper-serve \
        [--seed 42] [--seconds 60] [--trace 0|1]

Run from anywhere inside a checkout of the repository; the program is
imported from the checkout's ``src``.  The workload runs in a child
process (``workloads.py``) with BLAS pinned to one thread, so its peak
RSS is its own and no two workloads share a process.  With ``--trace 0``
the result holds the end-to-end metrics; with ``--trace 1`` it holds the
per-layer metrics of a traced run (see ``tracing.py``).

Human-readable lines (environment, plan, each metric with its unit and
sample count, the failed ratio) go first; the last line of standard
output is the JSON result.  The exit code is 0 when every operation and
output check passed, 1 when one failed, 2 when the program is missing.
Scratch files live in ``.perfbench_run`` at the checkout root and are
removed on exit.
"""

import argparse
import json
import os
import resource
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("desk-train", "paper-serve")
BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
CHILD_TIMEOUT_S = 175


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "fuzzformer" / "__init__.py").is_file():
        print(f"perfbench: no fuzzformer sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    work = ROOT / ".perfbench_run"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir()
    out = work / "result.json"
    env = {**os.environ, **BLAS_THREADS, "PYTHONPATH": str(ROOT / "src")}
    cmd = [
        sys.executable, str(HERE / "workloads.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace), "--out", str(out),
    ]
    try:
        # the child's own output goes to stderr: stdout ends with the result line
        child = subprocess.run(cmd, env=env, cwd=ROOT, stdout=sys.stderr, timeout=CHILD_TIMEOUT_S)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
        if child.returncode not in (0, 1) or not out.is_file():
            print(f"perfbench: workload process failed (exit {child.returncode})", file=sys.stderr)
            return child.returncode or 1
        result = json.loads(out.read_text())
    except subprocess.TimeoutExpired:
        print(f"perfbench: workload exceeded {CHILD_TIMEOUT_S} s", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    metrics = result["metrics"]
    if not args.trace:
        metrics["peak_rss_mb"] = {"value": peak_rss_mb, "unit": "MB", "raw": peak_rss_mb, "n": 1}
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print("env " + " ".join(f"{k}={v}" for k, v in result["env"].items()))
    print("plan " + " ".join(f"{k}={v}" for k, v in result["plan"].items()))
    if not args.trace:
        print(f"host calibration {result['host_speed']:.3f}x the reference box's time; "
              "times are scaled to the reference box, raw values in brackets")
    for name, m in metrics.items():
        extra = f"  (raw {m['raw']:.6g})  n={m['n']}" if "n" in m else ""
        print(f"metric {name} = {m['value']:.6g} {m['unit']}{extra}")
    if args.trace:
        print("wait: no queue and no second thread, so time waiting for any layer is 0 by construction")
    ratio = result["failed"] / result["attempted"]
    print(f"failed_ratio = {ratio:g} ({result['failed']} of {result['attempted']} operations and checks)")
    for note in result["notes"]:
        print(f"FAILED {note}")
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": m["value"], "unit": m["unit"]} for k, m in metrics.items()},
    }, allow_nan=False))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
