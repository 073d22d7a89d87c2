"""Benchmark entry point: runs one workload in a fresh worker process.

    python3 perfbench/run.py --workload owsg-echo --seed 1 --seconds 30 --trace 0

Prints, as its last line, one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  With ``--trace 0`` the metrics are the
end-to-end ones (``wall_s``, ``trial_p50_s``, ``setup_s``,
``peak_rss_mb``); with ``--trace 1`` they are the per-layer ones.
``setup_s`` runs from just before the worker process is started to the
start of its first trial.  Exits non-zero, printing no result, when the
worker fails (for instance when ``src/subsetlab`` is missing).
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

WORKER = Path(__file__).resolve().parent / "worker.py"
TIMEOUT_S = 170.0

#: One numerics thread per worker (the workloads are single-threaded by
#: design) and a fixed string hash, so every run does the same work.
CHILD_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    cmd = [
        sys.executable,
        str(WORKER),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    env = dict(os.environ, **CHILD_ENV)
    spawned_at = time.monotonic()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, text=True) as proc:
        try:
            stdout, _ = proc.communicate(timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            print(f"worker exceeded {TIMEOUT_S} s", file=sys.stderr)
            return 1
    if proc.returncode != 0:
        print(f"worker exited with code {proc.returncode}", file=sys.stderr)
        return 1
    lines = stdout.strip().splitlines()
    try:
        out = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        print("worker printed no result", file=sys.stderr)
        return 1
    first_trial_at = out.pop("first_trial_at")
    if not args.trace:
        metrics = out["metrics"]
        out["metrics"] = {
            "wall_s": metrics["wall_s"],
            "trial_p50_s": metrics["trial_p50_s"],
            "setup_s": {"value": first_trial_at - spawned_at, "unit": "s"},
            "peak_rss_mb": metrics["peak_rss_mb"],
        }
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
