"""Runs one workload in this process and prints one JSON line.

Started by ``run.py`` in a fresh process per run, because subsetlab's
caches (``emulate._ENGINE_CACHE``, ``emulate._MAIN_ACTION_CACHE``, the
forger's per-scheme ``_forge_cache``) live for the whole process.

The run repeats whole rounds of ``trials_per_round`` trials until
``--seconds`` have passed.  ``wall_s`` is the time from the first trial's
start to the last trial's end per round, so the first trial's cache fills
are in it; ``trial_p50_s`` is the median trial time; ``peak_rss_mb`` is
the peak resident memory over set-up and the first round, which is the
same work in every run whatever its length.  With ``--trace 1`` the layer
boundaries are traced and the per-layer metrics are printed instead.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RESULTS = Path(__file__).resolve().parent / "results"


def import_subsetlab() -> None:
    """Import the package from this checkout's ``src`` and nowhere else."""
    sys.path.insert(0, str(SRC))
    import subsetlab

    if not Path(subsetlab.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"subsetlab imported from {subsetlab.__file__}, not {SRC}")


def measure(workload, seconds: float) -> dict:
    """Run whole rounds for `seconds`; return the timing and the counts."""
    trial_times: list[float] = []
    attempted = failed = rounds = 0
    first_trial_at = time.monotonic()
    start = time.perf_counter()
    while True:
        for _ in range(workload.trials_per_round):
            t0 = time.perf_counter()
            a, f = workload.run_trial(len(trial_times))
            trial_times.append(time.perf_counter() - t0)
            attempted += a
            failed += f
        rounds += 1
        if rounds == 1:
            peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        elapsed = time.perf_counter() - start
        if elapsed >= seconds:
            break
    workload.finish()
    return {
        "first_trial_at": first_trial_at,
        "wall_s": elapsed / rounds,
        "trial_p50_s": statistics.median(trial_times),
        "peak_rss_mb": peak_kib * 1024 / 1e6,
        "trial_times": trial_times,
        "attempted": attempted,
        "failed": failed,
    }


def traced_problems(tr, totals: dict) -> list[str]:
    """Totals reached by two independent paths must agree."""
    problems = []
    if tr.attempts != tr.resource_queries:
        problems.append(
            f"generate_s_minus counted {tr.attempts} attempts, prepare_resources "
            f"reported {tr.resource_queries} oracle queries"
        )
    calls = totals["tomography.PovmFamily.element"]["calls"]
    if tr.builds > calls:
        problems.append(f"PovmFamily builds {tr.builds} exceed element calls {calls}")
    return problems


def main(argv: list[str] | None = None) -> int:
    import_subsetlab()
    import tracer
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload](args.seed)
    if args.trace:
        before = tracer.attribute_snapshot()
        tr = tracer.Tracer()
        with tr:
            run = measure(workload, args.seconds)
        problems = tracer.changed_attributes(before, tracer.attribute_snapshot())
        totals = tr.layer_totals()
        problems += traced_problems(tr, totals)
        metrics = tracer.per_layer_metrics(tr, len(run["trial_times"]))
    else:
        run = measure(workload, args.seconds)
        problems = []
        metrics = {
            "wall_s": {"value": run["wall_s"], "unit": "s"},
            "trial_p50_s": {"value": run["trial_p50_s"], "unit": "s"},
            "peak_rss_mb": {"value": run["peak_rss_mb"], "unit": "MB"},
        }
    problems = workload.problems + problems
    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)
    out = {
        "correct": not problems,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": metrics,
        "first_trial_at": run["first_trial_at"],
    }
    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    usage = resource.getrusage(resource.RUSAGE_SELF)
    detail = dict(
        out,
        problems=problems,
        wall_s=run["wall_s"],
        trial_times=run["trial_times"],
        cpu_user_s=usage.ru_utime,
        cpu_sys_s=usage.ru_stime,
    )
    if args.trace:
        detail["layers"] = totals
        detail["spans"] = tr.span_count
        tracer.save_spans(tr, RESULTS / f"{stem}-spans.npz")
    (RESULTS / f"{stem}.json").write_text(json.dumps(detail, indent=1) + "\n")
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
