"""The repository benchmark: one workload, one run, one JSON line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload steady --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with no wrappers
installed. ``--trace 1`` runs the workload three times in this process:
untraced, with every layer wrapped, and untraced again. It reports the
per-layer metrics of the traced pass, and the tracing overhead as the
traced pass's CPU per operation against the mean of the two untraced
passes around it, so a drift of the host's speed that is linear over
the three passes cancels. Its spans are written to
``.perfbench_work/spans-<workload>-seed<seed>.jsonl``.

The last line of standard output is the result::

    {"correct": true, "attempted": 500, "failed": 0, "metrics": {...}}

The program is imported from ``src/`` of the checkout; without it the
benchmark exits with status 2 before measuring anything.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import resource
import shutil
import sys
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"

#: Every end-to-end metric: name -> (unit, better), in report order.
END_TO_END: dict[str, tuple[str, str]] = {
    "setup_s": ("s", "lower"),
    "decide_p50_ms": ("ms", "lower"),
    "forget_p50_ms": ("ms", "lower"),
    "forget_p90_ms": ("ms", "lower"),
    "throughput_per_s": ("1/s", "higher"),
    "cpu_ms_per_op": ("ms", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}

WORKLOADS = ("steady", "backlog", "explore")


def _import_program() -> None:
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program to measure under {ROOT / 'src'}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(ROOT / "src"))


def measure(workload: str, seed: int, seconds: float, traced: bool) -> dict[str, Any]:
    """One pass of ``workload``; the raw result of its module."""
    if workload == "explore":
        import explore_workload

        return explore_workload.run(seconds, traced)
    import live_workloads

    work_dir = WORK / f"{workload}-{seed}-{'traced' if traced else 'plain'}"
    shutil.rmtree(work_dir, ignore_errors=True)
    try:
        return asyncio.run(
            live_workloads.run(workload, seed, seconds, work_dir, traced)
        )
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


def cpu_ms_per_op(raw: dict[str, Any]) -> float:
    from stats import median_over

    return median_over(raw["windows"], lambda w: w.cpu_s * 1e3 / w.ops)


def end_to_end(raw: dict[str, Any]) -> dict[str, float]:
    """Every end-to-end figure, each the median over the run's windows."""
    from stats import median_over, percentile

    windows = raw["windows"]
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": raw["setup_s"],
        "decide_p50_ms": median_over(windows, lambda w: percentile(w.decide_ms, 0.50)),
        "forget_p50_ms": median_over(windows, lambda w: percentile(w.forget_ms, 0.50)),
        "forget_p90_ms": median_over(windows, lambda w: percentile(w.forget_ms, 0.90)),
        "throughput_per_s": median_over(windows, lambda w: w.done / w.seconds),
        "cpu_ms_per_op": cpu_ms_per_op(raw),
        "peak_rss_mb": peak_kb / 1024.0,
    }


def report(values: dict[str, float], units: dict[str, tuple[str, str]]) -> dict:
    return {
        name: {"value": values[name], "unit": unit} for name, (unit, _) in units.items()
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    _import_program()
    import layers

    runs = [measure(args.workload, args.seed, args.seconds, traced=False)]
    if args.trace:
        runs.append(measure(args.workload, args.seed, args.seconds, traced=True))
        runs.append(measure(args.workload, args.seed, args.seconds, traced=False))
    problems = [problem for raw in runs for problem in raw["problems"]]
    for problem in problems:
        print(f"perfbench: check failed: {problem}", file=sys.stderr)
    if args.trace:
        before, traced, after = runs
        untraced = (cpu_ms_per_op(before) + cpu_ms_per_op(after)) / 2
        print(
            f"perfbench: cpu_ms_per_op untraced {cpu_ms_per_op(before):.4f} "
            f"then {cpu_ms_per_op(after):.4f}, traced {cpu_ms_per_op(traced):.4f}",
            file=sys.stderr,
        )
        values = dict(traced["layers"])
        values["trace.overhead_pct"] = (cpu_ms_per_op(traced) / untraced - 1.0) * 100.0
        spans_path = WORK / f"spans-{args.workload}-seed{args.seed}.jsonl"
        traced["tracer"].dump(spans_path)
        print(f"perfbench: spans written to {spans_path}", file=sys.stderr)
        metrics = report(values, layers.PER_LAYER)
    else:
        metrics = report(end_to_end(runs[0]), END_TO_END)
    for name, metric in metrics.items():
        print(f"{name:36s} {metric['value']:14.4f} {metric['unit']}")
    print(
        json.dumps(
            {
                "correct": not problems,
                "attempted": sum(raw["attempted"] for raw in runs),
                "failed": sum(raw["failed"] for raw in runs),
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
