"""cellscape benchmark: tissue to spatial domains, timed and checked.

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Each fit runs in a fresh process
(``fit.py``), so its peak RSS is its own. Fit ``i`` of the run gets tissue
``i`` of seed ``N``, a new tissue each time. The run makes as many fits as
take about ``S`` seconds on the reference box (``Workload.fits``, at least
the workload's ``tissues``): a fixed count, so that the same seed gives the
same fits, and the same failed fits, however fast the machine is.
The last line of standard output is one JSON object:

    {"correct": bool, "attempted": int, "failed": int, "metrics": {...}}

``failed`` counts fits that raised or whose output failed a check;
``correct`` is false when any output failed a check or a metric could not
be computed.

With ``--trace 0`` the metrics are the end-to-end ones: the medians of
``setup_s``, ``fit_s`` and ``peak_rss_mb`` over the fits, and ``nmi``, the
mean over the first ``tissues`` fits, so that speed does not change it.
With ``--trace 1`` the run also computes the controls, fits the first
tissue that fitted without error once more traced for times and once for
memory, and reports the per-layer metrics. Full records and the spans go to ``benchmark/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spec import END_TO_END, PER_LAYER, WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RESULTS = BENCH_DIR / "results"
RUN_LIMIT_S = 170.0   # the whole run, traced fits included, ends before this


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(BENCH_DIR)])
    threads = str(len(os.sched_getaffinity(0)))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def fit_once(args, index: int, deadline: float, extra: list[str] = ()) -> dict:
    """One fit in a fresh process; a crash or timeout becomes a failed record."""
    t0 = time.monotonic()
    cmd = [sys.executable, str(BENCH_DIR / "fit.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--index", str(index), "--t0", repr(t0), *extra]
    try:
        proc = subprocess.run(cmd, env=child_env(), cwd=ROOT, capture_output=True,
                              text=True, timeout=max(1.0, deadline - t0))
    except subprocess.TimeoutExpired:
        return {"index": index, "ok": False, "stage": "timeout"}
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return {"index": index, "ok": False, "stage": "process",
                "error": f"exit {proc.returncode}: {proc.stderr.strip()[-2000:]}"}


def median(records: list[dict], key: str) -> float | None:
    values = [r[key] for r in records if key in r]
    return statistics.median(values) if values else None


def mean(records: list[dict], key: str) -> float | None:
    values = [r[key] for r in records if key in r]
    return statistics.fmean(values) if values else None


def end_to_end(records: list[dict], tissues: int) -> dict[str, float | None]:
    ok = [r for r in records if r["ok"]]
    return {
        "setup_s": median(records, "setup_s"),
        "fit_s": median(ok, "fit_s"),
        "peak_rss_mb": median(ok, "peak_rss_mb"),
        "nmi": mean([r for r in ok if r["index"] < tissues], "nmi"),
    }


def per_layer(records: list[dict], traced: list[dict]) -> dict[str, float | None]:
    metrics: dict[str, float | None] = {}
    for rec in traced:
        metrics.update(rec.get("per_layer", {}))
    timing = next((r for r in traced if r["trace"] == "timing" and r["ok"]), None)
    untraced = median([r for r in records if r["ok"]], "fit_s")
    metrics["trace.overhead_s"] = (
        timing["fit_s"] - untraced if timing and untraced is not None else None)
    metrics["cluster.control_nmi"] = mean(records, "control_nmi")
    metrics["cluster.smoothed_control_nmi"] = mean(records, "smoothed_control_nmi")
    return metrics


def summarize(records: list[dict], traced: list[dict], trace: bool, tissues: int) -> dict:
    """The result line: every metric of the run's kind, plus the counts."""
    values = per_layer(records, traced) if trace else end_to_end(records, tissues)
    spec = PER_LAYER if trace else END_TO_END
    metrics = {name: {"value": values.get(name), "unit": unit}
               for name, (unit, _) in spec.items()}
    everything = records + traced
    # a fit that raised produced no output and counts only as failed; an
    # output that a check rejected makes the run incorrect
    wrong = any(r.get("check_failed") for r in everything)
    missing = any(m["value"] is None for m in metrics.values())
    return {
        "correct": not wrong and not missing,
        "attempted": len(everything),
        "failed": sum(not r["ok"] for r in everything),
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # turn SIGTERM into an exception, so subprocess.run kills and reaps the
    # running fit instead of leaving it behind
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (ROOT / "src" / "cellscape" / "__init__.py").is_file():
        print(f"cellscape sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S

    records: list[dict] = []
    for index in range(workload.fits(args.seconds)):
        extra = ["--controls"] if args.trace and index < workload.tissues else []
        records.append(fit_once(args, index, deadline, extra))
        if records[-1]["stage"] == "timeout":
            break

    traced: list[dict] = []
    # trace the first tissue whose untraced fit succeeded
    reference = next((r for r in records if r["ok"]), None)
    if args.trace and reference is not None:
        RESULTS.mkdir(exist_ok=True)
        for mode in ("timing", "memory"):
            spans = RESULTS / f"spans-{args.workload}-seed{args.seed}-{mode}.json"
            rec = fit_once(args, reference["index"], deadline,
                           ["--trace", mode, "--spans-out", str(spans)])
            if rec["ok"] and rec["labels_sha256"] != reference["labels_sha256"]:
                rec.update(ok=False, stage="trace", check_failed=True,
                           error="traced labels differ from untraced")
            traced.append(rec)

    everything = records + traced
    for r in everything:
        if not r["ok"]:
            print(f"fit {r['index']} ({r.get('trace') or 'untraced'}) failed in stage "
                  f"{r['stage']}: {r.get('error', '')}", file=sys.stderr)
    result = summarize(records, traced, bool(args.trace), workload.tissues)

    RESULTS.mkdir(exist_ok=True)
    out = RESULTS / f"run-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps({"args": vars(args), "wall_s": time.monotonic() - start,
                               "result": result, "end_to_end": end_to_end(records, workload.tissues),
                               "records": everything}, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
