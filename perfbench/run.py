"""folcone benchmark: one run of one workload.

    python3 perfbench/run.py --workload r4_cone --seed 0 --seconds 38 --trace 0

Run from the root of a checkout.  Set-up is timed in fresh processes, then a
fresh worker process (``worker.py``) repeats the workload's op cycle in a
closed loop with one client for ``--seconds``; every op's report is checked
afterwards (``check.py``).  Times are scaled by a probe that runs beside the
measured code (``worker.Probe``), which divides the host's speed out.  The
last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``.  The line before it holds context that
is not gated (the raw times and the probe, op_p90_s, reports_per_s, the
machine probe, the full per-function table of a traced run).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from tracer import EXTRA_COUNTS, KEYS, WRAPPED  # noqa: E402

SETUP_CHILDREN = 7  # fresh processes timed for set-up; the worker's own set-up is an eighth sample
RUN_DEADLINE_S = 170.0
# About the fastest time of the worker's probe_work on the reference host.  It
# only sets the unit of op_norm_s; comparisons of commits do not depend on it.
PROBE_REF_S = 0.0005

# Times (.total_s, .self_s, a module's self_share) are given in the result
# line only for the functions below, which every workload calls, and for their
# modules.  Elsewhere a time would read exactly 0.0 on every run, which says
# nothing about the run it came from.  Calls and work counts are exact, so
# they are given for every wrapped function, 0 included.  The detail line has
# calls, total and self time for every wrapped function.
TIMED = (
    "cli.main",
    "presets.load_preset",
    "algebra.rref",
    "algebra.rational_det",
    "algebra.solve_linear",
    "algebra.sparse_rref",
    "grassmann.plucker_of_basis",
    "grassmann.make_subspace",
    "foliation.strong_kernel_at",
    "foliation.isotropy_algebra",
    "foliation.IsotropyAlgebra.class_coordinates",
)
TIMED_MODULES = tuple(dict.fromkeys(key.split(".")[0] for key in TIMED))


def calibrate() -> float:
    """Machine probe: a fixed pure-Python Fraction loop (context only)."""
    t = time.perf_counter()
    acc = Fraction(0)
    for i in range(1, 30001):
        acc += Fraction(i % 7 + 1, i % 11 + 1)
    return time.perf_counter() - t


def run_worker(extra: list[str], deadline: float) -> list[dict]:
    cmd = [sys.executable, str(HERE / "worker.py"), *extra]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError(f"worker {extra} did not finish before the run deadline")
    if proc.returncode != 0:
        raise RuntimeError(f"worker {extra} exited {proc.returncode}: {err.strip()[-800:]}")
    return [json.loads(line) for line in out.splitlines() if line.strip()]


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def mean_by_op(records: list[dict]) -> dict[str, float]:
    """The mean time of each distinct op of the run over its repeats."""
    return {key: statistics.fmean(times) for key, times in op_times(records).items()}


def op_times(records: list[dict]) -> dict[str, list[float]]:
    """Every op time of the run, by distinct op, in the order they ran."""
    times = {}
    for r in records:
        times.setdefault(workloads.op_key(r["argv"]), []).append(r["op_s"])
    return times


def op_norm_s(records: list[dict], done: dict) -> float:
    """Each op's mean over its repeats, then the geometric mean over the
    cycle's distinct ops, scaled to a host on which the probe takes
    ``PROBE_REF_S``.

    The geometric mean weighs every op of a mixed cycle alike, so a run's
    partial last cycle does not tilt the mix.  The scaling divides out how
    fast the host let the core run during the loop, as the probe thread of
    the worker measured it beside the ops.
    """
    op_mean = statistics.geometric_mean(mean_by_op(records).values())
    return op_mean * PROBE_REF_S / statistics.fmean(done["probe_s"])


def end_to_end(records: list[dict], done: dict, setups: list[dict]) -> dict:
    """Set-up time is scaled by the probe of its own process, as op time is."""
    return {
        "op_norm_s": metric(op_norm_s(records, done), "s"),
        "peak_rss_mb": metric(done["rss_mb"], "MB"),
        "setup_s": metric(statistics.median(u["setup_s"] * PROBE_REF_S / u["probe_s"] for u in setups), "s"),
    }


def per_layer(records: list[dict], done: dict) -> tuple[dict, dict]:
    """Per-op means of the traced loop, and the full per-function table."""
    n = len(records)
    stats, counts = done["trace"]["loop"]["stats"], done["trace"]["loop"]["counts"]
    setup_stats = done["trace"]["setup"]["stats"]
    m = {}
    for key in KEYS:
        if key != "cli.main":
            m[f"{key}.calls"] = metric(stats[key][0] / n, "count/op")
    for key in TIMED:
        m[f"{key}.total_s"] = metric(stats[key][1] / n, "s/op")
        m[f"{key}.self_s"] = metric(stats[key][2] / n, "s/op")
    for key in EXTRA_COUNTS:
        m[key] = metric(counts[key] / n, "count/op")
    attempted = counts["hncone.curves_attempted"]
    m["hncone.accept_ratio"] = metric(counts["hncone.curves_accepted"] / attempted if attempted else 0.0, "ratio")
    m["cli.report_bytes"] = metric(sum(r["bytes"] for r in records) / n, "B/op")
    op_total = stats["cli.main"][1]
    for mod in TIMED_MODULES:
        self_s = sum(stats[f"{mod}.{name}"][2] for name in WRAPPED[mod])
        m[f"{mod}.self_share"] = metric(100.0 * self_s / op_total, "%")
    m["setup.import_s"] = metric(done["import_s"], "s")
    m["setup.presets.load_preset.total_s"] = metric(setup_stats["presets.load_preset"][1], "s")
    m["setup.foliation.solve_structure_functions.total_s"] = metric(
        setup_stats["foliation.solve_structure_functions"][1], "s"
    )
    m["trace.op_norm_s"] = metric(op_norm_s(records, done), "s")
    table = {
        "per_op": {key: [v[0] / n, v[1] / n, v[2] / n] for key, v in stats.items()},
        "setup": setup_stats,
        "columns": ["calls", "total_s", "self_s"],
    }
    return m, table


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "folcone" / "__init__.py").is_file():
        print(f"error: no folcone sources under {root / 'src'}; run from a checkout root", file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_DEADLINE_S
    calib_before = calibrate()
    common = ["--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds)]
    setups = []
    if not args.trace:
        for _ in range(SETUP_CHILDREN):
            setups.append(run_worker(common + ["--setup-only"], deadline)[0])
    lines = run_worker(common + ["--trace", str(args.trace)], deadline)
    done, records = lines[-1], lines[:-1]
    if not done.get("done") or not records:
        print("error: worker ended without completing an op", file=sys.stderr)
        return 1
    setups.append({"setup_s": done["setup_s"], "probe_s": done["setup_probe_s"]})

    sys.path.insert(0, str(root / "src"))
    from check import Checker

    checker = Checker(args.workload)
    failures = []
    for rec in records:
        problems = checker.check(rec)
        if problems:
            failures.append({"argv": rec["argv"], "problems": problems})
        rec["report"] = None
    calib_after = calibrate()

    times = [r["op_s"] for r in records]
    means = mean_by_op(records)
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "ops": len(records),
        "distinct_ops": len(means),
        "ops_failed_share": len(failures) / len(records),
        "op_p50_s": statistics.median(times),
        "op_p90_s": statistics.quantiles(times, n=10)[8] if len(times) >= 100 else None,
        "reports_per_s": len(records) / done["loop_s"],
        "loop_s": done["loop_s"],
        "setup_samples_s": [u["setup_s"] for u in setups],
        "setup_probe_s": [u["probe_s"] for u in setups],
        "import_s": done["import_s"],
        "machine.calib_s": {"before": calib_before, "after": calib_after},
        "recorded_ops_checked": checker.recorded_hits,
        "limits_checked": checker.limits_checked,
        "worst_sin_angle": checker.worst_angle,
        "failures": failures[:5],
        "op_mean_s": statistics.geometric_mean(means.values()),
        "probe_mean_s": statistics.fmean(done["probe_s"]),
        "probe_samples": len(done["probe_s"]),
        "op_s_by_op": {key: [round(t, 4) for t in v] for key, v in op_times(records).items()},
    }
    if args.workload == "small_mix":
        by_kind = {}
        for key, t in means.items():
            by_kind.setdefault(key.split()[0], []).append(t)
        detail["op_mean_s_by_command"] = {k: statistics.geometric_mean(v) for k, v in sorted(by_kind.items())}
    if args.trace:
        metrics, detail["per_function"] = per_layer(records, done)
    else:
        metrics = end_to_end(records, done, setups)
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": not failures,
        "attempted": len(records),
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
