"""Repeat the benchmark over seeds and summarise it, as a baseline record.

    python3 perfbench/baseline.py

Run from the root of a checkout; it writes ``perfbench/baseline.json`` and
takes about an hour.  Each of two sets runs every workload once per seed
0-9 (workloads interleaved, so host noise falls on all of them alike) at the
``run_seconds`` of BENCHMARK.json.  For each end-to-end metric it reports
the per-run values, the median, the quartiles, the spread (quartile distance
over median, as a share) and the number of runs, how far the second median
moved from the first, and which spreads are above the metric's bound.  Then
it makes three alternating untraced and traced runs per workload at seed 0;
the difference of the medians of their op_norm_s is the tracing overhead.
"""

from __future__ import annotations

import json
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

SEEDS = range(10)
SETS = 2
TRACE_SEED = 0
TRACE_PAIRS = 3


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=200,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr[-800:]}")
    *_, detail_line, result_line = proc.stdout.splitlines()
    result = json.loads(result_line)
    result["detail"] = json.loads(detail_line)["detail"]
    print(f"  {workload:12s} seed {seed:3d} trace {trace} correct {result['correct']} "
          f"ops {result['attempted']:4d} "
          + " ".join(f"{k}={v['value']:.4g}" for k, v in list(result["metrics"].items())[:4]),
          flush=True)
    return result


def summarise(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med, "runs": len(values), "values": values}


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    names = [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    sets = []
    for s in range(SETS):
        print(f"set {s + 1}", flush=True)
        results = {w: [] for w in names}
        for seed in SEEDS:
            for w in names:
                results[w].append(run(w, seed, seconds, 0))
        sets.append(results)

    record = {
        "run_seconds": seconds,
        "seeds": list(SEEDS),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "workloads": {},
        "spread_above_bound": [],
    }
    ok = True
    for w in names:
        entry = {"sets": []}
        for results in sets:
            runs = results[w]
            metrics = {name: summarise([r["metrics"][name]["value"] for r in runs]) for name in bounds}
            for name, summary in metrics.items():
                summary["unit"] = runs[0]["metrics"][name]["unit"]
            ops = [r["attempted"] for r in runs]
            entry["sets"].append({
                "end_to_end": metrics,
                "ops_per_run": {"min": min(ops), "median": statistics.median(ops), "max": max(ops)},
                "op_samples": sum(ops),
                "all_correct": all(r["correct"] for r in runs),
                "failed_ops": sum(r["failed"] for r in runs),
                "op_p90_s": summarise([r["detail"]["op_p90_s"] for r in runs])
                if all(r["detail"]["op_p90_s"] is not None for r in runs) else None,
                "machine.calib_s": summarise([v for r in runs for v in r["detail"]["machine.calib_s"].values()]),
            })
            ok = ok and entry["sets"][-1]["all_correct"]
        print(f"\n{w}")
        for name, bound in bounds.items():
            meds = [st["end_to_end"][name]["median"] for st in entry["sets"]]
            spreads = [st["end_to_end"][name]["spread"] for st in entry["sets"]]
            better = next(m["better"] for m in bench["end_to_end"] if m["name"] == name)
            line = f"  {name:15s} bound {bound:.2f} median " + " / ".join(f"{m:.5g}" for m in meds)
            line += "  spread " + " / ".join(f"{s:.3f}" for s in spreads)
            worse = (meds[1] - meds[0]) / meds[0] * (1 if better == "lower" else -1)
            entry.setdefault("second_median_worse_by", {})[name] = worse
            line += f"  second worse by {worse:+.3f}"
            for i, spread in enumerate(spreads):
                if spread > bound:
                    record["spread_above_bound"].append(f"{w} {name} set {i + 1}: {spread:.3f}")
            print(line)
        record["workloads"][w] = entry

    print(f"\nspreads above the bound: {record['spread_above_bound'] or 'none'}")
    print(f"\ntraced and untraced runs at seed {TRACE_SEED}, alternating", flush=True)
    for w in names:
        plain, traced = [], []
        for i in range(TRACE_PAIRS):
            for trace in ((0, 1) if i % 2 == 0 else (1, 0)):
                (traced if trace else plain).append(run(w, TRACE_SEED, seconds, trace))
        p_ops = [r["metrics"]["op_norm_s"]["value"] for r in plain]
        t_ops = [r["metrics"]["trace.op_norm_s"]["value"] for r in traced]
        p_op, t_op = statistics.median(p_ops), statistics.median(t_ops)
        shown = min(traced, key=lambda r: abs(r["metrics"]["trace.op_norm_s"]["value"] - t_op))
        record["workloads"].setdefault(w, {})["traced"] = {
            "seed": TRACE_SEED,
            "per_layer": {k: v["value"] for k, v in shown["metrics"].items()},
            "per_function_per_op": shown["detail"]["per_function"]["per_op"],
            "setup_per_function": shown["detail"]["per_function"]["setup"],
            "overhead": {"untraced_op_norm_s": p_ops, "traced_op_norm_s": t_ops,
                         "difference_of_medians_s": t_op - p_op, "share": (t_op - p_op) / p_op},
        }
        print(f"  {w}: tracing overhead {t_op - p_op:+.4f} s per op ({(t_op - p_op) / p_op:+.1%})")
    (HERE / "baseline.json").write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
