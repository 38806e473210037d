"""Alternating parent/change runs of the benchmark, written as one BENCH_<n>.json.

    python3 tools/bench_pairs.py PARENT CHANGE --pairs 10 --out BENCH_6.json

PARENT and CHANGE are git revisions of this repository.  Each is exported
with ``git archive`` into a temporary directory (under ``$TMPDIR``), so only
committed files run.  The workloads, the run length and the end-to-end
metrics are those of BENCHMARK.json.  For every workload and pair i, each
export runs seed i once through its own ``perfbench/baseline.py`` runner
(``perfbench/run.py`` untraced), one run at a time; the side that runs first
alternates from pair to pair.  The output records both revisions (commit
and ``src`` tree), every run, and per workload and side the
``perfbench/baseline.py`` summary of each metric, with the number of pairs
the change won on each, the seeds and the machine.  A run that exits
non-zero is kept with its error and left out of the summary.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")


def git(*args: str) -> str:
    return subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True, text=True, check=True).stdout.strip()


def export(rev: str, dest: Path) -> dict:
    """Extract the committed tree of ``rev`` into ``dest`` and name it."""
    data = subprocess.run(["git", "-C", str(ROOT), "archive", rev], capture_output=True, check=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=data, check=True)
    return {"rev": rev, "commit": git("rev-parse", f"{rev}^{{commit}}"), "src_tree": git("rev-parse", f"{rev}:src")}


def load_baseline(root: Path, name: str):
    """The ``perfbench/baseline.py`` module of a checkout; its ``run`` runs that checkout."""
    spec = importlib.util.spec_from_file_location(name, root / "perfbench" / "baseline.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def measure(baseline, workload: str, seed: int, seconds: int, metrics: list[str]) -> dict:
    try:
        result = baseline.run(workload, seed, seconds, 0)
    except (SystemExit, subprocess.TimeoutExpired) as exc:
        return {"seed": seed, "error": str(exc)[-800:]}
    return {
        "seed": seed,
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        **{m: result["metrics"][m]["value"] for m in metrics},
        "machine.calib_s": result["detail"]["machine.calib_s"],
    }


def summary(pairs: list[dict], better: dict[str, str], summarise) -> dict:
    ok = [p for p in pairs if not any("error" in p[side] for side in SIDES)]
    out = {
        "pairs": len(pairs),
        "pairs_complete": len(ok),
        "all_correct": all(p[side].get("correct") and not p[side].get("failed") for p in pairs for side in SIDES),
    }
    if len(ok) >= 2:
        for side in SIDES:
            out[side] = {m: summarise([p[side][m] for p in ok]) for m in better}
        sign = {"lower": 1, "higher": -1}
        out["change_wins"] = {
            m: sum(sign[b] * (p["change"][m] - p["parent"][m]) < 0 for p in ok) for m, b in better.items()
        }
    return out


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            return next((line.split(":", 1)[1].strip() for line in f if line.startswith("model name")), "")
    except OSError:
        return platform.processor()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", help="git revision of the parent commit")
    ap.add_argument("change", help="git revision of the change")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as tmp:
        revisions, runners = {}, {}
        for side, rev in zip(SIDES, (args.parent, args.change)):
            root = Path(tmp) / side
            root.mkdir()
            revisions[side] = export(rev, root)
            runners[side] = load_baseline(root, f"baseline_{side}")
        report = {
            "revisions": revisions,
            "command": " ".join(bench["command"]) + f" --workload W --seed i --seconds {seconds} --trace 0",
            "run_seconds": seconds,
            "machine": {
                "cpu": cpu_model(),
                "cpu_count": os.cpu_count(),
                "platform": platform.platform(),
                "python": platform.python_version(),
                # without bytecode caching each set-up compiles src from source
                "dont_write_bytecode": bool(sys.flags.dont_write_bytecode),
                "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE"),
            },
            "workloads": {},
        }
        for workload in (w["name"] for w in bench["workloads"]):
            pairs = []
            for seed in range(args.pairs):
                order = SIDES if seed % 2 == 0 else SIDES[::-1]
                pair = {"first": order[0]}
                for side in order:
                    print(f"{side}:", end="", flush=True)
                    pair[side] = measure(runners[side], workload, seed, seconds, list(better))
                pairs.append(pair)
            report["workloads"][workload] = {
                "seeds": list(range(args.pairs)),
                **summary(pairs, better, runners["change"].summarise),
                "runs": pairs,
            }
            args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
