"""The benchmark's tracer must find every function it wraps in ``folcone``."""

import importlib
import importlib.util
import json
import statistics
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def test_every_traced_name_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = []
    for mod_name, names in tracer.WRAPPED.items():
        module = importlib.import_module(f"folcone.{mod_name}")
        for name in names:
            obj = module
            for part in name.split("."):
                obj = getattr(obj, part, None)
            if not callable(obj):
                missing.append(f"folcone.{mod_name}.{name}")
    assert missing == []


WORKER = TRACER.parent / "worker.py"


def test_worker_set_up_pays_for_every_structure_solve(monkeypatch):
    from folcone import cli, foliation, presets

    spec = importlib.util.spec_from_file_location("perfbench_worker", WORKER)
    worker = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(worker)
    solve = foliation.solve_structure_functions
    calls = []
    monkeypatch.setattr(foliation, "solve_structure_functions", lambda *a: calls.append(a[0].name) or solve(*a))
    for workload in sorted(worker.workloads.WORKLOADS):
        monkeypatch.setattr(presets, "_CACHE", {})  # a fresh worker process starts with no preset
        worker.set_up(workload)
        assert calls, workload
        calls.clear()
        # the first op on each preset: the op that would solve if set-up had not
        first_ops = {argv[1]: argv for argv in reversed(worker.workloads.cycle(workload, 0))}
        for argv in first_ops.values():
            record = worker.run_op(cli, argv)
            assert record["rc"] == 0, record["stderr"]
        assert calls == [], workload


BENCH_PAIRS = TRACER.parent.parent / "tools" / "bench_pairs.py"


def load_bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", BENCH_PAIRS)
    bench_pairs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench_pairs)
    return bench_pairs


def test_bench_pairs_refuses_bad_arguments_before_any_run(monkeypatch, tmp_path):
    bench_pairs = load_bench_pairs()

    def refuse(*args):
        raise AssertionError("a revision was exported or measured before the arguments were checked")

    monkeypatch.setattr(bench_pairs, "export", refuse)
    monkeypatch.setattr(bench_pairs, "measure", refuse)
    (tmp_path / "file").write_text("")
    for argv in (
        ["--out", str(tmp_path)],  # a directory
        ["--out", str(tmp_path / "missing" / "BENCH.json")],
        ["--out", str(tmp_path / "file" / "BENCH.json")],
        ["--out", str(tmp_path / "BENCH.json"), "--pairs", "1"],
        ["--out", str(tmp_path / "BENCH.json"), "--pairs", "0"],
        ["--out", str(tmp_path / "BENCH.json"), "--workload", "r4_cone", "--workload", "no_such_workload"],
    ):
        with pytest.raises(SystemExit) as exc:
            bench_pairs.main(["HEAD", "HEAD", *argv])
        assert exc.value.code == 2, argv


def test_bench_pairs_records_each_runs_wall_time(monkeypatch):
    bench_pairs = load_bench_pairs()
    # the clock is read once before the runner is called and once after it returns
    clock = iter([10.0, 12.5, 20.0, 21.25])
    monkeypatch.setattr(bench_pairs, "time", SimpleNamespace(perf_counter=lambda: next(clock)))
    result = {
        "correct": True,
        "attempted": 3,
        "failed": 0,
        "metrics": {"setup_s": {"value": 0.1}},
        "detail": {"machine.calib_s": 0.2},
    }

    def fail(*args):
        raise SystemExit("worker exited with 1")

    run = bench_pairs.measure(SimpleNamespace(run=lambda *args: result), "r4_cone", 0, 38, ["setup_s"])
    assert run == {
        "seed": 0,
        "correct": True,
        "attempted": 3,
        "failed": 0,
        "setup_s": 0.1,
        "machine.calib_s": 0.2,
        "wall_s": 2.5,
    }
    error = bench_pairs.measure(SimpleNamespace(run=fail), "r4_cone", 1, 38, ["setup_s"])
    assert error == {"seed": 1, "error": "worker exited with 1", "wall_s": 1.25}


def test_bench_pairs_runs_only_the_named_workloads(monkeypatch, tmp_path):
    bench_pairs = load_bench_pairs()
    ran = []

    def run(workload, seed, seconds, trace):
        ran.append((workload, seed))
        value = {"r4_isotropy": 1.0, "small_mix": 2.0}[workload]
        metrics = {m: {"value": value + seed} for m in ("op_norm_s", "peak_rss_mb", "setup_s")}
        return {"correct": True, "attempted": 5, "failed": 0, "metrics": metrics, "detail": {"machine.calib_s": 0.2}}

    runner = SimpleNamespace(run=run, summarise=lambda xs: {"median": statistics.median(xs)})
    monkeypatch.setattr(bench_pairs, "export", lambda rev, dest: {"rev": rev})
    monkeypatch.setattr(bench_pairs, "load_baseline", lambda root, name: runner)
    out = tmp_path / "pairs.json"
    argv = ["HEAD", "HEAD", "--pairs", "2", "--out", str(out), "--workload", "small_mix", "--workload", "r4_isotropy"]
    assert bench_pairs.main(argv) == 0
    # BENCHMARK.json's order, each side once per seed, r4_cone left out
    assert ran == [(w, seed) for w in ("r4_isotropy", "small_mix") for seed in (0, 0, 1, 1)]
    report = json.loads(out.read_text())
    assert list(report["workloads"]) == ["r4_isotropy", "small_mix"]
    assert report["workloads"]["small_mix"]["parent"]["op_norm_s"] == {"median": 2.5}


def test_bench_pairs_records_the_median_ops_and_wall_time_of_each_side(monkeypatch, tmp_path):
    bench_pairs = load_bench_pairs()
    # per side: ops a run attempts at seeds 0, 1, 2; the clock advances by as many seconds
    attempted = {"baseline_parent": [10, 30, 20], "baseline_change": [40, 60, 50]}
    now = [0.0]
    monkeypatch.setattr(bench_pairs, "time", SimpleNamespace(perf_counter=lambda: now[0]))

    def runner(name):
        def run(workload, seed, seconds, trace):
            now[0] += attempted[name][seed]
            metrics = {m: {"value": 1.0} for m in ("op_norm_s", "peak_rss_mb", "setup_s")}
            return {
                "correct": True,
                "attempted": attempted[name][seed],
                "failed": 0,
                "metrics": metrics,
                "detail": {"machine.calib_s": 0.2},
            }

        return SimpleNamespace(run=run, summarise=lambda xs: {"median": statistics.median(xs)})

    monkeypatch.setattr(bench_pairs, "export", lambda rev, dest: {"rev": rev})
    monkeypatch.setattr(bench_pairs, "load_baseline", lambda root, name: runner(name))
    out = tmp_path / "pairs.json"
    assert bench_pairs.main(["HEAD", "HEAD", "--pairs", "3", "--out", str(out), "--workload", "r4_isotropy"]) == 0
    summary = json.loads(out.read_text())["workloads"]["r4_isotropy"]
    assert summary["context_medians"] == {
        "parent": {"attempted": 20, "wall_s": 20.0},
        "change": {"attempted": 50, "wall_s": 50.0},
    }
    # context only: the gated keys are the metrics of BENCHMARK.json
    assert set(summary["parent"]) == set(summary["change_wins"]) == {"op_norm_s", "peak_rss_mb", "setup_s"}


def run_traced(argv: list[str], keys: list[str]) -> list[str]:
    """The tracer's call count or counter value for each of ``keys`` over one
    op, in a fresh interpreter (the tracer rebinds folcone's functions for good)."""
    script = f"""
import contextlib, importlib.util, io
spec = importlib.util.spec_from_file_location("perfbench_tracer", {str(TRACER)!r})
tracer_module = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracer_module)
tracer = tracer_module.Tracer()
tracer.install()
from folcone import cli
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.main({argv!r}) == 0
stats, counts = tracer.reset()
print(*[stats[k][0] if k in stats else counts[k] for k in {keys!r}])
"""
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()


def test_tracer_counts_one_jacobi_flag_per_analyze_op():
    argv = ["analyze", "r4_counterexample", "--points=1,2,-1,3"]
    assert run_traced(argv, ["foliation.jacobi_flag"]) == ["1"]


def test_tracer_counts_the_steps_of_both_flows_of_a_scenario():
    argv = ["poisson-check", "so3_r3", "--scenario", "point=1,0,0;gen=g3;eta=0,1,0"]
    # the H_a flow and the cotangent lift, 1000 steps of four evaluations each
    assert run_traced(argv, ["poisson.flow_rk4", "poisson.rk4_steps"]) == ["2", "2000.0"]
