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


def test_tracer_counts_the_steps_of_both_flows_of_a_scenario():
    # a fresh interpreter: the tracer rebinds folcone's functions for good
    script = f"""
import contextlib, importlib.util, io
spec = importlib.util.spec_from_file_location("perfbench_tracer", {str(TRACER)!r})
tracer_module = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracer_module)
tracer = tracer_module.Tracer()
tracer.install()
from folcone import cli
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.main(["poisson-check", "so3_r3", "--scenario", "point=1,0,0;gen=g3;eta=0,1,0"]) == 0
stats, counts = tracer.reset()
print(stats["poisson.flow_rk4"][0], counts["poisson.rk4_steps"])
"""
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    # the H_a flow and the cotangent lift, 1000 steps of four evaluations each
    assert proc.stdout.split() == ["2", "2000.0"]
