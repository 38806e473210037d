"""Tracer self-check: traced call counts must equal cProfile's ncalls.

    python3 perfbench/selfcheck.py

Run from the root of a checkout.  Each case runs one op at default flags
twice, in two fresh processes after the same set-up: once under the tracer
and once under cProfile with no wrappers installed.  Every wrapped function's
count must agree, and the counts named in ``CASES`` must match exactly.
Exits 0 when all agree.  Takes about a minute.
"""

from __future__ import annotations

import argparse
import cProfile
import io
import json
import pstats
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from tracer import KEYS, WRAPPED, Tracer  # noqa: E402
from worker import import_folcone, run_op, set_up  # noqa: E402

CASES = {
    "hn-fiber r4_counterexample --point 0,0,0,0": {
        "grassmann.limit_along_curve_detailed": 25,
        "algebra.bareiss_det": 43680,
        "grassmann.plucker_of_basis": 24,
        "algebra.rational_det": 43680,
        "foliation.IsotropyAlgebra.class_coordinates": 400,
        "foliation.strong_kernel_at": 2,
    },
    "analyze r4_counterexample": {
        "foliation.strong_kernel_at": 6,
        "algebra.sparse_rref": 6,
        "foliation.IsotropyAlgebra.class_coordinates": 256,
        "algebra.solve_linear": 256,
        "grassmann.plucker_of_basis": 3,
        "algebra.rational_det": 3640,
    },
}


def _function(key: str):
    import importlib

    mod_name, name = key.split(".", 1)
    obj = importlib.import_module(f"folcone.{mod_name}")
    if "." in name:
        cls_name, name = name.split(".")
        return getattr(obj, cls_name).__dict__[name]
    return getattr(obj, name)


def child(mode: str, op: str) -> dict[str, int]:
    import_folcone(Path.cwd())
    set_up("r4_cone")
    from folcone import cli

    argv = op.split()
    if mode == "traced":
        tracer = Tracer()
        tracer.install()
        rec = run_op(cli, argv)
        counts = {key: v[0] for key, v in tracer.stats.items()}
    else:
        codes = {key: _function(key).__code__ for key in KEYS}
        prof = cProfile.Profile()
        prof.enable()
        rec = run_op(cli, argv)
        prof.disable()
        stats = pstats.Stats(prof, stream=io.StringIO()).stats
        counts = {}
        for key, code in codes.items():
            entry = stats.get((code.co_filename, code.co_firstlineno, code.co_name))
            counts[key] = entry[1] if entry else 0
    if rec["rc"] != 0 or rec["exc"]:
        raise SystemExit(f"{op} failed: exit {rec['rc']} {rec['exc']}")
    return counts


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--child", choices=("traced", "profiled"))
    ap.add_argument("--op")
    args = ap.parse_args(argv)
    if args.child:
        print(json.dumps(child(args.child, args.op)))
        return 0

    ok = True
    for op, expected in CASES.items():
        got = {}
        for mode in ("traced", "profiled"):
            out = subprocess.run(
                [sys.executable, __file__, "--child", mode, "--op", op],
                check=True, capture_output=True, text=True, timeout=170,
            ).stdout
            got[mode] = json.loads(out.splitlines()[-1])
        print(f"{op}:")
        for key in KEYS:
            traced, profiled = got["traced"][key], got["profiled"][key]
            want = expected.get(key)
            good = traced == profiled and (want is None or traced == want)
            ok = ok and good
            if traced or profiled or want is not None:
                note = "" if want is None else f"  expected {want}"
                print(f"  {'ok ' if good else 'BAD'} {key:48s} traced {traced:>7} cProfile {profiled:>7}{note}")
    print("tracer self-check:", "pass" if ok else "FAIL")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
