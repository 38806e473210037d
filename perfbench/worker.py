"""One measured process: set up folcone, then run a workload's ops in a loop.

Run from the root of a checkout.  With ``--setup-only`` it prints the set-up
time and exits.  Otherwise it drives ``folcone.cli.main(argv)`` in-process in
a closed loop (one client, one thread), stdout captured in memory.  It
repeats the workload's op cycle for ``--seconds`` and streams one JSON line
per op to stdout: argv, exit code, op time and the report itself.  All
checking happens in the parent, after this process has ended, so none of it
lands in the timed loop or in this process's peak memory.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()  # set-up is timed from before ``import folcone``

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import statistics
import sys
import threading
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402


def import_folcone(root: Path) -> None:
    """Import folcone and its CLI from ``<root>/src`` and nowhere else."""
    src = root / "src"
    sys.path.insert(0, str(src))
    import folcone
    import folcone.cli  # noqa: F401  (what the ``folcone`` command imports)

    if Path(folcone.__file__).resolve().parent != (src / "folcone").resolve():
        raise SystemExit(f"folcone imported from {folcone.__file__}, not from {src}")


def set_up(workload: str) -> None:
    """Load each preset the workload uses and solve its structure functions,
    as the first command on that preset would."""
    from folcone import foliation, presets

    for name in workloads.presets_of(workload):
        p = presets.load_preset(name).presentation
        if not p.has_structure():
            foliation.solve_structure_functions(p)


PROBE_PERIOD_S = 0.05


def probe_work() -> float:
    """Time a fixed pure-Python Fraction loop, about half a millisecond."""
    t = time.perf_counter()
    acc = Fraction(0)
    for i in range(1, 201):
        acc += Fraction(i % 7 + 1, i % 11 + 1)
    return time.perf_counter() - t


class Probe(threading.Thread):
    """Samples the speed of the core during set-up and during the ops.

    Every ``PROBE_PERIOD_S`` the thread takes the GIL from the measured code
    and times ``probe_work``.  The process is pinned to one CPU, so the probe
    runs on the core the measured code runs on, and measures how fast the
    host lets that core run meanwhile.  It takes 1 to 2% of the time.
    """

    def __init__(self):
        super().__init__(daemon=True)
        self.samples: list[float] = []
        self._done = threading.Event()

    def run(self) -> None:
        while not self._done.wait(PROBE_PERIOD_S):
            self.samples.append(probe_work())

    def stop(self) -> list[float]:
        self._done.set()
        self.join()
        return self.samples


def run_op(cli, argv: list[str]) -> dict:
    """Run one ``cli.main(argv)`` with stdout captured; time only the call."""
    buf, err = io.StringIO(), io.StringIO()
    exc = None
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(err):
        t = time.perf_counter()
        try:
            rc = cli.main(argv)
        except Exception as e:  # an op that raises is a failed op, not a crash
            rc, exc = None, repr(e)
        op_s = time.perf_counter() - t
    report = buf.getvalue()
    data = report.encode()
    return {
        "argv": argv,
        "rc": rc,
        "exc": exc,
        "op_s": op_s,
        "sha256": hashlib.sha256(data).hexdigest(),
        "bytes": len(data),
        "stderr": err.getvalue()[-400:],
        "report": report,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})  # ops and probe on one CPU
    probe = Probe()
    probe.start()
    import_folcone(Path.cwd())
    import_s = time.perf_counter() - T_START
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    set_up(args.workload)
    setup_s = time.perf_counter() - T_START
    setup_probe_s = statistics.fmean(probe.stop())
    out = sys.stdout
    if args.setup_only:
        out.write(json.dumps({"setup_s": setup_s, "import_s": import_s, "probe_s": setup_probe_s}) + "\n")
        return 0
    setup_trace = tracer.reset() if tracer else None

    from folcone import cli

    ops = workloads.cycle(args.workload, args.seed)
    last_s = [0.0] * len(ops)  # an op not run yet is always started
    k = 0
    probe = Probe()
    probe.start()
    loop_start = time.perf_counter()
    # Round-robin over the cycle.  An op is started only if it should end at
    # most half its previous time past --seconds, so a run whose op takes
    # 12 s still ends near --seconds.
    while time.perf_counter() - loop_start + last_s[k % len(ops)] / 2 <= args.seconds:
        record = run_op(cli, ops[k % len(ops)])
        record["k"] = k
        last_s[k % len(ops)] = record["op_s"]
        out.write(json.dumps(record) + "\n")
        k += 1
    loop_s = time.perf_counter() - loop_start
    probe_s = probe.stop()
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    done = {"done": True, "setup_s": setup_s, "import_s": import_s, "setup_probe_s": setup_probe_s,
            "loop_s": loop_s, "ops": k, "rss_mb": rss_mb, "probe_s": probe_s}
    if tracer:
        stats, counts = tracer.reset()
        done["trace"] = {"setup": {"stats": setup_trace[0], "counts": setup_trace[1]},
                         "loop": {"stats": stats, "counts": counts}}
    out.write(json.dumps(done) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
