"""Record the expected report of each op at the recorded seeds.

    python3 perfbench/record.py

Run from the root of a checkout.  For every recorded seed, each op of the
workload's cycle is run once, checked by ``check.py`` (an op that fails is
never recorded), and its report sha256, byte size and exit code are stored
in ``expected.json``.  A benchmark run at a recorded seed must then
reproduce them byte for byte, on every repeat; seeds outside the recorded
ones get the other checks.
A change that alters a report must re-record and explain why.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from worker import import_folcone, run_op, set_up  # noqa: E402

RECORDED_SEEDS = range(10)


def main() -> int:
    import_folcone(Path.cwd())
    from folcone import cli

    from check import EXPECTED, Checker

    recorded = {}
    for w in workloads.WORKLOADS:
        set_up(w)
        checker = Checker(w)
        checker.expected = {}
        table = {}
        for seed in RECORDED_SEEDS:
            for argv in workloads.cycle(w, seed):
                key = workloads.op_key(argv)
                if key in table:
                    continue
                rec = run_op(cli, argv)
                problems = checker.check(rec)
                if problems:
                    print(f"not recorded, op fails: {key}: {problems}", file=sys.stderr)
                    return 1
                table[key] = [rec["sha256"], rec["bytes"], rec["rc"]]
        recorded[w] = table
        print(f"{w}: {len(table)} ops recorded", flush=True)
    EXPECTED.write_text(dump(recorded))
    return 0


def dump(expected: dict) -> str:
    """JSON with one recorded op per line, so a re-record diffs op by op."""
    blocks = []
    for w in sorted(expected):
        rows = ",\n".join(f"  {json.dumps(k)}: {json.dumps(v)}" for k, v in sorted(expected[w].items()))
        blocks.append(f" {json.dumps(w)}: {{\n{rows}\n }}")
    return "{\n" + ",\n".join(blocks) + "\n}\n"


if __name__ == "__main__":
    sys.exit(main())
