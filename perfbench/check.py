"""Output checks for every op, run in the parent after the measured process.

* Recorded ops (``expected.json``, written by ``record.py``) must reproduce
  the report's sha256 and byte size and the exit code exactly.
* Every op must return, with an exit code its command allows: 0, or 1 where
  the command reports a verdict (``elliptic``, ``poisson-check``) and the
  report says the check failed.
* Fiber ops: the report's generic rank must equal the largest numpy rank of
  the anchor at x(1/2) over the curves.  Each accepted Nash limit is compared
  with an independent float oracle, the numpy SVD kernel of the anchor at
  x(t) on the same curve for t = 1e-4, sized by that float rank.  The largest
  principal angle must stay below ``ANGLE_BOUND``.
  The covector spaces of ``hn-fiber`` must annihilate their limits.
* ``analyze``: each leaf dimension must equal the numpy rank of the anchor at
  the point, the strong kernel must lie in the float kernel, and the isotropy
  dimensions must add up.
"""

from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path

import numpy as np

import workloads

HERE = Path(__file__).resolve().parent
EXPECTED = HERE / "expected.json"

T_ORACLE = Fraction(1, 10**4)
T_GENERIC = Fraction(1, 2)  # away from the point, where the anchor has generic rank
ANGLE_BOUND = 1e-2  # sin of the largest principal angle, limit vs kernel at x(t)
ZERO_TOL = 1e-9  # relative residual of an exact kernel vector in floats


def load_expected() -> dict:
    if not EXPECTED.exists():
        return {}
    return json.loads(EXPECTED.read_text())


def _floats(rows) -> np.ndarray:
    return np.array([[float(Fraction(x)) for x in row] for row in rows], dtype=float)


class Checker:
    def __init__(self, workload: str):
        from folcone import presets
        from folcone.hncone import curve_family

        self.presets = presets
        self.curve_family = curve_family
        self.expected = load_expected().get(workload, {})
        self.worst_angle = 0.0
        self.limits_checked = 0
        self.recorded_hits = 0

    def _anchor_float(self, preset: str, point) -> np.ndarray:
        anchor = self.presets.load_preset(preset).presentation.anchor()
        x = [float(v) for v in point]
        return np.array([[entry.eval_float(x) for entry in row] for row in anchor], dtype=float)

    def check(self, rec: dict) -> list[str]:
        """Problems with one op record; empty when the op succeeded."""
        argv = rec["argv"]
        command, preset = argv[0], argv[1]
        if rec["exc"] is not None:
            return [f"raised {rec['exc']}"]
        problems = []
        want = self.expected.get(workloads.op_key(argv))
        if want is not None:
            self.recorded_hits += 1
            if [rec["sha256"], rec["bytes"], rec["rc"]] != want:
                problems.append(f"report/exit {rec['sha256'][:12]}/{rec['bytes']}/{rec['rc']} != recorded {want}")
        allowed = (0, 1) if command in workloads.VERDICT_COMMANDS else (0,)
        if rec["rc"] not in allowed:
            return problems + [f"exit {rec['rc']}: {rec['stderr'].strip()[-200:]}"]
        try:
            report = json.loads(rec["report"])
        except json.JSONDecodeError as exc:
            return problems + [f"report is not JSON: {exc}"]
        if report.get("command") != command or report["parameters"].get("preset") != preset:
            return problems + ["report names another command or preset"]
        res = report["results"]
        if command == "elliptic" and rec["rc"] != (0 if res["elliptic"] else 1):
            problems.append("exit code disagrees with the elliptic verdict")
        if command == "poisson-check" and rec["rc"] != (0 if res["ok"] else 1):
            problems.append("exit code disagrees with the poisson-check verdict")
        if command in ("nash-fiber", "hn-fiber"):
            problems += self._fiber(preset, report)
        if command == "analyze":
            problems += self._analyze(preset, res)
        return problems

    def _fiber(self, preset: str, report: dict) -> list[str]:
        res, cp = report["results"], report["parameters"]["curves"]
        point = [Fraction(x) for x in res["point"]]
        curves = self.curve_family(point, cp["direction_count"], cp["arc_degree"], cp["seed"])
        if [c.label for c in curves] != res["curve_family"]:
            return ["curve family differs from the one regenerated from the report's parameters"]
        by_label = {c.label: c for c in curves}
        rank = max(int(np.linalg.matrix_rank(self._anchor_float(preset, c.eval(T_GENERIC)))) for c in curves)
        if res["generic_rank"] != rank:
            return [f"generic rank {res['generic_rank']} != float rank {rank} at x(1/2)"]
        problems = []
        for used in res["curves_used"]:
            if not used["accepted"]:
                continue
            limit = res["limits"][used["limit_index"]]
            n_gen = limit["ambient_dim"]
            a = self._anchor_float(preset, by_label[used["label"]].eval(T_ORACLE))
            _, _, vt = np.linalg.svd(a)
            kernel = vt[rank:].T
            if limit["dim"] != n_gen - rank:
                problems.append(f"{used['label']}: limit dim {limit['dim']} != {n_gen - rank}")
                continue
            self.limits_checked += 1
            if limit["dim"] == 0:
                continue
            q, _ = np.linalg.qr(_floats(limit["basis"]).T)
            sin_angle = float(np.linalg.norm(kernel - q @ (q.T @ kernel), 2))
            self.worst_angle = max(self.worst_angle, sin_angle)
            if not sin_angle < ANGLE_BOUND:
                problems.append(f"{used['label']}: principal angle sin {sin_angle:.3g} >= {ANGLE_BOUND}")
        for lim, cov in zip(res["limits"], res.get("covector_spaces", ())):
            if lim["dim"] + cov["dim"] != lim["ambient_dim"]:
                problems.append("covector space dimension is not the codimension of its limit")
            elif lim["dim"] and cov["dim"]:
                if np.abs(_floats(cov["basis"]) @ _floats(lim["basis"]).T).max() > ZERO_TOL:
                    problems.append("covector space does not annihilate its limit")
        return problems

    def _analyze(self, preset: str, res: dict) -> list[str]:
        problems = []
        n_gen = res["num_generators"]
        for entry in res["points"]:
            a = self._anchor_float(preset, [Fraction(x) for x in entry["point"]])
            rank = int(np.linalg.matrix_rank(a))
            if entry["leaf_dimension"] != rank:
                problems.append(f"leaf dimension {entry['leaf_dimension']} != float rank {rank}")
            sk = entry["strong_kernel"]
            if sk["dim"]:
                basis = _floats(sk["basis"])
                scale = max(1.0, np.abs(a).max()) * np.abs(basis).max()
                if np.abs(a @ basis.T).max() > ZERO_TOL * scale:
                    problems.append("strong kernel vector outside the float kernel")
            iso = entry.get("isotropy")
            if iso is not None and (
                iso["kernel_dim"] != n_gen - rank
                or iso["strong_kernel_dim"] != sk["dim"]
                or iso["dim"] != iso["kernel_dim"] - sk["dim"]
            ):
                problems.append("isotropy dimensions do not add up")
        return problems
