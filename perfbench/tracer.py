"""Per-layer tracing from outside the program.

The tracer wraps the public functions listed in ``WRAPPED`` and rebinds each
wrapper under every name that refers to the original in any loaded
``folcone`` module (``hncone`` and ``cli`` import ``strong_kernel_at`` by
name, so wrapping only the defining module would miss their calls).  Each
wrapper counts calls and measures total and self time; self time is total
minus the time of wrapped callees.  Nothing under ``src/`` changes.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from math import comb

# module -> public functions (``Class.method`` for methods) that are traced.
WRAPPED = {
    "grassmann": (
        "limit_along_curve_detailed",
        "plucker_of_basis",
        "reconstruct_from_plucker",
        "annihilator",
        "make_subspace",
    ),
    "algebra": (
        "bareiss_det",
        "bareiss_echelon",
        "kernel_basis_over_curve",
        "rational_det",
        "sparse_rref",
        "solve_linear",
        "rref",
        "generic_rank",
    ),
    "foliation": (
        "strong_kernel_at",
        "isotropy_algebra",
        "IsotropyAlgebra.class_coordinates",
        "jacobi_flag",
        "solve_structure_functions",
    ),
    "hncone": ("curve_family", "nash_fiber", "sandwich_check", "limit_subalgebra_check"),
    "symbols": ("realize", "symbol_top", "symbol_on_fiber", "ellipticity_check"),
    "poisson": (
        "hamiltonian_field",
        "hamiltonian_identity_defect",
        "hn_invariance_test",
        "cotangent_lift_check",
        "flow_rk4",
    ),
    "presets": ("load_preset",),
    "expr": ("parse_operator",),
    "cli": ("main",),
}

KEYS = tuple(f"{mod}.{name}" for mod, names in WRAPPED.items() for name in names)

# Work counts recorded at the same boundaries as the spans.
EXTRA_COUNTS = (
    "grassmann.plucker_coords",
    "hncone.curves_attempted",
    "hncone.curves_accepted",
    "hncone.limits_distinct",
    "poisson.rk4_steps",
)


class Tracer:
    """Call counts, total and self time per wrapped function, plus work counts."""

    def __init__(self) -> None:
        self.stats: dict[str, list] = {key: [0, 0.0, 0.0] for key in KEYS}
        self.counts: dict[str, float] = dict.fromkeys(EXTRA_COUNTS, 0)
        self._stack: list[list[float]] = []

    def reset(self) -> tuple[dict, dict]:
        """Return the stats gathered so far and start from zero."""
        snapshot = ({k: list(v) for k, v in self.stats.items()}, dict(self.counts))
        for v in self.stats.values():
            v[:] = [0, 0.0, 0.0]
        for k in self.counts:
            self.counts[k] = 0
        return snapshot

    def _wrap(self, key: str, fn):
        st = self.stats[key]
        stack = self._stack
        clock = time.perf_counter
        depth = [0]
        after = _AFTER.get(key)
        before = _BEFORE.get(key)
        counts = self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            st[0] += 1
            if before is not None:
                args, kwargs = before(counts, args, kwargs)
            frame = [0.0]
            stack.append(frame)
            depth[0] += 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                depth[0] -= 1
                stack.pop()
                if depth[0] == 0:  # recursion: count the outermost span once
                    st[1] += dt
                st[2] += dt - frame[0]
                if stack:
                    stack[-1][0] += dt
            if after is not None:
                after(counts, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every function in ``WRAPPED`` under every name bound to it."""
        for mod_name in WRAPPED:
            importlib.import_module(f"folcone.{mod_name}")
        modules = [m for name, m in list(sys.modules.items()) if name == "folcone" or name.startswith("folcone.")]
        for mod_name, names in WRAPPED.items():
            mod = sys.modules[f"folcone.{mod_name}"]
            for name in names:
                key = f"{mod_name}.{name}"
                if "." in name:
                    cls_name, meth = name.split(".")
                    cls = getattr(mod, cls_name)
                    orig = cls.__dict__[meth]
                    setattr(cls, meth, self._wrap(key, orig))
                else:
                    orig = getattr(mod, name)
                    wrapper = self._wrap(key, orig)
                    for m in modules:
                        for attr, value in list(vars(m).items()):
                            if value is orig:
                                setattr(m, attr, wrapper)


def _plucker_coords(counts, args, kwargs, result):
    basis = args[0] if args else kwargs["basis"]
    ambient = args[1] if len(args) > 1 else kwargs["ambient_dim"]
    counts["grassmann.plucker_coords"] += comb(ambient, len(basis))


def _fiber_counts(counts, args, kwargs, sample):
    counts["hncone.curves_attempted"] += len(sample.curves_used)
    counts["hncone.curves_accepted"] += sum(1 for rec in sample.curves_used if rec.accepted)
    counts["hncone.limits_distinct"] += len(sample.limits)


def _count_rk4_steps(counts, args, kwargs):
    """Count right-hand-side evaluations; a classical RK4 step takes four."""
    rhs = args[0] if args else kwargs.pop("rhs")

    def counted(y):
        counts["poisson.rk4_steps"] += 0.25
        return rhs(y)

    return (counted,) + tuple(args[1:]), kwargs


_BEFORE = {"poisson.flow_rk4": _count_rk4_steps}
_AFTER = {"grassmann.plucker_of_basis": _plucker_coords, "hncone.nash_fiber": _fiber_counts}
