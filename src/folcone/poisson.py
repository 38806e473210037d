"""Fiberwise-linear Poisson structure on the dual bundle, flows, invariance checks.

Given structure functions, the bracket on functions of (x, xi) is fixed by
{xi_i, xi_j} = sum_k c_ij^k(x) xi_k and {xi_i, x_l} = (anchor)_{l i}(x).
The Hamiltonian field of a constant combination a of generators is built once,
from the structure functions: H_a[xi_j] = ev_[a, e_j] and H_a[x_l] = rho(a)_l.
The identity check compares the field's image of every coordinate with the
Poisson bracket {ev_a, .} of that coordinate, exactly.  Flows are fixed-step
RK4 (deterministic), and the invariance check measures xi(t) against the cone
fiber at regular x, the one space Im rho*_x: the anchor's row space at x,
computed exactly; a sampled base point that snaps onto the singular set raises
``CurveNotGeneric`` with its time index.

The float layer is generated straight-line Python on floats: each field, the
RK4 step for each state length, and the anchor of the lift check are written
once from the per-term expressions of ``Polynomial.float_expr``, in the same
operation order as numpy's elementwise arithmetic, so every state is the same
bit for bit.  numpy stores the states, takes the norms, and computes the
products -J^T cov and rho^T cov of the lift check: its BLAS sums them with
fused multiply-adds, which a Python sum does not reproduce.  The float
functions import numpy themselves, so the exact part of this module never
loads it.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from math import isfinite
from typing import TYPE_CHECKING, Callable, Sequence

from . import algebra
from .expr import Polynomial, PolyVectorField, with_fiber
from .foliation import FoliationPresentation
from .grassmann import CurveNotGeneric, make_subspace, point_distance

if TYPE_CHECKING:
    import numpy as np


class NonFiniteState(RuntimeError):
    """The integrator produced a non-finite state (blow-up)."""


# ---------------------------------------------------------------------------
# Generated float code
# ---------------------------------------------------------------------------


def _names(prefix: str, count: int) -> list[str]:
    return [f"{prefix}{i}" for i in range(count)]


def _tuple(items: Sequence[str]) -> str:
    return "(" + "".join(f"{item}, " for item in items) + ")"


def _compile(params: str, lines: Sequence[str], scope: dict | None = None) -> Callable:
    """``f(params)`` with the body ``lines``, source generated from
    polynomial coefficients, its free names looked up in ``scope``."""
    namespace = dict(scope or {})
    exec(f"def f({params}):\n" + "".join(f"    {line}\n" for line in lines), namespace)  # noqa: S102
    return namespace["f"]


# ---------------------------------------------------------------------------
# Combined polynomial functions on the dual bundle
# ---------------------------------------------------------------------------


def dual_vars(p: FoliationPresentation) -> tuple[str, ...]:
    """The base variables followed by the fiber coordinates xi_1..xi_N."""
    return with_fiber(p.vars, "xi", p.num_generators)


def ev(p: FoliationPresentation, a: Sequence) -> Polynomial:
    """The fiberwise-linear evaluation function of a constant combination a."""
    names = dual_vars(p)
    xi = [Polynomial.var(v, names) for v in names[p.dim :]]
    return sum((Fraction(c) * xi_i for c, xi_i in zip(a, xi, strict=True)), Polynomial.zero(names))


def _coordinate_brackets(p: FoliationPresentation, f: Polynomial) -> list[Polynomial]:
    """{f, w} for every dual coordinate w (x_1..x_n, then xi_1..xi_N), from
    one pass over f's partial derivatives:
    {f, x_l} = sum_i rho_li df/dxi_i and
    {f, xi_j} = sum_{i,k} c_ij^k xi_k df/dxi_i - sum_l rho_lj df/dx_l."""
    structure = p.require_structure("the Poisson bracket")
    names = dual_vars(p)
    if f.vars != names:
        raise ValueError("arguments must live on the dual bundle's variables")
    n = p.dim
    zero = Polynomial.zero(names)
    anchor = [[e.lift(names) for e in row] for row in p.anchor()]
    xi = [Polynomial.var(v, names) for v in names[n:]]
    df_xi = [(i, d) for i, d in enumerate(f.diff(v) for v in names[n:]) if not d.is_zero()]
    df_x = [(l, d) for l, d in enumerate(f.diff(v) for v in names[:n]) if not d.is_zero()]
    out = [sum((row[i] * d for i, d in df_xi if not row[i].is_zero()), zero) for row in anchor]
    for j in range(len(xi)):
        acc = zero
        for i, d in df_xi:
            for k, c in enumerate(structure[i][j]):
                if not c.is_zero():
                    acc = acc + c.lift(names) * xi[k] * d
        for l, d in df_x:
            if not anchor[l][j].is_zero():
                acc = acc - anchor[l][j] * d
        out.append(acc)
    return out


def poisson_bracket(p: FoliationPresentation, f: Polynomial, g: Polynomial) -> Polynomial:
    """Exact bracket of two polynomial functions on the dual bundle:
    {f, g} = sum_w {f, w} dg/dw over the dual coordinates w."""
    brackets = _coordinate_brackets(p, f)
    names = f.vars
    if g.vars != names:
        raise ValueError("arguments must live on the dual bundle's variables")
    return sum((b * g.diff(w) for b, w in zip(brackets, names) if not b.is_zero()), Polynomial.zero(names))


# ---------------------------------------------------------------------------
# Hamiltonian fields
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HamiltonianField:
    """Base part rho(a) plus a fiber part linear in xi.

    fiber_matrix[j][k] is the coefficient of xi_k in d(xi_j)/dt.
    """

    presentation: FoliationPresentation
    combination: tuple[Fraction, ...]
    base: PolyVectorField
    fiber_matrix: tuple[tuple[Polynomial, ...], ...]

    def rhs_fn(self) -> Callable[[Sequence[float]], tuple[float, ...]]:
        """The field as one generated function: the state (x, xi), n + N
        floats, in; its n + N components out as a tuple.  The base part comes
        first; then for each j, sum_k c_jk(x)*xi_k in the order of k over the
        structurally nonzero c_jk, each skipped when its value is zero."""
        n = self.presentation.dim
        v = _names("v", n + self.presentation.num_generators)
        lines = [f"{_tuple(v)} = y"]
        lines += [f"b{l} = {c.float_expr(v[:n])}" for l, c in enumerate(self.base.components)]
        for j, row in enumerate(self.fiber_matrix):
            lines.append(f"a{j} = 0.0")
            for k, c in enumerate(row):
                if not c.is_zero():
                    lines += [f"c = {c.float_expr(v[:n])}", f"if c: a{j} += c * {v[n + k]}"]
        lines.append(f"return {_tuple(_names('b', n) + _names('a', len(self.fiber_matrix)))}")
        return _compile("y", lines)


def hamiltonian_field(p: FoliationPresentation, a) -> HamiltonianField:
    """Hamiltonian field of ev_a for a generator index or constant combination."""
    structure = p.require_structure("a Hamiltonian field")
    if isinstance(a, int):
        combo = [Fraction(0)] * p.num_generators
        combo[a] = Fraction(1)
    else:
        combo = [Fraction(x) for x in a]
        if len(combo) != p.num_generators:
            raise ValueError("combination length must match the generator count")
    zero = Polynomial.zero(p.vars)
    terms = [(ci, i) for i, ci in enumerate(combo) if ci]
    base = sum((ci * p.generators[i] for ci, i in terms), PolyVectorField(p.vars, (zero,) * p.dim))
    gens = range(p.num_generators)
    fiber = [tuple(sum((ci * structure[i][j][k] for ci, i in terms), zero) for k in gens) for j in gens]
    return HamiltonianField(p, tuple(combo), base, tuple(fiber))


def hamiltonian_identity_defect(p: FoliationPresentation, h: HamiltonianField) -> list[str]:
    """Exact check of the field against the bracket; empty list when it holds.

    H_a = {ev_a, .}: the image of each fiber coordinate xi_j,
    sum_k fiber_matrix[j][k] xi_k, must equal {ev_a, xi_j} = ev_[a, e_j], and
    the image of each base coordinate x_l, rho(a)_l, must equal {ev_a, x_l},
    as polynomial identities on the dual bundle.  The brackets of ev_a with
    the coordinates are those ``poisson_bracket`` sums, taken once.
    """
    names = dual_vars(p)
    n = p.dim
    xi = [Polynomial.var(v, names) for v in names[n:]]
    brackets = _coordinate_brackets(p, ev(p, h.combination))
    defects = []
    for j, row in enumerate(h.fiber_matrix):
        image = sum(
            (c.lift(names) * xi_k for c, xi_k in zip(row, xi, strict=True) if not c.is_zero()),
            Polynomial.zero(names),
        )
        if image != brackets[n + j]:
            defects.append(f"H[ev_e{j+1}] != ev_[a,e{j+1}]")
    for l, component in enumerate(h.base.components):
        if component.lift(names) != brackets[l]:
            defects.append(f"H[x_{l+1}] != rho(a)_{l+1}")
    return defects


# ---------------------------------------------------------------------------
# Flows
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Trajectory:
    times: np.ndarray
    states: np.ndarray  # (steps+1, dim)


@cache
def _rk4_step(d: int) -> Callable:
    """One classical RK4 step on d floats, ``step(rhs, y, h)``: the stages
    at y + (0.5*h)*k1, y + (0.5*h)*k2 and y + h*k3, then
    y + (h/6)*(((k1 + 2*k2) + 2*k3) + k4), componentwise in numpy's order."""
    y = _names("y", d)
    k = [_names(f"k{s}_", d) for s in range(1, 5)]

    def stage(ks: list[str], step: str) -> str:
        return _tuple([f"{a} + {step}*{b}" for a, b in zip(y, ks)])

    update = [f"{a} + h6*((({b1} + 2*{b2}) + 2*{b3}) + {b4})" for a, b1, b2, b3, b4 in zip(y, *k)]
    return _compile(
        "rhs, y, h",
        [
            "hh, h6 = 0.5 * h, h / 6.0",
            f"{_tuple(y)} = y",
            f"{_tuple(k[0])} = rhs(y)",
            f"{_tuple(k[1])} = rhs({stage(k[0], 'hh')})",
            f"{_tuple(k[2])} = rhs({stage(k[1], 'hh')})",
            f"{_tuple(k[3])} = rhs({stage(k[2], 'h')})",
            f"return {_tuple(update)}",
        ]
    )


def flow_rk4(
    rhs: Callable[[Sequence[float]], Sequence[float]], start: Sequence[float], t_final: float, steps: int
) -> Trajectory:
    """Classical fixed-step RK4 on Python floats; raises NonFiniteState on blow-up.

    ``rhs`` takes the state as a sequence of floats and returns its
    derivative as a sequence of floats of the same length.
    """
    import numpy as np

    if steps < 1:
        raise ValueError("steps must be >= 1")
    y = tuple(float(v) for v in start)
    h = t_final / steps
    step = _rk4_step(len(y))
    times = np.linspace(0.0, t_final, steps + 1)
    states = np.empty((steps + 1, len(y)))
    states[0] = y
    for s in range(steps):
        y = step(rhs, y, h)
        if not all(map(isfinite, y)):
            raise NonFiniteState(f"blow-up at step {s+1}")
        states[s + 1] = y
    return Trajectory(times, states)


@dataclass(frozen=True)
class CovectorFlow:
    """The H_a flow from (m, rho*_m eta): its exact start, field and trajectory."""

    point: tuple[Fraction, ...]
    eta: tuple[Fraction, ...]
    field: HamiltonianField
    trajectory: Trajectory


def covector_flow(
    p: FoliationPresentation, m: Sequence, eta: Sequence, a, t_final: float, steps: int
) -> CovectorFlow:
    """Flow (x, xi) by H_a from x = m, xi = rho*_m eta (fixed-step RK4)."""
    point = tuple(Fraction(x) for x in m)
    eta_q = tuple(Fraction(x) for x in eta)
    xi0 = algebra.mat_vec(algebra.transpose(p.anchor_at(point)), eta_q)
    h = hamiltonian_field(p, a)
    return CovectorFlow(point, eta_q, h, flow_rk4(h.rhs_fn(), point + xi0, t_final, steps))


# ---------------------------------------------------------------------------
# Invariance checks
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class InvarianceResult:
    max_drift: float
    snap_radius: float
    samples: int
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.max_drift <= self.tolerance


def hn_invariance_test(p: FoliationPresentation, flow: CovectorFlow, *, tol: float = 1e-6) -> InvarianceResult:
    """Measure the cone-membership drift of xi(t) along a flow from a regular point.

    At 11 evenly spaced steps (all of them when there are fewer; the first is
    the start) the base point is snapped to the nearest rational point x of
    denominator at most 10^9, and the anchor's row space at x, the cone fiber
    Im rho*_x, is computed exactly: a dimension below the generic rank means x
    is singular (``CurveNotGeneric``, a ValueError).  The distance from xi(t)
    to the fiber is recorded, and the snap radius for the drift budget.
    """
    import numpy as np

    traj = flow.trajectory
    steps = len(traj.times) - 1
    n = p.dim
    idxs = np.unique(np.linspace(0, steps, 11).astype(int))
    max_drift = 0.0
    max_snap = 0.0
    for s in idxs:
        state = traj.states[s]
        snapped = tuple(Fraction(v).limit_denominator(10**9) for v in state[:n])
        snap_radius = float(np.linalg.norm(state[:n] - np.array([float(q) for q in snapped])))
        fiber = make_subspace(p.anchor_at(snapped), p.num_generators)
        if fiber.dim != p.generic_rank():
            where = ",".join(map(str, snapped))
            raise CurveNotGeneric(f"the flow reaches the singular point ({where}) at time index {s}")
        drift = point_distance(fiber, state[n:])
        max_drift = max(max_drift, drift)
        max_snap = max(max_snap, snap_radius)
    return InvarianceResult(max_drift, max_snap, len(idxs), tol)


@dataclass(frozen=True)
class LiftResult:
    max_deviation: float
    steps: int
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.max_deviation <= self.tolerance


def cotangent_lift_check(p: FoliationPresentation, flow: CovectorFlow, *, tol: float = 1e-6) -> LiftResult:
    """Compare the H_a flow of rho*_m eta against the cotangent-lifted flow
    of rho(a) from (m, eta), pushed through rho* at the transported base point."""
    import numpy as np

    h, traj_h = flow.field, flow.trajectory
    # the same RK4 grid: linspace ends exactly at t_final
    steps = len(traj_h.times) - 1
    t_final = float(traj_h.times[-1])
    n, big_n = p.dim, p.num_generators
    v = _names("v", 2 * n)
    base = h.base.components
    neg_jac = [f"-({base[l].diff(p.vars[m]).float_expr(v[:n])})" for l in range(n) for m in range(n)]
    # the derivative of the covector, -J^T cov with J_lm = d rho(a)_l / dx_m:
    # numpy's product of a transposed C-ordered matrix (its BLAS fuses the
    # multiply-adds, which a Python sum does not reproduce); for n = 1 the
    # lone product 0.0 + a*c is the same number
    lines = [f"{_tuple(v)} = y"]
    if n == 1:
        scope, product = {}, [f"0.0 + {neg_jac[0]}*{v[1]}"]
    else:
        nj = np.empty(n * n)
        scope = {"nj": nj, "neg_jac_t": nj.reshape(n, n).T, "cov": np.empty(n)}
        lines += [f"nj[:] = {_tuple(neg_jac)}", f"cov[:] = {_tuple(v[n:])}"]
        product = ["*(neg_jac_t @ cov).tolist()"]
    lines.append(f"return {_tuple([c.float_expr(v[:n]) for c in base] + product)}")
    y0 = [float(x) for x in flow.point] + [float(x) for x in flow.eta]
    # overflow is reported once, as NonFiniteState, not as numpy warnings
    with np.errstate(over="ignore", invalid="ignore"):
        traj_l = flow_rk4(_compile("y", lines, scope), y0, t_final, steps)

    entries = [e.float_expr(v[:n]) for row in p.anchor() for e in row]
    anchor = _compile("y", [f"{_tuple(v[:n])} = y", f"return {_tuple(entries)}"])
    rho = np.empty(n * big_n)
    rho_t = rho.reshape(n, big_n).T
    max_dev = 0.0
    for s in range(steps + 1):
        xi_h = traj_h.states[s][n:]
        x_l = traj_l.states[s][:n]
        cov = traj_l.states[s][n:]
        rho[:] = anchor(x_l.tolist())
        xi_lift = rho_t @ cov
        max_dev = max(max_dev, float(np.linalg.norm(xi_h - xi_lift)))
    return LiftResult(max_dev, steps, tol)


@dataclass(frozen=True)
class ScenarioResult:
    """All three checks of one flow scenario, which share one H_a trajectory."""

    flow: CovectorFlow
    identity_defects: tuple[str, ...]
    invariance: InvarianceResult
    lift: LiftResult

    @property
    def passed(self) -> bool:
        return not self.identity_defects and self.invariance.passed and self.lift.passed


def check_scenario(
    p: FoliationPresentation, m: Sequence, eta: Sequence, a, t_final: float, steps: int, *, tol: float
) -> ScenarioResult:
    """The exact Hamiltonian identities of H_a, then cone invariance and the
    cotangent lift along the one H_a flow from (m, rho*_m eta)."""
    flow = covector_flow(p, m, eta, a, t_final, steps)
    return ScenarioResult(
        flow,
        tuple(hamiltonian_identity_defect(p, flow.field)),
        hn_invariance_test(p, flow, tol=tol),
        cotangent_lift_check(p, flow, tol=tol),
    )
