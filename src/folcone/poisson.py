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
``CurveNotGeneric`` with its time index.  The float functions (the flows and
the checks along them) import numpy themselves, so the exact part of this
module never loads it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
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

    def rhs_fn(self) -> Callable[[np.ndarray], np.ndarray]:
        import numpy as np

        n = self.presentation.dim
        big_n = self.presentation.num_generators
        base_fns = [c.as_float_fn() for c in self.base.components]
        fiber_fns = [[e.as_float_fn() for e in row] for row in self.fiber_matrix]

        def rhs(y: np.ndarray) -> np.ndarray:
            x = y[:n]
            xi = y[n:]
            out = np.empty(n + big_n)
            for l in range(n):
                out[l] = base_fns[l](x)
            for j in range(big_n):
                acc = 0.0
                for k in range(big_n):
                    coeff = fiber_fns[j][k](x)
                    if coeff:
                        acc += coeff * xi[k]
                out[n + j] = acc
            return out

        return rhs


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


def flow_rk4(rhs: Callable[[np.ndarray], np.ndarray], start: Sequence[float], t_final: float, steps: int) -> Trajectory:
    """Classical fixed-step RK4; raises NonFiniteState on blow-up."""
    import numpy as np

    if steps < 1:
        raise ValueError("steps must be >= 1")
    y = np.array([float(v) for v in start], dtype=float)
    h = t_final / steps
    times = np.linspace(0.0, t_final, steps + 1)
    states = np.empty((steps + 1, y.size))
    states[0] = y
    # overflow is reported once, as NonFiniteState, not as numpy warnings
    with np.errstate(over="ignore", invalid="ignore"):
        for s in range(steps):
            k1 = rhs(y)
            k2 = rhs(y + 0.5 * h * k1)
            k3 = rhs(y + 0.5 * h * k2)
            k4 = rhs(y + h * k3)
            y = y + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
            if not np.all(np.isfinite(y)):
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
    n = p.dim
    base_fns = [c.as_float_fn() for c in h.base.components]
    jac_fns = [
        [h.base.components[l].diff(p.vars[mm]).as_float_fn() for mm in range(n)] for l in range(n)
    ]

    def lift_rhs(y: np.ndarray) -> np.ndarray:
        x = y[:n]
        cov = y[n:]
        out = np.empty(2 * n)
        for l in range(n):
            out[l] = base_fns[l](x)
        jac = np.array([[jac_fns[l][mm](x) for mm in range(n)] for l in range(n)])
        out[n:] = -jac.T @ cov
        return out

    y0 = [float(x) for x in flow.point] + [float(x) for x in flow.eta]
    traj_l = flow_rk4(lift_rhs, y0, t_final, steps)

    anchor = p.anchor()
    anchor_fns = [[e.as_float_fn() for e in row] for row in anchor]
    max_dev = 0.0
    for s in range(steps + 1):
        xi_h = traj_h.states[s][n:]
        x_l = traj_l.states[s][:n]
        cov = traj_l.states[s][n:]
        rho_t = np.array([[anchor_fns[l][j](x_l) for j in range(p.num_generators)] for l in range(n)])
        xi_lift = rho_t.T @ cov
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
