import dataclasses
import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from folcone import algebra
from folcone.expr import Polynomial, PolyVectorField, parse_polynomial, parse_vector_field
from folcone.foliation import FoliationPresentation, is_regular, jacobi_flag
from folcone.grassmann import Curve, make_subspace
from folcone.hncone import hn_fiber
from folcone.poisson import (
    CovectorFlow,
    NonFiniteState,
    Trajectory,
    check_scenario,
    cotangent_lift_check,
    covector_flow,
    dual_vars,
    ev,
    flow_rk4,
    hamiltonian_field,
    hamiltonian_identity_defect,
    hn_invariance_test,
    poisson_bracket,
)
from folcone.presets import BUILTIN_NAMES, load_preset

XY = ("x", "y")


def abelian():
    return FoliationPresentation(
        XY, (parse_vector_field("d/dx", XY), parse_vector_field("d/dy", XY)), name="abelian"
    )


def so3():
    return load_preset("so3_r3").presentation


def gl2():
    return load_preset("vanishing_origin_2").presentation


class TestHamiltonianField:
    def test_abelian_translation_field(self):
        h = hamiltonian_field(abelian(), 0)
        assert h.base == parse_vector_field("d/dx", XY)
        assert all(e.is_zero() for row in h.fiber_matrix for e in row)
        assert hamiltonian_identity_defect(abelian(), h) == []

    def test_so3_field_and_identities(self):
        p = so3()
        h = hamiltonian_field(p, 0)
        assert h.base == p.generators[0]
        assert hamiltonian_identity_defect(p, h) == []
        # frozen fiber coefficients for a = g1: d(xi_2)/dt = xi_3, d(xi_3)/dt = -xi_2
        one = Polynomial.one(p.vars)
        assert h.fiber_matrix[1][2] == one
        assert h.fiber_matrix[2][1] == -one
        assert h.fiber_matrix[0] == (Polynomial.zero(p.vars),) * 3

    def test_zero_combination(self):
        p = so3()
        h = hamiltonian_field(p, (0, 0, 0))
        assert h.base.is_zero()
        assert all(e.is_zero() for row in h.fiber_matrix for e in row)

    def test_identities_for_all_generators(self):
        for p in (so3(), gl2()):
            for i in range(p.num_generators):
                assert hamiltonian_identity_defect(p, hamiltonian_field(p, i)) == []

    def test_tampered_fiber_matrix_is_a_defect(self):
        p = so3()
        h = hamiltonian_field(p, 0)
        fiber = [list(row) for row in h.fiber_matrix]
        fiber[1][2] = fiber[1][2] + Polynomial.var("x", p.vars)
        tampered = dataclasses.replace(h, fiber_matrix=tuple(map(tuple, fiber)))
        assert hamiltonian_identity_defect(p, tampered) == ["H[ev_e2] != ev_[a,e2]"]

    def test_tampered_base_component_is_a_defect(self):
        p = so3()
        h = hamiltonian_field(p, 0)
        components = list(h.base.components)
        components[2] = components[2] + Polynomial.one(p.vars)
        tampered = dataclasses.replace(h, base=PolyVectorField(p.vars, tuple(components)))
        assert hamiltonian_identity_defect(p, tampered) == ["H[x_3] != rho(a)_3"]

    def test_antisymmetry_of_fiber_parts(self):
        # H_a[ev_b] + H_b[ev_a] = 0 for antisymmetric structure functions
        p = so3()
        names = dual_vars(p)
        for a in range(3):
            for b in range(3):
                ha = hamiltonian_field(p, a)
                hb = hamiltonian_field(p, b)
                e_a = [Fraction(int(k == a)) for k in range(3)]
                e_b = [Fraction(int(k == b)) for k in range(3)]
                lhs = poisson_bracket(p, ev(p, e_a), ev(p, e_b))
                rhs = poisson_bracket(p, ev(p, e_b), ev(p, e_a))
                assert (lhs + rhs).is_zero()

    def test_bracket_matches_field_action(self):
        # {ev_a, .} computed by the bivector equals the constructed field
        p = so3()
        names = dual_vars(p)
        a = (1, 2, -1)
        h = hamiltonian_field(p, a)
        for j in range(3):
            e_j = [Fraction(int(k == j)) for k in range(3)]
            via_bracket = poisson_bracket(p, ev(p, a), ev(p, e_j))
            phi_j = Polynomial.zero(names)
            for k in range(3):
                coeff = h.fiber_matrix[j][k]
                if not coeff.is_zero():
                    phi_j = phi_j + coeff.lift(names) * Polynomial.var(names[3 + k], names)
            assert via_bracket == phi_j


class TestPoissonJacobi:
    def test_so3_cyclic_identity(self):
        p = so3()
        assert jacobi_flag(p)
        gens = [[Fraction(int(k == i)) for k in range(3)] for i in range(3)]
        total = Polynomial.zero(dual_vars(p))
        for (a, b, c) in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
            inner = poisson_bracket(p, ev(p, gens[b]), ev(p, gens[c]))
            total = total + poisson_bracket(p, ev(p, gens[a]), inner)
        assert total.is_zero()

    def test_order2_defect_recorded(self):
        p = load_preset("order2_r2").presentation
        assert jacobi_flag(p) is False
        gens = [[Fraction(int(k == i)) for k in range(6)] for i in range(6)]
        total = Polynomial.zero(dual_vars(p))
        for (a, b, c) in ((0, 2, 4), (2, 4, 0), (4, 0, 2)):
            inner = poisson_bracket(p, ev(p, gens[b]), ev(p, gens[c]))
            total = total + poisson_bracket(p, ev(p, gens[a]), inner)
        # almost-Lie structure: the cyclic sum of (g1, g3, g5) does not vanish
        assert total == parse_polynomial("x^2*xi2 - y^2*xi1", dual_vars(p))

    @pytest.mark.parametrize("name", [n for n in BUILTIN_NAMES if n != "r4_counterexample"])
    def test_jacobiator_vanishes_exactly_when_jacobi_flag(self, name):
        # the Poisson Jacobiator of the ev_{e_a} is the Jacobiator of the structure functions
        p = load_preset(name).presentation
        n_gens = p.num_generators
        e = [ev(p, [int(k == i) for k in range(n_gens)]) for i in range(n_gens)]
        vanishes = True
        for a, b, c in itertools.combinations(range(n_gens), 3):
            total = Polynomial.zero(dual_vars(p))
            for i, j, k in ((a, b, c), (b, c, a), (c, a, b)):
                total = total + poisson_bracket(p, e[i], poisson_bracket(p, e[j], e[k]))
            vanishes = vanishes and total.is_zero()
        assert vanishes == jacobi_flag(p)

    def test_dual_vars_never_repeat_a_base_name(self):
        p = FoliationPresentation(
            ("xi1", "zeta1"), (parse_vector_field("d/dxi1", ("xi1", "zeta1")),), name="clash"
        )
        assert dual_vars(p) == ("xi1", "zeta1", "xi_1")


class TestFlows:
    def test_zero_field_constant(self):
        traj = flow_rk4(lambda y: (0.0,) * len(y), [1.0, 2.0], 1.0, 50)
        assert np.allclose(traj.states[-1], [1.0, 2.0], atol=0)

    def test_abelian_translation(self):
        h = hamiltonian_field(abelian(), 0)
        traj = flow_rk4(h.rhs_fn(), [0.0, 0.0, 1.0, 2.0], 1.0, 100)
        assert np.allclose(traj.states[-1], [1.0, 0.0, 1.0, 2.0], atol=1e-14)

    def test_so3_circle_period(self):
        h = hamiltonian_field(so3(), 2)
        traj = flow_rk4(h.rhs_fn(), [1.0, 0.0, 0.0, 0.0, 0.0, -1.0], 2 * math.pi, 10**4)
        assert np.linalg.norm(traj.states[-1][:3] - np.array([1.0, 0.0, 0.0])) < 1e-8

    def test_blow_up_detected(self):
        with pytest.raises(NonFiniteState):
            flow_rk4(lambda y: tuple(v * v * 1e3 for v in y), [10.0], 10.0, 60)

    def test_non_finite_start(self):
        h = hamiltonian_field(abelian(), 0)
        with pytest.raises(NonFiniteState, match="at step 1$"):
            flow_rk4(h.rhs_fn(), [float("nan"), 0.0, 0.0, 0.0], 1.0, 10)


class TestInvariance:
    def test_abelian_zero_drift(self):
        p = abelian()
        res = hn_invariance_test(p, covector_flow(p, (0, 0), (1, 2), 0, 1.0, 100))
        assert res.max_drift == 0.0 and res.passed

    def test_so3_drift_below_tolerance(self):
        res = hn_invariance_test(so3(), covector_flow(so3(), (1, 0, 0), (0, 1, 0), 2, 1.0, 1000), tol=1e-6)
        assert res.passed and res.max_drift <= 1e-6

    def test_so3_nontrivial_rotation(self):
        res = hn_invariance_test(so3(), covector_flow(so3(), (1, 0, 0), (1, 1, 1), 1, 1.0, 1000), tol=1e-6)
        assert res.passed

    def test_debord_full_dual_zero_drift(self):
        deb = load_preset("debord_line").presentation
        res = hn_invariance_test(deb, covector_flow(deb, (0,), (1,), 0, 1.0, 100))
        assert res.max_drift == 0.0

    def test_singular_start_rejected(self):
        with pytest.raises(ValueError, match=r"singular point \(0,0,0\) at time index 0$"):
            hn_invariance_test(so3(), covector_flow(so3(), (0, 0, 0), (1, 1, 1), 0, 1.0, 10))


@pytest.mark.parametrize("name", BUILTIN_NAMES)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_row_space_is_the_regular_cone_fiber(name, data):
    # at a regular point every accepted arc has the limit ker A(m), so the cone
    # fiber is one space, (ker A(m))° = the row space of A(m): the space that
    # hn_invariance_test reads off the anchor
    p = load_preset(name).presentation
    coordinate = st.fractions(min_value=-3, max_value=3, max_denominator=5)
    m = data.draw(st.tuples(*[coordinate] * p.dim).filter(lambda m: is_regular(p, m)))
    row_space = make_subspace(p.anchor_at(m), p.num_generators)
    assert hn_fiber(p, m).spaces == (row_space,)
    assert hn_fiber(p, m, [Curve.constant(m)]).spaces == (row_space,)


class TestCotangentLift:
    def test_abelian_exact(self):
        p = abelian()
        res = cotangent_lift_check(p, covector_flow(p, (0, 0), (1, 2), 0, 1.0, 100))
        assert res.max_deviation == 0.0

    def test_so3_rotation(self):
        res = cotangent_lift_check(so3(), covector_flow(so3(), (1, 0, 0), (0, 1, 0), 2, 1.0, 1000), tol=1e-6)
        assert res.passed

    def test_gl2(self):
        p = gl2()
        res = cotangent_lift_check(p, covector_flow(p, (1, 0), (1, 1), 1, 1.0, 1000), tol=1e-6)
        assert res.passed

    def test_zero_time(self):
        res = cotangent_lift_check(so3(), covector_flow(so3(), (1, 0, 0), (0, 1, 0), 2, 0.0, 1))
        assert res.max_deviation < 1e-15


def test_scenario_checks_share_one_hamiltonian_flow(monkeypatch):
    # one RK4 run for the H_a flow that both checks read, one for the lift
    from folcone import poisson

    starts = []
    original = poisson.flow_rk4

    def counted(rhs, start, t_final, steps):
        starts.append(list(start))
        return original(rhs, start, t_final, steps)

    monkeypatch.setattr(poisson, "flow_rk4", counted)
    res = check_scenario(so3(), (1, 0, 0), (0, 1, 0), 2, 1.0, 200, tol=1e-6)
    assert res.passed and res.identity_defects == ()
    # (m, rho*_m eta) for the H_a flow, (m, eta) for the cotangent lift
    assert starts == [[1.0, 0.0, 0.0, 0.0, 0.0, -1.0], [1.0, 0.0, 0.0, 0.0, 1.0, 0.0]]


# ---------------------------------------------------------------------------
# Reference: the float layer on numpy arrays, which the generated code
# replaces; every state and every measured float must be the same bits
# ---------------------------------------------------------------------------


def numpy_rhs_fn(h):
    n = h.presentation.dim
    big_n = h.presentation.num_generators
    base_fns = [c.as_float_fn() for c in h.base.components]
    fiber_fns = [[e.as_float_fn() for e in row] for row in h.fiber_matrix]

    def rhs(y):
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


def numpy_flow_rk4(rhs, start, t_final, steps):
    y = np.array([float(v) for v in start], dtype=float)
    h = t_final / steps
    times = np.linspace(0.0, t_final, steps + 1)
    states = np.empty((steps + 1, y.size))
    states[0] = y
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


def numpy_covector_flow(p, m, eta, a, t_final, steps):
    point = tuple(Fraction(x) for x in m)
    eta_q = tuple(Fraction(x) for x in eta)
    xi0 = algebra.mat_vec(algebra.transpose(p.anchor_at(point)), eta_q)
    h = hamiltonian_field(p, a)
    return CovectorFlow(point, eta_q, h, numpy_flow_rk4(numpy_rhs_fn(h), point + tuple(xi0), t_final, steps))


def numpy_lift_deviation(p, flow):
    h, traj_h = flow.field, flow.trajectory
    steps = len(traj_h.times) - 1
    n = p.dim
    base_fns = [c.as_float_fn() for c in h.base.components]
    jac_fns = [[h.base.components[l].diff(p.vars[mm]).as_float_fn() for mm in range(n)] for l in range(n)]

    def lift_rhs(y):
        x = y[:n]
        cov = y[n:]
        out = np.empty(2 * n)
        for l in range(n):
            out[l] = base_fns[l](x)
        jac = np.array([[jac_fns[l][mm](x) for mm in range(n)] for l in range(n)])
        out[n:] = -jac.T @ cov
        return out

    y0 = [float(x) for x in flow.point] + [float(x) for x in flow.eta]
    traj_l = numpy_flow_rk4(lift_rhs, y0, float(traj_h.times[-1]), steps)
    anchor_fns = [[e.as_float_fn() for e in row] for row in p.anchor()]
    max_dev = 0.0
    for s in range(steps + 1):
        xi_h = traj_h.states[s][n:]
        x_l = traj_l.states[s][:n]
        cov = traj_l.states[s][n:]
        rho_t = np.array([[anchor_fns[l][j](x_l) for j in range(p.num_generators)] for l in range(n)])
        max_dev = max(max_dev, float(np.linalg.norm(xi_h - rho_t.T @ cov)))
    return traj_l, max_dev


def _seeded_scenarios(name, count):
    """Regular starts in [-1, 1]^n, where the quadratic fields of order2_r2
    stay finite up to T = 1 for a single generator, and a covector eta; a
    generator index, then a combination of all generators, by turns.  A
    combination makes the Jacobian dense, so that the lift's products sum
    several terms."""
    p = load_preset(name).presentation
    rng = random.Random(f"{name}:{count}")
    coordinate = lambda: Fraction(rng.randint(-3, 3), rng.randint(3, 4))  # noqa: E731
    out = []
    while len(out) < count:
        m = tuple(coordinate() for _ in range(p.dim))
        if not is_regular(p, m):
            continue
        if len(out) % 2:
            a = tuple(Fraction(rng.randint(-5, 5), rng.randint(1, 7)) for _ in range(p.num_generators))
        else:
            a = rng.randrange(p.num_generators)
        out.append((m, tuple(coordinate() for _ in range(p.dim)), a))
    return out


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_generated_float_layer_matches_numpy_bit_for_bit(name):
    p = load_preset(name).presentation
    steps = 60 if name == "r4_counterexample" else 300
    compared = 0
    for m, eta, a in _seeded_scenarios(name, 4):
        try:
            ref = numpy_covector_flow(p, m, eta, a, 1.0, steps)
        except NonFiniteState as exc:
            with pytest.raises(NonFiniteState, match=f"^{exc}$"):
                covector_flow(p, m, eta, a, 1.0, steps)
            continue
        new = covector_flow(p, m, eta, a, 1.0, steps)
        assert np.array_equal(new.trajectory.states, ref.trajectory.states)
        assert np.array_equal(new.trajectory.times, ref.trajectory.times)
        ref_inv, new_inv = hn_invariance_test(p, ref), hn_invariance_test(p, new)
        assert (new_inv.max_drift, new_inv.snap_radius) == (ref_inv.max_drift, ref_inv.snap_radius)
        _, ref_dev = numpy_lift_deviation(p, ref)
        assert cotangent_lift_check(p, new).max_deviation == ref_dev
        compared += 1
    assert compared >= 3


@pytest.mark.parametrize(
    "point, t_final, steps, blow_up",
    [((1, 1), 2.0, 1000, 503), ((1, 1), 1.5, 50, 36), ((1, 0), 3.0, 1000, 336)],
)
def test_blow_up_at_the_reference_step(point, t_final, steps, blow_up):
    # the quadratic fields of order2_r2 leave the finite range in finite time
    p = load_preset("order2_r2").presentation
    for flow in (covector_flow, numpy_covector_flow):
        with pytest.raises(NonFiniteState, match=f"at step {blow_up}$"):
            flow(p, point, (1, 1), 0, t_final, steps)
