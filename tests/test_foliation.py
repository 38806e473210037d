import dataclasses
import os
import random
import subprocess
import sys
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import folcone
from folcone import algebra, foliation
from folcone.expr import Polynomial, parse_polynomial, parse_vector_field
from folcone.foliation import (
    FoliationPresentation,
    MissingStructureFunctions,
    _membership_rows,
    anchor_matrix,
    default_strong_kernel_bound,
    isotropy_algebra,
    jacobi_flag,
    kernel_at,
    leaf_dimension_at,
    monomials_up_to,
    regular_data,
    solve_structure_functions,
    strong_kernel_at,
    structure_defect,
)
from folcone.grassmann import make_subspace
from folcone.presets import BUILTIN_NAMES, load_preset

XYZ = ("x", "y", "z")
XY = ("x", "y")


def bracket_coords(iso, u, v):
    """Bracket of two isotropy classes given in quotient-basis coordinates,
    summed term by term from the bracket table: the reference the closure
    test of ``hncone.limit_subalgebra_check`` is compared against."""
    out = [Fraction(0)] * iso.dim
    for a, ua in enumerate(u):
        if ua == 0:
            continue
        for b, vb in enumerate(v):
            if vb == 0:
                continue
            terms = [(k, w) for k, w in enumerate(iso.bracket_table[a][b]) if w]
            if terms:
                uv = ua * vb
                for k, w in terms:
                    out[k] += uv * w
    return tuple(out)


def fresh_so3():
    gens = tuple(
        parse_vector_field(t, XYZ)
        for t in ("z*d/dy - y*d/dz", "x*d/dz - z*d/dx", "y*d/dx - x*d/dy")
    )
    return FoliationPresentation(XYZ, gens, name="so3")


def fresh_gl2():
    gens = tuple(
        parse_vector_field(t, ("x1", "x2"))
        for t in ("x1*d/dx1", "x1*d/dx2", "x2*d/dx1", "x2*d/dx2")
    )
    return FoliationPresentation(("x1", "x2"), gens, name="gl2")


def fresh_order2():
    texts = ["x^2*d/dx", "y^2*d/dx", "x*y*d/dx", "x^2*d/dy", "y^2*d/dy", "x*y*d/dy"]
    return FoliationPresentation(XY, tuple(parse_vector_field(t, XY) for t in texts), name="order2")


def fresh_so3_augmented():
    # a redundant generator x X1 + y X2 + z X3 gives a one-dimensional strong
    # kernel at the origin inside a three-dimensional isotropy algebra
    so3 = fresh_so3()
    x, y, z = (Polynomial.var(v, XYZ) for v in XYZ)
    extra = x * so3.generators[0] + y * so3.generators[1] + z * so3.generators[2]
    return FoliationPresentation(XYZ, so3.generators + (extra,), name="so3_aug")


def lift_bracket_value(p, u, v, m):
    """Value at m of [sum u_i e_i, sum v_j e_j] via the structure functions."""
    support = {i for w in (u, v) for i, x in enumerate(w) if x}
    return foliation._lift_bracket(foliation._structure_at(p, m, support), u, v)


def non_involutive():
    # [d/dx, x d/dy] = d/dy is no combination of the two fields at x = 0,
    # so no structure functions exist at any bound
    return FoliationPresentation(XY, (parse_vector_field("d/dx", XY), parse_vector_field("x*d/dy", XY)))


class TestAnchor:
    def test_so3_matrix(self):
        a = anchor_matrix(fresh_so3())
        expected = [
            ["0", "-z", "y"],
            ["z", "0", "-x"],
            ["-y", "x", "0"],
        ]
        for i in range(3):
            for j in range(3):
                assert a[i][j] == parse_polynomial(expected[i][j], XYZ)

    def test_order2_matrix(self):
        a = anchor_matrix(fresh_order2())
        row0 = ["x^2", "y^2", "x*y", "0", "0", "0"]
        row1 = ["0", "0", "0", "x^2", "y^2", "x*y"]
        for j in range(6):
            assert a[0][j] == parse_polynomial(row0[j], XY)
            assert a[1][j] == parse_polynomial(row1[j], XY)

    def test_single_generator_line(self):
        p = FoliationPresentation(("x",), (parse_vector_field("d/dx", ("x",)),))
        a = anchor_matrix(p)
        assert len(a) == 1 and len(a[0]) == 1 and a[0][0] == Polynomial.one(("x",))


class TestRegularData:
    def test_so3(self):
        r, is_regular = regular_data(fresh_so3())
        assert r == 2
        assert is_regular((1, 0, 0)) and not is_regular((0, 0, 0))

    def test_line_all_regular(self):
        p = FoliationPresentation(("x",), (parse_vector_field("d/dx", ("x",)),))
        r, is_regular = regular_data(p)
        assert r == 1 and is_regular((0,)) and is_regular((5,))

    def test_gl2(self):
        r, is_regular = regular_data(fresh_gl2())
        assert r == 2
        assert not is_regular((0, 0)) and is_regular((1, 0))

    def test_leaf_dimension(self):
        so3 = fresh_so3()
        assert leaf_dimension_at(so3, (1, 2, 2)) == 2
        assert leaf_dimension_at(so3, (0, 0, 0)) == 0
        line = FoliationPresentation(("x",), (parse_vector_field("d/dx", ("x",)),))
        assert leaf_dimension_at(line, (3,)) == 1


class TestStrongKernel:
    def test_so3_at_origin(self):
        s = strong_kernel_at(fresh_so3(), (0, 0, 0), 1)
        assert s.dim == 0

    def test_so3_at_regular_point(self):
        s = strong_kernel_at(fresh_so3(), (1, 0, 0), 1)
        assert s.basis == ((Fraction(1), 0, 0),)
        assert s == kernel_at(fresh_so3(), (1, 0, 0))

    def test_monotone_in_degree_and_inside_kernel(self):
        so3 = fresh_so3()
        for m in ((0, 0, 0), (1, 0, 0), (1, 2, -1), (0, 1, 1)):
            ker = kernel_at(so3, m)
            previous = None
            for bound in range(4):
                s = strong_kernel_at(so3, m, bound)
                assert ker.contains_subspace(s)
                if previous is not None:
                    assert s.contains_subspace(previous)
                previous = s

    def test_gl2_origin_trivial(self):
        assert strong_kernel_at(fresh_gl2(), (0, 0), 3).dim == 0

    def test_shifted_point_uses_recentered_system(self):
        # at (0,1) the syzygy (y,0,-x,...) of the order-two columns evaluates
        # to (1,0,0,...): hand computation
        o2 = fresh_order2()
        s = strong_kernel_at(o2, (0, 1), 2)
        assert s.contains_vector((1, 0, 0, 0, 0, 0))
        assert s == kernel_at(o2, (0, 1))


def projected_strong_kernel(p, m, bound):
    """The strong kernel by the full route: reduce the whole degree-bounded
    system and project every kernel vector onto the constant coefficients."""
    point = [Fraction(x) for x in m]
    shifted = [[entry.shift(point) for entry in row] for row in p.anchor()]
    monos = monomials_up_to(p.dim, bound)
    pivots = algebra.sparse_rref(_membership_rows(shifted, monos))
    coords = [j * len(monos) for j in range(p.num_generators)]
    values = algebra.kernel_vectors(pivots, p.num_generators * len(monos), coords)
    return make_subspace(values, p.num_generators)


def seeded_points(name, dim):
    rng = random.Random(name)
    points = [(0,) * dim]
    for _ in range(2):
        points.append(tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(dim)))
    return points


@pytest.mark.parametrize("name", [*BUILTIN_NAMES, "so3_augmented"])
def test_strong_kernel_equals_the_full_projection(name):
    p = fresh_so3_augmented() if name == "so3_augmented" else load_preset(name).presentation
    for m in seeded_points(name, p.dim):
        for bound in range(default_strong_kernel_bound(p) + 1):
            assert strong_kernel_at(p, m, bound) == projected_strong_kernel(p, m, bound), (m, bound)


def test_strong_kernel_of_r4_at_a_point_with_large_coordinates():
    p = load_preset("r4_counterexample").presentation
    m = (10**12 + 39, -(7**20), 3**25, 2**61 - 1)
    s = strong_kernel_at(p, m)
    assert s == projected_strong_kernel(p, m, default_strong_kernel_bound(p))
    assert s.dim == 12


class TestStructureFunctions:
    def test_so3_preset_ships_valid_structure(self):
        p = load_preset("so3_r3").presentation
        assert p.has_structure()
        assert structure_defect(p) is None

    def test_so3_solved_constants(self):
        so3 = fresh_so3()
        solved = solve_structure_functions(so3)
        assert solved is not None and solved.bound_used == 0
        c = solved.functions
        one = Polynomial.one(XYZ)
        zero = Polynomial.zero(XYZ)
        assert c[0][1] == (zero, zero, one)
        assert c[1][2] == (one, zero, zero)
        assert c[2][0] == (zero, one, zero)

    def test_commuting_generators(self):
        p = FoliationPresentation(
            XY, (parse_vector_field("d/dx", XY), parse_vector_field("d/dy", XY))
        )
        c = solve_structure_functions(p).functions
        assert all(q.is_zero() for row in c for vec in row for q in vec)

    def test_gl2_table(self):
        gl2 = fresh_gl2()
        solved = solve_structure_functions(gl2)
        assert solved.bound_used == 0
        c = solved.functions

        def vec(*entries):
            return tuple(Polynomial.const(e, gl2.vars) for e in entries)

        # [E11,E12]=E12, [E11,E21]=-E21, [E11,E22]=0,
        # [E12,E21]=E11-E22, [E12,E22]=E12, [E21,E22]=-E21   (hand computation)
        assert c[0][1] == vec(0, 1, 0, 0)
        assert c[0][2] == vec(0, 0, -1, 0)
        assert c[0][3] == vec(0, 0, 0, 0)
        assert c[1][2] == vec(1, 0, 0, -1)
        assert c[1][3] == vec(0, 1, 0, 0)
        assert c[2][3] == vec(0, 0, -1, 0)

    def test_order2_needs_degree_one(self):
        o2 = fresh_order2()
        assert solve_structure_functions(o2, 0) is None
        solved = solve_structure_functions(o2, 2)
        assert solved is not None and solved.bound_used == 1
        assert structure_defect(o2) is None

    def test_invalid_structure_rejected(self):
        gens = tuple(
            parse_vector_field(t, XYZ)
            for t in ("z*d/dy - y*d/dz", "x*d/dz - z*d/dx", "y*d/dx - x*d/dy")
        )
        one = Polynomial.one(XYZ)
        zero = Polynomial.zero(XYZ)
        bad = [[(zero,) * 3 for _ in range(3)] for _ in range(3)]
        bad[0][1] = (one, zero, zero)  # wrong: [g1,g2] = g3, not g1
        bad[1][0] = (-one, zero, zero)
        with pytest.raises(ValueError):
            FoliationPresentation(XYZ, gens, tuple(tuple(r) for r in bad))


    def test_presentation_solves_its_structure_once_and_keeps_it(self, monkeypatch):
        solves, checks = [], []
        solve, defect = foliation.solve_structure_functions, foliation.structure_defect
        monkeypatch.setattr(foliation, "solve_structure_functions", lambda *a: solves.append(a) or solve(*a))
        monkeypatch.setattr(foliation, "structure_defect", lambda p: checks.append(p) or defect(p))
        o2 = fresh_order2()
        assert solve_structure_functions(o2, 0) is None  # a failed solve leaves o2 as it was
        assert o2.has_structure() and jacobi_flag(o2) is False
        assert isotropy_algebra(o2, (0, 0)).dim == 6
        assert o2.structure() == solve(o2) and o2.structure().bound_used == 1
        assert solves == [(o2,)] and checks == []  # solved once, never re-validated

    def test_given_structure_is_never_solved(self, monkeypatch):
        monkeypatch.setattr(foliation, "solve_structure_functions", None)
        so3 = FoliationPresentation(XYZ, fresh_so3().generators, load_preset("so3_r3").presentation.given_structure)
        assert so3.structure().bound_used is None and jacobi_flag(so3) is True


def test_presentation_is_frozen():
    p = fresh_so3_augmented()
    p.has_structure()
    for f in dataclasses.fields(p):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(p, f.name, getattr(p, f.name))


def test_isotropy_needs_no_prior_solve_in_a_fresh_process():
    code = (
        "from folcone.foliation import isotropy_algebra\n"
        "from folcone.presets import load_preset\n"
        "print(isotropy_algebra(load_preset('vanishing_origin_2').presentation, (0, 0)).dim)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(folcone.__file__).resolve().parent.parent))
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout == "4\n"


class TestJacobiFlag:
    def test_so3_true(self):
        p = load_preset("so3_r3").presentation
        assert jacobi_flag(p) is True

    def test_gl2_true(self):
        assert jacobi_flag(fresh_gl2()) is True

    def test_order2_false(self):
        # frozen: the canonical degree-1 structure choice fails Jacobi
        assert jacobi_flag(fresh_order2()) is False

    def test_requires_structure(self):
        with pytest.raises(MissingStructureFunctions):
            jacobi_flag(non_involutive())


def jacobi_flag_reference(p):
    """The Jacobi flag summed over Polynomial objects, X_c[c_ab^m] always applied."""
    c = p.require_structure("the Jacobi flag")
    n = p.num_generators
    zero = Polynomial.zero(p.vars)
    nonzero = [
        [[(l, c[a][b][l]) for l in range(n) if not c[a][b][l].is_zero()] for b in range(n)]
        for a in range(n)
    ]
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                acc = [zero] * n
                for (a, b, cc) in ((i, j, k), (j, k, i), (k, i, j)):
                    for l, cab_l in nonzero[a][b]:
                        for m_out, v in nonzero[l][cc]:
                            acc[m_out] = acc[m_out] + cab_l * v
                    for m_out, cab_m in nonzero[a][b]:
                        acc[m_out] = acc[m_out] - p.generators[cc].apply_to(cab_m)
                if any(not q.is_zero() for q in acc):
                    return False
    return True


@pytest.mark.parametrize("name", [*BUILTIN_NAMES, "gl2", "order2", "so3_augmented"])
def test_jacobi_flag_matches_the_polynomial_reference(name):
    fixtures = {"gl2": fresh_gl2, "order2": fresh_order2, "so3_augmented": fresh_so3_augmented}
    p = fixtures[name]() if name in fixtures else load_preset(name).presentation
    assert jacobi_flag(p) is jacobi_flag_reference(p)


def zero_generator_presentation(n_gens, upper):
    """N zero vector fields over (x, y): every antisymmetric c satisfies
    [X_i, X_j] = sum_k c_ij^k X_k, so the Jacobi flag tests c alone.
    ``upper`` lists c_ij for the pairs i < j in order."""
    zero_field = parse_vector_field("0*d/dx", XY)
    zero = (Polynomial.zero(XY),) * n_gens
    c = [[zero] * n_gens for _ in range(n_gens)]
    pairs = [(i, j) for i in range(n_gens) for j in range(i + 1, n_gens)]
    for (i, j), vec in zip(pairs, upper):
        c[i][j] = tuple(vec)
        c[j][i] = tuple(-q for q in vec)
    return FoliationPresentation(XY, (zero_field,) * n_gens, tuple(tuple(row) for row in c))


@st.composite
def constant_structures(draw):
    n_gens = draw(st.integers(3, 4))
    entry = st.integers(-1, 1).map(lambda k: Polynomial.const(k, XY))
    upper = draw(
        st.lists(st.lists(entry, min_size=n_gens, max_size=n_gens), min_size=n_gens * (n_gens - 1) // 2,
                 max_size=n_gens * (n_gens - 1) // 2)
    )
    return zero_generator_presentation(n_gens, upper)


@settings(max_examples=150, deadline=None)
@given(constant_structures())
def test_jacobi_flag_matches_the_reference_on_constant_structures(p):
    assert jacobi_flag(p) is jacobi_flag_reference(p)


def test_constant_structures_give_both_verdicts():
    one = Polynomial.one(XY)
    zero = Polynomial.zero(XY)
    # Heisenberg: [e1, e2] = e3, a Lie algebra
    heisenberg = zero_generator_presentation(3, [(zero, zero, one), (zero,) * 3, (zero,) * 3])
    # [e1, e2] = e1 and [e2, e3] = e2: the Jacobiator of (e1, e2, e3) is -e1
    broken = zero_generator_presentation(3, [(one, zero, zero), (zero,) * 3, (zero, one, zero)])
    assert jacobi_flag(heisenberg) is jacobi_flag_reference(heisenberg) is True
    assert jacobi_flag(broken) is jacobi_flag_reference(broken) is False


class TestIsotropy:
    def test_missing_structure_raises(self):
        with pytest.raises(MissingStructureFunctions):
            isotropy_algebra(non_involutive(), (0, 0))

    def test_so3_origin_table(self):
        iso = isotropy_algebra(fresh_so3(), (0, 0, 0))
        assert iso.dim == 3 and iso.sker.dim == 0
        eps = {
            (0, 1): (0, 0, 1),
            (1, 2): (1, 0, 0),
            (2, 0): (0, 1, 0),
        }
        for (a, b), expected in eps.items():
            assert iso.bracket_table[a][b] == tuple(Fraction(x) for x in expected)
            assert iso.bracket_table[b][a] == tuple(-Fraction(x) for x in expected)

    def test_so3_regular_point_trivial(self):
        iso = isotropy_algebra(fresh_so3(), (1, 0, 0))
        assert iso.dim == 0 and iso.ambient.dim == 1 and iso.sker.dim == 1

    def test_gl2_origin_is_the_matrix_algebra(self):
        iso = isotropy_algebra(fresh_gl2(), (0, 0))
        assert iso.dim == 4
        # bracket of classes must be the matrix commutator (hand oracle)
        def as_matrix(v):
            return [[v[0], v[1]], [v[2], v[3]]]

        def commutator(u, v):
            a, b = as_matrix(u), as_matrix(v)
            prod1 = [
                [sum(a[i][k] * b[k][j] for k in range(2)) for j in range(2)] for i in range(2)
            ]
            prod2 = [
                [sum(b[i][k] * a[k][j] for k in range(2)) for j in range(2)] for i in range(2)
            ]
            return tuple(
                Fraction(prod1[i][j] - prod2[i][j]) for i in range(2) for j in range(2)
            )

        import random

        rng = random.Random(31)
        for _ in range(10):
            u = tuple(Fraction(rng.randint(-3, 3)) for _ in range(4))
            v = tuple(Fraction(rng.randint(-3, 3)) for _ in range(4))
            assert bracket_coords(iso, iso.class_coordinates(u), iso.class_coordinates(v)) == commutator(u, v)

    def test_bracket_well_defined_modulo_strong_kernel(self):
        # augmented rotation preset: the redundant zero generator creates a
        # nonzero strong kernel at the origin, so representative changes matter
        aug = fresh_so3_augmented()
        iso = isotropy_algebra(aug, (0, 0, 0))
        assert iso.sker.dim == 1 and iso.dim == 3
        sker_vec = iso.sker.basis[0]
        for a in range(iso.dim):
            for b in range(iso.dim):
                rep = iso.quotient_basis[a]
                shifted = tuple(r + s for r, s in zip(rep, sker_vec))
                w1 = lift_bracket_value(aug, rep, iso.quotient_basis[b], iso.point)
                w2 = lift_bracket_value(aug, shifted, iso.quotient_basis[b], iso.point)
                delta = tuple(q2 - q1 for q1, q2 in zip(w1, w2))
                assert iso.sker.contains_vector(delta)

    def test_class_coordinates_reject_outside_kernel(self):
        iso = isotropy_algebra(fresh_so3(), (1, 0, 0))
        with pytest.raises(ValueError):
            iso.class_coordinates((0, 1, 0))


def test_monomials_up_to_counts():
    assert len(monomials_up_to(2, 2)) == 6
    assert len(monomials_up_to(3, 1)) == 4
    assert monomials_up_to(2, 1)[0] == (0, 0)


def test_membership_identity_for_stored_structure():
    p = load_preset("so3_r3").presentation
    c = p.structure().functions
    for i in range(3):
        for j in range(3):
            combo_components = []
            for comp_idx in range(3):
                acc = Polynomial.zero(p.vars)
                for k in range(3):
                    acc = acc + c[i][j][k] * p.generators[k].components[comp_idx]
                combo_components.append(acc)
            bracket = p.bracket(i, j)
            for lhs, rhs in zip(combo_components, bracket.components):
                assert lhs == rhs


ISOTROPY_CASES = (
    ("so3_r3", (0, 0, 0)),
    ("so3_r3", (1, 2, -1)),
    ("vanishing_origin_3", (0, 0, 0)),
    ("vanishing_origin_3", (1, -2, 3)),
    ("order2_r2", (0, 0)),
    ("order2_r2", (2, -1)),
    (None, (0, 0, 0)),  # fresh_so3_augmented: strong kernel and quotient both nonzero
)


@lru_cache(maxsize=None)
def isotropy_case(index):
    name, m = ISOTROPY_CASES[index]
    p = fresh_so3_augmented() if name is None else load_preset(name).presentation
    return isotropy_algebra(p, m)


def solve_oracle(iso, v):
    """Quotient coordinates of v from one linear solve against the
    representatives and the strong-kernel basis; None outside ker."""
    cols = iso.quotient_basis + iso.sker.basis
    sol = algebra.solve_linear([[col[i] for col in cols] for i in range(len(v))], v)
    return None if sol is None else sol[: iso.dim]


small_fraction = st.builds(Fraction, st.integers(-5, 5), st.integers(1, 4))


@settings(max_examples=100, deadline=None)
@given(st.integers(0, len(ISOTROPY_CASES) - 1), st.data())
def test_class_coordinates_match_a_linear_solve(index, data):
    iso = isotropy_case(index)
    n = iso.ambient.ambient_dim
    coeffs = data.draw(st.lists(small_fraction, min_size=iso.ambient.dim, max_size=iso.ambient.dim))
    v = [sum((c * row[i] for c, row in zip(coeffs, iso.ambient.basis)), Fraction(0)) for i in range(n)]
    assert iso.class_coordinates(v) == solve_oracle(iso, v)
    # an arbitrary vector: the same coordinates, or a ValueError outside ker
    w = data.draw(st.lists(small_fraction, min_size=n, max_size=n))
    expected = solve_oracle(iso, w)
    if expected is None:
        with pytest.raises(ValueError):
            iso.class_coordinates(w)
    else:
        assert iso.class_coordinates(w) == expected


@pytest.mark.parametrize("index", range(len(ISOTROPY_CASES)))
def test_bracket_table_equals_every_ordered_pair(index):
    # the table is filled from the pairs a < b; each entry, the diagonal and
    # the pairs b > a included, must be the class of the bracket value itself
    iso = isotropy_case(index)
    name, _ = ISOTROPY_CASES[index]
    p = fresh_so3_augmented() if name is None else load_preset(name).presentation
    reps = iso.quotient_basis
    assert iso.bracket_table == tuple(
        tuple(iso.class_coordinates(lift_bracket_value(p, qa, qb, iso.point)) for qb in reps)
        for qa in reps
    )


def dense_reduce(basis, v):
    """Reference remainder modulo reduced-echelon rows, over all N columns."""
    r = [Fraction(x) for x in v]
    for row in basis:
        f = r[next(i for i, x in enumerate(row) if x)]
        r = [a - f * b for a, b in zip(r, row)]
    return r


@st.composite
def random_quotients(draw):
    """ker, a subspace S of it and the representatives of ker/S, as
    ``isotropy_algebra`` forms them, from random rows in Q^N."""
    n = draw(st.integers(1, 6))
    entry = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))
    rows = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=0, max_size=n))
    ker = make_subspace(rows, n)
    picks = draw(st.lists(st.lists(st.integers(-2, 2), min_size=ker.dim, max_size=ker.dim), max_size=ker.dim))
    sker = make_subspace(
        [[sum((c * row[i] for c, row in zip(pick, ker.basis)), Fraction(0)) for i in range(n)] for pick in picks], n
    )
    quotient = make_subspace([r for r in (dense_reduce(sker.basis, row) for row in ker.basis) if any(r)], n)
    return foliation.IsotropyAlgebra((), ker, sker, quotient, (), 0)


@settings(max_examples=150, deadline=None)
@given(random_quotients(), st.data())
def test_class_coordinates_match_a_dense_reduction(iso, data):
    n = iso.ambient.ambient_dim
    coeffs = data.draw(st.lists(small_fraction, min_size=iso.ambient.dim, max_size=iso.ambient.dim))
    inside = [sum((c * row[i] for c, row in zip(coeffs, iso.ambient.basis)), Fraction(0)) for i in range(n)]
    outside = data.draw(st.lists(small_fraction, min_size=n, max_size=n))
    leads = [next(i for i, x in enumerate(q) if x) for q in iso.quotient_basis]
    for v in (inside, outside):
        r = dense_reduce(iso.sker.basis, v)
        if any(dense_reduce(iso.quotient_basis, r)):
            with pytest.raises(ValueError, match="vector does not lie in the kernel"):
                iso.class_coordinates(v)
        else:
            assert iso.class_coordinates(v) == tuple(r[c] for c in leads) == solve_oracle(iso, v)
    assert iso.dim == iso.ambient.dim - iso.sker.dim
